"""Line-oriented text format for front words.

A document is a ``front NAME`` header, one event per line (``L p``, ``X p``,
``R p`` with a 1-based strand position), and optional ``orient c +`` /
``orient c -`` lines choosing component orientations.  ``#`` starts a
comment; blank lines are ignored.  The header may be omitted, in which case
the document is normalized under the name ``unnamed``.

``parse_front`` and ``serialize_front`` are inverse on normalized documents:
serialization writes the header, then events, then orientation directives,
and parsing that text reproduces the document field-for-field.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .fronts import BY_LETTER, FrontDiagram, FrontError, FrontEvent

_TOKEN = re.compile(r"\S+")
_NAME = re.compile(r"[A-Za-z0-9_.\-]+\Z")


class FrontSyntaxError(ValueError):
    """A token the grammar cannot accept, with its position."""

    def __init__(self, line: int, column: int, expected: str, found: str = ""):
        self.line = line
        self.column = column
        self.expected = expected
        self.found = found
        where = f"line {line}, column {column}"
        tail = f", found {found!r}" if found else ""
        super().__init__(f"{where}: expected {expected}{tail}")


class FrontSemanticError(ValueError):
    """A well-formed document that does not describe a valid front."""


@dataclass(frozen=True)
class FrontDocument:
    """Parsed front text: a name, the event word, orientation directives."""

    name: str
    events: tuple[FrontEvent, ...]
    orient_directives: tuple[tuple[int, int], ...] = field(default_factory=tuple)

    def to_diagram(self) -> FrontDiagram:
        """Build the validated diagram, applying orientation directives."""
        try:
            plain = FrontDiagram(self.events)
        except FrontError as err:
            raise FrontSemanticError(f"{self.name}: {err}") from err
        signs = list(plain.orientations)
        for component, sign in self.orient_directives:
            if not 0 <= component < len(signs):
                raise FrontSemanticError(
                    f"{self.name}: orient names component {component}, "
                    f"but there are {len(signs)}"
                )
            signs[component] = sign
        return plain.with_orientations(signs)


def _tokens(line: str):
    cut = line.find("#")
    if cut >= 0:
        line = line[:cut]
    return [(m.group(), m.start() + 1) for m in _TOKEN.finditer(line)]


def _parse_position(token: str, lineno: int, column: int) -> int:
    if not token.isdigit() or int(token) < 1:
        raise FrontSyntaxError(lineno, column, "strand position (positive integer)", token)
    return int(token)


def parse_front(text: str) -> FrontDocument:
    name = "unnamed"
    saw_header = False
    saw_body = False
    events: list[FrontEvent] = []
    orients: list[tuple[int, int]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = _tokens(raw)
        if not tokens:
            continue
        head, col = tokens[0]

        if head == "front":
            if saw_header or saw_body:
                raise FrontSyntaxError(lineno, col, "event or orient line", head)
            if len(tokens) < 2:
                raise FrontSyntaxError(lineno, col + len(head), "front name")
            token, col2 = tokens[1]
            if not _NAME.match(token):
                raise FrontSyntaxError(lineno, col2, "front name", token)
            if len(tokens) > 2:
                raise FrontSyntaxError(lineno, tokens[2][1], "end of line", tokens[2][0])
            name, saw_header = token, True
            continue

        if head in BY_LETTER:
            if len(tokens) != 2:
                where = tokens[2][1] if len(tokens) > 2 else col + len(head)
                found = tokens[2][0] if len(tokens) > 2 else ""
                raise FrontSyntaxError(lineno, where, "a single strand position", found)
            pos = _parse_position(tokens[1][0], lineno, tokens[1][1])
            events.append(FrontEvent(BY_LETTER[head], pos))
            saw_body = True
            continue

        if head == "orient":
            if len(tokens) != 3:
                raise FrontSyntaxError(
                    lineno, col + len(head), "component index and a sign"
                )
            comp_token, comp_col = tokens[1]
            if not comp_token.isdigit():
                raise FrontSyntaxError(lineno, comp_col, "component index", comp_token)
            sign_token, sign_col = tokens[2]
            if sign_token not in ("+", "-"):
                raise FrontSyntaxError(lineno, sign_col, "'+' or '-'", sign_token)
            orients.append((int(comp_token), 1 if sign_token == "+" else -1))
            saw_body = True
            continue

        raise FrontSyntaxError(lineno, col, "'front', 'L', 'X', 'R', or 'orient'", head)

    return FrontDocument(name, tuple(events), tuple(orients))


def serialize_front(doc: FrontDocument) -> str:
    lines = [f"front {doc.name}"]
    lines += [f"{ev.kind.value} {ev.pos}" for ev in doc.events]
    lines += [
        f"orient {component} {'+' if sign > 0 else '-'}"
        for component, sign in doc.orient_directives
    ]
    return "\n".join(lines) + "\n"


def document_from_diagram(name: str, diagram: FrontDiagram) -> FrontDocument:
    """A normalized document reproducing the diagram (to_diagram inverse)."""
    orients = tuple(
        (component, sign)
        for component, sign in enumerate(diagram.orientations)
        if sign < 0
    )
    return FrontDocument(name, diagram.events, orients)
