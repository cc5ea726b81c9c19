"""Slice-word calculus for Legendrian front diagrams.

A front is encoded as a left-to-right word of elementary slice events acting
on a stack of horizontal strands, numbered from 1 at the top:

* ``L p`` -- left cusp: insert a new strand pair at positions ``p``, ``p+1``
* ``X p`` -- crossing: swap the strands at positions ``p``, ``p+1``
* ``R p`` -- right cusp: join the strands at positions ``p``, ``p+1`` and
  remove them

A word is *closed* when it begins and ends with zero strands.  Arcs run from
their birth (left) cusp to their death (right) cusp, passing straight through
crossings.  At a crossing the strand moving downward (from ``p`` to ``p+1``)
is the one in front; for fronts this is forced, not a choice.

Each component is an immersed circle whose traversal alternates horizontal
direction at every cusp.  The canonical traversal runs the component's
lowest-numbered arc left to right; an orientation of a diagram is a sign per
component relative to the canonical traversal (components are ordered by
their smallest arc index).

Sign conventions, calibrated so that kink insertion has writhe +1 and the
two crossings of a cusp-pass cancel:

* crossing sign = product of the two strands' horizontal directions
* a cusp is *down* if the traversal passes from its upper arc to its lower
* rotation number = (down cusps - up cusps) / 2
* tb = (sum of self-crossing signs) - (own cusp count) / 2
* lk(i, j) = half the signed count of crossings between components i and j

Footprints, where an event acts: ``FOOTPRINT`` gives ``(taken, left)`` per
kind, ``L`` (0, 2), ``X`` (2, 2), ``R`` (2, 0).  An event at ``p`` takes the
strands ``p .. p+taken-1`` off the stack and leaves ``left`` strands at
``p .. p+left-1``; an empty range is the gap above strand ``p``.  It is valid
after ``n`` strands iff ``1 <= p <= n + 1 - taken``, and it changes the count
by ``left - taken`` (``STRAND_CHANGE``); one that would leave a negative count
is reported as such before its position is checked.

Kind tables, each stated once here: ``L``, ``X``, ``R`` name the kinds,
whose values are their letters, and ``BY_LETTER`` finds a kind by its
letter; ``KINDS`` lists the kinds in the order of their letters,
``L < R < X``, which is the order of :class:`FrontEvent`; ``MIRROR``
exchanges the cusps, as a left-right flip does.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence


class EventKind(str, Enum):
    """The three elementary slice events."""

    LEFT_CUSP = "L"
    CROSSING = "X"
    RIGHT_CUSP = "R"

    def __str__(self) -> str:
        return self.value


L, X, R = EventKind.LEFT_CUSP, EventKind.CROSSING, EventKind.RIGHT_CUSP
# The kinds in the order of their letters, which is the order of FrontEvent.
KINDS = tuple(sorted(EventKind))
BY_LETTER = {kind.value: kind for kind in KINDS}
# Per kind, the strands an event takes off the stack and leaves there.
FOOTPRINT = {L: (0, 2), X: (2, 2), R: (2, 0)}
# The change in the strand count across an event of each kind.
STRAND_CHANGE = {kind: left - taken for kind, (taken, left) in FOOTPRINT.items()}
# The kind each kind becomes when the diagram is flipped left to right.
MIRROR = {L: R, X: X, R: L}


@dataclass(frozen=True, order=True)
class FrontEvent:
    """A single slice event at a 1-based strand position (1 = top strand)."""

    kind: EventKind
    pos: int

    def __str__(self) -> str:
        return f"{self.kind.value}{self.pos}"


def word(text: str) -> tuple[FrontEvent, ...]:
    """Parse a compact event word such as ``"L1 L2 X1 R2 R1"``.

    Commas count as whitespace.
    """
    out = []
    for token in text.replace(",", " ").split():
        kind, tail = BY_LETTER.get(token[:1]), token[1:]
        if kind is None or not tail.isdigit():
            raise ValueError(f"bad event token {token!r}")
        out.append(FrontEvent(kind, int(tail)))
    return tuple(out)


class FrontError(ValueError):
    """Base class for malformed slice words and misused front operations."""


class _EventError(FrontError):
    """Event ``index`` does not fit the ``strands`` active before it, for ``reason``."""

    def __init__(self, index: int, event: FrontEvent, strands: int):
        self.index = index
        self.event = event
        self.strands = strands
        super().__init__(f"event {index} ({event}) {self.reason.format(strands)}")


class PositionOutOfRange(_EventError):
    """An event addresses a strand position that does not exist."""

    reason = "is out of range with {} strands active"


class NegativeStrandCount(_EventError):
    """A right cusp would drop the strand count below zero."""

    reason = "would close more strands than the {} active"


class NonClosedFront(FrontError):
    """The word ends with strands still open."""

    def __init__(self, leftover: int):
        self.leftover = leftover
        super().__init__(f"word ends with {leftover} strands still open")


class MultiComponentInput(FrontError):
    """A single-component front was required."""


class OddCrossingSum(FrontError):
    """Two components cross an odd number of times, so the word is inconsistent."""


@dataclass(frozen=True)
class CuspInfo:
    """One cusp of a diagram, with its oriented traversal sense.

    ``sense`` is +1 when the oriented traversal passes from the upper arc to
    the lower one (a down cusp), -1 otherwise.
    """

    event: int
    kind: EventKind
    upper: int
    lower: int
    component: int
    sense: int


@dataclass(frozen=True)
class CrossingInfo:
    """One crossing, with arc indices and its sign under the orientation."""

    event: int
    over: int
    under: int
    sign: int


def _linking(pairs: list[list[int]], i: int, j: int) -> int:
    """lk(i, j): half the signed sum of the crossings between components i and j."""
    total = pairs[min(i, j)][max(i, j)]
    if total % 2:
        raise OddCrossingSum(f"components {i} and {j}: odd crossing sum {total}")
    return total // 2


class _Structure:
    """Arc/cusp/crossing combinatorics of a validated word (orientation-free)."""

    __slots__ = (
        "cusps",
        "crossings",
        "component_of",
        "components",
        "walk_dir",
        "cusp_sense",
        "counts",
    )

    def __init__(self, events: Sequence[FrontEvent]):
        active: list[int] = []
        births: list[int] = []  # arc -> cusp index
        deaths: list[int] = []
        cusps: list[tuple[int, EventKind, int, int]] = []
        crossings: list[tuple[int, int, int]] = []
        counts: list[int] = []
        for i, ev in enumerate(events):
            n = len(active)
            counts.append(n)
            kind, pos = ev.kind, ev.pos
            taken, left = FOOTPRINT[kind]
            if n + left < taken:
                raise NegativeStrandCount(i, ev, n)
            if not 1 <= pos <= n + 1 - taken:
                raise PositionOutOfRange(i, ev, n)
            if kind is L:
                u = len(births)
                births += (len(cusps), len(cusps))
                deaths += (-1, -1)
                active[pos - 1 : pos - 1] = (u, u + 1)
                cusps.append((i, kind, u, u + 1))
            elif kind is X:
                a, b = active[pos - 1], active[pos]
                crossings.append((i, a, b))
                active[pos - 1], active[pos] = b, a
            else:
                a, b = active[pos - 1], active[pos]
                deaths[a] = deaths[b] = len(cusps)
                cusps.append((i, kind, a, b))
                del active[pos - 1 : pos + 1]
        if active:
            raise NonClosedFront(len(active))
        counts.append(0)

        arc_count = len(births)
        component_of = [-1] * arc_count
        walk_dir = [0] * arc_count
        cusp_sense = [0] * len(cusps)
        components: list[tuple[int, ...]] = []
        for start in range(arc_count):
            if component_of[start] >= 0:
                continue
            members = []
            arc, direction = start, +1
            while True:
                component_of[arc] = len(components)
                walk_dir[arc] = direction
                members.append(arc)
                ci = deaths[arc] if direction > 0 else births[arc]
                _, _, upper, lower = cusps[ci]
                cusp_sense[ci] = +1 if arc == upper else -1
                arc = lower if arc == upper else upper
                direction = -direction
                if arc == start and direction > 0:
                    break
            components.append(tuple(members))

        self.cusps = tuple(cusps)
        self.crossings = tuple(crossings)
        self.component_of = tuple(component_of)
        self.components = tuple(components)
        self.walk_dir = tuple(walk_dir)
        self.cusp_sense = tuple(cusp_sense)
        # the strand count before each event and after the last
        self.counts = tuple(counts)


def _checked_signs(
    structure: _Structure, orientations: Sequence[int] | None
) -> tuple[int, ...]:
    """One sign per component of ``structure``, all +1 when ``orientations`` is None."""
    ncomp = len(structure.components)
    if orientations is None:
        return (1,) * ncomp
    signs = tuple(orientations)
    if len(signs) != ncomp or any(o not in (-1, 1) for o in signs):
        raise ValueError(f"need {ncomp} orientation signs, got {orientations!r}")
    return signs


@dataclass(frozen=True)
class FrontDiagram:
    """A validated closed front word plus a choice of component orientations.

    Construction validates the word eagerly and raises a ``FrontError``
    subclass on the first offending event.  The empty word is a valid front
    with no components.
    """

    events: tuple[FrontEvent, ...]
    orientations: tuple[int, ...] | None = None

    def __post_init__(self):
        events = tuple(self.events)
        for ev in events:
            if not isinstance(ev, FrontEvent):
                raise TypeError(f"not a FrontEvent: {ev!r}")
        object.__setattr__(self, "events", events)
        structure = _Structure(events)
        object.__setattr__(self, "_structure", structure)
        object.__setattr__(
            self, "orientations", _checked_signs(structure, self.orientations)
        )

    # -- constructors -------------------------------------------------

    @classmethod
    def _on_structure(
        cls,
        events: tuple[FrontEvent, ...],
        structure: _Structure,
        orientations: Sequence[int] | None,
    ) -> "FrontDiagram":
        """The diagram on ``events`` given their already-built ``structure``.

        Only the orientation signs are checked; the word is validated once,
        by the ``_Structure`` build.
        """
        diagram = object.__new__(cls)
        object.__setattr__(diagram, "events", events)
        object.__setattr__(diagram, "_structure", structure)
        object.__setattr__(
            diagram, "orientations", _checked_signs(structure, orientations)
        )
        return diagram

    @classmethod
    def from_word(cls, text: str, orientations: Sequence[int] | None = None) -> "FrontDiagram":
        return cls(word(text), None if orientations is None else tuple(orientations))

    # -- presentation --------------------------------------------------

    def notation(self) -> str:
        """The plain event word, e.g. ``"L1 L2 R2 R1"``."""
        return " ".join(str(ev) for ev in self.events)

    def __str__(self) -> str:
        text = self.notation() or "(empty)"
        if any(o < 0 for o in self.orientations):
            marks = "".join("+" if o > 0 else "-" for o in self.orientations)
            return f"{text}  [{marks}]"
        return text

    # -- basic structure ------------------------------------------------

    @property
    def component_count(self) -> int:
        return len(self._structure.components)

    @property
    def max_strands(self) -> int:
        return max(self._structure.counts)

    def component_of(self, arc: int) -> int:
        return self._structure.component_of[arc]

    def arc_direction(self, arc: int) -> int:
        """Horizontal traversal direction of an arc under the orientation."""
        s = self._structure
        return s.walk_dir[arc] * self.orientations[s.component_of[arc]]

    def _senses(self) -> list[int]:
        """Each cusp's traversal sense under the orientation (+1 down, -1 up)."""
        s, o = self._structure, self.orientations
        comp = s.component_of
        return [sense * o[comp[c[2]]] for c, sense in zip(s.cusps, s.cusp_sense)]

    def _crossing_signs(self) -> list[int]:
        """Each crossing's sign: the product of its two arcs' directions."""
        d = self.arc_direction
        return [d(a) * d(b) for _, a, b in self._structure.crossings]

    def cusps(self) -> tuple[CuspInfo, ...]:
        comp = self._structure.component_of
        return tuple(
            CuspInfo(*cusp, comp[cusp[2]], sense)
            for cusp, sense in zip(self._structure.cusps, self._senses())
        )

    def crossings(self) -> tuple[CrossingInfo, ...]:
        signed = zip(self._structure.crossings, self._crossing_signs())
        return tuple(CrossingInfo(*crossing, sign) for crossing, sign in signed)

    # -- classical invariants --------------------------------------------

    def _tally(self) -> tuple[list[list[int]], list[int], list[int]]:
        """Signed crossing sums per component pair, cusp counts and sense sums.

        ``pairs[i][j]`` (i <= j) sums the crossings between components i and
        j, so ``pairs[c][c]`` is c's writhe.  A component alternates arcs and
        cusps, so its cusp count is its arc count.
        """
        s = self._structure
        comp = s.component_of
        n = len(s.components)
        pairs = [[0] * n for _ in range(n)]
        for (_, a, b), sign in zip(s.crossings, self._crossing_signs()):
            i, j = comp[a], comp[b]
            pairs[min(i, j)][max(i, j)] += sign
        senses = [0] * n
        for cusp, sense in zip(s.cusps, self._senses()):
            senses[comp[cusp[2]]] += sense
        return pairs, [len(arcs) for arcs in s.components], senses

    def writhe(self) -> int:
        """Signed crossing count of the whole diagram (all components)."""
        return sum(self._crossing_signs())

    def _require_knot(self) -> None:
        if self.component_count != 1:
            raise MultiComponentInput(
                f"need a single component, found {self.component_count}"
            )

    def thurston_bennequin(self) -> int:
        self._require_knot()
        ((tb, _),) = self.classical_invariants()
        return tb

    def rotation_number(self) -> int:
        self._require_knot()
        ((_, rot),) = self.classical_invariants()
        return rot

    def classical_invariants(self) -> tuple[tuple[int, int], ...]:
        """Per-component ``(tb, rot)``, using each component's own crossings."""
        pairs, cusps, senses = self._tally()
        return tuple(
            (pairs[c][c] - cusps[c] // 2, senses[c] // 2) for c in range(len(cusps))
        )

    def linking_number(self, i: int, j: int) -> int:
        """lk between components ``i`` and ``j`` under the orientations."""
        if i == j:
            raise ValueError("linking number needs two distinct components")
        for index in (i, j):
            if not 0 <= index < self.component_count:
                raise IndexError(f"no component {index}")
        return _linking(self._tally()[0], i, j)

    def linking_matrix(self) -> tuple[tuple[int, ...], ...]:
        pairs = self._tally()[0]
        n = len(pairs)
        return tuple(
            tuple(0 if i == j else _linking(pairs, i, j) for j in range(n)) for i in range(n)
        )

    # -- orientation handling ---------------------------------------------

    def with_orientations(self, orientations: Sequence[int]) -> "FrontDiagram":
        return FrontDiagram._on_structure(
            self.events, self._structure, tuple(orientations)
        )

    def reverse(self) -> "FrontDiagram":
        """Reverse every component's orientation (negates rot, fixes tb)."""
        return self.with_orientations(-o for o in self.orientations)

    def _pushed_forward(
        self, base: "FrontDiagram", image: Callable[[int], int], sign: int
    ) -> "FrontDiagram":
        """``base`` oriented so each first arc ``a`` runs as ``sign`` * arc ``image(a)`` here.

        The canonical traversal runs a component's first arc left to right,
        so the direction wanted for that arc is the component's sign.
        """
        return base.with_orientations(
            sign * self.arc_direction(image(members[0]))
            for members in base._structure.components
        )

    # -- mirrors -----------------------------------------------------------

    def vertical_mirror(self) -> "FrontDiagram":
        """Flip the diagram upside down.

        The orientation is pushed forward, so tb is preserved per component
        and rot is negated.  Involution.
        """
        # each position reversed within its valid range 1 .. n + 1 - taken
        out = [
            FrontEvent(ev.kind, n + 2 - FOOTPRINT[ev.kind][0] - ev.pos)
            for ev, n in zip(self.events, self._structure.counts)
        ]
        # the mirror swaps each birth pair: arc a of the mirror corresponds
        # to arc a^1 here, and horizontal directions are preserved
        return self._pushed_forward(FrontDiagram(tuple(out)), lambda a: a ^ 1, +1)

    def horizontal_mirror(self) -> "FrontDiagram":
        """Flip the diagram left to right.

        Cusps swap roles (the word reverses, L and R exchange), heights are
        kept, and every arc's horizontal direction reverses.  With the
        pushed-forward orientation both tb and rot are preserved.  Involution.
        """
        out = tuple(FrontEvent(MIRROR[ev.kind], ev.pos) for ev in reversed(self.events))
        # the mirror's k-th left cusp, born with arcs 2k (upper) and 2k + 1,
        # is the k-th right cusp from the end here, at the same heights, and
        # horizontal directions reverse
        deaths = [c[2:] for c in self._structure.cusps if c[1] is R]
        return self._pushed_forward(
            FrontDiagram(out), lambda a: deaths[-1 - a // 2][a & 1], -1
        )

    # -- component surgery ---------------------------------------------------

    def delete_component(self, index: int) -> "FrontDiagram":
        """Remove one component, renumbering the remaining events' positions.

        Crossings between the removed component and the rest vanish with it;
        the remaining components keep their own structure, orientations and
        order.
        """
        s = self._structure
        if not 0 <= index < self.component_count:
            raise IndexError(f"no component {index}")
        doomed = set(s.components[index])
        out: list[FrontEvent] = []
        active: list[int] = []
        next_arc = 0

        def kept_position(pos: int) -> int:
            return pos - sum(1 for a in active[: pos - 1] if a in doomed)

        for ev in self.events:
            if ev.kind is L:
                u = next_arc
                next_arc += 2
                if u not in doomed:
                    out.append(FrontEvent(ev.kind, kept_position(ev.pos)))
                active[ev.pos - 1 : ev.pos - 1] = [u, u + 1]
            elif ev.kind is X:
                a, b = active[ev.pos - 1], active[ev.pos]
                if a not in doomed and b not in doomed:
                    out.append(FrontEvent(ev.kind, kept_position(ev.pos)))
                active[ev.pos - 1], active[ev.pos] = b, a
            else:
                a = active[ev.pos - 1]
                if a not in doomed:
                    out.append(FrontEvent(ev.kind, kept_position(ev.pos)))
                del active[ev.pos - 1 : ev.pos + 1]
        orientations = tuple(
            o for c, o in enumerate(self.orientations) if c != index
        )
        return FrontDiagram(tuple(out), orientations)


def _splice(f: FrontDiagram, g: FrontDiagram) -> FrontDiagram:
    """Join two knots end to end when some reflection of ``g`` lines up."""
    s = f._structure
    _, _, upper, _ = s.cusps[-1]
    d_f = f.arc_direction(upper)
    rot_g = g.rotation_number()

    candidates = [g, g.reverse(), g.horizontal_mirror(), g.horizontal_mirror().reverse()]
    for h in candidates:
        if h.rotation_number() != rot_g:
            continue
        _, _, first_upper, _ = h._structure.cusps[0]
        if h.arc_direction(first_upper) != d_f:
            continue
        # the arcs born in f's part keep their numbers; keep f's direction
        # on arc 0, the first arc of the sum
        return f._pushed_forward(
            FrontDiagram(f.events[:-1] + h.events[1:]), lambda a: a, +1
        )
    raise FrontError("connected sum: no orientation-compatible splice found")


# Invariant-neutral filler knot: tb = -1, rot = 0, and its two end cusps are
# traversed in opposite directions.  Splicing it between two fronts keeps
# both postconditions of the sum (its tb cancels the extra +1) while letting
# the exit direction be flipped to whatever the right factor needs.
_SPLICE_ADAPTOR_WORD = "L1 L1 X2 R3 R1"


def front_connected_sum(f: FrontDiagram, g: FrontDiagram) -> FrontDiagram:
    """Oriented connected sum of two single-component fronts.

    Splices the right end of ``f`` to the left end of ``g``: the final right
    cusp of ``f`` and the initial left cusp of ``g`` are removed and the open
    strand pairs are identified.  The splice needs the traversal directions
    at the two removed cusps to agree; reflections of ``g`` that preserve its
    rotation number are tried first, and if none lines up (possible whenever
    ``g``'s end cusps are traversed in opposite directions and rot(g) != 0),
    an invariant-neutral adaptor knot is spliced in between.  Either way

    * tb(sum) = tb(f) + tb(g) + 1
    * rot(sum) = rot(f) + rot(g)

    both hold for the input orientations.
    """
    for diagram in (f, g):
        if diagram.component_count != 1:
            raise MultiComponentInput("connected sum needs single-component fronts")
    try:
        return _splice(f, g)
    except FrontError:
        return _splice(_splice(f, FrontDiagram.from_word(_SPLICE_ADAPTOR_WORD)), g)
