"""Front moves as a rewriting system on slice words.

Pattern table
-------------

Three move families act on local windows of a word, each in a ``forward``
and ``backward`` direction; a fourth, cost-free "slide" commutes adjacent
events with disjoint footprints (planar isotopy of the picture).  Sites are
pairs ``(index, pos)`` of an event index and a 1-based strand position.

``r1`` (swallowtail) -- insert or delete a kink on the strand at ``pos``::

    kink_below:   [] <-> [L p+1, X p, R p+1]
    kink_above:   [] <-> [L p,  X p+1, R p ]

The kink's crossing pairs the old strand with one *new* arc and has sign +1,
so tb is preserved.  (A kink whose crossing joins the two new arcs to each
other costs tb and is deliberately not a move.)

``r2`` (cusp pass) -- a cusp crosses a transverse strand; ``pos`` is the
cusp position in the *contracted* form::

    left_cusp_strand_above:    [L q]  <->  [L q-1, X q,  X q-1]
    left_cusp_strand_below:    [L q]  <->  [L q+1, X q,  X q+1]
    right_cusp_strand_above:   [R q]  <->  [X q-1, X q,  R q-1]
    right_cusp_strand_below:   [R q]  <->  [X q+1, X q,  R q+1]

The two crossings pair the strand with the cusp's two (antiparallel) arcs,
so their signs cancel.  Forward = expand, backward = contract.

``r3`` (triple point)::

    forward:   [X p, X p+1, X p]  ->  [X p+1, X p, X p+1]

Backward sites use the first crossing's position of *their* pattern, so the
inverse of a forward r3 at ``(i, p)`` is the backward r3 at ``(i, p+1)``.

Slides swap ``events[i], events[i+1]`` with positions adjusted for the
other event's strand-count shift; a slide is its own inverse at the same
index.

Moves act on words.  Orientations are carried across the rewrite by
matching the traversal sense of a cusp outside the rewritten window: every
component keeps at least one such cusp (no window holds more than one cusp
pair, and that pair always hangs off a strand born elsewhere), and a local
rewrite cannot change how an untouched cusp is traversed.

Internal coding
---------------

Slide-only computations (slide closures, canonical keys, the keys of the
equivalence search, and the one breadth-first slide search behind slide
paths and cusp alignment) run on words coded as tuples of ints, one
``rank(kind) << 32 | (pos + 2**31)`` per event, with ranks ``L < R < X``
as the kinds' string values compare.  For positions of magnitude below
``2**31`` the code is strictly monotone in ``(kind, pos)``, so coded words
sort, take minima and fill heaps exactly as :class:`FrontEvent` words do:
every cap, key and witness is the same, only hashing and comparing are
cheaper.  Slides on codes come from a memo of :func:`commute_pair`, the one
definition of a slide.  Words are decoded only where the pattern moves act
on them and for the public return values.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Optional

from lagsurf.fronts import (
    EventKind,
    FrontDiagram,
    FrontError,
    FrontEvent,
)

L, X, R = EventKind.LEFT_CUSP, EventKind.CROSSING, EventKind.RIGHT_CUSP

Word = tuple[FrontEvent, ...]


class MoveId(str, Enum):
    R1_KINK_BELOW = "r1_kink_below"
    R1_KINK_ABOVE = "r1_kink_above"
    R2_LEFT_CUSP_STRAND_ABOVE = "r2_left_cusp_strand_above"
    R2_LEFT_CUSP_STRAND_BELOW = "r2_left_cusp_strand_below"
    R2_RIGHT_CUSP_STRAND_ABOVE = "r2_right_cusp_strand_above"
    R2_RIGHT_CUSP_STRAND_BELOW = "r2_right_cusp_strand_below"
    R3_TRIPLE_POINT = "r3_triple_point"
    SLIDE = "slide"

    def __str__(self) -> str:
        return self.value


class MoveDirection(str, Enum):
    FORWARD = "forward"
    BACKWARD = "backward"

    def __str__(self) -> str:
        return self.value


FORWARD, BACKWARD = MoveDirection.FORWARD, MoveDirection.BACKWARD


@dataclass(frozen=True, order=True)
class MoveInstance:
    """One applicable rewrite: which pattern, where, and which way."""

    move_id: MoveId
    site: tuple[int, int]
    direction: MoveDirection = FORWARD

    def __str__(self) -> str:
        i, p = self.site
        return f"{self.move_id.value}@{i}:{p}:{self.direction.value}"


class MoveNotApplicable(FrontError):
    """The move's pattern does not match the word at its site."""


class SenseTransferConflict(FrontError):
    """Two surviving cusps of one component disagree on its orientation."""


class WitnessReplayError(FrontError):
    """A search witness does not replay onto the goal word."""


_R2_EXPANSIONS = {
    MoveId.R2_LEFT_CUSP_STRAND_ABOVE: lambda q: ((L, q - 1), (X, q), (X, q - 1)),
    MoveId.R2_LEFT_CUSP_STRAND_BELOW: lambda q: ((L, q + 1), (X, q), (X, q + 1)),
    MoveId.R2_RIGHT_CUSP_STRAND_ABOVE: lambda q: ((X, q - 1), (X, q), (R, q - 1)),
    MoveId.R2_RIGHT_CUSP_STRAND_BELOW: lambda q: ((X, q + 1), (X, q), (R, q + 1)),
}
_R2_CUSP_KIND = {
    MoveId.R2_LEFT_CUSP_STRAND_ABOVE: L,
    MoveId.R2_LEFT_CUSP_STRAND_BELOW: L,
    MoveId.R2_RIGHT_CUSP_STRAND_ABOVE: R,
    MoveId.R2_RIGHT_CUSP_STRAND_BELOW: R,
}

_R1_WINDOWS = {
    MoveId.R1_KINK_BELOW: lambda p: ((L, p + 1), (X, p), (R, p + 1)),
    MoveId.R1_KINK_ABOVE: lambda p: ((L, p), (X, p + 1), (R, p)),
}


def _events(*pairs: tuple[EventKind, int]) -> Word:
    return tuple(FrontEvent(kind, pos) for kind, pos in pairs)


def _strand_counts(events: Word) -> list[int]:
    """Strand count before each event index (length ``len(events) + 1``)."""
    counts = [0]
    delta = {L: 2, X: 0, R: -2}
    for ev in events:
        counts.append(counts[-1] + delta[ev.kind])
    return counts


def commute_pair(e1: FrontEvent, e2: FrontEvent) -> Optional[tuple[FrontEvent, FrontEvent]]:
    """Swap two adjacent events with disjoint footprints.

    Returns the pair in swapped order with positions adjusted, or ``None``
    when the events interact.  Involution: applying it to the result gives
    back ``(e1, e2)``.

    One disjoint pair is refused to keep that involution: a birth directly
    below a merge, ``(L p, R p+2)``.  Its swapped form ``(R p, L p)`` is
    ambiguous -- both ``(L p, R p+2)`` and ``(L p+2, R p)`` describe it --
    and a function can honour only one of the two round trips.  We keep
    ``(L p+2, R p) <-> (R p, L p)`` and treat the other form as interacting.
    """
    p, q = e1.pos, e2.pos
    d2 = {L: 2, X: 0, R: -2}[e2.kind]
    if e1.kind is L:
        if e2.kind is L:
            if q == p + 1:
                return None
            if q <= p:
                return FrontEvent(L, q), FrontEvent(L, p + 2)
            return FrontEvent(L, q - 2), FrontEvent(L, p)
        if q in (p - 1, p, p + 1):
            return None
        if e2.kind is R and q == p + 2:
            return None
        if q >= p + 2:
            return FrontEvent(e2.kind, q - 2), FrontEvent(L, p)
        return FrontEvent(e2.kind, q), FrontEvent(L, p + d2)
    if e1.kind is X:
        if e2.kind is L:
            if q == p + 1:
                return None
            if q <= p:
                return FrontEvent(L, q), FrontEvent(X, p + 2)
            return FrontEvent(L, q), FrontEvent(X, p)
        if abs(q - p) <= 1:
            return None
        if q >= p + 2:
            return FrontEvent(e2.kind, q), FrontEvent(X, p)
        return FrontEvent(e2.kind, q), FrontEvent(X, p + d2)
    # e1 is a right cusp
    if e2.kind is L:
        if q <= p - 1:
            return FrontEvent(L, q), FrontEvent(R, p + 2)
        return FrontEvent(L, q + 2), FrontEvent(R, p)
    if q == p - 1:
        return None
    if q <= p - 2:
        return FrontEvent(e2.kind, q), FrontEvent(R, p + d2)
    return FrontEvent(e2.kind, q + 2), FrontEvent(R, p)


def apply_move_word(events: Word, move: MoveInstance) -> Word:
    """Apply a move to a bare word; raises MoveNotApplicable on mismatch."""
    i, p = move.site
    counts = _strand_counts(events)

    def window_is(expected: Word) -> bool:
        return events[i : i + len(expected)] == expected

    if move.move_id is MoveId.SLIDE:
        if not 0 <= i < len(events) - 1:
            raise MoveNotApplicable(f"no adjacent pair at {i}")
        swapped = commute_pair(events[i], events[i + 1])
        if swapped is None:
            raise MoveNotApplicable(f"events at {i} do not commute")
        return events[:i] + swapped + events[i + 2 :]

    if move.move_id in _R1_WINDOWS:
        window = _events(*_R1_WINDOWS[move.move_id](p))
        if move.direction is FORWARD:
            if not 0 <= i <= len(events) or not 1 <= p <= counts[min(i, len(counts) - 1)]:
                raise MoveNotApplicable(f"no strand {p} at index {i}")
            return events[:i] + window + events[i:]
        if not window_is(window):
            raise MoveNotApplicable(f"no kink window at {i}")
        return events[:i] + events[i + 3 :]

    if move.move_id in _R2_EXPANSIONS:
        cusp = FrontEvent(_R2_CUSP_KIND[move.move_id], p)
        window = _events(*_R2_EXPANSIONS[move.move_id](p))
        if move.direction is FORWARD:
            if not (i < len(events) and events[i] == cusp):
                raise MoveNotApplicable(f"no {cusp} at {i}")
            n = counts[i]
            if move.move_id is MoveId.R2_LEFT_CUSP_STRAND_ABOVE and p < 2:
                raise MoveNotApplicable("no strand above the cusp")
            if move.move_id is MoveId.R2_LEFT_CUSP_STRAND_BELOW and n < p:
                raise MoveNotApplicable("no strand below the cusp")
            if move.move_id is MoveId.R2_RIGHT_CUSP_STRAND_ABOVE and p < 2:
                raise MoveNotApplicable("no strand above the cusp")
            if move.move_id is MoveId.R2_RIGHT_CUSP_STRAND_BELOW and n < p + 2:
                raise MoveNotApplicable("no strand below the cusp")
            return events[:i] + window + events[i + 1 :]
        if not window_is(window):
            raise MoveNotApplicable(f"no cusp-pass window at {i}")
        return events[:i] + (cusp,) + events[i + 3 :]

    if move.move_id is MoveId.R3_TRIPLE_POINT:
        if move.direction is FORWARD:
            window = _events((X, p), (X, p + 1), (X, p))
            replacement = _events((X, p + 1), (X, p), (X, p + 1))
        else:
            window = _events((X, p), (X, p - 1), (X, p))
            replacement = _events((X, p - 1), (X, p), (X, p - 1))
        if not window_is(window):
            raise MoveNotApplicable(f"no triple-point window at {i}")
        return events[:i] + replacement + events[i + 3 :]

    raise MoveNotApplicable(f"unknown move {move.move_id}")


def _window_widths(move: MoveInstance) -> tuple[int, int]:
    """Event counts the move consumes and produces at its site."""
    if move.move_id is MoveId.SLIDE:
        return 2, 2
    if move.move_id is MoveId.R3_TRIPLE_POINT:
        return 3, 3
    if move.move_id in _R1_WINDOWS:
        return (0, 3) if move.direction is FORWARD else (3, 0)
    return (1, 3) if move.direction is FORWARD else (3, 1)


def apply_move(diagram: FrontDiagram, move: MoveInstance) -> FrontDiagram:
    """Apply a move, revalidate, and carry orientations across the rewrite.

    For each component, some cusp survives outside the rewritten window, and
    a local rewrite cannot change how that cusp is traversed; matching its
    sense between the old diagram and the (default-oriented) new one
    recovers the component's orientation sign.
    """
    new_events = apply_move_word(diagram.events, move)
    plain = FrontDiagram(new_events)
    start = move.site[0]
    old_len, new_len = _window_widths(move)
    new_cusps = {c.event: c for c in plain.cusps()}
    signs = [0] * plain.component_count
    for cusp in diagram.cusps():
        if start <= cusp.event < start + old_len:
            continue
        target = cusp.event if cusp.event < start else cusp.event + new_len - old_len
        mirror = new_cusps[target]
        sign = cusp.sense * mirror.sense
        if signs[mirror.component] not in (0, sign):
            raise SenseTransferConflict("sense transfer disagrees")
        signs[mirror.component] = sign
    if 0 in signs:
        raise MoveNotApplicable("a component has no cusp outside the window")
    return FrontDiagram(new_events, tuple(signs))


def inverse_move(move: MoveInstance) -> MoveInstance:
    """The move undoing ``move`` at the same spot."""
    i, p = move.site
    if move.move_id is MoveId.SLIDE:
        return move
    if move.move_id is MoveId.R3_TRIPLE_POINT:
        if move.direction is FORWARD:
            return MoveInstance(move.move_id, (i, p + 1), BACKWARD)
        return MoveInstance(move.move_id, (i, p - 1), FORWARD)
    flipped = BACKWARD if move.direction is FORWARD else FORWARD
    return MoveInstance(move.move_id, (i, p), flipped)


def replay_moves(events: Word, moves: Iterable[MoveInstance]) -> Word:
    for move in moves:
        events = apply_move_word(events, move)
    return events


def applicable_moves(diagram: FrontDiagram) -> list[MoveInstance]:
    """Every move instance whose pattern matches the diagram's word.

    Kink insertions are enumerated for every insertion index and strand;
    expansions, contractions, triple points and slides by window scan.  The
    list is sorted for determinism.
    """
    events = diagram.events
    counts = _strand_counts(events)
    found: list[MoveInstance] = []

    for i in range(len(events) + 1):
        n = counts[i]
        for p in range(1, n + 1):
            found.append(MoveInstance(MoveId.R1_KINK_BELOW, (i, p), FORWARD))
            found.append(MoveInstance(MoveId.R1_KINK_ABOVE, (i, p), FORWARD))

    for i, ev in enumerate(events):
        n = counts[i]
        if ev.kind is L:
            if ev.pos >= 2:
                found.append(
                    MoveInstance(MoveId.R2_LEFT_CUSP_STRAND_ABOVE, (i, ev.pos), FORWARD)
                )
            if n >= ev.pos:
                found.append(
                    MoveInstance(MoveId.R2_LEFT_CUSP_STRAND_BELOW, (i, ev.pos), FORWARD)
                )
        elif ev.kind is R:
            if ev.pos >= 2:
                found.append(
                    MoveInstance(MoveId.R2_RIGHT_CUSP_STRAND_ABOVE, (i, ev.pos), FORWARD)
                )
            if n >= ev.pos + 2:
                found.append(
                    MoveInstance(MoveId.R2_RIGHT_CUSP_STRAND_BELOW, (i, ev.pos), FORWARD)
                )

    for i in range(len(events) - 2):
        a, b, c = events[i : i + 3]
        for move_id, shape in _R1_WINDOWS.items():
            if (a, b, c) == _events(*shape(b.pos if move_id is MoveId.R1_KINK_BELOW else a.pos)):
                p = b.pos if move_id is MoveId.R1_KINK_BELOW else a.pos
                found.append(MoveInstance(move_id, (i, p), BACKWARD))
        for move_id, shape in _R2_EXPANSIONS.items():
            # recover the contracted position from the expanded window's middle
            q = b.pos
            if (a, b, c) == _events(*shape(q)):
                found.append(MoveInstance(move_id, (i, q), BACKWARD))
        if (a, b, c) == _events((X, a.pos), (X, a.pos + 1), (X, a.pos)):
            found.append(MoveInstance(MoveId.R3_TRIPLE_POINT, (i, a.pos), FORWARD))
        if (a, b, c) == _events((X, a.pos), (X, a.pos - 1), (X, a.pos)):
            found.append(MoveInstance(MoveId.R3_TRIPLE_POINT, (i, a.pos), BACKWARD))

    for i in range(len(events) - 1):
        if commute_pair(events[i], events[i + 1]) is not None:
            found.append(MoveInstance(MoveId.SLIDE, (i, 0), FORWARD))

    return sorted(found)


# ---------------------------------------------------------------------------
# bounded equivalence search
# ---------------------------------------------------------------------------

_SLIDE_CAP = 2048
_NODE_CAP = 8192
_ALIGN_CAP = 4096

# Event codes (see "Internal coding" above): rank << 32 | (pos + _POS_BIAS).
Coded = tuple[int, ...]
_RANK = {L: 0, R: 1, X: 2}
_KINDS = (L, R, X)
_POS_BIAS = 1 << 31
_POS_MASK = (1 << 32) - 1
# Bounds the memos below: distinct codes grow with the largest strand position
# seen, and code pairs with its square.
_MEMO_SIZE = 1 << 16


def _encode(events: Iterable[FrontEvent]) -> Coded:
    return tuple(_RANK[ev.kind] << 32 | (ev.pos + _POS_BIAS) for ev in events)


@lru_cache(maxsize=_MEMO_SIZE)
def _decode_event(code: int) -> FrontEvent:
    return FrontEvent(_KINDS[code >> 32], (code & _POS_MASK) - _POS_BIAS)


def _decode(codes: Coded) -> Word:
    return tuple(map(_decode_event, codes))


@lru_cache(maxsize=_MEMO_SIZE)
def _commute_codes(a: int, b: int) -> Optional[Coded]:
    """:func:`commute_pair` on two event codes, memoized."""
    swapped = commute_pair(_decode_event(a), _decode_event(b))
    return None if swapped is None else _encode(swapped)


def _slide_neighbors(codes: Coded) -> Iterator[tuple[int, Coded]]:
    for i in range(len(codes) - 1):
        swapped = _commute_codes(codes[i], codes[i + 1])
        if swapped is not None:
            yield i, codes[:i] + swapped + codes[i + 2 :]


def _slide_closure(codes: Coded, cap: int = _SLIDE_CAP) -> set[Coded]:
    """All coded words reachable by slides alone (deterministic, capped)."""
    seen = {codes}
    heap = [codes]
    while heap and len(seen) < cap:
        current = heapq.heappop(heap)
        for _, nxt in _slide_neighbors(current):
            if nxt not in seen:
                seen.add(nxt)
                heapq.heappush(heap, nxt)
    return seen


def canonical_word(events: Word, cap: int = _SLIDE_CAP) -> Word:
    """Lex-least word in the slide class (the BFS memoization key)."""
    return _decode(min(_slide_closure(_encode(events), cap)))


def _slide_search(
    start: Coded,
    marks: tuple[int, ...],
    found: Callable[[Coded, tuple[int, ...]], bool],
    cap: int,
) -> Optional[tuple[Coded, tuple[int, ...], list[int]]]:
    """Breadth-first search of the slide class of ``start`` for a ``found`` state.

    A state is a coded word with ``marks``, event indices that follow their
    events as slides move them.  Returns the first state in breadth-first
    order for which ``found(word, marks)`` holds, with the indices of the
    slides that reach it, or ``None``.  States are tested when discovered,
    and expansion stops once ``cap`` states are seen.
    """
    first = (start, marks)
    if found(*first):
        return start, marks, []
    parent: dict[tuple[Coded, tuple[int, ...]], tuple] = {first: ()}
    queue = deque([first])
    while queue and len(parent) < cap:
        state = queue.popleft()
        for i, nxt in _slide_neighbors(state[0]):
            moved = tuple(i + 1 if m == i else i if m == i + 1 else m for m in state[1])
            child = (nxt, moved)
            if child in parent:
                continue
            parent[child] = (state, i)
            if found(nxt, moved):
                indices = []
                while parent[child]:
                    child, index = parent[child]
                    indices.append(index)
                return nxt, moved, indices[::-1]
            queue.append(child)
    return None


def _slide_path(start: Coded, goal: Coded, cap: int = _SLIDE_CAP) -> list[MoveInstance]:
    """Slide sequence from ``start`` to ``goal`` (same slide class)."""
    hit = _slide_search(start, (), lambda codes, _: codes == goal, cap)
    if hit is None:
        raise FrontError("slide path not found within cap")
    return [MoveInstance(MoveId.SLIDE, (i, 0), FORWARD) for i in hit[2]]


def align_facing_cusps(
    events: Word, right_index: int, left_index: int
) -> Optional[tuple[Word, int]]:
    """Slide a word until the given merge sits just before the given birth.

    Returns the rewritten word and the index of the merge event, which is
    then directly followed by the birth at the same height, or ``None`` when
    no slide sequence within the first ``_ALIGN_CAP`` states aligns them.
    """

    def facing(codes: Coded, marks: tuple[int, ...]) -> bool:
        r, l = marks
        return l == r + 1 and _decode_event(codes[r]).pos == _decode_event(codes[l]).pos

    hit = _slide_search(_encode(events), (right_index, left_index), facing, _ALIGN_CAP)
    if hit is None:
        return None
    codes, (r, _), _ = hit
    return _decode(codes), r


def _pattern_moves(diagram_word: Word) -> list[MoveInstance]:
    return [
        m
        for m in applicable_moves(FrontDiagram(diagram_word))
        if m.move_id is not MoveId.SLIDE
    ]


def _invariant_key(diagram: FrontDiagram):
    inv = diagram.classical_invariants()
    tb = tuple(sorted(t for t, _ in inv))
    rot = tuple(sorted(abs(r) for _, r in inv))
    n = diagram.component_count
    lk = tuple(
        sorted(
            abs(diagram.linking_number(i, j))
            for i in range(n)
            for j in range(i + 1, n)
        )
    )
    return diagram.component_count, tb, rot, lk


@dataclass
class _Node:
    word: Coded  # concrete representative reached
    parent: Optional[Coded]  # canonical key of the parent class
    via_concrete: Optional[Coded]  # word in parent class the move applied to
    move: Optional[MoveInstance]
    depth: int


def equivalent_within(
    f: FrontDiagram,
    g: FrontDiagram,
    depth: int = 6,
    *,
    slide_cap: int = _SLIDE_CAP,
    node_cap: int = _NODE_CAP,
) -> Optional[list[MoveInstance]]:
    """Search for a move sequence turning ``f``'s word into ``g``'s.

    Bidirectional breadth-first search over slide classes; ``depth`` bounds
    the number of pattern moves (slides are free and appear in the witness
    only to line words up).  Returns the move list, replay-verified, or
    ``None`` when no witness was found -- never a claim of inequivalence,
    though invariant mismatches short-circuit to ``None`` immediately.
    Raises :class:`WitnessReplayError` if a found witness fails its replay.
    """
    if _invariant_key(f) != _invariant_key(g):
        return None

    start, goal = _encode(f.events), _encode(g.events)

    def finish(witness: list[MoveInstance]) -> list[MoveInstance]:
        if replay_moves(f.events, witness) != g.events:
            raise WitnessReplayError("witness replay failed")
        return witness

    start_key = min(_slide_closure(start, slide_cap))
    goal_key = min(_slide_closure(goal, slide_cap))
    sides: list[dict[Coded, _Node]] = [
        {start_key: _Node(start, None, None, None, 0)},
        {goal_key: _Node(goal, None, None, None, 0)},
    ]
    frontiers: list[list[Coded]] = [[start_key], [goal_key]]
    depths = [0, 0]

    def build_witness(meet: Coded) -> list[MoveInstance]:
        # f side: replay the chain root -> meet, sliding into position first
        chain: list[_Node] = []
        key = meet
        while sides[0][key].move is not None:
            node = sides[0][key]
            chain.append(node)
            key = node.parent
        chain.reverse()
        witness: list[MoveInstance] = []
        current = start
        for node in chain:
            witness += _slide_path(current, node.via_concrete, slide_cap)
            witness.append(node.move)
            current = node.word
        # g side: walk meet -> root, undoing each recorded move
        key = meet
        while sides[1][key].move is not None:
            node = sides[1][key]
            witness += _slide_path(current, node.word, slide_cap)
            witness.append(inverse_move(node.move))
            current = node.via_concrete
            key = node.parent
        witness += _slide_path(current, goal, slide_cap)
        return witness

    if start_key == goal_key:
        try:
            witness = _slide_path(start, goal, slide_cap)
        except FrontError:
            return None  # slide class too large for the cap; keys unreliable
        return finish(witness)

    explored = 2
    while frontiers[0] and frontiers[1] and depths[0] + depths[1] < depth:
        side = 0 if len(frontiers[0]) <= len(frontiers[1]) else 1
        depths[side] += 1
        new_frontier: list[Coded] = []
        for key in frontiers[side]:
            node = sides[side][key]
            for concrete in sorted(_slide_closure(node.word, slide_cap)):
                concrete_word = _decode(concrete)
                for move in _pattern_moves(concrete_word):
                    try:
                        nxt_word = apply_move_word(concrete_word, move)
                    except MoveNotApplicable:
                        continue
                    nxt = _encode(nxt_word)
                    nxt_key = min(_slide_closure(nxt, slide_cap))
                    if nxt_key in sides[side]:
                        continue
                    sides[side][nxt_key] = _Node(nxt, key, concrete, move, depths[side])
                    new_frontier.append(nxt_key)
                    explored += 1
                    if nxt_key in sides[1 - side]:
                        try:
                            witness = build_witness(nxt_key)
                        except FrontError:
                            return None  # truncated closure split a class
                        return finish(witness)
                    if explored >= node_cap:
                        return None
        frontiers[side] = sorted(new_frontier)
    return None
