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

Slide computations run on words coded as tuples of ints, one
``rank(kind) << 32 | (pos + 2**31)`` per event, with ranks ``L < R < X``
as the kinds' string values compare.  For positions of magnitude below
``2**31`` the code is strictly monotone in ``(kind, pos)``, so coded words
sort and take minima exactly as :class:`FrontEvent` words do.  Slides on
codes come from a memo of :func:`commute_pair`, the one definition of a
slide.  Words are decoded only where the pattern moves act on them and for
the public return values.

A slide class is a trace (Cartier--Foata): whether two events commute
depends only on which two events they are, and the class is the set of
linear extensions of the order their non-commuting pairs generate.  No
class is ever listed:

* **Heads and ideals.**  An event can come first iff it slides past every
  event before it; its code there is its *front code*.  An ideal is a set
  of events that slides can bring to the front together.
* **Keys.**  The least word of a class takes, place by place, the least
  front code of any event that can come next (Anisimov--Knuth).  Ties are
  followed level by level, one state per set of events placed.  The key is
  the search's memoization key and :func:`canonical_word`.
* **Expansion.**  A search node applies its pattern moves only to the
  words ``key(I) + window + key(rest)`` of each ideal ``I``, which hold the
  least producer of every child class.
* **Paths.**  The keys match the events of two words of one class; the
  slide path sorts one word into the other, always at the least index out
  of order, which is the path a breadth-first search finds first.  Cusp
  alignment picks, over the ideals after which the merge and then the birth
  can come next, the aligned word with the shortest such path.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Iterable, Iterator, Optional

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
# slide classes as traces
# ---------------------------------------------------------------------------

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


def _heads(codes: Coded) -> Iterator[tuple[int, int, Coded]]:
    """Each event that slides can bring to the front of ``codes``.

    Yields its index, its code at the front and the other events after it,
    in order.  An event can come first iff it slides past every event
    before it, one at a time.
    """
    for k, code in enumerate(codes):
        passed = []
        for j in range(k - 1, -1, -1):
            swapped = _commute_codes(codes[j], code)
            if swapped is None:
                break
            code, moved = swapped
            passed.append(moved)
        else:
            yield k, code, tuple(reversed(passed)) + codes[k + 1 :]


def _trace_key(codes: Coded) -> tuple[Coded, tuple[int, ...]]:
    """The least word of the slide class of ``codes`` and its events.

    ``order[t]`` is the index in ``codes`` of the event at place ``t`` of
    the key.  The key is built one place at a time from the least front
    code of any event that can come next.  Where events tie on that code,
    every way of placing them is kept, one state per set of events placed,
    so ties cost the number of such sets and never a branch per path.
    """
    key: list[int] = []
    # indices of the events still to place -> (order so far, word of the rest)
    states = {tuple(range(len(codes))): ((), codes)}
    for _ in codes:
        best = None
        nxt: dict[tuple[int, ...], tuple[tuple[int, ...], Coded]] = {}
        for left, (order, rest) in states.items():
            for k, front, after in _heads(rest):
                if best is None or front < best:
                    best, nxt = front, {}
                if front == best:
                    nxt.setdefault(left[:k] + left[k + 1 :], (order + (left[k],), after))
        key.append(best)
        states = nxt
    ((order, _),) = states.values()
    return tuple(key), order


def canonical_word(events: Word) -> Word:
    """Lex-least word in the slide class (the search's memoization key)."""
    return _decode(_trace_key(_encode(events))[0])


def _ideals(codes: Coded) -> dict[int, tuple[Coded, Coded, list[tuple[int, int]]]]:
    """Every set of events that slides can bring to the front together.

    Keyed by the bit mask of the events' indices in ``codes``, smallest
    sets first.  Each ideal has a word of its events as slides leave them
    at the front, a word of the other events after them, and its heads:
    ``(event, front code)`` for each event that can come next.
    """
    ideals = {}
    level = {0: ((), codes, tuple(range(len(codes))))}
    while level:
        nxt: dict[int, tuple[Coded, Coded, tuple[int, ...]]] = {}
        for mask, (prefix, rest, ids) in level.items():
            heads = []
            for k, front, after in _heads(rest):
                heads.append((ids[k], front))
                child = mask | 1 << ids[k]
                if child not in nxt:
                    nxt[child] = (prefix + (front,), after, ids[:k] + ids[k + 1 :])
            ideals[mask] = (prefix, rest, heads)
        level = nxt
    return ideals


def _sort_slides(codes: Coded, places: list[int]) -> tuple[list[int], Coded]:
    """Slide the events of ``codes`` into the order ``places`` gives them.

    ``places[k]`` is where the event at index ``k`` should end up.  Each
    slide is at the least index whose pair is out of order, so the indices
    form the lex-least of the shortest slide sequences.  Returns them and
    the word reached; raises :class:`FrontError` when two events that must
    cross do not commute.
    """
    codes, places = list(codes), list(places)
    path: list[int] = []
    i = 0
    while i < len(codes) - 1:
        if places[i] < places[i + 1]:
            i += 1
            continue
        swapped = _commute_codes(codes[i], codes[i + 1])
        if swapped is None:
            raise FrontError("the order is not reachable by slides")
        codes[i : i + 2] = swapped
        places[i], places[i + 1] = places[i + 1], places[i]
        path.append(i)
        i = max(i - 1, 0)
    return path, tuple(codes)


def _slide_path(start: Coded, goal: Coded) -> list[MoveInstance]:
    """The shortest slide sequence from ``start`` to ``goal``, lex-least by index.

    Events are matched between the two words through their keys.
    """
    key, order = _trace_key(start)
    goal_key, goal_order = _trace_key(goal)
    if key != goal_key:
        raise FrontError("words are not slide-equivalent")
    places = [0] * len(start)
    for event, place in zip(order, goal_order):
        places[event] = place
    path, reached = _sort_slides(start, places)
    if reached != goal:
        raise FrontError("slides do not reach the goal word")
    return [MoveInstance(MoveId.SLIDE, (i, 0), FORWARD) for i in path]


def align_facing_cusps(
    events: Word, right_index: int, left_index: int
) -> Optional[tuple[Word, int]]:
    """Slide a word until the given merge sits just before the given birth.

    Returns the rewritten word and the index of the merge event, which is
    then directly followed by the birth at the same height, or ``None``
    when no slides align them.  The merge can sit just before the birth
    after an ideal iff it can come next and the birth right after it; of
    the words so aligned the one with the fewest slides from ``events`` is
    returned, ties going to the lex-least slide sequence.
    """
    codes = _encode(events)
    ideals = _ideals(codes)
    candidates = []
    for mask, (prefix, _, heads) in ideals.items():
        code = dict(heads).get(right_index)
        if code is None:
            continue
        after_code = dict(ideals[mask | 1 << right_index][2]).get(left_index)
        if after_code is None or (after_code ^ code) & _POS_MASK:
            continue
        inside = [e for e in range(len(codes)) if mask >> e & 1]
        outside = [
            e for e in range(len(codes))
            if not mask >> e & 1 and e not in (right_index, left_index)
        ]
        order = inside + [right_index, left_index] + outside
        path, word = _sort_slides(codes, [order.index(e) for e in range(len(codes))])
        candidates.append((len(path), path, word, len(prefix)))
    if not candidates:
        return None
    _, _, word, j = min(candidates)
    return _decode(word), j


# ---------------------------------------------------------------------------
# bounded equivalence search
# ---------------------------------------------------------------------------

_NODE_CAP = 8192


def _pattern_moves(diagram_word: Word) -> list[MoveInstance]:
    return [
        m
        for m in applicable_moves(FrontDiagram(diagram_word))
        if m.move_id is not MoveId.SLIDE
    ]


def _expansion(codes: Coded) -> list[tuple[Coded, MoveInstance]]:
    """The ``(word, pattern move)`` pairs a search node expands, sorted.

    A move at site ``i`` of a word of the class acts on a window that
    follows an ideal ``I`` of ``i`` events: no events (a kink insertion),
    one head, or three heads in a row whose middle one is a crossing (every
    3-event pattern).  The word ``key(I) + window + key(rest)`` carries the
    same move to the same child class and is no greater, so these words
    with their moves at site ``|I|`` hold the least producer of every child
    class of the full expansion.
    """
    ideals = _ideals(codes)
    keys = {
        mask: (_trace_key(prefix)[0], _trace_key(rest)[0])
        for mask, (prefix, rest, _) in ideals.items()
    }
    moves: dict[Coded, list[MoveInstance]] = {}
    pairs = []
    for mask, (prefix, _, heads) in ideals.items():
        head_key, rest_key = keys[mask]
        windows = {head_key + rest_key}
        for first, first_code in heads:
            one = mask | 1 << first
            windows.add(head_key + (first_code,) + keys[one][1])
            for middle, middle_code in ideals[one][2]:
                if _KINDS[middle_code >> 32] is not X:
                    continue
                two = one | 1 << middle
                for last, last_code in ideals[two][2]:
                    window = (first_code, middle_code, last_code)
                    windows.add(head_key + window + keys[two | 1 << last][1])
        for concrete in windows:
            if concrete not in moves:
                moves[concrete] = _pattern_moves(_decode(concrete))
            pairs += [(concrete, m) for m in moves[concrete] if m.site[0] == len(prefix)]
    return sorted(pairs)


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
    node_cap: int = _NODE_CAP,
) -> Optional[list[MoveInstance]]:
    """Search for a move sequence turning ``f``'s word into ``g``'s.

    Bidirectional breadth-first search over slide classes; ``depth`` bounds
    the number of pattern moves (slides are free and appear in the witness
    only to line words up).  Returns the move list, replay-verified, or
    ``None`` when no witness was found -- never a claim of inequivalence,
    though invariant mismatches short-circuit to ``None`` immediately.
    Raises :class:`WitnessReplayError` if a found witness fails its replay.
    Each call logs its outcome at debug level on ``lagsurf.moves``.
    """
    sides: list[dict[Coded, _Node]] = [{}, {}]
    depths = [0, 0]
    keys_made = 0

    def outcome(reason: str, result: Optional[list[MoveInstance]]):
        # Importing logging costs a cold CLI start about 10 ms; a process
        # that never imported it has no handler the record could reach.
        logging = sys.modules.get("logging")
        if logging is not None:
            logging.getLogger(__name__).debug(
                "equivalent_within: %s; nodes %d + %d; depth %d + %d; %d keys",
                reason, len(sides[0]), len(sides[1]), depths[0], depths[1], keys_made,
            )
        return result

    if _invariant_key(f) != _invariant_key(g):
        return outcome("invariants differ", None)

    start, goal = _encode(f.events), _encode(g.events)

    def finish(witness: list[MoveInstance]) -> list[MoveInstance]:
        if replay_moves(f.events, witness) != g.events:
            raise WitnessReplayError("witness replay failed")
        return outcome("found", witness)

    start_key = _trace_key(start)[0]
    goal_key = _trace_key(goal)[0]
    keys_made = 2
    sides[0][start_key] = _Node(start, None, None, None, 0)
    sides[1][goal_key] = _Node(goal, None, None, None, 0)
    frontiers: list[list[Coded]] = [[start_key], [goal_key]]

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
            witness += _slide_path(current, node.via_concrete)
            witness.append(node.move)
            current = node.word
        # g side: walk meet -> root, undoing each recorded move
        key = meet
        while sides[1][key].move is not None:
            node = sides[1][key]
            witness += _slide_path(current, node.word)
            witness.append(inverse_move(node.move))
            current = node.via_concrete
            key = node.parent
        witness += _slide_path(current, goal)
        return witness

    if start_key == goal_key:
        return finish(_slide_path(start, goal))

    explored = 2
    while frontiers[0] and frontiers[1] and depths[0] + depths[1] < depth:
        side = 0 if len(frontiers[0]) <= len(frontiers[1]) else 1
        depths[side] += 1
        new_frontier: list[Coded] = []
        for key in frontiers[side]:
            child_keys: dict[Coded, Coded] = {}
            for concrete, move in _expansion(sides[side][key].word):
                try:
                    nxt = _encode(apply_move_word(_decode(concrete), move))
                except MoveNotApplicable:
                    continue
                if nxt not in child_keys:
                    child_keys[nxt] = _trace_key(nxt)[0]
                    keys_made += 1
                nxt_key = child_keys[nxt]
                if nxt_key in sides[side]:
                    continue
                sides[side][nxt_key] = _Node(nxt, key, concrete, move, depths[side])
                new_frontier.append(nxt_key)
                explored += 1
                if nxt_key in sides[1 - side]:
                    return finish(build_witness(nxt_key))
                if explored >= node_cap:
                    return outcome("node cap", None)
        frontiers[side] = sorted(new_frontier)
    return outcome("depth exhausted", None)
