"""Front moves as a rewriting system on slice words.

Pattern table
-------------

Three move families rewrite a window of a word, each in a ``forward`` and a
``backward`` direction; a fourth, cost-free "slide" commutes adjacent events
with disjoint footprints (planar isotopy of the picture).  A site
``(index, p)`` is the index of the window's first event and a strand
position.  Forward windows, ``.`` for the empty one::

    r1_kink_below               .                ->  L p+1, X p, R p+1
    r1_kink_above               .                ->  L p, X p+1, R p
    r2_left_cusp_strand_above   L p              ->  L p-1, X p, X p-1
    r2_left_cusp_strand_below   L p              ->  L p+1, X p, X p+1
    r2_right_cusp_strand_above  R p              ->  X p-1, X p, R p-1
    r2_right_cusp_strand_below  R p              ->  X p+1, X p, R p+1
    r3_triple_point             X p, X p+1, X p  ->  X p+1, X p, X p+1

A backward move swaps the two windows, except that backward r3 is forward r3
reflected top to bottom, every offset negated.  A matched window fixes ``p``:
the position of its first event less that event's offset.  So an r1 or r2
move is undone by its other direction at the same site, and the inverse of a
forward r3 at ``(i, p)`` is the backward r3 at ``(i, p+1)``.

A rewrite applies where ``before`` matches at an index from 0 to
``len(word) - len(before)`` and each event of ``after`` is valid at the
strand count ``n`` it meets: ``L q`` needs ``1 <= q <= n+1``, and ``X q`` and
``R q`` need ``1 <= q <= n-1``.  That one rule inserts kinks on the strands
``1..n`` and asks a cusp pass for a strand on its side of the cusp.

r1 (swallowtail): the kink's crossing pairs the old strand with one *new*
arc and has sign +1, so tb is preserved.  (A kink whose crossing joins the
two new arcs to each other costs tb and is deliberately not a move.)

r2 (cusp pass): a cusp crosses a transverse strand, and ``p`` is the cusp's
position in the contracted form.  The two crossings pair the strand with the
cusp's two (antiparallel) arcs, so their signs cancel.  Forward expands,
backward contracts.

Slides swap ``events[i], events[i+1]`` with positions adjusted for the
other event's strand-count shift; a slide is its own inverse at the same
index.

Moves act on words.  Orientations are carried across the rewrite by
matching the traversal sense of a cusp outside the rewritten window: every
component keeps at least one such cusp (no window holds more than one cusp
pair, and that pair always hangs off a strand born elsewhere), and a local
rewrite cannot change how an untouched cusp is traversed.  The rewritten
word is validated once, and the senses are read off the two words'
structures.

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
* **Incremental heads.**  Events are placed as in Kahn's topological sort:
  each event waits on the nearest event before it that it does not commute
  with, and slides on only once that one is placed.  A slide moves a code
  by 0 or 2 positions, by an amount that depends only on the two events,
  so the codes that placing an event changes are shifted, not re-slid.
* **Expansion.**  A search node applies its pattern moves only to the
  words ``key(I) + window + key(rest)`` of each ideal ``I``, which hold the
  least producer of every child class.  The rest keys come from one pass
  over the ideals, largest first.
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
from operator import add, attrgetter
from typing import Iterable, Optional

from lagsurf.fronts import (
    EventKind,
    FrontDiagram,
    FrontError,
    FrontEvent,
    _Structure,
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


@dataclass(frozen=True, order=True, slots=True)
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


# The pattern table: a window is a tuple of ``(kind, offset)`` pairs for the
# events ``kind p+offset``.  See "Pattern table" above.
Window = tuple[tuple[EventKind, int], ...]

_FORWARD_WINDOWS: dict[MoveId, tuple[Window, Window]] = {
    MoveId.R1_KINK_BELOW: ((), ((L, 1), (X, 0), (R, 1))),
    MoveId.R1_KINK_ABOVE: ((), ((L, 0), (X, 1), (R, 0))),
    MoveId.R2_LEFT_CUSP_STRAND_ABOVE: (((L, 0),), ((L, -1), (X, 0), (X, -1))),
    MoveId.R2_LEFT_CUSP_STRAND_BELOW: (((L, 0),), ((L, 1), (X, 0), (X, 1))),
    MoveId.R2_RIGHT_CUSP_STRAND_ABOVE: (((R, 0),), ((X, -1), (X, 0), (R, -1))),
    MoveId.R2_RIGHT_CUSP_STRAND_BELOW: (((R, 0),), ((X, 1), (X, 0), (R, 1))),
    MoveId.R3_TRIPLE_POINT: (((X, 0), (X, 1), (X, 0)), ((X, 1), (X, 0), (X, 1))),
}

_PATTERNS: dict[tuple[MoveId, MoveDirection], tuple[Window, Window]] = {
    **{(move_id, FORWARD): pair for move_id, pair in _FORWARD_WINDOWS.items()},
    **{
        (move_id, BACKWARD): (after, before)
        for move_id, (before, after) in _FORWARD_WINDOWS.items()
    },
    (MoveId.R3_TRIPLE_POINT, BACKWARD): tuple(
        tuple((kind, -offset) for kind, offset in window)
        for window in _FORWARD_WINDOWS[MoveId.R3_TRIPLE_POINT]
    ),
}

# Strand-count change across an event of each kind.
_DELTA = {L: 2, X: 0, R: -2}


def _strand_counts(events: Word) -> list[int]:
    """Strand count before each event index (length ``len(events) + 1``)."""
    counts = [0]
    for ev in events:
        counts.append(counts[-1] + _DELTA[ev.kind])
    return counts


def _matches(events: Word, i: int, p: int, window: Window) -> bool:
    """Whether the events from index ``i`` on spell ``window`` at ``p``.

    The caller checks that the window fits in ``events`` from ``i``.
    """
    for ev, (kind, offset) in zip(events[i : i + len(window)], window):
        if ev.kind is not kind or ev.pos != p + offset:
            return False
    return True


def _fits(window: Window, p: int, n: int) -> bool:
    """Whether ``window`` at ``p`` is a valid run of events after ``n`` strands."""
    for kind, offset in window:
        if not 1 <= p + offset <= (n + 1 if kind is L else n - 1):
            return False
        n += _DELTA[kind]
    return True


def _moves_at(events: Word, i: int, n: int) -> list[MoveInstance]:
    """The pattern moves at site index ``i`` of ``events``, with ``n`` strands there."""
    found = []
    for (move_id, direction), (before, after) in _PATTERNS.items():
        if not before:
            # an insertion's first event can stand at 1..n+1
            sites = range(1 - after[0][1], n + 2 - after[0][1])
        elif i + len(before) <= len(events):
            sites = (events[i].pos - before[0][1],)
        else:
            continue
        for p in sites:
            if _matches(events, i, p, before) and _fits(after, p, n):
                found.append(MoveInstance(move_id, (i, p), direction))
    return found


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
    d2 = _DELTA[e2.kind]
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
    if move.move_id is MoveId.SLIDE:
        if not 0 <= i < len(events) - 1:
            raise MoveNotApplicable(f"no adjacent pair at {i}")
        swapped = commute_pair(events[i], events[i + 1])
        if swapped is None:
            raise MoveNotApplicable(f"events at {i} do not commute")
        return events[:i] + swapped + events[i + 2 :]

    before, after = _PATTERNS[move.move_id, move.direction]
    if not (0 <= i <= len(events) - len(before) and _matches(events, i, p, before)):
        raise MoveNotApplicable(f"no {move.move_id} window at {i}:{p}")
    if not _fits(after, p, sum(_DELTA[ev.kind] for ev in events[:i])):
        raise MoveNotApplicable(f"no strands for {move.move_id} at {i}:{p}")
    window = tuple(FrontEvent(kind, p + offset) for kind, offset in after)
    return events[:i] + window + events[i + len(before) :]


def apply_move(diagram: FrontDiagram, move: MoveInstance) -> FrontDiagram:
    """Apply a move, revalidate, and carry orientations across the rewrite.

    For each component, some cusp survives outside the rewritten window, and
    a local rewrite cannot change how that cusp is traversed; matching its
    sense between the old diagram and the (default-oriented) new one
    recovers the component's orientation sign.  The new word is validated
    once, and the senses are read off both words' structures.
    """
    new_events = apply_move_word(diagram.events, move)
    old, new = diagram._structure, _Structure(new_events)
    start = move.site[0]
    if move.move_id is MoveId.SLIDE:
        old_len = new_len = 2
    else:
        old_len, new_len = map(len, _PATTERNS[move.move_id, move.direction])
    new_cusp = {cusp[0]: ci for ci, cusp in enumerate(new.cusps)}
    orientations = diagram.orientations
    signs = [0] * len(new.components)
    for ci, (event, _, upper, _) in enumerate(old.cusps):
        if start <= event < start + old_len:
            continue
        target = event if event < start else event + new_len - old_len
        mirror = new_cusp[target]
        component = new.component_of[new.cusps[mirror][2]]
        sign = (
            old.cusp_sense[ci]
            * orientations[old.component_of[upper]]
            * new.cusp_sense[mirror]
        )
        if signs[component] not in (0, sign):
            raise SenseTransferConflict("sense transfer disagrees")
        signs[component] = sign
    if 0 in signs:
        raise MoveNotApplicable("a component has no cusp outside the window")
    return FrontDiagram._on_structure(new_events, new, tuple(signs))


def inverse_move(move: MoveInstance) -> MoveInstance:
    """The move undoing ``move`` at the same spot."""
    if move.move_id is MoveId.SLIDE:
        return move
    flipped = BACKWARD if move.direction is FORWARD else FORWARD
    after = _PATTERNS[move.move_id, move.direction][1]
    undo_before = _PATTERNS[move.move_id, flipped][0]
    i, p = move.site
    shift = after[0][1] - undo_before[0][1] if after else 0
    return MoveInstance(move.move_id, (i, p + shift), flipped)


def replay_moves(events: Word, moves: Iterable[MoveInstance]) -> Word:
    for move in moves:
        events = apply_move_word(events, move)
    return events


def applicable_moves(diagram: FrontDiagram) -> list[MoveInstance]:
    """Every move instance whose pattern matches the diagram's word, sorted."""
    events = diagram.events
    counts = _strand_counts(events)
    found: list[MoveInstance] = []
    for i in range(len(events) + 1):
        found += _moves_at(events, i, counts[i])
    for i in range(len(events) - 1):
        if commute_pair(events[i], events[i + 1]) is not None:
            found.append(MoveInstance(MoveId.SLIDE, (i, 0), FORWARD))
    # the dataclass order of MoveInstance, without a call to its __lt__
    return sorted(found, key=attrgetter("move_id", "site", "direction"))


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


@lru_cache(maxsize=_MEMO_SIZE)
def _shared(code: int) -> int:
    """One int object per code value, so that words and keys kept in bulk share them."""
    return code


def _encode(events: Iterable[FrontEvent]) -> Coded:
    return tuple(_shared(_RANK[ev.kind] << 32 | (ev.pos + _POS_BIAS)) for ev in events)


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


# A placement state, see _Placer: the word of the events still to place and
# their indices in the word placing started from; per event (by index) the
# event it waits on (-1 for a head), and its code just after that event with
# the placed set when that code was taken; the heads as ``(front code,
# event)``, least first; and the set of events placed, as a bit mask.
_State = tuple[
    Coded, tuple[int, ...], list[int], list[tuple[int, int]], list[tuple[int, int]], int
]


class _Placer:
    """Places the events of one word at the front, one head at a time.

    Kahn's topological sort on the trace: each event waits on the nearest
    event before it that it does not commute with, and slides on only when
    that event is placed.  Sliding event ``e`` past ``c`` moves each code by
    an amount that depends only on the two events, kept in ``shift``:
    ``shift[c][e]`` is the change in ``e``'s code when ``c`` goes from after
    ``e`` to before it.  Placing a head moves the codes of the events before
    it and of the other heads by these amounts, with no slide; a waiting
    event's code takes the moves of the events placed past it since it
    stopped when it slides on.  ``slides`` counts the slides made.
    """

    __slots__ = ("shift", "slides")

    def __init__(self, size: int):
        self.shift = [[0] * size for _ in range(size)]
        self.slides = 0

    def _slide(self, rest: Coded, ids: tuple[int, ...], event: int, code: int, j: int):
        """Slide ``event``, with ``code`` just after index ``j`` of ``rest``, to the front.

        Returns the event that stops it, or -1, and its code just after
        that event.
        """
        start = j
        shift, own = self.shift, self.shift[event]
        while j >= 0:
            swapped = _commute_codes(rest[j], code)
            if swapped is None:
                self.slides += start - j
                return ids[j], code
            moved, passed = swapped
            other = ids[j]
            shift[other][event] = code - moved
            own[other] = passed - rest[j]
            code = moved
            j -= 1
        self.slides += start - j
        return -1, code

    def start(self, codes: Coded) -> _State:
        ids = tuple(range(len(codes)))
        blockers, waits, heads = [], [], []
        for k, code in enumerate(codes):
            blocker, code = self._slide(codes, ids, k, code, k - 1)
            blockers.append(blocker)
            waits.append((code, 0))
            if blocker < 0:
                heads.append((code, k))
        heads.sort()
        return codes, ids, blockers, waits, heads, 0

    def place(self, state: _State, event: int) -> _State:
        """The state after the head ``event`` of ``state`` is placed."""
        rest, ids, blockers, waits, heads, mask = state
        shift = self.shift
        moved = shift[event]
        k = ids.index(event)
        if k:
            ahead = map(add, rest[:k], [moved[e] for e in ids[:k]])
            rest = (*ahead, *rest[k + 1 :])
        else:
            rest = rest[1:]
        ids = ids[:k] + ids[k + 1 :]
        mask |= 1 << event
        heads = [(code + moved[e], e) for code, e in heads if e != event]
        if event in blockers:
            blockers, waits = blockers[:], waits[:]
            later = -(2 << event)  # the events after ``event``, as a mask
            waiting = blockers.index(event)
            while True:
                code, stamp = waits[waiting]
                passed = mask & ~stamp & later
                while passed:
                    low = passed & -passed
                    code += shift[low.bit_length() - 1][waiting]
                    passed ^= low
                if k:
                    blocker, code = self._slide(rest, ids, waiting, code, k - 1)
                else:
                    blocker = -1
                blockers[waiting] = blocker
                if blocker < 0:
                    heads.append((code, waiting))
                else:
                    waits[waiting] = code, mask
                if event not in blockers:
                    break
                waiting = blockers.index(event, waiting + 1)
        heads.sort()
        return rest, ids, blockers, waits, heads, mask


def _trace(codes: Coded) -> tuple[Coded, tuple[int, ...], int]:
    """:func:`_trace_key` and the number of slides it took."""
    placer = _Placer(len(codes))
    states = [((), placer.start(codes))]
    key: list[int] = []
    for left in range(len(codes), 0, -1):
        if len(states) == 1:
            order, state = states[0]
            heads = state[4]
            best, event = heads[0]
            if len(heads) == 1 or heads[1][0] != best:
                # no tie: the one least head is placed, with no set to merge
                key.append(best)
                after = placer.place(state, event) if left > 1 else None
                states = [(order + (event,), after)]
                continue
        best = min([state[4][0][0] for _, state in states])
        nxt: dict[int, tuple[tuple[int, ...], _State]] = {}
        for order, state in states:
            mask = state[5]
            for code, event in state[4]:
                if code != best:
                    break
                child = mask | 1 << event
                if child not in nxt:
                    # the last event placed leaves nothing to keep
                    after = placer.place(state, event) if left > 1 else None
                    nxt[child] = (order + (event,), after)
        key.append(best)
        states = list(nxt.values())
    ((order, _),) = states
    return tuple(map(_shared, key)), order, placer.slides


def _trace_key(codes: Coded) -> tuple[Coded, tuple[int, ...]]:
    """The least word of the slide class of ``codes`` and its events.

    ``order[t]`` is the index in ``codes`` of the event at place ``t`` of
    the key.  The key is built one place at a time from the least front
    code of any event that can come next.  Where events tie on that code,
    every way of placing them is kept, one state per set of events placed,
    so ties cost the number of such sets and never a branch per path.
    """
    key, order, _ = _trace(codes)
    return key, order


def canonical_word(events: Word) -> Word:
    """Lex-least word in the slide class (the search's memoization key)."""
    return _decode(_trace_key(_encode(events))[0])


def _ideals(codes: Coded) -> dict[int, tuple[Coded, list[tuple[int, int]]]]:
    """Every set of events that slides can bring to the front together.

    Keyed by the bit mask of the events' indices in ``codes``, smallest
    sets first.  Each ideal has a word of its events as slides leave them
    at the front and its heads: ``(event, front code)`` for each event that
    can come next.
    """
    placer = _Placer(len(codes))
    ideals = {}
    level = {0: ((), placer.start(codes))}
    while level:
        nxt: dict[int, tuple[Coded, _State]] = {}
        for mask, (prefix, state) in level.items():
            heads = sorted((event, _shared(code)) for code, event in state[4])
            for event, code in heads:
                child = mask | 1 << event
                if child not in nxt:
                    nxt[child] = (prefix + (code,), placer.place(state, event))
            ideals[mask] = (prefix, heads)
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
    for mask, (prefix, heads) in ideals.items():
        code = dict(heads).get(right_index)
        if code is None:
            continue
        after_code = dict(ideals[mask | 1 << right_index][1]).get(left_index)
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
    # The least word of rest(I) starts with one of its heads h and goes on
    # with the least word of rest(I + h): one pass, largest ideals first.
    rest_keys: dict[int, Coded] = {}
    for mask in reversed(ideals):
        rest_keys[mask] = min(
            ((code,) + rest_keys[mask | 1 << event] for event, code in ideals[mask][1]),
            default=(),
        )
    pairs = []
    for mask, (prefix, heads) in ideals.items():
        head_key = _trace_key(prefix)[0]
        windows = {head_key + rest_keys[mask]}
        for first, first_code in heads:
            one = mask | 1 << first
            windows.add(head_key + (first_code,) + rest_keys[one])
            for middle, middle_code in ideals[one][1]:
                if _KINDS[middle_code >> 32] is not X:
                    continue
                two = one | 1 << middle
                for last, last_code in ideals[two][1]:
                    window = (first_code, middle_code, last_code)
                    windows.add(head_key + window + rest_keys[two | 1 << last])
        strands = sum(_DELTA[_KINDS[code >> 32]] for code in prefix)
        for concrete in windows:
            pairs += [(concrete, m) for m in _moves_at(_decode(concrete), len(prefix), strands)]
    return sorted(pairs)


def _invariant_key(diagram: FrontDiagram):
    inv = diagram.classical_invariants()
    tb = tuple(sorted(t for t, _ in inv))
    rot = tuple(sorted(abs(r) for _, r in inv))
    n = len(inv)
    lk = diagram.linking_matrix()
    lk_pairs = tuple(sorted(abs(lk[i][j]) for i in range(n) for j in range(i + 1, n)))
    return n, tb, rot, lk_pairs


@dataclass(slots=True)
class _Node:
    word: Coded  # concrete representative reached
    parent: Optional[Coded]  # canonical key of the parent class
    via_concrete: Optional[Coded]  # word in parent class the move applied to
    move: Optional[MoveInstance]


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
    keys_made = slides = 0

    def key_of(codes: Coded) -> Coded:
        nonlocal keys_made, slides
        key, _, made = _trace(codes)
        keys_made += 1
        slides += made
        return key

    def outcome(reason: str, result: Optional[list[MoveInstance]]):
        # Importing logging costs a cold CLI start about 10 ms; a process
        # that never imported it has no handler the record could reach.
        logging = sys.modules.get("logging")
        if logging is not None:
            logging.getLogger(__name__).debug(
                "equivalent_within: %s; nodes %d + %d; depth %d + %d; %d keys; %d slides",
                reason, len(sides[0]), len(sides[1]), depths[0], depths[1], keys_made,
                slides,
            )
        return result

    if _invariant_key(f) != _invariant_key(g):
        return outcome("invariants differ", None)

    start, goal = _encode(f.events), _encode(g.events)

    def finish(witness: list[MoveInstance]) -> list[MoveInstance]:
        if replay_moves(f.events, witness) != g.events:
            raise WitnessReplayError("witness replay failed")
        return outcome("found", witness)

    start_key = key_of(start)
    goal_key = key_of(goal)
    sides[0][start_key] = _Node(start, None, None, None)
    sides[1][goal_key] = _Node(goal, None, None, None)
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
                    child_keys[nxt] = key_of(nxt)
                nxt_key = child_keys[nxt]
                if nxt_key in sides[side]:
                    continue
                sides[side][nxt_key] = _Node(nxt, key, concrete, move)
                new_frontier.append(nxt_key)
                if nxt_key in sides[1 - side]:
                    return finish(build_witness(nxt_key))
                if len(sides[0]) + len(sides[1]) >= node_cap:
                    return outcome("node cap", None)
        frontiers[side] = sorted(new_frontier)
    return outcome("depth exhausted", None)
