"""Shared generators for the test suite (plain-random and hypothesis flavors)."""

from __future__ import annotations

import heapq
import math
import random
import tracemalloc

import hypothesis.strategies as st
import numpy as np

from lagsurf.fronts import (
    CrossingInfo,
    CuspInfo,
    EventKind,
    FrontDiagram,
    FrontError,
    FrontEvent,
    MultiComponentInput,
    OddCrossingSum,
)
from lagsurf.immersions import (
    GridOutsideDomain,
    ImmersionFamily,
    VerificationReport,
    symplectic_pairing,
)
from lagsurf.linking import (
    _TILE_ELEMENTS,
    _VIEW_SEEDS,
    DegenerateProjection,
    SelfIntersectingSamples,
    _candidate_poles,
    _pack,
    _require_pushoff,
    _view_rotation,
    reeb_pushoff,
    stereographic,
)
from lagsurf.moves import (
    _PATTERNS,
    BACKWARD,
    FORWARD,
    Coded,
    MoveId,
    MoveInstance,
    MoveNotApplicable,
    SenseTransferConflict,
    Word,
    _commute_codes,
    apply_move_word,
    commute_pair,
)
from lagsurf.surfaces import DiskBundle
from lagsurf.table import SEED, Edge, Rule


def peak_mib(call, *args) -> float:
    """The peak of memory traced by ``tracemalloc`` while ``call(*args)`` runs, in MiB."""
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def _strand_stack_word(integer, choice, max_events: int, max_strands: int):
    """A valid closed word built by simulating the strand stack.

    ``integer(lo, hi)`` picks an int in ``[lo, hi]`` and ``choice(options)``
    one of the options, so one body serves plain-random and hypothesis draws.
    """
    events: list[FrontEvent] = []
    n = 0
    target = integer(2, max_events)
    while True:
        if n == 0:
            if len(events) >= target:
                break
            kind = "L"
        elif len(events) >= target:
            kind = "R"
        else:
            options = ["X", "R", "R"]
            if n < max_strands:
                options += ["L", "L"]
            kind = choice(options)
        if kind == "L":
            pos = integer(1, n + 1)
            n += 2
        else:
            pos = integer(1, n - 1)
            if kind == "R":
                n -= 2
        events.append(FrontEvent(EventKind(kind), pos))
    return tuple(events)


def random_word(
    rng: random.Random, max_events: int = 12, max_strands: int = 6
) -> tuple[FrontEvent, ...]:
    return _strand_stack_word(rng.randint, rng.choice, max_events, max_strands)


def random_diagram(rng: random.Random, **kwargs) -> FrontDiagram:
    base = FrontDiagram(random_word(rng, **kwargs))
    orientations = tuple(rng.choice((1, -1)) for _ in range(base.component_count))
    return base.with_orientations(orientations)


def random_knot(rng: random.Random, **kwargs) -> FrontDiagram:
    while True:
        diagram = random_diagram(rng, **kwargs)
        if diagram.component_count == 1:
            return diagram


@st.composite
def front_words(draw, max_events: int = 12, max_strands: int = 6):
    return _strand_stack_word(
        lambda lo, hi: draw(st.integers(min_value=lo, max_value=hi)),
        lambda options: draw(st.sampled_from(options)),
        max_events,
        max_strands,
    )


@st.composite
def front_diagrams(draw, **kwargs):
    base = FrontDiagram(draw(front_words(**kwargs)))
    orientations = tuple(
        draw(st.sampled_from((1, -1))) for _ in range(base.component_count)
    )
    return base.with_orientations(orientations)


def knot_diagrams(**kwargs):
    return front_diagrams(**kwargs).filter(lambda d: d.component_count == 1)


def reference_slide_closure(
    events: tuple[FrontEvent, ...], cap: int = 2048
) -> set[tuple[FrontEvent, ...]]:
    """Slide relatives of a word by a plain heap BFS over ``commute_pair``.

    Works on ``FrontEvent`` words throughout and pops the least word first,
    stopping once ``cap`` words are seen.
    """
    seen = {events}
    heap = [events]
    while heap and len(seen) < cap:
        current = heapq.heappop(heap)
        for i in range(len(current) - 1):
            swapped = commute_pair(current[i], current[i + 1])
            if swapped is None:
                continue
            nxt = current[:i] + swapped + current[i + 2 :]
            if nxt not in seen:
                seen.add(nxt)
                heapq.heappush(heap, nxt)
    return seen


def reference_slide_path(
    start: tuple[FrontEvent, ...], goal: tuple[FrontEvent, ...]
) -> list[int]:
    """Slide indices from ``start`` to ``goal`` by a plain breadth-first search.

    Neighbours are tried in index order and each word is kept with the first
    path that reaches it, so the path is the lex-least of the shortest ones.
    """
    paths = {start: []}
    frontier = [start]
    while goal not in paths:
        if not frontier:
            raise ValueError("goal is not a slide relative of start")
        reached = []
        for current in frontier:
            for i in range(len(current) - 1):
                swapped = commute_pair(current[i], current[i + 1])
                if swapped is None:
                    continue
                nxt = current[:i] + swapped + current[i + 2 :]
                if nxt not in paths:
                    paths[nxt] = paths[current] + [i]
                    reached.append(nxt)
        frontier = reached
    return paths[goal]


# -- the case-by-case pattern moves of ``moves``, kept as references ------

L, X, R = EventKind.LEFT_CUSP, EventKind.CROSSING, EventKind.RIGHT_CUSP


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


def reference_commute_pair(
    e1: FrontEvent, e2: FrontEvent
) -> tuple[FrontEvent, FrontEvent] | None:
    """``moves.commute_pair`` written out case by case, one branch per kind pair."""
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


def run_on_labelled_strands(
    pairs: tuple[tuple[FrontEvent, str], ...], strands: int
) -> tuple[list, dict, dict] | None:
    """Run events on a stack of labelled strands, or ``None`` if one is out of range.

    ``pairs`` holds each event with a name; a birth's two strands are
    labelled ``(name, 0)`` and ``(name, 1)``, the given strands ``1..strands``.
    Returns the final stack and, per event name, the (upper, lower) strands
    each crossing swapped and each merge joined.
    """
    stack: list = list(range(1, strands + 1))
    crossed, merged = {}, {}
    for ev, name in pairs:
        p = ev.pos
        if ev.kind is L:
            if not 1 <= p <= len(stack) + 1:
                return None
            stack[p - 1 : p - 1] = [(name, 0), (name, 1)]
            continue
        if not 1 <= p < len(stack):
            return None
        pair = stack[p - 1], stack[p]
        if ev.kind is X:
            crossed[name] = pair
            stack[p - 1 : p + 1] = pair[::-1]
        else:
            merged[name] = pair
            del stack[p - 1 : p + 1]
    return stack, crossed, merged


def _events(*pairs: tuple[EventKind, int]) -> Word:
    return tuple(FrontEvent(kind, pos) for kind, pos in pairs)


def _strand_counts(events: Word) -> list[int]:
    """Strand count before each event index (length ``len(events) + 1``)."""
    counts = [0]
    delta = {L: 2, X: 0, R: -2}
    for ev in events:
        counts.append(counts[-1] + delta[ev.kind])
    return counts


def reference_apply_move_word(events: Word, move: MoveInstance) -> Word:
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


def reference_inverse_move(move: MoveInstance) -> MoveInstance:
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


def reference_applicable_moves(diagram: FrontDiagram) -> list[MoveInstance]:
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


def reference_child_producers(events: tuple[FrontEvent, ...]) -> dict:
    """Each class one pattern move from the class of ``events``, by full expansion.

    Every word of the class takes every pattern move, in sorted order; each
    child class, keyed by its least word, keeps the first ``(word, move)``
    that reaches it.  Classes are enumerated whole by a depth-first search
    over ``commute_pair``, on words of ints that sort as the events do.
    """

    def encode(word):
        return tuple(ord(ev.kind.value) << 8 | ev.pos for ev in word)

    def decode(codes):
        return tuple(FrontEvent(EventKind(chr(c >> 8)), c & 255) for c in codes)

    swaps: dict = {}

    def relatives(start):
        seen = {start}
        stack = [start]
        while stack:
            current = stack.pop()
            for i in range(len(current) - 1):
                pair = current[i : i + 2]
                if pair not in swaps:
                    swapped = commute_pair(*decode(pair))
                    swaps[pair] = None if swapped is None else encode(swapped)
                if swaps[pair] is not None:
                    nxt = current[:i] + swaps[pair] + current[i + 2 :]
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
        return seen

    keys: dict = {}

    def key(word):
        codes = encode(word)
        if codes not in keys:
            members = relatives(codes)
            keys.update(dict.fromkeys(members, decode(min(members))))
        return keys[codes]

    producers: dict = {}
    for concrete in sorted(map(decode, relatives(encode(events)))):
        for move in reference_applicable_moves(FrontDiagram(concrete)):
            if move.move_id is MoveId.SLIDE:
                continue
            try:
                child = reference_apply_move_word(concrete, move)
            except MoveNotApplicable:
                continue
            producers.setdefault(key(child), (concrete, move))
    return producers


# -- the two-build rewrite and the re-sliding keys of ``moves``, kept as references


def reference_apply_move(diagram: FrontDiagram, move: MoveInstance) -> FrontDiagram:
    """Apply a move, revalidate, and carry orientations across the rewrite.

    For each component, some cusp survives outside the rewritten window, and
    a local rewrite cannot change how that cusp is traversed; matching its
    sense between the old diagram and the (default-oriented) new one
    recovers the component's orientation sign.
    """
    new_events = apply_move_word(diagram.events, move)
    plain = FrontDiagram(new_events)
    start = move.site[0]
    if move.move_id is MoveId.SLIDE:
        old_len = new_len = 2
    else:
        old_len, new_len = map(len, _PATTERNS[move.move_id, move.direction])
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


def _reference_heads(codes: Coded):
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


def reference_trace_key(codes: Coded) -> tuple[Coded, tuple[int, ...]]:
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
            for k, front, after in _reference_heads(rest):
                if best is None or front < best:
                    best, nxt = front, {}
                if front == best:
                    nxt.setdefault(left[:k] + left[k + 1 :], (order + (left[k],), after))
        key.append(best)
        states = nxt
    ((order, _),) = states.values()
    return tuple(key), order


# -- the per-method invariant walks and mirrors of ``fronts``, kept as references


def reference_cusps(diagram: FrontDiagram) -> tuple[CuspInfo, ...]:
    s = diagram._structure
    return tuple(
        CuspInfo(
            event=event,
            kind=kind,
            upper=upper,
            lower=lower,
            component=s.component_of[upper],
            sense=s.cusp_sense[i] * diagram.orientations[s.component_of[upper]],
        )
        for i, (event, kind, upper, lower) in enumerate(s.cusps)
    )


def reference_crossings(diagram: FrontDiagram) -> tuple[CrossingInfo, ...]:
    return tuple(
        CrossingInfo(
            event=event,
            over=over,
            under=under,
            sign=diagram.arc_direction(over) * diagram.arc_direction(under),
        )
        for event, over, under in diagram._structure.crossings
    )


def reference_writhe(diagram: FrontDiagram) -> int:
    """Signed crossing count of the whole diagram (all components)."""
    return sum(c.sign for c in reference_crossings(diagram))


def reference_thurston_bennequin(diagram: FrontDiagram) -> int:
    if diagram.component_count != 1:
        raise MultiComponentInput(f"need a single component, found {diagram.component_count}")
    return reference_writhe(diagram) - len(diagram._structure.cusps) // 2


def reference_rotation_number(diagram: FrontDiagram) -> int:
    if diagram.component_count != 1:
        raise MultiComponentInput(f"need a single component, found {diagram.component_count}")
    total = sum(c.sense for c in reference_cusps(diagram))
    return total // 2


def reference_classical_invariants(diagram: FrontDiagram) -> tuple[tuple[int, int], ...]:
    """Per-component ``(tb, rot)``, using each component's own crossings."""
    s = diagram._structure
    ncomp = len(s.components)
    self_writhe = [0] * ncomp
    cusp_count = [0] * ncomp
    sense_sum = [0] * ncomp
    for c in reference_crossings(diagram):
        co, cu = s.component_of[c.over], s.component_of[c.under]
        if co == cu:
            self_writhe[co] += c.sign
    for cusp in reference_cusps(diagram):
        cusp_count[cusp.component] += 1
        sense_sum[cusp.component] += cusp.sense
    return tuple(
        (self_writhe[c] - cusp_count[c] // 2, sense_sum[c] // 2)
        for c in range(ncomp)
    )


def reference_linking_number(diagram: FrontDiagram, i: int, j: int) -> int:
    """lk between components ``i`` and ``j`` under the orientations."""
    if i == j:
        raise ValueError("linking number needs two distinct components")
    s = diagram._structure
    pair = {i, j}
    total = sum(
        c.sign
        for c in reference_crossings(diagram)
        if {s.component_of[c.over], s.component_of[c.under]} == pair
    )
    if total % 2:
        raise OddCrossingSum(f"components {i} and {j}: odd crossing sum {total}")
    return total // 2


def reference_linking_matrix(diagram: FrontDiagram) -> tuple[tuple[int, ...], ...]:
    n = diagram.component_count
    return tuple(
        tuple(0 if i == j else reference_linking_number(diagram, i, j) for j in range(n))
        for i in range(n)
    )


def reference_vertical_mirror(diagram: FrontDiagram) -> FrontDiagram:
    """Flip the diagram upside down, pushing the orientation forward."""
    out = []
    n = 0
    for ev in diagram.events:
        if ev.kind is EventKind.LEFT_CUSP:
            out.append(FrontEvent(ev.kind, n + 2 - ev.pos))
            n += 2
        elif ev.kind is EventKind.CROSSING:
            out.append(FrontEvent(ev.kind, n - ev.pos))
        else:
            out.append(FrontEvent(ev.kind, n - ev.pos))
            n -= 2
    base = FrontDiagram(tuple(out))
    # the mirror swaps each birth pair: arc a of the mirror corresponds
    # to arc a^1 here, and horizontal directions are preserved
    s = base._structure
    orientations = []
    for members in s.components:
        lead = min(members)
        desired = diagram.arc_direction(lead ^ 1)
        orientations.append(desired * s.walk_dir[lead])
    return base.with_orientations(orientations)


def reference_horizontal_mirror(diagram: FrontDiagram) -> FrontDiagram:
    """Flip the diagram left to right, pushing the orientation forward.

    The birth cusp of each lead arc is looked up in the mirror's cusp list.
    """
    flipped = {
        EventKind.LEFT_CUSP: EventKind.RIGHT_CUSP,
        EventKind.RIGHT_CUSP: EventKind.LEFT_CUSP,
        EventKind.CROSSING: EventKind.CROSSING,
    }
    out = tuple(
        FrontEvent(flipped[ev.kind], ev.pos) for ev in reversed(diagram.events)
    )
    base = FrontDiagram(out)
    # arc of the mirror born (upper/lower) at event j <-> arc here dying
    # (upper/lower) at event len-1-j
    last = len(diagram.events) - 1
    here = diagram._structure
    death_at: dict[tuple[int, bool], int] = {}
    for ci, (event, kind, upper, lower) in enumerate(here.cusps):
        if kind is EventKind.RIGHT_CUSP:
            death_at[(event, True)] = upper
            death_at[(event, False)] = lower
    s = base._structure
    orientations = []
    for members in s.components:
        lead = min(members)
        b_event, _, b_upper, _ = next(
            c for c in s.cusps if c[1] is EventKind.LEFT_CUSP and lead in c[2:]
        )
        twin = death_at[(last - b_event, lead == b_upper)]
        desired = -diagram.arc_direction(twin)
        orientations.append(desired * s.walk_dir[lead])
    return base.with_orientations(orientations)


def _reference_splice(f: FrontDiagram, g: FrontDiagram) -> FrontDiagram:
    """Join two knots end to end when some reflection of ``g`` lines up."""
    s = f._structure
    _, _, upper, _ = s.cusps[-1]
    d_f = f.arc_direction(upper)
    rot_g = reference_rotation_number(g)

    candidates = [
        g,
        g.reverse(),
        reference_horizontal_mirror(g),
        reference_horizontal_mirror(g).reverse(),
    ]
    for h in candidates:
        if reference_rotation_number(h) != rot_g:
            continue
        _, _, first_upper, _ = h._structure.cusps[0]
        if h.arc_direction(first_upper) != d_f:
            continue
        base = FrontDiagram(f.events[:-1] + h.events[1:])
        # arc 0 belongs to f's part; keep f's direction on it
        orientation = f.arc_direction(0) * base._structure.walk_dir[0]
        return base.with_orientations((orientation,))
    raise FrontError("connected sum: no orientation-compatible splice found")


def reference_front_connected_sum(f: FrontDiagram, g: FrontDiagram) -> FrontDiagram:
    """Oriented connected sum, through an adaptor knot when no splice lines up."""
    for diagram in (f, g):
        if diagram.component_count != 1:
            raise MultiComponentInput("connected sum needs single-component fronts")
    try:
        return _reference_splice(f, g)
    except FrontError:
        adaptor = FrontDiagram.from_word("L1 L1 X2 R3 R1")
        return _reference_splice(_reference_splice(f, adaptor), g)


# -- sphere curves with closed-form answers --------------------------------


def legendrian_torus_knot(p: int, q: int, s: np.ndarray) -> np.ndarray:
    """(a e^{ips}, b e^{-iqs}) with a^2 = q/(p+q), b^2 = p/(p+q), as (N, 4) samples.

    For coprime p, q > 0 this is the negative torus knot T(p, -q), Legendrian
    on a Clifford torus of the unit sphere, with tb = -pq, the maximal tb of
    its knot type (Etnyre-Honda 2001), and rot = p - q.
    """
    a, b = math.sqrt(q / (p + q)), math.sqrt(p / (p + q))
    return _pack(a * np.exp(1j * p * s), b * np.exp(-1j * q * s))


# -- the copying sample reading of ``linking``, kept as a reference --------


def reference_split(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(z1, z2) of (q1, p1, q2, p2) points along a trailing axis of 4."""
    return points[..., 0] + 1j * points[..., 1], points[..., 2] + 1j * points[..., 3]


def reference_reeb_pushoff(curve: np.ndarray, epsilon: float) -> np.ndarray:
    """Flow every sample by e^{i epsilon} in both complex coordinates."""
    z1, z2 = reference_split(curve)
    phase = complex(math.cos(epsilon), math.sin(epsilon))
    return _pack(phase * z1, phase * z2)


# -- dense all-pairs kernels of ``linking``, kept as references ------------


def reference_require_embedded(curve: np.ndarray) -> None:
    """Reject sample sets whose non-neighbours collide at sample resolution."""
    n = len(curve)
    if n < 8:
        raise SelfIntersectingSamples("too few samples to resolve a closed curve")
    gaps = np.linalg.norm(np.roll(curve, -1, axis=0) - curve, axis=1)
    threshold = 0.5 * float(np.max(gaps))
    diff = curve[:, None, :] - curve[None, :, :]
    dist = np.linalg.norm(diff, axis=-1)
    idx = np.arange(n)
    band = np.minimum(np.abs(idx[:, None] - idx[None, :]),
                      n - np.abs(idx[:, None] - idx[None, :]))
    off_band = dist[band > 2]
    if off_band.size and float(np.min(off_band)) < threshold:
        raise SelfIntersectingSamples(
            "non-adjacent samples closer than half a sample step"
        )


def reference_planar_crossings(a3: np.ndarray, b3: np.ndarray) -> int:
    """Signed inter-curve crossing sum in the (x, y) view of two 3-space loops.

    Raises DegenerateProjection on parallel overlaps, endpoint grazes, or
    height ties, so callers can retry with a rotated view.
    """
    pa, qa = a3, np.roll(a3, -1, axis=0)
    pb, qb = b3, np.roll(b3, -1, axis=0)
    da, db = qa - pa, qb - pb

    denom = da[:, None, 0] * db[None, :, 1] - da[:, None, 1] * db[None, :, 0]
    offset = pb[None, :, :2] - pa[:, None, :2]
    cross_a = offset[..., 0] * db[None, :, 1] - offset[..., 1] * db[None, :, 0]
    cross_b = offset[..., 0] * da[:, None, 1] - offset[..., 1] * da[:, None, 0]

    scale = float(np.max(np.abs(denom))) + 1e-30
    with np.errstate(divide="ignore", invalid="ignore"):
        t = cross_a / denom
        u = cross_b / denom
    parallel = np.abs(denom) < 1e-12 * scale
    inside = (~parallel) & (t > 0) & (t < 1) & (u > 0) & (u < 1)
    grazing = (~parallel) & (
        ((np.abs(t) < 1e-9) | (np.abs(t - 1) < 1e-9)
         | (np.abs(u) < 1e-9) | (np.abs(u - 1) < 1e-9))
        & (t > -1e-9) & (t < 1 + 1e-9) & (u > -1e-9) & (u < 1 + 1e-9)
    )
    if np.any(grazing):
        raise DegenerateProjection("crossing lands on a segment endpoint")

    ia, ib = np.nonzero(inside)
    if ia.size == 0:
        return 0
    za = a3[ia, 2] + t[ia, ib] * da[ia, 2]
    zb = b3[ib, 2] + u[ia, ib] * db[ib, 2]
    gap = za - zb
    if np.any(np.abs(gap) < 1e-9 * (1.0 + np.abs(za) + np.abs(zb))):
        raise DegenerateProjection("strands tie in height at a crossing")

    sign_turn = np.sign(denom[ia, ib]).astype(int)
    over_a = gap > 0
    # det(over, under): when b is over, swap the pair, flipping the sign
    signs = np.where(over_a, sign_turn, -sign_turn)
    return int(np.sum(signs))


def reference_choose_pole(curves) -> np.ndarray:
    """The candidate pole farthest from every curve, over the stacked curves."""
    stacked = np.concatenate(curves)
    poles = _candidate_poles()
    heights = stacked @ poles.T
    closest = np.max(heights, axis=0)
    best = int(np.argmin(closest))
    if closest[best] > 1.0 - 1e-4:
        raise DegenerateProjection("every candidate pole sits on a curve")
    return poles[best]


def reference_sphere_linking_number(first: np.ndarray, second: np.ndarray) -> int:
    """Linking number of two sphere loops by the dense crossing scan of each view in turn."""
    pole = reference_choose_pole((first, second))
    a3 = stereographic(first, pole)
    b3 = stereographic(second, pole)
    last_error: Exception | None = None
    for angle in _VIEW_SEEDS:
        view = _view_rotation(angle)
        try:
            total = reference_planar_crossings(a3 @ view.T, b3 @ view.T)
        except DegenerateProjection as err:
            last_error = err
            continue
        if total % 2:
            last_error = DegenerateProjection("odd crossing sum, view missed a pair")
            continue
        return total // 2
    raise DegenerateProjection(f"all views degenerate: {last_error}")


def reference_contact_framing(curve: np.ndarray, epsilon: float = 1e-2) -> int:
    """The framing number through the dense embeddedness check and crossing scans.

    The push-off check is the oracle's own: it is a precondition of the
    framing, not one of the kernels these references stand beside.
    """
    reference_require_embedded(curve)
    _require_pushoff(curve, epsilon)
    return reference_sphere_linking_number(curve, reeb_pushoff(curve, epsilon))


def reference_gauss_linking(first: np.ndarray, second: np.ndarray) -> float:
    """Gauss double-integral route over the stereographic images (unrounded).

    Kept independent of :func:`linking_number` so the two can validate each
    other; midpoint rule over segment pairs.
    """
    pole = reference_choose_pole((first, second))
    a3 = stereographic(first, pole)
    b3 = stereographic(second, pole)
    da = np.roll(a3, -1, axis=0) - a3
    db = np.roll(b3, -1, axis=0) - b3
    ma = a3 + 0.5 * da
    mb = b3 + 0.5 * db
    sep = ma[:, None, :] - mb[None, :, :]
    norm = np.linalg.norm(sep, axis=-1) ** 3
    cross = np.cross(da[:, None, :], db[None, :, :])
    triple = np.einsum("ijk,ijk->ij", cross, sep)
    return float(np.sum(triple / norm) / (4 * math.pi))


def _reference_row_tiles(rows: int, columns: int):
    """Row slices covering ``rows`` with about ``_TILE_ELEMENTS`` per block."""
    step = max(1, _TILE_ELEMENTS // max(columns, 1))
    for start in range(0, rows, step):
        yield slice(start, min(start + step, rows))


def reference_tiled_gauss_linking(first: np.ndarray, second: np.ndarray) -> float:
    """The tiled Gauss sum with three fresh arrays per tile.

    The same tiles, operations and partial sums as ``gauss_linking``, so the
    two must return the same float.
    """
    pole = reference_choose_pole((first, second))
    a3 = stereographic(first, pole)
    b3 = stereographic(second, pole)
    da = np.roll(a3, -1, axis=0) - a3
    db = np.roll(b3, -1, axis=0) - b3
    ma = a3 + 0.5 * da
    mb = b3 + 0.5 * db
    left = np.concatenate([np.cross(ma, da), -da], axis=1)
    right = np.ascontiguousarray(np.concatenate([db, np.cross(db, mb)], axis=1).T)
    # unit-stride rows for the outer differences below
    columns = np.ascontiguousarray(mb.T)
    total = 0.0
    with np.errstate(all="ignore"):
        for rows in _reference_row_tiles(len(ma), len(mb)):
            # |sep|^3 from sep = ma - mb, one component at a time
            sep = np.subtract.outer(ma[rows, 0], columns[0])
            norm = sep * sep
            for k in (1, 2):
                np.subtract.outer(ma[rows, k], columns[k], out=sep)
                sep *= sep
                norm += sep
            np.sqrt(norm, out=sep)
            norm *= sep
            triple = left[rows] @ right
            triple /= norm
            total += float(np.sum(triple))
    if not math.isfinite(total):
        raise SelfIntersectingSamples("Gauss sum not finite: the curves' midpoints meet")
    return total / (4 * math.pi)


# -- the separate strip and cone charts of ``immersions``, kept as references


def reference_strip_chart(a: float):
    def chart(s: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        s, t = np.asarray(s, float), np.asarray(t, float)
        z1 = a * (-1j / math.sqrt(2)) * np.sqrt(1 + t**2) * np.exp(2j * s)
        return z1, a * t * np.exp(-1j * s)

    return chart


def reference_cone_chart(s: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    s, t = np.asarray(s, float), np.asarray(t, float)
    return (-1j / math.sqrt(2)) * np.abs(t) * np.exp(2j * s), t * np.exp(-1j * s)


# -- the meshgrid residual sweep of ``immersions``, kept as a reference ----


def reference_pullback_residual(
    family: ImmersionFamily,
    first: np.ndarray,
    second: np.ndarray,
    step: float = 1e-4,
    tolerance: float = 1e-6,
) -> VerificationReport:
    """Max |omega(d1 f, d2 f)| over the grid, derivatives by central differences.

    Evaluates the family on full meshgrid blocks of the grid.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    first, second = np.asarray(first, float), np.asarray(second, float)
    if family.apex_excluded and np.min(np.abs(second)) <= 2 * step:
        raise GridOutsideDomain(
            f"{family.name} family needs the grid clear of its apex at T = 0"
        )
    # the grid is swept in blocks of rows; the max of block maxima is the max
    tile = max(1, (1 << 14) // max(len(second), 1))
    maxima = []
    for start in range(0, len(first), tile):
        a, b = np.meshgrid(first[start : start + tile], second, indexing="ij")
        d1 = (family.evaluator(a + step, b) - family.evaluator(a - step, b)) / (2 * step)
        d2 = (family.evaluator(a, b + step) - family.evaluator(a, b - step)) / (2 * step)
        maxima.append(np.max(np.abs(symplectic_pairing(d1, d2))))
    residual = np.max(maxima)
    grid = f"{family.name} {len(first)}x{len(second)} step {step:g}"
    return VerificationReport.from_residual(residual, grid, tolerance)


# -- the object-building closure of ``table``, kept as a reference ---------


def reference_derive_table(min_chi: int = -5):
    """Breadth-first closure built on bundles, edges and witness tuples.

    Returns ``(nodes, edges, witnesses)``, the reference for the views of
    :class:`lagsurf.table.DerivationGraph`.
    """
    if min_chi > 0:
        raise ValueError("min_chi must be <= 0")
    witnesses: dict[DiskBundle, tuple[Rule, ...]] = {SEED: ()}
    edges: list[Edge] = []
    frontier = [SEED]
    for _ in range(0, -min_chi):
        next_row: dict[DiskBundle, tuple[Rule, ...]] = {}
        for node in frontier:
            children = [(Rule.VERTICAL, DiskBundle(node.chi - 1, node.euler - 2))]
            if -node.euler - node.chi >= 1:
                children.append(
                    (Rule.DIAGONAL, DiskBundle(node.chi - 1, node.euler + 2))
                )
            for rule, child in children:
                edges.append(Edge(node, child, rule))
                next_row.setdefault(child, witnesses[node] + (rule,))
        witnesses.update(next_row)
        frontier = list(next_row)
    return frozenset(witnesses), tuple(edges), witnesses
