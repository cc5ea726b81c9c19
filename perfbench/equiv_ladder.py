"""equiv-ladder: the search path, ``moves`` over ``fronts``; pure Python, no numpy.

Three kinds of operation:

* the equivalence ladder: pairs built from the zigzag ``L1 L1 R2 R1`` by
  known moves, each through ``equivalent_within`` at a fixed depth;
* a seeded batch of closed words of 4 to 13 events, each through
  ``FrontDiagram``, ``applicable_moves``, ``apply_move`` on listed moves and
  ``canonical_word``, one operation per call;
* a fixed word whose capped slide closure gives a key that one slide changes.
"""

from __future__ import annotations

import random
from collections import deque

from harness import ColdStart, Op, durations, med, require
from lagsurf.fronts import EventKind, FrontDiagram, FrontEvent, word
from lagsurf.moves import (
    BACKWARD,
    FORWARD,
    MoveDirection,
    MoveId,
    MoveInstance,
    applicable_moves,
    apply_move,
    apply_move_word,
    canonical_word,
    commute_pair,
    equivalent_within,
    replay_moves,
)

# lagsurf.moves._SLIDE_CAP: canonical_word is exact on slide classes this small.
SLIDE_CAP = 2048
WORD_LENGTHS = range(4, 14)
WORDS_PER_LENGTH = 6
MAX_STRANDS = 8
# Timed apply_move calls per word, on moves the seed draws from its list, so
# that every pass has the same number of operations; the check of the list
# applies every listed move.
APPLIED_PER_WORD = 16

ZIGZAG = "L1 L1 R2 R1"


def _m(move_id: str, site: tuple[int, int], direction: MoveDirection = FORWARD) -> MoveInstance:
    return MoveInstance(MoveId(move_id), site, direction)


# Each ladder word with the moves that build it from the zigzag.
BUILT = {
    "zigzag": ("L1 L1 R2 R1", []),
    "slid": ("L1 L3 R2 R1", [_m("slide", (0, 0))]),
    "cusp_pass": ("L1 L2 X1 X2 R2 R1", [_m("r2_left_cusp_strand_below", (1, 1))]),
    "kink": ("L1 L1 L2 X1 R2 R2 R1", [_m("r1_kink_below", (2, 1))]),
    "double_kink": (
        "L1 L1 L2 X1 R2 L2 X1 R2 R2 R1",
        [_m("r1_kink_below", (2, 1)), _m("r1_kink_below", (5, 1))],
    ),
}
# A 3-move witness for cusp_pass -> double_kink that the search misses.
CUSP_PASS_TO_DOUBLE_KINK = [
    _m("r2_left_cusp_strand_below", (1, 1), BACKWARD),
    _m("r1_kink_below", (2, 1)),
    _m("r1_kink_below", (5, 1)),
]

# (name, first, second, depth, node_cap, expected, large, kept_failing)
# expected: "witness", "slides" (a witness of slides only) or "none".
LADDER = [
    ("identity", "zigzag", "zigzag", 2, None, "witness", False, ""),
    ("slide_only", "zigzag", "slid", 2, None, "slides", False, ""),
    ("zigzag_cusp_pass", "zigzag", "cusp_pass", 2, None, "witness", False, ""),
    ("zigzag_kink", "zigzag", "kink", 2, None, "witness", False, ""),
    ("cusp_pass_kink", "cusp_pass", "kink", 2, None, "witness", False, ""),
    ("zigzag_double_kink", "zigzag", "double_kink", 2, None, "witness", True, ""),
    ("unknot_zigzag", "L1 R1", "zigzag", 2, None, "none", False, ""),
    (
        "cusp_pass_double_kink", "cusp_pass", "double_kink", 3, 64, "witness", True,
        "equivalent_within misses a 3-move witness (r2 backward at (1,1), "
        "r1_kink_below at (2,1) and (5,1)) and returns None",
    ),
]

# L1 R1 L1 R1 L1 R1 L1 L1 X2 L4 R4 R2 R1 has more than SLIDE_CAP slide
# relatives; the capped closure from it and from its slide at index 6 have
# different least words.
CAPPED_WORD = "L1 R1 L1 R1 L1 R1 L1 L1 X2 L4 R4 R2 R1"
CAPPED_SLIDE = 6


def _resolve(label: str) -> tuple[FrontEvent, ...]:
    return word(BUILT[label][0] if label in BUILT else label)


def _invariant_key(diagram: FrontDiagram):
    """Components, then sorted tb, sorted |rot| and sorted |lk| values."""
    inv = diagram.classical_invariants()
    n = diagram.component_count
    lk = diagram.linking_matrix()
    return (
        n,
        sorted(tb for tb, _ in inv),
        sorted(abs(rot) for _, rot in inv),
        sorted(abs(lk[i][j]) for i in range(n) for j in range(i + 1, n)),
    )


_STRAND_CHANGE = {EventKind.LEFT_CUSP: 2, EventKind.CROSSING: 0, EventKind.RIGHT_CUSP: -2}


def check_kink_count(events, moves) -> None:
    """Kink insertions listed must be two per strand in every gap of the word."""
    strands = sites = 0
    for ev in (None, *events):
        if ev is not None:
            strands += _STRAND_CHANGE[ev.kind]
        sites += 2 * strands
    listed = sum(
        m.move_id in (MoveId.R1_KINK_BELOW, MoveId.R1_KINK_ABOVE) and m.direction is FORWARD for m in moves
    )
    require(listed == sites, f"{listed} kink insertions listed, {sites} sites exist")


def parse_move(text: str) -> MoveInstance:
    """A move from its printed form ``id@index:pos:direction``."""
    head, tail = text.split("@", 1)
    index, pos, direction = tail.split(":")
    return MoveInstance(MoveId(head), (int(index), int(pos)), MoveDirection(direction))


def _tb_rot(events) -> list[tuple[int, int]]:
    return sorted((tb, abs(rot)) for tb, rot in FrontDiagram(events).classical_invariants())


_RANK = {EventKind.LEFT_CUSP: 0, EventKind.RIGHT_CUSP: 1, EventKind.CROSSING: 2}
_KINDS = {rank: kind for kind, rank in _RANK.items()}


def _code(ev: FrontEvent) -> int:
    """An int per event that sorts like the event itself (kind value, then pos)."""
    return _RANK[ev.kind] * 64 + ev.pos


class SlideClasses:
    """Slide classes by breadth-first search over ``commute_pair``.

    Words are searched as tuples of event codes, with ``commute_pair``
    answers memoized per code pair, so a class of a few thousand words costs
    milliseconds.
    """

    def __init__(self):
        self._swap: dict[tuple[int, int], tuple[int, int] | None] = {}

    def _commute(self, a: int, b: int):
        if (a, b) not in self._swap:
            pair = commute_pair(*(FrontEvent(_KINDS[c // 64], c % 64) for c in (a, b)))
            self._swap[a, b] = None if pair is None else tuple(map(_code, pair))
        return self._swap[a, b]

    def members(self, events, limit: int) -> set | None:
        """Every word reachable by slides, or None once it exceeds ``limit`` words."""
        start = tuple(map(_code, events))
        seen = {start}
        queue = deque([start])
        while queue:
            current = queue.popleft()
            for i in range(len(current) - 1):
                swapped = self._commute(current[i], current[i + 1])
                if swapped is None:
                    continue
                nxt = current[:i] + swapped + current[i + 2 :]
                if nxt not in seen:
                    seen.add(nxt)
                    if len(seen) > limit:
                        return None
                    queue.append(nxt)
        return seen

    def least(self, events, limit: int):
        """The least word of the class as events, or None past ``limit`` words."""
        members = self.members(events, limit)
        if members is None:
            return None
        return tuple(FrontEvent(_KINDS[c // 64], c % 64) for c in min(members))


def random_word(rng: random.Random, length: int) -> tuple[FrontEvent, ...]:
    """A closed word of exactly ``length`` events, by simulating the strands."""

    def can_finish(strands: int, left: int) -> bool:
        if strands == 0:
            return left == 0 or left >= 2
        return left >= strands // 2

    events = []
    strands = 0
    for left in range(length - 1, -1, -1):
        choices = []
        if strands + 2 <= MAX_STRANDS and can_finish(strands + 2, left):
            choices += [(EventKind.LEFT_CUSP, p) for p in range(1, strands + 2)]
        if strands >= 2 and can_finish(strands, left):
            choices += [(EventKind.CROSSING, p) for p in range(1, strands)]
        if strands >= 2 and can_finish(strands - 2, left):
            choices += [(EventKind.RIGHT_CUSP, p) for p in range(1, strands)]
        kind, pos = rng.choice(choices)
        events.append(FrontEvent(kind, pos))
        strands += _STRAND_CHANGE[kind]
    return tuple(events)


def build(seed: int, small: bool):
    for label, (text, path) in BUILT.items():
        events = word(ZIGZAG)
        for move in path:
            events = apply_move_word(events, move)
        if events != word(text):
            raise RuntimeError(f"ladder word {label} is not built by its moves")
    if replay_moves(_resolve("cusp_pass"), CUSP_PASS_TO_DOUBLE_KINK) != _resolve("double_kink"):
        raise RuntimeError("the known cusp_pass -> double_kink witness does not replay")
    rng = random.Random(seed)
    per_length = 1 if small else WORDS_PER_LENGTH
    words = [random_word(rng, n) for n in WORD_LENGTHS for _ in range(per_length)]
    slides = [rng.random() for _ in words]
    moves = [applicable_moves(FrontDiagram(w)) for w in words]
    picks = [[rng.randrange(len(listed)) for _ in range(APPLIED_PER_WORD)] for listed in moves]
    ladder = [entry for entry in LADDER if not (small and entry[6])]
    return ladder, words, slides, moves, picks


# -- operations ----------------------------------------------------------------------


def _replay_check(first, second, expected: str):
    def check(witness) -> None:
        if expected == "none":
            require(witness is None, f"expected None, got {witness}")
            return
        require(witness is not None, "no witness for a pair built by known moves")
        if expected == "slides":
            require(all(m.move_id is MoveId.SLIDE for m in witness), "witness is not slides only")
        target = _tb_rot(first)
        current = first
        for move in witness:
            current = apply_move_word(current, move)
            require(_tb_rot(current) == target, f"invariants change after {move}")
        require(current == second, "witness does not replay onto the goal word")

    return check


def _ladder_op(name, first_label, second_label, depth, node_cap, expected, large, kept_failing) -> Op:
    first, second = _resolve(first_label), _resolve(second_label)
    f, g = FrontDiagram(first), FrontDiagram(second)
    kwargs = {} if node_cap is None else {"node_cap": node_cap}

    def run(t):
        witness = t.call("moves.equivalent_within", equivalent_within, f, g, depth, **kwargs)
        t.note("moves.witness_moves", len(witness or ()))
        return witness

    return Op(f"ladder/{name}", run, _replay_check(first, second, expected),
              {"pair": name}, kept_failing, peak_when_traced=large)


def _word_ops(index: int, events, slide_pick: float, moves, picks, classes) -> list[Op]:
    """One operation per layer call: construct, list, apply, canonicalize."""
    diagram = FrontDiagram(events)
    tags = {"events": len(events)}
    key = _invariant_key(diagram)

    def construct(t):
        return t.call("fronts.FrontDiagram", FrontDiagram, events)

    def check_construct(built) -> None:
        require(built.events == events, "diagram does not keep its word")
        require(_invariant_key(built) == key, "invariants differ between constructions")

    def listing(t):
        found = t.call("moves.applicable_moves", applicable_moves, diagram)
        t.note("moves.applicable_found", len(found))
        return found

    def check_listing(found) -> None:
        require(len(set(found)) == len(found), "duplicate moves listed")
        check_kink_count(events, found)
        for move in found:
            require(_invariant_key(apply_move(diagram, move)) == key, f"{move} changes the invariant key")

    def applying(j: int, move):
        def run(t):
            return t.call("moves.apply_move", apply_move, diagram, move)

        def check(result) -> None:
            require(_invariant_key(result) == key, f"{move} changes the invariant key")

        return Op(f"word/{index}/apply/{j}", run, check, tags)

    def canonical(t):
        return t.call("moves.canonical_word", canonical_word, events)

    def check_canonical(result) -> None:
        require(result <= events, "canonical word is not least")
        least = classes.least(events, SLIDE_CAP)
        if least is None:
            # Past the cap the key is known to depend on the start word; the
            # fixed capped-word operation carries that fault on every seed.
            require(_invariant_key(FrontDiagram(result)) == key, "key is not an equivalent front")
            return
        require(result == least, "canonical word is not the least slide relative")
        sites = [i for i in range(len(events) - 1) if commute_pair(events[i], events[i + 1])]
        if sites:
            i = sites[int(slide_pick * len(sites))]
            slid = events[:i] + commute_pair(events[i], events[i + 1]) + events[i + 2 :]
            require(canonical_word(slid) == result, f"key changes under the slide at {i}")

    return [
        Op(f"word/{index}/construct", construct, check_construct, tags),
        Op(f"word/{index}/applicable", listing, check_listing, tags),
        *(applying(j, moves[p]) for j, p in enumerate(picks)),
        Op(f"word/{index}/canonical", canonical, check_canonical, tags),
    ]


def _capped_op() -> Op:
    events = word(CAPPED_WORD)
    i = CAPPED_SLIDE
    slid = events[:i] + commute_pair(events[i], events[i + 1]) + events[i + 2 :]

    def run(t):
        return (
            t.call("moves.canonical_word", canonical_word, events),
            t.call("moves.canonical_word", canonical_word, slid),
        )

    def check(keys) -> None:
        require(keys[0] == keys[1], "canonical_word changes under one slide")

    return Op("capped-word", run, check, {},
              f"canonical_word truncates the slide closure at {SLIDE_CAP} words, "
              "so the key depends on the start word")


def operations(inputs) -> list[Op]:
    ladder, words, slides, moves, picks = inputs
    ops = [_ladder_op(*entry) for entry in ladder]
    classes = SlideClasses()
    for i, (w, s, listed, chosen) in enumerate(zip(words, slides, moves, picks)):
        ops += _word_ops(i, w, s, listed, chosen, classes)
    ops.append(_capped_op())
    return ops


def cold_starts() -> list[ColdStart]:
    first, second = word("L1 X1 R1"), word("L1 L1 R2 R1")

    def check(code: int, out: str) -> None:
        require(code == 0, f"exit {code}")
        current = first
        for line in out.split():
            current = apply_move_word(current, parse_move(line))
        require(current == second, "printed witness does not replay")

    return [ColdStart(["moves", "equiv", "corpus/kink-down.front", "corpus/nested-down.front"], check)]


# -- per-layer metrics -------------------------------------------------------------


def layer_metrics(calls, notes, peaks) -> dict[str, float]:
    found = [v for _, name, v in notes if name == "moves.applicable_found"]
    metrics = {
        "fronts.construct_us": med(durations(calls, "fronts.FrontDiagram"), 1e6),
        "moves.applicable_us": med(durations(calls, "moves.applicable_moves"), 1e6),
        "moves.applicable_found": sum(found) / len(found),
        "moves.apply_us": med(durations(calls, "moves.apply_move"), 1e6),
        "moves.canonical_ms": med(durations(calls, "moves.canonical_word"), 1e3),
        "moves.witness_moves": sum(v for _, name, v in notes if name == "moves.witness_moves"),
        "moves.equiv_mib": max(mib for op, mib in peaks if "pair" in op.tags),
    }
    for op, made in calls:
        if "pair" in op.tags:
            metrics[f"moves.equiv_s.{op.tags['pair']}"] = sum(s for _, s in made)
    return metrics
