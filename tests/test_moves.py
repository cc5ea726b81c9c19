import itertools
import logging
import pathlib
import random
import re

import pytest
from hypothesis import given

import helpers
import lagsurf.moves
from lagsurf.dsl import parse_front
from lagsurf.fronts import EventKind, FrontDiagram, FrontError, FrontEvent, word
from lagsurf.moves import (
    BACKWARD,
    FORWARD,
    MoveDirection,
    MoveId,
    MoveInstance,
    MoveNotApplicable,
    WitnessReplayError,
    _decode,
    _encode,
    _expansion,
    _ideals,
    _invariant_key,
    _slide_path,
    _trace,
    align_facing_cusps,
    applicable_moves,
    apply_move,
    apply_move_word,
    canonical_word,
    commute_pair,
    equivalent_within,
    inverse_move,
    replay_moves,
)

TRIVIAL = FrontDiagram.from_word("L1 R1")
ZIGZAG = FrontDiagram.from_word("L1 L1 R2 R1")
SAUCER = FrontDiagram.from_word("L1 L2 X1 R2 R1")


def invariant_fingerprint(d):
    inv = d.classical_invariants()
    n = d.component_count
    return (
        n,
        sorted(tb for tb, _ in inv),
        sorted(abs(rot) for _, rot in inv),
        sorted(
            abs(d.linking_number(i, j)) for i in range(n) for j in range(i + 1, n)
        ),
    )


def test_trivial_front_only_kink_insertions():
    moves = applicable_moves(TRIVIAL)
    assert all(m.direction is FORWARD for m in moves)
    assert {m.move_id for m in moves} == {MoveId.R1_KINK_ABOVE, MoveId.R1_KINK_BELOW}
    assert {m.site for m in moves} == {(1, 1), (1, 2)}


def test_kink_roundtrip_keeps_tb():
    m = MoveInstance(MoveId.R1_KINK_BELOW, (1, 1), FORWARD)
    kinked = apply_move(TRIVIAL, m)
    assert kinked.events == SAUCER.events
    assert kinked.thurston_bennequin() == -1
    assert apply_move_word(kinked.events, inverse_move(m)) == TRIVIAL.events


def test_saucer_contains_backward_kink():
    backs = [m for m in applicable_moves(SAUCER) if m.direction is BACKWARD]
    assert MoveInstance(MoveId.R1_KINK_BELOW, (1, 1), BACKWARD) in backs


def test_not_applicable():
    with pytest.raises(MoveNotApplicable):
        apply_move(TRIVIAL, MoveInstance(MoveId.R3_TRIPLE_POINT, (0, 1), FORWARD))
    with pytest.raises(MoveNotApplicable):
        apply_move(TRIVIAL, MoveInstance(MoveId.R1_KINK_BELOW, (0, 1), BACKWARD))
    with pytest.raises(MoveNotApplicable):
        apply_move(TRIVIAL, MoveInstance(MoveId.SLIDE, (0, 0), FORWARD))


def test_negative_sites_are_not_applicable():
    # slicing would alias these onto windows counted from the end of the word
    events = word("L1 L1 L2 X1 R2 R2 R1")
    for move_id in MoveId:
        for direction in MoveDirection:
            for i in range(-1, -len(events) - 1, -1):
                for p in range(-1, 6):
                    with pytest.raises(MoveNotApplicable):
                        apply_move_word(events, MoveInstance(move_id, (i, p), direction))


def rewrite(apply, events, move):
    try:
        return apply(events, move)
    except MoveNotApplicable:
        return None


def assert_moves_match_reference(events):
    diagram = FrontDiagram(events)
    assert applicable_moves(diagram) == helpers.reference_applicable_moves(diagram)
    for move_id in MoveId:
        for direction in MoveDirection:
            for i in range(len(events) + 1):
                for p in range(-1, diagram.max_strands + 3):
                    move = MoveInstance(move_id, (i, p), direction)
                    assert rewrite(apply_move_word, events, move) == rewrite(
                        helpers.reference_apply_move_word, events, move
                    )
                    assert inverse_move(move) == helpers.reference_inverse_move(move)


@given(helpers.front_words(max_events=10))
def test_pattern_table_matches_reference(events):
    assert_moves_match_reference(events)


def test_zigzag_moves_keep_invariants():
    for m in applicable_moves(ZIGZAG):
        out = apply_move(ZIGZAG, m)
        assert out.thurston_bennequin() == -2
        assert abs(out.rotation_number()) == 1


@given(helpers.front_diagrams(max_events=10))
def test_move_invariance(d):
    fingerprint = invariant_fingerprint(d)
    for m in applicable_moves(d)[:20]:
        assert invariant_fingerprint(apply_move(d, m)) == fingerprint


def test_move_invariance_bulk():
    rng = random.Random(11)
    for _ in range(300):
        d = helpers.random_diagram(rng, max_events=10)
        moves = applicable_moves(d)
        if not moves:
            continue
        m = rng.choice(moves)
        assert invariant_fingerprint(apply_move(d, m)) == invariant_fingerprint(d)


@given(helpers.front_diagrams(max_events=10))
def test_move_reversibility(d):
    for m in applicable_moves(d)[:20]:
        forward = apply_move_word(d.events, m)
        assert apply_move_word(forward, inverse_move(m)) == d.events


@given(helpers.front_words(max_events=10))
def test_commute_involution(events):
    for i in range(len(events) - 1):
        swapped = commute_pair(events[i], events[i + 1])
        if swapped is None:
            continue
        back = commute_pair(*swapped)
        assert back == (events[i], events[i + 1])


def test_commute_pair_matches_the_case_by_case_reference():
    pairs = [
        (FrontEvent(k1, p), FrontEvent(k2, q))
        for k1, k2 in itertools.product(EventKind, repeat=2)
        for p, q in itertools.product(range(1, 17), repeat=2)
    ]
    assert len(pairs) == 2304
    for e1, e2 in pairs:
        assert commute_pair(e1, e2) == helpers.reference_commute_pair(e1, e2), (e1, e2)


def test_slides_keep_every_strand_history():
    """Both orders of a slid pair act alike on labelled strands.

    Every pair of events valid after at most six strands is run both ways:
    a slide leaves the same final stack and has each crossing and each merge
    act on the same strands.  Of the pairs ``commute_pair`` refuses, only
    ``(L p, R p+2)`` has an order-swapped form that does the same, the
    ``(R p, L p)`` its docstring keeps for ``(L p+2, R p)``.
    """
    run = helpers.run_on_labelled_strands
    slid = refused = 0
    for n in range(7):
        positions = range(1, n + 4)
        for k1, k2 in itertools.product(EventKind, repeat=2):
            for p, q in itertools.product(positions, repeat=2):
                e1, e2 = FrontEvent(k1, p), FrontEvent(k2, q)
                done = run(((e1, "first"), (e2, "second")), n)
                if done is None:
                    continue
                swapped = commute_pair(e1, e2)
                if swapped is not None:
                    assert run(((swapped[0], "second"), (swapped[1], "first")), n) == done
                    slid += 1
                    continue
                alike = [
                    (a, b)
                    for a, b in itertools.product(positions, repeat=2)
                    if run(((FrontEvent(k2, a), "second"), (FrontEvent(k1, b), "first")), n)
                    == done
                ]
                birth_above_merge = (k1.value, k2.value, q) == ("L", "R", p + 2)
                assert alike == ([(p, p)] if birth_above_merge else []), (e1, e2)
                refused += 1
    assert slid and refused


@given(helpers.front_words(max_events=10))
def test_canonical_word_is_slide_invariant(events):
    key = canonical_word(events)
    for i in range(len(events) - 1):
        swapped = commute_pair(events[i], events[i + 1])
        if swapped is not None:
            slid = events[:i] + swapped + events[i + 2 :]
            assert canonical_word(slid) == key


def test_equivalence_triple():
    # three different-looking fronts of the once-stabilized unknot
    z2 = apply_move(
        ZIGZAG, MoveInstance(MoveId.R2_LEFT_CUSP_STRAND_BELOW, (1, 1), FORWARD)
    )
    z3 = apply_move(ZIGZAG, MoveInstance(MoveId.R1_KINK_BELOW, (2, 1), FORWARD))
    assert z2.events != z3.events != ZIGZAG.events
    for a, b in [(ZIGZAG, z2), (ZIGZAG, z3), (z2, z3), (z2, ZIGZAG)]:
        witness = equivalent_within(a, b, depth=4)
        assert witness is not None
        assert replay_moves(a.events, witness) == b.events


def test_equivalence_identity():
    assert equivalent_within(ZIGZAG, ZIGZAG, depth=1) == []


def test_equivalence_slide_only():
    a = FrontDiagram.from_word("L1 L3 R3 R1")
    slid = apply_move_word(a.events, MoveInstance(MoveId.SLIDE, (0, 0), FORWARD))
    b = FrontDiagram(slid)
    witness = equivalent_within(a, b, depth=1)
    assert witness is not None
    assert all(m.move_id is MoveId.SLIDE for m in witness)
    assert replay_moves(a.events, witness) == b.events


def test_equivalence_invariant_shortcircuit():
    assert equivalent_within(TRIVIAL, ZIGZAG, depth=8) is None


def test_equivalence_depth_exhaustion():
    z2 = apply_move(
        ZIGZAG, MoveInstance(MoveId.R2_LEFT_CUSP_STRAND_BELOW, (1, 1), FORWARD)
    )
    assert equivalent_within(ZIGZAG, z2, depth=0) is None


def test_equivalence_logs_outcome(caplog):
    z2 = apply_move(
        ZIGZAG, MoveInstance(MoveId.R2_LEFT_CUSP_STRAND_BELOW, (1, 1), FORWARD)
    )
    calls = [
        ((TRIVIAL, ZIGZAG, 2), {}, "invariants differ; nodes 0 + 0; depth 0 + 0; 0 keys"),
        ((ZIGZAG, z2, 0), {}, "depth exhausted; nodes 1 + 1; depth 0 + 0; 2 keys"),
        ((ZIGZAG, z2, 4), {"node_cap": 3}, "node cap; nodes 2 + 1; depth 1 + 0; 3 keys"),
        ((ZIGZAG, z2, 2), {}, "found; nodes "),
    ]
    for args, kwargs, message in calls:
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="lagsurf.moves"):
            equivalent_within(*args, **kwargs)
        (record,) = caplog.records
        text = record.getMessage()
        assert text.startswith(f"equivalent_within: {message}")
        assert re.search(r" keys; \d+ slides$", text)
    # a search of depth 0 keys only its two roots
    slides = sum(_trace(_encode(d.events))[2] for d in (ZIGZAG, z2))
    assert slides > 0
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="lagsurf.moves"):
        equivalent_within(ZIGZAG, z2, 0)
    assert caplog.records[0].getMessage().endswith(f"; 2 keys; {slides} slides")


# -- slide classes as traces ---------------------------------------------------

# The capped reference closure of these words stops at REFERENCE_CAP words,
# and the least word it keeps differs between the two, one slide apart.
REFERENCE_CAP = 2048
CAPPED = word("L1 R1 L1 R1 L1 R1 L1 L1 X2 L4 R4 R2 R1")
CAPPED_SLID = CAPPED[:6] + commute_pair(CAPPED[6], CAPPED[7]) + CAPPED[8:]


def seeded_words(seed: int = 5) -> list[tuple]:
    """One random closed word of each length from 4 to 13 events."""
    rng = random.Random(seed)
    by_length: dict[int, tuple] = {}
    while len(by_length) < 10:
        events = helpers.random_word(rng, max_events=13, max_strands=8)
        if 4 <= len(events) <= 13:
            by_length.setdefault(len(events), events)
    return [by_length[n] for n in sorted(by_length)]


@pytest.mark.parametrize("events", seeded_words())
def test_pattern_table_matches_reference_on_seeded_words(events):
    assert_moves_match_reference(events)


def outcome(apply, diagram, move):
    """The diagram ``apply`` makes, or the type of what it raises."""
    try:
        return apply(diagram, move)
    except Exception as exc:
        return type(exc)


def assert_same_as_rebuilt(diagram):
    """A diagram sharing a structure reads as one built afresh from its word."""
    fresh = FrontDiagram(diagram.events, diagram.orientations)
    assert diagram == fresh
    assert diagram.classical_invariants() == fresh.classical_invariants()
    assert diagram.linking_matrix() == fresh.linking_matrix()
    assert diagram.cusps() == fresh.cusps()
    assert diagram.crossings() == fresh.crossings()


def assert_apply_matches_reference(diagram):
    n = len(diagram.events)
    # every move at a few fixed sites, where most of them cannot apply
    probes = [
        MoveInstance(move_id, site, direction)
        for move_id in MoveId
        for direction in MoveDirection
        for site in ((0, 1), (n // 2, 2), (n, 0), (-1, 1))
    ]
    for move in applicable_moves(diagram) + probes:
        result = outcome(apply_move, diagram, move)
        assert result == outcome(helpers.reference_apply_move, diagram, move)
        if isinstance(result, FrontDiagram):
            assert_same_as_rebuilt(result)
    signs = tuple(-o for o in diagram.orientations)
    assert_same_as_rebuilt(diagram.with_orientations(signs))
    assert_same_as_rebuilt(diagram.reverse())


@pytest.mark.parametrize("events", seeded_words())
def test_apply_move_matches_reference(events):
    base = FrontDiagram(events)
    signs = random.Random(len(events)).choices((1, -1), k=base.component_count)
    assert_apply_matches_reference(base.with_orientations(signs))


@given(helpers.front_diagrams(max_events=10))
def test_apply_move_matches_reference_on_random_diagrams(diagram):
    assert_apply_matches_reference(diagram)


def test_shared_structure_keeps_sign_checks():
    for signs in ((1, 1), (2,), ()):
        with pytest.raises(ValueError):
            SAUCER.with_orientations(signs)


@given(helpers.front_words(max_events=10), helpers.front_words(max_events=10))
def test_event_codes_keep_order(a, b):
    assert _decode(_encode(a)) == a
    assert (_encode(a) < _encode(b)) == (a < b)
    assert (_encode(a) == _encode(b)) == (a == b)


@pytest.mark.parametrize("events", seeded_words() + [CAPPED, CAPPED_SLID])
def test_slide_closure_matches_reference(events):
    reference = helpers.reference_slide_closure(events, REFERENCE_CAP)
    key = canonical_word(events)
    if len(reference) < REFERENCE_CAP:
        assert key == min(reference)
        return
    # a truncated reference holds the class only in part; CAPPED and
    # CAPPED_SLID are each other's slide at index 6
    assert key <= min(reference)
    for i in range(len(events) - 1):
        swapped = commute_pair(events[i], events[i + 1])
        if swapped is not None:
            assert canonical_word(events[:i] + swapped + events[i + 2 :]) == key


@pytest.mark.parametrize(
    "events", seeded_words() + [word("L1 R1 " * k) for k in range(1, 11)]
)
def test_trace_key_matches_reference(events):
    codes = _encode(events)
    assert _trace(codes)[:2] == helpers.reference_trace_key(codes)


@given(helpers.front_words(max_events=12))
def test_trace_key_matches_reference_on_random_words(events):
    codes = _encode(events)
    assert _trace(codes)[:2] == helpers.reference_trace_key(codes)


def test_key_of_wide_class():
    # ten unknots side by side: every birth can come before every death
    assert canonical_word(word("L1 R1 " * 10)) == word("L1 " * 10 + "R1 " * 10)
    three = word("L1 R1 " * 3)
    assert canonical_word(three) == min(helpers.reference_slide_closure(three))


# Classes holding the two triple-point windows, which no short seeded word
# has: X1 X2 X1 once R3 slides past X1, and X2 X1 X2 as written.
TRIPLE_POINT_WORDS = [word("L1 L3 X1 X2 R3 X1 R1"), word("L1 L3 X2 X1 X2 R1 R1")]


@pytest.mark.parametrize(
    "events", [w for w in seeded_words() if len(w) <= 8] + TRIPLE_POINT_WORDS
)
def test_ideal_expansion_matches_full_expansion(events):
    expected = helpers.reference_child_producers(events)
    found: dict = {}
    for concrete, move in _expansion(_encode(events)):
        child = apply_move_word(_decode(concrete), move)
        found.setdefault(canonical_word(child), (_decode(concrete), move))
    assert found == expected


def test_ideal_words_are_trace_keys():
    # {L1, L3} is reached first as L1 L3, but L3 slides before L1 as L1 L1
    assert _ideals(_encode(word("L1 L3 R2 R1")))[0b11][0] == _encode(word("L1 L1"))
    rng = random.Random(36)
    words = [helpers.random_diagram(rng).events for _ in range(200)]
    words += [parse_front(path.read_text()).events for path in CORPUS.glob("*.front")]
    for events in words:
        for prefix, _ in _ideals(_encode(events)).values():
            assert prefix == _trace(prefix)[0]


def test_expansion_needs_no_trace(monkeypatch):
    words = seeded_words() + TRIPLE_POINT_WORDS
    expected = [_expansion(_encode(events)) for events in words]

    def no_trace(codes):
        raise AssertionError("_expansion keyed a word")

    monkeypatch.setattr(lagsurf.moves, "_trace", no_trace)
    assert [_expansion(_encode(events)) for events in words] == expected


@pytest.mark.parametrize("events", seeded_words())
def test_slide_path_matches_reference(events):
    reference = helpers.reference_slide_closure(events, REFERENCE_CAP)
    for goal in random.Random(len(events)).sample(sorted(reference), min(4, len(reference))):
        path = _slide_path(_encode(events), _encode(goal))
        assert replay_moves(events, path) == goal
        if len(reference) < REFERENCE_CAP:
            assert [m.site[0] for m in path] == helpers.reference_slide_path(events, goal)


def test_slide_path_crosses_capped_class():
    path = _slide_path(_encode(CAPPED), _encode(CAPPED_SLID))
    assert replay_moves(CAPPED, path) == CAPPED_SLID
    assert len(path) == 1
    path = _slide_path(_encode(CAPPED), _encode(canonical_word(CAPPED)))
    assert replay_moves(CAPPED, path) == canonical_word(CAPPED)


def test_slide_path_rejects_other_classes():
    with pytest.raises(FrontError):
        _slide_path(_encode(word("L1 L1 R2 R1")), _encode(word("L1 L3 R3 R1")))


def test_align_facing_cusps_needs_no_cap():
    # a breadth-first slide search gave up on this pair after 4096 states
    events = word("L1 L2 L1 R2 L1 R5 L2 L3 R1 R2 R1 R1")
    aligned, j = align_facing_cusps(events, 10, 0)
    assert aligned == word("L1 L2 L3 R4 R3 L3 L4 L3 R4 R5 R1 R1")
    assert j == 4
    assert canonical_word(aligned) == canonical_word(events)
    # 26 slides apart, as helpers.reference_slide_path finds in a few seconds
    assert len(_slide_path(_encode(events), _encode(aligned))) == 26


# Depth-2 ladder witnesses, pinned move for move: neither coding the words nor
# expanding each class once per ideal may change which witness is found.
PINNED_WITNESSES = [
    ("L1 L1 R2 R1", "L1 L2 X1 X2 R2 R1", ["r2_left_cusp_strand_below@1:1:forward"]),
    ("L1 L1 R2 R1", "L1 L1 L2 X1 R2 R2 R1", ["r1_kink_below@2:1:forward"]),
    (
        "L1 L2 X1 X2 R2 R1",
        "L1 L1 L2 X1 R2 R2 R1",
        [
            "r1_kink_below@3:1:forward",
            "slide@5:0:forward",
            "slide@4:0:forward",
            "slide@3:0:forward",
            "slide@6:0:forward",
            "slide@5:0:forward",
            "r2_left_cusp_strand_below@1:1:backward",
            "slide@3:0:forward",
            "slide@4:0:forward",
        ],
    ),
]


@pytest.mark.parametrize("first, second, expected", PINNED_WITNESSES)
def test_ladder_witnesses_are_pinned(first, second, expected):
    f, g = FrontDiagram.from_word(first), FrontDiagram.from_word(second)
    witness = equivalent_within(f, g, depth=2)
    assert [str(m) for m in witness] == expected


def test_witness_replay_failure_raises(monkeypatch):
    a = FrontDiagram.from_word("L1 L3 R3 R1")
    b = FrontDiagram(apply_move_word(a.events, MoveInstance(MoveId.SLIDE, (0, 0), FORWARD)))
    monkeypatch.setattr(lagsurf.moves, "_slide_path", lambda *args: [])
    with pytest.raises(WitnessReplayError):
        equivalent_within(a, b, depth=1)


# Corpus pairs with equal invariant keys, each joined at depth 4.  The
# three-sum-core pairs with zigzag need 14 moves and take over a second each,
# so they are left to the benchmark's slow cases.
CORPUS = pathlib.Path(__file__).parent.parent / "corpus"
SLOW_CORPUS_PAIRS = {("three-sum-core", "zigzag"), ("three-sum-core-down", "zigzag")}


def corpus_pairs() -> list[tuple[str, str]]:
    diagrams = {
        path.stem: parse_front(path.read_text()).to_diagram()
        for path in CORPUS.glob("*.front")
    }
    return [
        (first, second)
        for first, second in itertools.combinations(sorted(diagrams), 2)
        if _invariant_key(diagrams[first]) == _invariant_key(diagrams[second])
    ]


def test_corpus_pairs_are_counted():
    assert len(corpus_pairs()) == 15
    assert SLOW_CORPUS_PAIRS <= set(corpus_pairs())


@pytest.mark.parametrize(
    "first, second", [pair for pair in corpus_pairs() if pair not in SLOW_CORPUS_PAIRS]
)
def test_corpus_pair_has_depth_four_witness(first, second):
    f, g = (
        parse_front((CORPUS / f"{name}.front").read_text()).to_diagram()
        for name in (first, second)
    )
    witness = equivalent_within(f, g, depth=4)
    assert witness is not None
    assert replay_moves(f.events, witness) == g.events
