import itertools
import pathlib
import random

import pytest
from hypothesis import given

import helpers
from lagsurf.fronts import (
    BY_LETTER,
    FOOTPRINT,
    KINDS,
    MIRROR,
    EventKind,
    FrontDiagram,
    FrontEvent,
    MultiComponentInput,
    NegativeStrandCount,
    NonClosedFront,
    OddCrossingSum,
    PositionOutOfRange,
    front_connected_sum,
    word,
)
from lagsurf.dsl import parse_front

CORPUS = pathlib.Path(__file__).parent.parent / "corpus"

# Hand-traced words with frozen invariants: (word, components, [(tb, rot)], writhe)
KNOT_TABLE = [
    ("L1 R1", [(-1, 0)], 0),
    ("L1 L1 R2 R1", [(-2, -1)], 0),
    ("L1 L2 R1 R1", [(-2, 1)], 0),
    ("L1 L2 X1 R2 R1", [(-1, 0)], 1),
    ("L1 X1 R1", [(-2, -1)], -1),
    ("L1 L2 X2 R1 R1", [(-3, 0)], -1),
    ("L1 L2 R1 L1 R2 R1", [(-3, 0)], 0),
    ("L1 L2 R3 L3 X1 R2 R1", [(-4, 1)], -1),
    ("L1 L2 X1 X3 R1 L1 R2 R1", [(-5, 0)], -2),
]

LINK_TABLE = [
    ("L1 L2 R2 R1", [(-1, 0), (-1, 0)], 0),
    ("L1 R1 L1 R1", [(-1, 0), (-1, 0)], 0),
    ("L1 L2 X1 X3 R2 R1", [(-1, 0), (-1, 0)], 1),
]


@pytest.mark.parametrize("text,invariants,writhe", KNOT_TABLE)
def test_knot_table(text, invariants, writhe):
    d = FrontDiagram.from_word(text)
    assert d.component_count == 1
    assert d.classical_invariants() == tuple(invariants)
    assert d.thurston_bennequin() == invariants[0][0]
    assert d.rotation_number() == invariants[0][1]
    assert d.writhe() == writhe


@pytest.mark.parametrize("text,invariants,lk", LINK_TABLE)
def test_link_table(text, invariants, lk):
    d = FrontDiagram.from_word(text)
    assert d.component_count == 2
    assert d.classical_invariants() == tuple(invariants)
    assert d.linking_number(0, 1) == lk
    assert d.linking_matrix() == ((0, lk), (lk, 0))


def test_odd_inter_component_crossing_sum_raises(monkeypatch):
    d = FrontDiagram.from_word("L1 L2 X1 X3 R2 R1")
    # drop one of the two crossings between the components from the structure
    monkeypatch.setattr(d._structure, "crossings", d._structure.crossings[:-1])
    with pytest.raises(OddCrossingSum):
        d.linking_number(0, 1)
    with pytest.raises(OddCrossingSum):
        d.linking_matrix()


@pytest.mark.parametrize(
    "text,i,j",
    [
        ("L1 R1", 0, 7),
        ("L1 R1", -1, 3),
        ("L1 L2 X1 X3 R2 R1", 0, 2),
        ("L1 L2 X1 X3 R2 R1", 2, 1),
        ("L1 L2 X1 X3 R2 R1", -1, 1),
        ("L1 L2 X1 X3 R2 R1", 1, -1),
        ("L1 L2 X1 X3 R2 R1", -2, 0),
    ],
)
def test_linking_number_rejects_missing_components(text, i, j):
    with pytest.raises(IndexError, match="no component"):
        FrontDiagram.from_word(text).linking_number(i, j)


def test_linking_number_needs_two_components():
    with pytest.raises(ValueError, match="two distinct components"):
        FrontDiagram.from_word("L1 L2 X1 X3 R2 R1").linking_number(0, 0)


def test_events_must_be_front_events():
    with pytest.raises(TypeError, match="not a FrontEvent"):
        FrontDiagram((("L", 1),))


def test_kind_tables_agree():
    # kinds hash as their letters, so set and dict orders follow the letters
    assert [(kind.value, hash(kind)) for kind in KINDS] == [(c, hash(c)) for c in "LRX"]
    assert all(BY_LETTER[kind.value] is kind for kind in EventKind)
    # a left-right flip exchanges the strands an event takes and leaves
    for kind in KINDS:
        assert MIRROR[MIRROR[kind]] is kind
        assert FOOTPRINT[MIRROR[kind]] == FOOTPRINT[kind][::-1]


def _every_orientation(d: FrontDiagram):
    """All orientation vectors of ``d`` up to 3 components, else ``d`` alone."""
    if d.component_count > 3:
        return [d]
    return [
        d.with_orientations(signs)
        for signs in itertools.product((1, -1), repeat=d.component_count)
    ]


def _assert_matches_reference(d: FrontDiagram) -> None:
    assert d.cusps() == helpers.reference_cusps(d)
    assert d.crossings() == helpers.reference_crossings(d)
    assert d.writhe() == helpers.reference_writhe(d)
    assert d.classical_invariants() == helpers.reference_classical_invariants(d)
    assert d.linking_matrix() == helpers.reference_linking_matrix(d)
    for i, j in itertools.permutations(range(d.component_count), 2):
        assert d.linking_number(i, j) == helpers.reference_linking_number(d, i, j)
    if d.component_count == 1:
        assert d.thurston_bennequin() == helpers.reference_thurston_bennequin(d)
        assert d.rotation_number() == helpers.reference_rotation_number(d)
    assert d.vertical_mirror() == helpers.reference_vertical_mirror(d)
    assert d.horizontal_mirror() == helpers.reference_horizontal_mirror(d)


@pytest.mark.parametrize("path", sorted(CORPUS.glob("*.front")), ids=lambda p: p.stem)
def test_invariants_and_mirrors_match_reference_on_corpus(path):
    for d in _every_orientation(parse_front(path.read_text()).to_diagram()):
        _assert_matches_reference(d)


def test_invariants_and_mirrors_match_reference_on_random_words():
    rng = random.Random(20161)
    for _ in range(300):
        for d in _every_orientation(helpers.random_diagram(rng, max_events=14)):
            _assert_matches_reference(d)


def test_connected_sum_matches_reference_on_random_knot_pairs():
    rng = random.Random(4652)
    for _ in range(200):
        f = helpers.random_knot(rng, max_events=10)
        g = helpers.random_knot(rng, max_events=10)
        assert front_connected_sum(f, g) == helpers.reference_front_connected_sum(f, g)


@pytest.mark.parametrize(
    "text,exc",
    [
        ("L1 R2", PositionOutOfRange),
        ("L2 R1", PositionOutOfRange),
        ("X1", PositionOutOfRange),
        ("L1 X2 R1", PositionOutOfRange),
        ("R1", NegativeStrandCount),
        ("L1 R1 R1", NegativeStrandCount),
        ("L1", NonClosedFront),
        ("L1 L1 R2", NonClosedFront),
    ],
)
def test_rejects_bad_words(text, exc):
    with pytest.raises(exc):
        FrontDiagram.from_word(text)


def test_empty_front():
    d = FrontDiagram(())
    assert d.component_count == 0
    assert d.classical_invariants() == ()
    assert d.writhe() == 0


def test_word_parser():
    assert word("L1, X2, R1") == (
        FrontEvent(EventKind.LEFT_CUSP, 1),
        FrontEvent(EventKind.CROSSING, 2),
        FrontEvent(EventKind.RIGHT_CUSP, 1),
    )
    with pytest.raises(ValueError):
        word("L1 Q2")
    with pytest.raises(ValueError):
        word("LL1")


def test_notation_roundtrip():
    d = FrontDiagram.from_word("L1 L2 X1 R2 R1")
    assert word(d.notation()) == d.events


def test_orientation_validation():
    d = FrontDiagram.from_word("L1 R1")
    with pytest.raises(ValueError):
        d.with_orientations((1, 1))
    with pytest.raises(ValueError):
        d.with_orientations((2,))


def test_multi_component_guard():
    d = FrontDiagram.from_word("L1 R1 L1 R1")
    with pytest.raises(MultiComponentInput):
        d.thurston_bennequin()
    with pytest.raises(MultiComponentInput):
        d.rotation_number()


def test_reverse_negates_rot():
    z = FrontDiagram.from_word("L1 L1 R2 R1")
    assert z.rotation_number() == -1
    assert z.reverse().rotation_number() == 1
    assert z.reverse().thurston_bennequin() == -2
    assert (str(z), str(z.reverse())) == ("L1 L1 R2 R1", "L1 L1 R2 R1  [-]")


def test_mirror_words():
    z = FrontDiagram.from_word("L1 L1 R2 R1")
    vm = z.vertical_mirror()
    assert vm.notation() == "L1 L3 R2 R1"
    assert vm.thurston_bennequin() == -2
    assert vm.rotation_number() == 1
    hm = z.horizontal_mirror()
    assert hm.notation() == "L1 L2 R1 R1"
    assert hm.thurston_bennequin() == -2
    assert hm.rotation_number() == -1


def test_delete_component():
    hopf = FrontDiagram.from_word("L1 L2 X1 X3 R2 R1")
    for index in (0, 1):
        rest = hopf.delete_component(index)
        assert rest.component_count == 1
        assert rest.classical_invariants() == ((-1, 0),)
    nested = FrontDiagram.from_word("L1 L2 R2 R1")
    assert nested.delete_component(0).notation() == "L1 R1"
    assert nested.delete_component(1).notation() == "L1 R1"
    with pytest.raises(IndexError):
        nested.delete_component(2)


def test_connected_sum_examples():
    triv = FrontDiagram.from_word("L1 R1")
    z = FrontDiagram.from_word("L1 L1 R2 R1")
    s = front_connected_sum(triv, z)
    assert s.notation() == "L1 L1 R2 R1"
    assert (s.thurston_bennequin(), s.rotation_number()) == (-2, -1)
    s = front_connected_sum(z, z.reverse())
    assert (s.thurston_bennequin(), s.rotation_number()) == (-3, 0)
    with pytest.raises(MultiComponentInput):
        front_connected_sum(triv, FrontDiagram.from_word("L1 R1 L1 R1"))


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------


@given(helpers.front_diagrams())
def test_tb_rot_parity(d):
    for tb, rot in d.classical_invariants():
        assert (tb + rot) % 2 == 1


@given(helpers.front_diagrams())
def test_reverse_relation(d):
    r = d.reverse()
    assert [(tb, -rot) for tb, rot in d.classical_invariants()] == list(
        r.classical_invariants()
    )
    assert d.linking_matrix() == r.linking_matrix()


@given(helpers.front_diagrams())
def test_vertical_mirror_relation(d):
    m = d.vertical_mirror()
    assert m.vertical_mirror() == d
    assert sorted((tb, -rot) for tb, rot in d.classical_invariants()) == sorted(
        m.classical_invariants()
    )


@given(helpers.front_diagrams())
def test_horizontal_mirror_relation(d):
    m = d.horizontal_mirror()
    assert m.horizontal_mirror() == d
    assert sorted(d.classical_invariants()) == sorted(m.classical_invariants())


@given(helpers.front_diagrams())
def test_even_interleavings(d):
    n = d.component_count
    counts = [[0] * n for _ in range(n)]
    for c in d.crossings():
        i, j = d.component_of(c.over), d.component_of(c.under)
        counts[i][j] += 1
        counts[j][i] += 1
    for i in range(n):
        for j in range(i + 1, n):
            assert counts[i][j] % 2 == 0


@given(helpers.front_diagrams(max_events=10))
def test_delete_component_keeps_rest(d):
    for index in range(d.component_count):
        kept = [
            inv for c, inv in enumerate(d.classical_invariants()) if c != index
        ]
        rest = d.delete_component(index)
        assert list(rest.classical_invariants()) == kept


def test_connected_sum_direction_flip_factors():
    # the kinked unknot's two cusps are traversed in opposite directions and
    # rot != 0, so some orientation pairings need the adaptor splice
    kink = FrontDiagram.from_word("L1 X1 R1")
    assert kink.classical_invariants() == ((-2, -1),)
    for a in (kink, kink.reverse()):
        for b in (kink, kink.reverse()):
            s = front_connected_sum(a, b)
            assert s.component_count == 1
            assert s.thurston_bennequin() == -3
            assert s.rotation_number() == a.rotation_number() + b.rotation_number()


@given(helpers.knot_diagrams(max_events=8), helpers.knot_diagrams(max_events=8))
def test_connected_sum_additivity(f, g):
    s = front_connected_sum(f, g)
    assert s.component_count == 1
    assert s.thurston_bennequin() == f.thurston_bennequin() + g.thurston_bennequin() + 1
    assert s.rotation_number() == f.rotation_number() + g.rotation_number()


def test_connected_sum_random_orientations():
    rng = random.Random(20260817)
    for _ in range(150):
        f = helpers.random_knot(rng, max_events=10)
        g = helpers.random_knot(rng, max_events=10)
        s = front_connected_sum(f, g)
        assert s.thurston_bennequin() == (
            f.thurston_bennequin() + g.thurston_bennequin() + 1
        )
        assert s.rotation_number() == f.rotation_number() + g.rotation_number()
