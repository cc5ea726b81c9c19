"""Integer oracles on sphere curves, anchored by the circle-fibre pair."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    reference_choose_pole,
    reference_contact_framing,
    reference_crossing_scale,
    reference_gauss_linking,
    reference_planar_crossings,
    reference_require_embedded,
    reference_sphere_linking_number,
    reference_tiled_gauss_linking,
)
from lagsurf.fronts import FrontDiagram
from lagsurf.immersions import boundary_curve, cone_family, pullback_residual
from lagsurf.linking import (
    _VIEW_SEEDS,
    DegenerateProjection,
    SelfIntersectingSamples,
    TangentDegenerate,
    _choose_pole,
    _convex_hull,
    _crossing_scale,
    _near_pairs,
    _overlapping_boxes,
    _planar_crossings,
    _require_embedded,
    _view_rotation,
    contact_framing,
    gauss_linking,
    linking_number,
    reeb_pushoff,
    stereographic,
    tangent_winding,
)

N = 512
S = np.linspace(0.0, 2 * math.pi, N, endpoint=False)


def pack(z1, z2):
    return np.stack([np.real(z1), np.imag(z1), np.real(z2), np.imag(z2)], axis=-1)


def fiber(z1, z2):
    """Orbit of the circle action through the given sphere point."""
    phase = np.exp(1j * S)
    return pack(phase * z1, phase * z2)


def flat_circle():
    return pack(np.cos(S) + 0j, np.sin(S) + 0j)


def test_fibres_link_plus_one():
    assert linking_number(fiber(1.0, 0.0), fiber(0.0, 1.0)) == 1


def test_oblique_fibres_link_plus_one():
    r = 1 / math.sqrt(2)
    assert linking_number(fiber(r, r), fiber(r, -r)) == 1
    assert linking_number(fiber(0.6, 0.8j), fiber(1.0, 0.0)) == 1


def test_gauss_route_agrees_on_the_anchor():
    value = gauss_linking(fiber(1.0, 0.0), fiber(0.0, 1.0))
    assert value == pytest.approx(1.0, abs=0.05)


def test_flat_circle_framing():
    assert contact_framing(flat_circle()) == -1


def test_boundary_curve_framing():
    assert contact_framing(boundary_curve(S)) == -2


def test_framing_stable_under_epsilon_halving():
    for curve, expected in [(flat_circle(), -1), (boundary_curve(S), -2)]:
        assert contact_framing(curve, epsilon=1e-2) == expected
        assert contact_framing(curve, epsilon=5e-3) == expected


def test_framing_stable_under_refinement():
    fine = np.linspace(0.0, 2 * math.pi, 2 * N, endpoint=False)
    assert contact_framing(boundary_curve(fine)) == -2
    assert contact_framing(pack(np.cos(fine) + 0j, np.sin(fine) + 0j)) == -1


def test_gauss_route_agrees_on_the_pushoff_pair():
    # the curve stays disjoint from its circle-action push-off up to angle
    # 2*pi/3, so a wide separation keeps the framing while giving the
    # midpoint-rule integral room to converge
    curve = boundary_curve(S)
    pushed = reeb_pushoff(curve, 0.3)
    assert linking_number(curve, pushed) == -2
    assert gauss_linking(curve, pushed) == pytest.approx(-2.0, abs=0.05)


def test_tangent_winding_values():
    assert tangent_winding(flat_circle()) == 0
    assert tangent_winding(boundary_curve(S)) == 1
    assert tangent_winding(boundary_curve(S)[::-1].copy()) == -1


def test_winding_stable_under_refinement():
    fine = np.linspace(0.0, 2 * math.pi, 2 * N, endpoint=False)
    assert tangent_winding(boundary_curve(fine)) == 1


def test_oracles_agree_with_diagram_formulas():
    """Three matched pairs: sphere curve vs front with the same invariants."""
    trivial_front = FrontDiagram.from_word("L1 R1")
    kink = FrontDiagram.from_word("L1 X1 R1")
    pairs = [
        (flat_circle(), trivial_front),
        (boundary_curve(S)[::-1].copy(), kink),
        (boundary_curve(S), kink.reverse()),
    ]
    for curve, front in pairs:
        assert contact_framing(curve) == front.thurston_bennequin()
        assert tangent_winding(curve) == front.rotation_number()


def test_doubly_covered_circle_is_rejected():
    doubled = np.linspace(0.0, 4 * math.pi, N, endpoint=False)
    curve = pack(np.cos(doubled) + 0j, np.sin(doubled) + 0j)
    with pytest.raises(SelfIntersectingSamples):
        contact_framing(curve)
    with pytest.raises(SelfIntersectingSamples):
        reference_require_embedded(curve)


def test_too_few_samples_rejected():
    with pytest.raises(SelfIntersectingSamples):
        contact_framing(flat_circle()[:4])


def test_height_tie_is_degenerate():
    square = np.array(
        [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 1.0, 0.0]]
    )
    with pytest.raises(DegenerateProjection):
        _planar_crossings(square, square + [0.5, 0.5, 0.0])
    assert_same_crossings(square, square + [0.5, 0.5, 0.0])


def test_stalled_samples_degenerate_the_tangent():
    curve = flat_circle()
    curve[10] = curve[8]
    with pytest.raises(TangentDegenerate):
        tangent_winding(curve)


@settings(max_examples=20)
@given(st.floats(min_value=0.0, max_value=2 * math.pi))
def test_framing_invariant_under_the_circle_action(theta):
    curve = reeb_pushoff(flat_circle(), theta)
    assert contact_framing(curve) == -1
    assert tangent_winding(curve) == 0


# -- the bounded-memory kernels against the dense references ---------------


def outcome(kernel, *args):
    """The kernel's value, or the type of the exception it raised."""
    try:
        return kernel(*args)
    except (DegenerateProjection, SelfIntersectingSamples) as err:
        return type(err)


def assert_same_crossings(a3, b3):
    assert outcome(_planar_crossings, a3, b3) == outcome(reference_planar_crossings, a3, b3)


def assert_kernels_agree(first, second):
    """Embeddedness, the pole, every view's crossing sum, the linking and
    framing integers, and the Gauss sum agree."""
    for curve in (first, second):
        assert outcome(_require_embedded, curve) == outcome(reference_require_embedded, curve)
    pole = _choose_pole((first, second))
    assert np.array_equal(pole, reference_choose_pole((first, second)))
    a3, b3 = stereographic(first, pole), stereographic(second, pole)
    for angle in _VIEW_SEEDS:
        view = _view_rotation(angle)
        assert_same_crossings(a3 @ view.T, b3 @ view.T)
    expected = outcome(reference_sphere_linking_number, first, second)
    assert outcome(linking_number, first, second) == expected
    assert outcome(contact_framing, first) == outcome(reference_contact_framing, first)
    assert_same_gauss(first, second)


def assert_same_gauss(first, second):
    """Near the dense sum, and bit for bit the sum in three fresh arrays per tile."""
    found = gauss_linking(first, second)
    expected = reference_gauss_linking(first, second)
    assert found == pytest.approx(expected, rel=1e-12, abs=1e-12)
    assert found == reference_tiled_gauss_linking(first, second)


def sample_pairs(n):
    s = np.linspace(0.0, 2 * math.pi, n, endpoint=False)
    r = 1 / math.sqrt(2)
    a, b = np.exp(1j * s), np.exp(1j * (s + 0.3 / n))
    boundary = boundary_curve(s)
    flat = pack(np.cos(s) + 0j, np.sin(s) + 0j)
    return {
        "boundary": (boundary, reeb_pushoff(boundary, 1e-2)),
        "flat": (flat, reeb_pushoff(flat, 1e-2)),
        "hopf": (pack(r * a, r * a), pack(r * b, -r * b)),
    }


@pytest.mark.parametrize("n", [64, 256, 1024])
@pytest.mark.parametrize("name", ["boundary", "flat", "hopf"])
def test_kernels_agree_with_dense_references(n, name):
    assert_kernels_agree(*sample_pairs(n)[name])


def test_pole_matches_the_stacked_scan_on_random_curves():
    rng = np.random.default_rng(19)
    for trial in range(200):
        lengths = rng.integers(1, 5000 if trial % 50 == 0 else 300, 1 + trial % 3)
        curves = tuple(rng.standard_normal((int(n), 4)) for n in lengths)
        curves = tuple(c / np.linalg.norm(c, axis=1, keepdims=True) for c in curves)
        assert np.array_equal(_choose_pole(curves), reference_choose_pole(curves))


def test_gauss_agrees_on_partial_tiles_and_unequal_lengths():
    # 1000 columns make tiles of 65 rows with a 25-row tail
    for name in ("boundary", "flat", "hopf"):
        assert_same_gauss(*sample_pairs(1000)[name])
    short, long = sample_pairs(700)["hopf"][0], sample_pairs(1000)["hopf"][1]
    assert_same_gauss(short, long)
    assert_same_gauss(long, short)


def test_gauss_linking_rejects_meeting_curves():
    curve = flat_circle()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SelfIntersectingSamples):
            gauss_linking(curve, curve)
        with pytest.raises(SelfIntersectingSamples):
            gauss_linking(curve, curve[::-1].copy())


@pytest.mark.parametrize("factor", [1 - 1e-9, 1 + 1e-9])
def test_embeddedness_near_the_threshold_agrees(factor):
    """A non-adjacent pair just inside or outside half the largest step."""
    rng = np.random.default_rng(11)
    curve = flat_circle()
    threshold = 0.5 * float(np.max(np.linalg.norm(np.roll(curve, -1, axis=0) - curve, axis=1)))
    for _ in range(10):
        direction = rng.standard_normal(4)
        moved = curve.copy()
        moved[N // 2] = [0.3, 0.2, 0.1, 0.05]
        moved[N // 3] = moved[N // 2] + threshold * factor * direction / np.linalg.norm(direction)
        assert outcome(_require_embedded, moved) == outcome(reference_require_embedded, moved)


@pytest.mark.parametrize("n", [64, 200_000])
@pytest.mark.parametrize("factor", [1 - 1e-9, 1 + 1e-9])
def test_lifted_double_cover_near_the_threshold(n, factor):
    """A circle traced twice, the second time at height h.

    Samples k and k + n/2 are h apart, and the largest step, from one cover
    to the other, is 2 h / factor, so h is ``factor`` times the threshold.
    At n = 200,000 the grid is at its cap of cells per axis, so the cells
    are wider than the threshold.
    """
    s = np.linspace(0.0, 2 * math.pi, n // 2, endpoint=False)
    cover = np.stack([np.cos(s), np.sin(s), 0 * s, 0 * s], axis=-1)
    chord = float(np.linalg.norm(cover[0] - cover[-1]))
    height = factor * chord / math.sqrt(4 - factor**2)
    curve = np.concatenate([cover, cover + [0.0, 0.0, height, 0.0]])
    expected = SelfIntersectingSamples if factor < 1 else None
    assert outcome(_require_embedded, curve) == expected
    if n <= 64:
        assert outcome(reference_require_embedded, curve) == expected


@settings(max_examples=25)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from([24, 64, 100]),
    st.floats(min_value=0.0, max_value=0.3),
    st.sampled_from(["boundary", "flat", "hopf"]),
)
def test_kernels_agree_on_perturbed_curves(seed, n, amplitude, name):
    rng = np.random.default_rng(seed)

    def perturb(curve):
        moved = curve + amplitude * rng.standard_normal(curve.shape) / math.sqrt(n)
        return moved / np.linalg.norm(moved, axis=1, keepdims=True)

    first, second = sample_pairs(n)[name]
    first = perturb(first)
    second = perturb(second) if name == "hopf" else reeb_pushoff(first, 1e-2)
    assert_kernels_agree(first, second)


def test_endpoint_graze_agrees():
    square = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 1.0, 0.0]])
    # the first edge of the slanted loop runs through the square's corner (1, 0)
    slanted = np.array([[0.0, -1.0, 1.0], [2.0, 1.0, 1.0], [2.0, -1.0, 1.0]])
    with pytest.raises(DegenerateProjection):
        _planar_crossings(square, slanted)
    assert_same_crossings(square, slanted)


def test_parallel_overlap_agrees():
    square = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 1.0, 0.0]])
    # bottom and top edges lie along the square's own, half overlapping
    assert_same_crossings(square, square + [0.5, 0.0, 1.0])
    # a sliver of a loop along the bottom edge, away from every corner
    sliver = np.array([[0.25, 0.0, 1.0], [0.75, 0.0, 1.0], [0.5, -0.5, 1.0]])
    assert_same_crossings(square, sliver)


def test_every_segment_in_one_cell_agrees():
    # one far vertex makes the grid cell as wide as the whole picture, so every
    # pair is a candidate and the candidates span many chunks
    rng = np.random.default_rng(7)
    a3 = rng.standard_normal((400, 3))
    b3 = rng.standard_normal((400, 3))
    a3[0] = [1e3, 1e3, 0.0]
    assert_same_crossings(a3, b3)
    assert_same_crossings(b3, a3)
    assert_same_scale(segments(a3), segments(b3))
    assert_same_scale(segments(b3), segments(a3))


def segments(loop):
    return np.roll(loop, -1, axis=0) - loop


def assert_same_scale(da, db):
    assert _crossing_scale(da, db) == reference_crossing_scale(da, db)


@pytest.mark.parametrize("n", [64, 256, 1024])
@pytest.mark.parametrize("name", ["boundary", "flat", "hopf"])
def test_crossing_scale_matches_the_dense_scan(n, name):
    first, second = sample_pairs(n)[name]
    pole = _choose_pole((first, second))
    a3, b3 = stereographic(first, pole), stereographic(second, pole)
    for angle in _VIEW_SEEDS:
        view = _view_rotation(angle)
        da, db = segments(a3 @ view.T), segments(b3 @ view.T)
        assert_same_scale(da, db)
        assert_same_scale(db, da)


vector_rows = st.lists(
    st.tuples(*[st.floats(min_value=-1e3, max_value=1e3, allow_subnormal=False)] * 3),
    min_size=1,
    max_size=40,
)


@given(vector_rows, vector_rows)
def test_crossing_scale_within_ulps_of_the_dense_scan(first, second):
    da, db = np.array(first), np.array(second)
    dense = reference_crossing_scale(da, db)
    assert abs(_crossing_scale(da, db) - dense) <= 4 * np.spacing(dense)


def test_crossing_scale_edge_cases():
    rng = np.random.default_rng(5)
    da = rng.standard_normal((30, 3))
    direction = np.array([0.6, -1.7, 0.3])
    # scaled by powers of two, the copies of one direction are exactly parallel
    parallel = np.outer([1.0, -2.0, 0.5, 4.0, -0.25], direction)
    assert len(_convex_hull(parallel[:, :2])) == 2
    cases = [
        (da[:1], da[1:2]),  # one segment each
        (da[:2], da[2:4]),
        (da, parallel),
        (da, np.outer([1.0, -3.0, 0.3, 7.0], direction)),  # parallel up to rounding
        (da, np.concatenate([np.zeros((3, 3)), da[:5], da[:5]])),  # zero and duplicate
        (da, np.zeros((4, 3))),
    ]
    # a hull with a vertical edge on each side
    lattice = np.array([[-3.0, 2.0, 0.0], [2.0, -2.0, 0.0], [2.0, 3.0, 0.0],
                        [-2.0, -1.0, 0.0], [-3.0, 1.0, 0.0]])
    cases.append((np.array([[-1.0, 1.0, 0.0]]), lattice))
    # a segment parallel to a hull edge, so the edge's two ends tie
    triangle = np.array([[0.7, -0.9, 0.0], [0.1, -0.8, 0.0], [-0.4, 0.0, 0.0]])
    cases.append((0.5 * (triangle[:1] - triangle[1:2]), triangle))
    for first, second in cases:
        assert_same_scale(first, second)
        assert_same_scale(second, first)
    # a row with a non-finite component is left out of the max
    holed = da.copy()
    holed[4, 1] = np.nan
    finite = np.delete(holed, 4, axis=0)
    assert _crossing_scale(holed, da) == reference_crossing_scale(finite, da)
    assert _crossing_scale(da, holed) == reference_crossing_scale(da, finite)


def peak_mib(call, *args):
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_oracles_run_in_bounded_memory():
    pairs = sample_pairs(4096)
    # each full-width array of a planar view held once
    assert peak_mib(contact_framing, pairs["boundary"][0]) < 2.4
    assert peak_mib(linking_number, *pairs["hopf"]) < 2.0
    # two reused tiles of 2**16 floats, 1 MiB, the (N, 6) factors, and the
    # midpoints of the rows and columns
    assert peak_mib(gauss_linking, *pairs["boundary"]) < 2.0
    assert peak_mib(gauss_linking, *sample_pairs(512)["boundary"]) < 1.5
    grid = (cone_family(), np.linspace(0.0, math.pi, 1024), np.linspace(0.1, 1.0, 1024))
    assert peak_mib(pullback_residual, *grid) < 4


def test_embeddedness_check_runs_in_bounded_memory():
    curve = boundary_curve(np.linspace(0.0, 2 * math.pi, 100_000, endpoint=False))
    assert peak_mib(_require_embedded, curve) < 32
    # the N = 10**5 target of the framing oracle, set by the hull's lists
    assert peak_mib(contact_framing, curve) < 48


def test_overlapping_boxes_match_a_scan():
    rng = np.random.default_rng(3)
    for trial in range(60):
        dim = int(rng.integers(1, 5))
        na, nb = (int(k) for k in rng.integers(1, 40, 2))
        lo_a, lo_b = rng.standard_normal((na, dim)), rng.standard_normal((nb, dim))
        hi_a = lo_a + rng.exponential(0.3, (na, dim)) * (rng.random((na, 1)) < 0.8)
        hi_b = lo_b + rng.exponential(0.3, (nb, dim))
        if trial % 5 == 0:
            lo_a[0, 0] = np.nan  # a box with a non-finite corner meets nothing
        found = sorted(
            (int(i), int(j))
            for ia, ib in _overlapping_boxes(lo_a, hi_a, lo_b, hi_b)
            for i, j in zip(ia, ib)
        )
        scan = [
            (i, j)
            for i in range(na)
            for j in range(nb)
            if np.all(lo_a[i] <= hi_b[j]) and np.all(lo_b[j] <= hi_a[i])
        ]
        assert found == scan


def test_near_pairs_match_a_scan():
    rng = np.random.default_rng(5)
    for trial in range(200):
        dim, self_join, case = 1 + trial % 4, trial % 8 >= 4, trial // 8 % 5
        na, nb = (int(k) for k in rng.integers(1, 40, 2))
        a, b = rng.standard_normal((na, dim)), rng.standard_normal((nb, dim))
        reach = float(rng.exponential(0.5))
        if case == 1:  # rows with a non-finite entry meet nothing
            a[0, -1], b[-1, 0] = np.nan, np.inf
        elif case == 2:  # coincident rows, and pairs exactly at reach
            a, b = (rng.integers(-9, 10, (n, dim)) * 0.1 for n in (na, nb))
            reach = 0.1
        elif case == 3:  # every row equal: the span is 0
            a, b = np.full((na, dim), 0.25), np.full((nb, dim), 0.25)
        elif case == 4:  # reach 0 meets coincident rows only
            a, b = (rng.integers(-2, 3, (n, dim)) * 0.5 for n in (na, nb))
            reach = 0.0
        if self_join:
            b = a
        found = [
            (int(i), int(j))
            for ia, ib in _near_pairs(a, b, reach, self_join)
            for i, j in zip(ia, ib)
        ]
        assert len(set(found)) == len(found)
        finite_a, finite_b = np.isfinite(a).all(1), np.isfinite(b).all(1)
        assert all(finite_a[i] and finite_b[j] for i, j in found)
        near = {
            (i, j)
            for i in range(len(a))
            for j in range(len(b))
            if finite_a[i] and finite_b[j] and np.all(np.abs(a[i] - b[j]) <= reach)
        }
        if self_join:
            assert all(i != j for i, j in found)
            unordered = {(min(i, j), max(i, j)) for i, j in found}
            assert len(unordered) == len(found)
            assert unordered >= {(i, j) for i, j in near if i < j}
        else:
            assert set(found) >= near
