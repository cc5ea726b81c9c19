"""Integer oracles on sphere curves, anchored by the circle-fibre pair."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    legendrian_torus_knot,
    peak_mib,
    reference_choose_pole,
    reference_contact_framing,
    reference_gauss_linking,
    reference_planar_crossings,
    reference_reeb_pushoff,
    reference_require_embedded,
    reference_split,
    reference_sphere_linking_number,
    reference_tiled_gauss_linking,
)
from lagsurf import linking
from lagsurf.fronts import FrontDiagram
from lagsurf.immersions import (
    ImmersionFamily,
    ResidualNotFinite,
    boundary_curve,
    cone_family,
    pullback_residual,
    umbrella_family,
)
from lagsurf.linking import (
    _VIEW_SEEDS,
    DegenerateProjection,
    DegeneratePushoff,
    InvalidSamples,
    SelfIntersectingSamples,
    TangentDegenerate,
    _choose_pole,
    _complex,
    _crossing_bound,
    _near_pairs,
    _overlapping_boxes,
    _planar_crossings,
    _require_embedded,
    _samples,
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


def test_far_apart_small_circles_do_not_link():
    # no (x, y) boxes of the two views meet, so no segment pair is examined
    r = 0.1
    h = math.sqrt(1 - r * r)
    first = np.stack([np.full(N, h), r * np.cos(S), r * np.sin(S), np.zeros(N)], axis=1)
    second = np.stack([np.full(N, -h), r * np.cos(S), np.zeros(N), r * np.sin(S)], axis=1)
    assert linking_number(first, second) == 0
    assert gauss_linking(first, second) == pytest.approx(0.0, abs=1e-6)


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


@pytest.mark.parametrize("n", [64, 512, 4096])
def test_circle_action_fibres_have_no_tangent_winding(n):
    # an orbit of the circle action runs along the Reeb field, so its tangent
    # has no part in the contact plane frame; on the coordinate fibres the
    # frame scalar is exactly zero
    phase = np.exp(1j * np.linspace(0.0, 2 * math.pi, n, endpoint=False))
    for z1, z2 in ((1.0, 0.0), (0.0, 1.0), (0.6, 0.8)):
        with pytest.raises(TangentDegenerate):
            tangent_winding(pack(phase * z1, phase * z2))


@pytest.mark.parametrize("n", [64, 512, 4096])
def test_coordinate_fibres_have_no_pushoff(n):
    # each is one Reeb orbit, so its push-off slides along it: (0, e^{is})
    # gave framing 0 and (e^{is}, 0) a height tie before this was checked
    phase = np.exp(1j * np.linspace(0.0, 2 * math.pi, n, endpoint=False))
    for z1, z2 in ((1.0, 0.0), (0.0, 1.0)):
        with pytest.raises(DegeneratePushoff, match="one Reeb orbit"):
            contact_framing(pack(phase * z1, phase * z2))


@pytest.mark.parametrize("epsilon", [math.nan, math.inf, 0.0, 2 * math.pi])
def test_epsilon_that_moves_no_sample_is_refused(epsilon):
    with pytest.raises(DegeneratePushoff, match="epsilon"):
        contact_framing(boundary_curve(S), epsilon)


def reading_inputs():
    """Sphere samples in every dtype and layout the oracles read."""
    curves = {"boundary": boundary_curve(S), "flat": flat_circle()}
    for p, q in ((3, 2), (5, 2), (4, 3)):
        curves[f"T({p},{q})"] = legendrian_torus_knot(p, q, S)
    inputs = {}
    for name, curve in curves.items():
        inputs[f"{name}_float64"] = curve
        inputs[f"{name}_float32"] = curve.astype(np.float32)
        inputs[f"{name}_float16"] = curve.astype(np.float16)
        inputs[f"{name}_reversed"] = curve[::-1]
        inputs[f"{name}_fortran"] = np.asfortranarray(curve)
    inputs["axes_int64"] = np.tile(np.array([[1, 0, 0, 0], [0, 0, 0, -1]], np.int64), (N // 2, 1))
    return inputs


READING_INPUTS = reading_inputs()


def assert_same_bits_up_to_zero_signs(got, expected):
    """Same dtype, shape and bits, except that -0.0 and 0.0 count as one.

    The copying split adds p1 * 0 - 0 * 1 to q1, which turns a -0.0 into
    0.0 (the float16 flat circle has one), where a view keeps it.
    """
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert (got + 0.0).tobytes() == (expected + 0.0).tobytes()


@pytest.mark.parametrize("name", sorted(READING_INPUTS))
def test_complex_reads_samples_as_the_copying_split(name):
    points = READING_INPUTS[name]
    z = _complex(points)
    assert_same_bits_up_to_zero_signs(z, np.stack(reference_split(points), axis=-1))
    if points.dtype in (np.float32, np.float64) and points.flags.c_contiguous:
        assert np.shares_memory(z, points)


@pytest.mark.parametrize("name", sorted(READING_INPUTS))
def test_pushoff_keeps_the_bits_of_the_copying_split(name):
    points = READING_INPUTS[name]
    for epsilon in (1e-2, 0.3, -2.0):
        assert_same_bits_up_to_zero_signs(
            reeb_pushoff(points, epsilon), reference_reeb_pushoff(points, epsilon)
        )


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


def doubled_circle():
    doubled = np.linspace(0.0, 4 * math.pi, N, endpoint=False)
    return pack(np.cos(doubled) + 0j, np.sin(doubled) + 0j)


def test_doubly_covered_circle_is_rejected():
    curve = doubled_circle()
    with pytest.raises(SelfIntersectingSamples):
        contact_framing(curve)
    with pytest.raises(SelfIntersectingSamples):
        reference_require_embedded(curve)


def test_too_few_samples_rejected():
    with pytest.raises(SelfIntersectingSamples):
        contact_framing(flat_circle()[:4])


def test_constant_curve_is_rejected():
    # every step is 0, so half the longest one is no threshold at all
    with pytest.raises(SelfIntersectingSamples):
        contact_framing(np.tile([1.0, 0.0, 0.0, 0.0], (16, 1)))


@pytest.mark.parametrize("n", [512, 1024])
@pytest.mark.parametrize("p, q", [(1, 1), (2, 1), (3, 1), (3, 2), (5, 2), (4, 3)])
def test_legendrian_torus_knots(p, q, n):
    """T(p, -q): framing -pq in both orientations, winding p - q, reversed q - p."""
    curve = legendrian_torus_knot(p, q, np.linspace(0.0, 2 * math.pi, n, endpoint=False))
    reverse = curve[::-1].copy()
    assert contact_framing(curve) == contact_framing(reverse) == -p * q
    assert tangent_winding(curve) == p - q
    assert tangent_winding(reverse) == q - p


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


def with_rows(curve, rows, value):
    curve = curve.copy()
    curve[rows] = value
    return curve


INVALID_SAMPLES = {
    # samples 10 to 59 of the boundary curve lost; its framing is still -2
    "holed": lambda: with_rows(boundary_curve(S), slice(10, 60), np.nan),
    "one_nan": lambda: with_rows(boundary_curve(S), 10, np.nan),
    "five_nan": lambda: with_rows(boundary_curve(S), slice(10, 15), np.nan),
    "inf_rows": lambda: with_rows(boundary_curve(S), slice(10, 60), np.inf),
    "one_minus_inf": lambda: with_rows(flat_circle(), (3, 2), -np.inf),
    "nan_fibre_sample": lambda: with_rows(fiber(1.0, 0.0), 7, np.nan),
    "three_columns": lambda: boundary_curve(S)[:, :3],
    "empty": lambda: np.empty((0, 4)),
    "one_dimension": lambda: boundary_curve(S)[0],
    # finite samples off the unit sphere: far out, where differences or
    # squares overflow, and near it
    "differences_overflow": lambda: boundary_curve(S[::8]) * 1.5e308,
    "squares_overflow": lambda: boundary_curve(S) * 1e200,
    "shifted_to_the_float_limit": lambda: boundary_curve(S) + 1.7e308,
    "scaled_by_two": lambda: 2 * boundary_curve(S),
    "scaled_by_half": lambda: 0.5 * boundary_curve(S),
    "shifted": lambda: boundary_curve(S) + 0.3,
    "one_row_off_the_sphere": lambda: with_rows(
        boundary_curve(S), 10, 1.2 * boundary_curve(S)[10]
    ),
}


@pytest.mark.parametrize("name", INVALID_SAMPLES)
def test_oracles_reject_invalid_samples(name):
    bad, good = INVALID_SAMPLES[name](), fiber(0.0, 1.0)
    calls = [
        (contact_framing, bad),
        (tangent_winding, bad),
        (linking_number, bad, good),
        (linking_number, good, bad),
        (gauss_linking, bad, good),
        (gauss_linking, good, bad),
    ]
    with warnings.catch_warnings():
        # rejected on entry, before numpy computes anything that could warn
        warnings.simplefilter("error")
        for oracle, *curves in calls:
            with pytest.raises(InvalidSamples):
                oracle(*curves)


def test_oracles_take_other_real_dtypes():
    # the sample check converts nothing: these dtypes give the answers they gave
    # before it
    for dtype in (np.float32, np.float16):
        curve = boundary_curve(S).astype(dtype)
        assert contact_framing(curve) == -2
        assert tangent_winding(curve) == 1
    first, second = (curve.astype(np.float32) for curve in sample_pairs(N)["hopf"])
    assert linking_number(first, second) == 1
    assert gauss_linking(first, second) == reference_tiled_gauss_linking(first, second)
    # integer samples: four points on the flat circle, and on each of two
    # circle-action fibres
    axes = np.eye(4, dtype=int)
    assert tangent_winding(np.array([axes[0], axes[2], -axes[0], -axes[2]])) == 0
    first = np.array([axes[0], axes[1], -axes[0], -axes[1]])
    assert linking_number(first, np.array([axes[2], axes[3], -axes[2], -axes[3]])) == 1


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


def chunked_outcomes(first, second):
    """Every view's crossing sum, embeddedness, linking and framing, in order."""
    pole = _choose_pole((first, second))
    a3, b3 = stereographic(first, pole), stereographic(second, pole)
    views = [_view_rotation(angle) for angle in _VIEW_SEEDS]
    return (
        [outcome(_planar_crossings, a3 @ view.T, b3 @ view.T) for view in views],
        [outcome(_require_embedded, curve) for curve in (first, second)],
        outcome(linking_number, first, second),
        outcome(contact_framing, first),
    )


@pytest.mark.parametrize("chunk, n", [(1, 256), (7, 1024), (4096, 1024)])
@pytest.mark.parametrize("name", ["boundary", "flat", "hopf"])
def test_join_chunk_changes_no_outcome(monkeypatch, chunk, n, name):
    first, second = sample_pairs(n)[name]
    expected = chunked_outcomes(first, second)
    monkeypatch.setattr("lagsurf.linking._CHUNK", chunk)
    assert chunked_outcomes(first, second) == expected


def framing_by_linking(curve, epsilon=1e-2):
    """The framing oracle as linking_number with the push-off, after its checks."""
    _samples(curve)
    _require_embedded(curve)
    return linking_number(curve, reeb_pushoff(curve, epsilon))


def route_outcome(oracle, curve):
    """The oracle's value, or the type of the exception it raised."""
    try:
        return oracle(curve)
    except (DegenerateProjection, SelfIntersectingSamples, InvalidSamples) as err:
        return type(err)


FRAMING_INPUTS = {
    "boundary": lambda: boundary_curve(S),
    "flat": flat_circle,
    "boundary_float16": lambda: boundary_curve(S).astype(np.float16),
    "stalled": lambda: with_rows(flat_circle(), 10, flat_circle()[8]),
    "doubled": doubled_circle,
    "too_few": lambda: flat_circle()[:4],
    # finite samples near the float limit, far off the sphere
    "near_the_float_limit": lambda: boundary_curve(S) * 1e300 + [1.78e308, 1.78e308, 0.0, 0.0],
    **INVALID_SAMPLES,
}


@pytest.mark.parametrize("name", FRAMING_INPUTS)
def test_framing_is_linking_with_the_pushoff(name):
    curve = FRAMING_INPUTS[name]()
    with np.errstate(over="ignore"):
        assert route_outcome(contact_framing, curve) == route_outcome(framing_by_linking, curve)
    if name in ("boundary", "flat"):
        assert outcome(contact_framing, curve) == outcome(
            linking_number, curve, reeb_pushoff(curve, 1e-2)
        )


def test_pole_matches_the_stacked_scan_on_random_curves():
    rng = np.random.default_rng(19)
    for trial in range(200):
        lengths = rng.integers(1, 5000 if trial % 50 == 0 else 300, 1 + trial % 3)
        curves = tuple(rng.standard_normal((int(n), 4)) for n in lengths)
        curves = tuple(c / np.linalg.norm(c, axis=1, keepdims=True) for c in curves)
        assert np.array_equal(_choose_pole(curves), reference_choose_pole(curves))


def test_gauss_agrees_on_partial_tiles_and_unequal_lengths():
    # 1000 columns make tiles of 32 rows with an 8-row tail
    for name in ("boundary", "flat", "hopf"):
        assert_same_gauss(*sample_pairs(1000)[name])
    short, long = sample_pairs(700)["hopf"][0], sample_pairs(1000)["hopf"][1]
    assert_same_gauss(short, long)
    assert_same_gauss(long, short)


@pytest.mark.parametrize("n", [2048, 4096])
def test_gauss_is_the_tiled_sum_on_both_sides_of_the_buffer_threshold(n):
    # tiles of 16 and 8 rows; numpy's default buffer copies the operands of
    # the 2048-element rows and not those of the 4096-element ones
    first, second = sample_pairs(n)["boundary"]
    assert gauss_linking(first, second) == reference_tiled_gauss_linking(first, second)


def raising_chart(first, second, out=None):
    raise ArithmeticError("the chart fails inside the sweep")


# each tile loop returning, raising after its loop, and raising inside it
TILE_CALLS = {
    "gauss": (lambda: gauss_linking(*sample_pairs(256)["hopf"]), None),
    "gauss meeting": (lambda: gauss_linking(flat_circle(), flat_circle()), SelfIntersectingSamples),
    "pullback": (lambda: pullback_residual(cone_family(), S[:100], S[1:300]), None),
    "pullback overflow": (
        lambda: pullback_residual(umbrella_family(), S[:64], S[:64], 1e308),
        ResidualNotFinite,
    ),
    "pullback chart": (
        lambda: pullback_residual(ImmersionFamily("raising", raising_chart), S, S),
        ArithmeticError,
    ),
}


@pytest.mark.parametrize("name", sorted(TILE_CALLS))
def test_tile_loops_restore_the_callers_numpy_state(name):
    call, error = TILE_CALLS[name]
    state = {"divide": "print", "over": "raise", "under": "warn", "invalid": "ignore"}
    with np.errstate(**state):
        old = np.setbufsize(4096)
        try:
            if error is None:
                call()
            else:
                with pytest.raises(error):
                    call()
            assert np.getbufsize() == 4096
            assert np.geterr() == state
        finally:
            np.setbufsize(old)


def test_tile_loops_ignore_the_callers_buffer_size():
    pairs = sample_pairs(1000)["boundary"]
    grid = (cone_family(), np.linspace(0.0, math.pi, 100), np.linspace(0.1, 1.0, 300))
    expected = gauss_linking(*pairs), pullback_residual(*grid)
    for size in (4096, 65536):
        old = np.setbufsize(size)
        try:
            assert (gauss_linking(*pairs), pullback_residual(*grid)) == expected
        finally:
            np.setbufsize(old)


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


def segments(loop):
    return np.roll(loop, -1, axis=0) - loop


vector_rows = st.lists(
    st.tuples(*[st.floats(min_value=-1e3, max_value=1e3, allow_subnormal=False)] * 3),
    min_size=1,
    max_size=40,
)


def dense_crossing_max(da, db):
    """max |da_i x db_j| over the (x, y) parts of every pair of rows."""
    cross = da[:, None, 0] * db[None, :, 1] - da[:, None, 1] * db[None, :, 0]
    return np.max(np.abs(cross))


@pytest.mark.parametrize("n", [64, 256, 1024])
@pytest.mark.parametrize("name", ["boundary", "flat", "hopf"])
def test_crossing_scale_matches_the_dense_scan(n, name):
    """The crossing bound of every view against the dense max |da_i x db_j|."""
    first, second = sample_pairs(n)[name]
    pole = _choose_pole((first, second))
    a3, b3 = stereographic(first, pole), stereographic(second, pole)
    for angle in _VIEW_SEEDS:
        view = _view_rotation(angle)
        da, db = segments(a3 @ view.T), segments(b3 @ view.T)
        for pair in ((da, db), (db, da)):
            dense = dense_crossing_max(*pair)
            # the views of the flat pair reach 5.2 times
            assert dense <= _crossing_bound(*pair) < 6 * dense


@given(vector_rows, vector_rows)
def test_crossing_bound_is_never_below_the_dense_scan(first, second):
    da, db = np.array(first), np.array(second)
    assert _crossing_bound(da, db) >= dense_crossing_max(da, db)
    assert _crossing_bound(db, da) >= dense_crossing_max(db, da)


def test_crossing_bound_holds_on_single_perpendicular_pairs():
    # one segment against a scaled quarter turn of itself: Cauchy-Schwarz is
    # tight there, so rounding decides
    rng = np.random.default_rng(23)
    for exponent in range(-150, 151, 30):
        rows = rng.standard_normal((300, 3)) * 10.0**exponent
        turned = rng.standard_normal((300, 1)) * np.stack([-rows[:, 1], rows[:, 0], rows[:, 2]], 1)
        for da, db in zip(rows[:, None], turned[:, None]):
            assert _crossing_bound(da, db) >= dense_crossing_max(da, db)


def test_oracles_run_in_bounded_memory():
    pairs = sample_pairs(4096)
    # a planar view holds its box corners at full width, the join its sorted
    # keys, their order and the probes' keys, and the rest per block of
    # probes or chunk of 2**10 pairs; the push-off is dropped once projected;
    # peaks 0.87 and 0.82 MiB
    assert peak_mib(contact_framing, pairs["boundary"][0]) < 0.95
    assert peak_mib(linking_number, *pairs["hopf"]) < 0.9
    # two reused tiles of 2**14 floats, 0.25 MiB, the column factors, the row
    # midpoints and segments, and the left factor 2**8 rows at a time, with a
    # one-row ufunc buffer; peaks 0.74, 0.51 and 0.33 MiB
    assert peak_mib(gauss_linking, *pairs["boundary"]) < 0.85
    assert peak_mib(gauss_linking, *sample_pairs(2048)["boundary"]) < 0.6
    assert peak_mib(gauss_linking, *sample_pairs(512)["boundary"]) < 0.4
    # the real tangent and the frame scalar, with the curve and the tangent
    # read as complex views; peaks 0.35 MiB
    assert peak_mib(tangent_winding, pairs["boundary"][0]) < 0.4
    # six complex blocks of 2**13 points, 0.75 MiB, with omega and its terms in
    # the spent minus-point block, and a one-row ufunc buffer; peaks 0.81 MiB
    grid = (cone_family(), np.linspace(0.0, math.pi, 1024), np.linspace(0.1, 1.0, 1024))
    assert peak_mib(pullback_residual, *grid) < 0.9


def test_embeddedness_check_runs_in_bounded_memory():
    curve = boundary_curve(np.linspace(0.0, 2 * math.pi, 100_000, endpoint=False))
    # the segment lengths and the keys of the 4-D self-join; peaks 7.63 MiB
    assert peak_mib(_require_embedded, curve) < 8.5
    # the N = 10**5 target of the framing oracle; peaks 19.84 MiB
    assert peak_mib(contact_framing, curve) < 22


def test_overlapping_boxes_match_a_scan():
    overlapping_boxes_match_a_scan()


def test_near_pairs_match_a_scan():
    near_pairs_match_a_scan()


@pytest.mark.parametrize("chunk", [1, 3])
def test_join_scans_hold_across_chunks(monkeypatch, chunk):
    # one pair per chunk, or chunks and probe blocks of three rows, so the
    # 40-row scans run over many blocks, and chunks span blocks
    monkeypatch.setattr("lagsurf.linking._CHUNK", chunk)
    overlapping_boxes_match_a_scan()
    near_pairs_match_a_scan()


def overlapping_boxes_match_a_scan():
    rng = np.random.default_rng(3)
    for trial in range(60):
        dim = int(rng.integers(1, 5))
        na, nb = (int(k) for k in rng.integers(1, 40, 2))
        lo_a, lo_b = rng.standard_normal((na, dim)), rng.standard_normal((nb, dim))
        hi_a = lo_a + rng.exponential(0.3, (na, dim)) * (rng.random((na, 1)) < 0.8)
        hi_b = lo_b + rng.exponential(0.3, (nb, dim))
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


def near_pairs_match_a_scan():
    rng = np.random.default_rng(5)
    for trial in range(200):
        dim, self_join, case = 1 + trial % 4, trial % 8 >= 4, trial // 8 % 4
        na, nb = (int(k) for k in rng.integers(1, 40, 2))
        a, b = rng.standard_normal((na, dim)), rng.standard_normal((nb, dim))
        reach = float(rng.exponential(0.5))
        if case == 1:  # coincident rows, and pairs exactly at reach
            a, b = (rng.integers(-9, 10, (n, dim)) * 0.1 for n in (na, nb))
            reach = 0.1
        elif case == 2:  # every row equal: the span is 0
            a, b = np.full((na, dim), 0.25), np.full((nb, dim), 0.25)
        elif case == 3:  # reach 0 meets coincident rows only
            a, b = (rng.integers(-2, 3, (n, dim)) * 0.5 for n in (na, nb))
            reach = 0.0
        if self_join:
            b = a
        chunks = list(_near_pairs(a, b, reach, self_join))
        # full chunks, carried across probe blocks and rows of cells, then one
        # part-full chunk at most
        sizes = [len(ia) for ia, _ in chunks]
        assert all(size == linking._CHUNK for size in sizes[:-1])
        assert all(0 < size <= linking._CHUNK for size in sizes)
        found = [(int(i), int(j)) for ia, ib in chunks for i, j in zip(ia, ib)]
        assert len(set(found)) == len(found)
        near = {
            (i, j)
            for i in range(len(a))
            for j in range(len(b))
            if np.all(np.abs(a[i] - b[j]) <= reach)
        }
        if self_join:
            assert all(i != j for i, j in found)
            unordered = {(min(i, j), max(i, j)) for i, j in found}
            assert len(unordered) == len(found)
            assert unordered >= {(i, j) for i, j in near if i < j}
        else:
            assert set(found) >= near
