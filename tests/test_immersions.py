"""Residual checks for the explicit immersion families."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from helpers import reference_cone_chart, reference_pullback_residual, reference_strip_chart
from lagsurf.immersions import (
    _TILE_ELEMENTS,
    AOutOfRange,
    GridOutsideDomain,
    ImmersionFamily,
    ResidualNotFinite,
    VerificationReport,
    _outputs,
    _pack,
    boundary_curve,
    boundary_curve_tangent,
    cone_family,
    convergence_to_cone,
    legendrian_residual,
    liouville_identity,
    pullback_residual,
    radial_contact,
    strip_family,
    strip_half_width,
    strip_identities,
    symplectic_pairing,
    umbrella_family,
)

HALF_TURN = np.linspace(0.0, math.pi, 64)


def test_symplectic_pairing_is_the_standard_form():
    e = np.eye(4)
    assert symplectic_pairing(e[0], e[1]) == 1.0
    assert symplectic_pairing(e[1], e[0]) == -1.0
    assert symplectic_pairing(e[2], e[3]) == 1.0
    assert symplectic_pairing(e[0], e[2]) == 0.0
    assert symplectic_pairing(e[0], e[3]) == 0.0


@pytest.mark.parametrize("a", [0.1, 0.5, 1.0])
def test_strip_pullback_vanishes(a):
    half = strip_half_width(a)
    report = pullback_residual(
        strip_family(a), HALF_TURN, np.linspace(-half, half, 64)
    )
    assert report.passed
    assert report.max_residual < 1e-6


def test_umbrella_pullback_vanishes():
    grid = np.linspace(-1.0, 1.0, 64)
    report = pullback_residual(umbrella_family(), grid, grid)
    assert report.passed
    assert report.max_residual < 1e-6


def test_cone_pullback_vanishes_off_apex():
    report = pullback_residual(cone_family(), HALF_TURN, np.linspace(0.1, 1.0, 64))
    assert report.passed


@pytest.mark.parametrize("step", [0.0, -1e-4, math.nan, math.inf, -math.inf])
def test_pullback_rejects_a_step_that_is_not_positive_and_finite(step):
    with pytest.raises(ValueError, match="^step must be positive"):
        pullback_residual(umbrella_family(), HALF_TURN, HALF_TURN, step)


@pytest.mark.filterwarnings("error")
def test_pullback_names_a_step_that_overflows():
    # finite, but the differences overflow and the residual is NaN
    with pytest.raises(ResidualNotFinite, match=r"^pullback residual is not finite at step 1e\+308$"):
        pullback_residual(umbrella_family(), HALF_TURN, HALF_TURN, 1e308)


def test_cone_grid_through_apex_is_rejected():
    with pytest.raises(GridOutsideDomain):
        pullback_residual(cone_family(), HALF_TURN, np.linspace(-1.0, 1.0, 9))


def sweep_families():
    """The five swept families, each with the ranges of its two parameters."""
    sheets = {}
    for a in (0.1, 0.5, 1.0):
        half = strip_half_width(a)
        sheets[f"strip{a:g}"] = (strip_family(a), (0.0, math.pi), (-half, half))
    sheets["cone"] = (cone_family(), (0.0, math.pi), (0.1, 1.0))
    sheets["umbrella"] = (umbrella_family(), (-1.0, 1.0), (-1.0, 1.0))
    return sheets


SWEEPS = sweep_families()


@pytest.mark.parametrize("rows, columns", [(7, 7), (64, 64), (1023, 1023), (17, 1024), (1024, 5)])
@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_pullback_matches_the_meshgrid_sweep(name, rows, columns):
    family, first, second = SWEEPS[name]
    grid = (family, np.linspace(*first, rows), np.linspace(*second, columns))
    assert pullback_residual(*grid) == reference_pullback_residual(*grid)


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_evaluator_is_the_packed_chart(name):
    family, first, second = SWEEPS[name]
    a, b = np.linspace(*first, 9), np.linspace(*second, 9)
    for args, shape in [
        ((a[:, None], b[None, :]), (9, 9, 4)),
        ((a, b), (9, 4)),
        ((np.array(a[3]), np.array(b[5])), (4,)),
    ]:
        points = family.evaluator(*args)
        assert points.shape == shape
        assert np.array_equal(points, _pack(*family.chart(*args)))


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_pullback_evaluates_one_axis_at_a_time(name):
    family, first, second = SWEEPS[name]
    sizes = []

    def recording(*args, out=None):
        sizes.extend(np.size(arg) for arg in args)
        return family.chart(*args, out=out)

    spy = dataclasses.replace(family, chart=recording)
    report = pullback_residual(spy, np.linspace(*first, 1024), np.linspace(*second, 1024))
    assert report.passed
    assert sizes and max(sizes) <= max(_TILE_ELEMENTS // 1024, 1024)


def test_a_step_that_moves_nothing_cannot_pass_a_non_lagrangian_chart():
    # omega pulls back to 1 on z = (s + iT, 0): a residual of 0 would be vacuous
    def chart(s, t, out=None):
        z1, z2 = _outputs(out, s, t)
        np.add(s, 1j * t, out=z1)
        z2[...] = 0
        return z1, z2

    plane = ImmersionFamily("plane", chart)
    assert pullback_residual(plane, HALF_TURN, HALF_TURN).max_residual == pytest.approx(1.0)
    with pytest.raises(ValueError, match=r"^step 1e-300 does not move the first grid value"):
        pullback_residual(plane, HALF_TURN, HALF_TURN, 1e-300)
    # a grid whose first axis moves is checked along the second one
    with pytest.raises(ValueError, match=r"^step 1e-300 does not move the second grid value"):
        pullback_residual(plane, np.zeros(3), HALF_TURN, 1e-300)


def verify_grids():
    """The strip and cone grids of ``verify`` at a few sizes, with their charts."""
    for grid in (2, 8, 64):
        s = np.linspace(0.0, math.pi, grid)
        for a in (0.5, 0.1, 1.0):
            half = strip_half_width(a)
            t = np.linspace(-half, half, grid)
            yield pytest.param(strip_family(a), reference_strip_chart(a), s, t,
                               id=f"strip{a:g}-{grid}")
        t = np.linspace(0.1, 1.0, grid)
        yield pytest.param(cone_family(), reference_cone_chart, s, t, id=f"cone-{grid}")


@pytest.mark.parametrize("family, reference, s, t", verify_grids())
def test_the_one_torus_chart_keeps_the_bits_of_both_charts(family, reference, s, t):
    # the grid and its shifts by the default step, where the sweep evaluates
    for ds, dt in ((0, 0), (1e-4, 0), (-1e-4, 0), (0, 1e-4), (0, -1e-4)):
        args = (s[:, None] + ds, t[None, :] + dt)
        assert family.evaluator(*args).tobytes() == _pack(*reference(*args)).tobytes()


def test_boundary_curve_is_the_cone_slice():
    s = np.linspace(0.0, 2 * math.pi, 1024, endpoint=False)
    slice_ = cone_family().evaluator(s, np.full_like(s, math.sqrt(2.0 / 3.0)))
    assert np.max(np.abs(slice_ - boundary_curve(s))) <= 1e-15


@pytest.mark.parametrize("a", [2**0.5, 1.5, 0.0, -0.3, 1e-160, 1e-300, 5e-324])
def test_strip_parameter_range(a):
    with pytest.raises(AOutOfRange):
        strip_family(a)
    with pytest.raises(AOutOfRange):
        strip_half_width(a)


def test_strip_half_width_value():
    assert strip_half_width(1.0) == pytest.approx(math.sqrt(1.0 / 3.0))


@pytest.mark.parametrize("a", [0.1, 0.5, 1.0, 1e-4, 1e-5, 1e-9, 1e-11])
def test_strip_identities_hold_to_roundoff(a):
    report = strip_identities(a)
    assert report.passed
    assert report.max_residual <= 1e-12


def test_strip_meets_sphere_only_at_half_width():
    family = strip_family(0.7)
    half = strip_half_width(0.7)
    inside = family.evaluator(np.linspace(0, 6, 50), np.zeros(50))
    assert np.all(np.linalg.norm(inside, axis=-1) < 1.0)
    outside = family.evaluator(np.linspace(0, 6, 50), np.full(50, 2 * half))
    assert np.all(np.linalg.norm(outside, axis=-1) > 1.0)


def test_convergence_ratios_quarter():
    report = convergence_to_cone([0.2, 0.1, 0.05])
    assert all(0.2 <= r <= 0.3 for r in report.ratios)
    assert report.distances[0] > report.distances[1] > report.distances[2] > 0
    assert report.passed


def test_convergence_off_the_quartering_band_fails():
    # A ratio 0.75 halves nothing; the report says so instead of raising.
    report = convergence_to_cone([0.2, 0.15])
    assert not 0.2 <= report.ratios[0] <= 0.3
    assert report.passed is False


@pytest.mark.parametrize("a", [0.2, 0.05])
def test_convergence_closed_form_at_unit_t(a):
    s = np.linspace(0.0, 2 * math.pi, 32, endpoint=False)
    rescaled = strip_family(a).evaluator(s, np.full_like(s, 1.0 / a))
    reference = cone_family().evaluator(s, np.ones_like(s))
    gap = np.max(np.linalg.norm(rescaled - reference, axis=-1))
    expected = (math.sqrt(a**2 + 1.0) - 1.0) / math.sqrt(2.0)
    assert gap == pytest.approx(expected, abs=1e-12)


def test_liouville_identity_exact():
    report = liouville_identity()
    assert report.passed
    assert report.max_residual <= 1e-12


def test_umbrella_spot_values():
    image = umbrella_family().evaluator(np.array(1.0), np.array(1.0))
    assert np.allclose(image, [1.0, 1.0, 1.0, 2.0 / 3.0])


def test_boundary_curve_is_legendrian_unit_speed_free():
    report = legendrian_residual()
    assert report.passed
    assert report.max_residual < 1e-6
    s = np.linspace(0.0, 2 * math.pi, 64, endpoint=False)
    assert np.allclose(np.linalg.norm(boundary_curve(s), axis=-1), 1.0)
    contact = radial_contact(boundary_curve(s), boundary_curve_tangent(s))
    assert np.max(np.abs(contact)) < 1e-12


def test_perturbed_curve_fails_the_contact_check():
    report = legendrian_residual(perturbation=0.01)
    assert not report.passed
    assert report.max_residual > 1e-4


def test_report_pass_matches_threshold():
    assert VerificationReport.from_residual(0.5, "g", 0.5).passed
    assert not VerificationReport.from_residual(0.5000001, "g", 0.5).passed


@given(st.floats(min_value=0.05, max_value=1.3))
def test_strip_is_lagrangian_for_any_parameter(a):
    half = strip_half_width(a)
    report = pullback_residual(
        strip_family(a),
        np.linspace(0.0, math.pi, 16),
        np.linspace(-half, half, 16),
        tolerance=1e-5,
    )
    assert report.passed


@given(st.floats(min_value=-3.0, max_value=3.0), st.floats(min_value=-3.0, max_value=3.0))
def test_liouville_identity_pointwise(t, u):
    image = umbrella_family().evaluator(np.array(t), np.array(u))
    pushed = np.array([2 * t * t, 3 * t * u, 2 * u, 2 * t**3])
    field = np.array(
        [2 * image[0], 3 * image[1], 2 * image[2], 3 * image[3]]
    )
    assert np.max(np.abs(pushed - field)) < 1e-10
