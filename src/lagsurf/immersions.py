"""Numerical verification of the explicit immersion families.

Real 4-space carries coordinates (q1, p1, q2, p2), identified with complex
2-space via z1 = q1 + i p1, z2 = q2 + i p2.  The standard symplectic pairing
is omega(u, v) = Im(conj(u1) v1 + conj(u2) v2), and the radial contact form
on the unit 3-sphere is its contraction lambda_p(v) = omega(p, v).

Four explicit parametrized objects are verified here:

* the one-parameter family of Lagrangian strips
      strip_A(s, T) = A * (-(i/sqrt 2) sqrt(1+T^2) e^{2is}, T e^{-is}),
  defined for 0 < A < sqrt 2, which closes up under (s, T) -> (s+pi, -T)
  and meets the unit sphere exactly at |T| = half_width(A);
* its blow-down limit, the cone
      cone(s, T) = (-(i/sqrt 2) |T| e^{2is}, T e^{-is});
* the polynomial umbrella sheet
      umbrella(t, u) = (t^2 + i t u, u + (2/3) i t^3),
  whose radial Liouville identity is checked with exact derivatives;
* the cone's boundary curve on the unit sphere,
      boundary_curve(s) = (-(i/sqrt 3) e^{2is}, sqrt(2/3) e^{-is}).

Residual checks use second-order central differences except where a
polynomial/trigonometric formula admits exact derivatives; the two cases are
kept separate so scheme error never masks a formula error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .linking import _pack, _split, _tile_loop

# Grid points per block of a residual sweep.
_TILE_ELEMENTS = 1 << 13


class AOutOfRange(ValueError):
    """Strip parameter outside (0, sqrt 2)."""


class GridOutsideDomain(ValueError):
    """Requested grid touches the family's singular locus."""


class ResidualNotFinite(ValueError):
    """A residual sweep overflowed: its step is too large for the chart."""


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one residual check; passed iff max_residual <= tolerance."""

    max_residual: float
    grid: str
    tolerance: float
    passed: bool

    @classmethod
    def from_residual(cls, residual: float, grid: str, tolerance: float):
        return cls(float(residual), grid, tolerance, bool(residual <= tolerance))


@dataclass(frozen=True)
class ImmersionFamily:
    """A two-parameter complex chart into C^2 with a named singular locus.

    ``chart(first, second, out=None)`` returns the pair ``(z1, z2)`` of the
    formulas above.  It takes any two arrays that broadcast against each
    other, such as a column of first parameters and a row of second ones,
    so each factor that depends on one parameter is computed once per value
    of it.  It writes the points into ``out``, a pair of complex arrays of
    the broadcast shape, and returns them; without ``out`` it makes the
    pair.  Its grid-sized operations all write into ``out``, so a residual
    sweep that passes its own arrays allocates nothing per grid point.
    :meth:`evaluator` is the packed view of the chart: the same points as
    (q1, p1, q2, p2) along a trailing axis of 4.
    """

    name: str
    chart: Callable[..., tuple[np.ndarray, np.ndarray]]
    apex_excluded: bool = False

    def evaluator(self, first: np.ndarray, second: np.ndarray) -> np.ndarray:
        return _pack(*self.chart(first, second))


def _outputs(out, *args: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``out``, or a new pair of complex arrays of the arguments' broadcast shape."""
    if out is None:
        shape = np.broadcast_shapes(*(np.shape(arg) for arg in args))
        out = np.empty(shape, complex), np.empty(shape, complex)
    return out


def symplectic_pairing(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """omega(u, v) on (q1, p1, q2, p2) tuples (vectorized over leading axes)."""
    return (
        u[..., 0] * v[..., 1]
        - u[..., 1] * v[..., 0]
        + u[..., 2] * v[..., 3]
        - u[..., 3] * v[..., 2]
    )


def radial_contact(p: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The contact form at p applied to v: omega(p, v)."""
    return symplectic_pairing(p, v)


def strip_half_width(a: float) -> float:
    """|T| at which the strip meets the unit sphere."""
    if not 0 < a < math.sqrt(2):
        raise AOutOfRange(f"strip parameter must be in (0, sqrt 2), got {a}")
    return math.sqrt((2.0 / 3.0) * (1.0 / a**2 - 0.5))


def strip_family(a: float) -> ImmersionFamily:
    if not 0 < a < math.sqrt(2):
        raise AOutOfRange(f"strip parameter must be in (0, sqrt 2), got {a}")

    def chart(s: np.ndarray, t: np.ndarray, out=None) -> tuple[np.ndarray, np.ndarray]:
        s, t = np.asarray(s, float), np.asarray(t, float)
        z1, z2 = _outputs(out, s, t)
        np.multiply(a * (-1j / math.sqrt(2)) * np.sqrt(1 + t**2), np.exp(2j * s), out=z1)
        np.multiply(a * t, np.exp(-1j * s), out=z2)
        return z1, z2

    return ImmersionFamily("strip", chart)


def cone_family() -> ImmersionFamily:
    def chart(s: np.ndarray, t: np.ndarray, out=None) -> tuple[np.ndarray, np.ndarray]:
        s, t = np.asarray(s, float), np.asarray(t, float)
        z1, z2 = _outputs(out, s, t)
        np.multiply((-1j / math.sqrt(2)) * np.abs(t), np.exp(2j * s), out=z1)
        np.multiply(t, np.exp(-1j * s), out=z2)
        return z1, z2

    return ImmersionFamily("cone", chart, apex_excluded=True)


def umbrella_family() -> ImmersionFamily:
    def chart(t: np.ndarray, u: np.ndarray, out=None) -> tuple[np.ndarray, np.ndarray]:
        t, u = np.asarray(t, float), np.asarray(u, float)
        z1, z2 = _outputs(out, t, u)
        np.add(t**2, np.multiply(1j * t, u, out=z1), out=z1)
        np.add(u, (2.0 / 3.0) * 1j * t**3, out=z2)
        return z1, z2

    return ImmersionFamily("umbrella", chart)


def boundary_curve(s: np.ndarray) -> np.ndarray:
    """The cone's boundary circle on the unit sphere, as (N, 4) samples."""
    s = np.asarray(s, float)
    z1 = (-1j / math.sqrt(3)) * np.exp(2j * s)
    z2 = math.sqrt(2.0 / 3.0) * np.exp(-1j * s)
    return _pack(z1, z2)


def boundary_curve_tangent(s: np.ndarray) -> np.ndarray:
    """Exact derivative of :func:`boundary_curve`."""
    s = np.asarray(s, float)
    t1 = (2.0 / math.sqrt(3)) * np.exp(2j * s)
    t2 = -1j * math.sqrt(2.0 / 3.0) * np.exp(-1j * s)
    return _pack(t1, t2)


def _difference_quotient(chart, plus, minus, width: float, out, scratch):
    """``(chart(*plus) - chart(*minus)) / width``, in place in ``out``.

    ``chart(*minus)`` is written into ``scratch``.  The quotient is taken per
    real component, through a float view of each coordinate, as on the
    packed (q1, p1, q2, p2) array: a complex array divided by a float is
    multiplied by its reciprocal, which changes bits.
    """
    z1, z2 = chart(*plus, out=out)
    w1, w2 = chart(*minus, out=scratch)
    for z, w in ((z1, w1), (z2, w2)):
        z -= w
        parts = z.view(float)
        parts /= width
    return z1, z2


def pullback_residual(
    family: ImmersionFamily,
    first: np.ndarray,
    second: np.ndarray,
    step: float = 1e-4,
    tolerance: float = 1e-6,
) -> VerificationReport:
    """Max |omega(d1 f, d2 f)| over the grid, derivatives by central differences.

    A vanishing pullback of the symplectic pairing is what makes the sheet
    Lagrangian; the residual is bounded by the scheme truncation ~ step^2.
    Raises ResidualNotFinite, naming the step, when the sweep overflows.

    The grid is swept in blocks of rows, each a column of first values
    against the row of second ones, of about ``_TILE_ELEMENTS`` points.
    Every block is written into arrays allocated once per call: the
    quotients ``u`` along the first axis and ``v`` along the second, each a
    complex pair, and the pair ``w`` that the charts at the minus points
    fill.  Once both quotients are taken ``w`` is spent, and omega and its
    terms are written into float views of its first half.  omega is
    :func:`symplectic_pairing` of the quotients, term for term and in its
    order, so the residual keeps the bits of the packed sweep.  The sweep
    runs with numpy's ufunc buffer no longer than one row of the grid
    (:func:`lagsurf.linking._tile_loop`), so numpy does not copy the
    broadcast column and row of a block into its buffer.
    """
    if not 0 < step < math.inf:
        raise ValueError(f"step must be positive and finite, got {step}")
    first, second = np.asarray(first, float), np.asarray(second, float)
    if family.apex_excluded and np.min(np.abs(second)) <= 2 * step:
        raise GridOutsideDomain(
            f"{family.name} family needs the grid clear of its apex at T = 0"
        )
    tile = max(1, _TILE_ELEMENTS // max(len(second), 1))
    block = (min(tile, len(first)), len(second))
    pairs = np.empty((3, 2, *block), complex)
    row, width = second[None, :], 2 * step
    maxima = []
    with _tile_loop(len(second)):
        for start in range(0, len(first), tile):
            column = first[start : start + tile, None]
            u, v, w = pairs[:, :, : len(column)]
            u1, u2 = _difference_quotient(
                family.chart, (column + step, row), (column - step, row), width, u, w
            )
            v1, v2 = _difference_quotient(
                family.chart, (column, row + step), (column, row - step), width, v, w
            )
            # the spent w[0] holds two floats per point: omega and a term
            pairing, scratch = w[0].view(float).reshape(2, *w[0].shape)
            np.multiply(u1.real, v1.imag, out=pairing)
            pairing -= np.multiply(u1.imag, v1.real, out=scratch)
            pairing += np.multiply(u2.real, v2.imag, out=scratch)
            pairing -= np.multiply(u2.imag, v2.real, out=scratch)
            maxima.append(np.max(np.abs(pairing, out=pairing)))
    residual = np.max(maxima)
    if not math.isfinite(residual):
        raise ResidualNotFinite(f"pullback residual is not finite at step {step:g}")
    grid = f"{family.name} {len(first)}x{len(second)} step {step:g}"
    return VerificationReport.from_residual(residual, grid, tolerance)


def strip_identities(a: float) -> VerificationReport:
    """Deck identity, unit-sphere boundary, and boundary transversality.

    Checks strip_A(s + pi, -T) = strip_A(s, T) over a grid, |strip_A| = 1 at
    |T| = half_width(A), and that the radial derivative d|strip|^2/dT stays
    away from zero at the boundary (so the strip meets the sphere
    transversally).  The transversality margin enters the residual as a
    shortfall below 1e-3, which is 0 for every parameter away from sqrt 2.
    The report passes iff the residual is at most 1e-12.
    """
    family = strip_family(a)
    half = strip_half_width(a)
    samples = 256
    s = np.linspace(0.0, 2 * math.pi, samples, endpoint=False)
    t = np.linspace(-half, half, 33)
    sg, tg = s[:, None], t[None, :]

    deck = np.max(
        np.abs(family.evaluator(sg + math.pi, -tg) - family.evaluator(sg, tg))
    )
    edge = np.concatenate(
        [family.evaluator(s, np.full_like(s, half)),
         family.evaluator(s, np.full_like(s, -half))]
    )
    boundary = np.max(np.abs(np.linalg.norm(edge, axis=-1) - 1.0))

    h = 1e-6
    plus = np.linalg.norm(family.evaluator(s, np.full_like(s, half + h)), axis=-1)
    minus = np.linalg.norm(family.evaluator(s, np.full_like(s, half - h)), axis=-1)
    radial_rate = np.min(np.abs(plus**2 - minus**2)) / (2 * h)
    shortfall = max(0.0, 1e-3 - radial_rate)

    residual = max(deck, boundary, shortfall)
    return VerificationReport.from_residual(residual, f"strip A={a:g} {samples} samples", 1e-12)


# Consecutive distance ratios pass within 20% of the quartering 1/4.
_CONVERGENCE_BAND = (0.2, 0.3)


@dataclass(frozen=True)
class ConvergenceReport:
    """Sup-distances of rescaled strips from the cone, with step ratios.

    ``passed`` iff every ratio lies in the band [0.2, 0.3] around 1/4.
    """

    a_values: tuple[float, ...]
    distances: tuple[float, ...]
    ratios: tuple[float, ...]
    passed: bool


def convergence_to_cone(a_values) -> ConvergenceReport:
    """d(A) = sup |strip_A(s, T/A) - cone(s, T)| over the annulus 0.5 <= T <= 1.

    Away from T = 0 the gap is (1/sqrt 2)(sqrt(A^2 + T^2) - |T|), of order
    A^2, so halving A quarters the distance; the report passes iff the
    consecutive ratios of a descending ``a_values`` lie within 20% of 1/4.
    """
    a_values = tuple(float(a) for a in a_values)
    s = np.linspace(0.0, 2 * math.pi, 64, endpoint=False)
    t = np.linspace(0.5, 1.0, 64)
    sg, tg = s[:, None], t[None, :]
    cone = cone_family()
    reference = cone.evaluator(sg, tg)

    distances = []
    for a in a_values:
        rescaled = strip_family(a).evaluator(sg, tg / a)
        distances.append(float(np.max(np.linalg.norm(rescaled - reference, axis=-1))))
    ratios = tuple(d2 / d1 for d1, d2 in zip(distances, distances[1:]))
    low, high = _CONVERGENCE_BAND
    passed = all(low <= ratio <= high for ratio in ratios)
    return ConvergenceReport(a_values, tuple(distances), ratios, passed)


def liouville_identity() -> VerificationReport:
    """Pushforward of the plane field t dt + 2u du equals 5X on the umbrella.

    X is the radial Liouville field (1/5)(2 q1, 3 p1, 2 q2, 3 p2).  The left
    side uses the exact Jacobian of the umbrella map, the right side
    evaluates X at the mapped point; both are polynomial, so the residual is
    zero to round-off, and the report passes iff it is at most 1e-12.
    """
    low, high, samples = -2.0, 2.0, 41
    line = np.linspace(low, high, samples)
    t, u = line[:, None], line[None, :]
    # exact Jacobian applied to (t, 2u): columns of DF are d/dt and d/du
    pushed = np.stack(
        np.broadcast_arrays(
            2 * t * t,
            t * u + 2 * u * t,
            2 * u,
            2 * t**3,
        ),
        axis=-1,
    )
    image = umbrella_family().evaluator(t, u)
    field = np.stack(
        [2 * image[..., 0], 3 * image[..., 1], 2 * image[..., 2], 3 * image[..., 3]],
        axis=-1,
    )
    residual = np.max(np.abs(pushed - field))
    return VerificationReport.from_residual(
        residual, f"umbrella {samples}x{samples} on [{low},{high}]^2", 1e-12
    )


def legendrian_residual(tolerance: float = 1e-6, perturbation: float = 0.0) -> VerificationReport:
    """Unit-norm and contact-tangency residuals of the boundary circle.

    The pristine curve uses its exact tangent, so both residuals sit at
    round-off.  A nonzero ``perturbation`` pushes the curve along the Reeb
    direction by perturbation*sin(s) (staying on the sphere) and switches to
    central differences; the contact residual then rises to the order of the
    perturbation, which is the negative control.
    """
    samples = 1024
    s = np.linspace(0.0, 2 * math.pi, samples, endpoint=False)
    if perturbation == 0.0:
        points = boundary_curve(s)
        tangent = boundary_curve_tangent(s)
    else:
        def curve(values: np.ndarray) -> np.ndarray:
            z1, z2 = _split(boundary_curve(values))
            phase = np.exp(1j * perturbation * np.sin(values))
            return _pack(z1 * phase, z2 * phase)

        h = 1e-5
        points = curve(s)
        tangent = (curve(s + h) - curve(s - h)) / (2 * h)
    norm_residual = np.max(np.abs(np.linalg.norm(points, axis=-1) - 1.0))
    contact_residual = np.max(np.abs(radial_contact(points, tangent)))
    residual = max(norm_residual, contact_residual)
    return VerificationReport.from_residual(
        residual, f"boundary curve {samples} samples", tolerance
    )
