"""s3-oracles: the numpy layers, ``linking`` and ``immersions``; no search.

Time and memory grow as N^2 for the linking oracles and as grid^2 for the
pullback residuals.  The seed shifts where each sampled curve starts (a
fraction of one sample step), which leaves every answer unchanged.
"""

from __future__ import annotations

import json
import math
import random

import numpy as np

from harness import ColdStart, Op, durations, med, require
from lagsurf.immersions import (
    boundary_curve,
    cone_family,
    convergence_to_cone,
    legendrian_residual,
    liouville_identity,
    pullback_residual,
    strip_family,
    strip_half_width,
    strip_identities,
    umbrella_family,
)
from lagsurf.linking import contact_framing, gauss_linking, linking_number, reeb_pushoff, tangent_winding

SIZES = (512, 1024, 2048, 4096)
GRIDS = (64, 1024)
STRIP_A = (0.1, 0.5, 1.0)
CONVERGENCE_A = (0.2, 0.1, 0.05)
EPSILON = 1e-2  # the push-off contact_framing itself uses
GAUSS_TOLERANCE = 0.05
HEAVY = 4096  # samples at which one linking call peaks above a GiB
# Hopf fibres go through gauss_linking only at sizes where it costs under 0.2 s.
HOPF_GAUSS_SIZES = (512, 1024)

# Known answers: framing is tb, winding is the degree of z1 T2 - z2 T1.
CURVES = {"boundary": (-2, 1), "flat": (-1, 0)}


def _pack(z1, z2) -> np.ndarray:
    return np.stack([np.real(z1), np.imag(z1), np.real(z2), np.imag(z2)], axis=-1)


def _samples(n: int, shift: float) -> np.ndarray:
    return (np.arange(n) + shift) * (2 * math.pi / n)


def build(seed: int, small: bool):
    rng = random.Random(seed)
    sizes = SIZES[:1] if small else SIZES
    curves = {}
    for n in sizes:
        s = _samples(n, rng.random())
        curves[n, "boundary"] = boundary_curve(s)
        curves[n, "flat"] = _pack(np.cos(s) + 0j, np.sin(s) + 0j)
        r = 1 / math.sqrt(2)
        a, b = np.exp(1j * _samples(n, rng.random())), np.exp(1j * _samples(n, rng.random()))
        curves[n, "hopf"] = (_pack(r * a, r * a), _pack(r * b, -r * b))
    grids = {}
    for g in GRIDS[:1] if small else GRIDS:
        for a in STRIP_A:
            half = strip_half_width(a)
            grids[g, f"strip{a:g}"] = (strip_family(a), np.linspace(0.0, math.pi, g), np.linspace(-half, half, g))
        grids[g, "cone"] = (cone_family(), np.linspace(0.0, math.pi, g), np.linspace(0.1, 1.0, g))
        line = np.linspace(-1.0, 1.0, g)
        grids[g, "umbrella"] = (umbrella_family(), line, line)
    return curves, grids


# -- operations ----------------------------------------------------------------------


def _equals(expected):
    def check(value) -> None:
        require(value == expected, f"got {value}, expected {expected}")

    return check


def _near(expected: float):
    def check(value) -> None:
        require(abs(value - expected) <= GAUSS_TOLERANCE, f"Gauss gives {value:.4f}, integer {expected}")

    return check


def _residual_at_most(tolerance: float):
    def check(report) -> None:
        require(report.max_residual <= tolerance, f"residual {report.max_residual:.3g} > {tolerance:g}")
        require(report.passed, "report does not pass")

    return check


def _curve_ops(n: int, name: str, curve: np.ndarray) -> list[Op]:
    framing, winding = CURVES[name]
    tags = {"n": n, "curve": name}
    heavy = n >= HEAVY
    fault = ""
    if (n, name) == (512, "boundary"):
        fault = "gauss_linking's midpoint rule gives -2.205 at N = 512 where the integer is -2"

    def gauss(t):
        pushoff = t.call("linking.reeb_pushoff", reeb_pushoff, curve, EPSILON)
        return t.call("linking.gauss_linking", gauss_linking, curve, pushoff)

    return [
        Op(f"framing/{name}/n{n}", lambda t: t.call("linking.contact_framing", contact_framing, curve),
           _equals(framing), tags, heavy=heavy),
        Op(f"winding/{name}/n{n}", lambda t: t.call("linking.tangent_winding", tangent_winding, curve),
           _equals(winding), tags),
        Op(f"gauss/{name}/n{n}", gauss, _near(framing), tags, fault, heavy=heavy),
    ]


def _hopf_ops(n: int, fibres) -> list[Op]:
    tags = {"n": n, "curve": "hopf"}
    ops = [Op(f"lk/hopf/n{n}", lambda t: t.call("linking.linking_number", linking_number, *fibres),
              _equals(1), tags, heavy=n >= HEAVY)]
    if n in HOPF_GAUSS_SIZES:
        ops.append(Op(f"gauss/hopf/n{n}", lambda t: t.call("linking.gauss_linking", gauss_linking, *fibres),
                      _near(1), tags))
    return ops


def _pullback_op(g: int, label: str, family, first, second) -> Op:
    def run(t):
        return t.call("immersions.pullback_residual", pullback_residual, family, first, second)

    return Op(f"pullback/{label}/g{g}", run, _residual_at_most(1e-6), {"grid": g})


def cone_gap(a: float) -> float:
    """sup over T in [0.5, 1] of (1/sqrt 2)(sqrt(A^2 + T^2) - T), reached at T = 0.5."""
    return (math.sqrt(a * a + 0.25) - 0.5) / math.sqrt(2)


def _check_convergence(report) -> None:
    for a, d in zip(report.a_values, report.distances):
        require(math.isclose(d, cone_gap(a), rel_tol=1e-9), f"d({a}) = {d}, closed form {cone_gap(a)}")


def _check_negative_control(report) -> None:
    require(not report.passed and report.max_residual > 1e-3, "perturbed curve passes as Legendrian")


def identity_ops() -> list[Op]:
    """The fixed identity checks of ``immersions`` (shared with cli-session)."""
    tags = {"check": True}
    ops = [
        Op(f"identities/strip{a:g}", lambda t, a=a: t.call("immersions.strip_identities", strip_identities, a),
           _residual_at_most(1e-12), tags)
        for a in STRIP_A
    ]
    ops += [
        Op("convergence", lambda t: t.call("immersions.convergence_to_cone", convergence_to_cone, CONVERGENCE_A),
           _check_convergence, tags),
        Op("liouville", lambda t: t.call("immersions.liouville_identity", liouville_identity),
           _residual_at_most(1e-12), tags),
        Op("legendrian", lambda t: t.call("immersions.legendrian_residual", legendrian_residual),
           _residual_at_most(1e-6), tags),
        Op("legendrian/perturbed",
           lambda t: t.call("immersions.legendrian_residual", legendrian_residual, perturbation=1e-2),
           _check_negative_control, tags),
    ]
    return ops


def curve_ops(curves) -> list[Op]:
    ops = []
    for (n, name), curve in curves.items():
        ops += _hopf_ops(n, curve) if name == "hopf" else _curve_ops(n, name, curve)
    return ops


def operations(inputs) -> list[Op]:
    curves, grids = inputs
    ops = curve_ops(curves)
    ops += [_pullback_op(g, label, *grid) for (g, label), grid in grids.items()]
    return ops + identity_ops()


def cold_starts() -> list[ColdStart]:
    def check(code: int, out: str) -> None:
        require(code == 0, f"exit {code}")
        payload = json.loads(out)
        require(payload["passed"] is True, "verify curve does not pass")
        require((payload["framing"], payload["winding"]) == CURVES["boundary"], "wrong framing or winding")

    return [ColdStart(["verify", "curve"], check)]


# -- per-layer metrics -------------------------------------------------------------


def linking_metrics(calls, peaks) -> dict[str, float]:
    metrics = {}
    sizes = sorted({op.tags["n"] for op, _ in calls if "n" in op.tags})
    for n in sizes:
        metrics[f"linking.framing_s.n{n}"] = med(durations(calls, "linking.contact_framing", n=n))
        metrics[f"linking.gauss_s.n{n}"] = med(durations(calls, "linking.gauss_linking", n=n))
        metrics[f"linking.lk_s.n{n}"] = med(durations(calls, "linking.linking_number", n=n))
        metrics[f"linking.winding_ms.n{n}"] = med(durations(calls, "linking.tangent_winding", n=n), 1e3)
        for kind in ("framing", "gauss"):
            metrics[f"linking.{kind}_mib.n{n}"] = max(
                mib for op, mib in peaks if op.tags.get("n") == n and op.name.startswith(kind + "/")
            )
    return metrics


def checks_ms(calls) -> float:
    """Total milliseconds of one pass of identity checks."""
    return 1e3 * sum(s for op, made in calls if op.tags.get("check") for _, s in made)


def layer_metrics(calls, notes, peaks) -> dict[str, float]:
    metrics = linking_metrics(calls, peaks)
    for g in GRIDS:
        metrics[f"immersions.pullback_ms.g{g}"] = med(durations(calls, "immersions.pullback_residual", grid=g), 1e3)
    metrics["immersions.pullback_mib.g1024"] = max(
        (mib for op, mib in peaks if op.tags.get("grid") == 1024), default=0.0
    )
    metrics["immersions.checks_ms"] = checks_ms(calls)
    return metrics
