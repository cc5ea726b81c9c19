#!/usr/bin/env python3
"""Run every numeric verification family and print one line per check."""

import argparse
import math
import sys

import numpy as np

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
from lagsurf.linking import contact_framing, tangent_winding


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--grid", type=int, default=64)
    parser.add_argument("--samples", type=int, default=1024)
    args = parser.parse_args(argv)

    failures = 0

    def report(label: str, ok: bool, detail: str) -> None:
        nonlocal failures
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL'}  {label:34s} {detail}")

    half_turn = np.linspace(0.0, math.pi, args.grid)
    for a in (0.1, 0.5, 1.0):
        half = strip_half_width(a)
        rep = pullback_residual(
            strip_family(a), half_turn, np.linspace(-half, half, args.grid)
        )
        report(f"strip pullback (a={a})", rep.passed, f"residual {rep.max_residual:.2e}")
        rep = strip_identities(a)
        report(f"strip identities (a={a})", rep.passed, f"residual {rep.max_residual:.2e}")

    rep = pullback_residual(
        cone_family(), half_turn, np.linspace(0.1, 1.0, args.grid)
    )
    report("cone pullback", rep.passed, f"residual {rep.max_residual:.2e}")

    square = np.linspace(-1.0, 1.0, args.grid)
    rep = pullback_residual(umbrella_family(), square, square)
    report("umbrella pullback", rep.passed, f"residual {rep.max_residual:.2e}")
    rep = liouville_identity()
    report("umbrella radial identity", rep.passed, f"residual {rep.max_residual:.2e}")

    conv = convergence_to_cone([0.2, 0.1, 0.05])
    report("strip-to-cone convergence", conv.passed,
           "ratios " + ", ".join(f"{r:.3f}" for r in conv.ratios))

    rep = legendrian_residual(samples=args.samples)
    report("boundary curve tangency", rep.passed, f"residual {rep.max_residual:.2e}")
    rep = legendrian_residual(samples=args.samples, perturbation=0.01)
    report("perturbed negative control", not rep.passed,
           f"residual {rep.max_residual:.2e} (must fail)")

    s = np.linspace(0.0, 2 * math.pi, args.samples, endpoint=False)
    curve = boundary_curve(s)
    framing, winding = contact_framing(curve), tangent_winding(curve)
    report("boundary curve framing", framing == -2, f"value {framing}")
    report("boundary curve winding", winding == 1, f"value {winding}")

    flat = np.stack([np.cos(s), np.zeros_like(s), np.sin(s), np.zeros_like(s)], axis=-1)
    report("flat circle framing", contact_framing(flat) == -1,
           f"value {contact_framing(flat)}")

    print(f"{failures} failing checks" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(run())
