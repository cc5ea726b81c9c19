#!/usr/bin/env python3
"""Regenerate the realization grid and check it against the classifier.

Writes the grid (text or JSON, same payloads as ``lagsurf table``) and then
replays every derivation witness through the surface layer, checking that
each lands on its claimed (chi, twist) cell; a witness that does not is
reported as an ``error:`` line with exit status 1.
"""

import argparse
import sys

from lagsurf.cli import (
    _TABLE_MIN_CHI,
    _int_at_least,
    main as cli_main,
    run_surface_script,
    witness_script,
)
from lagsurf.surfaces import euler_number
from lagsurf.table import derive_table, verify_closure


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--min-chi", type=int, default=-5)
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--deep-check", type=_int_at_least(_TABLE_MIN_CHI), default=-12,
                        help=f"extra closure verification depth, at least {_TABLE_MIN_CHI}")
    args = parser.parse_args(argv)

    code = cli_main(["table", "--min-chi", str(args.min_chi), "--format", args.format])
    if code:
        return code

    graph = derive_table(args.min_chi)
    for node, path in sorted(graph.witnesses.items(), key=lambda kv: (-kv[0].chi, kv[0].euler)):
        surface = run_surface_script("\n".join(witness_script(path)) + "\n")
        landed = (surface.chi, euler_number(surface))
        if landed != (node.chi, node.euler):
            print(
                f"error: witness for (chi, e) = ({node.chi}, {node.euler}) "
                f"replays to {landed}",
                file=sys.stderr,
            )
            return 1
    print(f"replayed {len(graph.witnesses)} witnesses", file=sys.stderr)

    report = verify_closure(args.deep_check)
    print(
        f"closure matches the classifier to chi {report.min_chi} "
        f"({report.node_count} nodes)",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    sys.exit(run())
