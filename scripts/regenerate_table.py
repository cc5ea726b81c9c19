#!/usr/bin/env python3
"""Regenerate the realization grid and check it against the classifier.

Writes the grid (text or JSON, same payloads as ``lagsurf table``) and then
replays every derivation witness through the surface layer, checking that
each lands on its claimed (chi, twist) cell; a witness that does not is
reported as an ``error:`` line with exit status 1.  The replay folds over
the rows: each node's surface is its parent's with the one script line of
its last rule applied, so it takes one surface step per node.
"""

import argparse
import sys

from lagsurf.cli import (
    _RULE_LINES,
    _TABLE_MIN_CHI,
    _int_in,
    _script_line,
    main as cli_main,
)
from lagsurf.surfaces import euler_number
from lagsurf.table import derive_table, verify_closure


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--min-chi", type=int, default=-5)
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--deep-check", type=_int_in(_TABLE_MIN_CHI), default=-12,
                        help=f"extra closure verification depth, at least {_TABLE_MIN_CHI}")
    args = parser.parse_args(argv)

    code = cli_main(["table", "--min-chi", str(args.min_chi), "--format", args.format])
    if code:
        return code

    tokens = {rule: line.split() for rule, line in _RULE_LINES.items()}

    def step(surface, rule):
        # a child's surface is its parent's with the next line of its witness
        # script run; surfaces are frozen, so siblings share the parent's
        return _script_line(surface, tokens[rule])

    graph = derive_table(args.min_chi)
    rows = graph.fold(_script_line(None, ["klein"]), step)
    for i, (row, surfaces) in enumerate(zip(graph.eulers, rows)):
        for euler, surface in sorted(zip(row, surfaces), key=lambda pair: pair[0]):
            landed = (surface.chi, euler_number(surface))
            if landed != (-i, euler):
                print(
                    f"error: witness for (chi, e) = ({-i}, {euler}) replays to {landed}",
                    file=sys.stderr,
                )
                return 1
    print(f"replayed {sum(map(len, graph.eulers))} witnesses", file=sys.stderr)

    report = verify_closure(args.deep_check)
    print(
        f"closure matches the classifier to chi {report.min_chi} "
        f"({report.node_count} nodes)",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    sys.exit(run())
