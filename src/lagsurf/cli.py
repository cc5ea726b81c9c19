"""Command-line surface tying the front, surface, classifier, and numeric
layers together.

Exit codes: 0 success, 1 domain error (invalid input, a file that cannot be
read or written, failed verification), 2 usage error.  A domain error is any
``ValueError``, which every lagsurf error is, or an ``OSError``; it prints one
``error:`` line, and an error in a surface script names its line.  All JSON
output carries ``"schema": 1`` and sorted keys; surface-build scripts are
line-oriented verb lists that map one-to-one onto the cobordism operations,
so derivation witnesses double as runnable scripts.
"""

from __future__ import annotations

import argparse
import math
import sys
from functools import cache
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    from .fronts import FrontDiagram
    from .moves import MoveInstance
    from .surfaces import SurfaceComplex
    from .table import Rule

def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _json_text(payload: dict) -> str:
    """The payload with ``"schema": 1``, indented and with sorted keys."""
    import json

    return json.dumps({"schema": 1, **payload}, indent=2, sort_keys=True, allow_nan=False)


def _emit_json(payload: dict) -> None:
    print(_json_text(payload))


def _load_diagram(path: str) -> tuple[str, FrontDiagram]:
    from .dsl import parse_front

    doc = parse_front(_read_text(path))
    return doc.name, doc.to_diagram()


# -- front ---------------------------------------------------------------


def _front_stats(args) -> int:
    name, diagram = _load_diagram(args.file)
    # every event that is not a crossing is a cusp
    crossings = len(diagram._structure.crossings)
    _emit_json(
        {
            "name": name,
            "notation": diagram.notation(),
            "components": diagram.component_count,
            "invariants": [list(pair) for pair in diagram.classical_invariants()],
            "linking": [list(row) for row in diagram.linking_matrix()],
            "max_strands": diagram.max_strands,
            "cusps": len(diagram.events) - crossings,
            "crossings": crossings,
        }
    )
    return 0


def _front_render(args) -> int:
    from .render import render_svg

    _, diagram = _load_diagram(args.file)
    svg = render_svg(diagram)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(svg)
    else:
        sys.stdout.write(svg)
    return 0


def _front_check(args) -> int:
    name, diagram = _load_diagram(args.file)
    print(f"ok: {name} components={diagram.component_count}")
    return 0


# -- moves ---------------------------------------------------------------


def _parse_move(text: str) -> MoveInstance:
    from .moves import MoveDirection, MoveId, MoveInstance

    try:
        head, tail = text.split("@", 1)
        index, pos, direction = tail.split(":")
        return MoveInstance(
            MoveId(head), (int(index), int(pos)), MoveDirection(direction)
        )
    except ValueError as err:
        raise ValueError(f"bad move spec {text!r} "
                         "(want id@index:pos:forward|backward)") from err


def _moves_list(args) -> int:
    from .moves import applicable_moves

    _, diagram = _load_diagram(args.file)
    for move in applicable_moves(diagram):
        print(move)
    return 0


def _moves_apply(args) -> int:
    from .moves import apply_move

    _, diagram = _load_diagram(args.file)
    for spec in args.move:
        diagram = apply_move(diagram, _parse_move(spec))
    print(diagram.notation() or "(empty)")
    return 0


def _moves_equiv(args) -> int:
    from .moves import equivalent_within

    _, first = _load_diagram(args.first)
    _, second = _load_diagram(args.second)
    witness = equivalent_within(first, second, args.depth)
    if witness is None:
        print(f"no witness found within depth {args.depth}")
        return 1
    if not witness:
        print("identical")
        return 0
    for move in witness:
        print(move)
    return 0


# -- surface scripts -----------------------------------------------------


def _script_arg(kind, token: str):
    if kind is not int:
        return kind(token)
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"expected an integer, got {token!r}")


def _genus(token: str) -> int:
    """A ``genus`` argument whose surface has chi at least ``_TABLE_MIN_CHI``."""
    genus = _script_arg(int, token)
    if 2 - 2 * genus < _TABLE_MIN_CHI:
        raise ValueError(
            f"genus {genus} has chi {2 - 2 * genus}, below the lowest chi {_TABLE_MIN_CHI}"
        )
    return genus


_STARTERS = ("klein", "genus", "piece")


@cache
def _script_verbs() -> dict:
    """Each script verb's operation and the types of its arguments.

    A starter's operation makes the surface; every other one takes the
    surface first.  The one dict of this process.
    """
    from .fronts import FrontDiagram, word
    from .surfaces import (
        cone_cap,
        genus_chain,
        glue_mobius_three_umbrellas,
        klein_base,
        mark_umbrella,
        mobius_smoothing,
        one_handle,
        piece,
        split_cone,
    )

    return {
        "klein": (klein_base, ()),
        "genus": (genus_chain, (_genus,)),
        "piece": (piece, (str,)),
        "split": (split_cone, (int,)),
        "smooth": (mobius_smoothing, (int,)),
        "glue3": (glue_mobius_three_umbrellas, ()),
        "mark": (mark_umbrella, (int,)),
        "cap": (cone_cap, (int, lambda text: FrontDiagram(word(text)))),
        "handle": (one_handle, (int, int)),
    }


def _script_line(surface: SurfaceComplex | None, tokens: list[str]):
    """The surface after one script line, given as its tokens, verb first."""
    verbs = _script_verbs()
    verb = tokens[0]
    if verb in _STARTERS:
        if surface is not None:
            raise ValueError("a script has exactly one starter line")
    elif surface is None:
        raise ValueError("script must start with klein, genus, or piece")
    elif verb not in verbs:
        raise ValueError(f"unknown verb {verb!r}")
    operation, kinds = verbs[verb]
    if verb == "cap" and len(tokens) > 1:
        # the model word is the rest of the line, possibly empty
        tokens = [*tokens[:2], " ".join(tokens[2:])]
    if len(tokens) != 1 + len(kinds):
        problem = "is missing" if len(tokens) <= len(kinds) else "has too many"
        raise ValueError(f"{verb} {problem} arguments")
    args = [_script_arg(kind, token) for kind, token in zip(kinds, tokens[1:])]
    return operation(*args) if surface is None else operation(surface, *args)


def run_surface_script(text: str) -> SurfaceComplex:
    """Execute a line-oriented build script and return the final complex.

    An error on a line keeps its type and gains the prefix ``script line N:``.
    """
    surface: SurfaceComplex | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        cut = raw.find("#")
        tokens = (raw[:cut] if cut >= 0 else raw).split()
        if tokens:
            try:
                surface = _script_line(surface, tokens)
            except ValueError as err:
                err.args = (f"script line {lineno}: {err}",)
                raise
    if surface is None:
        raise ValueError("empty script")
    return surface


def _surface_payload(surface: SurfaceComplex) -> dict:
    from .surfaces import euler_number

    return {
        "chi": surface.chi,
        "orientable": surface.orientable,
        "closed": surface.is_closed,
        "euler": euler_number(surface) if surface.is_closed else None,
        "boundary": surface.boundary.notation(),
        "boundary_components": surface.boundary.component_count,
        "singularities": [
            [s.model_tb, s.model_rot, s.umbrella] for s in surface.singularities
        ],
    }


def _surface_build(args) -> int:
    _emit_json(_surface_payload(run_surface_script(_read_text(args.script))))
    return 0


def _surface_euler(args) -> int:
    from .surfaces import euler_number

    print(euler_number(run_surface_script(_read_text(args.script))))
    return 0


# -- classify / table ------------------------------------------------------


# The surface-script line of each derivation rule, keyed by the rule's
# string; a ``table.Rule`` is a str, so it finds its line.
_RULE_LINES = {"vertical": "glue3", "diagonal": "smooth 0"}


def witness_script(path: Sequence[Rule]) -> list[str]:
    """Render a derivation witness as surface-script lines."""
    return ["klein"] + [_RULE_LINES[rule] for rule in path]


def _classify(args) -> int:
    from .classify import massey_set, rationally_convex_set, stein_set, umbrella_count

    chi, e, orientable = args.chi, args.euler, args.orientable
    rc = e in rationally_convex_set(chi, orientable)
    st = e in stein_set(chi, orientable)
    ms = e in massey_set(chi, orientable)
    umbrella_points = umbrella_count(chi, e) if rc else None
    if args.format == "json":
        _emit_json(
            {
                "chi": chi,
                "euler": e,
                "orientable": orientable,
                "rationally_convex": rc,
                "stein": st,
                "massey": ms,
                "umbrella_points": umbrella_points,
            }
        )
    else:
        print(f"rationally_convex: {str(rc).lower()}; stein: {str(st).lower()}")
        tail = "none" if umbrella_points is None else umbrella_points
        print(f"massey: {str(ms).lower()}; umbrella_points: {tail}")
    return 0


def _write_table_json(graph) -> None:
    """Print the table payload as ``_emit_json`` would, without encoding it.

    The header is the payload with no witnesses, through ``_json_text``; each
    witness is then written as its fixed indented block, rows in order of
    decreasing chi and each row by increasing Euler number.
    """
    import json

    rows = [
        {"chi": chi, "euler": list(graph.row(chi))}
        for chi in range(0, graph.min_chi - 1, -1)
    ]
    header = _json_text({"min_chi": graph.min_chi, "rows": rows, "witnesses": []})
    lines = {rule: ",\n        " + json.dumps(line) for rule, line in _RULE_LINES.items()}
    scripts = graph.fold('        "klein"', lambda script, rule: script + lines[rule])
    write = sys.stdout.write
    write(header.removesuffix("[]\n}") + "[\n")
    separator = ""
    for i, (row, row_scripts) in enumerate(zip(graph.eulers, scripts)):
        for e, script in sorted(zip(row, row_scripts)):
            write(
                f'{separator}    {{\n      "chi": {-i},\n      "euler": {e},\n'
                f'      "script": [\n{script}\n      ]\n    }}'
            )
            separator = ",\n"
    write("\n  ]\n}\n")


# The lowest chi of --min-chi, classify --chi and a script's genus: the closure
# grows as chi squared, and below this ``table --check`` no longer answers
# within seconds.
_TABLE_MIN_CHI = -2000
# The lowest --min-chi of ``--format json``: its witness scripts grow as chi
# cubed, 38.8 MB at -200 and 300 MB here.
_TABLE_JSON_MIN_CHI = -400


def _table(args) -> int:
    if args.format == "json" and args.min_chi < _TABLE_JSON_MIN_CHI:
        args.usage_error(
            f"--format json needs --min-chi at least {_TABLE_JSON_MIN_CHI}, got {args.min_chi}"
        )
    from .table import derive_table

    graph = derive_table(args.min_chi)
    if args.format == "json":
        _write_table_json(graph)
    else:
        for chi in range(0, args.min_chi - 1, -1):
            cells = " ".join(map(str, graph.row(chi)))
            print(f"chi {chi:>3}: {cells}")
    return 0


def _table_check(args) -> int:
    if args.format is not None:
        args.usage_error("--format does not apply to --check")
    from .table import verify_closure

    report = verify_closure(args.min_chi)
    print(f"closure verified to chi {report.min_chi}: {report.node_count} nodes")
    return 0


# -- verify ----------------------------------------------------------------

# Points per axis of the strip, cone and umbrella grids without --grid, and
# the most that --grid takes: a sweep grows as grid^2, and one 4096^2 sweep
# takes about half a second on a 2-core Xeon.
_DEFAULT_GRID = 64
_MAX_GRID = 4096

# The options of ``verify`` with their defaults, and the ones each family
# reads; giving an option that the family does not read is a usage error.
_VERIFY_DEFAULTS = {"a": 0.5, "grid": _DEFAULT_GRID, "step": 1e-4, "tolerance": 1e-6, "csv": None}
_VERIFY_READS = {
    "strip": ("a", "grid", "step", "tolerance", "csv"),
    "cone": ("grid", "step", "tolerance", "csv"),
    "umbrella": ("grid", "step", "tolerance", "csv"),
    "curve": ("tolerance", "csv"),
    "convergence": (),
}


def _report_dict(check: str, report) -> dict:
    from dataclasses import asdict

    return {"check": check, **asdict(report)}


def _write_csv(path: str, params: Sequence[str], rows) -> None:
    """One line per sample: its parameters, then its point in 4-space."""
    import csv

    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow([*params, "q1", "p1", "q2", "p2"])
        for values, point in rows:
            writer.writerow([*(f"{v:.6f}" for v in values), *(f"{c:.9f}" for c in point)])


def _verify_options(args) -> None:
    """Fill in the defaults; a usage error for an unread option or a bad tolerance."""
    for option, default in _VERIFY_DEFAULTS.items():
        if getattr(args, option) is None:
            setattr(args, option, default)
        elif option not in _VERIFY_READS[args.family]:
            *others, last = (f for f, reads in _VERIFY_READS.items() if option in reads)
            families = f"{', '.join(others)} and {last}" if others else last
            args.usage_error(f"--{option} applies to {families} only")
    if not 0 <= args.tolerance < math.inf:
        args.usage_error(f"--tolerance must be finite and at least 0, got {args.tolerance}")


def _verify(args) -> int:
    _verify_options(args)

    import numpy as np

    from .immersions import (
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
    from .linking import contact_framing, tangent_winding

    # Each family gives its (check, report) pairs, extra JSON fields, whether
    # those fields hold their required values, and its samples for the CSV as
    # (columns, rows), or None.
    def grid(family, first, second, *checks, **extra):
        pullback = pullback_residual(family, first, second, args.step, args.tolerance)
        rows = (
            ((a, b), point)
            for a in first
            for b, point in zip(second, family.evaluator(np.full_like(second, a), second))
        )
        return [("pullback", pullback), *checks], extra, True, (("a", "b"), rows)

    def strip():
        half = strip_half_width(args.a)
        return grid(
            strip_family(args.a),
            np.linspace(0.0, math.pi, args.grid),
            np.linspace(-half, half, args.grid),
            ("identities", strip_identities(args.a)),
            a=args.a,
        )

    def umbrella():
        square = np.linspace(-1.0, 1.0, args.grid)
        return grid(umbrella_family(), square, square, ("liouville", liouville_identity()))

    def curve():
        s = np.linspace(0.0, 2 * math.pi, 512, endpoint=False)
        points = boundary_curve(s)
        legendrian = legendrian_residual(tolerance=args.tolerance)
        extra = {"framing": contact_framing(points), "winding": tangent_winding(points)}
        extra_ok = extra == {"framing": -2, "winding": 1}
        rows = (((value,), point) for value, point in zip(s, points))
        return [("legendrian", legendrian)], extra, extra_ok, (("s",), rows)

    families = {
        "strip": strip,
        "cone": lambda: grid(
            cone_family(),
            np.linspace(0.0, math.pi, args.grid),
            np.linspace(0.1, 1.0, args.grid),
        ),
        "umbrella": umbrella,
        "curve": curve,
        "convergence": lambda: (
            [("convergence", convergence_to_cone([0.2, 0.1, 0.05]))], {}, True, None
        ),
    }
    checks, extra, extra_ok, samples = families[args.family]()
    if args.csv:
        _write_csv(args.csv, *samples)

    reports = [_report_dict(check, report) for check, report in checks]
    passed = extra_ok and all(r["passed"] for r in reports)
    _emit_json({"family": args.family, "passed": passed, **extra, "reports": reports})
    return 0 if passed else 1


# -- parser ----------------------------------------------------------------


def _int_in(low: int, high: float = math.inf):
    """An argparse type: an int no less than ``low`` and no more than ``high``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {value}")
        return value

    parse.__name__ = "int"
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lagsurf",
        description="Front words, singular-surface assembly, and numeric checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    front = sub.add_parser("front", help="front-word documents")
    front_sub = front.add_subparsers(dest="action", required=True)
    p = front_sub.add_parser("stats", help="invariants as JSON")
    p.add_argument("file")
    p.set_defaults(handler=_front_stats)
    p = front_sub.add_parser("render", help="deterministic SVG")
    p.add_argument("file")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_front_render)
    p = front_sub.add_parser("check", help="validate a document")
    p.add_argument("file")
    p.set_defaults(handler=_front_check)

    moves = sub.add_parser("moves", help="diagram rewrites")
    moves_sub = moves.add_subparsers(dest="action", required=True)
    p = moves_sub.add_parser("list", help="applicable moves")
    p.add_argument("file")
    p.set_defaults(handler=_moves_list)
    p = moves_sub.add_parser("apply", help="apply move specs in order")
    p.add_argument("file")
    p.add_argument("move", nargs="+")
    p.set_defaults(handler=_moves_apply)
    p = moves_sub.add_parser("equiv", help="search for a rewrite witness")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--depth", type=_int_in(0), default=3)
    p.set_defaults(handler=_moves_equiv)

    surface = sub.add_parser("surface", help="run build scripts")
    surface_sub = surface.add_subparsers(dest="action", required=True)
    p = surface_sub.add_parser("build", help="run a script, print the summary")
    p.add_argument("script")
    p.set_defaults(handler=_surface_build)
    p = surface_sub.add_parser("euler", help="run a script, print the twist number")
    p.add_argument("script")
    p.set_defaults(handler=_surface_euler)

    p = sub.add_parser("classify", help="membership in the realization sets")
    p.add_argument("--chi", type=_int_in(_TABLE_MIN_CHI), required=True,
                   help=f"Euler characteristic, at least {_TABLE_MIN_CHI}")
    p.add_argument("--euler", type=int, required=True)
    p.add_argument("--orientable", action="store_true")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(handler=_classify)

    p = sub.add_parser("table", help="derive the realization grid")
    p.add_argument("--min-chi", type=_int_in(_TABLE_MIN_CHI, 0), default=-5,
                   help=f"lowest chi level, {_TABLE_MIN_CHI} to 0; the closure "
                   f"holds about 0.38*chi^2 nodes, 1,504,001 at {_TABLE_MIN_CHI} (default -5)")
    p.add_argument("--format", choices=("text", "json"),
                   help=f"json needs --min-chi at least {_TABLE_JSON_MIN_CHI}: its witness "
                   "scripts grow as chi^3, 300 MB there (default text)")
    p.add_argument("--check", action="store_true",
                   help="verify the closure against the classifier instead")
    p.set_defaults(handler=lambda args: _table_check(args) if args.check else _table(args),
                   usage_error=p.error)

    p = sub.add_parser("verify", help="numeric residual checks")
    p.add_argument("family", choices=("strip", "cone", "umbrella", "curve", "convergence"))
    p.add_argument("--a", type=float)
    p.add_argument("--grid", type=_int_in(2, _MAX_GRID),
                   help=f"points per axis for strip, cone and umbrella, 2 to {_MAX_GRID} "
                   f"(default {_DEFAULT_GRID})")
    p.add_argument("--step", type=float)
    p.add_argument("--tolerance", type=float)
    p.add_argument("--csv")
    p.set_defaults(handler=_verify, usage_error=p.error)

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process; parsing leaves it unchanged."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError) as err:
        # every lagsurf error is a ValueError
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
