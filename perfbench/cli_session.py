"""cli-session: the many small calls a CLI user drives, ``main([...])`` in-process.

Per-call overhead dominates here, not algorithmic cost.  Beside the CLI
verbs, the same small inputs (corpus words of at most 10 events, curves of
512 samples, grids of 64) go straight into each layer's public functions,
so a change that helps large inputs but costs small ones shows here.
"""

from __future__ import annotations

import atexit
import io
import json
import os
import random
import re
import shutil
import xml.etree.ElementTree as ET
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

import s3_oracles
from equiv_ladder import check_kink_count, parse_move
from harness import OUT_DIR, ROOT, ColdStart, Op, durations, med, require
from lagsurf.classify import massey_set, rationally_convex_set, stein_set
from lagsurf.cli import build_parser, main
from lagsurf.dsl import parse_front, serialize_front
from lagsurf.fronts import FrontDiagram, word
from lagsurf.immersions import cone_family, strip_family, strip_half_width, umbrella_family
from lagsurf.moves import MoveId, MoveInstance, applicable_moves, apply_move, apply_move_word
from lagsurf.render import render_svg
from lagsurf.surfaces import (
    cone_cap,
    euler_number,
    genus_chain,
    glue_mobius_three_umbrellas,
    klein_base,
    mark_umbrella,
    mobius_smoothing,
    standard_pieces,
)
from lagsurf.table import derive_table, verify_closure

CHI_RANGE = range(2, -13, -1)
E_PER_CHI = 4
TABLE_JSON_MIN_CHI = -40
TABLE_CHECK_MIN_CHI = -200
SCRIPTS = 6
PARSER_BUILDS = 5
EQUIV_DEPTH = 3
# Corpus pairs with a short witness, one identical word, and one pair whose
# invariants differ (component counts), which must print no witness.
EQUIV_PAIRS = [
    ("adaptor-widget", "unknot", True),
    ("kink-down", "nested-down", True),
    ("kink-up", "nested-up", True),
    ("nested-pair", "split-pair", True),
    ("three-sum-core-down", "three-sum-core", True),
    ("unknot", "hopf", False),
]
KINK_SPEC = "r1_kink_above@1:1:forward"
KINK = MoveInstance(MoveId.R1_KINK_ABOVE, (1, 1))
SVG_TAG = "{http://www.w3.org/2000/svg}svg"
PULLBACK_GRID = 64


# -- the paper's sets and bookkeeping, read independently of lagsurf ---------


def paper_sets(chi: int, orientable: bool) -> tuple[set[int], set[int], set[int]]:
    """(rationally convex, Stein, smooth) Euler numbers of closed surfaces."""
    if orientable:
        stein = {0} if chi <= 0 else set()
        return set(stein), stein, {0}
    span = range(2 * chi - 4, 4 - 2 * chi + 1)
    massey = {e for e in span if (e - 2 * chi) % 4 == 0}
    stein = {e for e in massey if e <= -2 * chi + 4 * (chi // 4)}
    rc = stein - ({-2} if chi == 1 else {0} if chi == 0 else set())
    return rc, stein, massey


def surfaces_exist(chi: int, orientable: bool) -> bool:
    return chi <= 2 and chi % 2 == 0 if orientable else chi <= 1


def random_script(rng: random.Random) -> tuple[list[str], int, bool, int]:
    """A surface build script with its chi, sidedness and basic cone points.

    Bookkeeping: glue3 lowers chi by one and adds three basic points;
    smoothing lowers chi by one and removes one; capping a trivial circle
    with the trivial model raises chi by one.
    """
    start = rng.choice(["klein", "genus", "piece"])
    if start == "klein":
        lines, chi, orientable, basic = ["klein"], 0, False, 4
    elif start == "genus":
        g = rng.randint(1, 4)
        return [f"genus {g}"], 2 - 2 * g, True, 2 * g - 2
    else:
        lines, chi, orientable, basic = ["piece mobius3", "cap 0 L1 R1"], 1, False, 3
    for _ in range(rng.randint(1, 5)):
        if basic and rng.random() < 0.5:
            lines.append("smooth 0")
            chi, basic = chi - 1, basic - 1
        else:
            lines.append("glue3")
            chi, basic = chi - 1, basic + 3
    if basic:
        lines.append("mark 0")
    return lines, chi, orientable, basic


# -- inputs --------------------------------------------------------------------------


def build(seed: int, small: bool):
    rng = random.Random(seed)
    manifest = json.loads((ROOT / "corpus" / "manifest.json").read_text())["files"]
    paths = sorted((ROOT / "corpus").glob("*.front"))
    if small:
        paths = paths[:3]
    corpus = {}
    for path in paths:
        text = path.read_text()
        doc = parse_front(text)
        corpus[path.stem] = (path, text, doc, doc.to_diagram(), manifest[path.stem])
    scratch = OUT_DIR / f"cli-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    atexit.register(shutil.rmtree, scratch, True)
    scripts = []
    for i in range(2 if small else SCRIPTS):
        lines, chi, orientable, basic = random_script(rng)
        path = scratch / f"script{i}.txt"
        path.write_text("\n".join(lines) + "\n")
        scripts.append((path, lines, chi, orientable, basic))
    cells = [
        (chi, orientable, e)
        for chi in (CHI_RANGE[::4] if small else CHI_RANGE)
        for orientable in (True, False)
        if surfaces_exist(chi, orientable)
        for e in rng.sample(range(2 * chi - 6, 7 - 2 * chi), E_PER_CHI)
    ]
    curves, _ = s3_oracles.build(seed, small=True)
    pieces = standard_pieces()
    return corpus, scratch, scripts, cells, curves, pieces, small


# -- CLI operations ---------------------------------------------------------------------


def _cli(verb: str, argv: list[str], check) -> Op:
    def run(t):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = t.call("cli.main", main, argv)
        return code, out.getvalue(), err.getvalue()

    def judged(result) -> None:
        code, out, err = result
        check(code, out, err)

    return Op("cli/" + " ".join(argv), run, judged, {"verb": verb})


def _ok(check):
    def wrapped(code, out, err) -> None:
        require(code == 0, f"exit {code}: {err.strip()}")
        check(out)

    return wrapped


def _check_stats(entry):
    def check(out) -> None:
        payload = json.loads(out)
        require(payload["components"] == entry["components"], "component count differs from manifest")
        require(payload["invariants"] == entry["invariants"], "invariants differ from manifest")
        require(payload["linking"] == entry["linking"], "linking differs from manifest")
        require(all((tb + rot) % 2 for tb, rot in payload["invariants"]), "tb + rot is even on a knot")

    return check


def _check_svg(path: Path, notation: str):
    def check(_out) -> None:
        root = ET.parse(path).getroot()
        require(root.tag == SVG_TAG, f"root element is {root.tag}")
        require(root.findtext(f"{{http://www.w3.org/2000/svg}}title") == (notation or "(empty)"), "wrong title")

    return check


def _check_listing(events):
    def check(out) -> None:
        check_kink_count(events, [parse_move(line) for line in out.split()])

    return check


def _kinked(events) -> str:
    inserted = events[:1] + word("L1 X2 R1") + events[1:]
    return " ".join(map(str, inserted))


def corpus_cli_ops(corpus, scratch) -> list[Op]:
    ops = []
    for name, (path, _text, _doc, diagram, entry) in corpus.items():
        rel = str(path)
        svg = scratch / f"{name}.svg"
        events = diagram.events
        ops += [
            _cli("front", ["front", "stats", rel], _ok(_check_stats(entry))),
            _cli("front", ["front", "check", rel], _ok(lambda out, n=name, c=entry["components"]: require(
                out.strip() == f"ok: {n} components={c}", f"check prints {out.strip()!r}"))),
            _cli("front", ["front", "render", rel, "--out", str(svg)], _ok(_check_svg(svg, diagram.notation()))),
            _cli("moves", ["moves", "list", rel], _ok(_check_listing(events))),
            _cli("moves", ["moves", "apply", rel, KINK_SPEC], _ok(lambda out, e=events: require(
                out.strip() == _kinked(e), f"apply prints {out.strip()!r}"))),
        ]
    return ops


def _check_surface(chi: int, orientable: bool, basic: int):
    euler = -chi - basic

    def check(out) -> None:
        payload = json.loads(out)
        require((payload["chi"], payload["orientable"], payload["closed"]) == (chi, orientable, True),
                "wrong chi, sidedness or closure")
        sings = payload["singularities"]
        require(len(sings) == basic and all(s[:2] in ([-2, 1], [-2, -1]) for s in sings),
                "wrong cone points")
        require(payload["euler"] == -chi + sum(tb + 1 for tb, _, _ in sings) == euler, "wrong Euler number")

    return check


def surface_cli_ops(scripts) -> list[Op]:
    ops = []
    for path, _lines, chi, orientable, basic in scripts:
        rel = str(path)
        ops.append(_cli("surface", ["surface", "build", rel], _ok(_check_surface(chi, orientable, basic))))
        ops.append(_cli("surface", ["surface", "euler", rel], _ok(lambda out, e=-chi - basic: require(
            out.strip() == str(e), f"euler prints {out.strip()!r}, expected {e}"))))
    return ops


def _check_classify(chi: int, orientable: bool, e: int, fmt: str):
    rc, stein, massey = paper_sets(chi, orientable)
    points = -chi - e if e in rc else None

    def check(out) -> None:
        if fmt == "json":
            payload = json.loads(out)
            got = (payload["rationally_convex"], payload["stein"], payload["massey"], payload["umbrella_points"])
        else:
            m = re.fullmatch(r"rationally_convex: (\w+); stein: (\w+)\nmassey: (\w+); umbrella_points: (\S+)\n", out)
            require(m is not None, f"unexpected text {out!r}")
            flags = [v == "true" for v in m.groups()[:3]]
            got = (*flags, None if m.group(4) == "none" else int(m.group(4)))
        require(got == (e in rc, e in stein, e in massey, points), f"classify gives {got}")

    return check


def classify_cli_ops(cells) -> list[Op]:
    ops = []
    for chi, orientable, e in cells:
        for fmt in ("text", "json"):
            argv = ["classify", "--chi", str(chi), "--euler", str(e), "--format", fmt]
            if orientable:
                argv.append("--orientable")
            ops.append(_cli("classify", argv, _ok(_check_classify(chi, orientable, e, fmt))))
    return ops


def _one_sided_rows(min_chi: int) -> list[tuple[int, list[int]]]:
    return [(chi, sorted(paper_sets(chi, False)[0])) for chi in range(0, min_chi - 1, -1)]


def _check_table_json(min_chi: int):
    def check(out) -> None:
        payload = json.loads(out)
        rows = [(r["chi"], r["euler"]) for r in payload["rows"]]
        require(rows == _one_sided_rows(min_chi), "table rows differ from the paper's sets")
        for w in payload["witnesses"]:
            chi, e = 0, -4
            require(w["script"][0] == "klein", "witness does not start from the seed bundle")
            for line in w["script"][1:]:
                chi, e = chi - 1, e - 2 if line == "glue3" else e + 2
            require((chi, e) == (w["chi"], w["euler"]), f"witness does not reach ({w['chi']}, {w['euler']})")
        require(len(payload["witnesses"]) == sum(len(r) for _, r in rows), "witness count differs")

    return check


def _check_table_nodes(min_chi: int):
    nodes = sum(len(row) for _, row in _one_sided_rows(min_chi))

    def check(out) -> None:
        require(out.strip() == f"closure verified to chi {min_chi}: {nodes} nodes", f"got {out.strip()!r}")

    return check


def _check_verify(family: str):
    def check(out) -> None:
        payload = json.loads(out)
        require(payload["passed"] is True, f"verify {family} does not pass")
        if family == "curve":
            require((payload["framing"], payload["winding"]) == s3_oracles.CURVES["boundary"],
                    "wrong framing or winding")
        if family == "convergence":
            for a, d in zip(payload["reports"][0]["a_values"], payload["reports"][0]["distances"]):
                require(abs(d - s3_oracles.cone_gap(a)) <= 1e-9 * d, "distance off the closed form")

    return check


def _check_equiv(first, second, expect_witness: bool):
    def check(code, out, err) -> None:
        if not expect_witness:
            require(code == 1 and out.strip() == f"no witness found within depth {EQUIV_DEPTH}",
                    f"exit {code}, {out.strip()!r}")
            return
        require(code == 0, f"exit {code}: {err.strip()}")
        if out.strip() == "identical":
            require(first == second, "'identical' for different words")
            return
        current = first
        for line in out.split():
            current = apply_move_word(current, parse_move(line))
        require(current == second, "printed witness does not replay")

    return check


def misc_cli_ops(small) -> list[Op]:
    check_chi = -12 if small else TABLE_CHECK_MIN_CHI
    ops = [
        _cli("table", ["table", "--format", "json", "--min-chi", str(TABLE_JSON_MIN_CHI)],
             _ok(_check_table_json(TABLE_JSON_MIN_CHI))),
        _cli("table", ["table", "--check", "--min-chi", str(check_chi)], _ok(_check_table_nodes(check_chi))),
    ]
    ops += [_cli("verify", ["verify", f], _ok(_check_verify(f)))
            for f in ("strip", "cone", "umbrella", "curve", "convergence")]
    for a, b, expect in EQUIV_PAIRS:
        paths = [ROOT / "corpus" / f"{n}.front" for n in (a, b)]
        first, second = (parse_front(p.read_text()).events for p in paths)
        ops.append(_cli("moves", ["moves", "equiv", *map(str, paths), "--depth", str(EQUIV_DEPTH)],
                        _check_equiv(first, second, expect)))
    return ops


# -- direct layer operations ---------------------------------------------------------


def corpus_layer_ops(corpus) -> list[Op]:
    ops = []
    for name, (_path, text, doc, diagram, entry) in corpus.items():
        events, signs = doc.events, diagram.orientations
        event_lines = sum(1 for line in text.splitlines() if line.split()[:1] in (["L"], ["X"], ["R"]))

        def invariants(t, d=diagram):
            return (t.call("fronts.classical_invariants", d.classical_invariants),
                    t.call("fronts.linking_matrix", d.linking_matrix))

        ops += [
            Op(f"dsl/parse/{name}", lambda t, x=text: t.call("dsl.parse_front", parse_front, x),
               lambda d, n=name, k=event_lines: require(d.name == n and len(d.events) == k, "parse differs")),
            Op(f"dsl/serialize/{name}", lambda t, d=doc: t.call("dsl.serialize_front", serialize_front, d),
               lambda out, d=doc: require(parse_front(out) == d, "serialize does not round-trip")),
            Op(f"fronts/construct/{name}",
               lambda t, e=events, o=signs: t.call("fronts.FrontDiagram", FrontDiagram, e, o),
               lambda d, c=entry["components"]: require(d.component_count == c, "component count differs")),
            Op(f"fronts/invariants/{name}", invariants,
               lambda r, m=entry: require([list(p) for p in r[0]] == m["invariants"]
                                          and [list(row) for row in r[1]] == m["linking"],
                                          "invariants differ from manifest")),
            Op(f"render/svg/{name}", lambda t, d=diagram: t.call("render.render_svg", render_svg, d),
               lambda svg, n=diagram.notation(): require(ET.fromstring(svg).tag == SVG_TAG
                                                        and f"<title>{n or '(empty)'}</title>" in svg, "bad SVG")),
            Op(f"moves/applicable/{name}", lambda t, d=diagram: _listed(t, d),
               lambda moves, e=events: check_kink_count(e, moves)),
            Op(f"moves/apply/{name}", lambda t, d=diagram: t.call("moves.apply_move", apply_move, d, KINK),
               lambda d, e=events: require(d.notation() == _kinked(e), "kink lands elsewhere")),
        ]
    return ops


def _listed(t, diagram):
    moves = t.call("moves.applicable_moves", applicable_moves, diagram)
    t.note("moves.applicable_found", len(moves))
    return moves


def _replay_script(t, lines, pieces):
    surface = None
    for line in lines:
        verb, *rest = line.split()
        if verb == "klein":
            surface = t.call("surfaces.klein_base", klein_base)
        elif verb == "genus":
            surface = t.call("surfaces.genus_chain", genus_chain, int(rest[0]))
        elif verb == "piece":
            surface = pieces[rest[0]]
        elif verb == "cap":
            model = FrontDiagram(word(" ".join(rest[1:])))
            surface = t.call("surfaces.cone_cap", cone_cap, surface, int(rest[0]), model)
        elif verb == "glue3":
            surface = t.call("surfaces.glue_mobius_three_umbrellas", glue_mobius_three_umbrellas, surface)
        elif verb == "smooth":
            surface = t.call("surfaces.mobius_smoothing", mobius_smoothing, surface, int(rest[0]))
        elif verb == "mark":
            surface = t.call("surfaces.mark_umbrella", mark_umbrella, surface, int(rest[0]))
    return surface, t.call("surfaces.euler_number", euler_number, surface)


def _check_pieces(pieces) -> None:
    shape = {
        name: (s.chi, s.orientable, len(s.singularities), s.boundary.component_count,
               [abs(x) for row in s.boundary.linking_matrix() for x in row])
        for name, s in pieces.items()
    }
    require(shape == {
        "cylinder2": (0, True, 2, 2, [0, 0, 0, 0]),
        "mobius3": (0, False, 3, 1, [0]),
        "cylinder4": (0, True, 4, 2, [0, 1, 1, 0]),
    }, f"catalog pieces are {shape}")


def surface_layer_ops(scripts, pieces) -> list[Op]:
    ops = [Op("surfaces/pieces", lambda t: t.call("surfaces.standard_pieces", standard_pieces), _check_pieces)]
    for i, (_path, lines, chi, orientable, basic) in enumerate(scripts):
        def check(result, chi=chi, orientable=orientable, basic=basic) -> None:
            surface, euler = result
            require((surface.chi, surface.orientable, len(surface.singularities)) == (chi, orientable, basic),
                    "wrong surface data")
            require(euler == -chi - basic, "wrong Euler number")

        ops.append(Op(f"surfaces/script{i}", lambda t, ls=lines: _replay_script(t, ls, pieces), check,
                      {"surfaces_ops": True}))
    return ops


def classify_layer_ops(cells) -> list[Op]:
    ops = []
    for chi, orientable in sorted({(c, o) for c, o, _ in cells}, reverse=True):
        def run(t, chi=chi, orientable=orientable):
            return (t.call("classify.rationally_convex_set", rationally_convex_set, chi, orientable),
                    t.call("classify.stein_set", stein_set, chi, orientable),
                    t.call("classify.massey_set", massey_set, chi, orientable))

        ops.append(Op(f"classify/sets/{chi}/{orientable}", run,
                      lambda sets, chi=chi, o=orientable: require(tuple(sets) == paper_sets(chi, o),
                                                                  "sets differ from the paper's")))
    return ops


def table_layer_ops(small) -> list[Op]:
    min_chi = -12 if small else TABLE_CHECK_MIN_CHI
    rows = _one_sided_rows(min_chi)

    def check_graph(graph) -> None:
        require([(chi, list(graph.row(chi))) for chi, _ in rows] == rows, "derived rows differ")

    def check_report(report) -> None:
        require(report.node_count == sum(len(r) for _, r in rows), "node count differs")

    return [
        Op(f"table/derive/{min_chi}", lambda t: t.call("table.derive_table", derive_table, min_chi), check_graph),
        Op(f"table/closure/{min_chi}", lambda t: t.call("table.verify_closure", verify_closure, min_chi),
           check_report),
    ]


def immersion_layer_ops() -> list[Op]:
    half = strip_half_width(0.5)
    g = PULLBACK_GRID
    grids = {
        "strip0.5": (strip_family(0.5), np.linspace(0.0, np.pi, g), np.linspace(-half, half, g)),
        "cone": (cone_family(), np.linspace(0.0, np.pi, g), np.linspace(0.1, 1.0, g)),
        "umbrella": (umbrella_family(), np.linspace(-1.0, 1.0, g), np.linspace(-1.0, 1.0, g)),
    }
    ops = [s3_oracles._pullback_op(g, label, *grid) for label, grid in grids.items()]
    return ops + s3_oracles.identity_ops()


def operations(inputs) -> list[Op]:
    corpus, scratch, scripts, cells, curves, pieces, small = inputs
    ops = corpus_cli_ops(corpus, scratch)
    ops += surface_cli_ops(scripts)
    ops += classify_cli_ops(cells)
    ops += misc_cli_ops(small)
    ops += corpus_layer_ops(corpus)
    ops += surface_layer_ops(scripts, pieces)
    ops += classify_layer_ops(cells)
    ops += table_layer_ops(small)
    ops += immersion_layer_ops()
    # The N = 512 boundary Gauss cross-check is s3-oracles' kept-failing
    # operation; it is counted there, once.
    ops += [op for op in s3_oracles.curve_ops(curves) if op.name != "gauss/boundary/n512"]
    ops += [Op(f"cli/build_parser/{i}", lambda t: t.call("cli.build_parser", build_parser),
               lambda p: require(p.prog == "lagsurf", "wrong parser")) for i in range(PARSER_BUILDS)]
    return ops


def cold_starts() -> list[ColdStart]:
    stats_entry = json.loads((ROOT / "corpus" / "manifest.json").read_text())["files"]["three-sum-core"]

    def check_classify(code: int, out: str) -> None:
        require(code == 0, f"exit {code}")
        _check_classify(-3, False, -10, "text")(out)

    def check_stats(code: int, out: str) -> None:
        require(code == 0, f"exit {code}")
        _check_stats(stats_entry)(out)

    return [
        ColdStart(["classify", "--chi", "-3", "--euler", "-10"], check_classify),
        ColdStart(["front", "stats", "corpus/three-sum-core.front"], check_stats),
    ]


# -- per-layer metrics -------------------------------------------------------------


def layer_metrics(calls, notes, peaks) -> dict[str, float]:
    def per_op(prefix: str, scale: float) -> float:
        return med([sum(s for _, s in made) for op, made in calls if op.name.startswith(prefix)], scale)

    main_s = durations(calls, "cli.main")
    found = [v for _, name, v in notes if name == "moves.applicable_found"]
    metrics = {
        "fronts.construct_us": med(durations(calls, "fronts.FrontDiagram"), 1e6),
        "fronts.invariants_us": per_op("fronts/invariants/", 1e6),
        "moves.applicable_us": med(durations(calls, "moves.applicable_moves"), 1e6),
        "moves.applicable_found": sum(found) / len(found),
        "moves.apply_us": med(durations(calls, "moves.apply_move"), 1e6),
        "surfaces.pieces_ms": med(durations(calls, "surfaces.standard_pieces"), 1e3),
        "surfaces.ops_us": med([s for op, made in calls if op.tags.get("surfaces_ops") for _, s in made], 1e6),
        "classify.sets_us": per_op("classify/sets/", 1e6) / 3,
        "table.derive_ms": med(durations(calls, "table.derive_table"), 1e3),
        "table.closure_ms": med(durations(calls, "table.verify_closure"), 1e3),
        "immersions.pullback_ms.g64": med(durations(calls, "immersions.pullback_residual"), 1e3),
        "immersions.checks_ms": s3_oracles.checks_ms(calls),
        "dsl.parse_us": med(durations(calls, "dsl.parse_front"), 1e6),
        "dsl.serialize_us": med(durations(calls, "dsl.serialize_front"), 1e6),
        "render.svg_us": med(durations(calls, "render.render_svg"), 1e6),
        "cli.parser_ms": med(durations(calls, "cli.build_parser"), 1e3),
        "cli.main_p90_ms": sorted(main_s)[int(0.9 * len(main_s))] * 1e3,
        "cli.main_calls": len(main_s),
    }
    for verb in ("front", "moves", "surface", "classify", "table", "verify"):
        metrics[f"cli.main_ms.{verb}"] = med(durations(calls, "cli.main", verb=verb), 1e3)
    metrics.update(s3_oracles.linking_metrics(calls, peaks))
    return metrics
