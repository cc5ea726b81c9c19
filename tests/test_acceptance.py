"""Acceptance gate: the eight shipping criteria, one pass/fail line each.

Each criterion records a single ``criterion N: PASS/FAIL`` line (echoed in a
terminal-summary section by conftest, where pytest's capture cannot eat it)
and then asserts.
"""

import math
import pathlib
import random

import numpy as np

import helpers
from lagsurf.classify import (
    lai_relative,
    massey_set,
    rationally_convex_set,
    stein_set,
    umbrella_set,
)
from lagsurf.cli import main as cli_main
from lagsurf.dsl import parse_front, serialize_front
from lagsurf.fronts import FrontDiagram, front_connected_sum
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
from lagsurf.moves import applicable_moves, apply_move
from lagsurf.surfaces import (
    DiskBundle,
    euler_number,
    genus_chain,
    glue_mobius_three_umbrellas,
    klein_base,
    mark_umbrella,
    mobius_smoothing,
    split_cone,
)
from lagsurf.table import Rule, derive_table, verify_closure

CORPUS = pathlib.Path(__file__).parent.parent / "corpus"


CRITERION_LINES: list[str] = []


def criterion(number: int, passed: bool, detail: str) -> None:
    line = f"criterion {number}: {'PASS' if passed else 'FAIL'} — {detail}"
    CRITERION_LINES.append(line)
    print(line)
    assert passed, line


def test_criterion_1_named_front_invariants():
    trivial = FrontDiagram.from_word("L1 R1")
    lu = FrontDiagram.from_word("L1 X1 R1")
    two = front_connected_sum(lu, lu.reverse())
    three = front_connected_sum(two, lu)
    four = front_connected_sum(three, lu.reverse())
    got = [
        trivial.classical_invariants()[0],
        lu.classical_invariants()[0],
        lu.reverse().classical_invariants()[0],
        two.classical_invariants()[0],
        three.classical_invariants()[0],
        four.classical_invariants()[0],
    ]
    want = [(-1, 0), (-2, -1), (-2, 1), (-3, 0), (-4, -1), (-5, 0)]
    ok = got == want and abs(got[4][1]) == 1
    criterion(1, ok, f"named fronts {got}")


def _move_key(diagram: FrontDiagram):
    pairs = diagram.classical_invariants()
    links = sorted(
        diagram.linking_number(i, j)
        for i in range(diagram.component_count)
        for j in range(i + 1, diagram.component_count)
    )
    return (
        diagram.component_count,
        sorted(tb for tb, _ in pairs),
        sorted(abs(rot) for _, rot in pairs),
        links,
    )


def test_criterion_2_move_invariance():
    rng = random.Random(4021)
    checked = failures = 0
    while checked < 1000:
        diagram = helpers.random_diagram(rng, max_events=12)
        moves = applicable_moves(diagram)
        if not moves:
            continue
        move = rng.choice(moves)
        if _move_key(apply_move(diagram, move)) != _move_key(diagram):
            failures += 1
        checked += 1
    criterion(2, failures == 0, f"{checked} move applications, {failures} failures")


def test_criterion_3_twist_bookkeeping():
    ok = euler_number(klein_base()) == -4
    ok &= euler_number(genus_chain(1)) == 0
    ok &= all(euler_number(genus_chain(g)) == 0 for g in range(1, 7))

    rng = random.Random(977)
    replays = mismatches = 0
    surface = klein_base()
    expected = euler_number(surface)
    while replays < 500:
        moves = ["glue3"]
        if any(s.model_tb < -2 for s in surface.singularities):
            moves.append("split")
        if any(s.model_tb == -2 for s in surface.singularities):
            moves += ["smooth", "mark"]
        choice = rng.choice(moves)
        if choice == "glue3":
            surface, expected = glue_mobius_three_umbrellas(surface), expected - 2
        elif choice == "smooth":
            index = rng.choice(
                [i for i, s in enumerate(surface.singularities) if s.model_tb == -2]
            )
            surface, expected = mobius_smoothing(surface, index), expected + 2
        elif choice == "split":
            index = rng.choice(
                [i for i, s in enumerate(surface.singularities) if s.model_tb < -2]
            )
            surface = split_cone(surface, index)
        else:
            index = rng.choice(
                [i for i, s in enumerate(surface.singularities) if s.model_tb == -2]
            )
            surface = mark_umbrella(surface, index)
        mismatches += euler_number(surface) != expected
        replays += 1
        if surface.chi < -40:
            surface, expected = klein_base(), -4
    criterion(3, ok and mismatches == 0,
              f"base values ok={ok}, {replays} replays, {mismatches} mismatches")


def _valid_pairs():
    for chi in range(-12, 2):
        yield chi, False
    for chi in range(-12, 3):
        if chi % 2 == 0:
            yield chi, True


def _is_step4(values: set) -> bool:
    ordered = sorted(values)
    return all(b - a == 4 for a, b in zip(ordered, ordered[1:]))


def test_criterion_4_classifier_tables():
    ok = True
    for chi, orientable in _valid_pairs():
        ms = massey_set(chi, orientable)
        st = stein_set(chi, orientable)
        rc = rationally_convex_set(chi, orientable)
        um = umbrella_set(chi, orientable)
        ok &= rc <= st <= ms
        ok &= _is_step4(ms) and _is_step4(st)
        ok &= um == {-chi - e for e in rc}
        if not orientable and chi == 1:
            ok &= -2 in st and -2 not in rc
        elif not orientable and chi == 0:
            ok &= 0 in st and 0 not in rc
        else:
            ok &= rc == st
    graph = derive_table(-5)
    # the grid tabulates the rationally convex cells; stein and rationally
    # convex rows coincide on chi in [-1, -5] and differ at chi = 0 exactly
    # by the excluded twist 0
    rows_match = all(
        set(graph.row(chi)) == stein_set(chi, orientable=False)
        for chi in range(-1, -6, -1)
    )
    rows_match &= set(graph.row(0)) == rationally_convex_set(0, orientable=False)
    rows_match &= stein_set(0, orientable=False) - set(graph.row(0)) == {0}
    ok &= rows_match
    criterion(4, ok, f"all valid chi in [-12, 2]; stein rows match grid={rows_match}")


EXPECTED_ROWS = {
    0: (-4,),
    -1: (-6, -2),
    -2: (-8, -4, 0),
    -3: (-10, -6, -2, 2),
    -4: (-12, -8, -4, 0, 4),
    -5: (-14, -10, -6, -2, 2),
}


def test_criterion_5_table_regeneration():
    graph = derive_table(-5)
    # the grid holds 20 nodes (row sizes 1+2+3+4+5+5); an earlier hand count
    # said 21 by double-counting the one-node seed row
    nodes = {(n.chi, n.euler) for n in graph.nodes}
    expected = {(chi, e) for chi, row in EXPECTED_ROWS.items() for e in row}
    ok = nodes == expected and len(nodes) == 20
    corner = DiskBundle(-4, 4)
    rules = {edge.rule for edge in graph.outgoing(corner)}
    ok &= rules == {Rule.VERTICAL}
    interior_ok = all(
        {e.rule for e in graph.outgoing(node)}
        == ({Rule.VERTICAL, Rule.DIAGONAL} if -node.euler - node.chi >= 1
            else {Rule.VERTICAL})
        for node in graph.nodes
        if node.chi > -5
    )
    ok &= interior_ok
    report = verify_closure(-12)
    ok &= report.node_count == sum(
        len(rationally_convex_set(chi, orientable=False)) for chi in range(0, -13, -1)
    )
    criterion(5, ok, f"{len(nodes)} nodes, corner rules {sorted(r.value for r in rules)}, "
                     f"closure to -12 exact")


def test_criterion_6_numerics():
    half_turn = np.linspace(0.0, math.pi, 64)
    ok = True
    details = []
    for a in (0.1, 0.5, 1.0):
        half = strip_half_width(a)
        rep = pullback_residual(strip_family(a), half_turn, np.linspace(-half, half, 64))
        ok &= rep.max_residual < 1e-6
        ok &= strip_identities(a).max_residual <= 1e-12
    square = np.linspace(-1.0, 1.0, 64)
    ok &= pullback_residual(umbrella_family(), square, square).max_residual < 1e-6
    ok &= pullback_residual(
        cone_family(), half_turn, np.linspace(0.1, 1.0, 64)
    ).max_residual < 1e-6
    conv = convergence_to_cone([0.2, 0.1, 0.05])
    ok &= all(0.2 <= r <= 0.3 for r in conv.ratios)
    details.append("ratios " + ",".join(f"{r:.3f}" for r in conv.ratios))
    ok &= liouville_identity().max_residual < 1e-12
    ok &= legendrian_residual().passed

    s = np.linspace(0.0, 2 * math.pi, 512, endpoint=False)
    fine = np.linspace(0.0, 2 * math.pi, 1024, endpoint=False)
    curve, curve_fine = boundary_curve(s), boundary_curve(fine)
    flat = np.stack([np.cos(s), np.zeros_like(s), np.sin(s), np.zeros_like(s)], -1)
    flat_fine = np.stack(
        [np.cos(fine), np.zeros_like(fine), np.sin(fine), np.zeros_like(fine)], -1
    )
    framing, winding = contact_framing(curve), tangent_winding(curve)
    ok &= framing == -2 and abs(winding) == 1
    ok &= contact_framing(flat) == -1
    stable = (
        contact_framing(curve_fine) == framing
        and tangent_winding(curve_fine) == winding
        and contact_framing(flat_fine) == -1
    )
    ok &= stable
    details.append(f"framing {framing}, winding {winding}, refinement stable={stable}")
    criterion(6, ok, "; ".join(details))


def test_criterion_7_relative_invariant_formula():
    got = lai_relative(0, 0, 0, 1, 1)
    criterion(7, got == (-2, 1), f"relative pair {got}")


def test_criterion_8_cli_round_trip(capsys):
    files = sorted(CORPUS.glob("*.front"))
    round_trips = all(
        parse_front(serialize_front(parse_front(p.read_text())))
        == parse_front(p.read_text())
        for p in files
    )
    spotlights = [
        (["classify", "--chi", "0", "--euler", "0"], "rationally_convex: false; stein: true"),
        (["classify", "--chi", "1", "--euler", "-2"], "rationally_convex: false; stein: true"),
        (["classify", "--chi", "0", "--euler", "-4"], "rationally_convex: true; stein: true"),
        (["classify", "--chi", "0", "--euler", "0", "--orientable"],
         "rationally_convex: true; stein: true"),
    ]
    outputs_ok = True
    for argv, expected in spotlights:
        code = cli_main(argv)
        out = capsys.readouterr().out
        outputs_ok &= code == 0 and out.splitlines()[0] == expected
    ok = len(files) == 20 and round_trips and outputs_ok
    criterion(8, ok, f"{len(files)} corpus files round-trip={round_trips}, "
                     f"spotlight outputs={outputs_ok}")
