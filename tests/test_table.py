import pytest

import lagsurf.table
from helpers import peak_mib, reference_derive_table
from lagsurf.classify import rationally_convex_set
from lagsurf.cli import run_surface_script, witness_script
from lagsurf.surfaces import DiskBundle, euler_number
from lagsurf.table import (
    SEED,
    ClosureMismatch,
    Rule,
    derive_table,
    orientable_catalog,
    verify_closure,
)

# the full grid down to chi = -5, frozen
EXPECTED_ROWS = {
    0: (-4,),
    -1: (-6, -2),
    -2: (-8, -4, 0),
    -3: (-10, -6, -2, 2),
    -4: (-12, -8, -4, 0, 4),
    -5: (-14, -10, -6, -2, 2),
}


def test_first_rows():
    graph = derive_table(-1)
    assert graph.nodes == {SEED, DiskBundle(-1, -6), DiskBundle(-1, -2)}


def test_grid_down_to_minus_five():
    graph = derive_table(-5)
    for chi, row in EXPECTED_ROWS.items():
        assert graph.row(chi) == row
    assert len(graph.nodes) == sum(len(r) for r in EXPECTED_ROWS.values())  # 20


def test_right_edge_has_no_diagonal():
    graph = derive_table(-5)
    corner = DiskBundle(-4, 4)  # k = -e - chi = 0: nothing left to smooth
    rules = {edge.rule for edge in graph.outgoing(corner)}
    assert rules == {Rule.VERTICAL}


def test_witnesses_replay_to_their_nodes():
    graph = derive_table(-5)
    assert graph.witnesses[SEED] == ()
    for node in graph.nodes:
        s = run_surface_script("\n".join(witness_script(graph.witnesses[node])))
        assert (s.chi, euler_number(s), s.orientable) == (node.chi, node.euler, False)
        assert len(s.singularities) == -node.euler - node.chi
        assert all(x.model_tb == -2 for x in s.singularities)


def test_witness_prefers_vertical_first():
    graph = derive_table(-2)
    assert graph.witnesses[DiskBundle(-2, -4)] == (Rule.VERTICAL, Rule.DIAGONAL)


def test_verify_closure():
    report = verify_closure(-12)
    assert report.node_count == sum(
        len(rationally_convex_set(chi, orientable=False)) for chi in range(0, -13, -1)
    )
    for chi, row in EXPECTED_ROWS.items():
        assert tuple(sorted(rationally_convex_set(chi, orientable=False))) == row
    with pytest.raises(ValueError):
        derive_table(1)


def test_orientable_catalog():
    catalog = orientable_catalog(-4)
    assert [s.chi for s in catalog] == [0, -2, -4]
    assert all(euler_number(s) == 0 for s in catalog)
    assert all(s.orientable for s in catalog)
    with pytest.raises(ValueError):
        orientable_catalog(-3)


def test_orientable_catalog_mismatch_raises(monkeypatch):
    monkeypatch.setattr(lagsurf.table, "euler_number", lambda surface: 2)
    with pytest.raises(ClosureMismatch):
        orientable_catalog(-2)


def test_indexed_rows_and_edges_match_a_scan():
    graph = derive_table(-8)
    for chi in range(1, -10, -1):
        assert graph.row(chi) == tuple(sorted(n.euler for n in graph.nodes if n.chi == chi))
    for node in graph.nodes | {DiskBundle(-9, -20)}:
        assert graph.outgoing(node) == tuple(e for e in graph.edges if e.source == node)
    # a two-sided bundle with a node's (chi, e) is no node
    assert graph.outgoing(DiskBundle(-2, -4, orientable=True)) == ()


@pytest.mark.parametrize("min_chi", [0, -1, -5, -40, -200])
def test_views_match_the_reference_closure(min_chi):
    nodes, edges, witnesses = reference_derive_table(min_chi)
    graph = derive_table(min_chi)
    assert graph.nodes == nodes and list(graph.nodes) == list(nodes)
    assert graph.edges == edges
    assert graph.witnesses == witnesses and list(graph.witnesses) == list(witnesses)
    for chi in range(1, min_chi - 2, -1):
        assert graph.row(chi) == tuple(sorted(n.euler for n in nodes if n.chi == chi))
    outgoing: dict[DiskBundle, list] = {}
    for edge in edges:
        outgoing.setdefault(edge.source, []).append(edge)
    for node in nodes | {DiskBundle(min_chi - 1, 2 * min_chi - 6)}:
        assert graph.outgoing(node) == tuple(outgoing.get(node, ()))


def test_witnesses_have_the_closed_form():
    # the least path takes all its vertical steps first: V^(n - d) D^d with
    # n = -chi steps, d = (e + 4 + 2n) / 4 of them diagonal
    graph = derive_table(-200)
    for node, path in graph.witnesses.items():
        n = -node.chi
        d, rest = divmod(node.euler + 4 + 2 * n, 4)
        assert rest == 0 and 0 <= d <= n
        assert path == (Rule.VERTICAL,) * (n - d) + (Rule.DIAGONAL,) * d
    for node, path in derive_table(-40).witnesses.items():
        surface = run_surface_script("\n".join(witness_script(path)) + "\n")
        assert (surface.chi, euler_number(surface)) == (node.chi, node.euler)


def test_verify_closure_mismatch_names_the_row(monkeypatch):
    classifier = lagsurf.table.rationally_convex_set

    def dropping(chi, orientable=False):
        values = classifier(chi, orientable)
        return values - {max(values)} if chi == -4 else values

    monkeypatch.setattr(lagsurf.table, "rationally_convex_set", dropping)
    with pytest.raises(ClosureMismatch, match=r"^chi=-4: "):
        verify_closure(-6)


@pytest.mark.parametrize("min_chi", [-12, -200])
def test_closure_node_count_matches_the_nodes(min_chi):
    assert verify_closure(min_chi).node_count == len(derive_table(min_chi).nodes)


def test_verify_closure_runs_in_bounded_memory():
    # the rows alone: no bundles, edges or witnesses (about 0.47 MiB)
    assert peak_mib(verify_closure, -200) < 0.6


def test_derived_rows_are_read_in_bounded_memory():
    def read_rows():
        graph = derive_table(-200)
        for chi in range(0, -201, -1):
            graph.row(chi)

    # each row is sorted as it is read (about 0.45 MiB)
    assert peak_mib(read_rows) < 0.55
