import pytest

import lagsurf.table
from lagsurf.surfaces import DiskBundle, euler_number
from lagsurf.table import (
    SEED,
    ClosureMismatch,
    Rule,
    derive_table,
    orientable_catalog,
    replay_witness,
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
        s = replay_witness(graph.witnesses[node])
        assert (s.chi, euler_number(s), s.orientable) == (node.chi, node.euler, False)
        assert len(s.singularities) == -node.euler - node.chi
        assert all(x.model_tb == -2 for x in s.singularities)


def test_witness_prefers_vertical_first():
    graph = derive_table(-2)
    assert graph.witnesses[DiskBundle(-2, -4)] == (Rule.VERTICAL, Rule.DIAGONAL)


def test_verify_closure():
    report = verify_closure(-12)
    assert report.node_count == sum(len(row) for _, row in report.rows)
    for chi, row in EXPECTED_ROWS.items():
        assert dict(report.rows)[chi] == row
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
