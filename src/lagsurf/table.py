"""Derivation graph for the one-sided rationally convex bundle table.

Starting from the seed bundle (chi, e) = (0, -4) -- the closed one-sided
chi = 0 complex with four basic cone points -- two rewriting rules generate
every realizable one-sided pair:

* ``vertical``: glue the three-cone strip in place of a smooth disk,
  (chi, e) -> (chi - 1, e - 2); always applicable.
* ``diagonal``: smooth one basic cone point into a cross-cap,
  (chi, e) -> (chi - 1, e + 2); applicable only while a cone point remains,
  i.e. while k = -e - chi >= 1.

The diagonal gate is what truncates each row on the right.  The breadth-
first closure of the seed under these rules, down to a chosen chi, is
exactly the classifier's rationally convex set row by row --
:func:`verify_closure` asserts that equality and raises
:class:`ClosureMismatch` on any discrepancy, which would indicate a bug in
one side or the other.

Every node carries a witness path from the seed (lexicographically least,
vertical before diagonal); replaying a witness through the surface
operations reproduces the node's data exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

from .classify import rationally_convex_set
from .surfaces import (
    DiskBundle,
    SurfaceComplex,
    euler_number,
    genus_chain,
    glue_mobius_three_umbrellas,
    klein_base,
    mobius_smoothing,
)


class Rule(str, Enum):
    VERTICAL = "vertical"
    DIAGONAL = "diagonal"


SEED = DiskBundle(0, -4)


class ClosureMismatch(Exception):
    """Derived node set disagrees with the classifier."""


@dataclass(frozen=True)
class Edge:
    source: DiskBundle
    target: DiskBundle
    rule: Rule


@dataclass(frozen=True)
class DerivationGraph:
    min_chi: int
    nodes: frozenset[DiskBundle]
    edges: tuple[Edge, ...]
    witnesses: dict[DiskBundle, tuple[Rule, ...]]

    @cached_property
    def _rows(self) -> dict[int, tuple[int, ...]]:
        rows: dict[int, list[int]] = {}
        for n in self.nodes:
            rows.setdefault(n.chi, []).append(n.euler)
        return {chi: tuple(sorted(eulers)) for chi, eulers in rows.items()}

    @cached_property
    def _outgoing(self) -> dict[DiskBundle, tuple[Edge, ...]]:
        out: dict[DiskBundle, list[Edge]] = {}
        for e in self.edges:
            out.setdefault(e.source, []).append(e)
        return {source: tuple(edges) for source, edges in out.items()}

    def row(self, chi: int) -> tuple[int, ...]:
        """Euler numbers present at one chi level, ascending."""
        return self._rows.get(chi, ())

    def outgoing(self, node: DiskBundle) -> tuple[Edge, ...]:
        return self._outgoing.get(node, ())


def derive_table(min_chi: int = -5) -> DerivationGraph:
    """Breadth-first closure of the seed under the two rules, row by row.

    Each child keeps the first witness that reaches it, which is its least.
    Every witness in a row has the same length, and a row's nodes are kept
    in increasing witness order; each parent, taken in that order, offers
    vertical before diagonal, so the candidates for the next row arrive in
    increasing order and its nodes are kept in increasing witness order too.
    """
    if min_chi > 0:
        raise ValueError("min_chi must be <= 0")
    witnesses: dict[DiskBundle, tuple[Rule, ...]] = {SEED: ()}
    edges: list[Edge] = []
    frontier = [SEED]
    for _ in range(0, -min_chi):
        next_row: dict[DiskBundle, tuple[Rule, ...]] = {}
        for node in frontier:
            children = [(Rule.VERTICAL, DiskBundle(node.chi - 1, node.euler - 2))]
            if -node.euler - node.chi >= 1:
                children.append(
                    (Rule.DIAGONAL, DiskBundle(node.chi - 1, node.euler + 2))
                )
            for rule, child in children:
                edges.append(Edge(node, child, rule))
                next_row.setdefault(child, witnesses[node] + (rule,))
        witnesses.update(next_row)
        frontier = list(next_row)
    return DerivationGraph(min_chi, frozenset(witnesses), tuple(edges), witnesses)


def replay_witness(path: tuple[Rule, ...]) -> SurfaceComplex:
    """Rebuild the surface a witness path describes, one operation per rule."""
    s = klein_base()
    for rule in path:
        if rule is Rule.VERTICAL:
            s = glue_mobius_three_umbrellas(s)
        else:
            s = mobius_smoothing(s, 0)
    return s


@dataclass(frozen=True)
class ClosureReport:
    min_chi: int
    node_count: int
    rows: tuple[tuple[int, tuple[int, ...]], ...]


def verify_closure(min_chi: int = -12) -> ClosureReport:
    """Assert the derived closure equals the classifier, row by row."""
    graph = derive_table(min_chi)
    rows = []
    for chi in range(0, min_chi - 1, -1):
        derived = set(graph.row(chi))
        expected = rationally_convex_set(chi, orientable=False)
        if derived != expected:
            raise ClosureMismatch(
                f"chi={chi}: derived {sorted(derived)}, classifier {sorted(expected)}"
            )
        rows.append((chi, tuple(sorted(expected))))
    return ClosureReport(min_chi, len(graph.nodes), tuple(rows))


def orientable_catalog(min_chi: int = -4) -> list[SurfaceComplex]:
    """Chained-torus surfaces realizing (chi, 0) for even chi down to min_chi."""
    if min_chi > 0 or min_chi % 2:
        raise ValueError("min_chi must be even and <= 0")
    catalog = []
    genus = 1
    while 2 - 2 * genus >= min_chi:
        s = genus_chain(genus)
        e = euler_number(s)
        if e != 0 or e not in rationally_convex_set(s.chi, orientable=True):
            raise ClosureMismatch(
                f"genus {genus} chain has (chi, e) = ({s.chi}, {e}); "
                "the classifier's orientable set must hold it with e = 0"
            )
        catalog.append(s)
        genus += 1
    return catalog
