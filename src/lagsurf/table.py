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

The closure is computed on integers: per row, the Euler numbers and the
links from the row above.  The bundles, edges and witness paths are built
from those rows on first read.  A node's witness path from the seed is its
lexicographically least (vertical before diagonal); replaying it through the
surface operations reproduces the node's data exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

from .classify import rationally_convex_set
from .surfaces import DiskBundle, SurfaceComplex, euler_number, genus_chain


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
    """The breadth-first closure down to ``min_chi``, kept as integer rows.

    Row ``i`` is the level chi = -i, for i = 0 .. -min_chi:

    * ``eulers[i]``: the Euler numbers of the row, in witness order;
    * ``links[i]`` (rows above the last only): one ``(source, target, rule)``
      per edge into row ``i + 1``, in the order the rules were applied, with
      ``source`` a position in ``eulers[i]`` and ``target`` one in
      ``eulers[i + 1]``.

    ``nodes``, ``edges`` and ``witnesses`` are views built on first read, all
    sharing one :class:`DiskBundle` per node.  Build one with
    :func:`derive_table`.
    """

    min_chi: int
    eulers: tuple[tuple[int, ...], ...]
    links: tuple[tuple[tuple[int, int, Rule], ...], ...]

    @cached_property
    def _bundles(self) -> tuple[tuple[DiskBundle, ...], ...]:
        return tuple(
            tuple(DiskBundle(-i, e) for e in row) for i, row in enumerate(self.eulers)
        )

    @cached_property
    def witnesses(self) -> dict[DiskBundle, tuple[Rule, ...]]:
        """Each node's first witness: its first parent's witness plus the rule."""
        paths: list[tuple[Rule, ...]] = [()]
        witnesses = {self._bundles[0][0]: ()}
        for row_links, children in zip(self.links, self._bundles[1:]):
            parents = paths
            paths = []
            for source, target, rule in row_links:
                if target == len(paths):
                    paths.append(parents[source] + (rule,))
            witnesses.update(zip(children, paths))
        return witnesses

    @cached_property
    def nodes(self) -> frozenset[DiskBundle]:
        # a set built from a dict is sized and filled as one built from the
        # ``witnesses`` dict, so both iterate in the same order
        return frozenset(dict.fromkeys(b for row in self._bundles for b in row))

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        bundles = self._bundles
        return tuple(
            Edge(bundles[i][source], bundles[i + 1][target], rule)
            for i, row_links in enumerate(self.links)
            for source, target, rule in row_links
        )

    @cached_property
    def _rows(self) -> dict[int, tuple[int, ...]]:
        return {-i: tuple(sorted(row)) for i, row in enumerate(self.eulers)}

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
    A child's position in its row is the order in which it is first reached.
    """
    if min_chi > 0:
        raise ValueError("min_chi must be <= 0")
    eulers = [(SEED.euler,)]
    links = []
    for chi in range(0, min_chi, -1):
        positions: dict[int, int] = {}
        row_links = []
        for source, e in enumerate(eulers[-1]):
            vertical = positions.setdefault(e - 2, len(positions))
            row_links.append((source, vertical, Rule.VERTICAL))
            if -e - chi >= 1:
                diagonal = positions.setdefault(e + 2, len(positions))
                row_links.append((source, diagonal, Rule.DIAGONAL))
        eulers.append(tuple(positions))
        links.append(tuple(row_links))
    return DerivationGraph(min_chi, tuple(eulers), tuple(links))


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
    return ClosureReport(min_chi, sum(map(len, graph.eulers)), tuple(rows))


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
