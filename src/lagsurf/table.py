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

The closure is computed on integers: each row is the Euler numbers its
parents offer, in witness order, with each child kept at its first offer
(``dict.fromkeys``).  The two rules are stated once, in :func:`_offers`,
which the row step, the edges, the witness fold and :meth:`outgoing` read.
The witness paths, bundles and edges are built from the rows on first read,
and :func:`verify_closure` reads the rows alone.  A node's witness path from
the seed is its lexicographically least (vertical before diagonal);
replaying it through the surface operations reproduces the node's data
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import chain
from typing import Callable, Iterator, Sequence, TypeVar

from .classify import rationally_convex_set
from .surfaces import DiskBundle, SurfaceComplex, euler_number, genus_chain


class Rule(str, Enum):
    VERTICAL = "vertical"
    DIAGONAL = "diagonal"


SEED = DiskBundle(0, -4)

T = TypeVar("T")


class ClosureMismatch(ValueError):
    """Derived node set disagrees with the classifier."""


@dataclass(frozen=True)
class Edge:
    source: DiskBundle
    target: DiskBundle
    rule: Rule


# ``_offers`` entry ``2 * j + r`` is what a row's node ``j`` offers by rule ``_RULES[r]``.
_RULES = (Rule.VERTICAL, Rule.DIAGONAL)


def _offers(chi: int, row: Sequence[int]) -> list[int | None]:
    """The Euler numbers the nodes of one row offer the next, in witness order.

    Each node (chi, e), taken in row order, offers its vertical child
    ``e - 2``, then its diagonal child ``e + 2`` while it has a basic cone
    point left to smooth, ``k = -e - chi >= 1``; a gated diagonal offer is
    ``None``.
    """
    offers: list[int | None] = [None] * (2 * len(row))
    offers[0::2] = [e - 2 for e in row]
    offers[1::2] = [e + 2 if -e - chi >= 1 else None for e in row]
    return offers


@dataclass(frozen=True)
class DerivationGraph:
    """The breadth-first closure down to ``min_chi``, kept as integer rows.

    Row ``i`` is the level chi = -i, for i = 0 .. -min_chi, and ``eulers[i]``
    holds its Euler numbers in witness order.  ``nodes``, ``edges`` and
    ``witnesses`` are built on first read and share one :class:`DiskBundle`
    per node; :meth:`fold`, :meth:`row` and :meth:`outgoing` read the rows
    as they are.  Build one with :func:`derive_table`.
    """

    min_chi: int
    eulers: tuple[tuple[int, ...], ...]

    def fold(self, seed: T, step: Callable[[T, Rule], T]) -> Iterator[list[T]]:
        """Fold each node's witness path, yielding the values row by row.

        The seed's value is ``seed``, and every other node's is
        ``step(parent_value, rule)`` for the first parent and rule of its
        witness; each row's values come in the order of ``eulers``.  Only
        the row above is held while a row is folded.
        """
        values = [seed]
        yield values
        for i, below in enumerate(self.eulers[1:]):
            parents, values = values, []
            for j, child in enumerate(_offers(-i, self.eulers[i])):
                # the row below lists each child at its first offer, in order
                if len(values) < len(below) and child == below[len(values)]:
                    values.append(step(parents[j >> 1], _RULES[j & 1]))
            yield values

    @cached_property
    def _bundles(self) -> tuple[tuple[DiskBundle, ...], ...]:
        return tuple(
            tuple(DiskBundle(-i, e) for e in row) for i, row in enumerate(self.eulers)
        )

    @cached_property
    def witnesses(self) -> dict[DiskBundle, tuple[Rule, ...]]:
        """Each node's first witness: its first parent's witness plus the rule."""
        paths = self.fold((), lambda path, rule: path + (rule,))
        return dict(zip(chain.from_iterable(self._bundles), chain.from_iterable(paths)))

    @cached_property
    def nodes(self) -> frozenset[DiskBundle]:
        # a set built from a dict is sized and filled as one built from the
        # ``witnesses`` dict, so both iterate in the same order
        return frozenset(dict.fromkeys(chain.from_iterable(self._bundles)))

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        """One edge per offer, row by row in the order the rules were applied."""
        edges: list[Edge] = []
        for i, (row, below) in enumerate(zip(self._bundles, self._bundles[1:])):
            target = {bundle.euler: bundle for bundle in below}
            edges += (
                Edge(row[j >> 1], target[child], _RULES[j & 1])
                for j, child in enumerate(_offers(-i, self.eulers[i]))
                if child is not None
            )
        return tuple(edges)

    def row(self, chi: int) -> tuple[int, ...]:
        """Euler numbers present at one chi level, ascending."""
        return tuple(sorted(self.eulers[-chi])) if self.min_chi <= chi <= 0 else ()

    def outgoing(self, node: DiskBundle) -> tuple[Edge, ...]:
        """The edges out of ``node``: none unless it is a node above the last row."""
        chi = node.chi
        if node.orientable or not self.min_chi < chi <= 0 or node.euler not in self.eulers[-chi]:
            return ()
        return tuple(
            Edge(node, DiskBundle(chi - 1, child), rule)
            for child, rule in zip(_offers(chi, (node.euler,)), _RULES)
            if child is not None
        )


def derive_table(min_chi: int = -5) -> DerivationGraph:
    """Breadth-first closure of the seed under the two rules, row by row.

    Each child keeps the first witness that reaches it, which is its least.
    Every witness in a row has the same length, and a row's nodes are kept
    in increasing witness order; :func:`_offers` takes the parents in that
    order, vertical before diagonal, so the children of the next row are
    offered in increasing witness order and keeping each one's first offer
    keeps that order too.
    """
    if min_chi > 0:
        raise ValueError("min_chi must be <= 0")
    eulers = [(SEED.euler,)]
    for chi in range(0, min_chi, -1):
        children = dict.fromkeys(_offers(chi, eulers[-1]))
        children.pop(None, None)
        eulers.append(tuple(children))
    return DerivationGraph(min_chi, tuple(eulers))


@dataclass(frozen=True)
class ClosureReport:
    min_chi: int
    node_count: int


def verify_closure(min_chi: int = -12) -> ClosureReport:
    """Assert the derived closure equals the classifier, row by row."""
    graph = derive_table(min_chi)
    for chi, row in zip(range(0, min_chi - 1, -1), graph.eulers):
        derived = set(row)
        expected = rationally_convex_set(chi, orientable=False)
        if derived != expected:
            raise ClosureMismatch(
                f"chi={chi}: derived {sorted(derived)}, classifier {sorted(expected)}"
            )
    return ClosureReport(min_chi, sum(map(len, graph.eulers)))


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
