"""Treewidth (Definition 4): exact computation for small hypergraphs and
standard heuristics (min-fill, min-degree) for larger ones.

The treewidth of a hypergraph equals the treewidth of its primal graph, which
is how all routines here operate.  Exact computation uses the
elimination-ordering DP in :mod:`repro.decomposition.f_width`; heuristics
produce elimination orderings greedily and convert them into tree
decompositions with :func:`decomposition_from_ordering`.
"""

from __future__ import annotations

from typing import AbstractSet, FrozenSet, List, Optional, Tuple

import networkx as nx

from repro.decomposition.f_width import (
    EXACT_F_WIDTH_LIMIT,
    best_elimination_ordering,
    decomposition_from_ordering,
)
from repro.decomposition.tree_decomposition import TreeDecomposition
from repro.hypergraph import Hypergraph


def _treewidth_cost(bag: FrozenSet) -> float:
    return len(bag) - 1


def exact_treewidth(hypergraph: Hypergraph) -> int:
    """The exact treewidth of a small hypergraph (<= 18 vertices)."""
    if hypergraph.num_vertices() == 0:
        return -1 if hypergraph.num_edges() == 0 else 0
    _, width = best_elimination_ordering(hypergraph, _treewidth_cost)
    return int(width)


def _greedy_ordering(
    graph: nx.Graph, strategy: str, last: AbstractSet = frozenset()
) -> List:
    """Greedy elimination ordering using the min-degree or min-fill rule.

    Ties are broken by eliminating vertices outside ``last`` first, then by
    ``repr``; with the empty default only ``repr`` breaks ties.  ``graph``
    is a simple graph (no self-loops), as :meth:`Hypergraph.primal_graph`
    builds.  The elimination runs on plain adjacency sets: the CSP engine
    computes an order per instance, and for its few-vertex graphs the
    networkx per-call overhead dominated.
    """
    adjacency = {v: set(graph.neighbors(v)) for v in graph.nodes()}
    ordering: List = []
    while adjacency:
        if strategy == "min_degree":
            vertex = min(
                adjacency, key=lambda v: (len(adjacency[v]), v in last, repr(v))
            )
        elif strategy == "min_fill":

            def fill_in(v) -> int:
                neighbours = list(adjacency[v])
                missing = 0
                for i, u in enumerate(neighbours):
                    adjacent = adjacency[u]
                    for w in neighbours[i + 1 :]:
                        if w not in adjacent:
                            missing += 1
                return missing

            vertex = min(
                adjacency, key=lambda v: (fill_in(v), v in last, repr(v))
            )
        else:
            raise ValueError(f"unknown strategy {strategy!r}")
        neighbours = adjacency.pop(vertex)
        for u in neighbours:
            adjacent = adjacency[u]
            adjacent |= neighbours
            adjacent.discard(u)
            adjacent.discard(vertex)
        ordering.append(vertex)
    return ordering


def treewidth_upper_bound(hypergraph: Hypergraph, strategy: str = "min_fill") -> int:
    """A treewidth upper bound from a greedy elimination ordering."""
    if hypergraph.num_vertices() == 0:
        return -1
    graph = hypergraph.primal_graph()
    ordering = _greedy_ordering(graph, strategy)
    decomposition = decomposition_from_ordering(hypergraph, ordering)
    return decomposition.width()


def treewidth_decomposition(
    hypergraph: Hypergraph,
    exact: Optional[bool] = None,
    strategy: str = "min_fill",
) -> Tuple[TreeDecomposition, int, bool]:
    """A tree decomposition of ``hypergraph`` together with its width.

    Parameters
    ----------
    exact:
        Force exact (True) or heuristic (False) computation.  By default the
        exact algorithm is used whenever the hypergraph has at most
        :data:`~repro.decomposition.f_width.EXACT_F_WIDTH_LIMIT` vertices.
    strategy:
        Heuristic elimination rule, ``"min_fill"`` or ``"min_degree"``.

    Returns
    -------
    (decomposition, width, is_exact)
    """
    n = hypergraph.num_vertices()
    if n == 0:
        return TreeDecomposition.single_bag([]), -1, True
    if exact is None:
        exact = n <= EXACT_F_WIDTH_LIMIT
    if exact:
        ordering, width = best_elimination_ordering(hypergraph, _treewidth_cost)
        decomposition = decomposition_from_ordering(hypergraph, ordering)
        return decomposition, int(width), True
    graph = hypergraph.primal_graph()
    best_decomposition: Optional[TreeDecomposition] = None
    for rule in (strategy, "min_degree" if strategy != "min_degree" else "min_fill"):
        ordering = _greedy_ordering(graph, rule)
        decomposition = decomposition_from_ordering(hypergraph, ordering)
        if best_decomposition is None or decomposition.width() < best_decomposition.width():
            best_decomposition = decomposition
    assert best_decomposition is not None
    return best_decomposition, best_decomposition.width(), False


def has_bounded_treewidth(hypergraph: Hypergraph, bound: int) -> bool:
    """Whether the (exact or upper-bounded) treewidth is at most ``bound``.

    Uses the exact algorithm when feasible, so a ``True`` answer from the
    heuristic path is still sound (the heuristic only over-estimates)."""
    if hypergraph.num_vertices() <= EXACT_F_WIDTH_LIMIT:
        return exact_treewidth(hypergraph) <= bound
    return treewidth_upper_bound(hypergraph) <= bound
