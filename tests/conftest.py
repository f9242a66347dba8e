"""Shared builders and independent brute-force oracles for the test suite.

The brute-force functions deliberately reimplement decisions by exhaustive
enumeration; they stay independent of the library's search and matching
code so the two routes can disagree loudly when one is wrong.
"""

from __future__ import annotations

from itertools import combinations, permutations

import pytest
from hypothesis import strategies as st

from rainbowpath import GraphCollection, RainbowLinearForest, canonical_edge
from rainbowpath.serialize import instance_from_dict


def clique_edges(vertices):
    return [(a, b) for a, b in combinations(sorted(vertices), 2)]


def cross_edges(side_a, side_b):
    return [canonical_edge(a, b) for a in side_a for b in side_b]


def complete_collection(n: int, m: int | None = None) -> GraphCollection:
    return GraphCollection.from_edge_lists(n, [clique_edges(range(n))] * (m or n))


def union_masks(collection) -> list[int]:
    """Per-vertex neighbour masks of the union graph over all colors."""
    masks = [0] * collection.n_vertices
    for row in collection.adjacency:
        for v, mask in enumerate(row):
            masks[v] |= mask
    return masks


def brute_rainbow_exists(collection, edges, forbidden=frozenset()) -> bool:
    """Exhaustive injection search: some permutation of colors fits the edges."""
    edges = list(edges)
    colors = [c for c in range(collection.n_colors) if c not in forbidden]
    if len(edges) > len(colors):
        return False
    for combo in permutations(colors, len(edges)):
        if all(collection.has_edge(c, u, v) for (u, v), c in zip(edges, combo)):
            return True
    return False


def brute_ham_path_exists(collection, u, v, forest=None) -> bool:
    """Permutation-level search for a rainbow Hamiltonian u,v-path with forest.

    Exponential in n; keep n <= 7.  Checks forest contiguity with fixed
    colors by filtering orders, then rainbow-colors the rest exhaustively.
    """
    n = collection.n_vertices
    forest = forest or RainbowLinearForest.empty()
    fixed = forest.fixed_colors
    middle = [x for x in range(n) if x not in (u, v)]
    for perm in permutations(middle):
        order = (u, *perm, v)
        pairs = [canonical_edge(order[i], order[i + 1]) for i in range(n - 1)]
        pair_set = set(pairs)
        if any(edge not in pair_set for edge in fixed):
            continue
        ok = True
        loose = []
        for edge in pairs:
            if edge in fixed:
                if not collection.has_edge(fixed[edge], *edge):
                    ok = False
                    break
            else:
                loose.append(edge)
        if not ok:
            continue
        if brute_rainbow_exists(collection, loose, frozenset(fixed.values())):
            return True
    return False


@st.composite
def small_collections(draw, max_n=6, max_m=7, min_n=2, min_m=1):
    """Random small collections as (n, list-of-edge-lists) built from bits."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    m = draw(st.integers(min_value=min_m, max_value=max_m))
    all_pairs = clique_edges(range(n))
    lists = []
    for _ in range(m):
        picks = draw(st.lists(st.booleans(), min_size=len(all_pairs), max_size=len(all_pairs)))
        lists.append([e for e, keep in zip(all_pairs, picks) if keep])
    return GraphCollection.from_edge_lists(n, lists)


def edges_form(data: dict) -> dict:
    """A rows-form instance dict rewritten with per-color edge lists instead."""
    collection = instance_from_dict(data).collection
    out = {key: value for key, value in data.items() if key != "rows"}
    out["graphs"] = [[list(e) for e in collection.edges(c)] for c in range(collection.n_colors)]
    return out


@pytest.fixture
def k4():
    return complete_collection(4)


@pytest.fixture
def k22():
    return GraphCollection.from_edge_lists(4, [cross_edges({0, 1}, {2, 3})] * 4)


@pytest.fixture
def k23():
    return GraphCollection.from_edge_lists(5, [cross_edges({0, 1}, {2, 3, 4})] * 5)
