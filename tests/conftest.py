"""Shared builders and independent brute-force oracles for the test suite.

The brute-force functions deliberately reimplement decisions by exhaustive
enumeration; they stay independent of the library's search and matching
code so the two routes can disagree loudly when one is wrong.
"""

from __future__ import annotations

import random
from functools import cache
from itertools import combinations, permutations, product

import pytest
from hypothesis import strategies as st

from rainbowpath import (
    GenerationError,
    GraphCollection,
    InputError,
    RainbowLinearForest,
    canonical_edge,
    check_hypothesis,
)
from rainbowpath.gen import _repair_sigma2
from rainbowpath.model import bits, mask_of
from rainbowpath.serialize import instance_from_dict


def clique_edges(vertices):
    return [(a, b) for a, b in combinations(sorted(vertices), 2)]


def cross_edges(side_a, side_b):
    return [canonical_edge(a, b) for a in side_a for b in side_b]


def complete_collection(n: int, m: int | None = None) -> GraphCollection:
    return GraphCollection.from_edge_lists(n, [clique_edges(range(n))] * (m or n))


def without_edge(collection, color: int, a: int, b: int) -> GraphCollection:
    """``collection`` with edge ab taken out of one color; the others keep their rows."""
    rows = list(collection.adjacency)
    row = list(rows[color])
    row[a] &= ~(1 << b)
    row[b] &= ~(1 << a)
    rows[color] = tuple(row)
    return GraphCollection(collection.n_vertices, tuple(rows))


def union_masks(collection) -> list[int]:
    """Per-vertex neighbour masks of the union graph over all colors."""
    masks = [0] * collection.n_vertices
    for row in collection.adjacency:
        for v, mask in enumerate(row):
            masks[v] |= mask
    return masks


def brute_rainbow_exists(collection, edges, forbidden=frozenset()) -> bool:
    """Exhaustive injection search: some permutation of colors fits the edges.

    Permutations are grown one edge at a time and a prefix is dropped once
    its last color lacks its edge, which skips only permutations that fail.
    """
    edges = list(edges)
    colors = [c for c in range(collection.n_colors) if c not in forbidden]

    def extend(i: int, taken: frozenset[int]) -> bool:
        return i == len(edges) or any(
            extend(i + 1, taken | {c}) for c in colors
            if c not in taken and collection.has_edge(c, *edges[i])
        )

    return len(edges) <= len(colors) and extend(0, frozenset())


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


def brute_ham_cycle_exists(collection) -> bool:
    """Permutation-level search for a rainbow Hamiltonian cycle (n >= 3).

    Vertex 0 is fixed first; every order of the rest is tried and its n
    edges rainbow-colored exhaustively.  Keep n <= 7.
    """
    n = collection.n_vertices
    for perm in permutations(range(1, n)):
        order = (0, *perm)
        edges = [canonical_edge(order[i], order[(i + 1) % n]) for i in range(n)]
        if brute_rainbow_exists(collection, edges):
            return True
    return False


ENUMERATION_VERTEX_BOUND = 5


def enumerate_collections(n: int, per_color_edge_predicate, visitor) -> int:
    """Visit every n-color collection on n vertices whose colors pass the predicate.

    ``per_color_edge_predicate(n, edges)`` filters candidate color graphs
    (None admits all); ``visitor(collection)`` may return False to abort
    early.  Returns the number of collections visited.  Refuses n above
    ENUMERATION_VERTEX_BOUND: the full space grows doubly exponentially.
    """
    if n < 1 or n > ENUMERATION_VERTEX_BOUND:
        raise InputError(
            f"exhaustive enumeration is limited to 1 <= n <= {ENUMERATION_VERTEX_BOUND}"
        )
    all_pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    candidates: list[tuple[int, ...]] = []
    for picks in range(1 << len(all_pairs)):
        edges = tuple(all_pairs[i] for i in range(len(all_pairs)) if picks >> i & 1)
        if per_color_edge_predicate is not None and not per_color_edge_predicate(n, edges):
            continue
        masks = [0] * n
        for a, b in edges:
            masks[a] |= 1 << b
            masks[b] |= 1 << a
        candidates.append(tuple(masks))
    visited = 0
    for combo in product(candidates, repeat=n):
        visited += 1
        if visitor(GraphCollection(n, combo)) is False:
            break
    return visited


def small_vertex_probe_family(n: int, seed: int = 0) -> GraphCollection:
    """Collection with exactly one vertex of sub-half degree in every color.

    Vertex 0 gets ceil(n/2)-1 neighbors per color (just below half), all
    other vertices form a clique; the degree-sum bound survives because 0's
    non-neighbors are clique vertices.  Needs n >= 5: below that the small
    vertex drags the bound under n.
    """
    if n < 5:
        raise GenerationError(f"probe construction needs n >= 5, got {n}")
    rng = random.Random(seed)
    target = (n + 1) // 2 - 1
    rest = list(range(1, n))
    lists = []
    for _color in range(n):
        attached = rng.sample(rest, target)
        lists.append(clique_edges(rest) + [canonical_edge(0, a) for a in attached])
    collection = GraphCollection.from_edge_lists(n, lists)
    audit = audit_small_vertices(collection)
    if audit != {0}:
        raise GenerationError(f"probe family audit failed: small-everywhere set {audit}")
    if not check_hypothesis(collection, 0):
        raise GenerationError("probe family misses the sigma2 >= n bound")
    return collection


def audit_small_vertices(collection: GraphCollection) -> set[int]:
    """Vertices whose degree is below n/2 in every color."""
    n = collection.n_vertices
    return {x for x in range(n)
            if all(row[x].bit_count() < n / 2 for row in collection.adjacency)}


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


def _forest_roles(rng: random.Random, n: int, k: int, q: int):
    """Random labels for a k-edge forest with q >= 1 interior components.

    Returns (h_u, h_v, interior, free): the endpoint components oriented
    away from u and v, the interior components oriented anchor first, and
    the shuffled vertices outside the forest.  Every vertex but the anchors
    is deleted by ``select_deletion_set``, which keeps the smaller end of an
    interior component, so each anchor gets the smaller label of its ends.
    """
    extra = [0] * (q + 2)
    for _ in range(k - q):
        extra[rng.randrange(q + 2)] += 1
    pool = rng.sample(range(n), n)
    h_u = [pool.pop() for _ in range(extra[0] + 1)]
    h_v = [pool.pop() for _ in range(extra[1] + 1)]
    interior = []
    for size in extra[2:]:
        comp = [pool.pop() for _ in range(size + 2)]
        if comp[0] > comp[-1]:
            comp[0], comp[-1] = comp[-1], comp[0]
        interior.append(comp)
    return h_u, h_v, interior, pool


def _family_forest(rng: random.Random, comps, k: int) -> RainbowLinearForest:
    """The components as a forest whose edges take the colors 0..k-1 in random order."""
    edges = [(a, b) for comp in comps for a, b in zip(comp, comp[1:])]
    colors = rng.sample(range(k), k)
    return RainbowLinearForest.from_paths([c for c in comps if len(c) > 1], dict(zip(edges, colors)))


def case2_family(seed: int):
    """Seeded instance whose solve builds an identical-split (case-2) path.

    Colors 0..k-1 are complete and carry the forest.  Every other color is
    the same graph: cliques X and Y, and the deleted forest vertices D joined
    to everything.  The q >= 1 interior components are anchored in X or in
    Y.  A non-adjacent x, y has degree sum |X| + |Y| - 2 + 2|D| = n + k, so
    the hypothesis holds with equality.  Returns (collection, forest, u, v, k).
    """
    rng = random.Random(seed)
    n = rng.randint(7, 14)
    k = rng.randint(1, (n - 4) // 3)
    h_u, h_v, interior, free = _forest_roles(rng, n, k, rng.randint(1, k))
    rest = [comp[0] for comp in interior] + free
    rng.shuffle(rest)
    ell = rng.randint(1, len(rest) - 1)
    x_mask, y_mask, full = mask_of(rest[:ell]), mask_of(rest[ell:]), (1 << n) - 1
    d_mask = full ^ x_mask ^ y_mask
    side = {z: x_mask if x_mask >> z & 1 else y_mask if y_mask >> z & 1 else full for z in range(n)}
    structured = tuple((side[z] | d_mask) & ~(1 << z) for z in range(n))
    complete = tuple(full & ~(1 << z) for z in range(n))
    rows = [complete if c < k else structured for c in range(n)]
    forest = _family_forest(rng, [h_u, h_v, *interior], k)
    return GraphCollection(n, tuple(rows)), forest, h_u[0], h_v[0], k


def case3_family(seed: int):
    """Seeded instance whose solve builds a heavy-side (case-3) path.

    Colors 0..k-1 are complete and carry the forest.  In every other color
    Y is independent and complete to X = X' + D, D (the deleted forest
    vertices) is a clique, X' has internal edges with probability 0 or 0.2
    and D-X' edges with a density from 1 down to 0, and then
    ``gen._repair_sigma2`` restores the n + k bound.  Two vertices of Y have
    degree sum 2|X| = n + k already, so the repair never joins them.  Each
    interior component is anchored in Y (at least one) or in X'.
    Returns (collection, forest, u, v, k).
    """
    rng = random.Random(seed)
    k = rng.randint(1, 4)
    n = rng.randrange(3 * k + 4, 17, 2)
    q = rng.randint(1, k)
    h_u, h_v, interior, free = _forest_roles(rng, n, k, q)
    y_size, x_size = (n - k) // 2, (n - k) // 2 - 2
    in_y = rng.randint(max(1, q - x_size), min(q, y_size))
    anchors = [comp[0] for comp in interior]
    rng.shuffle(anchors)
    y_side = anchors[:in_y] + free[: y_size - in_y]
    x_prime = anchors[in_y:] + free[y_size - in_y :]
    y_mask, x_mask, full = mask_of(y_side), mask_of(x_prime), (1 << n) - 1
    d_mask = full ^ y_mask ^ x_mask
    p = rng.choice((0.0, 0.2))
    density = rng.choice((1.0, 0.75, 0.5, 0.25, 0.0))
    masks = []
    for c in range(n):
        row = [full if c < k else x_mask | d_mask if y_mask >> z & 1 else y_mask for z in range(n)]
        for a, b in combinations(bits(full ^ y_mask) if c >= k else (), 2):
            if d_mask >> a & 1 and d_mask >> b & 1 or rng.random() < (
                    p if x_mask >> a & 1 and x_mask >> b & 1 else density):
                row[a] |= 1 << b
                row[b] |= 1 << a
        masks.append([mask & ~(1 << z) for z, mask in enumerate(row)])
    _repair_sigma2(masks, n, n + k)
    collection = GraphCollection(n, tuple(tuple(row) for row in masks))
    forest = _family_forest(rng, [h_u, h_v, *interior], k)
    return collection, forest, h_u[0], h_v[0], k


@cache
def case3_tight_family(seed: int):
    """``case3_family(seed)`` with its retained colors thinned to the bound.

    The edges of colors k..n-1 are deleted in a seeded random order, and a
    deletion stands only while that color keeps sigma2 >= n + k: deleting ab
    changes only the degree sums of pairs at a or b.  Two vertices of Y
    already sum to n + k, so every X-Y edge stays and solve still builds a
    case-3 path.  The pass is slow, so each seed's instance is built once
    per test run.  Returns (collection, forest, u, v, k).
    """
    collection, forest, u, v, k = case3_family(seed)
    n, bound = collection.n_vertices, collection.n_vertices + k
    masks = [list(row) for row in collection.adjacency]
    edges = [(c, a, b) for c in range(k, n) for a, b in collection.edges(c)]
    random.Random(f"tight {seed}").shuffle(edges)
    for c, a, b in edges:
        row = masks[c]
        row[a] ^= 1 << b
        row[b] ^= 1 << a
        if any(row[z].bit_count() + row[y].bit_count() < bound
               for z in (a, b) for y in bits(((1 << n) - 1) & ~row[z] & ~(1 << z))):
            row[a] ^= 1 << b
            row[b] ^= 1 << a
    return GraphCollection(n, tuple(tuple(row) for row in masks)), forest, u, v, k


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
