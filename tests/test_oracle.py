import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbowpath import (
    FOUND,
    NOT_FOUND,
    UNKNOWN,
    GraphCollection,
    InputError,
    OracleBudget,
    RainbowLinearForest,
    canonical_edge,
    exact_rainbow_ham_cycle,
    exact_rainbow_ham_path,
    validate_cycle_certificate,
    validate_path_certificate,
)
from rainbowpath.gen import GenSpec, build_extremal, random_instance
from rainbowpath.model import bits, mask_of
from rainbowpath.oracle import exact_search

from .conftest import (
    brute_ham_cycle_exists,
    brute_ham_path_exists,
    clique_edges,
    complete_collection,
    enumerate_collections,
)


class TestHamPath:
    def test_complete(self, k4):
        result = exact_rainbow_ham_path(k4, 0, 3)
        assert result.status == FOUND
        assert validate_path_certificate(k4, result.certificate)
        assert result.certificate.order[0] == 0
        assert result.certificate.order[-1] == 3

    def test_bipartite_same_side(self, k22):
        assert exact_rainbow_ham_path(k22, 0, 1).status == NOT_FOUND

    def test_b2_blocked_pair(self):
        coll, _ = build_extremal("B2", 5)
        assert exact_rainbow_ham_path(coll, 0, 1).status == NOT_FOUND

    @pytest.mark.parametrize("m, status", [(3, NOT_FOUND), (4, FOUND)])
    def test_fewer_colors_than_path_edges_is_not_found(self, m, status):
        # A Hamiltonian path on five vertices has four edges: three colors
        # cannot color it, so that answer comes before any search node.
        result = exact_rainbow_ham_path(complete_collection(5, m=m), 0, 1)
        assert result.status == status
        if status == NOT_FOUND:
            assert (result.certificate, result.nodes) == (None, 0)

    def test_forest_forced_contiguous(self):
        coll = complete_collection(7)
        forest = RainbowLinearForest.from_paths([(3, 4, 5)], {(3, 4): 0, (4, 5): 1})
        result = exact_rainbow_ham_path(coll, 0, 1, forest)
        assert result.status == FOUND
        assert validate_path_certificate(coll, result.certificate, forest)

    def test_forest_color_missing_is_not_found(self, k22):
        forest = RainbowLinearForest.from_paths([(0, 1)], {(0, 1): 0})
        assert exact_rainbow_ham_path(k22, 2, 3, forest).status == NOT_FOUND

    def test_forest_color_out_of_range_rejected(self):
        coll = complete_collection(8)
        forest = RainbowLinearForest.from_paths([(5, 6)], {(5, 6): 99})
        with pytest.raises(InputError):
            exact_rainbow_ham_path(coll, 0, 1, forest)

    def test_forest_vertex_out_of_range_rejected(self):
        coll = complete_collection(8)
        forest = RainbowLinearForest.from_paths([(5, 60)], {(5, 60): 0})
        with pytest.raises(InputError):
            exact_rainbow_ham_path(coll, 0, 1, forest)

    def test_incompatible_pair_not_found(self):
        coll = complete_collection(5)
        forest = RainbowLinearForest.from_paths([(0, 2, 1)], {(0, 2): 0, (1, 2): 1})
        assert exact_rainbow_ham_path(coll, 0, 1, forest).status == NOT_FOUND

    def test_determinism(self):
        coll, forest, u, v = random_instance(GenSpec(n=7, k=1, p=0.7, seed=11))
        a = exact_rainbow_ham_path(coll, u, v, forest)
        b = exact_rainbow_ham_path(coll, u, v, forest)
        assert a.status == b.status
        assert a.certificate == b.certificate

    def test_budget_exhaustion_is_unknown(self):
        coll = complete_collection(9)
        result = exact_rainbow_ham_path(coll, 0, 8, budget=OracleBudget(node_limit=2))
        assert result.status == UNKNOWN

    @pytest.mark.parametrize("limits", [
        {"node_limit": 0}, {"time_limit": 0.0}, {"time_limit": float("nan")},
    ])
    def test_budget_limit_not_positive_rejected(self, limits):
        with pytest.raises(InputError, match="budget limits must be positive"):
            OracleBudget(**limits)

    def test_same_endpoints_rejected(self, k4):
        with pytest.raises(InputError):
            exact_rainbow_ham_path(k4, 1, 1)

    def test_agrees_with_permutation_search(self):
        for seed in range(25):
            n = 5 + seed % 2
            coll, forest, u, v = random_instance(
                GenSpec(n=n, k=0, p=0.45 + (seed % 4) * 0.15, seed=seed)
            )
            got = exact_rainbow_ham_path(coll, u, v, forest)
            assert got.status in (FOUND, NOT_FOUND)
            assert (got.status == FOUND) == brute_ham_path_exists(coll, u, v, forest)

    @pytest.mark.parametrize("n", [11, 13])
    def test_canonical_c3_blocked_without_search(self, n):
        # Y is independent and too large to thread between u and v, so the
        # independent-set bound settles the root (513 and 2,561 nodes before).
        coll, meta = build_extremal("C3", n, 1)
        u, v = meta["pair"]
        result = exact_rainbow_ham_path(coll, u, v, meta["forest"])
        assert (result.status, result.nodes) == (NOT_FOUND, 0)

    @pytest.mark.parametrize("kind, n, k", [
        ("B2", 10, 0), ("B2", 12, 0), ("B2", 16, 0),
        ("B3", 10, 0), ("B3", 12, 0), ("B3", 16, 0),
        ("C2", 10, 2), ("C2", 12, 2),
    ])
    def test_canonical_blocked_pair_settled_without_search(self, kind, n, k):
        # B2 and C2 join their two cliques only at the pair, so the free
        # vertices are union-disconnected once the pair is placed; B3's
        # independent side is too large to thread.  B3 n=16 took 23,801
        # nodes before the greedy ordered by degree into the free set.
        coll, meta = build_extremal(kind, n, k)
        u, v = meta["pair"]
        result = exact_rainbow_ham_path(coll, u, v, meta["forest"])
        assert (result.status, result.nodes) == (NOT_FOUND, 0)

    def test_interior_segment_separates_independent_free_vertices(self):
        # The only path is 0-1-3-4-2-5.  Free vertices 1 and 2 are independent
        # and only the forest path 3-4 lies between them, so a bound that left
        # segment vertices out of k would cut the root and answer NotFound.
        lists = [[(3, 4)]] + [[(0, 1), (1, 3), (2, 4), (2, 5)]] * 4
        coll = GraphCollection.from_edge_lists(6, lists)
        forest = RainbowLinearForest.from_paths([(3, 4)], {(3, 4): 0})
        result = exact_rainbow_ham_path(coll, 0, 5, forest)
        assert result.status == FOUND
        assert result.certificate.order == (0, 1, 3, 4, 2, 5)
        assert validate_path_certificate(coll, result.certificate, forest)


class TestHamCycle:
    def test_k23_no_cycle(self, k23):
        assert exact_rainbow_ham_cycle(k23).status == NOT_FOUND

    def test_complete(self, k4):
        result = exact_rainbow_ham_cycle(k4)
        assert result.status == FOUND
        assert validate_cycle_certificate(k4, result.certificate)

    def test_k22_cycle(self, k22):
        result = exact_rainbow_ham_cycle(k22)
        assert result.status == FOUND
        assert validate_cycle_certificate(k22, result.certificate)

    def test_too_few_colors_rejected(self):
        coll = complete_collection(4, m=3)
        with pytest.raises(InputError):
            exact_rainbow_ham_cycle(coll)

    @pytest.mark.parametrize("n, m", [(1, 1), (2, 2), (2, 3)])
    def test_below_three_vertices_is_not_found(self, n, m):
        # One or two vertices close no cycle: NotFound before any search node.
        result = exact_rainbow_ham_cycle(complete_collection(n, m=m))
        assert (result.status, result.certificate, result.nodes) == (NOT_FOUND, None, 0)

    def test_budget_unknown(self):
        coll = complete_collection(9)
        assert exact_rainbow_ham_cycle(coll, OracleBudget(node_limit=2)).status == UNKNOWN

    def test_time_budget_unknown(self):
        # The clock is read every 256 nodes; this search is still undecided
        # after 20,000.
        spec = GenSpec(n=17, k=1, model="perturbed_extremal", extremal_kind="C3", flips=1, seed=0)
        coll = random_instance(spec)[0]
        assert exact_rainbow_ham_cycle(coll, OracleBudget(node_limit=20_000)).status == UNKNOWN
        result = exact_rainbow_ham_cycle(coll, OracleBudget(time_limit=1e-6))
        assert (result.status, result.nodes) == (UNKNOWN, 256)

    def test_canonical_c3_within_node_budget(self):
        # The forest color is complete, so the union graph is complete and
        # only the rainbow bound sees that the Y-Y edges share one color: one
        # node per vertex.  Without it these took 6,961 nodes, 297,403, and
        # more than 3,000,000.
        for n in (11, 13, 15):
            coll = build_extremal("C3", n, 1)[0]
            result = exact_rainbow_ham_cycle(coll, OracleBudget(node_limit=n))
            assert result.status == FOUND
            assert validate_cycle_certificate(coll, result.certificate)

    def test_canonical_b2_within_one_node_per_vertex(self):
        # Every move into the other clique leaves the rest union-disconnected
        # (2,853 nodes before the connectivity cut).
        coll = build_extremal("B2", 16)[0]
        result = exact_rainbow_ham_cycle(coll)
        assert result.status == FOUND and result.nodes <= 16
        assert validate_cycle_certificate(coll, result.certificate)


def test_open_search_on_disconnected_active_vertices_settles_every_root():
    # Cliques {0, 1, 2, 6} and {3, 4, 5, 6} meet only at 6, which is left out.
    edges = clique_edges((0, 1, 2, 6)) + clique_edges((3, 4, 5, 6))
    coll = GraphCollection.from_edge_lists(7, [edges] * 7)
    active = mask_of(range(6))
    heads = [(start,) for start in bits(active)]
    assert exact_search(coll, heads, OracleBudget(), active=active) == (None, None, 0)


class TestEnumerate:
    def test_all_graphs_n3(self):
        seen = []
        count = enumerate_collections(3, None, lambda c: seen.append(1))
        assert count == 8**3 == 512
        assert len(seen) == 512

    def test_predicate_filter_count_matches_recount(self):
        def min_degree_two(n, edges):
            degs = [0] * n
            for a, b in edges:
                degs[a] += 1
                degs[b] += 1
            return all(d >= 2 for d in degs)

        # On 3 vertices only the triangle has min degree 2.
        count = enumerate_collections(3, min_degree_two, lambda c: None)
        assert count == 1

        both = [0, 0]

        def recount(n, edges):
            both[0] += 1
            return True

        enumerate_collections(3, recount, lambda c: both.__setitem__(1, both[1] + 1))
        assert both[0] == 8  # candidate graphs per color
        assert both[1] == 512

    def test_early_abort(self):
        count = enumerate_collections(3, None, lambda c: False)
        assert count == 1

    def test_bound_refusal(self):
        with pytest.raises(InputError):
            enumerate_collections(6, None, lambda c: None)


def _sparse_case(rng: random.Random, n: int, m: int):
    """A sparse collection, a random u, v and a forest of at most one path."""
    p = rng.choice((0.2, 0.3, 0.4))
    lists = [[e for e in clique_edges(range(n)) if rng.random() < p] for _ in range(m)]
    coll = GraphCollection.from_edge_lists(n, lists)
    u, v = rng.sample(range(n), 2)
    forest = RainbowLinearForest.empty()
    if rng.random() < 0.5:
        verts = rng.sample(range(n), rng.choice((2, 3)))
        colors = rng.sample(range(m), len(verts) - 1)
        forest = RainbowLinearForest.from_paths(
            [verts], {(a, b): c for a, b, c in zip(verts, verts[1:], colors)}
        )
    return coll, u, v, forest


def test_sparse_statuses_match_permutation_search():
    """Exact search agrees with the permutation searches where colors are scarce.

    With m close to n, a state the search reaches twice can fail the first
    time only because the colors are already spent; remembering it as dead
    would then lose a real order.  Sparse collections with m in {n-1, n, n+1}
    make that case common; inputs that meet the degree-sum hypothesis,
    as the acceptance corpus does, rarely reach it.
    """
    rng = random.Random(2024)
    for _ in range(3000):
        n = rng.randint(4, 7)
        m = n + rng.choice((-1, 0, 1))
        coll, u, v, forest = _sparse_case(rng, n, m)
        path = exact_rainbow_ham_path(coll, u, v, forest)
        assert path.status == (FOUND if brute_ham_path_exists(coll, u, v, forest) else NOT_FOUND)
        if path.found:
            assert validate_path_certificate(coll, path.certificate, forest)
        if m >= n:
            cycle = exact_rainbow_ham_cycle(coll)
            assert cycle.status == (FOUND if brute_ham_cycle_exists(coll) else NOT_FOUND)
            if cycle.found:
                assert validate_cycle_certificate(coll, cycle.certificate)


def test_sparse_two_path_forests_match_permutation_search():
    """The independent-set bound counts every segment vertex between the ends.

    Forests of up to two paths put interior components between free
    vertices; a bound that misses them would cut states with completions.
    """
    rng = random.Random(4177)
    for _ in range(1500):
        n = rng.randint(5, 7)
        m = n + rng.choice((-1, 0, 1))
        p = rng.choice((0.2, 0.3, 0.4, 0.6))
        lists = [[e for e in clique_edges(range(n)) if rng.random() < p] for _ in range(m)]
        coll = GraphCollection.from_edge_lists(n, lists)
        u, v = rng.sample(range(n), 2)
        sizes = rng.choice(((), (2,), (3,), (2, 2), (2, 3)))
        verts = rng.sample(range(n), sum(sizes))
        paths = [verts[:sizes[0]], verts[sizes[0]:]] if len(sizes) == 2 else [verts] if sizes else []
        edges = [(a, b) for path in paths for a, b in zip(path, path[1:])]
        colors = rng.sample(range(m), len(edges))
        forest = RainbowLinearForest.from_paths(paths, dict(zip(edges, colors)))
        path = exact_rainbow_ham_path(coll, u, v, forest)
        assert path.status == (FOUND if brute_ham_path_exists(coll, u, v, forest) else NOT_FOUND)
        if path.found:
            assert validate_path_certificate(coll, path.certificate, forest)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(4, 7), extra=st.integers(0, 1), p=st.floats(0.25, 0.7),
       rng=st.randoms(use_true_random=True))
def test_sparse_union_statuses_match_permutation_search(n, extra, p, rng):
    """The connectivity cut agrees with the permutation searches.

    The union graph keeps each pair with probability p, so at the low end it
    is often disconnected, and each color keeps half of its edges.  Half the
    cases add a one-path forest off u and v, its edges in their colors: a
    segment that may join free vertices with no union edge between them, so
    the cut must wait until it is placed.
    """
    m = n + extra
    union = [e for e in clique_edges(range(n)) if rng.random() < p]
    lists = [{e for e in union if rng.random() < 0.5} for _ in range(m)]
    u, v = rng.sample(range(n), 2)
    forest = RainbowLinearForest.empty()
    if rng.random() < 0.5:
        inner = [x for x in range(n) if x not in (u, v)]
        verts = rng.sample(inner, min(len(inner), rng.choice((2, 3))))
        fixed = {}
        for a, b, c in zip(verts, verts[1:], rng.sample(range(m), len(verts) - 1)):
            fixed[canonical_edge(a, b)] = c
            lists[c].add(canonical_edge(a, b))
        forest = RainbowLinearForest.from_paths([verts], fixed)
    coll = GraphCollection.from_edge_lists(n, lists)
    path = exact_rainbow_ham_path(coll, u, v, forest)
    assert path.status == (FOUND if brute_ham_path_exists(coll, u, v, forest) else NOT_FOUND)
    cycle = exact_rainbow_ham_cycle(coll)
    assert cycle.status == (FOUND if brute_ham_cycle_exists(coll) else NOT_FOUND)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(4, 8), extra=st.integers(0, 1), p=st.floats(0.04, 0.6),
       rng=st.randoms(use_true_random=True))
def test_private_edge_statuses_match_permutation_search(n, extra, p, rng):
    """The rainbow bound agrees with the permutation searches.

    Each color keeps each pair with probability p on its own, so many edges
    are private: held by one color only.  Two vertices of I joined by a
    private edge may sit next to each other in an order, once per owner
    color; a bound that forgets those owners cuts states with completions.
    Half the cases add a one-path forest off u and v, whose colors are
    reserved and so own no private edge.
    """
    m = n + extra
    lists = [{e for e in clique_edges(range(n)) if rng.random() < p} for _ in range(m)]
    u, v = rng.sample(range(n), 2)
    forest = RainbowLinearForest.empty()
    if rng.random() < 0.5:
        inner = [x for x in range(n) if x not in (u, v)]
        verts = rng.sample(inner, min(len(inner), rng.choice((2, 3))))
        fixed = {}
        for a, b, c in zip(verts, verts[1:], rng.sample(range(m), len(verts) - 1)):
            fixed[canonical_edge(a, b)] = c
            lists[c].add(canonical_edge(a, b))
        forest = RainbowLinearForest.from_paths([verts], fixed)
    coll = GraphCollection.from_edge_lists(n, lists)
    path = exact_rainbow_ham_path(coll, u, v, forest)
    assert path.status == (FOUND if brute_ham_path_exists(coll, u, v, forest) else NOT_FOUND)
    cycle = exact_rainbow_ham_cycle(coll)
    assert cycle.status == (FOUND if brute_ham_cycle_exists(coll) else NOT_FOUND)
