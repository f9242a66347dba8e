import random

import pytest

from rainbowpath import (
    FOUND,
    NOT_FOUND,
    UNKNOWN,
    GraphCollection,
    InputError,
    OracleBudget,
    RainbowLinearForest,
    exact_rainbow_ham_cycle,
    exact_rainbow_ham_path,
    validate_cycle_certificate,
    validate_path_certificate,
)
from rainbowpath.gen import GenSpec, build_extremal, random_instance

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

    def test_budget_unknown(self):
        coll = complete_collection(9)
        assert exact_rainbow_ham_cycle(coll, OracleBudget(node_limit=2)).status == UNKNOWN

    def test_canonical_c3_within_node_budget(self):
        # Remembering dead states settles this in 6,961 nodes; the search
        # without them needed 21,427 and ran out of this budget.
        coll = build_extremal("C3", 11, 1)[0]
        result = exact_rainbow_ham_cycle(coll, OracleBudget(node_limit=10_000))
        assert result.status == FOUND
        assert validate_cycle_certificate(coll, result.certificate)


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
