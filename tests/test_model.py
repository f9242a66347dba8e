import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbowpath import (
    GraphCollection,
    InputError,
    PathCertificate,
    RainbowLinearForest,
    canonical_edge,
    check_hypothesis,
    degree,
    rainbow_assignment,
    sigma2,
    validate_path_certificate,
)
from rainbowpath.gen import build_extremal
from rainbowpath.model import path_certificate_violations

from .conftest import brute_rainbow_exists, complete_collection, small_collections


class TestDegree:
    def test_complete_graph(self, k4):
        assert degree(k4, 0, 2) == 3

    def test_bipartite(self, k22):
        assert degree(k22, 1, 0) == 2

    def test_b2_family_vertex(self):
        coll, _ = build_extremal("B2", 5)
        # vertex 4 sits alone in the small clique: only u and v reach it
        assert degree(coll, 0, 4) == 2

    def test_out_of_range(self, k4):
        with pytest.raises(InputError):
            degree(k4, 9, 0)
        with pytest.raises(InputError):
            degree(k4, 0, 9)


def _double_loop_sigma2(coll, color):
    """Reference: every non-adjacent pair, degrees counted edge by edge."""
    best = math.inf
    for u in range(coll.n_vertices):
        for v in range(coll.n_vertices):
            if u < v and not coll.has_edge(color, u, v):
                du = sum(coll.has_edge(color, u, x) for x in range(coll.n_vertices))
                dv = sum(coll.has_edge(color, v, x) for x in range(coll.n_vertices))
                best = min(best, du + dv)
    return best


class TestSigma2:
    def test_complete_is_infinite(self, k4):
        assert sigma2(k4, 0) == math.inf

    def test_k22(self, k22):
        assert sigma2(k22, 0) == 4

    def test_k23_dirac_extremal(self, k23):
        assert sigma2(k23, 0) == 4

    @given(small_collections())
    @settings(max_examples=60, deadline=None)
    def test_matches_double_loop(self, coll):
        for color in range(coll.n_colors):
            assert sigma2(coll, color) == _double_loop_sigma2(coll, color)

    @pytest.mark.parametrize("density", [0, 0.3, 0.7, 0.95, 1])
    def test_matches_double_loop_up_to_n40(self, density):
        # Larger n and dense colors exercise the degree-order cutoff and
        # degree ties, which n <= 6 barely reaches.
        rng = random.Random(int(density * 100))
        for n in (1, 2, 3, 7, 12, 19, 26, 33, 40):
            lists = [
                [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < density]
                for _ in range(4)
            ]
            coll = GraphCollection.from_edge_lists(n, lists)
            want = tuple(_double_loop_sigma2(coll, c) for c in range(coll.n_colors))
            got = tuple(sigma2(coll, c) for c in range(coll.n_colors))
            assert got == want and list(map(type, got)) == list(map(type, want)), (n, density)
            assert coll.sigma2s == want


class TestCheckHypothesis:
    def test_complete(self, k4):
        assert check_hypothesis(k4, 0)

    def test_k22_meets_n(self, k22):
        assert check_hypothesis(k22, 0)

    def test_k23_fails(self, k23):
        assert not check_hypothesis(k23, 0)

    def test_shape_error(self):
        coll = complete_collection(4, m=3)
        with pytest.raises(InputError):
            check_hypothesis(coll, 0)


class TestRainbowAssignment:
    def test_complete_all_edges(self, k4):
        got = rainbow_assignment(k4, [(0, 1), (1, 2), (2, 3)])
        assert got is not None
        assert len(set(got.values())) == 3
        for (u, v), c in got.items():
            assert k4.has_edge(c, u, v)

    def test_two_edges_one_color(self):
        # edges (0,1) and (2,3) exist only in color 0
        coll = GraphCollection.from_edge_lists(
            4, [[(0, 1), (2, 3)], [(0, 2)], [(0, 2)], [(0, 2)]]
        )
        assert rainbow_assignment(coll, [(0, 1), (2, 3)]) is None

    def test_edge_in_no_color(self, k22):
        assert rainbow_assignment(k22, [(0, 1)]) is None

    def test_forbidden_colors(self, k4):
        got = rainbow_assignment(k4, [(0, 1)], forbidden_colors={0, 1, 2})
        assert got == {(0, 1): 3}

    def test_needs_augmenting_not_greedy(self):
        # Greedy by edge order picks color 0 for (0,1) and starves (1,2).
        coll = GraphCollection.from_edge_lists(3, [[(0, 1), (1, 2)], [(0, 1)]])
        got = rainbow_assignment(coll, [(0, 1), (1, 2)])
        assert got == {(0, 1): 1, (1, 2): 0}

    @given(small_collections(max_n=5, max_m=6), st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_exhaustive_enumeration(self, coll, data):
        pairs = [(a, b) for a in range(coll.n_vertices) for b in range(a + 1, coll.n_vertices)]
        subset = data.draw(
            st.lists(st.sampled_from(pairs), unique=True, max_size=min(8, len(pairs)))
        ) if pairs else []
        got = rainbow_assignment(coll, subset)
        want = brute_rainbow_exists(coll, subset)
        assert (got is not None) == want
        if got is not None:
            assert len(set(got.values())) == len(subset)
            for (u, v), c in got.items():
                assert coll.has_edge(c, u, v)


class TestPathCertificate:
    def test_valid_path(self, k4):
        cert = PathCertificate((0, 1, 2, 3), (0, 1, 2))
        assert validate_path_certificate(k4, cert)

    def test_duplicate_color(self, k4):
        cert = PathCertificate((0, 1, 2, 3), (0, 0, 2))
        problems = path_certificate_violations(k4, cert)
        assert any("more than once" in p for p in problems)

    def test_missing_edge(self, k22):
        cert = PathCertificate((0, 1, 2, 3), (0, 1, 2))  # (0,1) inside a side
        assert not validate_path_certificate(k22, cert)

    def test_not_permutation(self, k4):
        cert = PathCertificate((0, 1, 1, 3), (0, 1, 2))
        assert not validate_path_certificate(k4, cert)

    def test_forest_context(self, k4):
        forest = RainbowLinearForest.from_paths([(1, 2)], {(1, 2): 3})
        good = PathCertificate((0, 1, 2, 3), (0, 3, 2))
        assert validate_path_certificate(k4, good, forest)
        wrong_color = PathCertificate((0, 1, 2, 3), (0, 1, 2))
        assert not validate_path_certificate(k4, wrong_color, forest)
        not_consecutive = PathCertificate((1, 0, 2, 3), (0, 1, 2))
        assert not validate_path_certificate(k4, not_consecutive, forest)

    def test_canonical_edge_rejects_loop(self):
        with pytest.raises(InputError):
            canonical_edge(2, 2)


def test_public_api_names_resolve():
    import rainbowpath

    missing = [name for name in rainbowpath.__all__ if not hasattr(rainbowpath, name)]
    assert missing == []
