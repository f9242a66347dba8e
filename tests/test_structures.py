import random

import pytest

from rainbowpath import (
    FOUND,
    ExtremalCertificate,
    GraphCollection,
    InputError,
    RainbowLinearForest,
    cycle_from_extremal,
    detect_identical_split,
    detect_independent_heavy_side,
    enumerate_collections,
    exact_rainbow_ham_cycle,
    validate_cycle_certificate,
    verify_certificate,
)
from rainbowpath.gen import build_extremal
from rainbowpath.solver import solve_pair
from rainbowpath.structures import certificate_violations

from .conftest import clique_edges, complete_collection


def split_by_component_search(collection):
    """Reference identical-split detector: X is vertex 0's component, by BFS."""
    if collection.n_colors == 0 or collection.n_vertices < 2:
        return None
    first = collection.adjacency[0]
    if any(row != first for row in collection.adjacency[1:]):
        return None
    n = collection.n_vertices
    seen = 1
    frontier = [0]
    while frontier:
        x = frontier.pop()
        mask = first[x] & ~seen
        while mask:
            low = mask & -mask
            seen |= low
            frontier.append(low.bit_length() - 1)
            mask ^= low
    X = frozenset(v for v in range(n) if seen >> v & 1)
    Y = frozenset(range(n)) - X
    if not Y:
        return None
    for v in range(n):
        side = seen if v in X else ((1 << n) - 1) ^ seen
        if first[v] != side & ~(1 << v):
            return None
    return len(X), X, Y


def heavy_side_by_search(collection):
    """Reference heavy-side detector, by depth-first search.

    Returns the lexicographically first independent set of size n/2 + 1 in
    the union graph.
    """
    n = collection.n_vertices
    if n % 2 != 0:
        return None
    size = n // 2 + 1
    union = collection.union_adjacency()
    chosen = []

    def extend(start, banned):
        if len(chosen) == size:
            return True
        for v in range(start, n):
            if n - v < size - len(chosen):
                return False
            if banned >> v & 1:
                continue
            chosen.append(v)
            if extend(v + 1, banned | union[v] | 1 << v):
                return True
            chosen.pop()
        return False

    if not extend(0, 0):
        return None
    Y = frozenset(chosen)
    return frozenset(range(n)) - Y, Y


def _random_edges(rng, vertices, p):
    return [e for e in clique_edges(vertices) if rng.random() < p]


def _near_heavy_side(rng, n, m):
    """Y of size n/2 + 1 complete to X in every color, maybe one Y-Y edge.

    Adding an edge never lowers sigma2, so each result has sigma2 >= n - 2.
    """
    ys = rng.sample(range(n), n // 2 + 1)
    xs = set(range(n)) - set(ys)
    cross = [e for e in clique_edges(range(n)) if (e[0] in xs) != (e[1] in xs)]
    lists = [cross + _random_edges(rng, xs, rng.random()) for _ in range(m)]
    if rng.random() < 0.5:
        a, b = rng.sample(ys, 2)
        lists[rng.randrange(m)].append((min(a, b), max(a, b)))
    return GraphCollection.from_edge_lists(n, lists)


def _near_split(rng, n, m):
    """Identical colors K_l + K_(n-l), then a few edits to one or all colors."""
    left = set(rng.sample(range(n), rng.randint(1, n - 1)))
    base = {e for e in clique_edges(range(n)) if (e[0] in left) == (e[1] in left)}
    for _ in range(rng.choice((0, 0, 1, 2))):
        a, b = rng.sample(range(n), 2)
        base ^= {(min(a, b), max(a, b))}
    lists = [sorted(base)] * m
    if rng.random() < 0.1:
        lists[-1] = _random_edges(rng, range(n), 0.5)
    return GraphCollection.from_edge_lists(n, lists)


class TestDetectIdenticalSplit:
    def test_two_cliques(self):
        coll = GraphCollection.from_edge_lists(4, [[(0, 1), (2, 3)]] * 6)
        got = detect_identical_split(coll)
        assert got == (2, frozenset({0, 1}), frozenset({2, 3}))

    def test_single_clique_rejected(self):
        assert detect_identical_split(complete_collection(4, m=6)) is None

    def test_unequal_colors_rejected(self):
        coll = GraphCollection.from_edge_lists(4, [[(0, 1), (2, 3)], [(0, 1)]])
        assert detect_identical_split(coll) is None

    def test_three_components_rejected(self):
        coll = GraphCollection.from_edge_lists(6, [[(0, 1), (2, 3)]] * 6)
        assert detect_identical_split(coll) is None

    def test_non_clique_component_rejected(self):
        coll = GraphCollection.from_edge_lists(5, [[(0, 1), (1, 2), (3, 4)]] * 5)
        assert detect_identical_split(coll) is None

    def test_matches_brute_force_on_enumeration(self):
        # Exhaustive cross-check on every 3-vertex collection with 3 colors.
        def brute(coll):
            first = coll.adjacency[0]
            if any(row != first for row in coll.adjacency[1:]):
                return False
            comps = []
            left = set(range(coll.n_vertices))
            while left:
                root = min(left)
                comp = {root}
                frontier = [root]
                while frontier:
                    x = frontier.pop()
                    for y in range(coll.n_vertices):
                        if y not in comp and first[x] >> y & 1:
                            comp.add(y)
                            frontier.append(y)
                comps.append(comp)
                left -= comp
            if len(comps) != 2:
                return False
            return all(
                coll.has_edge(0, a, b)
                for comp in comps
                for a in comp
                for b in comp
                if a < b
            )

        mismatches = []

        def visit(coll):
            got = detect_identical_split(coll) is not None
            if got != brute(coll):
                mismatches.append(coll)

        enumerate_collections(3, None, visit)
        assert not mismatches

    def test_matches_component_search(self):
        rng = random.Random(20)
        found = 0
        for _ in range(3000):
            n = rng.randint(2, 9)
            m = rng.randint(1, 4)
            if rng.random() < 0.8:
                coll = _near_split(rng, n, m)
            else:
                coll = GraphCollection.from_edge_lists(n, [_random_edges(rng, range(n), rng.random())] * m)
            want = split_by_component_search(coll)
            assert detect_identical_split(coll) == want, coll.adjacency
            found += want is not None
        assert found >= 1000


class TestDetectHeavySide:
    def test_star_leaves(self):
        coll = GraphCollection.from_edge_lists(4, [[(0, 1), (0, 2), (0, 3)]] * 4)
        got = detect_independent_heavy_side(coll)
        assert got == (frozenset({0}), frozenset({1, 2, 3}))

    def test_complete_none(self):
        assert detect_independent_heavy_side(complete_collection(4)) is None

    def test_odd_none(self):
        assert detect_independent_heavy_side(complete_collection(5)) is None

    def test_lexicographically_smallest(self):
        # Both {1,2,3} and {1,2,4}-style sets may be independent; expect lex-min.
        coll = GraphCollection.from_edge_lists(4, [[(0, 3)]] * 4)
        got = detect_independent_heavy_side(coll)
        assert got is not None
        assert sorted(got[1]) == [0, 1, 2]

    def test_union_over_colors(self):
        # Independent per color but not in the union: must be rejected.
        coll = GraphCollection.from_edge_lists(
            4, [[(1, 2)], [(1, 3)], [(2, 3)], [(0, 1)]]
        )
        got = detect_independent_heavy_side(coll)
        assert got is None

    def test_matches_search_under_dispatch_precondition(self):
        # Under sigma2 >= n - 2 in every color the heavy side is unique, so
        # the closed form returns exactly what the search returns.
        rng = random.Random(7)
        checked = found = 0
        while checked < 500:
            n = rng.choice((2, 4, 6, 8, 10, 12))
            if rng.random() < 0.7:
                coll = _near_heavy_side(rng, n, n)
            else:
                coll = GraphCollection.from_edge_lists(
                    n, [_random_edges(rng, range(n), rng.uniform(0.5, 0.95)) for _ in range(n)]
                )
            if any(value < n - 2 for value in coll.sigma2s):
                continue
            want = heavy_side_by_search(coll)
            assert detect_independent_heavy_side(coll) == want, coll.adjacency
            checked += 1
            found += want is not None
        assert 150 <= found <= 350

    def test_any_answer_is_a_heavy_side(self):
        rng = random.Random(8)
        found = 0
        for _ in range(2000):
            n = rng.randint(1, 12)
            coll = GraphCollection.from_edge_lists(
                n, [_random_edges(rng, range(n), rng.uniform(0.0, 0.5)) for _ in range(rng.randint(0, 3))]
            )
            got = detect_independent_heavy_side(coll)
            if got is None:
                continue
            found += 1
            X, Y = got
            union = coll.union_adjacency()
            assert len(Y) == n // 2 + 1 and n % 2 == 0
            assert X == frozenset(range(n)) - Y
            assert all(not union[y] >> z & 1 for y in Y for z in Y)
        assert found >= 200

    def test_canonical_b3_n60_is_answered(self):
        coll, meta = build_extremal("B3", 60)
        u, v = meta["pair"]
        outcome = solve_pair(coll, u, v)
        assert outcome.extremal is not None and outcome.extremal.kind == "B3"
        assert verify_certificate(coll, outcome.extremal)


class TestVerifyCertificate:
    def test_builders_round_trip(self):
        cases = [
            ("A2", 6, 0), ("A3", 6, 0), ("B2", 5, 0), ("B2", 4, 0),
            ("B3", 4, 0), ("B3", 6, 0), ("C2", 10, 2), ("C3", 10, 2),
        ]
        for kind, n, k in cases:
            coll, meta = build_extremal(kind, n, k)
            cert = meta["certificate"]
            assert verify_certificate(coll, cert, meta["forest"]), (kind, n, k)

    def test_b3_missing_cross_edge(self):
        coll, meta = build_extremal("B3", 6)
        lists = [coll.edges(c) for c in range(coll.n_colors)]
        lists[2] = [e for e in lists[2] if e != (0, 3)]
        broken = GraphCollection.from_edge_lists(6, lists)
        assert not verify_certificate(broken, meta["certificate"])

    def test_c3_forest_vertex_in_y(self):
        coll, meta = build_extremal("C3", 10, 2)
        cert = meta["certificate"]
        bad = ExtremalCertificate(
            "C3", cert.X - {0} | {max(cert.Y)}, cert.Y - {max(cert.Y)} | {0},
            pair=cert.pair,
        )
        problems = certificate_violations(coll, bad, meta["forest"])
        assert any("forest vertex" in p for p in problems)

    def test_b2_pair_required(self):
        coll, meta = build_extremal("B2", 5)
        cert = meta["certificate"]
        bad = ExtremalCertificate("B2", cert.X, cert.Y, pair=None)
        assert not verify_certificate(coll, bad)

    def test_c2_component_count(self):
        coll, meta = build_extremal("C2", 10, 2)
        forest3 = RainbowLinearForest.from_paths(
            [(0, 2), (1, 3), (4, 5)], {(0, 2): 0, (1, 3): 1, (4, 5): 2}
        )
        problems = certificate_violations(coll, meta["certificate"], forest3)
        assert any("two forest components" in p for p in problems)

    def test_unknown_kind_rejected(self):
        with pytest.raises(InputError):
            ExtremalCertificate("Z9", frozenset(), frozenset())


class TestCycleFromExtremal:
    def test_b3_four_vertices(self, k22):
        cert = ExtremalCertificate("B3", frozenset({0, 1}), frozenset({2, 3}), pair=(0, 1))
        cycle = cycle_from_extremal(k22, cert)
        assert cycle.order == (0, 2, 1, 3)
        assert validate_cycle_certificate(k22, cycle)
        assert len(set(cycle.coloring)) == 4

    def test_b2_family(self):
        coll, meta = build_extremal("B2", 5)
        cycle = cycle_from_extremal(coll, meta["certificate"])
        assert validate_cycle_certificate(coll, cycle)
        assert exact_rainbow_ham_cycle(coll).status == FOUND

    def test_b2_singleton_sides(self):
        coll, meta = build_extremal("B2", 4)
        cycle = cycle_from_extremal(coll, meta["certificate"])
        assert len(cycle.order) == 4
        assert validate_cycle_certificate(coll, cycle)

    def test_oracle_confirms_across_sizes(self):
        for kind, n in (("B2", 6), ("B2", 7), ("B3", 6), ("B3", 8)):
            coll, meta = build_extremal(kind, n)
            cycle = cycle_from_extremal(coll, meta["certificate"])
            assert validate_cycle_certificate(coll, cycle)
            assert exact_rainbow_ham_cycle(coll).status == FOUND

    def test_wrong_kind_rejected(self):
        coll, meta = build_extremal("A2", 6)
        with pytest.raises(InputError):
            cycle_from_extremal(coll, meta["certificate"])

    def test_unverified_certificate_rejected(self, k22):
        # Wrong partition: (0,1) is not a cross edge of the true bipartition.
        cert = ExtremalCertificate("B3", frozenset({0, 2}), frozenset({1, 3}), pair=(0, 2))
        with pytest.raises(InputError):
            cycle_from_extremal(k22, cert)
