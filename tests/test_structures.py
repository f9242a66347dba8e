import random
from dataclasses import replace
from itertools import combinations

import pytest

from rainbowpath import (
    FOUND,
    NOT_FOUND,
    ExtremalCertificate,
    GraphCollection,
    InputError,
    RainbowLinearForest,
    canonical_edge,
    cycle_from_extremal,
    detect_identical_split,
    detect_independent_heavy_side,
    exact_rainbow_ham_cycle,
    exact_rainbow_ham_path,
    validate_cycle_certificate,
    verify_certificate,
)
from rainbowpath.gen import build_extremal
from rainbowpath.solver import solve_pair
from rainbowpath.structures import certificate_violations

from .conftest import clique_edges, complete_collection, enumerate_collections, union_masks


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
    union = union_masks(collection)
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


def _flipped(coll, flips):
    """The collection with edge (a, b) toggled in color c for each (c, a, b)."""
    rows = [list(row) for row in coll.adjacency]
    for c, a, b in flips:
        rows[c][a] ^= 1 << b
        rows[c][b] ^= 1 << a
    return GraphCollection(coll.n_vertices, tuple(map(tuple, rows)))


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
            union = union_masks(coll)
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

    @pytest.mark.parametrize("kind, n, k, flips, expected", [
        ("A2", 6, 0, [(2, 0, 1), (4, 2, 3)], [
            "colors are not identical",
            "A2p X: clique edge (0,1) missing in color 2",
            "A2p: cross edge (2,3) present in color 4",
        ]),
        ("A3", 8, 0, [(1, 3, 5)], ["A3p Y: edge (3,5) present in color 1"]),
        ("B2", 7, 0, [(3, 2, 4), (0, 3, 5), (5, 0, 6)], [
            "B2 X: clique edge (2,4) missing in color 3",
            "B2: cross edge (3,5) present in color 0",
            "B2 forest adjacency: edge (0,6) missing in color 5",
        ]),
        ("B3", 8, 0, [(2, 1, 6)], ["B3 bipartite completeness: edge (1,6) missing in color 2"]),
        ("C3", 10, 2, [(5, 6, 9), (3, 4, 7)], [
            "C3 bipartite completeness: edge (4,7) missing in color 3",
            "C3 Y: edge (6,9) present in color 5",
        ]),
    ])
    def test_first_failing_pair_per_clause(self, kind, n, k, flips, expected):
        # Each clause reports the first pair a pair-by-pair scan meets:
        # colors ascending, then the sides in their iteration order.
        coll, meta = build_extremal(kind, n, k)
        got = certificate_violations(_flipped(coll, flips), meta["certificate"], meta.get("forest"))
        assert got == expected

    @pytest.mark.parametrize("comps, sides, flips, expected", [
        # The forest vertices {0, 9, 1, 17} iterate 9 before 1: the first
        # missing pair is (4,9) although (1,4) is missing too.
        (((0, 9), (1, 17)), (range(2, 9), range(10, 17)), [(2, 1, 4), (2, 9, 4)], [
            "C2: cross edge (2,10) present in color 2",
            "C2 forest adjacency: edge (4,9) missing in color 2",
        ]),
        # X | Y = {2, 17} iterates 17 before 2: the first missing pair is
        # (0,17) although (0,2) is missing too.
        (((0, *range(3, 9)), (1, *range(9, 17))), ({2}, {17}), [(15, 0, 2), (15, 0, 17)], [
            "C2: cross edge (2,17) present in color 14",
            "C2 forest adjacency: edge (0,17) missing in color 15",
        ]),
    ])
    def test_forest_adjacency_scans_sides_in_set_order(self, comps, sides, flips, expected):
        n = 18
        fixed = {edge: c for c, edge in enumerate(
            canonical_edge(a, b) for comp in comps for a, b in zip(comp, comp[1:])
        )}
        coll = GraphCollection.from_edge_lists(
            n, [clique_edges(range(n)) if c >= len(fixed) else list(fixed) for c in range(n)]
        )
        forest = RainbowLinearForest(comps, fixed)
        cert = ExtremalCertificate("C2", frozenset(sides[0]), frozenset(sides[1]), pair=(0, 1))
        assert certificate_violations(_flipped(coll, flips), cert, forest) == expected

    def test_b3_on_complete_collection_rejected(self):
        # Y = {3, 4, 5} is a clique in every color, so it blocks nothing.
        coll = complete_collection(6)
        cert = ExtremalCertificate("B3", frozenset({0, 1, 2}), frozenset({3, 4, 5}), pair=(0, 1))
        assert certificate_violations(coll, cert) == ["B3 Y: edge (3,4) present in color 0"]
        assert not verify_certificate(coll, cert)
        with pytest.raises(InputError):
            cycle_from_extremal(coll, cert)

    @pytest.mark.parametrize("change, problem", [
        ({"pair": (0, 99)}, "B2 pair vertex 99 is not in [0,6)"),
        ({"pair": (-1, 1)}, "B2 pair vertex -1 is not in [0,6)"),
        ({"pair": (0, 1.0)}, "B2 pair vertex 1.0 is not in [0,6)"),
        ({"X": frozenset({2, 3, 7})}, "B2 X vertex 7 is not in [0,6)"),
        ({"Y": frozenset({4, "5"})}, "B2 Y vertex '5' is not in [0,6)"),
    ])
    def test_vertex_outside_collection_reported(self, change, problem):
        coll, meta = build_extremal("B2", 6)
        cert = replace(meta["certificate"], **change)
        assert verify_certificate(coll, meta["certificate"])
        assert certificate_violations(coll, cert) == [problem]
        assert not verify_certificate(coll, cert)

    @pytest.mark.parametrize("kind, n, k", [("B3", 6, 0), ("C3", 9, 1)])
    @pytest.mark.parametrize("pair", [(0,), (0, 0), (0, 1, 2)])
    def test_pair_must_be_two_distinct_vertices(self, kind, n, k, pair):
        # No clause reads the pair's arity, so it is the only problem reported;
        # the cycle builder then refuses it instead of unpacking it.
        coll, meta = build_extremal(kind, n, k)
        cert = replace(meta["certificate"], pair=pair)
        assert verify_certificate(coll, meta["certificate"], meta["forest"])
        assert certificate_violations(coll, cert, meta["forest"]) == [
            f"{kind} pair {list(pair)} is not two distinct vertices"
        ]
        if kind == "B3":
            with pytest.raises(InputError):
                cycle_from_extremal(coll, cert)


def _shape_partitions(kind, n, hub):
    """Every (X, Y) a certificate of ``kind`` could claim around ``hub``.

    Two-clique kinds split V minus the hub into two sides, an empty side
    included; heavy-side kinds split V with the hub inside X, at every size.
    The checker's nonempty and size clauses must reject the extra ones.
    """
    rest = sorted(set(range(n)) - hub)
    for size in range(len(rest) + 1):
        for extra in combinations(rest, size):
            if kind.endswith("2"):
                yield frozenset(extra), frozenset(rest) - frozenset(extra)
            else:
                X = hub | frozenset(extra)
                yield X, frozenset(range(n)) - X


def _relabelled(coll, forest, pair, perm):
    """The instance with every vertex x renamed perm[x]."""
    n = coll.n_vertices
    rows = []
    for row in coll.adjacency:
        renamed = [0] * n
        for x, mask in enumerate(row):
            renamed[perm[x]] = sum(1 << perm[y] for y in range(n) if mask >> y & 1)
        rows.append(tuple(renamed))
    if forest is not None:
        forest = RainbowLinearForest.from_paths(
            [[perm[x] for x in comp] for comp in forest.components],
            {(perm[a], perm[b]): c for (a, b), c in forest.fixed_colors.items()},
        )
    return GraphCollection(n, tuple(rows)), forest, (perm[pair[0]], perm[pair[1]])


def _soundness_inputs(kind, n):
    """Canonical family with 0-2 seeded flips, then the complete collection,
    each under a seeded vertex permutation, so that any vertex takes any role."""
    k = {"B2": 0, "B3": 0, "C2": 1, "C3": n % 2}[kind]
    coll, meta = build_extremal(kind, n, k)
    for seed in range(10):
        rng = random.Random(seed)
        flips = [(rng.randrange(n), *rng.sample(range(n), 2)) for _ in range(seed % 3)]
        base = _flipped(coll, flips) if seed < 9 else complete_collection(n)
        yield _relabelled(base, meta["forest"], meta["pair"], rng.sample(range(n), n))


@pytest.mark.parametrize("kind", ["B2", "B3", "C2", "C3"])
def test_verifier_is_sound_against_oracle(kind):
    # An accepted certificate claims the pair is blocked; the exact oracle
    # must agree.  The complete collection blocks nothing, so a verifier
    # that drops the cross-edge, the Y-independence, the nonempty or the
    # size clause fails here.
    accepted, unsound = 0, []
    for n in (6, 7, 8):
        if kind == "B3" and n % 2:
            continue
        for coll, forest, pair in _soundness_inputs(kind, n):
            hub = frozenset(pair) | (forest.vertices() if forest else frozenset())
            status = None
            for X, Y in _shape_partitions(kind, n, hub):
                cert = ExtremalCertificate(kind, X, Y, pair=pair)
                if not verify_certificate(coll, cert, forest):
                    continue
                accepted += 1
                if status is None:
                    status = exact_rainbow_ham_path(coll, *pair, forest).status
                if status != NOT_FOUND:
                    unsound.append((n, sorted(X), sorted(Y), status))
    assert not unsound
    assert accepted > 0


def _relabelled_family(kind, n, k, seed):
    """Canonical ``kind`` under a seeded vertex permutation: the collection,
    its forest, and its certificate with the sides and the pair renamed."""
    coll, meta = build_extremal(kind, n, k)
    perm = random.Random(seed).sample(range(n), n)
    coll, forest, pair = _relabelled(coll, meta["forest"], meta["pair"] or (0, 1), perm)
    cert = meta["certificate"]
    cert = replace(cert, X=frozenset(perm[x] for x in cert.X), Y=frozenset(perm[y] for y in cert.Y),
                   pair=cert.pair and pair)
    assert certificate_violations(coll, cert, forest) == []
    return coll, forest, cert


@pytest.mark.parametrize("kind, n, k, clause", [
    ("B3", 8, 0, "bipartite completeness"),
    ("C3", 9, 1, "bipartite completeness"),
    ("B2", 8, 0, "forest adjacency"),
    ("C2", 9, 1, "forest adjacency"),
    ("B2", 8, 0, "clique edge"),
    ("C2", 9, 1, "clique edge"),
])
@pytest.mark.parametrize("seed", range(3))
def test_presence_clause_names_each_missing_edge(kind, n, k, clause, seed):
    # Deleting an edge creates no path, so no comparison with the oracle can
    # pin a presence clause: each required edge, removed alone, must be named.
    coll, forest, cert = _relabelled_family(kind, n, k, seed)
    X, Y, pair = cert.X, cert.Y, cert.pair
    color = coll.n_colors - 1  # a color no forest edge uses
    # (a, b, the message's words before the pair)
    if clause == "bipartite completeness":
        required = [(x, y, f"{clause}: edge") for x in X for y in Y]
    elif clause == "forest adjacency":
        hub = set(pair) | set(forest.vertices() if forest else ())
        required = [(h, x, f"{clause}: edge") for h in hub for x in X | Y]
    else:
        required = [(a, b, f"{side}: {clause}") for side, members in (("X", X), ("Y", Y))
                    for a, b in combinations(sorted(members), 2)]
    for a, b, words in required:
        broken = _flipped(coll, [(color, a, b)])
        assert certificate_violations(broken, cert, forest) == [
            f"{kind} {words} ({min(a, b)},{max(a, b)}) missing in color {color}"
        ]


@pytest.mark.parametrize("n, x_size, message", [
    (10, 6, "B3 sides must be ((n+k)/2,(n-k)/2), got (6,4)"),
    (9, 5, "B3 requires n+k even"),
])
@pytest.mark.parametrize("seed", range(3))
def test_size_clause_rejects_an_unbalanced_heavy_side(n, x_size, message, seed):
    # X is a clique, complete to the independent Y in every color, and holds
    # the pair; with |X| = |Y| + 2 or + 1 a path alternates through Y, so the
    # size clause alone stands between this certificate and a false claim.
    edges = [(a, b) for a, b in combinations(range(n), 2) if a < x_size]
    perm = random.Random(seed).sample(range(n), n)
    coll, _, pair = _relabelled(GraphCollection.from_edge_lists(n, [edges] * n), None, (0, 1), perm)
    X = frozenset(perm[x] for x in range(x_size))
    cert = ExtremalCertificate("B3", X, frozenset(range(n)) - X, pair=pair)
    assert certificate_violations(coll, cert) == [message]
    assert exact_rainbow_ham_path(coll, *pair).status == FOUND


@pytest.mark.parametrize("empty", ["X", "Y"])
@pytest.mark.parametrize("seed", range(3))
def test_nonempty_clause_rejects_an_empty_side(empty, seed):
    # K10 minus the pair's edge in every color: the other eight vertices form
    # one clique that the whole hub sees, and a 0-1 path runs through it.
    n = 10
    edges = [edge for edge in clique_edges(range(n)) if edge != (0, 1)]
    perm = random.Random(seed).sample(range(n), n)
    coll, _, pair = _relabelled(GraphCollection.from_edge_lists(n, [edges] * n), None, (0, 1), perm)
    sides = {"X": frozenset(), "Y": frozenset()}
    sides["Y" if empty == "X" else "X"] = frozenset(range(n)) - set(pair)
    cert = ExtremalCertificate("B2", pair=pair, **sides)
    assert certificate_violations(coll, cert) == ["B2 requires both sides nonempty"]
    assert exact_rainbow_ham_path(coll, *pair).status == FOUND


@pytest.mark.parametrize("seed", range(3))
def test_partition_clause_rejects_an_uncovered_vertex(seed):
    # K5 minus the edge 23 in every color: X = {2} and Y = {3} are cliques
    # with no edge between them, both seen by the pair, but vertex 4 lies in
    # neither side, and a 0-1 path runs through it.
    n = 5
    edges = [edge for edge in clique_edges(range(n)) if edge != (2, 3)]
    perm = random.Random(seed).sample(range(n), n)
    coll, _, pair = _relabelled(GraphCollection.from_edge_lists(n, [edges] * n), None, (0, 1), perm)
    cert = ExtremalCertificate("B2", frozenset({perm[2]}), frozenset({perm[3]}), pair=pair)
    assert certificate_violations(coll, cert) == ["X and Y do not partition the required vertex set"]
    assert exact_rainbow_ham_path(coll, *pair).status == FOUND


@pytest.mark.parametrize("kind, n", [("B2", 8), ("B2", 9), ("B3", 8), ("B3", 10)])
@pytest.mark.parametrize("seed", range(3))
def test_level_b_needs_the_blocked_pair(kind, n, seed):
    # With no pair the hub is empty, and canonical B3's sides meet every
    # other clause.
    coll, forest, cert = _relabelled_family(kind, n, 0, seed)
    assert certificate_violations(coll, replace(cert, pair=None), forest) == [
        f"{kind} requires a blocked pair"
    ]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("delta", [-1, 1])
def test_ell_clause_names_the_split_size(seed, delta):
    coll, _, cert = _relabelled_family("A2", 7, 0, seed)
    bad = replace(cert, ell=cert.ell + delta)
    assert certificate_violations(coll, bad) == [f"ell={cert.ell + delta} does not match |X|=3"]


@pytest.mark.parametrize("kind, n, k", [("C2", 9, 1), ("C3", 9, 1), ("C2", 10, 2), ("C3", 10, 2)])
@pytest.mark.parametrize("seed", range(3))
def test_level_c_needs_the_forest(kind, n, k, seed):
    coll, _, cert = _relabelled_family(kind, n, k, seed)
    assert certificate_violations(coll, cert) == [f"{kind} requires the forest context"]


@pytest.mark.parametrize("kind, n, k", [("B2", 8, 0), ("C2", 9, 1), ("C2", 10, 2)])
@pytest.mark.parametrize("seed", range(3))
def test_overlap_clause_names_a_shared_vertex(kind, n, k, seed):
    # A Y vertex y added to X: the sides overlap, y misses the rest of the X
    # clique, and y's Y neighbours cross.  Each clause names its first pair
    # in the first color the forest leaves unused.
    coll, forest, cert = _relabelled_family(kind, n, k, seed)
    y = min(cert.Y)
    X = cert.X | {y}
    a = min(X)
    b = min(cert.X) if a == y else y
    c = min(set(range(n)) - set(forest.colors() if forest else ()))
    cross = min(cert.Y - {y})
    assert certificate_violations(coll, replace(cert, X=X), forest) == [
        "X and Y overlap",
        f"{kind} X: clique edge ({a},{b}) missing in color {c}",
        f"{kind}: cross edge ({min(y, cross)},{max(y, cross)}) present in color {c}",
    ]


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
