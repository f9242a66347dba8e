import math
import random
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbowpath import (
    CycleCertificate,
    GenSpec,
    GraphCollection,
    InputError,
    PathCertificate,
    RainbowLinearForest,
    canonical_edge,
    check_hypothesis,
    degree,
    exact_rainbow_ham_cycle,
    rainbow_assignment,
    random_instance,
    sigma2,
    solve_pair,
    validate_path_certificate,
)
from rainbowpath.gen import build_extremal
from rainbowpath.model import (
    bits,
    cycle_certificate_violations,
    mask_of,
    path_certificate_violations,
)

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


class TestFromRows:
    @pytest.mark.parametrize("masks, message", [
        ((0b010, 0b101), "expected 3"),
        ((0b1010, 0b101, 0b010), "outside"),
        ((-1, 0b101, 0b010), "outside"),
        ((0b011, 0b101, 0b010), "loop at vertex 0"),
        ((0b010, 0b001, 0b010), "vertex 1 .* not symmetric"),
    ])
    def test_rejects_malformed_masks(self, masks, message):
        assert GraphCollection.from_rows(3, [(0b010, 0b101, 0b010)]).edges(0) == [(0, 1), (1, 2)]
        with pytest.raises(InputError, match=message):
            GraphCollection.from_rows(3, [(0b010, 0b101, 0b010), masks])


def _reference_from_rows_error(n, rows):
    """The InputError text ``from_rows`` must raise, by an O(n^2) scan of
    every bit; None when the rows are valid."""
    for color, masks in enumerate(rows):
        for vertex, mask in enumerate(masks):
            if not 0 <= mask < 1 << n:
                return f"mask of vertex {vertex} in color {color} is outside [0, 2^{n})"
        for vertex in range(n):
            if masks[vertex] >> vertex & 1:
                return f"loop at vertex {vertex} in color {color}"
        for vertex in range(n):
            if any(masks[vertex] >> other & 1 != masks[other] >> vertex & 1 for other in range(n)):
                return f"mask of vertex {vertex} in color {color} is not symmetric"
    return None


def _defective_rows(rng, n):
    """Three symmetric colors on n vertices, then up to three defects
    (one-sided bit flip, diagonal bit, bit >= n, negative mask) in colors 0 and 1."""
    rows = []
    for _ in range(3):
        masks = [0] * n
        density = rng.random()
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < density:
                    masks[u] |= 1 << v
                    masks[v] |= 1 << u
        rows.append(masks)
    for _ in range(rng.choice((0, 1, 1, 1, 2, 3))):
        masks, vertex = rows[rng.randrange(2)], rng.randrange(n)
        defect = rng.choice(("flip", "flip", "loop", "high", "negative"))
        if defect == "flip":
            masks[vertex] ^= 1 << rng.randrange(n)
        elif defect == "loop":
            masks[vertex] |= 1 << vertex
        elif defect == "high":
            masks[vertex] |= 1 << rng.randrange(n, n + 70)
        else:
            masks[vertex] = -1 - masks[vertex]
    return rows


class TestFromRowsReference:
    """``from_rows`` against a brute-force checker at every bit-matrix stride
    up to 256: same accept/reject result, same message."""

    @pytest.mark.parametrize("n", [*range(1, 10), 15, 16, 17, 31, 32, 33, 63, 64, 65,
                                   100, 127, 128, 129])
    def test_matches_bit_by_bit_reference(self, n):
        rng = random.Random(n)
        rejected = 0
        for _ in range(30):
            rows = _defective_rows(rng, n)
            want = _reference_from_rows_error(n, rows)
            try:
                got = GraphCollection.from_rows(n, rows)
            except InputError as exc:
                assert str(exc) == want, rows
                rejected += 1
            else:
                assert want is None, rows
                assert got.adjacency == tuple(map(tuple, rows))
        assert 0 < rejected < 30


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

    @pytest.mark.parametrize("corruption, expected", [
        ("wrong_color", "out of range on edge"),
        ("missing_edge", "absent from color"),
        ("repeated_color", "used more than once"),
        ("not_permutation", "is not a permutation"),
        ("small_n", "a cycle needs at least 3 vertices"),
    ])
    def test_walk_checks_match_reference(self, corruption, expected):
        seen = []
        for seed in range(300):
            coll, forest, path, cycle = _corrupted_certificates(random.Random(seed), corruption)
            for got, want in (
                (path_certificate_violations(coll, path), reference_path_violations(coll, path)),
                (path_certificate_violations(coll, path, forest),
                 reference_path_violations(coll, path, forest)),
                (cycle_certificate_violations(coll, cycle), reference_cycle_violations(coll, cycle)),
            ):
                assert got == want, seed
                seen += got
        assert sum(expected in problem for problem in seen) >= 100

    @pytest.mark.parametrize("defect, expected", [
        (None, None),
        ("wrong_color", "out of range on edge"),
        ("missing_edge", "absent from color"),
        ("repeated_color", "used more than once"),
    ])
    def test_valid_walks_and_last_edge_defects_match_reference(self, defect, expected):
        # Solver paths, their prefixes on an active mask, and oracle cycles, each
        # whole or with one defect on its last edge (a cycle's closing edge).
        seen = []
        for seed in range(40):
            coll, path, prefix, cycle, forest = _valid_certificates(seed)
            rng = random.Random(seed)
            path, prefix, cycle = (_spoil_last_edge(coll, cert, defect, rng)
                                   for cert in (path, prefix, cycle))
            active = mask_of(prefix.order)
            for got, want in (
                (path_certificate_violations(coll, path), reference_path_violations(coll, path)),
                (path_certificate_violations(coll, path, forest),
                 reference_path_violations(coll, path, forest)),
                (path_certificate_violations(coll, prefix, active=active),
                 reference_path_violations(coll, prefix, active=active)),
                (path_certificate_violations(coll, prefix, forest, active),
                 reference_path_violations(coll, prefix, forest, active)),
                (cycle_certificate_violations(coll, cycle), reference_cycle_violations(coll, cycle)),
            ):
                assert got == want, seed
                seen.append(got)
        if defect is None:
            assert seen == [[]] * 200
        else:
            assert sum(any(expected in problem for problem in got) for got in seen) >= 150

    def test_canonical_edge_rejects_loop(self):
        with pytest.raises(InputError):
            canonical_edge(2, 2)


def test_public_api_names_resolve():
    import rainbowpath

    missing = [name for name in rainbowpath.__all__ if not hasattr(rainbowpath, name)]
    assert missing == []


def _corrupted_certificates(rng: random.Random, corruption: str):
    """A random collection with a path and a cycle certificate, both corrupted.

    Colors are drawn at random, so most walks also miss edges and repeat
    colors; ``corruption`` adds one defect on top.
    """
    n = rng.randint(1, 2) if corruption == "small_n" else rng.randint(3, 8)
    m = max(1, n + rng.randint(-1, 2))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    coll = GraphCollection.from_edge_lists(
        n, [[e for e in pairs if rng.random() < 0.7] for _ in range(m)])
    order = rng.sample(range(n), n)
    path_colors = [rng.randrange(m) for _ in range(n - 1)]
    cycle_colors = [rng.randrange(m) for _ in range(n)]
    if corruption == "wrong_color":
        path_colors[rng.randrange(len(path_colors))] = rng.choice((-1, m, m + 5))
        cycle_colors[rng.randrange(n)] = rng.choice((-1, m, m + 5))
    elif corruption == "missing_edge":
        i = rng.randrange(n - 1)
        absent = [c for c in range(m) if not coll.has_edge(c, order[i], order[i + 1])]
        if absent:
            path_colors[i] = cycle_colors[i] = rng.choice(absent)
    elif corruption == "repeated_color":
        path_colors[-1] = path_colors[0]
        cycle_colors[-1] = cycle_colors[0]
    elif corruption == "not_permutation":
        order[rng.randrange(n)] = rng.choice((order[0], n, -1))
    forest_edges = [canonical_edge(a, b) for a, b in zip(order, order[1:])
                    if a != b and 0 <= min(a, b) and max(a, b) < n][:2]
    forest = RainbowLinearForest(tuple(forest_edges), {e: rng.randrange(m) for e in forest_edges})
    return (coll, forest, PathCertificate(tuple(order), tuple(path_colors)),
            CycleCertificate(tuple(order), tuple(cycle_colors)))


@cache
def _valid_certificates(seed: int):
    """A dense collection, a ``solve_pair`` path, its first half as a path on
    the active mask of its vertices, an exact cycle, and a one-edge forest
    that the path and its first half both carry."""
    rng = random.Random(seed)
    n = rng.randint(5, 10)
    coll = random_instance(GenSpec(n=n, k=0, p=0.7, seed=seed))[0]
    path = solve_pair(coll, *rng.sample(range(n), 2)).path
    half = (n + 1) // 2
    prefix = PathCertificate(path.order[:half], path.coloring[: half - 1])
    cycle = exact_rainbow_ham_cycle(coll).certificate
    forest = RainbowLinearForest.from_paths([path.order[:2]], {path.order[:2]: path.coloring[0]})
    return coll, path, prefix, cycle, forest


def _spoil_last_edge(collection, cert, defect, rng: random.Random):
    """``cert`` with the color of its last edge made out of range, absent from
    that edge, or equal to the first edge's color; unchanged for None."""
    colors = list(cert.coloring)
    m = collection.n_colors
    a, b = cert.order[len(colors) - 1], cert.order[len(colors) % len(cert.order)]
    if defect == "wrong_color":
        colors[-1] = rng.choice((-1, m, m + 5))
    elif defect == "missing_edge":
        absent = [c for c in range(m) if not collection.has_edge(c, a, b)]
        if absent:
            colors[-1] = rng.choice(absent)
    elif defect == "repeated_color":
        colors[-1] = colors[0]
    return type(cert)(cert.order, tuple(colors))


def reference_path_violations(collection, cert, forest=None, active=None):
    """The path check as it was before it shared its walk loop with the cycle check."""
    problems: list[str] = []
    n = collection.n_vertices
    if sorted(cert.order) != (list(range(n)) if active is None else bits(active)):
        span = f"0..{n - 1}" if active is None else "the active vertices"
        return [f"order is not a permutation of {span}"]
    consecutive: dict = {}
    seen_colors: set[int] = set()
    m, adjacency = collection.n_colors, collection.adjacency
    for a, b, color in zip(cert.order, cert.order[1:], cert.coloring):
        edge = (a, b) if a < b else (b, a)  # distinct: the order is a permutation
        if not (0 <= color < m):
            problems.append(f"color {color} out of range on edge {edge}")
            continue
        if not adjacency[color][a] >> b & 1:
            problems.append(f"edge {edge} absent from color {color}")
        if color in seen_colors:
            problems.append(f"color {color} used more than once")
        seen_colors.add(color)
        consecutive[edge] = color
    if forest is not None:
        for edge, color in forest.fixed_colors.items():
            if edge not in consecutive:
                problems.append(f"forest edge {edge} is not consecutive on the path")
            elif consecutive[edge] != color:
                problems.append(
                    f"forest edge {edge} carries color {consecutive[edge]}, fixed {color}"
                )
    return problems


def reference_cycle_violations(collection, cert):
    """The cycle check as it was before it shared its walk loop with the path check."""
    problems: list[str] = []
    n = collection.n_vertices
    if sorted(cert.order) != list(range(n)):
        problems.append(f"order is not a permutation of 0..{n - 1}")
        return problems
    if n < 3:
        problems.append("a cycle needs at least 3 vertices")
        return problems
    seen_colors: set[int] = set()
    for i in range(n):
        a, b = cert.order[i], cert.order[(i + 1) % n]
        color = cert.coloring[i]
        edge = canonical_edge(a, b)
        if not (0 <= color < collection.n_colors):
            problems.append(f"color {color} out of range on edge {edge}")
            continue
        if not collection.has_edge(color, a, b):
            problems.append(f"edge {edge} absent from color {color}")
        if color in seen_colors:
            problems.append(f"color {color} used more than once")
        seen_colors.add(color)
    return problems
