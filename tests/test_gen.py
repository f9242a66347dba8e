import hashlib
import math
import random
from itertools import combinations

import pytest

from rainbowpath import (
    GenSpec,
    GraphCollection,
    GenerationError,
    InputError,
    canonical_edge,
    check_hypothesis,
    is_h_compatible,
    random_instance,
    sigma2,
    verify_certificate,
)
from rainbowpath import gen
from rainbowpath.gen import _repair_sigma2, build_extremal
from rainbowpath.model import row_sigma2
from rainbowpath.serialize import dumps, instance_to_dict

from .conftest import audit_small_vertices, small_vertex_probe_family


class TestBuildExtremal:
    def test_b3_four_copies_of_k22(self):
        coll, meta = build_extremal("B3", 4)
        assert coll.n_colors == 4
        assert sigma2(coll, 0) == 4
        assert check_hypothesis(coll, 0)
        assert verify_certificate(coll, meta["certificate"])

    def test_b2_five_vertices(self):
        coll, meta = build_extremal("B2", 5)
        assert sigma2(coll, 0) == 5
        assert check_hypothesis(coll, 0)
        assert verify_certificate(coll, meta["certificate"])

    def test_dirac_control_margin(self):
        coll, meta = build_extremal("dirac_control", 5)
        assert sigma2(coll, 0) == 4
        assert not check_hypothesis(coll, 0)
        assert meta["violates_hypothesis"]

    def test_a_families_meet_reduced_bound(self):
        for kind, n in (("A2", 6), ("A3", 6)):
            coll, meta = build_extremal(kind, n)
            for c in range(coll.n_colors):
                assert sigma2(coll, c) >= n - 2
            assert verify_certificate(coll, meta["certificate"])

    def test_c_families_meet_hypothesis(self):
        for kind, n, k in (("C2", 10, 2), ("C3", 10, 2), ("C2", 8, 1), ("C3", 9, 1)):
            coll, meta = build_extremal(kind, n, k)
            assert check_hypothesis(coll, k), (kind, n, k)
            assert verify_certificate(coll, meta["certificate"], meta["forest"])
            assert meta["forest"].edge_count == k
            assert not meta["forest"].validate_against(coll)

    def test_size_constraints(self):
        with pytest.raises(InputError):
            build_extremal("B3", 5)
        with pytest.raises(InputError):
            build_extremal("C3", 9, 2)  # n+k odd
        with pytest.raises(InputError):
            build_extremal("nope", 5)
        for kind in ("A2", "A3", "B2", "B3", "dirac_control"):
            with pytest.raises(InputError, match="embeds no forest"):
                build_extremal(kind, 8, 1)


class TestRandomInstance:
    def test_deterministic_bytes(self):
        spec = GenSpec(n=10, k=2, p=0.9, seed=7)
        a = random_instance(spec)
        b = random_instance(spec)
        assert dumps(instance_to_dict(a[0], a[1], a[2], a[3])) == dumps(
            instance_to_dict(b[0], b[1], b[2], b[3])
        )

    def test_distinct_seeds_differ(self):
        a = random_instance(GenSpec(n=10, k=2, p=0.9, seed=7))
        b = random_instance(GenSpec(n=10, k=2, p=0.9, seed=8))
        assert dumps(instance_to_dict(*a)) != dumps(instance_to_dict(*b))

    def test_identical_model(self):
        coll, forest, u, v = random_instance(GenSpec(n=7, k=1, model="identical", seed=3))
        assert sigma2(coll, 0) == math.inf
        assert forest.edge_count == 1

    def test_hypothesis_and_compatibility_always_hold(self):
        for seed in range(40):
            n = 6 + seed % 5
            k = 1 if n >= 7 and seed % 2 else 0
            coll, forest, u, v = random_instance(GenSpec(n=n, k=k, p=0.6, seed=seed))
            assert check_hypothesis(coll, k)
            assert forest.edge_count == k
            assert is_h_compatible(forest, u, v)
            assert not forest.validate_against(coll)

    def test_perturbed_extremal_still_valid(self):
        coll, forest, u, v = random_instance(
            GenSpec(n=12, k=2, model="perturbed_extremal", extremal_kind="C3",
                    flips=3, seed=5)
        )
        assert check_hypothesis(coll, 2)
        assert forest.edge_count == 2
        assert is_h_compatible(forest, u, v)

    def test_perturbed_family_built_once(self):
        # The perturbed model reads its base family from a per-process cache:
        # a record built with the cache warm equals one built from a fresh family.
        families = (("B2", 10, 0), ("B3", 10, 0), ("C2", 11, 1), ("C3", 11, 1))
        specs = [GenSpec(n=n, k=k, model="perturbed_extremal", extremal_kind=kind,
                         flips=flips, seed=seed)
                 for kind, n, k in families for flips in range(4) for seed in range(4)]

        def record(spec):
            coll, forest, u, v = random_instance(spec)
            return instance_to_dict(coll, forest, u, v, spec.k)

        cold = []
        for spec in specs:
            gen._family.cache_clear()
            cold.append(record(spec))
        gen._family.cache_clear()
        assert [record(spec) for spec in specs] == cold
        assert len(specs) == 64
        assert gen._family.cache_info().misses == len(families)

    def test_k_bound_enforced(self):
        with pytest.raises(InputError):
            random_instance(GenSpec(n=6, k=1, seed=0))
        # oracle-only mode lifts the bound
        coll, forest, _u, _v = random_instance(GenSpec(n=6, k=1, seed=0, oracle_only=True))
        assert forest.edge_count == 1


def _ref_uniform_rows(rng, n, p):
    """Reference uniform color: one ``random()`` per pair (a, b), b > a, in
    lexicographic order, the pair an edge iff the draw is below p."""
    rand = rng.random
    row = [0] * n
    for a in range(n):
        upper, bit = 0, 1 << a
        for b in range(a + 1, n):
            if rand() < p:
                upper |= 1 << b
                row[b] |= bit
        row[a] |= upper
    return row


UNIFORM_PS = (0, 2**-53, 0.5, 0.55, 0.75, 0.95, 1 - 2**-53, 1)


class TestUniformRows:
    @pytest.mark.parametrize("n", [2, 3, 7, 8, 9, 16, 63, 64, 65, 100, 129, 130, 257])
    def test_matches_per_pair_loop(self, n):
        for p in UNIFORM_PS:
            for seed in range(3):
                rng, ref = random.Random(seed), random.Random(seed)
                assert gen._uniform_rows(rng, n, p) == _ref_uniform_rows(ref, n, p), (n, p, seed)
                assert rng.random() == ref.random(), (n, p, seed)

    @pytest.mark.parametrize("count", [0, 1, 2, 3000])
    @pytest.mark.parametrize("seed", range(3))
    def test_draws_match_random(self, count, seed):
        ref = random.Random(seed)
        values = [ref.random() for _ in range(count)]
        after = ref.random()
        # p equal to a draw, or one step to either side of it, puts that
        # draw's top byte on limit's, so only the full compare decides it.
        near = values[:: max(1, count // 20)]
        for p in [*UNIFORM_PS, *near, *(math.nextafter(r, 0) for r in near),
                  *(math.nextafter(r, 1) for r in near)]:
            rng = random.Random(seed)
            assert gen._uniform_draws(rng, count, p) == bytes(b"01"[r < p] for r in values), (count, p)
            assert rng.random() == after

    @pytest.mark.parametrize("p", [0.5, 0.75])
    def test_ties_on_a_byte_boundary_are_false(self, p):
        # limit = p * 2**53 is a multiple of 2**45, so a draw whose top byte
        # is limit's is at least limit.
        rng, ref = random.Random(1), random.Random(1)
        values = [ref.random() for _ in range(3000)]
        flags = gen._uniform_draws(rng, 3000, p)
        ties = [i for i, r in enumerate(values) if int(r * 2**53) >> 45 == int(p * 2**8)]
        assert ties and all(flags[i] == ord("0") for i in ties)


def _double_loop_repair(masks, n, bound):
    """Reference repair: rescan every pair, join the first of minimum degree sum."""
    for row in masks:
        while True:
            degs = [row[x].bit_count() for x in range(n)]
            worst = None
            for a in range(n):
                for b in range(a + 1, n):
                    if not row[a] >> b & 1:
                        s = degs[a] + degs[b]
                        if worst is None or s < worst[0]:
                            worst = (s, a, b)
            if worst is None or worst[0] >= bound:
                break
            _, a, b = worst
            row[a] |= 1 << b
            row[b] |= 1 << a


class TestRepairSigma2:
    @staticmethod
    def _uniform(rng, n, p):
        return [_ref_uniform_rows(rng, n, p) for _color in range(n)]

    @staticmethod
    def _perturbed(rng, kind, n, k, flips):
        masks = [list(row) for row in build_extremal(kind, n, k)[0].adjacency]
        for _ in range(flips):
            color = rng.randrange(n)
            a, b = rng.sample(range(n), 2)
            masks[color][a] ^= 1 << b
            masks[color][b] ^= 1 << a
        return masks

    def test_matches_double_loop_up_to_n40(self):
        rng = random.Random(2024)
        cases = []
        for n in range(2, 41, 3):
            for p in (0.5, 0.75, 0.95):
                cases.append((self._uniform(rng, n, p), n, n + rng.randint(0, max(0, (n - 4) // 3))))
        for kind, n, k in (("B2", 9, 0), ("B3", 12, 0), ("C2", 14, 2), ("C3", 16, 2),
                           ("C3", 40, 8), ("B3", 40, 0)):
            for flips in (1, 5, 40):
                cases.append((self._perturbed(rng, kind, n, k, flips), n, n + k))
        repaired = 0
        for masks, n, bound in cases:
            original = [list(row) for row in masks]
            expected = [list(row) for row in masks]
            _double_loop_repair(expected, n, bound)
            _repair_sigma2(masks, n, bound)
            assert masks == expected, (n, bound)
            repaired += masks != original
        assert repaired >= len(cases) // 2


class TestProbeFamily:
    def test_exactly_one_small_vertex(self):
        coll = small_vertex_probe_family(6, seed=1)
        assert audit_small_vertices(coll) == {0}
        assert check_hypothesis(coll, 0)

    def test_seed_determinism(self):
        a = small_vertex_probe_family(7, seed=9)
        b = small_vertex_probe_family(7, seed=9)
        assert a == b

    def test_too_small_rejected(self):
        with pytest.raises(GenerationError):
            small_vertex_probe_family(4)


# ---------------------------------------------------------------------------
# The generator's bytes, pinned.  The digest below was computed from the
# edge-list builders kept here as a reference; any change to what the
# generator emits for these inputs changes it.
# ---------------------------------------------------------------------------

def _ref_clique_edges(vertices):
    return [canonical_edge(a, b) for a, b in combinations(sorted(vertices), 2)]


def _ref_cross_edges(side_a, side_b):
    return [canonical_edge(a, b) for a in sorted(side_a) for b in sorted(side_b)]


def _ref_identical(n, edges, m=None):
    m = n if m is None else m
    return GraphCollection.from_edge_lists(n, [list(edges)] * m)


def _ref_extremal(kind, n, k=0, params=None):
    """The edge-list construction of every family, one edge at a time."""
    params = params or {}
    if kind == "A2":
        ell = params.get("ell", n // 2)
        X, Y = range(ell), range(ell, n)
        return _ref_identical(n, _ref_clique_edges(X) + _ref_clique_edges(Y))
    if kind == "A3":
        X, Y = range(n // 2 - 1), range(n // 2 - 1, n)
        return _ref_identical(n, _ref_clique_edges(X) + _ref_cross_edges(X, Y))
    if kind == "B2":
        ell = params.get("ell", (n - 1) // 2)
        X, Y = set(range(2, 2 + ell)), set(range(2 + ell, n))
        edges = _ref_clique_edges(X) + _ref_clique_edges(Y)
        edges += _ref_cross_edges({0}, X | Y) + _ref_cross_edges({1}, X | Y)
        return _ref_identical(n, edges)
    if kind == "B3":
        return _ref_identical(n, _ref_cross_edges(range(n // 2), range(n // 2, n)))
    if kind == "C2":
        d_set = list(range(k + 2))
        rest = list(range(k + 2, n))
        ell = params.get("ell", (len(rest) + 1) // 2)
        X, Y = set(rest[:ell]), set(rest[ell:])
        structured = (
            _ref_clique_edges(X) + _ref_clique_edges(Y) + _ref_clique_edges(d_set)
            + _ref_cross_edges(d_set, X | Y)
        )
        complete = _ref_clique_edges(range(n))
        return GraphCollection.from_edge_lists(n, [complete if c < k else structured for c in range(n)])
    if kind == "C3":
        X, Y = range((n + k) // 2), range((n + k) // 2, n)
        structured = _ref_clique_edges(X) + _ref_cross_edges(X, Y)
        complete = _ref_clique_edges(range(n))
        return GraphCollection.from_edge_lists(n, [complete if c < k else structured for c in range(n)])
    small = (n - 1) // 2
    return _ref_identical(n, _ref_cross_edges(range(small), range(small, n)))


def _valid_extremal_inputs(n):
    """Every (kind, k, params) that ``build_extremal`` accepts at n, k <= 2."""
    out = []
    if n >= 2:
        out += [("A2", 0, None), ("A2", 0, {"ell": 1})]
    if n >= 4 and n % 2 == 0:
        out += [("A3", 0, None), ("B3", 0, None)]
    if n >= 4:
        out.append(("B2", 0, None))
    if n >= 5:
        out.append(("B2", 0, {"ell": 1}))
    if n >= 3:
        out.append(("dirac_control", 0, None))
    for k in (0, 1, 2):
        if n >= k + 4:
            out.append(("C2", k, None))
        if n >= k + 5:
            out.append(("C2", k, {"ell": 1}))
        if (n + k) % 2 == 0 and n >= 3 * k + 4:
            out.append(("C3", k, None))
    return out


EXTREMAL_GRID = [
    ("A2", 6, 0, None), ("A2", 9, 0, {"ell": 2}), ("A2", 31, 0, None),
    ("A3", 6, 0, None), ("A3", 12, 0, None), ("A3", 32, 0, None),
    ("B2", 5, 0, None), ("B2", 11, 0, {"ell": 3}), ("B2", 30, 0, None),
    ("B3", 4, 0, None), ("B3", 12, 0, None), ("B3", 40, 0, None),
    ("C2", 8, 1, None), ("C2", 10, 2, {"ell": 2}), ("C2", 25, 2, None), ("C2", 12, 0, None),
    ("C3", 9, 1, None), ("C3", 12, 2, None), ("C3", 33, 1, None), ("C3", 30, 2, None),
    ("C3", 14, 0, None),
    ("dirac_control", 5, 0, None), ("dirac_control", 12, 0, None), ("dirac_control", 27, 0, None),
]

RANDOM_GRID = (
    [GenSpec(n=n, k=(n - 4) // 3 if n % 2 else 0, p=(0.55, 0.75, 0.95)[n % 3], seed=n)
     for n in range(5, 25)]
    + [GenSpec(n=64, k=3, p=0.9, seed=1)]
    + [GenSpec(n=n, k=k, model="identical", seed=n + k) for n, k in ((5, 0), (8, 1), (13, 3))]
    + [GenSpec(n=n, k=k, model="perturbed_extremal", extremal_kind=kind, flips=flips, seed=seed)
       for kind, n, k in (("B2", 10, 0), ("B3", 10, 0), ("C2", 10, 2), ("C3", 11, 1))
       for flips in range(4) for seed in range(3)]
)

GENERATOR_DIGEST = "7f75573fa9c7a4b6eafe6b06d9ec149dc52bd7f89e091c9febc4b8f0537b0d9f"


def _generator_bytes():
    for kind, n, k, params in EXTREMAL_GRID:
        coll, meta = build_extremal(kind, n, k, **(params or {}))
        u, v = meta["pair"] or (None, None)
        yield dumps(instance_to_dict(coll, meta["forest"], u, v, k))
    for spec in RANDOM_GRID:
        coll, forest, u, v = random_instance(spec)
        yield dumps(instance_to_dict(coll, forest, u, v, spec.k))


class TestPinnedBytes:
    def test_generator_digest(self):
        text = "\n".join(_generator_bytes())
        assert hashlib.sha256(text.encode()).hexdigest() == GENERATOR_DIGEST

    def test_extremal_rows_match_edge_list_reference(self):
        checked = 0
        for n in [*range(2, 21), 23, 26, 29, 32, 35, 38, 39, 40]:
            for kind, k, params in _valid_extremal_inputs(n):
                coll, _meta = build_extremal(kind, n, k, **(params or {}))
                ref = _ref_extremal(kind, n, k, params)
                assert coll.n_colors == ref.n_colors == n, (kind, n, k, params)
                for color, (row, ref_row) in enumerate(zip(coll.adjacency, ref.adjacency)):
                    assert row == ref_row, (kind, n, k, params, color)
                checked += 1
        assert checked > 300


SEEDED_SPECS = [
    GenSpec(n=9, k=1, p=0.6, seed=4),
    GenSpec(n=20, k=2, p=0.8, seed=11),
    GenSpec(n=8, k=1, model="identical", seed=2),
    *(GenSpec(n=n, k=k, model="perturbed_extremal", extremal_kind=kind, flips=3, seed=seed)
      for kind, n, k in (("A2", 9, 0), ("B2", 10, 0), ("B3", 10, 0), ("C2", 10, 2), ("C3", 11, 1))
      for seed in range(2)),
]


class TestSeededSigma2:
    @pytest.mark.parametrize("spec", SEEDED_SPECS, ids=lambda spec: f"{spec.model}-{spec.extremal_kind}-{spec.seed}")
    def test_seeded_values_are_exact(self, spec):
        coll, _forest, _u, _v = random_instance(spec)
        assert coll.sigma2s == tuple(row_sigma2(row) for row in coll.adjacency)

    def test_extremal_values_are_exact(self):
        for kind, n, k, params in EXTREMAL_GRID:
            coll, _meta = build_extremal(kind, n, k, **(params or {}))
            assert coll.sigma2s == tuple(row_sigma2(row) for row in coll.adjacency), (kind, n, k)

    def test_shared_rows_computed_once(self, monkeypatch):
        import rainbowpath.model as model

        calls = []
        real = model.sigma2
        monkeypatch.setattr(model, "sigma2", lambda coll, color: calls.append(color) or real(coll, color))
        # ``scanned`` lists the distinct rows whose 2·(minimum degree) misses
        # n+k (12, 14 and 11): only C2's non-forest graph (2δ = 10).  B3's
        # one graph (2δ = 12), C3's complete forest colors and its other
        # graph (2δ = 14) pass on the minimum degree.
        for kind, n, k, distinct, scanned in (("B3", 12, 0, [0], []), ("C3", 12, 2, [0, 2], []),
                                              ("C2", 10, 1, [0, 1], [1])):
            coll, _meta = build_extremal(kind, n, k)
            calls.clear()
            assert len(coll.sigma2s) == n
            assert calls == distinct, kind
            coll, _meta = build_extremal(kind, n, k)
            calls.clear()
            assert check_hypothesis(coll, k)
            assert calls == scanned, kind

    @pytest.mark.parametrize("spec", [
        GenSpec(n=7, k=1, p=0.2, seed=3),
        GenSpec(n=9, model="perturbed_extremal", extremal_kind="A2", seed=1),
    ], ids=["uniform", "perturbed"])
    def test_hypothesis_check_still_decides(self, monkeypatch, spec):
        assert random_instance(spec)
        real_repair, real_check = gen._repair_sigma2, gen.check_hypothesis
        verdicts = []

        def repair_all_but_last(masks, n, bound, known=None):
            # The last color is left as drawn, below n + k, and reported so.
            return real_repair(masks[:-1], n, bound, known and known[:-1]) + [row_sigma2(masks[-1])]

        def spy(collection, k):
            verdicts.append(real_check(collection, k))
            return verdicts[-1]

        monkeypatch.setattr(gen, "_repair_sigma2", repair_all_but_last)
        monkeypatch.setattr(gen, "check_hypothesis", spy)
        with pytest.raises(GenerationError):
            random_instance(spec)
        assert verdicts and not any(verdicts)
