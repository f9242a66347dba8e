import math
import random

import pytest

from rainbowpath import (
    GenSpec,
    GenerationError,
    InputError,
    check_hypothesis,
    is_h_compatible,
    random_instance,
    sigma2,
    verify_certificate,
)
from rainbowpath.gen import _repair_sigma2, build_extremal
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

    def test_k_bound_enforced(self):
        with pytest.raises(InputError):
            random_instance(GenSpec(n=6, k=1, seed=0))
        # oracle-only mode lifts the bound
        coll, forest, _u, _v = random_instance(GenSpec(n=6, k=1, seed=0, oracle_only=True))
        assert forest.edge_count == 1


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
        masks = []
        for _color in range(n):
            row = [0] * n
            for a in range(n):
                for b in range(a + 1, n):
                    if rng.random() < p:
                        row[a] |= 1 << b
                        row[b] |= 1 << a
            masks.append(row)
        return masks

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
