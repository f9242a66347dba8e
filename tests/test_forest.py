import math
from itertools import combinations

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import rainbowpath.solver

from rainbowpath import (
    GraphCollection,
    InputError,
    InternalError,
    RainbowLinearForest,
    canonical_edge,
    is_h_compatible,
    li2_dispatch,
    select_deletion_set,
    sigma2,
)
from rainbowpath.forest import ReductionBoundError, pair_blocks, pair_components
from rainbowpath.gen import GenSpec, random_instance
from rainbowpath.model import bits, row_sigma2

from .conftest import case3_tight_family, complete_collection, small_vertex_probe_family


def edge_forest(*paths_and_colors):
    paths, colors = paths_and_colors
    return RainbowLinearForest.from_paths(paths, colors)


class TestForestStructure:
    def test_overlapping_components_rejected(self):
        with pytest.raises(InputError):
            RainbowLinearForest.from_paths([(0, 1), (1, 2)], {(0, 1): 0, (1, 2): 1})

    def test_color_injectivity(self):
        with pytest.raises(InputError):
            RainbowLinearForest.from_paths([(0, 1), (2, 3)], {(0, 1): 0, (2, 3): 0})

    def test_colors_must_cover_edges(self):
        with pytest.raises(InputError):
            RainbowLinearForest.from_paths([(0, 1, 2)], {(0, 1): 0})

    def test_edge_count(self):
        forest = RainbowLinearForest.from_paths(
            [(0, 1, 2), (4, 5)], {(0, 1): 0, (1, 2): 1, (4, 5): 2}
        )
        assert forest.edge_count == 3
        assert forest.degree_of(1) == 2
        assert forest.degree_of(0) == 1
        assert forest.degree_of(9) == 0

    def test_validate_against_collection(self, k22):
        forest = RainbowLinearForest.from_paths([(0, 1)], {(0, 1): 0})
        assert forest.validate_against(k22)  # (0,1) inside a side: missing


class TestCompatibility:
    def test_both_outside(self):
        forest = RainbowLinearForest.from_paths([(5, 6)], {(5, 6): 0})
        assert is_h_compatible(forest, 0, 1)

    def test_same_component(self):
        forest = RainbowLinearForest.from_paths([(0, 2, 1)], {(0, 2): 0, (2, 1): 1})
        assert not is_h_compatible(forest, 0, 1)

    def test_distinct_component_endpoints(self):
        forest = RainbowLinearForest.from_paths(
            [(0, 2), (1, 3)], {(0, 2): 0, (1, 3): 1}
        )
        assert is_h_compatible(forest, 0, 1)

    def test_interior_vertex_incompatible(self):
        forest = RainbowLinearForest.from_paths([(2, 0, 3)], {(0, 2): 0, (0, 3): 1})
        assert not is_h_compatible(forest, 0, 1)

    def test_same_vertex_rejected(self):
        forest = RainbowLinearForest.empty()
        with pytest.raises(InputError):
            is_h_compatible(forest, 1, 1)


@st.composite
def forests_and_pairs(draw):
    """A linear forest of paths of 1-4 vertices on a shuffled part of
    range(n), and a pair of distinct vertices, half the time the first one
    a forest vertex."""
    n = draw(st.integers(2, 10))
    order = draw(st.permutations(range(n)))
    paths, used = [], 0
    for size in draw(st.lists(st.integers(1, 4), max_size=n)):
        if used + size > n:
            break
        paths.append(tuple(order[used:used + size]))
        used += size
    edges = [(p[i], p[i + 1]) for p in paths for i in range(len(p) - 1)]
    forest = RainbowLinearForest.from_paths(paths, [(a, b, c) for c, (a, b) in enumerate(edges)])
    u = draw(st.sampled_from(order[:used] if used and draw(st.booleans()) else order))
    v = draw(st.sampled_from([x for x in range(n) if x != u]))
    return forest, u, v


@given(forests_and_pairs())
# Two interior components whose smallest and largest vertices sort apart,
# stored from their larger end.
@example((RainbowLinearForest.from_paths([(6, 0), (2, 1)], [(0, 6, 0), (1, 2, 1)]), 3, 4))
def test_pair_rule_matches_brute_force(case):
    # Compatibility read from edge degrees and from what forest edges connect.
    forest, u, v = case
    edges = forest.edges()

    def component(x):
        reach = {x}
        for _ in edges:
            reach |= {y for edge in edges if reach & set(edge) for y in edge}
        return reach

    degree = {x: sum(x in edge for edge in edges) for x in (u, v)}
    compatible = degree[u] <= 1 and degree[v] <= 1 and v not in component(u)
    blocks = pair_blocks(forest, u, v)
    assert (blocks is not None) == compatible == is_h_compatible(forest, u, v)
    comps = pair_components(forest, (u, v))
    # Forest order, then a singleton per missing pair vertex in pair order.
    assert comps == [c for c in forest.components if len(c) > 1 or {u, v} & set(c)] + [
        (x,) for x in (u, v) if x not in forest.vertices()]
    assert all(set(comp) == component(comp[0]) for comp in comps)
    assert sorted(x for comp in comps for x in comp) == sorted(
        {x for edge in edges for x in edge} | component(u) | component(v))
    if blocks is None:
        with pytest.raises(InputError, match="not a compatible pair"):
            select_deletion_set(forest, u, v, 10)
        return
    h_u, h_v, middles = blocks
    assert (h_u[0], set(h_u), h_v[0], set(h_v)) == (u, component(u), v, component(v))
    for path in (h_u, h_v, *middles):
        assert all(canonical_edge(a, b) in forest.fixed_colors for a, b in zip(path, path[1:]))
    assert all(comp in forest.components and len(comp) > 1 for comp in middles)
    assert list(middles) == sorted(middles, key=min)
    assert sorted(map(sorted, (h_u, h_v, *middles))) == sorted(map(sorted, comps))


class TestDeletionSet:
    def test_single_edge(self):
        forest = RainbowLinearForest.from_paths([(5, 6)], {(5, 6): 6})
        plan = select_deletion_set(forest, 0, 1, 7)
        assert plan.deleted == frozenset({0, 1, 6})  # kept endpoint is min(5,6)
        assert plan.middle_components == ((5, 6),)
        assert plan.h_u[-1] == 0 and plan.h_v[-1] == 1
        assert len(plan.deleted) == forest.edge_count + 2

    def test_empty_forest(self):
        plan = select_deletion_set(RainbowLinearForest.empty(), 0, 1, 5)
        assert plan.deleted == frozenset({0, 1})
        assert plan.q == 0
        assert plan.h_u == (0,) and plan.h_v == (1,)

    def test_two_components(self):
        forest = RainbowLinearForest.from_paths(
            [(2, 3, 4), (5, 6)], {(2, 3): 0, (3, 4): 1, (5, 6): 2}
        )
        plan = select_deletion_set(forest, 0, 1, 10)
        assert len(plan.deleted) == 5  # k+2 with k=3
        assert plan.q == 2
        assert [comp[0] for comp in plan.middle_components] == [2, 5]

    def test_nontrivial_endpoint_components(self):
        forest = RainbowLinearForest.from_paths(
            [(0, 7), (1, 8)], {(0, 7): 0, (1, 8): 1}
        )
        plan = select_deletion_set(forest, 0, 1, 9)
        assert plan.h_u[-1] == 7 and plan.h_v[-1] == 8
        assert plan.q == 0
        assert plan.deleted == frozenset({0, 1, 7, 8})

    def test_incompatible_raises(self):
        forest = RainbowLinearForest.from_paths([(0, 2, 1)], {(0, 2): 0, (2, 1): 1})
        with pytest.raises(InputError, match=r"^\(0,1\) is not a compatible pair for the forest$"):
            select_deletion_set(forest, 0, 1, 5)

    def test_edgeless_components_normalized_away(self):
        forest = RainbowLinearForest.from_paths([(5, 6), (3,)], {(5, 6): 0})
        plan = select_deletion_set(forest, 0, 1, 7)
        assert plan.deleted == frozenset({0, 1, 6})
        assert plan.q == 1
        assert plan.forest == RainbowLinearForest(((0,), (1,), (5, 6)), {(5, 6): 0})

    def test_determinism(self):
        forest = RainbowLinearForest.from_paths(
            [(9, 4, 7), (3, 8)], {(4, 9): 0, (4, 7): 1, (3, 8): 2}
        )
        a = select_deletion_set(forest, 0, 1, 10)
        b = select_deletion_set(forest, 0, 1, 10)
        assert a == b
        # components sorted by min vertex; each kept endpoint is its smaller end
        assert [comp[0] for comp in a.middle_components] == [3, 7]
        assert a.middle_components[1] == (7, 4, 9)


def brute_relabel(coll, plan):
    """The reduced copy the solver once built: D deleted, the dropped colors
    removed, the rest relabelled densely.  Reference for the masked path."""
    keep = [x for x in range(coll.n_vertices) if x not in plan.deleted]
    rows = tuple(
        tuple(
            sum(1 << j for j, other in enumerate(keep) if coll.has_edge(color, old, other))
            for old in keep
        )
        for color in bits(plan.retained_mask)
    )
    return GraphCollection(len(keep), rows), keep


class TestReduceCollection:
    def test_complete_seven(self):
        coll = complete_collection(7)
        forest = RainbowLinearForest.from_paths([(5, 6)], {(5, 6): 6})
        plan = select_deletion_set(forest, 0, 1, 7)
        assert plan.active == 0b0111100  # V minus D = {2, 3, 4, 5}
        assert plan.retained_mask == 0b0111111
        assert row_sigma2(coll.adjacency[0], plan.active) == math.inf

    def test_inherited_bound_exact_values(self):
        # k=1 at n=7 leaves the bound at 2; k=2 at n=10 leaves it at 4.
        for n, k in ((7, 1), (10, 2)):
            assert n + k - 2 * (k + 2) == (n - k - 2) - 2

    def test_bound_violation_detected(self):
        # Vertices 0 and 2 end up isolated after deleting D = {1, 4, 6}:
        # the inherited bound assert must fire and name the bad input.
        n = 7
        gone = {(0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (2, 3), (2, 5)}
        edges = [(a, b) for a in range(n) for b in range(a + 1, n) if (a, b) not in gone]
        coll = GraphCollection.from_edge_lists(n, [edges] * n)
        assert sigma2(coll, 0) < n + 1
        forest = RainbowLinearForest.from_paths([(5, 6)], {(5, 6): 6})
        plan = select_deletion_set(forest, 4, 1, 7)
        with pytest.raises(ReductionBoundError) as excinfo:
            li2_dispatch(coll, plan.active, plan.retained_mask)
        assert isinstance(excinfo.value, InternalError)
        assert excinfo.value.bundle == {"retained_color": 0, "sigma2": 0, "bound": 2}

    def test_masked_sigma2_matches_brute_relabel(self):
        ends_deleted = 0
        below_full = 0
        ks = set()
        for seed in range(60):
            n = 10 + seed % 8
            k = seed % 3
            coll, forest, u, v = random_instance(GenSpec(n=n, k=k, p=0.8, seed=seed))
            plans = [
                select_deletion_set(forest, u, v, n),
                select_deletion_set(RainbowLinearForest.empty(), 0, n - 1, n),
            ]
            for plan in plans:
                ks.add(plan.forest.edge_count)
                ends_deleted += {0, n - 1} <= plan.deleted
                reduced, keep = brute_relabel(coll, plan)
                assert plan.active == sum(1 << x for x in keep)
                for new_c, color in enumerate(bits(plan.retained_mask)):
                    masked = row_sigma2(coll.adjacency[color], plan.active)
                    assert masked == sigma2(reduced, new_c), (seed, plan.deleted, color)
                    below_full += masked < sigma2(coll, color)
        assert ks == {0, 1, 2}
        assert ends_deleted >= 60
        assert below_full >= 1000

    def test_sigma2_less_twice_deleted_bounds_masked_sigma2(self):
        # li2_dispatch passes a retained color on sigma2s[c] - 2|D| alone:
        # deleting D lowers a non-adjacent pair's degree sum by at most 2|D|.
        def plans():
            for seed in range(60):
                n = 10 + seed % 8
                coll, forest, u, v = random_instance(GenSpec(n=n, k=seed % 3, p=0.8, seed=seed))
                yield coll, select_deletion_set(forest, u, v, n)
            for seed in range(0, 500, 10):
                coll, forest, u, v, k = case3_tight_family(seed)
                yield coll, select_deletion_set(forest, u, v, coll.n_vertices)
            for n in (5, 8, 11):
                coll = small_vertex_probe_family(n, seed=n)
                for u, v in combinations(range(n), 2):
                    yield coll, select_deletion_set(RainbowLinearForest.empty(), u, v, n)

        checked = below_at_zero = tight = 0
        ks = set()
        for coll, plan in plans():
            ks.add(plan.forest.edge_count)
            loss = 2 * len(plan.deleted)
            for c in bits(plan.retained_mask):
                masked = row_sigma2(coll.adjacency[c], plan.active)
                assert coll.sigma2s[c] - loss <= masked, (plan.deleted, c)
                below_at_zero += coll.sigma2s[c] > masked
                tight += coll.sigma2s[c] - loss == masked
                checked += 1
        assert ks == {0, 1, 2, 3, 4} and checked > 2000
        # With d = 0 the same check fails: the bound needs its 2|D|.
        assert below_at_zero >= 1000
        # The bound is sharp: every retained color of the tight family meets it.
        assert tight >= 540

    def test_exact_scan_decides_below_cached_bound(self, monkeypatch):
        # Vertices 0 and 1 are isolated in every color and {2..6} is a clique,
        # so every color has sigma2 0: any deletion falls short of the cached
        # bound and the exact masked scan decides.
        n = 7
        coll = GraphCollection.from_edge_lists(n, [list(combinations(range(2, n), 2))] * n)
        assert set(coll.sigma2s) == {0}
        scans = []
        original = rainbowpath.solver.row_sigma2

        def counting(row, active=None):
            scans.append(active)
            return original(row, active)

        monkeypatch.setattr(rainbowpath.solver, "row_sigma2", counting)
        # Deleting {0, 1} leaves K5: masked sigma2 is infinite and it passes.
        assert li2_dispatch(coll, 0b1111100).kind == "A1"
        assert scans == [0b1111100] * n
        # Deleting {6} keeps the isolated pair: masked sigma2 0 < 6 - 2.
        scans.clear()
        with pytest.raises(ReductionBoundError) as excinfo:
            li2_dispatch(coll, 0b0111111)
        assert scans == [0b0111111]
        assert excinfo.value.bundle == {"retained_color": 0, "sigma2": 0, "bound": 4}

    def test_cached_bound_subtracts_two_per_deleted_vertex(self):
        # Cliques {0, 1, 2} minus the edge 01 and {3, 4, 5}, with D = {6, 7, 8}
        # joined to everything: sigma2 is 8 at the pair 01, which loses 2|D| = 6
        # on deleting D.  Subtracting only |D| would pass the color at 5 >= 4.
        n = 9
        edges = [e for e in combinations(range(n), 2) if e != (0, 1) and
                 (max(e) >= 6 or (e[0] < 3) == (e[1] < 3))]
        coll = GraphCollection.from_edge_lists(n, [edges] * n)
        assert set(coll.sigma2s) == {8}
        with pytest.raises(ReductionBoundError) as excinfo:
            li2_dispatch(coll, 0b000111111)
        assert excinfo.value.bundle == {"retained_color": 0, "sigma2": 2, "bound": 4}

    def test_generated_instances_meet_bound(self):
        for seed in range(30):
            n = 7 + seed % 3
            coll, forest, u, v = random_instance(GenSpec(n=n, k=1, p=0.7, seed=seed))
            plan = select_deletion_set(forest, u, v, n)
            assert plan.active.bit_count() == n - 1 - 2
            for color in bits(plan.retained_mask):
                assert row_sigma2(coll.adjacency[color], plan.active) >= n - 1 - 2 - 2

    @pytest.mark.parametrize("fallback", [False, True])
    def test_dispatch_matches_brute_relabel(self, monkeypatch, fallback):
        # The dispatch on the masks must give the relabelled copy's answer,
        # in original ids: the relabel is monotone, so every scan order and
        # hence every path, color and side is the same.
        if fallback:
            monkeypatch.setattr(rainbowpath.solver, "_heuristic_spanning_path", lambda *a: None)
        kinds = []
        for seed in range(48):
            n = 8 + seed % 3
            k = seed % 2
            model = ("uniform_supergraph", "perturbed_extremal")[seed // 4 % 2]
            extremal = ("C2", "C3", "B2", "B3")[seed // 8 % 4]
            if extremal in ("B2", "B3"):
                k = 0
            if extremal in ("B3", "C3") and (n + k) % 2:
                n += 1
            coll, forest, u, v = random_instance(GenSpec(
                n=n, k=k, p=0.75, seed=seed, model=model, extremal_kind=extremal, flips=seed % 3,
            ))
            plan = select_deletion_set(forest, u, v, n)
            reduced, keep = brute_relabel(coll, plan)
            want = li2_dispatch(reduced)
            got = li2_dispatch(coll, plan.active, plan.retained_mask)
            kinds.append(got.kind)
            assert got.kind == want.kind and got.heuristic_used == want.heuristic_used
            if want.kind == "A1":
                assert got.order == tuple(keep[x] for x in want.order)
                assert got.colors == tuple(bits(plan.retained_mask)[c] for c in want.colors)
            else:
                assert got.ell == want.ell
                assert got.X == frozenset(keep[x] for x in want.X)
                assert got.Y == frozenset(keep[x] for x in want.Y)
        assert min(kinds.count(kind) for kind in ("A1", "A2", "A3")) >= 4, kinds
