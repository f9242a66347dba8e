import math

import pytest

from rainbowpath import (
    GraphCollection,
    InputError,
    InternalError,
    RainbowLinearForest,
    is_h_compatible,
    reduce_collection,
    select_deletion_set,
    sigma2,
)
from rainbowpath.forest import ReductionBoundError
from rainbowpath.gen import GenSpec, random_instance

from .conftest import complete_collection


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


class TestDeletionSet:
    def test_single_edge(self):
        forest = RainbowLinearForest.from_paths([(5, 6)], {(5, 6): 6})
        plan = select_deletion_set(forest, 0, 1, 7)
        assert plan.deleted == frozenset({0, 1, 6})  # kept endpoint is min(5,6)
        assert plan.kept_endpoints == (5,)
        assert plan.dropped_endpoints == (6,)
        assert plan.w_u == 0 and plan.w_v == 1
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
        assert plan.kept_endpoints == (2, 5)

    def test_nontrivial_endpoint_components(self):
        forest = RainbowLinearForest.from_paths(
            [(0, 7), (1, 8)], {(0, 7): 0, (1, 8): 1}
        )
        plan = select_deletion_set(forest, 0, 1, 9)
        assert plan.w_u == 7 and plan.w_v == 8
        assert plan.q == 0
        assert plan.deleted == frozenset({0, 1, 7, 8})

    def test_incompatible_raises(self):
        forest = RainbowLinearForest.from_paths([(0, 2, 1)], {(0, 2): 0, (2, 1): 1})
        with pytest.raises(InputError):
            select_deletion_set(forest, 0, 1, 5)

    def test_edgeless_components_normalized_away(self):
        forest = RainbowLinearForest.from_paths([(5, 6), (3,)], {(5, 6): 0})
        plan = select_deletion_set(forest, 0, 1, 7)
        assert plan.deleted == frozenset({0, 1, 6})
        assert plan.q == 1

    def test_determinism(self):
        forest = RainbowLinearForest.from_paths(
            [(9, 4, 7), (3, 8)], {(4, 9): 0, (4, 7): 1, (3, 8): 2}
        )
        a = select_deletion_set(forest, 0, 1, 10)
        b = select_deletion_set(forest, 0, 1, 10)
        assert a == b
        # components sorted by min vertex; each kept endpoint is its smaller end
        assert a.kept_endpoints == (3, 7)
        assert a.middle_components[1] == (7, 4, 9)


class TestReduceCollection:
    def test_complete_seven(self):
        coll = complete_collection(7)
        forest = RainbowLinearForest.from_paths([(5, 6)], {(5, 6): 6})
        plan = select_deletion_set(forest, 0, 1, 7)
        reduced = reduce_collection(coll, plan)
        assert reduced.n_vertices == 4
        assert reduced.n_colors == 6
        assert sigma2(reduced, 0) == math.inf

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
            reduce_collection(coll, plan)
        assert isinstance(excinfo.value, InternalError)
        assert excinfo.value.bundle == {"retained_color": 0, "sigma2": 0, "bound": 2}

    def test_rows_match_brute_relabel(self):
        ends_deleted = 0
        for seed in range(40):
            n = 7 + seed % 10
            k = seed % ((n - 4) // 3 + 1)
            coll, forest, u, v = random_instance(GenSpec(n=n, k=k, p=0.8, seed=seed))
            plans = [
                select_deletion_set(forest, u, v, n),
                select_deletion_set(RainbowLinearForest.empty(), 0, n - 1, n),
            ]
            for plan in plans:
                ends_deleted += {0, n - 1} <= plan.deleted
                reduced = reduce_collection(coll, plan)
                keep = plan.new_to_old
                assert reduced.n_colors == len(plan.retained_colors)
                for new_c, color in enumerate(plan.retained_colors):
                    brute = tuple(
                        sum(1 << j for j, other in enumerate(keep) if coll.has_edge(color, old, other))
                        for old in keep
                    )
                    assert reduced.adjacency[new_c] == brute, (seed, plan.deleted, color)
        assert ends_deleted >= 40

    def test_generated_instances_meet_bound(self):
        for seed in range(30):
            n = 7 + seed % 3
            coll, forest, u, v = random_instance(GenSpec(n=n, k=1, p=0.7, seed=seed))
            plan = select_deletion_set(forest, u, v, n)
            reduced = reduce_collection(coll, plan)
            assert reduced.n_vertices == n - 1 - 2
            for c in range(reduced.n_colors):
                assert sigma2(reduced, c) >= reduced.n_vertices - 2
