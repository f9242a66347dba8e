import contextlib
import io
import random
import sys
from itertools import combinations

import pytest

import rainbowpath.model
import rainbowpath.solver
from rainbowpath import (
    FOUND,
    NOT_FOUND,
    BudgetExceeded,
    CycleCertificate,
    GraphCollection,
    InputError,
    InternalError,
    OracleBudget,
    PathCertificate,
    RainbowLinearForest,
    check_hypothesis,
    exact_rainbow_ham_cycle,
    exact_rainbow_ham_path,
    hamiltonian_or_connected,
    li2_dispatch,
    select_deletion_set,
    solve,
    solve_pair,
    validate_cycle_certificate,
    validate_path_certificate,
    verify_certificate,
)
from rainbowpath.gen import GenSpec, build_extremal, random_instance
from rainbowpath import cli
from rainbowpath.serialize import dumps, load_instance, outcome_to_dict
from rainbowpath.solver import (
    WorkingPath,
    _exhaustive_spanning_path,
    _heuristic_spanning_path,
    _try_extend,
    absorb_components,
    attach_terminal_component,
)
from rainbowpath.structures import certificate_violations

from .conftest import clique_edges, complete_collection, cross_edges


def _mask_collection(n, lists):
    return GraphCollection.from_edge_lists(n, lists)


def _complete_minus(n, m, removals_by_color):
    """Complete collection with specific (color -> edges) carved out."""
    base = clique_edges(range(n))
    lists = []
    for c in range(m):
        gone = set(removals_by_color.get(c, ()))
        lists.append([e for e in base if e not in gone])
    return _mask_collection(n, lists)


class TestLi2Dispatch:
    def test_a1_on_complete(self):
        coll = complete_collection(4, m=6)
        got = li2_dispatch(coll)
        assert got.kind == "A1"
        assert len(got.order) == 4
        assert len(set(got.colors)) == 3

    def test_a2_identical_split(self):
        coll = GraphCollection.from_edge_lists(4, [[(0, 1), (2, 3)]] * 6)
        got = li2_dispatch(coll)
        assert got.kind == "A2"
        assert got.ell == 2

    def test_a3_heavy_side(self):
        coll, _ = build_extremal("A3", 6)
        got = li2_dispatch(coll)
        assert got.kind == "A3"
        assert len(got.Y) == 4

    def test_precondition_checked(self):
        # One empty color: sigma2 = 0 < n-2 = 4 breaks the dispatch contract.
        lists = [[]] + [clique_edges(range(6))] * 5
        coll = GraphCollection.from_edge_lists(6, lists)
        with pytest.raises(InputError):
            li2_dispatch(coll)

    def test_fallback_equals_heuristic_existence(self, monkeypatch):
        colls = [random_instance(GenSpec(n=8, k=0, p=0.8, seed=seed))[0] for seed in range(10)]
        with_h = [li2_dispatch(coll) for coll in colls]
        monkeypatch.setattr(rainbowpath.solver, "_heuristic_spanning_path", lambda *a: None)
        for coll, got in zip(colls, with_h):
            without = li2_dispatch(coll)
            assert got.kind == without.kind == "A1"

    def test_later_start_answers_after_a_stalled_one(self, monkeypatch):
        # Perturbed B3: the run from vertex 0 stalls and gives up after
        # HEURISTIC_STALL_LIMIT rotations; a later start spans, so the exact
        # kernel is not needed.
        coll = random_instance(GenSpec(n=10, k=0, model="perturbed_extremal",
                                       extremal_kind="B3", flips=3, seed=13))[0]
        full = (1 << 10) - 1
        with monkeypatch.context() as m:
            m.setattr(rainbowpath.solver, "bits", lambda mask: iter([0]))
            assert rainbowpath.solver._heuristic_spanning_path(coll, full, full) is None
        assert rainbowpath.solver._heuristic_spanning_path(coll, full, full) is not None
        got = li2_dispatch(coll)
        assert got.kind == "A1" and got.heuristic_used
        assert verify_certificate(coll, PathCertificate(got.order, got.colors))

    def test_fallback_budget_escalates(self):
        coll = complete_collection(9, m=11)
        with pytest.raises(BudgetExceeded):
            _exhaustive_spanning_path(coll, (1 << 9) - 1, (1 << 11) - 1, OracleBudget(node_limit=1))

    def test_fallback_returns_the_search_coloring(self, monkeypatch):
        # The exact search's live matching colors the order it finds.
        def recolour(*args, **kwargs):
            raise AssertionError("the fallback recoloured its order")

        monkeypatch.setattr(rainbowpath.solver, "rainbow_assignment", recolour)
        coll = random_instance(GenSpec(n=9, k=0, p=0.8, seed=4))[0]
        active = ((1 << 9) - 1) & ~(1 << 4)
        palette = ((1 << 9) - 1) & ~0b101
        order, colors = _exhaustive_spanning_path(coll, active, palette)
        path = PathCertificate(tuple(order), tuple(colors))
        assert rainbowpath.model.path_certificate_violations(coll, path, active=active) == []
        assert all(palette >> c & 1 for c in colors)


def _reference_try_extend(collection, end, used, free):
    """The reference for ``_try_extend``: every candidate reads its edge's
    memoised color mask, with no lowest-unused-color test."""
    while free:
        x = (free & -free).bit_length() - 1
        available = collection.color_mask(end, x) & ~used
        if available:
            return x, (available & -available).bit_length() - 1
        free &= free - 1
    return None


class TestTryExtend:
    def test_matches_reference_with_cold_and_warm_memos(self):
        rng = random.Random(7)
        differ = 0
        for trial in range(400):
            n, m = rng.randint(2, 12), rng.randint(1, 14)
            density = rng.choice((0.1, 0.4, 0.8, 1.0))
            lists = [[e for e in clique_edges(range(n)) if rng.random() < density] for _ in range(m)]
            rows = GraphCollection.from_edge_lists(n, lists).adjacency
            cold, reference = GraphCollection(n, rows), GraphCollection(n, rows)
            palette = rng.getrandbits(m)
            for _ in range(6):
                end = rng.randrange(n)
                used = ~palette | (rng.getrandbits(m) & rng.getrandbits(m))
                free = rng.getrandbits(n) & ~(1 << end)
                want = _reference_try_extend(reference, end, used, free)
                assert _try_extend(cold, end, used, free) == want, trial
                # Warm: every pair's color mask is memoised now.
                for a, b in combinations(range(n), 2):
                    cold.color_mask(a, b)
                assert _try_extend(cold, end, used, free) == want, trial
                # The lowest unused color often misses the first candidate.
                lowest = ~used & -~used
                differ += bool(want and free and lowest and want[1] != lowest.bit_length() - 1)
        assert differ >= 100

    def _count_scans(self, monkeypatch):
        scans = []
        original = GraphCollection._scan_color_mask
        monkeypatch.setattr(GraphCollection, "_scan_color_mask",
                            lambda coll, u, v: scans.append((u, v)) or original(coll, u, v))
        return scans

    @pytest.mark.parametrize("n", [4, 9, 30])
    def test_complete_collection_scans_no_color_mask(self, n, monkeypatch):
        scans = self._count_scans(monkeypatch)
        full = (1 << n) - 1
        assert _heuristic_spanning_path(complete_collection(n), full, full) is not None
        assert scans == []

    def test_dense_file_scans_only_where_the_lowest_color_misses(self, tmp_path, monkeypatch):
        # gen --p 0.95 at n=100: the lowest unused color holds the candidate
        # edge about 95% of the time, so a handful of the 97 steps read a
        # color mask.  The reference scans every pair it tries, one or more
        # per step, and both grow the same path.
        path = str(tmp_path / "dense.json")
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["gen", "--n", "100", "--p", "0.95", "--seed", "1", "--out", path]) == 0
        inst = load_instance(path)
        plan = select_deletion_set(inst.forest, inst.u, inst.v, 100)
        coll = inst.collection
        scans = self._count_scans(monkeypatch)
        found = _heuristic_spanning_path(coll, plan.active, plan.retained_mask)
        assert found is not None and len(scans) <= 10
        fresh = GraphCollection(100, coll.adjacency)
        scans.clear()
        with monkeypatch.context() as m:
            m.setattr(rainbowpath.solver, "_try_extend", _reference_try_extend)
            assert _heuristic_spanning_path(fresh, plan.active, plan.retained_mask) == found
        assert len(scans) >= plan.active.bit_count() - 1


class TestAbsorption:
    def test_nothing_to_absorb(self):
        coll = complete_collection(6)
        wp = WorkingPath([0, 1, 2, 3], [0, 1, 2], 6, {})
        out = absorb_components(wp, (), coll, 6)
        assert out.order == [0, 1, 2, 3]

    def test_direct_attachment_at_path_end(self):
        # Kept endpoint sits at the path end: splice is free.
        coll = complete_collection(7)
        forest_colors = {(5, 6): 6}
        wp = WorkingPath([2, 3, 4, 5], [0, 1, 2], 7, forest_colors)
        out = absorb_components(wp, ((5, 6),), coll, 8)
        assert out.order == [2, 3, 4, 5, 6]
        assert len(out.unused_colors()) == 3

    def test_rotation_when_ends_blocked(self):
        # w=8 loses its edges to both path ends (2 and 6) in all unused colors.
        n = 9
        removals = {c: [(2, 8), (6, 8)] for c in (5, 6, 7)}
        coll = _complete_minus(n, n, removals)
        assert check_hypothesis(coll, 1)
        forest_colors = {(7, 8): 8}
        wp = WorkingPath([2, 3, 7, 4, 5, 6], [0, 1, 2, 3, 4], n, forest_colors)
        trace = []
        out = absorb_components(wp, ((7, 8),), coll, 10, trace)
        assert trace[0]["mode"] == "rotation"
        assert len(out.unused_colors()) == 3
        assert len(out.order) == 7
        # forest edge (7,8) is consecutive
        pairs = {tuple(sorted((out.order[i], out.order[i + 1]))) for i in range(6)}
        assert (7, 8) in pairs

    def test_rotation_interior_positions_all_cases(self):
        # Force rotations with the kept endpoint at varying positions to hit
        # the four splice cases (window left of, at, and right of the anchor).
        n = 9
        removals = {c: [(2, 8), (6, 8)] for c in (5, 6, 7)}
        coll = _complete_minus(n, n, removals)
        forest_colors = {(7, 8): 8}
        for order in ([2, 7, 3, 4, 5, 6], [2, 3, 7, 4, 5, 6], [2, 3, 4, 7, 5, 6],
                      [2, 3, 4, 5, 7, 6]):
            wp = WorkingPath(list(order), [0, 1, 2, 3, 4], n, dict(forest_colors))
            out = absorb_components(wp, ((7, 8),), coll, 10)
            assert len(out.order) == 7
            assert len(out.unused_colors()) == 3
            emap = out.edge_map()
            assert emap[(7, 8)] == 8

    def test_rotation_window_skips_forest_positions(self):
        from rainbowpath.solver import _rotation_window

        # Window positions 1 and 2 qualify by adjacency; 1 is a forest edge.
        n = 8
        removals = {5: [(2, 7), (5, 7), (6, 7), (0, 7)]}
        coll = _complete_minus(n, n, removals)
        wp = WorkingPath([2, 3, 4, 5, 6], [0, 1, 2, 3], n, {(3, 4): 7})
        # color 5 leaves 7 adjacent to path vertices 3 and 4 only
        p = _rotation_window(coll, wp, wp.order, 5, 6, 7)
        assert p == 2  # position 1 = edge (3,4) is excluded as a forest slide

    def test_rotation_window_right_of_anchor(self):
        # All window positions sit right of the kept endpoint: the splice
        # must re-root through the anchor (fourth position case).
        n = 9
        removals = {c: [(2, 8), (6, 8), (7, 8)] for c in (5, 6, 7)}
        coll = _complete_minus(n, n, removals)
        assert check_hypothesis(coll, 1)
        forest_colors = {(7, 8): 8}
        wp = WorkingPath([2, 7, 3, 4, 5, 6], [0, 1, 2, 3, 4], n, forest_colors)
        trace = []
        out = absorb_components(wp, ((7, 8),), coll, 10, trace)
        assert trace[0]["mode"] == "rotation"
        assert trace[0]["position"] >= 2  # strictly right of the anchor at 1
        assert len(out.order) == 7
        emap = out.edge_map()
        assert emap[(7, 8)] == 8
        assert len(out.unused_colors()) == 3

    def test_two_components_absorbed_in_sequence(self):
        # After the first splice its edge rides on the path; the second
        # absorption must leave it intact with its fixed color.
        n = 10
        coll = _complete_minus(n, n, {c: [(9, 8), (3, 8)] for c in (5, 6, 7)})
        forest_colors = {(5, 7): 8, (6, 8): 9}
        wp = WorkingPath([5, 2, 4, 6, 3, 9], [0, 1, 2, 3, 4], n, forest_colors)
        assert check_hypothesis(coll, 2)
        trace = []
        out = absorb_components(wp, ((5, 7), (6, 8)), coll, 12, trace)
        assert len(out.order) == 8
        emap = out.edge_map()
        assert emap[(5, 7)] == 8 and emap[(6, 8)] == 9
        assert len(out.unused_colors()) == 3


class TestAttachment:
    def test_direct_prepend(self):
        coll = complete_collection(7)
        wp = WorkingPath([2, 3, 4, 5, 6], [0, 1, 2, 3], 7, {})
        out = attach_terminal_component(wp, (0,), "u", coll, 7)
        assert out.order[-1] == 0
        assert len(out.unused_colors()) == 2

    def test_rotation_for_singleton_endpoint(self):
        # u=0 cut off from both path ends in every unused color.
        n = 9
        removals = {c: [(0, 2), (0, 8)] for c in (6, 7, 8)}
        coll = _complete_minus(n, n, removals)
        assert check_hypothesis(coll, 0)
        wp = WorkingPath([2, 3, 4, 7, 5, 6, 8], [0, 1, 2, 3, 4, 5], n, {})
        assert sorted(wp.unused_colors()) == [6, 7, 8]
        trace = []
        out = attach_terminal_component(wp, (0,), "u", coll, 9, trace)
        assert trace[-1]["mode"] == "rotation"
        assert out.order[-1] == 0
        assert len(out.unused_colors()) == 2

    def test_nontrivial_endpoint_component(self):
        # H_u is the edge (0,7) in fixed color 8; path spans the rest.
        coll = complete_collection(9)
        forest_colors = {(0, 7): 8}
        wp = WorkingPath([2, 3, 4, 5, 6, 8], [0, 1, 2, 3, 4], 9, forest_colors)
        out = attach_terminal_component(wp, (0, 7), "u", coll, 10)
        assert out.order[-1] == 0
        assert out.order[-2] == 7
        assert len(out.order) == 8
        assert len(out.unused_colors()) == 2

    def test_role_v_keeps_far_end(self):
        n = 9
        removals = {c: [(1, 2), (1, 8)] for c in (6, 7, 8)}
        coll = _complete_minus(n, n, removals)
        wp = WorkingPath([2, 3, 4, 7, 5, 6, 8], [0, 1, 2, 3, 4, 5], n, {})
        mid = attach_terminal_component(wp, (0,), "u", coll, 9)
        assert mid.order[-1] == 0
        final = attach_terminal_component(mid, (1,), "v", coll, 9)
        assert final.order[0] == 1
        assert final.order[-1] == 0
        assert len(final.order) == 9


class TestSolveEndToEnd:
    def test_complete_with_forest(self):
        coll = complete_collection(7)
        forest = RainbowLinearForest.from_paths([(5, 6)], {(5, 6): 6})
        out = solve(coll, forest, 0, 1)
        assert out.path is not None
        assert validate_path_certificate(coll, out.path, forest)
        assert out.path.order[0] == 0 and out.path.order[-1] == 1

    def test_c3_family_extremal(self):
        coll, meta = build_extremal("C3", 10, 2)
        out = solve(coll, meta["forest"], 0, 1)
        assert out.extremal is not None and out.extremal.kind == "C3"
        assert verify_certificate(coll, out.extremal, meta["forest"])

    def test_c2_family_extremal(self):
        coll, meta = build_extremal("C2", 10, 2)
        out = solve(coll, meta["forest"], 0, 1)
        assert out.extremal is not None and out.extremal.kind == "C2"
        assert verify_certificate(coll, out.extremal, meta["forest"])

    @pytest.mark.parametrize("path", [(0, 2, 1), (2, 0, 3)])
    def test_incompatible_pair_message(self, path):
        forest = RainbowLinearForest.from_paths([path], {(path[0], path[1]): 0, (path[1], path[2]): 1})
        with pytest.raises(InputError) as excinfo:
            solve(complete_collection(10), forest, 0, 1)
        assert str(excinfo.value) == "(0,1) is not a compatible pair for the forest"

    @pytest.mark.parametrize("kind", ["C2", "C3"])
    @pytest.mark.parametrize("n", [10, 12])
    def test_edgeless_component_off_pair_passes_checker(self, kind, n):
        # The singleton [n-1] (in Y for C3) puts no constraint on a path, so
        # the certificate derived without it must verify against the
        # caller's forest, which still holds it; the oracle confirms it blocks.
        coll, meta = build_extremal(kind, n, 2)
        forest = meta["forest"]
        plus = RainbowLinearForest((*forest.components, (n - 1,)), forest.fixed_colors)
        out = solve(coll, plus, 0, 1)
        assert out.extremal is not None and out.extremal.kind == kind
        assert certificate_violations(coll, out.extremal, plus) == []
        assert exact_rainbow_ham_path(coll, 0, 1, plus).status == NOT_FOUND

    def test_edgeless_component_off_pair_on_random_instances(self):
        kinds = []
        for seed in range(40):
            kind = ("C2", "C3")[seed % 2]
            k = 1 + seed // 2 % 2
            n = 10 + seed // 4 % 4
            if kind == "C3" and (n + k) % 2:
                n += 1
            coll, forest, u, v = random_instance(GenSpec(
                n=n, k=k, seed=seed, model="perturbed_extremal", extremal_kind=kind,
                flips=seed // 8 % 3,
            ))
            w = max(set(range(n)) - forest.vertices() - {u, v})
            plus = RainbowLinearForest((*forest.components, (w,)), forest.fixed_colors)
            out = solve(coll, plus, u, v)
            assert dumps(outcome_to_dict(out)) == dumps(outcome_to_dict(solve(coll, forest, u, v)))
            assert certificate_violations(coll, out.path or out.extremal, plus) == [], seed
            kinds.append(out.kind)
        assert kinds.count("extremal") >= 20 and kinds.count("path") >= 10, kinds

    @pytest.mark.parametrize("kind,n,k", [("C3", 17, 1), ("C3", 21, 1), ("C3", 41, 1),
                                          ("B3", 16, 0), ("B3", 24, 0), ("B3", 40, 0)])
    def test_perturbed_extremal_answered_without_budget_exhaustion(self, kind, n, k):
        # The spanning-path fallback used to run for seconds on many of these,
        # before the exact search's bound counted private edges.
        for flips in (1, 2, 3):
            for seed in range(8):
                coll, forest, u, v = random_instance(GenSpec(
                    n=n, k=k, seed=seed, model="perturbed_extremal", extremal_kind=kind,
                    flips=flips,
                ))
                out = solve(coll, forest, u, v)
                assert verify_certificate(coll, out.path or out.extremal, forest), (flips, seed)

    def test_case2_with_interior_component(self):
        n, k = 10, 2
        X, Y, D = {2, 3, 4}, {5, 6, 7}, {0, 1, 8, 9}
        structured = (clique_edges(X) + clique_edges(Y) + clique_edges(D)
                      + cross_edges(D, X | Y))
        complete = clique_edges(range(n))
        lists = [complete if c < k else structured for c in range(n)]
        coll = _mask_collection(n, lists)
        forest = RainbowLinearForest.from_paths([(2, 8, 9)], {(2, 8): 0, (8, 9): 1})
        assert check_hypothesis(coll, k)
        out = solve(coll, forest, 0, 1)
        assert out.path is not None
        assert validate_path_certificate(coll, out.path, forest)
        assert exact_rainbow_ham_path(coll, 0, 1, forest).status == FOUND
        assert any(t["stage"] == "case2" for t in out.trace)

    def test_case2_anchor_in_small_side(self):
        # Anchor placed in the other clique: roles swap.
        n, k = 10, 2
        X, Y, D = {2, 3, 4}, {5, 6, 7}, {0, 1, 8, 9}
        structured = (clique_edges(X) + clique_edges(Y) + clique_edges(D)
                      + cross_edges(D, X | Y))
        complete = clique_edges(range(n))
        lists = [complete if c < k else structured for c in range(n)]
        coll = _mask_collection(n, lists)
        forest = RainbowLinearForest.from_paths([(5, 8, 9)], {(5, 8): 0, (8, 9): 1})
        out = solve(coll, forest, 0, 1)
        assert out.path is not None
        assert validate_path_certificate(coll, out.path, forest)

    def test_case3_anchor_in_heavy_side(self):
        n, k = 10, 2
        D = {0, 1, 8, 9}
        Xp, Yp = {2, 3}, {4, 5, 6, 7}
        Xfull = Xp | D
        structured = clique_edges(Xfull) + cross_edges(Xfull, Yp)
        complete = clique_edges(range(n))
        lists = [complete if c < k else structured for c in range(n)]
        coll = _mask_collection(n, lists)
        forest = RainbowLinearForest.from_paths([(4, 8, 9)], {(4, 8): 0, (8, 9): 1})
        assert check_hypothesis(coll, k)
        out = solve(coll, forest, 0, 1)
        assert out.path is not None
        assert validate_path_certificate(coll, out.path, forest)
        assert any(t["stage"] == "case3" for t in out.trace)
        assert exact_rainbow_ham_path(coll, 0, 1, forest).status == FOUND

    def test_case3_robust_matching_branch(self):
        # X' independent in the unused colors: the greedy forest stalls and
        # the dropped-endpoint matching has to supply the missing edge.
        n, k = 16, 4
        D = {0, 1, 10, 11, 12, 13}
        Xp = {4, 5, 6, 7}
        Yp = {2, 3, 8, 9, 14, 15}
        Xfull = Xp | D
        structured = clique_edges(D) + cross_edges(D, Xp) + cross_edges(Xfull, Yp)
        complete = clique_edges(range(n))
        lists = [complete if c < k else structured for c in range(n)]
        coll = _mask_collection(n, lists)
        forest = RainbowLinearForest.from_paths(
            [(2, 10), (3, 11), (0, 12), (1, 13)],
            {(2, 10): 0, (3, 11): 1, (0, 12): 2, (1, 13): 3},
        )
        assert check_hypothesis(coll, k)
        out = solve(coll, forest, 0, 1)
        assert out.path is not None
        assert validate_path_certificate(coll, out.path, forest)

    def test_case3_top_up_skips_non_robust_color(self):
        # In color 4, the first retained color, vertex 4 sees only one of the
        # ends {10, 11, 12, 13}; a top-up link needs q - t = 2 of them, so it
        # takes color 5 instead.
        n, k = 16, 4
        D = {0, 1, 10, 11, 12, 13}
        Xp, Yp = {4, 5, 6, 7}, {2, 3, 8, 9, 14, 15}
        structured = clique_edges(D) + cross_edges(D, Xp) + cross_edges(Xp | D, Yp)
        sparse = [e for e in structured if e not in {(4, 11), (4, 12), (4, 13)}]
        complete = clique_edges(range(n))
        lists = [complete if c < k else sparse if c == k else structured for c in range(n)]
        coll = _mask_collection(n, lists)
        forest = RainbowLinearForest.from_paths(
            [(2, 10), (3, 11), (0, 12), (1, 13)],
            {(2, 10): 0, (3, 11): 1, (0, 12): 2, (1, 13): 3},
        )
        assert check_hypothesis(coll, k)
        out = solve(coll, forest, 0, 1)
        assert out.trace[-1] == {"stage": "case3", "outcome": "path", "top_up": 1}
        assert out.path.edge_coloring()[(4, 10)] == 5
        assert validate_path_certificate(coll, out.path, forest)

    def test_case3_top_up_keeps_endpoint_components_apart(self):
        # The greedy step links 6-7 and stalls one short of q - 1 = 3, so two
        # top-up links follow: 6 takes v = 0, the first end.  For 7 the first
        # end is then u = 1, which would put u and v on one path, so it takes 10.
        n, k = 16, 4
        D = {0, 1, 10, 11, 12, 13}
        Xp, Yp = {6, 7, 8, 9}, {2, 3, 4, 5, 14, 15}
        structured = clique_edges(D) + cross_edges(D, Xp) + cross_edges(Xp | D, Yp) + [(6, 7)]
        complete = clique_edges(range(n))
        lists = [complete if c < k else structured for c in range(n)]
        coll = _mask_collection(n, lists)
        forest = RainbowLinearForest.from_paths(
            [(2, 10), (3, 11), (4, 12), (5, 13)],
            {(2, 10): 0, (3, 11): 1, (4, 12): 2, (5, 13): 3},
        )
        assert check_hypothesis(coll, k)
        out = solve(coll, forest, 1, 0)
        assert out.trace[-1] == {"stage": "case3", "outcome": "path", "top_up": 2}
        colors = out.path.edge_coloring()
        assert (colors[(6, 7)], colors[(0, 6)], colors[(7, 10)]) == (4, 5, 6)
        assert validate_path_certificate(coll, out.path, forest)

    def test_precondition_errors(self, k4):
        with pytest.raises(InputError):
            solve(k4, None, 0, 0)
        with pytest.raises(InputError):
            solve(k4, None, 0, 9)
        forest = RainbowLinearForest.from_paths([(2, 3)], {(2, 3): 0})
        with pytest.raises(InputError):  # k=1 > (4-4)/3
            solve(k4, forest, 0, 1)
        with pytest.raises(InputError):  # k mismatch
            solve(complete_collection(8), forest, 0, 1, k=2)
        dirac, _ = build_extremal("dirac_control", 5)
        with pytest.raises(InputError):  # hypothesis violated
            solve(dirac, None, 0, 1)

    def test_random_instances_match_oracle(self):
        for seed in range(60):
            n = 5 + seed % 5
            k = 1 if (seed % 2 and n >= 7) else 0
            coll, forest, u, v = random_instance(
                GenSpec(n=n, k=k, p=0.5 + (seed % 5) * 0.1, seed=1000 + seed)
            )
            out = solve(coll, forest, u, v, k)
            oracle = exact_rainbow_ham_path(coll, u, v, forest)
            assert oracle.status in (FOUND, NOT_FOUND)
            assert (out.path is not None) == (oracle.status == FOUND)
            if out.path is not None:
                assert validate_path_certificate(coll, out.path, forest)
            else:
                assert verify_certificate(coll, out.extremal, forest)


class TestSolvePair:
    def test_complete(self, k4):
        out = solve_pair(k4, 0, 3)
        assert out.path is not None

    def test_b3_same_side(self):
        coll, _ = build_extremal("B3", 6)
        out = solve_pair(coll, 0, 1)
        assert out.extremal is not None and out.extremal.kind == "B3"
        assert verify_certificate(coll, out.extremal)
        assert exact_rainbow_ham_path(coll, 0, 1).status == NOT_FOUND

    def test_b3_cross_pair_has_path(self):
        coll, _ = build_extremal("B3", 6)
        out = solve_pair(coll, 0, 5)
        assert out.path is not None
        assert validate_path_certificate(coll, out.path)

    def test_b2_blocked(self):
        coll, _ = build_extremal("B2", 5)
        out = solve_pair(coll, 0, 1)
        assert out.extremal is not None and out.extremal.kind == "B2"
        assert exact_rainbow_ham_path(coll, 0, 1).status == NOT_FOUND

    def test_b2_unblocked_pair(self):
        coll, _ = build_extremal("B2", 5)
        out = solve_pair(coll, 0, 2)
        assert out.path is not None

    @pytest.mark.parametrize("kind, n", [("B2", 5), ("B2", 8), ("B3", 6), ("B3", 10)])
    def test_blocked_pair_is_checked_once(self, kind, n, monkeypatch):
        # solve names the bare pair's certificate B2/B3 itself, so the one
        # certificate it returns is the one certificate it checked.
        checked = []
        real = rainbowpath.solver.certificate_violations

        def counting(collection, cert, forest=None):
            checked.append(cert)
            return real(collection, cert, forest)

        monkeypatch.setattr(rainbowpath.solver, "certificate_violations", counting)
        coll, meta = build_extremal(kind, n)
        out = solve_pair(coll, *meta["pair"])
        assert out.extremal is not None and out.extremal.kind == kind
        assert checked == [out.extremal]

    @pytest.mark.parametrize("kind, n", [("B2", 8), ("B3", 10)])
    def test_edgeless_forest_gives_the_bare_pair_outcome(self, kind, n):
        # A forest of singletons has no edge: solve answers at level B, with
        # the bytes solve_pair gives.
        coll, meta = build_extremal(kind, n)
        u, v = meta["pair"]
        singletons = RainbowLinearForest(((u,), (n - 1,)), {})
        out = solve(coll, singletons, u, v)
        assert out.extremal is not None and out.extremal.kind == kind
        assert dumps(outcome_to_dict(out)) == dumps(outcome_to_dict(solve_pair(coll, u, v)))


class TestHamiltonianOrConnected:
    def test_complete_all_pairs(self):
        coll = complete_collection(5)
        res = hamiltonian_or_connected(coll)
        assert res.kind == "connected"
        assert len(res.paths) == 10
        for (u, v), cert in res.paths.items():
            assert cert.order[0] == u and cert.order[-1] == v
            assert validate_path_certificate(coll, cert)

    def test_b3_yields_cycle(self, k22):
        res = hamiltonian_or_connected(k22)
        assert res.kind == "cycle"
        assert validate_cycle_certificate(k22, res.cycle)
        assert exact_rainbow_ham_cycle(k22).status == FOUND

    def test_b2_yields_cycle(self):
        coll, _ = build_extremal("B2", 5)
        res = hamiltonian_or_connected(coll)
        assert res.kind == "cycle"
        assert validate_cycle_certificate(coll, res.cycle)

    def test_sigma2_computed_once_per_collection(self, monkeypatch):
        original = rainbowpath.model.sigma2
        calls = []

        def counting(collection, color):
            calls.append(color)
            return original(collection, color)

        original_row = rainbowpath.model.row_sigma2
        masked = []

        def counting_row(row, active=None):
            if active is not None:
                masked.append(active)
            return original_row(row, active)

        # A fresh copy: building the random instance already cached its sigma2s.
        random16 = random_instance(GenSpec(n=16, k=0, p=0.7))[0]
        random16 = GraphCollection(random16.n_vertices, random16.adjacency)
        # Every module binding of sigma2 is counted, not only the one in
        # model: a caller that imports its own copy must not escape.
        for name, module in list(sys.modules.items()):
            if module is not None and (name == "rainbowpath" or name.startswith("rainbowpath.")):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counting)
                    elif value is original_row:
                        monkeypatch.setattr(module, attr, counting_row)
        # K8 passes on its minimum degree (2·7 >= 8 + 1, the cut-off n +
        # (n-4)//3) and is never scanned; every color of random16 has
        # 2·δ <= 18 < 20 and is scanned once.
        for coll, any_below, scanned in ((complete_collection(8), False, []),
                                         (random16, True, list(range(16)))):
            n = coll.n_vertices
            calls.clear()
            res = hamiltonian_or_connected(coll)
            assert res.kind == "connected"
            # The full collection at most once.  Each pair's restriction to
            # V minus D passes on the cached bound minus 2|D|, so no masked
            # scan runs, even where the masked sigma2 is below the full one.
            assert calls == scanned
            assert masked == []
            actives = [select_deletion_set(RainbowLinearForest.empty(), u, v, n).active
                       for u, v in combinations(range(n), 2)]
            below = sum(original_row(coll.adjacency[c], active) < coll.sigma2s[c]
                        for active in actives for c in range(n))
            assert (below > 0) == any_below

    def test_pair_color_masks_computed_once(self, monkeypatch):
        original = GraphCollection._scan_color_mask
        scans = []

        def counting(collection, u, v):
            scans.append((u, v))
            return original(collection, u, v)

        monkeypatch.setattr(GraphCollection, "_scan_color_mask", counting)
        n = 8
        res = hamiltonian_or_connected(complete_collection(n))
        assert res.kind == "connected"
        # Every pair of a corollary run shares the collection's memo.
        assert scans and len(scans) == len(set(scans)) <= n * (n - 1) // 2

    def test_cycle_is_checked_before_it_is_returned(self, monkeypatch):
        # A cycle builder that emits an out-of-range color must not get through.
        build = rainbowpath.solver.cycle_from_extremal

        def broken(collection, cert):
            cycle = build(collection, cert)
            return CycleCertificate(cycle.order, (collection.n_colors, *cycle.coloring[1:]))

        monkeypatch.setattr(rainbowpath.solver, "cycle_from_extremal", broken)
        with pytest.raises(InternalError, match="corollary cycle certificate fails verification: "
                                                "color 5 out of range"):
            hamiltonian_or_connected(build_extremal("B2", 5)[0])

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_too_small_rejected(self, n):
        with pytest.raises(InputError, match=f"needs n >= 4, got n={n}"):
            hamiltonian_or_connected(complete_collection(n))

    def test_hypothesis_violation_rejected(self, k23):
        with pytest.raises(InputError):
            hamiltonian_or_connected(k23)
