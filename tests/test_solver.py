import sys

import pytest

import rainbowpath.model
import rainbowpath.solver
from rainbowpath import (
    FOUND,
    NOT_FOUND,
    BudgetExceeded,
    GraphCollection,
    InputError,
    OracleBudget,
    RainbowLinearForest,
    check_hypothesis,
    exact_rainbow_ham_cycle,
    exact_rainbow_ham_path,
    hamiltonian_or_connected,
    li2_dispatch,
    solve,
    solve_pair,
    validate_cycle_certificate,
    validate_path_certificate,
    verify_certificate,
)
from rainbowpath.gen import GenSpec, build_extremal, random_instance
from rainbowpath.solver import (
    WorkingPath,
    _exhaustive_spanning_path,
    absorb_components,
    attach_terminal_component,
)

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

    def test_fallback_budget_escalates(self):
        coll = complete_collection(9, m=11)
        with pytest.raises(BudgetExceeded):
            _exhaustive_spanning_path(coll, OracleBudget(node_limit=1))


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
        # Every module binding of sigma2 is counted, not only the one in
        # model: a caller that imports its own copy must not escape.
        original = rainbowpath.model.sigma2
        calls = []

        def counting(collection, color):
            calls.append(color)
            return original(collection, color)

        for name, module in list(sys.modules.items()):
            if module is not None and (name == "rainbowpath" or name.startswith("rainbowpath.")):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counting)
        n = 8
        res = hamiltonian_or_connected(complete_collection(n))
        assert res.kind == "connected"
        # The full collection once, then each pair's reduced collection once;
        # with k=0 the reduced collection keeps all n colors.
        assert len(calls) == n + n * (n - 1) // 2 * n

    @pytest.mark.parametrize("n", [2, 3])
    def test_too_small_rejected(self, n):
        with pytest.raises(InputError):
            hamiltonian_or_connected(complete_collection(n))

    def test_hypothesis_violation_rejected(self, k23):
        with pytest.raises(InputError):
            hamiltonian_or_connected(k23)
