import json

import pytest

from rainbowpath import GraphCollection, OracleBudget, RainbowLinearForest, check_hypothesis
from rainbowpath.cli import (
    EXIT_EXTREMAL,
    EXIT_INPUT,
    EXIT_PATH,
    EXIT_VIOLATION,
    load_report,
    main,
    minimize_counterexample,
    revalidate_report,
)
from rainbowpath.gen import build_extremal
from rainbowpath.serialize import dumps, instance_to_dict, load_instance

from .conftest import complete_collection


def write_instance(tmp_path, collection, forest=None, u=None, v=None, k=None, name="inst.json"):
    path = tmp_path / name
    path.write_text(dumps(instance_to_dict(collection, forest, u, v, k)))
    return str(path)


class TestSolveCommand:
    def test_complete_collection_exit_zero(self, tmp_path, capsys):
        path = write_instance(tmp_path, complete_collection(5), u=0, v=4)
        assert main(["solve", path]) == EXIT_PATH
        data = json.loads(capsys.readouterr().out)
        assert data["outcome"] == "path"
        assert data["certificate"]["order"][0] == 0

    def test_extremal_exit_ten(self, tmp_path, capsys):
        coll, _ = build_extremal("B3", 6)
        path = write_instance(tmp_path, coll, u=0, v=1)
        assert main(["solve", path]) == EXIT_EXTREMAL
        data = json.loads(capsys.readouterr().out)
        assert data["certificate"]["kind"] == "B3"

    def test_malformed_json_exit_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["solve", str(bad)]) == EXIT_INPUT

    def test_missing_pair_exit_two(self, tmp_path):
        path = write_instance(tmp_path, complete_collection(5))
        assert main(["solve", path]) == EXIT_INPUT

    @pytest.mark.parametrize("field, value", [
        ("forest", {"components": [[3, 4]], "colors": [[3, 4]]}),
        ("u", "x"),
        ("graphs", [[[0]]] + [[[0, 1]]] * 4),
    ])
    def test_malformed_instance_exit_two(self, tmp_path, field, value):
        data = instance_to_dict(complete_collection(5), u=0, v=4)
        data[field] = value
        bad = tmp_path / "bad.json"
        bad.write_text(dumps(data))
        assert main(["solve", str(bad)]) == EXIT_INPUT

    def test_corollary_mode(self, tmp_path, capsys):
        coll, _ = build_extremal("B2", 5)
        path = write_instance(tmp_path, coll)
        assert main(["solve", path, "--corollary"]) == EXIT_PATH
        data = json.loads(capsys.readouterr().out)
        assert data["outcome"] == "cycle"

    def test_reduction_bound_error_writes_bundle(self, tmp_path, capsys, monkeypatch):
        import rainbowpath.solver
        from rainbowpath.forest import ReductionBoundError

        def failing_reduce(collection, plan):
            raise ReductionBoundError(
                "sigma2 of reduced color 3 is 1 < 3",
                bundle={"retained_color": 3, "sigma2": 1, "bound": 3},
            )

        monkeypatch.setattr(rainbowpath.solver, "reduce_collection", failing_reduce)
        path = write_instance(tmp_path, complete_collection(5), u=0, v=4)
        monkeypatch.chdir(tmp_path)
        assert main(["solve", path]) == EXIT_VIOLATION
        err = capsys.readouterr().err
        assert "Traceback" not in err
        bundle_path = err.rsplit("repro bundle ", 1)[1].strip()
        data = json.loads((tmp_path / bundle_path).read_text())
        assert data["bundle"] == {"retained_color": 3, "sigma2": 1, "bound": 3}


class TestOracleCommand:
    def test_found(self, tmp_path, capsys):
        path = write_instance(tmp_path, complete_collection(5), u=0, v=4)
        assert main(["oracle", path]) == EXIT_PATH

    def test_not_found(self, tmp_path):
        coll, _ = build_extremal("B2", 5)
        path = write_instance(tmp_path, coll, u=0, v=1)
        assert main(["oracle", path]) == EXIT_EXTREMAL

    def test_cycle_flag(self, tmp_path):
        coll, _ = build_extremal("dirac_control", 5)
        path = write_instance(tmp_path, coll)
        assert main(["oracle", path, "--cycle"]) == EXIT_EXTREMAL

    def test_out_of_range_forest_color_exit_two(self, tmp_path, capsys):
        forest = RainbowLinearForest.from_paths([(5, 6)], {(5, 6): 99})
        path = write_instance(tmp_path, complete_collection(8), forest, u=0, v=1, k=1)
        assert main(["oracle", path]) == EXIT_INPUT
        assert main(["solve", path]) == EXIT_INPUT

    def test_unknown_budget(self, tmp_path):
        path = write_instance(tmp_path, complete_collection(9), u=0, v=8)
        assert main(["oracle", path, "--budget-nodes", "2"]) == 20


class TestGenCommand:
    def test_random_round_trip(self, tmp_path, capsys):
        out = tmp_path / "inst.json"
        assert main(["gen", "--n", "8", "--k", "1", "--seed", "3", "--out", str(out)]) == 0
        capsys.readouterr()
        instance = load_instance(str(out))
        assert instance.collection.n_vertices == 8
        assert check_hypothesis(instance.collection, 1)
        assert instance.forest.edge_count == 1

    def test_gen_determinism(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        main(["gen", "--n", "8", "--k", "1", "--seed", "3", "--out", str(a)])
        main(["gen", "--n", "8", "--k", "1", "--seed", "3", "--out", str(b)])
        capsys.readouterr()
        assert a.read_text() == b.read_text()

    def test_kind_with_metadata(self, tmp_path, capsys):
        out = tmp_path / "b3.json"
        meta = tmp_path / "b3.meta.json"
        main(["gen", "--n", "6", "--kind", "B3", "--out", str(out),
              "--meta-out", str(meta)])
        capsys.readouterr()
        sidecar = json.loads(meta.read_text())
        assert sidecar["certificate"]["kind"] == "B3"
        instance = load_instance(str(out))
        assert instance.u == 0 and instance.v == 1


class TestVerifyCommand:
    def test_small_suite_passes(self, tmp_path, capsys):
        report = tmp_path / "report.jsonl"
        rc = main([
            "verify", "--count", "20", "--n-min", "5", "--n-max", "7",
            "--seed", "11", "--out", str(report),
        ])
        capsys.readouterr()
        assert rc == EXIT_PATH
        records, summary = load_report(str(report))
        assert summary["failures"] == 0
        assert summary["total"] == 20 == len(records)
        assert sum(summary["counts"].values()) == summary["total"]

    def test_report_revalidates(self, tmp_path, capsys):
        report = tmp_path / "report.jsonl"
        main(["verify", "--count", "12", "--seed", "2", "--out", str(report)])
        capsys.readouterr()
        assert revalidate_report(str(report))

    def test_corollary_mode(self, tmp_path, capsys):
        report = tmp_path / "report.jsonl"
        rc = main([
            "verify", "--count", "6", "--n-min", "5", "--n-max", "6",
            "--k-list", "0", "--mode", "corollary", "--seed", "4",
            "--out", str(report),
        ])
        capsys.readouterr()
        assert rc == EXIT_PATH

    def test_fault_injection_caught(self, tmp_path, capsys, monkeypatch):
        # A solver that lies must be flagged and exit nonzero.
        from rainbowpath import cli as climod
        from rainbowpath.model import PathCertificate

        def broken_solve(collection, forest, u, v, k=None):
            order = list(range(collection.n_vertices))
            from rainbowpath.solver import SolverOutcome
            return SolverOutcome(
                path=PathCertificate(tuple(order), tuple([0] * (len(order) - 1)))
            )

        monkeypatch.setattr(climod, "solve", broken_solve)
        monkeypatch.chdir(tmp_path)
        rc = main(["verify", "--count", "4", "--seed", "1", "--out",
                   str(tmp_path / "r.jsonl")])
        capsys.readouterr()
        assert rc == EXIT_VIOLATION


class TestSweepCommand:
    def test_clear_run(self, tmp_path, capsys):
        report = tmp_path / "sweep.jsonl"
        rc = main([
            "sweep", "--samples", "12", "--n-min", "5", "--n-max", "7",
            "--seed", "0", "--out", str(report),
        ])
        capsys.readouterr()
        assert rc == EXIT_PATH
        records, summary = load_report(str(report))
        assert summary["candidates"] == 0
        assert summary["unknown"] == 0
        assert summary["found"] == len(records)

    def test_deterministic_rerun(self, tmp_path, capsys):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        for target in (a, b):
            main(["sweep", "--samples", "8", "--seed", "9", "--out", str(target)])
        capsys.readouterr()
        # wall_time differs between runs; compare everything else
        rows_a = [json.loads(l) for l in a.read_text().splitlines()]
        rows_b = [json.loads(l) for l in b.read_text().splitlines()]
        for ra, rb in zip(rows_a, rows_b):
            ra.pop("wall_time", None)
            rb.pop("wall_time", None)
        assert rows_a == rows_b


class TestMinimization:
    def test_no_shrink_when_cycle_exists(self):
        coll = complete_collection(5)
        out = minimize_counterexample(coll, 0, OracleBudget(100000, 10))
        assert out == coll  # every removal keeps the cycle, so nothing shrinks

    def test_shrink_preserves_hypothesis(self, monkeypatch):
        # Fault-injected oracle that always reports NotFound: minimization
        # must shrink to an edge-minimal instance without ever breaking the
        # degree-sum bound.
        from rainbowpath import cli as climod
        from rainbowpath.oracle import OracleResult, NOT_FOUND

        monkeypatch.setattr(
            climod, "exact_rainbow_ham_cycle",
            lambda collection, budget=None: OracleResult(NOT_FOUND),
        )
        coll = complete_collection(5)
        out = minimize_counterexample(coll, 0, OracleBudget(1000, 5))
        assert check_hypothesis(out, 0)
        total = sum(len(out.edges(c)) for c in range(out.n_colors))
        before = sum(len(coll.edges(c)) for c in range(coll.n_colors))
        assert total < before
        # minimality: no single further removal keeps the hypothesis
        for color in range(out.n_colors):
            for edge in out.edges(color):
                lists = [out.edges(c) for c in range(out.n_colors)]
                lists[color] = [e for e in lists[color] if e != edge]
                candidate = GraphCollection.from_edge_lists(out.n_vertices, lists)
                assert not check_hypothesis(candidate, 0)
