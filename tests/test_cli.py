import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rainbowpath import (
    BudgetExceeded,
    GraphCollection,
    InputError,
    InternalError,
    OracleBudget,
    RainbowLinearForest,
    check_hypothesis,
    sigma2,
    verify_certificate,
)
from rainbowpath.cli import (
    EXIT_EXTREMAL,
    EXIT_INPUT,
    EXIT_PATH,
    EXIT_UNKNOWN,
    EXIT_VIOLATION,
    _suite_instance,
    load_report,
    main,
    minimize_counterexample,
    revalidate_report,
)
from rainbowpath.gen import GenSpec, build_extremal, random_instance
from rainbowpath.oracle import NOT_FOUND, UNKNOWN
from rainbowpath.serialize import (
    certificate_from_dict,
    digest,
    dumps,
    instance_to_dict,
    load_instance,
)

from .conftest import complete_collection, edges_form


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

    def test_edgeless_component_off_pair_round_trip(self, tmp_path, capsys):
        # Canonical C2 with the singleton [9] appended to its forest: the
        # certificate solve writes verifies against the file's own forest.
        inst, out = tmp_path / "c2.json", tmp_path / "out.json"
        assert main(["gen", "--n", "10", "--k", "2", "--kind", "C2", "--out", str(inst)]) == 0
        data = json.loads(inst.read_text())
        data["forest"]["components"].append([9])
        inst.write_text(json.dumps(data))
        assert main(["solve", str(inst), "--out", str(out)]) == EXIT_EXTREMAL
        capsys.readouterr()
        instance = load_instance(str(inst))
        cert = certificate_from_dict(json.loads(out.read_text())["certificate"])
        assert cert.kind == "C2"
        assert verify_certificate(instance.collection, cert, instance.forest)

    def test_malformed_json_exit_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["solve", str(bad)]) == EXIT_INPUT

    @pytest.mark.parametrize("command", ["solve", "oracle"])
    @pytest.mark.parametrize("content", [b'\xff\xfe{"n": 2}', b"[" * 100_000],
                             ids=["not-utf8", "deeply-nested"])
    def test_unreadable_instance_exit_two(self, tmp_path, capsys, command, content):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        assert main([command, str(bad)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith(f"input error: cannot read instance {bad}: ")
        assert "Traceback" not in err

    def test_missing_pair_exit_two(self, tmp_path, capsys):
        path = write_instance(tmp_path, complete_collection(5))
        assert main(["solve", path]) == EXIT_INPUT
        assert main(["oracle", path]) == EXIT_INPUT
        assert "pass --cycle for cycles" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [
        ("forest", {"components": [[3, 4]], "colors": [[3, 4]]}),
        ("u", "x"),
        ("graphs", [[[0]]] + [[[0, 1]]] * 4),
    ])
    def test_malformed_instance_exit_two(self, tmp_path, field, value):
        data = instance_to_dict(complete_collection(5), u=0, v=4)
        if field == "graphs":
            del data["rows"]
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

    def test_corollary_below_four_vertices_exit_two(self, tmp_path, capsys):
        path = write_instance(tmp_path, complete_collection(1))
        assert main(["solve", path, "--corollary"]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "needs n >= 4, got n=1" in err and "Traceback" not in err

    def test_budget_exceeded_exit_twenty(self, tmp_path, capsys, monkeypatch):
        from rainbowpath import cli as climod

        def exhausted(collection, forest, u, v, k=None):
            raise BudgetExceeded("node budget 7 exhausted", 7)

        monkeypatch.setattr(climod, "solve", exhausted)
        path = write_instance(tmp_path, complete_collection(5), u=0, v=4)
        assert main(["solve", path]) == EXIT_UNKNOWN
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "unknown (budget): node budget 7 exhausted\n")

    def test_reduction_bound_error_writes_bundle(self, tmp_path, capsys, monkeypatch):
        import rainbowpath.solver

        # Color 0 is empty, so it breaks the hypothesis; with the hypothesis
        # check bypassed, color 0 restricted to V minus D = {1, 2, 3} reads
        # sigma2 0, below the inherited bound 1, in the real reduced check.
        monkeypatch.setattr(rainbowpath.solver, "check_hypothesis", lambda *args: True)
        n = 5
        full = complete_collection(n).adjacency[0]
        coll = GraphCollection(n, ((0,) * n,) + (full,) * (n - 1))
        path = write_instance(tmp_path, coll, u=0, v=4)
        monkeypatch.chdir(tmp_path)
        assert main(["solve", path]) == EXIT_VIOLATION
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "sigma2 of reduced color 0 is 0 < 1" in err
        bundle_path = err.rsplit("repro bundle ", 1)[1].strip()
        data = json.loads((tmp_path / bundle_path).read_text())
        assert data["bundle"] == {"retained_color": 0, "sigma2": 0, "bound": 1}


def _with_row0(data, text):
    return {**data, "rows": [text] + data["rows"][1:]}


# complete_collection(5) encodes every color as "1e1d1b170f": two hex digits
# per vertex, vertex 0 first.
ROW_DEFECTS = {
    "short": (lambda d: _with_row0(d, "1e1d1b170"), "lowercase hex"),
    "uppercase": (lambda d: _with_row0(d, "1E1D1B170F"), "lowercase hex"),
    "0x": (lambda d: _with_row0(d, "0x1d1b170f"), "lowercase hex"),
    "underscore": (lambda d: _with_row0(d, "1e1d1b17_f"), "lowercase hex"),
    "whitespace": (lambda d: _with_row0(d, "1e1d1b17 f"), "lowercase hex"),
    "non-string": (lambda d: _with_row0(d, 0x1E1D1B170F), "lowercase hex"),
    "bit-beyond-n": (lambda d: _with_row0(d, "3e1d1b170f"), "outside"),
    "loop": (lambda d: _with_row0(d, "1f1d1b170f"), "loop at vertex 0"),
    "asymmetric": (lambda d: _with_row0(d, "1c1d1b170f"), "not symmetric"),
    "m-mismatch": (lambda d: {**d, "m": 6}, "m=6"),
    "rows-not-list": (lambda d: {**d, "rows": "1e1d1b170f"}, "m=5"),
    "both-keys": (lambda d: {**d, "graphs": [[]] * 5}, "exactly one"),
    "neither-key": (lambda d: {k: v for k, v in d.items() if k != "rows"}, "exactly one"),
}


def _strict_int_base():
    forest = RainbowLinearForest.from_paths([(5, 6)], {(5, 6): 6})
    return instance_to_dict(complete_collection(8), forest, 0, 1, 1)


def _with_forest(data, part, value):
    return {**data, "forest": {**data["forest"], part: value}}


def _with_float_endpoint(data):
    data = edges_form(data)
    assert data["graphs"][0][0] == [0, 1]
    data["graphs"][0][0] = [0, 1.7]
    return data


# Each value reads as the valid base instance under int() coercion.
NON_INTEGERS = {
    "u-float": lambda d: {**d, "u": 0.9},
    "v-string": lambda d: {**d, "v": "1"},
    "n-float": lambda d: {**d, "n": 8.7},
    "m-float": lambda d: {**d, "m": 8.0},
    "k-bool": lambda d: {**d, "k": True},
    "forest-vertex-float": lambda d: _with_forest(d, "components", [[5.0, 6]]),
    "forest-color-string": lambda d: _with_forest(d, "colors", [[5, 6, "6"]]),
    "edge-endpoint-float": _with_float_endpoint,
}


#: Address-space limit, in bytes, of the child process that reads a huge n.
CHILD_ADDRESS_SPACE = 1536 << 20


def _child_env() -> dict[str, str]:
    """The environment of a child process that imports this checkout's package."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


class TestInputBoundary:
    @pytest.mark.parametrize("command", ["solve", "oracle"])
    @pytest.mark.parametrize("defect", list(ROW_DEFECTS))
    def test_malformed_rows_exit_two(self, tmp_path, capsys, command, defect):
        mutate, message = ROW_DEFECTS[defect]
        data = instance_to_dict(complete_collection(5), u=0, v=4)
        assert data["rows"][0] == "1e1d1b170f"
        bad = tmp_path / "bad.json"
        bad.write_text(dumps(mutate(data)))
        assert main([command, str(bad)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["solve", "oracle"])
    @pytest.mark.parametrize("defect", list(NON_INTEGERS))
    def test_non_integer_exit_two(self, tmp_path, capsys, command, defect):
        good = tmp_path / "good.json"
        good.write_text(dumps(_strict_int_base()))
        assert main([command, str(good)]) == EXIT_PATH
        bad = tmp_path / "bad.json"
        bad.write_text(dumps(NON_INTEGERS[defect](_strict_int_base())))
        capsys.readouterr()
        assert main([command, str(bad)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "must be an integer" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["solve", "oracle"])
    @pytest.mark.parametrize("forest, k, message", [
        (None, 2, "k=2 does not match the forest's 0 edges"),
        (RainbowLinearForest(((1, 2),), {(1, 2): 0}), 0, "k=0 does not match the forest's 1 edges"),
    ])
    def test_declared_k_must_match_forest(self, tmp_path, capsys, command, forest, k, message):
        bad = tmp_path / "bad.json"
        bad.write_text(dumps(instance_to_dict(complete_collection(9), forest, 0, 4, k)))
        assert main([command, str(bad)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    def test_edge_lists_and_rows_decode_alike(self, tmp_path, capsys):
        collection, forest, u, v = random_instance(GenSpec(n=13, k=3, p=0.8, seed=5))
        rows = instance_to_dict(collection, forest, u, v, 3)
        hashes, outs = [], []
        for name, data in (("rows", rows), ("edges", edges_form(rows))):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(data, sort_keys=True, indent=2))
            inst = load_instance(str(path))
            hashes.append(digest(instance_to_dict(inst.collection, inst.forest, inst.u, inst.v, inst.k)))
            out = tmp_path / f"{name}.out.json"
            assert main(["solve", str(path), "--out", str(out)]) == EXIT_PATH
            outs.append(out.read_bytes())
        capsys.readouterr()
        assert hashes == [digest(rows)] * 2
        assert outs[0] == outs[1]

    def test_dense_n100_file_is_small(self, tmp_path, capsys):
        out = tmp_path / "n100.json"
        assert main(["gen", "--n", "100", "--k", "32", "--p", "0.95", "--out", str(out)]) == 0
        capsys.readouterr()
        assert out.stat().st_size < 500_000
        assert check_hypothesis(load_instance(str(out)).collection, 32)

    @pytest.mark.parametrize("command", ["solve", "oracle"])
    @pytest.mark.parametrize("n", [10**7, 10**30])
    @pytest.mark.parametrize("form", ["rows", "graphs"])
    def test_huge_declared_n_exit_two(self, tmp_path, command, n, form):
        # Ten short rows or edge lists cannot hold n vertices.  The child caps
        # its own address space, so a decoder that allocates by n fails there
        # with a MemoryError instead of taking the machine's memory.
        data = {"n": n, "m": 10, "u": 0, "v": 1,
                form: ["00000000"] * 10 if form == "rows" else [[[0, 1]]] * 10}
        path = tmp_path / "huge.json"
        path.write_text(dumps(data))
        code = ("import resource, sys; "
                f"resource.setrlimit(resource.RLIMIT_AS, ({CHILD_ADDRESS_SPACE}, {CHILD_ADDRESS_SPACE})); "
                "from rainbowpath.cli import main; sys.exit(main(sys.argv[1:]))")
        out = subprocess.run([sys.executable, "-c", code, command, str(path)],
                             capture_output=True, text=True, env=_child_env(), timeout=60)
        assert out.returncode == EXIT_INPUT, out.stderr
        assert f"n={n} exceeds the limit" in out.stderr and "Traceback" not in out.stderr


def _fuzz_bases():
    bases = []
    for n, k, seed in ((5, 0, 0), (7, 1, 1), (8, 1, 2)):
        collection, forest, u, v = random_instance(GenSpec(n=n, k=k, p=0.8, seed=seed))
        bases.append(instance_to_dict(collection, forest, u, v, k))
    collection, _ = build_extremal("B3", 6)
    bases.append(instance_to_dict(collection, None, 0, 1, 0))
    return bases


FUZZ_BASES = _fuzz_bases()
_FUZZ_INTS = st.one_of(st.integers(-2, 12), st.sampled_from((10**7, 10**30)))
_FUZZ_VALUES = st.one_of(
    st.none(), st.booleans(), _FUZZ_INTS, st.floats(allow_nan=False), st.text(max_size=3),
    st.lists(_FUZZ_INTS, max_size=4),
)


def _edit(draw, value):
    """``value`` with one nested list entry dropped, or one integer or row digit replaced."""
    if isinstance(value, list) and value:
        i = draw(st.integers(0, len(value) - 1))
        rest = [] if draw(st.booleans()) else [_edit(draw, value[i])]
        return value[:i] + rest + value[i + 1 :]
    if isinstance(value, dict) and value:
        key = draw(st.sampled_from(sorted(value)))
        return {**value, key: _edit(draw, value[key])}
    if isinstance(value, str) and value:
        i = draw(st.integers(0, len(value) - 1))
        return value[:i] + draw(st.sampled_from("0123456789abcdefA x")) + value[i + 1 :]
    return draw(_FUZZ_INTS)


@st.composite
def mutated_instances(draw):
    """A base instance in either form with one to three keys dropped, set or edited."""
    data = json.loads(dumps(draw(st.sampled_from(FUZZ_BASES))))
    if draw(st.booleans()):
        data = edges_form(data)
    for _ in range(draw(st.integers(1, 3))):
        key = draw(st.sampled_from(("n", "m", "u", "v", "k", "forest", "rows", "graphs")))
        action = draw(st.sampled_from(("drop", "set", "edit")))
        if action == "drop":
            data.pop(key, None)
        elif action == "set" or key not in data:
            data[key] = draw(_FUZZ_VALUES)
        else:
            data[key] = _edit(draw, data[key])
    return data


@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutated_instances(), st.sampled_from((
    ["solve"], ["oracle", "--budget-nodes", "20000"], ["solve", "--corollary"],
)))
def test_mutated_instance_gets_a_documented_exit_code(tmp_path, data, command):
    # Exit 1 would mean a suite violation, and an exception a traceback.
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(data))
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = main([*command, str(path)])
    assert code in (EXIT_PATH, EXIT_INPUT, EXIT_EXTREMAL, EXIT_UNKNOWN)


class TestRepeatedMain:
    """Several ``main`` calls in one process: no call leaks into the next."""

    def test_trace_does_not_carry_over(self, tmp_path, capsys):
        path = write_instance(tmp_path, complete_collection(5), u=0, v=4)
        assert main(["solve", path, "--trace"]) == EXIT_PATH
        assert "trace" in json.loads(capsys.readouterr().out)
        assert main(["solve", path]) == EXIT_PATH
        assert "trace" not in json.loads(capsys.readouterr().out)

    def test_gen_options_do_not_carry_over(self, capsys):
        assert main(["gen", "--n", "8"]) == EXIT_PATH
        bare = capsys.readouterr().out
        assert main(["gen", "--n", "8", "--seed", "5", "--p", "0.9"]) == EXIT_PATH
        seeded = capsys.readouterr().out
        assert main(["gen", "--n", "8"]) == EXIT_PATH
        assert capsys.readouterr().out == bare != seeded

    @pytest.mark.parametrize("bad_argv", [["solve"], ["gen", "--n", "x"], ["solve", "--no-such-flag", "f"]])
    def test_usage_error_leaves_next_call_alone(self, tmp_path, capsys, bad_argv):
        path = write_instance(tmp_path, complete_collection(6), u=0, v=5)
        outs = [tmp_path / "first.json", tmp_path / "second.json"]
        assert main(["solve", path, "--trace", "--out", str(outs[0])]) == EXIT_PATH
        with pytest.raises(SystemExit) as exc:
            main(bad_argv)
        assert exc.value.code == 2
        assert main(["solve", path, "--trace", "--out", str(outs[1])]) == EXIT_PATH
        capsys.readouterr()
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_rebound_command_is_the_one_that_runs(self, tmp_path, capsys, monkeypatch):
        from rainbowpath import cli as climod

        path = write_instance(tmp_path, complete_collection(5), u=0, v=4)
        assert main(["solve", path]) == EXIT_PATH
        calls = []
        monkeypatch.setattr(climod, "cmd_solve", lambda args: calls.append(args.instance) or 7)
        assert main(["solve", path]) == 7
        assert calls == [path]


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

    def test_nan_time_limit_exit_two(self, tmp_path, capsys):
        path = write_instance(tmp_path, complete_collection(6), u=0, v=5)
        assert main(["oracle", path, "--budget-seconds", "nan"]) == EXIT_INPUT
        assert "budget limits must be positive" in capsys.readouterr().err


class TestGenCommand:
    @pytest.mark.parametrize("n", ["2", "3"])
    def test_size_bound_names_no_override(self, capsys, n):
        # No command-line option lifts the bound, so the message names none.
        assert main(["gen", "--n", n]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "n >= 3k+4" in captured.err
        assert "oracle_only" not in captured.err

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

    @staticmethod
    def _counted_digests(monkeypatch):
        import rainbowpath.serialize as serialize

        calls, digest = [], serialize.digest
        monkeypatch.setattr(serialize, "digest", lambda data: calls.append(1) or digest(data))
        return calls

    def test_no_instance_hash_without_sidecar(self, tmp_path, capsys, monkeypatch):
        calls = self._counted_digests(monkeypatch)
        assert main(["gen", "--n", "12", "--out", str(tmp_path / "x.json")]) == EXIT_PATH
        capsys.readouterr()
        assert calls == []

    # The sidecars as written when every gen call hashed its instance.
    @pytest.mark.parametrize("argv, text", [
        (["--n", "12"],
         '{\n  "instance_hash": "1565ed466c76edfa",\n  "k": 0,\n  "model": "uniform_supergraph",\n'
         '  "n": 12,\n  "p": 0.9,\n  "seed": 0\n}'),
        (["--n", "13", "--k", "2", "--p", "0.7", "--seed", "5"],
         '{\n  "instance_hash": "a9067f897401ca3e",\n  "k": 2,\n  "model": "uniform_supergraph",\n'
         '  "n": 13,\n  "p": 0.7,\n  "seed": 5\n}'),
    ])
    def test_sidecar_bytes_kept(self, tmp_path, capsys, monkeypatch, argv, text):
        calls = self._counted_digests(monkeypatch)
        meta = tmp_path / "meta.json"
        assert main(["gen", *argv, "--out", str(tmp_path / "x.json"), "--meta-out", str(meta)]) == EXIT_PATH
        capsys.readouterr()
        assert meta.read_text() == text and calls == [1]

    def test_kind_with_metadata(self, tmp_path, capsys):
        out = tmp_path / "b3.json"
        meta = tmp_path / "b3.meta.json"
        main(["gen", "--n", "6", "--kind", "B3", "--out", str(out),
              "--meta-out", str(meta)])
        assert capsys.readouterr().out == out.read_text()
        sidecar = json.loads(meta.read_text())
        assert sidecar["certificate"]["kind"] == "B3"
        instance = load_instance(str(out))
        assert instance.u == 0 and instance.v == 1

    @pytest.mark.parametrize("extra", [[], ["--kind", "B3"]])
    def test_writes_only_what_solve_reads(self, tmp_path, capsys, extra):
        # Past MAX_VERTICES gen refuses before generating, as solve would
        # refuse the file.
        out = tmp_path / "big.json"
        assert main(["gen", "--n", "1025", *extra, "--out", str(out)]) == EXIT_INPUT
        assert "n=1025 exceeds the limit" in capsys.readouterr().err and not out.exists()


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

    @pytest.mark.parametrize("argv, counts, flipped", [
        # Record 16 is a B2 certificate: the extremal branch.
        (["--p", "0", "--n-min", "5", "--n-max", "8", "--count", "17"],
         {"path": 16, "extremal": 1}, 16),
        # A blocked pair at n = 5: the corollary's cycle branch.
        (["--mode", "corollary", "--p", "0", "--n-min", "5", "--n-max", "5", "--count", "1"],
         {"cycle": 1}, 0),
    ])
    def test_certificate_branches_revalidate(self, tmp_path, capsys, argv, counts, flipped):
        report = tmp_path / "report.jsonl"
        assert main(["verify", *argv, "--out", str(report)]) == EXIT_PATH
        capsys.readouterr()
        _, summary = load_report(str(report))
        assert summary["counts"] == counts
        assert revalidate_report(str(report))
        lines = report.read_text().splitlines()
        rec = json.loads(lines[flipped])
        assert rec["outcome"] in ("extremal", "cycle")
        rec["ok"] = not rec["ok"]
        lines[flipped] = json.dumps(rec)
        report.write_text("\n".join(lines) + "\n")
        assert revalidate_report(str(report)) is False

    def test_extremal_record_matches_solve_command(self, tmp_path, capsys):
        # Record 16 blocks a bare pair (k = 0): the certificate verify records
        # is the one `solve` prints for the rebuilt instance file.
        report = tmp_path / "report.jsonl"
        assert main(["verify", "--p", "0", "--n-min", "5", "--n-max", "8", "--count", "17",
                     "--out", str(report)]) == EXIT_PATH
        rec = load_report(str(report))[0][16]
        assert rec["k"] == 0 and rec["outcome"] == "extremal"
        collection, forest, u, v = _suite_instance(rec["n"], rec["k"], rec["seed"], rec["p"])
        path = write_instance(tmp_path, collection, forest, u, v, rec["k"])
        capsys.readouterr()
        assert main(["solve", path]) == EXIT_EXTREMAL
        printed = json.loads(capsys.readouterr().out)["certificate"]
        assert printed["kind"] == "B2" and rec["certificate"] == printed

    def test_corollary_paths_must_join_their_own_pairs(self, tmp_path, capsys, monkeypatch):
        # Every path is valid, but each is filed under the next pair's key.
        from rainbowpath import cli as climod
        real = climod.hamiltonian_or_connected

        def misfiled(collection):
            result = real(collection)
            pairs = list(result.paths)
            return replace(result, paths={pairs[i - 1]: result.paths[pair]
                                          for i, pair in enumerate(pairs)})

        monkeypatch.setattr(climod, "hamiltonian_or_connected", misfiled)
        report = tmp_path / "report.jsonl"
        rc = main(["verify", "--mode", "corollary", "--count", "4", "--n-min", "6",
                   "--n-max", "7", "--k-list", "0", "--out", str(report),
                   "--bundle-prefix", str(tmp_path / "violation")])
        capsys.readouterr()
        assert rc == EXIT_VIOLATION
        records, summary = load_report(str(report))
        assert summary["counts"] == {"connected": 4} and summary["failures"] == 4
        assert all(rec["pair_count"] == rec["n"] * (rec["n"] - 1) // 2 for rec in records)

    def test_solver_error_becomes_a_failing_record(self, tmp_path, capsys, monkeypatch):
        from rainbowpath import cli as climod

        def broken_solve(collection, forest, u, v, k=None):
            raise InternalError("injected solver fault")

        monkeypatch.setattr(climod, "solve", broken_solve)
        report = tmp_path / "r.jsonl"
        rc = main(["verify", "--count", "2", "--seed", "1", "--out", str(report),
                   "--bundle-prefix", str(tmp_path / "violation")])
        assert rc == EXIT_VIOLATION
        assert "VIOLATION: 2 failing records" in capsys.readouterr().err
        records, summary = load_report(str(report))
        assert summary["counts"] == {"error": 2}
        for rec in records:
            assert (rec["outcome"], rec["ok"], rec["error"]) == ("error", False, "injected solver fault")
            assert digest(rec["instance"]) == rec["instance_hash"]
        assert len(list(tmp_path.glob("violation-*.json"))) == 1

    def test_report_goes_to_stdout_without_out(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["verify", "--count", "3", "--seed", "5"]) == EXIT_PATH
        rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [row["type"] for row in rows] == ["record"] * 3 + ["summary"]
        assert rows[-1]["total"] == 3 and rows[-1]["failures"] == 0
        assert list(tmp_path.iterdir()) == []

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

    @pytest.mark.parametrize("k", [0, 1])
    def test_clean_report_revalidates(self, tmp_path, capsys, k):
        # Sweep records carry p, and k = 1 at n = 5 passes only with the
        # sweep's oracle_only setting.
        report = tmp_path / "sweep.jsonl"
        rc = main(["sweep", "--samples", "6", "--k", str(k), "--n-min", "5", "--n-max", "7",
                   "--out", str(report)])
        capsys.readouterr()
        assert rc == EXIT_PATH
        records, _ = load_report(str(report))
        assert all(rec["p"] == 0.7 and "certificate" in rec for rec in records)
        assert revalidate_report(str(report))

    def test_out_of_range_certificate_fails_revalidation(self, tmp_path, capsys):
        report = tmp_path / "sweep.jsonl"
        main(["sweep", "--samples", "2", "--out", str(report)])
        capsys.readouterr()
        lines = report.read_text().splitlines()
        rec = json.loads(lines[0])
        rec["certificate"] = {"type": "extremal", "kind": "B2", "X": [], "Y": [], "pair": [0, 99]}
        report.write_text("\n".join([json.dumps(rec)] + lines[1:]) + "\n")
        assert revalidate_report(str(report)) is False

    def test_malformed_certificate_line_is_an_input_error(self, tmp_path, capsys):
        report = tmp_path / "sweep.jsonl"
        main(["sweep", "--samples", "2", "--out", str(report)])
        capsys.readouterr()
        lines = report.read_text().splitlines()
        rec = json.loads(lines[0])
        rec["certificate"] = [1]
        report.write_text("\n".join([json.dumps(rec)] + lines[1:]) + "\n")
        with pytest.raises(InputError, match="a certificate must be a JSON object"):
            revalidate_report(str(report))

    def test_below_three_vertices_exit_two(self, tmp_path, capsys, monkeypatch):
        # Two vertices have no Hamiltonian cycle: every sample would be a candidate.
        monkeypatch.chdir(tmp_path)
        report = tmp_path / "sweep.jsonl"
        rc = main(["sweep", "--samples", "2", "--n-min", "2", "--n-max", "2", "--out", str(report)])
        assert rc == EXIT_INPUT
        assert "a Hamiltonian cycle needs n >= 3, got n=2" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_candidate_costs_one_oracle_call(self, tmp_path, capsys, monkeypatch):
        # NotFound is a finished, deterministic search: the record goes
        # straight to minimization, with no second oracle run first.
        from rainbowpath import cli as climod
        from rainbowpath.oracle import NOT_FOUND, OracleResult

        calls = []
        monkeypatch.setattr(
            climod, "exact_rainbow_ham_cycle",
            lambda collection, budget=None: calls.append(budget) or OracleResult(NOT_FOUND),
        )
        before_minimize = []
        monkeypatch.setattr(
            climod, "minimize_counterexample",
            lambda collection, k, budget: before_minimize.append(len(calls)) or collection,
        )
        monkeypatch.chdir(tmp_path)
        report = tmp_path / "sweep.jsonl"
        rc = main(["sweep", "--samples", "1", "--out", str(report)])
        capsys.readouterr()
        assert rc == EXIT_EXTREMAL
        assert before_minimize == [1]
        records, summary = load_report(str(report))
        assert summary["candidates"] == 1
        assert records[0]["candidate"] and "refuted_on_recheck" not in records[0]

    def test_exhausted_budget_exit_twenty(self, tmp_path, capsys):
        # One node cannot close a cycle: every row is Unknown, and Unknown
        # rows are failures of the run, not candidates.
        report = tmp_path / "sweep.jsonl"
        rc = main(["sweep", "--samples", "2", "--budget-nodes", "1", "--out", str(report)])
        assert rc == EXIT_UNKNOWN
        assert capsys.readouterr().err == "2 unknown rows, 2 failures\n"
        records, summary = load_report(str(report))
        assert (summary["unknown"], summary["found"], summary["candidates"]) == (2, 0, 0)
        assert [(rec["outcome"], rec["ok"]) for rec in records] == [(UNKNOWN, False)] * 2

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


class TestSuiteArguments:
    @pytest.mark.parametrize("argv, message", [
        (["verify", "--count", "2", "--n-min", "9", "--n-max", "8"], "--n-max 8 is below --n-min 9"),
        (["sweep", "--samples", "2", "--n-min", "9", "--n-max", "8"], "--n-max 8 is below --n-min 9"),
        (["sweep", "--samples", "2", "--n-min", "9", "--n-max", "7"], "--n-max 7 is below --n-min 9"),
        (["verify", "--count", "2", "--k-list", "a"], "--k-list must be comma-separated integers"),
        (["sweep", "--k", "5", "--n-min", "5", "--n-max", "5", "--samples", "2"],
         "k=5 leaves no compatible pair for a k-edge forest; need n >= k+2, got n=5"),
        (["gen", "--n", "8", "--p", "1.5"], "p=1.5 is not a probability in [0, 1]"),
        (["gen", "--n", "8", "--flips", "-1", "--model", "perturbed_extremal"],
         "flips=-1 must be >= 0"),
        (["gen", "--n", "8", "--kind", "B3", "--p", "1.5", "--flips", "-3", "--model", "identical",
          "--seed", "4"], "--model, --flips, --p, --seed apply only to the random models"),
        (["gen", "--n", "8", "--ell", "3"], "--ell applies only with --kind"),
        (["gen", "--n", "8", "--kind", "B3", "--k", "2"], "B3 embeds no forest, so k must be 0"),
        (["gen", "--n", "10", "--k", "1", "--model", "perturbed_extremal", "--extremal-kind", "B3"],
         "B3 embeds no forest, so k must be 0, got k=1"),
        (["gen", "--n", "8", "--model", "identical", "--p", "0.5", "--flips", "3",
          "--extremal-kind", "B2"], "the identical model does not read --extremal-kind, --flips, --p"),
        (["gen", "--n", "8", "--extremal-kind", "B3"],
         "the uniform_supergraph model does not read --extremal-kind"),
        (["gen", "--n", "8", "--model", "perturbed_extremal", "--p", "0.2"],
         "the perturbed_extremal model does not read --p"),
    ])
    def test_bad_range_or_list_exit_two(self, tmp_path, capsys, monkeypatch, argv, message):
        monkeypatch.chdir(tmp_path)
        report = tmp_path / "report.jsonl"
        assert main([*argv, "--out", str(report)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not report.exists()


_K3 = instance_to_dict(complete_collection(3), u=0, v=2)


# A "solve" entry carries the instance file's JSON in place of its path.
@pytest.mark.parametrize("argv, message", [
    (["gen", "--kind", "A2", "--n", "1"], "A2 needs n >= 2"),
    (["gen", "--kind", "A2", "--n", "6", "--ell", "6"], "ell=6 out of range [1,5]"),
    (["gen", "--kind", "A3", "--n", "5"], "A3 needs even n >= 4"),
    (["gen", "--kind", "B2", "--n", "3"], "B2 needs n >= 4"),
    (["gen", "--kind", "B2", "--n", "8", "--ell", "6"], "ell=6 out of range [1,5]"),
    (["gen", "--kind", "C2", "--n", "5", "--k", "2"], "C2 needs n >= k+4, got n=5, k=2"),
    (["gen", "--kind", "C2", "--n", "8", "--k", "2", "--ell", "4"], "ell=4 out of range [1,3]"),
    (["gen", "--kind", "C3", "--n", "8", "--k", "2"],
     "C3 needs n >= 3k+4 so the pair stays solvable, got n=8, k=2"),
    (["gen", "--kind", "dirac_control", "--n", "2"], "dirac_control needs n >= 3"),
    (["gen", "--n", "1"], "need n >= 2"),
    (["gen", "--n", "10", "--k", "-1"], "need k >= 0"),
    (["solve", {"n": 0, "m": 0, "graphs": []}], "need at least one vertex, got 0"),
    (["solve", {"n": 0, "m": 0, "rows": []}], "need at least one vertex, got 0"),
    (["solve", {"n": 3, "m": 1, "graphs": [[[0, 1], [1, 0]]]}], "duplicate edge (0,1) in color 0"),
    (["solve", {"n": 3, "m": 1, "graphs": [[[0, 5]]]}], "edge (0,5) out of range in color 0"),
    (["solve", [1, 2]], "an instance must be a JSON object"),
    (["solve", {**_K3, "forest": {"components": [[]], "colors": []}}],
     "malformed forest: empty component"),
    (["solve", {**_K3, "forest": {"components": [[0, 1, 0]], "colors": [[0, 1, 0]]}}],
     "malformed forest: component (0, 1, 0) repeats a vertex"),
])
def test_input_check_exits_two_with_its_line(tmp_path, capsys, argv, message):
    if argv[0] == "solve":
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(argv[1]))
        argv = ["solve", str(path)]
    else:
        argv = [*argv, "--out", str(tmp_path / "out.json")]
    assert main(argv) == EXIT_INPUT
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"input error: {message}\n")


@pytest.mark.parametrize("argv", [
    ["solve", "{inst}", "--out", "{dir}"],
    ["oracle", "{inst}", "--out", "{dir}"],
    ["gen", "--n", "6", "--out", "{dir}"],
    ["gen", "--n", "6", "--meta-out", "{dir}"],
    ["gen", "--n", "6", "--out", "{dir}/missing/g.json"],
    ["verify", "--count", "2", "--out", "{dir}"],
    ["sweep", "--samples", "2", "--out", "{dir}"],
    # Every record fails (see below), so verify writes a repro bundle.
    ["verify", "--count", "2", "--out", "{dir}/r.jsonl", "--bundle-prefix", "{dir}/missing/v"],
])
def test_unwritable_output_exit_two(tmp_path, capsys, monkeypatch, argv):
    # A path that names a directory, or sits in a missing folder, is an input
    # error; exit 1 is kept for suite violations.
    from rainbowpath import cli as climod

    monkeypatch.setattr(climod, "verify_certificate", lambda *args: False)
    inst = write_instance(tmp_path, complete_collection(5), u=0, v=4)
    argv = [arg.format(inst=inst, dir=tmp_path) for arg in argv]
    assert main(argv) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "input error: cannot write" in err and "Traceback" not in err
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("argv", [
    ["verify", "--count", "100", "--out", "{dir}"],
    ["sweep", "--samples", "100", "--out", "{dir}/missing/s.jsonl"],
])
def test_unwritable_report_fails_before_the_suite_runs(tmp_path, capsys, monkeypatch, argv):
    from rainbowpath import cli as climod

    def no_suite(*args):
        raise AssertionError("the suite ran before --out was checked")

    monkeypatch.setattr(climod, "_run_pool", no_suite)
    assert main([arg.format(dir=tmp_path) for arg in argv]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert "input error: cannot write" in captured.err and captured.out == ""


@pytest.mark.parametrize("command", ["verify", "sweep"])
def test_failed_run_keeps_the_existing_report(tmp_path, capsys, monkeypatch, command):
    # The early check opens --out without truncating it, and a new path it
    # creates is removed again.
    from rainbowpath import cli as climod

    def failing(task):
        raise InputError("instance failed")

    monkeypatch.setattr(climod, f"_{command}_task", failing)
    count = "--count" if command == "verify" else "--samples"
    old = tmp_path / "old.jsonl"
    old.write_text("previous report\n")
    new = tmp_path / "new.jsonl"
    for report in (old, new):
        assert main([command, count, "2", "--out", str(report)]) == EXIT_INPUT
    assert "instance failed" in capsys.readouterr().err
    assert old.read_text() == "previous report\n"
    assert not new.exists()


def test_gen_with_unwritable_sidecar_prints_nothing(tmp_path, capsys):
    out = tmp_path / "g.json"
    assert main(["gen", "--n", "6", "--out", str(out), "--meta-out", str(tmp_path)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == "" and "input error: cannot write" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["verify", "--count", "12", "--n-min", "5", "--n-max", "8", "--seed", "3"],
    ["sweep", "--samples", "12", "--n-min", "5", "--n-max", "7", "--seed", "3"],
])
def test_two_workers_write_the_serial_report(tmp_path, capsys, argv):
    # The process pool folds records back in instance order.
    reports = []
    for workers in ("1", "2"):
        out = tmp_path / f"report-{workers}.jsonl"
        assert main([*argv, "--workers", workers, "--out", str(out)]) == EXIT_PATH
        records, summary = load_report(str(out))
        for rec in records:
            rec.pop("wall_time")
        reports.append((records, summary))
    capsys.readouterr()
    assert len(reports[0][0]) == 12
    assert reports[0] == reports[1]


def test_import_leaves_process_pool_unloaded():
    # Single-process commands must not pay for multiprocessing at start-up.
    code = (
        "import sys, rainbowpath.cli; "
        "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=_child_env(), check=True)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("gen_argv, mode, expected, read", [
    # A dense n=30 corollary prints far more than a pipe buffer holds, so the
    # child is still writing when the reader stops after 10 bytes.
    (["--n", "30", "--p", "0.9", "--seed", "3"], ["--corollary"], EXIT_PATH, 10),
    # The reader is gone before the child starts; the answer is extremal.
    (["--n", "12", "--kind", "B3"], [], EXIT_EXTREMAL, 0),
])
def test_closed_stdout_keeps_exit_code_and_out_file(tmp_path, capsys, gen_argv, mode, expected, read):
    instance = tmp_path / "inst.json"
    assert main(["gen", *gen_argv, "--out", str(instance)]) == EXIT_PATH
    capsys.readouterr()
    out = tmp_path / "answer.json"
    child = subprocess.Popen(
        [sys.executable, "-m", "rainbowpath.cli", "solve", str(instance), *mode, "--out", str(out)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_child_env(),
    )
    assert len(child.stdout.read(read)) == read
    child.stdout.close()
    err = child.stderr.read().decode()
    child.stderr.close()
    assert child.wait(timeout=60) == expected, err
    assert "Traceback" not in err
    data = json.loads(out.read_text())
    if mode:
        assert out.stat().st_size > 1 << 17
        assert data["outcome"] == "connected" and len(data["pairs"]) == 30 * 29 // 2
    else:
        assert data["outcome"] == "extremal"


@pytest.mark.parametrize("command", [["verify", "--count", "4"], ["sweep", "--samples", "4"]])
def test_closed_stdout_keeps_report_exit_code(tmp_path, command):
    # With no --out the report goes to stdout, here closed before the child starts.
    child = subprocess.Popen(
        [sys.executable, "-m", "rainbowpath.cli", *command, "--workers", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_child_env(), cwd=tmp_path,
    )
    child.stdout.close()
    err = child.stderr.read().decode()
    child.stderr.close()
    assert child.wait(timeout=60) == EXIT_PATH, err
    assert "Traceback" not in err


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


def _reference_minimize(collection, k, budget, search):
    """The edge-list minimization loop: every step re-lists and re-validates
    every color and recomputes every sigma2."""
    current = collection
    changed = True
    while changed:
        changed = False
        for color in range(current.n_colors):
            for edge in current.edges(color):
                lists = [current.edges(c) for c in range(current.n_colors)]
                lists[color] = [e for e in lists[color] if e != edge]
                candidate = GraphCollection.from_edge_lists(current.n_vertices, lists)
                if not check_hypothesis(candidate, k):
                    continue
                if search(candidate, budget).status != NOT_FOUND:
                    continue
                current = candidate
                changed = True
    return current


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_minimization_matches_edge_list_reference(monkeypatch, n):
    # Fault-injected NotFound: every candidate that keeps the hypothesis is
    # accepted, so the deletion order decides the result.
    from rainbowpath import cli as climod
    from rainbowpath.oracle import OracleResult

    def recording(log):
        def search(collection, budget=None):
            log.append(collection.adjacency)
            return OracleResult(NOT_FOUND)
        return search

    budget = OracleBudget(1000, 5)
    inputs = [complete_collection(n), random_instance(GenSpec(n=n, p=0.8, seed=n))[0]]
    for collection in inputs:
        expected_log, log = [], []
        expected = _reference_minimize(collection, 0, budget, recording(expected_log))
        monkeypatch.setattr(climod, "exact_rainbow_ham_cycle", recording(log))
        out = minimize_counterexample(collection, 0, budget)
        assert out.adjacency == expected.adjacency
        assert log == expected_log and len(log) > 1
        assert out.sigma2s == tuple(sigma2(out, c) for c in range(n))
