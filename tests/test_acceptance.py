"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the suite shares one 10,000-instance corpus between the trichotomy,
oracle-equivalence, and stage-accounting criteria.
"""

from __future__ import annotations

import hashlib
import random
import statistics
import time
from itertools import permutations

import pytest

import rainbowpath.solver
from rainbowpath import (
    FOUND,
    NOT_FOUND,
    UNKNOWN,
    GenSpec,
    GraphCollection,
    RainbowLinearForest,
    check_hypothesis,
    exact_rainbow_ham_cycle,
    exact_rainbow_ham_path,
    hamiltonian_or_connected,
    rainbow_assignment,
    random_instance,
    solve,
    solve_pair,
    validate_cycle_certificate,
    validate_path_certificate,
    verify_certificate,
)
from rainbowpath.cli import load_report, main as cli_main
from rainbowpath.gen import build_extremal
from rainbowpath.serialize import certificate_to_dict, dumps, outcome_to_dict

from .conftest import clique_edges

SUITE_SIZE = 10_000
ORACLE_MAX_N = 8
DENSITIES = (0.55, 0.7, 0.85, 0.95)


def _suite_params(i: int) -> tuple[int, int, float]:
    n = 5 + i % 5
    k = 1 if (i % 2 == 1 and n >= 7) else 0
    return n, k, DENSITIES[i % 4]


def _suite_spec(i: int) -> GenSpec:
    """Mostly uniform-supergraph draws, with a perturbed-extremal slice.

    Low flip counts keep some of the slice genuinely extremal, so the
    certificate branches run inside the random corpus too.
    """
    n, k, p = _suite_params(i)
    if i % 10 != 7:
        return GenSpec(n=n, k=k, p=p, seed=i)
    kind = ("B2", "B3", "C2", "C3")[(i // 10) % 4]
    flips = i % 4
    if kind == "B2":
        return GenSpec(n=n, k=0, model="perturbed_extremal", extremal_kind="B2",
                       flips=flips, seed=i)
    if kind == "B3":
        return GenSpec(n=6 + (i % 2) * 2, k=0, model="perturbed_extremal",
                       extremal_kind="B3", flips=flips, seed=i)
    if kind == "C2":
        k2 = 1 if n >= 7 else 0
        return GenSpec(n=n, k=k2, model="perturbed_extremal", extremal_kind="C2",
                       flips=flips, seed=i)
    n3, k3 = (7 + 2 * (i % 2), 1) if n >= 7 else (6 + (i % 2) * 2, 0)
    return GenSpec(n=n3, k=k3, model="perturbed_extremal", extremal_kind="C3",
                   flips=flips, seed=i)


def _rotation_forcing_instances():
    """Deterministic instances whose Case-1 runs must rotate.

    The spanning-path heuristic on a complete reduced collection emits the
    identity order, so blocking the lifted path ends from the dropped
    endpoint (or from u) in all three spare colors forces the degree-sum
    rotation instead of a direct splice.
    """
    out = []
    for n in (9, 12):
        base = clique_edges(range(n))
        spare = (n - 4, n - 3, n - 2)  # unused colors after a k=1 dispatch
        blocked = {(2, n - 1), tuple(sorted((n - 2, n - 1)))}
        lists = [
            [e for e in base if not (c in spare and e in blocked)] for c in range(n)
        ]
        coll = GraphCollection.from_edge_lists(n, lists)
        anchor = n // 2 + 1
        forest = RainbowLinearForest.from_paths(
            [(anchor, n - 1)], {(anchor, n - 1): n - 1}
        )
        out.append((coll, forest, 0, 1, 1))
    for n in (9, 11):
        base = clique_edges(range(n))
        spare = (n - 3, n - 2, n - 1)
        blocked = {(0, 2), (0, n - 1)}
        lists = [
            [e for e in base if not (c in spare and e in blocked)] for c in range(n)
        ]
        coll = GraphCollection.from_edge_lists(n, lists)
        out.append((coll, RainbowLinearForest.empty(), 0, 1, 0))
    return out


@pytest.fixture(scope="module")
def trichotomy_suite():
    records = []
    start = time.monotonic()
    for i in range(SUITE_SIZE):
        spec = _suite_spec(i)
        coll, forest, u, v = random_instance(spec)
        assert check_hypothesis(coll, spec.k)
        t0 = time.monotonic()
        outcome = solve(coll, forest, u, v, spec.k)
        records.append(
            {
                "index": i, "n": spec.n, "k": spec.k, "p": spec.p,
                "collection": coll, "forest": forest, "u": u, "v": v,
                "outcome": outcome, "solve_time": time.monotonic() - t0,
            }
        )
    for coll, forest, u, v, k in _rotation_forcing_instances():
        outcome = solve(coll, forest, u, v, k)
        records.append(
            {
                "index": len(records), "n": coll.n_vertices, "k": k, "p": None,
                "collection": coll, "forest": forest, "u": u, "v": v,
                "outcome": outcome, "solve_time": 0.0,
            }
        )
    elapsed = time.monotonic() - start
    print(f"\n[suite] built and solved {len(records)} instances in {elapsed:.1f}s")
    return {"records": records, "elapsed": elapsed}


def test_criterion_1_trichotomy_soundness(trichotomy_suite):
    records = trichotomy_suite["records"]
    paths = extremals = 0
    for rec in records:
        outcome = rec["outcome"]
        assert outcome.path is not None or outcome.extremal is not None
        if outcome.path is not None:
            paths += 1
            assert validate_path_certificate(
                rec["collection"], outcome.path, rec["forest"]
            ), f"instance {rec['index']}: path certificate invalid"
        else:
            extremals += 1
            assert verify_certificate(
                rec["collection"], outcome.extremal, rec["forest"]
            ), f"instance {rec['index']}: extremal certificate fails verification"
    assert trichotomy_suite["elapsed"] < 300, "suite exceeded the 5-minute budget"
    print(
        f"ACCEPTANCE 1 PASS: {len(records)} instances -> {paths} paths, "
        f"{extremals} extremal certificates, 0 validation failures, "
        f"{trichotomy_suite['elapsed']:.1f}s"
    )


def test_criterion_2_oracle_equivalence(trichotomy_suite):
    records = [r for r in trichotomy_suite["records"] if r["n"] <= ORACLE_MAX_N]
    start = time.monotonic()
    disagreements = 0
    checked = 0
    for rec in records:
        oracle = exact_rainbow_ham_path(
            rec["collection"], rec["u"], rec["v"], rec["forest"]
        )
        assert oracle.status != UNKNOWN, f"instance {rec['index']}: oracle over budget"
        solver_found = rec["outcome"].path is not None
        if solver_found != (oracle.status == FOUND):
            disagreements += 1
        checked += 1
    elapsed = time.monotonic() - start
    assert disagreements == 0
    assert elapsed < 600, "oracle pass exceeded the 10-minute budget"
    print(
        f"ACCEPTANCE 2 PASS: {checked} instances at n <= {ORACLE_MAX_N}, "
        f"0 oracle disagreements, {elapsed:.1f}s"
    )


@pytest.fixture(scope="module")
def oracle_slice(trichotomy_suite):
    """Both oracles' results on the perturbed-extremal slice at n <= 8."""
    results = []
    for rec in trichotomy_suite["records"][:SUITE_SIZE]:
        if rec["index"] % 10 != 7 or rec["n"] > ORACLE_MAX_N:
            continue
        coll = rec["collection"]
        results.append(exact_rainbow_ham_path(coll, rec["u"], rec["v"], rec["forest"]))
        results.append(exact_rainbow_ham_cycle(coll))
    return results


#: sha256 of every corpus outcome plus both oracles' statuses and certificates
#: on the perturbed-extremal slice; a refactor that changes any of them fails.
PINNED_DIGEST = "bd6aae1904aa4ede2d888d7ae911e470b69b68db7cfbf71e317c602f2abc959e"


def test_pinned_outcome_digest(trichotomy_suite, oracle_slice):
    records = trichotomy_suite["records"]
    h = hashlib.sha256()
    for rec in records:
        h.update(dumps(outcome_to_dict(rec["outcome"])).encode() + b"\n")
    for result in oracle_slice:
        cert = result.certificate
        cert_data = None if cert is None else [list(cert.order), list(cert.coloring)]
        h.update(dumps([result.status, cert_data]).encode() + b"\n")
    assert h.hexdigest() == PINNED_DIGEST
    print(f"ACCEPTANCE PIN PASS: {len(records)} outcomes and {len(oracle_slice)} oracle "
          "results match the pinned digest")


#: sha256 of the search nodes of the same oracle runs.  A change to the search
#: that keeps every answer but prunes differently moves this pin only.
PINNED_ORACLE_NODES_DIGEST = "494fa9896ac742a29094c1ea1be20715636df024c8a7b8b697b3187a1a18940c"


def test_pinned_oracle_nodes_digest(oracle_slice):
    h = hashlib.sha256(dumps([result.nodes for result in oracle_slice]).encode())
    assert h.hexdigest() == PINNED_ORACLE_NODES_DIGEST
    print(f"ACCEPTANCE NODES PIN PASS: the node counts of {len(oracle_slice)} oracle "
          "runs match the pinned digest")


#: sha256 of the path oracle on every corpus record at n <= 8 whose forest has
#: an interior component (one holding neither u nor v).  The slice pinned above
#: has endpoint components only, so this pins how the oracle threads the rest.
PINNED_ORACLE_FOREST_DIGEST = "01b935246363bfa045593f9de47ff9a35b2f6b671d502b552150b54593382d28"


def test_pinned_oracle_forest_digest(trichotomy_suite):
    h = hashlib.sha256()
    runs = 0
    for rec in trichotomy_suite["records"][:SUITE_SIZE]:
        u, v = rec["u"], rec["v"]
        if rec["n"] > ORACLE_MAX_N or not any(
            len(comp) > 1 and u not in comp and v not in comp
            for comp in rec["forest"].components
        ):
            continue
        result = exact_rainbow_ham_path(rec["collection"], u, v, rec["forest"])
        cert = result.certificate
        cert_data = None if cert is None else [list(cert.order), list(cert.coloring)]
        h.update(dumps([result.status, result.nodes, cert_data]).encode() + b"\n")
        runs += 1
    assert runs == 525
    assert h.hexdigest() == PINNED_ORACLE_FOREST_DIGEST
    print(f"ACCEPTANCE ORACLE FOREST PIN PASS: {runs} oracle results on forests with "
          "interior components match the pinned digest")


#: sha256 of ``hamiltonian_or_connected`` on seeded dense collections and the
#: canonical B2/B3 builds; the corollary's paths and cycles are pinned too.
#: The connected entries hold the paths that Pósa rotations derive from the
#: first solved pair; the cycle entries (B2 n=9, B3 n=10) predate them.
PINNED_COROLLARY_DIGEST = "7e4666caa994fb6c1656656460b60b05f4728102602ed60d56b33868b5cbd74c"


def _corollary_collections() -> list[GraphCollection]:
    colls = [
        random_instance(GenSpec(n=n, k=0, p=0.7, seed=70_000 + n))[0]
        for n in (8, 9, 10, 11, 12)
    ]
    return colls + [build_extremal(kind, n)[0] for kind, n in (("B2", 9), ("B3", 10))]


def test_pinned_corollary_digest():
    h = hashlib.sha256()
    kinds = []
    for coll in _corollary_collections():
        result = hamiltonian_or_connected(coll)
        kinds.append(result.kind)
        h.update(dumps({
            "kind": result.kind,
            "cycle": None if result.cycle is None else certificate_to_dict(result.cycle),
            "extremal": None if result.extremal is None
            else certificate_to_dict(result.extremal),
            "paths": None if result.paths is None
            else [[u, v, certificate_to_dict(c)] for (u, v), c in sorted(result.paths.items())],
        }).encode() + b"\n")
    assert h.hexdigest() == PINNED_COROLLARY_DIGEST
    print(f"ACCEPTANCE COROLLARY PIN PASS: {len(kinds)} results ({', '.join(kinds)}) "
          "match the pinned digest")


def test_criterion_3_extremal_negatives():
    checked = 0
    for kind, sizes in (("B3", (4, 6, 8)), ("B2", (4, 5, 6, 7, 8))):
        for n in sizes:
            coll, meta = build_extremal(kind, n)
            u, v = meta["pair"]
            oracle = exact_rainbow_ham_path(coll, u, v)
            assert oracle.status == NOT_FOUND, f"{kind} n={n}: pair not blocked"
            out = solve_pair(coll, u, v)
            assert out.extremal is not None, f"{kind} n={n}: no certificate"
            got = out.extremal.kind
            if got != kind:
                # At n=4 both blocking structures hold simultaneously on the
                # canonical builds (the reduced two-vertex collection is at
                # once an identical split and a heavy independent side), so
                # the tag is genuinely ambiguous there.  Both certificates
                # must then verify against the instance.
                assert n == 4 and {got, kind} == {"B2", "B3"}, (
                    f"{kind} n={n}: solver returned {got}"
                )
                assert verify_certificate(coll, meta["certificate"])
            assert verify_certificate(coll, out.extremal)
            checked += 1
    print(f"ACCEPTANCE 3 PASS: {checked} canonical blocked pairs, oracle NotFound "
          "and matching certificates on all")


def test_criterion_4_cycle_or_connected():
    rng_sizes = [5, 6, 7, 8]
    cycles = connected = 0
    start = time.monotonic()
    for i in range(1000):
        n = rng_sizes[i % 4]
        coll, _forest, _u, _v = random_instance(
            GenSpec(n=n, k=0, p=DENSITIES[i % 4], seed=50_000 + i)
        )
        result = hamiltonian_or_connected(coll)
        if result.cycle is not None:
            cycles += 1
            assert validate_cycle_certificate(coll, result.cycle)
            assert exact_rainbow_ham_cycle(coll).status == FOUND
        else:
            connected += 1
            assert len(result.paths) == n * (n - 1) // 2
            for (u, v), cert in result.paths.items():
                assert cert.order[0] == u and cert.order[-1] == v
                assert validate_path_certificate(coll, cert)
    # Canonical blocked families drive the extremal branch deterministically.
    extremal_cases = 0
    for kind, sizes in (("B2", (4, 5, 6, 7, 8)), ("B3", (4, 6, 8))):
        for n in sizes:
            coll, _ = build_extremal(kind, n)
            result = hamiltonian_or_connected(coll)
            assert result.cycle is not None
            assert validate_cycle_certificate(coll, result.cycle)
            assert exact_rainbow_ham_cycle(coll).status == FOUND
            extremal_cases += 1
    elapsed = time.monotonic() - start
    print(
        f"ACCEPTANCE 4 PASS: 1000 random collections -> {cycles} cycles, "
        f"{connected} fully connected; {extremal_cases} canonical extremal cases "
        f"all oracle-confirmed, {elapsed:.1f}s"
    )


def test_criterion_5_dirac_control():
    for n in (5, 7, 9):
        coll, meta = build_extremal("dirac_control", n)
        assert not check_hypothesis(coll, 0), f"n={n}: control unexpectedly passes"
        result = exact_rainbow_ham_cycle(coll)
        assert result.status == NOT_FOUND, f"n={n}: control has a cycle"
    print("ACCEPTANCE 5 PASS: sharp bipartite controls at n=5,7,9 have no "
          "rainbow Hamiltonian cycle and fail the degree-sum bound")


def test_criterion_6_stage_accounting(trichotomy_suite):
    case1 = [
        rec for rec in trichotomy_suite["records"]
        if any(t.get("stage") == "dispatch" and t.get("result") == "A1"
               for t in rec["outcome"].trace)
    ]
    assert len(case1) >= 1000, f"only {len(case1)} spanning-path traces collected"
    rotations = 0
    violations = 0
    for rec in case1:
        n, k = rec["n"], rec["k"]
        for t in rec["outcome"].trace:
            stage = t.get("stage")
            if stage not in ("absorb", "attach_u", "attach_v"):
                continue
            if t.get("mode") == "rotation":
                rotations += 1
            g = t["forest_edges_on_path"]
            if stage == "absorb":
                if t["unused_after"] != 3 or t["length_after"] != n - k - 2 + g:
                    violations += 1
            elif stage == "attach_u":
                if t["unused_after"] != 2 or t["length_after"] != n - k - 1 + g:
                    violations += 1
            else:
                if t["length_after"] != n:
                    violations += 1
    assert violations == 0
    assert rotations >= 1, "no rotation exercised; forcing instances missing"
    print(
        f"ACCEPTANCE 6 PASS: {len(case1)} spanning-path traces, {rotations} "
        "rotations, 0 stage-accounting violations (spare colors 3/3/2, exact "
        "lengths, no forest-edge slides)"
    )


def test_criterion_7_rainbow_assignment_exhaustive():
    rng = random.Random(77)
    checked = agreements = 0
    for _ in range(500):
        n = rng.randint(4, 7)
        m = rng.randint(3, 8)
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        lists = [
            [e for e in pairs if rng.random() < rng.choice((0.3, 0.6, 0.9))]
            for _ in range(m)
        ]
        coll = GraphCollection.from_edge_lists(n, lists)
        size = rng.randint(1, min(8, len(pairs)))
        query = rng.sample(pairs, size)
        got = rainbow_assignment(coll, query)
        brute = False
        for combo in permutations(range(m), size):
            if all(coll.has_edge(c, a, b) for (a, b), c in zip(query, combo)):
                brute = True
                break
        if (got is not None) == brute:
            agreements += 1
        if got is not None:
            assert len(set(got.values())) == size
            assert all(coll.has_edge(c, a, b) for (a, b), c in got.items())
        checked += 1
    assert agreements == checked == 500
    print("ACCEPTANCE 7 PASS: 500 matching-vs-enumeration comparisons, "
          "0 disagreements")


def test_criterion_8_performance_envelope(monkeypatch):
    times = []
    for seed in range(100):
        coll, forest, u, v = random_instance(
            GenSpec(n=24, k=6, p=0.95, seed=90_000 + seed)
        )
        t0 = time.monotonic()
        outcome = solve(coll, forest, u, v, 6)
        times.append(time.monotonic() - t0)
        assert outcome.path is not None
        dispatch = next(t for t in outcome.trace if t.get("stage") == "dispatch")
        assert dispatch["result"] != "A1" or dispatch["heuristic"], (
            "heuristic fell through on a dense instance"
        )
    median = statistics.median(times)
    assert median < 1.0, f"median solve time {median:.3f}s exceeds 1s"
    monkeypatch.setattr(rainbowpath.solver, "_heuristic_spanning_path", lambda *a: None)
    fallback_times = []
    for seed in range(3):
        coll, forest, u, v = random_instance(
            GenSpec(n=14, k=3, p=0.9, seed=95_000 + seed)
        )
        t0 = time.monotonic()
        outcome = solve(coll, forest, u, v, 3)
        dt = time.monotonic() - t0
        fallback_times.append(dt)
        assert outcome.path is not None
        assert validate_path_certificate(coll, outcome.path, forest)
        assert dt < 30, f"fallback took {dt:.1f}s at n=14"
    print(
        f"ACCEPTANCE 8 PASS: n=24 k=6 median {median * 1000:.1f}ms over 100 seeds "
        f"(max {max(times) * 1000:.1f}ms); exhaustive fallback at n=14 max "
        f"{max(fallback_times) * 1000:.1f}ms"
    )


def test_criterion_9_question_sweep(tmp_path, capsys):
    report = tmp_path / "sweep.jsonl"
    rc = cli_main([
        "sweep", "--samples", "2000", "--n-min", "5", "--n-max", "8",
        "--seed", "12345", "--p", "0.7", "--out", str(report),
    ])
    capsys.readouterr()
    assert rc == 0, "sweep reported candidates or unknowns"
    records, summary = load_report(str(report))
    assert summary["total"] == 2000
    assert summary["candidates"] == 0
    assert summary["unknown"] == 0
    assert all(rec["ok"] for rec in records)
    assert all(rec["outcome"] == FOUND for rec in records)
    print(
        "ACCEPTANCE 9 PASS: 2000-sample evidence sweep completed, every "
        "collection has a rainbow Hamiltonian cycle, zero counterexample "
        "candidates, zero unknown rows"
    )
