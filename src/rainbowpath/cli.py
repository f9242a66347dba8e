"""Command-line harness: solve/oracle on instance files, generators,
theorem verification suites, and the open-question evidence sweep.

Exit codes are fixed for scripting: 0 = path/cycle found (or suite passed),
10 = extremal certificate / cycle-oracle NotFound, 20 = budget exhausted
(Unknown), 2 = input error, 1 = suite violation.  Reports are JSON-lines:
one self-contained record per instance, then a summary row; every record
carries its generator spec and certificate so it can be re-validated on
load.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from functools import partial

from . import gen as genmod
from . import serialize
from .model import GraphCollection, InputError, InternalError, check_hypothesis
from .oracle import (
    FOUND,
    NOT_FOUND,
    UNKNOWN,
    BudgetExceeded,
    OracleBudget,
    exact_rainbow_ham_cycle,
    exact_rainbow_ham_path,
)
from .solver import hamiltonian_or_connected, solve, solve_pair
from .structures import verify_certificate

EXIT_PATH = 0
EXIT_EXTREMAL = 10
EXIT_UNKNOWN = 20
EXIT_INPUT = 2
EXIT_VIOLATION = 1


def _print(text: str) -> None:
    """Print ``text``; a reader that closes stdout early (``| head``) loses it.

    The command keeps its exit code.  Stdout then points at the null
    device, so the flush at exit cannot raise again."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _emit(data: dict, out: str | None) -> None:
    """Write ``data`` to ``out`` (when given), then print it, so a closed
    stdout cannot cost the file."""
    text = json.dumps(data, sort_keys=True, indent=2)
    if out:
        with open(out, "w") as handle:
            handle.write(text + "\n")
    _print(text)


def _write_bundle(bundle: dict, prefix: str) -> str:
    path = f"{prefix}-{serialize.digest(bundle)}.json"
    with open(path, "w") as handle:
        json.dump(bundle, handle, sort_keys=True, indent=2)
    return path


# ---------------------------------------------------------------------------
# solve / oracle subcommands
# ---------------------------------------------------------------------------

def cmd_solve(args: argparse.Namespace) -> int:
    instance = serialize.load_instance(args.instance)
    if args.corollary:
        result = hamiltonian_or_connected(instance.collection)
        if result.cycle is not None:
            _emit(
                {
                    "outcome": "cycle",
                    "certificate": serialize.certificate_to_dict(result.cycle),
                    "extremal": serialize.certificate_to_dict(result.extremal),
                },
                args.out,
            )
            return EXIT_PATH
        _emit(
            {
                "outcome": "connected",
                "pairs": {
                    f"{u},{v}": serialize.certificate_to_dict(cert)
                    for (u, v), cert in sorted(result.paths.items())
                },
            },
            args.out,
        )
        return EXIT_PATH
    if instance.u is None or instance.v is None:
        raise InputError("instance carries no (u, v) pair; pass --corollary for all pairs")
    if instance.forest.edge_count == 0:
        outcome = solve_pair(instance.collection, instance.u, instance.v)
    else:
        outcome = solve(instance.collection, instance.forest, instance.u, instance.v, instance.k)
    data = serialize.outcome_to_dict(outcome)
    if not args.trace:
        data.pop("trace", None)
    _emit(data, args.out)
    return EXIT_PATH if outcome.path is not None else EXIT_EXTREMAL


def cmd_oracle(args: argparse.Namespace) -> int:
    instance = serialize.load_instance(args.instance)
    budget = OracleBudget(node_limit=args.budget_nodes, time_limit=args.budget_seconds)
    if args.cycle:
        result = exact_rainbow_ham_cycle(instance.collection, budget)
    else:
        if instance.u is None or instance.v is None:
            raise InputError("instance carries no (u, v) pair; pass --cycle for cycles")
        result = exact_rainbow_ham_path(
            instance.collection, instance.u, instance.v, instance.forest, budget
        )
    data: dict = {"status": result.status, "nodes": result.nodes}
    if result.certificate is not None:
        data["certificate"] = serialize.certificate_to_dict(result.certificate)
    _emit(data, args.out)
    if result.status == FOUND:
        return EXIT_PATH
    if result.status == NOT_FOUND:
        return EXIT_EXTREMAL
    return EXIT_UNKNOWN


#: ``gen`` options that only the random models read; their defaults are GenSpec's.
RANDOM_MODEL_OPTIONS = ("model", "extremal_kind", "flips", "p", "seed")
#: The random-model options each model reads.
MODEL_OPTIONS = {
    "uniform_supergraph": {"model", "p", "seed"},
    "identical": {"model", "seed"},
    "perturbed_extremal": {"model", "extremal_kind", "flips", "seed"},
}


def _flags(names) -> str:
    return ", ".join("--" + name.replace("_", "-") for name in names)


def cmd_gen(args: argparse.Namespace) -> int:
    serialize.check_vertex_count(args.n)  # solve and oracle must read the file back
    given = {name: getattr(args, name) for name in RANDOM_MODEL_OPTIONS
             if getattr(args, name) is not None}
    if args.kind:
        if given:
            raise InputError(f"{_flags(given)} apply only to the random models, not with --kind")
        collection, meta = genmod.build_extremal(
            args.kind, args.n, args.k, None if args.ell is None else {"ell": args.ell}
        )
        forest = meta.get("forest")
        pair = meta.get("pair") or (None, None)
        data = serialize.instance_to_dict(
            collection, forest, pair[0], pair[1], args.k if forest else None
        )
        sidecar = {"kind": args.kind, "n": args.n, "k": args.k,
                   "sigma2_level": meta.get("sigma2_level")}
        if meta.get("certificate") is not None:
            sidecar["certificate"] = serialize.certificate_to_dict(meta["certificate"])
    else:
        if args.ell is not None:
            raise InputError("--ell applies only with --kind")
        model = given.get("model", genmod.GenSpec.model)
        unread = [name for name in given if name not in MODEL_OPTIONS[model]]
        if unread:
            raise InputError(f"the {model} model does not read {_flags(unread)}")
        spec = genmod.GenSpec(n=args.n, k=args.k, **given)
        collection, forest, u, v = genmod.random_instance(spec)
        data = serialize.instance_to_dict(collection, forest, u, v, args.k)
        sidecar = {"model": spec.model, "n": args.n, "k": args.k, "seed": spec.seed,
                   "p": spec.p, "instance_hash": serialize.digest(data)}
    _emit(data, args.out)
    if args.meta_out:
        with open(args.meta_out, "w") as handle:
            json.dump(sidecar, handle, sort_keys=True, indent=2)
    return EXIT_PATH


# ---------------------------------------------------------------------------
# verify subcommand: generated suites through the solver, oracle cross-checked
# ---------------------------------------------------------------------------

def _suite_instance(n: int, k: int, seed: int, p: float):
    """The uniform-supergraph instance a verify or sweep record names.

    ``oracle_only`` only lifts the k <= (n-4)/3 bound: the sweep needs that,
    and verify tasks always meet the bound, so one rule rebuilds every record.
    """
    return genmod.random_instance(genmod.GenSpec(
        n=n, k=k, model="uniform_supergraph", seed=seed, p=p, oracle_only=True))


def _verify_task(task: tuple) -> dict:
    (index, n, k, seed, p, oracle_max_n, mode, nodes, seconds) = task
    collection, forest, u, v = _suite_instance(n, k, seed, p)
    instance_data = serialize.instance_to_dict(collection, forest, u, v, k)
    record: dict = {
        "type": "record",
        "index": index,
        "seed": seed,
        "n": n,
        "k": k,
        "p": p,
        "instance_hash": serialize.digest(instance_data),
        "mode": mode,
    }
    start = time.monotonic()
    try:
        if mode == "corollary":
            result = hamiltonian_or_connected(collection)
            kind, cert = result.kind, result.cycle
            search = partial(exact_rainbow_ham_cycle, collection)
            if cert is None:
                paths = result.paths.values()
                record.update(pair_count=len(paths), ok=len(paths) == n * (n - 1) // 2
                              and all(verify_certificate(collection, path) for path in paths))
        else:
            outcome = solve(collection, forest, u, v, k)
            kind, cert = outcome.kind, outcome.path or outcome.extremal
            search = partial(exact_rainbow_ham_path, collection, u, v, forest)
        record["outcome"] = kind
        if cert is not None:
            ok = verify_certificate(collection, cert, forest)
            oracle_view = None
            if n <= oracle_max_n:
                # The oracle must find a path or cycle exactly when the solver
                # did; Unknown agrees with neither answer.
                oracle_view = search(OracleBudget(nodes, seconds)).status
                ok = ok and oracle_view == (NOT_FOUND if kind == "extremal" else FOUND)
            cert_data = serialize.certificate_to_dict(cert)
            record.update(certificate=cert_data, oracle_agreement=oracle_view, ok=ok)
            if mode == "solve":
                record["certificate_hash"] = serialize.digest(cert_data)
    except (InternalError, BudgetExceeded) as exc:
        record.update(outcome="error", ok=False, error=str(exc),
                      instance=instance_data)
    record["wall_time"] = round(time.monotonic() - start, 6)
    return record


def _run_pool(tasks: list[tuple], worker, workers: int) -> list[dict]:
    if workers <= 1:
        return [worker(task) for task in tasks]
    # Imported here: it loads multiprocessing, which single-process runs never need.
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, tasks, chunksize=8))


def _write_report(records: list[dict], summary: dict, out: str | None) -> None:
    lines = [json.dumps(rec, sort_keys=True) for rec in records]
    lines.append(json.dumps(summary, sort_keys=True))
    text = "\n".join(lines)
    if out:
        with open(out, "w") as handle:
            handle.write(text + "\n")
    else:
        _print(text)


def _cycled_sizes(n_min: int, n_max: int, count: int) -> list[int]:
    """n_min, n_min + 1, ..., n_max, n_min, ... for ``count`` instances."""
    if n_max < n_min:
        raise InputError(f"--n-max {n_max} is below --n-min {n_min}")
    return [n_min + i % (n_max - n_min + 1) for i in range(count)]


def cmd_verify(args: argparse.Namespace) -> int:
    try:
        k_values = [int(x) for x in args.k_list.split(",")] if args.k_list else [0]
    except ValueError:
        raise InputError(f"--k-list must be comma-separated integers, got {args.k_list!r}") from None
    tasks = []
    for i, n in enumerate(_cycled_sizes(args.n_min, args.n_max, args.count)):
        k = k_values[i % len(k_values)]
        if 3 * k > n - 4:
            k = 0
        tasks.append(
            (i, n, k, args.seed + i, args.p, args.oracle_max_n, args.mode,
             args.budget_nodes, args.budget_seconds)
        )
    records = _run_pool(tasks, _verify_task, args.workers)
    failures = [rec for rec in records if not rec.get("ok")]
    counts: dict[str, int] = {}
    for rec in records:
        counts[rec.get("outcome", "?")] = counts.get(rec.get("outcome", "?"), 0) + 1
    summary = {
        "type": "summary",
        "counts": counts,
        "total": len(records),
        "failures": len(failures),
        "config": {
            "count": args.count, "n_min": args.n_min, "n_max": args.n_max,
            "k_list": k_values, "seed": args.seed, "p": args.p,
            "oracle_max_n": args.oracle_max_n, "mode": args.mode,
        },
    }
    _write_report(records, summary, args.out)
    if failures:
        bundle_path = _write_bundle(
            {"failures": failures[:10], "config": summary["config"]},
            args.bundle_prefix,
        )
        print(f"VIOLATION: {len(failures)} failing records; repro bundle {bundle_path}",
              file=sys.stderr)
        return EXIT_VIOLATION
    print(f"verified {len(records)} instances, all passing", file=sys.stderr)
    return EXIT_PATH


# ---------------------------------------------------------------------------
# sweep subcommand: rainbow Hamiltonian cycle evidence on sigma2 >= n+k inputs
# ---------------------------------------------------------------------------

def minimize_counterexample(
    collection: GraphCollection, k: int, budget: OracleBudget
) -> GraphCollection:
    """Greedily delete edges while the hypothesis holds and the cycle stays absent.

    Every removal step re-checks the degree-sum hypothesis first, so the
    minimized instance never leaves the hypothesis region.
    """
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
                if exact_rainbow_ham_cycle(candidate, budget).status != NOT_FOUND:
                    continue
                current = candidate
                changed = True
    return current


def _sweep_task(task: tuple) -> dict:
    (index, n, k, seed, p, nodes, seconds) = task
    collection, _forest, _u, _v = _suite_instance(n, k, seed, p)
    instance_data = serialize.instance_to_dict(collection)
    record: dict = {
        "type": "record", "index": index, "seed": seed, "n": n, "k": k, "p": p,
        "instance_hash": serialize.digest(instance_data),
    }
    start = time.monotonic()
    budget = OracleBudget(nodes, seconds)
    result = exact_rainbow_ham_cycle(collection, budget)
    record["outcome"] = result.status
    if result.status == FOUND:
        record["certificate"] = serialize.certificate_to_dict(result.certificate)
        record["ok"] = verify_certificate(collection, result.certificate)
    elif result.status == NOT_FOUND:
        # Candidate counterexample.  NotFound means the search ran to the end,
        # and it is deterministic, so it is shrunk to a bundle as it stands.
        minimized = minimize_counterexample(collection, k, budget)
        record["candidate"] = True
        record["minimized_instance"] = serialize.instance_to_dict(minimized)
        record["ok"] = True
    else:
        record["ok"] = False  # Unknown rows are infrastructure failures
    record["wall_time"] = round(time.monotonic() - start, 6)
    return record


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.n_min < 3:
        raise InputError(f"a Hamiltonian cycle needs n >= 3, got n={args.n_min}")
    tasks = []
    for i, n in enumerate(_cycled_sizes(args.n_min, args.n_max, args.samples)):
        tasks.append((i, n, args.k, args.seed + i, args.p,
                      args.budget_nodes, args.budget_seconds))
    records = _run_pool(tasks, _sweep_task, args.workers)
    candidates = [rec for rec in records if rec.get("candidate")]
    unknowns = [rec for rec in records if rec.get("outcome") == UNKNOWN]
    bad = [rec for rec in records if not rec.get("ok")]
    summary = {
        "type": "summary",
        "total": len(records),
        "found": sum(1 for r in records if r.get("outcome") == FOUND),
        "candidates": len(candidates),
        "unknown": len(unknowns),
        "config": {
            "samples": args.samples, "n_min": args.n_min, "n_max": args.n_max,
            "k": args.k, "seed": args.seed, "p": args.p,
        },
    }
    _write_report(records, summary, args.out)
    if candidates:
        bundle_path = _write_bundle({"candidates": candidates}, args.bundle_prefix)
        print(f"{len(candidates)} counterexample candidates; bundle {bundle_path}",
              file=sys.stderr)
        return EXIT_EXTREMAL
    if unknowns or bad:
        print(f"{len(unknowns)} unknown rows, {len(bad)} failures", file=sys.stderr)
        return EXIT_UNKNOWN
    print(f"sweep clear: {len(records)} samples, no candidates", file=sys.stderr)
    return EXIT_PATH


def load_report(path: str) -> tuple[list[dict], dict]:
    """Read a JSONL report back into (records, summary)."""
    records = []
    summary: dict = {}
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            row = json.loads(line)
            if row.get("type") == "summary":
                summary = row
            else:
                records.append(row)
    return records, summary


def revalidate_report(path: str) -> bool:
    """Re-derive every record's pass bit: certificates must still check out.

    Each instance is rebuilt from its record's n, k, seed and p by
    ``_suite_instance``, the rule both suites build them by.
    """
    records, _summary = load_report(path)
    for rec in records:
        if "certificate" not in rec:
            continue
        collection, forest, _u, _v = _suite_instance(rec["n"], rec["k"], rec["seed"], rec["p"])
        cert = serialize.certificate_from_dict(rec["certificate"])
        if verify_certificate(collection, cert, forest) != bool(rec.get("ok")):
            return False
    return True


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_budget_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--budget-nodes", type=int, default=5_000_000)
    parser.add_argument("--budget-seconds", type=float, default=60.0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rainbow-ham",
        description="Rainbow Hamiltonian path solver and experiment harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    default_workers = int(os.environ.get("RAINBOW_HAM_WORKERS", "1"))

    p_solve = sub.add_parser("solve", help="solve one instance file")
    p_solve.add_argument("instance")
    p_solve.add_argument("--trace", action="store_true")
    p_solve.add_argument("--corollary", action="store_true",
                         help="run the all-pairs cycle-or-connected decision")
    p_solve.add_argument("--out")
    p_solve.set_defaults(func=cmd_solve)

    p_oracle = sub.add_parser("oracle", help="exact decision on one instance file")
    p_oracle.add_argument("instance")
    p_oracle.add_argument("--cycle", action="store_true")
    p_oracle.add_argument("--out")
    _add_budget_flags(p_oracle)
    p_oracle.set_defaults(func=cmd_oracle)

    p_gen = sub.add_parser("gen", help="emit an instance JSON")
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--k", type=int, default=0)
    p_gen.add_argument("--kind", choices=genmod.EXTREMAL_KINDS,
                       help="canonical extremal family instead of a random model")
    p_gen.add_argument("--ell", type=int)
    # None marks a random-model option as not given (see RANDOM_MODEL_OPTIONS).
    p_gen.add_argument("--model",
                       choices=("uniform_supergraph", "identical", "perturbed_extremal"))
    p_gen.add_argument("--extremal-kind")
    p_gen.add_argument("--flips", type=int)
    p_gen.add_argument("--p", type=float)
    p_gen.add_argument("--seed", type=int)
    p_gen.add_argument("--out")
    p_gen.add_argument("--meta-out")
    p_gen.set_defaults(func=cmd_gen)

    p_verify = sub.add_parser("verify", help="generated suite through the solver")
    p_verify.add_argument("--count", type=int, default=100)
    p_verify.add_argument("--n-min", type=int, default=5)
    p_verify.add_argument("--n-max", type=int, default=9)
    p_verify.add_argument("--k-list", default="0,1")
    p_verify.add_argument("--p", type=float, default=0.75)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--oracle-max-n", type=int, default=8)
    p_verify.add_argument("--mode", choices=("solve", "corollary"), default="solve")
    p_verify.add_argument("--workers", type=int, default=default_workers)
    p_verify.add_argument("--out")
    p_verify.add_argument("--bundle-prefix", default="rainbow-ham-violation")
    _add_budget_flags(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_sweep = sub.add_parser("sweep", help="rainbow Hamiltonian cycle evidence sweep")
    p_sweep.add_argument("--samples", type=int, default=200)
    p_sweep.add_argument("--n-min", type=int, default=5)
    p_sweep.add_argument("--n-max", type=int, default=8)
    p_sweep.add_argument("--k", type=int, default=0)
    p_sweep.add_argument("--p", type=float, default=0.7)
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--workers", type=int, default=default_workers)
    p_sweep.add_argument("--out")
    p_sweep.add_argument("--bundle-prefix", default="rainbow-ham-candidate")
    _add_budget_flags(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BudgetExceeded as exc:
        print(f"unknown (budget): {exc}", file=sys.stderr)
        return EXIT_UNKNOWN
    except InternalError as exc:
        bundle_path = _write_bundle(
            {"error": str(exc), "bundle": exc.bundle}, "rainbow-ham-internal"
        )
        print(f"internal error: {exc}; repro bundle {bundle_path}", file=sys.stderr)
        return EXIT_VIOLATION


if __name__ == "__main__":
    sys.exit(main())
