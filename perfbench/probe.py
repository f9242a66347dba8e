"""One-shot scaling probe, outside the repeated workloads.

    python3 perfbench/probe.py [--seed 0]

Times one call per case and records its outcome kind, Unknown included:
dense in-memory ``solve`` at n = 24, 64, 100, 200; the all-pairs corollary
at n = 32; canonical B3 ``solve_pair`` at n = 32..44; perturbed B3
(flips = 2) at n = 10..16, six generator seeds each; and the exact cycle
search on canonical C3 at n = 9, 11, 13.  The solver's fallback budget (60 s) and the oracle's default
budget bound the slowest cases.  Prints one JSON line per case and writes
all of them to ``.bench_out/probe.json``.  Expect several minutes.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERTURBED_SEEDS = 6  # most perturbed instances never reach the fallback


def _timed(fn):
    t0 = time.perf_counter()
    try:
        result = fn()
    except Exception as exc:  # BudgetExceeded and friends are outcomes here
        return time.perf_counter() - t0, None, type(exc).__name__
    return time.perf_counter() - t0, result, None


def cases(seed: int):
    import rainbowpath.gen as gen
    import rainbowpath.oracle as oracle
    import rainbowpath.solver as solver
    from workloads import Item, check_outcome, solve_item

    def solved(item):
        def kind(out):
            reason = check_outcome(item, out.path, out.extremal)
            if reason:
                return reason
            return "path" if out.path is not None else out.extremal.kind
        return kind

    for n in (24, 64, 100, 200):
        k = (n - 4) // 3
        spec = gen.GenSpec(n=n, k=k, p=0.95, seed=seed)
        gen_s, inst, _ = _timed(lambda: gen.random_instance(spec))
        item = Item(f"dense-n{n}", *inst[:4], k=k)
        yield {"case": "dense-solve", "n": n, "k": k, "gen_s": gen_s}, lambda: solve_item(item), solved(item)

    coll, _, _, _ = gen.random_instance(gen.GenSpec(n=32, k=0, p=0.7, seed=seed))
    yield ({"case": "corollary", "n": 32}, lambda: solver.hamiltonian_or_connected(coll),
           lambda res: res.kind)

    for n in range(32, 46, 2):
        coll, meta = gen.build_extremal("B3", n)
        item = Item(f"B3-canon-n{n}", coll, None, *meta["pair"])
        yield {"case": "canonical-B3", "n": n}, lambda: solve_item(item), solved(item)

    for n in range(10, 18, 2):
        for gen_seed in range(seed, seed + PERTURBED_SEEDS):
            spec = gen.GenSpec(n=n, k=0, model="perturbed_extremal", extremal_kind="B3", flips=2,
                               seed=gen_seed)
            item = Item(f"B3-n{n}", *gen.random_instance(spec))
            yield ({"case": "perturbed-B3", "n": n, "flips": 2, "gen_seed": gen_seed},
                   lambda: solve_item(item), solved(item))

    for n in (9, 11, 13):
        coll, _ = gen.build_extremal("C3", n, 1)
        yield ({"case": "oracle-cycle-C3", "n": n, "k": 1}, lambda: oracle.exact_rainbow_ham_cycle(coll),
               lambda res: f"{res.status} nodes={res.nodes}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    src = ROOT / "src"
    if not (src / "rainbowpath" / "__init__.py").is_file():
        print(f"probe: no package source at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    rows = []
    for row, call, describe in cases(args.seed):
        seconds, result, error = _timed(call)
        row.update(seconds=seconds, outcome=error or describe(result))
        rows.append(row)
        print(json.dumps(row), flush=True)
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    with open(out / "probe.json", "w") as handle:
        json.dump({"seed": args.seed, "python": sys.version.split()[0], "cases": rows}, handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
