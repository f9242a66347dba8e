"""Benchmark runner for rainbowpath: one workload, one seed, one process.

    python3 perfbench/run.py --workload corollary --seed 1 --seconds 20 --trace 0

Builds the workload's inputs from the seed (set-up, repeated and timed),
runs whole passes of ops closed loop until ``--seconds`` of op time have
elapsed, and checks every op's output after each pass, outside the timed
region.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs
half the time untraced and half with timing wrappers on the package's
functions, and prints the per-layer metrics.  The last line of standard
output is the result object; the line before it carries the digests, the
percentile used for ``op_p90_s``, failure reasons, raw (unscaled) figures
and per-class latencies.  Both lines, and the spans of a traced run, are
also written under ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

REFERENCE_KERNEL_S = 0.005
SAMPLE_INTERVAL_S = 0.1
WINDOW = 5  # speed samples on each side of an op


def _augment(i: int, seen: set, admissible: list, owner: dict) -> bool:
    for c in admissible[i]:
        if c not in seen:
            seen.add(c)
            if c not in owner or _augment(owner[c], seen, admissible, owner):
                owner[c] = i
                return True
    return False


def kernel() -> float:
    """Wall time of a fixed piece of pure-Python work shaped like the
    package's inner loops: bitmask scans, an augmenting-path matching over
    dicts and sets, tuple/dict churn and a small JSON round trip.

    It calls nothing in the package.  It runs with the cyclic garbage
    collector off, so that a collection its allocations would trigger (a
    walk over every object the package keeps alive) does not land in the
    kernel; it leaves no cyclic garbage behind, so none is handed on either.
    """
    gc.disable()
    try:
        return _kernel_body()
    finally:
        gc.enable()


def _kernel_body() -> float:
    t0 = time.perf_counter()
    n = 40
    rows = [0] * n
    for a in range(n):
        for b in range(a + 1, n):
            if (a * 31 + b * 17) % 5 < 3:
                rows[a] |= 1 << b
                rows[b] |= 1 << a
    degs = [bin(r).count("1") for r in rows]
    best = 2 * n
    for u in range(n):
        for v in range(u + 1, n):
            if not rows[u] >> v & 1 and degs[u] + degs[v] < best:
                best = degs[u] + degs[v]
    admissible = [[c for c in range(30) if (i * 7 + c * 13) % 5] for i in range(25)]
    owner: dict[int, int] = {}
    for i in range(25):
        _augment(i, set(), admissible, owner)
    acc, table, seq = 0, {}, []
    for i in range(8000):
        acc += (i * 2654435761) >> 7 & 1023
        seq.append((i & 63, acc & 255))
        table[i & 511] = acc
    json.loads(json.dumps([[i, i + 1] for i in range(600)]))
    return time.perf_counter() - t0


class Speed:
    """Machine speed, sampled with the reference kernel between ops.

    On a shared 2-core x86-64 host the speed of pure-Python code was seen
    to drift by a quarter over tens of seconds (neighbours on shared
    cores), and the kernel slows down with the package.  Each op is
    scaled by the mean kernel time of the samples around it, to a machine on
    which the kernel takes 5 ms: ``scaled = raw / factor``.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0
        self.last = -1.0

    def sample(self, force: bool = False) -> None:
        now = time.perf_counter()
        if force or now - self.last >= SAMPLE_INTERVAL_S:
            for _ in range(3 if force else 1):
                took = kernel()
                self.samples.append(took)
                self.spent += took
            self.last = time.perf_counter()

    def factor(self, at: int | None = None) -> float:
        """Mean kernel time over 5 ms, around sample index ``at`` or overall."""
        window = self.samples if at is None else self.samples[max(0, at - WINDOW):at + WINDOW]
        return statistics.fmean(window) / REFERENCE_KERNEL_S


class Failed:
    """An op that raised; the exception type is the failure reason."""

    def __init__(self, reason: str) -> None:
        self.reason = reason


def quantile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def class_at(labelled: list[tuple[float, str]], q: float) -> str:
    """Size class of the op(s) that ``quantile(.., q)`` reads, as a check
    that a percentile sits inside one class."""
    ordered = sorted(labelled)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    names = {ordered[lo][1], ordered[lo + 1 if pos > lo else lo][1]}
    return "|".join(sorted(names))


def _dumps(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def instance_digest(items, instance_data) -> str:
    digest = hashlib.sha256()
    for item in items:
        digest.update((_dumps(instance_data(item)) + "\n").encode())
    return digest.hexdigest()


class Phase:
    """Whole passes of ops until ``budget`` seconds of measured time pass.

    Measured time excludes the speed samples and the checks, which run
    between ops and after each pass.  Only (item, latency, speed index) is
    kept per op, so memory does not grow with the op count.
    """

    def __init__(self, workload, items, schedule, budget: float, tracer=None) -> None:
        self.ops: list[tuple[int, float, int]] = []
        self.reasons: Counter = Counter()
        self.digest = hashlib.sha256()
        self.passes = 0
        self.speed = Speed()
        clock = time.perf_counter
        self.speed.sample(force=True)
        start = clock()
        paused = 0.0
        while True:
            results = []
            for idx in schedule:
                if tracer is not None:
                    tracer.current_op = len(self.ops) + len(results)
                    root = tracer.open(0)
                t0 = clock()
                try:
                    result = workload.run(items[idx])
                except Exception as exc:  # an op failure is counted, and the run goes on
                    if not self.reasons:
                        traceback.print_exc(file=sys.stderr)
                    result = Failed(type(exc).__name__)
                t1 = clock()
                if tracer is not None:
                    tracer.close(root)
                results.append((idx, t1 - t0, result, len(self.speed.samples)))
                self.speed.sample()
            t_check = clock()
            if tracer is not None:
                tracer.enabled = False
            for idx, latency, result, at in results:
                self._check(workload, items[idx], result)
                self.ops.append((idx, latency, at))
            if tracer is not None:
                tracer.enabled = True
            paused += clock() - t_check
            self.passes += 1
            if clock() - start - paused - self.speed.spent >= budget:
                break
        self.wall = clock() - start - paused - self.speed.spent
        self.speed.sample(force=True)

    def _check(self, workload, item, result) -> None:
        if isinstance(result, Failed):
            reason, data = result.reason, None
        else:
            try:
                reason, data = workload.check(item, result)
            except Exception as exc:  # a malformed output is a failed op
                reason, data = f"check_{type(exc).__name__}", None
        if reason:
            self.reasons[reason] += 1
        if self.passes == 0:
            self.digest.update((_dumps(data) + "\n").encode())

    def scaled_latencies(self) -> list[float]:
        return [lat / self.speed.factor(at) for _, lat, at in self.ops]

    def ops_per_s(self, scaled: bool = True) -> float:
        if not scaled:
            return len(self.ops) / self.wall
        busy = sum(lat for _, lat, _ in self.ops)
        glue = max(self.wall - busy, 0.0) / self.speed.factor()
        return len(self.ops) / (sum(self.scaled_latencies()) + glue)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "rainbowpath" / "__init__.py").is_file():
        print(f"benchmark: no package source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import rainbowpath

    if Path(rainbowpath.__file__).resolve().parent != SRC / "rainbowpath":
        print(f"benchmark: imported rainbowpath from {rainbowpath.__file__}", file=sys.stderr)
        return 2
    from tracer import PER_LAYER_UNITS, SETUP_METRICS, Tracer
    from workloads import NO_ANSWER, WORKLOADS, instance_data

    if args.workload not in WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    out_dir = ROOT / ".bench_out"
    workdir = out_dir / f"work-{workload.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if args.trace else None
    try:
        # Set-up: build the inputs several times; every build must be identical.
        setup_raw, setup_scaled, fingerprints = [], [], set()
        setup_speed = Speed()
        for rep in range(workload.setup_repeats):
            traced = tracer is not None and rep == workload.setup_repeats - 1
            setup_speed.sample(force=True)
            if traced:
                tracer.install()
            t0 = time.perf_counter()
            items = workload.build(args.seed, str(workdir))
            took = time.perf_counter() - t0
            if traced:
                tracer.uninstall()
            setup_speed.sample(force=True)
            setup_raw.append(took)
            setup_scaled.append(took * REFERENCE_KERNEL_S / statistics.fmean(setup_speed.samples[-6:]))
            fingerprints.add(workload.setup_fingerprint(items) or instance_digest(items, instance_data))
        workload.prepare(items)
        schedule = workload.schedule(items)

        phase = Phase(workload, items, schedule, args.seconds / (2 if tracer else 1))
        phases = [phase]
        if tracer is not None:
            tracer.install()
            try:
                traced_phase = Phase(workload, items, schedule, args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
            phases.append(traced_phase)

        reasons = sum((p.reasons for p in phases), Counter())
        attempted = sum(len(p.ops) for p in phases)
        failed = sum(reasons.values())
        same_outputs = all(p.digest.hexdigest() == phase.digest.hexdigest() for p in phases)
        latencies = phase.scaled_latencies()
        level = workload.upper_level
        labelled = [(lat, items[idx].label) for (idx, _, _), lat in zip(phase.ops, latencies)]
        by_class: dict[str, list[float]] = {}
        for lat, label in labelled:
            by_class.setdefault(label, []).append(lat)
        raw_latencies = [lat for _, lat, _ in phase.ops]
        raw = {
            "setup_s": statistics.median(setup_raw),
            "ops_per_s": phase.ops_per_s(scaled=False),
            "op_p50_s": quantile(raw_latencies, 0.5),
            "op_p90_s": quantile(raw_latencies, level),
        }

        if tracer is None:
            values = {
                "ops_per_s": (phase.ops_per_s(), "1/s"),
                "op_p50_s": (quantile(latencies, 0.5), "s"),
                "op_p90_s": (quantile(latencies, level), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
                "setup_s": (statistics.median(setup_scaled), "s"),
            }
        else:
            layer = tracer.summarize(traced_phase.passes)
            t_factor = traced_phase.speed.factor()
            for name, unit in PER_LAYER_UNITS.items():
                if unit == "s":
                    layer[name] /= setup_speed.factor() if name in SETUP_METRICS else t_factor
            layer["oracle.nodes_per_s"] *= t_factor
            layer["serialize.bytes_read"] = workload.bytes_read_per_pass(items)
            layer["serialize.bytes_written"] = workload.bytes_written(items)
            layer["trace.overhead_ratio"] = phase.ops_per_s() / traced_phase.ops_per_s()
            layer["trace.ops_per_pass"] = len(schedule)
            values = {name: (layer[name], unit) for name, unit in PER_LAYER_UNITS.items()}

        details = {
            "workload": workload.name,
            "seed": args.seed,
            "trace": args.trace,
            "instance_digest": instance_digest(items, instance_data),
            "certificate_digest": phase.digest.hexdigest(),
            "setup_deterministic": len(fingerprints) == 1,
            "traced_outputs_match": same_outputs,
            "setup_s_raw_runs": setup_raw,
            "raw": raw,
            "speed_factor": phase.speed.factor(),
            "setup_speed_factor": setup_speed.factor(),
            "passes": phase.passes,
            "ops_per_pass": len(schedule),
            "samples": len(latencies),
            "op_p90_level": level,
            "op_p50_class": class_at(labelled, 0.5),
            "op_p90_class": class_at(labelled, level),
            "fail_ratio": failed / attempted,
            "fail_reasons": dict(reasons),
            "class_p50_s": {k: statistics.median(v) for k, v in sorted(by_class.items())},
        }
        if tracer is not None:
            details["traced_passes"] = traced_phase.passes
            details["absent_targets"] = tracer.absent
            tracer.write_spans(str(out_dir / f"{workload.name}-s{args.seed}-spans.tsv.gz"))
        correct = len(fingerprints) == 1 and same_outputs and set(reasons) <= NO_ANSWER
        result = {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()},
        }
        with open(out_dir / f"{workload.name}-s{args.seed}-t{args.trace}.json", "w") as handle:
            json.dump({"details": details, "result": result}, handle, indent=1, sort_keys=True)
        print(json.dumps(details, sort_keys=True))
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
