"""Timing wrappers around the package's public functions, and the per-layer
split computed from the spans they record.

A span is (name, start, end, parent, op id).  Spans live in flat arrays
while the benchmark runs and are written out at the end.  The wrappers are
installed on every ``rainbowpath`` module attribute that is bound to a
target function (``sigma2`` is bound in ``model``, ``forest``, ``solver``
and ``gen``), and removed afterwards.  A target that no longer exists is
skipped and listed as absent, so the benchmark still runs after a later
change deletes or renames it.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time
from array import array

LAYERS = ("cli", "serialize", "model", "forest", "structures", "solver", "oracle", "gen")

#: Functions wrapped per layer.  Underscored names are private helpers whose
#: time the issue-level metrics need (JSON writer, heuristic, fallback).
TARGETS = {
    "cli": ("main", "cmd_solve", "cmd_gen", "_emit"),
    "serialize": (
        "load_instance", "instance_from_dict", "instance_to_dict", "outcome_to_dict",
        "path_certificate_to_dict", "cycle_certificate_to_dict",
        "extremal_certificate_to_dict", "digest",
    ),
    "model": (
        "sigma2", "check_hypothesis", "rainbow_assignment",
        "validate_path_certificate", "validate_cycle_certificate",
    ),
    "forest": ("select_deletion_set", "reduce_collection"),
    "structures": (
        "detect_identical_split", "detect_independent_heavy_side",
        "certificate_violations", "verify_certificate", "cycle_from_extremal",
    ),
    "solver": (
        "solve", "solve_pair", "hamiltonian_or_connected", "li2_dispatch",
        "_heuristic_spanning_path", "_exhaustive_spanning_path",
        "absorb_components", "attach_terminal_component", "case2_construct",
        "case3_extend_forest", "case3_contract_and_route",
    ),
    "oracle": ("exact_rainbow_ham_path", "exact_rainbow_ham_cycle"),
    "gen": ("random_instance", "build_extremal"),
}

OP = "bench.op"
SETUP_OP = -1

CONSTRUCT = (
    "solver.absorb_components", "solver.attach_terminal_component", "solver.case2_construct",
    "solver.case3_extend_forest", "solver.case3_contract_and_route",
)
ENCODE = (
    "cli._emit", "serialize.instance_to_dict", "serialize.outcome_to_dict",
    "serialize.path_certificate_to_dict", "serialize.cycle_certificate_to_dict",
    "serialize.extremal_certificate_to_dict",
)

#: Per-layer metrics that describe one set-up; all others describe one pass.
SETUP_METRICS = ("gen.self_s", "gen.random_instance_s", "gen.build_extremal_s",
                 "serialize.encode_s", "serialize.bytes_written")

#: Every per-layer metric, with its unit; BENCHMARK.json lists the same names.
PER_LAYER_UNITS = {
    "cli.self_s": "s",
    "cli.emit_s": "s",
    "serialize.self_s": "s",
    "serialize.load_instance_s": "s",
    "serialize.instance_from_dict_s": "s",
    "serialize.encode_s": "s",
    "serialize.bytes_read": "bytes",
    "serialize.bytes_written": "bytes",
    "gen.self_s": "s",
    "gen.random_instance_s": "s",
    "gen.build_extremal_s": "s",
    "model.self_s": "s",
    "model.sigma2_calls": "count",
    "model.sigma2_s": "s",
    "model.check_hypothesis_calls": "count",
    "model.check_hypothesis_s": "s",
    "model.rainbow_assignment_calls": "count",
    "model.rainbow_assignment_s": "s",
    "model.validate_path_certificate_s": "s",
    "model.validate_cycle_certificate_s": "s",
    "forest.self_s": "s",
    "forest.reduce_collection_s": "s",
    "forest.select_deletion_set_s": "s",
    "structures.self_s": "s",
    "structures.detect_independent_heavy_side_s": "s",
    "structures.detect_identical_split_s": "s",
    "structures.certificate_violations_s": "s",
    "solver.self_s": "s",
    "solver.solve_calls": "count",
    "solver.li2_dispatch_s": "s",
    "solver.heuristic_s": "s",
    "solver.fallback_s": "s",
    "solver.fallback_calls": "count",
    "solver.heuristic_hit_ratio": "ratio",
    "solver.dispatch_A1": "count",
    "solver.dispatch_A2": "count",
    "solver.dispatch_A3": "count",
    "solver.construct_s": "s",
    "oracle.self_s": "s",
    "oracle.path_s": "s",
    "oracle.cycle_s": "s",
    "oracle.path_nodes": "count",
    "oracle.cycle_nodes": "count",
    "oracle.nodes_per_s": "1/s",
    "oracle.unknown": "count",
    "bench.self_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead_ratio": "ratio",
    "trace.ops_per_pass": "count",
    "trace.absent_targets": "count",
}


def _observe_dispatch(counters: dict, result) -> None:
    kind = getattr(result, "kind", None)
    if kind is None:
        return
    counters[f"solver.dispatch_{kind}"] = counters.get(f"solver.dispatch_{kind}", 0) + 1
    if kind == "A1":
        key = "heuristic_hits" if getattr(result, "heuristic_used", False) else "solver.fallback_calls"
        counters[key] = counters.get(key, 0) + 1


def _observe_oracle(prefix: str):
    def observe(counters: dict, result) -> None:
        counters[prefix + "_nodes"] = counters.get(prefix + "_nodes", 0) + getattr(result, "nodes", 0)
        if getattr(result, "status", None) == "unknown":
            counters["oracle.unknown"] = counters.get("oracle.unknown", 0) + 1
    return observe


OBSERVERS = {
    "solver.li2_dispatch": _observe_dispatch,
    "oracle.exact_rainbow_ham_path": _observe_oracle("oracle.path"),
    "oracle.exact_rainbow_ham_cycle": _observe_oracle("oracle.cycle"),
}


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = [OP]
        self.name_index = {OP: 0}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.nested = array("b")  # 1 when an enclosing span has the same name
        self.stack: list[int] = []
        self.active: dict[int, int] = {}
        self.current_op = SETUP_OP
        self.enabled = True  # off while the benchmark checks outputs
        self.counters: dict[str, int] = {}
        self.absent: list[str] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def open(self, name_idx: int) -> int:
        idx = len(self.start)
        self.name.append(name_idx)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.current_op)
        depth = self.active.get(name_idx, 0)
        self.nested.append(1 if depth else 0)
        self.active[name_idx] = depth + 1
        self.stack.append(idx)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()
        self.active[self.name[idx]] -= 1

    def _index(self, name: str) -> int:
        if name not in self.name_index:
            self.name_index[name] = len(self.names)
            self.names.append(name)
        return self.name_index[name]

    # -- installing ------------------------------------------------------
    def _wrap(self, full_name: str, fn):
        name_idx = self._index(full_name)
        observe = OBSERVERS.get(full_name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = tracer.open(name_idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if observe is not None and tracer.current_op != SETUP_OP:
                observe(tracer.counters, result)
            return result

        return wrapper

    def install(self) -> None:
        self.absent = []
        modules = [
            mod for key, mod in list(sys.modules.items())
            if mod is not None and (key == "rainbowpath" or key.startswith("rainbowpath."))
        ]
        for layer, names in TARGETS.items():
            try:
                home = importlib.import_module(f"rainbowpath.{layer}")
            except ImportError:
                self.absent.extend(f"{layer}.{name}" for name in names)
                continue
            for name in names:
                original = getattr(home, name, None)
                if not callable(original):
                    self.absent.append(f"{layer}.{name}")
                    continue
                wrapper = self._wrap(f"{layer}.{name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # -- results ---------------------------------------------------------
    def _aggregate(self, in_setup: bool, divisor: int):
        """Call counts, outermost inclusive times and self times per name,
        divided by ``divisor``."""
        count = len(self.start)
        child = [0.0] * count
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls: dict[str, int] = {}
        incl: dict[str, float] = {}
        self_t: dict[str, float] = {}
        op_time = top_time = 0.0
        for i in range(count):
            if (self.op[i] == SETUP_OP) != in_setup:
                continue
            name = self.names[self.name[i]]
            dur = self.end[i] - self.start[i]
            calls[name] = calls.get(name, 0) + 1
            self_t[name] = self_t.get(name, 0.0) + dur - child[i]
            if not self.nested[i]:
                incl[name] = incl.get(name, 0.0) + dur
            if name == OP:
                op_time += dur
                top_time += child[i]
        coverage = top_time / op_time if op_time else 0.0

        def scaled(totals: dict) -> dict:
            return {name: value / divisor for name, value in totals.items()}

        return scaled(calls), scaled(incl), scaled(self_t), coverage

    def summarize(self, passes: int) -> dict:
        """Per-layer figures: the set-up metrics (``gen.*`` and the write side
        of ``serialize``) for one traced set-up, all others for one pass.

        The traced passes all do identical work, so their totals are divided
        by their number and counts come out exact.
        """
        _, s_incl, s_self, _ = self._aggregate(True, 1)
        calls, incl, self_t, coverage = self._aggregate(False, passes)
        layer_self = {layer: 0.0 for layer in LAYERS}
        for name, value in self_t.items():
            layer = name.split(".", 1)[0]
            if layer in layer_self:
                layer_self[layer] += value
        counters = {k: v / passes for k, v in self.counters.items()}
        a1 = counters.get("solver.dispatch_A1", 0)
        oracle_time = incl.get("oracle.exact_rainbow_ham_path", 0.0) + incl.get("oracle.exact_rainbow_ham_cycle", 0.0)
        oracle_nodes = counters.get("oracle.path_nodes", 0) + counters.get("oracle.cycle_nodes", 0)
        out = {f"{layer}.self_s": value for layer, value in layer_self.items()}
        out.update({
            "cli.emit_s": incl.get("cli._emit", 0.0),
            "serialize.load_instance_s": incl.get("serialize.load_instance", 0.0),
            "serialize.instance_from_dict_s": incl.get("serialize.instance_from_dict", 0.0),
            "serialize.encode_s": sum(s_incl.get(n, 0.0) for n in ENCODE),
            "gen.self_s": sum(v for n, v in s_self.items() if n.startswith("gen.")),
            "gen.random_instance_s": s_incl.get("gen.random_instance", 0.0),
            "gen.build_extremal_s": s_incl.get("gen.build_extremal", 0.0),
            "model.sigma2_calls": calls.get("model.sigma2", 0.0),
            "model.sigma2_s": incl.get("model.sigma2", 0.0),
            "model.check_hypothesis_calls": calls.get("model.check_hypothesis", 0.0),
            "model.check_hypothesis_s": incl.get("model.check_hypothesis", 0.0),
            "model.rainbow_assignment_calls": calls.get("model.rainbow_assignment", 0.0),
            "model.rainbow_assignment_s": incl.get("model.rainbow_assignment", 0.0),
            "model.validate_path_certificate_s": incl.get("model.validate_path_certificate", 0.0),
            "model.validate_cycle_certificate_s": incl.get("model.validate_cycle_certificate", 0.0),
            "forest.reduce_collection_s": self_t.get("forest.reduce_collection", 0.0),
            "forest.select_deletion_set_s": incl.get("forest.select_deletion_set", 0.0),
            "structures.detect_independent_heavy_side_s": incl.get("structures.detect_independent_heavy_side", 0.0),
            "structures.detect_identical_split_s": incl.get("structures.detect_identical_split", 0.0),
            "structures.certificate_violations_s": incl.get("structures.certificate_violations", 0.0),
            "solver.solve_calls": calls.get("solver.solve", 0.0),
            # Dispatch's own code: the heuristic and the fallback, without the
            # detectors, sigma2 and matching calls they make.
            "solver.li2_dispatch_s": sum(
                self_t.get(n, 0.0) for n in
                ("solver.li2_dispatch", "solver._heuristic_spanning_path", "solver._exhaustive_spanning_path")
            ),
            "solver.heuristic_s": incl.get("solver._heuristic_spanning_path", 0.0),
            "solver.fallback_s": incl.get("solver._exhaustive_spanning_path", 0.0),
            "solver.fallback_calls": counters.get("solver.fallback_calls", 0),
            "solver.heuristic_hit_ratio": counters.get("heuristic_hits", 0) / a1 if a1 else 0.0,
            "solver.dispatch_A1": a1,
            "solver.dispatch_A2": counters.get("solver.dispatch_A2", 0),
            "solver.dispatch_A3": counters.get("solver.dispatch_A3", 0),
            "solver.construct_s": sum(incl.get(n, 0.0) for n in CONSTRUCT),
            "oracle.path_s": incl.get("oracle.exact_rainbow_ham_path", 0.0),
            "oracle.cycle_s": incl.get("oracle.exact_rainbow_ham_cycle", 0.0),
            "oracle.path_nodes": counters.get("oracle.path_nodes", 0),
            "oracle.cycle_nodes": counters.get("oracle.cycle_nodes", 0),
            "oracle.nodes_per_s": oracle_nodes / oracle_time if oracle_time else 0.0,
            "oracle.unknown": counters.get("oracle.unknown", 0),
            "bench.self_s": self_t.get(OP, 0.0),
            "trace.coverage": coverage,
            "trace.absent_targets": len(self.absent),
        })
        for key, value in out.items():
            if PER_LAYER_UNITS.get(key) == "count" and float(value).is_integer():
                out[key] = int(value)
        return out

    def write_spans(self, path: str) -> None:
        with gzip.open(path, "wt", compresslevel=1) as handle:
            handle.write("name\tstart\tend\tparent\top\n")
            for i in range(len(self.start)):
                handle.write(
                    f"{self.names[self.name[i]]}\t{self.start[i]:.9f}\t{self.end[i]:.9f}"
                    f"\t{self.parent[i]}\t{self.op[i]}\n"
                )
