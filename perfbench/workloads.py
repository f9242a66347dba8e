"""The four benchmark workloads.

Each workload builds its items from the run seed (the timed set-up), lays
out one pass as a list of item indices, times one package call per op, and
checks every op's output afterwards.  Ops run closed loop, one at a time.

Heavy exhaustive-search inputs whose cost swings by orders of magnitude
from one generator seed to the next (perturbed B3 at n=12, C3 at n=13,
C3 at n=10-11 for the oracle) are *anchors*: fixed generator seeds, the
same in every run, so that a run's throughput does not move by whole
seconds with ``--seed``.  The seeded part of each workload is the larger
corpus of cheaper instances that go through the same code.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass

import rainbowpath.cli as cli
import rainbowpath.gen as gen
import rainbowpath.model as model
import rainbowpath.oracle as oracle
import rainbowpath.serialize as serialize
import rainbowpath.solver as solver
import rainbowpath.structures as structures
from rainbowpath.forest import RainbowLinearForest

#: Failure reasons that mean "no answer" rather than "wrong answer".
NO_ANSWER = {"BudgetExceeded", "oracle_unknown", "cli_exit_20"}


@dataclass
class Item:
    label: str  # size class, used for the per-class latency breakdown
    collection: object = None
    forest: object = None
    u: int | None = None
    v: int | None = None
    k: int = 0
    path: str | None = None  # instance file (file-solve)
    out: str | None = None  # --out file (file-solve)


def instance_data(item: Item) -> dict:
    """Format-independent description of an input, for the instance digest."""
    forest = item.forest
    return {
        "label": item.label,
        "n": item.collection.n_vertices,
        "rows": [[format(mask, "x") for mask in row] for row in item.collection.adjacency],
        "components": [list(c) for c in forest.components] if forest else [],
        "colors": sorted([u, v, c] for (u, v), c in forest.fixed_colors.items()) if forest else [],
        "u": item.u,
        "v": item.v,
        "k": item.k,
    }


def cert_data(cert) -> dict | None:
    """Canonical JSON-ready form of a path, cycle or extremal certificate."""
    if cert is None:
        return None
    if isinstance(cert, structures.ExtremalCertificate):
        return {
            "type": "extremal", "kind": cert.kind, "X": sorted(cert.X), "Y": sorted(cert.Y),
            "l": cert.ell, "pair": list(cert.pair) if cert.pair else None,
        }
    kind = "cycle" if isinstance(cert, model.CycleCertificate) else "path"
    return {"type": kind, "order": list(cert.order), "colors": list(cert.coloring)}


def _rainbow_walk(collection, order, colors, closed: bool) -> bool:
    """Independent check: a Hamiltonian path/cycle with distinct colors present."""
    n = collection.n_vertices
    if sorted(order) != list(range(n)) or len(colors) != (n if closed else n - 1):
        return False
    if len(set(colors)) != len(colors):
        return False
    adj = collection.adjacency
    return all(
        0 <= c < len(adj) and adj[c][order[i]] >> order[(i + 1) % n] & 1
        for i, c in enumerate(colors)
    )


def check_path(item: Item, cert, u=None, v=None) -> str | None:
    u = item.u if u is None else u
    v = item.v if v is None else v
    if {cert.order[0], cert.order[-1]} != {u, v}:
        return "invalid_certificate"
    if not _rainbow_walk(item.collection, cert.order, cert.coloring, closed=False):
        return "invalid_certificate"
    if not model.validate_path_certificate(item.collection, cert, item.forest):
        return "invalid_certificate"
    return None


def check_cycle(item: Item, cert) -> str | None:
    if not _rainbow_walk(item.collection, cert.order, cert.coloring, closed=True):
        return "invalid_certificate"
    if not model.validate_cycle_certificate(item.collection, cert):
        return "invalid_certificate"
    return None


def check_outcome(item: Item, path, extremal) -> str | None:
    if (path is None) == (extremal is None):
        return "invalid_certificate"
    if path is not None:
        return check_path(item, path)
    if not structures.verify_certificate(item.collection, extremal, item.forest):
        return "invalid_certificate"
    return None


def solve_item(item: Item):
    if item.k:
        return solver.solve(item.collection, item.forest, item.u, item.v, item.k)
    return solver.solve_pair(item.collection, item.u, item.v)


def _seeds(name: str, seed: int):
    rng = random.Random(f"{name}/{seed}")
    while True:
        yield rng.randrange(2**31)


def _random(label: str, seeds, **spec) -> Item:
    """One gen.random_instance item; a generator seed that fails is replaced."""
    while True:
        try:
            collection, forest, u, v = gen.random_instance(gen.GenSpec(seed=next(seeds), **spec))
        except gen.GenerationError:
            continue
        return Item(label, collection, forest, u, v, spec.get("k", 0))


def _anchor(label: str, gen_seed: int, **spec) -> Item:
    collection, forest, u, v = gen.random_instance(gen.GenSpec(seed=gen_seed, **spec))
    return Item(label, collection, forest, u, v, spec.get("k", 0))


class Workload:
    name = ""
    setup_repeats = 5
    #: Percentile reported as ``op_p90_s``.  It is fixed per workload, so
    #: that a faster or slower package, which changes the op count of a
    #: run, does not move it onto another size class.
    upper_level = 0.9

    def build(self, seed: int, workdir: str) -> list[Item]:
        raise NotImplementedError

    def prepare(self, items: list[Item]) -> None:
        """Untimed work after set-up (file-solve loads its files back)."""

    def schedule(self, items: list[Item]) -> list[int]:
        return list(range(len(items)))

    def run(self, item: Item):
        raise NotImplementedError

    def check(self, item: Item, result) -> tuple[str | None, object]:
        """(failure reason or None, canonical output for the certificate digest)."""
        raise NotImplementedError

    def setup_fingerprint(self, items: list[Item]) -> str | None:
        """What two set-up builds must agree on; None means the instance digest."""
        return None

    def bytes_written(self, items: list[Item]) -> int:
        """Instance bytes written by one set-up."""
        return 0

    def bytes_read_per_pass(self, items: list[Item]) -> int:
        """Instance bytes read by one pass."""
        return 0


class FileSolve(Workload):
    """CLI ``gen`` writes dense instances; each op is CLI ``solve`` on one file."""

    name = "file-solve"
    setup_repeats = 2  # each build writes 47 MB through the CLI: 5-8 s at 2.1 GHz
    upper_level = 0.75
    SIZES = ((64, 0), (64, 20), (100, 0), (100, 32))

    def build(self, seed, workdir):
        seeds = _seeds(self.name, seed)
        items = []
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            for n, k in self.SIZES:
                path = os.path.join(workdir, f"fs-n{n}-k{k}.json")
                rc = cli.main(["gen", "--n", str(n), "--k", str(k), "--p", "0.95",
                               "--seed", str(next(seeds)), "--out", path])
                if rc != cli.EXIT_PATH:
                    raise RuntimeError(f"rainbow-ham gen exited {rc} for n={n}, k={k}")
                items.append(Item(f"n{n}-k{k}", k=k, path=path,
                                  out=os.path.join(workdir, f"fs-n{n}-k{k}.out.json")))
        return items

    def setup_fingerprint(self, items):
        digest = hashlib.sha256()
        for item in items:
            with open(item.path, "rb") as handle:
                digest.update(handle.read())
        return digest.hexdigest()

    def prepare(self, items):
        for item in items:
            inst = serialize.load_instance(item.path)
            item.collection, item.forest = inst.collection, inst.forest
            item.u, item.v = inst.u, inst.v

    def schedule(self, items):
        # Two of five ops solve the n=100, k=32 file, which sorts between
        # the n=64 and the n=100, k=0 ops.  With m whole passes the median
        # (index 2.5m-0.5) and p75 (index 3.75m-0.75) both fall in that
        # class (indices 2m to 4m-1) for every m; p90 would reach the
        # n=100, k=0 op.
        return [0, 3, 1, 3, 2]

    def run(self, item):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(["solve", item.path, "--out", item.out])
        return rc, buf.getvalue()

    def check(self, item, result):
        rc, text = result
        if rc not in (cli.EXIT_PATH, cli.EXIT_EXTREMAL):
            return f"cli_exit_{rc}", None
        with open(item.out) as handle:
            if handle.read().strip() != text.strip():
                return "output_mismatch", None
        data = json.loads(text)
        cert = serialize.certificate_from_dict(data["certificate"])
        is_path = data["outcome"] == "path"
        if is_path != (rc == cli.EXIT_PATH):
            return "invalid_certificate", None
        reason = check_outcome(item, cert if is_path else None, None if is_path else cert)
        return reason, cert_data(cert)

    def bytes_written(self, items):
        return sum(os.path.getsize(item.path) for item in items)

    def bytes_read_per_pass(self, items):
        return sum(os.path.getsize(items[i].path) for i in self.schedule(items))


class Corollary(Workload):
    """``hamiltonian_or_connected`` on in-memory dense collections."""

    name = "corollary"
    upper_level = 0.75

    def build(self, seed, workdir):
        seeds = _seeds(self.name, seed)
        # Five n=16 collections and one n=24.  With m whole passes the median
        # and p75 (index 4.5m-0.75) fall among the 5m n=16 ops for every m,
        # and five different collections average out their cost; p90 would
        # reach the n=24 op.  The n=24 op takes over half of the time.
        return [_random(f"n{n}", seeds, n=n, k=0, p=0.7) for n in (16, 16, 16, 24, 16, 16)]

    def run(self, item):
        return solver.hamiltonian_or_connected(item.collection)

    def check(self, item, result):
        if result.cycle is not None:
            reason = check_cycle(item, result.cycle)
            if reason is None and not structures.verify_certificate(item.collection, result.extremal):
                reason = "invalid_certificate"
            return reason, {"cycle": cert_data(result.cycle), "extremal": cert_data(result.extremal)}
        n = item.collection.n_vertices
        pairs = result.paths or {}
        if sorted(pairs) != [(u, v) for u in range(n) for v in range(u + 1, n)]:
            return "invalid_certificate", None
        for (u, v), cert in pairs.items():
            reason = check_path(item, cert, u, v)
            if reason:
                return reason, None
        return None, {"pairs": [[u, v, cert_data(c)] for (u, v), c in sorted(pairs.items())]}


class NearExtremal(Workload):
    """``solve``/``solve_pair`` where the detectors and the fallback do the work."""

    name = "near-extremal"
    CORPUS = 150  # seeded instances

    def build(self, seed, workdir):
        items = []
        for n in (36, 38, 40):
            collection, meta = gen.build_extremal("B3", n)
            u, v = meta["pair"]
            items.append(Item(f"B3-canon-n{n}", collection, RainbowLinearForest.empty(), u, v, 0))
        for flips in (1, 2, 3):
            items.append(_anchor("B3-n12", 0, n=12, k=0, model="perturbed_extremal",
                                 extremal_kind="B3", flips=flips))
            items.append(_anchor("C3-n13", 0, n=13, k=1, model="perturbed_extremal",
                                 extremal_kind="C3", flips=flips))
        # With one flip, about seven in ten miss the heuristic and take the
        # fallback; the rest are answered by the detectors in under a
        # millisecond.  So the median op is a fallback op, clear of the gap
        # between the two (more flips add a third cluster), and with the
        # heavy items above 9 of 159 ops, p90 is a seeded fallback op too.
        seeds = _seeds(self.name, seed)
        for _ in range(self.CORPUS):
            items.append(_random("C3-n11", seeds, n=11, k=1, model="perturbed_extremal",
                                 extremal_kind="C3", flips=1))
        return items

    def run(self, item):
        return solve_item(item)

    def check(self, item, result):
        return check_outcome(item, result.path, result.extremal), cert_data(result.path or result.extremal)


class Oracle(Workload):
    """Exact path and cycle search plus ``solve`` on the same input, which must agree."""

    name = "oracle"
    setup_repeats = 3
    CORPUS = 72  # seeded instances per (family, flips)
    FAMILIES = (("B2", 10, 0), ("B2", 11, 0), ("B3", 10, 0), ("C2", 10, 0), ("C2", 11, 1))
    HEAVY = (("C3", 10, 0), ("C3", 11, 1))

    def build(self, seed, workdir):
        items = []
        for kind, n, k in self.FAMILIES + self.HEAVY:
            items.append(_anchor(f"{kind}-n{n}-flat", 0, n=n, k=k, model="perturbed_extremal",
                                 extremal_kind=kind, flips=0))
        for kind, n, k in self.HEAVY:
            for flips in (1, 2, 3):
                for gen_seed in (0, 1):
                    items.append(_anchor(f"{kind}-n{n}", gen_seed, n=n, k=k, model="perturbed_extremal",
                                         extremal_kind=kind, flips=flips))
        seeds = _seeds(self.name, seed)
        for flips in (1, 2, 3):
            for _ in range(self.CORPUS):
                for kind, n, k in self.FAMILIES:
                    items.append(_random(f"{kind}-n{n}", seeds, n=n, k=k, model="perturbed_extremal",
                                         extremal_kind=kind, flips=flips))
        return items

    def run(self, item):
        outcome = solve_item(item)
        path = oracle.exact_rainbow_ham_path(item.collection, item.u, item.v, item.forest)
        cycle = oracle.exact_rainbow_ham_cycle(item.collection)
        return outcome, path, cycle

    def check(self, item, result):
        outcome, path, cycle = result
        data = {
            "solve": cert_data(outcome.path or outcome.extremal),
            "path": [path.status, cert_data(path.certificate)],
            "cycle": [cycle.status, cert_data(cycle.certificate)],
        }
        # Every certificate is checked before an Unknown oracle status can
        # turn the op into "no answer".
        reason = check_outcome(item, outcome.path, outcome.extremal)
        if reason is None and path.status == oracle.FOUND:
            reason = check_path(item, path.certificate)
        if reason is None and cycle.status == oracle.FOUND:
            reason = check_cycle(item, cycle.certificate)
        if reason is None and oracle.UNKNOWN in (path.status, cycle.status):
            reason = "oracle_unknown"
        if reason is None and (path.status == oracle.FOUND) != (outcome.path is not None):
            reason = "disagreement"
        if reason is None and cycle.status != oracle.FOUND:
            reason = "cycle_not_found"
        return reason, data


WORKLOADS = {w.name: w for w in (FileSolve(), Corollary(), NearExtremal(), Oracle())}
