"""The cycle-or-connected corollary against its per-pair version.

``reference_hamiltonian_or_connected`` is the version that ran the pair
solver on every vertex pair in turn.  It is kept verbatim as the reference:
``hamiltonian_or_connected``, which covers pairs by Pósa rotations from the
paths the pair solver returns, must give the same kind, the byte-identical
cycle and extremal certificate, or a checked u->v path for every pair.
"""

from __future__ import annotations

from itertools import combinations

import pytest

import rainbowpath.model
import rainbowpath.solver
from rainbowpath import (
    GenSpec,
    InputError,
    InternalError,
    PathCertificate,
    check_hypothesis,
    cycle_from_extremal,
    hamiltonian_or_connected,
    random_instance,
    solve_pair,
    verify_certificate,
)
from rainbowpath.serialize import certificate_to_dict
from rainbowpath.solver import HamiltonianConnectivityResult, _certified

from .test_acceptance import DENSITIES


def reference_hamiltonian_or_connected(collection):
    n = collection.n_vertices
    if n < 4:
        raise InputError(f"the cycle-or-connected corollary needs n >= 4, got n={n}")
    if not check_hypothesis(collection, 0):
        raise InputError("collection violates sigma2 >= n")
    paths = {}
    for u in range(n):
        for v in range(u + 1, n):
            outcome = solve_pair(collection, u, v)
            if outcome.extremal is not None:
                cycle = _certified(collection, cycle_from_extremal(collection, outcome.extremal),
                                   None, "corollary cycle")
                return HamiltonianConnectivityResult(cycle=cycle, extremal=outcome.extremal)
            paths[(u, v)] = outcome.path
    return HamiltonianConnectivityResult(paths=paths)


def _assert_equivalent(collection) -> str:
    """Compare both versions on one collection and return the kind."""
    got, want = hamiltonian_or_connected(collection), reference_hamiltonian_or_connected(collection)
    assert got.kind == want.kind
    if want.kind == "cycle":
        assert certificate_to_dict(got.cycle) == certificate_to_dict(want.cycle)
        assert certificate_to_dict(got.extremal) == certificate_to_dict(want.extremal)
        assert got.paths is None
    else:
        n = collection.n_vertices
        assert list(got.paths) == list(want.paths) == list(combinations(range(n), 2))
        for (u, v), path in got.paths.items():
            assert path.order[0] == u and path.order[-1] == v
            assert verify_certificate(collection, path)
    return want.kind


def _perturbed_specs():
    """Perturbed B2/B3/C2/C3 at n = 8-12 (B3 at even n), flips 0-2, seeds 0-1."""
    for kind in ("B2", "B3", "C2", "C3"):
        for n in range(8, 13):
            if kind == "B3" and n % 2:
                continue
            # C2 and C3 carry a one-edge forest where C3's parity allows it.
            k = {"B2": 0, "B3": 0, "C2": 1, "C3": n % 2}[kind]
            for flips in range(3):
                for seed in range(2):
                    yield GenSpec(n=n, k=k, model="perturbed_extremal", extremal_kind=kind,
                                  flips=flips, seed=seed)


def test_matches_per_pair_loop_on_dense_collections():
    kinds = []
    for n in range(5, 13):
        for p in DENSITIES:
            for seed in range(2):
                coll = random_instance(GenSpec(n=n, k=0, p=p, seed=140_000 + 10 * n + seed))[0]
                kinds.append(_assert_equivalent(coll))
    # Dense collections are all connected; the perturbed families reach cycles.
    assert kinds == ["connected"] * 64


def test_matches_per_pair_loop_on_perturbed_extremal_families():
    kinds = [_assert_equivalent(random_instance(spec)[0]) for spec in _perturbed_specs()]
    assert len(kinds) == 108
    assert kinds.count("cycle") == 34 and kinds.count("connected") == 74


def test_rotated_path_is_checked_before_it_is_stored(monkeypatch):
    # A rotation that hands its new path an out-of-range color must not get through.
    rotations = rainbowpath.solver._rotations

    def broken(collection, *args):
        for pair, order, colors in rotations(collection, *args):
            yield pair, order, [collection.n_colors, *colors[1:]]

    monkeypatch.setattr(rainbowpath.solver, "_rotations", broken)
    coll = random_instance(GenSpec(n=8, k=0, p=0.7, seed=1))[0]
    with pytest.raises(InternalError, match="rotated corollary path certificate fails "
                                            "verification: color 8 out of range"):
        hamiltonian_or_connected(coll)


#: Pair-solver calls per dense collection.  Rotations from the first path
#: cover every pair here; n-1 or more calls would mean they cover none.
PINNED_SOLVE_CALLS = 1


@pytest.mark.parametrize("n, seed", [(16, 1), (16, 2), (24, 1), (24, 2)])
def test_dense_collection_needs_one_pair_solve(monkeypatch, n, seed):
    calls = []
    original = rainbowpath.solver.solve_pair

    def counting(collection, u, v):
        calls.append((u, v))
        return original(collection, u, v)

    monkeypatch.setattr(rainbowpath.solver, "solve_pair", counting)
    res = hamiltonian_or_connected(random_instance(GenSpec(n=n, k=0, p=0.7, seed=seed))[0])
    assert res.kind == "connected" and len(res.paths) == n * (n - 1) // 2
    assert len(calls) <= PINNED_SOLVE_CALLS


def test_valid_paths_take_the_accept_pass(monkeypatch):
    # The message walk runs only for a certificate the accept pass rejects.
    calls = []
    walk = rainbowpath.model._walk_violations

    def counting(*args):
        calls.append(args)
        return walk(*args)

    monkeypatch.setattr(rainbowpath.model, "_walk_violations", counting)
    coll = random_instance(GenSpec(n=24, k=0, p=0.7, seed=1))[0]
    res = hamiltonian_or_connected(coll)
    assert res.kind == "connected" and len(res.paths) == 276
    assert calls == []
    path = res.paths[(0, 1)]
    spoiled = PathCertificate(path.order, path.coloring[:-1] + path.coloring[:1])
    assert not verify_certificate(coll, spoiled)
    assert len(calls) >= 1
