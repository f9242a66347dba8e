"""The cycle-or-connected corollary against its per-pair version.

``reference_hamiltonian_or_connected`` is the version that ran the pair
solver on every vertex pair in turn.  It is kept verbatim as the reference:
``hamiltonian_or_connected``, which covers pairs by Pósa rotations from the
paths the pair solver returns, must give the same kind, the byte-identical
cycle and extremal certificate, or a checked u->v path for every pair.  Its
rotation derivation is expanded here by ``_expand``, which shares no code
with the package's replay, and every mutation of a valid derivation must be
rejected by the replay with its exact message.
"""

from __future__ import annotations

import random
from itertools import combinations

import pytest

import rainbowpath.solver
from rainbowpath import (
    GenSpec,
    InputError,
    InternalError,
    PathCertificate,
    RotationDerivation,
    check_hypothesis,
    cycle_from_extremal,
    derivation_violations,
    hamiltonian_or_connected,
    random_instance,
    solve_pair,
    verify_certificate,
)
from rainbowpath.model import path_certificate_violations, replay_derivation
from rainbowpath.serialize import certificate_to_dict
from rainbowpath.solver import HamiltonianConnectivityResult, _certified
from rainbowpath.structures import certificate_violations

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


def _expand(derivation):
    """The paths of a rotation derivation, each entry's (order, colors) as
    rotated, and the sorted pair each entry covers; no check is made."""
    states, pairs, paths = [], [], {}
    for entry in derivation.entries:
        if isinstance(entry, PathCertificate):
            order, colors = list(entry.order), list(entry.coloring)
        else:
            parent, side, p, c = entry
            order, colors = states[parent]
            if side == 1:
                order, colors = order[::-1], colors[::-1]
            order = order[: p + 1] + list(reversed(order[p + 1:]))
            colors = colors[:p] + [c] + list(reversed(colors[p + 1:]))
        states.append((order, colors))
        pair = tuple(sorted((order[0], order[-1])))
        pairs.append(pair)
        if order[0] > order[-1]:
            order, colors = order[::-1], colors[::-1]
        paths[pair] = (tuple(order), tuple(colors))
    return paths, states, pairs


def _assert_equivalent(collection) -> str:
    """Compare both versions on one collection and return the kind."""
    got, want = hamiltonian_or_connected(collection), reference_hamiltonian_or_connected(collection)
    assert got.kind == want.kind
    if want.kind == "cycle":
        assert certificate_to_dict(got.cycle) == certificate_to_dict(want.cycle)
        assert certificate_to_dict(got.extremal) == certificate_to_dict(want.extremal)
        assert got.paths is None and got.derivation is None
    else:
        n = collection.n_vertices
        assert list(got.paths) == list(want.paths) == list(combinations(range(n), 2))
        for (u, v), path in got.paths.items():
            assert path.order[0] == u and path.order[-1] == v
            assert verify_certificate(collection, path)
        # The paths are exactly the derivation's, which passes its replay.
        expanded = _expand(got.derivation)[0]
        assert {pair: (path.order, path.coloring) for pair, path in got.paths.items()} == expanded
        assert derivation_violations(collection, got.derivation) == []
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
    # A step recorder that hands a rotation an out-of-range color, or a color
    # whose graph lacks the new edge, must not get a path through: the
    # derivation's replay rejects that step with its exact message.
    rotations = rainbowpath.solver._rotations
    coll = random_instance(GenSpec(n=8, k=0, p=0.7, seed=1))[0]
    m = coll.n_colors

    def out_of_range(a, b):
        return m

    def absent(a, b):
        return next((c for c in range(m) if not coll.has_edge(c, a, b)), None)

    for bad_color, message in ((out_of_range, "color 8 out of range [0,8)"),
                               (absent, "edge {edge} absent from color {color}")):
        made, steps = [], []

        def broken(collection, order, colors, spare, skip):
            for pair, (side, p, c), new_order, new_colors in rotations(collection, order, colors,
                                                                       spare, skip):
                steps.append(pair)
                if not made:
                    oriented = order if side == 0 else order[::-1]
                    a, b = oriented[p], oriented[-1]
                    if (bad := bad_color(a, b)) is not None:
                        c = bad
                        made.append((len(steps), (min(a, b), max(a, b)), c))
                yield pair, (side, p, c), new_order, new_colors

        monkeypatch.setattr(rainbowpath.solver, "_rotations", broken)
        with pytest.raises(InternalError) as info:
            hamiltonian_or_connected(coll)
        # Entry 0 is the one seed, so the k-th recorded step is entry k.
        index, edge, color = made[0]
        assert str(info.value) == (f"corollary derivation certificate fails verification: "
                                   f"step {index}: " + message.format(edge=edge, color=color))


def _mutations(collection, derivation, rng):
    """(name, entries, the one expected problem) for mutations of a valid
    derivation: one per step clause and malformed entries at steps drawn by
    ``rng``, then a corrupted seed, a duplicated pair and a missing pair."""
    n, m = collection.n_vertices, collection.n_colors
    entries = derivation.entries
    _, states, pairs = _expand(derivation)
    steps = [i for i, entry in enumerate(entries) if not isinstance(entry, PathCertificate)]
    for i in rng.sample(steps, 6):
        parent, side, p, c = entries[i]

        def at(*step, i=i):
            return entries[:i] + (step,) + entries[i + 1:]

        yield "forward parent", at(i, side, p, c), f"step {i}: parent {i} is not an earlier entry"
        yield "later parent", at(i + 1, side, p, c), f"step {i}: parent {i + 1} is not an earlier entry"
        yield "negative parent", at(-1, side, p, c), f"step {i}: parent -1 is not an earlier entry"
        yield "bad side", at(parent, 2, p, c), f"step {i}: side 2 is not 0 or 1"
        yield "negative side", at(parent, -1, p, c), f"step {i}: side -1 is not 0 or 1"
        yield "pivot n-2", at(parent, side, n - 2, c), f"step {i}: pivot {n - 2} out of range [0,{n - 2})"
        yield "negative pivot", at(parent, side, -1, c), f"step {i}: pivot -1 out of range [0,{n - 2})"
        yield "color m", at(parent, side, p, m), f"step {i}: color {m} out of range [0,{m})"
        yield "negative color", at(parent, side, p, -1), f"step {i}: color -1 out of range [0,{m})"
        # Neither a seed nor a tuple of four ints, a bool side included.
        for name, malformed in (("three fields", (0, 0, 0)), ("five fields", (0, 0, 0, 1, 5)),
                                ("str field", ("0", 0, 0, 1)), ("None", None),
                                ("float field", (0.0, 0, 0, 1)), ("bool side", (parent, False, p, c))):
            yield (name, entries[:i] + (malformed,) + entries[i + 1:],
                   f"step {i}: {malformed!r} is not a seed path or a step of four ints")
        order, colors = states[parent]
        if side == 1:
            order, colors = order[::-1], colors[::-1]
        a, back = order[p], order[-1]
        for other in range(m):
            if not collection.has_edge(other, a, back):
                yield ("absent edge", at(parent, side, p, other),
                       f"step {i}: edge {(min(a, back), max(a, back))} absent from color {other}")
            elif other != colors[p] and other in colors:
                yield ("color the parent holds", at(parent, side, p, other),
                       f"step {i}: color {other} is already on the parent path")
        # The same step twice covers its pair twice.
        yield ("duplicated pair", entries[: i + 1] + entries[i:],
               f"step {i + 1}: pair {pairs[i]} is already covered")
    seed = entries[0]
    corrupted = PathCertificate(seed.order[:-1] + seed.order[:1], seed.coloring)
    yield ("corrupted seed", (corrupted,) + entries[1:],
           f"seed 0: order is not a permutation of 0..{n - 1}")
    yield ("missing pair", entries[:-1], f"pair {pairs[-1]} is not covered")


@pytest.mark.parametrize("n, seed", [(8, 1), (10, 2), (12, 3)])
def test_every_derivation_mutation_is_rejected_with_its_message(n, seed):
    coll = random_instance(GenSpec(n=n, k=0, p=0.7, seed=seed))[0]
    derivation = hamiltonian_or_connected(coll).derivation
    assert derivation_violations(coll, derivation) == []
    assert certificate_violations(coll, derivation) == [] and verify_certificate(coll, derivation)
    # The last entry is a step with no child, so dropping it loses one pair.
    parents = {entry[0] for entry in derivation.entries[1:]}
    assert len(derivation.entries) - 1 not in parents
    names = set()
    for name, entries, message in _mutations(coll, derivation, random.Random(seed)):
        mutated = RotationDerivation(entries)
        assert derivation_violations(coll, mutated) == [message], name
        assert certificate_violations(coll, mutated) == [message], name
        names.add(name)
    assert len(names) == 20


@pytest.mark.parametrize("n, seed", [(8, 1), (10, 2)])
def test_every_path_the_replay_accepts_passes_the_full_check(n, seed):
    # Random steps in range from a solved seed: whatever prefix the replay
    # accepts, each path it builds is a rainbow Hamiltonian path by the
    # full path check, which the steps never ran.
    coll = random_instance(GenSpec(n=n, k=0, p=0.7, seed=seed))[0]
    m = coll.n_colors
    seed_path = hamiltonian_or_connected(coll).derivation.entries[0]
    rng = random.Random(seed)
    rotated = 0
    for _ in range(2000):
        entries = [seed_path]
        for _ in range(rng.randrange(1, 8)):
            entries.append((rng.randrange(len(entries)), rng.randrange(2), rng.randrange(n - 2),
                            rng.randrange(m)))
        problems = []
        paths = replay_derivation(coll, RotationDerivation(tuple(entries)), problems)
        assert problems
        for (u, v), path in paths.items():
            assert (path.order[0], path.order[-1]) == (u, v)
            assert path_certificate_violations(coll, path) == []
        rotated += len(paths) - 1
    assert rotated >= 200


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

