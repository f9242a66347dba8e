"""Seeded instance generators: canonical extremal families, random models,
negative controls, and embedded rainbow forests.

Everything is a pure function of its parameters and seed, so serialized
instances are byte-stable across runs.  Non-control builders always emit
collections that pass the degree-sum hypothesis (a monotone repair loop
adds edges to deficient colors); the controls document the bound they miss.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations

from .forest import RainbowLinearForest, is_h_compatible
from .model import (
    Edge,
    GraphCollection,
    InputError,
    canonical_edge,
    check_hypothesis,
    rainbow_assignment,
    sigma2,
)
from .structures import ExtremalCertificate

EXTREMAL_KINDS = ("A2", "A3", "B2", "B3", "C2", "C3", "dirac_control")


class GenerationError(RuntimeError):
    """A builder could not produce a valid instance within its budget."""


@dataclass(frozen=True)
class GenSpec:
    """Recipe for one random instance; identical specs give identical bytes."""

    n: int
    k: int = 0
    model: str = "uniform_supergraph"  # uniform_supergraph | identical | perturbed_extremal
    seed: int = 0
    p: float = 0.9
    extremal_kind: str = "C3"
    flips: int = 0
    oracle_only: bool = False


def _clique_edges(vertices) -> list[Edge]:
    return [canonical_edge(a, b) for a, b in combinations(sorted(vertices), 2)]


def _cross_edges(side_a, side_b) -> list[Edge]:
    return [canonical_edge(a, b) for a in sorted(side_a) for b in sorted(side_b)]


def _identical(n: int, edges: list[Edge], m: int | None = None) -> GraphCollection:
    m = n if m is None else m
    return GraphCollection.from_edge_lists(n, [list(edges)] * m)


def _terminal_forest(n: int, k: int, u: int = 0, v: int = 1) -> tuple[RainbowLinearForest, list[int]]:
    """Forest with exactly the two endpoint components, k edges total.

    Extra vertices are 2..k+1; colors are 0..k-1 in path order.  Returns the
    forest and the list of its vertices (the deletion set of the reduction).
    """
    hu_edges = (k + 1) // 2
    hv_edges = k - hu_edges
    extra = list(range(2, 2 + k))
    comp_u = tuple([u] + extra[:hu_edges])
    comp_v = tuple([v] + extra[hu_edges:])
    comps = [comp_u, comp_v]
    colors: dict[Edge, int] = {}
    next_color = 0
    for comp in comps:
        for i in range(len(comp) - 1):
            colors[canonical_edge(comp[i], comp[i + 1])] = next_color
            next_color += 1
    forest = RainbowLinearForest(tuple(comps), colors)
    return forest, sorted(forest.vertices())


def build_extremal(kind: str, n: int, k: int = 0, params: dict | None = None) -> tuple[GraphCollection, dict]:
    """Canonical instance of one named extremal family, with its certificate.

    Metadata carries the matching ExtremalCertificate (when one exists), the
    embedded forest and blocked pair for the forest kinds, and a note on
    which degree-sum level the family sits at.  The dirac_control family is
    a negative control: it misses the sigma2 >= n bound on purpose.
    """
    params = params or {}
    if kind not in EXTREMAL_KINDS:
        raise InputError(f"unknown extremal kind {kind!r}; choose from {EXTREMAL_KINDS}")

    if kind == "A2":
        if n < 2:
            raise InputError("A2 needs n >= 2")
        ell = params.get("ell", n // 2)
        if not 1 <= ell <= n - 1:
            raise InputError(f"ell={ell} out of range [1,{n - 1}]")
        X = frozenset(range(ell))
        Y = frozenset(range(ell, n))
        coll = _identical(n, _clique_edges(X) + _clique_edges(Y))
        cert = ExtremalCertificate("A2p", X, Y, ell=ell)
        meta = {"kind": kind, "certificate": cert, "forest": None, "pair": None,
                "sigma2_level": "n-2"}
        return coll, meta

    if kind == "A3":
        if n < 4 or n % 2 != 0:
            raise InputError("A3 needs even n >= 4")
        X = frozenset(range(n // 2 - 1))
        Y = frozenset(range(n // 2 - 1, n))
        coll = _identical(n, _clique_edges(X) + _cross_edges(X, Y))
        cert = ExtremalCertificate("A3p", X, Y)
        meta = {"kind": kind, "certificate": cert, "forest": None, "pair": None,
                "sigma2_level": "n-2"}
        return coll, meta

    if kind == "B2":
        if n < 4:
            raise InputError("B2 needs n >= 4")
        inner = n - 2
        ell = params.get("ell", (inner + 1) // 2)
        if not 1 <= ell <= inner - 1:
            raise InputError(f"ell={ell} out of range [1,{inner - 1}]")
        u, v = 0, 1
        X = frozenset(range(2, 2 + ell))
        Y = frozenset(range(2 + ell, n))
        edges = _clique_edges(X) + _clique_edges(Y)
        edges += _cross_edges({u}, X | Y) + _cross_edges({v}, X | Y)
        coll = _identical(n, edges)
        cert = ExtremalCertificate("B2", X, Y, pair=(u, v))
        meta = {"kind": kind, "certificate": cert, "forest": None, "pair": (u, v),
                "sigma2_level": "n"}
        return coll, meta

    if kind == "B3":
        if n < 4 or n % 2 != 0:
            raise InputError("B3 needs even n >= 4")
        X = frozenset(range(n // 2))
        Y = frozenset(range(n // 2, n))
        coll = _identical(n, _cross_edges(X, Y))
        cert = ExtremalCertificate("B3", X, Y, pair=(0, 1))
        meta = {"kind": kind, "certificate": cert, "forest": None, "pair": (0, 1),
                "sigma2_level": "n"}
        return coll, meta

    if kind == "C2":
        if k < 0 or n < k + 4:
            raise InputError(f"C2 needs n >= k+4, got n={n}, k={k}")
        forest, d_set = _terminal_forest(n, k)
        rest = [x for x in range(n) if x not in d_set]
        ell = params.get("ell", (len(rest) + 1) // 2)
        if not 1 <= ell <= len(rest) - 1:
            raise InputError(f"ell={ell} out of range [1,{len(rest) - 1}]")
        X = frozenset(rest[:ell])
        Y = frozenset(rest[ell:])
        structured = (
            _clique_edges(X) + _clique_edges(Y) + _clique_edges(d_set)
            + _cross_edges(d_set, X | Y)
        )
        complete = _clique_edges(range(n))
        lists = [complete if c < k else structured for c in range(n)]
        coll = GraphCollection.from_edge_lists(n, lists)
        cert = ExtremalCertificate("C2", X, Y, pair=(0, 1))
        meta = {"kind": kind, "certificate": cert, "forest": forest, "pair": (0, 1),
                "sigma2_level": "n+k"}
        return coll, meta

    if kind == "C3":
        if k < 0 or (n + k) % 2 != 0:
            raise InputError(f"C3 needs n+k even, got n={n}, k={k}")
        if n < 3 * k + 4:
            raise InputError(f"C3 needs n >= 3k+4 so the pair stays solvable, got n={n}, k={k}")
        forest, _ = _terminal_forest(n, k)
        X = frozenset(range((n + k) // 2))
        Y = frozenset(range((n + k) // 2, n))
        structured = _clique_edges(X) + _cross_edges(X, Y)
        complete = _clique_edges(range(n))
        lists = [complete if c < k else structured for c in range(n)]
        coll = GraphCollection.from_edge_lists(n, lists)
        cert = ExtremalCertificate("C3", X, Y, pair=(0, 1))
        meta = {"kind": kind, "certificate": cert, "forest": forest, "pair": (0, 1),
                "sigma2_level": "n+k"}
        return coll, meta

    # dirac_control: identical copies of the sharp bipartite non-Hamiltonian graph.
    if n < 3:
        raise InputError("dirac_control needs n >= 3")
    small = (n - 1) // 2
    A = frozenset(range(small))
    B = frozenset(range(small, n))
    coll = _identical(n, _cross_edges(A, B))
    margin = n - 2 * small
    meta = {"kind": kind, "certificate": None, "forest": None, "pair": None,
            "sigma2_level": f"n-{margin}", "violates_hypothesis": True}
    return coll, meta


def _repair_sigma2(masks: list[list[int]], n: int, bound: int) -> None:
    """Raise each color to the bound by joining its weakest non-adjacent pair."""
    for row in masks:
        while True:
            degs = [row[x].bit_count() for x in range(n)]
            worst = None
            for a in range(n):
                for b in range(a + 1, n):
                    if not row[a] >> b & 1:
                        s = degs[a] + degs[b]
                        if worst is None or s < worst[0]:
                            worst = (s, a, b)
            if worst is None or worst[0] >= bound:
                break
            _, a, b = worst
            row[a] |= 1 << b
            row[b] |= 1 << a


def _masks_to_collection(n: int, masks: list[list[int]]) -> GraphCollection:
    return GraphCollection(n, tuple(tuple(row) for row in masks))


def _sample_forest(
    rng: random.Random, collection: GraphCollection, n: int, k: int
) -> tuple[RainbowLinearForest, int, int] | None:
    """One attempt at a k-edge rainbow forest plus a compatible pair."""
    if k == 0:
        u, v = rng.sample(range(n), 2)
        return RainbowLinearForest.empty(), u, v
    sizes = []
    remaining = k
    while remaining > 0:
        take = rng.randint(1, remaining)
        sizes.append(take)
        remaining -= take
    total_vertices = k + len(sizes)
    if total_vertices > n:
        return None
    chosen = rng.sample(range(n), total_vertices)
    comps = []
    cursor = 0
    for size in sizes:
        comps.append(tuple(chosen[cursor : cursor + size + 1]))
        cursor += size + 1
    edges = [
        canonical_edge(comp[i], comp[i + 1]) for comp in comps for i in range(len(comp) - 1)
    ]
    assignment = rainbow_assignment(collection, edges)
    if assignment is None:
        return None
    forest = RainbowLinearForest(tuple(comps), assignment)
    candidates = [x for x in range(n) if forest.degree_of(x) <= 1]
    rng.shuffle(candidates)
    for i, u in enumerate(candidates):
        for v in candidates[i + 1 :]:
            if is_h_compatible(forest, u, v):
                return forest, u, v
    return None


def random_instance(spec: GenSpec) -> tuple[GraphCollection, RainbowLinearForest, int, int]:
    """Hypothesis-satisfying instance with an embedded rainbow forest.

    Fully reproducible from the spec; raises GenerationError when the
    rejection budget runs out (k too large for n, or an unlucky model).
    """
    n, k = spec.n, spec.k
    if n < 2:
        raise InputError("need n >= 2")
    if k < 0:
        raise InputError("need k >= 0")
    if not spec.oracle_only and 3 * k > n - 4:
        raise InputError(f"k={k} exceeds (n-4)/3 for n={n}; set oracle_only to override")
    rng = random.Random(spec.seed)
    bound = n + k
    for _ in range(200):
        if spec.model == "uniform_supergraph":
            masks = []
            for _color in range(n):
                row = [0] * n
                for a in range(n):
                    for b in range(a + 1, n):
                        if rng.random() < spec.p:
                            row[a] |= 1 << b
                            row[b] |= 1 << a
                masks.append(row)
            _repair_sigma2(masks, n, bound)
            collection = _masks_to_collection(n, masks)
            sampled = _sample_forest(rng, collection, n, k)
            if sampled is None:
                continue
            forest, u, v = sampled
        elif spec.model == "identical":
            collection = _identical(n, _clique_edges(range(n)))
            sampled = _sample_forest(rng, collection, n, k)
            if sampled is None:
                continue
            forest, u, v = sampled
        elif spec.model == "perturbed_extremal":
            base, meta = build_extremal(spec.extremal_kind, n, k)
            masks = [list(row) for row in base.adjacency]
            protected = set()
            forest = meta["forest"] or RainbowLinearForest.empty()
            for (a, b), color in forest.fixed_colors.items():
                protected.add((color, a, b))
            for _ in range(spec.flips):
                color = rng.randrange(n)
                a, b = rng.sample(range(n), 2)
                a, b = canonical_edge(a, b)
                if (color, a, b) in protected:
                    continue
                masks[color][a] ^= 1 << b
                masks[color][b] ^= 1 << a
            _repair_sigma2(masks, n, bound)
            collection = _masks_to_collection(n, masks)
            if meta["pair"] is not None:
                u, v = meta["pair"]
            else:
                u, v = rng.sample(range(n), 2)
            if forest.edge_count != k:
                continue
        else:
            raise InputError(f"unknown model {spec.model!r}")
        if forest.validate_against(collection):
            continue
        if not is_h_compatible(forest, u, v):
            continue
        if not check_hypothesis(collection, k):
            continue
        return collection, forest, u, v
    raise GenerationError(
        f"no valid instance after 200 attempts for n={n}, k={k}, model={spec.model}"
    )


def small_vertex_probe_family(n: int, seed: int = 0) -> GraphCollection:
    """Collection with exactly one vertex of sub-half degree in every color.

    Vertex 0 gets ceil(n/2)-1 neighbors per color (just below half), all
    other vertices form a clique; the degree-sum bound survives because 0's
    non-neighbors are clique vertices.  Needs n >= 5: below that the small
    vertex drags the bound under n.
    """
    if n < 5:
        raise GenerationError(f"probe construction needs n >= 5, got {n}")
    rng = random.Random(seed)
    target = (n + 1) // 2 - 1
    rest = list(range(1, n))
    lists = []
    for _color in range(n):
        attached = rng.sample(rest, target)
        edges = _clique_edges(rest) + [canonical_edge(0, a) for a in attached]
        lists.append(edges)
    collection = GraphCollection.from_edge_lists(n, lists)
    audit = audit_small_vertices(collection)
    if audit != {0}:
        raise GenerationError(f"probe family audit failed: small-everywhere set {audit}")
    if not check_hypothesis(collection, 0):
        raise GenerationError("probe family misses the sigma2 >= n bound")
    return collection


def audit_small_vertices(collection: GraphCollection) -> set[int]:
    """Vertices whose degree is below n/2 in every color."""
    n = collection.n_vertices
    out = set()
    for x in range(n):
        if all(
            collection.adjacency[c][x].bit_count() < n / 2
            for c in range(collection.n_colors)
        ):
            out.add(x)
    return out
