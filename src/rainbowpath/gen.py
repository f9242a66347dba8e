"""Seeded instance generators: canonical extremal families, random models,
negative controls, and embedded rainbow forests.

Everything is a pure function of its parameters and seed, so serialized
instances are byte-stable across runs.  Graphs are bitmask rows, and an
extremal family builds one row tuple per distinct graph, shared by its
colors.  Non-control builders always emit collections that pass the
degree-sum hypothesis (a monotone repair loop adds edges to deficient
colors and hands the sigma2 it ends on to the collection, so the check
recomputes none); the controls document the bound they miss.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .forest import RainbowLinearForest, is_h_compatible
from .model import (
    Edge,
    GraphCollection,
    InputError,
    canonical_edge,
    check_hypothesis,
    mask_of,
    rainbow_assignment,
    row_sigma2,
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


def _graph(n: int, cliques=(), joins=()) -> tuple[int, ...]:
    """Neighbour masks of one graph: a clique on each vertex set in
    ``cliques`` and a complete join across each disjoint pair in ``joins``."""
    row = [0] * n
    for side in cliques:
        mask = mask_of(side)
        for x in side:
            row[x] |= mask ^ 1 << x
    for side_a, side_b in joins:
        mask_a, mask_b = mask_of(side_a), mask_of(side_b)
        for x in side_a:
            row[x] |= mask_b
        for y in side_b:
            row[y] |= mask_a
    return tuple(row)


def _identical(n: int, row: tuple[int, ...], k: int = 0) -> GraphCollection:
    """n colors sharing one row tuple, the first k of them complete instead.

    Each distinct graph is checked once by ``from_rows`` and its sigma2 is
    computed once by ``sigma2s``, however many colors share it.
    """
    graphs = [_graph(n, [range(n)]), row] if k else [row]
    GraphCollection.from_rows(n, graphs)
    return GraphCollection(n, (graphs[0],) * k + (row,) * (n - k))


def _terminal_forest(k: int, u: int = 0, v: int = 1) -> tuple[RainbowLinearForest, list[int]]:
    """Forest with exactly the two endpoint components, k edges total.

    Extra vertices are 2..k+1; colors are 0..k-1 in path order.  Returns the
    forest and the list of its vertices (the deletion set of the reduction).
    """
    split = 2 + (k + 1) // 2
    comps = ((u, *range(2, split)), (v, *range(split, 2 + k)))
    colors: dict[Edge, int] = {}
    for comp in comps:
        for a, b in zip(comp, comp[1:]):
            colors[canonical_edge(a, b)] = len(colors)
    forest = RainbowLinearForest(comps, colors)
    return forest, sorted(forest.vertices())


def build_extremal(kind: str, n: int, k: int = 0, params: dict | None = None) -> tuple[GraphCollection, dict]:
    """Canonical instance of one named extremal family, with its certificate.

    Metadata carries the matching ExtremalCertificate (when one exists), the
    embedded forest and blocked pair for the forest kinds, and a note on
    which degree-sum level the family sits at.  Only C2 and C3 embed a
    k-edge forest; the other kinds take k = 0.  The dirac_control family is
    a negative control: it misses the sigma2 >= n bound on purpose.  Each
    family is one graph built from vertex-set masks, shared by all of its
    colors (C2 and C3 make the first k colors complete instead).
    """
    params = params or {}
    if kind not in EXTREMAL_KINDS:
        raise InputError(f"unknown extremal kind {kind!r}; choose from {EXTREMAL_KINDS}")
    if k != 0 and kind not in ("C2", "C3"):
        raise InputError(f"{kind} embeds no forest, so k must be 0, got k={k}")
    cert = forest = pair = None
    if kind == "A2":
        if n < 2:
            raise InputError("A2 needs n >= 2")
        ell = params.get("ell", n // 2)
        if not 1 <= ell <= n - 1:
            raise InputError(f"ell={ell} out of range [1,{n - 1}]")
        X = frozenset(range(ell))
        Y = frozenset(range(ell, n))
        row, cert, level = _graph(n, [X, Y]), ExtremalCertificate("A2p", X, Y, ell=ell), "n-2"
    elif kind == "A3":
        if n < 4 or n % 2 != 0:
            raise InputError("A3 needs even n >= 4")
        X = frozenset(range(n // 2 - 1))
        Y = frozenset(range(n // 2 - 1, n))
        row, cert, level = _graph(n, [X], [(X, Y)]), ExtremalCertificate("A3p", X, Y), "n-2"
    elif kind == "B2":
        if n < 4:
            raise InputError("B2 needs n >= 4")
        inner = n - 2
        ell = params.get("ell", (inner + 1) // 2)
        if not 1 <= ell <= inner - 1:
            raise InputError(f"ell={ell} out of range [1,{inner - 1}]")
        pair = (0, 1)
        X = frozenset(range(2, 2 + ell))
        Y = frozenset(range(2 + ell, n))
        row = _graph(n, [X, Y], [(pair, X | Y)])
        cert, level = ExtremalCertificate("B2", X, Y, pair=pair), "n"
    elif kind == "B3":
        if n < 4 or n % 2 != 0:
            raise InputError("B3 needs even n >= 4")
        pair = (0, 1)
        X = frozenset(range(n // 2))
        Y = frozenset(range(n // 2, n))
        row, cert, level = _graph(n, joins=[(X, Y)]), ExtremalCertificate("B3", X, Y, pair=pair), "n"
    elif kind == "C2":
        if k < 0 or n < k + 4:
            raise InputError(f"C2 needs n >= k+4, got n={n}, k={k}")
        forest, d_set = _terminal_forest(k)
        rest = [x for x in range(n) if x not in d_set]
        ell = params.get("ell", (len(rest) + 1) // 2)
        if not 1 <= ell <= len(rest) - 1:
            raise InputError(f"ell={ell} out of range [1,{len(rest) - 1}]")
        pair = (0, 1)
        X = frozenset(rest[:ell])
        Y = frozenset(rest[ell:])
        row = _graph(n, [X, Y, d_set], [(d_set, X | Y)])
        cert, level = ExtremalCertificate("C2", X, Y, pair=pair), "n+k"
    elif kind == "C3":
        if k < 0 or (n + k) % 2 != 0:
            raise InputError(f"C3 needs n+k even, got n={n}, k={k}")
        if n < 3 * k + 4:
            raise InputError(f"C3 needs n >= 3k+4 so the pair stays solvable, got n={n}, k={k}")
        forest, _ = _terminal_forest(k)
        pair = (0, 1)
        X = frozenset(range((n + k) // 2))
        Y = frozenset(range((n + k) // 2, n))
        row, cert, level = _graph(n, [X], [(X, Y)]), ExtremalCertificate("C3", X, Y, pair=pair), "n+k"
    else:
        # dirac_control: identical copies of the sharp bipartite non-Hamiltonian graph.
        if n < 3:
            raise InputError("dirac_control needs n >= 3")
        small = (n - 1) // 2
        row, level = _graph(n, joins=[(range(small), range(small, n))]), f"n-{n - 2 * small}"
    meta = {"kind": kind, "certificate": cert, "forest": forest, "pair": pair, "sigma2_level": level}
    if cert is None:
        meta["violates_hypothesis"] = True
    return _identical(n, row, k), meta


def _repair_sigma2(masks: list[list[int]], n: int, bound: int, known=None) -> list[float]:
    """Raise each color to the bound by joining its weakest non-adjacent pair.

    The pair joined is the lexicographically first (a, b), a < b, of minimum
    degree sum; colors already at the bound are left as they are.  Returns
    each color's final sigma2, which the loop computes anyway, so that the
    collection built from ``masks`` is seeded with it.  ``known[color]``,
    where not None, is the sigma2 of that row as given, so it is not scanned.
    """
    values = []
    for row, best in zip(masks, known or [None] * len(masks)):
        if best is None:
            best = row_sigma2(row)
        while best < bound:
            degs = [mask.bit_count() for mask in row]
            by_degree: dict[int, int] = {}
            for x, d in enumerate(degs):
                by_degree[d] = by_degree.get(d, 0) | 1 << x
            for a in range(n):
                # Non-neighbours b > a whose degree completes the minimum sum.
                partners = by_degree.get(best - degs[a], 0) & ~row[a] & (-1 << (a + 1))
                if partners:
                    b = (partners & -partners).bit_length() - 1
                    break
            row[a] |= 1 << b
            row[b] |= 1 << a
            best = row_sigma2(row)
        values.append(best)
    return values


def _repaired_collection(n: int, masks: list[list[int]], bound: int, known=None) -> GraphCollection:
    """The collection of ``masks`` after ``_repair_sigma2``, sigma2s seeded."""
    values = _repair_sigma2(masks, n, bound, known)  # repairs masks first
    return GraphCollection(n, tuple(map(tuple, masks))).seed_sigma2s(values)


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
    The random models' collections carry the sigma2 values that
    ``_repair_sigma2`` ended on, and ``check_hypothesis`` decides on those.
    """
    n, k = spec.n, spec.k
    if n < 2:
        raise InputError("need n >= 2")
    if k < 0:
        raise InputError("need k >= 0")
    if k > n - 2:
        raise InputError(f"k={k} leaves no compatible pair for a k-edge forest; need n >= k+2, got n={n}")
    if not 0 <= spec.p <= 1:
        raise InputError(f"p={spec.p} is not a probability in [0, 1]")
    if spec.flips < 0:
        raise InputError(f"flips={spec.flips} must be >= 0")
    if not spec.oracle_only and 3 * k > n - 4:
        raise InputError(f"k={k} exceeds (n-4)/3 for n={n}: the solver needs n >= 3k+4")
    rng = random.Random(spec.seed)
    rand, p = rng.random, spec.p
    bound = n + k
    for _ in range(200):
        if spec.model == "identical":
            collection = _identical(n, _graph(n, [range(n)]))
        elif spec.model == "uniform_supergraph":
            masks = []
            for _color in range(n):
                row = [0] * n
                for a in range(n):
                    # Draw pairs (a, b), b > a, in order; a's upper half is
                    # one local mask, b's lower half gets a's bit.
                    upper, bit = 0, 1 << a
                    for b in range(a + 1, n):
                        if rand() < p:
                            upper |= 1 << b
                            row[b] |= bit
                    row[a] |= upper
                masks.append(row)
            collection = _repaired_collection(n, masks, bound)
        elif spec.model == "perturbed_extremal":
            base, meta = build_extremal(spec.extremal_kind, n, k)
            masks = [list(row) for row in base.adjacency]
            known = list(base.sigma2s)  # unflipped colors keep the family's sigma2
            forest = meta["forest"] or RainbowLinearForest.empty()
            protected = {(color, a, b) for (a, b), color in forest.fixed_colors.items()}
            for _ in range(spec.flips):
                color = rng.randrange(n)
                a, b = rng.sample(range(n), 2)
                a, b = canonical_edge(a, b)
                if (color, a, b) in protected:
                    continue
                masks[color][a] ^= 1 << b
                masks[color][b] ^= 1 << a
                known[color] = None
            collection = _repaired_collection(n, masks, bound, known)
            u, v = meta["pair"] or rng.sample(range(n), 2)
        else:
            raise InputError(f"unknown model {spec.model!r}")
        if spec.model != "perturbed_extremal":
            sampled = _sample_forest(rng, collection, n, k)
            if sampled is None:
                continue
            forest, u, v = sampled
        if forest.edge_count != k or forest.validate_against(collection):
            continue
        if not is_h_compatible(forest, u, v):
            continue
        if not check_hypothesis(collection, k):
            continue
        return collection, forest, u, v
    raise GenerationError(
        f"no valid instance after 200 attempts for n={n}, k={k}, model={spec.model}"
    )
