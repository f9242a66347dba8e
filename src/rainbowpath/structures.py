"""Extremal-structure detectors, clause-level verifiers, and cycle builders.

Six certificate kinds explain why a rainbow Hamiltonian path can fail to
exist.  Two (A2p, A3p) live at the reduced level of the spanning-path
dispatch; two (B2, B3) block a specific vertex pair without a forest; two
(C2, C3) block a pair relative to an embedded forest.  Every clause is
checked literally against the collection, so a verified certificate is a
machine-checkable witness.  The two reduced-level detectors read their
structure off one vertex's neighbourhood, with no search.
"""

from __future__ import annotations

from dataclasses import dataclass

from .forest import RainbowLinearForest
from .model import (
    CycleCertificate,
    GraphCollection,
    InputError,
    InternalError,
    check_hypothesis,
    rainbow_assignment,
)

KINDS = ("A2p", "A3p", "B2", "B3", "C2", "C3")


@dataclass(frozen=True)
class ExtremalCertificate:
    """Tagged partition witness; which fields matter depends on ``kind``.

    ``ell`` is the split size for A2p; ``pair`` is the blocked (u, v) for
    B-kinds and the path endpoints for C-kinds.  C-kind clauses are checked
    against a forest supplied at verification time.
    """

    kind: str
    X: frozenset[int]
    Y: frozenset[int]
    ell: int | None = None
    pair: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise InputError(f"unknown certificate kind {self.kind!r}")


def detect_identical_split(collection: GraphCollection) -> tuple[int, frozenset[int], frozenset[int]] | None:
    """The unique two-clique split when all colors equal K_l + K_(n-l).

    Requires both sides nonempty, so a complete collection (single clique)
    does not qualify.  Returns (l, X, Y) with X the side of vertex 0.  In a
    split, vertex 0's side is its closed neighbourhood N[0]; checking that
    every vertex sees exactly the rest of its side rejects any other shape.
    """
    if collection.n_colors == 0 or collection.n_vertices < 2:
        return None
    first = collection.adjacency[0]
    if any(row != first for row in collection.adjacency[1:]):
        return None
    n = collection.n_vertices
    x_mask = first[0] | 1
    y_mask = ((1 << n) - 1) ^ x_mask
    if not y_mask:
        return None
    for v in range(n):
        side = x_mask if x_mask >> v & 1 else y_mask
        if first[v] != side & ~(1 << v):
            return None
    X = frozenset(v for v in range(n) if x_mask >> v & 1)
    return len(X), X, frozenset(range(n)) - X


def detect_independent_heavy_side(collection: GraphCollection) -> tuple[frozenset[int], frozenset[int]] | None:
    """Partition with |Y| = n/2 + 1 and Y independent in every color.

    Y independent in every color is equivalent to Y independent in the union
    graph.  Returns the first Y = V minus N(y) in the union, for y in
    ascending order, that has n/2 + 1 vertices and is independent there.

    This is exact when every color has sigma2 >= n - 2, the precondition
    of ``li2_dispatch``.  Every y in a heavy side Y has N(y) inside X, which
    has n/2 - 1 vertices; two vertices of Y are non-adjacent, so the bound
    forces both degrees to n/2 - 1 in every color.  Hence N(y) = X and
    Y = V minus N(y) for each y in Y.  Two heavy sides cannot share a vertex
    and two disjoint ones would need n + 2 vertices, so Y is unique.  On
    other inputs any Y returned is still a heavy side, but one may be missed.
    """
    n = collection.n_vertices
    if n % 2 != 0:
        return None
    size = n // 2 + 1
    union = collection.union_adjacency()
    full = (1 << n) - 1
    for y in range(n):
        y_mask = full ^ union[y]
        if y_mask.bit_count() != size:
            continue
        members = [z for z in range(n) if y_mask >> z & 1]
        if all(not union[z] & y_mask for z in members):
            Y = frozenset(members)
            return frozenset(range(n)) - Y, Y
    return None


def _normalized_components(forest: RainbowLinearForest, pair: tuple[int, int] | None) -> list[tuple[int, ...]]:
    comps = list(forest.components)
    if pair is not None:
        present = forest.vertices()
        for endpoint in pair:
            if endpoint not in present:
                comps.append((endpoint,))
    return comps


def certificate_violations(
    collection: GraphCollection,
    cert: ExtremalCertificate,
    forest: RainbowLinearForest | None = None,
) -> list[str]:
    """Literal clause-by-clause check of ``cert`` against the collection."""
    n = collection.n_vertices
    X, Y = cert.X, cert.Y
    problems: list[str] = []

    def check_partition_of(universe: set[int]) -> None:
        if X & Y:
            problems.append("X and Y overlap")
        if X | Y != universe:
            problems.append("X and Y do not partition the required vertex set")

    def all_pairs_present(colors, side_a, side_b, label) -> None:
        for c in colors:
            for a in side_a:
                for b in side_b:
                    if a != b and not collection.has_edge(c, a, b):
                        problems.append(f"{label}: edge ({min(a,b)},{max(a,b)}) missing in color {c}")
                        return

    def clique(colors, side, label) -> None:
        side_list = sorted(side)
        for c in colors:
            for i, a in enumerate(side_list):
                for b in side_list[i + 1:]:
                    if not collection.has_edge(c, a, b):
                        problems.append(f"{label}: clique edge ({a},{b}) missing in color {c}")
                        return

    def independent(colors, side, label) -> None:
        side_list = sorted(side)
        for c in colors:
            for i, a in enumerate(side_list):
                for b in side_list[i + 1:]:
                    if collection.has_edge(c, a, b):
                        problems.append(f"{label}: edge ({a},{b}) present in color {c}")
                        return

    def no_cross(colors, label) -> None:
        for c in colors:
            for a in sorted(X):
                for b in sorted(Y):
                    if collection.has_edge(c, a, b):
                        problems.append(f"{label}: cross edge ({min(a,b)},{max(a,b)}) present in color {c}")
                        return

    every_color = range(collection.n_colors)

    if cert.kind == "A2p":
        check_partition_of(set(range(n)))
        if not X or not Y:
            problems.append("A2p requires both cliques nonempty")
        if cert.ell is not None and cert.ell != len(X):
            problems.append(f"ell={cert.ell} does not match |X|={len(X)}")
        first = collection.adjacency[0] if collection.n_colors else None
        for row in collection.adjacency[1:]:
            if row != first:
                problems.append("colors are not identical")
                break
        clique(every_color, X, "A2p X")
        clique(every_color, Y, "A2p Y")
        no_cross(every_color, "A2p")
    elif cert.kind == "A3p":
        if n % 2 != 0:
            problems.append("A3p requires an even vertex count")
        else:
            if len(X) != n // 2 - 1 or len(Y) != n // 2 + 1:
                problems.append(f"A3p sizes must be (n/2-1, n/2+1), got ({len(X)},{len(Y)})")
        check_partition_of(set(range(n)))
        independent(every_color, Y, "A3p Y")
    elif cert.kind in ("B2", "B3"):
        if cert.pair is None:
            problems.append(f"{cert.kind} requires a blocked pair")
            return problems
        u, v = cert.pair
        if cert.kind == "B2":
            check_partition_of(set(range(n)) - {u, v})
            if not X or not Y:
                problems.append("B2 requires both sides nonempty")
            clique(every_color, X, "B2 X")
            clique(every_color, Y, "B2 Y")
            no_cross(every_color, "B2")
            all_pairs_present(every_color, {u}, X | Y, "B2 u-adjacency")
            all_pairs_present(every_color, {v}, X | Y, "B2 v-adjacency")
        else:
            if n % 2 != 0:
                problems.append("B3 requires an even vertex count")
            elif len(X) != n // 2 or len(Y) != n // 2:
                problems.append(f"B3 sides must both have n/2 vertices, got ({len(X)},{len(Y)})")
            check_partition_of(set(range(n)))
            if u not in X or v not in X:
                problems.append("B3 requires the blocked pair inside X")
            all_pairs_present(every_color, X, Y, "B3 bipartite completeness")
    elif cert.kind in ("C2", "C3"):
        if forest is None:
            problems.append(f"{cert.kind} requires the forest context")
            return problems
        unused = [c for c in every_color if c not in forest.colors()]
        comps = _normalized_components(forest, cert.pair)
        h_vertices = {x for comp in comps for x in comp}
        if cert.kind == "C2":
            if len(comps) != 2:
                problems.append(f"C2 requires exactly two forest components, got {len(comps)}")
            if cert.pair is not None:
                u, v = cert.pair
                if not any(u in comp for comp in comps) or not any(v in comp for comp in comps):
                    problems.append("C2 endpoints must lie in the forest components")
            check_partition_of(set(range(n)) - h_vertices)
            if not X or not Y:
                problems.append("C2 requires both sides nonempty")
            clique(unused, X, "C2 X")
            clique(unused, Y, "C2 Y")
            no_cross(unused, "C2")
            all_pairs_present(unused, h_vertices, X | Y, "C2 forest adjacency")
        else:
            k = forest.edge_count
            if (n + k) % 2 != 0:
                problems.append("C3 requires n+k even")
            elif len(X) != (n + k) // 2 or len(Y) != (n - k) // 2:
                problems.append(
                    f"C3 sides must be ((n+k)/2,(n-k)/2), got ({len(X)},{len(Y)})"
                )
            check_partition_of(set(range(n)))
            if not h_vertices <= X:
                problems.append("C3 requires every forest vertex inside X")
            all_pairs_present(unused, X, Y, "C3 bipartite completeness")
            independent(unused, Y, "C3 Y")
    return problems


def verify_certificate(
    collection: GraphCollection,
    cert: ExtremalCertificate,
    forest: RainbowLinearForest | None = None,
) -> bool:
    return not certificate_violations(collection, cert, forest)


def cycle_from_extremal(collection: GraphCollection, cert: ExtremalCertificate) -> CycleCertificate:
    """Build a rainbow Hamiltonian cycle from a verified B2 or B3 certificate.

    B2: u bridges into the X-clique, v into the Y-clique; B3: alternate the
    two sides of the complete bipartite structure.  Every cycle edge exists
    in every color, so the color matching cannot fail; if it does, something
    upstream is broken and we say so loudly.
    """
    if cert.kind not in ("B2", "B3"):
        raise InputError(f"cycle construction needs a B2 or B3 certificate, got {cert.kind}")
    if not verify_certificate(collection, cert):
        raise InputError("certificate does not verify against the collection")
    if not check_hypothesis(collection, 0):
        raise InputError("collection does not satisfy the sigma2 >= n hypothesis")
    u, v = cert.pair  # type: ignore[misc]
    if cert.kind == "B2":
        order = [u, *sorted(cert.X), v, *sorted(cert.Y)]
    else:
        xs = sorted(cert.X)
        ys = sorted(cert.Y)
        order = [val for pair in zip(xs, ys) for val in pair]
    n = collection.n_vertices
    edges = [(order[i], order[(i + 1) % n]) for i in range(n)]
    assignment = rainbow_assignment(collection, edges)
    if assignment is None:
        raise InternalError(
            f"cycle edges of a verified {cert.kind} certificate are not rainbow-colorable",
            bundle={"kind": cert.kind, "order": order},
        )
    from .model import canonical_edge

    coloring = tuple(assignment[canonical_edge(*edges[i])] for i in range(n))
    return CycleCertificate(tuple(order), coloring)
