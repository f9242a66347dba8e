"""Extremal-structure detectors, clause-level verifiers, and cycle builders.

An extremal certificate explains why a rainbow Hamiltonian path can fail
to exist, in one of two shapes: two cliques with no edges between them
(A2p, B2, C2), or a heavy side Y independent in every color (A3p, B3, C3;
complete to X at levels B and C).  Each shape appears at one of three
levels: the reduced spanning path (A), a bare vertex pair (B) and a pair
around an embedded forest (C); level B is level C with the empty forest.
The verifier checks one clause set per shape, and the level supplies only
the hub, the colors checked and the size gap; the hub is the pair plus the
forest components ``forest.pair_components`` says a path must respect.
Every clause is checked literally against the collection, so a verified
certificate is a machine-checkable witness.  The same checker takes path and cycle
certificates and rotation derivations, so one function checks every answer.  The two reduced-level
detectors read their structure off one vertex's neighbourhood, with no search.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Sequence

from .forest import RainbowLinearForest, pair_components
from .model import (
    CycleCertificate,
    GraphCollection,
    InputError,
    InternalError,
    PathCertificate,
    RotationDerivation,
    bits,
    canonical_edge,
    check_hypothesis,
    cycle_certificate_violations,
    derivation_violations,
    mask_of,
    path_certificate_violations,
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


def _restriction(collection: GraphCollection, active: int | None,
                 colors: int | None) -> tuple[int, Sequence[tuple[int, ...]]]:
    """The vertex mask and the color rows a detector reads; None means all."""
    rows = collection.adjacency if colors is None else [collection.adjacency[c] for c in bits(colors)]
    return (1 << collection.n_vertices) - 1 if active is None else active, rows


def detect_identical_split(
    collection: GraphCollection, active: int | None = None, colors: int | None = None
) -> tuple[int, frozenset[int], frozenset[int]] | None:
    """The unique two-clique split when all colors equal K_l + K_(n-l).

    Reads the collection restricted to the ``active`` vertex mask and the
    ``colors`` mask (None: all of them).  Requires both sides nonempty, so a
    complete collection (single clique) does not qualify.  Returns (l, X, Y)
    with X the side of the smallest active vertex x0: its closed
    neighbourhood.  Checking that every vertex sees exactly the rest of its
    side in every color rejects any other shape.
    """
    active, rows = _restriction(collection, active, colors)
    vertices = bits(active)
    if not rows or len(vertices) < 2:
        return None
    first = rows[0]
    x_mask = (first[vertices[0]] & active) | 1 << vertices[0]
    y_mask = active ^ x_mask
    if not y_mask:
        return None
    for v in vertices:
        side = (x_mask if x_mask >> v & 1 else y_mask) & ~(1 << v)
        if any(row[v] & active != side for row in rows):
            return None
    X = frozenset(bits(x_mask))
    return len(X), X, frozenset(bits(y_mask))


def detect_independent_heavy_side(
    collection: GraphCollection, active: int | None = None, colors: int | None = None
) -> tuple[frozenset[int], frozenset[int]] | None:
    """Partition with |Y| = n/2 + 1 and Y independent in every color.

    Reads the collection restricted to the ``active`` vertex mask and the
    ``colors`` mask (None: all of them); n counts the active vertices.
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
    active, rows = _restriction(collection, active, colors)
    n = active.bit_count()
    if n % 2 != 0:
        return None
    size = n // 2 + 1
    for y in bits(active):
        # V minus N(y) only shrinks color by color: stop once it is too small.
        y_mask = active
        for row in rows:
            y_mask &= ~row[y]
            if y_mask.bit_count() < size:
                break
        else:
            if y_mask.bit_count() != size:
                continue
            members = bits(y_mask)
            if all(not row[z] & y_mask for row in rows for z in members):
                return frozenset(bits(active ^ y_mask)), frozenset(members)
    return None


def _low(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def certificate_violations(
    collection: GraphCollection,
    cert: PathCertificate | CycleCertificate | RotationDerivation | ExtremalCertificate,
    forest: RainbowLinearForest | None = None,
) -> list[str]:
    """Every problem with any certificate against the collection; empty when valid.

    A path must contain ``forest`` in its fixed colors; a cycle and a
    rotation derivation (replayed by ``derivation_violations``) ignore it.
    An extremal certificate is checked clause by clause.  The hub is empty
    at level A and the pair plus the forest's vertices at levels B and C;
    levels A and B check every color, level C the colors the forest leaves
    unused.  The hub and the component count read the components that
    ``forest.pair_components`` says a path between the pair must respect,
    the rule the solver's plan and the path oracle read too.  A pair that is
    not two distinct vertices, or a named vertex that is not an int in
    [0, n), is the only problem reported: no clause can read it.
    """
    if isinstance(cert, PathCertificate):
        return path_certificate_violations(collection, cert, forest)
    if isinstance(cert, CycleCertificate):
        return cycle_certificate_violations(collection, cert)
    if isinstance(cert, RotationDerivation):
        return derivation_violations(collection, cert)
    n = collection.n_vertices
    kind, level, X, Y = cert.kind, cert.kind[0], cert.X, cert.Y
    if cert.pair is not None and (len(cert.pair) != 2 or cert.pair[0] == cert.pair[1]):
        return [f"{kind} pair {list(cert.pair)} is not two distinct vertices"]
    named = (("pair", cert.pair or ()), ("X", X), ("Y", Y))
    outside = [f"{kind} {side} vertex {x!r} is not in [0,{n})" for side, members in named
               for x in sorted(members, key=repr) if type(x) is not int or not 0 <= x < n]
    if outside:
        return outside
    if level == "B":
        if cert.pair is None:
            return [f"{kind} requires a blocked pair"]
        forest = RainbowLinearForest.empty()
    elif level == "C" and forest is None:
        return [f"{kind} requires the forest context"]
    hub, colors = set(), range(collection.n_colors)
    if level != "A":
        # The hub's insertion order fixes the order the clauses scan it in.
        comps = pair_components(forest, cert.pair or ())
        hub = {x for comp in comps for x in comp}
        used = forest.colors()
        colors = [c for c in colors if c not in used]
    problems: list[str] = []

    def check_partition_of(universe: set[int]) -> None:
        if X & Y:
            problems.append("X and Y overlap")
        if X | Y != universe:
            problems.append("X and Y do not partition the required vertex set")

    # Each helper compares whole neighbour masks with a side mask, and reports
    # the first failing pair in the order a pair-by-pair scan would meet it.
    def all_pairs_present(side_a, side_b, label) -> None:
        b_mask = mask_of(side_b)
        for c, a in product(colors, side_a):
            missing = b_mask & ~collection.adjacency[c][a] & ~(1 << a)
            if missing:
                b = next(b for b in side_b if missing >> b & 1)
                problems.append(f"{label}: edge ({min(a,b)},{max(a,b)}) missing in color {c}")
                return

    def within(side, label, edges: bool) -> None:
        # Every pair inside ``side`` is an edge (a clique) or none is.
        side_mask = mask_of(side)
        for c, a in product(colors, sorted(side)):
            row = collection.adjacency[c][a]
            bad = side_mask >> (a + 1) << (a + 1) & (~row if edges else row)
            if bad:
                pair = f"({a},{_low(bad)})"
                problems.append(f"{label}: clique edge {pair} missing in color {c}" if edges
                                else f"{label}: edge {pair} present in color {c}")
                return

    def no_cross() -> None:
        y_mask = mask_of(Y)
        for c, a in product(colors, sorted(X)):
            present = y_mask & collection.adjacency[c][a]
            if present:
                b = _low(present)
                problems.append(f"{kind}: cross edge ({min(a,b)},{max(a,b)}) present in color {c}")
                return

    if kind[1] == "2":
        # Two cliques with no edges between them, both seen by the whole hub.
        if level != "A" and len(comps) != 2:
            problems.append(f"{kind} requires exactly two forest components, got {len(comps)}")
        check_partition_of(set(range(n)) - hub)
        if not X or not Y:
            problems.append(f"{kind} requires both {'cliques' if level == 'A' else 'sides'} nonempty")
        if level == "A":
            if cert.ell is not None and cert.ell != len(X):
                problems.append(f"ell={cert.ell} does not match |X|={len(X)}")
            if any(row != collection.adjacency[0] for row in collection.adjacency[1:]):
                problems.append("colors are not identical")
        within(X, f"{kind} X", edges=True)
        within(Y, f"{kind} Y", edges=True)
        no_cross()
        all_pairs_present(hub, X | Y, f"{kind} forest adjacency")
    else:
        # A heavy side Y, independent, with the hub inside X.  At level A its
        # size alone blocks; at levels B and C it is also complete to X.
        if level == "A":
            gap, parity, sizes = -2, "an even vertex count", "sizes must be (n/2-1, n/2+1)"
        else:
            gap, parity, sizes = forest.edge_count, "n+k even", "sides must be ((n+k)/2,(n-k)/2)"
        if (n + gap) % 2 != 0:
            problems.append(f"{kind} requires {parity}")
        elif len(X) != (n + gap) // 2 or len(Y) != (n - gap) // 2:
            problems.append(f"{kind} {sizes}, got ({len(X)},{len(Y)})")
        check_partition_of(set(range(n)))
        if not hub <= X:
            problems.append(f"{kind} requires every forest vertex inside X")
        if level != "A":
            all_pairs_present(X, Y, f"{kind} bipartite completeness")
        within(Y, f"{kind} Y", edges=False)
    return problems


def verify_certificate(
    collection: GraphCollection,
    cert: PathCertificate | CycleCertificate | RotationDerivation | ExtremalCertificate,
    forest: RainbowLinearForest | None = None,
) -> bool:
    return not certificate_violations(collection, cert, forest)


def cycle_from_extremal(collection: GraphCollection, cert: ExtremalCertificate) -> CycleCertificate:
    """Build a rainbow Hamiltonian cycle from a B2 or B3 certificate.

    Raises InputError unless the certificate verifies and the collection
    meets sigma2 >= n; ``cycle_from_checked_extremal`` builds the cycle.
    """
    if cert.kind not in ("B2", "B3"):
        raise InputError(f"cycle construction needs a B2 or B3 certificate, got {cert.kind}")
    if not verify_certificate(collection, cert):
        raise InputError("certificate does not verify against the collection")
    if not check_hypothesis(collection, 0):
        raise InputError("collection does not satisfy the sigma2 >= n hypothesis")
    return cycle_from_checked_extremal(collection, cert)


def cycle_from_checked_extremal(collection: GraphCollection,
                                cert: ExtremalCertificate) -> CycleCertificate:
    """The cycle of ``cycle_from_extremal``, for a B2 or B3 certificate the
    caller has verified on a collection it has checked for sigma2 >= n.

    B2: u bridges into the X-clique, v into the Y-clique; B3: alternate the
    two sides of the complete bipartite structure.  Every cycle edge exists
    in every color, so the color matching cannot fail; if it does, something
    upstream is broken and we say so loudly.
    """
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
    coloring = tuple(assignment[canonical_edge(*edges[i])] for i in range(n))
    return CycleCertificate(tuple(order), coloring)
