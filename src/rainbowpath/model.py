"""Graph collections, Ore degree sums, and rainbow color assignments.

A collection is a sequence of m simple graphs ("colors") on one shared
vertex set {0, ..., n-1}.  A subgraph is *rainbow* if its edges can be
injectively assigned colors so that every edge is present in the graph of
its color.  Adjacency is stored as one bitmask row per vertex per color,
which keeps degree scans, Ore-sum minima and the search kernels cheap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

Edge = tuple[int, int]

#: Ore sum of a complete graph: the minimum over non-adjacent pairs is empty.
INFINITE_SIGMA2 = math.inf


class InputError(ValueError):
    """Structurally invalid input (bad index, malformed edge, shape mismatch)."""


class InternalError(RuntimeError):
    """A bound that the theory guarantees failed to hold at runtime.

    Either the implementation or the hypothesis check is wrong; never
    swallowed.  ``bundle`` carries a serializable repro payload.
    """

    def __init__(self, message: str, bundle: dict | None = None) -> None:
        super().__init__(message)
        self.bundle = bundle or {}


def canonical_edge(u: int, v: int) -> Edge:
    """Normalize an unordered vertex pair to (min, max); loops are rejected."""
    if u == v:
        raise InputError(f"loop edge ({u},{v}) is not a valid edge")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class GraphCollection:
    """m simple graphs on a shared vertex set, immutable after construction.

    ``adjacency[color][vertex]`` is the neighbor bitmask of ``vertex`` in the
    graph of that color.  Rows are symmetric and irreflexive by construction.
    """

    n_vertices: int
    adjacency: tuple[tuple[int, ...], ...]

    @classmethod
    def from_edge_lists(cls, n_vertices: int, edge_lists: Iterable[Iterable[Edge]]) -> "GraphCollection":
        if n_vertices < 1:
            raise InputError(f"need at least one vertex, got {n_vertices}")
        rows: list[tuple[int, ...]] = []
        for color, edges in enumerate(edge_lists):
            masks = [0] * n_vertices
            seen: set[Edge] = set()
            for raw_u, raw_v in edges:
                u, v = canonical_edge(raw_u, raw_v)
                if not (0 <= u < n_vertices and 0 <= v < n_vertices):
                    raise InputError(f"edge ({u},{v}) out of range in color {color}")
                if (u, v) in seen:
                    raise InputError(f"duplicate edge ({u},{v}) in color {color}")
                seen.add((u, v))
                masks[u] |= 1 << v
                masks[v] |= 1 << u
            rows.append(tuple(masks))
        return cls(n_vertices, tuple(rows))

    @property
    def n_colors(self) -> int:
        return len(self.adjacency)

    @cached_property
    def sigma2s(self) -> tuple[float, ...]:
        """``sigma2`` of every color, computed once: the collection is immutable."""
        return tuple(sigma2(self, c) for c in range(self.n_colors))

    def check_color(self, color: int) -> None:
        if not (0 <= color < self.n_colors):
            raise InputError(f"color {color} out of range [0,{self.n_colors})")

    def check_vertex(self, vertex: int) -> None:
        if not (0 <= vertex < self.n_vertices):
            raise InputError(f"vertex {vertex} out of range [0,{self.n_vertices})")

    def has_edge(self, color: int, u: int, v: int) -> bool:
        return u != v and bool(self.adjacency[color][u] >> v & 1)

    def neighbors_mask(self, color: int, vertex: int) -> int:
        return self.adjacency[color][vertex]

    def edges(self, color: int) -> list[Edge]:
        """Canonically sorted edge list of one color."""
        self.check_color(color)
        row = self.adjacency[color]
        return [
            (u, v)
            for u in range(self.n_vertices)
            for v in range(u + 1, self.n_vertices)
            if row[u] >> v & 1
        ]

    def colors_with_edge(self, u: int, v: int) -> list[int]:
        return [c for c in range(self.n_colors) if self.has_edge(c, u, v)]

    def union_adjacency(self) -> tuple[int, ...]:
        """Per-vertex neighbor masks of the union graph over all colors."""
        masks = [0] * self.n_vertices
        for row in self.adjacency:
            for v in range(self.n_vertices):
                masks[v] |= row[v]
        return tuple(masks)


def degree(collection: GraphCollection, color: int, vertex: int) -> int:
    """Number of neighbors of ``vertex`` in the graph of ``color``."""
    collection.check_color(color)
    collection.check_vertex(vertex)
    return collection.adjacency[color][vertex].bit_count()


def sigma2(collection: GraphCollection, color: int) -> float:
    """Minimum degree sum over non-adjacent pairs; infinity on complete graphs.

    Vertices are scanned in ascending degree order.  Once twice the current
    degree reaches the best sum, every pair not yet scanned has both degrees
    at least that large, so the scan stops.
    """
    collection.check_color(color)
    n = collection.n_vertices
    row = collection.adjacency[color]
    full = (1 << n) - 1
    degs = [mask.bit_count() for mask in row]
    best: float = INFINITE_SIGMA2
    for u in sorted(range(n), key=degs.__getitem__):
        du = degs[u]
        if 2 * du >= best:
            break
        rest = full & ~row[u] & ~(1 << u)
        while rest:
            low = rest & -rest
            s = du + degs[low.bit_length() - 1]
            if s < best:
                best = s
            rest ^= low
    return best


def check_hypothesis(collection: GraphCollection, k: int) -> bool:
    """True iff the collection has n colors and sigma2 >= n+k in each of them."""
    if collection.n_colors != collection.n_vertices:
        raise InputError(
            f"hypothesis needs exactly n={collection.n_vertices} colors, "
            f"got {collection.n_colors}"
        )
    bound = collection.n_vertices + k
    return all(value >= bound for value in collection.sigma2s)


# ---------------------------------------------------------------------------
# Rainbow assignment: exact edge -> color matching
# ---------------------------------------------------------------------------

def _augment(edge_idx: int, admissible: list[list[int]], color_owner: dict[int, int],
             visited: set[int]) -> bool:
    # One augmenting-path pass of Kuhn's matching algorithm.
    for color in admissible[edge_idx]:
        if color in visited:
            continue
        visited.add(color)
        if color not in color_owner or _augment(color_owner[color], admissible, color_owner, visited):
            color_owner[color] = edge_idx
            return True
    return False


def rainbow_assignment(
    collection: GraphCollection,
    edges: Iterable[Edge],
    forbidden_colors: Iterable[int] = (),
) -> dict[Edge, int] | None:
    """Injective edge -> color map avoiding ``forbidden_colors``, or None.

    Decided exactly by maximum bipartite matching between the edges and their
    admissible colors; a greedy pass would be incomplete.
    """
    edge_list = sorted({canonical_edge(u, v) for u, v in edges})
    for u, v in edge_list:
        collection.check_vertex(u)
        collection.check_vertex(v)
    forbidden = set(forbidden_colors)
    admissible = [
        [c for c in collection.colors_with_edge(u, v) if c not in forbidden]
        for u, v in edge_list
    ]
    color_owner: dict[int, int] = {}
    for idx in range(len(edge_list)):
        if not _augment(idx, admissible, color_owner, set()):
            return None
    return {edge_list[owner]: color for color, owner in sorted(color_owner.items())}


# ---------------------------------------------------------------------------
# Path and cycle certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PathCertificate:
    """A vertex order plus an injective coloring of its consecutive edges.

    ``coloring[i]`` is the color of edge (order[i], order[i+1]).  Witnesses a
    rainbow Hamiltonian u,v-path; endpoints are order[0] and order[-1].
    """

    order: tuple[int, ...]
    coloring: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.coloring) != max(len(self.order) - 1, 0):
            raise InputError("coloring length must be len(order)-1")

    @property
    def u(self) -> int:
        return self.order[0]

    @property
    def v(self) -> int:
        return self.order[-1]

    def edge_coloring(self) -> dict[Edge, int]:
        return {
            canonical_edge(self.order[i], self.order[i + 1]): self.coloring[i]
            for i in range(len(self.order) - 1)
        }


@dataclass(frozen=True)
class CycleCertificate:
    """A cyclic vertex order with an injective coloring, wrap-around included."""

    order: tuple[int, ...]
    coloring: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.coloring) != len(self.order):
            raise InputError("cycle coloring length must equal len(order)")

    def edge_coloring(self) -> dict[Edge, int]:
        n = len(self.order)
        return {
            canonical_edge(self.order[i], self.order[(i + 1) % n]): self.coloring[i]
            for i in range(n)
        }


def path_certificate_violations(
    collection: GraphCollection,
    cert: PathCertificate,
    forest: "object | None" = None,
) -> list[str]:
    """All violated invariants of a path certificate, empty when valid.

    ``forest`` (a RainbowLinearForest) is the fixed-forest context: each of
    its edges must appear consecutively in the order and carry exactly its
    fixed color.
    """
    problems: list[str] = []
    n = collection.n_vertices
    if sorted(cert.order) != list(range(n)):
        problems.append(f"order is not a permutation of 0..{n - 1}")
        return problems
    consecutive: dict[Edge, int] = {}
    seen_colors: set[int] = set()
    for i in range(n - 1):
        a, b = cert.order[i], cert.order[i + 1]
        color = cert.coloring[i]
        edge = canonical_edge(a, b)
        if not (0 <= color < collection.n_colors):
            problems.append(f"color {color} out of range on edge {edge}")
            continue
        if not collection.has_edge(color, a, b):
            problems.append(f"edge {edge} absent from color {color}")
        if color in seen_colors:
            problems.append(f"color {color} used more than once")
        seen_colors.add(color)
        consecutive[edge] = color
    if forest is not None:
        for edge, color in forest.fixed_colors.items():
            if edge not in consecutive:
                problems.append(f"forest edge {edge} is not consecutive on the path")
            elif consecutive[edge] != color:
                problems.append(
                    f"forest edge {edge} carries color {consecutive[edge]}, fixed {color}"
                )
    return problems


def validate_path_certificate(
    collection: GraphCollection,
    cert: PathCertificate,
    forest: "object | None" = None,
) -> bool:
    return not path_certificate_violations(collection, cert, forest)


def cycle_certificate_violations(collection: GraphCollection, cert: CycleCertificate) -> list[str]:
    problems: list[str] = []
    n = collection.n_vertices
    if sorted(cert.order) != list(range(n)):
        problems.append(f"order is not a permutation of 0..{n - 1}")
        return problems
    if n < 3:
        problems.append("a cycle needs at least 3 vertices")
        return problems
    seen_colors: set[int] = set()
    for i in range(n):
        a, b = cert.order[i], cert.order[(i + 1) % n]
        color = cert.coloring[i]
        edge = canonical_edge(a, b)
        if not (0 <= color < collection.n_colors):
            problems.append(f"color {color} out of range on edge {edge}")
            continue
        if not collection.has_edge(color, a, b):
            problems.append(f"edge {edge} absent from color {color}")
        if color in seen_colors:
            problems.append(f"color {color} used more than once")
        seen_colors.add(color)
    return problems


def validate_cycle_certificate(collection: GraphCollection, cert: CycleCertificate) -> bool:
    return not cycle_certificate_violations(collection, cert)
