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
from functools import cache, cached_property
from itertools import combinations, repeat
from typing import Iterable, Iterator, Sequence

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

    @classmethod
    def from_rows(cls, n_vertices: int, rows: Iterable[Iterable[int]]) -> "GraphCollection":
        """Collection from per-color neighbour masks, checked to be a simple graph.

        ``rows[color][vertex]`` is the neighbour mask of ``vertex``.  Raises
        InputError when a mask is negative or has a bit >= n, when a vertex
        is its own neighbour, or when the masks of a color are not symmetric.
        """
        if n_vertices < 1:
            raise InputError(f"need at least one vertex, got {n_vertices}")
        n = n_vertices
        size = bit_matrix_plan(n)[0] // 8
        checked: list[tuple[int, ...]] = []
        for color, masks in enumerate(rows):
            masks = tuple(masks)
            if len(masks) != n:
                raise InputError(f"color {color} has {len(masks)} masks, expected {n}")
            if min(masks) < 0 or max(masks) >> n:
                vertex = next(v for v, mask in enumerate(masks) if mask >> n)
                raise InputError(
                    f"mask of vertex {vertex} in color {color} is outside [0, 2^{n})"
                )
            packed = b"".join(map(int.to_bytes, masks, repeat(size), repeat("little")))
            check_bit_matrix(int.from_bytes(packed, "little"), n, color)
            checked.append(masks)
        return cls(n, tuple(checked))

    @property
    def n_colors(self) -> int:
        return len(self.adjacency)

    @cached_property
    def sigma2s(self) -> tuple[float, ...]:
        """The exact ``sigma2`` of every color by ``_exact_sigma2``, so once
        per row tuple (the collection is immutable) and shared with
        ``sigma2_below``; ``seed_sigma2s`` can supply the values instead."""
        return tuple(map(self._exact_sigma2, range(self.n_colors)))

    def sigma2_below(self, bound: float, colors: Iterable[int] | None = None) -> Iterator[int]:
        """The colors among ``colors`` (default: all) whose ``sigma2`` is
        below ``bound``, in order and lazily, so a caller may stop at one.

        A color's known sigma2 (seeded, or computed earlier) decides.  Else
        the color passes when twice its minimum degree reaches ``bound``
        (Dirac's condition implies Ore's: a non-adjacent pair's degree sum is
        at least 2·δ), and only else is its exact sigma2 computed, once per
        row tuple, and kept.  So the answer is the exact sigma2's for every
        bound, and a seeded collection reads its values alone.  Seeded values
        keep their own branch, not the per-row table: filling that table
        would build a dict and a floors tuple for every seeded collection.
        """
        colors = range(self.n_colors) if colors is None else colors
        known = self.__dict__.get("sigma2s")
        if known is not None:
            return (c for c in colors if known[c] < bound)
        floors = self._sigma2_floors
        return (c for c in colors if floors[c] < bound and self._exact_sigma2(c) < bound)

    @cached_property
    def _sigma2_floors(self) -> tuple[int, ...]:
        """Twice every color's minimum degree, once per row tuple."""
        rows = {id(row): row for row in self.adjacency}
        floor = {key: 2 * min(map(int.bit_count, row)) for key, row in rows.items()}
        return tuple(floor[id(row)] for row in self.adjacency)

    def _exact_sigma2(self, color: int) -> float:
        """``sigma2`` of ``color``, kept by the id of its row tuple."""
        exact, row = self.__dict__.setdefault("_sigma2_exact", {}), self.adjacency[color]
        if id(row) not in exact:
            exact[id(row)] = sigma2(self, color)
        return exact[id(row)]

    def seed_sigma2s(self, values: Iterable[float]) -> "GraphCollection":
        """Set ``sigma2s`` to ``values``, computed by the caller from these rows."""
        self.__dict__["sigma2s"] = tuple(values)
        return self

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

    @cached_property
    def _memo(self) -> dict:
        """What ``color_mask`` and ``allowed_matrices`` remember: an edge maps
        to its color mask, a reserved-color mask (an int) to its two graphs.
        One dict keeps the per-collection cost to one attribute."""
        return {}

    def color_mask(self, u: int, v: int) -> int:
        """Bitmask of the colors whose graph has edge uv, memoised per pair on
        first use like ``sigma2s``: every solve on the collection shares it."""
        key = (u, v) if u < v else (v, u)
        if key not in self._memo:
            self._memo[key] = self._scan_color_mask(*key)
        return self._memo[key]

    def _scan_color_mask(self, u: int, v: int) -> int:
        bit = 1 << v
        return sum(1 << c for c, row in enumerate(self.adjacency) if row[u] & bit)

    def allowed_matrices(self, reserved: int) -> tuple[int, int]:
        """The union and the shared graph of the colors outside the
        ``reserved`` color mask, memoised per mask like ``color_mask``.

        Edge xy is in the union graph when some such color has it, and in the
        shared graph when two or more do.  Each graph is one n x n bit
        matrix, row x at bit x * n (``matrix_rows`` reads the rows back), so
        the memo holds two ints per mask."""
        matrices = self._memo.get(reserved)
        if matrices is None:
            n = self.n_vertices
            union = shared = [0] * n
            for color, row in enumerate(self.adjacency):
                if not reserved >> color & 1:
                    shared = [s | u & r for s, u, r in zip(shared, union, row)]
                    union = [u | r for u, r in zip(union, row)]
            matrices = self._memo[reserved] = (
                sum(mask << x * n for x, mask in enumerate(union)),
                sum(mask << x * n for x, mask in enumerate(shared)),
            )
        return matrices


def matrix_rows(matrix: int, n: int) -> list[int]:
    """The n neighbour masks of an n x n bit matrix, row x at bit x * n."""
    full = (1 << n) - 1
    return [matrix >> shift & full for shift in range(0, n * n, n)]


@cache
def bit_matrix_plan(n: int) -> tuple[int, tuple[tuple[int, int], ...], int]:
    """How the masks of n vertices are laid out as one bit matrix and transposed.

    Returns ``stride``, the row length in bits (a power of two, at least 8
    so that a row is whole bytes; bit ``vertex * stride + other`` is bit
    ``other`` of ``vertex``'s mask); the (shift, block) rounds that transpose a
    ``stride`` x ``stride`` bit matrix by masked delta swaps (Warren,
    *Hacker's Delight*, 2nd ed., section 7-3); and the diagonal of the first n
    rows.  The round for half-width h swaps entry (r, c) with (r + h, c - h)
    wherever bit h of r is clear and of c set; ``block`` marks those (r, c).
    """
    stride = max(8, 1 << (n - 1).bit_length())
    rounds = []
    half = stride // 2
    while half:
        columns = sum(1 << c for c in range(stride) if c & half)
        block = sum(columns << r * stride for r in range(stride) if not r & half)
        rounds.append((half * (stride - 1), block))
        half //= 2
    diagonal = sum(1 << v * (stride + 1) for v in range(n))
    return stride, tuple(rounds), diagonal


def transpose_bit_matrix(matrix: int, n: int) -> int:
    """The transpose of ``matrix``, n masks laid out as ``bit_matrix_plan``
    says, by its masked delta swaps."""
    for shift, block in bit_matrix_plan(n)[1]:
        flip = (matrix ^ matrix >> shift) & block
        matrix ^= flip | flip << shift
    return matrix


def check_bit_matrix(matrix: int, n: int, color: int) -> None:
    """Raise InputError unless ``matrix``, the n neighbour masks of ``color``
    laid out as ``bit_matrix_plan`` says, is a simple graph: no bit at or
    beyond n, no loop, and symmetric.  The first failing vertex is named."""
    stride, _, diagonal = bit_matrix_plan(n)
    transpose = transpose_bit_matrix(matrix, n)
    # A set column >= n is a set row >= n of the transpose.
    if transpose >> n * stride:
        vertex = next(v for v in range(n) if matrix >> v * stride + n & (1 << stride - n) - 1)
        raise InputError(f"mask of vertex {vertex} in color {color} is outside [0, 2^{n})")
    loops = matrix & diagonal
    if loops:
        vertex = ((loops & -loops).bit_length() - 1) // stride
        raise InputError(f"loop at vertex {vertex} in color {color}")
    # Row ``vertex`` of the difference is nonzero iff ``vertex``'s mask
    # differs from its column, so the lowest set bit names the first one.
    asymmetric = transpose ^ matrix
    if asymmetric:
        vertex = ((asymmetric & -asymmetric).bit_length() - 1) // stride
        raise InputError(f"mask of vertex {vertex} in color {color} is not symmetric")


def bits(mask: int) -> list[int]:
    """Positions of the set bits of ``mask``, ascending."""
    return [x for x in range(mask.bit_length()) if mask >> x & 1]


def mask_of(items: Iterable[int]) -> int:
    """The bitmask with the bit of each of ``items`` set; ``bits`` inverts it."""
    return sum(1 << x for x in set(items))


def degree(collection: GraphCollection, color: int, vertex: int) -> int:
    """Number of neighbors of ``vertex`` in the graph of ``color``."""
    collection.check_color(color)
    collection.check_vertex(vertex)
    return collection.adjacency[color][vertex].bit_count()


def sigma2(collection: GraphCollection, color: int) -> float:
    """Minimum degree sum over non-adjacent pairs; infinity on complete graphs."""
    collection.check_color(color)
    return row_sigma2(collection.adjacency[color])


def row_sigma2(row: Sequence[int], active: int | None = None) -> float:
    """``sigma2`` of one graph given as its per-vertex neighbour masks.

    With ``active``, of the graph induced on that vertex mask.  Vertices are
    scanned in ascending degree order.  Once twice the current degree
    reaches the best sum, every pair not yet scanned has both degrees at
    least that large (inactive vertices included), so the scan stops.
    """
    n = len(row)
    if active is None:
        active = (1 << n) - 1
        degs = list(map(int.bit_count, row))
    else:
        degs = [(mask & active).bit_count() for mask in row]
    best: float = INFINITE_SIGMA2
    for u in sorted(range(n), key=degs.__getitem__):
        du = degs[u]
        if 2 * du >= best:
            break
        rest = active & ~row[u] & ~(1 << u) if active >> u & 1 else 0
        while rest:
            low = rest & -rest
            s = du + degs[low.bit_length() - 1]
            if s < best:
                best = s
            rest ^= low
    return best


def check_hypothesis(collection: GraphCollection, k: int) -> bool:
    """True iff the collection has n colors and sigma2 >= n+k in each of them.

    Asks ``sigma2_below`` in color order and stops at the first color that
    misses n+k, so a color whose doubled minimum degree reaches n+k, or
    whose sigma2 is known, is not scanned.
    """
    if collection.n_colors != collection.n_vertices:
        raise InputError(
            f"hypothesis needs exactly n={collection.n_vertices} colors, "
            f"got {collection.n_colors}"
        )
    return next(collection.sigma2_below(collection.n_vertices + k), None) is None


# ---------------------------------------------------------------------------
# Rainbow assignment: exact edge -> color matching
# ---------------------------------------------------------------------------

def _augment(edge_idx: int, admissible: list[int], color_owner: dict[int, int],
             visited: list[int]) -> bool:
    # One augmenting-path pass of Kuhn's matching algorithm over color masks,
    # trying colors in ascending order; ``visited[0]`` masks those seen.
    free = admissible[edge_idx] & ~visited[0]
    while free:
        low = free & -free
        visited[0] |= low
        color = low.bit_length() - 1
        if color not in color_owner or _augment(color_owner[color], admissible, color_owner, visited):
            color_owner[color] = edge_idx
            return True
        free &= ~visited[0]
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
    allowed = ~mask_of(forbidden_colors)
    admissible = [collection.color_mask(u, v) & allowed for u, v in edge_list]
    color_owner: dict[int, int] = {}
    for idx in range(len(edge_list)):
        if not _augment(idx, admissible, color_owner, [0]):
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


#: One rotation step of a ``RotationDerivation``: (parent, side, p, c).
RotationStep = tuple[int, int, int, int]


@dataclass(frozen=True)
class RotationDerivation:
    """Rainbow Hamiltonian paths between vertex pairs, as seed paths and the
    Pósa rotations that derive the rest from them.

    ``entries`` is ordered.  An entry is a seed ``PathCertificate`` or a
    step (parent, side, p, c): take the path of the earlier entry
    ``parent``, reversed when ``side`` is 1, join order[p] to its back end
    in color c and reverse the tail after p, so order[p+1] becomes the new
    back end.  Each entry covers the sorted pair of its path's ends.
    ``replay_derivation`` checks the entries and builds their paths.
    """

    entries: tuple[PathCertificate | RotationStep, ...]


def _walk_violations(collection: GraphCollection, steps: Iterable[tuple[int, int, int]],
                     problems: list[str]) -> dict[Edge, int]:
    """Check each (a, b, color) step of a walk with distinct vertices, in
    one pass shared by paths and cycles.

    Appends the violations to ``problems`` in walk order: a color out of
    range, an edge absent from its color, a color used twice.  Returns the
    color of every edge whose color is in range, which a path's forest
    check reads.
    """
    consecutive: dict[Edge, int] = {}
    seen_colors: set[int] = set()
    m, adjacency = collection.n_colors, collection.adjacency
    for a, b, color in steps:
        edge = (a, b) if a < b else (b, a)
        if not (0 <= color < m):
            problems.append(f"color {color} out of range on edge {edge}")
            continue
        if not adjacency[color][a] >> b & 1:
            problems.append(f"edge {edge} absent from color {color}")
        if color in seen_colors:
            problems.append(f"color {color} used more than once")
        seen_colors.add(color)
        consecutive[edge] = color
    return consecutive


def path_certificate_violations(
    collection: GraphCollection,
    cert: PathCertificate,
    forest: "object | None" = None,
    active: int | None = None,
) -> list[str]:
    """All violated invariants of a path certificate, empty when valid.

    ``forest`` (a RainbowLinearForest) is the fixed-forest context: each of
    its edges must appear consecutively in the order and carry exactly its
    fixed color.  With ``active`` (a vertex mask) the path must span exactly
    those vertices instead of all of them.  After the permutation check the
    walk goes once through ``_walk_violations``, whose messages come in walk
    order, then the forest's, which read the edge colors it returns.
    """
    n = collection.n_vertices
    order, coloring = cert.order, cert.coloring
    if sorted(order) != (list(range(n)) if active is None else bits(active)):
        span = f"0..{n - 1}" if active is None else "the active vertices"
        return [f"order is not a permutation of {span}"]
    problems: list[str] = []
    consecutive = _walk_violations(collection, zip(order, order[1:], coloring), problems)
    fixed = {} if forest is None else forest.fixed_colors
    for edge, color in fixed.items():
        if edge not in consecutive:
            problems.append(f"forest edge {edge} is not consecutive on the path")
        elif consecutive[edge] != color:
            problems.append(f"forest edge {edge} carries color {consecutive[edge]}, fixed {color}")
    return problems


def replay_derivation(collection: GraphCollection, derivation: RotationDerivation,
                      problems: list[str]) -> dict[Edge, PathCertificate]:
    """Check ``derivation`` and return its paths by sorted end pair, each
    read from its smaller end.

    A seed is checked in full by ``path_certificate_violations``.  Any
    other entry must be a step, a tuple of four ints (a bool is not one),
    and is checked in O(1) given its parent: the parent is an earlier
    entry, the side is 0 or 1, 0 <= p <= n-3, 0 <= c < m, the edge
    (order[p], back) is in color c, and c is colors[p] or not a color of
    the parent path (each entry's color mask is carried with its path).
    No pair may be covered twice.  The first entry at fault appends its
    problems to ``problems`` and ends the replay, as later steps may rotate
    its path; once every entry passes, each pair that no entry covers is a
    problem.

    Every replayed path is then a rainbow Hamiltonian path, by induction
    over the entries.  A seed is checked in full.  A step's vertex list is
    its parent's prefix up to p followed by the reversed rest, so it stays a
    permutation.  It keeps every parent edge but the cut one, (order[p],
    order[p+1]), with its color (a reversed tail keeps its edges), and adds
    (order[p], back), checked present in color c.  Its colors are the
    parent's without colors[p] and with c, which is colors[p] again or a
    color the parent does not use, so they stay distinct.
    """
    n, m, adjacency = collection.n_vertices, collection.n_colors, collection.adjacency
    states: list[tuple[tuple[int, ...], tuple[int, ...], int]] = []
    paths: dict[Edge, PathCertificate] = {}
    for index, entry in enumerate(derivation.entries):
        if isinstance(entry, PathCertificate):
            faults = [f"seed {index}: {problem}" for problem in path_certificate_violations(collection, entry)]
            if faults:
                problems.extend(faults)
                return paths
            order, colors = tuple(entry.order), tuple(entry.coloring)
            mask = mask_of(colors)
        else:
            # Any other shape unpacks to four Nones, which fail the type test.
            parent, side, p, c = entry if type(entry) is tuple and len(entry) == 4 else (None,) * 4
            fault = None
            if not (type(parent) is type(side) is type(p) is type(c) is int):
                fault = f"{entry!r} is not a seed path or a step of four ints"
            elif not 0 <= parent < index:
                fault = f"parent {parent} is not an earlier entry"
            elif side not in (0, 1):
                fault = f"side {side} is not 0 or 1"
            elif not 0 <= p < n - 2:
                fault = f"pivot {p} out of range [0,{n - 2})"
            elif not 0 <= c < m:
                fault = f"color {c} out of range [0,{m})"
            else:
                order, colors, mask = states[parent]
                if side:
                    order, colors = order[::-1], colors[::-1]
                a, back = order[p], order[-1]
                if not adjacency[c][a] >> back & 1:
                    fault = f"edge {canonical_edge(a, back)} absent from color {c}"
                elif c != colors[p] and mask >> c & 1:
                    fault = f"color {c} is already on the parent path"
                else:
                    mask = mask & ~(1 << colors[p]) | 1 << c
                    order, colors = order[: p + 1] + order[:p:-1], colors[:p] + (c,) + colors[:p:-1]
            if fault:
                problems.append(f"step {index}: {fault}")
                return paths
        u, v = order[0], order[-1]
        pair = (u, v) if u < v else (v, u)
        if pair in paths:
            kind = "seed" if isinstance(entry, PathCertificate) else "step"
            problems.append(f"{kind} {index}: pair {pair} is already covered")
            return paths
        paths[pair] = (PathCertificate(order, colors) if u < v
                       else PathCertificate(order[::-1], colors[::-1]))
        states.append((order, colors, mask))
    if len(paths) != n * (n - 1) // 2:
        problems.extend(f"pair {pair} is not covered"
                        for pair in combinations(range(n), 2) if pair not in paths)
    return paths


def derivation_violations(collection: GraphCollection, derivation: RotationDerivation) -> list[str]:
    """All problems ``replay_derivation`` finds in ``derivation``; empty when valid."""
    problems: list[str] = []
    replay_derivation(collection, derivation, problems)
    return problems


def validate_path_certificate(
    collection: GraphCollection,
    cert: PathCertificate,
    forest: "object | None" = None,
) -> bool:
    return not path_certificate_violations(collection, cert, forest)


def cycle_certificate_violations(collection: GraphCollection, cert: CycleCertificate) -> list[str]:
    """All violated invariants of a cycle certificate, empty when valid.

    Checks the permutation and n >= 3, then runs ``_walk_violations``
    once over the walk with its closing edge.
    """
    n = collection.n_vertices
    order = cert.order
    if sorted(order) != list(range(n)):
        return [f"order is not a permutation of 0..{n - 1}"]
    if n < 3:
        return ["a cycle needs at least 3 vertices"]
    problems: list[str] = []
    _walk_violations(collection, zip(order, order[1:] + order[:1], cert.coloring), problems)
    return problems


def validate_cycle_certificate(collection: GraphCollection, cert: CycleCertificate) -> bool:
    return not cycle_certificate_violations(collection, cert)
