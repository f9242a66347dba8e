"""Exact decision procedures for rainbow Hamiltonian paths and cycles.

One exponential-time but exhaustive kernel, ``exact_search``, serves every
caller: a depth-first search over vertex orders with forest components
forced contiguous.  It keeps an edge-to-color matching of the chosen edges
as it goes, so it never extends an order whose edges cannot be rainbow.  It
remembers the states that have no completion even in the union graph, and
looks a move's state up before matching its edge, so it never searches one
twice.  It also drops a state whose free vertices hold an independent set
too large to thread (Chvátal's toughness count), without searching it.
The oracles below use it as ground truth against the constructive solver
at desk scale, and the solver's spanning-path fallback calls it directly.
Budgets make exhaustion explicit: the kernel raises BudgetExceeded, which
the oracles report as Unknown, never a silent wrong answer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable

from .forest import RainbowLinearForest, is_h_compatible
from .model import (
    CycleCertificate,
    Edge,
    GraphCollection,
    InputError,
    PathCertificate,
    _augment,
    bits,
    canonical_edge,
    mask_of,
)

FOUND = "found"
NOT_FOUND = "not_found"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class OracleBudget:
    """Caps on search effort; exceeding either yields Unknown."""

    node_limit: int = 5_000_000
    time_limit: float = 60.0

    def __post_init__(self) -> None:
        # Written as "not > 0" so that a NaN limit is rejected too.
        if not (self.node_limit > 0 and self.time_limit > 0):
            raise InputError("budget limits must be positive")


class BudgetExceeded(RuntimeError):
    """An exact search ran out of its budget; the answer is Unknown."""

    def __init__(self, message: str, nodes: int) -> None:
        super().__init__(message)
        self.nodes = nodes


@dataclass(frozen=True)
class OracleResult:
    status: str
    certificate: PathCertificate | CycleCertificate | None = None
    nodes: int = 0

    @property
    def found(self) -> bool:
        return self.status == FOUND


def exact_search(
    collection: GraphCollection,
    heads: Iterable[tuple[int, ...]],
    budget: OracleBudget,
    tail: tuple[int, ...] = (),
    segments: tuple[tuple[int, ...], ...] = (),
    reserved: frozenset[int] = frozenset(),
    cycle: bool = False,
    active: int | None = None,
) -> tuple[list[int] | None, dict[Edge, int] | None, int]:
    """Depth-first search for a Hamiltonian order whose new edges are rainbow.

    Each head in turn seeds a prefix, which grows by free vertices and by
    ``segments`` (rigid paths, placed whole in either direction).  With a
    ``tail`` (the fixed end of the path, in path order) the tail grows too,
    from whichever end has fewer continuations, and the order closes by
    joining the two; otherwise it closes open, or with ``cycle`` back onto
    the prefix's first vertex.  A symmetry break at the close accepts open
    orders and cycles in one direction only.  With ``active`` (a vertex
    mask) the order spans only those vertices.

    Chosen edges are matched to colors outside ``reserved`` incrementally:
    each new edge takes its lowest free admissible color, else one
    augmenting path, and an edge that cannot be matched is never descended
    into.  A state (free vertices, segments left, both ends) whose subtree
    failed with no matching failure or symmetry break inside it has no
    completion in the union graph at all, so it is remembered as dead and
    not searched again (the subset DP of Bellman and of Held and Karp,
    1962, restricted to the states the search meets).  A move's state is
    looked up before its edge is matched, and a dead one is skipped
    without counting as a matching failure.

    A state is also dead when its free vertices hold an independent set I
    of the union graph with 2|I| > k + 1, where k counts the free vertices
    and the vertices of the unplaced segments (V. Chvátal, *Tough graphs
    and Hamiltonian circuits*, 1973).  Those k vertices lie in a row
    between the two ends of any completion.  Every new edge takes a color
    outside ``reserved``, so it is a union edge, and segment edges never
    touch a free vertex; so no two vertices of I are next to each other in
    the row, and at most (k + 1) // 2 fit.  I is built greedily in
    ascending union degree, stopping once it cannot grow past the bound.
    Such a state is remembered as dead and counts no node.  It cuts only
    subtrees with no completion, so the orders found are unchanged.

    Returns (order, edge -> color, nodes), with order None when no order
    exists; the coloring is the Kuhn matching of the order's new edges in
    the order they were chosen.  Raises BudgetExceeded once the node or
    time budget runs out.
    """
    n = collection.n_vertices
    union = [0] * n
    for color, row in enumerate(collection.adjacency):
        if color not in reserved:
            for x in range(n):
                union[x] |= row[x]
    allowed = ~mask_of(reserved)
    color_mask = collection.color_mask

    def matching(edges: list[Edge]) -> dict[Edge, int] | None:
        admissible = [color_mask(*edge) & allowed for edge in edges]
        owner: dict[int, int] = {}
        for idx in range(len(edges)):
            if not _augment(idx, admissible, owner, [0]):
                return None
        return {edges[idx]: color for color, idx in owner.items()}

    # Bit x of ``left`` is free vertex x; bit n + i is segments[i], still unplaced.
    steps = [((x,), 1 << x) for x in range(n)]
    pieces = [(piece, 1 << n + idx)
              for idx, seg in enumerate(segments) for piece in (seg, seg[::-1])]
    suffix = list(reversed(tail))  # grows at its end, so stored reversed
    deadline = time.monotonic() + budget.time_limit
    nodes = 0
    owner: dict[int, int] = {}  # color -> index in ``chosen``: the live matching
    admissible: list[int] = []
    used = 0  # mask of the colors in ``owner``
    dead: set[int] = set()
    taint = 0  # bumped at each matching failure and symmetry break
    width = n.bit_length()

    def match(edge: Edge) -> int | dict[int, int] | None:
        """Match ``edge`` on top of the live matching; None if it cannot be.

        Returns what ``unmatch`` needs: the color bit taken, or the owners
        before an augmenting path moved them."""
        nonlocal used
        idx = len(admissible)
        admissible.append(color_mask(*edge) & allowed)
        spare = admissible[idx] & ~used
        if spare:
            low = spare & -spare
            owner[low.bit_length() - 1] = idx
            used |= low
            return low
        before = dict(owner)
        if _augment(idx, admissible, owner, [0]):
            used = mask_of(owner)
            return before
        admissible.pop()
        return None

    def unmatch(undo: int | dict[int, int]) -> None:
        nonlocal used
        admissible.pop()
        if isinstance(undo, int):
            del owner[undo.bit_length() - 1]
            used ^= undo
        else:
            owner.clear()
            owner.update(undo)
            used = mask_of(owner)

    def candidates(end: int) -> list[tuple[tuple[int, ...], int]]:
        row = union[end]
        out = []
        reach = row & left
        while reach:
            low = reach & -reach
            out.append(steps[low.bit_length() - 1])
            reach ^= low
        if left >> n:
            out.extend(p for p in pieces if left & p[1] and row >> p[0][0] & 1)
        return out

    def blocked() -> bool:
        """True when the free vertices hold too large an independent set.

        Greedy over ``by_degree``; it stops once even taking every vertex
        still available could not exceed the bound."""
        avail = left & everyone
        free = avail.bit_count()
        bound = free + 1  # k + 1
        if left >> n:
            bound += sum(size for size, bit in sizes if left & bit)
        if 2 * free <= bound:
            return False
        picked = 0
        for bit, closed in by_degree:
            if avail & bit:
                picked += 1
                if 2 * picked > bound:
                    return True
                avail &= ~closed
                if 2 * (picked + avail.bit_count()) <= bound:
                    return False
        return False

    def dfs(key: int) -> dict[Edge, int] | None:
        nonlocal nodes, left, taint
        if blocked():
            dead.add(key)
            return None
        nodes += 1
        if nodes > budget.node_limit:
            raise BudgetExceeded(f"exact search exceeded {budget.node_limit} nodes", nodes)
        if nodes % 256 == 0 and time.monotonic() > deadline:
            raise BudgetExceeded("exact search exceeded its time budget", nodes)
        target = suffix[-1] if suffix else prefix[0] if cycle else 0
        if not left:
            if not suffix and (prefix[1] if cycle else prefix[0]) > prefix[-1]:
                taint += 1
                return None
            if not suffix and not cycle:
                return matching(chosen)
            if not union[prefix[-1]] >> target & 1:
                return None
            closing = canonical_edge(prefix[-1], target)
            if match(closing) is None:
                taint += 1
                return None
            return matching(chosen + [closing])
        start = taint
        moves, end_list = candidates(prefix[-1]), prefix
        if suffix:
            back = candidates(suffix[-1])
            if len(back) < len(moves):  # fail-first: the end with fewer moves
                moves, end_list = back, suffix
        # A child's key: the added piece's last vertex is the new prefix end
        # or the new target, whichever end grows.
        if end_list is prefix:
            fixed, slot = target, width
        else:
            fixed, slot = prefix[-1] << width, 0
        for added, bit in moves:
            child = (left ^ bit) << 2 * width | added[-1] << slot | fixed
            if child in dead:
                continue
            a, b = end_list[-1], added[0]
            edge = (a, b) if a < b else (b, a)
            undo = match(edge)
            if undo is None:
                taint += 1
                continue
            left ^= bit
            chosen.append(edge)
            end_list.extend(added)
            result = dfs(child)
            if result is not None:
                return result
            del end_list[-len(added):]
            chosen.pop()
            left ^= bit
            unmatch(undo)
        if taint == start:
            dead.add(key)
        return None

    everyone = (1 << n) - 1
    spanned = everyone if active is None else active
    spanned &= ~mask_of(x for seg in segments for x in seg)
    # Vertex count and bit of each segment, for the bound's k.
    sizes = [(len(seg), 1 << n + idx) for idx, seg in enumerate(segments)]
    # Greedy independent-set order: ascending union degree, then vertex id.
    by_degree = [(1 << x, union[x] | 1 << x)
                 for x in sorted(bits(spanned), key=lambda x: union[x].bit_count())]
    for head in heads:
        prefix = list(head)
        left = spanned & ~mask_of(prefix + suffix) | ((1 << len(segments)) - 1) << n
        chosen: list[Edge] = []
        target = suffix[-1] if suffix else prefix[0] if cycle else 0
        assignment = dfs(left << 2 * width | prefix[-1] << width | target)
        if assignment is not None:
            return prefix + suffix[::-1], assignment, nodes
    return None, None, nodes


def _forest_blocks(collection: GraphCollection, forest: RainbowLinearForest,
                   u: int, v: int) -> tuple[tuple[int, ...], tuple[int, ...], list[tuple[int, ...]]] | None:
    """Forced prefix (from u), forced suffix (into v), and middle components.

    None when no Hamiltonian u,v-path can contain the forest at all: an
    incompatible pair or a fixed color missing its edge.
    """
    if not is_h_compatible(forest, u, v):
        return None
    for edge, color in forest.fixed_colors.items():
        if not collection.has_edge(color, *edge):
            return None
    comp_u = forest.component_of(u) or (u,)
    comp_v = forest.component_of(v) or (v,)
    prefix = comp_u if comp_u[0] == u else tuple(reversed(comp_u))
    suffix = comp_v if comp_v[-1] == v else tuple(reversed(comp_v))
    middles = [c for c in forest.components
               if len(c) > 1 and u not in c and v not in c]
    return prefix, suffix, sorted(middles, key=min)


def exact_rainbow_ham_path(
    collection: GraphCollection,
    u: int,
    v: int,
    forest: RainbowLinearForest | None = None,
    budget: OracleBudget = OracleBudget(),
) -> OracleResult:
    """Decide existence of a rainbow Hamiltonian u,v-path containing ``forest``.

    Forest edges keep their fixed colors and are forced contiguous; all other
    edges are matched to the remaining colors exactly.  Forest vertices and
    colors outside the collection are input errors; an in-range fixed color
    that lacks its edge is NotFound.  Deterministic: the same input and
    budget always yield the same outcome and certificate.
    """
    collection.check_vertex(u)
    collection.check_vertex(v)
    if u == v:
        raise InputError("u and v must be distinct")
    forest = forest or RainbowLinearForest.empty()
    problems = forest.range_violations(collection)
    if problems:
        raise InputError("; ".join(problems))
    n = collection.n_vertices
    if n - 1 > collection.n_colors:
        return OracleResult(NOT_FOUND)
    blocks = _forest_blocks(collection, forest, u, v)
    if blocks is None:
        return OracleResult(NOT_FOUND)
    prefix, suffix, middles = blocks
    try:
        order, assignment, nodes = exact_search(
            collection, [prefix], budget, tail=suffix, segments=tuple(middles),
            reserved=frozenset(forest.colors()),
        )
    except BudgetExceeded as exc:
        return OracleResult(UNKNOWN, nodes=exc.nodes)
    if order is None:
        return OracleResult(NOT_FOUND, nodes=nodes)
    full = dict(forest.fixed_colors)
    full.update(assignment)
    coloring = tuple(full[canonical_edge(order[i], order[i + 1])] for i in range(n - 1))
    return OracleResult(FOUND, PathCertificate(tuple(order), coloring), nodes)


def exact_rainbow_ham_cycle(
    collection: GraphCollection,
    budget: OracleBudget = OracleBudget(),
) -> OracleResult:
    """Decide existence of a rainbow Hamiltonian cycle (n edges, distinct colors)."""
    n = collection.n_vertices
    if collection.n_colors < n:
        raise InputError(f"cycle oracle needs m >= n, got m={collection.n_colors}, n={n}")
    if n < 3:
        return OracleResult(NOT_FOUND)
    try:
        order, assignment, nodes = exact_search(collection, [(0,)], budget, cycle=True)
    except BudgetExceeded as exc:
        return OracleResult(UNKNOWN, nodes=exc.nodes)
    if order is None:
        return OracleResult(NOT_FOUND, nodes=nodes)
    coloring = tuple(
        assignment[canonical_edge(order[i], order[(i + 1) % n])] for i in range(n)
    )
    return OracleResult(FOUND, CycleCertificate(tuple(order), coloring), nodes)
