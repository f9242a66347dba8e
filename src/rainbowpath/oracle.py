"""Exact decision procedures for rainbow Hamiltonian paths and cycles.

One exponential-time but exhaustive kernel, ``exact_search``, serves every
caller: a depth-first search over vertex orders with forest components
forced contiguous.  It keeps an edge-to-color matching of the chosen edges
as it goes, so it never extends an order whose edges cannot be rainbow, and
that matching is the coloring it returns with the order it finds.  It
remembers the states that have no completion even in the union graph, and
looks a move's state up before matching its edge, so it never searches one
twice.  It also drops, without searching it, a state whose free vertices
hold an independent set too large to thread (Chvátal's toughness count),
in the union graph or, in a rainbow form, in the graph of the edges two or
more colors share, or, once every forest segment is placed, are not
connected in the union graph: in any completion they form one contiguous
run of the order.
The oracles below use it as ground truth against the constructive solver
at desk scale, and the solver's spanning-path fallback calls it directly.
The path oracle takes the forest's blocks around the pair from
``forest.pair_blocks``, the rule the solver's plan and the checker read.
Budgets make exhaustion explicit: the kernel raises BudgetExceeded, which
the oracles report as Unknown, never a silent wrong answer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable

from .forest import RainbowLinearForest, pair_blocks
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
    matrix_rows,
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
    reserved: int = 0,
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

    Chosen edges are matched to colors outside ``reserved`` (a color mask)
    incrementally: each new edge takes its lowest free admissible color,
    else one augmenting path, and an edge that cannot be matched is never
    descended into.  A state (free vertices, segments left, both ends) whose subtree
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
    ascending degree into the spanned vertices off the tail, stopping once
    it cannot grow past the bound.

    The same count holds in a rainbow form.  An edge is private when
    exactly one color outside ``reserved`` holds it; the shared graph is
    the union graph without its private edges.  Let I be independent in the
    shared graph and a the number of colors that own a private edge inside
    I.  Two vertices of I next to each other in the row are joined by a new
    edge inside I, which is private, and the new edges take distinct
    colors; so at most a such pairs occur, and s vertices of I in a row of
    k with at most a adjacent pairs need 2s - 1 - a <= k.  A state is dead
    when 2|I| > k + 1 + a; with a = 0 this is the bound above.  This pass
    runs when the union greedy does not cut, on vertices in ascending shared
    degree into the spanned vertices off the tail, and takes a vertex only
    if its private edges into I add at most one owner color to a.  It is
    what settles C3, whose forest colors make the union graph complete.

    With every segment placed, a state is also dead when its free vertices
    are not connected in the union graph (the connectivity cut of
    backtracking Hamiltonian search; Vandegriend and Culberson, 1998).  In
    any completion the free vertices form one contiguous run of the order:
    between the two ends with a ``tail``, between the prefix end and the
    prefix's first vertex with ``cycle``, after the prefix end otherwise.
    Consecutive vertices of the run are joined by new edges, which are
    union edges, so the run is a union path.  While a segment is unplaced
    the cut is off: a segment may sit inside the run between two free
    vertices with no union edge between them.

    The cuts read only the free vertices and the unplaced segments, so
    their verdict is remembered per such set.  A move's child is checked
    after the dead lookup and before its edge is matched, each head's root
    once; a cut state counts no node and is not a matching failure.  The
    cuts drop only subtrees with no completion, so the orders found are
    unchanged.  The union and shared graphs come from
    ``GraphCollection.allowed_matrices``, built once per collection and
    ``reserved`` mask.

    Returns (order, edge -> color, nodes), with order None when no order
    exists; the coloring is the live matching itself, with a closing edge
    (onto the tail, or back to the start of a cycle) matched on top of it,
    so no found order is coloured again.  Raises BudgetExceeded once the
    node or time budget runs out.
    """
    n = collection.n_vertices
    union_matrix, shared_matrix = collection.allowed_matrices(reserved)
    union = matrix_rows(union_matrix, n)
    allowed = ~reserved
    color_mask = collection.color_mask

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
    verdicts: dict[int, bool] = {}  # left -> cut(left); neither cut reads the ends
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

    def cut(left: int) -> bool:
        """True when no order can thread what ``left`` holds.

        With every segment placed, its free vertices are not connected in the
        union graph (a bitmask breadth-first search), or they hold too large
        an independent set: of the union graph (greedy over ``by_degree``),
        or of the shared graph, 2|I| > k + 1 + a (greedy over ``by_shared``;
        a vertex joins I only if its private edges into I add at most one
        owner color to a).  Each greedy stops once even taking every vertex
        still available could not exceed its bound."""
        avail = left & everyone
        free = avail.bit_count()
        bound = free + 1  # k + 1
        if left >> n:
            bound += sum(size for size, bit in sizes if left & bit)
        elif avail:
            seen = frontier = avail & -avail
            while frontier:
                low = frontier & -frontier
                grown = union[low.bit_length() - 1] & avail & ~seen
                seen |= grown
                frontier = (frontier ^ low) | grown
            if seen != avail:
                return True
        if 2 * free <= bound:
            return False
        picked = 0
        rest = avail
        for bit, closed in by_degree:
            if rest & bit:
                picked += 1
                if 2 * picked > bound:
                    return True
                rest &= ~closed
                if 2 * (picked + rest.bit_count()) <= bound:
                    break
        if not private:
            return False
        if not by_shared:
            shared = matrix_rows(shared_matrix, n)
            by_shared.extend((1 << x, shared[x] | 1 << x, union[x], x) for x in sorted(
                bits(spanned), key=lambda x: (shared[x] & off_tail).bit_count()))
        members = size = owned = 0  # I as a mask, |I|, the owner colors a counts
        for bit, closed, row, x in by_shared:
            if not avail & bit:
                continue
            avail ^= bit
            inside = row & members  # private edges, one allowed color each
            if inside:
                new = 0
                while inside:
                    low = inside & -inside
                    new |= color_mask(x, low.bit_length() - 1)
                    inside ^= low
                new &= allowed & ~owned
                if new & (new - 1):
                    continue
                owned |= new
            size += 1
            members |= bit
            avail &= ~closed
            slack = bound + owned.bit_count()
            if 2 * size > slack:
                return True
            if 2 * (size + avail.bit_count()) <= slack:
                return False
        return False

    def dfs(key: int) -> dict[Edge, int] | None:
        nonlocal nodes, left, taint
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
            if suffix or cycle:
                if not union[prefix[-1]] >> target & 1:
                    return None
                chosen.append(canonical_edge(prefix[-1], target))
                if match(chosen[-1]) is None:
                    chosen.pop()
                    taint += 1
                    return None
            return {chosen[idx]: color for color, idx in owner.items()}
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
            rest = left ^ bit
            child = rest << 2 * width | added[-1] << slot | fixed
            if child in dead:
                continue
            verdict = verdicts.get(rest)
            if verdict is None:
                verdict = verdicts[rest] = cut(rest)
            if verdict:
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
    # Greedy independent-set order: ascending union degree into the spanned
    # vertices off the tail, then vertex id.  The full union degree counts
    # neighbours that are never free, and ties B3's two sides.
    off_tail = spanned & ~mask_of(tail)
    by_degree = [(1 << x, union[x] | 1 << x)
                 for x in sorted(bits(spanned), key=lambda x: (union[x] & off_tail).bit_count())]
    # With no private edge the shared graph is the union graph, and the
    # shared greedy would take the union greedy's set with a = 0, so it is
    # skipped.  Its order, ascending shared degree, is built at first use.
    private = union_matrix != shared_matrix
    by_shared: list[tuple[int, int, int, int]] = []
    for head in heads:
        prefix = list(head)
        left = spanned & ~mask_of(prefix + suffix) | ((1 << len(segments)) - 1) << n
        if cut(left):
            continue
        chosen: list[Edge] = []
        target = suffix[-1] if suffix else prefix[0] if cycle else 0
        assignment = dfs(left << 2 * width | prefix[-1] << width | target)
        if assignment is not None:
            return prefix + suffix[::-1], assignment, nodes
    return None, None, nodes


def exact_rainbow_ham_path(
    collection: GraphCollection,
    u: int,
    v: int,
    forest: RainbowLinearForest | None = None,
    budget: OracleBudget = OracleBudget(),
) -> OracleResult:
    """Decide existence of a rainbow Hamiltonian u,v-path containing ``forest``.

    Forest edges keep their fixed colors and are forced contiguous, in the
    blocks ``forest.pair_blocks`` reads around the pair; all other edges are
    matched to the remaining colors exactly.  Forest vertices and colors
    outside the collection are input errors; an incompatible pair, or an
    in-range fixed color that lacks its edge, is NotFound.  Deterministic:
    the same input and budget always yield the same outcome and certificate.
    """
    collection.check_vertex(u)
    collection.check_vertex(v)
    if u == v:
        raise InputError("u and v must be distinct")
    forest = forest or RainbowLinearForest.empty()
    # Range problems are input errors (``validate_against`` then returns
    # only those); a fixed color that lacks its edge is NotFound.
    problems = forest.validate_against(collection)
    if problems and forest.range_violations(collection):
        raise InputError("; ".join(problems))
    n = collection.n_vertices
    if n - 1 > collection.n_colors:
        return OracleResult(NOT_FOUND)
    blocks = pair_blocks(forest, u, v)
    if blocks is None or problems:
        return OracleResult(NOT_FOUND)
    h_u, h_v, middles = blocks
    try:
        order, assignment, nodes = exact_search(
            collection, [h_u], budget, tail=h_v[::-1], segments=middles,
            reserved=mask_of(forest.colors()),
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
