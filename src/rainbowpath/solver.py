"""Constructive solver for rainbow Hamiltonian u,v-paths containing a forest.

Pipeline: delete the k+2 forest vertices D and the k fixed colors, run the
spanning-path trichotomy on the rest (the collection read through an
active-vertex mask and a color mask, in original ids: no relabelled copy),
then undo the deletion constructively.  The spanning-path case absorbs
interior forest components into the path (end-splices aside) and then
attaches the endpoint components with one join step: a direct join in a
spare color, else a degree-sum rotation; the identical-split case
threads the forest through the two cliques via the deleted layer; the
heavy-side case grows the forest inside the small side as paths keyed by
their ends and routes an alternating path through the complete bipartite
remainder, with no search: its top-up links are one pass, and its pieces
(whole forest paths, lone X vertices, free Y vertices) are placed by a
first-fit loop, each oriented as it is placed.  When no greedy run with
end rotations finds a spanning path, the fallback runs the oracle's
exact-search kernel, so an exhausted budget raises BudgetExceeded.

Every quantity the underlying counting arguments pin down (unused-color
budgets, path lengths, nonempty rotation windows) is asserted at runtime;
a violation raises InternalError with a repro bundle instead of degrading.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Container

from .forest import (
    RainbowLinearForest,
    ReductionBoundError,
    ReductionPlan,
    is_h_compatible,
    select_deletion_set,
)
from .model import (
    Edge,
    GraphCollection,
    InputError,
    InternalError,
    PathCertificate,
    RotationDerivation,
    bits,
    canonical_edge,
    check_hypothesis,
    degree,
    mask_of,
    path_certificate_violations,
    rainbow_assignment,
    replay_derivation,
    row_sigma2,
)
from .oracle import OracleBudget, exact_search
from .structures import (
    ExtremalCertificate,
    certificate_violations,
    cycle_from_checked_extremal,
    detect_identical_split,
    detect_independent_heavy_side,
)


#: End rotations in a row with no growth before the heuristic gives up on a start.
HEURISTIC_STALL_LIMIT = 6


@dataclass
class WorkingPath:
    """A rainbow path under construction, with stage accounting attached.

    ``colors[i]`` colors edge (order[i], order[i+1]).  The unused-color set
    and the forbidden-slide positions (path edges that belong to the forest)
    are derived views; stage functions assert their sizes after every step.
    """

    order: list[int]
    colors: list[int]
    n_colors: int
    forest_colors: dict[Edge, int]

    def edge_map(self) -> dict[Edge, int]:
        return {(a, b) if a < b else (b, a): c
                for a, b, c in zip(self.order, self.order[1:], self.colors)}

    def unused_colors(self) -> set[int]:
        return set(range(self.n_colors)) - set(self.colors) - set(self.forest_colors.values())

    def forest_edges_on_path(self) -> int:
        return len(self.forest_colors.keys() & self.edge_map().keys()) if self.forest_colors else 0


def _splice(wp: WorkingPath, comp: tuple[int, ...], new_order: list[int],
            cut: list[tuple[int, int]], joins: list[tuple[Edge, int]]) -> WorkingPath:
    """Color ``new_order`` from the path's edges minus ``cut``, plus ``joins``
    and the forest edges of ``comp``; the result must be rainbow."""
    emap = wp.edge_map()
    for edge in {canonical_edge(a, b) for a, b in cut}:
        if edge in wp.forest_colors:
            raise InternalError(f"rotation tried to cut forest edge {edge}")
        del emap[edge]
    emap.update(joins)
    for a, b in zip(comp, comp[1:]):
        edge = canonical_edge(a, b)
        emap[edge] = wp.forest_colors[edge]
    colors = []
    for a, b in zip(new_order, new_order[1:]):
        edge = (a, b) if a < b else (b, a)
        if edge not in emap:
            raise InternalError(f"rebuilt path lost the color of edge {edge}")
        colors.append(emap[edge])
    if len(set(colors)) != len(colors):
        raise InternalError("rebuilt path is not rainbow")
    return WorkingPath(new_order, colors, wp.n_colors, wp.forest_colors)


def _pigeonhole_colors(
    collection: GraphCollection, S: list[int], x1: int, w: int, ore_bound: int
) -> tuple[int, int] | None:
    """Ordered (a1, a2) in S with d_{a2}(x1) + d_{a1}(w) meeting the Ore bound.

    Guaranteed to exist whenever (x1, w) is non-adjacent in every color of S:
    the two degree-sum inequalities add up to twice the bound.  Lexicographic
    choice keeps certificates reproducible.
    """
    for a1, a2 in sorted(permutations(S, 2)):
        if degree(collection, a2, x1) + degree(collection, a1, w) >= ore_bound:
            return a1, a2
    return None


def _rotation_window(
    collection: GraphCollection,
    wp: WorkingPath,
    order: list[int],
    a1: int,
    a2: int,
    w: int,
) -> int | None:
    """Smallest slide position p with order[p] ~ w in a1, order[p+1] ~ order[0]
    in a2, and (order[p], order[p+1]) not a forest edge."""
    adj_w = collection.neighbors_mask(a1, w)
    adj_x1 = collection.neighbors_mask(a2, order[0])
    forest_edges = set(wp.forest_colors)
    for p in range(len(order) - 1):
        if adj_w >> order[p] & 1 and adj_x1 >> order[p + 1] & 1:
            if canonical_edge(order[p], order[p + 1]) in forest_edges:
                continue
            if not 1 <= p <= len(order) - 2:
                raise InternalError(
                    f"rotation window hit position {p}, outside the guaranteed range"
                )
            return p
    return None


def _join(collection: GraphCollection, wp: WorkingPath, orders: list[list[int]], S: list[int],
          w: int, ore_bound: int) -> tuple[list[int], str, int, list[tuple[Edge, int]]] | None:
    """Join ``w`` to the front of one orientation in ``orders`` of the path.

    A direct join takes the lowest spare color of ``S`` that sees the front,
    trying the orientations in turn, and counts as window p = -1.  Otherwise
    a degree-sum (Pósa) rotation: with the pigeonhole colors (a1, a2) and the
    rotation window p, order[p] ~ w in a1 and order[0] ~ order[p+1] in a2,
    and the caller cuts (order[p], order[p+1]).  Returns the orientation,
    the mode, p and the join edges with their colors; None when no
    orientation has a window.
    """
    for order in orders:
        a = next((a for a in S if collection.has_edge(a, order[0], w)), None)
        if a is not None:
            return order, "direct", -1, [(canonical_edge(order[0], w), a)]
    for order in orders:
        pair = _pigeonhole_colors(collection, S, order[0], w, ore_bound)
        if pair is None:
            continue
        a1, a2 = pair
        p = _rotation_window(collection, wp, order, a1, a2, w)
        if p is not None:
            return order, "rotation", p, [(canonical_edge(order[p], w), a1),
                                          (canonical_edge(order[0], order[p + 1]), a2)]
    return None


def _record(trace: list[dict], **fields) -> None:
    trace.append(fields)


def _assert_stage(wp: WorkingPath, expect_unused: int, expect_len: int, stage: str) -> None:
    got_unused = len(wp.unused_colors())
    if got_unused != expect_unused:
        raise InternalError(
            f"{stage}: {got_unused} unused colors, stage contract expects {expect_unused}"
        )
    if len(wp.order) != expect_len:
        raise InternalError(
            f"{stage}: path length {len(wp.order)}, accounting expects {expect_len}"
        )


# ---------------------------------------------------------------------------
# Case 1: absorption and terminal attachment
# ---------------------------------------------------------------------------

def _stage_record(trace: list[dict], stage: str, comp: tuple[int, ...], mode: str,
                  p: int | None, new_wp: WorkingPath, unused_after: int) -> WorkingPath:
    """Write one case-1 stage's trace record and return the stage's new path."""
    _record(trace, stage=stage, component=list(comp), mode=mode,
            position=p if mode == "rotation" else None, unused_after=unused_after,
            length_after=len(new_wp.order), forest_edges_on_path=new_wp.forest_edges_on_path())
    return new_wp


def absorb_components(
    wp: WorkingPath,
    components: tuple[tuple[int, ...], ...],
    collection: GraphCollection,
    ore_bound: int,
    trace: list[dict] | None = None,
) -> WorkingPath:
    """Splice every interior forest component into the path, keeping 3 spare colors.

    Components are oriented kept-endpoint first; each has that endpoint on the
    path already.  Absorption order is by component index (smallest first);
    the growth argument does not depend on the order.  Each absorption writes
    one "absorb" record through `_stage_record`, as each attachment does.
    """
    trace = trace if trace is not None else []
    for comp in components:
        vt, wt = comp[0], comp[-1]
        S = sorted(wp.unused_colors())
        if len(S) != 3:
            raise InternalError(f"absorption started with {len(S)} unused colors, expected 3")
        rc = list(reversed(comp))  # [wt ... vt]
        mode, p, cut, joins = "end", None, [], []
        if wp.order[-1] == vt:
            new_order = wp.order + list(comp[1:])
        elif wp.order[0] == vt:
            new_order = rc[:-1] + wp.order
        else:
            found = _join(collection, wp, [wp.order, wp.order[::-1]], S, wt, ore_bound)
            if found is None:
                raise InternalError(
                    f"absorption of component {comp} found no rotation window; "
                    "the degree-sum argument guarantees one",
                    bundle={"order": list(wp.order), "component": list(comp)},
                )
            order, mode, p, joins = found
            j = order.index(vt)
            if p < j:
                new_order = order[p + 1 : j][::-1] + order[: p + 1] + rc + order[j + 1 :]
                cut = [(order[j - 1], vt)]
            else:
                new_order = order[j + 1 : p + 1] + rc + order[j - 1 :: -1] + order[p + 1 :]
                cut = [(vt, order[j + 1])]
            if p >= 0:
                cut.append((order[p], order[p + 1]))
            # At p = j-1 and p = j the window edge is the one cut at vt; the join
            # there would touch vt, which keeps a single path edge.
            joins = [(edge, color) for edge, color in joins if vt not in edge]

        new_wp = _splice(wp, comp, new_order, cut, joins)
        _assert_stage(new_wp, 3, len(wp.order) + len(comp) - 1, f"absorb {comp}")
        wp = _stage_record(trace, "absorb", comp, mode, p, new_wp, 3)
    return wp


def attach_terminal_component(
    wp: WorkingPath,
    comp: tuple[int, ...],
    endpoint_role: str,
    collection: GraphCollection,
    ore_bound: int,
    trace: list[dict] | None = None,
) -> WorkingPath:
    """Attach the endpoint component (oriented endpoint-first) to the path.

    Role "u" runs with 3 spare colors and may use either path end (the path
    is reversed to put the attachment at the front); afterwards the endpoint
    sits at the back and 2 spare colors remain.  Role "v" runs with 2 spares
    and must keep the far end fixed, so only the front is used; afterwards
    the path is Hamiltonian.
    """
    trace = trace if trace is not None else []
    if endpoint_role not in ("u", "v"):
        raise InputError(f"endpoint_role must be 'u' or 'v', got {endpoint_role!r}")
    expect_unused = 3 if endpoint_role == "u" else 2
    S = sorted(wp.unused_colors())
    if len(S) != expect_unused:
        raise InternalError(
            f"attach {endpoint_role}: {len(S)} unused colors, expected {expect_unused}"
        )
    endpoint, far = comp[0], comp[-1]
    orders = [wp.order, wp.order[::-1]] if endpoint_role == "u" else [wp.order]
    found = _join(collection, wp, orders, S, far, ore_bound)
    if found is None:
        raise InternalError(
            f"attachment of {comp} as {endpoint_role} found no rotation window",
            bundle={"order": list(wp.order), "component": list(comp)},
        )
    order, mode, p, joins = found
    new_order = list(comp) + order[: p + 1][::-1] + order[p + 1 :]
    cut = [(order[p], order[p + 1])] if p >= 0 else []
    new_wp = _splice(wp, comp, new_order, cut, joins)
    if endpoint_role == "u":
        # Keep u at the back so the final attachment works on the free end.
        new_wp.order.reverse()
        new_wp.colors.reverse()
        _assert_stage(new_wp, 2, len(wp.order) + len(comp), "attach u")
        if new_wp.order[-1] != endpoint:
            raise InternalError("u is not a path endpoint after attachment")
    else:
        _assert_stage(new_wp, 1, len(wp.order) + len(comp), "attach v")
        if new_wp.order[0] != endpoint:
            raise InternalError("v is not a path endpoint after attachment")
    return _stage_record(trace, f"attach_{endpoint_role}", comp, mode, p, new_wp,
                         len(new_wp.unused_colors()))


# ---------------------------------------------------------------------------
# Spanning-path dispatch on the reduced collection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Li2Result:
    kind: str  # "A1" | "A2" | "A3"
    order: tuple[int, ...] | None = None
    colors: tuple[int, ...] | None = None
    ell: int | None = None
    X: frozenset[int] | None = None
    Y: frozenset[int] | None = None
    heuristic_used: bool = False


def _try_extend(collection: GraphCollection, end: int, used: int, free: int) -> tuple[int, int] | None:
    """The first vertex of ``free`` that sees ``end`` in a color outside
    ``used``, with the lowest such color; None when there is none.

    ``used`` must hold every color of index n_colors or more (the heuristic
    passes ``used`` ⊇ ~palette).  Then ``first``, the lowest unused color,
    is the lowest color of any edge it holds: when its row at ``end`` holds
    the first vertex of ``free``, that is the answer, and the edge's
    ``color_mask`` is not read.  On a dense collection the memo then stays
    mostly unfilled; otherwise the memoised loop runs as before.
    """
    unused = ~used
    if not unused:
        return None
    first = (unused & -unused).bit_length() - 1
    low = free & -free
    if collection.adjacency[first][end] & low:
        return low.bit_length() - 1, first
    while free:
        x = (free & -free).bit_length() - 1
        available = collection.color_mask(end, x) & unused
        if available:
            return x, (available & -available).bit_length() - 1
        free &= free - 1
    return None


def _rotations(collection: GraphCollection, order: list[int], colors: list[int],
               spare: int, skip: Container[tuple[int, int]]):
    """The paths one Pósa rotation away from ``order`` whose end pair is not in ``skip``.

    Rotates at the back end (side 0), then at the front (side 1: the back
    of the reversed order).  Pivot p joins order[p] to the back in the
    lowest color c of ``spare`` or of the cut edge (order[p], order[p+1]),
    reverses the tail, and makes order[p+1] the new end.  Yields (pair,
    (side, p, c), order, colors) with the pair sorted: the middle item is
    the step a ``RotationDerivation`` records.  ``skip`` is read as the
    rotations are made, so a pair the caller adds meanwhile is skipped too
    (the heuristic passes none).
    """
    for side, (order, colors) in enumerate(((order, colors), (order[::-1], colors[::-1]))):
        front, back = order[0], order[-1]
        for p in range(len(order) - 2):
            w = order[p + 1]
            pair = (front, w) if front < w else (w, front)
            if pair in skip:
                continue
            free = collection.color_mask(order[p], back) & (spare | 1 << colors[p])
            if free:
                c = (free & -free).bit_length() - 1
                yield pair, (side, p, c), order[: p + 1] + order[:p:-1], colors[:p] + [c] + colors[:p:-1]


def _heuristic_spanning_path(
    collection: GraphCollection, active: int, palette: int
) -> tuple[list[int], list[int]] | None:
    """Greedy growth plus end rotations; incomplete but fast on dense inputs.

    Spans the ``active`` vertex mask in ``palette`` colors, trying starts,
    candidates and colors in ascending order.  Stalled ends take the first
    ``_rotations`` path; a start is dropped after HEURISTIC_STALL_LIMIT
    rotations in a row with no growth, or when no rotation is left.
    """
    for start in bits(active):
        order, colors = [start], []
        used, free = ~palette, active & ~(1 << start)
        stalls = 0
        while free:
            # Back end first, then front; inserting past the end appends.
            for end, at in ((order[-1], len(order)), (order[0], 0)):
                step = _try_extend(collection, end, used, free)
                if step is not None:
                    x, c = step
                    order.insert(at, x)
                    colors.insert(at, c)
                    used |= 1 << c
                    free &= ~(1 << x)
                    stalls = 0
                    break
            else:
                if (stalls >= HEURISTIC_STALL_LIMIT
                        or (rotated := next(_rotations(collection, order, colors, ~used, {}), None)) is None):
                    break
                _, _, order, colors = rotated
                used = ~palette | mask_of(colors)
                stalls += 1
        if not free:
            return order, colors
    return None


def _exhaustive_spanning_path(
    collection: GraphCollection, active: int, palette: int, budget: OracleBudget = OracleBudget()
) -> tuple[list[int], list[int]] | None:
    """Exact spanning rainbow path search over all vertex orders, budget-capped.

    Runs the oracle's search kernel from every start vertex of ``active`` in
    turn, colors outside ``palette`` reserved, and returns the first order
    found with the search's own coloring, the live matching of its edges;
    raises BudgetExceeded when the budget runs out.
    """
    reserved = ((1 << collection.n_colors) - 1) & ~palette
    order, assignment, _ = exact_search(collection, [(start,) for start in bits(active)], budget,
                                        reserved=reserved, active=active)
    if order is None:
        return None
    return order, [assignment[canonical_edge(a, b)] for a, b in zip(order, order[1:])]


def li2_dispatch(
    collection: GraphCollection, active: int | None = None, palette: int | None = None
) -> Li2Result:
    """Trichotomy for collections with sigma2 >= |V|-2 in every color.

    Runs on the collection restricted to the ``active`` vertex mask and the
    ``palette`` color mask (None: every vertex, every color), in original
    vertex and color ids.  Detects the identical two-clique split, then the
    independent heavy side, both in closed form (the precondition makes each
    unique and readable off one vertex's neighbourhood); otherwise a
    spanning rainbow path exists and is produced by greedy runs with
    ``_rotations`` end rotations, else by the exact-search fallback
    (``heuristic_used`` False).  An exhausted fallback raises BudgetExceeded;
    a completed fallback that finds nothing raises InternalError, because the
    trichotomy says it cannot happen.

    The precondition comes first.  On the whole collection a shortfall is an
    InputError; on a restriction, which the n+k hypothesis guarantees in
    ``solve``, it raises ReductionBoundError with its repro bundle.  Deleting
    d = |V| - n vertices lowers a non-adjacent pair's degree sum by at most
    2d, so a color passes at once when ``sigma2_below`` says its sigma2
    reaches n-2+2d; only a color that falls short gets the exact masked
    scan, which then decides and supplies the error's value.  Those are
    the colors the exact sigma2 would scan, for every d.
    """
    restricted = active is not None
    active = (1 << collection.n_vertices) - 1 if active is None else active
    palette = (1 << collection.n_colors) - 1 if palette is None else palette
    n = active.bit_count()
    if palette.bit_count() < n:
        raise InputError(f"dispatch needs at least n={n} colors, got {palette.bit_count()}")
    loss = 2 * (collection.n_vertices - n)
    for c in collection.sigma2_below(n - 2 + loss, bits(palette)):
        value = row_sigma2(collection.adjacency[c], active)
        if value >= n - 2:
            continue
        if not restricted:
            raise InputError(f"color {c} has sigma2 below |V|-2; dispatch precondition broken")
        raise ReductionBoundError(
            f"sigma2 of reduced color {c} is {value} < {n - 2}; "
            "input collection violates the n+k hypothesis",
            bundle={"retained_color": c, "sigma2": value, "bound": n - 2},
        )
    split = detect_identical_split(collection, active, palette)
    if split is not None:
        ell, X, Y = split
        return Li2Result(kind="A2", ell=ell, X=X, Y=Y)
    heavy = detect_independent_heavy_side(collection, active, palette)
    if heavy is not None:
        X, Y = heavy
        return Li2Result(kind="A3", X=X, Y=Y)
    found = _heuristic_spanning_path(collection, active, palette)
    heuristic_used = found is not None
    if not heuristic_used:
        found = _exhaustive_spanning_path(collection, active, palette)
    if found is None:
        raise InternalError(
            "no spanning rainbow path, no identical split, no heavy side: "
            "the reduced trichotomy is violated",
            bundle={"n": n, "m": palette.bit_count()},
        )
    order, colors = found
    path = PathCertificate(tuple(order), tuple(colors))
    problems = path_certificate_violations(collection, path, active=active)
    problems += [f"color {c} is outside the palette" for c in colors if not palette >> c & 1]
    if problems:
        raise InternalError("spanning-path search emitted an invalid path: " + "; ".join(problems))
    return Li2Result(kind="A1", order=path.order, colors=path.coloring,
                     heuristic_used=heuristic_used)


# ---------------------------------------------------------------------------
# Case 2: identical two-clique split plus the deleted layer
# ---------------------------------------------------------------------------

def _assert_adjacent(collection: GraphCollection, plan: ReductionPlan, role: str,
                     sources: set[int] | frozenset[int], targets: set[int]) -> None:
    """Every source vertex must see every target vertex in every retained color.

    The degree-sum hypothesis forces these adjacencies (for the deleted layer
    once the reduced side has a non-adjacent pair), and the constructions lean
    on them; a blocked pair's certificate checks the same edges instead."""
    target_mask = mask_of(targets)
    for color in bits(plan.retained_mask):
        for s in sorted(sources):
            missing = target_mask & ~collection.neighbors_mask(color, s)
            if missing:
                t = (missing & -missing).bit_length() - 1
                raise InternalError(
                    f"{role} vertex {s} misses {t} in retained color {color}; "
                    "the hypothesis forces this adjacency",
                    bundle={"color": color, "pair": [s, t]},
                )


def case2_construct(
    collection: GraphCollection,
    plan: ReductionPlan,
    X: frozenset[int],
    Y: frozenset[int],
    trace: list[dict] | None = None,
) -> PathCertificate | ExtremalCertificate:
    """Resolve the identical-split case: a blocked-pair certificate or a path.

    With no interior components the split lifts to the two-clique blocking
    certificate (B2 around a bare pair, C2 around a forest).  Otherwise the
    path walks one clique, detours through each interior component at its
    kept endpoint, crosses between the cliques through the deleted layer
    (adjacent to everything), walks the other clique, and caps both ends
    with the endpoint components.
    """
    trace = trace if trace is not None else []
    if plan.q == 0:
        cert = _blocked(collection, plan, "2", X, Y)
        _record(trace, stage="case2", outcome="extremal")
        return cert
    _assert_adjacent(collection, plan, "deleted", plan.deleted, set(X) | set(Y))

    anchors = {comp[0]: comp for comp in plan.middle_components}
    # The last side must end at a vertex with no pending detour.
    y_free = any(y not in anchors for y in Y)
    x_free = any(x not in anchors for x in X)
    if not (y_free or x_free):
        raise InternalError("both cliques consist of detour anchors; counting forbids this")
    side2 = set(Y) if y_free else set(X)
    side1 = set(X) if y_free else set(Y)

    side1_anchors = sorted(v for v in side1 if v in anchors)
    if side1_anchors:
        bridge = side1_anchors[0]
        side1_order = sorted(side1 - {bridge}) + [bridge]
        reverse_bridge = None
    else:
        bridge = sorted(v for v in side2 if v in anchors)[0]
        side1_order = sorted(side1)
        reverse_bridge = bridge

    seq: list[int] = list(plan.h_u)
    for x in side1_order:
        seq.append(x)
        if x in anchors:
            seq.extend(anchors[x][1:])
    if reverse_bridge is not None:
        seq.extend(reversed(anchors[reverse_bridge]))
    side2_rest = side2 - ({reverse_bridge} if reverse_bridge is not None else set())
    side2_order = sorted(v for v in side2_rest if v in anchors) + sorted(
        v for v in side2_rest if v not in anchors
    )
    for y in side2_order:
        seq.append(y)
        if y in anchors:
            seq.extend(anchors[y][1:])
    seq.extend(reversed(plan.h_v))

    if sorted(seq) != list(range(collection.n_vertices)):
        raise InternalError("case-2 walk is not a permutation of the vertex set")
    cert = _finish_path(collection, seq, plan.forest.fixed_colors, plan.forest)
    _record(trace, stage="case2", outcome="path")
    return cert


def _certified(collection: GraphCollection, cert, forest: RainbowLinearForest | None,
               role: str):
    """``cert`` once it verifies; any problem is an internal error."""
    problems = certificate_violations(collection, cert, forest)
    if problems:
        raise InternalError(f"{role} certificate fails verification: " + "; ".join(problems))
    return cert


def _blocked(collection: GraphCollection, plan: ReductionPlan, shape: str,
             X: frozenset[int], Y: frozenset[int]) -> ExtremalCertificate:
    """The verified certificate that blocks the plan's pair: level B around a
    bare pair (a forest with no edge), level C around a forest."""
    kind = ("C" if plan.forest.edge_count else "B") + shape
    cert = ExtremalCertificate(kind, X, Y, pair=(plan.u, plan.v))
    return _certified(collection, cert, plan.forest, f"derived {kind}")


def _finish_path(
    collection: GraphCollection,
    seq: list[int],
    fixed: dict[Edge, int],
    forest: RainbowLinearForest,
) -> PathCertificate:
    """Color the edges of a completed walk outside ``fixed`` and certify it.

    The loose edges avoid every fixed color; the result must verify
    against ``forest``.
    """
    loose = []
    for i in range(len(seq) - 1):
        edge = canonical_edge(seq[i], seq[i + 1])
        if edge not in fixed:
            loose.append(edge)
    assignment = rainbow_assignment(collection, loose, forbidden_colors=fixed.values())
    if assignment is None:
        raise InternalError(
            "completed walk admits no rainbow coloring; the structure facts "
            "guarantee one",
            bundle={"order": seq},
        )
    full = dict(fixed)
    full.update(assignment)
    coloring = tuple(full[canonical_edge(seq[i], seq[i + 1])] for i in range(len(seq) - 1))
    return _certified(collection, PathCertificate(tuple(seq), coloring), forest, "constructed path")


# ---------------------------------------------------------------------------
# Case 3: heavy independent side
# ---------------------------------------------------------------------------

class _GrowingForest:
    """A linear forest under construction: its paths as vertex lists keyed by
    their two ends, and its edge colors.  A vertex outside it is a path of its own."""

    def __init__(self, forest: RainbowLinearForest) -> None:
        self.colors = dict(forest.fixed_colors)
        self.ends: dict[int, list[int]] = {}
        self.inner: set[int] = set()
        for comp in forest.components:
            self.ends[comp[0]] = self.ends[comp[-1]] = list(comp)
            self.inner.update(comp[1:-1])

    def path(self, a: int) -> list[int]:
        """The path that ends at ``a``; only ends and outside vertices are asked for."""
        return self.ends.get(a) or [a]

    def can_link(self, a: int, b: int) -> bool:
        return a not in self.inner and b not in self.inner and self.path(a) is not self.path(b)

    def link(self, a: int, b: int, color: int) -> None:
        left, right = self.path(a), self.path(b)
        if left[-1] != a:
            left.reverse()
        if right[0] != b:
            right.reverse()
        self.inner.update(x for x, side in ((a, left), (b, right)) if len(side) > 1)
        self.ends.pop(a, None)
        self.ends.pop(b, None)
        joined = left + right
        self.ends[joined[0]] = self.ends[joined[-1]] = joined
        self.colors[canonical_edge(a, b)] = color

    def forest(self) -> RainbowLinearForest:
        """Each path read from its smaller end, ordered by that end."""
        paths = sorted(tuple(p if p[0] == end else p[::-1])
                       for end, p in self.ends.items() if end == min(p[0], p[-1]))
        return RainbowLinearForest(tuple(paths), self.colors)


def case3_extend_forest(
    collection: GraphCollection,
    plan: ReductionPlan,
    x_prime: set[int],
) -> RainbowLinearForest:
    """Grow the forest inside X' until exactly q-1 of its edges touch X'.

    Starts from the forest edges already incident to X' (one per kept
    endpoint landing there), greedily adds X'-internal edges in fresh
    retained colors, and tops up with a rainbow matching from usable X'
    vertices to the dropped endpoints, each matched in a color where it has
    enough dropped-endpoint neighbors.  The result keeps u and v in distinct
    components with degree at most one: the extended forest must still admit
    a Hamiltonian u,v-path around it.  It is read straight off the growing
    paths, each from its smaller end and ordered by that end.

    The top-up is one pass.  Each usable X' vertex in ascending order takes
    its first link in scan order (fresh robust colors ascending, then ends
    ascending) that keeps the forest linear and u's and v's components
    apart, and no link is ever undone.  That is the leftmost branch of a
    depth-first search over the same links, which returns exactly this
    branch whenever it never backtracks; the pass can differ from it only
    where the search would undo a link, and there it raises InternalError
    instead.  On the generated case-3 families the search never backtracks.
    """
    q = plan.q
    target = q - 1
    grown = _GrowingForest(plan.forest)
    # Forest edges already incident to X': one per kept endpoint there.
    count = sum(1 for comp in plan.middle_components if comp[0] in x_prime)
    retained = bits(plan.retained_mask)

    x_sorted = sorted(x_prime)
    for a, b in combinations(x_sorted, 2):
        if count >= target:
            break
        if not grown.can_link(a, b):
            continue
        color = next((c for c in retained
                      if c not in grown.colors.values() and collection.has_edge(c, a, b)), None)
        if color is not None:
            grown.link(a, b, color)
            count += 1

    if count < target:
        t = count
        ends = mask_of([plan.h_u[-1], plan.h_v[-1], *(comp[-1] for comp in plan.middle_components)])
        linked = 0  # ends already used by a top-up link

        def links(z: int):
            # (color, end) in scan order: fresh robust colors ascending, ends ascending.
            for c in retained:
                row = collection.neighbors_mask(c, z)
                if c in grown.colors.values() or (row & ends).bit_count() < q - t:
                    continue
                for w in bits(row & ends & ~linked):
                    # Never chain the endpoint components together.
                    joined = {*grown.path(z), *grown.path(w)}
                    if grown.can_link(z, w) and not {plan.u, plan.v} <= joined:
                        yield c, w

        for z in x_sorted:
            if count == target:
                break
            link = next(links(z), None)
            if link is not None:
                c, w = link
                grown.link(z, w, c)
                linked |= 1 << w
                count += 1
        if count < target:
            raise InternalError(
                f"could not extend the forest to {target} edges touching X' "
                f"(reached {t}); the robust-vertex argument guarantees it",
                bundle={"x_prime": sorted(x_prime), "target": target, "reached": t},
            )

    hprime = grown.forest()
    problems = hprime.structure_violations()
    if problems:
        raise InternalError("extended forest is not a linear forest: " + "; ".join(problems))
    if not is_h_compatible(hprime, plan.u, plan.v):
        raise InternalError("extended forest broke endpoint compatibility")
    touching = sum(1 for (a, b) in hprime.fixed_colors if a in x_prime or b in x_prime)
    if touching != target:
        raise InternalError(
            f"extended forest has {touching} edges touching X', expected {target}"
        )
    return hprime


def _read_from(piece: tuple[int, ...], end: int, Y: set[int]) -> tuple[int, ...]:
    """``piece`` read from ``end``, which must be one of its two ends."""
    if piece[0] != end:
        piece = piece[::-1]
    if piece[0] != end:
        core = [x for x in piece if x not in Y]
        core = core if core[0] == end else core[::-1]
        raise InternalError(f"cannot exit component {core} at {end}")
    return piece


def case3_contract_and_route(
    collection: GraphCollection,
    hprime: RainbowLinearForest,
    X: set[int],
    Y: set[int],
    plan: ReductionPlan,
) -> PathCertificate:
    """Route an alternating path through the pieces of the extended forest.

    A piece is a component of the extended forest (its Y vertices are
    always its ends), an X vertex outside it, or a free Y vertex.  The
    pieces with an X vertex are the super-vertices of the contracted system;
    there is exactly one more of them than |Y|, so a Hamiltonian u,v-path
    alternates sides: every X end meets a y and every y an X end.  Nothing
    else constrains it, because the X-Y bipartite layer is complete in
    every retained color.

    The walk starts with u's piece read from u and ends with v's piece read
    into v.  The middle is arranged by appending the first piece that fits,
    oriented to start on the side the walk is not on.  After an X end: a
    piece with a y at both ends (smaller y first), then a piece with a y at
    one end, then a free y.  After a y: a piece with X at both ends (as
    stored), then a piece with a y at one end.  One-ended pieces keep the
    side the walk ends on; the others switch it.  An order exists iff these
    switches can alternate from the head's side to the side the tail needs,
    which depends only on how many switches of each direction are left, and
    appending any piece that fits keeps that condition.  A dead end thus
    means that no order exists, so the loop returns the first order that
    backtracking over the same preferences would find, or raises where it
    would.  With |Y| one less than the number of super-vertices the switch
    counts always balance, so that InternalError is a check only.
    """
    for comp in hprime.components:
        for y in comp[1:-1]:
            if y in Y:
                raise InternalError(f"crossing vertex {y} is interior to {comp}")
    covered = hprime.vertices()
    pieces = [*hprime.components, *((x,) for x in sorted(X - covered))]
    n = collection.n_vertices
    expected = (n - plan.forest.edge_count) // 2 + 1
    if len(pieces) != expected:
        raise InternalError(
            f"contraction yielded {len(pieces)} super-vertices, expected {expected}"
        )
    if len(Y) != expected - 1:
        raise InternalError("side sizes violate the alternation identity")

    u, v = plan.u, plan.v
    u_piece, v_piece = (next(p for p in pieces if end in p) for end in (u, v))
    if u_piece == v_piece:
        raise InternalError("endpoints were contracted together")
    if any(p[0] in Y and p[-1] in Y for p in (u_piece, v_piece)):
        raise InternalError("a super-vertex owes adjacency to too many anchors")
    route = list(_read_from(u_piece, u, Y))
    tail = _read_from(v_piece, v, Y)[::-1]

    middle = [p for p in pieces if p not in (u_piece, v_piece)]
    two_sided = [min(p, p[::-1]) for p in middle if p[0] in Y and p[-1] in Y]
    one_sided = [p for p in middle if (p[0] in Y) != (p[-1] in Y)]
    plain = [p for p in middle if p[0] not in Y and p[-1] not in Y]
    free_ys = [(y,) for y in sorted(Y - covered)]
    prefer = ((two_sided, one_sided, free_ys), (plain, one_sided))  # after an X end, after a y
    while group := next((g for g in prefer[route[-1] in Y] if g), None):
        piece = group.pop(0)
        route += piece[::-1] if (piece[0] in Y) == (route[-1] in Y) else piece
    unplaced = two_sided + one_sided + plain + free_ys
    if unplaced or (route[-1] in Y) == (tail[0] in Y):
        raise InternalError(
            "no alternating arrangement of contracted components and anchors",
            bundle={"route": route, "unplaced": [list(p) for p in unplaced], "tail": list(tail)},
        )
    order = route + list(tail)
    if sorted(order) != list(range(n)):
        raise InternalError("case-3 route is not a permutation of the vertex set")
    return _finish_path(collection, order, hprime.fixed_colors, plan.forest)


# ---------------------------------------------------------------------------
# Top-level solve
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SolverOutcome:
    """Trichotomy result: a validated path or a verified extremal certificate."""

    path: PathCertificate | None = None
    extremal: ExtremalCertificate | None = None
    trace: tuple[dict, ...] = ()

    @property
    def kind(self) -> str:
        return "path" if self.path is not None else "extremal"


def solve(
    collection: GraphCollection,
    forest: RainbowLinearForest | None,
    u: int,
    v: int,
    k: int | None = None,
) -> SolverOutcome:
    """Find a rainbow Hamiltonian u,v-path containing the forest, or explain.

    Preconditions (input errors when violated): n colors with sigma2 >= n+k,
    a rainbow forest with k <= (n-4)/3 edges valid in its fixed colors, and a
    compatible endpoint pair.  A blocked pair gets a level-B certificate
    (B2/B3) when the forest has no edge and a level-C one (C2/C3) otherwise.
    The result passes ``certificate_violations`` once, before it is returned.
    """
    forest = forest or RainbowLinearForest.empty()
    problems = forest.validate_against(collection)
    if problems:
        raise InputError("invalid forest: " + "; ".join(problems))
    collection.check_vertex(u)
    collection.check_vertex(v)
    if u == v:
        raise InputError("u and v must be distinct")
    edge_count = forest.edge_count
    if k is not None and k != edge_count:
        raise InputError(f"k={k} does not match the forest's {edge_count} edges")
    k = edge_count
    n = collection.n_vertices
    if 3 * k > n - 4:
        raise InputError(f"k={k} exceeds the bound (n-4)/3 for n={n}")
    if not check_hypothesis(collection, k):
        raise InputError(f"collection violates sigma2 >= n+k = {n + k}")

    trace: list[dict] = []
    plan = select_deletion_set(forest, u, v, n)
    dispatch = li2_dispatch(collection, plan.active, plan.retained_mask)
    _record(trace, stage="dispatch", result=dispatch.kind, heuristic=dispatch.heuristic_used,
            reduced_n=plan.active.bit_count())

    if dispatch.kind == "A1":
        wp = WorkingPath(list(dispatch.order), list(dispatch.colors), collection.n_colors,
                         dict(plan.forest.fixed_colors))
        _assert_stage(wp, 3, n - k - 2, "reduced path")
        ore_bound = n + k
        wp = absorb_components(wp, plan.middle_components, collection, ore_bound, trace)
        wp = attach_terminal_component(wp, plan.h_u, "u", collection, ore_bound, trace)
        wp = attach_terminal_component(wp, plan.h_v, "v", collection, ore_bound, trace)
        cert = _certified(collection, PathCertificate(tuple(reversed(wp.order)),
                                                      tuple(reversed(wp.colors))),
                          plan.forest, "case-1 path")
        return SolverOutcome(path=cert, trace=tuple(trace))

    if dispatch.kind == "A2":
        result = case2_construct(collection, plan, dispatch.X, dispatch.Y, trace)
        if isinstance(result, ExtremalCertificate):
            return SolverOutcome(extremal=result, trace=tuple(trace))
        return SolverOutcome(path=result, trace=tuple(trace))

    # A3: heavy independent side.
    x_prime, y_side = set(dispatch.X), set(dispatch.Y)
    X = x_prime | set(plan.deleted)
    if not plan.forest.vertices() & y_side:
        cert = _blocked(collection, plan, "3", frozenset(X), frozenset(y_side))
        _record(trace, stage="case3", outcome="extremal")
        return SolverOutcome(extremal=cert, trace=tuple(trace))
    _assert_adjacent(collection, plan, "heavy-side", y_side, X)
    hprime = case3_extend_forest(collection, plan, x_prime)
    cert = case3_contract_and_route(collection, hprime, X, y_side, plan)
    # New edges that touch D are the top-up links; X'-internal ones do not.
    top_up = sum(1 for edge in hprime.fixed_colors
                 if edge not in plan.forest.fixed_colors and not plan.deleted.isdisjoint(edge))
    _record(trace, stage="case3", outcome="path", top_up=top_up)
    return SolverOutcome(path=cert, trace=tuple(trace))


def solve_pair(
    collection: GraphCollection,
    u: int,
    v: int,
) -> SolverOutcome:
    """``solve`` around the bare pair: its extremal outcomes are B2/B3."""
    return solve(collection, RainbowLinearForest.empty(), u, v, 0)


@dataclass(frozen=True)
class HamiltonianConnectivityResult:
    """Either a rainbow Hamiltonian cycle or a full pair -> path map.

    In the connected case ``derivation`` is the checked rotation derivation
    the paths were replayed from.
    """

    cycle: "object | None" = None
    extremal: ExtremalCertificate | None = None
    paths: dict[tuple[int, int], PathCertificate] | None = None
    derivation: RotationDerivation | None = None

    @property
    def kind(self) -> str:
        return "cycle" if self.cycle is not None else "connected"


def _rotate_into(collection: GraphCollection, entries: list, covered: set[tuple[int, int]],
                 total: int) -> None:
    """Record in ``entries`` a step for every pair that Pósa rotations reach
    from the seed path ``entries[-1]``.

    A breadth-first search: each path with an end pair not in ``covered``
    is recorded as a step (parent, side, p, c) of a ``RotationDerivation``,
    its pair is added to ``covered``, and it is queued; the search stops
    once ``covered`` holds ``total`` pairs.  With n colors a Hamiltonian
    path leaves one color spare; a rotation's new edge takes that color or
    the color of the edge it cuts, so the rotated path stays rainbow.  No
    path is checked or kept here: ``replay_derivation`` does both, once.
    """
    full = (1 << collection.n_colors) - 1
    seed = entries[-1]
    queue = deque([(len(entries) - 1, list(seed.order), list(seed.coloring))])
    while queue:
        parent, order, colors = queue.popleft()
        for pair, step, new_order, new_colors in _rotations(collection, order, colors,
                                                            full & ~mask_of(colors), covered):
            queue.append((len(entries), new_order, new_colors))
            entries.append((parent, *step))
            covered.add(pair)
            if len(covered) == total:
                return


def hamiltonian_or_connected(collection: GraphCollection) -> HamiltonianConnectivityResult:
    """Rainbow Hamiltonian cycle, or rainbow Hamiltonian-connectedness witness.

    Walks the vertex pairs in lexicographic order and runs the pair solver
    on each pair no path covers yet.  The first blocked pair yields a cycle
    through its extremal structure, built from the certificate ``solve``
    has checked.  Each path the solver returns seeds a breadth-first search
    of Pósa rotations (``_rotate_into``), which covers further pairs without
    solving them; a covered pair has a rainbow Hamiltonian path (each step
    takes its color from the new edge's colors among the spare one and the
    cut edge's, the rule ``replay_derivation`` checks), so it cannot be
    blocked, and the first blocked pair is the same as if every pair were
    solved.  If no pair is blocked, the seeds and steps form
    a ``RotationDerivation``; one replay checks it and builds the paths, one
    per pair and each read from its smaller end, which witness
    connectedness.  The cycle passes the certificate checker, and the
    derivation its replay, before either is returned.  Needs n >= 4, the
    pair solver's bound k = 0 <= (n-4)/3.
    """
    n = collection.n_vertices
    if n < 4:
        raise InputError(f"the cycle-or-connected corollary needs n >= 4, got n={n}")
    if not check_hypothesis(collection, 0):
        raise InputError("collection violates sigma2 >= n")
    total = n * (n - 1) // 2
    entries: list = []
    covered: set[tuple[int, int]] = set()
    for u, v in combinations(range(n), 2):
        if (u, v) in covered:
            continue
        outcome = solve_pair(collection, u, v)
        if outcome.extremal is not None:
            cycle = _certified(collection, cycle_from_checked_extremal(collection, outcome.extremal),
                               None, "corollary cycle")
            return HamiltonianConnectivityResult(cycle=cycle, extremal=outcome.extremal)
        entries.append(outcome.path)
        covered.add((u, v))
        _rotate_into(collection, entries, covered, total)
    derivation = RotationDerivation(tuple(entries))
    problems: list[str] = []
    paths = replay_derivation(collection, derivation, problems)
    if problems:
        raise InternalError("corollary derivation certificate fails verification: "
                            + "; ".join(problems))
    return HamiltonianConnectivityResult(paths=dict(sorted(paths.items())), derivation=derivation)
