"""Constructive solver for rainbow Hamiltonian u,v-paths containing a forest.

Pipeline: delete the k+2 forest vertices D and the k fixed colors, dispatch
the reduced collection through the spanning-path trichotomy, then undo the
deletion constructively.  The spanning-path case absorbs interior forest
components into the path by end-splices and degree-sum rotations, then
attaches the endpoint components; the identical-split case threads the
forest through the two cliques via the deleted layer; the heavy-side case
grows the forest inside the small side, contracts it, and routes an
alternating path through the complete bipartite remainder.  When the
rotation heuristic finds no spanning path, the fallback runs the oracle's
exact-search kernel, so an exhausted budget raises its BudgetExceeded.

Every quantity the underlying counting arguments pin down (unused-color
budgets, path lengths, nonempty rotation windows) is asserted at runtime;
a violation raises InternalError with a repro bundle instead of degrading.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations

from .forest import (
    RainbowLinearForest,
    ReductionPlan,
    is_h_compatible,
    reduce_collection,
    select_deletion_set,
)
from .model import (
    Edge,
    GraphCollection,
    InputError,
    InternalError,
    PathCertificate,
    canonical_edge,
    check_hypothesis,
    degree,
    path_certificate_violations,
    rainbow_assignment,
    validate_path_certificate,
)
from .oracle import OracleBudget, exact_search
from .structures import (
    ExtremalCertificate,
    certificate_violations,
    detect_identical_split,
    detect_independent_heavy_side,
)


#: End rotations the heuristic may spend per vertex before it gives up on a start.
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
    absorbed: set[int] = field(default_factory=set)

    def edge_map(self) -> dict[Edge, int]:
        return {
            canonical_edge(self.order[i], self.order[i + 1]): self.colors[i]
            for i in range(len(self.order) - 1)
        }

    def unused_colors(self) -> set[int]:
        return set(range(self.n_colors)) - set(self.colors) - set(self.forest_colors.values())

    def forest_positions(self) -> set[int]:
        edges = set(self.forest_colors)
        return {
            i
            for i in range(len(self.order) - 1)
            if canonical_edge(self.order[i], self.order[i + 1]) in edges
        }

    def forest_edges_on_path(self) -> int:
        return len(self.forest_positions())


def _rebuild(wp: WorkingPath, new_order: list[int], emap: dict[Edge, int]) -> WorkingPath:
    colors = []
    for i in range(len(new_order) - 1):
        edge = canonical_edge(new_order[i], new_order[i + 1])
        if edge not in emap:
            raise InternalError(f"rebuilt path lost the color of edge {edge}")
        colors.append(emap[edge])
    if len(set(colors)) != len(colors):
        raise InternalError("rebuilt path is not rainbow")
    return WorkingPath(new_order, colors, wp.n_colors, wp.forest_colors, set(wp.absorbed))


def _component_edge_colors(wp: WorkingPath, comp: tuple[int, ...]) -> list[tuple[Edge, int]]:
    out = []
    for i in range(len(comp) - 1):
        edge = canonical_edge(comp[i], comp[i + 1])
        out.append((edge, wp.forest_colors[edge]))
    return out


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

def _absorb_one(
    wp: WorkingPath,
    comp: tuple[int, ...],
    comp_id: int,
    collection: GraphCollection,
    ore_bound: int,
    trace: list[dict],
) -> WorkingPath:
    vt, wt = comp[0], comp[-1]
    order = list(wp.order)
    emap = wp.edge_map()
    S = sorted(wp.unused_colors())
    if len(S) != 3:
        raise InternalError(f"absorption started with {len(S)} unused colors, expected 3")
    j = order.index(vt)
    L = len(order)
    rc = list(reversed(comp))  # [wt ... vt]
    comp_edges = _component_edge_colors(wp, comp)
    mode = "end"
    position = None

    if j == L - 1:
        new_order = order + list(comp[1:])
    elif j == 0:
        new_order = rc[:-1] + order
    else:
        direct_color = next((a for a in S if collection.has_edge(a, order[0], wt)), None)
        if direct_color is None:
            rev_color = next((a for a in S if collection.has_edge(a, order[-1], wt)), None)
            if rev_color is not None:
                # Canonical edges are orientation-free; only order and j flip.
                order.reverse()
                j = L - 1 - j
                direct_color = rev_color
        if direct_color is not None:
            mode = "direct"
            new_order = order[j - 1 :: -1] + rc + order[j + 1 :]
            del emap[canonical_edge(order[j - 1], order[j])]
            emap[canonical_edge(order[0], wt)] = direct_color
        else:
            mode = "rotation"
            result = None
            for flip in (False, True):
                if flip:
                    order.reverse()
                    j = L - 1 - j
                pair = _pigeonhole_colors(collection, S, order[0], wt, ore_bound)
                if pair is None:
                    continue
                a1, a2 = pair
                p = _rotation_window(collection, wp, order, a1, a2, wt)
                if p is not None:
                    result = (a1, a2, p)
                    break
            if result is None:
                raise InternalError(
                    f"absorption of component {comp} found no rotation window; "
                    "the degree-sum argument guarantees one",
                    bundle={"order": list(wp.order), "component": list(comp)},
                )
            a1, a2, p = result
            position = p
            forest_edges = set(wp.forest_colors)
            if p <= j - 2:
                new_order = order[j - 1 : p : -1] + order[: p + 1] + rc + order[j + 1 :]
                cut = [(order[p], order[p + 1]), (order[j - 1], order[j])]
                joins = [(canonical_edge(order[0], order[p + 1]), a2),
                         (canonical_edge(order[p], wt), a1)]
            elif p == j - 1:
                new_order = order[: p + 1] + rc + order[j + 1 :]
                cut = [(order[p], order[p + 1])]
                joins = [(canonical_edge(order[p], wt), a1)]
            elif p == j:
                new_order = rc + order[j - 1 :: -1] + order[j + 1 :]
                cut = [(order[p], order[p + 1])]
                joins = [(canonical_edge(order[0], order[p + 1]), a2)]
            else:
                new_order = order[j + 1 : p + 1] + rc + order[j - 1 :: -1] + order[p + 1 :]
                cut = [(order[j], order[j + 1]), (order[p], order[p + 1])]
                joins = [(canonical_edge(order[p], wt), a1),
                         (canonical_edge(order[0], order[p + 1]), a2)]
            for a, b in cut:
                edge = canonical_edge(a, b)
                if edge in forest_edges:
                    raise InternalError(f"rotation tried to cut forest edge {edge}")
                del emap[edge]
            for edge, color in joins:
                emap[edge] = color

    for edge, color in comp_edges:
        emap[edge] = color
    new_wp = _rebuild(wp, new_order, emap)
    new_wp.absorbed.add(comp_id)
    _assert_stage(new_wp, 3, len(wp.order) + len(comp) - 1, f"absorb {comp}")
    _record(
        trace,
        stage="absorb",
        component=list(comp),
        mode=mode,
        position=position,
        unused_after=3,
        length_after=len(new_wp.order),
        forest_edges_on_path=new_wp.forest_edges_on_path(),
    )
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
    the growth argument does not depend on the order.
    """
    trace = trace if trace is not None else []
    for comp_id, comp in enumerate(components):
        if comp_id in wp.absorbed:
            continue
        wp = _absorb_one(wp, comp, comp_id, collection, ore_bound, trace)
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
    order = list(wp.order)
    emap = wp.edge_map()
    comp_edges = _component_edge_colors(wp, comp)
    mode = "direct"
    position = None

    ends = [False, True] if endpoint_role == "u" else [False]
    chosen = None
    for flip in ends:
        work = list(reversed(order)) if flip else list(order)
        a = next((a for a in S if collection.has_edge(a, work[0], far)), None)
        if a is not None:
            chosen = (work, a)
            break
    if chosen is not None:
        work, a = chosen
        new_order = list(comp) + work
        emap[canonical_edge(far, work[0])] = a
    else:
        mode = "rotation"
        result = None
        for flip in ends:
            work = list(reversed(order)) if flip else list(order)
            pair = _pigeonhole_colors(collection, S, work[0], far, ore_bound)
            if pair is None:
                continue
            a1, a2 = pair
            p = _rotation_window(collection, wp, work, a1, a2, far)
            if p is not None:
                result = (work, a1, a2, p)
                break
        if result is None:
            raise InternalError(
                f"attachment of {comp} as {endpoint_role} found no rotation window",
                bundle={"order": list(wp.order), "component": list(comp)},
            )
        work, a1, a2, p = result
        position = p
        new_order = list(comp) + work[p::-1] + work[p + 1 :]
        edge = canonical_edge(work[p], work[p + 1])
        if edge in wp.forest_colors:
            raise InternalError(f"rotation tried to cut forest edge {edge}")
        del emap[edge]
        emap[canonical_edge(far, work[p])] = a1
        emap[canonical_edge(work[0], work[p + 1])] = a2

    for edge, color in comp_edges:
        emap[edge] = color
    new_wp = _rebuild(wp, new_order, emap)
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
    _record(
        trace,
        stage=f"attach_{endpoint_role}",
        component=list(comp),
        mode=mode,
        position=position,
        unused_after=len(new_wp.unused_colors()),
        length_after=len(new_wp.order),
        forest_edges_on_path=new_wp.forest_edges_on_path(),
    )
    return new_wp


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


def _try_extend(collection: GraphCollection, order: list[int], colors: list[int],
                used: set[int], front: bool) -> bool:
    end = order[0] if front else order[-1]
    on_path = set(order)
    for x in range(collection.n_vertices):
        if x in on_path:
            continue
        for c in collection.colors_with_edge(end, x):
            if c in used:
                continue
            if front:
                order.insert(0, x)
                colors.insert(0, c)
            else:
                order.append(x)
                colors.append(c)
            used.add(c)
            return True
    return False


def _heuristic_spanning_path(
    collection: GraphCollection,
) -> tuple[list[int], list[int]] | None:
    """Greedy growth plus end rotations; incomplete but fast on dense inputs."""
    n = collection.n_vertices
    for start in range(n):
        order = [start]
        colors: list[int] = []
        used: set[int] = set()
        stalls = 0
        while len(order) < n:
            if _try_extend(collection, order, colors, used, front=False):
                stalls = 0
                continue
            if _try_extend(collection, order, colors, used, front=True):
                stalls = 0
                continue
            if stalls >= HEURISTIC_STALL_LIMIT * n:
                break
            rotated = False
            for flip in (False, True):
                if flip:
                    order.reverse()
                    colors.reverse()
                back = order[-1]
                for p in range(len(order) - 2):
                    for c in collection.colors_with_edge(order[p], back):
                        if c in used:
                            continue
                        used.discard(colors[p])
                        used.add(c)
                        order[p + 1 :] = reversed(order[p + 1 :])
                        colors[p:] = [c] + colors[p + 1 :][::-1]
                        rotated = True
                        break
                    if rotated:
                        break
                if rotated:
                    break
            if not rotated:
                break
            stalls += 1
        if len(order) == n:
            return order, colors
    return None


def _exhaustive_spanning_path(
    collection: GraphCollection, budget: OracleBudget = OracleBudget()
) -> tuple[list[int], list[int]] | None:
    """Exact spanning rainbow path search over all vertex orders, budget-capped.

    Runs the oracle's search kernel from every start vertex in turn and
    colors the first order it finds with ``rainbow_assignment``; raises
    BudgetExceeded when the budget runs out.
    """
    n = collection.n_vertices
    order, _, _ = exact_search(collection, [(start,) for start in range(n)], budget)
    if order is None:
        return None
    edges = [canonical_edge(order[i], order[i + 1]) for i in range(n - 1)]
    assignment = rainbow_assignment(collection, edges)
    return order, [assignment[edge] for edge in edges]


def li2_dispatch(collection: GraphCollection) -> Li2Result:
    """Trichotomy for collections with sigma2 >= |V|-2 in every color.

    Detects the identical two-clique split, then the independent heavy side;
    otherwise a spanning rainbow path exists and is produced by rotation
    heuristics with an exhaustive fallback.  An exhausted fallback raises
    BudgetExceeded; a completed fallback that finds nothing raises
    InternalError, because the trichotomy says it cannot happen.
    """
    n = collection.n_vertices
    if collection.n_colors < n:
        raise InputError(f"dispatch needs at least n={n} colors, got {collection.n_colors}")
    for c, value in enumerate(collection.sigma2s):
        if value < n - 2:
            raise InputError(f"color {c} has sigma2 below |V|-2; dispatch precondition broken")
    split = detect_identical_split(collection)
    if split is not None:
        ell, X, Y = split
        return Li2Result(kind="A2", ell=ell, X=X, Y=Y)
    heavy = detect_independent_heavy_side(collection)
    if heavy is not None:
        X, Y = heavy
        return Li2Result(kind="A3", X=X, Y=Y)
    if n == 1:
        return Li2Result(kind="A1", order=(0,), colors=())
    found = _heuristic_spanning_path(collection)
    heuristic_used = found is not None
    if not heuristic_used:
        found = _exhaustive_spanning_path(collection)
    if found is None:
        raise InternalError(
            "no spanning rainbow path, no identical split, no heavy side: "
            "the reduced trichotomy is violated",
            bundle={"n": n, "m": collection.n_colors},
        )
    order, colors = found
    path = PathCertificate(tuple(order), tuple(colors))
    problems = path_certificate_violations(collection, path)
    if problems:
        raise InternalError("spanning-path search emitted an invalid path: " + "; ".join(problems))
    return Li2Result(kind="A1", order=path.order, colors=path.coloring,
                     heuristic_used=heuristic_used)


# ---------------------------------------------------------------------------
# Case 2: identical two-clique split plus the deleted layer
# ---------------------------------------------------------------------------

def _assert_deleted_layer_adjacency(
    collection: GraphCollection, plan: ReductionPlan, targets: set[int]
) -> None:
    """Every deleted vertex must see every target vertex in every retained color.

    Forced by the degree-sum hypothesis once the reduced side has a
    non-adjacent pair; checked literally because the construction leans on it.
    """
    for color in plan.retained_colors:
        for d in sorted(plan.deleted):
            row = collection.neighbors_mask(color, d)
            for g in sorted(targets):
                if not row >> g & 1:
                    raise InternalError(
                        f"deleted vertex {d} misses {g} in retained color {color}; "
                        "the hypothesis forces this adjacency",
                        bundle={"color": color, "pair": [d, g]},
                    )


def case2_construct(
    collection: GraphCollection,
    plan: ReductionPlan,
    ell: int,
    X: frozenset[int],
    Y: frozenset[int],
    trace: list[dict] | None = None,
) -> PathCertificate | ExtremalCertificate:
    """Resolve the identical-split case: a blocked-pair certificate or a path.

    With no interior components the split lifts to the two-clique blocking
    certificate.  Otherwise the path walks one clique, detours through each
    interior component at its kept endpoint, crosses between the cliques
    through the deleted layer (adjacent to everything), walks the other
    clique, and caps both ends with the endpoint components.
    """
    trace = trace if trace is not None else []
    forest = _plan_forest(plan)
    _assert_deleted_layer_adjacency(collection, plan, set(X) | set(Y))
    if plan.q == 0:
        cert = ExtremalCertificate("C2", X, Y, pair=(plan.u, plan.v))
        problems = certificate_violations(collection, cert, forest)
        if problems:
            raise InternalError(
                "derived C2 certificate fails verification: " + "; ".join(problems)
            )
        _record(trace, stage="case2", outcome="extremal")
        return cert

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
    cert = _finish_path(collection, forest, seq, plan)
    _record(trace, stage="case2", outcome="path")
    return cert


def _plan_forest(plan: ReductionPlan) -> RainbowLinearForest:
    """The normalized forest implied by a plan (singleton H_u/H_v materialized)."""
    comps = [plan.h_u, plan.h_v, *plan.middle_components]
    colors: dict[Edge, int] = {}
    for comp in comps:
        for i in range(len(comp) - 1):
            edge = canonical_edge(comp[i], comp[i + 1])
            colors[edge] = plan.forest_edge_colors[edge]
    return RainbowLinearForest(tuple(comps), colors)


def _finish_path(
    collection: GraphCollection,
    forest: RainbowLinearForest,
    seq: list[int],
    plan: ReductionPlan,
) -> PathCertificate:
    """Color the non-forest edges of a completed walk and certify it."""
    fixed = forest.fixed_colors
    loose = []
    for i in range(len(seq) - 1):
        edge = canonical_edge(seq[i], seq[i + 1])
        if edge not in fixed:
            loose.append(edge)
    assignment = rainbow_assignment(collection, loose, forbidden_colors=plan.dropped_colors)
    if assignment is None:
        raise InternalError(
            "completed walk admits no rainbow coloring; the structure facts "
            "guarantee one",
            bundle={"order": seq},
        )
    full = dict(fixed)
    full.update(assignment)
    coloring = tuple(full[canonical_edge(seq[i], seq[i + 1])] for i in range(len(seq) - 1))
    cert = PathCertificate(tuple(seq), coloring)
    if not validate_path_certificate(collection, cert, forest):
        raise InternalError("constructed path certificate fails validation")
    return cert


# ---------------------------------------------------------------------------
# Case 3: heavy independent side
# ---------------------------------------------------------------------------

def _assert_heavy_side_adjacency(
    collection: GraphCollection, plan: ReductionPlan, x_prime: set[int], y_side: set[int]
) -> None:
    """Every heavy-side vertex must see all of X' and D in every retained color."""
    others = sorted(x_prime | set(plan.deleted))
    for color in plan.retained_colors:
        for y in sorted(y_side):
            row = collection.neighbors_mask(color, y)
            for x in others:
                if not row >> x & 1:
                    raise InternalError(
                        f"heavy-side vertex {y} misses {x} in retained color {color}; "
                        "the degree-sum hypothesis forces completeness",
                        bundle={"color": color, "pair": [y, x]},
                    )


class _ForestScratch:
    """Union-find over the growing linear forest, tracking degrees and tags."""

    def __init__(self, forest: RainbowLinearForest) -> None:
        self.parent: dict[int, int] = {}
        self.degree: dict[int, int] = {}
        for comp in forest.components:
            for v in comp:
                self.parent[v] = v
                self.degree[v] = 0
            for i in range(len(comp) - 1):
                self.join(comp[i], comp[i + 1])

    def ensure(self, v: int) -> None:
        if v not in self.parent:
            self.parent[v] = v
            self.degree[v] = 0

    def find(self, v: int) -> int:
        self.ensure(v)
        root = v
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[v] != root:
            self.parent[v], v = root, self.parent[v]
        return root

    def join(self, a: int, b: int) -> None:
        self.ensure(a)
        self.ensure(b)
        self.degree[a] += 1
        self.degree[b] += 1
        self.parent[self.find(a)] = self.find(b)

    def can_link(self, a: int, b: int) -> bool:
        self.ensure(a)
        self.ensure(b)
        return self.degree[a] <= 1 and self.degree[b] <= 1 and self.find(a) != self.find(b)


def case3_extend_forest(
    collection: GraphCollection,
    plan: ReductionPlan,
    x_prime: set[int],
    y_side: set[int],
) -> RainbowLinearForest:
    """Grow the forest inside X' until exactly q-1 of its edges touch X'.

    Starts from the forest edges already incident to X' (one per kept
    endpoint landing there), greedily adds X'-internal edges in fresh
    retained colors, and tops up with a rainbow matching from usable X'
    vertices to the dropped endpoints, each matched in a color where it has
    enough dropped-endpoint neighbors.  The result keeps u and v in distinct
    components with degree at most one: the extended forest must still admit
    a Hamiltonian u,v-path around it.
    """
    forest = _plan_forest(plan)
    q = plan.q
    target = q - 1
    scratch = _ForestScratch(forest)
    used_colors = set(forest.fixed_colors.values())
    new_edges: dict[Edge, int] = {}
    anchors_in_x = sum(1 for v in plan.kept_endpoints if v in x_prime)
    count = anchors_in_x  # forest edges already incident to X'

    x_sorted = sorted(x_prime)
    for i, a in enumerate(x_sorted):
        if count >= target:
            break
        for b in x_sorted[i + 1 :]:
            if count >= target:
                break
            if not scratch.can_link(a, b):
                continue
            color = next(
                (
                    c
                    for c in plan.retained_colors
                    if c not in used_colors and collection.has_edge(c, a, b)
                ),
                None,
            )
            if color is None:
                continue
            new_edges[canonical_edge(a, b)] = color
            used_colors.add(color)
            scratch.join(a, b)
            count += 1

    if count < target:
        t = count
        w_set = list(plan.dropped_endpoints) + [plan.w_u, plan.w_v]
        need = target - t
        usable = [x for x in x_sorted if scratch.degree.get(x, 0) <= 1]

        def robust_colors(z: int) -> list[int]:
            out = []
            for c in plan.retained_colors:
                if c in used_colors:
                    continue
                row = collection.neighbors_mask(c, z)
                hits = sum(1 for w in w_set if row >> w & 1)
                if hits >= q - t:
                    out.append(c)
            return out

        matching: list[tuple[int, int, int]] = []

        def grow(start_idx: int, colors_used: set[int], wset_used: set[int]) -> bool:
            if len(matching) == need:
                return True
            for zi in range(start_idx, len(usable)):
                z = usable[zi]
                if scratch.degree.get(z, 0) > 1:
                    continue
                z_root = scratch.find(z)
                for c in robust_colors(z):
                    if c in colors_used:
                        continue
                    row = collection.neighbors_mask(c, z)
                    for w in sorted(set(w_set)):
                        if w in wset_used or not row >> w & 1:
                            continue
                        if not scratch.can_link(z, w):
                            continue
                        w_root = scratch.find(w)
                        # Never chain the endpoint components together.
                        if {z_root, w_root} == {scratch.find(plan.u), scratch.find(plan.v)}:
                            continue
                        saved = (dict(scratch.parent), dict(scratch.degree))
                        scratch.join(z, w)
                        matching.append((z, w, c))
                        if grow(zi + 1, colors_used | {c}, wset_used | {w}):
                            return True
                        matching.pop()
                        scratch.parent, scratch.degree = saved
            return False

        if not grow(0, set(), set()):
            raise InternalError(
                f"could not extend the forest to {target} edges touching X' "
                f"(reached {t}); the robust-vertex argument guarantees it",
                bundle={"x_prime": sorted(x_prime), "target": target, "reached": t},
            )
        for z, w, c in matching:
            new_edges[canonical_edge(z, w)] = c
            used_colors.add(c)
        count = target

    # Assemble H' as explicit paths from the merged edge set.
    adjacency: dict[int, list[int]] = {}
    colors: dict[Edge, int] = dict(forest.fixed_colors)
    colors.update(new_edges)
    vertices = set(forest.vertices())
    for (a, b) in colors:
        vertices.update((a, b))
    for a, b in colors:
        adjacency.setdefault(a, []).append(b)
        adjacency.setdefault(b, []).append(a)
    comps: list[tuple[int, ...]] = []
    seen: set[int] = set()
    for v in sorted(vertices):
        if v in seen:
            continue
        neighbors = adjacency.get(v, [])
        if len(neighbors) > 2:
            raise InternalError(f"extended forest has degree {len(neighbors)} at {v}")
        if len(neighbors) == 2:
            continue  # interior vertex; start from an endpoint
        comp = [v]
        seen.add(v)
        prev, cur = v, (neighbors[0] if neighbors else None)
        while cur is not None:
            comp.append(cur)
            seen.add(cur)
            nxt = [x for x in adjacency.get(cur, []) if x != prev]
            prev, cur = cur, (nxt[0] if nxt else None)
        comps.append(tuple(comp))
    if vertices - seen:
        raise InternalError("extended forest contains a cycle")
    hprime = RainbowLinearForest(tuple(comps), colors)

    if not is_h_compatible(hprime, plan.u, plan.v):
        raise InternalError("extended forest broke endpoint compatibility")
    touching = sum(1 for (a, b) in colors if a in x_prime or b in x_prime)
    if touching != target:
        raise InternalError(
            f"extended forest has {touching} edges touching X', expected {target}"
        )
    return hprime


def case3_contract_and_route(
    collection: GraphCollection,
    hprime: RainbowLinearForest,
    X: set[int],
    Y: set[int],
    u: int,
    v: int,
    plan: ReductionPlan,
) -> PathCertificate:
    """Contract the extended forest inside X and route an alternating path.

    Components of the extended forest restricted to X become super-vertices;
    there is exactly one more of them than |Y|, so a Hamiltonian u,v-path of
    the contracted system alternates sides.  Forest edges that cross into Y
    force their anchor next to the matching super-vertex; everything else is
    free because the X-Y bipartite layer is complete in every retained color.
    """
    colors = hprime.fixed_colors
    # Split each component at its Y vertices (always component endpoints).
    comp_paths: list[tuple[int, ...]] = []
    in_comp: dict[int, int] = {}
    anchor_entry: dict[int, int] = {}
    for comp in hprime.components:
        core = [x for x in comp if x in X]
        for y in comp:
            if y in Y:
                if y not in (comp[0], comp[-1]):
                    raise InternalError(f"crossing vertex {y} is interior to {comp}")
                neighbor = comp[1] if y == comp[0] else comp[-2]
                anchor_entry[y] = neighbor
        if core:
            comp_paths.append(tuple(core))
    for x in sorted(X):
        if not any(x in comp for comp in hprime.components):
            comp_paths.append((x,))
    for idx, path in enumerate(comp_paths):
        for x in path:
            in_comp[x] = idx

    n = collection.n_vertices
    k = plan.k
    expected = (n - k) // 2 + 1
    if len(comp_paths) != expected:
        raise InternalError(
            f"contraction yielded {len(comp_paths)} super-vertices, expected {expected}"
        )
    if len(Y) != expected - 1:
        raise InternalError("side sizes violate the alternation identity")

    u_comp = in_comp[u]
    v_comp = in_comp[v]
    if u_comp == v_comp:
        raise InternalError("endpoints were contracted together")

    required: dict[int, list[int]] = {}
    for y, entry in anchor_entry.items():
        required.setdefault(in_comp[entry], []).append(y)
    for comp_idx, ys in required.items():
        if len(ys) > 2 or (comp_idx in (u_comp, v_comp) and len(ys) > 1):
            raise InternalError("a super-vertex owes adjacency to too many anchors")

    # Units: [anchor?, comp, anchor?] pieces that concatenate into an
    # alternating comp/Y sequence starting at u's and ending at v's component.
    middle = [i for i in range(len(comp_paths)) if i not in (u_comp, v_comp)]
    two_sided = sorted(i for i in middle if len(required.get(i, ())) == 2)
    one_sided = sorted(i for i in middle if len(required.get(i, ())) == 1)
    plain = sorted(i for i in middle if i not in required)
    free_ys = sorted(set(Y) - set(anchor_entry))

    seq: list[tuple[str, int]] = [("comp", u_comp)]
    if u_comp in required:
        seq.append(("y", required[u_comp][0]))

    state = {
        "two": list(two_sided),
        "one": list(one_sided),
        "plain": list(plain),
        "free": list(free_ys),
    }
    tail: list[tuple[str, int]] = []
    if v_comp in required:
        tail.append(("y", required[v_comp][0]))
    tail.append(("comp", v_comp))

    def arrange(last_is_comp: bool, acc: list[tuple[str, int]]) -> list[tuple[str, int]] | None:
        if not state["two"] and not state["one"] and not state["plain"] and not state["free"]:
            if last_is_comp == (tail[0][0] == "y"):
                return acc + tail
            return None
        options: list[str] = []
        if last_is_comp:
            # Need a Y next: a free y, or a piece starting with its own anchor.
            options = ["two", "one_yc", "free"]
        else:
            options = ["plain", "one_cy"]
        for opt in options:
            if opt == "two" and state["two"]:
                i = state["two"].pop(0)
                a, b = sorted(required[i])
                res = arrange(False, acc + [("y", a), ("comp", i), ("y", b)])
                if res:
                    return res
                state["two"].insert(0, i)
            elif opt == "one_yc" and state["one"]:
                i = state["one"].pop(0)
                res = arrange(True, acc + [("y", required[i][0]), ("comp", i)])
                if res:
                    return res
                state["one"].insert(0, i)
            elif opt == "one_cy" and state["one"]:
                i = state["one"].pop(0)
                res = arrange(False, acc + [("comp", i), ("y", required[i][0])])
                if res:
                    return res
                state["one"].insert(0, i)
            elif opt == "free" and state["free"]:
                y = state["free"].pop(0)
                res = arrange(False, acc + [("y", y)])
                if res:
                    return res
                state["free"].insert(0, y)
            elif opt == "plain" and state["plain"]:
                i = state["plain"].pop(0)
                res = arrange(True, acc + [("comp", i)])
                if res:
                    return res
                state["plain"].insert(0, i)
        return None

    arranged = arrange(seq[-1][0] == "comp", seq)
    if arranged is None:
        raise InternalError(
            "no alternating arrangement of contracted components and anchors",
            bundle={"required": {str(k_): v_ for k_, v_ in required.items()}},
        )

    # Expand super-vertices, honoring forced entry/exit endpoints.
    order: list[int] = []
    for pos, (kind, ident) in enumerate(arranged):
        if kind == "y":
            order.append(ident)
            continue
        path = list(comp_paths[ident])
        entry_forced = None
        exit_forced = None
        if pos > 0 and arranged[pos - 1][0] == "y":
            y_prev = arranged[pos - 1][1]
            if y_prev in anchor_entry and in_comp[anchor_entry[y_prev]] == ident:
                entry_forced = anchor_entry[y_prev]
        if pos + 1 < len(arranged) and arranged[pos + 1][0] == "y":
            y_next = arranged[pos + 1][1]
            if y_next in anchor_entry and in_comp[anchor_entry[y_next]] == ident:
                exit_forced = anchor_entry[y_next]
        if ident == u_comp:
            entry_forced = u
        if ident == v_comp:
            exit_forced = v
        if entry_forced is not None and path[0] != entry_forced:
            path.reverse()
        elif entry_forced is None and exit_forced is not None and path[-1] != exit_forced:
            path.reverse()
        if entry_forced is not None and path[0] != entry_forced:
            raise InternalError(f"cannot enter component {path} at {entry_forced}")
        if exit_forced is not None and path[-1] != exit_forced:
            raise InternalError(f"cannot exit component {path} at {exit_forced}")
        order.extend(path)

    if sorted(order) != list(range(n)):
        raise InternalError("case-3 route is not a permutation of the vertex set")
    if order[0] != u or order[-1] != v:
        raise InternalError("case-3 route endpoints are wrong")

    loose = []
    for i in range(n - 1):
        edge = canonical_edge(order[i], order[i + 1])
        if edge not in colors:
            loose.append(edge)
    assignment = rainbow_assignment(
        collection, loose, forbidden_colors=set(colors.values())
    )
    if assignment is None:
        raise InternalError("case-3 route admits no rainbow coloring")
    full = dict(colors)
    full.update(assignment)
    coloring = tuple(full[canonical_edge(order[i], order[i + 1])] for i in range(n - 1))
    cert = PathCertificate(tuple(order), coloring)
    forest = _plan_forest(plan)
    if not validate_path_certificate(collection, cert, forest):
        raise InternalError("case-3 certificate fails validation")
    return cert


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
    compatible endpoint pair.  The result is always self-checked: paths
    validate, certificates verify.
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
    if not is_h_compatible(forest, u, v):
        raise InputError(f"({u},{v}) is not a compatible pair for the forest")

    trace: list[dict] = []
    plan = select_deletion_set(forest, u, v, n, collection.n_colors)
    reduced = reduce_collection(collection, plan)
    dispatch = li2_dispatch(reduced)
    _record(
        trace,
        stage="dispatch",
        result=dispatch.kind,
        heuristic=dispatch.heuristic_used,
        reduced_n=reduced.n_vertices,
    )

    if dispatch.kind == "A1":
        lift = plan.new_to_old
        order = [lift[x] for x in dispatch.order]
        colors = [plan.retained_colors[c] for c in dispatch.colors]
        wp = WorkingPath(order, colors, collection.n_colors, dict(plan.forest_edge_colors))
        _assert_stage(wp, 3, n - k - 2, "reduced path lift")
        ore_bound = n + k
        wp = absorb_components(wp, plan.middle_components, collection, ore_bound, trace)
        wp = attach_terminal_component(wp, plan.h_u, "u", collection, ore_bound, trace)
        wp = attach_terminal_component(wp, plan.h_v, "v", collection, ore_bound, trace)
        order = list(reversed(wp.order))
        colors = list(reversed(wp.colors))
        cert = PathCertificate(tuple(order), tuple(colors))
        if not validate_path_certificate(collection, cert, _plan_forest(plan)):
            raise InternalError("case-1 certificate fails validation")
        return SolverOutcome(path=cert, trace=tuple(trace))

    if dispatch.kind == "A2":
        lift = plan.new_to_old
        X = frozenset(lift[x] for x in dispatch.X)
        Y = frozenset(lift[x] for x in dispatch.Y)
        result = case2_construct(collection, plan, dispatch.ell, X, Y, trace)
        if isinstance(result, ExtremalCertificate):
            return SolverOutcome(extremal=result, trace=tuple(trace))
        return SolverOutcome(path=result, trace=tuple(trace))

    # A3: heavy independent side.
    lift = plan.new_to_old
    x_prime = {lift[x] for x in dispatch.X}
    y_side = {lift[x] for x in dispatch.Y}
    _assert_heavy_side_adjacency(collection, plan, x_prime, y_side)
    X = x_prime | set(plan.deleted)
    forest_norm = _plan_forest(plan)
    if not forest_norm.vertices() & y_side:
        cert = ExtremalCertificate("C3", frozenset(X), frozenset(y_side), pair=(u, v))
        problems = certificate_violations(collection, cert, forest_norm)
        if problems:
            raise InternalError(
                "derived C3 certificate fails verification: " + "; ".join(problems)
            )
        _record(trace, stage="case3", outcome="extremal")
        return SolverOutcome(extremal=cert, trace=tuple(trace))
    hprime = case3_extend_forest(collection, plan, x_prime, y_side)
    cert = case3_contract_and_route(collection, hprime, X, y_side, u, v, plan)
    _record(trace, stage="case3", outcome="path")
    return SolverOutcome(path=cert, trace=tuple(trace))


def solve_pair(
    collection: GraphCollection,
    u: int,
    v: int,
) -> SolverOutcome:
    """Forest-free specialization; extremal outcomes retag as B2/B3.

    A two-clique blocking certificate around the bare pair is exactly B2; a
    heavy-side certificate with the pair inside the big side is a (stronger
    form of a) B3 certificate.
    """
    outcome = solve(collection, RainbowLinearForest.empty(), u, v, 0)
    if outcome.extremal is None:
        return outcome
    old = outcome.extremal
    kind = "B2" if old.kind == "C2" else "B3"
    cert = ExtremalCertificate(kind, old.X, old.Y, pair=(u, v))
    problems = certificate_violations(collection, cert)
    if problems:
        raise InternalError(
            f"retagged {kind} certificate fails verification: " + "; ".join(problems)
        )
    return SolverOutcome(extremal=cert, trace=outcome.trace)


@dataclass(frozen=True)
class HamiltonianConnectivityResult:
    """Either a rainbow Hamiltonian cycle or a full pair -> path map."""

    cycle: "object | None" = None
    extremal: ExtremalCertificate | None = None
    paths: dict[tuple[int, int], PathCertificate] | None = None

    @property
    def kind(self) -> str:
        return "cycle" if self.cycle is not None else "connected"


def hamiltonian_or_connected(collection: GraphCollection) -> HamiltonianConnectivityResult:
    """Rainbow Hamiltonian cycle, or rainbow Hamiltonian-connectedness witness.

    Runs the pair solver over every vertex pair; the first blocked pair
    yields a cycle through its extremal structure, and if no pair is blocked
    the collected paths witness connectedness.
    """
    from .structures import cycle_from_extremal

    if not check_hypothesis(collection, 0):
        raise InputError("collection violates sigma2 >= n")
    paths: dict[tuple[int, int], PathCertificate] = {}
    for u in range(collection.n_vertices):
        for v in range(u + 1, collection.n_vertices):
            outcome = solve_pair(collection, u, v)
            if outcome.extremal is not None:
                cycle = cycle_from_extremal(collection, outcome.extremal)
                return HamiltonianConnectivityResult(cycle=cycle, extremal=outcome.extremal)
            paths[(u, v)] = outcome.path
    return HamiltonianConnectivityResult(paths=paths)
