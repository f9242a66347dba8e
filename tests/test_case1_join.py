"""Case-1 absorption and terminal attachment against their earlier versions.

``reference_absorb_one``, ``reference_absorb_components``,
``reference_attach_terminal_component``, ``reference_rebuild`` and
``reference_component_edge_colors`` are the versions that kept one "direct
join, else rotate" loop per stage, four slices of the rotation window in
absorption, and the ``absorbed`` set on the working path.  They are kept
verbatim as references (``ReferenceWorkingPath`` is the working path they
were written for); the shared join step in ``rainbowpath.solver`` must give
the same order, colors and trace record, or the same InternalError with the
same bundle, on every seeded input.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations

from rainbowpath import GraphCollection, InputError, InternalError
from rainbowpath.model import Edge, canonical_edge
from rainbowpath.solver import (
    WorkingPath,
    _assert_stage,
    _pigeonhole_colors,
    _record,
    _rotation_window,
    absorb_components,
    attach_terminal_component,
)

SEEDS = range(5000)
ROLES = ("absorb", "u", "v")


@dataclass
class ReferenceWorkingPath:
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
        return {(a, b) if a < b else (b, a): c
                for a, b, c in zip(self.order, self.order[1:], self.colors)}

    def unused_colors(self) -> set[int]:
        return set(range(self.n_colors)) - set(self.colors) - set(self.forest_colors.values())

    def forest_edges_on_path(self) -> int:
        return len(self.forest_colors.keys() & self.edge_map().keys()) if self.forest_colors else 0


def reference_rebuild(wp: ReferenceWorkingPath, new_order: list[int],
                      emap: dict[Edge, int]) -> ReferenceWorkingPath:
    colors = []
    for a, b in zip(new_order, new_order[1:]):
        edge = (a, b) if a < b else (b, a)
        if edge not in emap:
            raise InternalError(f"rebuilt path lost the color of edge {edge}")
        colors.append(emap[edge])
    if len(set(colors)) != len(colors):
        raise InternalError("rebuilt path is not rainbow")
    return ReferenceWorkingPath(new_order, colors, wp.n_colors, wp.forest_colors, set(wp.absorbed))


def reference_component_edge_colors(wp: ReferenceWorkingPath,
                                    comp: tuple[int, ...]) -> list[tuple[Edge, int]]:
    out = []
    for i in range(len(comp) - 1):
        edge = canonical_edge(comp[i], comp[i + 1])
        out.append((edge, wp.forest_colors[edge]))
    return out


def reference_absorb_one(
    wp: ReferenceWorkingPath,
    comp: tuple[int, ...],
    comp_id: int,
    collection: GraphCollection,
    ore_bound: int,
    trace: list[dict],
) -> ReferenceWorkingPath:
    vt, wt = comp[0], comp[-1]
    order = list(wp.order)
    emap = wp.edge_map()
    S = sorted(wp.unused_colors())
    if len(S) != 3:
        raise InternalError(f"absorption started with {len(S)} unused colors, expected 3")
    j = order.index(vt)
    L = len(order)
    rc = list(reversed(comp))  # [wt ... vt]
    comp_edges = reference_component_edge_colors(wp, comp)
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
    new_wp = reference_rebuild(wp, new_order, emap)
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


def reference_absorb_components(
    wp: ReferenceWorkingPath,
    components: tuple[tuple[int, ...], ...],
    collection: GraphCollection,
    ore_bound: int,
    trace: list[dict] | None = None,
) -> ReferenceWorkingPath:
    """Splice every interior forest component into the path, keeping 3 spare colors.

    Components are oriented kept-endpoint first; each has that endpoint on the
    path already.  Absorption order is by component index (smallest first);
    the growth argument does not depend on the order.
    """
    trace = trace if trace is not None else []
    for comp_id, comp in enumerate(components):
        if comp_id in wp.absorbed:
            continue
        wp = reference_absorb_one(wp, comp, comp_id, collection, ore_bound, trace)
    return wp


def reference_attach_terminal_component(
    wp: ReferenceWorkingPath,
    comp: tuple[int, ...],
    endpoint_role: str,
    collection: GraphCollection,
    ore_bound: int,
    trace: list[dict] | None = None,
) -> ReferenceWorkingPath:
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
    comp_edges = reference_component_edge_colors(wp, comp)
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
    new_wp = reference_rebuild(wp, new_order, emap)
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


def _case(seed: int):
    """One stage input: a random collection on n = 7..14 vertices, a rainbow
    path in it, one forest component, and exactly the spare colors the stage
    expects (3 to absorb or attach u, 2 to attach v).

    In 80% of the draws no spare color joins either path end to the
    component's far end, which forces the rotation; the Ore bound is drawn
    from n-2..n+2, so some draws have no window and raise InternalError.
    """
    rng = random.Random(seed)
    role = ROLES[seed % 3]
    n = rng.randint(7, 14)
    density = rng.uniform(0.5, 0.95)
    labels = rng.sample(range(n), n)
    size = rng.randint(2, 3) if role == "absorb" else rng.randint(1, 3)
    comp = tuple(labels[:size])
    if role == "absorb":
        path = [comp[0], *labels[size : size + rng.randint(3, n - size)]]
        rng.shuffle(path)
    else:
        path = labels[size : size + rng.randint(4, n - size)]
    spare = 2 if role == "v" else 3
    n_colors = len(path) - 1 + size - 1 + spare
    palette = rng.sample(range(n_colors), n_colors)
    path_colors = palette[: len(path) - 1]
    forest_colors = {canonical_edge(a, b): c
                     for a, b, c in zip(comp, comp[1:], palette[len(path) - 1 :])}
    spares = palette[n_colors - spare :]

    edges = [{pair for pair in combinations(range(n), 2) if rng.random() < density}
             for _ in range(n_colors)]
    for a, b, c in zip(path, path[1:], path_colors):
        edges[c].add(canonical_edge(a, b))
    for edge, c in forest_colors.items():
        edges[c].add(edge)
    if rng.random() < 0.8:
        for c in spares:
            for end in (path[0], path[-1]):
                edges[c].discard(canonical_edge(end, comp[-1]))
    collection = GraphCollection.from_edge_lists(n, [sorted(e) for e in edges])
    ore_bound = n + rng.randint(-2, 2)
    return role, collection, path, path_colors, n_colors, forest_colors, comp, ore_bound


def _run(stage, *args):
    trace: list[dict] = []
    try:
        wp = stage(*args, trace)
    except InternalError as exc:
        return "error", str(exc), exc.bundle
    return wp.order, wp.colors, trace


def _window_case(before: list[int], after: list[int], vt: int, p: int) -> str:
    # The rotation keeps the back end of the orientation it used.
    order = before if after[-1] == before[-1] else before[::-1]
    j = order.index(vt)
    return "p<j-1" if p < j - 1 else "p=j-1" if p == j - 1 else "p=j" if p == j else "p>j"


def test_join_matches_references():
    counts: Counter = Counter()
    for seed in SEEDS:
        role, coll, path, colors, m, forest_colors, comp, ore = _case(seed)

        def stage(path_type, absorb, attach):
            wp = path_type(list(path), list(colors), m, dict(forest_colors))
            if role == "absorb":
                return _run(absorb, wp, (comp,), coll, ore)
            return _run(attach, wp, comp, role, coll, ore)

        got = stage(WorkingPath, absorb_components, attach_terminal_component)
        expected = stage(ReferenceWorkingPath, reference_absorb_components,
                         reference_attach_terminal_component)
        assert got == expected, seed
        if got[0] == "error":
            counts["error"] += 1
            continue
        record = got[2][-1]
        if record["mode"] != "rotation":
            continue
        counts[role] += 1
        if role == "absorb":
            counts[_window_case(path, got[0], comp[0], record["position"])] += 1
    window_cases = ("p<j-1", "p=j-1", "p=j", "p>j")
    assert min(counts[key] for key in window_cases) >= 20, counts
    assert min(counts[role] for role in ROLES) >= 200, counts
    assert counts["error"] >= 50, counts
    print(f"\n[case-1 join] {dict(counts)}")
