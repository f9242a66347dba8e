"""The case-2 and case-3 path constructions on the seeded families that reach them.

``reference_case3_extend_forest`` and ``reference_case3_contract_and_route``
are the earlier versions of the two case-3 steps, which searched: a
depth-first search over top-up links that snapshots the union-find at every
node, and a backtracking search over piece orders.  Their logic is kept
verbatim as references; the one-pass versions in ``rainbowpath.solver`` must give
byte-identical certificates on every family instance.
"""

from __future__ import annotations

import random
import sys
from collections import Counter
from types import SimpleNamespace

import pytest

import rainbowpath.solver
from rainbowpath import (
    FOUND,
    InternalError,
    RainbowLinearForest,
    check_hypothesis,
    exact_rainbow_ham_path,
    is_h_compatible,
    li2_dispatch,
    select_deletion_set,
    solve,
    validate_path_certificate,
)
from rainbowpath.forest import ReductionPlan
from rainbowpath.model import Edge, GraphCollection, PathCertificate, bits, canonical_edge
from rainbowpath.serialize import dumps, outcome_to_dict
from rainbowpath.solver import _finish_path

from .conftest import case2_family, case3_family, case3_tight_family, without_edge

CASE2_SEEDS = range(500)
CASE3_SEEDS = range(1000)
CASE3_TIGHT_SEEDS = range(500)
ORACLE_MAX_N = 9


class ReferenceForestScratch:
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


def reference_case3_extend_forest(
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
    a Hamiltonian u,v-path around it.
    """
    forest = plan.forest
    q = plan.q
    target = q - 1
    scratch = ReferenceForestScratch(forest)
    used_colors = set(forest.fixed_colors.values())
    new_edges: dict[Edge, int] = {}
    anchors_in_x = sum(1 for comp in plan.middle_components if comp[0] in x_prime)
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
                    for c in bits(plan.retained_mask)
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
        w_set = [comp[-1] for comp in plan.middle_components] + [plan.h_u[-1], plan.h_v[-1]]
        need = target - t
        usable = [x for x in x_sorted if scratch.degree.get(x, 0) <= 1]

        def robust_colors(z: int) -> list[int]:
            out = []
            for c in bits(plan.retained_mask):
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


def reference_case3_contract_and_route(
    collection: GraphCollection,
    hprime: RainbowLinearForest,
    X: set[int],
    Y: set[int],
    plan: ReductionPlan,
) -> PathCertificate:
    """Contract the extended forest inside X and route an alternating path.

    Components of the extended forest restricted to X become super-vertices;
    there is exactly one more of them than |Y|, so a Hamiltonian u,v-path of
    the contracted system alternates sides.  Forest edges that cross into Y
    force their anchor next to the matching super-vertex; everything else is
    free because the X-Y bipartite layer is complete in every retained color.
    """
    u, v = plan.u, plan.v
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
    k = plan.forest.edge_count
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

    return _finish_path(collection, order, colors, plan.forest)


def _family_runs():
    for family, seeds in ((case2_family, CASE2_SEEDS), (case3_family, CASE3_SEEDS),
                          (case3_tight_family, CASE3_TIGHT_SEEDS)):
        for seed in seeds:
            coll, forest, u, v, k = family(seed)
            assert check_hypothesis(coll, k), (family.__name__, seed)
            yield coll, forest, u, v, k


def test_construction_branches(monkeypatch):
    counts: Counter = Counter()
    oracle_checked = 0
    outputs = []
    for coll, forest, u, v, k in _family_runs():
        out = solve(coll, forest, u, v, k)
        record = out.trace[-1]
        assert out.path is not None and record["outcome"] == "path"
        assert validate_path_certificate(coll, out.path, forest)
        counts[record["stage"]] += 1
        counts["top_up"] += record.get("top_up", 0) > 0
        if coll.n_vertices <= ORACLE_MAX_N:
            assert exact_rainbow_ham_path(coll, u, v, forest).status == FOUND
            oracle_checked += 1
        outputs.append(dumps(outcome_to_dict(out)))
    assert counts["case2"] >= 300 and counts["case3"] >= 500 and counts["top_up"] >= 30, counts
    assert oracle_checked >= 150

    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(rainbowpath.solver, "case3_extend_forest",
                        counted("extend", reference_case3_extend_forest))
    monkeypatch.setattr(rainbowpath.solver, "case3_contract_and_route",
                        counted("route", reference_case3_contract_and_route))
    for (coll, forest, u, v, k), expected in zip(_family_runs(), outputs):
        assert dumps(outcome_to_dict(solve(coll, forest, u, v, k))) == expected
    assert calls["extend"] == calls["route"] == counts["case3"]
    print(f"\n[constructions] {counts['case2']} case-2 paths, {counts['case3']} case-3 paths "
          f"({counts['top_up']} with top-up links), {oracle_checked} oracle FOUND at "
          f"n <= {ORACLE_MAX_N}; certificates equal the search references")


def _route_case(seed: int):
    """A contracted system for ``case3_contract_and_route``: s super-vertices
    (paths in X) and |Y| = s - 1, with Y anchors at random ends of the cores.

    Some draws break a precondition of the routing (an endpoint inside its
    core, or an anchor on the endpoint's own end); both versions must then
    raise the same InternalError.
    """
    rng = random.Random(seed)
    s = rng.randint(2, 8)
    x_count = s + rng.randint(0, 3)
    n, k = x_count + s - 1, x_count - s + 1  # (n - k) // 2 + 1 == s
    labels = rng.sample(range(n), n)
    xs, ys = labels[:x_count], labels[x_count:]
    cuts = [0, *sorted(rng.sample(range(1, x_count), s - 1)), x_count]
    cores = [xs[a:b] for a, b in zip(cuts, cuts[1:])]
    comps = []
    for core in cores:
        front = [ys.pop()] if ys and rng.random() < 0.4 else []
        back = [ys.pop()] if ys and rng.random() < 0.4 else []
        if front or back or len(core) > 1 or rng.random() < 0.5:
            comps.append(tuple(front + core + back))
    u_core, v_core = rng.sample(cores, 2)
    u, v = rng.choice((u_core[0], u_core[-1])), rng.choice((v_core[0], v_core[-1]))
    plan = SimpleNamespace(u=u, v=v, forest=SimpleNamespace(edge_count=k))
    hprime = RainbowLinearForest(tuple(comps), {})
    return SimpleNamespace(n_vertices=n), hprime, set(xs), set(labels[x_count:]), plan


def _routed(route, case):
    try:
        return route(*case)
    except InternalError as exc:
        return "error", str(exc), exc.bundle


@pytest.mark.parametrize("family, seed, role, source, target, color", [
    (case2_family, 0, "deleted", 0, 1, 12),
    (case2_family, 1, "deleted", 2, 0, 8),
    (case2_family, 2, "deleted", 0, 1, 6),
    (case3_family, 0, "heavy-side", 0, 1, 15),
    (case3_family, 1, "heavy-side", 0, 2, 9),
    (case3_family, 2, "heavy-side", 1, 0, 6),
])
def test_construction_checks_the_forced_adjacency(family, seed, role, source, target, color,
                                                  monkeypatch):
    # Case 2 needs min(D) to see the lowest active vertex, case 3 needs
    # min(Y) to see min(D); the edge goes from the highest retained color.
    coll, forest, u, v, k = family(seed)
    n = coll.n_vertices
    plan = select_deletion_set(forest, u, v, n)
    if family is case2_family:
        a, b = min(plan.deleted), (plan.active & -plan.active).bit_length() - 1
    else:
        a, b = min(li2_dispatch(coll, plan.active, plan.retained_mask).Y), min(plan.deleted)
    monkeypatch.setattr(rainbowpath.solver, "check_hypothesis", lambda *args: True)
    with pytest.raises(InternalError) as info:
        solve(without_edge(coll, n - 1, a, b), forest, u, v, k)
    assert str(info.value) == (f"{role} vertex {source} misses {target} in retained color "
                               f"{color}; the hypothesis forces this adjacency")
    assert info.value.bundle == {"color": color, "pair": [source, target]}


def test_arrangement_matches_backtracking(monkeypatch):
    # The routed order itself is compared: coloring and validation are skipped.
    def walk(collection, seq, fixed, forest):
        return tuple(seq)

    monkeypatch.setattr(rainbowpath.solver, "_finish_path", walk)
    monkeypatch.setattr(sys.modules[__name__], "_finish_path", walk)
    kinds: Counter = Counter()
    for seed in range(3000):
        case = _route_case(seed)
        got = _routed(rainbowpath.solver.case3_contract_and_route, case)
        assert got == _routed(reference_case3_contract_and_route, case), seed
        _, hprime, X, Y, plan = case
        u, v = plan.u, plan.v
        ends = Counter(len(set(c) & Y) for c in hprime.components if u not in c and v not in c)
        kinds["two_sided"] += ends[2] > 0 and got[0] != "error"
        kinds["endpoint_anchor"] += any(set(c) & Y for c in hprime.components
                                        if u in c or v in c) and got[0] != "error"
        kinds["error"] += got[0] == "error"
        kinds["routed"] += got[0] != "error"
    assert min(kinds.values()) >= 100, kinds
