"""Rainbow linear forests, endpoint compatibility, and the deletion reduction.

A linear forest is a vertex-disjoint union of paths; here each edge also
carries a fixed color, injectively.  Solving for a Hamiltonian u,v-path
that contains such a forest starts by deleting a set D of k+2 forest
vertices (everything except one endpoint per interior component) and
dropping the k fixed colors, which lowers the Ore bound by exactly 2(k+2)
and hands the remaining collection to the spanning-path trichotomy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .model import Edge, GraphCollection, InputError, InternalError, canonical_edge


@dataclass(frozen=True)
class RainbowLinearForest:
    """Vertex-disjoint paths with an injective fixed edge -> color map.

    ``components`` are vertex sequences (singletons allowed); consecutive
    pairs are the forest's edges.  ``fixed_colors`` covers exactly those
    edges.  The edge count is the parameter k of the embedding theorems.
    """

    components: tuple[tuple[int, ...], ...]
    fixed_colors: dict[Edge, int]

    @classmethod
    def from_paths(
        cls,
        paths: Iterable[Iterable[int]],
        colors: dict[Edge, int] | Iterable[tuple[int, int, int]],
    ) -> "RainbowLinearForest":
        comps = tuple(tuple(p) for p in paths)
        if isinstance(colors, dict):
            fixed = {canonical_edge(u, v): c for (u, v), c in colors.items()}
        else:
            fixed = {canonical_edge(u, v): c for u, v, c in colors}
        forest = cls(comps, fixed)
        problems = forest.structure_violations()
        if problems:
            raise InputError("; ".join(problems))
        return forest

    @classmethod
    def empty(cls) -> "RainbowLinearForest":
        return cls((), {})

    def structure_violations(self) -> list[str]:
        problems: list[str] = []
        seen: set[int] = set()
        for comp in self.components:
            if not comp:
                problems.append("empty component")
                continue
            if len(set(comp)) != len(comp):
                problems.append(f"component {comp} repeats a vertex")
            overlap = seen.intersection(comp)
            if overlap:
                problems.append(f"components share vertices {sorted(overlap)}")
            seen.update(comp)
        edges = set(self.edges())
        if set(self.fixed_colors) != edges:
            problems.append("fixed_colors does not cover exactly the forest edges")
        if len(set(self.fixed_colors.values())) != len(self.fixed_colors):
            problems.append("fixed colors are not injective")
        return problems

    def range_violations(self, collection: GraphCollection) -> list[str]:
        """Structural problems plus vertices or colors outside a collection."""
        problems = self.structure_violations()
        for v in sorted(self.vertices()):
            if not (0 <= v < collection.n_vertices):
                problems.append(f"forest vertex {v} out of range")
        for color in sorted(self.colors()):
            if not (0 <= color < collection.n_colors):
                problems.append(f"forest color {color} out of range")
        return problems

    def validate_against(self, collection: GraphCollection) -> list[str]:
        """Range problems, then edges missing from their fixed colors."""
        problems = self.range_violations(collection)
        if problems:
            return problems
        return [
            f"forest edge {edge} absent from its fixed color {color}"
            for edge, color in sorted(self.fixed_colors.items())
            if not collection.has_edge(color, *edge)
        ]

    def edges(self) -> list[Edge]:
        return [
            canonical_edge(comp[i], comp[i + 1])
            for comp in self.components
            for i in range(len(comp) - 1)
        ]

    @property
    def edge_count(self) -> int:
        return sum(len(comp) - 1 for comp in self.components)

    def vertices(self) -> set[int]:
        return {v for comp in self.components for v in comp}

    def colors(self) -> set[int]:
        return set(self.fixed_colors.values())

    def degree_of(self, vertex: int) -> int:
        for comp in self.components:
            if vertex in comp:
                if len(comp) == 1:
                    return 0
                return 1 if vertex in (comp[0], comp[-1]) else 2
        return 0

    def component_of(self, vertex: int) -> tuple[int, ...] | None:
        for comp in self.components:
            if vertex in comp:
                return comp
        return None


def is_h_compatible(forest: RainbowLinearForest, u: int, v: int) -> bool:
    """Both endpoints have forest degree <= 1 and sit in distinct components.

    A vertex absent from the forest counts as its own singleton component.
    """
    if u == v:
        raise InputError("u and v must be distinct")
    if forest.degree_of(u) > 1 or forest.degree_of(v) > 1:
        return False
    comp_u = forest.component_of(u)
    return comp_u is None or v not in comp_u


@dataclass(frozen=True)
class ReductionPlan:
    """Bookkeeping of the deletion set D and component endpoints.

    ``middle_components`` are the interior components, each oriented from its
    kept endpoint v_i (which survives the deletion) toward the dropped
    endpoint w_i.  ``h_u``/``h_v`` are oriented away from u/v; w_u/w_v are
    their far endpoints (equal to u/v for singletons).  Vertices outside D
    are relabeled densely for the reduced collection.
    """

    u: int
    v: int
    deleted: frozenset[int]
    middle_components: tuple[tuple[int, ...], ...]
    kept_endpoints: tuple[int, ...]
    dropped_endpoints: tuple[int, ...]
    h_u: tuple[int, ...]
    h_v: tuple[int, ...]
    w_u: int
    w_v: int
    dropped_colors: frozenset[int]
    retained_colors: tuple[int, ...]
    new_to_old: tuple[int, ...]
    k: int
    forest_edge_colors: dict[Edge, int]

    @property
    def q(self) -> int:
        return len(self.middle_components)


def _oriented_from(comp: tuple[int, ...], endpoint: int) -> tuple[int, ...]:
    if comp[0] == endpoint:
        return comp
    if comp[-1] == endpoint:
        return tuple(reversed(comp))
    raise InputError(f"vertex {endpoint} is not an endpoint of component {comp}")


def select_deletion_set(
    forest: RainbowLinearForest,
    u: int,
    v: int,
    n_vertices: int,
    n_colors: int | None = None,
) -> ReductionPlan:
    """Pick D = V(H) minus one endpoint per interior component; |D| = k+2.

    The forest is normalized first: the components of u and v exist (created
    as singletons when absent), edgeless components elsewhere are dropped,
    and the kept endpoint of each interior component is its smaller vertex
    id, so plans are deterministic.
    """
    if not is_h_compatible(forest, u, v):
        raise InputError(f"({u},{v}) is not a compatible pair for this forest")
    comp_u = forest.component_of(u) or (u,)
    comp_v = forest.component_of(v) or (v,)
    h_u = _oriented_from(comp_u, u)
    h_v = _oriented_from(comp_v, v)
    # Edgeless components other than H_u/H_v impose no path constraint and
    # would break the |D| = k+2 accounting; they are normalized away.
    middles = sorted(
        (comp for comp in forest.components if u not in comp and v not in comp and len(comp) > 1),
        key=min,
    )
    dropped_singletons = {
        comp[0]
        for comp in forest.components
        if len(comp) == 1 and comp[0] not in (u, v)
    }
    oriented = []
    kept = []
    dropped = []
    for comp in middles:
        v_i = min(comp[0], comp[-1])
        path = _oriented_from(comp, v_i)
        oriented.append(path)
        kept.append(v_i)
        dropped.append(path[-1])
    k = forest.edge_count
    deleted = set(forest.vertices()) | {u, v}
    deleted -= set(kept)
    deleted -= dropped_singletons
    if len(deleted) != k + 2:
        raise InputError(
            f"deletion set has {len(deleted)} vertices, expected k+2={k + 2}; "
            "forest vertices overlap u/v bookkeeping"
        )
    for w in deleted:
        if not (0 <= w < n_vertices):
            raise InputError(f"forest vertex {w} out of range for n={n_vertices}")
    new_to_old = tuple(x for x in range(n_vertices) if x not in deleted)
    dropped_colors = frozenset(forest.colors())
    m = n_colors if n_colors is not None else n_vertices
    retained = tuple(c for c in range(m) if c not in dropped_colors)
    return ReductionPlan(
        u=u,
        v=v,
        deleted=frozenset(deleted),
        middle_components=tuple(oriented),
        kept_endpoints=tuple(kept),
        dropped_endpoints=tuple(dropped),
        h_u=h_u,
        h_v=h_v,
        w_u=h_u[-1],
        w_v=h_v[-1],
        dropped_colors=dropped_colors,
        retained_colors=retained,
        new_to_old=new_to_old,
        k=k,
        forest_edge_colors=dict(forest.fixed_colors),
    )


class ReductionBoundError(InternalError):
    """The reduced collection misses the guaranteed Ore bound.

    Signals that the input collection violated the n+k hypothesis (or the
    plan does not belong to it); the reduction itself cannot cause this.
    ``bundle`` names the retained color, its sigma2 and the bound.
    """


def reduce_collection(collection: GraphCollection, plan: ReductionPlan) -> GraphCollection:
    """Delete D from every retained color and relabel vertices densely.

    Each row is compacted over D in descending order, so lower deleted
    indices stay valid; rows are irreflexive, so no self bit survives.
    Asserts the inherited bound sigma2(G'_i) >= |V(G')| - 2 for every
    retained color, which the n+k hypothesis guarantees after removing
    k+2 vertices.
    """
    cuts = [(d, (1 << d) - 1) for d in sorted(plan.deleted, reverse=True)]
    reduced_rows = []
    for color in plan.retained_colors:
        collection.check_color(color)
        row = collection.adjacency[color]
        masks = []
        for old in plan.new_to_old:
            mask = row[old]
            for d, low in cuts:
                mask = (mask & low) | (mask >> (d + 1) << d)
            masks.append(mask)
        reduced_rows.append(tuple(masks))
    reduced = GraphCollection(len(plan.new_to_old), tuple(reduced_rows))
    bound = reduced.n_vertices - 2
    for c, value in enumerate(reduced.sigma2s):
        if value < bound:
            color = plan.retained_colors[c]
            raise ReductionBoundError(
                f"sigma2 of reduced color {color} is {value} < {bound}; "
                "input collection violates the n+k hypothesis",
                bundle={"retained_color": color, "sigma2": value, "bound": bound},
            )
    return reduced
