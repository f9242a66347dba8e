"""Rainbow linear forests, the forest around a pair, and the deletion plan.

A linear forest is a vertex-disjoint union of paths; here each edge also
carries a fixed color, injectively.  Which components a Hamiltonian u,v-path
must respect, and how, is stated once, in ``pair_components`` and
``pair_blocks``: the solver's plan, the path oracle and the checker read it.
Solving for a Hamiltonian u,v-path that contains such a forest starts by
deleting a set D of k+2 forest vertices (everything except one endpoint per
interior component) and dropping the k fixed colors, which lowers the Ore
bound by exactly 2(k+2).  The spanning-path trichotomy then runs on the
original collection restricted to the plan's active-vertex and retained-color
masks: no copy is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .model import Edge, GraphCollection, InputError, InternalError, canonical_edge, mask_of


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


Component = tuple[int, ...]


def pair_components(forest: RainbowLinearForest, pair: tuple[int, ...]) -> list[Component]:
    """The components a Hamiltonian path between the vertices of ``pair`` must respect.

    Those with an edge or a vertex of ``pair``, in forest order, then a
    singleton for each vertex of ``pair`` the forest lacks.  An edgeless
    component off the pair constrains no path, so it is left out.
    """
    comps = [comp for comp in forest.components if len(comp) > 1 or any(x in pair for x in comp)]
    held = {x for comp in comps for x in comp}
    return comps + [(x,) for x in pair if x not in held]


def pair_blocks(forest: RainbowLinearForest, u: int, v: int
                ) -> tuple[Component, Component, tuple[Component, ...]] | None:
    """The forest around the pair: (h_u, h_v, interior components), or None.

    ``h_u`` is u's component read from u and ``h_v`` v's read from v; the
    interior components are the other ones with an edge, sorted by their
    smallest vertex, in their stored orientation.  None when the pair is not
    compatible: an endpoint inside a path, or both in one component.
    """
    if u == v:
        raise InputError("u and v must be distinct")
    comps = pair_components(forest, (u, v))
    h_u, h_v = [c if c[0] == x else c[::-1] for x in (u, v) for c in comps if x in c]
    if h_u[0] != u or h_v[0] != v or v in h_u:
        return None
    return h_u, h_v, tuple(sorted([c for c in comps if u not in c and v not in c], key=min))


def is_h_compatible(forest: RainbowLinearForest, u: int, v: int) -> bool:
    """Both endpoints have forest degree <= 1 and sit in distinct components."""
    return pair_blocks(forest, u, v) is not None


@dataclass(frozen=True)
class ReductionPlan:
    """The normalized forest and the deletion set D read off it.

    ``forest``, the forest every answer must contain, has the components
    ``h_u``, ``h_v`` (oriented away from u/v, so they end at w_u/w_v) and
    ``middle_components`` (each from its kept endpoint v_i, which survives
    the deletion, to its dropped endpoint w_i).  ``active`` is the vertex
    mask of V minus D and ``retained_mask`` the mask of the colors the
    forest leaves unused: together they are the reduced collection.
    """

    u: int
    v: int
    forest: RainbowLinearForest
    deleted: frozenset[int]
    middle_components: tuple[tuple[int, ...], ...]
    h_u: tuple[int, ...]
    h_v: tuple[int, ...]
    retained_mask: int
    active: int

    @property
    def q(self) -> int:
        return len(self.middle_components)


def select_deletion_set(
    forest: RainbowLinearForest,
    u: int,
    v: int,
    n_vertices: int,
) -> ReductionPlan:
    """Pick D = V(H) minus one endpoint per interior component; |D| = k+2.

    The forest is normalized once, into ``plan.forest``: the blocks of
    ``pair_blocks``, with the kept endpoint of each interior component its
    smaller end, so plans are deterministic.  The hypothesis check has fixed
    the color count at n_vertices.
    """
    blocks = pair_blocks(forest, u, v)
    if blocks is None:
        raise InputError(f"({u},{v}) is not a compatible pair for the forest")
    h_u, h_v, middles = blocks
    oriented = tuple(comp if comp[0] < comp[-1] else comp[::-1] for comp in middles)
    normalized = RainbowLinearForest((h_u, h_v, *oriented), dict(forest.fixed_colors))
    k = forest.edge_count
    deleted = normalized.vertices() - {comp[0] for comp in oriented}
    if len(deleted) != k + 2:
        raise InputError(
            f"deletion set has {len(deleted)} vertices, expected k+2={k + 2}; "
            "forest vertices overlap u/v bookkeeping"
        )
    for w in deleted:
        if not (0 <= w < n_vertices):
            raise InputError(f"forest vertex {w} out of range for n={n_vertices}")
    full = (1 << n_vertices) - 1  # n colors as well as n vertices
    return ReductionPlan(
        u=u,
        v=v,
        forest=normalized,
        deleted=frozenset(deleted),
        middle_components=oriented,
        h_u=h_u,
        h_v=h_v,
        retained_mask=full & ~mask_of(forest.colors()),
        active=full & ~mask_of(deleted),
    )


class ReductionBoundError(InternalError):
    """A retained color restricted to V minus D misses the inherited Ore bound.

    Signals that the input collection violated the n+k hypothesis (or the
    plan does not belong to it); deleting D itself cannot cause this, since
    it lowers a non-adjacent pair's degree sum by at most 2|D|.  The check
    reads each color's cached ``sigma2_bounds`` value (a lower bound on its
    sigma2: twice its minimum degree where that reaches the cut-off, else
    the exact value) minus 2|D| first, and runs the exact masked scan only
    where that falls short of the bound, so ``bundle`` names the retained
    color, its exact masked sigma2 and the bound.
    """
