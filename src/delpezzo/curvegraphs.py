"""Graphs of (-1)-curves and group actions on them.

A del Pezzo surface of degree 5 has ten (-1)-curves whose intersection
graph is the Kneser graph on 2-subsets of {1..5} (the Petersen graph):
vertices are labeled by 2-subsets, and two curves meet exactly when their
labels are disjoint.  Its automorphism group is all of S5 acting on labels.
A degree-6 surface has six (-1)-curves forming a hexagon, labeled {i,4},
{i,5} for i in {1,2,3}, with symmetry group S3 x Z/2Z.

Blowing down a Galois-invariant vertex of the degree-5 graph leaves the six
vertices sharing exactly one point with it — a hexagon — and restricting
the action yields the induced degree-6 type.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .perms import (
    HEX_VERTEX_LABELS,
    ClassLabel,
    Perm,
    Subgroup,
    _orbits,
    _Record,
    _reduced_generators,
    class_label,
    generate,
    hexagon_restriction,
    symmetric_group_elements,
)


class CurveGraph(_Record):
    """Intersection graph of the (-1)-curves, vertices tagged by their labels."""

    __slots__ = ("degree_context", "vertices", "adjacency")

    def __init__(self, degree_context: int, vertices: tuple[frozenset[int], ...],
                 adjacency: tuple[tuple[bool, ...], ...]):
        self._set(degree_context, vertices, adjacency)

    @property
    def n(self) -> int:
        return len(self.vertices)

    def index(self, vertex: frozenset[int]) -> int:
        """1-indexed position of a vertex label."""
        return self.vertices.index(frozenset(vertex)) + 1

    def adjacent(self, v: frozenset[int], w: frozenset[int]) -> bool:
        return self.adjacency[self.index(v) - 1][self.index(w) - 1]

    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(
            (i + 1, j + 1)
            for i in range(self.n)
            for j in range(i + 1, self.n)
            if self.adjacency[i][j]
        )


@lru_cache(maxsize=None)
def curve_graph(degree_context: int) -> CurveGraph:
    """The labeled (-1)-curve graph of a degree-5 or degree-6 surface."""
    if degree_context == 5:
        vertices = tuple(
            frozenset(pair) for pair in itertools.combinations(range(1, 6), 2)
        )
    elif degree_context == 6:
        vertices = HEX_VERTEX_LABELS
    else:
        raise ValueError("unsupported degree")
    adjacency = tuple(
        tuple(bool(v != w and not (v & w)) for w in vertices) for v in vertices
    )
    return CurveGraph(degree_context, vertices, adjacency)


class VertexPerm(_Record):
    """A permutation of the vertices of a curve graph; adjacency-preserving."""

    __slots__ = ("graph", "perm")

    def __init__(self, graph: CurveGraph, perm: Perm):
        self._set(graph, perm)
        adj = graph.adjacency
        if perm.degree != graph.n:
            raise ValueError("degree mismatch")
        for i in range(graph.n):
            for j in range(i + 1, graph.n):
                if adj[i][j] != adj[perm(i + 1) - 1][perm(j + 1) - 1]:
                    raise ValueError("vertex permutation does not preserve adjacency")

    def __call__(self, vertex_index: int) -> int:
        return self.perm(vertex_index)

    def image(self, vertex: frozenset[int]) -> frozenset[int]:
        return self.graph.vertices[self.perm(self.graph.index(vertex)) - 1]

    def __mul__(self, other: "VertexPerm") -> "VertexPerm":
        if not isinstance(other, VertexPerm):
            return NotImplemented
        if self.graph != other.graph:
            raise ValueError("vertex permutations of different graphs")
        return VertexPerm(self.graph, self.perm * other.perm)


@lru_cache(maxsize=None)
def graph_action(sigma: Perm) -> VertexPerm:
    """Action of an S5 element on the degree-5 graph by relabeling 2-subsets."""
    if sigma.degree != 5:
        raise ValueError("expected an element of S5")
    g = curve_graph(5)
    images = [g.index(sigma.apply_set(v)) - 1 for v in g.vertices]
    return VertexPerm(g, Perm(images))


def invariant_vertices(group: Subgroup) -> tuple[frozenset[int], ...]:
    """Vertices of the degree-5 graph fixed (setwise) by every element."""
    g = curve_graph(5)
    return tuple(g.vertices[o[0] - 1] for o in _vertex_orbits(group) if len(o) == 1)


def _vertex_orbits(group: Subgroup) -> tuple[tuple[int, ...], ...]:
    """Orbits of the subgroup on the 1-indexed vertices of the degree-5 graph."""
    if group.degree != 5:
        raise ValueError("expected a subgroup of S5")
    return _orbits([graph_action(h) for h in group.generators], 10)


def has_invariant_independent_set(
    group: Subgroup,
) -> tuple[bool, tuple[frozenset[int], ...] | None]:
    """Does some nonempty independent vertex set stay invariant under the group?

    Returns (True, witness) with a minimum-size witness (labels, canonically
    ordered) or (False, None).  An invariant set is a union of vertex orbits,
    and it is independent only if each of its orbits is, so the smallest
    invariant independent sets are single orbits: the witness is the first
    smallest independent orbit, and no union needs to be searched.
    """
    g = curve_graph(5)
    adj = g.adjacency
    independent = [
        orbit
        for orbit in _vertex_orbits(group)
        if not any(adj[v - 1][w - 1] for v, w in itertools.combinations(orbit, 2))
    ]
    if not independent:
        return False, None
    return True, tuple(g.vertices[i - 1] for i in min(independent, key=len))


def vertex_stabilizer(vertex: frozenset[int]) -> Subgroup:
    """All of S5 fixing the given degree-5 vertex setwise (order 12)."""
    v = frozenset(vertex)
    if v not in curve_graph(5).vertices:
        raise ValueError(f"not a vertex label: {set(vertex)}")
    elems = [s for s in symmetric_group_elements(5) if s.apply_set(v) == v]
    return Subgroup(5, _reduced_generators(elems, 5), elems)


def blowdown_action(
    group: Subgroup, vertex: frozenset[int]
) -> tuple[Subgroup, ClassLabel]:
    """Induced hexagon action after contracting an invariant (-1)-curve.

    The subgroup must fix the vertex; the graph is first moved so the vertex
    sits at {4,5} (conjugating by the smallest such S5 element), then the
    action is restricted to the six vertices sharing exactly one point with
    it.  Returns the induced subgroup of hexagon symmetries and its label.
    """
    v = frozenset(vertex)
    if v not in curve_graph(5).vertices:
        raise ValueError(f"not a vertex label: {set(vertex)}")
    if v not in invariant_vertices(group):
        raise ValueError("not in stabilizer")
    mover = next(
        s for s in symmetric_group_elements(5) if s.apply_set({4, 5}) == v
    )
    conj_gens = [mover.inverse() * h * mover for h in group.generators]
    sub6 = generate([hexagon_restriction(h) for h in conj_gens], degree=6)
    return sub6, class_label(sub6, 6)


_PALETTE = (
    "lightblue",
    "lightpink",
    "palegreen",
    "gold",
    "plum",
    "lightsalmon",
    "paleturquoise",
    "khaki",
    "lightgray",
    "wheat",
)


def _vertex_name(label: frozenset[int]) -> str:
    return "{%s}" % ",".join(str(i) for i in sorted(label))


def to_dot(graph: CurveGraph, orbit_group: Subgroup | None = None) -> str:
    """Graphviz DOT text; with a subgroup, vertices are colored by orbit."""
    colors = {}
    if orbit_group is not None:
        if graph.degree_context != 5:
            raise ValueError("orbit coloring is defined for the degree-5 graph")
        for k, orbit in enumerate(_vertex_orbits(orbit_group)):
            for v in orbit:
                colors[v] = _PALETTE[k % len(_PALETTE)]
    lines = [f"graph curves_degree{graph.degree_context} {{"]
    lines.append("  node [shape=circle fontsize=11];")
    for i, label in enumerate(graph.vertices, start=1):
        attrs = f'label="{_vertex_name(label)}"'
        if i in colors:
            attrs += f' style=filled fillcolor="{colors[i]}"'
        lines.append(f"  v{i} [{attrs}];")
    for i, j in graph.edges():
        lines.append(f"  v{i} -- v{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
