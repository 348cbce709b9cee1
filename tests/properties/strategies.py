"""Hypothesis strategies for random object graphs and association-sets.

The law tests (§3.3/§4) quantify over:

* a random object graph on the fixed chain schema A—B—C—D;
* random association-sets whose patterns are small connected graphs over
  the object graph's instances (edge polarity free — operands of the
  algebra may carry derived patterns that are not OG subgraphs).

Everything is deterministic given the Hypothesis seed.
"""

from __future__ import annotations

import hypothesis.strategies as st

from repro.core.assoc_set import AssociationSet
from repro.core.edges import Edge, Polarity
from repro.core.pattern import Pattern
from repro.objects.graph import ObjectGraph
from repro.schema.graph import SchemaGraph

CHAIN_CLASSES = ("A", "B", "C", "D")


def chain_schema() -> SchemaGraph:
    """The fixed A—B—C—D chain schema used by the law tests."""
    schema = SchemaGraph("chain")
    for name in CHAIN_CLASSES:
        schema.add_entity_class(name)
    schema.add_association("A", "B", "AB")
    schema.add_association("B", "C", "BC")
    schema.add_association("C", "D", "CD")
    return schema


#: Instance values of ``object_graphs(valued=True)``: small ints that
#: collide with predicate constants, a string, and missing values.
_VALUES = st.one_of(st.none(), st.integers(min_value=-3, max_value=3), st.just("a"))


@st.composite
def object_graphs(draw, max_extent: int = 3, valued: bool = False) -> ObjectGraph:
    """A random object graph over the chain schema.

    Extent sizes 1..max_extent per class; each potential edge of each
    association is present independently.  ``valued`` gives instances
    self-describing values for predicates to compare.
    """
    schema = chain_schema()
    graph = ObjectGraph(schema)
    oid = 0
    for cls in CHAIN_CLASSES:
        size = draw(st.integers(min_value=1, max_value=max_extent))
        for _ in range(size):
            oid += 1
            value = draw(_VALUES) if valued else None
            graph.add_instance(cls, oid, value)
    for left, right in (("A", "B"), ("B", "C"), ("C", "D")):
        assoc = schema.resolve(left, right)
        for a in sorted(graph.extent(left)):
            for b in sorted(graph.extent(right)):
                if draw(st.booleans()):
                    graph.add_edge(assoc, a, b)
    return graph


@st.composite
def patterns_from(draw, graph: ObjectGraph, max_vertices: int = 4) -> Pattern:
    """A random connected pattern over the graph's instances.

    Vertices are drawn from the extents; consecutive vertices are linked by
    an edge of random polarity, giving a random tree (always connected).
    """
    instances = sorted(i for i in graph.instances())
    count = draw(st.integers(min_value=1, max_value=min(max_vertices, len(instances))))
    chosen = draw(
        st.lists(
            st.sampled_from(instances),
            min_size=count,
            max_size=count,
            unique=True,
        )
    )
    edges: list[Edge] = []
    for index in range(1, len(chosen)):
        anchor = chosen[draw(st.integers(min_value=0, max_value=index - 1))]
        polarity = draw(st.sampled_from([Polarity.REGULAR, Polarity.COMPLEMENT]))
        edges.append(Edge(anchor, chosen[index], polarity))
    return Pattern(chosen, edges)


@st.composite
def association_sets_from(
    draw, graph: ObjectGraph, max_patterns: int = 4, max_vertices: int = 4
) -> AssociationSet:
    """A random association-set (possibly empty, possibly heterogeneous)."""
    count = draw(st.integers(min_value=0, max_value=max_patterns))
    patterns = [
        draw(patterns_from(graph, max_vertices=max_vertices)) for _ in range(count)
    ]
    return AssociationSet(patterns)


@st.composite
def patterns_over(
    draw, graph: ObjectGraph, classes: tuple[str, ...], max_vertices: int = 3
) -> Pattern:
    """A random connected pattern drawing vertices only from ``classes``.

    Lets law tests satisfy class-disjointness side conditions by
    construction instead of by filtering.
    """
    instances = sorted(i for i in graph.instances() if i.cls in classes)
    count = draw(st.integers(min_value=1, max_value=min(max_vertices, len(instances))))
    chosen = draw(
        st.lists(
            st.sampled_from(instances), min_size=count, max_size=count, unique=True
        )
    )
    edges: list[Edge] = []
    for index in range(1, len(chosen)):
        anchor = chosen[draw(st.integers(min_value=0, max_value=index - 1))]
        polarity = draw(st.sampled_from([Polarity.REGULAR, Polarity.COMPLEMENT]))
        edges.append(Edge(anchor, chosen[index], polarity))
    return Pattern(chosen, edges)


@st.composite
def association_sets_over(
    draw,
    graph: ObjectGraph,
    classes: tuple[str, ...],
    max_patterns: int = 3,
    min_patterns: int = 0,
) -> AssociationSet:
    """A random association-set whose patterns use only ``classes``."""
    count = draw(st.integers(min_value=min_patterns, max_value=max_patterns))
    return AssociationSet(
        draw(patterns_over(graph, classes)) for _ in range(count)
    )


@st.composite
def homogeneous_sets_from(
    draw, graph: ObjectGraph, classes: tuple[str, ...] = ("B", "C")
) -> AssociationSet:
    """A homogeneous association-set: chains over ``classes``, all-regular.

    All patterns share the class sequence and the Inter-pattern chain
    topology, satisfying the three §3.2 homogeneity criteria by
    construction (assuming the extents are non-empty, which
    :func:`object_graphs` guarantees).
    """
    count = draw(st.integers(min_value=0, max_value=3))
    patterns = []
    for _ in range(count):
        vertices = [
            draw(st.sampled_from(sorted(graph.extent(cls)))) for cls in classes
        ]
        if len(set(vertices)) != len(vertices):
            continue  # duplicate instance draw; skip this pattern
        edges = [
            Edge(vertices[i], vertices[i + 1], Polarity.REGULAR)
            for i in range(len(vertices) - 1)
        ]
        patterns.append(Pattern(vertices, edges))
    return AssociationSet(patterns)


@st.composite
def graph_with_sets(draw, n_sets: int = 2, max_extent: int = 3):
    """Bundle: one object graph plus ``n_sets`` association-sets over it."""
    graph = draw(object_graphs(max_extent=max_extent))
    sets = tuple(draw(association_sets_from(graph)) for _ in range(n_sets))
    return (graph, *sets)
