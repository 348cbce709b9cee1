"""Differential properties for the compact-kernel execution path.

Four batteries, all demanding bit-identical :class:`AssociationSet`
results against the reference operators of :mod:`repro.core.operators`:

1. each batch kernel in :mod:`repro.exec.kernels` against its reference
   operator, round-tripped through a :class:`PatternArena`;
2. the executor against the logical evaluator ``Expr.evaluate`` across
   every execution mode, over random graphs/expressions and the datagen
   workloads;
3. object islands — the shapes no kernel covers, generated under kernel
   parents, against ``Expr.evaluate``;
4. mutation interleaving — event-driven :class:`Database` mutations that
   patch the arena incrementally, and out-of-band graph writes that trip
   the version guard and force a full arena reset / re-intern.
"""

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.core.assoc_set import AssociationSet
from repro.core.expression import (
    AssocSpec,
    Associate,
    Difference,
    Literal,
    Project,
    Select,
    Union,
    ref,
)
from repro.core.operators import (
    a_complement,
    a_difference,
    a_divide,
    a_intersect,
    a_project,
    a_select,
    a_union,
    associate,
    non_associate,
)
from repro.core.operators.project import ChainTemplate
from repro.core.predicates import (
    And,
    Callback,
    ClassValues,
    Comparison,
    Const,
    Not,
    Or,
    ValueUnion,
)
from repro.datagen import (
    chain_dataset,
    figure10_dataset,
    valued_chain_dataset,
    workload,
)
from repro.engine.database import Database
from repro.exec import Executor, PatternArena
from repro.exec.columns import compile_pattern_select
from repro.exec.kernels import (
    k_associate,
    k_complement,
    k_difference,
    k_divide,
    k_intersect,
    k_nonassociate,
    k_project,
    k_select_patterns,
    k_union,
)
from tests.properties.expr_strategies import (
    ADJACENT,
    CLASSES,
    TEMPLATES,
    expressions,
    predicates,
)
from tests.properties.strategies import object_graphs

RELAXED = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


# ----------------------------------------------------------------------
# 1. kernels vs reference operators
# ----------------------------------------------------------------------


def _kernel_fixture(seed):
    ds = chain_dataset(n_classes=3, extent_size=10, density=0.25, seed=seed)
    graph = ds.graph
    arena = PatternArena(graph)
    k0 = AssociationSet.of_inners(graph.extent("K0"))
    k1 = AssociationSet.of_inners(graph.extent("K1"))
    k2 = AssociationSet.of_inners(graph.extent("K2"))
    a01 = ds.schema.resolve("K0", "K1")
    a12 = ds.schema.resolve("K1", "K2")
    chains = associate(k0, k1, graph, a01)
    longer = associate(chains, k2, graph, a12)
    return ds, graph, arena, (k0, k1, k2), (a01, a12), chains, longer


@given(st.integers(min_value=0, max_value=19))
@RELAXED
def test_kernels_match_reference_operators(seed):
    ds, graph, arena, (k0, k1, k2), (a01, a12), chains, longer = _kernel_fixture(
        seed
    )
    enc = arena.encode_set
    dec = arena.decode_set

    assert dec(enc(associate(k0, k1, graph, a01))) == associate(
        k0, k1, graph, a01
    )
    assert dec(k_associate(arena, enc(k0), enc(k1), a01, "K0", "K1")) == associate(
        k0, k1, graph, a01
    )
    assert dec(
        k_associate(arena, enc(chains), enc(k2), a12, "K1", "K2")
    ) == associate(chains, k2, graph, a12)
    assert dec(
        k_nonassociate(arena, enc(k0), enc(k1), a01, "K0", "K1")
    ) == non_associate(k0, k1, graph, a01)
    assert dec(
        k_nonassociate(arena, enc(chains), enc(k2), a12, "K1", "K2")
    ) == non_associate(chains, k2, graph, a12)
    assert dec(k_union(enc(k0), enc(chains))) == a_union(k0, chains)
    assert dec(k_difference(enc(chains), enc(k0))) == a_difference(chains, k0)
    assert dec(k_difference(enc(longer), enc(chains))) == a_difference(
        longer, chains
    )
    # explicit {W} list and the implicit shared-class default
    assert dec(
        k_intersect(arena, enc(chains), enc(longer), ("K1",))
    ) == a_intersect(chains, longer, ["K1"])
    assert dec(k_intersect(arena, enc(chains), enc(longer))) == a_intersect(
        chains, longer
    )
    # equal keys settle containment before the anchored probe
    assert dec(k_difference(enc(longer), enc(longer))) == a_difference(
        longer, longer
    )
    assert dec(
        k_complement(arena, enc(k0), enc(k1), a01, "K0", "K1")
    ) == a_complement(k0, k1, graph, a01)
    assert dec(
        k_complement(arena, enc(chains), enc(k2), a12, "K1", "K2")
    ) == a_complement(chains, k2, graph, a12)
    # both retention clauses: one operand without end-class instances
    assert dec(
        k_complement(arena, enc(chains), enc(k0), a12, "K1", "K2")
    ) == a_complement(chains, k0, graph, a12, "K1", "K2")
    assert dec(
        k_complement(arena, enc(k2), enc(chains), a12, "K1", "K2")
    ) == a_complement(k2, chains, graph, a12, "K1", "K2")
    for divisor in (k2, chains, associate(k1, k2, graph, a12), AssociationSet.empty()):
        for classes in (None, ("K1",), ("K0", "K1")):
            assert dec(
                k_divide(arena, enc(longer), enc(divisor), classes)
            ) == a_divide(longer, divisor, classes), classes
    for texts in (("K0",), ("K1", "K2"), ("K0*K1",), ("K2*K1*K0", "K1")):
        templates = [ChainTemplate.parse(t) for t in texts]
        for operand in (longer, k1):
            assert dec(k_project(arena, enc(operand), templates)) == a_project(
                operand, templates
            )


def _pattern_select_predicates():
    v0, v1, v2 = (ClassValues(c) for c in ("V0", "V1", "V2"))
    pool = ValueUnion(Const(0), Const(2), Const(999_983))
    return [
        Comparison(v2, "=", Const(999_983)),
        Comparison(v1, "<", Const(3), "forall"),
        Comparison(Const(2), "<=", v0),
        Comparison(Const(0), "!=", v1, "forall"),
        Comparison(v1, "in", pool),
        Comparison(v1, "in", pool, "forall"),
        Comparison(Const(2), "in", v0),
        Comparison(v2, "=", ValueUnion()),
        And(Comparison(v0, "=", Const(0)), Not(Comparison(v2, ">", Const(1), "forall"))),
        Or(
            Comparison(v0, "=", Const(999_983)),
            Comparison(v1, "in", pool),
            Comparison(v2, "<", Const(2)),
        ),
    ]


@given(st.integers(min_value=0, max_value=19))
@RELAXED
def test_pattern_select_kernel_matches_a_select(seed):
    ds = valued_chain_dataset(n_classes=3, extent_size=12, density=0.2, seed=seed)
    graph = ds.graph
    arena = PatternArena(graph)
    v0, v1, v2 = (AssociationSet.of_inners(graph.extent(c)) for c in ("V0", "V1", "V2"))
    chains = associate(
        associate(v0, v1, graph, ds.schema.resolve("V0", "V1")),
        v2,
        graph,
        ds.schema.resolve("V1", "V2"),
    )
    operand = a_union(chains, v1)
    for predicate in _pattern_select_predicates():
        program = compile_pattern_select(predicate)
        assert program is not None, predicate
        got = arena.decode_set(k_select_patterns(arena, arena.encode_set(operand), program))
        assert got == a_select(operand, predicate, graph), predicate
    # the fallback edges: uncompilable atoms keep the object path
    assert compile_pattern_select(
        Comparison(Const(0), "in", ClassValues("V1"), "forall")
    ) is None
    assert compile_pattern_select(
        Comparison(ClassValues("V0"), "<", ClassValues("V1"))
    ) is None


# ----------------------------------------------------------------------
# 2. executor vs logical evaluator
# ----------------------------------------------------------------------


@given(st.data())
@RELAXED
def test_compact_executor_matches_reference(data):
    graph = data.draw(object_graphs(max_extent=3, valued=True))
    expr = data.draw(expressions(depth=2, printable=False))
    reference = expr.evaluate(graph)
    executor = Executor(graph)
    assert executor.run(expr) == reference, "cold diverged"
    assert executor.run(expr) == reference, "warm diverged"
    assert executor.run(expr, use_cache=False) == reference, "uncached diverged"


def test_compact_executor_matches_reference_on_datagen_workloads():
    for ds in (
        chain_dataset(n_classes=5, extent_size=12, density=0.15, seed=3),
        figure10_dataset(extent_size=10, density=0.2, seed=7),
    ):
        executor = Executor(ds.graph)
        for expr in workload(ds.schema, n_queries=20, max_hops=4, seed=11):
            reference = expr.evaluate(ds.graph)
            assert executor.run(expr) == reference
            assert executor.run(expr, use_cache=False) == reference


# ----------------------------------------------------------------------
# 3. object islands under kernel parents
# ----------------------------------------------------------------------


def _even_vertex_count(pattern, graph):
    return len(pattern.vertices) % 2 == 0


#: One callback object for every draw, so equal σ nodes share cache keys.
_CALLBACK = Callback(_even_vertex_count, "even(|V|)")


@st.composite
def islands(draw, graph):
    """A generated operand wrapped in one of the three island shapes."""
    operand = draw(expressions(depth=2, printable=False))
    shape = draw(st.sampled_from(["callback", "linked-project", "literal-select"]))
    if shape == "callback":
        return Select(operand, _CALLBACK)
    if shape == "linked-project":
        templates = (draw(st.sampled_from(TEMPLATES)),)
        link = draw(st.lists(st.sampled_from(CLASSES), min_size=2, max_size=3, unique=True))
        return Project(operand, templates, (tuple(link),))
    literal = Literal(operand.evaluate(graph))
    return Select(literal, draw(predicates(printable=False)))


@given(st.data())
@RELAXED
def test_islands_under_kernel_parents_match_reference(data):
    graph = data.draw(object_graphs(max_extent=3, valued=True))
    island = data.draw(islands(graph))
    other = data.draw(expressions(depth=1, printable=False))
    parent = data.draw(st.sampled_from(["associate", "union", "difference"]))
    if parent == "associate":
        (a_cls, b_cls), name = data.draw(st.sampled_from(sorted(ADJACENT.items())))
        expr = Associate(island, ref(b_cls), AssocSpec(a_cls, b_cls, name))
    elif parent == "union":
        expr = Union(island, other)
    else:
        expr = Difference(island, other)
    executor = Executor(graph)
    plan = executor.plan(expr)
    assert plan.strategy.startswith("compact-"), plan.describe()
    assert plan.children[0].strategy == "object-island", plan.describe()
    reference = expr.evaluate(graph)
    assert executor.run(expr, plan=plan) == reference, "cold diverged"
    assert executor.run(expr) == reference, "warm diverged"
    assert executor.run(expr, use_cache=False) == reference, "uncached diverged"


# ----------------------------------------------------------------------
# 4. mutation interleaving
# ----------------------------------------------------------------------


@given(st.integers(min_value=0, max_value=19))
@RELAXED
def test_compact_stays_correct_across_event_driven_mutations(seed):
    """Insert / link / unlink / delete events patch the arena in place."""
    ds = chain_dataset(n_classes=3, extent_size=8, density=0.3, seed=seed)
    db = Database.from_dataset(ds)
    queries = workload(ds.schema, n_queries=6, max_hops=3, seed=seed + 1)

    def check():
        for expr in queries:
            assert db.query(expr).set == expr.evaluate(db.graph)

    check()  # populate the arena and the plan cache

    k0 = sorted(db.graph.extent("K0"))[0]
    k1 = sorted(db.graph.extent("K1"))[0]
    assoc = ds.schema.resolve("K0", "K1")
    if (k0, k1) in set(db.graph.edges(assoc)):
        db.unlink(k0, k1)
    else:
        db.link(k0, k1)
    check()

    created = db.insert("K1")
    db.link(k0, created["K1"])
    check()

    db.delete(sorted(db.graph.extent("K2"))[0])
    check()


@given(st.integers(min_value=0, max_value=19))
@RELAXED
def test_out_of_band_mutations_force_arena_reintern(seed):
    """Direct graph writes bypass the event stream: the version guard must
    reset the arena (dropping every interned id) and answers stay fresh."""
    ds = chain_dataset(n_classes=3, extent_size=8, density=0.3, seed=seed)
    executor = Executor(ds.graph)
    queries = workload(ds.schema, n_queries=6, max_hops=3, seed=seed + 2)
    for expr in queries:
        assert executor.run(expr) == expr.evaluate(ds.graph)
    interned_before = len(executor.arena._iids)
    assert interned_before > 0

    assoc = ds.schema.resolve("K0", "K1")
    k0 = sorted(ds.graph.extent("K0"))[0]
    k1 = sorted(ds.graph.extent("K1"))[0]
    if (k0, k1) in set(ds.graph.edges(assoc)):
        ds.graph.remove_edge(assoc, k0, k1)
    else:
        ds.graph.add_edge(assoc, k0, k1)

    # first run after the guard trips: arena restarts from nothing
    expr = queries[0]
    assert executor.run(expr) == expr.evaluate(ds.graph)
    assert len(executor.arena._iids) <= interned_before
    for expr in queries:
        assert executor.run(expr) == expr.evaluate(ds.graph)
        assert executor.run(expr, use_cache=False) == expr.evaluate(ds.graph)
