"""FIG8a–8g: one benchmark per operator, plus indexed-vs-naive execution.

Each operator is measured twice: on the paper's exact Figure 8 operands
(micro — answers are asserted to match the figures) and on a scaled
synthetic association-set workload (macro).  A third section pits the
physical executor (:mod:`repro.exec` — compact kernels + sub-plan
cache) against the naive logical evaluator on Associate-heavy queries at
the largest datagen scale, asserting the speedup it buys; a fourth times
the executor on a macro Associate/Intersect query; later sections gate
compiled σ, the NonAssociate bitmask kernel and each kernel of the served
``scan_cold`` plans against their object twins.
"""

import time

import pytest
from timing import median_seconds as _median_seconds

from repro.core.assoc_set import AssociationSet
from repro.core.edges import complement, inter
from repro.core.expression import Intersect, Select, ref
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
from repro.core.pattern import Pattern
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
from repro.exec import Executor


def P(*parts):
    return Pattern.build(*parts)


# ----------------------------------------------------------------------
# micro: the exact Figure 8 examples
# ----------------------------------------------------------------------


def fig8_operand_sets(f):
    """The Figure 8 operand sets, keyed by sub-figure.

    A plain function (not just a fixture) so ``report.py`` can time the
    same micro workload outside pytest.
    """
    return {
        "8a": (
            AssociationSet([P(inter(f.a1, f.b1)), P(f.a2), P(inter(f.a3, f.b2))]),
            AssociationSet(
                [
                    P(inter(f.c1, f.d1)),
                    P(inter(f.c2, f.d2)),
                    P(f.c3),
                    P(inter(f.c4, f.d3)),
                ]
            ),
        ),
        "8b": (
            AssociationSet([P(inter(f.a1, f.b1)), P(f.a2), P(inter(f.a4, f.b3))]),
            AssociationSet([P(inter(f.c1, f.d1)), P(inter(f.c2, f.d2)), P(f.c3)]),
        ),
        "8c": AssociationSet(
            [
                P(inter(f.a1, f.b1), inter(f.b1, f.c1), complement(f.c1, f.d1)),
                P(inter(f.a1, f.b1), inter(f.b1, f.c2), complement(f.c2, f.d2)),
                P(inter(f.b2, f.c3), inter(f.c3, f.d3)),
            ]
        ),
        "8d": (
            AssociationSet([P(inter(f.a1, f.b1)), P(f.a2), P(inter(f.a3, f.b2))]),
            AssociationSet(
                [P(inter(f.c2, f.d2)), P(inter(f.c4, f.d3)), P(f.c3), P(f.d4)]
            ),
        ),
        "8e": (
            AssociationSet(
                [
                    P(inter(f.b1, f.c2), inter(f.c2, f.d1)),
                    P(inter(f.a1, f.b1), inter(f.b1, f.c2)),
                ]
            ),
            AssociationSet(
                [
                    P(inter(f.b1, f.c2), inter(f.c2, f.d2)),
                    P(inter(f.b1, f.c2), inter(f.c2, f.d3)),
                ]
            ),
        ),
        "8f": (
            AssociationSet(
                [
                    P(inter(f.a1, f.b1), inter(f.b1, f.c1)),
                    P(inter(f.a3, f.b2), inter(f.b2, f.c2)),
                    P(inter(f.a1, f.b1), inter(f.b1, f.c2)),
                ]
            ),
            AssociationSet([P(inter(f.a1, f.b1)), P(inter(f.a3, f.b3))]),
        ),
        "8g": (
            AssociationSet(
                [
                    P(inter(f.a1, f.b1), inter(f.b1, f.c1)),
                    P(inter(f.b1, f.c2), inter(f.c2, f.d1)),
                    P(inter(f.b1, f.c4), inter(f.c4, f.d4)),
                ]
            ),
            AssociationSet(
                [
                    P(f.d1),
                    P(inter(f.a1, f.b1)),
                    P(inter(f.b1, f.c2)),
                    P(inter(f.c4, f.d4)),
                ]
            ),
        ),
    }


@pytest.fixture(scope="module")
def fig8_operands(fig7):
    return fig8_operand_sets(fig7)


def test_fig8a_associate(benchmark, fig7, fig8_operands):
    alpha, beta = fig8_operands["8a"]
    result = benchmark(associate, alpha, beta, fig7.graph, fig7.bc)
    assert len(result) == 2


def test_fig8b_complement(benchmark, fig7, fig8_operands):
    alpha, beta = fig8_operands["8b"]
    result = benchmark(a_complement, alpha, beta, fig7.graph, fig7.bc)
    assert len(result) == 4


def test_fig8c_project(benchmark, fig8_operands):
    alpha = fig8_operands["8c"]
    result = benchmark(a_project, alpha, ["A*B", "D"], ["B:D"])
    assert len(result) == 3


def test_fig8d_nonassociate(benchmark, fig7, fig8_operands):
    alpha, beta = fig8_operands["8d"]
    result = benchmark(non_associate, alpha, beta, fig7.graph, fig7.bc)
    assert len(result) == 2


def test_fig8e_intersect(benchmark, fig8_operands):
    alpha, beta = fig8_operands["8e"]
    result = benchmark(a_intersect, alpha, beta, ["B", "C"])
    assert len(result) == 4


def test_fig8f_difference(benchmark, fig8_operands):
    alpha, beta = fig8_operands["8f"]
    result = benchmark(a_difference, alpha, beta)
    assert len(result) == 1


def test_fig8g_divide(benchmark, fig8_operands):
    alpha, beta = fig8_operands["8g"]
    result = benchmark(a_divide, alpha, beta, ["B"])
    assert len(result) == 3


# ----------------------------------------------------------------------
# macro: scaled synthetic operands (chain K0—K1—K2—K3, 200 per extent)
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def scaled_sets(chain200):
    graph = chain200.graph
    k1 = AssociationSet.of_inners(graph.extent("K1"))
    k2 = AssociationSet.of_inners(graph.extent("K2"))
    assoc = chain200.schema.resolve("K1", "K2")
    chains = associate(k1, k2, graph, assoc)
    return graph, assoc, k1, k2, chains


def test_scaled_associate(benchmark, scaled_sets):
    graph, assoc, k1, k2, _ = scaled_sets
    result = benchmark(associate, k1, k2, graph, assoc)
    assert result


def test_scaled_complement(benchmark, scaled_sets):
    graph, assoc, k1, k2, _ = scaled_sets
    result = benchmark(a_complement, k1, k2, graph, assoc)
    assert result


def test_scaled_nonassociate(benchmark, scaled_sets):
    graph, assoc, k1, k2, _ = scaled_sets
    benchmark(non_associate, k1, k2, graph, assoc)


def test_scaled_select(benchmark, scaled_sets):
    graph, _, _, _, chains = scaled_sets
    predicate = Callback(lambda p, g: min(v.oid for v in p.vertices) % 2 == 0)
    result = benchmark(a_select, chains, predicate, graph)
    assert len(result) < len(chains)


def test_scaled_project(benchmark, scaled_sets):
    _, _, _, _, chains = scaled_sets
    result = benchmark(a_project, chains, ["K1"])
    assert result


def test_scaled_intersect(benchmark, scaled_sets):
    _, _, _, _, chains = scaled_sets
    result = benchmark(a_intersect, chains, chains, ["K1"])
    assert result


def test_scaled_union(benchmark, scaled_sets):
    _, _, k1, _, chains = scaled_sets
    result = benchmark(a_union, k1, chains)
    assert len(result) == len(k1) + len(chains)


def test_scaled_difference(benchmark, scaled_sets):
    _, _, k1, _, chains = scaled_sets
    result = benchmark(a_difference, chains, k1)
    assert len(result) == 0  # every chain contains a K1 inner pattern


def test_scaled_divide(benchmark, scaled_sets):
    _, _, _, k2, chains = scaled_sets
    benchmark(a_divide, chains, k2, ["K1"])


# ----------------------------------------------------------------------
# indexed vs naive: the physical executor on Associate-heavy queries
# (chain K0—K1—K2—K3 at 200 per extent — the largest datagen scale)
# ----------------------------------------------------------------------


def _chain_query():
    return ref("K0") * ref("K1") * ref("K2") * ref("K3")


def _best_seconds(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def test_naive_associate_chain(benchmark, chain200):
    expr = _chain_query()
    result = benchmark(expr.evaluate, chain200.graph)
    assert result


def test_indexed_associate_chain(benchmark, chain200):
    expr = _chain_query()
    executor = Executor(chain200.graph)
    executor.run(expr)  # warm the arena and the sub-plan cache
    result = benchmark(lambda: executor.run(expr))
    assert result == expr.evaluate(chain200.graph)


def test_indexed_associate_chain_uncached(benchmark, chain200):
    expr = _chain_query()
    executor = Executor(chain200.graph)
    executor.run(expr, use_cache=False)  # warm the arena only
    result = benchmark(lambda: executor.run(expr, use_cache=False))
    assert result == expr.evaluate(chain200.graph)


def test_indexed_speedup_on_associate_heavy_query(chain200):
    """Acceptance gate: kernels + cache buy ≥3× on the Associate chain."""
    expr = _chain_query()
    reference = expr.evaluate(chain200.graph)
    executor = Executor(chain200.graph)
    assert executor.run(expr) == reference  # warm + verify identical
    naive = _best_seconds(lambda: expr.evaluate(chain200.graph))
    indexed = _best_seconds(lambda: executor.run(expr))
    speedup = naive / indexed
    assert speedup >= 3.0, f"indexed speedup only {speedup:.1f}x"


# ----------------------------------------------------------------------
# the macro Associate/Intersect query (same chain200 dataset)
# ----------------------------------------------------------------------


def _macro_query():
    """Associate chain feeding an A-Intersect — every node kernel-backed."""
    return Intersect(_chain_query(), ref("K2") * ref("K3"), ("K2", "K3"))


def test_compact_macro_intersect_chain(benchmark, chain200):
    expr = _macro_query()
    executor = Executor(chain200.graph)
    executor.run(expr, use_cache=False)  # warm the arena
    result = benchmark(lambda: executor.run(expr, use_cache=False))
    assert result == expr.evaluate(chain200.graph)


# ----------------------------------------------------------------------
# compiled vs object σ: column-mask selects on the σ-heavy valued chain
# (V0—V1—V2 at 400 per extent, skewed integer values)
# ----------------------------------------------------------------------


def sigma_predicates(rare):
    """The three σ-heavy predicates, one per chain class.

    A range band OR'd with a rare-value equality, a three-element
    IN-list, and a negated band — together they exercise every compiled
    leaf shape (bisect ranges, equality groups, IN unions, Not masks).
    """
    return {
        "V0": Or(
            And(
                Comparison(ClassValues("V0"), ">=", Const(1)),
                Comparison(ClassValues("V0"), "<", Const(20)),
            ),
            Comparison(ClassValues("V0"), "=", Const(rare)),
        ),
        "V1": Comparison(
            ClassValues("V1"), "in", ValueUnion(Const(1), Const(2), Const(rare))
        ),
        "V2": Not(Comparison(ClassValues("V2"), "<", Const(10))),
    }


def sigma_query(rare):
    """σ-heavy chain macro query: every extent filtered before joining."""
    preds = sigma_predicates(rare)
    return (
        Select(ref("V0"), preds["V0"])
        * Select(ref("V1"), preds["V1"])
        * Select(ref("V2"), preds["V2"])
    )


def test_compiled_select_sigma_chain(benchmark, sigma_chain):
    expr = sigma_query(sigma_chain.rare_value)
    executor = Executor(sigma_chain.graph)
    executor.run(expr, use_cache=False)  # warm arena + columns
    result = benchmark(lambda: executor.run(expr, use_cache=False))
    assert result == expr.evaluate(sigma_chain.graph)


def object_sigma_chain(ds):
    """The σ-heavy chain's object twin: ``a_select`` over each decoded
    extent and the reference ``associate`` above, operands built once —
    the way :func:`kernel_cases` builds its object twins.  Returns
    ``(thunk, extents)``; a plain function so ``report.py`` times the
    same path."""
    graph = ds.graph
    preds = sigma_predicates(ds.rare_value)
    extents = {cls: AssociationSet.of_inners(graph.extent(cls)) for cls in preds}
    a01 = ds.schema.resolve("V0", "V1")
    a12 = ds.schema.resolve("V1", "V2")

    def run():
        v0, v1, v2 = (a_select(extents[c], preds[c], graph) for c in preds)
        return associate(associate(v0, v1, graph, a01), v2, graph, a12)

    return run, extents


def test_object_select_sigma_chain(benchmark, sigma_chain):
    run, _ = object_sigma_chain(sigma_chain)
    result = benchmark(run)
    assert result == sigma_query(sigma_chain.rare_value).evaluate(sigma_chain.graph)


def test_compiled_select_speedup_on_sigma_heavy_chain(sigma_chain):
    """Acceptance gate: compiled column masks buy ≥2× over the object σ
    path on the σ-heavy chain, the executor's plans uncached."""
    expr = sigma_query(sigma_chain.rare_value)
    reference = expr.evaluate(sigma_chain.graph)
    executor = Executor(sigma_chain.graph)
    run_object, _ = object_sigma_chain(sigma_chain)
    # warm the arena / columns and verify both paths match the reference
    assert executor.run(expr, use_cache=False) == reference
    assert run_object() == reference
    compiled_s = _median_seconds(lambda: executor.run(expr, use_cache=False))
    object_s = _median_seconds(run_object)
    speedup = object_s / compiled_s
    assert speedup >= 2.0, f"compiled-select speedup only {speedup:.1f}x"


def test_compiled_select_never_slower(sigma_chain):
    """Acceptance gate: on pure σ-over-extent queries every compiled
    predicate shape is at least as fast as ``a_select`` over the decoded
    extent (25% slack absorbs timer noise on sub-millisecond runs)."""
    graph = sigma_chain.graph
    executor = Executor(graph)
    _, extents = object_sigma_chain(sigma_chain)
    for cls, predicate in sigma_predicates(sigma_chain.rare_value).items():
        expr = Select(ref(cls), predicate)
        reference = expr.evaluate(graph)
        assert executor.run(expr, use_cache=False) == reference
        compiled_s = _median_seconds(lambda: executor.run(expr, use_cache=False))
        object_s = _median_seconds(lambda: a_select(extents[cls], predicate, graph))
        assert compiled_s <= object_s * 1.25, (
            f"compiled σ slower than object path on {cls}: "
            f"{compiled_s * 1e3:.3f}ms vs {object_s * 1e3:.3f}ms"
        )


# ----------------------------------------------------------------------
# nonassociate bitmask kernel: the complement/nonassociate hot-spot fix
# ----------------------------------------------------------------------


def test_nonassociate_mask_kernel_never_slower(chain200):
    """Satellite gate: the bitmask free-set kernel keeps NonAssociate at
    least as fast as the object operator on the chain macro operands
    (25% slack absorbs timer noise on sub-millisecond runs)."""
    graph = chain200.graph
    k1 = AssociationSet.of_inners(graph.extent("K1"))
    k2 = AssociationSet.of_inners(graph.extent("K2"))
    assoc = chain200.schema.resolve("K1", "K2")
    expr = ref("K1") ^ ref("K2")
    executor = Executor(graph)
    reference = non_associate(k1, k2, graph, assoc)
    assert executor.run(expr, use_cache=False) == reference
    kernel_s = _median_seconds(lambda: executor.run(expr, use_cache=False))
    object_s = _median_seconds(lambda: non_associate(k1, k2, graph, assoc))
    assert kernel_s <= object_s * 1.25, (
        f"mask NonAssociate kernel slower than object operator: "
        f"{kernel_s * 1e3:.3f}ms vs {object_s * 1e3:.3f}ms"
    )


# ----------------------------------------------------------------------
# compact kernels vs their object twins: the kernel-closed scan shapes
# ----------------------------------------------------------------------


def kernel_cases(ds):
    """``{name: (kernel thunk, object thunk)}`` for each kernel that closes
    the served ``scan_cold`` plans, on the valued chain ``ds``.

    Operands are built once by the reference operators and encoded once;
    each thunk then runs one operator node the way its plan runs it — the
    batch kernel over compact operands, the object operator over
    association-sets — so neither side pays encode or decode.  The second
    element of every pair is the kernel's reference in
    :mod:`repro.core.operators`.  A plain function so ``report.py`` times
    the same cases.
    """
    from repro.core.operators.project import ChainTemplate
    from repro.exec import PatternArena
    from repro.exec.columns import compile_pattern_select
    from repro.exec.kernels import (
        k_complement,
        k_difference,
        k_divide,
        k_project,
        k_select_patterns,
    )

    graph, rare = ds.graph, ds.rare_value
    v0, v1, v2 = (AssociationSet.of_inners(graph.extent(c)) for c in ("V0", "V1", "V2"))
    a01 = ds.schema.resolve("V0", "V1")
    a12 = ds.schema.resolve("V1", "V2")
    chains = associate(associate(v0, v1, graph, a01), v2, graph, a12)
    is_rare = Comparison(ClassValues("V2"), "=", Const(rare))
    below_rare = Comparison(ClassValues("V2"), "<", Const(rare))
    not_below = a_select(chains, below_rare, graph)
    rare_v0 = a_select(v0, Comparison(ClassValues("V0"), "=", Const(rare)), graph)
    divisor = associate(v1, a_select(v2, is_rare, graph), graph, a12)
    # grouped by V1, only a one-pattern divisor leaves a non-empty answer
    one_divisor = AssociationSet([min(divisor, key=str)])
    templates = [ChainTemplate(("V0",)), ChainTemplate(("V1", "V2"))]

    arena = PatternArena(graph)
    enc = arena.encode_set
    c_chains, c_not_below, c_divisor = enc(chains), enc(not_below), enc(divisor)
    c_one_divisor = enc(one_divisor)
    c_rare_v0, c_v1 = enc(rare_v0), enc(v1)
    program = compile_pattern_select(is_rare)
    cases = {
        "select_patterns": (
            lambda: k_select_patterns(arena, c_chains, program),
            lambda: a_select(chains, is_rare, graph),
        ),
        "difference": (
            lambda: k_difference(c_chains, c_not_below),
            lambda: a_difference(chains, not_below),
        ),
        "project": (
            lambda: k_project(arena, c_chains, templates),
            lambda: a_project(chains, templates),
        ),
        "divide": (
            lambda: k_divide(arena, c_chains, c_divisor),
            lambda: a_divide(chains, divisor),
        ),
        "divide_grouped": (
            lambda: k_divide(arena, c_chains, c_one_divisor, ("V1",)),
            lambda: a_divide(chains, one_divisor, ("V1",)),
        ),
        "complement": (
            lambda: k_complement(arena, c_rare_v0, c_v1, a01, "V0", "V1"),
            lambda: a_complement(rare_v0, v1, graph, a01, "V0", "V1"),
        ),
    }
    return arena, cases


def test_scan_kernels_never_slower(sigma_chain):
    """Gate: each kernel that closes the ``scan_cold`` plans is at least as
    fast as its object twin on the σ-heavy chain, with bit-identical
    results (25% slack absorbs timer noise on sub-millisecond runs)."""
    arena, cases = kernel_cases(sigma_chain)
    for name, (kernel, reference) in cases.items():
        assert arena.decode_set(kernel()) == reference(), name
        kernel_s = _median_seconds(kernel)
        object_s = _median_seconds(reference)
        assert kernel_s <= object_s * 1.25, (
            f"{name} kernel slower than its object operator: "
            f"{kernel_s * 1e3:.3f}ms vs {object_s * 1e3:.3f}ms"
        )


# ----------------------------------------------------------------------
# sharded scatter-gather: the serving-path acceptance gate
# ----------------------------------------------------------------------


def test_sharded_speedup_on_macro_intersect_chain():
    """Acceptance gate: `Database.query(shards=4)` serves the macro
    Associate/Intersect chain at ≥2x over single-process compact
    execution at extent 2000.

    Protocol (same as the ``sharded_chain`` section of
    ``BENCH_operators.json``): the sharded side is measured warm — worker
    sub-plan caches and the blob-memoized gather populated, the pool's
    natural serving state — against the uncached single-process compact
    protocol every compute gate in this file uses.  Results are asserted
    identical before timing.  On multi-core hosts the workers also
    parallelize the kernels; the gate only claims the serving-path win,
    which holds even on one core.
    """
    from seeds import CHAIN_SEED

    from repro.datagen import chain_dataset
    from repro.engine.database import Database

    ds = chain_dataset(
        n_classes=4, extent_size=2000, density=0.002, seed=CHAIN_SEED
    )
    expr = _macro_query()
    single = Executor(ds.graph)
    reference = single.run(expr, use_cache=False)
    db = Database(ds.schema, ds.graph)
    try:
        db.start_shards(4)
        # first call ships per-shard plans, second warms both cache layers
        assert db.query(expr, shards=4).set == reference
        db.query(expr, shards=4)
        single_s = _median_seconds(lambda: single.run(expr, use_cache=False))
        sharded_s = _median_seconds(lambda: db.query(expr, shards=4))
    finally:
        db.close()
    speedup = single_s / sharded_s
    assert speedup >= 2.0, f"sharded speedup only {speedup:.1f}x"
