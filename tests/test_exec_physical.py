"""Physical planning: strategy selection, plan shape, object islands."""

import pytest

from repro.core.expression import Select, ref
from repro.core.predicates import ClassValues, Comparison, Const
from repro.datagen import valued_chain_dataset
from repro.datasets import university
from repro.engine.database import Database
from repro.obs.span import Tracer


@pytest.fixture()
def db():
    return Database.from_dataset(university())


def strategies(plan):
    return {node.strategy for node, _ in plan.walk()}


class TestStrategySelection:
    def test_bare_extent_is_extent_scan(self, db):
        plan = db.executor.plan(ref("TA"))
        assert plan.strategy == "compact-kernel"
        assert plan.kernel == "extent"
        assert db.query(ref("TA")).set == ref("TA").evaluate(db.graph)

    def test_associate_of_two_extents_is_compact_edge_scan(self, db):
        expr = ref("TA") * ref("Grad")
        plan = db.executor.plan(expr)
        assert plan.strategy == "compact-kernel"
        assert plan.kernel == "edge-scan"
        assert [c.strategy for c in plan.children] == ["compact-kernel"] * 2
        assert [c.kernel for c in plan.children] == ["extent"] * 2

    def test_deep_associate_is_compact_join(self, db):
        expr = ref("TA") * ref("Grad") * ref("Student")
        plan = db.executor.plan(expr)
        assert plan.strategy == "compact-kernel"
        assert plan.kernel == "hash-join"
        assert plan.children[0].kernel == "edge-scan"

    def test_value_equality_select_uses_value_index(self, db):
        expr = Select(ref("SS#"), Comparison(ClassValues("SS#"), "=", Const(1)))
        plan = db.executor.plan(expr)
        assert plan.strategy == "compact-kernel"
        assert plan.kernel == "value-index"

    def test_general_select_compiles_to_compact_select(self, db):
        expr = Select(ref("SS#"), Comparison(ClassValues("SS#"), ">", Const(1)))
        plan = db.executor.plan(expr)
        assert plan.strategy == "compact-select"
        assert plan.kernel == "mask-eval"

    def test_uncompilable_select_is_object_eval(self, db):
        # Apply/Callback predicates cannot lower to column masks
        from repro.core.predicates import Callback

        plan = db.executor.plan(Select(ref("SS#"), Callback(lambda p, g: True)))
        assert plan.strategy == "object-island"
        assert plan.kernel == "a_select"

    def test_unsupported_operators_keep_reference_kernels(self, db):
        linked = (ref("TA") * ref("Grad")).project(["TA", "Grad"], ["TA:Grad"])
        expr = linked + (ref("Section") ^ ref("Room#"))
        plan = db.executor.plan(expr)
        # A Project with path links has no kernel: it alone is an island,
        # and the Union above it stays a kernel node.
        assert plan.label == "compact-kernel[merge-union]"
        assert plan.children[0].label == "object-island[a_project]"
        assert strategies(plan) == {"compact-kernel", "object-island"}
        assert db.executor.run(expr, use_cache=False) == expr.evaluate(db.graph)

    def test_plan_mirrors_expression_tree(self, db):
        expr = (ref("TA") * ref("Grad")).project(["TA"])
        plan = db.executor.plan(expr)
        logical = [str(node) for node, _ in _walk_expr(expr)]
        physical = [str(node.expr) for node, _ in plan.walk()]
        assert logical == physical

    def test_describe_lists_strategies(self, db):
        text = db.executor.plan(ref("TA") * ref("Grad")).describe()
        assert "compact-kernel[edge-scan]" in text
        assert "compact-kernel[extent]" in text


def _walk_expr(expr, depth=0):
    yield expr, depth
    for child in expr.children():
        yield from _walk_expr(child, depth + 1)


class TestRuntimeStrategies:
    def test_index_join_drives_from_smaller_side(self, db):
        # |TA ∘ Grad| << |Student|: the join should probe from the left.
        trace = Tracer()
        db.query(ref("TA") * ref("Grad") * ref("Student"), trace=trace)
        join_spans = [s for s in trace.completed if s.attributes.get("drive")]
        assert join_spans and join_spans[-1].attributes["drive"] == "left"

    def test_cache_hit_reported_in_span(self, db):
        q = ref("TA") * ref("Grad")
        db.query(q)
        trace = Tracer()
        db.query(q, trace=trace)
        assert trace.roots[-1].attributes.get("strategy") == "cache-hit"

    def test_explain_analyze_shows_strategy_per_node(self, db):
        report = db.query("pi(TA * Grad)[TA, Grad; TA:Grad]", explain=True).report
        text = str(report)
        assert "via object-island" in text
        assert "via compact-kernel" in text  # the TA * Grad operand
        assert "via cache-hit" not in text  # explain bypasses the cache

    def test_explain_analyze_shows_compiled_mask_cardinality(self, db):
        expr = Select(ref("SS#"), Comparison(ClassValues("SS#"), ">", Const(1)))
        report = db.query(expr, explain=True).report
        text = str(report)
        assert "via compact-select" in text
        assert "(mask=" in text
        root = report.root
        assert root.mask_card is not None and root.mask_card == root.actual

    def test_describe_shows_sigma_strategy(self, db):
        expr = Select(ref("SS#"), Comparison(ClassValues("SS#"), ">", Const(1)))
        assert "compact-select" in db.executor.plan(expr).describe()

    def test_select_strategy_counters(self, db):
        compiled = db.metrics.counter("repro_select_compiled_total")
        fallback = db.metrics.counter("repro_select_fallback_total")
        before_c, before_f = compiled.value(), fallback.value()
        db.executor.plan(
            Select(ref("SS#"), Comparison(ClassValues("SS#"), ">", Const(1)))
        )
        assert compiled.value() == before_c + 1
        from repro.core.predicates import Callback

        db.executor.plan(Select(ref("SS#"), Callback(lambda p, g: True)))
        assert fallback.value() == before_f + 1


class TestCompactRegions:
    def test_results_agree_with_reference(self, db):
        queries = [
            ref("TA") * ref("Grad") * ref("Student"),
            ref("TA") * ref("Grad") + ref("Section") * ref("Room#"),
            (ref("TA") * ref("Grad")) - ref("TA"),
            ref("Section") ^ ref("Room#"),
            Select(ref("SS#"), Comparison(ClassValues("SS#"), "=", Const(1))),
        ]
        for expr in queries:
            reference = expr.evaluate(db.graph)
            assert db.executor.run(expr, use_cache=False) == reference
            assert db.executor.run(expr) == reference

    def test_project_above_region_falls_back_but_region_stays_compact(self, db):
        plan = db.executor.plan(
            (ref("TA") * ref("Grad")).project(["TA", "Grad"], ["TA:Grad"])
        )
        assert plan.strategy == "object-island"
        assert plan.children[0].strategy == "compact-kernel"

    def test_fallback_counter_counts_blocked_kernel_ops(self, db):
        counter = db.metrics.counter("repro_compact_fallback_total")
        before = counter.value()
        # Union over a linked Project operand: only the Project is an
        # island.
        linked = (ref("TA") * ref("Grad")).project(["TA", "Grad"], ["TA:Grad"])
        db.executor.plan(linked + ref("TA"))
        assert counter.value() == before + 1

    def test_island_span_names_the_reference_operator(self, db):
        trace = Tracer()
        linked = (ref("TA") * ref("Grad")).project(["TA", "Grad"], ["TA:Grad"])
        db.query(linked + ref("TA"), trace=trace, use_cache=False)
        islands = [
            s for s in trace.completed if s.attributes["strategy"] == "object-island"
        ]
        assert [s.attributes["kernel"] for s in islands] == ["a_project"]

    def test_compact_interior_cache_hit_reported(self, db):
        expr = ref("TA") * ref("Grad") * ref("Student")
        db.query(expr)
        trace = Tracer()
        db.query(expr, trace=trace)
        # warm root: the decoded result is served straight from the cache
        assert trace.roots[-1].attributes.get("strategy") == "cache-hit"

    def test_kernel_names_reported_in_spans(self, db):
        trace = Tracer()
        db.query(ref("TA") * ref("Grad") * ref("Student"), trace=trace, use_cache=False)
        kernels = {s.attributes.get("kernel") for s in trace.completed}
        assert {"hash-join", "edge-scan", "extent"} <= kernels

    def test_arena_gauges_track_interning(self, db):
        db.query(ref("TA") * ref("Grad"))
        assert db.metrics.gauge("repro_arena_vertices").value() > 0
        assert db.metrics.gauge("repro_arena_edges").value() > 0
        assert db.metrics.counter("repro_compact_decode_total").value() > 0


#: The seven read shapes of the served benchmark's ``scan_cold`` workload
#: (``benchmarks/e2e/loadgen.py``), copied as text: three-class chains cut
#: down by Project, σ over composites, Difference, Divide and A-Complement.
SCAN_COLD_SHAPES = (
    "pi(V0*V1*V2)[V0]",
    "pi(V1*V2*V3)[V3]",
    "sigma(V0*V1*V2)[V2 = 999983]",
    "sigma(V1*V2*V3)[V1 = 999983]",
    "sigma(V0)[V0 = 0]*V1*V2 - sigma(V0)[V0 = 0]*V1*sigma(V2)[V2 < 999983]",
    "(V1*V2*V3) / (sigma(V3)[V3 = 999983] * V2)",
    "(sigma(V0)[V0 = 999983] | V1) - (sigma(V0)[V0 = 999983] | sigma(V1)[V1 < 999983])",
)


class TestKernelClosedPlans:
    @pytest.fixture()
    def chain_db(self):
        return Database.from_dataset(
            valued_chain_dataset(n_classes=4, extent_size=30, density=0.1, seed=11)
        )

    @pytest.mark.parametrize("text", SCAN_COLD_SHAPES)
    def test_scan_cold_shapes_plan_compact_roots(self, chain_db, text):
        fallbacks = chain_db.metrics.counter("repro_compact_fallback_total")
        before = fallbacks.value()
        expr = chain_db.compile(text)
        plan = chain_db.executor.plan(expr)
        assert plan.strategy.startswith("compact-")
        assert all(node.strategy.startswith("compact-") for node, _ in plan.walk())
        assert fallbacks.value() == before
        reference = expr.evaluate(chain_db.graph)
        assert chain_db.query(text, use_cache=False).set == reference

    def test_unsupported_shapes_plan_reference_nodes(self, chain_db):
        from repro.core.predicates import Callback
        from repro.errors import EvaluationError

        fallbacks = chain_db.metrics.counter("repro_compact_fallback_total")
        chain = ref("V0") * ref("V1") * ref("V2")
        before = fallbacks.value()
        callback = chain_db.executor.plan(Select(chain, Callback(lambda p, g: True)))
        assert callback.label == "object-island[a_select]"
        assert callback.children[0].strategy == "compact-kernel"
        linked = chain_db.executor.plan(chain.project(["V0", "V2"], ["V0:V2"]))
        assert linked.label == "object-island[a_project]"
        assert linked.children[0].strategy == "compact-kernel"
        # a Union has no tail class, so the shorthand association cannot
        # resolve: the island raises the reference error at run time
        expr = (ref("V1") + ref("V2")) * ref("V3")
        unresolvable = chain_db.executor.plan(expr)
        assert unresolvable.label == "object-island[associate]"
        assert unresolvable.children[0].label == "compact-kernel[merge-union]"
        assert fallbacks.value() == before + 3
        with pytest.raises(EvaluationError) as reference:
            expr.evaluate(chain_db.graph)
        with pytest.raises(EvaluationError) as served:
            chain_db.query(expr)
        assert str(served.value) == str(reference.value)


class TestRulePass:
    """The planner's search-free rewrites: σ and Π pushed below Associate."""

    @pytest.fixture()
    def chain_db(self):
        return Database.from_dataset(
            valued_chain_dataset(n_classes=4, extent_size=30, density=0.1, seed=11)
        )

    def test_select_pushdown_reaches_the_value_index(self, chain_db):
        expr = chain_db.compile("sigma(V1*V2*V3)[V1 = 999983]")
        plan = chain_db.executor.plan(expr)
        assert plan.rewrites == ("select-pushdown", "select-pushdown")
        assert str(plan.expr) == "((σ(V1)[V1 = 999983] * V2) * V3)"
        kernels = [node.kernel for node, _ in plan.walk()]
        assert kernels == [
            "hash-join",
            "hash-join",
            "value-index",
            "extent",
            "extent",
            "extent",
        ]

    def test_project_pushdown_reduces_the_far_side(self, chain_db):
        plan = chain_db.executor.plan(chain_db.compile("pi(V0*V1*V2)[V0]"))
        assert plan.rewrites == ("project-pushdown",)
        assert str(plan.expr) == "Π((V0 *[V0__V1(V0,V1)] Π((V1 * V2))[V1]))[V0]"
        plan = chain_db.executor.plan(chain_db.compile("pi(V1*V2*V3)[V3]"))
        assert str(plan.expr) == "Π((Π((V1 * V2))[V2] *[V2__V3(V2,V3)] V3))[V3]"

    def test_longer_chain_becomes_a_semijoin_chain(self, chain_db):
        plan = chain_db.executor.plan(chain_db.compile("pi(V0*V1*V2*V3)[V0]"))
        assert plan.rewrites == ("project-pushdown", "project-pushdown")
        assert str(plan.expr) == (
            "Π((V0 *[V0__V1(V0,V1)] "
            "Π((V1 *[V1__V2(V1,V2)] Π((V2 * V3))[V2]))[V1]))[V0]"
        )

    @pytest.mark.parametrize(
        "text",
        [
            "pi(V0*V1*V2)[V0]",
            "sigma(V1*V2*V3)[V1 = 999983]",
            "pi(V0*V1*V2*V3)[V0]",
            "pi(V0*(V1*V2)*V3)[V3]",
            "pi(sigma(V0*V1*V2)[V2 = 999983])[V0]",
        ],
    )
    def test_rewritten_plans_match_the_reference(self, chain_db, text):
        expr = chain_db.compile(text)
        result = chain_db.query(expr, use_cache=False)
        assert result.set == expr.evaluate(chain_db.graph)
        assert result.plan_expr.evaluate(chain_db.graph) == result.set

    def test_no_rule_fires_returns_the_same_tree(self, chain_db):
        expr = chain_db.compile("sigma(V0)[V0 = 999983] * V1")
        plan = chain_db.executor.plan(expr)
        assert plan.expr is expr
        assert plan.rewrites == ()
        assert chain_db.query(expr).plan_expr is expr

    def test_fan_out_guard_keeps_one_to_one_chains(self, db):
        # every hop of Query 1 is a 1:1 link: projecting a side saves nothing
        expr = db.compile("pi(TA * Grad * Student * Person * SS#)[SS#]")
        plan = db.executor.plan(expr)
        assert plan.expr is expr and plan.rewrites == ()

    def test_path_links_block_project_pushdown(self, chain_db):
        expr = (ref("V0") * ref("V1") * ref("V2")).project(["V0"], ["V0:V2"])
        assert chain_db.executor.plan(expr).expr is expr

    def test_rewrites_are_counted_by_rule(self, chain_db):
        counter = chain_db.metrics.counter("repro_rewrite_total")
        chain_db.query("sigma(V1*V2*V3)[V1 = 999983]")
        chain_db.query("pi(V0*V1*V2)[V0]")
        chain_db.query("V0 * V1")
        assert counter.value(rule="select-pushdown") == 2
        assert counter.value(rule="project-pushdown") == 1
