"""ABLATION: which rewrite-rule families earn their keep?

DESIGN.md calls out three optimizer design choices; each is ablated here
on the Figure 10 workload plus a selective-filter workload:

* rule families — planning with no rules, rotations only, distributions
  only, and the full safe set; the *chosen plan* of each configuration is
  then evaluated (so the benchmark measures realized, not estimated, cost);
* select-pushdown — σ late vs σ pushed against a low-selectivity filter;
* exploration budget — planning time at 25 / 100 / 400 candidates.

A separate section covers the physical planner's search-free *rule pass*
(select- and project-pushdown on every served plan) on every served read
of ``benchmarks/e2e`` and on the paper's Queries 1-5.  The CI gate is
deterministic: only the four σ/Π-over-chain ``scan_cold`` reads are
rewritten, no rewritten plan builds more patterns than the query's
unrewritten lowering, and on the four targets the largest intermediate
shrinks at least 3x.  The wall-clock ratios (a rewritten plan within 1.10x
of its lowering, the targets at least 3x faster) are measured by
``rule_pass_section`` into the ``rule_pass`` block of
``BENCH_optimizer.json``, where timing noise is visible instead of flaky.

The search itself (:class:`~repro.optimizer.planner.Optimizer`) serves no
query; it is measured against the rule pass on the same reads
(``search_vs_rule_pass``).  The CI gate checks that both plans are exact
and which reads the search plans differently (:data:`SEARCH_DIFFERS`);
their times land in ``BENCH_optimizer.json``.

A fourth family ablates the *cost model itself*: on the value-skewed
``skewed_dataset`` workload the fixed-selectivity (uniform) model and the
histogram-backed statistics model disagree about join order, and the
section measures what that disagreement costs at execution time.
``optimizer_sections`` is the machine-readable face of this section —
``report.py --json-optimizer`` writes it out as ``BENCH_optimizer.json``.
"""

import statistics

import pytest
from seeds import SKEWED_SEED
from timing import gc_paused_samples, median_seconds
from timing import sampled as _sampled

from repro.core.expression import ClassExtent, EvalTrace, Intersect, Select, ref
from repro.core.predicates import ClassValues, Comparison, Const
from repro.datagen import figure10_dataset, skewed_dataset
from repro.engine.database import Database
from repro.obs.span import Tracer
from repro.optimizer import Optimizer, SAFE_RULES
from repro.optimizer.cost import CostModel


def fig10_expr():
    return ref("A") * (
        ref("B") * ref("E") * ref("F")
        + ref("B") * Intersect(ref("C") * ref("D") * ref("H"), ref("C") * ref("G"))
    )


ROTATIONS = tuple(r for r in SAFE_RULES if r.name.startswith("rotate"))
DISTRIBUTIONS = tuple(
    r for r in SAFE_RULES if "over" in r.name and "select" not in r.name
)

CONFIGS = {
    "none": (),
    "rotations": ROTATIONS,
    "distributions": DISTRIBUTIONS,
    "all-safe": SAFE_RULES,
}


@pytest.fixture(scope="module")
def ds():
    return figure10_dataset(extent_size=18, density=0.12, seed=7)


@pytest.fixture(scope="module")
def reference(ds):
    return fig10_expr().evaluate(ds.graph)


@pytest.mark.parametrize("config", list(CONFIGS))
def test_rule_family(benchmark, ds, reference, config):
    optimizer = Optimizer(ds.graph, rules=CONFIGS[config], max_candidates=150)
    best = optimizer.optimize(fig10_expr())
    result = benchmark(best.expr.evaluate, ds.graph)
    assert result == reference


@pytest.mark.parametrize("config", list(CONFIGS))
def test_estimate_accuracy(benchmark, ds, reference, config):
    """Estimate-vs-actual cardinality error of each configuration's plan.

    The chosen plan runs under EXPLAIN ANALYZE; its per-node q-errors
    (max(est, act) / min(est, act)) land in the benchmark's ``extra_info``
    so regressions in the cost model show up next to the timing numbers.
    """
    from repro.obs import explain_analyze

    optimizer = Optimizer(ds.graph, rules=CONFIGS[config], max_candidates=150)
    best = optimizer.optimize(fig10_expr())
    report = benchmark(explain_analyze, best.expr, ds.graph)
    assert report.result == reference
    benchmark.extra_info["mean_q_error"] = round(report.mean_q_error, 3)
    benchmark.extra_info["max_q_error"] = round(report.max_q_error, 3)


@pytest.fixture(scope="module")
def filter_workload(ds):
    """σ over a long chain: a single F-instance pinned at the far end."""
    from repro.core.predicates import Callback

    some_f = sorted(ds.graph.extent("F"))[0]
    predicate = Callback(
        lambda p, g, pin=some_f: pin in p.vertices, f"F == {some_f.label}"
    )
    chain = ref("A") * ref("B") * (ref("E") * ref("F"))
    return Select(chain, predicate), predicate


def test_select_late(benchmark, ds, filter_workload):
    late, _ = filter_workload
    result = benchmark(late.evaluate, ds.graph)
    assert result is not None


def test_select_pushed(benchmark, ds, filter_workload):
    late, predicate = filter_workload
    pushed = ref("A") * ref("B") * Select(ref("E") * ref("F"), predicate)
    result = benchmark(pushed.evaluate, ds.graph)
    assert result == late.evaluate(ds.graph)


@pytest.mark.parametrize("budget", [25, 100, 400])
def test_exploration_budget(benchmark, ds, budget):
    def plan():
        return Optimizer(ds.graph, max_candidates=budget).optimize(fig10_expr())

    best = benchmark(plan)
    assert best.estimate.cost > 0


# ----------------------------------------------------------------------
# cost-model ablation: fixed selectivity vs the statistics catalog
# ----------------------------------------------------------------------


def _skewed_db(extent_size: int, seed: int = SKEWED_SEED):
    """A skewed dataset plus an ANALYZE-d database over it."""
    dataset = skewed_dataset(extent_size=extent_size, seed=seed)
    db = Database(dataset.schema, dataset.graph)
    db.analyze()
    return dataset, db


def skewed_queries(dataset) -> dict:
    """The three-hop chains whose best join order depends on value skew.

    ``rare-…`` selects a value held by a handful of instances — starting
    from the Select is orders of magnitude cheaper, but only a histogram
    can see that.  ``hot-L`` selects the majority value, where both cost
    models agree; it guards the "statistics never hurt" direction.
    """

    def chain(cls, entity, wide, value):
        selected = Select(
            ClassExtent(cls), Comparison(ClassValues(cls), "=", Const(value))
        )
        return (selected * ClassExtent(entity)) * ClassExtent(wide)

    return {
        "rare-L": chain("L", "M", "R", dataset.rare_value),
        "rare-A": chain("A", "Hub", "S1", dataset.rare_value),
        "hot-L": chain("L", "M", "R", dataset.hot_value),
    }


def _q_error(estimated: float, actual: float) -> float:
    estimated = max(estimated, 1.0)
    actual = max(actual, 1.0)
    return max(estimated, actual) / min(estimated, actual)


def optimizer_sections(quick: bool) -> dict:
    """Measure every section of ``BENCH_optimizer.json``.

    For each skewed-workload query, both cost models pick a plan; each
    plan then runs through the physical executor (result cache off, so
    every sample pays the full execution) and through a traced logical
    evaluation for the deterministic constructed-pattern count.
    """
    from repro.obs import explain_analyze

    # First, while the heap is small: its gates compare milliseconds.
    rule_pass = rule_pass_section(repeat=9 if quick else 15)
    search_vs_rule_pass = search_vs_rule_pass_section(repeat=5 if quick else 15)
    extent = 300 if quick else 1000
    repeat = 3 if quick else 7
    dataset, db = _skewed_db(extent)
    models = {
        "uniform": CostModel(db.graph),
        "stats": CostModel(db.graph, stats=db.stats),
    }

    queries: dict = {}
    q_errors: dict = {name: [] for name in models}
    speedups = []
    for label, expr in skewed_queries(dataset).items():
        per_model = {}
        for name, model in models.items():
            plan = Optimizer(db.graph, cost_model=model).optimize(expr).expr
            report = explain_analyze(
                plan, db.graph, cost_model=model, executor=db.executor
            )
            actual = len(report.result)
            trace = EvalTrace()
            plan.evaluate(db.graph, trace)
            estimated = model.estimate(plan).cardinality
            q_errors[name].append(report.mean_q_error)
            per_model[name] = {
                "plan": str(plan),
                "total_patterns": trace.total_patterns,
                "estimated_cardinality": round(estimated, 1),
                "actual_cardinality": actual,
                "root_q_error": round(_q_error(estimated, actual), 2),
                "mean_q_error": round(report.mean_q_error, 2),
                "max_q_error": round(report.max_q_error, 2),
                **_sampled(
                    lambda p=plan: db.executor.run(p, use_cache=False), repeat
                ),
            }
        speedup = round(
            per_model["uniform"]["median_ms"] / per_model["stats"]["median_ms"], 2
        )
        speedups.append(speedup)
        queries[label] = {
            **per_model,
            "speedup_median": speedup,
            "same_plan": per_model["uniform"]["plan"] == per_model["stats"]["plan"],
        }

    # Median, across queries, of the per-plan mean node q-error that
    # EXPLAIN ANALYZE reports — the headline estimate-accuracy gate.
    gates = {
        "never_worse_total_patterns": all(
            entry["stats"]["total_patterns"] <= entry["uniform"]["total_patterns"]
            for entry in queries.values()
        ),
        "queries_at_or_above_1_5x": sum(1 for s in speedups if s >= 1.5),
        "median_q_error_uniform": round(statistics.median(q_errors["uniform"]), 2),
        "median_q_error_stats": round(statistics.median(q_errors["stats"]), 2),
    }
    return {
        "dataset": {
            "generator": "skewed_dataset",
            "extent_size": extent,
            "seed": SKEWED_SEED,
        },
        "queries": queries,
        "gates": gates,
        "rule_pass": rule_pass,
        "search_vs_rule_pass": search_vs_rule_pass,
    }


@pytest.fixture(scope="module")
def skewed():
    return _skewed_db(250)


def test_skewed_plan_flip(skewed):
    """Histograms flip the rare-value join orders; uniform cannot see them."""
    dataset, db = skewed
    uniform = Optimizer(db.graph, cost_model=CostModel(db.graph))
    stats = Optimizer(db.graph, cost_model=CostModel(db.graph, stats=db.stats))
    flipped = {
        label
        for label, expr in skewed_queries(dataset).items()
        if uniform.optimize(expr).expr != stats.optimize(expr).expr
    }
    assert {"rare-L", "rare-A"} <= flipped


def test_skewed_stats_never_worse(skewed):
    """Realized-cost gate: the stats plan never constructs more patterns.

    Deterministic (pattern counts, not wall-clock), so it can run in CI
    smoke; the ≥1.5x wall-clock speedup lands in ``BENCH_optimizer.json``
    where timing noise is visible instead of flaky.
    """
    dataset, db = skewed
    uniform = Optimizer(db.graph, cost_model=CostModel(db.graph))
    stats = Optimizer(db.graph, cost_model=CostModel(db.graph, stats=db.stats))
    for label, expr in skewed_queries(dataset).items():
        uniform_plan = uniform.optimize(expr).expr
        stats_plan = stats.optimize(expr).expr
        uniform_trace, stats_trace = EvalTrace(), EvalTrace()
        reference = uniform_plan.evaluate(db.graph, uniform_trace)
        assert stats_plan.evaluate(db.graph, stats_trace) == reference
        assert stats_trace.total_patterns <= uniform_trace.total_patterns, label


def test_skewed_rare_chain_stats_plan(benchmark, skewed):
    """Executor time of the statistics-chosen plan for the rare-L chain."""
    dataset, db = skewed
    expr = skewed_queries(dataset)["rare-L"]
    stats_model = CostModel(db.graph, stats=db.stats)
    plan = Optimizer(db.graph, cost_model=stats_model).optimize(expr).expr
    result = benchmark(db.executor.run, plan, use_cache=False)
    assert result == expr.evaluate(db.graph)


# ----------------------------------------------------------------------
# the planner's rule pass: never slower, and the scan reads it targets
# ----------------------------------------------------------------------

#: The ``scan_cold`` reads that wrap σ or Π around a three-class chain.
RULE_PASS_TARGETS = (
    "pi(V0*V1*V2)[V0]",
    "pi(V1*V2*V3)[V3]",
    "sigma(V0*V1*V2)[V2 = 999983]",
    "sigma(V1*V2*V3)[V1 = 999983]",
)
RULE_PASS_MAX_SLOWDOWN = 1.10
RULE_PASS_MIN_TARGET_SPEEDUP = 3.0
#: Factor by which the largest intermediate of each target must shrink.
RULE_PASS_MIN_TARGET_SHRINK = 3.0


def rule_pass_cases():
    """``(workload, label, database, query)`` for every served read and
    Q1-Q5; a served read is its own label, a paper query is ``Qn``."""
    from bench_paper_queries import QUERY_1, QUERY_2, QUERY_3, QUERY_4, QUERY_5
    from e2e.loadgen import POINT_READS, SCAN_READS, WIDE_READS, build_dataset

    from repro.datasets import university

    served = Database.from_dataset(build_dataset())
    paper = Database.from_dataset(university())
    cases = []
    for workload, reads in (
        ("scan", SCAN_READS),
        ("point", POINT_READS),
        ("wide", WIDE_READS),
    ):
        cases += [(workload, q, served, q) for q in reads]
    for n, query in enumerate((QUERY_1, QUERY_2, QUERY_3, QUERY_4, QUERY_5), 1):
        cases.append(("paper", f"Q{n}", paper, " ".join(query.split())))
    return cases


def patterns_built(executor, expr, plan) -> tuple[int, int]:
    """``(total, largest)`` output cardinality over the spans of one run."""
    tracer = Tracer()
    executor.run(expr, plan=plan, use_cache=False, trace=tracer)
    cards = [span.output_cardinality or 0 for span, _ in tracer.spans()]
    return sum(cards), max(cards)


def rule_pass_section(repeat: int = 21) -> dict:
    """Rewritten vs unrewritten lowering, per served read and paper query.

    The baseline lowers the query as written through the planner's
    internal ``_lower``; both plans run uncached, GC paused, in
    alternation, ``repeat`` times each.  The cost of the pass itself
    (``pass_us``) is compared with the cost of lowering the query as
    written (``lower_us``).
    """
    from repro.optimizer.rewrites import rule_pass

    rows = {}
    for workload, _, db, query in rule_pass_cases():
        executor = db.executor
        expr = db.compile(query)
        plan = executor.plan(expr)
        baseline = executor.planner._lower(expr)
        assert executor.run(expr, plan=plan, use_cache=False) == expr.evaluate(
            db.graph
        ), query
        pass_s = median_seconds(lambda: rule_pass(expr, db.graph, []), 200)
        lower_s = median_seconds(lambda: executor.planner._lower(expr), 200)
        row = {
            "workload": workload,
            "rewrites": list(plan.rewrites),
            "pass_us": round(pass_s * 1e6, 2),
            "lower_us": round(lower_s * 1e6, 2),
        }
        if plan.rewrites:
            row["plan"] = str(plan.expr)
            before_n, before_max = patterns_built(executor, expr, baseline)
            after_n, after_max = patterns_built(executor, plan.expr, plan)
            row["patterns_before"], row["patterns_after"] = before_n, after_n
            row["largest_before"], row["largest_after"] = before_max, after_max
            # Alternate the two plans so that drift (heap growth, other
            # load) lands on both sides alike.
            before_s, after_s = [], []
            for _ in range(repeat):
                before_s += gc_paused_samples(
                    lambda: executor.run(expr, plan=baseline, use_cache=False), 1
                )
                after_s += gc_paused_samples(
                    lambda: executor.run(plan.expr, plan=plan, use_cache=False), 1
                )
            before = statistics.median(before_s)
            after = statistics.median(after_s)
            row["before_ms"] = round(before * 1e3, 3)
            row["after_ms"] = round(after * 1e3, 3)
            row["speedup"] = round(before / after, 2)
        rows[query] = row
    rewritten = [q for q, row in rows.items() if row["rewrites"]]
    gates = {
        "rewritten": sorted(rewritten),
        "never_more_patterns": all(
            rows[q]["patterns_after"] <= rows[q]["patterns_before"]
            for q in rewritten
        ),
        "never_slower": all(
            rows[q]["after_ms"] <= RULE_PASS_MAX_SLOWDOWN * rows[q]["before_ms"]
            for q in rewritten
        ),
        "targets_at_or_above_3x": sum(
            1
            for q in RULE_PASS_TARGETS
            if rows[q].get("speedup", 0.0) >= RULE_PASS_MIN_TARGET_SPEEDUP
        ),
        # A query the pass leaves alone pays only its walk.
        "pass_at_most_half_of_lowering": all(
            row["pass_us"] <= 0.5 * row["lower_us"]
            for row in rows.values()
            if not row["rewrites"]
        ),
    }
    return {"queries": rows, "gates": gates}


def test_rule_pass_never_slower():
    """The rule pass only rewrites what it wins on, and wins big there.

    Deterministic (pattern counts, not wall-clock), so it can run in CI
    smoke; the wall-clock ratios land in ``BENCH_optimizer.json``.
    """
    from repro.optimizer.rewrites import rule_pass

    rewritten = {}
    for _, _, db, query in rule_pass_cases():
        executor = db.executor
        expr = db.compile(query)
        plan = executor.plan(expr)
        assert executor.run(expr, plan=plan, use_cache=False) == expr.evaluate(
            db.graph
        ), query
        if not plan.rewrites:
            assert rule_pass(expr, db.graph, []) is expr, query
            continue
        baseline = executor.planner._lower(expr)
        before_n, before_max = patterns_built(executor, expr, baseline)
        after_n, after_max = patterns_built(executor, plan.expr, plan)
        assert after_n <= before_n, (query, before_n, after_n)
        rewritten[query] = (before_max, after_max)
    assert set(rewritten) == set(RULE_PASS_TARGETS), sorted(rewritten)
    for query, (before_max, after_max) in rewritten.items():
        assert before_max >= RULE_PASS_MIN_TARGET_SHRINK * after_max, (
            query,
            before_max,
            after_max,
        )


# ----------------------------------------------------------------------
# the search against the rule pass
# ----------------------------------------------------------------------

#: The reads on which the search, then the rule pass, plans differently
#: from the rule pass alone — every one by re-associating a join chain.
SEARCH_DIFFERS = frozenset(
    {
        "sigma(V0*V1*V2)[V2 = 999983]",
        "sigma(V0)[V0 = 0]*V1*V2 - sigma(V0)[V0 = 0]*V1*sigma(V2)[V2 < 999983]",
        "(V1*V2*V3) / (sigma(V3)[V3 = 999983] * V2)",
        "sigma(V0)[V0 >= 15] * V1 * V2",
        "Q2",
        "Q3",
        "Q5",
    }
)


def search_vs_rule_pass_cases():
    """``(workload, label, database, expr, rule_plan, search_plan)``.

    ``rule_plan`` is what every query runs: the rule pass, then
    lowering.  ``search_plan`` lowers the search's choice (statistics
    cost model) the same way, so the rule pass runs on both.
    """
    cases = []
    for workload, label, db, query in rule_pass_cases():
        expr = db.compile(query)
        model = CostModel(db.graph, stats=db.stats)
        searched = Optimizer(db.graph, cost_model=model).optimize(expr).expr
        cases.append(
            (
                workload,
                label,
                db,
                expr,
                db.executor.plan(expr),
                db.executor.plan(searched),
            )
        )
    return cases


def search_vs_rule_pass_section(repeat: int = 15) -> dict:
    """The search against the rule pass alone, per served read and Q1-Q5.

    Both plans run uncached, GC paused, in alternating pairs ``repeat``
    times; ``search_ms`` is the median time of the search itself.
    """
    rows = {}
    for workload, label, db, expr, rule, search in search_vs_rule_pass_cases():
        executor = db.executor
        model = CostModel(db.graph, stats=db.stats)
        rule_s, search_s = [], []
        for _ in range(repeat):
            rule_s += gc_paused_samples(
                lambda: executor.run(rule.expr, plan=rule, use_cache=False), 1
            )
            search_s += gc_paused_samples(
                lambda: executor.run(search.expr, plan=search, use_cache=False), 1
            )
        rule_ms = statistics.median(rule_s) * 1e3
        search_ms = statistics.median(search_s) * 1e3
        optimize_s = median_seconds(
            lambda: Optimizer(db.graph, cost_model=model).optimize(expr), 3
        )
        rows[label] = {
            "workload": workload,
            "same_plan": rule.expr == search.expr,
            "rule_plan": str(rule.expr),
            "search_plan": str(search.expr),
            "rule_patterns": patterns_built(executor, rule.expr, rule)[0],
            "search_patterns": patterns_built(executor, search.expr, search)[0],
            "rule_ms": round(rule_ms, 3),
            "search_plan_ms": round(search_ms, 3),
            "search_ms": round(optimize_s * 1e3, 3),
            "search_speedup": round(rule_ms / search_ms, 2),
        }
    return {
        "queries": rows,
        "differs": sorted(q for q, row in rows.items() if not row["same_plan"]),
    }


def test_search_vs_rule_pass():
    """Both plans are exact, and the search departs from the rule pass on
    exactly the reads of :data:`SEARCH_DIFFERS`.

    Deterministic (plans and result sets, not wall-clock), so it can run
    in CI smoke; the timings land in ``BENCH_optimizer.json``.
    """
    differs = set()
    for _, label, db, expr, rule, search in search_vs_rule_pass_cases():
        reference = expr.evaluate(db.graph)
        assert db.executor.run(rule.expr, plan=rule, use_cache=False) == reference
        assert (
            db.executor.run(search.expr, plan=search, use_cache=False) == reference
        ), label
        if rule.expr != search.expr:
            differs.add(label)
    assert differs == SEARCH_DIFFERS, sorted(differs)
