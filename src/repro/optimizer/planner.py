"""Plan exploration and selection.

The planner enumerates the rewrite closure of a query (bounded breadth-
first search, applying every rule at every subtree), costs each candidate
with the :class:`~repro.optimizer.cost.CostModel`, and returns the
cheapest.  This mirrors §4's framing: the laws "provide ways for
transforming a query expression into alternative expressions which produce
the same result but with different performances", and selectivity decides
among them.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass

from repro.core.expression import Expr
from repro.objects.graph import ObjectGraph
from repro.obs.metrics import MetricsRegistry
from repro.optimizer.cost import CostModel, Estimate
from repro.optimizer.rewrites import SAFE_RULES, RewriteRule, children, rebuild

__all__ = ["PlanCandidate", "Optimizer"]


@dataclass(frozen=True)
class PlanCandidate:
    """One equivalent expression with its estimate and derivation."""

    expr: Expr
    estimate: Estimate
    derivation: tuple[str, ...]

    def __str__(self) -> str:
        rules = " → ".join(self.derivation) if self.derivation else "(original)"
        return (
            f"cost={self.estimate.cost:12.1f} card={self.estimate.cardinality:10.1f}"
            f"  {self.expr}    via {rules}"
        )


class Optimizer:
    """Bounded-search optimizer over one object graph."""

    def __init__(
        self,
        graph: ObjectGraph,
        rules: tuple[RewriteRule, ...] = SAFE_RULES,
        max_candidates: int = 200,
        metrics: MetricsRegistry | None = None,
        cost_model: CostModel | None = None,
    ) -> None:
        self.graph = graph
        self.rules = rules
        self.max_candidates = max_candidates
        self.cost_model = cost_model if cost_model is not None else CostModel(graph)
        self.metrics = metrics
        if metrics is not None:
            self._m_plans = metrics.counter(
                "repro_plans_considered_total", "Candidate plans costed"
            )
            self._m_rewrites = metrics.counter(
                "repro_rewrites_applied_total", "Accepted rewrites, by rule"
            )
            self._m_planning = metrics.histogram(
                "repro_planning_seconds", "Wall-clock seconds per optimize() call"
            )

    # ------------------------------------------------------------------
    # rewrite closure
    # ------------------------------------------------------------------

    def _rewrites_at_any_subtree(self, expr: Expr, rule: RewriteRule):
        """Yield every expression obtained by applying ``rule`` once."""
        root_result = rule.apply(expr)
        if root_result is not None:
            yield root_result
        kids = children(expr)
        for index, child in enumerate(kids):
            for rewritten_child in self._rewrites_at_any_subtree(child, rule):
                new_kids = kids[:index] + (rewritten_child,) + kids[index + 1 :]
                yield rebuild(expr, new_kids)

    def equivalents(self, expr: Expr) -> list[PlanCandidate]:
        """The bounded rewrite closure of ``expr`` (original included)."""
        seen: dict[Expr, tuple[str, ...]] = {expr: ()}
        queue: deque[Expr] = deque([expr])
        while queue and len(seen) < self.max_candidates:
            current = queue.popleft()
            derivation = seen[current]
            for rule in self.rules:
                for candidate in self._rewrites_at_any_subtree(current, rule):
                    if candidate in seen:
                        continue
                    seen[candidate] = derivation + (rule.name,)
                    queue.append(candidate)
                    if self.metrics is not None:
                        self._m_rewrites.inc(rule=rule.name)
                    if len(seen) >= self.max_candidates:
                        break
        if self.metrics is not None:
            self._m_plans.inc(len(seen))
        return [
            PlanCandidate(e, self.cost_model.estimate(e), derivation)
            for e, derivation in seen.items()
        ]

    # ------------------------------------------------------------------
    # selection
    # ------------------------------------------------------------------

    def optimize(self, expr: Expr) -> PlanCandidate:
        """The cheapest equivalent plan (may be the original)."""
        started = time.perf_counter()
        candidates = self.equivalents(expr)
        best = min(candidates, key=lambda candidate: candidate.estimate.cost)
        if self.metrics is not None:
            self._m_planning.observe(time.perf_counter() - started)
        return best

    def explain(self, expr: Expr, top: int = 10) -> str:
        """A cost-ordered table of candidate plans for inspection.

        Includes a per-node estimate breakdown of the cheapest plan so a
        bad choice is diagnosable: each node reports where its cardinality
        came from (``exact`` / ``histogram`` / ``uniform``).
        """
        candidates = sorted(
            self.equivalents(expr), key=lambda c: c.estimate.cost
        )
        lines = [f"{len(candidates)} candidate plan(s); cheapest first:"]
        lines += [f"  {candidate}" for candidate in candidates[:top]]
        lines.append("cheapest plan estimates (per node):")
        lines += self._node_estimates(candidates[0].expr)
        return "\n".join(lines)

    def _node_estimates(self, expr: Expr, depth: int = 0) -> list[str]:
        estimate = self.cost_model.estimate(expr)
        lines = [
            f"  card={estimate.cardinality:10.1f}  src={estimate.source:<9}"
            f"  {'  ' * depth}{expr}"
        ]
        for child in expr.children():
            lines += self._node_estimates(child, depth + 1)
        return lines
