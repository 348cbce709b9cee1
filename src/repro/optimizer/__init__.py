"""Query optimizer: law-based rewriting + cardinality cost model (§4).

The paper's §4 argues that the operators' mathematical properties "provide
ways for transforming a query expression into alternative expressions
which produce the same result but with different performances", and works
the Figure 10 example.  This package makes that concrete:

* :mod:`repro.optimizer.analysis` — static class sets, linearity and
  homogeneity of expressions (the rewrite side conditions);
* :mod:`repro.optimizer.rewrites` — one rewrite rule per algebraic law,
  applicable at any subtree;
* :mod:`repro.optimizer.cost` — a cardinality/cost model fed by object
  graph statistics;
* :mod:`repro.optimizer.stats` — the ANALYZE-style statistics catalog
  (histograms, fan-out distributions) behind it;
* :mod:`repro.optimizer.planner` — bounded exploration of the rewrite
  space and cheapest-plan selection.
"""

from repro.optimizer.analysis import is_statically_homogeneous, static_classes
from repro.optimizer.cost import CostModel, Estimate
from repro.optimizer.planner import Optimizer, PlanCandidate
from repro.optimizer.rewrites import SAFE_RULES, UNSAFE_RULES, RewriteRule
from repro.optimizer.stats import StatisticsCatalog

__all__ = [
    "Optimizer",
    "PlanCandidate",
    "CostModel",
    "Estimate",
    "StatisticsCatalog",
    "RewriteRule",
    "SAFE_RULES",
    "UNSAFE_RULES",
    "static_classes",
    "is_statically_homogeneous",
]
