"""Physical execution layer for the A-algebra engine.

Separates logical :class:`~repro.core.expression.Expr` trees from the
physical plans that evaluate them: a mutation-invalidated sub-plan
cache (:mod:`repro.exec.cache`), strategy-annotated operator trees
(:mod:`repro.exec.physical`), an integer-interning pattern arena with
batch kernels (:mod:`repro.exec.arena`, :mod:`repro.exec.kernels`), a
typed column store with compiled predicate masks
(:mod:`repro.exec.columns`), all coordinated by one
:class:`~repro.exec.executor.Executor` per database.  See
``docs/execution.md``.
"""

from repro.exec.arena import CompactSet, PatternArena
from repro.exec.cache import PlanCache, canonicalize, expr_dependencies
from repro.exec.columns import ColumnStore, compile_select, compiled_select_probe
from repro.exec.executor import Executor
from repro.exec.physical import CompactNode, ExecContext, ObjectIsland, PhysicalPlanner

__all__ = [
    "ColumnStore",
    "CompactNode",
    "CompactSet",
    "ExecContext",
    "Executor",
    "PatternArena",
    "ObjectIsland",
    "PhysicalPlanner",
    "PlanCache",
    "canonicalize",
    "compile_select",
    "compiled_select_probe",
    "expr_dependencies",
]
