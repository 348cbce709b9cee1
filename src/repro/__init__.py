"""repro — the Association Algebra (A-algebra) for object-oriented databases.

A faithful, from-scratch reproduction of

    Guo, Su & Lam, "An Association Algebra For Processing Object-Oriented
    Databases", ICDE 1991.

Public API tour
---------------
* :mod:`repro.schema` / :mod:`repro.objects` — schema graphs and object
  graphs (the intensional and extensional database, §3.1);
* :mod:`repro.core` — patterns, association-sets, the nine operators, the
  expression DSL (``ref("TA") * ref("Grad")``) and the algebraic laws;
* :mod:`repro.engine` — the :class:`~repro.engine.database.Database`
  facade tying everything together (query entry point:
  :meth:`~repro.engine.database.Database.query`);
* :mod:`repro.exec` — the physical execution engine behind it: adjacency
  and value indexes, a memoizing sub-plan cache, an integer-interning
  pattern arena with batch kernels and typed attribute columns;
* :mod:`repro.oql` — the textual OQL front-end compiled to the algebra;
* :mod:`repro.optimizer` — law-based rewriting and a cardinality cost
  model (§4, Figure 10);
* :mod:`repro.relational` — a from-scratch relational algebra baseline;
* :mod:`repro.datasets` / :mod:`repro.datagen` — the paper's figures as
  data, plus synthetic workload generators.

Quickstart::

    from repro import Database, ref
    from repro.datasets import university

    db = Database.from_dataset(university())
    q1 = (ref("TA") * ref("Grad") * ref("Student") * ref("Person")
          * ref("SS#")).project(["SS#"])
    numbers = db.query(q1).values("SS#")
"""

from repro.core import (
    IID,
    AssocSpec,
    AssociationSet,
    EvalTrace,
    Expr,
    OperatorKind,
    Pattern,
    Polarity,
    Relationship,
    complement,
    d_complement,
    d_inter,
    inter,
    ref,
)
from repro.engine.database import Database, QueryResult
from repro.errors import ReproError
from repro.objects import GraphBuilder, ObjectGraph
from repro.schema import SchemaGraph

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "Database",
    "QueryResult",
    "SchemaGraph",
    "ObjectGraph",
    "GraphBuilder",
    "AssociationSet",
    "Pattern",
    "IID",
    "Polarity",
    "Relationship",
    "inter",
    "complement",
    "d_inter",
    "d_complement",
    "Expr",
    "AssocSpec",
    "EvalTrace",
    "OperatorKind",
    "ref",
    "ReproError",
]
