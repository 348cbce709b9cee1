"""University tour: the paper's Figures 1–3 and Queries 1–5, end to end.

Prints the schema graph, then runs every query of the paper both as an
algebra expression and as OQL text, showing the resulting association-sets
in the paper's figure notation.

Run:  python examples/university_tour.py
"""

from repro.core.expression import EvalTrace
from repro.datasets import university
from repro.engine.database import Database
from repro.viz import render_set, schema_to_dot

QUERIES = {
    "Query 1 — SS#s of teaching assistants": (
        "pi(TA * Grad * Student * Person * SS#)[SS#]",
        "SS#",
    ),
    "Query 3 — students teaching in their major department": (
        """pi(Student * Person * Name & Student * Department
            & Student * Grad * TA * Teacher * Department)[Name]""",
        "Name",
    ),
    "Query 4 — sections with no room or no teacher": (
        "pi(Section# * (Section ! Room# + Section ! Teacher))[Section#]",
        "Section#",
    ),
    "Query 5 — students taking both 6010 and 6020": (
        """pi((Name * Person * Student * Enrollment * Course * Course#)
            /{Student} sigma(Course#)[Course# = 6010 or Course# = 6020])[Name]""",
        "Name",
    ),
}

QUERY_2 = """
pi(sigma(Name)[Name = 'CIS'] * Department * Course *
   (Section * Teacher * Faculty * Specialty
    + Section * (Student * GPA & Student * EarnedCredit)))
  [Section, Specialty, GPA, EarnedCredit;
   Section:Specialty, Section:GPA, Section:EarnedCredit]
"""


def main() -> None:
    dataset = university()
    db = Database.from_dataset(dataset)

    print("=== Figure 1: the schema graph (DOT excerpt) ===")
    dot = schema_to_dot(db.schema)
    print("\n".join(dot.splitlines()[:12]), "\n  ...")

    print("\n=== Figure 2 flavour: one object across the lattice ===")
    alice = dataset.people["alice"]
    print(
        "Alice's instances:",
        ", ".join(f"{cls}={iid.label}" for cls, iid in sorted(alice.items())),
    )

    for title, (oql, cls) in QUERIES.items():
        print(f"\n=== {title} ===")
        print("OQL:", " ".join(oql.split()))
        result = db.query(oql)
        print("patterns:")
        print(render_set(result.set))
        print("values:", sorted(result.values(cls), key=str))

    print("\n=== Query 2 — the heterogeneous OR query (Figure 3) ===")
    print("OQL:", " ".join(QUERY_2.split()))
    trace = EvalTrace()
    result = db.query(QUERY_2, trace=trace)
    print("patterns (two shapes in ONE result — closure + heterogeneity):")
    print(render_set(result.set))
    print("specialties:", sorted(result.values("Specialty")))
    print("GPAs:", sorted(result.values("GPA")))
    print("\nevaluation trace (cardinality per operator):")
    print(trace.pretty())


if __name__ == "__main__":
    main()
