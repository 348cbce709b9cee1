"""Quickstart: define a schema, populate objects, query with the A-algebra.

Builds a tiny project-management database from scratch and runs algebra
queries over it three ways: the Python expression DSL, raw operators, and
OQL text.

Run:  python examples/quickstart.py
"""

from repro import Database, SchemaGraph, ref
from repro.core.predicates import value_equals
from repro.viz import render_set


def build_database() -> Database:
    """A tiny Engineer—Project—Deadline world."""
    schema = SchemaGraph("projects")
    schema.add_entity_class("Engineer")
    schema.add_entity_class("Project")
    schema.add_domain_class("EName")
    schema.add_domain_class("PName")
    schema.add_domain_class("Deadline")
    schema.add_association("Engineer", "Project", "works_on")
    schema.add_association("Engineer", "EName")
    schema.add_association("Project", "PName")
    schema.add_association("Project", "Deadline")
    schema.validate()

    db = Database(schema)
    engineers = {}
    for name in ("Ada", "Grace", "Edsger"):
        eng = db.insert("Engineer")["Engineer"]
        db.link(eng, db.insert_value("EName", name))
        engineers[name] = eng
    projects = {}
    for pname, deadline in (("compiler", "Q1"), ("kernel", "Q2"), ("proofs", "Q3")):
        proj = db.insert("Project")["Project"]
        db.link(proj, db.insert_value("PName", pname))
        db.link(proj, db.insert_value("Deadline", deadline))
        projects[pname] = proj

    db.link(engineers["Ada"], projects["compiler"], "works_on")
    db.link(engineers["Ada"], projects["kernel"], "works_on")
    db.link(engineers["Grace"], projects["compiler"], "works_on")
    # Edsger works on nothing — the NonAssociate demo below finds him.
    return db


def main() -> None:
    db = build_database()

    print("=== 1. Associate chain (expression DSL) ===")
    # Engineers with their projects' deadlines: EName—Engineer—Project—Deadline.
    expr = ref("EName") * ref("Engineer") * ref("Project") * ref("Deadline")
    result = db.query(expr).set
    print(render_set(result, f"{expr}  →"))

    print("\n=== 2. A-Select + A-Project ===")
    q1_projects = (
        ref("Engineer") * ref("Project") * ref("Deadline").where(
            value_equals("Deadline", "Q1")
        )
    ).project(["Engineer"])
    names = (
        ref("EName")
        * q1_projects.operand  # reuse the unprojected chain
    ).project(["EName"])
    print("engineers on Q1 projects:", sorted(db.query(names).values("EName")))

    print("\n=== 3. NonAssociate: who works on nothing? ===")
    idle = (ref("EName") * (ref("Engineer") ^ ref("Project"))).project(["EName"])
    print("idle engineers:", sorted(db.query(idle).values("EName")))

    print("\n=== 4. The same in OQL text ===")
    oql = "pi(EName * (Engineer ! Project))[EName]"
    result = db.query(oql)
    print(f"{oql}\n  →", sorted(result.values("EName")))

    print("\n=== 5. Closure: feed a result back into the algebra ===")
    from repro.core.expression import Literal

    busy = db.query(ref("Engineer") * ref("Project")).set
    named = Literal(busy, "busy-pairs", head="Engineer") * ref("EName")
    result = db.query(named).set
    print("busy engineer/project pairs with names:")
    print(render_set(result))


if __name__ == "__main__":
    main()
