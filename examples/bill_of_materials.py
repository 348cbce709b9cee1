"""Bill of materials: parallel associations and part explosion.

The paper's CAD/CAM motivation, on a gearbox: the schema has TWO
associations between Part and Usage (``parent`` and ``child`` — the
``A_ij(k)`` of §3.1), so every navigation must disambiguate with the
``[R(A,B)]`` annotation the algebra provides.

Run:  python examples/bill_of_materials.py
"""

from repro import ref
from repro.core.expression import AssocSpec, Associate, NonAssociate
from repro.core.predicates import value_equals
from repro.datasets import parts_explosion
from repro.engine.database import Database
from repro.viz import render_set


def explode(db, part_name, levels):
    """Navigate `levels` parent→child hops starting from one part name."""
    expr = ref("PartName").where(value_equals("PartName", part_name)) * ref("Part")
    for _ in range(levels):
        expr = Associate(expr, ref("Usage"), AssocSpec("Part", "Usage", "parent"))
        expr = Associate(expr, ref("Part"), AssocSpec("Usage", "Part", "child"))
    return db.query(expr).set


def main() -> None:
    dataset = parts_explosion()
    db = Database.from_dataset(dataset)

    print("=== the bill of materials ===")
    bom = db.query(
        "pi(PartName * Part *[parent(Part, Usage)] Usage * Quantity)"
        "[PartName, Quantity; PartName:Quantity]"
    ).set
    print(render_set(bom, "(parent name, quantity) lines:"))

    print("\n=== ambiguity is rejected, as §3.1 requires ===")
    try:
        db.query("Part * Usage")
    except Exception as exc:
        print(f"Part * Usage →  {exc}")

    print("\n=== one-level explosion of the gearbox ===")
    exploded = explode(db, "gearbox", 1)
    # Join every part's name back in (closure: the evaluated result
    # re-enters a new expression; the join finds ANY Part in the pattern,
    # so both parent and component names arrive).
    from repro.core.expression import Literal

    named_expr = ref("PartName") * Literal(exploded, "exploded", head="Part")
    names = db.query(named_expr).values("PartName")
    print("components:", sorted(names - {"gearbox"}))

    print("\n=== parts used nowhere (NonAssociate over the child role) ===")
    unused = NonAssociate(
        ref("Part"), ref("Usage"), AssocSpec("Part", "Usage", "child")
    )
    named = (ref("PartName") * unused).project(["PartName"])
    print(
        "never a child:",
        sorted(db.query(named).values("PartName")),
        " (the root assembly and the spare)",
    )

    print("\n=== where is the shaft used, and how many each time? ===")
    rows = db.query(
        "pi(Quantity * Usage *[child(Usage, Part)] Part *"
        " PartName)[Quantity, PartName; Quantity:PartName]"
    ).set
    shaft = [
        p
        for p in rows
        if any(db.graph.value(v) == "shaft" for v in p.instances_of("PartName"))
    ]
    print(render_set(type(rows)(shaft)))


if __name__ == "__main__":
    main()
