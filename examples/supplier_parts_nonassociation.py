"""Non-association: the §1 suppliers-and-parts motivating example.

The paper's complaint about GEM/POSTQUEL/ARIEL/functional languages: they
can navigate ``Suppliers.Parts`` to get the pairs that ARE associated, but
have no construct for "s1 does not supply p2 and s2 does not supply p1".
The A-algebra has two: A-Complement (all non-associated pairs) and
NonAssociate (mutually non-associated patterns).  This example shows both,
next to the plain Associate navigation.

Run:  python examples/supplier_parts_nonassociation.py
"""

from repro import ref
from repro.datasets import supplier_parts
from repro.engine.database import Database
from repro.viz import render_set


def main() -> None:
    dataset = supplier_parts()
    db = Database.from_dataset(dataset)

    def names(result, cls):
        return sorted(result.values(cls))

    print("=== the world ===")
    pairs = db.query(ref("SName") * ref("Supplier") * ref("Part") * ref("PName")).set
    print(render_set(pairs, "supply relationships:"))

    print("\n=== 'dot' navigation (what GEM/POSTQUEL can do): Associate ===")
    supplies = db.query(ref("Supplier") * ref("Part")).set
    print(render_set(supplies))

    print("\n=== what they cannot say #1: A-Complement ===")
    print("every (supplier, part) pair NOT in the supply relation:")
    non_pairs = db.query(ref("Supplier") | ref("Part")).set
    print(render_set(non_pairs))

    print("\n=== what they cannot say #2: NonAssociate ===")
    print("suppliers and parts with NO supply relationship to the other side:")
    mutual = db.query(ref("Supplier") ^ ref("Part")).set
    print(render_set(mutual))
    print(
        "(p3, the flywheel, has no supplier at all — every supplier supplies\n"
        " something, so only the complement pairs with p3 survive)"
    )

    print("\n=== named version, in OQL ===")
    oql = "pi(PName * (Part ! Supplier))[PName]"
    result = db.query(oql)
    print(f"{oql}\n  parts nobody supplies: {names(result, 'PName')}")

    oql = "pi(SName * (Supplier | Part) * PName)[SName, PName; SName:PName]"
    result = db.query(oql)
    print(f"\n{oql}")
    print(render_set(result.set, "  (supplier-name, part-name) NON-supply pairs:"))


if __name__ == "__main__":
    main()
