"""Parallel associations (A_ij(k)) exercised end to end on the BOM data."""

import pytest

from repro.core.expression import AssocSpec, Associate, ref
from repro.datasets import parts_explosion
from repro.engine.database import Database
from repro.errors import AmbiguousAssociationError


@pytest.fixture(scope="module")
def bom():
    return parts_explosion()


@pytest.fixture(scope="module")
def db(bom):
    return Database.from_dataset(bom)


def test_shorthand_is_ambiguous(db):
    """Part—Usage has two edges; the omission rule must refuse."""
    with pytest.raises(AmbiguousAssociationError):
        db.query(ref("Part") * ref("Usage"))


def test_explicit_annotation_resolves(db):
    parents = db.query(
        Associate(ref("Part"), ref("Usage"), AssocSpec("Part", "Usage", "parent"))
    )
    children = db.query(
        Associate(ref("Part"), ref("Usage"), AssocSpec("Part", "Usage", "child"))
    )
    assert len(parents) == 5 and len(children) == 5
    assert parents != children


def test_oql_annotation(db):
    result = db.query(
        "pi(PartName * Part *[parent(Part, Usage)] Usage * Quantity)"
        "[PartName, Quantity; PartName:Quantity]"
    )
    assert result
    # gearbox is a parent three times (quantities 1, 2, 1) — but Quantity
    # objects are shared primitive instances, so the two quantity-1 rows
    # project to the SAME pattern and collapse: 2 distinct patterns.
    gearbox_rows = [
        p
        for p in result
        if any(db.graph.value(v) == "gearbox" for v in p.instances_of("PartName"))
    ]
    assert len(gearbox_rows) == 2
    quantities = {
        db.graph.value(v)
        for p in gearbox_rows
        for v in p.instances_of("Quantity")
    }
    assert quantities == {1, 2}


def test_one_level_explosion(db):
    """Direct components of the gearbox, by name."""
    from repro.core.predicates import value_equals

    expr = (
        ref("PartName").where(value_equals("PartName", "gearbox"))
        * ref("Part")
    )
    expr = Associate(expr, ref("Usage"), AssocSpec("Part", "Usage", "parent"))
    expr = Associate(expr, ref("Part"), AssocSpec("Usage", "Part", "child"))
    expr = Associate(
        expr, ref("PartName"), AssocSpec("Part", "PartName", None)
    ).project(["PartName"])
    names = db.query(expr).values("PartName")
    assert names == {"gearbox", "housing", "shaft", "gear_train"}


def test_two_level_explosion_reaches_shared_component(db, bom):
    """gearbox → gear_train → gear → shaft: the shaft is reachable both
    directly and through the gear (shared component)."""
    from repro.core.predicates import value_equals

    level = ref("PartName").where(value_equals("PartName", "gearbox")) * ref("Part")
    for _ in range(3):
        level = Associate(level, ref("Usage"), AssocSpec("Part", "Usage", "parent"))
        level = Associate(level, ref("Part"), AssocSpec("Usage", "Part", "child"))
    result = db.query(level)
    # Associate joins through EVERY Part instance in the pattern, so the
    # result fans out; what matters is that some pattern walked
    # gearbox → gear_train → gear → shaft, i.e. contains the gear→shaft
    # usage (the last BOM row).
    gear_shaft_usage = bom.usages[-1]
    assert any(gear_shaft_usage in pattern for pattern in result)


def test_unused_part_via_nonassociate(db):
    """spare_bolt is used in no bill of materials: NonAssociate finds it."""
    from repro.core.expression import NonAssociate

    unused = NonAssociate(
        ref("Part"), ref("Usage"), AssocSpec("Part", "Usage", "child")
    )
    named = (ref("PartName") * unused).project(["PartName"])
    names = db.query(named).values("PartName")
    # gearbox is also never a *child* (it is the root assembly).
    assert names == {"spare_bolt", "gearbox"}


def test_projection_keeps_quantity_links(db):
    result = db.query(
        "pi(Quantity * Usage *[child(Usage, Part)] Part * PartName)"
        "[Quantity, PartName; Quantity:PartName]"
    )
    shaft_rows = [
        p
        for p in result
        if any(db.graph.value(v) == "shaft" for v in p.instances_of("PartName"))
    ]
    quantities = {
        db.graph.value(v)
        for p in shaft_rows
        for v in p.instances_of("Quantity")
    }
    assert quantities == {2, 1}  # 2 in the gearbox, 1 in the gear
