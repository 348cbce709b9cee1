"""Every shipped dataset survives a persistence round-trip."""

import pytest

from repro.datasets import figure7, parts_explosion, supplier_parts, university
from repro.engine.database import Database


@pytest.mark.parametrize(
    "factory", [figure7, university, supplier_parts, parts_explosion]
)
def test_round_trip(tmp_path, factory):
    dataset = factory()
    db = Database.from_dataset(dataset)
    path = tmp_path / "snapshot.json"
    db.save(path)
    restored = Database.open(path)
    assert set(restored.graph.instances()) == set(db.graph.instances())
    for assoc in db.schema.associations:
        matching = restored.schema.association(assoc.key)
        assert set(restored.graph.edges(matching)) == set(db.graph.edges(assoc))
    restored.graph.validate()


def test_figure8a_reproduces_after_round_trip(tmp_path):
    """The figure regression still holds on a reloaded database."""
    from repro.core.assoc_set import AssociationSet
    from repro.core.edges import inter
    from repro.core.operators import associate
    from repro.core.pattern import Pattern

    f = figure7()
    db = Database.from_dataset(f)
    path = tmp_path / "fig7.json"
    db.save(path)
    restored = Database.open(path)

    P = Pattern.build
    alpha = AssociationSet([P(inter(f.a1, f.b1)), P(f.a2), P(inter(f.a3, f.b2))])
    beta = AssociationSet(
        [P(inter(f.c1, f.d1)), P(inter(f.c2, f.d2)), P(f.c3), P(inter(f.c4, f.d3))]
    )
    bc = restored.schema.resolve("B", "C")
    result = associate(alpha, beta, restored.graph, bc)
    assert len(result) == 2


def test_queries_after_university_round_trip(tmp_path):
    db = Database.from_dataset(university())
    path = tmp_path / "uni.json"
    db.save(path)
    restored = Database.open(path)
    for query, cls, expected in (
        ("pi(TA * Grad * Student * Person * SS#)[SS#]", "SS#", {333, 444}),
        (
            "pi(Section# * (Section ! Room# + Section ! Teacher))[Section#]",
            "Section#",
            {102, 201},
        ),
    ):
        result = restored.query(query)
        assert result.values(cls) == expected
