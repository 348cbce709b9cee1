"""Random workload generation: validity, determinism, fuzzing."""

import random

import pytest

from repro.core.validation import validate_expression
from repro.datagen import chain_dataset
from repro.datagen.workloads import random_walk_query, workload
from repro.datasets import university
from repro.engine.database import Database


def test_deterministic_by_seed(uni):
    one = workload(uni.schema, n_queries=20, seed=5)
    two = workload(uni.schema, n_queries=20, seed=5)
    assert [str(q) for q in one] == [str(q) for q in two]
    other = workload(uni.schema, n_queries=20, seed=6)
    assert [str(q) for q in one] != [str(q) for q in other]


def test_every_query_statically_valid(uni):
    for query in workload(uni.schema, n_queries=40, seed=1):
        assert validate_expression(query, uni.schema) == []


def test_every_query_evaluates_on_university():
    db = Database.from_dataset(university())
    for query in workload(db.schema, n_queries=40, seed=2):
        result = db.query(query)
        assert result is not None  # no exceptions, closed result


def test_every_query_evaluates_on_synthetic_chain():
    ds = chain_dataset(n_classes=4, extent_size=10, density=0.2, seed=3)
    for query in workload(ds.schema, n_queries=40, seed=4):
        ds_result = query.evaluate(ds.graph)
        assert ds_result is not None


def test_shapes_are_diverse(uni):
    queries = [str(q) for q in workload(uni.schema, n_queries=60, seed=7)]
    assert any("Π(" in q for q in queries)
    assert any(" + " in q for q in queries)
    assert any(" ![" in q for q in queries)  # annotated NonAssociate hops


def test_single_query_api(uni):
    rng = random.Random(0)
    query = random_walk_query(uni.schema, rng)
    assert validate_expression(query, uni.schema) == []
