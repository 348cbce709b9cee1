"""Full-stack integration: DDL → population → template → OQL text →
optimizer → independent A-Union branches → rules → persistence → tables.

One scenario flowing through every subsystem, the way a downstream user
would compose them.
"""

import pytest

from repro.core.operators import a_union
from repro.core.predicates import value_equals
from repro.core.template import PatternTemplate, match
from repro.engine.database import Database
from repro.oql import to_oql
from repro.optimizer import Optimizer
from repro.rules import Rule, RuleEngine
from repro.schema import parse_ddl
from repro.viz import render_table

LIBRARY_DDL = """
schema library

entity Reader, Book, Loan
domain RName, Title, Genre

assoc Reader -- RName
assoc Book -- Title
assoc Book -- Genre
assoc Reader -- Loan
assoc Loan -- Book
"""


@pytest.fixture()
def db():
    schema = parse_ddl(LIBRARY_DDL)
    db = Database(schema)

    readers = {}
    for name in ("Ada", "Bo", "Cy"):
        reader = db.insert("Reader")["Reader"]
        db.link(reader, db.insert_value("RName", name))
        readers[name] = reader
    books = {}
    for title, genre in (
        ("Dune", "scifi"),
        ("Hamlet", "drama"),
        ("Foundation", "scifi"),
    ):
        book = db.insert("Book")["Book"]
        db.link(book, db.insert_value("Title", title))
        db.builder.attach(book, "Genre", genre)
        books[title] = book

    def lend(reader_name, title):
        loan = db.insert("Loan")["Loan"]
        db.link(readers[reader_name], loan)
        db.link(loan, books[title])

    lend("Ada", "Dune")
    lend("Ada", "Foundation")
    lend("Bo", "Hamlet")
    # Cy borrows nothing.
    return db


def test_template_through_everything(db, tmp_path):
    # 1. A query-by-pattern template: readers of scifi books, with names.
    template = PatternTemplate.node("RName")
    reader = PatternTemplate.node("Reader")
    loan = PatternTemplate.node("Loan")
    book = PatternTemplate.node("Book")
    book.link(PatternTemplate.node("Genre", value_equals("Genre", "scifi")))
    loan.link(book)
    reader.link(loan)
    template.link(reader)

    expr = template.compile(db.schema)

    # 2. The compiled expression serializes to OQL and back.
    text = to_oql(expr)
    assert db.compile(text) == expr

    # 3. The optimizer may rewrite it; semantics preserved.
    best = Optimizer(db.graph, max_candidates=40).optimize(expr)
    answer = db.query(expr)
    reference = answer.set
    assert db.query(best.expr).set == reference

    # 4. The matcher oracle agrees.
    assert match(template, db.graph) == reference

    # 5. Only Ada reads scifi.
    assert answer.values("RName") == {"Ada"}

    # 6. Tabulate.
    table = render_table(reference, db.graph, ["RName", "Genre"])
    assert "Ada" in table and "scifi" in table

    # 7. Persist, reload, re-run via OQL text.
    path = tmp_path / "library.json"
    db.save(path)
    restored = Database.open(path)
    assert restored.query(text).values("RName") == {"Ada"}


def test_rules_and_parallel_over_the_same_db(db):
    from repro.core.expression import ref

    # A rule: flag readers with no loans on every unlink.
    idle_readers = ref("Reader") ^ ref("Loan")
    log = []
    engine = RuleEngine(db)
    engine.register(
        Rule.make(
            "idle-readers",
            idle_readers,
            lambda d, e, result: log.append(len(result)),
            on=["unlink"],
        )
    )
    # Cy is idle from the start.
    assert engine.violations() == {"idle-readers": 1}

    # §4: an A-Union's branches evaluate independently — lumping the
    # separately computed branch results together gives the whole.
    union = (ref("RName") * ref("Reader")) + (ref("Title") * ref("Book"))
    branches = a_union(db.query(union.left).set, db.query(union.right).set)
    assert branches == db.query(union).set == union.evaluate(db.graph)

    # Unlink a loan: Bo becomes idle too; the rule sees both.
    loans = db.schema.resolve("Reader", "Loan")
    (bo,) = db.query(
        ref("RName").where(value_equals("RName", "Bo")) * ref("Reader")
    ).instances("Reader")
    loan = min(db.graph.partners(loans, bo))
    db.unlink(bo, loan)
    assert log and log[-1] >= 1


def test_bulk_cleanup_with_snapshot(db):
    from repro.core.expression import ref

    before = db.snapshot()
    removed = db.delete_where(ref("Reader") ^ ref("Loan"), "Reader")
    assert removed == 1  # Cy
    assert len(db.extent("Reader")) == 2
    db.restore(before)
    assert len(db.extent("Reader")) == 3
