"""Tabular result rendering."""

import pytest

from repro.engine.database import Database
from repro.viz import render_table, result_rows


@pytest.fixture(scope="module")
def db(uni):
    return Database.from_dataset(uni)


def test_rows_simple_query(db):
    result = db.query("pi(Name * Person * Student * GPA)[Name, GPA; Name:GPA]").set
    rows = result_rows(result, db.graph, ["Name", "GPA"])
    assert ("Carol", "3.5") in rows
    assert len(rows) == 6


def test_missing_class_yields_none(db):
    result = db.query("Section ! Room# + Section ! Teacher").set
    rows = result_rows(result, db.graph, ["Section", "Room#"])
    # The retained standalone sections have no Room# cell.
    assert any(row[1] is None for row in rows)


def test_multiple_instances_join(db):
    result = db.query("Student * Section").set
    # A pattern holds one student and one section; project nothing — each
    # row has single-instance cells.
    rows = result_rows(result, db.graph, ["Student"])
    assert all(row[0] is not None for row in rows)


def test_nonprimitive_cells_use_labels(db):
    result = db.query("TA * Grad").set
    rows = result_rows(result, db.graph, ["TA"])
    assert all(cell.startswith("TA#") for (cell,) in rows)


def test_render_table_layout(db):
    result = db.query("pi(Name * Person * Student * GPA)[Name, GPA; Name:GPA]").set
    text = render_table(result, db.graph, ["Name", "GPA"])
    lines = text.splitlines()
    assert lines[0].split() == ["Name", "GPA"]
    assert set(lines[1]) <= {"-", " "}
    assert len(lines) == 2 + 6


def test_render_table_empty_result(db):
    result = db.query("sigma(Name)[Name = 'Nobody']").set
    text = render_table(result, db.graph, ["Name"])
    assert "(no patterns)" in text


def test_cli_table_command(db):
    import io

    from repro.cli import run_shell

    out = io.StringIO()
    run_shell(
        db,
        stdin=io.StringIO(
            "\\table Name,GPA pi(Name * Person * Student * GPA)[Name, GPA]\n"
        ),
        stdout=out,
        show_prompt=False,
    )
    assert "Carol" in out.getvalue()
    # Usage message path:
    out2 = io.StringIO()
    run_shell(db, stdin=io.StringIO("\\table oops\n"), stdout=out2, show_prompt=False)
    assert "usage" in out2.getvalue()
