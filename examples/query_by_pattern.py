"""Query by pattern: drawing Figure 3 as a template and running it.

§2's user model is visual: draw a class-level pattern, label the edges
with operators, mark AND/OR at the branch points, and let the system
translate the drawing into the algebra.  This example builds Figure 3 as
a :class:`PatternTemplate`, shows the compiled A-algebra expression, runs
it, and cross-checks the result with the direct subgraph matcher.

Run:  python examples/query_by_pattern.py
"""

from repro.core.predicates import value_equals
from repro.core.template import PatternTemplate, match
from repro.datasets import university
from repro.engine.database import Database
from repro.viz import render_set


def figure3_template() -> PatternTemplate:
    """Figure 3, as data::

        Name[CIS]—Department—Course—Section⟨OR⟩
            ├─*─ Teacher—Faculty—Specialty
            └─*─ Student⟨AND⟩
                   ├─*─ GPA
                   └─*─ EarnedCredit
    """
    section = PatternTemplate.node("Section", branch="or")
    section.link(PatternTemplate.node("Teacher").chain("Faculty", "Specialty"))
    student = PatternTemplate.node("Student")  # default branch: AND
    student.link("GPA").link("EarnedCredit")
    section.link(student)

    root = PatternTemplate.node("Name", value_equals("Name", "CIS"))
    department = PatternTemplate.node("Department")
    course = PatternTemplate.node("Course")
    course.link(section)
    department.link(course)
    root.link(department)
    return root


def main() -> None:
    dataset = university()
    db = Database.from_dataset(dataset)
    template = figure3_template()

    print("=== the template, compiled to the A-algebra ===")
    expr = template.compile(db.schema)
    print(expr)

    print("\n=== evaluated ===")
    result = db.query(expr)
    print(render_set(result.set))
    print("specialties:", sorted(result.values("Specialty")))
    print("GPAs:       ", sorted(result.values("GPA")))

    print("\n=== cross-checked against the direct subgraph matcher ===")
    matched = match(template, db.graph)
    print("algebra == matcher:", result == matched)

    print("\n=== a non-association template (A-Complement edges) ===")
    # "|" pairs each section with every room it does NOT use — the raw
    # complement-edge view.  (The stronger "sections with no room at all"
    # is NonAssociate, a whole-operand operator — see Query 4 in
    # examples/university_tour.py.)
    not_using = PatternTemplate.node("Section").link("Room#", mode="|")
    print("compiled:", not_using.compile(db.schema))
    found = match(not_using, db.graph)
    print(f"{len(found)} (section, unused-room) pairs; e.g.:")
    print("\n".join(render_set(found).splitlines()[:4]))


if __name__ == "__main__":
    main()
