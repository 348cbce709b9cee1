"""The byte encoder against its readable spec.

``encode_patterns`` is defined by ``pattern_to_wire``: fragment ``i`` of
the encoding parses to element ``i`` of
``sorted(map(pattern_to_wire, patterns), key=(vertices, edges))``.  The
generators aim at what a formatter written by hand gets wrong — class
names that need JSON escaping, OIDs whose string order differs from
their numeric order, vertex lists that are prefixes of one another,
complement edges, and single-vertex patterns with no edge at all.
"""

import json

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.edges import Edge, Polarity
from repro.core.identity import IID
from repro.core.pattern import Pattern
from repro.server.protocol import encode_frame, encode_patterns, pattern_to_wire

CLASSES = ("A", "AB", "B", 'q"uote', "back\\slash", "Ünï✓", "tab\there")
OIDS = (1, 2, 9, 10, 11, 19, 100, 101, 1000)

vertices = st.builds(IID, st.sampled_from(CLASSES), st.sampled_from(OIDS))


@st.composite
def patterns(draw) -> Pattern:
    """A random tree over 1-4 distinct vertices, edge polarity free."""
    chosen = draw(st.lists(vertices, min_size=1, max_size=4, unique=True))
    edges = [
        Edge(
            chosen[draw(st.integers(min_value=0, max_value=index - 1))],
            chosen[index],
            draw(st.sampled_from(Polarity)),
        )
        for index in range(1, len(chosen))
    ]
    return Pattern(chosen, edges)


def spec(pattern_set) -> list:
    return sorted(
        (pattern_to_wire(p) for p in pattern_set),
        key=lambda p: (p["vertices"], p["edges"]),
    )


def body(frame: bytes) -> dict:
    return json.loads(frame[4:].decode("utf-8"))


@settings(max_examples=200, deadline=None)
@given(st.frozensets(patterns(), max_size=12))
def test_pages_decode_to_the_sorted_wire_patterns(pattern_set):
    expected = spec(pattern_set)
    encoded = encode_patterns(pattern_set)
    assert len(encoded) == len(expected)
    assert json.loads(encoded.page()) == expected
    for page_size in (1, 2, 3, 7, len(expected) + 5):
        got = []
        for start in range(0, len(expected), page_size):
            frame = encode_frame(
                {"ok": True, "patterns": encoded.page(start, start + page_size)}
            )
            page = body(frame)["patterns"]
            assert len(page) == min(page_size, len(expected) - start)
            got.extend(page)
        assert got == expected


@settings(max_examples=50, deadline=None)
@given(st.frozensets(patterns(), max_size=6), st.frozensets(patterns(), max_size=6))
def test_frames_splice_any_number_of_encoded_arrays(added, removed):
    plain = {"notify": "view.delta", "version": 3, "view": "v"}
    raw = {
        "added": encode_patterns(added).page(),
        "removed": encode_patterns(removed).page(),
    }
    decoded = {"added": spec(added), "removed": spec(removed)}
    assert body(encode_frame({**plain, **raw})) == {**plain, **decoded}
    assert body(encode_frame(raw)) == decoded  # nothing but spliced members
    assert body(encode_frame(plain)) == plain
