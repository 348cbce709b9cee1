"""Workload definitions, the seeded request schedule, the mutation script
and the reference oracle.

Everything the served program sees is generated here.  The *store* is the
same for every ``--seed`` (``DATA_SEED``): on this generator answer sizes
move 4-26 % from one dataset seed to the next, which would swamp a 10 %
regression bound.  The seed decides the request order, which edges the
mutation script links and unlinks, which instances it updates and the
values it writes.
"""

from __future__ import annotations

import json
import random
from collections import deque
from dataclasses import dataclass
from typing import Any

from repro.datagen import valued_chain_dataset
from repro.objects.graph import ObjectGraph
from repro.oql import compile_oql
from repro.core.identity import IID
from repro.server.protocol import pattern_to_wire

__all__ = [
    "DATASET",
    "DATA_SEED",
    "VIEWS",
    "WORKLOADS",
    "MutationScript",
    "Workload",
    "apply_action",
    "block_plan",
    "build_dataset",
    "oracle",
    "wire_patterns",
]

DATA_SEED = 11
DATASET = {"n_classes": 4, "extent_size": 300, "density": 0.02}
HOT, RARE = 0, 999_983

#: (name, OQL).  ``v_join`` is maintained by a sound delta rule on V0-V1
#: link/unlink; ``v_rescan`` has a complement at its root, so every event
#: on V0 or V1 rescans it.  Every workload registers both and subscribes
#: to the first, so set-up is identical across workloads.
VIEWS = (
    ("v_join", "V0 * V1"),
    ("v_rescan", f"sigma(V0)[V0 = {RARE}] | V1"),
)

# Odd counts on purpose: request latency is a mixture of one cluster per
# distinct query, and with an odd number of equally weighted clusters the
# median falls inside the middle one instead of on the gap between two.
POINT_READS = (
    f"sigma(V0)[V0 = {RARE}]",
    f"sigma(V1)[V1 = {RARE}]",
    "sigma(V2)[V2 >= 5 and V2 <= 9]",
    "sigma(V3)[V3 = 3 or V3 = 7 or V3 = 11]",
    "sigma(V1)[V1 > 25]",
    f"sigma(V0)[V0 = {RARE}] * V1",
    f"sigma(V1)[V1 = {RARE}] * V2",
    f"sigma(V3)[V3 = {RARE}] * V2",
    f"sigma(V0)[V0 = {RARE}] ! V1",
    f"sigma(V2)[V2 = {RARE}] ! V3",
    f"sigma(V0)[V0 = {RARE}] * V1 &{{V1}} sigma(V2)[V2 = {RARE}] * V1",
    f"sigma(V1)[V1 = {RARE}] * V2 &{{V2}} sigma(V3)[V3 = {RARE}] * V2",
    f"(V0*V1) / (sigma(V0)[V0 = {RARE}] * V1)",
    f"sigma(V0)[V0 = {RARE}] * V1 * sigma(V2)[V2 = {HOT}]",
    f"pi(sigma(V0)[V0 = {RARE}] * V1)[V1]",
)

SCAN_READS = (
    "pi(V0*V1*V2)[V0]",
    "pi(V1*V2*V3)[V3]",
    f"sigma(V0*V1*V2)[V2 = {RARE}]",
    f"sigma(V1*V2*V3)[V1 = {RARE}]",
    f"sigma(V0)[V0 = {HOT}]*V1*V2 - sigma(V0)[V0 = {HOT}]*V1*sigma(V2)[V2 < {RARE}]",
    f"(V1*V2*V3) / (sigma(V3)[V3 = {RARE}] * V2)",
    f"(sigma(V0)[V0 = {RARE}] | V1) - (sigma(V0)[V0 = {RARE}] | sigma(V1)[V1 < {RARE}])",
)

WIDE_READS = (
    "V0*V1",
    "V1*V2",
    "V2*V3",
    f"sigma(V0)[V0 = {RARE}] | V1",
    f"sigma(V3)[V3 = {RARE}] | V2",
    "sigma(V0)[V0 >= 15] * V1 * V2",
    "V0*V1 &{V1} V1*V2",
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    reads: tuple[str, ...]
    use_cache: bool
    #: reads between two mutations in a block; 0 = read-only workload
    reads_per_write: int
    #: whole blocks the traced wire pass replays per second of ``--seconds``
    #: (a fixed count for a given run length, so its counters repeat)
    trace_blocks_per_s: float


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "point_warm",
            "cached tiny answers: time is the per-request fixed cost "
            "(frame, dispatch, parse, plan lookup); kernels and codec idle",
            POINT_READS,
            True,
            0,
            15,
        ),
        Workload(
            "scan_cold",
            "cache bypassed, small answers: every plan node runs, so time is "
            "kernels and object-strategy fallbacks; the wire shows nothing",
            SCAN_READS,
            False,
            0,
            1,
        ),
        Workload(
            "wide_warm",
            "cached answers of 1.7k-11k patterns: time is wire encode, sort, "
            "JSON, paging round trips and client decode; kernels idle",
            WIDE_READS,
            True,
            0,
            0.5,
        ),
        Workload(
            "mixed_rw",
            "point reads 2:1 with durable mutations under two views: "
            "invalidation, WAL fsync, checkpoints and view maintenance",
            POINT_READS,
            True,
            2,
            10.5,
        ),
    )
}


def build_dataset():
    """The one dataset every run serves (see module docstring)."""
    return valued_chain_dataset(seed=DATA_SEED, **DATASET)


def block_plan(workload: Workload, seed: int) -> list[int | None]:
    """One block of the schedule: indices into ``workload.reads`` in seeded
    order, ``None`` marking a mutation slot.

    The run repeats this block, and only whole blocks are measured, so the
    request mix is identical however fast the server is.
    """
    rng = random.Random(f"{workload.name}:{seed}")
    order = list(range(len(workload.reads)))
    rng.shuffle(order)
    if not workload.reads_per_write:
        return order
    plan: list[int | None] = []
    for position, index in enumerate(order * workload.reads_per_write):
        plan.append(index)
        if (position + 1) % workload.reads_per_write == 0:
            plan.append(None)
    return plan


# ----------------------------------------------------------------------
# mutations
# ----------------------------------------------------------------------


class MutationScript:
    """Seeded stream of single-action durable mutations.

    Eight kinds rotate — unlink/link on V0-V1 and on V1-V2, value updates
    of V0, and insert_value/delete on V3 — paired so the store keeps its
    size while its content drifts.  Updates only move tail-valued
    instances between tail values, so the rare- and hot-value selections
    the reads rely on keep their size (their cache entries are still
    invalidated: invalidation is by class).
    """

    def __init__(self, dataset, seed: int) -> None:
        graph, schema = dataset.graph, dataset.schema
        self.rng = random.Random(f"mutations:{seed}")
        self.edges: dict[tuple[str, str], list[tuple[int, int]]] = {}
        for left, right in (("V0", "V1"), ("V1", "V2")):
            assoc = schema.resolve(left, right, None)
            pairs = sorted(
                (a.oid, b.oid) if a.cls == left else (b.oid, a.oid)
                for a, b in graph.edges(assoc)
            )
            self.edges[left, right] = pairs
        self.edge_sets = {key: set(pairs) for key, pairs in self.edges.items()}
        self.oids = {
            cls: sorted(i.oid for i in graph.extent(cls)) for cls in ("V0", "V1", "V2")
        }
        values = {graph.value(i) for i in graph.extent("V0")} - {HOT, RARE}
        self.tail_values = sorted(values)
        self.tail_v0 = sorted(
            i.oid for i in graph.extent("V0") if graph.value(i) in values
        )
        self.inserted: deque[int] = deque()
        self.step = 0

    def created(self, oid: int) -> None:
        """Feedback: the OID the server assigned to the last insert."""
        self.inserted.append(oid)

    def next(self) -> dict[str, Any]:
        kind = self.step % 8
        self.step += 1
        if kind in (0, 1):
            return self._unlink(("V0", "V1") if kind == 0 else ("V1", "V2"))
        if kind in (4, 5):
            return self._link(("V0", "V1") if kind == 4 else ("V1", "V2"))
        if kind in (2, 6):
            return {
                "action": "update",
                "instance": ["V0", self.rng.choice(self.tail_v0)],
                "value": self.rng.choice(self.tail_values),
            }
        if kind == 3:
            return {
                "action": "insert_value",
                "cls": "V3",
                "value": self.rng.choice(self.tail_values),
            }
        return {"action": "delete", "instance": ["V3", self.inserted.popleft()]}

    def _unlink(self, key: tuple[str, str]) -> dict[str, Any]:
        pairs = self.edges[key]
        slot = self.rng.randrange(len(pairs))
        pairs[slot], pairs[-1] = pairs[-1], pairs[slot]
        a, b = pairs.pop()
        self.edge_sets[key].discard((a, b))
        return {"action": "unlink", "a": [key[0], a], "b": [key[1], b]}

    def _link(self, key: tuple[str, str]) -> dict[str, Any]:
        while True:
            pair = (
                self.rng.choice(self.oids[key[0]]),
                self.rng.choice(self.oids[key[1]]),
            )
            if pair not in self.edge_sets[key]:
                break
        self.edges[key].append(pair)
        self.edge_sets[key].add(pair)
        return {"action": "link", "a": [key[0], pair[0]], "b": [key[1], pair[1]]}


def apply_action(graph: ObjectGraph, action: dict[str, Any]) -> int | None:
    """Apply one wire mutation to the shadow graph, straight through the
    object-graph API (no engine, no views): the expected state is then
    independent of every layer the server ran the mutation through.
    Returns the OID an insert allocated."""
    kind = action["action"]
    if kind in ("link", "unlink"):
        a, b = IID(*action["a"]), IID(*action["b"])
        assoc = graph.schema.resolve(a.cls, b.cls, None)
        (graph.add_edge if kind == "link" else graph.remove_edge)(assoc, a, b)
    elif kind == "update":
        graph.set_value(IID(*action["instance"]), action["value"])
    elif kind == "insert_value":
        return graph.add_instance(action["cls"], None, action["value"]).oid
    elif kind == "delete":
        graph.remove_instance(IID(*action["instance"]))
    else:
        raise ValueError(f"unknown action {kind!r}")
    return None


# ----------------------------------------------------------------------
# oracle
# ----------------------------------------------------------------------


def wire_patterns(patterns) -> list[dict[str, Any]]:
    """A pattern set as ``QueryService._execute_query`` puts it on the wire:
    ``pattern_to_wire`` each, then the service's canonical order."""
    return sorted(
        (pattern_to_wire(p) for p in patterns),
        key=lambda p: (p["vertices"], p["edges"]),
    )


def oracle(graph: ObjectGraph, text: str) -> list[dict[str, Any]]:
    """The answer the wire must carry: the reference evaluator's result
    (``Expr.evaluate``, the paper-mapped operators in ``core``), normalised
    through JSON like a response."""
    result = compile_oql(text, graph.schema).evaluate(graph)
    return json.loads(json.dumps(wire_patterns(result)))
