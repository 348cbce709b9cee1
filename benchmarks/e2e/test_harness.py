"""Self-test of the benchmark harness: the rules its numbers rest on.

Outside ``testpaths``, so tier-1 does not run it::

    PYTHONPATH=src python -m pytest benchmarks/e2e
"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parents[1] / "src")]

import loadgen  # noqa: E402
from measure import (  # noqa: E402
    MIN_BEYOND,
    Tracer,
    counter_delta,
    median_rate,
    parse_prometheus,
    percentile,
    self_times,
    split_segments,
    spread,
    tail_of_segments,
)


def test_percentile_counts_the_samples_beyond_it():
    value, beyond = percentile(list(range(1, 201)), 95)
    assert (value, beyond) == (190, MIN_BEYOND)  # 200 samples: p95 is supported
    value, beyond = percentile(list(range(1, 101)), 95)
    assert value == 95 and beyond == 5 < MIN_BEYOND  # 100 samples: it is not
    assert percentile([7.0], 50) == (7.0, 0)
    with pytest.raises(ValueError):
        percentile([], 95)


def test_throughput_is_the_median_segment_not_the_mean():
    # four segments at 100/s and one that stalled for 9 extra seconds
    segments = [(100, 1.0)] * 4 + [(100, 10.0)]
    assert median_rate(segments) == 100.0
    assert sum(n for n, _ in segments) / sum(s for _, s in segments) < 40
    assert [len(r) for r in split_segments(12, 5)] == [2, 3, 2, 3, 2]
    assert [len(r) for r in split_segments(3, 5)] == [1, 1, 1]


def test_self_time_is_duration_minus_child_cover():
    tracer = Tracer()
    root = tracer.add("request", 0.0, 10.0, None, 1)
    a = tracer.add("a", 1.0, 4.0, root, 1)
    tracer.add("b", 3.0, 6.0, root, 1)  # overlaps a: the union is 1..6
    tracer.add("late", 9.0, 12.0, root, 1)  # sticks out: only 9..10 counts
    tracer.add("a.child", 1.5, 2.0, a, 1)
    own = self_times(tracer.spans)
    assert own[root.id] == pytest.approx((10.0 - 5.0 - 1.0) * 1e3)
    assert own[a.id] == pytest.approx(2.5e3)
    assert sum(own.values()) == pytest.approx((4.0 + 2.5 + 3.0 + 3.0 + 0.5) * 1e3)


METRICS_BEFORE = """\
# HELP repro_plan_cache_hits_total hits
# TYPE repro_plan_cache_hits_total counter
repro_plan_cache_hits_total 10
repro_checkpoint_total{engine="file",reason="view-ddl"} 2
repro_wal_fsync_seconds_bucket{le="0.001"} 5
repro_wal_fsync_seconds_sum 0.5
repro_wal_fsync_seconds_count 5
"""
METRICS_AFTER = """\
repro_plan_cache_hits_total 25
repro_checkpoint_total{engine="file",reason="view-ddl"} 2
repro_checkpoint_total{engine="file",reason="auto"} 3
repro_wal_fsync_seconds_bucket{le="0.001"} 9
repro_wal_fsync_seconds_sum 0.75
repro_wal_fsync_seconds_count 9
"""


def test_counter_deltas_from_metrics_text():
    before, after = parse_prometheus(METRICS_BEFORE), parse_prometheus(METRICS_AFTER)
    assert before["repro_plan_cache_hits_total"] == 10
    assert counter_delta(before, after, "repro_plan_cache_hits_total") == 15
    # a label set that first appears after the first dump counts from zero
    assert counter_delta(before, after, "repro_checkpoint_total") == 3
    assert counter_delta(before, after, "repro_checkpoint_total", reason="view-ddl") == 0
    # exact name match: the histogram's _sum/_count/_bucket are separate series
    assert counter_delta(before, after, "repro_wal_fsync_seconds_count") == 4
    assert counter_delta(before, after, "repro_wal_fsync_seconds_sum") == pytest.approx(0.25)
    assert counter_delta(before, after, "repro_wal_fsync_seconds") == 0


def test_spread_is_the_interquartile_share_of_the_median():
    assert spread([10.0] * 10) == 0.0
    values = [float(v) for v in range(95, 105)]
    assert spread(values) == pytest.approx(5.5 / 99.5)


@pytest.mark.parametrize("name", sorted(loadgen.WORKLOADS))
def test_schedule_is_a_function_of_the_seed(name):
    workload = loadgen.WORKLOADS[name]
    plan = loadgen.block_plan(workload, 7)
    assert plan == loadgen.block_plan(workload, 7)
    assert plan != loadgen.block_plan(workload, 8)
    reads = [slot for slot in plan if slot is not None]
    # every distinct read equally often, so the mix does not depend on the seed
    assert sorted(set(reads)) == list(range(len(workload.reads)))
    assert len(reads) % len(workload.reads) == 0
    writes = plan.count(None)
    assert writes == (len(reads) // workload.reads_per_write if workload.reads_per_write else 0)
    assert len(workload.reads) % 2 == 1  # the median lands inside a cluster


def test_mutation_script_is_a_function_of_the_seed_and_applies_cleanly():
    def actions(seed, n=64):
        dataset = loadgen.build_dataset()
        script = loadgen.MutationScript(dataset, seed)
        out = []
        for _ in range(n):
            action = script.next()
            created = loadgen.apply_action(dataset.graph, action)  # raises if invalid
            if created is not None:
                script.created(created)
            out.append(action)
        return dataset, out

    first, a = actions(3)
    _, b = actions(3)
    _, c = actions(4)
    assert a == b and a != c
    assert {x["action"] for x in a} == {"link", "unlink", "update", "insert_value", "delete"}
    # paired: after whole rounds of eight the store is its original size
    fresh = loadgen.build_dataset().graph
    assert first.graph.statistics() == fresh.statistics()
    # and the selections the reads rely on kept their size
    rare = f"sigma(V0)[V0 = {loadgen.RARE}]"
    assert len(loadgen.oracle(first.graph, rare)) == len(loadgen.oracle(fresh, rare))


def test_tail_of_segments_ignores_a_disturbed_minority():
    clean = [1.0] * 19 + [5.0]  # p95 of each clean part is 1.0, its max 5.0
    disturbed = [50.0] * 20
    samples = clean * 3 + disturbed * 2
    assert percentile(samples, 95)[0] == 50.0
    assert tail_of_segments(samples, 95, 5) == 1.0
