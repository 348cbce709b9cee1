#!/usr/bin/env python3
"""Served-query benchmark: one command builds the data, starts
``repro serve``, runs the workloads, checks every answer and prints every
metric by name with its unit.  See README.md beside this file.

Driver form (one workload, one mode; last stdout line is the result)::

    python3 benchmarks/e2e/run.py --workload point_warm --seed 1 --seconds 20 --trace 0

Everything (four workloads, timed run then traced run each)::

    python3 benchmarks/e2e/run.py --seed 1 [--json OUT] [--repeat N --check] [--quick]
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(ROOT / "src")]

try:
    import layers  # noqa: E402
    import loadgen  # noqa: E402
    import sut as sut_module  # noqa: E402
except ModuleNotFoundError as exc:  # a checkout without src/ has nothing to measure
    sys.exit(f"run.py: cannot import the program under test: {exc}")
from measure import (  # noqa: E402
    MIN_BEYOND,
    Tracer,
    median_rate,
    parse_prometheus,
    percentile,
    split_segments,
    spread,
    tail_of_segments,
)

SEGMENTS = 5
PINGS = 200


@dataclass
class Outcome:
    """One run of one workload in one mode."""

    workload: str
    mode: str  # "timed" | "traced"
    metrics: dict[str, layers.Metric] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    info: dict = field(default_factory=dict)

    def result_line(self) -> str:
        """The contract's last line of standard output."""
        return json.dumps(
            {
                "correct": self.failed == 0,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in self.metrics.items()
                },
            }
        )


@dataclass
class Scale:
    """Run lengths; ``--quick`` shrinks all of them together."""

    seconds: float
    reps: int = 5  # complete set-ups per timed run; setup_s is their median
    wal_tail: int = 256  # WAL records at the kill: a quarter checkpoint interval
    budget_s: float = 0.3  # per in-process layer measurement


def run_workload(
    workload: loadgen.Workload, seed: int, scale: Scale, traced: bool,
    workdir: Path, trace_out: Path,
) -> Outcome:  # fmt: skip
    out = Outcome(workload.name, "traced" if traced else "timed")
    reps = 1 if traced else scale.reps
    setup_s = []
    sut = None
    for _ in range(reps):
        if sut is not None:
            sut.tear_down()
        sut, seconds = sut_module.set_up(workload, seed, workdir)
        setup_s.append(seconds)
    try:
        sut.compute_expected()
        # The reference answers are some 10^5 objects this process keeps for
        # the whole run; keep the collector from walking them inside latencies.
        gc.collect()
        gc.freeze()
        if traced:
            _traced(sut, seed, scale, workdir, trace_out, out)
        else:
            _timed(sut, scale, setup_s, out)
    finally:
        sut.tear_down()
        gc.unfreeze()
    out.attempted, out.failed = sut.attempted, sut.failed
    out.info.update(
        storage=sut.storage,
        reads=len(sut.read_ms),
        writes=len(sut.write_ms),
        answer_patterns=[len(e) for e in sut.expected],
    )
    return out


def _cpu_ticks() -> tuple[int, int]:
    """(all, stolen) jiffies of this machine so far, from ``/proc/stat``."""
    fields = [int(x) for x in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]
    return sum(fields), fields[7]


def _timed(sut, scale: Scale, setup_s: list[float], out: Outcome) -> None:
    ticks = _cpu_ticks()
    blocks = sut.replay(seconds=scale.seconds)
    ticked = _cpu_ticks()
    timed_writes = len(sut.write_ms)
    sut.settle_wal(scale.wal_tail)
    rss = sut.server.rss_mb()
    sut.verify("end of run")
    recover_s = sut.recover()
    # every acknowledged mutation and both views, after kill -9
    sut.verify("after recovery")
    segments = [
        (sum(blocks[i][0] for i in part), sum(blocks[i][1] for i in part))
        for part in split_segments(len(blocks), SEGMENTS)
    ]
    # write latency under load where the schedule has writes, else bare
    reads, writes = sut.read_ms, sut.write_ms[:timed_writes] or sut.write_ms
    beyond = percentile(reads, 95)[1]
    w_beyond = percentile(writes, 95)[1]
    out.metrics = {
        "setup_s": (statistics.median(setup_s), "s", len(setup_s)),
        "throughput_rps": (median_rate(segments), "1/s", len(segments)),
        "req_p50_ms": (statistics.median(reads), "ms", len(reads)),
        "req_p95_ms": (tail_of_segments(reads, 95, SEGMENTS), "ms", len(reads)),
        "write_p50_ms": (statistics.median(writes), "ms", len(writes)),
        "write_p95_ms": (tail_of_segments(writes, 95, SEGMENTS), "ms", len(writes)),
        "server_rss_mb": (rss, "MB", 1),
    }
    out.info.update(
        blocks=len(blocks),
        beyond_p95=beyond,
        beyond_write_p95=w_beyond,
        recover_s=round(recover_s, 3),
        # share of the timed run the hypervisor gave this VM's CPUs to
        # someone else: a run with a large value measured the neighbours
        host_steal_pct=round(100.0 * (ticked[1] - ticks[1]) / max(1, ticked[0] - ticks[0]), 1),
    )


def _traced(sut, seed: int, scale: Scale, workdir: Path, trace_out: Path, out: Outcome) -> None:
    workload = sut.workload
    blocks = max(1, round(workload.trace_blocks_per_s * scale.seconds))
    client = sut.client
    ping_ms = []
    for _ in range(PINGS):
        started = time.perf_counter()
        client.ping()
        ping_ms.append((time.perf_counter() - started) * 1e3)
    # Same requests with the harness's recording off, then on: the
    # difference is what the recording itself costs.
    sut.replay(blocks=max(1, blocks // 4))
    plain_p50 = statistics.median(sut.read_ms)
    reads0, writes0, frames0 = len(sut.read_ms), len(sut.write_ms), sut.notifications
    tracer = Tracer()
    before = parse_prometheus(client.metrics())
    sut.replay(blocks=blocks, tracer=tracer)
    sut.settle_wal(scale.wal_tail, tracer)
    after = parse_prometheus(client.metrics())
    out.metrics = layers.wire_metrics(
        tracer, before, after,
        strategies=sut.strategies[reads0:],
        write_ms=sut.write_ms[writes0:],
        notifications=sut.notifications - frames0,
        ping_ms=ping_ms,
    )  # fmt: skip
    traced_p50 = statistics.median(sut.read_ms[reads0:])
    sut.verify("end of traced run")
    out.metrics["storage.recover_s"] = (sut.recover(), "s", 1)
    sut.verify("after recovery")
    sut.tear_down()
    out.metrics.update(
        layers.in_process_pass(
            workload, seed, workdir, sut.server.store, tracer, scale.budget_s
        )
    )
    out.metrics["bench.trace_overhead_pct"] = (
        (traced_p50 - plain_p50) / plain_p50 * 100.0, "%", len(sut.read_ms) - reads0,
    )  # fmt: skip
    trace_out.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(trace_out)
    out.info.update(spans=len(tracer.spans), trace_file=str(trace_out))


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------


def declared(spec: dict, out: Outcome) -> dict[str, dict]:
    """BENCHMARK.json's entries for the metrics a run in this mode reports."""
    kind = "per_layer" if out.mode == "traced" else "end_to_end"
    return {m["name"]: m for m in spec[kind]}


def print_outcome(spec: dict, out: Outcome) -> None:
    print(f"\n== {out.workload} · {out.mode} run")
    for name, entry in declared(spec, out).items():
        value, unit, samples = out.metrics[name]
        bound = entry.get("bound")
        gate = f"  bound {bound:.0%} {entry['better']}" if bound else ""
        print(f"  {name:40s} {value:14.4f} {unit:6s} n={samples}{gate}")
    fail_ratio = out.failed / out.attempted
    print(f"  {'fail_ratio':40s} {fail_ratio:14.4f} ratio  n={out.attempted} (expected 0)")
    for key, value in out.info.items():
        print(f"  · {key}: {value}")
    for key in ("beyond_p95", "beyond_write_p95"):
        if out.info.get(key, MIN_BEYOND) < MIN_BEYOND:
            print(f"  ! {key}={out.info[key]}: fewer than {MIN_BEYOND} samples beyond p95")


def check_metrics(spec: dict, out: Outcome) -> None:
    """The run reports exactly the metrics BENCHMARK.json declares."""
    want, got = set(declared(spec, out)), set(out.metrics)
    if want != got:
        raise SystemExit(
            f"metric names drifted from BENCHMARK.json: missing {sorted(want - got)}, "
            f"undeclared {sorted(got - want)}"
        )


def report_repeats(spec: dict, sets: list[list[Outcome]]) -> bool:
    """min/median/max and spread of every metric over the sets; False if
    two sets disagree on an end-to-end metric by more than its bound."""
    agreed = True
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    print(f"\n== {len(sets)} sets on one commit")
    for position, first in enumerate(sets[0]):
        runs = [s[position] for s in sets]
        for name, (_, unit, _) in first.metrics.items():
            values = [r.metrics[name][0] for r in runs]
            line = (
                f"  {first.workload:11s} {first.mode:6s} {name:38s} "
                f"min {min(values):12.4f} med {statistics.median(values):12.4f} "
                f"max {max(values):12.4f} {unit:5s} spread {spread(values):6.1%}"
            )
            if name in e2e and first.mode == "timed":
                bound = e2e[name]["bound"]
                worst = max(values) / min(values) - 1.0
                ok = worst <= bound
                line += f"  worst pair {worst:6.1%} vs bound {bound:.0%} {'ok' if ok else 'DISAGREE'}"
                agreed &= ok
            elif unit in ("count", "ratio", "B"):
                line += "  repeats exactly" if len(set(values)) == 1 else "  varies"
            print(line)
    return agreed


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(loadgen.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]),
                        help="length of each timed run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: timed run only; 1: traced run only; default: one after the other")
    parser.add_argument("--trace-out", type=Path, default=ROOT / ".bench_e2e" / "spans.jsonl",
                        help="span file of the traced run; -<workload> is added to its stem")
    parser.add_argument("--json", type=Path, help="also write the summary here")
    parser.add_argument("--repeat", type=int, default=1, help="run N full sets")
    parser.add_argument("--check", action="store_true",
                        help="with --repeat: fail if two sets disagree beyond a bound")
    parser.add_argument("--quick", action="store_true",
                        help="0.3 s smoke runs, timed only unless --trace 1; not for claims")
    args = parser.parse_args(argv)  # fmt: skip

    scale = Scale(args.seconds)
    if args.quick:
        scale = Scale(0.3, reps=1, wal_tail=96, budget_s=0.02)
        print("--quick: 0.3 s schedules; numbers are not for claims")
    names = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    if args.trace is not None:
        modes = [bool(args.trace)]
    else:
        modes = [False] if args.quick else [False, True]
    # One core for generator and server alike (the server inherits the
    # mask).  With one blocking client they take turns, so a second core
    # buys no overlap and costs a cross-CPU wake-up per frame, which on a
    # 2-vCPU VM was the largest source of noise: tenth-of-run throughput
    # moved +-10 % on two cores and +-2 % on one.  The other core is left
    # to the kernel and to whoever started this process.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workdir = ROOT / ".bench_e2e" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    sets: list[list[Outcome]] = []
    try:
        for _ in range(args.repeat):
            outcomes = []
            for name in names:
                trace_out = args.trace_out.with_name(
                    f"{args.trace_out.stem}-{name}{args.trace_out.suffix}"
                )
                for traced in modes:
                    out = run_workload(
                        loadgen.WORKLOADS[name], args.seed, scale, traced, workdir, trace_out
                    )
                    check_metrics(spec, out)
                    print_outcome(spec, out)
                    outcomes.append(out)
            sets.append(outcomes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    agreed = args.repeat < 2 or report_repeats(spec, sets) or not args.check
    failed = sum(o.failed for s in sets for o in s)
    last = sets[-1]
    if len(last) == 1:
        final = last[0].result_line()
    else:
        final = json.dumps(
            {
                "seed": args.seed,
                "seconds": scale.seconds,
                "quick": args.quick,
                "sets": [
                    [
                        {
                            "workload": o.workload,
                            "mode": o.mode,
                            "attempted": o.attempted,
                            "failed": o.failed,
                            "metrics": {
                                k: {"value": v, "unit": u, "samples": n}
                                for k, (v, u, n) in o.metrics.items()
                            },
                            "info": o.info,
                        }
                        for o in outcomes
                    ]
                    for outcomes in sets
                ],
                # This benchmark defines the baseline; it claims no gain.
                "claim": None,
            }
        )
    if args.json:
        args.json.write_text(final + "\n")
    print(final)
    return 0 if failed == 0 and agreed else 1


if __name__ == "__main__":
    sys.exit(main())
