"""Incremental view maintenance vs full recompute on the chain macro.

A materialized view over the K0*K1*K2 chain join is maintained through
single-pattern deltas (unlink/link of one existing K0–K1 edge) and
compared against recomputing the view from scratch:

* **single delta** — the median cost of one mutation *including* its
  incremental maintenance must beat the median full recompute by at
  least :data:`GATE_MIN_SPEEDUP` (5x); this is the point of delta rules;
* **batch 100** — applying 100 mutations with the view maintained at
  every step must cost no more than applying the same 100 mutations
  without the view plus **one** full recompute at the end
  (``never worse``): even a subscriber that only reads the final state
  pays nothing for the per-step freshness;
* **complement delta** — a ``σ(V0)[V0 = rare] | V1`` view on the valued
  chain, maintained through unlink/link of V0–V1 edges whose V0 end is
  selected (each unlink creates one Complement-pattern, each link
  destroys one), against recomputing the view: the same ≥ 5x gate, and
  the view must not fall back to a scoped recompute.

Usage:
    python benchmarks/bench_views.py                 # table on stdout
    python benchmarks/bench_views.py --quick         # smaller dataset
    python benchmarks/bench_views.py --json BENCH_views.json
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
import time

from seeds import CHAIN_SEED, SIGMA_SEED

#: Median full recompute over median single-delta maintenance.
GATE_MIN_SPEEDUP = 5.0

VIEW_QUERY = "K0 * K1 * K2"


def _build(quick: bool):
    from repro.datagen import chain_dataset
    from repro.engine.database import Database

    extent, density = (80, 0.08) if quick else (200, 0.05)
    dataset = chain_dataset(
        n_classes=4, extent_size=extent, density=density, seed=CHAIN_SEED
    )
    db = Database.open(schema=dataset.schema, graph=dataset.graph, analyze=False)
    return db, {"extent_size": extent, "density": density, "seed": CHAIN_SEED}


def _delta_edges(db, count: int):
    """``count`` distinct K0–K1 edges, each part of >= 1 view pattern."""
    assoc = db.schema.resolve("K0", "K1")
    k2 = db.schema.resolve("K1", "K2")
    edges = []
    for a, b in sorted(db.graph.edges(assoc)):
        if db.graph.partners(k2, b):  # the unlink really removes patterns
            edges.append((a, b))
        if len(edges) == count:
            break
    if len(edges) < count:
        raise SystemExit(
            f"dataset too sparse: only {len(edges)} maintainable edges"
        )
    return edges


def _median_recompute_ms(db, name: str, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        db.refresh_view(name)
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def _median_mutation_ms(db, edges, repeats: int) -> float:
    """Median per-mutation wall time over unlink/link pairs (ms)."""
    times = []
    for _ in range(repeats):
        for a, b in edges:
            t0 = time.perf_counter()
            db.unlink(a, b)
            t1 = time.perf_counter()
            db.link(a, b)
            t2 = time.perf_counter()
            times.append((t1 - t0) * 1e3)
            times.append((t2 - t1) * 1e3)
    return statistics.median(times)


def _complement_section(quick: bool, pair_repeats: int, recompute_repeats: int) -> dict:
    """One V0–V1 link/unlink on a ``σ | V1`` view vs recomputing it."""
    from repro.datagen import valued_chain_dataset
    from repro.engine.database import Database

    extent, density = (150 if quick else 300), 0.02
    data = valued_chain_dataset(
        n_classes=2, extent_size=extent, density=density, seed=SIGMA_SEED
    )
    db = Database.open(schema=data.schema, graph=data.graph, analyze=False)
    query = f"sigma(V0)[V0 = {data.rare_value}] | V1"
    view = db.create_view("complement", query)
    assoc = db.schema.resolve("V0", "V1")
    edges = sorted(
        (a, b) if a.cls == "V0" else (b, a) for a, b in db.graph.edges(assoc)
    )
    edges = [(a, b) for a, b in edges if db.graph.value(a) == data.rare_value][:10]
    if not edges:
        raise SystemExit("no V0–V1 edge leaves a selected V0 instance")

    incremental_ms = _median_mutation_ms(db, edges, pair_repeats)
    recompute_ms = _median_recompute_ms(db, "complement", recompute_repeats)
    speedup = recompute_ms / incremental_ms if incremental_ms else float("inf")
    if view.patterns != frozenset(db.query(query, use_cache=False).set):
        raise SystemExit("maintained complement view diverged from recompute")
    return {
        "dataset": {
            "query": query,
            "extent_size": extent,
            "density": density,
            "seed": SIGMA_SEED,
        },
        "view_patterns": len(view.patterns),
        "mutations": len(edges) * 2 * pair_repeats,
        "scoped_recomputes": view.recomputes,
        "incremental_ms": incremental_ms,
        "recompute_ms": recompute_ms,
        "speedup": speedup,
        "gate_min_speedup": GATE_MIN_SPEEDUP,
        "gate_passed": speedup >= GATE_MIN_SPEEDUP and view.recomputes == 0,
    }


def views_sections(quick: bool) -> dict:
    """Measure every section of ``BENCH_views.json``."""
    db, dataset = _build(quick)
    view = db.create_view("chain", VIEW_QUERY)
    edges = _delta_edges(db, 50)
    pair_repeats = 3 if quick else 5
    recompute_repeats = 3 if quick else 5

    # -- single-pattern deltas (maintenance inside the DML call) -------
    incremental_ms = _median_mutation_ms(db, edges[:10], pair_repeats)
    recompute_ms = _median_recompute_ms(db, "chain", recompute_repeats)
    speedup = recompute_ms / incremental_ms if incremental_ms else float("inf")

    # -- batch 100: maintained at every step vs recompute once ---------
    batch = edges[:50]
    t0 = time.perf_counter()
    for a, b in batch:
        db.unlink(a, b)
    for a, b in batch:
        db.link(a, b)
    incremental_batch_ms = (time.perf_counter() - t0) * 1e3

    db.drop_view("chain")
    t0 = time.perf_counter()
    for a, b in batch:
        db.unlink(a, b)
    for a, b in batch:
        db.link(a, b)
    baseline_mutations_ms = (time.perf_counter() - t0) * 1e3
    t0 = time.perf_counter()
    final = db.query(VIEW_QUERY, use_cache=False)
    recompute_once_ms = (time.perf_counter() - t0) * 1e3
    baseline_batch_ms = baseline_mutations_ms + recompute_once_ms
    # The batch ends where it started, so the maintained view and the
    # final recompute must agree — a last soundness check on the timings.
    if view.patterns != frozenset(final.set):
        raise SystemExit("maintained view diverged from recompute")

    return {
        "complement_delta": _complement_section(quick, pair_repeats, recompute_repeats),
        "dataset": {"query": VIEW_QUERY, **dataset},
        "view_patterns": len(view.patterns),
        "single_delta": {
            "incremental_ms": incremental_ms,
            "recompute_ms": recompute_ms,
            "speedup": speedup,
            "gate_min_speedup": GATE_MIN_SPEEDUP,
            "gate_passed": speedup >= GATE_MIN_SPEEDUP,
        },
        "batch_100": {
            "mutations": len(batch) * 2,
            "incremental_ms": incremental_batch_ms,
            "baseline_mutations_ms": baseline_mutations_ms,
            "recompute_once_ms": recompute_once_ms,
            "baseline_total_ms": baseline_batch_ms,
            "ratio": baseline_batch_ms / incremental_batch_ms
            if incremental_batch_ms
            else float("inf"),
            "gate_passed": incremental_batch_ms <= baseline_batch_ms,
        },
    }


def report_views(sections: dict) -> None:
    dataset = sections["dataset"]
    print(
        f"\n## Incremental view maintenance ({dataset['query']}, "
        f"extent {dataset['extent_size']}, density {dataset['density']}, "
        f"{sections['view_patterns']} pattern(s))"
    )
    single = sections["single_delta"]
    print(
        f"single delta: {single['incremental_ms']:.4f} ms incremental vs "
        f"{single['recompute_ms']:.3f} ms recompute — "
        f"{single['speedup']:.1f}x (gate >= {single['gate_min_speedup']:.0f}x: "
        f"{'PASS' if single['gate_passed'] else 'FAIL'})"
    )
    batch = sections["batch_100"]
    print(
        f"batch {batch['mutations']}: {batch['incremental_ms']:.3f} ms maintained "
        f"every step vs {batch['baseline_total_ms']:.3f} ms mutate+recompute-once "
        f"(never-worse: {'PASS' if batch['gate_passed'] else 'FAIL'})"
    )
    comp = sections["complement_delta"]
    print(
        f"complement delta ({comp['dataset']['query']}, "
        f"{comp['view_patterns']} pattern(s)): {comp['incremental_ms']:.4f} ms "
        f"incremental vs {comp['recompute_ms']:.3f} ms recompute — "
        f"{comp['speedup']:.1f}x, {comp['scoped_recomputes']} scoped recompute(s) "
        f"(gate >= {comp['gate_min_speedup']:.0f}x and none: "
        f"{'PASS' if comp['gate_passed'] else 'FAIL'})"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="smaller dataset")
    parser.add_argument("--json", metavar="PATH", help="write sections as JSON")
    args = parser.parse_args(argv)
    sections = views_sections(args.quick)
    report_views(sections)
    if args.json:
        payload = {
            "meta": {
                "generated_by": "benchmarks/bench_views.py",
                "quick": args.quick,
                "python": platform.python_version(),
                "seed": CHAIN_SEED,
            },
            "sections": sections,
        }
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"\nwrote {args.json}", file=sys.stderr)
    ok = (
        sections["single_delta"]["gate_passed"]
        and sections["batch_100"]["gate_passed"]
        and sections["complement_delta"]["gate_passed"]
    )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
