"""Deterministic seeds for every datagen-backed benchmark workload.

One module owns the seeds so the pytest fixtures (``conftest.py``), the
standalone report generator (``report.py``), and the JSON artifact it
emits all describe the same datasets.  Change a seed here and every
consumer — including the ``meta.seeds`` block of ``BENCH_operators.json``
— moves together.
"""

# university_scaled(n_students=…, n_courses=20)
SCALED_UNI_SEED = 11

# figure10_dataset(extent_size=…, density=0.12)
FIG10_SEED = 7

# chain_dataset(n_classes=4, extent_size=200, density=0.05) — the largest
# datagen scale; the indexed-vs-naive gate runs here
CHAIN_SEED = 5

# report.py sweep sections
SCALING_SWEEP_SEED = 2
DENSITY_SWEEP_SEED = 3
HETERO_SEED = 9

# skewed_dataset(extent_size=…) — the adaptive-planner workload where the
# uniform and statistics-driven cost models disagree on join order
SKEWED_SEED = 13

# valued_chain_dataset(n_classes=3, extent_size=…) — the σ-heavy chain
# where the compiled-vs-object select gate runs
SIGMA_SEED = 17

ALL_SEEDS = {
    "scaled_uni": SCALED_UNI_SEED,
    "fig10": FIG10_SEED,
    "chain": CHAIN_SEED,
    "scaling_sweep": SCALING_SWEEP_SEED,
    "density_sweep": DENSITY_SWEEP_SEED,
    "heterogeneous": HETERO_SEED,
    "skewed": SKEWED_SEED,
    "sigma": SIGMA_SEED,
}
