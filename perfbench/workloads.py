"""Workload definitions and the correctness check of the study benchmark.

Each workload is one ``run_study`` call with a fixed StudyConfig. Every
workload pins its study seed (the gridline perturbation of box
hierarchies; the triangular hierarchy ignores it) to ``DEFAULT_SEED``,
the seed ``reference.json`` was made with:

* on ncrt2d-p1-L8 the seed moves the BiCGStab iteration count of the
  last level from 1,512 to 2,086 over seeds 0..8, a quartile spread of
  29% of the median, which would swamp any bound on the study time;
* on ncrt3d-p2-L5 it moves the iteration counts less, but it still
  changes the work of a run;
* so every run of every workload can be held to the reference table.

The benchmark's ``--seed`` therefore does not change a study's input;
it is recorded with the run. The check of a finished study: every fitted
order must be within ``REF_ORDER_TOL`` of the order in ``reference.json``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

DEFAULT_SEED = 0      # the recorded seed of reference.json
REF_ORDER_TOL = 0.01
BLAS_THREADS = 2

COLUMNS = ("err_u", "err_flux_raw", "err_superclose", "err_recovered")

WORKLOADS = {
    # Solve-bound: BiCGStab iterations grow ~2.3x per level on the last
    # two levels, so a solver change shows here first.
    "ncrt2d-p1-L8": dict(problem="p1", element="ncrt2d", levels=8,
                         perturb=0.2, seed=DEFAULT_SEED),
    # Quadrature-, evaluation- and einsum-bound; guards solver changes
    # against a 3d direct solve.
    "ncrt3d-p2-L5": dict(problem="p2", element="ncrt3d", levels=5,
                         perturb=0.2, seed=DEFAULT_SEED),
    # The only workload through the cr module; BiCGStab breaks down on
    # its fourth level with two BLAS threads.
    "cr-p1-L5": dict(problem="p1", element="cr", cr_initial=8, levels=5,
                     perturb=0.0, seed=DEFAULT_SEED),
}


def study_config(workload: str, levels: int | None = None) -> dict:
    """Keyword arguments of the StudyConfig a workload runs."""
    cfg = dict(WORKLOADS[workload])
    if levels is not None:
        cfg["levels"] = levels
    return cfg


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def reference_elements(workload: str, levels: int, reference: dict) -> int:
    """Elements of the first ``levels`` levels of a workload's hierarchy."""
    return sum(r["ne"] for r in
               reference["workloads"][workload]["records"][:levels])


def check_records(records: list) -> list[str]:
    """Problems with the error columns of the levels a study completed."""
    problems = []
    for i, rec in enumerate(records):
        for col in COLUMNS:
            v = rec[col]
            if not (math.isfinite(v) and v > 0.0):
                problems.append(f"level {i}: {col}={v!r} is not a positive "
                                "finite number")
    return problems


def check_orders(workload: str, config: dict, orders: dict,
                 reference: dict) -> list[str]:
    """Problems with the fitted orders of a finished study.

    Studies run with fewer levels than the workload defines (the
    self-test) fit too few levels for an order check and are not checked.
    """
    if config["levels"] != WORKLOADS[workload]["levels"]:
        return []
    missing = [c for c in COLUMNS if c not in orders]
    if missing:
        return [f"no fitted order for {', '.join(missing)}"]
    ref = reference["workloads"][workload]["orders"]
    return [f"order {col}={orders[col]:.4f} differs from the reference "
            f"{ref[col]:.4f} by more than {REF_ORDER_TOL}"
            for col in COLUMNS if abs(orders[col] - ref[col]) > REF_ORDER_TOL]


def error_drift(workload: str, records: list, reference: dict) -> float:
    """Largest relative drift of the error columns from the reference,
    over the levels the study completed. Informational only."""
    drift = 0.0
    for rec, rr in zip(records, reference["workloads"][workload]["records"]):
        for col in COLUMNS:
            drift = max(drift, abs(rec[col] - rr[col]) / abs(rr[col]))
    return drift
