#!/usr/bin/env python3
"""Regenerate ``sweep_reference.json``, the trial pool of ``sumrate_sweep``.

For each sweep seed it runs one `monte_carlo_sweep` trial on SIM over the
criterion-7 grid and records the mean sum rate and single-cell baseline per
SNR point (the correctness reference) and the alignment iterations summed
over the grid (used to pair trials of equal total work).  Run from the
root of the repository:

    python3 perfbench/make_reference.py

Rerun it only when the package's results are meant to change; the
benchmark compares every sweep it times against this file.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

import ia_rtdd as ia  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402

SIM_DESCRIPTION = "(12,(8,8,8,8))x(18,(4,4,4)) with allocation 3,3,3,3;2,2,2"


def record_trial(sweep_seed):
    tracer = spans.Tracer()
    tracer.install(ia)
    tracer.op = sweep_seed
    try:
        res = wl.sweep_trial(sweep_seed)
    finally:
        tracer.op = None
        left = tracer.restore(ia)
    if left:
        raise RuntimeError(f"tracer left wrapped names: {left}")
    rows = spans.layer_totals(tracer.spans)["beamform.iterate_alignment"]
    return {"seed": sweep_seed, "iterations": rows["iterations"],
            "converged": rows["converged"],
            "mean_sum_rate": list(res.mean_sum_rate),
            "baseline_single_cell": list(res.baseline_single_cell)}


def main():
    trials = []
    for s in range(wl.SWEEP_POOL):
        trials.append(record_trial(s))
        print(f"seed {s}: {trials[-1]['iterations']} iterations", flush=True)
    doc = {"network": SIM_DESCRIPTION, "grid_db": list(wl.SWEEP_GRID),
           "max_iters": wl.SWEEP_OPTS.max_iters,
           "leakage_stop": wl.SWEEP_OPTS.leakage_stop,
           "numpy": np.__version__, "backend": ia.BACKEND, "trials": trials}
    with open(wl.SWEEP_REFERENCE, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
