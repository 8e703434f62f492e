#!/usr/bin/env python3
"""Benchmark of ia_rtdd: end-to-end metrics, or per-layer metrics from a traced run.

Run from the root of a checkout; the package is imported from ``src/``:

    python3 perfbench/run.py --workload residual_suite --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs a fixed number of the workload's rounds untraced,
replays the same requests with every layer wrapped, and prints the
per-layer metrics.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
line before it is the run record (run conditions, sample counts,
failures).  The exit status is 0 only when every output check passed.
See perfbench/README.md.
"""

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_STARTS = 15
# Speed probes: fixed pieces of work that call nothing of the package,
# timed between the requests of a phase that names one.  A shared host's
# speed drifts by up to a third over minutes, so the request times of such a
# phase are scaled to the speed at which its probe takes the reference time
# (about the probe's median on a 2-vCPU Xeon VM).
PROBE_LOOPS = 200_000
PROBE_SIDE = 1024
PROBE_INTERVAL_S = 0.5
PROBES_PER_SLOT = 5


def import_package():
    """Import ia_rtdd from this checkout's src/, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "ia_rtdd", "__init__.py")):
        raise SystemExit(f"perfbench: no package source under {SRC}; run from "
                         f"the root of a checkout of the repository")
    sys.path.insert(0, SRC)
    import ia_rtdd
    if not os.path.abspath(ia_rtdd.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported ia_rtdd from {ia_rtdd.__file__}, "
                         f"not from {SRC}")
    return ia_rtdd


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# run conditions
# ---------------------------------------------------------------------------

def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, or None."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh
                    if "openblas" in line.lower() and "/" in line}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def run_conditions(ia, args):
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
    except (TypeError, KeyError):
        deps = {}
    lib = {k: f"{deps.get(k, {}).get('name')} {deps.get(k, {}).get('version')}"
           for k in ("blas", "lapack")}
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu_model": _cpu_model(),
        "blas": lib["blas"], "lapack": lib["lapack"],
        "blas_threads": _blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "backend": ia.BACKEND,
        "git_commit": _git_commit(),
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
    }


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------

def loop_probe():
    """Seconds for a fixed pure-Python loop."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - t0


def array_probe():
    """Seconds for a fixed 1M-element broadcast, compare and argmax."""
    x = np.arange(PROBE_SIDE, dtype=np.int64)
    t0 = time.perf_counter()
    over = x[:, None] + x[None, :] > np.maximum(x[:, None], x[None, :])
    int(np.argmax(over))
    return time.perf_counter() - t0


# probe name -> (probe, reference seconds)
PROBES = {"loop": (loop_probe, 0.018), "array": (array_probe, 0.0073)}


def run_rounds(wl, workload, seconds=None, rounds=None, tracer=None, min_rounds=1,
               probes=None):
    """Issue the workload's rounds one request at a time, phase by phase.

    A phase stops before a round that would end more than half a round
    past its share of ``seconds`` (judged by its mean round so far) once
    ``min_rounds`` rounds have run, or after exactly ``rounds[j]`` rounds of
    phase j when replaying.  The first ``warmup`` requests of a phase are
    checked and counted like the rest but get the kind "warmup", so they
    are no latency sample.
    When ``probes`` is a list, PROBES_PER_SLOT runs of a phase's speed probe
    are made at the start and the end of the phase and before each of its
    requests that starts PROBE_INTERVAL_S or more after the last probe;
    ``(phase, seconds)`` of each is appended to ``probes``, and none is in a
    request's time.
    Returns ``(results, rounds_done)``; each result is
    ``(kind, ops, failed, seconds, digest, messages, phase)``.
    """
    last_probe = -math.inf

    def probe_slot(j, force=False):
        nonlocal last_probe
        if probes is not None and phases[j].probe and \
                (force or time.perf_counter() - last_probe >= PROBE_INTERVAL_S):
            probe = PROBES[phases[j].probe][0]
            probes.extend((j, probe()) for _ in range(PROBES_PER_SLOT))
            last_probe = time.perf_counter()

    phases = workload.phases()
    results = []
    done_per_phase = []
    next_round = {}             # a phase that recurs continues its numbering
    for j, phase in enumerate(phases):
        probe_slot(j, force=True)
        start = time.perf_counter()
        issued = 0
        first = next_round.get(phase.make_round, 0)
        done = 0
        while True:
            for req in phase.make_round(first + done):
                probe_slot(j)
                if tracer is not None:
                    tracer.op = len(results)
                t0 = time.perf_counter()
                try:
                    out = req.call()
                except Exception as exc:  # a raising operation is a failed one
                    out, bad = None, [f"{type(exc).__name__}: {exc}"] * req.ops
                dt = time.perf_counter() - t0
                if tracer is not None:
                    tracer.op = None
                if out is not None:
                    try:
                        bad = req.check(out)
                    except Exception as exc:
                        bad = [f"output check raised {type(exc).__name__}: {exc}"] * req.ops
                kind = "warmup" if issued < phase.warmup else req.kind
                issued += 1
                results.append((kind, req.ops, min(len(bad), req.ops), dt,
                                None if out is None else wl.digest(out), bad[:3], j))
            done += 1
            if rounds is not None:
                if done >= rounds[j]:
                    break
            elif done >= min_rounds and (time.perf_counter() - start) * (done + 0.5) / done \
                    > seconds * phase.share:
                break
        probe_slot(j, force=True)
        done_per_phase.append(done)
        next_round[phase.make_round] = first + done
    return results, done_per_phase


def measure_setup(args, count):
    """Seconds from starting a fresh interpreter until it has imported
    ia_rtdd and built the workload's inputs, ``count`` times.

    Each start prints its own CLOCK_MONOTONIC reading when done, so the time
    does not include its exit nor the polling of a wait with a timeout."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(count):
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True,
                             timeout=120)
        times.append(float(out.stdout.split()[-1]) - t0)
    return times


def end_to_end(workload, results, setup_s, probes):
    """End-to-end metric values, their unscaled values, and the sample
    counts behind them.

    In a phase with a speed probe, each request's time is scaled by the
    probe's reference time over its median in the phase."""
    phases = workload.phases()
    scales = [PROBES[phase.probe][1] / statistics.median(t for p, t in probes if p == j)
              if phase.probe else 1.0 for j, phase in enumerate(phases)]

    def timing(times):
        # Each phase's rate weighted by its share of the time.  A phase
        # ends on a whole round, so the time it actually got varies from
        # run to run, and a plain total would move with that mix.
        ops_per_s = 0.0
        for j, phase in enumerate(phases):
            done = sum(r[1] - r[2] for r in results if r[6] == j)
            busy = sum(t for r, t in zip(results, times) if r[6] == j)
            ops_per_s += phase.share * done / busy
        lat = [t for r, t in zip(results, times) if r[0] == workload.latency_kind]
        return {
            "ops_per_s": ops_per_s,
            "pass_s": statistics.median(t for r, t in zip(results, times) if r[0] == "pass"),
            "p50_ms": 1e3 * float(np.percentile(lat, 50.0)),
            "ptail_ms": 1e3 * float(np.percentile(lat, tail_q)),
        }

    n_lat = sum(r[0] == workload.latency_kind for r in results)
    # Highest percentile with at least ten samples beyond it; the median
    # when a run has fewer than twenty samples.
    tail_q = max(50.0, 100.0 * (1.0 - 10.0 / n_lat))
    raw = timing([r[3] for r in results])
    values = timing([r[3] * scales[r[6]] for r in results])
    values["setup_s"] = setup_s
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    samples = {"passes": sum(r[0] == "pass" for r in results), "latency_samples": n_lat,
               "tail_percentile": round(tail_q, 3), "busy_s": sum(r[3] for r in results),
               "speed_probes": len(probes), "speed_scale_per_phase": scales,
               "unscaled": raw}
    return values, samples


# Workload-qualified names of the end-to-end metrics, printed beside the
# generic ones, e.g. ``dof_search.search_pass_s`` for ``pass_s``.
QUALIFIED_NAMES = {
    "sumrate_sweep": {"ops_per_s": "points_per_s", "peak_rss_mb": "peak_rss_mb"},
    "residual_suite": {"ops_per_s": "constructs_per_s", "p50_ms": "construct_p50_ms",
                       "ptail_ms": "construct_ptail_ms", "peak_rss_mb": "peak_rss_mb"},
    "dof_search": {"pass_s": "search_pass_s", "p50_ms": "wide_check_p50_ms",
                   "ptail_ms": "wide_check_ptail_ms", "peak_rss_mb": "peak_rss_mb"},
}


def per_layer(sp, workload, tracer_spans, overhead_s, traced_wall):
    rows = sp.layer_totals(tracer_spans)

    def get(name, key):
        return rows.get(name, {}).get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    v = {}
    for name in ("model.sample_channels", "beamform.iterate_alignment",
                 "beamform.zero_force_step2", "beamform.residual_report",
                 "evaluate.sum_rate", "evaluate.baseline_single_cell",
                 "feasibility.check_necessary", "kernels.subset_scan",
                 "feasibility.check_sufficient", "feasibility.build_alignment_matrix",
                 "feasibility.numeric_rank"):
        v[f"{name}.calls"] = get(name, "calls")
    for name in ("model.sample_channels", "beamform.zero_force_step2",
                 "beamform.normalize", "beamform.residual_report", "evaluate.sum_rate",
                 "evaluate.baseline_single_cell", "feasibility.check_necessary",
                 "kernels.subset_scan", "feasibility.check_sufficient",
                 "feasibility.build_alignment_matrix", "feasibility.numeric_rank"):
        v[f"{name}.busy_ms"] = 1e3 * get(name, "busy")
    for name in ("beamform.iterate_alignment", "evaluate.monte_carlo_sweep",
                 "feasibility.search_max_sum_dof"):
        v[f"{name}.self_ms"] = 1e3 * get(name, "self")

    it = "beamform.iterate_alignment"
    v[f"{it}.busy_s"] = get(it, "busy")
    v[f"{it}.iterations"] = get(it, "iterations")
    v[f"{it}.us_per_iter"] = 1e6 * ratio(get(it, "busy"), get(it, "iterations"))
    v[f"{it}.converged_frac"] = ratio(get(it, "converged"), get(it, "calls"))
    al = "kernels.alignment_loop"
    v[f"{al}.busy_s"] = get(al, "busy")
    v[f"{al}.gflop_computed"] = get(al, "flop") / 1e9
    v[f"{al}.gflops_achieved"] = ratio(get(al, "flop") / 1e9, get(al, "busy"))
    v["beamform.residual_report.margin_ok_frac"] = ratio(
        get("beamform.residual_report", "margin_ok"), get("beamform.residual_report", "calls"))
    v["evaluate.baseline_single_cell.channel_draws"] = sp.child_count(
        tracer_spans, "evaluate.baseline_single_cell", "model.sample_channels")
    sc = "kernels.subset_scan"
    v[f"{sc}.pairs"] = get(sc, "pairs")
    v[f"{sc}.pairs_per_s"] = ratio(get(sc, "pairs"), get(sc, "busy"))
    cs = "feasibility.check_sufficient"
    v[f"{cs}.structural_frac"] = ratio(get(cs, "structural"), get(cs, "calls"))
    sm = "feasibility.search_max_sum_dof"
    v[f"{sm}.examined"] = get(sm, "examined")
    v[f"{sm}.us_per_alloc"] = 1e6 * ratio(get(sm, "busy"), get(sm, "examined"))
    v["trace.overhead_s"] = overhead_s
    v["trace.blocking_frac"] = ratio(sp.outermost_busy(tracer_spans, workload.blocking),
                                     traced_wall)
    return v


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("sumrate_sweep", "residual_suite", "dof_search"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="minimal size: one small round, one set-up probe")
    parser.add_argument("--setup-only", action="store_true",
                        help="import the package, build the inputs and exit")
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    ia = import_package()
    import spans as sp
    import workloads as wl
    workload = wl.WORKLOADS[args.workload](args.seed, smoke=args.smoke)
    if args.setup_only:
        print(time.clock_gettime(time.CLOCK_MONOTONIC))
        return 0
    spec = load_spec()
    problems = []

    if args.trace == 0:
        # Set-up starts run before and after the loop, so that their median
        # does not hang on one stretch of the machine's speed.
        starts = 1 if args.smoke else SETUP_STARTS
        setup_times = measure_setup(args, starts // 2)
        # Two rounds at least: one sweep pass spans a single stretch of the
        # machine's speed, which drifts by tens of percent over a minute.
        speed = []
        results, rounds = run_rounds(wl, workload, seconds=args.seconds,
                                     min_rounds=1 if args.smoke else 2, probes=speed)
        setup_times += measure_setup(args, starts - starts // 2)
        values, samples = end_to_end(workload, results, statistics.median(setup_times),
                                     speed)
        samples["setup_starts_s"] = setup_times
        wanted = spec["end_to_end"]
        units = {m["name"]: m["unit"] for m in wanted}
        named = {f"{args.workload}.{alias}": (values[key], units[key])
                 for key, alias in QUALIFIED_NAMES[args.workload].items()}
    else:
        # A fixed number of rounds per phase, so that the per-layer counts
        # and busy times do not scale with the speed of the machine or code.
        rounds = [1] * len(workload.trace_rounds) if args.smoke else workload.trace_rounds
        results, rounds = run_rounds(wl, workload, rounds=rounds)
        tracer = sp.Tracer()
        tracer.install(ia)
        try:
            traced, _ = run_rounds(wl, workload, rounds=rounds, tracer=tracer)
        finally:
            left = tracer.restore(ia)
        if left:
            problems.append(f"tracer left wrapped names: {left}")
        if [r[4] for r in traced] != [r[4] for r in results]:
            problems.append("traced and untraced outputs differ")
        untraced_wall = sum(r[3] for r in results)
        traced_wall = sum(r[3] for r in traced)
        values = per_layer(sp, workload, tracer.spans, traced_wall - untraced_wall,
                           traced_wall)
        samples = {"untraced_wall_s": untraced_wall, "traced_wall_s": traced_wall,
                   "spans": len(tracer.spans)}
        results = results + traced
        wanted = spec["per_layer"]
        named = {}

    conditions = run_conditions(ia, args)
    threads, nproc = conditions["blas_threads"], conditions["nproc"]
    if threads is not None and nproc and threads > nproc:
        problems.append(f"BLAS uses {threads} threads on {nproc} CPUs")
    attempted = sum(r[1] for r in results)
    failed = sum(r[2] for r in results)
    failures = [m for r in results for m in r[5]][:10]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise SystemExit(f"perfbench: no value computed for {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    correct = failed == 0 and not problems

    print(f"{args.workload} seed {args.seed}: rounds per phase {rounds}, "
          f"{attempted} operations, {failed} failed, trace {args.trace}")
    for m in wanted:
        print(f"  {m['name']} = {values[m['name']]:.6g} {m['unit']}")
    for name, (value, unit) in named.items():
        print(f"  {name} = {value:.6g} {unit}")
    for msg in problems + failures:
        print(f"  FAILED: {msg}")
    print(json.dumps({"record": {"conditions": conditions, "rounds": rounds,
                                 "operations": attempted, "samples": samples,
                                 "qualified_metrics": named, "problems": problems,
                                 "failures": failures}}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
