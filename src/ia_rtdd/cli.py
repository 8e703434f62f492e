"""Command-line front end.

Subcommands:

* ``check``             feasibility of one allocation (converse + achievability)
* ``search``            maximum sum DoF search with certificate allocation
* ``symmetric``         compact symmetric-allocation test
* ``construct``         build beamformers and report alignment residuals
* ``simulate-leakage``  leakage trace of the alternating minimization (CSV)
* ``simulate-sumrate``  Monte-Carlo sum-rate sweep over an SNR grid (CSV)

Exit status: 0 on success, 1 on an infeasible verdict under ``--strict``,
2 on any input error, a network whose arrays or converse tables would pass
the entry bound `model.MAX_ARRAY_ENTRIES` included.  All floating-point
output is printed with 9 significant digits so emitted files diff cleanly
across runs; JSON output writes a non-finite value as null.
"""

import argparse
import io
import json
import math
import sys

from . import evaluate, feasibility
from .beamform import (FLOAT_FORMAT, IterationOptions, construct_beamformers,
                       iterate_alignment, residual_report)
from .errors import IaRtddError
from .evaluate import MAX_ABS_SNR_DB
from .model import (DofAllocation, NetworkConfig, RngStream, _plain_number,
                    sample_channels, validate_config, validate_trials)

MAX_SNR_POINTS = 10_000


def _round_floats(obj):
    """Round every float to FLOAT_FORMAT; a non-finite one becomes None (null)."""
    if isinstance(obj, float):
        return float(FLOAT_FORMAT % obj) if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _emit(text, out_path):
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise IaRtddError(f"could not write {out_path}: {exc}")
    else:
        sys.stdout.write(text)


def _emit_json(data, out_path):
    _emit(json.dumps(_round_floats(data), indent=2, allow_nan=False) + "\n", out_path)


def _load_config(path):
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise IaRtddError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise IaRtddError(f"config file {path} is not valid JSON: {exc}")
    except (OSError, UnicodeDecodeError) as exc:
        raise IaRtddError(f"could not read config file {path}: {exc}")
    return NetworkConfig.from_dict(data)


def _int_arg(text):
    try:
        return _plain_number(text)
    except ValueError:  # with argparse's own message
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def parse_snr_grid(text):
    """Parse "start:step:stop" (stop inclusive when on the grid) or a single value.

    Parts must be finite, start and stop within +-MAX_ABS_SNR_DB (beyond it the
    linear powers overflow) and the grid at most MAX_SNR_POINTS long."""
    parts = text.split(":")
    if len(parts) not in (1, 3):
        raise IaRtddError(f"SNR grid must be START:STEP:STOP, got {text!r}")
    try:
        values = [_plain_number(p, float) for p in parts]
    except ValueError:
        raise IaRtddError(f"could not parse SNR grid {text!r}")
    if not (all(math.isfinite(v) for v in values)
            and max(abs(values[0]), abs(values[-1])) <= MAX_ABS_SNR_DB):
        raise IaRtddError(f"SNR values must be finite and the grid within "
                          f"+-{MAX_ABS_SNR_DB:g} dB, got {text!r}")
    if len(values) == 1:
        return values
    start, step, stop = values
    if step <= 0:
        raise IaRtddError("SNR grid step must be > 0")
    if stop < start:
        raise IaRtddError("SNR grid stop must be >= start")
    grid = []
    while start + len(grid) * step <= stop + 1e-9:
        if len(grid) == MAX_SNR_POINTS:
            raise IaRtddError(
                f"SNR grid {text!r} has more than {MAX_SNR_POINTS} points")
        grid.append(start + len(grid) * step)
    return grid


def _parse_dof(args, config):
    if not args.dof:
        raise IaRtddError("--dof is required for this command")
    dof = DofAllocation.parse(args.dof)
    validate_config(config, dof)
    return dof


def _cmd_check(args):
    config = _load_config(args.config)
    dof = _parse_dof(args, config)
    reports = {}
    if args.mode != "sufficient":
        reports["necessary"] = feasibility.check_necessary(config, dof)
    if args.mode != "necessary":
        reports["sufficient"] = feasibility.check_sufficient(
            config, dof, args.trials, RngStream(args.seed, 0))
    # the sufficient report decides whenever it was asked for
    decisive = list(reports.values())[-1]
    data = (reports[args.mode].to_dict() if args.mode else
            {**{name: r.to_dict() for name, r in reports.items()},
             "feasible": bool(decisive.verdict)})
    _emit_json(data, args.out)
    return 1 if args.strict and not decisive.verdict else 0


def _cmd_search(args):
    config = _load_config(args.config)
    rng = RngStream(args.seed, 0)
    if args.mode:
        data = feasibility.search_max_sum_dof(config, args.mode, args.trials,
                                              rng).to_dict()
    else:
        both = feasibility.search_optimal(config, args.trials, rng)
        suff = both["sufficient"].to_dict()
        data = {
            "d_sum": suff["d_sum"],
            "optimal": both["optimal"],
            "gap": both["gap"],
            "necessary_bound": both["necessary"].d_sum,
            "sufficient_certified": suff["d_sum"],
            "allocation": suff["allocation"],
            "necessary": both["necessary"].to_dict(),
            "sufficient": suff,
        }
    _emit_json(data, args.out)
    return 1 if args.strict and data["d_sum"] == 0 else 0


def _cmd_symmetric(args):
    config = _load_config(args.config)
    dof = DofAllocation.parse(args.dof) if args.dof else None
    if dof is None or len(dof.d_alpha) != 1 or len(dof.d_beta) != 1:
        raise IaRtddError(
            'symmetric mode takes --dof "D_ALPHA;D_BETA" with one value per cell')
    report = feasibility.check_symmetric_sufficient(
        config, dof.d_alpha[0], dof.d_beta[0])
    _emit_json(report.to_dict(), args.out)
    return 1 if args.strict and not report.verdict else 0


def _pipeline(args, config, dof, build):
    """The seeded channel draw and ``build`` (`construct_beamformers` or
    `iterate_alignment`) on it at the one SNR of ``--snr``."""
    if ":" in args.snr:
        raise IaRtddError(f"--snr takes one value here, not a grid: {args.snr!r}")
    powers = evaluate.power_profile_for_snr(config, parse_snr_grid(args.snr)[0])
    channels = sample_channels(config, RngStream(args.seed, 0))
    opts = IterationOptions(max_iters=args.iters)
    return channels, build(channels, dof, powers, opts, rng=RngStream(args.seed, 1))


def _cmd_construct(args):
    config = _load_config(args.config)
    dof = _parse_dof(args, config)
    channels, (bf, trace) = _pipeline(args, config, dof, construct_beamformers)
    report = residual_report(channels, bf, dof)
    _emit_json({
        "residuals": report.to_dict(),
        "max_inter_alpha": report.max_inter_alpha,
        "max_inter_beta": report.max_inter_beta,
        "max_intra_alpha": report.max_intra_alpha,
        "max_intra_beta": report.max_intra_beta,
        "min_margin": report.min_margin,
        "leakage": {"iterations": trace.iterations, "final": trace.final,
                    "converged": trace.converged},
    }, args.out)
    return 0


def _emit_table(args, data, write_csv):
    """``data`` as JSON under ``--format json``, else the CSV of ``write_csv``."""
    if args.format == "json":
        _emit_json(data, args.out)
    else:
        buf = io.StringIO()
        write_csv(buf)
        _emit(buf.getvalue(), args.out)
    return 0


def _cmd_simulate_leakage(args):
    config = _load_config(args.config)
    dof = _parse_dof(args, config)
    _, (_, _, trace) = _pipeline(args, config, dof, iterate_alignment)
    return _emit_table(args, {"converged": trace.converged,
                              "totals": list(trace.totals),
                              "per_user": trace.per_user.tolist()}, trace.write_csv)


def _cmd_simulate_sumrate(args):
    config = _load_config(args.config)
    dof = _parse_dof(args, config)
    grid = parse_snr_grid(args.snr)
    opts = IterationOptions(max_iters=args.iters)
    result = evaluate.monte_carlo_sweep(config, dof, grid, args.trials, opts,
                                        args.seed)
    return _emit_table(args, result.to_dict(), result.write_csv)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ia-rtdd",
        description="One-shot linear interference alignment for two-cell "
                    "reverse-TDD MIMO networks: feasibility, beamformer "
                    "construction, and sum-rate simulation.")
    sub = parser.add_subparsers(dest="command", required=True)

    alloc = 'allocation, e.g. "3,3,3,3;2,2,2"'

    def common(p, dof_help=None, seed=True, strict=False):
        """The flags shared by the subcommands, declared only where read."""
        p.add_argument("--config", required=True,
                       help="network config JSON path")
        if dof_help:
            p.add_argument("--dof", help=dof_help)
        if seed:
            p.add_argument("--seed", type=_int_arg, default=0)
        p.add_argument("--out", help="output path (default stdout)")
        if strict:
            p.add_argument("--strict", action="store_true",
                           help="exit 1 on an infeasible verdict")

    p = sub.add_parser("check", help="feasibility of one allocation")
    common(p, alloc, strict=True)
    p.add_argument("--mode", choices=["necessary", "sufficient"],
                   help="restrict to one decider (default: both)")
    p.add_argument("--trials", type=_int_arg, default=feasibility.DEFAULT_RANK_TRIALS)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("search", help="maximum sum DoF search")
    common(p, strict=True)
    p.add_argument("--mode", choices=["necessary", "sufficient"],
                   help="restrict to one decider (default: both + optimal flag)")
    p.add_argument("--trials", type=_int_arg, default=feasibility.DEFAULT_RANK_TRIALS)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("symmetric", help="symmetric-allocation test")
    common(p, 'per-cell stream counts, e.g. "4;2"', seed=False, strict=True)
    p.set_defaults(func=_cmd_symmetric)

    p = sub.add_parser("construct", help="build beamformers, report residuals")
    common(p, alloc)
    p.add_argument("--iters", type=_int_arg, default=5000)
    p.add_argument("--snr", default="30", help="operating SNR in dB")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("simulate-leakage", help="leakage trace CSV")
    common(p, alloc)
    p.add_argument("--iters", type=_int_arg, default=2000)
    p.add_argument("--snr", default="30", help="operating SNR in dB")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=_cmd_simulate_leakage)

    p = sub.add_parser("simulate-sumrate", help="Monte-Carlo sum-rate sweep CSV")
    common(p, alloc)
    p.add_argument("--iters", type=_int_arg, default=3000)
    p.add_argument("--snr", default="0:5:50", help="SNR grid START:STEP:STOP in dB")
    p.add_argument("--trials", type=_int_arg, default=100)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=_cmd_simulate_sumrate)

    return parser


def _check_counts(args):
    """Refuse a negative ``--seed`` and ``--trials`` below 1 in every mode,
    including those that never read the value."""
    if getattr(args, "seed", None) is not None:
        RngStream(args.seed)
    if getattr(args, "trials", None) is not None:
        validate_trials(args.trials)


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        _check_counts(args)
        return args.func(args)
    except IaRtddError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
