"""Achievable-rate evaluation, Monte-Carlo SNR sweeps, and baselines.

Rates follow the standard aligned-MIMO form
``log2 det(I + C_desire (I + C_intra + C_inter)^-1)``, read off the
singular values of each receiver's power-scaled row of effective links,
built one row at a time by `beamform._link_rows`.  The single-cell baseline
completes each cell alone with stage 2 (`zero_force_step2`, `normalize`),
the other cell's users as empty blocks, and rebuilds the rows of each cell
at every SNR.  The sweep takes one trial at a time: it draws the trial's
channels and builds its single-cell beamformers once, builds the stage-1
filters of its grid points in one stacked alignment loop (per slice of
STAGE1_BATCH points), then zero-forces and rates both at every grid point,
with fixed random substreams, so results are bit-reproducible for a given
seed; means are ordered folds over ascending trial index.
"""

import math
from dataclasses import dataclass

import numpy as np

# construct_beamformers is not called here, but perfbench/spans.py traces
# it at this lookup site, so the name stays
from .beamform import (FLOAT_FORMAT, BeamformerSet, PowerProfile,
                       complete_beamformers, construct_beamformers,
                       iterate_alignment_batch, normalize, zero_force_step2,
                       _link_rows)
from .errors import ConfigError, NumericalError, SingularSystemError
from .model import (DofAllocation, RngStream, _guard_entries, sample_channels,
                    validate_config, validate_trials)

_LN2 = math.log(2.0)
MAX_ABS_SNR_DB = 300.0  # near 3080 dB the powers overflow the rate arithmetic
# Grid points whose stage-1 builds share one alignment loop: a longer grid
# runs in slices, so the leakage records alive at once stay bounded.
STAGE1_BATCH = 16


def snr_to_power(snr_db):
    """Linear power of an SNR in dB; -inf dB is zero power."""
    if not snr_db <= MAX_ABS_SNR_DB:
        raise ConfigError(f"SNR must be at most {MAX_ABS_SNR_DB:g} dB, got {snr_db!r}")
    return 10.0 ** (snr_db / 10.0)


def power_profile_for_snr(config, snr_db):
    """Sweep power convention: the downlink BS budget equals the SNR and is
    split equally over its K users; every uplink user transmits at the SNR."""
    p = snr_to_power(snr_db)
    return PowerProfile((p / config.num_alpha,) * config.num_alpha,
                        (p,) * config.num_beta)


@dataclass(frozen=True)
class RateBreakdown:
    per_alpha: tuple
    per_beta: tuple

    @property
    def total(self):
        return sum(self.per_alpha) + sum(self.per_beta)


def _user_rates(rows, powers):
    """Achievable rate of every user in bits per channel use, downlink first.

    ``rows`` are the receiver rows of `beamform._link_rows`, read in order.
    Receiver r scales each link of its row by the root of its transmitter's
    power per stream; with ``X`` that row and ``Y`` it without the desired
    link ``row[r]``, the rate is ``log2 det(I + X X^H) - log2 det(I + Y Y^H)``,
    read off singular values.  Users without streams neither receive nor
    interfere: their blocks are empty.
    """
    p = powers.p_alpha + powers.p_beta
    rates = []
    for r, row in enumerate(rows):
        if not row[r].shape[0]:
            rates.append(0.0)
            continue
        scaled = [b * math.sqrt(p_t / max(b.shape[1], 1)) for b, p_t in zip(row, p)]
        x = np.hstack(scaled)
        if not np.isfinite(x).all():
            raise NumericalError("rate evaluation met a non-finite effective link")
        x_ld, y_ld = (np.log1p(np.linalg.svd(m, compute_uv=False) ** 2).sum()
                      for m in (x, np.hstack(scaled[:r] + scaled[r + 1:])))
        rates.append(max(0.0, (x_ld - y_ld) / _LN2))
    return rates


def sum_rate(channels, bf, powers):
    """Per-user rates of a beamformer set, as a `RateBreakdown`."""
    rates = _user_rates(_link_rows(channels, bf), powers)
    K = len(bf.u_alpha)
    return RateBreakdown(tuple(rates[:K]), tuple(rates[K:]))


def baseline_point_to_point(snr_db):
    """Capacity of a single-antenna point-to-point link at this SNR."""
    return math.log2(1.0 + snr_to_power(snr_db))


def _round_robin_streams(caps, m_antennas):
    """Deal min(M, sum(caps)) streams one at a time over users up to their caps."""
    out = [0] * len(caps)
    total = min(m_antennas, sum(caps))
    while total:
        for i, cap in enumerate(caps):
            if total and out[i] < cap:
                out[i] += 1
                total -= 1
    return out


def _single_cell_links(channels, config):
    """``(channels, downlink set, uplink set, active)``: the zero-forcing
    beamformer sets of each cell running alone and the number of downlink
    users with streams; none of them depends on the SNR.

    Streams are dealt round-robin and each user's filter spans the leading
    singular vectors of its direct channel.  Stage 2 then completes each
    cell on its own: the other cell's users get zero-width filters, so their
    links are empty blocks.
    """
    d_a = _round_robin_streams(config.n_alpha, config.m_alpha)
    d_b = _round_robin_streams(config.n_beta, config.m_beta)
    # full SVDs: each direct channel's square factors
    _guard_entries(max(config.m_alpha, config.m_beta, *config.n_alpha,
                       *config.n_beta) ** 2, "a single-cell SVD factor")
    u_alpha = tuple(np.linalg.svd(h)[0][:, :s] for h, s in zip(channels.h_alpha, d_a))
    v_beta = tuple(np.linalg.svd(h)[2].conj().T[:, :s]
                   for h, s in zip(channels.h_beta, d_b))
    sets = []
    for dof, u_a, v_b in ((DofAllocation(d_a, [0] * len(d_b)), u_alpha,
                           tuple(v[:, :0] for v in v_beta)),
                          (DofAllocation([0] * len(d_a), d_b),
                           tuple(u[:, :0] for u in u_alpha), v_beta)):
        v_alpha, u_beta = zero_force_step2(channels, dof, u_a, v_b)
        sets.append(normalize(BeamformerSet(u_a, v_alpha, u_beta, v_b)))
    return channels, sets[0], sets[1], sum(1 for s in d_a if s)


def _single_cell_rates(links, config, power):
    """(downlink, uplink) zero-forcing sum rates of the cells of
    `_single_cell_links` at linear power ``power``: the downlink BS splits it
    over its active users, every uplink user transmits at it."""
    channels, down, up, active = links
    powers = PowerProfile((power / active,) * config.num_alpha,
                          (power,) * config.num_beta)
    return tuple(sum(_user_rates(_link_rows(channels, bf), powers))
                 for bf in (down, up))


def baseline_single_cell(config, snr_db, trials, seed):
    """Mean sum rate of the better cell running alone with zero-forcing.

    Streams are split round-robin up to each user's antenna count; the
    downlink splits the SNR budget over its active users while every uplink
    user transmits at the SNR, matching the sweep's power convention.  Both
    cells are rated by the same per-user rates as `sum_rate`.
    """
    trials = validate_trials(trials)
    power = snr_to_power(snr_db)
    sums = np.zeros(2)
    for t in range(trials):
        channels = sample_channels(config, RngStream(seed, t))
        sums += _single_cell_rates(_single_cell_links(channels, config), config, power)
    return float(max(sums / trials))


@dataclass(frozen=True)
class SweepResult:
    """Mean rates over a Monte-Carlo SNR sweep, one row per grid point."""

    snr_db: tuple
    mean_sum_rate: tuple
    mean_alpha: tuple
    mean_beta: tuple
    baseline_single_cell: tuple
    baseline_p2p: tuple
    trials_ok: tuple
    trials_failed: tuple
    trials: int
    seed: int

    def rows(self):
        """One `_sweep_row` per grid point: the JSON rows and the CSV lines."""
        return [_sweep_row(*point) for point in zip(
            self.snr_db, self.mean_sum_rate, self.mean_alpha, self.mean_beta,
            self.baseline_single_cell, self.baseline_p2p, self.trials_ok,
            self.trials_failed)]

    def write_csv(self, fh):
        rows = [dict(_csv_cells(row)) for row in self.rows()]
        # an empty grid has no users to number: the header of a row without any
        fh.write(",".join(rows[0] if rows else dict(_csv_cells(_sweep_row(*[()] * 8))))
                 + "\n")
        for row in rows:
            fh.write(",".join(str(v) if isinstance(v, int) else FLOAT_FORMAT % v
                              for v in row.values()) + "\n")

    def to_dict(self):
        return {"seed": self.seed, "trials": self.trials, "rows": self.rows()}


def _sweep_row(snr_db, mean_sum_rate, alpha, beta, single_cell, p2p, ok, failed):
    """A `SweepResult` grid point, keys in column order; per-user means as lists."""
    return {"snr_db": snr_db, "mean_sum_rate": mean_sum_rate,
            "mean_rate_alpha": list(alpha), "mean_rate_beta": list(beta),
            "baseline_single_cell": single_cell, "baseline_p2p": p2p,
            "trials_ok": ok, "trials_failed": failed}


def _csv_cells(row):
    """A row's ``(column, value)`` cells, each list spread over columns
    numbered from 1."""
    for key, value in row.items():
        if isinstance(value, list):
            yield from ((f"{key}_{i + 1}", v) for i, v in enumerate(value))
        else:
            yield key, value


def monte_carlo_sweep(config, dof, snr_grid_db, trials, opts=None, seed=0):
    """Run the full pipeline per trial and grid point and average the rates.

    Channels for trial t come from substream t of the seed and the filter
    initialization from substream trials + t, so reruns with the same seed
    are bit-identical.  Each trial draws its channels and builds the
    single-cell baseline once, runs the stage-1 builds of up to
    STAGE1_BATCH grid points as one `iterate_alignment_batch`, each
    bit-identical to a build on its own, then completes the beamformers and
    rates both at every grid point.  Trials that raise a singular-system or
    numerical error are dropped from the means and counted per grid point;
    a grid point only fails when every trial failed (mean reported as NaN).
    """
    validate_config(config, dof)
    trials = validate_trials(trials)
    K = config.num_alpha
    grid = [float(s) for s in snr_grid_db]
    profiles = [power_profile_for_snr(config, snr_db) for snr_db in grid]
    acc = np.zeros((len(grid), K + config.num_beta))
    single = np.zeros((len(grid), 2))
    ok = np.zeros(len(grid), dtype=int)
    for t in range(trials):
        channels = sample_channels(config, RngStream(seed, t))
        links = _single_cell_links(channels, config)
        for lo in range(0, len(grid), STAGE1_BATCH):
            stage1 = iterate_alignment_batch(channels, dof,
                                             profiles[lo:lo + STAGE1_BATCH], opts,
                                             rng=RngStream(seed, trials + t))
            for i, (u_alpha, v_beta, _) in enumerate(stage1, lo):
                single[i] += _single_cell_rates(links, config, snr_to_power(grid[i]))
                try:
                    bf = complete_beamformers(channels, dof, u_alpha, v_beta)
                    rates = sum_rate(channels, bf, profiles[i])
                except (SingularSystemError, NumericalError):
                    continue
                acc[i] += rates.per_alpha + rates.per_beta
                ok[i] += 1
    with np.errstate(invalid="ignore"):
        means = acc / ok[:, None]
    return SweepResult(
        snr_db=tuple(grid),
        mean_sum_rate=tuple(float(m[:K].sum() + m[K:].sum()) for m in means),
        mean_alpha=tuple(tuple(m[:K]) for m in means),
        mean_beta=tuple(tuple(m[K:]) for m in means),
        baseline_single_cell=tuple(float(max(s / trials)) for s in single),
        baseline_p2p=tuple(baseline_point_to_point(snr_db) for snr_db in grid),
        trials_ok=tuple(int(n) for n in ok),
        trials_failed=tuple(trials - int(n) for n in ok),
        trials=trials,
        seed=seed,
    )
