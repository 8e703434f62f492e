"""Achievable-rate evaluation, Monte-Carlo SNR sweeps, and baselines.

Rates follow the standard aligned-MIMO form
``log2 det(I + C_desire (I + C_intra + C_inter)^-1)`` evaluated as a
log-determinant difference of two identity-plus-PSD matrices, which avoids
any explicit inverse; the covariances are built from the effective links of
`beamform._link_blocks`.  The sweep takes one trial at a time: it draws
the trial's channels and builds its single-cell baseline once, builds the
stage-1 filters of its grid points in one stacked alignment loop (per
slice of STAGE1_BATCH points), then zero-forces and rates both at every
grid point, with fixed random substreams, so results are bit-reproducible
for a given seed; means are ordered folds over ascending trial index.
"""

import math
from dataclasses import dataclass

import numpy as np

# construct_beamformers is not called here, but perfbench/spans.py traces
# it at this lookup site, so the name stays
from .beamform import (FLOAT_FORMAT, BeamformerSet, PowerProfile,
                       complete_beamformers, construct_beamformers,
                       iterate_alignment_batch, _guarded_pinv, _link_blocks,
                       _no_streams, _normalize_matrix, _split)
from .errors import ConfigError, NumericalError, SingularSystemError
from .model import (RngStream, sample_channels, validate_config,
                    validate_trials)

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


def _herm(a):
    return 0.5 * (a + a.conj().T)


def _log2_det_ratio(c_desire, c_interf):
    """log2 det(I + C_d (I + C_i)^-1) for Hermitian PSD C_d, C_i."""
    d = c_desire.shape[0]
    eye = np.eye(d)
    base = _herm(eye + c_interf)
    full = _herm(base + c_desire)
    sign_f, ld_f = np.linalg.slogdet(full)
    sign_b, ld_b = np.linalg.slogdet(base)
    val = (ld_f - ld_b) / _LN2
    if sign_f <= 0 or sign_b <= 0 or not np.isfinite(val):
        raise NumericalError(
            f"rate evaluation produced a non-finite value (interference "
            f"condition number {np.linalg.cond(base):.3e})")
    return max(0.0, val)


def _outer(mat, weight):
    return weight * (mat @ mat.conj().T)


def _user_rates(blocks, powers):
    """Achievable rate of every user in bits per channel use, downlink first.

    ``blocks`` is the link table of `beamform._link_blocks`.  Receiver r
    rates its desired link ``blocks[r][r]`` against the other users of its
    own cell, then those of the other cell, each at its power per stream;
    users without streams neither receive nor interfere.
    """
    K = len(powers.p_alpha)
    p = powers.p_alpha + powers.p_beta
    order = list(range(len(blocks)))
    rates = []
    for r, row in enumerate(blocks):
        d = row[r].shape[0]
        if d == 0:
            rates.append(0.0)
            continue
        c_desire = _outer(row[r], p[r] / d)
        c_interf = np.zeros((d, d), dtype=np.complex128)
        for t in order[K:] + order[:K] if r >= K else order:
            d_t = row[t].shape[1]
            if t != r and d_t:
                c_interf += _outer(row[t], p[t] / d_t)
        rates.append(_log2_det_ratio(c_desire, c_interf))
    return rates


def sum_rate(channels, bf, powers):
    """Per-user rates of a beamformer set, as a `RateBreakdown`."""
    rates = _user_rates(_link_blocks(channels, bf), powers)
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
    """Zero-forcing link tables of each cell running alone, and the number of
    downlink users with streams; none of them depends on the SNR.

    Each cell's filters go into a `BeamformerSet` whose other cell has no
    streams, so its table holds the links `_user_rates` reads.
    """
    streams = _round_robin_streams(config.n_alpha, config.m_alpha)
    u_alpha = tuple(np.linalg.svd(h)[0][:, :s]
                    for h, s in zip(channels.h_alpha, streams))
    rows = [u.conj().T @ h for u, h in zip(u_alpha, channels.h_alpha)]
    pre = _guarded_pinv(np.vstack(rows), "single-cell downlink")
    v_alpha = _split(_normalize_matrix(pre, "single-cell precoder"), streams, 1)
    down = BeamformerSet(u_alpha, v_alpha,
                         _no_streams([config.m_beta] * config.num_beta),
                         _no_streams(config.n_beta))
    active = sum(1 for s in streams if s)

    streams = _round_robin_streams(config.n_beta, config.m_beta)
    v_beta = tuple(np.linalg.svd(h)[2].conj().T[:, :s]
                   for h, s in zip(channels.h_beta, streams))
    blocks = [h @ v for h, v in zip(channels.h_beta, v_beta)]
    p_up = _guarded_pinv(np.hstack(blocks), "single-cell uplink")
    u_beta = tuple(_normalize_matrix(blk.conj().T, "single-cell postcoder")
                   for blk in _split(p_up, streams, 0))
    up = BeamformerSet(_no_streams(config.n_alpha),
                       _no_streams([config.m_alpha] * config.num_alpha),
                       u_beta, v_beta)
    return _link_blocks(channels, down), _link_blocks(channels, up), active


def _single_cell_rates(links, config, power):
    """(downlink, uplink) zero-forcing sum rates of the cells of
    `_single_cell_links` at linear power ``power``: the downlink BS splits it
    over its active users, every uplink user transmits at it."""
    down, up, active = links
    K, L = config.num_alpha, config.num_beta
    p_user = power / active
    rates_a = _user_rates(down, PowerProfile((p_user,) * K, (0.0,) * L))
    rates_b = _user_rates(up, PowerProfile((0.0,) * K, (power,) * L))
    return sum(rates_a[:K]), sum(rates_b[K:])


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

    def write_csv(self, fh):
        k_users = len(self.mean_alpha[0]) if self.mean_alpha else 0
        l_users = len(self.mean_beta[0]) if self.mean_beta else 0
        header = ["snr_db", "mean_sum_rate"]
        header += [f"mean_rate_alpha_{k + 1}" for k in range(k_users)]
        header += [f"mean_rate_beta_{l + 1}" for l in range(l_users)]
        header += ["baseline_single_cell", "baseline_p2p", "trials_ok",
                   "trials_failed"]
        fh.write(",".join(header) + "\n")
        for i in range(len(self.snr_db)):
            row = [FLOAT_FORMAT % self.snr_db[i],
                   FLOAT_FORMAT % self.mean_sum_rate[i]]
            row += [FLOAT_FORMAT % v for v in self.mean_alpha[i]]
            row += [FLOAT_FORMAT % v for v in self.mean_beta[i]]
            row += [FLOAT_FORMAT % self.baseline_single_cell[i],
                    FLOAT_FORMAT % self.baseline_p2p[i],
                    str(self.trials_ok[i]), str(self.trials_failed[i])]
            fh.write(",".join(row) + "\n")

    def to_dict(self):
        return {
            "seed": self.seed,
            "trials": self.trials,
            "rows": [
                {
                    "snr_db": self.snr_db[i],
                    "mean_sum_rate": self.mean_sum_rate[i],
                    "mean_rate_alpha": list(self.mean_alpha[i]),
                    "mean_rate_beta": list(self.mean_beta[i]),
                    "baseline_single_cell": self.baseline_single_cell[i],
                    "baseline_p2p": self.baseline_p2p[i],
                    "trials_ok": self.trials_ok[i],
                    "trials_failed": self.trials_failed[i],
                }
                for i in range(len(self.snr_db))
            ],
        }


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
