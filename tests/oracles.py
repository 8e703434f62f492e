"""Independent brute-force oracles used to cross-check the fast paths.

Everything here is written with itertools loops straight from the condition
definitions, deliberately sharing no code with the package internals; the
rate reference shares only the log-determinant step, since what it checks is
which links are summed and in what order, and the sweep reference shares the
pipeline steps it calls per trial, since what it checks is the order of the
draws and folds around them.
"""

import itertools

import numpy as np

from ia_rtdd.beamform import (BeamformerSet, PowerProfile, construct_beamformers,
                              _guarded_pinv, _no_streams, _normalize_matrix, _split)
from ia_rtdd.errors import NumericalError, SingularSystemError
from ia_rtdd.evaluate import (SweepResult, _log2_det_ratio, _round_robin_streams,
                              baseline_point_to_point, power_profile_for_snr,
                              snr_to_power)
from ia_rtdd.model import RngStream, sample_channels


def iter_subset_pairs(num_alpha, num_beta):
    for ra in range(num_alpha + 1):
        for i_alpha in itertools.combinations(range(num_alpha), ra):
            for rb in range(num_beta + 1):
                for i_beta in itertools.combinations(range(num_beta), rb):
                    yield i_alpha, i_beta


def brute_first_violations(config, d_alpha, d_beta):
    """Lexicographically first violating subset pair per condition (or None)."""
    viol_bound = []
    viol_count = []
    for i_alpha, i_beta in iter_subset_pairs(config.num_alpha, config.num_beta):
        sd = sum(d_alpha[k] for k in i_alpha) + sum(d_beta[l] for l in i_beta)
        cap = max(sum(config.n_alpha[k] for k in i_alpha),
                  sum(config.n_beta[l] for l in i_beta))
        if sd > cap:
            viol_bound.append((i_alpha, i_beta))
        eqs = sum(d_alpha[k] for k in i_alpha) * sum(d_beta[l] for l in i_beta)
        free = sum(d_alpha[k] * (config.n_alpha[k] - d_alpha[k]) for k in i_alpha) \
            + sum(d_beta[l] * (config.n_beta[l] - d_beta[l]) for l in i_beta)
        if eqs > free:
            viol_count.append((i_alpha, i_beta))
    first_bound = min(viol_bound) if viol_bound else None
    first_count = min(viol_count) if viol_count else None
    return first_bound, first_count


def brute_necessary(config, d_alpha, d_beta):
    """Direct evaluation of every converse condition; returns dict of bools."""
    bound, count = brute_first_violations(config, d_alpha, d_beta)
    return {
        "8a": sum(d_alpha) <= config.m_alpha,
        "8b": sum(d_beta) <= config.m_beta,
        "8c": sum(d_alpha) + sum(d_beta) <= max(config.m_alpha, config.m_beta),
        "8d": bound is None,
        "8e": count is None,
    }


def brute_symmetric_counting(config, d_alpha, d_beta):
    """Direct enumeration of the symmetric per-subset counting condition."""
    for i_alpha, i_beta in iter_subset_pairs(config.num_alpha, config.num_beta):
        lhs = len(i_alpha) * len(i_beta) * d_alpha * d_beta
        rhs = sum(d_alpha * (config.n_alpha[k] - d_alpha) for k in i_alpha) \
            + sum(d_beta * (config.n_beta[l] - d_beta) for l in i_beta)
        if lhs > rhs:
            return False
    return True


def channel_scale(channels):
    """Mean Frobenius norm over every matrix in the channel set."""
    mats = list(channels.h_alpha)
    mats += [g for row in channels.g_cross for g in row]
    mats += list(channels.h_beta)
    mats.append(channels.g_bs)
    return float(np.mean([np.linalg.norm(m) for m in mats]))


def per_user_alignment_loop(g_cross, n_alpha, n_beta, d_alpha, d_beta,
                            w_alpha, w_beta, u0, max_iters, rel_stop):
    """One user at a time, the reference for `_kernels.alignment_loop`.

    Same arguments, returns and arithmetic (operands, summation order, eigh
    inputs and stopping test), so the two must agree bit for bit.
    """
    K, L = len(n_alpha), len(n_beta)
    u = [np.ascontiguousarray(m) for m in u0]
    v = [np.zeros((n, 0), dtype=complex) for n in n_beta]
    totals, per_user = [], []

    def phase_fixed(vecs, d):
        out = np.zeros((vecs.shape[0], d), dtype=complex)
        for c in range(d):
            col = vecs[:, c].copy()
            tol = 1e-12 * np.abs(col).max()
            for r in range(len(col)):
                mag = np.abs(col[r])
                if mag > tol:
                    col = col * (np.conj(col[r]) / mag)
                    break
            out[:, c] = col
        return out

    def gram(t):
        return t @ np.ascontiguousarray(t.conj().T)

    while len(totals) < max_iters:
        for l in range(L):
            if d_beta[l]:
                cov = np.zeros((n_beta[l], n_beta[l]), dtype=complex)
                for k in range(K):
                    if d_alpha[k]:
                        g_h = np.ascontiguousarray(g_cross[k][l].conj().T)
                        cov += w_alpha[k] * gram(g_h @ u[k])
                v[l] = phase_fixed(np.linalg.eigh(cov)[1], d_beta[l])
        leaks = np.zeros(K)
        for k in range(K):
            if d_alpha[k]:
                cov = np.zeros((n_alpha[k], n_alpha[k]), dtype=complex)
                for l in range(L):
                    if d_beta[l]:
                        cov += w_beta[l] * gram(g_cross[k][l] @ v[l])
                vals, vecs = np.linalg.eigh(cov)
                u[k] = phase_fixed(vecs, d_alpha[k])
                leaks[k] = sum(x for x in vals[:d_alpha[k]] if x > 0.0)
        totals.append(sum((leaks[k] for k in range(K) if d_alpha[k]), 0.0))
        per_user.append(leaks)
        if totals[-1] <= rel_stop * totals[0]:
            break
    converged = totals[-1] <= rel_stop * totals[0]
    return (tuple(u), tuple(v), np.array(totals), np.array(per_user),
            len(totals), bool(converged))


def per_side_rates(channels, bf, powers):
    """Per-user rates, one formula per cell, the reference for `sum_rate`.

    Each receiver sums the interference of its own cell first, then of the
    other cell, skipping zero-stream transmitters, with the package's
    operands, so the two must agree bit for bit.
    Returns ``(per_alpha, per_beta)``.
    """
    def outer(mat, weight):
        return weight * (mat @ mat.conj().T)

    def rate_alpha(k):
        u = bf.u_alpha[k]
        d = u.shape[1]
        if d == 0:
            return 0.0
        uh = u.conj().T @ channels.h_alpha[k]
        c_desire = outer(uh @ bf.v_alpha[k], powers.p_alpha[k] / d)
        c_interf = np.zeros((d, d), dtype=np.complex128)
        for i, v in enumerate(bf.v_alpha):
            di = v.shape[1]
            if i == k or di == 0:
                continue
            c_interf += outer(uh @ v, powers.p_alpha[i] / di)
        for l, v in enumerate(bf.v_beta):
            dl = v.shape[1]
            if dl == 0:
                continue
            c_interf += outer(u.conj().T @ channels.g_cross[k][l] @ v,
                              powers.p_beta[l] / dl)
        return _log2_det_ratio(c_desire, c_interf)

    def rate_beta(l):
        u = bf.u_beta[l]
        d = u.shape[1]
        if d == 0:
            return 0.0
        c_desire = outer(u.conj().T @ channels.h_beta[l] @ bf.v_beta[l],
                         powers.p_beta[l] / d)
        c_interf = np.zeros((d, d), dtype=np.complex128)
        for j, v in enumerate(bf.v_beta):
            dj = v.shape[1]
            if j == l or dj == 0:
                continue
            c_interf += outer(u.conj().T @ channels.h_beta[j] @ v,
                              powers.p_beta[j] / dj)
        ug = u.conj().T @ channels.g_bs
        for i, v in enumerate(bf.v_alpha):
            di = v.shape[1]
            if di == 0:
                continue
            c_interf += outer(ug @ v, powers.p_alpha[i] / di)
        return _log2_det_ratio(c_desire, c_interf)

    return (tuple(rate_alpha(k) for k in range(len(bf.u_alpha))),
            tuple(rate_beta(l) for l in range(len(bf.u_beta))))


def _single_cell_rate(channels, config, power, downlink):
    """Zero-forcing sum rate of one cell running alone at one power, filters
    built from scratch and rated by `per_side_rates`."""
    K, L = config.num_alpha, config.num_beta
    if downlink:
        streams = _round_robin_streams(config.n_alpha, config.m_alpha)
        u_alpha = tuple(np.linalg.svd(h)[0][:, :s]
                        for h, s in zip(channels.h_alpha, streams))
        rows = [u.conj().T @ h for u, h in zip(u_alpha, channels.h_alpha)]
        pre = _guarded_pinv(np.vstack(rows), "single-cell downlink")
        v_alpha = _split(_normalize_matrix(pre, "single-cell precoder"), streams, 1)
        bf = BeamformerSet(u_alpha, v_alpha, _no_streams([config.m_beta] * L),
                           _no_streams(config.n_beta))
        p_user = power / sum(1 for s in streams if s)
        powers = PowerProfile((p_user,) * K, (0.0,) * L)
        return sum(per_side_rates(channels, bf, powers)[0])
    streams = _round_robin_streams(config.n_beta, config.m_beta)
    v_beta = tuple(np.linalg.svd(h)[2].conj().T[:, :s]
                   for h, s in zip(channels.h_beta, streams))
    blocks = [h @ v for h, v in zip(channels.h_beta, v_beta)]
    p_up = _guarded_pinv(np.hstack(blocks), "single-cell uplink")
    u_beta = tuple(_normalize_matrix(blk.conj().T, "single-cell postcoder")
                   for blk in _split(p_up, streams, 0))
    bf = BeamformerSet(_no_streams(config.n_alpha), _no_streams([config.m_alpha] * K),
                       u_beta, v_beta)
    powers = PowerProfile((0.0,) * K, (power,) * L)
    return sum(per_side_rates(channels, bf, powers)[1])


def per_point_sweep(config, dof, snr_grid_db, trials, opts=None, seed=0):
    """One grid point at a time, the reference for `evaluate.monte_carlo_sweep`.

    Every (grid point, trial) redraws the trial's channels, and the baseline
    redraws them again and rebuilds its filters, so the two must agree bit
    for bit on every point with a successful trial.
    """
    K, L = config.num_alpha, config.num_beta
    rows = {"sum": [], "alpha": [], "beta": [], "single": [], "p2p": [],
            "ok": [], "failed": []}
    for snr_db in snr_grid_db:
        powers = power_profile_for_snr(config, snr_db)
        acc_alpha, acc_beta = np.zeros(K), np.zeros(L)
        ok = failed = 0
        for t in range(trials):
            channels = sample_channels(config, RngStream(seed, t))
            try:
                bf, _ = construct_beamformers(channels, dof, powers, opts,
                                              rng=RngStream(seed, trials + t))
                per_alpha, per_beta = per_side_rates(channels, bf, powers)
            except (SingularSystemError, NumericalError):
                failed += 1
                continue
            acc_alpha += np.asarray(per_alpha)
            acc_beta += np.asarray(per_beta)
            ok += 1
        if ok:
            mean_alpha, mean_beta = acc_alpha / ok, acc_beta / ok
            mean_sum = float(mean_alpha.sum() + mean_beta.sum())
        else:
            mean_alpha, mean_beta = np.full(K, np.nan), np.full(L, np.nan)
            mean_sum = float("nan")
        power = snr_to_power(snr_db)
        sum_alpha = sum_beta = 0.0
        for t in range(trials):
            channels = sample_channels(config, RngStream(seed, t))
            sum_alpha += _single_cell_rate(channels, config, power, True)
            sum_beta += _single_cell_rate(channels, config, power, False)
        rows["sum"].append(mean_sum)
        rows["alpha"].append(tuple(mean_alpha))
        rows["beta"].append(tuple(mean_beta))
        rows["single"].append(max(sum_alpha / trials, sum_beta / trials))
        rows["p2p"].append(baseline_point_to_point(snr_db))
        rows["ok"].append(ok)
        rows["failed"].append(failed)
    return SweepResult(tuple(float(s) for s in snr_grid_db), tuple(rows["sum"]),
                       tuple(rows["alpha"]), tuple(rows["beta"]),
                       tuple(rows["single"]), tuple(rows["p2p"]),
                       tuple(rows["ok"]), tuple(rows["failed"]), trials, seed)
