"""Independent brute-force oracles used to cross-check the fast paths.

Everything here is written with itertools loops straight from the condition
definitions.  The rate reference shares no code with the package: it sums
covariances and takes a difference of log-determinants, where the package
reads singular values.  The other references share only the steps named
here, since what they check lies around those steps:

* the single-cell reference shares the round-robin stream split, the guarded
  pseudo-inverse, the column normalization and the block split, since what
  it checks is which zero-forcing problem each cell solves;
* the sweep reference shares the pipeline steps it calls per trial, rates
  and single-cell links included, since what it checks is the order of the
  draws and folds around them;
* the search reference shares the scalar deciders, since what it checks is
  the order and count of the allocations tried;
* the stage-2 reference shares the guarded pseudo-inverse and the block
  split, since what it checks is which blocks are stacked;
* the channel reference shares `complex_gaussian`, since what it checks is
  the draw order and the split of one draw into matrices.
"""

import itertools
import math

import numpy as np

from ia_rtdd.beamform import (BeamformerSet, PowerProfile, construct_beamformers,
                              _guarded_pinv, _normalize_matrix, _split)
from ia_rtdd.errors import NumericalError, SingularSystemError
from ia_rtdd.evaluate import (SweepResult, _round_robin_streams, _single_cell_links,
                              _single_cell_rates, baseline_point_to_point,
                              power_profile_for_snr, snr_to_power, sum_rate)
from ia_rtdd.feasibility import (HallResult, SearchResult, check_necessary,
                                 check_sufficient)
from ia_rtdd.model import (ChannelSet, DofAllocation, RngStream,
                            complex_gaussian, sample_channels)


def iter_subset_pairs(num_alpha, num_beta):
    for ra in range(num_alpha + 1):
        for i_alpha in itertools.combinations(range(num_alpha), ra):
            for rb in range(num_beta + 1):
                for i_beta in itertools.combinations(range(num_beta), rb):
                    yield i_alpha, i_beta


def brute_violations(config, d_alpha, d_beta):
    """Every subset pair violating each condition, antenna bound first."""
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
    return viol_bound, viol_count


def brute_first_violations(config, d_alpha, d_beta):
    """Lexicographically first violating subset pair per condition (or None)."""
    return tuple(min(pairs) if pairs else None
                 for pairs in brute_violations(config, d_alpha, d_beta))


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


def recursive_hall_condition(config, d_alpha, d_beta):
    """`feasibility.hall_condition` with a recursive augmenting path, for a
    divisible symmetric allocation: pairs in (k, l) order, each trying the
    spare blocks of its downlink user, then of its uplink user."""
    a_counts = tuple((n - d_alpha) // d_beta for n in config.n_alpha)
    b_counts = tuple((n - d_beta) // d_alpha for n in config.n_beta)
    owner = {}

    def try_assign(pair, seen):
        k, l = pair
        spares = [("alpha", k, i) for i in range(a_counts[k])]
        spares += [("beta", l, j) for j in range(b_counts[l])]
        for spare in spares:
            if spare in seen:
                continue
            seen.add(spare)
            if spare not in owner or try_assign(owner[spare], seen):
                owner[spare] = pair
                return True
        return False

    pairs = [(k, l) for k in range(config.num_alpha) for l in range(config.num_beta)]
    passed = all(try_assign(pair, set()) for pair in pairs)
    matching = {pair: spare for spare, pair in owner.items()} if passed else None
    return HallResult(passed, matching, a_counts, b_counts)


def per_block_alignment_matrix(channels, d_alpha, d_beta):
    """Alignment coefficient matrix assembled one stream at a time.

    Row block (k, l) takes ``kron(I, G[d_a:, :d_b].T)`` in the receive-filter
    columns of user (alpha, k) and, stacked once per stream m of that user,
    ``kron(I, G[m, d_b:])`` in the transmit-filter columns of user (beta, l).
    """
    n_alpha = [row[0].shape[0] for row in channels.g_cross]
    n_beta = [g.shape[1] for g in channels.g_cross[0]]
    row_off, off = {}, 0
    for k, da in enumerate(d_alpha):
        for l, db in enumerate(d_beta):
            row_off[k, l] = off
            off += da * db
    col_a, col_b, cols = [], [], 0
    for da, na in zip(d_alpha, n_alpha):
        col_a.append(cols)
        cols += da * (na - da)
    for db, nb in zip(d_beta, n_beta):
        col_b.append(cols)
        cols += db * (nb - db)
    mat = np.zeros((off, cols), dtype=np.complex128)
    for k, (da, na) in enumerate(zip(d_alpha, n_alpha)):
        for l, (db, nb) in enumerate(zip(d_beta, n_beta)):
            if da == 0 or db == 0:
                continue
            g = channels.g_cross[k][l]
            r0 = row_off[k, l]
            wa, wb = da * (na - da), db * (nb - db)
            if wa:
                mat[r0:r0 + da * db, col_a[k]:col_a[k] + wa] = \
                    np.kron(np.eye(da), g[da:, :db].T)
            if wb:
                stack = [np.kron(np.eye(db), g[m:m + 1, db:]) for m in range(da)]
                mat[r0:r0 + da * db, col_b[l]:col_b[l] + wb] = np.vstack(stack)
    return mat


def per_matrix_channels(config, rng):
    """One channel draw made one `complex_gaussian` call per matrix, in the
    draw order of `sample_channels`, every matrix read-only."""
    g = rng.generator()

    def draw(rows, cols):
        mat = complex_gaussian(g, rows, cols)
        mat.setflags(write=False)
        return mat

    h_alpha = tuple(draw(n, config.m_alpha) for n in config.n_alpha)
    g_cross = tuple(tuple(draw(na, nb) for nb in config.n_beta)
                    for na in config.n_alpha)
    h_beta = tuple(draw(config.m_beta, nb) for nb in config.n_beta)
    return ChannelSet(h_alpha, g_cross, h_beta, draw(config.m_beta, config.m_alpha))


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
    inputs and stopping test), so the two must agree bit for bit.  A
    covariance adds the other side's users in group order: users of one
    filter shape ``(N, d)`` together, the shapes in order of first
    appearance, each shape's users in index order.  The leakage totals add
    the users in index order.
    """
    K, L = len(n_alpha), len(n_beta)

    def group_order(n, d):
        shapes = list(dict.fromkeys((n_i, d_i) for n_i, d_i in zip(n, d) if d_i))
        return sorted((i for i in range(len(n)) if d[i]),
                      key=lambda i: (shapes.index((n[i], d[i])), i))

    order_a, order_b = group_order(n_alpha, d_alpha), group_order(n_beta, d_beta)
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
                for k in order_a:
                    g_h = np.ascontiguousarray(g_cross[k][l].conj().T)
                    cov += w_alpha[k] * gram(g_h @ u[k])
                v[l] = phase_fixed(np.linalg.eigh(cov)[1], d_beta[l])
        leaks = np.zeros(K)
        for k in range(K):
            if d_alpha[k]:
                cov = np.zeros((n_alpha[k], n_alpha[k]), dtype=complex)
                for l in order_b:
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


def _no_streams(rows):
    """Zero-column filters, one per user of a cell without streams."""
    return tuple(np.zeros((r, 0), dtype=np.complex128) for r in rows)


def two_branch_zero_force_step2(channels, dof, u_alpha, v_beta):
    """Stage 2 as two mirrored branches with a special case for each cell
    without streams, the reference for `beamform.zero_force_step2`.

    Same pseudo-inverses on the same operands, so the two must agree bit for
    bit; unlike it, a cell without streams still stacks the coupling term
    when the other cell solves first.  Returns ``(v_alpha, u_beta)``.
    """
    config = channels.config
    m_alpha, m_beta = config.m_alpha, config.m_beta
    K, L = config.num_alpha, config.num_beta
    da, db = dof.d_alpha, dof.d_beta
    sum_a, sum_b = sum(da), sum(db)

    eff_beta = [channels.h_beta[l] @ v_beta[l] for l in range(L)]
    eff_alpha = [u_alpha[k].conj().T @ channels.h_alpha[k] for k in range(K)]

    if m_alpha >= m_beta:
        if sum_b:
            h_up = np.hstack(eff_beta)
            p_up = _guarded_pinv(h_up, "downlink-heavy")
        else:
            p_up = np.zeros((0, m_beta), dtype=np.complex128)
        u_beta = tuple(blk.conj().T for blk in _split(p_up, db, 0))
        stack = eff_alpha + ([p_up @ channels.g_bs] if sum_b else [])
        if sum_a + sum_b == 0:
            return _no_streams([m_alpha] * K), u_beta
        h_dn = np.vstack(stack)
        r = _guarded_pinv(h_dn, "downlink-heavy")
        v_alpha = _split(r[:, :sum_a], da, 1)
        return v_alpha, u_beta

    if sum_a:
        h_dn = np.vstack(eff_alpha)
        r = _guarded_pinv(h_dn, "uplink-heavy")
        v_alpha = _split(r, da, 1)
    else:
        v_alpha = _no_streams([m_alpha] * K)
    stack = eff_beta + ([channels.g_bs @ np.hstack(v_alpha)] if sum_a else [])
    if sum_a + sum_b == 0:
        return v_alpha, _no_streams([m_beta] * L)
    h_up = np.hstack(stack)
    p_up = _guarded_pinv(h_up, "uplink-heavy")
    u_beta = tuple(blk.conj().T for blk in _split(p_up[:sum_b, :], db, 0))
    return v_alpha, u_beta


def _herm(a):
    return 0.5 * (a + a.conj().T)


def _log2_det_ratio(c_desire, c_interf):
    """log2 det(I + C_d (I + C_i)^-1) for Hermitian PSD C_d, C_i, as a
    difference of two log-determinants."""
    eye = np.eye(c_desire.shape[0])
    base = _herm(eye + c_interf)
    full = _herm(base + c_desire)
    sign_f, ld_f = np.linalg.slogdet(full)
    sign_b, ld_b = np.linalg.slogdet(base)
    val = (ld_f - ld_b) / math.log(2.0)
    if sign_f <= 0 or sign_b <= 0 or not np.isfinite(val):
        raise NumericalError("slogdet rate reference produced a non-finite value")
    return max(0.0, val)


def per_side_rates(channels, bf, powers):
    """Per-user rates, one formula per cell, the reference for `sum_rate`.

    Each receiver sums the covariances of its own cell first, then of the
    other cell, skipping zero-stream transmitters, and takes the rate as a
    difference of two log-determinants; `sum_rate` reads it off singular
    values instead, so the two agree to roundoff.
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
    built from scratch with one pseudo-inverse and rated by `per_side_rates`,
    the reference for `evaluate._single_cell_links`."""
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
    redraws them again and rebuilds its filters; both are rated by the
    package's `sum_rate` and single-cell steps, so the two must agree bit
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
                rates = sum_rate(channels, bf, powers)
            except (SingularSystemError, NumericalError):
                failed += 1
                continue
            acc_alpha += np.asarray(rates.per_alpha)
            acc_beta += np.asarray(rates.per_beta)
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
            rate_alpha, rate_beta = _single_cell_rates(
                _single_cell_links(channels, config), config, power)
            sum_alpha += rate_alpha
            sum_beta += rate_beta
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


def iter_allocations(config, total):
    """All allocations with the given sum, lexicographically ascending, with
    the per-user and per-cell stream budgets pruned."""
    caps = list(config.n_alpha) + list(config.n_beta)
    num_a = config.num_alpha
    n = len(caps)
    suffix = [0] * (n + 1)
    for i in reversed(range(n)):
        suffix[i] = suffix[i + 1] + caps[i]
    buf = [0] * n

    def rec(i, remaining, a_used, b_used):
        if i == n:
            if remaining == 0:
                yield DofAllocation(tuple(buf[:num_a]), tuple(buf[num_a:]))
            return
        hi = min(caps[i], remaining)
        if i < num_a:
            hi = min(hi, config.m_alpha - a_used)
        else:
            hi = min(hi, config.m_beta - b_used)
        lo = max(0, remaining - suffix[i + 1])
        for v in range(lo, hi + 1):
            buf[i] = v
            if i < num_a:
                yield from rec(i + 1, remaining - v, a_used + v, b_used)
            else:
                yield from rec(i + 1, remaining - v, a_used, b_used + v)
        buf[i] = 0

    yield from rec(0, total, 0, 0)


def _search_order(config):
    """Every allocation the search walks, in its order (descending sum from
    the largest reachable, lexicographic ascending within a sum), as
    ``(total, examined, dof)`` with ``examined`` the 1-based position."""
    cap = min(max(config.m_alpha, config.m_beta),
              min(config.m_alpha, sum(config.n_alpha))
              + min(config.m_beta, sum(config.n_beta)))
    examined = 0
    for total in range(cap, -1, -1):
        for dof in iter_allocations(config, total):
            examined += 1
            yield total, examined, dof


def reference_search(config, mode, trials=5, rng=None):
    """One scalar decider call per allocation, the reference for
    `feasibility.search_max_sum_dof` (without its guards), so the two must
    return equal results."""
    if rng is None:
        rng = RngStream(0, 0)
    for total, examined, dof in _search_order(config):
        if mode == "necessary":
            report = check_necessary(config, dof)
        else:
            report = check_sufficient(config, dof, trials, rng)
        if report.verdict:
            return SearchResult(mode, total, dof, report, examined)
    raise AssertionError("unreachable: the all-zero allocation always passes")


def reference_survivors(config):
    """The allocations passing the search's pre-check, the reference for
    `feasibility._survivors`: each allocation of the search order that meets
    the stream budgets 8a-8c and the counting bound over all users (8e at
    the pair of full user sets), both from their definitions, as
    ``(total, examined, dof)``."""
    for total, examined, dof in _search_order(config):
        a, b = dof.sum_alpha, dof.sum_beta
        free = sum(d * (n - d) for d, n in zip(dof.d_alpha + dof.d_beta,
                                               config.n_alpha + config.n_beta))
        if (a <= config.m_alpha and b <= config.m_beta
                and a + b <= max(config.m_alpha, config.m_beta) and a * b <= free):
            yield total, examined, dof
