"""Independent brute-force oracles used to cross-check the fast paths.

Everything here is written with itertools loops straight from the condition
definitions, deliberately sharing no code with the package internals.
"""

import itertools

import numpy as np


def iter_subset_pairs(num_alpha, num_beta):
    for ra in range(num_alpha + 1):
        for i_alpha in itertools.combinations(range(num_alpha), ra):
            for rb in range(num_beta + 1):
                for i_beta in itertools.combinations(range(num_beta), rb):
                    yield i_alpha, i_beta


def brute_necessary(config, d_alpha, d_beta):
    """Direct evaluation of every converse condition; returns dict of bools."""
    out = {
        "8a": sum(d_alpha) <= config.m_alpha,
        "8b": sum(d_beta) <= config.m_beta,
        "8c": sum(d_alpha) + sum(d_beta) <= max(config.m_alpha, config.m_beta),
        "8d": True,
        "8e": True,
    }
    for i_alpha, i_beta in iter_subset_pairs(config.num_alpha, config.num_beta):
        sd = sum(d_alpha[k] for k in i_alpha) + sum(d_beta[l] for l in i_beta)
        cap = max(sum(config.n_alpha[k] for k in i_alpha),
                  sum(config.n_beta[l] for l in i_beta))
        if sd > cap:
            out["8d"] = False
        eqs = sum(d_alpha[k] for k in i_alpha) * sum(d_beta[l] for l in i_beta)
        free = sum(d_alpha[k] * (config.n_alpha[k] - d_alpha[k]) for k in i_alpha) \
            + sum(d_beta[l] * (config.n_beta[l] - d_beta[l]) for l in i_beta)
        if eqs > free:
            out["8e"] = False
    return out


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


def per_user_alignment_loop(g_pad, n_alpha, n_beta, d_alpha, d_beta,
                            w_alpha, w_beta, u0_pad, max_iters, rel_stop):
    """One user at a time, the reference for `_kernels.alignment_loop`.

    Same arguments, returns and arithmetic (operands, summation order, eigh
    inputs and stopping test), so the two must agree bit for bit.
    """
    K, L = len(n_alpha), len(n_beta)
    u_pad = u0_pad.copy()
    v_pad = np.zeros((L, g_pad.shape[3], max(max(d_beta), 1)), dtype=complex)
    totals = np.zeros(max_iters)
    per_user = np.zeros((max_iters, K))

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

    for it in range(max_iters):
        for l in range(L):
            nb, db = n_beta[l], d_beta[l]
            if db == 0:
                continue
            cov = np.zeros((nb, nb), dtype=complex)
            for k in range(K):
                na, da = n_alpha[k], d_alpha[k]
                if da:
                    g_h = np.ascontiguousarray(g_pad[k, l, :na, :nb].conj().T)
                    u = np.ascontiguousarray(u_pad[k, :na, :da])
                    cov += w_alpha[k] * gram(g_h @ u)
            v_pad[l, :nb, :db] = phase_fixed(np.linalg.eigh(cov)[1], db)
        total = 0.0
        for k in range(K):
            na, da = n_alpha[k], d_alpha[k]
            if da == 0:
                continue
            cov = np.zeros((na, na), dtype=complex)
            for l in range(L):
                nb, db = n_beta[l], d_beta[l]
                if db:
                    g = np.ascontiguousarray(g_pad[k, l, :na, :nb])
                    v = np.ascontiguousarray(v_pad[l, :nb, :db])
                    cov += w_beta[l] * gram(g @ v)
            vals, vecs = np.linalg.eigh(cov)
            u_pad[k, :na, :da] = phase_fixed(vecs, da)
            per_user[it, k] = sum(x for x in vals[:da] if x > 0.0)
            total += per_user[it, k]
        totals[it] = total
        if total <= rel_stop * totals[0]:
            return u_pad, v_pad, totals, per_user, it + 1, True
    return u_pad, v_pad, totals, per_user, max_iters, False
