"""Hot numeric kernels, in numpy.

Two inner loops dominate runtime: the alternating leakage-minimization
iteration and the exhaustive subset scan behind the combinatorial
feasibility conditions.  The alignment loop takes and returns the filters
as per-user tuples, the form `beamform` uses everywhere else.
"""

import numpy as np

BACKEND = "numpy"
_PHASE_TOL = 1e-12


def fix_column_phases(mat):
    """Rotate each column so its first non-negligible entry is real positive.

    An entry is non-negligible when its magnitude exceeds ``_PHASE_TOL``
    times the column's largest; an all-zero column is returned unchanged.
    ``mat`` may be a stack of matrices; each is treated on its own.
    """
    mat = np.asarray(mat, dtype=np.complex128)
    mags = np.abs(mat)
    tol = _PHASE_TOL * mags.max(axis=-2, keepdims=True)
    above = mags > tol
    if above[..., 0, :].all():
        # the generic case: every column leads with its first entry
        pivot = mat[..., :1, :]
    else:
        lead = above.argmax(axis=-2)[..., None, :]
        pivot = np.take_along_axis(mat, lead, axis=-2)
    pivot_mag = np.abs(pivot)
    scale = np.ones_like(pivot)
    np.divide(pivot.conj(), pivot_mag, out=scale, where=pivot_mag > tol)
    return mat * scale


# ---------------------------------------------------------------------------
# subset-pair scan
# ---------------------------------------------------------------------------

def _mask_key(m):
    """Sorted-tuple view of a bitmask, usable as a lexicographic sort key."""
    out = []
    j = 0
    while m:
        if m & 1:
            out.append(j)
        m >>= 1
        j += 1
    return tuple(out)


def _side_sums(d, n):
    size = len(d)
    sd = np.zeros(1 << size, dtype=np.int64)
    sn = np.zeros(1 << size, dtype=np.int64)
    sv = np.zeros(1 << size, dtype=np.int64)
    half = 1
    for j in range(size):
        sd[half:2 * half] = sd[:half] + d[j]
        sn[half:2 * half] = sn[:half] + n[j]
        sv[half:2 * half] = sv[:half] + d[j] * (n[j] - d[j])
        half *= 2
    return sd, sn, sv


def _lex_min_pair(viol):
    rows = np.flatnonzero(viol.any(axis=1))
    if rows.size == 0:
        return None
    ma = min(rows.tolist(), key=_mask_key)
    mb = min(np.flatnonzero(viol[ma]).tolist(), key=_mask_key)
    return ma, mb


def subset_scan(d_a, n_a, d_b, n_b):
    """Find the lexicographically first violating subset pair per condition.

    For subsets ``Ia`` of the downlink users and ``Ib`` of the uplink users:

    * antenna bound:   sum(d, Ia) + sum(d, Ib) <= max(sum(N, Ia), sum(N, Ib))
    * counting bound:  sum(d, Ia) * sum(d, Ib) <= sum(d(N-d), Ia) + sum(d(N-d), Ib)

    Returns ``(bound_pair, count_pair)`` where each entry is either ``None``
    or an ``(alpha_mask, beta_mask)`` tuple of Python ints.
    """
    sd_a, sn_a, sv_a = _side_sums(d_a, n_a)
    sd_b, sn_b, sv_b = _side_sums(d_b, n_b)
    tot = sd_a[:, None] + sd_b[None, :]
    cap = np.maximum(sn_a[:, None], sn_b[None, :])
    bound = _lex_min_pair(tot > cap)
    eqs = sd_a[:, None] * sd_b[None, :]
    vars_ = sv_a[:, None] + sv_b[None, :]
    count = _lex_min_pair(eqs > vars_)
    return bound, count


# ---------------------------------------------------------------------------
# alternating leakage minimization
# ---------------------------------------------------------------------------

def _shape_groups(n, d):
    """Active users (``d > 0``) grouped by ``(n, d)``, as ``[((n, d), users)]``."""
    groups = {}
    for i, (n_i, d_i) in enumerate(zip(n, d)):
        if d_i:
            groups.setdefault((n_i, d_i), []).append(i)
    return list(groups.items())


def _gram(t):
    """``t @ t^H`` for a stack of matrices."""
    return t @ np.ascontiguousarray(t.conj().swapaxes(-1, -2))


def alignment_loop(g_cross, n_alpha, n_beta, d_alpha, d_beta,
                   w_alpha, w_beta, u0, max_iters, rel_stop):
    """Alternate eigenvector updates of receive/transmit filters on the cross links.

    ``g_cross[k][l]`` is the N_alpha_k x N_beta_l cross channel and ``u0[k]``
    the initial orthonormal N_alpha_k x d_alpha_k receive filter.  Each
    iteration first re-points every uplink-user transmit filter at the
    weakest-interference eigenvectors of its reciprocal covariance, then does
    the mirror update for the downlink-user receive filters, recording the
    per-user leakage power (sum of the kept eigenvalues).

    The loop runs several members at once: member m weights the users'
    leakage by ``w_alpha[m]`` and ``w_beta[m]`` and shares the channels and
    the initial filters with the others.  A member stops once its total
    leakage drops to ``rel_stop`` times its first iteration's total, or after
    ``max_iters``, and then leaves the stack; its arithmetic is that of a run
    on its own.  Returns ``(u, v, totals, per_user, n_iters, converged)``
    with one entry per member in each of ``u``, ``v`` (per-user filter
    tuples, N x 0 for a user without streams), ``totals`` and ``per_user``
    (the leakage arrays of the iterations it ran) and ``converged``;
    ``n_iters`` is the number of iterations run, summed over the members.
    """
    # Users with streams, grouped by filter shape: each group's products,
    # eigh and phase fix run as one stacked call over the members and the
    # group's users.  The covariances still add one user's term at a time in
    # user order, so the arithmetic is that of a per-user loop.  Stacks carry
    # the members first: u[i] is (members, users, n, d).
    ga = _shape_groups(n_alpha, d_alpha)
    gb = _shape_groups(n_beta, d_beta)
    order_a = sorted((k, i, pos) for i, (_, ks) in enumerate(ga)
                     for pos, k in enumerate(ks))
    order_b = sorted((l, j, pos) for j, (_, ls) in enumerate(gb)
                     for pos, l in enumerate(ls))
    w_alpha = np.array(w_alpha, dtype=float).reshape(len(w_alpha), len(n_alpha))
    w_beta = np.array(w_beta, dtype=float).reshape(len(w_beta), len(n_beta))
    w_a = [w_alpha[:, None, ks, None, None] for _, ks in ga]
    w_b = [w_beta[:, None, ls, None, None] for _, ls in gb]
    # channel blocks between two groups as (alpha users, beta users, na, nb),
    # and conjugate-transposed as (beta users, alpha users, nb, na)
    g, g_h = {}, {}
    for i, (_, ks) in enumerate(ga):
        for j, (_, ls) in enumerate(gb):
            g[i, j] = blk = np.array([[g_cross[k][l] for l in ls] for k in ks])
            g_h[j, i] = np.ascontiguousarray(blk.conj().transpose(1, 0, 3, 2))
    # the members share the initial filters until their first update
    u = [np.array([u0[k] for k in ks])[None] for _, ks in ga]
    v = [None] * len(gb)
    n_members = len(w_alpha)
    alive = list(range(n_members))
    # per-member leakage records grow by doubling up to max_iters, so memory
    # follows the iterations run
    totals = [np.zeros(min(max_iters, 1024)) for _ in alive]
    per_user = [np.zeros((len(t), len(n_alpha))) for t in totals]
    out = [None] * n_members
    it = 0
    while alive:
        if it == len(totals[0]):
            rows = min(2 * it, max_iters) - it
            for a, (rec_t, rec_p) in enumerate(zip(totals, per_user)):
                totals[a] = np.concatenate((rec_t, np.zeros(rows)))
                per_user[a] = np.concatenate((rec_p, np.zeros((rows, rec_p.shape[1]))))
        for j, ((nb, db), ls) in enumerate(gb):
            terms = [w_a[i] * _gram(g_h[j, i] @ u[i][:, None])
                     for i in range(len(ga))]
            cov = np.zeros((len(alive), len(ls), nb, nb), dtype=np.complex128)
            for _, i, pos in order_a:
                cov += terms[i][:, :, pos]
            _, vecs = np.linalg.eigh(cov)
            v[j] = np.ascontiguousarray(fix_column_phases(vecs[..., :db]))
        for i, ((na, da), ks) in enumerate(ga):
            terms = [w_b[j] * _gram(g[i, j] @ v[j][:, None])
                     for j in range(len(gb))]
            cov = np.zeros((len(alive), len(ks), na, na), dtype=np.complex128)
            for _, j, pos in order_b:
                cov += terms[j][:, :, pos]
            vals, vecs = np.linalg.eigh(cov)
            u[i] = np.ascontiguousarray(fix_column_phases(vecs[..., :da]))
            for rec, member_vals in zip(per_user, vals[..., :da].tolist()):
                for k, user_vals in zip(ks, member_vals):
                    leak = 0.0
                    for val in user_vals:
                        if val > 0.0:
                            leak += val
                    rec[it, k] = leak
        keep = []
        for a, (m, rec_t, rec_p) in enumerate(zip(alive, totals, per_user)):
            total = 0.0
            for k, _, _ in order_a:
                total += rec_p[it, k]
            rec_t[it] = total
            converged = bool(total <= rel_stop * rec_t[0])
            if converged or it + 1 == max_iters:
                # records cut to the iterations run; full ones are handed over
                n = it + 1
                out[m] = (_member_filters(n_alpha, ga, u, a),
                          _member_filters(n_beta, gb, v, a),
                          rec_t if n == len(rec_t) else rec_t[:n].copy(),
                          rec_p if n == len(rec_p) else rec_p[:n].copy(), converged)
            else:
                keep.append(a)
        it += 1
        if len(keep) < len(alive):
            alive = [alive[a] for a in keep]
            totals = [totals[a] for a in keep]
            per_user = [per_user[a] for a in keep]
            u = [stack[keep] for stack in u]
            v = [stack[keep] for stack in v]
            w_a = [w[keep] for w in w_a]
            w_b = [w[keep] for w in w_b]
    results = tuple(zip(*out)) if out else ((),) * 5
    u_out, v_out, totals_out, per_user_out, converged_out = results
    return (u_out, v_out, totals_out, per_user_out,
            sum(len(t) for t in totals_out), converged_out)


def _member_filters(n, groups, stacks, a):
    """Member ``a``'s filter per user from the group stacks (N x 0 for a user
    without streams)."""
    out = [np.zeros((n_i, 0), dtype=np.complex128) for n_i in n]
    for (_, users), stack in zip(groups, stacks):
        for i, mat in zip(users, stack[a]):
            out[i] = mat
    return tuple(out)
