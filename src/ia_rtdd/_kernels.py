"""Hot numeric kernels, in numpy.

Two inner loops dominate runtime: the alternating leakage-minimization
iteration and the subset-pair scan behind the combinatorial
feasibility conditions.  The alignment loop takes and returns the filters
as per-user tuples, the form `beamform` uses everywhere else.
"""

import numpy as np

BACKEND = "numpy"
# Elements of the widest array in one block of the subset scan or of the DoF
# search, unless one row (an alpha subset, an allocation) alone needs more.
BLOCK = 1 << 16
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

def _lex_sums(x):
    """Sums of ``x`` over every subset of its last axis, in the lexicographic
    order of the subsets' sorted indices: (), (0,), (0, 1), (1,) for two."""
    out = np.zeros(np.shape(x)[:-1] + (1,), dtype=np.int64)
    for j in reversed(range(np.shape(x)[-1])):
        # the subsets of j..: (), j joined to each subset of j+1.., then the
        # nonempty subsets of j+1..
        out = np.concatenate((out[..., :1], x[..., j, None] + out, out[..., 1:]), -1)
    return out


def _side_sums(d, n):
    """`_lex_sums` of d, N and d(N - d); leading axes of ``d`` stack
    allocations, and the sums of N are one 1-d array."""
    d, n = np.asarray(d, dtype=np.int64), np.asarray(n, dtype=np.int64)
    return _lex_sums(d), _lex_sums(n), _lex_sums(d * (n - d))


def _violations(sd_a, sn_a, sv_a, sd_b, sn_b, sv_b):
    """`subset_violations` from two `_side_sums`, the antenna bound as one
    comparison per side so that the pairs take a single int64 array (with
    more, a fresh process page-faults them in for every block)."""
    sd_a, sv_a = sd_a[..., :, None], sv_a[..., :, None]
    sd_b, sv_b = sd_b[..., None, :], sv_b[..., None, :]
    bound = (sd_b > sn_a[:, None] - sd_a) & (sd_a > sn_b - sd_b)
    count = sd_a * sd_b
    count -= sv_a
    return bound, count > sv_b


def subset_violations(d_a, n_a, d_b, n_b):
    """Which subset pairs violate each per-subset condition.

    For subsets ``Ia`` of the downlink users and ``Ib`` of the uplink users:

    * antenna bound:   sum(d, Ia) + sum(d, Ib) <= max(sum(N, Ia), sum(N, Ib))
    * counting bound:  sum(d, Ia) * sum(d, Ib) <= sum(d(N-d), Ia) + sum(d(N-d), Ib)

    ``d_a`` and ``d_b`` may stack allocations on matching leading axes.
    Returns ``(bound, count)``, boolean arrays of shape ``(..., 2^K, 2^L)``
    indexed by the two subsets in `_lex_sums` order.
    """
    return _violations(*_side_sums(d_a, n_a), *_side_sums(d_b, n_b))


def subset_scan(d_a, n_a, d_b, n_b):
    """Find the lexicographically first violating subset pair per condition
    of `subset_violations`, for one allocation, walking ``BLOCK`` pairs at a
    time (one alpha subset's 2^L if more) until both conditions have one.

    Returns ``(bound_pair, count_pair)`` where each entry is either ``None``
    or an ``(alpha_mask, beta_mask)`` tuple of Python ints.
    """
    side_a, side_b = _side_sums(d_a, n_a), _side_sums(d_b, n_b)
    masks_a, masks_b = (_lex_sums(1 << np.arange(len(n))) for n in (n_a, n_b))
    rows = max(1, BLOCK // len(masks_b))
    first = [None, None]
    for start in range(0, len(masks_a), rows):
        block = (s[start:start + rows] for s in side_a)
        for c, viol in enumerate(_violations(*block, *side_b)):
            if first[c] is None and viol.any():
                r, col = divmod(int(viol.argmax()), len(masks_b))
                first[c] = (int(masks_a[start + r]), int(masks_b[col]))
        if None not in first:
            break
    return tuple(first)


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


def _weakest(members, group, blocks, weights, filters, order):
    """Update one shape group's filters from the other side's.

    The covariance ``sum w (B F)(B F)^H`` adds one term per other-side user
    in user order ``order``; ``blocks``, ``weights`` and ``filters`` are per
    other-side group.  Returns the eigenvalues and the ``d`` weakest
    eigenvectors, phase-fixed.
    """
    (n, d), users = group
    terms = [w * _gram(b @ f[:, None]) for b, w, f in zip(blocks, weights, filters)]
    cov = np.zeros((members, len(users), n, n), dtype=np.complex128)
    for _, b, pos in order:
        cov += terms[b][:, :, pos]
    vals, vecs = np.linalg.eigh(cov)
    return vals, np.ascontiguousarray(fix_column_phases(vecs[..., :d]))


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
    ``max_iters``; its filters and records are taken then, and its
    arithmetic is that of a run on its own.  The loop ends when the last
    member stops.  Returns ``(u, v, totals, per_user, n_iters, converged)``
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
    members = len(w_alpha)
    w_a = [w_alpha[:, None, ks, None, None] for _, ks in ga]
    w_b = [w_beta[:, None, ls, None, None] for _, ls in gb]
    # g[i][j]: channel blocks from alpha group i to beta group j as (alpha
    # users, beta users, na, nb); g_h[j][i] the conjugate transposes as (beta
    # users, alpha users, nb, na)
    g = [[np.array([[g_cross[k][l] for l in ls] for k in ks]) for _, ls in gb]
         for _, ks in ga]
    g_h = [[np.ascontiguousarray(row[j].conj().transpose(1, 0, 3, 2)) for row in g]
           for j in range(len(gb))]
    # the members share the initial filters until their first update
    u = [np.array([u0[k] for k in ks])[None] for _, ks in ga]
    v = [None] * len(gb)
    # one leakage record for all members, grown by doubling up to max_iters
    # so memory follows the iterations run
    totals = np.zeros((0, members))
    per_user = np.zeros((0, members, len(n_alpha)))
    out = [None] * members
    it = 0
    while None in out:
        if it == len(totals):
            rows = min(max(2 * it, 1024), max_iters) - it
            totals, per_user = (np.concatenate((rec, np.zeros((rows,) + rec.shape[1:])))
                                for rec in (totals, per_user))
        for j, group in enumerate(gb):
            _, v[j] = _weakest(members, group, g_h[j], w_a, u, order_a)
        for i, group in enumerate(ga):
            vals, u[i] = _weakest(members, group, g[i], w_b, v, order_b)
            # a user's leakage adds its kept positive eigenvalues in order
            # (cumsum adds in order; NaN counts as 0.0)
            (_, da), ks = group
            kept = vals[..., :da]
            per_user[it][:, ks] = np.where(kept > 0.0, kept, 0.0).cumsum(-1)[..., -1]
        # cumsum adds in user order, as a per-user loop would; a user without
        # streams adds an exact 0.0
        totals[it] = per_user[it].cumsum(-1)[:, -1]
        stopped = totals[it] <= rel_stop * totals[0]
        for m in range(members):
            if out[m] is None and (stopped[m] or it + 1 == max_iters):
                out[m] = (_member_filters(n_alpha, ga, u, m),
                          _member_filters(n_beta, gb, v, m),
                          totals[:it + 1, m].copy(), per_user[:it + 1, m].copy(),
                          bool(stopped[m]))
        it += 1
    u, v, totals, per_user, converged = zip(*out) if out else ((),) * 5
    return u, v, totals, per_user, sum(len(t) for t in totals), converged


def _member_filters(n, groups, stacks, a):
    """Member ``a``'s filter per user from the group stacks (N x 0 for a user
    without streams)."""
    out = [np.zeros((n_i, 0), dtype=np.complex128) for n_i in n]
    for (_, users), stack in zip(groups, stacks):
        for i, mat in zip(users, stack[a]):
            out[i] = mat
    return tuple(out)
