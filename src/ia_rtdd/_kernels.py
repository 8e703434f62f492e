"""Hot numeric kernels, in numpy.

Two inner loops dominate runtime: the alternating leakage-minimization
iteration and the subset-pair scan behind the combinatorial
feasibility conditions.  The alignment loop takes and returns the filters
as per-user tuples, the form `beamform` uses everywhere else.
"""

import math

import numpy as np

from .model import _guard_entries

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
    """Sums of ``x`` over every subset of its first axis (later axes stack), in
    the lexicographic order of the subsets' sorted indices: (), (0,), (0, 1), (1,)."""
    _guard_entries((1 << len(x)) * math.prod(np.shape(x)[1:]), "a subset-sum table")
    out = np.zeros((1,) + np.shape(x)[1:], dtype=np.int64)
    for j in reversed(range(len(x))):
        # the subsets of j..: (), j joined to each subset of j+1.., then the
        # nonempty subsets of j+1..
        out = np.concatenate((out[:1], x[j] + out, out[1:]))
    return out


def _side_sums(d, n):
    """`_lex_sums` of d and d(N - d), a column per row of ``d``, then of N and
    of the user bits (each subset's bitmask), from one call."""
    d, n = np.asarray(d, dtype=np.int64), np.asarray(n, dtype=np.int64)
    sums = _lex_sums(np.concatenate((d, d * (n - d), [n, 1 << np.arange(len(n))])).T)
    return sums[:, :len(d)], sums[:, len(d):-2], sums[:, -2], sums[:, -1]


def first_violations(d_a, n_a, d_b, n_b):
    """The lexicographically first subset pair violating each condition

    * antenna bound:   sum(d, Ia) + sum(d, Ib) <= max(sum(N, Ia), sum(N, Ib))
    * counting bound:  sum(d, Ia) * sum(d, Ib) <= sum(d(N-d), Ia) + sum(d(N-d), Ib)

    over subsets ``Ia`` of the downlink and ``Ib`` of the uplink users, for
    the allocations in the rows of ``d_a`` (R x K) and ``d_b`` (R x L).  The
    alpha subsets are walked in `_lex_sums` order, ``BLOCK`` pairs of the
    open rows at a time (one alpha subset's if more), until every row has
    violated both.  Returns ``(first, masks_a, masks_b)``: ``first[r, c]``
    is the position ``i * 2^L + j`` of row r's first violation of condition
    c (-1 for none), ``masks_a[i]`` and ``masks_b[j]`` the subsets' bitmasks.
    """
    sd_a, sv_a, sn_a, masks_a = _side_sums(d_a, n_a)
    sd_b, sv_b, sn_b, masks_b = _side_sums(d_b, n_b)
    width = len(masks_b)
    rows = np.arange(sd_a.shape[1])
    first = np.full((len(rows), 2), -1)
    start = 0
    while len(rows) and start < len(masks_a):
        stop = start + max(1, BLOCK // (len(rows) * width))
        # (alpha subset, beta subset, row) blocks, rows last for long inner
        # loops; the counts in place, so the pairs take one int64 array
        da, va = (s[start:stop].take(rows, 1)[:, None] for s in (sd_a, sv_a))
        db, vb = sd_b.take(rows, 1), sv_b.take(rows, 1)
        bound = (db > sn_a[start:stop, None, None] - da) & (da > sn_b[:, None] - db)
        count = da * db
        count -= va
        for c, viol in enumerate((bound, count > vb)):
            viol = viol.reshape(-1, len(rows))
            hit = (first[rows, c] < 0) & viol.any(0)
            first[rows[hit], c] = start * width + viol.argmax(0)[hit]
        rows = rows[(first[rows] < 0).any(1)]
        start = stop
    return first, masks_a, masks_b


def subset_scan(d_a, n_a, d_b, n_b):
    """`first_violations` of one allocation, each pair as ``None`` or an
    ``(alpha_mask, beta_mask)`` tuple of Python ints."""
    first, masks_a, masks_b = first_violations([d_a], n_a, [d_b], n_b)
    return tuple(None if p < 0 else (int(masks_a[p // len(masks_b)]),
                                     int(masks_b[p % len(masks_b)]))
                 for p in first[0].tolist())


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


def _weakest(members, group, blocks, weights, filters):
    """Update one shape group's filters from the other side's.

    The covariance ``sum w (B F)(B F)^H`` adds one term per other-side user,
    group by group and in user order within a group; ``blocks``, ``weights``
    and ``filters`` are per other-side group.  (numpy's sum over the users'
    axis would not keep that order: with 1 x 1 covariances its result
    differs from the in-order fold from four users on.)  Returns the
    eigenvalues and the ``d`` weakest eigenvectors, phase-fixed.
    """
    (n, d), users = group
    cov = np.zeros((members, len(users), n, n), dtype=np.complex128)
    for b, w, f in zip(blocks, weights, filters):
        term = w * _gram(b @ f[:, None])
        for pos in range(term.shape[2]):
            cov += term[:, :, pos]
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
    # group's users.  The covariances add one user's term at a time, the
    # other side's groups in turn, so the arithmetic is that of a per-user
    # loop over the users in group order.  Stacks carry the members first:
    # u[i] is (members, users, n, d).
    ga = _shape_groups(n_alpha, d_alpha)
    gb = _shape_groups(n_beta, d_beta)
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
            _, v[j] = _weakest(members, group, g_h[j], w_a, u)
        for i, group in enumerate(ga):
            vals, u[i] = _weakest(members, group, g[i], w_b, v)
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
