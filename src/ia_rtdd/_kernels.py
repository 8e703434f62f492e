"""Hot kernels.

Two kernels carry the heavy work: the alternating leakage-minimization
iteration, in numpy, and the stream-total tables that find the first
violating subset pair of each of the converse's subset conditions, in plain
Python ints (`subset_scan`, one call per `feasibility.check_necessary`).
The alignment loop takes and returns the filters as per-user tuples, the
form `beamform` uses everywhere else.
"""

from itertools import accumulate

import numpy as np

from .model import _guard_entries

BACKEND = "numpy"
_PHASE_TOL = 1e-12


def fix_column_phases(mat):
    """Rotate each column so its first non-negligible entry is real positive.

    An entry is non-negligible when its magnitude exceeds ``_PHASE_TOL``
    times the column's largest; an all-zero column is returned unchanged.
    ``mat`` may be a stack of matrices; each is treated on its own.  The
    alignment loop's eigenvectors reach this general path only when
    `_unit_column_phases` cannot take its fast path.
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
# converse: stream-total tables
# ---------------------------------------------------------------------------

# 8d and 8e as violation tests on the totals (D, N, V) = (sum d, sum N,
# sum d(N - d)) of a downlink subset ``a`` and an uplink subset ``b``.
_CONDITIONS = (lambda a, b: a[0] + b[0] > max(a[1], b[1]),
               lambda a, b: a[0] * b[0] > a[2] + b[2])


def _suffix_tables(d, n):
    """``tables[i]`` maps the stream total D of each subset of users i.. to
    the least antenna total and the least d(N - d) total of such a subset,
    ``tables[len(d)]`` being the empty subset's {0: (0, 0)} (Bellman's 0/1
    knapsack, from the last user backward)."""
    tables = [{0: (0, 0)}]
    for d_i, n_i in zip(reversed(d), reversed(n)):
        v_i = d_i * (n_i - d_i)
        table = dict(tables[-1])
        for s, (m, v) in tables[-1].items():
            old = table.get(s + d_i, (m + n_i, v + v_i))
            table[s + d_i] = (min(old[0], m + n_i), min(old[1], v + v_i))
        tables.append(table)
    return tables[::-1]


def _converse(d_a, n_a, d_b, n_b):
    """Both sides' suffix tables and, per condition, a test of whether
    downlink totals (X, N, V) have an uplink partner completing a violation:
    for 8d iff N < X + D for the largest uplink total D whose antenna slack
    N_b - D is below X, for 8e iff V < max(X D - V_b) over the uplink table
    (the upper envelope of its lines, swept in X).
    """
    # A table of i users holds at most min(2^i, sum d + 1) entries, each with
    # its int key and tuple of ints ~117 bytes (CPython 3.11): charged as 10
    # entries of 16 bytes, as is the answer kept per downlink total.
    caps = [[min(1 << i, s + 1) for i, s in enumerate(accumulate(reversed(d), initial=0))]
            for d in (d_a, d_b)]
    _guard_entries(10 * (sum(caps[0]) + caps[0][-1] + sum(caps[1])),
                   "the stream-total tables")
    ta, tb = _suffix_tables(d_a, n_a), _suffix_tables(d_b, n_b)
    slack = sorted((m - s, s) for s, (m, _) in tb[0].items())
    hull = []
    for s, (_, v) in sorted(tb[0].items()):
        # the line s X - v: drop the last one while this one overtakes the
        # one before it no later than the last one did
        while len(hull) > 1 and ((hull[-2][1] - v) * (hull[-1][0] - hull[-2][0])
                                 >= (hull[-2][1] - hull[-1][1]) * (s - hull[-2][0])):
            hull.pop()
        hull.append((s, v))
    answers, widest, i, j = {}, 0, 0, 0
    for x in sorted(ta[0]):
        while i < len(slack) and slack[i][0] < x:
            widest = max(widest, slack[i][1])
            i += 1
        while j + 1 < len(hull) and ((hull[j + 1][0] - hull[j][0]) * x
                                     >= hull[j + 1][1] - hull[j][1]):
            j += 1
        answers[x] = (widest, hull[j][0] * x - hull[j][1])
    return ta, tb, (lambda a: a[1] < a[0] + answers[a[0]][0],
                    lambda a: a[2] < answers[a[0]][1])


def _lex_first(d, n, tables, hit):
    """The lexicographically first subset of one side's users whose totals
    (D, N, V) ``hit``, as ``(bitmask, totals)``, or None.  Users join in
    index order, each while the subset so far misses and the next users'
    table can still complete a hit."""
    def completes(i, t):
        return any(hit((t[0] + s, t[1] + m, t[2] + v)) for s, (m, v) in tables[i].items())

    mask, tot = 0, (0, 0, 0)
    if not completes(0, tot):
        return None
    for i, (d_i, n_i) in enumerate(zip(d, n)):
        if hit(tot):
            break
        grown = (tot[0] + d_i, tot[1] + n_i, tot[2] + d_i * (n_i - d_i))
        if completes(i + 1, grown):
            mask, tot = mask | 1 << i, grown
    return mask, tot


def subset_scan(d_a, n_a, d_b, n_b):
    """The lexicographically first subset pair violating each condition

    * antenna bound:   sum(d, Ia) + sum(d, Ib) <= max(sum(N, Ia), sum(N, Ib))
    * counting bound:  sum(d, Ia) * sum(d, Ib) <= sum(d(N-d), Ia) + sum(d(N-d), Ib)

    over subsets ``Ia`` of the downlink and ``Ib`` of the uplink users of one
    allocation (sequences of ints), each as ``None`` or an ``(alpha_mask,
    beta_mask)`` tuple of ints: the first downlink subset with a violating
    partner, then its first partner.
    """
    ta, tb, hits = _converse(d_a, n_a, d_b, n_b)
    out = []
    for hit, cond in zip(hits, _CONDITIONS):
        first = _lex_first(d_a, n_a, ta, hit)
        out.append(first and (first[0], _lex_first(
            d_b, n_b, tb, lambda b, a=first[1]: cond(a, b))[0]))
    return tuple(out)


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
    return t @ t.conj().swapaxes(-1, -2)


def _unit_column_phases(vecs):
    """`fix_column_phases` of a stack of unit-norm columns, as `eigh` returns.

    No entry of a unit-norm column exceeds 1 (+ rounding), so its threshold
    ``_PHASE_TOL * max|col|`` stays below ``2 * _PHASE_TOL``.  When every
    first entry of the stack clears ``2 * _PHASE_TOL``, every column leads
    with its first entry, and the general path's generic case is computed
    as the same ufuncs on the same operands, bit for bit, without the
    magnitudes of the whole stack.  Otherwise (a lead entry at or below
    ``2 * _PHASE_TOL``, or NaN) the stack takes the general path.
    """
    pivot = vecs[..., :1, :]
    pivot_mag = np.abs(pivot)
    if pivot_mag.min() > 2 * _PHASE_TOL:
        return vecs * (pivot.conj() / pivot_mag)
    return fix_column_phases(vecs)


def _weakest(members, group, blocks, weights, filters):
    """Update one shape group's filters from the other side's.

    The covariance ``sum w (B F)(B F)^H`` adds one term per other-side user,
    group by group and in user order within a group; ``blocks``, ``weights``
    and ``filters`` are per other-side group.  (numpy's sum over the users'
    axis would not keep that order: with 1 x 1 covariances its result
    differs from the in-order fold from four users on.)  Returns the
    eigenvalues and the ``d`` weakest eigenvectors, phase-fixed by
    `_unit_column_phases`: the eigenvectors have unit norm, so the phase
    fix skips the magnitudes of the whole stack unless a lead entry is
    within ``2 * _PHASE_TOL`` of zero.
    """
    (n, d), users = group
    cov = np.zeros((members, len(users), n, n), dtype=np.complex128)
    for b, w, f in zip(blocks, weights, filters):
        term = w * _gram(b @ f[:, None])
        for pos in range(term.shape[2]):
            cov += term[:, :, pos]
    vals, vecs = np.linalg.eigh(cov)
    return vals, _unit_column_phases(vecs[..., :d])


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
