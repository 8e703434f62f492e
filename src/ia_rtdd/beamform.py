"""Construction of aligning precoders and postcoders.

Stage 1 drives the cross-link interference seen by the downlink users to
zero by alternating minimization (`iterate_alignment`, or
`iterate_alignment_batch` for several power profiles of one draw): the
uplink transmit filters and downlink receive filters are re-pointed, in
turn, at the eigenvectors of their interference covariance with the
smallest eigenvalues; those covariances and updates exist only inside
`_kernels.alignment_loop`.  Stage 2 (`zero_force_step2`, completed with
`normalize` by `complete_beamformers`) then zero-forces the remaining couplings
(intra-cell interference in both cells and the BS-to-BS link) with two
pseudo-inverses of stacked effective channels, the larger base station's
second.  `residual_report` measures how well a finished beamformer set
satisfies every alignment condition.  It and the rates of `evaluate` read
the effective links ``U_r^H H_rt V_t`` of every receiver r and transmitter t
from one generator, `_link_rows`, one receiver's row at a time.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import ConfigError, SingularSystemError
from .model import (RngStream, _as_int, _guard_entries, complex_gaussian,
                    validate_config)

COND_LIMIT = 1e12
FLOAT_FORMAT = "%.9g"  # every float written to CSV or JSON output


@dataclass(frozen=True)
class PowerProfile:
    """Per-user transmit powers, linear scale."""

    p_alpha: tuple
    p_beta: tuple

    def __post_init__(self):
        object.__setattr__(self, "p_alpha", tuple(float(p) for p in self.p_alpha))
        object.__setattr__(self, "p_beta", tuple(float(p) for p in self.p_beta))
        # a NaN or +inf power would reach eigh as a non-finite covariance
        if not all(0 <= p < np.inf for p in self.p_alpha + self.p_beta):
            raise ConfigError("transmit powers must be finite and >= 0")


@dataclass(frozen=True)
class IterationOptions:
    max_iters: int = 5000
    leakage_stop: float = 1e-10

    def __post_init__(self):
        object.__setattr__(self, "max_iters", _as_int(self.max_iters, "max_iters", 1))
        if not self.leakage_stop > 0:
            raise ConfigError("leakage_stop must be > 0")


@dataclass(frozen=True)
class LeakageTrace:
    """Total and per-user leakage power after each iteration."""

    totals: np.ndarray
    per_user: np.ndarray
    converged: bool

    @property
    def iterations(self):
        return len(self.totals)

    @property
    def final(self):
        return float(self.totals[-1])

    def write_csv(self, fh):
        k_users = self.per_user.shape[1]
        header = ["iteration", "total_leakage"]
        header += [f"leakage_alpha_{k + 1}" for k in range(k_users)]
        fh.write(",".join(header) + "\n")
        for i in range(len(self.totals)):
            row = [str(i + 1), FLOAT_FORMAT % self.totals[i]]
            row += [FLOAT_FORMAT % v for v in self.per_user[i]]
            fh.write(",".join(row) + "\n")


@dataclass(frozen=True)
class BeamformerSet:
    """Receive filters U and transmit filters V for every user.

    * ``u_alpha[k]``: N_alpha_k x d_alpha_k, ``v_alpha[k]``: M_alpha x d_alpha_k
    * ``u_beta[l]``: M_beta x d_beta_l,      ``v_beta[l]``: N_beta_l x d_beta_l

    After `normalize` every column has unit norm.
    """

    u_alpha: tuple
    v_alpha: tuple
    u_beta: tuple
    v_beta: tuple


def init_postcoders(config, dof, rng):
    """Haar-random orthonormal initial receive filters, one per downlink user."""
    validate_config(config, dof)
    _guard_entries(sum(n * d for n, d in zip(config.n_alpha, dof.d_alpha)),
                   "the initial filters", arrays=config.num_alpha)
    g = rng.generator()
    out = []
    for n, d in zip(config.n_alpha, dof.d_alpha):
        q, r = np.linalg.qr(complex_gaussian(g, n, d))
        diag = np.diag(r).copy()
        diag[diag == 0] = 1.0
        out.append(q * (diag / np.abs(diag))[None, :])
    return tuple(out)


def iterate_alignment(channels, dof, powers, opts=None, rng=None):
    """Alternating leakage minimization for the stage-1 filters.

    Follows the loop order: transmit filters of every uplink user from the
    previous receive filters, then receive filters of every downlink user
    from the fresh transmit filters, with the per-user leakage (trace of the
    projected interference covariance) recorded each iteration.  Stops when
    the total drops to ``leakage_stop`` times the first iteration's total or
    after ``max_iters``; non-convergence is reported in the trace, never
    raised.  This is `iterate_alignment_batch` for one power profile.

    Returns ``(u_alpha, v_beta, trace)``.
    """
    return iterate_alignment_batch(channels, dof, (powers,), opts, rng)[0]


def iterate_alignment_batch(channels, dof, profiles, opts=None, rng=None):
    """`iterate_alignment` at every power profile of ``profiles`` at once.

    The builds share the channels and the initial filters drawn from
    ``rng`` and differ only in their leakage weights, so they run as the
    members of one `_kernels.alignment_loop`, which takes the cross channels
    and the initial filters as they are, one matrix per user.  Each build
    stops on its own and is bit-identical to a build on its own.

    Returns one ``(u_alpha, v_beta, trace)`` per profile.
    """
    opts = opts or IterationOptions()
    if rng is None:
        rng = RngStream(0, 1)
    config = channels.config
    # the loop's covariance stacks, one per filter shape, hold more entries
    # than the initial filters
    for (n, _), users in (_kernels._shape_groups(config.n_alpha, dof.d_alpha)
                          + _kernels._shape_groups(config.n_beta, dof.d_beta)):
        _guard_entries(len(profiles) * len(users) * n * n,
                       "a stage-1 covariance stack")
    u0 = init_postcoders(config, dof, rng)
    w_alpha = [[p / d if d else 0.0 for p, d in zip(powers.p_alpha, dof.d_alpha)]
               for powers in profiles]
    w_beta = [[p / d if d else 0.0 for p, d in zip(powers.p_beta, dof.d_beta)]
              for powers in profiles]
    u_alpha, v_beta, totals, per_user, _, converged = _kernels.alignment_loop(
        channels.g_cross, config.n_alpha, config.n_beta, dof.d_alpha, dof.d_beta,
        w_alpha, w_beta, u0, opts.max_iters, opts.leakage_stop)
    return tuple((u, v, LeakageTrace(t, p, c))
                 for u, v, t, p, c in zip(u_alpha, v_beta, totals, per_user, converged))


def _guarded_pinv(a, branch):
    """SVD pseudo-inverse with a condition-number guard."""
    m, n = a.shape
    if m == 0 or n == 0:
        return np.zeros((n, m), dtype=np.complex128)
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    if s[-1] <= 0 or s[0] / s[-1] > COND_LIMIT:
        raise SingularSystemError(
            f"stacked effective channel in the {branch} branch is rank "
            f"deficient (condition number above {COND_LIMIT:.0e})")
    return (vh.conj().T * (1.0 / s)[None, :]) @ u.conj().T


def _split(mat, widths, axis):
    """Consecutive blocks of ``widths`` along ``axis`` (0 or 1), as views: a
    product with a copy can round differently, e.g. in the single-cell baseline."""
    edges = [0, *itertools.accumulate(widths)]
    return tuple(mat[:, a:b] if axis else mat[a:b] for a, b in zip(edges, edges[1:]))


def zero_force_step2(channels, dof, u_alpha, v_beta):
    """Zero-force the remaining couplings given the stage-1 filters.

    The stacked effective channels are ``a = [U_k^H H_k]`` (downlink users
    stacked by rows) and ``b = [H_l V_l]`` (uplink users side by side).  The
    larger base station solves second and also nulls the BS-to-BS link: when
    M_alpha >= M_beta the uplink receive filters are the left pseudo-inverse
    ``p`` of ``b`` and the downlink precoders the leading columns of the right
    pseudo-inverse of ``[a; p G]``; otherwise the precoders are the right
    pseudo-inverse ``r`` of ``a`` and the receive filters the leading rows of
    the left pseudo-inverse of ``[b, G r]``.  A cell without streams is an
    empty block, and the coupling term is stacked only when the cell solved
    second has streams.  Outputs are unnormalized; run `normalize` afterwards.

    Returns ``(v_alpha, u_beta)``.
    """
    config = channels.config
    sum_a, sum_b = dof.sum_alpha, dof.sum_beta
    _guard_entries((sum_a + sum_b) * max(config.m_alpha, config.m_beta),
                   "a stage-2 stack")
    g_bs = channels.g_bs
    a = np.vstack([u.conj().T @ h for u, h in zip(u_alpha, channels.h_alpha)])
    b = np.hstack([h @ v for h, v in zip(channels.h_beta, v_beta)])
    if config.m_alpha >= config.m_beta:
        p = _guarded_pinv(b, "downlink-heavy")
        r = _guarded_pinv(np.vstack([a, p @ g_bs]) if sum_a else a,
                          "downlink-heavy")[:, :sum_a]
    else:
        r = _guarded_pinv(a, "uplink-heavy")
        p = _guarded_pinv(np.hstack([b, g_bs @ r]) if sum_b else b,
                          "uplink-heavy")[:sum_b]
    return (_split(r, dof.d_alpha, 1),
            tuple(blk.conj().T for blk in _split(p, dof.d_beta, 0)))


def _normalize_matrix(mat, what):
    norms = np.linalg.norm(mat, axis=0)
    if np.any(~(norms > 0)):
        raise ConfigError(f"zero column in {what}")
    return mat / norms[None, :]


def normalize(bf):
    """Rescale every column of every filter to unit norm (idempotent)."""
    return BeamformerSet(
        u_alpha=tuple(_normalize_matrix(m, f"u_alpha[{k + 1}]")
                      for k, m in enumerate(bf.u_alpha)),
        v_alpha=tuple(_normalize_matrix(m, f"v_alpha[{k + 1}]")
                      for k, m in enumerate(bf.v_alpha)),
        u_beta=tuple(_normalize_matrix(m, f"u_beta[{l + 1}]")
                     for l, m in enumerate(bf.u_beta)),
        v_beta=tuple(_normalize_matrix(m, f"v_beta[{l + 1}]")
                     for l, m in enumerate(bf.v_beta)),
    )


def construct_beamformers(channels, dof, powers, opts=None, rng=None):
    """Full pipeline: alternating minimization, zero-forcing, normalization.

    Returns ``(BeamformerSet, LeakageTrace)``.
    """
    u_alpha, v_beta, trace = iterate_alignment(channels, dof, powers, opts, rng)
    return complete_beamformers(channels, dof, u_alpha, v_beta), trace


def complete_beamformers(channels, dof, u_alpha, v_beta):
    """Stage 2 and normalization on given stage-1 filters: a `BeamformerSet`."""
    v_alpha, u_beta = zero_force_step2(channels, dof, u_alpha, v_beta)
    return normalize(BeamformerSet(u_alpha, v_alpha, u_beta, v_beta))


def _min_singular(mat):
    if mat.size == 0:
        return np.inf
    return float(np.linalg.svd(mat, compute_uv=False)[-1])


@dataclass(frozen=True)
class ResidualReport:
    """Frobenius norms of every alignment term plus desired-link rank margins.

    ``inter_alpha[k, l]`` is the cross-link residual at downlink user k from
    uplink user l; ``inter_beta[l, k]`` the BS-to-BS residual at uplink
    stream group l from downlink precoder k; the intra matrices hold
    off-diagonal in-cell residuals (diagonal fixed at zero).  Margins are the
    smallest singular values of the effective desired-link matrices
    (infinite for zero-stream users).
    """

    inter_alpha: np.ndarray
    inter_beta: np.ndarray
    intra_alpha: np.ndarray
    intra_beta: np.ndarray
    margin_alpha: np.ndarray
    margin_beta: np.ndarray

    @property
    def max_inter_alpha(self):
        return float(self.inter_alpha.max()) if self.inter_alpha.size else 0.0

    @property
    def max_inter_beta(self):
        return float(self.inter_beta.max()) if self.inter_beta.size else 0.0

    @property
    def max_intra_alpha(self):
        return float(self.intra_alpha.max()) if self.intra_alpha.size else 0.0

    @property
    def max_intra_beta(self):
        return float(self.intra_beta.max()) if self.intra_beta.size else 0.0

    @property
    def min_margin(self):
        margins = np.concatenate([self.margin_alpha, self.margin_beta])
        finite = margins[np.isfinite(margins)]
        return float(finite.min()) if finite.size else np.inf

    def to_dict(self):
        def clean(a):
            return np.where(np.isfinite(a), a, -1.0).tolist()

        return {
            "inter_alpha": self.inter_alpha.tolist(),
            "inter_beta": self.inter_beta.tolist(),
            "intra_alpha": self.intra_alpha.tolist(),
            "intra_beta": self.intra_beta.tolist(),
            "margin_alpha": clean(self.margin_alpha),
            "margin_beta": clean(self.margin_beta),
        }


def _link_rows(channels, bf):
    """Every effective link ``(U_r^H H_rt) V_t``, one receiver row
    ``[link_r0, link_r1, ...]`` at a time.

    Receivers r and transmitters t both list the downlink users first, then
    the uplink users: r < K is downlink user r and r >= K the uplink BS
    filter of user r - K.  ``H_rt`` is ``h_alpha[r]`` or ``g_cross[r][t - K]``
    at a downlink user and ``g_bs`` or ``h_beta[t - K]`` at the uplink BS.
    Only the row being read is held, so the links of all (K + L)^2 pairs are
    never stored at once.
    """
    K = len(bf.u_alpha)
    v = [*bf.v_alpha, *bf.v_beta]
    for u, h, g_row in zip(bf.u_alpha, channels.h_alpha, channels.g_cross):
        yield [u.conj().T @ h_t @ v_t for h_t, v_t in zip([h] * K + [*g_row], v)]
    up = [channels.g_bs] * K + [*channels.h_beta]
    for u in bf.u_beta:
        yield [u.conj().T @ h_t @ v_t for h_t, v_t in zip(up, v)]


def residual_report(channels, bf, dof):
    """Measure every alignment condition for a finished beamformer set: the
    norm of every link block but the desired ones, and the smallest singular
    value of each desired link."""
    K = len(bf.u_alpha)
    users = K + len(bf.u_beta)
    norms, margins = np.empty((users, users)), np.empty(users)
    for r, row in enumerate(_link_rows(channels, bf)):
        norms[r] = [np.linalg.norm(b) for b in row]
        margins[r] = _min_singular(row[r])
    np.fill_diagonal(norms, 0.0)
    return ResidualReport(norms[:K, K:], norms[K:, :K], norms[:K, :K],
                          norms[K:, K:], margins[:K], margins[K:])
