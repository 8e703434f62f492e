"""Construction of aligning precoders and postcoders.

Stage 1 drives the cross-link interference seen by the downlink users to
zero by alternating minimization (`iterate_alignment`): the uplink transmit
filters and downlink receive filters are re-pointed, in turn, at the
eigenvectors of their interference covariance with the smallest eigenvalues;
those covariances and updates exist only inside `_kernels.alignment_loop`.
Stage 2 (`zero_force_step2`) then zero-forces the remaining couplings
(intra-cell interference in both cells and the BS-to-BS link) through
pseudo-inverses of stacked effective channels.  `residual_report` measures
how well a finished beamformer set satisfies every alignment condition.  It
and the rates of `evaluate` read the effective links ``U_r^H H_rt V_t`` of
every receiver r and transmitter t from one table, `_link_blocks`.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import ConfigError, SingularSystemError
from .model import RngStream, _as_int, complex_gaussian, validate_config

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
        if any(p < 0 for p in self.p_alpha) or any(p < 0 for p in self.p_beta):
            raise ConfigError("transmit powers must be >= 0")


@dataclass(frozen=True)
class IterationOptions:
    max_iters: int = 5000
    leakage_stop: float = 1e-10

    def __post_init__(self):
        object.__setattr__(self, "max_iters", _as_int(self.max_iters, "max_iters"))
        if self.max_iters < 1:
            raise ConfigError("max_iters must be >= 1")
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
    raised.  The loop is `_kernels.alignment_loop`, which takes the cross
    channels and the initial filters as they are, one matrix per user.

    Returns ``(u_alpha, v_beta, trace)``.
    """
    opts = opts or IterationOptions()
    if rng is None:
        rng = RngStream(0, 1)
    config = channels.config
    u0 = init_postcoders(config, dof, rng)
    w_alpha = [p / d if d else 0.0 for p, d in zip(powers.p_alpha, dof.d_alpha)]
    w_beta = [p / d if d else 0.0 for p, d in zip(powers.p_beta, dof.d_beta)]
    u_alpha, v_beta, totals, per_user, _, converged = _kernels.alignment_loop(
        channels.g_cross, config.n_alpha, config.n_beta, dof.d_alpha, dof.d_beta,
        w_alpha, w_beta, u0, opts.max_iters, opts.leakage_stop)
    return u_alpha, v_beta, LeakageTrace(totals, per_user, converged)


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


def _no_streams(rows):
    """Zero-column filters, one per user of a cell without streams."""
    return tuple(np.zeros((r, 0), dtype=np.complex128) for r in rows)


def _split(mat, widths, axis):
    """Consecutive blocks of ``widths`` along ``axis`` (0 or 1), as views: a
    product with a copy can round differently, e.g. in the single-cell baseline."""
    edges = [0, *itertools.accumulate(widths)]
    return tuple(mat[:, a:b] if axis else mat[a:b] for a, b in zip(edges, edges[1:]))


def zero_force_step2(channels, dof, u_alpha, v_beta):
    """Zero-force the remaining couplings given the stage-1 filters.

    When the downlink BS has at least as many antennas as the uplink BS, the
    uplink receive filters come first (left pseudo-inverse of the stacked
    uplink effective channels) and the downlink precoders then null both the
    intra-cell and the BS-to-BS interference (leading columns of the right
    pseudo-inverse of the combined stack).  Otherwise the mirrored order is
    used.  Outputs are unnormalized; run `normalize` afterwards.

    Returns ``(v_alpha, u_beta)``.
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


def _normalize_matrix(mat, what):
    if mat.shape[1] == 0:
        return mat.copy()
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
    v_alpha, u_beta = zero_force_step2(channels, dof, u_alpha, v_beta)
    bf = normalize(BeamformerSet(u_alpha, v_alpha, u_beta, v_beta))
    return bf, trace


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


def _link_blocks(channels, bf):
    """Every effective link ``(U_r^H H_rt) V_t`` as ``blocks[r][t]``.

    Receivers r and transmitters t both list the downlink users first, then
    the uplink users: r < K is downlink user r and r >= K the uplink BS
    filter of user r - K.  ``H_rt`` is ``h_alpha[r]`` or ``g_cross[r][t - K]``
    at a downlink user and ``g_bs`` or ``h_beta[t - K]`` at the uplink BS.
    """
    K = len(bf.u_alpha)
    rows = [(u, [h] * K + [*g_row])
            for u, h, g_row in zip(bf.u_alpha, channels.h_alpha, channels.g_cross)]
    rows += [(u, [channels.g_bs] * K + [*channels.h_beta]) for u in bf.u_beta]
    v = [*bf.v_alpha, *bf.v_beta]
    return [[u.conj().T @ h @ v_t for h, v_t in zip(h_row, v)] for u, h_row in rows]


def residual_report(channels, bf, dof):
    """Measure every alignment condition for a finished beamformer set: the
    norm of every link block but the desired ones, and the smallest singular
    value of each desired link."""
    K = len(bf.u_alpha)
    blocks = _link_blocks(channels, bf)
    norms = np.array([[np.linalg.norm(b) for b in row] for row in blocks])
    np.fill_diagonal(norms, 0.0)
    margins = np.array([_min_singular(row[r]) for r, row in enumerate(blocks)])
    return ResidualReport(norms[:K, K:], norms[K:, :K], norms[:K, :K],
                          norms[K:, K:], margins[:K], margins[K:])
