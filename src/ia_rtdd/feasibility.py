"""Feasibility of a stream allocation and search for the maximum sum DoF.

Three deciders are provided:

* `check_necessary` - the converse side: per-cell and cross-BS stream
  budgets plus two families of per-subset conditions (antenna bound and
  equation/variable counting), enumerated exhaustively over all subset
  pairs.  Condition ids "8a".."8e".
* `check_sufficient` - the achievability side: the stream budgets "8a".."8c"
  plus full row rank of the alignment coefficient matrix on sampled
  channels, majority-voted over independent draws.  Condition id "rank".
* `check_symmetric_sufficient` - the compact test for per-cell symmetric
  allocations, ids "13a".."13e"; when the divisibility condition "13d"
  holds this test is exact, which the report flags.

`search_max_sum_dof` scans allocations in descending sum order and returns
the best one passing the selected decider.  User indices in witnesses are
1-based to match the (alpha, k) / (beta, l) labeling used everywhere else.
"""

from dataclasses import dataclass, replace
from itertools import accumulate, chain

import numpy as np

from . import _kernels
from .errors import BudgetError, ConfigError, MatchingError, SubsetLimitError
from .model import (ChannelSet, DofAllocation, NetworkConfig, RngStream,
                    _as_int, sample_channels, validate_config, validate_trials)

DEFAULT_SUBSET_LIMIT = 20
DEFAULT_SEARCH_BUDGET = 2_000_000
DEFAULT_RANK_TRIALS = 5
RANK_RTOL = 1e-10


@dataclass(frozen=True)
class ConditionResult:
    condition_id: str
    passed: bool
    witness: dict | None = None

    def to_dict(self):
        out = {"id": self.condition_id, "pass": bool(self.passed)}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


@dataclass(frozen=True)
class FeasibilityReport:
    """Per-condition verdicts; overall verdict passes iff every condition does."""

    verdict: bool
    conditions: tuple
    extra: dict | None = None

    def condition(self, condition_id):
        for c in self.conditions:
            if c.condition_id == condition_id:
                return c
        raise KeyError(condition_id)

    def to_dict(self):
        out = {"verdict": bool(self.verdict),
               "conditions": [c.to_dict() for c in self.conditions]}
        if self.extra:
            out.update(self.extra)
        return out


def _make_report(conditions, extra=None):
    verdict = all(c.passed for c in conditions)
    return FeasibilityReport(verdict, tuple(conditions), extra)


def _subset_witness(pair):
    """1-based user indices of a violating ``(alpha_mask, beta_mask)`` pair."""
    alpha, beta = ([i + 1 for i in _kernels._mask_key(m)] for m in pair)
    return {"I_alpha": alpha, "I_beta": beta}


def _guard_subset_size(config, subset_limit):
    limit = (DEFAULT_SUBSET_LIMIT if subset_limit is None
             else _as_int(subset_limit, "subset_limit"))
    users = config.num_alpha + config.num_beta
    if users > limit:
        raise SubsetLimitError(
            f"subset enumeration over {users} users exceeds the limit of {limit}; "
            f"raise the limit explicitly to override")


def _budget_conditions(config, dof):
    sum_a, sum_b = dof.sum_alpha, dof.sum_beta
    return [
        ConditionResult("8a", sum_a <= config.m_alpha),
        ConditionResult("8b", sum_b <= config.m_beta),
        ConditionResult("8c", sum_a + sum_b <= max(config.m_alpha, config.m_beta)),
    ]


def check_necessary(config, dof, subset_limit=None):
    """Evaluate every converse condition; any feasible allocation passes all.

    The two subset families are scanned over all 2^K * 2^L subset pairs; a
    failing condition records the lexicographically first violating pair.
    """
    validate_config(config, dof)
    _guard_subset_size(config, subset_limit)
    conditions = _budget_conditions(config, dof)
    bound, count = _kernels.subset_scan(dof.d_alpha, config.n_alpha,
                                        dof.d_beta, config.n_beta)
    for cid, pair in (("8d", bound), ("8e", count)):
        conditions.append(ConditionResult(cid, pair is None,
                                          pair and _subset_witness(pair)))
    return _make_report(conditions)


def two_user_ic_dof(m1, n1, m2, n2):
    """Optimal sum DoF of the two-user MIMO interference channel."""
    return min(m1 + m2, n1 + n2, max(m1, n2), max(m2, n1))


def single_cell_dof(config):
    """Sum DoF obtained by silencing one cell and serving the other alone."""
    return max(min(config.m_alpha, sum(config.n_alpha)),
               min(config.m_beta, sum(config.n_beta)))


def dual_config(config):
    """Swap the roles of the two cells."""
    return NetworkConfig(config.m_beta, config.n_beta,
                         config.m_alpha, config.n_alpha)


def dual_allocation(dof):
    return DofAllocation(dof.d_beta, dof.d_alpha)


# ---------------------------------------------------------------------------
# alignment coefficient matrix
# ---------------------------------------------------------------------------

def _alignment_offsets(config, dof):
    """Block start offsets ``(rows, cols)`` of the alignment coefficient
    matrix, each ending in the matrix dimension.

    ``rows[k * L + l]`` starts the (k, l) block of d_alpha_k * d_beta_l
    equations, k-major; ``cols[k]`` starts the receive-filter block of user
    (alpha, k) and ``cols[K + l]`` the transmit-filter block of user (beta, l).
    """
    rows = accumulate((da * db for da in dof.d_alpha for db in dof.d_beta),
                      initial=0)
    free = chain(zip(dof.d_alpha, config.n_alpha), zip(dof.d_beta, config.n_beta))
    cols = accumulate((d * (n - d) for d, n in free), initial=0)
    return tuple(rows), tuple(cols)


def build_alignment_matrix(channels, dof):
    """Assemble the alignment coefficient matrix from the cross channels.

    It is the Jacobian of the cross-link residuals ``U_k^H G_kl V_l`` at the
    filters ``U_k = [I; X_k^H]``, ``V_l = [I; Y_l]`` with ``X = Y = 0``.
    Rows come in (k, l) blocks of d_alpha_k * d_beta_l equations, k-major;
    within a block, equation (m, n) sits at row m * d_beta_l + n (0-based).
    Columns hold the K receive-filter blocks, entry (m, j) of X_k at column
    m * (N_alpha_k - d_alpha_k) + j, followed by the L transmit-filter
    blocks, entry (i, n) of Y_l at column n * (N_beta_l - d_beta_l) + i.
    Block (k, l) reads only the off-corner blocks of G_kl: the lower left
    ``G_kl[d_alpha_k:, :d_beta_l]`` (transposed, once per stream of user
    (alpha, k)) and the upper right ``G_kl[:d_alpha_k, d_beta_l:]`` (each
    row once per stream of user (beta, l)).
    """
    config, _ = validate_config(channels.config, dof)
    rows, cols = _alignment_offsets(config, dof)
    num_alpha, num_beta = config.num_alpha, config.num_beta
    mat = np.zeros((rows[-1], cols[-1]), dtype=np.complex128)
    for k, da in enumerate(dof.d_alpha):
        for l, db in enumerate(dof.d_beta):
            g = channels.g_cross[k][l]
            r0 = rows[k * num_beta + l]
            block = mat[r0:r0 + da * db]
            block[:, cols[k]:cols[k + 1]] = np.kron(np.eye(da), g[da:, :db].T)
            upper = g[:da, db:]
            block[:, cols[num_alpha + l]:cols[num_alpha + l + 1]] = (
                np.eye(db)[:, :, None] * upper[:, None, None, :]
            ).reshape(da * db, db * upper.shape[1])
    return mat


def numeric_rank(a):
    """SVD rank with threshold RANK_RTOL * sigma_max * max(shape)."""
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    if s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > RANK_RTOL * s[0] * max(a.shape)))


def check_sufficient(config, dof, trials=DEFAULT_RANK_TRIALS, rng=None):
    """Achievability test: stream budgets plus generic full row rank.

    Draws ``trials`` independent channel realizations, builds the alignment
    coefficient matrix for each, and requires a strict majority to reach
    full row rank.  A matrix with more rows than columns is reported as
    structurally impossible without sampling; a matrix with zero rows passes
    vacuously (no cross-interference equations to solve).  Raises
    `ConfigError` unless ``trials >= 1``.
    """
    validate_config(config, dof)
    trials = validate_trials(trials)
    if rng is None:
        rng = RngStream(0, 0)
    conditions = _budget_conditions(config, dof)
    if not all(c.passed for c in conditions):
        return _make_report(conditions)
    rows, cols = _alignment_offsets(config, dof)
    n_rows, n_cols = rows[-1], cols[-1]
    witness = {"rows": n_rows, "cols": n_cols}
    if n_rows == 0:
        witness.update({"ranks": [], "full_rank_trials": 0, "trials": 0,
                        "vacuous": True})
        conditions.append(ConditionResult("rank", True, witness))
        return _make_report(conditions)
    if n_rows > n_cols:
        witness.update({"ranks": [], "full_rank_trials": 0, "trials": 0,
                        "structurally_impossible": True})
        conditions.append(ConditionResult("rank", False, witness))
        return _make_report(conditions)
    ranks = []
    for t in range(trials):
        channels = sample_channels(config, rng.shifted(t))
        ranks.append(numeric_rank(build_alignment_matrix(channels, dof)))
    full = sum(1 for r in ranks if r == n_rows)
    witness.update({"ranks": ranks, "full_rank_trials": full, "trials": trials})
    conditions.append(ConditionResult("rank", 2 * full > trials, witness))
    return _make_report(conditions)


# ---------------------------------------------------------------------------
# symmetric allocations
# ---------------------------------------------------------------------------

def _expand_symmetric(config, d_alpha, d_beta):
    """The per-cell stream counts as ints, and their per-user allocation."""
    d_alpha, d_beta = _as_int(d_alpha, "d_alpha"), _as_int(d_beta, "d_beta")
    if d_alpha < 1 or d_beta < 1:
        raise ConfigError("symmetric stream counts must be >= 1")
    return d_alpha, d_beta, DofAllocation((d_alpha,) * config.num_alpha,
                                          (d_beta,) * config.num_beta)


def _divisibility_failure(config, d_alpha, d_beta):
    """First user whose leftover antennas N - d are not a multiple of the
    other cell's stream count, as a witness dict, or None."""
    for side, ns, own, divisor in (("alpha", config.n_alpha, d_alpha, d_beta),
                                   ("beta", config.n_beta, d_beta, d_alpha)):
        for i, n in enumerate(ns):
            if (n - own) % divisor != 0:
                return {"side": side, "user": i + 1, "leftover": n - own,
                        "divisor": divisor}
    return None


def check_symmetric_sufficient(config, d_alpha, d_beta, subset_limit=None):
    """Compact achievability test for one stream count per cell.

    Ids "13a".."13c" are the stream budgets, "13d" the divisibility of the
    leftover antenna dimensions, "13e" the per-subset counting bound.  The
    report's ``extra`` records whether the paired converse check also passes;
    when both pass the verdict is exact (the allocation is feasible and the
    converse certifies no symmetric allocation strictly dominates it under
    these conditions).
    """
    d_alpha, d_beta, dof = _expand_symmetric(config, d_alpha, d_beta)
    # For a symmetric allocation 13a-13c and 13e are the converse's 8a-8c
    # and 8e, witnesses included.
    necessary = check_necessary(config, dof, subset_limit)
    conditions = [replace(necessary.condition("8" + c), condition_id="13" + c)
                  for c in "abc"]
    div_witness = _divisibility_failure(config, d_alpha, d_beta)
    conditions.append(ConditionResult("13d", div_witness is None, div_witness))
    conditions.append(replace(necessary.condition("8e"), condition_id="13e"))
    verdict = all(c.passed for c in conditions)
    extra = {
        "d_sum": dof.total,
        "necessary_verdict": bool(necessary.verdict),
        "certified_exact": bool(verdict and necessary.verdict),
    }
    return FeasibilityReport(verdict, tuple(conditions), extra)


@dataclass(frozen=True)
class HallResult:
    """Outcome of `hall_condition`.

    ``matching`` maps each cross-link pair (k, l) to its spare block,
    ("alpha", k, i) or ("beta", l, j), or is None when the test fails.
    ``a_counts[k]`` is the number of spare receive-filter blocks of user
    (alpha, k), ``b_counts[l]`` that of spare transmit-filter blocks of user
    (beta, l).
    """

    passed: bool
    matching: dict | None
    a_counts: tuple
    b_counts: tuple


def hall_condition(config, d_alpha, d_beta):
    """Decide whether every cross-link pair can claim its own variable block.

    Runs augmenting-path maximum matching on the block-dependency graph, in
    which pair (k, l) is adjacent to every spare block of user (alpha, k) and
    of user (beta, l), and passes iff the matching saturates all K*L pairs;
    the matching itself is returned as the witness.  Pairs are processed in
    (k, l) order and spare blocks alpha-first, so the witness is
    deterministic.  Raises `ConfigError` unless every leftover dimension
    N - d divides into blocks of the other cell's stream count.
    """
    d_alpha, d_beta, dof = _expand_symmetric(config, d_alpha, d_beta)
    validate_config(config, dof)
    bad = _divisibility_failure(config, d_alpha, d_beta)
    if bad is not None:
        own = d_alpha if bad["side"] == "alpha" else d_beta
        raise ConfigError(
            f"leftover dimension N_{bad['side']}[{bad['user']}] - {own} not "
            f"divisible by {bad['divisor']}")
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


def construct_special_realization(config, d_alpha, d_beta):
    """Structured cross channels on which zero-variable alignment is exact.

    Every cross link zeroes its corner blocks; the single spare block matched
    to the link by `hall_condition` is set to an identity and every other
    spare block to zero.  Direct and BS-to-BS channels are returned as zeros
    (only the cross links matter here).

    Postconditions verified before returning: with the trivial filters
    [I; 0] the cross-interference residual is exactly zero, and every link
    depends on exactly one variable block, each block owned by one link (so
    the first-order coefficient map is a block permutation, hence
    non-singular).
    """
    result = hall_condition(config, d_alpha, d_beta)
    if not result.passed:
        raise MatchingError(
            "no complete matching of cross links to spare variable blocks")
    cross = []
    for k, na in enumerate(config.n_alpha):
        row = []
        for l, nb in enumerate(config.n_beta):
            g = np.zeros((na, nb), dtype=np.complex128)
            side, user, idx = result.matching[(k, l)]
            if side == "alpha":
                r0 = d_alpha + idx * d_beta
                g[r0:r0 + d_beta, :d_beta] = np.eye(d_beta)
            else:
                c0 = d_beta + idx * d_alpha
                g[:d_alpha, c0:c0 + d_alpha] = np.eye(d_alpha)
            g.setflags(write=False)
            row.append(g)
        cross.append(tuple(row))

    used = set()
    for k in range(config.num_alpha):
        for l in range(config.num_beta):
            g = cross[k][l]
            if np.any(g[:d_alpha, :d_beta]):
                raise MatchingError("corner block not zero in special realization")
            nonzero = 0
            for i in range(result.a_counts[k]):
                if np.any(g[d_alpha + i * d_beta:d_alpha + (i + 1) * d_beta, :d_beta]):
                    nonzero += 1
            for j in range(result.b_counts[l]):
                if np.any(g[:d_alpha, d_beta + j * d_alpha:d_beta + (j + 1) * d_alpha]):
                    nonzero += 1
            if nonzero != 1:
                raise MatchingError(
                    f"link ({k + 1},{l + 1}) depends on {nonzero} variable blocks")
            used.add(result.matching[(k, l)])
    if len(used) != config.num_alpha * config.num_beta:
        raise MatchingError("matched variable blocks are not distinct")

    def zeros(r, c):
        z = np.zeros((r, c), dtype=np.complex128)
        z.setflags(write=False)
        return z

    return ChannelSet(
        h_alpha=tuple(zeros(n, config.m_alpha) for n in config.n_alpha),
        g_cross=tuple(cross),
        h_beta=tuple(zeros(config.m_beta, n) for n in config.n_beta),
        g_bs=zeros(config.m_beta, config.m_alpha),
    )


# ---------------------------------------------------------------------------
# maximum sum DoF search
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SearchResult:
    mode: str
    d_sum: int
    allocation: DofAllocation
    report: FeasibilityReport
    examined: int

    def to_dict(self):
        return {"mode": self.mode, "d_sum": self.d_sum,
                "allocation": {"d_alpha": list(self.allocation.d_alpha),
                               "d_beta": list(self.allocation.d_beta)},
                "examined": self.examined,
                "report": self.report.to_dict()}


def _iter_allocations(config, total):
    """All valid allocations with the given sum, lexicographically ascending.

    Entries violating the per-cell stream budgets are pruned; they can pass
    neither decider.
    """
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


def search_max_sum_dof(config, mode="necessary", trials=DEFAULT_RANK_TRIALS,
                       rng=None, budget=DEFAULT_SEARCH_BUDGET,
                       subset_limit=None):
    """Maximum sum DoF over allocations passing the selected decider.

    Allocations are tried in descending sum, lexicographic ascending within a
    sum, and the first pass wins.  The all-zero allocation passes both
    deciders, so the search always returns.  Raises `BudgetError` when the
    raw allocation space prod(N + 1) exceeds ``budget``.
    """
    if mode not in ("necessary", "sufficient"):
        raise ConfigError(f"unknown search mode {mode!r}")
    space = 1
    for n in list(config.n_alpha) + list(config.n_beta):
        space *= n + 1
        if space > budget:
            raise BudgetError(
                f"allocation space exceeds the search budget of {budget}")
    if rng is None:
        rng = RngStream(0, 0)
    cap = min(max(config.m_alpha, config.m_beta),
              min(config.m_alpha, sum(config.n_alpha))
              + min(config.m_beta, sum(config.n_beta)))
    examined = 0
    for total in range(cap, -1, -1):
        for dof in _iter_allocations(config, total):
            examined += 1
            if mode == "necessary":
                report = check_necessary(config, dof, subset_limit)
            else:
                report = check_sufficient(config, dof, trials, rng)
            if report.verdict:
                return SearchResult(mode, total, dof, report, examined)
    raise AssertionError("unreachable: the all-zero allocation always passes")


def search_optimal(config, trials=DEFAULT_RANK_TRIALS, rng=None,
                   budget=DEFAULT_SEARCH_BUDGET, subset_limit=None):
    """Run both search modes and flag optimality when their maxima agree.

    Returns a dict with the two `SearchResult`s, the certified flag, and the
    gap between the converse bound and the certified value.
    """
    necessary = search_max_sum_dof(config, "necessary", trials, rng, budget,
                                   subset_limit)
    sufficient = search_max_sum_dof(config, "sufficient", trials, rng, budget,
                                    subset_limit)
    return {
        "necessary": necessary,
        "sufficient": sufficient,
        "optimal": necessary.d_sum == sufficient.d_sum,
        "gap": necessary.d_sum - sufficient.d_sum,
    }
