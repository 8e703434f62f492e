"""Feasibility of a stream allocation and search for the maximum sum DoF.

Three deciders are provided:

* `check_necessary` - the converse side: per-cell and cross-BS stream
  budgets plus two families of per-subset conditions (antenna bound and
  equation/variable counting), decided over all subset pairs from one table
  per side of the least antenna and d(N - d) totals per stream total, with
  the lexicographically first violating pair of each as its witness.
  Condition ids "8a".."8e".
* `check_sufficient` - the achievability side: the stream budgets "8a".."8c"
  plus full row rank of the alignment coefficient matrix on sampled
  channels, majority-voted over independent draws, which are built and
  ranked as stacks (one batched SVD each).  Condition id "rank".
* `check_symmetric_sufficient` - the compact test for per-cell symmetric
  allocations, ids "13a".."13e"; when the divisibility condition "13d"
  holds this test is exact, which the report flags.

`search_max_sum_dof` scans allocations in descending sum order and returns
the best one passing the selected decider.  Both modes run one O(users)
pre-check per allocation, as arrays over a block: the stream budgets 8a-8c
and the counting bound over all users (alignment equations <= variables,
which is 8e at the pair of full user sets).  The survivors then go in order
through the mode's decider, `check_necessary` or `check_sufficient`, and
the first pass wins.  `search_optimal` walks the survivors once for both
modes.  User indices in witnesses are 1-based to match the (alpha, k) /
(beta, l) labeling used everywhere else.
"""

from dataclasses import dataclass, replace
from itertools import accumulate, chain

import numpy as np

from . import _kernels
from .errors import BudgetError, ConfigError, MatchingError
# sample_channels is not called here, but perfbench/spans.py traces it at
# this lookup site, so the name stays
from .model import (ChannelSet, DofAllocation, NetworkConfig, RngStream,
                    _as_int, _draw, _draw_entries, _freeze, _guard_channels,
                    _guard_entries, _views, sample_channels, validate_config,
                    validate_trials)

DEFAULT_SEARCH_BUDGET = 2_000_000
# Entries of the widest array in one block of allocations of the search,
# unless one allocation alone needs more.
BLOCK = 1 << 16
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
    alpha, beta = ([i + 1 for i in range(m.bit_length()) if m >> i & 1]
                   for m in pair)
    return {"I_alpha": alpha, "I_beta": beta}


def _budget_conditions(config, dof):
    sum_a, sum_b = dof.sum_alpha, dof.sum_beta
    return [
        ConditionResult("8a", sum_a <= config.m_alpha),
        ConditionResult("8b", sum_b <= config.m_beta),
        ConditionResult("8c", sum_a + sum_b <= max(config.m_alpha, config.m_beta)),
    ]


def check_necessary(config, dof):
    """Evaluate every converse condition; any feasible allocation passes all.

    Each subset condition records its lexicographically first violating
    pair, built from the per-side stream-total tables of `_kernels`.
    """
    validate_config(config, dof)
    conditions = _budget_conditions(config, dof)
    bound, count = _kernels.subset_scan(dof.d_alpha, config.n_alpha,
                                        dof.d_beta, config.n_beta)
    for cid, pair in (("8d", bound), ("8e", count)):
        conditions.append(ConditionResult(cid, pair is None,
                                          pair and _subset_witness(pair)))
    return _make_report(conditions)


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

    ``rows[k]`` starts the d_alpha_k * sum(d_beta) equations of user
    (alpha, k), its (k, l) blocks of d_alpha_k * d_beta_l in l order;
    ``cols[k]`` starts the receive-filter block of user (alpha, k) and
    ``cols[K + l]`` the transmit-filter block of user (beta, l).  Both are
    O(users) long.
    """
    rows = accumulate((da * dof.sum_beta for da in dof.d_alpha), initial=0)
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
    row once per stream of user (beta, l)).  This is the one-draw case of
    the stack `check_sufficient` builds (`_alignment_stack`).
    """
    config, _ = validate_config(channels.config, dof)
    rows, cols = _alignment_offsets(config, dof)
    _guard_entries(rows[-1] * cols[-1], "the alignment matrix")
    return _alignment_stack(channels.g_cross, dof, rows, cols)


def _alignment_stack(g_cross, dof, rows, cols):
    """The alignment coefficient matrices of the cross channels ``g_cross``
    (a `ChannelSet` field, its matrices with any leading axes, such as the
    draws of a stack), with those leading axes; ``rows, cols`` are
    `_alignment_offsets`.

    Each block is the product of an identity with the channel blocks, entry
    by entry the product `build_alignment_matrix` documents, so every matrix
    of a stack is byte-equal to one built alone.
    """
    num_alpha = len(dof.d_alpha)
    lead = g_cross[0][0].shape[:-2]
    mat = np.zeros(lead + (rows[-1], cols[-1]), dtype=np.complex128)
    for k, da in enumerate(dof.d_alpha):
        r0 = rows[k]
        for l, db in enumerate(dof.d_beta):
            g = g_cross[k][l]
            block = mat[..., r0:r0 + da * db, :]
            r0 += da * db
            lower = g[..., da:, :db].swapaxes(-1, -2)
            block[..., cols[k]:cols[k + 1]] = (
                np.eye(da)[:, None, :, None] * lower[..., None, :, None, :]
            ).reshape(lead + (da * db, da * lower.shape[-1]))
            upper = g[..., :da, db:]
            block[..., cols[num_alpha + l]:cols[num_alpha + l + 1]] = (
                np.eye(db)[:, :, None] * upper[..., :, None, None, :]
            ).reshape(lead + (da * db, db * upper.shape[-1]))
    return mat


def numeric_rank(a):
    """SVD rank with threshold RANK_RTOL * sigma_max * max(rows, cols).

    ``a`` is one matrix, whose rank is returned as an int, or a stack of
    matrices over leading axes, whose ranks are returned as an integer array
    of those axes' shape from one batched SVD.  Empty and all-zero matrices
    have rank 0.
    """
    if a.size == 0:
        ranks = np.zeros(a.shape[:-2], dtype=np.int64)
    else:
        s = np.linalg.svd(a, compute_uv=False)
        ranks = np.count_nonzero(s > RANK_RTOL * s[..., :1] * max(a.shape[-2:]),
                                 axis=-1)
    return int(ranks) if a.ndim == 2 else ranks


def check_sufficient(config, dof, trials=DEFAULT_RANK_TRIALS, rng=None):
    """Achievability test: stream budgets plus generic full row rank.

    Draws ``trials`` independent channel realizations (draw t from
    ``rng.shifted(t)``; ``rng`` itself is not consumed), builds the
    alignment coefficient matrix for each, and requires a strict majority to
    reach full row rank.  The draws are built and ranked as stacks, each of
    as many draws as keep its draws' and its matrices' entries within
    `BLOCK` (at least one draw).  A stack's draws are the rows of one array,
    whose cross channels (`model._views`) give the stack's matrices, ranked
    by one batched SVD.  A matrix with more rows than columns is reported as
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
    ranks = []
    if 0 < n_rows <= n_cols:
        # the draw's bound first, then the matrix's, as when each draw was
        # built on its own
        _guard_channels(config)
        _guard_entries(n_rows * n_cols, "the alignment matrix")
        entries = _draw_entries(config)
        chunk = max(1, BLOCK // (entries + n_rows * n_cols))
        # one array holds the draws of every stack in turn
        flat = np.empty((min(chunk, trials), entries), dtype=np.complex128)
        for start in range(0, trials, chunk):
            stack = flat[:trials - start]
            for i in range(len(stack)):
                stack[i] = _draw(config, rng.shifted(start + i))
            ranks += numeric_rank(_alignment_stack(
                _views(config, stack)[1], dof, rows, cols)).tolist()
    full = sum(1 for r in ranks if r == n_rows)
    witness = {"rows": n_rows, "cols": n_cols, "ranks": ranks,
               "full_rank_trials": full, "trials": len(ranks)}
    if n_rows == 0:
        witness["vacuous"] = True
    elif n_rows > n_cols:
        witness["structurally_impossible"] = True
    passed = n_rows == 0 or 2 * full > len(ranks)
    conditions.append(ConditionResult("rank", passed, witness))
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


def check_symmetric_sufficient(config, d_alpha, d_beta):
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
    necessary = check_necessary(config, dof)
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

    def spares(pair):
        k, l = pair
        return chain((("alpha", k, i) for i in range(a_counts[k])),
                     (("beta", l, j) for j in range(b_counts[l])))

    def augment(root):
        # depth-first search for an augmenting path from ``root``, with an
        # explicit stack of (pair, its untried spares) and the spare each
        # frame below the top is trying; on reaching a free spare, every
        # pair on the path takes the spare it tried
        seen, path, tried = set(), [(root, spares(root))], []
        while path:
            spare = next((s for s in path[-1][1] if s not in seen), None)
            if spare is None:
                path.pop()
                if tried:
                    tried.pop()
                continue
            seen.add(spare)
            tried.append(spare)
            if spare not in owner:
                for (pair, _), taken in zip(path, tried):
                    owner[taken] = pair
                return True
            path.append((owner[spare], spares(owner[spare])))
        return False

    pairs = [(k, l) for k in range(config.num_alpha) for l in range(config.num_beta)]
    passed = all(augment(pair) for pair in pairs)
    matching = {pair: spare for spare, pair in owner.items()} if passed else None
    return HallResult(passed, matching, a_counts, b_counts)


def construct_special_realization(config, d_alpha, d_beta):
    """Structured cross channels on which zero-variable alignment is exact.

    Every cross link zeroes its corner blocks; the single spare block matched
    to the link by `hall_condition` is set to an identity and every other
    spare block to zero.  Direct and BS-to-BS channels are returned as zeros
    (only the cross links matter here).  Every matrix is a read-only view of
    one zero array in `sample_channels`' layout (`model._views`).

    Postconditions verified before returning, on the alignment matrix at the
    symmetric allocation: with the trivial filters [I; 0] the corner blocks,
    and so the cross-interference residual, are exactly zero, and every row
    has one nonzero entry and no column more than one (every link depends on
    exactly one variable block, each block owned by one link), so the matrix
    is a block permutation, hence of full row rank.
    """
    d_alpha, d_beta, dof = _expand_symmetric(config, d_alpha, d_beta)
    _guard_channels(config)
    result = hall_condition(config, d_alpha, d_beta)
    if not result.passed:
        raise MatchingError(
            "no complete matching of cross links to spare variable blocks")
    flat = np.zeros(_draw_entries(config), dtype=np.complex128)
    cross = _views(config, flat)[1]
    for (k, l), (side, _, idx) in result.matching.items():
        if side == "alpha":
            r0 = d_alpha + idx * d_beta
            cross[k][l][r0:r0 + d_beta, :d_beta] = np.eye(d_beta)
        else:
            c0 = d_beta + idx * d_alpha
            cross[k][l][:d_alpha, c0:c0 + d_alpha] = np.eye(d_alpha)
    channels = ChannelSet(*_views(config, _freeze(flat)))
    nonzero = build_alignment_matrix(channels, dof) != 0
    if (any(np.any(g[:d_alpha, :d_beta]) for row in channels.g_cross for g in row)
            or np.any(nonzero.sum(axis=1) != 1) or np.any(nonzero.sum(axis=0) > 1)):
        raise MatchingError("special realization is not a block permutation")
    return channels


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


def _allocation_blocks(config, total, rows):
    """All allocations with the given sum, lexicographically ascending, as
    int64 arrays of at most ``rows`` rows (downlink users first).

    Entries violating the per-user or per-cell stream budgets are pruned;
    they can pass neither decider.  Column i is filled by expanding each
    prefix row into its admissible values in ascending order, depth-first
    in slices of ``rows``, so the order is lexicographic.
    """
    caps = config.n_alpha + config.n_beta
    num_a, users = config.num_alpha, len(caps)
    after = tuple(accumulate(reversed(caps[1:]), initial=0))[::-1]

    def expand(block, i):
        if i == users:
            yield block
            return
        cell = slice(0, num_a) if i < num_a else slice(num_a, users)
        budget = config.m_alpha if i < num_a else config.m_beta
        remaining = total - block.sum(axis=1)
        hi = np.minimum(np.minimum(caps[i], remaining),
                        budget - block[:, cell].sum(axis=1))
        lo = np.maximum(0, remaining - after[i])
        counts = np.maximum(hi - lo + 1, 0)
        ends = np.cumsum(counts)
        for start in range(0, int(ends[-1]), rows):
            flat = np.arange(start, min(start + rows, int(ends[-1])))
            src = np.searchsorted(ends, flat, side="right")
            child = block[src]
            child[:, i] = lo[src] + flat - (ends[src] - counts[src])
            yield from expand(child, i + 1)

    yield from expand(np.zeros((1, users), dtype=np.int64), 0)


def _precheck(config, block):
    """Which allocations of a block (rows as from `_allocation_blocks`) pass
    the O(users) pre-check: the stream budgets 8a-8c and the counting bound
    over all users, alignment equations <= variables (8e at the pair of full
    user sets).  A row failing it fails both deciders; these are the rows
    `check_sufficient` fails without a draw.
    """
    num_a = config.num_alpha
    sum_a, sum_b = block[:, :num_a].sum(axis=1), block[:, num_a:].sum(axis=1)
    free = block * (np.array(config.n_alpha + config.n_beta) - block)
    return ((sum_a <= config.m_alpha) & (sum_b <= config.m_beta)
            & (sum_a + sum_b <= max(config.m_alpha, config.m_beta))
            & (sum_a * sum_b <= free.sum(axis=1)))


def _check_budget(config):
    """Raise `BudgetError` when the raw allocation space prod(N + 1)
    exceeds `DEFAULT_SEARCH_BUDGET`."""
    space = 1
    for n in config.n_alpha + config.n_beta:
        space *= n + 1
        if space > DEFAULT_SEARCH_BUDGET:
            raise BudgetError("allocation space exceeds the search budget of "
                              f"{DEFAULT_SEARCH_BUDGET}")


def _survivors(config):
    """The allocations passing `_precheck`, in search order (descending sum,
    lexicographic ascending within a sum), as ``(total, examined, dof)``;
    ``examined`` is the allocation's 1-based position among all allocations
    enumerated.  The all-zero allocation comes last."""
    rows = max(1, BLOCK // (config.num_alpha + config.num_beta))
    cap = min(max(config.m_alpha, config.m_beta),
              min(config.m_alpha, sum(config.n_alpha))
              + min(config.m_beta, sum(config.n_beta)))
    num_a = config.num_alpha
    examined = 0
    for total in range(cap, -1, -1):
        for block in _allocation_blocks(config, total, rows):
            for i in np.flatnonzero(_precheck(config, block)).tolist():
                yield total, examined + i + 1, DofAllocation(
                    tuple(block[i, :num_a].tolist()), tuple(block[i, num_a:].tolist()))
            examined += len(block)


def _search(config, modes, trials, rng):
    """The first survivor (`_survivors`) that each mode's decider passes, as
    a `SearchResult` per mode, from one walk: each survivor goes to the
    deciders of the modes still without a winner, in the order of
    ``modes``, and the walk stops once every mode has one.  The deciders
    are pure, so each mode sees the calls a walk of its own would make."""
    if rng is None:
        rng = RngStream(0, 0)
    found = {}
    for total, examined, dof in _survivors(config):
        for mode in modes:
            if mode in found:
                continue
            report = (check_necessary(config, dof) if mode == "necessary"
                      else check_sufficient(config, dof, trials, rng))
            if report.verdict:
                found[mode] = SearchResult(mode, total, dof, report, examined)
        if len(found) == len(modes):
            return found
    raise AssertionError("unreachable: the all-zero allocation always passes")


def search_max_sum_dof(config, mode="necessary", trials=DEFAULT_RANK_TRIALS,
                       rng=None):
    """Maximum sum DoF over allocations passing the selected decider.

    Allocations are tried in descending sum, lexicographic ascending within a
    sum, and the first pass wins.  Each block of allocations is pre-checked
    as arrays (`_precheck`); the survivors then go in order through the
    mode's decider, whose report is returned for the winner.  ``examined`` is
    the winner's 1-based position among all allocations enumerated.  The
    all-zero allocation passes both deciders, so the search always returns.
    Raises `BudgetError` when the raw allocation space prod(N + 1) exceeds
    `DEFAULT_SEARCH_BUDGET`, before checking ``trials`` (sufficient mode).
    """
    if mode not in ("necessary", "sufficient"):
        raise ConfigError(f"unknown search mode {mode!r}")
    _check_budget(config)
    if mode == "sufficient":
        trials = validate_trials(trials)
    return _search(config, (mode,), trials, rng)[mode]


def search_optimal(config, trials=DEFAULT_RANK_TRIALS, rng=None):
    """Search both modes in one walk and flag optimality when their maxima
    agree.

    The allocations are enumerated and pre-checked once; each survivor goes
    to `check_necessary` and `check_sufficient` until each has passed one,
    so both results equal those of `search_max_sum_dof` in either mode.
    Returns a dict with the two `SearchResult`s, the certified flag, and the
    gap between the converse bound and the certified value.  Raises
    `BudgetError` as `search_max_sum_dof` does, then `ConfigError` unless
    ``trials >= 1``, both before any allocation is decided.
    """
    _check_budget(config)
    trials = validate_trials(trials)
    found = _search(config, ("necessary", "sufficient"), trials, rng)
    necessary, sufficient = found["necessary"], found["sufficient"]
    return {
        "necessary": necessary,
        "sufficient": sufficient,
        "optimal": necessary.d_sum == sufficient.d_sum,
        "gap": necessary.d_sum - sufficient.d_sum,
    }
