import json
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ia_rtdd as ia
from ia_rtdd import (BudgetError, ConfigError, DofAllocation, MatchingError,
                     NetworkConfig, RngStream, _kernels,
                     feasibility)

from oracles import (brute_first_violations, brute_necessary,
                     brute_symmetric_counting, brute_violations, iter_allocations,
                     per_block_alignment_matrix, recursive_hall_condition,
                     reference_search)

EX1 = NetworkConfig(10, (4, 6, 6), 13, (3, 6))
EX2 = NetworkConfig(8, (2, 3, 8), 12, (3, 7))
EX4 = NetworkConfig(12, (6, 6, 8), 16, (6, 6))
SIM = NetworkConfig(12, (8, 8, 8, 8), 18, (4, 4, 4))
# a network whose converse search decides nine pre-check survivors that fail
# before its winner
MIXED = NetworkConfig(10, (6, 7, 2), 13, (3, 2, 1))


def random_small_config(rng, max_users=3, max_antennas=8):
    k = int(rng.integers(1, max_users + 1))
    l = int(rng.integers(1, max_users + 1))
    return NetworkConfig(int(rng.integers(1, max_antennas + 1)),
                         tuple(int(v) for v in rng.integers(1, max_antennas + 1, k)),
                         int(rng.integers(1, max_antennas + 1)),
                         tuple(int(v) for v in rng.integers(1, max_antennas + 1, l)))


def random_allocation(rng, config):
    return DofAllocation(tuple(int(rng.integers(0, n + 1)) for n in config.n_alpha),
                         tuple(int(rng.integers(0, n + 1)) for n in config.n_beta))


class TestClosedForms:
    def test_single_cell_dof(self):
        assert ia.single_cell_dof(EX1) == 10
        assert ia.single_cell_dof(EX4) == 12
        assert ia.single_cell_dof(SIM) == 12

    def test_dual_config(self):
        dual = ia.dual_config(EX1)
        assert dual == NetworkConfig(13, (3, 6), 10, (4, 6, 6))
        assert ia.dual_config(dual) == EX1
        sym = NetworkConfig(5, (3,), 5, (3,))
        assert ia.dual_config(sym) == sym


class TestNecessary:
    def test_fourteen_streams_fail_bs_bound(self):
        report = ia.check_necessary(EX1, DofAllocation((3, 4, 3), (2, 2)))
        assert not report.verdict
        assert not report.condition("8c").passed
        assert report.condition("8a").passed and report.condition("8b").passed

    def test_all_zero_passes(self):
        report = ia.check_necessary(EX1, DofAllocation((0, 0, 0), (0, 0)))
        assert report.verdict

    def test_minimal_network_single_streams(self):
        cfg = NetworkConfig(2, (2,), 2, (2,))
        assert ia.check_necessary(cfg, DofAllocation((1,), (1,))).verdict

    def test_witness_is_lexicographically_first(self):
        # every singleton pair violates the counting bound; ({1}, {1}) must win
        cfg = NetworkConfig(9, (2, 2), 9, (2, 2))
        report = ia.check_necessary(cfg, DofAllocation((2, 2), (2, 2)))
        assert report.condition("8e").witness == {"I_alpha": [1], "I_beta": [1]}

    @pytest.mark.parametrize("seed", range(60))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        cfg = random_small_config(rng)
        dof = random_allocation(rng, cfg)
        report = ia.check_necessary(cfg, dof)
        expected = brute_necessary(cfg, dof.d_alpha, dof.d_beta)
        got = {c.condition_id: c.passed for c in report.conditions}
        assert got == expected

    def test_forty_plus_forty_users_answer(self):
        # 2^80 subset pairs per allocation: each witness, read back as index
        # sets, violates its condition by the definitions
        rng = np.random.default_rng(600)
        checked = 0
        for _ in range(9):
            cfg = NetworkConfig(200, tuple(int(v) for v in rng.integers(1, 9, 40)),
                                200, tuple(int(v) for v in rng.integers(1, 9, 40)))
            top = int(rng.integers(2, 10))
            dof = DofAllocation(*(tuple(int(min(n, v)) for n, v in
                                        zip(ns, rng.integers(0, top, 40)))
                                  for ns in (cfg.n_alpha, cfg.n_beta)))
            report = ia.check_necessary(cfg, dof)
            for cid in ("8d", "8e"):
                witness = report.condition(cid).witness
                if witness is None:
                    continue
                checked += 1
                ks = [k - 1 for k in witness["I_alpha"]]
                ls = [l - 1 for l in witness["I_beta"]]
                sd_a = sum(dof.d_alpha[k] for k in ks)
                sd_b = sum(dof.d_beta[l] for l in ls)
                if cid == "8d":
                    assert sd_a + sd_b > max(sum(cfg.n_alpha[k] for k in ks),
                                             sum(cfg.n_beta[l] for l in ls))
                else:
                    assert sd_a * sd_b > (
                        sum(dof.d_alpha[k] * (cfg.n_alpha[k] - dof.d_alpha[k]) for k in ks)
                        + sum(dof.d_beta[l] * (cfg.n_beta[l] - dof.d_beta[l]) for l in ls))
        assert checked >= 9
        one = DofAllocation((1,) + (0,) * 39, (1,) + (0,) * 39)
        assert ia.check_necessary(cfg, one).verdict

    def test_antenna_totals_stay_in_int64_range(self):
        # with 3.5e9 streams per user d * d wraps in int64 and 8e would read
        # as passing, though ({1}, {1}) violates it
        d = 3_500_000_000
        with pytest.raises(ConfigError, match=r"M_alpha must be below 2\^31"):
            NetworkConfig(4 * d, (d + 1,), 4 * d, (d + 1,))
        with pytest.raises(ConfigError, match=r"sum of N_beta must be below 2\^31"):
            NetworkConfig(8, (2,), 8, (1 << 30, 1 << 30))
        # just below the bound every subset sum and product is exact
        top = (1 << 31) - 1
        cfg = NetworkConfig(top, (1 << 30, (1 << 30) - 1), top, (top,))
        for dof in (DofAllocation((1 << 30, (1 << 30) - 1), (top,)),
                    DofAllocation((1 << 29, 1 << 29), (1 << 30,)),
                    DofAllocation((1, 0), (top - 1,))):
            report = ia.check_necessary(cfg, dof)
            for cid, want in zip(("8d", "8e"), brute_first_violations(
                    cfg, dof.d_alpha, dof.d_beta)):
                assert report.condition(cid).witness == (want and {
                    "I_alpha": [k + 1 for k in want[0]],
                    "I_beta": [l + 1 for l in want[1]]})

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.data())
    def test_failure_is_monotone_under_componentwise_increase(self, seed, data):
        rng = np.random.default_rng(seed)
        cfg = random_small_config(rng, max_users=2, max_antennas=5)
        dof = random_allocation(rng, cfg)
        if ia.check_necessary(cfg, dof).verdict:
            return
        slots = [("a", i) for i, (d, n) in enumerate(zip(dof.d_alpha, cfg.n_alpha)) if d < n]
        slots += [("b", i) for i, (d, n) in enumerate(zip(dof.d_beta, cfg.n_beta)) if d < n]
        if not slots:
            return
        side, i = data.draw(st.sampled_from(slots))
        da, db = list(dof.d_alpha), list(dof.d_beta)
        (da if side == "a" else db)[i] += 1
        assert not ia.check_necessary(cfg, DofAllocation(da, db)).verdict


def _layout(cfg, dof):
    """Row and column indices of the alignment matrix, straight from the
    layout that `build_alignment_matrix` documents."""
    rows, off = {}, 0
    for k, da in enumerate(dof.d_alpha):
        for l, db in enumerate(dof.d_beta):
            for m in range(da):
                for n in range(db):
                    rows[k, l, m, n] = off + m * db + n
            off += da * db
    cols_x, cols_y, col = {}, {}, 0
    for k, (da, na) in enumerate(zip(dof.d_alpha, cfg.n_alpha)):
        for m in range(da):
            for j in range(na - da):
                cols_x[k, m, j] = col + m * (na - da) + j
        col += da * (na - da)
    for l, (db, nb) in enumerate(zip(dof.d_beta, cfg.n_beta)):
        for n in range(db):
            for i in range(nb - db):
                cols_y[l, i, n] = col + n * (nb - db) + i
        col += db * (nb - db)
    return rows, cols_x, cols_y, (off, col)


# Irregular networks the per-block reference must agree with: a zero-stream
# user, no free variables at all, a silent downlink cell, a silent uplink
# cell and an allocation with no equations.
_IRREGULAR_CASES = [
    (NetworkConfig(9, (4, 2, 5), 9, (3, 6)), "0,2,3;2,4"),
    (NetworkConfig(9, (2, 3), 9, (4,)), "2,3;4"),
    (NetworkConfig(9, (3, 4), 9, (2, 5, 1)), "0,0;1,3,1"),
    (NetworkConfig(9, (3, 4, 2), 9, (5,)), "2,1,1;0"),
    (NetworkConfig(9, (3,), 9, (3,)), "0;0"),
]


class TestAlignmentMatrix:
    def test_simulation_network_is_square_72(self):
        ch = ia.sample_channels(SIM, RngStream(0, 0))
        mat = ia.build_alignment_matrix(ch, DofAllocation((3, 3, 3, 3), (2, 2, 2)))
        assert mat.shape == (72, 72)

    def test_minimal_network_is_1x2(self):
        cfg = NetworkConfig(2, (2,), 2, (2,))
        ch = ia.sample_channels(cfg, RngStream(0, 0))
        mat = ia.build_alignment_matrix(ch, DofAllocation((1,), (1,)))
        assert mat.shape == (1, 2)

    def test_rank_of_empty_and_zero_matrices(self):
        assert ia.numeric_rank(np.zeros((20, 0), dtype=complex)) == 0
        assert ia.numeric_rank(np.zeros((0, 3))) == 0
        assert ia.numeric_rank(np.zeros((3, 4), dtype=complex)) == 0
        assert ia.numeric_rank(np.eye(3)[:, :2]) == 2

    def test_rank_of_a_stack_is_the_rank_of_each_matrix(self):
        # full, all-zero and rank-deficient matrices in one stack, each
        # against its own largest singular value (the last is 1e-12 * I),
        # stacks over two leading axes, and stacks of empty matrices
        rng = np.random.default_rng(8)
        a = rng.standard_normal((5, 6, 9)) + 1j * rng.standard_normal((5, 6, 9))
        a[1] = 0
        a[2, 3:] = a[2, :3] * 2
        a[3, :, 1:] = 0
        a[4] = np.eye(6, 9) * 1e-12
        got = ia.numeric_rank(a)
        assert got.shape == (5,)
        assert got.tolist() == [ia.numeric_rank(m) for m in a] == [6, 0, 3, 1, 6]
        assert ia.numeric_rank(a.reshape(5, 1, 6, 9)).tolist() == [[r] for r in got.tolist()]
        assert ia.numeric_rank(a.conj().transpose(0, 2, 1)).tolist() == got.tolist()
        for shape in ((3, 20, 0), (3, 0, 4), (2, 2, 0, 0)):
            assert ia.numeric_rank(np.zeros(shape, dtype=complex)).tolist() == \
                np.zeros(shape[:-2], dtype=int).tolist()
        assert ia.numeric_rank(np.zeros((0, 4, 4))).shape == (0,)

    def test_no_free_variables_means_zero_columns(self):
        cfg = NetworkConfig(9, (2, 3), 9, (4,))
        ch = ia.sample_channels(cfg, RngStream(0, 0))
        mat = ia.build_alignment_matrix(ch, DofAllocation((2, 3), (4,)))
        assert mat.shape == (20, 0)

    def test_every_entry_comes_from_a_partition_block(self):
        # structure audit: nonzeros of the matrix match entries of the upper
        # right or lower left block of some cross link
        rng = np.random.default_rng(5)
        cfg = random_small_config(rng)
        dof = random_allocation(rng, cfg)
        ch = ia.sample_channels(cfg, RngStream(5, 0))
        mat = ia.build_alignment_matrix(ch, dof)
        pool = set()
        for k, da in enumerate(dof.d_alpha):
            for l, db in enumerate(dof.d_beta):
                g = ch.g_cross[k][l]
                pool.update(g[:da, db:].ravel().tolist())
                pool.update(g[da:, :db].ravel().tolist())
        for value in mat[mat != 0]:
            assert value in pool

    @pytest.mark.parametrize("case", range(50 + len(_IRREGULAR_CASES)))
    def test_matches_per_block_reference(self, case):
        # byte equality with the stream-by-stream kron/vstack assembly on
        # irregular networks of 1-4 users per cell and 1-9 antennas per user
        if case < 50:
            rng = np.random.default_rng(6000 + case)
            cfg = random_small_config(rng, max_users=4, max_antennas=9)
            dof = random_allocation(rng, cfg)
        else:
            cfg, text = _IRREGULAR_CASES[case - 50]
            dof = DofAllocation.parse(text)
        ch = ia.sample_channels(cfg, RngStream(case, 0))
        got = ia.build_alignment_matrix(ch, dof)
        want = per_block_alignment_matrix(ch, dof.d_alpha, dof.d_beta)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_finite_difference_jacobian(self, seed):
        # ground truth: the matrix must equal the Jacobian of the cross-link
        # residual map at the zero point of the free filter variables
        rng = np.random.default_rng(seed)
        cfg = random_small_config(rng, max_users=2, max_antennas=5)
        dof = random_allocation(rng, cfg)
        ch = ia.sample_channels(cfg, RngStream(1000 + seed, 0))
        mat = ia.build_alignment_matrix(ch, dof)
        rows, cols_x, cols_y, shape = _layout(cfg, dof)
        assert mat.shape == shape
        if 0 in shape:
            return
        xs = [np.zeros((d, n - d), dtype=complex)
              for d, n in zip(dof.d_alpha, cfg.n_alpha)]
        ys = [np.zeros((n - d, d), dtype=complex)
              for d, n in zip(dof.d_beta, cfg.n_beta)]

        def residual():
            out = np.zeros(shape[0], dtype=complex)
            for k in range(cfg.num_alpha):
                u = np.vstack([np.eye(dof.d_alpha[k]), xs[k].conj().T])
                for l in range(cfg.num_beta):
                    v = np.vstack([np.eye(dof.d_beta[l]), ys[l]])
                    r = u.conj().T @ ch.g_cross[k][l] @ v
                    for (m, n), value in np.ndenumerate(r):
                        out[rows[k, l, m, n]] = value
            return out

        eps = 1e-7
        base = residual()
        jac = np.zeros(shape, dtype=complex)
        for (k, m, j), col in cols_x.items():
            xs[k][m, j] = eps
            jac[:, col] = (residual() - base) / eps
            xs[k][m, j] = 0
        for (l, i, n), col in cols_y.items():
            ys[l][i, n] = eps
            jac[:, col] = (residual() - base) / eps
            ys[l][i, n] = 0
        assert np.abs(mat - jac).max() < 1e-6

    def test_ex2_twelve_streams_have_a_permutation_realization(self):
        # a draw-free proof that 2,2,4;1,3 on EX2 is of full generic rank:
        # each cross link (k, l) (1-based) takes d_beta_l receive-filter slots
        # of downlink user k or d_alpha_k transmit-filter slots of uplink user
        # l, the slots disjoint per user, and its 0/1 channel maps each of its
        # equations onto its own slot
        dof = DofAllocation((2, 2, 4), (1, 3))
        receive = {(2, 1): 0, (3, 1): 0, (3, 2): 1}   # link: first slot
        transmit = {(1, 1): 0, (1, 2): 0, (2, 2): 2}
        cross = [[np.zeros((na, nb), dtype=complex) for nb in EX2.n_beta]
                 for na in EX2.n_alpha]
        for (k, l), first in receive.items():
            da, db = dof.d_alpha[k - 1], dof.d_beta[l - 1]
            for n in range(db):
                cross[k - 1][l - 1][da + first + n, n] = 1
        for (k, l), first in transmit.items():
            da, db = dof.d_alpha[k - 1], dof.d_beta[l - 1]
            for m in range(da):
                cross[k - 1][l - 1][m, db + first + m] = 1
        ch = ia.ChannelSet(
            tuple(np.zeros((n, EX2.m_alpha)) for n in EX2.n_alpha),
            tuple(map(tuple, cross)),
            tuple(np.zeros((EX2.m_beta, n)) for n in EX2.n_beta),
            np.zeros((EX2.m_beta, EX2.m_alpha)))
        nonzero = ia.build_alignment_matrix(ch, dof) != 0
        assert nonzero.shape == (32, 32)
        assert (nonzero.sum(axis=1) == 1).all()
        assert (nonzero.sum(axis=0) <= 1).all()


class TestSufficient:
    def test_simulation_allocation_passes(self):
        report = ia.check_sufficient(SIM, DofAllocation((3, 3, 3, 3), (2, 2, 2)),
                                     rng=RngStream(11, 0))
        assert report.verdict
        witness = report.condition("rank").witness
        assert witness["rows"] == witness["cols"] == 72
        assert witness["full_rank_trials"] >= 4

    def test_structurally_impossible(self):
        cfg = NetworkConfig(4, (2,), 4, (2,))
        report = ia.check_sufficient(cfg, DofAllocation((2,), (2,)),
                                     rng=RngStream(0, 0))
        assert not report.verdict
        assert report.condition("rank").witness["structurally_impossible"]

    def test_vacuous_when_no_equations(self):
        cfg = NetworkConfig(4, (2,), 4, (2,))
        report = ia.check_sufficient(cfg, DofAllocation((2,), (0,)),
                                     rng=RngStream(0, 0))
        assert report.verdict
        assert report.condition("rank").witness["vacuous"]

    def test_budget_failure_short_circuits_rank(self):
        cfg = NetworkConfig(2, (4,), 2, (4,))
        report = ia.check_sufficient(cfg, DofAllocation((3,), (3,)),
                                     rng=RngStream(0, 0))
        assert not report.verdict
        with pytest.raises(KeyError):
            report.condition("rank")

    @pytest.mark.parametrize("block", ["default", "two draws", "one draw"])
    @pytest.mark.parametrize("trials", [1, 2, 5, 7])
    def test_ranks_match_per_draw_builds(self, trials, block, monkeypatch):
        # the stacked rank test, in stacks of the default size, of two draws
        # and of one, reports the rank of each draw built on its own, as
        # Python ints
        cases = [(SIM, "3,3,3,3;2,2,2"), (EX2, "2,2,4;1,3"),
                 (NetworkConfig(11, (3, 7), 5, (8, 3)), "2,4;4,1")]
        for i, (cfg, text) in enumerate(cases):
            dof = DofAllocation.parse(text)
            rows, cols = feasibility._alignment_offsets(cfg, dof)
            per_draw = ia.model._draw_entries(cfg) + rows[-1] * cols[-1]
            monkeypatch.setattr(feasibility, "BLOCK", {
                "default": feasibility.BLOCK, "two draws": 2 * per_draw + 1,
                "one draw": 1}[block])
            rng = RngStream(trials, i)
            ranks = ia.check_sufficient(cfg, dof, trials, rng).condition("rank") \
                .witness["ranks"]
            monkeypatch.undo()
            assert all(type(r) is int for r in ranks)
            assert ranks == [ia.numeric_rank(ia.build_alignment_matrix(
                ia.sample_channels(cfg, rng.shifted(t)), dof)) for t in range(trials)]

    @pytest.mark.parametrize("block", ["default", "two draws", "one draw"])
    def test_stacked_matrices_match_per_draw_builds(self, block, monkeypatch):
        # every matrix the stacked rank test ranks is byte-equal to the one
        # build_alignment_matrix makes of its draw alone, in draw order, in
        # stacks of the default size, of two draws and of one; EX2 at
        # 1,2,5;1,3 reaches rank 30 of 32, so not only full-rank stacks count
        cases = [(SIM, "3,3,3,3;2,2,2"), (EX2, "2,2,4;1,3"), (EX2, "1,2,5;1,3")]
        rank = feasibility.numeric_rank
        for i, (cfg, text) in enumerate(cases):
            dof = DofAllocation.parse(text)
            rows, cols = feasibility._alignment_offsets(cfg, dof)
            per_draw = ia.model._draw_entries(cfg) + rows[-1] * cols[-1]
            stacks = []
            monkeypatch.setattr(feasibility, "numeric_rank",
                                lambda a: stacks.append(a.copy()) or rank(a))
            monkeypatch.setattr(feasibility, "BLOCK", {
                "default": feasibility.BLOCK, "two draws": 2 * per_draw + 1,
                "one draw": 1}[block])
            rng = RngStream(11, i)
            ranks = ia.check_sufficient(cfg, dof, 5, rng).condition("rank") \
                .witness["ranks"]
            monkeypatch.undo()
            assert [len(stack) for stack in stacks] == {
                "default": [5], "two draws": [2, 2, 1], "one draw": [1] * 5}[block]
            built = [ia.build_alignment_matrix(ia.sample_channels(cfg, rng.shifted(t)),
                                               dof) for t in range(5)]
            assert [m.tobytes() for stack in stacks for m in stack] == \
                [m.tobytes() for m in built]
            assert ranks == [rank(m) for m in built]
        assert ranks == [30] * 5

    def test_many_trials_run_in_bounded_memory(self):
        # 20 000 draws go through in stacks of at most BLOCK entries, a
        # stack's draws the rows of one array: the peak stays at that of one
        # stack (~1.9 MiB), a small multiple of the 1 MiB budget, where all
        # draws at once would take ~28 MiB
        cfg = NetworkConfig(2, (2,), 2, (2,))
        tracemalloc.start()
        try:
            report = ia.check_sufficient(cfg, DofAllocation((1,), (1,)), 20_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        witness = report.condition("rank").witness
        assert witness["trials"] == witness["full_rank_trials"] == 20_000
        assert peak < 2 ** 22

    def test_rank_stacks_charge_each_draws_objects(self):
        # a ChannelSet of a 1+1-user network holds ~1.5 KB for 16 entries;
        # a stack's draws are the rows of one array, with no objects per
        # draw, so a stack sized by entries alone (3855 draws here) stays
        # near the 1 MiB budget
        cfg = NetworkConfig(2, (2,), 2, (2,))
        tracemalloc.start()
        try:
            ia.check_sufficient(cfg, DofAllocation((1,), (1,)), 4000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 22

    @pytest.mark.parametrize("seed", range(40))
    def test_sufficient_implies_necessary(self, seed):
        rng = np.random.default_rng(2000 + seed)
        cfg = random_small_config(rng)
        dof = random_allocation(rng, cfg)
        if ia.check_sufficient(cfg, dof, rng=RngStream(seed, 0)).verdict:
            assert ia.check_necessary(cfg, dof).verdict


class TestSymmetric:
    def test_example_network_passes_and_is_exact(self):
        report = ia.check_symmetric_sufficient(EX4, 4, 2)
        assert report.verdict
        assert report.extra == {"d_sum": 16, "necessary_verdict": True,
                                "certified_exact": True}

    def test_divisibility_failure(self):
        report = ia.check_symmetric_sufficient(EX4, 4, 3)
        assert not report.verdict
        cond = report.condition("13d")
        assert not cond.passed
        assert cond.witness["side"] == "alpha" and cond.witness["leftover"] == 2

    def test_single_stream_each(self):
        report = ia.check_symmetric_sufficient(EX4, 1, 1)
        assert report.verdict

    def test_counts_below_one_rejected(self):
        for d_a, d_b in ((0, 2), (4, 0), (-1, -1)):
            with pytest.raises(ConfigError, match="symmetric stream counts must be >= 1"):
                ia.check_symmetric_sufficient(EX4, d_a, d_b)

    def test_non_integral_counts_rejected(self):
        # 4.7 must not run as 4, nor True as 1
        for d_a, d_b in ((4.7, 2), (4, 2.2), (True, 1), (1, False), ("4", 2)):
            with pytest.raises(ConfigError, match="must be an integer"):
                ia.check_symmetric_sufficient(EX4, d_a, d_b)
        for call in (ia.hall_condition, ia.construct_special_realization):
            with pytest.raises(ConfigError, match="must be an integer"):
                call(EX4, 4.9, 2.2)
        assert ia.check_symmetric_sufficient(EX4, np.int64(4), 2.0).verdict

    def test_symmetric_pass_implies_rank_test_pass(self):
        # probabilistic consistency: expanding a passing symmetric allocation
        # must pass the sampled rank test in at least 95% of cases
        rng = np.random.default_rng(60)
        passed = agreed = 0
        trials = 0
        while passed < 40 and trials < 4000:
            trials += 1
            cfg = random_small_config(rng)
            d_a = int(rng.integers(1, min(cfg.n_alpha) + 1))
            d_b = int(rng.integers(1, min(cfg.n_beta) + 1))
            if not ia.check_symmetric_sufficient(cfg, d_a, d_b).verdict:
                continue
            passed += 1
            dof = DofAllocation((d_a,) * cfg.num_alpha, (d_b,) * cfg.num_beta)
            if ia.check_sufficient(cfg, dof, rng=RngStream(trials, 0)).verdict:
                agreed += 1
        assert passed >= 40
        assert agreed >= 0.95 * passed

    def test_one_subset_scan_per_call(self, monkeypatch):
        # 13a-13c and 13e are read off the converse report, whose scan is the
        # only one
        scan = mock.Mock(wraps=_kernels.subset_scan)
        monkeypatch.setattr(_kernels, "subset_scan", scan)
        report = ia.check_symmetric_sufficient(EX4, 4, 3)
        assert scan.call_count == 1
        assert [c.condition_id for c in report.conditions] == \
            ["13a", "13b", "13c", "13d", "13e"]

    @pytest.mark.parametrize("seed", range(30))
    def test_counting_condition_matches_enumeration(self, seed):
        rng = np.random.default_rng(3000 + seed)
        cfg = random_small_config(rng)
        d_a = int(rng.integers(1, min(cfg.n_alpha) + 1))
        d_b = int(rng.integers(1, min(cfg.n_beta) + 1))
        report = ia.check_symmetric_sufficient(cfg, d_a, d_b)
        assert report.condition("13e").passed == brute_symmetric_counting(cfg, d_a, d_b)


class TestHallAndSpecialRealization:
    def test_example_network_graph(self):
        result = ia.hall_condition(EX4, 4, 2)
        assert result.passed
        assert result.a_counts == (1, 1, 2)
        assert result.b_counts == (1, 1)
        assert sorted(result.matching) == [(k, l) for k in range(3) for l in range(2)]
        assert sum(result.a_counts) + sum(result.b_counts) == 6
        assert len(set(result.matching.values())) == 6

    def test_no_spare_blocks_fails(self):
        cfg = NetworkConfig(9, (2, 2), 9, (2, 2))
        result = ia.hall_condition(cfg, 2, 2)
        assert not result.passed and result.matching is None

    def test_single_link_matching(self):
        cfg = NetworkConfig(9, (2,), 9, (2,))
        result = ia.hall_condition(cfg, 1, 1)
        assert result.passed
        assert result.matching[(0, 0)] == ("alpha", 0, 0)

    def test_divisibility_required(self):
        cfg = NetworkConfig(9, (4,), 9, (3,))
        with pytest.raises(ConfigError, match="divisible"):
            ia.hall_condition(cfg, 1, 2)

    def test_matches_recursive_oracle(self):
        # criterion 9's 100 networks: equal results, matchings included
        rng = np.random.default_rng(99)
        checked = passed = 0
        while checked < 100:
            cfg = random_small_config(rng)
            d_a = int(rng.integers(1, min(cfg.n_alpha) + 1))
            d_b = int(rng.integers(1, min(cfg.n_beta) + 1))
            if any((n - d_a) % d_b for n in cfg.n_alpha) \
                    or any((n - d_b) % d_a for n in cfg.n_beta):
                continue
            checked += 1
            result = ia.hall_condition(cfg, d_a, d_b)
            assert result == recursive_hall_condition(cfg, d_a, d_b)
            passed += result.passed
        assert 0 < passed < 100

    def test_forty_plus_forty_users_answer(self):
        # 1600 pairs and 3120 spare blocks: augmenting paths far deeper than
        # the interpreter's recursion limit
        cfg = NetworkConfig(10**6, (40,) * 40, 10**6, (40,) * 40)
        result = ia.hall_condition(cfg, 1, 1)
        assert result.passed
        assert result.a_counts == result.b_counts == (39,) * 40
        assert sorted(result.matching) == [(k, l) for k in range(40) for l in range(40)]
        assert len(set(result.matching.values())) == 1600
        assert all(user == (k if side == "alpha" else l)
                   for (k, l), (side, user, _) in result.matching.items())

    def test_minimal_special_realization(self):
        cfg = NetworkConfig(9, (2,), 9, (2,))
        ch = ia.construct_special_realization(cfg, 1, 1)
        g = ch.g_cross[0][0]
        assert np.array_equal(g, np.array([[0, 0], [1, 0]], dtype=complex))
        u = np.array([[1.0], [0.0]])
        v = np.array([[1.0], [0.0]])
        assert np.all(u.conj().T @ g @ v == 0)

    def test_matching_failure_raises(self):
        cfg = NetworkConfig(9, (2, 2), 9, (2, 2))
        with pytest.raises(MatchingError):
            ia.construct_special_realization(cfg, 2, 2)

    def test_example_network_block_permutation(self):
        ch = ia.construct_special_realization(EX4, 4, 2)
        identity_blocks = 0
        for k in range(3):
            for l in range(2):
                g = ch.g_cross[k][l]
                assert not np.any(g[:4, :2])  # matched corner always zero
                identity_blocks += int(np.count_nonzero(g) > 0)
                u = np.vstack([np.eye(4), np.zeros((EX4.n_alpha[k] - 4, 4))])
                v = np.vstack([np.eye(2), np.zeros((EX4.n_beta[l] - 2, 2))])
                assert np.all(u.conj().T @ g @ v == 0)
        assert identity_blocks == 6

    def test_corrupted_matching_raises(self, monkeypatch):
        # two links given one spare block put two nonzero entries in one
        # column of the alignment matrix, so it is no block permutation
        good = ia.hall_condition(EX4, 4, 2)
        matching = dict(good.matching)
        matching[(0, 1)] = matching[(0, 0)]
        monkeypatch.setattr(feasibility, "hall_condition",
                            lambda *args: replace(good, matching=matching))
        with pytest.raises(MatchingError, match="block permutation"):
            ia.construct_special_realization(EX4, 4, 2)


# networks from a census of 3000 random ones where the converse bound sits
# one stream above the certified maximum
_CENSUS = [NetworkConfig(3, (3, 6), 12, (1, 7)), NetworkConfig(12, (2, 5), 3, (1, 5, 4)),
           NetworkConfig(11, (3, 7), 5, (8, 3)), NetworkConfig(12, (6, 1), 3, (4, 4))]


def _optimal_json(result):
    return json.dumps([result["necessary"].to_dict(), result["sufficient"].to_dict(),
                       result["optimal"], result["gap"]])


def _two_searches_json(cfg, trials, rng):
    """`search_optimal`'s output from one search per mode, as JSON."""
    nec = ia.search_max_sum_dof(cfg, "necessary", trials, rng)
    suf = ia.search_max_sum_dof(cfg, "sufficient", trials, rng)
    return json.dumps([nec.to_dict(), suf.to_dict(), nec.d_sum == suf.d_sum,
                       nec.d_sum - suf.d_sum])


class TestSearch:
    def test_downlink_example_network_is_optimal_13(self):
        result = ia.search_optimal(EX1, rng=RngStream(42, 0))
        assert result["necessary"].d_sum == 13
        assert result["sufficient"].d_sum == 13
        assert result["optimal"] and result["gap"] == 0

    def test_dual_network_reaches_same_sum(self):
        result = ia.search_max_sum_dof(ia.dual_config(EX1), "sufficient",
                                       rng=RngStream(42, 0))
        assert result.d_sum == 13

    def test_uplink_heavy_network_regression(self):
        # regression fixture: the certified maximum and its witness allocation,
        # which the pipeline tests exercise end to end
        result = ia.search_optimal(EX2, rng=RngStream(42, 0))
        assert result["necessary"].d_sum == 12
        assert result["sufficient"].d_sum == 12
        assert result["sufficient"].allocation == DofAllocation((2, 2, 4), (1, 3))

    @pytest.mark.parametrize("config, bound, rank, rows", [
        (_CENSUS[0], "1,2;1,5", 17, 18), (_CENSUS[1], "2,3;0,2,1", 14, 15),
        (_CENSUS[2], "2,4;4,1", 28, 30), (_CENSUS[3], "4,1;1,2", 14, 15)])
    def test_census_gaps(self, config, bound, rank, rows):
        # the bound allocation's alignment matrix falls short of full row
        # rank in every draw
        result = ia.search_optimal(config)
        bound = DofAllocation.parse(bound)
        assert result["necessary"].allocation == bound
        assert result["necessary"].d_sum == bound.total
        assert result["sufficient"].d_sum == bound.total - 1
        assert not result["optimal"] and result["gap"] == 1
        witness = ia.check_sufficient(config, bound).condition("rank").witness
        assert (witness["rows"], witness["ranks"]) == (rows, [rank] * 5)

    def test_minimal_network(self):
        cfg = NetworkConfig(1, (1,), 1, (1,))
        assert ia.search_max_sum_dof(cfg, "necessary").d_sum == 1
        assert ia.search_max_sum_dof(cfg, "sufficient").d_sum == 1

    def test_budget_guard(self):
        cfg = NetworkConfig(9, (9,) * 8, 9, (9,) * 8)
        with pytest.raises(BudgetError, match="budget of 2000000"):
            ia.search_max_sum_dof(cfg, "necessary")

    def test_guards_come_before_the_search(self):
        # the budget guard first, then the trial count (sufficient mode),
        # both before any allocation is tried
        big = NetworkConfig(2, (2,) * 11, 2, (2,) * 10)
        wide = NetworkConfig(2, (1,) * 10, 2, (1,) * 10)
        with mock.patch.object(feasibility, "check_necessary") as nec, \
                mock.patch.object(feasibility, "check_sufficient") as suf:
            for mode in ("necessary", "sufficient"):
                with pytest.raises(BudgetError):
                    ia.search_max_sum_dof(big, mode, trials=0)
            for bad in (0, 2.5, "5"):
                with pytest.raises(ConfigError, match="trials"):
                    ia.search_max_sum_dof(wide, "sufficient", trials=bad)
        assert nec.call_count == suf.call_count == 0

    def test_optimal_guards_come_before_the_search(self):
        # search_optimal checks the budget first, then the trial count, both
        # before any allocation is decided
        big = NetworkConfig(2, (2,) * 11, 2, (2,) * 10)
        wide = NetworkConfig(2, (1,) * 10, 2, (1,) * 10)
        with mock.patch.object(feasibility, "check_necessary") as nec, \
                mock.patch.object(feasibility, "check_sufficient") as suf:
            with pytest.raises(BudgetError):
                ia.search_optimal(big, trials=0)
            for bad in (0, 2.5, "5"):
                with pytest.raises(ConfigError, match="trials"):
                    ia.search_optimal(wide, trials=bad)
        assert nec.call_count == suf.call_count == 0

    def test_mode_names(self):
        assert ia.search_max_sum_dof(EX1, "necessary").d_sum == 13
        for mode in ("bogus", "necessary-bound", "sufficient-certified",
                     "Sufficient_Certified", "NECESSARY", " sufficient", None):
            with pytest.raises(ConfigError, match="unknown search mode"):
                ia.search_max_sum_dof(EX1, mode)

    @pytest.mark.parametrize("seed", range(10))
    def test_certified_never_exceeds_bound(self, seed):
        rng = np.random.default_rng(4000 + seed)
        cfg = random_small_config(rng, max_users=2, max_antennas=5)
        nec = ia.search_max_sum_dof(cfg, "necessary")
        suf = ia.search_max_sum_dof(cfg, "sufficient", rng=RngStream(seed, 0))
        assert suf.d_sum <= nec.d_sum

    @pytest.mark.parametrize("seed", range(12))
    def test_allocation_blocks_follow_the_reference_order(self, seed):
        # every allocation of each sum, in the reference's order, whatever
        # the block size
        rng = np.random.default_rng(7000 + seed)
        cfg = random_small_config(rng, max_users=3, max_antennas=5)
        for total in range(sum(cfg.n_alpha) + sum(cfg.n_beta) + 1):
            want = [dof.d_alpha + dof.d_beta for dof in iter_allocations(cfg, total)]
            for rows in (1, 3, 1 << 20):
                blocks = list(feasibility._allocation_blocks(cfg, total, rows))
                assert all(0 < len(b) <= rows for b in blocks)
                got = [tuple(row) for b in blocks for row in b.tolist()]
                assert got == want

    @pytest.mark.parametrize("block_size", [feasibility.BLOCK, 1])
    def test_necessary_filter_matches_brute_force(self, block_size):
        # seeded blocks of random rows and of rows capped at one stream count
        # per cell (these reach the all-users counting bound), pre-checked in
        # chunks of ``block_size`` rows and compared row by row with 8a-8c and
        # 8e at the full pair from the definitions; the survivors, decided by
        # check_necessary, must match the converse from the definitions, so
        # the pre-check drops no row that passes it
        seen = {"pass": 0, "budgets_fail": 0, "full_pair_fails": 0,
                "smaller_pair_only": 0}
        for seed in range(40):
            rng = np.random.default_rng(9000 + seed)
            n_alpha, n_beta = (tuple(int(n) for n in rng.integers(1, 5, rng.integers(1, 4)))
                               for _ in "ab")
            total = sum(n_alpha) + sum(n_beta)
            cfg = NetworkConfig(int(rng.integers(total // 2, total + 1)), n_alpha,
                                int(rng.integers(total // 2, total + 1)), n_beta)
            num_a = cfg.num_alpha
            caps = np.array(n_alpha + n_beta)
            capped = [np.minimum(caps, [a] * num_a + [b] * cfg.num_beta)
                      for a in range(1, 5) for b in range(1, 5)]
            block = np.concatenate((rng.integers(0, caps + 1, (20, len(caps))), capped))
            full = (tuple(range(num_a)), tuple(range(cfg.num_beta)))
            want_kept, want_decided = [], []
            for row in block.tolist():
                d_a, d_b = row[:num_a], row[num_a:]
                verdict = brute_necessary(cfg, d_a, d_b)
                bound, count = brute_violations(cfg, d_a, d_b)
                budgets = verdict["8a"] and verdict["8b"] and verdict["8c"]
                want_kept.append(budgets and full not in count)
                want_decided.append(all(verdict.values()))
                if not budgets:
                    seen["budgets_fail"] += 1
                elif full in count:
                    seen["full_pair_fails"] += 1
                elif bound or count:
                    seen["smaller_pair_only"] += 1
                else:
                    seen["pass"] += 1
            kept = np.concatenate([feasibility._precheck(cfg, block[i:i + block_size])
                                   for i in range(0, len(block), block_size)])
            assert kept.tolist() == want_kept
            decided = [bool(keep) and ia.check_necessary(cfg, DofAllocation(
                tuple(row[:num_a]), tuple(row[num_a:]))).verdict
                for keep, row in zip(kept.tolist(), block.tolist())]
            assert decided == want_decided
        assert all(seen.values()), seen

    @pytest.mark.parametrize("mode", ["necessary", "sufficient"])
    @pytest.mark.parametrize("name", ["EX1", "EX2", "dual_EX1", "EX4", "SIM", "mixed"])
    def test_deciders_see_prechecked_allocations_in_order(self, name, mode):
        # each allocation handed to the mode's decider passes the pre-check,
        # the calls follow the enumeration order without a gap and stop at
        # the first pass; the other decider is never called
        cfg = {"EX1": EX1, "EX2": EX2, "dual_EX1": ia.dual_config(EX1),
               "EX4": EX4, "SIM": SIM, "mixed": MIXED}[name]
        decided = []

        def recorder(decider):
            def record(config, dof, *args):
                report = decider(config, dof, *args)
                decided.append((dof, report.verdict))
                return report
            return record

        with mock.patch.object(feasibility, "check_necessary",
                               recorder(feasibility.check_necessary)), \
                mock.patch.object(feasibility, "check_sufficient",
                                  recorder(feasibility.check_sufficient)):
            result = ia.search_max_sum_dof(cfg, mode)
        decider = ia.check_necessary if mode == "necessary" else ia.check_sufficient

        def survives(dof):
            # 8a-8c, and 8e at the full pair
            a, b = dof.sum_alpha, dof.sum_beta
            free = sum(d * (n - d) for d, n in zip(dof.d_alpha + dof.d_beta,
                                                   cfg.n_alpha + cfg.n_beta))
            return (a <= cfg.m_alpha and b <= cfg.m_beta
                    and a + b <= max(cfg.m_alpha, cfg.m_beta) and a * b <= free)

        survivors = (dof for total in range(sum(cfg.n_alpha) + sum(cfg.n_beta), -1, -1)
                     for dof in iter_allocations(cfg, total) if survives(dof))
        want = [next(survivors) for _ in decided]
        assert [dof for dof, _ in decided] == want
        assert [verdict for _, verdict in decided] == [False] * (len(decided) - 1) + [True]
        assert result.allocation == want[-1]
        assert result.report == decider(cfg, want[-1])

    @pytest.mark.parametrize("block_size", [feasibility.BLOCK, 1])
    def test_survivors_failing_the_converse(self, block_size, monkeypatch):
        # nine pre-check survivors fail the converse before the winner, the
        # 498th allocation; with blocks of one allocation the walk crosses a
        # block boundary at every row
        monkeypatch.setattr(feasibility, "BLOCK", block_size)
        calls = mock.Mock(wraps=feasibility.check_necessary)
        monkeypatch.setattr(feasibility, "check_necessary", calls)
        got = ia.search_max_sum_dof(MIXED, "necessary")
        assert calls.call_count == 10 and got.examined == 498
        monkeypatch.undo()
        want = reference_search(MIXED, "necessary")
        assert json.dumps(got.to_dict()) == json.dumps(want.to_dict())

    @pytest.mark.parametrize("mode", ["necessary", "sufficient"])
    @pytest.mark.parametrize("name", ["EX1", "EX2", "dual_EX1", "EX4", "SIM"])
    def test_matches_reference_search_on_benchmark_networks(self, name, mode):
        cfg = {"EX1": EX1, "EX2": EX2, "dual_EX1": ia.dual_config(EX1),
               "EX4": EX4, "SIM": SIM}[name]
        for seed in (0, 42):
            got = ia.search_max_sum_dof(cfg, mode, rng=RngStream(seed, 0))
            want = reference_search(cfg, mode, rng=RngStream(seed, 0))
            assert type(got.examined) is int
            assert json.dumps(got.to_dict()) == json.dumps(want.to_dict())

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000), st.sampled_from(["necessary", "sufficient"]))
    def test_matches_reference_search(self, seed, mode):
        # generated networks of up to 3+3 users, once with the default block
        # size and once with blocks of one allocation and scan blocks of one
        # alpha subset, so that the examined count and the witness walk
        # cross block boundaries
        rng = np.random.default_rng(seed)
        cfg = random_small_config(rng, max_users=3, max_antennas=4)
        trials = int(rng.integers(1, 4))
        want = json.dumps(reference_search(cfg, mode, trials,
                                           RngStream(seed, 0)).to_dict())
        assert json.dumps(ia.search_max_sum_dof(
            cfg, mode, trials, RngStream(seed, 0)).to_dict()) == want
        with mock.patch.object(feasibility, "BLOCK", 1):
            assert json.dumps(ia.search_max_sum_dof(
                cfg, mode, trials, RngStream(seed, 0)).to_dict()) == want

    @pytest.mark.parametrize("block_size", [feasibility.BLOCK, 1])
    @pytest.mark.parametrize("name", ["EX1", "EX2", "dual_EX1", "EX4", "SIM",
                                      "census0", "census1", "census2", "census3"])
    def test_optimal_matches_two_searches(self, name, block_size, monkeypatch):
        # the one walk returns what a search per mode returns, with blocks of
        # the default size and of one allocation
        cfg = {"EX1": EX1, "EX2": EX2, "dual_EX1": ia.dual_config(EX1), "EX4": EX4,
               "SIM": SIM, **{f"census{i}": c for i, c in enumerate(_CENSUS)}}[name]
        monkeypatch.setattr(feasibility, "BLOCK", block_size)
        for seed in (0, 42):
            assert _optimal_json(ia.search_optimal(cfg, rng=RngStream(seed, 0))) == \
                _two_searches_json(cfg, 5, RngStream(seed, 0))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_optimal_matches_two_searches_generated(self, seed):
        # generated networks of up to 3+3 users and 1-3 draws, with the
        # default block size and with blocks of one allocation
        rng = np.random.default_rng(seed)
        cfg = random_small_config(rng, max_users=3, max_antennas=4)
        trials = int(rng.integers(1, 4))
        want = _two_searches_json(cfg, trials, RngStream(seed, 0))
        assert _optimal_json(ia.search_optimal(cfg, trials, RngStream(seed, 0))) == want
        with mock.patch.object(feasibility, "BLOCK", 1):
            assert _optimal_json(ia.search_optimal(cfg, trials,
                                                   RngStream(seed, 0))) == want

    @pytest.mark.parametrize("seed", range(20))
    def test_necessary_duality_invariance(self, seed):
        rng = np.random.default_rng(5000 + seed)
        cfg = random_small_config(rng)
        dof = random_allocation(rng, cfg)
        forward = ia.check_necessary(cfg, dof).verdict
        swapped = ia.check_necessary(ia.dual_config(cfg),
                                     ia.dual_allocation(dof)).verdict
        assert forward == swapped


def test_report_json_schema():
    report = ia.check_necessary(NetworkConfig(9, (2, 2), 9, (2, 2)),
                                DofAllocation((2, 2), (2, 2)))
    data = report.to_dict()
    assert set(data) == {"verdict", "conditions"}
    assert data["verdict"] is False
    entry = next(c for c in data["conditions"] if c["id"] == "8e")
    assert entry["pass"] is False
    assert entry["witness"] == {"I_alpha": [1], "I_beta": [1]}
