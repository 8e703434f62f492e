from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ia_rtdd as ia
from ia_rtdd import (BudgetError, ConfigError, DofAllocation, MatchingError,
                     NetworkConfig, RngStream, SubsetLimitError, _kernels)

from oracles import brute_necessary, brute_symmetric_counting

EX1 = NetworkConfig(10, (4, 6, 6), 13, (3, 6))
EX2 = NetworkConfig(8, (2, 3, 8), 12, (3, 7))
EX4 = NetworkConfig(12, (6, 6, 8), 16, (6, 6))
SIM = NetworkConfig(12, (8, 8, 8, 8), 18, (4, 4, 4))


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
    def test_two_user_ic_dof(self):
        assert ia.two_user_ic_dof(1, 1, 1, 1) == 1
        assert ia.two_user_ic_dof(2, 2, 2, 2) == 2
        assert ia.two_user_ic_dof(3, 2, 2, 3) == 2  # min(5, 5, 3, 2)

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

    def test_size_guard(self):
        cfg = NetworkConfig(1, (1,) * 11, 1, (1,) * 10)
        dof = DofAllocation((0,) * 11, (0,) * 10)
        with pytest.raises(SubsetLimitError):
            ia.check_necessary(cfg, dof)
        assert ia.check_necessary(cfg, dof, subset_limit=21).verdict

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


class TestAlignmentMatrix:
    def test_simulation_network_is_square_72(self):
        ch = ia.sample_channels(SIM, RngStream(0, 0))
        mat, layout = ia.build_alignment_matrix(ch, DofAllocation((3, 3, 3, 3), (2, 2, 2)))
        assert mat.shape == (72, 72)
        assert layout.n_rows == 72 and layout.n_cols == 72

    def test_minimal_network_is_1x2(self):
        cfg = NetworkConfig(2, (2,), 2, (2,))
        ch = ia.sample_channels(cfg, RngStream(0, 0))
        mat, _ = ia.build_alignment_matrix(ch, DofAllocation((1,), (1,)))
        assert mat.shape == (1, 2)

    def test_no_free_variables_means_zero_columns(self):
        cfg = NetworkConfig(9, (2, 3), 9, (4,))
        ch = ia.sample_channels(cfg, RngStream(0, 0))
        mat, _ = ia.build_alignment_matrix(ch, DofAllocation((2, 3), (4,)))
        assert mat.shape == (20, 0)

    def test_every_entry_comes_from_a_partition_block(self):
        # structure audit: nonzeros of the matrix match g2/g3 entries of some link
        rng = np.random.default_rng(5)
        cfg = random_small_config(rng)
        dof = random_allocation(rng, cfg)
        ch = ia.sample_channels(cfg, RngStream(5, 0))
        mat, _ = ia.build_alignment_matrix(ch, dof)
        pool = set()
        for k in range(cfg.num_alpha):
            for l in range(cfg.num_beta):
                part = ia.partition_cross(ch.g_cross[k][l], dof.d_alpha[k], dof.d_beta[l])
                pool.update(part.g2.ravel().tolist())
                pool.update(part.g3.ravel().tolist())
        for value in mat[mat != 0]:
            assert value in pool

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_finite_difference_jacobian(self, seed):
        # ground truth: the matrix must equal the Jacobian of the cross-link
        # residual map at the zero point of the free filter variables
        rng = np.random.default_rng(seed)
        cfg = random_small_config(rng, max_users=2, max_antennas=5)
        dof = random_allocation(rng, cfg)
        ch = ia.sample_channels(cfg, RngStream(1000 + seed, 0))
        mat, lay = ia.build_alignment_matrix(ch, dof)
        if lay.n_rows == 0 or lay.n_cols == 0:
            return
        xs = [np.zeros((d, n - d), dtype=complex)
              for d, n in zip(dof.d_alpha, cfg.n_alpha)]
        ys = [np.zeros((n - d, d), dtype=complex)
              for d, n in zip(dof.d_beta, cfg.n_beta)]

        def residual():
            out = np.zeros(lay.n_rows, dtype=complex)
            for k in range(cfg.num_alpha):
                da = dof.d_alpha[k]
                u = np.vstack([np.eye(da), xs[k].conj().T])
                for l in range(cfg.num_beta):
                    db = dof.d_beta[l]
                    v = np.vstack([np.eye(db), ys[l]])
                    r = u.conj().T @ ch.g_cross[k][l] @ v
                    for m in range(da):
                        for n in range(db):
                            out[lay.row_index(k, l, m, n)] = r[m, n]
            return out

        eps = 1e-7
        base = residual()
        jac = np.zeros((lay.n_rows, lay.n_cols), dtype=complex)
        for k in range(cfg.num_alpha):
            da, na = dof.d_alpha[k], cfg.n_alpha[k]
            for m in range(da):
                for j in range(na - da):
                    xs[k][m, j] = eps
                    col = lay.col_offsets_alpha[k] + m * (na - da) + j
                    jac[:, col] = (residual() - base) / eps
                    xs[k][m, j] = 0
        for l in range(cfg.num_beta):
            db, nb = dof.d_beta[l], cfg.n_beta[l]
            for n in range(db):
                for i in range(nb - db):
                    ys[l][i, n] = eps
                    col = lay.col_offsets_beta[l] + n * (nb - db) + i
                    jac[:, col] = (residual() - base) / eps
                    ys[l][i, n] = 0
        assert np.abs(mat - jac).max() < 1e-6


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
        assert result.graph.a_counts == (1, 1, 2)
        assert result.graph.b_counts == (1, 1)
        assert len(result.graph.left_vertices()) == 6
        assert sum(result.graph.a_counts) + sum(result.graph.b_counts) == 6
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

    def test_minimal_network(self):
        cfg = NetworkConfig(1, (1,), 1, (1,))
        assert ia.search_max_sum_dof(cfg, "necessary").d_sum == 1
        assert ia.search_max_sum_dof(cfg, "sufficient").d_sum == 1

    def test_budget_guard(self):
        cfg = NetworkConfig(9, (9,) * 8, 9, (9,) * 8)
        with pytest.raises(BudgetError):
            ia.search_max_sum_dof(cfg, "necessary", budget=1000)

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
