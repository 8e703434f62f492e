import io

import numpy as np
import pytest

import ia_rtdd as ia
from ia_rtdd import (BeamformerSet, ConfigError, DofAllocation,
                     IterationOptions, NetworkConfig, PowerProfile, RngStream,
                     SingularSystemError)

from oracles import channel_scale

EX4 = NetworkConfig(12, (6, 6, 8), 16, (6, 6))
SIM = NetworkConfig(12, (8, 8, 8, 8), 18, (4, 4, 4))
SIM_DOF = DofAllocation((3, 3, 3, 3), (2, 2, 2))


def unit_powers(config):
    return PowerProfile((1.0,) * config.num_alpha, (1.0,) * config.num_beta)


class TestInitPostcoders:
    def test_orthonormal_columns(self):
        u = ia.init_postcoders(SIM, SIM_DOF, RngStream(3, 0))
        for mat in u:
            gram = mat.conj().T @ mat
            assert np.abs(gram - np.eye(mat.shape[1])).max() < 1e-12

    def test_full_unitary_when_saturated(self):
        cfg = NetworkConfig(4, (3,), 4, (2,))
        u = ia.init_postcoders(cfg, DofAllocation((3,), (1,)), RngStream(0, 0))[0]
        assert u.shape == (3, 3)
        assert np.abs(u @ u.conj().T - np.eye(3)).max() < 1e-12

    def test_deterministic_and_distinct_across_seeds(self):
        a = ia.init_postcoders(SIM, SIM_DOF, RngStream(9, 0))
        b = ia.init_postcoders(SIM, SIM_DOF, RngStream(9, 0))
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        for seed in range(100):
            c = ia.init_postcoders(SIM, SIM_DOF, RngStream(seed, 1))
            d = ia.init_postcoders(SIM, SIM_DOF, RngStream(seed, 2))
            assert not np.allclose(c[0], d[0])


class TestCovariances:
    def test_zero_power_gives_zero(self):
        ch = ia.sample_channels(SIM, RngStream(0, 0))
        u = ia.init_postcoders(SIM, SIM_DOF, RngStream(0, 1))
        zero = PowerProfile((0.0,) * 4, (0.0,) * 3)
        assert not np.any(ia.covariance_tx(ch, u, zero, 0))
        v = tuple(np.ones((n, 1), dtype=complex) / np.sqrt(n) for n in SIM.n_beta)
        assert not np.any(ia.covariance_rx(ch, v, zero, 0))

    def test_scalar_network_collapse(self):
        cfg = NetworkConfig(1, (1,), 1, (1,))
        ch = ia.sample_channels(cfg, RngStream(4, 0))
        g = ch.g_cross[0][0][0, 0]
        u = (np.array([[1.0 + 0j]]),)
        powers = PowerProfile((2.5,), (3.5,))
        cov = ia.covariance_tx(ch, u, powers, 0)
        assert cov.shape == (1, 1)
        assert abs(cov[0, 0] - 2.5 * abs(g) ** 2) < 1e-12
        v = (np.array([[1.0 + 0j]]),)
        cov_rx = ia.covariance_rx(ch, v, powers, 0)
        assert abs(cov_rx[0, 0] - 3.5 * abs(g) ** 2) < 1e-12

    def test_matches_elementwise_resummation(self):
        ch = ia.sample_channels(SIM, RngStream(8, 0))
        u = ia.init_postcoders(SIM, SIM_DOF, RngStream(8, 1))
        powers = PowerProfile((1.0, 2.0, 0.5, 3.0), (1.5, 2.5, 0.25))
        for l in range(3):
            cov = ia.covariance_tx(ch, u, powers, l)
            nb = SIM.n_beta[l]
            brute = np.zeros((nb, nb), dtype=complex)
            for k in range(4):
                t = ch.g_cross[k][l].conj().T @ u[k]
                for a in range(nb):
                    for b in range(nb):
                        for s in range(t.shape[1]):
                            brute[a, b] += (powers.p_alpha[k] / 3) * t[a, s] * np.conj(t[b, s])
            assert np.abs(cov - brute).max() < 1e-12


class TestEigUpdate:
    def test_diagonal_picks_smallest(self):
        cov = np.diag([5.0, 1.0, 3.0]).astype(complex)
        v = ia.update_v_beta(cov, 1)
        assert np.abs(np.abs(v.ravel()) - [0, 1, 0]).max() < 1e-14
        assert v[1, 0].real > 0  # phase convention

    def test_zero_covariance_any_orthonormal_pair(self):
        v = ia.update_v_beta(np.zeros((3, 3), dtype=complex), 2)
        assert np.abs(v.conj().T @ v - np.eye(2)).max() < 1e-12

    def test_rayleigh_quotients_below_excluded_eigenvalues(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        cov = a @ a.conj().T
        vals = np.linalg.eigvalsh(cov)
        v = ia.update_v_beta(cov, 2)
        for c in range(2):
            quotient = (v[:, c].conj() @ cov @ v[:, c]).real
            assert quotient <= vals[2] + 1e-9

    def test_rejects_non_hermitian(self):
        bad = np.array([[1.0, 2.0], [0.0, 1.0]], dtype=complex)
        with pytest.raises(ConfigError, match="Hermitian"):
            ia.update_v_beta(bad, 1)


class TestIterateAlignment:
    def test_zero_cross_channels_converge_immediately(self):
        ch = ia.construct_special_realization(NetworkConfig(9, (2,), 9, (2,)), 1, 1)
        zeroed = ia.ChannelSet(ch.h_alpha,
                               ((np.zeros((2, 2), dtype=complex),),),
                               ch.h_beta, ch.g_bs)
        cfg_dof = DofAllocation((1,), (1,))
        powers = PowerProfile((1.0,), (1.0,))
        _, _, trace = ia.iterate_alignment(zeroed, cfg_dof, powers,
                                           rng=RngStream(0, 0))
        assert trace.iterations == 1
        assert trace.converged
        assert trace.totals[0] == 0.0

    def test_bit_identical_reruns(self):
        ch = ia.sample_channels(SIM, RngStream(21, 0))
        powers = unit_powers(SIM)
        opts = IterationOptions(max_iters=50, leakage_stop=1e-14)
        a = ia.iterate_alignment(ch, SIM_DOF, powers, opts, RngStream(21, 1))
        b = ia.iterate_alignment(ch, SIM_DOF, powers, opts, RngStream(21, 1))
        assert all(np.array_equal(x, y) for x, y in zip(a[0], b[0]))
        assert all(np.array_equal(x, y) for x, y in zip(a[1], b[1]))
        assert np.array_equal(a[2].totals, b[2].totals)

    def test_first_iteration_matches_public_operations(self):
        cfg = NetworkConfig(6, (4, 5), 7, (3, 4))
        dof = DofAllocation((2, 2), (1, 2))
        ch = ia.sample_channels(cfg, RngStream(13, 0))
        powers = PowerProfile((2.0, 2.0), (3.0, 3.0))
        opts = IterationOptions(max_iters=1, leakage_stop=1e-300)
        u1, v1, trace = ia.iterate_alignment(ch, dof, powers, opts, RngStream(13, 1))
        u0 = ia.init_postcoders(cfg, dof, RngStream(13, 1))
        v_ref, u_ref, leak = [], [], 0.0
        for l in range(2):
            v_ref.append(ia.update_v_beta(ia.covariance_tx(ch, u0, powers, l),
                                          dof.d_beta[l]))
        for k in range(2):
            cov = ia.covariance_rx(ch, tuple(v_ref), powers, k)
            u_ref.append(ia.update_v_beta(cov, dof.d_alpha[k]))
            leak += float(np.trace(u_ref[k].conj().T @ cov @ u_ref[k]).real)
        for got, ref in zip(v1, v_ref):
            assert np.abs(got - ref).max() < 1e-10
        for got, ref in zip(u1, u_ref):
            assert np.abs(got - ref).max() < 1e-10
        assert abs(trace.totals[0] - leak) < 1e-10 * max(1.0, leak)

    def test_leakage_non_increasing_with_uniform_weights(self):
        # the two half-steps share one objective when every user of a cell has
        # the same power-per-stream weight, making the trace monotone
        powers = ia.power_profile_for_snr(SIM, 30.0)
        opts = IterationOptions(max_iters=300, leakage_stop=1e-12)
        for seed in range(3):
            ch = ia.sample_channels(SIM, RngStream(seed, 0))
            _, _, trace = ia.iterate_alignment(ch, SIM_DOF, powers, opts,
                                               RngStream(seed, 1))
            t = trace.totals
            assert np.all(t[1:] <= t[:-1] + 1e-9 * t[0])

    def test_infeasible_allocation_plateaus(self):
        cfg = NetworkConfig(2, (2,), 2, (2,))
        ch = ia.sample_channels(cfg, RngStream(2, 0))
        powers = PowerProfile((1.0,), (1.0,))
        opts = IterationOptions(max_iters=200, leakage_stop=1e-10)
        _, _, trace = ia.iterate_alignment(ch, DofAllocation((2,), (2,)),
                                           powers, opts, RngStream(2, 1))
        assert not trace.converged
        assert trace.totals[-1] > 1e-3 * trace.totals[0]

    def test_outputs_stay_orthonormal(self):
        ch = ia.sample_channels(SIM, RngStream(33, 0))
        opts = IterationOptions(max_iters=40, leakage_stop=1e-14)
        u, v, _ = ia.iterate_alignment(ch, SIM_DOF, unit_powers(SIM), opts,
                                       RngStream(33, 1))
        for mat in list(u) + list(v):
            gram = mat.conj().T @ mat
            assert np.abs(gram - np.eye(mat.shape[1])).max() < 1e-10


class TestZeroForce:
    def _pipeline(self, cfg, dof, seed=17, iters=600):
        ch = ia.sample_channels(cfg, RngStream(seed, 0))
        powers = ia.power_profile_for_snr(cfg, 30.0)
        opts = IterationOptions(max_iters=iters, leakage_stop=1e-10)
        bf, trace = ia.construct_beamformers(ch, dof, powers, opts,
                                             RngStream(seed, 1))
        return ch, bf, trace

    def test_downlink_heavy_branch_nulls_everything(self):
        cfg = NetworkConfig(13, (3, 6), 10, (4, 6, 6))  # M_alpha >= M_beta
        dof = DofAllocation((1, 2), (2, 4, 4))
        ch, bf, _ = self._pipeline(cfg, dof)
        rep = ia.residual_report(ch, bf, dof)
        scale = channel_scale(ch)
        assert max(rep.max_inter_beta, rep.max_intra_alpha,
                   rep.max_intra_beta) < 1e-8 * scale

    def test_uplink_heavy_branch_nulls_everything(self):
        cfg = NetworkConfig(10, (4, 6, 6), 13, (3, 6))  # M_alpha < M_beta
        dof = DofAllocation((2, 4, 4), (1, 2))
        ch, bf, _ = self._pipeline(cfg, dof)
        rep = ia.residual_report(ch, bf, dof)
        scale = channel_scale(ch)
        assert max(rep.max_inter_beta, rep.max_intra_alpha,
                   rep.max_intra_beta) < 1e-8 * scale

    def test_idle_uplink_cell_reduces_to_single_cell_zero_forcing(self):
        cfg = NetworkConfig(8, (3, 3), 4, (2,))
        dof = DofAllocation((3, 3), (0,))
        ch = ia.sample_channels(cfg, RngStream(5, 0))
        u, v, _ = ia.iterate_alignment(ch, dof, unit_powers(cfg),
                                       IterationOptions(max_iters=5),
                                       RngStream(5, 1))
        v_alpha, u_beta = ia.zero_force_step2(ch, dof, u, v)
        assert u_beta[0].shape == (4, 0)
        eff = np.vstack([u[k].conj().T @ ch.h_alpha[k] for k in range(2)])
        prod = eff @ np.hstack(v_alpha)
        assert np.abs(prod - np.eye(6)).max() < 1e-9

    def test_singular_stack_raises(self):
        cfg = NetworkConfig(4, (2, 2), 4, (2,))
        ch = ia.sample_channels(cfg, RngStream(6, 0))
        # duplicated receive filters make the downlink stack rank deficient
        dup = (ch.h_alpha[0], ch.h_alpha[0])
        ch_bad = ia.ChannelSet(dup, ch.g_cross, ch.h_beta, ch.g_bs)
        u = (np.eye(2, 2, dtype=complex), np.eye(2, 2, dtype=complex))
        v = (np.zeros((2, 0), dtype=complex),)
        dof = DofAllocation((2, 2), (0,))
        with pytest.raises(SingularSystemError, match="branch"):
            ia.zero_force_step2(ch_bad, dof, u, v)


class TestNormalizeAndResiduals:
    def test_normalize_scales_and_preserves_direction(self):
        mat = np.array([[2.0], [0.0]], dtype=complex)
        bf = BeamformerSet((mat,), (mat,), (mat,), (mat,))
        out = ia.normalize(bf)
        for m in (out.u_alpha[0], out.v_alpha[0]):
            assert abs(np.linalg.norm(m[:, 0]) - 1) < 1e-15
            assert m[1, 0] == 0 and m[0, 0].real > 0

    def test_normalize_idempotent(self):
        rng = np.random.default_rng(0)
        mats = tuple(rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
                     for _ in range(4))
        bf = ia.normalize(BeamformerSet((mats[0],), (mats[1],), (mats[2],), (mats[3],)))
        again = ia.normalize(bf)
        for a, b in zip(bf.u_alpha + bf.v_alpha, again.u_alpha + again.v_alpha):
            assert np.abs(a - b).max() < 1e-15

    def test_normalize_rejects_zero_column(self):
        bad = np.zeros((3, 1), dtype=complex)
        ok = np.ones((3, 1), dtype=complex)
        with pytest.raises(ConfigError, match="zero column"):
            ia.normalize(BeamformerSet((bad,), (ok,), (ok,), (ok,)))

    def test_zeroed_residual_invariant_under_normalize(self):
        cfg = NetworkConfig(13, (3, 6), 10, (4, 6, 6))
        dof = DofAllocation((1, 2), (2, 4, 4))
        ch = ia.sample_channels(cfg, RngStream(9, 0))
        u, v, _ = ia.iterate_alignment(ch, dof, unit_powers(cfg),
                                       IterationOptions(max_iters=200,
                                                        leakage_stop=1e-10),
                                       RngStream(9, 1))
        v_alpha, u_beta = ia.zero_force_step2(ch, dof, u, v)
        raw = ia.residual_report(ch, BeamformerSet(u, v_alpha, u_beta, v), dof)
        normed = ia.residual_report(
            ch, ia.normalize(BeamformerSet(u, v_alpha, u_beta, v)), dof)
        scale = channel_scale(ch)
        assert raw.max_inter_beta < 1e-8 * scale
        assert normed.max_inter_beta < 1e-8 * scale

    def test_random_beamformers_do_not_align(self):
        cfg = NetworkConfig(6, (4, 4), 6, (3, 3))
        dof = DofAllocation((2, 2), (1, 1))
        ch = ia.sample_channels(cfg, RngStream(0, 0))
        rng = np.random.default_rng(1)

        def rand(r, c):
            m = rng.standard_normal((r, c)) + 1j * rng.standard_normal((r, c))
            return m / np.linalg.norm(m, axis=0)[None, :]

        bf = BeamformerSet(tuple(rand(4, 2) for _ in range(2)),
                           tuple(rand(6, 2) for _ in range(2)),
                           tuple(rand(6, 1) for _ in range(2)),
                           tuple(rand(3, 1) for _ in range(2)))
        rep = ia.residual_report(ch, bf, dof)
        assert rep.max_inter_alpha > 0.1
        assert rep.max_inter_beta > 0.1

    def test_special_realization_zero_variable_point_is_exact(self):
        ch = ia.construct_special_realization(EX4, 4, 2)
        u_alpha = tuple(np.vstack([np.eye(4), np.zeros((n - 4, 4))]).astype(complex)
                        for n in EX4.n_alpha)
        v_beta = tuple(np.vstack([np.eye(2), np.zeros((n - 2, 2))]).astype(complex)
                       for n in EX4.n_beta)
        ones = tuple(np.eye(12, 4, dtype=complex) for _ in range(3))
        u_beta = tuple(np.eye(16, 2, dtype=complex) for _ in range(2))
        bf = BeamformerSet(u_alpha, ones, u_beta, v_beta)
        rep = ia.residual_report(ch, bf, DofAllocation((4, 4, 4), (2, 2)))
        assert rep.max_inter_alpha == 0.0


def test_leakage_trace_csv():
    ch = ia.sample_channels(SIM, RngStream(2, 0))
    opts = IterationOptions(max_iters=5, leakage_stop=1e-300)
    _, _, trace = ia.iterate_alignment(ch, SIM_DOF, unit_powers(SIM), opts,
                                       RngStream(2, 1))
    buf = io.StringIO()
    trace.write_csv(buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == ("iteration,total_leakage,leakage_alpha_1,"
                        "leakage_alpha_2,leakage_alpha_3,leakage_alpha_4")
    assert len(lines) == 6
    assert lines[1].startswith("1,")
