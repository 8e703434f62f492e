import io
import itertools

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


def interference_covariance(links, filters, powers):
    """Sum over users of (p / d) (G F)(G F)^H, one entry at a time."""
    n = links[0].shape[0]
    cov = np.zeros((n, n), dtype=complex)
    for g, f, p in zip(links, filters, powers):
        t = g @ f
        for a, b, s in itertools.product(range(n), range(n), range(t.shape[1])):
            cov[a, b] += p / t.shape[1] * t[a, s] * np.conj(t[b, s])
    return cov


class TestCovariances:
    def test_zero_power_gives_zero(self):
        # zero powers make every interference covariance zero: no leakage, so
        # the loop stops after its first iteration
        ch = ia.sample_channels(SIM, RngStream(0, 0))
        zero = PowerProfile((0.0,) * 4, (0.0,) * 3)
        _, _, trace = ia.iterate_alignment(ch, SIM_DOF, zero, rng=RngStream(0, 1))
        assert trace.iterations == 1 and trace.converged
        assert trace.per_user.shape == (1, 4) and not np.any(trace.per_user)
        assert trace.totals[0] == 0.0

    def test_scalar_network_collapse(self):
        # 1x1 links: both filters are the unit scalar and the leakage is the
        # uplink power times |g|^2
        cfg = NetworkConfig(1, (1,), 1, (1,))
        ch = ia.sample_channels(cfg, RngStream(4, 0))
        g = ch.g_cross[0][0][0, 0]
        powers = PowerProfile((2.5,), (3.5,))
        u, v, trace = ia.iterate_alignment(ch, DofAllocation((1,), (1,)), powers,
                                           IterationOptions(max_iters=1),
                                           RngStream(4, 1))
        assert u[0].shape == v[0].shape == (1, 1)
        assert abs(u[0][0, 0] - 1) < 1e-15 and abs(v[0][0, 0] - 1) < 1e-15
        assert abs(trace.totals[0] - 3.5 * abs(g) ** 2) < 1e-12


class TestEigUpdate:
    def test_zero_covariance_any_orthonormal_pair(self):
        cfg = NetworkConfig(4, (3,), 4, (3,))
        ch = ia.sample_channels(cfg, RngStream(1, 0))
        zero = PowerProfile((0.0,), (0.0,))
        u, v, _ = ia.iterate_alignment(ch, DofAllocation((2,), (2,)), zero,
                                       rng=RngStream(1, 1))
        for mat in u + v:
            assert mat.shape == (3, 2)
            assert np.abs(mat.conj().T @ mat - np.eye(2)).max() < 1e-12

    def test_rayleigh_quotients_below_excluded_eigenvalues(self):
        # the last receive filters span the weakest eigenvectors of the
        # covariance made by the last transmit filters
        cfg = NetworkConfig(6, (4, 5), 7, (3, 4))
        dof = DofAllocation((2, 2), (1, 2))
        ch = ia.sample_channels(cfg, RngStream(3, 0))
        powers = PowerProfile((2.0, 1.0), (3.0, 0.5))
        u, v, _ = ia.iterate_alignment(ch, dof, powers,
                                       IterationOptions(max_iters=3), RngStream(3, 1))
        for k in range(2):
            cov = interference_covariance(ch.g_cross[k], v, powers.p_beta)
            vals = np.linalg.eigvalsh(cov)
            for c in range(2):
                quotient = (u[k][:, c].conj() @ cov @ u[k][:, c]).real
                assert quotient <= vals[2] + 1e-9


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

    def test_iteration_cap_must_be_an_integer(self):
        for bad in (2.5, True, "10", None):
            with pytest.raises(ia.ConfigError, match="max_iters must be an integer"):
                IterationOptions(max_iters=bad)
        with pytest.raises(ia.ConfigError, match="max_iters must be >= 1"):
            IterationOptions(max_iters=0)
        assert IterationOptions(max_iters=np.int64(7)).max_iters == 7
        assert type(IterationOptions(max_iters=7.0).max_iters) is int

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
        # references: covariances summed entry by entry, then np.linalg.eigh;
        # filters compared as projectors, free of the basis eigh picks
        cfg = NetworkConfig(6, (4, 5), 7, (3, 4))
        dof = DofAllocation((2, 2), (1, 2))
        ch = ia.sample_channels(cfg, RngStream(13, 0))
        powers = PowerProfile((2.0, 2.0), (3.0, 3.0))
        opts = IterationOptions(max_iters=1, leakage_stop=1e-300)
        u1, v1, trace = ia.iterate_alignment(ch, dof, powers, opts, RngStream(13, 1))
        u0 = ia.init_postcoders(cfg, dof, RngStream(13, 1))
        v_ref, u_ref, leak = [], [], 0.0
        for l in range(2):
            links = [ch.g_cross[k][l].conj().T for k in range(2)]
            _, vecs = np.linalg.eigh(interference_covariance(links, u0, powers.p_alpha))
            v_ref.append(vecs[:, :dof.d_beta[l]])
        for k in range(2):
            cov = interference_covariance(ch.g_cross[k], v_ref, powers.p_beta)
            _, vecs = np.linalg.eigh(cov)
            u_ref.append(vecs[:, :dof.d_alpha[k]])
            leak += float(np.trace(u_ref[k].conj().T @ cov @ u_ref[k]).real)
        for got, ref in zip(v1 + u1, v_ref + u_ref):
            assert np.abs(got @ got.conj().T - ref @ ref.conj().T).max() < 1e-10
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
