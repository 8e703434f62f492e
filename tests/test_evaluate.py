import io
import math

import numpy as np
import pytest

import ia_rtdd as ia
from ia_rtdd import (BeamformerSet, DofAllocation, IterationOptions,
                     NetworkConfig, PowerProfile, RngStream, evaluate)

import oracles
from oracles import per_point_sweep, per_side_rates

SIM = NetworkConfig(12, (8, 8, 8, 8), 18, (4, 4, 4))
SIM_DOF = DofAllocation((3, 3, 3, 3), (2, 2, 2))

def scalar_network(h=1.0, g_cross=0.0, g_bs=0.0, h_beta=1.0):
    def frozen(x):
        m = np.array([[x]], dtype=complex)
        m.setflags(write=False)
        return m

    return ia.ChannelSet((frozen(h),), ((frozen(g_cross),),), (frozen(h_beta),),
                         frozen(g_bs))

def scalar_beamformers():
    one = np.array([[1.0 + 0j]])
    return BeamformerSet((one,), (one,), (one,), (one,))

class TestPointToPoint:
    def test_zero_db(self):
        assert abs(ia.baseline_point_to_point(0.0) - 1.0) < 1e-12

    def test_zero_power(self):
        assert ia.baseline_point_to_point(float("-inf")) == 0.0

    def test_thirty_db(self):
        assert abs(ia.baseline_point_to_point(30.0) - math.log2(1001)) < 1e-12
        assert abs(ia.baseline_point_to_point(30.0) - 9.967226258835993) < 1e-9

class TestUserRates:
    def test_zero_channels_zero_rate(self):
        ch = scalar_network(h=0.0, h_beta=0.0)
        powers = PowerProfile((1.0,), (1.0,))
        rates = ia.sum_rate(ch, scalar_beamformers(), powers)
        assert rates.per_alpha == (0.0,) and rates.per_beta == (0.0,)
        assert rates.total == 0.0

    def test_scalar_unit_link_is_one_bit(self):
        ch = scalar_network(h=1.0, h_beta=1.0)
        powers = PowerProfile((1.0,), (1.0,))
        rates = ia.sum_rate(ch, scalar_beamformers(), powers)
        assert abs(rates.per_alpha[0] - 1.0) < 1e-12
        assert abs(rates.per_beta[0] - 1.0) < 1e-12

    def test_interference_free_reduction(self):
        # with nulled interference the rate must match the direct formula
        # log2 det(I + (P/d) M M^H) evaluated independently via eigenvalues
        cfg = NetworkConfig(13, (3, 6), 10, (4, 6, 6))
        dof = DofAllocation((1, 2), (2, 4, 4))
        ch = ia.sample_channels(cfg, RngStream(3, 0))
        powers = ia.power_profile_for_snr(cfg, 20.0)
        opts = IterationOptions(max_iters=3000, leakage_stop=1e-13)
        bf, _ = ia.construct_beamformers(ch, dof, powers, opts, RngStream(3, 1))
        rates = ia.sum_rate(ch, bf, powers)
        for k in range(2):
            m = bf.u_alpha[k].conj().T @ ch.h_alpha[k] @ bf.v_alpha[k]
            w = powers.p_alpha[k] / dof.d_alpha[k]
            expected = float(np.sum(np.log2(1 + w * np.linalg.eigvalsh(m @ m.conj().T))))
            got = rates.per_alpha[k]
            assert abs(got - expected) < 1e-6 * max(1.0, expected)

    def test_beta_mirror_interference_free(self):
        cfg = NetworkConfig(13, (3, 6), 10, (4, 6, 6))
        dof = DofAllocation((1, 2), (2, 4, 4))
        ch = ia.sample_channels(cfg, RngStream(4, 0))
        powers = ia.power_profile_for_snr(cfg, 20.0)
        opts = IterationOptions(max_iters=3000, leakage_stop=1e-13)
        bf, _ = ia.construct_beamformers(ch, dof, powers, opts, RngStream(4, 1))
        rates = ia.sum_rate(ch, bf, powers)
        for l in range(3):
            m = bf.u_beta[l].conj().T @ ch.h_beta[l] @ bf.v_beta[l]
            w = powers.p_beta[l] / dof.d_beta[l]
            expected = float(np.sum(np.log2(1 + w * np.linalg.eigvalsh(m @ m.conj().T))))
            got = rates.per_beta[l]
            assert abs(got - expected) < 1e-4 * max(1.0, expected)

    def test_sum_additivity(self):
        ch = scalar_network(h=1.0, h_beta=2.0)
        powers = PowerProfile((4.0,), (1.0,))
        rates = ia.sum_rate(ch, scalar_beamformers(), powers)
        assert rates.total == rates.per_alpha[0] + rates.per_beta[0]
        assert rates.per_alpha[0] > 0 and rates.per_beta[0] > 0

def random_link_case(seed):
    """An irregular network of 1-4 users per cell with random filters of
    random width (zero included) and random powers; seeds 0 and 1 (mod 10)
    silence the downlink and the uplink cell."""
    rng = np.random.default_rng(seed)
    k, l = (int(v) for v in rng.integers(1, 5, size=2))
    n_a = tuple(int(v) for v in rng.integers(1, 7, size=k))
    n_b = tuple(int(v) for v in rng.integers(1, 7, size=l))
    cfg = NetworkConfig(int(rng.integers(1, 9)), n_a, int(rng.integers(1, 9)), n_b)
    d_a = [int(rng.integers(0, n + 1)) for n in n_a]
    d_b = [int(rng.integers(0, n + 1)) for n in n_b]
    if seed % 10 == 0:
        d_a = [0] * k
    if seed % 10 == 1:
        d_b = [0] * l

    def filters(rows, widths):
        return tuple(rng.standard_normal((r, d)) + 1j * rng.standard_normal((r, d))
                     for r, d in zip(rows, widths))

    bf = BeamformerSet(filters(n_a, d_a), filters([cfg.m_alpha] * k, d_a),
                       filters([cfg.m_beta] * l, d_b), filters(n_b, d_b))
    powers = PowerProfile(rng.uniform(0.0, 4.0, k), rng.uniform(0.0, 4.0, l))
    return ia.sample_channels(cfg, RngStream(seed, 0)), bf, powers


def per_link_residuals(ch, bf):
    """The four residual matrices and two margin vectors, one link at a time."""
    def norm(u, h, v):
        return np.linalg.norm(u.conj().T @ h @ v)

    def margin(u, h, v):
        m = u.conj().T @ h @ v
        return np.linalg.svd(m, compute_uv=False)[-1] if m.size else np.inf

    K, L = len(bf.u_alpha), len(bf.u_beta)
    u_a, v_a, u_b, v_b = bf.u_alpha, bf.v_alpha, bf.u_beta, bf.v_beta
    return (
        np.array([[norm(u_a[k], ch.g_cross[k][l], v_b[l]) for l in range(L)]
                  for k in range(K)]),
        np.array([[norm(u_b[l], ch.g_bs, v_a[k]) for k in range(K)] for l in range(L)]),
        np.array([[0.0 if i == k else norm(u_a[k], ch.h_alpha[k], v_a[i])
                   for i in range(K)] for k in range(K)]),
        np.array([[0.0 if j == l else norm(u_b[l], ch.h_beta[j], v_b[j])
                   for j in range(L)] for l in range(L)]),
        np.array([margin(u_a[k], ch.h_alpha[k], v_a[k]) for k in range(K)]),
        np.array([margin(u_b[l], ch.h_beta[l], v_b[l]) for l in range(L)]),
    )


@pytest.mark.parametrize("seed", range(50))
def test_link_table_matches_per_link_references(seed):
    # bit for bit: the same operands, products and summation order
    ch, bf, powers = random_link_case(seed)
    rates = ia.sum_rate(ch, bf, powers)
    want = per_side_rates(ch, bf, powers)
    assert np.array(rates.per_alpha + rates.per_beta).tobytes() == \
        np.array(want[0] + want[1]).tobytes()
    dof = DofAllocation(tuple(u.shape[1] for u in bf.u_alpha),
                        tuple(u.shape[1] for u in bf.u_beta))
    report = ia.residual_report(ch, bf, dof)
    got = (report.inter_alpha, report.inter_beta, report.intra_alpha,
           report.intra_beta, report.margin_alpha, report.margin_beta)
    for a, b in zip(got, per_link_residuals(ch, bf)):
        assert a.shape == b.shape and a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()


class TestSnrGuard:
    CFG = NetworkConfig(4, (3, 3), 6, (2, 2))

    @pytest.mark.parametrize("snr_db", [float("nan"), float("inf"), 300.5,
                                        3082.0, 3084.0])
    def test_rejected_through_the_library(self, snr_db):
        with pytest.raises(ia.ConfigError, match="SNR must be at most 300 dB"):
            ia.snr_to_power(snr_db)
        with pytest.raises(ia.ConfigError, match="SNR"):
            ia.monte_carlo_sweep(self.CFG, DofAllocation((2, 2), (1, 1)),
                                 [0.0, snr_db], trials=1,
                                 opts=IterationOptions(max_iters=20))
        with pytest.raises(ia.ConfigError, match="SNR"):
            ia.baseline_single_cell(self.CFG, snr_db, 1, seed=0)

    def test_limit_itself_accepted(self):
        assert ia.snr_to_power(300.0) == 10.0 ** 30.0
        assert math.isfinite(ia.baseline_single_cell(self.CFG, 300.0, 1, seed=0))


class TestBaselines:
    def test_single_cell_slope_near_dof(self):
        lo = ia.baseline_single_cell(SIM, 30.0, trials=8, seed=2)
        hi = ia.baseline_single_cell(SIM, 50.0, trials=8, seed=2)
        slope = (hi - lo) / (np.log2(1e5) - np.log2(1e3))
        assert 10.0 <= slope <= 14.0  # single-cell DoF is 12

    def test_single_cell_zero_power(self):
        assert ia.baseline_single_cell(SIM, float("-inf"), trials=2, seed=0) == 0.0

    def test_symmetric_network_cells_agree(self):
        # matched per-user powers: the two cells are transpose duals, so their
        # zero-forcing sum rates share one distribution
        cfg = NetworkConfig(6, (3, 3), 6, (3, 3))
        power = 10.0 ** 2.0
        rates_a, rates_b = [], []
        for t in range(60):
            ch = ia.sample_channels(cfg, RngStream(11, t))
            links = evaluate._single_cell_links(ch, cfg)
            rates_a.append(evaluate._single_cell_rates(links, cfg, 2 * power)[0])
            rates_b.append(evaluate._single_cell_rates(links, cfg, power)[1])
        mean_a, mean_b = np.mean(rates_a), np.mean(rates_b)
        se = np.sqrt(np.var(rates_a) / 60 + np.var(rates_b) / 60)
        assert abs(mean_a - mean_b) <= 3 * se

class TestSweep:
    def test_deterministic(self):
        cfg = NetworkConfig(4, (3, 3), 6, (2, 2))
        dof = DofAllocation((2, 2), (1, 1))
        opts = IterationOptions(max_iters=150, leakage_stop=1e-9)
        a = ia.monte_carlo_sweep(cfg, dof, [0.0, 10.0], trials=3, opts=opts, seed=5)
        b = ia.monte_carlo_sweep(cfg, dof, [0.0, 10.0], trials=3, opts=opts, seed=5)
        assert a == b

    def test_zero_trials_rejected(self):
        cfg = NetworkConfig(4, (3, 3), 6, (2, 2))
        dof = DofAllocation((2, 2), (1, 1))
        with pytest.raises(ia.ConfigError, match="trials must be >= 1"):
            ia.monte_carlo_sweep(cfg, dof, [0.0], trials=0)
        with pytest.raises(ia.ConfigError, match="trials must be >= 1"):
            ia.baseline_single_cell(cfg, 0.0, 0, seed=0)
        with pytest.raises(ia.ConfigError, match="trials must be >= 1"):
            ia.check_sufficient(cfg, dof, trials=0)

    def test_non_integer_counts_rejected(self):
        cfg = NetworkConfig(4, (3, 3), 6, (2, 2))
        dof = DofAllocation((2, 2), (1, 1))
        for trials in (2.5, True, "2"):
            with pytest.raises(ia.ConfigError, match="trials must be an integer"):
                ia.monte_carlo_sweep(cfg, dof, [0.0], trials=trials)
            with pytest.raises(ia.ConfigError, match="trials must be an integer"):
                ia.baseline_single_cell(cfg, 0.0, trials, 0)
            with pytest.raises(ia.ConfigError, match="trials must be an integer"):
                ia.check_sufficient(cfg, dof, trials=trials)
        # an integral float or numpy integer is the same count
        assert ia.baseline_single_cell(cfg, 10.0, 2.0, 0) == \
            ia.baseline_single_cell(cfg, 10.0, np.int64(2), 0) == \
            ia.baseline_single_cell(cfg, 10.0, 2, 0)

    def test_zero_power_trial(self):
        cfg = NetworkConfig(4, (3, 3), 6, (2, 2))
        dof = DofAllocation((2, 2), (1, 1))
        res = ia.monte_carlo_sweep(cfg, dof, [float("-inf")], trials=1,
                                   opts=IterationOptions(max_iters=20), seed=1)
        assert res.mean_sum_rate[0] == 0.0
        assert res.trials_ok[0] == 1

    def test_grid_shape_and_csv(self):
        cfg = NetworkConfig(4, (3, 3), 6, (2, 2))
        dof = DofAllocation((2, 2), (1, 1))
        opts = IterationOptions(max_iters=100, leakage_stop=1e-8)
        res = ia.monte_carlo_sweep(cfg, dof, [0.0, 5.0, 10.0], trials=2,
                                   opts=opts, seed=3)
        assert len(res.snr_db) == 3
        assert all(ok == 2 for ok in res.trials_ok)
        buf = io.StringIO()
        res.write_csv(buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == ("snr_db,mean_sum_rate,mean_rate_alpha_1,mean_rate_alpha_2,"
                            "mean_rate_beta_1,mean_rate_beta_2,"
                            "baseline_single_cell,baseline_p2p,trials_ok,trials_failed")
        assert len(lines) == 4
        data = res.to_dict()
        assert len(data["rows"]) == 3
        assert data["rows"][0]["snr_db"] == 0.0

    def test_rates_are_nonnegative(self):
        cfg = NetworkConfig(4, (3, 3), 6, (2, 2))
        dof = DofAllocation((2, 2), (1, 1))
        res = ia.monte_carlo_sweep(cfg, dof, [0.0, 20.0], trials=3,
                                   opts=IterationOptions(max_iters=100), seed=9)
        assert all(r >= 0 for r in res.mean_sum_rate)
        assert all(v >= 0 for row in res.mean_alpha for v in row)


# Irregular networks: a user without streams, a silent cell, a downlink-heavy
# allocation, each swept from zero power up.
IRREGULAR = (
    (NetworkConfig(4, (3, 3), 6, (2, 3)), DofAllocation((2, 0), (1, 2))),
    (NetworkConfig(4, (3, 3), 6, (2, 3)), DofAllocation((0, 0), (1, 2))),
    (NetworkConfig(4, (3, 3), 6, (2, 3)), DofAllocation((2, 1), (0, 0))),
    (NetworkConfig(13, (3, 6), 10, (4, 6, 6)), DofAllocation((1, 2), (2, 4, 4))),
)
SWEEP_OPTS = IterationOptions(max_iters=300, leakage_stop=1e-12)


def sweep_bytes(res, rows=None):
    """Every number of a sweep result at the grid rows ``rows``, as bytes."""
    rows = range(len(res.snr_db)) if rows is None else rows
    out = []
    for i in rows:
        row = (res.snr_db[i], res.mean_sum_rate[i], *res.mean_alpha[i],
               *res.mean_beta[i], res.baseline_single_cell[i], res.baseline_p2p[i])
        out.append((np.array(row).tobytes(), res.trials_ok[i], res.trials_failed[i]))
    return out, res.trials, res.seed


class TestSweepOrder:
    @pytest.mark.parametrize("case", range(len(IRREGULAR)))
    def test_matches_per_point_reference(self, case):
        # bit for bit: the trial-major sweep folds the same per-trial rates in
        # the same order as redrawing everything at every grid point
        cfg, dof = IRREGULAR[case]
        grid = [float("-inf"), 0.0, 30.0]
        got = ia.monte_carlo_sweep(cfg, dof, grid, 3, SWEEP_OPTS, seed=case)
        want = per_point_sweep(cfg, dof, grid, 3, SWEEP_OPTS, seed=case)
        assert got.trials_ok == (3, 3, 3)
        assert sweep_bytes(got) == sweep_bytes(want)

    def test_failed_trials_are_counted_per_point(self, monkeypatch):
        cfg = NetworkConfig(4, (3, 3), 6, (2, 2))
        dof = DofAllocation((2, 2), (1, 1))
        grid = [0.0, 10.0, 20.0]
        trials = 3
        # (trial, SNR) points that fail; every trial fails at 10 dB
        fail = {(1, 0.0), (2, 0.0), (0, 10.0), (1, 10.0), (2, 10.0)}
        snr_of = {ia.snr_to_power(s): s for s in grid}
        real = evaluate.construct_beamformers

        def flaky(channels, dof, powers, opts=None, rng=None):
            if (rng.stream_index - trials, snr_of[powers.p_beta[0]]) in fail:
                raise ia.SingularSystemError("forced failure")
            return real(channels, dof, powers, opts, rng=rng)

        # the sweep completes the beamformers of each trial's points in grid
        # order, after that trial's stacked stage 1
        points = iter([(t, s) for t in range(trials) for s in grid])
        complete = evaluate.complete_beamformers

        def flaky_point(channels, dof, u_alpha, v_beta):
            if next(points) in fail:
                raise ia.SingularSystemError("forced failure")
            return complete(channels, dof, u_alpha, v_beta)

        monkeypatch.setattr(evaluate, "complete_beamformers", flaky_point)
        monkeypatch.setattr(oracles, "construct_beamformers", flaky)
        got = ia.monte_carlo_sweep(cfg, dof, grid, trials, SWEEP_OPTS, seed=2)
        want = per_point_sweep(cfg, dof, grid, trials, SWEEP_OPTS, seed=2)
        assert next(points, None) is None
        assert got.trials_ok == want.trials_ok == (1, 0, 3)
        assert got.trials_failed == want.trials_failed == (2, 3, 0)
        assert sweep_bytes(got, [0, 2]) == sweep_bytes(want, [0, 2])
        assert math.isnan(got.mean_sum_rate[1])
        assert all(math.isnan(v) for v in got.mean_alpha[1] + got.mean_beta[1])
        # the baseline does not depend on the alignment, so it never fails
        assert got.baseline_single_cell == want.baseline_single_cell
        assert got.baseline_single_cell[1] > 0

    def test_long_grid_runs_in_slices(self, monkeypatch):
        # a grid longer than STAGE1_BATCH builds stage 1 slice by slice, with
        # the same results as one point at a time
        cfg, dof = IRREGULAR[0]
        grid = [float("-inf"), 0.0, 30.0]
        batches = []
        batch = evaluate.iterate_alignment_batch
        monkeypatch.setattr(evaluate, "STAGE1_BATCH", 2)
        monkeypatch.setattr(evaluate, "iterate_alignment_batch",
                            lambda ch, dof, profiles, *args, **kw:
                            batches.append(len(profiles)) or batch(ch, dof, profiles,
                                                                   *args, **kw))
        got = ia.monte_carlo_sweep(cfg, dof, grid, 2, SWEEP_OPTS, seed=5)
        want = per_point_sweep(cfg, dof, grid, 2, SWEEP_OPTS, seed=5)
        assert batches == [2, 1, 2, 1]
        assert sweep_bytes(got) == sweep_bytes(want)

    def test_each_trial_drawn_and_baselined_once(self, monkeypatch):
        cfg = NetworkConfig(4, (3, 3), 6, (2, 2))
        dof = DofAllocation((2, 2), (1, 1))
        draws, builds = [], []
        sample, links = evaluate.sample_channels, evaluate._single_cell_links
        monkeypatch.setattr(evaluate, "sample_channels",
                            lambda config, rng: draws.append(rng) or sample(config, rng))
        monkeypatch.setattr(evaluate, "_single_cell_links",
                            lambda ch, config: builds.append(ch) or links(ch, config))
        ia.monte_carlo_sweep(cfg, dof, [0.0, 10.0, 20.0], trials=2,
                             opts=IterationOptions(max_iters=20), seed=4)
        assert draws == [RngStream(4, 0), RngStream(4, 1)]
        assert len(builds) == 2
