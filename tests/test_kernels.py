import os
import tracemalloc

import numpy as np
import pytest

import ia_rtdd as ia
from ia_rtdd import _kernels
from ia_rtdd.model import NetworkConfig

from oracles import (brute_first_violations, brute_necessary,
                     per_user_alignment_loop)


def _indices(mask):
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def _random_allocation(rng, n):
    # all counts in 0..N, or small ones, so that passing allocations occur
    top = np.array(n) if rng.integers(2) else np.minimum(n, 2)
    return tuple(int(v) for v in rng.integers(0, top + 1))


@pytest.mark.parametrize("seed", range(5))
def test_stacked_violations_match_one_allocation_at_a_time(seed):
    # six allocations of a network of up to 6+6 users pre-checked as one
    # block and scanned one at a time, against the definitions
    rng = np.random.default_rng(200 + seed)
    k, l = (int(v) for v in rng.integers(1, 7, size=2))
    n_a = tuple(int(v) for v in rng.integers(1, 7, size=k))
    n_b = tuple(int(v) for v in rng.integers(1, 7, size=l))
    cfg = NetworkConfig(99, n_a, 99, n_b)
    block = np.array([_random_allocation(rng, n_a) + _random_allocation(rng, n_b)
                      for _ in range(6)])
    got = ia.feasibility._precheck(cfg, block).tolist()
    for row, keep in zip(block.tolist(), got):
        d_a, d_b = row[:k], row[k:]
        verdict = brute_necessary(cfg, d_a, d_b)
        scanned = _kernels.subset_scan(d_a, n_a, d_b, n_b) == (None, None)
        assert scanned == (verdict["8d"] and verdict["8e"])
        assert keep or not all(verdict.values())


def _assert_scan_matches_oracle(rng, max_users, max_antennas):
    k = int(rng.integers(1, max_users + 1))
    l = int(rng.integers(1, max_users + 1))
    n_a = tuple(int(v) for v in rng.integers(1, max_antennas + 1, size=k))
    n_b = tuple(int(v) for v in rng.integers(1, max_antennas + 1, size=l))
    d_a, d_b = _random_allocation(rng, n_a), _random_allocation(rng, n_b)
    cfg = NetworkConfig(99, n_a, 99, n_b)
    bound, count = _kernels.subset_scan(d_a, n_a, d_b, n_b)
    ob, oc = brute_first_violations(cfg, d_a, d_b)
    got_bound = None if bound is None else (_indices(bound[0]), _indices(bound[1]))
    got_count = None if count is None else (_indices(count[0]), _indices(count[1]))
    assert got_bound == ob
    assert got_count == oc


@pytest.mark.parametrize("seed", range(25))
def test_scan_implementations_agree(seed):
    # the table scan against the brute-force oracle at 1-6 users and 1-8
    # antennas per cell, three allocations each
    rng = np.random.default_rng(seed)
    for _ in range(3):
        _assert_scan_matches_oracle(rng, 6, 8)


def test_scan_memory_is_bounded_by_the_block():
    # a passing allocation of a 10+10-user network has 2^20 subset pairs;
    # its stream-total tables hold a few hundred entries
    n_a, n_b = (2, 3, 4, 5, 6, 2, 3, 4, 5, 6), (6, 5, 4, 3, 2, 6, 5, 4, 3, 2)
    d_a, d_b = (1,) + (0,) * 9, (1,) + (0,) * 9
    tracemalloc.start()
    try:
        assert _kernels.subset_scan(d_a, n_a, d_b, n_b) == (None, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


def test_search_memory_is_bounded_by_the_block():
    # each allocation of a 10+10-user network has 2^20 subset pairs; the
    # search decides them from tables of at most 11 entries per user
    cfg = NetworkConfig(1, (1,) * 10, 1, (1,) * 10)
    tracemalloc.start()
    try:
        result = ia.search_max_sum_dof(cfg, "necessary")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.d_sum == 1
    assert peak < 4 << 20


@pytest.mark.parametrize("seed", range(15))
def test_scan_matches_brute_force_first_violation(seed):
    _assert_scan_matches_oracle(np.random.default_rng(100 + seed), 3, 6)


def _assert_members_match_reference(args, w_alpha, w_beta):
    """Each member of one alignment_loop call is bit-equal to the per-user
    reference run alone with its weights; returns the members' iterations."""
    got = _kernels.alignment_loop(*args[:5], w_alpha, w_beta, *args[5:])
    u, v, totals, per_user, n_iters, converged = got
    assert len(u) == len(v) == len(totals) == len(per_user) == len(converged) \
        == len(w_alpha)
    for m, (wa, wb) in enumerate(zip(w_alpha, w_beta)):
        want = per_user_alignment_loop(*args[:5], wa, wb, *args[5:])
        mine = u[m] + v[m] + (totals[m], per_user[m])
        for a, b in zip(mine, want[0] + want[1] + want[2:4]):
            assert a.shape == b.shape and a.dtype == b.dtype
            assert a.tobytes() == b.tobytes()
        assert (len(totals[m]), converged[m]) == want[4:]
    assert n_iters == sum(len(t) for t in totals)
    return [len(t) for t in totals]


@pytest.mark.parametrize("seed", range(8))
def test_alignment_loop_matches_per_user_reference(seed):
    # irregular networks, so users of several filter shapes share a cell; a
    # batch of 2-4 members with random weights, one of them all zero
    rng = np.random.default_rng(seed)
    k, l = (int(v) for v in rng.integers(1, 5, size=2))
    n_a = [int(v) for v in rng.integers(1, 7, size=k)]
    n_b = [int(v) for v in rng.integers(1, 7, size=l)]
    d_a = [int(rng.integers(0, n + 1)) for n in n_a]
    d_b = [int(rng.integers(0, n + 1)) for n in n_b]
    g_cross = [[rng.standard_normal((na, nb)) + 1j * rng.standard_normal((na, nb))
                for nb in n_b] for na in n_a]
    u0 = []
    for n, d in zip(n_a, d_a):
        q, _ = np.linalg.qr(rng.standard_normal((n, n))
                            + 1j * rng.standard_normal((n, n)))
        u0.append(q[:, :d])
    members = int(rng.integers(2, 5))
    w_alpha = [list(rng.uniform(0.1, 3.0, k)) for _ in range(members)]
    w_beta = [list(rng.uniform(0.1, 3.0, l)) for _ in range(members)]
    zero = int(rng.integers(members))
    w_alpha[zero], w_beta[zero] = [0.0] * k, [0.0] * l
    args = (g_cross, n_a, n_b, d_a, d_b, tuple(u0), 40, 1e-8)
    iterations = _assert_members_match_reference(args, w_alpha, w_beta)
    # the zero-weight member leaks nothing and stops after one iteration; the
    # others run on, except on seed 3's network, which aligns at once
    assert iterations[zero] == 1
    assert (max(iterations) == 1) == (seed == 3)


def test_alignment_loop_adds_interleaved_groups_in_group_order():
    # filter shapes interleave on both sides, (2, 3, 2, 3) x (2, 3, 2) with one
    # stream each, so group order differs from user order; the covariances
    # add the other side's users group by group, as the reference does.  The
    # network has fewer variables than equations, so no member converges.
    rng = np.random.default_rng(11)
    n_a, n_b = [2, 3, 2, 3], [2, 3, 2]
    d_a, d_b = [1, 1, 1, 1], [1, 1, 1]
    assert [users for _, users in _kernels._shape_groups(n_a, d_a)] == [[0, 2], [1, 3]]
    assert [users for _, users in _kernels._shape_groups(n_b, d_b)] == [[0, 2], [1]]
    g_cross = [[rng.standard_normal((na, nb)) + 1j * rng.standard_normal((na, nb))
                for nb in n_b] for na in n_a]
    u0 = tuple(np.linalg.qr(rng.standard_normal((n, n))
                            + 1j * rng.standard_normal((n, n)))[0][:, :1] for n in n_a)
    w_alpha = [list(rng.uniform(0.1, 3.0, 4)) for _ in range(2)]
    w_beta = [list(rng.uniform(0.1, 3.0, 3)) for _ in range(2)]
    args = (g_cross, n_a, n_b, d_a, d_b, u0, 60, 1e-12)
    assert _assert_members_match_reference(args, w_alpha, w_beta) == [60, 60]


def test_alignment_loop_runs_no_member():
    u, v, totals, per_user, n_iters, converged = _kernels.alignment_loop(
        [[np.ones((2, 2))]], [2], [2], [1], [1], [], [], (np.eye(2)[:, :1],), 5, 1e-8)
    assert (u, v, totals, per_user, n_iters, converged) == ((), (), (), (), 0, ())


def test_alignment_loop_grows_its_records_bit_for_bit():
    # a slowly converging network, so the records grow past their first 1024
    # rows twice, the second time to max_iters; the members stop at four
    # different iterations, before and after each growth
    rng = np.random.default_rng(4)
    n, d = [4, 4], [2, 2]
    g_cross = [[rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
                for _ in n] for _ in n]
    u0 = tuple(np.linalg.qr(rng.standard_normal((4, 4))
                            + 1j * rng.standard_normal((4, 4)))[0][:, :2]
               for _ in n)
    w_alpha = [[1.0, 1.0], list(rng.uniform(0.2, 3, 2)), list(rng.uniform(0.2, 3, 2)),
               [0.0, 0.0]]
    w_beta = [[1.0, 1.0], list(rng.uniform(0.2, 3, 2)), list(rng.uniform(0.2, 3, 2)),
              [0.0, 0.0]]
    args = (g_cross, n, n, d, d, u0, 3000, 1e-24)
    assert _assert_members_match_reference(args, w_alpha, w_beta) == \
        [1055, 2201, 3000, 1]


class TestFixColumnPhases:
    def test_phase_convention(self):
        rng = np.random.default_rng(0)
        mat = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        mat[0, 1] = 0.0
        mat[0, 2] = 1e-13 * np.abs(mat[:, 2]).max()  # negligible: skipped
        out = _kernels.fix_column_phases(mat)
        for c, pivot in enumerate((0, 1, 1)):
            assert out[pivot, c].real > 0
            assert abs(out[pivot, c].imag) <= 1e-15 * abs(out[pivot, c])
            # the same column, turned by one unit phase
            turn = out[pivot, c] / mat[pivot, c]
            assert abs(abs(turn) - 1) < 1e-15
            assert np.abs(out[:, c] - turn * mat[:, c]).max() < 1e-15

    def test_zero_column_unchanged(self):
        mat = np.zeros((3, 2), dtype=complex)
        mat[:, 1] = [0.0, -2.0j, 1.0]
        out = _kernels.fix_column_phases(mat)
        assert not np.any(out[:, 0])
        assert np.allclose(out[:, 1], [0.0, 2.0, 1.0j])

    def test_stack_matches_per_matrix_calls(self):
        # a (members, users) stack, as the alignment loop passes it, with a
        # zero column and a column whose lead entry is not its first
        rng = np.random.default_rng(1)
        stack = rng.standard_normal((2, 3, 5, 2)) + 1j * rng.standard_normal((2, 3, 5, 2))
        stack[0, 1, :, 0] = 0.0
        stack[1, 2, :2, 1] = 0.0
        out = _kernels.fix_column_phases(stack)
        for got_member, member in zip(out, stack):
            for got, mat in zip(got_member, member):
                assert got.tobytes() == _kernels.fix_column_phases(mat).tobytes()
        # a stack whose every column leads with its first entry
        generic = stack[:, :1]
        assert _kernels.fix_column_phases(generic).tobytes() == \
            out[:, :1].tobytes()

    # The alignment loop phase-fixes the d weakest eigenvectors of a
    # (members, users, n, n) covariance stack with `_unit_column_phases`,
    # whose fast path must give the general path's bytes.

    @staticmethod
    def _fast_path_taken(monkeypatch, vecs):
        """Whether `_unit_column_phases` kept to its fast path on ``vecs``,
        after checking its bytes against the general path's."""
        general = _kernels.fix_column_phases
        calls = []
        monkeypatch.setattr(_kernels, "fix_column_phases",
                            lambda mat: calls.append(mat) or general(mat))
        assert _kernels._unit_column_phases(vecs).tobytes() == general(vecs).tobytes()
        return not calls

    @staticmethod
    def _loop_covariances(rng, shape, rank):
        # sums of ``rank`` rank-one terms, as the loop's covariances are:
        # on SIM the 8 x 8 downlink ones have rank 6
        x = rng.standard_normal(shape + (rank,)) + 1j * rng.standard_normal(shape + (rank,))
        return x @ x.conj().swapaxes(-1, -2)

    @staticmethod
    def _with_lead(rng, n, lead):
        # an n x n covariance whose weakest eigenvector has first entry of
        # magnitude ``lead``
        col = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        col[0] = 0.0
        col *= np.sqrt(1 - lead ** 2) / np.linalg.norm(col)
        col[0] = lead
        q = np.linalg.qr(np.column_stack(
            [col, rng.standard_normal((n, n - 1)) + 1j * rng.standard_normal((n, n - 1))]))[0]
        return (q * np.arange(1.0, n + 1)) @ q.conj().T

    def test_unit_columns_take_the_fast_path(self, monkeypatch):
        rng = np.random.default_rng(5)
        for shape, rank, d in (((2, 4, 8), 6, 3), ((6, 3, 4), 4, 2), ((1, 2, 6), 2, 4)):
            vecs = np.linalg.eigh(self._loop_covariances(rng, shape, rank))[1][..., :d]
            assert self._fast_path_taken(monkeypatch, vecs)

    def test_zero_covariance_falls_back(self, monkeypatch):
        # eigh gives the identity: every column but the first leads with 0
        vecs = np.linalg.eigh(np.zeros((2, 3, 4, 4), dtype=complex))[1][..., :2]
        assert not np.abs(vecs[..., 0, 1]).any()
        assert not self._fast_path_taken(monkeypatch, vecs)

    def test_lead_below_twice_the_tolerance_falls_back(self, monkeypatch):
        # a lead entry that the general path takes as the pivot (above
        # _PHASE_TOL times its column's largest) but the fast test cannot
        # tell from negligible (below 2 * _PHASE_TOL)
        rng = np.random.default_rng(6)
        vecs = np.linalg.eigh(self._with_lead(rng, 6, 1.5e-12))[1][None, None, :, :2]
        lead = abs(vecs[0, 0, 0, 0])
        assert _kernels._PHASE_TOL * np.abs(vecs[0, 0, :, 0]).max() < lead
        assert lead < 2 * _kernels._PHASE_TOL
        assert not self._fast_path_taken(monkeypatch, vecs)

    def test_one_failing_column_sends_the_stack_to_the_general_path(self, monkeypatch):
        # one user's weakest eigenvector leads with a negligible entry, so
        # the general path pivots it on a later entry; every other column
        # of the stack passes the fast test
        rng = np.random.default_rng(7)
        covs = self._loop_covariances(rng, (2, 3, 6), 4)
        covs[1, 2] = self._with_lead(rng, 6, 1e-14)
        vecs = np.linalg.eigh(covs)[1][..., :2]
        failing = np.abs(vecs[..., 0, :]) <= 2 * _kernels._PHASE_TOL
        assert failing.sum() == 1 and failing[1, 2, 0]
        assert not np.isnan(vecs).any()
        assert not self._fast_path_taken(monkeypatch, vecs)


@pytest.fixture
def spans(monkeypatch):
    """The benchmark's tracer module, perfbench/spans.py."""
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), "..",
                                             "perfbench"))
    import spans
    return spans


def test_benchmark_tracer_reads_alignment_loop(spans):
    # perfbench/spans.py reads arguments 1-4 (user antennas and streams) and
    # output 4 (iterations run, summed over the members) of the alignment
    # loop to count its FLOPs, and the benchmark calls
    # residual_report(channels, bf, dof) and sum_rate(channels, bf, powers)
    # through the package namespace
    cfg = ia.NetworkConfig(4, (3, 3), 6, (2, 2))
    dof = ia.DofAllocation((2, 2), (1, 1))
    powers = ia.power_profile_for_snr(cfg, 20.0)
    ch = ia.sample_channels(cfg, ia.RngStream(0, 0))
    u0 = ia.init_postcoders(cfg, dof, ia.RngStream(0, 1))
    shape = (ch.g_cross, cfg.n_alpha, cfg.n_beta, dof.d_alpha, dof.d_beta)
    tracer = spans.Tracer()
    tracer.install(ia)
    try:
        tracer.op = 0
        bf, _ = ia.construct_beamformers(ch, dof, powers, ia.IterationOptions(max_iters=3),
                                         ia.RngStream(0, 1))
        ia.residual_report(ch, bf, dof)
        ia.sum_rate(ch, bf, powers)
        tracer.op = 1
        one = _kernels.alignment_loop(*shape, [[1.0, 1.0]], [[1.0, 1.0]], u0, 1, 1e-8)
        tracer.op = 2
        three = _kernels.alignment_loop(*shape, [[1.0, 2.0], [0.0, 0.0], [3.0, 1.0]],
                                        [[1.0, 1.0], [0.0, 0.0], [0.5, 2.0]], u0, 4, 1e-8)
        tracer.op = None
    finally:
        left = tracer.restore(ia)
    assert left == []
    totals = spans.layer_totals(tracer.spans)
    loop = totals["kernels.alignment_loop"]
    assert loop["calls"] == 3 and loop["flop"] > 0
    assert totals["beamform.residual_report"]["calls"] == 1
    assert "margin_ok" in totals["beamform.residual_report"]
    assert totals["evaluate.sum_rate"]["calls"] == 1
    flop = {span[4]: span[5]["flop"] for span in tracer.spans
            if span[0] == "kernels.alignment_loop"}
    assert one[4] == 1 and [len(t) for t in three[2]] == [4, 1, 4]
    assert flop[2] == flop[1] * 9


def test_benchmark_tracer_reads_feasibility(spans):
    # the dof_search workload's view: search_optimal and check_necessary
    # through the package namespace, and the rank test's stacked rank looked
    # up in the feasibility module
    cfg = ia.NetworkConfig(4, (3, 3), 6, (2, 2))
    tracer = spans.Tracer()
    tracer.install(ia)
    try:
        tracer.op = 0
        result = ia.search_optimal(cfg, trials=1)
        ia.check_necessary(cfg, ia.DofAllocation((2, 2), (1, 1)))
        walk = tracer.spans[:]
        tracer.op = 1
        single = ia.feasibility.search_max_sum_dof(cfg, "sufficient", 1)
        tracer.op = None
    finally:
        left = tracer.restore(ia)
    assert left == []
    # one walk serves both modes: no search_max_sum_dof span under it
    totals = spans.layer_totals(walk)
    assert totals["feasibility.search_optimal"]["calls"] == 1
    assert "feasibility.search_max_sum_dof" not in totals
    search = spans.layer_totals(tracer.spans)["feasibility.search_max_sum_dof"]
    assert search["calls"] == 1
    assert search["examined"] == single.examined == result["sufficient"].examined
    # a drawing rank test of one trial ranks a stack of one, drawn into one
    # array without sample_channels and built without build_alignment_matrix
    drawn = sum(1 for span in walk if span[0] == "feasibility.check_sufficient"
                and not span[5]["structural"])
    assert drawn >= 1
    assert spans.child_count(walk, "feasibility.check_sufficient",
                             "feasibility.numeric_rank") == drawn
    for name in ("model.sample_channels", "feasibility.build_alignment_matrix"):
        assert name not in totals
    assert totals["kernels.subset_scan"]["calls"] == \
        totals["feasibility.check_necessary"]["calls"] >= 2


def test_benchmark_tracer_reads_sweep(spans):
    # the benchmark's view of a 2-trial, 2-point sweep: one draw and one
    # stacked alignment loop per trial, one rating per (trial, SNR) point
    cfg = ia.NetworkConfig(4, (3, 3), 6, (2, 2))
    dof = ia.DofAllocation((2, 2), (1, 1))
    tracer = spans.Tracer()
    tracer.install(ia)
    try:
        tracer.op = 0
        ia.monte_carlo_sweep(cfg, dof, [0.0, 20.0], 2, ia.IterationOptions(max_iters=3))
        tracer.op = None
    finally:
        left = tracer.restore(ia)
    assert left == []
    calls = {name: row["calls"] for name, row in spans.layer_totals(tracer.spans).items()}
    assert calls["evaluate.monte_carlo_sweep"] == 1
    assert calls["model.sample_channels"] == 2
    assert calls["kernels.alignment_loop"] == 2
    assert calls["evaluate.sum_rate"] == 4


def test_backend_is_reported():
    assert _kernels.BACKEND == "numpy"
