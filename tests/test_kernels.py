import os

import numpy as np
import pytest

import ia_rtdd as ia
from ia_rtdd import _kernels
from ia_rtdd.model import NetworkConfig

from oracles import brute_first_violations, per_user_alignment_loop


def _indices(mask):
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def test_mask_lex_order_matches_tuple_order():
    keyed = sorted(range(32), key=_indices)
    for a, b in zip(keyed, keyed[1:]):
        assert _kernels._mask_key(a) < _kernels._mask_key(b)


def _assert_scan_matches_oracle(rng, max_users, max_antennas):
    k = int(rng.integers(1, max_users + 1))
    l = int(rng.integers(1, max_users + 1))
    n_a = tuple(int(v) for v in rng.integers(1, max_antennas + 1, size=k))
    n_b = tuple(int(v) for v in rng.integers(1, max_antennas + 1, size=l))
    d_a = tuple(int(rng.integers(0, n + 1)) for n in n_a)
    d_b = tuple(int(rng.integers(0, n + 1)) for n in n_b)
    cfg = NetworkConfig(99, n_a, 99, n_b)
    bound, count = _kernels.subset_scan(d_a, n_a, d_b, n_b)
    ob, oc = brute_first_violations(cfg, d_a, d_b)
    got_bound = None if bound is None else (_indices(bound[0]), _indices(bound[1]))
    got_count = None if count is None else (_indices(count[0]), _indices(count[1]))
    assert got_bound == ob
    assert got_count == oc


@pytest.mark.parametrize("seed", range(25))
def test_scan_implementations_agree(seed):
    # the vectorised scan against the brute-force oracle at 1-4 users and
    # 1-8 antennas per cell
    _assert_scan_matches_oracle(np.random.default_rng(seed), 4, 8)


@pytest.mark.parametrize("seed", range(15))
def test_scan_matches_brute_force_first_violation(seed):
    _assert_scan_matches_oracle(np.random.default_rng(100 + seed), 3, 6)


@pytest.mark.parametrize("seed", range(8))
def test_alignment_loop_matches_per_user_reference(seed):
    # irregular networks, so users of several filter shapes share a cell
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
    args = (g_cross, n_a, n_b, d_a, d_b, list(rng.uniform(0.1, 3.0, k)),
            list(rng.uniform(0.1, 3.0, l)), tuple(u0), 40, 1e-8)
    got = _kernels.alignment_loop(*args)
    want = per_user_alignment_loop(*args)
    for a, b in zip(got[0] + got[1] + got[2:4], want[0] + want[1] + want[2:4]):
        assert a.shape == b.shape and a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()
    assert got[4:] == want[4:]


def test_alignment_loop_grows_its_records_bit_for_bit():
    # an infeasible allocation plateaus, so the loop runs past the first
    # 1024-iteration leakage buffer and has to grow it
    rng = np.random.default_rng(3)
    g_cross = [[rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
                for _ in range(2)] for _ in range(2)]
    u0 = tuple(np.linalg.qr(rng.standard_normal((3, 3))
                            + 1j * rng.standard_normal((3, 3)))[0][:, :2]
               for _ in range(2))
    args = (g_cross, [3, 3], [3, 3], [2, 2], [2, 2], [1.0, 2.0], [1.5, 0.5],
            u0, 1500, 1e-300)
    got = _kernels.alignment_loop(*args)
    want = per_user_alignment_loop(*args)
    assert got[4:] == want[4:] == (1500, False)
    for a, b in zip(got[2:4], want[2:4]):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


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
        rng = np.random.default_rng(1)
        stack = rng.standard_normal((3, 5, 2)) + 1j * rng.standard_normal((3, 5, 2))
        stack[1, :, 0] = 0.0
        stack[2, :2, 1] = 0.0
        out = _kernels.fix_column_phases(stack)
        for got, mat in zip(out, stack):
            assert got.tobytes() == _kernels.fix_column_phases(mat).tobytes()


@pytest.fixture
def spans(monkeypatch):
    """The benchmark's tracer module, perfbench/spans.py."""
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), "..",
                                             "perfbench"))
    import spans
    return spans


def test_benchmark_tracer_reads_alignment_loop(spans):
    # perfbench/spans.py reads arguments 1-4 (user antennas and streams) and
    # output 4 (iterations run) of the alignment loop to count its FLOPs, and
    # the benchmark calls residual_report(channels, bf, dof) and
    # sum_rate(channels, bf, powers) through the package namespace
    cfg = ia.NetworkConfig(4, (3, 3), 6, (2, 2))
    dof = ia.DofAllocation((2, 2), (1, 1))
    powers = ia.power_profile_for_snr(cfg, 20.0)
    ch = ia.sample_channels(cfg, ia.RngStream(0, 0))
    tracer = spans.Tracer()
    tracer.install(ia)
    try:
        tracer.op = 0
        bf, _ = ia.construct_beamformers(ch, dof, powers, ia.IterationOptions(max_iters=3),
                                         ia.RngStream(0, 1))
        ia.residual_report(ch, bf, dof)
        ia.sum_rate(ch, bf, powers)
        tracer.op = None
    finally:
        left = tracer.restore(ia)
    assert left == []
    totals = spans.layer_totals(tracer.spans)
    loop = totals["kernels.alignment_loop"]
    assert loop["calls"] == 1 and loop["flop"] > 0
    assert totals["beamform.residual_report"]["calls"] == 1
    assert "margin_ok" in totals["beamform.residual_report"]
    assert totals["evaluate.sum_rate"]["calls"] == 1


def test_benchmark_tracer_reads_sweep(spans):
    # the benchmark's view of a 2-trial, 2-point sweep: one draw per trial,
    # one construction and one rating per (trial, SNR) point
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
    assert calls["beamform.construct_beamformers"] == 4
    assert calls["evaluate.sum_rate"] == 4


def test_backend_is_reported():
    assert _kernels.BACKEND == "numpy"
