import numpy as np
import pytest

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
    g_pad = np.zeros((k, l, max(n_a), max(n_b)), dtype=complex)
    for i, j in np.ndindex(k, l):
        shape = (n_a[i], n_b[j])
        g_pad[i, j, :n_a[i], :n_b[j]] = (rng.standard_normal(shape)
                                         + 1j * rng.standard_normal(shape))
    u0_pad = np.zeros((k, max(n_a), max(max(d_a), 1)), dtype=complex)
    for i in range(k):
        shape = (n_a[i], n_a[i])
        q, _ = np.linalg.qr(rng.standard_normal(shape)
                            + 1j * rng.standard_normal(shape))
        u0_pad[i, :n_a[i], :d_a[i]] = q[:, :d_a[i]]
    args = (g_pad, n_a, n_b, d_a, d_b, list(rng.uniform(0.1, 3.0, k)),
            list(rng.uniform(0.1, 3.0, l)), u0_pad, 40, 1e-8)
    got = _kernels.alignment_loop(*args)
    want = per_user_alignment_loop(*args)
    for a, b in zip(got[:4], want[:4]):
        assert a.tobytes() == b.tobytes()
    assert got[4:] == want[4:]


def test_backend_is_reported():
    assert _kernels.BACKEND == "numpy"
