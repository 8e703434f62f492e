import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ia_rtdd import (ConfigError, DofAllocation, NetworkConfig, RngStream,
                     sample_channels, validate_config)

SIM = NetworkConfig(12, (8, 8, 8, 8), 18, (4, 4, 4))


class TestConfigTypes:
    def test_valid_pair(self):
        cfg = NetworkConfig(2, (2,), 2, (2,))
        dof = DofAllocation((1,), (1,))
        assert validate_config(cfg, dof) == (cfg, dof)

    def test_stream_overflow_names_user(self):
        cfg = NetworkConfig(2, (2,), 2, (2,))
        with pytest.raises(ConfigError, match=r"d_alpha\[1\] = 3 exceeds N_alpha\[1\]"):
            validate_config(cfg, DofAllocation((3,), (1,)))

    def test_length_mismatch(self):
        cfg = NetworkConfig(4, (2, 2, 2), 4, (2,))
        with pytest.raises(ConfigError, match="d_alpha has 2 entries"):
            validate_config(cfg, DofAllocation((1, 1), (1,)))

    def test_antenna_bounds(self):
        with pytest.raises(ConfigError):
            NetworkConfig(0, (2,), 2, (2,))
        with pytest.raises(ConfigError):
            NetworkConfig(2, (2, 0), 2, (2,))
        with pytest.raises(ConfigError):
            DofAllocation((1,), (-1,))
        for bad in (4.7, True, "4", np.float64(2.5), float("inf")):
            with pytest.raises(ConfigError, match="must be an integer"):
                NetworkConfig(bad, (2,), 2, (2,))
            with pytest.raises(ConfigError, match="must be an integer"):
                NetworkConfig(2, (2,), 2, (2, bad))
            with pytest.raises(ConfigError, match="must be an integer"):
                DofAllocation((bad,), (1,))
        cfg = NetworkConfig(np.int64(4), (np.int32(2), 3.0), 2, [2])
        assert cfg == NetworkConfig(4, (2, 3), 2, (2,))
        assert type(cfg.m_alpha) is int and type(cfg.n_alpha[0]) is int

    def test_json_roundtrip(self):
        data = {"M_alpha": 10, "N_alpha": [4, 6, 6], "M_beta": 13, "N_beta": [3, 6]}
        cfg = NetworkConfig.from_dict(data)
        assert cfg.to_dict() == data
        with pytest.raises(ConfigError, match="missing key"):
            NetworkConfig.from_dict({"M_alpha": 1})

    def test_dof_string_grammar(self):
        dof = DofAllocation.parse("3,3,3,3;2,2,2")
        assert dof.d_alpha == (3, 3, 3, 3) and dof.d_beta == (2, 2, 2)
        assert dof.format() == "3,3,3,3;2,2,2"
        with pytest.raises(ConfigError):
            DofAllocation.parse("1,2")
        with pytest.raises(ConfigError):
            DofAllocation.parse("1;2;3")
        with pytest.raises(ConfigError):
            DofAllocation.parse("1,x;2")

    @given(st.lists(st.integers(0, 9), min_size=1, max_size=5),
           st.lists(st.integers(0, 9), min_size=1, max_size=5))
    def test_dof_string_roundtrip(self, da, db):
        dof = DofAllocation(tuple(da), tuple(db))
        assert DofAllocation.parse(dof.format()) == dof


class TestSampling:
    def test_deterministic_per_stream(self):
        a = sample_channels(SIM, RngStream(42, 3))
        b = sample_channels(SIM, RngStream(42, 3))
        assert all(np.array_equal(x, y) for x, y in zip(a.h_alpha, b.h_alpha))
        assert np.array_equal(a.g_bs, b.g_bs)
        c = sample_channels(SIM, RngStream(42, 4))
        assert not np.array_equal(a.g_bs, c.g_bs)

    def test_simulation_network_shapes(self):
        ch = sample_channels(SIM, RngStream(0, 0))
        ch.check_shapes(SIM)
        assert ch.h_alpha[0].shape == (8, 12)
        assert ch.g_bs.shape == (18, 12)
        assert ch.g_cross[3][2].shape == (8, 4)
        assert ch.h_beta[1].shape == (18, 4)

    def test_moments(self):
        # 1e5 entries: law-of-large-numbers bounds on mean and variance
        cfg = NetworkConfig(100, tuple([100] * 10), 100, tuple([100] * 4))
        ch = sample_channels(cfg, RngStream(7, 0))
        entries = np.concatenate([m.ravel() for m in ch.h_alpha])[:100_000]
        assert entries.size == 100_000
        assert abs(entries.mean()) < 0.02
        assert 0.98 <= np.mean(np.abs(entries) ** 2) <= 1.02

    def test_channels_are_read_only(self):
        ch = sample_channels(SIM, RngStream(1, 0))
        with pytest.raises(ValueError):
            ch.h_alpha[0][0, 0] = 0


def test_rng_stream_reproducibility():
    g1 = RngStream(123, 5).generator().standard_normal(8)
    g2 = RngStream(123, 5).generator().standard_normal(8)
    g3 = RngStream(123, 6).generator().standard_normal(8)
    assert np.array_equal(g1, g2)
    assert not np.array_equal(g1, g3)
    assert RngStream(123, 5).shifted(2) == RngStream(123, 7)


def test_rng_stream_rejects_bad_seeds():
    for bad in (-1, 1.5, "3", True, None):
        with pytest.raises(ConfigError, match="seed"):
            RngStream(bad, 0)
        with pytest.raises(ConfigError, match="stream_index"):
            RngStream(0, bad)
    assert RngStream(np.int64(3), np.uint8(2)) == RngStream(3, 2)
    assert RngStream(0, 0).shifted(1) == RngStream(0, 1)
    # an offset is never truncated: 1.7 is not stream 1
    for bad in (1.7, True, "1"):
        with pytest.raises(ConfigError, match="offset"):
            RngStream(0, 0).shifted(bad)
