import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ia_rtdd import (ChannelSet, ConfigError, DofAllocation, NetworkConfig,
                     RngStream, sample_channels, validate_config)
from ia_rtdd.model import _draw, _freeze, _views

from oracles import per_matrix_channels
from test_feasibility import _IRREGULAR_CASES

SIM = NetworkConfig(12, (8, 8, 8, 8), 18, (4, 4, 4))
EX1 = NetworkConfig(10, (4, 6, 6), 13, (3, 6))


def _matrices(channels):
    """Every matrix of a draw, in draw order."""
    return (list(channels.h_alpha) + [g for row in channels.g_cross for g in row]
            + list(channels.h_beta) + [channels.g_bs])


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

    @pytest.mark.parametrize("args, message", [
        ((2, (2,), 0, (2,)), "M_beta must be >= 1, got 0"),
        ((2, (), 2, (2,)), "N_alpha must hold at least one user"),
        ((2, (2,), 2, []), "N_beta must hold at least one user"),
        ((2, (2,), 2, (2, 0)), r"N_beta\[2\] must be >= 1, got 0"),
        ((2, 2, 2, (2,)), "N_alpha must be a sequence of integers, got 2"),
        ((2, (2,), 2, 2.0), "N_beta must be a sequence of integers, got 2.0"),
        # each field is converted and bounded before the next is read
        ((0, ("x",), 1, (1,)), "M_alpha must be >= 1, got 0")])
    def test_network_field_errors(self, args, message):
        with pytest.raises(ConfigError, match=message):
            NetworkConfig(*args)

    def test_uplink_allocation_errors(self):
        cfg = NetworkConfig(4, (2,), 4, (2, 3))
        with pytest.raises(ConfigError, match="d_beta has 1 entries but the "
                                              "network has 2 uplink users"):
            validate_config(cfg, DofAllocation((1,), (1,)))
        with pytest.raises(ConfigError, match=r"d_beta\[2\] = 4 exceeds N_beta\[2\] = 3"):
            validate_config(cfg, DofAllocation((1,), (1, 4)))

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
        for text in ("1,,1;1", ",1,1;1", "1,1;1,", ";1", "1;", " ;1"):
            with pytest.raises(ConfigError, match="no entry empty"):
                DofAllocation.parse(text)
        assert DofAllocation.parse(" 1 , 2 ;3") == DofAllocation((1, 2), (3,))
        # int() would read digit-group underscores and Unicode digits
        for text in ("1_0;1", "+1;\u0661", "1;\uff11", "1;1\u00a0"):
            with pytest.raises(ConfigError, match="list of integers"):
                DofAllocation.parse(text)
        assert DofAllocation.parse("+1;1") == DofAllocation((1,), (1,))
        with pytest.raises(ConfigError, match="must be >= 0"):
            DofAllocation.parse("-1;1")

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
        # SIM is (12,(8,8,8,8))x(18,(4,4,4)): every matrix, by user
        ch = sample_channels(SIM, RngStream(0, 0))
        assert [h.shape for h in ch.h_alpha] == [(8, 12)] * 4
        assert [h.shape for h in ch.h_beta] == [(18, 4)] * 3
        assert [[g.shape for g in row] for row in ch.g_cross] == [[(8, 4)] * 3] * 4
        assert ch.g_bs.shape == (18, 12)

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

    @pytest.mark.parametrize("name", ["SIM", "EX1", "irregular", "512+512",
                                      "stacked"])
    def test_one_draw_matches_per_matrix_draws(self, name):
        # one standard_normal call split into matrices: every matrix is
        # byte-equal to its own complex_gaussian call in draw order, and
        # read-only; runs of small matrices and 1x1 matrices included.
        # "stacked": the views of a frozen stack of three draws keep its
        # leading axis, draw t's matrices byte-equal to sample_channels'
        configs = {"SIM": [SIM], "EX1": [EX1],
                   "irregular": [cfg for cfg, _ in _IRREGULAR_CASES],
                   "512+512": [NetworkConfig(1, (1,) * 512, 1, (1,) * 512)],
                   "stacked": [SIM, EX1] + [cfg for cfg, _ in _IRREGULAR_CASES]}[name]
        for i, cfg in enumerate(configs):
            if name == "stacked":
                rng = RngStream(i, 7)
                flat = _freeze(np.stack([_draw(cfg, rng.shifted(t)) for t in range(3)]))
                views = _matrices(ChannelSet(*_views(cfg, flat)))
                assert all(np.shares_memory(v, flat) for v in views)
                want = [_matrices(sample_channels(cfg, rng.shifted(t))) for t in range(3)]
                assert all(len(w) == len(views) for w in want)
                pairs = [(v[t], m) for t in range(3) for v, m in zip(views, want[t])]
            else:
                got = sample_channels(cfg, RngStream(i, 7))
                want = per_matrix_channels(cfg, RngStream(i, 7))
                assert [len(row) for row in got.g_cross] == \
                    [len(row) for row in want.g_cross]
                assert len(_matrices(got)) == len(_matrices(want))
                pairs = zip(_matrices(got), _matrices(want))
            for a, b in pairs:
                assert a.shape == b.shape and a.dtype == b.dtype
                assert a.tobytes() == b.tobytes()
                assert not a.flags.writeable


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
