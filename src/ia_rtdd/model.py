"""Network/stream configuration types and channel sampling.

Conventions used throughout the package:

* cell alpha is the downlink cell: its base station has ``m_alpha`` antennas
  and serves K users with ``n_alpha[k]`` antennas each;
* cell beta is the uplink cell: L users with ``n_beta[l]`` antennas each
  transmit to a base station with ``m_beta`` antennas;
* channel matrices are complex with i.i.d. CN(0, 1) entries, realized as
  independent real/imaginary Gaussians of variance 1/2 each;
* all types are immutable after construction and all operations are pure,
  so they are safe to call from concurrent workers.
"""

from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .errors import ConfigError

# Bound on a cell's antenna total (M, or the sum of its N).  Below it every
# stream sum, product of the two cells' sums and sum of d(N - d) in the
# search's int64 arrays (`feasibility._allocation_blocks`, `_precheck`) stays
# under 2^62, so they cannot wrap.
MAX_CELL_ANTENNAS = 1 << 31
# Bound on the entries of any one array that the network or the allocation
# sizes: a channel draw, a stage-1 covariance stack, a stage-2 stack, a
# single-cell SVD factor, the alignment matrix, a subset-sum table.  Larger
# inputs are refused before the array is allocated.
MAX_ARRAY_ENTRIES = 1 << 26
# What one small matrix costs beyond its entries, in 16-byte entries: under
# tracemalloc a draw of 512 + 512 one-antenna users holds 152 bytes per
# 1 x 1 matrix (numpy 2.4, CPython 3.11), 136 of them beyond its one entry.
_ARRAY_OVERHEAD_ENTRIES = 9
# Entries of one run of whole channel matrices that `_draw` interleaves at
# once, unless one matrix alone has more.
_RUN_ENTRIES = 1 << 10


def _guard_entries(entries, what, arrays=0):
    """Raise `ConfigError` when ``what`` would hold more than
    MAX_ARRAY_ENTRIES entries, its ``arrays`` separate matrices charged
    _ARRAY_OVERHEAD_ENTRIES each on top (one large array's overhead is not
    worth charging)."""
    charged = entries + arrays * _ARRAY_OVERHEAD_ENTRIES
    if charged > MAX_ARRAY_ENTRIES:
        overhead = ("" if entries > MAX_ARRAY_ENTRIES else
                    f" in {arrays} arrays, {charged} with the per-array overhead")
        raise ConfigError(f"{what} would hold {entries} entries{overhead}, more "
                          f"than the limit of 2^26 per array")


def _as_int(value, name, low=None):
    """``value`` as a Python int of at least ``low`` (when given); bools and
    non-integral values are rejected."""
    try:
        out = int(value)
    except (TypeError, ValueError, OverflowError):
        out = None
    if out is None or out != value or isinstance(value, (bool, np.bool_)):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if low is not None and out < low:
        raise ConfigError(f"{name} must be >= {low}, got {out}")
    return out


def _plain_number(text, kind=int):
    """``kind(text)``, refusing ``_`` and non-ASCII text (digit separators,
    Unicode digits and spaces), which int and float would read."""
    if "_" in text or not text.isascii():
        raise ValueError(f"invalid {kind.__name__} value: {text!r}")
    return kind(text)


def _as_int_tuple(values, name, low):
    """``values`` as a tuple of `_as_int` entries, each named ``name[i]``."""
    if isinstance(values, str) or not hasattr(values, "__iter__"):
        raise ConfigError(
            f"{name} must be a sequence of integers, got {values!r}")
    return tuple(_as_int(v, f"{name}[{i + 1}]", low) for i, v in enumerate(values))


@dataclass(frozen=True)
class NetworkConfig:
    """Antenna counts of both base stations and all served users."""

    m_alpha: int
    n_alpha: tuple
    m_beta: int
    n_beta: tuple

    def __post_init__(self):
        object.__setattr__(self, "m_alpha", _as_int(self.m_alpha, "M_alpha", 1))
        object.__setattr__(self, "m_beta", _as_int(self.m_beta, "M_beta", 1))
        object.__setattr__(self, "n_alpha", _as_int_tuple(self.n_alpha, "N_alpha", 1))
        object.__setattr__(self, "n_beta", _as_int_tuple(self.n_beta, "N_beta", 1))
        for name, users in (("N_alpha", self.n_alpha), ("N_beta", self.n_beta)):
            if not users:
                raise ConfigError(f"{name} must hold at least one user")
        for name, total in (("M_alpha", self.m_alpha), ("M_beta", self.m_beta),
                            ("the sum of N_alpha", sum(self.n_alpha)),
                            ("the sum of N_beta", sum(self.n_beta))):
            if total >= MAX_CELL_ANTENNAS:
                raise ConfigError(f"{name} must be below 2^31, got {total}")

    @property
    def num_alpha(self):
        """Number of downlink users K."""
        return len(self.n_alpha)

    @property
    def num_beta(self):
        """Number of uplink users L."""
        return len(self.n_beta)

    @classmethod
    def from_dict(cls, data):
        """Build from the JSON object form {"M_alpha", "N_alpha", "M_beta", "N_beta"}."""
        if not isinstance(data, dict):
            raise ConfigError(
                f"network config JSON must be an object, got {type(data).__name__}")
        try:
            return cls(data["M_alpha"], data["N_alpha"], data["M_beta"], data["N_beta"])
        except KeyError as exc:
            raise ConfigError(f"network config JSON missing key {exc}") from None

    def to_dict(self):
        return {
            "M_alpha": self.m_alpha,
            "N_alpha": list(self.n_alpha),
            "M_beta": self.m_beta,
            "N_beta": list(self.n_beta),
        }


@dataclass(frozen=True)
class DofAllocation:
    """Per-user stream counts for both cells.

    A zero entry marks an inactive user: it contributes no rows, columns, or
    power anywhere downstream.
    """

    d_alpha: tuple
    d_beta: tuple

    def __post_init__(self):
        object.__setattr__(self, "d_alpha", _as_int_tuple(self.d_alpha, "d_alpha", 0))
        object.__setattr__(self, "d_beta", _as_int_tuple(self.d_beta, "d_beta", 0))

    @property
    def sum_alpha(self):
        return sum(self.d_alpha)

    @property
    def sum_beta(self):
        return sum(self.d_beta)

    @property
    def total(self):
        return self.sum_alpha + self.sum_beta

    @classmethod
    def parse(cls, text):
        """Parse the "3,3,3,3;2,2,2" string form (alpha list ; beta list)."""
        parts = text.split(";")
        if len(parts) != 2:
            raise ConfigError(
                f"stream allocation string needs exactly one ';', got {text!r}")
        try:
            d_alpha, d_beta = (tuple(map(_plain_number, p.split(","))) for p in parts)
        except ValueError:
            raise ConfigError(f"could not parse stream allocation {text!r}: each side "
                              f"is a list of integers, no entry empty") from None
        return cls(d_alpha, d_beta)

    def format(self):
        return ",".join(str(d) for d in self.d_alpha) + ";" + \
            ",".join(str(d) for d in self.d_beta)


def validate_trials(trials):
    """Require at least one Monte-Carlo trial or channel draw; return the
    count as a Python int."""
    return _as_int(trials, "trials", 1)


def validate_config(config, dof):
    """Check that an allocation is dimensioned for a network; return the pair.

    Raises `ConfigError` naming the offending field on length mismatch or
    when a user is asked for more streams than it has antennas.
    """
    cells = (("alpha", "downlink", dof.d_alpha, config.n_alpha),
             ("beta", "uplink", dof.d_beta, config.n_beta))
    for cell, link, ds, ns in cells:
        if len(ds) != len(ns):
            raise ConfigError(f"d_{cell} has {len(ds)} entries but the network has "
                              f"{len(ns)} {link} users")
    for cell, _, ds, ns in cells:
        for i, (d, n) in enumerate(zip(ds, ns)):
            if d > n:
                raise ConfigError(
                    f"d_{cell}[{i + 1}] = {d} exceeds N_{cell}[{i + 1}] = {n}")
    return config, dof


@dataclass(frozen=True)
class RngStream:
    """Named random stream; identical (seed, stream_index) reproduce identical draws."""

    seed: int
    stream_index: int = 0

    def __post_init__(self):
        for name in ("seed", "stream_index"):
            object.__setattr__(self, name, _as_int(getattr(self, name), name, 0))

    def generator(self):
        seq = np.random.SeedSequence(entropy=self.seed,
                                     spawn_key=(self.stream_index,))
        return np.random.default_rng(seq)

    def shifted(self, offset):
        """Stream with the same seed and stream_index moved by ``offset``."""
        return RngStream(self.seed, self.stream_index + _as_int(offset, "offset"))


def _freeze(a):
    a.setflags(write=False)
    return a


def complex_gaussian(rng, rows, cols):
    """CN(0,1) i.i.d. matrix: real and imaginary parts N(0, 1/2) each."""
    re = rng.standard_normal((rows, cols))
    im = rng.standard_normal((rows, cols))
    return (re + 1j * im) * np.sqrt(0.5)


@dataclass(frozen=True)
class ChannelSet:
    """One realization of all direct and cross channels.

    * ``h_alpha[k]``: N_alpha_k x M_alpha, BS alpha -> user (alpha, k)
    * ``g_cross[k][l]``: N_alpha_k x N_beta_l, user (beta, l) -> user (alpha, k)
    * ``h_beta[l]``: M_beta x N_beta_l, user (beta, l) -> BS beta
    * ``g_bs``: M_beta x M_alpha, BS alpha -> BS beta
    """

    h_alpha: tuple
    g_cross: tuple
    h_beta: tuple
    g_bs: np.ndarray = field(repr=False)

    @property
    def config(self):
        """The network whose antenna counts these channels have."""
        return NetworkConfig(self.h_alpha[0].shape[1],
                             tuple(h.shape[0] for h in self.h_alpha),
                             self.h_beta[0].shape[0],
                             tuple(h.shape[1] for h in self.h_beta))


def _channel_shapes(config):
    """``(rows, cols)`` of every channel matrix of ``config``, in draw order:
    direct alpha links, cross links row-major, direct beta links, BS-to-BS."""
    for n in config.n_alpha:
        yield n, config.m_alpha
    for na in config.n_alpha:
        for nb in config.n_beta:
            yield na, nb
    for nb in config.n_beta:
        yield config.m_beta, nb
    yield config.m_beta, config.m_alpha


def _draw_entries(config):
    """Entries of one `ChannelSet` of ``config``."""
    sum_a, sum_b = sum(config.n_alpha), sum(config.n_beta)
    return sum_a * (config.m_alpha + sum_b) + config.m_beta * (sum_b + config.m_alpha)


def _draw_arrays(config):
    """Matrices of one `ChannelSet` of ``config``."""
    return config.num_alpha * (1 + config.num_beta) + config.num_beta + 1


def _guard_channels(config):
    """Raise `ConfigError` when one `ChannelSet` of ``config`` would exceed
    the entry bound, each of its matrices charged as a separate array."""
    _guard_entries(_draw_entries(config), "the channel draw", arrays=_draw_arrays(config))


def _draw(config, rng):
    """Every channel entry of one draw, in draw order, as one read-only
    complex array, from one `standard_normal` call.

    Each matrix is drawn as its real block, then its imaginary block, into
    the floats that will hold its own complex entries; those are then
    interleaved in place as ``(re + 1j * im) * sqrt(1/2)``, in runs of
    whole matrices of at most _RUN_ENTRIES entries (a larger matrix is a run
    of its own).  So the values are those of one `complex_gaussian` call per
    matrix, and the temporaries stay within a run.
    """
    sizes = np.array([rows * cols for rows, cols in _channel_shapes(config)])
    ends = np.cumsum(sizes)
    out = np.empty(int(ends[-1]), dtype=np.complex128)
    floats = out.view(np.float64)
    rng.generator().standard_normal(out=floats)
    lo = 0
    while lo < len(sizes):
        start = int(ends[lo] - sizes[lo])
        hi = max(lo + 1, int(np.searchsorted(ends, start + _RUN_ENTRIES, "right")))
        stop = int(ends[hi - 1])
        if hi == lo + 1:
            re, im = floats[2 * start:start + stop], floats[start + stop:2 * stop]
        else:
            # matrix i starts at entry s_i: its entry j's real part sits at
            # float j + s_i and its imaginary part sizes[i] floats further on
            run = sizes[lo:hi]
            at = np.arange(start, stop) + np.repeat(ends[lo:hi] - run, run)
            re, im = floats[at], floats[at + np.repeat(run, run)]
        z = 1j * im                      # (re + 1j * im) * sqrt(1/2), in place
        z += re
        np.multiply(z, np.sqrt(0.5), out=out[start:stop])
        del z                            # before the next run's 1j * im
        lo = hi
    return _freeze(out)


def _views(config, flat):
    """The four `ChannelSet` fields ``(h_alpha, g_cross, h_beta, g_bs)`` of
    the draws whose entries lie in draw order on the last axis of ``flat``
    (`_draw`'s layout), as reshaped views of ``flat`` that keep its leading
    axes."""
    lead = flat.shape[:-1]
    starts = accumulate((rows * cols for rows, cols in _channel_shapes(config)),
                        initial=0)
    mats = (flat[..., a:a + rows * cols].reshape(lead + (rows, cols))
            for (rows, cols), a in zip(_channel_shapes(config), starts))
    h_alpha = tuple(next(mats) for _ in config.n_alpha)
    g_cross = tuple(tuple(next(mats) for _ in config.n_beta) for _ in config.n_alpha)
    h_beta = tuple(next(mats) for _ in config.n_beta)
    return h_alpha, g_cross, h_beta, next(mats)


def sample_channels(config, rng):
    """Draw one i.i.d. CN(0,1) realization of every channel matrix.

    Draw order is fixed (direct alpha links, cross links row-major, direct
    beta links, BS-to-BS link) so a given `RngStream` always yields a
    bit-identical `ChannelSet`.  All entries come from one `standard_normal`
    call (`_draw`) and every matrix is a read-only view of that one array
    (`_views`); the values are bit-identical to one `complex_gaussian` call
    per matrix in draw order.
    """
    _guard_channels(config)
    return ChannelSet(*_views(config, _draw(config, rng)))
