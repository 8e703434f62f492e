"""Network/stream configuration types, channel sampling, and cross-link block partition.

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

import numpy as np

from .errors import ConfigError


def _as_int(value, name):
    """``value`` as a Python int; bools and non-integral values are rejected."""
    try:
        out = int(value)
    except (TypeError, ValueError, OverflowError):
        out = None
    if out is None or out != value or isinstance(value, (bool, np.bool_)):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return out


def _as_int_tuple(values, name):
    if isinstance(values, str) or not hasattr(values, "__iter__"):
        raise ConfigError(
            f"{name} must be a sequence of integers, got {values!r}")
    return tuple(_as_int(v, f"{name}[{i + 1}]") for i, v in enumerate(values))


@dataclass(frozen=True)
class NetworkConfig:
    """Antenna counts of both base stations and all served users."""

    m_alpha: int
    n_alpha: tuple
    m_beta: int
    n_beta: tuple

    def __post_init__(self):
        object.__setattr__(self, "m_alpha", _as_int(self.m_alpha, "M_alpha"))
        object.__setattr__(self, "m_beta", _as_int(self.m_beta, "M_beta"))
        object.__setattr__(self, "n_alpha", _as_int_tuple(self.n_alpha, "N_alpha"))
        object.__setattr__(self, "n_beta", _as_int_tuple(self.n_beta, "N_beta"))
        if self.m_alpha < 1:
            raise ConfigError(f"M_alpha must be >= 1, got {self.m_alpha}")
        if self.m_beta < 1:
            raise ConfigError(f"M_beta must be >= 1, got {self.m_beta}")
        if len(self.n_alpha) < 1:
            raise ConfigError("N_alpha must hold at least one user")
        if len(self.n_beta) < 1:
            raise ConfigError("N_beta must hold at least one user")
        for i, n in enumerate(self.n_alpha):
            if n < 1:
                raise ConfigError(f"N_alpha[{i + 1}] must be >= 1, got {n}")
        for i, n in enumerate(self.n_beta):
            if n < 1:
                raise ConfigError(f"N_beta[{i + 1}] must be >= 1, got {n}")

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
        object.__setattr__(self, "d_alpha", _as_int_tuple(self.d_alpha, "d_alpha"))
        object.__setattr__(self, "d_beta", _as_int_tuple(self.d_beta, "d_beta"))
        for i, d in enumerate(self.d_alpha):
            if d < 0:
                raise ConfigError(f"d_alpha[{i + 1}] must be >= 0, got {d}")
        for i, d in enumerate(self.d_beta):
            if d < 0:
                raise ConfigError(f"d_beta[{i + 1}] must be >= 0, got {d}")

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
            d_alpha = tuple(int(v.strip()) for v in parts[0].split(",") if v.strip() != "")
            d_beta = tuple(int(v.strip()) for v in parts[1].split(",") if v.strip() != "")
        except ValueError:
            raise ConfigError(f"could not parse stream allocation {text!r}") from None
        if not d_alpha or not d_beta:
            raise ConfigError(f"both sides of {text!r} need at least one entry")
        return cls(d_alpha, d_beta)

    def format(self):
        return ",".join(str(d) for d in self.d_alpha) + ";" + \
            ",".join(str(d) for d in self.d_beta)


def validate_trials(trials):
    """Require at least one Monte-Carlo trial or channel draw; return the
    count as a Python int."""
    trials = _as_int(trials, "trials")
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    return trials


def validate_config(config, dof):
    """Check that an allocation is dimensioned for a network; return the pair.

    Raises `ConfigError` naming the offending field on length mismatch or
    when a user is asked for more streams than it has antennas.
    """
    if len(dof.d_alpha) != config.num_alpha:
        raise ConfigError(
            f"d_alpha has {len(dof.d_alpha)} entries but the network has "
            f"{config.num_alpha} downlink users")
    if len(dof.d_beta) != config.num_beta:
        raise ConfigError(
            f"d_beta has {len(dof.d_beta)} entries but the network has "
            f"{config.num_beta} uplink users")
    for i, (d, n) in enumerate(zip(dof.d_alpha, config.n_alpha)):
        if d > n:
            raise ConfigError(f"d_alpha[{i + 1}] = {d} exceeds N_alpha[{i + 1}] = {n}")
    for i, (d, n) in enumerate(zip(dof.d_beta, config.n_beta)):
        if d > n:
            raise ConfigError(f"d_beta[{i + 1}] = {d} exceeds N_beta[{i + 1}] = {n}")
    return config, dof


@dataclass(frozen=True)
class RngStream:
    """Named random stream; identical (seed, stream_index) reproduce identical draws."""

    seed: int
    stream_index: int = 0

    def __post_init__(self):
        for name in ("seed", "stream_index"):
            value = _as_int(getattr(self, name), name)
            if value < 0:
                raise ConfigError(f"{name} must be >= 0, got {value}")
            object.__setattr__(self, name, value)

    def generator(self):
        seq = np.random.SeedSequence(entropy=self.seed,
                                     spawn_key=(self.stream_index,))
        return np.random.default_rng(seq)

    def shifted(self, offset):
        """Stream with the same seed and stream_index moved by ``offset``."""
        return RngStream(self.seed, self.stream_index + int(offset))


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

    def check_shapes(self, config):
        if len(self.h_alpha) != config.num_alpha or len(self.g_cross) != config.num_alpha:
            raise ConfigError("channel set has the wrong number of downlink users")
        if len(self.h_beta) != config.num_beta:
            raise ConfigError("channel set has the wrong number of uplink users")
        for k, n in enumerate(config.n_alpha):
            if self.h_alpha[k].shape != (n, config.m_alpha):
                raise ConfigError(f"H_alpha[{k + 1}] has shape {self.h_alpha[k].shape}, "
                                  f"expected {(n, config.m_alpha)}")
            if len(self.g_cross[k]) != config.num_beta:
                raise ConfigError(f"G row {k + 1} has the wrong number of uplink users")
            for l, nb in enumerate(config.n_beta):
                if self.g_cross[k][l].shape != (n, nb):
                    raise ConfigError(
                        f"G[{k + 1}][{l + 1}] has shape {self.g_cross[k][l].shape}, "
                        f"expected {(n, nb)}")
        for l, nb in enumerate(config.n_beta):
            if self.h_beta[l].shape != (config.m_beta, nb):
                raise ConfigError(f"H_beta[{l + 1}] has shape {self.h_beta[l].shape}, "
                                  f"expected {(config.m_beta, nb)}")
        if self.g_bs.shape != (config.m_beta, config.m_alpha):
            raise ConfigError(f"G_bs has shape {self.g_bs.shape}, "
                              f"expected {(config.m_beta, config.m_alpha)}")
        return self


def sample_channels(config, rng):
    """Draw one i.i.d. CN(0,1) realization of every channel matrix.

    Draw order is fixed (direct alpha links, cross links row-major, direct
    beta links, BS-to-BS link) so a given `RngStream` always yields a
    bit-identical `ChannelSet`.
    """
    g = rng.generator()
    h_alpha = tuple(_freeze(complex_gaussian(g, n, config.m_alpha))
                    for n in config.n_alpha)
    g_cross = tuple(
        tuple(_freeze(complex_gaussian(g, na, nb)) for nb in config.n_beta)
        for na in config.n_alpha)
    h_beta = tuple(_freeze(complex_gaussian(g, config.m_beta, nb))
                   for nb in config.n_beta)
    g_bs = _freeze(complex_gaussian(g, config.m_beta, config.m_alpha))
    return ChannelSet(h_alpha, g_cross, h_beta, g_bs)


@dataclass(frozen=True)
class CrossBlockPartition:
    """Four-block split of a cross channel at the (d_row, d_col) corner.

    ``g1`` is d_row x d_col, ``g2`` d_row x (cols-d_col), ``g3``
    (rows-d_row) x d_col, ``g4`` the remainder; stacking [[g1 g2], [g3 g4]]
    reproduces the input exactly.
    """

    g1: np.ndarray
    g2: np.ndarray
    g3: np.ndarray
    g4: np.ndarray

    def assemble(self):
        return np.block([[self.g1, self.g2], [self.g3, self.g4]])


def partition_cross(g, d_row, d_col):
    """Split a cross channel into the four corner blocks; lossless, views only."""
    rows, cols = g.shape
    if not 0 <= d_row <= rows:
        raise ConfigError(f"row split {d_row} out of range for {rows} rows")
    if not 0 <= d_col <= cols:
        raise ConfigError(f"column split {d_col} out of range for {cols} columns")
    return CrossBlockPartition(
        g1=g[:d_row, :d_col],
        g2=g[:d_row, d_col:],
        g3=g[d_row:, :d_col],
        g4=g[d_row:, d_col:],
    )
