"""Generic block-fading MIMO channel model within a single block.

The channel between transmit antenna t and receive antenna r is h_{r,t} =
Z_{r,t} s_{r,t}, where Z_{r,t} is a deterministic N x Q coloring block and
s_{r,t} ~ CN(0, I_Q). The noiseless output stacks as y_bar = B s with B
block-diagonal over receive antennas and B_r = (diag(x_1) Z_{r,1} ...
diag(x_T) Z_{r,T}); entrywise, y_r[i] = sum_t x_t[i] h_{r,t}[i]. A coloring
is a complex (R, T_eff, N, Q) array, Z[r, t] = Z_{r+1,t+1}, shape-checked by
require_coloring; generic and constant block fading differ only in it.
Everything here is a pure function of (inputs, seed); values, the colorings
made here included, are read-only after construction and safe to share
across threads.
Independent realizations may be evaluated concurrently with distinct seeds.

Vector stacking order is receive-major then transmit throughout: s =
(s_{1,1}, ..., s_{1,T}, s_{2,1}, ...), y = (y_1, ..., y_R). This is the one
canonical layout. The input x is always the whole vector, pilots included.
A cell's pilots are boolean masks over its (antenna, face) grid, and jacobian
and identify index x and its derivative columns with the 0-based flat
positions t N + i read off them; 1-based sets appear only in printed output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "InvalidConfigurationError",
    "Dims",
    "regime_chains",
    "require_coloring",
    "standard_complex_gaussian",
    "complex_gaussian_draws",
    "random_coloring",
    "constant_model",
    "channel_vectors",
    "dims_to_dict",
    "complex_to_pairs",
    "coloring_to_dict",
]


class InvalidConfigurationError(ValueError):
    """Raised when a problem-size tuple or input violates its preconditions."""


def _require_positive(**sizes):
    """Raise InvalidConfigurationError naming the first of sizes that is not a positive int (a bool is not)."""
    for name, v in sizes.items():
        if isinstance(v, bool) or not isinstance(v, int) or v < 1:
            raise InvalidConfigurationError(f"{name} must be a positive integer, got {v!r}")


@dataclass(frozen=True)
class Dims:
    """Problem size: T transmit, R receive antennas, block length N, rank Q.

    T_eff is the number of effectively used transmit antennas (the rest are
    silenced); it must satisfy 1 <= T_eff <= min(T, R).
    """

    T: int
    R: int
    N: int
    Q: int
    T_eff: int

    def __post_init__(self):
        _require_positive(T=self.T, R=self.R, N=self.N, Q=self.Q, T_eff=self.T_eff)
        if self.Q > self.N:
            raise InvalidConfigurationError(f"Q={self.Q} must not exceed N={self.N}")
        if self.T_eff > min(self.T, self.R):
            raise InvalidConfigurationError(
                f"T_eff={self.T_eff} must not exceed min(T, R)={min(self.T, self.R)}"
            )

    @staticmethod
    def create(T, R, N, Q, T_eff=None):
        """Build a Dims; T_eff defaults to min(T, R) capped so that T_eff*Q < N, once the four sizes are checked."""
        _require_positive(T=T, R=R, N=N, Q=Q)
        if T_eff is None:
            T_eff = min(T, R, max(1, (N - 1) // Q))
        return Dims(T=T, R=R, N=N, Q=Q, T_eff=T_eff)

    @property
    def rx_needed(self) -> int:
        """ceil(T_eff (N-1) / (N - T_eff Q)); receive antennas beyond this do not help."""
        d = self.N - self.T_eff * self.Q
        if d <= 0:
            raise InvalidConfigurationError("rx_needed requires N > T_eff*Q")
        return -(-self.T_eff * (self.N - 1) // d)

    @property
    def in_proof_regime(self) -> bool:
        """True when N > T_eff*Q and T_eff <= R <= rx_needed."""
        return self.regime_violation() is None

    def regime_violation(self):
        """Reason string if the dims fall outside the constructive regime, else None."""
        if self.N <= self.T_eff * self.Q:
            return f"requires N > T_eff*Q, got N={self.N} <= {self.T_eff * self.Q}"
        if self.R < self.T_eff:
            return f"requires R >= T_eff, got R={self.R} < T_eff={self.T_eff}"
        if self.R > self.rx_needed:
            return f"requires R <= {self.rx_needed}, got R={self.R}"
        return None

    def require_regime(self):
        reason = self.regime_violation()
        if reason is not None:
            raise InvalidConfigurationError(f"dims {self} outside valid regime: {reason}")

    def with_rx(self, R: int) -> "Dims":
        return Dims(self.T, R, self.N, self.Q, self.T_eff)


def regime_chains(n_max: int):
    """The top cell, R = rx_needed, of each (N, Q, T_eff) chain of the constructive regime.

    A chain holds the cells R = T_eff..rx_needed of one (N, Q, T_eff) with
    N <= n_max and T = T_eff. Chains come in the order N, Q, T_eff, each ascending.
    """
    for N in range(2, n_max + 1):
        for Q in range(1, N):
            for T_eff in range(1, N):
                if T_eff * Q >= N:
                    continue
                probe = Dims(T=T_eff, R=T_eff, N=N, Q=Q, T_eff=T_eff)
                yield probe.with_rx(probe.rx_needed)


def require_coloring(Z, dims: Dims):
    """Raise InvalidConfigurationError unless Z is a coloring of dims, of shape (R, T_eff, N, Q)."""
    if np.shape(Z) != (dims.R, dims.T_eff, dims.N, dims.Q):
        raise InvalidConfigurationError(
            f"coloring grid {np.shape(Z)} does not conform to "
            f"(R, T_eff, N, Q) = ({dims.R}, {dims.T_eff}, {dims.N}, {dims.Q})"
        )


def standard_complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    """CN(0, 1) entries: independent real/imaginary parts of variance 1/2 each."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2.0)


def complex_gaussian_draws(rng: np.random.Generator, count: int, *sizes: int) -> list:
    """count consecutive draws of standard_complex_gaussian(rng, size) for each size in turn.

    One standard_normal call reads the same stretch of the generator's stream
    as the per-size calls would, in the same order, so row j of each returned
    (count, size) array holds exactly what draw j would have made.
    """
    g = rng.standard_normal((count, 2 * sum(sizes)))
    out, at = [], 0
    for size in sizes:
        out.append((g[:, at : at + size] + 1j * g[:, at + size : at + 2 * size]) / math.sqrt(2.0))
        at += 2 * size
    return out


def random_coloring(dims: Dims, seed: int | np.random.SeedSequence) -> np.ndarray:
    """Generic coloring draw: i.i.d. CN(0,1) entries over dims.T_eff antennas, read-only."""
    rng = np.random.default_rng(seed)
    Z = standard_complex_gaussian(rng, (dims.R, dims.T_eff, dims.N, dims.Q))
    Z.setflags(write=False)
    return Z


def constant_model(dims: Dims) -> np.ndarray:
    """Read-only coloring of the constant block-fading model: every block the all-one N-vector.

    Only defined for Q = 1 (one fading variable per antenna pair).
    """
    if dims.Q != 1:
        raise InvalidConfigurationError(f"constant model requires Q=1, got Q={dims.Q}")
    Z = np.ones((dims.R, dims.T_eff, dims.N, 1), dtype=complex)
    Z.setflags(write=False)
    return Z


def split_tx(x: np.ndarray, dims: Dims) -> np.ndarray:
    """View the stacked input as per-antenna rows of length N."""
    if x.shape != (dims.T_eff * dims.N,):
        raise InvalidConfigurationError(
            f"x must have length T_eff*N = {dims.T_eff * dims.N}, got {x.shape}"
        )
    return x.reshape(dims.T_eff, dims.N)


def split_fading(s: np.ndarray, dims: Dims) -> np.ndarray:
    """View the stacked fading vector as an (R, T_eff, Q) array."""
    if s.shape != (dims.R * dims.T_eff * dims.Q,):
        raise InvalidConfigurationError(
            f"s must have length R*T_eff*Q = {dims.R * dims.T_eff * dims.Q}, got {s.shape}"
        )
    return s.reshape(dims.R, dims.T_eff, dims.Q)


def channel_vectors(Z: np.ndarray, S: np.ndarray) -> np.ndarray:
    """The channel vectors h_{r,t} = Z_{r,t} s_{r,t}, from one batched matmul.

    Z is an (R, T_eff, N, Q) coloring, or a stack of them with the leading
    axes of S; S holds stacked fading vectors, shape (..., R T_eff Q).
    Returns (..., R, T_eff, N).
    """
    R, Teff, _, Q = Z.shape[-4:]
    return np.matmul(Z, S.reshape(*S.shape[:-1], R, Teff, Q, 1))[..., 0]


def complex_to_pairs(a: np.ndarray):
    """JSON form of a complex array: the same nesting, each entry an [re, im] pair."""
    return np.stack([a.real, a.imag], axis=-1).tolist()


def dims_to_dict(dims: Dims) -> dict:
    return {"T": dims.T, "R": dims.R, "N": dims.N, "Q": dims.Q, "T_eff": dims.T_eff}


def coloring_to_dict(Z: np.ndarray) -> dict:
    """JSON form: complex entries as [re, im] pairs, blocks indexed [r][t][i][q]."""
    n_rx, n_tx, block_len, rank = Z.shape
    return {"n_rx": n_rx, "n_tx": n_tx, "block_len": block_len, "rank": rank, "blocks": complex_to_pairs(Z)}
