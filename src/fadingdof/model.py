"""Generic block-fading MIMO channel model within a single block.

The channel between transmit antenna t and receive antenna r is h_{r,t} =
Z_{r,t} s_{r,t}, where Z_{r,t} is a deterministic N x Q coloring block and
s_{r,t} ~ CN(0, I_Q). The noiseless output stacks as y_bar = B s with B
block-diagonal over receive antennas and B_r = (diag(x_1) Z_{r,1} ...
diag(x_T) Z_{r,T}). Everything here is a pure function of (inputs, seed);
values are immutable after construction and safe to share across threads.
Independent realizations may be evaluated concurrently with distinct seeds.

Vector stacking order is receive-major then transmit throughout: s =
(s_{1,1}, ..., s_{1,T}, s_{2,1}, ...), y = (y_1, ..., y_R). This is the one
canonical layout; index sets elsewhere in the package are 1-based and are
converted to 0-based exactly once, at this module's array boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "InvalidConfigurationError",
    "Dims",
    "regime_cells",
    "ColoringMatrix",
    "ChannelRealization",
    "standard_complex_gaussian",
    "random_coloring",
    "constant_model",
    "build_B",
    "sample_realization",
    "dims_to_dict",
    "dims_from_dict",
    "complex_to_pairs",
    "coloring_to_dict",
    "coloring_from_dict",
]


class InvalidConfigurationError(ValueError):
    """Raised when a problem-size tuple or input violates its preconditions."""


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
        for name in ("T", "R", "N", "Q", "T_eff"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, int) or v < 1:
                raise InvalidConfigurationError(f"{name} must be a positive integer, got {v!r}")
        if self.Q > self.N:
            raise InvalidConfigurationError(f"Q={self.Q} must not exceed N={self.N}")
        if self.T_eff > min(self.T, self.R):
            raise InvalidConfigurationError(
                f"T_eff={self.T_eff} must not exceed min(T, R)={min(self.T, self.R)}"
            )

    @staticmethod
    def create(T, R, N, Q, T_eff=None):
        """Build a Dims; T_eff defaults to min(T, R) capped so that T_eff*Q < N."""
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
        return replace(self, R=R)


def regime_cells(n_max: int):
    """All (T_eff, R, N, Q) in the constructive regime with N <= n_max, T = T_eff.

    Cells come in the order N, Q, T_eff, R, each ascending.
    """
    for N in range(2, n_max + 1):
        for Q in range(1, N):
            for T_eff in range(1, N):
                if T_eff * Q >= N:
                    continue
                probe = Dims(T=T_eff, R=T_eff, N=N, Q=Q, T_eff=T_eff)
                for R in range(T_eff, probe.rx_needed + 1):
                    yield Dims(T=T_eff, R=R, N=N, Q=Q, T_eff=T_eff)


@dataclass(frozen=True)
class ColoringMatrix:
    """Deterministic correlation structure: an R x T grid of N x Q blocks.

    ``blocks`` has shape (R, n_tx, N, Q). The stacked view places block
    (r, t) at rows r*N:(r+1)*N and columns t*Q:(t+1)*Q, receive-major.
    """

    blocks: np.ndarray

    def __post_init__(self):
        if self.blocks.ndim != 4:
            raise InvalidConfigurationError(
                f"blocks must be a (R, T, N, Q) array, got shape {self.blocks.shape}"
            )
        self.blocks.setflags(write=False)

    @property
    def n_rx(self) -> int:
        return self.blocks.shape[0]

    @property
    def n_tx(self) -> int:
        return self.blocks.shape[1]

    @property
    def block_len(self) -> int:
        return self.blocks.shape[2]

    @property
    def rank(self) -> int:
        return self.blocks.shape[3]

    def block(self, r: int, t: int) -> np.ndarray:
        """Block Z_{r,t} for 1-based antenna indices."""
        return self.blocks[r - 1, t - 1]

    @property
    def stacked(self) -> np.ndarray:
        """The (R*N, T*Q) stacked coloring matrix."""
        R, T, N, Q = self.blocks.shape
        return self.blocks.transpose(0, 2, 1, 3).reshape(R * N, T * Q)

    def require_conforms(self, dims: Dims):
        if self.blocks.shape != (dims.R, dims.T_eff, dims.N, dims.Q):
            raise InvalidConfigurationError(
                f"coloring grid {self.blocks.shape} does not conform to "
                f"(R, T_eff, N, Q) = ({dims.R}, {dims.T_eff}, {dims.N}, {dims.Q})"
            )


@dataclass(frozen=True)
class ChannelRealization:
    """One block's draw: y = sqrt(rho / T_eff) * y_bar + w with y_bar = B s."""

    dims: Dims
    rho: float
    s: np.ndarray
    x: np.ndarray
    w: np.ndarray
    y_bar: np.ndarray
    y: np.ndarray


def standard_complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    """CN(0, 1) entries: independent real/imaginary parts of variance 1/2 each."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2.0)


def random_coloring(dims: Dims, seed: int | np.random.SeedSequence) -> ColoringMatrix:
    """Generic coloring draw: i.i.d. CN(0,1) entries over dims.T_eff antennas."""
    rng = np.random.default_rng(seed)
    blocks = standard_complex_gaussian(rng, (dims.R, dims.T_eff, dims.N, dims.Q))
    return ColoringMatrix(blocks)


def constant_model(dims: Dims) -> ColoringMatrix:
    """Coloring of the constant block-fading model: every block the all-one N-vector.

    Only defined for Q = 1 (one fading variable per antenna pair).
    """
    if dims.Q != 1:
        raise InvalidConfigurationError(f"constant model requires Q=1, got Q={dims.Q}")
    blocks = np.ones((dims.R, dims.T_eff, dims.N, 1), dtype=complex)
    return ColoringMatrix(blocks)


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


def build_B(Z: ColoringMatrix, x: np.ndarray, dims: Dims) -> np.ndarray:
    """Assemble the (R*N, R*T_eff*Q) block-diagonal matrix B.

    Block r is the horizontal concatenation over t of diag(x_t) Z_{r,t}.
    """
    Z.require_conforms(dims)
    xt = split_tx(np.asarray(x, dtype=complex), dims)
    R, Teff, N, Q = dims.R, dims.T_eff, dims.N, dims.Q
    B = np.zeros((R * N, R * Teff * Q), dtype=complex)
    for r in range(R):
        # block[t] = diag(x_t) Z_{r,t}
        block = xt[:, :, None] * Z.blocks[r]
        B[r * N : (r + 1) * N, r * Teff * Q : (r + 1) * Teff * Q] = (
            block.transpose(1, 0, 2).reshape(N, Teff * Q)
        )
    return B


def sample_realization(Z: ColoringMatrix, dims: Dims, rho: float, seed: int) -> ChannelRealization:
    """Draw one block: s, w ~ CN(0, I); x ~ CN(0, I) (the Gaussian capacity input).

    The average-power constraint E||x||^2 <= T*N holds in expectation
    (E||x||^2 = T_eff*N); it is not enforced per draw. Deterministic under seed.
    """
    if rho <= 0:
        raise InvalidConfigurationError(f"rho must be positive, got {rho}")
    Z.require_conforms(dims)
    rng = np.random.default_rng(seed)
    s = standard_complex_gaussian(rng, dims.R * dims.T_eff * dims.Q)
    x = standard_complex_gaussian(rng, dims.T_eff * dims.N)
    w = standard_complex_gaussian(rng, dims.R * dims.N)
    y_bar = build_B(Z, x, dims) @ s
    y = math.sqrt(rho / dims.T_eff) * y_bar + w
    return ChannelRealization(dims=dims, rho=rho, s=s, x=x, w=w, y_bar=y_bar, y=y)


def complex_to_pairs(a: np.ndarray):
    """JSON form of a complex array: the same nesting, each entry an [re, im] pair."""
    return np.stack([a.real, a.imag], axis=-1).tolist()


def _pairs_to_complex(pairs) -> np.ndarray:
    arr = np.asarray(pairs, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def dims_to_dict(dims: Dims) -> dict:
    return {"T": dims.T, "R": dims.R, "N": dims.N, "Q": dims.Q, "T_eff": dims.T_eff}


def dims_from_dict(d: dict) -> Dims:
    return Dims(T=d["T"], R=d["R"], N=d["N"], Q=d["Q"], T_eff=d["T_eff"])


def coloring_to_dict(Z: ColoringMatrix) -> dict:
    """JSON form: complex entries as [re, im] pairs, blocks indexed [r][t][i][q]."""
    return {
        "n_rx": Z.n_rx,
        "n_tx": Z.n_tx,
        "block_len": Z.block_len,
        "rank": Z.rank,
        "blocks": complex_to_pairs(Z.blocks),
    }


def coloring_from_dict(d: dict) -> ColoringMatrix:
    blocks = _pairs_to_complex(d["blocks"])
    expected = (d["n_rx"], d["n_tx"], d["block_len"], d["rank"])
    if blocks.shape != expected:
        raise InvalidConfigurationError(
            f"blocks shape {blocks.shape} does not match header {expected}"
        )
    return ColoringMatrix(blocks)
