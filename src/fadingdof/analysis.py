"""Monte-Carlo evidence for the log-determinant side of the lower bound.

The entropy argument needs E[log |det J|^2] over Gaussian (s, x) to be finite
for a generic coloring matrix. That expectation has no closed form, so this
module estimates it by Monte Carlo and reports stability diagnostics instead;
a shrinking standard error is the computable evidence of integrability.

The expectation is taken over the Gaussian density rather than as the raw
Lebesgue integral against exp(-||.||^2); the two differ by the density
normalization, a factor pi per complex dimension.

Draws are processed in fixed-size batches with per-batch derived seeds and a
fixed reduction order, so estimates are reproducible and batches could be
evaluated concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .model import ColoringMatrix, Dims, standard_complex_gaussian
from .dof import chi_low, ell
from .jacobian import assemble_jacobian
from .pilots import PilotAssignment

__all__ = [
    "LOG_FLOOR",
    "LogDetEstimate",
    "mc_logdet",
    "gaussian_log_magnitude_mean",
    "mc_log_magnitude",
    "EntropyChainReport",
    "entropy_chain_report",
]

LOG_FLOOR = -700.0
BATCH = 256


@dataclass(frozen=True)
class LogDetEstimate:
    """Sample mean of log |det J|^2 with its standard error.

    clipped_fraction is the fraction of draws whose value fell below the
    underflow floor (including exactly singular draws); it is reported, never
    silently absorbed into the mean.
    """

    mean: float
    stderr: float
    samples: int
    clipped_fraction: float


def mc_logdet(
    Z: ColoringMatrix,
    dims: Dims,
    pilots: PilotAssignment,
    samples: int,
    seed: int | np.random.SeedSequence,
) -> LogDetEstimate:
    """Estimate E[log |det J(s, x_data)|^2] over standard Gaussian (s, x).

    The log-determinant is evaluated as twice the sum of log singular values.
    Draws that are singular at working precision (smallest singular value not
    above the package nonsingularity threshold times the spectral norm) and
    draws whose value falls below the floor both contribute the floor value
    and are counted in clipped_fraction. For an integrable integrand the
    standard error shrinks like samples^(-1/2). seed may be a SeedSequence,
    e.g. one child of a spawn tree that also seeds the coloring.
    """
    if samples < 1:
        raise ValueError("samples must be positive")
    n_batches = -(-samples // BATCH)
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    children = seed.spawn(n_batches)
    values = np.empty(samples, dtype=float)
    clipped = 0
    pos = 0
    for child in children:
        rng = np.random.default_rng(child)
        count = min(BATCH, samples - pos)
        for _ in range(count):
            s = standard_complex_gaussian(rng, dims.R * dims.T_eff * dims.Q)
            x = standard_complex_gaussian(rng, dims.T_eff * dims.N)
            J = assemble_jacobian(Z, s, x, pilots)
            if J.nonsingular:
                val = 2.0 * float(np.sum(np.log(J.singular_values)))
            else:
                val = -math.inf
            if val < LOG_FLOOR:
                val = LOG_FLOOR
                clipped += 1
            values[pos] = val
            pos += 1
    mean = float(values.mean())
    stderr = float(values.std(ddof=1) / math.sqrt(samples)) if samples > 1 else math.inf
    return LogDetEstimate(
        mean=mean, stderr=stderr, samples=samples, clipped_fraction=clipped / samples
    )


def gaussian_log_magnitude_mean() -> float:
    """E[log |xi|] for xi ~ CN(0, 1): minus half the Euler-Mascheroni constant."""
    return -float(np.euler_gamma) / 2.0


def mc_log_magnitude(samples: int, seed: int) -> float:
    """Monte-Carlo estimate of E[log |xi|], xi ~ CN(0, 1); 1-D calibration case."""
    rng = np.random.default_rng(seed)
    xi = standard_complex_gaussian(rng, samples)
    return float(np.mean(np.log(np.abs(xi))))


@dataclass(frozen=True)
class EntropyChainReport:
    """Exact bookkeeping of the mutual-information chain for one configuration.

    prelog_coefficient is min{RN - R T_eff Q, T_eff N - T_eff}, the log-SNR
    coefficient left after discarding redundant outputs and conditioning;
    divided by N it reproduces the lower bound. solution_entropy_bits is the
    size of the useful output set, which caps (in bits) the entropy of the
    discrete solution-branch variable: log2 of the isolated-zero bound.
    """

    dims: Dims
    prelog_coefficient: int
    prelog: Fraction
    chi_low: Fraction
    matches_chi_low: bool
    trivial: bool
    solution_entropy_bits: int


def entropy_chain_report(dims: Dims) -> EntropyChainReport:
    """Pure integer/rational report; valid also in the degenerate N <= T_eff*Q case."""
    T_eff, R, N, Q = dims.T_eff, dims.R, dims.N, dims.Q
    coeff = min(R * N - R * T_eff * Q, T_eff * N - T_eff)
    prelog = Fraction(coeff, N)
    bound = chi_low(T_eff, R, N, Q)
    return EntropyChainReport(
        dims=dims,
        prelog_coefficient=coeff,
        prelog=prelog,
        chi_low=bound,
        matches_chi_low=prelog == bound,
        trivial=coeff <= 0,
        solution_entropy_bits=R * N - ell(T_eff, R, N, Q),
    )

