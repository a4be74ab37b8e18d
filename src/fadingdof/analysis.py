"""Monte-Carlo evidence for the log-determinant side of the lower bound.

The entropy argument needs E[log |det J|^2] over Gaussian (s, x) to be finite
for a generic coloring matrix. That is certified, not estimated. For a fixed
coloring Z, |det J(Z; s, x)|^2 is a real polynomial of degree at most 2n in
the real and imaginary parts of (s, x), and the Gaussian is log-concave, so
the Carbery-Wright inequality (A. Carbery and J. Wright, Math. Res. Lett. 8,
2001) gives P(|p| <= eps ||p||_2) <= C deg eps^(1/deg), and E log |det J|^2 >
-inf whenever det J(Z; .) is not identically zero.
jacobian.certify_witness_exact(chain) certifies that for the exact witness
coloring of every cell of the chain, and so for almost every coloring. What
has no closed form is the value of the expectation: mc_logdet estimates only
that, by Monte Carlo, with its standard error and the fraction of clipped
draws. A shrinking standard error is no evidence of integrability on its own;
it can shrink on a heavy-tailed integrand.

The expectation is taken over the Gaussian density rather than as the raw
Lebesgue integral against exp(-||.||^2); the two differ by the density
normalization, a factor pi per complex dimension.

mc_logdet takes the cell as its PilotChain, as every numeric function does,
and reads the data positions off the chain's top row. Draws come in batches
of BATCH, each batch from its own derived seed. Within a batch they are
factorized in stacks of at most jacobian.STACK_BYTES by the grouped
elimination, which never forms a Jacobian: a QR of each antenna's fading
block, or of each face's block of data columns when those leave the smaller
Schur block, and an SVD of each R factor and of the Schur block give
log |det J|. The reduction order is fixed, so estimates are reproducible and do not depend
on the stack depth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import InvalidConfigurationError, complex_gaussian_draws, require_coloring
from .jacobian import NONSINGULAR_TOL, JacobianLayout
from .pilots import PilotChain

__all__ = [
    "LOG_FLOOR",
    "LogDetEstimate",
    "mc_logdet",
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
    Z: np.ndarray,
    chain: PilotChain,
    samples: int,
    seed: int | np.random.SeedSequence,
) -> LogDetEstimate:
    """Estimate E[log |det J(s, x_data)|^2] over standard Gaussian (s, x) at the coloring Z of the cell chain.dims.

    log |det J|^2 is twice the sum of the log singular values of the factors
    of the grouped elimination (JacobianLayout.eliminate), which factors a
    stack of draws with one QR and one SVD call per shape class of its groups
    and one SVD call for the Schur blocks; each draw's s and then x
    come from its batch's generator. Draws that are singular at working
    precision (some factor with sigma_min not above the package
    nonsingularity threshold times its sigma_max) and draws whose value falls
    below the floor both contribute the floor value and are counted in
    clipped_fraction. When log |det J|^2 has finite variance the standard
    error shrinks like samples^(-1/2). seed may be a SeedSequence, e.g. one
    child of a spawn tree that also seeds the coloring.
    """
    if samples < 1:
        raise InvalidConfigurationError("samples must be positive")
    require_coloring(Z, chain.dims)
    n_batches = -(-samples // BATCH)
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    children = seed.spawn(n_batches)
    layout = JacobianLayout(chain)
    dims = chain.dims
    sizes = (dims.R * dims.T_eff * dims.Q, dims.T_eff * dims.N)
    values = np.empty(samples, dtype=float)
    clipped = 0
    pos = 0
    for child in children:
        rng = np.random.default_rng(child)
        batch_end = min(pos + BATCH, samples)
        while pos < batch_end:
            count = min(layout.per_stack, batch_end - pos)
            S, X = complex_gaussian_draws(rng, count, *sizes)
            log_abs_det, ratio = layout.eliminate(Z, S, X)
            vals = np.where(ratio > NONSINGULAR_TOL, 2.0 * log_abs_det, -math.inf)
            low = vals < LOG_FLOOR
            vals[low] = LOG_FLOOR
            clipped += int(np.count_nonzero(low))
            values[pos : pos + count] = vals
            pos += count
    mean = float(values.mean())
    stderr = float(values.std(ddof=1) / math.sqrt(samples)) if samples > 1 else math.inf
    return LogDetEstimate(
        mean=mean, stderr=stderr, samples=samples, clipped_fraction=clipped / samples
    )
