"""Monte-Carlo evidence for the log-determinant side of the lower bound.

The entropy argument needs E[log |det J|^2] over Gaussian (s, x) to be finite
for a generic coloring matrix. That expectation has no closed form, so this
module estimates it by Monte Carlo and reports stability diagnostics instead;
a shrinking standard error is the computable evidence of integrability.

The expectation is taken over the Gaussian density rather than as the raw
Lebesgue integral against exp(-||.||^2); the two differ by the density
normalization, a factor pi per complex dimension.

Draws come in batches of BATCH, each batch from its own derived seed. Within
a batch they are factorized in stacks of at most jacobian.STACK_BYTES by the
per-antenna elimination, which never forms a Jacobian: a QR of each fading
block and an SVD of each R factor and of the Schur block give log |det J|.
The reduction order is fixed, so estimates are reproducible and do not depend
on the stack depth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ColoringMatrix, Dims, complex_gaussian_draws
from .jacobian import NONSINGULAR_TOL, JacobianLayout
from .pilots import PilotAssignment

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
    Z: ColoringMatrix,
    dims: Dims,
    pilots: PilotAssignment,
    samples: int,
    seed: int | np.random.SeedSequence,
) -> LogDetEstimate:
    """Estimate E[log |det J(s, x_data)|^2] over standard Gaussian (s, x).

    log |det J|^2 is twice the sum of the log singular values of the factors
    of the per-antenna elimination (JacobianLayout.eliminate), which factors a
    stack of draws with one QR and two SVD calls; each draw's s and then x
    come from its batch's generator. Draws that are singular at working
    precision (some factor with sigma_min not above the package
    nonsingularity threshold times its sigma_max) and draws whose value falls
    below the floor both contribute the floor value and are counted in
    clipped_fraction. For an integrable integrand the standard error shrinks
    like samples^(-1/2). seed may be a SeedSequence, e.g. one child of a
    spawn tree that also seeds the coloring.
    """
    if samples < 1:
        raise ValueError("samples must be positive")
    n_batches = -(-samples // BATCH)
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    children = seed.spawn(n_batches)
    layout = JacobianLayout(pilots)
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
            log_abs_det, ratio = layout.eliminate(Z.blocks, S, X)
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
