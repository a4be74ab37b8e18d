"""Monte-Carlo evidence for the log-determinant side of the lower bound.

The entropy argument needs E[log |det J|^2] over Gaussian (s, x) to be finite
for a generic coloring matrix. That expectation has no closed form, so this
module estimates it by Monte Carlo and reports stability diagnostics instead;
a shrinking standard error is the computable evidence of integrability.

The expectation is taken over the Gaussian density rather than as the raw
Lebesgue integral against exp(-||.||^2); the two differ by the density
normalization, a factor pi per complex dimension.

Draws come in batches of BATCH, each batch from its own derived seed. Within
a batch they are assembled and factorized in stacks of at most
jacobian.STACK_BYTES, one SVD call per stack. The reduction order is fixed,
so estimates are reproducible and do not depend on the stack depth.
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

    The log-determinant is evaluated as twice the sum of log singular values,
    from one SVD per draw; each draw's s and then x come from its batch's
    generator, and the SVDs of a stack of draws are made by one call.
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
            singular_values = np.linalg.svd(layout.assemble(Z.blocks, S, X), compute_uv=False)
            nonsingular = singular_values[:, -1] > NONSINGULAR_TOL * singular_values[:, 0]
            vals = np.full(count, -math.inf)
            vals[nonsingular] = 2.0 * np.log(singular_values[nonsingular]).sum(axis=1)
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
