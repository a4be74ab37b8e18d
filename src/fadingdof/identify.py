"""Empirical identifiability: recover (s, x_data) from noiseless outputs.

Given the pilot entries of x, the useful outputs are a square polynomial
system of degree 2 in the remaining unknowns. The system is holomorphic in
the unknowns (conjugates never appear), so a complex Gauss-Newton step is
well defined and the linearization is exactly the recovery Jacobian.
Recovery here is noiseless only: the identifiability argument lives at
infinite SNR. Independent trials are deterministic under their seeds and
may run in parallel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    ColoringMatrix,
    Dims,
    channel_vectors,
    constant_model,
    random_coloring,
    split_fading,
    standard_complex_gaussian,
)
from .jacobian import JacobianLayout
from .pilots import PilotAssignment, build_pilot_sets

__all__ = [
    "RecoveryResult",
    "forward_map",
    "recover",
    "run_recovery_trials",
    "recovery_summary",
]

# Gauss-Newton: converged below this relative residual, within these caps.
GN_TOL = 1e-12
GN_MAX_ITERATIONS = 200
GN_MAX_HALVINGS = 30
# Relative size of the random offset from the truth that recovery trials start at.
PERTURBATION = 1e-2


@dataclass(frozen=True)
class RecoveryResult:
    """Outcome of one recovery attempt.

    residual is relative: ||phi(s_hat, x_hat) - y_target|| / ||y_target||.
    param_error is the relative distance to the supplied ground truth (NaN if
    none was given). success implies residual <= 1e-9.
    """

    success: bool
    residual: float
    param_error: float
    iterations: int
    s: np.ndarray
    x_data: np.ndarray


def _assemble_x(x_data: np.ndarray, x_pilot: np.ndarray, pilots: PilotAssignment) -> np.ndarray:
    dims = pilots.dims
    x = np.zeros(dims.T_eff * dims.N, dtype=complex)
    x[np.asarray(pilots.pilots, dtype=int) - 1] = x_pilot
    x[np.asarray(pilots.data, dtype=int) - 1] = x_data
    return x


def forward_map(
    s: np.ndarray,
    x_data: np.ndarray,
    x_pilot: np.ndarray,
    pilots: PilotAssignment,
    Z: ColoringMatrix,
) -> np.ndarray:
    """Noiseless useful outputs as a function of the unknowns (s, x_data).

    Each component is a degree-2 polynomial in the unknowns: output i of
    receive antenna r is sum_t x_t[i] h_{r,t}[i], the channel vectors h
    coming from one batched matmul, so the block-diagonal B is never formed.
    """
    dims = pilots.dims
    Z.require_conforms(dims)
    s = split_fading(np.asarray(s, dtype=complex), dims)
    x = _assemble_x(np.asarray(x_data, dtype=complex), np.asarray(x_pilot, dtype=complex), pilots)
    h = channel_vectors(Z.blocks, s.ravel())
    y_bar = (x.reshape(dims.T_eff, dims.N) * h).sum(axis=1)
    return y_bar.ravel()[: pilots.n_useful]


def recover(
    y_target: np.ndarray,
    x_pilot: np.ndarray,
    pilots: PilotAssignment,
    Z: ColoringMatrix,
    init,
    truth=None,
) -> RecoveryResult:
    """Gauss-Newton iteration on the square system phi(s, x_data) = y_target.

    init is the starting point (s0, x_data0). Steps solve the complex
    linearization directly; a singular linearization falls back to a
    least-squares step, and each step is damped by halving until the residual
    decreases (at most GN_MAX_HALVINGS times). Convergence is declared at
    relative residual < GN_TOL; exceeding GN_MAX_ITERATIONS returns
    success=False. truth, when given as (s, x_data), is only used to report
    param_error.
    """
    dims = pilots.dims
    n_s = dims.R * dims.T_eff * dims.Q
    s = np.asarray(init[0], dtype=complex).copy()
    x_data = np.asarray(init[1], dtype=complex).copy()
    y_target = np.asarray(y_target, dtype=complex)
    scale = np.linalg.norm(y_target)
    if scale == 0.0:
        scale = 1.0

    def residual_vec(s_cur, x_cur):
        return forward_map(s_cur, x_cur, x_pilot, pilots, Z) - y_target

    layout = JacobianLayout(pilots)
    res = residual_vec(s, x_data)
    res_norm = np.linalg.norm(res)
    iterations = 0
    while res_norm / scale >= GN_TOL and iterations < GN_MAX_ITERATIONS:
        x = _assemble_x(x_data, x_pilot, pilots)
        J = layout.assemble(Z.blocks, s[None], x[None])[0]
        try:
            step = np.linalg.solve(J, -res)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(J, -res, rcond=None)[0]
        factor = 1.0
        for _ in range(GN_MAX_HALVINGS + 1):
            s_new = s + factor * step[:n_s]
            x_new = x_data + factor * step[n_s:]
            res_new = residual_vec(s_new, x_new)
            new_norm = np.linalg.norm(res_new)
            if new_norm < res_norm:
                break
            factor /= 2.0
        else:
            break  # no descent direction left; stop at the current iterate
        s, x_data, res, res_norm = s_new, x_new, res_new, new_norm
        iterations += 1

    rel_res = float(res_norm / scale)
    if truth is not None:
        truth_vec = np.concatenate([np.ravel(truth[0]), np.ravel(truth[1])])
        got = np.concatenate([s, x_data])
        param_error = float(np.linalg.norm(got - truth_vec) / np.linalg.norm(truth_vec))
    else:
        param_error = float("nan")
    return RecoveryResult(
        success=rel_res < GN_TOL,
        residual=rel_res,
        param_error=param_error,
        iterations=iterations,
        s=s,
        x_data=x_data,
    )


def run_recovery_trials(dims: Dims, trials: int, seed: int, constant: bool = False):
    """Truth-perturbed recovery trials, as run by `fadingdof identify`.

    Each trial draws a coloring (or uses the constant model), a ground truth
    (s, x), forms the noiseless useful outputs, perturbs the truth by
    PERTURBATION relative to its norm, and runs the recovery iteration with
    the truth available for error reporting. Every draw of a trial comes from
    that trial's child of SeedSequence(seed), so no two (seed, trial) pairs
    share a coloring.
    """
    dims.require_regime()
    pa = build_pilot_sets(dims)
    results = []
    for child in np.random.SeedSequence(seed).spawn(trials):
        coloring_seed, point_seed = child.spawn(2)
        rng = np.random.default_rng(point_seed)
        Z = constant_model(dims) if constant else random_coloring(dims, coloring_seed)
        s = standard_complex_gaussian(rng, dims.R * dims.T_eff * dims.Q)
        x = standard_complex_gaussian(rng, dims.T_eff * dims.N)
        x_pilot = x[np.asarray(pa.pilots, dtype=int) - 1]
        x_data = x[np.asarray(pa.data, dtype=int) - 1]
        y_target = forward_map(s, x_data, x_pilot, pa, Z)
        truth = np.concatenate([s, x_data])
        noise = standard_complex_gaussian(rng, truth.size)
        init_vec = truth + PERTURBATION * np.linalg.norm(truth) * noise / np.linalg.norm(noise)
        res = recover(
            y_target,
            x_pilot,
            pa,
            Z,
            init=(init_vec[: s.size], init_vec[s.size :]),
            truth=(s, x_data),
        )
        results.append(res)
    return results


def recovery_summary(results) -> dict:
    """Trial count, success rate, and median residual and parameter error (None without trials)."""
    residuals = sorted(r.residual for r in results)
    errors = sorted(r.param_error for r in results)
    return {
        "trials": len(results),
        "success_rate": sum(r.success for r in results) / max(1, len(results)),
        "median_residual": residuals[len(residuals) // 2] if residuals else None,
        "median_param_error": errors[len(errors) // 2] if errors else None,
    }
