"""Empirical identifiability: recover (s, x_data) from noiseless outputs.

The pilot entries of the input vector x are fixed and known to the receiver;
given them, the useful outputs are a square polynomial system of degree 2 in
the unknowns (s, x_data). The system is holomorphic in the unknowns
(conjugates never appear), so a complex Gauss-Newton step is well defined
and the linearization is exactly the recovery Jacobian. Functions here take
the whole x, the cell as its PilotChain (chain.dims and the top row's
masks) and an (R, T_eff, N, Q) coloring array; recover and
run_recovery_trials read its data_index once per call.
Recovery here is noiseless only: the identifiability argument lives at
infinite SNR. Independent trials are deterministic under their seeds and
may run in parallel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    InvalidConfigurationError,
    channel_vectors,
    random_coloring,
    require_coloring,
    split_fading,
    split_tx,
    standard_complex_gaussian,
)
from .jacobian import JacobianLayout
from .pilots import PilotChain

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
    param_error is the relative distance of (s, x_data) to the supplied
    ground truth (NaN if none was given). x is the whole input vector, its
    pilot entries those of the start. success implies residual <= 1e-9.
    stop_reason says why the iteration ended: "converged", "max_iterations"
    or "no_descent" (no halving of the last step lowered the residual).
    lstsq_fallbacks counts the steps taken by least squares because the
    linearization was singular, and halvings the step halvings over all
    iterations.
    """

    success: bool
    residual: float
    param_error: float
    iterations: int
    s: np.ndarray
    x: np.ndarray
    stop_reason: str
    lstsq_fallbacks: int
    halvings: int


def forward_map(s: np.ndarray, x: np.ndarray, chain: PilotChain, Z: np.ndarray) -> np.ndarray:
    """Noiseless useful outputs of the cell chain.dims at the fading vector s and the whole input x.

    Each component is a degree-2 polynomial in the unknowns (s, x_data): output
    i of receive antenna r is sum_t x_t[i] h_{r,t}[i], the channel vectors h
    coming from one batched matmul, so the block-diagonal B is never formed.
    """
    dims = chain.dims
    require_coloring(Z, dims)
    s = split_fading(np.asarray(s, dtype=complex), dims)
    x = split_tx(np.asarray(x, dtype=complex), dims)
    h = channel_vectors(Z, s.ravel())
    return (x * h).sum(axis=1).ravel()[: chain.n_useful]


def recover(
    y_target: np.ndarray, chain: PilotChain, Z: np.ndarray, init, truth=None
) -> RecoveryResult:
    """Gauss-Newton iteration on the square system phi(s, x_data) = y_target.

    init is the starting point (s0, x0) with the whole input vector: the
    pilot entries of x0 are the known pilots, and no step changes them; each
    step moves s and the data entries of x. Steps solve the complex
    linearization directly; a singular linearization falls back to a
    least-squares step, and each step is damped by halving until the residual
    decreases (at most GN_MAX_HALVINGS times). Convergence is declared at
    relative residual < GN_TOL; exceeding GN_MAX_ITERATIONS, or a step that
    no halving makes descend, returns success=False, with the stop_reason and
    the counts of fallbacks and halvings on the result. truth, when given as
    (s, x), is only used to report param_error over (s, x_data).
    """
    dims = chain.dims
    n_s = dims.R * dims.T_eff * dims.Q
    data0 = chain.data_index
    y_target = np.asarray(y_target, dtype=complex)
    if y_target.shape != (chain.n_useful,):
        raise InvalidConfigurationError(
            f"y_target must have shape ({chain.n_useful},), the useful outputs, got {y_target.shape}"
        )
    s = np.asarray(init[0], dtype=complex).copy()
    x = np.asarray(init[1], dtype=complex).copy()
    scale = np.linalg.norm(y_target)
    if scale == 0.0:
        scale = 1.0

    layout = JacobianLayout(chain)
    res = forward_map(s, x, chain, Z) - y_target
    res_norm = np.linalg.norm(res)
    iterations = lstsq_fallbacks = halvings = 0
    stop_reason = "max_iterations"
    while res_norm / scale >= GN_TOL and iterations < GN_MAX_ITERATIONS:
        J = layout.assemble(Z, s[None], x[None])[0]
        try:
            step = np.linalg.solve(J, -res)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(J, -res, rcond=None)[0]
            lstsq_fallbacks += 1
        factor = 1.0
        for _ in range(GN_MAX_HALVINGS + 1):
            s_new = s + factor * step[:n_s]
            x_new = x.copy()
            x_new[data0] += factor * step[n_s:]
            res_new = forward_map(s_new, x_new, chain, Z) - y_target
            new_norm = np.linalg.norm(res_new)
            if new_norm < res_norm:
                break
            factor /= 2.0
            halvings += 1
        else:
            stop_reason = "no_descent"  # stop at the current iterate
            break
        s, x, res, res_norm = s_new, x_new, res_new, new_norm
        iterations += 1

    rel_res = float(res_norm / scale)
    if rel_res < GN_TOL:
        stop_reason = "converged"
    if truth is not None:
        truth_s = split_fading(np.asarray(truth[0], dtype=complex), dims).ravel()
        truth_x = split_tx(np.asarray(truth[1], dtype=complex), dims).ravel()
        truth_vec = np.concatenate([truth_s, truth_x[data0]])
        got = np.concatenate([s, x[data0]])
        param_error = float(np.linalg.norm(got - truth_vec) / np.linalg.norm(truth_vec))
    else:
        param_error = float("nan")
    return RecoveryResult(
        success=rel_res < GN_TOL,
        residual=rel_res,
        param_error=param_error,
        iterations=iterations,
        s=s,
        x=x,
        stop_reason=stop_reason,
        lstsq_fallbacks=lstsq_fallbacks,
        halvings=halvings,
    )


def run_recovery_trials(chain: PilotChain, trials: int, seed: int, coloring: np.ndarray | None = None):
    """Truth-perturbed recovery trials on the cell chain.dims, as run by `fadingdof identify`.

    A negative trials count is refused. Each trial draws a coloring unless
    one is fixed (e.g. the constant model; it must conform to chain.dims,
    even when trials = 0), as genericity_probe does. It draws a ground truth (s, x), forms the noiseless useful outputs,
    perturbs (s, x_data) by PERTURBATION relative to its norm, keeping the
    pilot entries of x, and runs the recovery with the truth for error
    reporting. Each trial's child of SeedSequence(seed) spawns a coloring
    seed, unused for a fixed coloring, and a point seed, so no two (seed,
    trial) pairs share a drawn coloring and fixing one changes no point.
    """
    dims = chain.dims
    if trials < 0:
        raise InvalidConfigurationError(f"trials must be non-negative, got {trials}")
    if coloring is not None:
        require_coloring(coloring, dims)
    data0 = chain.data_index
    results = []
    for child in np.random.SeedSequence(seed).spawn(trials):
        coloring_seed, point_seed = child.spawn(2)
        rng = np.random.default_rng(point_seed)
        Z = random_coloring(dims, coloring_seed) if coloring is None else coloring
        s = standard_complex_gaussian(rng, dims.R * dims.T_eff * dims.Q)
        x = standard_complex_gaussian(rng, dims.T_eff * dims.N)
        y_target = forward_map(s, x, chain, Z)
        truth = np.concatenate([s, x[data0]])
        noise = standard_complex_gaussian(rng, truth.size)
        start = truth + PERTURBATION * np.linalg.norm(truth) * noise / np.linalg.norm(noise)
        x0 = x.copy()
        x0[data0] = start[s.size :]
        results.append(recover(y_target, chain, Z, init=(start[: s.size], x0), truth=(s, x)))
    return results


def recovery_summary(results) -> dict:
    """Trial count, success rate, and median residual and parameter error.

    The last three are None without trials.
    """
    residuals = sorted(r.residual for r in results)
    errors = sorted(r.param_error for r in results)
    return {
        "trials": len(results),
        "success_rate": sum(r.success for r in results) / len(results) if results else None,
        "median_residual": residuals[len(residuals) // 2] if residuals else None,
        "median_param_error": errors[len(errors) // 2] if errors else None,
    }
