"""Closed-form degrees-of-freedom quantities and antenna optimization.

Every bound is computed in integers scaled by N (each one has denominator N)
and returned as an exact Fraction; floats appear only when a figure table is
rendered. The brute-force maximum that `verify-all` holds the closed form
against takes a whole grid of cells at once, as int64 arrays. All functions
are pure and trivially parallel over grid points.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .model import Dims, dims_to_dict

__all__ = [
    "DofReport",
    "chi_const",
    "chi_gen",
    "chi_upper",
    "chi_low",
    "optimal_active_tx",
    "rounded_lower",
    "chi_low_star",
    "ell",
    "figure1_curves",
    "write_figure1_csv",
    "dof_report",
    "report_to_dict",
]


@dataclass(frozen=True)
class DofReport:
    """All bound values for one configuration, stored exactly."""

    dims: Dims
    chi_const: Fraction
    chi_gen_upper: Fraction
    chi_low_of_Teff: Fraction
    chi_low_star: Fraction
    T_opt: Fraction
    eta: Fraction
    ell: int
    theta_R: int
    M: int


def chi_const(T: int, R: int, N: int) -> Fraction:
    """DoF of the constant block-fading model: M (1 - M/N), M = min(T, R, floor(N/2))."""
    M = min(T, R, N // 2)
    return Fraction(M) * (1 - Fraction(M, N))


def chi_gen(T: int, N: int) -> Fraction:
    """DoF of the generic model, T (1 - 1/N); exact when T < N/Q and R is large enough."""
    return Fraction(T * (N - 1), N)


def chi_upper(T: int, N: int) -> Fraction:
    """Universal upper bound T (1 - 1/N); holds for every coloring matrix and every R, Q."""
    return chi_gen(T, N)


def _chi_low_scaled(T_eff: int, R: int, N: int, Q: int) -> int:
    """N chi_low(T_eff, R, N, Q) = min{T_eff (N - 1), R (N - T_eff Q)}."""
    return min(T_eff * (N - 1), R * (N - T_eff * Q))


def chi_low(T_eff: int, R: int, N: int, Q: int) -> Fraction:
    """Lower bound with T_eff active transmit antennas.

    min{T_eff (1 - 1/N), R (1 - T_eff Q / N)}; may be <= 0 when N <= T_eff Q.
    """
    return Fraction(_chi_low_scaled(T_eff, R, N, Q), N)


def _t_opt_terms(R: int, N: int, Q: int) -> tuple[int, int]:
    """Numerator and denominator of the crossing point T_opt = R N / (N + R Q - 1)."""
    return R * N, N + R * Q - 1


def optimal_active_tx(R: int, N: int, Q: int) -> Fraction:
    """Crossing point of the two arguments of chi_low: R N / (N + R Q - 1)."""
    return Fraction(*_t_opt_terms(R, N, Q))


def _pick(cond, a, b):
    """a where cond holds, else b: exact on ints, elementwise (np.where) on arrays that broadcast together."""
    return np.where(cond, a, b) if np.ndim(cond) else (a if cond else b)


def _rounded_lower_scaled(R, N, Q):
    """N times the best lower bound at the integer neighbors of T_opt, on ints or integer arrays."""
    num, den = _t_opt_terms(R, N, Q)
    t_ceil, t_floor = -(-num // den), num // den
    low, high = R * (N - t_ceil * Q), t_floor * (N - 1)
    return _pick(low >= high, low, high)


def rounded_lower(R: int, N: int, Q: int) -> Fraction:
    """Best lower bound at the integer neighbors of the fractional optimum."""
    return Fraction(_rounded_lower_scaled(R, N, Q), N)


def _chi_low_star_scaled(T, R, N, Q):
    """N chi_low_star(T, R, N, Q) on ints or an integer grid: T (N - 1) when T <= T_opt, else N eta."""
    num, den = _t_opt_terms(R, N, Q)
    return _pick(T * den <= num, T * (N - 1), _rounded_lower_scaled(R, N, Q))


def chi_low_star(T: int, R: int, N: int, Q: int) -> Fraction:
    """Lower bound maximized over the number of active transmit antennas.

    Equals T (1 - 1/N) when T <= T_opt, otherwise the rounded optimum;
    equivalently min{T (1 - 1/N), rounded optimum}.
    """
    return Fraction(_chi_low_star_scaled(T, R, N, Q), N)


def _chi_low_star_brute_grid(N, Q, T, R) -> np.ndarray:
    """N chi_low_star on a grid, as the independent maximum of N chi_low over integer T_eff.

    N, Q, T and R are integer arrays that broadcast to the grid (np.ogrid
    axes, say). The maximum runs over T_eff in [0 : min(T, R)] one T_eff at a
    time, so no temporary is larger than the grid. T_eff = 0 contributes 0
    (an inactive transmitter yields a trivial bound); without it the maximum
    can be negative while the closed form floors at 0.
    """
    cap = np.minimum(T, R)
    best = np.full(np.broadcast_shapes(*(np.shape(a) for a in (N, Q, T, R))), np.iinfo(np.int64).min)
    for t in range(int(np.max(cap)) + 1):
        low = np.minimum(t * (N - 1), R * (N - t * Q))  # N chi_low(t, R, N, Q)
        np.maximum(best, np.where(t <= cap, low, best), out=best)
    return best


def ell(T_eff: int, R: int, N: int, Q: int) -> int:
    """Number of redundant received equations, max{0, RN - (R T_eff Q + T_eff N - T_eff)}."""
    return max(0, R * N - (R * T_eff * Q + T_eff * N - T_eff))


def dof_report(dims: Dims) -> DofReport:
    """Evaluate every bound for one configuration."""
    from .pilots import pilot_count

    return DofReport(
        dims=dims,
        chi_const=chi_const(dims.T, dims.R, dims.N),
        chi_gen_upper=chi_upper(dims.T, dims.N),
        chi_low_of_Teff=chi_low(dims.T_eff, dims.R, dims.N, dims.Q),
        chi_low_star=chi_low_star(dims.T, dims.R, dims.N, dims.Q),
        T_opt=optimal_active_tx(dims.R, dims.N, dims.Q),
        eta=rounded_lower(dims.R, dims.N, dims.Q),
        ell=ell(dims.T_eff, dims.R, dims.N, dims.Q),
        theta_R=pilot_count(dims.T_eff, dims.R, dims.N, dims.Q),
        M=min(dims.T, dims.R, dims.N // 2),
    )


def _frac_pair(f: Fraction):
    return {"fraction": str(f), "float": float(f)}


def report_to_dict(rep: DofReport) -> dict:
    """JSON form; exact values are emitted as fraction strings with decimals alongside."""
    return {
        "dims": dims_to_dict(rep.dims),
        "valid_regime": rep.dims.in_proof_regime,
        "chi_const": _frac_pair(rep.chi_const),
        "chi_gen_upper": _frac_pair(rep.chi_gen_upper),
        "chi_low_of_Teff": _frac_pair(rep.chi_low_of_Teff),
        "chi_low_star": _frac_pair(rep.chi_low_star),
        "T_opt": _frac_pair(rep.T_opt),
        "eta": _frac_pair(rep.eta),
        "ell": rep.ell,
        "theta_R": rep.theta_R,
        "M": rep.M,
    }


def figure1_curves(n_values, antenna_cap: int | None = None):
    """Ratio of maximal generic-model DoF (Q = 1) to maximal constant-model DoF.

    Unconstrained ratio: ((N-1)^2 / N) / (M (N-M) / N) with M = floor(N/2), where
    the constant model peaks. With an antenna cap A, the generic-model maximum
    is not known in closed form, so the capped ratio is reported as a [lower,
    upper] pair: the numerator is max chi_low_star over T, R <= A for the lower
    series and max chi_upper over T <= A for the upper series, the denominator
    max chi_const over T, R <= A. Every bound has the denominator N, so each
    ratio is one Fraction of N-scaled integers. Rows with N < 2 are skipped.
    Returns (N, ratio_unconstrained, ratio_lower, ratio_upper) tuples of exact
    Fractions.
    """
    rows = []
    for N in n_values:
        if N < 2:
            continue
        M = N // 2
        unconstrained = Fraction((N - 1) ** 2, M * (N - M))
        if antenna_cap is None:
            rows.append((N, unconstrained, unconstrained, unconstrained))
            continue
        A = antenna_cap
        # chi_low_star is nondecreasing in both T and R, so the capped corner is optimal
        M_cap = min(A, M)
        denom = M_cap * (N - M_cap)  # N chi_const(A, A, N)
        lower = Fraction(_chi_low_star_scaled(A, A, N, 1), denom)
        upper = Fraction(A * (N - 1), denom)  # N chi_upper(A, N)
        rows.append((N, unconstrained, lower, upper))
    return rows


def write_figure1_csv(rows, stream):
    """CSV emission, header mandatory; ratios rendered as decimals."""
    import csv

    writer = csv.writer(stream)
    writer.writerow(["N", "ratio_unconstrained", "ratio_lower", "ratio_upper"])
    for N, unconstrained, lower, upper in rows:
        writer.writerow([N, repr(float(unconstrained)), repr(float(lower)), repr(float(upper))])
