"""The deterministic property suite behind `fadingdof verify-all`: exact
arithmetic and combinatorics only, so it needs no seed."""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from . import dof, jacobian
from .model import regime_chains
from .pilots import card_deal, mod_star, pilot_chain, verify_pilot_properties

__all__ = ["run_verify_all"]


def run_verify_all(n_max: int = 10) -> bool:
    """Print one [PASS]/[FAIL] line per property over the grid N <= n_max; True if all pass."""
    ok_all = True

    def check(name, ok, detail=""):
        nonlocal ok_all
        ok_all &= bool(ok)
        print(f"[{'PASS' if ok else 'FAIL'}] {name}{(' ' + detail) if detail and not ok else ''}")

    ok = True
    for T_eff in range(1, n_max + 1):
        for N in range(1, n_max + 1):
            players, faces = card_deal(np.arange(1, T_eff * N + 1), T_eff, N)
            # np.sort, not np.unique: np.unique imports numpy.ma, a megabyte this process needs nowhere else
            ok &= np.array_equal(np.sort((players - 1) * N + faces - 1), np.arange(T_eff * N))
    check(f"card dealing bijective for all T_eff, N <= {n_max}", ok)

    chains = [pilot_chain(top) for top in regime_chains(n_max)]
    failures = verify_pilot_properties(chains)  # every cell of the grid in one pass
    bad = str(failures[-1]) if failures else ""  # the last failing cell, with its report
    check(f"pilot-set properties on every regime cell with N <= {n_max}", not failures, bad)

    ok = True
    for chain in chains:
        gap = chain.dims.N - chain.dims.T_eff * chain.dims.Q
        drop, l = chain.theta[:-1] - chain.theta[1:], chain.ell[1:]
        ok &= bool(((drop == gap - l) & (l < gap)).all())
    check("pilot-count drop identity and redundancy bound on the regime grid", ok)

    ok = True
    # q + a for q in [1:18], a in [0:6], at [a, q - 1]; p and the window end q run over [0:18]
    values = np.arange(7)[:, None] + np.arange(1, 19)
    ends = np.arange(19)
    for b in range(2, 7):
        residues = np.array([mod_star(v, b) for v in range(1, 25)])[values - 1]
        hits = (residues[:, None, :] == np.arange(1, b + 1)[:, None]).astype(np.int8)  # [a, c, q - 1]
        counts = np.zeros((7, b, 19), dtype=np.int8)  # of j in [1 : q] with mod_star(j + a, b) == c
        np.cumsum(hits, axis=-1, dtype=np.int8, out=counts[..., 1:])
        window = counts[..., None, :] - counts[..., :, None]  # [a, c, p, q]: of j in (p : q]
        bound = -((ends[:, None] - ends) // b)  # ceil((q - p) / b)
        ok &= bool(((window <= bound) | (ends <= ends[:, None])).all())
    check("window counting bound (exhaustive small grid)", ok)

    # N, Q, T and R, each from 1, on the axes of an (n_max, 3, 12, 12) grid; bounds scaled by N
    N, Q, T, R = np.ogrid[1 : n_max + 1, 1:4, 1:13, 1:13]
    closed = dof._chi_low_star_scaled(T, R, N, Q)
    upper = T * (N - 1)  # N chi_upper(T, N)
    # the equality region R >= T (N - 1) / (N - T Q), with N - T Q > 0, checked for N >= 2
    in_region = (T * Q < N) & (R * (N - T * Q) >= upper)
    ok = bool(
        (closed == dof._chi_low_star_brute_grid(N, Q, T, R)).all()
        and (closed <= upper).all()
        and ((closed == upper) == in_region)[1:].all()
    )
    check(f"lower-bound closed form, ordering, equality region (N <= {n_max})", ok)

    ok = True
    rows = dof.figure1_curves(range(2, 1001))
    ok &= rows[-1][1] == Fraction(998001, 250000)
    ok &= all(a[1] <= b[1] for a, b in zip(rows, rows[1:])) and rows[-1][1] < 4
    check("unconstrained figure ratio: exact value at N=1000, monotone toward 4", ok)

    ok = True
    # the chains with N <= 4: the pilot line's, then a deal of those past n_max
    small = [chain for chain in chains if chain.dims.N <= 4]
    for chain in small + [pilot_chain(top) for top in regime_chains(4) if top.N > n_max]:
        witness = jacobian.witness_construct(chain, exact=True)  # one per chain, at its top
        for pa in chain:
            ok &= jacobian.certify_witness_exact(pa, witness) != 0
    check("witness determinant certified nonzero in exact arithmetic (N <= 4)", ok)

    return ok_all
