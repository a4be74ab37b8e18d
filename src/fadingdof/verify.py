"""The deterministic property suite behind `fadingdof verify-all`: exact
arithmetic and combinatorics only, so it needs no seed."""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from . import dof, jacobian
from .model import regime_chains
from .pilots import card_deal, mod_star, pilot_chains, verify_pilot_properties

__all__ = ["run_verify_all"]


def run_verify_all(n_max: int = 10) -> bool:
    """Print one [PASS]/[FAIL] line per property over the grid N <= n_max; True if all pass."""
    ok_all = True

    def check(name, ok, detail=""):
        nonlocal ok_all
        ok_all &= bool(ok)
        print(f"[{'PASS' if ok else 'FAIL'}] {name}{(' ' + detail) if detail and not ok else ''}")

    # every deal T_eff, N <= n_max in one call, one row each: its T_eff N cards, then its last card repeated;
    # a row is a bijection when its cards' slots (t - 1) N + i - 1, and the repeats' own places, sort to 0, 1, ...
    T_eff, N = np.indices((n_max, n_max)).reshape(2, -1, 1) + 1
    places = np.arange(n_max**2)
    players, faces = card_deal(np.minimum(places + 1, T_eff * N), T_eff, N)
    slots = np.where(places < T_eff * N, (players - 1) * N + faces - 1, places)
    # np.sort, not np.unique: np.unique imports numpy.ma, a megabyte this process needs nowhere else
    check(f"card dealing bijective for all T_eff, N <= {n_max}", (np.sort(slots) == places).all())
    del players, faces, slots  # 0.2 MB at N <= 10, not to be held beside the chains

    chains = pilot_chains(regime_chains(n_max))
    failures = verify_pilot_properties(chains)  # every cell of the grid in one pass
    bad = str(failures[-1]) if failures else ""  # the last failing cell, with its report
    check(f"pilot-set properties on every regime cell with N <= {n_max}", not failures, bad)

    # theta_{R'-1} - theta_R' = N - T_eff Q - ell_R' > 0 on each cell past its chain's first, R' > T_eff
    theta, ells = (np.concatenate([np.zeros(0, int), *(getattr(c, f) for c in chains)]) for f in ("theta", "ell"))
    sizes = [len(chain) for chain in chains]
    rest = np.repeat([c.dims.N - c.dims.T_eff * c.dims.Q for c in chains], sizes) - ells
    later = np.arange(len(theta)) != np.repeat(np.cumsum([0] + sizes)[:-1], sizes)
    ok = (((theta[:-1] - theta[1:] == rest[1:]) & (rest[1:] > 0)) | ~later[1:]).all()
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
    for chain in small + pilot_chains(top for top in regime_chains(4) if top.N > n_max):
        witness = jacobian.witness_construct(chain, exact=True)  # one per chain, at its top
        for R in range(chain.dims.T_eff, chain.dims.R + 1):
            ok &= jacobian.certify_witness_exact(chain.cut(R), witness) != 0
    check("witness determinant certified nonzero in exact arithmetic (N <= 4)", ok)

    return ok_all
