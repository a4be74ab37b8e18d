"""The deterministic property suite behind `fadingdof verify-all`: exact
arithmetic and combinatorics only, so it needs no seed."""

from __future__ import annotations

from fractions import Fraction

from . import dof, jacobian
from .model import regime_cells, regime_chains
from .pilots import card_deal, mod_star, pilot_chain, pilot_count, verify_pilot_properties

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
            images = {card_deal(j, T_eff, N) for j in range(1, T_eff * N + 1)}
            ok &= len(images) == T_eff * N
    check(f"card dealing bijective for all T_eff, N <= {n_max}", ok)

    ok = True
    bad = None
    for top in regime_chains(n_max):
        for pa in pilot_chain(top):
            report = verify_pilot_properties(assignment=pa)
            if not all(v["ok"] for v in report.values()):
                ok, bad = False, (pa.dims, report)
    check(f"pilot-set properties on every regime cell with N <= {n_max}", ok, str(bad))

    ok = True
    for dims in regime_cells(n_max):
        if dims.R > dims.T_eff:
            d, l = dims, dof.ell(dims.T_eff, dims.R, dims.N, dims.Q)
            lhs = pilot_count(d.T_eff, d.R - 1, d.N, d.Q) - pilot_count(d.T_eff, d.R, d.N, d.Q)
            ok &= lhs == d.N - d.T_eff * d.Q - l
            ok &= l < d.N - d.T_eff * d.Q
    check("pilot-count drop identity and redundancy bound on the regime grid", ok)

    ok = True
    for p in range(0, 19):
        for b in range(2, 7):
            for a in range(0, 7):
                for c in range(1, b + 1):
                    count = 0  # of j in (p, q] with mod_star(j + a, b) == c, as q grows
                    for q in range(p + 1, 19):
                        count += mod_star(q + a, b) == c
                        ok &= count <= -(-(q - p) // b)
    check("window counting bound (exhaustive small grid)", ok)

    ok = True
    for N in range(1, n_max + 1):
        for Q in range(1, 4):
            for T in range(1, 13):
                upper = T * (N - 1)  # N chi_upper(T, N); every bound here is scaled by N
                for R in range(1, 13):
                    closed = dof._chi_low_star_scaled(T, R, N, Q)
                    ok &= closed == dof._chi_low_star_brute_scaled(T, R, N, Q)
                    ok &= closed <= upper
                    if N >= 2:
                        # R >= T (N - 1) / (N - T Q), with N - T Q > 0
                        in_region = T * Q < N and R * (N - T * Q) >= upper
                        ok &= (closed == upper) == in_region
    check(f"lower-bound closed form, ordering, equality region (N <= {n_max})", ok)

    ok = True
    rows = dof.figure1_curves(range(2, 1001))
    ok &= rows[-1][1] == Fraction(998001, 250000)
    ok &= all(a[1] <= b[1] for a, b in zip(rows, rows[1:])) and rows[-1][1] < 4
    check("unconstrained figure ratio: exact value at N=1000, monotone toward 4", ok)

    ok = True
    for top in regime_chains(4):
        for pa in pilot_chain(top):
            ok &= jacobian.certify_witness_exact(pa.dims, pa) != 0
    check("witness determinant certified nonzero in exact arithmetic (N <= 4)", ok)

    return ok_all
