"""Log-determinant Monte Carlo and the exact mutual-information bookkeeping."""

import math
from fractions import Fraction

import numpy as np
import pytest
from paper_facts import gaussian_log_magnitude_mean, mc_log_magnitude

from fadingdof.analysis import LOG_FLOOR, mc_logdet
from fadingdof.dof import chi_low, ell
from fadingdof.jacobian import certify_witness_exact, witness_construct
from fadingdof.model import Dims, constant_model, random_coloring
from fadingdof.pilots import pilot_chain

DIMS = Dims.create(2, 3, 4, 1)
PILOTS = pilot_chain(DIMS)


def test_log_magnitude_closed_form_against_quadrature():
    # polar-coordinate oracle: E[log |xi|] = int_0^inf 2 r e^{-r^2} log(r) dr
    from scipy.integrate import quad

    oracle, err = quad(lambda r: 2.0 * r * math.exp(-r * r) * math.log(r), 0.0, 12.0)
    assert err < 1e-8
    closed = gaussian_log_magnitude_mean()
    assert closed == pytest.approx(-np.euler_gamma / 2.0, abs=0)
    assert oracle == pytest.approx(closed, abs=1e-8)
    # the unnormalized integral differs by exactly the density constant pi
    assert math.pi * oracle == pytest.approx(-math.pi * np.euler_gamma / 2.0, abs=1e-9)


def test_log_magnitude_monte_carlo_matches():
    est = mc_log_magnitude(samples=200_000, seed=303)
    assert abs(est - gaussian_log_magnitude_mean()) < 1e-2


def test_mc_logdet_generic_is_finite_and_unclipped():
    Z = random_coloring(DIMS, seed=40)
    est = mc_logdet(Z, PILOTS, samples=2000, seed=41)
    assert math.isfinite(est.mean)
    assert est.clipped_fraction == 0.0
    assert est.stderr < 0.5


def test_mc_logdet_constant_model_is_pinned_at_floor():
    # structurally singular draws: everything clips, the mean sits on the floor
    Z = constant_model(DIMS)
    est = mc_logdet(Z, PILOTS, samples=200, seed=42)
    assert est.clipped_fraction == 1.0
    assert est.mean == LOG_FLOOR


@pytest.mark.parametrize("dims", [DIMS, Dims.create(3, 4, 12, 1)], ids=["2341", "34121"])
def test_mc_logdet_on_the_certified_witness_coloring_clips_nothing(dims):
    # det J(Z; .) is certified not identically zero on the exact witness's 0/1 coloring,
    # so E log |det J|^2 is finite there (Carbery-Wright); no draw may clip
    chain = pilot_chain(dims)
    witness = witness_construct(chain, exact=True)
    assert certify_witness_exact(chain).all()
    est = mc_logdet(witness[0], chain, samples=256, seed=43)
    assert est.clipped_fraction == 0.0
    assert math.isfinite(est.mean) and est.mean > LOG_FLOOR
    assert mc_logdet(constant_model(dims), chain, samples=256, seed=43).clipped_fraction == 1.0


def test_mc_logdet_half_sample_stability():
    Z = random_coloring(DIMS, seed=40)
    a = mc_logdet(Z, PILOTS, samples=1500, seed=1)
    b = mc_logdet(Z, PILOTS, samples=1500, seed=2)
    combined = math.hypot(a.stderr, b.stderr)
    assert abs(a.mean - b.mean) < 3.0 * combined


def test_mc_logdet_reproducible():
    Z = random_coloring(DIMS, seed=40)
    a = mc_logdet(Z, PILOTS, samples=300, seed=9)
    b = mc_logdet(Z, PILOTS, samples=300, seed=9)
    assert a == b


def chain_prelog(dims):
    """Prelog of the mutual-information chain: min{RN - R T_eff Q, T_eff N - T_eff} / N."""
    T_eff, R, N, Q = dims.T_eff, dims.R, dims.N, dims.Q
    return Fraction(min(R * N - R * T_eff * Q, T_eff * N - T_eff), N)


def test_entropy_chain_small_example():
    assert chain_prelog(DIMS) * DIMS.N == 6  # min{12 - 6, 8 - 2}
    assert chi_low(DIMS.T_eff, DIMS.R, DIMS.N, DIMS.Q) == Fraction(3, 2)
    assert PILOTS.n_useful == 12  # log2 of the isolated-zero cap


def test_entropy_chain_degenerate_branch():
    # N = T_eff*Q: the chain leaves no prelog, and neither does the bound
    assert chain_prelog(Dims(T=2, R=3, N=4, Q=2, T_eff=2)) == chi_low(2, 3, 4, 2) == 0


def test_entropy_chain_matches_chi_low_on_grid():
    for N in range(1, 9):
        for Q in range(1, N + 1):
            for T_eff in range(1, 5):
                for R in range(T_eff, 9):
                    dims = Dims(T=T_eff, R=R, N=N, Q=Q, T_eff=T_eff)
                    assert chain_prelog(dims) == chi_low(T_eff, R, N, Q)


def test_entropy_bits_equal_useful_output_count():
    from fadingdof.jacobian import bezout_bound

    for dims in [DIMS, Dims.create(1, 1, 2, 1), Dims.create(2, 2, 5, 1, T_eff=2)]:
        chain = pilot_chain(dims)
        bits = dims.R * dims.N - ell(dims.T_eff, dims.R, dims.N, dims.Q)
        assert bits == chain.n_useful
        assert 2**bits == bezout_bound(chain)
