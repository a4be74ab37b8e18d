"""Degrees-of-freedom bounds and identifiability experiments for generic
block-fading MIMO channels in the noncoherent setting.

Subpackages by concern: exact bound arithmetic (dof), the within-block channel
model (model), pilot-placement combinatorics (pilots), the recovery Jacobian
and its nonsingularity witnesses (jacobian), Gauss-Newton identifiability
experiments (identify), and Monte-Carlo log-determinant evidence (analysis).
"""

from .model import (
    ColoringMatrix,
    Dims,
    InvalidConfigurationError,
    constant_model,
    random_coloring,
)
from .dof import (
    DofReport,
    chi_const,
    chi_gen,
    chi_low,
    chi_low_star,
    chi_upper,
    dof_report,
    ell,
    figure1_curves,
)
from .pilots import PilotAssignment, build_pilot_sets, card_deal, mod_star, verify_pilot_properties
from .jacobian import (
    JacobianMatrix,
    assemble_jacobian,
    bezout_bound,
    genericity_probe,
    witness_construct,
)
from .identify import RecoveryResult, forward_map, recover
from .analysis import LogDetEstimate, mc_logdet

__version__ = "0.1.0"
