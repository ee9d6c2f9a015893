"""Numerical laboratory for localized virial identities and blow-up
criteria of the one-dimensional quintic (mass-critical) Schrodinger
equation — free, with a repulsive inverse-power or delta potential, and on
star graphs."""

from .field import Field, GraphField, LineField, lp_norm, tail_mass
from .functionals import (
    ModelSpec,
    VertexCondition,
    check_potential_condition,
    energy,
    kinetic_energy,
    mass,
    ogawa_tsutsumi_bound,
    p_functional,
    sign_condition_value,
    virial_I,
    virial_I_prime,
    virial_rhs,
)
from .evolve import (
    BlowupVerdict,
    SolverConfig,
    Trajectory,
    load_trajectory,
    run,
    save_trajectory,
)
from .soliton import GroundState, exact_Q, ground_state_flow, scaled_data
from .virial_analysis import VirialReport, a0, envelope, find_R, report
from .weight import WeightProfile, chi, chi_R, eta, verify_profile, zeta

__version__ = "0.1.0"
