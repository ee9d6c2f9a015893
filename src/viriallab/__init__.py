"""Numerical laboratory for localized virial identities and blow-up
criteria of the one-dimensional quintic (mass-critical) Schrodinger
equation — free, with a repulsive inverse-power or delta potential, and on
star graphs."""

from .evolve import SolverConfig, load_trajectory, run
from .field import GraphField, LineField
from .functionals import ModelSpec
from .soliton import scaled_data
from .virial_analysis import find_R, report

__version__ = "0.1.0"
