"""Virial post-processing of trajectories.

Builds the report comparing second differences of the weighted variance I
(the three-point stencil for unequal spacing, so adaptive runs are accepted)
against the identity right-hand side, evaluates the decay inequality
rhs <= 16 E + 2 eta wherever the tail mass is small enough, selects R by the
two admissibility clauses, and computes the quadratic envelope root that
bounds the contradiction time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import weight
from .evolve import Trajectory
from .field import Field, tail_mass, tail_mass_block
from .functionals import ModelSpec, VirialWeights, energy, grad_block, kinetic_energy, mass
from .functionals import virial_I, virial_I_block, virial_I_prime_block, virial_rhs_block


def a0() -> float:
    """Tail-mass smallness threshold (3/8)^{1/4}."""
    return (3.0 / 8.0) ** 0.25


INEQ_SLACK = 1e-6


@dataclass
class VirialReport:
    R: float
    times: np.ndarray
    I: np.ndarray
    Iprime_formula: np.ndarray
    Isecond_fd: np.ndarray
    rhs_formula: np.ndarray
    residual: np.ndarray
    tail_mass: np.ndarray
    ineq_checked: np.ndarray
    ineq_satisfied: np.ndarray
    eta: float
    eta_tilde: float
    envelope_root: float | None  # from I and I' of snapshot 0; None unless eta_tilde, I(0) > 0

    def max_residual(self) -> float:
        return float(np.max(self.residual)) if len(self.residual) else 0.0

    def violations(self) -> int:
        bad = self.ineq_checked & ~self.ineq_satisfied
        return int(np.sum(bad))


BLOCK_VALUES = 2**15


def _blocks(snapshots):
    """The snapshots' samples in stacks of at most BLOCK_VALUES grid values (one
    snapshot at least), so that memory does not grow with the snapshot count."""
    size = max(1, BLOCK_VALUES // np.size(snapshots[0].values))
    for i in range(0, len(snapshots), size):
        yield np.stack([s.values for s in snapshots[i : i + size]])


def _decay_flags(rhs, tail, E: float, eta_val: float) -> tuple[np.ndarray, np.ndarray]:
    """(checked, satisfied) for rhs <= 16 E + 2 eta + slack, checked only where
    tail_mass <= a0."""
    checked = tail <= a0()
    bound = 16.0 * E + 2.0 * eta_val + INEQ_SLACK * (1.0 + abs(E))
    return checked, ~checked | (rhs <= bound)


def inequality_flags(
    snapshots, R: float, model: ModelSpec, E: float, eta_val: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-snapshot (checked, satisfied, rhs) for the decay inequality
    rhs <= 16 E + 2 eta + slack, checked only where tail_mass <= a0, with each
    chi_R order and the tail weights evaluated once and the derivative once
    per block."""
    grid, cols = snapshots[0], []
    w = VirialWeights(grid, R, model)
    for u in _blocks(snapshots):
        du = grad_block(grid, u, model)
        cols.append((virial_rhs_block(w, u, du), tail_mass_block(grid, u, w.tail)))
    rhs, tail = (np.concatenate(c) for c in zip(*cols))
    return (*_decay_flags(rhs, tail, E, eta_val), rhs)


def second_difference(times: np.ndarray, I: np.ndarray) -> np.ndarray:
    """I'' at the interior times by the three-point stencil for unequal spacing,
    2 [(I_{k+1} - I_k)/h2 - (I_k - I_{k-1})/h1] / (h1 + h2), exact on quadratics."""
    h1, h2 = np.diff(times)[:-1], np.diff(times)[1:]
    return 2.0 * ((I[2:] - I[1:-1]) / h2 - (I[1:-1] - I[:-2]) / h1) / (h1 + h2)


def report(traj: Trajectory, R: float, model: ModelSpec) -> VirialReport:
    """Identity check on the interior snapshots: I'' by `second_difference`
    of I against the formula rhs, in one walk over the snapshot blocks."""
    if len(traj.snapshots) < 3:
        raise ValueError("need at least 3 snapshots")
    grid, cols = traj.snapshots[0], []
    w = VirialWeights(grid, R, model)
    for u in _blocks(traj.snapshots):  # as in `inequality_flags`, with I and I'
        du = grad_block(grid, u, model)
        cols.append((virial_I_block(w, u), virial_I_prime_block(w, u, du),
                     virial_rhs_block(w, u, du), tail_mass_block(grid, u, w.tail)))
    I, Ip, rhs, tail = (np.concatenate(c) for c in zip(*cols))
    Ifd = second_difference(np.asarray(traj.times), I)
    E = float(traj.energy_series[0])
    eta_val = weight.eta(R, float(traj.mass_series[0]))
    eta_tilde = -8.0 * E - eta_val
    checked, satisfied = _decay_flags(rhs[1:-1], tail[1:-1], E, eta_val)
    return VirialReport(
        R=R,
        times=np.asarray(traj.times)[1:-1],
        I=I[1:-1],
        Iprime_formula=Ip[1:-1],
        Isecond_fd=Ifd,
        rhs_formula=rhs[1:-1],
        residual=np.abs(Ifd - rhs[1:-1]),
        tail_mass=tail[1:-1],
        ineq_checked=checked,
        ineq_satisfied=satisfied,
        eta=eta_val,
        eta_tilde=eta_tilde,
        envelope_root=envelope(I[0], Ip[0], eta_tilde) if eta_tilde > 0 and I[0] > 0 else None,
    )


def _clauses(u0: Field, R: float, E: float, m: float, grad_sq: float) -> tuple[bool, bool, float]:
    """`selection_clauses` at R, given the R-independent E, mass m and ||u0'||^2."""
    eta_tilde = -8.0 * E - weight.eta(R, m)
    if eta_tilde <= 0:
        return False, False, eta_tilde
    lhs = np.sqrt(virial_I(u0, R)) / R * np.sqrt(1.0 + 4.0 * grad_sq / eta_tilde)
    return True, bool(lhs <= a0() / 2.0), eta_tilde


def _invariants(u0: Field, model: ModelSpec) -> tuple[float, float, float]:
    """(E, mass, ||u0'||^2), the inputs of `_clauses`."""
    K = kinetic_energy(u0, model)
    return energy(u0, model, K), mass(u0), 2.0 * K


def selection_clauses(u0: Field, model: ModelSpec, R: float) -> tuple[bool, bool, float]:
    """The two admissibility clauses at a given R: eta_tilde > 0, and
    (1/R) sqrt(I(0)) sqrt(1 + 4 ||u0'||^2 / eta_tilde) <= a0 / 2.
    Returns (clause1, clause2, eta_tilde)."""
    return _clauses(u0, R, *_invariants(u0, model))


# find_R needs E < -ENERGY_FLOOR ||u0'||^2 (the ground state, E = 0, reads -1.6e-14)
ENERGY_FLOOR = 1e-12


def find_R(u0: Field, model: ModelSpec, max_doublings: int = 60) -> tuple[float, float, float]:
    """Smallest R on the ladder 2^j satisfying both selection clauses.

    Requires E < -ENERGY_FLOOR ||u0'||^2; returns (R, eta, eta_tilde)."""
    E, m, grad_sq = _invariants(u0, model)
    if not E < -ENERGY_FLOOR * grad_sq:
        raise ValueError(f"energy must be negative beyond rounding, got {E:.6g}")
    R = 1.0
    for _ in range(max_doublings + 1):
        c1, c2, eta_tilde = _clauses(u0, R, E, m, grad_sq)
        if c1 and c2:
            if tail_mass(u0, R) > a0() / 2.0 + 1e-12:
                raise RuntimeError("tail-mass bound should follow from the clauses")
            return R, weight.eta(R, m), eta_tilde
        R *= 2.0
    raise RuntimeError(f"no admissible R found after {max_doublings} doublings")


def envelope(I0: float, I0prime: float, eta_tilde: float) -> float:
    """Positive root of I0 + I0prime t - eta_tilde t^2 (the time by which
    the quadratic envelope forces the weighted variance negative)."""
    if eta_tilde <= 0:
        raise ValueError("eta_tilde must be positive")
    if I0 <= 0:
        raise ValueError("I0 must be positive")
    disc = I0prime**2 + 4.0 * eta_tilde * I0
    return float((I0prime + np.sqrt(disc)) / (2.0 * eta_tilde))
