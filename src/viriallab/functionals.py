"""Conserved functionals and localized virial quantities.

Covers mass, the four energies (free line, inverse-power potential, delta
potential, star graph), the vertex functional P, the weighted variance
I = int chi_R |u|^2 with its first derivative formula and the full virial
second-derivative right-hand sides, the admissibility check for general
potentials, and the endpoint interpolation inequality used as a
property-test oracle.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import weight
from .field import (
    Field,
    GraphField,
    LineField,
    derivative,
    field_from_grid,
    grid_sum,
    lp_norm,
    p1_chain,
    spectral_wavenumbers,
    tail_mass,
    tail_quad_weights,
)


@dataclass(frozen=True)
class VertexCondition:
    """Vertex coupling of a star-graph Laplacian (encoded for the solvers
    by `vertex_form`)."""

    kind: str  # kirchhoff | dirac_delta | delta_prime
    gamma: float = 0.0

    def __post_init__(self):
        if self.kind not in ("kirchhoff", "dirac_delta", "delta_prime"):
            raise ValueError(f"unknown vertex condition kind {self.kind!r}")
        if not np.isfinite(self.gamma):
            raise ValueError("vertex gamma must be finite")
        if self.kind == "delta_prime" and self.gamma == 0.0:
            raise ValueError("delta_prime requires gamma != 0")

    @property
    def is_continuity_type(self) -> bool:
        return self.kind in ("kirchhoff", "dirac_delta")

    def to_dict(self) -> dict:
        return {"kind": self.kind, "gamma": self.gamma}

    @classmethod
    def from_dict(cls, d: dict) -> "VertexCondition":
        return cls(kind=d["kind"], gamma=float(d.get("gamma", 0.0)))


@dataclass(frozen=True)
class ModelSpec:
    """Which equation variant is being solved."""

    variant: str  # free | inverse_power | delta | graph
    gamma: float = 0.0
    mu: float = 0.0
    vertex: VertexCondition | None = None
    nonlinearity_on: bool = True

    def __post_init__(self):
        if self.variant not in ("free", "inverse_power", "delta", "graph"):
            raise ValueError(f"unknown model variant {self.variant!r}")
        if not (np.isfinite(self.gamma) and np.isfinite(self.mu)):
            raise ValueError("gamma and mu must be finite")
        if self.variant == "inverse_power":
            if not (self.gamma > 0):
                raise ValueError("inverse_power requires gamma > 0")
            if not (0.0 < self.mu < 1.0):
                raise ValueError("inverse_power requires 0 < mu < 1")
        if self.variant == "graph" and self.vertex is None:
            raise ValueError("graph variant requires a vertex condition")

    @classmethod
    def free(cls, nonlinearity_on: bool = True) -> "ModelSpec":
        return cls("free", nonlinearity_on=nonlinearity_on)

    @classmethod
    def inverse_power(cls, gamma: float, mu: float, nonlinearity_on: bool = True) -> "ModelSpec":
        return cls("inverse_power", gamma=gamma, mu=mu, nonlinearity_on=nonlinearity_on)

    @classmethod
    def delta(cls, gamma: float, nonlinearity_on: bool = True) -> "ModelSpec":
        return cls("delta", gamma=gamma, nonlinearity_on=nonlinearity_on)

    @classmethod
    def graph(cls, vertex: VertexCondition, nonlinearity_on: bool = True) -> "ModelSpec":
        return cls("graph", vertex=vertex, nonlinearity_on=nonlinearity_on)

    def uses_spectral(self) -> bool:
        """Spectral differentiation applies to smooth periodic line problems."""
        return self.variant in ("free", "inverse_power")

    def to_dict(self) -> dict:
        d = {
            "variant": self.variant,
            "gamma": self.gamma,
            "mu": self.mu,
            "nonlinearity_on": self.nonlinearity_on,
        }
        if self.vertex is not None:
            d["vertex"] = self.vertex.to_dict()
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ModelSpec":
        vertex = VertexCondition.from_dict(d["vertex"]) if "vertex" in d else None
        return cls(
            variant=d["variant"],
            gamma=float(d.get("gamma", 0.0)),
            mu=float(d.get("mu", 0.0)),
            vertex=vertex,
            nonlinearity_on=bool(d.get("nonlinearity_on", True)),
        )


def potential_on_grid(model: ModelSpec, x: np.ndarray) -> np.ndarray:
    """Pointwise smooth-potential samples (zero except for inverse_power)."""
    if model.variant != "inverse_power":
        return np.zeros_like(np.asarray(x, dtype=float))
    ax = np.abs(np.asarray(x, dtype=float))
    if np.min(ax) == 0.0:
        raise ValueError("inverse-power potential needs a grid with no node at x = 0")
    return model.gamma / ax**model.mu


def smooth_potential(f: Field, model: ModelSpec) -> np.ndarray | None:
    """`potential_on_grid` on f's grid, read-only, or None where it is zero
    everywhere; evaluated once per grid and model."""
    return _smooth_potential(model, tuple(f.grid_spec().items()))


@functools.lru_cache(maxsize=8)
def _smooth_potential(model: ModelSpec, grid: tuple) -> np.ndarray | None:
    V = potential_on_grid(model, field_from_grid(dict(grid)).x)
    V.flags.writeable = False
    return V if V.any() else None


def require_geometry(f: Field, model: ModelSpec) -> None:
    """Reject a field whose geometry does not match the model: the graph
    variant needs a GraphField, the line variants a LineField."""
    if isinstance(f, GraphField) != (model.variant == "graph"):
        need = "GraphField" if model.variant == "graph" else "LineField"
        raise ValueError(f"{model.variant} model needs a {need}")


def origin_index(f: LineField) -> int:
    """Index of the node at x = 0 (required for the delta potential)."""
    i = int(np.argmin(np.abs(f.x)))
    if abs(f.x[i]) > 0.25 * f.h:
        raise ValueError("delta potential needs a grid node at x = 0 (stagger off)")
    return i


def mass(f: Field) -> float:
    return lp_norm(f, 2) ** 2


def grad_block(grid: Field, u: np.ndarray, model: ModelSpec) -> np.ndarray:
    """The model's `derivative` of each sample array in the block u on grid."""
    return derivative(grid, "spectral" if model.uses_spectral() else "fd", u)


@functools.lru_cache(maxsize=8)
def _parseval_k2(L: float, N: int) -> np.ndarray:
    """Read-only k^2 of a line grid with the unpaired Nyquist mode dropped."""
    k2 = spectral_wavenumbers(LineField(L=L, N=N, values=np.zeros(N))) ** 2
    k2[N // 2] = 0.0
    k2.flags.writeable = False
    return k2


def kinetic_energy(f: Field, model: ModelSpec) -> float:
    """(1/2) integral of |du|^2.

    The spectral variants take it through Parseval from one FFT,
    (h / 2N) sum k^2 |fft u|^2 without the Nyquist mode, the norm of the
    spectral `derivative`.  Delta and graph variants use the piecewise-linear
    element form sum |u_{i+1} - u_i|^2 / h along `p1_chain`, which is
    exactly the quadratic form conserved by the Cayley scheme.
    """
    if model.uses_spectral():
        require_geometry(f, model)
        if f.N & (f.N - 1):
            raise ValueError("spectral derivative needs N a power of two")
        spec = np.fft.fft(f.values)
        power = spec.real**2 + spec.imag**2
        return 0.5 * f.h / f.N * float(np.dot(_parseval_k2(f.L, f.N), power))
    diff = np.diff(p1_chain(f, f.values, 0.0), axis=-1)
    return 0.5 * float(np.vdot(diff, diff).real / f.h)


def vertex_form(f: Field, model: ModelSpec) -> tuple[list, float]:
    """The point interaction P(u) = g |sum_{i in nodes} u_i|^2 as (nodes, g),
    nodes being flat indices into f.values: the origin node with g = gamma
    (delta line), the vertex with g = gamma (Dirac delta vertex), every
    edge's vertex node with g = 1/gamma (delta prime), none otherwise."""
    require_geometry(f, model)
    if model.variant == "delta":
        return [origin_index(f)], model.gamma
    if model.variant != "graph" or model.vertex.kind == "kirchhoff":
        return [], 0.0
    if model.vertex.kind == "dirac_delta":
        return [0], model.vertex.gamma
    return list(range(0, f.J * (f.M + 1), f.M + 1)), 1.0 / model.vertex.gamma


def _vertex_energy(f: Field, u: np.ndarray, model: ModelSpec) -> np.ndarray:
    """P(u) of `vertex_form` for each sample array in the block u on f's grid."""
    nodes, g = vertex_form(f, model)
    flat = u.reshape(u.shape[: u.ndim - np.ndim(f.values)] + (-1,))
    return g * np.square(np.abs(np.sum(flat[..., nodes], axis=-1)))


def p_functional(f: GraphField, vc: VertexCondition) -> float:
    """Vertex energy P: 0 (Kirchhoff), gamma |f1(0)|^2 (delta),
    |sum_j f_j(0)|^2 / gamma (delta')."""
    return float(_vertex_energy(f, f.values, ModelSpec.graph(vc)))


def _smooth_moment(f: Field, u: np.ndarray, model: ModelSpec):
    """int V |u|^2 for the smooth potential V (0 where V is zero), of each
    array of the block u."""
    V = smooth_potential(f, model)
    return 0.0 if V is None else grid_sum(f, f.quad_weights * V * np.abs(u) ** 2)


def potential_energy(f: Field, model: ModelSpec) -> float:
    """The potential/vertex part of the energy, 0.5 int V |u|^2 + 0.5 P."""
    return 0.5 * float(_smooth_moment(f, f.values, model) + _vertex_energy(f, f.values, model))


def energy(f: Field, model: ModelSpec) -> float:
    """Conserved energy of the given variant on the given field."""
    e = kinetic_energy(f, model) + potential_energy(f, model)
    if model.nonlinearity_on:
        e -= lp_norm(f, 6) ** 6 / 6.0
    return e


class VirialWeights:
    """The weights of the virial block functions on one grid at one R, for one
    model: each is evaluated when first read and then kept, so that a walk
    over snapshot blocks evaluates every chi_R order, the potential's weight
    and the tail weights once."""

    def __init__(self, grid: Field, R: float, model: ModelSpec | None = None):
        self.grid, self.R, self.model = grid, R, model or ModelSpec.free()

    @functools.cached_property
    def quad(self) -> np.ndarray:
        return self.grid.quad_weights

    @functools.cached_property
    def chi0(self) -> np.ndarray:  # the quadrature times chi_R
        return self.quad * weight.chi_R(self.grid.x, self.R, 0)

    @functools.cached_property
    def chi1(self) -> np.ndarray:  # chi_R' alone
        return weight.chi_R(self.grid.x, self.R, 1)

    @functools.cached_property
    def chi2(self) -> np.ndarray:  # the quadrature times chi_R''
        return self.quad * weight.chi_R(self.grid.x, self.R, 2)

    @functools.cached_property
    def chi4(self) -> np.ndarray:  # the quadrature times chi_R''''
        return self.quad * weight.chi_R(self.grid.x, self.R, 4)

    @functools.cached_property
    def smooth(self) -> np.ndarray | None:
        """The quadrature times (R/x) chi_R'(x) V; None where V is zero."""
        V = smooth_potential(self.grid, self.model)
        return None if V is None else self.quad * weight.zeta_over_s(self.grid.x / self.R) * V

    @functools.cached_property
    def tail(self) -> np.ndarray:
        return tail_quad_weights(self.grid, self.R)


def virial_I(f: Field, R: float) -> float:
    """Weighted variance int chi_R(x) |u|^2."""
    return float(virial_I_block(VirialWeights(f, R), f.values))


def virial_I_block(w: VirialWeights, u: np.ndarray) -> np.ndarray:
    """`virial_I` of each sample array in the block u on the grid of w."""
    return grid_sum(w.grid, w.chi0 * np.abs(u) ** 2)


def virial_I_prime(f: Field, R: float, model: ModelSpec | None = None) -> float:
    """First-derivative formula 2 Im int chi_R'(x) conj(u) du."""
    du = grad_block(f, f.values, model or ModelSpec.free())
    return float(virial_I_prime_block(VirialWeights(f, R), f.values, du))


def virial_I_prime_block(w: VirialWeights, u: np.ndarray, du: np.ndarray) -> np.ndarray:
    """`virial_I_prime` of each sample array in the block u, du its `grad_block`."""
    integrand = w.chi1 * np.conj(u) * du
    return 2.0 * np.imag(grid_sum(w.grid, w.quad * integrand))


def _potential_rhs(w: VirialWeights, u: np.ndarray):
    """The variant's term in the localized virial identity with w = chi_R, of
    each array of the block u: 2 mu int (R/x) chi_R'(x) V |u|^2 + 2 w''(0) P, w''(0) = 2."""
    moment = 0.0 if w.smooth is None else grid_sum(w.grid, w.smooth * np.abs(u) ** 2)
    return 2.0 * w.model.mu * moment + 4.0 * _vertex_energy(w.grid, u, w.model)


def sign_condition_value(f: Field, R: float, model: ModelSpec) -> float:
    """Discrete value of the model's nonpositive virial correction.

    This is rhs(model) - rhs(free form) - 16 (E_model - E_free) on the same
    field: the term the blow-up estimates discard by sign.
    """
    rhs = _potential_rhs(VirialWeights(f, R, model), f.values)
    return float(rhs) - 16.0 * potential_energy(f, model)


def virial_rhs(f: Field, R: float, model: ModelSpec) -> float:
    """Right-hand side of the matching localized virial identity with
    w = chi_R: 4 int w''|du|^2 - (4/3) int w''|u|^6 - int w''''|u|^2 plus the
    variant's extra term (potential, vertex value, or vertex functional)."""
    du = grad_block(f, f.values, model)
    return float(virial_rhs_block(VirialWeights(f, R, model), f.values, du))


def virial_rhs_block(w: VirialWeights, u: np.ndarray, du: np.ndarray):
    """`virial_rhs` for w's model of each sample array in the block u, du its
    `grad_block`."""
    val = 4.0 * grid_sum(w.grid, w.chi2 * np.abs(du) ** 2)
    if w.model.nonlinearity_on:
        val -= 4.0 / 3.0 * grid_sum(w.grid, w.chi2 * np.abs(u) ** 6)
    val -= grid_sum(w.grid, w.chi4 * np.abs(u) ** 2)
    return val + _potential_rhs(w, u)


@dataclass
class ConditionReport:
    passed: bool
    worst_margin: float
    worst_x: float
    worst_index: int


def check_potential_condition(
    x: np.ndarray, Vtab: np.ndarray, Vptab: np.ndarray, R: float
) -> ConditionReport:
    """Check -R chi'(x/R) V'(x) - 4 V(x) <= 0 at every node.

    This is the admissibility condition a general potential must satisfy for
    the blow-up argument; the report carries the worst (most positive)
    value and where it occurs.
    """
    x = np.asarray(x, dtype=float)
    Vtab = np.asarray(Vtab, dtype=float)
    Vptab = np.asarray(Vptab, dtype=float)
    if not (x.shape == Vtab.shape == Vptab.shape):
        raise ValueError("x, V and V' tables must have equal length")
    if R <= 0:
        raise ValueError(f"R must be positive, got {R}")
    vals = -R * weight.zeta(x / R, 0) * Vptab - 4.0 * Vtab
    i = int(np.argmax(vals))
    return ConditionReport(
        passed=bool(vals[i] <= 1e-12),
        worst_margin=float(vals[i]),
        worst_x=float(x[i]),
        worst_index=i,
    )


def ogawa_tsutsumi_bound(
    f: LineField, g: LineField, R: float
) -> tuple[float, float]:
    """Both sides of the endpoint interpolation inequality

        ||f g||_{Linf(|x|>=R)}^2
            <= ||f||_{L2(|x|>=R)} { 2 ||g^2 df||_{L2} + ||f d(g^2)||_{L2} }

    (tail norms throughout).  Evaluation only; tests assert lhs <= rhs."""
    if R <= 0:
        raise ValueError(f"R must be positive, got {R}")
    if np.max(np.abs(np.imag(g.values))) > 0:
        raise ValueError("g must be real-valued")
    wt = tail_quad_weights(f, R)
    gv = np.real(g.values)
    in_tail = np.abs(f.x) >= R
    prod = np.abs(f.values * gv)
    lhs = float(np.max(prod[in_tail], initial=0.0) ** 2)

    df = derivative(f, "spectral")
    dg2 = derivative(g.with_values(gv**2), "spectral").real
    f_tail = tail_mass(f, R)
    t1 = float(np.sqrt(np.sum(wt * np.abs(gv**2 * df) ** 2)))
    t2 = float(np.sqrt(np.sum(wt * np.abs(f.values * dg2) ** 2)))
    rhs = f_tail * (2.0 * t1 + t2)
    return lhs, rhs
