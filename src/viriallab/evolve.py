"""Time integration of the four model variants.

Both steps are one Strang composition: half-step quintic phase, linear
flow, half-step phase.  The smooth line problems (free, inverse-power) take
the exact Fourier propagator as the linear flow; the delta potential and
star graphs a Crank-Nicolson Cayley step on the piecewise-linear form with
lumped mass, <K c, c> = sum over the elements of `field.p1_chain` of
|c_b - c_a|^2 / h, plus g |sum_nodes c|^2 from `functionals.vertex_form`:
the vertex conditions are natural conditions of the form and the discrete
mass is conserved exactly.  Blow-up is reported through surrogate triggers
(gradient growth, amplitude cap, step-size underflow).

The step is phase-limited: dt = min(dt_max, phase_tol / rate) with rate
sup|u|^4 + max |V| over the nodes where |u| > V_SUPPORT_FRACTION * sup|u|
(c = 1e-3).  The V phase is exact at every node, so V costs accuracy only
through the splitting error, which |u| weights; a node the solution has not
reached, such as the singular node next to x = 0 under data far from it,
does not set the step.  After the first step that dt is rounded down onto
one ladder, dt_max * 2^(-k/8) (DT_RUNGS = 8), so a blow-up run, whose target
dt falls on every step, keeps one dt over many steps and rebuilds its flow
(propagator or LU factor, that of the last dt only) and leading half phase
about 50 times.

The split stepper takes k^2 on the half spectrum once per call and V from
`smooth_potential`, cached per grid and model.  A run steps one vector in
place, the samples or the coefficients v, and builds a Field only for an
exact norm.  The half phase is exp(i dt/2 |u|^4) vfac in one buffer, vfac =
exp(-i dt/2 V) rebuilt with the leading phase when dt changes (no factor
where V is 0.0, as on the Cayley path).  cos and sin of the nonlinear angle
are taken only on the live nodes, where |u|^4 >= PHASE_TINY / |dt|
(PHASE_TINY = 2^-27, one compare before the angle is scaled); elsewhere the
angle is below 2^-28 (1 + eps), where cos rounds to 1.0 and sin to the
angle, so the factor is bit for bit the one taken at every node.  As the
phase flow keeps |u| fixed, a step with the dt of the step before takes that
step's trailing factor as its leading one, and the trailing phase hands its
|u|^2 to `run` for sup|u|, the V mask and the energy identity ||u'||^2 =
2 E(0) + sum w (|u|^6 / 3 - V |u|^2) - g |sum_vertex u|^2 (w the
quadrature weights, the lumped mass on the Cayley path; g the `vertex_form`
term), which gives each step's gradient norm off the exact norm only by the
energy drift.  It runs only from sup|u| = amp* on, below which its majorant
(the conserved mass times amp^4 / 3 and max(-min V, 0), plus max(-g, 0)
(k amp)^2 for k vertex nodes) keeps the norm under the firing factor.  The
exact norm, sqrt(2 `kinetic_energy`) of the state's Field, runs at the start,
snapshot steps, the last state and where the identity or sup|u| crosses its
threshold, and alone decides the trigger: the identity can delay a
detection, when the energy rises, never fire one.  The split flow
transforms in one spectrum buffer with the Fourier propagator (cos + i sin
on the half spectrum, mirrored) times 1/N, exact for N a power of two and
rebuilt only when dt changes, so a step takes two FFTs, the inverse unscaled.
The Cayley flow (M + i dt/2 K)^{-1} (M - i dt/2 K) v = (M + i dt/2 K)^{-1}
2M v - v takes no matvec with K.  Every edge of a star has the same complex
symmetric block T of M + i dt/2 K, so with one SuperLU factor of T, rebuilt
when dt changes, z = T^{-1} e_0 (cut where it underflows) gives each edge's
first entry of T^{-1} b as z . b; the vertex coefficients (one when shared, J
for delta') follow from their Schur complement, then one call solves the J
edges as J columns.  A line is one edge without vertex coefficients.  A
non-finite sup|u| aborts the run.
scipy is imported only where a sparse matrix is built (`splu`, `p1_form`,
`assemble_hamiltonian`, `AssembledOperator._factor`), so a split-path run
never loads it.

A stored trajectory is a directory of three files: series.csv (t, mass,
energy, gradient norm and optionally the tail mass, one row per
snapshot), summary.json (grid, model, solver config, verdict, drifts,
n_snapshots, the steps taken with their least and largest dt and the
number of distinct dt, the LU factorizations and the `provenance`) and
snapshots.npy, every snapshot in one uncompressed complex128 array written
by `numpy.save` and read back with allow_pickle=False.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import pathlib
import platform
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .field import (
    Field,
    LineField,
    field_from_grid,
    p1_chain,
    spectral_wavenumbers,
    tail_mass,
)
from .functionals import (
    ModelSpec,
    energy,
    kinetic_energy,
    mass,
    require_geometry,
    smooth_potential,
    vertex_form,
)

if TYPE_CHECKING:
    import scipy.sparse as sp


def splu(A):
    """scipy's SuperLU factor of A, scipy imported on the first call: only
    the Cayley path and the assembled form build sparse matrices."""
    import scipy.sparse.linalg

    return scipy.sparse.linalg.splu(A)


@dataclass(frozen=True)
class SolverConfig:
    dt_init: float = 1e-3
    dt_max: float = 1e-3
    phase_tol: float = 1e-3
    T_end: float = 1.0
    snapshot_stride: int = 100
    grad_blowup_factor: float = 10.0
    amp_cap: float = 1e6
    dt_min: float = 1e-12

    def __post_init__(self):
        # written so that NaN fails every check
        if not (0.0 < self.dt_min <= self.dt_init <= self.dt_max):
            raise ValueError("need 0 < dt_min <= dt_init <= dt_max")
        stride = self.snapshot_stride
        if isinstance(stride, bool) or not isinstance(stride, (int, np.integer)) or stride < 1:
            raise ValueError("snapshot_stride must be an integer >= 1")
        if not (self.grad_blowup_factor > 1.0 and self.amp_cap > 0.0):
            raise ValueError("grad_blowup_factor > 1 and amp_cap > 0 required")
        if not (self.phase_tol > 0.0):
            raise ValueError("phase_tol must be positive")
        if not (0.0 < self.T_end < np.inf):
            raise ValueError("T_end must be positive and finite")


@dataclass
class BlowupVerdict:
    status: str  # completed | blowup_detected | aborted
    t_detect: float | None = None
    trigger: str | None = None  # gradient_growth | amplitude_cap | dt_underflow
    diagnostic: str | None = None
    # evidence, not compared: ||u_x|| / ||u0_x||, sup|u| or the rejected dt
    trigger_value: float | None = dataclasses.field(default=None, compare=False)

    def __post_init__(self):
        if self.status not in ("completed", "blowup_detected", "aborted"):
            raise ValueError(f"unknown verdict status {self.status!r}")
        if (self.status == "blowup_detected") != (self.t_detect is not None):
            raise ValueError("t_detect present iff status is blowup_detected")


@dataclass
class Trajectory:
    times: np.ndarray
    snapshots: list
    mass_series: np.ndarray
    energy_series: np.ndarray
    grad_series: np.ndarray
    verdict: BlowupVerdict
    model: ModelSpec
    config: SolverConfig
    # how many steps `run` took, their least and largest dt, the number of
    # distinct dt among them, and the SuperLU factors it built (0 on the split
    # path); None when not recorded (and dt_min, dt_max also when no step was
    # taken)
    steps: int | None = None
    dt_min: float | None = None
    dt_max: float | None = None
    lu_factorizations: int | None = None
    dt_levels: int | None = None

    def __post_init__(self):
        n = len(self.times)
        series = (self.snapshots, self.mass_series, self.energy_series, self.grad_series)
        if any(len(s) != n for s in series):
            raise ValueError("trajectory series lengths disagree")
        if n > 1 and np.min(np.diff(self.times)) <= 0:
            raise ValueError("times must be strictly increasing")


# below this half-step angle cos rounds to 1.0 and sin to the angle itself
PHASE_TINY = 2.0**-27


def _phase(
    u: np.ndarray, dt: float, vfac: np.ndarray | None, nonlinearity_on: bool,
    out: np.ndarray, th: np.ndarray, m2: np.ndarray, live: np.ndarray,
):
    """exp(i dt/2 |u|^4) vfac in `out`, the nonlinear angle in `th`, |u|^2 in
    `m2` and in `live` the nodes where cos and sin of the angle are taken: at
    the others it is below PHASE_TINY / 2, so cos is 1.0 and sin the angle."""
    np.square(u.real, out=m2)
    m2 += np.square(u.imag, out=th)
    if nonlinearity_on:
        np.square(m2, out=th)
    else:
        th.fill(0.0)
    np.greater_equal(th, PHASE_TINY / abs(dt), out=live)
    th *= dt / 2.0
    out.real.fill(1.0)
    np.copyto(out.imag, th)
    np.cos(th, out=out.real, where=live)
    np.sin(th, out=out.imag, where=live)
    if vfac is not None:
        out *= vfac
    return out


def _potential_phase(V: np.ndarray, dt: float, out: np.ndarray) -> np.ndarray:
    """exp(-i dt/2 V) as cos + i sin in `out`."""
    arg = V * (-dt / 2.0)
    np.cos(arg, out=out.real)
    np.sin(arg, out=out.imag)
    return out


def _stepper(n: int, V, nonlinearity_on: bool, flow):
    """Strang step (vec, dt, m2=None) -> vec, overwriting vec: half-step phase,
    linear flow `flow(vec, dt)`, half-step phase, whose |vec|^2 it leaves in m2
    when given.  V is an array or 0.0; its phase factor is rebuilt when dt
    changes.  Each call takes the vector the call before returned, so a step
    with that call's dt reuses its trailing phase factor."""
    fac, th, live, last_dt = np.empty(n, dtype=complex), np.empty(n), np.empty(n, bool), None
    vfac = np.empty(n, dtype=complex) if np.ndim(V) else None

    def step(vec: np.ndarray, dt: float, m2: np.ndarray | None = None) -> np.ndarray:
        nonlocal last_dt
        m2 = np.empty(n) if m2 is None else m2
        if dt != last_dt:
            if dt == 0.0 or not np.isfinite(dt):
                raise ValueError("dt must be a nonzero finite number")
            if vfac is not None:
                _potential_phase(V, dt, vfac)
            _phase(vec, dt, vfac, nonlinearity_on, fac, th, m2, live)
            last_dt = dt
        vec *= fac
        vec = flow(vec, dt)
        vec *= _phase(vec, dt, vfac, nonlinearity_on, fac, th, m2, live)
        return vec

    return step


def _identity(w, V, nodes, g, nonlinearity_on, grad0, vec0, m20, factor) -> tuple:
    """(norm, amp*) of the energy identity at the reference state vec0, |vec0|^2
    = m20, of gradient norm grad0: norm(vec, m2)^2 = grad0^2 + c(vec, m2) -
    c(vec0, m20), c = ||u'||^2 - 2 E = sum w (m2^3 / 3 - V m2) - g |sum
    vec[nodes]|^2; below sup|u| = amp* the majorant of c (module docstring) on
    the mass sum w m20 keeps norm under factor * grad0; amp* = 0.0 if no room
    is left."""
    wV, buf = np.multiply(w, V), np.empty(len(m20))
    has_V, has_nodes = np.ndim(V) > 0, len(nodes) > 0

    def c(vec: np.ndarray, m2: np.ndarray) -> float:
        np.square(m2, out=buf)
        val = float(np.dot(np.multiply(buf, w, out=buf), m2)) / 3.0 if nonlinearity_on else 0.0
        if has_V:
            val -= float(np.dot(wV, m2))
        if has_nodes:
            val -= g * abs(vec[nodes].sum()) ** 2
        return val

    g0sq, c0 = grad0**2, c(vec0, m20)
    m = float(np.sum(np.multiply(w, m20)))
    a, b = m / 3.0 if nonlinearity_on else 0.0, max(-g, 0.0) * len(nodes) ** 2
    # less a relative margin far above the rounding of c
    room = ((factor**2 - 1.0) * g0sq + c0 - max(-float(np.min(V)), 0.0) * m) * (1.0 - 1e-6)
    amp = 0.0
    if room > 0.0:
        den = b + math.sqrt(b * b + 4.0 * a * room)
        amp = math.sqrt(2.0 * room / den) if den > 0.0 else math.inf
    return (lambda vec, m2: math.sqrt(max(g0sq + (c(vec, m2) - c0), 0.0))), amp


def _propagator(k2: np.ndarray, dt: float, out: np.ndarray) -> np.ndarray:
    """exp(-i k^2 dt) in `out` from k^2 on the half spectrum; k^2 is even, so
    the negative wavenumbers mirror it."""
    n = len(k2) - 1
    arg = -dt * k2
    np.cos(arg, out=out.real[: n + 1])
    np.sin(arg, out=out.imag[: n + 1])
    out[n + 1 :] = out[n - 1 : 0 : -1]
    return out


def _split_stepper(template: LineField, model: ModelSpec):
    """(step, (w, V, nodes, g)) on vectors of template's grid: the `_stepper` step
    with the exact Fourier flow in a spectrum buffer, the propagator rebuilt
    when dt changes, and the `_identity` terms (V 0.0 where it is zero)."""
    if template.N & (template.N - 1):
        raise ValueError("split-step needs N a power of two")
    if not model.uses_spectral():
        raise ValueError("split-step handles only the free and inverse_power variants")
    k2 = spectral_wavenumbers(template)[: template.N // 2 + 1] ** 2
    V = smooth_potential(template, model)
    V = 0.0 if V is None else V
    (spec, prop), prop_dt = np.empty((2, template.N), dtype=complex), None

    def flow(u: np.ndarray, dt: float) -> np.ndarray:
        nonlocal prop_dt
        if dt != prop_dt:
            np.multiply(_propagator(k2, dt, prop), 1.0 / template.N, out=prop)
            prop_dt = dt
        np.fft.fft(u, out=spec)
        np.multiply(spec, prop, out=spec)
        return np.fft.ifft(spec, out=u, norm="forward")

    return _stepper(template.N, V, model.nonlinearity_on, flow), (template.h, V, [], 0.0)


def step_splitstep(f: LineField, dt: float, model: ModelSpec) -> LineField:
    """One Strang step for the smooth line variants: exact pointwise phase,
    exact Fourier linear propagator, phase again.  Pointwise modulus is
    invariant under the phase substeps and discrete mass under the linear
    one, so mass is conserved to roundoff."""
    return f.with_values(_split_stepper(f, model)[0](f.values.copy(), dt))


@dataclass
class AssembledOperator:
    """Hermitian discrete Hamiltonian K with lumped mass Mdiag on the
    coefficient vector; `unknown` holds the coefficient index of each node
    of template.values (len(Mdiag) for an eliminated Dirichlet far node)."""

    model: ModelSpec
    template: Field
    K: sp.csc_matrix
    Mdiag: np.ndarray
    unknown: np.ndarray

    def __post_init__(self):
        # (dt, (LU factor, vertex coupling)) of the last dt, and the number of
        # factors built
        self._lu, self.lu_factorizations = (None, None), 0
        # the right-hand side M vec and the flow's output, reused by every solve:
        # two fresh arrays per step fragment the heap (up to 3.7 MB more peak
        # RSS on a 3-edge star of M = 2000)
        self._work = tuple(np.empty(len(self.Mdiag), dtype=complex) for _ in range(2))
        self._M2 = 2.0 * self.Mdiag  # so the solve returns twice its solution, exactly
        # the first flat node holding each coefficient
        self._node_of = np.unique(self.unknown, return_index=True)[1][: len(self.Mdiag)]
        # one row per edge (the line is one edge): its coefficients between the
        # vertex (the homogeneous node on a line) and the Dirichlet node, and
        # the vertex coefficients, none on a line
        rows = np.atleast_2d(p1_chain(self.template, self.unknown, len(self.Mdiag)))
        self._edges, self._vertex = rows[:, 1:-1], np.setdiff1d(rows[:, 0], len(self.Mdiag))
        # the edges as a strided (J, m) view: row stride w, m of each w taken
        J, m = self._edges.shape
        w = int(self._edges[1, 0] - self._edges[0, 0]) if J > 1 else m
        self._view = (int(self._edges[0, 0]) - (w - m), J, w, m)

    def _edge_view(self, vec: np.ndarray) -> np.ndarray:
        """The (J, m) view of vec's edge coefficients, `_edges` in place."""
        o, J, w, m = self._view
        return vec[o : o + J * w].reshape(J, w)[:, w - m :]

    def to_vector(self, f: Field) -> np.ndarray:
        return f.values.ravel()[self._node_of]

    def from_vector(self, vec: np.ndarray, like: Field | None = None) -> Field:
        like = like if like is not None else self.template
        return like.with_values(np.append(vec, 0.0)[self.unknown])

    @functools.cached_property
    def _blocks(self) -> tuple:
        """(Kb, mb, K_SS, K_IS, K_SI): K and Mdiag of one edge block, and K
        among the vertex coefficients S, from the edges' first coefficients to
        S and back; ValueError unless every edge's block equals the first and
        the edges meet S at their first coefficient only.  K is read by slices
        and columns (row indexing of a CSC matrix holds 0.2 MB more), once:
        a slice per factor fragments the heap, 3 MB more peak RSS on a
        3-edge star of M = 2000."""
        K, edges, S = self.K, self._edges, self._vertex
        if not np.array_equal(self._edge_view(np.arange(len(self.Mdiag))), edges):
            raise ValueError("the edge coefficients are not the strided runs of `_edge_view`")
        Kb = [K[e[0] : e[-1] + 1, e[0] : e[-1] + 1] for e in edges]
        mb = self.Mdiag[edges]
        if any((b - Kb[0]).count_nonzero() for b in Kb[1:]) or np.any(mb != mb[0]):
            raise ValueError("the edge blocks of M + i dt/2 K differ: one factor cannot solve them")
        at_S, at_first = K[:, S].toarray(), K[:, edges[:, 0]].toarray()
        K_SS, K_IS, K_SI = at_S[S], at_S[edges[:, 0]], at_first[S]
        if K.count_nonzero() != len(Kb) * Kb[0].count_nonzero() + sum(
            np.count_nonzero(a) for a in (K_SS, K_IS, K_SI)
        ):
            raise ValueError("the edges couple beyond their first coefficient")
        return Kb[0], mb[0], K_SS, K_IS, K_SI

    def _factor(self, dt: float) -> tuple:
        """(SuperLU factor of the edge block T of M + i dt/2 K, coupling): for
        the vertex, z = T^{-1} e_0, which decays geometrically away from the
        vertex, with its subnormal parts set to zero (arithmetic on them is
        slow) and cut after its last nonzero entry, also T^{-1}'s first row as
        T = T^T; the couplings C_SI and C_IS; and the inverse Schur complement
        of the vertex coefficients.  Coupling None on a line."""
        import scipy.sparse as sp

        Kb, mb, K_SS, K_IS, K_SI = self._blocks
        lu = splu((sp.diags(mb).astype(complex) + 0.5j * dt * Kb).tocsc())
        if not self._vertex.size:
            return lu, None
        e0 = np.zeros(len(mb), dtype=complex)
        e0[0] = 1.0
        z = lu.solve(e0)
        tiny = np.finfo(float).tiny
        z.real[np.abs(z.real) < tiny] = 0.0
        z.imag[np.abs(z.imag) < tiny] = 0.0
        z = z[: np.flatnonzero(z)[-1] + 1].copy()
        C_SI, C_IS = 0.5j * dt * K_SI, 0.5j * dt * K_IS
        schur = np.diag(self.Mdiag[self._vertex]) + 0.5j * dt * K_SS
        schur -= z[0] * (C_SI[:, :, None] * C_IS).sum(axis=1)
        return lu, (z, C_SI, C_IS, _inverse(schur))

    def cayley_solve(self, vec: np.ndarray, dt: float) -> np.ndarray:
        """(M + i dt/2 K)^{-1} (M - i dt/2 K) vec in H's output buffer, which the
        next call overwrites (vec may be that buffer); the factor is rebuilt only
        when dt changes, as the split propagator is.

        M - i dt/2 K = 2M - (M + i dt/2 K), so the flow is x - vec, x solving
        (M + i dt/2 K) x = 2M vec: the vertex coefficients from their Schur
        complement and z . b, then one SuperLU call with the J edges as J
        columns, less their vertex coupling; no matvec with K."""
        if dt != self._lu[0]:
            self._lu = (None, None)  # drop the old factor before building the new one
            self._lu = (dt, self._factor(dt))
            self.lu_factorizations += 1
        (lu, coupling), (b, out) = self._lu[1], self._work
        np.multiply(self._M2, vec, out=b)
        B = self._edge_view(b)
        if coupling is not None:
            z, C_SI, C_IS, G = coupling
            # a dot per edge: a matvec takes OpenBLAS's buffer, +3 MB peak RSS
            y0 = np.array([r[: len(z)] @ z for r in B])
            xs = (G * (b[self._vertex] - (C_SI * y0).sum(axis=1))).sum(axis=1)
            B[:, 0] -= (C_IS * xs).sum(axis=1)
            out[self._vertex] = xs - vec[self._vertex]
        np.subtract(lu.solve(B.T).T, self._edge_view(vec), out=self._edge_view(out))
        return out


def _inverse(a: np.ndarray) -> np.ndarray:
    """a^{-1} of a small matrix by Gauss-Jordan elimination with partial
    pivoting, in ufuncs: the Cayley path's small products stay off BLAS and
    LAPACK, whose first call holds 0.9 MB of OpenBLAS buffers for the rest of
    the process."""
    k = len(a)
    m = np.hstack([a, np.eye(k)])
    for i in range(k):
        p = i + int(np.argmax(np.abs(m[i:, i])))
        m[[i, p]] = m[[p, i]]
        m[i] /= m[i, i]
        m -= np.where(np.arange(k) == i, 0.0, m[:, i])[:, None] * m[i]
    return m[:, k:]


def p1_form(template: Field) -> tuple[sp.csc_matrix, np.ndarray, np.ndarray]:
    """(K, Mdiag, unknown): the P1 stiffness sum over elements |c_b - c_a|^2 / h
    and the lumped (quadrature) mass on coefficients c, and the coefficient of
    each node of template.values: one per line node; on a graph one per edge
    node, edge by edge, one vertex coefficient 0 when template.shared_vertex,
    and the count n of coefficients at the eliminated Dirichlet far nodes."""
    import scipy.sparse as sp

    if isinstance(template, LineField):
        unknown, n = np.arange(template.N), template.N
    else:
        J, M, s = template.J, template.M, int(template.shared_vertex)
        unknown, n = np.arange(J)[:, None] * (M - s) + np.arange(M + 1), J * (M - s) + s
        if template.shared_vertex:
            unknown[:, 0] = 0
        unknown[:, -1] = n
    chain = p1_chain(template, unknown, n)
    a, b = chain[..., :-1].ravel(), chain[..., 1:].ravel()
    w = np.full(a.size, 1.0 / template.h)
    rows, cols = np.concatenate([a, b, a, b]), np.concatenate([a, b, b, a])
    K = sp.coo_matrix((np.concatenate([w, w, -w, -w]), (rows, cols)), shape=(n + 1, n + 1))
    wq = np.broadcast_to(template.quad_weights, unknown.shape).ravel()
    Mdiag = np.bincount(unknown.ravel(), weights=wq, minlength=n + 1)[:n]
    return K.tocsc()[:n, :n], Mdiag, unknown


def vertex_layout(template: Field, model: ModelSpec) -> Field:
    """Zero field on the grid of `template` in the layout the model evolves
    in: on a graph the condition decides if the vertex is one value
    (Kirchhoff, Dirac delta) or one per edge (delta prime)."""
    spec = template.grid_spec()
    if model.variant == "graph":
        spec["shared_vertex"] = model.vertex.is_continuity_type
    return field_from_grid(spec)


def require_vertex_layout(f: Field, model: ModelSpec) -> None:
    """`require_geometry`, and a ValueError naming the setting the grid
    needs when f's vertex layout is not the model's `vertex_layout`."""
    require_geometry(f, model)
    need = vertex_layout(f, model).grid_spec()
    if f.grid_spec() != need:
        setting = f'"shared_vertex": {str(need["shared_vertex"]).lower()}'
        raise ValueError(f"a {model.vertex.kind} vertex needs a grid with {setting}")


def assemble_hamiltonian(template: Field, model: ModelSpec) -> AssembledOperator:
    """Discrete quadratic form of the linear operator: `p1_form` on the
    model's `vertex_layout` plus the rank-one point interaction g e e^T, e the
    indicator of `vertex_form`'s nodes."""
    if model.uses_spectral():
        raise ValueError("form assembly covers the delta and graph variants")
    import scipy.sparse as sp

    layout = vertex_layout(template, model)
    K, Mdiag, unknown = p1_form(layout)
    nodes, g = vertex_form(layout, model)
    c = unknown.ravel()[nodes]
    e = sp.coo_matrix((np.ones(len(c)), (c, np.zeros(len(c), int))), shape=(K.shape[0], 1))
    return AssembledOperator(model, template, (K + g * (e @ e.T)).tocsc(), Mdiag, unknown)


def _cayley_stepper(H: AssembledOperator):
    """(step, (w, V, nodes, g)) on H's coefficient vector, as `_split_stepper`'s:
    the Cayley step, and the `_identity` terms on the lumped mass with the
    model's point interaction."""
    nodes, g = vertex_form(vertex_layout(H.template, H.model), H.model)
    step = _stepper(len(H.Mdiag), 0.0, H.model.nonlinearity_on, H.cayley_solve)
    return step, (H.Mdiag, 0.0, H.unknown.ravel()[nodes], g)


def step_cn(f: Field, dt: float, H: AssembledOperator) -> Field:
    """Strang step with the Cayley (Crank-Nicolson) linear propagator:
    half-step quintic phase, exactly norm-preserving linear solve, half-step
    phase."""
    return H.from_vector(_cayley_stepper(H)[0](H.to_vector(f), dt), f)


# rungs per octave of the dt ladder
DT_RUNGS = 8


def _quantize_dt(dt_target: float, dt_max: float) -> float:
    """The largest rung dt_max / 2^(k/DT_RUNGS), k = 0, 1, ..., at most dt_target
    (dt_max when dt_target >= dt_max), so equal rungs share the flow, the
    leading half phase and, on the Cayley path, the LU factor."""
    if dt_target >= dt_max:
        return dt_max
    k = math.ceil(DT_RUNGS * math.log2(dt_max / dt_target))
    dt = dt_max / 2.0 ** (k / DT_RUNGS)
    # log2 rounded down across a rung boundary
    return dt if dt <= dt_target else dt_max / 2.0 ** ((k + 1) / DT_RUNGS)


# nodes where |u| <= V_SUPPORT_FRACTION * sup|u| do not let |V| limit the step
V_SUPPORT_FRACTION = 1e-3


def _trigger(cfg: SolverConfig, grad0: float, amp: float, gradn: float) -> str | None:
    """The blow-up trigger a state with sup norm `amp` and gradient norm
    `gradn` fires, if any."""
    if amp > cfg.amp_cap:
        return "amplitude_cap"
    if grad0 > 0 and gradn > cfg.grad_blowup_factor * grad0:
        return "gradient_growth"
    return None


def run(u0: Field, model: ModelSpec, cfg: SolverConfig) -> Trajectory:
    """Advance u0 to T_end with phase-limited adaptive steps, recording
    snapshots every snapshot_stride steps, or stop at a blow-up trigger.

    Each step reads sup|u|, the V mask and (from the identity's amp* on) its
    `norm` from the |u|^2 the trailing half phase leaves; the exact sup|u| and
    sqrt(2 `kinetic_energy`) of the Field `snapshot(state)` are taken at the
    start, where a value is recorded and where that norm or sup|u| crosses its
    threshold, and they alone decide the trigger and fill grad_series."""
    require_vertex_layout(u0, model)
    if model.uses_spectral():
        H, state, snapshot = None, u0.values.copy(), (lambda v: u0.with_values(v.copy()))
        advance, terms = _split_stepper(u0, model)
    else:
        H = assemble_hamiltonian(u0, model)
        (advance, terms), state, snapshot = _cayley_stepper(H), H.to_vector(u0), H.from_vector
    absV = np.abs(terms[1]) if np.ndim(terms[1]) else None

    def grad(f: Field) -> float:
        return math.sqrt(2.0 * kinetic_energy(f, model))

    snap = snapshot(state)  # the Field of the last state whose exact norm was taken
    grad0 = gradn = grad(snap)
    times, snapshots, grads = [0.0], [u0.copy()], [grad0]
    t, nstep, levels = 0.0, 0, set()  # levels: the distinct dt stepped with
    m2 = np.square(state.real) + np.square(state.imag)  # |u|^2, from each step's phase
    factor = cfg.grad_blowup_factor
    norm, amp_star = _identity(*terms, model.nonlinearity_on, grad0, state, m2, factor)
    amp = float(np.max(np.abs(u0.values), initial=0.0))
    verdict = BlowupVerdict("completed")

    while t < cfg.T_end * (1.0 - 1e-14):
        # the fastest phase rotation |u|^4 + |V| limits the step, |V| only
        # where the solution lives (see the module docstring)
        rate = amp**4 if model.nonlinearity_on else 0.0
        if absV is not None:
            rate += float(absV.max(where=m2 > (V_SUPPORT_FRACTION * amp) ** 2, initial=0.0))
        dt = cfg.dt_max if rate == 0.0 else min(cfg.dt_max, cfg.phase_tol / rate)
        dt = min(dt, cfg.dt_init) if nstep == 0 else _quantize_dt(dt, cfg.dt_max)
        # underflow is judged on the step control's dt, before the step is
        # fitted to T_end; the step that reaches T_end lands on it, and keeps
        # dt (and its LU factor) when T_end - t differs from dt by rounding,
        # at most dt_min
        if dt < cfg.dt_min:
            verdict = BlowupVerdict("blowup_detected", t, "dt_underflow", trigger_value=dt)
            break
        rest = cfg.T_end - t
        if rest < dt - cfg.dt_min:
            dt = rest
        state = advance(state, dt, m2)
        amp = math.sqrt(m2.max(initial=0.0))
        if not math.isfinite(amp):  # an overflow
            verdict = BlowupVerdict("aborted", diagnostic="non-finite field values")
            break
        t = cfg.T_end if rest <= dt + cfg.dt_min else t + dt
        nstep += 1
        levels.add(dt)
        gradn, saved = None, nstep % cfg.snapshot_stride == 0
        if saved or amp > cfg.amp_cap or (amp >= amp_star and norm(state, m2) > factor * grad0):
            snap = snapshot(state)
            amp, gradn = float(np.max(np.abs(state), initial=0.0)), grad(snap)
            trigger = _trigger(cfg, grad0, amp, gradn)
            if trigger is not None:
                value = amp if trigger == "amplitude_cap" else gradn / grad0
                verdict = BlowupVerdict("blowup_detected", t, trigger, trigger_value=value)
                break
        if saved:
            times.append(t)
            snapshots.append(snap)
            grads.append(gradn)
    # an aborted run has overwritten its last finite state
    if t > times[-1] and verdict.status != "aborted":
        if gradn is None:
            snap = snapshot(state)
            gradn = grad(snap)
        times.append(t)
        snapshots.append(snap)
        grads.append(gradn)

    m = np.array([mass(s) for s in snapshots])
    e = np.array([energy(s, model) for s in snapshots])
    return Trajectory(
        times=np.array(times),
        snapshots=snapshots,
        mass_series=m,
        energy_series=e,
        grad_series=np.array(grads),
        verdict=verdict,
        model=model,
        config=cfg,
        steps=nstep,
        dt_min=float(min(levels)) if levels else None,
        dt_max=float(max(levels)) if levels else None,
        lu_factorizations=0 if H is None else H.lu_factorizations,
        dt_levels=len(levels),
    )


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


@functools.cache
def _versions() -> tuple:
    """The viriallab, numpy, scipy and Python versions, read once per process
    (the metadata lookup takes 1.7 ms).  scipy's comes from its installed
    metadata, so that recording it does not import scipy; importlib.metadata
    (1.7 MB resident) is imported here, as only a saved run needs it."""
    import importlib.metadata

    from . import __version__

    scipy = importlib.metadata.version("scipy")
    return __version__, np.__version__, scipy, platform.python_version()


def _provenance(scenario_sha256: str | None = None) -> dict:
    """`_versions`, and the SHA-256 of the scenario file when given."""
    out = dict(zip(("viriallab", "numpy", "scipy", "python"), _versions()))
    if scenario_sha256 is not None:
        out["scenario_sha256"] = scenario_sha256
    return out


def save_trajectory(
    traj: Trajectory, outdir, R: float | None = None, scenario_sha256: str | None = None
) -> None:
    """Write series.csv, snapshots.npy and summary.json, the summary with the
    run's `provenance` last.

    snapshots.npy is one uncompressed complex128 array of shape
    (n_snapshots, *grid shape): (n, N) on a line, (n, J, M+1) on a graph
    (vertex node first on each edge, as `GraphField.values`)."""
    out = pathlib.Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    head = ["t", "mass", "energy", "grad_norm"]
    cols = [traj.times, traj.mass_series, traj.energy_series, traj.grad_series]
    if R is not None:
        head.append(f"tail_mass@{_fmt(R)}")
        cols.append([tail_mass(s, R) for s in traj.snapshots])
    np.savetxt(
        out / "series.csv", np.column_stack(cols), fmt="%.17g", delimiter=",",
        newline="\r\n", header=",".join(head), comments="",
    )
    np.save(out / "snapshots.npy", np.stack([s.values for s in traj.snapshots]))
    mdrift = float(np.max(np.abs(traj.mass_series - traj.mass_series[0]))) / max(
        traj.mass_series[0], 1e-300
    )
    summary = {
        "grid": traj.snapshots[0].grid_spec(),
        "model": traj.model.to_dict(),
        "config": dataclasses.asdict(traj.config),
        "verdict": dataclasses.asdict(traj.verdict),
        "mass_drift_rel": mdrift,
        "energy_drift": float(np.max(np.abs(traj.energy_series - traj.energy_series[0]))),
        "n_snapshots": len(traj.snapshots),
        "steps": traj.steps,
        "dt_min": traj.dt_min,
        "dt_max": traj.dt_max,
        "lu_factorizations": traj.lu_factorizations,
        "dt_levels": traj.dt_levels,
        "provenance": _provenance(scenario_sha256),
    }
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2)


def load_trajectory(indir) -> Trajectory:
    """Read back a `save_trajectory` directory; ValueError when
    snapshots.npy is not a complex array of shape (n_snapshots, *grid
    shape) or series.csv does not hold n_snapshots rows."""
    src = pathlib.Path(indir)
    with open(src / "summary.json") as fh:
        summary = json.load(fh)
    model = ModelSpec.from_dict(summary["model"])
    cfg = SolverConfig(**summary["config"])
    template = field_from_grid(summary["grid"])
    n = summary["n_snapshots"]
    series = np.loadtxt(src / "series.csv", delimiter=",", skiprows=1, ndmin=2)
    if len(series) != n:
        raise ValueError(f"series.csv has {len(series)} rows, summary.json {n} snapshots")
    values = np.load(src / "snapshots.npy", allow_pickle=False)
    shape = (n, *np.shape(template.values))
    if values.shape != shape:
        raise ValueError(f"snapshots.npy has shape {values.shape}, expected {shape}")
    if values.dtype.kind != "c":
        raise ValueError(f"snapshots.npy has dtype {values.dtype}, expected complex")
    return Trajectory(
        times=series[:, 0],
        snapshots=[template.with_values(v) for v in values],
        mass_series=series[:, 1],
        energy_series=series[:, 2],
        grad_series=series[:, 3],
        verdict=BlowupVerdict(**summary["verdict"]),
        model=model,
        config=cfg,
        steps=summary.get("steps"),
        dt_min=summary.get("dt_min"),
        dt_max=summary.get("dt_max"),
        lu_factorizations=summary.get("lu_factorizations"),
        dt_levels=summary.get("dt_levels"),
    )
