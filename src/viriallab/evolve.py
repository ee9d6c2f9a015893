"""Time integration of the four model variants.

Smooth line problems (free, inverse-power) use Strang splitting with the
exact Fourier propagator.  The delta potential and star graphs use a
Crank-Nicolson Cayley step on a piecewise-linear form discretization with
lumped mass, so the vertex conditions are natural conditions of the form
and the discrete mass is conserved exactly.  Blow-up is reported through
surrogate triggers (gradient growth, amplitude cap, step-size underflow).
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .field import (
    Field,
    LineField,
    field_from_grid,
    lp_norm,
    read_snapshot,
    spectral_wavenumbers,
    tail_mass,
    write_snapshot,
)
from .functionals import (
    ModelSpec,
    energy,
    kinetic_energy,
    mass,
    origin_index,
    potential_on_grid,
    require_geometry,
)


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
        if not (self.snapshot_stride >= 1):
            raise ValueError("snapshot_stride must be >= 1")
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

    def __post_init__(self):
        n = len(self.times)
        if not (len(self.snapshots) == len(self.mass_series) == len(self.energy_series) == n):
            raise ValueError("trajectory series lengths disagree")
        if n > 1 and np.min(np.diff(self.times)) <= 0:
            raise ValueError("times must be strictly increasing")


def _phase_factor(u_abs2_sq: np.ndarray, V: np.ndarray | float, half_dt: float) -> np.ndarray:
    return np.exp(1j * half_dt * (u_abs2_sq - V))


def step_splitstep(f: LineField, dt: float, model: ModelSpec) -> LineField:
    """One Strang step for the smooth line variants: exact pointwise phase,
    exact Fourier linear propagator, phase again.  Pointwise modulus is
    invariant under the phase substeps and discrete mass under the linear
    one, so mass is conserved to roundoff."""
    if dt == 0.0 or not np.isfinite(dt):
        raise ValueError("dt must be a nonzero finite number")
    if f.N & (f.N - 1):
        raise ValueError("split-step needs N a power of two")
    if not model.uses_spectral():
        raise ValueError("split-step handles only the free and inverse_power variants")
    V = potential_on_grid(model, f.x) if model.variant == "inverse_power" else 0.0
    k = spectral_wavenumbers(f)
    u = f.values
    nl = np.abs(u) ** 4 if model.nonlinearity_on else 0.0
    u = u * _phase_factor(nl, V, dt / 2.0)
    u = np.fft.ifft(np.exp(-1j * k**2 * dt) * np.fft.fft(u))
    nl = np.abs(u) ** 4 if model.nonlinearity_on else 0.0
    u = u * _phase_factor(nl, V, dt / 2.0)
    return f.with_values(u)


@dataclass
class AssembledOperator:
    """Hermitian discrete Hamiltonian K with lumped mass Mdiag, plus the
    layout mapping fields to coefficient vectors."""

    kind: str  # line | graph_shared | graph_full
    model: ModelSpec
    template: Field
    K: sp.csc_matrix
    Mdiag: np.ndarray
    _lu_cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        # _unknown: coefficient index held by each node of template.values,
        # len(Mdiag) for the eliminated Dirichlet far node of a graph edge;
        # _node_of: the first flat node holding each coefficient
        n = len(self.Mdiag)
        unknown = np.full(np.shape(self.template.values), n)
        if self.kind == "line":
            unknown[:] = np.arange(n)
        elif self.kind == "graph_shared":  # one vertex unknown, then the edges
            unknown[:, 0] = 0
            unknown[:, 1:-1] = np.arange(1, n).reshape(len(unknown), -1)
        else:
            unknown[:, :-1] = np.arange(n).reshape(len(unknown), -1)
        self._unknown = unknown
        self._node_of = np.unique(unknown, return_index=True)[1][:n]

    def to_vector(self, f: Field) -> np.ndarray:
        return f.values.ravel()[self._node_of]

    def from_vector(self, vec: np.ndarray, like: Field | None = None) -> Field:
        like = like if like is not None else self.template
        return like.with_values(np.append(vec, 0.0)[self._unknown])

    def cayley_solve(self, vec: np.ndarray, dt: float) -> np.ndarray:
        """(M + i dt/2 K)^{-1} (M - i dt/2 K) vec, LU factors cached per dt."""
        key = float(dt)
        lu = self._lu_cache.get(key)
        if lu is None:
            A = sp.diags(self.Mdiag).astype(complex) + 0.5j * dt * self.K
            lu = splu(A.tocsc())
            self._lu_cache[key] = lu
        b = self.Mdiag * vec - 0.5j * dt * (self.K @ vec)
        return lu.solve(b)


def _edge_stiffness(M: int, h: float) -> sp.lil_matrix:
    """P1 stiffness on nodes [vertex, x_1 .. x_{M-1}] with a Dirichlet far
    node x_M eliminated."""
    K = sp.lil_matrix((M, M))
    main = np.full(M, 2.0 / h)
    main[0] = 1.0 / h
    K.setdiag(main)
    K.setdiag(np.full(M - 1, -1.0 / h), 1)
    K.setdiag(np.full(M - 1, -1.0 / h), -1)
    K[M - 1, M - 1] = 2.0 / h  # element to the Dirichlet far node
    return K


def assemble_hamiltonian(template: Field, model: ModelSpec) -> AssembledOperator:
    """Discrete quadratic form of the linear operator: line Laplacian with a
    gamma-weighted vertex value (delta), or the star-graph form with the
    vertex term of the named condition."""
    if model.variant not in ("delta", "graph"):
        raise ValueError("form assembly covers the delta and graph variants")
    require_geometry(template, model)
    if model.variant == "delta":
        N, h = template.N, template.h
        K = sp.lil_matrix((N, N))
        K.setdiag(np.full(N, 2.0 / h))
        K.setdiag(np.full(N - 1, -1.0 / h), 1)
        K.setdiag(np.full(N - 1, -1.0 / h), -1)
        K[origin_index(template), origin_index(template)] += model.gamma
        return AssembledOperator("line", model, template, K.tocsc(), np.full(N, h))
    vc = model.vertex
    J, M, h = template.J, template.M, template.h
    if vc.is_continuity_type:
        n = 1 + J * (M - 1)
        K = sp.lil_matrix((n, n))
        Md = np.full(n, h)
        Md[0] = J * h / 2.0
        K[0, 0] = J / h + (vc.gamma if vc.kind == "dirac_delta" else 0.0)
        for j in range(J):
            base = 1 + j * (M - 1)
            K[0, base] = K[base, 0] = -1.0 / h
            for i in range(M - 1):
                K[base + i, base + i] += 2.0 / h
                if i + 1 < M - 1:
                    K[base + i, base + i + 1] = K[base + i + 1, base + i] = -1.0 / h
        return AssembledOperator("graph_shared", model, template, K.tocsc(), Md)
    # delta_prime: independent vertex unknowns plus the rank-one vertex form
    n = J * M
    K = sp.lil_matrix((n, n))
    Md = np.full(n, h)
    for j in range(J):
        base = j * M
        K[base : base + M, base : base + M] = _edge_stiffness(M, h)
        Md[base] = h / 2.0
    for j in range(J):
        for k in range(J):
            K[j * M, k * M] += 1.0 / vc.gamma
    return AssembledOperator("graph_full", model, template, K.tocsc(), Md)


def step_cn(f: Field, dt: float, H: AssembledOperator) -> Field:
    """Strang step with the Cayley (Crank-Nicolson) linear propagator:
    half-step quintic phase, exactly norm-preserving linear solve, half-step
    phase."""
    if dt == 0.0 or not np.isfinite(dt):
        raise ValueError("dt must be a nonzero finite number")
    vec = H.to_vector(f)
    if H.model.nonlinearity_on:
        vec = vec * np.exp(1j * (dt / 2.0) * np.abs(vec) ** 4)
    vec = H.cayley_solve(vec, dt)
    if H.model.nonlinearity_on:
        vec = vec * np.exp(1j * (dt / 2.0) * np.abs(vec) ** 4)
    return H.from_vector(vec, f)


def _grad_norm(f: Field, model: ModelSpec) -> float:
    return float(np.sqrt(2.0 * kinetic_energy(f, model)))


def _max_phase_rate(f: Field, model: ModelSpec, V: np.ndarray | float) -> float:
    amp4 = lp_norm(f, np.inf) ** 4 if model.nonlinearity_on else 0.0
    vmax = float(np.max(np.abs(V))) if np.ndim(V) else abs(float(V))
    return amp4 + vmax


def _quantize_dt(dt_target: float, dt_max: float) -> float:
    """Snap to dt_max / 2^k so the Cayley LU factors get reused."""
    if dt_target >= dt_max:
        return dt_max
    k = int(np.ceil(np.log2(dt_max / dt_target)))
    return dt_max / 2.0**k


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
    snapshots every snapshot_stride steps, or stop at a blow-up trigger."""
    require_geometry(u0, model)
    use_split = model.uses_spectral()
    H = None if use_split else assemble_hamiltonian(u0, model)
    V = potential_on_grid(model, u0.x) if model.variant == "inverse_power" else 0.0

    grad0 = _grad_norm(u0, model)
    times = [0.0]
    snapshots = [u0.copy()]
    u, t, nstep = u0.copy(), 0.0, 0
    verdict = BlowupVerdict("completed")

    while t < cfg.T_end * (1.0 - 1e-14):
        rate = _max_phase_rate(u, model, V)
        dt = cfg.dt_max if rate == 0.0 else min(cfg.dt_max, cfg.phase_tol / rate)
        if nstep == 0:
            dt = min(dt, cfg.dt_init)
        elif not use_split:
            dt = _quantize_dt(dt, cfg.dt_max)
        dt = min(dt, cfg.T_end - t)
        if dt < cfg.dt_min:
            verdict = BlowupVerdict("blowup_detected", t_detect=t, trigger="dt_underflow")
            break
        try:
            u = step_splitstep(u, dt, model) if use_split else step_cn(u, dt, H)
        except ValueError as exc:  # the field rejects non-finite values after an overflow
            verdict = BlowupVerdict("aborted", diagnostic=str(exc))
            break
        t += dt
        nstep += 1
        trigger = _trigger(cfg, grad0, lp_norm(u, np.inf), _grad_norm(u, model))
        if trigger is not None:
            verdict = BlowupVerdict("blowup_detected", t_detect=t, trigger=trigger)
            break
        if nstep % cfg.snapshot_stride == 0:
            times.append(t)
            snapshots.append(u.copy())
    if t > times[-1]:
        times.append(t)
        snapshots.append(u.copy())

    m = np.array([mass(s) for s in snapshots])
    e = np.array([energy(s, model) for s in snapshots])
    g = np.array([_grad_norm(s, model) for s in snapshots])
    return Trajectory(
        times=np.array(times),
        snapshots=snapshots,
        mass_series=m,
        energy_series=e,
        grad_series=g,
        verdict=verdict,
        model=model,
        config=cfg,
    )


def detect_blowup(traj: Trajectory) -> BlowupVerdict:
    """Re-derive the verdict from the stored snapshots (idempotent with run,
    except that a dt underflow leaves no snapshot evidence and is passed
    through from the stored verdict)."""
    if len(traj.snapshots) == 0:
        raise ValueError("empty trajectory")
    grad0 = traj.grad_series[0]
    for t, snap, gradn in zip(traj.times, traj.snapshots, traj.grad_series):
        trigger = _trigger(traj.config, grad0, lp_norm(snap, np.inf), gradn)
        if trigger is not None:
            return BlowupVerdict("blowup_detected", t_detect=float(t), trigger=trigger)
    if traj.verdict.trigger == "dt_underflow":
        return traj.verdict
    return BlowupVerdict("completed")


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def save_trajectory(traj: Trajectory, outdir, R: float | None = None) -> None:
    """Write series.csv, snapshots/NNNN.csv and summary.json."""
    out = pathlib.Path(outdir)
    (out / "snapshots").mkdir(parents=True, exist_ok=True)
    head = ["t", "mass", "energy", "grad_norm"]
    cols = [traj.times, traj.mass_series, traj.energy_series, traj.grad_series]
    if R is not None:
        head.append(f"tail_mass@{_fmt(R)}")
        cols.append([tail_mass(s, R) for s in traj.snapshots])
    np.savetxt(
        out / "series.csv", np.column_stack(cols), fmt="%.17g", delimiter=",",
        newline="\r\n", header=",".join(head), comments="",
    )
    for i, snap in enumerate(traj.snapshots):
        write_snapshot(snap, out / "snapshots" / f"{i:04d}.csv")
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
    }
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2)


def load_trajectory(indir) -> Trajectory:
    src = pathlib.Path(indir)
    with open(src / "summary.json") as fh:
        summary = json.load(fh)
    model = ModelSpec.from_dict(summary["model"])
    cfg = SolverConfig(**summary["config"])
    template = field_from_grid(summary["grid"])
    series = np.loadtxt(src / "series.csv", delimiter=",", skiprows=1, ndmin=2)
    snapshots = [
        read_snapshot(src / "snapshots" / f"{i:04d}.csv", template)
        for i in range(summary["n_snapshots"])
    ]
    return Trajectory(
        times=series[:, 0],
        snapshots=snapshots,
        mass_series=series[:, 1],
        energy_series=series[:, 2],
        grad_series=series[:, 3],
        verdict=BlowupVerdict(**summary["verdict"]),
        model=model,
        config=cfg,
    )
