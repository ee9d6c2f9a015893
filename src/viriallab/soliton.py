"""Quintic line soliton and ground-state profiles.

exact_Q is the closed-form zero-energy soliton of Q'' - omega Q + Q^5 = 0.
ground_state_flow computes standing-wave profiles for the potential and
graph variants by a semi-implicit normalized gradient flow: the linear part
(including any vertex term) is treated implicitly, the quintic term and any
smooth potential explicitly, and the amplitude is renormalized each sweep by
the fixed-point rule c = (<(H+omega)u, u> / ||u||_6^6)^{1/4}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .evolve import assemble_hamiltonian, p1_form
from .field import Field, LineField, spectral_wavenumbers
from .functionals import ModelSpec, potential_on_grid, require_geometry, vertex_form


def exact_Q(omega: float, x) -> np.ndarray:
    """(3 omega)^{1/4} sech^{1/2}(2 sqrt(omega) x)."""
    if omega <= 0:
        raise ValueError(f"omega must be positive, got {omega}")
    x = np.asarray(x, dtype=float)
    return (3.0 * omega) ** 0.25 / np.sqrt(np.cosh(2.0 * np.sqrt(omega) * x))


def scaled_data(lam: float, omega: float, template: Field, center: float = 0.0) -> Field:
    """lambda Q_omega placed at `center` (per edge on graphs); lambda > 1
    gives negative free energy."""
    if lam <= 0 or omega <= 0:
        raise ValueError("need lambda > 0 and omega > 0")
    return template.sampled(lambda x: lam * exact_Q(omega, x - center))


@dataclass
class GroundState:
    field: Field
    omega: float
    residual: float
    iterations: int
    converged: bool


_WARMUP_SWEEPS = 200


def _damped_newton(u, newton_step, residual_of, tol, it, max_iter):
    """Newton iterations it+1 .. max_iter from u, each step halved until the
    residual drops; stops at tol or when no halving helps (the achievable
    floor).  Returns (u, residual, iterations, converged)."""
    res = residual_of(u)
    for it in range(it + 1, max_iter + 1):
        if res < tol:
            return u, res, it - 1, True
        step = newton_step(u)
        t = 1.0
        rnew = residual_of(u - step)
        while (not np.isfinite(rnew) or rnew >= res) and t > 1e-8:
            t *= 0.5
            rnew = residual_of(u - t * step)
        if not np.isfinite(rnew) or rnew >= res:
            break
        u, res = u - t * step, rnew
    return u, float(res), it, bool(res < tol)


def _flow_line_spectral(template, V, omega, tol, max_iter, tau):
    """Line variants: a short normalized flow (Laplacian implicit in Fourier
    space) to reach the basin, then damped approximate-Newton steps with a
    finite-difference Jacobian; the residual is always measured with the
    spectral operator.  The plain flow alone stalls on the near-neutral
    dilation mode of the mass-critical nonlinearity."""
    k2 = spectral_wavenumbers(template) ** 2
    h = template.h
    u = exact_Q(omega, template.x)
    denom = 1.0 + tau * (k2 + omega)

    def residual_vec(u):
        return np.fft.ifft(k2 * np.fft.fft(u)).real + (V + omega) * u - u**5

    def residual_of(u):
        r = residual_vec(u)
        return float(np.sqrt(np.sum(r**2) / np.sum(u**2)))

    it = 0
    for it in range(1, min(_WARMUP_SWEEPS, max_iter) + 1):
        rhs = u + tau * (u**5 - V * u)
        u = np.fft.ifft(np.fft.fft(rhs) / denom).real
        fu = np.fft.fft(u)
        quad = h / template.N * np.sum(k2 * np.abs(fu) ** 2)
        quad += h * np.sum((V + omega) * u**2)
        sextic = h * np.sum(u**6)
        if sextic <= 0 or quad <= 0:
            return template.with_values(u), np.inf, it, False
        u *= (quad / sextic) ** 0.25
        if residual_of(u) < tol:
            return template.with_values(u), residual_of(u), it, True

    # FD Laplacian (Dirichlet ends), the P1 stiffness over h, as the
    # Jacobian preconditioner
    lap = p1_form(template)[0] / h

    def newton_step(u):
        return splu((lap + sp.diags(V + omega - 5.0 * u**4)).tocsc()).solve(residual_vec(u))

    u, res, it, ok = _damped_newton(u, newton_step, residual_of, tol, it, max_iter)
    return template.with_values(u), res, it, ok


def _offset_guess(model, template, omega):
    """Closed-form standing wave with the soliton peak offset from the
    vertex: phi = Q-profile(|x| + a), where a solves the derivative-jump
    condition deg * sqrt(omega) * tanh(2 sqrt(omega) a) = -gamma (deg = the
    edges at the vertex, a line having two; gamma = `vertex_form`'s g on one
    node), sampled on the template.  None outside its range or for a form on
    several nodes (delta prime with J >= 2)."""
    nodes, gamma = vertex_form(template, model)
    arg = -gamma / (getattr(template, "J", 2) * np.sqrt(omega))
    if len(nodes) > 1 or abs(arg) >= 1.0:
        return None
    a = np.arctanh(arg) / (2.0 * np.sqrt(omega))
    return template.sampled(lambda x: exact_Q(omega, np.abs(x) + a))


def _flow_assembled(model, template, omega, tol, max_iter, tau):
    """Delta/graph variants on the assembled form operator: Newton on the
    discrete system, seeded by the closed-form offset soliton when it
    exists, with a normalized flow warm-up as fallback."""
    H = assemble_hamiltonian(template, model)
    K, Md = H.K, H.Mdiag
    A = (sp.diags(Md) + tau * (K + omega * sp.diags(Md))).tocsc()
    lu = splu(A)
    guess = _offset_guess(model, template, omega)
    u = H.to_vector(guess if guess is not None else scaled_data(1.0, omega, template)).real

    def residual_vec(u):
        return (K @ u) / Md + omega * u - u**5

    def residual_of(u):
        r = residual_vec(u)
        return float(np.sqrt(np.sum(Md * r**2) / np.sum(Md * u**2)))

    it = 0
    if guess is None:
        for it in range(1, min(_WARMUP_SWEEPS, max_iter) + 1):
            rhs = Md * (u + tau * u**5)
            u = lu.solve(rhs)
            quad = float(u @ (K @ u)) + omega * np.sum(Md * u**2)
            sextic = np.sum(Md * u**6)
            if sextic <= 0 or quad <= 0:
                return H.from_vector(u.astype(complex)), np.inf, it, False
            u = u * (quad / sextic) ** 0.25
            if residual_of(u) < tol:
                return H.from_vector(u.astype(complex)), residual_of(u), it, True

    def newton_step(u):
        return splu((K + sp.diags(Md * (omega - 5.0 * u**4))).tocsc()).solve(Md * residual_vec(u))

    u, res, it, ok = _damped_newton(u, newton_step, residual_of, tol, it, max_iter)
    return H.from_vector(u.astype(complex)), res, it, ok


def ground_state_flow(
    model: ModelSpec,
    template: Field,
    omega: float = 1.0,
    tol: float = 1e-8,
    max_iter: int = 20_000,
    tau: float = 0.5,
) -> GroundState:
    """Standing-wave profile of the given variant at frequency omega."""
    if omega <= 0 or tol <= 0:
        raise ValueError("need omega > 0 and tol > 0")
    require_geometry(template, model)
    if model.uses_spectral():
        V = potential_on_grid(model, template.x)
        f, res, it, ok = _flow_line_spectral(template, V, omega, tol, max_iter, tau)
    else:
        f, res, it, ok = _flow_assembled(model, template, omega, tol, max_iter, tau)
    return GroundState(field=f, omega=omega, residual=res, iterations=it, converged=ok)


def attractive_inverse_power_profile(
    gamma: float,
    mu: float,
    template: LineField,
    omega: float = 1.0,
    tol: float = 1e-8,
    max_iter: int = 20_000,
    tau: float = 0.5,
) -> GroundState:
    """Standing-wave candidate for V = gamma |x|^{-mu} with gamma < 0.

    The blow-up theory requires gamma > 0, so this regime is not expressible
    as a ModelSpec; the flow itself is identical with the attractive
    potential inserted directly.
    """
    if gamma >= 0:
        raise ValueError("use ground_state_flow for gamma >= 0")
    if not (0.0 < mu < 1.0):
        raise ValueError("need 0 < mu < 1")
    ax = np.abs(template.x)
    if np.min(ax) == 0.0:
        raise ValueError("grid must avoid x = 0 (use stagger)")
    V = gamma / ax**mu
    f, res, it, ok = _flow_line_spectral(template, V, omega, tol, max_iter, tau)
    return GroundState(field=f, omega=omega, residual=res, iterations=it, converged=ok)


def vertex_derivative_jump(f: LineField) -> float:
    """One-sided second-order difference of the derivative jump at x = 0."""
    i = int(np.argmin(np.abs(f.x)))
    h = f.h
    v = f.values.real
    right = (-3.0 * v[i] + 4.0 * v[i + 1] - v[i + 2]) / (2.0 * h)
    left = (3.0 * v[i] - 4.0 * v[i - 1] + v[i - 2]) / (2.0 * h)
    return float(right - left)
