"""Quintic line soliton and ground-state profiles.

exact_Q is the closed-form zero-energy soliton of Q'' - omega Q + Q^5 = 0.
ground_state_flow computes standing-wave profiles for the potential and
graph variants with one solver on either operator (the Fourier Laplacian on
the smooth line variants, the assembled form on the delta line and graphs):
an optional warm-up of at most 200 sweeps of a semi-implicit normalized
gradient flow with step tau = 0.5 (the linear part, including any vertex
term, implicit; the quintic term and any smooth potential explicit; the
amplitude renormalized each sweep by c = (<(H+omega)u, u> / ||u||_6^6)^{1/4}),
then damped Newton, at most 20,000 iterations in all.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .evolve import assemble_hamiltonian, p1_form
from .field import Field, LineField, spectral_k2
from .functionals import ModelSpec, potential_on_grid, require_geometry, vertex_form


# cosh overflows past 710.48; beyond COSH_MAX, sech(a) = 2 e^{-a} to double
# precision, as e^{-2a} < 1e-600
COSH_MAX = 700.0


def exact_Q(omega: float, x) -> np.ndarray:
    """(3 omega)^{1/4} sech^{1/2}(2 sqrt(omega) x), as sqrt(2) e^{-|a|/2} in
    place of sech^{1/2}(a) where |a| > COSH_MAX."""
    if not 0.0 < omega < np.inf:
        raise ValueError(f"omega must be positive and finite, got {omega}")
    amp, q = (3.0 * omega) ** 0.25, np.array(x, dtype=float)
    q *= 2.0 * np.sqrt(omega)
    np.abs(q, out=q)
    far = q > COSH_MAX
    tail = amp * np.sqrt(2.0) * np.exp(-0.5 * q[far])
    np.minimum(q, COSH_MAX, out=q)
    q = np.divide(amp, np.sqrt(np.cosh(q, out=q), out=q), out=q)
    q[far] = tail
    return q[()]


def scaled_data(lam: float, omega: float, template: Field, center: float = 0.0) -> Field:
    """lambda Q_omega placed at `center` (per edge on graphs); lambda > 1
    gives negative free energy."""
    if not (0.0 < lam < np.inf and 0.0 < omega < np.inf):
        raise ValueError("need finite lambda > 0 and omega > 0")
    return template.sampled(lambda x: lam * exact_Q(omega, x - center))


@dataclass
class GroundState:
    field: Field
    omega: float
    residual: float
    iterations: int
    converged: bool


_WARMUP_SWEEPS = 200
_MAX_ITER = 20_000
_TAU = 0.5


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


def _standing_wave(u, w, H, flow, K, V, omega, tol, warm_up):
    """Real solution u of H u + (V + omega) u - u^5 = 0 from the start u, with
    quadrature weights w, the linear operator H, the implicit flow solve
    `flow` and the stiffness form K (K u ~ w H u).  With `warm_up`, a short
    normalized gradient flow reaches the basin first; the plain flow alone
    stalls on the near-neutral dilation mode of the mass-critical
    nonlinearity.  Then damped Newton with the Jacobian K + diag(w (V + omega
    - 5 u^4)).  Returns (u, residual, iterations, converged)."""
    import scipy.sparse as sp
    from scipy.sparse.linalg import splu

    def residual_vec(u):
        return H(u) + (V + omega) * u - u**5

    def residual_of(u):
        r = residual_vec(u)
        return float(np.sqrt(np.sum(w * r**2) / np.sum(w * u**2)))

    it = 0
    for it in range(1, (_WARMUP_SWEEPS if warm_up else 0) + 1):
        u = flow(u + _TAU * (u**5 - V * u))
        quad = np.sum(w * (u * H(u) + (V + omega) * u**2))
        sextic = np.sum(w * u**6)
        if sextic <= 0 or quad <= 0:
            return u, np.inf, it, False
        u = u * (quad / sextic) ** 0.25
        if residual_of(u) < tol:
            return u, residual_of(u), it, True

    def newton_step(u):
        return splu((K + sp.diags(w * (V + omega - 5.0 * u**4))).tocsc()).solve(w * residual_vec(u))

    return _damped_newton(u, newton_step, residual_of, tol, it, _MAX_ITER)


def _fourier_ground_state(template: LineField, V, omega, tol) -> GroundState:
    """Line variants on the Fourier operator, from exact_Q with the warm-up;
    the P1 stiffness is the Newton preconditioner."""
    k2 = spectral_k2(template.L, template.N)
    denom = 1.0 + _TAU * (k2 + omega)
    u, res, it, ok = _standing_wave(
        exact_Q(omega, template.x), template.quad_weights,
        lambda u: np.fft.ifft(k2 * np.fft.fft(u)).real,
        lambda r: np.fft.ifft(np.fft.fft(r) / denom).real,
        p1_form(template)[0], V, omega, tol, warm_up=True,
    )
    return GroundState(template.with_values(u), omega, res, it, ok)


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


def _assembled_ground_state(model, template, omega, tol) -> GroundState:
    """Delta/graph variants on the assembled form operator, from the offset
    soliton when it exists, else from Q with the warm-up."""
    import scipy.sparse as sp
    from scipy.sparse.linalg import splu

    H = assemble_hamiltonian(template, model)
    K, Md = H.K, H.Mdiag
    lu = splu((sp.diags(Md) + _TAU * (K + omega * sp.diags(Md))).tocsc())
    guess = _offset_guess(model, template, omega)
    start = guess if guess is not None else scaled_data(1.0, omega, template)
    u, res, it, ok = _standing_wave(
        H.to_vector(start).real, Md, lambda u: (K @ u) / Md,
        lambda r: lu.solve(Md * r), K, 0.0, omega, tol, warm_up=guess is None,
    )
    return GroundState(H.from_vector(u.astype(complex)), omega, res, it, ok)


def ground_state_flow(
    model: ModelSpec, template: Field, omega: float = 1.0, tol: float = 1e-8
) -> GroundState:
    """Standing-wave profile of the given variant at frequency omega."""
    if not (0.0 < omega < np.inf and tol > 0.0):  # NaN fails too
        raise ValueError("need finite omega > 0 and tol > 0")
    require_geometry(template, model)
    if model.uses_spectral():
        return _fourier_ground_state(template, potential_on_grid(model, template.x), omega, tol)
    return _assembled_ground_state(model, template, omega, tol)


def attractive_inverse_power_profile(
    gamma: float, mu: float, template: LineField, omega: float = 1.0, tol: float = 1e-8
) -> GroundState:
    """Standing-wave candidate for V = gamma |x|^{-mu} with gamma < 0.

    The blow-up theory requires gamma > 0, so this regime is not expressible
    as a ModelSpec; the solver is the same, with V the negated potential of
    the repulsive model of strength -gamma.
    """
    if not (0.0 < omega < np.inf and tol > 0.0):
        raise ValueError("need finite omega > 0 and tol > 0")
    if gamma >= 0:
        raise ValueError("use ground_state_flow for gamma >= 0")
    V = -potential_on_grid(ModelSpec.inverse_power(-gamma, mu), template.x)
    return _fourier_ground_state(template, V, omega, tol)


def vertex_derivative_jump(f: LineField) -> float:
    """One-sided second-order difference of the derivative jump at x = 0."""
    i = int(np.argmin(np.abs(f.x)))
    h = f.h
    v = f.values.real
    right = (-3.0 * v[i] + 4.0 * v[i + 1] - v[i + 2]) / (2.0 * h)
    left = (3.0 * v[i] - 4.0 * v[i - 1] + v[i - 2]) / (2.0 * h)
    return float(right - left)
