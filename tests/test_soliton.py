import re
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from viriallab import functionals as fn
from viriallab import soliton as sol
from viriallab.evolve import assemble_hamiltonian, p1_form
from viriallab.field import GraphField, LineField, derivative, lp_norm, spectral_wavenumbers


def line_template(L=16.0, N=2**12, stagger=False):
    return LineField.from_function(lambda x: np.zeros_like(x), L, N, stagger=stagger)


class TestExactQ:
    def test_peak_value(self):
        assert sol.exact_Q(1.0, 0.0) == pytest.approx(3.0**0.25, abs=1e-14)

    def test_decay(self):
        assert sol.exact_Q(1.0, 16.0) < 1e-6

    def test_ode_residual(self):
        # Q'' - omega Q + Q^5 = 0 under spectral differentiation; adding the
        # periodic images removes the wrap-around derivative kink at +-L
        # slower decay at small omega needs a wider box
        for omega, L in ((0.5, 24.0), (1.0, 16.0), (2.0, 16.0)):
            f = line_template(L=L)
            vals = sum(sol.exact_Q(omega, f.x + s * 2 * f.L) for s in (-1, 0, 1))
            q = f.with_values(vals)
            qxx = derivative(q.with_values(derivative(q, "spectral")), "spectral").real
            res = qxx - omega * vals + vals**5
            assert np.max(np.abs(res)) < 1e-9

    def test_mass(self):
        f = line_template()
        q = f.with_values(sol.exact_Q(1.0, f.x))
        assert fn.mass(q) == pytest.approx(np.sqrt(3.0) * np.pi / 2.0, abs=1e-10)

    def test_rejects_bad_omega(self):
        with pytest.raises(ValueError):
            sol.exact_Q(0.0, 1.0)

    @pytest.mark.parametrize("omega", [1.0, 4.0, 0.25])
    def test_far_tail_without_overflow(self, omega):
        # cosh(2 sqrt(omega) x) overflows for |2 sqrt(omega) x| > 710; omega
        # with an exact square root, so that the argument is exact and the
        # reference compares the evaluation alone
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        x = np.array(
            [0.0, -3.0, 100.0, 174.0, 175.5, 176.0, 349.0, 355.5, -360.0, 400.0, -800.0, 800.0]
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = sol.exact_Q(omega, x)
            assert sol.exact_Q(omega, 400.0) == got[9]
        for xi, q in zip(x, got):
            sech = mpmath.sech(2 * mpmath.sqrt(omega) * xi)
            ref = float(mpmath.root(3 * omega, 4) * mpmath.sqrt(sech))
            assert abs(q - ref) <= 1e-14 * ref
        assert np.array_equal(got[[10, 11]], [0.0, 0.0]) if omega >= 1.0 else got[11] > 0.0

    def test_near_field_unchanged(self):
        # below the switch, the cosh form as it was, bit for bit
        x = np.random.default_rng(0).uniform(-120.0, 120.0, 10_000)
        for omega in (0.3, 1.0, 2.0):
            ref = (3.0 * omega) ** 0.25 / np.sqrt(np.cosh(2.0 * np.sqrt(omega) * x))
            assert np.array_equal(sol.exact_Q(omega, x), ref)


class TestScaledData:
    def test_free_energy_signs(self):
        f = line_template()
        e = lambda lam: fn.energy(sol.scaled_data(lam, 1.0, f), fn.ModelSpec.free())  # noqa: E731
        assert abs(e(1.0)) < 1e-6
        assert e(1.1) == pytest.approx((1.1**2 - 1.1**6) * np.sqrt(3.0) * np.pi / 8.0, abs=1e-6)
        assert e(0.5) > 0

    def test_center_shift(self):
        f = line_template()
        d = sol.scaled_data(1.0, 1.0, f, center=3.0)
        assert np.argmax(np.abs(d.values)) == np.argmin(np.abs(f.x - 3.0))

    def test_graph_placement(self):
        g = GraphField.from_function(lambda x: np.zeros_like(x), 3, 20.0, 2000)
        d = sol.scaled_data(1.1, 1.0, g, center=5.0)
        assert d.values.shape == (3, 2001)
        assert np.all(d.values[:, -1] == 0)
        # three identical half-line bumps, energy ~ 3x the line value of 1.1Q
        m = fn.ModelSpec.graph(fn.VertexCondition("kirchhoff"))
        expect = 3.0 * (1.1**2 - 1.1**6) * np.sqrt(3.0) * np.pi / 8.0
        assert fn.energy(d, m) == pytest.approx(expect, rel=1e-3)


class TestGroundStateFlow:
    def test_free_recovers_Q(self):
        f = line_template()
        gs = sol.ground_state_flow(fn.ModelSpec.free(), f, omega=1.0, tol=1e-10)
        assert gs.converged
        err = lp_norm(f.with_values(np.abs(gs.field.values) - sol.exact_Q(1.0, f.x)), 2)
        assert err / lp_norm(gs.field, 2) < 1e-6

    def test_fixed_point(self):
        f = line_template(N=2**10)
        gs = sol.ground_state_flow(fn.ModelSpec.free(), f, tol=1e-9)
        again = sol.ground_state_flow(fn.ModelSpec.free(), f, tol=1e-9)
        diff = lp_norm(f.with_values(gs.field.values - again.field.values), 2)
        assert diff < 1e-8

    def test_delta_vertex_jump(self):
        gamma = 1.0
        f = line_template(L=12.0, N=2**12)
        gs = sol.ground_state_flow(fn.ModelSpec.delta(gamma), f, tol=1e-9)
        assert gs.converged
        phi0 = np.abs(gs.field.values[fn.origin_index(gs.field)])
        jump = sol.vertex_derivative_jump(gs.field)
        assert jump == pytest.approx(gamma * phi0, rel=0.02)

    def test_attractive_inverse_power(self):
        f = line_template(L=16.0, N=2**12, stagger=True)
        model = fn.ModelSpec.inverse_power(-0.5, 0.5)
        # gamma / |x|^mu with gamma < 0 is the negated repulsive potential, bit for bit
        V = fn.potential_on_grid(model, f.x)
        assert np.array_equal(V, -fn.potential_on_grid(fn.ModelSpec.inverse_power(0.5, 0.5), f.x))
        gs = sol.ground_state_flow(model, f, tol=1e-8)
        assert gs.converged
        u = gs.field
        e = (
            fn.kinetic_energy(u, fn.ModelSpec.free())
            + 0.5 * np.sum(u.quad_weights * V * np.abs(u.values) ** 2)
            - lp_norm(u, 6) ** 6 / 6.0
        )
        assert e < 0
        assert fn.energy(u, model) == pytest.approx(e, rel=1e-12)
        assert np.isfinite(fn.mass(u))

    def test_rejects_bad_args(self):
        f = line_template(N=2**8)
        with pytest.raises(ValueError):
            sol.ground_state_flow(fn.ModelSpec.free(), f, omega=-1.0)
        with pytest.raises(ValueError):
            sol.ground_state_flow(fn.ModelSpec.free(), f, tol=0.0)
        with pytest.raises(ValueError):
            sol.ground_state_flow(fn.ModelSpec.inverse_power(-0.5, 0.5), f, omega=-1.0)

    @pytest.mark.parametrize("omega, tol", [(np.nan, 1e-8), (np.inf, 1e-8), (1.0, np.nan)])
    def test_rejects_nan_before_solving(self, omega, tol):
        # a NaN tol used to run all 20,000 Newton iterations
        f = line_template(N=2**8, stagger=True)
        with pytest.raises(ValueError, match="omega > 0 and tol > 0"):
            sol.ground_state_flow(fn.ModelSpec.free(), f, omega=omega, tol=tol)
        with pytest.raises(ValueError, match="omega > 0 and tol > 0"):
            sol.ground_state_flow(fn.ModelSpec.inverse_power(-0.5, 0.5), f, omega=omega, tol=tol)

    def test_attractive_rejects_bad_potential(self):
        # the messages of ModelSpec and potential_on_grid
        with pytest.raises(ValueError, match="requires 0 < mu < 1"):
            sol.ground_state_flow(fn.ModelSpec.inverse_power(-0.5, 1.5),
                                  line_template(N=2**8, stagger=True))
        with pytest.raises(ValueError, match="no node at x = 0"):
            sol.ground_state_flow(fn.ModelSpec.inverse_power(-0.5, 0.5), line_template(N=2**8))

    def test_scaled_data_rejects_nan(self):
        f = line_template(N=2**8)
        for lam, omega in ((np.nan, 1.0), (1.0, np.nan), (np.inf, 1.0)):
            with pytest.raises(ValueError):
                sol.scaled_data(lam, omega, f)
        with pytest.raises(ValueError):
            sol.exact_Q(np.nan, 0.0)


# The two standing-wave solvers the shared loop replaced, kept verbatim as the
# reference: the Fourier-operator path and the assembled-form path.


def _flow_line_spectral(template, V, omega, tol, max_iter=20_000, tau=0.5):
    k2 = spectral_wavenumbers(template) ** 2
    h = template.h
    u = sol.exact_Q(omega, template.x)
    denom = 1.0 + tau * (k2 + omega)

    def residual_vec(u):
        return np.fft.ifft(k2 * np.fft.fft(u)).real + (V + omega) * u - u**5

    def residual_of(u):
        r = residual_vec(u)
        return float(np.sqrt(np.sum(r**2) / np.sum(u**2)))

    it = 0
    for it in range(1, min(200, max_iter) + 1):
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

    lap = p1_form(template)[0] / h

    def newton_step(u):
        return splu((lap + sp.diags(V + omega - 5.0 * u**4)).tocsc()).solve(residual_vec(u))

    u, res, it, ok = sol._damped_newton(u, newton_step, residual_of, tol, it, max_iter)
    return template.with_values(u), res, it, ok


def _flow_assembled(model, template, omega, tol, max_iter=20_000, tau=0.5):
    H = assemble_hamiltonian(template, model)
    K, Md = H.K, H.Mdiag
    A = (sp.diags(Md) + tau * (K + omega * sp.diags(Md))).tocsc()
    lu = splu(A)
    guess = sol._offset_guess(model, template, omega)
    u = H.to_vector(guess if guess is not None else sol.scaled_data(1.0, omega, template)).real

    def residual_vec(u):
        return (K @ u) / Md + omega * u - u**5

    def residual_of(u):
        r = residual_vec(u)
        return float(np.sqrt(np.sum(Md * r**2) / np.sum(Md * u**2)))

    it = 0
    if guess is None:
        for it in range(1, min(200, max_iter) + 1):
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

    u, res, it, ok = sol._damped_newton(u, newton_step, residual_of, tol, it, max_iter)
    return H.from_vector(u.astype(complex)), res, it, ok


def _reference(model, template, tol):
    """(field, residual, iterations, converged, started from the offset soliton)."""
    if model.uses_spectral():
        V = fn.potential_on_grid(model, template.x)
        return (*_flow_line_spectral(template, V, 1.0, tol), False)
    offset = sol._offset_guess(model, template, 1.0) is not None
    return (*_flow_assembled(model, template, 1.0, tol), offset)


def _line_cases():
    free, stag = fn.ModelSpec.free(), dict(stagger=True)
    yield pytest.param(free, {}, 1e-8, id="free")
    yield pytest.param(free, {}, 1e-10, id="free-tol1e-10")
    yield pytest.param(free, dict(N=2**10), 1e-8, id="free-N1024")
    yield pytest.param(fn.ModelSpec.inverse_power(1.0, 0.5), stag, 1e-8, id="inverse_power")
    yield pytest.param(fn.ModelSpec.inverse_power(-0.5, 0.5), stag, 1e-8, id="attractive")
    for g in (1.0, -0.5, 3.0, -3.0):
        yield pytest.param(fn.ModelSpec.delta(g), {}, 1e-8, id=f"delta{g}")
    yield pytest.param(fn.ModelSpec.delta(1.0), dict(L=12.0), 1e-8, id="delta1.0-L12")


_VERTICES = [("kirchhoff", 0.0), ("dirac_delta", 0.7), ("dirac_delta", -0.5),
             ("delta_prime", 2.0), ("delta_prime", -3.0)]


class TestMergedSolverMatchesReference:
    """The shared loop keeps each case's iteration count and converged flag;
    offset-soliton starts are bit-identical, warm-up starts agree to 1e-10 of
    the sup norm (the flow's quadratic form and the Newton system are now
    weighted by the quadrature, which moves the last bits)."""

    def check(self, gs, ref):
        field, res, it, ok, offset = ref
        assert gs.converged == ok
        if not ok:
            return
        assert gs.iterations == it
        if offset:
            assert np.array_equal(gs.field.values, field.values)
            assert gs.residual == res
        else:
            scale = np.max(np.abs(field.values))
            assert np.max(np.abs(gs.field.values - field.values)) <= 1e-10 * scale

    @pytest.mark.parametrize("model, grid, tol", list(_line_cases()))
    def test_line(self, model, grid, tol):
        f = line_template(**grid)
        self.check(sol.ground_state_flow(model, f, tol=tol), _reference(model, f, tol))

    @pytest.mark.parametrize("shared", [True, False], ids=["shared", "unshared"])
    @pytest.mark.parametrize("kind, gamma", _VERTICES)
    @pytest.mark.parametrize("J", [1, 2, 3])
    def test_graph(self, J, kind, gamma, shared):
        model = fn.ModelSpec.graph(fn.VertexCondition(kind, gamma))
        g = GraphField.from_function(lambda x: np.zeros_like(x), J, 16.0, 400, shared_vertex=shared)
        try:
            ref = _reference(model, g, 1e-9)
        except ValueError as exc:  # delta prime on a shared vertex grid
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                sol.ground_state_flow(model, g, tol=1e-9)
            return
        self.check(sol.ground_state_flow(model, g, tol=1e-9), ref)
