import numpy as np
import pytest

from viriallab import functionals as fn
from viriallab import soliton as sol
from viriallab.field import GraphField, LineField, derivative, lp_norm


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
            qxx = derivative(derivative(q)).values.real
            res = qxx - omega * vals + vals**5
            assert np.max(np.abs(res)) < 1e-9

    def test_mass(self):
        f = line_template()
        q = f.with_values(sol.exact_Q(1.0, f.x))
        assert fn.mass(q) == pytest.approx(np.sqrt(3.0) * np.pi / 2.0, abs=1e-10)

    def test_rejects_bad_omega(self):
        with pytest.raises(ValueError):
            sol.exact_Q(0.0, 1.0)


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
        gs = sol.attractive_inverse_power_profile(-0.5, 0.5, f, tol=1e-8)
        assert gs.converged
        u = gs.field
        V = -0.5 / np.abs(u.x) ** 0.5
        e = (
            fn.kinetic_energy(u, fn.ModelSpec.free())
            + 0.5 * np.sum(u.quad_weights * V * np.abs(u.values) ** 2)
            - lp_norm(u, 6) ** 6 / 6.0
        )
        assert e < 0
        assert np.isfinite(fn.mass(u))

    def test_rejects_bad_args(self):
        f = line_template(N=2**8)
        with pytest.raises(ValueError):
            sol.ground_state_flow(fn.ModelSpec.free(), f, omega=-1.0)
        with pytest.raises(ValueError):
            sol.ground_state_flow(fn.ModelSpec.free(), f, tol=0.0)
        with pytest.raises(ValueError):
            sol.attractive_inverse_power_profile(0.5, 0.5, f)
