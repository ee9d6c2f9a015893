import json
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from viriallab import functionals as fn
from viriallab.field import GraphField, LineField, field_from_grid, lp_norm


def soliton(x, lam=1.0):
    # ground state of the quintic line problem at unit frequency
    return lam * (3.0**0.25) / np.sqrt(np.cosh(2.0 * x))


def gaussian(L=20.0, N=2**12, alpha=0.0, center=0.0, stagger=False):
    def prof(x):
        y = x - center
        return np.exp(-(y**2)) * np.exp(1j * alpha * y**2)

    return LineField.from_function(prof, L, N, stagger=stagger)


def random_smooth_field(rng, L=16.0, N=2**10, modes=12, width=3.0, real=False):
    base = LineField.from_function(lambda x: np.zeros_like(x, dtype=complex), L, N)
    x = base.x
    vals = np.zeros(N, dtype=complex)
    for _ in range(modes):
        k = np.pi / L * rng.integers(0, 10)
        c = rng.standard_normal() + (0.0 if real else 1j * rng.standard_normal())
        vals += c * np.exp(1j * k * x)
    if real:
        vals = vals.real.astype(complex)
    vals *= np.exp(-((x / width) ** 2))
    return base.with_values(vals)


class TestVertexCondition:
    def test_delta_prime_needs_gamma(self):
        with pytest.raises(ValueError):
            fn.VertexCondition("delta_prime", gamma=0.0)

    def test_p_values(self):
        # the vertex energy P is twice a graph's potential energy, exactly:
        # a graph has no smooth V, and the factors 0.5 and 2 are exact
        g = GraphField.from_function(lambda x: np.exp(-x) * (2.0 - 0j), 3, 8.0, 80)

        def P(vc):
            return 2 * fn.potential_energy(g, fn.ModelSpec.graph(vc))

        assert P(fn.VertexCondition("kirchhoff")) == 0.0
        assert P(fn.VertexCondition("dirac_delta", gamma=1.5)) == pytest.approx(
            1.5 * 4.0, rel=1e-12
        )
        assert P(fn.VertexCondition("delta_prime", gamma=2.0)) == pytest.approx(
            36.0 / 2.0, rel=1e-12
        )


def bundled_model(name):
    path = pathlib.Path(fn.__file__).parent / "scenarios" / f"{name}.json"
    return fn.ModelSpec.from_dict(json.loads(path.read_text())["model"])


FREE_JSON = '{"variant": "free", "gamma": 0.0, "mu": 0.0, "nonlinearity_on": true}'
DELTA_JSON = '{"variant": "delta", "gamma": 1.0, "mu": 0.0, "nonlinearity_on": true}'
INVPOW_JSON = '{"variant": "inverse_power", "gamma": 1.0, "mu": 0.5, "nonlinearity_on": true}'
GRAPH_JSON = '{"variant": "graph", "gamma": 0.0, "mu": 0.0, "nonlinearity_on": true, "vertex": '


class TestModelSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            fn.ModelSpec("inverse_power", gamma=-1.0, mu=0.5)
        with pytest.raises(ValueError):
            fn.ModelSpec("inverse_power", gamma=1.0, mu=1.5)
        with pytest.raises(ValueError):
            fn.ModelSpec("graph")
        with pytest.raises(ValueError):
            fn.ModelSpec("heat")

    @pytest.mark.parametrize("model, text", [
        *((bundled_model(n), DELTA_JSON) for n in ("delta_blowup", "delta_gaussian")),
        *((bundled_model(n), FREE_JSON) for n in (
            "free_blowup", "free_control", "free_gaussian", "free_soliton",
        )),
        *((bundled_model(n), INVPOW_JSON) for n in ("invpow_blowup", "invpow_gaussian")),
        (bundled_model("graph_blowup"), GRAPH_JSON + '{"kind": "dirac_delta", "gamma": 1.0}}'),
        (bundled_model("graph_gaussian"), GRAPH_JSON + '{"kind": "kirchhoff", "gamma": 0.0}}'),
        (fn.ModelSpec.graph(fn.VertexCondition("delta_prime", gamma=2.0)),
         GRAPH_JSON + '{"kind": "delta_prime", "gamma": 2.0}}'),
        (fn.ModelSpec.graph(fn.VertexCondition("kirchhoff"), nonlinearity_on=False),
         GRAPH_JSON.replace("true", "false") + '{"kind": "kirchhoff", "gamma": 0.0}}'),
    ])
    def test_json_keys_in_field_order(self, model, text):
        # summary.json's "model": every field written, the vertex only on a graph
        assert json.dumps(model.to_dict()) == text
        assert fn.ModelSpec.from_dict(model.to_dict()) == model

    @pytest.mark.parametrize("d", [
        {"variant": "free", "nonlinearity_on": "false"},
        {"variant": "free", "nonlinearity_on": 0},
        {"variant": "delta", "gama": 1.0},
        {"variant": "delta", "gamma": "1.0"},
        {"variant": "delta", "gamma": True},
        {"variant": "inverse_power", "gamma": 1.0, "mu": "0.5"},
        {"variant": "graph", "vertex": {"kind": "dirac_delta", "gama": 1.0}},
        {"variant": "graph", "vertex": {"kind": "dirac_delta", "gamma": "1.0"}},
    ])
    def test_from_dict_neither_coerces_nor_ignores(self, d):
        # "false" would run the nonlinear equation, a misspelt gamma gamma = 0
        with pytest.raises(ValueError, match="must be a|unknown"):
            fn.ModelSpec.from_dict(d)

    def test_from_dict_keeps_float_numbers(self):
        m = fn.ModelSpec.from_dict({"variant": "inverse_power", "gamma": 2, "mu": np.float64(0.5)})
        assert (m.gamma, m.mu) == (2.0, 0.5) and type(m.gamma) is float

    def test_potential_needs_staggered_grid(self):
        f = gaussian(N=2**8)  # node at the origin
        with pytest.raises(ValueError):
            fn.potential_on_grid(fn.ModelSpec.inverse_power(1.0, 0.5), f.x)


class TestMassEnergy:
    def test_soliton_mass(self):
        f = LineField.from_function(soliton, 20.0, 2**12)
        assert fn.mass(f) == pytest.approx(np.sqrt(3.0) * np.pi / 2.0, abs=1e-10)

    def test_soliton_zero_energy(self):
        f = LineField.from_function(soliton, 20.0, 2**12)
        assert abs(fn.energy(f, fn.ModelSpec.free())) < 1e-8

    def test_scaled_soliton_energy(self):
        lam = 1.1
        f = LineField.from_function(lambda x: soliton(x, lam), 20.0, 2**12)
        expect = (lam**2 - lam**6) * np.sqrt(3.0) * np.pi / 8.0
        assert fn.energy(f, fn.ModelSpec.free()) == pytest.approx(expect, abs=1e-8)

    def test_gaussian_kinetic_oracle(self):
        f = gaussian()
        # int |u'|^2 = sqrt(pi/2) for exp(-x^2)
        expect = 0.5 * np.sqrt(np.pi / 2.0)
        assert fn.kinetic_energy(f, fn.ModelSpec.free()) == pytest.approx(expect, abs=1e-10)

    def test_fd_kinetic_close_to_spectral(self):
        f = gaussian(N=2**13)
        a = fn.kinetic_energy(f, fn.ModelSpec.free())
        b = fn.kinetic_energy(f, fn.ModelSpec.delta(0.0))
        assert b == pytest.approx(a, rel=1e-5)

    def test_inverse_power_energy_additivity(self):
        f = gaussian(center=5.0, stagger=True)
        m = fn.ModelSpec.inverse_power(2.0, 0.5)
        free = fn.energy(f, fn.ModelSpec.free())
        V = fn.potential_on_grid(m, f.x)
        pot = 0.5 * np.sum(f.quad_weights * V * np.abs(f.values) ** 2)
        assert fn.energy(f, m) == pytest.approx(free + pot, rel=1e-12)

    def test_delta_energy_term(self):
        f = gaussian(N=2**10)
        gamma = 0.7
        diff = fn.energy(f, fn.ModelSpec.delta(gamma)) - fn.energy(f, fn.ModelSpec.delta(0.0))
        i0 = fn.origin_index(f)
        assert diff == pytest.approx(0.5 * gamma * np.abs(f.values[i0]) ** 2, rel=1e-12)

    def test_graph_kinetic_matches_analytic(self):
        g = GraphField.from_function(lambda x: np.exp(-((x - 4.0) ** 2)), 3, 12.0, 2400)
        # 3 half-line copies; the bump sits far from both ends, so each edge
        # carries the full-line value int |u'|^2 = sqrt(pi/2)
        expect = 3 * 0.5 * np.sqrt(np.pi / 2.0)
        assert fn.kinetic_energy(g, fn.ModelSpec.graph(fn.VertexCondition("kirchhoff"))) == pytest.approx(
            expect, rel=1e-5
        )

    def test_nonlinearity_toggle(self):
        f = gaussian()
        on = fn.energy(f, fn.ModelSpec.free())
        off = fn.energy(f, fn.ModelSpec.free(nonlinearity_on=False))
        assert off - on == pytest.approx(lp_norm(f, 6) ** 6 / 6.0, rel=1e-12)


class TestVirialQuantities:
    def test_variance_oracle_large_R(self):
        f = gaussian()
        # weight is exactly x^2 on |x| <= R; Gaussian mass beyond 18 is negligible
        expect = 0.25 * np.sqrt(np.pi / 2.0)
        assert fn.virial_I(f, 18.0) == pytest.approx(expect, abs=1e-10)

    def test_I_prime_real_data_zero(self):
        assert abs(fn.virial_I_prime(gaussian(), 8.0, fn.ModelSpec.free())) < 1e-12

    def test_I_prime_phase_modulation_oracle(self):
        alpha = 0.3
        f = gaussian(alpha=alpha)
        # for u = e^{-x^2 + i a x^2}, I' = 2 a sqrt(pi/2) when the weight is x^2
        assert fn.virial_I_prime(f, 18.0, fn.ModelSpec.free()) == pytest.approx(
            2.0 * alpha * np.sqrt(np.pi / 2.0), abs=1e-10
        )

    def test_rhs_equals_16E_when_weight_quadratic(self):
        f = gaussian()
        rhs = fn.virial_rhs(f, 18.0, fn.ModelSpec.free())
        assert rhs == pytest.approx(16.0 * fn.energy(f, fn.ModelSpec.free()), abs=1e-9)

    def test_rhs_gaussian_oracle(self):
        f = gaussian()
        expect = 8.0 * np.sqrt(np.pi / 2.0) - (8.0 / 3.0) * np.sqrt(np.pi / 6.0)
        assert fn.virial_rhs(f, 18.0, fn.ModelSpec.free()) == pytest.approx(expect, abs=1e-9)

    def test_delta_rhs_extra_term(self):
        f = gaussian(N=2**10)
        gamma = 0.8
        base = fn.virial_rhs(f, 6.0, fn.ModelSpec.delta(0.0))
        full = fn.virial_rhs(f, 6.0, fn.ModelSpec.delta(gamma))
        i0 = fn.origin_index(f)
        assert full - base == pytest.approx(4.0 * gamma * np.abs(f.values[i0]) ** 2, rel=1e-12)

    def test_graph_rhs_extra_term(self):
        g = GraphField.from_function(lambda x: np.exp(-((x - 4.0) ** 2)) * (1.0 + 0j), 3, 12.0, 1200)
        vc = fn.VertexCondition("dirac_delta", gamma=1.3)
        base = fn.virial_rhs(g, 4.0, fn.ModelSpec.graph(fn.VertexCondition("kirchhoff")))
        full = fn.virial_rhs(g, 4.0, fn.ModelSpec.graph(vc))
        P = 2 * fn.potential_energy(g, fn.ModelSpec.graph(vc))
        assert full - base == pytest.approx(4.0 * P, abs=1e-12)

    def test_rejects_bad_R(self):
        with pytest.raises(ValueError):
            fn.virial_I(gaussian(N=2**8), -2.0)
        with pytest.raises(ValueError):
            fn.virial_rhs(gaussian(N=2**8), 0.0, fn.ModelSpec.free())


class TestSignCondition:
    def test_free_and_kirchhoff_zero(self):
        f = gaussian(N=2**9)
        assert fn.sign_condition_value(f, 4.0, fn.ModelSpec.free()) == 0.0
        g = GraphField.from_function(lambda x: np.exp(-x), 2, 8.0, 64)
        m = fn.ModelSpec.graph(fn.VertexCondition("kirchhoff"))
        assert fn.sign_condition_value(g, 4.0, m) == 0.0

    @given(st.integers(0, 10_000), st.floats(0.5, 30.0))
    @settings(max_examples=50, deadline=None)
    def test_inverse_power_nonpositive(self, seed, R):
        rng = np.random.default_rng(seed)
        f = random_smooth_field(rng, L=16.0, N=2**9)
        f = LineField(L=f.L, N=f.N, values=f.values, stagger=True)
        m = fn.ModelSpec.inverse_power(float(rng.uniform(0.1, 5.0)), float(rng.uniform(0.05, 0.95)))
        assert fn.sign_condition_value(f, R, m) <= 1e-12

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_delta_and_graph_nonpositive(self, seed):
        rng = np.random.default_rng(seed)
        f = random_smooth_field(rng, L=16.0, N=2**9)
        assert fn.sign_condition_value(f, 3.0, fn.ModelSpec.delta(float(rng.uniform(0, 4)))) <= 0.0
        prof = rng.standard_normal() + 1j * rng.standard_normal()
        g = GraphField.from_function(lambda x: prof * np.exp(-x), 3, 8.0, 64)
        for vc in (
            fn.VertexCondition("dirac_delta", gamma=float(rng.uniform(0, 4))),
            fn.VertexCondition("delta_prime", gamma=float(rng.uniform(0.1, 4))),
        ):
            gg = GraphField(
                J=3, Ledge=8.0, M=64,
                vertex_values=g.vertex_values, edge_values=g.edge_values,
                shared_vertex=vc.is_continuity_type,
            )
            assert fn.sign_condition_value(gg, 3.0, fn.ModelSpec.graph(vc)) <= 0.0

    @pytest.mark.parametrize("case", ["delta", "inverse_power", "dirac_delta", "delta_prime"])
    def test_matches_rhs_energy_bookkeeping(self, case):
        # value == rhs(model) - rhs(base) - 16 (E_model - E_base) on one field
        R = 5.0
        if case == "delta":
            f = gaussian(N=2**10)
            m, base = fn.ModelSpec.delta(0.9), fn.ModelSpec.delta(0.0)
        elif case == "inverse_power":
            f = gaussian(N=2**10, center=1.0, stagger=True)
            m, base = fn.ModelSpec.inverse_power(2.0, 0.5), fn.ModelSpec.free()
        else:
            vals = np.exp(-np.arange(65) / 8.0) * np.array([[1.0], [0.5j], [-0.3]])
            vals[:, -1] = 0.0
            shared = case == "dirac_delta"
            if shared:
                vals[:, 0] = 0.8
            grid = {"kind": "graph", "J": 3, "Ledge": 8.0, "M": 64, "shared_vertex": shared}
            f = field_from_grid(grid).with_values(vals)
            m = fn.ModelSpec.graph(fn.VertexCondition(case, gamma=1.7))
            base = fn.ModelSpec.graph(fn.VertexCondition("kirchhoff"))
        lhs = fn.sign_condition_value(f, R, m)
        rhs = (
            fn.virial_rhs(f, R, m)
            - fn.virial_rhs(f, R, base)
            - 16.0 * (fn.energy(f, m) - fn.energy(f, base))
        )
        assert lhs != 0.0
        assert lhs == pytest.approx(rhs, abs=1e-12)


class TestPotentialCondition:
    def test_inverse_power_passes(self):
        x = np.linspace(0.05, 40.0, 4001)
        mu, gamma = 0.5, 2.0
        V = gamma / x**mu
        Vp = -mu * gamma / x ** (mu + 1.0)
        rep = fn.check_potential_condition(x, V, Vp, R=4.0)
        assert rep.passed
        assert rep.worst_margin <= 0.0

    def test_attractive_well_fails(self):
        x = np.linspace(-10.0, 10.0, 2001)
        V = -(x**2)
        Vp = -2.0 * x
        rep = fn.check_potential_condition(x, V, Vp, R=2.0)
        assert not rep.passed
        assert rep.worst_margin > 0.0
        assert np.isfinite(rep.worst_x)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            fn.check_potential_condition(np.ones(4), np.ones(3), np.ones(4), 1.0)


class TestInterpolationInequality:
    @pytest.mark.parametrize("seed", range(25))
    def test_holds_on_random_pairs(self, seed):
        rng = np.random.default_rng(seed)
        f = random_smooth_field(rng, modes=10)
        g = random_smooth_field(rng, modes=6, width=4.0, real=True)
        R = float(rng.uniform(0.5, 6.0))
        lhs, rhs = fn.ogawa_tsutsumi_bound(f, g, R)
        assert lhs <= rhs + 1e-6

    def test_rejects_complex_envelope(self):
        rng = np.random.default_rng(0)
        f = random_smooth_field(rng)
        with pytest.raises(ValueError):
            fn.ogawa_tsutsumi_bound(f, f, 1.0)
