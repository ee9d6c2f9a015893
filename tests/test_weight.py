import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from viriallab import weight as w


S1 = 1.0 + 1.0 / np.sqrt(3.0)


def _zeta_reference(s, order, profile):
    """The closed-form branch ladder zeta used before the coefficient table:
    linear and cubic branches written out, the tail from its coefficients."""
    s = np.asarray(s, dtype=float)
    a = np.abs(s)
    s1 = profile.s1
    m_lin = a < 1.0
    m_cub = (a >= 1.0) & (a < s1)
    m_tail = (a >= s1) & (a <= 2.0)
    out = np.zeros_like(a)
    if order == 0:
        out = np.where(m_lin, 2.0 * a, out)
        out = np.where(m_cub, 2.0 * (a - (a - 1.0) ** 3), out)
    elif order == 1:
        out = np.where(m_lin, 2.0, out)
        out = np.where(m_cub, 2.0 * (1.0 - 3.0 * (a - 1.0) ** 2), out)
    elif order == 2:
        out = np.where(m_cub, -12.0 * (a - 1.0), out)
    else:
        out = np.where(m_cub, -12.0, out)
    p = np.asarray(profile.tail_coeffs, dtype=float)
    for _ in range(order):
        p = p[1:] * np.arange(1, len(p))
    out = np.where(m_tail, np.polyval(p[::-1], a - s1), out)
    return out * np.sign(s) if order % 2 == 0 else out


def _chi_reference(x, profile):
    """The closed-form branch antiderivatives chi used before the table."""
    x = np.asarray(x, dtype=float)
    a = np.abs(x)
    s1 = profile.s1
    chi_tail = np.concatenate(([s1**2 - (s1 - 1.0) ** 4 / 2.0], profile.tail_coeffs / np.arange(1, 7)))
    plateau = np.polyval(chi_tail[::-1], 2.0 - s1)
    out = np.where(a < 1.0, a**2, 0.0)
    out = np.where((a >= 1.0) & (a < s1), a**2 - (a - 1.0) ** 4 / 2.0, out)
    out = np.where((a >= s1) & (a <= 2.0), np.polyval(chi_tail[::-1], a - s1), out)
    return np.where(a > 2.0, plateau, out)


def _chi_deriv_reference(x, k, profile):
    return _chi_reference(x, profile) if k == 0 else _zeta_reference(x, k - 1, profile)


def _pin_points(profile):
    knots = [0.0, 1.0, -1.0, profile.s1, -profile.s1, 2.0, -2.0]
    return np.concatenate([np.linspace(-3.0, 3.0, 200_001), knots])


class TestTableMatchesClosedForms:
    """The coefficient table reproduces the closed-form branches."""

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
    def test_chi_and_zeta(self, k):
        p = w.default_profile()
        s = _pin_points(p)
        ref = _chi_deriv_reference(s, k, p)
        got = w.chi(s) if k == 0 else w.zeta(s, k - 1)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("R", [0.5, 8.0, 2048.0])
    @pytest.mark.parametrize("k", [0, 1, 2, 4])
    def test_chi_R(self, k, R):
        p = w.default_profile()
        x = R * _pin_points(p)
        ref = R ** (2 - k) * _chi_deriv_reference(x / R, k, p)
        assert np.max(np.abs(w.chi_R(x, R, k) - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_keeps_input_shape(self):
        s = np.linspace(-3.0, 3.0, 12).reshape(3, 4)
        for k in range(4):
            assert np.array_equal(w.zeta(s, k), w.zeta(s.ravel(), k).reshape(3, 4))
        assert np.array_equal(w.chi(s), w.chi(s.ravel()).reshape(3, 4))


class TestZeta:
    def test_linear_branch(self):
        assert w.zeta(0.5, 0) == pytest.approx(1.0, abs=1e-14)

    def test_oddness_value(self):
        assert w.zeta(-0.5, 0) == pytest.approx(-1.0, abs=1e-14)

    def test_zero_beyond_two(self):
        assert w.zeta(2.5, 0) == 0.0

    def test_cubic_branch_at_s1(self):
        # 2[s - (s-1)^3] at s = 1 + 1/sqrt(3), high-precision oracle
        expected = 2.0 + 4.0 / (3.0 * np.sqrt(3.0))
        assert w.zeta(S1, 0) == pytest.approx(expected, abs=1e-13)

    def test_first_derivative_at_1(self):
        assert w.zeta(1.0, 1) == pytest.approx(2.0, abs=1e-13)

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            w.zeta(0.5, 4)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            w.zeta(np.nan, 0)

    @given(st.floats(-3, 3), st.integers(0, 3))
    @settings(max_examples=200, deadline=None)
    def test_parity(self, s, order):
        sign = -1.0 if order % 2 == 0 else 1.0
        assert w.zeta(-s, order) == pytest.approx(sign * w.zeta(s, order), abs=1e-12)

    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_finite_difference_consistency(self, order):
        # centered differences of order k match order k+1 away from knots
        pts = np.concatenate(
            [np.linspace(0.1, 0.9, 7), np.linspace(1.05, 1.5, 7), np.linspace(1.65, 1.95, 7)]
        )
        h = 1e-5
        fd = (w.zeta(pts + h, order) - w.zeta(pts - h, order)) / (2 * h)
        assert np.max(np.abs(fd - w.zeta(pts, order + 1))) < 1e-4 * max(
            1.0, np.max(np.abs(w.zeta(pts, order + 1)))
        )


class TestChi:
    def test_quadratic_branch(self):
        assert w.chi(0.5) == pytest.approx(0.25, abs=1e-14)

    def test_even(self):
        assert w.chi(-1.0) == pytest.approx(1.0, abs=1e-14)

    def test_plateau_matches_quadrature(self):
        # adaptive quadrature of zeta over [0, 2] as independent oracle
        val, err = quad(lambda s: w.zeta(s), 0, 2, limit=500)
        assert w.chi(3.0) == w.chi(2.0)
        assert w.chi(2.0) == pytest.approx(val, abs=max(1e-8, 10 * err))

    @given(st.floats(-3, 3))
    @settings(max_examples=100, deadline=None)
    def test_nondecreasing_in_abs(self, x):
        assert w.chi(x) <= w.chi(1.1 * x) + 1e-14


class TestChiR:
    def test_order0(self):
        assert w.chi_R(1.0, 2.0, 0) == pytest.approx(1.0, abs=1e-14)

    def test_order2_near_zero(self):
        assert w.chi_R(0.0, 5.0, 2) == pytest.approx(2.0, abs=1e-14)

    def test_lower_bound_outside_R(self):
        rng = np.random.default_rng(0)
        for R in (0.5, 1.0, 10.0):
            x = np.sign(rng.standard_normal(10_000)) * (R + 3 * R * rng.random(10_000))
            assert np.all(w.chi_R(x, R, 0) >= R**2 * (1 - 1e-12))

    @pytest.mark.parametrize("R", [0.5, 1.0, 10.0, 1000.0])
    def test_scaling_identity(self, R):
        x = np.linspace(-3 * R, 3 * R, 101)
        lhs = w.chi_R(x, R, 0)
        rhs = R**2 * w.chi(x / R)
        assert np.max(np.abs(lhs - rhs)) <= 1e-14 * max(1.0, np.max(np.abs(rhs)))

    def test_gradient_envelope(self):
        x = np.linspace(-5, 5, 20_001)
        assert np.all(w.chi_R(x, 2.0, 1) ** 2 <= 4 * w.chi_R(x, 2.0, 0) + 1e-10)

    def test_rejects_order3_and_bad_R(self):
        with pytest.raises(ValueError):
            w.chi_R(1.0, 1.0, 3)
        for R in (-1.0, 0.0, np.inf, np.nan):
            with pytest.raises(ValueError):
                w.chi_R(1.0, R, 0)


class TestEta:
    def test_zero_mass(self):
        assert w.eta(3.0, 0.0) == 0.0

    def test_exact_inverse_square_scaling(self):
        for R in (1.0, 2.5, 17.0):
            ratio = w.eta(2 * R, 1.37) / w.eta(R, 1.37)
            assert ratio == pytest.approx(0.25, abs=1e-12)

    def test_formula_term_by_term(self):
        # independent evaluation from densely sampled sup norms
        p = w.default_profile()
        tau = 2.0 - p.s1
        t = np.linspace(0, tau, 400_001)
        tail = np.polyval(p.tail_coeffs[::-1], t)  # noqa: F841 (shape guard)
        d2 = np.polyval((p.tail_coeffs[2:] * [2, 6, 12, 20])[::-1], t)
        d3 = np.polyval((p.tail_coeffs[3:] * [6, 24, 60])[::-1], t)
        z2_s = np.max(np.abs(d2))
        z3_s = max(12.0, np.max(np.abs(d3)))
        R, m = 10.0, 2.72070
        expected = (
            4.0 / (3 * R**2) * (np.sqrt(6) + z2_s / 2) ** 2 * m**3
            + z3_s / (2 * R**2) * m
        )
        # sampled sup norms carry O(grid) error against the root-found ones
        assert w.eta(R, m) == pytest.approx(expected, rel=1e-4)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            w.eta(0.0, 1.0)
        with pytest.raises(ValueError):
            w.eta(1.0, -1.0)


class TestVerifyProfile:
    def test_default_profile_passes(self):
        rep = w.verify_profile(10_000)
        assert rep.passed, rep.failed_names()

    def test_corrupted_profile_fails_continuity(self, monkeypatch):
        # the certificate reads the one profile chi_R and eta compute with
        bad = dataclasses.replace(w.default_profile(), tail_coeffs=np.zeros(6))
        monkeypatch.setattr(w, "default_profile", lambda: bad)
        rep = w.verify_profile(2_000)
        assert not rep.passed
        assert "knot_continuity_zeta" in rep.failed_names()

    def test_sup_ratio_bound(self):
        s = np.linspace(-5, 5, 100_001)
        s = s[np.abs(s) > 1e-9]
        assert np.max(w.zeta(s, 0) / s) <= 2.0 + 1e-12

    def test_rejects_too_few_samples(self):
        with pytest.raises(ValueError):
            w.verify_profile(100)
