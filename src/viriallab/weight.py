"""Cutoff profile for the localized virial weight.

The weight is built from an odd cutoff ``zeta``:

    zeta(s) = 2s                  on [0, 1],
    zeta(s) = 2[s - (s-1)^3]      on [1, 1 + 1/sqrt(3)],
    quintic Hermite tail          on [1 + 1/sqrt(3), 2],
    zeta(s) = 0                   for s >= 2,

extended oddly to s < 0.  The tail is the unique quintic matching value,
first and second derivative of the cubic branch at s1 = 1 + 1/sqrt(3) and
vanishing to second order at s = 2, so zeta is C^2 with zeta''' in L^inf.

The profile is stored once, as one piecewise polynomial chi(x) = int_0^x zeta
on the knots 0, 1, s1, 2 (constant beyond 2).  zeta and its derivatives are
the derivatives of chi, the scaled weight chi_R(x) = R^2 chi(x/R) equals x^2
on |x| <= R and is constant beyond 2R, and eta(R, m) is the tail-penalty
constant entering the decay estimate for the localized variance.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np
from numpy.polynomial import polynomial as P

S1 = 1.0 + 1.0 / np.sqrt(3.0)

# value/derivatives of the cubic branch at s1 (interpolation data for the tail)
_V0 = 2.0 + 4.0 / (3.0 * np.sqrt(3.0))  # zeta(s1)
_D1 = 0.0                               # zeta'(s1)
_D2 = -4.0 * np.sqrt(3.0)               # zeta''(s1)


def _hermite_tail_coeffs() -> np.ndarray:
    """Quintic tail p(t) = sum c_k t^k on t = s - s1 in [0, 2 - s1].

    p matches (value, d1, d2) = (_V0, 0, _D2) at t = 0 and (0, 0, 0) at
    t = 2 - s1.
    """
    tau = 2.0 - S1
    c = np.zeros(6)
    c[0] = _V0
    c[1] = _D1
    c[2] = _D2 / 2.0
    # remaining three conditions at t = tau
    A = np.array(
        [
            [tau**3, tau**4, tau**5],
            [3 * tau**2, 4 * tau**3, 5 * tau**4],
            [6 * tau, 12 * tau**2, 20 * tau**3],
        ]
    )
    b = -np.array(
        [
            c[0] + c[1] * tau + c[2] * tau**2,
            c[1] + 2 * c[2] * tau,
            2 * c[2],
        ]
    )
    c[3:] = np.linalg.solve(A, b)
    return c


def _poly_abs_max(coeffs: np.ndarray, lo: float, hi: float) -> tuple[float, float]:
    """Max of |p| over [lo, hi] via critical points of p'. Returns (max, loc)."""
    p = np.asarray(coeffs, dtype=float)
    roots = np.roots(P.polyder(p)[::-1])
    cand = [lo, hi] + [float(r.real) for r in roots if abs(r.imag) < 1e-12 and lo <= r.real <= hi]
    vals = [abs(float(np.polyval(p[::-1], t))) for t in cand]
    i = int(np.argmax(vals))
    return vals[i], cand[i]


@dataclass(frozen=True)
class WeightProfile:
    """Certified cutoff data: tail interpolant plus the sup-norm constants.

    s1 is where the tail starts, 1 < s1 < 2; tail_coeffs are the six
    ascending coefficients of the quintic tail in t = s - s1;
    z2 = ||zeta''||_inf over the tail interval [s1, 2];
    z3 = ||zeta'''||_inf over [1, 2].  Both feed eta().
    A `weight-check --profile` file holds these four keys.
    """

    s1: float
    tail_coeffs: np.ndarray
    z2: float
    z3: float

    def __post_init__(self):
        tail = np.asarray(self.tail_coeffs, dtype=float)
        if tail.shape != (6,) or not np.all(np.isfinite(tail)):
            raise ValueError(f"tail_coeffs must be six finite numbers, got {self.tail_coeffs!r}")
        if not 1.0 < self.s1 < 2.0:
            raise ValueError(f"s1 must lie in (1, 2), got {self.s1}")

    @cached_property
    def knots(self) -> np.ndarray:
        """Left ends of the three pieces, then the end of the bump."""
        return np.array([0.0, 1.0, self.s1, 2.0])

    @cached_property
    def chi_table(self) -> np.ndarray:
        """Ascending coefficients (3 x 7) of chi on each piece in t = s - knot:
        the integrals of zeta = 2t, 2 + 2t - 2t^3 and the tail, chained."""
        table = np.zeros((3, 7))
        start = 0.0
        pieces = ([0.0, 2.0], [2.0, 2.0, 0.0, -2.0], self.tail_coeffs)
        for row, z, width in zip(table, pieces, np.diff(self.knots)):
            c = P.polyint(np.asarray(z, dtype=float), k=start)
            row[: len(c)] = c
            start = P.polyval(width, c)
        return table

    @classmethod
    def default(cls) -> "WeightProfile":
        coeffs = _hermite_tail_coeffs()
        tau = 2.0 - S1
        z2, _ = _poly_abs_max(P.polyder(coeffs, 2), 0.0, tau)
        # |zeta'''| = 12 on the cubic branch [1, s1]
        z3_tail, _ = _poly_abs_max(P.polyder(coeffs, 3), 0.0, tau)
        z3 = max(12.0, z3_tail)
        return cls(s1=S1, tail_coeffs=coeffs, z2=z2, z3=z3)


@cache
def default_profile() -> WeightProfile:
    return WeightProfile.default()


def _chi_deriv(x, k: int, profile: WeightProfile | None = None):
    """chi^(k)(x) from `chi_table`.  |x| is clipped at 2 (the plateau); each
    knot belongs to the piece on its right and s = 2 to the tail, so a jump
    takes that piece's one-sided value (these only ever enter sup-norms)."""
    profile = profile or default_profile()
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite input to chi")
    a = np.minimum(np.abs(x), 2.0)
    piece = np.searchsorted(profile.knots[1:3], a, side="right")
    t = a - profile.knots[piece]
    # Horner in place, gathering one coefficient per node at a time (no
    # (n, degree) gather); "+ 0.0" stands for the first step's 0 * t + c and
    # gives a zero the same sign
    top, *rest = P.polyder(profile.chi_table, k, axis=1).T[::-1]
    out = top[piece] + 0.0
    for c in rest:
        out *= t
        out += c[piece]
    if k:
        out = np.where(np.abs(x) > 2.0, 0.0, out)
    if k % 2:  # chi is even, so its odd-order derivatives are odd
        out = out * np.sign(x)
    return out if out.ndim else float(out)


def zeta(s, order: int = 0, profile: WeightProfile | None = None):
    """zeta = chi' or one of its first three derivatives."""
    if order not in (0, 1, 2, 3):
        raise ValueError(f"order must be in {{0,1,2,3}}, got {order}")
    return _chi_deriv(s, order + 1, profile)


def chi(x, profile: WeightProfile | None = None):
    """chi(x) = int_0^x zeta."""
    return _chi_deriv(x, 0, profile)


def chi_R(x, R: float, order: int = 0):
    """R^(2 - order) chi^(order)(x/R): the scaled weight chi_R = R^2 chi(x/R)
    and its derivatives of order 1, 2 and 4 (order 3 is never needed)."""
    if not (0 < R < np.inf):  # written so that NaN fails too
        raise ValueError(f"R must be positive and finite, got {R}")
    if order not in (0, 1, 2, 4):
        raise ValueError(f"unsupported chi_R derivative order {order}")
    return np.multiply(float(R) ** (2 - order), _chi_deriv(np.asarray(x) / R, order))


def zeta_over_s(s, profile: WeightProfile | None = None):
    """zeta(s)/s with the removable singularity (value 2 on |s| <= 1)."""
    s = np.asarray(s, dtype=float)
    safe = np.where(np.abs(s) <= 1.0, 1.0, s)
    out = np.where(np.abs(s) <= 1.0, 2.0, zeta(safe, 0, profile) / safe)
    return out if out.ndim else float(out)


def eta(R: float, mass2: float) -> float:
    """Tail penalty: (4/(3R^2))(sqrt6 + z2/2)^2 m^3 + z3 m / (2R^2).

    mass2 is the squared L^2 norm of the initial data.
    """
    if R <= 0:
        raise ValueError(f"R must be positive, got {R}")
    if mass2 < 0:
        raise ValueError(f"mass2 must be nonnegative, got {mass2}")
    profile = default_profile()
    term1 = 4.0 / (3.0 * R**2) * (np.sqrt(6.0) + profile.z2 / 2.0) ** 2 * mass2**3
    term2 = profile.z3 / (2.0 * R**2) * mass2
    return term1 + term2


@dataclass
class CheckResult:
    name: str
    passed: bool
    margin: float
    location: float

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "margin": float(self.margin),
            "location": float(self.location),
        }


@dataclass
class ProfileReport:
    checks: list[CheckResult]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed_names(self) -> list[str]:
        return [c.name for c in self.checks if not c.passed]

    def as_dict(self) -> dict:
        return {"passed": self.passed, "checks": [c.as_dict() for c in self.checks]}


def verify_profile(samples: int = 100_000, profile: WeightProfile | None = None) -> ProfileReport:
    """Certify every inequality the weight construction relies on.

    Dense sampling on [-3, 3] with per-check worst margin and location.
    The margin is the distance to violation (negative when violated).
    """
    if samples < 1000:
        raise ValueError(f"samples must be >= 1000, got {samples}")
    profile = profile or default_profile()
    s1 = profile.s1
    checks: list[CheckResult] = []

    def add(name, margins, locs):
        margins = np.atleast_1d(np.asarray(margins, dtype=float))
        locs = np.atleast_1d(np.asarray(locs, dtype=float))
        i = int(np.argmin(margins))
        checks.append(
            CheckResult(name, bool(margins[i] >= 0.0), float(margins[i]), float(locs[i]))
        )

    s = np.linspace(-3.0, 3.0, samples)
    z0 = zeta(s, 0, profile)
    z1 = zeta(s, 1, profile)

    add("oddness", 1e-12 - np.abs(zeta(-s, 0, profile) + z0), s)

    lin = s[np.abs(s) <= 1.0]
    add("linear_branch", 1e-12 - np.abs(zeta(lin, 0, profile) - 2.0 * lin), lin)
    far = s[np.abs(s) >= 2.0]
    add("zero_beyond_2", 1e-12 - np.abs(zeta(far, 0, profile)), far)

    # at the knots 1, s1, 2: each piece's right-end value of zeta and zeta'
    # against the next piece's left-end value (zero beyond 2)
    for k, name in ((1, "knot_continuity_zeta"), (2, "knot_continuity_zeta_prime")):
        d = P.polyder(profile.chi_table, k, axis=1)
        right = P.polyval(np.diff(profile.knots), d.T, tensor=False)
        add(name, 1e-10 - np.abs(right - np.append(d[1:, 0], 0.0)), profile.knots[1:])

    add("zeta_prime_le_2", 2.0 - z1, s)
    pos = s[s >= 0.0]
    add("zeta_nonneg", zeta(pos, 0, profile), pos)

    interior = np.linspace(s1 + 1e-9, 2.0 - 1e-9, samples // 2)
    add("zeta_prime_negative_on_tail", -zeta(interior, 1, profile), interior)

    nz = s[np.abs(s) > 1e-9]
    add("sup_zeta_over_s_le_2", 2.0 - zeta_over_s(nz, profile) + 1e-12, nz)

    c = chi(s, profile)
    add("chi_prime_sq_le_4chi", 4.0 * c - z0**2 + 1e-12, s)

    outer = s[np.abs(s) >= 1.0]
    add("chi_ge_1_outside", chi(outer, profile) - 1.0 + 1e-12, outer)

    # |d/ds sqrt(2 - zeta'(s))|, the squared quartic-root factor's slope (R = 1)
    def dgsq(ss):
        val = np.clip(2.0 - zeta(ss, 1, profile), 0.0, None)
        with np.errstate(divide="ignore", invalid="ignore"):
            d = np.where(val > 0, -zeta(ss, 2, profile) / (2.0 * np.sqrt(val)), 0.0)
        return np.abs(d)

    flat = s[(np.abs(s) < 1.0 - 1e-9) | (np.abs(s) > 2.0 + 1e-9)]
    add("g_sq_deriv_zero_off_bump", 1e-12 - dgsq(flat), flat)
    # exact equality sqrt(6) on the cubic branch; slack covers the 0/0-type
    # cancellation noise of evaluating the ratio near s = 1
    mid = np.linspace(1.0 + 1e-5, s1 - 1e-7, samples // 2)
    add("g_sq_deriv_le_sqrt6", np.sqrt(6.0) + 1e-6 - dgsq(mid), mid)
    tail_s = np.linspace(s1 + 1e-7, 2.0 - 1e-7, samples // 2)
    add("g_sq_deriv_le_z2_half", profile.z2 / 2.0 + 1e-9 - dgsq(tail_s), tail_s)

    # sampled sup-norms of the tail's zeta'' and zeta''' must agree with the
    # stored analytic constants
    tau = 2.0 - s1
    tail = profile.chi_table[2]
    t_grid = np.linspace(0.0, tau, samples)
    z2_s = float(np.max(np.abs(P.polyval(t_grid, P.polyder(tail, 3)))))
    z3_s = max(12.0, float(np.max(np.abs(P.polyval(t_grid, P.polyder(tail, 4))))))
    add("z2_positive_finite", profile.z2 if np.isfinite(profile.z2) else -1.0, s1)
    add("z3_positive_finite", profile.z3 if np.isfinite(profile.z3) else -1.0, 1.0)
    # sampling underestimates the sup by at most (max slope) * grid spacing
    z4, _ = _poly_abs_max(P.polyder(tail, 5), 0.0, tau)
    dt = tau / max(samples - 1, 1)
    add("z2_matches_sampled", profile.z3 * dt + 1e-8 - abs(profile.z2 - z2_s), s1)
    add("z3_matches_sampled", z4 * dt + 1e-8 - abs(profile.z3 - z3_s), 1.0)

    return ProfileReport(checks=checks)
