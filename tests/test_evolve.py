import csv
import dataclasses
import io
import json
import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from viriallab import cli
from viriallab import evolve as ev
from viriallab import functionals as fn
from viriallab.field import (
    GraphField,
    LineField,
    derivative,
    field_from_grid,
    lp_norm,
    spectral_k2,
    spectral_wavenumbers,
    tail_mass,
)
from viriallab.soliton import ground_state_flow


def soliton_field(L=16.0, N=2**12, lam=1.0, center=0.0):
    def prof(x):
        return lam * (3.0**0.25) / np.sqrt(np.cosh(2.0 * (x - center)))

    return LineField.from_function(prof, L, N)


def gaussian_linear_exact(x, t):
    a = 1.0 + 4.0j * t
    return np.exp(-(x**2) / a) / np.sqrt(a)


class TestSplitStep:
    def test_zero_field_fixed(self):
        f = LineField.from_function(lambda x: np.zeros_like(x), 8.0, 2**6)
        out = ev.step_splitstep(f, 1e-2, fn.ModelSpec.free())
        assert np.all(out.values == 0)

    def test_linear_gaussian_oracle(self):
        # exact free propagation of exp(-x^2), nonlinearity off
        f = LineField.from_function(lambda x: np.exp(-(x**2)), 20.0, 2**12)
        model = fn.ModelSpec.free(nonlinearity_on=False)
        dt, T = 1e-3, 0.5
        for _ in range(round(T / dt)):
            f = ev.step_splitstep(f, dt, model)
        exact = gaussian_linear_exact(f.x, T)
        assert np.max(np.abs(f.values - exact)) < 1e-8

    def test_mass_conserved_long_run(self):
        f = soliton_field(N=2**10)
        m0 = fn.mass(f)
        model = fn.ModelSpec.free()
        for _ in range(10_000):
            f = ev.step_splitstep(f, 1e-4, model)
        assert abs(fn.mass(f) - m0) / m0 < 1e-11

    def test_time_reversible(self):
        f0 = soliton_field(N=2**10, lam=1.05)
        f = f0.copy()
        model = fn.ModelSpec.free()
        for _ in range(100):
            f = ev.step_splitstep(f, 1e-3, model)
        for _ in range(100):
            f = ev.step_splitstep(f, -1e-3, model)
        err = lp_norm(f.with_values(f.values - f0.values), 2) / lp_norm(f0, 2)
        assert err < 1e-9

    def test_power_of_two_rule_on_every_fourier_path(self):
        # the one check in `spectral_wavenumbers`: a ground state on N = 48
        # used to converge to a profile whose energy could not be taken
        f = LineField.from_function(lambda x: np.exp(-(x**2)), 4.0, 48)
        model = fn.ModelSpec.free()
        for call in (
            lambda: derivative(f, "spectral"), lambda: fn.kinetic_energy(f, model),
            lambda: ev.step_splitstep(f, 1e-3, model), lambda: ground_state_flow(model, f),
        ):
            with pytest.raises(ValueError, match="spectral derivative needs N a power of two"):
                call()

    def test_rejects_bad_dt_and_grid(self):
        f = soliton_field(N=2**6)
        with pytest.raises(ValueError):
            ev.step_splitstep(f, 0.0, fn.ModelSpec.free())
        g = LineField.from_function(lambda x: np.zeros_like(x), 4.0, 48)
        with pytest.raises(ValueError):
            ev.step_splitstep(g, 1e-3, fn.ModelSpec.free())


def grad_norm(f, model):
    """The gradient norm sqrt(2 kinetic_energy) that the trigger reads."""
    return float(np.sqrt(2.0 * fn.kinetic_energy(f, model)))


def ref_strang(vec, dt, V, linear, nonlinearity_on):
    """The Strang composition with the complex-exponential phase
    exp(i dt/2 (|u|^4 - V)) that the cos/sin phase replaced."""

    def phase(u):
        nl = np.abs(u) ** 4 if nonlinearity_on else 0.0
        return u * np.exp(1j * (dt / 2.0) * (nl - V))

    return phase(linear(phase(vec)))


def ref_splitstep(f, dt, model):
    """The split step that recomputed k, V and the full-spectrum propagator
    on every call, kept as the reference for the cached kernels."""
    k = spectral_wavenumbers(f)

    def linear(u):
        return np.fft.ifft(np.exp(-1j * k**2 * dt) * np.fft.fft(u))

    V = fn.potential_on_grid(model, f.x)
    return f.with_values(ref_strang(f.values, dt, V, linear, model.nonlinearity_on))


def ref_cayley_solve(H, vec, dt):
    """(M + i dt/2 K)^{-1} (M - i dt/2 K) vec with the right-hand side built
    by a sparse matvec with K, the form the matvec-free solve replaced; kept
    as the reference, with a factor of its own."""
    A = sp.diags(H.Mdiag).astype(complex) + 0.5j * dt * H.K
    b = H.Mdiag * vec - 0.5j * dt * (H.K @ vec)
    return splu(A.tocsc()).solve(b)


def ref_step_cn(f, dt, H):
    vec = ref_strang(
        H.to_vector(f), dt, 0.0, lambda v: ref_cayley_solve(H, v, dt), H.model.nonlinearity_on
    )
    return H.from_vector(vec, f)


def ref_spectral_kinetic_energy(f):
    """(1/2) sum h |du|^2 from the spectral derivative Field."""
    du = derivative(f, "spectral")
    return 0.5 * float(np.sum(f.quad_weights * np.abs(du) ** 2))


def ref_parseval_kinetic_energy(f):
    """The Parseval kinetic energy that rebuilt k and k * k on every call,
    kept as the reference for the cached k^2."""
    k = spectral_wavenumbers(f)
    k[f.N // 2] = 0.0
    spec = np.fft.fft(f.values)
    power = spec.real**2 + spec.imag**2
    return 0.5 * f.h / f.N * float(np.dot(k * k, power))


def rough_field(N, stagger=False, seed=0):
    """Unit-size smooth profile plus noise in every Fourier mode."""
    rng = np.random.default_rng(seed)
    f = LineField.from_function(
        lambda x: np.exp(-(x**2) / 4.0) * (1.0 + 0.3j * np.sin(x)), 16.0, N, stagger=stagger
    )
    return f.with_values(f.values + 0.1 * (rng.standard_normal(N) + 1j * rng.standard_normal(N)))


def rel_err(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


def modulus2(v):
    return np.abs(v) ** 2


def identity_norm(terms, model, grad0, vec0):
    """The energy identity's norm(vec, m2) from a stepper's terms at the
    reference state vec0 of gradient norm grad0."""
    return ev._identity(*terms, model.nonlinearity_on, grad0, vec0, modulus2(vec0), 10.0)[0]


def counted_expi(monkeypatch):
    """The angle at node 1 of each `_expi` call in evolve from here on: the
    split propagator's and V's phase factor's rebuilds."""
    args, expi = [], ev._expi
    monkeypatch.setattr(ev, "_expi", lambda arg, out: args.append(arg[1]) or expi(arg, out))
    return args


def counted_kinetic_energy(monkeypatch):
    """The calls of the exact norm's `kinetic_energy` in `run` from here on."""
    calls, kinetic = [], ev.kinetic_energy
    monkeypatch.setattr(ev, "kinetic_energy", lambda f, model: calls.append(1) or kinetic(f, model))
    return calls


SPECTRAL_CASES = [
    (fn.ModelSpec.free(), False),
    (fn.ModelSpec.inverse_power(2.0, 0.5), True),
    (fn.ModelSpec.free(nonlinearity_on=False), False),
    (fn.ModelSpec.inverse_power(2.0, 0.5, nonlinearity_on=False), True),
]


class TestKernelPins:
    """The cached split-step kernels, the cos/sin phase and the Parseval
    gradient norm against the kernels they replaced."""

    @pytest.mark.parametrize("N", [2**p for p in range(6, 16)])
    def test_splitstep_matches_reference(self, N):
        for model, stagger in SPECTRAL_CASES:
            f = rough_field(N, stagger)
            for dt in (1e-3, -1e-3):
                new = ev.step_splitstep(f, dt, model).values
                assert rel_err(new, ref_splitstep(f, dt, model).values) <= 1e-12

    @pytest.mark.parametrize("N", [2**p for p in range(6, 16)])
    def test_spectral_kinetic_energy_matches_derivative(self, N):
        for model, stagger in SPECTRAL_CASES[:2]:
            f = rough_field(N, stagger)
            ref = ref_spectral_kinetic_energy(f)
            assert fn.kinetic_energy(f, model) == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("N", [2**p for p in range(6, 16)])
    def test_cached_k2_is_bitwise_and_read_only(self, N):
        # one full-spectrum table per (L, N) serves the Parseval norm, whose
        # power drops the Nyquist mode, the propagator and the ground states
        for model, stagger in SPECTRAL_CASES[:2]:
            f = rough_field(N, stagger)
            assert fn.kinetic_energy(f, model) == ref_parseval_kinetic_energy(f)
            k2 = spectral_k2(f.L, f.N)
            assert k2 is spectral_k2(16.0, N)
            assert np.array_equal(k2, spectral_wavenumbers(f) ** 2)
        assert not k2.flags.writeable
        with pytest.raises(ValueError):
            k2[0] = 1.0

    def test_strang_phase_matches_reference(self):
        f = rough_field(2**10, stagger=True)
        V = fn.potential_on_grid(fn.ModelSpec.inverse_power(2.0, 0.5), f.x)
        for pot in (V, 0.0):
            for on in (True, False):
                for dt in (1e-2, -1e-2):
                    new = ev._stepper(f.N, pot, on, lambda u, dt: u)(f.values.copy(), dt)
                    assert rel_err(new, ref_strang(f.values, dt, pot, lambda u: u, on)) <= 1e-12

    def test_step_cn_matches_reference(self):
        line = rough_field(2**9)
        graph = GraphField.from_function(
            lambda x: np.exp(-((x - 3.0) ** 2)) * (1.0 + 0.5j), 3, 10.0, 200
        )
        cases = [
            (line, fn.ModelSpec.delta(1.0)),
            (graph, fn.ModelSpec.graph(fn.VertexCondition("dirac_delta", gamma=1.0))),
        ]
        for f, model in cases:
            H = ev.assemble_hamiltonian(f, model)
            for dt in (1e-3, -1e-3):
                new = ev.step_cn(f, dt, H).values
                assert rel_err(new, ref_step_cn(f, dt, H).values) <= 1e-12

    def test_kinetic_energy_rejects_bad_grid(self):
        f = LineField.from_function(lambda x: np.exp(-(x**2)), 4.0, 48)
        with pytest.raises(ValueError, match="power of two"):
            fn.kinetic_energy(f, fn.ModelSpec.free())
        g = GraphField.from_function(lambda x: np.exp(-(x**2)), 3, 4.0, 48)
        with pytest.raises(ValueError, match="needs a LineField"):
            fn.kinetic_energy(g, fn.ModelSpec.free())

    def test_cached_kernels_read_only(self):
        # the split stepper's V is the cached, read-only `smooth_potential`
        f = rough_field(2**8, stagger=True)
        model = fn.ModelSpec.inverse_power(2.0, 0.5)
        V = ev._split_stepper(f, model)[1][1]
        assert V is fn.smooth_potential(f, model)
        assert not V.flags.writeable
        with pytest.raises(ValueError):
            V[0] = 1.0
        assert ev._split_stepper(f, fn.ModelSpec.free())[1][1] == 0.0

    def test_cache_keyed_on_model(self):
        f = rough_field(2**8, stagger=True)
        models = (fn.ModelSpec.free(), fn.ModelSpec.inverse_power(2.0, 0.5))
        fresh = []
        for model in models:
            fn._smooth_potential.cache_clear()
            fresh.append(ev.step_splitstep(f, 1e-3, model).values)
        fn._smooth_potential.cache_clear()
        for model, ref in zip(models, fresh):  # free, then inverse_power on the same grid
            assert np.array_equal(ev.step_splitstep(f, 1e-3, model).values, ref)


def lil_assembly(template, model):
    """(K, Mdiag) by the element-by-element lil_matrix assembly that the P1
    form replaced, kept as the reference."""
    if model.variant == "delta":
        N, h = template.N, template.h
        K = sp.lil_matrix((N, N))
        K.setdiag(np.full(N, 2.0 / h))
        K.setdiag(np.full(N - 1, -1.0 / h), 1)
        K.setdiag(np.full(N - 1, -1.0 / h), -1)
        K[fn.origin_index(template), fn.origin_index(template)] += model.gamma
        return K.tocsc(), np.full(N, h)
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
        return K.tocsc(), Md
    n = J * M
    K = sp.lil_matrix((n, n))
    Md = np.full(n, h)
    for j in range(J):
        base = j * M
        edge = sp.lil_matrix((M, M))
        main = np.full(M, 2.0 / h)
        main[0] = 1.0 / h
        edge.setdiag(main)
        edge.setdiag(np.full(M - 1, -1.0 / h), 1)
        edge.setdiag(np.full(M - 1, -1.0 / h), -1)
        K[base : base + M, base : base + M] = edge
        Md[base] = h / 2.0
    for j in range(J):
        for k in range(J):
            K[j * M, k * M] += 1.0 / vc.gamma
    return K.tocsc(), Md


def assert_matches_lil(template, model, rel):
    H = ev.assemble_hamiltonian(template, model)
    K, Md = lil_assembly(template, model)
    assert H.K.shape == K.shape
    diff = (H.K - K).tocoo()
    ref = np.abs(np.asarray(K.tocsr()[diff.row, diff.col]).ravel())
    assert np.all(np.abs(diff.data) <= rel * ref)
    assert np.all(np.abs(H.Mdiag - Md) <= rel * np.abs(Md))


class TestAssembly:
    def test_line_dirichlet_eigenvalue(self):
        L, N = 10.0, 2**10
        f = LineField.from_function(lambda x: np.zeros_like(x), L, N)
        H = ev.assemble_hamiltonian(f, fn.ModelSpec.delta(0.0))
        from scipy.sparse.linalg import eigsh

        lam = eigsh((H.K / f.h).tocsc(), k=1, which="SM", return_eigenvectors=False)[0]
        assert lam == pytest.approx((np.pi / (2 * L)) ** 2, rel=1e-2)

    def test_hermiticity(self):
        rng = np.random.default_rng(3)
        f = LineField.from_function(lambda x: np.zeros_like(x), 6.0, 2**7)
        H = ev.assemble_hamiltonian(f, fn.ModelSpec.delta(1.3))
        K = H.K
        for _ in range(100):
            u = rng.standard_normal(f.N) + 1j * rng.standard_normal(f.N)
            v = rng.standard_normal(f.N) + 1j * rng.standard_normal(f.N)
            lhs = np.vdot(K @ u, v)
            rhs = np.vdot(u, K @ v)
            assert abs(lhs - rhs) < 1e-12 * np.linalg.norm(u) * np.linalg.norm(v)

    @pytest.mark.parametrize("case", ["delta", "kirchhoff", "dirac_delta", "delta_prime"])
    def test_form_matches_kinetic_plus_vertex(self, case):
        # <K u, u> = 2 * kinetic + 2 * potential (the vertex term)
        if case == "delta":
            f = LineField.from_function(lambda x: np.exp(-(x**2)) * (1 + 0.5j), 8.0, 2**8)
            m = fn.ModelSpec.delta(0.9)
        else:
            vc = fn.VertexCondition(case, gamma=0.0 if case == "kirchhoff" else 2.0)
            shared = vc.is_continuity_type
            scale = np.array([[1.0], [1.0], [1.0]]) if shared else np.array([[1.0], [0.5j], [-0.3]])
            grid = {"kind": "graph", "J": 3, "Ledge": 10.0, "M": 200, "shared_vertex": shared}
            f = field_from_grid(grid)
            vals = np.exp(-(f.x**2) / 4.0) * scale
            vals[:, -1] = 0.0
            f = f.with_values(vals)
            m = fn.ModelSpec.graph(vc)
        H = ev.assemble_hamiltonian(f, m)
        vec = H.to_vector(f)
        form = np.vdot(vec, H.K @ vec).real
        pot = fn.potential_energy(f, m)
        assert (pot == 0.0) == (case == "kirchhoff")
        assert form == pytest.approx(2.0 * fn.kinetic_energy(f, m) + 2.0 * pot, rel=1e-12)

    @pytest.mark.parametrize("gamma", [0.0, 1.3])
    def test_line_matches_lil_reference(self, gamma):
        f = LineField.from_function(lambda x: np.zeros_like(x), 6.3, 100)
        assert_matches_lil(f, fn.ModelSpec.delta(gamma), rel=4e-16)

    @pytest.mark.parametrize("J", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["kirchhoff", "dirac_delta", "delta_prime"])
    def test_graph_matches_lil_reference(self, J, kind):
        # on the condition's own layout: one vertex value, or one per edge for delta'
        vc = fn.VertexCondition(kind, gamma=0.0 if kind == "kirchhoff" else 1.3)
        for Ledge, M in ((5.0, 20), (7.3, 31)):
            grid = {"kind": "graph", "J": J, "Ledge": Ledge, "M": M,
                    "shared_vertex": vc.is_continuity_type}
            assert_matches_lil(field_from_grid(grid), fn.ModelSpec.graph(vc), rel=4e-16)

    @pytest.mark.parametrize(
        "name", ["delta_gaussian", "delta_blowup", "graph_gaussian", "graph_blowup"]
    )
    def test_bundled_grids_match_lil_reference_exactly(self, name):
        sc = cli.load_scenario(cli.bundled_scenario_path(name))
        model = fn.ModelSpec.from_dict(sc["model"])
        assert_matches_lil(field_from_grid(sc["grid"]), model, rel=0.0)

    def test_two_edge_kirchhoff_form_folds_to_line(self):
        L, M = 8.0, 160
        prof = lambda x: np.exp(-(np.abs(x) ** 2)) * (1 + 0j)  # noqa: E731
        line = LineField.from_function(prof, L, 2 * M)
        graph = GraphField.from_function(prof, 2, L, M)
        Hl = ev.assemble_hamiltonian(line, fn.ModelSpec.delta(0.0))
        Hg = ev.assemble_hamiltonian(graph, fn.ModelSpec.graph(fn.VertexCondition("kirchhoff")))
        fl = np.vdot(line.values, Hl.K @ line.values).real
        vg = Hg.to_vector(graph)
        fg = np.vdot(vg, Hg.K @ vg).real
        assert fl == pytest.approx(fg, abs=1e-12)

    def test_vector_roundtrip(self):
        g = GraphField.from_function(lambda x: np.exp(-x) * (0.3 + 1j), 3, 5.0, 20)
        for vc in (fn.VertexCondition("kirchhoff"), fn.VertexCondition("delta_prime", gamma=1.0)):
            gg = GraphField(
                J=3, Ledge=5.0, M=20,
                vertex_values=g.vertex_values, edge_values=g.edge_values,
                shared_vertex=vc.is_continuity_type,
            )
            H = ev.assemble_hamiltonian(gg, fn.ModelSpec.graph(vc))
            back = H.from_vector(H.to_vector(gg), gg)
            assert np.max(np.abs(back.values - gg.values)) < 1e-15


class TestCayleyStep:
    def test_eigenvector_phase(self):
        f = LineField.from_function(lambda x: np.zeros_like(x), 6.0, 64)
        H = ev.assemble_hamiltonian(f, fn.ModelSpec.delta(0.0))
        Kd = (H.K.toarray() / f.h).real
        lam, vecs = np.linalg.eigh(Kd)
        u0 = f.with_values(vecs[:, 0].astype(complex))
        dt = 1e-2
        model = fn.ModelSpec.delta(0.0, nonlinearity_on=False)
        Hoff = ev.assemble_hamiltonian(f, model)
        u1 = ev.step_cn(u0, dt, Hoff)
        factor = (1 - 0.5j * dt * lam[0]) / (1 + 0.5j * dt * lam[0])
        assert np.max(np.abs(u1.values - factor * u0.values)) < 1e-12

    def test_mass_conserved_long_run(self):
        f = soliton_field(L=12.0, N=2**9)
        model = fn.ModelSpec.delta(1.0)
        H = ev.assemble_hamiltonian(f, model)
        m0 = fn.mass(f)
        for _ in range(10_000):
            f = ev.step_cn(f, 1e-4, H)
        assert abs(fn.mass(f) - m0) / m0 < 1e-11

    def test_energy_drift_second_order(self):
        model = fn.ModelSpec.delta(1.0)

        def drift(dt):
            f = soliton_field(L=12.0, N=2**10)
            H = ev.assemble_hamiltonian(f, model)
            e0 = fn.energy(f, model)
            for _ in range(round(0.25 / dt)):
                f = ev.step_cn(f, dt, H)
            return abs(fn.energy(f, model) - e0)

        r = drift(2e-3) / drift(1e-3)
        assert 3.5 <= r <= 4.5

    def test_time_reversible(self):
        f0 = soliton_field(L=12.0, N=2**9, lam=1.05)
        model = fn.ModelSpec.delta(0.8)
        H = ev.assemble_hamiltonian(f0, model)
        f = f0.copy()
        for _ in range(100):
            f = ev.step_cn(f, 1e-3, H)
        for _ in range(100):
            f = ev.step_cn(f, -1e-3, H)
        err = lp_norm(f.with_values(f.values - f0.values), 2) / lp_norm(f0, 2)
        assert err < 1e-9

    @pytest.mark.parametrize("graph", [False, True], ids=["delta-line", "graph-3-edge"])
    def test_alternating_dt_matches_fresh_operator(self, graph):
        # H keeps the LU factor of its last dt only: alternating two dt
        # refactors on every step, and each step equals one on a fresh H
        if graph:
            f = GraphField.from_function(focusing_bump, 3, 8.0, 128)
            model = fn.ModelSpec.graph(fn.VertexCondition("dirac_delta", gamma=1.0))
        else:
            f, model = soliton_field(L=12.0, N=2**9, lam=1.05), fn.ModelSpec.delta(0.8)
        H, dts = ev.assemble_hamiltonian(f, model), [1e-3, 2.5e-4] * 4
        for i, dt in enumerate(dts):
            fresh = ev.step_cn(f, dt, ev.assemble_hamiltonian(f, model))
            f = ev.step_cn(f, dt, H)
            assert np.array_equal(f.values, fresh.values)
            assert H.lu_factorizations == i + 1


VERTEX_CONDITIONS = [
    fn.VertexCondition("kirchhoff"),
    fn.VertexCondition("dirac_delta", gamma=0.7),
    fn.VertexCondition("dirac_delta", gamma=-0.5),
    fn.VertexCondition("delta_prime", gamma=2.0),
    fn.VertexCondition("delta_prime", gamma=-3.0),
]
CAYLEY_DTS = (1e-3, -1e-3, 0.5, 1e-6)


def rough_graph(J, shared, M=96, seed=0):
    """A different noisy profile on each edge, the Dirichlet zero at the far
    node, and one vertex value on a shared grid."""
    rng = np.random.default_rng(seed)
    t = field_from_grid({"kind": "graph", "J": J, "Ledge": 8.0, "M": M, "shared_vertex": shared})
    prof = np.exp(-((t.x - 2.0) ** 2) / 2.0) * (1.0 + 0.4j * np.sin(t.x))
    vals = prof * (1.0 + 0.3 * np.arange(J))[:, None]
    vals = vals + 0.1 * (rng.standard_normal(vals.shape) + 1j * rng.standard_normal(vals.shape))
    if shared:
        vals[:, 0] = vals[0, 0]
    vals[:, -1] = 0.0
    return t.with_values(vals)


def cayley_cases():
    for gamma in (0.0, 1.3, -2.0):
        yield pytest.param(rough_field(2**9), fn.ModelSpec.delta(gamma), id=f"line-delta{gamma}")
    # each condition on its own vertex layout, the only one it assembles on,
    # with an even and an odd number of nodes per edge
    for M in (96, 61):
        for J in (1, 2, 3, 4):
            for vc in VERTEX_CONDITIONS:
                shared = vc.is_continuity_type
                name = f"graph-J{J}-{vc.kind}{vc.gamma}-{'shared' if shared else 'unshared'}"
                name += "" if M == 96 else f"-M{M}"
                f = rough_graph(J, shared, M=M, seed=J)
                yield pytest.param(f, fn.ModelSpec.graph(vc), id=name)


class TestCayleyPins:
    """The matvec-free Cayley flow 2 (M + i dt/2 K)^{-1} M v - v against the
    solve with the explicit right-hand side (M - i dt/2 K) v."""

    @pytest.mark.parametrize("f,model", cayley_cases())
    def test_matches_matvec_reference(self, f, model):
        H = ev.assemble_hamiltonian(f, model)
        rng = np.random.default_rng(1)
        n = len(H.Mdiag)
        vec = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        for dt in CAYLEY_DTS:
            assert rel_err(H.cayley_solve(vec, dt), ref_cayley_solve(H, vec, dt)) <= 1e-12
            new = ev.step_cn(f, dt, H).values
            assert rel_err(new, ref_step_cn(f, dt, H).values) <= 1e-12

    @pytest.mark.parametrize("graph", [False, True], ids=["delta-line", "graph-3-edge"])
    def test_discrete_mass_conserved(self, graph):
        if graph:
            f = rough_graph(3, True, M=200)
            model = fn.ModelSpec.graph(fn.VertexCondition("dirac_delta", gamma=-0.5))
        else:
            f = soliton_field(L=12.0, N=2**9)
            model = fn.ModelSpec.delta(1.3)
        H = ev.assemble_hamiltonian(f, model)

        def discrete_mass(u):
            return float(np.sum(H.Mdiag * np.abs(H.to_vector(u)) ** 2))

        m0 = discrete_mass(f)
        for _ in range(2000):
            f = ev.step_cn(f, 1e-3, H)
        assert abs(discrete_mass(f) - m0) <= 1e-12 * m0


def recorded_splu(monkeypatch):
    """The matrices `evolve.splu` receives from here on."""
    seen = []
    monkeypatch.setattr(ev, "splu", lambda A: seen.append(A) or splu(A))
    return seen


class TestEdgeBlockSolve:
    """One SuperLU factor of one edge block serves every edge of a star; the
    line is one edge with no vertex coefficients."""

    @pytest.mark.parametrize("f,model", cayley_cases())
    def test_factors_one_edge_block_per_dt(self, f, model, monkeypatch):
        seen = recorded_splu(monkeypatch)
        H = ev.assemble_hamiltonian(f, model)
        n = len(H.Mdiag)
        vec = np.random.default_rng(5).standard_normal(n) + 0j
        for dt in CAYLEY_DTS:
            H.cayley_solve(vec, dt)
        m = f.N if model.variant == "delta" else f.M - 1
        assert [A.shape for A in seen] == [(m, m)] * len(CAYLEY_DTS)
        assert H.lu_factorizations == len(CAYLEY_DTS)
        # the edges are a strided view of the coefficient vector
        ids = np.arange(n)
        assert np.shares_memory(H._edge_view(ids), ids)
        assert np.array_equal(H._edge_view(ids), H._edges)
        assert np.array_equal(np.sort(np.concatenate([H._edges.ravel(), H._vertex])), ids)

    @pytest.mark.parametrize("f,model", cayley_cases())
    def test_coupling_solves_hold_no_subnormals(self, f, model):
        H = ev.assemble_hamiltonian(f, model)
        tiny = np.finfo(float).tiny
        for dt in CAYLEY_DTS:
            H.cayley_solve(np.ones(len(H.Mdiag), complex), dt)
            coupling = H._lu[1][1]
            assert (coupling is None) == (model.variant == "delta")
            if coupling is not None:
                z = coupling[0]
                for part in (z.real, z.imag):
                    assert np.all((part == 0.0) | (np.abs(part) >= tiny))
                assert z[-1] != 0.0

    def test_coupling_solve_cut_where_it_underflows(self):
        # graph_blowup's edge at a blow-up dt: T^{-1} e_0 decays geometrically,
        # and the entries past its last normal one are not stored
        t = field_from_grid({"kind": "graph", "J": 3, "Ledge": 20.0, "M": 2000})
        model = fn.ModelSpec.graph(fn.VertexCondition("dirac_delta", gamma=1.0))
        H = ev.assemble_hamiltonian(t, model)
        H.cayley_solve(np.ones(len(H.Mdiag), complex), 1e-4)
        assert len(H._lu[1][1][0]) < (t.M - 1) / 2

    @pytest.mark.parametrize("shared,vc", [
        (True, fn.VertexCondition("dirac_delta", gamma=0.7)),
        (False, fn.VertexCondition("delta_prime", gamma=2.0)),
    ], ids=["dirac-shared", "delta_prime-unshared"])
    @pytest.mark.parametrize("part", ["K", "Mdiag"])
    def test_unequal_edge_blocks_raise(self, shared, vc, part, monkeypatch):
        # no other solver stands behind the edge-block factor
        seen = recorded_splu(monkeypatch)
        f, model = rough_graph(3, shared), fn.ModelSpec.graph(vc)
        H = ev.assemble_hamiltonian(f, model)
        K, Mdiag = H.K.tolil(), H.Mdiag.copy()
        i = H._edges[1, 5]
        if part == "K":
            K[i, i] *= 1.5
        else:
            Mdiag[i] *= 1.5
        bad = ev.AssembledOperator(model, f, K.tocsc(), Mdiag, H.unknown)
        with pytest.raises(ValueError, match="edge blocks"):
            bad.cayley_solve(H.to_vector(f), 1e-3)
        assert seen == [] and bad.lu_factorizations == 0

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_small_inverse_matches_lapack(self, k):
        # the vertex Schur complement's Gauss-Jordan inverse, pivoting included
        rng = np.random.default_rng(k)
        for a in (rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)),
                  np.eye(k)[::-1] * (1.0 + 0.5j)):
            assert rel_err(ev._inverse(a), np.linalg.inv(a)) <= 1e-12

    @pytest.mark.parametrize("f,model", cayley_cases())
    def test_input_may_be_the_output_buffer(self, f, model):
        # `run` hands the solve the vector its last call returned
        H = ev.assemble_hamiltonian(f, model)
        n = len(H.Mdiag)
        rng = np.random.default_rng(6)
        vec = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        out = H.cayley_solve(vec, 1e-3)
        ref = ref_cayley_solve(H, out.copy(), 1e-3)
        assert H.cayley_solve(out, 1e-3) is out
        assert rel_err(out, ref) <= 1e-12

    @pytest.mark.parametrize(
        "f,model", [p for p in cayley_cases() if p.values[1].variant == "graph"]
    )
    def test_z_is_first_row_of_edge_solve(self, f, model):
        # T is complex symmetric, so z = T^{-1} e_0 is also the first row of
        # T^{-1}: the vertex-first solve reads each edge's first entry of
        # T^{-1} b as z . b, before the one SuperLU call
        H = ev.assemble_hamiltonian(f, model)
        J, m = H._edges.shape
        rng = np.random.default_rng(7)
        for dt in CAYLEY_DTS + tuple(-d for d in CAYLEY_DTS):
            H.cayley_solve(np.zeros(len(H.Mdiag), complex), dt)
            lu, (z, *_) = H._lu[1]
            B = rng.standard_normal((J, m)) + 1j * rng.standard_normal((J, m))
            assert rel_err(B[:, : len(z)] @ z, lu.solve(np.ascontiguousarray(B.T))[0]) <= 1e-13


def reference_cayley_run(u0, model, cfg):
    """The Cayley path of `run` as it was when it stepped Fields: `step_cn`
    and a Field on every step, the trigger's gradient norm from
    `kinetic_energy`, dt snapped by `_quantize_dt` onto `run`'s one ladder;
    kept as the reference for the coefficient-vector loop.  Returns (verdict,
    steps, times, snapshots)."""
    H = ev.assemble_hamiltonian(u0, model)
    grad0 = grad_norm(u0, model)
    times, snapshots = [0.0], [u0.copy()]
    u, t, nstep = u0.copy(), 0.0, 0
    amp = float(np.max(np.abs(u.values), initial=0.0))
    verdict = ev.BlowupVerdict("completed")
    while t < cfg.T_end * (1.0 - 1e-14):
        rate = amp**4 if model.nonlinearity_on else 0.0
        dt = cfg.dt_max if rate == 0.0 else min(cfg.dt_max, cfg.phase_tol / rate)
        dt = min(dt, cfg.dt_init) if nstep == 0 else ev._quantize_dt(dt, cfg.dt_max)
        if dt < cfg.dt_min:
            verdict = ev.BlowupVerdict("blowup_detected", t_detect=t, trigger="dt_underflow")
            break
        rest = cfg.T_end - t
        if rest < dt - cfg.dt_min:
            dt = rest
        try:
            u = ev.step_cn(u, dt, H)
        except ValueError as exc:
            verdict = ev.BlowupVerdict("aborted", diagnostic=str(exc))
            break
        t = cfg.T_end if rest <= dt + cfg.dt_min else t + dt
        nstep += 1
        amp = float(np.max(np.abs(u.values), initial=0.0))
        trigger = ev._trigger(cfg, grad0, amp, grad_norm(u, model))
        if trigger is not None:
            verdict = ev.BlowupVerdict("blowup_detected", t_detect=t, trigger=trigger)
            break
        if nstep % cfg.snapshot_stride == 0:
            times.append(t)
            snapshots.append(u.copy())
    if t > times[-1]:
        times.append(t)
        snapshots.append(u.copy())
    return verdict, nstep, np.array(times), snapshots


def focusing_bump(x):
    return 1.3 * np.exp(-(x**2)) * (1.0 + 0.2j * x)


# phase-limited runs whose dt starts at dt_init and changes level: the
# attractive delta line fires the gradient trigger (factor 1.2) at t = 0.089,
# the graphs run to T_end
CAYLEY_RUN_CASES = [
    pytest.param(
        LineField.from_function(focusing_bump, 8.0, 2**9), fn.ModelSpec.delta(-1.0),
        dict(grad_blowup_factor=1.2, T_end=0.3), id="delta-line",
    ),
    pytest.param(
        GraphField.from_function(focusing_bump, 3, 8.0, 256),
        fn.ModelSpec.graph(fn.VertexCondition("dirac_delta", gamma=1.0)), {}, id="graph-dirac",
    ),
    pytest.param(
        GraphField.from_function(focusing_bump, 3, 8.0, 256, shared_vertex=False),
        fn.ModelSpec.graph(fn.VertexCondition("delta_prime", gamma=2.0)), {},
        id="graph-delta_prime-unshared",
    ),
]


def cayley_run_config(**kw):
    base = dict(dt_init=1e-4, phase_tol=1e-3, T_end=0.1, snapshot_stride=50)
    return ev.SolverConfig(**(base | kw))


class TestCayleyIdentityNorm:
    """The Cayley path reads its per-step gradient norm from the energy
    identity ||v'||^2 = 2 E(0) + sum Mdiag |v|^6 / 3 - g |sum_vertex v|^2; the
    P1 norm runs where a value is recorded or the identity crosses."""

    @staticmethod
    def identity_norm(f, model, grad0):
        H = ev.assemble_hamiltonian(f, model)
        norm = identity_norm(ev._cayley_stepper(H)[1], model, grad0, H.to_vector(f))
        return lambda u: norm(H.to_vector(u), modulus2(H.to_vector(u)))

    @pytest.mark.parametrize("f,model,extra", CAYLEY_RUN_CASES)
    def test_matches_p1_norm_within_energy_drift(self, f, model, extra):
        traj = ev.run(f, model, cayley_run_config(**extra))
        norm = self.identity_norm(f, model, traj.grad_series[0])
        E = traj.energy_series
        drift = float(np.max(np.abs(E - E[0])))
        assert 0.0 < drift < 1e-4
        for u, g, e in zip(traj.snapshots, traj.grad_series, E):
            est = norm(u)
            # off by the energy drift of this snapshot, to rounding
            assert abs(est**2 - g**2 - 2.0 * (E[0] - e)) <= 1e-13 * g**2
            assert abs(est**2 - g**2) <= 2.0 * drift * (1.0 + 1e-6)

    @pytest.mark.parametrize("f,model,extra", CAYLEY_RUN_CASES)
    def test_p1_norm_only_where_recorded(self, f, model, extra, monkeypatch):
        calls = counted_kinetic_energy(monkeypatch)
        traj = ev.run(f, model, cayley_run_config(**extra))
        # the initial state, the snapshots, and the steps after the identity
        # crosses a firing factor
        crossing = traj.verdict.status == "blowup_detected"
        assert len(traj.snapshots) <= len(calls) <= len(traj.snapshots) + 20 * crossing
        assert len(calls) < traj.steps / 5

    def test_identity_crossing_alone_does_not_fire(self, monkeypatch):
        # the energy falls on the delta' star, so the identity's norm is above
        # the P1 norm: a factor just above the largest P1 ratio of any step is
        # crossed by the identity only, and the run completes, as the
        # reference, which reads the P1 norm on every step, does
        f, model, extra = CAYLEY_RUN_CASES[2].values
        every = ev.run(f, model, cayley_run_config(**(extra | {"snapshot_stride": 1})))
        g = every.grad_series
        factor = (1.0 + 1e-8) * float(np.max(g) / g[0])
        norm = self.identity_norm(f, model, g[0])
        assert max(norm(u) for u in every.snapshots) > factor * g[0]
        calls = counted_kinetic_energy(monkeypatch)
        cfg = cayley_run_config(**(extra | {"grad_blowup_factor": factor}))
        traj = ev.run(f, model, cfg)
        assert traj.verdict.status == reference_cayley_run(f, model, cfg)[0].status == "completed"
        # the crossing steps took the P1 norm beyond the snapshots'
        assert len(calls) > len(traj.snapshots)


def reference_split_run(u0, model, cfg):
    """The split path of `run` as it was when it stepped Fields: `step_splitstep`
    and a Field on every step, so the propagator and both half phases are built
    anew on each step, dt on `run`'s ladder, and the trigger's gradient norm
    from `kinetic_energy`; kept as the reference for the vector loop.  Returns
    (verdict, steps, times, snapshots)."""
    V = fn.potential_on_grid(model, u0.x)
    absV = np.abs(V) if np.any(V) else None
    grad0 = grad_norm(u0, model)
    times, snapshots = [0.0], [u0.copy()]
    u, t, nstep = u0.copy(), 0.0, 0
    modulus = np.abs(u.values)
    amp = float(np.max(modulus, initial=0.0))
    verdict = ev.BlowupVerdict("completed")
    while t < cfg.T_end * (1.0 - 1e-14):
        rate = amp**4 if model.nonlinearity_on else 0.0
        if absV is not None:
            rate += float(np.max(absV, where=modulus > ev.V_SUPPORT_FRACTION * amp, initial=0.0))
        dt = cfg.dt_max if rate == 0.0 else min(cfg.dt_max, cfg.phase_tol / rate)
        dt = min(dt, cfg.dt_init) if nstep == 0 else ev._quantize_dt(dt, cfg.dt_max)
        if dt < cfg.dt_min:
            verdict = ev.BlowupVerdict("blowup_detected", t_detect=t, trigger="dt_underflow")
            break
        rest = cfg.T_end - t
        if rest < dt - cfg.dt_min:
            dt = rest
        u = ev.step_splitstep(u, dt, model)
        modulus = np.abs(u.values)
        amp = float(np.max(modulus, initial=0.0))
        t = cfg.T_end if rest <= dt + cfg.dt_min else t + dt
        nstep += 1
        trigger = ev._trigger(cfg, grad0, amp, grad_norm(u, model))
        if trigger is not None:
            verdict = ev.BlowupVerdict("blowup_detected", t_detect=t, trigger=trigger)
            break
        if nstep % cfg.snapshot_stride == 0:
            times.append(t)
            snapshots.append(u.copy())
    if t > times[-1]:
        times.append(t)
        snapshots.append(u.copy())
    return verdict, nstep, np.array(times), snapshots


def staggered(f):
    return LineField.from_function(f, 8.0, 2**9, stagger=True)


# split runs whose target dt changes on every step (the phase rate limits it:
# the free bump focuses, the inverse-power data sit over x = 0), and runs at
# dt_max after a dt_init step, with a last step fitted to T_end
SPLIT_RATE_LIMITED = [
    pytest.param(LineField.from_function(focusing_bump, 8.0, 2**9), fn.ModelSpec.free(),
                 dict(grad_blowup_factor=1.2, T_end=0.3), id="free-focusing"),
    pytest.param(staggered(focusing_bump), fn.ModelSpec.inverse_power(1.0, 0.5), {},
                 id="invpow-over-origin"),
]
SPLIT_EQUAL_DT = [
    pytest.param(LineField.from_function(lambda x: np.exp(-(x**2)), 8.0, 2**9),
                 fn.ModelSpec.free(), dict(phase_tol=1e6, T_end=0.0305), id="free-equal-dt"),
    pytest.param(staggered(lambda x: np.exp(-((x - 1.0) ** 2))), fn.ModelSpec.inverse_power(1.0, 0.5),
                 dict(phase_tol=1e6, T_end=0.0305), id="invpow-equal-dt"),
]


def split_run_config(**kw):
    base = dict(dt_init=1e-4, dt_max=1e-3, phase_tol=1e-3, T_end=0.1, snapshot_stride=7)
    return ev.SolverConfig(**(base | kw))


class TestQuantizeDt:
    DT_MAX = [1e-3, 0.1, 3e-4]

    @staticmethod
    def targets(dt_max, rungs):
        # random targets over 40 octaves, and every rung with its neighbours
        # one ulp away
        rung = dt_max / 2.0 ** (np.arange(1, 40 * rungs) / rungs)
        rand = dt_max * 2.0 ** -np.random.default_rng(3).uniform(0.0, 40.0, 2000)
        return np.concatenate([rand, rung, np.nextafter(rung, 0.0), np.nextafter(rung, 1.0)])

    @pytest.mark.parametrize("rungs", [ev.DT_RUNGS])
    @pytest.mark.parametrize("dt_max", DT_MAX)
    def test_largest_rung_at_most_target(self, dt_max, rungs):
        for target in self.targets(dt_max, rungs):
            dt = ev._quantize_dt(target, dt_max)
            assert target * 2.0 ** (-1.0 / rungs) * (1.0 - 1e-15) < dt <= target
        assert ev._quantize_dt(dt_max, dt_max) == dt_max
        assert ev._quantize_dt(2.0 * dt_max, dt_max) == dt_max

    @pytest.mark.parametrize("dt_max", DT_MAX)
    def test_rung_snaps_to_itself_or_next_rung(self, dt_max):
        rungs = ev.DT_RUNGS
        rung = dt_max / 2.0 ** (np.arange(40 * rungs + 1) / rungs)
        for k in range(40 * rungs):
            assert ev._quantize_dt(rung[k], dt_max) in (rung[k], rung[k + 1])
            # so a run whose target crosses a rung steps on that rung or the next
            below = ev._quantize_dt(np.nextafter(rung[k], 0.0), dt_max)
            assert below == rung[k + 1]


class TestSplitVectorLoop:
    """The split path of `run`, one vector stepped in place, against the loop
    that stepped Fields."""

    @pytest.mark.parametrize("f,model,extra", SPLIT_RATE_LIMITED + SPLIT_EQUAL_DT)
    def test_matches_field_loop(self, f, model, extra):
        cfg = split_run_config(**extra)
        traj = ev.run(f, model, cfg)
        verdict, steps, times, snapshots = reference_split_run(f, model, cfg)
        assert traj.verdict == verdict
        assert traj.steps == steps
        assert np.array_equal(traj.times, times)
        # the series records the gradient norm the trigger read, bit for bit
        assert list(traj.grad_series) == [grad_norm(u, model) for u in traj.snapshots]
        assert len(traj.snapshots) == len(snapshots) >= 3
        if cfg.phase_tol < 1.0:
            # the phase rate holds every step on a rung below dt_max
            assert traj.dt_max < cfg.dt_max
        # equal-dt steps share half phases, which the reference builds anew
        for new, ref in zip(traj.snapshots, snapshots):
            assert rel_err(new.values, ref.values) <= 1e-13

    @pytest.mark.parametrize("f,model,extra", SPLIT_RATE_LIMITED + SPLIT_EQUAL_DT)
    def test_propagator_and_leading_phase_rebuilt_when_dt_changes(
        self, f, model, extra, monkeypatch
    ):
        # the propagator once per dt level, one phase factor per step, and one
        # more (the leading factor) on the first step and on every step whose
        # dt differs from the step before; V's phase factor with the
        # propagator, where V is not zero
        step_dts, phase_dts = [], []
        stepper, phase = ev._stepper, ev._phase
        expi_args = counted_expi(monkeypatch)
        monkeypatch.setattr(ev, "_stepper", lambda n, V, on, flow: stepper(
            n, V, on, lambda v, dt: step_dts.append(dt) or flow(v, dt)))
        monkeypatch.setattr(
            ev, "_phase", lambda u, dt, *a: phase_dts.append(dt) or phase(u, dt, *a)
        )
        traj = ev.run(f, model, split_run_config(**extra))
        assert len(step_dts) == traj.steps and len(set(step_dts)) >= 3
        assert traj.dt_levels == len(set(step_dts))
        changed = [i == 0 or dt != step_dts[i - 1] for i, dt in enumerate(step_dts)]
        if extra.get("phase_tol") == 1e6:
            # dt_init, then dt_max, then the last step fitted to T_end
            assert sum(changed) == 3
        else:
            # the target falls across rungs, yet on the ladder dt holds over
            # most steps
            assert 3 < sum(changed) < len(step_dts) / 2
        # each rebuild: exp(-i dt/2 V) in the step where V is not zero, then
        # exp(-i k^2 dt) in the flow, told apart by their angles at node 1
        V, k2 = fn.smooth_potential(f, model), spectral_k2(f.L, f.N)[1]
        rebuilt = []
        for dt in [dt for dt, c in zip(step_dts, changed) if c]:
            rebuilt += ([] if V is None else [V[1] * (-dt / 2.0)]) + [-dt * k2]
        assert expi_args == rebuilt
        expected = []
        for dt, c in zip(step_dts, changed):
            expected += [dt, dt] if c else [dt]
        assert phase_dts == expected

    @pytest.mark.parametrize("stagger", [False, True], ids=["plain", "staggered"])
    @pytest.mark.parametrize("N", [2**k for k in range(6, 16)])
    def test_step_matches_unscaled_propagator_bitwise(self, N, stagger):
        # 1/N in the propagator and the inverse FFT with norm="forward" give
        # the flow of the unscaled propagator and the plain inverse FFT, as N
        # is a power of two
        f = rough_field(N, stagger)
        for model in [fn.ModelSpec.free()] + stagger * [fn.ModelSpec.inverse_power(2.0, 0.5)]:
            k2 = spectral_wavenumbers(f) ** 2

            def flow(u, dt):
                # exp(-i k^2 dt) as cos + i sin on the full spectrum
                prop = np.empty(N, dtype=complex)
                prop.real, prop.imag = np.cos(-dt * k2), np.sin(-dt * k2)
                return np.fft.ifft(np.fft.fft(u) * prop)

            new, (_, V, *_) = ev._split_stepper(f, model)
            ref = ev._stepper(N, V, True, flow)
            a, b = f.values.copy(), f.values.copy()
            for dt in (1e-3, 1e-3, 3e-4, -2e-3):
                a, b = new(a, dt), ref(b, dt)
                assert np.array_equal(a.view(float), b.view(float))

    def test_fft_norm_only_where_recorded(self, monkeypatch):
        # the energy identity reads the gradient norm on every step; the FFT
        # norm runs for the initial state, which is the identity's reference
        # state too, the snapshots and any step where the identity crosses the
        # factor
        calls = counted_kinetic_energy(monkeypatch)
        f, model, extra = SPLIT_RATE_LIMITED[0].values
        traj = ev.run(f, model, split_run_config(**extra))
        assert len(calls) <= len(traj.snapshots) and len(calls) < traj.steps / 5

    def test_step_splitstep_takes_one_fft(self, monkeypatch):
        # the flow's forward transform only: the identity's reference state is
        # `run`'s, so building the stepper takes no FFT norm
        calls, fft = [], np.fft.fft
        monkeypatch.setattr(np.fft, "fft", lambda *a, **k: calls.append(1) or fft(*a, **k))
        for f, model in ((soliton_field(N=2**8), fn.ModelSpec.free()),
                         (rough_field(2**8, True), fn.ModelSpec.inverse_power(1.0, 0.5))):
            calls.clear()
            ev.step_splitstep(f, 1e-3, model)
            assert len(calls) == 1

    @pytest.mark.parametrize("f,model,extra", SPLIT_RATE_LIMITED)
    def test_identity_norm_matches_fft_norm(self, f, model, extra):
        # the two differ by the discrete energy drift only: 9e-8 and 5e-7
        # relative at most on these runs
        traj = ev.run(f, model, split_run_config(**extra))
        norm = identity_norm(ev._split_stepper(f, model)[1], model, traj.grad_series[0], f.values)
        for u, g in zip(traj.snapshots, traj.grad_series):
            assert abs(norm(u.values, modulus2(u.values)) - g) <= 1e-6 * g

    def test_identity_crossing_alone_does_not_fire(self, monkeypatch):
        # the energy falls on this run, so the identity's norm is above the FFT
        # norm: a factor just above the largest FFT ratio of any step is
        # crossed by the identity only, and the run completes, as the
        # reference, which reads the FFT norm on every step, does
        f, model, extra = SPLIT_RATE_LIMITED[0].values
        every = ev.run(f, model, split_run_config(**(extra | {"snapshot_stride": 1})))
        g = every.grad_series
        factor = (1.0 + 1e-8) * float(np.max(g) / g[0])
        norm = identity_norm(ev._split_stepper(f, model)[1], model, g[0], f.values)
        est = max(norm(u.values, modulus2(u.values)) for u in every.snapshots)
        assert est > factor * g[0]
        calls = counted_kinetic_energy(monkeypatch)
        cfg = split_run_config(**(extra | {"grad_blowup_factor": factor}))
        traj = ev.run(f, model, cfg)
        assert traj.verdict.status == reference_split_run(f, model, cfg)[0].status == "completed"
        # the crossing steps took the FFT norm beyond the snapshots'
        assert len(calls) > len(traj.snapshots)


def full_phase(u, dt, vfac, nonlinearity_on, out, th, m2, live):
    """`ev._phase` with cos and sin taken at every node, kept as the reference
    for the live mask."""
    np.square(u.real, out=m2)
    m2 += np.square(u.imag, out=out.imag)
    if nonlinearity_on:
        np.square(m2, out=th)
    else:
        th.fill(0.0)
    th *= dt / 2.0
    np.cos(th, out=out.real)
    np.sin(th, out=out.imag)
    if vfac is not None:
        out *= vfac
    return out


def one_angle_stepper(n, V, nonlinearity_on, flow):
    """The Strang step with cos and sin of the one angle dt/2 (|u|^4 - V) at
    every node, the form that the live mask and the per-dt V factor replaced;
    kept as the reference for `ev._stepper`."""
    fac, th, last_dt = np.empty(n, dtype=complex), np.empty(n), None

    def phase(u, dt, m2):
        np.square(u.real, out=m2)
        m2 += np.square(u.imag, out=fac.imag)
        if nonlinearity_on:
            np.square(m2, out=th)
        else:
            th.fill(0.0)
        np.subtract(th, V, out=th)
        np.multiply(th, dt / 2.0, out=th)
        np.cos(th, out=fac.real)
        np.sin(th, out=fac.imag)
        return fac

    def step(vec, dt, m2=None):
        nonlocal last_dt
        m2 = np.empty(n) if m2 is None else m2
        if dt != last_dt:
            phase(vec, dt, m2)
            last_dt = dt
        vec *= fac
        vec = flow(vec, dt)
        vec *= phase(vec, dt, m2)
        return vec

    return step


def assert_same_run(a, b):
    assert (a.verdict, a.steps, a.dt_levels) == (b.verdict, b.steps, b.dt_levels)
    assert_same_trajectory(a, b)


class TestPhaseLiveNodes:
    """The half phase takes cos and sin only where the nonlinear angle is at
    least PHASE_TINY / 2; below, rounding already fixes them."""

    @pytest.mark.parametrize("strided", [False, True])
    def test_numpy_cos_sin_exact_below_tiny(self, strided):
        # the property the live mask rests on, for this numpy
        mag = np.geomspace(np.nextafter(ev.PHASE_TINY, 0.0), 5e-324, 20_000)
        th = np.concatenate([mag, -mag, [0.0, -0.0]])
        if strided:
            out = np.empty(th.size, dtype=complex)
            c, s = np.cos(th, out=out.real), np.sin(th, out=out.imag)
        else:
            c, s = np.cos(th), np.sin(th)
        assert np.all(c == 1.0)
        assert np.all(s == th) and np.array_equal(np.signbit(s), np.signbit(th))
        assert np.any(th[th != 0.0] < np.finfo(float).tiny)  # subnormals covered

    @pytest.mark.parametrize("on", [True, False])
    @pytest.mark.parametrize("dt", [1e-3, -1e-3, 0.7, -3e-6])
    def test_matches_full_cos_sin_bitwise(self, dt, on):
        # angles from 2^-60 to 2^-5 around PHASE_TINY / 2, with random phases
        rng = np.random.default_rng(5)
        n = 4000
        angle = 2.0 ** rng.uniform(-60.0, -5.0, n)
        u = (angle / (abs(dt) / 2.0)) ** 0.25 * np.exp(2j * np.pi * rng.uniform(size=n))
        bufs = [np.empty(n, dtype=complex), np.empty(n), np.empty(n), np.empty(n, bool)]
        new = ev._phase(u, dt, None, on, *bufs).copy()
        m2 = bufs[2].copy()
        ref = full_phase(u, dt, None, on, *(np.empty_like(b) for b in bufs))
        assert np.array_equal(new.view(float), ref.view(float))
        assert np.array_equal(m2, np.square(u.real) + np.square(u.imag))
        live = bufs[3]
        if on:
            assert 0 < live.sum() < n  # both sides of the threshold
        else:
            assert not live.any()

    @pytest.mark.parametrize(
        "f,model,extra,config",
        [
            (*SPLIT_RATE_LIMITED[0].values, split_run_config),
            (*CAYLEY_RUN_CASES[0].values, cayley_run_config),
            (*CAYLEY_RUN_CASES[1].values, cayley_run_config),
        ],
        ids=["free-focusing", "delta-line", "graph-dirac"],
    )
    def test_runs_match_full_phase_bitwise(self, f, model, extra, config, monkeypatch):
        cfg, phase, shares = config(**extra), ev._phase, []

        def recording(u, dt, vfac, on, out, th, m2, live):
            phase(u, dt, vfac, on, out, th, m2, live)
            shares.append(live.mean())
            return out

        monkeypatch.setattr(ev, "_phase", recording)
        new = ev.run(f, model, cfg)
        monkeypatch.setattr(ev, "_phase", full_phase)
        assert_same_run(new, ev.run(f, model, cfg))
        # the masked phase skipped nodes on many steps
        assert min(shares) < 0.9

    def test_linear_potential_run_matches_one_angle_step_bitwise(self, monkeypatch):
        # with the nonlinearity off the phase is (1 + 0i) vfac, exact, and
        # V (-dt/2) equals (-V) (dt/2)
        f = staggered(focusing_bump)
        model = fn.ModelSpec.inverse_power(1.0, 0.5, nonlinearity_on=False)
        cfg = split_run_config()
        new = ev.run(f, model, cfg)
        monkeypatch.setattr(ev, "_stepper", one_angle_stepper)
        assert_same_run(new, ev.run(f, model, cfg))
        assert new.dt_levels >= 3

    @pytest.mark.parametrize("f,model,extra", [SPLIT_RATE_LIMITED[1], SPLIT_EQUAL_DT[1]])
    def test_potential_runs_near_one_angle_step(self, f, model, extra, monkeypatch):
        # exp(i th_nl) exp(-i phi_V) rounds apart from exp(i (th_nl - phi_V))
        cfg = split_run_config(**extra)
        new = ev.run(f, model, cfg)
        monkeypatch.setattr(ev, "_stepper", one_angle_stepper)
        ref = ev.run(f, model, cfg)
        assert (new.verdict, new.steps, new.dt_levels) == (ref.verdict, ref.steps, ref.dt_levels)
        for a, b in zip(new.snapshots, ref.snapshots, strict=True):
            assert rel_err(a.values, b.values) <= 1e-13


def attractive_inverse_power(gamma, mu):
    """V = gamma |x|^-mu with gamma < 0, which `ModelSpec` rejects, set past
    its check so that a run meets a V below zero."""
    model = fn.ModelSpec.inverse_power(1.0, mu)
    object.__setattr__(model, "gamma", gamma)
    return model


# every `run` case above, an attractive inverse-power V and a linear one
QUIET_RUN_CASES = [
    *(pytest.param(*p.values, cayley_run_config, id=p.id) for p in CAYLEY_RUN_CASES),
    *(pytest.param(*p.values, split_run_config, id=p.id)
      for p in SPLIT_RATE_LIMITED + SPLIT_EQUAL_DT),
    pytest.param(staggered(focusing_bump), attractive_inverse_power(-1.0, 0.5), {},
                 split_run_config, id="invpow-attractive"),
    pytest.param(staggered(focusing_bump), fn.ModelSpec.inverse_power(1.0, 0.5, False), {},
                 split_run_config, id="invpow-linear"),
]


class TestExactGradNorm:
    """`kinetic_energy` is the one exact gradient norm: it is the stiffness
    part of the form the Cayley step conserves, and `run` records
    sqrt(2 `kinetic_energy`) of each Field it records."""

    @pytest.mark.parametrize("f,model", cayley_cases())
    def test_kinetic_energy_is_assembled_form(self, f, model):
        # vec^H K vec = ||v'||^2 + g |sum_vertex v|^2
        H = ev.assemble_hamiltonian(f, model)
        nodes, g = fn.vertex_form(f, model)
        rng = np.random.default_rng(2)
        n = len(H.Mdiag)
        for _ in range(50):
            vec = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            u = H.from_vector(vec, f)
            vertex = g * abs(np.sum(u.values.ravel()[nodes])) ** 2
            form = float(np.vdot(vec, H.K @ vec).real)
            assert 2.0 * fn.kinetic_energy(u, model) + vertex == pytest.approx(form, rel=1e-12)

    @pytest.mark.parametrize("f,model,extra,config", QUIET_RUN_CASES)
    def test_run_records_kinetic_energy_of_snapshots(self, f, model, extra, config):
        traj = ev.run(f, model, config(**extra))
        assert len(traj.snapshots) == len(traj.grad_series) > 1
        for u, g in zip(traj.snapshots, traj.grad_series):
            assert g == grad_norm(u, model)

    @pytest.mark.parametrize("f,model,extra,config", QUIET_RUN_CASES)
    def test_energy_reuses_the_exact_norm(self, f, model, extra, config, monkeypatch):
        # every `kinetic_energy` of a run is one of the exact norm's: none goes
        # through the functionals binding, which `energy` would call for each
        # recorded snapshot, and the energies are those `energy` takes alone
        calls, inner, kinetic = counted_kinetic_energy(monkeypatch), [], fn.kinetic_energy
        monkeypatch.setattr(fn, "kinetic_energy", lambda u, m: inner.append(1) or kinetic(u, m))
        traj = ev.run(f, model, config(**extra))
        assert inner == [] and len(calls) >= len(traj.snapshots)
        assert np.array_equal(traj.energy_series, [fn.energy(u, model) for u in traj.snapshots])


def counted_norm(monkeypatch):
    """The calls of the identity's norm from here on, each as (||u'||^2 from
    the identity, its majorant at the step's sup|u|, sup|u|, grad0), the
    majorant's c(vec0) and (a, b, d) taken here from the terms `_identity` gets;
    amp* is checked against the same majorant."""
    calls, identity = [], ev._identity

    def recording(w, V, nodes, g, on, grad0, vec0, m20, factor):
        norm, amp_star = identity(w, V, nodes, g, on, grad0, vec0, m20, factor)
        mass = float(np.sum(w * m20))
        c0 = float(np.sum(w * (on * m20**3 / 3.0 - V * m20))) - g * abs(np.sum(vec0[nodes])) ** 2
        a, b = on * mass / 3.0, max(-g, 0.0) * len(nodes) ** 2
        d = max(-float(np.min(V)), 0.0) * mass
        room = (factor**2 - 1.0) * grad0**2 + c0 - d
        if amp_star == 0.0:
            assert not room > 0.0
        elif amp_star < math.inf:
            # the majorant meets the firing factor at amp*, less the margin
            top = grad0**2 - c0 + a * amp_star**4 + b * amp_star**2 + d
            assert top == pytest.approx((factor * grad0) ** 2 - 1e-6 * room, rel=1e-9)
        else:
            assert a == b == 0.0 and room > 0.0

        def counted(vec, m2):
            val, amp2 = norm(vec, m2), float(np.max(m2))
            bound = grad0**2 - c0 + a * amp2**2 + b * amp2 + d
            calls.append((val**2, bound, math.sqrt(amp2), grad0))
            return val

        return counted, amp_star

    monkeypatch.setattr(ev, "_identity", recording)
    return calls


def quiet_amp_zero(monkeypatch, record=None):
    """`_identity` with amp* 0.0, so that `run` takes the identity on every
    step; amp* itself appended to `record` when given."""
    identity = ev._identity

    def zero(*args):
        norm, amp_star = identity(*args)
        if record is not None:
            record.append(amp_star)
        return norm, 0.0

    monkeypatch.setattr(ev, "_identity", zero)


class TestQuietMajorant:
    """Below amp*, where the identity's majorant stays under the firing
    factor, `run` skips the identity, and changes no decision."""

    @pytest.mark.parametrize("f,model,extra,config", QUIET_RUN_CASES)
    def test_skip_changes_nothing(self, f, model, extra, config, monkeypatch):
        cfg, calls = config(**extra), counted_norm(monkeypatch)
        new = ev.run(f, model, cfg)
        skipping = len(calls)
        quiet_amp_zero(monkeypatch)
        calls.clear()
        assert_same_run(new, ev.run(f, model, cfg))
        assert skipping < len(calls)

    @pytest.mark.parametrize("f,model,extra,config", QUIET_RUN_CASES)
    def test_identity_norm_under_majorant(self, f, model, extra, config, monkeypatch):
        # the identity at every step, with amp* recorded
        cfg, calls, quiet = config(**extra), counted_norm(monkeypatch), []
        quiet_amp_zero(monkeypatch, quiet)
        traj = ev.run(f, model, cfg)
        assert len(quiet) == 1 and len(calls) >= traj.steps - len(traj.snapshots)
        below = 0
        for val2, bound, amp, grad0 in calls:
            assert val2 <= bound + 1e-12 * abs(bound)
            if amp < quiet[0]:
                below += 1
                assert math.sqrt(val2) <= cfg.grad_blowup_factor * grad0
        assert below > 0

    def test_no_room_no_skip(self):
        # zero data: no gradient norm to grow from
        f = LineField.from_function(lambda x: np.zeros_like(x), 8.0, 2**6)
        terms = ev._split_stepper(f, fn.ModelSpec.free())[1]
        assert ev._identity(*terms, True, 0.0, f.values, np.zeros(f.N), 10.0)[1] == 0.0


class TestRun:
    def test_zero_data_completes(self):
        f = LineField.from_function(lambda x: np.zeros_like(x), 8.0, 2**6)
        cfg = ev.SolverConfig(T_end=0.1, snapshot_stride=10)
        traj = ev.run(f, fn.ModelSpec.free(), cfg)
        assert traj.verdict.status == "completed"
        assert np.all(traj.mass_series == 0)
        assert traj.times[-1] == pytest.approx(0.1, abs=1e-12)
        assert (traj.steps, traj.dt_min, traj.dt_max) == (100, 1e-3, 1e-3)
        assert traj.lu_factorizations == 0

    def test_soliton_modulus_persists(self):
        f = soliton_field()
        cfg = ev.SolverConfig(T_end=0.2, snapshot_stride=50, phase_tol=1e-3)
        traj = ev.run(f, fn.ModelSpec.free(), cfg)
        assert traj.verdict.status == "completed"
        final = traj.snapshots[-1]
        diff = final.with_values(np.abs(final.values) - np.abs(f.values))
        assert lp_norm(diff, 2) / lp_norm(f, 2) < 1e-3

    def test_free_blowup_detected(self, monkeypatch):
        # the free_blowup data: dt on the ladder builds the propagator, the
        # only exp(i.) of a free run, once per rung (52 times in some 11,300 steps)
        prop_builds = counted_expi(monkeypatch)
        f = soliton_field(lam=1.1)
        cfg = ev.SolverConfig(T_end=2.0, snapshot_stride=200, phase_tol=1e-3)
        traj = ev.run(f, fn.ModelSpec.free(), cfg)
        assert traj.verdict.status == "blowup_detected"
        assert traj.verdict.t_detect < 1.0
        assert traj.verdict.trigger in ("gradient_growth", "amplitude_cap", "dt_underflow")
        assert len(prop_builds) == traj.dt_levels <= 60 and traj.steps > 10_000

    @pytest.mark.parametrize("trigger,case,knob", [
        ("amplitude_cap", 0, {"amp_cap": 1.33}),
        ("dt_underflow", 1, {"dt_min": 9e-5}),
        ("gradient_growth", 1, {"grad_blowup_factor": 1.05, "T_end": 0.3}),
    ])
    def test_trigger_value_recorded(self, trigger, case, knob, tmp_path):
        # the reading that fired, on the state stored last: sup|u|, the dt the
        # step control rejected (a rung), or the FFT gradient ratio; the
        # verdict equals the reference's, which records no value
        f, model, extra = SPLIT_RATE_LIMITED[case].values
        cfg = split_run_config(**(extra | knob))
        traj = ev.run(f, model, cfg)
        v, last = traj.verdict, traj.snapshots[-1]
        assert v == reference_split_run(f, model, cfg)[0]
        assert v.status == "blowup_detected" and v.t_detect == traj.times[-1]
        assert v.trigger == trigger
        if trigger == "amplitude_cap":
            assert v.trigger_value == np.max(np.abs(last.values)) > cfg.amp_cap
        elif trigger == "dt_underflow":
            assert v.trigger_value == ev._quantize_dt(v.trigger_value, cfg.dt_max) < cfg.dt_min
        else:
            assert v.trigger_value == traj.grad_series[-1] / traj.grad_series[0] > 1.05
        ev.save_trajectory(traj, tmp_path)
        assert ev.load_trajectory(tmp_path).verdict.trigger_value == v.trigger_value
        # a directory written before the value was recorded
        summary = json.loads((tmp_path / "summary.json").read_text())
        del summary["verdict"]["trigger_value"]
        (tmp_path / "summary.json").write_text(json.dumps(summary))
        assert ev.load_trajectory(tmp_path).verdict.trigger_value is None

    @staticmethod
    def invpow_gaussian_run(center, phase_tol, a=1.0, L=10.0, N=512, T_end=0.1, model=None):
        f = LineField(L=L, N=N, values=np.zeros(N, complex), stagger=True)
        u0 = f.sampled(lambda x: a * np.exp(-((x - center) ** 2)))
        model = model or fn.ModelSpec.inverse_power(1.0, 0.5)
        cfg = ev.SolverConfig(T_end=T_end, phase_tol=phase_tol, snapshot_stride=10**6)
        return ev.run(u0, model, cfg)

    def test_potential_limits_step_where_solution_overlaps_singular_node(self):
        # data over x = 0, where |V| = 7.2 at the node next to it: the step
        # error against a five times finer phase_tol is 5e-7 when |V| limits
        # the step there, and 9e-5 when V is left out of the step rate
        ref = self.invpow_gaussian_run(center=1.0, phase_tol=2e-4).snapshots[-1].values
        got = self.invpow_gaussian_run(center=1.0, phase_tol=1e-3).snapshots[-1].values
        assert np.linalg.norm(got - ref) / np.linalg.norm(ref) < 5e-6

    def test_far_field_potential_steps_as_free(self):
        # the solution sits at x = 6, where |u| at the singular node is below
        # V_SUPPORT_FRACTION * amp: only the |V| <= 0.55 under the solution
        # counts, so the run takes the free model's steps to within that
        # (8% more here; the whole-grid max|V| = 6.5 would take 1.9x as many)
        far = dict(center=6.0, phase_tol=1e-3, a=1.5, L=12.0, T_end=0.2)
        free = self.invpow_gaussian_run(model=fn.ModelSpec.free(), **far)
        invpow = self.invpow_gaussian_run(**far)
        assert invpow.verdict.status == free.verdict.status == "completed"
        assert free.steps <= invpow.steps <= 1.1 * free.steps

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ev.SolverConfig(dt_min=1e-2, dt_init=1e-3)
        for stride in (0, 2.5, float("inf"), True):
            with pytest.raises(ValueError):
                ev.SolverConfig(snapshot_stride=stride)
        for bad in ("T_end", "phase_tol", "dt_max", "amp_cap", "grad_blowup_factor"):
            with pytest.raises(ValueError):
                ev.SolverConfig(**{bad: float("nan")})
        with pytest.raises(ValueError):
            ev.SolverConfig(T_end=float("inf"))  # a run that never ends

    @pytest.mark.parametrize("key", [
        "dt_init", "dt_max", "phase_tol", "T_end", "grad_blowup_factor", "amp_cap", "dt_min",
    ])
    def test_config_numbers_not_coerced(self, key):
        # true would run as 1.0 and be recorded as true in summary.json
        for bad in (True, "1.0"):
            with pytest.raises(ValueError, match=f"solver {key} must be a number"):
                ev.SolverConfig(**{key: bad})

    def test_overflow_aborts(self, monkeypatch):
        # no Field is built per step on the split path either: the finiteness
        # check on the sup|u| of the |u|^2 the trailing half phase hands back
        # catches an overflowing flow
        stepper = ev._stepper
        monkeypatch.setattr(ev, "_stepper", lambda n, V, on, flow: stepper(
            n, V, on, lambda vec, dt: np.full_like(vec, np.inf)))
        with np.errstate(invalid="ignore"):
            traj = ev.run(soliton_field(N=2**8), fn.ModelSpec.free(), ev.SolverConfig(T_end=0.01))
        assert traj.verdict.status == "aborted"
        assert "non-finite" in traj.verdict.diagnostic

    def test_overflow_after_unsaved_step_aborts(self, monkeypatch):
        # step 3 of a stride-100 run overflows: the state stepped in place is
        # no longer finite, so no final snapshot is stored
        stepper, calls = ev._stepper, []

        def overflowing(n, V, on, flow):
            def overflowing_flow(vec, dt):
                calls.append(dt)
                return np.full_like(vec, np.inf) if len(calls) == 3 else flow(vec, dt)

            return stepper(n, V, on, overflowing_flow)

        monkeypatch.setattr(ev, "_stepper", overflowing)
        u0 = soliton_field(N=2**8)
        with np.errstate(invalid="ignore"):
            traj = ev.run(u0, fn.ModelSpec.free(), ev.SolverConfig(T_end=0.01, snapshot_stride=100))
        assert traj.verdict.status == "aborted"
        assert traj.steps == 2 and len(traj.snapshots) == 1
        assert np.array_equal(traj.snapshots[0].values, u0.values)

    @pytest.mark.parametrize("f,model,extra", CAYLEY_RUN_CASES)
    def test_cayley_vector_loop_matches_field_loop(self, f, model, extra):
        cfg = cayley_run_config(**extra)
        traj = ev.run(f, model, cfg)
        verdict, steps, times, snapshots = reference_cayley_run(f, model, cfg)
        assert traj.dt_min == cfg.dt_init < traj.dt_max
        fires = model.variant == "delta"
        assert traj.verdict.status == ("blowup_detected" if fires else "completed")
        assert traj.verdict == verdict
        assert traj.steps == steps
        assert np.array_equal(traj.times, times)
        # the series records the gradient norm the trigger read, bit for bit
        assert list(traj.grad_series) == [grad_norm(u, model) for u in traj.snapshots]
        assert len(traj.snapshots) == len(snapshots)
        for new, ref in zip(traj.snapshots, snapshots):
            assert rel_err(new.values, ref.values) <= 1e-12

    @pytest.mark.parametrize("f,model,extra", CAYLEY_RUN_CASES)
    def test_leading_phase_recomputed_when_dt_changes(self, f, model, extra, monkeypatch):
        # one phase factor per step, and one more (the leading factor) on the
        # first step and on every step whose dt differs from the step before;
        # V is zero on the Cayley path, so no V phase factor is built
        phase_dts, step_dts = [], []
        phase, solve = ev._phase, ev.AssembledOperator.cayley_solve
        vfac_args = counted_expi(monkeypatch)
        monkeypatch.setattr(
            ev, "_phase", lambda u, dt, *a: phase_dts.append(dt) or phase(u, dt, *a)
        )
        monkeypatch.setattr(
            ev.AssembledOperator, "cayley_solve",
            lambda H, vec, dt: step_dts.append(dt) or solve(H, vec, dt),
        )
        traj = ev.run(f, model, cayley_run_config(**extra))
        assert len(step_dts) == traj.steps and step_dts[0] == 1e-4
        assert len(set(step_dts)) >= 3
        expected = []
        for i, dt in enumerate(step_dts):
            expected += [dt, dt] if i == 0 or dt != step_dts[i - 1] else [dt]
        assert phase_dts == expected
        assert vfac_args == []

    @pytest.mark.parametrize("f,model,extra", CAYLEY_RUN_CASES)
    def test_one_lu_factor_per_dt_change(self, f, model, extra, monkeypatch):
        # H keeps the factor of its last dt only: one on the first step and one
        # on every step whose dt differs from the step before; on the delta'
        # star dt rises again, so that is more factors than distinct dt
        lus, step_dts, solve = [], [], ev.AssembledOperator.cayley_solve
        monkeypatch.setattr(ev, "splu", lambda A: lus.append(1) or splu(A))
        monkeypatch.setattr(
            ev.AssembledOperator, "cayley_solve",
            lambda H, vec, dt: step_dts.append(dt) or solve(H, vec, dt),
        )
        traj = ev.run(f, model, cayley_run_config(**extra))
        changes = sum(a != b for a, b in zip(step_dts, step_dts[1:]))
        assert len(step_dts) == traj.steps
        assert len(lus) == traj.lu_factorizations == 1 + changes
        if model.variant == "graph" and not model.vertex.is_continuity_type:
            assert traj.lu_factorizations > traj.dt_levels

    @pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
    @pytest.mark.parametrize("f,model,extra", CAYLEY_RUN_CASES[:2])
    def test_cayley_overflow_aborts(self, f, model, extra, bad, monkeypatch):
        # no Field is built per step on the Cayley path: the finiteness check
        # on sup|u| catches the overflow
        monkeypatch.setattr(
            ev.AssembledOperator, "cayley_solve", lambda H, vec, dt: np.full_like(vec, bad)
        )
        with np.errstate(invalid="ignore"):
            traj = ev.run(f, model, cayley_run_config(**extra))
        assert traj.verdict.status == "aborted"
        assert "non-finite" in traj.verdict.diagnostic
        assert traj.steps == 0 and len(traj.snapshots) == 1

    @pytest.mark.parametrize("f,model,extra", CAYLEY_RUN_CASES[:2])
    def test_cayley_overflow_after_unsaved_step_aborts(self, f, model, extra, monkeypatch):
        solve, calls = ev.AssembledOperator.cayley_solve, []

        def overflowing(H, vec, dt):
            calls.append(dt)
            return np.full_like(vec, np.inf) if len(calls) == 3 else solve(H, vec, dt)

        monkeypatch.setattr(ev.AssembledOperator, "cayley_solve", overflowing)
        with np.errstate(invalid="ignore"):
            traj = ev.run(f, model, cayley_run_config(**(extra | {"snapshot_stride": 100})))
        assert traj.verdict.status == "aborted"
        assert traj.steps == 2 and len(traj.snapshots) == 1
        assert np.array_equal(traj.snapshots[0].values, f.values)

    @pytest.mark.parametrize(
        "geometry,T_end", [("line", 1.11), ("line", 2.0), ("graph", 1.11)]
    )
    def test_rounding_remainder_at_T_end_completes(self, geometry, T_end):
        # t falls short of T_end by more than T_end * 1e-14 but less than
        # dt_min: the run completes, and the step before that remainder lands
        # on T_end, so no snapshot sits a rounding error before the last one
        def prof(x):
            return 0.3 * np.exp(-(x**2))

        if geometry == "line":
            f, model = LineField.from_function(prof, 20.0, 256), fn.ModelSpec.free()
        else:
            f = GraphField.from_function(prof, 3, 10.0, 100)
            model = fn.ModelSpec.graph(fn.VertexCondition("kirchhoff"))
        traj = ev.run(f, model, ev.SolverConfig(T_end=T_end, snapshot_stride=10))
        assert traj.verdict.status == "completed"
        assert traj.times[-1] == pytest.approx(T_end, abs=1e-12)
        assert np.allclose(np.diff(traj.times), 1e-2, rtol=0.0, atol=1e-12)

    def test_cayley_run_to_T_end_factors_one_lu(self, monkeypatch):
        # T_end - t before the last step differs from dt_max by rounding only,
        # so that step keeps dt_max and its LU factor, and ends on T_end
        calls = []
        monkeypatch.setattr(ev, "splu", lambda A: calls.append(1) or splu(A))
        f = GraphField.from_function(lambda x: 0.3 * np.exp(-(x**2)), 3, 10.0, 100)
        model = fn.ModelSpec.graph(fn.VertexCondition("kirchhoff"))
        traj = ev.run(f, model, ev.SolverConfig(phase_tol=1e6, T_end=0.3, snapshot_stride=10))
        assert traj.verdict.status == "completed"
        assert len(calls) == traj.lu_factorizations == 1
        assert traj.times[-1] == 0.3

    @pytest.mark.parametrize("vc, shared", [
        (fn.VertexCondition("delta_prime", gamma=2.0), True),
        (fn.VertexCondition("kirchhoff"), False),
        (fn.VertexCondition("dirac_delta", gamma=1.0), False),
    ], ids=["delta_prime-shared", "kirchhoff-unshared", "dirac_delta-unshared"])
    def test_vertex_layout_must_match_model(self, vc, shared):
        model, cfg = fn.ModelSpec.graph(vc), ev.SolverConfig(T_end=0.01)
        with pytest.raises(ValueError, match=f'"shared_vertex": {str(not shared).lower()}'):
            ev.run(rough_graph(3, shared), model, cfg)
        assert ev.run(rough_graph(3, not shared), model, cfg).verdict.status == "completed"

    def test_mismatched_layout_rejected_before_assembly_and_step(self):
        # three vertex values on an unshared grid under a Kirchhoff condition:
        # a form assembled on the shared layout keeps edge 0's value only, and
        # one step of dt = 1e-9 would return the vertex values [1, 1, 1]
        model = fn.ModelSpec.graph(fn.VertexCondition("kirchhoff"))
        vals = rough_graph(3, False).values.copy()
        vals[:, 0] = [1.0, 2.0, 3.0]
        f = rough_graph(3, False).with_values(vals)
        with pytest.raises(ValueError) as ran:
            ev.run(f, model, ev.SolverConfig(T_end=0.01))
        assert str(ran.value) == 'a kirchhoff vertex needs a grid with "shared_vertex": true'
        H = ev.assemble_hamiltonian(rough_graph(3, True), model)
        for call in (lambda: ev.assemble_hamiltonian(f, model), lambda: ev.step_cn(f, 1e-9, H),
                     lambda: ground_state_flow(model, f)):
            with pytest.raises(ValueError) as exc:
                call()
            assert str(exc.value) == str(ran.value)

    def test_programming_error_propagates(self, monkeypatch):
        split = ev._split_stepper

        def broken(vec, dt, m2=None):
            raise TypeError("bug in a step")

        monkeypatch.setattr(ev, "_split_stepper", lambda f, model: (broken, *split(f, model)[1:]))
        with pytest.raises(TypeError):
            ev.run(soliton_field(N=2**8), fn.ModelSpec.free(), ev.SolverConfig(T_end=0.01))


def assert_same_trajectory(back, traj):
    """Bit-identical snapshots and series after a save/load round trip."""
    for name in ("times", "mass_series", "energy_series", "grad_series"):
        assert np.array_equal(getattr(back, name), getattr(traj, name)), name
    assert len(back.snapshots) == len(traj.snapshots)
    for a, b in zip(back.snapshots, traj.snapshots):
        assert type(a) is type(b)
        assert a.grid_spec() == b.grid_spec()
        assert np.array_equal(a.values, b.values)


def saved_line_run(path):
    traj = ev.run(
        soliton_field(N=2**8, L=10.0), fn.ModelSpec.free(),
        ev.SolverConfig(T_end=0.02, snapshot_stride=5),
    )
    ev.save_trajectory(traj, path, R=2.0)
    return traj


class TestPersistence:
    def test_roundtrip_line(self, tmp_path, monkeypatch):
        step_dts, stepper = [], ev._stepper
        monkeypatch.setattr(ev, "_stepper", lambda n, V, on, flow: stepper(
            n, V, on, lambda v, dt: step_dts.append(dt) or flow(v, dt)))
        traj = saved_line_run(tmp_path)
        back = ev.load_trajectory(tmp_path)
        assert_same_trajectory(back, traj)
        assert back.verdict.status == traj.verdict.status
        record = ("steps", "dt_min", "dt_max", "lu_factorizations", "dt_levels")
        assert [getattr(back, k) for k in record] == [getattr(traj, k) for k in record]
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert [summary[k] for k in record] == [getattr(traj, k) for k in record]
        assert traj.steps == len(step_dts) and traj.dt_levels == len(set(step_dts))
        # byte reference: the row-by-row csv.writer form of series.csv
        ref = io.StringIO(newline="")
        wr = csv.writer(ref)
        wr.writerow(["t", "mass", "energy", "grad_norm", "tail_mass@2"])
        for i, t in enumerate(traj.times):
            row = [t, traj.mass_series[i], traj.energy_series[i], traj.grad_series[i]]
            row.append(tail_mass(traj.snapshots[i], 2.0))
            wr.writerow([f"{float(v):.17g}" for v in row])
        assert (tmp_path / "series.csv").read_bytes() == ref.getvalue().encode()
        stored = np.load(tmp_path / "snapshots.npy", allow_pickle=False)
        assert stored.dtype == np.complex128 and stored.shape == (len(traj.times), 2**8)

    def test_summary_keys(self, tmp_path):
        saved_line_run(tmp_path)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert list(summary) == [
            "grid", "model", "config", "verdict", "mass_drift_rel", "energy_drift",
            "n_snapshots", "steps", "dt_min", "dt_max", "lu_factorizations", "dt_levels",
            "provenance",
        ]

    def test_run_stats_are_the_fields_after_config(self):
        # a statistic added to Trajectory is saved and loaded with the others
        names = [f.name for f in dataclasses.fields(ev.Trajectory)]
        assert tuple(names[names.index("config") + 1 :]) == ev.RUN_STATS

    def test_roundtrip_graph(self, tmp_path):
        g = GraphField.from_function(
            lambda x: np.exp(-((x - 3.0) ** 2)) * (1 + 0j), 3, 10.0, 100
        )
        m = fn.ModelSpec.graph(fn.VertexCondition("dirac_delta", gamma=1.0))
        cfg = ev.SolverConfig(T_end=0.02, snapshot_stride=5)
        traj = ev.run(g, m, cfg)
        ev.save_trajectory(traj, tmp_path)
        back = ev.load_trajectory(tmp_path)
        assert back.model.variant == "graph"
        assert back.model.vertex.gamma == 1.0
        assert_same_trajectory(back, traj)
        stored = np.load(tmp_path / "snapshots.npy", allow_pickle=False)
        assert stored.shape == (len(traj.times), 3, 101)
        assert back.lu_factorizations == traj.lu_factorizations == 1
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["lu_factorizations"] == summary["dt_levels"] == 1
        # a directory written before the counts were recorded
        del summary["lu_factorizations"], summary["dt_levels"]
        (tmp_path / "summary.json").write_text(json.dumps(summary))
        back = ev.load_trajectory(tmp_path)
        assert back.lu_factorizations is None and back.dt_levels is None

    @pytest.mark.parametrize("damage, match", [
        (lambda a, rows: (a[:, :-1], rows), "shape"),
        (lambda a, rows: (a[:-1], rows), "shape"),
        (lambda a, rows: (a.real, rows), "dtype"),
        (lambda a, rows: (a, rows[:-1]), "rows"),
    ], ids=["grid_shape", "snapshot_count", "real_dtype", "series_rows"])
    def test_rejects_bad_snapshot_file(self, tmp_path, damage, match):
        saved_line_run(tmp_path)
        npy, series = tmp_path / "snapshots.npy", tmp_path / "series.csv"
        a, rows = damage(np.load(npy), series.read_bytes().splitlines(keepends=True))
        np.save(npy, a)
        series.write_bytes(b"".join(rows))
        with pytest.raises(ValueError, match=match):
            ev.load_trajectory(tmp_path)


class TestTrajectory:
    def test_grad_series_length_checked(self):
        # every series holds one entry per snapshot
        f = soliton_field(N=2**6)
        snaps = [f, f, f.with_values(2e6 * f.values)]
        kwargs = dict(
            times=np.array([0.0, 0.1, 0.2]),
            snapshots=snaps,
            mass_series=np.ones(3),
            energy_series=np.ones(3),
            verdict=ev.BlowupVerdict("completed"),
            model=fn.ModelSpec.free(),
            config=ev.SolverConfig(),
        )
        with pytest.raises(ValueError, match="lengths disagree"):
            ev.Trajectory(grad_series=np.ones(2), **kwargs)
        ev.Trajectory(grad_series=np.ones(3), **kwargs)
