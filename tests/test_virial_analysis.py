import dataclasses
import tracemalloc

import numpy as np
import pytest

from viriallab import cli
from viriallab import evolve as ev
from viriallab import functionals as fn
from viriallab import soliton as sol
from viriallab import virial_analysis as va
from viriallab import weight as w
from viriallab.field import LineField, field_from_grid, tail_mass, tail_mass_block


def gaussian_field(L=20.0, N=2**12, amp=1.0):
    return LineField.from_function(lambda x: amp * np.exp(-(x**2)), L, N)


def smooth_free_run(dt, stride, T=0.1, N=2**12):
    f = gaussian_field(N=N)
    cfg = ev.SolverConfig(
        dt_init=dt, dt_max=dt, phase_tol=1e6, T_end=T, snapshot_stride=stride
    )
    return ev.run(f, fn.ModelSpec.free(), cfg)


class TestA0:
    def test_value(self):
        assert va.a0() == pytest.approx(0.7825422900366437, abs=1e-15)

    def test_fourth_power(self):
        assert va.a0() ** 4 == pytest.approx(0.375, abs=1e-16)

    def test_proof_coefficient(self):
        assert 8.0 / 3.0 * va.a0() ** 4 == pytest.approx(1.0, abs=1e-15)


class TestEnvelope:
    def test_unit_case(self):
        assert va.envelope(1.0, 0.0, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_four_case(self):
        assert va.envelope(4.0, 0.0, 1.0) == pytest.approx(2.0, abs=1e-15)

    def test_is_root(self):
        I0, Ip, et = 2.3, -0.7, 1.9
        t = va.envelope(I0, Ip, et)
        assert I0 + Ip * t - et * t**2 == pytest.approx(0.0, abs=1e-12)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            va.envelope(1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            va.envelope(-1.0, 0.0, 1.0)


class TestReport:
    def test_free_gaussian_residual(self):
        traj = smooth_free_run(dt=1e-3, stride=10)
        rep = va.report(traj, 8.0, fn.ModelSpec.free())
        assert rep.max_residual() < 1e-3
        assert rep.violations() == 0

    def test_residual_refines_in_delta(self):
        coarse = smooth_free_run(dt=1e-3, stride=10)
        fine = smooth_free_run(dt=5e-4, stride=10)
        r1 = va.report(coarse, 8.0, fn.ModelSpec.free()).max_residual()
        r2 = va.report(fine, 8.0, fn.ModelSpec.free()).max_residual()
        order = np.log2(r1 / r2)
        assert order >= 1.8

    def test_eta_tilde_consistency(self):
        traj = smooth_free_run(dt=1e-3, stride=20)
        rep = va.report(traj, 4.0, fn.ModelSpec.free())
        E = traj.energy_series[0]
        assert rep.eta_tilde == pytest.approx(-8 * E - rep.eta, abs=1e-12)

    def test_rejects_sparse_accepts_uneven(self):
        traj = smooth_free_run(dt=1e-3, stride=200)
        assert len(traj.snapshots) < 3
        with pytest.raises(ValueError):
            va.report(traj, 4.0, fn.ModelSpec.free())
        # uneven spacing is no error: I'' comes from the unequal-spacing stencil
        traj2 = smooth_free_run(dt=1e-3, stride=10)
        traj2.times = traj2.times.copy()
        traj2.times[2] += 1e-4
        rep = va.report(traj2, 4.0, fn.ModelSpec.free())
        I = np.array([fn.virial_I(s, 4.0) for s in traj2.snapshots])
        assert np.array_equal(rep.Isecond_fd, va.second_difference(traj2.times, I))
        assert np.array_equal(rep.residual, np.abs(rep.Isecond_fd - rep.rhs_formula))

    def test_envelope_root_from_snapshot_0(self):
        # the per-Field I(0) and I'(0) give the same root bit for bit; with
        # E > 0 (so eta_tilde < 0) there is none
        traj = short_bundled_run("free_blowup", 0.03)
        u0, model = traj.snapshots[0], traj.model
        rep = va.report(traj, 256.0, model)
        assert rep.eta_tilde > 0
        assert rep.envelope_root == va.envelope(
            fn.virial_I(u0, 256.0), fn.virial_I_prime(u0, 256.0, model), rep.eta_tilde
        )
        assert va.report(smooth_free_run(1e-3, 10), 8.0, model).envelope_root is None


class TestSecondDifference:
    @pytest.mark.parametrize("seed", range(5))
    def test_exact_on_quadratic_with_uneven_spacing(self, seed):
        # adjacent spacings in ratios up to 8 both ways; the stencil is exact on
        # quadratics, so only the rounding of I, divided by about h1 h2, remains
        rng = np.random.default_rng(seed)
        h = 0.05 * 8.0 ** np.concatenate([[0.5, -0.5, 0.5], rng.uniform(-0.5, 0.5, 20)])
        t = np.concatenate([[0.0], np.cumsum(h)])
        a, b, c = rng.uniform(-2.0, 2.0, 3)
        I = a + b * t + c * t**2
        assert np.max(h[1:] / h[:-1]) == pytest.approx(8.0)
        assert np.min(h[1:] / h[:-1]) == pytest.approx(1.0 / 8.0)
        tol = 64 * np.finfo(float).eps * np.max(np.abs(I)) / np.min(h[1:] * h[:-1])
        assert np.max(np.abs(va.second_difference(t, I) - 2.0 * c)) <= tol

    def test_equal_spacing_matches_centered(self):
        traj = smooth_free_run(dt=1e-3, stride=10)
        I = np.array([fn.virial_I(s, 8.0) for s in traj.snapshots])
        dt = traj.times[1] - traj.times[0]
        assert np.allclose(np.diff(traj.times), dt, rtol=1e-12, atol=0.0)
        centered = (I[2:] - 2.0 * I[1:-1] + I[:-2]) / dt**2
        assert np.allclose(va.second_difference(traj.times, I), centered, rtol=1e-12, atol=0.0)


class TestFindR:
    def soliton_data(self, lam, L=16.0, N=2**12):
        f = LineField.from_function(lambda x: np.zeros_like(x), L, N)
        return sol.scaled_data(lam, 1.0, f)

    def test_negative_energy_data(self):
        u0 = self.soliton_data(1.1)
        R, eta_val, eta_tilde = va.find_R(u0, fn.ModelSpec.free())
        assert eta_tilde > 0
        c1, c2, _ = va.selection_clauses(u0, fn.ModelSpec.free(), R)
        assert c1 and c2
        assert eta_val == pytest.approx(w.eta(R, fn.mass(u0)), rel=1e-14)

    def test_monotone_beyond_found_R(self):
        u0 = self.soliton_data(1.1)
        R, _, _ = va.find_R(u0, fn.ModelSpec.free())
        for _ in range(5):
            R *= 2.0
            c1, c2, _ = va.selection_clauses(u0, fn.ModelSpec.free(), R)
            assert c1 and c2

    def test_rejects_positive_energy(self):
        u0 = self.soliton_data(0.9)
        assert fn.energy(u0, fn.ModelSpec.free()) > 0
        with pytest.raises(ValueError):
            va.find_R(u0, fn.ModelSpec.free())

    def test_rejects_rounding_level_negative_energy(self):
        # the ground state (lam = 1) has E = 0, which computes to -2.2e-14, about
        # -1.6e-14 of ||u0'||^2: no R is selected for it; lam = 1.1 reads
        # -0.23 of ||u0'||^2 and passes
        model = fn.ModelSpec.free()
        u0 = self.soliton_data(1.0)
        assert -1e-13 < fn.energy(u0, model) < 0
        with pytest.raises(ValueError, match="beyond rounding"):
            va.find_R(u0, model)
        assert va.find_R(self.soliton_data(1.1), model)[2] > 0

    def test_invariants_take_kinetic_energy_once(self, monkeypatch):
        # E and ||u0'||^2 share one K, through either binding
        u0, model = self.soliton_data(1.1), fn.ModelSpec.free()
        calls, kinetic = [], fn.kinetic_energy
        for mod in (fn, va):
            monkeypatch.setattr(mod, "kinetic_energy", lambda u, m: calls.append(1) or kinetic(u, m))
        E, _, grad_sq = va._invariants(u0, model)
        assert len(calls) == 1
        assert E == fn.energy(u0, model) and grad_sq == 2.0 * kinetic(u0, model)

    def test_ladder_exhaustion(self):
        u0 = self.soliton_data(1.1)
        with pytest.raises(RuntimeError):
            va.find_R(u0, fn.ModelSpec.free(), max_doublings=2)

    def test_inconsistent_tail_bound_is_typed(self, monkeypatch):
        u0 = self.soliton_data(1.1)
        monkeypatch.setattr(va, "tail_mass", lambda f, R: 1.0)
        with pytest.raises(RuntimeError, match="tail-mass"):
            va.find_R(u0, fn.ModelSpec.free())


class TestInequalityFlags:
    def test_free_soliton_scaled(self):
        u0 = LineField.from_function(lambda x: 1.1 * sol.exact_Q(1.0, x), 16.0, 2**12)
        model = fn.ModelSpec.free()
        R, eta_val, _ = va.find_R(u0, model)
        E = fn.energy(u0, model)
        checked, satisfied, rhs = va.inequality_flags([u0], R, model, E, eta_val)
        assert checked[0]
        assert satisfied[0]
        assert rhs[0] <= 16 * E + 2 * eta_val + 1e-6 * (1 + abs(E))


def reference_inequality_flags(snapshots, R, model, E, eta_val):
    """The per-snapshot append loop `inequality_flags` had before it worked
    on arrays, kept as the bitwise reference."""
    bound = 16.0 * E + 2.0 * eta_val + va.INEQ_SLACK * (1.0 + abs(E))
    checked, satisfied, rhs = [], [], []
    for s in snapshots:
        r = fn.virial_rhs(s, R, model)
        c = tail_mass(s, R) <= va.a0()
        checked.append(c)
        satisfied.append((not c) or r <= bound)
        rhs.append(r)
    return np.array(checked), np.array(satisfied), np.array(rhs)


def short_bundled_run(name, T_end):
    model, cfg, u0 = cli._scenario_pieces(cli.load_scenario(cli.bundled_scenario_path(name)))
    cfg = dataclasses.replace(cfg, T_end=T_end, snapshot_stride=5)
    return ev.run(u0, model, cfg)


class TestInequalityFlagsMatchReference:
    @pytest.mark.parametrize("run, R", [
        (lambda: smooth_free_run(1e-3, 5, T=0.03, N=2**10), 4.0),
        (lambda: short_bundled_run("free_blowup", 0.03), 2.0),
        (lambda: short_bundled_run("graph_blowup", 0.02), 4.0),
    ], ids=["smooth", "free_blowup", "graph_blowup"])
    def test_bitwise_equal(self, run, R):
        traj = run()
        model, u0 = traj.model, traj.snapshots[0]
        E = fn.energy(u0, model)
        # R = 0.1 leaves every snapshot unchecked and R = 1e3 checks each one;
        # lowering E by 100 makes every checked snapshot a violation
        for R_k, E_k in [(R, E), (0.1, E), (1e3, E), (1e3, E - 100.0)]:
            args = (traj.snapshots, R_k, model, E_k, w.eta(R_k, fn.mass(u0)))
            new, ref = va.inequality_flags(*args), reference_inequality_flags(*args)
            for a, b in zip(new, ref):
                assert a.dtype == b.dtype and np.array_equal(a, b)
        assert not np.any(new[1]) and np.all(new[0])


def noisy_snapshots(template, count, seed=0):
    """`count` fields on the grid of `template`: a smooth bump plus noise in
    every node, equal vertex values on a shared graph grid and the Dirichlet
    zero at a graph's far node."""
    rng = np.random.default_rng(seed)
    shape = np.shape(template.values)
    out = []
    for _ in range(count):
        vals = np.exp(-(template.x**2) / 8.0) * (1.0 + 0.3j) + 0.1 * (
            rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        )
        if len(shape) == 2:
            if template.shared_vertex:
                vals[:, 0] = vals[0, 0]
            vals[:, -1] = 0.0
        out.append(template.with_values(vals))
    return out


def graph_grid(shared):
    return {"kind": "graph", "J": 3, "Ledge": 8.0, "M": 200, "shared_vertex": shared}


# the grids of every variant's virial quantities: the spectral line (plain
# and staggered), the delta line, and 3-edge graphs with one shared vertex
# value (Dirac delta) and one per edge (delta prime)
BLOCK_CASES = [
    pytest.param({"kind": "line", "L": 10.0, "N": 256}, fn.ModelSpec.free(), id="spectral-line"),
    pytest.param({"kind": "line", "L": 10.0, "N": 256, "stagger": True},
                 fn.ModelSpec.inverse_power(1.0, 0.5), id="spectral-line-staggered"),
    pytest.param({"kind": "line", "L": 10.0, "N": 256}, fn.ModelSpec.delta(1.3), id="delta-line"),
    pytest.param(graph_grid(True), fn.ModelSpec.graph(fn.VertexCondition("dirac_delta", gamma=0.7)),
                 id="graph-shared"),
    pytest.param(graph_grid(False), fn.ModelSpec.graph(fn.VertexCondition("delta_prime", gamma=2.0)),
                 id="graph-unshared"),
]


def uniform_trajectory(snaps, model):
    """The snapshots as a trajectory with uniform spacing 0.01."""
    n = len(snaps)
    return ev.Trajectory(
        times=0.01 * np.arange(n), snapshots=snaps,
        mass_series=np.array([fn.mass(s) for s in snaps]),
        energy_series=np.array([fn.energy(s, model) for s in snaps]),
        grad_series=np.zeros(n), verdict=ev.BlowupVerdict("completed"), model=model,
        config=ev.SolverConfig(),
    )


class TestBlockFunctionals:
    """The virial quantities over blocks of snapshots against the one-Field
    functions, bit for bit."""

    @pytest.mark.parametrize("grid,model", BLOCK_CASES)
    def test_block_functions_match_per_field(self, grid, model):
        template = field_from_grid(grid)
        snaps = noisy_snapshots(template, 6)
        R = 3.0
        u = np.stack([s.values for s in snaps])
        du = fn.grad_block(template, u, model)
        per_field = {
            "I": [fn.virial_I(s, R) for s in snaps],
            "Ip": [fn.virial_I_prime(s, R, model) for s in snaps],
            "rhs": [fn.virial_rhs(s, R, model) for s in snaps],
            "tail": [tail_mass(s, R) for s in snaps],
        }
        # two leading axes: (2, 3) snapshots
        u2, du2 = u.reshape((2, 3) + u.shape[1:]), du.reshape((2, 3) + u.shape[1:])
        wts = fn.VirialWeights(template, R, model)
        for block, dblock in ((u, du), (u2, du2)):
            got = {
                "I": fn.virial_I_block(wts, block),
                "Ip": fn.virial_I_prime_block(wts, block, dblock),
                "rhs": fn.virial_rhs_block(wts, block, dblock),
                "tail": tail_mass_block(template, block, wts.tail),
            }
            for name, ref in per_field.items():
                assert got[name].shape == block.shape[: block.ndim - u.ndim + 1]
                assert np.array_equal(got[name].ravel(), ref), name

    @pytest.mark.parametrize("grid,model", BLOCK_CASES)
    @pytest.mark.parametrize("per_block", [1, 3, 7], ids=["size-1", "ragged", "one-block"])
    def test_report_matches_per_field(self, grid, model, per_block, monkeypatch):
        # seven snapshots in blocks of 1, of 3 (3 + 3 + 1, one walk for every
        # column) or in one block
        template = field_from_grid(grid)
        snaps = noisy_snapshots(template, 7, seed=1)
        monkeypatch.setattr(va, "BLOCK_VALUES", per_block * np.size(template.values))
        walks, blocks = [], va._blocks
        monkeypatch.setattr(va, "_blocks", lambda s: walks.append(len(s)) or blocks(s))
        # each chi_R order once per call, whatever the block count
        orders, chi_R = [], w.chi_R
        monkeypatch.setattr(w, "chi_R", lambda x, R, k=0: orders.append(k) or chi_R(x, R, k))
        R = 3.0
        rep = va.report(uniform_trajectory(snaps, model), R, model)
        assert walks == [7] and sorted(orders) == [0, 1, 2, 4]
        orders.clear()
        va.inequality_flags(snaps, R, model, 0.0, 0.0)
        assert sorted(orders) == [2, 4]
        monkeypatch.setattr(w, "chi_R", chi_R)
        interior = snaps[1:-1]
        assert np.array_equal(rep.I, [fn.virial_I(s, R) for s in interior])
        assert np.array_equal(rep.Iprime_formula, [fn.virial_I_prime(s, R, model) for s in interior])
        assert np.array_equal(rep.rhs_formula, [fn.virial_rhs(s, R, model) for s in interior])
        assert np.array_equal(rep.tail_mass, [tail_mass(s, R) for s in interior])
        E, m = fn.energy(snaps[0], model), fn.mass(snaps[0])
        for R_k in (0.1, R, 1e3):  # none, some and every snapshot checked
            args = (interior, R_k, model, E, w.eta(R_k, m))
            for a, b in zip(va.inequality_flags(*args), reference_inequality_flags(*args)):
                assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_report_peak_memory_does_not_grow_with_snapshots(self):
        template = field_from_grid({"kind": "line", "L": 20.0, "N": 4096})
        model = fn.ModelSpec.free()
        peaks = []
        for n in (10, 80):
            traj = uniform_trajectory(noisy_snapshots(template, n), model)
            tracemalloc.start()
            try:
                va.report(traj, 8.0, model)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # one stack of all 80 snapshots alone would take 5.2 MB
        assert peaks[1] <= 1.2 * peaks[0]
