import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from viriallab.field import (
    GraphField,
    LineField,
    derivative,
    field_from_grid,
    json_entries,
    lp_norm,
    tail_mass,
    tail_quad_weights,
)


def gaussian_line(L=20.0, N=2**12, stagger=False):
    return LineField.from_function(lambda x: np.exp(-(x**2)), L, N, stagger=stagger)


def one_field(kind, prof):
    if kind == "line":
        return LineField.from_function(prof, 2.0, 64)
    return GraphField.from_function(prof, 3, 5.0, 50)


KINDS = ["line", "graph"]


class TestQuadrature:
    @pytest.mark.parametrize("kind", KINDS)
    def test_constant_measure(self, kind):
        f = one_field(kind, np.ones_like)
        # graphs: the Dirichlet far node is zeroed, dropping its half cell
        expect = 4.0 if kind == "line" else 3 * (5.0 - f.h / 2.0)
        assert lp_norm(f, 2) ** 2 == pytest.approx(expect, rel=1e-12)

    def test_zero_graph_every_p(self):
        g = GraphField.from_function(lambda x: np.zeros_like(x), 2, 1.0, 10)
        for p in (1, 2, 6, np.inf):
            assert lp_norm(g, p) == 0.0

    def test_gaussian_l2_oracle(self):
        f = gaussian_line()
        assert lp_norm(f, 2) == pytest.approx(np.sqrt(np.sqrt(np.pi / 2)), abs=1e-10)

    def test_parseval(self):
        f = gaussian_line()
        coeff = np.fft.fft(f.values) / f.N
        fourier_sq = 2 * f.L * np.sum(np.abs(coeff) ** 2)
        assert lp_norm(f, 2) ** 2 == pytest.approx(fourier_sq, rel=1e-10)

    def test_rejects_p_below_one(self):
        with pytest.raises(ValueError):
            lp_norm(gaussian_line(N=16), 0.5)


class TestDerivative:
    def test_spectral_exactness_sine(self):
        L, N = 4.0, 256
        f = LineField.from_function(lambda x: np.sin(np.pi * x / L), L, N)
        df = derivative(f, "spectral")
        expect = (np.pi / L) * np.cos(np.pi * f.x / L)
        assert np.max(np.abs(df - expect)) < 1e-10

    def test_constant_maps_to_zero(self):
        f = LineField.from_function(lambda x: np.ones_like(x), 3.0, 64)
        assert np.max(np.abs(derivative(f, "spectral"))) < 1e-12

    def test_graph_fd_second_order(self):
        errs = []
        for M in (200, 400, 800):
            g = GraphField.from_function(lambda x: np.exp(-((x - 4.0) ** 2)), 1, 12.0, M)
            dg = derivative(g, "fd")
            expect = -2 * (g.x - 4.0) * np.exp(-((g.x - 4.0) ** 2))
            errs.append(np.max(np.abs(dg[0] - expect)))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.3)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.3)

    def test_spectral_on_graph_rejected(self):
        g = GraphField.from_function(lambda x: np.exp(-((x - 4.0) ** 2)), 3, 12.0, 200)
        with pytest.raises(ValueError, match="line field"):
            derivative(g, "spectral")

    def test_linearity(self):
        rng = np.random.default_rng(1)
        base = LineField(L=5.0, N=128, values=np.zeros(128))
        f = base.with_values(rng.standard_normal(128) + 1j * rng.standard_normal(128))
        g = base.with_values(rng.standard_normal(128) + 1j * rng.standard_normal(128))
        lhs = derivative(f.with_values(2.0 * f.values + 3.0j * g.values), "spectral")
        rhs = 2.0 * derivative(f, "spectral") + 3.0j * derivative(g, "spectral")
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(1.0, np.max(np.abs(rhs)))


def reference_derivative(f, method="auto"):
    """The Field-returning derivative this package had before `derivative`
    returned samples, kept as the bitwise reference."""
    if method == "spectral" and not isinstance(f, LineField):
        raise ValueError("spectral derivative needs a line field")
    if isinstance(f, LineField) and method in ("auto", "spectral"):
        if f.N >= 2 and (f.N & (f.N - 1)) == 0:
            ik = 1j * 2.0 * np.pi * np.fft.fftfreq(f.N, d=f.h)
            ik[f.N // 2] = 0.0
            return f.with_values(np.fft.ifft(ik * np.fft.fft(f.values)))
        if method == "spectral":
            raise ValueError("spectral derivative needs N a power of two")
    dvals = np.gradient(f.values, f.h, axis=-1, edge_order=2)
    if isinstance(f, GraphField):
        f = dataclasses.replace(f, shared_vertex=False)
    return f.with_values(dvals)


def rough_values(shape, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestDerivativeMatchesReference:
    @pytest.mark.parametrize("method", ["spectral", "fd"])
    @pytest.mark.parametrize("stagger", [False, True])
    @pytest.mark.parametrize("N", [2**k for k in range(6, 13)])
    def test_line(self, N, stagger, method):
        base = LineField(L=7.5, N=N, values=np.zeros(N), stagger=stagger)
        f = base.with_values(rough_values(N, seed=N))
        new = derivative(f, method)
        assert isinstance(new, np.ndarray)
        assert np.array_equal(new, reference_derivative(f, method).values)

    @pytest.mark.parametrize("shared", [True, False])
    @pytest.mark.parametrize("J", [1, 2, 3])
    def test_graph_fd(self, J, shared):
        spec = {"kind": "graph", "J": J, "Ledge": 6.0, "M": 80, "shared_vertex": shared}
        vals = rough_values((J, 81), seed=J)
        vals[:, 0] = vals[0, 0] if shared else vals[:, 0]
        vals[:, -1] = 0.0
        g = field_from_grid(spec).with_values(vals)
        assert np.array_equal(derivative(g, "fd"), reference_derivative(g, "fd").values)

    @pytest.mark.parametrize("method", ["auto", "Spectral", "", None])
    def test_other_methods_rejected(self, method):
        with pytest.raises(ValueError, match="unknown derivative method"):
            derivative(gaussian_line(N=64), method)

    def test_spectral_needs_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            derivative(gaussian_line(N=48), "spectral")


class TestGraphValues:
    def test_edge_write_shows_in_values(self):
        g = GraphField.from_function(lambda x: np.exp(-x), 3, 5.0, 50)
        g.edge_values[1, 4] = 7.0 - 2.0j
        g.vertex_values[:] = 0.5
        assert g.values[1, 5] == 7.0 - 2.0j
        assert np.all(g.values[:, 0] == 0.5)

    def test_values_read_only(self):
        g = GraphField.from_function(lambda x: np.exp(-x), 3, 5.0, 50)
        with pytest.raises(ValueError, match="read-only"):
            g.values[0, 1] = 1.0

    def test_fields_share_no_memory(self):
        vertex, edges = np.ones(2, dtype=complex), np.ones((2, 4), dtype=complex)
        a = GraphField(J=2, Ledge=1.0, M=4, vertex_values=vertex, edge_values=edges)
        b = GraphField(J=2, Ledge=1.0, M=4, vertex_values=vertex, edge_values=edges)
        c = a.with_values(a.values)
        for x, y in [(a, b), (a, c), (a, a.copy())]:
            assert not np.shares_memory(x.values, y.values)
        assert not np.shares_memory(a.values, vertex) and not np.shares_memory(a.values, edges)


class TestTailMass:
    def test_beyond_domain_is_zero(self):
        assert tail_mass(gaussian_line(N=256), 25.0) == 0.0
        g = GraphField.from_function(lambda x: np.exp(-x), 2, 5.0, 50)
        assert tail_mass(g, 5.0) == 0.0

    def test_zero_R_recovers_l2(self):
        f = gaussian_line(N=512)
        assert tail_mass(f, 0.0) == pytest.approx(lp_norm(f, 2), rel=1e-12)
        g = GraphField.from_function(lambda x: np.exp(-x), 2, 8.0, 64)
        assert tail_mass(g, 0.0) == pytest.approx(lp_norm(g, 2), rel=1e-12)

    def test_gaussian_tail_oracle(self):
        f = gaussian_line()
        val, err = quad(lambda x: np.exp(-2 * x**2), 1.0, 25.0, limit=200)
        expect = np.sqrt(2 * val)
        assert tail_mass(f, 1.0) == pytest.approx(expect, abs=1e-5)

    @given(st.floats(0.0, 6.0), st.floats(0.0, 6.0))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_R(self, r1, r2):
        f = gaussian_line(L=8.0, N=256)
        lo, hi = sorted((r1, r2))
        assert tail_mass(f, hi) <= tail_mass(f, lo) + 1e-12

    def test_weights_sum_to_tail_measure(self):
        f = gaussian_line(L=8.0, N=256)
        wt = tail_quad_weights(f, 3.3)
        assert np.sum(wt) == pytest.approx(2 * (8.0 - 3.3), rel=1e-12)

    def test_rejects_negative_R(self):
        with pytest.raises(ValueError):
            tail_mass(gaussian_line(N=16), -1.0)

    @pytest.mark.parametrize("J,Ledge,M", [(3, 8.0, 200), (2, 5.0, 50), (3, 112.0, 300)])
    def test_graph_weights_equal_one_sided_formula(self, J, Ledge, M):
        # a graph's cells lie in [0, Ledge], so the |x| >= R weights equal the
        # {x >= R} cell fractions bit for bit, signs of zero included, at R = 0
        # (the vertex node), at every node and cell edge, just off them, and
        # beyond Ledge
        g = GraphField.from_function(lambda x: np.exp(-x), J, Ledge, M)
        lo, hi = np.clip(g.x - g.h / 2.0, 0.0, Ledge), np.clip(g.x + g.h / 2.0, 0.0, Ledge)
        cuts = np.concatenate([g.x, lo, hi])
        Rs = np.concatenate([
            [0.0, Ledge, 2.0 * Ledge], np.linspace(0.0, 1.2 * Ledge, 200),
            cuts, np.nextafter(cuts, np.inf),
        ])
        for R in Rs:
            ref = np.minimum(np.clip(hi - np.maximum(lo, R), 0.0, None), hi - lo)
            got = tail_quad_weights(g, R)
            assert np.array_equal(got, ref) and np.array_equal(np.signbit(got), np.signbit(ref))


class TestSampling:
    def test_zero_function(self):
        f = LineField.from_function(lambda x: np.zeros_like(x), 1.0, 16)
        assert np.all(f.values == 0)

    def test_stagger_avoids_origin(self):
        f = LineField.from_function(lambda x: 1.0 / np.abs(x), 10.0, 128, stagger=True)
        assert np.min(np.abs(f.x)) > 0
        assert np.all(np.isfinite(f.values))

    @pytest.mark.parametrize("stagger", [False, True])
    def test_line_nodes_cached_read_only(self, stagger):
        # one read-only array per grid, the formula's samples bit for bit
        f, g = gaussian_line(stagger=stagger), gaussian_line(stagger=stagger)
        assert f.x is g.x and f.x is not gaussian_line(stagger=not stagger).x
        off = 0.5 if stagger else 0.0
        assert np.array_equal(f.x, -f.L + (np.arange(f.N) + off) * f.h)
        with pytest.raises(ValueError):
            f.x[0] = 0.0

    def test_even_line_matches_two_edge_graph(self):
        prof = lambda x: np.exp(-(x**2))  # noqa: E731
        L, M = 6.0, 60
        line = LineField.from_function(prof, L, 2 * M)
        g = GraphField.from_function(prof, 2, L, M)
        # graph edge nodes coincide with the positive line nodes
        pos = line.x > 0
        np.testing.assert_allclose(
            line.values[pos], g.edge_values[0][: np.sum(pos)], atol=1e-12
        )

    def test_nonfinite_sample_rejected(self):
        with np.errstate(divide="ignore"), pytest.raises(ValueError):
            LineField.from_function(lambda x: 1.0 / x, 4.0, 16)  # node at x = -L+.. hits 0

    def test_shared_vertex_enforced(self):
        with pytest.raises(ValueError):
            GraphField(
                J=2,
                Ledge=1.0,
                M=4,
                vertex_values=np.array([1.0, 2.0]),
                edge_values=np.zeros((2, 4)),
                shared_vertex=True,
            )


class TestNpyLayout:
    @pytest.mark.parametrize("kind", KINDS)
    def test_roundtrip_through_np_save(self, kind, tmp_path):
        # the one on-disk layout of samples: `values` in the grid's shape,
        # read back onto the grid's zero field with allow_pickle=False
        f = one_field(kind, lambda x: np.exp(-(x**2)) * np.exp(0.3j * x) / 3.0)
        np.save(tmp_path / "u.npy", f.values)
        back = np.load(tmp_path / "u.npy", allow_pickle=False)
        assert back.shape == f.values.shape and back.dtype == complex
        g = field_from_grid(f.grid_spec()).with_values(back)
        assert type(g) is type(f) and g.grid_spec() == f.grid_spec()
        assert np.array_equal(g.values, f.values)


class TestGridSpec:
    LINE = {"kind": "line", "L": 16.0, "N": 64}
    GRAPH = {"kind": "graph", "J": 3, "Ledge": 5.0, "M": 50}

    @pytest.mark.parametrize("change", [
        {"N": 64.5}, {"N": 64.0}, {"N": True}, {"N": "64"},
        {"stagger": "false"}, {"stagger": 0}, {"stagger": np.bool_(False)},
    ])
    def test_line_entries_not_coerced(self, change):
        # a truncated N or a truthy string would run on another grid than
        # the spec names
        with pytest.raises(ValueError):
            field_from_grid({**self.LINE, **change})

    @pytest.mark.parametrize("change", [
        {"J": 3.0}, {"M": 50.5}, {"M": False}, {"shared_vertex": "true"}, {"shared_vertex": 1},
    ])
    def test_graph_entries_not_coerced(self, change):
        with pytest.raises(ValueError):
            field_from_grid({**self.GRAPH, **change})

    @pytest.mark.parametrize("spec", [
        {**LINE, "L": True}, {**LINE, "L": "20"}, {**LINE, "stager": True},
        {**GRAPH, "Ledge": True}, {**GRAPH, "Ledge": "5.0"}, {**GRAPH, "shared": False},
    ])
    def test_lengths_are_numbers_and_keys_known(self, spec):
        # true would run on a box of L = 1, a misspelt stagger unstaggered
        with pytest.raises(ValueError, match="must be a number|unknown grid entries"):
            field_from_grid(spec)

    @pytest.mark.parametrize("kind", KINDS)
    def test_spec_keys_in_table_order(self, kind):
        spec = one_field(kind, np.ones_like).grid_spec()
        assert field_from_grid(spec).grid_spec() == spec
        assert list(spec) == (["kind", "L", "N", "stagger"] if kind == "line"
                              else ["kind", "J", "Ledge", "M", "shared_vertex"])

    def test_numpy_integers_and_defaults(self):
        f = field_from_grid({**self.LINE, "N": np.int64(64)})
        assert f.grid_spec() == {**self.LINE, "stagger": False} and type(f.N) is int
        g = field_from_grid({**self.GRAPH, "M": np.int32(50)})
        assert g.grid_spec() == {**self.GRAPH, "shared_vertex": True} and type(g.M) is int


class TestJsonEntries:
    TABLE = {"n": (int, None), "x": (float, 0.5), "on": (bool, True), "s": (str, "a"),
             "obj": (dict, {})}

    def test_values_and_defaults(self):
        obj = {"k": [1]}
        got = json_entries({"n": np.int64(3), "x": 2, "obj": obj}, self.TABLE, "sec")
        assert got == {"n": 3, "x": 2.0, "on": True, "s": "a", "obj": obj}
        assert type(got["n"]) is int and type(got["x"]) is float
        assert got["obj"] is obj  # an object is returned as it is, not copied

    def test_unknown_key(self):
        with pytest.raises(ValueError, match=r"unknown sec entries \['m', 'y'\]"):
            json_entries({"n": 1, "y": 2.0, "m": 1}, self.TABLE, "sec")

    @pytest.mark.parametrize("key, bad, name", [
        ("x", True, "a number"), ("x", "1.5", "a number"), ("n", 1.0, "an integer"),
        ("n", False, "an integer"), ("on", 1, "a bool"), ("s", 5, "a string"),
        ("obj", [1], "an object"), ("obj", None, "an object"),
    ])
    def test_value_of_another_type(self, key, bad, name):
        # a bool is no number, and "1.5" is not read as 1.5
        with pytest.raises(ValueError, match=f"sec {key} must be {name}, got "):
            json_entries({"n": 1, key: bad}, self.TABLE, "sec")

    def test_default_object_not_shared(self):
        a, b = (json_entries({"n": 1}, self.TABLE, "sec")["obj"] for _ in range(2))
        a["k"] = 1
        assert b == {} and self.TABLE["obj"][1] == {}

    def test_missing_required_key(self):
        with pytest.raises(KeyError, match="'n'"):
            json_entries({"x": 1.0}, self.TABLE, "sec")

    @pytest.mark.parametrize("d", [5, "n", [("n", 1)], None])
    def test_section_not_an_object(self, d):
        with pytest.raises(ValueError, match="sec must be an object"):
            json_entries(d, self.TABLE, "sec")
