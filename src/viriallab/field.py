"""Discretized complex fields on a symmetric interval and on star graphs.

Line problems live on a periodic truncation of [-L, L] with N uniform nodes
(optionally staggered by h/2 so no node sits at x = 0, which keeps
inverse-power potentials finite).  Graph problems live on J half-line edges
truncated at Ledge with a homogeneous Dirichlet far end; the vertex value at
x = 0 is stored per edge and shared (equal) for continuity-type vertex
conditions.

Both classes expose the same seam: node coordinates `x`, samples `values`,
quadrature weights `quad_weights` (all on the nodes of one edge for graphs,
so `x` and `quad_weights` of shape (M+1,) broadcast against `values` of
shape (J, M+1)), `with_values` and `sampled`.  `GraphField.values` is a
read-only view of the one (J, M+1) array each field owns; `vertex_values`
and `edge_values` are writable views of its first column and the rest.

Samples enter and leave the package in one layout, `values` as `np.save`
writes it: (N,) or (J, M+1), one row of a trajectory's snapshots.npy; they
come back through `with_values` on the grid's zero field, checks and all.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np


@dataclass
class LineField:
    """Complex samples on x_m = -L + (m + stagger/2) h, h = 2L/N."""

    L: float
    N: int
    values: np.ndarray
    stagger: bool = False
    kind = "line"  # the grid kind `grid_spec` names, not a field

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != (self.N,):
            raise ValueError(f"values shape {self.values.shape} != ({self.N},)")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("non-finite field values")
        if not (self.L > 0) or self.N < 2:
            raise ValueError("need L > 0 and N >= 2")

    @property
    def h(self) -> float:
        return 2.0 * self.L / self.N

    @property
    def x(self) -> np.ndarray:
        """Read-only node coordinates, built once per (L, N, stagger)."""
        return _line_nodes(self.L, self.N, self.stagger)

    @property
    def quad_weights(self) -> np.ndarray:
        return np.full(self.N, self.h)

    def with_values(self, values: np.ndarray) -> "LineField":
        return replace(self, values=np.asarray(values, dtype=complex))

    def copy(self) -> "LineField":
        return replace(self, values=self.values.copy())

    def sampled(self, f) -> "LineField":
        """The samples f(x) on this grid."""
        return self.with_values(f(self.x))

    def grid_spec(self) -> dict:
        return {k: getattr(self, k) for k in _GRIDS[self.kind]}

    @classmethod
    def from_function(cls, f, L: float, N: int, stagger: bool = False) -> "LineField":
        return cls(L=L, N=N, values=np.zeros(N), stagger=stagger).sampled(f)


@functools.lru_cache(maxsize=16)
def _line_nodes(L: float, N: int, stagger: bool) -> np.ndarray:
    off = 0.5 if stagger else 0.0
    x = -L + (np.arange(N) + off) * (2.0 * L / N)
    x.flags.writeable = False
    return x


@dataclass
class GraphField:
    """J-edge star graph field; nodes x_i = i h, i = 0..M, h = Ledge/M.

    vertex_values[j] is the value at x = 0 on edge j; edge_values[j, i-1]
    holds x_i for i = 1..M.  The far node x_M carries the Dirichlet zero.
    shared_vertex marks continuity-type conditions (Kirchhoff / Dirac delta),
    for which all vertex values must coincide.
    """

    J: int
    Ledge: float
    M: int
    vertex_values: np.ndarray
    edge_values: np.ndarray
    shared_vertex: bool = True
    kind = "graph"  # the grid kind `grid_spec` names, not a field

    def __post_init__(self):
        if self.J < 1 or self.M < 3 or not (self.Ledge > 0):
            raise ValueError("need J >= 1, M >= 3, Ledge > 0")
        if np.shape(self.vertex_values) != (self.J,):
            raise ValueError("vertex_values must have shape (J,)")
        if np.shape(self.edge_values) != (self.J, self.M):
            raise ValueError("edge_values must have shape (J, M)")
        # one (J, M+1) array owned by this field; the two stored parts are
        # views of it, so a write to either shows in `values`
        vals = np.empty((self.J, self.M + 1), dtype=complex)
        vals[:, 0] = self.vertex_values
        vals[:, 1:] = self.edge_values
        if not np.all(np.isfinite(vals)):
            raise ValueError("non-finite field values")
        vertex = vals[:, 0]
        if self.shared_vertex and np.max(np.abs(vertex - vertex[0])) > 1e-12 * (
            1.0 + np.max(np.abs(vertex))
        ):
            raise ValueError("shared vertex requires equal values on all edges")
        self.vertex_values, self.edge_values = vertex, vals[:, 1:]
        self._values = vals.view()
        self._values.flags.writeable = False

    @property
    def h(self) -> float:
        return self.Ledge / self.M

    @property
    def x(self) -> np.ndarray:
        """Node coordinates 0..Ledge of one edge, vertex and far end included."""
        return np.arange(self.M + 1) * self.h

    @property
    def values(self) -> np.ndarray:
        """Read-only (J, M+1) array: vertex value, then the edge nodes, on
        each edge."""
        return self._values

    @property
    def quad_weights(self) -> np.ndarray:
        """Trapezoid weights on the nodes of one edge."""
        wq = np.full(self.M + 1, self.h)
        wq[0] = wq[-1] = self.h / 2.0
        return wq

    def with_values(self, values: np.ndarray) -> "GraphField":
        values = np.asarray(values)
        return replace(self, vertex_values=values[:, 0], edge_values=values[:, 1:])

    def copy(self) -> "GraphField":
        return replace(self)  # __post_init__ copies into a fresh array

    def sampled(self, f) -> "GraphField":
        """The samples f(x) on every edge, with the Dirichlet zero at the far node."""
        prof = np.asarray(f(self.x), dtype=complex)
        if not np.all(np.isfinite(prof)):
            raise ValueError("sampled function produced non-finite values")
        prof = np.broadcast_to(prof, (self.J, self.M + 1)).copy()
        prof[:, -1] = 0.0
        return self.with_values(prof)

    def grid_spec(self) -> dict:
        return {k: getattr(self, k) for k in _GRIDS[self.kind]}

    @classmethod
    def from_function(
        cls, f, J: int, Ledge: float, M: int, shared_vertex: bool = True
    ) -> "GraphField":
        return cls(J, Ledge, M, np.zeros(J), np.zeros((J, M)), shared_vertex).sampled(f)


Field = LineField | GraphField


# the values a scenario entry of each type may hold, and the type's name
_JSON_TYPES = {bool: (bool, "a bool"), int: ((int, np.integer), "an integer"),
               float: ((int, float, np.integer, np.floating), "a number"),
               str: (str, "a string"), dict: (dict, "an object")}


def json_entries(d: dict, table: dict, where: str) -> dict:
    """{key: want(v)} for each key -> (want, default) of `table`: v = d[key] (KeyError if
    missing), or d.get(key, default) given a default, as a JSON bool, integer, number, string
    or object (one given is returned as is, a default copied); ValueError on another type
    ("1.5" or true is no number), a d that is not an object, or a key not in `table`."""
    if not isinstance(d, dict):
        raise ValueError(f"{where} must be an object, got {d!r}")
    if not table.keys() >= d.keys():
        raise ValueError(f"unknown {where} entries {sorted(d.keys() - table)}")
    out = {}
    for key, (want, default) in table.items():
        v = d[key] if default is None else d.get(key, default)
        types, name = _JSON_TYPES[want]
        if not isinstance(v, types) or (type(v) is bool and want is not bool):
            raise ValueError(f"{where} {key} must be {name}, got {v!r}")
        out[key] = v if want is dict and v is not default else want(v)
    return out


# the entries of each grid kind, in `grid_spec` order: (JSON type, default; None: required)
_GRIDS = {
    "line": {"kind": (str, None), "L": (float, None), "N": (int, None), "stagger": (bool, False)},
    "graph": {"kind": (str, None), "J": (int, None), "Ledge": (float, None), "M": (int, None),
              "shared_vertex": (bool, True)},
}


def field_from_grid(spec: dict) -> Field:
    """Zero field on the grid described by `spec` (the inverse of
    `grid_spec`), its entries read by `json_entries`; KeyError, TypeError or
    ValueError on a bad spec."""
    table = _GRIDS.get(spec["kind"])
    if table is None:
        raise ValueError(f"unknown grid kind {spec['kind']!r}")
    g = json_entries(spec, table, "grid")
    if g.pop("kind") == "line":
        return LineField(**g, values=np.zeros(g["N"]))
    return GraphField(**g, vertex_values=np.zeros(g["J"]), edge_values=np.zeros((g["J"], g["M"])))


def lp_norm(f: Field, p: float) -> float:
    """Discrete L^p norm; graphs sum p-th powers over edges."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    if np.isinf(p):
        return float(np.max(np.abs(f.values), initial=0.0))
    return float(np.sum(f.quad_weights * np.abs(f.values) ** p) ** (1.0 / p))


def spectral_wavenumbers(f: LineField) -> np.ndarray:
    """f's wavenumbers in FFT order; ValueError unless N is a power of two."""
    if f.N & (f.N - 1):
        raise ValueError("spectral derivative needs N a power of two")
    return 2.0 * np.pi * np.fft.fftfreq(f.N, d=f.h)


@functools.lru_cache(maxsize=8)
def spectral_k2(L: float, N: int) -> np.ndarray:
    """Read-only `spectral_wavenumbers` squared on a line grid, once per (L, N)."""
    k2 = spectral_wavenumbers(LineField(L=L, N=N, values=np.zeros(N))) ** 2
    k2.flags.writeable = False
    return k2


def derivative(f: Field, method: str, u: np.ndarray | None = None) -> np.ndarray:
    """Samples of the spatial derivative of f.values, or of each array of the
    block u (sample arrays on f's grid along leading axes), shaped like them:
    finite differences of second order along each edge or the line ("fd"), or the
    Fourier multiplier on a line with N a power of two ("spectral"); else ValueError."""
    u = f.values if u is None else u
    if method == "fd":
        return np.gradient(u, f.h, axis=-1, edge_order=2)
    if method != "spectral":
        raise ValueError(f"unknown derivative method {method!r}")
    if not isinstance(f, LineField):
        raise ValueError("spectral derivative needs a line field")
    ik = 1j * spectral_wavenumbers(f)
    ik[f.N // 2] = 0.0  # drop the unpaired Nyquist mode
    return np.fft.ifft(ik * np.fft.fft(u))


def grid_sum(grid: Field, a: np.ndarray) -> np.ndarray:
    """Sum of a over the grid axes of `grid`, one value per leading index."""
    return np.sum(a, axis=tuple(range(-np.ndim(grid.values), 0)))


def p1_chain(f: Field, a: np.ndarray, zero) -> np.ndarray:
    """`a`, shaped like f.values, along the chains of piecewise-linear elements:
    a line padded with the homogeneous node `zero` beyond both ends, a graph
    unchanged (each edge already ends at its own Dirichlet node)."""
    if isinstance(f, LineField):
        return np.concatenate(([zero], a, [zero]))
    return a


def tail_quad_weights(f: Field, R: float) -> np.ndarray:
    """Quadrature weights of the region |x| >= R.

    The node cells are the midpoint cells of the quadrature rule; the cell
    containing the cut contributes the fraction of its width in the tail, so
    the result is continuous and monotone in R. A graph's cells lie in
    [0, Ledge], so only their part right of R counts.
    """
    if R < 0:
        raise ValueError(f"R must be nonnegative, got {R}")
    x, h = f.x, f.h
    lo, hi = x - h / 2.0, x + h / 2.0
    if not isinstance(f, LineField):
        lo, hi = np.clip(lo, 0.0, f.Ledge), np.clip(hi, 0.0, f.Ledge)
    right = np.clip(hi - np.maximum(lo, R), 0.0, None)
    left = np.clip(np.minimum(hi, -R) - lo, 0.0, None)
    return np.minimum(right + left, hi - lo)


def tail_mass(f: Field, R: float) -> float:
    """L^2 norm of the field restricted to the region beyond R."""
    return float(tail_mass_block(f, f.values, tail_quad_weights(f, R)))


def tail_mass_block(grid: Field, u: np.ndarray, tail_weights: np.ndarray) -> np.ndarray:
    """`tail_mass` of each sample array in the block u on the grid of `grid`,
    tail_weights its `tail_quad_weights` at R."""
    return np.sqrt(grid_sum(grid, tail_weights * np.abs(u) ** 2))
