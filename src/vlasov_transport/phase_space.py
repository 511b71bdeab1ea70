"""Phase-space grids, initial data families, and lattice interpolation.

The state of the kinetic system lives on a tensor-product grid in (x, v):
a particle density f(x, v) sampled on the full lattice and a force field
B(x) sampled on the spatial axis alone.  Initial data comes from small
closed-form families (compactly supported product bumps for f, and
bump/Gaussian/uniform profiles for B) so that solvers can re-evaluate the
exact initial state at arbitrary off-grid points.  The bump and Gaussian
profiles are two declarations over one shaped form A * shape(x / w).  A
field family gives its values, its sup norm, the sup of |B'| that the
field estimate reads (derivative_sup) and its change of frame; none
evaluates B' pointwise.

Interpolation is piecewise cubic with a 4-point Lagrange stencil per axis.
It reproduces polynomials of degree <= 3 per axis exactly and returns the
stored value bitwise when queried at a node.  Profiles are evaluated in
per-cell power form: an (n, 4) table of cubic coefficients, built from
finite differences of the node values, turns every query into one cell
lookup, one gather of the cell's row and Horner's rule.  interp_profile
reads a table alone, and every lookup passes its owner's: a moment
profile builds its table on its first lookup and keeps it, a field
profile, looked up once, builds it per lookup, and a field history
builds the tables of its whole stack in one call.
Lattices keep the Lagrange weights per query, gathered from the
flattened lattice, since a 16-coefficient table per cell would cost
more to build than it saves.
Queries outside a density lattice read as zero (densities are compactly
supported with a two-cell zero collar); queries outside a force-field
profile are an error, because the field has no meaningful extension
beyond the truncated domain.  A monotone-clipped variant limits each
result to the range of the enclosing cell's corner values, which
preserves sign and sup bounds at the cost of formal order.

Memory: a density is compactly supported, so a level is mostly exact
zeros, and a sheared support fills only a band of its bounding block.
A DensityField stores the origin and shape of the bounding block of its
nonzero bits, the block's nonzero-bit entries in C order, and a packed
bit mask of where they sit: 8 bytes per stored entry and one bit per
block entry.  Every other entry is +0.0.  The layout is private to
DensityField: other modules read a level through place_window, values,
place, slices and reductions on data.  place_window places one or more
levels into zeros over the union of their blocks, widened by a pad, so
a reader holds only the window it reads; values builds the full lattice
anew on each access.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from functools import cached_property

import numpy as np

__all__ = [
    "DomainExitError",
    "PhaseGrid",
    "DensityField",
    "TransportField",
    "InitialDataSpec",
    "BumpDensity",
    "ZeroDensity",
    "BumpField",
    "GaussianField",
    "UniformField",
    "ZeroField",
    "build_phase_grid",
    "sample_initial_data",
    "place_window",
    "interp_profile",
    "interp_lattice",
]

# Queries within this fraction of a cell of a node snap onto the node, so
# node lookups are exact even when coordinates carry float noise.
_NODE_SNAP = 1e-8
# Out-of-range slack, in cell units, before a profile query is an error.
_RANGE_SLACK = 1e-9


class DomainExitError(RuntimeError):
    """A query left the truncated domain where a field is defined."""


@dataclass(frozen=True)
class PhaseGrid:
    """Uniform tensor-product grid on [x_min, x_max] x [v_min, v_max]."""

    x_min: float
    x_max: float
    v_min: float
    v_max: float
    nx: int
    nv: int

    def __post_init__(self):
        if not all(map(math.isfinite, (self.x_min, self.x_max,
                                       self.v_min, self.v_max))):
            raise ValueError("grid bounds must be finite")
        if not (self.x_min < self.x_max and self.v_min < self.v_max):
            raise ValueError("grid bounds must be strictly increasing")
        if self.nx < 4 or self.nv < 4:
            raise ValueError("nx and nv must be at least 4")
        # finite bounds whose span overflows
        if not (math.isfinite(self.dx) and math.isfinite(self.dv)):
            raise ValueError("grid spacing must be finite")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.nx - 1)

    @property
    def dv(self) -> float:
        return (self.v_max - self.v_min) / (self.nv - 1)

    @cached_property
    def x_nodes(self) -> np.ndarray:
        nodes = np.linspace(self.x_min, self.x_max, self.nx)
        nodes.setflags(write=False)
        return nodes

    @cached_property
    def v_nodes(self) -> np.ndarray:
        nodes = np.linspace(self.v_min, self.v_max, self.nv)
        nodes.setflags(write=False)
        return nodes


def build_phase_grid(x_min, x_max, v_min, v_max, nx, nv) -> PhaseGrid:
    return PhaseGrid(float(x_min), float(x_max), float(v_min), float(v_max),
                     int(nx), int(nv))


def _bounding_slices(mask: np.ndarray):
    """Row and column slices of the bounding box of mask's True entries,
    or None if it has none."""
    rows = np.flatnonzero(mask.any(axis=1))
    if not rows.size:
        return None
    cols = np.flatnonzero(mask.any(axis=0))
    return slice(rows[0], rows[-1] + 1), slice(cols[0], cols[-1] + 1)


@dataclass(frozen=True, eq=False, init=False)
class DensityField:
    """Density lattice of shape (nx, nv) at a fixed time, stored as the
    nonzero entries of its block.

    The block is the bounding box of the entries whose bits are nonzero,
    so -0.0 and NaN sit inside it and every entry outside it is +0.0;
    origin is the lattice index of its first entry and block_shape its
    shape.  data holds the block's nonzero-bit entries in C order, and
    mask is np.packbits of where they sit in the block; every other
    block entry is +0.0.  A level with no nonzero bits stores an empty
    block.  DensityField(grid, values, time) crops a full lattice.  Only
    this class reads mask: place writes the stored entries into an
    array, and place_window and values build windows from them.
    """

    grid: PhaseGrid
    time: float
    origin: tuple
    block_shape: tuple
    data: np.ndarray
    mask: np.ndarray

    def __init__(self, grid: PhaseGrid, values, time: float):
        values = np.asarray(values, dtype=float)
        if values.shape != (grid.nx, grid.nv):
            raise ValueError("density lattice shape does not match grid")
        self._crop(grid, values, (0, 0), time)

    @classmethod
    def _from_block(cls, grid: PhaseGrid, block: np.ndarray, origin,
                    time: float) -> "DensityField":
        """The level that is block at origin and +0.0 everywhere else."""
        level = object.__new__(cls)
        level._crop(grid, block, origin, time)
        return level

    def _crop(self, grid, block, origin, time) -> None:
        nonzero = _reads_nonzero(block, monotone=True)
        slices = _bounding_slices(nonzero)
        if slices is None:
            origin, slices = (0, 0), (slice(0, 0), slice(0, 0))
        rs, cs = slices
        nonzero = nonzero[rs, cs]
        data = block[rs, cs][nonzero]
        origin = (int(origin[0] + rs.start), int(origin[1] + cs.start))
        mask = np.packbits(nonzero)
        data.setflags(write=False)
        mask.setflags(write=False)
        for name, value in (("grid", grid), ("time", time),
                            ("origin", origin),
                            ("block_shape", nonzero.shape),
                            ("data", data), ("mask", mask)):
            object.__setattr__(self, name, value)

    _ENTRIES = ("time", "origin", "block_shape", "data", "mask")

    def _entries(self) -> tuple:
        """What the level stores, but its grid, for another process to
        rebuild it with _from_entries."""
        return tuple(getattr(self, name) for name in self._ENTRIES)

    @classmethod
    def _from_entries(cls, grid: PhaseGrid, entries) -> "DensityField":
        """The level whose _entries are entries, on grid, bitwise."""
        level = object.__new__(cls)
        object.__setattr__(level, "grid", grid)
        for name, value in zip(cls._ENTRIES, entries):
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            object.__setattr__(level, name, value)
        return level

    @property
    def slices(self) -> tuple:
        """Row and column slices of the block in the lattice."""
        (i, j), (m, n) = self.origin, self.block_shape
        return slice(i, i + m), slice(j, j + n)

    def place(self, out: np.ndarray, at=(0, 0)) -> np.ndarray:
        """Write the stored entries into out and return out.

        out[0, 0] is lattice node at, and out must cover the block.  Every
        entry of out off the stored ones is left as it is, so a level
        placed into zeros is its lattice over out's window, bitwise.
        """
        if not self.data.size:
            return out
        (i, j), (m, n) = self.origin, self.block_shape
        i, j = i - at[0], j - at[1]
        if min(i, j) < 0 or i + m > out.shape[0] or j + n > out.shape[1]:
            raise ValueError("out does not cover the level's block")
        nonzero = np.unpackbits(self.mask, count=m * n).view(bool)
        out[i:i + m, j:j + n][nonzero.reshape(m, n)] = self.data
        return out

    @property
    def values(self) -> np.ndarray:
        """The full lattice, read-only and built anew on each access.

        Nothing is cached: a caller that keeps the values of many levels
        holds a full lattice for each.  Read data, or place the level into
        a window (place_window), where that allows it.
        """
        out = self.place(np.zeros((self.grid.nx, self.grid.nv)))
        out.setflags(write=False)
        return out

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.data))) if self.data.size else 0.0


def place_window(levels, pad: int = 0):
    """(arrays, at): the levels placed into zeros over the union of their
    blocks, widened by pad nodes and clipped to the lattice, and the
    lattice index of that window's first node; None if no level has an
    entry.  Each array is bitwise its level's lattice over the window.
    """
    spans = [f.slices for f in levels if f.data.size]
    if not spans:
        return None
    grid = levels[0].grid
    at = (max(min(rs.start for rs, _ in spans) - pad, 0),
          max(min(cs.start for _, cs in spans) - pad, 0))
    shape = (min(max(rs.stop for rs, _ in spans) + pad, grid.nx) - at[0],
             min(max(cs.stop for _, cs in spans) + pad, grid.nv) - at[1])
    return [f.place(np.zeros(shape), at) for f in levels], at


@dataclass(frozen=True)
class _Profile:
    """Read-only profile on the spatial axis at a fixed time, the form of
    TransportField and MomentProfile.  A family sets _name, for its shape
    message, and its own lookup, at.
    """

    grid: PhaseGrid
    values: np.ndarray
    time: float

    def __post_init__(self):
        # A copy, so freezing it leaves the caller's array writeable.
        values = np.array(self.values, dtype=float)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        if values.shape != (self.grid.nx,):
            raise ValueError(
                f"{self._name} profile shape does not match grid x-axis")

    @cached_property
    def _table(self) -> np.ndarray:
        # Built on the first lookup and kept: a moment level is read by
        # every later field rebuild of a Picard sweep.
        return _cubic_table(self.values)

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))


class TransportField(_Profile):
    """Force field sampled on the spatial axis of a grid at a fixed time."""

    _name = "field"

    def at(self, x, monotone: bool = False):
        # An error outside the axis.  Each level is looked up once, so its
        # table is not kept: that would cost every stored level 4n floats.
        return interp_profile(self.grid.x_min, self.grid.dx,
                              _cubic_table(self.values), x, monotone=monotone)


# ---------------------------------------------------------------------------
# initial data families


def _frame(u: float) -> float:
    """The factor a = u + 1 of the change of frame with parameter u."""
    a = u + 1.0
    if a == 0.0:
        raise ValueError("scaling parameter u = -1 is not invertible")
    return a


def _bump(z: np.ndarray, power: int = 2) -> np.ndarray:
    # (1 - z^2)^power on |z| < 1, zero outside; C^(power-1) across the
    # support edge.
    core = np.clip(1.0 - z * z, 0.0, None)
    return core ** power


def _bump_prime(z: np.ndarray, power: int = 2) -> np.ndarray:
    core = np.clip(1.0 - z * z, 0.0, None)
    return -2.0 * power * z * core ** (power - 1)


@dataclass(frozen=True)
class BumpDensity:
    """Product bump A * (1-((x-cx)/w)^2)^p_+ * (1-((v-cv)/w)^2)^p_+.

    power p >= 2 sets the smoothness across the support edge (C^(p-1));
    the default quartic profile is the least smooth member.
    """

    amplitude: float
    center_x: float
    center_v: float
    width: float
    power: int = 2

    def __post_init__(self):
        if self.width <= 0:
            raise ValueError("bump width must be positive")
        if not isinstance(self.power, int) or self.power < 2:
            raise ValueError("bump power must be an integer >= 2")

    def _z(self, x, v):
        """The scaled coordinates ((x - cx) / w, (v - cv) / w)."""
        return ((np.asarray(x, dtype=float) - self.center_x) / self.width,
                (np.asarray(v, dtype=float) - self.center_v) / self.width)

    def value(self, x, v):
        zx, zv = self._z(x, v)
        out = self.amplitude * _bump(zx, self.power) * _bump(zv, self.power)
        out += 0.0    # a negative amplitude's -0.0 off the support is +0.0
        return out

    def dx(self, x, v):
        zx, zv = self._z(x, v)
        return (self.amplitude / self.width) \
            * _bump_prime(zx, self.power) * _bump(zv, self.power)

    def dv(self, x, v):
        zx, zv = self._z(x, v)
        return (self.amplitude / self.width) \
            * _bump(zx, self.power) * _bump_prime(zv, self.power)

    @property
    def support(self):
        w = self.width
        return ((self.center_x - w, self.center_x + w),
                (self.center_v - w, self.center_v + w))

    @property
    def sup_norm(self) -> float:
        return abs(self.amplitude)

    def scaled(self, u: float) -> "BumpDensity":
        # Data-level change of frame: f'(x, v) = sign(u+1) f((u+1)x,
        # (u+1)v - u); the sign keeps the moment source of the transformed
        # field equation right when u < -1 (see scaling_transform).
        a = _frame(u)
        amplitude = self.amplitude if a > 0.0 else -self.amplitude
        return BumpDensity(amplitude, self.center_x / a,
                           (self.center_v + u) / a, self.width / abs(a),
                           self.power)


@dataclass(frozen=True)
class ZeroDensity:
    def value(self, x, v):
        return np.zeros(np.broadcast(np.asarray(x), np.asarray(v)).shape)

    @property
    def support(self):
        return None

    @property
    def sup_norm(self) -> float:
        return 0.0

    def scaled(self, u: float) -> "ZeroDensity":
        return self


@dataclass(frozen=True)
class _ShapedField:
    """Field profile A * shape(x / w), the form of BumpField and
    GaussianField.  A family sets _name, for its width message, _shape(z)
    and _slope(r), the sup of |d/dx A shape(x / w)| for r = |A| / w.
    """

    amplitude: float
    width: float

    def __post_init__(self):
        if self.width <= 0:
            raise ValueError(f"{self._name} width must be positive")

    def value(self, x):
        return self.amplitude * self._shape(np.asarray(x, dtype=float)
                                            / self.width)

    @property
    def sup_norm(self) -> float:
        return abs(self.amplitude)

    @property
    def derivative_sup(self) -> float:
        return self._slope(abs(self.amplitude) / self.width)

    def scaled(self, u: float):
        a = _frame(u)
        return type(self)(self.amplitude / a, self.width / abs(a))


class BumpField(_ShapedField):
    """Compactly supported field profile A * (1-(x/w)^2)^2_+."""

    _name = "bump"
    _shape = staticmethod(_bump)
    # max of |4z(1-z^2)| on [0, 1] sits at z = 1/sqrt(3).
    _slope = staticmethod(lambda r: r * 8.0 / (3.0 * math.sqrt(3.0)))


class GaussianField(_ShapedField):
    """Smooth non-compact profile A * exp(-(x/w)^2)."""

    _name = "gaussian"
    _shape = staticmethod(lambda z: np.exp(-z * z))
    _slope = staticmethod(lambda r: r * math.sqrt(2.0 / math.e))


@dataclass(frozen=True)
class UniformField:
    amplitude: float

    def value(self, x):
        return np.full(np.shape(np.asarray(x, dtype=float)), self.amplitude)

    @property
    def sup_norm(self) -> float:
        return abs(self.amplitude)

    @property
    def derivative_sup(self) -> float:
        return 0.0

    def scaled(self, u: float) -> "UniformField":
        a = _frame(u)
        return UniformField(self.amplitude / a)


@dataclass(frozen=True)
class ZeroField:
    def value(self, x):
        return np.zeros(np.shape(np.asarray(x, dtype=float)))

    @property
    def sup_norm(self) -> float:
        return 0.0

    @property
    def derivative_sup(self) -> float:
        return 0.0

    def scaled(self, u: float) -> "ZeroField":
        return self


_DENSITY_FAMILIES = {"zero": ZeroDensity, "bump": BumpDensity}
_FIELD_FAMILIES = {"zero": ZeroField, "bump": BumpField,
                   "gaussian": GaussianField, "uniform": UniformField}


@dataclass(frozen=True)
class InitialDataSpec:
    """Closed-form initial state: a density family and a field family.

    A family's parameters are the spec fields named after the family's
    own fields, prefixed f0_ for the density and b0_ for the field:
    f0_width is BumpDensity.width, b0_amplitude is BumpField.amplitude.
    """

    f0_family: str = "bump"
    f0_amplitude: float = 1.0
    f0_center_x: float = 0.0
    f0_center_v: float = 0.0
    f0_width: float = 0.5
    f0_power: int = 2
    b0_family: str = "bump"
    b0_amplitude: float = 0.5
    b0_width: float = 1.0

    def __post_init__(self):
        if self.f0_family not in _DENSITY_FAMILIES:
            raise ValueError(f"unknown density family {self.f0_family!r}")
        if self.b0_family not in _FIELD_FAMILIES:
            raise ValueError(f"unknown field family {self.b0_family!r}")
        self.density()
        self.field()

    def _family(self, prefix: str, families: dict):
        cls = families[getattr(self, prefix + "family")]
        return cls(**{f.name: getattr(self, prefix + f.name)
                      for f in fields(cls)})

    def density(self):
        return self._family("f0_", _DENSITY_FAMILIES)

    def field(self):
        return self._family("b0_", _FIELD_FAMILIES)

    def scaled(self, u: float) -> "InitialDataSpec":
        """Spec for the rescaled data (closed under every family here)."""
        kwargs = {}
        for prefix, fam in (("f0_", self.density().scaled(u)),
                            ("b0_", self.field().scaled(u))):
            kwargs.update({prefix + f.name: getattr(fam, f.name)
                           for f in fields(fam)})
        return replace(self, **kwargs)


def sample_initial_data(spec: InitialDataSpec, grid: PhaseGrid):
    """Sample (f0, B0) on the grid.

    The density support must sit strictly inside the grid with a margin of
    two cells per axis, so the sampled lattice carries a zero collar on the
    outermost two rows and columns.
    """
    fam = spec.density()
    box = fam.support
    if box is not None:
        (x_lo, x_hi), (v_lo, v_hi) = box
        dx, dv = grid.dx, grid.dv
        if not (x_lo > grid.x_min + 2 * dx and x_hi < grid.x_max - 2 * dx
                and v_lo > grid.v_min + 2 * dv and v_hi < grid.v_max - 2 * dv):
            raise ValueError(
                "density support must lie strictly inside the grid "
                "with a two-cell margin per axis")
    f_values = fam.value(grid.x_nodes[:, None], grid.v_nodes[None, :])
    b_values = spec.field().value(grid.x_nodes)
    return (DensityField(grid, f_values, 0.0),
            TransportField(grid, b_values, 0.0))


# ---------------------------------------------------------------------------
# interpolation


_READS = {True: (0, 1), False: (1, 3)}


def _read_start(cell, n: int, monotone: bool):
    """First node a query in cell, its coordinate's floor, reads on an axis
    of n nodes, clamped before any int cast.  _READS[monotone] is (nodes
    below the cell, span): a clip reads 2 corners, else the 4-node stencil."""
    below, span = _READS[monotone]
    return np.fmin(np.fmax(cell - below, 0), n - 1 - span)


def _read_range(lo, hi, n: int, monotone: bool):
    """First and last node read by the queries in cells lo to hi."""
    return (_read_start(lo, n, monotone),
            _read_start(hi, n, monotone) + _READS[monotone][1])


def _reads_nonzero(block: np.ndarray, monotone: bool) -> np.ndarray:
    """Where a lattice read sees block as nonzero: a plain read sums from
    +0.0, so -0.0 reads as zero, but a clip to -0.0 corners returns -0.0,
    so a monotone read sees every entry with nonzero bits."""
    return block.view(np.int64) != 0 if monotone else block != 0


def _stencil(coord: np.ndarray, n: int):
    """Cell, stencil start index and the four Lagrange weights per query.

    coord is the query position in units of the spacing, measured from the
    first node.  Positions within _NODE_SNAP of a node are snapped so node
    queries return the stored value exactly.  A NaN query reads NaN.
    """
    nearest = np.rint(coord)
    coord = np.where(np.abs(coord - nearest) <= _NODE_SNAP, nearest, coord)
    cell = _read_start(np.floor(coord), n, True).astype(np.int64)
    start = _read_start(cell, n, False)
    u = coord - start
    w0 = -(u - 1.0) * (u - 2.0) * (u - 3.0) / 6.0
    w1 = u * (u - 2.0) * (u - 3.0) / 2.0
    w2 = -u * (u - 1.0) * (u - 3.0) / 2.0
    w3 = u * (u - 1.0) * (u - 2.0) / 6.0
    return cell, start, (w0, w1, w2, w3)


def _cubic_table(values: np.ndarray) -> np.ndarray:
    """Per-cell power-form coefficients of the 4-point Lagrange cubic.

    Works along the last axis: for values of shape (..., n) it returns
    shape (..., n, 4), so one call builds every level of a stack.  Row c
    holds (a0, a1, a2, a3) with p(t) = a0 + t (a1 + t (a2 + t a3)) in the
    local coordinate t = coord - c, for the stencil of _stencil: nodes
    c-1..c+2, clipped to 0..3 in cell 0 and to n-4..n-1 in cell n-2.
    In finite differences a3 is the stencil's third difference over 6, a2
    is the centred second difference at node c over 2 (less 3 a3 in cell
    0, whose stencil is one-sided), and a1 follows from p(1) = values[c+1].
    Column a0 is the node values themselves, so t = 0 reads the stored
    node bitwise; the last row is the constant at node n-1, so a query on
    the last node reads back bitwise too.
    """
    table = np.zeros(values.shape + (4,))
    table[..., 0] = values
    a1, a2, a3 = (table[..., :-1, j] for j in (1, 2, 3))
    d = values[..., 1:] - values[..., :-1]
    dd = d[..., 1:] - d[..., :-1]
    np.multiply(dd, 0.5, out=a2[..., 1:])
    np.subtract(dd[..., 1:], dd[..., :-1], out=a3[..., 1:-1])
    a3[..., 1:-1] /= 6.0
    a3[..., 0], a3[..., -1] = a3[..., 1], a3[..., -2]
    a2[..., 0] = a2[..., 1] - 3.0 * a3[..., 0]
    np.subtract(d, a2, out=a1)
    a1 -= a3
    return table


def interp_profile(x0: float, dx: float, table: np.ndarray, xq,
                   out_of_range: str = "error", monotone: bool = False):
    """Cubic interpolation of a 1D profile at query points xq.

    table: the profile's _cubic_table, from its owner (a field level, a
    moment level or a field history); the node values are its column a0.
    out_of_range: "error" raises DomainExitError, "zero" reads 0 outside.
    """
    values = table[:, 0]
    n = values.shape[0]
    xq = np.asarray(xq, dtype=float)
    q = xq.reshape(-1)
    coord = q - x0
    coord /= dx
    outside = None
    # An empty query has no range to test; it reads an empty result.  A
    # NaN query makes both reductions NaN and takes the branch too.
    if q.size and not (np.minimum.reduce(coord) >= -_RANGE_SLACK
                       and np.maximum.reduce(coord) <= (n - 1) + _RANGE_SLACK):
        outside = (coord < -_RANGE_SLACK) | (coord > (n - 1) + _RANGE_SLACK)
        if out_of_range == "error" and outside.any():
            worst = q[outside]
            raise DomainExitError(
                f"profile query outside [{x0}, {x0 + (n - 1) * dx}]: "
                f"min {worst.min():.6g}, max {worst.max():.6g}")
        coord = np.clip(coord, 0.0, float(n - 1))
    # Cell and local coordinate, with positions within _NODE_SNAP of a node
    # snapped onto it (t = 0), so node queries read the stored value.  The
    # range slack is below the snap width, so every cell lands in [0, n-1].
    cell = coord + _NODE_SNAP
    np.floor(cell, out=cell)
    t = coord
    t -= cell
    np.copyto(t, 0.0, where=t <= _NODE_SNAP)
    if outside is not None:
        # A NaN query reads cell 0 at t = NaN, so it reads NaN.
        np.fmax(cell, 0.0, out=cell)
    cell = cell.astype(np.int64)
    # Horner on one gather of the cells' rows.
    rows = table.take(cell, axis=0)
    out = rows[:, 3] * t
    out += rows[:, 2]
    out *= t
    out += rows[:, 1]
    out *= t
    out += rows[:, 0]
    if monotone:
        left = values.take(cell)
        right = np.append(values[1:], values[-1]).take(cell)
        out = np.clip(out, np.minimum(left, right), np.maximum(left, right))
    if outside is not None and out_of_range == "zero":
        out = np.where(outside, 0.0, out)
    return out[0] if xq.ndim == 0 else out.reshape(xq.shape)


def interp_lattice(grid: PhaseGrid, values: np.ndarray, xq, vq,
                   monotone: bool = False):
    """Cubic tensor-product interpolation of a density lattice.

    Queries outside the grid rectangle read as zero: densities carry their
    compact support with them, so the zero extension is exact.  The 16
    stencil values and the 4 corners of the monotone clip are gathered
    from the flattened lattice by offsets from each query's stencil start.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != (grid.nx, grid.nv):
        raise ValueError("density lattice shape does not match grid")
    xq = np.asarray(xq, dtype=float)
    vq = np.asarray(vq, dtype=float)
    shape = np.broadcast(xq, vq).shape
    qx = np.broadcast_to(xq, shape).reshape(-1)
    qv = np.broadcast_to(vq, shape).reshape(-1)
    cx = (qx - grid.x_min) / grid.dx
    cv = (qv - grid.v_min) / grid.dv
    outside = ((cx < -_RANGE_SLACK) | (cx > (grid.nx - 1) + _RANGE_SLACK)
               | (cv < -_RANGE_SLACK) | (cv > (grid.nv - 1) + _RANGE_SLACK))
    cx = np.clip(cx, 0.0, float(grid.nx - 1))
    cv = np.clip(cv, 0.0, float(grid.nv - 1))
    cell_x, start_x, wx = _stencil(cx, grid.nx)
    cell_v, start_v, wv = _stencil(cv, grid.nv)
    nv = grid.nv
    flat = values.reshape(-1)
    start = start_x * nv + start_v
    index = np.empty_like(start)
    gathered = np.empty_like(cx)
    out = np.zeros_like(cx)
    for k in range(4):
        for l in range(4):
            np.add(start, k * nv + l, out=index)
            flat.take(index, out=gathered, mode="clip")
            out += wx[k] * wv[l] * gathered
    if monotone:
        # running min and max over the corners (i, j), (i+1, j), (i, j+1),
        # (i+1, j+1) of each query's cell
        corner = cell_x * nv + cell_v
        lo = flat.take(corner)
        hi = lo.copy()
        for offset in (nv, 1, nv + 1):
            np.add(corner, offset, out=index)
            flat.take(index, out=gathered, mode="clip")
            np.minimum(lo, gathered, out=lo)
            np.maximum(hi, gathered, out=hi)
        np.clip(out, lo, hi, out=out)
    out = np.where(outside, 0.0, out)
    out = out.reshape(shape)
    return float(out) if shape == () else out

