"""Hypothesis strategies for density lattices stored as nonzero blocks."""

import math

import numpy as np
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from vlasov_transport.phase_space import build_phase_grid

# Entries with zero bits and with nonzero bits of every kind a level can
# hold: -0.0, NaN and subnormals have nonzero bits, so they sit inside
# the block.
ENTRY = st.one_of(st.sampled_from([0.0, -0.0, math.nan, -math.nan, 1.0,
                                   5e-324, -2.2250738585e-313]),
                  st.floats(-1e6, 1e6, allow_nan=False))
NONZERO_ENTRY = ENTRY.filter(lambda x: np.float64(x).view(np.int64) != 0)


def grids():
    """Phase grids of 4 to 40 nodes per axis."""
    return st.builds(lambda nx, nv: build_phase_grid(-3.0, 3.0, -2.5, 2.5,
                                                     nx, nv),
                     st.integers(4, 40), st.integers(4, 40))


@st.composite
def lattices(draw, grid):
    """An (nx, nv) lattice: all +0.0, all nonzero bits, +0.0 but for one
    entry, or +0.0 with one to three rectangular blobs anywhere, edges
    and corners included."""
    shape = (grid.nx, grid.nv)
    kind = draw(st.sampled_from(["blobs", "blobs", "blobs", "zero", "full",
                                 "single"]))
    if kind == "full":
        return draw(arrays(np.float64, shape, elements=NONZERO_ENTRY,
                           fill=NONZERO_ENTRY))
    values = np.zeros(shape)
    if kind == "zero":
        return values
    if kind == "single":
        values[draw(st.integers(0, grid.nx - 1)),
               draw(st.integers(0, grid.nv - 1))] = draw(NONZERO_ENTRY)
        return values
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, grid.nx - 1))
        j = draw(st.integers(0, grid.nv - 1))
        m = draw(st.integers(1, grid.nx - i))
        n = draw(st.integers(1, grid.nv - j))
        if draw(st.booleans()):
            # a smooth blob, whose row sums round
            blob = np.sin(np.arange(m * n).reshape(m, n)
                          + draw(st.floats(0.0, 6.0)))
        else:
            blob = draw(arrays(np.float64, (m, n), elements=ENTRY,
                               fill=ENTRY))
        values[i:i + m, j:j + n] = blob
    return values


def same_bits(a, b) -> bool:
    """a and b hold the same float64 bits (so NaN equals NaN)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()
