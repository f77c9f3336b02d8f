"""Uniform rectangular grid, field containers, first derivatives and the quadratic form D w.w.

All fields live on the nodes of a uniform nx-by-ny grid covering
[0, lx] x [0, ly].  Values are stored as (ny, nx) arrays so that
``values.ravel()`` enumerates nodes in row-major order, flat index
j*nx + i, node (i, j) sitting at (i*hx, j*hy).  ``deriv1`` takes first
derivatives only: central stencils at interior nodes and second-order
one-sided stencils on the boundary, so it is second-order accurate up to
the edge of the domain (affine fields are differentiated exactly,
quadratics exactly at interior nodes).  ``quad_form`` is the package's
one D w.w, the dissipation density phi = D grad(u).grad(u) when w is a
gradient.

Snapshot files are CSV with header ``x1,x2,value`` in the same row-major
node order, written with 17 significant digits, bit-exact round trip.
The coordinate text of a grid is printed once into a cached per-grid
template (one %-format string per grid row), so a write formats only the
values, one grid row at a time.

``LatticeConvolution`` is the one FFT convolution of the package: a
linear "same"-size convolution of node arrays with a fixed kernel, whose
zero-padded spectrum is taken once when it is built.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.fft import irfft2, next_fast_len, rfft2


# The most nodes a grid may have, nx*ny: four times the finest grid the package builds (the
# Poisson ladder of mms --levels 8, 2049^2).  A coupled run keeps about 700 bytes a node (the growth
# of peak RSS over six reference steps at n = 513 on x86-64, tools/run_memory.py), so 2^24 nodes
# already need 11 GiB; a much larger size would also overflow the int32 column indices of the
# transport step matrix.
_MAX_NODES = 2**24


@dataclass(frozen=True)
class GridSpec:
    """Geometry of a uniform node-centered rectangular grid."""

    nx: int
    ny: int
    lx: float = 1.0
    ly: float = 1.0

    def __post_init__(self):
        for name in ("nx", "ny"):
            if getattr(self, name) < 3:
                raise ValueError(f"grid too small: {name} must be at least 3, got {self.nx}x{self.ny}")
        # the message names the larger side, which locates its line in a configuration file
        if int(self.nx) * int(self.ny) > _MAX_NODES:
            name = "nx" if self.nx >= self.ny else "ny"
            raise ValueError(f"grid too large: {name} makes nx*ny exceed {_MAX_NODES:,} nodes, got {self.nx}x{self.ny}")
        for name in ("lx", "ly"):
            if not (math.isfinite(getattr(self, name)) and getattr(self, name) > 0):
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")

    @property
    def hx(self) -> float:
        return self.lx / (self.nx - 1)

    @property
    def hy(self) -> float:
        return self.ly / (self.ny - 1)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.ny, self.nx)

    @property
    def x1(self) -> np.ndarray:
        return np.arange(self.nx) * self.hx

    @property
    def x2(self) -> np.ndarray:
        return np.arange(self.ny) * self.hy

    def nodes(self) -> tuple[np.ndarray, np.ndarray]:
        """Coordinate arrays X1, X2 of shape (ny, nx)."""
        return np.meshgrid(self.x1, self.x2)

    def cell_weights(self) -> np.ndarray:
        """Trapezoidal node weights; also the finite-volume cell areas."""
        cx = np.ones(self.nx)
        cx[0] = cx[-1] = 0.5
        cy = np.ones(self.ny)
        cy[0] = cy[-1] = 0.5
        return (self.hx * self.hy) * cy[:, None] * cx[None, :]


def _grid_array(values, grid: GridSpec, name: str) -> np.ndarray:
    a = np.asarray(values, dtype=float)
    if a.size == grid.nx * grid.ny:
        a = a.reshape(grid.shape)
    if a.shape != grid.shape:
        raise ValueError(f"{name}: expected shape {grid.shape}, got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name}: non-finite values")
    return a


@dataclass
class ScalarField:
    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        self.values = _grid_array(self.values, self.grid, "ScalarField")

    @classmethod
    def full(cls, grid: GridSpec, value: float) -> "ScalarField":
        return cls(grid, np.full(grid.shape, float(value)))


@dataclass
class VectorField:
    grid: GridSpec
    comp1: np.ndarray
    comp2: np.ndarray

    def __post_init__(self):
        self.comp1 = _grid_array(self.comp1, self.grid, "VectorField.comp1")
        self.comp2 = _grid_array(self.comp2, self.grid, "VectorField.comp2")

    def magnitude(self) -> np.ndarray:
        return np.hypot(self.comp1, self.comp2)


@dataclass
class SymTensorField:
    grid: GridSpec
    d11: np.ndarray
    d12: np.ndarray
    d22: np.ndarray

    def __post_init__(self):
        self.d11 = _grid_array(self.d11, self.grid, "SymTensorField.d11")
        self.d12 = _grid_array(self.d12, self.grid, "SymTensorField.d12")
        self.d22 = _grid_array(self.d22, self.grid, "SymTensorField.d22")


def deriv1(values: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Second-order first derivative along an axis; one-sided at the ends."""
    if axis == 0:
        return deriv1(values.T, h, 1).T
    v = values
    out = np.empty_like(v)
    out[:, 1:-1] = (v[:, 2:] - v[:, :-2]) / (2.0 * h)
    out[:, 0] = (-3.0 * v[:, 0] + 4.0 * v[:, 1] - v[:, 2]) / (2.0 * h)
    out[:, -1] = (3.0 * v[:, -1] - 4.0 * v[:, -2] + v[:, -3]) / (2.0 * h)
    return out


def diff_x1(f: ScalarField) -> ScalarField:
    return ScalarField(f.grid, deriv1(f.values, f.grid.hx, axis=1))


def quad_form(a11, a12, a22, w1, w2):
    """a11 w1^2 + 2 a12 w1 w2 + a22 w2^2: the symmetric matrix (a11, a12, a22) applied to w twice, node-wise."""
    return a11 * w1 * w1 + 2.0 * a12 * w1 * w2 + a22 * w2 * w2


def integrate(f: ScalarField) -> float:
    """Trapezoidal quadrature over the rectangle; exact for affine integrands.

    A field is checked to be finite only when built, so a value written into
    it afterwards is caught here: a non-finite sum raises ValueError.
    """
    total = float(np.sum(f.grid.cell_weights() * f.values))
    if not math.isfinite(total):
        raise ValueError(f"integral is not finite: {total}")
    return total


# ---------------------------------------------------------------------------
# convolution over the node lattice

class LatticeConvolution:
    """Linear "same"-size convolution of (..., ny, nx) node arrays with one centred kernel of odd size.

    Entry (j, i) of the result sums kernel[K + dj, L + di] * values[j - dj, i - di]
    over the offsets that stay on the grid, where (K, L) is the kernel's
    centre: values beyond the grid count as zero.  Each axis is zero-padded
    to next_fast_len(n + k - 1), long enough that the circular FFT
    convolution is the linear one.  The kernel's rfft2 is taken once, here,
    and is read-only; a call transforms a stack of fields in one rfft2 over
    the last two axes and crops the centred window.
    """

    def __init__(self, kernel: np.ndarray, shape: tuple[int, int]):
        (ky, kx), (ny, nx) = kernel.shape, shape
        self.padded = (next_fast_len(ny + ky - 1, real=True), next_fast_len(nx + kx - 1, real=True))
        self.window = (slice(ky // 2, ky // 2 + ny), slice(kx // 2, kx // 2 + nx))
        self.spectrum = rfft2(kernel, s=self.padded)
        self.spectrum.flags.writeable = False

    def __call__(self, values: np.ndarray) -> np.ndarray:
        full = irfft2(rfft2(values, s=self.padded) * self.spectrum, s=self.padded)
        return full[(..., *self.window)]


# ---------------------------------------------------------------------------
# snapshot files: CSV "x1,x2,value", row-major node order

@lru_cache(maxsize=8)
def _snapshot_template(grid: GridSpec) -> tuple[str, ...]:
    """Per grid row, the %-format of its snapshot lines with x1 and x2 already printed.

    ``tpl % tuple(row)`` fills in one row of values; built once per grid.
    """
    return tuple(
        "".join("%.17g,%.17g," % (x1, x2) + "%.17g\n" for x1 in grid.x1.tolist())
        for x2 in grid.x2.tolist()
    )


def write_snapshot(f: ScalarField, path) -> None:
    with open(path, "w") as fh:
        fh.write("x1,x2,value\n")
        for tpl, row in zip(_snapshot_template(f.grid), f.values.tolist()):
            fh.write(tpl % tuple(row))


def read_snapshot(path, grid: GridSpec | None = None) -> ScalarField:
    """Load a snapshot; its coordinates must match ``grid``, or the grid they imply when it is None."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # numpy's empty-input warning; raised below instead
        try:
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        except ValueError as exc:  # a value that is no number, or a row of the wrong length
            raise ValueError(f"{path}: {exc}") from exc
    if data.shape[0] == 0:
        raise ValueError(f"{path}: no data rows")
    if data.shape[1] != 3:
        raise ValueError(f"{path}: expected 3 columns x1,x2,value")
    x1s, x2s, vals = data[:, 0], data[:, 1], data[:, 2]
    nx = int(np.count_nonzero(x2s == x2s[0]))
    if nx < 3:
        raise ValueError(f"{path}: rows are not in row-major grid order")
    ny, extra = divmod(data.shape[0], nx)
    if extra:
        raise ValueError(f"{path}: the file is short or has extra rows: {extra} rows past {ny} grid rows of {nx}")
    if grid is None:
        try:
            grid = GridSpec(nx, ny, lx=float(x1s[nx - 1]), ly=float(x2s[-1]))
        except ValueError as exc:  # the grid the coordinates imply is not a valid one
            raise ValueError(f"{path}: {exc}") from exc
    gx1, gx2 = grid.nodes()
    if (nx, ny) != (grid.nx, grid.ny) or not (
        np.allclose(x1s, gx1.ravel(), rtol=1e-12, atol=1e-14)
        and np.allclose(x2s, gx2.ravel(), rtol=1e-12, atol=1e-14)
    ):
        raise ValueError(f"{path}: node coordinates do not match the {grid.nx}x{grid.ny} grid")
    return ScalarField(grid, _grid_array(vals, grid, str(path)))
