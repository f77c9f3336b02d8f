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

    @classmethod
    def from_function(cls, grid: GridSpec, fn) -> "ScalarField":
        x1, x2 = grid.nodes()
        return cls(grid, np.broadcast_to(np.asarray(fn(x1, x2), dtype=float), grid.shape).copy())


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
    """Trapezoidal quadrature over the rectangle; exact for affine integrands."""
    return float(np.sum(f.grid.cell_weights() * f.values))


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
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[0] == 0:
        raise ValueError(f"{path}: no data rows")
    if data.shape[1] != 3:
        raise ValueError(f"{path}: expected 3 columns x1,x2,value")
    x1s, x2s, vals = data[:, 0], data[:, 1], data[:, 2]
    nx = int(np.count_nonzero(x2s == x2s[0]))
    if nx < 3 or data.shape[0] % nx != 0:
        raise ValueError(f"{path}: rows are not in row-major grid order")
    ny = data.shape[0] // nx
    grid = grid or GridSpec(nx, ny, lx=float(x1s[nx - 1]), ly=float(x2s[-1]))
    gx1, gx2 = grid.nodes()
    if (nx, ny) != (grid.nx, grid.ny) or not (
        np.allclose(x1s, gx1.ravel(), rtol=1e-12, atol=1e-14)
        and np.allclose(x2s, gx2.ravel(), rtol=1e-12, atol=1e-14)
    ):
        raise ValueError(f"{path}: node coordinates do not match the {grid.nx}x{grid.ny} grid")
    return ScalarField(grid, _grid_array(vals, grid, str(path)))
