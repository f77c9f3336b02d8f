"""Stream-function Poisson solver: 5-point Laplacian, zero Dirichlet boundary.

Solves lap(v) = rhs with v = 0 on the boundary of the rectangle.  The
system (-lap_h) v = -rhs over the interior nodes has constant
coefficients on a uniform grid, so the type-I discrete sine transform
diagonalizes it exactly (Buzbee, Golub & Nielson, SIAM J. Numer. Anal.
7(4), 1970): transform, divide by the 5-point eigenvalues, transform
back.  The residual of that bare solve is computed once from the
assembled matrix.  Only when it exceeds ``tol * ||b||_2`` is one residual
correction through the same transform applied, which removes most of the
rounding the transforms leave behind, and the residual recomputed; the
run path's tolerance of 1e-10 is met by the bare solve, so a pass there
costs one sine-transform pair and one mat-vec.  ``report.residual_norm``
is always the residual of the returned field, equal to an independent
evaluation of ||A v - b||_2, and a solve whose residual still exceeds
``tol * ||b||_2`` raises ``SolverError``: callers never inspect the
residual themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
from scipy.fft import dstn, idstn

from .grid import GridSpec, ScalarField


class SolverError(RuntimeError):
    """Linear or nonlinear solve failed in a way that invalidates the state."""


@dataclass
class EllipticSolveReport:
    iterations: int  # transform applications: 0 for a zero rhs, 2 with the residual correction, 1 otherwise
    residual_norm: float


@lru_cache(maxsize=8)
def _laplacian_matrix(grid: GridSpec) -> sp.csr_matrix:
    """The 5-point -lap_h on the interior nodes, built once per grid; its arrays are read-only."""
    tx = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(grid.nx - 2, grid.nx - 2)) / grid.hx**2
    ty = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(grid.ny - 2, grid.ny - 2)) / grid.hy**2
    A = sp.kronsum(tx, ty, format="csr")
    for arr in (A.data, A.indices, A.indptr):
        arr.flags.writeable = False
    return A


@lru_cache(maxsize=8)
def laplacian_eigenvalues(grid: GridSpec, reflecting: bool) -> np.ndarray:
    """lam_y[j] + lam_x[i], lam_k = (2 - 2 cos(pi k / (n - 1))) / h^2: the eigenvalues of the 5-point -lap_h.

    With zero Dirichlet ends the sine modes k = 1..n-2 of the interior nodes
    diagonalize it (DST-I); with reflecting ends the cosine modes k = 0..n-1
    of all nodes do (DCT-I).  Computed once per grid; the array is read-only.
    """
    modes = slice(None) if reflecting else slice(1, -1)

    def axis(n: int, h: float) -> np.ndarray:
        return ((2.0 - 2.0 * np.cos(np.pi * np.arange(n) / (n - 1))) / h**2)[modes]

    lam = axis(grid.ny, grid.hy)[:, None] + axis(grid.nx, grid.hx)[None, :]
    lam.flags.writeable = False
    return lam


class PoissonSolver:
    """Solver for one grid; the assembled matrix and the eigenvalues of -lap_h are built once per grid and shared."""

    def __init__(self, grid: GridSpec):
        self.grid = grid
        self.matrix = _laplacian_matrix(grid)
        self._eigenvalues = laplacian_eigenvalues(grid, reflecting=False)

    def _apply_inverse(self, b: np.ndarray) -> np.ndarray:
        return idstn(dstn(b, type=1, norm="ortho") / self._eigenvalues, type=1, norm="ortho")

    def solve(self, rhs: ScalarField, tol: float = 1e-10) -> tuple[ScalarField, EllipticSolveReport]:
        """Solve lap(v) = rhs, v = 0 on the boundary; raise ``SolverError`` if ||Av-b|| > tol*||b||."""
        if not tol > 0:  # also rejects nan
            raise ValueError(f"tol must be positive, got {tol}")
        if rhs.grid != self.grid:
            raise ValueError("rhs is on a different grid")
        b = -rhs.values[1:-1, 1:-1]
        bnorm = float(np.linalg.norm(b))
        v = np.zeros(self.grid.shape)
        if bnorm == 0.0:
            return ScalarField(self.grid, v), EllipticSolveReport(0, 0.0)

        x = self._apply_inverse(b)
        r = b - (self.matrix @ x.ravel()).reshape(b.shape)
        residual = float(np.linalg.norm(r))
        applications = 1
        if not residual <= tol * bnorm:  # a miss, or nan: one residual correction through the same transform
            x += self._apply_inverse(r)
            applications = 2
            residual = float(np.linalg.norm(b - (self.matrix @ x.ravel()).reshape(b.shape)))
        if not np.all(np.isfinite(x)):
            raise SolverError("sine-transform Poisson solve produced non-finite values")
        if residual > tol * bnorm:
            raise SolverError(
                f"Poisson solve on the {self.grid.nx}x{self.grid.ny} grid missed its tolerance: "
                f"residual {residual:.3e} > tol {tol:.1e} * ||b|| {bnorm:.3e}"
            )
        v[1:-1, 1:-1] = x
        return ScalarField(self.grid, v), EllipticSolveReport(applications, residual)

    def residual_norm(self, v: ScalarField, rhs: ScalarField) -> float:
        """||A v - b||_2 for an externally supplied candidate solution."""
        b = -rhs.values[1:-1, 1:-1].ravel()
        return float(np.linalg.norm(b - self.matrix @ v.values[1:-1, 1:-1].ravel()))

