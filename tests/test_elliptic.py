import numpy as np
import pytest
import scipy.sparse.linalg as spla

from dispersim.elliptic import PoissonSolver, SolverError
from dispersim.grid import GridSpec, ScalarField, diff_x1


def test_zero_rhs_gives_zero():
    g = GridSpec(17, 17)
    v, rep = PoissonSolver(g).solve(ScalarField.full(g, 0.0))
    assert np.max(np.abs(v.values)) == 0.0
    assert rep.iterations == 0 and rep.residual_norm == 0.0


def test_boundary_exactly_zero():
    g = GridSpec(21, 21)
    rng = np.random.default_rng(0)
    v, _ = PoissonSolver(g).solve(ScalarField(g, rng.standard_normal(g.shape)))
    assert np.max(np.abs(v.values[0, :])) == 0.0
    assert np.max(np.abs(v.values[-1, :])) == 0.0
    assert np.max(np.abs(v.values[:, 0])) == 0.0
    assert np.max(np.abs(v.values[:, -1])) == 0.0


def test_manufactured_convergence():
    errs = []
    for n in (33, 65):
        g = GridSpec(n, n)
        x1, x2 = g.nodes()
        exact = np.sin(np.pi * x1) * np.sin(np.pi * x2)
        v, _ = PoissonSolver(g).solve(ScalarField(g, -2.0 * np.pi**2 * exact), tol=1e-12)
        errs.append(np.max(np.abs(v.values - exact)))
    assert 3.5 <= errs[0] / errs[1] <= 4.5


def test_symmetric_data_symmetric_solution():
    g = GridSpec(33, 33)
    u = ScalarField.from_function(g, lambda x1, x2: np.cos(np.pi * x1))
    v, _ = PoissonSolver(g).solve(diff_x1(u), tol=1e-12)
    flipped = v.values[::-1, :]
    assert np.max(np.abs(v.values - flipped)) < 1e-9 * max(1.0, np.max(np.abs(v.values)))


def test_discrete_maximum_principle():
    g = GridSpec(25, 25)
    rng = np.random.default_rng(1)
    rhs = ScalarField(g, -rng.uniform(0.0, 1.0, g.shape))  # rhs <= 0 everywhere
    v, _ = PoissonSolver(g).solve(rhs, tol=1e-12)
    assert np.min(v.values) >= -1e-10 * max(1.0, np.max(np.abs(v.values)))


def test_linearity():
    g = GridSpec(21, 21)
    rng = np.random.default_rng(2)
    rhs = ScalarField(g, rng.standard_normal(g.shape))
    solver = PoissonSolver(g)
    v1, _ = solver.solve(rhs, tol=1e-12)
    v2, _ = solver.solve(ScalarField(g, 3.0 * rhs.values), tol=1e-12)
    assert np.max(np.abs(v2.values - 3.0 * v1.values)) < 1e-9 * max(1.0, np.max(np.abs(v2.values)))


def test_residual_contract():
    g = GridSpec(29, 29)
    rng = np.random.default_rng(3)
    rhs = ScalarField(g, rng.standard_normal(g.shape))
    solver = PoissonSolver(g)
    v, rep = solver.solve(rhs, tol=1e-10)
    # independent recomputation of the residual norm
    b = -rhs.values[1:-1, 1:-1].ravel()
    r = b - solver.matrix @ v.values[1:-1, 1:-1].ravel()
    assert rep.residual_norm == pytest.approx(float(np.linalg.norm(r)), rel=1e-13, abs=1e-300)
    assert rep.residual_norm <= 1e-10 * np.linalg.norm(b)


@pytest.mark.parametrize("tol,transforms", [(1e-10, 1), (1e-15, 2)])
def test_residual_correction_only_on_a_miss(monkeypatch, tol, transforms):
    # the bare sine-transform solve reaches about 3e-15 here: it meets 1e-10 as it is,
    # and only a tighter tolerance pays for the second transform pair
    g = GridSpec(65, 65)
    rhs = ScalarField(g, np.random.default_rng(3).standard_normal(g.shape))
    solver = PoissonSolver(g)
    calls = []
    original = PoissonSolver._apply_inverse

    def counted(self, b):
        calls.append(1)
        return original(self, b)

    monkeypatch.setattr(PoissonSolver, "_apply_inverse", counted)
    v, rep = solver.solve(rhs, tol=tol)
    assert len(calls) == transforms
    assert rep.residual_norm == solver.residual_norm(v, rhs)
    assert rep.residual_norm <= tol * np.linalg.norm(rhs.values[1:-1, 1:-1])


def test_nonconvergence_reported():
    # no double-precision solve reaches 1e-20; the solver itself raises, naming grid, residual and tol
    g = GridSpec(33, 33)
    rhs = ScalarField(g, np.random.default_rng(4).standard_normal(g.shape))
    with pytest.raises(SolverError, match=r"33x33 grid .*residual \S+ > tol 1\.0e-20"):
        PoissonSolver(g).solve(rhs, tol=1e-20)


def test_nan_tolerance_rejected():
    # nan <= 0 is false and residual > nan never holds, so a nan tol must be caught up front
    g = GridSpec(9, 9)
    rhs = ScalarField(g, np.random.default_rng(4).standard_normal(g.shape))
    with pytest.raises(ValueError, match="tol must be positive, got nan"):
        PoissonSolver(g).solve(rhs, tol=float("nan"))


@pytest.mark.parametrize("nx,ny,lx,ly", [(33, 21, 1.0, 0.6), (17, 41, 0.5, 2.0)])
def test_non_square_anisotropic_spacing_matches_sparse_direct(nx, ny, lx, ly):
    g = GridSpec(nx, ny, lx=lx, ly=ly)
    rng = np.random.default_rng(5)
    rhs = ScalarField(g, rng.standard_normal(g.shape))
    solver = PoissonSolver(g)
    v, _ = solver.solve(rhs, tol=1e-12)
    ref = spla.spsolve(solver.matrix.tocsc(), -rhs.values[1:-1, 1:-1].ravel())
    x = v.values[1:-1, 1:-1].ravel()
    assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)


def test_mms_poisson_converges_through_513():
    # the reachable residual grows ~4x per refinement; the study's tolerance must follow it
    from dispersim.mms import poisson_convergence

    rows, slope = poisson_convergence(levels=6)
    assert rows[-1].label == "513x513"
    assert abs(slope - 2.0) <= 0.05


def test_solver_matrix_built_once_per_grid():
    g = GridSpec(17, 9, lx=1.0, ly=0.5)
    A = PoissonSolver(g).matrix
    assert PoissonSolver(g).matrix is A
    assert not A.data.flags.writeable
