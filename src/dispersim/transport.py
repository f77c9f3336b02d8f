"""Implicit transport of the density u coupled to the stream-function Poisson solve, and the run.

One time step solves, by a fixed-point (Picard) iteration mirroring the
coupling of the continuous problem,

    lap(v) = u_x1,  v = 0 on the boundary,
    q = (-v_x2, v_x1),
    (u_new - u_old)/dt = div(D_eps grad u_new) - div(u_new q),

with zero total flux (diffusive co-normal plus advective) through every
boundary face.  The run's configuration, ``RunConfig``, and the rules of
its ``ic`` and ``ic_params`` are in ``config``.  Where each part lives:

- ``initial_condition``, ``initial_state``: the initial field of a preset's
  formula or of a snapshot, and its stream function and tensor.
- ``_face_fluxes_from_stream``: the advective face fluxes, exact line
  integrals of q through each face as differences of vertex-averaged
  stream values.  They telescope to zero around every cell, so constants
  are exact steady states, and the advective part is an M-matrix
  contribution (a discrete maximum principle for a diagonal tensor).
- ``_add_face_family``, ``_csr_layout``, ``_assemble_parabolic``: the
  node-centred finite-volume step matrix, with face-averaged tensor
  entries, the d12 cross term and upwinded advection, filled into nine
  stencil planes.  Every row of its CSR form stores nine entries, four of
  them (at the grid's corners) stored zeros, so the data is the planes
  transposed, with a fix-up of the boundary rows cached per grid shape.
  Every interior face adds equal and opposite
  amounts to its two cells and boundary faces add nothing, so the
  trapezoidal integral of u is conserved to the linear-solver floor.  The
  planes and the data come from ``_assembly_buffers``, once per Picard
  attempt (once per call of a standalone ``parabolic_step``).
- ``parabolic_step``: one transport solve, BiCGSTAB preconditioned by
  ``_cosine_preconditioner``, with an exact sparse LU where it falls
  short.
- ``_picard_attempt``: the Picard passes of one step from one start,
  Anderson-mixed (``_anderson_fit``), to the fixed point or a stall.
- ``picard_coupled_step``: one time step, its start from a
  ``StartMemory`` (``_predicted_start``), the retry from u_n and the
  memory's update.
- ``run``: the trajectory, its diagnostics rows and its snapshots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import lru_cache
from pathlib import Path

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.fft import dctn, idctn

from .coefficients import dispersion_tensor_regularized, mollify, stream_velocity
from .config import RunConfig, _preset_params, serialize_config
from .elliptic import PoissonSolver, SolverError, laplacian_eigenvalues
from .grid import (
    GridSpec,
    ScalarField,
    SymTensorField,
    deriv1,
    diff_x1,
    integrate,
    quad_form,
    read_snapshot,
    write_snapshot,
)


@dataclass
class SimState:
    u: ScalarField
    v: ScalarField  # the stream function of u
    D_eps: SymTensorField  # the regularized tensor of v
    t: float
    step: int


@dataclass
class StartMemory:
    """What the Picard start of the next step keeps of the steps before it.

    ``picard_coupled_step`` updates it in place by reassigning its fields and never mutates the
    tuples or arrays in them, so ``dataclasses.replace(memory)`` is a snapshot that later steps
    leave alone.  A step takes the secant out as it starts (``take_secant``), so that the pair
    dies once the step's first pass has read it, and puts the new one in as it ends: a step that
    raises leaves ``secant`` None.
    """

    # (t, u, v) of up to _PREDICTOR_ORDER earlier accepted steps, the latest first; the initial
    # state (step 0) is never among them
    history: tuple[tuple[float, ScalarField, ScalarField], ...] = ()
    # (f_1 - f_0, G(u_1) - G(u_0)), raveled, from the first two passes of the attempt that gave
    # the latest state: the next predicted attempt's first column of Anderson differences; None
    # when that attempt took one pass or the Anderson depth is 0
    secant: tuple[np.ndarray, np.ndarray] | None = None
    # (dt, u - u*, v - v*) of up to _EXTRAPOLATION_DEPTH + 1 steps of one dt, the latest first: the
    # error of each one's Lagrange start (u*, v*), kept for steps accepted from a full-order
    # predicted start
    errors: tuple[tuple[float, np.ndarray, np.ndarray], ...] = ()

    def take_secant(self) -> tuple[np.ndarray, np.ndarray] | None:
        """The secant, leaving None in its place."""
        secant, self.secant = self.secant, None
        return secant


@dataclass
class StepReport:
    picard_gap_history: list[float]  # max|G(u_k) - u_k| on each Picard pass k, before any Anderson mixing
    # the worst relative residual over the step's passes: about 1e-11 when a pass far from acceptance
    # was solved loosely (see _FAR_RTOL), 1e-13 on the accepted pass
    linear_residual: float
    start: str  # the accepted attempt: "predicted" (from the extrapolation) or "plain" (from u_n)

    @property
    def picard_iterations(self) -> int:
        return len(self.picard_gap_history)

    @property
    def picard_gap(self) -> float:
        return self.picard_gap_history[-1]


@dataclass
class DiagnosticsRow:
    step: int
    t: float
    umax: float
    umin: float
    mass: float
    l2sq: float
    energy_dissip: float
    grad_sup: float
    phi_max: float
    ut_sup: float
    picard_iters: int
    picard_gap: float
    mass_drift: float


DIAGNOSTIC_COLUMNS = tuple(f.name for f in fields(DiagnosticsRow))


@dataclass
class Trajectory:
    states: list[SimState]
    reports: list[StepReport]
    diagnostics: list[DiagnosticsRow]

    @property
    def final(self) -> SimState:
        return self.states[-1]


# ---------------------------------------------------------------------------
# initial conditions


def initial_condition(ic: str, ic_params: str, grid: GridSpec) -> ScalarField:
    """Evaluate a smooth preset, or load a snapshot CSV validated against the grid."""
    preset = _preset_params(ic, ic_params, grid)
    if preset is None:
        return read_snapshot(Path(ic), grid)
    name, p = preset
    x1, x2 = grid.nodes()
    if name == "constant":
        return ScalarField.full(grid, p["value"])
    if name == "gaussian":
        r2 = (x1 - p["cx"]) ** 2 + (x2 - p["cy"]) ** 2
        return ScalarField(grid, p["amplitude"] * np.exp(-r2 / (2.0 * p["width"] * p["width"])))
    if name == "stripe":
        return ScalarField(grid, p["amplitude"] * np.exp(-((x1 - p["cx"]) ** 2) / (2.0 * p["width"] * p["width"])))
    return ScalarField(
        grid, p["amplitude"] * np.cos(p["kx"] * np.pi * x1 / grid.lx) * np.cos(p["ky"] * np.pi * x2 / grid.ly)
    )


# ---------------------------------------------------------------------------
# finite-volume step


def _face_fluxes_from_stream(v: np.ndarray, grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Advective face fluxes as stream-value differences between face endpoints.

    Vertex values are 4-node averages; endpoints on the boundary take the
    exact Dirichlet value 0.  The four fluxes around any cell then sum to
    zero up to rounding, and boundary-normal fluxes vanish identically.
    """
    ny, nx = grid.shape
    vh = np.zeros((ny + 1, nx + 1))  # the ring of boundary vertices keeps the exact value 0
    vh[1:-1, 1:-1] = 0.25 * (v[:-1, :-1] + v[:-1, 1:] + v[1:, :-1] + v[1:, 1:])
    return vh[:-1, 1:-1] - vh[1:, 1:-1], vh[1:-1, 1:] - vh[1:-1, :-1]


# Cross-term weights on the first and last line of nodes along the faces (face length halved,
# one-sided transverse derivative) for the lines r - 1, r, r + 1; the slot of the line beyond the
# edge holds that of the line two in.  Inside they are 0.125, 0 and -0.125.
_EDGE_CROSS = np.array([[0.0625, 0.1875, -0.25], [0.25, -0.1875, -0.0625]]).T[:, :, None]


def _add_face_family(
    values: np.ndarray, dnn: np.ndarray, dnt: np.ndarray, flux: np.ndarray, h_n: float, h_t: float, axis: int
) -> None:
    """Add the couplings across the faces normal to ``axis`` to the stencil planes in ``values``.

    Plane [di + 1, dj + 1] at the start of ``values`` holds each node's matrix value for the
    node at offset (di, dj).  The flux from the node behind a face to the node ahead is
    -L (dnn du/dn + dnt du/dt) + ``flux`` u(upwind), with dnn and dnt averaged over the face,
    du/dt the mean of its nodes' transverse derivatives (one-sided on the first and last line
    along the faces), L = ``h_t`` halved on those lines and ``h_n`` the spacing across.  The
    row of the node behind gains the flux and the row of the node ahead loses it.
    """
    ny, nx = dnn.shape
    step = nx if axis == 0 else 1  # from a node to the node ahead, raveled

    def lines(x: np.ndarray) -> np.ndarray:  # a view indexed [..., line, node along the line]
        return x if axis == 1 else x.swapaxes(-1, -2)

    last = lines(dnn).shape[0] - 1  # lines(x)[..., ::last, :] are the first and the last line
    # face arrays are indexed by the node behind; a node with no node ahead has zeros
    sdnn, sdnt, f = faces = np.empty((3, ny, nx))
    for s, d in ((sdnn, dnn), (sdnt, dnt)):
        s.ravel()[:-step] = d.ravel()[:-step] + d.ravel()[step:]
    f[(slice(None),) * axis + (slice(None, -1),)] = flux
    lines(faces)[..., -1] = 0.0
    # the flux across a face is PQ[0] u(behind) + PQ[1] u(ahead) on its own line, plus C[0] and
    # C[1] times u(behind) + u(ahead) on the lines before and after
    a = np.multiply(sdnn, 0.5 * h_t / h_n, out=sdnn)  # normal diffusion
    lines(a)[::last] *= 0.5
    PQ, C = np.empty((2, 2, ny, nx))
    np.maximum(f, 0.0, out=PQ[0])  # upwind: the outflow part of the flux takes u from behind,
    np.minimum(f, 0.0, out=PQ[1])  # the inflow part from ahead
    PQ[0] += a
    PQ[1] -= a
    np.multiply(sdnt, 0.125, out=C[0])  # the d12 cross term
    np.negative(C[0], out=C[1])
    c = _EDGE_CROSS * lines(sdnt)[::last]
    lines(C)[:, ::last] = c[::2]
    lines(PQ)[:, ::last] += c[1]
    # the nodes ahead see the planes one step on; each line's zero last face lands on the next line
    here, there = (values[s:s + 9 * ny * nx].reshape(3, 3, ny, nx) for s in (0, step))
    if axis == 0:
        here, there = here.swapaxes(0, 1), there.swapaxes(0, 1)
    here[::2, 1:] += C[:, None]
    here[1, 1:] += PQ
    there[::2, :2] -= C[:, None]
    there[1, :2] -= PQ


@lru_cache(maxsize=8)
def _csr_layout(shape: tuple[int, int]) -> tuple[np.ndarray, ...]:
    """The step matrix's ``indices`` and ``indptr``, its gather's fix-up ``dst`` and ``src``, and ``corners``.

    Slot (di, dj) of node (i, j) in the stencil planes holds column (i + di, j + dj); on an axis
    where that is off the grid, the column two nodes in on that axis, i - 2 di or j - 2 dj.  So
    every row stores its nine slots, at nine distinct columns (fixed-width ELLPACK rows, Saad,
    Iterative Methods for Sparse Linear Systems, 2003, 3.4), and the four corner slots off the
    grid on both axes, which no face writes, are stored zeros at the data positions ``corners``.
    The CSR data is the planes transposed to node-major order, then ``data[dst] = data[src]``
    puts the rows of the boundary nodes, whose slot order is not their column order, in column
    order.  ``dst`` and ``src`` are intp and name only the entries that move.  The pattern never
    depends on the values.
    """
    ny, nx = shape
    size = ny * nx
    di, dj, i, j = np.ix_(range(-1, 2), range(-1, 2), range(ny), range(nx))
    ti, tj = i + di, j + dj
    off_i, off_j = (ti < 0) | (ti >= ny), (tj < 0) | (tj >= nx)

    def by_node(x: np.ndarray) -> np.ndarray:  # a (node, slot) table of a plane-shaped x
        return np.broadcast_to(x, (3, 3, ny, nx)).reshape(9, size).T

    columns = by_node(np.where(off_i, i - 2 * di, ti) * nx + np.where(off_j, j - 2 * dj, tj))
    order = np.argsort(columns, axis=1)
    moved = order != np.arange(9)
    indices = np.take_along_axis(columns, order, axis=1).astype(np.int32).ravel()
    indptr = np.arange(0, 9 * size + 1, 9, dtype=np.int32)
    dst, src = np.flatnonzero(moved), (order + 9 * np.arange(size)[:, None])[moved]
    corners = np.flatnonzero(np.take_along_axis(by_node(off_i & off_j), order, axis=1))
    layout = indices, indptr, dst, src, corners
    for arr in layout:
        arr.flags.writeable = False
    return layout


def _assembly_buffers(shape: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """The stencil planes and the CSR data of ``_assemble_parabolic``, for every pass of an attempt to refill.

    The data holds nine entries a node, as many as the planes, which are followed by a row for
    their view one row on.
    """
    ny, nx = shape
    return np.empty(9 * ny * nx + nx), np.empty(9 * ny * nx)


def _assemble_parabolic(
    grid: GridSpec,
    D: SymTensorField,
    fe: np.ndarray,
    fn: np.ndarray,
    dt: float,
    workspace: tuple[np.ndarray, np.ndarray],
) -> tuple[sp.csr_matrix, np.ndarray]:
    """Backward-Euler finite-volume matrix in CSR form; rhs is cell_weights/dt * u_old.

    The cell weights over dt and both face directions fill the stencil planes, which one
    transposed copy and the boundary rows' fix-up of ``_csr_layout`` gather into the CSR data.
    ``workspace`` (from ``_assembly_buffers``) holds the planes and the CSR data to refill, and the
    matrix's data is its second array.
    """
    ny, nx = grid.shape
    size = ny * nx
    indices, indptr, dst, src, _ = _csr_layout(grid.shape)
    w = grid.cell_weights()
    values, data = workspace
    values.fill(0.0)
    values[4 * size:5 * size] = (w / dt).ravel()  # plane [1, 1], the diagonal
    _add_face_family(values, D.d11, D.d12, fe, grid.hx, grid.hy, axis=1)
    _add_face_family(values, D.d22, D.d12, fn, grid.hy, grid.hx, axis=0)
    np.copyto(data.reshape(size, 9), values[:9 * size].reshape(9, size).T)
    data[dst] = data[src]
    return sp.csr_matrix((data, indices, indptr), shape=(size, size)), w


# BiCGSTAB iterations the cosine-preconditioned solve may take before an
# exact LU is cheaper: the cap sits near the cost of one sparse LU and its
# solve, counted in iterations.  A fixed count, not a timing rule, keeps
# reruns byte-identical.
_FAST_ITERATIONS = 60

# The relative residual BiCGSTAB is asked for on every pass that may be
# accepted.  The Picard gap is tested at 1e-10 on fields of order one, so
# 1e-13 leaves three digits to spare; a tighter target only buys extra
# preconditioner solves.  A pass far from acceptance (pass 0 of an attempt,
# or one after a gap above 1e4 picard_tol) asks only for
# min(_FAR_RTOL, lin_tol/10), never below _KRYLOV_RTOL: its result is
# mixed and solved again, and its gap is still far above the solve's error.
# A far result within 100 picard_tol of its start is continued to
# _KRYLOV_RTOL before its gap is tested, so every accepted pass is solved
# to 1e-13 (inexact Newton forcing terms, Eisenstat & Walker, SIAM J. Sci.
# Comput. 17(1), 1996).  That takes about a fifth of the BiCGSTAB
# iterations off the reference and checker runs, with the same passes.
_KRYLOV_RTOL = 1e-13
_FAR_RTOL = 1e-11

# Walker & Ni type-II Anderson mixing depth of the Picard loop: each pass
# after the first mixes its transport result with those of up to this many
# earlier passes.  0 is plain Picard.
_ANDERSON_DEPTH = 3

# Polynomial order in time of each step's Picard start: the Lagrange
# polynomial through the current state and up to this many earlier accepted
# steps (Hairer & Wanner, Solving Ordinary Differential Equations II, 1996,
# IV.8).  4 is quartic: of orders 3, 4 and 5, the one with the fewest
# passes over six reference and checker runs (counts in CHANGES.md).  0
# starts every step from u_n.
_PREDICTOR_ORDER = 4

# Terms of the extrapolated start error: a full-order step adds sum c_i e_i
# to its Lagrange start, over the latest of up to this many recorded start
# errors e_0, e_1, ..., with c the least-squares fit of e_0 by e_1, e_2, ...
# (minimal polynomial extrapolation, Cabay & Jackson, SIAM J. Numer. Anal.
# 13(5), 1976).  The solution is smooth in time, so its start error changes
# slowly from step to step.  3 is the smallest of depths 0-5 within 2 % of
# the best total passes over the nine reference, checker, high-contrast and
# lagged-tensor cases of tools/case_passes.py (counts in CHANGES.md).  0 is
# the polynomial start alone.
_EXTRAPOLATION_DEPTH = 3


def _cosine_preconditioner(grid: GridSpec, diag: np.ndarray, dt: float, c: float) -> spla.LinearOperator:
    """The inverse of the constant-tensor step, weighted by the step matrix's diagonal, in single precision.

    For the tensor c I and zero fluxes the step matrix is diag(w)/dt + c L,
    where diag(w)^-1 L is the 5-point Laplacian with reflecting ends on each
    axis, which DCT-I diagonalizes; its diagonal is w (1/dt + c k), with
    k = 2/hx^2 + 2/hy^2.  Each application multiplies r by
    (1/dt + c k)/``diag``, ``diag`` being the diagonal of the actual step
    matrix, where that inverse divides r by w: so it still inverts the
    constant-tensor step exactly, and elsewhere it weights each node by its
    own diffusion and outflow.  The two transforms and the division run in
    float32, which halves their cost; BiCGSTAB keeps its vectors and
    residuals in float64, and the pass still checks its recomputed float64
    residual against ``lin_tol``.  Each application scales the weighted r by
    the power of two that brings its largest entry into [0.5, 1) and undoes
    it on the float64 result, so every finite residual stays inside float32
    range and the scaling is exact.  A zero input gives zeros; a non-finite
    one gives a non-finite result, on which BiCGSTAB breaks down and the
    pass takes the LU fallback.
    """
    shape = grid.shape
    weight = (1.0 / dt + c * (2.0 / grid.hx**2 + 2.0 / grid.hy**2)) / diag.reshape(shape)
    denom = (1.0 / dt + c * laplacian_eigenvalues(grid, reflecting=True)).astype(np.float32)

    def solve(r: np.ndarray) -> np.ndarray:
        s = r.reshape(shape) * weight
        e = math.frexp(float(np.max(np.abs(s))))[1]  # 0 for zero, nan or inf
        z = dctn(np.ldexp(s, -e, out=s).astype(np.float32), type=1, overwrite_x=True)
        z /= denom
        return np.ldexp(idctn(z, type=1, overwrite_x=True), e, dtype=float).ravel()

    return spla.LinearOperator((diag.size, diag.size), solve, dtype=float)


def parabolic_step(
    u_old: ScalarField,
    D: SymTensorField,
    stream: ScalarField,
    dt: float,
    lin_tol: float = 1e-10,
    *,
    x0: ScalarField | None = None,
    workspace: tuple[np.ndarray, np.ndarray] | None = None,
    loose_beyond: float | None = None,
) -> tuple[ScalarField, float]:
    """One backward-Euler step in conservative flux form.

    ``stream`` is the stream function whose rotated gradient is the
    velocity; advective face fluxes are its differences between face
    endpoints, so constants are exact steady states.  ``workspace`` is
    passed on to ``_assemble_parabolic``; without it the call assembles
    into a fresh pair of buffers.

    One BiCGSTAB call, started from ``x0`` (default ``u_old``), is
    preconditioned by ``_cosine_preconditioner`` on the matrix's diagonal
    and takes at most ``_FAST_ITERATIONS`` iterations.  It is asked for a
    relative residual of ``_KRYLOV_RTOL``, or, when ``loose_beyond`` is
    given, of max(_KRYLOV_RTOL, min(_FAR_RTOL, lin_tol/10)); a loose result
    within ``loose_beyond`` of the start (max norm) is continued by a
    second call from that result, with the same matrix and preconditioner,
    to ``_KRYLOV_RTOL``.  If the last call stops short of its own target
    (the cap or a breakdown) or its recomputed relative residual is above
    ``lin_tol`` or not finite, the matrix is factored by ``splu`` (on a CSC
    copy) and solved directly with the factor.  Then a failed
    factorization, a non-finite result or a relative residual above
    ``lin_tol`` raises ``SolverError``.

    Returns the new field and the relative residual of the linear solve.
    """
    if not lin_tol > 0:
        raise ValueError(f"lin_tol must be positive, got {lin_tol}")
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    grid = u_old.grid
    fe, fn = _face_fluxes_from_stream(stream.values, grid)
    workspace = _assembly_buffers(grid.shape) if workspace is None else workspace
    A, w = _assemble_parabolic(grid, D, fe, fn, dt, workspace)
    b = (w / dt).ravel() * u_old.values.ravel()
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return ScalarField(grid, np.zeros(grid.shape)), 0.0
    start = (u_old if x0 is None else x0).values.ravel()

    # the centre stencil plane holds A's diagonal, which A.diagonal() would extract from the CSR data
    diag = workspace[0][4 * w.size:5 * w.size]
    M = _cosine_preconditioner(grid, diag, dt, float(np.mean(0.5 * (D.d11 + D.d22))))
    rtol = _KRYLOV_RTOL if loose_beyond is None else max(_KRYLOV_RTOL, min(_FAR_RTOL, lin_tol / 10))
    x, info = spla.bicgstab(A, b, x0=start, rtol=rtol, atol=0.0, maxiter=_FAST_ITERATIONS, M=M)
    if info == 0 and rtol > _KRYLOV_RTOL and np.max(np.abs(x - start)) <= loose_beyond:
        x, info = spla.bicgstab(A, b, x0=x, rtol=_KRYLOV_RTOL, atol=0.0, maxiter=_FAST_ITERATIONS, M=M)
    rel = float(np.linalg.norm(b - A @ x)) / bnorm
    if info != 0 or not rel <= lin_tol:  # capped, broken down, a miss, or nan
        # the factor leaves out the four stored corner zeros, which would change its ordering
        corners = _csr_layout(grid.shape)[4]
        B = sp.csr_matrix(
            (np.delete(A.data, corners), np.delete(A.indices, corners), A.indptr - np.searchsorted(corners, A.indptr)),
            shape=A.shape,
        )
        try:
            lu = spla.splu(B.tocsc(), permc_spec="MMD_AT_PLUS_A")
        except RuntimeError as exc:
            raise SolverError(f"LU factorization failed: {exc}") from exc
        x = lu.solve(b)
        if not np.all(np.isfinite(x)):
            raise SolverError("transport solve produced non-finite values")
        rel = float(np.linalg.norm(b - A @ x)) / bnorm
        if rel > lin_tol:
            raise SolverError(f"transport linear solve stalled at relative residual {rel:.3e} > {lin_tol:.1e}")
    return ScalarField(grid, x.reshape(grid.shape)), rel


# ---------------------------------------------------------------------------
# coupled stepping


def _dispersion_of(v: ScalarField, cfg: RunConfig) -> SymTensorField:
    """The regularized tensor of the mollified velocity of the stream function ``v``."""
    return dispersion_tensor_regularized(mollify(stream_velocity(v), cfg.reg.moll_radius), cfg.phys, cfg.reg)


def _coupled_fields(u: ScalarField, cfg: RunConfig) -> tuple[ScalarField, SymTensorField]:
    v, _ = PoissonSolver(cfg.grid).solve(diff_x1(u), tol=cfg.lin_tol)
    return v, _dispersion_of(v, cfg)


def initial_state(cfg: RunConfig) -> SimState:
    u0 = initial_condition(cfg.ic, cfg.ic_params, cfg.grid)
    v, D_eps = _coupled_fields(u0, cfg)
    return SimState(u0, v, D_eps, t=0.0, step=0)


def _lagrange_weights(times: list[float], t: float) -> list[float]:
    """Weights w_i with sum_i w_i p(t_i) = p(t) for every polynomial p of degree below len(times)."""
    return [math.prod((t - tj) / (ti - tj) for j, tj in enumerate(times) if j != i) for i, ti in enumerate(times)]


def _lagrange_start(state: SimState, memory: StartMemory, t: float) -> tuple[np.ndarray, np.ndarray]:
    """u* and v*: the polynomials in time through the state and the memory's history, at time ``t``."""
    points = ((state.t, state.u, state.v),) + memory.history[:_PREDICTOR_ORDER]
    weights = _lagrange_weights([p[0] for p in points], t)
    return tuple(sum(w * p[i].values for w, p in zip(weights, points)) for i in (1, 2))


def _predicted_start(
    state: SimState, memory: StartMemory, t: float, cfg: RunConfig
) -> tuple[ScalarField, ScalarField, SymTensorField]:
    """u, v and the tensor at time ``t``: the Lagrange start plus the extrapolated start error.

    With k >= 2 errors in ``memory.errors``, (u*, v*) of ``_lagrange_start`` gains
    sum_{i<m} c_i (e_i, ev_i), m = min(k - 1, _EXTRAPOLATION_DEPTH), where c is the least-squares
    fit of e_0 by e_1, ..., e_m (``_anderson_fit``); a fit that fails or is not finite leaves
    (u*, v*).  lap(v) = u_x1 with v = 0 on the boundary is linear and its sine-transform solve is
    exact to rounding, so these combinations of stored stream functions and their errors are the
    stream function of the combined density, and no Poisson solve is made.
    """
    u, v = _lagrange_start(state, memory, t)
    errors = memory.errors[:_EXTRAPOLATION_DEPTH + 1]
    if len(errors) >= 2:
        try:
            c = _anderson_fit(np.array([e[1].ravel() for e in errors[1:]]), errors[0][1].ravel())
        except np.linalg.LinAlgError:
            c = None
        if c is not None and np.all(np.isfinite(c)):
            for c_i, (_, e, ev) in zip(c, errors):
                u += c_i * e
                v += c_i * ev
    v = ScalarField(cfg.grid, v)
    return ScalarField(cfg.grid, u), v, _dispersion_of(v, cfg)


def _anderson_fit(window: np.ndarray, f: np.ndarray) -> np.ndarray:
    """The least-squares gamma of window^T gamma = f, from its cols x cols normal equations.

    The Gram form of the Anderson fit (Pulay, Chem. Phys. Lett. 73(2), 1980) costs products with
    the window instead of an SVD of its transpose: 0.10 against 0.35 ms for 3 rows at n = 129.
    Each row is first scaled by the power of two that brings its largest entry into [0.5, 1),
    which is exact and keeps the Gram matrix in float64 range; gamma is scaled back.  A zero row
    gets the coefficient 0, as in the minimum-norm fit; a non-finite one gives a non-finite gamma
    or ``LinAlgError``.
    """
    e = np.frexp(np.max(np.abs(window), axis=1))[1]  # 0 for zero, nan or inf
    scaled = np.ldexp(window, -e[:, None])
    # one matrix-vector product per row: OpenBLAS takes 1.7x as long for scaled @ scaled.T
    gram = np.array([scaled @ row for row in scaled])
    return np.ldexp(np.linalg.lstsq(gram, scaled @ f, rcond=None)[0], -e)


def _picard_attempt(
    u_n: ScalarField, start: tuple[ScalarField, ScalarField, SymTensorField],
    secant: tuple[np.ndarray, np.ndarray] | None, cfg: RunConfig, dt: float, report: StepReport,
) -> tuple[ScalarField, ScalarField, SymTensorField, tuple[np.ndarray, np.ndarray] | None]:
    """Picard passes of one step from ``start`` = (u_0, v_0, tensor); returns (u, v, D_eps, secant).

    Pass k re-solves the parabolic step from ``u_n`` with the coefficients
    of the iterate u_k, which gives G(u_k); the pass's gap is the max-norm
    of f_k = G(u_k) - u_k.  Once the gap drops below picard_tol, G(u_k) is
    accepted, with v and the tensor refreshed from it, so its elliptic
    residual is below lin_tol.  Otherwise the next iterate is the Walker &
    Ni type-II Anderson mix (SIAM J. Numer. Anal. 49(4), 2011) with mixing
    1: G(u_k) - dG gamma, where gamma is the least-squares fit of f_k by the
    window dF of the last ``_ANDERSON_DEPTH`` differences of f, and dG those
    of G.  Pass 0 has no difference of its own: with ``secant`` (sdF, sdG)
    the window opens with that one column, so pass 0 is the same mix with
    gamma the fit of f_0 by sdF (0 for a zero sdF), and pass 1's own
    difference overwrites it; without it pass 0 takes G(u_0) itself.  Every
    pass at depth 0 takes G(u_k): plain Picard.  The returned secant is a
    copy of the window's first row as pass 1 wrote it, None after one pass
    or at depth 0.

    Each pass's transport solve (see ``parabolic_step``) starts from u_k
    and refills one assembly workspace, allocated with dF and dG once per
    attempt.  A pass far from acceptance, pass 0 or one whose previous gap
    exceeds 1e4 picard_tol, is solved to the loose target of ``_FAR_RTOL``
    and continued to ``_KRYLOV_RTOL`` if its result lies within 100
    picard_tol of u_k; every other pass is solved to ``_KRYLOV_RTOL``, so a
    pass whose gap can pass picard_tol is always solved tight.

    Each pass appends its gap to ``report.picard_gap_history`` and raises
    ``report.linear_residual`` to its relative residual.  ``SolverError``
    comes from a solve, from a least-squares fit that fails or a mix that is
    not finite, or from a stall: no accepted pass in ``cfg.picard_max``.
    The passes made stay in the report.
    """
    u_k, v_k, D_eps_k = start
    depth = _ANDERSON_DEPTH
    # rows (k - 1) % depth of dF and dG hold f_k - f_{k-1} and G(u_k) - G(u_{k-1})
    dF = np.empty((depth, u_n.values.size))
    dG = np.empty_like(dF)
    workspace = _assembly_buffers(cfg.grid.shape)
    pair, cols = None, 0
    if depth and secant is not None:  # the window's one column on pass 0; pass 1 overwrites it
        dF[0], dG[0] = secant
        cols = 1
    del start, secant  # the start dies as pass 0 replaces its fields, the secant lives on in the window
    for k in range(cfg.picard_max):
        far = k == 0 or gap > 1e4 * cfg.picard_tol  # see _FAR_RTOL
        g_k, rel = parabolic_step(
            u_n, D_eps_k, v_k, dt, lin_tol=cfg.lin_tol, x0=u_k, workspace=workspace,
            loose_beyond=100.0 * cfg.picard_tol if far else None,
        )
        report.linear_residual = max(report.linear_residual, rel)
        g, f = g_k.values.ravel(), (g_k.values - u_k.values).ravel()
        gap = float(np.max(np.abs(f)))
        report.picard_gap_history.append(gap)
        if k and depth:
            dF[(k - 1) % depth], dG[(k - 1) % depth] = f - f_prev, g - g_prev
            cols = min(k, depth)
            if k == 1:  # pass depth + 1 overwrites row 0
                pair = (dF[0].copy(), dG[0].copy())
        u_k = g_k
        if cols and gap > cfg.picard_tol:
            try:
                gamma = _anderson_fit(dF[:cols], f)
            except np.linalg.LinAlgError as exc:
                raise SolverError(f"Anderson mixing failed on pass {k + 1}: {exc}") from exc
            mixed = g - gamma @ dG[:cols]
            if not np.all(np.isfinite(mixed)):
                raise SolverError(f"Anderson mixing produced non-finite values on pass {k + 1}")
            u_k = ScalarField(cfg.grid, mixed.reshape(cfg.grid.shape))
        f_prev, g_prev = f, g
        v_k, D_eps_k = _coupled_fields(u_k, cfg)
        if gap <= cfg.picard_tol:
            return u_k, v_k, D_eps_k, pair
    raise SolverError(f"fixed-point iteration stalled after {cfg.picard_max} passes, last gap {gap:.3e}")


def picard_coupled_step(
    state: SimState, cfg: RunConfig, dt: float | None = None, *, memory: StartMemory | None = None
) -> tuple[SimState, StepReport]:
    """Advance one time step by the Picard attempts of ``_picard_attempt``.

    The start comes from ``memory``, a ``StartMemory`` of the earlier
    steps; without one the step uses a fresh, empty memory.  With an
    empty history the step makes one plain attempt, from u_0 = u_n with
    the state's v and tensor as they are and no secant.  Otherwise it
    first makes a predicted attempt: u_0 and v_0 are the Lagrange
    polynomials in time through the state and the memory's history,
    evaluated at the new time (linear, quadratic, and so on as the
    history fills, up to ``_PREDICTOR_ORDER``), plus the extrapolation of
    the memory's ``errors`` once it holds two, and the tensor is built
    from v_0 without a Poisson solve (see ``_predicted_start``).  Its
    window opens with the memory's ``secant``, the pair (f_1 - f_0,
    G(u_1) - G(u_0)) of the previous step's first two passes: that step's
    start was wrong along much the same direction, so the first mix can
    remove much of this one's error in one pass.  If the predicted
    attempt raises ``SolverError``, the step is retried once with the
    plain attempt.  The report's gaps then hold the passes of both
    attempts and its ``linear_residual`` is the worst of them; its
    ``start`` names the accepted attempt.  A plain attempt that fails
    raises its ``SolverError``.

    The memory's secant leaves it as the step starts: the predicted
    attempt takes it and keeps neither it nor its start past pass 0, and
    a step without one drops it, so a step that raises leaves
    ``memory.secant`` None.  A step that returns updates the memory in
    place, reassigning each field and mutating no tuple or array in it.
    Its history becomes the given state's (t, u, v), unless that is the
    initial state (step 0), followed by the earlier history, cut to
    ``_PREDICTOR_ORDER`` entries; its secant the accepted attempt's.
    Its errors become (dt, u - u*, v - v*), with (u*, v*) the step's
    Lagrange start from the history before this update, followed by the
    earlier errors, cut to ``_EXTRAPOLATION_DEPTH`` + 1 entries, if the
    step was accepted from a predicted start at full order
    (``_PREDICTOR_ORDER`` history entries); otherwise they are emptied.
    A dt other than that of the memory's errors neither uses nor extends
    them, and empties them as the step starts.  The returned state holds
    u, v, the tensor, t and the step number alone.
    """
    dt = cfg.dt if dt is None else dt
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    u_n = state.u
    memory = StartMemory() if memory is None else memory
    same_dt = not memory.errors or memory.errors[0][0] == dt
    memory.errors = memory.errors if same_dt else ()  # the ring holds the start errors of steps of one dt
    report = StepReport([], 0.0, "plain")
    if memory.history[:_PREDICTOR_ORDER]:
        try:
            # no name here holds the start or the secant, so both die in the attempt after pass 0
            accepted = _picard_attempt(
                u_n, _predicted_start(state, memory, state.t + dt, cfg), memory.take_secant(), cfg, dt, report
            )
            report.start = "predicted"
        except SolverError:
            pass  # its passes stay in the report
    memory.secant = None  # a step without a predicted attempt drops it unread
    if report.start == "plain":
        accepted = _picard_attempt(u_n, (u_n, state.v, state.D_eps), None, cfg, dt, report)
    u, v, D_eps, secant = accepted
    errors = ()
    if _EXTRAPOLATION_DEPTH and same_dt and report.start == "predicted" and len(memory.history) >= _PREDICTOR_ORDER:
        u_star, v_star = _lagrange_start(state, memory, state.t + dt)
        errors = ((dt, u.values - u_star, v.values - v_star),) + memory.errors[:_EXTRAPOLATION_DEPTH]
    # the initial condition is no step of the scheme, and a polynomial through it carries its
    # initial layer, so it never enters the history
    latest = ((state.t, u_n, state.v),) if state.step else ()
    memory.history, memory.secant, memory.errors = (latest + memory.history)[:_PREDICTOR_ORDER], secant, errors
    return SimState(u, v, D_eps, t=state.t + dt, step=state.step + 1), report


# ---------------------------------------------------------------------------
# trajectories and diagnostics


def _diag_row(state: SimState, report: StepReport | None, prev_u: ScalarField | None,
              dt: float, dissip_before: float, mass0: float, abs_mass0: float) -> DiagnosticsRow:
    """The diagnostics of ``state``, with phi = D_eps grad u . grad u at the nodes.

    A step's row (``prev_u`` given) adds dt times the integral of phi to
    the accumulated dissipation ``dissip_before``.  ``mass_drift`` is the
    change of the integral of u from ``mass0`` relative to ``abs_mass0``,
    the integral of |u_0|: the initial mass for a nonnegative u_0, and
    still the size of the data for a zero-mean one.
    """
    u = state.u
    g1 = deriv1(u.values, u.grid.hx, axis=1)
    g2 = deriv1(u.values, u.grid.hy, axis=0)
    phi = quad_form(state.D_eps.d11, state.D_eps.d12, state.D_eps.d22, g1, g2)
    mass = integrate(u)
    ut_sup = 0.0
    energy_dissip = dissip_before
    if prev_u is not None:
        ut_sup = float(np.max(np.abs(u.values - prev_u.values))) / dt
        energy_dissip += dt * integrate(ScalarField(u.grid, phi))
    return DiagnosticsRow(
        step=state.step,
        t=state.t,
        umax=float(np.max(u.values)),
        umin=float(np.min(u.values)),
        mass=mass,
        l2sq=integrate(ScalarField(u.grid, u.values**2)),
        energy_dissip=energy_dissip,
        grad_sup=float(np.max(np.hypot(g1, g2))),
        phi_max=float(np.max(phi)),
        ut_sup=ut_sup,
        picard_iters=report.picard_iterations if report else 0,
        picard_gap=report.picard_gap if report else 0.0,
        mass_drift=(mass - mass0) / max(abs_mass0, 1e-300),
    )


def _format_row(row: DiagnosticsRow) -> str:
    """One diagnostics.csv line: integer columns as is, the rest with 17 significant digits."""
    vals = (getattr(row, name) for name in DIAGNOSTIC_COLUMNS)
    return ",".join(str(v) if isinstance(v, int) else format(v, ".17g") for v in vals)


def run(cfg: RunConfig, outdir: str | Path | None = None) -> Trajectory:
    """March from the initial condition to t_end; optionally persist artifacts.

    The run directory receives diagnostics.csv (one row per step, written
    incrementally so aborted runs keep their partial history), snapshot
    CSVs of u and v at step 0, every ``output_every`` steps (0 disables
    intermediate snapshots) and the final step, plus the resolved
    configuration.  Identical configurations produce bit-identical
    artifacts for the same BLAS thread setting.
    """
    target = Path(outdir) if outdir else (Path(cfg.outdir) if cfg.outdir else None)
    state, memory = initial_state(cfg), StartMemory()
    mass0 = integrate(state.u)
    abs_mass0 = integrate(ScalarField(cfg.grid, np.abs(state.u.values)))

    # a whole number of dt steps when t_end is one to 1e-9; otherwise the last step is shortened
    n_steps, last_dt = round(cfg.t_end / cfg.dt), cfg.dt
    if abs(n_steps * cfg.dt - cfg.t_end) > 1e-9 * cfg.t_end:
        n_steps = int(math.ceil(cfg.t_end / cfg.dt))
        last_dt = cfg.t_end - (n_steps - 1) * cfg.dt

    diag_file = None
    if target:
        target.mkdir(parents=True, exist_ok=True)
        (target / "resolved.cfg").write_text(serialize_config(cfg))
        diag_file = open(target / "diagnostics.csv", "w")
        diag_file.write(",".join(DIAGNOSTIC_COLUMNS) + "\n")

    def snap(st: SimState):
        if target:
            write_snapshot(st.u, target / f"u_{st.step:06d}.csv")
            write_snapshot(st.v, target / f"v_{st.step:06d}.csv")

    rows = [_diag_row(state, None, None, cfg.dt, 0.0, mass0, abs_mass0)]
    states = [state]
    reports: list[StepReport] = []
    try:
        if diag_file:
            diag_file.write(_format_row(rows[0]) + "\n")
            diag_file.flush()
        snap(state)
        for k in range(n_steps):
            is_last = k == n_steps - 1
            dt = last_dt if is_last else cfg.dt
            prev_u = state.u
            state, report = picard_coupled_step(state, cfg, dt=dt, memory=memory)
            row = _diag_row(state, report, prev_u, dt, rows[-1].energy_dissip, mass0, abs_mass0)
            rows.append(row)
            reports.append(report)
            if diag_file:
                diag_file.write(_format_row(row) + "\n")
                diag_file.flush()
            if is_last or (cfg.output_every > 0 and state.step % cfg.output_every == 0):
                snap(state)
                states.append(state)
    finally:
        if diag_file:
            diag_file.close()
    return Trajectory(states, reports, rows)
