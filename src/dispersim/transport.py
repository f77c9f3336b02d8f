"""Implicit transport of the density u coupled to the stream-function Poisson solve.

One time step solves, by a fixed-point (Picard) iteration mirroring the
coupling of the continuous problem,

    lap(v) = u_x1,  v = 0 on the boundary,
    q = (-v_x2, v_x1),
    (u_new - u_old)/dt = div(D_eps grad u_new) - div(u_new q),

with zero total flux (diffusive co-normal plus advective) through every
boundary face.  The spatial scheme is a node-centered finite-volume
discretization: cells are the trapezoidal-weight boxes around each node,
diffusive fluxes use face-averaged tensor entries including the d12
cross term, and advective fluxes are upwinded by the sign of the face
flux.  Both face directions are assembled by one routine, the second
call seeing the transposed arrays.

Advective face fluxes are exact line integrals of q through the face,
computed as differences of vertex-averaged stream values.  Those
fluxes telescope to zero around every cell, so constants are exact
steady states and the advective matrix is an M-matrix contribution; with
a diagonal tensor this makes the step satisfy a discrete maximum
principle.  Mass conservation is structural: every interior face
contributes equal and opposite amounts to its two cells and boundary
faces contribute nothing, so the cell-weighted sum of u (the trapezoidal
integral) is conserved to the linear-solver floor.

The step matrix's pattern is fixed per grid shape: the 9-point stencil
plus the couplings two nodes in of the one-sided closures on the edge
lines (149,765 nonzeros at n = 129, 148,225 for 9 points alone).  The
upwind term puts the outflow part of a face flux in the column behind the
face and the inflow part in the column ahead, so no position depends on
a flux sign.  Each pass fills nine stencil planes with array slices, one
face routine call per direction, and takes the CSR data from them
through one index array cached per shape.

Each Picard pass makes one sine-transform solve for the stream function
(see ``elliptic``), one coefficient build and one BiCGSTAB call for the
transport step, asked for a relative residual of 1e-13
(``_KRYLOV_RTOL``) and preconditioned by the inverse of the step matrix
for the constant tensor c I (c the mean of (d11 + d22)/2) without
advection: two type-I cosine transforms and a division (Concus & Golub,
SIAM J. Numer. Anal. 10(6), 1973), run in single precision after a
power-of-two range scaling, inside the float64 BiCGSTAB (Carson & Higham,
SIAM J. Sci. Comput. 40(2), 2018).  A pass whose call stops short of
1e-13 within ``_FAST_ITERATIONS`` iterations (strong tensor contrast) or
misses ``lin_tol`` factors a CSC copy of its own matrix exactly (SuperLU,
minimum-degree ordering on A^T A + A) and solves with the factor
directly.  The true residual is recomputed in float64 and checked
against ``lin_tol``, so the single-precision preconditioner never
certifies a pass and solver error stays far below the conservation
diagnostics.

Passes after the first are Anderson-mixed (Walker & Ni type II, depth
``_ANDERSON_DEPTH``): the next iterate combines the latest transport
result with those of up to three earlier passes, which takes fewer
passes than plain Picard and finishes convection-dominated steps where
plain Picard stalls.  Each solve raises ``SolverError`` on its own
failure; the Picard loop raises it only for a stalled fixed point or a
mix that is not finite.
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

from .coefficients import (
    PhysParams,
    RegParams,
    dispersion_tensor_regularized,
    mollify,
    stream_velocity,
)
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
    v: ScalarField
    D_eps: SymTensorField
    t: float
    step: int


@dataclass
class StepReport:
    picard_gap_history: list[float]  # max|G(u_k) - u_k| on each Picard pass k, before any Anderson mixing
    linear_residual: float  # the worst relative residual over the step's passes

    @property
    def picard_iterations(self) -> int:
        return len(self.picard_gap_history)

    @property
    def picard_gap(self) -> float:
        return self.picard_gap_history[-1]


@dataclass
class RunConfig:
    grid: GridSpec
    phys: PhysParams
    reg: RegParams
    dt: float
    t_end: float
    picard_tol: float = 1e-10
    picard_max: int = 30
    lin_tol: float = 1e-10
    ic: str = "gaussian"
    ic_params: str = ""
    output_every: int = 0
    outdir: str = ""

    def __post_init__(self):
        for name in ("dt", "t_end", "picard_tol", "lin_tol"):
            if not (math.isfinite(getattr(self, name)) and getattr(self, name) > 0):
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")
        if self.t_end < self.dt:
            raise ValueError(f"t_end must be at least dt, got t_end={self.t_end}, dt={self.dt}")
        if self.picard_max < 1:
            raise ValueError(f"picard_max must be at least 1, got {self.picard_max}")
        if self.output_every < 0:
            raise ValueError(f"output_every must be nonnegative, got {self.output_every}")
        _preset_params(self.ic, self.ic_params, self.grid)
        # the mollifier radius is bounded by the domain, which RegParams does not know
        if self.reg.moll_radius > 0.5 * min(self.grid.lx, self.grid.ly):
            raise ValueError(f"moll_radius {self.reg.moll_radius} exceeds half the domain size")


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
    config: RunConfig
    states: list[SimState]
    reports: list[StepReport]
    diagnostics: list[DiagnosticsRow]

    @property
    def final(self) -> SimState:
        return self.states[-1]


# ---------------------------------------------------------------------------
# initial conditions


def _parse_params(text: str) -> dict[str, float]:
    """The name=value pairs of ``ic_params``; each message names ``ic_params`` first, which locates its line."""
    out: dict[str, float] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(f"ic_params: malformed parameter {part!r}, expected name=value")
        key, val = part.split("=", 1)
        key = key.strip()
        if key in out:
            raise ValueError(f"ic_params: duplicate parameter {key!r}")
        try:
            out[key] = float(val)
        except ValueError as exc:
            raise ValueError(f"ic_params: parameter {key!r} has non-numeric value {val!r}") from exc
        if not math.isfinite(out[key]):
            raise ValueError(f"ic_params: parameter {key!r} must be finite, got {val!r}")
    return out


_PRESET_ALIASES = {"gaussian-bump": "gaussian", "cosine-checker": "checker"}


def _preset_params(ic: str, ic_params: str, grid: GridSpec) -> tuple[str, dict[str, float]] | None:
    """The preset that ``ic`` names and its parameters, defaults filled in; None for a snapshot path.

    Names the preset does not take, a width that is not positive, and any
    parameter given with a snapshot are errors; like those of
    ``_parse_params``, each message names ``ic_params`` first.  An ``ic``
    that is neither a preset nor an existing file is an error naming ``ic``.
    """
    params = _parse_params(ic_params)
    name = ic.strip().lower()
    name = _PRESET_ALIASES.get(name, name)
    defaults = {
        "constant": {"value": 1.0},
        "gaussian": {"amplitude": 1.0, "cx": grid.lx / 2.0, "cy": grid.ly / 2.0, "width": 0.1},
        "stripe": {"amplitude": 1.0, "cx": grid.lx / 2.0, "width": 0.1},
        "checker": {"amplitude": 1.0, "kx": 1.0, "ky": 1.0},
    }.get(name)
    if defaults is None:
        if not Path(ic).is_file():
            raise ValueError(f"ic: unknown ic preset or missing file: {ic!r}")
        if params:
            raise ValueError(f"ic_params: a snapshot initial condition takes no parameters, got {sorted(params)}")
        return None
    unknown = set(params) - set(defaults)
    if unknown:
        raise ValueError(f"ic_params: unknown ic parameters for {name!r}: {sorted(unknown)}")
    merged = {**defaults, **params}
    if "width" in merged and not merged["width"] > 0:
        raise ValueError(f"ic_params: width must be positive, got {merged['width']}")
    return name, merged


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
        return ScalarField(grid, p["amplitude"] * np.exp(-r2 / (2.0 * p["width"] ** 2)))
    if name == "stripe":
        return ScalarField(grid, p["amplitude"] * np.exp(-((x1 - p["cx"]) ** 2) / (2.0 * p["width"] ** 2)))
    return ScalarField(
        grid, p["amplitude"] * np.cos(p["kx"] * np.pi * x1 / grid.lx) * np.cos(p["ky"] * np.pi * x2 / grid.ly)
    )


# ---------------------------------------------------------------------------
# finite-volume step


def _face_fluxes_from_stream(v: np.ndarray, grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Advective face fluxes as stream-value differences between face endpoints.

    Vertex values are 4-node averages; endpoints on the boundary use the
    exact Dirichlet value 0.  The four fluxes around any cell then sum to
    zero up to rounding, and boundary-normal fluxes vanish identically.
    """
    vh = 0.25 * (v[:-1, :-1] + v[:-1, 1:] + v[1:, :-1] + v[1:, 1:])
    ny, nx = grid.shape
    fe = np.empty((ny, nx - 1))
    fe[1:-1, :] = vh[:-1, :] - vh[1:, :]
    fe[0, :] = -vh[0, :]
    fe[-1, :] = vh[-1, :]
    fn = np.empty((ny - 1, nx))
    fn[:, 1:-1] = vh[:, 1:] - vh[:, :-1]
    fn[:, 0] = vh[:, 0]
    fn[:, -1] = -vh[:, -1]
    return fe, fn


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
def _csr_layout(shape: tuple[int, int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The step matrix's ``perm``, ``indices`` and ``indptr``: its CSR data is ``values[perm]``.

    Slot (di, dj) of node (i, j) in the stencil planes holds column (i + di, j + dj); a slot off
    the grid on one axis holds the column two nodes in on that axis, (i - 2 di, j + dj) or
    (i + di, j - 2 dj), and one off on both is unused.  The pattern never depends on the values.
    """
    ny, nx = shape
    size = ny * nx
    di, dj, i, j = np.ix_(range(-1, 2), range(-1, 2), range(ny), range(nx))
    ti, tj = i + di, j + dj
    off_i, off_j = (ti < 0) | (ti >= ny), (tj < 0) | (tj >= nx)
    keys = (i * nx + j) * size + np.where(off_i, i - 2 * di, ti) * nx + np.where(off_j, j - 2 * dj, tj)
    perm = np.flatnonzero(~(off_i & off_j))
    keys = keys.ravel()[perm]
    order = np.argsort(keys)
    perm, keys = perm[order], keys[order]
    indices = (keys % size).astype(np.int32)
    indptr = np.searchsorted(keys, np.arange(size + 1) * size).astype(np.int32)
    for arr in (perm, indices, indptr):
        arr.flags.writeable = False
    return perm, indices, indptr


def _assemble_parabolic(
    grid: GridSpec, D: SymTensorField, fe: np.ndarray, fn: np.ndarray, dt: float
) -> tuple[sp.csr_matrix, np.ndarray]:
    """Backward-Euler finite-volume matrix in CSR form; rhs is cell_weights/dt * u_old.

    The cell weights over dt and both face directions fill the stencil planes; see ``_csr_layout``.
    """
    ny, nx = grid.shape
    size = ny * nx
    perm, indices, indptr = _csr_layout(grid.shape)
    w = grid.cell_weights()
    values = np.zeros(9 * size + nx)  # the planes, then a row for their view one row on
    values[4 * size:5 * size] = (w / dt).ravel()  # plane [1, 1], the diagonal
    _add_face_family(values, D.d11, D.d12, fe, grid.hx, grid.hy, axis=1)
    _add_face_family(values, D.d22, D.d12, fn, grid.hy, grid.hx, axis=0)
    # a fancy-index gather, not values.take(perm): take allocates a hidden second buffer the size of
    # its result, which raised the call's traced peak from 2.53 to 3.73 MB at n = 129
    return sp.csr_matrix((values[perm], indices, indptr), shape=(size, size)), w


# BiCGSTAB iterations the cosine-preconditioned solve may take before an
# exact LU is cheaper.  On a 2-core x86-64 host with one BLAS thread, one
# splu (and its solve) of a first-step reference matrix costs about 25-29,
# 48-50 and 78-83 iterations with the single-precision preconditioner at
# n = 65, 129 and 257, and the lagged-tensor runs
# reference_config(n, a=4, b=12, m=0.2), dt = 4/(n-1), need at most 43-44.
# A fixed count, not a timing rule, keeps reruns byte-identical.
_FAST_ITERATIONS = 60

# The relative residual each BiCGSTAB call is asked for.  The Picard gap
# is tested at 1e-10 on fields of order one, so 1e-13 leaves three digits
# to spare; a tighter target only buys extra preconditioner solves.
_KRYLOV_RTOL = 1e-13

# Walker & Ni type-II Anderson mixing depth of the Picard loop: each pass
# after the first mixes its transport result with those of up to this many
# earlier passes.  0 is plain Picard.
_ANDERSON_DEPTH = 3


def _cosine_preconditioner(grid: GridSpec, w: np.ndarray, dt: float, c: float) -> spla.LinearOperator:
    """The inverse of the step matrix for the tensor c I and zero fluxes, in single precision.

    That matrix is diag(w)/dt + c L, and diag(w)^-1 L is the 5-point
    Laplacian with reflecting ends on each axis, which DCT-I diagonalizes.
    The two transforms and the division run in float32, which halves their
    cost; BiCGSTAB keeps its vectors and residuals in float64, and the pass
    still checks its recomputed float64 residual against ``lin_tol``.  Each
    application scales r/w by the power of two that brings its largest entry
    into [0.5, 1) and undoes it on the float64 result, so every finite
    residual stays inside float32 range and the scaling is exact.  A zero
    input gives zeros; a non-finite one gives a non-finite result, on which
    BiCGSTAB breaks down and the pass takes the LU fallback.
    """
    shape = grid.shape
    inv_w = 1.0 / w
    denom = (1.0 / dt + c * laplacian_eigenvalues(grid, reflecting=True)).astype(np.float32)

    def solve(r: np.ndarray) -> np.ndarray:
        s = r.reshape(shape) * inv_w
        e = math.frexp(float(np.max(np.abs(s))))[1]  # 0 for zero, nan or inf
        z = dctn(np.ldexp(s, -e, out=s).astype(np.float32), type=1, overwrite_x=True)
        z /= denom
        return np.ldexp(idctn(z, type=1, overwrite_x=True), e, dtype=float).ravel()

    return spla.LinearOperator((w.size, w.size), solve, dtype=float)


def parabolic_step(
    u_old: ScalarField,
    D: SymTensorField,
    stream: ScalarField,
    dt: float,
    lin_tol: float = 1e-10,
    *,
    x0: ScalarField | None = None,
) -> tuple[ScalarField, float]:
    """One backward-Euler step in conservative flux form.

    ``stream`` is the stream function whose rotated gradient is the
    velocity; advective face fluxes are its differences between face
    endpoints, so constants are exact steady states.

    One BiCGSTAB call, started from ``x0`` (default ``u_old``), is
    preconditioned by ``_cosine_preconditioner`` and takes at most
    ``_FAST_ITERATIONS`` iterations.  If that call stops
    short of its own ``_KRYLOV_RTOL`` target (the cap or a breakdown) or its
    recomputed relative residual is above ``lin_tol`` or not finite, the
    matrix is factored by ``splu`` (on a CSC copy) and solved directly with
    the factor.  Then a failed factorization, a non-finite result or a
    relative residual above ``lin_tol`` raises ``SolverError``.

    Returns the new field and the relative residual of the linear solve.
    """
    if not lin_tol > 0:
        raise ValueError(f"lin_tol must be positive, got {lin_tol}")
    grid = u_old.grid
    fe, fn = _face_fluxes_from_stream(stream.values, grid)
    A, w = _assemble_parabolic(grid, D, fe, fn, dt)
    b = (w / dt).ravel() * u_old.values.ravel()
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return ScalarField(grid, np.zeros(grid.shape)), 0.0
    start = (u_old if x0 is None else x0).values.ravel()

    M = _cosine_preconditioner(grid, w, dt, float(np.mean(0.5 * (D.d11 + D.d22))))
    x, info = spla.bicgstab(A, b, x0=start, rtol=_KRYLOV_RTOL, atol=0.0, maxiter=_FAST_ITERATIONS, M=M)
    rel = float(np.linalg.norm(b - A @ x)) / bnorm
    if info != 0 or not rel <= lin_tol:  # capped, broken down, a miss, or nan
        try:
            lu = spla.splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A")
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


def _coupled_fields(u: ScalarField, cfg: RunConfig):
    v, _ = PoissonSolver(cfg.grid).solve(diff_x1(u), tol=cfg.lin_tol)
    q_eps = mollify(stream_velocity(v), cfg.reg.moll_radius)
    return v, dispersion_tensor_regularized(q_eps, cfg.phys, cfg.reg)


def initial_state(cfg: RunConfig) -> SimState:
    u0 = initial_condition(cfg.ic, cfg.ic_params, cfg.grid)
    v, D_eps = _coupled_fields(u0, cfg)
    return SimState(u0, v, D_eps, t=0.0, step=0)


def picard_coupled_step(state: SimState, cfg: RunConfig, dt: float | None = None) -> tuple[SimState, StepReport]:
    """Advance one time step, iterating the elliptic/coefficient/parabolic loop.

    Pass k re-solves the parabolic step from the same u_old with the
    coefficients of the iterate u_k, which gives G(u_k); the pass's gap is
    the max-norm of f_k = G(u_k) - u_k.  Once the gap drops below
    picard_tol, G(u_k) is accepted.  Otherwise the next iterate is the
    Walker & Ni type-II Anderson mix (SIAM J. Numer. Anal. 49(4), 2011)
    with mixing 1: G(u_k) - dG gamma, where gamma is the least-squares fit
    of f_k by the differences dF of the last ``_ANDERSON_DEPTH`` values of
    f, and dG those of G.  The first pass, and every pass at depth 0, takes
    G(u_k) itself: plain Picard.  The state's v and tensor are taken as the
    coefficients of its u, so the first pass uses them as they are.  Each
    pass's transport solve (see ``parabolic_step``) starts from u_k; the
    report's ``linear_residual`` is the worst of them.  The returned
    state's v and tensor are refreshed from the accepted u, so its elliptic
    residual is below lin_tol.  A stalled loop, or a mix that is not
    finite, raises ``SolverError``.
    """
    dt = cfg.dt if dt is None else dt
    u_n = u_k = state.u
    v_k, D_eps_k = state.v, state.D_eps
    depth = _ANDERSON_DEPTH
    # rows (k - 1) % depth hold f_k - f_{k-1} and G(u_k) - G(u_{k-1}), allocated once per step
    dF = np.empty((depth, u_n.values.size))
    dG = np.empty_like(dF)
    gaps: list[float] = []
    lin_res = 0.0
    for k in range(cfg.picard_max):
        g_k, rel = parabolic_step(u_n, D_eps_k, v_k, dt, lin_tol=cfg.lin_tol, x0=u_k)
        lin_res = max(lin_res, rel)
        g, f = g_k.values.ravel(), (g_k.values - u_k.values).ravel()
        gap = float(np.max(np.abs(f)))
        gaps.append(gap)
        u_k = g_k
        if depth and k and gap > cfg.picard_tol:
            dF[(k - 1) % depth], dG[(k - 1) % depth] = f - f_prev, g - g_prev
            cols = min(k, depth)
            gamma = np.linalg.lstsq(dF[:cols].T, f, rcond=None)[0]
            mixed = g - gamma @ dG[:cols]
            if not np.all(np.isfinite(mixed)):
                raise SolverError(f"Anderson mixing produced non-finite values on pass {k + 1}")
            u_k = ScalarField(cfg.grid, mixed.reshape(cfg.grid.shape))
        f_prev, g_prev = f, g
        v_k, D_eps_k = _coupled_fields(u_k, cfg)
        if gap <= cfg.picard_tol:
            break
    else:
        raise SolverError(
            f"fixed-point iteration stalled after {cfg.picard_max} passes, last gap {gaps[-1]:.3e}"
        )
    return SimState(u_k, v_k, D_eps_k, t=state.t + dt, step=state.step + 1), StepReport(gaps, lin_res)


def state_consistency_residual(state: SimState) -> float:
    """Residual of the state's stream function against its own density field."""
    return PoissonSolver(state.u.grid).residual_norm(state.v, diff_x1(state.u))


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
    state = initial_state(cfg)
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
        from .config import serialize_config

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
            state, report = picard_coupled_step(state, cfg, dt=dt)
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
    return Trajectory(cfg, states, reports, rows)
