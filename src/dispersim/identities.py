"""Numerical verification of the algebraic structure behind the coupled system.

This module checks, on manufactured data, every identity the simulator's
analysis rests on:

* the trace/determinant decomposition  A^2 = tr(A) A - det(A) I  of a
  symmetric 2x2 matrix;
* the sandwich identity  S D S = (D:S) S - det(S) det(D) D^{-1}  for
  symmetric S and invertible symmetric D, with the contracted product
  D:S = d11 s11 + 2 d12 s12 + d22 s22;
* closed-form reconstruction of the Hessian of u from first-order data.
  With phi = D grad(u).grad(u) and G = (D_x1 grad(u).grad(u),
  D_x2 grad(u).grad(u)) / phi, the Hessian solves the 3x3 linear system

      e1 u_11 + e2 u_12 = (phi_x1 - phi g1)/2
      e1 u_12 + e2 u_22 = (phi_x2 - phi g2)/2
      d11 u_11 + 2 d12 u_12 + d22 u_22 = u_t - w,

  where (e1, e2) = D grad(u) and w = u_t - D:hess(u); the system matrix
  has determinant det(D) * phi, and Cramer's rule gives the closed forms
  implemented in ``reconstruct_hessian`` (the acceptance check builds the
  matrix itself, for its dense-solve oracle and its determinant);
* the parabolic equation satisfied by the j-th power psi = phi^j of the
  dissipation density wherever grad(u) does not vanish:

      psi_t / psi - div((1/psi) D grad(psi))
          = drift . grad(psi) / psi + j * source + j * div(flux_source),

  with the drift/source/flux_source coefficients assembled by
  ``forcing_coefficients`` from D, its derivatives, grad(u), u_t and w;
* elementary vector-calculus product rules on matching stencils;
* the geometric-decay recursion y_{n+1} = c b^n y_n^{1+alpha}, which
  drives every level-set truncation argument, with its smallness
  threshold y_0 <= c^{-1/alpha} b^{-1/alpha^2};
* log-kernel averages eta(f; r) = sup_x integral over a ball of
  |f(y)| |ln|x-y|| dy, the quantity controlling local boundedness,
  evaluated as one zero-padded FFT convolution over the node lattice with
  the kernel's spectrum cached per grid.

Stencils here are fourth-order in space (one-sided closures at the
boundary keep the order uniform) so identity residuals decay fast enough
to be separated from rounding at desk-scale grids.  ``grad_4``, ``div_4``
and ``hess_4`` are the one way this module and ``mapped_domain``
differentiate a node array, and ``hess_4`` is the package's only Hessian;
``contract`` is the one A:S, and ``windowed_residual`` the one windowed
max-norm; ``deriv1_4`` and ``deriv2_4`` are their one-axis building
blocks.  Every D w.w, phi among them, comes from ``grid.quad_form``.
Time derivatives of manufactured fields use second-order central
differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .coefficients import PhysParams, dispersion_entries
from .grid import GridSpec, LatticeConvolution, ScalarField, quad_form

# ---------------------------------------------------------------------------
# fourth-order finite differences with one-sided boundary closures


def deriv1_4(values: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Fourth-order first derivative along an axis (5-point one-sided at edges)."""
    if axis == 0:
        return deriv1_4(values.T, h, 1).T
    v = values
    if v.shape[1] < 5:
        raise ValueError("need at least 5 nodes per axis for fourth-order stencils")
    s = 1.0 / (12.0 * h)
    out = np.empty_like(v)
    out[:, 2:-2] = (v[:, :-4] - 8.0 * v[:, 1:-3] + 8.0 * v[:, 3:-1] - v[:, 4:]) * s
    out[:, 0] = (-25.0 * v[:, 0] + 48.0 * v[:, 1] - 36.0 * v[:, 2] + 16.0 * v[:, 3] - 3.0 * v[:, 4]) * s
    out[:, 1] = (-3.0 * v[:, 0] - 10.0 * v[:, 1] + 18.0 * v[:, 2] - 6.0 * v[:, 3] + v[:, 4]) * s
    out[:, -2] = (3.0 * v[:, -1] + 10.0 * v[:, -2] - 18.0 * v[:, -3] + 6.0 * v[:, -4] - v[:, -5]) * s
    out[:, -1] = (25.0 * v[:, -1] - 48.0 * v[:, -2] + 36.0 * v[:, -3] - 16.0 * v[:, -4] + 3.0 * v[:, -5]) * s
    return out


def deriv2_4(values: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Fourth-order second derivative along an axis (6-point one-sided at edges)."""
    if axis == 0:
        return deriv2_4(values.T, h, 1).T
    v = values
    if v.shape[1] < 6:
        raise ValueError("need at least 6 nodes per axis for fourth-order stencils")
    s = 1.0 / (12.0 * h * h)
    out = np.empty_like(v)
    out[:, 2:-2] = (-v[:, :-4] + 16.0 * v[:, 1:-3] - 30.0 * v[:, 2:-2] + 16.0 * v[:, 3:-1] - v[:, 4:]) * s
    out[:, 0] = (45.0 * v[:, 0] - 154.0 * v[:, 1] + 214.0 * v[:, 2] - 156.0 * v[:, 3] + 61.0 * v[:, 4] - 10.0 * v[:, 5]) * s
    out[:, 1] = (10.0 * v[:, 0] - 15.0 * v[:, 1] - 4.0 * v[:, 2] + 14.0 * v[:, 3] - 6.0 * v[:, 4] + v[:, 5]) * s
    out[:, -2] = (10.0 * v[:, -1] - 15.0 * v[:, -2] - 4.0 * v[:, -3] + 14.0 * v[:, -4] - 6.0 * v[:, -5] + v[:, -6]) * s
    out[:, -1] = (45.0 * v[:, -1] - 154.0 * v[:, -2] + 214.0 * v[:, -3] - 156.0 * v[:, -4] + 61.0 * v[:, -5] - 10.0 * v[:, -6]) * s
    return out


def grad_4(f: np.ndarray, h1: float, h2: float) -> tuple[np.ndarray, np.ndarray]:
    """(f_x1, f_x2) on a node array indexed [x2, x1] with spacings h1 along x1 and h2 along x2."""
    return deriv1_4(f, h1, axis=1), deriv1_4(f, h2, axis=0)


def div_4(f1: np.ndarray, f2: np.ndarray, h1: float, h2: float) -> np.ndarray:
    """Divergence f1_x1 + f2_x2 of the vector field (f1, f2)."""
    return deriv1_4(f1, h1, axis=1) + deriv1_4(f2, h2, axis=0)


def hess_4(f: np.ndarray, h1: float, h2: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(f_11, f_12, f_22), the mixed entry differentiating along x2 first."""
    f12 = deriv1_4(deriv1_4(f, h2, axis=0), h1, axis=1)
    return deriv2_4(f, h1, axis=1), f12, deriv2_4(f, h2, axis=0)


def contract(a, s):
    """A:S = a11 s11 + 2 a12 s12 + a22 s22 for symmetric 2x2 matrices given as (11, 12, 22) entries."""
    return a[0] * s[0] + 2.0 * a[1] * s[1] + a[2] * s[2]


def sub_box(arr: np.ndarray, rect: tuple[float, float, float, float]) -> np.ndarray:
    """Nodes of ``arr`` inside ``rect`` = (x1_lo, x1_hi, x2_lo, x2_hi), given as fractions of each axis."""
    n2, n1 = arr.shape
    i0, i1 = int(np.ceil(rect[0] * (n1 - 1))), int(np.floor(rect[1] * (n1 - 1))) + 1
    j0, j1 = int(np.ceil(rect[2] * (n2 - 1))), int(np.floor(rect[3] * (n2 - 1))) + 1
    return arr[j0:j1, i0:i1]


def windowed_residual(arr: np.ndarray, rect: tuple[float, float, float, float]) -> tuple[np.ndarray, float]:
    """The ``sub_box`` of a residual field and its max-norm."""
    res = sub_box(arr, rect)
    return res, float(np.max(np.abs(res)))


# ---------------------------------------------------------------------------
# pointwise 2x2 matrix identities


def square_decomposition_residuals(a11, a12, a22) -> np.ndarray:
    """Entrywise residual of A^2 - tr(A) A + det(A) I, vectorized over entries."""
    tr = a11 + a22
    det = a11 * a22 - a12 * a12
    r11 = a11 * a11 + a12 * a12 - tr * a11 + det
    r12 = a12 * (a11 + a22) - tr * a12
    r22 = a12 * a12 + a22 * a22 - tr * a22 + det
    return np.maximum(np.abs(r11), np.maximum(np.abs(r12), np.abs(r22)))


def sandwich_identity_residuals(d11, d12, d22, s11, s12, s22) -> np.ndarray:
    """Entrywise residual of S D S - (D:S) S + det(S) det(D) D^{-1}, vectorized.

    det(D) D^{-1} is the adjugate [[d22, -d12], [-d12, d11]], so no division
    by det(D) occurs; D must still be positive-definite at every entry,
    which for a symmetric 2x2 matrix is d11 > 0 and det(D) > 0.
    """
    det_d = d11 * d22 - d12 * d12
    if not (np.all(d11 > 0) and np.all(det_d > 0)):
        raise ValueError(
            f"D must be symmetric positive-definite, got min d11 = {np.min(d11)}, min det(D) = {np.min(det_d)}"
        )
    t11 = s11 * d11 + s12 * d12
    t12 = s11 * d12 + s12 * d22
    t21 = s12 * d11 + s22 * d12
    t22 = s12 * d12 + s22 * d22
    m11 = t11 * s11 + t12 * s12
    m12 = t11 * s12 + t12 * s22
    m22 = t21 * s12 + t22 * s22
    c = contract((d11, d12, d22), (s11, s12, s22))
    det_s = s11 * s22 - s12 * s12
    r11 = m11 - c * s11 + det_s * d22
    r12 = m12 - c * s12 - det_s * d12
    r22 = m22 - c * s22 + det_s * d11
    return np.maximum(np.abs(r11), np.maximum(np.abs(r12), np.abs(r22)))


# ---------------------------------------------------------------------------
# per-node workspace for the dissipation-density machinery


@dataclass
class IdentityWorkspace:
    """Per-node values feeding the Hessian reconstruction and forcing assembly.

    Every field is a float or an ndarray; all entries broadcast together.
    Spatial/temporal derivative entries describe the same tensor D whose
    entries are (d11, d12, d22); ``w`` must equal u_t - D:hess(u) for the
    identities to close.
    """

    ux1: np.ndarray
    ux2: np.ndarray
    u_t: np.ndarray
    w: np.ndarray
    d11: np.ndarray
    d12: np.ndarray
    d22: np.ndarray
    d11_x1: np.ndarray = 0.0
    d12_x1: np.ndarray = 0.0
    d22_x1: np.ndarray = 0.0
    d11_x2: np.ndarray = 0.0
    d12_x2: np.ndarray = 0.0
    d22_x2: np.ndarray = 0.0
    d11_t: np.ndarray = 0.0
    d12_t: np.ndarray = 0.0
    d22_t: np.ndarray = 0.0
    phi_x1: np.ndarray | None = None
    phi_x2: np.ndarray | None = None

    @property
    def phi(self):
        return quad_form(self.d11, self.d12, self.d22, self.ux1, self.ux2)

    @property
    def e1(self):
        return self.d11 * self.ux1 + self.d12 * self.ux2

    @property
    def e2(self):
        return self.d12 * self.ux1 + self.d22 * self.ux2

    @property
    def det_d(self):
        return self.d11 * self.d22 - self.d12**2

    @property
    def det_d_x1(self):
        return self.d11_x1 * self.d22 + self.d11 * self.d22_x1 - 2.0 * self.d12 * self.d12_x1

    @property
    def det_d_x2(self):
        return self.d11_x2 * self.d22 + self.d11 * self.d22_x2 - 2.0 * self.d12 * self.d12_x2

    @property
    def div_d(self):
        """Row vector of column divergences of D."""
        return (self.d11_x1 + self.d12_x2, self.d12_x1 + self.d22_x2)

    @property
    def g(self):
        """Relative-gradient vector of D along grad(u): G = (D_xk grad u . grad u)/phi."""
        phi = self.phi
        g1 = quad_form(self.d11_x1, self.d12_x1, self.d22_x1, self.ux1, self.ux2) / phi
        g2 = quad_form(self.d11_x2, self.d12_x2, self.d22_x2, self.ux1, self.ux2) / phi
        return g1, g2

    def _positive_phi_det_d(self, what: str):
        """(phi, det(D)), or ValueError naming ``what`` unless both are positive, as the identities need."""
        phi, det_d = self.phi, self.det_d
        if np.any(np.asarray(phi) <= 0) or np.any(np.asarray(det_d) <= 0):
            raise ValueError(f"{what} needs phi > 0 and det(D) > 0")
        return phi, det_d

    def _aux_matrices(self):
        """The three matrices entering the adjugate representation of hess(u).

        M1 and M2 collect products of D-entries with grad(u); M3 is the
        negative outer product of D grad(u) with itself.
        """
        d11, d12, d22 = self.d11, self.d12, self.d22
        ux1, ux2 = self.ux1, self.ux2
        e1, e2 = self.e1, self.e2
        cross = d22 * d11 - 2.0 * d12**2
        m1 = ((d11 * e1, d12 * d11 * ux1 - cross * ux2),
              (d11 * e2, d22 * e1))
        m2 = ((d11 * e2, d22 * e1),
              (-cross * ux1 + d12 * d22 * ux2, d22 * e2))
        m3 = (-e1 * e1, -e1 * e2, -e2 * e2)
        return m1, m2, m3


def reconstruct_hessian(ws: IdentityWorkspace):
    """Closed-form Hessian (u11, u12, u22) of u from first-order data, by Cramer's rule on the 3x3 system."""
    phi, det_d = ws._positive_phi_det_d("the Hessian reconstruction")
    if ws.phi_x1 is None or ws.phi_x2 is None:
        raise ValueError("reconstruction needs the gradient of phi (phi_x1, phi_x2)")
    g1, g2 = ws.g
    p1 = ws.phi_x1 - phi * g1
    p2 = ws.phi_x2 - phi * g2
    r3 = ws.u_t - ws.w
    e1, e2 = ws.e1, ws.e2
    m1, m2, _ = ws._aux_matrices()
    denom = det_d * phi
    u11 = -(m2[1][0] * p1 + m2[1][1] * p2) / (2.0 * denom) + r3 * e2**2 / denom
    u12 = (m2[0][0] * p1 + m2[0][1] * p2) / (2.0 * denom) - r3 * e1 * e2 / denom
    u22 = -(m1[0][0] * p1 + m1[0][1] * p2) / (2.0 * denom) + r3 * e1**2 / denom
    return u11, u12, u22


@dataclass
class ForcingCoefficients:
    """Coefficients of the derived parabolic equation for psi = phi^j.

    ``drift`` multiplies grad(psi)/psi, ``source`` and ``flux_source``
    enter scaled by j as  j*source + j*div(flux_source).
    """

    drift1: np.ndarray
    drift2: np.ndarray
    flux1: np.ndarray
    flux2: np.ndarray
    source: np.ndarray


def forcing_coefficients(ws: IdentityWorkspace) -> ForcingCoefficients:
    """Assemble the drift vector, flux-source vector and scalar source.

    The scalar source keeps its two sign-definite terms; nothing is dropped.
    """
    phi, det_d = ws._positive_phi_det_d("the forcing assembly")
    g1, g2 = ws.g
    dg1 = ws.d11 * g1 + ws.d12 * g2
    dg2 = ws.d12 * g1 + ws.d22 * g2
    e1, e2 = ws.e1, ws.e2
    dd1, dd2 = ws.det_d_x1, ws.det_d_x2
    m1, m2, m3 = ws._aux_matrices()

    # drift = D G + (2 u_t / phi) D grad u - (1/(det(D) phi)) [M1^T dd, M2^T dd] grad u
    c1_1 = m1[0][0] * dd1 + m1[1][0] * dd2
    c1_2 = m1[0][1] * dd1 + m1[1][1] * dd2
    c2_1 = m2[0][0] * dd1 + m2[1][0] * dd2
    c2_2 = m2[0][1] * dd1 + m2[1][1] * dd2
    denom = det_d * phi
    drift1 = dg1 + 2.0 * ws.u_t * e1 / phi - (ws.ux1 * c1_1 + ws.ux2 * c2_1) / denom
    drift2 = dg2 + 2.0 * ws.u_t * e2 / phi - (ws.ux1 * c1_2 + ws.ux2 * c2_2) / denom

    flux1 = -dg1 + 2.0 * ws.w * e1 / phi
    flux2 = -dg2 + 2.0 * ws.w * e2 / phi

    m1g1 = m1[0][0] * g1 + m1[0][1] * g2
    m1g2 = m1[1][0] * g1 + m1[1][1] * g2
    m2g1 = m2[0][0] * g1 + m2[0][1] * g2
    m2g2 = m2[1][0] * g1 + m2[1][1] * g2
    mg1 = ws.ux1 * m1g1 + ws.ux2 * m2g1
    mg2 = ws.ux1 * m1g2 + ws.ux2 * m2g2
    m3u1 = m3[0] * ws.ux1 + m3[1] * ws.ux2
    m3u2 = m3[1] * ws.ux1 + m3[2] * ws.ux2
    div_d1, div_d2 = ws.div_d
    dt_quad = quad_form(ws.d11_t, ws.d12_t, ws.d22_t, ws.ux1, ws.ux2)
    r3 = ws.u_t - ws.w
    source = (
        (dd1 * mg1 + dd2 * mg2) / denom
        - 2.0 * r3 * (dd1 * m3u1 + dd2 * m3u2) / (denom * phi)
        - 2.0 * ws.u_t * (ws.u_t + div_d1 * ws.ux1 + div_d2 * ws.ux2 - ws.w) / phi
        + dt_quad / phi
        - 2.0 * r3 * (e1 * g1 + e2 * g2) / phi
        - (dg1 * g1 + dg2 * g2)
    )
    return ForcingCoefficients(drift1, drift2, flux1, flux2, source)


# ---------------------------------------------------------------------------
# manufactured-field residual of the dissipation-power equation


# evaluation time, tensor regularization, evaluation window and |grad u| floor of the power-equation check
_POWER_T0 = 0.25
_POWER_REG_EPS = 1e-2
_POWER_BOX = (0.25, 0.75, 0.25, 0.75)
_POWER_GRAD_FLOOR = 0.5


def power_equation_residual(u_fn, v_fn, params: PhysParams, j: int, grid: GridSpec) -> tuple[np.ndarray, float]:
    """Residual of the parabolic equation for psi = phi^j on manufactured fields.

    ``u_fn(x1, x2, t)`` and ``v_fn(x1, x2, t)`` are smooth manufactured
    fields; nothing is solved.  The velocity is the rotated gradient of v,
    the tensor uses the eps-regularized profile (smooth in q, so the
    identity holds for arbitrary manufactured v, including fields whose
    velocity vanishes somewhere), and w is defined as u_t - D:hess(u) so
    the identity is exact in the continuum.  Time derivatives are central
    differences at t = 0.25 with step ``grid.hx``.  The returned residual
    over the evaluation sub-rectangle is therefore pure discretization
    error: fourth order in space, second order in the time differences.

    Raises ValueError if |grad u| falls below 0.5 anywhere on the
    sub-rectangle (the identity only holds away from critical points).
    """
    if j < 1:
        raise ValueError("power j must be >= 1")
    hx, hy = grid.hx, grid.hy
    dt_fd = hx
    x1m, x2m = grid.nodes()

    slices = {}
    for tag, t in (("-", _POWER_T0 - dt_fd), ("0", _POWER_T0), ("+", _POWER_T0 + dt_fd)):
        u = np.asarray(u_fn(x1m, x2m, t), dtype=float)
        v = np.asarray(v_fn(x1m, x2m, t), dtype=float)
        v1, v2 = grad_4(v, hx, hy)
        d11, d12, d22 = dispersion_entries(-v2, v1, params, _POWER_REG_EPS)
        ux1, ux2 = grad_4(u, hx, hy)
        phi = quad_form(d11, d12, d22, ux1, ux2)
        slices[tag] = dict(u=u, d11=d11, d12=d12, d22=d22, ux1=ux1, ux2=ux2, phi=phi, psi=phi**j)

    s0, sm, sp = slices["0"], slices["-"], slices["+"]
    inv2dt = 1.0 / (2.0 * dt_fd)
    u_t = (sp["u"] - sm["u"]) * inv2dt
    w = u_t - contract((s0["d11"], s0["d12"], s0["d22"]), hess_4(s0["u"], hx, hy))
    d11_x1, d11_x2 = grad_4(s0["d11"], hx, hy)
    d12_x1, d12_x2 = grad_4(s0["d12"], hx, hy)
    d22_x1, d22_x2 = grad_4(s0["d22"], hx, hy)

    ws = IdentityWorkspace(
        ux1=s0["ux1"], ux2=s0["ux2"], u_t=u_t, w=w,
        d11=s0["d11"], d12=s0["d12"], d22=s0["d22"],
        d11_x1=d11_x1, d12_x1=d12_x1, d22_x1=d22_x1,
        d11_x2=d11_x2, d12_x2=d12_x2, d22_x2=d22_x2,
        d11_t=(sp["d11"] - sm["d11"]) * inv2dt,
        d12_t=(sp["d12"] - sm["d12"]) * inv2dt,
        d22_t=(sp["d22"] - sm["d22"]) * inv2dt,
    )
    fc = forcing_coefficients(ws)

    psi = s0["psi"]
    psi_t = (sp["psi"] - sm["psi"]) * inv2dt
    psi_x1, psi_x2 = grad_4(psi, hx, hy)
    p1 = (s0["d11"] * psi_x1 + s0["d12"] * psi_x2) / psi
    p2 = (s0["d12"] * psi_x1 + s0["d22"] * psi_x2) / psi
    lhs = psi_t / psi - div_4(p1, p2, hx, hy)
    div_flux = div_4(fc.flux1, fc.flux2, hx, hy)
    rhs = (fc.drift1 * psi_x1 + fc.drift2 * psi_x2) / psi + j * fc.source + j * div_flux

    grad_mag = sub_box(np.hypot(s0["ux1"], s0["ux2"]), _POWER_BOX)
    if grad_mag.min() < _POWER_GRAD_FLOOR:
        raise ValueError(
            f"|grad u| dips to {grad_mag.min():.3g} < {_POWER_GRAD_FLOOR} on the evaluation sub-rectangle"
        )
    return windowed_residual(lhs - rhs, _POWER_BOX)


# ---------------------------------------------------------------------------
# vector-calculus product rules on matching stencils


def _random_smooth(grid: GridSpec, rng: np.random.Generator) -> np.ndarray:
    x1m, x2m = grid.nodes()
    out = np.zeros(grid.shape)
    for _ in range(3):
        a1, a2 = rng.uniform(0.5, 2.0, size=2)
        ph1, ph2 = rng.uniform(0.0, 2.0 * np.pi, size=2)
        c = rng.uniform(-1.0, 1.0)
        out += c * np.sin(a1 * np.pi * x1m / grid.lx + ph1) * np.cos(a2 * np.pi * x2m / grid.ly + ph2)
    return out


def _max_abs(*residuals: np.ndarray) -> float:
    return float(max(np.max(np.abs(r)) for r in residuals))


def vector_calc_residuals(grid: GridSpec, seed: int = 0) -> dict[str, float]:
    """Max-norm residuals of the product-rule identities on random smooth fields.

    Both sides of each identity are evaluated with the same fourth-order
    stencils, so each residual is pure discretization error, O(h^4).
    """
    rng = np.random.default_rng(seed)
    hx, hy = grid.hx, grid.hy
    f1, f2 = _random_smooth(grid, rng), _random_smooth(grid, rng)
    g1, g2 = _random_smooth(grid, rng), _random_smooth(grid, rng)
    a11, a12, a22 = _random_smooth(grid, rng), _random_smooth(grid, rng), _random_smooth(grid, rng)
    u = _random_smooth(grid, rng)
    f1_1, f1_2 = grad_4(f1, hx, hy)
    f2_1, f2_2 = grad_4(f2, hx, hy)
    g1_1, g1_2 = grad_4(g1, hx, hy)
    g2_1, g2_2 = grad_4(g2, hx, hy)
    a11_1, a11_2 = grad_4(a11, hx, hy)
    a12_1, a12_2 = grad_4(a12, hx, hy)
    a22_1, a22_2 = grad_4(a22, hx, hy)
    u_1, u_2 = grad_4(u, hx, hy)
    diva1 = a11_1 + a12_2
    diva2 = a12_1 + a22_2
    out: dict[str, float] = {}

    # grad(F.G) = grad(F) G + grad(G) F, with grad(F)_{ij} = d_i F_j
    dot_1, dot_2 = grad_4(f1 * g1 + f2 * g2, hx, hy)
    r1 = dot_1 - (f1_1 * g1 + f2_1 * g2 + g1_1 * f1 + g2_1 * f2)
    r2 = dot_2 - (f1_2 * g1 + f2_2 * g2 + g1_2 * f1 + g2_2 * f2)
    out["grad-of-dot"] = _max_abs(r1, r2)

    # div(A F) = A : grad(F) + div(A) . F
    af1 = a11 * f1 + a12 * f2
    af2 = a12 * f1 + a22 * f2
    contr = a11 * f1_1 + a12 * f2_1 + a12 * f1_2 + a22 * f2_2
    out["div-of-matvec"] = _max_abs(div_4(af1, af2, hx, hy) - (contr + diva1 * f1 + diva2 * f2))

    # grad(A F) = grad(F) A^T + (A_x1 F, A_x2 F)^T, entry (i, j) = d_i (A F)_j
    af1_1, af1_2 = grad_4(af1, hx, hy)
    af2_1, af2_2 = grad_4(af2, hx, hy)
    r11 = af1_1 - (a11 * f1_1 + a12 * f2_1 + (a11_1 * f1 + a12_1 * f2))
    r12 = af2_1 - (a12 * f1_1 + a22 * f2_1 + (a12_1 * f1 + a22_1 * f2))
    r21 = af1_2 - (a11 * f1_2 + a12 * f2_2 + (a11_2 * f1 + a12_2 * f2))
    r22 = af2_2 - (a12 * f1_2 + a22 * f2_2 + (a12_2 * f1 + a22_2 * f2))
    out["grad-of-matvec"] = _max_abs(r11, r12, r21, r22)

    # div(u A) = u div(A) + grad(u)^T A  (row-vector identity)
    ua12 = u * a12
    r1 = div_4(u * a11, ua12, hx, hy) - (u * diva1 + u_1 * a11 + u_2 * a12)
    r2 = div_4(ua12, u * a22, hx, hy) - (u * diva2 + u_1 * a12 + u_2 * a22)
    out["div-of-scaled-matrix"] = _max_abs(r1, r2)

    # grad(|grad u|^2) = 2 hess(u) grad(u)
    sq_1, sq_2 = grad_4(u_1 * u_1 + u_2 * u_2, hx, hy)
    h11, h12, h22 = hess_4(u, hx, hy)
    r1 = sq_1 - 2.0 * (h11 * u_1 + h12 * u_2)
    r2 = sq_2 - 2.0 * (h12 * u_1 + h22 * u_2)
    out["grad-of-grad-square"] = _max_abs(r1, r2)
    return out


# ---------------------------------------------------------------------------
# geometric-decay recursion


@dataclass(frozen=True)
class RecursionParams:
    """Parameters of y_{n+1} = c b^n y_n^{1+alpha}."""

    c: float
    b: float
    alpha: float
    y0: float

    def __post_init__(self):
        if not (self.c > 0 and self.alpha > 0):
            raise ValueError("c and alpha must be positive")
        if not self.b > 1:
            raise ValueError(f"b must exceed 1, got {self.b}")
        if self.y0 < 0:
            raise ValueError("y0 must be nonnegative")


def recursion_threshold(c: float, b: float, alpha: float) -> float:
    """Largest starting value guaranteed to drive the recursion to zero."""
    return c ** (-1.0 / alpha) * b ** (-1.0 / alpha**2)


def superlinear_recursion(p: RecursionParams, n_max: int) -> tuple[np.ndarray, bool]:
    """Iterate the recursion with equality; converged means y_{n_max} < 1e-12.

    The sequence is capped at 1e100: once exceeded it is reported as
    diverged and iteration stops.  When the geometric factor b^n alone
    would overflow the update switches to log space, so deep decaying
    tails underflow cleanly to zero instead of raising.
    """
    ys = [p.y0]
    y = p.y0
    log_b, log_c = math.log(p.b), math.log(p.c)
    for n in range(n_max):
        if y == 0.0:
            ys.append(0.0)
            continue
        log_next = log_c + n * log_b + (1.0 + p.alpha) * math.log(y)
        if log_next > math.log(1e100):
            ys.append(math.inf)
            return np.array(ys), False
        if n * log_b < 700.0:
            y = p.c * p.b**n * y ** (1.0 + p.alpha)
        else:
            y = math.exp(log_next) if log_next > -745.0 else 0.0
        ys.append(y)
        if y > 1e100:
            return np.array(ys), False
    return np.array(ys), bool(ys[-1] < 1e-12)


# ---------------------------------------------------------------------------
# log-kernel ball averages


def _log_cell_integral(hx: float, hy: float) -> float:
    """Integral of |ln r| over the cell [-hx/2, hx/2] x [-hy/2, hy/2] around the singularity."""
    X, Y = hx / 2.0, hy / 2.0
    if np.hypot(X, Y) >= 1.0:
        raise ValueError("cell too large for the log-kernel sign convention")
    corner = (X * Y / 2.0) * np.log(X * X + Y * Y) - 1.5 * X * Y \
        + (Y * Y / 2.0) * np.arctan(X / Y) + (X * X / 2.0) * np.arctan(Y / X)
    return -4.0 * corner


@lru_cache(maxsize=8)
def _log_kernel_convolution(grid: GridSpec) -> LatticeConvolution:
    """The convolution with the log-kernel offset table, whose spectrum is taken once per grid.

    Entry (ny - 1 + dj, nx - 1 + di) of the table is |ln|d|| hx hy at the
    offset d = (di hx, dj hy), |di| <= nx - 1, |dj| <= ny - 1; the zero offset
    holds the analytic integral over the singular cell.  The table reaches
    across the whole grid, so each axis is padded to at least 3n - 2.
    """
    ny, nx = grid.shape
    d = np.hypot(np.arange(1 - ny, ny)[:, None] * grid.hy, np.arange(1 - nx, nx)[None, :] * grid.hx)
    d[ny - 1, nx - 1] = 1.0
    table = np.abs(np.log(d)) * (grid.hx * grid.hy)
    table[ny - 1, nx - 1] = _log_cell_integral(grid.hx, grid.hy)
    return LatticeConvolution(table, grid.shape)


def log_kernel_average(f: ScalarField, radius: float, center: tuple[float, float]) -> float:
    """sup over nearby nodes x of the ball integral of |f(y)| |ln|x-y|| dy.

    Quadrature assigns each ball node its cell area; the singular node is
    integrated analytically over its own cell.  On the uniform lattice that
    sum is one linear convolution of |f| restricted to the ball with a table
    of |ln|d|| over the node offsets d, evaluated with zero-padded FFTs
    against the table's spectrum, which is cached per grid.  The sup is taken
    over grid nodes within twice the radius of the ball center, so the
    result is a lower bound for the true supremum over the plane.  A
    non-finite radius, center or value of f inside the ball raises; values
    outside the ball are never read.
    """
    g = f.grid
    cx, cy = center
    if not radius > 0:
        raise ValueError("radius must be positive")
    if not (cx - radius >= 0 and cx + radius <= g.lx and cy - radius >= 0 and cy + radius <= g.ly):
        raise ValueError("ball exits the domain")
    x1m, x2m = g.nodes()
    dist2 = (x1m - cx) ** 2 + (x2m - cy) ** 2
    fv = np.where(dist2 <= radius**2, np.abs(f.values), 0.0)
    if not np.isfinite(fv).all():
        raise ValueError("f is not finite inside the ball")
    near = dist2 <= (2.0 * radius) ** 2
    if not near.any():
        return 0.0
    return max(0.0, float(_log_kernel_convolution(g)(fv)[near].max()))
