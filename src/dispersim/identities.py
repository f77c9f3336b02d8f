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
  E has determinant det(D) * phi, and ``reconstruct_hessian`` applies
  Cramer's rule as hess(u) = adj(E) b / (det(D) phi), b the right-hand
  side above and adj(E)'s entries written in e and D (the acceptance check
  builds E itself, for its dense-solve oracle and its determinant);
* the parabolic equation satisfied by the j-th power psi = phi^j of the
  dissipation density wherever grad(u) does not vanish:

      psi_t / psi - div((1/psi) D grad(psi))
          = drift . grad(psi) / psi + j * source + j * div(flux_source),

  with the drift/source/flux_source coefficients assembled by
  ``forcing_coefficients`` from D, e = D grad(u), phi, grad(det(D)) and G,
  together with div(D), D_t, u_t and w;
* elementary vector-calculus product rules on matching stencils;
* the geometric-decay recursion y_{n+1} = c b^n y_n^{1+alpha}, which
  drives every level-set truncation argument, with its smallness
  threshold y_0 <= c^{-1/alpha} b^{-1/alpha^2};
* log-kernel averages eta(f; r) = sup_x integral over a ball of
  |f(y)| |ln|x-y|| dy, the quantity controlling local boundedness,
  evaluated as one zero-padded FFT convolution over the box of nodes
  within twice the radius of the center, with the kernel's spectrum cached
  per box shape and spacing.

Stencils here are fourth-order in space (one-sided closures at the
boundary keep the order uniform) so identity residuals decay fast enough
to be separated from rounding at desk-scale grids.  ``grad_4``, ``div_4``
and ``hess_4`` are the one way this module and ``mapped_domain``
differentiate a node array, and ``hess_4`` is the package's only Hessian;
``contract`` is the one A:S, and ``windowed_residual`` the one windowed
max-norm; ``deriv1_4`` and ``deriv2_4`` are their one-axis building
blocks.  Both slice along ``axis`` itself (no transpose and back), build
the interior from two temporaries written into the result in place, and
keep each stencil's sums and products in its written order, so either
axis gives the bits of the one-expression form.  ``matvec``, ``det2``
and ``congruence`` are the one pointwise 2x2 mat-vec, determinant and
congruence J^T A J of this module, ``acceptance`` and ``mapped_domain``.
Every D w.w, phi among them, comes from ``grid.quad_form``.

Time derivatives of manufactured fields use second-order central
differences.

A windowed residual (the phi^j equation here, the transformed equations
of ``mapped_domain``) is measured on its window only, so it is built on
the window's nodes plus a halo and no further.  ``window_crop`` is the one
home of the window's index arithmetic: it gives the crop and the window
inside it.  Each fourth-order stencil's one-sided closure reaches 2 nodes
into the crop, so a halo of 2 per level of nested stencils (6 for the
phi^j equation's three levels, 4 for the charts' two) leaves every window
node with central stencils only, and the window's residual is the same
IEEE result as a full-grid build's.
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


def _axis_first(values: np.ndarray, axis: int, need: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(result, values and result viewed with ``axis`` first), once ``values`` has ``need`` nodes along ``axis``."""
    if values.shape[axis] < need:
        raise ValueError(f"need at least {need} nodes per axis for fourth-order stencils")
    out = np.empty_like(values)
    return out, values.swapaxes(0, axis), out.swapaxes(0, axis)


def deriv1_4(values: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Fourth-order first derivative along an axis (5-point one-sided at edges)."""
    out, v, o = _axis_first(values, axis, 5)
    s = 1.0 / (12.0 * h)
    # ((v0 - 8 v1) + 8 v3 - v4) s, the interior stencil in that order, with two temporaries
    t = 8.0 * v[1:-3]
    np.subtract(v[:-4], t, out=t)
    t += 8.0 * v[3:-1]
    t -= v[4:]
    np.multiply(t, s, out=o[2:-2])
    o[0] = (-25.0 * v[0] + 48.0 * v[1] - 36.0 * v[2] + 16.0 * v[3] - 3.0 * v[4]) * s
    o[1] = (-3.0 * v[0] - 10.0 * v[1] + 18.0 * v[2] - 6.0 * v[3] + v[4]) * s
    o[-2] = (3.0 * v[-1] + 10.0 * v[-2] - 18.0 * v[-3] + 6.0 * v[-4] - v[-5]) * s
    o[-1] = (25.0 * v[-1] - 48.0 * v[-2] + 36.0 * v[-3] - 16.0 * v[-4] + 3.0 * v[-5]) * s
    return out


def deriv2_4(values: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Fourth-order second derivative along an axis (6-point one-sided at edges)."""
    out, v, o = _axis_first(values, axis, 6)
    s = 1.0 / (12.0 * h * h)
    # (-v0 + 16 v1 - 30 v2 + 16 v3 - v4) s in that order; 16 v1 - v0 is the same IEEE sum as -v0 + 16 v1
    t = 16.0 * v[1:-3]
    t -= v[:-4]
    t2 = 30.0 * v[2:-2]
    t -= t2
    np.multiply(v[3:-1], 16.0, out=t2)
    t += t2
    t -= v[4:]
    np.multiply(t, s, out=o[2:-2])
    o[0] = (45.0 * v[0] - 154.0 * v[1] + 214.0 * v[2] - 156.0 * v[3] + 61.0 * v[4] - 10.0 * v[5]) * s
    o[1] = (10.0 * v[0] - 15.0 * v[1] - 4.0 * v[2] + 14.0 * v[3] - 6.0 * v[4] + v[5]) * s
    o[-2] = (10.0 * v[-1] - 15.0 * v[-2] - 4.0 * v[-3] + 14.0 * v[-4] - 6.0 * v[-5] + v[-6]) * s
    o[-1] = (45.0 * v[-1] - 154.0 * v[-2] + 214.0 * v[-3] - 156.0 * v[-4] + 61.0 * v[-5] - 10.0 * v[-6]) * s
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


def matvec(m, w1, w2):
    """m @ (w1, w2) for a 2x2 matrix given as rows ((m11, m12), (m21, m22))."""
    return m[0][0] * w1 + m[0][1] * w2, m[1][0] * w1 + m[1][1] * w2


def det2(m):
    """det(m) = m11 m22 - m12 m21 for a 2x2 matrix given as rows."""
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def congruence(j, a):
    """J^T A J as (11, 12, 22) entries, for J given as rows and symmetric A as (11, 12, 22) entries.

    Entry (i, k) is A applied to the i-th column of J, then dotted with the k-th.
    """
    rows = ((a[0], a[1]), (a[1], a[2]))
    a1, a2 = matvec(rows, j[0][0], j[1][0]), matvec(rows, j[0][1], j[1][1])
    return (a1[0] * j[0][0] + a1[1] * j[1][0],
            a1[0] * j[0][1] + a1[1] * j[1][1],
            a2[0] * j[0][1] + a2[1] * j[1][1])


def window_crop(shape: tuple[int, int], rect: tuple[float, float, float, float], halo: int):
    """(crop, window): the nodes within ``halo`` nodes of ``rect``'s window, and that window inside the crop.

    ``rect`` = (x1_lo, x1_hi, x2_lo, x2_hi) gives the window as fractions of
    each axis of an array of ``shape`` (n2, n1); the crop stops at the
    array's edges, so at halo 0 it is the window itself.  Both are
    (x2, x1) slice pairs.
    """
    crop, window = [], []
    for n, lo, hi in zip(shape, (rect[2], rect[0]), (rect[3], rect[1])):
        k0, k1 = int(np.ceil(lo * (n - 1))), int(np.floor(hi * (n - 1))) + 1
        c0 = max(k0 - halo, 0)
        crop.append(slice(c0, min(k1 + halo, n)))
        window.append(slice(k0 - c0, k1 - c0))
    return tuple(crop), tuple(window)


def windowed_residual(arr: np.ndarray, window: tuple[slice, slice]) -> tuple[np.ndarray, float]:
    """The ``window`` of a residual field and its max-norm."""
    res = arr[window]
    return res, float(np.max(np.abs(res)))


# ---------------------------------------------------------------------------
# pointwise 2x2 matrix identities


def square_decomposition_residuals(a11, a12, a22) -> np.ndarray:
    """Entrywise residual of A^2 - tr(A) A + det(A) I, vectorized over entries."""
    a = ((a11, a12), (a12, a22))
    tr, det = a11 + a22, det2(a)
    (sq11, _), (sq12, sq22) = matvec(a, a11, a12), matvec(a, a12, a22)  # the columns of A^2
    r11 = sq11 - tr * a11 + det
    r12 = sq12 - tr * a12
    r22 = sq22 - tr * a22 + det
    return np.maximum(np.abs(r11), np.maximum(np.abs(r12), np.abs(r22)))


def sandwich_identity_residuals(d11, d12, d22, s11, s12, s22) -> np.ndarray:
    """Entrywise residual of S D S - (D:S) S + det(S) det(D) D^{-1}, vectorized.

    det(D) D^{-1} is the adjugate [[d22, -d12], [-d12, d11]], so no division
    by det(D) occurs; D must still be positive-definite at every entry,
    which for a symmetric 2x2 matrix is d11 > 0 and det(D) > 0.
    """
    d = (d11, d12, d22)
    det_d = det2(((d11, d12), (d12, d22)))
    if not (np.all(d11 > 0) and np.all(det_d > 0)):
        raise ValueError(
            f"D must be symmetric positive-definite, got min d11 = {np.min(d11)}, min det(D) = {np.min(det_d)}"
        )
    s_rows = ((s11, s12), (s12, s22))
    m11, m12, m22 = congruence(s_rows, d)  # S D S, as S is symmetric
    c = contract(d, (s11, s12, s22))
    det_s = det2(s_rows)
    r11 = m11 - c * s11 + det_s * d22
    r12 = m12 - c * s12 - det_s * d12
    r22 = m22 - c * s22 + det_s * d11
    return np.maximum(np.abs(r11), np.maximum(np.abs(r12), np.abs(r22)))


# ---------------------------------------------------------------------------
# Hessian reconstruction and the phi^j forcing, pointwise over broadcasting entries
#
# A symmetric tensor and each of its derivatives are (11, 12, 22) entry
# triples, a vector an (x1, x2) pair; ``w`` must equal u_t - D:hess(u)
# for the identities to close.


def _phi_det_d(d, ux1, ux2, what: str):
    """(phi, det(D)), or ValueError naming ``what`` unless both are positive, as the identities need."""
    phi, det_d = quad_form(*d, ux1, ux2), det2(((d[0], d[1]), (d[1], d[2])))
    if np.any(np.asarray(phi) <= 0) or np.any(np.asarray(det_d) <= 0):
        raise ValueError(f"{what} needs phi > 0 and det(D) > 0")
    return phi, det_d


def reconstruct_hessian(d, grad_u, grad_phi, g, u_t, w):
    """Closed-form Hessian (u11, u12, u22) of u from first-order data, by Cramer's rule on the 3x3 system.

    ``g`` is G = (D_x1 grad u . grad u, D_x2 grad u . grad u) / phi.  The
    system matrix is E = [[e1, e2, 0], [0, e1, e2], [d11, 2 d12, d22]]
    with (e1, e2) = D grad(u), and det(E) = det(D) phi, so
    hess(u) = adj(E) b / (det(D) phi) with b = ((phi_x1 - phi g1)/2, (phi_x2 - phi g2)/2, u_t - w).
    """
    ux1, ux2 = grad_u
    phi, det_d = _phi_det_d(d, ux1, ux2, "the Hessian reconstruction")
    d11, d12, d22 = d
    b1 = 0.5 * (grad_phi[0] - phi * g[0])
    b2 = 0.5 * (grad_phi[1] - phi * g[1])
    r3 = u_t - w
    e1, e2 = matvec(((d11, d12), (d12, d22)), ux1, ux2)
    denom = det_d * phi
    u11 = ((e1 * d22 - 2.0 * d12 * e2) * b1 - d22 * e2 * b2 + e2 * e2 * r3) / denom
    u12 = (d11 * e2 * b1 + d22 * e1 * b2 - e1 * e2 * r3) / denom
    u22 = (-d11 * e1 * b1 + (d11 * e2 - 2.0 * d12 * e1) * b2 + e1 * e1 * r3) / denom
    return u11, u12, u22


def forcing_coefficients(d, d_x1, d_x2, d_t, grad_u, u_t, w):
    """(drift, flux_source, source) of the derived parabolic equation for psi = phi^j.

    ``d_x1``, ``d_x2`` and ``d_t`` are the derivatives of D's entries.
    ``drift`` multiplies grad(psi)/psi; ``source`` and ``flux_source``
    enter scaled by j as j*source + j*div(flux_source).  The terms are
    built from D, e = D grad(u), phi, grad(det(D)) and G.  The scalar
    source keeps its two sign-definite terms; nothing is dropped.
    """
    ux1, ux2 = grad_u
    phi, det_d = _phi_det_d(d, ux1, ux2, "the forcing assembly")
    d11, d12, d22 = d
    rows = ((d11, d12), (d12, d22))
    g1, g2 = quad_form(*d_x1, ux1, ux2) / phi, quad_form(*d_x2, ux1, ux2) / phi
    dg1, dg2 = matvec(rows, g1, g2)
    e1, e2 = matvec(rows, ux1, ux2)
    # grad(det(D)) by the product rule; D grad(det(D)) lives only as long as the drift needs it
    dd1, dd2 = (dk[0] * d22 + d11 * dk[2] - 2.0 * d12 * dk[1] for dk in (d_x1, d_x2))
    drift = tuple(dg + 2.0 * u_t * e / phi - d_dd / det_d
                  for dg, e, d_dd in zip((dg1, dg2), (e1, e2), matvec(rows, dd1, dd2)))

    r3 = u_t - w
    # the column divergences of D, (d_x1[0] + d_x2[1], d_x1[1] + d_x2[2]), dotted with grad(u) in the third term
    source = (
        (dd1 * dg1 + dd2 * dg2) / det_d
        + 2.0 * r3 * (dd1 * e1 + dd2 * e2) / (det_d * phi)
        - 2.0 * u_t * (u_t + (d_x1[0] + d_x2[1]) * ux1 + (d_x1[1] + d_x2[2]) * ux2 - w) / phi
        + quad_form(*d_t, ux1, ux2) / phi
        - 2.0 * r3 * (e1 * g1 + e2 * g2) / phi
        - (dg1 * g1 + dg2 * g2)
    )
    flux = (-dg1 + 2.0 * w * e1 / phi,
            -dg2 + 2.0 * w * e2 / phi)
    return drift, flux, source


# ---------------------------------------------------------------------------
# manufactured-field residual of the dissipation-power equation


# evaluation time, tensor regularization, evaluation window and |grad u| floor of the power-equation check
_POWER_T0 = 0.25
_POWER_REG_EPS = 1e-2
_POWER_BOX = (0.25, 0.75, 0.25, 0.75)
_POWER_GRAD_FLOOR = 0.5
# nodes built around the window: 2 for each of the residual's three nested fourth-order
# stencils, so the window keeps the full grid's bits (see ``power_equation_residual``)
_POWER_HALO = 6


def _power_slice(u_fn, v_fn, params: PhysParams, mesh, hx: float, hy: float, t: float):
    """u, D's entries and grad(u) of the manufactured fields at time t."""
    u = np.asarray(u_fn(*mesh, t), dtype=float)
    v1, v2 = grad_4(np.asarray(v_fn(*mesh, t), dtype=float), hx, hy)
    return u, dispersion_entries(-v2, v1, params, _POWER_REG_EPS), grad_4(u, hx, hy)


def _power_side_differences(u_fn, v_fn, params: PhysParams, mesh, hx: float, hy: float):
    """(u_t, D_t, phi at t0 - dt, phi at t0 + dt), central differences at t0 with dt = hx.

    Nothing else of the two side slices outlives the call.
    """
    (u_m, d_m, grad_m), (u_p, d_p, grad_p) = (
        _power_slice(u_fn, v_fn, params, mesh, hx, hy, t) for t in (_POWER_T0 - hx, _POWER_T0 + hx)
    )
    inv2dt = 1.0 / (2.0 * hx)
    d_t = tuple((dk_p - dk_m) * inv2dt for dk_p, dk_m in zip(d_p, d_m))
    return (u_p - u_m) * inv2dt, d_t, quad_form(*d_m, *grad_m), quad_form(*d_p, *grad_p)


def _power_shared_terms(u_fn, v_fn, params: PhysParams, grid: GridSpec):
    """(window, D, phi, phi at t0 -/+ dt, drift, source, div(flux_source)) at t0: all the powers j share.

    Everything is built on the crop of ``_POWER_BOX`` with a ``_POWER_HALO``
    halo; ``window`` is the box's slices inside it.  The slices, u_t, w, D's
    derivatives and flux_source die on return, so the per-power loop runs
    beside these arrays alone.
    """
    hx, hy = grid.hx, grid.hy
    crop, window = window_crop(grid.shape, _POWER_BOX, _POWER_HALO)
    mesh = np.meshgrid(grid.x1[crop[1]], grid.x2[crop[0]])
    u, d, grad_u = _power_slice(u_fn, v_fn, params, mesh, hx, hy, _POWER_T0)
    grad_min = np.hypot(*grad_u)[window].min()
    if grad_min < _POWER_GRAD_FLOOR:
        raise ValueError(f"|grad u| dips to {grad_min:.3g} < {_POWER_GRAD_FLOOR} on the evaluation sub-rectangle")
    u_t, d_t, phi_m, phi_p = _power_side_differences(u_fn, v_fn, params, mesh, hx, hy)
    w = u_t - contract(d, hess_4(u, hx, hy))
    d_x1, d_x2 = zip(*(grad_4(dk, hx, hy) for dk in d))
    drift, flux, source = forcing_coefficients(d, d_x1, d_x2, d_t, grad_u, u_t, w)
    return window, d, quad_form(*d, *grad_u), phi_m, phi_p, drift, source, div_4(*flux, hx, hy)


def power_equation_residual(u_fn, v_fn, params: PhysParams, js, grid: GridSpec) -> list[tuple[np.ndarray, float]]:
    """Residuals of the parabolic equation for psi = phi^j on manufactured fields, one per power j in ``js``.

    ``u_fn(x1, x2, t)`` and ``v_fn(x1, x2, t)`` are smooth manufactured
    fields; nothing is solved.  The velocity is the rotated gradient of v,
    the tensor uses the eps-regularized profile (smooth in q, so the
    identity holds for arbitrary manufactured v, including fields whose
    velocity vanishes somewhere), and w is defined as u_t - D:hess(u) so
    the identity is exact in the continuum.  Time derivatives are central
    differences at t = 0.25 with step ``grid.hx``.  Each returned residual
    over the evaluation sub-rectangle is therefore pure discretization
    error: fourth order in space, second order in the time differences.

    Only the sub-rectangle is measured, so everything is evaluated on its
    nodes plus a halo of 6: three nested fourth-order stencils (v -> D ->
    grad D -> div(flux_source), and u -> phi -> grad psi -> div(D grad psi
    / psi)) each reach 2 nodes, so every node of the sub-rectangle sees
    central stencils only and its residual has the bits of a full-grid
    build.  A halo of 5 does not.

    Everything but psi is shared by the powers: the three time slices, the
    forcing coefficients and div(flux_source) are built once per call, and
    only psi, psi_t, grad(psi) and the two sides of the equation once per
    power.  Returns ``(residual, max-norm)`` for each j, in the order of
    ``js``, each bit-identical to a call with that j alone.

    Raises ValueError if ``js`` is empty or holds a power below 1, or if
    |grad u| falls below 0.5 anywhere on the sub-rectangle (the identity
    only holds away from critical points).
    """
    js = tuple(js)
    if not js or min(js) < 1:
        raise ValueError(f"powers j must be >= 1, got {js}")
    hx, hy = grid.hx, grid.hy
    inv2dt = 1.0 / (2.0 * hx)
    window, d, phi, phi_m, phi_p, (drift1, drift2), source, div_flux = _power_shared_terms(u_fn, v_fn, params, grid)

    rows = ((d[0], d[1]), (d[1], d[2]))
    out = []
    for j in js:
        psi = phi ** j
        psi_t = (phi_p ** j - phi_m ** j) * inv2dt
        psi_x1, psi_x2 = grad_4(psi, hx, hy)
        dpsi1, dpsi2 = matvec(rows, psi_x1, psi_x2)
        lhs = psi_t / psi - div_4(dpsi1 / psi, dpsi2 / psi, hx, hy)
        rhs = (drift1 * psi_x1 + drift2 * psi_x2) / psi + j * source + j * div_flux
        out.append(windowed_residual(lhs - rhs, window))
    return out


# ---------------------------------------------------------------------------
# vector-calculus product rules on matching stencils


def _random_smooth(grid: GridSpec, rng: np.random.Generator) -> np.ndarray:
    """Sum of three separable modes c sin(a1 pi x1 / lx + ph1) cos(a2 pi x2 / ly + ph2), each factor on its own axis."""
    x1, x2 = grid.x1[None, :], grid.x2[:, None]
    out = np.zeros(grid.shape)
    for _ in range(3):
        a1, a2 = rng.uniform(0.5, 2.0, size=2)
        ph1, ph2 = rng.uniform(0.0, 2.0 * np.pi, size=2)
        c = rng.uniform(-1.0, 1.0)
        out += c * np.sin(a1 * np.pi * x1 / grid.lx + ph1) * np.cos(a2 * np.pi * x2 / grid.ly + ph2)
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
    fg, gf = matvec(((f1_1, f2_1), (f1_2, f2_2)), g1, g2), matvec(((g1_1, g2_1), (g1_2, g2_2)), f1, f2)
    r1 = dot_1 - (fg[0] + gf[0])
    r2 = dot_2 - (fg[1] + gf[1])
    out["grad-of-dot"] = _max_abs(r1, r2)

    # div(A F) = A : grad(F) + div(A) . F
    a = ((a11, a12), (a12, a22))
    af1, af2 = matvec(a, f1, f2)
    contr = a11 * f1_1 + a12 * f2_1 + a12 * f1_2 + a22 * f2_2
    out["div-of-matvec"] = _max_abs(div_4(af1, af2, hx, hy) - (contr + diva1 * f1 + diva2 * f2))

    # grad(A F) = grad(F) A^T + (A_x1 F, A_x2 F)^T, entry (i, j) = d_i (A F)_j
    af1_1, af1_2 = grad_4(af1, hx, hy)
    af2_1, af2_2 = grad_4(af2, hx, hy)
    a_f1, a1_f = matvec(a, f1_1, f2_1), matvec(((a11_1, a12_1), (a12_1, a22_1)), f1, f2)
    a_f2, a2_f = matvec(a, f1_2, f2_2), matvec(((a11_2, a12_2), (a12_2, a22_2)), f1, f2)
    r11 = af1_1 - (a_f1[0] + a1_f[0])
    r12 = af2_1 - (a_f1[1] + a1_f[1])
    r21 = af1_2 - (a_f2[0] + a2_f[0])
    r22 = af2_2 - (a_f2[1] + a2_f[1])
    out["grad-of-matvec"] = _max_abs(r11, r12, r21, r22)

    # div(u A) = u div(A) + grad(u)^T A  (row-vector identity)
    ua12, au = u * a12, matvec(a, u_1, u_2)
    r1 = div_4(u * a11, ua12, hx, hy) - (u * diva1 + au[0])
    r2 = div_4(ua12, u * a22, hx, hy) - (u * diva2 + au[1])
    out["div-of-scaled-matrix"] = _max_abs(r1, r2)

    # grad(|grad u|^2) = 2 hess(u) grad(u)
    sq_1, sq_2 = grad_4(u_1 * u_1 + u_2 * u_2, hx, hy)
    h11, h12, h22 = hess_4(u, hx, hy)
    hu1, hu2 = matvec(((h11, h12), (h12, h22)), u_1, u_2)
    r1 = sq_1 - 2.0 * hu1
    r2 = sq_2 - 2.0 * hu2
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
        for name in ("c", "b", "alpha", "y0"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
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
def _log_kernel_convolution(shape: tuple[int, int], hx: float, hy: float) -> LatticeConvolution:
    """The convolution of a (ny, nx) box of nodes with the log-kernel offset table, its spectrum taken once.

    Entry (ny - 1 + dj, nx - 1 + di) of the table is |ln|d|| hx hy at the
    offset d = (di hx, dj hy), |di| <= nx - 1, |dj| <= ny - 1; the zero offset
    holds the analytic integral over the singular cell.  The table reaches
    across the whole box, so each axis is padded to at least 3n - 2.  It
    depends only on the box shape and the spacing, so one table serves every
    box of that shape on any grid of that spacing; the key is not a
    ``GridSpec``, because a box may have fewer than 3 nodes per axis.
    """
    ny, nx = shape
    d = np.hypot(np.arange(1 - ny, ny)[:, None] * hy, np.arange(1 - nx, nx)[None, :] * hx)
    d[ny - 1, nx - 1] = 1.0
    table = np.abs(np.log(d)) * (hx * hy)
    table[ny - 1, nx - 1] = _log_cell_integral(hx, hy)
    return LatticeConvolution(table, shape)


def _true_span(mask: np.ndarray) -> slice:
    """The slice from the first to the last True entry of a 1-D mask that holds at least one."""
    idx = np.flatnonzero(mask)
    return slice(idx[0], idx[-1] + 1)


def log_kernel_average(f: ScalarField, radius: float, center: tuple[float, float]) -> float:
    """sup over nearby nodes x of the ball integral of |f(y)| |ln|x-y|| dy.

    Quadrature assigns each ball node its cell area; the singular node is
    integrated analytically over its own cell.  On the uniform lattice that
    sum is one linear convolution of |f| restricted to the ball with a table
    of |ln|d|| over the node offsets d, evaluated with zero-padded FFTs
    against the table's spectrum.  The sup is taken over grid nodes within
    twice the radius of the ball center, so the result is a lower bound for
    the true supremum over the plane.  Those nodes span a box that holds the
    ball, so the convolution runs on that box alone, with the table of the
    box's shape, cached per shape and spacing.  A non-finite radius, center
    or value of f inside the ball raises; values outside the ball are never
    read.
    """
    g = f.grid
    cx, cy = center
    if not radius > 0:
        raise ValueError("radius must be positive")
    if not (cx - radius >= 0 and cx + radius <= g.lx and cy - radius >= 0 and cy + radius <= g.ly):
        raise ValueError("ball exits the domain")
    dx2, dy2 = (g.x1 - cx) ** 2, (g.x2 - cy) ** 2
    # a column (row) holds a near node iff its node closest to the center in the other axis is near
    reach2 = (2.0 * radius) ** 2
    if not dx2.min() + dy2.min() <= reach2:
        return 0.0
    rows, cols = _true_span(dy2 + dx2.min() <= reach2), _true_span(dx2 + dy2.min() <= reach2)
    dist2 = dx2[cols][None, :] + dy2[rows][:, None]
    fv = np.where(dist2 <= radius**2, np.abs(f.values[rows, cols]), 0.0)
    if not np.isfinite(fv).all():
        raise ValueError("f is not finite inside the ball")
    conv = _log_kernel_convolution(fv.shape, g.hx, g.hy)
    return max(0.0, float(conv(fv)[dist2 <= reach2].max()))
