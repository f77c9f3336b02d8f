"""Boundary-chart machinery: analytic diffeomorphisms, transformed equations, reflections.

A ``Chart`` carries a forward map g, its inverse f, and their analytic
derivatives.  Gradient-style matrices follow the convention

    grad_fwd(x)[i][j] = d g_j / d x_i,     grad_inv(eta)[i][j] = d f_j / d eta_i,

so chain rules read grad(v)(x) = grad_fwd(x) @ grad(v_tilde)(g(x)) and the
inverse-function identity is grad_inv(eta) @ grad_fwd(f(eta)) = I.

The transformed-equation residuals check that the flattened-coordinate
form of each equation agrees with the original-coordinate form:

* Poisson: for an analytic pair with lap(v) = u_x1 exactly, the
  transformed expression div(J^T J grad v~) + (h1, h2).q~ minus the
  transformed right-hand side is pure discretization error;
* transport: for arbitrary analytic (u, v), the flattened expression

      u~_t - (J^T D~ J) : hess(u~) - div(J^T D~ J) . grad(u~)
            - (h2, -h1) . (D~ J grad u~) + (J grad u~) . q~

  equals u_t - div(D grad u) + grad(u).q evaluated at the mapped points,
  so the finite-difference evaluation of the former minus the analytic
  value of the latter converges to zero under grid refinement.
  ``transport_pair`` is the one manufactured (u, v) pair these residuals
  are evaluated on.

The scalars h1, h2 absorb the second derivatives of the chart:

    h1 =  sum_k d/d eta_k [ (g-row-2 of grad_fwd) composed with f ]
    h2 = -sum_k d/d eta_k [ (g-row-1 of grad_fwd) composed with f ]

expanded through the chain rule against grad_inv; they vanish for affine
charts.  ``reflect_extend`` doubles a field across the flattening line by
even or odd reflection.

Chart matrices are rows of arrays; their products, determinants and the
congruences K = J^T J and M = J^T D J come from ``identities.matvec``,
``det2`` and ``congruence``.  The pointwise checks draw their samples and
Jacobians from one ``_sampled_jacobians``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from types import SimpleNamespace
from typing import Callable

import numpy as np

from .coefficients import PhysParams, dispersion_entries
from .grid import GridSpec, ScalarField
from .identities import congruence, contract, det2, div_4, grad_4, hess_4, matvec, window_crop, windowed_residual

# eta-rectangle (lo1, hi1, lo2, hi2) every chart is sampled and meshed on; the plain
# transport residual uses it in x, so the identity chart reproduces it bit for bit
ETA_RECT = (0.1, 0.9, 0.1, 0.9)
# evaluation window of the transformed residuals: drops the one-sided stencil closures
_CENTRAL_BOX = (0.15, 0.85, 0.15, 0.85)
# nodes a chart mesh keeps around that window: 2 for each of the residuals' two nested
# fourth-order stencils, so the window keeps the full mesh's bits (see ``chart_mesh``)
_CHART_HALO = 4
# points sampled by the pointwise chart identities, besides the four corners
_N_SAMPLES = 1000
# time and physical parameters of the manufactured transport residuals
_TRANSPORT_T = 0.25
_TRANSPORT_PHYS = PhysParams(1.0, 2.0, 1.0)


@dataclass(frozen=True)
class Chart:
    """Analytic diffeomorphism fixture with explicit inverse and derivatives."""

    name: str
    fwd: Callable  # (x1, x2) -> (eta1, eta2)
    inv: Callable  # (eta1, eta2) -> (x1, x2)
    grad_fwd: Callable  # (x1, x2) -> ((g1_x1, g2_x1), (g1_x2, g2_x2))
    grad_inv: Callable  # (eta1, eta2) -> ((f1_e1, f2_e1), (f1_e2, f2_e2))
    hess_fwd: Callable  # (x1, x2) -> ((g1_x1x1, g1_x1x2, g1_x2x2), (g2_x1x1, g2_x1x2, g2_x2x2))


def identity_chart() -> Chart:
    return replace(shear_chart(0.0), name="identity")


def shear_chart(kappa: float = 0.2) -> Chart:
    one = lambda a, b: np.ones_like(np.asarray(a, dtype=float))
    zero = lambda a, b: np.zeros_like(np.asarray(a, dtype=float))
    return Chart(
        name="shear",
        fwd=lambda x1, x2: (np.asarray(x1, dtype=float), np.asarray(x2, dtype=float) + kappa * np.asarray(x1)),
        inv=lambda e1, e2: (np.asarray(e1, dtype=float), np.asarray(e2, dtype=float) - kappa * np.asarray(e1)),
        grad_fwd=lambda x1, x2: ((one(x1, x2), kappa * one(x1, x2)), (zero(x1, x2), one(x1, x2))),
        grad_inv=lambda e1, e2: ((one(e1, e2), -kappa * one(e1, e2)), (zero(e1, e2), one(e1, e2))),
        hess_fwd=lambda x1, x2: ((zero(x1, x2),) * 3, (zero(x1, x2),) * 3),
    )


def exponential_chart() -> Chart:
    def fwd(x1, x2):
        x1 = np.asarray(x1, dtype=float)
        x2 = np.asarray(x2, dtype=float)
        return x1 * np.exp(x2), x2.copy()

    def inv(e1, e2):
        e1 = np.asarray(e1, dtype=float)
        e2 = np.asarray(e2, dtype=float)
        return e1 * np.exp(-e2), e2.copy()

    def grad_fwd(x1, x2):
        x1 = np.asarray(x1, dtype=float)
        ex = np.exp(np.asarray(x2, dtype=float))
        z = np.zeros_like(ex)
        return ((ex, z), (x1 * ex, np.ones_like(ex)))

    def grad_inv(e1, e2):
        e1 = np.asarray(e1, dtype=float)
        em = np.exp(-np.asarray(e2, dtype=float))
        z = np.zeros_like(em)
        return ((em, z), (-e1 * em, np.ones_like(em)))

    def hess_fwd(x1, x2):
        x1 = np.asarray(x1, dtype=float)
        ex = np.exp(np.asarray(x2, dtype=float))
        z = np.zeros_like(ex)
        return ((z, ex, x1 * ex), (z, z, z))

    return Chart("exponential", fwd, inv, grad_fwd, grad_inv, hess_fwd)


def builtin_charts() -> tuple[Chart, Chart, Chart]:
    return identity_chart(), shear_chart(), exponential_chart()


def _sampled_jacobians(chart: Chart, seed: int):
    """x = f(eta), grad_inv(eta) and grad_fwd(x) at ``_N_SAMPLES`` random eta in ``ETA_RECT`` and its four corners."""
    lo1, hi1, lo2, hi2 = ETA_RECT
    rng = np.random.default_rng(seed)
    e1 = np.concatenate([rng.uniform(lo1, hi1, size=_N_SAMPLES), [lo1, lo1, hi1, hi1]])
    e2 = np.concatenate([rng.uniform(lo2, hi2, size=_N_SAMPLES), [lo2, hi2, lo2, hi2]])
    x1, x2 = chart.inv(e1, e2)
    return x1, x2, chart.grad_inv(e1, e2), chart.grad_fwd(x1, x2)


def jacobian_identity_residual(chart: Chart, seed: int = 0) -> float:
    """max-norm of grad_inv(eta) @ grad_fwd(f(eta)) - I over sampled chart points."""
    _, _, jf, jg = _sampled_jacobians(chart, seed)
    cols = [matvec(jf, jg[0][k], jg[1][k]) for k in range(2)]  # the columns of the product
    return max(float(np.max(np.abs(cols[k][i] - float(i == k)))) for i in range(2) for k in range(2))


def det_product_residual(chart: Chart, seed: int = 0) -> float:
    """max-norm of det(grad_inv)(eta) * det(grad_fwd)(f(eta)) - 1."""
    _, _, jf, jg = _sampled_jacobians(chart, seed)
    return float(np.max(np.abs(det2(jf) * det2(jg) - 1.0)))


def pushforward_gradient_residual(chart: Chart, grad_u: Callable, seed: int = 0) -> float:
    """Check grad(u)(x) = grad_fwd(x) @ grad(u o f)(g(x)) for an analytic gradient.

    grad(u o f) is expanded through the chain rule with grad_inv, so the
    residual reduces to (I - grad_fwd grad_inv) grad(u) at mapped points.
    """
    x1, x2, jf, jg = _sampled_jacobians(chart, seed)
    gu1, gu2 = grad_u(x1, x2)
    # grad(u o f)(eta) = grad_inv(eta) @ grad(u)(f(eta))
    t1, t2 = matvec(jf, gu1, gu2)
    jt1, jt2 = matvec(jg, t1, t2)
    r1 = gu1 - jt1
    r2 = gu2 - jt2
    return float(max(np.max(np.abs(r1)), np.max(np.abs(r2))))


def _rect_axes(rect: tuple[float, float, float, float], n: int):
    """The n node coordinates along each axis of ``rect`` = (lo1, hi1, lo2, hi2), and the two spacings."""
    lo1, hi1, lo2, hi2 = rect
    return np.linspace(lo1, hi1, n), np.linspace(lo2, hi2, n), (hi1 - lo1) / (n - 1), (hi2 - lo2) / (n - 1)


def chart_mesh(chart: Chart, n: int):
    """The mesh of ``ETA_RECT`` under ``chart`` near its window, as ``(h1m, h2m, x1, x2, jg, h1, h2, window)``.

    h1m, h2m are the eta spacings, (x1, x2) = f(eta) the preimages of the
    nodes, jg = grad_fwd(x), h1, h2 the flattening scalars and ``window``
    the slices of ``_CENTRAL_BOX`` in the mesh; both transformed residuals
    take it, so one build serves both at a level.

    Only the window is measured, so the mesh holds its nodes plus a halo of
    4, cut from the full n x n ``linspace`` mesh (the same floats): the
    residuals nest two fourth-order stencils (grad v -> div(K grad v),
    grad v -> D -> div(J^T D J), and the mixed entry of ``hess_4``), each
    reaching 2 nodes, so every window node sees central stencils only and
    its residual has the bits of a full-mesh build.  A halo of 3 does not.
    """
    e1, e2, h1m, h2m = _rect_axes(ETA_RECT, n)
    crop, window = window_crop((n, n), _CENTRAL_BOX, _CHART_HALO)
    E1, E2 = np.meshgrid(e1[crop[1]], e2[crop[0]])
    x1, x2 = chart.inv(E1, E2)
    jg = chart.grad_fwd(x1, x2)
    jf = chart.grad_inv(E1, E2)
    g1h, g2h = chart.hess_fwd(x1, x2)
    h1 = g1h[1] * jf[0][0] + g1h[2] * jf[0][1] + g2h[1] * jf[1][0] + g2h[2] * jf[1][1]
    h2 = -(g1h[0] * jf[0][0] + g1h[1] * jf[0][1] + g2h[0] * jf[1][0] + g2h[1] * jf[1][1])
    return h1m, h2m, x1, x2, jg, h1, h2, window


def transformed_poisson_residual(mesh, v_fn: Callable, u_fn: Callable) -> tuple[np.ndarray, float]:
    """Residual of the flattened Poisson relation on an analytic exact pair, on a ``chart_mesh``.

    ``v_fn(x1, x2)`` must satisfy lap(v) = d u/d x1 exactly for ``u_fn``;
    the returned residual over the mesh's window is then pure
    finite-difference error.
    """
    h1m, h2m, x1, x2, jg, h1, h2, window = mesh
    vt = np.asarray(v_fn(x1, x2), dtype=float)
    ut = np.asarray(u_fn(x1, x2), dtype=float)
    vt_1, vt_2 = grad_4(vt, h1m, h2m)
    ut_1, ut_2 = grad_4(ut, h1m, h2m)
    # K = (grad_fwd)^T (grad_fwd) composed with f
    k11, k12, k22 = congruence(jg, (1.0, 0.0, 1.0))
    p1, p2 = matvec(((k11, k12), (k12, k22)), vt_1, vt_2)
    div_p = div_4(p1, p2, h1m, h2m)
    beta1, beta2 = matvec(jg, vt_1, vt_2)
    qt1, qt2 = -beta2, beta1
    rhs = matvec(jg, ut_1, ut_2)[0]
    return windowed_residual(div_p + h1 * qt1 + h2 * qt2 - rhs, window)


def transport_pair(x1, x2, t: float) -> SimpleNamespace:
    """The manufactured (u, v) pair of the transport residuals and every derivative they need, at (x1, x2, t).

    A polynomial pair with |q| bounded away from zero on the built-in charts.
    """
    return SimpleNamespace(
        u=(x1**2 + x1 * x2 / 3.0) * (1.0 + t),
        u_t=x1**2 + x1 * x2 / 3.0,
        u_x1=(2.0 * x1 + x2 / 3.0) * (1.0 + t),
        u_x2=(x1 / 3.0) * (1.0 + t),
        u_x1x1=2.0 * (1.0 + t) * np.ones_like(x1),
        u_x1x2=(1.0 + t) / 3.0 * np.ones_like(x1),
        u_x2x2=np.zeros_like(x1),
        v=(x1 * x2**2 + x1**2) / 7.0,
        v_x1=(x2**2 + 2.0 * x1) / 7.0,
        v_x2=2.0 * x1 * x2 / 7.0,
        v_x1x1=2.0 / 7.0 * np.ones_like(x1),
        v_x1x2=2.0 * x2 / 7.0,
        v_x2x2=2.0 * x1 / 7.0,
    )


def transport_expression_x(fix: SimpleNamespace, p: PhysParams) -> np.ndarray:
    """Analytic value of u_t - div(D grad u) + grad(u).q in original coordinates, for a ``transport_pair``.

    Written in the split form u_t - D:hess(u) - div(D).grad(u) + grad(u).q;
    the tensor derivatives come from the chain rule through q.
    """
    q1, q2 = -fix.v_x2, fix.v_x1
    q1_1, q1_2 = -fix.v_x1x2, -fix.v_x2x2
    q2_1, q2_2 = fix.v_x1x1, fix.v_x1x2
    qn = np.hypot(q1, q2)
    d11, d12, d22 = dispersion_entries(q1, q2, p)
    ba = p.b - p.a

    def d_entries_deriv(dq1, dq2):
        dqn = (q1 * dq1 + q2 * dq2) / qn
        dd11 = p.a * dqn + ba * (2.0 * q1 * dq1 / qn - q1 * q1 * dqn / qn**2)
        dd12 = ba * ((dq1 * q2 + q1 * dq2) / qn - q1 * q2 * dqn / qn**2)
        dd22 = p.a * dqn + ba * (2.0 * q2 * dq2 / qn - q2 * q2 * dqn / qn**2)
        return dd11, dd12, dd22

    d11_1, d12_1, d22_1 = d_entries_deriv(q1_1, q2_1)
    d11_2, d12_2, d22_2 = d_entries_deriv(q1_2, q2_2)
    div_d1 = d11_1 + d12_2
    div_d2 = d12_1 + d22_2
    ux1, ux2 = fix.u_x1, fix.u_x2
    return (
        fix.u_t
        - contract((d11, d12, d22), (fix.u_x1x1, fix.u_x1x2, fix.u_x2x2))
        - (div_d1 * ux1 + div_d2 * ux2)
        + (ux1 * q1 + ux2 * q2)
    )


def transformed_transport_residual(mesh) -> tuple[np.ndarray, float]:
    """Flattened-minus-original transport expression on a ``chart_mesh``; converges to zero under refinement.

    The flattened expression is evaluated by finite differences on the eta
    mesh, the original one analytically at the chart's preimages of its
    nodes; the residual is returned over the mesh's window.
    """
    p = _TRANSPORT_PHYS
    h1m, h2m, x1, x2, jg, h1, h2, window = mesh
    fix = transport_pair(x1, x2, _TRANSPORT_T)
    ut_1, ut_2 = grad_4(fix.u, h1m, h2m)
    vt_1, vt_2 = grad_4(fix.v, h1m, h2m)
    beta1, beta2 = matvec(jg, vt_1, vt_2)
    qt1, qt2 = -beta2, beta1
    d11, d12, d22 = dispersion_entries(qt1, qt2, p)
    m11, m12, m22 = congruence(jg, (d11, d12, d22))  # M = J^T D J
    div_m1 = div_4(m11, m12, h1m, h2m)
    div_m2 = div_4(m12, m22, h1m, h2m)
    jgu1, jgu2 = matvec(jg, ut_1, ut_2)
    y1, y2 = matvec(((d11, d12), (d12, d22)), jgu1, jgu2)
    expr = (
        fix.u_t
        - contract((m11, m12, m22), hess_4(fix.u, h1m, h2m))
        - (div_m1 * ut_1 + div_m2 * ut_2)
        - (h2 * y1 - h1 * y2)
        + (jgu1 * qt1 + jgu2 * qt2)
    )
    return windowed_residual(expr - transport_expression_x(fix, p), window)


def plain_transport_residual(n: int) -> tuple[np.ndarray, float]:
    """Untransformed counterpart: finite differences in the original coordinates.

    Computes u_t - D:hess(u) - div(D).grad(u) + grad(u).q by finite
    differences on the whole uniform ``ETA_RECT`` mesh minus the analytic
    value, the uncropped reference: with the identity chart,
    ``transformed_transport_residual`` reproduces this field bit for bit.
    """
    p = _TRANSPORT_PHYS
    e1, e2, h1, h2 = _rect_axes(ETA_RECT, n)
    fix = transport_pair(*np.meshgrid(e1, e2), _TRANSPORT_T)
    u_1, u_2 = grad_4(fix.u, h1, h2)
    v_1, v_2 = grad_4(fix.v, h1, h2)
    q1, q2 = -v_2, v_1
    d11, d12, d22 = dispersion_entries(q1, q2, p)
    div_d1 = div_4(d11, d12, h1, h2)
    div_d2 = div_4(d12, d22, h1, h2)
    expr = (
        fix.u_t
        - contract((d11, d12, d22), hess_4(fix.u, h1, h2))
        - (div_d1 * u_1 + div_d2 * u_2)
        + (u_1 * q1 + u_2 * q2)
    )
    return windowed_residual(expr - transport_expression_x(fix, p), window_crop((n, n), _CENTRAL_BOX, 0)[0])


# ---------------------------------------------------------------------------
# even/odd reflection across the flattening line


def reflect_extend(f: ScalarField, parity: str) -> ScalarField:
    """Extend a field given on x1 in [0, lx] to the doubled rectangle.

    The output grid has 2*nx - 1 nodes and length 2*lx in the first axis;
    the original x1 = 0 line sits at the center column (output x1 = lx).
    Even extension mirrors values, odd extension mirrors with a sign flip
    and requires a vanishing trace on the reflection line.
    """
    if parity not in ("even", "odd"):
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    g = f.grid
    if parity == "odd":
        trace = float(np.max(np.abs(f.values[:, 0])))
        if trace > 1e-12:
            raise ValueError(f"odd extension needs a zero trace on the reflection line, got {trace:.3g}")
    doubled = GridSpec(2 * g.nx - 1, g.ny, lx=2.0 * g.lx, ly=g.ly)
    out = np.empty(doubled.shape)
    out[:, g.nx - 1:] = f.values
    if parity == "even":
        out[:, : g.nx - 1] = f.values[:, :0:-1]
    else:
        out[:, : g.nx - 1] = -f.values[:, :0:-1]
        out[:, g.nx - 1] = 0.0
    return ScalarField(doubled, out)
