import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dispersim.coefficients import PhysParams
from dispersim.grid import GridSpec, ScalarField
from dispersim.identities import (
    IdentityWorkspace,
    RecursionParams,
    _log_cell_integral,
    _log_kernel_convolution,
    forcing_coefficients,
    log_kernel_average,
    power_equation_residual,
    reconstruct_hessian,
    recursion_threshold,
    sandwich_identity_residuals,
    square_decomposition_residuals,
    superlinear_recursion,
    vector_calc_residuals,
)


# --- matrix square decomposition


def test_square_decomposition_identity_matrix():
    assert square_decomposition_residuals(1.0, 0.0, 1.0) == 0.0


def test_square_decomposition_worked():
    # A = [[2,1],[1,3]]: A^2 = [[5,5],[5,10]], tr = 5, det = 5
    A = np.array([[2.0, 1.0], [1.0, 3.0]])
    assert np.trace(A) == 5.0 and A[0, 0] * A[1, 1] - A[0, 1] ** 2 == 5.0
    assert square_decomposition_residuals(2.0, 1.0, 3.0) == 0.0
    assert np.array_equal(A @ A, np.array([[5.0, 5.0], [5.0, 10.0]]))


def test_square_decomposition_randomized():
    rng = np.random.default_rng(20)
    a11, a12, a22 = rng.uniform(-10, 10, size=(3, 10_000))
    res = square_decomposition_residuals(a11, a12, a22)
    scale = 1.0 + a11**2 + 2 * a12**2 + a22**2
    assert np.max(res / scale) <= 1e-12


# --- sandwich identity


def test_sandwich_identity_exact_case():
    # D = I, S = [[0,1],[1,0]]: SDS = I, D:S = 0, det S = -1
    assert sandwich_identity_residuals(1.0, 0.0, 1.0, 0.0, 1.0, 0.0) == 0.0


def test_sandwich_identity_worked_pair():
    assert sandwich_identity_residuals(7.8, 2.4, 9.2, 2.0, 1.0, 3.0) <= 1e-10
    # direct evaluation of both sides as the oracle
    Dm = np.array([[7.8, 2.4], [2.4, 9.2]])
    Sm = np.array([[2.0, 1.0], [1.0, 3.0]])
    lhs = Sm @ Dm @ Sm
    contr = Dm[0, 0] * Sm[0, 0] + 2 * Dm[0, 1] * Sm[0, 1] + Dm[1, 1] * Sm[1, 1]
    rhs = contr * Sm - np.linalg.det(Sm) * np.linalg.det(Dm) * np.linalg.inv(Dm)
    assert np.max(np.abs(lhs - rhs)) <= 1e-10


def test_sandwich_identity_randomized():
    rng = np.random.default_rng(21)
    n = 10_000
    theta = rng.uniform(0, np.pi, n)
    l1, l2 = np.exp(rng.uniform(np.log(0.1), np.log(10), (2, n)))
    c, s = np.cos(theta), np.sin(theta)
    d11 = c**2 * l1 + s**2 * l2
    d22 = s**2 * l1 + c**2 * l2
    d12 = c * s * (l1 - l2)
    s11, s12, s22 = rng.uniform(-10, 10, size=(3, n))
    res = sandwich_identity_residuals(d11, d12, d22, s11, s12, s22)
    dnorm = np.sqrt(d11**2 + 2 * d12**2 + d22**2)
    scale = 1.0 + dnorm * (s11**2 + 2 * s12**2 + s22**2 + np.abs(s11 * s22 - s12**2))
    assert np.max(res / scale) <= 1e-10


def test_sandwich_identity_rejects_singular():
    with pytest.raises(ValueError, match="positive-definite"):
        sandwich_identity_residuals(1.0, 1.0, 1.0, 1.0, 0.0, 1.0)
    # one singular entry among positive-definite ones is enough
    d11 = np.array([2.0, 1.0, 3.0])
    d12 = np.array([0.5, 1.0, 0.0])
    with pytest.raises(ValueError, match="positive-definite"):
        sandwich_identity_residuals(d11, d12, d11, 1.0, 0.0, 1.0)


def test_sandwich_identity_rejects_negative_definite():
    # det(D) = 5.75 > 0, but both eigenvalues are negative
    with pytest.raises(ValueError, match="positive-definite"):
        sandwich_identity_residuals(-2.0, 0.5, -3.0, 1.0, 0.2, 1.0)


# --- Hessian reconstruction


def test_reconstruct_hessian_isotropic_quadratic():
    # D = I (zero velocity, m = 1), u = x1^2 + x2^2 at the point (0.3, 0.4)
    x1, x2 = 0.3, 0.4
    ux1, ux2 = 2 * x1, 2 * x2
    phi = ux1**2 + ux2**2
    # grad(phi) = 2 hess (D grad u) with hess = diag(2, 2), G = 0
    ws = IdentityWorkspace(
        ux1=ux1, ux2=ux2, u_t=0.0, w=-4.0, d11=1.0, d12=0.0, d22=1.0,
        phi_x1=2 * (2.0 * ux1), phi_x2=2 * (2.0 * ux2),
    )
    h11, h12, h22 = reconstruct_hessian(ws)
    assert h11 == pytest.approx(2.0, abs=1e-12)
    assert h12 == pytest.approx(0.0, abs=1e-12)
    assert h22 == pytest.approx(2.0, abs=1e-12)
    assert ws.det_d * ws.phi == pytest.approx(phi, rel=1e-12)  # det(D) = 1


def test_reconstruct_hessian_det_worked():
    # the (3,4)-velocity tensor with grad u = (1, 0): phi = d11 = 7.8
    ws = IdentityWorkspace(
        ux1=1.0, ux2=0.0, u_t=0.0, w=0.0, d11=7.8, d12=2.4, d22=9.2,
        phi_x1=0.0, phi_x2=0.0,
    )
    assert ws.det_d * ws.phi == pytest.approx(66.0 * 7.8, rel=1e-10)
    # no first-order data and w = u_t: the Hessian is zero
    assert reconstruct_hessian(ws) == pytest.approx((0.0, 0.0, 0.0), abs=1e-15)


def test_reconstruct_hessian_vs_linear_solve():
    rng = np.random.default_rng(22)
    n = 1000
    q1, q2 = rng.uniform(-3, 3, (2, n))
    p = PhysParams(1.0, 2.0, 1.0)
    qn = np.hypot(q1, q2)
    scale = np.where(qn > 0, (p.b - p.a) / np.where(qn > 0, qn, 1.0), 0.0)
    d11 = p.a * qn + p.m + scale * q1**2
    d12 = scale * q1 * q2
    d22 = p.a * qn + p.m + scale * q2**2
    ux1 = rng.uniform(0.3, 2.0, n) * rng.choice([-1, 1], n)
    ux2 = rng.uniform(0.3, 2.0, n) * rng.choice([-1, 1], n)
    s11, s12, s22 = rng.uniform(-2, 2, (3, n))
    g1, g2 = rng.uniform(-1, 1, (2, n))
    phi = d11 * ux1**2 + 2 * d12 * ux1 * ux2 + d22 * ux2**2
    e1 = d11 * ux1 + d12 * ux2
    e2 = d12 * ux1 + d22 * ux2
    phi_x1 = 2 * (s11 * e1 + s12 * e2) + phi * g1
    phi_x2 = 2 * (s12 * e1 + s22 * e2) + phi * g2
    u_t = rng.uniform(-1, 1, n)
    w = u_t - (d11 * s11 + 2 * d12 * s12 + d22 * s22)
    ws = IdentityWorkspace(
        ux1=ux1, ux2=ux2, u_t=u_t, w=w, d11=d11, d12=d12, d22=d22,
        d11_x1=phi * g1 / ux1**2, d11_x2=phi * g2 / ux1**2,
        phi_x1=phi_x1, phi_x2=phi_x2,
    )
    h11, h12, h22 = reconstruct_hessian(ws)
    sref = np.maximum(1.0, np.abs(s11) + np.abs(s12) + np.abs(s22))
    assert np.max(np.abs(h11 - s11) / sref) < 1e-12
    assert np.max(np.abs(h12 - s12) / sref) < 1e-12
    assert np.max(np.abs(h22 - s22) / sref) < 1e-12
    E = np.zeros((n, 3, 3))
    E[:, 0, 0], E[:, 0, 1] = e1, e2
    E[:, 1, 1], E[:, 1, 2] = e1, e2
    E[:, 2, 0], E[:, 2, 1], E[:, 2, 2] = d11, 2 * d12, d22
    rhs = np.stack([(phi_x1 - phi * g1) / 2, (phi_x2 - phi * g2) / 2, u_t - w], axis=1)
    sol = np.linalg.solve(E, rhs[..., None])[..., 0]
    assert np.max(np.abs(sol[:, 0] - h11) / sref) < 1e-12
    assert np.max(np.abs(np.linalg.det(E) - (d11 * d22 - d12**2) * phi) / ((d11 * d22 - d12**2) * phi)) < 1e-10


def test_reconstruct_hessian_requires_positive_phi():
    ws = IdentityWorkspace(ux1=0.0, ux2=0.0, u_t=0.0, w=0.0, d11=1.0, d12=0.0, d22=1.0,
                           phi_x1=0.0, phi_x2=0.0)
    with pytest.raises(ValueError, match="phi"):
        reconstruct_hessian(ws)


# --- forcing coefficients


def test_forcing_vanishes_for_constant_tensor():
    ws = IdentityWorkspace(ux1=1.0, ux2=0.5, u_t=0.0, w=0.0, d11=2.0, d12=0.3, d22=1.5)
    fc = forcing_coefficients(ws)
    for val in (fc.drift1, fc.drift2, fc.flux1, fc.flux2, fc.source):
        assert val == pytest.approx(0.0, abs=1e-15)


def test_forcing_flux_isotropic_case():
    # constant D = m I: flux_source = 2 m w grad(u) / phi exactly
    m, w = 0.7, 1.3
    ux1, ux2 = 0.8, -0.4
    ws = IdentityWorkspace(ux1=ux1, ux2=ux2, u_t=0.0, w=w, d11=m, d12=0.0, d22=m)
    fc = forcing_coefficients(ws)
    phi = m * (ux1**2 + ux2**2)
    assert fc.flux1 == pytest.approx(2 * w * m * ux1 / phi, rel=1e-14)
    assert fc.flux2 == pytest.approx(2 * w * m * ux2 / phi, rel=1e-14)


def test_forcing_condition_under_perturbation():
    rng = np.random.default_rng(23)
    base = dict(
        ux1=1.1, ux2=-0.6, u_t=0.4, w=0.2, d11=2.0, d12=0.4, d22=1.6,
        d11_x1=0.3, d12_x1=-0.1, d22_x1=0.2, d11_x2=0.1, d12_x2=0.05, d22_x2=-0.15,
        d11_t=0.02, d12_t=-0.01, d22_t=0.03,
    )
    fc0 = forcing_coefficients(IdentityWorkspace(**base))
    out0 = np.array([fc0.drift1, fc0.drift2, fc0.flux1, fc0.flux2, fc0.source])
    delta = 1e-6
    for _ in range(10):
        pert = {k: v * (1.0 + delta * rng.uniform(-1, 1)) for k, v in base.items()}
        fc = forcing_coefficients(IdentityWorkspace(**pert))
        out = np.array([fc.drift1, fc.drift2, fc.flux1, fc.flux2, fc.source])
        rel_change = np.max(np.abs(out - out0) / np.maximum(1.0, np.abs(out0)))
        assert rel_change <= 1e3 * delta
        assert np.all(np.isfinite(out))


# --- dissipation-power equation on manufactured fields


def _main_pair():
    u = lambda x1, x2, t: x1 + 0.2 * np.sin(x1 + x2) * np.exp(-t)
    v = lambda x1, x2, t: 0.1 * np.sin(np.pi * x1) * np.sin(np.pi * x2)
    return u, v


def test_power_equation_trivial():
    u = lambda x1, x2, t: 2 * x1 + x2 + 0 * t
    v = lambda x1, x2, t: np.zeros_like(x1)
    g = GridSpec(33, 33)
    _, norm = power_equation_residual(u, v, PhysParams(1, 2, 1), 1, g)
    assert norm <= 1e-12


@pytest.mark.parametrize("j", [1, 2])
def test_power_equation_refinement(j):
    u, v = _main_pair()
    norms = []
    for n in (33, 65):
        g = GridSpec(n, n)
        _, norm = power_equation_residual(u, v, PhysParams(1, 2, 1), j, g)
        norms.append(norm)
    assert norms[0] / norms[1] >= 3.0


def test_power_equation_time_dependent_tensor():
    u, _ = _main_pair()
    v = lambda x1, x2, t: 0.1 * np.sin(np.pi * x1) * np.sin(np.pi * x2) * (1.0 + 0.3 * np.exp(-t))
    norms = []
    for n in (33, 65):
        g = GridSpec(n, n)
        _, norm = power_equation_residual(u, v, PhysParams(1, 2, 1), 1, g)
        norms.append(norm)
    assert norms[0] / norms[1] >= 3.0


def test_power_equation_rejects_flat_gradient():
    u = lambda x1, x2, t: 0.01 * np.sin(x1) + 0 * t
    v = lambda x1, x2, t: np.zeros_like(x1)
    g = GridSpec(33, 33)
    with pytest.raises(ValueError, match="grad"):
        power_equation_residual(u, v, PhysParams(1, 2, 1), 1, g)


# --- vector calculus product rules


def test_product_rule_constant_vectors_trivial():
    # grad(F.G) with constant F, G: both sides vanish identically
    from dispersim.identities import deriv1_4

    g = GridSpec(17, 17)
    f1, f2, g1, g2 = 1.5, -0.5, 2.0, 3.0
    dot = np.full(g.shape, f1 * g1 + f2 * g2)
    lhs = deriv1_4(dot, g.hx, 1)
    assert np.max(np.abs(lhs)) == 0.0


def test_product_rules_refine():
    r33 = vector_calc_residuals(GridSpec(33, 33), seed=5)
    r65 = vector_calc_residuals(GridSpec(65, 65), seed=5)
    for key in r33:
        assert r33[key] / r65[key] >= 3.0, key


@pytest.mark.parametrize(
    "grid,tol",
    [(GridSpec(17, 17), 1e-12), (GridSpec(17, 25, lx=1.0, ly=0.6), 1e-10)],
    ids=["square", "unequal-spacing"],
)
def test_product_rules_polynomial_exact(grid, tol):
    # grad(|grad u|^2) vs 2 hess(u) grad(u) for u = x1^2 + x1 x2: both sides exact.  The square
    # grid's power-of-two spacing is exact in binary; hy = 0.025 is not, and its rounding, about
    # 2e-11 through two differentiations, sets that grid's tolerance.  On the unequal spacing a
    # helper that swapped h1 and h2 would miss the exact derivatives by O(1)
    from dispersim.identities import div_4, grad_4, hess_4

    x1, x2 = grid.nodes()
    hx, hy = grid.hx, grid.hy
    u = x1**2 + x1 * x2
    u1, u2 = grad_4(u, hx, hy)
    sq = u1**2 + u2**2
    lhs1, lhs2 = grad_4(sq, hx, hy)
    h11, h12, h22 = hess_4(u, hx, hy)
    assert np.max(np.abs(lhs1 - 2 * (h11 * u1 + h12 * u2))) < tol
    assert np.max(np.abs(lhs2 - 2 * (h12 * u1 + h22 * u2))) < tol

    # fourth-order stencils, one-sided closures included, differentiate a quartic exactly
    q = x1**4 + 2 * x1**2 * x2**2 - x1 * x2**3 + 3 * x2**4 + x1 * x2
    w = x1 * x2**3
    q1 = 4 * x1**3 + 4 * x1 * x2**2 - x2**3 + x2
    q2 = 4 * x1**2 * x2 - 3 * x1 * x2**2 + 12 * x2**3 + x1
    exact = {
        "q_1": q1,
        "q_2": q2,
        "q_11": 12 * x1**2 + 4 * x2**2,
        "q_12": 8 * x1 * x2 - 3 * x2**2 + 1,
        "q_22": 4 * x1**2 - 6 * x1 * x2 + 36 * x2**2,
        "div(q, w)": q1 + 3 * x1 * x2**2,
    }
    got = dict(zip(("q_1", "q_2"), grad_4(q, hx, hy)))
    got.update(zip(("q_11", "q_12", "q_22"), hess_4(q, hx, hy)))
    got["div(q, w)"] = div_4(q, w, hx, hy)
    for key, ref in exact.items():
        assert np.max(np.abs(got[key] - ref)) < 1e-9, key


# --- geometric recursion


def test_recursion_worked_case():
    seq, converged = superlinear_recursion(RecursionParams(1.0, 2.0, 1.0, 0.5), 60)
    assert seq[1] == 0.25 and seq[2] == 0.125 and seq[3] == 0.0625
    assert converged and seq[-1] < 1e-12
    assert recursion_threshold(1.0, 2.0, 1.0) == 0.5


def test_recursion_zero_start():
    seq, converged = superlinear_recursion(RecursionParams(1.0, 2.0, 1.0, 0.0), 20)
    assert np.all(seq == 0.0) and converged


def test_recursion_divergent_above_threshold():
    seq, converged = superlinear_recursion(RecursionParams(1.0, 2.0, 1.0, 0.6), 40)
    assert not converged
    assert seq[4] == pytest.approx(0.578, abs=1e-3)
    assert seq[5] == pytest.approx(5.34, abs=1e-2)


def test_recursion_threshold_property():
    rng = np.random.default_rng(24)
    for _ in range(200):
        c = float(np.exp(rng.uniform(np.log(0.1), np.log(10))))
        b = float(rng.uniform(1.3, 5.0))
        alpha = float(rng.uniform(0.5, 2.0))
        y0 = recursion_threshold(c, b, alpha) * rng.uniform(0, 1)
        _, converged = superlinear_recursion(RecursionParams(c, b, alpha, y0), 600)
        assert converged


def test_recursion_param_validation():
    with pytest.raises(ValueError):
        RecursionParams(1.0, 1.0, 1.0, 0.1)  # b must exceed 1
    with pytest.raises(ValueError):
        RecursionParams(-1.0, 2.0, 1.0, 0.1)


# --- log-kernel averages


def _pairwise_log_kernel_average(f, radius, center):
    """Reference: the sum over every (sup node, ball node) pair, in chunks of sup nodes."""
    g = f.grid
    cx, cy = center
    x1m, x2m = g.nodes()
    ball = (x1m - cx) ** 2 + (x2m - cy) ** 2 <= radius**2
    ys1 = x1m[ball]
    ys2 = x2m[ball]
    fv = np.abs(f.values[ball])
    area = g.hx * g.hy
    self_term = _log_cell_integral(g.hx, g.hy)

    near = (x1m - cx) ** 2 + (x2m - cy) ** 2 <= (2.0 * radius) ** 2
    xs1 = x1m[near]
    xs2 = x2m[near]
    best = 0.0
    chunk = 256
    for start in range(0, xs1.size, chunk):
        c1 = xs1[start:start + chunk][:, None]
        c2 = xs2[start:start + chunk][:, None]
        d = np.hypot(ys1[None, :] - c1, ys2[None, :] - c2)
        singular = d == 0.0
        kern = np.zeros_like(d)
        np.log(d, out=kern, where=~singular)
        np.abs(kern, out=kern)
        vals = (fv[None, :] * kern).sum(axis=1) * area
        vals += (fv[None, :] * singular).sum(axis=1) * self_term
        best = max(best, float(vals.max()))
    return best


@st.composite
def _log_kernel_case(draw):
    nx = draw(st.integers(9, 41))
    ny = draw(st.integers(9, 41).filter(lambda n: n != nx))
    lx = draw(st.floats(0.3, 2.5).filter(lambda v: v != 1.0))
    ly = draw(st.floats(0.3, 2.5).filter(lambda v: v != 1.0))
    g = GridSpec(nx, ny, lx, ly)
    radius = draw(st.floats(0.02, 1.0)) * min(lx, ly) / 2.0
    cx = radius + draw(st.floats(0.0, 1.0)) * (lx - 2.0 * radius)
    cy = radius + draw(st.floats(0.0, 1.0)) * (ly - 2.0 * radius)
    assume(cx - radius >= 0 and cx + radius <= lx and cy - radius >= 0 and cy + radius <= ly)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    f = ScalarField(g, draw(st.floats(0.1, 10.0)) * rng.standard_normal(g.shape))
    return f, radius, (cx, cy)


@settings(max_examples=40, deadline=None)
@given(_log_kernel_case())
def test_log_kernel_matches_pairwise_sum(case):
    f, radius, center = case
    got = log_kernel_average(f, radius, center)
    ref = _pairwise_log_kernel_average(f, radius, center)
    if ref == 0.0:
        assert got == 0.0
    else:
        assert abs(got - ref) <= 1e-13 * ref


@pytest.mark.parametrize("radius", [0.2, 0.1])
def test_log_kernel_constant_field_closed_form(radius):
    # f = 1: the sup sits at the ball centre, where the integral is pi r^2 (1/2 - ln r)
    g = GridSpec(129, 129)
    eta = log_kernel_average(ScalarField.full(g, 1.0), radius, (0.5, 0.5))
    exact = np.pi * radius**2 * (0.5 - np.log(radius))
    assert abs(eta - exact) <= 2e-2 * exact


def test_log_kernel_no_node_near_returns_zero():
    # h = 0.125: the nearest node is 0.088 from the centre, beyond 2r = 0.02
    g = GridSpec(9, 9)
    assert log_kernel_average(ScalarField.full(g, 1.0), 0.01, (0.0625, 0.0625)) == 0.0


def test_log_kernel_rejects_nan_radius():
    g = GridSpec(33, 33)
    with pytest.raises(ValueError, match="radius"):
        log_kernel_average(ScalarField.full(g, 1.0), float("nan"), (0.5, 0.5))


def test_log_kernel_rejects_nan_center():
    g = GridSpec(33, 33)
    with pytest.raises(ValueError, match="ball"):
        log_kernel_average(ScalarField.full(g, 1.0), 0.1, (float("nan"), 0.5))


def test_log_kernel_rejects_nan_inside_ball():
    # ScalarField checks its values only when built, so write the NaN afterwards
    g = GridSpec(33, 33)
    f = ScalarField.full(g, 1.0)
    f.values[0, 0] = np.nan  # outside the ball: never read
    assert log_kernel_average(f, 0.1, (0.5, 0.5)) == log_kernel_average(ScalarField.full(g, 1.0), 0.1, (0.5, 0.5))
    f.values[16, 16] = np.nan
    with pytest.raises(ValueError, match="not finite"):
        log_kernel_average(f, 0.1, (0.5, 0.5))


def test_log_kernel_spectrum_cached_per_grid():
    conv = _log_kernel_convolution(GridSpec(33, 21, 1.3, 0.7))
    assert _log_kernel_convolution(GridSpec(33, 21, 1.3, 0.7)) is conv
    assert conv.padded[0] >= 3 * 21 - 2 and conv.padded[1] >= 3 * 33 - 2
    assert not conv.spectrum.flags.writeable


def test_log_kernel_zero_field():
    g = GridSpec(65, 65)
    assert log_kernel_average(ScalarField.full(g, 0.0), 0.1, (0.5, 0.5)) == 0.0


def test_log_kernel_monotone_in_radius():
    g = GridSpec(65, 65)
    f = ScalarField.full(g, 1.0)
    e1 = log_kernel_average(f, 0.1, (0.5, 0.5))
    e2 = log_kernel_average(f, 0.05, (0.5, 0.5))
    assert 0.0 < e2 < e1


def test_log_kernel_ball_must_fit():
    g = GridSpec(33, 33)
    with pytest.raises(ValueError, match="ball"):
        log_kernel_average(ScalarField.full(g, 1.0), 0.3, (0.1, 0.5))
