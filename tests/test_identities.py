import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dispersim import identities
from dispersim.coefficients import PhysParams
from dispersim.grid import GridSpec, ScalarField, quad_form
from dispersim.identities import (
    RecursionParams,
    _log_cell_integral,
    _log_kernel_convolution,
    _random_smooth,
    congruence,
    deriv1_4,
    deriv2_4,
    det2,
    forcing_coefficients,
    log_kernel_average,
    matvec,
    power_equation_residual,
    reconstruct_hessian,
    recursion_threshold,
    sandwich_identity_residuals,
    square_decomposition_residuals,
    superlinear_recursion,
    vector_calc_residuals,
    window_crop,
)


# --- fourth-order stencils, bit for bit against the transposed one-expression form


def _deriv1_transposed(values, h, axis):
    """deriv1_4 written along axis 1, with axis 0 through the transpose, each row block one expression."""
    if axis == 0:
        return _deriv1_transposed(values.T, h, 1).T
    v, s = values, 1.0 / (12.0 * h)
    out = np.empty_like(v)
    out[:, 2:-2] = (v[:, :-4] - 8.0 * v[:, 1:-3] + 8.0 * v[:, 3:-1] - v[:, 4:]) * s
    out[:, 0] = (-25.0 * v[:, 0] + 48.0 * v[:, 1] - 36.0 * v[:, 2] + 16.0 * v[:, 3] - 3.0 * v[:, 4]) * s
    out[:, 1] = (-3.0 * v[:, 0] - 10.0 * v[:, 1] + 18.0 * v[:, 2] - 6.0 * v[:, 3] + v[:, 4]) * s
    out[:, -2] = (3.0 * v[:, -1] + 10.0 * v[:, -2] - 18.0 * v[:, -3] + 6.0 * v[:, -4] - v[:, -5]) * s
    out[:, -1] = (25.0 * v[:, -1] - 48.0 * v[:, -2] + 36.0 * v[:, -3] - 16.0 * v[:, -4] + 3.0 * v[:, -5]) * s
    return out


def _deriv2_transposed(values, h, axis):
    """deriv2_4 written along axis 1, with axis 0 through the transpose, each row block one expression."""
    if axis == 0:
        return _deriv2_transposed(values.T, h, 1).T
    v, s = values, 1.0 / (12.0 * h * h)
    out = np.empty_like(v)
    out[:, 2:-2] = (-v[:, :-4] + 16.0 * v[:, 1:-3] - 30.0 * v[:, 2:-2] + 16.0 * v[:, 3:-1] - v[:, 4:]) * s
    out[:, 0] = (45.0 * v[:, 0] - 154.0 * v[:, 1] + 214.0 * v[:, 2] - 156.0 * v[:, 3] + 61.0 * v[:, 4]
                 - 10.0 * v[:, 5]) * s
    out[:, 1] = (10.0 * v[:, 0] - 15.0 * v[:, 1] - 4.0 * v[:, 2] + 14.0 * v[:, 3] - 6.0 * v[:, 4] + v[:, 5]) * s
    out[:, -2] = (10.0 * v[:, -1] - 15.0 * v[:, -2] - 4.0 * v[:, -3] + 14.0 * v[:, -4] - 6.0 * v[:, -5]
                  + v[:, -6]) * s
    out[:, -1] = (45.0 * v[:, -1] - 154.0 * v[:, -2] + 214.0 * v[:, -3] - 156.0 * v[:, -4] + 61.0 * v[:, -5]
                  - 10.0 * v[:, -6]) * s
    return out


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@settings(max_examples=80, deadline=None)
@given(order=st.sampled_from([1, 2]), data=st.data(), axis=st.sampled_from([0, 1]), h=st.floats(1e-3, 10.0),
       seed=st.integers(0, 2**32 - 1))
def test_stencils_match_the_transposed_form_bit_for_bit(order, data, axis, h, seed):
    # 5 (6 for the second derivative) to 40 nodes per axis, about a fifth of the entries +0.0 or -0.0
    shape = tuple(data.draw(st.integers(4 + order, 40)) for _ in range(2))
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3)
    values[rng.uniform(size=shape) < 0.1] = 0.0
    values[rng.uniform(size=shape) < 0.1] = -0.0
    new, old = (deriv1_4, _deriv1_transposed) if order == 1 else (deriv2_4, _deriv2_transposed)
    assert _same_bits(new(values, h, axis), old(values, h, axis))


def _random_smooth_on_meshgrid(grid, rng):
    """_random_smooth with both factors of each mode evaluated on the full node mesh."""
    x1m, x2m = grid.nodes()
    out = np.zeros(grid.shape)
    for _ in range(3):
        a1, a2 = rng.uniform(0.5, 2.0, size=2)
        ph1, ph2 = rng.uniform(0.0, 2.0 * np.pi, size=2)
        c = rng.uniform(-1.0, 1.0)
        out += c * np.sin(a1 * np.pi * x1m / grid.lx + ph1) * np.cos(a2 * np.pi * x2m / grid.ly + ph2)
    return out


@pytest.mark.parametrize("n", [17, 33, 65, 129])
@pytest.mark.parametrize("seed", [0, 1, 20250810])
def test_random_smooth_matches_its_meshgrid_form_bit_for_bit(n, seed):
    grid = GridSpec(n, n)
    rng_new, rng_old = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(2):  # the second field starts where the first left the generator
        assert _same_bits(_random_smooth(grid, rng_new), _random_smooth_on_meshgrid(grid, rng_old))


# --- pointwise 2x2 helpers against numpy's dense algebra


def _rows(m):
    """A stack of shape (n, 2, 2) as the rows ((m11, m12), (m21, m22)) the helpers take."""
    return (m[:, 0, 0], m[:, 0, 1]), (m[:, 1, 0], m[:, 1, 1])


_STACKS = dict(n=st.integers(1, 64), seed=st.integers(0, 2**32 - 1), scale=st.floats(1e-3, 1e3))


@settings(max_examples=60, deadline=None)
@given(**_STACKS)
def test_matvec_and_det2_match_numpy(n, seed, scale):
    rng = np.random.default_rng(seed)
    m = scale * rng.standard_normal((n, 2, 2))
    w = rng.standard_normal((n, 2))
    got = np.stack(matvec(_rows(m), w[:, 0], w[:, 1]), axis=1)
    ref = np.einsum("nij,nj->ni", m, w)
    assert np.all(np.abs(got - ref) <= 1e-15 * np.einsum("nij,nj->ni", np.abs(m), np.abs(w)))
    det_ref = np.linalg.det(m)
    assert np.all(np.abs(det2(_rows(m)) - det_ref) <= 1e-14 * (np.abs(m[:, 0, 0] * m[:, 1, 1]) + np.abs(m[:, 0, 1] * m[:, 1, 0])))


@settings(max_examples=60, deadline=None)
@given(**_STACKS)
def test_congruence_and_quad_form_match_numpy(n, seed, scale):
    rng = np.random.default_rng(seed)
    j = rng.standard_normal((n, 2, 2))
    a = scale * rng.standard_normal((n, 2, 2))
    a = a + a.transpose(0, 2, 1)
    sym = (a[:, 0, 0], a[:, 0, 1], a[:, 1, 1])
    got = congruence(_rows(j), sym)
    ref = j.transpose(0, 2, 1) @ a @ j
    bound = 1e-14 * (np.abs(j).transpose(0, 2, 1) @ np.abs(a) @ np.abs(j))
    for k, (r, c) in enumerate(((0, 0), (0, 1), (1, 1))):
        assert np.all(np.abs(got[k] - ref[:, r, c]) <= bound[:, r, c])
    # D w.w is w . (D w)
    w = rng.standard_normal((n, 2))
    aw = matvec(_rows(a), w[:, 0], w[:, 1])
    qf = quad_form(*sym, w[:, 0], w[:, 1])
    scale_qf = np.einsum("ni,nij,nj->n", np.abs(w), np.abs(a), np.abs(w))
    assert np.all(np.abs(qf - (w[:, 0] * aw[0] + w[:, 1] * aw[1])) <= 1e-14 * scale_qf)


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


def _spd(rng, n):
    """Entries (d11, d12, d22) of D = R diag(lam) R^T, lam in [0.1, 10]."""
    theta = rng.uniform(0.0, np.pi, n)
    lam1, lam2 = rng.uniform(0.1, 10.0, (2, n))
    c, s = np.cos(theta), np.sin(theta)
    return c**2 * lam1 + s**2 * lam2, c * s * (lam1 - lam2), s**2 * lam1 + c**2 * lam2


def _grad_u(rng, n):
    """(ux1, ux2) with |grad u| in [0.5, 2]."""
    r, ang = rng.uniform(0.5, 2.0, n), rng.uniform(0.0, 2.0 * np.pi, n)
    return r * np.cos(ang), r * np.sin(ang)


def _system_matrix(d11, d12, d22, e1, e2):
    """The dense 3x3 matrices E = [[e1, e2, 0], [0, e1, e2], [d11, 2 d12, d22]], stacked along the first axis."""
    e1, e2, d11, d12, d22 = np.broadcast_arrays(*np.atleast_1d(e1, e2, d11, d12, d22))
    zero = np.zeros_like(e1)
    return np.stack([np.stack(row, -1) for row in ((e1, e2, zero), (zero, e1, e2), (d11, 2 * d12, d22))], -2)


def test_reconstruct_hessian_isotropic_quadratic():
    # D = I (zero velocity, m = 1), u = x1^2 + x2^2 at the point (0.3, 0.4)
    x1, x2 = 0.3, 0.4
    ux1, ux2 = 2 * x1, 2 * x2
    phi = ux1**2 + ux2**2
    # grad(phi) = 2 hess (D grad u) with hess = diag(2, 2), G = 0
    grad_phi = (2 * (2.0 * ux1), 2 * (2.0 * ux2))
    h11, h12, h22 = reconstruct_hessian((1.0, 0.0, 1.0), (ux1, ux2), grad_phi, (0.0, 0.0), 0.0, -4.0)
    assert h11 == pytest.approx(2.0, abs=1e-12)
    assert h12 == pytest.approx(0.0, abs=1e-12)
    assert h22 == pytest.approx(2.0, abs=1e-12)
    assert np.linalg.det(_system_matrix(1.0, 0.0, 1.0, ux1, ux2))[0] == pytest.approx(phi, rel=1e-12)  # det(D) = 1


def test_reconstruct_hessian_det_worked():
    # the (3,4)-velocity tensor with grad u = (1, 0): phi = d11 = 7.8, D grad u = (7.8, 2.4)
    d = (7.8, 2.4, 9.2)
    assert np.linalg.det(_system_matrix(*d, 7.8, 2.4))[0] == pytest.approx(66.0 * 7.8, rel=1e-10)
    # no first-order data and w = u_t: the Hessian is zero
    h = reconstruct_hessian(d, (1.0, 0.0), (0.0, 0.0), (0.0, 0.0), 0.0, 0.0)
    assert h == pytest.approx((0.0, 0.0, 0.0), abs=1e-15)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 64), seed=st.integers(0, 2**32 - 1))
def test_reconstruct_hessian_vs_linear_solve(n, seed):
    # first-order data consistent with hess(u) = S: grad(phi) = 2 S (D grad u) + phi G, w = u_t - D:S
    rng = np.random.default_rng(seed)
    d11, d12, d22 = _spd(rng, n)
    ux1, ux2 = _grad_u(rng, n)
    s11, s12, s22 = rng.uniform(-2.0, 2.0, (3, n))
    g1, g2, u_t = rng.uniform(-1.0, 1.0, (3, n))
    phi = d11 * ux1**2 + 2 * d12 * ux1 * ux2 + d22 * ux2**2
    e1 = d11 * ux1 + d12 * ux2
    e2 = d12 * ux1 + d22 * ux2
    phi_x1 = 2 * (s11 * e1 + s12 * e2) + phi * g1
    phi_x2 = 2 * (s12 * e1 + s22 * e2) + phi * g2
    w = u_t - (d11 * s11 + 2 * d12 * s12 + d22 * s22)
    h = np.stack(reconstruct_hessian((d11, d12, d22), (ux1, ux2), (phi_x1, phi_x2), (g1, g2), u_t, w), axis=1)
    sref = np.maximum(1.0, np.abs(s11) + np.abs(s12) + np.abs(s22))[:, None]
    assert np.all(np.abs(h - np.stack([s11, s12, s22], axis=1)) <= 1e-12 * sref)
    E = _system_matrix(d11, d12, d22, e1, e2)
    rhs = np.stack([(phi_x1 - phi * g1) / 2, (phi_x2 - phi * g2) / 2, u_t - w], axis=1)
    sol = np.linalg.solve(E, rhs[..., None])[..., 0]
    assert np.all(np.abs(sol - h) <= 1e-12 * sref)
    det_d_phi = (d11 * d22 - d12**2) * phi
    assert np.all(np.abs(np.linalg.det(E) - det_d_phi) <= 1e-10 * det_d_phi)


def test_reconstruct_hessian_requires_positive_phi():
    with pytest.raises(ValueError, match="phi"):
        reconstruct_hessian((1.0, 0.0, 1.0), (0.0, 0.0), (0.0, 0.0), (0.0, 0.0), 0.0, 0.0)


# --- forcing coefficients

_ZERO = (0.0, 0.0, 0.0)


def test_forcing_vanishes_for_constant_tensor():
    drift, flux, source = forcing_coefficients((2.0, 0.3, 1.5), _ZERO, _ZERO, _ZERO, (1.0, 0.5), 0.0, 0.0)
    for val in (*drift, *flux, source):
        assert val == pytest.approx(0.0, abs=1e-15)


def test_forcing_flux_isotropic_case():
    # constant D = m I: flux_source = 2 m w grad(u) / phi exactly
    m, w = 0.7, 1.3
    ux1, ux2 = 0.8, -0.4
    _, flux, _ = forcing_coefficients((m, 0.0, m), _ZERO, _ZERO, _ZERO, (ux1, ux2), 0.0, w)
    phi = m * (ux1**2 + ux2**2)
    assert flux[0] == pytest.approx(2 * w * m * ux1 / phi, rel=1e-14)
    assert flux[1] == pytest.approx(2 * w * m * ux2 / phi, rel=1e-14)


def _forcing_args(v):
    """(d, d_x1, d_x2, d_t, grad_u, u_t, w) of ``forcing_coefficients`` from 16 values in that order."""
    return tuple(v[0:3]), tuple(v[3:6]), tuple(v[6:9]), tuple(v[9:12]), tuple(v[12:14]), v[14], v[15]


def test_forcing_condition_under_perturbation():
    rng = np.random.default_rng(23)
    base = np.array([2.0, 0.4, 1.6, 0.3, -0.1, 0.2, 0.1, 0.05, -0.15, 0.02, -0.01, 0.03, 1.1, -0.6, 0.4, 0.2])
    drift, flux, source = forcing_coefficients(*_forcing_args(base))
    out0 = np.array([*drift, *flux, source])
    delta = 1e-6
    for _ in range(10):
        drift, flux, source = forcing_coefficients(*_forcing_args(base * (1.0 + delta * rng.uniform(-1, 1, base.size))))
        out = np.array([*drift, *flux, source])
        rel_change = np.max(np.abs(out - out0) / np.maximum(1.0, np.abs(out0)))
        assert rel_change <= 1e3 * delta
        assert np.all(np.isfinite(out))


def _forcing_oracle(d, d_x1, d_x2, d_t, grad_u, u_t, w):
    """The forcing in its adjugate form through the auxiliary matrices M1, M2, M3, in dense numpy.

    M1 and M2 hold products of D with grad(u), cross = d11 d22 - 2 d12^2, and
    M3 = -(D grad u)(D grad u)^T; drift, flux and source are written out term by term.
    """
    (d11, d12, d22), (ux1, ux2) = d, grad_u
    D = np.stack([np.stack([d11, d12], -1), np.stack([d12, d22], -1)], -2)
    gu = np.stack([ux1, ux2], -1)
    e = np.einsum("nij,nj->ni", D, gu)
    phi = np.einsum("ni,ni->n", e, gu)
    det = d11 * d22 - d12**2
    cross = d22 * d11 - 2.0 * d12**2
    m1 = np.stack([np.stack([d11 * e[:, 0], d12 * d11 * ux1 - cross * ux2], -1),
                   np.stack([d11 * e[:, 1], d22 * e[:, 0]], -1)], -2)
    m2 = np.stack([np.stack([d11 * e[:, 1], d22 * e[:, 0]], -1),
                   np.stack([-cross * ux1 + d12 * d22 * ux2, d22 * e[:, 1]], -1)], -2)
    m3 = -np.einsum("ni,nj->nij", e, e)

    def quad(a11, a12, a22):
        return a11 * ux1**2 + 2.0 * a12 * ux1 * ux2 + a22 * ux2**2

    g = np.stack([quad(*d_x1), quad(*d_x2)], -1) / phi[:, None]
    dg = np.einsum("nij,nj->ni", D, g)
    dd = np.stack([d_x1[0] * d22 + d11 * d_x1[2] - 2.0 * d12 * d_x1[1],
                   d_x2[0] * d22 + d11 * d_x2[2] - 2.0 * d12 * d_x2[1]], -1)
    cu = ux1[:, None] * np.einsum("nji,nj->ni", m1, dd) + ux2[:, None] * np.einsum("nji,nj->ni", m2, dd)
    denom = det * phi
    drift = dg + 2.0 * u_t[:, None] * e / phi[:, None] - cu / denom[:, None]
    flux = -dg + 2.0 * w[:, None] * e / phi[:, None]
    mg = ux1[:, None] * np.einsum("nij,nj->ni", m1, g) + ux2[:, None] * np.einsum("nij,nj->ni", m2, g)
    m3u = np.einsum("nij,nj->ni", m3, gu)
    div_d = np.stack([d_x1[0] + d_x2[1], d_x1[1] + d_x2[2]], -1)
    r3 = u_t - w
    source = (
        np.einsum("ni,ni->n", dd, mg) / denom
        - 2.0 * r3 * np.einsum("ni,ni->n", dd, m3u) / (denom * phi)
        - 2.0 * u_t * (u_t + np.einsum("ni,ni->n", div_d, gu) - w) / phi
        + quad(*d_t) / phi
        - 2.0 * r3 * np.einsum("ni,ni->n", e, g) / phi
        - np.einsum("ni,ni->n", dg, g)
    )
    return drift[:, 0], drift[:, 1], flux[:, 0], flux[:, 1], source


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 64), seed=st.integers(0, 2**32 - 1))
def test_forcing_matches_auxiliary_matrix_form(n, seed):
    # D = R diag(lam) R^T with lam in [0.1, 10], |grad u| in [0.5, 2], every other entry in [-1, 1]
    rng = np.random.default_rng(seed)
    d, grad_u = _spd(rng, n), _grad_u(rng, n)
    v = rng.uniform(-1.0, 1.0, (11, n))  # the entries of D_x1, D_x2 and D_t, then u_t and w
    args = (d, tuple(v[0:3]), tuple(v[3:6]), tuple(v[6:9]), grad_u, v[9], v[10])
    drift, flux, source = forcing_coefficients(*args)
    for got, ref in zip((*drift, *flux, source), _forcing_oracle(*args)):
        assert np.all(np.abs(got - ref) <= 1e-10 * (1.0 + np.abs(ref)))

# --- dissipation-power equation on manufactured fields


def _main_pair():
    u = lambda x1, x2, t: x1 + 0.2 * np.sin(x1 + x2) * np.exp(-t)
    v = lambda x1, x2, t: 0.1 * np.sin(np.pi * x1) * np.sin(np.pi * x2)
    return u, v


def _time_dependent_tensor_pair():
    u, _ = _main_pair()
    v = lambda x1, x2, t: 0.1 * np.sin(np.pi * x1) * np.sin(np.pi * x2) * (1.0 + 0.3 * np.exp(-t))
    return u, v


def test_power_equation_trivial():
    u = lambda x1, x2, t: 2 * x1 + x2 + 0 * t
    v = lambda x1, x2, t: np.zeros_like(x1)
    g = GridSpec(33, 33)
    _, norm = power_equation_residual(u, v, PhysParams(1, 2, 1), (1,), g)[0]
    assert norm <= 1e-12


@pytest.mark.parametrize("j", [1, 2])
def test_power_equation_refinement(j):
    u, v = _main_pair()
    norms = []
    for n in (33, 65):
        g = GridSpec(n, n)
        _, norm = power_equation_residual(u, v, PhysParams(1, 2, 1), (j,), g)[0]
        norms.append(norm)
    assert norms[0] / norms[1] >= 3.0


def test_power_equation_time_dependent_tensor():
    u, v = _time_dependent_tensor_pair()
    norms = []
    for n in (33, 65):
        g = GridSpec(n, n)
        _, norm = power_equation_residual(u, v, PhysParams(1, 2, 1), (1,), g)[0]
        norms.append(norm)
    assert norms[0] / norms[1] >= 3.0


def test_power_equation_rejects_flat_gradient():
    u = lambda x1, x2, t: 0.01 * np.sin(x1) + 0 * t
    v = lambda x1, x2, t: np.zeros_like(x1)
    g = GridSpec(33, 33)
    with pytest.raises(ValueError, match="grad"):
        power_equation_residual(u, v, PhysParams(1, 2, 1), (1,), g)


def test_power_equation_floor_judged_on_window_only():
    # |grad u| = |(6 (x1 - 0.15), 0.1)| dips to 0.1 at x1 = 0.15, outside the window but inside the crop
    u = lambda x1, x2, t: 3.0 * (x1 - 0.15) ** 2 + 0.1 * x2 + 0 * t
    v = lambda x1, x2, t: np.zeros_like(x1)
    g = GridSpec(33, 33)
    crop, window = window_crop(g.shape, identities._POWER_BOX, identities._POWER_HALO)
    x1 = g.x1[crop[1]]
    grad = np.hypot(6.0 * (x1 - 0.15), 0.1)
    assert grad.min() < 0.5 <= grad[window[1]].min()
    _, norm = power_equation_residual(u, v, PhysParams(1, 2, 1), (1,), g)[0]
    assert np.isfinite(norm)


@pytest.mark.parametrize("js", [(), (0,), (1, 0), [2, -1]])
def test_power_equation_rejects_bad_powers(js):
    u, v = _main_pair()
    with pytest.raises(ValueError, match="powers"):
        power_equation_residual(u, v, PhysParams(1, 2, 1), js, GridSpec(33, 33))


@pytest.mark.parametrize("n", [33, 65])
def test_power_equation_shared_build_matches_single_powers(n):
    u, v = _main_pair()
    g, p = GridSpec(n, n), PhysParams(1, 2, 1)
    both = power_equation_residual(u, v, p, (1, 2), g)
    assert len(both) == 2
    for j, (res, norm) in zip((1, 2), both):
        single_res, single_norm = power_equation_residual(u, v, p, (j,), g)[0]
        assert np.array_equal(res, single_res)
        assert norm == single_norm


@pytest.mark.parametrize("n", [33, 65, 129])
@pytest.mark.parametrize("pair", [_main_pair, _time_dependent_tensor_pair])
def test_power_equation_crop_matches_full_grid_bit_for_bit(monkeypatch, pair, n):
    u, v = pair()
    g, p = GridSpec(n, n), PhysParams(1, 2, 1)
    halo = identities._POWER_HALO

    def build(h):
        monkeypatch.setattr(identities, "_POWER_HALO", h)
        return power_equation_residual(u, v, p, (1, 2), g)

    full = build(n)  # a halo that covers the grid
    for (res, norm), (ref, ref_norm) in zip(build(halo), full):
        assert np.array_equal(res, ref)
        assert norm == ref_norm
    # the halo is the smallest that keeps the bits
    assert not all(np.array_equal(res, ref) for (res, _), (ref, _) in zip(build(halo - 1), full))


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


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("field", ["c", "b", "alpha", "y0"])
def test_recursion_params_reject_non_finite(field, bad):
    # b = inf would report y1 = 0 and "converged" where y1 = c y0^(1+alpha) = 0.01
    kw = dict(c=1.0, b=2.0, alpha=1.0, y0=0.1)
    kw[field] = bad
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        RecursionParams(**kw)


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


def test_log_kernel_spectrum_cached_per_box():
    # keyed by box shape and spacing, so boxes below GridSpec's 3-node minimum have a table too
    hx, hy = 1.3 / 32, 0.7 / 20
    for shape in ((21, 33), (1, 1), (2, 5)):
        conv = _log_kernel_convolution(shape, hx, hy)
        assert _log_kernel_convolution(shape, hx, hy) is conv
        assert conv.padded[0] >= 3 * shape[0] - 2 and conv.padded[1] >= 3 * shape[1] - 2
        assert not conv.spectrum.flags.writeable


def _assert_matches_pairwise(f, radius, center):
    got = log_kernel_average(f, radius, center)
    ref = _pairwise_log_kernel_average(f, radius, center)
    assert ref > 0.0
    assert abs(got - ref) <= 1e-13 * ref


def test_log_kernel_single_near_node():
    # h = 0.125 and 2r = 0.1: the ball centre is the only node within 2r, a 1x1 box
    g = GridSpec(9, 9)
    f = ScalarField(g, np.random.default_rng(11).uniform(0.5, 2.0, g.shape))
    eta = log_kernel_average(f, 0.05, (0.5, 0.5))
    assert eta == pytest.approx(f.values[4, 4] * _log_cell_integral(g.hx, g.hy), rel=1e-14)
    _assert_matches_pairwise(f, 0.05, (0.5, 0.5))


def test_log_kernel_near_box_clipped_by_two_edges():
    # the ball fits, but its 2r neighbourhood runs past the left and bottom edges
    g = GridSpec(41, 41)
    f = ScalarField(g, np.random.default_rng(12).standard_normal(g.shape))
    _assert_matches_pairwise(f, 0.12, (0.15, 0.13))


def test_log_kernel_anisotropic_spacing():
    g = GridSpec(33, 21, 1.3, 0.7)
    assert g.hx != g.hy
    f = ScalarField(g, np.random.default_rng(13).standard_normal(g.shape))
    _assert_matches_pairwise(f, 0.2, (0.6, 0.35))


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
