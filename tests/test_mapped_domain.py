import numpy as np
import pytest

from dispersim import mapped_domain
from dispersim.coefficients import PhysParams
from dispersim.grid import GridSpec, ScalarField
from dispersim.mapped_domain import (
    ETA_RECT,
    builtin_charts,
    chart_mesh,
    det_product_residual,
    exponential_chart,
    identity_chart,
    jacobian_identity_residual,
    plain_transport_residual,
    pushforward_gradient_residual,
    reflect_extend,
    shear_chart,
    transformed_poisson_residual,
    transformed_transport_residual,
    transport_pair,
)


def _poisson_pair():
    # lap(v) = -2 sin(x1) cos(x2) = d/dx1 of u = 2 cos(x1) cos(x2)
    return (lambda x1, x2: np.sin(x1) * np.cos(x2)), (lambda x1, x2: 2.0 * np.cos(x1) * np.cos(x2))


def test_jacobian_identity_affine_charts_exact():
    assert jacobian_identity_residual(identity_chart()) == 0.0
    assert jacobian_identity_residual(shear_chart()) == 0.0


def test_jacobian_identity_exponential():
    assert jacobian_identity_residual(exponential_chart()) <= 1e-12


def test_det_product():
    for chart in builtin_charts():
        assert det_product_residual(chart) <= 1e-12


def test_chart_roundtrip_and_det_bounds():
    rng = np.random.default_rng(31)
    x1 = rng.uniform(0.1, 0.9, 500)
    x2 = rng.uniform(0.1, 0.9, 500)
    for chart in builtin_charts():
        e1, e2 = chart.fwd(x1, x2)
        b1, b2 = chart.inv(e1, e2)
        assert np.max(np.hypot(b1 - x1, b2 - x2)) <= 1e-10
        jg = chart.grad_fwd(x1, x2)
        det = jg[0][0] * jg[1][1] - jg[0][1] * jg[1][0]
        assert np.min(det) > 0
        assert np.max(det) / np.min(det) < 10  # bounded above and below on the chart


def test_pushforward_gradient():
    grad_u = lambda x1, x2: (np.full_like(x1, 1.0), np.full_like(x1, 2.0))  # u = x1 + 2 x2
    assert pushforward_gradient_residual(identity_chart(), grad_u) == 0.0
    assert pushforward_gradient_residual(shear_chart(), grad_u) <= 1e-15
    grad_u2 = lambda x1, x2: (np.cos(x1) * x2, np.sin(x1))  # u = sin(x1) x2
    assert pushforward_gradient_residual(exponential_chart(), grad_u2) <= 1e-10


@pytest.mark.parametrize("chart_fn", [identity_chart, shear_chart, exponential_chart])
def test_transformed_poisson_refines(chart_fn):
    v_fn, u_fn = _poisson_pair()
    chart = chart_fn()
    norms = [transformed_poisson_residual(chart_mesh(chart, n), v_fn, u_fn)[1] for n in (33, 65)]
    assert norms[0] / norms[1] >= 3.0


@pytest.mark.parametrize("chart_fn", [shear_chart, exponential_chart])
def test_transformed_transport_refines(chart_fn):
    chart = chart_fn()
    norms = [transformed_transport_residual(chart_mesh(chart, n))[1] for n in (33, 65)]
    assert norms[0] / norms[1] >= 3.0


@pytest.mark.parametrize("n", [33, 65, 129])
@pytest.mark.parametrize("chart_fn", [identity_chart, shear_chart, exponential_chart])
def test_cropped_chart_mesh_matches_full_mesh_bit_for_bit(monkeypatch, chart_fn, n):
    v_fn, u_fn = _poisson_pair()
    halo = mapped_domain._CHART_HALO

    def build(h):
        monkeypatch.setattr(mapped_domain, "_CHART_HALO", h)
        mesh = chart_mesh(chart_fn(), n)
        return mesh[2].shape, [transformed_poisson_residual(mesh, v_fn, u_fn), transformed_transport_residual(mesh)]

    full_shape, full = build(n)  # a halo that covers the mesh
    assert full_shape == (n, n)
    shape, cropped = build(halo)
    assert shape[0] < n and shape[1] < n
    for (res, norm), (ref, ref_norm) in zip(cropped, full):
        assert np.array_equal(res, ref)
        assert norm == ref_norm
    # the halo is the smallest that keeps the bits
    assert not any(np.array_equal(res, ref) for (res, _), (ref, _) in zip(build(halo - 1)[1], full))


def test_identity_chart_matches_plain_bit_for_bit():
    res_chart, _ = transformed_transport_residual(chart_mesh(identity_chart(), 41))
    res_plain, _ = plain_transport_residual(41)
    assert np.array_equal(res_chart, res_plain)


def test_transformed_tensor_positive_definite_with_scaled_bounds():
    chart = exponential_chart()
    n = 17
    lo1, hi1, lo2, hi2 = ETA_RECT
    E1, E2 = np.meshgrid(np.linspace(lo1, hi1, n), np.linspace(lo2, hi2, n))
    x1, x2 = chart.inv(E1, E2)
    jg = chart.grad_fwd(x1, x2)
    p = PhysParams(1.0, 2.0, 1.0)
    fix = transport_pair(x1, x2, 0.0)
    q1 = -fix.v_x2
    q2 = fix.v_x1
    qn = np.hypot(q1, q2)
    iso = p.a * qn + p.m
    d11 = iso + (p.b - p.a) * q1**2 / qn
    d12 = (p.b - p.a) * q1 * q2 / qn
    d22 = iso + (p.b - p.a) * q2**2 / qn
    J = np.stack([np.stack([jg[0][0], jg[0][1]], -1), np.stack([jg[1][0], jg[1][1]], -1)], -2)
    D = np.stack([np.stack([d11, d12], -1), np.stack([d12, d22], -1)], -2)
    M = np.swapaxes(J, -1, -2) @ D @ J
    eig_m = np.linalg.eigvalsh(M)
    sig = np.linalg.svd(J, compute_uv=False)
    lo_d = p.a * qn + p.m
    hi_d = p.b * qn + p.m
    assert np.all(eig_m[..., 0] > 0)
    assert np.all(eig_m[..., 0] >= lo_d * sig[..., 1] ** 2 - 1e-12)
    assert np.all(eig_m[..., 1] <= hi_d * sig[..., 0] ** 2 + 1e-12)


def test_reflect_even_smooth_square():
    g = GridSpec(9, 7, lx=0.5, ly=1.0)
    x1, x2 = g.nodes()
    f = ScalarField(g, x1**2)
    ext = reflect_extend(f, "even")
    assert ext.grid.nx == 2 * g.nx - 1
    assert ext.grid.lx == 2 * g.lx
    # symmetric about the seam; one-sided slopes at the seam match at zero
    assert np.array_equal(ext.values, ext.values[:, ::-1])
    seam = g.nx - 1
    fwd = (-3 * ext.values[:, seam] + 4 * ext.values[:, seam + 1] - ext.values[:, seam + 2]) / (2 * g.hx)
    bwd = (3 * ext.values[:, seam] - 4 * ext.values[:, seam - 1] + ext.values[:, seam - 2]) / (2 * g.hx)
    assert np.max(np.abs(fwd)) < 1e-12 and np.max(np.abs(bwd)) < 1e-12


def test_reflect_odd_linear_is_global_line():
    g = GridSpec(9, 7, lx=0.5)
    x1, _ = g.nodes()
    ext = reflect_extend(ScalarField(g, x1), "odd")
    xd, _ = ext.grid.nodes()
    assert np.allclose(ext.values, xd - g.lx, atol=1e-14)


def test_reflect_odd_seam_derivative_continuous():
    g = GridSpec(17, 9, lx=0.5)
    x1, x2 = g.nodes()
    ext = reflect_extend(ScalarField(g, x1 * (1.0 + x2)), "odd")
    from dispersim.grid import diff_x1

    d = diff_x1(ext).values
    seam = g.nx - 1
    expected = 1.0 + g.nodes()[1][:, 0]
    assert np.max(np.abs(d[:, seam] - expected)) < 1e-12
    assert np.max(np.abs(d[:, seam - 1] - expected)) < 1e-12
    assert np.max(np.abs(d[:, seam + 1] - expected)) < 1e-12


def test_reflect_odd_requires_zero_trace():
    g = GridSpec(9, 7)
    with pytest.raises(ValueError, match="zero trace"):
        reflect_extend(ScalarField.full(g, 1.0), "odd")


def test_reflect_preserves_maxnorm():
    g = GridSpec(9, 7)
    rng = np.random.default_rng(30)
    f = ScalarField(g, rng.uniform(-3, 3, g.shape))
    assert np.max(np.abs(reflect_extend(f, "even").values)) == np.max(np.abs(f.values))
    x1, x2 = g.nodes()
    f_odd = ScalarField(g, x1 * (2.0 + np.sin(x2)))
    assert np.max(np.abs(reflect_extend(f_odd, "odd").values)) == np.max(np.abs(f_odd.values))
