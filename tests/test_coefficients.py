import functools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.ndimage import convolve

import dispersim
from dispersim.coefficients import (
    PhysParams,
    RegParams,
    _mollifier,
    bump_kernel,
    dispersion_tensor,
    dispersion_tensor_regularized,
    divergence,
    eigen_bounds,
    mollify,
    stream_velocity,
)
from dispersim.grid import GridSpec, ScalarField, VectorField, quad_form


def _const_vector(g, c1, c2):
    return VectorField(g, np.full(g.shape, float(c1)), np.full(g.shape, float(c2)))


def test_params_validation():
    with pytest.raises(ValueError):
        PhysParams(1.0, 0.5, 1.0)  # b < a
    with pytest.raises(ValueError):
        PhysParams(-1.0, 2.0, 1.0)
    with pytest.raises(ValueError):
        PhysParams(1.0, 2.0, 0.0)
    PhysParams(1.0, 1.0, 0.5)  # isotropic limit is allowed
    with pytest.raises(ValueError):
        RegParams(eps=0.0)
    with pytest.raises(ValueError):
        RegParams(moll_radius=-0.1)


def test_stream_velocity_basic():
    g = GridSpec(17, 17)
    q = stream_velocity(ScalarField.full(g, 0.0))
    assert np.max(np.abs(q.comp1)) == 0.0 and np.max(np.abs(q.comp2)) == 0.0
    q = stream_velocity(ScalarField.from_function(g, lambda x1, x2: x1))
    assert np.max(np.abs(q.comp1)) == 0.0
    assert np.max(np.abs(q.comp2 - 1.0)) == 0.0


def test_stream_velocity_divergence_free():
    g = GridSpec(33, 33)
    rng = np.random.default_rng(7)
    v = ScalarField(g, rng.uniform(0.0, 1.0, g.shape))
    div = divergence(stream_velocity(v)).values
    assert np.max(np.abs(div[1:-1, 1:-1])) <= 1e-12


def test_divergence_exact_fields():
    g = GridSpec(17, 17)
    q = VectorField(g, g.nodes()[0], g.nodes()[1])  # (x1, x2)
    assert np.allclose(divergence(q).values, 2.0, atol=1e-12)
    q = VectorField(g, g.nodes()[1], g.nodes()[0])  # (x2, x1)
    assert np.max(np.abs(divergence(q).values)) < 1e-13


def test_mollify_preserves_constants():
    g = GridSpec(33, 33)
    q = _const_vector(g, 3.0, -1.0)
    out = mollify(q, 0.2)
    assert np.max(np.abs(out.comp1 - 3.0)) < 1e-13
    assert np.max(np.abs(out.comp2 + 1.0)) < 1e-13


def test_mollify_zero_radius_identity():
    g = GridSpec(17, 17)
    rng = np.random.default_rng(8)
    q = VectorField(g, rng.standard_normal(g.shape), rng.standard_normal(g.shape))
    out = mollify(q, 0.0)
    assert np.array_equal(out.comp1, q.comp1) and np.array_equal(out.comp2, q.comp2)


def test_mollify_spike_mass_and_max():
    g = GridSpec(65, 65)
    vals = np.zeros(g.shape)
    vals[32, 32] = 1.0  # interior spike, far from the boundary
    q = VectorField(g, vals, np.zeros(g.shape))
    out = mollify(q, 0.1)
    assert np.max(out.comp1) < 1.0
    assert abs(np.sum(out.comp1) - 1.0) < 1e-12


def test_mollify_never_grows_maxnorm():
    g = GridSpec(33, 33)
    rng = np.random.default_rng(9)
    q = VectorField(g, rng.uniform(-2, 2, g.shape), rng.uniform(-2, 2, g.shape))
    out = mollify(q, 0.15)
    assert np.max(np.abs(out.comp1)) <= np.max(np.abs(q.comp1)) + 1e-14
    assert np.max(np.abs(out.comp2)) <= np.max(np.abs(q.comp2)) + 1e-14


def test_mollify_matches_loop_convolution_on_unequal_spacing():
    # hx = 1/40 and hy = 1/30 give a 13 x 11 node kernel, so a transposed kernel fails here
    g = GridSpec(41, 25, lx=1.0, ly=0.8)
    r = 0.15
    rng = np.random.default_rng(10)
    q = VectorField(g, rng.uniform(-1, 1, g.shape), rng.uniform(-1, 1, g.shape))
    out = mollify(q, r)
    ny, nx = g.shape
    num1, num2, den = np.zeros(g.shape), np.zeros(g.shape), np.zeros(g.shape)
    for dj in range(1 - ny, ny):
        for di in range(1 - nx, nx):
            s = ((di * g.hx) ** 2 + (dj * g.hy) ** 2) / r**2
            if s >= 1.0:
                continue
            w = np.exp(-1.0 / (1.0 - s))
            # node (j, i) gathers node (j + dj, i + di) wherever that lies in the domain
            dst = (slice(max(0, -dj), ny - max(0, dj)), slice(max(0, -di), nx - max(0, di)))
            src = (slice(max(0, dj), ny - max(0, -dj)), slice(max(0, di), nx - max(0, -di)))
            num1[dst] += w * q.comp1[src]
            num2[dst] += w * q.comp2[src]
            den[dst] += w
    assert np.max(np.abs(out.comp1 - num1 / den)) <= 1e-13
    assert np.max(np.abs(out.comp2 - num2 / den)) <= 1e-13


def _ndimage_mollify(q, r):
    # the direct convolution: scipy.ndimage with zeros beyond the grid, normalized by the convolution of ones
    kernel = bump_kernel(r, q.grid.hx, q.grid.hy)
    den = convolve(np.ones(q.grid.shape), kernel, mode="constant")
    return convolve(q.comp1, kernel, mode="constant") / den, convolve(q.comp2, kernel, mode="constant") / den


def test_mollify_cache_matches_uncached_formula():
    # the grid of the loop test above; a second radius catches a stale cache entry
    g = GridSpec(41, 25, lx=1.0, ly=0.8)
    rng = np.random.default_rng(11)
    q = VectorField(g, rng.uniform(-1, 1, g.shape), rng.uniform(-1, 1, g.shape))
    for r in (0.1, 0.15):
        out = mollify(q, r)
        conv, den = _mollifier.__wrapped__(g, r)
        fresh = conv(np.stack((q.comp1, q.comp2))) / den
        assert np.array_equal(out.comp1, fresh[0]) and np.array_equal(out.comp2, fresh[1])
        for got, ref in zip((out.comp1, out.comp2), _ndimage_mollify(q, r)):
            assert np.max(np.abs(got - ref)) <= 1e-13
        cached_conv, cached_den = _mollifier(g, r)
        assert not cached_conv.spectrum.flags.writeable and not cached_den.flags.writeable


@settings(max_examples=60, deadline=None)
@given(
    nx=st.integers(3, 40),
    ny=st.integers(3, 40),
    lx=st.floats(0.2, 3.0),
    ly=st.floats(0.2, 3.0),
    frac=st.floats(0.01, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_mollify_property_against_direct_convolution(nx, ny, lx, ly, frac, seed):
    g = GridSpec(nx, ny, lx=lx, ly=ly)
    r = frac * 0.5 * min(lx, ly)
    rng = np.random.default_rng(seed)
    q = VectorField(g, rng.uniform(-1, 1, g.shape), rng.uniform(-1, 1, g.shape) * 10.0 ** rng.uniform(-3, 3))
    out = mollify(q, r)
    for got, ref, comp in zip((out.comp1, out.comp2), _ndimage_mollify(q, r), (q.comp1, q.comp2)):
        qmax = np.max(np.abs(comp))
        assert np.max(np.abs(got - ref)) <= 1e-13 * qmax
        assert np.max(np.abs(got)) <= qmax * (1.0 + 1e-14)
    c1, c2 = rng.uniform(-5, 5, 2)
    const = mollify(_const_vector(g, c1, c2), r)
    assert np.max(np.abs(const.comp1 - c1)) <= 1e-13 * abs(c1)
    assert np.max(np.abs(const.comp2 - c2)) <= 1e-13 * abs(c2)


@functools.cache
def _run_path_modules() -> frozenset[str]:
    # one fresh interpreter serves every import test below
    code = "import sys, dispersim.transport, dispersim.acceptance, dispersim.verify; print(' '.join(sys.modules))"
    src = str(Path(dispersim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    return frozenset(out.stdout.split())


def test_run_path_does_not_import_scipy_signal():
    # scipy.signal drags in a few hundred modules that no run needs
    assert "scipy.signal" not in _run_path_modules()


def test_run_path_does_not_import_scipy_ndimage():
    # the mollifier convolves by FFT, so nothing on the run path needs scipy.ndimage
    assert "scipy.ndimage" not in _run_path_modules()


def test_mollify_radius_too_large():
    g = GridSpec(17, 17)
    with pytest.raises(ValueError, match="radius"):
        mollify(_const_vector(g, 1.0, 0.0), 0.6)


def test_dispersion_tensor_zero_velocity():
    g = GridSpec(9, 9)
    D = dispersion_tensor(_const_vector(g, 0.0, 0.0), PhysParams(1.0, 2.0, 1.0))
    assert np.allclose(D.d11, 1.0) and np.allclose(D.d22, 1.0) and np.allclose(D.d12, 0.0)


def test_dispersion_tensor_worked_example():
    g = GridSpec(9, 9)
    D = dispersion_tensor(_const_vector(g, 3.0, 4.0), PhysParams(1.0, 2.0, 1.0))
    assert D.d11[0, 0] == pytest.approx(7.8, abs=1e-13)
    assert D.d12[0, 0] == pytest.approx(2.4, abs=1e-13)
    assert D.d22[0, 0] == pytest.approx(9.2, abs=1e-13)
    det = D.d11 * D.d22 - D.d12**2
    assert det[0, 0] == pytest.approx(66.0, rel=1e-13)


def test_regularized_tensor_at_zero_velocity():
    g = GridSpec(9, 9)
    D = dispersion_tensor_regularized(_const_vector(g, 0.0, 0.0), PhysParams(1.0, 2.0, 1.0), RegParams(eps=1e-6))
    assert np.allclose(D.d11, 1.001, atol=1e-15)
    assert np.allclose(D.d22, 1.001, atol=1e-15)
    assert np.max(np.abs(D.d12)) == 0.0


def test_regularized_tensor_approaches_plain():
    g = GridSpec(9, 9)
    p = PhysParams(1.0, 2.0, 1.0)
    q = _const_vector(g, 3.0, 4.0)
    D = dispersion_tensor(q, p)
    De = dispersion_tensor_regularized(q, p, RegParams(eps=1e-16))
    gap = max(
        np.max(np.abs(De.d11 - D.d11)), np.max(np.abs(De.d12 - D.d12)), np.max(np.abs(De.d22 - D.d22))
    )
    assert gap <= 1e-8


def test_regularized_ellipticity_bounds():
    g = GridSpec(11, 11)
    rng = np.random.default_rng(10)
    p = PhysParams(1.0, 2.0, 1.0)
    r = RegParams(eps=1e-3)
    q = VectorField(g, rng.uniform(-3, 3, g.shape), rng.uniform(-3, 3, g.shape))
    D = dispersion_tensor_regularized(q, p, r)
    qreg = np.sqrt(q.comp1**2 + q.comp2**2 + r.eps)
    for _ in range(5):
        xi1, xi2 = rng.standard_normal(2)
        form = quad_form(D.d11, D.d12, D.d22, xi1, xi2)
        norm2 = xi1**2 + xi2**2
        assert np.all(form >= p.m * norm2 - 1e-12)
        assert np.all(form <= (p.b * qreg + p.m) * norm2 + 1e-12)


def test_eigen_bounds_worked_and_random():
    g = GridSpec(9, 9)
    p = PhysParams(1.0, 2.0, 1.0)
    lo, hi = eigen_bounds(_const_vector(g, 3.0, 4.0), p)
    assert lo.values[0, 0] == pytest.approx(6.0, abs=1e-13)
    assert hi.values[0, 0] == pytest.approx(11.0, abs=1e-13)
    lo0, hi0 = eigen_bounds(_const_vector(g, 0.0, 0.0), p)
    assert np.allclose(lo0.values, 1.0) and np.allclose(hi0.values, 1.0)

    rng = np.random.default_rng(11)
    q = VectorField(g, rng.uniform(-5, 5, g.shape), rng.uniform(-5, 5, g.shape))
    D = dispersion_tensor(q, p)
    lo, hi = eigen_bounds(q, p)
    half_tr = 0.5 * (D.d11 + D.d22)
    disc = np.sqrt(0.25 * (D.d11 - D.d22) ** 2 + D.d12**2)
    assert np.max(np.abs((half_tr - disc) - lo.values) / lo.values) < 1e-12
    assert np.max(np.abs((half_tr + disc) - hi.values) / hi.values) < 1e-12


def test_rank_one_structure_and_det_identity():
    g = GridSpec(15, 15)
    rng = np.random.default_rng(12)
    p = PhysParams(0.7, 1.9, 0.4)
    q = VectorField(g, rng.uniform(-4, 4, g.shape), rng.uniform(-4, 4, g.shape))
    D = dispersion_tensor(q, p)
    qn = q.magnitude()
    iso = p.a * qn + p.m
    r11, r12, r22 = D.d11 - iso, D.d12, D.d22 - iso
    assert np.max(np.abs(r11 + r22 - (p.b - p.a) * qn)) < 1e-12 * max(1.0, np.max(qn))
    assert np.max(np.abs(r11 * r22 - r12**2)) < 1e-12 * max(1.0, np.max(qn) ** 2)
    det = D.d11 * D.d22 - D.d12**2
    expect = (p.a * qn + p.m) * (p.b * qn + p.m)
    assert np.max(np.abs(det - expect) / expect) < 1e-12


def test_quadratic_form_identity():
    g = GridSpec(9, 9)
    rng = np.random.default_rng(13)
    p = PhysParams(1.0, 2.0, 1.0)
    q = VectorField(g, rng.uniform(0.5, 4, g.shape), rng.uniform(0.5, 4, g.shape))
    D = dispersion_tensor(q, p)
    qn = q.magnitude()
    for _ in range(5):
        xi1, xi2 = rng.standard_normal(2)
        lhs = quad_form(D.d11, D.d12, D.d22, xi1, xi2)
        rhs = (p.a * qn + p.m) * (xi1**2 + xi2**2) + (p.b - p.a) / qn * (q.comp1 * xi1 + q.comp2 * xi2) ** 2
        assert np.max(np.abs(lhs - rhs) / np.maximum(1.0, np.abs(rhs))) < 1e-12
