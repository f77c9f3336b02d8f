"""Velocity and dispersion-tensor assembly.

The velocity is the rotated gradient of the stream function,
q = (-v_x2, v_x1), which makes the discrete divergence vanish at
interior nodes because the two central stencils commute.  The
dispersion tensor is

    D = (a|q| + m) I + (b - a) (q x q) / |q|,      (q x q)/|q| := 0 at q = 0,

whose eigenvalues are a|q|+m (across the flow) and b|q|+m (along it),
so det(D) = (a|q|+m)(b|q|+m).  The regularized variant replaces |q| by
sqrt(|q|^2 + eps), which is smooth in q for every eps > 0:

    D_eps = (a sqrt(|q|^2+eps) + m) I + (b - a)/sqrt(|q|^2+eps) (q x q).

``mollify`` smooths a velocity field componentwise with a compactly
supported bump kernel; near the boundary the kernel is renormalized over
in-domain nodes, which preserves constants and does not increase the
max-norm, both up to rounding.  Both components and the normalizer are
linear "same"-size convolutions, evaluated with zero-padded FFTs
(``grid.LatticeConvolution``); the kernel's spectrum and the normalizer
(the convolution of a field of ones) are built once per grid and radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grid import GridSpec, LatticeConvolution, ScalarField, SymTensorField, VectorField, deriv1


@dataclass(frozen=True)
class PhysParams:
    """Dispersion coefficients a < b and molecular diffusivity m.

    b == a is accepted as the isotropic limit (D collapses to (a|q|+m) I).
    """

    a: float
    b: float
    m: float

    def __post_init__(self):
        for name in ("a", "b", "m"):
            if not (math.isfinite(getattr(self, name)) and getattr(self, name) > 0):
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")
        if self.b < self.a:
            raise ValueError(f"dispersion ordering requires b > a (or b == a), got a={self.a}, b={self.b}")


@dataclass(frozen=True)
class RegParams:
    """Tensor regularization eps and spatial mollifier support radius."""

    eps: float = 1e-6
    moll_radius: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.eps) and self.eps > 0):
            raise ValueError(f"eps must be positive and finite, got {self.eps}")
        if not (math.isfinite(self.moll_radius) and self.moll_radius >= 0):
            raise ValueError(f"moll_radius must be nonnegative and finite, got {self.moll_radius}")


def stream_velocity(v: ScalarField) -> VectorField:
    """Rotated stream-function gradient q = (-v_x2, v_x1)."""
    g = v.grid
    return VectorField(g, -deriv1(v.values, g.hy, axis=0), deriv1(v.values, g.hx, axis=1))


def divergence(q: VectorField) -> ScalarField:
    g = q.grid
    return ScalarField(g, deriv1(q.comp1, g.hx, axis=1) + deriv1(q.comp2, g.hy, axis=0))


def bump_kernel(radius: float, hx: float, hy: float) -> np.ndarray:
    """Compactly supported smooth bump exp(-1/(1-|z|^2/r^2)) sampled on the node lattice.

    Returned unnormalized; callers renormalize discretely.
    """
    ki = int(np.ceil(radius / hx))
    kj = int(np.ceil(radius / hy))
    di = np.arange(-ki, ki + 1) * hx
    dj = np.arange(-kj, kj + 1) * hy
    s = (dj[:, None] ** 2 + di[None, :] ** 2) / radius**2
    k = np.zeros_like(s)
    inside = s < 1.0
    k[inside] = np.exp(-1.0 / (1.0 - s[inside]))
    return k


@lru_cache(maxsize=8)
def _mollifier(grid: GridSpec, radius: float) -> tuple[LatticeConvolution, np.ndarray]:
    """The convolution with the bump kernel and its in-domain normalizer (the convolution of ones), once per grid and radius.

    The kernel's spectrum and the normalizer are read-only.
    """
    conv = LatticeConvolution(bump_kernel(radius, grid.hx, grid.hy), grid.shape)
    den = conv(np.ones(grid.shape))
    den.flags.writeable = False
    return conv, den


def mollify(q: VectorField, radius: float) -> VectorField:
    """Componentwise convolution with the bump of the given radius, normalized over in-domain nodes.

    Both components go through one FFT convolution against the kernel
    spectrum cached per grid and radius.  Constants are preserved and the
    max-norm does not grow, up to rounding; radius 0 returns ``q``.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    g = q.grid
    if radius > 0.5 * min(g.lx, g.ly):
        raise ValueError(f"mollifier radius {radius} exceeds half the domain size")
    if radius == 0.0:
        return q
    conv, den = _mollifier(g, radius)
    smooth = conv(np.stack((q.comp1, q.comp2))) / den
    return VectorField(g, smooth[0], smooth[1])


def dispersion_entries(q1, q2, p: PhysParams, eps: float = 0.0):
    """Entries (d11, d12, d22) of D (eps = 0) or of D_eps (eps > 0) at velocity (q1, q2).

    The exact branch takes (q x q)/|q| := 0 at q = 0, so D = m I there.
    """
    if eps > 0.0:
        qn = np.sqrt(q1**2 + q2**2 + eps)
        scale = (p.b - p.a) / qn
    else:
        qn = np.hypot(q1, q2)
        scale = np.zeros_like(qn)
        np.divide(p.b - p.a, qn, out=scale, where=qn > 0.0)
    iso = p.a * qn + p.m
    return iso + scale * q1**2, scale * q1 * q2, iso + scale * q2**2


def dispersion_tensor(q: VectorField, p: PhysParams) -> SymTensorField:
    """Velocity-dependent dispersion tensor with the exact branch at q = 0."""
    return SymTensorField(q.grid, *dispersion_entries(q.comp1, q.comp2, p))


def dispersion_tensor_regularized(q_eps: VectorField, p: PhysParams, r: RegParams) -> SymTensorField:
    return SymTensorField(q_eps.grid, *dispersion_entries(q_eps.comp1, q_eps.comp2, p, r.eps))


def eigen_bounds(q: VectorField, p: PhysParams) -> tuple[ScalarField, ScalarField]:
    """Per-node eigenvalues of the dispersion tensor: (a|q|+m, b|q|+m)."""
    qn = q.magnitude()
    return ScalarField(q.grid, p.a * qn + p.m), ScalarField(q.grid, p.b * qn + p.m)
