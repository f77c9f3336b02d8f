"""Acceptance checks: one function per criterion, shared by the CLI and the tests.

Each check returns a ``CheckRow`` whose pass condition is
``value <= threshold`` or ``value >= threshold`` depending on ``cmp``.
Randomized checks take an explicit seed so tables are reproducible run to
run.  Heavy trajectories (the reference run and its refinements) are
computed once per ``RunCache`` and shared between checks; the cache
records wall-clock durations of the underlying runs so the runtime
budgets refer to actual solver work, not cache hits.
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .coefficients import (
    PhysParams,
    dispersion_entries,
    dispersion_tensor,
    divergence,
    eigen_bounds,
    stream_velocity,
)
from .config import RunConfig, reference_config
from .grid import GridSpec, ScalarField, VectorField, quad_form
from .identities import (
    RecursionParams,
    _random_smooth,
    contract,
    det2,
    log_kernel_average,
    matvec,
    power_equation_residual,
    reconstruct_hessian,
    recursion_threshold,
    sandwich_identity_residuals,
    square_decomposition_residuals,
    superlinear_recursion,
    vector_calc_residuals,
)
from .mapped_domain import (
    builtin_charts,
    chart_mesh,
    det_product_residual,
    exponential_chart,
    jacobian_identity_residual,
    pushforward_gradient_residual,
    reflect_extend,
    transformed_poisson_residual,
    transformed_transport_residual,
)
from .mms import poisson_convergence
from .transport import Trajectory, run

DEFAULT_SEED = 20250810


@dataclass
class CheckRow:
    name: str
    trials: int
    value: float
    threshold: float
    cmp: str  # "<=" or ">="
    passed: bool
    seed: int
    elapsed: float
    note: str = ""


def _row(name, trials, value, threshold, cmp, seed, t0, note="", extra=True) -> CheckRow:
    """A row that passes when ``value cmp threshold`` holds and the check's ``extra`` condition is true."""
    passed = (value <= threshold if cmp == "<=" else value >= threshold) and extra
    return CheckRow(name, trials, float(value), float(threshold), cmp, bool(passed), seed, time.perf_counter() - t0, note)


class RunCache:
    """Lazily computed trajectories shared by the solver-facing criteria."""

    def __init__(self):
        self._tmp = tempfile.TemporaryDirectory(prefix="dispersim-accept-")
        self.base = Path(self._tmp.name)
        self._runs: dict[str, Trajectory] = {}
        self.durations: dict[str, float] = {}

    def _get(self, key: str, cfg: RunConfig, outdir: Path | None = None) -> Trajectory:
        if key not in self._runs:
            t0 = time.perf_counter()
            self._runs[key] = run(cfg, outdir=outdir)
            self.durations[key] = time.perf_counter() - t0
        return self._runs[key]

    def reference(self) -> Trajectory:
        return self._get("ref1", reference_config(), self.base / "ref1")

    def reference_repeat(self) -> Trajectory:
        return self._get("ref2", reference_config(), self.base / "ref2")

    def reference_diag_bytes(self) -> tuple[bytes, bytes]:
        self.reference()
        self.reference_repeat()
        return (
            (self.base / "ref1" / "diagnostics.csv").read_bytes(),
            (self.base / "ref2" / "diagnostics.csv").read_bytes(),
        )

    def aniso_fine(self) -> Trajectory:
        return self._get("aniso129", reference_config(n=129))

    def isotropic(self) -> Trajectory:
        return self._get("iso65", reference_config(a=1.0, b=1.0, m=0.5))


def _overshoot(tr: Trajectory) -> float:
    rows = tr.diagnostics
    umax0, umin0 = rows[0].umax, rows[0].umin
    over = max(r.umax - umax0 for r in rows)
    under = max(umin0 - r.umin for r in rows)
    return max(0.0, over, under)


# ---------------------------------------------------------------------------
# criteria


def check_matrix_decomposition(seed: int = DEFAULT_SEED) -> CheckRow:
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    n = 10_000
    a11, a12, a22 = rng.uniform(-10.0, 10.0, size=(3, n))
    res = square_decomposition_residuals(a11, a12, a22)
    scale = 1.0 + a11**2 + 2.0 * a12**2 + a22**2
    return _row("matrix-square-decomposition", n, np.max(res / scale), 1e-12, "<=", seed, t0)


def _random_spd(rng, n):
    theta = rng.uniform(0.0, np.pi, size=n)
    lam1 = np.exp(rng.uniform(np.log(0.1), np.log(10.0), size=n))
    lam2 = np.exp(rng.uniform(np.log(0.1), np.log(10.0), size=n))
    c, s = np.cos(theta), np.sin(theta)
    d11 = c**2 * lam1 + s**2 * lam2
    d22 = s**2 * lam1 + c**2 * lam2
    d12 = c * s * (lam1 - lam2)
    return d11, d12, d22


def check_sandwich_identity(seed: int = DEFAULT_SEED) -> CheckRow:
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed + 1)
    n = 10_000
    d11, d12, d22 = _random_spd(rng, n)
    s11, s12, s22 = rng.uniform(-10.0, 10.0, size=(3, n))
    res = sandwich_identity_residuals(d11, d12, d22, s11, s12, s22)
    d, s = (d11, d12, d22), (s11, s12, s22)
    dnorm, snorm2 = np.sqrt(contract(d, d)), contract(s, s)
    det_s = np.abs(det2(((s11, s12), (s12, s22))))
    scale = 1.0 + dnorm * (snorm2 + det_s)
    return _row("sandwich-identity", n, np.max(res / scale), 1e-10, "<=", seed, t0)


def check_tensor_structure(seed: int = DEFAULT_SEED) -> CheckRow:
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed + 2)
    worst = 0.0
    trials = 0
    for a, b, m in ((1.0, 2.0, 0.5), (0.3, 1.7, 2.0)):
        p = PhysParams(a, b, m)
        g = GridSpec(101, 101)
        q = VectorField(g, rng.uniform(-5, 5, g.shape), rng.uniform(-5, 5, g.shape))
        D = dispersion_tensor(q, p)
        lo, hi = eigen_bounds(q, p)
        half_tr = 0.5 * (D.d11 + D.d22)
        disc = np.sqrt(0.25 * (D.d11 - D.d22) ** 2 + D.d12**2)
        eig_lo, eig_hi = half_tr - disc, half_tr + disc
        det = det2(((D.d11, D.d12), (D.d12, D.d22)))
        worst = max(
            worst,
            float(np.max(np.abs(eig_lo - lo.values) / lo.values)),
            float(np.max(np.abs(eig_hi - hi.values) / hi.values)),
            float(np.max(np.abs(det - lo.values * hi.values) / (lo.values * hi.values))),
        )
        trials += q.comp1.size
    return _row("dispersion-eigenvalues-det", trials, worst, 1e-12, "<=", seed, t0)


def check_discrete_divergence(seed: int = DEFAULT_SEED) -> CheckRow:
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed + 3)
    g = GridSpec(129, 129)
    worst = 0.0
    for _ in range(2):
        v = ScalarField(g, _random_smooth(g, rng))
        div = divergence(stream_velocity(v)).values
        worst = max(worst, float(np.max(np.abs(div[1:-1, 1:-1]))))
    return _row("discrete-divergence-free", 2 * g.nx * g.ny, worst, 1e-12, "<=", seed, t0)


def check_mass_conservation(cache: RunCache) -> CheckRow:
    t0 = time.perf_counter()
    tr = cache.reference()
    mass0 = tr.diagnostics[0].mass
    worst = max(abs(r.mass - mass0) for r in tr.diagnostics)
    row = _row("mass-conservation", len(tr.diagnostics), worst / abs(mass0), 1e-11, "<=", 0, t0)
    row.elapsed = cache.durations.get("ref1", row.elapsed)
    return row


def check_max_principle(cache: RunCache) -> CheckRow:
    t0 = time.perf_counter()
    iso = _overshoot(cache.isotropic())
    o65 = _overshoot(cache.reference())
    o129 = _overshoot(cache.aniso_fine())
    # refinement must not grow the anisotropic overshoot (1e-14 rounding floor)
    row = _row("weak-maximum-principle", 3, iso, 1e-10, "<=", 0, t0,
               note=f"iso={iso:.2e} aniso65={o65:.2e} aniso129={o129:.2e}", extra=o129 <= o65 + 1e-14)
    row.elapsed = cache.durations.get("aniso129", 0.0) + cache.durations.get("ref1", 0.0)
    return row


def check_energy_inequality(cache: RunCache) -> CheckRow:
    t0 = time.perf_counter()
    tr = cache.reference()
    rows = tr.diagnostics
    l2sq0 = rows[0].l2sq
    lhs = 0.5 * max(r.l2sq for r in rows) + rows[-1].energy_dissip
    return _row("energy-inequality", len(rows), (lhs - l2sq0) / l2sq0, 1e-8, "<=", 0, t0,
                note=f"lhs={lhs:.6g} initial={l2sq0:.6g}")


def check_poisson_mms() -> CheckRow:
    t0 = time.perf_counter()
    rows, slope = poisson_convergence(levels=4)
    return _row("poisson-mms-order", len(rows), abs(slope - 2.0), 0.2, "<=", 0, t0,
                note=f"slope={slope:.4f}")


def check_power_equation() -> CheckRow:
    """The phi^j equation's residual must fall at least 3x per halving of h, for j = 1 and 2.

    One ``power_equation_residual`` call per grid level serves both powers.
    """
    t0 = time.perf_counter()

    def u_fn(x1, x2, t):
        return x1 + 0.2 * np.sin(x1 + x2) * np.exp(-t)

    def v_fn(x1, x2, t):
        return 0.1 * np.sin(np.pi * x1) * np.sin(np.pi * x2)

    p = PhysParams(1.0, 2.0, 1.0)
    js = (1, 2)
    levels = [[norm for _, norm in power_equation_residual(u_fn, v_fn, p, js, GridSpec(n, n))] for n in (33, 65, 129)]
    min_ratio = np.inf
    note = []
    for j, norms in zip(js, zip(*levels)):
        ratios = [norms[k] / norms[k + 1] for k in range(len(norms) - 1)]
        min_ratio = min(min_ratio, *ratios)
        note.append(f"j={j}: " + " ".join(f"{r:.2f}" for r in ratios))
    return _row("power-equation-refinement", 6, min_ratio, 3.0, ">=", 0, t0, note="; ".join(note))


def check_hessian_reconstruction(seed: int = DEFAULT_SEED) -> CheckRow:
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed + 4)
    n = 1000
    q1, q2 = rng.uniform(-3, 3, size=(2, n))
    d11, d12, d22 = dispersion_entries(q1, q2, PhysParams(1.0, 2.0, 1.0))
    ux1 = rng.uniform(0.3, 2.0, n) * rng.choice([-1.0, 1.0], n)
    ux2 = rng.uniform(0.3, 2.0, n) * rng.choice([-1.0, 1.0], n)
    s11, s12, s22 = rng.uniform(-2, 2, size=(3, n))
    g1, g2 = rng.uniform(-1, 1, size=(2, n))
    d_rows = ((d11, d12), (d12, d22))
    phi = quad_form(d11, d12, d22, ux1, ux2)
    e1, e2 = matvec(d_rows, ux1, ux2)
    # consistent first-order data: grad(phi) = 2 S (D grad u) + phi G, w = u_t - D:S
    se1, se2 = matvec(((s11, s12), (s12, s22)), e1, e2)
    phi_x1 = 2.0 * se1 + phi * g1
    phi_x2 = 2.0 * se2 + phi * g2
    u_t = rng.uniform(-1, 1, n)
    w = u_t - contract((d11, d12, d22), (s11, s12, s22))
    h = np.stack(reconstruct_hessian((d11, d12, d22), (ux1, ux2), (phi_x1, phi_x2), (g1, g2), u_t, w), axis=1)
    # independent oracle: dense 3x3 solves with E, whose determinant must be det(D) phi
    E = np.zeros((n, 3, 3))
    E[:, 0, 0], E[:, 0, 1] = e1, e2
    E[:, 1, 1], E[:, 1, 2] = e1, e2
    E[:, 2, 0], E[:, 2, 1], E[:, 2, 2] = d11, 2 * d12, d22
    rhs = np.stack([(phi_x1 - phi * g1) / 2, (phi_x2 - phi * g2) / 2, u_t - w], axis=1)
    sol = np.linalg.solve(E, rhs[..., None])[..., 0]
    sscale = np.maximum(1.0, np.abs(s11) + np.abs(s12) + np.abs(s22))[:, None]
    exact = np.stack([s11, s12, s22], axis=1)
    worst = float(max(np.max(np.abs(h - exact) / sscale), np.max(np.abs(sol - h) / sscale)))
    det_d_phi = det2(d_rows) * phi
    det_rel = float(np.max(np.abs(np.linalg.det(E) - det_d_phi) / np.abs(det_d_phi)))
    return _row("hessian-reconstruction", n, worst, 1e-12, "<=", seed, t0,
                note=f"detE rel dev {det_rel:.2e}", extra=det_rel <= 1e-10)


def _log_recursion(c, b, alpha, y0, steps: int) -> np.ndarray:
    """ln y_steps of y_{k+1} = c b^k y_k^{1+alpha}, elementwise, with ln y clamped below at -1e306.

    Each step is max(ln c + k ln b + (1 + alpha) ln y, -1e306), its sums in that
    order, computed in place; decaying tails clamp instead of overflowing.
    """
    ly = np.where(y0 > 0, np.log(np.where(y0 > 0, y0, 1.0)), -1e306)
    logc, logb, power = np.log(c), np.log(b), 1.0 + alpha
    step = np.empty_like(ly)
    for k in range(steps):
        np.multiply(k, logb, out=step)
        step += logc  # IEEE sums and products commute, so these are the written order's bits
        ly *= power
        step += ly
        np.maximum(step, -1e306, out=ly)
    return ly


def check_recursion(seed: int = DEFAULT_SEED) -> CheckRow:
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed + 5)
    n = 1000
    c = np.exp(rng.uniform(np.log(0.1), np.log(10.0), n))
    b = rng.uniform(1.3, 5.0, n)
    alpha = rng.uniform(0.5, 2.0, n)
    # strictly below the threshold: sitting exactly on it is neutrally stable,
    # so a 1-ulp rounding of the threshold value flips convergence after
    # enough iterations; the worked power-of-two case below covers equality
    # in exact arithmetic.
    frac = rng.uniform(0.0, 1.0, n)
    frac[0] = 1.0 - 1e-9
    y0 = frac * recursion_threshold(c, b, alpha)
    worst = float(np.max(np.exp(np.minimum(_log_recursion(c, b, alpha, y0, 600), 700.0))))
    seq, converged = superlinear_recursion(RecursionParams(1.0, 2.0, 1.0, 0.5), 60)
    ok_worked = converged and seq[-1] < 1e-12 and abs(seq[1] - 0.25) < 1e-15 and abs(seq[3] - 0.0625) < 1e-15
    return _row("level-set-recursion", n + 1, worst, 1e-12, "<=", seed, t0,
                note=f"worked case reaches {seq[-1]:.2e} in 60 steps", extra=ok_worked)


def check_log_kernel() -> CheckRow:
    t0 = time.perf_counter()
    g = GridSpec(129, 129)
    f = ScalarField.full(g, 1.0)
    radii = [0.2, 0.1, 0.05, 0.025]
    etas = [log_kernel_average(f, r, (0.5, 0.5)) for r in radii]
    decreasing = all(etas[k + 1] < etas[k] for k in range(len(etas) - 1))
    ratios = [eta / r**1.9 for eta, r in zip(etas, radii)]
    return _row("log-kernel-average", len(radii), max(ratios), 20.0, "<=", 0, t0,
                note="eta=" + " ".join(f"{e:.4f}" for e in etas), extra=decreasing)


def check_appendix(seed: int = DEFAULT_SEED) -> CheckRow:
    t0 = time.perf_counter()
    jac = max(jacobian_identity_residual(c, seed) for c in builtin_charts())
    detp = max(det_product_residual(c, seed) for c in builtin_charts())

    def v_fn(x1, x2):
        return np.sin(x1) * np.cos(x2)

    def u_fn(x1, x2):
        return 2.0 * np.cos(x1) * np.cos(x2)

    chart = exponential_chart()
    pois, tran = [], []
    for n in (33, 65, 129):
        mesh = chart_mesh(chart, n)
        pois.append(transformed_poisson_residual(mesh, v_fn, u_fn)[1])
        tran.append(transformed_transport_residual(mesh)[1])
    ratios = [pois[k] / pois[k + 1] for k in range(2)] + [tran[k] / tran[k + 1] for k in range(2)]

    rng = np.random.default_rng(seed)
    g = GridSpec(9, 7, lx=0.4, ly=1.0)
    x1, x2 = g.nodes()
    exact = True
    # mirror (anti)symmetry about the center column, original preserved, max-norm exact
    for f, parity, sign in ((rng.uniform(-1, 1, g.shape), "even", 1.0), (x1 * (1.0 + x2), "odd", -1.0)):
        ext = reflect_extend(ScalarField(g, f), parity).values
        exact = exact and (
            np.array_equal(ext, sign * ext[:, ::-1])
            and np.array_equal(ext[:, g.nx - 1:], f)
            and np.max(np.abs(ext)) == np.max(np.abs(f))
        )

    value = max(jac, detp)
    return _row("flattening-identities", 3, value, 1e-12, "<=", seed, t0,
                note=f"minratio={min(ratios):.2f} reflections_exact={exact}", extra=min(ratios) >= 3.0 and exact)


def check_determinism(cache: RunCache) -> CheckRow:
    t0 = time.perf_counter()
    b1, b2 = cache.reference_diag_bytes()
    return _row("determinism", 2, 0.0 if b1 == b2 else 1.0, 0.0, "<=", 0, t0)


def check_boundedness_monitor(cache: RunCache) -> CheckRow:
    t0 = time.perf_counter()
    tr = cache.reference()
    series = [r.grad_sup for r in tr.diagnostics] + [r.phi_max for r in tr.diagnostics]
    finite = all(np.isfinite(series))
    header = (cache.base / "ref1" / "diagnostics.csv").read_text().splitlines()[0]
    emitted = "grad_sup" in header and "phi_max" in header
    return _row("gradient-monitoring", len(series), 0.0 if (finite and emitted) else 1.0, 0.0, "<=", 0, t0,
                note=f"grad_sup final {tr.diagnostics[-1].grad_sup:.4g}, phi_max final {tr.diagnostics[-1].phi_max:.4g}")


def check_pushforward(seed: int = DEFAULT_SEED) -> CheckRow:
    t0 = time.perf_counter()

    def grad_u(x1, x2):
        return np.cos(x1) * x2, np.sin(x1)

    worst = max(pushforward_gradient_residual(c, grad_u, seed) for c in builtin_charts())
    return _row("gradient-pushforward", 3000, worst, 1e-10, "<=", seed, t0)


def check_product_rules(seed: int = DEFAULT_SEED) -> CheckRow:
    t0 = time.perf_counter()
    r33 = vector_calc_residuals(GridSpec(33, 33), seed)
    r65 = vector_calc_residuals(GridSpec(65, 65), seed)
    min_ratio = min(r33[k] / r65[k] for k in r33)
    return _row("product-rules-refinement", len(r33), min_ratio, 3.0, ">=", seed, t0,
                note=" ".join(f"{k}:{r65[k]:.1e}" for k in r65))
