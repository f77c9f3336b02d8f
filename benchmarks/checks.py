"""Correctness checks the benchmark computes itself from the run's outputs.

None of these compares against a stored copy of earlier output, and none
calls the program's own quadrature, stencils or snapshot reader: the
trapezoid weights, the 5-point Laplacian, the central difference and the
CSV parse are rebuilt here from numpy slices.  Each check is one
operation in the benchmark's bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

MASS_DRIFT_MAX = 1e-11
ENERGY_SLACK = 1e-8
POISSON_SLACK = 1.01  # the recomputed residual may exceed lin_tol by rounding only
DISSIPATION_RTOL = 1e-9

COUPLED_CHECKS = (
    "final-time", "mass-drift", "energy-inequality", "stream-poisson",
    "snapshot-count", "snapshot-bit-exact",
)  # plus "restart-ic" when the run restarts from a generated field


@dataclass
class Check:
    name: str
    passed: bool
    detail: str


def trapezoid_weights(nx: int, ny: int, lx: float, ly: float) -> np.ndarray:
    hx, hy = lx / (nx - 1), ly / (ny - 1)
    cx = np.ones(nx)
    cx[[0, -1]] = 0.5
    cy = np.ones(ny)
    cy[[0, -1]] = 0.5
    return hx * hy * np.outer(cy, cx)


def _gradient(u: np.ndarray, hx: float, hy: float) -> tuple[np.ndarray, np.ndarray]:
    g2, g1 = np.gradient(u, hy, hx, edge_order=2)
    return g1, g2


def poisson_residual(u: np.ndarray, v: np.ndarray, hx: float, hy: float) -> float:
    """||lap5(v) - (u[i+1] - u[i-1]) / 2hx|| / ||rhs|| over interior nodes."""
    lap = (v[1:-1, 2:] - 2.0 * v[1:-1, 1:-1] + v[1:-1, :-2]) / hx**2 + (
        v[2:, 1:-1] - 2.0 * v[1:-1, 1:-1] + v[:-2, 1:-1]
    ) / hy**2
    rhs = (u[1:-1, 2:] - u[1:-1, :-2]) / (2.0 * hx)
    bnorm = float(np.linalg.norm(rhs))
    return float(np.linalg.norm(lap - rhs)) / bnorm if bnorm > 0.0 else float(np.linalg.norm(lap))


def expected_snapshot_steps(n_steps: int, output_every: int) -> set[int]:
    steps = {0, n_steps}
    if output_every > 0:
        steps.update(range(output_every, n_steps + 1, output_every))
    return steps


def read_csv_values(path: Path, shape: tuple[int, int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return (data[:, 0].reshape(shape), data[:, 1].reshape(shape), data[:, 2].reshape(shape))


def coupled_checks(traj, cfg, outdir: Path, n_steps: int, ic_values: np.ndarray | None = None) -> list[Check]:
    """Checks of one coupled trajectory and the files its run wrote to ``outdir``."""
    g = cfg.grid
    hx, hy = g.lx / (g.nx - 1), g.ly / (g.ny - 1)
    w = trapezoid_weights(g.nx, g.ny, g.lx, g.ly)
    states = traj.states
    rows = traj.diagnostics
    out: list[Check] = []

    final = states[-1]
    out.append(Check(
        "final-time",
        final.step == n_steps and abs(final.t - cfg.t_end) <= 1e-9 * cfg.t_end,
        f"step {final.step}/{n_steps}, t={final.t!r}",
    ))

    masses = [float(np.sum(w * s.u.values)) for s in states]
    drift = max(abs(m - masses[0]) for m in masses) / abs(masses[0])
    out.append(Check("mass-drift", drift <= MASS_DRIFT_MAX, f"{drift:.3e} <= {MASS_DRIFT_MAX:.0e}"))

    # energy: the reported accumulated dissipation is trusted only where every
    # stored state reproduces its own increment and its own ||u||^2
    l2 = {s.step: float(np.sum(w * s.u.values**2)) for s in states}
    worst = 0.0
    for s in states:
        k = s.step
        rel_l2 = abs(rows[k].l2sq - l2[k]) / l2[k]
        worst = max(worst, rel_l2)
        if k == 0:
            continue
        g1, g2 = _gradient(s.u.values, hx, hy)
        D = s.D_eps
        phi = D.d11 * g1 * g1 + 2.0 * D.d12 * g1 * g2 + D.d22 * g2 * g2
        inc = (rows[k].t - rows[k - 1].t) * float(np.sum(w * phi))
        reported = rows[k].energy_dissip - rows[k - 1].energy_dissip
        worst = max(worst, abs(reported - inc) / max(abs(inc), 1e-300))
    max_l2 = max(max(l2.values()), max(r.l2sq for r in rows))
    lhs = 0.5 * max_l2 + rows[-1].energy_dissip
    bound = l2[0] * (1.0 + ENERGY_SLACK)
    out.append(Check(
        "energy-inequality",
        lhs <= bound and worst <= DISSIPATION_RTOL,
        f"lhs {lhs:.12g} <= {bound:.12g}; stored-state mismatch {worst:.2e}",
    ))

    res = max(poisson_residual(s.u.values, s.v.values, hx, hy) for s in states)
    limit = POISSON_SLACK * cfg.lin_tol
    out.append(Check("stream-poisson", res <= limit, f"{res:.3e} <= {limit:.3e}"))

    want = expected_snapshot_steps(n_steps, cfg.output_every)
    found_u = {int(p.stem[2:]) for p in outdir.glob("u_*.csv")}
    found_v = {int(p.stem[2:]) for p in outdir.glob("v_*.csv")}
    stored = {s.step for s in states}
    out.append(Check(
        "snapshot-count",
        found_u == want and found_v == want and stored == want,
        f"{len(found_u)}+{len(found_v)} files for {len(want)} steps (output_every={cfg.output_every})",
    ))

    x1 = np.arange(g.nx) * hx
    x2 = np.arange(g.ny) * hy
    mismatched = []
    for s in states:
        for field, arr in (("u", s.u.values), ("v", s.v.values)):
            path = outdir / f"{field}_{s.step:06d}.csv"
            if not path.exists():
                mismatched.append(path.name)
                continue
            c1, c2, vals = read_csv_values(path, g.shape)
            coords_ok = np.allclose(c1, x1[None, :], rtol=0, atol=1e-12) and np.allclose(c2, x2[:, None], rtol=0, atol=1e-12)
            if not (coords_ok and np.array_equal(vals, arr)):
                mismatched.append(path.name)
    out.append(Check(
        "snapshot-bit-exact",
        not mismatched,
        f"{2 * len(states) - len(mismatched)}/{2 * len(states)} files read back exactly"
        + (f"; first mismatch {mismatched[0]}" if mismatched else ""),
    ))

    if ic_values is not None:
        same = np.array_equal(states[0].u.values, ic_values)
        out.append(Check("restart-ic", same, "initial state equals the generated field" if same else "initial state differs"))
    return out


def certify_checks(rows, expected: tuple[str, ...]) -> list[Check]:
    """One check per expected row: present, passed, and value on the right side of its threshold."""
    by_name = {r.name: r for r in rows}
    out = []
    for name in expected:
        r = by_name.get(name)
        if r is None:
            out.append(Check(name, False, "row missing"))
            continue
        side = r.value <= r.threshold if r.cmp == "<=" else r.value >= r.threshold
        out.append(Check(name, bool(r.passed and side), f"{r.value:.3e} {r.cmp} {r.threshold:.1e}"))
    return out
