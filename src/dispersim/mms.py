"""Manufactured-solution and self-convergence studies.

The Poisson study solves lap(v) = -2 pi^2 sin(pi x1) sin(pi x2) against the
known solution across a ladder of grids and reports the observed order as
the least-squares slope of log(error) vs log(h); the 5-point stencil gives
slope 2.  The coupled study measures the temporal order of the full
nonlinear march by Richardson self-comparison: the run is repeated with
dt, dt/2, dt/4, ... on a fixed grid and successive final states are
differenced; backward Euler gives order 1.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .config import reference_config
from .elliptic import PoissonSolver
from .grid import GridSpec, ScalarField
from .transport import run


@dataclass
class ConvergenceLevel:
    label: str
    h: float
    error: float
    order: float  # vs the previous level; nan on the first


def _add_level(rows: list[ConvergenceLevel], label: str, h: float, error: float) -> None:
    """Append a level with its order against the previous one (nan on the first)."""
    order = float(np.log2(rows[-1].error / error)) if rows else float("nan")
    rows.append(ConvergenceLevel(label, h, error, order))


def _fitted_order(rows: list[ConvergenceLevel]) -> float:
    """Least-squares slope of log(error) against log(h); nan below two levels."""
    if len(rows) < 2:
        return float("nan")
    return float(np.polyfit(np.log([r.h for r in rows]), np.log([r.error for r in rows]), 1)[0])


# the most levels a study may ask for: the Poisson ladder's finest grid is then 2049^2 (34 MB per array),
# and the coupled study's eight runs take 2,040 steps together at n = 33
_MAX_LEVELS = 8


def _check_levels(levels: int) -> None:
    if not 2 <= levels <= _MAX_LEVELS:
        raise ValueError(f"levels must be from 2 to {_MAX_LEVELS}, got {levels}")


def poisson_convergence(levels: int = 4) -> tuple[list[ConvergenceLevel], float]:
    """Poisson MMS on the grids 17, 33, 65, ... (``levels`` of them)."""
    _check_levels(levels)
    rows: list[ConvergenceLevel] = []
    n = 17
    for _ in range(levels):
        g = GridSpec(n, n)
        x1, x2 = g.nodes()
        exact = np.sin(np.pi * x1) * np.sin(np.pi * x2)
        rhs = ScalarField(g, -2.0 * np.pi**2 * exact)
        # the reachable relative residual grows with the condition number, ~n^2
        tol = 1e-12 * max(1.0, ((n - 1) / 256) ** 2)
        v, _ = PoissonSolver(g).solve(rhs, tol=tol)
        _add_level(rows, f"{n}x{n}", g.hx, float(np.max(np.abs(v.values - exact))))
        n = 2 * n - 1
    return rows, _fitted_order(rows)


def coupled_time_convergence(levels: int = 3) -> tuple[list[ConvergenceLevel], float]:
    """Temporal self-convergence of the coupled march under dt halving.

    The base run is ``reference_config(33, t_end=0.125)`` at dt = 1/64.
    """
    _check_levels(levels)
    base = replace(reference_config(n=33, t_end=0.125), dt=1.0 / 64)
    finals = [run(replace(base, dt=base.dt / 2**k)).final.u.values for k in range(levels)]
    rows: list[ConvergenceLevel] = []
    for k in range(levels - 1):
        dt = base.dt / 2**k
        _add_level(rows, f"dt={dt:.6g} vs dt/2", dt, float(np.max(np.abs(finals[k] - finals[k + 1]))))
    return rows, _fitted_order(rows)


def format_convergence_table(rows: list[ConvergenceLevel], slope: float) -> str:
    lines = [f"{'level':<22}{'h':>12}{'error':>14}{'order':>8}"]
    for r in rows:
        order = "" if np.isnan(r.order) else f"{r.order:.3f}"
        lines.append(f"{r.label:<22}{r.h:>12.6g}{r.error:>14.4e}{order:>8}")
    lines.append(f"observed order (least squares): {slope:.4f}" if np.isfinite(slope) else "observed order: n/a")
    return "\n".join(lines)
