"""The three workloads: seeded inputs, one timed round each, and its checks.

``restart-65``  n=65, a=1, b=2, m=0.5, dt=1/64 to t=0.25, mollifier radius
                0.1, a snapshot every step, restarted from an IC snapshot CSV
                that set-up writes from a seeded smooth field.  The only
                workload where the mollifier and snapshot I/O do real work.
``coupled-129`` ``reference_config(n=129)`` (the anisotropic trajectory behind
                the weak-maximum-principle criterion) with the Gaussian centre
                moved by the seed, no intermediate snapshots.  Poisson CG and
                the transport linear layer do nearly all the work.
``certify``     ``run_suite`` for ``identities`` and ``appendix`` at the seed.
                No Poisson or transport solve, so solver changes should not
                move it.

Seeded perturbations are kept small so every seed does nearly the same
amount of solver work; the seed varies the inputs, not the workload.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from dispersim import acceptance, transport, verify
from dispersim.coefficients import PhysParams, RegParams
from dispersim.grid import GridSpec, ScalarField, write_snapshot

import checks
from calibrate import ReferenceLoop, ScaledClock
from spans import ACCEPTANCE_LAYERS, TRANSPORT_LAYERS, Patch, Tracer

CERTIFY_ROWS = (
    "matrix-square-decomposition",
    "sandwich-identity",
    "dispersion-eigenvalues-det",
    "discrete-divergence-free",
    "power-equation-refinement",
    "hessian-reconstruction",
    "level-set-recursion",
    "log-kernel-average",
    "product-rules-refinement",
    "flattening-identities",
    "gradient-pushforward",
)


@dataclass
class Inputs:
    name: str
    seed: int
    cfg: transport.RunConfig | None = None
    ic_values: np.ndarray | None = None

    @property
    def n_steps(self) -> int:
        return 0 if self.cfg is None else math.ceil(self.cfg.t_end / self.cfg.dt - 1e-9)


@dataclass
class Round:
    wall_s: float  # reference seconds
    raw_s: float
    attempted: int
    failed: int
    traced: bool = False
    checks: list[checks.Check] = field(default_factory=list)
    layers: dict[str, float] = field(default_factory=dict)
    not_measured: list[str] = field(default_factory=list)
    spans: list[list] = field(default_factory=list)


def restart_field(grid: GridSpec, seed: int) -> np.ndarray:
    """A Gaussian bump near the centre plus small seeded low cosine modes."""
    rng = np.random.default_rng(seed)
    cx, cy = 0.5 + rng.uniform(-0.05, 0.05, size=2)
    coef = 0.02 * rng.uniform(-1.0, 1.0, size=(2, 2))
    x1, x2 = grid.nodes()
    u = np.exp(-((x1 - cx) ** 2 + (x2 - cy) ** 2) / (2.0 * 0.1**2))
    for k in range(2):
        for l in range(2):
            u += coef[k, l] * np.cos((k + 1) * np.pi * x1) * np.cos((l + 1) * np.pi * x2)
    return u


def make_inputs(name: str, seed: int, workdir: Path, n: int | None = None) -> Inputs:
    """Generate a workload's inputs; ``n`` shrinks the grid for smoke tests."""
    if name == "restart-65":
        grid = GridSpec(n or 65, n or 65)
        u0 = restart_field(grid, seed)
        ic_path = workdir / "ic.csv"
        write_snapshot(ScalarField(grid, u0), ic_path)
        cfg = transport.RunConfig(
            grid=grid,
            phys=PhysParams(1.0, 2.0, 0.5),
            reg=RegParams(moll_radius=0.1),
            dt=1.0 / 64.0,
            t_end=0.25,
            ic=str(ic_path),
            output_every=1,
        )
        return Inputs(name, seed, cfg, u0)
    if name == "coupled-129":
        rng = np.random.default_rng(seed)
        cx, cy = (0.5 + float(d) for d in rng.uniform(-0.02, 0.02, size=2))
        cfg = acceptance.reference_config(n=n or 129)
        cfg = dataclasses.replace(cfg, ic_params=f"{cfg.ic_params},cx={cx!r},cy={cy!r}")
        return Inputs(name, seed, cfg)
    if name == "certify":
        return Inputs(name, seed)
    raise ValueError(f"unknown workload {name!r}")


def _cg_iterations(args, kwargs, result) -> float:
    report = result[1] if isinstance(result, tuple) and len(result) > 1 else None
    return getattr(report, "iterations", 0)


def _factor_nnz(args, kwargs, result) -> float:
    return getattr(result, "nnz", 0)


def _snapshot_bytes(args, kwargs, result) -> float:
    path = args[1] if len(args) > 1 else kwargs.get("path")
    return Path(path).stat().st_size if path is not None else 0


SPAN_COUNTS = {
    "elliptic.solve": _cg_iterations,
    "transport.factor": _factor_nnz,
    "grid.snapshot_write": _snapshot_bytes,
}


def layer_metrics(tr: Tracer, reports) -> dict[str, float]:
    step = tr.total("transport.step")
    children = tr.children_total("transport.step")
    factorizations = tr.calls("transport.factor")
    passes = sum(r.picard_iterations for r in reports)
    return {
        "elliptic.solve_s": tr.total("elliptic.solve"),
        "elliptic.solves": tr.calls("elliptic.solve"),
        "elliptic.cg_iters": tr.counted("elliptic.solve"),
        "coefficients.velocity_s": tr.total("coefficients.velocity"),
        "coefficients.mollify_s": tr.total("coefficients.mollify"),
        "coefficients.tensor_s": tr.total("coefficients.tensor"),
        "transport.assemble_s": tr.total("transport.assemble"),
        "transport.factor_s": tr.total("transport.factor"),
        "transport.factorizations": factorizations,
        "transport.factor_nnz": tr.counted("transport.factor") / factorizations if factorizations else 0.0,
        "transport.krylov_s": tr.total("transport.krylov"),
        "transport.krylov_calls": tr.calls("transport.krylov"),
        "transport.step_s": step,
        "transport.step_self_s": step - children,
        "transport.step_child_share": 100.0 * children / step if step else 0.0,
        "transport.picard_passes": passes,
        "transport.passes_per_step": passes / len(reports) if reports else 0.0,
        "transport.diagnostics_s": tr.total("transport.diagnostics"),
        "grid.snapshot_write_s": tr.total("grid.snapshot_write"),
        "grid.snapshot_read_s": tr.total("grid.snapshot_read"),
        "grid.snapshot_bytes": tr.counted("grid.snapshot_write"),
        "identities.suite_s": tr.total("identities.suite"),
        "identities.log_kernel_average_s": tr.total("identities.log_kernel_average"),
        "mapped_domain.suite_s": tr.total("mapped_domain.suite"),
    }


def _completed_steps(outdir: Path) -> int:
    """Steps whose diagnostics row reached disk before the run raised."""
    path = outdir / "diagnostics.csv"
    if not path.exists():
        return 0
    return max(0, len(path.read_text().splitlines()) - 2)


@contextlib.contextmanager
def _mark_each_step(clock):
    """Mark ``clock`` after every time step, so each step is scaled by the core speed around it."""
    original = getattr(transport, "picard_coupled_step", None)
    if original is None:
        yield
        return

    def marked(*args, **kwargs):
        out = original(*args, **kwargs)
        clock.mark()
        return out

    transport.picard_coupled_step = marked
    try:
        yield
    finally:
        transport.picard_coupled_step = original


def run_round(inp: Inputs, outdir: Path, loop: ReferenceLoop, traced: bool = False) -> Round:
    """One whole round: solve (or certify) once, then check every output.

    The round is timed in reference seconds.  A traced round also records
    raw span times; the reference loop runs between steps, outside them.
    """
    clock = ScaledClock(loop)
    tracer = Tracer()
    with Patch(tracer, transport, TRANSPORT_LAYERS if traced else {}, SPAN_COUNTS) as tp, \
            Patch(tracer, acceptance, ACCEPTANCE_LAYERS if traced else {}) as ap:
        if inp.cfg is None:
            rnd, reports = _certify_round(inp, clock, tracer if traced else None), []
        else:
            rnd, reports = _coupled_round(inp, outdir, clock)
    if traced:
        rnd.traced = True
        rnd.layers = layer_metrics(tracer, reports)
        rnd.not_measured = tp.not_measured + ap.not_measured
        rnd.spans = tracer.dump()
    return rnd


def _coupled_round(inp: Inputs, outdir: Path, clock) -> tuple[Round, list]:
    n_checks = len(checks.COUPLED_CHECKS) + (inp.ic_values is not None)
    clock.start()
    try:
        with _mark_each_step(clock):
            traj = transport.run(inp.cfg, outdir)
    except transport.SolverError:
        clock.mark()
        failed_steps = inp.n_steps - _completed_steps(outdir)
        return Round(clock.scaled, clock.raw, inp.n_steps + n_checks, failed_steps + n_checks), []
    clock.mark()
    found = checks.coupled_checks(traj, inp.cfg, outdir, inp.n_steps, inp.ic_values)
    failed = sum(not c.passed for c in found)
    return Round(clock.scaled, clock.raw, inp.n_steps + len(found), failed, checks=found), traj.reports


def _certify_round(inp: Inputs, clock, tracer: Tracer | None) -> Round:
    rows = []
    clock.start()
    for suite, span in (("identities", "identities.suite"), ("appendix", "mapped_domain.suite")):
        index = tracer.begin(span) if tracer else None
        try:
            rows += verify.run_suite(suite, inp.seed)
        finally:
            if tracer:
                tracer.end(index)
    clock.mark()
    found = checks.certify_checks(rows, CERTIFY_ROWS)
    return Round(clock.scaled, clock.raw, len(found), sum(not c.passed for c in found), checks=found)
