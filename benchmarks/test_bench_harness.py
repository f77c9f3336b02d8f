"""Tests of the benchmark itself: tiny-grid smoke runs and fault injection.

Run from the repository root with ``PYTHONPATH=src python -m pytest benchmarks``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from dispersim import transport

import checks
import run
import workloads
from spans import Patch, Tracer

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def test_metric_tables_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER
    assert tuple(w["name"] for w in BENCHMARK["workloads"]) == run.WORKLOADS


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_grid_run_emits_every_metric(workload, trace):
    out = run.measure(workload, seed=5, seconds=0, trace=trace, n=17, setups=1)
    result = out["result"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert set(result["metrics"]) == set(expected)
    for name, m in result["metrics"].items():
        assert m["unit"] == expected[name]
        assert np.isfinite(m["value"])
    if not trace:
        assert all(result["metrics"][k]["value"] > 0 for k in expected)
    elif workload != "certify":
        layers = result["metrics"]
        assert layers["transport.picard_passes"]["value"] >= 1
        assert layers["elliptic.cg_iters"]["value"] >= 1
        assert layers["transport.krylov_calls"]["value"] >= 1
    # the traced round restores every wrapped name
    assert transport.picard_coupled_step.__name__ == "picard_coupled_step"
    assert not hasattr(transport.PoissonSolver.solve, "__wrapped__")
    assert not hasattr(spla.spilu, "__wrapped__")


def test_missing_name_is_reported_not_measured():
    tracer = Tracer()
    layers = {"gone.layer": ("no_such_function", "spla.no_such_solver"), "transport.step": ("picard_coupled_step",)}
    with Patch(tracer, transport, layers) as patch:
        assert hasattr(transport.picard_coupled_step, "__wrapped__")
    assert patch.not_measured == ["gone.layer"]
    assert not hasattr(transport.picard_coupled_step, "__wrapped__")


def test_self_time_excludes_children():
    tracer = Tracer()
    outer = tracer.begin("outer")
    inner = tracer.begin("inner")
    tracer.end(inner)
    tracer.end(outer)
    assert tracer.spans[inner].parent == outer
    assert tracer.children_total("outer") == pytest.approx(tracer.spans[inner].duration)


@pytest.fixture
def tiny_restart(tmp_path):
    inp = workloads.make_inputs("restart-65", 2, tmp_path, n=17)
    outdir = tmp_path / "run"
    traj = transport.run(inp.cfg, outdir)
    found = checks.coupled_checks(traj, inp.cfg, outdir, inp.n_steps, inp.ic_values)
    assert all(c.passed for c in found), [c for c in found if not c.passed]
    assert [c.name for c in found] == [*checks.COUPLED_CHECKS, "restart-ic"]
    return inp, traj, outdir


def _failing(inp, traj, outdir):
    found = checks.coupled_checks(traj, inp.cfg, outdir, inp.n_steps, inp.ic_values)
    return {c.name for c in found if not c.passed}


def test_perturbed_snapshot_value_fails_bit_exact_check(tiny_restart):
    inp, traj, outdir = tiny_restart
    path = outdir / "u_000003.csv"
    lines = path.read_text().splitlines()
    x1, x2, value = lines[40].split(",")
    lines[40] = f"{x1},{x2},{float(np.nextafter(float(value), np.inf))!r}"
    path.write_text("\n".join(lines) + "\n")
    assert _failing(inp, traj, outdir) == {"snapshot-bit-exact"}


def test_missing_snapshot_fails_count_check(tiny_restart):
    inp, traj, outdir = tiny_restart
    (outdir / "v_000005.csv").unlink()
    assert {"snapshot-count", "snapshot-bit-exact"} == _failing(inp, traj, outdir)


def test_shifted_mass_fails_mass_check(tiny_restart):
    inp, traj, outdir = tiny_restart
    traj.states[-1].u.values += 1e-9
    assert "mass-drift" in _failing(inp, traj, outdir)


def test_perturbed_stream_function_fails_poisson_check(tiny_restart):
    inp, traj, outdir = tiny_restart
    traj.states[-1].v.values[8, 8] += 1e-6
    assert "stream-poisson" in _failing(inp, traj, outdir)


def test_inflated_dissipation_fails_energy_check(tiny_restart):
    inp, traj, outdir = tiny_restart
    traj.diagnostics[-1].energy_dissip *= 1.0 + 1e-6
    assert _failing(inp, traj, outdir) == {"energy-inequality"}


def test_failed_certify_row_is_counted():
    rows = workloads.verify.run_suite("appendix", 3)
    found = checks.certify_checks(rows, ("flattening-identities", "gradient-pushforward", "absent-row"))
    assert [c.passed for c in found] == [True, True, False]
    rows[0].passed = False
    assert not checks.certify_checks(rows, ("flattening-identities",))[0].passed
