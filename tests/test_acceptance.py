"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timing.  The heavy reference trajectories are shared through the
session-scoped ``run_cache`` fixture.
"""

import dataclasses
import json

import numpy as np
import pytest

from dispersim import acceptance as ac
from dispersim import identities, verify
from dispersim.identities import RecursionParams, forcing_coefficients, recursion_threshold, superlinear_recursion


def _report(tag: str, row, budget: float | None = None):
    status = "PASS" if row.passed else "FAIL"
    extra = f" [{row.elapsed:.2f}s < {budget:.0f}s]" if budget is not None else f" [{row.elapsed:.2f}s]"
    print(f"{tag} {row.name}: {status} (value={row.value:.3e} {row.cmp} {row.threshold:.1e}){extra} {row.note}")
    assert row.passed, f"{row.name}: value={row.value:.6e} cmp {row.cmp} threshold={row.threshold:.1e} {row.note}"
    if budget is not None:
        assert row.elapsed < budget, f"{row.name} took {row.elapsed:.1f}s, budget {budget}s"


def test_ac01_matrix_square_decomposition():
    _report("AC01", ac.check_matrix_decomposition(), budget=1.0)


def test_ac02_sandwich_identity():
    _report("AC02", ac.check_sandwich_identity(), budget=1.0)


def test_ac03_dispersion_tensor_structure():
    _report("AC03", ac.check_tensor_structure(), budget=1.0)


def test_ac04_discrete_divergence_free():
    _report("AC04", ac.check_discrete_divergence(), budget=1.0)


def test_ac05_mass_conservation(run_cache):
    _report("AC05", ac.check_mass_conservation(run_cache), budget=60.0)


def test_ac06_weak_maximum_principle(run_cache):
    _report("AC06", ac.check_max_principle(run_cache), budget=300.0)


def test_ac07_energy_inequality(run_cache):
    _report("AC07", ac.check_energy_inequality(run_cache))


def test_ac08_poisson_manufactured_order():
    _report("AC08", ac.check_poisson_mms(), budget=30.0)


def test_ac09_power_equation_refinement():
    _report("AC09", ac.check_power_equation(), budget=60.0)


def test_power_equation_check_builds_each_level_once(monkeypatch):
    # both powers j share one forcing build per grid level: 3 levels, 3 builds
    calls = []

    def counted(*args):
        calls.append(args)
        return forcing_coefficients(*args)

    monkeypatch.setattr(identities, "forcing_coefficients", counted)
    assert ac.check_power_equation().passed
    assert len(calls) == 3


def test_ac10_hessian_reconstruction():
    _report("AC10", ac.check_hessian_reconstruction(), budget=1.0)


def test_ac11_level_set_recursion():
    _report("AC11", ac.check_recursion(), budget=1.0)


def test_ac12_log_kernel_average():
    _report("AC12", ac.check_log_kernel(), budget=5.0)


def test_ac13_flattening_identities():
    _report("AC13", ac.check_appendix(), budget=60.0)


def test_ac14_determinism(run_cache):
    _report("AC14", ac.check_determinism(run_cache))


def test_ac15_boundedness_monitoring(run_cache):
    row = ac.check_boundedness_monitor(run_cache)
    _report("AC15", row)
    tr = run_cache.reference()
    assert np.all(np.isfinite([r.grad_sup for r in tr.diagnostics]))
    assert np.all(np.isfinite([r.phi_max for r in tr.diagnostics]))


def _allocating_log_recursion(c, b, alpha, y0, steps):
    """The recursion check's log-space loop with one new array per step, its sums in their written order."""
    ly = np.where(y0 > 0, np.log(np.where(y0 > 0, y0, 1.0)), -1e306)
    logc, logb = np.log(c), np.log(b)
    for k in range(steps):
        ly = np.maximum(logc + k * logb + (1.0 + alpha) * ly, -1e306)
    return ly


@pytest.mark.parametrize("steps", [1, 5, 20, 600])
@pytest.mark.parametrize("seed", [0, 7, ac.DEFAULT_SEED])
def test_log_recursion_matches_the_allocating_loop_bit_for_bit(seed, steps):
    # y0 from zero to twice the threshold, so the tails decay, clamp and grow
    rng = np.random.default_rng(seed)
    c = np.exp(rng.uniform(np.log(0.1), np.log(10.0), 500))
    b, alpha = rng.uniform(1.3, 5.0, 500), rng.uniform(0.5, 2.0, 500)
    y0 = rng.uniform(0.0, 2.0, 500) * recursion_threshold(c, b, alpha)
    y0[:10] = 0.0
    new, old = ac._log_recursion(c, b, alpha, y0, steps), _allocating_log_recursion(c, b, alpha, y0, steps)
    assert np.array_equal(new.view(np.int64), old.view(np.int64))


@pytest.mark.parametrize("seed", [0, 7, ac.DEFAULT_SEED])
def test_recursion_check_matches_the_allocating_loop(seed):
    rng = np.random.default_rng(seed + 5)
    n = 1000
    c = np.exp(rng.uniform(np.log(0.1), np.log(10.0), n))
    b = rng.uniform(1.3, 5.0, n)
    alpha = rng.uniform(0.5, 2.0, n)
    frac = rng.uniform(0.0, 1.0, n)
    frac[0] = 1.0 - 1e-9
    y0 = frac * recursion_threshold(c, b, alpha)
    worst = float(np.max(np.exp(np.minimum(_allocating_log_recursion(c, b, alpha, y0, 600), 700.0))))
    seq, _ = superlinear_recursion(RecursionParams(1.0, 2.0, 1.0, 0.5), 60)
    row = ac.check_recursion(seed)
    assert repr(row.value) == repr(worst)
    assert row.note == f"worked case reaches {seq[-1]:.2e} in 60 steps"


@pytest.mark.parametrize("suite", ["identities", "appendix"])
def test_suite_repeats_identically_in_one_process(suite):
    # the benchmark's certify workload runs these suites round after round in
    # one process, next to the per-grid caches of the log kernel and the FFTs
    first, second = ([(r.name, r.value, r.note, r.passed) for r in verify.run_suite(suite)] for _ in range(2))
    assert first == second


@pytest.mark.parametrize("suite", ["identities", "appendix"])
def test_suite_rows_are_json_serializable(suite):
    for row in verify.run_suite(suite):
        assert type(row.passed) is bool, row.name
        json.dumps(dataclasses.asdict(row))
