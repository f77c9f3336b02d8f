"""Verification suites: named groups of acceptance checks with a printable table.

Suites: ``identities`` (pointwise algebra, the power-form equation, the
recursion, the log-kernel average), ``appendix`` (chart/flattening
machinery), ``solver`` (conservation, maximum principle, energy,
convergence order, determinism, monitoring), and ``all``.  Results go to
stdout as a fixed-width table and to ``verify_results.csv``; a suite
passes only if every row passes.
"""

from __future__ import annotations

from pathlib import Path

from . import acceptance as ac
from .acceptance import CheckRow, DEFAULT_SEED, RunCache


def _identities_rows(seed: int) -> list[CheckRow]:
    return [
        ac.check_matrix_decomposition(seed),
        ac.check_sandwich_identity(seed),
        ac.check_tensor_structure(seed),
        ac.check_discrete_divergence(seed),
        ac.check_power_equation(),
        ac.check_hessian_reconstruction(seed),
        ac.check_recursion(seed),
        ac.check_log_kernel(),
        ac.check_product_rules(seed),
    ]


def _appendix_rows(seed: int) -> list[CheckRow]:
    return [
        ac.check_appendix(seed),
        ac.check_pushforward(seed),
    ]


def _solver_rows() -> list[CheckRow]:
    cache = RunCache()
    return [
        ac.check_poisson_mms(),
        ac.check_mass_conservation(cache),
        ac.check_max_principle(cache),
        ac.check_energy_inequality(cache),
        ac.check_determinism(cache),
        ac.check_boundedness_monitor(cache),
    ]


def run_suite(suite: str, seed: int = DEFAULT_SEED) -> list[CheckRow]:
    if suite == "identities":
        return _identities_rows(seed)
    if suite == "appendix":
        return _appendix_rows(seed)
    if suite == "solver":
        return _solver_rows()
    if suite == "all":
        return _identities_rows(seed) + _appendix_rows(seed) + _solver_rows()
    raise ValueError(f"unknown suite {suite!r}; expected identities, appendix, solver, or all")


def format_table(rows: list[CheckRow]) -> str:
    header = f"{'name':<32}{'trials':>8}{'value':>13}{'':^4}{'threshold':>11}{'status':>8}  note"
    lines = [header, "-" * len(header)]
    for r in rows:
        status = "pass" if r.passed else "FAIL"
        lines.append(
            f"{r.name:<32}{r.trials:>8}{r.value:>13.3e}{r.cmp:^4}{r.threshold:>11.1e}{status:>8}  {r.note}"
        )
    n_pass = sum(r.passed for r in rows)
    lines.append(f"{n_pass}/{len(rows)} checks passed")
    return "\n".join(lines)


def write_csv(rows: list[CheckRow], path) -> None:
    with open(path, "w") as fh:
        fh.write("name,trials,value,cmp,threshold,status,seed,elapsed_s,note\n")
        for r in rows:
            note = r.note.replace(",", ";")
            fh.write(
                f"{r.name},{r.trials},{r.value:.17g},{r.cmp},{r.threshold:.17g},"
                f"{'pass' if r.passed else 'fail'},{r.seed},{r.elapsed:.3f},{note}\n"
            )


def verify_command(suite: str, seed: int = DEFAULT_SEED) -> int:
    rows = run_suite(suite, seed)
    print(f"suite: {suite}   seed: {seed}")
    print(format_table(rows))
    write_csv(rows, Path("verify_results.csv"))
    print("results written to verify_results.csv")
    return 0 if all(r.passed for r in rows) else 1
