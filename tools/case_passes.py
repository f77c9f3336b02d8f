"""Print the Picard and linear-solver work of named runs of the package, and a digest of each.

Each case is one ``transport.run`` of a configuration built from the package
alone.  A row gives the case's Picard passes, the most passes of one step,
the BiCGSTAB iterations (counted by a callback), the ``splu`` calls, the
retried steps (from the third step on, those whose accepted start is
"plain") and the raw seconds of the run.  A case whose run raises
``SolverError`` prints a row that says it stalled, with the error's message,
in place of the counts.  Run with one BLAS thread
(``OPENBLAS_NUM_THREADS=1``) to compare counts between trees.

    python3 tools/case_passes.py                          # every case
    python3 tools/case_passes.py reference-65 checker-33  # the named ones
"""

from __future__ import annotations

import dataclasses
import hashlib
import sys
import time
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import scipy.sparse.linalg as spla  # noqa: E402

from dispersim import transport  # noqa: E402
from dispersim.coefficients import RegParams  # noqa: E402
from dispersim.config import reference_config  # noqa: E402
from dispersim.elliptic import SolverError  # noqa: E402


def _checker(n: int) -> transport.RunConfig:
    """Convection-dominated with weak dispersion: the hard regime of the Picard loop."""
    return dataclasses.replace(
        reference_config(n, a=0.05, b=0.5, m=0.01), ic="checker", ic_params="amplitude=5,kx=1,ky=1", dt=1.0 / 128
    )


def _stall(n: int, ic_params: str) -> transport.RunConfig:
    """A checker case that the Picard loop does not finish: its first step stalls at picard_max."""
    return dataclasses.replace(
        reference_config(n, a=0.05, b=0.5, m=0.01), ic="checker", ic_params=ic_params, dt=1.0 / 32
    )


CASES = {
    "reference-33": lambda: reference_config(33),
    "reference-65": lambda: reference_config(65),
    "reference-129": lambda: reference_config(129),
    "reference-257": lambda: reference_config(257),
    "checker-33": lambda: _checker(33),
    "checker-65": lambda: _checker(65),
    "checker-129": lambda: _checker(129),
    "high-contrast": lambda: dataclasses.replace(
        reference_config(33, m=0.05), ic_params="amplitude=100,width=0.1", dt=1.0 / 256, picard_max=60
    ),
    "lagged-tensor-65": lambda: dataclasses.replace(reference_config(65, a=4.0, b=12.0, m=0.2), dt=4.0 / 64),
    # the mollifier on and every state stored
    "mollified-65": lambda: dataclasses.replace(reference_config(65), reg=RegParams(moll_radius=0.1), output_every=1),
    "a50": lambda: _stall(33, "amplitude=50,kx=1,ky=1"),
    "a20": lambda: _stall(65, "amplitude=20,kx=1,ky=1"),
    "k32": lambda: _stall(65, "amplitude=5,kx=3,ky=2"),
}

COLUMNS = ("passes", "most_per_step", "bicgstab_its", "splu_calls", "retries", "digest", "raw_s")


def digest(traj: transport.Trajectory) -> str:
    """The first 12 hex digits of a SHA-256 over the run's diagnostics rows and stored states."""
    h = hashlib.sha256()
    for row in traj.diagnostics:
        h.update((transport._format_row(row) + "\n").encode())
    for state in traj.states:
        h.update(str(state.step).encode())
        h.update(state.u.values.tobytes())
        h.update(state.v.values.tobytes())
    return h.hexdigest()[:12]


def measure(cfg: transport.RunConfig) -> dict[str, float | str]:
    """The counts of one run of ``cfg``."""
    counts = {"bicgstab_its": 0, "splu_calls": 0}
    bicgstab, splu = spla.bicgstab, spla.splu

    def counted_bicgstab(*args, **kwargs):
        def callback(_):
            counts["bicgstab_its"] += 1

        return bicgstab(*args, callback=callback, **kwargs)

    def counted_splu(*args, **kwargs):
        counts["splu_calls"] += 1
        return splu(*args, **kwargs)

    with mock.patch.object(spla, "bicgstab", counted_bicgstab), mock.patch.object(spla, "splu", counted_splu):
        t0 = time.perf_counter()
        traj = transport.run(cfg)
        raw_s = time.perf_counter() - t0
    passes = [r.picard_iterations for r in traj.reports]
    return {
        "passes": sum(passes),
        "most_per_step": max(passes),
        **counts,
        "retries": sum(r.start == "plain" for r in traj.reports[2:]),
        "digest": digest(traj),
        "raw_s": round(raw_s, 2),
    }


def main(argv: list[str]) -> int:
    unknown = [name for name in argv if name not in CASES]
    if unknown:
        print(f"error: unknown case {unknown[0]!r}; the cases are {', '.join(CASES)}", file=sys.stderr)
        return 2
    print(f"{'case':18s}" + "".join(f"{c:>15s}" for c in COLUMNS))
    for name in argv or CASES:
        try:
            row = measure(CASES[name]())
        except SolverError as exc:
            print(f"{name:18s} stalled: {exc}", flush=True)
            continue
        print(f"{name:18s}" + "".join(f"{row[c]:>15}" for c in COLUMNS), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
