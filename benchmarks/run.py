"""dispersim benchmark: time to solution on three workloads, with a traced run per layer.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload coupled-129 --seed 1 --seconds 20 --trace 0

Each invocation is one fresh process with BLAS/OpenMP pinned to THREADS
threads.  It sets up the workload several times (``setup_s`` is the median
of: importing dispersim in a fresh interpreter plus generating the inputs),
then repeats whole rounds of the workload until ``--seconds`` have passed,
checking every round's outputs.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` alternates untraced and traced rounds and reports
the per-layer metrics, writing every span to
``.bench_work/trace-<workload>-seed<seed>.json``.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUPS = 5
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); "
    "import dispersim.transport, dispersim.acceptance, dispersim.verify; "
    "print(time.perf_counter() - t)"
)

WORKLOADS = ("restart-65", "coupled-129", "certify")
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mib": "MiB"}
PER_LAYER = {
    "elliptic.solve_s": "s",
    "elliptic.solves": "count",
    "elliptic.cg_iters": "count",
    "coefficients.velocity_s": "s",
    "coefficients.mollify_s": "s",
    "coefficients.tensor_s": "s",
    "transport.assemble_s": "s",
    "transport.factor_s": "s",
    "transport.factorizations": "count",
    "transport.factor_nnz": "count",
    "transport.krylov_s": "s",
    "transport.krylov_calls": "count",
    "transport.step_s": "s",
    "transport.step_self_s": "s",
    "transport.step_child_share": "%",
    "transport.picard_passes": "count",
    "transport.passes_per_step": "passes/step",
    "transport.diagnostics_s": "s",
    "grid.snapshot_write_s": "s",
    "grid.snapshot_read_s": "s",
    "grid.snapshot_bytes": "bytes",
    "identities.suite_s": "s",
    "identities.log_kernel_average_s": "s",
    "mapped_domain.suite_s": "s",
    "trace.overhead_s": "s",
}


def _import_seconds() -> float:
    """Time to import dispersim in a fresh interpreter with this process's environment."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def _rounds(inp, workdir: Path, seconds: float, trace: bool, loop) -> list:
    """Whole rounds until ``seconds`` have passed; with ``trace`` every other round is traced."""
    import workloads

    done = []
    t_start = time.perf_counter()
    while len(done) < 1 + trace or time.perf_counter() - t_start < seconds:
        outdir = workdir / f"round{len(done)}"
        done.append(workloads.run_round(inp, outdir, loop, traced=trace and len(done) % 2 == 1))
        shutil.rmtree(outdir, ignore_errors=True)
    return done


def measure(workload: str, seed: int, seconds: float, trace: bool,
            n: int | None = None, setups: int = SETUPS, core: int | None = None) -> dict:
    """Set up, run whole rounds for ``seconds``, check them; return the result and a record."""
    import numpy
    import scipy

    import calibrate
    import workloads

    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{workload}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    loop = calibrate.ReferenceLoop()
    try:
        setup_samples, setup_raw = [], []
        for _ in range(setups):
            loop_before = loop.seconds()
            t_import = _import_seconds()
            t0 = time.perf_counter()
            inp = workloads.make_inputs(workload, seed, workdir, n)
            raw = t_import + time.perf_counter() - t0
            speed = calibrate.REFERENCE_S / (0.5 * (loop_before + loop.seconds()))
            setup_raw.append(raw)
            setup_samples.append(raw * speed)

        every = _rounds(inp, workdir, seconds, trace, loop)
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain = [r for r in every if not r.traced]
    traced = [r for r in every if r.traced]
    if trace:
        metrics = {
            name: statistics.median(r.layers[name] for r in traced)
            for name in PER_LAYER if name != "trace.overhead_s"
        }
        metrics["trace.overhead_s"] = (statistics.median(r.wall_s for r in traced)
                                       - statistics.median(r.wall_s for r in plain))
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": statistics.median(setup_samples),
            "wall_s": statistics.median(r.wall_s for r in plain),
            "peak_rss_mib": peak_rss_mib,
        }
        units = END_TO_END
    failed_checks = [c for r in every for c in r.checks if not c.passed]
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "rounds": len(plain),
        "traced_rounds": len(traced),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "threads": THREADS,
        "core": core,
        "setup_samples_s": setup_samples,
        "setup_raw_s": setup_raw,
        "round_wall_s": [r.wall_s for r in plain],
        "round_raw_s": [r.raw_s for r in plain],
        "checks": [[c.name, c.passed, c.detail] for c in every[-1].checks],
        "failed_checks": [[c.name, c.detail] for c in failed_checks],
        "not_measured": sorted({name for r in traced for name in r.not_measured}),
    }
    if trace:
        record["spans"] = [r.spans for r in traced]
        (WORK / f"trace-{workload}-seed{seed}.json").write_text(json.dumps(record))
        del record["spans"]
    result = {
        "correct": not failed_checks,
        "attempted": sum(r.attempted for r in every),
        "failed": sum(r.failed for r in every),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    return {"result": result, "record": record}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "dispersim" / "__init__.py").is_file():
        print(f"error: no dispersim package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    # pin native threads before numpy is first imported
    for var in THREAD_VARS:
        os.environ[var] = str(THREADS)
    sys.path.insert(0, str(SRC))
    import calibrate

    core = calibrate.pin_to_one_core()
    out = measure(args.workload, args.seed, args.seconds, bool(args.trace), core=core)
    record, result = out["record"], out["result"]
    print("env: " + " ".join(f"{k}={record[k]}" for k in ("python", "numpy", "scipy", "nproc", "threads", "core")))
    print(f"workload: {args.workload} seed={args.seed} rounds={record['rounds']} "
          f"traced_rounds={record['traced_rounds']}")
    print("round_wall_s: " + " ".join(f"{t:.4f}" for t in record["round_wall_s"]))
    print("round_raw_s: " + " ".join(f"{t:.4f}" for t in record["round_raw_s"]))
    print("setup_samples_s: " + " ".join(f"{t:.4f}" for t in record["setup_samples_s"]))
    print("setup_raw_s: " + " ".join(f"{t:.4f}" for t in record["setup_raw_s"]))
    for name, check_ok, detail in record["checks"]:
        print(f"check {name}: {'pass' if check_ok else 'FAIL'} ({detail})")
    for name, detail in record["failed_checks"]:
        print(f"FAILED {name}: {detail}")
    for name in record["not_measured"]:
        print(f"not measured: {name} (none of its wrapped names exist)")
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
