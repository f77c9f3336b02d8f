"""Print the memory a coupled run of the package adds to its process, per grid node.

A fresh interpreter imports the package, builds ``reference_config(N)`` with
``t_end`` set to K steps of its dt, reads its peak resident set size
(``ru_maxrss``, the base), runs ``transport.run`` and reads it again (the
peak).  The run's memory is peak - base, and its bytes per node that over
N^2.  Linux carries the resident size of the process that starts an
interpreter into the new one's ``ru_maxrss``, so a large launcher (a test
runner, say) would hide the base; the tool therefore measures in an
interpreter started from its own process, which has not loaded numpy yet.
``--in-process`` measures in the tool's process instead.

    python3 tools/run_memory.py 129              # six reference steps at n = 129
    python3 tools/run_memory.py 513 --steps 6

The one output line reads
``n=<N> steps=<K> base_mib=<..> peak_mib=<..> run_mib=<..> bytes_per_node=<..>``.
"""

from __future__ import annotations

import argparse
import resource
import subprocess
import sys
from pathlib import Path


def _max_rss_bytes() -> int:
    """The peak resident set size of this process so far; Linux reports ru_maxrss in KiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def measure(n: int, steps: int) -> str:
    """The output line of ``steps`` reference steps at ``n``, measured in this process."""
    import dataclasses

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from dispersim import transport
    from dispersim.config import reference_config

    cfg = reference_config(n)
    cfg = dataclasses.replace(cfg, t_end=steps * cfg.dt)
    base = _max_rss_bytes()
    transport.run(cfg)
    peak = _max_rss_bytes()
    mib = 2.0**20
    return (
        f"n={n} steps={steps} base_mib={base / mib:.2f} peak_mib={peak / mib:.2f} "
        f"run_mib={(peak - base) / mib:.2f} bytes_per_node={(peak - base) / n**2:.0f}"
    )


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("n", type=int, help="nodes along each side of the reference grid")
    parser.add_argument("--steps", type=int, default=6, help="reference steps to run (default 6)")
    parser.add_argument("--in-process", action="store_true", help="measure in this process, not a fresh one")
    args = parser.parse_args(argv)
    if args.n < 3 or args.steps < 1:
        parser.error("n must be at least 3 and --steps at least 1")
    if args.in_process:
        print(measure(args.n, args.steps))
        return 0
    child = [sys.executable, str(Path(__file__).resolve()), str(args.n), "--steps", str(args.steps), "--in-process"]
    return subprocess.run(child).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
