import re
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "run_memory.py"


def test_run_memory_prints_one_row_with_a_positive_figure():
    out = subprocess.run(
        [sys.executable, str(TOOL), "17", "--steps", "2"], capture_output=True, text=True, check=True, timeout=120
    ).stdout
    (line,) = out.splitlines()
    m = re.fullmatch(
        r"n=17 steps=2 base_mib=(\S+) peak_mib=(\S+) run_mib=(\S+) bytes_per_node=(\d+)", line
    )
    assert m, line
    base, peak, run_mib = (float(x) for x in m.groups()[:3])
    assert 0 < base < peak and run_mib > 0 and int(m.group(4)) > 0
    assert abs(peak - base - run_mib) <= 0.011


def test_run_memory_rejects_a_grid_too_small():
    done = subprocess.run([sys.executable, str(TOOL), "2"], capture_output=True, text=True, timeout=120)
    assert done.returncode == 2 and "n must be at least 3" in done.stderr
