import hashlib
import importlib.util
from pathlib import Path

import scipy.sparse.linalg as spla

from dispersim import transport
from dispersim.config import reference_config

_spec = importlib.util.spec_from_file_location(
    "case_passes", Path(__file__).resolve().parent.parent / "tools" / "case_passes.py"
)
case_passes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(case_passes)


def test_case_row_counts_the_run_and_restores_the_solvers(capsys):
    bicgstab, splu = spla.bicgstab, spla.splu
    assert case_passes.main(["reference-33"]) == 0
    header, row = capsys.readouterr().out.splitlines()
    assert header.split() == ["case", *case_passes.COLUMNS]
    name, passes, most, its, lu_calls, retries, digest, _ = row.split()
    traj = transport.run(reference_config(33))
    assert name == "reference-33"
    assert int(passes) == sum(r.picard_iterations for r in traj.reports)
    assert int(most) == max(r.picard_iterations for r in traj.reports)
    assert int(its) > 0 and (int(lu_calls), int(retries)) == (0, 0)
    assert (spla.bicgstab, spla.splu) == (bicgstab, splu)
    # the digest of the diagnostics lines and of the step, u and v of each stored state
    h = hashlib.sha256()
    h.update("".join(transport._format_row(r) + "\n" for r in traj.diagnostics).encode())
    for state in traj.states:
        h.update(b"%d" % state.step + state.u.values.tobytes() + state.v.values.tobytes())
    assert digest == h.hexdigest()[:12]


def test_unknown_case_exits_2(capsys):
    assert case_passes.main(["reference-34"]) == 2
    assert "unknown case 'reference-34'" in capsys.readouterr().err


def test_stalled_case_prints_a_stalled_row_and_restores_the_solvers(capsys):
    bicgstab, splu = spla.bicgstab, spla.splu
    assert case_passes.main(["a50"]) == 0
    header, row = capsys.readouterr().out.splitlines()
    assert row.split()[:2] == ["a50", "stalled:"]
    assert "fixed-point iteration stalled after 30 passes" in row
    assert (spla.bicgstab, spla.splu) == (bicgstab, splu)
