import re
from pathlib import Path

import numpy as np
import pytest

from dispersim import config, grid, transport
from dispersim.cli import main
from dispersim.config import ConfigError, parse_config, serialize_config
from dispersim.elliptic import SolverError
from dispersim.grid import GridSpec, ScalarField, SymTensorField, read_snapshot, write_snapshot

MINIMAL = """
# minimal valid configuration
nx = 17
ny = 17
a = 1.0
b = 2.0
m = 0.5
dt = 0.0625
t_end = 0.125
ic = gaussian
"""


def test_minimal_config_gets_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.grid.nx == 17 and cfg.grid.lx == 1.0
    assert cfg.reg.eps == 1e-6 and cfg.reg.moll_radius == 0.0
    assert cfg.picard_tol == 1e-10 and cfg.picard_max == 30
    assert cfg.lin_tol == 1e-10
    assert cfg.ic_params == "" and cfg.output_every == 0 and cfg.outdir == ""


def test_b_less_than_a_rejected_with_line():
    text = MINIMAL.replace("b = 2.0", "b = 0.5")
    with pytest.raises(ConfigError, match=r"line 6: .*b > a"):
        parse_config(text)


def test_isotropic_equality_allowed():
    cfg = parse_config(MINIMAL.replace("b = 2.0", "b = 1.0"))
    assert cfg.phys.a == cfg.phys.b == 1.0


def test_unknown_key_rejected_with_line():
    # lin_max, the deleted BiCGSTAB cap, must be rejected at its line, not silently ignored
    for key in ("bogus", "lin_max"):
        with pytest.raises(ConfigError, match=f"line 11: unknown key '{key}'"):
            parse_config(MINIMAL + f"{key} = 1\n")


def test_documented_key_lists_match_config_keys():
    keys = ", ".join(config.KEYS)
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = (
        re.search(r"Keys \(exactly\):\s*```\n(.*?)```", readme, re.S).group(1),
        re.search(r"Keys are exactly::\n\n(.*?)\n\n", config.__doc__, re.S).group(1),
    )
    for block in blocks:
        assert " ".join(block.split()) == keys


def test_missing_required_keys():
    with pytest.raises(ConfigError, match="missing required key.*dt"):
        parse_config("nx = 9\nny = 9\na = 1\nb = 2\nm = 1\nic = constant\nt_end = 1\n")


def test_nonpositive_dt_rejected():
    with pytest.raises(ConfigError, match=r"line 8: dt must be positive"):
        parse_config(MINIMAL.replace("dt = 0.0625", "dt = -0.1"))


def test_dt_too_small_for_t_end_rejected_at_dt_line(tmp_path, capsys):
    # 0.125 / 1e-320 overflows, so the run could not count its steps
    text = MINIMAL.replace("dt = 0.0625", "dt = 1e-320")
    with pytest.raises(ConfigError, match=r"^line 8: dt is too small for t_end") as info:
        parse_config(text)
    assert info.value.line == 8
    path = tmp_path / "run.cfg"
    path.write_text(text)
    assert main(["run", "--config", str(path), "--outdir", str(tmp_path / "out")]) == 2
    assert "configuration error: line 8: dt is too small" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_step_count_above_the_cap_rejected_at_dt_line(tmp_path, capsys):
    # t_end/dt = 2^20 steps is above the 10^6 that a run may plan; parsed and refused, never started
    assert config._MAX_STEPS == 10**6
    text = MINIMAL.replace("dt = 0.0625", f"dt = {2.0**-23!r}")
    with pytest.raises(ConfigError, match=r"^line 8: dt is too small for t_end: t_end/dt = 1\.05e\+06 steps") as info:
        parse_config(text)
    assert info.value.line == 8
    path = tmp_path / "run.cfg"
    path.write_text(text)
    assert main(["run", "--config", str(path), "--outdir", str(tmp_path / "out")]) == 2
    assert "configuration error: line 8: dt is too small for t_end" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    # 2^17 steps are within the cap; the config is only parsed
    assert parse_config(MINIMAL.replace("dt = 0.0625", f"dt = {2.0**-20!r}")).dt == 2.0**-20
    with pytest.raises(ConfigError, match=r"^line 8: dt is too small for t_end: t_end/dt = 2\.5e\+299 steps"):
        parse_config(MINIMAL.replace("dt = 0.0625", "dt = 1e-300").replace("t_end = 0.125", "t_end = 0.25"))


def test_grid_above_the_node_cap_rejected_at_its_line(tmp_path, capsys):
    # parsed and refused, never allocated: 10^30 nodes once reached numpy and failed there
    assert grid._MAX_NODES == 2**24
    text = MINIMAL.replace("nx = 17", "nx = 1000000000000000000000000000000")
    with pytest.raises(ConfigError, match=r"^line 3: grid too large: nx makes nx\*ny exceed 16,777,216 nodes") as info:
        parse_config(text)
    assert info.value.line == 3
    path = tmp_path / "run.cfg"
    path.write_text(text)
    assert main(["run", "--config", str(path), "--outdir", str(tmp_path / "out")]) == 2
    assert "configuration error: line 3: grid too large" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    with pytest.raises(ConfigError, match=r"^line 4: grid too large: ny makes"):
        parse_config(MINIMAL.replace("ny = 17", "ny = 4097").replace("nx = 17", "nx = 4096"))
    # 4096^2 is at the cap; the config is only parsed
    assert parse_config(MINIMAL.replace("ny = 17", "ny = 4096").replace("nx = 17", "nx = 4096")).grid.nx == 4096


def test_non_numeric_value_rejected_at_its_line():
    with pytest.raises(ConfigError, match=r"^line 5: a must be a number, got 'x'$"):
        parse_config(MINIMAL.replace("a = 1.0", "a = x"))


@pytest.mark.parametrize(
    "key, bad",
    [
        ("nx", "2"), ("ny", "2"), ("lx", "0"), ("ly", "-1"),
        ("a", "0"), ("b", "0.5"), ("m", "0"), ("eps", "0"),
        ("moll_radius", "-0.1"), ("moll_radius", "0.6"),
        ("dt", "0"), ("t_end", "0.01"), ("picard_tol", "0"), ("picard_max", "0"),
        ("lin_tol", "-1e-10"), ("output_every", "-1"),
    ],
)
def test_invalid_value_reported_at_its_line(key, bad):
    lines = MINIMAL.splitlines()
    for lineno, line in enumerate(lines, start=1):
        if line.startswith(f"{key} ="):
            lines[lineno - 1] = f"{key} = {bad}"
            break
    else:
        lines.append(f"{key} = {bad}")
        lineno = len(lines)
    with pytest.raises(ConfigError, match=rf"^line {lineno}: ") as info:
        parse_config("\n".join(lines) + "\n")
    assert info.value.line == lineno


@pytest.mark.parametrize("bad", ["inf", "nan"])
@pytest.mark.parametrize(
    "key", ["lx", "ly", "a", "b", "m", "eps", "moll_radius", "dt", "t_end", "picard_tol", "lin_tol"]
)
def test_cli_run_non_finite_value_exit_2_at_its_line(tmp_path, capsys, key, bad):
    lines = MINIMAL.splitlines()
    lineno = next((i for i, line in enumerate(lines, start=1) if line.startswith(f"{key} =")), len(lines) + 1)
    lines[lineno - 1:lineno] = [f"{key} = {bad}"]
    path = tmp_path / "run.cfg"
    path.write_text("\n".join(lines) + "\n")
    assert main(["run", "--config", str(path), "--outdir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"configuration error: line {lineno}: {key} " in err
    assert not (tmp_path / "out").exists()


# a width that is not positive or whose (lx^2 + ly^2)/(2 width^2) is not a finite float, a name the preset does not
# take and a name given twice are caught at the ic_params line, before the run evaluates the initial condition
@pytest.mark.parametrize(
    "params", ["width=nan", "amplitude=inf", "width=abc", "width", "width=-0.1", "width=0", "widht=0.2",
               "amplitude=1,amplitude=5", "width=1e-200", "width=1e-160"]
)
def test_cli_run_bad_ic_params_exit_2_at_its_line(tmp_path, capsys, params):
    path = _write_cfg(tmp_path, f"ic_params = {params}\n")
    lineno = len(MINIMAL.splitlines()) + 1
    assert main(["run", "--config", str(path), "--outdir", str(tmp_path / "out")]) == 2
    assert f"configuration error: line {lineno}: ic_params: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_huge_width_gives_the_constant_amplitude_and_runs(tmp_path):
    # 2 width^2 overflows to inf, so every exponent is -0.0: a width too large for a float square is a flat field
    g = GridSpec(17, 17)
    for ic in ("gaussian", "stripe"):
        f = transport.initial_condition(ic, "amplitude=3,width=1e200", g)
        assert np.all(f.values == 3.0)
    path = _write_cfg(tmp_path, "ic_params = width=1e200\n")
    assert main(["run", "--config", str(path), "--outdir", str(tmp_path / "out")]) == 0
    assert np.all(read_snapshot(tmp_path / "out" / "u_000002.csv", g).values == 1.0)


def test_cli_run_ic_params_with_snapshot_exit_2_at_its_line(tmp_path, capsys):
    # a snapshot takes no parameters, so any given are an error, not ignored
    write_snapshot(ScalarField.full(GridSpec(17, 17), 1.0), tmp_path / "ic.csv")
    path = tmp_path / "run.cfg"
    path.write_text(MINIMAL.replace("ic = gaussian", f"ic = {tmp_path / 'ic.csv'}") + "ic_params = amplitude=2\n")
    lineno = len(MINIMAL.splitlines()) + 1
    assert main(["run", "--config", str(path), "--outdir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"configuration error: line {lineno}: ic_params: a snapshot initial condition takes no parameters" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("target", ["missing.csv", "a-directory"])
def test_cli_run_ic_that_is_no_snapshot_file_exit_2_at_its_line(tmp_path, capsys, target):
    # neither a preset nor an existing file: caught at the ic line, before the run starts
    (tmp_path / "a-directory").mkdir()
    path = tmp_path / "run.cfg"
    path.write_text(MINIMAL.replace("ic = gaussian", f"ic = {tmp_path / target}"))
    lineno = MINIMAL.splitlines().index("ic = gaussian") + 1
    assert main(["run", "--config", str(path), "--outdir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"configuration error: line {lineno}: ic: unknown ic preset or missing file" in err
    assert not (tmp_path / "out").exists()


def test_cli_run_ic_snapshot_with_unparsable_row_exit_2_naming_the_file(tmp_path, capsys):
    ic = tmp_path / "ic.csv"
    write_snapshot(ScalarField.full(GridSpec(17, 17), 1.0), ic)
    lines = ic.read_text().splitlines(keepends=True)
    lines[5] = lines[5].rsplit(",", 1)[0] + ",abc\n"
    ic.write_text("".join(lines))
    path = tmp_path / "run.cfg"
    path.write_text(MINIMAL.replace("ic = gaussian", f"ic = {ic}"))
    assert main(["run", "--config", str(path), "--outdir", str(tmp_path / "out")]) == 2
    assert f"error: {ic}: could not convert string 'abc' to float64" in capsys.readouterr().err


def test_malformed_line():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("nx = 9\nny 9\n")


def test_duplicate_key():
    with pytest.raises(ConfigError, match="duplicate key"):
        parse_config(MINIMAL + "nx = 33\n")


def test_serialize_roundtrip():
    cfg = parse_config(MINIMAL + "ic_params = amplitude=1,width=0.125\nmoll_radius = 0.03125\n")
    text = serialize_config(cfg)
    assert parse_config(text) == cfg
    assert parse_config(serialize_config(parse_config(text))) == cfg


def _write_cfg(tmp_path, extra=""):
    path = tmp_path / "run.cfg"
    path.write_text(MINIMAL + extra)
    return path


def test_cli_run_produces_artifacts(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--outdir", str(out)]) == 0
    assert (out / "diagnostics.csv").exists()
    assert (out / "resolved.cfg").exists()
    assert "completed 2 steps" in capsys.readouterr().out


def test_cli_run_bad_config_exit_2(tmp_path):
    cfg_path = _write_cfg(tmp_path, "b = 0.1\n")  # duplicate -> config error
    assert main(["run", "--config", str(cfg_path)]) == 2
    assert main(["run", "--config", str(tmp_path / "missing.cfg")]) == 2


def test_cli_run_solver_failure_exit_3(tmp_path, capsys):
    # a stalled fixed point, then a Poisson tolerance no solve can reach: each solve names its own failure
    for extra, message in (
        ("picard_max = 1\npicard_tol = 1e-16\n", "fixed-point iteration stalled"),
        ("lin_tol = 1e-20\n", "Poisson solve on the 17x17 grid missed its tolerance"),
    ):
        cfg_path = _write_cfg(tmp_path, extra)
        assert main(["run", "--config", str(cfg_path), "--outdir", str(tmp_path / "o")]) == 3
        assert message in capsys.readouterr().err


def test_factorization_failure_is_solver_failure(tmp_path, monkeypatch):
    def singular(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(transport.spla, "splu", singular)
    monkeypatch.setattr(transport, "_FAST_ITERATIONS", 1)
    # the LU is the fallback for a cosine-preconditioned solve that misses
    # lin_tol; with a varying tensor one iteration does not reach it
    g = GridSpec(9, 9)
    x1, x2 = g.nodes()
    D = SymTensorField(g, 1.0 + x1, 0.1 * x2, 2.0 - x2)
    u_old = ScalarField(g, np.exp(-((x1 - 0.5) ** 2 + (x2 - 0.5) ** 2) / 0.02))
    with pytest.raises(SolverError, match="exactly singular"):
        transport.parabolic_step(u_old, D, ScalarField.full(g, 0.0), dt=0.1)
    cfg_path = _write_cfg(tmp_path)
    assert main(["run", "--config", str(cfg_path), "--outdir", str(tmp_path / "o")]) == 3


def test_failed_anderson_fit_is_solver_failure(tmp_path, monkeypatch, capsys):
    # LinAlgError is a ValueError, which would read as a configuration error (exit 2)
    def failed_lstsq(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")

    monkeypatch.setattr(np.linalg, "lstsq", failed_lstsq)
    cfg_path = _write_cfg(tmp_path)
    assert main(["run", "--config", str(cfg_path), "--outdir", str(tmp_path / "o")]) == 3
    assert "Anderson mixing failed on pass 2" in capsys.readouterr().err


def test_cli_mms_poisson(capsys):
    assert main(["mms", "--case", "poisson", "--levels", "3"]) == 0
    out = capsys.readouterr().out
    assert "observed order" in out
    slope = float(out.strip().splitlines()[-1].split(":")[1])
    assert 1.8 <= slope <= 2.2


def test_cli_mms_coupled(capsys):
    assert main(["mms", "--case", "coupled", "--levels", "3"]) == 0
    out = capsys.readouterr().out
    assert "observed order" in out
    slope = float(out.strip().splitlines()[-1].split(":")[1])
    assert 0.7 <= slope <= 1.3


def test_cli_mms_coupled_two_levels_has_no_order(capsys):
    # two runs give one difference, and one point fits no slope
    assert main(["mms", "--case", "coupled", "--levels", "2"]) == 0
    assert capsys.readouterr().out.strip().splitlines()[-1] == "observed order: n/a"


def test_cli_mms_bad_levels():
    assert main(["mms", "--case", "poisson", "--levels", "1"]) == 2


@pytest.mark.parametrize("case", ["poisson", "coupled"])
def test_cli_mms_levels_above_8_exit_2(case, capsys, monkeypatch):
    # rejected before any grid is built: 9 Poisson levels would reach 4097^2 nodes
    monkeypatch.setattr(GridSpec, "__post_init__", lambda self: pytest.fail("a grid was built"))
    assert main(["mms", "--case", case, "--levels", "9"]) == 2
    assert "levels must be from 2 to 8, got 9" in capsys.readouterr().err


def test_cli_sweep(tmp_path):
    cfg_path = _write_cfg(tmp_path)
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg_path), "--param", "a=0.5,1.0", "--outdir", str(out)]) == 0
    assert (out / "a_0.5" / "diagnostics.csv").exists()
    assert (out / "a_1" / "diagnostics.csv").exists()
    lines = (out / "summary.csv").read_text().splitlines()
    assert lines[0].startswith("param,value,step,")
    assert len(lines) == 3
    for line in lines[1:]:
        mass_drift = abs(float(line.split(",")[-1]))
        assert mass_drift <= 1e-11


def test_cli_sweep_matches_individual_runs(tmp_path):
    cfg_path = _write_cfg(tmp_path)
    out = tmp_path / "sweep"
    main(["sweep", "--config", str(cfg_path), "--param", "m=0.5,1.0", "--outdir", str(out)])
    single = tmp_path / "single"
    from dispersim.config import read_config
    from dispersim.sweep import apply_value
    from dispersim.transport import run

    cfg = apply_value(read_config(cfg_path), "m", 1.0)
    tr = run(cfg, outdir=single)
    swept = read_snapshot(out / "m_1" / f"u_{tr.final.step:06d}.csv")
    solo = read_snapshot(single / f"u_{tr.final.step:06d}.csv")
    assert np.array_equal(swept.values, solo.values)


def test_cli_sweep_invalid_param(tmp_path):
    cfg_path = _write_cfg(tmp_path)
    assert main(["sweep", "--config", str(cfg_path), "--param", "nx=3,5"]) == 2
    # sweeping a above b violates the ordering
    assert main(["sweep", "--config", str(cfg_path), "--param", "a=3.0"]) == 2


def test_cli_sweep_validates_every_value_before_running(tmp_path):
    # 0.9 exceeds half the unit domain; the valid 0.1 variant must not run first
    cfg_path = _write_cfg(tmp_path)
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg_path), "--param", "moll_radius=0.1,0.9", "--outdir", str(out)]) == 2
    assert not list(tmp_path.glob("sweep/moll_radius_*"))


@pytest.mark.parametrize("values", ["0.01,0.010000001", "0.02,0.01,0.02"])
def test_cli_sweep_rejects_values_sharing_a_run_directory(tmp_path, capsys, values):
    cfg_path = _write_cfg(tmp_path)
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg_path), "--param", f"dt={values}", "--outdir", str(out)]) == 2
    assert "share a run directory" in capsys.readouterr().err
    assert not list(tmp_path.glob("sweep/dt_*"))


@pytest.mark.parametrize("command", [["run"], ["sweep", "--param", "a=0.5,1.0"]])
def test_cli_output_dir_under_a_file_exit_2_naming_the_path(tmp_path, capsys, command):
    # an output path that cannot be written is a configuration error, not a traceback (exit 1)
    cfg_path = _write_cfg(tmp_path)
    (tmp_path / "F").write_text("")
    out = tmp_path / "F" / "sub"
    assert main([command[0], "--config", str(cfg_path), *command[1:], "--outdir", str(out)]) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: ") and str(tmp_path / "F") in err and "\n" not in err


def test_cli_verify_identities(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["verify", "--suite", "identities"]) == 0
    out = capsys.readouterr().out
    assert "checks passed" in out
    assert (tmp_path / "verify_results.csv").exists()


def test_cli_verify_appendix_seeded(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["verify", "--suite", "appendix", "--seed", "7"]) == 0
    text = (tmp_path / "verify_results.csv").read_text()
    assert ",7," in text


@pytest.mark.parametrize("seed", ["-1", "x"])
def test_cli_verify_bad_seed_exit_2_naming_the_flag(tmp_path, monkeypatch, capsys, seed):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "identities", "--seed", seed])
    assert exc.value.code == 2
    assert f"argument --seed: expected a nonnegative integer, got '{seed}'" in capsys.readouterr().err
    assert not (tmp_path / "verify_results.csv").exists()


@pytest.mark.parametrize(
    "spec, message",
    [
        ("a", "sweep parameter must look like name=v1,v2,..., got 'a'"),
        ("a=", "no sweep values given in 'a='"),
        ("a=1,x", "sweep value 'x' is not a number"),
    ],
)
def test_sweep_param_spec_rejected(spec, message):
    from dispersim.sweep import parse_param_spec

    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        parse_param_spec(spec)


def _stub_checks(monkeypatch):
    """Replace every acceptance check by one that records its argument and returns a passing row named after it."""
    import dispersim.acceptance as ac

    calls = []
    for name in [n for n in dir(ac) if n.startswith("check_")]:

        def stub(arg=None, name=name):
            calls.append(arg)
            return ac.CheckRow(name, 1, 0.0, 1.0, "<=", True, 0, 0.0)

        monkeypatch.setattr(ac, name, stub)
    return calls


def test_verify_solver_and_all_suites_run_every_row_builder(monkeypatch):
    import dispersim.acceptance as ac
    from dispersim.verify import run_suite

    calls = _stub_checks(monkeypatch)
    solver = [
        "check_poisson_mms", "check_mass_conservation", "check_max_principle",
        "check_energy_inequality", "check_determinism", "check_boundedness_monitor",
    ]
    assert [r.name for r in run_suite("solver")] == solver
    # the five trajectory checks share one run cache
    assert calls[0] is None and isinstance(calls[1], ac.RunCache)
    assert all(arg is calls[1] for arg in calls[1:])
    rows = run_suite("all", seed=3)
    assert len(rows) == 17 and all(r.passed for r in rows)
    assert [r.name for r in rows] == [r.name for r in run_suite("identities") + run_suite("appendix")] + solver


def test_verify_unknown_suite():
    from dispersim.verify import run_suite

    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("bogus")


def test_verify_failure_exits_nonzero(tmp_path, monkeypatch):
    import dispersim.acceptance as ac
    from dispersim.acceptance import CheckRow
    from dispersim.verify import verify_command

    def failing(seed):
        return CheckRow("forced-failure", 1, 1.0, 0.0, "<=", False, seed, 0.0)

    monkeypatch.setattr(ac, "check_matrix_decomposition", failing)
    monkeypatch.chdir(tmp_path)
    assert verify_command("identities") == 1
