import dataclasses
import re
import warnings

import numpy as np
import pytest

from dispersim import transport
from dispersim.coefficients import RegParams
from dispersim.config import reference_config
from dispersim.grid import (
    GridSpec,
    ScalarField,
    _snapshot_template,
    deriv1,
    diff_x1,
    integrate,
    read_snapshot,
    write_snapshot,
)


def _savetxt_snapshot(f, path):
    """The reference writer: every coordinate and value through np.savetxt."""
    x1, x2 = f.grid.nodes()
    cols = np.column_stack([x1.ravel(), x2.ravel(), f.values.ravel()])
    np.savetxt(path, cols, delimiter=",", header="x1,x2,value", comments="", fmt="%.17g")


def test_grid_too_small_rejected():
    with pytest.raises(ValueError, match="grid too small"):
        GridSpec(2, 5)
    with pytest.raises(ValueError, match="grid too small"):
        GridSpec(5, 2)


def test_nonfinite_values_rejected():
    g = GridSpec(5, 5)
    vals = np.zeros(g.shape)
    vals[2, 2] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        ScalarField(g, vals)


def test_diff_affine_exact():
    g = GridSpec(9, 9)
    f = ScalarField(g, 3.0 * g.nodes()[0] + 5.0)
    assert np.max(np.abs(diff_x1(f).values - 3.0)) == 0.0
    assert np.max(np.abs(deriv1(f.values, g.hy, axis=0))) == 0.0


def test_diff_quadratic_central_exact_at_half():
    g = GridSpec(5, 5)  # x2 = 0.5 is the center row
    f = ScalarField(g, g.nodes()[1] ** 2)
    d = deriv1(f.values, g.hy, axis=0)
    assert d[2, 2] == 1.0


def test_diff_second_order_convergence():
    errs = []
    for n in (65, 129):
        g = GridSpec(n, n)
        f = ScalarField(g, np.sin(np.pi * g.nodes()[0]))
        exact = np.pi * np.cos(np.pi * g.nodes()[0])
        errs.append(np.max(np.abs(diff_x1(f).values - exact)))
    ratio = errs[0] / errs[1]
    assert 3.6 <= ratio <= 4.4


def test_integrate_exact_cases():
    g = GridSpec(33, 33)
    assert integrate(ScalarField.full(g, 1.0)) == pytest.approx(1.0, abs=1e-14)
    f = ScalarField(g, g.nodes()[0])
    assert integrate(f) == pytest.approx(0.5, abs=1e-14)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_integrate_rejects_non_finite_values(bad):
    # ScalarField checks its values only when built, so write the bad value afterwards
    f = ScalarField.full(GridSpec(9, 9), 1.0)
    f.values[4, 4] = bad
    with pytest.raises(ValueError, match="not finite"):
        integrate(f)


def test_integrate_sine_product():
    g = GridSpec(129, 129)
    x1, x2 = g.nodes()
    f = ScalarField(g, np.sin(np.pi * x1) * np.sin(np.pi * x2))
    assert integrate(f) == pytest.approx(4.0 / np.pi**2, rel=2e-4)


def test_diff_linearity():
    g = GridSpec(17, 19)
    rng = np.random.default_rng(3)
    f = ScalarField(g, rng.standard_normal(g.shape))
    h = ScalarField(g, rng.standard_normal(g.shape))
    a, b = 2.5, -1.25
    combo = ScalarField(g, a * f.values + b * h.values)
    lhs = diff_x1(combo).values
    rhs = a * diff_x1(f).values + b * diff_x1(h).values
    assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(1.0, np.max(np.abs(rhs)))


def test_diff_commutation_interior():
    g = GridSpec(21, 23)
    rng = np.random.default_rng(4)
    f = ScalarField(g, rng.uniform(-1, 1, g.shape))
    ab = deriv1(deriv1(f.values, g.hy, axis=0), g.hx, axis=1)[1:-1, 1:-1]
    ba = deriv1(deriv1(f.values, g.hx, axis=1), g.hy, axis=0)[1:-1, 1:-1]
    scale = max(1.0, np.max(np.abs(ab)))
    assert np.max(np.abs(ab - ba)) <= 1e-12 * scale


def test_integrate_monotone():
    g = GridSpec(15, 15)
    rng = np.random.default_rng(5)
    f = rng.uniform(-1, 1, g.shape)
    gvals = f + rng.uniform(0, 1, g.shape)
    assert integrate(ScalarField(g, f)) <= integrate(ScalarField(g, gvals))


def test_snapshot_roundtrip_bitexact(tmp_path):
    g = GridSpec(11, 13, lx=0.7, ly=1.9)
    rng = np.random.default_rng(6)
    f = ScalarField(g, rng.standard_normal(g.shape) * np.pi)
    path = tmp_path / "field.csv"
    write_snapshot(f, path)
    back = read_snapshot(path, g)
    assert np.array_equal(back.values, f.values)
    inferred = read_snapshot(path)
    assert inferred.grid.nx == g.nx and inferred.grid.ny == g.ny
    assert np.array_equal(inferred.values, f.values)


def test_snapshot_grid_mismatch(tmp_path):
    g = GridSpec(11, 13)
    f = ScalarField.full(g, 1.0)
    path = tmp_path / "field.csv"
    write_snapshot(f, path)
    with pytest.raises(ValueError, match="grid"):
        read_snapshot(path, GridSpec(13, 11))


@pytest.mark.parametrize("g", [GridSpec(11, 13, lx=0.7, ly=1.9), GridSpec(17, 9, lx=2.5, ly=0.3)])
def test_snapshot_bytes_match_savetxt(tmp_path, g):
    rng = np.random.default_rng(7)
    vals = rng.standard_normal(g.shape) * np.pi
    vals.flat[:8] = [5e-324, -0.0, 1e300, -1e300, 1e-300, 1.0 / 3.0, 0.0, -1.0]
    f = ScalarField(g, vals)
    write_snapshot(f, tmp_path / "new.csv")
    _savetxt_snapshot(f, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    assert np.array_equal(read_snapshot(tmp_path / "new.csv", g).values, vals)


def test_snapshot_template_cached_per_grid():
    g = GridSpec(11, 13, lx=0.7, ly=1.9)
    assert _snapshot_template(g) is _snapshot_template(g)
    assert len(_snapshot_template(g)) == g.ny


def test_snapshot_rows_out_of_order_rejected(tmp_path):
    g = GridSpec(5, 4)
    path = tmp_path / "field.csv"
    write_snapshot(ScalarField(g, np.arange(20.0)), path)
    lines = path.read_text().splitlines(keepends=True)
    lines[7], lines[8] = lines[8], lines[7]  # rows 6 and 7, after the header
    path.write_text("".join(lines))
    for grid in (None, g):
        with pytest.raises(ValueError, match="node coordinates do not match the 5x4 grid"):
            read_snapshot(path, grid)


def test_snapshot_nonfinite_value_rejected(tmp_path):
    g = GridSpec(5, 4)
    path = tmp_path / "field.csv"
    write_snapshot(ScalarField(g, np.arange(20.0)), path)
    lines = path.read_text().splitlines(keepends=True)
    lines[8] = lines[8].rsplit(",", 1)[0] + ",nan\n"
    path.write_text("".join(lines))
    for grid in (None, g):
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: non-finite values$"):
            read_snapshot(path, grid)


# a value that is no number, and a row one column short: numpy's parse error, prefixed with the file
_UNPARSABLE_ROWS = {
    "non-numeric": (lambda line: line.rsplit(",", 1)[0] + ",abc\n", "could not convert string 'abc' to float64"),
    "short-row": (lambda line: line.rsplit(",", 1)[0] + "\n", "the number of columns changed from 3 to 2"),
}


@pytest.mark.parametrize("case", sorted(_UNPARSABLE_ROWS))
def test_snapshot_unparsable_row_names_the_file(tmp_path, case):
    edit, message = _UNPARSABLE_ROWS[case]
    g = GridSpec(5, 4)
    path = tmp_path / "field.csv"
    write_snapshot(ScalarField(g, np.arange(20.0)), path)
    lines = path.read_text().splitlines(keepends=True)
    lines[3] = edit(lines[3])
    path.write_text("".join(lines))
    for grid in (None, g):
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {re.escape(message)}"):
            read_snapshot(path, grid)


def test_snapshot_with_four_columns_rejected(tmp_path):
    g = GridSpec(5, 4)
    path = tmp_path / "field.csv"
    write_snapshot(ScalarField(g, np.arange(20.0)), path)
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join([lines[0]] + [line.rstrip("\n") + ",0\n" for line in lines[1:]]))
    for grid in (None, g):
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: expected 3 columns x1,x2,value$"):
            read_snapshot(path, grid)


def test_snapshot_missing_its_last_row_reported_short(tmp_path):
    g = GridSpec(5, 4)
    path = tmp_path / "field.csv"
    write_snapshot(ScalarField(g, np.arange(20.0)), path)
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))
    for grid in (None, g):
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: the file is short or has extra rows: 4 rows"):
            read_snapshot(path, grid)


@pytest.mark.parametrize("rows", [1, 2])
def test_snapshot_too_few_rows_for_an_inferred_grid_names_the_file(tmp_path, rows):
    path = tmp_path / "field.csv"
    write_snapshot(ScalarField(GridSpec(5, 4), np.arange(20.0)), path)
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:1 + 5 * rows]))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: grid too small: .*got 5x{rows}$"):
        read_snapshot(path)


def test_snapshot_header_only_rejected(tmp_path):
    path = tmp_path / "field.csv"
    path.write_text("x1,x2,value\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="no data rows"):
            read_snapshot(path)


def test_run_snapshots_match_savetxt(tmp_path):
    cfg = dataclasses.replace(reference_config(17), reg=RegParams(moll_radius=0.1), output_every=1)
    traj = transport.run(cfg, tmp_path / "run")
    assert len(traj.states) == round(cfg.t_end / cfg.dt) + 1
    for st in traj.states:
        for name, field in (("u", st.u), ("v", st.v)):
            _savetxt_snapshot(field, tmp_path / "oracle.csv")
            written = tmp_path / "run" / f"{name}_{st.step:06d}.csv"
            assert written.read_bytes() == (tmp_path / "oracle.csv").read_bytes()
