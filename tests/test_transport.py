import dataclasses
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dispersim import transport
from dispersim.coefficients import (
    PhysParams,
    RegParams,
    dispersion_tensor_regularized,
    mollify,
    stream_velocity,
)
from dispersim.config import reference_config
from dispersim.elliptic import PoissonSolver, SolverError
from dispersim.grid import (
    GridSpec,
    ScalarField,
    SymTensorField,
    VectorField,
    diff_x1,
    integrate,
    read_snapshot,
    write_snapshot,
)
from dispersim.transport import (
    RunConfig,
    SimState,
    StartMemory,
    initial_condition,
    initial_state,
    parabolic_step,
    picard_coupled_step,
    run,
)


def _grid(n=33):
    return GridSpec(n, n)


def _stream_setup(g, amp=0.3, phys=PhysParams(1.0, 2.0, 0.5)):
    x1, x2 = g.nodes()
    v = ScalarField(g, amp * np.sin(np.pi * x1) * np.sin(np.pi * x2))
    q = stream_velocity(v)
    D = dispersion_tensor_regularized(q, phys, RegParams(1e-6))
    return v, q, D


def _cfg(n=33, a=1.0, b=2.0, m=0.5, t_end=0.0625, **kw):
    g = _grid(n)
    defaults = dict(
        grid=g, phys=PhysParams(a, b, m), reg=RegParams(), dt=g.hx, t_end=t_end,
        ic="gaussian", ic_params="amplitude=1,width=0.1",
    )
    defaults.update(kw)
    return RunConfig(**defaults)


# --- initial conditions


def test_ic_constant():
    f = initial_condition("constant", "value=2", _grid(9))
    assert np.all(f.values == 2.0)


def test_ic_gaussian_peak_at_center_node():
    g = _grid(17)  # 0.5 is a node
    f = initial_condition("gaussian", "amplitude=1", g)
    assert np.max(f.values) == 1.0
    assert f.values[8, 8] == 1.0


def test_ic_stripe_is_a_gaussian_in_x1_alone():
    g = GridSpec(17, 9, lx=2.0, ly=1.0)
    f = initial_condition("stripe", "amplitude=2,cx=0.5", g)
    x1, _ = g.nodes()
    assert np.array_equal(f.values, 2.0 * np.exp(-((x1 - 0.5) ** 2) / (2.0 * 0.1**2)))
    assert np.all(f.values == f.values[0]) and f.values[0, 4] == 2.0
    with pytest.raises(ValueError, match=r"unknown ic parameters for 'stripe': \['cy'\]"):
        initial_condition("stripe", "cy=0.5", g)


def test_ic_rejects_unknown_params():
    with pytest.raises(ValueError, match="unknown ic parameter"):
        initial_condition("gaussian", "radius=1", _grid(9))


def test_ic_csv_roundtrip(tmp_path):
    g = _grid(9)
    rng = np.random.default_rng(0)
    f = ScalarField(g, rng.standard_normal(g.shape))
    path = tmp_path / "ic.csv"
    write_snapshot(f, path)
    back = initial_condition(str(path), "", g)
    assert np.array_equal(back.values, f.values)


def test_ic_missing_file():
    with pytest.raises(ValueError, match="unknown ic preset"):
        initial_condition("no-such-thing", "", _grid(9))


# --- parabolic step


def test_constant_preserved_with_stream_fluxes():
    g = _grid(33)
    v, q, D = _stream_setup(g)
    u0 = ScalarField.full(g, 3.0)
    u1, rel = parabolic_step(u0, D, v, dt=0.02)
    assert np.max(np.abs(u1.values - 3.0)) < 1e-12
    assert rel < 1e-10


def test_mass_conserved_any_inputs():
    g = _grid(33)
    rng = np.random.default_rng(1)
    v, q, D = _stream_setup(g, amp=0.5, phys=PhysParams(0.5, 3.0, 1.0))
    for _ in range(3):
        u0 = ScalarField(g, rng.uniform(-1.0, 2.0, g.shape))
        u1, _ = parabolic_step(u0, D, v, dt=0.03)
        m0, m1 = integrate(u0), integrate(u1)
        assert abs(m1 - m0) <= 1e-11 * max(1.0, abs(m0))


def test_isotropic_heat_step_max_principle():
    g = _grid(33)
    rng = np.random.default_rng(2)
    qz = VectorField(g, np.zeros(g.shape), np.zeros(g.shape))
    D = dispersion_tensor_regularized(qz, PhysParams(1.0, 1.0, 0.5), RegParams(1e-6))
    u0 = ScalarField(g, rng.uniform(-1.0, 1.0, g.shape))
    u1, _ = parabolic_step(u0, D, ScalarField.full(g, 0.0), dt=0.05)
    assert np.max(u1.values) <= np.max(u0.values) + 1e-10
    assert np.min(u1.values) >= np.min(u0.values) - 1e-10


def test_parabolic_step_leaves_its_inputs_unchanged():
    # BiCGSTAB is handed a view of x0's values, not a copy: it must iterate in its own array
    g = _grid(33)
    rng = np.random.default_rng(4)
    v, _, D = _stream_setup(g)
    u_old = ScalarField(g, rng.uniform(0.0, 1.0, g.shape))
    x0 = ScalarField(g, rng.uniform(0.0, 1.0, g.shape))
    u_before, x0_before = u_old.values.copy(), x0.values.copy()
    u1, _ = parabolic_step(u_old, D, v, dt=0.02, x0=x0)
    assert np.array_equal(u_old.values, u_before)
    assert np.array_equal(x0.values, x0_before)
    assert not np.shares_memory(u1.values, x0.values)


# --- finite-volume operator consistency


def test_fv_cross_term_exact_on_bilinear():
    # constant pure-cross tensor, u = x1 x2: the operator must produce
    # -(d12 u_21 + d12 u_12) = -2 exactly away from the boundary rows
    from dispersim.grid import SymTensorField
    from dispersim.transport import _assemble_parabolic

    g = GridSpec(9, 9)
    x1, x2 = g.nodes()
    u = x1 * x2
    D = SymTensorField(g, np.zeros(g.shape), np.ones(g.shape), np.zeros(g.shape))
    fe = np.zeros((g.ny, g.nx - 1))
    fn = np.zeros((g.ny - 1, g.nx))
    A, w = _assemble_parabolic(g, D, fe, fn, 1.0, transport._assembly_buffers(g.shape))
    r = ((A @ u.ravel()).reshape(g.shape) - w * u) / w
    assert np.max(np.abs(r[2:-2, 2:-2] + 2.0)) < 1e-12


def test_fv_diffusion_consistency_second_order():
    # smooth (well-regularized) full tensor: cell residual vs a fourth-order
    # reference of -div(D grad u) must shrink at second order
    from dispersim.identities import deriv1_4
    from dispersim.transport import _assemble_parabolic

    def error(n):
        g = GridSpec(n, n)
        x1, x2 = g.nodes()
        u = np.sin(1.3 * x1 + 0.4) * np.cos(0.9 * x2 + 0.2)
        v = ScalarField(g, 0.5 * np.sin(np.pi * x1) * np.sin(np.pi * x2))
        D = dispersion_tensor_regularized(stream_velocity(v), PhysParams(1.0, 2.0, 0.5), RegParams(0.5))
        fe = np.zeros((g.ny, g.nx - 1))
        fn = np.zeros((g.ny - 1, g.nx))
        A, w = _assemble_parabolic(g, D, fe, fn, 1.0, transport._assembly_buffers(g.shape))
        r = ((A @ u.ravel()).reshape(g.shape) - w * u) / w
        u1, u2 = deriv1_4(u, g.hx, 1), deriv1_4(u, g.hy, 0)
        f1 = D.d11 * u1 + D.d12 * u2
        f2 = D.d12 * u1 + D.d22 * u2
        ref = -(deriv1_4(f1, g.hx, 1) + deriv1_4(f2, g.hy, 0))
        return np.max(np.abs(r - ref)[2:-2, 2:-2])

    errs = [error(n) for n in (33, 65, 129)]
    assert errs[0] / errs[1] >= 3.0
    assert errs[1] / errs[2] >= 3.0


def test_fv_advection_consistency_first_order():
    from dispersim.grid import SymTensorField
    from dispersim.identities import deriv1_4
    from dispersim.transport import _assemble_parabolic, _face_fluxes_from_stream

    def error(n):
        g = GridSpec(n, n)
        x1, x2 = g.nodes()
        u = np.sin(1.3 * x1 + 0.4) * np.cos(0.9 * x2 + 0.2)
        vs = ScalarField(g, 0.5 * np.sin(np.pi * x1) * np.sin(np.pi * x2))
        q = stream_velocity(vs)
        D0 = SymTensorField(g, np.zeros(g.shape), np.zeros(g.shape), np.zeros(g.shape))
        fe, fn = _face_fluxes_from_stream(vs.values, g)
        A, w = _assemble_parabolic(g, D0, fe, fn, 1.0, transport._assembly_buffers(g.shape))
        r = ((A @ u.ravel()).reshape(g.shape) - w * u) / w
        ref = deriv1_4(u * q.comp1, g.hx, 1) + deriv1_4(u * q.comp2, g.hy, 0)
        return np.max(np.abs(r - ref)[2:-2, 2:-2])

    errs = [error(n) for n in (65, 129)]
    assert 1.5 <= errs[0] / errs[1] <= 2.6  # upwinding is first order


# --- finite-volume properties on random non-square grids


@st.composite
def _fv_case(draw, cross=True):
    """Random grid with hx != hy and lx != ly, SPD tensor field, stream function and dt."""
    nx, ny = draw(st.integers(3, 14)), draw(st.integers(3, 14))
    hx = draw(st.floats(0.05, 0.5))
    aspect = draw(st.floats(1.25, 4.0))
    hy = hx * aspect if draw(st.booleans()) else hx / aspect
    g = GridSpec(nx, ny, lx=hx * (nx - 1), ly=hy * (ny - 1))
    assume(g.lx != g.ly)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d11 = rng.uniform(0.1, 2.0, g.shape)
    d22 = rng.uniform(0.1, 2.0, g.shape)
    d12 = rng.uniform(-0.95, 0.95, g.shape) * np.sqrt(d11 * d22) if cross else np.zeros(g.shape)
    stream = draw(st.floats(0.0, 5.0)) * rng.standard_normal(g.shape)
    dt = draw(st.floats(0.01, 10.0))
    return g, SymTensorField(g, d11, d12, d22), stream, dt


def _assemble(g, D, stream, dt):
    from dispersim.transport import _assemble_parabolic, _face_fluxes_from_stream

    fe, fn = _face_fluxes_from_stream(stream, g)
    A, w = _assemble_parabolic(g, D, fe, fn, dt, transport._assembly_buffers(g.shape))
    return A.tocsr(), w.ravel()


@settings(max_examples=40, deadline=None)
@given(_fv_case())
def test_fv_mass_telescopes(case):
    # every face adds equal and opposite entries to its two cells' rows
    A, w = _assemble(*case)
    B = A - sp.diags(w / case[3])
    col_sums = np.asarray(B.sum(axis=0)).ravel()
    assert np.max(np.abs(col_sums)) <= 1e-12 * abs(A).max()


@settings(max_examples=40, deadline=None)
@given(_fv_case())
def test_fv_constants_exact(case):
    A, w = _assemble(*case)
    row_sums = A @ np.ones(A.shape[0])
    assert np.max(np.abs(row_sums - w / case[3])) <= 1e-12 * abs(A).max()


@settings(max_examples=40, deadline=None)
@given(_fv_case(cross=False))
def test_fv_m_matrix_rows_without_cross_term(case):
    A = _assemble(*case)[0].tocoo()
    off = A.row != A.col
    assert np.all(A.data[off] <= 0.0)


@settings(max_examples=40, deadline=None)
@given(_fv_case(), st.tuples(*[st.floats(-2.0, 2.0)] * 3))
def test_fv_diffusion_exact_on_quadratics(case, c):
    # a constant tensor and u = c0 x1^2 + c1 x1 x2 + c2 x2^2 give
    # -div(D grad u) = -2 (d11 c0 + d12 c1 + d22 c2) at every interior node;
    # on a grid with hx != hy this fails if the two spacings are swapped anywhere
    g, D, _, dt = case
    Dc = SymTensorField(g, *(np.full(g.shape, f[0, 0]) for f in (D.d11, D.d12, D.d22)))
    A, w = _assemble(g, Dc, np.zeros(g.shape), dt)
    x1, x2 = g.nodes()
    u = (c[0] * x1**2 + c[1] * x1 * x2 + c[2] * x2**2).ravel()
    r = ((A @ u - w / dt * u) / w).reshape(g.shape)
    expected = -2.0 * (Dc.d11[0, 0] * c[0] + Dc.d12[0, 0] * c[1] + Dc.d22[0, 0] * c[2])
    scale = 1.0 + np.max(np.abs(u)) / min(g.hx, g.hy) ** 2
    assert np.max(np.abs(r[1:-1, 1:-1] - expected)) <= 1e-11 * scale


def _face_loop_reference(g, D, fe, fn):
    """Dense operator -div(D grad u) + div(u q) built face by face, without the cell weights.

    Each face carries a flux from node p to node e: the diffusive part
    -length * (dnn (u_e - u_p) / h_n + dnt * du/dt), with the tensor
    entries averaged over the face's two nodes and du/dt the mean of their
    transverse derivatives (central inside, second-order one-sided on the
    first and last line), plus the advective part, which takes u from the
    upwind node.  Row p gains the flux and row e loses it.
    """
    ny, nx = g.shape
    A = np.zeros((ny * nx, ny * nx))

    def derivative(k, n, h):
        """(offset, weight) pairs of the nodal first derivative at index k of a line of n nodes."""
        if k == 0:
            return ((0, -1.5 / h), (1, 2.0 / h), (2, -0.5 / h))
        if k == n - 1:
            return ((0, 1.5 / h), (-1, -2.0 / h), (-2, 0.5 / h))
        return ((1, 0.5 / h), (-1, -0.5 / h))

    def face(p, e, length, dnn, dnt, h_n, transverse, flux):
        dnn = 0.5 * (dnn.flat[p] + dnn.flat[e])
        dnt = 0.5 * (dnt.flat[p] + dnt.flat[e])
        row = [(p, length * dnn / h_n), (e, -length * dnn / h_n), (p if flux >= 0.0 else e, flux)]
        row += [(k, -length * dnt * 0.5 * wgt) for k, wgt in transverse]
        for k, val in row:
            A[p, k] += val
            A[e, k] -= val

    for i in range(ny):
        length = g.hy * (0.5 if i in (0, ny - 1) else 1.0)
        for j in range(nx - 1):
            transverse = [((i + di) * nx + jj, wgt) for jj in (j, j + 1) for di, wgt in derivative(i, ny, g.hy)]
            face(i * nx + j, i * nx + j + 1, length, D.d11, D.d12, g.hx, transverse, fe[i, j])
    for i in range(ny - 1):
        for j in range(nx):
            length = g.hx * (0.5 if j in (0, nx - 1) else 1.0)
            transverse = [(ii * nx + j + dj, wgt) for ii in (i, i + 1) for dj, wgt in derivative(j, nx, g.hx)]
            face(i * nx + j, (i + 1) * nx + j, length, D.d22, D.d12, g.hy, transverse, fn[i, j])
    return A


def _assert_matches_face_loop(g, D, stream, dt):
    from dispersim.transport import _face_fluxes_from_stream

    A, w = _assemble(g, D, stream, dt)
    ref = _face_loop_reference(g, D, *_face_fluxes_from_stream(stream, g)) + np.diag(w / dt)
    assert np.max(np.abs(A.toarray() - ref)) <= 1e-13 * np.max(np.abs(ref))


@settings(max_examples=40, deadline=None)
@given(_fv_case())
def test_fv_pure_advection_matches_face_loop_upwind(case):
    # D = 0 leaves only the upwind fluxes, whose matrix slots must not depend on the flux signs
    from dispersim.transport import _face_fluxes_from_stream

    g, _, stream, dt = case
    fe, fn = _face_fluxes_from_stream(stream, g)
    assume(np.any(fe[1:-1] > 0) and np.any(fe[1:-1] < 0))
    zeros = np.zeros(g.shape)
    A, w = _assemble(g, SymTensorField(g, zeros, zeros, zeros), stream, dt)
    B = (A - sp.diags(w / dt)).toarray()
    ref = _face_loop_reference(g, SymTensorField(g, zeros, zeros, zeros), fe, fn)
    assert np.max(np.abs(B - ref)) <= 1e-14 * max(1.0, np.max(np.abs(ref)))


@settings(max_examples=40, deadline=None)
@given(_fv_case())
def test_fv_full_operator_matches_face_loop(case):
    # normal diffusion, the d12 cross term with its one-sided edge closures and upwind advection
    _assert_matches_face_loop(*case)


def test_assembly_map_is_per_grid_not_per_shape():
    # same shape, different spacings: a map cached by shape alone would reuse the wrong hx, hy
    rng = np.random.default_rng(11)
    cases = []
    for g in (GridSpec(17, 17, lx=1.0, ly=1.0), GridSpec(17, 17, lx=0.5, ly=2.0)):
        d11, d22 = rng.uniform(0.1, 2.0, g.shape), rng.uniform(0.1, 2.0, g.shape)
        d12 = rng.uniform(-0.9, 0.9, g.shape) * np.sqrt(d11 * d22)
        cases.append((g, SymTensorField(g, d11, d12, d22), rng.standard_normal(g.shape), 0.05))
    for case in (cases[0], cases[1], cases[1], cases[0]):
        _assert_matches_face_loop(*case)


def test_assembly_pattern_does_not_depend_on_the_data():
    # the CSR data is taken through a pattern cached per grid shape, so the pattern must not move
    # with the values; on 3 nodes across, the one-sided closures of the first and last line overlap
    for g in (GridSpec(7, 5, lx=1.2, ly=0.7), GridSpec(3, 4)):
        rng = np.random.default_rng(5)
        d11, d22 = rng.uniform(0.1, 2.0, g.shape), rng.uniform(0.1, 2.0, g.shape)
        D = SymTensorField(g, d11, rng.uniform(-0.9, 0.9, g.shape) * np.sqrt(d11 * d22), d22)
        zeros = np.zeros(g.shape)
        stream = rng.standard_normal(g.shape)
        cases = [(D, stream), (SymTensorField(g, zeros, zeros, zeros), zeros), (D, -stream)]
        patterns = [_assemble(g, D_, s, 0.1)[0] for D_, s in cases]
        for A in patterns[1:]:
            assert np.array_equal(A.indptr, patterns[0].indptr)
            assert np.array_equal(A.indices, patterns[0].indices)
        A = patterns[0]
        ny, nx = g.shape
        assert A.nnz == (3 * nx - 2) * (3 * ny - 2) + 2 * (3 * nx - 2) + 2 * (3 * ny - 2)
        # the cross-term closures of the edge lines reach two nodes in
        row_cols = {r: set(A.indices[A.indptr[r]:A.indptr[r + 1]]) for r in range(ny * nx)}
        for j in range(nx):
            assert 2 * nx + j in row_cols[j]
            assert (ny - 3) * nx + j in row_cols[(ny - 1) * nx + j]
        for i in range(ny):
            assert i * nx + 2 in row_cols[i * nx]
            assert i * nx + nx - 3 in row_cols[i * nx + nx - 1]


def _random_assembly_inputs(g):
    rng = np.random.default_rng(3)
    d11, d22 = rng.uniform(0.1, 2.0, g.shape), rng.uniform(0.1, 2.0, g.shape)
    D = SymTensorField(g, d11, 0.5 * np.sqrt(d11 * d22), d22)
    return (D, *transport._face_fluxes_from_stream(rng.standard_normal(g.shape), g))


def test_assembly_caches_at_most_16_bytes_per_nonzero():
    # what the assembly keeps between passes: the memory still allocated after one call that
    # starts with every cache of the module emptied
    import gc
    import tracemalloc

    g = GridSpec(65, 65, lx=0.9, ly=1.1)
    D, fe, fn = _random_assembly_inputs(g)
    for obj in vars(transport).values():
        if hasattr(obj, "cache_clear"):
            obj.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        A, w = transport._assemble_parabolic(g, D, fe, fn, 0.01, transport._assembly_buffers(g.shape))
        nnz = A.nnz
        del A, w
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept <= 16 * nnz


@pytest.mark.parametrize("n", [65, 129])
def test_assembly_refill_gathers_into_its_csr_data_without_a_copy(n, monkeypatch):
    # a pass refills the step's workspace: with the face families out of the way, what a refill
    # allocates is the cell weights and the matrix wrapper; a hidden copy of the CSR data in the
    # gather (a read-only perm, or np.take's default mode) reads 1.11x
    import gc
    import tracemalloc

    g = GridSpec(n, n)
    D, fe, fn = _random_assembly_inputs(g)
    workspace = transport._assembly_buffers(g.shape)
    transport._assemble_parabolic(g, D, fe, fn, 0.01, workspace)
    monkeypatch.setattr(transport, "_add_face_family", lambda *args, **kwargs: None)
    gc.collect()
    tracemalloc.start()
    try:
        A, _ = transport._assemble_parabolic(g, D, fe, fn, 0.01, workspace)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.shares_memory(A.data, workspace[1])
    assert peak <= 0.5 * A.data.nbytes


def test_refilled_workspace_gives_the_fresh_assembly_bit_for_bit():
    # a step's passes refill one pair of buffers; a value left over from the previous pass's
    # tensor, fluxes or dt would show here
    g = GridSpec(33, 21, lx=1.0, ly=0.6)
    workspace = transport._assembly_buffers(g.shape)
    first = _random_assembly_inputs(g)
    rng = np.random.default_rng(8)
    d11, d22 = rng.uniform(0.5, 3.0, g.shape), rng.uniform(0.5, 3.0, g.shape)
    D = SymTensorField(g, d11, -0.3 * np.sqrt(d11 * d22), d22)
    second = (D, *transport._face_fluxes_from_stream(5.0 * rng.standard_normal(g.shape), g))
    transport._assemble_parabolic(g, *first, 0.01, workspace)
    A, w = transport._assemble_parabolic(g, *second, 0.03, workspace)
    fresh, w_fresh = transport._assemble_parabolic(g, *second, 0.03, transport._assembly_buffers(g.shape))
    assert np.shares_memory(A.data, workspace[1])
    assert np.array_equal(A.data, fresh.data)
    assert np.array_equal(A.indices, fresh.indices) and np.array_equal(A.indptr, fresh.indptr)
    assert np.array_equal(w, w_fresh)


def test_assembly_buffers_are_allocated_once_per_attempt(monkeypatch):
    # no step of this run is retried, so each makes one attempt (a retried step: see below)
    calls = _counting(monkeypatch, transport, "_assembly_buffers")
    tr = run(_cfg())
    assert sum(r.picard_iterations for r in tr.reports) > 2 * len(tr.reports)
    assert len(calls) == len(tr.reports)


# --- coupled stepping


def test_constant_state_is_fixed_point():
    cfg = _cfg(ic="constant", ic_params="value=2")
    st = initial_state(cfg)
    st2, rep = picard_coupled_step(st, cfg)
    assert rep.picard_iterations == 1
    assert np.max(np.abs(st2.u.values - st.u.values)) < 1e-12
    assert st2.step == st.step + 1
    assert st2.t == pytest.approx(st.t + cfg.dt)


def test_picard_gap_decreases_monotonically(monkeypatch):
    # plain Picard; Anderson-mixed gaps need not decrease monotonically
    monkeypatch.setattr(transport, "_ANDERSON_DEPTH", 0)
    cfg = _cfg()
    st = initial_state(cfg)
    _, rep = picard_coupled_step(st, cfg)
    gaps = rep.picard_gap_history
    assert len(gaps) >= 3
    assert all(gaps[k + 1] <= gaps[k] for k in range(len(gaps) - 1))


def test_halving_dt_roughly_halves_first_gap():
    # smooth data and small dt keep the first step out of the stiff regime,
    # where the O(dt) scaling of the first inner update is visible
    cfg = _cfg(ic="checker", ic_params="amplitude=0.5", dt=1.0 / 128, t_end=1.0)
    st = initial_state(cfg)
    _, rep1 = picard_coupled_step(st, cfg, dt=1.0 / 128)
    _, rep2 = picard_coupled_step(st, cfg, dt=1.0 / 256)
    ratio = rep1.picard_gap_history[0] / rep2.picard_gap_history[0]
    assert 1.5 <= ratio <= 2.5


def test_picard_stall_raises():
    cfg = _cfg(picard_tol=1e-16, picard_max=2)
    st = initial_state(cfg)
    with pytest.raises(SolverError, match="fixed-point"):
        picard_coupled_step(st, cfg)


def test_lagrange_weights_reproduce_polynomials_of_their_degree():
    # uniform steps of 1/128 back from t = 0.25, then the next step whole and shortened to 0.3 of it
    dt = 1.0 / 128
    coeffs = np.random.default_rng(4).uniform(-2.0, 2.0, 4)
    for points in (2, 3, 4):
        times = [0.25 - k * dt for k in range(points)]
        for t in (0.25 + dt, 0.25 + 0.3 * dt):
            weights = transport._lagrange_weights(times, t)
            for degree in range(points):
                p = np.polynomial.Polynomial(coeffs[:degree + 1])
                assert sum(w * p(ti) for w, ti in zip(weights, times)) == pytest.approx(p(t), rel=1e-13, abs=1e-14)


def _stepped(cfg, steps):
    """The state after ``steps`` steps and the start memory of the step after it."""
    st, memory = initial_state(cfg), StartMemory()
    for _ in range(steps):
        st, _ = picard_coupled_step(st, cfg, memory=memory)
    return st, memory


def _states(cfg, steps):
    """The states of ``steps`` steps and, beside each, a snapshot of the memory its next step starts from."""
    states, memories, memory = [initial_state(cfg)], [StartMemory()], StartMemory()
    for _ in range(steps):
        states.append(picard_coupled_step(states[-1], cfg, memory=memory)[0])
        memories.append(dataclasses.replace(memory))
    return states, memories


def _far_off_start(state, memory, t, cfg):
    # a predicted start that the plain step's number of passes cannot bring to picard_tol
    u = ScalarField(cfg.grid, 30.0 * state.u.values)
    return (u, *transport._coupled_fields(u, cfg))


def test_state_history_holds_the_latest_earlier_steps():
    # the initial condition is not a step of the scheme and never enters the history
    cfg = _cfg(n=17)
    states, memories = _states(cfg, 5)
    assert memories[0].history == memories[1].history == ()
    for k, memory in enumerate(memories[1:], start=1):
        earlier = states[max(1, k - transport._PREDICTOR_ORDER):k][::-1]
        assert [h[0] for h in memory.history] == [e.t for e in earlier]
        assert all(h[1] is e.u and h[2] is e.v for h, e in zip(memory.history, earlier))


def test_predicted_stream_function_is_the_poisson_solve_of_the_predicted_density():
    # lap(v) = u_x1 is linear and solved exactly to rounding, so combining the stored v and their
    # start errors costs no solve; far enough that the ring is full and the correction acts
    cfg = reference_config(65)
    st, memory = _stepped(cfg, transport._PREDICTOR_ORDER + transport._EXTRAPOLATION_DEPTH + 2)
    assert len(memory.history) == transport._PREDICTOR_ORDER == 4
    assert len(memory.errors) == transport._EXTRAPOLATION_DEPTH + 1 == 4
    u, v, D = transport._predicted_start(st, memory, st.t + cfg.dt, cfg)
    u_star, _ = transport._lagrange_start(st, memory, st.t + cfg.dt)
    assert np.max(np.abs(u.values - u_star)) > 1e-6
    solved, _ = PoissonSolver(cfg.grid).solve(diff_x1(u), tol=cfg.lin_tol)
    assert np.max(np.abs(v.values - solved.values)) <= 1e-12 * np.max(np.abs(v.values))


def test_error_ring_holds_the_start_errors_of_full_order_predicted_steps():
    # step k starts at full order once its memory holds _PREDICTOR_ORDER earlier steps, not step 0
    cfg = _cfg(n=17)
    depth, first = transport._EXTRAPOLATION_DEPTH, transport._PREDICTOR_ORDER + 2
    states, memories = _states(cfg, first + depth + 2)
    for k, (st, memory) in enumerate(zip(states, memories)):
        assert len(memory.errors) == min(max(0, k - first + 1), depth + 1)
        if not memory.errors:
            continue
        u_star, v_star = transport._lagrange_start(states[k - 1], memories[k - 1], st.t)
        dt, e, ev = memory.errors[0]
        assert dt == cfg.dt
        assert np.array_equal(e, st.u.values - u_star) and np.array_equal(ev, st.v.values - v_star)
        for new, old in zip(memory.errors[1:], memories[k - 1].errors):
            assert new[1] is old[1] and new[2] is old[2]


def test_error_ring_empties_after_a_plain_retry_and_a_dt_change(monkeypatch):
    cfg = _cfg(n=17)
    st, memory = _stepped(cfg, transport._PREDICTOR_ORDER + 4)
    assert len(memory.errors) >= 2
    # another dt: neither used for the start nor extended, so the step is that of an empty ring
    halved_memory = dataclasses.replace(memory)
    halved, report = picard_coupled_step(st, cfg, dt=cfg.dt / 2, memory=halved_memory)
    emptied, emptied_report = picard_coupled_step(
        st, cfg, dt=cfg.dt / 2, memory=dataclasses.replace(memory, errors=())
    )
    assert report.start == "predicted" and halved_memory.errors == ()
    assert report.picard_gap_history == emptied_report.picard_gap_history
    assert np.array_equal(halved.u.values, emptied.u.values)
    # a predicted attempt that stalls, and the retry from u_n
    passes = picard_coupled_step(st, cfg)[1].picard_iterations
    monkeypatch.setattr(transport, "_predicted_start", _far_off_start)
    retried_memory = dataclasses.replace(memory)
    _, report = picard_coupled_step(st, dataclasses.replace(cfg, picard_max=passes), memory=retried_memory)
    assert report.start == "plain" and retried_memory.errors == ()


def test_start_with_fewer_than_two_errors_is_the_polynomial_start():
    cfg = _cfg(n=17)
    first = transport._PREDICTOR_ORDER + 2
    states, memories = _states(cfg, first)
    for st, memory in zip(states[first - 1:], memories[first - 1:]):
        assert len(memory.errors) < 2
        u, v, D = transport._predicted_start(st, memory, st.t + cfg.dt, cfg)
        u_star, v_star = transport._lagrange_start(st, memory, st.t + cfg.dt)
        assert np.array_equal(u.values, u_star) and np.array_equal(v.values, v_star)


@pytest.mark.parametrize("bad", ["raise", "nan", "inf"])
def test_failed_or_non_finite_error_fit_leaves_the_polynomial_start(monkeypatch, bad):
    cfg = _cfg(n=17)
    st, memory = _stepped(cfg, transport._PREDICTOR_ORDER + 4)
    assert len(memory.errors) >= 2
    if bad == "raise":
        def failing(window, f):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(transport, "_anderson_fit", failing)
    else:
        dt, e, ev = memory.errors[0]
        e = e.copy()
        e[3, 4] = float(bad)
        memory = dataclasses.replace(memory, errors=((dt, e, ev),) + memory.errors[1:])
    u, v, D = transport._predicted_start(st, memory, st.t + cfg.dt, cfg)
    u_star, v_star = transport._lagrange_start(st, memory, st.t + cfg.dt)
    assert np.array_equal(u.values, u_star) and np.array_equal(v.values, v_star)


def test_failed_predicted_start_falls_back_to_the_plain_start(monkeypatch):
    # the retry from u_n ignores the memory's secant, so it repeats the plain step bit for bit
    cfg = _cfg()
    st, memory = _stepped(cfg, 2)
    assert memory.secant is not None
    with monkeypatch.context() as m:
        m.setattr(transport, "_PREDICTOR_ORDER", 0)
        plain_memory = dataclasses.replace(memory, secant=None)
        plain, plain_report = picard_coupled_step(st, cfg, memory=plain_memory)
    passes = plain_report.picard_iterations
    cfg = dataclasses.replace(cfg, picard_max=passes)
    monkeypatch.setattr(transport, "_predicted_start", _far_off_start)
    earlier = memory.history
    st2, report = picard_coupled_step(st, cfg, memory=memory)
    assert report.picard_gap_history[passes:] == plain_report.picard_gap_history
    assert len(report.picard_gap_history) == 2 * passes
    for name in ("u", "v"):
        assert np.array_equal(getattr(st2, name).values, getattr(plain, name).values)
    for name in ("d11", "d12", "d22"):
        assert np.array_equal(getattr(st2.D_eps, name), getattr(plain.D_eps, name))
    for a, b in zip(memory.secant, plain_memory.secant):
        assert np.array_equal(a, b)
    assert (st2.t, st2.step) == (plain.t, plain.step)
    assert [h[0] for h in memory.history] == [st.t] + [h[0] for h in earlier[:2]]
    assert (report.start, plain_report.start) == ("plain", "plain")


def test_retried_step_reports_the_worst_pass_of_both_attempts_and_allocates_per_attempt(monkeypatch):
    cfg = _cfg()
    st, memory = _stepped(cfg, 2)
    passes = picard_coupled_step(st, cfg)[1].picard_iterations
    monkeypatch.setattr(transport, "_predicted_start", _far_off_start)
    recorded = _recording_passes(monkeypatch)
    allocate, workspaces = transport._assembly_buffers, []
    freed = []  # per allocation: whether every earlier attempt's buffers were freed by then

    def tracked(shape):
        freed.append(all(ref() is None for ref in workspaces))
        values, data = allocate(shape)
        workspaces.extend((weakref.ref(values), weakref.ref(data)))
        return values, data

    monkeypatch.setattr(transport, "_assembly_buffers", tracked)
    allocations = _counting(monkeypatch, transport, "_assembly_buffers")
    _, report = picard_coupled_step(st, dataclasses.replace(cfg, picard_max=passes), memory=memory)
    assert report.start == "plain" and len(recorded) == report.picard_iterations == 2 * passes
    rels = [p.rel for p in recorded]
    # the worst pass is one of the failed attempt's
    assert report.linear_residual == max(rels[:passes]) > max(rels[passes:])
    assert len(allocations) == 2 and freed == [True, True]


@pytest.mark.parametrize("case", ["reference-33", "reference-65", "checker-33"])
def test_predicted_start_keeps_every_state_and_saves_passes(monkeypatch, case):
    if case.startswith("reference"):
        cfg = reference_config(int(case[-2:]))
    else:
        cfg = dataclasses.replace(
            reference_config(33, a=0.05, b=0.5, m=0.01),
            ic="checker", ic_params="amplitude=5,kx=1,ky=1", dt=1.0 / 128, t_end=12.0 / 128,
        )
    cfg = dataclasses.replace(cfg, output_every=1)
    predicted = run(cfg)
    step = transport.picard_coupled_step

    def without_secant(state, cfg, dt=None, *, memory):
        memory.secant = None
        return step(state, cfg, dt, memory=memory)

    with monkeypatch.context() as m:
        m.setattr(transport, "picard_coupled_step", without_secant)
        unmixed = run(cfg)
    with monkeypatch.context() as m:
        m.setattr(transport, "_EXTRAPOLATION_DEPTH", 0)
        polynomial = run(cfg)
    monkeypatch.setattr(transport, "_PREDICTOR_ORDER", 0)
    plain = run(cfg)
    runs = (predicted, unmixed, polynomial, plain)
    for tr in runs[1:]:
        assert [s.step for s in predicted.states] == [s.step for s in tr.states]
        for a, b in zip(predicted.states, tr.states):
            assert np.max(np.abs(a.u.values - b.u.values)) <= 1e-9
            assert np.max(np.abs(a.v.values - b.v.values)) <= 1e-9
    passes = [sum(r.picard_iterations for r in tr.reports) for tr in runs]
    if case != "reference-33":  # 42 passes against 40 there; n = 65 saves 11 of 78
        assert passes[0] < passes[3]
    # the carried secant saves passes, except on reference-33 (dt = 1/32): there it costs
    # one, 42 against 41, on the steps where the predictor's degree still grows
    assert passes[0] <= passes[1] + (case == "reference-33")
    # the extrapolated error acts from step _PREDICTOR_ORDER + 4 on: 67 passes against 71 at
    # n = 65, 113 against 115 on these 12 checker-33 steps, and on step 8 alone of reference-33
    assert passes[0] <= passes[2] - (case != "reference-33")


def test_predicted_first_pass_mixes_with_the_carried_secant(monkeypatch):
    # u_1 = G(u_0) - gamma sdG with gamma = (sdF . f_0)/(sdF . sdF), written out by hand
    cfg = _cfg()
    st, memory = _stepped(cfg, 3)
    sdF, sdG = memory.secant
    u0, v0, D0 = transport._predicted_start(st, memory, st.t + cfg.dt, cfg)
    # pass 0 of an attempt is far from acceptance and asks for the loose target
    g0 = parabolic_step(st.u, D0, v0, cfg.dt, cfg.lin_tol, x0=u0, loose_beyond=100 * cfg.picard_tol)[0].values
    f0 = (g0 - u0.values).ravel()
    expected = g0 - (np.dot(sdF, f0) / np.dot(sdF, sdF)) * sdG.reshape(g0.shape)
    starts = []

    def recorded(*args, x0=None, **kwargs):
        starts.append(x0.values.copy())
        return parabolic_step(*args, x0=x0, **kwargs)

    monkeypatch.setattr(transport, "parabolic_step", recorded)
    _, report = picard_coupled_step(st, cfg, memory=memory)
    assert report.start == "predicted"
    assert np.array_equal(starts[0], u0.values)
    assert np.max(np.abs(starts[1] - expected)) <= 1e-14 * np.max(np.abs(expected))
    assert np.max(np.abs(starts[1] - g0)) > 1e-6


@pytest.mark.parametrize("bad", ["zero", "overflow", "inf", "nan"])
def test_secant_without_a_positive_finite_square_is_not_mixed(monkeypatch, bad):
    # such pairs cannot come from finite fields short of overflow near 1e308
    cfg = _cfg()
    st, memory = _stepped(cfg, 3)
    sdF = memory.secant[0].copy()
    if bad == "zero":
        sdF[:] = 0.0
    elif bad == "overflow":
        sdF[:] = 1e200  # finite entries whose squares sum past float64
    else:
        sdF[7] = float(bad)
    skipped, report = picard_coupled_step(st, cfg, memory=dataclasses.replace(memory, secant=(sdF, memory.secant[1])))
    if bad in ("zero", "overflow"):
        # the least-squares fit by a column of rank 0, or of entries far above f_0, is 0 to rounding
        unmixed, unmixed_report = picard_coupled_step(st, cfg, memory=dataclasses.replace(memory, secant=None))
        assert report.picard_gap_history == unmixed_report.picard_gap_history
        assert np.array_equal(skipped.u.values, unmixed.u.values)
        assert report.start == "predicted"
        return
    # the fit fails or mixes a non-finite iterate, so the predicted attempt fails on its first
    # pass and the retry from u_n repeats the plain step
    monkeypatch.setattr(transport, "_PREDICTOR_ORDER", 0)
    plain, plain_report = picard_coupled_step(st, cfg, memory=dataclasses.replace(memory, secant=None))
    assert report.picard_gap_history[1:] == plain_report.picard_gap_history
    assert np.array_equal(skipped.u.values, plain.u.values)
    assert (report.start, plain_report.start) == ("plain", "plain")


def test_stored_secant_is_the_first_difference_of_the_accepted_attempt(monkeypatch):
    # checker steps take more than _ANDERSON_DEPTH + 1 passes, so pass _ANDERSON_DEPTH + 1
    # rewrites the window row that the pair is copied from
    cfg = dataclasses.replace(
        reference_config(33, a=0.05, b=0.5, m=0.01),
        ic="checker", ic_params="amplitude=5,kx=1,ky=1", dt=1.0 / 128, t_end=4.0 / 128,
    )
    calls = []

    def recorded(*args, x0=None, **kwargs):
        g, rel = parabolic_step(*args, x0=x0, **kwargs)
        calls.append((x0.values.copy(), g.values.copy()))
        return g, rel

    monkeypatch.setattr(transport, "parabolic_step", recorded)
    st, memory = initial_state(cfg), StartMemory()
    longest = 0
    for _ in range(4):
        calls.clear()
        st, report = picard_coupled_step(st, cfg, memory=memory)
        assert report.start == "predicted" or st.step <= 2
        longest = max(longest, len(calls))
        (u0, g0), (u1, g1) = calls[:2]
        f0, f1 = g0 - u0, g1 - u1
        assert np.array_equal(memory.secant[0], (f1 - f0).ravel())
        assert np.array_equal(memory.secant[1], (g1 - g0).ravel())
    assert longest > transport._ANDERSON_DEPTH + 1


def test_reports_name_the_accepted_start_and_stored_states_drop_the_secant(monkeypatch):
    # the first two steps have no history; the start memory belongs to the run, so a state holds
    # the physics alone and run stores the states the steps return
    cfg = dataclasses.replace(reference_config(33), output_every=1)
    step, returned = transport.picard_coupled_step, []

    def recorded(*args, **kwargs):
        out = step(*args, **kwargs)
        returned.append(out[0])
        return out

    monkeypatch.setattr(transport, "picard_coupled_step", recorded)
    tr = run(cfg)
    assert [r.start for r in tr.reports] == ["plain"] * 2 + ["predicted"] * (len(tr.reports) - 2)
    assert [f.name for f in dataclasses.fields(SimState)] == ["u", "v", "D_eps", "t", "step"]
    assert tr.states[-1] is returned[-1]
    assert len(tr.states) == len(returned) + 1 and all(a is b for a, b in zip(tr.states[1:], returned))


def test_step_without_a_memory_is_the_step_with_a_fresh_one():
    cfg = _cfg()
    st, _ = _stepped(cfg, 3)
    bare, bare_report = picard_coupled_step(st, cfg)
    fresh, fresh_report = picard_coupled_step(st, cfg, memory=StartMemory())
    assert bare_report == fresh_report and bare_report.start == "plain"
    for name in ("u", "v"):
        assert np.array_equal(getattr(bare, name).values, getattr(fresh, name).values)
    for name in ("d11", "d12", "d22"):
        assert np.array_equal(getattr(bare.D_eps, name), getattr(fresh.D_eps, name))
    assert (bare.t, bare.step) == (fresh.t, fresh.step)


@pytest.mark.parametrize("dt_factor", [1.0, 0.5])
def test_step_on_a_copied_memory_leaves_the_original_alone(dt_factor):
    # what a substep of another dt needs: the copy moves on, the original keeps every field and array
    cfg = _cfg(n=17)
    st, memory = _stepped(cfg, transport._PREDICTOR_ORDER + 4)
    assert len(memory.history) == transport._PREDICTOR_ORDER and len(memory.errors) >= 2
    assert memory.secant is not None
    kept = {f.name: getattr(memory, f.name) for f in dataclasses.fields(StartMemory)}
    arrays = [*memory.secant, *(a for _, e, ev in memory.errors for a in (e, ev))]
    arrays += [f.values for _, u, v in memory.history for f in (u, v)]
    saved = [a.copy() for a in arrays]
    copy = dataclasses.replace(memory)
    _, report = picard_coupled_step(st, cfg, dt=dt_factor * cfg.dt, memory=copy)
    assert report.start == "predicted"
    assert all(getattr(copy, name) is not value for name, value in kept.items())
    assert all(getattr(memory, name) is value for name, value in kept.items())
    assert all(np.array_equal(a, b) for a, b in zip(arrays, saved))


def test_state_consistency_after_step():
    cfg = _cfg()
    st = initial_state(cfg)
    st2, _ = picard_coupled_step(st, cfg)
    b_norm = np.linalg.norm(diff_x1(st2.u).values[1:-1, 1:-1])
    assert PoissonSolver(cfg.grid).residual_norm(st2.v, diff_x1(st2.u)) <= cfg.lin_tol * b_norm


def _counting(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_reference_run_makes_no_factorization(monkeypatch):
    # splu is looked up through transport.spla, where the benchmark's
    # transport.factor span wraps it
    calls = _counting(monkeypatch, transport.spla, "splu")
    tr = run(reference_config(33))
    assert tr.reports
    assert calls == []


def test_one_bicgstab_iteration_suffices(monkeypatch):
    # the cosine-preconditioned solve is capped at one iteration; a pass that
    # misses lin_tol then is solved directly with an exact LU
    monkeypatch.setattr(transport, "_FAST_ITERATIONS", 1)
    cfg = reference_config(33)
    tr = run(cfg)
    assert tr.reports
    assert all(r.linear_residual <= cfg.lin_tol for r in tr.reports)


def test_missed_fast_solve_falls_back_to_lu(monkeypatch):
    # splu is looked up through transport.spla, where the benchmark's
    # transport.factor span wraps it
    monkeypatch.setattr(transport, "_FAST_ITERATIONS", 1)
    calls = _counting(monkeypatch, transport.spla, "splu")
    cfg = reference_config(33)
    tr = run(cfg)
    assert len(calls) > 0
    assert all(r.linear_residual <= cfg.lin_tol for r in tr.reports)


def test_lu_fallback_solves_directly(monkeypatch):
    # bicgstab is looked up through transport.spla, where the benchmark's
    # transport.krylov span wraps it; the LU fallback adds no call of its own,
    # so the calls are the passes plus the loose passes continued to 1e-13
    monkeypatch.setattr(transport, "_FAST_ITERATIONS", 1)
    calls = _counting(monkeypatch, transport.spla, "bicgstab")
    passes = _recording_passes(monkeypatch)
    tr = run(reference_config(33))
    continued = sum(len(p.calls) == 2 for p in passes)
    assert len(passes) == sum(r.picard_iterations for r in tr.reports)
    assert all(len(p.calls) in (1, 2) for p in passes)
    assert len(calls) == len(passes) + continued


_BAD_DT = [-0.1, 0.0, float("inf"), float("nan")]


@pytest.mark.parametrize("dt", _BAD_DT)
def test_parabolic_step_rejects_bad_dt(dt):
    # a negative dt stepped backward, inf returned a zero field, 0 divided by zero
    g = _grid(9)
    v, _, D = _stream_setup(g)
    u_old = initial_condition("gaussian", "", g)
    with pytest.raises(ValueError, match="dt must be positive and finite, got"):
        parabolic_step(u_old, D, v, dt)


@pytest.mark.parametrize("dt", _BAD_DT)
def test_picard_coupled_step_rejects_bad_dt(dt):
    # from a state with history the predictor would extrapolate to the bad time before any solve
    cfg = _cfg()
    for st, memory in ((initial_state(cfg), None), _stepped(cfg, 2)):
        with pytest.raises(ValueError, match="dt must be positive and finite, got"):
            picard_coupled_step(st, cfg, dt=dt, memory=memory)


def test_nan_lin_tol_rejected():
    # with lin_tol = nan every pass would take the LU fallback and no residual check could fail
    g = _grid(9)
    v, _, D = _stream_setup(g)
    u_old = initial_condition("gaussian", "", g)
    with pytest.raises(ValueError, match="lin_tol must be positive, got nan"):
        parabolic_step(u_old, D, v, 0.1, lin_tol=float("nan"))


def test_run_steps_without_building_a_step_list(monkeypatch):
    # 1e20 steps fit no list; the loop must reach the first step and report its failure
    def failing_step(state, cfg, dt=None, *, memory=None):
        assert dt == cfg.dt
        raise SolverError("stopped at the first step")

    monkeypatch.setattr(transport, "picard_coupled_step", failing_step)
    # RunConfig refuses to plan 1e20 steps, so dt is set after it is built
    with pytest.raises(ValueError, match="dt is too small for t_end"):
        _cfg(n=9, dt=1e-20, t_end=1.0)
    cfg = _cfg(n=9, t_end=1.0)
    cfg.dt = 1e-20
    with pytest.raises(SolverError, match="first step"):
        run(cfg)


def test_parabolic_step_of_a_zero_field_is_zero():
    # a zero right side has no relative residual; the step returns zeros without a solve
    g = _grid(9)
    v, _, D = _stream_setup(g)
    u, rel = parabolic_step(ScalarField(g, np.zeros(g.shape)), D, v, 0.1)
    assert np.array_equal(u.values, np.zeros(g.shape)) and rel == 0.0


def _recording_solves(monkeypatch):
    """Wrap bicgstab and splu; the lists then hold (info, iterations, true relative residual) per call and the LU calls."""
    solves, factorizations = [], _counting(monkeypatch, transport.spla, "splu")
    bicgstab = transport.spla.bicgstab

    def recorded(A, b, **kwargs):
        iterations = [0]

        def count(xk):
            iterations[0] += 1

        x, info = bicgstab(A, b, callback=count, **kwargs)
        solves.append((info, iterations[0], float(np.linalg.norm(b - A @ x) / np.linalg.norm(b))))
        return x, info

    monkeypatch.setattr(transport.spla, "bicgstab", recorded)
    return solves, factorizations


@dataclasses.dataclass
class _Pass:
    calls: list  # (rtol, start, result) of each BiCGSTAB call the pass makes
    rel: float = float("nan")  # the relative residual parabolic_step returns


def _recording_passes(monkeypatch):
    """Wrap parabolic_step and bicgstab; the list then holds one ``_Pass`` per transport pass."""
    passes = []
    step, bicgstab = transport.parabolic_step, transport.spla.bicgstab

    def recorded_call(A, b, **kwargs):
        x, info = bicgstab(A, b, **kwargs)
        passes[-1].calls.append((kwargs["rtol"], kwargs["x0"].copy(), x.copy()))
        return x, info

    def recorded_pass(*args, **kwargs):
        passes.append(_Pass([]))
        u, passes[-1].rel = step(*args, **kwargs)
        return u, passes[-1].rel

    monkeypatch.setattr(transport.spla, "bicgstab", recorded_call)
    monkeypatch.setattr(transport, "parabolic_step", recorded_pass)
    return passes


def _accepted_passes(passes, reports):
    """The last pass of each step, the one whose result the step accepted."""
    ends = np.cumsum([r.picard_iterations for r in reports])
    assert ends[-1] == len(passes)
    return [passes[end - 1] for end in ends]


@pytest.fixture(scope="module")
def high_contrast_run():
    # amplitude 100 and m = 0.05 give a strongly varying tensor, where the
    # cosine-preconditioned solves run long; dt = 1/128 stalls plain Picard
    cfg = dataclasses.replace(
        reference_config(33, m=0.05), ic_params="amplitude=100,width=0.1", dt=1.0 / 256, picard_max=60
    )
    with pytest.MonkeyPatch.context() as m:
        solves, factorizations = _recording_solves(m)
        passes = _recording_passes(m)
        tr = run(dataclasses.replace(cfg, t_end=4 * cfg.dt))
    return cfg, tr, solves, factorizations, passes


def test_high_contrast_steps_meet_lin_tol(high_contrast_run):
    cfg, tr, _, _, _ = high_contrast_run
    assert len(tr.reports) == 4
    assert all(r.linear_residual <= cfg.lin_tol for r in tr.reports)


def test_high_contrast_steps_need_no_lu_fallback(high_contrast_run):
    # the diagonal weighting of the cosine preconditioner follows the varying tensor closely enough
    # that no pass reaches the iteration cap
    _, tr, solves, factorizations, _ = high_contrast_run
    assert len(solves) == sum(r.picard_iterations for r in tr.reports)
    assert factorizations == []
    assert max(iterations for _, iterations, _ in solves) < transport._FAST_ITERATIONS


def test_capped_fast_solves_fall_back_to_lu(high_contrast_run):
    # a fast solve that hits the iteration cap is refactored even below lin_tol,
    # so every accepted pass ends near the 1e-13 that BiCGSTAB is asked for there
    _, tr, _, _, passes = high_contrast_run
    assert all(p.rel <= 1e-12 for p in _accepted_passes(passes, tr.reports))


def test_capped_solve_below_lin_tol_is_refactored(monkeypatch):
    # three iterations leave some passes of the first reference steps between 1e-13 and lin_tol:
    # such a capped iterate would pass the lin_tol check, but the pass still takes the LU
    monkeypatch.setattr(transport, "_FAST_ITERATIONS", 3)
    solves, factorizations = _recording_solves(monkeypatch)
    passes = _recording_passes(monkeypatch)
    cfg = reference_config(33)
    tr = run(dataclasses.replace(cfg, t_end=3 * cfg.dt))
    assert any(info > 0 and rel <= cfg.lin_tol for info, _, rel in solves)
    assert len(factorizations) == sum(1 for info, _, rel in solves if info != 0 or rel > cfg.lin_tol)
    assert all(p.rel <= 1e-12 for p in _accepted_passes(passes, tr.reports))


def test_linear_residual_is_worst_pass(monkeypatch):
    passes = _recording_passes(monkeypatch)
    tr = run(reference_config(33))
    start = 0
    for r in tr.reports:
        step_rels = [p.rel for p in passes[start:start + r.picard_iterations]]
        start += r.picard_iterations
        assert r.linear_residual == max(step_rels)
    assert start == len(passes)


def _four_step_config(case):
    if case == "reference-33":
        cfg = reference_config(33)
    else:  # convection-dominated, 10-13 passes a step
        cfg = dataclasses.replace(
            reference_config(33, a=0.05, b=0.5, m=0.01),
            ic="checker", ic_params="amplitude=5,kx=1,ky=1", dt=1.0 / 128,
        )
    return dataclasses.replace(cfg, t_end=4 * cfg.dt, output_every=1)


@pytest.fixture(scope="module", params=["reference-33", "checker-33"])
def recorded_run(request):
    cfg = _four_step_config(request.param)
    with pytest.MonkeyPatch.context() as m:
        passes = _recording_passes(m)
        assemblies = _counting(m, transport, "_assemble_parabolic")
        tr = run(cfg)
    return request.param, cfg, tr, passes, assemblies


def test_every_accepted_pass_is_solved_to_1e_12(recorded_run):
    # a loose pass ends near 1e-11, inside lin_tol; the pass a step accepts was solved to 1e-13
    _, cfg, tr, passes, _ = recorded_run
    assert all(p.rel <= cfg.lin_tol for p in passes)
    assert all(p.rel <= 1e-12 for p in _accepted_passes(passes, tr.reports))


def test_loose_solves_keep_the_passes_and_the_trajectory(recorded_run, monkeypatch):
    # the same run with every pass solved to _KRYLOV_RTOL is the oracle
    _, cfg, tr, _, _ = recorded_run
    monkeypatch.setattr(transport, "_FAR_RTOL", transport._KRYLOV_RTOL)
    tight = run(cfg)
    assert [r.picard_iterations for r in tr.reports] == [r.picard_iterations for r in tight.reports]
    assert len(tr.states) == len(tight.states) == 5
    for a, b in zip(tr.states, tight.states):
        assert np.max(np.abs(a.u.values - b.u.values)) <= 1e-12


def test_continued_pass_reuses_its_matrix(recorded_run):
    # a continuation starts from the loose result and assembles nothing; the reference steps
    # continue some passes, the checker steps none
    case, _, _, passes, assemblies = recorded_run
    assert len(assemblies) == len(passes)
    continued = [p for p in passes if len(p.calls) == 2]
    assert len(continued) > 0 or case == "checker-33"
    for p in continued:
        (first, _, loose), (second, start, _) = p.calls
        assert (first, second) == (transport._FAR_RTOL, transport._KRYLOV_RTOL)
        assert np.array_equal(start, loose)


def test_passes_near_acceptance_solve_tight(recorded_run):
    # far: pass 0 of an attempt or a pass after a gap above 1e4 picard_tol; a far result within
    # 100 picard_tol of its start is continued to 1e-13, any other far result stays loose
    _, cfg, tr, passes, _ = recorded_run
    assert [r.start for r in tr.reports] == ["plain"] * 2 + ["predicted"] * 2  # one attempt a step
    ends = np.cumsum([r.picard_iterations for r in tr.reports])
    for r, end in zip(tr.reports, ends):
        near = False
        for gap, p in zip(r.picard_gap_history, passes[end - r.picard_iterations:end]):
            rtol, start, x = p.calls[0]
            if near:
                assert [c[0] for c in p.calls] == [transport._KRYLOV_RTOL]
            else:
                assert rtol == transport._FAR_RTOL
                assert len(p.calls) == 1 + (np.max(np.abs(x - start)) <= 100 * cfg.picard_tol)
            near = near or gap <= 1e4 * cfg.picard_tol


def test_loose_target_never_drops_below_the_tight_one(monkeypatch):
    # lin_tol/10 = 1e-13 leaves nothing to loosen, so every pass makes one call to _KRYLOV_RTOL
    passes = _recording_passes(monkeypatch)
    cfg = dataclasses.replace(reference_config(33), lin_tol=1e-12)
    tr = run(dataclasses.replace(cfg, t_end=2 * cfg.dt))
    assert len(passes) == sum(r.picard_iterations for r in tr.reports) > 2
    assert all([c[0] for c in p.calls] == [transport._KRYLOV_RTOL] for p in passes)


@pytest.mark.parametrize("scale", [1e-150, 1.0, 1e150])
@pytest.mark.parametrize("rows", [1, 2, 3])
def test_gram_fit_matches_the_svd_fit(rows, scale):
    # the scaled normal equations give the least-squares gamma of the SVD fit; a zero row gets 0,
    # and windows of 1e-150 and 1e150 have Gram entries outside float64 range without the scaling
    rng = np.random.default_rng(rows)
    for trial in range(5):
        window = scale * rng.standard_normal((rows, 1089)) * rng.uniform(1e-3, 1e3, (rows, 1))
        if trial == 4:
            window[0] = 0.0
        f = rng.standard_normal(1089)
        gram = transport._anderson_fit(window, f)
        svd = np.linalg.lstsq(window.T, f, rcond=None)[0]
        assert np.max(np.abs(gram - svd)) <= 1e-12 * np.max(np.abs(svd))


_ANISOTROPIC_GRIDS = [GridSpec(33, 21, lx=1.0, ly=0.6), GridSpec(17, 41, lx=0.5, ly=2.0)]


def _constant_tensor_step_residual(grid: GridSpec, scale: float) -> float:
    """The relative residual of the cosine preconditioner's result for a random right side times ``scale``."""
    c, dt = 0.7, 0.01
    ones = np.ones(grid.shape)
    D = SymTensorField(grid, c * ones, 0.0 * ones, c * ones)
    zeros_e, zeros_n = np.zeros((grid.ny, grid.nx - 1)), np.zeros((grid.ny - 1, grid.nx))
    A, w = transport._assemble_parabolic(grid, D, zeros_e, zeros_n, dt, transport._assembly_buffers(grid.shape))
    M = transport._cosine_preconditioner(grid, A.diagonal(), dt, c)
    assert np.array_equal(M.matvec(np.zeros(w.size)), np.zeros(w.size))
    b = np.random.default_rng(5).standard_normal(w.size)
    x = M.matvec(scale * b)
    assert x.dtype == np.float64
    return float(np.linalg.norm((A @ x - scale * b) / scale) / np.linalg.norm(b))


@pytest.mark.parametrize("grid", _ANISOTROPIC_GRIDS)
def test_cosine_preconditioner_inverts_constant_tensor_step(grid):
    # non-square cells with hx != hy: swapped spacings leave a relative residual above 1e-2;
    # the transforms run in float32, so the inverse holds to 1e-5, not to float64 rounding
    assert _constant_tensor_step_residual(grid, 1.0) <= 1e-5


@pytest.mark.parametrize("scale", [1e-200, 1e-30, 1e30, 1e200])
@pytest.mark.parametrize("grid", _ANISOTROPIC_GRIDS)
def test_cosine_preconditioner_rescales_into_float32_range(grid, scale):
    # 1e-200 and 1e200 lie outside float32 range, so only the power-of-two rescaling passes them
    assert _constant_tensor_step_residual(grid, scale) <= 1e-5


def test_cosine_preconditioner_passes_non_finite_input_on():
    # BiCGSTAB then breaks down and the pass takes the LU fallback
    grid, dt, c = GridSpec(9, 9), 0.01, 1.0
    diag = grid.cell_weights() * (1.0 / dt + c * (2.0 / grid.hx**2 + 2.0 / grid.hy**2))
    M = transport._cosine_preconditioner(grid, diag, dt, c)
    for bad in (np.nan, np.inf):
        b = np.ones(grid.ny * grid.nx)
        b[40] = bad
        assert not np.all(np.isfinite(M.matvec(b)))


def _float64_cosine_preconditioner(grid, diag, dt, c):
    """The cosine preconditioner with its transforms in float64: the oracle for the float32 one."""
    from scipy.fft import dctn, idctn

    from dispersim.elliptic import laplacian_eigenvalues

    weight = (1.0 / dt + c * (2.0 / grid.hx**2 + 2.0 / grid.hy**2)) / diag.reshape(grid.shape)
    denom = 1.0 / dt + c * laplacian_eigenvalues(grid, reflecting=True)

    def solve(r):
        return idctn(dctn(r.reshape(grid.shape) * weight, type=1) / denom, type=1).ravel()

    return transport.spla.LinearOperator((diag.size, diag.size), solve, dtype=float)


def test_float32_preconditioner_matches_float64_on_convection_dominated_steps(monkeypatch):
    # the checker case: weak dispersion, 9-12 passes per step, about 100 BiCGSTAB iterations a step
    cfg = dataclasses.replace(
        reference_config(33, a=0.05, b=0.5, m=0.01),
        ic="checker", ic_params="amplitude=5,kx=1,ky=1", dt=1.0 / 128, t_end=8.0 / 128,
    )
    solves, factorizations = _recording_solves(monkeypatch)

    with monkeypatch.context() as m:
        m.setattr(transport, "_cosine_preconditioner", _float64_cosine_preconditioner)
        oracle = run(cfg)
    oracle_iterations = sum(iterations for _, iterations, _ in solves)
    solves.clear()
    tr = run(cfg)
    assert [r.picard_iterations for r in tr.reports] == [r.picard_iterations for r in oracle.reports]
    assert factorizations == []
    assert np.max(np.abs(tr.final.u.values - oracle.final.u.values)) <= 1e-12
    assert sum(iterations for _, iterations, _ in solves) <= 1.02 * oracle_iterations


def test_step_matches_standalone_passes(monkeypatch):
    monkeypatch.setattr(transport, "_ANDERSON_DEPTH", 0)
    cfg = _cfg()
    ps = PoissonSolver(cfg.grid)
    st = initial_state(cfg)
    st2, rep = picard_coupled_step(st, cfg)

    u_k = st.u
    for passes in range(1, cfg.picard_max + 1):
        v, _ = ps.solve(diff_x1(u_k), tol=cfg.lin_tol)
        D = dispersion_tensor_regularized(mollify(stream_velocity(v), cfg.reg.moll_radius), cfg.phys, cfg.reg)
        u_next, _ = parabolic_step(st.u, D, v, cfg.dt, cfg.lin_tol)
        gap = np.max(np.abs(u_next.values - u_k.values))
        u_k = u_next
        if gap <= cfg.picard_tol:
            break
    assert passes == rep.picard_iterations
    assert np.max(np.abs(st2.u.values - u_k.values)) <= 1e-13


def test_step_matches_standalone_anderson():
    # Walker & Ni type II with mixing 1 and depth 3, written out over the
    # whole history: the step keeps only the last three differences
    assert transport._ANDERSON_DEPTH == 3
    cfg = _cfg()
    ps = PoissonSolver(cfg.grid)
    st = initial_state(cfg)
    st2, rep = picard_coupled_step(st, cfg)

    u_k = st.u.values
    fs, gs = [], []
    for passes in range(1, cfg.picard_max + 1):
        v, _ = ps.solve(diff_x1(ScalarField(cfg.grid, u_k)), tol=cfg.lin_tol)
        D = dispersion_tensor_regularized(mollify(stream_velocity(v), cfg.reg.moll_radius), cfg.phys, cfg.reg)
        g = parabolic_step(st.u, D, v, cfg.dt, cfg.lin_tol, x0=ScalarField(cfg.grid, u_k))[0].values
        fs.append(g - u_k)
        gs.append(g)
        if np.max(np.abs(fs[-1])) <= cfg.picard_tol or passes == 1:
            u_k = g
        else:
            m = min(passes - 1, 3)
            dF = np.column_stack([(fs[-i] - fs[-i - 1]).ravel() for i in range(1, m + 1)])
            dG = np.column_stack([(gs[-i] - gs[-i - 1]).ravel() for i in range(1, m + 1)])
            gamma = np.linalg.lstsq(dF, fs[-1].ravel(), rcond=None)[0]
            u_k = g - (dG @ gamma).reshape(g.shape)
        if np.max(np.abs(fs[-1])) <= cfg.picard_tol:
            break
    assert passes == rep.picard_iterations
    assert passes < 11  # plain Picard takes 11 passes on this step
    assert np.max(np.abs(st2.u.values - u_k)) <= 1e-13


def test_non_finite_anderson_mix_raises(monkeypatch):
    # a mix that is not finite, or a fit that fails, is a solver failure (exit 3), not the
    # ValueError of ScalarField or the LinAlgError of lstsq
    def nan_lstsq(a, b, rcond=None):
        return np.full(a.shape[1], np.nan), None, a.shape[1], None

    def failed_lstsq(a, b, rcond=None):
        raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")

    cfg = _cfg()
    for lstsq, message in (
        (nan_lstsq, "Anderson mixing produced non-finite values on pass 2"),
        (failed_lstsq, "Anderson mixing failed on pass 2: SVD did not converge"),
    ):
        monkeypatch.setattr(np.linalg, "lstsq", lstsq)
        with pytest.raises(SolverError, match=message):
            picard_coupled_step(initial_state(cfg), cfg)


def _stall_case(name):
    if name == "amplitude-20":
        return dataclasses.replace(reference_config(65), ic_params="amplitude=20,width=0.1")
    if name == "checker":
        return dataclasses.replace(
            reference_config(33, a=0.05, b=0.5, m=0.01), ic="checker", ic_params="amplitude=5,kx=1,ky=1", dt=1.0 / 32
        )
    cfg = dataclasses.replace(
        reference_config(33, m=0.05), ic_params="amplitude=100,width=0.1", dt=0.25 / 32, picard_max=60
    )
    return dataclasses.replace(cfg, t_end=8 * cfg.dt)


@pytest.mark.parametrize("name", ["amplitude-20", "checker", "high-contrast"])
def test_anderson_finishes_plain_picard_stalls(monkeypatch, name):
    # convection-dominated steps where plain Picard stalls at picard_max;
    # Anderson mixing runs each case to t_end
    cfg = _stall_case(name)
    tr = run(cfg)
    assert len(tr.reports) == round(cfg.t_end / cfg.dt)
    assert tr.final.t == pytest.approx(cfg.t_end)
    assert all(r.picard_gap <= cfg.picard_tol and r.picard_iterations < cfg.picard_max for r in tr.reports)
    assert all(abs(r.mass_drift) <= 1e-12 for r in tr.diagnostics)

    monkeypatch.setattr(transport, "_ANDERSON_DEPTH", 0)
    with pytest.raises(SolverError, match="fixed-point iteration stalled"):
        run(cfg)


def test_mass_drift_of_zero_mean_initial_condition():
    # the integral of a cosine checker is a rounding-level number; dividing
    # by it reported drifts of 4.5 to 45.5 for a conserved mass
    cfg = dataclasses.replace(reference_config(17), ic="checker", ic_params="amplitude=1")
    tr = run(dataclasses.replace(cfg, t_end=4 * cfg.dt))
    assert len(tr.diagnostics) == 5
    assert abs(tr.diagnostics[0].mass) < 1e-15
    assert all(abs(r.mass_drift) <= 1e-12 for r in tr.diagnostics)


def test_diagnostics_phi_columns_match_an_independent_evaluation():
    # grad u by numpy's second-order differences and phi by einsum over D_eps,
    # against the phi_max, grad_sup and energy_dissip columns of every stored state
    cfg = dataclasses.replace(reference_config(17), output_every=1)
    tr = run(cfg)
    hx, hy = cfg.grid.hx, cfg.grid.hy
    assert [s.step for s in tr.states] == [r.step for r in tr.diagnostics]
    for k, (state, row) in enumerate(zip(tr.states, tr.diagnostics)):
        g2, g1 = np.gradient(state.u.values, hy, hx, edge_order=2)
        grad = np.stack([g1, g2])
        D = state.D_eps
        tensor = np.array([[D.d11, D.d12], [D.d12, D.d22]])
        phi = np.einsum("i...,ij...,j...->...", grad, tensor, grad)
        assert row.phi_max == pytest.approx(np.max(phi), rel=1e-12)
        assert row.grad_sup == pytest.approx(np.max(np.hypot(g1, g2)), rel=1e-12)
        if k:
            increment = row.energy_dissip - tr.diagnostics[k - 1].energy_dissip
            expected = cfg.dt * np.trapezoid(np.trapezoid(phi, dx=hx, axis=1), dx=hy)
            assert increment == pytest.approx(expected, rel=1e-12)


def test_first_pass_uses_state_coefficients(monkeypatch):
    cfg = _cfg()
    st = initial_state(cfg)
    calls = _counting(monkeypatch, PoissonSolver, "solve")
    _, rep = picard_coupled_step(st, cfg)
    # one solve per pass after the first, plus the refresh of the accepted u
    assert rep.picard_iterations >= 2
    assert len(calls) == rep.picard_iterations


# --- full runs


def test_run_constant_initial_condition(tmp_path):
    cfg = _cfg(ic="constant", ic_params="value=1", t_end=0.09375)
    tr = run(cfg, outdir=tmp_path / "out")
    rows = tr.diagnostics
    assert abs(tr.final.u.values - 1.0).max() < 1e-11
    assert all(abs(r.mass - rows[0].mass) < 1e-13 for r in rows)
    assert all(r.umax == pytest.approx(1.0, abs=1e-11) for r in rows)
    assert (tmp_path / "out" / "diagnostics.csv").exists()
    assert (tmp_path / "out" / "resolved.cfg").exists()
    assert (tmp_path / "out" / f"u_{rows[-1].step:06d}.csv").exists()


def test_run_snapshots_every_step(tmp_path):
    cfg = _cfg(t_end=0.09375, output_every=1)
    tr = run(cfg, outdir=tmp_path / "out")
    for row in tr.diagnostics:
        assert (tmp_path / "out" / f"u_{row.step:06d}.csv").exists()
        assert (tmp_path / "out" / f"v_{row.step:06d}.csv").exists()


def test_run_determinism_bytes(tmp_path):
    cfg = _cfg(t_end=0.0625)
    run(cfg, outdir=tmp_path / "a")
    run(cfg, outdir=tmp_path / "b")
    assert (tmp_path / "a" / "diagnostics.csv").read_bytes() == (tmp_path / "b" / "diagnostics.csv").read_bytes()


def test_rerun_after_another_grid_is_byte_identical(tmp_path):
    # the start memory lives in the run, not in the module: a run between two runs of one
    # config leaves their artifacts byte for byte the same
    cfg = _cfg(n=17, t_end=0.5, output_every=3)
    run(cfg, outdir=tmp_path / "a")
    run(_cfg(n=33, t_end=0.25), outdir=tmp_path / "other")
    run(cfg, outdir=tmp_path / "b")
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
    assert {"diagnostics.csv", "u_000006.csv", "v_000008.csv"} <= set(names)
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_run_partial_artifacts_on_failure(tmp_path):
    cfg = _cfg(t_end=0.0625, picard_tol=1e-16, picard_max=1)
    with pytest.raises(SolverError):
        run(cfg, outdir=tmp_path / "out")
    text = (tmp_path / "out" / "diagnostics.csv").read_text().splitlines()
    assert text[0].startswith("step,t,")
    assert len(text) >= 2  # header plus the initial row survive the abort


def test_run_fractional_final_step():
    g = _grid(17)
    cfg = RunConfig(grid=g, phys=PhysParams(1, 2, 0.5), reg=RegParams(), dt=g.hx,
                    t_end=2.5 * g.hx, ic="constant", ic_params="value=1")
    tr = run(cfg)
    assert tr.diagnostics[-1].t == pytest.approx(2.5 * g.hx)
    assert len(tr.reports) == 3


def test_snapshot_file_reload_matches_state(tmp_path):
    cfg = _cfg(t_end=0.0625)
    tr = run(cfg, outdir=tmp_path / "out")
    last = tr.final
    back = read_snapshot(tmp_path / "out" / f"u_{last.step:06d}.csv", cfg.grid)
    assert np.array_equal(back.values, last.u.values)
