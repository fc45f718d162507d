"""Grid, ghost policy, discrete operator, and harmonic-extension checks."""

import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsflab import grid as g


def test_grid_validation():
    with pytest.raises(ValueError):
        g.Grid(cells=(3,))
    with pytest.raises(ValueError):
        g.Grid(cells=(8, 8, 8))
    gr = g.Grid(cells=(8, 16))
    assert gr.dim == 2
    assert gr.h == (1.0 / 8.0, 1.0 / 16.0)


def test_integrate_and_boundary_measure():
    gr1 = g.Grid(cells=(32,))
    assert g.integrate(gr1, np.ones(32)) == pytest.approx(1.0, rel=1e-14)
    gr2 = g.Grid(cells=(16, 16))
    assert g.integrate(gr2, np.ones((16, 16))) == pytest.approx(1.0, rel=1e-14)


def test_staleness_error():
    gr = g.Grid(cells=(8,))
    f = g.Field.from_interior(gr, np.ones(8))
    with pytest.raises(g.StalenessError):
        g.gradient(f)


def test_field_rank_is_its_trailing_axes_and_the_cells_must_be_padded():
    gr = g.Grid(cells=(6, 5))
    for trailing in ((), (2,), (2, 2)):
        f = g.Field.from_interior(gr, np.ones(gr.interior_shape(trailing)))
        assert f.data.shape == (8, 7) + trailing and f.interior.shape == (6, 5) + trailing
        assert not f.synced and np.all(f.data[0] == 0.0)
    with pytest.raises(ValueError, match="does not match padded"):
        g.Field(grid=gr, data=np.ones((6, 5)))
    with pytest.raises(ValueError, match="does not match padded"):
        g.Field(grid=gr, data=np.ones((8, 6, 2)))


def test_gradient_exact_for_quadratic():
    gr = g.Grid(cells=(12,))
    x = gr.centers(0)
    (xg,) = gr.mesh(ghost=True)
    f = g.Field(grid=gr, data=2.0 * xg**2 - xg + 1.0, synced=True)
    got = g.gradient(f)[..., 0]
    assert np.allclose(got, 4.0 * x - 1.0, atol=1e-12)


def test_operators_2d_linear_fields_exact():
    gr = g.Grid(cells=(8, 8))
    X, Y = gr.mesh(ghost=True)
    u = np.stack([2.0 * X + 3.0 * Y, -X + 0.5 * Y], axis=-1)
    uf = g.Field(grid=gr, data=u, synced=True)
    J = g.gradient(uf)
    assert np.allclose(J[..., 0, 0], 2.0, atol=1e-12)
    assert np.allclose(J[..., 0, 1], 3.0, atol=1e-12)
    assert np.allclose(J[..., 1, 0], -1.0, atol=1e-12)
    assert np.allclose(J[..., 1, 1], 0.5, atol=1e-12)
    div = g.divergence(uf)
    assert np.allclose(div, 2.5, atol=1e-12)
    T = np.stack([np.stack([X, Y], axis=-1), np.stack([X * 0, X + Y], axis=-1)], axis=-2)
    Tf = g.Field(grid=gr, data=T, synced=True)
    dv = g.divergence(Tf)
    assert np.allclose(dv[..., 0], 2.0, atol=1e-12)  # dT00/dx + dT01/dy
    assert np.allclose(dv[..., 1], 1.0, atol=1e-12)


def test_gradient_convergence_order():
    errs = []
    for n in (32, 64):
        gr = g.Grid(cells=(n,))
        x = gr.centers(0)
        (xg,) = gr.mesh(ghost=True)
        f = g.Field(grid=gr, data=np.sin(2 * np.pi * xg), synced=True)
        got = g.gradient(f)[..., 0]
        errs.append(np.max(np.abs(got - 2 * np.pi * np.cos(2 * np.pi * x))))
    order = np.log2(errs[0] / errs[1])
    assert order > 1.9


def test_sync_physical_ghost_policies():
    gr = g.Grid(cells=(6,))
    bc = g.constant_boundary(2.0)
    rho = np.arange(1.0, 7.0)
    u = np.linspace(-1, 1, 6)[:, None]
    th = np.full(6, 3.0)
    rf, uf, tf = g.sync_physical(gr, rho, u, th, bc, t=0.0)
    assert rf.data[0] == rho[0] and rf.data[-1] == rho[-1]          # zero gradient
    assert uf.data[0, 0] == -u[0, 0] and uf.data[-1, 0] == -u[-1, 0]  # odd reflection
    assert tf.data[0] == 2.0 * 2.0 - 3.0 and tf.data[-1] == 1.0       # dirichlet
    assert rf.synced and uf.synced and tf.synced


def _random_state(cells, seed):
    """A random positive state and a random positive affine trace on the
    unit box."""
    rng = np.random.default_rng(seed)
    gr = g.Grid(cells=cells)
    d = gr.dim
    c0 = rng.uniform(1.0, 3.0)
    cx, cy = rng.uniform(-0.45, 0.45, size=2)
    bc = g.affine_boundary(c0, cx, cy if d == 2 else 0.0)
    rho = rng.uniform(0.1, 5.0, size=gr.interior_shape())
    u = rng.uniform(-2.0, 2.0, size=gr.interior_shape((d,)))
    theta = rng.uniform(0.1, 5.0, size=gr.interior_shape())
    return gr, bc, rho, u, theta


def _along(data, axis, dim):
    """Padded ``data`` with ``axis`` first and the other spatial axes cut to
    the interior, so [0]/[1] are the low ghost/adjacent slabs."""
    return np.moveaxis(data, axis, 0)[(slice(None),) + (slice(1, -1),) * (dim - 1)]


_CELLS = st.lists(st.integers(4, 12), min_size=1, max_size=2).map(tuple)


@given(_CELLS, st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_ghost_fill_policies_on_random_states(cells, seed):
    gr, bc, rho, u, theta = _random_state(cells, seed)
    rf, uf, tf = g.sync_physical(gr, rho, u, theta, bc, t=0.0)
    faces = g.boundary_face_points(gr)
    for axis, (lo, hi) in enumerate((("x_lo", "x_hi"), ("y_lo", "y_hi"))[: gr.dim]):
        r = _along(rf.data, axis, gr.dim)
        assert np.array_equal(r[0], r[1]) and np.array_equal(r[-1], r[-2])
        v = _along(uf.data, axis, gr.dim)
        assert np.array_equal(v[0], -v[1]) and np.array_equal(v[-1], -v[-2])
        th = _along(tf.data, axis, gr.dim)
        for ghost, adj, side in ((th[0], th[1], lo), (th[-1], th[-2], hi)):
            trace = bc.theta(0.0, faces[side]).reshape(np.shape(ghost))
            np.testing.assert_allclose(0.5 * (ghost + adj), trace, rtol=1e-14, atol=1e-14)


@given(_CELLS, st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_summation_by_parts_on_random_states(cells, seed):
    # h*sum(phi div u) + h*sum(u . grad phi)
    #   = (phi_N u_{N+1} + phi_{N+1} u_N - phi_0 u_1 - phi_1 u_0) / 2
    # along each axis (padded indices 0..N+1), for u along that axis only
    gr, bc, rho, u, theta = _random_state(cells, seed)
    for axis in range(gr.dim):
        ua = np.zeros_like(u)
        ua[..., axis] = u[..., axis]
        _, uf, tf = g.sync_physical(gr, rho, ua, theta, bc, t=0.0)
        terms = tf.interior * g.divergence(uf) + np.sum(uf.interior * g.gradient(tf), axis=-1)
        lhs = float(g.integrate(gr, terms))
        ph = _along(tf.data, axis, gr.dim)
        v = _along(uf.data[..., axis], axis, gr.dim)
        edge = 0.5 * (ph[-2] * v[-1] + ph[-1] * v[-2] - ph[0] * v[1] - ph[1] * v[0])
        rhs = float(np.sum(edge)) * gr.cell_volume / gr.h[axis]
        scale = float(g.integrate(gr, np.abs(terms))) + abs(rhs)
        assert abs(lhs - rhs) <= 1e-13 * scale


def test_boundary_positivity_validation():
    with pytest.raises(ValueError):
        g.constant_boundary(0.0)
    gr = g.Grid(cells=(8,))
    bad = g.affine_boundary(0.5, -1.0)  # negative at x = 1
    with pytest.raises(ValueError, match="theta_B"):
        bad.validate_positive(gr)


def test_harmonic_extension_1d_linear():
    gr = g.Grid(cells=(16,))
    bc = g.affine_boundary(1.0, 0.5)
    f = g.harmonic_extension(gr, bc)
    x = gr.centers(0)
    assert np.allclose(f.interior, 1.0 + 0.5 * x, atol=1e-12)
    assert g.laplacian_residual(f) < 1e-10
    # exact discrete maximum principle
    assert f.interior.min() >= 1.0 - 1e-13
    assert f.interior.max() <= 1.5 + 1e-13


def test_harmonic_extension_2d_affine_and_max_principle():
    # the non-square grid pins the axis order of the trace evaluation and
    # the ghost fill
    for cells in ((12, 12), (6, 10)):
        gr = g.Grid(cells=cells)
        bc = g.affine_boundary(1.0, 0.3, -0.2)
        f = g.harmonic_extension(gr, bc)
        X, Y = gr.mesh()
        assert np.allclose(f.interior, 1.0 + 0.3 * X - 0.2 * Y, atol=1e-10)
        assert g.laplacian_residual(f) < 1e-10 * 1.3
        lo, hi = 1.0 - 0.2, 1.0 + 0.3
        assert f.interior.min() >= lo - 1e-12
        assert f.interior.max() <= hi + 1e-12


def test_harmonic_extension_constant_trace():
    gr = g.Grid(cells=(8, 8))
    f = g.harmonic_extension(gr, g.constant_boundary(4.0))
    assert np.allclose(f.interior, 4.0, atol=1e-12)


def test_harmonic_extension_refuses_non_affine_trace():
    # the stencil reproduces affine traces only; any other trace must fail
    # the residual check instead of being returned as an extension
    def theta(t, pts):
        return 1.0 + 0.1 * np.sin(np.pi * np.asarray(pts, dtype=float)[..., 0])

    bc = g.BoundaryData(theta=theta)
    with pytest.raises(RuntimeError, match="harmonic extension residual"):
        g.harmonic_extension(g.Grid(cells=(8, 8)), bc)


def test_boundary_face_points_cached_read_only():
    for cells in ((8,), (8, 6)):
        pts = g.boundary_face_points(g.Grid(cells=cells))
        assert g.boundary_face_points(g.Grid(cells=cells)) is pts
        with pytest.raises(TypeError):
            pts["x_lo"] = None
        for side in pts.values():
            with pytest.raises(ValueError, match="read-only"):
                side[...] = 0.0


def test_grid_points_cached_read_only():
    from nsflab.manufactured import grid_points

    for ghost in (False, True):
        pts = grid_points(g.Grid(cells=(8, 6)), ghost)
        assert grid_points(g.Grid(cells=(8, 6)), ghost) is pts
        assert pts.shape == ((10, 8, 2) if ghost else (8, 6, 2))
        with pytest.raises(ValueError, match="read-only"):
            pts[...] = 0.0


# The operator bodies and the Laplacian check as they were written per rank,
# kept as references: the one kernel per operator must agree with them to
# the last bit, signed zeros included.


def _ref_centered(data, gr, axis):
    plus = [slice(1, -1)] * gr.dim
    minus = list(plus)
    plus[axis], minus[axis] = slice(2, None), slice(0, -2)
    return (data[tuple(plus)] - data[tuple(minus)]) / (2.0 * gr.h[axis])


def _ref_gradient(f):
    out = np.empty(f.grid.interior_shape((f.grid.dim,)))
    for k in range(f.grid.dim):
        out[..., k] = _ref_centered(f.data, f.grid, k)
    return out


def _ref_grad_vector(v):
    d = v.grid.dim
    out = np.empty(v.grid.interior_shape((d, d)))
    for k in range(d):
        out[..., :, k] = _ref_centered(v.data, v.grid, k)
    return out


def _ref_divergence(v):
    acc = None
    for k in range(v.grid.dim):
        term = _ref_centered(v.data[..., k], v.grid, k)
        acc = term if acc is None else acc + term
    return acc


def _ref_tensor_divergence(T):
    d = T.grid.dim
    out = np.zeros(T.grid.interior_shape((d,)))
    for k in range(d):
        out += _ref_centered(T.data[..., :, k], T.grid, k)
    return out


def _ref_laplacian_residual(f):
    def along(axis, idx):
        sl = [slice(None)] * f.data.ndim
        sl[axis] = idx
        return tuple(sl)

    acc = None
    for axis in range(f.grid.dim):
        plus, mid, minus = along(axis, slice(2, None)), along(axis, slice(1, -1)), along(
            axis, slice(0, -2))
        term = (f.data[plus] - 2.0 * f.data[mid] + f.data[minus]) / f.grid.h[axis] ** 2
        term = term[tuple(slice(1, -1) if k != axis else slice(None) for k in range(f.grid.dim))]
        acc = term if acc is None else acc + term
    return float(np.max(np.abs(acc)))


def _with_zeros(rng, values, dim):
    """``values`` with about a third of its entries exactly 0, the first and
    last cell's among them, so an odd fill makes -0.0 ghosts."""
    values = np.where(rng.random(values.shape) < 0.3, 0.0, values)
    values[(0,) * dim] = values[(-1,) * dim] = 0.0
    return values


def _synced_fields(cells, seed):
    """Random scalar, vector and tensor fields, each synced every way that
    applies to it: (field, how) pairs."""
    gr, bc, rho, u, theta = _random_state(cells, seed)
    rng = np.random.default_rng(seed + 1)
    d = gr.dim
    rho, u = _with_zeros(rng, rho, d), _with_zeros(rng, u, d)
    tensor = _with_zeros(rng, rng.uniform(-2.0, 2.0, size=gr.interior_shape((d, d))), d)
    rf, uf, tf = g.sync_physical(gr, rho, u, theta, bc, t=0.0)
    out = [(rf, "physical rho"), (uf, "physical u"), (tf, "physical theta"),
           (g.sync_dirichlet(g.Field.from_interior(gr, rho), bc, 0.0), "dirichlet")]
    for rank, values in (("scalar", rho), ("vector", u), ("tensor", tensor)):
        out.append((g.sync_odd(g.Field.from_interior(gr, values)), f"odd {rank}"))
    return out


@pytest.mark.parametrize("cells", [(4,), (9,), (4, 4), (6, 5), (5, 8)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_operators_match_the_per_rank_bodies_bit_for_bit(cells, seed):
    assert g.grad_vector is g.gradient and g.tensor_divergence is g.divergence
    fields = _synced_fields(cells, seed)
    assert any(np.signbit(f.data[f.data == 0.0]).any() for f, _ in fields)
    for f, how in fields:
        rank = f.data.ndim - f.grid.dim
        grad = g.gradient(f)
        if rank == 0:
            assert grad.tobytes() == _ref_gradient(f).tobytes(), how
            assert (np.float64(g.laplacian_residual(f)).tobytes()
                    == np.float64(_ref_laplacian_residual(f)).tobytes()), how
        elif rank == 1:
            assert grad.tobytes() == _ref_grad_vector(f).tobytes(), how
            assert g.divergence(f).tobytes() == _ref_divergence(f).tobytes(), how
        else:
            # one kernel sums the terms as the vector body did; the tensor
            # body's zero start differed only by turning a sum of -0.0
            # terms into +0.0, which adding 0.0 does too
            assert ((g.divergence(f) + 0.0).tobytes()
                    == _ref_tensor_divergence(f).tobytes()), how
            # no per-rank body took a tensor's gradient: each component's
            # scalar gradient, the derivative axis appended
            for c in np.ndindex(f.data.shape[f.grid.dim:]):
                comp = g.Field(grid=f.grid, data=np.ascontiguousarray(f.data[(...,) + c]),
                               synced=True)
                assert grad[..., c[0], c[1], :].tobytes() == _ref_gradient(comp).tobytes(), how


@pytest.mark.parametrize("cells", [(4, 4), (6, 5), (5, 8)])
def test_every_2d_corner_equals_its_diagonal_neighbour(cells):
    for seed in range(3):
        for f, how in _synced_fields(cells, seed):
            data = f.data
            for (i, j), (k, m) in (((0, 0), (1, 1)), ((0, -1), (1, -2)),
                                   ((-1, 0), (-2, 1)), ((-1, -1), (-2, -2))):
                assert data[i, j].tobytes() == data[k, m].tobytes(), (how, i, j)


def test_only_grid_names_the_rank_specific_aliases():
    # the package and its tests call each operator by one name, gradient or
    # divergence; the aliases stay in grid for the benchmark tracer alone,
    # and this file checks that they are the operators themselves
    paths = (sorted(Path(g.__file__).parent.glob("*.py"))
             + sorted(Path(__file__).parent.glob("*.py")))
    named = [path.name for path in paths
             if path.name not in ("grid.py", "test_grid.py")
             and re.search(r"\b(grad_vector|tensor_divergence)\b", path.read_text())]
    assert named == []
