"""Grid, ghost policy, discrete operator, and harmonic-extension checks."""

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
    f = g.ScalarField.from_interior(gr, np.ones(8))
    with pytest.raises(g.StalenessError):
        g.gradient(f)


def test_gradient_exact_for_quadratic():
    gr = g.Grid(cells=(12,))
    x = gr.centers(0)
    (xg,) = gr.mesh(ghost=True)
    f = g.ScalarField(grid=gr, data=2.0 * xg**2 - xg + 1.0, synced=True)
    got = g.gradient(f)[..., 0]
    assert np.allclose(got, 4.0 * x - 1.0, atol=1e-12)


def test_operators_2d_linear_fields_exact():
    gr = g.Grid(cells=(8, 8))
    X, Y = gr.mesh(ghost=True)
    u = np.stack([2.0 * X + 3.0 * Y, -X + 0.5 * Y], axis=-1)
    uf = g.VectorField(grid=gr, data=u, synced=True)
    J = g.grad_vector(uf)
    assert np.allclose(J[..., 0, 0], 2.0, atol=1e-12)
    assert np.allclose(J[..., 0, 1], 3.0, atol=1e-12)
    assert np.allclose(J[..., 1, 0], -1.0, atol=1e-12)
    assert np.allclose(J[..., 1, 1], 0.5, atol=1e-12)
    div = g.divergence(uf)
    assert np.allclose(div, 2.5, atol=1e-12)
    T = np.stack([np.stack([X, Y], axis=-1), np.stack([X * 0, X + Y], axis=-1)], axis=-2)
    Tf = g.TensorField(grid=gr, data=T, synced=True)
    dv = g.tensor_divergence(Tf)
    assert np.allclose(dv[..., 0], 2.0, atol=1e-12)  # dT00/dx + dT01/dy
    assert np.allclose(dv[..., 1], 1.0, atol=1e-12)


def test_gradient_convergence_order():
    errs = []
    for n in (32, 64):
        gr = g.Grid(cells=(n,))
        x = gr.centers(0)
        (xg,) = gr.mesh(ghost=True)
        f = g.ScalarField(grid=gr, data=np.sin(2 * np.pi * xg), synced=True)
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
