"""Grid, ghost policy, discrete operator, and harmonic-extension checks."""

import numpy as np
import pytest

from nsflab import grid as g


def test_grid_validation():
    with pytest.raises(ValueError):
        g.Grid(cells=(3,))
    with pytest.raises(ValueError):
        g.Grid(cells=(8, 8, 8))
    with pytest.raises(ValueError):
        g.Grid(cells=(8,), lo=(1.0,), hi=(0.0,))
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
    got = g.gradient(f).interior[..., 0]
    assert np.allclose(got, 4.0 * x - 1.0, atol=1e-12)


def test_operators_2d_linear_fields_exact():
    gr = g.Grid(cells=(8, 8))
    X, Y = gr.mesh(ghost=True)
    u = np.stack([2.0 * X + 3.0 * Y, -X + 0.5 * Y], axis=-1)
    uf = g.VectorField(grid=gr, data=u, synced=True)
    J = g.grad_vector(uf).interior
    assert np.allclose(J[..., 0, 0], 2.0, atol=1e-12)
    assert np.allclose(J[..., 0, 1], 3.0, atol=1e-12)
    assert np.allclose(J[..., 1, 0], -1.0, atol=1e-12)
    assert np.allclose(J[..., 1, 1], 0.5, atol=1e-12)
    div = g.divergence(uf).interior
    assert np.allclose(div, 2.5, atol=1e-12)
    T = np.stack([np.stack([X, Y], axis=-1), np.stack([X * 0, X + Y], axis=-1)], axis=-2)
    Tf = g.TensorField(grid=gr, data=T, synced=True)
    dv = g.tensor_divergence(Tf).interior
    assert np.allclose(dv[..., 0], 2.0, atol=1e-12)  # dT00/dx + dT01/dy
    assert np.allclose(dv[..., 1], 1.0, atol=1e-12)


def test_gradient_convergence_order():
    errs = []
    for n in (32, 64):
        gr = g.Grid(cells=(n,))
        x = gr.centers(0)
        (xg,) = gr.mesh(ghost=True)
        f = g.ScalarField(grid=gr, data=np.sin(2 * np.pi * xg), synced=True)
        got = g.gradient(f).interior[..., 0]
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
    # the non-square grid pins the axis order of the assembled operator
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


def test_boundary_face_points_cached_read_only():
    for cells in ((8,), (8, 6)):
        pts = g.boundary_face_points(g.Grid(cells=cells))
        assert g.boundary_face_points(g.Grid(cells=cells, lo=(0.0,) * len(cells))) is pts
        with pytest.raises(TypeError):
            pts["x_lo"] = None
        for side in pts.values():
            with pytest.raises(ValueError, match="read-only"):
                side[...] = 0.0


def test_grid_points_cached_read_only():
    from nsflab.manufactured import grid_points

    for ghost in (False, True):
        pts = grid_points(g.Grid(cells=(8, 6)), ghost)
        assert grid_points(g.Grid(cells=(8, 6), hi=(1.0, 1.0)), ghost) is pts
        assert pts.shape == ((10, 8, 2) if ghost else (8, 6, 2))
        with pytest.raises(ValueError, match="read-only"):
            pts[...] = 0.0
