"""Tests for phase-space measures, defects, and weak-form residuals."""

import dataclasses

import numpy as np
import pytest

from nsflab import grid as gridmod
from nsflab import manufactured as mfg
from nsflab import solver, testfuns, thermo, transport, young
from nsflab.manufactured import grid_points, manufactured

MODEL = thermo.PerfectGas(c_v=1.5)
TM = transport.AffineTheta()
BND = gridmod.constant_boundary(1.0)


# --------------------------------------------------------------------------
# helpers
# --------------------------------------------------------------------------


def _const_measure(grid, times, rho=1.0, u0=0.0, theta=1.0):
    shape = (len(times),) + grid.cells + (1,)
    d = grid.dim
    u = np.zeros(shape + (d,))
    u[..., 0] = u0
    return young.AtomicYoungMeasure(
        grid=grid, times=np.asarray(times, dtype=float),
        weights=np.ones(shape), rho=np.full(shape, float(rho)),
        theta=np.full(shape, float(theta)), u=u,
        d_u=np.zeros(shape + (d, d)), d_theta=np.zeros(shape + (d,)))


def _field_measure(grid, times, u_field, rho_field=None, theta_field=None):
    """Single-atom measure with prescribed interior fields, zero gradients."""

    shape = (len(times),) + grid.cells + (1,)
    d = grid.dim
    u = np.zeros(shape + (d,))
    u[..., 0, :] = np.broadcast_to(u_field, grid.cells + (d,))
    rho = np.ones(shape) if rho_field is None else \
        np.broadcast_to(rho_field, grid.cells)[None, ..., None] * np.ones(shape)
    theta = np.ones(shape) if theta_field is None else \
        np.broadcast_to(theta_field, grid.cells)[None, ..., None] * np.ones(shape)
    return young.AtomicYoungMeasure(
        grid=grid, times=np.asarray(times, dtype=float),
        weights=np.ones(shape), rho=rho, theta=theta, u=u,
        d_u=np.zeros(shape + (d, d)), d_theta=np.zeros(shape + (d,)))


def _equilibrium_trajectory(n=32, t_end=0.02, dim=1):
    sol = manufactured("equilibrium", MODEL, TM, dim=dim)
    grid = gridmod.Grid(cells=(n,) * dim)
    cfg = solver.SolverConfig(t_end=t_end, source=sol, save_every=2)
    return solver.simulate(grid, cfg, MODEL, TM, boundary=sol.boundary), sol


def _decay_trajectory(n, t_end=0.05, save_every=4):
    grid = gridmod.Grid(cells=(n,))
    x = grid_points(grid)[..., 0]
    init = solver.FlowState(grid=grid, rho=1.0 + 0.2 * np.sin(2 * np.pi * x),
                            u=np.zeros(grid.interior_shape((1,))),
                            theta=1.0 + 0.3 * np.sin(np.pi * x), t=0.0)
    cfg = solver.SolverConfig(t_end=t_end, save_every=save_every)
    return solver.simulate(grid, cfg, MODEL, TM, boundary=BND, initial=init)


# --------------------------------------------------------------------------
# test-function families
# --------------------------------------------------------------------------


def _with_time(shapes):
    """Each shape as the two time-dependent tests the clauses pair it with,
    ``label*1`` (value f, dt 0) and ``label*t`` (value t f, dt f): (test,
    zero_trace) pairs, the reference the per-level loops below sample."""
    out = []
    for shape in shapes:
        f = shape.f
        out.append((testfuns.SpaceTimeFn(f"{shape.label}*1", lambda t, pts, f=f: f(pts),
                                         lambda t, pts, f=f: np.zeros_like(f(pts))),
                    shape.zero_trace))
        out.append((testfuns.SpaceTimeFn(f"{shape.label}*t", lambda t, pts, f=f: t * f(pts),
                                         lambda t, pts, f=f: f(pts)),
                    shape.zero_trace))
    return out


def _fd_time(fn, t, pts, h=1e-6):
    return (np.asarray(fn(t + h, pts)) - np.asarray(fn(t - h, pts))) / (2 * h)


@pytest.mark.parametrize("dim", [1, 2])
def test_testfun_derivatives_match_finite_differences(dim):
    rng = np.random.default_rng(3)
    pts = rng.uniform(0.2, 0.8, size=(40, dim))
    t = 0.37
    for test, _ in _with_time(testfuns.scalar_tests(dim) + testfuns.entropy_tests(dim)
                              + testfuns.velocity_tests(dim) + testfuns.flux_tests(dim)
                              + testfuns.tensor_tests(dim)):
        assert np.allclose(test.dt(t, pts), _fd_time(test.value, t, pts), atol=1e-6)
    for ref in testfuns.theta_refs(dim, base=(1.0, 0.2, -0.1)[: dim + 1] + (0.0,) * (2 - dim)):
        assert np.allclose(ref.dt(t, pts), _fd_time(ref.value, t, pts), atol=1e-6)


@pytest.mark.parametrize("dim", [1, 2])
def test_zero_trace_families_vanish_on_boundary(dim):
    grid = gridmod.Grid(cells=(8,) * dim)
    for shape in testfuns.velocity_tests(dim):
        assert shape.zero_trace
        for pts in gridmod.boundary_face_points(grid).values():
            assert np.max(np.abs(shape.f(pts))) < 1e-13
    for shape in testfuns.entropy_tests(dim):
        assert shape.nonnegative
        for pts in gridmod.boundary_face_points(grid).values():
            assert np.max(np.abs(shape.f(pts))) < 1e-13
        sample = shape.f(np.random.default_rng(0).uniform(0, 1, (50, dim)))
        assert np.min(sample) >= 0.0


def test_theta_refs_trace_and_positivity():
    refs = testfuns.theta_refs(1, base=(2.0, -0.5, 0.0), amps=(0.0, 0.3))
    edge = np.array([[0.0], [1.0]])
    for ref in refs:
        assert np.allclose(ref.value(0.3, edge), [2.0, 1.5], atol=1e-13)
    with pytest.raises(ValueError, match="positive"):
        testfuns.theta_refs(1, base=(0.2, 0.0, 0.0), amps=(-0.5,))
    with pytest.raises(ValueError, match="positive"):
        testfuns.theta_refs(1, base=(-1.0, 0.0, 0.0), amps=(0.0,))


# --------------------------------------------------------------------------
# measure types and expectation
# --------------------------------------------------------------------------


# family -> dim -> (label, zero_trace, nonnegative) of each shape, in order
FAMILY_SHAPES = {
    "scalar_tests": {
        1: [("one", False, False), ("x", False, False), ("x2", False, False),
            ("sin_pix", False, False), ("cos_pix", False, False)],
        2: [("one", False, False), ("x", False, False), ("y", False, False),
            ("xy", False, False), ("sin_pix_cos_piy", False, False)],
    },
    "entropy_tests": {
        1: [("sin2_pix", False, True), ("bump4", False, True)],
        2: [("sin2_pix_sin2_piy", False, True), ("bump4_xy", False, True)],
    },
    "velocity_tests": {
        1: [("sin_pix", True, False), ("sin_2pix", True, False), ("parab", True, False)],
        2: [("sinsin_ex", True, False), ("sinsin_ey", True, False), ("swirl", True, False)],
    },
    "flux_tests": {
        1: [("e1", False, False), ("x_e1", False, False), ("sin_pix_e1", False, False),
            ("cos_pix_e1", False, False)],
        2: [("e1", False, False), ("e2", False, False), ("radial", False, False),
            ("trig", False, False)],
    },
    "tensor_tests": {
        1: [("id", False, False), ("x", False, False), ("sin_pix", False, False),
            ("cos_2pix", False, False)],
        2: [("id", False, False), ("diag_xy", False, False), ("offdiag", False, False),
            ("trig", False, False)],
    },
}


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("family", sorted(FAMILY_SHAPES))
def test_family_labels_and_flags_are_pinned(family, dim):
    shapes = getattr(testfuns, family)(dim)
    assert [(s.label, s.zero_trace, s.nonnegative) for s in shapes] \
        == FAMILY_SHAPES[family][dim]


def test_phase_atom_validation():
    times = np.array([0.0])
    grid2 = gridmod.Grid(cells=(4, 4))
    shape2 = (1,) + grid2.cells + (1,)
    skew = np.zeros(shape2 + (2, 2))
    skew[..., 0, 1] = 1.0
    with pytest.raises(ValueError, match="symmetric"):
        young.AtomicYoungMeasure(
            grid=grid2, times=times, weights=np.ones(shape2), rho=np.ones(shape2),
            theta=np.ones(shape2), u=np.zeros(shape2 + (2,)), d_u=skew,
            d_theta=np.zeros(shape2 + (2,)))
    grid = gridmod.Grid(cells=(8,))
    shape = (1,) + grid.cells + (2,)
    good = dict(grid=grid, times=times, weights=np.full(shape, 0.5),
                theta=np.ones(shape), u=np.zeros(shape + (1,)),
                d_u=np.zeros(shape + (1, 1)), d_theta=np.zeros(shape + (1,)))
    with pytest.raises(ValueError, match="rho >= 0"):
        young.AtomicYoungMeasure(rho=-np.ones(shape), **good)
    nan_rho = np.ones(shape)
    nan_rho[0, 3, 1] = np.nan
    with pytest.raises(ValueError, match="finite"):
        young.AtomicYoungMeasure(rho=nan_rho, **good)


def test_measure_weight_validation():
    grid = gridmod.Grid(cells=(8,))
    times = np.array([0.0])
    shape = (1,) + grid.cells + (2,)
    good = dict(grid=grid, times=times, rho=np.ones(shape),
                theta=np.ones(shape), u=np.zeros(shape + (1,)),
                d_u=np.zeros(shape + (1, 1)), d_theta=np.zeros(shape + (1,)))
    with pytest.raises(ValueError, match="sum to 1"):
        young.AtomicYoungMeasure(weights=np.full(shape, 0.6), **good)
    w = np.full(shape, 0.5)
    w[0, 0, 0] = -0.5
    w[0, 0, 1] = 1.5
    with pytest.raises(ValueError, match="positive"):
        young.AtomicYoungMeasure(weights=w, **good)


def test_strong_dirac_evaluates_the_solution_once_per_level(monkeypatch):
    calls = []
    fields = mfg._fields
    monkeypatch.setattr(mfg, "_fields", lambda *a: calls.append(1) or fields(*a))
    sol = manufactured("shear", MODEL, TM)
    grid = gridmod.Grid(cells=(64,))
    times = np.linspace(0.0, 0.25, 26)
    V = young.dirac_from_strong(sol, grid, times)
    assert len(calls) == 26
    # the reference: each field stacked over the times in turn
    pts = grid_points(grid)
    want = [np.stack([fn(t, pts) for t in times])
            for fn in (sol.rho, sol.u, sol.theta,
                       lambda t, p: transport.sym_part(sol.grad_u(t, p)), sol.grad_theta)]
    got = [V.rho[..., 0], V.u[..., 0, :], V.theta[..., 0], V.d_u[..., 0, :, :],
           V.d_theta[..., 0, :]]
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.tobytes() == w.tobytes()
    assert V.weights.tobytes() == np.ones_like(V.rho).tobytes()
    assert V.times.tobytes() == times.tobytes()


def test_dirac_expectation_matches_fields():
    traj, _ = _equilibrium_trajectory()
    V = young.dirac_from_trajectory(traj)
    assert V.weights.shape[-1] == 1
    assert np.all(V.weights == 1.0)
    rho_mean = young.expect(V, V.rho)
    assert np.array_equal(rho_mean, traj.rho)
    u_sq = young.expect(V, np.sum(V.u * V.u, axis=-1))
    assert np.allclose(u_sq, np.sum(traj.u ** 2, axis=-1))


def test_mix_mean_jensen_and_associativity():
    grid = gridmod.Grid(cells=(8,))
    times = [0.0, 0.1]
    v1 = _const_measure(grid, times, rho=1.0)
    v3 = _const_measure(grid, times, rho=3.0)
    mixed = young.mix([v1, v3], [0.5, 0.5])
    mean = young.expect(mixed, mixed.rho)
    assert np.allclose(mean, 2.0)
    second = young.expect(mixed, mixed.rho ** 2)
    assert np.allclose(second, 5.0)
    assert np.min(second - mean ** 2) > 0.9  # strict Jensen gap for r^2
    single = young.mix([v1], [1.0])
    assert np.allclose(young.expect(single, single.rho), 1.0)
    nested = young.mix([young.mix([v1, v3], [0.5, 0.5]), v3], [0.5, 0.5])
    flat = young.mix([v1, v3], [0.25, 0.75])
    for power in (1, 2):
        assert np.allclose(young.expect(nested, nested.rho ** power),
                           young.expect(flat, flat.rho ** power))
    with pytest.raises(ValueError, match="sum to 1"):
        young.mix([v1, v3], [0.7, 0.7])


def test_expect_monotone_and_linear():
    grid = gridmod.Grid(cells=(8,))
    mixed = young.mix([_const_measure(grid, [0.0], rho=1.0, u0=0.5),
                       _const_measure(grid, [0.0], rho=2.0, u0=-1.0)],
                      [0.3, 0.7])
    r, u = mixed.rho, mixed.u[..., 0]
    f = young.expect(mixed, r)
    g = young.expect(mixed, r + np.abs(u))
    assert np.all(f <= g + 1e-15)
    lin = young.expect(mixed, 2.0 * r + 3.0 * u)
    u_mean = young.expect(mixed, u)
    assert np.allclose(lin, 2.0 * f + 3.0 * u_mean)


def test_expect_rejects_nonfinite_with_witness():
    grid = gridmod.Grid(cells=(8,))
    V = _const_measure(grid, [0.0], rho=0.0, theta=1.0)
    with pytest.raises(ValueError, match="non-finite") as err:
        with np.errstate(divide="ignore"):
            young.expect(V, 1.0 / V.rho)
    assert "rho=0.0" in str(err.value)


def test_expect_rejects_values_off_the_atom_layout():
    V = _const_measure(gridmod.Grid(cells=(8,)), [0.0, 0.1])
    with pytest.raises(ValueError, match="atom layout"):
        young.expect(V, V.rho[0])


# --------------------------------------------------------------------------
# clause residuals
# --------------------------------------------------------------------------


@pytest.mark.parametrize("dim", [1, 2])
def test_equilibrium_dirac_all_clauses_round_off(dim):
    traj, sol = _equilibrium_trajectory(n=32 if dim == 1 else 12, dim=dim)
    V = young.dirac_from_trajectory(traj)
    ref = testfuns.theta_refs(dim, amps=(0.0,))[0]
    assert young.check_velocity_compat(V, testfuns.tensor_tests(dim)).max_abs <= 1e-10
    tc = young.check_temperature_compat(V, testfuns.flux_tests(dim), ref, sol.boundary)
    assert tc.max_abs <= 1e-10
    assert np.max(np.abs(tc.extras["as_written"])) <= 1e-10
    assert young.continuity_residual(V, testfuns.scalar_tests(dim),
                                     source=sol).max_abs <= 1e-10
    assert young.momentum_residual(V, testfuns.velocity_tests(dim), MODEL, TM,
                                   source=sol).max_abs <= 1e-10
    ent = young.entropy_mv_residual(V, testfuns.entropy_tests(dim), MODEL, TM)
    assert ent.max_abs <= 1e-10
    ball = young.ballistic_mv_residual(V, 0.0, ref, MODEL, TM, sol.boundary)
    assert ball.max_abs <= 1e-10


def test_temperature_compat_embeds_the_reference_once_per_level():
    traj, sol = _equilibrium_trajectory(n=8, dim=2)
    V = young.dirac_from_trajectory(traj)
    ref = testfuns.theta_refs(2, amps=(0.0,))[0]
    calls = {"value": [], "dt": []}

    def counting(name):
        def fn(t, pts):
            calls[name].append(t)
            return getattr(ref, name)(t, pts)
        return fn

    counted = testfuns.SpaceTimeFn(label=ref.label, value=counting("value"),
                                   dt=counting("dt"))
    psis = testfuns.flux_tests(2)
    rep = young.check_temperature_compat(V, psis, counted, sol.boundary)
    assert len(rep.residuals) == 2 * len(psis) > 2
    assert calls == {"value": list(V.times), "dt": []}
    calls["value"].clear()
    ball = young.ballistic_mv_residual(V, 0.0, counted, MODEL, TM, sol.boundary)
    assert len(ball.residuals) == V.n_levels > 1
    assert calls == {"value": list(V.times), "dt": list(V.times)}


def test_strong_dirac_residuals_decay_second_order():
    sol = manufactured("shear", MODEL, TM)
    ref = testfuns.theta_refs(1, amps=(0.0,))[0]

    def residuals(n, n_times):
        grid = gridmod.Grid(cells=(n,))
        V = young.dirac_from_strong(sol, grid, np.linspace(0.0, 0.05, n_times))
        tc = young.check_temperature_compat(V, testfuns.flux_tests(1), ref, sol.boundary)
        return {
            "vc": young.check_velocity_compat(V, testfuns.tensor_tests(1)).max_abs,
            "tc": tc.max_abs,
            "tc_aw": float(np.max(np.abs(tc.extras["as_written"]))),
            "cont": young.continuity_residual(V, testfuns.scalar_tests(1),
                                              source=sol).max_abs,
            "mom": young.momentum_residual(V, testfuns.velocity_tests(1), MODEL,
                                           TM, source=sol).max_abs,
        }

    coarse, fine = residuals(32, 9), residuals(64, 17)
    for key in ("vc", "tc", "cont", "mom"):
        order = np.log2(coarse[key] / fine[key])
        assert order > 1.5, f"{key}: order {order}"
    # the sign variant written with + on the gradient pairing does not decay
    assert coarse["tc_aw"] > 100.0 * coarse["tc"]
    assert fine["tc_aw"] > 0.5 * coarse["tc_aw"]


def _ii(grid, a, b):
    """II a.b by the midpoint rule, every component axis contracted."""
    prod = np.asarray(a, dtype=float) * np.asarray(b, dtype=float)
    return float(gridmod.integrate(grid, prod.reshape(grid.cells + (-1,)).sum(axis=-1)))


def _loop(V, tests, derivative, pairs):
    """(tests, levels) sums of II level_k . part(test at t_k) over ``pairs`` of
    (per-level array, part): the loop the clauses replaced, which samples
    every test of :func:`_with_time` at every level."""
    g, pts = V.grid, grid_points(V.grid)
    out = np.zeros((len(tests), V.n_levels))
    for i, (test, zero_trace) in enumerate(tests):
        for k, t in enumerate(V.times):
            if zero_trace:
                f = gridmod.sync_odd(gridmod.Field.from_interior(g, test.value(t, pts)))
            else:
                f = gridmod.Field(grid=g, data=np.asarray(
                    test.value(t, grid_points(g, ghost=True)), dtype=float), synced=True)
            parts = {"value": f.interior, "derivative": derivative(f), "dt": test.dt(t, pts)}
            out[i, k] = sum(_ii(g, levels[k], parts[part]) for levels, part in pairs)
    return out


@pytest.mark.parametrize("dim", [1, 2])
def test_clauses_match_the_per_level_loop(dim):
    # a two-atom measure on uneven levels that do not start at 0, with a
    # forcing and a matrix defect; the contractions sum in another order,
    # so the loop's residuals are matched to rounding
    if dim == 1:
        model, tm, sol = MODEL, TM, manufactured("shear", MODEL, TM)
    else:
        model, tm = thermo.MolecularRadiation(a=1.0), transport.PowerKappa()
        sol = manufactured("radiative_decay", model, tm)
    grid = gridmod.Grid(cells=(16,) if dim == 1 else (8, 8))
    times = np.array([0.01, 0.02, 0.035, 0.05])
    one = young.dirac_from_strong(sol, grid, times)
    V = young.mix([one, dataclasses.replace(one, u=-0.5 * one.u, theta=1.1 * one.theta)],
                  [0.3, 0.7])
    E = lambda vals: young.expect(V, vals)  # noqa: E731
    pts = grid_points(grid)
    per_level = lambda fn: np.stack([fn(t, pts) for t in times])  # noqa: E731
    close = dict(rtol=1e-10, atol=1e-12)

    def balance(tests, derivative, density, *bulk):
        held = _loop(V, tests, derivative, [(density, "value")])
        rates = _loop(V, tests, derivative, [(density, "dt"), *bulk])
        return held[:, -1] - held[:, 0] - np.trapezoid(rates, times)

    psis = testfuns.scalar_tests(dim)
    np.testing.assert_allclose(
        young.continuity_residual(V, psis, source=sol).residuals,
        balance(_with_time(psis), gridmod.gradient, E(V.rho),
                (E(V.rho[..., None] * V.u), "derivative"), (per_level(sol.f_mass), "value")),
        **close)

    phis = testfuns.velocity_tests(dim)
    r_m = 0.01 * np.ones((len(times),) + grid.interior_shape((dim, dim)))
    defects = young.DefectBundle(grid=grid, times=times, r_m=r_m,
                                 d_diss=np.zeros(4), xi=np.zeros(4))
    stress = (E(V.rho[..., None, None] * V.u[..., :, None] * V.u[..., None, :])
              + E(model.p(V.rho, V.theta))[..., None, None] * np.eye(dim)
              - E(transport.viscous_stress(tm, V.rho, V.theta, V.d_u)) + r_m)
    np.testing.assert_allclose(
        young.momentum_residual(V, phis, model, tm, defects=defects, source=sol).residuals,
        balance(_with_time(phis), gridmod.gradient,
                E(V.rho[..., None] * V.u),
                (stress, "derivative"), (per_level(sol.f_mom), "value")),
        **close)

    ents = testfuns.entropy_tests(dim)
    rho_s = model.rho_s(V.rho, V.theta)
    flux = E(rho_s[..., None] * V.u
             - (tm.kappa(V.rho, V.theta) / V.theta)[..., None] * V.d_theta)
    sigma = E(transport.entropy_production_density(tm, V.rho, V.theta, V.d_u, V.d_theta))
    np.testing.assert_allclose(
        young.entropy_mv_residual(V, ents, model, tm).residuals,
        balance(_with_time(ents), gridmod.gradient, E(rho_s),
                (flux, "derivative"), (sigma, "value")),
        **close)

    tensors = testfuns.tensor_tests(dim)
    inner = _loop(V, _with_time(tensors), gridmod.divergence,
                  [(-E(V.u), "derivative"), (-E(V.d_u), "value")])
    np.testing.assert_allclose(young.check_velocity_compat(V, tensors).residuals,
                               np.trapezoid(inner, times), **close)

    ref = testfuns.theta_ref_from_strong(sol)
    ref_vals = per_level(ref.value)
    grad_ref = np.stack([gridmod.gradient(gridmod.sync_dirichlet(
        gridmod.Field.from_interior(grid, r), sol.boundary, t))
        for t, r in zip(times, ref_vals)])
    flux_tests = testfuns.flux_tests(dim)
    a = _loop(V, _with_time(flux_tests), gridmod.divergence,
              [(E(V.theta) - ref_vals, "derivative")])
    b = _loop(V, _with_time(flux_tests), gridmod.divergence,
              [(E(V.d_theta) - grad_ref, "value")])
    tc = young.check_temperature_compat(V, flux_tests, ref, sol.boundary)
    np.testing.assert_allclose(tc.residuals, np.trapezoid(-a - b, times), **close)
    np.testing.assert_allclose(tc.extras["as_written"], np.trapezoid(-a + b, times), **close)

    # the ballistic slack at level k, its time integral taken over levels 0..k
    d_diss = np.array([0.0, 1e-4, 2e-4, 3e-4])
    energy = E(0.5 * V.rho * np.sum(V.u * V.u, axis=-1) + model.rho_e(V.rho, V.theta))
    ball = np.array([_ii(grid, energy[k] - ref_vals[k] * E(rho_s)[k], 1.0) for k in range(4)])
    rates = np.array([_ii(grid, sigma[k], ref_vals[k])
                      + _ii(grid, E(rho_s)[k], ref.dt(t, pts))
                      + _ii(grid, flux[k], grad_ref[k]) for k, t in enumerate(times)])
    slack = [ball[0] - ball[k] - d_diss[k] - np.trapezoid(rates[:k + 1], times[:k + 1])
             for k in range(4)]
    np.testing.assert_allclose(
        young.ballistic_mv_residual(V, d_diss, ref, model, tm, sol.boundary).residuals,
        slack, **close)


def test_temperature_compat_matching_reference_is_zero():
    model = MODEL
    sol = manufactured("conduction", model, transport.PowerKappa(kappa2=0.0))
    grid = gridmod.Grid(cells=(24,))
    V = young.dirac_from_strong(sol, grid, [0.0, 0.3])
    ref = testfuns.theta_ref_from_strong(sol)
    rep = young.check_temperature_compat(V, testfuns.flux_tests(1), ref, sol.boundary)
    assert rep.max_abs <= 1e-12
    assert np.max(np.abs(rep.extras["as_written"])) <= 1e-12


def test_velocity_compat_zero_tensor_and_corruption():
    sol = manufactured("shear", MODEL, TM)
    grid = gridmod.Grid(cells=(32,))
    V = young.dirac_from_strong(sol, grid, np.linspace(0.0, 0.05, 9))
    zero = testfuns.Shape(label="zero", f=lambda p: np.zeros(p.shape[:-1] + (1, 1)))
    assert young.check_velocity_compat(V, [zero]).max_abs == 0.0
    honest = young.check_velocity_compat(V, testfuns.tensor_tests(1)).max_abs
    corrupted = young.AtomicYoungMeasure(
        grid=V.grid, times=V.times, weights=V.weights, rho=V.rho, u=V.u,
        theta=V.theta, d_u=V.d_u + 0.5 * np.eye(1), d_theta=V.d_theta)
    flagged = young.check_velocity_compat(corrupted, testfuns.tensor_tests(1)).max_abs
    assert honest < 1e-4
    assert flagged > 1e-3
    assert flagged > 20.0 * honest


def test_asymmetric_tensor_rejected():
    grid = gridmod.Grid(cells=(8, 8))
    V = _const_measure(grid, [0.0])
    skew = testfuns.Shape(
        label="skew",
        f=lambda p: np.broadcast_to(np.array([[0.0, 1.0], [-1.0, 0.0]]), p.shape[:-1] + (2, 2)))
    with pytest.raises(ValueError, match="symmetric"):
        young.check_velocity_compat(V, [skew])


def test_momentum_requires_zero_trace_tests():
    grid = gridmod.Grid(cells=(8,))
    V = _const_measure(grid, [0.0, 0.1])
    with pytest.raises(ValueError, match="vanish on the boundary"):
        young.momentum_residual(V, testfuns.flux_tests(1), MODEL, TM)


def test_momentum_defect_pairing_restores_oscillation_flux():
    grid = gridmod.Grid(cells=(32,))
    times = np.array([0.0, 0.02, 0.04])
    x = grid_points(grid)[..., 0]
    v = np.sin(np.pi * x)
    osc = young.mix([_field_measure(grid, times, v[..., None]),
                     _field_measure(grid, times, -v[..., None])], [0.5, 0.5])
    bary = _field_measure(grid, times, 0.0 * v[..., None])
    assert np.max(np.abs(young.expect(osc, osc.rho[..., None] * osc.u))) == 0.0
    phis = testfuns.velocity_tests(1)
    r_m = np.zeros((3,) + grid.cells + (1, 1))
    r_m[..., 0, 0] = v ** 2  # Reynolds stress of the +/- v mixture at rho = 1
    reynolds = young.DefectBundle(grid=grid, times=times, r_m=r_m,
                                  d_diss=np.zeros(3), xi=np.zeros(3))
    res_osc = young.momentum_residual(osc, phis, MODEL, TM)
    res_bary = young.momentum_residual(bary, phis, MODEL, TM, defects=reynolds)
    assert res_osc.max_abs > 1e-3
    assert np.max(np.abs(res_osc.residuals - res_bary.residuals)) <= 1e-13
    # a bundle matches the measure's levels as tightly as mix matches measures
    drifted = young.DefectBundle(grid=grid, times=times + [0.0, 5e-7, 0.0], r_m=r_m,
                                 d_diss=np.zeros(3), xi=np.zeros(3))
    with pytest.raises(ValueError, match="time levels"):
        young.momentum_residual(bary, phis, MODEL, TM, defects=drifted)
    with pytest.raises(ValueError, match="time levels"):
        young.mix([bary, _field_measure(grid, drifted.times, 0.0 * v[..., None])],
                  [0.5, 0.5])


def test_entropy_residual_decay_run_lower_bound():
    residuals = {}
    for n in (32, 64):
        traj = _decay_trajectory(n)
        V = young.dirac_from_trajectory(traj)
        rep = young.entropy_mv_residual(V, testfuns.entropy_tests(1), MODEL, TM)
        residuals[n] = float(np.min(rep.residuals))
    c_cal = max(1.0, 4.0 * abs(min(residuals[32], 0.0)) * 32)
    assert residuals[64] >= -c_cal / 64


def test_entropy_rejects_sign_violating_tests():
    grid = gridmod.Grid(cells=(8,))
    V = _const_measure(grid, [0.0, 0.1])
    # refused by its flag, and, flagged, by its samples
    for flagged in (False, True):
        bad = testfuns.Shape(label="negative", f=lambda p: -np.ones(p.shape[:-1]),
                             nonnegative=flagged)
        with pytest.raises(ValueError, match="'negative' must be nonnegative"):
            young.entropy_mv_residual(V, [bad], MODEL, TM)


def test_ballistic_threshold_scan():
    traj = _decay_trajectory(32)
    V = young.dirac_from_trajectory(traj)
    ref = testfuns.theta_refs(1, amps=(0.0,))[0]
    base = young.ballistic_mv_residual(V, 0.0, ref, MODEL, TM, BND)
    assert np.min(base.residuals) >= -1e-12
    s_final = base.residuals[-1]
    assert s_final > 0.0  # the scheme dissipates, leaving room for a defect
    d_ok = np.zeros(V.n_levels)
    d_ok[-1] = 0.5 * s_final
    d_too_big = np.zeros(V.n_levels)
    d_too_big[-1] = 2.0 * s_final
    assert young.ballistic_mv_residual(V, d_ok, ref, MODEL, TM, BND).residuals[-1] >= 0.0
    assert young.ballistic_mv_residual(V, d_too_big, ref, MODEL, TM, BND).residuals[-1] < 0.0
    with pytest.raises(ValueError, match="nonnegative"):
        young.ballistic_mv_residual(V, -1.0, ref, MODEL, TM, BND)


def test_ballistic_refuses_a_mis_sized_dissipation_defect():
    V = _const_measure(gridmod.Grid(cells=(8,)), [0.0, 0.1, 0.2])
    ref = testfuns.theta_refs(1, amps=(0.0,))[0]
    with pytest.raises(ValueError, match="d_diss has 2 values for 3 time levels"):
        young.ballistic_mv_residual(V, np.zeros(2), ref, MODEL, TM, BND)
    per_level = young.ballistic_mv_residual(V, np.zeros(3), ref, MODEL, TM, BND)
    assert np.array_equal(per_level.residuals,
                          young.ballistic_mv_residual(V, 0.0, ref, MODEL, TM, BND).residuals)


def test_initial_energy_vacuum_and_mixture():
    # the ballistic clause's energy at the first level is the initial energy
    grid = gridmod.Grid(cells=(8,))
    ref = testfuns.theta_refs(1, amps=(0.0,))[0]

    def initial_energy(V):
        rep = young.ballistic_mv_residual(V, 0.0, ref, MODEL, TM, BND)
        return rep.extras["ballistic"][0]

    vac = _const_measure(grid, [0.0], rho=0.0, u0=5.0, theta=1.0)
    assert initial_energy(vac) == pytest.approx(0.0)  # vacuum: no kinetic blowup
    v1 = _const_measure(grid, [0.0], rho=1.0)
    v3 = _const_measure(grid, [0.0], rho=3.0)
    mixed = young.mix([v1, v3], [0.5, 0.5])
    assert initial_energy(mixed) == pytest.approx(
        0.5 * initial_energy(v1) + 0.5 * initial_energy(v3), rel=1e-12)


# --------------------------------------------------------------------------
# defect bundle, compatibility, and refinement estimates
# --------------------------------------------------------------------------


def test_defect_bundle_validation():
    grid = gridmod.Grid(cells=(8,))
    times = np.array([0.0, 0.1])
    shape = (2,) + grid.cells + (1, 1)
    with pytest.raises(ValueError, match="nonnegative"):
        young.DefectBundle(grid=grid, times=times, r_m=np.zeros(shape),
                           d_diss=np.array([0.0, -1.0]), xi=np.zeros(2))
    with pytest.raises(ValueError, match="nonnegative"):
        young.DefectBundle(grid=grid, times=times, r_m=np.zeros(shape),
                           d_diss=np.zeros(2), xi=np.array([-1.0, 0.0]))
    with pytest.raises(ValueError, match="shape"):
        young.DefectBundle(grid=grid, times=times, r_m=np.zeros((2, 8)),
                           d_diss=np.zeros(2), xi=np.zeros(2))


def test_defect_compat_zero_and_forced_violation():
    grid = gridmod.Grid(cells=(32,))
    times = np.array([0.0, 0.1])
    phis = testfuns.velocity_tests(1)
    zero = young.DefectBundle(grid=grid, times=times,
                              r_m=np.zeros((2,) + grid.cells + (1, 1)),
                              d_diss=np.array([2.0, 3.0]), xi=np.array([0.5, 7.0]))
    assert young.defect_compat_check(zero, phis).ok
    x = grid_points(grid)[..., 0]
    r_bad = np.zeros((2,) + grid.cells + (1, 1))
    r_bad[..., 0, 0] = 0.01 * x
    bad = young.DefectBundle(grid=grid, times=times, r_m=r_bad,
                             d_diss=np.zeros(2), xi=np.zeros(2))
    rep = young.defect_compat_check(bad, phis)
    assert not rep.ok
    assert rep.violations
    assert rep.worst_margin < 0.0


def _synthetic_oscillation(n, eps):
    grid = gridmod.Grid(cells=(n,))
    x = grid_points(grid)[..., 0]
    u = np.zeros(grid.interior_shape((1,)))
    u[..., 0] = np.sin(x / eps) * np.sin(np.pi * x)
    return solver.Trajectory(grid=grid, times=np.array([0.0]),
                             rho=(1.0 + 0.05 * np.sin(2 * np.pi * x))[None],
                             u=u[None],
                             theta=(1.0 + 0.1 * np.sin(np.pi * x))[None],
                             model=MODEL, transport_model=TM, boundary=BND,
                             cfg=solver.SolverConfig(t_end=1.0))


def test_defect_from_refinement_smooth_family_vanishes():
    refs = testfuns.theta_refs(1, base=(1.0, 0.0, 0.0), amps=(0.0, 0.15, -0.1))

    def ladder(n_fine, n_coarse):
        fine = _decay_trajectory(n_fine, t_end=0.02, save_every=1000)
        bundle, report = young.defect_from_refinement(
            fine, gridmod.Grid(cells=(n_coarse,)), refs)
        # level k of the bundle is level k of the fine run
        np.testing.assert_array_equal(bundle.times, fine.times)
        return bundle, report

    b_coarse, rep_coarse = ladder(64, 16)
    b_fine, rep_fine = ladder(128, 32)
    assert b_coarse.grid.cells == (16,) and b_fine.grid.cells == (32,)
    assert np.all(b_coarse.d_diss >= 0.0)
    assert rep_coarse.d_min_raw >= -1e-9  # Jensen gap stays nonnegative
    assert rep_fine.d_min_raw >= -1e-9
    # halving the mesoscale cell shrinks the smooth-family defect by >= 2x
    assert np.max(b_fine.d_diss) < 0.5 * np.max(b_coarse.d_diss)


def test_defect_from_refinement_oscillation_oracle():
    eps = 0.005
    fine = _synthetic_oscillation(512, eps)
    refs = testfuns.theta_refs(1, base=(1.0, 0.0, 0.0), amps=(0.0, 0.15, -0.1))
    bundle, report = young.defect_from_refinement(fine, gridmod.Grid(cells=(16,)), refs)
    # mean of sin^2 over fast oscillation is 1/2: kinetic defect = rho*env^2/4
    x = np.linspace(0.0, 1.0, 200001)
    target = 0.25 * np.trapezoid((1.0 + 0.05 * np.sin(2 * np.pi * x))
                                 * np.sin(np.pi * x) ** 2, x)
    assert bundle.d_diss[0] == pytest.approx(target, rel=0.05)
    assert report.theta_spread <= 0.05
    assert report.d_min_raw >= -1e-9
    assert bundle.xi[0] == pytest.approx(2.0, rel=0.05)
    # constructed bundle satisfies the compatibility bound by calibration
    assert young.defect_compat_check(bundle, testfuns.velocity_tests(1)).ok


def test_defect_from_refinement_input_validation():
    fine = _synthetic_oscillation(32, 0.01)
    with pytest.raises(ValueError, match="incompatible grids.*domain"):
        young.defect_from_refinement(fine, gridmod.Grid(cells=(16, 16)))
    with pytest.raises(ValueError, match="incompatible grids.*multiples"):
        young.defect_from_refinement(fine, gridmod.Grid(cells=(24,)))



def _block_mean(a, factors):
    """Means over blocks of shape ``factors``; trailing axes pass through."""
    shape = []
    for n, f in zip(a.shape, factors):
        shape += [n // f, f]
    axes = tuple(range(1, 2 * len(factors), 2))
    return a.reshape(tuple(shape) + a.shape[len(factors):]).mean(axis=axes)


def _refinement_loop(fine, coarse, theta_refs):
    """The level-by-level coarse-graining ``defect_from_refinement``
    replaced: one level of the fine run at a time, as (bundle, report)."""
    g, d, model = fine.grid, coarse.dim, fine.model
    factors = tuple(cf // cc for cf, cc in zip(g.cells, coarse.cells))
    times = np.asarray(fine.times, dtype=float)
    n_t = len(times)
    r_m = np.zeros((n_t,) + coarse.interior_shape((d, d)))
    d_diss, rm_tot = np.zeros(n_t), np.zeros(n_t)
    ref_gaps = np.zeros((max(len(theta_refs), 1), n_t))
    d_min_raw = np.inf
    for k, t in enumerate(times):
        rho, u, th = fine.rho[k], fine.u[k], fine.theta[k]
        eos = model.partials(rho, th, ("rho_s", "rho_e", "p"))
        energy = 0.5 * rho * np.sum(u * u, axis=-1) + eos["rho_e"]
        rho_bar = _block_mean(rho, factors)
        rs_bar = _block_mean(eos["rho_s"], factors)
        th_bar = thermo.invert_entropy(model, rho_bar, rs_bar / rho_bar)
        u_bar = _block_mean(rho[..., None] * u, factors) / rho_bar[..., None]
        bar = model.partials(rho_bar, th_bar, ("rho_e", "p"))
        e_bar = 0.5 * rho_bar * np.sum(u_bar * u_bar, axis=-1) + bar["rho_e"]
        gap = _block_mean(energy, factors) - e_bar
        d_min_raw = min(d_min_raw, float(np.min(gap)))
        d_diss[k] = float(gridmod.integrate(coarse, np.maximum(gap, 0.0)))
        conv = rho[..., None, None] * u[..., :, None] * u[..., None, :]
        flux_avg = (_block_mean(conv, factors)
                    + _block_mean(eos["p"], factors)[..., None, None] * np.eye(d))
        flux_bar = (rho_bar[..., None, None] * u_bar[..., :, None] * u_bar[..., None, :]
                    + bar["p"][..., None, None] * np.eye(d))
        r_m[k] = flux_avg - flux_bar
        rm_tot[k] = float(gridmod.integrate(coarse, np.sqrt(np.sum(r_m[k] ** 2, axis=(-2, -1)))))
        for ri, ref in enumerate(theta_refs):
            ref_fine = ref.value(float(t), grid_points(g))
            ref_coarse = ref.value(float(t), grid_points(coarse))
            ball_avg = _block_mean(energy - ref_fine * eos["rho_s"], factors)
            ref_gaps[ri, k] = float(gridmod.integrate(
                coarse, np.maximum(ball_avg - (e_bar - ref_coarse * rs_bar), 0.0)))
    floor = 1e-14 * (1.0 + np.max(d_diss))
    xi = np.where(rm_tot <= floor, 0.0, rm_tot / np.maximum(d_diss, 1e-300))
    spread = 0.0
    live = d_diss > floor
    if theta_refs and np.any(live):
        spread = float(np.max(np.abs(ref_gaps[:, live] - d_diss[live])
                              / np.maximum(d_diss, 1e-300)[live]))
    return (young.DefectBundle(grid=coarse, times=times, r_m=r_m, d_diss=d_diss, xi=xi),
            young.RefinementReport(theta_spread=spread, d_min_raw=float(d_min_raw)))


def _compat_loop(bundle, tests):
    """The per-(test x level) bound ``defect_compat_check`` replaced, which
    samples every test of :func:`_with_time` at every level: (worst margin,
    violations)."""
    g, pts = bundle.grid, grid_points(bundle.grid)
    worst, violations = np.inf, []
    for test, _ in tests:
        for k, t in enumerate(bundle.times):
            phi = test.value(float(t), pts)
            grad_phi = gridmod.gradient(gridmod.sync_odd(
                gridmod.Field.from_interior(g, phi)))
            pairing = abs(float(gridmod.integrate(
                g, np.einsum("...jk,...jk->...", bundle.r_m[k], grad_phi))))
            c1_norm = max(float(np.max(np.linalg.norm(phi, axis=-1))),
                          float(np.max(np.sqrt(np.sum(grad_phi ** 2, axis=(-2, -1))))))
            bound = float(bundle.xi[k] * bundle.d_diss[k]) * c1_norm
            margin = bound + 1e-12 * (1.0 + bound) - pairing
            worst = min(worst, margin)
            if margin < 0.0:
                violations.append((test.label, k, pairing, bound))
    return worst, violations


def _radiative_run():
    model, tm = thermo.MolecularRadiation(a=1.0), transport.PowerKappa()
    sol = manufactured("radiative_decay", model, tm)
    cfg = solver.SolverConfig(t_end=0.01, save_every=3, source=sol)
    return solver.simulate(gridmod.Grid(cells=(16, 16)), cfg, model, tm, boundary=sol.boundary)


@pytest.mark.parametrize("dim", [1, 2])
def test_defects_match_the_per_level_loop(dim):
    # multi-level runs, with theta references, coarse-grained onto two grids:
    # the whole-array bundle and report are the loop's bit for bit, and the
    # bound is checked as the loop checks it, the pairings summed in another
    # order
    if dim == 1:
        fine, coarse = _decay_trajectory(64, t_end=0.02, save_every=4), [(16,), (32,)]
    else:
        fine, coarse = _radiative_run(), [(4, 4), (8, 8)]
    assert fine.n_levels >= 5
    refs = testfuns.theta_refs(dim)
    phis = testfuns.velocity_tests(dim)
    for cells in coarse:
        grid = gridmod.Grid(cells=cells)
        bundle, report = young.defect_from_refinement(fine, grid, refs)
        want, want_report = _refinement_loop(fine, grid, refs)
        for name in ("times", "r_m", "d_diss", "xi"):
            np.testing.assert_array_equal(getattr(bundle, name), getattr(want, name))
        assert report == want_report
        assert np.all(bundle.d_diss > 0.0) and report.theta_spread > 0.0
        # a violating bundle: its compatibility weight zeroed
        for b in (bundle, dataclasses.replace(bundle, xi=0.0 * bundle.xi)):
            rep = young.defect_compat_check(b, phis)
            worst, violations = _compat_loop(b, _with_time(phis))
            assert rep.worst_margin == pytest.approx(worst, rel=0.0, abs=1e-14)
            assert [v[:2] for v in rep.violations] == [v[:2] for v in violations]
            np.testing.assert_allclose(np.reshape([v[2:] for v in rep.violations], (-1, 2)),
                                       np.reshape([v[2:] for v in violations], (-1, 2)),
                                       rtol=0.0, atol=1e-14)
            assert rep.ok == (not violations)
        assert rep.violations

# --------------------------------------------------------------------------
# velocity control
# --------------------------------------------------------------------------


def test_korn_poincare_inequality_with_calibrated_constant():
    # zero-trace sine fields in either component obey
    # integral|u|^2 <= c_p * integral|D0(grad u)|^2 with the calibrated c_p
    grid = gridmod.Grid(cells=(16, 16))
    c_p = young.calibrate_kp_constant(grid)
    pts = grid_points(grid)
    for j in range(2):
        u = np.zeros(grid.interior_shape((2,)))
        u[..., j] = np.sin(np.pi * pts[..., 0]) * np.sin(np.pi * pts[..., 1])
        f = gridmod.sync_odd(gridmod.Field.from_interior(grid, u))
        d0 = transport.traceless_sym(gridmod.gradient(f))
        lhs = float(gridmod.integrate(grid, np.sum(u ** 2, axis=-1)))
        rhs = c_p * float(gridmod.integrate(grid, np.sum(d0 ** 2, axis=(-2, -1))))
        assert 0.0 < lhs <= rhs


def test_korn_poincare_rejects_bad_inputs():
    with pytest.raises(ValueError, match="two-dimensional"):
        young.calibrate_kp_constant(gridmod.Grid(cells=(16,)))
