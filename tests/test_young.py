"""Tests for phase-space measures, defects, and weak-form residuals."""

import numpy as np
import pytest

from nsflab import grid as gridmod
from nsflab import solver, testfuns, thermo, transport, young
from nsflab.manufactured import grid_points, manufactured

MODEL = thermo.PerfectGas(c_v=1.5)
TM = transport.AffineTheta()
BND = gridmod.constant_boundary(1.0)


# --------------------------------------------------------------------------
# helpers
# --------------------------------------------------------------------------


def _const_measure(grid, times, rho=1.0, u0=0.0, theta=1.0, boundary=BND):
    shape = (len(times),) + grid.cells + (1,)
    d = grid.dim
    u = np.zeros(shape + (d,))
    u[..., 0] = u0
    return young.AtomicYoungMeasure(
        grid=grid, times=np.asarray(times, dtype=float),
        weights=np.ones(shape), rho=np.full(shape, float(rho)),
        theta=np.full(shape, float(theta)), u=u,
        d_u=np.zeros(shape + (d, d)), d_theta=np.zeros(shape + (d,)),
        boundary=boundary)


def _field_measure(grid, times, u_field, rho_field=None, theta_field=None,
                   boundary=BND):
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
        d_u=np.zeros(shape + (d, d)), d_theta=np.zeros(shape + (d,)),
        boundary=boundary)


def _equilibrium_trajectory(n=32, t_end=0.02, dim=1):
    sol = manufactured("equilibrium", MODEL, TM, dim=dim, theta0=1.0, rho0=1.0)
    grid = gridmod.Grid(cells=(n,) * dim)
    cfg = solver.SolverConfig(t_end=t_end, source=sol, save_every=2)
    return solver.simulate(grid, cfg, MODEL, TM), sol


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


def _fd_time(fn, t, pts, h=1e-6):
    return (np.asarray(fn(t + h, pts)) - np.asarray(fn(t - h, pts))) / (2 * h)


@pytest.mark.parametrize("dim", [1, 2])
def test_testfun_derivatives_match_finite_differences(dim):
    rng = np.random.default_rng(3)
    pts = rng.uniform(0.2, 0.8, size=(40, dim))
    t = 0.37
    for test in (testfuns.scalar_tests(dim) + testfuns.entropy_tests(dim)
                 + testfuns.velocity_tests(dim) + testfuns.flux_tests(dim)):
        assert np.allclose(test.dt(t, pts), _fd_time(test.value, t, pts), atol=1e-6)
    for ref in testfuns.theta_refs(dim, base=(1.0, 0.2, -0.1)[: dim + 1] + (0.0,) * (2 - dim)):
        assert np.allclose(ref.dt(t, pts), _fd_time(ref.value, t, pts), atol=1e-6)


@pytest.mark.parametrize("dim", [1, 2])
def test_zero_trace_families_vanish_on_boundary(dim):
    grid = gridmod.Grid(cells=(8,) * dim)
    for test in testfuns.velocity_tests(dim):
        for pts in gridmod.boundary_face_points(grid).values():
            assert np.max(np.abs(test.value(0.7, pts))) < 1e-13
    for test in testfuns.entropy_tests(dim):
        for pts in gridmod.boundary_face_points(grid).values():
            assert np.max(np.abs(test.value(0.7, pts))) < 1e-13
        sample = test.value(0.5, np.random.default_rng(0).uniform(0, 1, (50, dim)))
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


def test_dirac_expectation_matches_fields():
    traj, _ = _equilibrium_trajectory()
    V = young.dirac_from_trajectory(traj)
    assert V.weights.shape[-1] == 1
    assert np.all(V.weights == 1.0)
    rho_mean = young.expect(V, lambda r, u, th, du, dth: r)
    assert np.array_equal(rho_mean, traj.rho)
    u_sq = young.expect(V, lambda r, u, th, du, dth: np.sum(u * u, axis=-1))
    assert np.allclose(u_sq, np.sum(traj.u ** 2, axis=-1))


def test_mix_mean_jensen_and_associativity():
    grid = gridmod.Grid(cells=(8,))
    times = [0.0, 0.1]
    v1 = _const_measure(grid, times, rho=1.0)
    v3 = _const_measure(grid, times, rho=3.0)
    mixed = young.mix([v1, v3], [0.5, 0.5])
    mean = young.expect(mixed, lambda r, u, th, du, dth: r)
    assert np.allclose(mean, 2.0)
    second = young.expect(mixed, lambda r, u, th, du, dth: r ** 2)
    assert np.allclose(second, 5.0)
    assert np.min(second - mean ** 2) > 0.9  # strict Jensen gap for r^2
    single = young.mix([v1], [1.0])
    assert np.allclose(young.expect(single, lambda r, u, th, du, dth: r), 1.0)
    nested = young.mix([young.mix([v1, v3], [0.5, 0.5]), v3], [0.5, 0.5])
    flat = young.mix([v1, v3], [0.25, 0.75])
    for obs in (lambda r, u, th, du, dth: r, lambda r, u, th, du, dth: r ** 2):
        assert np.allclose(young.expect(nested, obs), young.expect(flat, obs))
    with pytest.raises(ValueError, match="sum to 1"):
        young.mix([v1, v3], [0.7, 0.7])


def test_expect_monotone_and_linear():
    grid = gridmod.Grid(cells=(8,))
    mixed = young.mix([_const_measure(grid, [0.0], rho=1.0, u0=0.5),
                       _const_measure(grid, [0.0], rho=2.0, u0=-1.0)],
                      [0.3, 0.7])
    f = young.expect(mixed, lambda r, u, th, du, dth: r)
    g = young.expect(mixed, lambda r, u, th, du, dth: r + np.abs(u[..., 0]))
    assert np.all(f <= g + 1e-15)
    lin = young.expect(mixed, lambda r, u, th, du, dth: 2.0 * r + 3.0 * u[..., 0])
    u_mean = young.expect(mixed, lambda r, u, th, du, dth: u[..., 0])
    assert np.allclose(lin, 2.0 * f + 3.0 * u_mean)


def test_expect_rejects_nonfinite_with_witness():
    grid = gridmod.Grid(cells=(8,))
    V = _const_measure(grid, [0.0], rho=0.0, theta=1.0)
    with pytest.raises(ValueError, match="non-finite") as err:
        with np.errstate(divide="ignore"):
            young.expect(V, lambda r, u, th, du, dth: 1.0 / r)
    assert "rho=0.0" in str(err.value)


# --------------------------------------------------------------------------
# clause residuals
# --------------------------------------------------------------------------


@pytest.mark.parametrize("dim", [1, 2])
def test_equilibrium_dirac_all_clauses_round_off(dim):
    traj, sol = _equilibrium_trajectory(n=32 if dim == 1 else 12, dim=dim)
    V = young.dirac_from_trajectory(traj)
    ref = testfuns.theta_refs(dim, amps=(0.0,))[0]
    assert young.check_velocity_compat(V, testfuns.tensor_tests(dim)).max_abs <= 1e-10
    tc = young.check_temperature_compat(V, testfuns.flux_tests(dim), ref)
    assert tc.max_abs <= 1e-10
    assert np.max(np.abs(tc.extras["as_written"])) <= 1e-10
    assert young.continuity_residual(V, testfuns.scalar_tests(dim),
                                     source=sol).max_abs <= 1e-10
    assert young.momentum_residual(V, testfuns.velocity_tests(dim), MODEL, TM,
                                   source=sol).max_abs <= 1e-10
    ent = young.entropy_mv_residual(V, testfuns.entropy_tests(dim), MODEL, TM)
    assert ent.max_abs <= 1e-10
    ball = young.ballistic_mv_residual(V, 0.0, ref, MODEL, TM)
    assert ball.max_abs <= 1e-10


def test_temperature_compat_embeds_the_reference_once_per_level():
    traj, _ = _equilibrium_trajectory(n=8, dim=2)
    V = young.dirac_from_trajectory(traj)
    ref = testfuns.theta_refs(2, amps=(0.0,))[0]
    calls = []

    def value(t, pts):
        calls.append(t)
        return ref.value(t, pts)

    counted = testfuns.ThetaRef(label=ref.label, value=value, dt=ref.dt)
    psis = testfuns.flux_tests(2)
    rep = young.check_temperature_compat(V, psis, counted)
    assert len(rep.residuals) == len(psis) > 1
    assert len(calls) == V.n_levels


def test_strong_dirac_residuals_decay_second_order():
    sol = manufactured("shear", MODEL, TM)
    ref = testfuns.theta_refs(1, amps=(0.0,))[0]

    def residuals(n, n_times):
        grid = gridmod.Grid(cells=(n,))
        V = young.dirac_from_strong(sol, grid, np.linspace(0.0, 0.05, n_times))
        tc = young.check_temperature_compat(V, testfuns.flux_tests(1), ref)
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


def test_temperature_compat_matching_reference_is_zero():
    model = MODEL
    sol = manufactured("conduction", model, transport.PowerKappa(kappa2=0.0))
    grid = gridmod.Grid(cells=(24,))
    V = young.dirac_from_strong(sol, grid, [0.0, 0.3])
    ref = testfuns.theta_ref_from_strong(sol)
    rep = young.check_temperature_compat(V, testfuns.flux_tests(1), ref)
    assert rep.max_abs <= 1e-12
    assert np.max(np.abs(rep.extras["as_written"])) <= 1e-12


def test_velocity_compat_zero_tensor_and_corruption():
    sol = manufactured("shear", MODEL, TM)
    grid = gridmod.Grid(cells=(32,))
    V = young.dirac_from_strong(sol, grid, np.linspace(0.0, 0.05, 9))
    zero = testfuns.TensorTest(label="zero",
                               value=lambda t, p: np.zeros(p.shape[:-1] + (1, 1)))
    assert young.check_velocity_compat(V, [zero]).max_abs == 0.0
    honest = young.check_velocity_compat(V, testfuns.tensor_tests(1)).max_abs
    corrupted = young.AtomicYoungMeasure(
        grid=V.grid, times=V.times, weights=V.weights, rho=V.rho, u=V.u,
        theta=V.theta, d_u=V.d_u + 0.5 * np.eye(1), d_theta=V.d_theta,
        boundary=V.boundary)
    flagged = young.check_velocity_compat(corrupted, testfuns.tensor_tests(1)).max_abs
    assert honest < 1e-4
    assert flagged > 1e-3
    assert flagged > 20.0 * honest


def test_asymmetric_tensor_rejected():
    grid = gridmod.Grid(cells=(8, 8))
    V = _const_measure(grid, [0.0])
    skew = testfuns.TensorTest(
        label="skew",
        value=lambda t, p: np.broadcast_to(np.array([[0.0, 1.0], [-1.0, 0.0]]),
                                           p.shape[:-1] + (2, 2)))
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
    assert np.max(np.abs(young.expect(
        osc, lambda r, u, th, du, dth: r[..., None] * u))) == 0.0
    phis = testfuns.velocity_tests(1)
    r_m = np.zeros((3,) + grid.cells + (1, 1))
    r_m[..., 0, 0] = v ** 2  # Reynolds stress of the +/- v mixture at rho = 1
    res_osc = young.momentum_residual(osc, phis, MODEL, TM)
    res_bary = young.momentum_residual(bary, phis, MODEL, TM, r_m=r_m)
    assert res_osc.max_abs > 1e-3
    assert np.max(np.abs(res_osc.residuals - res_bary.residuals)) <= 1e-13


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
    bad = testfuns.ScalarTest(label="negative",
                              value=lambda t, p: -np.ones(p.shape[:-1]),
                              dt=lambda t, p: np.zeros(p.shape[:-1]),
                              nonnegative=False)
    with pytest.raises(ValueError, match="nonnegative"):
        young.entropy_mv_residual(V, [bad], MODEL, TM)


def test_ballistic_threshold_scan():
    traj = _decay_trajectory(32)
    V = young.dirac_from_trajectory(traj)
    ref = testfuns.theta_refs(1, amps=(0.0,))[0]
    base = young.ballistic_mv_residual(V, 0.0, ref, MODEL, TM)
    assert np.min(base.residuals) >= -1e-12
    s_final = base.residuals[-1]
    assert s_final > 0.0  # the scheme dissipates, leaving room for a defect
    d_ok = np.zeros(V.n_levels)
    d_ok[-1] = 0.5 * s_final
    d_too_big = np.zeros(V.n_levels)
    d_too_big[-1] = 2.0 * s_final
    assert young.ballistic_mv_residual(V, d_ok, ref, MODEL, TM).residuals[-1] >= 0.0
    assert young.ballistic_mv_residual(V, d_too_big, ref, MODEL, TM).residuals[-1] < 0.0
    with pytest.raises(ValueError, match="nonnegative"):
        young.ballistic_mv_residual(V, -1.0, ref, MODEL, TM)


def test_initial_energy_vacuum_and_mixture():
    # the ballistic clause's energy at the first level is the initial energy
    grid = gridmod.Grid(cells=(8,))
    ref = testfuns.theta_refs(1, amps=(0.0,))[0]

    def initial_energy(V):
        rep = young.ballistic_mv_residual(V, 0.0, ref, MODEL, TM)
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
    assert young.defect_compat_check(zero, phis)
    x = grid_points(grid)[..., 0]
    r_bad = np.zeros((2,) + grid.cells + (1, 1))
    r_bad[..., 0, 0] = 0.01 * x
    bad = young.DefectBundle(grid=grid, times=times, r_m=r_bad,
                             d_diss=np.zeros(2), xi=np.zeros(2))
    rep = young.defect_compat_check(bad, phis)
    assert not rep
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
            fine, gridmod.Grid(cells=(n_coarse,)), MODEL, refs)
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
    bundle, report = young.defect_from_refinement(
        fine, gridmod.Grid(cells=(16,)), MODEL, refs)
    # mean of sin^2 over fast oscillation is 1/2: kinetic defect = rho*env^2/4
    x = np.linspace(0.0, 1.0, 200001)
    target = 0.25 * np.trapezoid((1.0 + 0.05 * np.sin(2 * np.pi * x))
                                 * np.sin(np.pi * x) ** 2, x)
    assert bundle.d_diss[0] == pytest.approx(target, rel=0.05)
    assert report.theta_spread <= 0.05
    assert report.d_min_raw >= -1e-9
    assert bundle.xi[0] == pytest.approx(2.0, rel=0.05)
    # constructed bundle satisfies the compatibility bound by calibration
    assert young.defect_compat_check(bundle, testfuns.velocity_tests(1))


def test_defect_from_refinement_input_validation():
    fine = _synthetic_oscillation(32, 0.01)
    with pytest.raises(ValueError, match="incompatible grids.*domain"):
        young.defect_from_refinement(fine, gridmod.Grid(cells=(16,), hi=(2.0,)), MODEL)
    with pytest.raises(ValueError, match="incompatible grids.*domain"):
        young.defect_from_refinement(fine, gridmod.Grid(cells=(16, 16)), MODEL)
    with pytest.raises(ValueError, match="incompatible grids.*multiples"):
        young.defect_from_refinement(fine, gridmod.Grid(cells=(24,)), MODEL)


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
        f = gridmod.sync_odd(gridmod.VectorField.from_interior(grid, u))
        d0 = transport.traceless_sym(gridmod.grad_vector(f))
        lhs = float(gridmod.integrate(grid, np.sum(u ** 2, axis=-1)))
        rhs = c_p * float(gridmod.integrate(grid, np.sum(d0 ** 2, axis=(-2, -1))))
        assert 0.0 < lhs <= rhs


def test_korn_poincare_rejects_bad_inputs():
    with pytest.raises(ValueError, match="two-dimensional"):
        young.calibrate_kp_constant(gridmod.Grid(cells=(16,)))
