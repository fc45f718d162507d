"""Tests for the relative-energy functional, cutoff split, remainder, and report."""

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsflab import grid as gridmod
from nsflab import experiments, relenergy, solver, thermo, transport, young
from nsflab.manufactured import grid_points, manufactured

MODEL = thermo.PerfectGas(c_v=1.5)
TM = transport.AffineTheta()


# --------------------------------------------------------------------------
# helpers
# --------------------------------------------------------------------------


def _random_states(rng, n, lo=0.2, hi=5.0, u_span=2.0, dim=1):
    rho = np.exp(rng.uniform(np.log(lo), np.log(hi), n))
    theta = np.exp(rng.uniform(np.log(lo), np.log(hi), n))
    u = rng.uniform(-u_span, u_span, (n, dim))
    return rho, theta, u


def _const_measure(grid, times, rho=1.0, u0=0.0, theta=1.0,
                   boundary=gridmod.constant_boundary(1.0)):
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


def _shifted_dirac(sol, grid, times, d_rho, d_theta, d_u):
    """Dirac at the smooth solution with the state fields shifted."""

    base = young.dirac_from_strong(sol, grid, times)
    return young.AtomicYoungMeasure(
        grid=grid, times=base.times, weights=base.weights,
        rho=base.rho + d_rho[None, ..., None],
        theta=base.theta + d_theta[None, ..., None],
        u=base.u + d_u[None, ..., None, :],
        d_u=base.d_u, d_theta=base.d_theta, boundary=base.boundary)


def _perturbed_trajectory(n, eps, t_end=0.05, save_every=2):
    """Forced shear run started a small distance off the smooth solution."""

    sol = manufactured("shear", MODEL, TM)
    grid = gridmod.Grid(cells=(n,))
    x = grid_points(grid)[..., 0]
    rho0, u0, th0 = sol.on_grid(grid, 0.0)
    init = solver.FlowState(
        grid=grid, rho=rho0 + eps * np.sin(2 * np.pi * x),
        u=u0 + eps * np.sin(np.pi * x)[..., None],
        theta=th0 + eps * np.sin(np.pi * x), t=0.0)
    cfg = solver.SolverConfig(t_end=t_end, source=sol, save_every=save_every)
    traj = solver.simulate(grid, cfg, MODEL, TM, boundary=sol.boundary,
                           initial=init)
    return traj, sol


# --------------------------------------------------------------------------
# relative energy density
# --------------------------------------------------------------------------


def test_hand_value_matches_arbitrary_precision_oracle():
    # (rho=2, theta=1, u=0) against (1, 1, 0): closed form 2*log(2) - 1.
    got = relenergy.rel_energy_density(
        MODEL, 2.0, 1.0, np.zeros(1), 1.0, 1.0, np.zeros(1))
    assert got == pytest.approx(2.0 * np.log(2.0) - 1.0, rel=1e-14)

    with mpmath.workdps(50):
        cv = mpmath.mpf(3) / 2

        def h(rho, theta):
            return rho * cv * theta - rho * (cv * mpmath.log(theta)
                                             - mpmath.log(rho))

        slope = cv - 0 + 1  # e - theta_ref*s + p/rho at (1, 1)
        oracle = h(2, 1) - slope * (2 - 1) - h(1, 1)
        assert abs(got - float(oracle)) < 1e-15


def test_base_point_zero_and_kinetic_scaling():
    rng = np.random.default_rng(7)
    rho, theta, u = _random_states(rng, 50)
    at_base = relenergy.rel_energy_density(MODEL, rho, theta, u,
                                           rho, theta, u)
    assert np.max(np.abs(at_base)) == 0.0

    v = np.array([0.7])
    base = (1.3, 0.9, np.zeros(1))
    for t in (0.5, 2.0, 4.0):
        val = relenergy.rel_energy_density(MODEL, base[0], base[1], t * v,
                                           *base)
        assert val == pytest.approx(0.5 * base[0] * t ** 2 * v[0] ** 2,
                                    rel=1e-13)


@settings(max_examples=200, deadline=None)
@given(d_rho=st.floats(-0.4, 0.4), d_theta=st.floats(-0.4, 0.4),
       d_u=st.floats(-0.4, 0.4))
def test_strict_positivity_away_from_base_point(d_rho, d_theta, d_u):
    size = max(abs(d_rho), abs(d_theta), abs(d_u))
    if size < 1e-6:
        shift = 1e-6 - size
        d_rho, d_theta, d_u = d_rho + shift, d_theta + shift, d_u + shift
    val = relenergy.rel_energy_density(
        MODEL, 1.0 + d_rho, 1.0 + d_theta, np.array([d_u]),
        1.0, 1.0, np.zeros(1))
    assert val > 0.0


def test_vacuum_atom_energy_equals_reference_pressure():
    for theta, u0 in ((1.0, 0.0), (0.3, 2.0), (7.0, -1.5)):
        val = relenergy.rel_energy_density(
            MODEL, 0.0, theta, np.array([u0]), 1.0, 1.0, np.zeros(1))
        assert val == pytest.approx(MODEL.p(1.0, 1.0), abs=1e-14)
    val = relenergy.rel_energy_density(
        MODEL, 0.0, 2.0, np.zeros(1), 2.0, 0.5, np.zeros(1))
    assert val == pytest.approx(MODEL.p(2.0, 0.5), rel=1e-13)


def test_density_rejects_invalid_states():
    ok = (1.0, 1.0, np.zeros(1))
    with pytest.raises(ValueError, match="atoms must satisfy"):
        relenergy.rel_energy_density(MODEL, 1.0, 0.0, np.zeros(1), *ok)
    with pytest.raises(ValueError, match="atoms must satisfy"):
        relenergy.rel_energy_density(MODEL, -0.1, 1.0, np.zeros(1), *ok)
    with pytest.raises(ValueError, match="comparison state"):
        relenergy.rel_energy_density(MODEL, 1.0, 1.0, np.zeros(1),
                                     0.0, 1.0, np.zeros(1))
    with pytest.raises(ValueError, match="comparison state"):
        relenergy.rel_energy_density(MODEL, 1.0, 1.0, np.zeros(1),
                                     1.0, -2.0, np.zeros(1))


# --------------------------------------------------------------------------
# Bregman cross-check in conservative variables
# --------------------------------------------------------------------------


def test_bregman_routes_agree_perfect_gas():
    rng = np.random.default_rng(11)
    rho, theta, u = _random_states(rng, 1000)
    rho_r, theta_r, u_r = _random_states(rng, 1000)
    gap = relenergy.bregman_equivalence_check(MODEL, rho, theta, u,
                                              rho_r, theta_r, u_r)
    assert gap <= 1e-9


def test_bregman_routes_agree_molecular_radiation():
    model = thermo.MolecularRadiation(a=1.0)
    rng = np.random.default_rng(13)
    rho, theta, u = _random_states(rng, 200, lo=0.5, hi=2.0)
    rho_r, theta_r, u_r = _random_states(rng, 200, lo=0.5, hi=2.0)
    gap = relenergy.bregman_equivalence_check(model, rho, theta, u,
                                              rho_r, theta_r, u_r)
    assert gap <= 1e-9


def test_bregman_nonnegative_and_zero_at_base():
    rng = np.random.default_rng(17)
    rho, theta, u = _random_states(rng, 500)
    vals = relenergy.rel_energy_density(MODEL, rho, theta, u,
                                        1.2, 0.8, np.array([0.5]))
    assert np.min(vals) >= 0.0
    assert relenergy.bregman_equivalence_check(
        MODEL, 1.2, 0.8, np.array([0.5]), 1.2, 0.8, np.array([0.5])) == 0.0
    with pytest.raises(ValueError, match="conservative-variable route"):
        relenergy.bregman_equivalence_check(MODEL, 0.0, 1.0, np.zeros(1),
                                            1.0, 1.0, np.zeros(1))


# --------------------------------------------------------------------------
# cutoff and window split
# --------------------------------------------------------------------------


def test_cutoff_window_support_and_profiles():
    params = relenergy.CutoffParams(delta=0.1)
    inside = np.geomspace(0.1, 10.0, 25)
    grid_r, grid_t = np.meshgrid(inside, inside)
    assert np.all(params.chi(grid_r, grid_t) == 1.0)

    assert params.chi(0.049, 1.0) == 0.0
    assert params.chi(1.0, 20.01) == 0.0
    assert params.chi(0.0, 1.0) == 0.0
    assert params.chi(-3.0, 1.0) == 0.0

    # the quintic ramp t**3*(10 - 15t + 6t**2) is 1/2 at the log midpoint
    assert params.chi(np.sqrt(0.05 * 0.1), 1.0) == pytest.approx(0.5, abs=1e-12)

    for bad in (0.0, 1.0, 1.5, -0.2):
        with pytest.raises(ValueError, match="cutoff threshold"):
            relenergy.CutoffParams(delta=bad)


# --------------------------------------------------------------------------
# coercivity of the relative energy
# --------------------------------------------------------------------------


def _coercivity_samples(n=100_000, seed=23):
    rng = np.random.default_rng(seed)
    rho = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), n))
    theta = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), n))
    u = rng.uniform(-3.0, 3.0, (n, 1))
    return rho, theta, u


def test_coercivity_positive_constant_at_default_window():
    params = relenergy.CutoffParams(delta=0.1)
    strong = (1.0, 1.0, np.zeros(1))
    rep = relenergy.coercivity_check(MODEL, params, strong,
                                     *_coercivity_samples())
    assert rep.ok
    assert rep.c > 0.01
    assert rep.violations.size == 0
    assert rep.n_used == 100_000


def test_coercivity_constant_shrinks_with_the_window():
    strong = (1.0, 1.0, np.zeros(1))
    samples = _coercivity_samples(n=40_000, seed=29)
    cs = [relenergy.coercivity_check(
        MODEL, relenergy.CutoffParams(delta=d), strong, *samples).c
        for d in (0.2, 0.1, 0.01)]
    assert cs[0] > cs[1] > cs[2] > 0.0


def test_coercivity_rejects_reference_outside_window():
    params = relenergy.CutoffParams(delta=0.1)
    rho, theta, u = _coercivity_samples(n=10, seed=3)
    with pytest.raises(ValueError, match="comparison density"):
        relenergy.coercivity_check(MODEL, params, (0.1, 1.0, np.zeros(1)),
                                   rho, theta, u)
    with pytest.raises(ValueError, match="comparison temperature"):
        relenergy.coercivity_check(MODEL, params, (1.0, 6.0, np.zeros(1)),
                                   rho, theta, u)
    with pytest.raises(ValueError, match="comparison velocity"):
        relenergy.coercivity_check(MODEL, params,
                                   (1.0, 1.0, np.array([np.inf])),
                                   rho, theta, u)


# --------------------------------------------------------------------------
# quadratic remainder
# --------------------------------------------------------------------------


def test_remainder_vanishes_on_dirac_at_the_smooth_solution():
    sol = manufactured("shear", MODEL, TM)
    grid = gridmod.Grid(cells=(32,))
    V = young.dirac_from_strong(sol, grid, [0.0, 0.02])
    for t in (0.0, 0.02):
        field = relenergy.remainder_R2(V, sol, MODEL, TM, t)
        assert np.max(np.abs(field.interior)) == 0.0


def test_remainder_vanishes_against_constant_equilibrium():
    # Every group carries a comparison-state coefficient that is zero when
    # the comparison flow is constant and at rest, whatever the measure is.
    sol = manufactured("equilibrium", MODEL, TM, dim=1)
    grid = gridmod.Grid(cells=(16,))
    times = [0.0, 0.01]
    wild = young.mix(
        [_const_measure(grid, times, rho=0.3, u0=1.5, theta=2.0),
         _const_measure(grid, times, rho=4.0, u0=-0.7, theta=0.2)],
        [0.4, 0.6])
    field = relenergy.remainder_R2(wild, sol, MODEL, TM, 0.01)
    assert np.max(np.abs(field.interior)) == 0.0


def test_remainder_is_quadratic_in_the_perturbation():
    sol = manufactured("shear", MODEL, TM)
    grid = gridmod.Grid(cells=(64,))
    x = grid_points(grid)[..., 0]
    bump_r = np.sin(2 * np.pi * x)
    bump_t = np.sin(np.pi * x)
    bump_u = np.sin(np.pi * x)[..., None]
    eps_values = np.array([1e-1, 1e-2, 1e-3])
    integrals = []
    for eps in eps_values:
        V = _shifted_dirac(sol, grid, [0.0], eps * bump_r, eps * bump_t,
                           eps * bump_u)
        field = relenergy.remainder_R2(V, sol, MODEL, TM, 0.0)
        integrals.append(abs(float(gridmod.integrate(grid, field.interior))))
    slope = np.polyfit(np.log(eps_values), np.log(integrals), 1)[0]
    assert 1.9 <= slope <= 2.1


def test_remainder_time_and_state_validation():
    sol = manufactured("shear", MODEL, TM)
    grid = gridmod.Grid(cells=(16,))
    V = young.dirac_from_strong(sol, grid, [0.0, 0.02])
    with pytest.raises(ValueError, match="not a stored level"):
        relenergy.remainder_R2(V, sol, MODEL, TM, 0.013)
    cold = _const_measure(grid, [0.0], theta=0.0)
    with pytest.raises(ValueError, match="strictly positive atom states"):
        relenergy.remainder_R2(cold, sol, MODEL, TM, 0.0)


# --------------------------------------------------------------------------
# inequality-chain report
# --------------------------------------------------------------------------


def test_report_is_identically_zero_on_resolved_equilibrium():
    sol = manufactured("equilibrium", MODEL, TM, dim=1)
    grid = gridmod.Grid(cells=(32,))
    cfg = solver.SolverConfig(t_end=0.02, source=sol, save_every=2)
    traj = solver.simulate(grid, cfg, MODEL, TM)
    rep = relenergy.rel_energy_inequality_report(
        young.dirac_from_trajectory(traj), None, sol, MODEL, TM)
    assert np.all(rep.e_mv == 0.0)
    assert np.all(rep.slack == 0.0)
    assert np.all(rep.lhs == 0.0)
    assert rep.gronwall_c == 0.0
    assert rep.reduced_c_required == 0.0
    for series in rep.blocks.values():
        assert np.all(series == 0.0)


def test_report_dirac_at_smooth_solution_is_exact():
    sol = manufactured("shear", MODEL, TM)
    grid = gridmod.Grid(cells=(48,))
    times = np.linspace(0.0, 0.05, 6)
    V = young.dirac_from_strong(sol, grid, times)
    rep = relenergy.rel_energy_inequality_report(V, None, sol, MODEL, TM)
    assert np.all(rep.e_mv == 0.0)
    assert np.all(rep.r2_cum == 0.0)
    assert np.all(rep.slack == 0.0)
    for series in rep.blocks.values():
        assert np.all(series == 0.0)
    # the four expansion pieces cancel to zero total energy
    total = sum(rep.expansion.values())
    assert np.max(np.abs(total)) < 1e-12
    assert rep.expansion_gap < 1e-14


@pytest.mark.parametrize("n", [32, 64])
def test_report_perturbed_run_satisfies_the_inequality(n):
    traj, sol = _perturbed_trajectory(n, eps=5e-3)
    V = young.dirac_from_trajectory(traj)
    rep = relenergy.rel_energy_inequality_report(V, None, sol, MODEL, TM)
    h = 1.0 / n
    assert rep.e_mv[0] > 0.0
    assert np.min(rep.e_mv) >= 0.0
    assert np.min(rep.slack) >= -1e-3 * h
    assert np.allclose(rep.slack, rep.rhs - rep.lhs)
    assert rep.e_mv[-1] < rep.e_mv[0]
    assert rep.gronwall_c < 0.0
    for key in ("shear_quad", "bulk_quad", "heat_quad"):
        series = rep.blocks[key]
        assert np.all(np.diff(series) >= 0.0)
        assert np.all(series >= 0.0)
    assert rep.reduced_c_required >= 0.0


def test_report_gronwall_constant_stable_under_perturbation_size():
    fits = []
    for eps in (5e-3, 1e-2):
        traj, sol = _perturbed_trajectory(32, eps=eps)
        rep = relenergy.rel_energy_inequality_report(
            young.dirac_from_trajectory(traj), None, sol, MODEL, TM)
        fits.append(rep.gronwall_c)
    assert all(c < 0.0 for c in fits)
    assert abs(fits[0] - fits[1]) <= 0.2 * max(abs(c) for c in fits)


def test_report_window_split_and_residual_tail_for_far_atoms():
    sol = manufactured("equilibrium", MODEL, TM, dim=1)
    grid = gridmod.Grid(cells=(16,))
    far = _const_measure(grid, [0.0, 0.01], rho=25.0)
    rep = relenergy.rel_energy_inequality_report(far, None, sol, MODEL, TM)
    assert np.all(rep.e_ess == 0.0)
    assert np.allclose(rep.e_res, rep.e_mv)
    assert np.min(rep.e_mv) > 0.0
    assert rep.res_tail_cum[-1] > 0.0
    assert np.allclose(rep.e_ess + rep.e_res, rep.e_mv)
    total = sum(rep.expansion.values())
    assert np.allclose(total, rep.e_mv)


def test_report_defect_history_enters_both_sides():
    traj, sol = _perturbed_trajectory(32, eps=5e-3)
    V = young.dirac_from_trajectory(traj)
    base = relenergy.rel_energy_inequality_report(V, None, sol, MODEL, TM)

    n_levels = V.n_levels
    d = V.grid.dim
    r_m = np.zeros((n_levels,) + V.grid.interior_shape((d, d)))
    diss = np.full(n_levels, 0.5)
    bundle = young.DefectBundle(grid=V.grid, times=V.times, r_m=r_m,
                                d_diss=diss, xi=np.zeros(n_levels))
    shifted = relenergy.rel_energy_inequality_report(V, bundle, sol, MODEL, TM)
    assert np.allclose(shifted.slack, base.slack - 0.5)
    assert np.allclose(shifted.lhs, base.lhs + 0.5)

    r_m_live = np.full((n_levels,) + V.grid.interior_shape((d, d)), 0.02)
    live = young.DefectBundle(grid=V.grid, times=V.times, r_m=r_m_live,
                              d_diss=np.zeros(n_levels), xi=np.zeros(n_levels))
    paired = relenergy.rel_energy_inequality_report(V, live, sol, MODEL, TM)
    assert paired.rm_cum[-1] != 0.0
    assert np.allclose(paired.rhs, paired.e_mv[0] + paired.rm_cum
                       + paired.r2_cum)

    stale = young.DefectBundle(grid=V.grid, times=V.times + 1.0, r_m=r_m,
                               d_diss=diss, xi=np.zeros(n_levels))
    with pytest.raises(ValueError, match="defect history must live"):
        relenergy.rel_energy_inequality_report(V, stale, sol, MODEL, TM)


def test_report_rejects_mismatched_models_and_bad_atoms():
    sol = manufactured("shear", MODEL, TM)
    grid = gridmod.Grid(cells=(16,))
    V = young.dirac_from_strong(sol, grid, [0.0])
    with pytest.raises(ValueError, match="share the equation of state"):
        relenergy.rel_energy_inequality_report(
            V, None, sol, thermo.PerfectGas(c_v=1.4), TM)
    with pytest.raises(ValueError, match="share the transport model"):
        relenergy.rel_energy_inequality_report(
            V, None, sol, MODEL, transport.PowerKappa())
    cold = _const_measure(grid, [0.0], theta=0.0,
                          boundary=sol.boundary)
    with pytest.raises(ValueError, match="strictly positive atom states"):
        relenergy.rel_energy_inequality_report(cold, None, sol, MODEL, TM)


def _radiative_trajectory():
    """Short forced 2D molecular-radiation run started off the profile."""

    model = thermo.MolecularRadiation(a=0.5, kernel=thermo.DEGENERATE_KERNEL)
    tm = transport.PowerKappa()
    sol = manufactured("radiative_decay", model, tm)
    grid = gridmod.Grid(cells=(8, 8))
    cfg = solver.SolverConfig(t_end=0.004, source=sol)
    traj = solver.simulate(grid, cfg, model, tm, boundary=sol.boundary,
                           initial=experiments.perturbed_state(sol, grid, 1e-2))
    return traj, sol


@pytest.mark.parametrize("make", [_radiative_trajectory,
                                  lambda: _perturbed_trajectory(16, eps=5e-3)],
                         ids=["radiative_decay-2d", "shear-1d"])
def test_energy_series_equals_the_report_bit_for_bit(make):
    traj, sol = make()
    V = young.dirac_from_trajectory(traj)
    assert V.n_levels >= 3
    series = relenergy.rel_energy_series(V, sol, sol.model, sol.transport_model)
    rep = relenergy.rel_energy_inequality_report(V, None, sol, sol.model,
                                                 sol.transport_model)
    for key in ("times", "e_mv", "e_ess", "e_res"):
        assert np.array_equal(getattr(series, key), getattr(rep, key)), key
    assert series.expansion.keys() == rep.expansion.keys()
    for key, vals in series.expansion.items():
        assert np.array_equal(vals, rep.expansion[key]), key
    assert series.gronwall_c == rep.gronwall_c
    assert series.e_mv[0] > 0.0

    with pytest.raises(ValueError, match="share the equation of state"):
        relenergy.rel_energy_series(V, sol, thermo.PerfectGas(c_v=1.4),
                                    sol.transport_model)
    with pytest.raises(ValueError, match="share the transport model"):
        relenergy.rel_energy_series(V, sol, sol.model, transport.AffineTheta(c_mu=0.2))
    cold = young.AtomicYoungMeasure(
        grid=V.grid, times=V.times, weights=V.weights, rho=V.rho,
        theta=np.where(V.theta > V.theta.min(), V.theta, 0.0), u=V.u,
        d_u=V.d_u, d_theta=V.d_theta, boundary=V.boundary)
    with pytest.raises(ValueError, match="strictly positive atom states"):
        relenergy.rel_energy_series(cold, sol, sol.model, sol.transport_model)


def test_gronwall_fit_recovers_synthetic_rate():
    times = np.linspace(0.0, 1.0, 11)
    assert relenergy.fit_gronwall_constant(
        times, 0.3 * np.exp(3.0 * times)) == pytest.approx(3.0, abs=1e-9)
    assert relenergy.fit_gronwall_constant(times, np.zeros(11)) == 0.0
    spotty = 0.3 * np.exp(-2.0 * times)
    spotty[3] = 0.0  # dead levels are skipped, not fatal
    assert relenergy.fit_gronwall_constant(times, spotty) == pytest.approx(
        -2.0, abs=1e-6)
    assert relenergy.fit_gronwall_constant(np.zeros(1), np.ones(1)) == 0.0


# --------------------------------------------------------------------------
# structural hypotheses used by the uniqueness estimates
# --------------------------------------------------------------------------


def test_temperature_density_chain_for_perfect_gas():
    rng = np.random.default_rng(31)
    rho = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), 100_000))
    theta = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), 100_000))
    keep = theta ** MODEL.c_v <= rho
    assert np.count_nonzero(keep) > 10_000
    rho, theta = rho[keep], theta[keep]
    assert np.all(theta ** (MODEL.c_v + 1.0) <= rho * theta * (1 + 1e-12))
    ev = MODEL.eval(rho, theta)
    assert np.allclose(rho * theta, rho * ev.e / MODEL.c_v, rtol=1e-13)


def test_radiative_entropy_flux_bound():
    # rho*s_R*|u| <= C*(theta^2/(4 eps) + eps|u - u_ref|^2 + rho*s_R) with
    # eps = 1 and a bounded comparison velocity; the constant stays modest.
    a = 1.0
    rng = np.random.default_rng(37)
    n = 200_000
    rho = np.exp(rng.uniform(np.log(1e-4), np.log(1e4), n))
    theta = np.exp(rng.uniform(np.log(1e-4), np.log(1e4), n))
    u = rng.uniform(-5.0, 5.0, n)
    u_ref = 1.0
    rho_s_r = 2.0 * a * theta  # rho * (2 a theta / rho)
    lhs = rho_s_r * np.abs(u)
    envelope = theta ** 2 / 4.0 + (u - u_ref) ** 2 + rho_s_r
    ratio = np.max(lhs / envelope)
    assert ratio <= 4.0
    assert ratio > 1.0  # the bound is active, not vacuous
    del rho


def _molecular_ratio(kernel, rho, theta):
    q = rho * theta ** -1.5
    s_m = kernel.s(q)
    e_m = 1.5 * theta ** 2.5 / rho * kernel.p(q)
    return rho * s_m ** 2 / (1.0 + rho + rho * e_m)


def test_molecular_entropy_square_bound_requires_the_third_law():
    # The bound rho*|s_M|^2 <= C*(1 + rho + rho*e_M) follows from the
    # vanishing of the entropy kernel at large q (third law).  The
    # degenerate kernel satisfies it globally; the logarithmic kernel has
    # S(q) -> -inf and the ratio grows without bound in the cold dense
    # regime, so it sits outside the hypothesis class.
    assert thermo.DEGENERATE_KERNEL.third_law
    assert not thermo.IDEAL_KERNEL.third_law

    rng = np.random.default_rng(41)
    n = 200_000
    rho = np.exp(rng.uniform(np.log(1e-4), np.log(1e4), n))
    theta = np.exp(rng.uniform(np.log(1e-4), np.log(1e4), n))
    ratio = _molecular_ratio(thermo.DEGENERATE_KERNEL, rho, theta)
    assert np.max(ratio) <= 5.0

    spot = _molecular_ratio(thermo.IDEAL_KERNEL, np.array([1e4]),
                            np.array([1e-4]))
    assert spot[0] > 100.0
