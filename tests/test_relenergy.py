"""Tests for the relative-energy functional, cutoff split, remainder, and report."""

import json
import os
from dataclasses import dataclass, field, replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsflab import grid as gridmod
from nsflab import config, experiments, relenergy, solver, testfuns, thermo, transport, young
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


def _shifted_dirac(sol, grid, times, d_rho, d_theta, d_u):
    """Dirac at the smooth solution with the state fields shifted."""

    base = young.dirac_from_strong(sol, grid, times)
    return young.AtomicYoungMeasure(
        grid=grid, times=base.times, weights=base.weights,
        rho=base.rho + d_rho[None, ..., None],
        theta=base.theta + d_theta[None, ..., None],
        u=base.u + d_u[None, ..., None, :],
        d_u=base.d_u, d_theta=base.d_theta)


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


def _states(traj):
    """The stored levels of a trajectory as flow states, views of its arrays."""

    return [solver.FlowState(grid=traj.grid, rho=rho, u=u, theta=theta, t=float(t))
            for rho, u, theta, t in zip(traj.rho, traj.u, traj.theta, traj.times)]


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


def _window_values(delta, inside_only):
    """Values inside [delta, 1/delta] and at its ends; unless ``inside_only``,
    also just outside the ends, on the ramps, far outside, zero, negative,
    NaN and infinite."""
    lo, hi = delta, 1.0 / delta
    inside = st.one_of(st.floats(lo, hi), st.sampled_from([lo, hi]))
    if inside_only:
        return inside
    return st.one_of(inside, st.sampled_from([np.nextafter(lo, 0.0), np.nextafter(hi, np.inf),
                                              0.5 * lo, 2.0 * hi, 0.0, -0.0, -2.5, np.nan,
                                              np.inf]),
                     st.floats(0.5 * lo, 2.0 * hi), st.floats(1e-6, 1e6))


@given(st.sampled_from([0.1, 0.25, 0.05]), st.booleans(), st.booleans(), st.data())
@settings(max_examples=300, deadline=None)
def test_plateau_shortcut_keeps_the_window_weight_bits(delta, rho_inside, theta_inside, data):
    # chi takes the plateau by one test of the extremes; it must give the
    # two-ramp product bit for bit: inside the window, at its ends, across
    # it, outside it and at zero, negative or NaN states
    params = relenergy.CutoffParams(delta=delta)
    n = data.draw(st.integers(1, 6), label="n")
    rho = np.array(data.draw(st.lists(_window_values(delta, rho_inside), min_size=n,
                                      max_size=n), label="rho"))
    theta = np.array(data.draw(st.lists(_window_values(delta, theta_inside), min_size=n,
                                        max_size=n), label="theta"))
    for r, t in ((rho, theta), (rho[:, None], theta), (rho[0], theta[-1])):
        want = params._ramp(r) * params._ramp(t)
        got = params.chi(r, t)
        assert got.shape == np.shape(want) and got.tobytes() == np.asarray(want).tobytes()


def test_plateau_reuses_the_essential_energy_bit_for_bit(monkeypatch):
    traj, sol = _perturbed_trajectory(16, eps=5e-3)
    states = _states(traj)
    weight, taken = relenergy.CutoffParams._weight, []

    def spy(self, rho, theta):
        chi, plateau = weight(self, rho, theta)
        taken.append(plateau)
        return chi, plateau

    monkeypatch.setattr(relenergy.CutoffParams, "_weight", spy)
    fast = relenergy.rel_energy_series(states, sol)
    assert len(taken) == traj.n_levels and all(taken)
    # the same series with every window weight built from the two ramps
    monkeypatch.setattr(relenergy.CutoffParams, "_weight",
                        lambda self, rho, theta: (self._ramp(rho) * self._ramp(theta), False))
    slow = relenergy.rel_energy_series(states, sol)
    for key in ("e_mv", "e_ess", "e_res"):
        assert getattr(fast, key).tobytes() == getattr(slow, key).tobytes(), key
    assert np.all(fast.e_res == 0.0)


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


@pytest.mark.parametrize("model,tm", [(thermo.PerfectGas(c_v=1.4), TM),
                                      (MODEL, transport.PowerKappa())],
                         ids=["model", "transport"])
def test_remainder_refuses_laws_other_than_the_flows(model, tm):
    # the strong Dirac measure sits on the flow, so other laws would read a
    # zero remainder without a word
    sol = manufactured("shear", MODEL, TM)
    V = young.dirac_from_strong(sol, gridmod.Grid(cells=(16,)), [0.0])
    with pytest.raises(ValueError) as err:
        relenergy.remainder_R2(V, sol, model, tm, 0.0)
    for law in (model, tm, MODEL, TM):
        assert repr(law) in str(err.value)


# --------------------------------------------------------------------------
# inequality-chain report
# --------------------------------------------------------------------------


def test_report_is_identically_zero_on_resolved_equilibrium():
    sol = manufactured("equilibrium", MODEL, TM, dim=1)
    grid = gridmod.Grid(cells=(32,))
    cfg = solver.SolverConfig(t_end=0.02, source=sol, save_every=2)
    traj = solver.simulate(grid, cfg, MODEL, TM)
    rep = relenergy.rel_energy_inequality_report(young.dirac_from_trajectory(traj), None, sol)
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
    rep = relenergy.rel_energy_inequality_report(V, None, sol)
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
    rep = relenergy.rel_energy_inequality_report(V, None, sol)
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
        rep = relenergy.rel_energy_inequality_report(young.dirac_from_trajectory(traj), None, sol)
        fits.append(rep.gronwall_c)
    assert all(c < 0.0 for c in fits)
    assert abs(fits[0] - fits[1]) <= 0.2 * max(abs(c) for c in fits)


def test_report_window_split_and_residual_tail_for_far_atoms():
    sol = manufactured("equilibrium", MODEL, TM, dim=1)
    grid = gridmod.Grid(cells=(16,))
    far = _const_measure(grid, [0.0, 0.01], rho=25.0)
    rep = relenergy.rel_energy_inequality_report(far, None, sol)
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
    base = relenergy.rel_energy_inequality_report(V, None, sol)

    n_levels = V.n_levels
    d = V.grid.dim
    r_m = np.zeros((n_levels,) + V.grid.interior_shape((d, d)))
    diss = np.full(n_levels, 0.5)
    bundle = young.DefectBundle(grid=V.grid, times=V.times, r_m=r_m,
                                d_diss=diss, xi=np.zeros(n_levels))
    shifted = relenergy.rel_energy_inequality_report(V, bundle, sol)
    assert np.allclose(shifted.slack, base.slack - 0.5)
    assert np.allclose(shifted.lhs, base.lhs + 0.5)

    r_m_live = np.full((n_levels,) + V.grid.interior_shape((d, d)), 0.02)
    live = young.DefectBundle(grid=V.grid, times=V.times, r_m=r_m_live,
                              d_diss=np.zeros(n_levels), xi=np.zeros(n_levels))
    paired = relenergy.rel_energy_inequality_report(V, live, sol)
    assert paired.rm_cum[-1] != 0.0
    assert np.allclose(paired.rhs, paired.e_mv[0] + paired.rm_cum
                       + paired.r2_cum)

    stale = young.DefectBundle(grid=V.grid, times=V.times + 1.0, r_m=r_m,
                               d_diss=diss, xi=np.zeros(n_levels))
    with pytest.raises(ValueError, match="defect history must live"):
        relenergy.rel_energy_inequality_report(V, stale, sol)

    coarse = gridmod.Grid(cells=(16,))
    elsewhere = young.DefectBundle(grid=coarse, times=V.times,
                                   r_m=np.zeros((n_levels,) + coarse.interior_shape((d, d))),
                                   d_diss=diss, xi=np.zeros(n_levels))
    with pytest.raises(ValueError, match="measure's grid"):
        relenergy.rel_energy_inequality_report(V, elsewhere, sol)
    with pytest.raises(ValueError, match="measure's grid"):
        young.momentum_residual(V, testfuns.velocity_tests(1), MODEL, TM, defects=elsewhere)


def test_report_rejects_mismatched_models_and_bad_atoms():
    sol = manufactured("shear", MODEL, TM)
    grid = gridmod.Grid(cells=(16,))
    V = young.dirac_from_strong(sol, grid, [0.0])
    cold = _const_measure(grid, [0.0], theta=0.0)
    with pytest.raises(ValueError, match="strictly positive atom states"):
        relenergy.rel_energy_inequality_report(cold, None, sol)


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
    V, states = young.dirac_from_trajectory(traj), _states(traj)
    assert V.n_levels >= 3
    series = relenergy.rel_energy_series(states, sol)
    rep = relenergy.rel_energy_inequality_report(V, None, sol)
    for key in ("times", "e_mv", "e_ess", "e_res"):
        assert np.array_equal(getattr(series, key), getattr(rep, key)), key
    assert series.expansion.keys() == rep.expansion.keys()
    for key, vals in series.expansion.items():
        assert np.array_equal(vals, rep.expansion[key]), key
    assert series.gronwall_c == rep.gronwall_c
    assert series.e_mv[0] > 0.0

    cold = [replace(s, theta=np.where(s.theta > traj.theta.min(), s.theta, 0.0))
            for s in states]
    with pytest.raises(ValueError, match="strictly positive atom states"):
        relenergy.rel_energy_series(cold, sol)


@pytest.mark.parametrize("make", [_radiative_trajectory,
                                  lambda: _perturbed_trajectory(16, eps=5e-3)],
                         ids=["radiative_decay-2d", "shear-1d"])
def test_trajectory_series_equals_its_dirac_measure_bit_for_bit(make):
    traj, sol = make()
    # the same run again, level by level, from the same initial state
    initial = solver.FlowState(grid=traj.grid, rho=traj.rho[0], u=traj.u[0],
                               theta=traj.theta[0], t=float(traj.times[0]))
    states = list(solver.levels(traj.grid, traj.cfg, traj.model, traj.transport_model,
                                traj.boundary, initial))
    direct = relenergy.rel_energy_series(iter(states), sol)
    via_measure = relenergy.rel_energy_inequality_report(young.dirac_from_trajectory(traj),
                                                         None, sol)
    for key in ("times", "e_mv", "e_ess", "e_res"):
        assert getattr(direct, key).tobytes() == getattr(via_measure, key).tobytes(), key
    assert direct.expansion.keys() == via_measure.expansion.keys()
    for key, vals in direct.expansion.items():
        assert vals.tobytes() == via_measure.expansion[key].tobytes(), key
    assert direct.expansion_gap == via_measure.expansion_gap
    assert direct.gronwall_c == via_measure.gronwall_c

    # a non-finite state is refused by name by the series and by the measure
    for name in ("u", "theta"):
        vals = getattr(states[1], name).copy()
        vals.flat[3] = np.nan
        bad = states[:1] + [replace(states[1], **{name: vals})] + states[2:]
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            relenergy.rel_energy_series(bad, sol)
        stacked = getattr(traj, name).copy()
        stacked[1].flat[3] = np.nan
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            young.dirac_from_trajectory(replace(traj, **{name: stacked}))


@dataclass(frozen=True)
class _CountingGas(thermo.PerfectGas):
    """Perfect gas that records the shape of every state ``partials`` evaluates."""

    shapes: list = field(default_factory=list, compare=False)

    def partials(self, rho, theta, keys=thermo.PARTIALS):
        self.shapes.append(np.broadcast(rho, theta).shape)
        return super().partials(rho, theta, keys)


def test_each_state_is_evaluated_once_per_level():
    # per level: the profile's one evaluation, the comparison state's entries
    # and partials from one call and the atoms' from one more, which the
    # chain reads too; the run marches an equal profile and model of its
    # own, so only the pass counts
    run_model, model = _CountingGas(), _CountingGas()
    run_sol, sol = manufactured("shear", run_model, TM), manufactured("shear", model, TM)
    grid = gridmod.Grid(cells=(16,))
    traj = solver.simulate(grid, solver.SolverConfig(t_end=0.01, source=run_sol), run_model,
                           TM, boundary=run_sol.boundary,
                           initial=experiments.perturbed_state(run_sol, grid, 5e-3))
    V = young.dirac_from_trajectory(traj)
    assert V.n_levels >= 3
    model.shapes.clear()  # the build's check of the laws
    relenergy.rel_energy_inequality_report(V, None, sol)
    assert model.shapes == [(16,), (16,), (16, 1)] * V.n_levels
    model.shapes.clear()
    relenergy.rel_energy_series(_states(traj), sol)
    assert model.shapes == [(16,), (16,), (16, 1)] * V.n_levels


def _default_relenergy_measure():
    """The measure ``relenergy`` reports on at its defaults."""

    cfg = config.default_config("relenergy")
    sol = config.build_source(cfg)
    grid = config.build_grid(cfg, sol.dim)
    traj = solver.simulate(grid, config.build_solver_config(cfg, sol), sol.model,
                           sol.transport_model, boundary=sol.boundary,
                           initial=experiments.perturbed_state(
                               sol, grid, cfg["experiment"]["eps"][0]))
    return young.dirac_from_trajectory(traj), None, sol


def _mixed_measure_with_defects():
    """Two Dirac measures off the shear profile mixed, the second partly
    outside the window, with the defects of a perturbed run coarse-grained
    onto the measure's grid: the non-Dirac path with nonzero ``r_m`` and
    ``d_diss``."""

    fine, sol = _perturbed_trajectory(32, eps=5e-2)
    coarse = gridmod.Grid(cells=(16,))
    bundle, _ = young.defect_from_refinement(fine, coarse)
    x = grid_points(coarse)[..., 0]
    near = _shifted_dirac(sol, coarse, fine.times, 0.05 * np.sin(2 * np.pi * x),
                          0.05 * np.sin(np.pi * x), 0.05 * np.sin(np.pi * x)[..., None])
    far = _shifted_dirac(sol, coarse, fine.times, 9.5 + 0.5 * x, 0.1 * x,
                         -0.2 * np.cos(np.pi * x)[..., None])
    return young.mix([near, far], [0.7, 0.3]), bundle, sol


def _radiative_measure():
    traj, sol = _radiative_trajectory()
    return young.dirac_from_trajectory(traj), None, sol


GOLDEN_MEASURES = {"relenergy-default": _default_relenergy_measure,
                   "shear-mix-defects": _mixed_measure_with_defects,
                   "radiative_decay-2d": _radiative_measure}

with open(os.path.join(os.path.dirname(__file__), "golden", "relenergy.json"),
          encoding="utf-8") as fh:
    REPORT_PINNED = json.load(fh)


def _report_entries(rep):
    """Every array and number of a report, the dicts flattened by key."""

    out = {}
    for key, val in vars(rep).items():
        for name, arr in (val.items() if isinstance(val, dict) else [(None, val)]):
            out[key if name is None else f"{key}.{name}"] = np.asarray(arr, dtype=float)
    return out


@pytest.mark.parametrize("name", sorted(GOLDEN_MEASURES))
def test_report_matches_golden_bits(name):
    # golden/relenergy.json holds every entry of the report on each measure,
    # written by json (repr round-trip floats): a refactor must keep every bit
    V, defects, sol = GOLDEN_MEASURES[name]()
    got = _report_entries(relenergy.rel_energy_inequality_report(V, defects, sol))
    assert got.keys() == REPORT_PINNED[name].keys()
    for key, want in REPORT_PINNED[name].items():
        want = np.asarray(want, dtype=float)
        assert got[key].shape == want.shape, key
        assert got[key].tobytes() == want.tobytes(), (
            f"{name} {key}: {np.count_nonzero(got[key] != want)} values moved")


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


@pytest.mark.parametrize("n", [3, 50, 400])
def test_fit_slope_is_the_least_squares_slope(n):
    rng = np.random.default_rng(n)
    x = np.log(np.sort(rng.uniform(1e-3, 1.0, n)))
    y = 1.7 - 2.3 * x + 0.05 * rng.standard_normal(n)
    assert relenergy.fit_slope(x, y) == pytest.approx(np.polyfit(x, y, 1)[0], rel=1e-12)


def test_fit_slope_is_exact_on_two_points():
    assert relenergy.fit_slope([1.0, 3.0], [2.0, -4.0]) == -3.0
    assert relenergy.fit_slope(np.array([0.5, 2.0]), np.array([1.0, 7.0])) == 4.0


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
    assert np.allclose(rho * theta, rho * MODEL.e(rho, theta) / MODEL.c_v, rtol=1e-13)


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
