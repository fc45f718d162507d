"""Solver behavior: fixed points, convergence under refinement, failure paths."""

import numpy as np
import pytest

from nsflab import grid as g
from nsflab import manufactured as mfg
from nsflab import solver, thermo, transport

PG = thermo.PerfectGas(c_v=1.5)
AFF = transport.AffineTheta()
MR = thermo.MolecularRadiation(a=0.5, kernel=thermo.DEGENERATE_KERNEL)
PK = transport.PowerKappa()


def _decay_state(n=64, amp_rho=0.2, amp_th=0.3):
    gr = g.Grid(cells=(n,))
    x = gr.centers(0)
    rho = 1.0 + amp_rho * np.sin(2 * np.pi * x)
    theta = 1.0 + amp_th * np.sin(np.pi * x)
    return gr, solver.FlowState(grid=gr, rho=rho, u=np.zeros((n, 1)), theta=theta, t=0.0)


def test_config_validation():
    with pytest.raises(ValueError, match="cfl"):
        solver.SolverConfig(cfl=1.5)
    with pytest.raises(ValueError, match="floor"):
        solver.SolverConfig(floor=0.0)
    with pytest.raises(ValueError, match="t_end"):
        solver.SolverConfig(t_end=-1.0)
    with pytest.raises(ValueError, match="save_every"):
        solver.SolverConfig(save_every=0)


def test_constant_state_rhs_is_zero():
    gr = g.Grid(cells=(16,))
    st = solver.FlowState(grid=gr, rho=np.full(16, 2.0), u=np.zeros((16, 1)),
                          theta=np.full(16, 1.5), t=0.0)
    dr, dm, de = solver.rhs(st, PG, AFF, g.constant_boundary(1.5))
    assert np.max(np.abs(dr)) == 0.0
    assert np.max(np.abs(dm)) == 0.0
    assert np.max(np.abs(de)) == 0.0


def test_equilibrium_is_fixed_point_for_100_steps():
    sol = mfg.manufactured("equilibrium", PG, AFF)
    gr = g.Grid(cells=(32,))
    cfg = solver.SolverConfig(t_end=1.0, source=sol)
    r0, u0, th0 = sol.on_grid(gr, 0.0)
    state = solver.FlowState(grid=gr, rho=r0, u=u0, theta=th0, t=0.0)
    for _ in range(100):
        state = solver.step(state, cfg, PG, AFF, sol.boundary)
    assert np.max(np.abs(state.rho - 1.0)) < 1e-12
    assert np.max(np.abs(state.theta - 1.0)) < 1e-12
    assert np.max(np.abs(state.u)) < 1e-12


def test_conduction_rhs_nets_to_zero_with_forcing():
    # linear theta profile with constant kappa: discrete fluxes reproduce the
    # analytic balance exactly, so tendencies + forcing cancel to round-off
    const_kappa = transport.PowerKappa(kappa2=0.0)
    sol = mfg.manufactured("conduction", PG, const_kappa)
    gr = g.Grid(cells=(24,))
    r0, u0, th0 = sol.on_grid(gr, 0.0)
    st = solver.FlowState(grid=gr, rho=r0, u=u0, theta=th0, t=0.0)
    cfg = solver.SolverConfig(t_end=0.1, source=sol)
    dr, dm, de = solver.rhs(st, PG, const_kappa, sol.boundary, cfg)
    assert np.max(np.abs(dr)) < 1e-13
    assert np.max(np.abs(dm)) < 1e-13
    assert np.max(np.abs(de)) < 1e-13


def test_mms_convergence_order_at_least_0p9():
    errs = []
    for n in (32, 64):
        gr = g.Grid(cells=(n,))
        sol = mfg.manufactured("shear", PG, AFF)
        cfg = solver.SolverConfig(t_end=0.1, source=sol, save_every=10**9)
        traj = solver.simulate(gr, cfg, PG, AFF)
        re, ue, te = sol.on_grid(gr, traj.times[-1])
        err = np.sqrt(g.integrate(gr, (traj.rho[-1] - re) ** 2
                                  + np.sum((traj.u[-1] - ue) ** 2, axis=-1)
                                  + (traj.theta[-1] - te) ** 2))
        errs.append(err)
    order = np.log2(errs[0] / errs[1])
    assert order > 0.9


def test_mms_2d_molecular_radiation_tracks_profile():
    sol = mfg.manufactured("radiative_decay", MR, PK)
    gr = g.Grid(cells=(16, 16))
    cfg = solver.SolverConfig(t_end=0.02, source=sol, save_every=10**9)
    traj = solver.simulate(gr, cfg, MR, PK)
    re, ue, te = sol.on_grid(gr, traj.times[-1])
    err = np.sqrt(g.integrate(gr, (traj.rho[-1] - re) ** 2
                              + np.sum((traj.u[-1] - ue) ** 2, axis=-1)
                              + (traj.theta[-1] - te) ** 2))
    assert err < 0.02


def test_mass_conserved_without_mass_forcing():
    gr, st = _decay_state()
    cfg = solver.SolverConfig(t_end=0.1, save_every=5)
    traj = solver.simulate(gr, cfg, PG, AFF, boundary=g.constant_boundary(1.0), initial=st)
    series = traj.conserved_series()
    assert np.max(np.abs(series["mass"] - series["mass"][0])) < 1e-13


def test_entropy_production_nonnegative_along_run():
    gr, st = _decay_state()
    cfg = solver.SolverConfig(t_end=0.05, save_every=1)
    traj = solver.simulate(gr, cfg, PG, AFF, boundary=g.constant_boundary(1.0), initial=st)
    for k in range(traj.n_levels):
        rho_f, u_f, th_f = g.sync_physical(gr, traj.rho[k], traj.u[k], traj.theta[k],
                                           traj.boundary, float(traj.times[k]))
        sigma = transport.entropy_production_density(
            AFF, traj.rho[k], traj.theta[k],
            transport.sym_part(g.grad_vector(u_f).interior),
            g.gradient(th_f).interior)
        assert np.min(sigma) >= 0.0


def test_positivity_breach_in_flux_assembly():
    gr = g.Grid(cells=(8,))
    theta = np.full(8, 3.0)  # ghost = 2*1 - 3 < 0 at the Dirichlet wall
    st = solver.FlowState(grid=gr, rho=np.ones(8), u=np.zeros((8, 1)), theta=theta, t=0.0)
    with pytest.raises(solver.PositivityError, match="flux assembly"):
        solver.rhs(st, PG, AFF, g.constant_boundary(1.0))


def test_dt_underflow_raises():
    gr, st = _decay_state(n=16)
    cfg = solver.SolverConfig(t_end=0.1)
    with pytest.raises(solver.PositivityError, match="underflow"):
        solver.step(st, cfg, PG, AFF, g.constant_boundary(1.0), dt=1e-20)


def test_simulate_requires_boundary_or_source():
    gr, st = _decay_state(n=16)
    cfg = solver.SolverConfig(t_end=0.01)
    with pytest.raises(ValueError, match="boundary"):
        solver.simulate(gr, cfg, PG, AFF, initial=st)


def test_save_every_levels():
    gr, st = _decay_state(n=16)
    cfg = solver.SolverConfig(t_end=0.02, save_every=3)
    traj = solver.simulate(gr, cfg, PG, AFF, boundary=g.constant_boundary(1.0), initial=st)
    assert traj.n_levels >= 2
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(0.02, abs=1e-12)
    assert np.all(np.diff(traj.times) > 0)
