"""Solver behavior: fixed points, convergence under refinement, failure paths."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

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
            transport.sym_part(g.grad_vector(u_f)),
            g.gradient(th_f))
        assert np.min(sigma) >= 0.0


def test_positivity_breach_in_flux_assembly():
    gr = g.Grid(cells=(8,))
    theta = np.full(8, 3.0)  # ghost = 2*1 - 3 < 0 at the Dirichlet wall
    st = solver.FlowState(grid=gr, rho=np.ones(8), u=np.zeros((8, 1)), theta=theta, t=0.0)
    # the first offending ghost-padded cell is the left wall ghost, 2*1 - 3
    with pytest.raises(solver.PositivityError,
                       match=r"flux assembly.*cell \(0,\): rho = 1\.0, theta = -1\.0"):
        solver.rhs(st, PG, AFF, g.constant_boundary(1.0))


def test_positivity_loss_before_flux_assembly_names_the_cell():
    gr, st = _decay_state(n=16)
    theta = st.theta.copy()
    theta[[5, 9]] = [-0.25, 0.0]
    bad = solver.FlowState(grid=gr, rho=st.rho, u=st.u, theta=theta, t=0.0)
    with pytest.raises(solver.PositivityError,
                       match=r"before flux assembly at cell \(5,\): rho = .*, theta = -0\.25"):
        solver.rhs(bad, PG, AFF, g.constant_boundary(1.0))


@given(hst.sampled_from([PG, MR]), hst.lists(hst.integers(4, 12), min_size=1, max_size=2),
       hst.booleans(), hst.floats(-2.0, 1.0), hst.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_decode_rejects_one_nonpositive_cell(model, cells, bad_rho, frac, seed):
    # one cell with rho <= floor (bad_rho) or e <= 0 makes the stage state
    # undecodable: _decode says so with None instead of raising
    rng = np.random.default_rng(seed)
    gr = g.Grid(cells=tuple(cells))
    floor = 1e-10
    rho = rng.uniform(0.1, 5.0, size=gr.interior_shape())
    mom = rng.uniform(-2.0, 2.0, size=gr.interior_shape((gr.dim,)))
    rhoe = rng.uniform(0.1, 5.0, size=gr.interior_shape())
    cell = tuple(int(rng.integers(n)) for n in gr.cells)
    if bad_rho:
        rho[cell] = frac * floor
    else:
        rhoe[cell] = min(frac, 0.0) * rho[cell]
    theta_guess = np.ones(gr.interior_shape())
    assert solver._decode(gr, rho, mom, rhoe, 0.0, model, theta_guess, floor) is None


def _steep_state():
    # density jump 1 -> 0.05 under an outflowing velocity: a dt far above
    # the stable one empties the light cells
    gr = g.Grid(cells=(16,))
    x = gr.centers(0)
    return solver.FlowState(grid=gr, rho=np.where(x < 0.5, 1.0, 0.05),
                            u=np.sin(np.pi * x)[:, None], theta=np.ones(16), t=0.0)


def test_step_halves_dt_once_after_a_positivity_breach():
    st = _steep_state()
    cfg = solver.SolverConfig(t_end=1.0)
    bc = g.constant_boundary(1.0)
    dt = 0.02
    assert dt > 100.0 * solver.stable_dt(st, cfg, PG, AFF)
    assert solver._attempt(st, dt, cfg, PG, AFF, bc) is None
    out = solver.step(st, cfg, PG, AFF, bc, dt=dt)
    assert out.t == 0.5 * dt
    half = solver._attempt(st, 0.5 * dt, cfg, PG, AFF, bc)
    assert np.array_equal(out.rho, half.rho) and np.array_equal(out.theta, half.theta)
    with pytest.raises(solver.PositivityError, match="positivity failure after halving dt once"):
        solver.step(st, cfg, PG, AFF, bc, dt=0.06)


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
