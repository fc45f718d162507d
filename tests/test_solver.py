"""Solver behavior: fixed points, convergence under refinement, failure paths."""

import json
import os
from dataclasses import replace

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


def _rhs_case(name):
    """A fixed state and its models: 2D molecular radiation with the
    radiative_decay forcing on a non-square grid, or 1D perfect gas with an
    affine wall temperature and no forcing.  The perturbations are integer
    patterns, so the state is exact."""
    if name == "mr_pk_2d":
        sol = mfg.manufactured("radiative_decay", MR, PK)
        gr = g.Grid(cells=(8, 6))
        rho, u, theta = sol.on_grid(gr, 0.3)
        i, j = np.indices(gr.cells)
        rho = rho * (1.0 + 0.01 * ((3 * i + 5 * j) % 7) / 7.0)
        u = u + 0.02 * np.stack([((i + 2 * j) % 5 - 2) / 5.0, ((2 * i + j) % 3 - 1) / 3.0], axis=-1)
        theta = theta * (1.0 + 0.01 * ((2 * i + 3 * j) % 4) / 4.0)
        st = solver.FlowState(grid=gr, rho=rho, u=u, theta=theta, t=0.3)
        return st, MR, PK, sol.boundary, solver.SolverConfig(source=sol)
    gr = g.Grid(cells=(10,))
    i = np.arange(10)
    st = solver.FlowState(grid=gr, rho=1.0 + 0.1 * (i % 3),
                          u=(0.05 * ((3 * i) % 4 - 1.5))[:, None],
                          theta=1.0 + 0.05 * ((7 * i) % 5), t=0.0)
    return st, PG, AFF, g.affine_boundary(1.0, 0.5), None


def _rhs_of_case(name):
    st, model, tm, bc, cfg = _rhs_case(name)
    return dict(zip(("drho", "dmom", "drhoe", "rhoe"), solver.rhs(st, model, tm, bc, cfg)))


with open(os.path.join(os.path.dirname(__file__), "golden", "rhs.json"), encoding="utf-8") as fh:
    RHS_PINNED = json.load(fh)


@pytest.mark.parametrize("name", sorted(RHS_PINNED))
def test_rhs_matches_golden_bits(name):
    # golden/rhs.json holds the tendencies of _rhs_case written by json (repr
    # round-trip floats): a refactor of rhs must keep every bit; the state's
    # rho*e, returned fourth, is the one the equation of state gives
    got = _rhs_of_case(name)
    st, model = _rhs_case(name)[:2]
    assert got["rhoe"].tobytes() == (st.rho * model.e(st.rho, st.theta)).tobytes()
    for key, want in RHS_PINNED[name].items():
        want = np.asarray(want, dtype=float)
        assert got[key].shape == want.shape, key
        assert np.array_equal(got[key], want), (
            f"{name} {key}: {np.count_nonzero(got[key] != want)} values moved")


with open(os.path.join(os.path.dirname(__file__), "golden", "step.json"), encoding="utf-8") as fh:
    STEP_PINNED = json.load(fh)


@pytest.mark.parametrize("name", sorted(STEP_PINNED))
def test_step_matches_golden_bits(name):
    # golden/step.json holds one whole step of _rhs_case (default config for
    # the unforced case): the dt stable_dt chooses and the state step makes
    # from it.  Every bit must hold, so a drift in the ghost fill, the
    # operators, stable_dt or the temperature inversion fails here
    st, model, tm, bc, cfg = _rhs_case(name)
    cfg = cfg or solver.SolverConfig()
    pin = STEP_PINNED[name]
    assert solver.stable_dt(st, cfg, model, tm) == pin["dt"]
    new = solver.step(st, cfg, model, tm, bc)
    assert new.t == pin["t"]
    for key in ("rho", "u", "theta"):
        want = np.asarray(pin[key], dtype=float)
        assert getattr(new, key).shape == want.shape, key
        assert getattr(new, key).tobytes() == want.tobytes(), (
            f"{name} {key}: {np.count_nonzero(getattr(new, key) != want)} values moved")


def test_constant_state_rhs_is_zero():
    gr = g.Grid(cells=(16,))
    st = solver.FlowState(grid=gr, rho=np.full(16, 2.0), u=np.zeros((16, 1)),
                          theta=np.full(16, 1.5), t=0.0)
    dr, dm, de, _ = solver.rhs(st, PG, AFF, g.constant_boundary(1.5))
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
    dr, dm, de, _ = solver.rhs(st, PG, const_kappa, sol.boundary, cfg)
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
    # undecodable: _decode raises, naming the quantity, that cell and its value
    rng = np.random.default_rng(seed)
    gr = g.Grid(cells=tuple(cells))
    floor = 1e-10
    rho = rng.uniform(0.1, 5.0, size=gr.interior_shape())
    mom = rng.uniform(-2.0, 2.0, size=gr.interior_shape((gr.dim,)))
    rhoe = rng.uniform(0.1, 5.0, size=gr.interior_shape())
    cell = tuple(int(rng.integers(n)) for n in gr.cells)
    if bad_rho:
        rho[cell] = frac * floor
        what, value = f"rho <= floor ({floor!r})", f"rho = {float(rho[cell])!r}"
    else:
        rhoe[cell] = min(frac, 0.0) * rho[cell]
        what, value = "e <= 0", f"e = {float(rhoe[cell] / rho[cell])!r}"
    theta_guess = np.ones(gr.interior_shape())
    with pytest.raises(solver.PositivityError) as info:
        solver._decode(gr, rho, mom, rhoe, 0.0, model, theta_guess, floor)
    assert str(info.value) == f"stage state has {what} at cell {cell}: {value}"


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
    with pytest.raises(solver.PositivityError, match=r"stage state has .* at cell \("):
        solver._attempt(st, dt, cfg, PG, AFF, bc)
    out = solver.step(st, cfg, PG, AFF, bc, dt=dt)
    assert out.t == 0.5 * dt
    half = solver._attempt(st, 0.5 * dt, cfg, PG, AFF, bc)
    assert np.array_equal(out.rho, half.rho) and np.array_equal(out.theta, half.theta)
    with pytest.raises(solver.PositivityError) as info:
        solver.step(st, cfg, PG, AFF, bc, dt=0.06)
    _, half_error = _attempt_or_error(st, 0.03, cfg, PG, AFF, bc)
    assert half_error.startswith("stage state has ")
    assert str(info.value) == "positivity failure after halving dt once: " + half_error


def _attempt_or_error(*args):
    try:
        return solver._attempt(*args), None
    except solver.PositivityError as err:
        return None, str(err)


@given(hst.sampled_from([PG, MR]), hst.integers(8, 16), hst.floats(0.02, 1.0),
       hst.floats(0.0, 1.5), hst.floats(0.0, 3.0))
@settings(max_examples=40, deadline=None)
def test_step_is_the_full_or_the_halved_attempt(model, n, rho_right, amp_u, log_factor):
    # step either returns _attempt(dt) or, when that fails, _attempt(dt/2),
    # bit for bit, or raises "after halving dt once" with the halved
    # attempt's own error
    gr = g.Grid(cells=(n,))
    x = gr.centers(0)
    st = solver.FlowState(grid=gr, rho=np.where(x < 0.5, 1.0, rho_right),
                          u=amp_u * np.sin(np.pi * x)[:, None], theta=np.ones(n), t=0.0)
    cfg = solver.SolverConfig(t_end=1.0)
    bc = g.constant_boundary(1.0)
    dt = 10.0**log_factor * solver.stable_dt(st, cfg, model, AFF)
    full, _ = _attempt_or_error(st, dt, cfg, model, AFF, bc)
    half, half_error = _attempt_or_error(st, 0.5 * dt, cfg, model, AFF, bc)
    expected = full if full is not None else half
    if expected is None:
        with pytest.raises(solver.PositivityError) as info:
            solver.step(st, cfg, model, AFF, bc, dt=dt)
        assert str(info.value) == "positivity failure after halving dt once: " + half_error
        return
    out = solver.step(st, cfg, model, AFF, bc, dt=dt)
    assert out.t == expected.t
    for key in ("rho", "u", "theta"):
        assert getattr(out, key).tobytes() == getattr(expected, key).tobytes(), key


@pytest.mark.parametrize("model", [PG, MR], ids=["perfect_gas", "molecular_radiation"])
@pytest.mark.parametrize("what", ["rho", "e"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_decode_rejects_a_non_finite_stage_cell(model, what, bad):
    # NaN fails every comparison, so bounds alone let it through; a
    # non-finite rho or e is refused by name, as a positivity failure that
    # step retries at dt/2
    gr = g.Grid(cells=(6, 5))
    rho, rhoe = np.full(gr.cells, 1.2), np.full(gr.cells, 2.0)
    (rho if what == "rho" else rhoe)[3, 1] = bad
    value = bad if what == "rho" else bad / 1.2
    with pytest.raises(solver.PositivityError) as info:
        solver._decode(gr, rho, np.zeros(gr.cells + (2,)), rhoe, 0.0, model,
                       np.ones(gr.cells), 1e-10)
    assert str(info.value) == (f"stage state has non-finite {what} at cell (3, 1): "
                               f"{what} = {value!r}")


def test_step_retries_a_stage_that_turns_non_finite(monkeypatch):
    gr, st = _decay_state(n=16)
    cfg = solver.SolverConfig(t_end=1.0)
    bc = g.constant_boundary(1.0)
    dt = solver.stable_dt(st, cfg, PG, AFF)
    half = solver._attempt(st, 0.5 * dt, cfg, PG, AFF, bc)
    rhs, calls = solver.rhs, []

    def spoiled(state, *args):
        # the second stage of the first attempt sends cell 4 to NaN
        out = rhs(state, *args)
        calls.append(state.t)
        if len(calls) == 2:
            out[0][4] = np.nan
        return out

    monkeypatch.setattr(solver, "rhs", spoiled)
    out = solver.step(st, cfg, PG, AFF, bc, dt=dt)
    assert len(calls) == 4 and out.t == half.t == 0.5 * dt
    for key in ("rho", "u", "theta"):
        assert getattr(out, key).tobytes() == getattr(half, key).tobytes(), key


def test_rhs_refuses_a_non_finite_state():
    gr, st = _decay_state(n=16)
    theta = st.theta.copy()
    theta[6] = np.nan
    bad = solver.FlowState(grid=gr, rho=st.rho, u=st.u, theta=theta, t=0.0)
    with pytest.raises(solver.PositivityError,
                       match=r"before flux assembly at cell \(6,\): rho = .*, theta = nan"):
        solver.rhs(bad, PG, AFF, g.constant_boundary(1.0))


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


def _decay_run(save_every=1, max_steps=200_000):
    gr, st = _decay_state(n=16)
    cfg = solver.SolverConfig(t_end=0.02, save_every=save_every, max_steps=max_steps)
    return (gr, cfg, PG, AFF), {"boundary": g.constant_boundary(1.0), "initial": st}


def _forced_run(save_every=1):
    sol = mfg.manufactured("radiative_decay", MR, PK)
    cfg = solver.SolverConfig(t_end=0.015, source=sol, save_every=save_every)
    return (g.Grid(cells=(8, 6)), cfg, MR, PK), {}


def _assert_stack_of(traj, states):
    assert traj.times.tobytes() == np.asarray([s.t for s in states]).tobytes()
    for name in ("rho", "u", "theta"):
        assert getattr(traj, name).tobytes() == np.stack(
            [getattr(s, name) for s in states]).tobytes(), name


@pytest.mark.parametrize("make", [_decay_run, _forced_run], ids=["decay-1d", "forced-2d"])
def test_simulate_stacks_the_streamed_levels_bit_for_bit(make):
    args, kwargs = make()
    n_steps = len(list(solver.levels(*args, **kwargs))) - 1
    assert n_steps >= 5
    # every step, a stride with a partial last save, and only the ends
    for save_every in (1, n_steps - 2, 10**9):
        assert save_every == 1 or n_steps % save_every != 0
        args, kwargs = make(save_every)
        states = list(solver.levels(*args, **kwargs))
        assert len(states) == 2 + (n_steps - 1) // save_every
        if "initial" in kwargs:
            assert states[0] is kwargs["initial"]
        _assert_stack_of(solver.simulate(*args, **kwargs), states)


def test_levels_and_simulate_stop_at_max_steps():
    args, kwargs = _decay_run(max_steps=3)
    states = []
    with pytest.raises(RuntimeError, match=r"^exceeded max_steps = 3$"):
        for state in solver.levels(*args, **kwargs):
            states.append(state)
    assert len(states) == 4  # the initial state and three steps
    with pytest.raises(RuntimeError, match=r"^exceeded max_steps = 3$"):
        solver.simulate(*args, **kwargs)
    full = solver.simulate(*_decay_run()[0], **kwargs)
    _assert_stack_of(replace(full, times=full.times[:4], rho=full.rho[:4], u=full.u[:4],
                             theta=full.theta[:4]), states)


def test_save_every_levels():
    gr, st = _decay_state(n=16)
    cfg = solver.SolverConfig(t_end=0.02, save_every=3)
    traj = solver.simulate(gr, cfg, PG, AFF, boundary=g.constant_boundary(1.0), initial=st)
    assert traj.n_levels >= 2
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(0.02, abs=1e-12)
    assert np.all(np.diff(traj.times) > 0)
