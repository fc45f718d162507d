"""Acceptance suite: eleven shipped guarantees, one test and verdict each.

Every tolerance is pinned here as a literal so this module reads as the
contract.  All runs stay at desk scale (1D grids at or below 512 cells, 2D
at or below 64 per axis) and the whole module finishes well under a minute.
Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion.
"""

import math

import numpy as np
import pytest

from nsflab import cli, experiments, relenergy, solver, testfuns, thermo, transport, young
from nsflab import grid as gridmod
from nsflab.manufactured import grid_points, manufactured

# pinned tolerances and sample sizes
GIBBS_TOL = 1e-8
GIBBS_SAMPLES = 10_000
CONVEXITY_TRIALS = 10_000
EQUIVALENCE_TOL = 1e-9
EQUIVALENCE_PAIRS = 1_000
COERCIVITY_ATOMS = 100_000
COERCIVITY_DELTA = 0.1
R2_EPS = (1e-1, 1e-2, 1e-3)
R2_SLOPE_BAND = (1.9, 2.1)
# first-order decay asserted with the same +-5% fit band the slope checks
# above use; two-level order estimates carry that much pre-asymptotic drift
RESIDUAL_ORDER_MIN = 0.95
EQUILIBRIUM_FLOOR = 1e-10
GROWTH_ENVELOPE = 1.2
C_EPS_BAND = 0.2
C_GRID_BAND = 0.3
COLLAPSE_WITNESS = 1e-4
DEFECT_REL_TOL = 0.05
THETA_SPREAD_TOL = 0.05

PG = thermo.PerfectGas(c_v=1.5)
MR = thermo.MolecularRadiation(a=1.0)
AT = transport.AffineTheta()
PK = transport.PowerKappa()

SHIPPED_MODELS = (
    thermo.PerfectGas(c_v=1.5),
    thermo.PerfectGas(c_v=2.5),
    thermo.MolecularRadiation(a=1.0, kernel=thermo.kernel_by_name("degenerate")),
    thermo.MolecularRadiation(a=0.5, kernel=thermo.kernel_by_name("ideal")),
)


def _log_uniform(rng, n, lo=1e-3, hi=1e3):
    return np.exp(rng.uniform(np.log(lo), np.log(hi), n))


def test_criterion_01_gibbs_relation_residuals():
    rng = np.random.default_rng(1)
    worst = 0.0
    for model in SHIPPED_MODELS:
        rho = _log_uniform(rng, GIBBS_SAMPLES)
        theta = _log_uniform(rng, GIBBS_SAMPLES)
        r_theta, r_rho = thermo.gibbs_residual(model, rho, theta)
        peak = max(float(np.max(np.abs(r_theta))), float(np.max(np.abs(r_rho))))
        assert peak <= GIBBS_TOL, f"{type(model).__name__}: {peak:.3e}"
        worst = max(worst, peak)
    print(f"criterion 1: PASS - gibbs residuals <= {worst:.2e} "
          f"on {GIBBS_SAMPLES} states per model (tol {GIBBS_TOL:.0e})")


def test_criterion_02_stability_and_convexity():
    rng = np.random.default_rng(2)
    for model in SHIPPED_MODELS:
        rep = thermo.validate_structure(model, n_samples=CONVEXITY_TRIALS)
        assert rep.ok, rep.first_violation
        assert rep.checks["stability_dp_drho"] == 0
        assert rep.checks["stability_de_dtheta"] == 0
        assert rep.checks["convexity_violations"] == 0
        # Bregman nonnegativity on independent state pairs
        rho = _log_uniform(rng, CONVEXITY_TRIALS)
        theta = _log_uniform(rng, CONVEXITY_TRIALS)
        rho_ref = _log_uniform(rng, CONVEXITY_TRIALS, 1e-2, 1e2)
        theta_ref = _log_uniform(rng, CONVEXITY_TRIALS, 1e-2, 1e2)
        u = rng.uniform(-5.0, 5.0, (CONVEXITY_TRIALS, 1))
        u_ref = rng.uniform(-5.0, 5.0, (CONVEXITY_TRIALS, 1))
        dist = relenergy.rel_energy_density(model, rho, theta, u,
                                            rho_ref, theta_ref, u_ref)
        assert int(np.sum(dist < 0.0)) == 0
    print(f"criterion 2: PASS - stability signs, convexity and Bregman "
          f"nonnegativity clean over {CONVEXITY_TRIALS} trials per model")


def test_criterion_03_bregman_equivalence():
    rng = np.random.default_rng(3)
    worst = 0.0
    for model in (PG, MR):
        rho = _log_uniform(rng, EQUIVALENCE_PAIRS)
        theta = _log_uniform(rng, EQUIVALENCE_PAIRS)
        rho_ref = _log_uniform(rng, EQUIVALENCE_PAIRS, 1e-2, 1e2)
        theta_ref = _log_uniform(rng, EQUIVALENCE_PAIRS, 1e-2, 1e2)
        u = rng.uniform(-5.0, 5.0, (EQUIVALENCE_PAIRS, 1))
        u_ref = rng.uniform(-5.0, 5.0, (EQUIVALENCE_PAIRS, 1))
        gap = relenergy.bregman_equivalence_check(model, rho, theta, u,
                                                  rho_ref, theta_ref, u_ref)
        assert gap <= EQUIVALENCE_TOL, f"{type(model).__name__}: {gap:.3e}"
        worst = max(worst, gap)
    print(f"criterion 3: PASS - conservative-variable and direct relative "
          f"energies agree to {worst:.2e} on {EQUIVALENCE_PAIRS} pairs "
          f"(tol {EQUIVALENCE_TOL:.0e})")


def test_criterion_04_coercivity_constant():
    rng = np.random.default_rng(4)
    params = relenergy.CutoffParams(delta=COERCIVITY_DELTA)
    constants = []
    for model in (PG, MR):
        rho = _log_uniform(rng, COERCIVITY_ATOMS)
        theta = _log_uniform(rng, COERCIVITY_ATOMS)
        u = rng.uniform(-5.0, 5.0, (COERCIVITY_ATOMS, 1))
        rep = relenergy.coercivity_check(model, params, (1.0, 1.0, np.array([0.3])),
                                         rho, theta, u)
        assert rep.c > 0.0
        assert rep.violations.size == 0
        assert rep.n_used == COERCIVITY_ATOMS
        constants.append(rep.c)
    print(f"criterion 4: PASS - coercivity constants "
          f"{', '.join(f'{c:.3e}' for c in constants)} > 0 over "
          f"{COERCIVITY_ATOMS} atoms, zero counterexamples")


def test_criterion_05_quadratic_remainder_slope():
    sol = manufactured("shear", PG, AT)
    grid = gridmod.Grid(cells=(64,))
    x = grid_points(grid)[..., 0]
    rho0, u0, th0 = sol.on_grid(grid, 0.0)
    bump_r, bump = np.sin(2 * np.pi * x), np.sin(np.pi * x)
    integrals = []
    for eps in R2_EPS:
        traj = solver.Trajectory(
            grid=grid, times=np.array([0.0]),
            rho=(rho0 + eps * bump_r)[None],
            u=(u0 + eps * bump[..., None])[None],
            theta=(th0 + eps * bump)[None],
            model=PG, transport_model=AT, boundary=sol.boundary,
            cfg=solver.SolverConfig(t_end=1.0))
        V = young.dirac_from_trajectory(traj)
        field = relenergy.remainder_R2(V, sol, PG, AT, 0.0)
        integrals.append(abs(float(gridmod.integrate(grid, field.interior))))
    slope = float(np.polyfit(np.log(R2_EPS), np.log(integrals), 1)[0])
    assert R2_SLOPE_BAND[0] <= slope <= R2_SLOPE_BAND[1]
    print(f"criterion 5: PASS - quadratic remainder slope {slope:.3f} in "
          f"[{R2_SLOPE_BAND[0]}, {R2_SLOPE_BAND[1]}]")


def _clause_residuals(n: int) -> dict[str, float]:
    sol = manufactured("shear", PG, AT)
    grid = gridmod.Grid(cells=(n,))
    cfg = solver.SolverConfig(t_end=0.02, source=sol, save_every=2)
    traj = solver.simulate(grid, cfg, PG, AT, boundary=sol.boundary)
    V = young.dirac_from_trajectory(traj)
    ref = testfuns.theta_ref_from_strong(sol)
    return {
        "continuity": young.continuity_residual(
            V, testfuns.scalar_tests(1), source=sol).max_abs,
        "momentum": young.momentum_residual(
            V, testfuns.velocity_tests(1), PG, AT, source=sol).max_abs,
        "velocity_compat": young.check_velocity_compat(
            V, testfuns.tensor_tests(1)).max_abs,
        "temperature_compat": young.check_temperature_compat(
            V, testfuns.flux_tests(1), ref, boundary=sol.boundary).max_abs,
    }


def test_criterion_06_compatibility_residuals_refine():
    coarse, fine = _clause_residuals(32), _clause_residuals(64)
    orders = {}
    for name in coarse:
        assert fine[name] > 0.0
        orders[name] = math.log2(coarse[name] / fine[name])
        assert orders[name] >= RESIDUAL_ORDER_MIN, f"{name}: {orders[name]:.3f}"

    eq = manufactured("equilibrium", PG, AT, dim=1)
    grid = gridmod.Grid(cells=(32,))
    V = young.dirac_from_strong(eq, grid, [0.0, 0.01, 0.02])
    ref = testfuns.theta_ref_from_strong(eq)
    floors = {
        "continuity": young.continuity_residual(
            V, testfuns.scalar_tests(1), source=eq).max_abs,
        "momentum": young.momentum_residual(
            V, testfuns.velocity_tests(1), PG, AT, source=eq).max_abs,
        "velocity_compat": young.check_velocity_compat(
            V, testfuns.tensor_tests(1)).max_abs,
        "temperature_compat": young.check_temperature_compat(
            V, testfuns.flux_tests(1), ref, boundary=eq.boundary).max_abs,
    }
    for name, value in floors.items():
        assert value <= EQUILIBRIUM_FLOOR, f"{name}: {value:.3e}"
    order_text = ", ".join(f"{k} {v:.2f}" for k, v in orders.items())
    print(f"criterion 6: PASS - residual orders [{order_text}] >= "
          f"{RESIDUAL_ORDER_MIN}; equilibrium floors <= "
          f"{max(floors.values()):.1e}")


def _inequality_slacks(profile: str, n: int) -> tuple[float, float]:
    sol = manufactured(profile, PG, AT)
    grid = gridmod.Grid(cells=(n,))
    rho0, u0, th0 = sol.on_grid(grid, 0.0)
    init = solver.FlowState(grid=grid, rho=rho0, u=u0, theta=th0, t=0.0)
    cfg = solver.SolverConfig(t_end=0.02, save_every=2)
    traj = solver.simulate(grid, cfg, PG, AT, boundary=sol.boundary,
                           initial=init)
    V = young.dirac_from_trajectory(traj)
    ent = young.entropy_mv_residual(V, testfuns.entropy_tests(1), PG, AT).min
    ball = young.ballistic_mv_residual(
        V, 0.0, testfuns.theta_ref_from_strong(sol), PG, AT,
        boundary=sol.boundary).min
    return ent, ball


def test_criterion_07_entropy_and_ballistic_slack():
    summary = []
    for profile in ("conduction", "shear"):
        ent0, ball0 = _inequality_slacks(profile, 16)
        h0 = 1.0 / 16
        # the constant is calibrated once on the coarsest grid and reused
        c_ent = max(-ent0, 0.0) / h0 + 1e-12
        c_ball = max(-ball0, 0.0) / h0 + 1e-12
        for n in (32, 64):
            ent, ball = _inequality_slacks(profile, n)
            h = 1.0 / n
            assert ent >= -c_ent * h, f"{profile} entropy at {n}: {ent:.3e}"
            assert ball >= -c_ball * h, f"{profile} ballistic at {n}: {ball:.3e}"
        summary.append(f"{profile} C=({c_ent:.2e}, {c_ball:.2e})")
    print(f"criterion 7: PASS - entropy/ballistic slack >= -C*h with "
          f"coarse-calibrated constants [{'; '.join(summary)}]")


def test_criterion_08_collapse_and_perturbation_stability(claim_three_report):
    lines = []
    for theorem, model, tm in (("1", PG, AT), ("2", PG, AT), ("3", MR, PK)):
        if theorem == "3":  # MR/PK: the default study the session runs once
            rep = claim_three_report
        else:
            rep = experiments.run_theorem(experiments.ExperimentSpec(
                theorem=theorem, model=model, transport_model=tm))
        assert rep.gate.accepted
        assert rep.ok
        assert rep.dirac_order >= 1.0
        assert rep.dirac_sup[-1] <= COLLAPSE_WITNESS
        assert all(g <= GROWTH_ENVELOPE for g in rep.growth_factor)
        assert rep.c_spread <= C_EPS_BAND
        assert rep.c_grid_spread <= C_GRID_BAND
        lines.append(f"claim {theorem}: order "
                     f"{'inf' if math.isinf(rep.dirac_order) else f'{rep.dirac_order:.2f}'}, "
                     f"C spread {rep.c_spread:.1%}/{rep.c_grid_spread:.1%}")
    print(f"criterion 8: PASS - {'; '.join(lines)} (envelope {GROWTH_ENVELOPE}, "
          f"bands {C_EPS_BAND:.0%} eps / {C_GRID_BAND:.0%} grid)")


def _gate_expected(theorem: str, model, tm) -> bool:
    if isinstance(tm, transport.BoundedGeneral):
        return False
    if theorem in ("1", "defect"):
        return True
    if theorem == "2":
        return (isinstance(model, thermo.PerfectGas)
                and isinstance(tm, transport.AffineTheta))
    radiative = isinstance(model, thermo.MolecularRadiation)
    third_law = radiative and model.kernel.third_law
    if theorem == "3":
        if isinstance(tm, transport.AffineTheta):
            return third_law
        return third_law and tm.beta <= 2.0
    # the growth-budget claim needs the power-law conduction family
    if not isinstance(tm, transport.PowerKappa):
        return False
    return (third_law and tm.beta >= 2.0 and tm.mu1 > 0.0 and tm.kappa2 > 0.0)


def test_criterion_09_hypothesis_gates_exhaustive(tmp_path, capsys):
    models = (
        thermo.PerfectGas(c_v=1.5),
        thermo.MolecularRadiation(a=1.0),
        thermo.MolecularRadiation(a=1.0, kernel=thermo.kernel_by_name("ideal")),
    )
    transports = (
        transport.AffineTheta(),
        transport.PowerKappa(beta=2.0),
        transport.PowerKappa(beta=2.5),
        transport.PowerKappa(beta=1.5),
        transport.BoundedGeneral(),
    )
    checked = 0
    for theorem in experiments.THEOREM_IDS:
        for model in models:
            for tm in transports:
                gate = experiments.check_hypotheses(theorem, model, tm)
                want = _gate_expected(theorem, model, tm)
                assert gate.accepted == want, (theorem, model, tm, gate.reasons)
                if not gate.accepted:
                    assert gate.reasons and all(gate.reasons)
                checked += 1

    # steep conductivity growth in a uniqueness claim names the exponent
    steep = experiments.check_hypotheses("3", MR, transport.PowerKappa(beta=2.5))
    assert not steep.accepted and any("beta" in r for r in steep.reasons)
    # the same growth is admissible for the budget claim
    assert experiments.check_hypotheses("apriori", MR,
                                        transport.PowerKappa(beta=2.5)).accepted

    # constructor-level rejections carry their own diagnostics
    with pytest.raises(ValueError, match="c_v > 1"):
        thermo.PerfectGas(c_v=1.0)
    with pytest.raises(ValueError, match="c_v > 1"):
        thermo.PerfectGas(c_v=0.5)
    with pytest.raises(ValueError, match="quadratic"):
        thermo.MolecularRadiation(a=1.0, radiation_exponent=4)
    with pytest.raises(ValueError, match="a must be > 0"):
        thermo.MolecularRadiation(a=0.0)

    # the command line surfaces the gate verdict as a failing exit code
    assert cli.main(["wsu", "--theorem", "3", "--beta", "3",
                     "--out", str(tmp_path)]) == 1
    capsys.readouterr()  # swallow the gate message the command just printed
    print(f"criterion 9: PASS - {checked} gate combinations match the "
          f"admissibility table; invalid constructions rejected with "
          f"diagnostics")


def test_criterion_10_apriori_budget():
    spec = experiments.ExperimentSpec(theorem="apriori", model=MR,
                                      transport_model=PK)
    rep = experiments.run_apriori(spec)
    assert rep.gate.accepted
    assert rep.ok
    assert len(rep.cells) == 3
    assert not rep.needs_recalibration
    assert all(total <= rep.c_theta_b for total in rep.totals)
    assert rep.max_principle_margin > 0.0
    lo, hi = rep.harmonic_range
    assert rep.theta_b * (1.0 - 1e-12) <= lo <= hi
    assert hi <= rep.theta_b * (1.0 + rep.theta_tilt) * (1.0 + 1e-12)
    assert rep.entropy_bound_margin >= 0.0
    print(f"criterion 10: PASS - budget totals "
          f"{', '.join(f'{t:.4g}' for t in rep.totals)} <= "
          f"C(theta_B) = {rep.c_theta_b:.4g} on 3 levels; max principle "
          f"margin {rep.max_principle_margin:.2e} > 0")


def test_criterion_11_defect_study():
    spec = experiments.ExperimentSpec(theorem="defect", model=PG,
                                      transport_model=AT)
    rep = experiments.run_defect_study(spec)
    assert rep.gate.accepted
    assert rep.ok
    assert rep.smooth_vanishing
    assert rep.osc_rel_err <= DEFECT_REL_TOL
    assert rep.theta_spread <= THETA_SPREAD_TOL
    assert rep.compat_ok
    print(f"criterion 11: PASS - smooth defects vanish; oscillatory kinetic "
          f"defect within {rep.osc_rel_err:.2%} of the period average "
          f"(tol {DEFECT_REL_TOL:.0%}); reference spread "
          f"{rep.theta_spread:.2%}; compatibility margin "
          f"{rep.compat_margin:.3g}")
