"""Gate matrix and the three standing studies."""

import math
import os
import signal
import time
import weakref
from dataclasses import dataclass, field, replace

import numpy as np
import pytest

from conftest import CountingModel
from nsflab import experiments as ex
from nsflab import solver, thermo, transport, young

PG = thermo.PerfectGas(c_v=1.5)
MR = thermo.MolecularRadiation(a=1.0)
MR_IDEAL = thermo.MolecularRadiation(a=1.0, kernel=thermo.IDEAL_KERNEL)
AT = transport.AffineTheta()
PK = transport.PowerKappa()
PK_STEEP = transport.PowerKappa(beta=2.5)
PK_SHALLOW = transport.PowerKappa(beta=1.5)
BG = transport.BoundedGeneral()


# --------------------------------------------------------------------------
# hypothesis gate
# --------------------------------------------------------------------------


def _expected(theorem, model, tm):
    """Closed-form truth table for the gate, spelled independently."""

    if isinstance(tm, transport.BoundedGeneral):
        return False
    if theorem in ("1", "defect"):
        return True
    if theorem == "2":
        return isinstance(model, thermo.PerfectGas) and isinstance(tm, transport.AffineTheta)
    radiative = isinstance(model, thermo.MolecularRadiation) and model.kernel.third_law
    if theorem == "3":
        kappa_ok = (isinstance(tm, transport.AffineTheta)
                    or (isinstance(tm, transport.PowerKappa) and tm.beta <= 2.0))
        return radiative and kappa_ok
    # apriori
    return (radiative and isinstance(tm, transport.PowerKappa)
            and tm.beta >= 2.0 and tm.mu1 > 0.0 and tm.kappa2 > 0.0)


def test_gate_matrix_exhaustive():
    models = (PG, MR, MR_IDEAL)
    tms = (AT, PK, PK_STEEP, PK_SHALLOW, BG,
           transport.PowerKappa(mu1=0.0), transport.PowerKappa(kappa2=0.0))
    for theorem in ex.THEOREM_IDS:
        for model in models:
            for tm in tms:
                gate = ex.check_hypotheses(theorem, model, tm)
                want = _expected(theorem, model, tm)
                assert gate.accepted == want, (theorem, model, tm, gate.reasons)
                assert gate.theorem == theorem
                if gate.accepted:
                    assert gate.reasons == ()
                else:
                    assert len(gate.reasons) >= 1


def test_gate_reasons_name_the_breaking_step():
    r = ex.check_hypotheses("3", MR, PK_STEEP).reasons
    assert any("beta = 2.5 > 2" in m for m in r)
    r = ex.check_hypotheses("3", MR_IDEAL, PK).reasons
    assert any("third law" in m for m in r)
    r = ex.check_hypotheses("2", MR, AT).reasons
    assert any("p = rho*theta" in m for m in r)
    r = ex.check_hypotheses("2", PG, PK).reasons
    assert any("affine in temperature" in m for m in r)
    r = ex.check_hypotheses("1", PG, BG).reasons
    assert any("envelope" in m for m in r)
    r = ex.check_hypotheses("apriori", MR, AT).reasons
    assert any("grows too slowly" in m for m in r)
    r = ex.check_hypotheses("apriori", MR, PK_SHALLOW).reasons
    assert any("beta = 1.5 < 2" in m for m in r)
    r = ex.check_hypotheses("3", PG, PK).reasons
    assert any("a*theta**2" in m for m in r)


def test_gate_unknown_claim():
    with pytest.raises(ValueError, match="unknown claim id"):
        ex.check_hypotheses("4", PG, AT)


def test_spec_construction_runs_the_gate():
    with pytest.raises(ex.HypothesisGateError, match="rejected"):
        ex.ExperimentSpec(theorem="3", model=MR_IDEAL, transport_model=PK)
    try:
        ex.ExperimentSpec(theorem="3", model=MR, transport_model=PK_STEEP)
    except ex.HypothesisGateError as err:
        assert err.gate.theorem == "3"
        assert any("beta = 2.5" in m for m in err.gate.reasons)
    else:  # pragma: no cover - guard
        pytest.fail("steep conductivity growth must be rejected in uniqueness mode")


def test_model_constructors_reject_the_remaining_matrix_corners():
    # the gate never sees these: the constructors refuse to build the models
    with pytest.raises(ValueError):
        thermo.PerfectGas(c_v=1.0)
    with pytest.raises(ValueError):
        thermo.PerfectGas(c_v=0.5)
    with pytest.raises(ValueError, match="entropy flux|exponent"):
        thermo.MolecularRadiation(a=1.0, radiation_exponent=4)


def test_spec_validation():
    good = dict(theorem="1", model=PG, transport_model=AT)
    with pytest.raises(ValueError, match="strictly increasing"):
        ex.ExperimentSpec(grids=(64, 32), **good)
    with pytest.raises(ValueError, match="strictly increasing"):
        ex.ExperimentSpec(grids=(32, 32), **good)
    with pytest.raises(ValueError, match="perturbation sizes"):
        ex.ExperimentSpec(eps_list=(0.0,), **good)
    with pytest.raises(ValueError, match="^eps: a repeated perturbation size"):
        ex.ExperimentSpec(eps_list=(1e-2, 5e-3, 1e-2), **good)
    with pytest.raises(ValueError, match="t_end"):
        ex.ExperimentSpec(solver=solver.SolverConfig(t_end=-1.0), **good)
    with pytest.raises(ValueError, match="scale must be > 0"):
        ex.ExperimentSpec(theta_scale=0.0, **good)
    with pytest.raises(ValueError, match="tilt"):
        ex.ExperimentSpec(theta_tilt=1.5, **good)


def test_spec_refuses_ladders_the_claim_cannot_read(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a refused ladder runs nothing")

    monkeypatch.setattr(solver, "levels", refuse)
    for theorem, model, tm in (("1", PG, AT), ("2", PG, AT), ("3", MR, PK)):
        good = dict(theorem=theorem, model=model, transport_model=tm)
        for eps in ((), (1e-2,)):  # one size has no spread of the fitted constant
            with pytest.raises(ValueError, match="^eps: .* at least two perturbation sizes"):
                ex.ExperimentSpec(eps_list=eps, **good)
        with pytest.raises(ValueError, match="at least two grids"):
            ex.ExperimentSpec(grids=(32,), **good)
        assert ex.ExperimentSpec(grids=(16, 32), **good).grids == (16, 32)
    # one grid leaves the coarse-graining study nothing to compare, and a
    # budget constant calibrated on it is checked against itself; a fixed
    # constant makes one budget grid meaningful
    with pytest.raises(ValueError, match="^grids: claim 'defect' needs at least two grids"):
        ex.ExperimentSpec(theorem="defect", model=PG, transport_model=AT, grids=(64,))
    with pytest.raises(ValueError, match="^grids: claim 'apriori' needs at least two grids"):
        ex.ExperimentSpec(theorem="apriori", model=MR, transport_model=PK, grids=(8,))
    assert ex.ExperimentSpec(theorem="apriori", model=MR, transport_model=PK,
                             grids=(8,), c_fixed=1.0).grids == (8,)


def test_spec_keeps_the_gate_it_computes(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return check(*args)

    check = ex.check_hypotheses
    monkeypatch.setattr(ex, "check_hypotheses", counted)
    spec = ex.ExperimentSpec(theorem="3", model=MR, transport_model=PK)
    assert len(calls) == 1
    assert spec.gate.accepted and spec.gate is spec.gate
    assert len(calls) == 1


def test_spec_defaults_resolve_per_claim():
    s1 = ex.ExperimentSpec(theorem="1", model=PG, transport_model=AT)
    assert s1.profile == "shear"
    assert s1.grids == (32, 64)
    assert s1.eps_list == (1e-2, 1e-3)
    s3 = ex.ExperimentSpec(theorem="3", model=MR, transport_model=PK)
    assert s3.profile == "radiative_decay"
    assert s3.grids == (16, 32)
    assert s3.eps_list == (1e-1, 1e-2)
    sa = ex.ExperimentSpec(theorem="apriori", model=MR, transport_model=PK)
    assert sa.grids == (8, 16, 32)
    assert sa.profile == "radiative_decay"


# --------------------------------------------------------------------------
# sampled absorption bounds
# --------------------------------------------------------------------------


def test_radiation_flux_ratio_is_order_one_and_grows_with_coupling():
    r1 = ex._radiation_flux_ratio(1.0, 1.0)
    assert 1.0 < r1 < 4.0
    assert ex._radiation_flux_ratio(2.0, 1.0) > r1
    # vanishing coupling: no radiation entropy to transport
    assert ex._radiation_flux_ratio(1e-8, 1.0) < 0.1


def test_kernel_entropy_quotient_separates_the_kernels():
    assert ex._kernel_entropy_quotient(MR) <= 5.0
    assert ex._kernel_entropy_quotient(MR_IDEAL) > 50.0


@pytest.mark.parametrize("a, u_ref", [(1.0, 0.0), (1.0, 1.3), (2.0, 4.9), (1e-8, 1.0)])
def test_radiation_flux_ratio_sweep_keeps_the_one_shot_bits(a, u_ref):
    th, uu = np.meshgrid(np.geomspace(1e-6, 1e6, 601), np.linspace(-5.0, 5.0, 241),
                         indexing="ij")
    num = 2.0 * a * th * np.abs(uu)
    den = 0.25 * th * th + (uu - u_ref) ** 2 + 2.0 * a * th
    assert ex._radiation_flux_ratio(a, u_ref) == float(np.max(num / den))


@pytest.mark.parametrize("model", [MR, MR_IDEAL], ids=["third_law", "ideal"])
def test_kernel_entropy_quotient_sweep_keeps_the_one_shot_bits(model):
    r, th = np.meshgrid(np.geomspace(1e-4, 1e4, 401), np.geomspace(1e-4, 1e4, 401),
                        indexing="ij")
    q = r * th ** -1.5
    s_m = model.kernel.s(q)
    rho_e_m = 1.5 * th ** 2.5 * model.kernel.p(q)
    assert ex._kernel_entropy_quotient(model) == float(
        np.max(r * s_m ** 2 / (1.0 + r + rho_e_m)))


def test_sweep_max_is_exact_for_any_block_size():
    x, y = np.linspace(-3.0, 2.0, 23), np.geomspace(0.1, 10.0, 5)

    def f(a, b):
        return np.sin(a) * b

    one_shot = float(np.max(f(*np.meshgrid(x, y, indexing="ij"))))
    for rows in (1, 4, 22, 23, 100):
        assert ex._sweep_max(f, x, y, rows) == one_shot


def test_fit_order_handles_exact_and_algebraic_decay():
    h = np.array([0.1, 0.05, 0.025])
    assert ex._fit_order(h, np.zeros(3)) == math.inf
    assert ex._fit_order(h, 3.0 * h ** 2) == pytest.approx(2.0, abs=1e-12)


# --------------------------------------------------------------------------
# collapse and stability runners
# --------------------------------------------------------------------------


def test_run_theorem_rejects_mismatched_runner():
    sa = ex.ExperimentSpec(theorem="apriori", model=MR, transport_model=PK)
    with pytest.raises(ValueError, match="run_theorem handles"):
        ex.run_theorem(sa)
    s1 = ex.ExperimentSpec(theorem="1", model=PG, transport_model=AT)
    with pytest.raises(ValueError, match="run_apriori requires"):
        ex.run_apriori(s1)
    with pytest.raises(ValueError, match="run_defect_study requires"):
        ex.run_defect_study(s1)


def test_collapse_and_envelope_claim_one():
    rep = ex.run_theorem(ex.ExperimentSpec(theorem="1", model=PG,
                                           transport_model=AT))
    assert rep.ok
    assert rep.gate.accepted
    assert rep.dirac_sup[1] < rep.dirac_sup[0]
    assert rep.dirac_order >= 1.0
    assert all(g <= 1.2 for g in rep.growth_factor)
    assert rep.c_spread <= 0.2
    assert rep.c_grid_spread <= 0.3
    assert all(c < 0.0 for c in rep.gronwall_c)  # perturbations decay here
    assert rep.hypothesis_checks["state_window_ok"] == 1.0
    win = (0.25, 4.0, 0.25, 4.0)
    assert win[0] <= rep.hypothesis_checks["rho_min"]
    assert rep.hypothesis_checks["rho_max"] <= win[1]
    # initial energies scale quadratically in the perturbation size
    ratio = rep.e0[0] / rep.e0[1]
    assert ratio == pytest.approx((rep.eps[0] / rep.eps[1]) ** 2, rel=0.1)


def test_collapse_claim_two_steady_state_is_exact():
    rep = ex.run_theorem(ex.ExperimentSpec(theorem="2", model=PG,
                                           transport_model=AT))
    assert rep.ok
    # the comparison flow is a discrete fixed point: zero collapse error
    assert all(v == 0.0 for v in rep.dirac_sup)
    assert rep.dirac_order == math.inf
    assert rep.hypothesis_checks["entropy_cap_ok"] == 1.0
    assert rep.hypothesis_checks["temperature_chain_margin"] <= 1.0
    assert rep.hypothesis_checks["pressure_quotient_max"] < 1.0
    assert all(g <= 1.2 for g in rep.growth_factor)
    assert rep.c_spread <= 0.2


def test_collapse_claim_three_radiative(claim_three_report):
    rep = claim_three_report  # ex.run_theorem at theorem "3", MR, PK
    assert rep.ok
    assert rep.dirac_order >= 1.0
    assert rep.dirac_sup[1] < rep.dirac_sup[0]
    checks = rep.hypothesis_checks
    assert checks["kernel_third_law"] == 1.0
    assert checks["flux_absorption_max"] <= checks["flux_absorption_cap"]
    assert checks["entropy_quotient_max"] <= checks["entropy_quotient_cap"]
    assert checks["velocity_control_ratio"] <= checks["velocity_control_constant"]
    assert all(g <= 1.2 for g in rep.growth_factor)
    assert rep.c_spread <= 0.2
    assert rep.c_grid_spread <= 0.3


_SMALL_STUDIES = {
    "1": ex.ExperimentSpec(theorem="1", model=PG, transport_model=AT, grids=(16, 32),
                           solver=solver.SolverConfig(t_end=0.01, save_every=2)),
    "2": ex.ExperimentSpec(theorem="2", model=PG, transport_model=AT, grids=(16, 32),
                           solver=solver.SolverConfig(t_end=0.01, save_every=2)),
    "3": ex.ExperimentSpec(theorem="3", model=MR, transport_model=PK, grids=(8, 16),
                           solver=solver.SolverConfig(t_end=0.005, save_every=2)),
}


_SMALL_APRIORI = ex.ExperimentSpec(theorem="apriori", model=MR, transport_model=PK,
                                   grids=(8, 16))


@pytest.mark.parametrize("study", sorted(_SMALL_STUDIES) + ["apriori"])
def test_studies_hold_at_most_two_streamed_levels(study, monkeypatch):
    # one process, so the levels wrapper below sees every run
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    levels = solver.levels
    runs: list[list[weakref.ref]] = []

    def refuse(*args, **kwargs):
        raise AssertionError("the studies stream their levels; they stack no run")

    def tracked(*args, **kwargs):
        run: list[weakref.ref] = []
        runs.append(run)
        states = levels(*args, **kwargs)
        del args, kwargs  # they may hold the initial state
        for k, state in enumerate(states):
            # every level of an earlier run, and every level of this run
            # older than the previous one, is gone (no gc.collect)
            alive = [(i, j) for i, refs in enumerate(runs)
                     for j, ref in enumerate(refs) if ref() is not None]
            assert all(at == (len(runs) - 1, k - 1) for at in alive), (k, alive)
            run.append(weakref.ref(state))
            yield state

    monkeypatch.setattr(solver, "simulate", refuse)
    monkeypatch.setattr(solver, "levels", tracked)
    # every accepted step saved, so each run yields several levels
    every_step = solver.SolverConfig(t_end=0.005, save_every=1)
    if study == "apriori":
        ex.run_apriori(replace(_SMALL_APRIORI, solver=every_step))
        assert len(runs) == 2
    else:
        ex.run_theorem(replace(_SMALL_STUDIES[study], solver=every_step))
        assert len(runs) == 5  # two collapse runs, two perturbed, one coarse
    assert min(len(refs) for refs in runs) >= 3, [len(refs) for refs in runs]
    assert all(ref() is None for refs in runs for ref in refs)


def test_claim_three_folds_no_state_range(monkeypatch):
    # only claims 1 and 2 report the rho, theta and |s| ranges; claim 3's
    # verdict reads none, so no level is evaluated for its entropy alone
    _cpus(monkeypatch, 1)  # every run in this process, where the model counts
    model = CountingModel(a=1.0)
    rep = ex.run_theorem(replace(_SMALL_STUDIES["3"], model=model))
    assert len(rep.dirac_sup) == 2 and model.keys
    assert ("s",) not in model.keys


@dataclass(frozen=True)
class _KeyedGas(thermo.PerfectGas):
    """Perfect gas that records the keys of every ``partials`` call."""

    keys: list = field(default_factory=list, compare=False)

    def partials(self, rho, theta, keys=thermo.PARTIALS):
        self.keys.append(tuple(keys))
        return super().partials(rho, theta, keys)


@pytest.mark.parametrize("theorem", sorted(_SMALL_STUDIES))
def test_each_claim_reads_its_runs(theorem, monkeypatch):
    # which runs (collapse ladder, perturbed runs, coarse cross-check) each
    # claim reads, level by level: the keys of its entropy evaluations and
    # its velocity-control calls
    _cpus(monkeypatch, 1)  # every run in this process, where the spies count
    spec = _SMALL_STUDIES[theorem]
    if theorem != "3":
        spec = replace(spec, model=_KeyedGas(c_v=1.5))
    levels, control = solver.levels, ex._velocity_control_terms
    runs: list[dict] = []

    def tracked(*args, **kwargs):
        for state in levels(*args, **kwargs):
            runs[-1]["states"].append(state)
            yield state

    def started(*args, **kwargs):
        runs.append({"states": [], "at": len(getattr(spec.model, "keys", ())),
                     "control": []})
        return tracked(*args, **kwargs)

    def spied(state, sol):
        runs[-1]["control"].append(state.t)
        return control(state, sol)

    monkeypatch.setattr(solver, "levels", started)
    monkeypatch.setattr(ex, "_velocity_control_terms", spied)
    rep = ex.run_theorem(spec)
    assert len(runs) == 5  # two collapse runs, two perturbed, one coarse
    for i, run in enumerate(runs):
        n_levels = len(run["states"])
        assert n_levels >= 2
        if theorem == "3":
            expected = [state.t for state in run["states"]] if i == 2 else []
            assert run["control"] == expected, i
            continue
        assert run["control"] == []
        end = runs[i + 1]["at"] if i + 1 < len(runs) else len(spec.model.keys)
        keys = spec.model.keys[run["at"]:end]
        read = ("s", "e", "p") if theorem == "2" and i == 0 else ("s",)
        assert keys.count(read) == n_levels, (i, keys)
        assert {("s",), ("s", "e", "p")} & set(keys) == {read}, (i, keys)
    if theorem == "1":
        states = [state for run in runs for state in run["states"]]
        checks = rep.hypothesis_checks
        for name, values in (("rho", [s.rho for s in states]),
                             ("theta", [s.theta for s in states])):
            assert checks[f"{name}_min"] == min(float(np.min(v)) for v in values)
            assert checks[f"{name}_max"] == max(float(np.max(v)) for v in values)
    if theorem != "3":
        assert rep.hypothesis_checks["s_abs_max"] == max(
            float(np.max(np.abs(spec.model.s(s.rho, s.theta))))
            for run in runs for s in run["states"])


@pytest.mark.parametrize("theorem", sorted(_SMALL_STUDIES))
def test_claim_study_builds_no_gradient_atoms(theorem, monkeypatch):
    def refuse(traj):
        raise AssertionError("the claim studies read no gradient atoms")

    monkeypatch.setattr(young, "dirac_from_trajectory", refuse)
    rep = ex.run_theorem(_SMALL_STUDIES[theorem])
    assert len(rep.dirac_sup) == 2 and len(rep.gronwall_c) == 2


# --------------------------------------------------------------------------
# a priori budget
# --------------------------------------------------------------------------


def test_apriori_calibrate_then_validate():
    spec = ex.ExperimentSpec(theorem="apriori", model=MR, transport_model=PK)
    rep = ex.run_apriori(spec)
    assert rep.ok
    assert rep.calibrated and not rep.needs_recalibration
    assert all(t <= rep.c_theta_b for t in rep.totals)
    # the budget total must not grow under refinement
    assert max(rep.totals) / min(rep.totals) < 1.05
    # tilted boundary data: the extension is strictly inside the trace range
    assert rep.max_principle_margin > 0.0
    lo, hi = rep.harmonic_range
    assert rep.theta_b <= lo + 1e-12 and hi <= rep.theta_b * (1.0 + rep.theta_tilt) + 1e-12
    assert rep.entropy_bound_margin >= 0.0
    assert 0.0 < rep.entropy_flux_c < 1.0
    assert 0.0 < rep.theta_sq_c < 5.0
    # every budget term is recorded per refinement level
    for key in ("mass_sup", "kinetic_sup", "internal_sup", "entropy_power_sup",
                "shear_block", "bulk_block", "conduction_block", "state_sup"):
        assert len(rep.terms[key]) == len(rep.cells)
    cond = rep.terms["conduction_block"]
    assert max(cond) / min(cond) < 1.2  # grid-stable dissipation reading
    assert rep.q_exponent == 2.0 and rep.beta == 2.0


def test_apriori_hotter_boundary_needs_recalibration():
    spec = ex.ExperimentSpec(theorem="apriori", model=MR, transport_model=PK,
                             grids=(8, 16))
    base = ex.run_apriori(spec)
    hot = ex.run_apriori(replace(spec, theta_scale=2.0, c_fixed=base.c_theta_b))
    assert not hot.calibrated
    assert hot.needs_recalibration
    assert not hot.ok
    assert min(hot.totals) > base.c_theta_b
    # and against a freshly calibrated constant the hot run passes again
    hot_cal = ex.run_apriori(replace(spec, theta_scale=2.0))
    assert hot_cal.ok


def test_apriori_reads_the_molecular_entropy_once_per_level(monkeypatch):
    # the budget's entropy, its entropy flux and the growth bound's left side
    # share one kernel entropy per level; stepping the unforced run reads none
    _cpus(monkeypatch, 1)  # every run in this process, where the kernel counts
    calls = []

    def s(q):
        calls.append(np.size(q))
        return thermo.DEGENERATE_KERNEL.s(q)

    kernel = replace(thermo.DEGENERATE_KERNEL, name="counted", s=s)
    spec = replace(_SMALL_APRIORI, model=thermo.MolecularRadiation(a=1.0, kernel=kernel))
    levels = solver.levels
    yielded = []

    def counted_levels(*args, **kwargs):
        for state in levels(*args, **kwargs):
            yielded.append(state.rho.size)
            yield state

    monkeypatch.setattr(solver, "levels", counted_levels)
    calls.clear()
    ex.run_apriori(spec)
    assert len(yielded) > len(spec.grids)
    assert calls == yielded


def test_apriori_constant_boundary_degenerates_gracefully():
    spec = ex.ExperimentSpec(theorem="apriori", model=MR, transport_model=PK,
                             grids=(8,), theta_tilt=0.0, c_fixed=1.0)
    rep = ex.run_apriori(spec)
    lo, hi = rep.harmonic_range
    assert lo == pytest.approx(1.0, abs=1e-10)
    assert hi == pytest.approx(1.0, abs=1e-10)
    assert rep.max_principle_margin >= -1e-12
    # the extension is constant to solver rounding, so its gradient carries
    # no flux beyond machine noise
    assert rep.entropy_flux_c < 1e-12


# --------------------------------------------------------------------------
# defect coarse-graining study
# --------------------------------------------------------------------------


def test_defect_study_smooth_vanishing_and_oscillation_oracle():
    spec = ex.ExperimentSpec(theorem="defect", model=PG, transport_model=AT)
    rep = ex.run_defect_study(spec)
    assert rep.ok
    assert rep.smooth_vanishing
    assert rep.smooth_d[-1] < rep.smooth_d[0]
    # period-averaged kinetic gap: the oracle is 1/4 integral rho_env sin^2
    assert rep.osc_oracle == pytest.approx(0.125, abs=1e-6)
    assert rep.osc_rel_err <= 0.05
    assert rep.theta_spread <= 0.05
    assert rep.xi_osc == pytest.approx(2.0, rel=0.05)
    assert rep.compat_ok
    assert rep.entropy_defect_rel <= 0.01  # entropy observable: no concentration


def test_defect_study_runs_the_solver_on_its_fine_grids_only(monkeypatch):
    # each coarse member is a grid the fine run is averaged onto, not a run
    simulate = solver.simulate
    cells: list[tuple[int, ...]] = []

    def counted(grid, *args, **kwargs):
        cells.append(grid.cells)
        return simulate(grid, *args, **kwargs)

    monkeypatch.setattr(ex.solver, "simulate", counted)
    # one process, so the wrapper above sees every run
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    spec = ex.ExperimentSpec(theorem="defect", model=PG, transport_model=AT)
    rep = ex.run_defect_study(spec)
    assert cells == [(64,), (128,)]
    assert rep.smooth_cells == (16, 32)


def test_defect_study_perturbs_nothing():
    spec = ex.ExperimentSpec(theorem="defect", model=PG, transport_model=AT)
    assert spec.eps_list == ()
    assert _SMALL_APRIORI.eps_list == ()


# --------------------------------------------------------------------------
# independent runs in parallel processes
# --------------------------------------------------------------------------


def _cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


_SMALL_DEFECT = ex.ExperimentSpec(theorem="defect", model=PG, transport_model=AT,
                                  grids=(16, 32))


@pytest.mark.parametrize("study", ["1", "2", "3", "apriori", "defect"])
def test_two_processes_give_the_one_process_report_bit_for_bit(study, monkeypatch):
    runner, spec = {"1": (ex.run_theorem, _SMALL_STUDIES["1"]),
                    "2": (ex.run_theorem, _SMALL_STUDIES["2"]),
                    "3": (ex.run_theorem, _SMALL_STUDIES["3"]),
                    "apriori": (ex.run_apriori, _SMALL_APRIORI),
                    "defect": (ex.run_defect_study, _SMALL_DEFECT)}[study]
    levels = solver.levels
    here: list[int] = []

    def counted(*args, **kwargs):
        here.append(os.getpid())
        return levels(*args, **kwargs)

    monkeypatch.setattr(solver, "levels", counted)
    reports, runs_here = {}, {}
    for n in (1, 2):
        _cpus(monkeypatch, n)
        here.clear()
        reports[n] = runner(spec)
        runs_here[n] = len(here)
    assert reports[2] == reports[1]
    assert repr(reports[2]) == repr(reports[1])  # floats by their shortest repr
    # the other process ran its share: this one saw only every second run
    assert runs_here[2] == (runs_here[1] + 1) // 2 < runs_here[1]
    assert _no_child_left()


def test_parallel_runs_return_in_task_order_split_by_position(monkeypatch):
    _cpus(monkeypatch, 2)
    parent = os.getpid()
    out = ex._run_tasks(lambda t: (t, os.getpid() == parent), range(5))
    assert out == [(0, True), (1, False), (2, True), (3, False), (4, True)]
    _cpus(monkeypatch, 8)
    out = ex._run_tasks(lambda t: (t, os.getpid() == parent), range(3))
    assert out == [(0, True), (1, False), (2, False)]
    assert _no_child_left()


def _fails_at(bad):
    def run(task):
        if task in bad:
            raise solver.PositivityError(f"density lost positivity in task {task}")
        return task
    return run


@pytest.mark.parametrize("bad", [{1}, {3}, {1, 2}, {1, 3}, {2, 3}, {4}])
def test_the_earliest_failing_task_raises_as_in_one_process(bad, monkeypatch):
    _cpus(monkeypatch, 1)
    with pytest.raises(solver.PositivityError) as serial:
        ex._run_tasks(_fails_at(bad), range(5))
    _cpus(monkeypatch, 2)
    with pytest.raises(solver.PositivityError) as parallel:
        ex._run_tasks(_fails_at(bad), range(5))
    assert str(parallel.value) == str(serial.value) == (
        f"density lost positivity in task {min(bad)}")
    assert _no_child_left()


def test_a_failure_in_the_calling_process_leaves_no_child(monkeypatch):
    _cpus(monkeypatch, 2)

    def run(task):
        if task == 0:
            raise ValueError("task 0 failed")
        time.sleep(60.0)  # the other process is still busy when it is killed

    start = time.monotonic()
    with pytest.raises(ValueError, match="task 0 failed"):
        ex._run_tasks(run, range(4))
    assert time.monotonic() - start < 30.0
    assert _no_child_left()


def test_a_process_killed_by_a_signal_is_named(monkeypatch):
    _cpus(monkeypatch, 2)

    def run(task):
        if task == 1:
            os.kill(os.getpid(), signal.SIGKILL)
        return task

    with pytest.raises(RuntimeError, match="task 1 ended without its result: "
                                           "killed by signal SIGKILL"):
        ex._run_tasks(run, range(4))
    assert _no_child_left()
