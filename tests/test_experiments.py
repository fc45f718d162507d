"""Gate matrix and the three standing studies."""

import math
from dataclasses import replace

import numpy as np
import pytest

from nsflab import experiments as ex
from nsflab import solver, thermo, transport

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
    with pytest.raises(ValueError, match="t_end"):
        ex.ExperimentSpec(solver=solver.SolverConfig(t_end=-1.0), **good)
    with pytest.raises(ValueError, match="scale must be > 0"):
        ex.ExperimentSpec(theta_scale=0.0, **good)
    with pytest.raises(ValueError, match="tilt"):
        ex.ExperimentSpec(theta_tilt=1.5, **good)


def test_spec_defaults_resolve_per_claim():
    s1 = ex.ExperimentSpec(theorem="1", model=PG, transport_model=AT)
    assert s1.resolved_profile == "shear"
    assert s1.grids == (32, 64)
    assert s1.eps_list == (1e-2, 1e-3)
    s3 = ex.ExperimentSpec(theorem="3", model=MR, transport_model=PK)
    assert s3.resolved_profile == "radiative_decay"
    assert s3.grids == (16, 32)
    assert s3.eps_list == (1e-1, 1e-2)
    sa = ex.ExperimentSpec(theorem="apriori", model=MR, transport_model=PK)
    assert sa.grids == (8, 16, 32)
    assert sa.resolved_profile == "radiative_decay"


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


def test_collapse_claim_three_radiative():
    rep = ex.run_theorem(ex.ExperimentSpec(theorem="3", model=MR,
                                           transport_model=PK))
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
    hot = ex.run_apriori(replace(spec, theta_scale=2.0), c_fixed=base.c_theta_b)
    assert not hot.calibrated
    assert hot.needs_recalibration
    assert not hot.ok
    assert min(hot.totals) > base.c_theta_b
    # and against a freshly calibrated constant the hot run passes again
    hot_cal = ex.run_apriori(replace(spec, theta_scale=2.0))
    assert hot_cal.ok


def test_apriori_constant_boundary_degenerates_gracefully():
    spec = ex.ExperimentSpec(theorem="apriori", model=MR, transport_model=PK,
                             grids=(8,), theta_tilt=0.0)
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
