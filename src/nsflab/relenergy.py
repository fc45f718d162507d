"""Relative energy between measure-valued and strong states.

The distance functional compares a phase-space measure against a smooth
comparison state through the Bregman divergence of the total-energy functional
in conservative variables.  This module provides

* the pointwise relative-energy density and its dual (conservative-variable)
  evaluation used as a cross-check,
* the smooth window weight of the default ``CutoffParams`` (state inside a
  compact positivity window), which splits the relative energy into its
  "essential" and "residual" parts, and a coercivity sweep of the relative
  energy against the standard quadratic/weight minorant,
* the quadratic remainder collecting every error term of the energy-chain
  expansion,
* the energy-only series ``rel_energy_series`` (energy, window split,
  four-piece expansion, fitted growth rate) that the theorem studies read, and
* a per-time-level report of the full inequality chain built on that
  series: quadratic dissipation blocks, coupling blocks, defect pairings,
  remainder, residual tail and slack.

All evaluators are pure functions of immutable snapshots and vectorize over
cells and atoms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import grid as gridmod
from . import thermo
from . import transport
from .manufactured import StrongSolution, grid_points
from .young import AtomicYoungMeasure, DefectBundle

__all__ = [
    "CutoffParams",
    "CoercivityReport",
    "RelEnergySeries",
    "RelEnergyReport",
    "rel_energy_density",
    "bregman_equivalence_check",
    "coercivity_check",
    "remainder_R2",
    "rel_energy_series",
    "rel_energy_inequality_report",
    "fit_gronwall_constant",
]


# --------------------------------------------------------------------------
# relative energy density and its Bregman cross-check
# --------------------------------------------------------------------------


def _check_reference(rho_ref, theta_ref) -> tuple[np.ndarray, np.ndarray]:
    rho_ref = np.asarray(rho_ref, dtype=float)
    theta_ref = np.asarray(theta_ref, dtype=float)
    if np.any(rho_ref <= 0.0) or np.any(theta_ref <= 0.0):
        raise ValueError("comparison state must have positive density and temperature")
    return rho_ref, theta_ref


def rel_energy_density(model: thermo.ThermoModel, rho, theta, u,
                       rho_ref, theta_ref, u_ref) -> np.ndarray:
    """Pointwise relative energy of ``(rho, theta, u)`` against a positive state.

    Kinetic part plus the Bregman gap of the ballistic potential
    ``H(rho, theta) = rho*e - theta_ref*rho*s`` linearized at the comparison
    point, where the linearization slope collapses to the Gibbs free enthalpy
    ``e - theta_ref*s + p/rho`` of the comparison state.  Vacuum atoms
    (``rho = 0``) are admitted through the continued ``rho_e``/``rho_s``;
    zero-temperature atoms are not.
    """

    rho = np.asarray(rho, dtype=float)
    theta = np.asarray(theta, dtype=float)
    u = np.asarray(u, dtype=float)
    u_ref = np.asarray(u_ref, dtype=float)
    rho_ref, theta_ref = _check_reference(rho_ref, theta_ref)
    if np.any(rho < 0.0) or np.any(theta <= 0.0):
        raise ValueError("atoms must satisfy rho >= 0 and theta > 0")

    slope = _gibbs_slope(rho_ref, theta_ref, model.p(rho_ref, theta_ref),
                         model.e(rho_ref, theta_ref), model.s(rho_ref, theta_ref))
    return _assemble(rho, u, rho_ref, u_ref, slope,
                     thermo.ballistic_energy(model, rho, theta, theta_ref),
                     thermo.ballistic_energy(model, rho_ref, theta_ref, theta_ref))


def _gibbs_slope(rho, theta, p, e, s):
    """Gibbs free enthalpy e - theta*s + p/rho of the comparison state."""
    return e - theta * s + p / rho


def _assemble(rho, u, rho_ref, u_ref, slope, h_atom, h_ref):
    """Kinetic part plus the Bregman gap, from the ballistic energies
    ``h_atom`` of the atoms and ``h_ref`` of the comparison state."""
    kinetic = 0.5 * rho * np.sum((u - u_ref) ** 2, axis=-1)
    return kinetic + h_atom - slope * (rho - rho_ref) - h_ref


def bregman_equivalence_check(model: thermo.ThermoModel, rho, theta, u,
                              rho_ref, theta_ref, u_ref) -> float:
    """Largest relative gap between the two routes to the relative energy.

    Route one evaluates :func:`rel_energy_density` directly; route two
    converts both states to conservative variables ``(rho, rho*s, rho*u)``,
    evaluates the total-energy functional and its gradient there, and forms
    the Bregman difference.  The gap is normalized by ``1 + max(|values|)``
    so coincident states report zero rather than 0/0.
    """

    rho = np.asarray(rho, dtype=float)
    theta = np.asarray(theta, dtype=float)
    u = np.asarray(u, dtype=float)
    u_ref = np.asarray(u_ref, dtype=float)
    rho_ref, theta_ref = _check_reference(rho_ref, theta_ref)
    if np.any(rho <= 0.0) or np.any(theta <= 0.0):
        raise ValueError("the conservative-variable route needs rho > 0 and theta > 0")

    direct = rel_energy_density(model, rho, theta, u, rho_ref, theta_ref, u_ref)

    entropy = rho * model.s(rho, theta)
    entropy_ref = rho_ref * model.s(rho_ref, theta_ref)
    mom = rho[..., None] * u
    mom_ref = rho_ref[..., None] * u_ref if u_ref.ndim else rho_ref * u_ref
    energy = thermo.conservative_energy(model, rho, entropy, mom)
    energy_ref = thermo.conservative_energy(model, rho_ref, entropy_ref, mom_ref)
    d_rho, d_entropy, d_mom = thermo.conservative_partials(
        model, rho_ref, entropy_ref, mom_ref)
    pairing = (d_rho * (rho - rho_ref) + d_entropy * (entropy - entropy_ref)
               + np.sum(d_mom * (mom - mom_ref), axis=-1))
    dual = energy - pairing - energy_ref

    scale = 1.0 + np.maximum(np.abs(direct), np.abs(dual))
    return float(np.max(np.abs(direct - dual) / scale))


# --------------------------------------------------------------------------
# essential/residual cutoff
# --------------------------------------------------------------------------


def _smoothstep(t: np.ndarray) -> np.ndarray:
    t = np.clip(t, 0.0, 1.0)
    return t * t * t * (10.0 + t * (-15.0 + 6.0 * t))


@dataclass(frozen=True)
class CutoffParams:
    """Smooth indicator of the state window ``[delta, 1/delta]**2``.

    The weight equals 1 exactly on the window, falls to 0 outside
    ``[delta/2, 2/delta]**2`` along the quintic smoothstep ramp in log state
    space, and vanishes for non-positive density or temperature.
    """

    delta: float = 0.1

    def __post_init__(self):
        if not (0.0 < self.delta < 1.0):
            raise ValueError(f"cutoff threshold must lie in (0, 1), got {self.delta}")

    def _ramp(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        logx = np.log(np.where(x > 0.0, x, 1.0))
        ln2 = np.log(2.0)
        rise = _smoothstep((logx - np.log(0.5 * self.delta)) / ln2)
        fall = _smoothstep((np.log(2.0 / self.delta) - logx) / ln2)
        val = np.minimum(rise, fall)
        # pin the plateau and the complement of the support exactly, so the
        # polynomial only speaks strictly inside the two ramp zones
        val = np.where((x >= self.delta) & (x <= 1.0 / self.delta), 1.0, val)
        outside = (x <= 0.5 * self.delta) | (x >= 2.0 / self.delta)
        return np.where(outside, 0.0, val)

    def chi(self, rho, theta) -> np.ndarray:
        """Window weight chi(rho, theta) in [0, 1]."""
        return self._ramp(rho) * self._ramp(theta)


# --------------------------------------------------------------------------
# coercivity sweep
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CoercivityReport:
    """Largest constant with ``E >= c * minorant`` over the swept samples."""

    c: float
    violations: np.ndarray
    n_used: int

    @property
    def ok(self) -> bool:
        return self.c > 0.0 and self.violations.size == 0


def coercivity_check(model: thermo.ThermoModel, params: CutoffParams,
                     strong, rho, theta, u) -> CoercivityReport:
    """Sweep atoms for the sharpest constant in the lower bound of the energy.

    The minorant is the squared state distance inside the window plus the
    weight ``1 + rho + rho|s| + rho*e + rho|u|^2`` outside it.  The comparison
    state must sit strictly inside the window (``[2*delta, 1/(2*delta)]``).
    """

    rho_ref, theta_ref, u_ref = strong
    rho_ref, theta_ref = _check_reference(rho_ref, theta_ref)
    u_ref = np.asarray(u_ref, dtype=float)
    lo, hi = 2.0 * params.delta, 0.5 / params.delta
    if np.any(rho_ref < lo) or np.any(rho_ref > hi):
        raise ValueError(f"comparison density must lie in [{lo}, {hi}]")
    if np.any(theta_ref < lo) or np.any(theta_ref > hi):
        raise ValueError(f"comparison temperature must lie in [{lo}, {hi}]")
    if not np.all(np.isfinite(u_ref)):
        raise ValueError("comparison velocity must be finite")

    rho = np.asarray(rho, dtype=float)
    theta = np.asarray(theta, dtype=float)
    u = np.asarray(u, dtype=float)

    energy = rel_energy_density(model, rho, theta, u, rho_ref, theta_ref, u_ref)
    chi = params.chi(rho, theta)
    dist_sq = ((rho - rho_ref) ** 2 + (theta - theta_ref) ** 2
               + np.sum((u - u_ref) ** 2, axis=-1))
    weight = (1.0 + rho + np.abs(model.rho_s(rho, theta))
              + model.rho_e(rho, theta) + rho * np.sum(u ** 2, axis=-1))
    minorant = chi * dist_sq + (1.0 - chi) * weight

    mask = minorant > 1e-30
    ratios = energy[mask] / minorant[mask]
    if ratios.size == 0:
        return CoercivityReport(c=np.inf, violations=np.empty(0, dtype=int), n_used=0)
    violations = np.flatnonzero(mask)[ratios <= 0.0]
    return CoercivityReport(c=float(np.min(ratios)), violations=violations,
                            n_used=int(ratios.size))


# --------------------------------------------------------------------------
# quadratic remainder
# --------------------------------------------------------------------------


def _strong_state(sol: StrongSolution, grid: gridmod.Grid, t: float,
                  model: thermo.ThermoModel, full: bool = False) -> dict:
    """Comparison state and its p, e, s at cell centers: all the relative
    energy itself reads.

    The state comes from ``sol.state``, which evaluates the profile's jets
    alone.  A caller that goes on to ``_with_derived`` passes ``full``: the
    state is then read from the profile's full evaluation, which
    ``_with_derived`` makes anyway; through ``sol.state`` the jets would be
    evaluated twice per level (the default ``relenergy`` report took 1.2x
    as long that way).  Both give the same bits.
    """

    pts = grid_points(grid)
    if full:
        rho, u, theta = sol.rho(t, pts), sol.u(t, pts), sol.theta(t, pts)
    else:
        rho, u, theta = sol.state(t, pts)
    if np.any(rho <= 0.0) or np.any(theta <= 0.0):
        raise ValueError("comparison state must have positive density and temperature")
    return {"rho": rho, "theta": theta, "u": u, "p": model.p(rho, theta),
            "e": model.e(rho, theta), "s": model.s(rho, theta)}


def _with_derived(state: dict, sol: StrongSolution, grid: gridmod.Grid, t: float,
                  transport_model: transport.TransportModel) -> dict:
    """``state`` extended by the gradients, stress parts and transport
    coefficients the inequality chain reads."""

    pts = grid_points(grid)
    rho, theta, u = state["rho"], state["theta"], state["u"]
    ev = thermo.ThermoEval(p=state["p"], e=state["e"], s=state["s"],
                           **sol.model.partials(rho, theta))
    g_u = sol.grad_u(t, pts)
    grad_theta = sol.grad_theta(t, pts)
    grad_p = ev.dp_drho[..., None] * sol.grad_rho(t, pts) + ev.dp_dtheta[..., None] * grad_theta

    # Divergence of the comparison viscous stress, recovered from the
    # momentum balance: div S = rho*(du/dt + (u.grad)u) + u*f_mass + grad p - f_mom.
    advect = np.einsum("...jk,...k->...j", g_u, u)
    div_s = (rho[..., None] * (sol.du_dt(t, pts) + advect) + u * sol.f_mass(t, pts)[..., None]
             + grad_p - sol.f_mom(t, pts))

    return {
        **state, "ev": ev,
        "g_u": g_u, "sym_u": transport.sym_part(g_u),
        "d0_u": transport.traceless_sym(g_u),
        "div_u": np.einsum("...ii->...", g_u),
        "grad_theta": grad_theta, "grad_p": grad_p, "div_s": div_s,
        "dth_dt": sol.dtheta_dt(t, pts),
        "mu": transport_model.mu(rho, theta),
        "lam": transport_model.lam(rho, theta),
        "kappa": transport_model.kappa(rho, theta),
    }


def _avg(weights: np.ndarray, vals: np.ndarray, ncomp: int) -> np.ndarray:
    w = weights.reshape(weights.shape + (1,) * ncomp)
    return np.sum(w * vals, axis=-1 - ncomp)


def _r2_groups(V: AtomicYoungMeasure, level: int, sf: dict,
               model: thermo.ThermoModel) -> dict[str, np.ndarray]:
    """The seven quadratic remainder groups, each a per-cell density."""

    w = V.weights[level]
    rho = V.rho[level]
    theta = V.theta[level]
    u = V.u[level]
    if np.any(rho <= 0.0) or np.any(theta <= 0.0):
        raise ValueError("remainder terms need strictly positive atom states")

    rho_t = sf["rho"][..., None]
    theta_t = sf["theta"][..., None]
    u_t = sf["u"][..., None, :]
    ev_t = sf["ev"]
    s_atom = model.s(rho, theta)
    s_t = ev_t.s[..., None]
    p_atom = model.p(rho, theta)
    dvec = u_t - u
    material = sf["dth_dt"] + np.einsum("...k,...k->...", sf["u"], sf["grad_theta"])

    outer = dvec[..., :, None] * dvec[..., None, :]
    g1 = -np.einsum("...jk,...jk->...", _avg(w, rho[..., None, None] * outer, 2),
                    sf["sym_u"])
    g2 = np.einsum("...k,...k->...",
                   _avg(w, (rho / rho_t - 1.0)[..., None] * dvec, 1),
                   sf["div_s"] + sf["grad_p"])
    g3 = -np.einsum("...k,...k->...",
                    _avg(w, (rho * (s_atom - s_t))[..., None] * dvec, 1),
                    sf["grad_theta"])
    g4 = -_avg(w, (rho - rho_t) * (s_atom - s_t), 0) * material
    g5 = np.einsum("...k,...k->...",
                   _avg(w, (1.0 - rho / rho_t)[..., None] * dvec, 1),
                   sf["grad_p"])
    p_gap = (ev_t.p[..., None] - ev_t.dp_drho[..., None] * (rho_t - rho)
             - ev_t.dp_dtheta[..., None] * (theta_t - theta) - p_atom)
    g6 = _avg(w, p_gap, 0) * sf["div_u"]
    s_gap = (s_t - ev_t.ds_drho[..., None] * (rho_t - rho)
             - ev_t.ds_dtheta[..., None] * (theta_t - theta) - s_atom)
    g7 = _avg(w, s_gap, 0) * sf["rho"] * material

    return {"reynolds": g1, "force_mismatch": g2, "entropy_drift": g3,
            "entropy_cross": g4, "pressure_drift": g5,
            "pressure_gap": g6, "entropy_gap": g7}


def remainder_R2(V: AtomicYoungMeasure, sol: StrongSolution,
                 model: thermo.ThermoModel,
                 transport_model: transport.TransportModel,
                 t: float) -> gridmod.ScalarField:
    """Quadratic remainder density at the stored time level closest to ``t``.

    Every group carries at least two difference factors between the measure
    and the comparison state, so a point mass sitting exactly on the
    comparison state returns the zero field.
    """

    idx = int(np.argmin(np.abs(V.times - t)))
    if abs(V.times[idx] - t) > 1e-9 * (1.0 + abs(t)):
        raise ValueError(f"time {t} is not a stored level of the measure")
    t = float(V.times[idx])
    sf = _with_derived(_strong_state(sol, V.grid, t, model, full=True), sol, V.grid, t,
                       transport_model)
    total = sum(_r2_groups(V, idx, sf, model).values())
    return gridmod.ScalarField.from_interior(V.grid, total)


# --------------------------------------------------------------------------
# inequality-chain report
# --------------------------------------------------------------------------


def fit_gronwall_constant(times: np.ndarray, e_mv: np.ndarray) -> float:
    """Least-squares exponential growth rate of a positive energy series."""

    times = np.asarray(times, dtype=float)
    e_mv = np.asarray(e_mv, dtype=float)
    mask = np.isfinite(e_mv) & (e_mv > 0.0)
    if np.count_nonzero(mask) < 2 or np.ptp(times[mask]) == 0.0:
        return 0.0
    coeffs = np.polynomial.polynomial.polyfit(times[mask], np.log(e_mv[mask]), 1)
    return float(coeffs[1])


def _cum_trapz(series: np.ndarray, times: np.ndarray) -> np.ndarray:
    if len(times) == 1:
        return np.zeros(1)
    inc = 0.5 * (series[1:] + series[:-1]) * np.diff(times)
    return np.concatenate([[0.0], np.cumsum(inc)])


@dataclass(frozen=True)
class RelEnergySeries:
    """Relative energy per level: its window split, its four algebraic pieces
    (``expansion``, summing to ``e_mv`` up to ``expansion_gap``) and the
    fitted exponential growth rate."""

    times: np.ndarray
    e_mv: np.ndarray
    e_ess: np.ndarray
    e_res: np.ndarray
    expansion: dict[str, np.ndarray]
    expansion_gap: float
    gronwall_c: float


@dataclass(frozen=True)
class RelEnergyReport(RelEnergySeries):
    """The energy series plus every other member of the inequality chain.

    ``blocks`` holds the cumulative-in-time dissipation and coupling
    integrals; ``lhs``/``rhs``/``slack`` assemble the full inequality per
    level; ``reduced_c_required`` is the smallest nonnegative constant
    closing the window-reduced inequality whose right-hand side carries the
    time integral of the energy, the defect history, and the residual tail.
    """

    blocks: dict[str, np.ndarray]
    r2_cum: np.ndarray
    rm_cum: np.ndarray
    d_diss: np.ndarray
    res_tail_cum: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    slack: np.ndarray
    reduced_c_required: float


_BLOCK_KEYS = ("shear_quad", "shear_coupling", "bulk_quad", "bulk_coupling",
               "heat_quad", "heat_coupling_state", "heat_coupling_coeff")


def rel_energy_series(V: AtomicYoungMeasure, sol: StrongSolution,
                      model: thermo.ThermoModel,
                      transport_model: transport.TransportModel,
                      on_level: Optional[Callable[[int, dict, np.ndarray], None]] = None,
                      ) -> RelEnergySeries:
    """Relative energy of ``V`` against ``sol`` at every stored level.

    Raises when the models differ, an atom is not strictly positive, or the
    energy fails its consistency checks.  ``on_level(lev, sf, chi)`` runs at
    each level with the comparison-state fields and the atoms' window
    weights, so a caller extending the pass evaluates ``sol`` once per level.
    Without a hook only the state and its p, e and s are evaluated; the
    derivatives, forcings, partials, gradients, stress parts and
    coefficients are built for the hook alone.
    """

    if sol.model != model:
        raise ValueError("comparison solution and report must share the equation of state")
    if sol.transport_model != transport_model:
        raise ValueError("comparison solution and report must share the transport model")
    grid, times, n_levels = V.grid, V.times, V.n_levels
    e_mv, e_ess = np.zeros(n_levels), np.zeros(n_levels)
    expansion = {k: np.zeros(n_levels) for k in
                 ("ballistic", "cross", "carrier", "closure")}

    for lev in range(n_levels):
        t = float(times[lev])
        sf = _strong_state(sol, grid, t, model, full=on_level is not None)
        w, rho, theta, u = V.weights[lev], V.rho[lev], V.theta[lev], V.u[lev]
        if np.any(theta <= 0.0) or np.any(rho <= 0.0):
            raise ValueError("the relative energy needs strictly positive atom states")

        # rel_energy_density, with the comparison EOS and the atoms'
        # ballistic energy evaluated once for both readings below
        rho_t, theta_t = sf["rho"][..., None], sf["theta"][..., None]
        slope = _gibbs_slope(sf["rho"], sf["theta"], sf["p"], sf["e"], sf["s"])
        h_atom = thermo.ballistic_energy(model, rho, theta, theta_t)
        e_atom = _assemble(rho, u, rho_t, sf["u"][..., None, :], slope[..., None], h_atom,
                           thermo.ballistic_energy(model, rho_t, theta_t, theta_t))
        chi = CutoffParams().chi(rho, theta)
        e_mv[lev] = gridmod.integrate(grid, _avg(w, e_atom, 0))
        e_ess[lev] = gridmod.integrate(grid, _avg(w, chi * e_atom, 0))

        kin = 0.5 * rho * np.sum(u ** 2, axis=-1)
        expansion["ballistic"][lev] = gridmod.integrate(grid, _avg(w, kin + h_atom, 0))
        expansion["cross"][lev] = gridmod.integrate(
            grid, -np.einsum("...k,...k->...",
                             _avg(w, rho[..., None] * u, 1), sf["u"]))
        expansion["carrier"][lev] = gridmod.integrate(
            grid, _avg(w, rho, 0) * (0.5 * np.sum(sf["u"] ** 2, axis=-1) - slope))
        expansion["closure"][lev] = gridmod.integrate(grid, sf["p"])
        if on_level is not None:
            on_level(lev, _with_derived(sf, sol, grid, t, transport_model), chi)
    e_res = e_mv - e_ess

    scale = 1.0 + float(np.max(np.abs(e_mv)))
    if float(np.min(e_mv)) < -1e-10 * scale:
        raise ValueError("relative energy must be nonnegative for admissible measures")
    closure_gap = float(np.max(np.abs(e_mv - sum(expansion.values()))))
    if closure_gap > 1e-8 * scale:
        raise ValueError("energy expansion terms fail to reassemble the energy")
    if np.max(np.abs(e_ess + e_res - e_mv)) > 1e-10 * scale:
        raise ValueError("window split must reassemble the energy exactly")
    return RelEnergySeries(times=times, e_mv=e_mv, e_ess=e_ess, e_res=e_res,
                           expansion=expansion, expansion_gap=closure_gap,
                           gronwall_c=fit_gronwall_constant(times, e_mv))


def rel_energy_inequality_report(V: AtomicYoungMeasure,
                                 defects: Optional[DefectBundle],
                                 sol: StrongSolution,
                                 model: thermo.ThermoModel,
                                 transport_model: transport.TransportModel,
                                 ) -> RelEnergyReport:
    """Evaluate the full relative-energy inequality chain level by level.

    The energy comes from :func:`rel_energy_series`; the chain is built on
    top of it from the same comparison-state fields.  The comparison
    temperature in the ballistic pairing is the comparison state's own
    temperature field.  ``defects`` supplies the dissipation history and the
    matrix defect paired against the comparison velocity gradient; ``None``
    means both vanish (point masses of resolved fields).
    """

    grid, times, n_levels = V.grid, V.times, V.n_levels
    if defects is not None:
        if len(defects.times) != n_levels or not np.allclose(defects.times, times):
            raise ValueError("defect history must live on the measure's time levels")
        d_diss = np.asarray(defects.d_diss, dtype=float)
    else:
        d_diss = np.zeros(n_levels)

    rates = {k: np.zeros(n_levels) for k in
             _BLOCK_KEYS + ("r2", "rm", "res_tail")}

    def chain_level(lev: int, sf: dict, chi: np.ndarray) -> None:
        w, rho, theta, u = V.weights[lev], V.rho[lev], V.theta[lev], V.u[lev]
        d_u, d_theta = V.d_u[lev], V.d_theta[lev]
        theta_t = sf["theta"][..., None]
        u_t = sf["u"][..., None, :]

        # dissipation and coupling block rates
        mu_a = transport_model.mu(rho, theta)
        lam_a = transport_model.lam(rho, theta)
        kap_a = transport_model.kappa(rho, theta)
        inv_ratio = theta_t / theta
        ratio = theta / theta_t
        d0_a = transport.traceless_sym(d_u)
        tr_a = np.einsum("...ii->...", d_u)
        m_diff = d0_a - ratio[..., None, None] * sf["d0_u"][..., None, :, :]
        rates["shear_quad"][lev] = gridmod.integrate(grid, _avg(
            w, mu_a * inv_ratio * np.sum(m_diff ** 2, axis=(-2, -1)), 0))
        rates["shear_coupling"][lev] = gridmod.integrate(grid, np.einsum(
            "...jk,...jk->...", sf["d0_u"],
            _avg(w, (mu_a - sf["mu"][..., None])[..., None, None] * m_diff, 2)))
        tr_diff = tr_a - ratio * sf["div_u"][..., None]
        rates["bulk_quad"][lev] = gridmod.integrate(grid, _avg(
            w, lam_a * inv_ratio * tr_diff ** 2, 0))
        rates["bulk_coupling"][lev] = gridmod.integrate(
            grid, sf["div_u"] * _avg(w, (lam_a - sf["lam"][..., None]) * tr_diff, 0))
        ref_slope = sf["grad_theta"] / sf["theta"][..., None]
        v_diff = d_theta / theta[..., None] - ref_slope[..., None, :]
        rates["heat_quad"][lev] = gridmod.integrate(grid, sf["theta"] * _avg(
            w, kap_a * np.sum(v_diff ** 2, axis=-1), 0))
        rates["heat_coupling_state"][lev] = gridmod.integrate(
            grid, sf["kappa"] * np.einsum(
                "...k,...k->...", ref_slope,
                _avg(w, (theta - theta_t)[..., None] * (-v_diff), 1)))
        rates["heat_coupling_coeff"][lev] = gridmod.integrate(
            grid, np.einsum("...k,...k->...", sf["grad_theta"],
                            _avg(w, (kap_a - sf["kappa"][..., None])[..., None]
                                 * v_diff, 1)))

        # remainder, defect pairing, and residual tail rates
        rates["r2"][lev] = gridmod.integrate(
            grid, sum(_r2_groups(V, lev, sf, model).values()))
        if defects is not None:
            rates["rm"][lev] = gridmod.integrate(grid, np.einsum(
                "...jk,...jk->...", defects.r_m[lev], sf["g_u"]))
        tail = ((1.0 - chi) * (theta + np.abs(model.p(rho, theta))
                               + np.sqrt(np.sum((u - u_t) ** 2, axis=-1))
                               + np.abs(model.rho_s(rho, theta))
                               * np.sqrt(np.sum(u ** 2, axis=-1))))
        rates["res_tail"][lev] = gridmod.integrate(grid, _avg(w, tail, 0))

    series = rel_energy_series(V, sol, model, transport_model, chain_level)
    e_mv = series.e_mv
    cum = {k: _cum_trapz(v, times) for k, v in rates.items()}
    blocks = {k: cum[k] for k in _BLOCK_KEYS}
    lhs = e_mv + sum(blocks.values()) + d_diss
    rhs = e_mv[0] + cum["rm"] + cum["r2"]

    cum_e = _cum_trapz(e_mv, times)
    reduced_gap = lhs - e_mv[0] - _cum_trapz(d_diss, times) - cum["res_tail"]
    live = cum_e > 1e-30
    reduced_c = float(np.max(reduced_gap[live] / cum_e[live])) if np.any(live) else 0.0

    return RelEnergyReport(
        **vars(series), blocks=blocks, r2_cum=cum["r2"], rm_cum=cum["rm"],
        d_diss=d_diss, res_tail_cum=cum["res_tail"], lhs=lhs, rhs=rhs, slack=rhs - lhs,
        reduced_c_required=max(0.0, reduced_c))
