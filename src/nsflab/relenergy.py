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
* the energy series ``rel_energy_series`` (energy, window split, four-piece
  expansion, fitted growth rate), which reads a stream of flow states, and
* ``rel_energy_inequality_report``, which reads a measure level by level:
  that series plus the full inequality chain (dissipation and coupling
  blocks, defect pairings, remainder, residual tail and slack).

Both take the constitutive laws from the comparison flow alone
(``StrongSolution.model`` and ``.transport_model``), the laws its forcings
were built from, and evaluate each level with one kernel, so a flow state
and its Dirac measure give the same bits.  All evaluators are pure
functions of immutable snapshots and vectorize over cells and atoms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from . import grid as gridmod
from . import thermo
from . import transport
from .manufactured import StrongSolution, grid_points
from .solver import FlowState
from .young import AtomicYoungMeasure, DefectBundle, _avg, _cum_trapz, check_defects

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
    "fit_slope",
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

    ref = _comparison_eos(model, rho_ref, theta_ref)
    return _assemble(rho, u, rho_ref, u_ref, ref["slope"],
                     thermo.ballistic_energy(model, rho, theta, theta_ref), ref["h"])


def _comparison_eos(model: thermo.ThermoModel, rho, theta, partials: bool = False) -> dict:
    """p, e, s, rho_e and rho_s of a positive comparison state (with
    ``partials`` also the six ``thermo.PARTIALS``) from one ``partials``
    call, its Gibbs free enthalpy ``slope`` = e - theta*s + p/rho and its
    ballistic energy ``h`` = rho*(e - theta*s)."""
    d = model.partials(rho, theta, ("p", "e", "s", "rho_e", "rho_s")
                       + (thermo.PARTIALS if partials else ()))
    d["slope"] = d["e"] - theta * d["s"] + d["p"] / rho
    d["h"] = d["rho_e"] - theta * d["rho_s"]
    return d


def _assemble(rho, u, rho_ref, u_ref, slope, h_atom, h_ref):
    """Kinetic part plus the Bregman gap, from the ballistic energies
    ``h_atom`` of the atoms and ``h_ref`` of the comparison state."""
    kinetic = 0.5 * rho * np.add.reduce((u - u_ref) ** 2, axis=-1)
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
        """Window weight chi(rho, theta) in [0, 1].  When every state lies in
        the window, one test of the extremes stands for the two log ramps:
        the weight there is exactly 1.0."""
        return self._weight(rho, theta)[0]

    def _weight(self, rho, theta) -> tuple[np.ndarray, bool]:
        """``chi`` and whether every state lies in the window."""
        rho, theta = np.asarray(rho, dtype=float), np.asarray(theta, dtype=float)
        if all(self.delta <= np.minimum.reduce(x, axis=None)
               and np.maximum.reduce(x, axis=None) <= 1.0 / self.delta for x in (rho, theta)):
            return np.ones(np.broadcast(rho, theta).shape), True
        return self._ramp(rho) * self._ramp(theta), False


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
    eos = model.partials(rho, theta, ("rho_e", "rho_s"))
    weight = (1.0 + rho + np.abs(eos["rho_s"])
              + eos["rho_e"] + rho * np.sum(u ** 2, axis=-1))
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
                  full: bool = False) -> dict:
    """Comparison state with its ``_comparison_eos`` under ``sol``'s own laws,
    from the profile's one evaluation at (t, cell centers): all the relative
    energy reads.  With ``full`` also the six partials, gradients, stress
    parts and transport coefficients the inequality chain reads."""

    pts = grid_points(grid)
    rho, u, theta = sol.state(t, pts)
    if np.fmin.reduce(rho, axis=None) <= 0.0 or np.fmin.reduce(theta, axis=None) <= 0.0:
        raise ValueError("comparison state must have positive density and temperature")
    sf = {"rho": rho, "theta": theta, "u": u, **_comparison_eos(sol.model, rho, theta, full)}
    if not full:
        return sf
    g_u = sol.grad_u(t, pts)
    grad_theta = sol.grad_theta(t, pts)
    grad_p = (sf["dp_drho"][..., None] * sol.grad_rho(t, pts)
              + sf["dp_dtheta"][..., None] * grad_theta)

    # Divergence of the comparison viscous stress, recovered from the
    # momentum balance: div S = rho*(du/dt + (u.grad)u) + u*f_mass + grad p - f_mom.
    advect = np.einsum("...jk,...k->...j", g_u, u)
    div_s = (rho[..., None] * (sol.du_dt(t, pts) + advect) + u * sol.f_mass(t, pts)[..., None]
             + grad_p - sol.f_mom(t, pts))

    return {
        **sf,
        "g_u": g_u, "sym_u": transport.sym_part(g_u),
        "d0_u": transport.traceless_sym(g_u),
        "div_u": np.einsum("...ii->...", g_u),
        "grad_theta": grad_theta, "grad_p": grad_p, "div_s": div_s,
        "dth_dt": sol.dtheta_dt(t, pts),
        "mu": sol.transport_model.mu(rho, theta),
        "lam": sol.transport_model.lam(rho, theta),
        "kappa": sol.transport_model.kappa(rho, theta),
    }


def _atom_eos(model: thermo.ThermoModel, rho: np.ndarray, theta: np.ndarray,
              keys: tuple[str, ...]) -> dict:
    """The atoms' ``keys`` from one ``partials`` call, if every atom is positive."""
    if np.fmin.reduce(theta, axis=None) <= 0.0 or np.fmin.reduce(rho, axis=None) <= 0.0:
        raise ValueError("the relative energy needs strictly positive atom states")
    return model.partials(rho, theta, keys)


def _r2_groups(w: np.ndarray, rho: np.ndarray, theta: np.ndarray, u: np.ndarray,
               sf: dict, eos: dict) -> dict[str, np.ndarray]:
    """The seven quadratic remainder groups of one level's atoms, each a
    per-cell density, from the atoms' ``eos``: their ``s`` and ``p`` as
    ``partials`` gives them."""

    rho_t = sf["rho"][..., None]
    theta_t = sf["theta"][..., None]
    u_t = sf["u"][..., None, :]
    s_atom, p_atom = eos["s"], eos["p"]
    s_t = sf["s"][..., None]
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
    p_gap = (sf["p"][..., None] - sf["dp_drho"][..., None] * (rho_t - rho)
             - sf["dp_dtheta"][..., None] * (theta_t - theta) - p_atom)
    g6 = _avg(w, p_gap, 0) * sf["div_u"]
    s_gap = (s_t - sf["ds_drho"][..., None] * (rho_t - rho)
             - sf["ds_dtheta"][..., None] * (theta_t - theta) - s_atom)
    g7 = _avg(w, s_gap, 0) * sf["rho"] * material

    return {"reynolds": g1, "force_mismatch": g2, "entropy_drift": g3,
            "entropy_cross": g4, "pressure_drift": g5,
            "pressure_gap": g6, "entropy_gap": g7}


def remainder_R2(V: AtomicYoungMeasure, sol: StrongSolution,
                 model: thermo.ThermoModel,
                 transport_model: transport.TransportModel,
                 t: float) -> gridmod.Field:
    """Quadratic remainder density at the stored time level closest to ``t``.

    Every group carries at least two difference factors between the measure
    and the comparison state, so a point mass sitting exactly on the
    comparison state returns the zero field.  Laws other than ``sol``'s own
    raise a ``ValueError`` naming both.
    """

    if model != sol.model or transport_model != sol.transport_model:
        raise ValueError(f"remainder_R2 takes the flow's laws {sol.model!r}, "
                         f"{sol.transport_model!r}; got {model!r}, {transport_model!r}")
    idx = int(np.argmin(np.abs(V.times - t)))
    if abs(V.times[idx] - t) > 1e-9 * (1.0 + abs(t)):
        raise ValueError(f"time {t} is not a stored level of the measure")
    sf = _strong_state(sol, V.grid, float(V.times[idx]), full=True)
    rho, theta = V.rho[idx], V.theta[idx]
    eos = _atom_eos(model, rho, theta, ("s", "p"))
    total = sum(_r2_groups(V.weights[idx], rho, theta, V.u[idx], sf, eos).values())
    return gridmod.Field.from_interior(V.grid, total)


# --------------------------------------------------------------------------
# energy series and inequality-chain report
# --------------------------------------------------------------------------


def fit_slope(x, y) -> float:
    """Least-squares slope of y against x in closed form, the centred
    sum(dx * dy) / sum(dx**2), by ufunc reductions (no BLAS or LAPACK);
    the caller supplies two or more distinct x."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    dx = x - np.add.reduce(x) / x.size
    dy = y - np.add.reduce(y) / y.size
    return float(np.add.reduce(dx * dy) / np.add.reduce(dx * dx))


def fit_gronwall_constant(times: np.ndarray, e_mv: np.ndarray) -> float:
    """Least-squares exponential growth rate of a positive energy series:
    the closed-form ``fit_slope`` sum(dt * dlog e) / sum(dt**2), centred,
    over the finite positive levels; 0.0 below two distinct such times."""

    times = np.asarray(times, dtype=float)
    e_mv = np.asarray(e_mv, dtype=float)
    mask = np.isfinite(e_mv) & (e_mv > 0.0)
    if np.count_nonzero(mask) < 2 or np.ptp(times[mask]) == 0.0:
        return 0.0
    return fit_slope(times[mask], np.log(e_mv[mask]))


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


_WINDOW = CutoffParams()
_UNIT = np.ones(1)  # the weight of a Dirac atom
_UNIT.flags.writeable = False

_BLOCK_KEYS = ("shear_quad", "shear_coupling", "bulk_quad", "bulk_coupling",
               "heat_quad", "heat_coupling_state", "heat_coupling_coeff")


def _energy(grid: gridmod.Grid, w: np.ndarray, rho: np.ndarray, theta: np.ndarray,
            u: np.ndarray, sf: dict, eos: dict) -> tuple[tuple, np.ndarray]:
    """One level's ``e_mv``, ``e_ess`` and four expansion pieces, and the
    atoms' window weights ``chi``: ``rel_energy_density`` from the comparison
    EOS of ``sf`` and the atoms' ``rho_e`` and ``rho_s``, read once for both
    integrals.  Where ``chi`` is 1.0 everywhere, ``e_ess`` is ``e_mv``, the
    same bits."""

    slope = sf["slope"]
    h_atom = eos["rho_e"] - sf["theta"][..., None] * eos["rho_s"]
    e_atom = _assemble(rho, u, sf["rho"][..., None], sf["u"][..., None, :], slope[..., None],
                       h_atom, sf["h"][..., None])
    chi, plateau = _WINDOW._weight(rho, theta)
    e_mv = gridmod.integrate(grid, _avg(w, e_atom, 0))
    e_ess = e_mv if plateau else gridmod.integrate(grid, _avg(w, chi * e_atom, 0))

    kin = 0.5 * rho * np.add.reduce(u ** 2, axis=-1)
    ballistic = gridmod.integrate(grid, _avg(w, kin + h_atom, 0))
    cross = gridmod.integrate(
        grid, -np.einsum("...k,...k->...", _avg(w, rho[..., None] * u, 1), sf["u"]))
    carrier = gridmod.integrate(
        grid, _avg(w, rho, 0) * (0.5 * np.add.reduce(sf["u"] ** 2, axis=-1) - slope))
    return (e_mv, e_ess, ballistic, cross, carrier, gridmod.integrate(grid, sf["p"])), chi


def _series(times: list, rows: list) -> RelEnergySeries:
    """The series of per-level ``_energy`` rows, if they pass their checks."""

    times = np.array(times, dtype=float)
    e_mv, e_ess, *pieces = (np.asarray(col) for col in zip(*rows))
    expansion = dict(zip(("ballistic", "cross", "carrier", "closure"), pieces))
    scale = 1.0 + float(np.max(np.abs(e_mv)))
    if float(np.min(e_mv)) < -1e-10 * scale:
        raise ValueError("relative energy must be nonnegative for admissible measures")
    closure_gap = float(np.max(np.abs(e_mv - sum(expansion.values()))))
    if closure_gap > 1e-8 * scale:
        raise ValueError("energy expansion terms fail to reassemble the energy")
    return RelEnergySeries(times=times, e_mv=e_mv, e_ess=e_ess, e_res=e_mv - e_ess,
                           expansion=expansion, expansion_gap=closure_gap,
                           gronwall_c=fit_gronwall_constant(times, e_mv))


def rel_energy_series(states: Iterable[FlowState], sol: StrongSolution) -> RelEnergySeries:
    """Relative energy of a stream of flow states against ``sol``, under
    the equation of state ``sol.model`` the comparison flow carries.

    ``states``, such as ``solver.levels``, is read one state at a time, each
    as its Dirac measure (the bits of ``young.dirac_from_trajectory``), and
    only per-level scalars are kept, so a streamed run is never stored.  Per
    state ``sol`` is evaluated once and the atoms' ``rho_e`` and ``rho_s``
    come from one ``partials`` call.  Raises when a state is not finite or
    not strictly positive, or the energy fails its checks.  A measure's
    energy, the same bits, is the report's.
    """

    model = sol.model
    times, rows = [], []
    for state in states:
        for name, x in (("rho", state.rho), ("u", state.u), ("theta", state.theta)):
            if not np.logical_and.reduce(np.isfinite(x), axis=None):
                raise ValueError(f"{name} must be finite")
        t, rho, theta = float(state.t), state.rho[..., None], state.theta[..., None]
        sf = _strong_state(sol, state.grid, t)
        eos = _atom_eos(model, rho, theta, ("rho_e", "rho_s"))
        times.append(t)
        rows.append(_energy(state.grid, _UNIT[(None,) * state.grid.dim], rho, theta,
                            state.u[..., None, :], sf, eos)[0])
    return _series(times, rows)


def rel_energy_inequality_report(V: AtomicYoungMeasure,
                                 defects: Optional[DefectBundle],
                                 sol: StrongSolution) -> RelEnergyReport:
    """Evaluate the full relative-energy inequality chain level by level.

    Each level's energy comes from the kernel of :func:`rel_energy_series`,
    and the chain is built on the same comparison fields and atom partials,
    under the laws ``sol.model`` and ``sol.transport_model`` the comparison
    flow carries.  The comparison temperature in the ballistic pairing is
    the comparison state's own temperature field.  ``defects`` supplies the
    dissipation history and the matrix defect paired against the comparison
    velocity gradient; ``None`` means both vanish (point masses of resolved
    fields).
    """

    grid, times, n_levels = V.grid, V.times, V.n_levels
    model, transport_model = sol.model, sol.transport_model
    check_defects(V, defects)
    d_diss = np.zeros(n_levels) if defects is None else defects.d_diss

    rates = {k: np.zeros(n_levels) for k in
             _BLOCK_KEYS + ("r2", "rm", "res_tail")}

    def level(lev: int) -> tuple:
        # one level's energy row, its chain rates written into rates; its
        # arrays are dropped on return, so one level's are alive at a time
        w, rho, theta, u = V.weights[lev], V.rho[lev], V.theta[lev], V.u[lev]
        d_u, d_theta = V.d_u[lev], V.d_theta[lev]
        sf = _strong_state(sol, grid, float(times[lev]), full=True)
        eos = _atom_eos(model, rho, theta, ("p", "s", "rho_e", "rho_s"))
        row, chi = _energy(grid, w, rho, theta, u, sf, eos)
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
            grid, sum(_r2_groups(w, rho, theta, u, sf, eos).values()))
        if defects is not None:
            rates["rm"][lev] = gridmod.integrate(grid, np.einsum(
                "...jk,...jk->...", defects.r_m[lev], sf["g_u"]))
        tail = ((1.0 - chi) * (theta + np.abs(eos["p"])
                               + np.sqrt(np.sum((u - u_t) ** 2, axis=-1))
                               + np.abs(eos["rho_s"])
                               * np.sqrt(np.sum(u ** 2, axis=-1))))
        rates["res_tail"][lev] = gridmod.integrate(grid, _avg(w, tail, 0))
        return row

    series = _series(times, [level(lev) for lev in range(n_levels)])
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
