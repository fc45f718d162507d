"""Atomic phase-space measures, defect bundles, and weak-form residuals.

A measure assigns to every (time level, cell) a finite convex combination of
phase-space atoms ``(rho, u, theta, d_u, d_theta)`` where ``d_u`` is the
symmetric velocity-gradient surrogate and ``d_theta`` the temperature-gradient
surrogate.  The evaluators in this module test every clause of the
measure-valued formulation against finite families of test functions:

* gradient compatibility for velocity (symmetric-matrix tests) and
  temperature (vector tests against an admissible reference profile),
* the continuity and momentum identities (the latter with an optional
  matrix-defect pairing, both with an optional forcing fold-in) and the
  entropy production inequality, three weak balance laws on one skeleton,
* the ballistic-energy inequality,
* the defect compatibility bound.

Each clause takes only the expectations it reads and walks the time levels
in its outer loop, so per-level work (reference temperature, forcings) is
done once per level.

``calibrate_kp_constant`` gives a grid's Korn-Poincare constant; the claim-3
study in ``experiments`` compares it with the velocity-control quotient of a
run.  ``defect_from_refinement`` estimates a defect bundle by block-averaging
one fine run onto one coarser grid, level by level.

Discrete-calculus convention: expectations live at cell centers, test-function
spatial derivatives are formed with the same centered operators as the field
derivatives, and boundary behavior is encoded in ghost cells (odd reflection
for zero-trace data, Dirichlet mirroring for temperature references).  With
that pairing the integrated-by-parts residuals telescope, so an equilibrium
Dirac measure yields residuals at round-off and smooth trajectories yield
O(h^2) residuals that shrink under refinement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from . import grid as gridmod
from . import thermo
from . import transport
from .manufactured import StrongSolution, grid_points
from .solver import Trajectory
from .testfuns import ScalarTest, TensorTest, ThetaRef, VectorTest

__all__ = [
    "AtomicYoungMeasure",
    "DefectBundle",
    "ClauseReport",
    "DefectCompatReport",
    "RefinementReport",
    "dirac_from_trajectory",
    "dirac_from_strong",
    "mix",
    "expect",
    "check_velocity_compat",
    "check_temperature_compat",
    "continuity_residual",
    "momentum_residual",
    "entropy_mv_residual",
    "ballistic_mv_residual",
    "defect_compat_check",
    "calibrate_kp_constant",
    "defect_from_refinement",
]

_WEIGHT_TOL = 1e-12
_SYM_TOL = 1e-9


# --------------------------------------------------------------------------
# types
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class AtomicYoungMeasure:
    """Per (time level, cell) convex combination of phase atoms.

    Arrays carry the layout ``(levels, *cells, atoms, *components)``.
    """

    grid: gridmod.Grid
    times: np.ndarray
    weights: np.ndarray
    rho: np.ndarray
    u: np.ndarray
    theta: np.ndarray
    d_u: np.ndarray
    d_theta: np.ndarray
    boundary: Optional[gridmod.BoundaryData] = None

    def __post_init__(self):
        times = np.atleast_1d(np.asarray(self.times, dtype=float))
        object.__setattr__(self, "times", times)
        for name in ("weights", "rho", "u", "theta", "d_u", "d_theta"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        d = self.grid.dim
        base = (len(times),) + self.grid.interior_shape()
        k = self.weights.shape[-1]
        shapes = {
            "weights": base + (k,),
            "rho": base + (k,),
            "theta": base + (k,),
            "u": base + (k, d),
            "d_u": base + (k, d, d),
            "d_theta": base + (k, d),
        }
        for name, want in shapes.items():
            got = getattr(self, name).shape
            if got != want:
                raise ValueError(f"{name} has shape {got}, expected {want}")
        for name in shapes:
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite")
        if np.any(self.weights <= 0.0):
            raise ValueError("atom weights must be positive")
        total = np.sum(self.weights, axis=-1)
        if np.max(np.abs(total - 1.0)) > _WEIGHT_TOL:
            raise ValueError("atom weights must sum to 1 within 1e-12 in every cell")
        if np.any(self.rho < 0.0) or np.any(self.theta < 0.0):
            raise ValueError("atoms require rho >= 0 and theta >= 0")
        if _asymmetric(self.d_u):
            raise ValueError("velocity-gradient atoms must be symmetric")

    @property
    def n_levels(self) -> int:
        return len(self.times)


@dataclass(frozen=True)
class DefectBundle:
    """Matrix defect density, dissipation defect, and compatibility weight.

    ``r_m`` is the density (per unit volume) of the matrix-valued defect
    against the cell partition; ``d_diss`` is the scalar dissipation defect per
    time level and ``xi`` the integrable compatibility weight.
    """

    grid: gridmod.Grid
    times: np.ndarray
    r_m: np.ndarray
    d_diss: np.ndarray
    xi: np.ndarray

    def __post_init__(self):
        times = np.atleast_1d(np.asarray(self.times, dtype=float))
        object.__setattr__(self, "times", times)
        d = self.grid.dim
        r_m = np.asarray(self.r_m, dtype=float)
        dd = np.atleast_1d(np.asarray(self.d_diss, dtype=float))
        xi = np.atleast_1d(np.asarray(self.xi, dtype=float))
        object.__setattr__(self, "r_m", r_m)
        object.__setattr__(self, "d_diss", dd)
        object.__setattr__(self, "xi", xi)
        want = (len(times),) + self.grid.interior_shape((d, d))
        if r_m.shape != want:
            raise ValueError(f"r_m has shape {r_m.shape}, expected {want}")
        if dd.shape != times.shape or xi.shape != times.shape:
            raise ValueError("d_diss and xi must carry one value per time level")
        if not (np.all(np.isfinite(r_m)) and np.all(np.isfinite(dd)) and np.all(np.isfinite(xi))):
            raise ValueError("defect data must be finite")
        if np.any(dd < 0.0):
            raise ValueError("dissipation defect must be nonnegative")
        if np.any(xi < 0.0):
            raise ValueError("compatibility weight must be nonnegative")


@dataclass(frozen=True)
class ClauseReport:
    """Residuals of one weak-form clause over a test-function family."""

    clause: str
    labels: tuple[str, ...]
    residuals: np.ndarray
    extras: dict = field(default_factory=dict)

    @property
    def max_abs(self) -> float:
        return float(np.max(np.abs(self.residuals))) if self.residuals.size else 0.0

    @property
    def min(self) -> float:
        return float(np.min(self.residuals)) if self.residuals.size else 0.0


@dataclass(frozen=True)
class DefectCompatReport:
    """Outcome of the matrix-defect compatibility bound."""

    ok: bool
    worst_margin: float
    violations: tuple

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class RefinementReport:
    """Reference-profile spread and the smallest raw Jensen gap."""

    theta_spread: float
    d_min_raw: float


# --------------------------------------------------------------------------
# constructors
# --------------------------------------------------------------------------


def _dirac(grid: gridmod.Grid, times: np.ndarray, boundary, rho, u, theta,
           d_u, d_theta) -> AtomicYoungMeasure:
    """One atom of weight 1 per cell from per-level fields."""

    ax = 1 + grid.dim
    return AtomicYoungMeasure(
        grid=grid, times=times, weights=np.ones(np.shape(rho) + (1,)),
        rho=rho[..., None], u=np.expand_dims(u, ax), theta=theta[..., None],
        d_u=np.expand_dims(d_u, ax), d_theta=np.expand_dims(d_theta, ax),
        boundary=boundary)


def dirac_from_trajectory(traj: Trajectory) -> AtomicYoungMeasure:
    """One atom per cell: the trajectory state and its discrete gradients."""

    g = traj.grid
    d = g.dim
    levels = traj.n_levels
    d_u = np.empty((levels,) + g.interior_shape((d, d)))
    d_th = np.empty((levels,) + g.interior_shape((d,)))
    for k in range(levels):
        _, u_f, th_f = gridmod.sync_physical(g, traj.rho[k], traj.u[k],
                                             traj.theta[k], traj.boundary,
                                             float(traj.times[k]))
        d_u[k] = transport.sym_part(gridmod.grad_vector(u_f))
        d_th[k] = gridmod.gradient(th_f)
    return _dirac(g, np.asarray(traj.times, dtype=float), traj.boundary,
                  traj.rho, traj.u, traj.theta, d_u, d_th)


def dirac_from_strong(sol: StrongSolution, grid: gridmod.Grid,
                      times: Sequence[float]) -> AtomicYoungMeasure:
    """One atom per cell sampled from a smooth solution with exact gradients."""

    pts = grid_points(grid)
    times = np.atleast_1d(np.asarray(times, dtype=float))
    return _dirac(grid, times, sol.boundary,
                  np.stack([sol.rho(t, pts) for t in times]),
                  np.stack([sol.u(t, pts) for t in times]),
                  np.stack([sol.theta(t, pts) for t in times]),
                  np.stack([transport.sym_part(sol.grad_u(t, pts)) for t in times]),
                  np.stack([sol.grad_theta(t, pts) for t in times]))


def mix(measures: Sequence[AtomicYoungMeasure],
        weights: Sequence[float]) -> AtomicYoungMeasure:
    """Convex combination: concatenate atom lists with scaled weights."""

    if len(measures) == 0 or len(measures) != len(weights):
        raise ValueError("mix needs one weight per measure")
    w = np.asarray(weights, dtype=float)
    if np.any(w <= 0.0) or abs(float(np.sum(w)) - 1.0) > _WEIGHT_TOL:
        raise ValueError("mixture weights must be positive and sum to 1")
    first = measures[0]
    for m in measures[1:]:
        if m.grid is not first.grid and m.grid != first.grid:
            raise ValueError("mixed measures must share one grid")
        if m.times.shape != first.times.shape or np.max(np.abs(m.times - first.times)) > 1e-12:
            raise ValueError("mixed measures must share time levels")
    axis = 1 + first.grid.dim
    return AtomicYoungMeasure(
        grid=first.grid, times=first.times,
        weights=np.concatenate([wi * m.weights for wi, m in zip(w, measures)], axis=axis),
        rho=np.concatenate([m.rho for m in measures], axis=axis),
        u=np.concatenate([m.u for m in measures], axis=axis),
        theta=np.concatenate([m.theta for m in measures], axis=axis),
        d_u=np.concatenate([m.d_u for m in measures], axis=axis),
        d_theta=np.concatenate([m.d_theta for m in measures], axis=axis),
        boundary=first.boundary,
    )


# --------------------------------------------------------------------------
# expectation
# --------------------------------------------------------------------------


def expect(V: AtomicYoungMeasure, observable: Callable) -> np.ndarray:
    """Atom-weighted expectation of ``observable(rho, u, theta, d_u, d_theta)``.

    The observable must keep the atom axis in place; trailing component axes
    (vectors, matrices) pass through.  Returns ``(levels, *cells, *components)``.
    """

    vals = np.asarray(observable(V.rho, V.u, V.theta, V.d_u, V.d_theta), dtype=float)
    k_axis = 1 + V.grid.dim
    if vals.shape[: k_axis + 1] != V.weights.shape:
        raise ValueError(
            f"observable output shape {vals.shape} does not start with the "
            f"atom layout {V.weights.shape}")
    if not np.all(np.isfinite(vals)):
        flat = np.argmax(~np.isfinite(vals))
        idx = np.unravel_index(int(flat), vals.shape)
        lev, cell, k = idx[0], idx[1:k_axis], idx[k_axis]
        atom = idx[: k_axis + 1]
        raise ValueError(
            f"observable returned a non-finite value at time level {lev}, "
            f"cell {tuple(cell)}, atom {k}: rho={float(V.rho[atom])}, "
            f"theta={float(V.theta[atom])}, u={V.u[atom].tolist()}")
    w = V.weights.reshape(V.weights.shape + (1,) * (vals.ndim - k_axis - 1))
    return np.sum(w * vals, axis=k_axis)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("...j,...j->...", a, b)


def _ddot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("...jk,...jk->...", a, b)


def _asymmetric(a: np.ndarray) -> bool:
    gap = np.max(np.abs(a - np.swapaxes(a, -1, -2)))
    return gap > _SYM_TOL * (1.0 + np.max(np.abs(a)))


# --------------------------------------------------------------------------
# test-function sampling on the padded grid
# --------------------------------------------------------------------------


def _sampled(grid: gridmod.Grid, test, t: float, field_cls,
             zero_trace: bool = False):
    """``test`` at time ``t`` as a synced field of ``field_cls``: sampled on
    every padded cell, or, for zero-trace data, on the interior and extended
    oddly across the walls."""

    if zero_trace:
        vals = np.asarray(test.value(t, grid_points(grid)), dtype=float)
        return gridmod.sync_odd(field_cls.from_interior(grid, vals))
    vals = np.asarray(test.value(t, grid_points(grid, ghost=True)), dtype=float)
    return field_cls(grid=grid, data=vals, synced=True)


def _time_integral(vals: np.ndarray, times: np.ndarray, tau_idx: int) -> float:
    if tau_idx == 0:
        return 0.0
    return float(np.trapezoid(vals[: tau_idx + 1], times[: tau_idx + 1]))


def _boundary(V: AtomicYoungMeasure,
              boundary: Optional[gridmod.BoundaryData]) -> gridmod.BoundaryData:
    boundary = boundary if boundary is not None else V.boundary
    if boundary is None:
        raise ValueError("boundary trace data are required to embed the reference temperature")
    return boundary


def _reference(g: gridmod.Grid, theta_ref: ThetaRef,
               boundary: gridmod.BoundaryData, t: float):
    """Reference temperature at the cell centers and its gradient, with the
    ghosts taken from the Dirichlet trace."""

    vals = np.asarray(theta_ref.value(t, grid_points(g)), dtype=float)
    if np.min(vals) <= 0.0:
        raise ValueError("reference temperature must stay positive on the domain")
    ref_f = gridmod.sync_dirichlet(
        gridmod.ScalarField.from_interior(g, vals), boundary, t)
    return vals, gridmod.gradient(ref_f)


# --------------------------------------------------------------------------
# gradient-compatibility clauses
# --------------------------------------------------------------------------


def check_velocity_compat(V: AtomicYoungMeasure,
                          tensors: Sequence[TensorTest]) -> ClauseReport:
    """Pair mean velocity against mean velocity gradient via matrix tests.

    For each symmetric matrix test the signed residual
    ``r = -II<u>.divT - II<d_u>:T`` vanishes (after integrating by parts) when
    the gradient marginal is the spatial gradient of the zero-trace velocity
    marginal.
    """

    g = V.grid
    u = expect(V, lambda r, u, th, du, dth: u)
    d_u = expect(V, lambda r, u, th, du, dth: du)
    inner = np.empty((len(tensors), V.n_levels))
    for k, t in enumerate(V.times):
        for i, test in enumerate(tensors):
            tf = _sampled(g, test, float(t), gridmod.TensorField)
            if _asymmetric(tf.data):
                raise ValueError(f"matrix test function {test.label!r} must be symmetric")
            inner[i, k] = float(gridmod.integrate(
                g, -_dot(u[k], gridmod.tensor_divergence(tf)) - _ddot(d_u[k], tf.interior)))
    last = V.n_levels - 1
    return ClauseReport(clause="velocity_compat",
                        labels=tuple(t.label for t in tensors),
                        residuals=np.asarray([_time_integral(row, V.times, last)
                                              for row in inner]))


def check_temperature_compat(V: AtomicYoungMeasure, psis: Sequence[VectorTest],
                             theta_ref: ThetaRef,
                             boundary: Optional[gridmod.BoundaryData] = None) -> ClauseReport:
    """Pair the temperature gap (theta - ref) against vector tests.

    Primary residual (integration-by-parts consistent, vanishes for compatible
    measures): ``r = -II<theta-ref>.div psi - II<D_theta-grad ref>.psi``.  The
    sign variant with ``+`` on the second integral is also evaluated and
    reported under ``extras['as_written']``; it measures twice the gradient
    pairing instead and stays O(1) even for exact solutions.
    """

    g = V.grid
    boundary = _boundary(V, boundary)
    theta = expect(V, lambda r, u, th, du, dth: th)
    d_theta = expect(V, lambda r, u, th, du, dth: dth)
    a_vals = np.empty((len(psis), V.n_levels))
    b_vals = np.empty((len(psis), V.n_levels))
    for k, t in enumerate(V.times):
        t = float(t)
        ref, grad_ref = _reference(g, theta_ref, boundary, t)
        gap = theta[k] - ref
        grad_gap = d_theta[k] - grad_ref
        for i, test in enumerate(psis):
            psi_f = _sampled(g, test, t, gridmod.VectorField)
            a_vals[i, k] = float(gridmod.integrate(g, gap * gridmod.divergence(psi_f)))
            b_vals[i, k] = float(gridmod.integrate(g, _dot(grad_gap, psi_f.interior)))
    last = V.n_levels - 1
    return ClauseReport(clause="temperature_compat",
                        labels=tuple(t.label for t in psis),
                        residuals=np.asarray([_time_integral(row, V.times, last)
                                              for row in -a_vals - b_vals]),
                        extras={"as_written": np.asarray(
                            [_time_integral(row, V.times, last)
                             for row in -a_vals + b_vals])})


# --------------------------------------------------------------------------
# balance-law clauses
# --------------------------------------------------------------------------


def _balance(V: AtomicYoungMeasure, clause: str, tests: Sequence,
             density: np.ndarray, pair: Callable, bulk: Callable) -> ClauseReport:
    """Signed residuals of one weak balance law, one per test function.

    For a test ``phi`` the residual is ``II pair(density, phi)`` at the last
    level minus at the first, minus the time integral of
    ``II [pair(density, d_t phi) + bulk terms]``.  ``bulk(k, t)`` prepares
    level ``k`` once and returns a function that yields the level's flux,
    defect and forcing terms for one test; they are added left to right, so
    each clause fixes its own summation order.
    """

    g = V.grid
    pts = grid_points(g)
    last = V.n_levels - 1
    rates = np.empty((len(tests), V.n_levels))
    for k, t in enumerate(V.times):
        t = float(t)
        terms = bulk(k, t)
        for i, test in enumerate(tests):
            inner = pair(density[k], np.asarray(test.dt(t, pts), dtype=float))
            for term in terms(test):
                inner = inner + term
            rates[i, k] = float(gridmod.integrate(g, inner))

    def held(k: int, test) -> float:
        vals = np.asarray(test.value(float(V.times[k]), pts), dtype=float)
        return float(gridmod.integrate(g, pair(density[k], vals)))

    residuals = [held(last, test) - held(0, test) - _time_integral(rate, V.times, last)
                 for test, rate in zip(tests, rates)]
    return ClauseReport(clause=clause, labels=tuple(t.label for t in tests),
                        residuals=np.asarray(residuals))


def continuity_residual(V: AtomicYoungMeasure, psis: Sequence[ScalarTest],
                        source: Optional[StrongSolution] = None) -> ClauseReport:
    """Signed residuals of the weak mass balance over the saved levels."""

    g = V.grid
    pts = grid_points(g)
    mom = expect(V, lambda r, u, th, du, dth: r[..., None] * u)

    def bulk(k, t):
        f_mass = None if source is None else source.f_mass(t, pts)

        def terms(test):
            psi_f = _sampled(g, test, t, gridmod.ScalarField)
            yield _dot(mom[k], gridmod.gradient(psi_f))
            if f_mass is not None:
                yield f_mass * psi_f.interior
        return terms

    rho = expect(V, lambda r, u, th, du, dth: r)
    return _balance(V, "continuity", psis, rho, np.multiply, bulk)


def momentum_residual(V: AtomicYoungMeasure, phis: Sequence[VectorTest],
                      model: thermo.ThermoModel,
                      transport_model: transport.TransportModel,
                      r_m: Optional[np.ndarray | DefectBundle] = None,
                      source: Optional[StrongSolution] = None) -> ClauseReport:
    """Signed residuals of the weak momentum balance with defect pairing."""

    g = V.grid
    if isinstance(r_m, DefectBundle):
        r_m = r_m.r_m
    if r_m is not None:
        r_m = np.asarray(r_m, dtype=float)
        want = (V.n_levels,) + g.interior_shape((g.dim, g.dim))
        if r_m.shape != want:
            raise ValueError(f"matrix defect has shape {r_m.shape}, expected {want}")
    for test in phis:
        if not test.zero_trace:
            raise ValueError(f"momentum test function {test.label!r} must vanish on the boundary")
    pts = grid_points(g)
    conv = expect(V, lambda r, u, th, du, dth:
                  r[..., None, None] * u[..., :, None] * u[..., None, :])
    p_mean = expect(V, lambda r, u, th, du, dth: model.p(r, th))
    s_mean = expect(V, lambda r, u, th, du, dth:
                    transport.viscous_stress(transport_model, r, th, du))

    def bulk(k, t):
        f_mom = None if source is None else source.f_mom(t, pts)

        def terms(test):
            phi_f = _sampled(g, test, t, gridmod.VectorField, zero_trace=True)
            grad_phi = gridmod.grad_vector(phi_f)
            yield _ddot(conv[k], grad_phi)
            yield p_mean[k] * np.einsum("...ii->...", grad_phi)
            yield -_ddot(s_mean[k], grad_phi)
            if r_m is not None:
                yield _ddot(r_m[k], grad_phi)
            if f_mom is not None:
                yield _dot(f_mom, phi_f.interior)
        return terms

    mom = expect(V, lambda r, u, th, du, dth: r[..., None] * u)
    return _balance(V, "momentum", phis, mom, _dot, bulk)


def entropy_mv_residual(V: AtomicYoungMeasure, phis: Sequence[ScalarTest],
                        model: thermo.ThermoModel,
                        transport_model: transport.TransportModel) -> ClauseReport:
    """Signed slack of the weak entropy inequality (admissible when >= -tol)."""

    g = V.grid
    for test in phis:
        if not test.nonnegative:
            raise ValueError(f"entropy test function {test.label!r} must be nonnegative")
    flux = expect(V, lambda r, u, th, du, dth:
                  model.rho_s(r, th)[..., None] * u
                  - (transport_model.kappa(r, th) / th)[..., None] * dth)
    sigma = expect(V, lambda r, u, th, du, dth:
                   transport.entropy_production_density(transport_model, r, th, du, dth))

    def bulk(k, t):
        def terms(test):
            phi_f = _sampled(g, test, t, gridmod.ScalarField)
            phi_int = phi_f.interior
            if np.min(phi_int) < -1e-12:
                raise ValueError(f"entropy test function {test.label!r} must be nonnegative")
            yield _dot(flux[k], gridmod.gradient(phi_f))
            yield sigma[k] * phi_int
        return terms

    rho_s = expect(V, lambda r, u, th, du, dth: model.rho_s(r, th))
    return _balance(V, "entropy", phis, rho_s, np.multiply, bulk)


def ballistic_mv_residual(V: AtomicYoungMeasure, d_diss: np.ndarray | float,
                          theta_ref: ThetaRef, model: thermo.ThermoModel,
                          transport_model: transport.TransportModel,
                          boundary: Optional[gridmod.BoundaryData] = None) -> ClauseReport:
    """Slack of the ballistic-energy inequality at every saved time level.

    The dissipation defect sits on the dissipative side, so inflating it can
    only reduce the slack; residual >= -tol at all levels means admissible.
    """

    g = V.grid
    boundary = _boundary(V, boundary)
    d_arr = np.broadcast_to(np.asarray(d_diss, dtype=float), V.times.shape).copy()
    if np.any(d_arr < 0.0):
        raise ValueError("dissipation defect must be nonnegative")
    energy = expect(V, lambda r, u, th, du, dth:
                    0.5 * r * np.sum(u * u, axis=-1) + model.rho_e(r, th))
    rho_s = expect(V, lambda r, u, th, du, dth: model.rho_s(r, th))
    ent_flux = expect(V, lambda r, u, th, du, dth: model.rho_s(r, th)[..., None] * u)
    heat = expect(V, lambda r, u, th, du, dth:
                  (transport_model.kappa(r, th) / th)[..., None] * dth)
    sigma = expect(V, lambda r, u, th, du, dth:
                   transport.entropy_production_density(transport_model, r, th, du, dth))
    pts = grid_points(g)
    n = V.n_levels
    ball = np.empty(n)
    rates = np.empty((4, n))  # sigma*ref, rho_s*d_t ref, entropy and heat flux . grad ref
    for k in range(n):
        t = float(V.times[k])
        ref, grad_ref = _reference(g, theta_ref, boundary, t)
        ball[k] = float(gridmod.integrate(g, energy[k] - ref * rho_s[k]))
        rates[:, k] = [float(gridmod.integrate(g, f)) for f in (
            sigma[k] * ref, rho_s[k] * np.asarray(theta_ref.dt(t, pts), dtype=float),
            _dot(ent_flux[k], grad_ref), _dot(heat[k], grad_ref))]
    slack = np.empty(n)
    for k in range(n):
        sig_ref, ent_dt, ent_adv, heat_cpl = (_time_integral(r, V.times, k) for r in rates)
        slack[k] = ball[0] - ball[k] - d_arr[k] - sig_ref - ent_dt - ent_adv + heat_cpl
    return ClauseReport(clause="ballistic",
                        labels=tuple(f"t={t:.6g}" for t in V.times),
                        residuals=slack, extras={"ballistic": ball})


# --------------------------------------------------------------------------
# defect compatibility and the Korn-Poincare constant
# --------------------------------------------------------------------------


def defect_compat_check(bundle: DefectBundle,
                        phis: Sequence[VectorTest]) -> DefectCompatReport:
    """Check |pairing of r_m with grad phi| <= xi * D * ||phi||_C1 levelwise,
    up to a relative slack of 1e-12."""

    g = bundle.grid
    pts = grid_points(g)
    worst = np.inf
    violations = []
    for test in phis:
        if not test.zero_trace:
            raise ValueError(f"defect test function {test.label!r} must vanish on the boundary")
        for k, t in enumerate(bundle.times):
            t = float(t)
            phi_f = _sampled(g, test, t, gridmod.VectorField, zero_trace=True)
            grad_phi = gridmod.grad_vector(phi_f)
            pairing = abs(float(gridmod.integrate(g, _ddot(bundle.r_m[k], grad_phi))))
            sup_phi = float(np.max(np.linalg.norm(test.value(t, pts), axis=-1)))
            sup_grad = float(np.max(np.sqrt(np.sum(grad_phi ** 2, axis=(-2, -1)))))
            c1_norm = max(sup_phi, sup_grad)
            bound = float(bundle.xi[k] * bundle.d_diss[k]) * c1_norm
            margin = bound + 1e-12 * (1.0 + bound) - pairing
            worst = min(worst, margin)
            if margin < 0.0:
                violations.append((test.label, k, pairing, bound))
    return DefectCompatReport(ok=not violations, worst_margin=float(worst),
                              violations=tuple(violations))


def calibrate_kp_constant(grid: gridmod.Grid) -> float:
    """1.1 times the largest ratio integral|u|^2 / integral|D0(grad u)|^2 over
    five low sine modes.

    The traceless comparison degenerates in one dimension (every 1x1 matrix is
    its own trace), so calibration requires a two-dimensional grid.
    """

    if grid.dim < 2:
        raise ValueError("traceless strain control degenerates in one dimension; "
                         "calibrate on a two-dimensional grid")
    pts = grid_points(grid)
    x = (pts[..., 0] - grid.lo[0]) / (grid.hi[0] - grid.lo[0])
    y = (pts[..., 1] - grid.lo[1]) / (grid.hi[1] - grid.lo[1])
    worst = 0.0
    for kx, ky in ((1, 1), (1, 2), (2, 1), (2, 2), (3, 2)):
        u = np.zeros(grid.interior_shape((2,)))
        u[..., 0] = np.sin(np.pi * kx * x) * np.sin(np.pi * ky * y)
        f = gridmod.sync_odd(gridmod.VectorField.from_interior(grid, u))
        d0 = transport.traceless_sym(gridmod.grad_vector(f))
        num = float(gridmod.integrate(grid, np.sum(u ** 2, axis=-1)))
        den = float(gridmod.integrate(grid, np.sum(d0 ** 2, axis=(-2, -1))))
        worst = max(worst, num / den)
    return 1.1 * worst


# --------------------------------------------------------------------------
# defects by coarse-graining a fine run
# --------------------------------------------------------------------------


def _block_average(a: np.ndarray, factors: tuple[int, ...]) -> np.ndarray:
    """Average over blocks of shape ``factors``; trailing axes pass through."""

    dim = len(factors)
    shape = a.shape
    new = []
    for ax in range(dim):
        new.extend([shape[ax] // factors[ax], factors[ax]])
    new.extend(shape[dim:])
    reshaped = a.reshape(tuple(new))
    axes = tuple(2 * ax + 1 for ax in range(dim))
    return reshaped.mean(axis=axes)


def defect_from_refinement(fine: Trajectory, coarse: gridmod.Grid,
                           model: thermo.ThermoModel,
                           theta_refs: Sequence[ThetaRef] = (),
                           ) -> tuple[DefectBundle, RefinementReport]:
    """Estimate dissipation and matrix defects by coarse-graining a fine run.

    Each level of ``fine`` is block-averaged in its conserved variables
    ``(rho, rho u, rho s)`` onto ``coarse``, and level k of the bundle is
    level k of ``fine``.  Per coarse cell, the dissipation-defect density is
    the Jensen gap ``avg(total energy) - total energy(averaged state)``
    (nonnegative because total energy is convex in the conserved variables),
    and the matrix-defect density is the matching gap for ``rho u x u + p I``.
    The compatibility weight is ``xi = integral|r_m|_F / D``.
    Reference-temperature terms enter the ballistic gap only through in-cell
    covariance with the entropy, so the estimate's spread across admissible
    references is reported and expected small.
    """

    g = fine.grid
    if g.dim != coarse.dim or g.lo != coarse.lo or g.hi != coarse.hi:
        raise ValueError("incompatible grids: the fine run and the coarse grid "
                         "must share the domain")
    if any(cf % cc for cf, cc in zip(g.cells, coarse.cells)):
        raise ValueError("incompatible grids: fine cells must be multiples of the coarse ones")
    factors = tuple(cf // cc for cf, cc in zip(g.cells, coarse.cells))
    times = np.asarray(fine.times, dtype=float)
    n_t = len(times)
    d = coarse.dim
    fine_pts = grid_points(g)
    coarse_pts = grid_points(coarse)

    r_m = np.zeros((n_t,) + coarse.interior_shape((d, d)))
    d_diss = np.zeros(n_t)
    rm_tot = np.zeros(n_t)
    ref_gaps = np.zeros((max(len(theta_refs), 1), n_t))
    d_min_raw = np.inf

    for k, t in enumerate(times):
        rho, u, th = fine.rho[k], fine.u[k], fine.theta[k]
        mom = rho[..., None] * u
        rho_s = model.rho_s(rho, th)
        energy = 0.5 * rho * np.sum(u * u, axis=-1) + model.rho_e(rho, th)
        rho_bar = _block_average(rho, factors)
        mom_bar = _block_average(mom, factors)
        rs_bar = _block_average(rho_s, factors)
        e_avg = _block_average(energy, factors)
        th_bar = thermo.invert_entropy(model, rho_bar, rs_bar / rho_bar)
        u_bar = mom_bar / rho_bar[..., None]
        e_bar = (0.5 * rho_bar * np.sum(u_bar * u_bar, axis=-1)
                 + model.rho_e(rho_bar, th_bar))
        gap = e_avg - e_bar
        d_min_raw = min(d_min_raw, float(np.min(gap)))
        d_diss[k] = float(gridmod.integrate(coarse, np.maximum(gap, 0.0)))
        conv = rho[..., None, None] * u[..., :, None] * u[..., None, :]
        flux_avg = (_block_average(conv, factors)
                    + _block_average(model.p(rho, th), factors)[..., None, None] * np.eye(d))
        flux_bar = (rho_bar[..., None, None] * u_bar[..., :, None] * u_bar[..., None, :]
                    + model.p(rho_bar, th_bar)[..., None, None] * np.eye(d))
        r_m[k] = flux_avg - flux_bar
        rm_tot[k] = float(gridmod.integrate(
            coarse, np.sqrt(np.sum(r_m[k] ** 2, axis=(-2, -1)))))
        for ri, ref in enumerate(theta_refs):
            ref_fine = np.asarray(ref.value(float(t), fine_pts), dtype=float)
            ref_coarse = np.asarray(ref.value(float(t), coarse_pts), dtype=float)
            ball_avg = _block_average(energy - ref_fine * rho_s, factors)
            ball_bar = e_bar - ref_coarse * rs_bar
            ref_gaps[ri, k] = float(gridmod.integrate(
                coarse, np.maximum(ball_avg - ball_bar, 0.0)))

    floor = 1e-14 * (1.0 + np.max(d_diss))
    xi = np.where(rm_tot <= floor, 0.0, rm_tot / np.maximum(d_diss, 1e-300))
    spread = 0.0
    if theta_refs:
        scale = np.maximum(d_diss, 1e-300)
        live = d_diss > floor
        if np.any(live):
            spread = float(np.max(np.abs(ref_gaps[:, live] - d_diss[live]) / scale[live]))
    bundle = DefectBundle(grid=coarse, times=times, r_m=r_m, d_diss=d_diss, xi=xi)
    report = RefinementReport(theta_spread=spread, d_min_raw=float(d_min_raw))
    return bundle, report
