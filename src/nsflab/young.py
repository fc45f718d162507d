"""Atomic phase-space measures, defect bundles, and weak-form residuals.

A measure assigns to every (time level, cell) a finite convex combination of
phase-space atoms ``(rho, u, theta, d_u, d_theta)`` where ``d_u`` is the
symmetric velocity-gradient surrogate and ``d_theta`` the temperature-gradient
surrogate.  The evaluators in this module test every clause of the
measure-valued formulation against finite families of test functions:

* gradient compatibility for velocity (symmetric-matrix tests) and
  temperature (vector tests against an admissible reference profile),
* the continuity and momentum identities (the latter with an optional
  matrix-defect pairing and forcing fold-in),
* the entropy production inequality and the ballistic-energy inequality,
* the defect compatibility bound.

``calibrate_kp_constant`` gives a grid's Korn-Poincare constant; the claim-3
study in ``experiments`` compares it with the velocity-control quotient of a
run.

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
    "PhaseAtom",
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
class PhaseAtom:
    """One phase-space point: state, velocity gradient, temperature gradient."""

    rho: float
    u: np.ndarray
    theta: float
    d_u: np.ndarray
    d_theta: np.ndarray

    def __post_init__(self):
        u = np.atleast_1d(np.asarray(self.u, dtype=float))
        d_u = np.asarray(self.d_u, dtype=float)
        d_th = np.atleast_1d(np.asarray(self.d_theta, dtype=float))
        if d_u.ndim == 0:
            d_u = d_u.reshape(1, 1)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "d_u", d_u)
        object.__setattr__(self, "d_theta", d_th)
        vals = [self.rho, self.theta, u, d_u, d_th]
        if not all(np.all(np.isfinite(v)) for v in vals):
            raise ValueError("phase atoms must have finite components")
        if self.rho < 0.0 or self.theta < 0.0:
            raise ValueError("phase atoms require rho >= 0 and theta >= 0")
        if d_u.shape != (u.size, u.size) or d_th.shape != u.shape:
            raise ValueError("phase atom gradient shapes must match the velocity dimension")
        if np.max(np.abs(d_u - d_u.T)) > _SYM_TOL * (1.0 + np.max(np.abs(d_u))):
            raise ValueError("velocity-gradient atoms must be symmetric")


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
        gap = np.max(np.abs(self.d_u - np.swapaxes(self.d_u, -1, -2)))
        if gap > _SYM_TOL * (1.0 + np.max(np.abs(self.d_u))):
            raise ValueError("velocity-gradient atoms must be symmetric")

    @property
    def n_levels(self) -> int:
        return len(self.times)

    def atom(self, level: int, cell: tuple[int, ...], k: int) -> PhaseAtom:
        idx = (level,) + tuple(cell) + (k,)
        return PhaseAtom(rho=float(self.rho[idx]), u=self.u[idx],
                         theta=float(self.theta[idx]), d_u=self.d_u[idx],
                         d_theta=self.d_theta[idx])


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
    """Per-refinement defect sizes and reference-profile spread."""

    times: np.ndarray
    cells: tuple[int, ...]
    d_by_level: np.ndarray        # (n_trajs, n_times), finest first
    theta_labels: tuple[str, ...]
    theta_spread: float
    d_min_raw: float


# --------------------------------------------------------------------------
# constructors
# --------------------------------------------------------------------------


def _expand_atom_axis(a: np.ndarray, dim: int) -> np.ndarray:
    return np.expand_dims(a, axis=1 + dim)


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
    ones = np.ones((levels,) + g.interior_shape((1,)))
    return AtomicYoungMeasure(
        grid=g, times=np.asarray(traj.times, dtype=float), weights=ones,
        rho=traj.rho[..., None],
        u=np.expand_dims(traj.u, axis=1 + d),
        theta=traj.theta[..., None],
        d_u=_expand_atom_axis(d_u, d),
        d_theta=_expand_atom_axis(d_th, d),
        boundary=traj.boundary,
    )


def dirac_from_strong(sol: StrongSolution, grid: gridmod.Grid,
                      times: Sequence[float]) -> AtomicYoungMeasure:
    """One atom per cell sampled from a smooth solution with exact gradients."""

    d = grid.dim
    pts = grid_points(grid)
    times = np.atleast_1d(np.asarray(times, dtype=float))
    rho = np.stack([sol.rho(t, pts) for t in times])
    u = np.stack([sol.u(t, pts) for t in times])
    theta = np.stack([sol.theta(t, pts) for t in times])
    d_u = np.stack([transport.sym_part(sol.grad_u(t, pts)) for t in times])
    d_th = np.stack([sol.grad_theta(t, pts) for t in times])
    ones = np.ones((len(times),) + grid.interior_shape((1,)))
    return AtomicYoungMeasure(
        grid=grid, times=times, weights=ones,
        rho=rho[..., None],
        u=np.expand_dims(u, axis=1 + d),
        theta=theta[..., None],
        d_u=_expand_atom_axis(d_u, d),
        d_theta=_expand_atom_axis(d_th, d),
        boundary=sol.boundary,
    )


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
        atom = V.atom(lev, cell, k)
        raise ValueError(
            f"observable returned a non-finite value at time level {lev}, "
            f"cell {tuple(cell)}, atom {k}: rho={atom.rho}, theta={atom.theta}, "
            f"u={atom.u.tolist()}")
    w = V.weights.reshape(V.weights.shape + (1,) * (vals.ndim - k_axis - 1))
    return np.sum(w * vals, axis=k_axis)


def _mean_fields(V: AtomicYoungMeasure) -> dict[str, np.ndarray]:
    """First moments used by several clause evaluators."""

    return {
        "rho": expect(V, lambda r, u, th, du, dth: r),
        "u": expect(V, lambda r, u, th, du, dth: u),
        "mom": expect(V, lambda r, u, th, du, dth: r[..., None] * u),
        "theta": expect(V, lambda r, u, th, du, dth: th),
        "d_u": expect(V, lambda r, u, th, du, dth: du),
        "d_theta": expect(V, lambda r, u, th, du, dth: dth),
    }


# --------------------------------------------------------------------------
# test-function sampling on the padded grid
# --------------------------------------------------------------------------


def _scalar_free(grid: gridmod.Grid, test: ScalarTest, t: float) -> gridmod.ScalarField:
    vals = np.asarray(test.value(t, grid_points(grid, ghost=True)), dtype=float)
    return gridmod.ScalarField(grid=grid, data=vals, synced=True)


def _vector_free(grid: gridmod.Grid, test: VectorTest, t: float) -> gridmod.VectorField:
    vals = np.asarray(test.value(t, grid_points(grid, ghost=True)), dtype=float)
    return gridmod.VectorField(grid=grid, data=vals, synced=True)


def _vector_zero_trace(grid: gridmod.Grid, test: VectorTest, t: float) -> gridmod.VectorField:
    vals = np.asarray(test.value(t, grid_points(grid)), dtype=float)
    f = gridmod.VectorField.from_interior(grid, vals)
    return gridmod.sync_odd(f)


def _tensor_free(grid: gridmod.Grid, test: TensorTest, t: float) -> gridmod.TensorField:
    vals = np.asarray(test.value(t, grid_points(grid, ghost=True)), dtype=float)
    gap = np.max(np.abs(vals - np.swapaxes(vals, -1, -2)))
    if gap > _SYM_TOL * (1.0 + np.max(np.abs(vals))):
        raise ValueError(f"matrix test function {test.label!r} must be symmetric")
    return gridmod.TensorField(grid=grid, data=vals, synced=True)


def _time_integral(vals: np.ndarray, times: np.ndarray, tau_idx: int) -> float:
    if tau_idx == 0:
        return 0.0
    return float(np.trapezoid(vals[: tau_idx + 1], times[: tau_idx + 1]))


def _resolve_tau(times: np.ndarray, tau_index: int) -> int:
    idx = int(tau_index)
    if idx < 0:
        idx += len(times)
    if not 0 <= idx < len(times):
        raise ValueError(f"tau index {tau_index} outside the saved time levels")
    return idx


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
    means = _mean_fields(V)
    residuals = []
    for test in tensors:
        inner = np.empty(V.n_levels)
        for k, t in enumerate(V.times):
            tf = _tensor_free(g, test, float(t))
            div_t = gridmod.tensor_divergence(tf)
            t_int = tf.interior
            term_a = np.einsum("...j,...j->...", means["u"][k], div_t)
            term_b = np.einsum("...jk,...jk->...", means["d_u"][k], t_int)
            inner[k] = float(gridmod.integrate(g, -term_a - term_b))
        residuals.append(_time_integral(inner, V.times, V.n_levels - 1))
    return ClauseReport(clause="velocity_compat",
                        labels=tuple(t.label for t in tensors),
                        residuals=np.asarray(residuals))


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
    boundary = boundary if boundary is not None else V.boundary
    if boundary is None:
        raise ValueError("boundary trace data are required to embed the reference temperature")
    means = _mean_fields(V)
    pts = grid_points(g)
    residuals = []
    as_written = []
    for test in psis:
        a_vals = np.empty(V.n_levels)
        b_vals = np.empty(V.n_levels)
        for k, t in enumerate(V.times):
            t = float(t)
            ref_int = np.asarray(theta_ref.value(t, pts), dtype=float)
            ref_f = gridmod.sync_dirichlet(
                gridmod.ScalarField.from_interior(g, ref_int), boundary, t)
            grad_ref = gridmod.gradient(ref_f)
            psi_f = _vector_free(g, test, t)
            div_psi = gridmod.divergence(psi_f)
            gap = means["theta"][k] - ref_int
            grad_gap = means["d_theta"][k] - grad_ref
            a_vals[k] = float(gridmod.integrate(g, gap * div_psi))
            b_vals[k] = float(gridmod.integrate(
                g, np.einsum("...j,...j->...", grad_gap, psi_f.interior)))
        last = V.n_levels - 1
        residuals.append(_time_integral(-a_vals - b_vals, V.times, last))
        as_written.append(_time_integral(-a_vals + b_vals, V.times, last))
    return ClauseReport(clause="temperature_compat",
                        labels=tuple(t.label for t in psis),
                        residuals=np.asarray(residuals),
                        extras={"as_written": np.asarray(as_written),
                                "theta_ref": theta_ref.label})


# --------------------------------------------------------------------------
# balance-law clauses
# --------------------------------------------------------------------------


def continuity_residual(V: AtomicYoungMeasure, psis: Sequence[ScalarTest],
                        tau_index: int = -1,
                        source: Optional[StrongSolution] = None) -> ClauseReport:
    """Signed residuals of the weak mass balance at the chosen time level."""

    g = V.grid
    tau = _resolve_tau(V.times, tau_index)
    means = _mean_fields(V)
    pts = grid_points(g)
    residuals = []
    for test in psis:
        bulk = np.empty(tau + 1)
        for k in range(tau + 1):
            t = float(V.times[k])
            psi_f = _scalar_free(g, test, t)
            grad_psi = gridmod.gradient(psi_f)
            inner = (means["rho"][k] * np.asarray(test.dt(t, pts), dtype=float)
                     + np.einsum("...j,...j->...", means["mom"][k], grad_psi))
            if source is not None:
                inner = inner + source.f_mass(t, pts) * psi_f.interior
            bulk[k] = float(gridmod.integrate(g, inner))
        t0, t1 = float(V.times[0]), float(V.times[tau])
        end = float(gridmod.integrate(
            g, means["rho"][tau] * np.asarray(test.value(t1, pts), dtype=float)))
        start = float(gridmod.integrate(
            g, means["rho"][0] * np.asarray(test.value(t0, pts), dtype=float)))
        residuals.append(end - start - _time_integral(bulk, V.times, tau))
    return ClauseReport(clause="continuity",
                        labels=tuple(t.label for t in psis),
                        residuals=np.asarray(residuals))


def momentum_residual(V: AtomicYoungMeasure, phis: Sequence[VectorTest],
                      model: thermo.ThermoModel,
                      transport_model: transport.TransportModel,
                      r_m: Optional[np.ndarray | DefectBundle] = None,
                      tau_index: int = -1,
                      source: Optional[StrongSolution] = None) -> ClauseReport:
    """Signed residuals of the weak momentum balance with defect pairing."""

    g = V.grid
    tau = _resolve_tau(V.times, tau_index)
    if isinstance(r_m, DefectBundle):
        r_m = r_m.r_m
    if r_m is not None:
        r_m = np.asarray(r_m, dtype=float)
        want = (V.n_levels,) + g.interior_shape((g.dim, g.dim))
        if r_m.shape != want:
            raise ValueError(f"matrix defect has shape {r_m.shape}, expected {want}")
    mom = expect(V, lambda r, u, th, du, dth: r[..., None] * u)
    conv = expect(V, lambda r, u, th, du, dth:
                  r[..., None, None] * u[..., :, None] * u[..., None, :])
    p_mean = expect(V, lambda r, u, th, du, dth: model.p(r, th))
    s_mean = expect(V, lambda r, u, th, du, dth:
                    transport.viscous_stress(transport_model, r, th, du))
    pts = grid_points(g)
    residuals = []
    for test in phis:
        if not test.zero_trace:
            raise ValueError(f"momentum test function {test.label!r} must vanish on the boundary")
        bulk = np.empty(tau + 1)
        for k in range(tau + 1):
            t = float(V.times[k])
            phi_f = _vector_zero_trace(g, test, t)
            grad_phi = gridmod.grad_vector(phi_f)
            div_phi = np.einsum("...ii->...", grad_phi)
            inner = (np.einsum("...j,...j->...", mom[k],
                               np.asarray(test.dt(t, pts), dtype=float))
                     + np.einsum("...jk,...jk->...", conv[k], grad_phi)
                     + p_mean[k] * div_phi
                     - np.einsum("...jk,...jk->...", s_mean[k], grad_phi))
            if r_m is not None:
                inner = inner + np.einsum("...jk,...jk->...", r_m[k], grad_phi)
            if source is not None:
                inner = inner + np.einsum("...j,...j->...",
                                          source.f_mom(t, pts), phi_f.interior)
            bulk[k] = float(gridmod.integrate(g, inner))
        t0, t1 = float(V.times[0]), float(V.times[tau])
        end = float(gridmod.integrate(g, np.einsum(
            "...j,...j->...", mom[tau], np.asarray(test.value(t1, pts), dtype=float))))
        start = float(gridmod.integrate(g, np.einsum(
            "...j,...j->...", mom[0], np.asarray(test.value(t0, pts), dtype=float))))
        residuals.append(end - start - _time_integral(bulk, V.times, tau))
    return ClauseReport(clause="momentum",
                        labels=tuple(t.label for t in phis),
                        residuals=np.asarray(residuals))


def entropy_mv_residual(V: AtomicYoungMeasure, phis: Sequence[ScalarTest],
                        model: thermo.ThermoModel,
                        transport_model: transport.TransportModel,
                        tau_index: int = -1) -> ClauseReport:
    """Signed slack of the weak entropy inequality (admissible when >= -tol)."""

    g = V.grid
    tau = _resolve_tau(V.times, tau_index)
    rho_s = expect(V, lambda r, u, th, du, dth: model.rho_s(r, th))
    flux = expect(V, lambda r, u, th, du, dth:
                  model.rho_s(r, th)[..., None] * u
                  - (transport_model.kappa(r, th) / th)[..., None] * dth)
    sigma = expect(V, lambda r, u, th, du, dth:
                   transport.entropy_production_density(transport_model, r, th, du, dth))
    pts = grid_points(g)
    residuals = []
    for test in phis:
        if not test.nonnegative:
            raise ValueError(f"entropy test function {test.label!r} must be nonnegative")
        bulk = np.empty(tau + 1)
        for k in range(tau + 1):
            t = float(V.times[k])
            phi_f = _scalar_free(g, test, t)
            phi_int = phi_f.interior
            if np.min(phi_int) < -1e-12:
                raise ValueError(f"entropy test function {test.label!r} must be nonnegative")
            grad_phi = gridmod.gradient(phi_f)
            inner = (rho_s[k] * np.asarray(test.dt(t, pts), dtype=float)
                     + np.einsum("...j,...j->...", flux[k], grad_phi)
                     + sigma[k] * phi_int)
            bulk[k] = float(gridmod.integrate(g, inner))
        t0, t1 = float(V.times[0]), float(V.times[tau])
        end = float(gridmod.integrate(
            g, rho_s[tau] * np.asarray(test.value(t1, pts), dtype=float)))
        start = float(gridmod.integrate(
            g, rho_s[0] * np.asarray(test.value(t0, pts), dtype=float)))
        residuals.append(end - start - _time_integral(bulk, V.times, tau))
    return ClauseReport(clause="entropy",
                        labels=tuple(t.label for t in phis),
                        residuals=np.asarray(residuals))


def _theta_ref_fields(g: gridmod.Grid, theta_ref: ThetaRef,
                      boundary: gridmod.BoundaryData, t: float):
    pts = grid_points(g)
    vals = np.asarray(theta_ref.value(t, pts), dtype=float)
    if np.min(vals) <= 0.0:
        raise ValueError("reference temperature must stay positive on the domain")
    ref_f = gridmod.sync_dirichlet(
        gridmod.ScalarField.from_interior(g, vals), boundary, t)
    return vals, gridmod.gradient(ref_f), np.asarray(theta_ref.dt(t, pts), dtype=float)


def ballistic_mv_residual(V: AtomicYoungMeasure, d_diss: np.ndarray | float,
                          theta_ref: ThetaRef, model: thermo.ThermoModel,
                          transport_model: transport.TransportModel,
                          boundary: Optional[gridmod.BoundaryData] = None) -> ClauseReport:
    """Slack of the ballistic-energy inequality at every saved time level.

    The dissipation defect sits on the dissipative side, so inflating it can
    only reduce the slack; residual >= -tol at all levels means admissible.
    """

    g = V.grid
    boundary = boundary if boundary is not None else V.boundary
    if boundary is None:
        raise ValueError("boundary trace data are required to embed the reference temperature")
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
    n = V.n_levels
    ball = np.empty(n)
    sig_ref = np.empty(n)
    ent_dt = np.empty(n)
    ent_adv = np.empty(n)
    heat_cpl = np.empty(n)
    for k in range(n):
        t = float(V.times[k])
        ref, grad_ref, ref_dt = _theta_ref_fields(g, theta_ref, boundary, t)
        ball[k] = float(gridmod.integrate(g, energy[k] - ref * rho_s[k]))
        sig_ref[k] = float(gridmod.integrate(g, sigma[k] * ref))
        ent_dt[k] = float(gridmod.integrate(g, rho_s[k] * ref_dt))
        ent_adv[k] = float(gridmod.integrate(
            g, np.einsum("...j,...j->...", ent_flux[k], grad_ref)))
        heat_cpl[k] = float(gridmod.integrate(
            g, np.einsum("...j,...j->...", heat[k], grad_ref)))
    slack = np.empty(n)
    for k in range(n):
        slack[k] = (ball[0] - ball[k] - d_arr[k]
                    - _time_integral(sig_ref, V.times, k)
                    - _time_integral(ent_dt, V.times, k)
                    - _time_integral(ent_adv, V.times, k)
                    + _time_integral(heat_cpl, V.times, k))
    return ClauseReport(clause="ballistic",
                        labels=tuple(f"t={t:.6g}" for t in V.times),
                        residuals=slack,
                        extras={"ballistic": ball, "theta_ref": theta_ref.label})


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
            phi_f = _vector_zero_trace(g, test, t)
            grad_phi = gridmod.grad_vector(phi_f)
            pairing = abs(float(gridmod.integrate(
                g, np.einsum("...jk,...jk->...", bundle.r_m[k], grad_phi))))
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
# defects from refinement families
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


def _nearest_level(traj: Trajectory, t: float) -> int:
    return int(np.argmin(np.abs(np.asarray(traj.times) - t)))


def defect_from_refinement(trajs: Sequence[Trajectory],
                           model: thermo.ThermoModel,
                           theta_refs: Sequence[ThetaRef] = (),
                           ) -> tuple[DefectBundle, RefinementReport]:
    """Estimate dissipation and matrix defects by coarse-graining refinements.

    Each trajectory is block-averaged in its conserved variables
    ``(rho, rho u, rho s)`` onto the coarsest member's grid.  Per coarse cell,
    the dissipation-defect density is the Jensen gap
    ``avg(total energy) - total energy(averaged state)`` (nonnegative because
    total energy is convex in the conserved variables), and the matrix-defect
    density is the matching gap for ``rho u x u + p I``.  The compatibility
    weight is ``xi = integral|r_m|_F / D``.  Reference-temperature terms enter
    the ballistic gap only through in-cell covariance with the entropy, so the
    estimate's spread across admissible references is reported and expected
    small.
    """

    if len(trajs) < 2:
        raise ValueError("need at least two refinement levels")
    order = sorted(range(len(trajs)),
                   key=lambda i: -int(np.prod(trajs[i].grid.cells)))
    trajs = [trajs[i] for i in order]
    coarse = trajs[-1].grid
    for traj in trajs:
        g = traj.grid
        if g.dim != coarse.dim or g.lo != coarse.lo or g.hi != coarse.hi:
            raise ValueError("incompatible grids: refinement members must share the domain")
        if any(cf % cc for cf, cc in zip(g.cells, coarse.cells)):
            raise ValueError("incompatible grids: cells must be multiples of the coarsest")
    times = np.asarray(trajs[-1].times, dtype=float)
    n_t = len(times)
    d = coarse.dim
    coarse_pts = grid_points(coarse)

    d_by_level = np.zeros((len(trajs), n_t))
    r_m = np.zeros((n_t,) + coarse.interior_shape((d, d)))
    d_diss = np.zeros(n_t)
    rm_tot = np.zeros(n_t)
    ref_gaps = np.zeros((max(len(theta_refs), 1), n_t))
    d_min_raw = np.inf

    for ti, t in enumerate(times):
        for li, traj in enumerate(trajs):
            g = traj.grid
            k = _nearest_level(traj, float(t))
            factors = tuple(cf // cc for cf, cc in zip(g.cells, coarse.cells))
            rho, u, th = traj.rho[k], traj.u[k], traj.theta[k]
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
            d_val = float(gridmod.integrate(coarse, np.maximum(gap, 0.0)))
            d_by_level[li, ti] = d_val
            if li == 0:
                d_diss[ti] = d_val
                conv = rho[..., None, None] * u[..., :, None] * u[..., None, :]
                p_fine = model.p(rho, th)
                flux_avg = (_block_average(conv, factors)
                            + _block_average(p_fine, factors)[..., None, None] * np.eye(d))
                flux_bar = (rho_bar[..., None, None] * u_bar[..., :, None] * u_bar[..., None, :]
                            + model.p(rho_bar, th_bar)[..., None, None] * np.eye(d))
                r_m[ti] = flux_avg - flux_bar
                rm_tot[ti] = float(gridmod.integrate(
                    coarse, np.sqrt(np.sum(r_m[ti] ** 2, axis=(-2, -1)))))
                for ri, ref in enumerate(theta_refs):
                    fine_pts = grid_points(g)
                    ref_fine = np.asarray(ref.value(float(t), fine_pts), dtype=float)
                    ref_coarse = np.asarray(ref.value(float(t), coarse_pts), dtype=float)
                    ball_avg = _block_average(energy - ref_fine * rho_s, factors)
                    ball_bar = e_bar - ref_coarse * rs_bar
                    ref_gaps[ri, ti] = float(gridmod.integrate(
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
    report = RefinementReport(times=times, cells=coarse.cells,
                              d_by_level=d_by_level,
                              theta_labels=tuple(r.label for r in theta_refs),
                              theta_spread=spread,
                              d_min_raw=float(d_min_raw))
    return bundle, report
