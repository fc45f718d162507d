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

Each clause averages, with :func:`expect`, only the per-atom arrays it reads.
Every test is affine in time, ``value(0) + t dt``, so it is sampled once per
grid with its centred gradient or divergence, and a clause's per-level
integrals are ``einsum`` contractions of (levels x cells) by (cells x tests),
the ``dt`` part scaled by each level's time, under the trapezoid rule.  Only
the reference temperature, its time derivative and forcings are evaluated
per level.  A measure carries no wall data: the clauses that embed a
reference temperature take the Dirichlet trace ``boundary`` as an argument.

``calibrate_kp_constant`` gives a grid's Korn-Poincare constant; the claim-3
study in ``experiments`` compares it with the velocity-control quotient of a
run.  ``defect_from_refinement`` estimates a defect bundle by block-averaging
every level of one fine run onto one coarser grid as one array, and
``defect_compat_check`` bounds the bundle's pairings with the same sampled
test family and contractions the clauses use.

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
from .testfuns import SpaceTimeFn

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
    "check_defects",
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
_LEVEL_TOL = 1e-12


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


@dataclass(frozen=True)
class RefinementReport:
    """Reference-profile spread and the smallest raw Jensen gap."""

    theta_spread: float
    d_min_raw: float


# --------------------------------------------------------------------------
# constructors
# --------------------------------------------------------------------------


def _dirac(grid: gridmod.Grid, times: np.ndarray, rho, u, theta, d_u,
           d_theta) -> AtomicYoungMeasure:
    """One atom of weight 1 per cell from per-level fields."""

    ax = 1 + grid.dim
    return AtomicYoungMeasure(
        grid=grid, times=times, weights=np.ones(np.shape(rho) + (1,)),
        rho=rho[..., None], u=np.expand_dims(u, ax), theta=theta[..., None],
        d_u=np.expand_dims(d_u, ax), d_theta=np.expand_dims(d_theta, ax))


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
        d_u[k] = transport.sym_part(gridmod.gradient(u_f))
        d_th[k] = gridmod.gradient(th_f)
    return _dirac(g, np.asarray(traj.times, dtype=float), traj.rho, traj.u,
                  traj.theta, d_u, d_th)


def dirac_from_strong(sol: StrongSolution, grid: gridmod.Grid,
                      times: Sequence[float]) -> AtomicYoungMeasure:
    """One atom per cell sampled from a smooth solution with exact gradients."""

    pts = grid_points(grid)
    times = np.atleast_1d(np.asarray(times, dtype=float))
    return _dirac(grid, times,
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
        if m.grid != first.grid:
            raise ValueError("mixed measures must share one grid")
        if not _same_levels(m.times, first.times):
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
    )


# --------------------------------------------------------------------------
# expectation
# --------------------------------------------------------------------------


def expect(V: AtomicYoungMeasure, values: np.ndarray) -> np.ndarray:
    """Atom-weighted expectation of the per-atom ``values``.

    ``values`` starts with the atom layout ``(levels, *cells, atoms)``;
    trailing component axes (vectors, matrices) pass through.  Returns
    ``(levels, *cells, *components)``.
    """

    vals = np.asarray(values, dtype=float)
    k_axis = 1 + V.grid.dim
    if vals.shape[: k_axis + 1] != V.weights.shape:
        raise ValueError(
            f"per-atom values of shape {vals.shape} do not start with the "
            f"atom layout {V.weights.shape}")
    if not np.all(np.isfinite(vals)):
        flat = np.argmax(~np.isfinite(vals))
        idx = np.unravel_index(int(flat), vals.shape)
        lev, cell, k = idx[0], idx[1:k_axis], idx[k_axis]
        atom = idx[: k_axis + 1]
        raise ValueError(
            f"non-finite per-atom value at time level {lev}, "
            f"cell {tuple(cell)}, atom {k}: rho={float(V.rho[atom])}, "
            f"theta={float(V.theta[atom])}, u={V.u[atom].tolist()}")
    w = V.weights.reshape(V.weights.shape + (1,) * (vals.ndim - k_axis - 1))
    return np.sum(w * vals, axis=k_axis)


def check_defects(V: AtomicYoungMeasure, defects: Optional[DefectBundle]) -> None:
    """Refuse a defect bundle that does not live on ``V``'s grid and levels."""

    if defects is None:
        return
    if defects.grid != V.grid:
        raise ValueError("defect bundle must live on the measure's grid")
    if not _same_levels(defects.times, V.times):
        raise ValueError("defect history must live on the measure's time levels")


def _same_levels(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and bool(np.max(np.abs(a - b)) <= _LEVEL_TOL)


def _asymmetric(a: np.ndarray) -> bool:
    gap = np.max(np.abs(a - np.swapaxes(a, -1, -2)))
    return gap > _SYM_TOL * (1.0 + np.max(np.abs(a)))


# --------------------------------------------------------------------------
# test families and per-level fields as whole arrays
# --------------------------------------------------------------------------


def _sampled(grid: gridmod.Grid, fn: Callable, t: float, zero_trace: bool, field_cls):
    """``fn(t, .)`` as a synced field of ``field_cls``: sampled on every
    padded cell, or, for a zero-trace test, on the interior and extended
    oddly across the walls."""

    if zero_trace:
        vals = np.asarray(fn(t, grid_points(grid)), dtype=float)
        return gridmod.sync_odd(field_cls.from_interior(grid, vals))
    vals = np.asarray(fn(t, grid_points(grid, ghost=True)), dtype=float)
    return field_cls(grid=grid, data=vals, synced=True)


def _family(V: AtomicYoungMeasure | DefectBundle, tests: Sequence[SpaceTimeFn], field_cls,
            derivative: Callable) -> tuple[np.ndarray, np.ndarray]:
    """The tests as whole arrays on ``V``'s grid: interior samples and their
    centred ``derivative``, each stacked ``(2, tests, *cells, *components)``
    with the value at ``t = 0`` first and the time derivative second.

    The clauses evaluate a test at level ``k`` as ``value(0) + t_k dt``, so
    every test must be affine in time, as the families' ``f*1`` and ``f*t``
    members are; one that is not at the last level is refused.
    """

    g = V.grid
    pts = grid_points(g)
    t_end = float(V.times[-1])
    vals, ders = [], []
    for test in tests:
        fields = [_sampled(g, fn, 0.0, test.zero_trace, field_cls)
                  for fn in (test.value, test.dt)]
        at0, rate = (f.interior for f in fields)
        if not np.allclose(test.value(t_end, pts), at0 + t_end * rate,
                           rtol=1e-12, atol=1e-12):
            raise ValueError(f"test function {test.label!r} must be affine in time")
        vals.append((at0, rate))
        ders.append([derivative(f) for f in fields])
    return np.stack(vals, axis=1), np.stack(ders, axis=1)


def _contract(g: gridmod.Grid, levels: np.ndarray, tests: np.ndarray) -> np.ndarray:
    """``(tests, levels)`` midpoint integrals of every level paired with
    every test: their product summed over cells and components."""

    return np.einsum("lc,ic->il", levels.reshape(len(levels), -1),
                     tests.reshape(len(tests), -1)) * g.cell_volume


def _against(g: gridmod.Grid, levels: np.ndarray, family: np.ndarray,
             times: np.ndarray) -> np.ndarray:
    """``(tests, levels)`` integrals of every level against the tests at
    that level's time, ``value(0) + t dt``."""

    at0, rate = (_contract(g, levels, part) for part in family)
    return at0 + rate * times


def _per_level(V: AtomicYoungMeasure | DefectBundle | Trajectory,
               *fns: Callable) -> list[np.ndarray]:
    """Each ``fn(t, cell centers)`` stacked over the levels of ``V``'s grid
    and times.  The fns are evaluated level by level, so a strong
    solution's memo of its last time level serves all of them."""

    pts = grid_points(V.grid)
    rows = [[np.asarray(fn(float(t), pts), dtype=float) for fn in fns] for t in V.times]
    return [np.stack(col) for col in zip(*rows)]


def _references(V: AtomicYoungMeasure, theta_ref: SpaceTimeFn,
                boundary: gridmod.BoundaryData, *more: Callable) -> list[np.ndarray]:
    """Reference temperature at the cell centers of every level, its
    gradient, with the ghosts taken from the Dirichlet trace, and ``more``
    per-level fields evaluated alongside (:func:`_per_level`)."""

    vals, *rest = _per_level(V, theta_ref.value, *more)
    if np.min(vals) <= 0.0:
        raise ValueError("reference temperature must stay positive on the domain")
    grads = [gridmod.gradient(gridmod.sync_dirichlet(
        gridmod.ScalarField.from_interior(V.grid, ref), boundary, float(t)))
        for t, ref in zip(V.times, vals)]
    return [vals, np.stack(grads), *rest]


# --------------------------------------------------------------------------
# gradient-compatibility clauses
# --------------------------------------------------------------------------


def check_velocity_compat(V: AtomicYoungMeasure,
                          tensors: Sequence[SpaceTimeFn]) -> ClauseReport:
    """Pair mean velocity against mean velocity gradient via matrix tests.

    For each symmetric matrix test the signed residual
    ``r = -II<u>.divT - II<d_u>:T`` vanishes (after integrating by parts) when
    the gradient marginal is the spatial gradient of the zero-trace velocity
    marginal.
    """

    g = V.grid
    vals, divs = _family(V, tensors, gridmod.TensorField, gridmod.divergence)
    for test, at0, rate in zip(tensors, *vals):
        if _asymmetric(at0) or _asymmetric(rate):
            raise ValueError(f"matrix test function {test.label!r} must be symmetric")
    inner = (_against(g, -expect(V, V.u), divs, V.times)
             + _against(g, -expect(V, V.d_u), vals, V.times))
    return ClauseReport(residuals=np.trapezoid(inner, V.times))


def check_temperature_compat(V: AtomicYoungMeasure, psis: Sequence[SpaceTimeFn],
                             theta_ref: SpaceTimeFn,
                             boundary: gridmod.BoundaryData) -> ClauseReport:
    """Pair the temperature gap (theta - ref) against vector tests.

    Primary residual (integration-by-parts consistent, vanishes for compatible
    measures): ``r = -II<theta-ref>.div psi - II<D_theta-grad ref>.psi``.  The
    sign variant with ``+`` on the second integral is also evaluated and
    reported under ``extras['as_written']``; it measures twice the gradient
    pairing instead and stays O(1) even for exact solutions.
    """

    g = V.grid
    vals, divs = _family(V, psis, gridmod.VectorField, gridmod.divergence)
    ref, grad_ref = _references(V, theta_ref, boundary)
    a_vals = _against(g, expect(V, V.theta) - ref, divs, V.times)
    b_vals = _against(g, expect(V, V.d_theta) - grad_ref, vals, V.times)
    return ClauseReport(residuals=np.trapezoid(-a_vals - b_vals, V.times),
                        extras={"as_written": np.trapezoid(-a_vals + b_vals, V.times)})


# --------------------------------------------------------------------------
# balance-law clauses
# --------------------------------------------------------------------------


def _balance(V: AtomicYoungMeasure, vals: np.ndarray, density: np.ndarray,
             *bulk: tuple[np.ndarray, np.ndarray]) -> ClauseReport:
    """Signed residuals of one weak balance law, one per test function.

    For a test ``phi`` the residual is ``II density.phi`` at the last level
    minus at the first, minus the time integral of ``II [density.d_t phi +
    bulk terms]``.  ``vals`` holds the tests' samples (:func:`_family`); each
    bulk term is a per-level array and the family part it pairs with.
    """

    g, times = V.grid, V.times
    rates = _contract(g, density, vals[1])
    for levels, family in bulk:
        rates = rates + _against(g, levels, family, times)
    ends = [0, -1]
    held = _against(g, density[ends], vals, times[ends])
    return ClauseReport(residuals=held[:, 1] - held[:, 0] - np.trapezoid(rates, times))


def continuity_residual(V: AtomicYoungMeasure, psis: Sequence[SpaceTimeFn],
                        source: Optional[StrongSolution] = None) -> ClauseReport:
    """Signed residuals of the weak mass balance over the saved levels."""

    vals, grads = _family(V, psis, gridmod.ScalarField, gridmod.gradient)
    bulk = [(expect(V, V.rho[..., None] * V.u), grads)]
    if source is not None:
        bulk.append((*_per_level(V, source.f_mass), vals))
    return _balance(V, vals, expect(V, V.rho), *bulk)


def momentum_residual(V: AtomicYoungMeasure, phis: Sequence[SpaceTimeFn],
                      model: thermo.ThermoModel,
                      transport_model: transport.TransportModel,
                      defects: Optional[DefectBundle] = None,
                      source: Optional[StrongSolution] = None) -> ClauseReport:
    """Signed residuals of the weak momentum balance, pairing the matrix
    defect of ``defects`` (none when None) against the test gradients."""

    check_defects(V, defects)
    for test in phis:
        if not test.zero_trace:
            raise ValueError(f"momentum test function {test.label!r} must vanish on the boundary")
    vals, grads = _family(V, phis, gridmod.VectorField, gridmod.gradient)
    # convection, pressure and viscous stress (and the defect) pair with grad phi
    flux = (expect(V, V.rho[..., None, None] * V.u[..., :, None] * V.u[..., None, :])
            + expect(V, model.p(V.rho, V.theta))[..., None, None] * np.eye(V.grid.dim)
            - expect(V, transport.viscous_stress(transport_model, V.rho, V.theta, V.d_u)))
    if defects is not None:
        flux = flux + defects.r_m
    bulk = [(flux, grads)]
    if source is not None:
        bulk.append((*_per_level(V, source.f_mom), vals))
    return _balance(V, vals, expect(V, V.rho[..., None] * V.u), *bulk)


def _entropy_fluxes(V: AtomicYoungMeasure, atoms_rho_s: np.ndarray,
                    transport_model: transport.TransportModel) -> tuple[np.ndarray, np.ndarray]:
    """Mean entropy flux ``rho s u - (kappa / theta) D_theta`` (advection
    minus heat flux) and mean entropy production."""

    flux = expect(V, atoms_rho_s[..., None] * V.u
                  - (transport_model.kappa(V.rho, V.theta) / V.theta)[..., None] * V.d_theta)
    return flux, expect(V, transport.entropy_production_density(
        transport_model, V.rho, V.theta, V.d_u, V.d_theta))


def entropy_mv_residual(V: AtomicYoungMeasure, phis: Sequence[SpaceTimeFn],
                        model: thermo.ThermoModel,
                        transport_model: transport.TransportModel) -> ClauseReport:
    """Signed slack of the weak entropy inequality (admissible when >= -tol)."""

    for test in phis:
        if not test.nonnegative:
            raise ValueError(f"entropy test function {test.label!r} must be nonnegative")
    vals, grads = _family(V, phis, gridmod.ScalarField, gridmod.gradient)
    for test, at0, rate in zip(phis, *vals):
        if np.min(at0 + np.multiply.outer(V.times, rate)) < -1e-12:
            raise ValueError(f"entropy test function {test.label!r} must be nonnegative")
    atoms_rho_s = model.rho_s(V.rho, V.theta)
    flux, sigma = _entropy_fluxes(V, atoms_rho_s, transport_model)
    return _balance(V, vals, expect(V, atoms_rho_s), (flux, grads), (sigma, vals))


def ballistic_mv_residual(V: AtomicYoungMeasure, d_diss: np.ndarray | float,
                          theta_ref: SpaceTimeFn, model: thermo.ThermoModel,
                          transport_model: transport.TransportModel,
                          boundary: gridmod.BoundaryData) -> ClauseReport:
    """Slack of the ballistic-energy inequality at every saved time level.

    The dissipation defect sits on the dissipative side, so inflating it can
    only reduce the slack; residual >= -tol at all levels means admissible.
    ``d_diss`` is a scalar or one value per level.
    """

    d_arr = np.asarray(d_diss, dtype=float)
    if d_arr.ndim and d_arr.shape != V.times.shape:
        raise ValueError(f"d_diss has {d_arr.size} values for {V.n_levels} time levels; "
                         f"give a scalar or one value per level")
    if np.any(d_arr < 0.0):
        raise ValueError("dissipation defect must be nonnegative")
    atoms = model.partials(V.rho, V.theta, ("rho_e", "rho_s"))
    energy = expect(V, 0.5 * V.rho * np.sum(V.u * V.u, axis=-1) + atoms["rho_e"])
    rho_s = expect(V, atoms["rho_s"])
    flux, sigma = _entropy_fluxes(V, atoms["rho_s"], transport_model)
    ref, grad_ref, ref_dt = _references(V, theta_ref, boundary, theta_ref.dt)
    # transposed, the cells lead: the integrals of every level
    ball = gridmod.integrate(V.grid, (energy - ref * rho_s).T)
    rates = gridmod.integrate(V.grid, (sigma * ref + rho_s * ref_dt
                                       + np.sum(flux * grad_ref, axis=-1)).T)
    spent = np.concatenate(([0.0], np.cumsum(0.5 * (rates[1:] + rates[:-1])
                                             * np.diff(V.times))))
    return ClauseReport(residuals=ball[0] - ball - d_arr - spent,
                        extras={"ballistic": ball})


# --------------------------------------------------------------------------
# defect compatibility and the Korn-Poincare constant
# --------------------------------------------------------------------------


def defect_compat_check(bundle: DefectBundle,
                        phis: Sequence[SpaceTimeFn]) -> DefectCompatReport:
    """Check |pairing of r_m with grad phi| <= xi * D * ||phi||_C1 levelwise,
    up to a relative slack of 1e-12; violations come in (test, level) order."""

    for test in phis:
        if not test.zero_trace:
            raise ValueError(f"defect test function {test.label!r} must vanish on the boundary")
    vals, grads = _family(bundle, phis, gridmod.VectorField, gridmod.gradient)
    pairing = np.abs(_against(bundle.grid, bundle.r_m, grads, bundle.times))

    def sup(family: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
        """``(tests, levels)`` sup over cells of the norm of ``value(0) + t dt``."""
        t = bundle.times.reshape((-1,) + (1,) * (family.ndim - 2))
        norm = np.sqrt(np.sum((family[0][:, None] + t * family[1][:, None]) ** 2, axis=axes))
        return norm.reshape(pairing.shape + (-1,)).max(axis=-1)

    bound = (bundle.xi * bundle.d_diss) * np.maximum(sup(vals, (-1,)), sup(grads, (-2, -1)))
    margin = bound + 1e-12 * (1.0 + bound) - pairing
    violations = tuple((phis[i].label, int(k), float(pairing[i, k]), float(bound[i, k]))
                       for i, k in np.argwhere(margin < 0.0))
    return DefectCompatReport(ok=not violations, worst_margin=float(np.min(margin)),
                              violations=violations)


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
    x, y = pts[..., 0], pts[..., 1]
    worst = 0.0
    for kx, ky in ((1, 1), (1, 2), (2, 1), (2, 2), (3, 2)):
        u = np.zeros(grid.interior_shape((2,)))
        u[..., 0] = np.sin(np.pi * kx * x) * np.sin(np.pi * ky * y)
        f = gridmod.sync_odd(gridmod.VectorField.from_interior(grid, u))
        d0 = transport.traceless_sym(gridmod.gradient(f))
        num = float(gridmod.integrate(grid, np.sum(u ** 2, axis=-1)))
        den = float(gridmod.integrate(grid, np.sum(d0 ** 2, axis=(-2, -1))))
        worst = max(worst, num / den)
    return 1.1 * worst


# --------------------------------------------------------------------------
# defects by coarse-graining a fine run
# --------------------------------------------------------------------------


def _block_average(a: np.ndarray, factors: tuple[int, ...]) -> np.ndarray:
    """Average the leading axes over blocks of shape ``factors``; trailing
    axes pass through."""

    blocks = [n for size, f in zip(a.shape, factors) for n in (size // f, f)]
    return a.reshape(tuple(blocks) + a.shape[len(factors):]).mean(
        axis=tuple(range(1, 2 * len(factors), 2)))


def defect_from_refinement(fine: Trajectory, coarse: gridmod.Grid,
                           model: thermo.ThermoModel,
                           theta_refs: Sequence[SpaceTimeFn] = (),
                           ) -> tuple[DefectBundle, RefinementReport]:
    """Estimate dissipation and matrix defects by coarse-graining a fine run.

    Every level of ``fine`` is block-averaged at once in its conserved
    variables ``(rho, rho u, rho s)`` onto ``coarse``, and level k of the
    bundle is level k of ``fine``.  Per coarse cell, the dissipation-defect
    density is the Jensen gap ``avg(total energy) - total energy(averaged
    state)`` (nonnegative because total energy is convex in the conserved
    variables), and the matrix-defect density is the matching gap for
    ``rho u x u + p I``.
    The compatibility weight is ``xi = integral|r_m|_F / D``.
    Reference-temperature terms enter the ballistic gap only through in-cell
    covariance with the entropy, so the estimate's spread across admissible
    references is reported and expected small.
    """

    g = fine.grid
    if g.dim != coarse.dim:
        raise ValueError("incompatible grids: the fine run and the coarse grid "
                         "must share the domain")
    if any(cf % cc for cf, cc in zip(g.cells, coarse.cells)):
        raise ValueError("incompatible grids: fine cells must be multiples of the coarse ones")
    # the level axis leads and is kept; each block spans fine cells only
    factors = (1,) + tuple(cf // cc for cf, cc in zip(g.cells, coarse.cells))
    eye = np.eye(coarse.dim)
    rho, u = fine.rho, fine.u
    fine_eos = model.partials(rho, fine.theta, ("rho_s", "rho_e", "p"))
    rho_s = fine_eos["rho_s"]
    energy = 0.5 * rho * np.sum(u * u, axis=-1) + fine_eos["rho_e"]
    rho_bar = _block_average(rho, factors)
    rs_bar = _block_average(rho_s, factors)
    th_bar = thermo.invert_entropy(model, rho_bar, rs_bar / rho_bar)
    u_bar = _block_average(rho[..., None] * u, factors) / rho_bar[..., None]
    bar_eos = model.partials(rho_bar, th_bar, ("rho_e", "p"))
    e_bar = 0.5 * rho_bar * np.sum(u_bar * u_bar, axis=-1) + bar_eos["rho_e"]
    gap = _block_average(energy, factors) - e_bar
    flux_avg = (_block_average(rho[..., None, None] * u[..., :, None] * u[..., None, :], factors)
                + _block_average(fine_eos["p"], factors)[..., None, None] * eye)
    flux_bar = (rho_bar[..., None, None] * u_bar[..., :, None] * u_bar[..., None, :]
                + bar_eos["p"][..., None, None] * eye)
    r_m = flux_avg - flux_bar

    # transposed, the cells lead: the integrals of every level
    d_diss = gridmod.integrate(coarse, np.maximum(gap, 0.0).T)
    rm_tot = gridmod.integrate(coarse, np.sqrt(np.sum(r_m ** 2, axis=(-2, -1))).T)
    floor = 1e-14 * (1.0 + np.max(d_diss))
    xi = np.where(rm_tot <= floor, 0.0, rm_tot / np.maximum(d_diss, 1e-300))
    bundle = DefectBundle(grid=coarse, times=fine.times, r_m=r_m, d_diss=d_diss, xi=xi)
    spread = 0.0
    live = d_diss > floor
    if theta_refs and np.any(live):
        values = [ref.value for ref in theta_refs]
        ref_gaps = np.stack([
            gridmod.integrate(coarse, np.maximum(
                _block_average(energy - ref_fine * rho_s, factors)
                - (e_bar - ref_coarse * rs_bar), 0.0).T)
            for ref_fine, ref_coarse in zip(_per_level(fine, *values),
                                            _per_level(bundle, *values))])
        spread = float(np.max(np.abs(ref_gaps[:, live] - d_diss[live])
                              / np.maximum(d_diss, 1e-300)[live]))
    return bundle, RefinementReport(theta_spread=spread, d_min_raw=float(np.min(gap)))
