"""Explicit finite-volume integrator for the compressible heat-conducting system.

Collocated cell-centered discretization: first-order upwind convection,
compact face fluxes for viscous stress and heat conduction, centered
pressure gradient, SSP-RK2 (Heun) in time with a reject-and-halve-once
positivity guard. The energy equation is integrated in internal-energy form
so the entropy production S:grad u - p div u + conduction stays explicit.

``rhs`` makes one pass per axis over that axis's faces. It evaluates p and
e on the ghost-padded state in one ``model.partials`` call and stacks the
conserved densities U = (rho, rho e, rho u_j) component first, so the upwind
flux of all of them is selected and differenced at once. At each face it
builds only the column of the viscous stress that the face divergence
reads (``transport.viscous_stress_column``, from the normal derivative and
the averaged tangential one), and the compact heat flux. One tendency of
the same rows takes every term in a fixed order: convection, then stress or
conduction per axis, the pressure gradient, the cell-centered work terms
and the forcing; ``tests/golden/rhs.json`` pins it bit for bit. ``_attempt``
advances the stacked U that ``rhs`` returns beside it through both Heun
stages, and ``stable_dt`` evaluates once the three equation-of-state
partials it reads (dp/drho, dp/dtheta, de/dtheta).

Each stage pays for its checks once. ``rhs`` tests positivity with one
minimum over each ghost-padded array (a NaN fails it) and reads the
interior again only to word the error. ``_decode`` tests each of rho, e and
theta by its two extremes and looks for the offending cell only when that
fails: a non-finite value, then one at or below its floor, is a
``PositivityError`` naming the cell, so ``step`` retries it at dt/2.

``levels`` is the one marching loop and the one place that picks dt: a
generator that yields the initial state and then each saved level, and
keeps only the current state, until it is within ``_ARRIVAL`` of t_end. The
claim studies and the a priori budget read each level as it arrives and
drop it, so their storage does not grow with the number of steps.
``simulate`` stacks what ``levels`` yields into a ``Trajectory`` for the
readers that need a whole run at once (the weak-form clauses, the defect
bundles, the CSV series).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from . import grid as gridmod
from . import thermo, transport
from .manufactured import StrongSolution, grid_points

__all__ = [
    "PositivityError", "FlowState", "SolverConfig", "Trajectory",
    "rhs", "stable_dt", "step", "levels", "simulate",
]


class PositivityError(RuntimeError):
    pass


_ARRIVAL = 1e-12  # a march within this of t_end has arrived


@dataclass(frozen=True)
class FlowState:
    """Interior (rho, u, theta) arrays at time t; positivity is an invariant."""

    grid: gridmod.Grid
    rho: np.ndarray
    u: np.ndarray
    theta: np.ndarray
    t: float

    def __post_init__(self):
        cells = self.grid.cells
        if self.rho.shape != cells:
            raise ValueError("rho shape does not match grid")
        if self.u.shape != cells + (self.grid.dim,):
            raise ValueError("u shape does not match grid")
        if self.theta.shape != cells:
            raise ValueError("theta shape does not match grid")

    def is_positive(self) -> bool:
        return bool((self.rho > 0.0).all() and (self.theta > 0.0).all())


@dataclass(frozen=True)
class SolverConfig:
    cfl: float = 0.4
    t_end: float = 0.1
    floor: float = 1e-10
    source: Optional[StrongSolution] = None
    save_every: int = 1
    max_steps: int = 200_000

    def __post_init__(self):
        # each message starts with the field at fault
        if not (0.0 < self.cfl <= 1.0):
            raise ValueError("cfl: must lie in (0, 1]")
        if not (self.floor > 0.0):
            raise ValueError("floor: the positivity floor must be > 0")
        if not (self.t_end > _ARRIVAL):
            raise ValueError(f"t_end: must be > {_ARRIVAL!r}, the march's arrival tolerance")
        if self.save_every < 1:
            raise ValueError("save_every: must be >= 1")
        if self.max_steps < 1:
            raise ValueError("max_steps: must be >= 1")


@functools.lru_cache(maxsize=None)
def _face_slices(dim: int, axis: int, components: bool = False) -> tuple[tuple[slice, ...], ...]:
    """Slice tuples of the faces normal to ``axis``, on the spatial axes.

    ``left`` and ``right`` take the two ghost-padded cells of each face (the
    other axes cut to the interior); ``hi`` and ``lo`` take the upper and
    lower face of each interior cell from a face array.  With
    ``components`` every tuple first keeps a leading component axis.
    """
    lead = (slice(None),) * components
    inner = [slice(1, -1)] * dim
    out = []
    for cut in (slice(0, -1), slice(1, None)):
        sl = list(inner)
        sl[axis] = cut
        out.append(lead + tuple(sl))
    for cut in (slice(1, None), slice(0, -1)):
        sl = [slice(None)] * dim
        sl[axis] = cut
        out.append(lead + tuple(sl))
    return tuple(out)


def _tangential_at_faces(dcell: np.ndarray, axis: int) -> np.ndarray:
    """Average a cell-centered derivative onto faces along `axis`.

    Wall faces get exactly zero: u vanishes identically on the wall, so its
    tangential derivatives vanish there.
    """
    out = np.zeros(dcell.shape[:axis] + (dcell.shape[axis] + 1,) + dcell.shape[axis + 1:])
    lead = (slice(None),) * axis
    out[lead + (slice(1, -1),)] = 0.5 * (dcell[lead + (slice(1, None),)] + dcell[lead + (slice(0, -1),)])
    return out


def _at_first(bad: np.ndarray, **values: np.ndarray) -> str:
    """Index of the first cell where ``bad`` holds, and ``values`` there."""
    idx = tuple(int(i) for i in np.argwhere(bad)[0])
    return f"cell {idx}: " + ", ".join(f"{k} = {float(v[idx])!r}" for k, v in values.items())


def _first_nonpositive(rho: np.ndarray, theta: np.ndarray) -> str:
    """Index, rho and theta of the first cell where rho or theta is not > 0."""
    return _at_first(~((rho > 0.0) & (theta > 0.0)), rho=rho, theta=theta)


def rhs(state: FlowState, model: thermo.ThermoModel,
        transport_model: transport.TransportModel,
        boundary: gridmod.BoundaryData, cfg: Optional[SolverConfig] = None):
    """``(tendency, conserved)`` on interior cells: two ``(2 + d, *cells)``
    arrays with the rows (rho, rho e, rho u_j), the conservative tendency and
    the state's own conserved densities, which the stepper advances.

    One pass per axis over its faces differences the upwind fluxes of the
    stack, the normal column of the face stress and the heat flux once each.
    """
    g = state.grid
    d, h = g.dim, g.h
    rho_f, u_f, th_f = gridmod.sync_physical(g, state.rho, state.u, state.theta,
                                             boundary, state.t)
    rho_p, u_p, th_p = rho_f.data, u_f.data, th_f.data
    # one test on the padded arrays; the interior is read only to word the error
    if not (np.minimum.reduce(rho_p, axis=None) > 0.0 and np.minimum.reduce(th_p, axis=None) > 0.0):
        if not state.is_positive():
            raise PositivityError("state lost positivity before flux assembly at "
                                  + _first_nonpositive(state.rho, state.theta))
        raise PositivityError("positivity breach in flux assembly: boundary extrapolation "
                              "left rho or theta nonpositive at ghost-padded "
                              + _first_nonpositive(rho_p, th_p))
    eos = model.partials(rho_p, th_p, ("p", "e"))
    p_p, e_p = eos["p"], eos["e"]
    # component first, so each face array is contiguous per component
    u_c = u_p.transpose((d,) + tuple(range(d)))
    dens = np.empty((2 + d,) + rho_p.shape)  # rho, rho e, rho u_j
    dens[0] = rho_p
    np.multiply(rho_p, e_p, out=dens[1])
    np.multiply(rho_p, u_c, out=dens[2:])
    tend = np.zeros((2 + d,) + g.cells)

    # cell-centered velocity gradient for stress work and tangential face terms
    gu_cell = gridmod.gradient(u_f)
    divu_cell = 0.0  # the trace, summed from 0 as einsum sums it
    for k in range(d):
        divu_cell = divu_cell + gu_cell[..., k, k]
    gu_c = gu_cell.transpose((d, d + 1) + tuple(range(d)))

    for a in range(d):
        left, right, hi, lo = _face_slices(d, a)
        c_left, c_right, c_hi, c_lo = _face_slices(d, a, True)
        ubar = 0.5 * (u_c[a][left] + u_c[a][right])

        # upwind convection
        flux = ubar * np.where(ubar > 0.0, dens[c_left], dens[c_right])
        tend -= (flux[c_hi] - flux[c_lo]) / h[a]

        # face stress column a: compact normal difference, averaged tangential
        th_face = 0.5 * (th_p[left] + th_p[right])
        normal = (u_c[c_right] - u_c[c_left]) / h[a]
        tangential = _tangential_at_faces(gu_c[:, 1 - a], a + 1) if d == 2 else None
        s_col = transport.viscous_stress_column(transport_model, None, th_face, normal,
                                                tangential, a)
        tend[2:] += (s_col[c_hi] - s_col[c_lo]) / h[a]

        # compact heat flux q_a = -kappa * dtheta/dx_a
        kap_face = transport_model.kappa(None, th_face)
        q_face = -kap_face * (th_p[right] - th_p[left]) / h[a]
        tend[1] -= (q_face[hi] - q_face[lo]) / h[a]
    # centered pressure gradient
    for a in range(d):
        tend[2 + a] -= gridmod._centered(p_p, g, a)

    # stress power and pressure work, cell-centered
    s_cell = transport.viscous_stress(transport_model, state.rho, state.theta, gu_cell,
                                      divu_cell)
    tend[1] += np.einsum("...ij,...ij->...", s_cell, gu_cell)
    tend[1] -= p_p[(slice(1, -1),) * d] * divu_cell

    if cfg is not None and cfg.source is not None:
        pts = grid_points(g)
        tend[0] += cfg.source.f_mass(state.t, pts)
        tend[1] += cfg.source.f_energy(state.t, pts)
        dmom = tend[2:].transpose(tuple(range(1, d + 1)) + (0,))
        dmom += cfg.source.f_mom(state.t, pts)
    return tend, dens[(slice(None),) + (slice(1, -1),) * d]


def stable_dt(state: FlowState, cfg: SolverConfig, model: thermo.ThermoModel,
              transport_model: transport.TransportModel) -> float:
    """dt = cfl * min(h/(|u|+c_s), h^2/(2 nu_max)), nu_max dimension-weighted."""
    g = state.grid
    d = model.partials(state.rho, state.theta, keys=("dp_drho", "dp_dtheta", "de_dtheta"))
    c_s = np.sqrt(model.sound_speed_sq(state.rho, state.theta, d))
    dt_adv = np.inf
    for a in range(g.dim):
        dt_a = g.h[a] / np.maximum.reduce(np.abs(state.u[..., a]) + c_s, axis=None)
        dt_adv = dt_a if dt_a < dt_adv else dt_adv
    mu = transport_model.mu(state.rho, state.theta)
    lam = transport_model.lam(state.rho, state.theta)
    kap = transport_model.kappa(state.rho, state.theta)
    nu = np.maximum((2.0 * mu + g.dim * lam) / state.rho, kap / (state.rho * d["de_dtheta"]))
    nu_max = g.dim * float(np.maximum.reduce(nu, axis=None))
    h_min = min(g.h)
    dt_diff = h_min**2 / (2.0 * nu_max) if nu_max > 0 else np.inf
    return cfg.cfl * min(dt_adv, dt_diff)


def _require(name: str, x: np.ndarray, floor: Optional[float] = None) -> None:
    """Raise ``PositivityError`` naming the first cell where ``x`` is not
    finite, else the first where x <= floor (0 without one); the cells are
    searched only when the extremes of ``x`` fail that test."""
    lo = 0.0 if floor is None else floor
    if lo < np.minimum.reduce(x, axis=None) and np.maximum.reduce(x, axis=None) < np.inf:
        return
    bound = "0" if floor is None else f"floor ({floor!r})"
    for bad, what in ((~np.isfinite(x), f"non-finite {name}"), (x <= lo, f"{name} <= {bound}")):
        if bad.any():
            raise PositivityError(f"stage state has {what} at " + _at_first(bad, **{name: x}))


def _decode(grid, cons, t, model, theta_guess, floor):
    """The stage state of the stacked conserved densities (rho, rho e, rho u_j);
    raises ``PositivityError`` naming the first cell with a non-finite rho or
    rho <= floor, then a non-finite e or e <= 0, then theta <= floor."""
    rho = cons[0].copy()  # a view would keep the whole stack alive with the state
    _require("rho", rho, floor)
    u = np.divide(cons[2:].transpose((*range(1, grid.dim + 1), 0)), rho[..., None], order="C")
    e = cons[1] / rho
    _require("e", e)
    theta = thermo.invert_internal_energy(model, rho, e, theta0=theta_guess)
    _require("theta", theta, floor)
    return FlowState(grid=grid, rho=rho, u=u, theta=theta, t=t)


def _attempt(state, first, dt, cfg, model, transport_model, boundary):
    """Heun on the stacks ``rhs`` returns, from ``first`` = rhs(state) = (K(U0), U0):
    U1 = U0 + dt K(U0), U2 = (U0 + U1 + dt K(U1)) / 2."""
    k0, cons0 = first
    s1 = _decode(state.grid, cons0 + dt * k0, state.t + dt, model, state.theta, cfg.floor)
    k1, cons1 = rhs(s1, model, transport_model, boundary, cfg)
    return _decode(state.grid, 0.5 * (cons0 + cons1 + dt * k1), state.t + dt, model, s1.theta,
                   cfg.floor)


def step(state: FlowState, cfg: SolverConfig, model: thermo.ThermoModel,
         transport_model: transport.TransportModel,
         boundary: gridmod.BoundaryData, dt: float) -> FlowState:
    """One SSP-RK2 step of ``dt``; a positivity-failing stage is retried once at dt/2.
    Both attempts start from one ``rhs(state)``, as K(U0) does not depend on dt,
    so a state whose own flux assembly fails raises that error unretried."""
    if dt < 1e-14 * max(1.0, abs(state.t)):
        raise PositivityError(f"time step underflow (dt = {dt:.3e})")
    first = rhs(state, model, transport_model, boundary, cfg)
    try:
        return _attempt(state, first, dt, cfg, model, transport_model, boundary)
    except PositivityError:
        pass
    try:
        return _attempt(state, first, 0.5 * dt, cfg, model, transport_model, boundary)
    except PositivityError as err:
        raise PositivityError(f"positivity failure after halving dt once: {err}") from err


@dataclass(frozen=True)
class Trajectory:
    """Saved time levels of a run, stacked along the leading axis."""

    grid: gridmod.Grid
    times: np.ndarray
    rho: np.ndarray
    u: np.ndarray
    theta: np.ndarray
    model: thermo.ThermoModel
    transport_model: transport.TransportModel
    boundary: gridmod.BoundaryData
    cfg: SolverConfig

    @property
    def n_levels(self) -> int:
        return len(self.times)

    def conserved_series(self) -> dict[str, np.ndarray]:
        g, rho, u = self.grid, self.rho, self.u
        eos = self.model.partials(rho, self.theta, ("e", "rho_s"))
        # each level summed over its cells as gridmod.integrate sums one level
        mass, mom, kin, internal, ent = (
            np.add.reduce(x, axis=tuple(range(1, g.dim + 1))) * g.cell_volume for x in (
                rho, rho[..., None] * u, 0.5 * rho * np.sum(u**2, axis=-1), rho * eos["e"],
                eos["rho_s"]))
        return {"mass": mass, "momentum": mom, "kinetic": kin,
                "internal": internal, "total": kin + internal, "entropy": ent}


def levels(grid: gridmod.Grid, cfg: SolverConfig, model: thermo.ThermoModel,
           transport_model: transport.TransportModel,
           boundary: Optional[gridmod.BoundaryData] = None,
           initial: Optional[FlowState] = None) -> Iterator[FlowState]:
    """March from t = 0 to cfg.t_end, yielding the initial state and then
    every cfg.save_every-th accepted step and the last one; only the current
    state is kept.  Each dt is ``stable_dt``, cut to land on t_end; a march
    needing more than cfg.max_steps steps raises before taking the next one.
    A source built for other laws is a ``ValueError``."""
    src = cfg.source
    if src is not None and (src.model, src.transport_model) != (model, transport_model):
        raise ValueError(f"the source's laws {src.model!r}, {src.transport_model!r} "
                         f"are not the run's {model!r}, {transport_model!r}")
    if boundary is None:
        if cfg.source is None:
            raise ValueError("either boundary data or a source profile is required")
        boundary = cfg.source.boundary
    if initial is None:
        if cfg.source is None:
            raise ValueError("either an initial state or a source profile is required")
        initial = FlowState(grid, *cfg.source.on_grid(grid, 0.0), 0.0)
    boundary.validate_positive(grid, times=(0.0, cfg.t_end))

    state, initial = initial, None  # hold the current level only
    yield state
    n = 0
    while state.t < cfg.t_end - _ARRIVAL:
        if n == cfg.max_steps:
            raise RuntimeError(f"exceeded max_steps = {cfg.max_steps}")
        dt = min(stable_dt(state, cfg, model, transport_model), cfg.t_end - state.t)
        state = step(state, cfg, model, transport_model, boundary, dt)
        n += 1
        if n % cfg.save_every == 0 or state.t >= cfg.t_end - _ARRIVAL:
            yield state


def simulate(grid: gridmod.Grid, cfg: SolverConfig, model: thermo.ThermoModel,
             transport_model: transport.TransportModel,
             boundary: Optional[gridmod.BoundaryData] = None,
             initial: Optional[FlowState] = None) -> Trajectory:
    """The states of :func:`levels`, stacked into a trajectory."""
    states = list(levels(grid, cfg, model, transport_model, boundary, initial))
    return Trajectory(grid=grid, times=np.asarray([s.t for s in states]),
                      rho=np.stack([s.rho for s in states]),
                      u=np.stack([s.u for s in states]),
                      theta=np.stack([s.theta for s in states]), model=model,
                      transport_model=transport_model,
                      boundary=cfg.source.boundary if boundary is None else boundary,
                      cfg=cfg)
