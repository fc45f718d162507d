"""Explicit finite-volume integrator for the compressible heat-conducting system.

Collocated cell-centered discretization: first-order upwind convection,
compact face fluxes for viscous stress and heat conduction, centered
pressure gradient, SSP-RK2 (Heun) in time with a reject-and-halve-once
positivity guard. The energy equation is integrated in internal-energy form
so the entropy production S:grad u - p div u + conduction stays explicit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import grid as gridmod
from . import thermo, transport
from .manufactured import StrongSolution, grid_points

__all__ = [
    "PositivityError", "FlowState", "SolverConfig", "Trajectory",
    "rhs", "stable_dt", "step", "simulate", "StrongSolution",
]


class PositivityError(RuntimeError):
    pass


@dataclass(frozen=True)
class FlowState:
    """Interior (rho, u, theta) arrays at time t; positivity is an invariant."""

    grid: gridmod.Grid
    rho: np.ndarray
    u: np.ndarray
    theta: np.ndarray
    t: float

    def __post_init__(self):
        d = self.grid.dim
        if self.rho.shape != self.grid.interior_shape():
            raise ValueError("rho shape does not match grid")
        if self.u.shape != self.grid.interior_shape((d,)):
            raise ValueError("u shape does not match grid")
        if self.theta.shape != self.grid.interior_shape():
            raise ValueError("theta shape does not match grid")

    def is_positive(self, floor: float = 0.0) -> bool:
        return bool(np.all(self.rho > floor) and np.all(self.theta > floor))


@dataclass(frozen=True)
class SolverConfig:
    cfl: float = 0.4
    t_end: float = 0.1
    floor: float = 1e-10
    source: Optional[StrongSolution] = None
    save_every: int = 1
    max_steps: int = 200_000

    def __post_init__(self):
        if not (0.0 < self.cfl <= 1.0):
            raise ValueError("cfl must lie in (0, 1]")
        if not (self.floor > 0.0):
            raise ValueError("positivity floor must be > 0")
        if self.t_end <= 0.0:
            raise ValueError("t_end must be > 0")
        if self.save_every < 1:
            raise ValueError("save_every must be >= 1")


def _slc(a: np.ndarray, axis: int, start, stop) -> np.ndarray:
    sl = [slice(None)] * a.ndim
    sl[axis] = slice(start, stop)
    return a[tuple(sl)]


def _other_interior(a: np.ndarray, dim: int, axis: int) -> np.ndarray:
    """Slice every spatial axis except `axis` down to the interior."""
    sl = [slice(None)] * a.ndim
    for k in range(dim):
        if k != axis:
            sl[k] = slice(1, -1)
    return a[tuple(sl)]


def _face_div(flux: np.ndarray, h: float, axis: int) -> np.ndarray:
    return (_slc(flux, axis, 1, None) - _slc(flux, axis, 0, -1)) / h


def _upwind_value(phi: np.ndarray, ubar: np.ndarray, axis: int) -> np.ndarray:
    left = _slc(phi, axis, 0, -1)
    right = _slc(phi, axis, 1, None)
    return np.where(ubar > 0.0, left, right)


def _tangential_at_faces(dcell: np.ndarray, axis: int) -> np.ndarray:
    """Average a cell-centered derivative onto faces along `axis`.

    Wall faces get exactly zero: u vanishes identically on the wall, so its
    tangential derivatives vanish there.
    """
    out = np.zeros(dcell.shape[:axis] + (dcell.shape[axis] + 1,) + dcell.shape[axis + 1:])
    _slc(out, axis, 1, -1)[...] = 0.5 * (_slc(dcell, axis, 1, None) + _slc(dcell, axis, 0, -1))
    return out


def _first_nonpositive(rho: np.ndarray, theta: np.ndarray) -> str:
    """Index, rho and theta of the first cell where rho or theta is not > 0."""
    idx = tuple(int(i) for i in np.argwhere(~((rho > 0.0) & (theta > 0.0)))[0])
    return f"cell {idx}: rho = {float(rho[idx])!r}, theta = {float(theta[idx])!r}"


def rhs(state: FlowState, model: thermo.ThermoModel,
        transport_model: transport.TransportModel,
        boundary: gridmod.BoundaryData, cfg: Optional[SolverConfig] = None):
    """Conservative tendencies (d rho, d(rho u), d(rho e)) on interior cells."""
    g = state.grid
    d, h = g.dim, g.h
    if not state.is_positive():
        raise PositivityError("state lost positivity before flux assembly at "
                              + _first_nonpositive(state.rho, state.theta))
    rho_f, u_f, th_f = gridmod.sync_physical(g, state.rho, state.u, state.theta,
                                             boundary, state.t)
    rho_p, u_p, th_p = rho_f.data, u_f.data, th_f.data
    if np.any(th_p <= 0.0) or np.any(rho_p <= 0.0):
        raise PositivityError("positivity breach in flux assembly: boundary extrapolation "
                              "left rho or theta nonpositive at ghost-padded "
                              + _first_nonpositive(rho_p, th_p))
    p_p = model.p(rho_p, th_p)
    e_p = model.e(rho_p, th_p)

    drho = np.zeros(g.interior_shape())
    dmom = np.zeros(g.interior_shape((d,)))
    drhoe = np.zeros(g.interior_shape())

    # cell-centered velocity gradient for stress work and tangential face terms
    gu_cell = gridmod.grad_vector(u_f)
    divu_cell = np.einsum("...ii->...", gu_cell)

    for a in range(d):
        rho_a = _other_interior(rho_p, d, a)
        th_a = _other_interior(th_p, d, a)
        e_a = _other_interior(e_p, d, a)
        u_a = _other_interior(u_p, d, a)
        un = u_a[..., a]
        ubar = 0.5 * (_slc(un, a, 0, -1) + _slc(un, a, 1, None))

        # upwind convection
        drho -= _face_div(ubar * _upwind_value(rho_a, ubar, a), h[a], a)
        drhoe -= _face_div(ubar * _upwind_value(rho_a * e_a, ubar, a), h[a], a)
        for j in range(d):
            flux = ubar * _upwind_value(rho_a * u_a[..., j], ubar, a)
            dmom[..., j] -= _face_div(flux, h[a], a)

        # face velocity gradient: compact normal difference, averaged tangential
        th_face = 0.5 * (_slc(th_a, a, 0, -1) + _slc(th_a, a, 1, None))
        grad_face = np.zeros(ubar.shape + (d, d))
        for j in range(d):
            grad_face[..., j, a] = (_slc(u_a[..., j], a, 1, None)
                                    - _slc(u_a[..., j], a, 0, -1)) / h[a]
            for b in range(d):
                if b != a:
                    grad_face[..., j, b] = _tangential_at_faces(gu_cell[..., j, b], a)
        s_face = transport.viscous_stress(transport_model, None, th_face, grad_face)
        for j in range(d):
            dmom[..., j] += _face_div(s_face[..., j, a], h[a], a)

        # compact heat flux q_a = -kappa * dtheta/dx_a
        kap_face = transport_model.kappa(None, th_face)
        q_face = -kap_face * (_slc(th_a, a, 1, None) - _slc(th_a, a, 0, -1)) / h[a]
        drhoe -= _face_div(q_face, h[a], a)

    # centered pressure gradient
    p_field = gridmod.ScalarField(grid=g, data=p_p, synced=True)
    dmom -= gridmod.gradient(p_field)

    # stress power and pressure work, cell-centered
    s_cell = transport.viscous_stress(transport_model, state.rho, state.theta, gu_cell)
    drhoe += np.einsum("...ij,...ij->...", s_cell, gu_cell)
    drhoe -= p_field.interior * divu_cell

    if cfg is not None and cfg.source is not None:
        pts = grid_points(g)
        drho += cfg.source.f_mass(state.t, pts)
        dmom += cfg.source.f_mom(state.t, pts)
        drhoe += cfg.source.f_energy(state.t, pts)
    return drho, dmom, drhoe


def stable_dt(state: FlowState, cfg: SolverConfig, model: thermo.ThermoModel,
              transport_model: transport.TransportModel) -> float:
    """dt = cfl * min(h/(|u|+c_s), h^2/(2 nu_max)), nu_max dimension-weighted."""
    g = state.grid
    c_s = np.sqrt(model.sound_speed_sq(state.rho, state.theta))
    dt_adv = np.inf
    for a in range(g.dim):
        speed = np.max(np.abs(state.u[..., a]) + c_s)
        dt_adv = min(dt_adv, g.h[a] / speed)
    mu = transport_model.mu(state.rho, state.theta)
    lam = transport_model.lam(state.rho, state.theta)
    kap = transport_model.kappa(state.rho, state.theta)
    e_th = model.partials(state.rho, state.theta)["de_dtheta"]
    nu = np.maximum((2.0 * mu + g.dim * lam) / state.rho, kap / (state.rho * e_th))
    nu_max = g.dim * float(np.max(nu))
    h_min = min(g.h)
    dt_diff = h_min**2 / (2.0 * nu_max) if nu_max > 0 else np.inf
    return cfg.cfl * min(dt_adv, dt_diff)


def _decode(grid, rho, mom, rhoe, t, model, theta_guess, floor):
    if np.any(rho <= floor):
        return None
    u = mom / rho[..., None]
    e = rhoe / rho
    if np.any(e <= 0.0):
        return None
    theta = thermo.invert_internal_energy(model, rho, e, theta0=theta_guess)
    if np.any(theta <= floor):
        return None
    return FlowState(grid=grid, rho=rho, u=u, theta=theta, t=t)


def _attempt(state, dt, cfg, model, transport_model, boundary):
    g = state.grid
    rho0 = state.rho
    mom0 = state.rho[..., None] * state.u
    rhoe0 = state.rho * model.e(state.rho, state.theta)

    k1 = rhs(state, model, transport_model, boundary, cfg)
    s1 = _decode(g, rho0 + dt * k1[0], mom0 + dt * k1[1], rhoe0 + dt * k1[2],
                 state.t + dt, model, state.theta, cfg.floor)
    if s1 is None:
        return None
    k2 = rhs(s1, model, transport_model, boundary, cfg)
    rho2 = 0.5 * (rho0 + s1.rho + dt * k2[0])
    mom2 = 0.5 * (mom0 + s1.rho[..., None] * s1.u + dt * k2[1])
    rhoe2 = 0.5 * (rhoe0 + s1.rho * model.e(s1.rho, s1.theta) + dt * k2[2])
    return _decode(g, rho2, mom2, rhoe2, state.t + dt, model, s1.theta, cfg.floor)


def step(state: FlowState, cfg: SolverConfig, model: thermo.ThermoModel,
         transport_model: transport.TransportModel,
         boundary: gridmod.BoundaryData, dt: Optional[float] = None) -> FlowState:
    """One SSP-RK2 step; a positivity-failing step is retried once at dt/2."""
    if dt is None:
        dt = stable_dt(state, cfg, model, transport_model)
    if dt < 1e-14 * max(1.0, abs(state.t)):
        raise PositivityError(f"time step underflow (dt = {dt:.3e})")
    try:
        out = _attempt(state, dt, cfg, model, transport_model, boundary)
    except PositivityError:
        out = None
    if out is not None:
        return out
    out = _attempt(state, 0.5 * dt, cfg, model, transport_model, boundary)
    if out is None:
        raise PositivityError("positivity failure after halving dt once")
    return out


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

    def state(self, k: int) -> FlowState:
        return FlowState(grid=self.grid, rho=self.rho[k], u=self.u[k],
                         theta=self.theta[k], t=float(self.times[k]))

    def conserved_series(self) -> dict[str, np.ndarray]:
        g = self.grid
        mass = np.array([gridmod.integrate(g, self.rho[k]) for k in range(self.n_levels)])
        mom = np.array([gridmod.integrate(g, self.rho[k][..., None] * self.u[k])
                        for k in range(self.n_levels)])
        kin = np.array([gridmod.integrate(g, 0.5 * self.rho[k] * np.sum(self.u[k]**2, axis=-1))
                        for k in range(self.n_levels)])
        internal = np.array([gridmod.integrate(g, self.rho[k] * self.model.e(self.rho[k], self.theta[k]))
                             for k in range(self.n_levels)])
        ent = np.array([gridmod.integrate(g, self.model.rho_s(self.rho[k], self.theta[k]))
                        for k in range(self.n_levels)])
        return {"mass": mass, "momentum": mom, "kinetic": kin,
                "internal": internal, "total": kin + internal, "entropy": ent}


def simulate(grid: gridmod.Grid, cfg: SolverConfig, model: thermo.ThermoModel,
             transport_model: transport.TransportModel,
             boundary: Optional[gridmod.BoundaryData] = None,
             initial: Optional[FlowState] = None, t0: float = 0.0) -> Trajectory:
    """March to cfg.t_end, saving every cfg.save_every accepted steps."""
    if boundary is None:
        if cfg.source is None:
            raise ValueError("either boundary data or a source profile is required")
        boundary = cfg.source.boundary
    if initial is None:
        if cfg.source is None:
            raise ValueError("either an initial state or a source profile is required")
        r0, u0, th0 = cfg.source.on_grid(grid, t0)
        initial = FlowState(grid=grid, rho=r0, u=u0, theta=th0, t=t0)
    boundary.validate_positive(grid, times=(t0, cfg.t_end))

    times = [initial.t]
    rhos, us, thetas = [initial.rho], [initial.u], [initial.theta]
    state = initial
    n = 0
    while state.t < cfg.t_end - 1e-12:
        dt = min(stable_dt(state, cfg, model, transport_model), cfg.t_end - state.t)
        state = step(state, cfg, model, transport_model, boundary, dt=dt)
        n += 1
        if n > cfg.max_steps:
            raise RuntimeError(f"exceeded max_steps = {cfg.max_steps}")
        if n % cfg.save_every == 0 or state.t >= cfg.t_end - 1e-12:
            times.append(state.t)
            rhos.append(state.rho)
            us.append(state.u)
            thetas.append(state.theta)
    return Trajectory(grid=grid, times=np.asarray(times), rho=np.stack(rhos),
                      u=np.stack(us), theta=np.stack(thetas), model=model,
                      transport_model=transport_model, boundary=boundary, cfg=cfg)

