"""Analytic strong solutions with compatible forcing terms.

Each profile supplies smooth (rho, u, theta) with u = 0 and theta = theta_B
on the boundary, plus forcings f_mass, f_mom, f_energy defined symbolically
as the residual of the conservation system

    d_t rho   + div(rho u)                                   = f_mass
    d_t(rho u) + div(rho u x u) + grad p - div S             = f_mom
    d_t(rho e) + div(rho e u) + div q - S:grad u + p div u   = f_energy

so the triple solves the forced system exactly. All derivatives come from
sympy and are lambdified once per profile into one function over every
field, with subexpressions shared across fields. Its evaluation at one
(t, pts) is memoised, so the fields at a time level are computed once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import sympy as sp

from . import grid as gridmod
from . import thermo, transport

__all__ = ["StrongSolution", "manufactured", "profile_names", "grid_points"]

_T, _X, _Y = sp.symbols("t x y", real=True)


@functools.lru_cache(maxsize=64)
def grid_points(grid: gridmod.Grid, ghost: bool = False) -> np.ndarray:
    """Cell-center coordinates stacked as (..., dim); one read-only array per grid."""
    pts = np.stack(grid.mesh(ghost), axis=-1)
    pts.flags.writeable = False
    return pts


def _sym_pressure_energy(model, rho, theta):
    """Sympy (p, e) for the supported equations of state."""
    if isinstance(model, thermo.PerfectGas):
        return rho * theta, model.c_v * theta
    if isinstance(model, thermo.MolecularRadiation):
        q = rho * theta ** sp.Rational(-3, 2)
        if model.kernel.name == "ideal":
            big_p = q
        elif model.kernel.name == "degenerate":
            big_p = q * (1 + q) ** sp.Rational(2, 3)
        else:
            raise ValueError(f"no symbolic form for kernel {model.kernel.name!r}")
        p = theta ** sp.Rational(5, 2) * big_p + model.a * theta**2
        e = sp.Rational(3, 2) * theta ** sp.Rational(5, 2) / rho * big_p + model.a * theta**2 / rho
        return p, e
    raise TypeError(f"unsupported model type {type(model).__name__}")


def _sym_coefficients(model, theta):
    """Sympy (mu, lam, kappa) for the supported transport laws."""
    if isinstance(model, transport.AffineTheta):
        return (model.c_mu * (1 + theta), model.c_lambda * (1 + theta), model.kappa0 * (1 + theta))
    if isinstance(model, transport.PowerKappa):
        return (model.mu0 + model.mu1 * theta, model.lambda0 + model.lambda1 * theta,
                model.kappa1 + model.kappa2 * theta ** sp.Float(model.beta))
    raise TypeError(f"unsupported transport type {type(model).__name__}")


def _compile(fields: dict, coords) -> dict:
    """One ``cse=True`` function of (t, pts) for named scalar, vector (list)
    or matrix (list of rows) fields of (t, *coords); one callable per name.
    Results carry components in trailing axes and are read-only; the last
    evaluation is kept for a read-only pts, so fields at the same (t, pts)
    are computed once."""
    shapes = {k: np.array(e, dtype=object).shape for k, e in fields.items()}
    flat = [c for e in fields.values() for c in np.array(e, dtype=object).ravel()]
    fn = sp.lambdify((_T, *coords), flat, modules="numpy", cse=True)
    last = [None, None, None]  # t, pts, fields

    def evaluate(t, pts):
        t = float(t)
        frozen = isinstance(pts, np.ndarray) and not pts.flags.writeable
        if frozen and pts is last[1] and t == last[0]:
            return last[2]
        arr = np.asarray(pts, dtype=float)
        base = arr.shape[:-1]
        vals = iter(fn(t, *(arr[..., k] for k in range(len(coords)))))
        out = {}
        for name, shape in shapes.items():
            buf = np.empty(base + (math.prod(shape),))
            for k in range(buf.shape[-1]):
                buf[..., k] = next(vals)
            out[name] = buf.reshape(base + shape)
            out[name].flags.writeable = False
        if frozen:
            last[:] = t, pts, out
        return out

    return {name: (lambda t, pts, name=name: evaluate(t, pts)[name]) for name in fields}


@dataclass(frozen=True)
class StrongSolution:
    """Analytic (rho, u, theta), first derivatives, and exact forcings.

    Callables take (t, pts) with pts of shape (..., dim); vector results
    carry components in the trailing axis and grad_u is indexed
    [..., j, k] = d u_j / d x_k, matching the grid operators.
    """

    profile: str
    dim: int
    model: thermo.ThermoModel
    transport_model: transport.TransportModel
    boundary: gridmod.BoundaryData
    params: dict
    _fns: dict = field(repr=False)

    def __getattr__(self, name: str):
        if name.startswith("_"):
            raise AttributeError(name)
        try:
            return self._fns[name]
        except KeyError:
            raise AttributeError(name) from None

    def on_grid(self, grid: gridmod.Grid, t: float):
        """Interior (rho, u, theta) arrays at cell centers."""
        pts = grid_points(grid)
        return self.rho(t, pts), self.u(t, pts), self.theta(t, pts)

    def range_report(self, grid: gridmod.Grid, times) -> dict[str, float]:
        """Min/max of rho, theta and max |u| over sampled times (gate input)."""
        pts = grid_points(grid)
        r = np.stack([self.rho(t, pts) for t in times])
        u = np.stack([self.u(t, pts) for t in times])
        th = np.stack([self.theta(t, pts) for t in times])
        return {"rho_min": float(np.min(r)), "rho_max": float(np.max(r)),
                "theta_min": float(np.min(th)), "theta_max": float(np.max(th)),
                "u_max": float(np.max(np.sqrt(np.sum(u * u, axis=-1)))),
                "s_abs_max": float(np.max(np.abs(self.model.s(r, th))))}


def _build(profile, model, transport_model, boundary, params, dim,
           rho_e, u_e, theta_e):
    coords = (_X, _Y)[:dim]
    p_e, e_e = _sym_pressure_energy(model, rho_e, theta_e)
    mu_e, lam_e, kap_e = _sym_coefficients(transport_model, theta_e)

    grad_u = [[sp.diff(u_e[j], coords[k]) for k in range(dim)] for j in range(dim)]
    div_u = sum(grad_u[k][k] for k in range(dim))
    # S = mu*(sym grad u traceless) + lam*(div u) I, traceless over dim
    stress = [[mu_e * ((grad_u[j][k] + grad_u[k][j]) / 2 - sp.Rational(1, dim) * div_u * (1 if j == k else 0))
               + lam_e * div_u * (1 if j == k else 0)
               for k in range(dim)] for j in range(dim)]
    q_flux = [-kap_e * sp.diff(theta_e, coords[k]) for k in range(dim)]

    f_mass = sp.diff(rho_e, _T) + sum(sp.diff(rho_e * u_e[k], coords[k]) for k in range(dim))
    f_mom = []
    for j in range(dim):
        expr = sp.diff(rho_e * u_e[j], _T)
        expr += sum(sp.diff(rho_e * u_e[j] * u_e[k], coords[k]) for k in range(dim))
        expr += sp.diff(p_e, coords[j])
        expr -= sum(sp.diff(stress[j][k], coords[k]) for k in range(dim))
        f_mom.append(expr)
    f_energy = sp.diff(rho_e * e_e, _T)
    f_energy += sum(sp.diff(rho_e * e_e * u_e[k], coords[k]) for k in range(dim))
    f_energy += sum(sp.diff(q_flux[k], coords[k]) for k in range(dim))
    f_energy -= sum(stress[j][k] * grad_u[j][k] for j in range(dim) for k in range(dim))
    f_energy += p_e * div_u

    fns = _compile({
        "rho": rho_e, "theta": theta_e, "u": u_e,
        "drho_dt": sp.diff(rho_e, _T), "dtheta_dt": sp.diff(theta_e, _T),
        "du_dt": [sp.diff(c, _T) for c in u_e],
        "grad_rho": [sp.diff(rho_e, c) for c in coords],
        "grad_theta": [sp.diff(theta_e, c) for c in coords],
        "grad_u": grad_u, "f_mass": f_mass, "f_mom": f_mom, "f_energy": f_energy,
    }, coords)
    return StrongSolution(profile=profile, dim=dim, model=model,
                          transport_model=transport_model, boundary=boundary,
                          params=dict(params), _fns=fns)


def _profile_equilibrium(model, transport_model, params):
    dim = int(params.get("dim", 1))
    theta0 = float(params.get("theta0", 1.0))
    rho0 = float(params.get("rho0", 1.0))
    boundary = gridmod.constant_boundary(theta0)
    u_e = [sp.Integer(0)] * dim
    return _build("equilibrium", model, transport_model, boundary, params, dim,
                  sp.Float(rho0), u_e, sp.Float(theta0))


def _profile_conduction(model, transport_model, params):
    b = float(params.get("slope", 0.5))
    theta0 = float(params.get("theta0", 1.0))
    if theta0 <= 0 or theta0 + b <= 0:
        raise ValueError("conduction profile needs a positive temperature span")
    boundary = gridmod.affine_boundary(theta0, b)
    theta_e = sp.Float(theta0) + sp.Float(b) * _X
    return _build("conduction", model, transport_model, boundary, params, 1,
                  sp.Float(1.0), [sp.Integer(0)], theta_e)


def _profile_shear(model, transport_model, params):
    amp_u = float(params.get("amp_u", 0.1))
    amp_th = float(params.get("amp_theta", 0.2))
    amp_rho = float(params.get("amp_rho", 0.25))
    rate = float(params.get("rate", 1.0))
    if not (abs(amp_rho) < 1.0 and abs(amp_th) < 1.0):
        raise ValueError("shear profile amplitudes must keep rho, theta positive")
    decay = sp.exp(-sp.Float(rate) * _T)
    rho_e = 1 + sp.Float(amp_rho) * sp.sin(2 * sp.pi * _X) * decay
    u_e = [sp.Float(amp_u) * sp.sin(sp.pi * _X) * decay]
    theta_e = 1 + sp.Float(amp_th) * sp.sin(sp.pi * _X) * decay
    boundary = gridmod.constant_boundary(1.0)
    return _build("shear", model, transport_model, boundary, params, 1,
                  rho_e, u_e, theta_e)


def _profile_radiative_decay(model, transport_model, params):
    if not isinstance(model, thermo.MolecularRadiation):
        raise TypeError("radiative_decay profile requires a MolecularRadiation model")
    amp_u = float(params.get("amp_u", 0.1))
    amp_th = float(params.get("amp_theta", 0.3))
    amp_rho = float(params.get("amp_rho", 0.25))
    rate = float(params.get("rate", 1.0))
    if not (abs(amp_rho) < 1.0 and abs(amp_th) < 1.0):
        raise ValueError("radiative_decay amplitudes must keep rho, theta positive")
    bump = sp.sin(sp.pi * _X) * sp.sin(sp.pi * _Y)
    decay = sp.exp(-sp.Float(rate) * _T)
    rho_e = 1 + sp.Float(amp_rho) * sp.sin(2 * sp.pi * _X) * sp.sin(2 * sp.pi * _Y) * decay
    u_e = [sp.Float(amp_u) * bump * decay, -sp.Float(0.8) * sp.Float(amp_u) * bump * decay]
    theta_e = 1 + sp.Float(amp_th) * bump * sp.exp(-sp.Float(rate) * _T / 2)
    boundary = gridmod.constant_boundary(1.0)
    return _build("radiative_decay", model, transport_model, boundary, params, 2,
                  rho_e, u_e, theta_e)


_PROFILES: dict[str, Callable] = {
    "equilibrium": _profile_equilibrium,
    "conduction": _profile_conduction,
    "shear": _profile_shear,
    "radiative_decay": _profile_radiative_decay,
}


def profile_names() -> tuple[str, ...]:
    return tuple(sorted(_PROFILES))


def manufactured(profile: str, model, transport_model, boundary=None, **params) -> StrongSolution:
    """Build the named analytic profile for the given models.

    The profile carries its own compatible boundary trace; an explicit
    ``boundary`` is accepted only as a consistency assertion and must match
    the profile trace at the sample points.
    """
    try:
        builder = _PROFILES[profile]
    except KeyError:
        raise KeyError(f"unknown profile {profile!r}; have {profile_names()}") from None
    sol = builder(model, transport_model, params)
    if boundary is not None:
        g = gridmod.Grid(cells=(8,) * sol.dim)
        for side, pts in gridmod.boundary_face_points(g).items():
            for t in (0.0, 0.5):
                got = np.asarray(boundary.theta(t, pts), dtype=float)
                want = np.asarray(sol.boundary.theta(t, pts), dtype=float)
                if np.max(np.abs(got - want)) > 1e-12:
                    raise ValueError(f"boundary data incompatible with profile trace on {side}")
        sol = StrongSolution(profile=sol.profile, dim=sol.dim, model=sol.model,
                             transport_model=sol.transport_model, boundary=boundary,
                             params=sol.params, _fns=sol._fns)
    return sol
