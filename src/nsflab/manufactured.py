"""Analytic strong solutions with compatible forcing terms.

Each profile supplies smooth (rho, u, theta) with u = 0 and theta = theta_B
on the boundary, plus forcings f_mass, f_mom, f_energy defined as the
residual of the conservation system

    d_t rho   + div(rho u)                                   = f_mass
    d_t(rho u) + div(rho u x u) + grad p - div S             = f_mom
    d_t(rho e) + div(rho e u) + div q - S:grad u + p div u   = f_energy

so the triple solves the forced system exactly. A profile is written in
truncated Taylor jets over (t, x, y): value, first partials and second
spatial partials, carried through +, -, x, sin and exp by forward-mode
differentiation (Griewank & Walther, *Evaluating Derivatives*, 2nd ed.,
ch. 13). The forcings follow by the chain rule through the state laws of
``thermo`` (values and ``partials``) and the coefficient laws of
``transport`` (values and theta-derivatives), so those two modules are the
only home of the laws. All fields at one (t, pts) come from one evaluation,
which is memoised, so the fields at a time level are computed once.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import grid as gridmod
from . import thermo, transport

__all__ = ["StrongSolution", "manufactured", "profile_names", "grid_points"]


@functools.lru_cache(maxsize=64)
def grid_points(grid: gridmod.Grid, ghost: bool = False) -> np.ndarray:
    """Cell-center coordinates stacked as (..., dim); one read-only array per grid."""
    pts = np.stack(grid.mesh(ghost), axis=-1)
    pts.flags.writeable = False
    return pts


# -- truncated Taylor jets ----------------------------------------------------
# A component is an array over the points, a float, or None for a
# structural zero (a field that does not depend on that variable); the
# helpers below skip the array work a structural zero would cost.

def _mul(a, b):
    return None if a is None or b is None else a * b


def _add(a, b):
    return b if a is None else a if b is None else a + b


def _total(terms):
    """Sum of a non-empty sequence without a leading ``0 +`` copy."""
    return functools.reduce(operator.add, terms)


@functools.lru_cache(maxsize=None)
def _pairs(dim: int) -> tuple[tuple[int, int], ...]:
    """Index pairs (k, l), k <= l, of the stored second spatial partials."""
    return tuple((k, l) for k in range(dim) for l in range(k, dim))


class _Jet:
    """Value ``v``, time derivative ``dt``, spatial gradient ``g`` and the
    second spatial partials ``h`` (ordered as ``_pairs``) of one field."""

    __slots__ = ("v", "dt", "g", "h")

    def __init__(self, v, dt, g, h):
        self.v, self.dt, self.g, self.h = v, dt, g, h

    @classmethod
    def const(cls, c: float, dim: int) -> "_Jet":
        return cls(float(c), None, (None,) * dim, (None,) * len(_pairs(dim)))

    def hess(self, k: int, l: int):
        """d^2/dx_k dx_l."""
        return self.h[_pairs(len(self.g)).index((min(k, l), max(k, l)))]

    def __add__(self, other):
        if not isinstance(other, _Jet):
            return _Jet(self.v + other, self.dt, self.g, self.h)
        return _Jet(_add(self.v, other.v), _add(self.dt, other.dt),
                    list(map(_add, self.g, other.g)), list(map(_add, self.h, other.h)))

    __radd__ = __add__

    def __mul__(self, other):
        if not isinstance(other, _Jet):
            c = float(other)
            return _Jet(self.v * c, _mul(self.dt, c), [_mul(x, c) for x in self.g],
                        [_mul(x, c) for x in self.h])
        a, b = self, other
        av, bv, ag, bg = a.v, b.v, a.g, b.g
        return _Jet(av * bv, _add(_mul(a.dt, bv), _mul(av, b.dt)),
                    [_add(_mul(x, bv), _mul(av, y)) for x, y in zip(ag, bg)],
                    [_add(_add(_mul(x, bv), _mul(av, y)),
                          _add(_mul(ag[k], bg[l]), _mul(ag[l], bg[k])))
                     for (k, l), x, y in zip(_pairs(len(ag)), a.h, b.h)])

    __rmul__ = __mul__


def _compose(a: _Jet, f0, f1, f2) -> _Jet:
    """f(a) from f = f0, f' = f1 and f'' = f2 at a.v (chain rule to second order)."""
    g = a.g
    return _Jet(f0, _mul(f1, a.dt), [_mul(f1, x) for x in g],
                [_add(_mul(f1, x), _mul(f2, _mul(g[k], g[l])))
                 for (k, l), x in zip(_pairs(len(g)), a.h)])


def _sin(a: _Jet) -> _Jet:
    s = np.sin(a.v)
    return _compose(a, s, np.cos(a.v), -s)


def _exp(a: _Jet) -> _Jet:
    e = np.exp(a.v)
    return _compose(a, e, e, e)


def _time(t: float, dim: int) -> _Jet:
    return _Jet(t, 1.0, (None,) * dim, (None,) * len(_pairs(dim)))


def _coords(arr: np.ndarray, dim: int) -> list:
    """Jets of each coordinate at the points ``arr`` (..., dim)."""
    none = (None,) * len(_pairs(dim))
    return [_Jet(arr[..., k], None, [1.0 if j == k else None for j in range(dim)], none)
            for k in range(dim)]


# -- fields and forcings --------------------------------------------------------

_SHAPES = {"rho": 0, "theta": 0, "u": 1, "drho_dt": 0, "dtheta_dt": 0, "du_dt": 1,
           "grad_rho": 1, "grad_theta": 1, "grad_u": 2,
           "f_mass": 0, "f_mom": 1, "f_energy": 0}  # number of trailing (dim) axes


def _fields(model, transport_model, rho: _Jet, u: list, theta: _Jet) -> dict:
    """The 12 fields from the jets of rho, u_j and theta, as nested lists of
    components. The forcings use the state laws' values and first partials
    and the coefficient laws' values and theta-derivatives:

        f_mass   = rho_t + u.grad rho + rho div u
        f_mom    = u f_mass + rho (u_t + (u.grad) u) + p_rho grad rho
                   + p_theta grad theta - div S
        div S    = mu' D0 grad theta + lam' div u grad theta + mu lap u / 2
                   + ((1/2 - 1/d) mu + lam) grad div u
        f_energy = (e + rho e_rho)(rho_t + u.grad rho)
                   + rho e_theta (theta_t + u.grad theta) + (rho e + p) div u
                   - kappa' |grad theta|^2 - kappa lap theta - mu |D0|^2 - lam (div u)^2

    with D0 = sym(grad u) - (div u / d) I, so that S:grad u = mu |D0|^2 + lam (div u)^2.
    """
    def val(x):
        return 0.0 if x is None else x

    dim = len(rho.g)
    dims = range(dim)
    r, th = rho.v, theta.v
    g_rho, g_th = [val(x) for x in rho.g], [val(x) for x in theta.g]
    g_u = [[val(u[j].g[k]) for k in dims] for j in dims]
    vel = [c.v for c in u]
    div_u = _total(g_u[k][k] for k in dims)
    d0 = [[None] * dim for _ in dims]
    for j, k in _pairs(dim):
        d0[j][k] = d0[k][j] = (g_u[j][j] - div_u / dim if j == k
                               else 0.5 * (g_u[j][k] + g_u[k][j]))

    p = model.p(r, th)
    e = model.e(r, th)
    dp = model.partials(r, th)
    tm = transport_model
    mu, lam, kap = tm.mu(r, th), tm.lam(r, th), tm.kappa(r, th)
    dmu, dlam, dkap = tm.dmu_dtheta(r, th), tm.dlam_dtheta(r, th), tm.dkappa_dtheta(r, th)

    def along_u(grad):
        return _total(vel[k] * grad[k] for k in dims)

    rho_rate = val(rho.dt) + along_u(g_rho)
    f_mass = rho_rate + r * div_u
    half_mu, bulk, lam_div = 0.5 * mu, (0.5 - 1.0 / dim) * mu + lam, dlam * div_u
    f_mom = []
    for j in dims:
        div_s = (dmu * _total(d0[j][k] * g_th[k] for k in dims) + lam_div * g_th[j]
                 + half_mu * _total(val(u[j].hess(k, k)) for k in dims)
                 + bulk * _total(val(u[k].hess(k, j)) for k in dims))
        f_mom.append(vel[j] * f_mass + r * (val(u[j].dt) + along_u(g_u[j]))
                     + dp["dp_drho"] * g_rho[j] + dp["dp_dtheta"] * g_th[j] - div_s)
    shear = _total(d0[j][k] * d0[j][k] if j == k else 2.0 * d0[j][k] * d0[j][k]
                   for j, k in _pairs(dim))
    f_energy = ((e + r * dp["de_drho"]) * rho_rate
                + r * dp["de_dtheta"] * (val(theta.dt) + along_u(g_th))
                + (r * e + p) * div_u
                - dkap * _total(x * x for x in g_th)
                - kap * _total(val(theta.hess(k, k)) for k in dims)
                - mu * shear - lam * div_u * div_u)
    return {"rho": r, "theta": th, "u": vel,
            "drho_dt": val(rho.dt), "dtheta_dt": val(theta.dt),
            "du_dt": [val(c.dt) for c in u], "grad_rho": g_rho, "grad_theta": g_th,
            "grad_u": g_u, "f_mass": f_mass, "f_mom": f_mom, "f_energy": f_energy}


def _buffer(vals, rank: int, base: tuple, dim: int) -> np.ndarray:
    """A read-only array of shape ``base + (dim,) * rank`` from nested components."""
    buf = np.empty(base + (dim,) * rank)
    if rank == 0:
        buf[...] = vals
    elif rank == 1:
        for k, c in enumerate(vals):
            buf[..., k] = c
    else:
        for j, row in enumerate(vals):
            for k, c in enumerate(row):
                buf[..., j, k] = c
    buf.flags.writeable = False
    return buf


def _compile(space: Callable, jets: Callable, model, transport_model, dim: int) -> dict:
    """One callable per field of (t, pts), pts of shape (..., dim).

    A profile is a sum of products of time and space factors:
    ``space(coords)`` returns the jets of its space factors and
    ``jets(time, *factors)`` the (rho, [u_j], theta) jets. Results carry
    components in trailing axes and are read-only. For a read-only pts the
    space factors are kept until pts changes and the last evaluation until
    (t, pts) changes, so all 12 fields of a time level cost one evaluation
    and a grid its space factors once. A writable pts is evaluated afresh at
    every call.
    """
    last = [None, None, None]  # t, pts, fields
    factors = [None, None]  # pts, space factor jets

    def evaluate(t, pts):
        t = float(t)
        frozen = isinstance(pts, np.ndarray) and not pts.flags.writeable
        if frozen and pts is last[1] and t == last[0]:
            return last[2]
        arr = np.asarray(pts, dtype=float)
        if frozen and pts is factors[0]:
            spatial = factors[1]
        else:
            spatial = space(_coords(arr, dim))
            if frozen:
                factors[:] = pts, spatial
        comps = _fields(model, transport_model, *jets(_time(t, dim), *spatial))
        base = arr.shape[:-1]
        out = {name: _buffer(comps[name], rank, base, dim) for name, rank in _SHAPES.items()}
        if frozen:
            last[:] = t, pts, out
        return out

    return {name: (lambda t, pts, name=name: evaluate(t, pts)[name]) for name in _SHAPES}


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
    _fns: dict = field(repr=False)

    def __getattr__(self, name: str):
        if name.startswith("_"):
            raise AttributeError(name)
        try:
            return self._fns[name]
        except KeyError:
            raise AttributeError(name) from None

    def state(self, t: float, pts):
        """(rho, u, theta) at (t, pts), read from the one evaluation of all
        the fields there; a writable pts is read through a read-only copy,
        so that evaluation is made once."""
        if not (isinstance(pts, np.ndarray) and not pts.flags.writeable):
            pts = np.array(pts, dtype=float)
            pts.flags.writeable = False
        return self.rho(t, pts), self.u(t, pts), self.theta(t, pts)

    def on_grid(self, grid: gridmod.Grid, t: float):
        """Interior (rho, u, theta) arrays at cell centers."""
        return self.state(t, grid_points(grid))


def _check_laws(model, transport_model) -> None:
    """Reject, at build time, a model without a law the forcings call."""
    for what, obj, laws in (
            ("model", model, ("p", "e", "partials")),
            ("transport", transport_model, ("mu", "lam", "kappa", "dmu_dtheta",
                                            "dlam_dtheta", "dkappa_dtheta"))):
        try:
            for law in laws:
                getattr(obj, law)(1.0, 1.0)
        except (NotImplementedError, TypeError, AttributeError) as err:
            raise TypeError(f"unsupported {what} type {type(obj).__name__}") from err


def _build(profile, model, transport_model, boundary, dim, space, jets):
    _check_laws(model, transport_model)
    return StrongSolution(profile=profile, dim=dim, model=model,
                          transport_model=transport_model, boundary=boundary,
                          _fns=_compile(space, jets, model, transport_model, dim))


def _profile_equilibrium(model, transport_model, params):
    dim = int(params.get("dim", 1))
    theta0 = float(params.get("theta0", 1.0))
    rho0 = float(params.get("rho0", 1.0))
    boundary = gridmod.constant_boundary(theta0)

    def jets(time):
        return (_Jet.const(rho0, dim), [_Jet.const(0.0, dim)] * dim,
                _Jet.const(theta0, dim))

    return _build("equilibrium", model, transport_model, boundary, dim,
                  lambda x: (), jets)


def _profile_conduction(model, transport_model, params):
    b = float(params.get("slope", 0.5))
    theta0 = float(params.get("theta0", 1.0))
    if theta0 <= 0 or theta0 + b <= 0:
        raise ValueError("conduction profile needs a positive temperature span")
    boundary = gridmod.affine_boundary(theta0, b)

    def jets(time, x):
        return _Jet.const(1.0, 1), [_Jet.const(0.0, 1)], theta0 + b * x

    return _build("conduction", model, transport_model, boundary, 1,
                  lambda x: (x[0],), jets)


def _profile_shear(model, transport_model, params):
    amp_u = float(params.get("amp_u", 0.1))
    amp_th = float(params.get("amp_theta", 0.2))
    amp_rho = float(params.get("amp_rho", 0.25))
    rate = float(params.get("rate", 1.0))
    if not (abs(amp_rho) < 1.0 and abs(amp_th) < 1.0):
        raise ValueError("shear profile amplitudes must keep rho, theta positive")
    boundary = gridmod.constant_boundary(1.0)

    def space(x):
        return _sin(math.pi * x[0]), _sin(2.0 * math.pi * x[0])

    def jets(time, wave, wave2):
        decay = _exp(-rate * time)
        return (1.0 + wave2 * (amp_rho * decay), [wave * (amp_u * decay)],
                1.0 + wave * (amp_th * decay))

    return _build("shear", model, transport_model, boundary, 1, space, jets)


def _profile_radiative_decay(model, transport_model, params):
    if not isinstance(model, thermo.MolecularRadiation):
        raise TypeError("radiative_decay profile requires a MolecularRadiation model")
    amp_u = float(params.get("amp_u", 0.1))
    amp_th = float(params.get("amp_theta", 0.3))
    amp_rho = float(params.get("amp_rho", 0.25))
    rate = float(params.get("rate", 1.0))
    if not (abs(amp_rho) < 1.0 and abs(amp_th) < 1.0):
        raise ValueError("radiative_decay amplitudes must keep rho, theta positive")
    boundary = gridmod.constant_boundary(1.0)

    def space(x):
        return (_sin(math.pi * x[0]) * _sin(math.pi * x[1]),
                _sin(2.0 * math.pi * x[0]) * _sin(2.0 * math.pi * x[1]))

    def jets(time, bump, wave):
        decay = _exp(-rate * time)
        rho = 1.0 + wave * (amp_rho * decay)
        u = [bump * (amp_u * decay), bump * (-0.8 * amp_u * decay)]
        theta = 1.0 + bump * (amp_th * _exp(-0.5 * rate * time))
        return rho, u, theta

    return _build("radiative_decay", model, transport_model, boundary, 2,
                  space, jets)


_PROFILES: dict[str, Callable] = {
    "equilibrium": _profile_equilibrium,
    "conduction": _profile_conduction,
    "shear": _profile_shear,
    "radiative_decay": _profile_radiative_decay,
}


def profile_names() -> tuple[str, ...]:
    return tuple(sorted(_PROFILES))


def manufactured(profile: str, model, transport_model, **params) -> StrongSolution:
    """Build the named analytic profile for the given models; the profile
    carries its own compatible boundary trace."""
    try:
        builder = _PROFILES[profile]
    except KeyError:
        raise KeyError(f"unknown profile {profile!r}; have {profile_names()}") from None
    return builder(model, transport_model, params)
