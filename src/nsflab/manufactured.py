"""Analytic strong solutions with compatible forcing terms.

Each profile supplies smooth (rho, u, theta) with u = 0 and theta = theta_B
on the boundary, plus forcings f_mass, f_mom, f_energy defined as the
residual of the conservation system

    d_t rho   + div(rho u)                                   = f_mass
    d_t(rho u) + div(rho u x u) + grad p - div S             = f_mom
    d_t(rho e) + div(rho e u) + div q - S:grad u + p div u   = f_energy

so the triple solves the forced system exactly. The four profiles are
fixed flows: their amplitudes, rates and slopes are literals, and only
``equilibrium`` takes a keyword, its dimension. A profile is written in
truncated Taylor jets over (t, x, y): value, first partials and second
spatial partials, carried through +, -, x, sin and exp by forward-mode
differentiation (Griewank & Walther, *Evaluating Derivatives*, 2nd ed.,
ch. 13). A jet holds its components as the rows of one array and knows
which rows are structural zeros, so a product or a sin/exp is a few
whole-array operations with the bits of the same rule written component by
component. The forcings follow by the chain rule through the state laws of
``thermo`` (p, e and their four partials, from one ``partials`` call) and
the coefficient laws of ``transport`` (values and theta-derivatives), so
those two modules are the only home of the laws. All fields at one (t, pts)
come from one evaluation, which is memoised, so the fields at a time level
are computed once, and those of a steady flow (``equilibrium``,
``conduction``) once per point set; each field's read-only array is built
when it is first read, so a solver stage that reads the three forcings
builds three of the twelve.
"""

from __future__ import annotations

import functools
import math
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
# A jet stacks its components in the rows of one array: the value, the time
# derivative, the spatial gradient and the second spatial partials (ordered
# as ``_pairs``).  ``zero`` lists the rows that are structural zeros (the
# field does not depend on that variable); they hold +0.0.  A rule of the
# calculus below is one whole-array operation, its first term on every row,
# plus the rows that read a structural zero or have more terms, recomputed
# from their present terms only: every row has the bits of the rule written
# per component with the absent terms skipped.

@functools.lru_cache(maxsize=None)
def _pairs(dim: int) -> tuple[tuple[int, int], ...]:
    """Index pairs (k, l), k <= l, of the stored second spatial partials."""
    return tuple((k, l) for k in range(dim) for l in range(k, dim))


@functools.lru_cache(maxsize=None)
def _layout(rows: int) -> tuple:
    """Of a jet with ``rows`` rows: the first second-partial row, the
    gradient rows (k, l) of each second-partial row, and the row of each
    d^2/dx_k dx_l."""
    dim = {4: 1, 7: 2}[rows]
    pairs = _pairs(dim)
    return 2 + dim, [(2 + k, 2 + l) for k, l in pairs], [
        [2 + dim + pairs.index((min(k, l), max(k, l))) for l in range(dim)] for k in range(dim)]


@functools.lru_cache(maxsize=None)
def _plan(rows: int, za: tuple, zb: tuple) -> tuple:
    """How a product a*b of jets with structural zeros ``za`` and ``zb`` is
    finished after its first term a_r.b_v on every row: the rows where that
    is not the whole rule, each with the row pairs (i, j) of its present
    terms a_i.b_j in their groups, (a_r.b_v + a_v.b_r) and, on the second
    partial of x_k x_l, (a_k.b_l + a_l.b_k); then the product's structural
    zeros, the rows with no present term."""
    h0, grads, _ = _layout(rows)
    patches = []
    for r in range(1, rows):
        groups = [((r, 0), (0, r))]
        if r >= h0:
            k, l = grads[r - h0]
            groups.append(((k, l), (l, k)))
        present = tuple(kept for kept in (tuple(t for t in grp if t[0] not in za and t[1] not in zb)
                                          for grp in groups) if kept)
        if present != (((r, 0),),):
            patches.append((r, present))
    return tuple(patches), tuple(r for r, present in patches if not present)


class _Jet:
    """Value ``v``, time derivative ``dt``, spatial gradient ``g`` and the
    second spatial partials (``hess``) of one field, as the rows of ``c``."""

    __slots__ = ("c", "zero")

    def __init__(self, c: np.ndarray, zero: tuple):
        self.c, self.zero = c, zero

    @classmethod
    def const(cls, c: float, dim: int, dt: float = 0.0) -> "_Jet":
        rows = 2 + dim + dim * (dim + 1) // 2
        out = np.zeros(rows)
        out[:2] = c, dt
        return cls(out, tuple(range(1 if dt == 0.0 else 2, rows)))

    v = property(lambda self: self.c[0])
    dt = property(lambda self: self.c[1])
    g = property(lambda self: list(self.c[2:_layout(self.c.shape[0])[0]]))

    def hess(self, k: int, l: int):
        """d^2/dx_k dx_l."""
        return self.c[_layout(self.c.shape[0])[2][k][l]]

    def __add__(self, other):
        if type(other) is not _Jet:
            out = +self.c
            out[0] += other
            return _Jet(out, self.zero)
        nd = max(self.c.ndim, other.c.ndim)  # rows lead: unit axes after a narrower jet's rows
        a, b = (x.reshape(x.shape[:1] + (1,) * (nd - x.ndim) + x.shape[1:])
                for x in (self.c, other.c))
        out = a + b
        for r in set(self.zero) | set(other.zero):  # a row absent on one side is the other's
            out[r] = 0.0 if r in self.zero and r in other.zero else (b if r in self.zero else a)[r]
        return _Jet(out, tuple(r for r in self.zero if r in other.zero))

    __radd__ = __add__

    def __mul__(self, other):
        if type(other) is not _Jet:
            out = self.c * float(other)
            for r in self.zero:
                out[r] = 0.0
            return _Jet(out, self.zero)
        if self.c.ndim < other.c.ndim:  # the wider jet's rows take the other's in broadcast
            self, other = other, self
        a, b = self.c, other.c
        patches, zero = _plan(a.shape[0], self.zero, other.zero)
        out = a * b[0]
        for r, groups in patches:
            total = 0.0
            for n, group in enumerate(groups):
                for m, (i, j) in enumerate(group):
                    part = a[i] * b[j] if m == 0 else part + a[i] * b[j]
                total = part if n == 0 else total + part
            out[r] = total
        return _Jet(out, zero)

    __rmul__ = __mul__


def _compose(a: _Jet, f0, f1, f2) -> _Jet:
    """f(a) from f = f0, f' = f1 and f'' = f2 at a.v (chain rule to second order):
    f'.a_r on each row, plus f''.(a_k.a_l) on a second partial where the
    product a*a has that cross term; its structural zeros are those of a*a."""
    c = a.c
    patches, zero = _plan(c.shape[0], a.zero, a.zero)
    out = f1 * c
    out[0] = f0
    for r, groups in patches:
        # a last group other than a_r.a_v + a_v.a_r is the cross term a_k.a_l + a_l.a_k
        kl = groups[-1][0] if groups and groups[-1][0][0] not in (0, r) else None
        if kl or r in a.zero:
            curv = 0.0 if kl is None else f2 * (c[kl[0]] * c[kl[1]])
            out[r] = curv if r in a.zero else out[r] + curv
    return _Jet(out, zero)


def _sin(a: _Jet) -> _Jet:
    s = np.sin(a.c[0])
    return _compose(a, s, np.cos(a.c[0]), -s)


def _exp(a: _Jet) -> _Jet:
    e = np.exp(a.c[0])
    return _compose(a, e, e, e)


def _time(t: float, dim: int) -> _Jet:
    return _Jet.const(t, dim, 1.0)


def _coords(arr: np.ndarray, dim: int) -> list:
    """Jets of each coordinate at the points ``arr`` (..., dim)."""
    out = []
    for k in range(dim):
        jet = _Jet.const(0.0, dim)
        c = np.zeros(jet.c.shape + arr.shape[:-1])
        c[0], c[2 + k] = arr[..., k], 1.0
        out.append(_Jet(c, tuple(r for r in jet.zero if r != 2 + k)))
    return out


# -- fields and forcings --------------------------------------------------------

_SHAPES = {"rho": 0, "theta": 0, "u": 1, "drho_dt": 0, "dtheta_dt": 0, "du_dt": 1,
           "grad_rho": 1, "grad_theta": 1, "grad_u": 2,
           "f_mass": 0, "f_mom": 1, "f_energy": 0}  # number of trailing (dim) axes


def _fields(model, transport_model, rho: _Jet, u: list, theta: _Jet) -> dict:
    """The 12 fields from the jets of rho, u_j and theta, each component
    index leading (lists or rows).
    The forcings use the state laws' values and first partials and the
    coefficient laws' values and theta-derivatives:

        f_mass   = rho_t + u.grad rho + rho div u
        f_mom    = u f_mass + rho (u_t + (u.grad) u) + p_rho grad rho
                   + p_theta grad theta - div S
        div S    = mu' D0 grad theta + lam' div u grad theta + mu lap u / 2
                   + ((1/2 - 1/d) mu + lam) grad div u
        f_energy = (e + rho e_rho)(rho_t + u.grad rho)
                   + rho e_theta (theta_t + u.grad theta) + (rho e + p) div u
                   - kappa' |grad theta|^2 - kappa lap theta - mu |D0|^2 - lam (div u)^2

    with D0 = sym(grad u) - (div u / d) I, so that S:grad u = mu |D0|^2 + lam (div u)^2.
    Each sum over a component index adds its terms in index order.
    """
    dim, dims = len(u), range(len(u))
    h0, _, hess = _layout(rho.c.shape[0])
    r, th = rho.c[0], theta.c[0]
    g_rho, g_th = rho.c[2:h0], theta.c[2:h0]
    vel = [c.c[0] for c in u]
    g_u = [c.c[2:h0] for c in u]  # g_u[j][k] = d u_j / d x_k
    div_u = g_u[0][0]
    for k in dims[1:]:
        div_u = div_u + g_u[k][k]
    d0 = [[None] * dim for _ in dims]
    for j, k in _pairs(dim):
        d0[j][k] = d0[k][j] = (g_u[j][j] - div_u / dim if j == k
                               else 0.5 * (g_u[j][k] + g_u[k][j]))

    dp = model.partials(r, th, ("p", "e", "dp_drho", "dp_dtheta", "de_drho", "de_dtheta"))
    p, e = dp["p"], dp["e"]
    tm = transport_model
    mu, lam, kap = tm.mu(r, th), tm.lam(r, th), tm.kappa(r, th)
    dmu, dlam, dkap = tm.dmu_dtheta(r, th), tm.dlam_dtheta(r, th), tm.dkappa_dtheta(r, th)

    def along_u(grad):
        out = vel[0] * grad[0]
        for k in dims[1:]:
            out = out + vel[k] * grad[k]
        return out

    rho_rate = rho.c[1] + along_u(g_rho)
    f_mass = rho_rate + r * div_u
    half_mu, bulk, lam_div = 0.5 * mu, (0.5 - 1.0 / dim) * mu + lam, dlam * div_u
    f_mom = [None] * dim
    for j in dims:
        strain = d0[j][0] * g_th[0]
        lap, grad_div = u[j].c[hess[0][0]], u[0].c[hess[0][j]]
        for k in dims[1:]:
            strain = strain + d0[j][k] * g_th[k]
            lap = lap + u[j].c[hess[k][k]]
            grad_div = grad_div + u[k].c[hess[k][j]]
        div_s = dmu * strain + lam_div * g_th[j] + half_mu * lap + bulk * grad_div
        f_mom[j] = (vel[j] * f_mass + r * (u[j].c[1] + along_u(g_u[j]))
                    + dp["dp_drho"] * g_rho[j] + dp["dp_dtheta"] * g_th[j] - div_s)
    shear = heat = lap_th = None
    for j, k in _pairs(dim):
        term = d0[j][k] * d0[j][k] if j == k else 2.0 * d0[j][k] * d0[j][k]
        shear = term if shear is None else shear + term
    for k in dims:
        sq, curv = g_th[k] * g_th[k], theta.c[hess[k][k]]
        heat, lap_th = (sq, curv) if heat is None else (heat + sq, lap_th + curv)
    f_energy = ((e + r * dp["de_drho"]) * rho_rate
                + r * dp["de_dtheta"] * (theta.c[1] + along_u(g_th))
                + (r * e + p) * div_u
                - dkap * heat - kap * lap_th - mu * shear - lam * div_u * div_u)
    return {"rho": r, "theta": th, "u": vel,
            "drho_dt": rho.c[1], "dtheta_dt": theta.c[1],
            "du_dt": [c.c[1] for c in u], "grad_rho": g_rho, "grad_theta": g_th,
            "grad_u": g_u, "f_mass": f_mass, "f_mom": f_mom, "f_energy": f_energy}


class _Level(dict):
    """The fields of one evaluation, each built on first read into a
    read-only array of shape ``base + (dim,) * rank`` from its components."""

    __slots__ = ("comps", "base", "dim")

    def __missing__(self, name):
        rank, vals = _SHAPES[name], self.comps[name]
        buf = self[name] = np.empty(self.base + (self.dim,) * rank)
        if rank == 0:
            buf[...] = vals
        elif rank == 1:
            for j, row in enumerate(vals):
                buf[..., j] = row
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
    and a grid its space factors once; a field's array is built when it is
    first read. A steady flow, one whose jets all have a structural-zero
    time derivative, keeps its last evaluation until pts changes, whatever
    t is. A writable pts is evaluated afresh at every call.
    """
    last = [None, None, None, False]  # t, pts, fields, steady
    factors = [None, None]  # pts, space factor jets

    def evaluate(name, t, pts):
        t = float(t)
        frozen = type(pts) is np.ndarray and not pts.flags.writeable
        if frozen and pts is last[1] and (t == last[0] or last[3]):
            return last[2][name]
        arr = np.asarray(pts, dtype=float)
        if frozen and pts is factors[0]:
            spatial = factors[1]
        else:
            spatial = space(_coords(arr, dim))
            if frozen:
                factors[:] = pts, spatial
        rho, u, theta = jets(_time(t, dim), *spatial)
        out = _Level()
        out.comps = _fields(model, transport_model, rho, u, theta)
        out.base, out.dim = arr.shape[:-1], dim
        if frozen:
            # row 1 of a jet is its time derivative
            steady = 1 in rho.zero and 1 in theta.zero and all(1 in c.zero for c in u)
            last[:] = t, pts, out, steady
        return out[name]

    return {name: functools.partial(evaluate, name) for name in _SHAPES}


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
        if name[:1] == "_":
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


def _profile_equilibrium(model, transport_model, *, dim=1):
    dim = int(dim)
    boundary = gridmod.constant_boundary(1.0)

    def jets(time):
        return _Jet.const(1.0, dim), [_Jet.const(0.0, dim)] * dim, _Jet.const(1.0, dim)

    return _build("equilibrium", model, transport_model, boundary, dim,
                  lambda x: (), jets)


def _profile_conduction(model, transport_model):
    boundary = gridmod.affine_boundary(1.0, 0.5)

    def jets(time, x):
        return _Jet.const(1.0, 1), [_Jet.const(0.0, 1)], 1.0 + 0.5 * x

    return _build("conduction", model, transport_model, boundary, 1,
                  lambda x: (x[0],), jets)


def _profile_shear(model, transport_model):
    boundary = gridmod.constant_boundary(1.0)

    def space(x):
        return _sin(math.pi * x[0]), _sin(2.0 * math.pi * x[0])

    def jets(time, wave, wave2):
        decay = _exp(-1.0 * time)
        return (1.0 + wave2 * (0.25 * decay), [wave * (0.1 * decay)],
                1.0 + wave * (0.2 * decay))

    return _build("shear", model, transport_model, boundary, 1, space, jets)


def _profile_radiative_decay(model, transport_model):
    if not isinstance(model, thermo.MolecularRadiation):
        raise TypeError("radiative_decay profile requires a MolecularRadiation model")
    boundary = gridmod.constant_boundary(1.0)

    def space(x):
        return (_sin(math.pi * x[0]) * _sin(math.pi * x[1]),
                _sin(2.0 * math.pi * x[0]) * _sin(2.0 * math.pi * x[1]))

    def jets(time, bump, wave):
        decay = _exp(-1.0 * time)
        rho = 1.0 + wave * (0.25 * decay)
        u = [bump * (0.1 * decay), bump * (-0.8 * 0.1 * decay)]  # -0.8 * 0.1 != -0.08
        theta = 1.0 + bump * (0.3 * _exp(-0.5 * time))
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
    carries its own compatible boundary trace.  ``params`` are the profile's
    keyword parameters (only ``equilibrium`` has one, ``dim``); a keyword the
    profile does not read is a TypeError."""
    try:
        builder = _PROFILES[profile]
    except KeyError:
        raise KeyError(f"unknown profile {profile!r}; have {profile_names()}") from None
    reads = builder.__kwdefaults__ or {}
    unread = sorted(set(params) - set(reads))
    if unread:
        raise TypeError(f"profile {profile!r} does not read {', '.join(unread)}; "
                        f"it reads {', '.join(reads) or 'no keyword'}")
    return builder(model, transport_model, **params)
