"""The forcing evaluation keeps every bit of the component-wise jets it replaced.

The reference below is the earlier implementation, copied verbatim: jets
held one array (or float, or None for a structural zero) per component, and
every field was built into its array at evaluation.  The profiles' own
builders are run against it by patching these names into ``manufactured``.
"""

import functools
import itertools
import json
import math
import operator
import os
from typing import Callable

import numpy as np
import pytest

from nsflab import grid as gridmod
from nsflab import manufactured as mfg
from nsflab import thermo, transport


# -- reference: the component-wise jets ----------------------------------------
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


# -- reference: fields and forcings, each built into its array at evaluation --

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
    dp = model.partials(r, th, keys=("dp_drho", "dp_dtheta", "de_drho", "de_dtheta"))
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



_REFERENCE = {name: globals()[name] for name in
              ("_Jet", "_compose", "_sin", "_exp", "_time", "_coords", "_fields", "_compile")}

with open(os.path.join(os.path.dirname(__file__), "golden", "manufactured.json"),
          encoding="utf-8") as fh:
    GOLDEN = json.load(fh)

PG, AFF = thermo.PerfectGas(c_v=1.5), transport.AffineTheta()
MR, PK = thermo.MolecularRadiation(a=1.0), transport.PowerKappa()
# the profile, models and grids of the default commands, and the times a
# forced run reads (t = 0, a stage time, a late level)
DEFAULT_RUNS = [("shear", PG, AFF, cells) for cells in ((32,), (48,), (64,), (128,))]
DEFAULT_RUNS += [("conduction", PG, AFF, cells) for cells in ((32,), (64,))]
DEFAULT_RUNS += [("radiative_decay", MR, PK, (n, n)) for n in (8, 16, 32)]
TIMES = (0.0, 0.0123456789, 0.05, 0.37)


def _golden_solution(case):
    m = case["model"]
    if m["kind"] == "perfect_gas":
        model = thermo.PerfectGas(c_v=m["c_v"])
    else:
        model = thermo.MolecularRadiation(a=m["a"], kernel=thermo.kernel_by_name(m["kernel"]))
    params = dict(case["transport"])
    law = {"affine_theta": transport.AffineTheta,
           "power_kappa": transport.PowerKappa}[params.pop("kind")]
    return mfg.manufactured(case["profile"], model, law(**params), **case["params"])


def _all_fields(sol, times, pts):
    return [{key: fn(t, pts) for key, fn in sol._fns.items()} for t in times]


def _reference_fields(build, times, pts):
    """All 12 fields from the reference jets, the profile built by ``build``."""
    with pytest.MonkeyPatch.context() as mp:
        for name, obj in _REFERENCE.items():
            mp.setattr(mfg, name, obj)
        return _all_fields(build(), times, pts)


def _assert_same_bits(got, want):
    for level_got, level_want in zip(got, want, strict=True):
        assert sorted(level_got) == sorted(level_want)
        for key, arr in level_got.items():
            ref = level_want[key]
            assert arr.shape == ref.shape and arr.dtype == ref.dtype, key
            assert arr.tobytes() == ref.tobytes(), key
            assert not arr.flags.writeable, key


@pytest.mark.parametrize("case", GOLDEN["cases"],
                         ids=[f"{c['profile']}-{c['model']['kind']}-{i}"
                              for i, c in enumerate(GOLDEN["cases"])])
def test_golden_cases_keep_every_bit(case):
    pts = np.array(case["points"])
    want = _reference_fields(lambda: _golden_solution(case), GOLDEN["times"], pts)
    _assert_same_bits(_all_fields(_golden_solution(case), GOLDEN["times"], pts), want)


@pytest.mark.parametrize("profile,model,tm,cells", DEFAULT_RUNS,
                         ids=[f"{p}-{'x'.join(map(str, c))}" for p, _, _, c in DEFAULT_RUNS])
def test_default_grids_keep_every_bit(profile, model, tm, cells):
    grid = gridmod.Grid(cells=cells)
    build = functools.partial(mfg.manufactured, profile, model, tm)
    # the cell centres (read-only, memoised) and, as a writable array, the
    # wall faces, where sin vanishes and a signed zero would show
    for pts in (mfg.grid_points(grid),
                np.concatenate(list(gridmod.boundary_face_points(grid).values()))):
        _assert_same_bits(_all_fields(build(), TIMES, pts), _reference_fields(build, TIMES, pts))


@pytest.mark.parametrize("profile,model,tm,cells", [DEFAULT_RUNS[0], DEFAULT_RUNS[-1]],
                         ids=["shear", "radiative_decay"])
def test_one_evaluation_per_time_level_whatever_is_read(profile, model, tm, cells, monkeypatch):
    calls = []
    fields = mfg._fields
    monkeypatch.setattr(mfg, "_fields", lambda *a: calls.append(1) or fields(*a))
    sol = mfg.manufactured(profile, model, tm)
    pts = mfg.grid_points(gridmod.Grid(cells=cells))
    names = sorted(sol._fns)
    orders = [names, names[::-1], ["f_energy", "rho"], ["grad_u"], ["f_mass"] * 3]
    for i, order in enumerate(orders):
        t = 0.01 * (i + 1)
        first = {}
        for name in order:
            arr = sol._fns[name](t, pts)
            assert not arr.flags.writeable
            assert first.setdefault(name, arr) is arr
        assert len(calls) == i + 1, order
    # the last level read again costs no evaluation
    for name in itertools.islice(names, 3):
        sol._fns[name](0.01 * len(orders), pts)
    assert len(calls) == len(orders)


@pytest.mark.parametrize("profile,evaluations", [("conduction", 1), ("shear", 10)])
def test_a_steady_flow_is_evaluated_once_per_point_set(profile, evaluations, monkeypatch):
    # conduction's jets have no time-derivative row, so its one evaluation
    # serves every time level; shear decays in time and is evaluated per level
    calls = []
    fields = mfg._fields
    monkeypatch.setattr(mfg, "_fields", lambda *a: calls.append(1) or fields(*a))
    sol = mfg.manufactured(profile, PG, AFF)
    pts = mfg.grid_points(gridmod.Grid(cells=(32,)))
    levels = [sol.state(0.01 * k, pts) + (sol.f_energy(0.01 * k, pts),) for k in range(10)]
    assert len(calls) == evaluations
    fresh = mfg.manufactured(profile, PG, AFF)
    for k, level in enumerate(levels):
        want = fresh.state(0.01 * k, pts.copy()) + (fresh.f_energy(0.01 * k, pts.copy()),)
        assert [a.tobytes() for a in level] == [a.tobytes() for a in want]


def _jet_expressions(time, x, y, sin, exp):
    """Products of factors in different and in shared variables, negative
    scales, sums of jets and nested sin/exp: every rule a jet has."""
    bump = sin(x * math.pi) * sin(y * -math.pi)
    decay = exp(time * -1.3) * -0.8
    return (bump, bump * decay + 1.0, x * x * y * -2.0 + sin(time * x) + 0.5,
            sin(x * 1.3 + y * 0.7) * exp(x * y + time * 0.4), decay * bump * 0.0,
            y * -2.0, time * -0.5)


def _rows(jet):
    """The components of a reference jet in row order, structural zeros as 0.0."""
    comps = [jet.v, jet.dt, *jet.g, *jet.h]
    return [0.0 if c is None else c for c in comps]


@pytest.mark.parametrize("t", [0.0, 0.3])
def test_every_jet_rule_keeps_every_bit(t):
    # the cell centres and the walls of a 5 x 4 grid: sin vanishes on the
    # walls, so signed zeros show wherever a skipped term would be added
    grid = gridmod.Grid(cells=(5, 4))
    pts = np.concatenate([mfg.grid_points(grid).reshape(-1, 2),
                          *gridmod.boundary_face_points(grid).values()])
    new = _jet_expressions(mfg._time(t, 2), *mfg._coords(pts, 2), mfg._sin, mfg._exp)
    ref = _jet_expressions(_time(t, 2), *_coords(pts, 2), _sin, _exp)
    for got, want in zip(new, ref, strict=True):
        assert got.c.shape[0] == len(_rows(want))
        for row, comp in zip(got.c, _rows(want)):
            assert row.tobytes() == np.broadcast_to(comp, row.shape).tobytes()
