"""Finite-difference validation of the analytic profiles and their forcings."""

import numpy as np
import pytest
import sympy as sp

from nsflab import grid as g
from nsflab import manufactured as mfg
from nsflab import thermo, transport

PG = thermo.PerfectGas(c_v=1.5)
AFF = transport.AffineTheta()
MR = thermo.MolecularRadiation(a=0.5, kernel=thermo.DEGENERATE_KERNEL)
PK = transport.PowerKappa()

CASES = {
    "equilibrium": (PG, AFF),
    "conduction": (PG, AFF),
    "shear": (PG, AFF),
    "radiative_decay": (MR, PK),
}


def _fd_forcings(sol, t=0.3, h=1e-5):
    """Assemble each forcing from centered differences of the field callables."""
    gr = g.Grid(cells=(10,) * sol.dim)
    pts = mfg.grid_points(gr)
    d = sol.dim
    m, tr = sol.model, sol.transport_model

    def ddt(f):
        return (f(t + h, pts) - f(t - h, pts)) / (2 * h)

    def ddx(f, k):
        e = np.zeros(d)
        e[k] = h
        return (f(t, pts + e) - f(t, pts - e)) / (2 * h)

    def rho(tt, pp):
        return sol.rho(tt, pp)

    def uk(k):
        return lambda tt, pp: sol.u(tt, pp)[..., k]

    def pres(tt, pp):
        return m.p(sol.rho(tt, pp), sol.theta(tt, pp))

    def inte(tt, pp):
        return m.e(sol.rho(tt, pp), sol.theta(tt, pp))

    def stress(tt, pp):
        return transport.viscous_stress(tr, sol.rho(tt, pp), sol.theta(tt, pp), sol.grad_u(tt, pp))

    def qflux(tt, pp):
        return transport.heat_flux(tr, sol.rho(tt, pp), sol.theta(tt, pp), sol.grad_theta(tt, pp))

    f_mass = ddt(rho) + sum(ddx(lambda tt, pp, k=k: rho(tt, pp) * uk(k)(tt, pp), k) for k in range(d))
    gaps = [np.max(np.abs(f_mass - sol.f_mass(t, pts)))]

    fm = sol.f_mom(t, pts)
    for j in range(d):
        lhs = ddt(lambda tt, pp, j=j: rho(tt, pp) * uk(j)(tt, pp))
        lhs += sum(ddx(lambda tt, pp, j=j, k=k: rho(tt, pp) * uk(j)(tt, pp) * uk(k)(tt, pp), k)
                   for k in range(d))
        lhs += ddx(pres, j)
        lhs -= sum(ddx(lambda tt, pp, j=j, k=k: stress(tt, pp)[..., j, k], k) for k in range(d))
        gaps.append(np.max(np.abs(lhs - fm[..., j])))

    gu = sol.grad_u(t, pts)
    fe = ddt(lambda tt, pp: rho(tt, pp) * inte(tt, pp))
    fe += sum(ddx(lambda tt, pp, k=k: rho(tt, pp) * inte(tt, pp) * uk(k)(tt, pp), k) for k in range(d))
    fe += sum(ddx(lambda tt, pp, k=k: qflux(tt, pp)[..., k], k) for k in range(d))
    s_val = transport.viscous_stress(tr, sol.rho(t, pts), sol.theta(t, pts), gu)
    fe -= np.sum(s_val * gu, axis=(-2, -1))
    fe += m.p(sol.rho(t, pts), sol.theta(t, pts)) * np.trace(gu, axis1=-2, axis2=-1)
    gaps.append(np.max(np.abs(fe - sol.f_energy(t, pts))))
    return max(gaps)


@pytest.mark.parametrize("name", sorted(CASES))
def test_forcings_match_finite_differences(name):
    model, tr = CASES[name]
    sol = mfg.manufactured(name, model, tr)
    assert _fd_forcings(sol) < 1e-7


@pytest.mark.parametrize("name", sorted(CASES))
def test_boundary_compatibility(name):
    model, tr = CASES[name]
    sol = mfg.manufactured(name, model, tr)
    gr = g.Grid(cells=(8,) * sol.dim)
    for side, pts in g.boundary_face_points(gr).items():
        for t in (0.0, 0.4, 1.0):
            assert np.max(np.abs(sol.u(t, pts))) < 1e-14
            got = sol.theta(t, pts)
            want = sol.boundary.theta(t, pts)
            assert np.max(np.abs(got - want)) < 1e-14


@pytest.mark.parametrize("name", sorted(CASES))
def test_derivative_callables_match_finite_differences(name):
    model, tr = CASES[name]
    sol = mfg.manufactured(name, model, tr)
    gr = g.Grid(cells=(9,) * sol.dim)
    pts = mfg.grid_points(gr)
    t, h = 0.25, 1e-6
    assert np.max(np.abs((sol.rho(t + h, pts) - sol.rho(t - h, pts)) / (2 * h)
                         - sol.drho_dt(t, pts))) < 1e-7
    assert np.max(np.abs((sol.theta(t + h, pts) - sol.theta(t - h, pts)) / (2 * h)
                         - sol.dtheta_dt(t, pts))) < 1e-7
    gu = sol.grad_u(t, pts)
    gth = sol.grad_theta(t, pts)
    grho = sol.grad_rho(t, pts)
    for k in range(sol.dim):
        e = np.zeros(sol.dim)
        e[k] = h
        assert np.max(np.abs((sol.u(t, pts + e) - sol.u(t, pts - e)) / (2 * h)
                             - gu[..., :, k])) < 1e-7
        assert np.max(np.abs((sol.theta(t, pts + e) - sol.theta(t, pts - e)) / (2 * h)
                             - gth[..., k])) < 1e-7
        assert np.max(np.abs((sol.rho(t, pts + e) - sol.rho(t, pts - e)) / (2 * h)
                             - grho[..., k])) < 1e-7


def test_equilibrium_forcing_identically_zero():
    sol = mfg.manufactured("equilibrium", PG, AFF)
    gr = g.Grid(cells=(16,))
    pts = mfg.grid_points(gr)
    for t in (0.0, 0.7):
        assert np.max(np.abs(sol.f_mass(t, pts))) == 0.0
        assert np.max(np.abs(sol.f_mom(t, pts))) == 0.0
        assert np.max(np.abs(sol.f_energy(t, pts))) == 0.0


def test_conduction_energy_forcing_vanishes_for_constant_kappa():
    # linear theta, u = 0: div q = -kappa'(theta) * slope^2, zero when kappa' = 0
    const_kappa = transport.PowerKappa(kappa2=0.0)
    sol = mfg.manufactured("conduction", PG, const_kappa)
    gr = g.Grid(cells=(16,))
    pts = mfg.grid_points(gr)
    assert np.max(np.abs(sol.f_mass(0.0, pts))) == 0.0
    assert np.max(np.abs(sol.f_energy(0.0, pts))) < 1e-14
    # momentum forcing carries the pressure gradient of the stratified state
    assert np.min(np.abs(sol.f_mom(0.0, pts))) > 0.0


def test_positivity_of_ranges():
    for name, (model, tr) in CASES.items():
        sol = mfg.manufactured(name, model, tr)
        rep = sol.range_report(g.Grid(cells=(12,) * sol.dim), [0.0, 0.5, 2.0])
        assert rep["rho_min"] > 0.0
        assert rep["theta_min"] > 0.0
        assert rep["rho_max"] >= rep["rho_min"]


def test_unknown_profile_rejected():
    with pytest.raises(KeyError, match="unknown profile"):
        mfg.manufactured("vortex", PG, AFF)


def test_radiative_profile_requires_molecular_radiation():
    with pytest.raises(TypeError, match="MolecularRadiation"):
        mfg.manufactured("radiative_decay", PG, PK)


def test_amplitude_validation():
    with pytest.raises(ValueError, match="positive"):
        mfg.manufactured("shear", PG, AFF, amp_rho=1.5)
    with pytest.raises(ValueError, match="temperature span"):
        mfg.manufactured("conduction", PG, AFF, slope=-2.0)


def test_explicit_boundary_must_match_trace():
    ok = mfg.manufactured("shear", PG, AFF, boundary=g.constant_boundary(1.0))
    assert ok.boundary.label.startswith("constant")
    with pytest.raises(ValueError, match="incompatible"):
        mfg.manufactured("shear", PG, AFF, boundary=g.constant_boundary(2.0))


SCALAR_FIELDS = ("rho", "theta", "drho_dt", "dtheta_dt", "f_mass", "f_energy")
VECTOR_FIELDS = ("u", "du_dt", "grad_rho", "grad_theta", "f_mom")
MATRIX_FIELDS = ("grad_u",)


def _per_component(expr, coords):
    """Reference for one compiled field: a plain lambdify per component."""
    comps = np.array(expr, dtype=object)
    fns = [sp.lambdify((mfg._T, *coords), c, modules="numpy") for c in comps.ravel()]

    def call(t, pts):
        base = pts.shape[:-1]
        vals = [np.broadcast_to(np.asarray(f(t, *(pts[..., k] for k in range(len(coords)))),
                                           dtype=float), base) for f in fns]
        return np.stack(vals, axis=-1).reshape(base + comps.shape)

    return call


@pytest.mark.parametrize("name, params", [(n, {}) for n in sorted(CASES)]
                         + [("equilibrium", {"dim": 2})],
                         ids=sorted(CASES) + ["equilibrium-2d"])
def test_compiled_fields_match_per_component_lambdify(name, params, monkeypatch):
    captured = {}
    real = mfg._compile

    def spy(fields, coords):
        captured.update(fields=fields, coords=coords)
        return real(fields, coords)

    monkeypatch.setattr(mfg, "_compile", spy)
    model, tr = CASES[name]
    sol = mfg.manufactured(name, model, tr, **params)
    assert sorted(sol._fns) == sorted(SCALAR_FIELDS + VECTOR_FIELDS + MATRIX_FIELDS)
    assert sorted(captured["fields"]) == sorted(sol._fns)
    d = sol.dim
    rng = np.random.default_rng(3)
    pts = rng.uniform(-0.2, 1.2, size=(7, 5, d))
    for key, fn in sol._fns.items():
        ref = _per_component(captured["fields"][key], captured["coords"])
        tail = () if key in SCALAR_FIELDS else (d,) if key in VECTOR_FIELDS else (d, d)
        for t in rng.uniform(0.0, 2.0, size=3):
            got, want = fn(t, pts), ref(t, pts)
            assert got.shape == (7, 5) + tail and got.dtype == np.float64, key
            assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want))), key


def test_fields_at_one_time_level_are_evaluated_once():
    sol = mfg.manufactured("radiative_decay", MR, PK)
    pts = mfg.grid_points(g.Grid(cells=(6, 6)))
    assert not pts.flags.writeable
    first = {key: fn(0.3, pts) for key, fn in sol._fns.items()}
    for key, fn in sol._fns.items():
        # same t (any float type) and the same read-only array: the memo
        assert fn(np.float64(0.3), pts) is first[key]
        with pytest.raises(ValueError, match="read-only"):
            first[key][...] = 0.0
    twin = pts.copy()
    twin.flags.writeable = False
    writable = pts.copy()
    # an equal read-only copy, a writable array (twice: it is never
    # remembered) and a new t each recompute
    seen = [first["f_energy"]]
    for t, where in ((0.3, twin), (0.3, writable), (0.3, writable), (0.7, pts)):
        got = sol.f_energy(t, where)
        assert all(got is not prev for prev in seen)
        assert not got.flags.writeable
        if t == 0.3:
            assert np.array_equal(got, first["f_energy"])
        seen.append(got)
    # a recomputation at a new (t, pts) replaces the memo
    assert sol.rho(0.7, pts) is sol.rho(0.7, pts)
    assert np.array_equal(sol.u(0.3, pts), first["u"])
