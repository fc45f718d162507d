"""Finite-difference validation of the analytic profiles and their forcings."""

import json
import os

import numpy as np
import pytest

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
        # Fourier law q = -kappa * grad theta
        kap = tr.kappa(sol.rho(tt, pp), sol.theta(tt, pp))
        return -np.asarray(kap, dtype=float)[..., None] * sol.grad_theta(tt, pp)

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


def test_jet_arithmetic_matches_finite_differences():
    # products of factors sharing a variable, nested sin/exp and sums: the
    # profiles only multiply factors of different variables
    rng = np.random.default_rng(5)
    pts = rng.uniform(-0.5, 0.5, size=(6, 2))

    def field(t, p):
        time, (x, y) = mfg._time(t, 2), mfg._coords(p, 2)
        return (mfg._sin(1.3 * x + 0.7 * y) * mfg._exp(x * y + time * 0.4)
                + x * x * y * 2.0 + mfg._sin(time * x) + 0.5)

    t, h = 0.3, 1e-4
    jet = field(t, pts)
    value = lambda tt, p: field(tt, p).v
    shift = np.eye(2) * h
    assert np.max(np.abs(jet.dt - (value(t + h, pts) - value(t - h, pts)) / (2 * h))) < 1e-7
    for k in range(2):
        fd = (value(t, pts + shift[k]) - value(t, pts - shift[k])) / (2 * h)
        assert np.max(np.abs(jet.g[k] - fd)) < 1e-7
        for l in range(2):
            fd2 = (value(t, pts + shift[k] + shift[l]) - value(t, pts + shift[k] - shift[l])
                   - value(t, pts - shift[k] + shift[l]) + value(t, pts - shift[k] - shift[l])
                   ) / (4 * h * h)
            assert np.max(np.abs(jet.hess(k, l) - fd2)) < 1e-6, (k, l)


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
        grid = g.Grid(cells=(12,) * sol.dim)
        for t in (0.0, 0.5, 2.0):
            rho, u, theta = sol.on_grid(grid, t)
            assert np.min(rho) > 0.0
            assert np.min(theta) > 0.0
            assert np.all(np.isfinite(u))


def test_unknown_profile_rejected():
    with pytest.raises(KeyError, match="unknown profile"):
        mfg.manufactured("vortex", PG, AFF)


def test_radiative_profile_requires_molecular_radiation():
    with pytest.raises(TypeError, match="MolecularRadiation"):
        mfg.manufactured("radiative_decay", PG, PK)


def test_profile_refuses_keywords_it_does_not_read():
    # a profile is a fixed flow: an amplitude or a dimension it does not take
    # must not silently build the profile as it is
    with pytest.raises(TypeError) as err:
        mfg.manufactured("shear", PG, AFF, dim=2, amp_rho=0.5)
    assert "amp_rho, dim" in str(err.value) and "no keyword" in str(err.value)
    with pytest.raises(TypeError, match="does not read slope; it reads dim"):
        mfg.manufactured("equilibrium", PG, AFF, slope=0.8)
    assert mfg.manufactured("equilibrium", PG, AFF, dim=2).dim == 2


def test_any_pressure_kernel_gets_consistent_forcings():
    # P(q) = q + q**(5/3) is Gibbs-compatible with S(q) = -log q; the
    # forcings reach it only through the model's own laws
    kernel = thermo.PressureKernel(
        name="ideal_plus_degenerate_tail",
        p=lambda q: np.asarray(q, dtype=float) + np.asarray(q, dtype=float) ** (5.0 / 3.0),
        dp=lambda q: 1.0 + 5.0 / 3.0 * np.asarray(q, dtype=float) ** (2.0 / 3.0),
        s=thermo.IDEAL_KERNEL.s, ds=thermo.IDEAL_KERNEL.ds, pbar=1.0, third_law=False)
    model = thermo.MolecularRadiation(a=0.5, kernel=kernel)
    assert thermo.validate_structure(model, n_samples=200).checks["gibbs_max_residual"] < 1e-8
    sol = mfg.manufactured("radiative_decay", model, PK)
    assert _fd_forcings(sol) < 1e-7


def test_transport_without_coefficient_law_rejected():
    envelope = transport.BoundedGeneral()
    with pytest.raises(TypeError, match="unsupported transport type BoundedGeneral"):
        mfg.manufactured("shear", PG, envelope)


SCALAR_FIELDS = ("rho", "theta", "drho_dt", "dtheta_dt", "f_mass", "f_energy")
VECTOR_FIELDS = ("u", "du_dt", "grad_rho", "grad_theta", "f_mom")
MATRIX_FIELDS = ("grad_u",)


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


def test_state_on_grid_is_the_one_evaluation_of_all_fields(monkeypatch):
    jets = []
    time_jet = mfg._time
    monkeypatch.setattr(mfg, "_time", lambda t, dim: jets.append(t) or time_jet(t, dim))
    sol = mfg.manufactured("radiative_decay", MR, PK)
    grid = g.Grid(cells=(6, 5))
    pts = mfg.grid_points(grid)
    rho, u, theta = sol.on_grid(grid, 0.3)
    assert sol.rho(0.3, pts) is rho and sol.u(0.3, pts) is u and sol.theta(0.3, pts) is theta
    for fn in sol._fns.values():
        fn(0.3, pts)
    assert jets == [0.3]
    # a writable pts is read through one read-only copy: one more evaluation
    rho_w, u_w, theta_w = sol.state(0.3, pts.copy())
    assert jets == [0.3, 0.3]
    assert np.array_equal(rho_w, rho) and np.array_equal(u_w, u)
    assert np.array_equal(theta_w, theta)


with open(os.path.join(os.path.dirname(__file__), "golden", "manufactured.json"),
          encoding="utf-8") as fh:
    GOLDEN = json.load(fh)


def _golden_solution(case):
    """The strong solution a golden case describes."""
    m = case["model"]
    if m["kind"] == "perfect_gas":
        model = thermo.PerfectGas(c_v=m["c_v"])
    else:
        model = thermo.MolecularRadiation(a=m["a"], kernel=thermo.kernel_by_name(m["kernel"]))
    params = dict(case["transport"])
    law = {"affine_theta": transport.AffineTheta,
           "power_kappa": transport.PowerKappa}[params.pop("kind")]
    return mfg.manufactured(case["profile"], model, law(**params), **case["params"])


@pytest.mark.parametrize("case", GOLDEN["cases"],
                         ids=[f"{c['profile']}-{c['model']['kind']}-{c['transport']['kind']}-{i}"
                              for i, c in enumerate(GOLDEN["cases"])])
def test_fields_match_golden_values(case):
    """All 12 fields of every profile/model pair the commands and tests
    build (plus an ideal kernel), against values recorded from the symbolic
    derivation."""
    sol = _golden_solution(case)
    assert sorted(sol._fns) == sorted(SCALAR_FIELDS + VECTOR_FIELDS + MATRIX_FIELDS)
    assert sorted(case["fields"]) == sorted(sol._fns)
    d = sol.dim
    pts = np.array(case["points"])
    assert pts.shape[-1] == d
    for key, fn in sol._fns.items():
        tail = () if key in SCALAR_FIELDS else (d,) if key in VECTOR_FIELDS else (d, d)
        for t, want in zip(GOLDEN["times"], case["fields"][key]):
            got, want = fn(t, pts), np.array(want)
            assert got.shape == pts.shape[:-1] + tail and got.dtype == np.float64, key
            assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want))), (key, t)
