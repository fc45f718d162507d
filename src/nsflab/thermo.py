"""Equations of state for heat-conducting compressible flow.

Two constitutive families are provided. ``PerfectGas`` is the calorically
perfect law

    p = rho * theta,   e = c_v * theta,   s = log(theta**c_v / rho),

with dimensionless specific heat c_v > 1. ``MolecularRadiation`` superposes a
molecular contribution driven by a scaled pressure kernel P,

    p_M = theta**(5/2) * P(rho / theta**(3/2)),
    e_M = (3/2) * (theta**(5/2) / rho) * P(rho / theta**(3/2)),
    s_M = S(rho / theta**(3/2)),

with an equilibrium-radiation contribution

    p_R = a * theta**2,   e_R = a * theta**2 / rho,   s_R = 2 * a * theta / rho.

The entropy kernel S is fixed by the compatibility condition
S'(q) = -(3/2) * (5/3 * P(q) - P'(q) * q) / q**2, which makes the Gibbs
relation theta * Ds = De + p * D(1/rho) hold identically.

All state functions are vectorized over numpy arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "PressureKernel",
    "IDEAL_KERNEL",
    "DEGENERATE_KERNEL",
    "ThermoModel",
    "PerfectGas",
    "MolecularRadiation",
    "ThermoEval",
    "gibbs_residual",
    "ballistic_energy",
    "conservative_energy",
    "conservative_partials",
    "invert_entropy",
    "invert_internal_energy",
    "validate_structure",
    "StructureReport",
    "entropy_growth_bound",
]

_SQRT3 = math.sqrt(3.0)


@dataclass(frozen=True)
class PressureKernel:
    """Molecular pressure kernel P with its Gibbs-compatible entropy kernel S.

    ``p`` and ``dp`` evaluate P and P'; ``s`` and ``ds`` evaluate S and S'.
    ``pbar`` is the limit of P(q)/q**(5/3) as q -> inf (0 if the tail is
    sub-critical). ``third_law`` records whether S(q) -> 0 as q -> inf.
    """

    name: str
    p: Callable[[np.ndarray], np.ndarray]
    dp: Callable[[np.ndarray], np.ndarray]
    s: Callable[[np.ndarray], np.ndarray]
    ds: Callable[[np.ndarray], np.ndarray]
    pbar: float
    third_law: bool


def _ideal_s(q):
    return -np.log(q)


def _degenerate_s(q):
    # S(q) = integral_q^inf (1+t)**(-1/3)/t dt, reduced by w = (1+t)**(1/3):
    # antiderivative log(w-1) - log(w^2+w+1)/2 + sqrt(3)*atan((2w+1)/sqrt(3)).
    q = np.asarray(q, dtype=float)
    wm1 = np.expm1(np.log1p(q) / 3.0)  # (1+q)**(1/3) - 1 without cancellation
    w = wm1 + 1.0
    prim = np.log(wm1) - 0.5 * np.log(w * w + w + 1.0) + _SQRT3 * np.arctan((2.0 * w + 1.0) / _SQRT3)
    return _SQRT3 * math.pi / 2.0 - prim


IDEAL_KERNEL = PressureKernel(
    name="ideal",
    p=lambda q: np.asarray(q, dtype=float),
    dp=lambda q: np.ones_like(np.asarray(q, dtype=float)),
    s=_ideal_s,
    ds=lambda q: -1.0 / np.asarray(q, dtype=float),
    pbar=0.0,
    third_law=False,
)

DEGENERATE_KERNEL = PressureKernel(
    name="degenerate",
    p=lambda q: np.asarray(q, dtype=float) * (1.0 + np.asarray(q, dtype=float)) ** (2.0 / 3.0),
    dp=lambda q: (1.0 + 5.0 / 3.0 * np.asarray(q, dtype=float)) * (1.0 + np.asarray(q, dtype=float)) ** (-1.0 / 3.0),
    s=_degenerate_s,
    ds=lambda q: -((1.0 + np.asarray(q, dtype=float)) ** (-1.0 / 3.0)) / np.asarray(q, dtype=float),
    pbar=1.0,
    third_law=True,
)
"""Degenerate kernel P(q) = q*(1+q)**(2/3) with its third-law entropy kernel.

At large q = rho/theta**1.5 the internal energy tends to the theta-free
1.5*rho**(2/3), and its theta-condition number e/(theta*de_dtheta) grows like
q (3.2e7 at rho = 1e3, theta = 1e-3). A correctly rounded e then fixes theta
only to about q*eps, so ``invert_internal_energy`` round-trips there to about
1e-8 relative (3.6e-8 from a correctly rounded e over 50 states within 1e-3
of that point). The loss is the inversion's, not this formula's: writing P as
q**(5/3)*exp((2/3)*log1p(1/q)) gives 5.3e-8 on the same states.
"""

_KERNELS = {k.name: k for k in (IDEAL_KERNEL, DEGENERATE_KERNEL)}


def kernel_by_name(name: str) -> PressureKernel:
    try:
        return _KERNELS[name]
    except KeyError:
        raise ValueError(f"unknown pressure kernel {name!r}; known: {sorted(_KERNELS)}") from None


@dataclass(frozen=True)
class ThermoEval:
    """Pressure, internal energy, entropy and their (rho, theta) partials."""

    p: np.ndarray
    e: np.ndarray
    s: np.ndarray
    dp_drho: np.ndarray
    dp_dtheta: np.ndarray
    de_drho: np.ndarray
    de_dtheta: np.ndarray
    ds_drho: np.ndarray
    ds_dtheta: np.ndarray


class ThermoModel:
    """Base class for equations of state. Subclasses supply the state laws."""

    kind = "abstract"

    # -- scalar laws, vectorized over numpy arrays ---------------------------
    def p(self, rho, theta):
        raise NotImplementedError

    def e(self, rho, theta):
        raise NotImplementedError

    def s(self, rho, theta):
        raise NotImplementedError

    def partials(self, rho, theta):
        """Return the six partial derivatives as a dict."""
        raise NotImplementedError

    # -- vacuum-safe densities ----------------------------------------------
    def rho_e(self, rho, theta):
        """rho * e(rho, theta), continued by 0 at rho = 0."""
        raise NotImplementedError

    def rho_s(self, rho, theta):
        """rho * s(rho, theta), continued by its limit at rho = 0."""
        raise NotImplementedError

    def eval(self, rho, theta) -> ThermoEval:
        rho = np.asarray(rho, dtype=float)
        theta = np.asarray(theta, dtype=float)
        if np.any(rho <= 0.0) or np.any(theta <= 0.0):
            raise ValueError("eval requires rho > 0 and theta > 0")
        d = self.partials(rho, theta)
        return ThermoEval(
            p=self.p(rho, theta),
            e=self.e(rho, theta),
            s=self.s(rho, theta),
            dp_drho=d["dp_drho"],
            dp_dtheta=d["dp_dtheta"],
            de_drho=d["de_drho"],
            de_dtheta=d["de_dtheta"],
            ds_drho=d["ds_drho"],
            ds_dtheta=d["ds_dtheta"],
        )

    def sound_speed_sq(self, rho, theta):
        """Isentropic sound speed squared: dp/drho + theta*(dp/dtheta)^2/(rho^2 de/dtheta)."""
        d = self.partials(rho, theta)
        return d["dp_drho"] + theta * d["dp_dtheta"] ** 2 / (rho**2 * d["de_dtheta"])


@dataclass(frozen=True)
class PerfectGas(ThermoModel):
    """Perfect gas p = rho*theta, e = c_v*theta, s = log(theta**c_v / rho)."""

    c_v: float = 1.5
    kind: str = field(default="perfect_gas", init=False)

    def __post_init__(self):
        # c_v <= 1 breaks the entropy coercivity this law is used with.
        if not (self.c_v > 1.0):
            raise ValueError(
                f"perfect gas requires c_v > 1 (the entropy bound |s| <= s_bar "
                f"only controls theta**c_v by rho*theta when c_v exceeds 1); got c_v = {self.c_v}"
            )

    def p(self, rho, theta):
        return np.asarray(rho, dtype=float) * np.asarray(theta, dtype=float)

    def e(self, rho, theta):
        rho = np.asarray(rho, dtype=float)
        return self.c_v * np.asarray(theta, dtype=float) * np.ones_like(rho)

    def s(self, rho, theta):
        return self.c_v * np.log(np.asarray(theta, dtype=float)) - np.log(np.asarray(rho, dtype=float))

    def partials(self, rho, theta):
        rho = np.asarray(rho, dtype=float)
        theta = np.asarray(theta, dtype=float)
        one = np.ones(np.broadcast_shapes(rho.shape, theta.shape))
        return {
            "dp_drho": theta * one,
            "dp_dtheta": rho * one,
            "de_drho": 0.0 * one,
            "de_dtheta": self.c_v * one,
            "ds_drho": -1.0 / rho * one,
            "ds_dtheta": self.c_v / theta * one,
        }

    def rho_e(self, rho, theta):
        return self.c_v * np.asarray(rho, dtype=float) * np.asarray(theta, dtype=float)

    def rho_s(self, rho, theta):
        rho = np.asarray(rho, dtype=float)
        theta = np.asarray(theta, dtype=float)
        safe = np.where(rho > 0.0, rho, 1.0)
        out = safe * (self.c_v * np.log(theta) - np.log(safe))
        return np.where(rho > 0.0, out, 0.0)

    def theta_from_entropy(self, rho, s):
        """Closed-form inverse of s(rho, .) for this law."""
        return np.exp((np.asarray(s, dtype=float) + np.log(np.asarray(rho, dtype=float))) / self.c_v)


@dataclass(frozen=True)
class MolecularRadiation(ThermoModel):
    """Molecular kernel EOS superposed with quadratic equilibrium radiation.

    ``radiation_exponent`` exists so that a quartic (Stefan-Boltzmann style)
    radiation request can be expressed and rejected: the ballistic-energy
    machinery needs the radiation entropy flux rho*s_R*u to be absorbable by
    theta**2 + |u - u_ref|**2, which fails for p_R = a*theta**4.
    """

    a: float = 1.0
    kernel: PressureKernel = DEGENERATE_KERNEL
    radiation_exponent: int = 2
    kind: str = field(default="molecular_radiation", init=False)

    def __post_init__(self):
        if not (self.a > 0.0):
            raise ValueError(f"radiation constant a must be > 0, got {self.a}")
        if self.radiation_exponent != 2:
            raise ValueError(
                "radiation pressure must be quadratic (p_R = a*theta**2): the entropy flux "
                "rho*s_R*|u| of a theta**%d law cannot be absorbed by the dissipation and "
                "ballistic terms, so the uniqueness estimate does not close"
                % self.radiation_exponent
            )

    def _q(self, rho, theta):
        return np.asarray(rho, dtype=float) * np.asarray(theta, dtype=float) ** (-1.5)

    def p(self, rho, theta):
        theta = np.asarray(theta, dtype=float)
        return theta**2.5 * self.kernel.p(self._q(rho, theta)) + self.a * theta**2

    def e(self, rho, theta):
        rho = np.asarray(rho, dtype=float)
        theta = np.asarray(theta, dtype=float)
        return 1.5 * theta**2.5 / rho * self.kernel.p(self._q(rho, theta)) + self.a * theta**2 / rho

    def s(self, rho, theta):
        rho = np.asarray(rho, dtype=float)
        theta = np.asarray(theta, dtype=float)
        return self.kernel.s(self._q(rho, theta)) + 2.0 * self.a * theta / rho

    def partials(self, rho, theta):
        rho = np.asarray(rho, dtype=float)
        theta = np.asarray(theta, dtype=float)
        q = self._q(rho, theta)
        P = self.kernel.p(q)
        dP = self.kernel.dp(q)
        dS = self.kernel.ds(q)
        a = self.a
        return {
            "dp_drho": theta * dP,
            "dp_dtheta": 2.5 * theta**1.5 * P - 1.5 * rho * dP + 2.0 * a * theta,
            "de_drho": 1.5 * (theta * dP / rho - theta**2.5 * P / rho**2) - a * theta**2 / rho**2,
            "de_dtheta": 1.5 * (2.5 * theta**1.5 * P / rho - 1.5 * dP) + 2.0 * a * theta / rho,
            "ds_drho": dS * theta ** (-1.5) - 2.0 * a * theta / rho**2,
            "ds_dtheta": -1.5 * rho * theta ** (-2.5) * dS + 2.0 * a / rho,
        }

    def rho_e(self, rho, theta):
        rho = np.asarray(rho, dtype=float)
        theta = np.asarray(theta, dtype=float)
        safe = np.where(rho > 0.0, rho, 1.0)
        mol = 1.5 * theta**2.5 * self.kernel.p(self._q(safe, theta))
        return np.where(rho > 0.0, mol, 0.0) + self.a * theta**2

    def rho_s(self, rho, theta):
        rho = np.asarray(rho, dtype=float)
        theta = np.asarray(theta, dtype=float)
        safe = np.where(rho > 0.0, rho, 1.0)
        mol = safe * self.kernel.s(self._q(safe, theta))
        return np.where(rho > 0.0, mol, 0.0) + 2.0 * self.a * theta


def gibbs_residual(model: ThermoModel, rho, theta):
    """Normalized residuals of the Gibbs relation theta*Ds = De + p*D(1/rho).

    Returns (r_theta, r_rho) with

        r_theta = (theta*ds_dtheta - de_dtheta) / scale,
        r_rho   = (theta*ds_drho - de_drho + p/rho**2) / scale,

    where scale = 1 + |e| + |theta*s| keeps the residual meaningful across
    magnitudes.
    """
    ev = model.eval(rho, theta)
    theta = np.asarray(theta, dtype=float)
    rho = np.asarray(rho, dtype=float)
    scale = 1.0 + np.abs(ev.e) + np.abs(theta * ev.s)
    r_theta = (theta * ev.ds_dtheta - ev.de_dtheta) / scale
    r_rho = (theta * ev.ds_drho - ev.de_drho + ev.p / rho**2) / scale
    return r_theta, r_rho


def ballistic_energy(model: ThermoModel, rho, theta, theta_ref):
    """Ballistic energy density rho*(e - theta_ref*s), vacuum-safe."""
    theta_ref = np.asarray(theta_ref, dtype=float)
    return model.rho_e(rho, theta) - theta_ref * model.rho_s(rho, theta)


_INVERTED = {"s": "entropy", "e": "internal-energy"}
# a residual within a few ulps of the target is at the law's round-off
_ROUNDOFF = 4.0 * np.finfo(float).eps
# the temperature range searched and the relative step that ends a cell
_BRACKET = (1e-12, 1e12)
_RTOL = 1e-13


def _invert_monotone(model: ThermoModel, law: str, rho, target, theta0, max_iter):
    """Solve ``model.<law>(rho, theta) = target`` for theta, cell by cell.

    The law increases strictly in theta, so each cell keeps a sign-change
    bracket inside ``_BRACKET``; a Newton step that leaves it falls back to
    bisection (rtsafe, Numerical Recipes 9.4). A cell is done when its raw
    Newton step is at most _RTOL*theta, when its residual is at round-off (an
    ill-conditioned cell gets no closer), or when its bracket has collapsed
    to _RTOL*theta. Each iteration evaluates the law and one
    ``model.partials`` on the cells still active only.
    """
    rho = np.asarray(rho, dtype=float)
    target = np.asarray(target, dtype=float)
    shape = np.broadcast_shapes(rho.shape, target.shape)
    rho = np.broadcast_to(rho, shape).ravel()
    target = np.broadcast_to(target, shape).ravel()
    theta = (np.ones(rho.size) if theta0 is None else
             np.clip(np.broadcast_to(np.asarray(theta0, dtype=float), shape), *_BRACKET).ravel())
    value, slope = getattr(model, law), f"d{law}_dtheta"
    active = np.arange(rho.size)
    lo = np.full(rho.size, _BRACKET[0])
    hi = np.full(rho.size, _BRACKET[1])
    for _ in range(max_iter):
        if active.size == 0:
            break
        r, th, tgt = rho[active], theta[active], target[active]
        f = value(r, th) - tgt
        d = model.partials(r, th)[slope]
        lo = np.where(f < 0.0, np.maximum(lo, th), lo)
        hi = np.where(f > 0.0, np.minimum(hi, th), hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(d > 0.0, f / d, np.nan)
        # a raw step within _RTOL is taken and ends the cell (the residual
        # test guards against a step shrunk by a huge slope); a residual at
        # round-off or a collapsed bracket ends it where it stands
        newton = (np.abs(step) <= _RTOL * th) & (np.abs(f) <= 1e-9 * (1.0 + np.abs(tgt)))
        settled = (np.abs(f) <= _ROUNDOFF * np.abs(tgt)) | (hi - lo <= _RTOL * th)
        cand = th - step
        cand = np.where(newton | ((cand > lo) & (cand < hi)), cand, 0.5 * (lo + hi))
        theta[active] = np.where(settled & ~newton, th, cand)
        live = ~(newton | settled)
        active, lo, hi = active[live], lo[live], hi[live]
    if active.size:
        r, th, tgt = rho[active], theta[active], target[active]
        res = np.abs(value(r, th) - tgt) / (1.0 + np.abs(tgt))
        k = int(np.argmax(res))
        if not res[k] <= 1e3 * _RTOL:
            cell = tuple(int(i) for i in np.unravel_index(active[k], shape))
            raise RuntimeError(
                f"{_INVERTED[law]} inversion failed to converge in {max_iter} iterations "
                f"at cell {cell}: rho = {r[k]:.17g}, target {law} = {tgt[k]:.17g}, "
                f"last theta = {th[k]:.17g} (relative residual {res[k]:.3e})")
    return theta.reshape(shape)


def invert_entropy(model: ThermoModel, rho, s_target, theta0=None, max_iter=120):
    """Solve s(rho, theta) = s_target for theta by safeguarded Newton.

    ds/dtheta = de_dtheta/theta > 0, so the map is strictly monotone.
    Vectorized over arrays; the perfect gas takes its closed form.
    """
    if isinstance(model, PerfectGas):
        return model.theta_from_entropy(rho, s_target)
    return _invert_monotone(model, "s", rho, s_target, theta0, max_iter)


def invert_internal_energy(model: ThermoModel, rho, e_target, theta0=None, max_iter=120):
    """Solve e(rho, theta) = e_target for theta (de/dtheta > 0)."""
    if isinstance(model, PerfectGas):
        return np.asarray(e_target, dtype=float) / model.c_v + 0.0 * np.asarray(rho, dtype=float)
    return _invert_monotone(model, "e", rho, e_target, theta0, max_iter)


def conservative_energy(model: ThermoModel, rho, entropy, momentum):
    """Total energy E(rho, S, m) = |m|**2/(2*rho) + rho*e(rho, theta(rho, S)).

    ``momentum`` carries its components in the trailing axis.
    """
    rho = np.asarray(rho, dtype=float)
    entropy = np.asarray(entropy, dtype=float)
    momentum = np.asarray(momentum, dtype=float)
    theta = invert_entropy(model, rho, entropy / rho)
    kinetic = 0.5 * np.sum(momentum**2, axis=-1) / rho
    return kinetic + model.rho_e(rho, theta)


def conservative_partials(model: ThermoModel, rho, entropy, momentum):
    """Gradient of E(rho, S, m): (dE/drho, dE/dS, dE/dm).

    dE/drho = -|m|**2/(2 rho**2) + e - theta*s + p/rho,  dE/dS = theta,
    dE/dm = m/rho; the thermal parts follow from the Gibbs relation.
    """
    rho = np.asarray(rho, dtype=float)
    entropy = np.asarray(entropy, dtype=float)
    momentum = np.asarray(momentum, dtype=float)
    theta = invert_entropy(model, rho, entropy / rho)
    ev = model.eval(rho, theta)
    dE_drho = -0.5 * np.sum(momentum**2, axis=-1) / rho**2 + ev.e - theta * ev.s + ev.p / rho
    dE_dS = theta
    dE_dm = momentum / rho[..., None] if momentum.ndim > rho.ndim else momentum / rho
    return dE_drho, dE_dS, dE_dm


@dataclass(frozen=True)
class StructureReport:
    """Outcome of validate_structure: overall verdict plus per-check detail."""

    ok: bool
    checks: dict
    first_violation: str | None


def _sample_log_uniform(rng, n, lo=1e-3, hi=1e3):
    return np.exp(rng.uniform(np.log(lo), np.log(hi), size=n))


def validate_structure(model: ThermoModel, n_samples: int = 10_000,
                       seed: int = 0) -> StructureReport:
    """Check thermodynamic stability and kernel hypotheses on random states.

    Samples (rho, theta) log-uniformly from [1e-3, 1e3]**2 and verifies:
    dp/drho > 0, de/dtheta > 0 (stability); midpoint convexity of the
    conservative energy; Gibbs residuals small; and for molecular kernels the
    hypotheses P(0) = 0, P' > 0, 0 < (5/3 P - P' q)/q < 10, S' < 0,
    and monotone decrease of S along increasing q.
    """
    rng = np.random.default_rng(seed)
    rho = _sample_log_uniform(rng, n_samples)
    theta = _sample_log_uniform(rng, n_samples)
    checks: dict = {}
    first = None

    d = model.partials(rho, theta)
    checks["stability_dp_drho"] = int(np.sum(~(d["dp_drho"] > 0.0)))
    checks["stability_de_dtheta"] = int(np.sum(~(d["de_dtheta"] > 0.0)))

    r_th, r_rho = gibbs_residual(model, rho, theta)
    checks["gibbs_max_residual"] = float(max(np.max(np.abs(r_th)), np.max(np.abs(r_rho))))

    # midpoint convexity of E in conservative variables
    m = n_samples // 2
    rho_a, rho_b = rho[:m], rho[m : 2 * m]
    th_a, th_b = theta[:m], theta[m : 2 * m]
    u_a = rng.uniform(-3.0, 3.0, size=(m, 1))
    u_b = rng.uniform(-3.0, 3.0, size=(m, 1))
    Sa = rho_a * model.s(rho_a, th_a)
    Sb = rho_b * model.s(rho_b, th_b)
    ma_ = rho_a[:, None] * u_a
    mb_ = rho_b[:, None] * u_b
    Ea = conservative_energy(model, rho_a, Sa, ma_)
    Eb = conservative_energy(model, rho_b, Sb, mb_)
    Em = conservative_energy(model, 0.5 * (rho_a + rho_b), 0.5 * (Sa + Sb), 0.5 * (ma_ + mb_))
    scale = 1.0 + np.abs(Ea) + np.abs(Eb)
    convex_viol = Em - 0.5 * (Ea + Eb) > 1e-9 * scale
    checks["convexity_violations"] = int(np.sum(convex_viol))

    if isinstance(model, MolecularRadiation):
        k = model.kernel
        q = np.sort(_sample_log_uniform(rng, n_samples, 1e-4, 1e4))
        p0 = float(k.p(np.asarray([1e-300]))[0])
        checks["kernel_P_at_0"] = p0
        checks["kernel_dP_nonpositive"] = int(np.sum(~(k.dp(q) > 0.0)))
        ratio = (5.0 / 3.0 * k.p(q) - k.dp(q) * q) / q
        checks["kernel_ratio_out_of_range"] = int(np.sum(~((ratio > 0.0) & (ratio < 10.0))))
        checks["kernel_dS_nonnegative"] = int(np.sum(~(k.ds(q) < 0.0)))
        sv = k.s(q)
        checks["kernel_S_not_decreasing"] = int(np.sum(~(np.diff(sv) < 0.0)))
        checks["kernel_pbar"] = k.pbar

    violations = [
        name
        for name in (
            "stability_dp_drho",
            "stability_de_dtheta",
            "convexity_violations",
            "kernel_dP_nonpositive",
            "kernel_ratio_out_of_range",
            "kernel_dS_nonnegative",
            "kernel_S_not_decreasing",
        )
        if checks.get(name, 0) != 0
    ]
    if checks["gibbs_max_residual"] > 1e-8:
        violations.append("gibbs_max_residual")
    if "kernel_P_at_0" in checks and abs(checks["kernel_P_at_0"]) > 1e-12:
        violations.append("kernel_P_at_0")
    if violations:
        first = violations[0]
    return StructureReport(ok=not violations, checks=checks, first_violation=first)


def entropy_growth_bound(model, rho, theta, c: float = 3.0):
    """Evaluate rho*|S(rho/theta**1.5)| against c*(rho + rho*|log rho| + rho*[log theta]_+).

    Returns (lhs, rhs) for the molecular entropy part; the quadratic
    radiation part is controlled by energy, not by this bound. Default c
    was fixed by a log-uniform sweep over [1e-3, 1e3]**2 for the shipped
    kernels (observed ratio peaks below 2.8).
    """
    if not isinstance(model, MolecularRadiation):
        raise TypeError("entropy growth bound applies to MolecularRadiation models")
    rho = np.asarray(rho, dtype=float)
    theta = np.asarray(theta, dtype=float)
    lhs = rho * np.abs(model.kernel.s(rho * theta ** -1.5))
    rhs = c * (rho + rho * np.abs(np.log(np.where(rho > 0, rho, 1.0))) + rho * np.maximum(np.log(theta), 0.0))
    return lhs, rhs
