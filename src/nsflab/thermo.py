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

A model has one evaluation, ``partials(rho, theta, keys)``: the named
entries of one state among the laws ``p``, ``e``, ``s``, the vacuum-safe
densities ``rho_e`` and ``rho_s``, the six ``PARTIALS`` and, for
``MolecularRadiation`` only, the molecular entropy ``s_mol`` = S(q). The
entries of a call share q, the powers of theta and the kernel values P, P', S and S', and
each keeps its bits whatever else is asked, so a caller asks once for all it
reads of one state; ``p``, ``e``, ``s``, ``rho_e`` and ``rho_s`` are one-key
reads.

All state functions are vectorized over numpy arrays.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "PressureKernel",
    "IDEAL_KERNEL",
    "DEGENERATE_KERNEL",
    "KERNELS",
    "kernel_by_name",
    "ThermoModel",
    "PerfectGas",
    "MolecularRadiation",
    "gibbs_residual",
    "ballistic_energy",
    "conservative_energy",
    "conservative_partials",
    "invert_entropy",
    "invert_internal_energy",
    "validate_structure",
    "StructureReport",
    "entropy_growth_bound",
    "PARTIALS",
]

_SQRT3 = math.sqrt(3.0)

PARTIALS = ("dp_drho", "dp_dtheta", "de_drho", "de_dtheta", "ds_drho", "ds_dtheta")
"""The derivative keys of ``ThermoModel.partials``: d(p, e, s)/d(rho, theta)."""
_LAWS = frozenset(("p", "e", "s", "rho_e", "rho_s"))
_VACUUM_SAFE = frozenset(("rho_e", "rho_s"))
# the entries of MolecularRadiation.partials that read P(q), P'(q), S'(q),
# theta**2.5 (with a*theta**2) and 2.5*theta**1.5*P
_READS_P = frozenset(("p", "e", "dp_dtheta", "de_drho", "de_dtheta"))
_READS_DP = frozenset(("dp_drho", "dp_dtheta", "de_drho", "de_dtheta"))
_READS_DS = frozenset(("ds_drho", "ds_dtheta"))
_READS_THETA_25 = frozenset(("p", "e", "rho_e", "de_drho"))
_READS_MOL = frozenset(("dp_dtheta", "de_dtheta"))


@dataclass(frozen=True)
class PressureKernel:
    """Molecular pressure kernel P with its Gibbs-compatible entropy kernel S.

    ``p`` and ``dp`` evaluate P and P'; ``s`` and ``ds`` evaluate S and S';
    each takes a float array.
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
    p=lambda q: q * (1.0 + q) ** (2.0 / 3.0),
    dp=lambda q: (1.0 + 5.0 / 3.0 * q) * (1.0 + q) ** (-1.0 / 3.0),
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

KERNELS = {k.name: k for k in (IDEAL_KERNEL, DEGENERATE_KERNEL)}
"""The shipped pressure kernels by name."""


def kernel_by_name(name: str) -> PressureKernel:
    try:
        return KERNELS[name]
    except KeyError:
        raise ValueError(f"unknown pressure kernel {name!r}; known: {sorted(KERNELS)}") from None


class ThermoModel:
    """Base class for equations of state. A subclass writes each entry of
    ``partials`` once; the laws are one-key reads of it."""

    def partials(self, rho, theta, keys=PARTIALS):
        """The entries named in ``keys`` at (rho, theta), as a dict in that
        order: a law ``p``, ``e``, ``s``, a vacuum-safe density (``rho_e`` =
        rho*e continued by 0 at rho = 0, ``rho_s`` = rho*s continued by its
        limit there), one of the six ``PARTIALS``, or a key of the model's
        own (``MolecularRadiation``'s ``s_mol``). Each entry is computed
        the same way whatever else is asked, so its bits do not depend on
        ``keys``."""
        raise NotImplementedError

    # one-key reads of partials
    def p(self, rho, theta): return self.partials(rho, theta, ("p",))["p"]
    def e(self, rho, theta): return self.partials(rho, theta, ("e",))["e"]
    def s(self, rho, theta): return self.partials(rho, theta, ("s",))["s"]
    def rho_e(self, rho, theta): return self.partials(rho, theta, ("rho_e",))["rho_e"]
    def rho_s(self, rho, theta): return self.partials(rho, theta, ("rho_s",))["rho_s"]

    def sound_speed_sq(self, rho, theta, partials):
        """Isentropic sound speed squared: dp/drho + theta*(dp/dtheta)^2/(rho^2 de/dtheta),
        from ``partials``, this model's ``partials`` at (rho, theta) with at
        least those three entries."""
        d = partials
        return d["dp_drho"] + theta * d["dp_dtheta"] ** 2 / (rho**2 * d["de_dtheta"])


@dataclass(frozen=True)
class PerfectGas(ThermoModel):
    """Perfect gas p = rho*theta, e = c_v*theta, s = log(theta**c_v / rho)."""

    c_v: float = 1.5

    def __post_init__(self):
        # c_v <= 1 breaks the entropy coercivity this law is used with.
        if not (self.c_v > 1.0):
            raise ValueError(
                f"c_v: perfect gas requires c_v > 1 (the entropy bound |s| <= s_bar "
                f"only controls theta**c_v by rho*theta when c_v exceeds 1); got c_v = {self.c_v}"
            )

    def partials(self, rho, theta, keys=PARTIALS):
        rho = np.asarray(rho, dtype=float)
        theta = np.asarray(theta, dtype=float)
        c_v, shape = self.c_v, np.broadcast(rho, theta).shape
        # each partial and a narrower e are broadcast by ones (x * 1.0 is x)
        one = np.ones(shape) if set(keys) - _LAWS else None
        safe = np.where(rho > 0.0, rho, 1.0) if "rho_s" in keys else None
        out = {}
        for key in keys:
            match key:
                case "p": out[key] = rho * theta
                case "e": out[key] = (c_v * theta if theta.shape == shape
                                      else c_v * theta * np.ones(shape))
                case "s": out[key] = c_v * np.log(theta) - np.log(rho)
                case "rho_e": out[key] = c_v * rho * theta
                case "rho_s": out[key] = np.where(
                    rho > 0.0, safe * (c_v * np.log(theta) - np.log(safe)), 0.0)
                case "dp_drho": out[key] = theta * one
                case "dp_dtheta": out[key] = rho * one
                case "de_drho": out[key] = 0.0 * one
                case "de_dtheta": out[key] = c_v * one
                case "ds_drho": out[key] = -1.0 / rho * one
                case "ds_dtheta": out[key] = c_v / theta * one
                case _: raise KeyError(key)
        return out


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

    def __post_init__(self):
        if not (self.a > 0.0):
            raise ValueError(f"a: radiation constant a must be > 0, got {self.a}")
        if self.radiation_exponent != 2:
            raise ValueError(
                "radiation_exponent: radiation pressure must be quadratic (p_R = a*theta**2): "
                "the entropy flux rho*s_R*|u| of a theta**%d law cannot be absorbed by the "
                "dissipation and ballistic terms, so the uniqueness estimate does not close"
                % self.radiation_exponent
            )

    def partials(self, rho, theta, keys=PARTIALS):
        rho = np.asarray(rho, dtype=float)
        theta = np.asarray(theta, dtype=float)
        a, kernel, asked = self.a, self.kernel, set(keys)
        theta_m15 = theta ** (-1.5)
        q = rho * theta_m15
        # rho_e and rho_s read the kernel at rho = 1 where rho is not > 0 and
        # take their molecular part as 0 there; with every rho > 0 they share
        # the kernel values of the other entries
        safe = rho
        if asked & _VACUUM_SAFE:
            positive = rho > 0.0
            if not positive.all():
                safe = np.where(positive, rho, 1.0)
        shared = safe is rho
        # each kernel value and power of theta only for an entry that reads
        # it, associated as in that entry's own formula
        P = kernel.p(q) if asked & _READS_P or shared and "rho_e" in asked else None
        S = (kernel.s(q) if "s" in asked or "s_mol" in asked or shared and "rho_s" in asked
             else None)
        P_safe = P if shared or "rho_e" not in asked else kernel.p(safe * theta_m15)
        S_safe = S if shared or "rho_s" not in asked else kernel.s(safe * theta_m15)
        dP = kernel.dp(q) if asked & _READS_DP else None
        dS = kernel.ds(q) if asked & _READS_DS else None
        if asked & _READS_THETA_25:
            theta_25, rad_e = theta**2.5, a * theta**2
        if asked & _READS_MOL:
            mol = 2.5 * theta**1.5 * P
        rad = 2.0 * a * theta
        out = {}
        for key in keys:
            match key:
                case "p": out[key] = theta_25 * P + rad_e
                case "e": out[key] = 1.5 * theta_25 / rho * P + rad_e / rho
                case "s": out[key] = S + rad / rho
                case "s_mol": out[key] = S
                case "rho_e":
                    mol_e = 1.5 * theta_25 * P_safe
                    out[key] = (mol_e if shared else np.where(positive, mol_e, 0.0)) + rad_e
                case "rho_s":
                    mol_s = safe * S_safe
                    out[key] = (mol_s if shared else np.where(positive, mol_s, 0.0)) + rad
                case "dp_drho": out[key] = theta * dP
                case "dp_dtheta": out[key] = mol - 1.5 * rho * dP + rad
                case "de_drho": out[key] = (1.5 * (theta * dP / rho - theta_25 * P / rho**2)
                                            - rad_e / rho**2)
                case "de_dtheta": out[key] = 1.5 * (mol / rho - 1.5 * dP) + rad / rho
                case "ds_drho": out[key] = dS * theta_m15 - rad / rho**2
                case "ds_dtheta": out[key] = -1.5 * rho * theta ** (-2.5) * dS + 2.0 * a / rho
                case _: raise KeyError(key)
        return out


def _positive(rho, theta) -> tuple[np.ndarray, np.ndarray]:
    """``rho`` and ``theta`` as float arrays, both required to be > 0."""
    rho = np.asarray(rho, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if np.any(rho <= 0.0) or np.any(theta <= 0.0):
        raise ValueError("the state laws need rho > 0 and theta > 0")
    return rho, theta


_GIBBS_KEYS = ("p", "e", "s") + PARTIALS[2:]


def gibbs_residual(model: ThermoModel, rho, theta):
    """Normalized residuals of the Gibbs relation theta*Ds = De + p*D(1/rho).

    Returns (r_theta, r_rho) with

        r_theta = (theta*ds_dtheta - de_dtheta) / scale,
        r_rho   = (theta*ds_drho - de_drho + p/rho**2) / scale,

    where scale = 1 + |e| + |theta*s| keeps the residual meaningful across
    magnitudes. Raises ``ValueError`` unless rho > 0 and theta > 0.
    """
    rho, theta = _positive(rho, theta)
    return _gibbs(model.partials(rho, theta, _GIBBS_KEYS), rho, theta)


def _gibbs(d: dict, rho, theta):
    """``gibbs_residual`` from ``d``, a ``partials`` dict with ``_GIBBS_KEYS``."""
    scale = 1.0 + np.abs(d["e"]) + np.abs(theta * d["s"])
    r_theta = (theta * d["ds_dtheta"] - d["de_dtheta"]) / scale
    r_rho = (theta * d["ds_drho"] - d["de_drho"] + d["p"] / rho**2) / scale
    return r_theta, r_rho


def ballistic_energy(model: ThermoModel, rho, theta, theta_ref):
    """Ballistic energy density rho*(e - theta_ref*s), vacuum-safe."""
    theta_ref = np.asarray(theta_ref, dtype=float)
    d = model.partials(rho, theta, ("rho_e", "rho_s"))
    return d["rho_e"] - theta_ref * d["rho_s"]


_INVERTED = {"s": "entropy", "e": "internal-energy"}
# a residual within a few ulps of the target is at the law's round-off
_ROUNDOFF = 4.0 * np.finfo(float).eps
# the temperature range searched and the relative step that ends a cell
_BRACKET = (1e-12, 1e12)
_RTOL = 1e-13


def _flat(x, shape: tuple) -> np.ndarray:
    """``x`` as a flat float array of the broadcast ``shape``."""
    x = np.asarray(x, dtype=float)
    return (x if x.shape == shape else np.broadcast_to(x, shape)).ravel()


def _invert_monotone(model: ThermoModel, law: str, rho, target, theta0, max_iter):
    """Solve ``model.<law>(rho, theta) = target`` for theta, cell by cell.

    The law increases strictly in theta, so each cell keeps a sign-change
    bracket inside ``_BRACKET``; a Newton step that leaves it falls back to
    bisection (rtsafe, Numerical Recipes 9.4). A cell is done when its raw
    Newton step is at most _RTOL*theta, when its residual is at round-off (an
    ill-conditioned cell gets no closer), or when its bracket has collapsed
    to _RTOL*theta. Each iteration makes one ``model.partials`` call on all
    cells, for the law and its ``d<law>_dtheta`` entry; a ``live`` mask marks
    the cells still iterating, and a cell that is done keeps its theta. A
    non-finite rho or target is a ``ValueError`` naming its cell.
    """
    shape = np.broadcast(rho, target).shape
    rho, target = _flat(rho, shape), _flat(target, shape)
    finite = np.isfinite(rho) & np.isfinite(target)
    if not np.logical_and.reduce(finite):
        k = int(np.argmin(finite))
        cell = tuple(int(i) for i in np.unravel_index(k, shape))
        raise ValueError(f"{_INVERTED[law]} inversion needs a finite rho and target at cell "
                         f"{cell}: rho = {rho[k]!r}, target {law} = {target[k]!r}")
    theta = np.minimum(np.maximum(_flat(1.0 if theta0 is None else theta0, shape),
                                  _BRACKET[0]), _BRACKET[1])
    slope = f"d{law}_dtheta"
    keys = (law, slope)
    live = np.ones(rho.size, dtype=bool)
    lo = np.full(rho.size, _BRACKET[0])
    hi = np.full(rho.size, _BRACKET[1])
    f_tol = 1e-9 * (1.0 + np.abs(target))
    roundoff = _ROUNDOFF * np.abs(target)
    for _ in range(max_iter):
        if not live.any():
            break
        v = model.partials(rho, theta, keys)
        f, d = v[law] - target, v[slope]
        abs_f = np.abs(f)
        np.maximum(lo, theta, out=lo, where=f < 0.0)
        np.minimum(hi, theta, out=hi, where=f > 0.0)
        step = np.divide(f, d, out=np.full(f.shape, np.nan), where=d > 0.0)
        # a raw step within _RTOL is taken and ends the cell (the residual
        # test guards against a step shrunk by a huge slope); a residual at
        # round-off or a collapsed bracket ends it where it stands
        th_tol = _RTOL * theta
        newton = (np.abs(step) <= th_tol) & (abs_f <= f_tol)
        settled = (abs_f <= roundoff) | (hi - lo <= th_tol)
        cand = theta - step
        cand = np.where(newton | ((cand > lo) & (cand < hi)), cand, 0.5 * (lo + hi))
        theta = np.where(live & (newton | ~settled), cand, theta)
        live &= ~(newton | settled)
    if live.any():
        res = np.abs(getattr(model, law)(rho, theta) - target) / (1.0 + np.abs(target))
        k = int(np.argmax(np.where(live, res, -np.inf)))
        if not res[k] <= 1e3 * _RTOL:
            cell = tuple(int(i) for i in np.unravel_index(k, shape))
            raise RuntimeError(
                f"{_INVERTED[law]} inversion failed to converge in {max_iter} iterations "
                f"at cell {cell}: rho = {rho[k]:.17g}, target {law} = {target[k]:.17g}, "
                f"last theta = {theta[k]:.17g} (relative residual {res[k]:.3e})")
    return theta.reshape(shape)


def invert_entropy(model: ThermoModel, rho, s_target, theta0=None, max_iter=120):
    """Solve s(rho, theta) = s_target for theta by safeguarded Newton.

    ds/dtheta = de_dtheta/theta > 0, so the map is strictly monotone.
    Vectorized over arrays; the perfect gas takes its closed form.
    """
    if isinstance(model, PerfectGas):
        return np.exp((np.asarray(s_target, dtype=float) + np.log(np.asarray(rho, dtype=float)))
                      / model.c_v)
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
    rho, entropy, momentum = (np.asarray(x, dtype=float) for x in (rho, entropy, momentum))
    theta = invert_entropy(model, rho, entropy / rho)
    kinetic = 0.5 * np.sum(momentum**2, axis=-1) / rho
    return kinetic + model.rho_e(rho, theta)


def conservative_partials(model: ThermoModel, rho, entropy, momentum):
    """Gradient of E(rho, S, m): (dE/drho, dE/dS, dE/dm).

    dE/drho = -|m|**2/(2 rho**2) + e - theta*s + p/rho,  dE/dS = theta,
    dE/dm = m/rho; the thermal parts follow from the Gibbs relation. Raises
    ``ValueError`` unless rho and the temperature it inverts to are > 0.
    """
    rho, entropy, momentum = (np.asarray(x, dtype=float) for x in (rho, entropy, momentum))
    theta = invert_entropy(model, rho, entropy / rho)
    rho, theta = _positive(rho, theta)
    d = model.partials(rho, theta, ("p", "e", "s"))
    dE_drho = (-0.5 * np.sum(momentum**2, axis=-1) / rho**2 + d["e"] - theta * d["s"]
               + d["p"] / rho)
    dE_dS = theta
    dE_dm = momentum / rho[..., None] if momentum.ndim > rho.ndim else momentum / rho
    return dE_drho, dE_dS, dE_dm


@dataclass(frozen=True)
class StructureReport:
    """Outcome of validate_structure: overall verdict plus per-check detail."""

    ok: bool
    checks: dict
    first_violation: str | None


def _uniform(rng: random.Random, lo: float, hi: float, n: int) -> np.ndarray:
    return lo + (hi - lo) * np.array([rng.random() for _ in range(n)])


def _sample_log_uniform(rng, n, lo=1e-3, hi=1e3):
    return np.exp(_uniform(rng, math.log(lo), math.log(hi), n))


def validate_structure(model: ThermoModel, n_samples: int = 10_000,
                       seed: int = 0) -> StructureReport:
    """Check thermodynamic stability and kernel hypotheses on random states.

    Samples (rho, theta) log-uniformly from [1e-3, 1e3]**2 and verifies:
    dp/drho > 0, de/dtheta > 0 (stability); midpoint convexity of the
    conservative energy; Gibbs residuals small; and for molecular kernels the
    hypotheses P(0) = 0, P' > 0, 0 < (5/3 P - P' q)/q < 10, S' < 0,
    and monotone decrease of S along increasing q. ``random.Random(seed)``
    draws rho, theta, the two velocity halves, then q, in that order.
    """
    rng = random.Random(seed)
    rho = _sample_log_uniform(rng, n_samples)
    theta = _sample_log_uniform(rng, n_samples)
    checks: dict = {}

    # the stability signs, the Gibbs residuals and the convexity pairs'
    # entropies read one evaluation
    d = model.partials(rho, theta, ("dp_drho",) + _GIBBS_KEYS)
    checks["stability_dp_drho"] = int(np.sum(~(d["dp_drho"] > 0.0)))
    checks["stability_de_dtheta"] = int(np.sum(~(d["de_dtheta"] > 0.0)))

    r_th, r_rho = _gibbs(d, rho, theta)
    checks["gibbs_max_residual"] = float(max(np.max(np.abs(r_th)), np.max(np.abs(r_rho))))

    # midpoint convexity of E in conservative variables
    m = n_samples // 2
    rho_a, rho_b = rho[:m], rho[m : 2 * m]
    u_a = _uniform(rng, -3.0, 3.0, m)[:, None]
    u_b = _uniform(rng, -3.0, 3.0, m)[:, None]
    Sa = rho_a * d["s"][:m]
    Sb = rho_b * d["s"][m : 2 * m]
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
        checks["kernel_P_at_0"] = float(k.p(np.asarray([1e-300]))[0])
        checks["kernel_dP_nonpositive"] = int(np.sum(~(k.dp(q) > 0.0)))
        ratio = (5.0 / 3.0 * k.p(q) - k.dp(q) * q) / q
        checks["kernel_ratio_out_of_range"] = int(np.sum(~((ratio > 0.0) & (ratio < 10.0))))
        checks["kernel_dS_nonnegative"] = int(np.sum(~(k.ds(q) < 0.0)))
        checks["kernel_S_not_decreasing"] = int(np.sum(~(np.diff(k.s(q)) < 0.0)))
        checks["kernel_pbar"] = k.pbar

    # the counts that must be 0, then the two tolerances, in reporting order
    violations = [name for name in ("stability_dp_drho", "stability_de_dtheta",
                                    "convexity_violations", "kernel_dP_nonpositive",
                                    "kernel_ratio_out_of_range", "kernel_dS_nonnegative",
                                    "kernel_S_not_decreasing") if checks.get(name, 0) != 0]
    if checks["gibbs_max_residual"] > 1e-8:
        violations.append("gibbs_max_residual")
    if abs(checks.get("kernel_P_at_0", 0.0)) > 1e-12:
        violations.append("kernel_P_at_0")
    return StructureReport(ok=not violations, checks=checks,
                           first_violation=violations[0] if violations else None)


def entropy_growth_bound(model, rho, theta, c: float = 3.0):
    """The bound c*(rho + rho*|log rho| + rho*[log theta]_+) on the molecular
    entropy density rho*S(rho/theta**1.5), which is rho times the model's
    ``partials`` entry ``s_mol``.

    The bound holds where |rho*S| <= it. The quadratic radiation part is
    controlled by energy, not by this bound. Default c was
    fixed by a log-uniform sweep over [1e-3, 1e3]**2 for the shipped kernels
    (observed ratio peaks below 2.8).
    """
    if not isinstance(model, MolecularRadiation):
        raise TypeError("entropy growth bound applies to MolecularRadiation models")
    rho = np.asarray(rho, dtype=float)
    theta = np.asarray(theta, dtype=float)
    return c * (rho + rho * np.abs(np.log(np.where(rho > 0, rho, 1.0)))
                + rho * np.maximum(np.log(theta), 0.0))
