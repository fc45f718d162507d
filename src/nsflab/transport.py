"""Transport coefficients, viscous stress, heat flux, entropy production.

The stress tensor uses the symmetric-gradient split

    S = mu(rho, theta) * D0(grad u) + lam(rho, theta) * tr(grad u) * I,

where D(A) = (A + A^T)/2 and D0(A) = D(A) - (tr A / d) * I, and the heat flux
is Fourier's law q = -kappa(rho, theta) * grad theta. Coefficient laws depend
on theta only; rho is accepted for interface uniformity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "TransportModel",
    "AffineTheta",
    "PowerKappa",
    "BoundedGeneral",
    "sym_part",
    "traceless_sym",
    "viscous_stress",
    "viscous_stress_column",
    "entropy_production_density",
]


def sym_part(a: np.ndarray) -> np.ndarray:
    """D(A) = (A + A^T)/2 on the trailing two axes."""
    return 0.5 * (a + a.swapaxes(-1, -2))


def traceless_sym(a: np.ndarray, trace=None) -> np.ndarray:
    """D0(A) = D(A) - (tr A / d) I on the trailing two axes; ``trace`` is
    tr A as ``np.einsum("...ii->...", a)`` gives it, where the caller has it."""
    d = a.shape[-1]
    sym = sym_part(a)
    mean = (np.einsum("...ii->...", a) if trace is None else trace) / d
    for k in range(d):
        sym[..., k, k] -= mean
    return sym


class TransportModel:
    """Base class: positive, continuously differentiable coefficient laws."""

    def mu(self, rho, theta):
        raise NotImplementedError

    def lam(self, rho, theta):
        raise NotImplementedError

    def kappa(self, rho, theta):
        raise NotImplementedError

    # theta-derivatives of the three laws (the manufactured forcings need them)
    def dmu_dtheta(self, rho, theta):
        raise NotImplementedError

    def dlam_dtheta(self, rho, theta):
        raise NotImplementedError

    def dkappa_dtheta(self, rho, theta):
        raise NotImplementedError


@dataclass(frozen=True)
class AffineTheta(TransportModel):
    """mu = c_mu*(1+theta), lam = c_lambda*(1+theta), kappa = kappa0*(1+theta)."""

    c_mu: float = 0.05
    c_lambda: float = 0.05
    kappa0: float = 0.05

    def __post_init__(self):
        # each message starts with the field at fault
        for name in ("c_mu", "kappa0"):
            if not (getattr(self, name) > 0.0):
                raise ValueError(f"{name}: must be > 0")
        if not (self.c_lambda >= 0.0):
            raise ValueError("c_lambda: must be >= 0")

    def mu(self, rho, theta):
        return self.c_mu * (1.0 + np.asarray(theta, dtype=float))

    def lam(self, rho, theta):
        return self.c_lambda * (1.0 + np.asarray(theta, dtype=float))

    def kappa(self, rho, theta):
        return self.kappa0 * (1.0 + np.asarray(theta, dtype=float))

    def dmu_dtheta(self, rho, theta):
        return self.c_mu + np.zeros(np.asarray(theta).shape)

    def dlam_dtheta(self, rho, theta):
        return self.c_lambda + np.zeros(np.asarray(theta).shape)

    def dkappa_dtheta(self, rho, theta):
        return self.kappa0 + np.zeros(np.asarray(theta).shape)


@dataclass(frozen=True)
class PowerKappa(TransportModel):
    """mu = mu0 + mu1*theta, lam = lambda0 + lambda1*theta, kappa = kappa1 + kappa2*theta**beta."""

    mu0: float = 0.05
    mu1: float = 0.05
    lambda0: float = 0.05
    lambda1: float = 0.05
    kappa1: float = 0.05
    kappa2: float = 0.05
    beta: float = 2.0

    def __post_init__(self):
        # each message starts with the field at fault
        for name in ("mu0", "kappa1"):
            if not (getattr(self, name) > 0.0):
                raise ValueError(f"{name}: must be > 0")
        for name in ("mu1", "lambda0", "lambda1", "kappa2"):
            if not (getattr(self, name) >= 0.0):
                raise ValueError(f"{name}: must be >= 0")

    def mu(self, rho, theta):
        return self.mu0 + self.mu1 * np.asarray(theta, dtype=float)

    def lam(self, rho, theta):
        return self.lambda0 + self.lambda1 * np.asarray(theta, dtype=float)

    def kappa(self, rho, theta):
        return self.kappa1 + self.kappa2 * np.asarray(theta, dtype=float) ** self.beta

    def dmu_dtheta(self, rho, theta):
        return self.mu1 + np.zeros(np.asarray(theta).shape)

    def dlam_dtheta(self, rho, theta):
        return self.lambda1 + np.zeros(np.asarray(theta).shape)

    def dkappa_dtheta(self, rho, theta):
        return self.kappa2 * self.beta * np.asarray(theta, dtype=float) ** (self.beta - 1.0)


@dataclass(frozen=True)
class BoundedGeneral(TransportModel):
    """Envelope-only transport class used by validators, never by the solver.

    Stands for a law known only through two-sided bounds such as
    mu_lo*(1+theta) <= mu <= mu_hi*(1+theta) and kappa_lo*(1+theta**beta) <=
    kappa <= kappa_hi*(1+theta**beta). The hypothesis gate rejects a study
    that selects it, since a flow needs a concrete coefficient law; asking
    it for a coefficient raises ``TypeError``.
    """

    def _reject(self, rho, theta):
        raise TypeError("BoundedGeneral is an envelope validator; it has no coefficient law")

    mu = lam = kappa = dmu_dtheta = dlam_dtheta = dkappa_dtheta = _reject


def viscous_stress(model: TransportModel, rho, theta, grad_u: np.ndarray,
                   trace=None) -> np.ndarray:
    """S = mu*D0(grad u) + lam*tr(grad u)*I, on the trailing two axes of grad_u
    (``trace`` as ``traceless_sym`` reads it)."""
    mu = np.asarray(model.mu(rho, theta), dtype=float)
    lam = np.asarray(model.lam(rho, theta), dtype=float)
    if trace is None:
        trace = np.einsum("...ii->...", grad_u)
    stress = mu[..., None, None] * traceless_sym(grad_u, trace)
    bulk = lam * trace
    for k in range(grad_u.shape[-1]):
        stress[..., k, k] += bulk
    return stress


def viscous_stress_column(model: TransportModel, rho, theta, normal: np.ndarray,
                          tangential, axis: int) -> np.ndarray:
    """Column ``axis`` of ``viscous_stress``, from two columns of grad u.

    Components lead: ``normal[j]`` = d u_j/d x_axis, and for the one other
    axis b of a 2D field ``tangential[j]`` = d u_j/d x_b (None in 1D).  Each
    entry is computed in ``viscous_stress``'s operation order, with the
    trace summed from 0 as einsum sums it, so the bits are the same.
    """
    d = normal.shape[0]
    mu = np.asarray(model.mu(rho, theta), dtype=float)
    lam = np.asarray(model.lam(rho, theta), dtype=float)
    tr = 0.0
    for k in range(d):
        tr = tr + (normal[k] if k == axis else tangential[k])
    col = np.empty(normal.shape)
    for j in range(d):
        if j == axis:
            col[j] = mu * (0.5 * (normal[j] + normal[j]) - tr / d) + lam * tr
        else:
            col[j] = mu * (0.5 * (normal[j] + tangential[axis]))
    return col


def entropy_production_density(model: TransportModel, rho, theta, d_u: np.ndarray, d_theta: np.ndarray):
    """sigma = (1/theta) * (S(d_u):d_u + kappa*|d_theta|**2/theta) >= 0.

    ``d_u`` is the symmetric velocity-gradient surrogate, ``d_theta`` the
    temperature-gradient surrogate.
    """
    theta = np.asarray(theta, dtype=float)
    stress = viscous_stress(model, rho, theta, d_u)
    work = np.einsum("...ij,...ij->...", stress, d_u)
    kap = np.asarray(model.kappa(rho, theta), dtype=float)
    cond = kap * np.sum(np.asarray(d_theta, dtype=float) ** 2, axis=-1) / theta
    return (work + cond) / theta

