"""Finite families of spatial test-function shapes for weak-form checks.

A test function is a :class:`Shape`: a label and an analytic callable ``f``
over ``pts`` of shape ``(..., d)`` (cell-center coordinates, ghost centers
included when the caller samples a padded grid).  A family's values are
scalar ``(...,)``, vector ``(..., d)`` or, for the velocity-gradient tests,
symmetric matrix ``(..., d, d)``.  The weak-form clauses in ``young`` pair
every shape with the time factors ``1`` and ``t``, the members ``label*1``
and ``label*t``, on which their trapezoidal time quadrature is exact, and
form spatial derivatives with the grid's own centred operators, so the
integrated-by-parts residuals telescope.  Families are deliberately small:
the weak identities are affine in the test function, so a handful of
independent shapes already pins down the residual scale.

A reference temperature is a :class:`SpaceTimeFn`, with analytic callables
``value`` and ``dt`` (its time derivative) over ``(t, pts)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Shape",
    "SpaceTimeFn",
    "scalar_tests",
    "entropy_tests",
    "velocity_tests",
    "flux_tests",
    "tensor_tests",
    "theta_refs",
    "theta_ref_from_strong",
]

Array = np.ndarray
SpaceFn = Callable[[Array], Array]


@dataclass(frozen=True)
class Shape:
    """A spatial test-function shape; ``zero_trace`` marks one that vanishes
    on the boundary (momentum), ``nonnegative`` one that stays >= 0
    (entropy)."""

    label: str
    f: SpaceFn
    zero_trace: bool = False
    nonnegative: bool = False


@dataclass(frozen=True)
class SpaceTimeFn:
    """A reference temperature with analytic time derivative."""

    label: str
    value: Callable[[float, Array], Array]
    dt: Callable[[float, Array], Array]


def _ones(pts: Array) -> Array:
    return np.ones(pts.shape[:-1])


def scalar_tests(dim: int) -> list[Shape]:
    """C^1 scalar tests with free boundary values (continuity identity)."""

    pi = np.pi
    if dim == 1:
        return [
            Shape("one", _ones),
            Shape("x", lambda p: p[..., 0]),
            Shape("x2", lambda p: p[..., 0] ** 2),
            Shape("sin_pix", lambda p: np.sin(pi * p[..., 0])),
            Shape("cos_pix", lambda p: np.cos(pi * p[..., 0])),
        ]
    return [
        Shape("one", _ones),
        Shape("x", lambda p: p[..., 0]),
        Shape("y", lambda p: p[..., 1]),
        Shape("xy", lambda p: p[..., 0] * p[..., 1]),
        Shape("sin_pix_cos_piy",
              lambda p: np.sin(pi * p[..., 0]) * np.cos(pi * p[..., 1])),
    ]


def entropy_tests(dim: int) -> list[Shape]:
    """Nonnegative scalar tests vanishing on the boundary (entropy identity)."""

    pi = np.pi
    if dim == 1:
        return [
            Shape("sin2_pix", lambda p: np.sin(pi * p[..., 0]) ** 2, nonnegative=True),
            Shape("bump4", lambda p: 16.0 * (p[..., 0] * (1.0 - p[..., 0])) ** 2,
                  nonnegative=True),
        ]

    def s2(v: Array) -> Array:
        return np.sin(pi * v) ** 2

    return [
        Shape("sin2_pix_sin2_piy", lambda p: s2(p[..., 0]) * s2(p[..., 1]),
              nonnegative=True),
        Shape("bump4_xy",
              lambda p: 16.0 * (p[..., 0] * (1.0 - p[..., 0])) ** 2
              * (p[..., 1] * (1.0 - p[..., 1])) ** 2 * 16.0, nonnegative=True),
    ]


def _along_x(fn: Callable[[Array], Array]) -> SpaceFn:
    """The 1D vector field whose one component is ``fn(x)``."""

    return lambda p: np.stack([fn(p[..., 0])], axis=-1)


def velocity_tests(dim: int) -> list[Shape]:
    """C^1 vector tests vanishing on the boundary (momentum identity)."""

    pi = np.pi
    if dim == 1:
        return [Shape("sin_pix", _along_x(lambda x: np.sin(pi * x)), zero_trace=True),
                Shape("sin_2pix", _along_x(lambda x: np.sin(2.0 * pi * x)), zero_trace=True),
                Shape("parab", _along_x(lambda x: 4.0 * x * (1.0 - x)), zero_trace=True)]

    def sp_(v):
        return np.sin(pi * v)

    def one_comp(j):
        def val(p):
            out = np.zeros(p.shape[:-1] + (2,))
            out[..., j] = sp_(p[..., 0]) * sp_(p[..., 1])
            return out

        return val

    def v_mix(p):
        x, y = p[..., 0], p[..., 1]
        return np.stack([np.sin(2.0 * pi * x) * sp_(y),
                         -sp_(x) * np.sin(2.0 * pi * y)], axis=-1)

    return [Shape("sinsin_ex", one_comp(0), zero_trace=True),
            Shape("sinsin_ey", one_comp(1), zero_trace=True),
            Shape("swirl", v_mix, zero_trace=True)]


def flux_tests(dim: int) -> list[Shape]:
    """C^1 vector tests with free boundary values (temperature identity)."""

    pi = np.pi
    if dim == 1:
        return [Shape("e1", _along_x(lambda x: np.ones_like(x))),
                Shape("x_e1", _along_x(lambda x: x)),
                Shape("sin_pix_e1", _along_x(lambda x: np.sin(pi * x))),
                Shape("cos_pix_e1", _along_x(lambda x: np.cos(pi * x)))]

    def const(j):
        def val(p):
            out = np.zeros(p.shape[:-1] + (2,))
            out[..., j] = 1.0
            return out

        return val

    def v_lin(p):
        return np.stack([p[..., 0], p[..., 1]], axis=-1)

    def v_trig(p):
        x, y = p[..., 0], p[..., 1]
        return np.stack([np.sin(pi * x) * np.cos(pi * y),
                         np.cos(pi * x) * np.sin(pi * y)], axis=-1)

    return [Shape("e1", const(0)), Shape("e2", const(1)), Shape("radial", v_lin),
            Shape("trig", v_trig)]


def tensor_tests(dim: int) -> list[Shape]:
    """Symmetric C^1 matrix tests (velocity-gradient compatibility)."""

    pi = np.pi
    if dim == 1:
        def mk(fn):
            return lambda p: fn(p[..., 0])[..., None, None]

        return [
            Shape("id", mk(np.ones_like)),
            Shape("x", mk(lambda x: x)),
            Shape("sin_pix", mk(lambda x: np.sin(pi * x))),
            Shape("cos_2pix", mk(lambda x: np.cos(2.0 * pi * x))),
        ]

    def t_id(p):
        out = np.zeros(p.shape[:-1] + (2, 2))
        out[..., 0, 0] = 1.0
        out[..., 1, 1] = 1.0
        return out

    def t_diag(p):
        out = np.zeros(p.shape[:-1] + (2, 2))
        out[..., 0, 0] = p[..., 0]
        out[..., 1, 1] = p[..., 1]
        return out

    def t_off(p):
        s = p[..., 0] + p[..., 1]
        out = np.zeros(p.shape[:-1] + (2, 2))
        out[..., 0, 1] = s
        out[..., 1, 0] = s
        return out

    def t_trig(p):
        x, y = p[..., 0], p[..., 1]
        out = np.empty(p.shape[:-1] + (2, 2))
        out[..., 0, 0] = np.sin(pi * x) * np.cos(pi * y)
        out[..., 1, 1] = np.cos(pi * x) * np.sin(pi * y)
        off = np.cos(pi * x) * np.cos(pi * y)
        out[..., 0, 1] = off
        out[..., 1, 0] = off
        return out

    return [Shape("id", t_id), Shape("diag_xy", t_diag), Shape("offdiag", t_off),
            Shape("trig", t_trig)]


def _bump(dim: int) -> SpaceFn:
    pi = np.pi
    if dim == 1:
        return lambda p: np.sin(pi * p[..., 0])
    return lambda p: np.sin(pi * p[..., 0]) * np.sin(pi * p[..., 1])


def theta_refs(dim: int, base: tuple[float, float, float] = (1.0, 0.0, 0.0),
               amps: Sequence[float] = (0.0, 0.15, -0.1)) -> list[SpaceTimeFn]:
    """Steady positive references sharing the affine boundary trace ``base``.

    Each member is ``base(x) + a * bump(x)`` where the bump vanishes on the
    boundary, so every member carries the same trace as the boundary data it
    is meant to accompany.  Positivity is checked on a sample lattice over
    ``[0, 1]^dim`` at construction.
    """

    c0, cx, cy = base
    bump = _bump(dim)

    def base_val(p):
        out = c0 + cx * p[..., 0]
        if dim == 2:
            out = out + cy * p[..., 1]
        return out * np.ones(p.shape[:-1])

    axes = [np.linspace(0.0, 1.0, 33)] * dim
    lattice = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)

    refs: list[SpaceTimeFn] = []
    for a in amps:
        def val(t, pts, a=a):
            return base_val(pts) + a * bump(pts)

        if np.min(val(0.0, lattice)) <= 0.0:
            raise ValueError(
                "reference temperature must stay positive on the domain")
        refs.append(SpaceTimeFn(label=f"affine+{a}*bump", value=val,
                                dt=lambda t, pts: np.zeros(pts.shape[:-1])))
    return refs


def theta_ref_from_strong(sol) -> SpaceTimeFn:
    """Wrap a smooth solution's temperature as a reference profile."""

    return SpaceTimeFn(label=f"strong_{sol.profile}", value=sol.theta,
                    dt=sol.dtheta_dt)
