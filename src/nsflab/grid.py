"""Structured cell-centered grids, ghost-padded fields, and discrete calculus.

Grids are uniform and collocated in 1 or 2 space dimensions with one ghost
layer per side. Derivatives are second-order centered; integrals use the
midpoint rule. Ghost fill encodes the physical boundary conditions:

  * velocity components reflect through 0 at the wall (odd extension),
  * temperature is Dirichlet-filled from the boundary trace theta_B > 0,
  * density is zero-gradient.

Fields carry a ``synced`` flag; the differential operators take synced
fields only and return plain interior arrays. There are two, each one
kernel for every rank: ``gradient`` appends the derivative axis to a
scalar, vector or tensor field, and ``divergence`` contracts it with the
last component axis of a vector or tensor field. ``grad_vector`` and
``tensor_divergence`` are the same functions under their rank-specific
names, kept only because the benchmark tracer looks all four names up; no
other module of the package names them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

import numpy as np

__all__ = [
    "Grid",
    "BoundaryData",
    "constant_boundary",
    "affine_boundary",
    "boundary_face_points",
    "ScalarField",
    "VectorField",
    "TensorField",
    "StalenessError",
    "sync_physical",
    "sync_odd",
    "sync_dirichlet",
    "gradient",
    "grad_vector",
    "divergence",
    "tensor_divergence",
    "integrate",
    "harmonic_extension",
    "laplacian_residual",
]


class StalenessError(RuntimeError):
    """Raised when a differential operator meets unsynced ghost cells."""


@dataclass(frozen=True)
class Grid:
    """Uniform cell-centered grid on the unit box [0, 1]^dim, dim in {1, 2},
    >= 4 cells per axis: every profile, test family and boundary trace of
    the package is built for that box."""

    cells: tuple[int, ...]

    def __post_init__(self):
        cells = tuple(int(c) for c in np.atleast_1d(self.cells))
        object.__setattr__(self, "cells", cells)
        if len(cells) not in (1, 2):
            raise ValueError(f"cells: grid dimension must be 1 or 2, got {len(cells)}")
        if any(c < 4 for c in cells):
            raise ValueError(f"cells: need at least 4 interior cells per axis, got {cells}")

    @functools.cached_property
    def dim(self) -> int:
        return len(self.cells)

    @functools.cached_property
    def h(self) -> tuple[float, ...]:
        return tuple(1.0 / c for c in self.cells)

    @functools.cached_property
    def cell_volume(self) -> float:
        return float(np.prod(self.h))

    def centers(self, axis: int, ghost: bool = False) -> np.ndarray:
        h = self.h[axis]
        n = self.cells[axis]
        first = 0.5 * h
        xs = first + h * np.arange(n)
        if ghost:
            xs = np.concatenate(([first - h], xs, [xs[-1] + h]))
        return xs

    def mesh(self, ghost: bool = False) -> tuple[np.ndarray, ...]:
        """Coordinate arrays of cell centers, broadcastable to the field shape."""
        axes = [self.centers(k, ghost) for k in range(self.dim)]
        return tuple(np.meshgrid(*axes, indexing="ij"))

    def padded_shape(self, trailing: tuple[int, ...] = ()) -> tuple[int, ...]:
        return self._padded_cells + trailing

    @functools.cached_property
    def _padded_cells(self) -> tuple[int, ...]:
        return tuple(c + 2 for c in self.cells)

    def interior_shape(self, trailing: tuple[int, ...] = ()) -> tuple[int, ...]:
        return self.cells + trailing


@dataclass(frozen=True)
class BoundaryData:
    """Dirichlet temperature trace theta_B(t, x) > 0 on all of the boundary.

    ``theta`` maps (t, pts) -> values, where pts has shape (..., dim).
    Velocity is homogeneous Dirichlet (u = 0) throughout and carries no data
    here. The wall clauses of ``young`` take it as a required argument; the
    ballistic clause reads the time derivative of its reference temperature
    from that reference's ``testfuns.SpaceTimeFn.dt``, not from the trace.
    """

    theta: Callable[[float, np.ndarray], np.ndarray]

    def validate_positive(self, grid: Grid, times: Sequence[float] = (0.0,)) -> None:
        for t in times:
            for side, pts in boundary_face_points(grid).items():
                vals = np.asarray(self.theta(t, pts), dtype=float)
                if not np.all(vals > 0.0):
                    raise ValueError(f"theta_B must be > 0; violated on side {side} at t = {t}")


def constant_boundary(value: float) -> BoundaryData:
    if not (value > 0.0):
        raise ValueError("boundary temperature must be > 0")

    def theta(t, pts):
        out = np.empty(np.asarray(pts, dtype=float).shape[:-1])
        out[...] = value
        return out

    return BoundaryData(theta=theta)


def affine_boundary(c0: float, cx: float, cy: float = 0.0) -> BoundaryData:
    """theta_B = c0 + cx*x + cy*y, time independent (must stay positive)."""

    def theta(t, pts):
        pts = np.asarray(pts, dtype=float)
        out = c0 + cx * pts[..., 0]
        if pts.shape[-1] > 1:
            out = out + cy * pts[..., 1]
        return out

    return BoundaryData(theta=theta)


@functools.lru_cache(maxsize=64)
def boundary_face_points(grid: Grid) -> Mapping[str, np.ndarray]:
    """Face-midpoint coordinates per side, keyed x_lo/x_hi[/y_lo/y_hi]:
    one read-only mapping of read-only arrays per grid."""
    if grid.dim == 1:
        out = {"x_lo": np.array([[0.0]]), "x_hi": np.array([[1.0]])}
    else:
        xc, yc = grid.centers(0), grid.centers(1)
        out = {"x_lo": np.stack([np.zeros_like(yc), yc], axis=-1),
               "x_hi": np.stack([np.ones_like(yc), yc], axis=-1),
               "y_lo": np.stack([xc, np.zeros_like(xc)], axis=-1),
               "y_hi": np.stack([xc, np.ones_like(xc)], axis=-1)}
    for pts in out.values():
        pts.flags.writeable = False
    return MappingProxyType(out)


# ---------------------------------------------------------------------------
# fields


@dataclass(frozen=True)
class _Field:
    grid: Grid
    data: np.ndarray  # ghost-padded
    synced: bool = False

    _component_axes = 0

    def __post_init__(self):
        expect = self.grid.padded_shape(self.data.shape[self.grid.dim :])
        if self.data.shape != expect or self.data.ndim != self.grid.dim + self._component_axes:
            raise ValueError(
                f"{type(self).__name__} data shape {self.data.shape} does not match padded {expect} "
                f"with {self._component_axes} component axes"
            )

    @property
    def interior(self) -> np.ndarray:
        return self.data[(slice(1, -1),) * self.grid.dim]

    @classmethod
    def from_interior(cls, grid: Grid, values: np.ndarray):
        return cls(grid=grid, data=_padded(grid, values), synced=False)

    @classmethod
    def _synced(cls, grid: Grid, data: np.ndarray):
        """A synced field around ``data``, which its caller built padded: unchecked."""
        field = object.__new__(cls)
        field.__dict__.update(grid=grid, data=data, synced=True)
        return field


def _padded(grid: Grid, values) -> np.ndarray:
    """``values`` on the interior of a zero ghost-padded array."""
    values = np.asarray(values, dtype=float)
    data = np.zeros(grid.padded_shape(values.shape[grid.dim :]))
    data[(slice(1, -1),) * grid.dim] = values
    return data


@dataclass(frozen=True)
class ScalarField(_Field):
    _component_axes = 0


@dataclass(frozen=True)
class VectorField(_Field):
    _component_axes = 1


@dataclass(frozen=True)
class TensorField(_Field):
    _component_axes = 2


def _fill_axis(data: np.ndarray, axis: int, odd: bool) -> None:
    """Fill the two full ghost slabs on ``axis`` in place: copies of the
    nearest interior slabs (zero gradient), negated if ``odd``.  Filled axis
    after axis, every 2D corner ends up equal to its diagonal neighbour."""
    lead = (slice(None),) * axis
    for ghost, inner in ((0, 1), (-1, -2)):
        data[lead + (ghost,)] = -data[lead + (inner,)] if odd else data[lead + (inner,)]


# grid dimension -> (side, ghost slab, adjacent interior slab) of the
# Dirichlet fill; the 1D slabs are one-cell slices, so they take the trace's
# one value as a 2D slab takes a row of them
_DIRICHLET_SLABS = {
    1: (("x_lo", np.s_[:1], np.s_[1:2]), ("x_hi", np.s_[-1:], np.s_[-2:-1])),
    2: (("x_lo", np.s_[0, 1:-1], np.s_[1, 1:-1]), ("x_hi", np.s_[-1, 1:-1], np.s_[-2, 1:-1]),
        ("y_lo", np.s_[1:-1, 0], np.s_[1:-1, 1]), ("y_hi", np.s_[1:-1, -1], np.s_[1:-1, -2])),
}


def _fill_dirichlet(data: np.ndarray, grid: Grid, boundary: BoundaryData, t: float) -> None:
    """Fill the ghosts of a temperature array in place: ghost =
    2*theta_B(face) - interior on every face, then each 2D corner from its
    diagonal neighbour, as the axis fills leave the other fields' corners."""
    faces = boundary_face_points(grid)
    for side, ghost, inner in _DIRICHLET_SLABS[grid.dim]:
        data[ghost] = 2.0 * np.asarray(boundary.theta(t, faces[side]), dtype=float) - data[inner]
    if grid.dim == 2:
        # rows and columns 0 and n + 1 from 1 and n
        n0, n1 = grid.cells
        data[::n0 + 1, ::n1 + 1] = data[1:-1:n0 - 1, 1:-1:n1 - 1]


def sync_physical(grid: Grid, rho: np.ndarray, u: np.ndarray, theta: np.ndarray,
                  boundary: BoundaryData, t: float) -> tuple[ScalarField, VectorField, ScalarField]:
    """Build synced (rho, u, theta) fields from interior arrays at time t.
    Every ghost is written, so the padded arrays start empty."""
    inner = (slice(1, -1),) * grid.dim
    rho_p, u_p, th_p = [np.empty(grid.padded_shape(values.shape[grid.dim:]))
                        for values in (rho, u, theta)]
    rho_p[inner], u_p[inner], th_p[inner] = rho, u, theta
    for axis in range(grid.dim):
        _fill_axis(rho_p, axis, odd=False)
        _fill_axis(u_p, axis, odd=True)
    _fill_dirichlet(th_p, grid, boundary, t)
    return (ScalarField._synced(grid, rho_p), VectorField._synced(grid, u_p),
            ScalarField._synced(grid, th_p))


def sync_odd(f: _Field) -> _Field:
    """Ghosts by odd reflection about the boundary faces (zero-trace fields)."""
    data = f.data.copy()
    for axis in range(f.grid.dim):
        _fill_axis(data, axis, odd=True)
    return type(f)._synced(f.grid, data)


def sync_dirichlet(f: ScalarField, boundary: BoundaryData, t: float) -> ScalarField:
    """Ghosts from the Dirichlet trace: ghost = 2*theta_B(face) - interior."""
    data = f.data.copy()
    _fill_dirichlet(data, f.grid, boundary, t)
    return type(f)._synced(f.grid, data)


def _require_synced(f: _Field) -> None:
    if not f.synced:
        raise StalenessError(f"{type(f).__name__} ghosts are stale; sync before differentiating")


def _centered(data: np.ndarray, grid: Grid, axis: int) -> np.ndarray:
    """Centered difference along spatial ``axis``; returns interior values."""
    plus, minus = _centered_slices(grid.dim, axis)
    return (data[plus] - data[minus]) / (2.0 * grid.h[axis])


@functools.lru_cache(maxsize=None)
def _centered_slices(dim: int, axis: int) -> tuple[tuple[slice, ...], tuple[slice, ...]]:
    """Interior slices shifted by +1 and -1 cell along ``axis``."""
    plus = [slice(1, -1)] * dim
    minus = list(plus)
    plus[axis] = slice(2, None)
    minus[axis] = slice(0, -2)
    return tuple(plus), tuple(minus)


def gradient(f: _Field) -> np.ndarray:
    """Centered gradient of a synced field of any rank, the derivative axis
    appended: shape (*cells, *components, dim), (grad u)_{jk} = d u_j / d x_k."""
    _require_synced(f)
    g = f.grid
    out = np.empty(g.interior_shape(f.data.shape[g.dim:] + (g.dim,)))
    for k in range(g.dim):
        out[..., k] = _centered(f.data, g, k)
    return out


def divergence(f: _Field) -> np.ndarray:
    """Centered divergence of a synced vector or tensor field over its last
    component axis: div u = sum_k d u_k / d x_k, (div T)_j = sum_k d T_{jk} / d x_k."""
    _require_synced(f)
    out = _centered(f.data[..., 0], f.grid, 0)
    for k in range(1, f.grid.dim):
        out = out + _centered(f.data[..., k], f.grid, k)
    return out


# the rank-specific names of the two operators, which the benchmark tracer
# still looks up
grad_vector = gradient
tensor_divergence = divergence


def integrate(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Midpoint-rule integral over the domain; trailing axes pass through."""
    values = np.asarray(values, dtype=float)
    return np.add.reduce(values, axis=tuple(range(grid.dim))) * grid.cell_volume


def harmonic_extension(grid: Grid, boundary: BoundaryData, t: float = 0.0) -> ScalarField:
    """Discrete harmonic extension of the Dirichlet data theta_B(t, .).

    Every trace the package builds (``constant_boundary``,
    ``affine_boundary``) is affine, and the second-order stencil with the
    ghost embedding ghost = 2*theta_B - interior reproduces affine functions
    exactly; so the trace evaluated at the cell centers is the extension, up
    to rounding. Raises if the achieved max-norm residual exceeds
    1e-10 * max(1, max|theta_B|): a trace the stencil does not reproduce,
    such as a non-affine one, is refused rather than solved.
    """
    boundary.validate_positive(grid, times=(t,))
    sol = np.asarray(boundary.theta(t, np.stack(grid.mesh(), axis=-1)), dtype=float)
    out = sync_dirichlet(ScalarField.from_interior(grid, sol), boundary, t)

    scale = 1.0
    for pts in boundary_face_points(grid).values():
        scale = max(scale, float(np.max(np.abs(boundary.theta(t, pts)))))
    res = laplacian_residual(out)
    if res > 1e-10 * scale:
        raise RuntimeError(f"harmonic extension residual {res:.3e} exceeds 1.0e-10 * {scale:.3e}")
    return out


def laplacian_residual(f: ScalarField) -> float:
    """Max-norm of the discrete Laplacian of a synced scalar field."""
    _require_synced(f)
    g = f.grid
    mid = (slice(1, -1),) * g.dim
    acc = None
    for axis in range(g.dim):
        plus, minus = _centered_slices(g.dim, axis)
        term = (f.data[plus] - 2.0 * f.data[mid] + f.data[minus]) / g.h[axis] ** 2
        acc = term if acc is None else acc + term
    return float(np.max(np.abs(acc)))
