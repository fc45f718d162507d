"""Structured cell-centered grids, ghost-padded fields, and discrete calculus.

Grids are uniform and collocated in 1 or 2 space dimensions with one ghost
layer per side. Derivatives are second-order centered; integrals use the
midpoint rule. Ghost fill encodes the physical boundary conditions:

  * velocity components reflect through 0 at the wall (odd extension),
  * temperature is Dirichlet-filled from the boundary trace theta_B > 0,
  * density is zero-gradient.

Fields carry a ``synced`` flag; the differential operators take synced
fields only and return plain interior arrays.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

import numpy as np

__all__ = [
    "Grid",
    "BoundaryData",
    "constant_boundary",
    "affine_boundary",
    "ScalarField",
    "VectorField",
    "TensorField",
    "StalenessError",
    "sync_physical",
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
    """Uniform cell-centered grid on a box, dim in {1, 2}, >= 4 cells per axis."""

    cells: tuple[int, ...]
    lo: tuple[float, ...] = None
    hi: tuple[float, ...] = None

    def __post_init__(self):
        cells = tuple(int(c) for c in np.atleast_1d(self.cells))
        object.__setattr__(self, "cells", cells)
        if len(cells) not in (1, 2):
            raise ValueError(f"grid dimension must be 1 or 2, got {len(cells)}")
        if any(c < 4 for c in cells):
            raise ValueError(f"need at least 4 interior cells per axis, got {cells}")
        lo = tuple(float(v) for v in (self.lo if self.lo is not None else (0.0,) * len(cells)))
        hi = tuple(float(v) for v in (self.hi if self.hi is not None else (1.0,) * len(cells)))
        if len(lo) != len(cells) or len(hi) != len(cells):
            raise ValueError("lo/hi must match the grid dimension")
        if any(h <= l for l, h in zip(lo, hi)):
            raise ValueError("need hi > lo on every axis")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @functools.cached_property
    def dim(self) -> int:
        return len(self.cells)

    @functools.cached_property
    def h(self) -> tuple[float, ...]:
        return tuple((h - l) / c for l, h, c in zip(self.lo, self.hi, self.cells))

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.h))

    def centers(self, axis: int, ghost: bool = False) -> np.ndarray:
        h = self.h[axis]
        n = self.cells[axis]
        first = self.lo[axis] + 0.5 * h
        xs = first + h * np.arange(n)
        if ghost:
            xs = np.concatenate(([first - h], xs, [xs[-1] + h]))
        return xs

    def mesh(self, ghost: bool = False) -> tuple[np.ndarray, ...]:
        """Coordinate arrays of cell centers, broadcastable to the field shape."""
        axes = [self.centers(k, ghost) for k in range(self.dim)]
        return tuple(np.meshgrid(*axes, indexing="ij"))

    def padded_shape(self, trailing: tuple[int, ...] = ()) -> tuple[int, ...]:
        return tuple(c + 2 for c in self.cells) + trailing

    def interior_shape(self, trailing: tuple[int, ...] = ()) -> tuple[int, ...]:
        return self.cells + trailing


@dataclass(frozen=True)
class BoundaryData:
    """Dirichlet temperature trace theta_B(t, x) > 0 on all of the boundary.

    ``theta`` maps (t, pts) -> values, where pts has shape (..., dim).
    Velocity is homogeneous Dirichlet (u = 0) throughout and carries no data
    here. The ballistic clause reads the time derivative of its reference
    temperature from ``testfuns.ThetaRef.dt``, not from the trace.
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
        pts = np.asarray(pts, dtype=float)
        return np.full(pts.shape[:-1], float(value))

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
        out = {"x_lo": np.array([[grid.lo[0]]]), "x_hi": np.array([[grid.hi[0]]])}
    else:
        xc, yc = grid.centers(0), grid.centers(1)
        out = {"x_lo": np.stack([np.full_like(yc, grid.lo[0]), yc], axis=-1),
               "x_hi": np.stack([np.full_like(yc, grid.hi[0]), yc], axis=-1),
               "y_lo": np.stack([xc, np.full_like(xc, grid.lo[1])], axis=-1),
               "y_hi": np.stack([xc, np.full_like(xc, grid.hi[1])], axis=-1)}
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
        sl = tuple(slice(1, -1) for _ in range(self.grid.dim))
        return self.data[sl]

    @classmethod
    def from_interior(cls, grid: Grid, values: np.ndarray):
        return cls(grid=grid, data=_padded(grid, values), synced=False)


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


def _axis_slices(ndim_total: int, axis: int, idx):
    sl = [slice(None)] * ndim_total
    sl[axis] = idx
    return tuple(sl)


def _fill_axis(data: np.ndarray, axis: int, mode: str) -> None:
    """Fill the two full ghost slabs on ``axis`` in place, so corners stay finite."""
    lead = (slice(None),) * axis
    if mode == "zero_gradient":
        data[lead + (0,)] = data[lead + (1,)]
        data[lead + (-1,)] = data[lead + (-2,)]
    elif mode == "reflect_odd":
        data[lead + (0,)] = -data[lead + (1,)]
        data[lead + (-1,)] = -data[lead + (-2,)]
    else:
        raise ValueError(f"unknown ghost mode {mode!r}")


def _corner_fix(data: np.ndarray, spatial_ndim: int) -> None:
    # diagonal zero-gradient copy; corners are never read by axis stencils
    if spatial_ndim != 2:
        return
    data[0, 0, ...] = data[1, 1, ...]
    data[0, -1, ...] = data[1, -2, ...]
    data[-1, 0, ...] = data[-2, 1, ...]
    data[-1, -1, ...] = data[-2, -2, ...]


def _dirichlet_faces(grid: Grid, boundary: BoundaryData, t: float, axis: int):
    pts = boundary_face_points(grid)
    names = (("x_lo", "x_hi"), ("y_lo", "y_hi"))[axis]
    lo = np.asarray(boundary.theta(t, pts[names[0]]), dtype=float)
    hi = np.asarray(boundary.theta(t, pts[names[1]]), dtype=float)
    if grid.dim == 1:
        return float(lo.ravel()[0]), float(hi.ravel()[0])
    return lo, hi


def sync_physical(grid: Grid, rho: np.ndarray, u: np.ndarray, theta: np.ndarray,
                  boundary: BoundaryData, t: float) -> tuple[ScalarField, VectorField, ScalarField]:
    """Build synced (rho, u, theta) fields from interior arrays at time t."""
    padded = [_padded(grid, values) for values in (rho, u, theta)]
    rho_p, u_p, th_p = padded
    for axis in range(grid.dim):
        _fill_axis(rho_p, axis, "zero_gradient")
        _fill_axis(u_p, axis, "reflect_odd")
        lo, hi = _dirichlet_faces(grid, boundary, t, axis)
        _fill_theta_axis(th_p, grid, axis, lo, hi)
    for data in padded:
        _corner_fix(data, grid.dim)
    return (ScalarField(grid=grid, data=rho_p, synced=True),
            VectorField(grid=grid, data=u_p, synced=True),
            ScalarField(grid=grid, data=th_p, synced=True))


def _fill_theta_axis(data: np.ndarray, grid: Grid, axis: int, face_lo, face_hi) -> None:
    if grid.dim == 1:
        data[0] = 2.0 * face_lo - data[1]
        data[-1] = 2.0 * face_hi - data[-2]
        return
    if axis == 0:
        data[0, 1:-1] = 2.0 * face_lo - data[1, 1:-1]
        data[-1, 1:-1] = 2.0 * face_hi - data[-2, 1:-1]
    else:
        data[1:-1, 0] = 2.0 * face_lo - data[1:-1, 1]
        data[1:-1, -1] = 2.0 * face_hi - data[1:-1, -2]


def sync_odd(f: _Field) -> _Field:
    """Ghosts by odd reflection about the boundary faces (zero-trace fields)."""
    data = f.data.copy()
    for axis in range(f.grid.dim):
        _fill_axis(data, axis, "reflect_odd")
    _corner_fix(data, f.grid.dim)
    return replace(f, data=data, synced=True)


def sync_dirichlet(f: ScalarField, boundary: BoundaryData, t: float) -> ScalarField:
    """Ghosts from the Dirichlet trace: ghost = 2*theta_B(face) - interior."""
    data = f.data.copy()
    for axis in range(f.grid.dim):
        lo, hi = _dirichlet_faces(f.grid, boundary, t, axis)
        _fill_theta_axis(data, f.grid, axis, lo, hi)
    _corner_fix(data, f.grid.dim)
    return replace(f, data=data, synced=True)


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


def gradient(f: ScalarField) -> np.ndarray:
    """Second-order centered gradient of a scalar field, shape (*cells, dim)."""
    _require_synced(f)
    out = np.empty(f.grid.interior_shape((f.grid.dim,)))
    for k in range(f.grid.dim):
        out[..., k] = _centered(f.data, f.grid, k)
    return out


def grad_vector(v: VectorField) -> np.ndarray:
    """(grad u)_{jk} = d u_j / d x_k, second-order centered."""
    _require_synced(v)
    d = v.grid.dim
    out = np.empty(v.grid.interior_shape((d, d)))
    for k in range(d):
        out[..., :, k] = _centered(v.data, v.grid, k)
    return out


def divergence(v: VectorField) -> np.ndarray:
    """div u = sum_k d u_k / d x_k, second-order centered."""
    _require_synced(v)
    acc = None
    for k in range(v.grid.dim):
        term = _centered(v.data[..., k], v.grid, k)
        acc = term if acc is None else acc + term
    return acc


def tensor_divergence(T: TensorField) -> np.ndarray:
    """(div T)_j = sum_k d T_{jk} / d x_k, second-order centered."""
    _require_synced(T)
    d = T.grid.dim
    out = np.zeros(T.grid.interior_shape((d,)))
    for k in range(d):
        out += _centered(T.data[..., :, k], T.grid, k)
    return out


def integrate(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Midpoint-rule integral over the domain; trailing axes pass through."""
    values = np.asarray(values, dtype=float)
    spatial = tuple(range(grid.dim))
    return np.sum(values, axis=spatial) * grid.cell_volume


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
    acc = None
    for axis in range(f.grid.dim):
        nd = f.data.ndim
        plus = _axis_slices(nd, axis, slice(2, None))
        mid = _axis_slices(nd, axis, slice(1, -1))
        minus = _axis_slices(nd, axis, slice(0, -2))
        term = (f.data[plus] - 2.0 * f.data[mid] + f.data[minus]) / f.grid.h[axis] ** 2
        # restrict remaining axes to interior
        sl = tuple(slice(1, -1) if k != axis else slice(None) for k in range(f.grid.dim))
        term = term[sl]
        acc = term if acc is None else acc + term
    return float(np.max(np.abs(acc)))
