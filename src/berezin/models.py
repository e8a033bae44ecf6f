"""Finite-dimensional reproducing kernel models.

Four families, each presenting an n-dimensional coordinate space together
with a family of normalized kernel vectors indexed by a domain Omega:

- finite(n): Omega = {1, ..., n}, normalized kernels are the standard basis
  vectors.  Sup-type quantities over Omega are exact maxima over indices.
- hardy(degree, rho): polynomials of degree <= N on the disk of radius
  rho < 1; the kernel at lambda has coordinates (1, conj(lambda), ...,
  conj(lambda)^N) before normalization.
- bergman(degree, rho): same domain, coordinates sqrt(j+1) * conj(lambda)^j.
- fock(degree, radius): entire-function truncation on |lambda| <= R,
  coordinates conj(lambda)^j / sqrt(j!).

Continuous domains are sampled through nested polar grids; estimates built
on them are honest lower bounds for the suprema, never certificates.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._cache import scoped
from .errors import PointOutOfDomain

DEFAULT_DEGREE = 15
DEFAULT_RHO = 0.95
DEFAULT_FOCK_RADIUS = 3.0

# Base polar grid: 16 angles x 8 radii (plus the origin) at level 0,
# both counts doubling per level so grids are nested as point sets.
BASE_ANGLES = 16
BASE_RADII = 8


@dataclass(frozen=True)
class KernelModel:
    """One reproducing kernel model; construct via the factory functions."""

    kind: str  # "finite" | "hardy" | "bergman" | "fock"
    dimension: int  # coordinate dimension n
    degree: int | None = None  # truncation degree N (continuous kinds)
    radius: float | None = None  # domain radius (rho, or R for fock)

    @property
    def is_finite_kind(self) -> bool:
        return self.kind == "finite"

    def __str__(self) -> str:
        if self.kind == "finite":
            return f"finite:{self.dimension}"
        return f"{self.kind}:{self.degree}:{self.radius:g}"


@dataclass(frozen=True)
class OmegaGrid:
    """An ordered sample of the model domain at a given refinement level."""

    points: tuple
    level: int


def finite(n: int) -> KernelModel:
    """Coordinate model on C^n with standard basis kernels."""
    if int(n) < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    return KernelModel(kind="finite", dimension=int(n))


def _disk_model(kind: str, degree: int, radius: float) -> KernelModel:
    if int(degree) < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    if not (0.0 < float(radius)):
        raise ValueError(f"domain radius must be positive, got {radius}")
    return KernelModel(
        kind=kind, dimension=int(degree) + 1, degree=int(degree),
        radius=float(radius),
    )


def hardy(degree: int = DEFAULT_DEGREE, rho: float = DEFAULT_RHO) -> KernelModel:
    """Truncated Hardy-type model on the disk |lambda| <= rho < 1."""
    if not (0.0 < float(rho) < 1.0):
        raise ValueError(f"rho must lie in (0, 1), got {rho}")
    return _disk_model("hardy", degree, rho)


def bergman(degree: int = DEFAULT_DEGREE, rho: float = DEFAULT_RHO) -> KernelModel:
    """Truncated Bergman-type model on the disk |lambda| <= rho < 1."""
    if not (0.0 < float(rho) < 1.0):
        raise ValueError(f"rho must lie in (0, 1), got {rho}")
    return _disk_model("bergman", degree, rho)


def fock(degree: int = DEFAULT_DEGREE, radius: float = DEFAULT_FOCK_RADIUS) -> KernelModel:
    """Truncated Fock-type model on the disk |lambda| <= R."""
    return _disk_model("fock", degree, radius)


class _Weights(NamedTuple):
    """Per-model kernel coordinates: exponents 0..N and their weights."""

    exponents: np.ndarray
    scale: np.ndarray | None  # sqrt(j+1) (bergman), sqrt(j!) (fock), None (hardy)
    divide: bool  # fock divides by its scale, bergman multiplies


@functools.lru_cache(maxsize=64)
def _weights(model: KernelModel) -> _Weights:
    """Kernel weights of a continuous model, built on first use.

    The cache hands the same arrays to every caller, so they are read-only.
    """
    j = np.arange(model.dimension)
    if model.kind == "hardy":
        w = _Weights(j, None, False)
    elif model.kind == "bergman":
        w = _Weights(j, np.sqrt(j + 1.0), False)
    elif model.kind == "fock":
        fact = np.array([math.sqrt(math.factorial(int(k))) for k in j])
        w = _Weights(j, fact, True)
    else:
        raise ValueError(f"unknown model kind {model.kind!r}")
    for arr in (w.exponents, w.scale):
        if arr is not None:
            arr.flags.writeable = False
    return w


def _unit_kernel(model: KernelModel, w: _Weights, point) -> np.ndarray:
    """Normalized kernel at a point of a continuous model, with weights `w`.

    Coordinates are conj(lambda)^j, times or divided by the weights, over
    sqrt(re.re + im.im): the formula np.linalg.norm uses, so the result is
    bit-identical to raw / np.linalg.norm(raw).
    """
    try:
        lam = complex(point)
    except (TypeError, ValueError) as exc:
        raise PointOutOfDomain(f"bad point {point!r}") from exc
    if not (math.isfinite(lam.real) and math.isfinite(lam.imag)):
        raise PointOutOfDomain(f"non-finite point {point!r}")
    if abs(lam) > model.radius * (1.0 + 1e-12):
        raise PointOutOfDomain(
            f"|{lam}| = {abs(lam):.6g} exceeds domain radius {model.radius:g}"
        )
    raw = lam.conjugate() ** w.exponents
    if w.scale is not None:
        raw = raw / w.scale if w.divide else w.scale * raw
    re, im = raw.real, raw.imag
    return raw / math.sqrt(re.dot(re) + im.dot(im))


def normalized_kernel(model: KernelModel, point) -> np.ndarray:
    """Unit-norm kernel vector at a domain point.

    For the finite kind, point is a 1-based index into {1, ..., n}; for the
    continuous kinds it is a complex number with |point| <= domain radius.
    Raises PointOutOfDomain otherwise.
    """
    if model.is_finite_kind:
        try:
            i = int(point)
        except (TypeError, ValueError) as exc:
            raise PointOutOfDomain(f"bad index {point!r}") from exc
        if i != point or not (1 <= i <= model.dimension):
            raise PointOutOfDomain(
                f"index {point!r} outside 1..{model.dimension}"
            )
        e = np.zeros(model.dimension, dtype=np.complex128)
        e[i - 1] = 1.0
        return e
    return _unit_kernel(model, _weights(model), point)


@scoped
def kernel_matrix(model: KernelModel, points) -> np.ndarray:
    """Normalized kernel vectors stacked as columns, one per point (read-only)."""
    if model.is_finite_kind:
        cols = [normalized_kernel(model, p) for p in points]
    else:
        w = _weights(model)
        cols = [_unit_kernel(model, w, p) for p in points]
    out = np.column_stack(cols)
    out.flags.writeable = False
    return out


def default_grid(model: KernelModel, level: int = 0) -> OmegaGrid:
    """Domain sample at a refinement level.

    Finite kind: all indices 1..n at every level.  Continuous kinds: the
    origin plus a polar mesh of (16 * 2^level) angles by (8 * 2^level) radii
    reaching the domain radius.  Grids are nested: every point of level L
    appears in level L+1.
    """
    if level < 0:
        raise ValueError(f"level must be >= 0, got {level}")
    if model.is_finite_kind:
        return OmegaGrid(points=tuple(range(1, model.dimension + 1)), level=level)
    n_ang = BASE_ANGLES * (2**level)
    n_rad = BASE_RADII * (2**level)
    angles = 2.0 * np.pi * np.arange(n_ang) / n_ang
    radii = model.radius * (np.arange(1, n_rad + 1) / n_rad)
    mesh = np.empty((n_rad, n_ang), dtype=np.complex128)  # radius-major
    mesh.real = radii[:, None] * np.cos(angles)
    mesh.imag = radii[:, None] * np.sin(angles)
    return OmegaGrid(points=(0j, *mesh.ravel().tolist()), level=level)
