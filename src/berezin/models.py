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

The continuous kinds' coordinates are c_j conj(lambda)^j with c_j from one
cached table (_coefficients): 1, sqrt(j+1) or 1/sqrt(j!).  kernel_matrix,
normalized_kernel and the kernel jet all read it.  Kernels are built in one
array expression with each point as a row, normalized by the square root of
its own row's sum of squares, so a kernel's bits do not depend on the other
points evaluated with it.  The jet (_jet) is p = (c_j w^j), w = conj(lambda),
with its first two derivatives, read by calc's ascent.  A factory rejects a
radius whose square float64 cannot hold, or at whose edge (w = R) the jet
would overflow in the ascent.

Continuous domains are sampled through nested polar grids; estimates built
on them are honest lower bounds for the suprema, never certificates.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

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
# Finest grid level of a continuous model: 32,769 points.  Each level
# quadruples the points and costs the norm search about 16x more time.
MAX_LEVEL = 4

# Bound on the squared norms of p, p' and p'' at the domain's edge: a product
# of two stays 1e16 below the float64 maximum.
_EDGE_LIMIT = math.sqrt(sys.float_info.max) * 1e-8


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
    """A continuous model whose radius float64 can represent: R^2 must be a
    normal float (the ascent squares |w| and divides by it on the edge), and
    the squared norms of the jet p, p', p'' at w = R must stay below
    _EDGE_LIMIT (the pair ascent multiplies two of them).  Else ValueError.
    """
    if int(degree) < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    r = float(radius)
    if not 0.0 < r:
        raise ValueError(f"domain radius must be positive, got {radius}")
    if not sys.float_info.min <= r * r <= sys.float_info.max:  # inf, nan fail too
        raise ValueError(f"domain radius {r:g} is out of range: its square "
                         "over- or underflows")
    model = KernelModel(kind=kind, dimension=int(degree) + 1, degree=int(degree), radius=r)
    try:
        jet = _jet(model)
    except OverflowError as exc:  # j! beyond float64 (fock, j > 170)
        raise ValueError(f"degree {degree} is too large for {kind}") from exc
    with np.errstate(over="ignore"):
        p = jet(r)
        if not (p * p).sum(axis=0).max() <= _EDGE_LIMIT:
            raise ValueError(f"domain radius {r:g} is too large for degree {degree}: "
                             "the kernel jet overflows at the edge")
    return model


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


@functools.lru_cache(maxsize=64)
def _coefficients(kind: str, dimension: int) -> np.ndarray:
    """The c_j, j = 0..N, of the kernel coordinates c_j conj(lambda)^j, read
    (read-only) by every continuous-kind kernel and by the jet."""
    if kind == "hardy":
        c = np.ones(dimension)
    elif kind == "bergman":
        c = np.sqrt(np.arange(dimension) + 1.0)
    elif kind == "fock":
        c = 1.0 / np.array([math.sqrt(math.factorial(j)) for j in range(dimension)])
    else:
        raise ValueError(f"unknown model kind {kind!r}")
    c.flags.writeable = False
    return c


@functools.lru_cache(maxsize=64)
def _jet(model: KernelModel):
    """w -> P(w) = [p, p', p''], the kernel jet as an n x 3 array.

    p_j(w) = c_j w^j with c_j from _coefficients, so P[j, k] = coef[j, k] *
    w^expo[j, k] with coef = c_j [1, j, j(j-1)] and expo = max(j - k, 0).
    Built once per model; its arrays are read-only.
    """
    c = _coefficients(model.kind, model.dimension)
    j = np.arange(model.dimension)
    coef = c[:, None] * np.stack([np.ones(len(j)), j, j * (j - 1.0)], axis=1)
    expo = np.maximum(j[:, None] - np.arange(3), 0)
    j.flags.writeable = coef.flags.writeable = expo.flags.writeable = False
    return lambda w: coef * (w**j)[expo]


def _kernel_columns(model: KernelModel, points) -> np.ndarray:
    """Normalized kernels of a continuous model at `points`, as the columns
    of an n x m view.  Each point's row c_j conj(lambda)^j is divided by the
    square root of its own contiguous sum of squares, so a column's bits do
    not depend on the other points.  A point that is not a number in the
    closed disk raises PointOutOfDomain."""
    try:
        lam = np.array(points, dtype=np.complex128).reshape(len(points))
    except (TypeError, ValueError) as exc:
        raise PointOutOfDomain(f"bad point among {points!r}") from exc
    with np.errstate(over="ignore"):
        out = np.flatnonzero(~(np.abs(lam) <= model.radius * (1.0 + 1e-12)))  # NaN too
    if out.size:
        raise PointOutOfDomain(f"point {complex(lam[out[0]])} outside |z| <= {model.radius:g}")
    n = model.dimension
    raw = lam.conj()[:, None] ** np.arange(n) * _coefficients(model.kind, n)
    return (raw / np.sqrt((raw.real**2 + raw.imag**2).sum(axis=1))[:, None]).T


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
    return _kernel_columns(model, (point,))[:, 0]


@scoped
def kernel_matrix(model: KernelModel, points) -> np.ndarray:
    """Normalized kernel vectors stacked as columns, one per point (read-only)."""
    out = (np.column_stack([normalized_kernel(model, p) for p in points]) if model.is_finite_kind
           else np.ascontiguousarray(_kernel_columns(model, points)))
    out.flags.writeable = False
    return out


def _check_level(model: KernelModel, level: int) -> None:
    """Reject a negative level, and on a continuous model one above MAX_LEVEL,
    with ValueError; a finite kind ignores the level otherwise."""
    if level < 0:
        raise ValueError(f"level must be >= 0, got {level}")
    if level > MAX_LEVEL and not model.is_finite_kind:
        raise ValueError(f"level must be >= 0 and <= {MAX_LEVEL} on a continuous model, "
                         f"got {level}")


def default_grid(model: KernelModel, level: int = 0) -> OmegaGrid:
    """Domain sample at a refinement level.

    Finite kind: all indices 1..n at every level.  Continuous kinds: the
    origin plus a polar mesh of (16 * 2^level) angles by (8 * 2^level) radii
    reaching the domain radius.  Grids are nested: every point of level L
    appears in level L+1.
    """
    _check_level(model, level)
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
