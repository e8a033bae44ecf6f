"""Berezin symbols, sup-type quantities and the numerical radius.

Finite-kind models admit exact evaluation: the Berezin number is the largest
diagonal modulus and the Berezin norm the largest entry modulus, both maxima
over finitely many kernel pairs.  Continuous models are sampled on nested
polar grids and refined locally, producing lower bounds attained at domain
points (exact=False).  Both quantities are sups of |<A k_lam, k_mu>|, the
number on the diagonal mu = lam, so one search (_grid_sup) serves both: at
each level it takes the best grid local maxima (_peaks) of |symbol|, or of
the row maximum max_mu |<A k_lam, k_mu>| (_row_max), and from each, or its
pair (lam, mu), a safeguarded Newton ascent (_ascend) climbs log|symbol|^2,
or log|<A k_lam, k_mu>|^2 in the four real coordinates of the pair, on exact
derivatives: with w = conj(lam) and p_j = c_j w^j, the jet P = [p, p', p'']
of models._jet gives every first and second derivative through the 3x3
matrices P*AP and P*P (_log_terms).  One driver (_ascent) steps for both,
holding a point on the disk's edge to the circle; the value is the best
over its iterates.  Estimates at level L take the best value over levels
0..L, so refinement never loses ground.  Both quantities scale as |c| under
A -> cA, so a call searches A = 2^k U, U's largest real or imaginary
component in [1/2, 1), and returns 2^k times U's value (_pow2_search): one
search per operator up to a power of two inside a computation_scope, bit
for bit the direct search's, as scaling by 2^k commutes with rounding.

The numerical radius is w(A) = max over theta of g(theta) = lambda_max(
Re(e^{i theta} A)).  One batched eigvalsh of the first half-turn's 128
Hermitian parts samples g on a 256-point grid, the second half-turn from
g(theta + pi) = -lambda_min(Re(e^{i theta} A)); from each grid peak a
safeguarded Newton ascent (one eigh per step, with g' and g'' from first-
and second-order eigenvalue perturbation) finds the stationary point.  The
value is |<Ax, x>| at a top eigenvector x or a grid value, so up to
rounding (about n eps ||A||) it is a lower bound on w(A) attained at a unit
vector; normal operators give their spectral radius to machine precision.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._cache import scoped
from .errors import DimensionMismatch, PointOutOfDomain
from .linalg import UNSCALED_MAX, _pow2_exponent, as_complex_matrix, im_part, re_part
from .models import (
    BASE_ANGLES, BASE_RADII, KernelModel, OmegaGrid, _check_level, _jet, default_grid,
    kernel_matrix, normalized_kernel,
)

# Grid local maxima climbed per level by the disk sup search.
TOP_K = 5
# Pair values per block of the norm's grid stage (4 MiB of complex128).
PAIR_BLOCK = 2**18
# theta sample count for the numerical radius.
RADIUS_GRID = 256


@dataclass(frozen=True)
class SupEstimate:
    """A supremum estimate; exact=True only on finite-kind models."""

    value: float
    argmax: object
    exact: bool


def _check_operand(model: KernelModel, a: np.ndarray) -> None:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"operator must be square, got shape {a.shape}")
    if a.shape[0] != model.dimension:
        raise DimensionMismatch(
            f"operator is {a.shape[0]}x{a.shape[1]} but model dimension is "
            f"{model.dimension}"
        )


def berezin_symbol(model: KernelModel, a: np.ndarray, point) -> complex:
    """<A k_point, k_point> with the normalized kernel at `point`."""
    _check_operand(model, a)
    k = normalized_kernel(model, point)
    return complex(k.conj() @ (a @ k))


def symbol_values(model: KernelModel, a: np.ndarray, grid: OmegaGrid) -> np.ndarray:
    """Symbol values at every point of `grid`, in grid order, as one complex
    array."""
    _check_operand(model, a)
    return _symbols(a, kernel_matrix(model, grid.points))


def _symbols(a: np.ndarray, kmat: np.ndarray) -> np.ndarray:
    """<A k, k> for each kernel column k of kmat."""
    return np.einsum("ij,ij->j", kmat.conj(), a @ kmat)


def _row_max(a: np.ndarray, kmat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per kernel column k_lam of kmat, max over the columns k_mu of
    |<A k_lam, k_mu>| and the first mu attaining it, built PAIR_BLOCK pair
    values at a time, so no m x m array exists.  Blocks are lam-major, one
    row per lam, so each row's argmax reads contiguous memory; the two
    block buffers are allocated once per call."""
    akt, kc, m = (a @ kmat).T, kmat.conj(), kmat.shape[1]
    step = min(m, max(1, PAIR_BLOCK // m))
    pairs, mods = np.empty((step, m), dtype=complex), np.empty((step, m))
    vals, mus = np.empty(m), np.empty(m, dtype=np.intp)
    for s in range(0, m, step):
        r = min(step, m - s)
        np.matmul(akt[s:s + r], kc, out=pairs[:r])  # [lam, mu]
        np.abs(pairs[:r], out=mods[:r])
        arg = mods[:r].argmax(axis=1)  # a NaN is its row's first maximum, as in max
        vals[s:s + r], mus[s:s + r] = mods[np.arange(r), arg], arg
    return vals, mus


def _check_start(model: KernelModel, point) -> None:
    """The one domain check of an ascent: its iterates are projected onto
    the disk, so they stay in the domain that kernel_matrix and
    normalized_kernel check once the start does."""
    if not abs(point) <= model.radius * (1.0 + 1e-12):  # NaN fails too
        raise PointOutOfDomain(f"refinement start {point!r} outside the domain")


def _log_terms(q):
    """h1, h2, h11, h12, h22 of h = log H, H holomorphic in (z1, z2).

    q[a][b] is H's derivative of order a in z2 and b in z1.
    """
    q00 = q[0][0]
    h1, h2 = q[0][1] / q00, q[1][0] / q00
    return h1, h2, q[0][2] / q00 - h1 * h1, q[1][1] / q00 - h1 * h2, q[2][0] / q00 - h2 * h2


def _diagonal(h1, h2, h11, h12, h22):
    """Gradient and Hessian in (Re w, Im w) of Re h(w, conj(w))."""
    hxy = (h22 - h11).imag
    return ([(h1 + h2).real, (h2 - h1).imag],
            [[(h11 + 2.0 * h12 + h22).real, hxy], [hxy, (2.0 * h12 - h11 - h22).real]])


def _block(c: complex, d) -> list:
    """Hessian block of Re h in (Re z, Im z) from c = h_zz (holomorphic),
    minus the 2x2 block d."""
    return [[c.real - d[0][0], -c.imag - d[0][1]], [-c.imag - d[1][0], -c.real - d[1][1]]]


def _number_derivatives(jet, a, x):
    """|symbol| at lam = conj(w), w = x[0] + i x[1], with the gradient and
    Hessian in x of G = log|N|^2 - 2 log D, N = p*Ap and D = ||p||^2.

    N(w) = H(w, conj(w)) for H(z1, z2) = p(z2)^T A p(z1), and D likewise
    with A = I, so both come from the 3x3 matrices P*AP and P*P.  The
    derivatives are None where N = 0.
    """
    p = jet(complex(x[0], x[1]))
    ph = p.conj().T
    q, e = (ph @ (a @ p)).tolist(), (ph @ p).tolist()
    val = abs(q[0][0]) / e[0][0].real
    if val == 0.0:
        return val, None, None
    terms = [2.0 * (u - v) for u, v in zip(_log_terms(q), _log_terms(e))]
    return (val, *_diagonal(*terms))


def _norm_derivatives(jet, a, x):
    """|<A k_lam, k_mu>| at lam = conj(w), w = x[0] + i x[1], mu = x[2] +
    i x[3], with the gradient and Hessian in x of F = log|M|^2 - log D(w) -
    log D(mu), M = p(mu)^T A p(w) and D = ||p||^2.

    M is holomorphic in (w, mu), so its terms come from P(mu)^T A P(w); each
    log D is a diagonal restriction, as in _number_derivatives.  The
    derivatives are None where M = 0.
    """
    pw = jet(complex(x[0], x[1]))
    pm = jet(complex(x[2], x[3]))
    q = (pm.T @ (a @ pw)).tolist()
    ew, em = (pw.conj().T @ pw).tolist(), (pm.conj().T @ pm).tolist()
    val = abs(q[0][0]) / math.sqrt(ew[0][0].real * em[0][0].real)
    if val == 0.0:
        return val, None, None
    h1, h2, h11, h12, h22 = (2.0 * t for t in _log_terms(q))
    gw, hw = _diagonal(*_log_terms(ew))
    gm, hm = _diagonal(*_log_terms(em))
    bw, bm, bx = _block(h11, hw), _block(h22, hm), _block(h12, ((0.0, 0.0), (0.0, 0.0)))
    grad = [h1.real - gw[0], -h1.imag - gw[1], h2.real - gm[0], -h2.imag - gm[1]]
    return val, grad, [bw[0] + bx[0], bw[1] + bx[1], bx[0] + bm[0], bx[1] + bm[1]]


def _newton_step(hess, g):
    """-hess^{-1} g, or None unless hess is negative definite: Gaussian
    elimination on -hess without pivoting, whose pivots are all positive
    exactly when -hess is positive definite."""
    k = len(g)
    m = [[-v for v in row] + [t] for row, t in zip(hess, g)]
    for i in range(k):
        if not m[i][i] > 0.0:
            return None
        for r in range(i + 1, k):
            f = m[r][i] / m[i][i]
            m[r] = [u - f * v for u, v in zip(m[r], m[i])]
    d = [0.0] * k
    for i in reversed(range(k)):
        d[i] = (m[i][k] - sum(m[i][j] * d[j] for j in range(i + 1, k))) / m[i][i]
    return d


def _ascent(derivatives, x: list, radius: float, h: float):
    """Safeguarded Newton ascent over one or two points in |z| <= radius.

    x lists (Re z, Im z) of each point; derivatives(x) returns the value
    and the gradient and Hessian of its log-square in x.  A point on the
    edge whose gradient points outward moves along the circle: its two
    coordinates give way to the unit tangent, with curvature term -g.z/|z|^2.
    The step is Newton's where the Hessian is negative definite and
    otherwise the gradient step that maximises the quadratic model, or h
    where the model is not concave along the gradient.  It is clipped to
    length h, and each point is then projected onto the disk.  Stops on a
    step below 1e-13 radius, a gradient below 1e-14 / h, zero or non-finite
    derivatives, or after 16 evaluations.  Returns the largest value over
    the iterates and its x.
    """
    best, arg = -1.0, x
    edge2 = (radius * (1.0 - 1e-12)) ** 2
    for _ in range(16):
        val, g, hess = derivatives(x)
        if val > best:
            best, arg = val, x
        if g is None or not math.isfinite(sum(g) + sum(map(sum, hess))):
            break
        cols, curv = [], []  # step coordinates, as sparse columns over x
        for i in range(0, len(x), 2):
            zx, zy = x[i], x[i + 1]
            r2 = zx * zx + zy * zy
            out = g[i] * zx + g[i + 1] * zy
            if r2 >= edge2 and out > 0.0:
                r = math.sqrt(r2)
                cols.append(((i, -zy / r), (i + 1, zx / r)))
                curv.append(-out / r2)
            else:
                cols += [((i, 1.0),), ((i + 1, 1.0),)]
                curv += [0.0, 0.0]
        gr = [sum(u * g[i] for i, u in c) for c in cols]
        hr = [[sum(u * v * hess[i][j] for i, u in ci for j, v in cj) for cj in cols]
              for ci in cols]
        for k, c in enumerate(curv):
            hr[k][k] += c
        d = _newton_step(hr, gr)
        if d is None:
            gg = sum(t * t for t in gr)
            if gg * h * h <= 1e-28:
                break
            ghg = sum(s * t * u for s, row in zip(gr, hr) for t, u in zip(gr, row))
            scale = gg / -ghg if ghg < 0.0 else h / math.sqrt(gg)
            d = [scale * t for t in gr]
        size = math.sqrt(sum(t * t for t in d))
        if size < 1e-13 * radius:
            break
        scale = min(1.0, h / size)
        x = list(x)
        for c, t in zip(cols, d):
            for i, u in c:
                x[i] += scale * t * u
        for i in range(0, len(x), 2):
            r = math.hypot(x[i], x[i + 1])
            if r > radius:
                x[i], x[i + 1] = x[i] * radius / r, x[i + 1] * radius / r
    return best, arg


def _ascend(model: KernelModel, a: np.ndarray, start: tuple, level: int):
    """Newton polish from a grid point (lam,) of |symbol|, or from a grid pair
    (lam, mu) of |<A k_lam, k_mu>|, in w = conj(lam) and mu, with steps
    clipped to the level's radial spacing; returns (value, argmax), the
    argmax a point or a pair like the start."""
    for point in start:
        _check_start(model, point)
    derivs = _number_derivatives if len(start) == 1 else _norm_derivatives
    x0 = [start[0].real, -start[0].imag] + [t for mu in start[1:] for t in (mu.real, mu.imag)]
    h = model.radius / (BASE_RADII * 2**level)  # the grid's radial spacing
    val, x = _ascent(functools.partial(derivs, _jet(model), a), x0, model.radius, h)
    lam = complex(x[0], -x[1])
    return val, (lam if len(start) == 1 else (lam, complex(x[2], x[3])))


def _peaks(vals: np.ndarray, level: int) -> np.ndarray:
    """Indices of the TOP_K best local maxima of vals, one value per point of
    default_grid(level), ties to the lower index: the ring points >= their
    cyclic angle neighbours and the points directly inside (the origin, for
    ring 0) and outside them, and the origin if >= ring 0.  Includes the argmax."""
    n_ang = BASE_ANGLES * 2**level
    ring = vals[1:].reshape(-1, n_ang)  # radius-major mesh
    ang = np.concatenate((ring[:, -1:], ring, ring[:, :1]), axis=1)
    rad = np.concatenate(([vals[0]] * n_ang, vals[1:], [-np.inf] * n_ang)).reshape(-1, n_ang)
    peak = (ring >= ang[:, :-2]) & (ring >= ang[:, 2:]) & (ring >= rad[:-2]) & (ring >= rad[2:])
    idx = np.flatnonzero(np.concatenate(([vals[0] >= ring[0].max()], peak.ravel())))
    return idx[np.argsort(-vals[idx], kind="stable")[:TOP_K]]


def _grid_sup(model: KernelModel, a: np.ndarray, level: int, norm: bool) -> SupEstimate:
    """The disk search behind berezin_number and, with `norm`, berezin_norm.

    At each level 0..`level`, grid_values(kernel_matrix) gives one value per
    grid point, |symbol| or the norm's row maximum (_row_max), and for the
    norm each point's partner mu.  The TOP_K best local maxima of those
    values on the grid (_peaks), ties to the lower index, are candidates,
    (lam,) or (lam, mu), and the starts of ascents.
    The estimate is the best value over all of them.  A level outside
    models._check_level, a non-finite entry of `a`, or an operator near the
    float64 limit, whose grid or ascent overflows (a best value that is not
    finite, or an OverflowError; the overflow warnings are silenced), raises
    ValueError.
    """
    _check_level(model, level)
    if not np.isfinite(a).all():
        raise ValueError("operator has non-finite entries")
    best_val, best_arg = -1.0, None
    grid_values = (functools.partial(_row_max, a) if norm
                   else lambda kmat: (np.abs(_symbols(a, kmat)),))
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            for lev in range(level + 1):
                pts = default_grid(model, lev).points
                vals, *partners = grid_values(kernel_matrix(model, pts))
                for i in _peaks(vals, lev):
                    start = (pts[i], *(pts[p[i]] for p in partners))
                    if vals[i] > best_val:
                        best_val = float(vals[i])
                        best_arg = start[0] if len(start) == 1 else start
                    ref_val, ref_arg = _ascend(model, a, start, lev)
                    if ref_val > best_val:
                        best_val, best_arg = ref_val, ref_arg
    except OverflowError as exc:  # abs() of a complex whose modulus overflows
        raise ValueError(f"disk estimate overflows float64 ({exc})") from exc
    if best_arg is None or not math.isfinite(best_val):
        raise ValueError(f"disk estimate overflows float64 (best value {best_val!r})")
    return SupEstimate(value=best_val, argmax=best_arg, exact=False)


@scoped
def _unit_search(model: KernelModel, u: np.ndarray, level: int, norm: bool) -> SupEstimate:
    return _grid_sup(model, u, level, norm)


def _pow2_search(model: KernelModel, a: np.ndarray, level: int, norm: bool) -> SupEstimate:
    """_grid_sup(model, a, level, norm) run as A = 2^k U, U's largest real or
    imaginary component in [1/2, 1), through one memo of U, so inside a
    computation_scope every power-of-two multiple of a searched operator
    costs one ldexp.  Bit-exact: scaling by 2^k commutes with rounding in
    the normal range, so every grid value and |q00| scales by 2^k, while
    the ascent sees only ratios (_log_terms), so its steps and the argmax do
    not move.  A zero or non-finite operator, one above linalg.UNSCALED_MAX
    or with every component below 2^-1024 (2^-k would overflow), and one
    whose U * 2^k is not A (an entry would underflow) take _grid_sup
    directly, with its errors."""
    m = float(np.maximum(np.abs(a.real), np.abs(a.imag)).max())
    k = math.frexp(m)[1]
    if not 0.0 < m <= UNSCALED_MAX or k < -1023:  # 2.0**-k must be finite
        return _grid_sup(model, a, level, norm)
    u = a * 2.0**-k
    if not np.array_equal(u * 2.0**k, a):
        return _grid_sup(model, a, level, norm)
    est = _unit_search(model, u, level, norm)
    return SupEstimate(math.ldexp(est.value, k), est.argmax, False)


@scoped
def berezin_number(model: KernelModel, a: np.ndarray, level: int = 1) -> SupEstimate:
    """sup over the domain of |symbol|.

    Finite kind: exact, the largest diagonal modulus (first index wins ties).
    Continuous kinds: best of grid sampling plus local refinement over all
    levels up to `level` (_grid_sup); a lower bound for the true supremum.
    A bad level or a non-finite operator raises ValueError there.  The
    search runs once per operator up to a power of two (_pow2_search).
    """
    _check_operand(model, a)
    if model.is_finite_kind:
        d = np.abs(np.diagonal(a))
        i = int(np.argmax(d))
        return SupEstimate(value=float(d[i]), argmax=i + 1, exact=True)
    return _pow2_search(model, a, level, False)


@scoped
def berezin_norm(model: KernelModel, a: np.ndarray, level: int = 1) -> SupEstimate:
    """sup over domain pairs of |<A k_lam, k_mu>|.

    Finite kind: exact, the largest entry modulus; the argmax pair is the
    first (lam, mu) in lam-major order attaining it.  Continuous kinds: grid
    row maxima plus refinement (_grid_sup), a lower bound; a bad level or a
    non-finite operator raises ValueError.  As for berezin_number, one
    search per operator up to a power of two (_pow2_search).
    """
    _check_operand(model, a)
    if model.is_finite_kind:
        n = model.dimension
        flat = np.abs(a).T.reshape(-1)  # lam-major: (lam, mu) lexicographic
        k = int(np.argmax(flat))
        lam, mu = k // n + 1, k % n + 1
        return SupEstimate(value=float(flat[k]), argmax=(lam, mu), exact=True)
    return _pow2_search(model, a, level, True)


def berezin_pair(model: KernelModel, a: np.ndarray, level: int = 1) -> tuple[float, float]:
    """(number, norm): berezin_number and berezin_norm, on continuous kinds
    each lifted toward the other, so both stay lower bounds attained at
    domain points, for any operator.

    The number is raised to |symbol| at both points of the norm's argmax
    pair; for PSD A, |<A k_lam, k_mu>|^2 <= <A k_lam, k_lam> <A k_mu, k_mu>,
    so one of them reaches the norm estimate.  Then the norm is raised to
    the number, since diagonal pairs are pairs.  Finite kinds give both
    exact values.
    """
    norm = berezin_norm(model, a, level=level)
    nb, bn = norm.value, berezin_number(model, a, level=level).value
    if not norm.exact:
        bn = max(bn, *(abs(berezin_symbol(model, a, pt)) for pt in norm.argmax))
        nb = max(nb, bn)
    return bn, nb


def _radius_ascent(a: np.ndarray, re: np.ndarray, im: np.ndarray, th: float,
                   h: float, gtol: float) -> tuple[float, float]:
    """Safeguarded Newton ascent of g(theta) = lambda_max(H(theta)) from th.

    H = cos(theta) Re A - sin(theta) Im A, H' = -sin(theta) Re A -
    cos(theta) Im A and H'' = -H.  With (w, V) = eigh(H) and x = V[:, -1],
    g' = x*H'x and g'' = -g + 2 sum_{j<n} |v_j*H'x|^2 / (g - w_j).  Each
    step is clipped to +-h; where g'' >= 0 or is not finite (a degenerate
    top eigenvalue), it is h sign(g') instead.  Stops once |g'| <= gtol or
    the step is below 1e-13, after at most 16 eigensolves.  Returns the
    largest |<Ax, x>| over the iterates and the last theta.
    """
    best = 0.0
    for _ in range(16):
        c, s = math.cos(th), math.sin(th)
        w, v = np.linalg.eigh(c * re - s * im)
        x = v[:, -1]
        best = max(best, abs(complex(x.conj() @ (a @ x))))
        y = v.conj().T @ (-s * (re @ x) - c * (im @ x))  # V* H'x
        d1 = y[-1].real
        if abs(d1) <= gtol:
            break
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            d2 = -w[-1] + 2.0 * float(np.sum((y[:-1].real**2 + y[:-1].imag**2)
                                             / (w[-1] - w[:-1])))
        if d2 < 0.0 and math.isfinite(d2):
            step = min(h, max(-h, -d1 / d2))
        else:
            step = math.copysign(h, d1)
        if abs(step) < 1e-13:
            break
        th += step
    return best, th


@scoped
def numerical_radius(a: np.ndarray) -> float:
    """max over unit vectors of |<Ax, x>|, as a lower bound attained at one.

    Evaluates g(theta) = lambda_max(Re(e^{i theta} A)) on a 256-point grid
    over [0, 2 pi) in one batched eigvalsh of the 128 Hermitian parts on
    [0, pi), each giving g(theta) and g(theta + pi) = -lambda_min, then
    runs a safeguarded Newton ascent of g (one eigh per step, see
    _radius_ascent) from every discrete local maximum of the grid.  The
    value is the larger of the grid maximum and |<Ax, x>| over the top
    eigenvectors x of every iterate, each attained at a unit vector, so up
    to rounding it never exceeds w(A).
    At a stationary theta, e^{i theta} <Ax, x> is real, so for normal
    operators the value is the spectral radius to machine precision.
    An operator with an entry above linalg.UNSCALED_MAX is run as 2^-k A.
    Non-square input raises DimensionMismatch, empty or non-finite input,
    or a radius beyond float64, ValueError.
    """
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"operator must be square, got shape {a.shape}")
    a = as_complex_matrix(a)
    k = _pow2_exponent(a)
    if k:  # w(2^-k A) = 2^-k w(A), and no product of entries overflows
        try:
            return math.ldexp(numerical_radius(a * 2.0**-k), k)
        except OverflowError:
            raise ValueError("numerical radius overflows float64") from None

    thetas = 2.0 * np.pi * np.arange(RADIUS_GRID) / RADIUS_GRID
    half = RADIUS_GRID // 2  # Re(e^{i(theta + pi)} A) = -Re(e^{i theta} A)
    stack = np.exp(1j * thetas[:half])[:, None, None] * a[None, :, :]
    ev = np.linalg.eigvalsh((stack + stack.conj().transpose(0, 2, 1)) * 0.5)
    g = np.concatenate((ev[:, -1], -ev[:, 0]))

    best = float(np.max(g))
    starts = np.flatnonzero((g >= np.roll(g, 1)) & (g >= np.roll(g, -1)))

    h = 2.0 * np.pi / RADIUS_GRID
    re, im = re_part(a), im_part(a)
    gtol = 64.0 * np.finfo(float).eps * float(np.linalg.norm(a))
    for i in starts:
        best = max(best, _radius_ascent(a, re, im, float(thetas[i]), h, gtol)[0])
    return best
