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
matrices P*AP and P*P (_log_terms).  The search takes a list of operators:
every start of every operator, at every level, climbs in one lockstep
ascent (_lockstep_ascent) over stacked jets and stacked matrix products,
holding a point on the disk's edge to the circle; each value is the best
over its iterates.  Each row of the batch runs the float operations of a
scalar ascent in their order (CPython's complex arithmetic on split real
arrays, Python's sums, math.hypot), so an operator's estimate has the same
bits in any batch as alone.  Estimates at level L take the best value over
levels 0..L, so refinement never loses ground.  Every disk search goes
through one memo path (_searches), for a batch of (operator, norm) at once:
both quantities scale as |c| under A -> cA, so it searches A = 2^k U, U's
largest real or imaginary component in [1/2, 1), and returns 2^k times U's
value, one search per operator up to a power of two inside a
computation_scope, bit for bit the direct search's, as scaling by 2^k
commutes with rounding.  A lone berezin_number or berezin_norm call is a
batch of one, berezin_pair a batch of two; a campaign trial, or one
inequalities.check, runs all of its searches in one batch, and
`berezin eval` fills the memo ahead of its number and norm in one batch.

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

import math
from dataclasses import dataclass

import numpy as np

from ._cache import array_key, memo, scoped
from .errors import DimensionMismatch, PointOutOfDomain
from .linalg import UNSCALED_MAX, _pow2_exponent, as_complex_matrix, im_part, re_part
from .models import (
    BASE_ANGLES, BASE_RADII, KernelModel, OmegaGrid, _check_level, _jet, default_grid,
    kernel_matrix, normalized_kernel,
)

# Grid local maxima climbed per level by the disk sup search.
TOP_K = 5
# Complex values per block of the grid stage (4 MiB of complex128): pair
# values of the norm, or the number's products A K over several operators.
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
    """<A k, k> for each kernel column k of kmat, for one operator or a stack
    of them (each row then has the bits of its operator alone)."""
    return np.einsum("ij,...ij->...j", kmat.conj(), a @ kmat)


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


# Complex arithmetic on split real parts, each complex array a pair (re, im)
# of float arrays.  numpy's complex product, quotient and modulus round
# differently from CPython's on many inputs; the ascent uses CPython's
# formulas on arrays, so each row of a batch gets the bits that Python
# complex arithmetic on that row alone gives (pinned in test_calc).

def _cmul(ar, ai, br, bi):
    """a * b as CPython multiplies complex numbers: (ar br - ai bi) +
    i (ar bi + ai br), each product and sum rounded on its own."""
    return ar * br - ai * bi, ar * bi + ai * br


def _cdiv(ar, ai, br, bi):
    """a / b as CPython divides complex numbers (Smith's method): scaled by
    b's real part where |br| >= |bi|, else by its imaginary part.  NaN where b
    has a NaN, and where b = 0, on which Python raises (no caller divides by
    0 in a row it keeps)."""
    big = np.abs(br) >= np.abs(bi)
    with np.errstate(divide="ignore", invalid="ignore"):  # in the branch not taken
        ratio = np.where(big, bi / br, br / bi)
        denom = np.where(big, br + bi * ratio, br * ratio + bi)
        return (np.where(big, ar + ai * ratio, ar * ratio + ai) / denom,
                np.where(big, ai - ar * ratio, ai * ratio - ar) / denom)


def _twice(zr, zi):
    """2.0 * z as Python computes it, the float taken as complex(2.0, 0.0)."""
    return 2.0 * zr - 0.0 * zi, 2.0 * zi + 0.0 * zr


def _modulus(z):
    """|z| of a complex array as Python's abs computes it (C hypot), and
    where it overflows from finite parts, on which abs raises OverflowError."""
    m = np.hypot(z.real, z.imag)
    return m, np.isinf(m) & np.isfinite(z.real) & np.isfinite(z.imag)


def _pysum(t):
    """Sums along the last axis in the order of Python's sum, which starts
    from the integer 0 (so 0 + (-0.0) gives 0.0)."""
    s = 0.0 + t[..., 0]
    for i in range(1, t.shape[-1]):
        s = s + t[..., i]
    return s


def _check_start(model: KernelModel, point) -> None:
    """The one domain check of an ascent: its iterates are projected onto
    the disk, so they stay in the domain that kernel_matrix and
    normalized_kernel check once the start does."""
    if not abs(point) <= model.radius * (1.0 + 1e-12):  # NaN fails too
        raise PointOutOfDomain(f"refinement start {point!r} outside the domain")


def _log_terms(q):
    """Columns h1, h2, h11, h12, h22 (re and im, each rows x 5) of h = log H,
    H holomorphic in (z1, z2), one row per 3x3 complex matrix of q.

    q[:, a, b] is H's derivative of order a in z2 and b in z1.
    """
    num, q00 = q[:, (0, 1, 0, 1, 2), (1, 0, 2, 1, 0)], q[:, :1, 0]  # q01 q10 q02 q11 q20
    rr, ri = _cdiv(num.real, num.imag, q00.real, q00.imag)
    pr, pi = _cmul(rr[:, (0, 0, 1)], ri[:, (0, 0, 1)], rr[:, (0, 1, 1)], ri[:, (0, 1, 1)])
    rr[:, 2:] -= pr  # - h1 h1, h1 h2, h2 h2
    ri[:, 2:] -= pi
    return rr, ri


def _diagonal(tr, ti):
    """Gradient (rows x 2) and Hessian (rows x 2 x 2) in (Re w, Im w) of
    Re h(w, conj(w)), from _log_terms' columns."""
    (h1r, h2r, h11r, h12r, h22r), (h1i, h2i, h11i, h12i, h22i) = tr.T, ti.T
    t = 2.0 * h12r - 0.0 * h12i  # (2.0 * h12).real
    grad, hess = np.empty((len(tr), 2)), np.empty((len(tr), 2, 2))
    grad[:, 0], grad[:, 1] = h1r + h2r, h2i - h1i
    hess[:, 0, 0], hess[:, 1, 1] = h11r + t + h22r, t - h11r - h22r
    hess[:, 0, 1] = hess[:, 1, 0] = h22i - h11i
    return grad, hess


def _block(cr, ci):
    """Hessian blocks (rows x 2 x 2) of Re h in (Re z, Im z) from c = h_zz
    (holomorphic, re and im)."""
    b = np.empty((len(cr), 2, 2))
    b[:, 0, 0], b[:, 1, 1] = cr, -cr
    b[:, 0, 1] = b[:, 1, 0] = -ci
    return b


def _derivatives(jet, a, x, pair):
    """Per row of x, the value at its point or pair, the gradient and
    Hessian in x of its log-square, and whether the value overflowed from
    finite parts.  a[row] is the row's operator (rows x n x n); x lists
    (Re w, Im w) and, where `pair`, (Re mu, Im mu), as wide for every row (a
    point row's mu is absent, 0, with zero derivatives).

    A point row is |symbol| at lam = conj(w), with G = log|N|^2 - 2 log D,
    N = p*Ap and D = ||p||^2: N(w) = H(w, conj(w)) for H(z1, z2) =
    p(z2)^T A p(z1), and D likewise with A = I, so both come from the 3x3
    matrices P*AP and P*P.  A pair row is |<A k_lam, k_mu>| at lam =
    conj(w), with F = log|M|^2 - log D(w) - log D(mu), M = p(mu)^T A p(w)
    holomorphic in (w, mu), so its terms come from P(mu)^T A P(w), each log
    D being a diagonal restriction as for a point.  All rows share one jet,
    three stacked products and one _log_terms.  The gradient is NaN where N
    or M is 0.
    """
    one, two = np.flatnonzero(~pair), np.flatnonzero(pair)
    n1, k = len(one), len(x)
    order = np.concatenate((one, two))
    z = x.view(complex)
    p = jet(np.concatenate((z[one, 0], z[two, 0], z[two, -1])))  # w of points; w, mu of pairs
    ap = a[order] @ p[:k]
    q = np.concatenate((p[:n1].conj(), p[k:])).transpose(0, 2, 1) @ ap  # P*AP; P(mu)^T A P(w)
    e = p.conj().transpose(0, 2, 1) @ p  # P*P at every point
    d = e[:, 0, 0].real
    val, over = np.empty(k), np.empty(k, dtype=bool)
    val[order], over[order] = _modulus(q[:, 0, 0])
    val[order] /= np.concatenate((d[:n1], np.sqrt(d[n1:k] * d[k:])))
    tr, ti = _log_terms(np.concatenate((q, e)))
    tr[:n1] -= tr[k:k + n1]  # a point's log N minus log D
    ti[:n1] -= ti[k:k + n1]
    hr, hi = _twice(tr[:k], ti[:k])
    g, h = _diagonal(np.concatenate((hr[:n1], tr[k + n1:])),
                     np.concatenate((hi[:n1], ti[k + n1:])))
    grad, hess = np.zeros(x.shape), np.zeros(x.shape + x.shape[1:])
    grad[one, :2], hess[one, :2, :2] = g[:n1], h[:n1]
    if len(two):  # D(w) and D(mu) of the pairs follow the points' terms
        (h1r, h2r, h11r, h12r, h22r), (h1i, h2i, h11i, h12i, h22i) = hr[n1:].T, hi[n1:].T
        gw, gm, hw, hm = g[n1:k], g[k:], h[n1:k], h[k:]
        grad[two] = np.stack((h1r - gw[:, 0], -h1i - gw[:, 1], h2r - gm[:, 0], -h2i - gm[:, 1]), 1)
        hess[two, :2, :2], hess[two, 2:, 2:] = _block(h11r, h11i) - hw, _block(h22r, h22i) - hm
        hess[two, :2, 2:] = hess[two, 2:, :2] = _block(h12r, h12i)  # minus 0.0: the same bits
    grad[val == 0.0] = np.nan
    return val, grad, hess, over


def _newton_steps(hess, g, used):
    """Per row, -hess^{-1} g over the coordinates `used` (rows x k, bool),
    0 on the others, and whether hess is negative definite on them:
    Gaussian elimination on -hess without pivoting, whose pivots are all
    positive exactly when -hess is positive definite (the step is
    meaningless where they are not).  An unused coordinate is skipped as a
    pivot and left out of the back-substitution's sums, so each row's bits
    are those of the elimination on its used coordinates alone."""
    k = g.shape[1]
    m = np.concatenate((-hess, g[:, :, None]), axis=2)
    ok = np.ones(len(g), dtype=bool)
    for i in range(k):
        pivot = used[:, i]
        ok &= ~pivot | (m[:, i, i] > 0.0)
        if i + 1 < k:  # each row below the pivot: u - (m[r][i] / m[i][i]) v
            rows = m[:, i + 1:] - (m[:, i + 1:, i] / m[:, i, i, None])[:, :, None] * m[:, i, None]
            if not pivot.all():
                rows = np.where(pivot[:, None, None], rows, m[:, i + 1:])
            m[:, i + 1:] = rows
    mz = np.where(used[:, None, :], m[:, :, :k], 0.0)  # an unused column adds exact zeros
    d = np.zeros_like(g)
    for i in reversed(range(k)):  # a Python sum from 0 over the coordinates after i
        rhs = m[:, i, k] - _pysum(mz[:, i, i + 1:] * d[:, i + 1:]) if i + 1 < k else m[:, i, k]
        d[:, i] = np.where(used[:, i], rhs / m[:, i, i], 0.0)
    return d, ok


def _tangent_basis(x, g, edge2, present):
    """The step coordinates of each row of x, two slots per point: a point on
    the edge whose gradient points outward (g.z > 0) steps along its unit
    tangent (-y, x)/|z| in its first slot and leaves the second unused;
    another point steps in its own two coordinates, and a point not
    `present` (rows x points, bool; it sits at 0 with zero derivatives) in
    none.  Returns, per slot (rows x dim), the weights u0 on x's coordinate
    of the same index and u1 on the point's second coordinate (0 but on the
    edge), the curvature term (-g.z/|z|^2 on the edge, else 0), whether the
    slot is used, and which points are on the edge."""
    zx, zy = x[:, 0::2], x[:, 1::2]
    r2 = zx * zx + zy * zy
    out = g[:, 0::2] * zx + g[:, 1::2] * zy
    edge = (r2 >= edge2) & (out > 0.0)
    r = np.sqrt(r2)
    u0, u1, curv = np.zeros(x.shape), np.zeros(x.shape), np.zeros(x.shape)
    used = np.empty(x.shape, dtype=bool)
    used[:, 0::2], used[:, 1::2] = present, present & ~edge
    u0[:, 0::2], u0[:, 1::2] = np.where(edge, -zy / r, present), used[:, 1::2]
    u1[:, 0::2], curv[:, 0::2] = np.where(edge, zx / r, 0.0), np.where(edge, -out / r2, 0.0)
    return u0, u1, curv, used, edge


def _lockstep_ascent(derivatives, x, present, h, radius: float):
    """Safeguarded Newton ascents in lockstep, one per row of x, each over the
    points of its row that are `present` (rows x points, bool) in |z| <=
    radius.

    x lists (Re z, Im z) of each point, two columns per point, 0 for one not
    present; derivatives(rows, xr) returns, for the ascents `rows` at their
    iterates xr, the values, the gradients and Hessians of their
    log-squares in x (NaN where undefined, 0 in an absent point's
    coordinates) and whether a value overflowed.  A point on the edge
    whose gradient points outward moves along the circle: its two
    coordinates give way to the unit tangent, with curvature term
    -g.z/|z|^2 (_tangent_basis).  The step is Newton's where the Hessian is
    negative definite and otherwise the gradient step that maximises the
    quadratic model, or h where the model is not concave along the gradient.
    It is clipped to length h (one per row), and each point is then
    projected onto the disk.  An ascent stops on a non-finite value or
    derivative, on a step below 1e-13 radius, on a gradient step whose
    gradient is below 1e-14 / h, or after 16 evaluations.  Returns per row
    the largest value over the iterates, its x, and whether a value
    overflowed.

    Each row runs the float operations of one scalar ascent in its order:
    sums as Python's sum, complex arithmetic as CPython's, and the
    projection's modulus as math.hypot, so a row's bits do not depend on the
    other rows of the batch.  Unused slots and absent points
    (_tangent_basis) hold exact zeros, which leave every sum as it was.
    """
    rows, dim = x.shape
    best, arg, over = np.full(rows, -1.0), x.copy(), np.zeros(rows, dtype=bool)
    edge2 = (radius * (1.0 - 1e-12)) ** 2
    near = radius * (1.0 - 1e-15)  # np.hypot is within an ulp of math.hypot: a
    # point whose np.hypot reaches `near` gets math.hypot's, the others stay
    live, x = np.arange(rows), x.copy()
    odd = np.arange(dim) | 1  # each slot's point's second coordinate
    for it in range(16):
        xl = x[live]
        val, g, hess, ovf = derivatives(live, xl)
        over[live] |= ovf
        up = val > best[live]
        best[live[up]], arg[live[up]] = val[up], xl[up]
        keep = np.flatnonzero(np.isfinite(_pysum(g) + _pysum(_pysum(hess))))
        if it == 15 or not keep.size:
            break
        live, xl, g, hess, hl = live[keep], xl[keep], g[keep], hess[keep], h[live[keep]]
        u0, u1, curv, used, edge = _tangent_basis(xl, g, edge2, present[live])
        # each slot's sums over the columns it spans, in Python's order, from
        # 0; u1 weighs the point's second coordinate, so where u1 = 0 its term
        # is an exact zero
        gr = (0.0 + u0 * g) + u1 * g[:, odd]
        hr = 0.0
        for ua, ha in ((u0, hess), (u1, hess[:, odd])):
            for ub, hab in ((u0, ha), (u1, ha[:, :, odd])):
                hr = hr + (ua[:, :, None] * ub[:, None, :]) * hab
        diag = np.arange(dim)
        hr[:, diag, diag] += curv
        d, newton = _newton_steps(hr, gr, used)
        gg = _pysum(gr * gr)
        ghg = _pysum((gr[:, :, None] * gr[:, None, :] * hr).reshape(len(live), -1))
        scale = np.where(ghg < 0.0, gg / -ghg, hl / np.sqrt(gg))
        d = np.where(newton[:, None], d, np.where(used, scale[:, None] * gr, 0.0))
        size = np.sqrt(_pysum(d * d))
        go = ~(~newton & (gg * hl * hl <= 1e-28)) & ~(size < 1e-13 * radius)
        step = hl / size
        step = np.where(step < 1.0, step, 1.0)[:, None] * d  # min(1.0, h / size), NaN to 1.0
        xn = xl.copy()
        xn[:, 0::2] += step[:, 0::2] * u0[:, 0::2]
        xn[:, 1::2] += np.where(edge, step[:, 0::2] * u1[:, 0::2], step[:, 1::2] * u0[:, 1::2])
        for pt in range(dim // 2):
            zx, zy = xn[:, 2 * pt], xn[:, 2 * pt + 1]
            cand = np.flatnonzero(np.hypot(zx, zy) >= near)
            if cand.size:
                r = np.array(list(map(math.hypot, zx[cand].tolist(), zy[cand].tolist())))
                c, r = cand[r > radius], r[r > radius]
                xn[c, 2 * pt], xn[c, 2 * pt + 1] = zx[c] * radius / r, zy[c] * radius / r
        live = live[go]
        x[live] = xn[go]
        if not live.size:
            break
    return best, arg, over


def _ascend(model: KernelModel, ops: np.ndarray, starts: list):
    """Newton polish of every start in one lockstep ascent (_lockstep_ascent).

    ops stacks the operators (count x n x n, complex).  A start (i, level,
    pts) is a grid point (lam,) of |symbol| or a grid pair (lam, mu) of
    |<A k_lam, k_mu>| for A = ops[i]; it climbs in w = conj(lam), and mu,
    with steps clipped to its level's radial spacing (_derivatives); with
    pairs in the batch a point start carries an absent second point.
    Returns per start the value and the argmax, a point or a pair like the
    start, and per operator whether an ascent of it overflowed.
    """
    for _, _, pts in starts:
        for point in pts:
            _check_start(model, point)
    over = np.zeros(len(ops), dtype=bool)
    if not starts:
        return [], [], over
    which = np.array([i for i, _, _ in starts])
    pair = np.array([len(pts) == 2 for _, _, pts in starts])
    h = np.array([model.radius / (BASE_RADII * 2**lev) for _, lev, _ in starts])
    x0 = np.zeros((len(starts), 4 if pair.any() else 2))
    x0[:, :2] = [(pts[0].real, -pts[0].imag) for _, _, pts in starts]
    if pair.any():
        x0[pair, 2:] = [(pts[1].real, pts[1].imag) for _, _, pts in starts if len(pts) == 2]
    jet = _jet(model)
    present = np.stack((np.ones_like(pair), pair), axis=1)[:, :x0.shape[1] // 2]
    with np.errstate(all="ignore"):
        vals, x, ovf = _lockstep_ascent(
            lambda rows, xr: _derivatives(jet, ops[which[rows]], xr, pair[rows]),
            x0, present, h, model.radius)
    over[which[ovf]] = True
    args = [complex(s, -t) for s, t in x[:, :2].tolist()]
    for k in np.flatnonzero(pair).tolist():
        args[k] = args[k], complex(x[k, 2], x[k, 3])
    return vals.tolist(), args, over


def _peaks(vals: np.ndarray, level: int) -> list:
    """Per row of vals, one value per point of default_grid(level), the
    indices of its TOP_K best local maxima, ties to the lower index: the ring
    points >= their cyclic angle neighbours and the points directly inside
    (the origin, for ring 0) and outside them, and the origin if >= ring 0.
    Includes the argmax."""
    rows, n_ang = len(vals), BASE_ANGLES * 2**level
    ring = vals[:, 1:].reshape(rows, -1, n_ang)  # radius-major mesh
    ang = np.concatenate((ring[:, :, -1:], ring, ring[:, :, :1]), axis=2)
    rad = np.concatenate((np.repeat(vals[:, :1], n_ang, axis=1), vals[:, 1:],
                          np.full((rows, n_ang), -np.inf)), axis=1).reshape(rows, -1, n_ang)
    peak = ((ring >= ang[:, :, :-2]) & (ring >= ang[:, :, 2:])
            & (ring >= rad[:, :-2]) & (ring >= rad[:, 2:]))
    found = np.concatenate(((vals[:, 0] >= ring[:, 0].max(axis=1))[:, None],
                            peak.reshape(rows, -1)), axis=1)
    out = []
    for row, mask in zip(vals, found):
        idx = np.flatnonzero(mask)
        out.append(idx[np.argsort(-row[idx], kind="stable")[:TOP_K]])
    return out


def _grid_sup(model: KernelModel, searches: list, level: int) -> list:
    """The disk search behind berezin_number and berezin_norm, for a list of
    (operator, norm) searches at once, norm True for the Berezin norm: one
    SupEstimate or ValueError per search, each what that search alone gives.

    At each level 0..`level`, the grid's kernel matrix gives each search one
    value per grid point, |symbol| (from stacked products A K, as many
    operators at a time as fit in PAIR_BLOCK values) or the norm's row
    maximum (_row_max), and for the norm each point's partner mu.  The TOP_K
    best local maxima of those values on the grid (_peaks), ties to the
    lower index, are candidates, (lam,) or (lam, mu), and the starts of
    ascents; the starts of every level of every search climb in one
    lockstep ascent (_ascend).  An estimate is the best value over its
    search's candidates and ascents, taken in level and peak order.  A level
    outside models._check_level raises ValueError; a non-finite entry of an
    operator, or an operator near the float64 limit, whose grid or ascent
    overflows (a best value that is not finite, or a modulus past float64;
    the overflow warnings are silenced), gives a ValueError in its place, and
    an operator of the wrong shape a DimensionMismatch.
    """
    _check_level(model, level)
    n = model.dimension
    out: list = [DimensionMismatch(f"operator of shape {a.shape} on a dimension-{n} model")
                 if a.shape != (n, n) else None if np.isfinite(a).all()
                 else ValueError("operator has non-finite entries") for a, _ in searches]
    live = [i for i, a in enumerate(out) if a is None]
    stack = np.array([searches[i][0] for i in live], dtype=complex).reshape(-1, n, n)
    kinds = [[k for k, i in enumerate(live) if bool(searches[i][1]) is norm]
             for norm in (False, True)]
    cands = []  # (search, level, grid value, start), each search's in level and peak order
    with np.errstate(over="ignore", invalid="ignore"):
        for lev in range(level + 1 if live else 0):
            pts = default_grid(model, lev).points
            kmat = kernel_matrix(model, pts)
            step = max(1, PAIR_BLOCK // kmat.size)  # operators whose A K fit in a block
            for norm, ks in zip((False, True), kinds):
                for s in range(0, len(ks), step):
                    block = ks[s:s + step]
                    if norm:
                        vals, mus = map(np.array, zip(*(_row_max(stack[k], kmat) for k in block)))
                    else:
                        vals = np.abs(_symbols(stack[block], kmat))
                    for b, (k, peaks) in enumerate(zip(block, _peaks(vals, lev))):
                        for j in peaks:
                            start = (pts[j], pts[mus[b, j]]) if norm else (pts[j],)
                            cands.append((k, lev, vals[b, j], start))
    ref_vals, ref_args, over = _ascend(model, stack, [(k, lev, s) for k, lev, _, s in cands])
    best: list = [(-1.0, None)] * len(live)
    for (k, _, val, start), ref_val, ref_arg in zip(cands, ref_vals, ref_args):
        best_val, best_arg = best[k]
        if val > best_val:
            best_val, best_arg = float(val), (start[0] if len(start) == 1 else start)
        if ref_val > best_val:
            best_val, best_arg = ref_val, ref_arg
        best[k] = best_val, best_arg
    for i, (best_val, best_arg), overflowed in zip(live, best, over):
        if overflowed:  # Python's abs() raises on such a modulus
            out[i] = ValueError("disk estimate overflows float64 (absolute value too large)")
        elif best_arg is None or not math.isfinite(best_val):
            out[i] = ValueError(f"disk estimate overflows float64 (best value {best_val!r})")
        else:
            out[i] = SupEstimate(value=best_val, argmax=best_arg, exact=False)
    return out


def _pow2_splits(stack: np.ndarray):
    """(U, k, ok) for a stack of operators A (count x n x n, complex), in one
    array pass: A = 2^k U with U's largest real or imaginary component in
    [1/2, 1) where ok.  ok is False for a zero or non-finite operator, one
    above linalg.UNSCALED_MAX or with every component below 2^-1024 (2^-k
    would overflow), and one whose U * 2^k is not A (an entry would
    underflow); U and k mean nothing there."""
    m = np.maximum(np.abs(stack.real), np.abs(stack.imag)).max(axis=(1, 2))
    k = np.frexp(m)[1]
    ok = (m > 0.0) & (m <= UNSCALED_MAX) & (k >= -1023)  # NaN fails too
    k = np.where(ok, k, 0)  # so 2^-k stays finite
    with np.errstate(invalid="ignore"):  # inf * 0j, in a row that is not ok
        u = stack * np.ldexp(1.0, -k)[:, None, None]
    ok &= (u * np.ldexp(1.0, k)[:, None, None] == stack).all(axis=(1, 2))
    return u, k, ok


def _searches(model: KernelModel, level: int, searches: list) -> list:
    """The disk searches of berezin_number (norm False) and berezin_norm
    (norm True) for each (operator, norm) of `searches` on a continuous
    model: one SupEstimate or error per search (_grid_sup).

    Each operator A is searched as A = 2^k U (_pow2_splits, one array pass
    for the batch), or as itself when it does not split, through the
    current computation_scope's memo (a fresh dict outside a scope); the
    distinct searches not memoized go through one _grid_sup batch, numbers
    and norms in one lockstep ascent, and the successes are memoized, never
    the errors.  Inside a scope every power-of-two multiple of a searched
    operator so costs one ldexp, bit for bit the direct search: scaling by
    2^k commutes with rounding in the normal range, so every grid value and
    |q00| scales by 2^k, while the ascent sees only ratios (_log_terms), so
    its steps and the argmax do not move.
    """
    table = memo()
    table = {} if table is None else table
    shape = (model.dimension,) * 2
    fit = [a for a, _ in searches if a.shape == shape]
    units = zip(*_pow2_splits(np.array(fit, dtype=complex).reshape(-1, *shape)))
    todo, keys = {}, []
    for a, norm in searches:
        u, k, ok = next(units) if a.shape == shape else (a, 0, False)
        u, k = (u, int(k)) if ok else (a, 0)
        key = (_searches, model, array_key(u), level, norm)
        keys.append((key, k))
        if key not in table:
            todo.setdefault(key, (u, norm))
    done = dict(zip(todo, _grid_sup(model, list(todo.values()), level))) if todo else {}
    table.update((key, est) for key, est in done.items() if not isinstance(est, Exception))
    return [est if not k or isinstance(est, Exception)
            else SupEstimate(math.ldexp(est.value, k), est.argmax, False)
            for key, k in keys for est in [done.get(key) or table[key]]]


def _raised(results) -> list:
    """The list of `results`, raising the first exception among them."""
    results = list(results)
    for est in results:
        if isinstance(est, Exception):
            raise est
    return results


@scoped
def berezin_number(model: KernelModel, a: np.ndarray, level: int = 1) -> SupEstimate:
    """sup over the domain of |symbol|.

    Finite kind: exact, the largest diagonal modulus (first index wins ties).
    Continuous kinds: best of grid sampling plus local refinement over all
    levels up to `level` (_grid_sup); a lower bound for the true supremum.
    A bad level or a non-finite operator raises ValueError there.  The
    search runs once per operator up to a power of two (_searches).
    """
    _check_operand(model, a)
    if model.is_finite_kind:
        d = np.abs(np.diagonal(a))
        i = int(np.argmax(d))
        return SupEstimate(value=float(d[i]), argmax=i + 1, exact=True)
    return _raised(_searches(model, level, [(a, False)]))[0]


@scoped
def berezin_norm(model: KernelModel, a: np.ndarray, level: int = 1) -> SupEstimate:
    """sup over domain pairs of |<A k_lam, k_mu>|.

    Finite kind: exact, the largest entry modulus; the argmax pair is the
    first (lam, mu) in lam-major order attaining it.  Continuous kinds: grid
    row maxima plus refinement (_grid_sup), a lower bound; a bad level or a
    non-finite operator raises ValueError.  As for berezin_number, one
    search per operator up to a power of two (_searches).
    """
    _check_operand(model, a)
    if model.is_finite_kind:
        n = model.dimension
        flat = np.abs(a).T.reshape(-1)  # lam-major: (lam, mu) lexicographic
        k = int(np.argmax(flat))
        lam, mu = k // n + 1, k % n + 1
        return SupEstimate(value=float(flat[k]), argmax=(lam, mu), exact=True)
    return _raised(_searches(model, level, [(a, True)]))[0]


def berezin_pair(model: KernelModel, a: np.ndarray, level: int = 1) -> tuple[float, float]:
    """(number, norm): berezin_number and berezin_norm, on continuous kinds
    each lifted toward the other, so both stay lower bounds attained at
    domain points, for any operator.

    The number is raised to |symbol| at both points of the norm's argmax
    pair; for PSD A, |<A k_lam, k_mu>|^2 <= <A k_lam, k_lam> <A k_mu, k_mu>,
    so in exact arithmetic one of them reaches the norm estimate (in floating
    point the lifted norm can stay above the lifted number by rounding, a
    few ulps).  Then the norm is raised to the number, since diagonal pairs
    are pairs.  On continuous kinds both come from one _searches batch, so
    one lockstep ascent.  Finite kinds give both exact values.
    """
    if model.is_finite_kind:
        return berezin_number(model, a, level).value, berezin_norm(model, a, level).value
    _check_operand(model, a)
    return _lift(model, a, *_raised(_searches(model, level, [(a, True), (a, False)])))


def _lift(model: KernelModel, a: np.ndarray, norm: SupEstimate,
          number: SupEstimate) -> tuple[float, float]:
    """berezin_pair's (number, norm) from A's disk norm and number estimates:
    the number raised to |symbol| at both points of the norm's argmax pair,
    then the norm raised to the number."""
    bn = max(number.value, *(abs(berezin_symbol(model, a, pt)) for pt in norm.argmax))
    return bn, max(norm.value, bn)


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
