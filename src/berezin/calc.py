"""Berezin symbols, sup-type quantities and the numerical radius.

Finite-kind models admit exact evaluation: the Berezin number is the largest
diagonal modulus and the Berezin norm the largest entry modulus, both maxima
over finitely many kernel pairs.  Continuous models are sampled on nested
polar grids and refined locally, producing lower bounds attained at domain
points (exact=False).  Both quantities are sups of |<A k_lam, k_mu>|, the
number on the diagonal mu = lam, so one search (_grid_sup) serves both: at
each level it takes the best grid local maxima (_peaks) of |symbol|, or of
the row maximum max_mu |<A k_lam, k_mu>| (_row_max: a complex64 screen of
every pair, float64 values only for the mu that can hold a row's maximum),
and from each, or its pair (lam, mu), a safeguarded Newton ascent (_ascend)
climbs log|symbol|^2, or log|<A k_lam, k_mu>|^2 in the four real coordinates
of the pair, on exact derivatives: with w = conj(lam) and p_j = c_j w^j, the
jet P = [p, p', p''] of models._jet gives every first and second derivative
through the 3x3 matrices P*AP and P*P (_log_terms).  The search takes a list
of operators: every start of every operator, at every level, climbs in one
lockstep ascent (_lockstep_ascent) over stacked jets and stacked matrix
products, holding a point on the disk's edge to the circle; each value is
the best over its iterates.  The grid values and the ascent use only numpy
operations that give a row the same bits wherever it sits in the batch
(elementwise complex arithmetic, np.abs, np.hypot, last-axis sums over
C-contiguous rows, stacked matrix products; pinned in test_calc), so an
operator's estimate has the same bits in any batch as alone.  Estimates at
level L take the best value over levels 0..L, so refinement never loses
ground.  Every disk search goes through one path (_searches), for a batch
of (operator, norm) at once: both quantities scale as |c| under A -> cA, so
it searches A = 2^k U, U's largest real or imaginary component in [1/2, 1),
and returns 2^k times U's value, one search per operator up to a power of
two in the batch, bit for bit the direct search's, as scaling by 2^k
commutes with rounding.  A lone berezin_number or berezin_norm call is a
batch of one, berezin_pair a batch of two; a campaign trial, or one
inequalities.check, runs all of its searches in one batch, and `berezin
eval` its number and norm.  calc keeps no memo: across calls, a
computation_scope() shares only the kernel matrices (models.kernel_matrix).

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

from ._cache import array_key
from .errors import DimensionMismatch, PointOutOfDomain
from .linalg import UNSCALED_MAX, _pow2_exponent, as_complex_matrix, im_part, re_part
from .models import (
    BASE_ANGLES, BASE_RADII, KernelModel, OmegaGrid, _check_level, _jet, default_grid,
    kernel_matrix, normalized_kernel,
)

# Grid local maxima climbed per level by the disk sup search.
TOP_K = 5
# Complex values per block of the grid stage (4 MiB of complex128): the
# products A K over several operators, or the norm's refined candidates'
# products.  The norm's complex64 screen takes a quarter of it per block
# (512 KiB, 32 rows at least), which keeps a campaign's peak memory down.
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


def _row_max(ops: np.ndarray, kmat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For a stack of operators A (count x n x n) and each kernel column k_lam
    of kmat (n x m), max over the columns k_mu of |<A k_lam, k_mu>| and the
    first mu attaining it: (count x m) values and argmaxes.  Each value is
    the float64 elementwise one, np.abs((v * conj(k_mu)).sum(-1)) with
    v = A k_lam, whose bits do not depend on its position in an array, so a
    row's maximum is the same in any batch; a NaN is its row's first
    maximum.  A zero row v gives 0 at mu = 0 and a non-finite one NaN at
    mu = 0, without a search.

    Every other row is screened in complex64, in blocks of PAIR_BLOCK / 4
    pair values or 32 rows, whichever is more, so no m x m array exists: v
    is scaled by a power of two to v', its largest real or imaginary
    component in [1/2, 1) (np.ldexp on each part, so it cannot overflow),
    and one cgemm with kmat.conj() and a float32 np.abs give s_mu close to
    |<v', k_mu>|.  The candidates are the screen's argmax and every mu with
    s_mu >= max s - margin, margin = 16 (n + 4) u kappa ||v'||, u = 2^-24
    and kappa the largest column norm of kmat; only they get float64
    values, PAIR_BLOCK products at a time.  Most rows have one candidate,
    and a second max with the argmax masked finds those that have more.

    Why every mu attaining the float64 maximum is a candidate: let p_mu =
    |<v', k_mu>| exactly and f_mu the float64 value scaled like v'.  The
    casts to complex64 cost 2u, the complex inner product at most
    2 gamma_{n+2} in any summation order (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., sections 3.1 and 3.6) and np.abs 2u,
    each relative to sum_i |v'_i| |k_mu,i| <= kappa ||v'|| (Cauchy-Schwarz);
    with ||v'|| >= 1/2, the parts below float32's normal range add under
    n 2^-144 ||v'||.  So |s_mu - p_mu| <= e32 = 2.1 (n + 4) u kappa ||v'||
    for n below 10^5, and likewise |f_mu - p_mu| <= e64 with 2^-53 in place
    of u, for a row with 2^-1000 <= max |component of v| and
    4 n kappa max|component| < 2^1020: there float64 neither overflows nor
    loses more than n 2^-73 ||v|| to underflow.  If f_nu is the float64
    maximum and s the screen's, s_nu >= f_nu - e32 - e64 >= s - 2 (e32 +
    e64) >= s - margin, as 2 (e32 + e64) < 5 (n + 4) u kappa ||v'||; the
    rest of the factor covers the rounding of the margin itself.  Rows
    outside that range take every mu as a candidate, and so does every row
    when kappa is not finite (a kmat column that is not).
    """
    n, m = kmat.shape
    kc = kmat.conj()
    kc32, kct = kc.astype(np.complex64), np.ascontiguousarray(kc.T)
    kappa = np.linalg.norm(kmat, axis=0).max()
    akt = (ops @ kmat).transpose(0, 2, 1).reshape(-1, n)  # row (operator, lam) is v = A k_lam
    top = np.maximum(np.abs(akt.real), np.abs(akt.imag)).max(axis=1)
    live = (top > 0.0) & (top < math.inf)
    e = np.frexp(np.where(live, top, 1.0))[1][:, None]
    re, im = np.ldexp(akt.real, -e), np.ldexp(akt.imag, -e)
    screen = np.empty(akt.shape, dtype=np.complex64)
    screen.real, screen.imag = re, im
    margin = 16 * (n + 4) * 2.0**-24 * kappa * np.sqrt((re * re + im * im).sum(axis=1))
    dense = ~((top >= 2.0**-1000) & (top * (4 * n * kappa) < 2.0**1020))
    vals, mus = np.where(top < math.inf, 0.0, math.nan), np.zeros(len(akt), dtype=np.intp)
    # each cgemm streams all of kc32, so a block takes 32 rows at least
    step, chunk = max(32, PAIR_BLOCK // (4 * m)), max(1, PAIR_BLOCK // n)
    for s in range(0, len(akt), step):
        rows = s + np.flatnonzero(live[s:s + step])
        if not rows.size:
            continue
        mods = np.abs(screen[rows] @ kc32)  # [lam, mu], float32
        k, arg = np.arange(rows.size), mods.argmax(axis=1)
        best = mods[k, arg]
        mods[k, arg] = -math.inf
        thr = best - margin[rows]
        wide = dense[rows] | (mods.max(axis=1) >= thr)
        mods[k, arg] = best
        one = rows[~wide]
        mus[one] = arg[~wide]
        vals[one] = np.abs((akt[one] * kct[mus[one]]).sum(-1))
        many = np.flatnonzero(wide)
        if many.size:
            sel = mods[many] >= thr[many, None]
            sel[dense[rows[many]]] = True
            i, j = np.nonzero(sel)
            ref = np.full(sel.shape, -math.inf)
            for c in range(0, i.size, chunk):
                ic, jc = i[c:c + chunk], j[c:c + chunk]
                ref[ic, jc] = np.abs((akt[rows[many[ic]]] * kct[jc]).sum(-1))
            arg = ref.argmax(axis=1)
            vals[rows[many]], mus[rows[many]] = ref[np.arange(many.size), arg], arg
    return vals.reshape(-1, m), mus.reshape(-1, m)


def _check_start(model: KernelModel, point) -> None:
    """The one domain check of an ascent: its iterates are projected onto
    the disk, so they stay in the domain that kernel_matrix and
    normalized_kernel check once the start does."""
    if not abs(point) <= model.radius * (1.0 + 1e-12):  # NaN fails too
        raise PointOutOfDomain(f"refinement start {point!r} outside the domain")


def _log_terms(q):
    """Columns h1, h2, h11, h12, h22 (rows x 5, complex) of h = log H, H
    holomorphic in (z1, z2), one row per 3x3 complex matrix of q.

    q[:, a, b] is H's derivative of order a in z2 and b in z1.
    """
    r = q[:, (0, 1, 0, 1, 2), (1, 0, 2, 1, 0)] / q[:, :1, 0]  # q01 q10 q02 q11 q20 over q00
    r[:, 2:] -= r[:, (0, 0, 1)] * r[:, (0, 1, 1)]  # - h1 h1, h1 h2, h2 h2
    return r


def _diagonal(t):
    """Gradient (rows x 2) and Hessian (rows x 2 x 2) in (Re w, Im w) of
    Re h(w, conj(w)), from _log_terms' columns."""
    h1, h2, h11, h12, h22 = t.T
    t12 = 2.0 * h12.real
    grad, hess = np.empty((len(t), 2)), np.empty((len(t), 2, 2))
    grad[:, 0], grad[:, 1] = h1.real + h2.real, h2.imag - h1.imag
    hess[:, 0, 0], hess[:, 1, 1] = h11.real + t12 + h22.real, t12 - h11.real - h22.real
    hess[:, 0, 1] = hess[:, 1, 0] = h22.imag - h11.imag
    return grad, hess


def _block(c):
    """Hessian blocks (rows x 2 x 2) of Re h in (Re z, Im z) from the complex
    column c = h_zz (h holomorphic)."""
    b = np.empty((len(c), 2, 2))
    b[:, 0, 0], b[:, 1, 1] = c.real, -c.real
    b[:, 0, 1] = b[:, 1, 0] = -c.imag
    return b


def _derivatives(jet, a, x, pair):
    """Per row of x, the value at its point or pair (inf where its modulus
    overflows), and the gradient and Hessian in x of its log-square.
    a[row] is the row's operator (rows x n x n); x lists
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
    val = np.empty(k)
    val[order] = np.abs(q[:, 0, 0]) / np.concatenate((d[:n1], np.sqrt(d[n1:k] * d[k:])))
    t = _log_terms(np.concatenate((q, e)))
    t[:n1] -= t[k:k + n1]  # a point's log N minus log D
    ht = 2.0 * t[:k]
    g, h = _diagonal(np.concatenate((ht[:n1], t[k + n1:])))
    grad, hess = np.zeros(x.shape), np.zeros(x.shape + x.shape[1:])
    grad[one, :2], hess[one, :2, :2] = g[:n1], h[:n1]
    if len(two):  # D(w) and D(mu) of the pairs follow the points' terms
        h1, h2, h11, h12, h22 = ht[n1:].T
        gw, gm, hw, hm = g[n1:k], g[k:], h[n1:k], h[k:]
        grad[two] = np.stack((h1.real - gw[:, 0], -h1.imag - gw[:, 1],
                              h2.real - gm[:, 0], -h2.imag - gm[:, 1]), 1)
        hess[two, :2, :2], hess[two, 2:, 2:] = _block(h11) - hw, _block(h22) - hm
        hess[two, :2, 2:] = hess[two, 2:, :2] = _block(h12)
    grad[val == 0.0] = np.nan
    return val, grad, hess


def _newton_steps(hess, g, used):
    """Per row, -hess^{-1} g over the coordinates `used` (rows x k, bool),
    0 on the others, and whether hess is negative definite on them:
    Gaussian elimination on -hess without pivoting, whose pivots are all
    positive exactly when -hess is positive definite (the step is
    meaningless where they are not).  An unused coordinate is skipped as a
    pivot and adds exact zeros to the back-substitution's sums, so a row's
    step does not depend on how many unused coordinates the batch gives it."""
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
    for i in reversed(range(k)):
        rhs = m[:, i, k] - (mz[:, i, i + 1:] * d[:, i + 1:]).sum(1) if i + 1 < k else m[:, i, k]
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
    iterates xr, the values and the gradients and Hessians of their
    log-squares in x (NaN where undefined, 0 in an absent point's
    coordinates).  A point on the edge whose gradient points outward moves
    along the circle: its two coordinates give way to the unit tangent, with
    curvature term -g.z/|z|^2 (_tangent_basis).  The step is Newton's where
    the Hessian is negative definite and otherwise the gradient step that
    maximises the quadratic model, or h where the model is not concave along
    the gradient.  It is clipped to length h (one per row), and each point
    is then projected onto the disk.  An ascent stops on a non-finite value
    or derivative, on a step below 1e-13 radius, on a gradient step whose
    gradient is below 1e-14 / h, or after 16 evaluations.  Returns per row
    the largest value over the iterates and its x.

    Every operation is elementwise, or a sum over a row's at most four slots,
    so a row's bits do not depend on the other rows of the batch.  Unused
    slots and absent points (_tangent_basis) hold exact zeros, which leave
    every sum as it was, so a point ascent's bits do not depend on whether
    the batch has pairs.
    """
    rows, dim = x.shape
    best, arg = np.full(rows, -1.0), x.copy()
    edge2 = (radius * (1.0 - 1e-12)) ** 2
    live, x = np.arange(rows), x.copy()
    odd = np.arange(dim) | 1  # each slot's point's second coordinate
    for it in range(16):
        xl = x[live]
        val, g, hess = derivatives(live, xl)
        up = val > best[live]
        best[live[up]], arg[live[up]] = val[up], xl[up]
        keep = np.flatnonzero(np.isfinite(g.sum(1) + hess.sum(2).sum(1)))
        if it == 15 or not keep.size:
            break
        live, xl, g, hess, hl = live[keep], xl[keep], g[keep], hess[keep], h[live[keep]]
        u0, u1, curv, used, edge = _tangent_basis(xl, g, edge2, present[live])
        # in slot coordinates: the slot basis B has u0 on each slot's own
        # coordinate and u1 on its point's second one; gr = B^T g, hr = B^T H B
        gr = u0 * g + u1 * g[:, odd]
        bh = u0[:, :, None] * hess + u1[:, :, None] * hess[:, odd]
        hr = bh * u0[:, None, :] + bh[:, :, odd] * u1[:, None, :]
        diag = np.arange(dim)
        hr[:, diag, diag] += curv
        d, newton = _newton_steps(hr, gr, used)
        gg = (gr * gr).sum(1)
        ghg = (gr[:, :, None] * gr[:, None, :] * hr).sum(2).sum(1)
        scale = np.where(ghg < 0.0, gg / -ghg, hl / np.sqrt(gg))
        d = np.where(newton[:, None], d, np.where(used, scale[:, None] * gr, 0.0))
        size = np.sqrt((d * d).sum(1))
        go = ~(~newton & (gg * hl * hl <= 1e-28)) & ~(size < 1e-13 * radius)
        step = hl / size
        step = np.where(step < 1.0, step, 1.0)[:, None] * d  # min(1.0, h / size), NaN to 1.0
        xn = xl.copy()
        xn[:, 0::2] += step[:, 0::2] * u0[:, 0::2]
        xn[:, 1::2] += np.where(edge, step[:, 0::2] * u1[:, 0::2], step[:, 1::2] * u0[:, 1::2])
        r = np.hypot(xn[:, 0::2], xn[:, 1::2]).repeat(2, axis=1)
        xn = np.where(r > radius, xn * radius / r, xn)  # onto the disk
        live = live[go]
        x[live] = xn[go]
        if not live.size:
            break
    return best, arg


def _ascend(model: KernelModel, ops: np.ndarray, starts: list):
    """Newton polish of every start in one lockstep ascent (_lockstep_ascent).

    ops stacks the operators (count x n x n, complex).  A start (i, level,
    pts) is a grid point (lam,) of |symbol| or a grid pair (lam, mu) of
    |<A k_lam, k_mu>| for A = ops[i]; it climbs in w = conj(lam), and mu,
    with steps clipped to its level's radial spacing (_derivatives); with
    pairs in the batch a point start carries an absent second point.
    Returns per start the value (inf where a modulus overflowed) and the
    argmax, a point or a pair like the start.
    """
    for _, _, pts in starts:
        for point in pts:
            _check_start(model, point)
    if not starts:
        return [], []
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
        vals, x = _lockstep_ascent(
            lambda rows, xr: _derivatives(jet, ops[which[rows]], xr, pair[rows]),
            x0, present, h, model.radius)
    args = [complex(s, -t) for s, t in x[:, :2].tolist()]
    for k in np.flatnonzero(pair).tolist():
        args[k] = args[k], complex(x[k, 2], x[k, 3])
    return vals.tolist(), args


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
    value per grid point, |symbol| or the norm's row maximum (_row_max),
    both from stacked products A K, as many operators at a time as fit in
    PAIR_BLOCK values, and for the norm each point's partner mu.  The TOP_K
    best local maxima of those values on the grid (_peaks), ties to the
    lower index, are candidates, (lam,) or (lam, mu), and the starts of
    ascents; the starts of every level of every search climb in one
    lockstep ascent (_ascend).  An estimate is the best value over its
    search's candidates and ascents, taken in level and peak order.  A level
    outside models._check_level raises ValueError; a non-finite entry of an
    operator, or an operator near the float64 limit, whose grid or ascent
    overflows (a best value that is not finite, as an overflowing modulus
    is inf; the overflow warnings are silenced), gives a ValueError in its
    place, and an operator of the wrong shape a DimensionMismatch.
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
                        vals, mus = _row_max(stack[block], kmat)
                    else:
                        vals = np.abs(_symbols(stack[block], kmat))
                    for b, (k, peaks) in enumerate(zip(block, _peaks(vals, lev))):
                        for j in peaks:
                            start = (pts[j], pts[mus[b, j]]) if norm else (pts[j],)
                            cands.append((k, lev, vals[b, j], start))
    ref_vals, ref_args = _ascend(model, stack, [(k, lev, s) for k, lev, _, s in cands])
    best: list = [(-1.0, None)] * len(live)
    for (k, _, val, start), ref_val, ref_arg in zip(cands, ref_vals, ref_args):
        best_val, best_arg = best[k]
        if val > best_val:
            best_val, best_arg = float(val), (start[0] if len(start) == 1 else start)
        if ref_val > best_val:
            best_val, best_arg = ref_val, ref_arg
        best[k] = best_val, best_arg
    for i, (best_val, best_arg) in zip(live, best):
        if best_arg is None or not math.isfinite(best_val):
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
    for the batch), or as itself when it does not split; the distinct
    (U, norm) of the batch go through one _grid_sup batch, numbers and norms
    in one lockstep ascent.  Every power-of-two multiple of an operator in
    the batch so costs one ldexp, bit for bit the direct search: scaling by
    2^k commutes with rounding in the normal range, so every grid value and
    |q00| scales by 2^k, while the ascent sees only ratios (_log_terms), so
    its steps and the argmax do not move.
    """
    shape = (model.dimension,) * 2
    fit = [a for a, _ in searches if a.shape == shape]
    units = zip(*_pow2_splits(np.array(fit, dtype=complex).reshape(-1, *shape)))
    todo, keys = {}, []
    for a, norm in searches:
        u, k, ok = next(units) if a.shape == shape else (a, 0, False)
        u, k = (u, int(k)) if ok else (a, 0)
        key = (array_key(u), norm)
        keys.append((key, k))
        todo.setdefault(key, (u, norm))
    done = dict(zip(todo, _grid_sup(model, list(todo.values()), level)))
    return [est if not k or isinstance(est, Exception)
            else SupEstimate(math.ldexp(est.value, k), est.argmax, False)
            for key, k in keys for est in [done[key]]]


def _raised(results) -> list:
    """The list of `results`, raising the first exception among them."""
    results = list(results)
    for est in results:
        if isinstance(est, Exception):
            raise est
    return results


def berezin_number(model: KernelModel, a: np.ndarray, level: int = 1) -> SupEstimate:
    """sup over the domain of |symbol|.

    Finite kind: exact, the largest diagonal modulus (first index wins ties).
    Continuous kinds: best of grid sampling plus local refinement over all
    levels up to `level` (_grid_sup); a lower bound for the true supremum.
    A bad level or a non-finite operator raises ValueError there.
    """
    _check_operand(model, a)
    if model.is_finite_kind:
        d = np.abs(np.diagonal(a))
        i = int(np.argmax(d))
        return SupEstimate(value=float(d[i]), argmax=i + 1, exact=True)
    return _raised(_searches(model, level, [(a, False)]))[0]


def berezin_norm(model: KernelModel, a: np.ndarray, level: int = 1) -> SupEstimate:
    """sup over domain pairs of |<A k_lam, k_mu>|.

    Finite kind: exact, the largest entry modulus; the argmax pair is the
    first (lam, mu) in lam-major order attaining it.  Continuous kinds: grid
    row maxima plus refinement (_grid_sup), a lower bound; a bad level or a
    non-finite operator raises ValueError.
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
