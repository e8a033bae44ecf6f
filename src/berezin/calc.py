"""Berezin symbols, sup-type quantities, the numerical radius, and the
antidiagonal witness that separates the Berezin number from the norm.

Finite-kind models admit exact evaluation: the Berezin number is the largest
diagonal modulus and the Berezin norm the largest entry modulus, both maxima
over finitely many kernel pairs.  Continuous models are sampled on nested
polar grids and refined locally, producing lower bounds attained at domain
points (exact=False).  The refinement runs three rounds of alternating
golden-section search over radius and angle around the best grid points;
along each search line the value is a ratio of polynomials in the moving
coordinate, evaluated by Horner's rule (_Lines).  Estimates at level L take
the best value over levels 0..L, so refinement never loses ground.

The numerical radius is w(A) = max over theta of g(theta) = lambda_max(
Re(e^{i theta} A)).  One batched eigvalsh samples g on a 256-point grid;
from each grid peak a safeguarded Newton ascent (one eigh per step, with g'
and g'' from first- and second-order eigenvalue perturbation) finds the
stationary point.  The value is |<Ax, x>| at a top eigenvector x or a grid
value, so it is a lower bound on w(A) attained at a unit vector; normal
operators give their spectral radius to machine precision.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._cache import scoped
from .errors import DimensionMismatch, PointOutOfDomain
from .linalg import as_complex_matrix, im_part, is_hermitian, operator_norm, re_part
from .models import (
    KernelModel, OmegaGrid, _unit_kernel, _weights, default_grid, finite, kernel_matrix,
    normalized_kernel,
)
from .results import InequalityResult

# Multistart width for local refinement of grid maxima.
TOP_K = 5
# Iterations per golden-section pass when refining grid maxima.
REFINE_ITERS = 60
# Rounds of coordinate-alternating refinement.
REFINE_ROUNDS = 3
# theta sample count for the numerical radius.
RADIUS_GRID = 256

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class BerezinEvaluation:
    """Symbol value at one domain point."""

    point: object
    value: complex


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


def berezin_set_sample(model: KernelModel, a: np.ndarray, grid: OmegaGrid | None = None):
    """Symbol values at every grid point, in grid order.

    Without an explicit grid the model's level-0 default grid is used.
    """
    _check_operand(model, a)
    if grid is None:
        grid = default_grid(model, 0)
    kmat = kernel_matrix(model, grid.points)
    vals = np.einsum("ij,ij->j", kmat.conj(), a @ kmat)
    return [
        BerezinEvaluation(point=p, value=complex(v))
        for p, v in zip(grid.points, vals)
    ]


def _golden_max(f, lo: float, hi: float, iters: int):
    """Golden-section search for a maximum; returns the best point seen.

    Endpoints are evaluated too, so boundary maxima are not lost.  Runs
    `iters` interior steps.
    """
    best_x, best_f = lo, f(lo)
    fh = f(hi)
    if fh > best_f:
        best_x, best_f = hi, fh
    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    for x, v in ((c, fc), (d, fd)):
        if v > best_f:
            best_x, best_f = x, v
    return best_x, best_f


def _top_k(v: np.ndarray) -> np.ndarray:
    """Flat indices of the TOP_K largest entries of v, largest first.

    Equal to np.argsort(-v.ravel(), kind="stable")[:TOP_K] (ties by C-order
    index, NaN last), but only the entries at or above the K-th largest get
    sorted, and a non-contiguous view (a transpose) is not copied.
    """
    if v.size <= TOP_K:
        return np.argsort(-v.ravel(), kind="stable")
    neg = np.negative(v).ravel(order="K")  # a fresh array, ours to partition
    neg.partition(TOP_K - 1)
    # -v[i] <= kth  <=>  not (v[i] < -kth); NaN entries (and all of v when
    # kth is NaN) stay candidates, and the stable sort puts NaN last.
    cand = np.flatnonzero(~(v < -neg[TOP_K - 1]))
    return cand[np.argsort(-v.flat[cand], kind="stable")[:TOP_K]]


def _polar_brackets(model: KernelModel, point: complex, level: int):
    """Refinement brackets around a grid point, clipped to the domain.

    Every golden-section point lies inside these brackets, so one check of
    the start point here stands for the per-point domain check of
    _unit_kernel: |point| <= radius bounds both radial ends.
    """
    n_ang = 16 * (2**level)
    n_rad = 8 * (2**level)
    dr = model.radius / n_rad
    dth = 2.0 * np.pi / n_ang
    r0 = abs(point)
    if not r0 <= model.radius * (1.0 + 1e-12):  # NaN fails too
        raise PointOutOfDomain(f"refinement start {point!r} outside the domain")
    th0 = math.atan2(point.imag, point.real)
    r_lo, r_hi = max(0.0, r0 - dr), min(model.radius, r0 + dr)
    return (r_lo, r_hi, r0), (th0 - dth, th0 + dth, th0)


def _horner(coef, x):
    """sum coef[k] x^(deg - k), coefficients highest degree first."""
    acc = 0.0
    for c in coef:
        acc = acc * x + c
    return acc


class _Lines:
    """|<A k_lam, k_mu>| along one golden-section line, as a polynomial ratio.

    The raw kernel is raw_j(lam) = c_j conj(lam)^j, with c_j = 1 (hardy),
    sqrt(j+1) (bergman) or 1/sqrt(j!) (fock), as in models._weights.  A
    line is a ray (angle t fixed, radius moving) or a circle (radius r
    fixed, angle moving).  Each method builds its line's coefficients once
    and returns the value as a function of the moving coordinate, evaluated
    by Horner's rule.  Points are not checked: the callers check the
    bracket that holds them.
    """

    def __init__(self, model: KernelModel):
        w = _weights(model)
        n = model.dimension
        if w.scale is None:
            self.c = np.ones(n)
        else:
            self.c = 1.0 / w.scale if w.divide else w.scale
        self.j = np.arange(n)
        self.den = (self.c * self.c)[::-1].tolist()  # ||raw||^2 as a polynomial in r^2
        self.anti = np.add.outer(self.j, self.j).ravel()  # i + j
        self.diag = (np.subtract.outer(self.j, self.j).T + (n - 1)).ravel()  # j - i + N
        for arr in (self.c, self.j, self.anti, self.diag):
            arr.flags.writeable = False

    def _sums(self, m: np.ndarray, index: np.ndarray) -> list:
        """Sums of m's entries grouped by `index`, highest index first."""
        flat = m.ravel()
        size = 2 * len(self.j) - 1
        sums = (np.bincount(index, flat.real, size)
                + 1j * np.bincount(index, flat.imag, size))
        return sums[::-1].tolist()

    def _ray(self, coef, root: bool):
        """r -> |P(r)| / Q(r^2), or / sqrt(Q(r^2)) when `root`."""
        den = self.den

        def f(r):
            q = _horner(den, r * r)
            return abs(_horner(coef, r)) / (math.sqrt(q) if root else q)
        return f

    @staticmethod
    def _circle(coef, norm: float, sign: float):
        """t -> |P(e^{sign i t})| / norm."""
        return lambda t: abs(_horner(coef, complex(math.cos(t), sign * math.sin(t)))) / norm

    def symbol_ray(self, a: np.ndarray, t: float):
        """|symbol| at r e^{it}: |sum_m C_m r^m| / sum_j c_j^2 r^{2j}.

        With S_ij = c_i c_j A_ij, C_m sums S_ij e^{i(i-j)t} over i + j = m.
        """
        p = np.exp(1j * t * self.j)
        s = (self.c * p)[:, None] * a * (self.c * p.conj())
        return self._ray(self._sums(s, self.anti), False)

    def symbol_circle(self, a: np.ndarray, r: float):
        """|symbol| at r e^{it}, t moving: |sum_d B_d e^{-idt}| / ||raw||^2.

        B_d sums S_ij r^{i+j} over j - i = d.
        """
        q = self.c * r**self.j
        coef = self._sums(q[:, None] * a * q, self.diag)
        return self._circle(coef, _horner(self.den, r * r), -1.0)

    def kernel_ray(self, v: np.ndarray, t: float, sign: float):
        """|sum_j v_j c_j z^j| / ||raw(z)|| at z = r e^{sign i t}, r moving.

        sign -1 gives |v . k_lam| (conj(lam)^j), sign +1 |conj(k_mu) . v|.
        """
        return self._ray((v * self.c * np.exp(sign * 1j * t * self.j))[::-1].tolist(), True)

    def kernel_circle(self, v: np.ndarray, r: float, sign: float):
        """The same value at z = r e^{sign i t}, t moving."""
        coef = (v * self.c * r**self.j)[::-1].tolist()
        return self._circle(coef, math.sqrt(_horner(self.den, r * r)), sign)


@functools.lru_cache(maxsize=64)
def _lines(model: KernelModel) -> _Lines:
    """The model's _Lines, built on first use and shared (read-only), as
    models._weights is."""
    return _Lines(model)


def _refine_symbol(model, a, point, level):
    """Alternating golden-section polish of |symbol| around one grid point.

    REFINE_ROUNDS rounds, each a pass over the radius and then one over the
    angle.  Along each pass the symbol is a ratio of polynomials in the
    moving coordinate (see _Lines), whose coefficients are built once per
    pass; every step is then a Horner evaluation, not a kernel vector.
    """
    (r_lo, r_hi, r), (t_lo, t_hi, th) = _polar_brackets(model, point, level)
    lines = _lines(model)
    best = lines.symbol_ray(a, th)(r)
    for _ in range(REFINE_ROUNDS):
        r, fr = _golden_max(lines.symbol_ray(a, th), r_lo, r_hi, iters=REFINE_ITERS)
        th, ft = _golden_max(lines.symbol_circle(a, r), t_lo, t_hi, iters=REFINE_ITERS)
        best = max(best, fr, ft)
    lam = complex(r * math.cos(th), r * math.sin(th))
    return best, lam


def _refine_pair(model, a, lam, mu, level):
    """Four-coordinate polish of |<A k_lam, k_mu>| around a grid pair.

    REFINE_ROUNDS rounds of golden-section passes over the radius and the
    angle of lam, then of mu.  Each pass moves one point, so the other side
    is a fixed vector, g = conj(k_mu) A or u = A k_lam, computed once from
    the kernel vector; along the pass the value is a polynomial ratio in the
    moving coordinate, evaluated by Horner's rule (see _Lines).
    """
    (rl_lo, rl_hi, rl), (tl_lo, tl_hi, tl) = _polar_brackets(model, lam, level)
    (rm_lo, rm_hi, rm), (tm_lo, tm_hi, tm) = _polar_brackets(model, mu, level)
    w = _weights(model)
    lines = _lines(model)

    def kern(rr, tt):
        return _unit_kernel(model, w, complex(rr * math.cos(tt), rr * math.sin(tt)))

    best = lines.kernel_ray(kern(rm, tm).conj() @ a, tl, -1.0)(rl)
    for _ in range(REFINE_ROUNDS):
        g = kern(rm, tm).conj() @ a
        rl, f1 = _golden_max(lines.kernel_ray(g, tl, -1.0), rl_lo, rl_hi, iters=REFINE_ITERS)
        tl, f2 = _golden_max(lines.kernel_circle(g, rl, -1.0), tl_lo, tl_hi, iters=REFINE_ITERS)
        u = a @ kern(rl, tl)
        rm, f3 = _golden_max(lines.kernel_ray(u, tm, 1.0), rm_lo, rm_hi, iters=REFINE_ITERS)
        tm, f4 = _golden_max(lines.kernel_circle(u, rm, 1.0), tm_lo, tm_hi, iters=REFINE_ITERS)
        best = max(best, f1, f2, f3, f4)
    p = complex(rl * math.cos(tl), rl * math.sin(tl))
    q = complex(rm * math.cos(tm), rm * math.sin(tm))
    return best, (p, q)


@scoped
def berezin_number(model: KernelModel, a: np.ndarray, level: int = 1) -> SupEstimate:
    """sup over the domain of |symbol|.

    Finite kind: exact, the largest diagonal modulus (first index wins ties).
    Continuous kinds: best of grid sampling plus local refinement over all
    levels up to `level`; a lower bound for the true supremum.  A negative
    level raises ValueError there.
    """
    _check_operand(model, a)
    if model.is_finite_kind:
        d = np.abs(np.diagonal(a))
        i = int(np.argmax(d))
        return SupEstimate(value=float(d[i]), argmax=i + 1, exact=True)
    if level < 0:
        raise ValueError(f"level must be >= 0, got {level}")
    best_val, best_arg = -1.0, None
    for lev in range(level + 1):
        pts = default_grid(model, lev).points
        kmat = kernel_matrix(model, pts)
        vals = np.abs(np.einsum("ij,ij->j", kmat.conj(), a @ kmat))
        for idx in _top_k(vals):
            if vals[idx] > best_val:
                best_val, best_arg = float(vals[idx]), pts[idx]
            ref_val, ref_arg = _refine_symbol(model, a, pts[idx], lev)
            if ref_val > best_val:
                best_val, best_arg = ref_val, ref_arg
    return SupEstimate(value=best_val, argmax=best_arg, exact=False)


@scoped
def berezin_norm(model: KernelModel, a: np.ndarray, level: int = 1) -> SupEstimate:
    """sup over domain pairs of |<A k_lam, k_mu>|.

    Finite kind: exact, the largest entry modulus; the argmax pair is the
    first (lam, mu) in lam-major order attaining it.  Continuous kinds:
    grid pairs plus refinement, a lower bound; a negative level raises
    ValueError.
    """
    _check_operand(model, a)
    n = model.dimension
    if model.is_finite_kind:
        flat = np.abs(a).T.reshape(-1)  # lam-major: (lam, mu) lexicographic
        k = int(np.argmax(flat))
        lam, mu = k // n + 1, k % n + 1
        return SupEstimate(value=float(flat[k]), argmax=(lam, mu), exact=True)
    if level < 0:
        raise ValueError(f"level must be >= 0, got {level}")
    best_val, best_arg = -1.0, None
    for lev in range(level + 1):
        pts = default_grid(model, lev).points
        m = len(pts)
        kmat = kernel_matrix(model, pts)
        pair_vals = np.abs(kmat.conj().T @ (a @ kmat))  # [mu_i, lam_j]
        by_lam = pair_vals.T  # lam-major view: flat index jl * m + im
        for idx in _top_k(by_lam):
            jl, im = int(idx) // m, int(idx) % m
            lam, mu = pts[jl], pts[im]
            if by_lam[jl, im] > best_val:
                best_val, best_arg = float(by_lam[jl, im]), (lam, mu)
            ref_val, ref_arg = _refine_pair(model, a, lam, mu, lev)
            if ref_val > best_val:
                best_val, best_arg = ref_val, ref_arg
    return SupEstimate(value=best_val, argmax=best_arg, exact=False)


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
    over [0, 2 pi) in one batched eigvalsh, then runs a safeguarded Newton
    ascent of g (one eigh per step, see _radius_ascent) from every discrete
    local maximum and the top 8 grid points.  The value is the larger of the
    grid maximum and |<Ax, x>| over the top eigenvectors x of every iterate,
    each attained at a unit vector, so up to rounding it never exceeds w(A).
    At a stationary theta, e^{i theta} <Ax, x> is real, so for normal
    operators the value is the spectral radius to machine precision.
    Non-square input raises DimensionMismatch, empty or non-finite input
    ValueError.
    """
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"operator must be square, got shape {a.shape}")
    a = as_complex_matrix(a)

    thetas = 2.0 * np.pi * np.arange(RADIUS_GRID) / RADIUS_GRID
    phases = np.exp(1j * thetas)
    stack = phases[:, None, None] * a[None, :, :]
    stack = (stack + stack.conj().transpose(0, 2, 1)) * 0.5
    g = np.linalg.eigvalsh(stack)[:, -1]

    best = float(np.max(g))
    prev = np.roll(g, 1)
    nxt = np.roll(g, -1)
    local_max = np.where((g >= prev) & (g >= nxt))[0]
    top = np.argsort(-g, kind="stable")[:8]
    starts = sorted(set(map(int, local_max)) | set(map(int, top)))

    h = 2.0 * np.pi / RADIUS_GRID
    re, im = re_part(a), im_part(a)
    gtol = 64.0 * np.finfo(float).eps * float(np.linalg.norm(a))
    for i in starts:
        best = max(best, _radius_ascent(a, re, im, float(thetas[i]), h, gtol)[0])
    return best


def counterexample_check(n: int = 2) -> InequalityResult:
    """The 2n x 2n antidiagonal witness separating ber from the Berezin norm.

    The operator is Hermitian with zero diagonal: its Berezin number over the
    standard-basis kernels is exactly 0 while its Berezin norm, numerical
    radius, and operator norm are all 1.
    """
    if int(n) < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    dim = 2 * int(n)
    a = np.fliplr(np.eye(dim)).astype(np.complex128)
    model = finite(dim)
    bn = berezin_number(model, a)
    nb = berezin_norm(model, a)
    herm = is_hermitian(a)
    w = numerical_radius(a)
    opn = operator_norm(a)
    ok = (
        bn.value == 0.0
        and nb.value == 1.0
        and herm
        and abs(w - 1.0) <= 1e-9
        and abs(opn - 1.0) <= 1e-9
    )
    return InequalityResult(
        ineq_id="counterexample",
        lhs=bn.value,
        rhs=nb.value,
        gap=nb.value - bn.value,
        satisfied=bool(ok),
        witness={
            "dimension": dim,
            "hermitian": herm,
            "numerical_radius": w,
            "operator_norm": opn,
            "number_argmax": bn.argmax,
            "norm_argmax": nb.argmax,
        },
    )
