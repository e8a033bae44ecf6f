"""Berezin symbols, sup-type quantities, and the numerical radius.

Finite-kind models admit exact evaluation: the Berezin number is the largest
diagonal modulus and the Berezin norm the largest entry modulus, both maxima
over finitely many kernel pairs.  Continuous models are sampled on nested
polar grids and refined locally, producing lower bounds attained at domain
points (exact=False).  Estimates at level L take the best value over levels
0..L, so refinement never loses ground.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._cache import scoped
from .errors import DimensionMismatch, NotPositive
from .linalg import is_positive
from .models import (
    KernelModel, OmegaGrid, _unit_kernel, _weights, default_grid, kernel_matrix,
    normalized_kernel,
)
from .results import InequalityResult

# Multistart width for local refinement of grid maxima.
TOP_K = 5
# Iterations per golden-section pass when refining grid maxima.
REFINE_ITERS = 60
# Rounds of coordinate-alternating refinement.
REFINE_ROUNDS = 2
# theta sample count for the numerical radius.
RADIUS_GRID = 256
# Bracket width target for the numerical-radius refinement.
RADIUS_XTOL = 1e-10

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


def _golden_max(f, lo: float, hi: float, iters: int | None = None,
                xtol: float | None = None):
    """Golden-section search for a maximum; returns the best point seen.

    Endpoints are evaluated too, so boundary maxima are not lost.  Stops
    after `iters` interior steps or when the bracket is narrower than
    `xtol`, whichever comes first (200-step hard cap).
    """
    best_x, best_f = lo, f(lo)
    fh = f(hi)
    if fh > best_f:
        best_x, best_f = hi, fh
    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    steps = 0
    cap = iters if iters is not None else 200
    while steps < cap:
        if xtol is not None and (b - a) <= xtol:
            break
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
        steps += 1
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


def _symbol_abs(model: KernelModel, w, a: np.ndarray, lam: complex) -> float:
    k = _unit_kernel(model, w, lam)
    return abs(complex(k.conj() @ (a @ k)))


def _polar_brackets(model: KernelModel, point: complex, level: int):
    """Refinement brackets around a grid point, clipped to the domain."""
    n_ang = 16 * (2**level)
    n_rad = 8 * (2**level)
    dr = model.radius / n_rad
    dth = 2.0 * np.pi / n_ang
    r0 = abs(point)
    th0 = math.atan2(point.imag, point.real)
    r_lo, r_hi = max(0.0, r0 - dr), min(model.radius, r0 + dr)
    return (r_lo, r_hi, r0), (th0 - dth, th0 + dth, th0)


def _refine_symbol(model, a, point, level):
    """Alternating golden-section polish of |symbol| around one grid point."""
    (r_lo, r_hi, r), (t_lo, t_hi, th) = _polar_brackets(model, point, level)
    w = _weights(model)

    def at(rr, tt):
        return _symbol_abs(model, w, a, complex(rr * math.cos(tt), rr * math.sin(tt)))

    best = at(r, th)
    for _ in range(REFINE_ROUNDS):
        r, fr = _golden_max(lambda x: at(x, th), r_lo, r_hi, iters=REFINE_ITERS)
        th, ft = _golden_max(lambda x: at(r, x), t_lo, t_hi, iters=REFINE_ITERS)
        best = max(best, fr, ft)
    lam = complex(r * math.cos(th), r * math.sin(th))
    return best, lam


def _refine_pair(model, a, lam, mu, level):
    """Four-coordinate polish of |<A k_lam, k_mu>| around a grid pair.

    Each golden-section pass moves one point of the pair, so the other side
    (conj(k_mu), or A k_lam) is computed once per pass; every value is still
    km.conj() @ (a @ kl) from the same operands.
    """
    (rl_lo, rl_hi, rl), (tl_lo, tl_hi, tl) = _polar_brackets(model, lam, level)
    (rm_lo, rm_hi, rm), (tm_lo, tm_hi, tm) = _polar_brackets(model, mu, level)
    w = _weights(model)

    def kern(rr, tt):
        return _unit_kernel(model, w, complex(rr * math.cos(tt), rr * math.sin(tt)))

    def moving_lam(rr, tt):  # |<A k_lam, k_mu>| as a function of lam
        kmc = kern(rr, tt).conj()
        return lambda r, t: abs(complex(kmc @ (a @ kern(r, t))))

    def moving_mu(rr, tt):  # ... as a function of mu
        akl = a @ kern(rr, tt)
        return lambda r, t: abs(complex(kern(r, t).conj() @ akl))

    best = moving_lam(rm, tm)(rl, tl)
    for _ in range(REFINE_ROUNDS):
        f = moving_lam(rm, tm)
        rl, f1 = _golden_max(lambda x: f(x, tl), rl_lo, rl_hi, iters=REFINE_ITERS)
        tl, f2 = _golden_max(lambda x: f(rl, x), tl_lo, tl_hi, iters=REFINE_ITERS)
        g = moving_mu(rl, tl)
        rm, f3 = _golden_max(lambda x: g(x, tm), rm_lo, rm_hi, iters=REFINE_ITERS)
        tm, f4 = _golden_max(lambda x: g(rm, x), tm_lo, tm_hi, iters=REFINE_ITERS)
        best = max(best, f1, f2, f3, f4)
    p = complex(rl * math.cos(tl), rl * math.sin(tl))
    q = complex(rm * math.cos(tm), rm * math.sin(tm))
    return best, (p, q)


@scoped
def berezin_number(model: KernelModel, a: np.ndarray, level: int = 1) -> SupEstimate:
    """sup over the domain of |symbol|.

    Finite kind: exact, the largest diagonal modulus (first index wins ties).
    Continuous kinds: best of grid sampling plus local refinement over all
    levels up to `level`; a lower bound for the true supremum.
    """
    _check_operand(model, a)
    if model.is_finite_kind:
        d = np.abs(np.diagonal(a))
        i = int(np.argmax(d))
        return SupEstimate(value=float(d[i]), argmax=i + 1, exact=True)
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
    grid pairs plus refinement, a lower bound.
    """
    _check_operand(model, a)
    n = model.dimension
    if model.is_finite_kind:
        flat = np.abs(a).T.reshape(-1)  # lam-major: (lam, mu) lexicographic
        k = int(np.argmax(flat))
        lam, mu = k // n + 1, k % n + 1
        return SupEstimate(value=float(flat[k]), argmax=(lam, mu), exact=True)
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


def _rotated_herm(a: np.ndarray, theta: float) -> np.ndarray:
    ph = complex(math.cos(theta), math.sin(theta))
    m = ph * a
    return (m + m.conj().T) * 0.5


@scoped
def numerical_radius(a: np.ndarray) -> float:
    """max over unit vectors of |<Ax, x>|.

    Evaluates g(theta) = lambda_max(Re(e^{i theta} A)) on a 256-point grid
    over [0, 2 pi), refines every discrete local maximum by golden section to
    a 1e-10 bracket, then applies a monotone phase-alignment polish (top
    eigenvector -> realign theta to the symbol's phase), whose fixed points
    are stationary values of g.  For normal operators the polish lands on
    the spectral radius to machine precision.
    """
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"operator must be square, got shape {a.shape}")

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

    def gf(th: float) -> float:
        return float(np.linalg.eigvalsh(_rotated_herm(a, th))[-1])

    for i in starts:
        th0 = thetas[i]
        thb, gb = _golden_max(gf, th0 - h, th0 + h, xtol=RADIUS_XTOL)
        # phase-alignment polish: |<Ax, x>| never decreases step to step
        th, cur = thb, gb
        for _ in range(100):
            hm = _rotated_herm(a, th)
            _, v = np.linalg.eigh(hm)
            x = v[:, -1]
            val = complex(x.conj() @ (a @ x))
            mag = abs(val)
            if mag <= cur + 1e-14 * max(1.0, cur):
                break
            cur = mag
            th = -math.atan2(val.imag, val.real)
        best = max(best, cur)
    return best


def verify_positive_equality(model: KernelModel, a: np.ndarray,
                             tol: float = 1e-8, level: int = 1) -> InequalityResult:
    """Check that the Berezin norm and Berezin number agree for PSD input.

    Raises NotPositive when the operand is not PSD at the standard tolerance.
    satisfied means |norm - number| <= tol * max(1, number).
    """
    _check_operand(model, a)
    if not is_positive(a):
        raise NotPositive("operand is not positive semidefinite")
    nb = berezin_norm(model, a, level=level)
    bn = berezin_number(model, a, level=level)
    diff = abs(nb.value - bn.value)
    return InequalityResult(
        ineq_id="prop1",
        lhs=nb.value,
        rhs=bn.value,
        gap=bn.value - nb.value,
        satisfied=bool(diff <= tol * max(1.0, bn.value)),
        witness={
            "difference": diff,
            "norm_argmax": nb.argmax,
            "number_argmax": bn.argmax,
            "exact": nb.exact and bn.exact,
        },
    )
