"""Dense complex matrix primitives: adjoints, Hermitian eigensystems,
operator norms, fractional powers of |A|, and positivity tests.

Everything operates on numpy complex128 arrays, and every Hermitian
eigensystem is one float64 `np.linalg.eigh` solve.  Tolerances are relative
to max(1, scale) throughout, where scale is a norm of the input, so the
behavior is consistent for both tiny and large operands.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from ._cache import scoped
from .errors import NoConvergence, NotHermitian, NotPositive, ParamOutOfRange

# Relative tolerance accepted when an input must be Hermitian.
HERMITIAN_TOL = 1e-8
# Eigenvalues of a nominally PSD matrix may round below zero by this much
# (relative); anything lower is treated as genuinely negative.
NEG_EIG_CLAMP = 1e-10
# Relative cutoff separating the support of |A| from its kernel.
SUPPORT_CUT = 1e-12
# Largest entry modulus used unscaled where a product or a sum of squares of
# entries is formed; above it, 2^-k A is used (_pow2_exponent).
UNSCALED_MAX = 2.0**500


class HermEig(NamedTuple):
    """Eigenvalues (ascending, real) and orthonormal eigenvector columns.

    The arrays are read-only: memoized eigensystems are shared by every
    caller in a scope.
    """

    values: np.ndarray
    vectors: np.ndarray


def as_complex_matrix(obj) -> np.ndarray:
    """Validate and convert to a 2-d complex128 array with finite entries."""
    a = np.asarray(obj, dtype=np.complex128)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got ndim={a.ndim}")
    if a.size == 0:
        raise ValueError("empty matrix")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ValueError("matrix entries must be finite")
    return np.ascontiguousarray(a)


def adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return a.conj().T


def re_part(a: np.ndarray) -> np.ndarray:
    """Hermitian part (A + A*)/2; exactly Hermitian entry-for-entry."""
    return (a + a.conj().T) * 0.5


def im_part(a: np.ndarray) -> np.ndarray:
    """Skew part (A - A*)/(2i), returned as a Hermitian matrix."""
    return (a - a.conj().T) * complex(0.0, -0.5)


def _fro(a: np.ndarray) -> float:
    """Frobenius norm, summed as np.linalg.norm sums it, of 2^-k A scaled
    back (_pow2_exponent) when an entry is large enough for the sum of
    squares to overflow; inf past float64."""
    k = _pow2_exponent(a)
    x = (a * 2.0**-k if k else a).ravel(order="K")
    f = math.sqrt(x.real.dot(x.real) + x.imag.dot(x.imag))
    if not k:
        return f
    with np.errstate(over="ignore"):
        return float(np.ldexp(f, k))


def is_hermitian(a: np.ndarray, tol: float = HERMITIAN_TOL) -> bool:
    """True iff ||A - A*||_F <= tol * max(1, ||A||_F)."""
    if a.shape[0] != a.shape[1]:
        return False
    return _fro(a - a.conj().T) <= tol * max(1.0, _fro(a))


def _herm_eig(h: np.ndarray, tol: float) -> HermEig:
    if h.shape[0] != h.shape[1]:
        raise NotHermitian(f"matrix is {h.shape[0]}x{h.shape[1]}, not square")
    dev = _fro(h - h.conj().T)
    if dev > tol * max(1.0, _fro(h)):
        raise NotHermitian(f"deviation from Hermitian {dev:.3e} exceeds tolerance")
    sym = (h + h.conj().T) * 0.5
    try:
        w, v = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    w.flags.writeable = v.flags.writeable = False
    return HermEig(w, v)


@scoped
def herm_eig(h: np.ndarray, tol: float = HERMITIAN_TOL) -> HermEig:
    """Eigendecomposition of a Hermitian matrix.

    The input must be Hermitian to `tol` (relative Frobenius), else
    NotHermitian.  The computation symmetrizes first, so the result is the
    exact decomposition of (H + H*)/2.  Eigenvalues come back ascending;
    eigenvector columns are orthonormal.  Raises NoConvergence if the
    underlying solver fails.
    """
    return _herm_eig(h, tol)


def _pow2_exponent(a: np.ndarray) -> int:
    """0 while every |a_ij| <= UNSCALED_MAX, so ordinary input keeps its
    bits; otherwise the k with max |2^-k a_ij| in [1/2, 1), which keeps
    products and sums of squares of entries below the float64 limit."""
    m = float(np.abs(a).max()) if a.size else 0.0
    return math.frexp(m)[1] if m > UNSCALED_MAX else 0


@scoped
def _singular_system(a: np.ndarray) -> HermEig:
    """Singular values of A (ascending) with the eigenvectors of A*A, the
    latter formed from 2^-k A (_pow2_exponent) and the values scaled back;
    a largest one beyond float64 raises ValueError."""
    k = _pow2_exponent(a)
    b = a * 2.0**-k if k else a
    ev = _herm_eig(adjoint(b) @ b, HERMITIAN_TOL)
    s = np.sqrt(_clamped_nonneg(ev.values, "A*A"))
    if k:
        with np.errstate(over="ignore"):
            s = np.ldexp(s, k)
        if not np.isfinite(s[-1]):
            raise ValueError("operator norm overflows float64")
    s.flags.writeable = False
    return HermEig(s, ev.vectors)


@scoped
def _psd_eig(h: np.ndarray) -> HermEig:
    """Eigensystem of a PSD matrix, round-off negatives clamped to 0."""
    ev = herm_eig(h, HERMITIAN_TOL)  # the call (and memo key) of is_positive
    w = _clamped_nonneg(ev.values, "operand")
    w.flags.writeable = False
    return HermEig(w, ev.vectors)


def operator_norm(a: np.ndarray) -> float:
    """Largest singular value: sqrt of the top eigenvalue of A*A."""
    return float(_singular_system(a).values[-1])


def spectral_radius(a: np.ndarray) -> float:
    """Largest eigenvalue modulus (general, possibly non-normal input)."""
    if a.shape[0] != a.shape[1]:
        raise ValueError("spectral radius needs a square matrix")
    try:
        ev = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    return float(np.max(np.abs(ev)))


def is_positive(p: np.ndarray, tol: float = HERMITIAN_TOL) -> bool:
    """True iff P is Hermitian within tol and its spectrum is >= -tol * scale."""
    try:
        w = herm_eig(p, tol).values
    except NotHermitian:
        return False
    scale = max(1.0, float(np.max(np.abs(w))) if w.size else 0.0)
    return float(w.min()) >= -tol * scale  # NaN entries give False


def _clamped_nonneg(w: np.ndarray, what: str) -> np.ndarray:
    """Clamp round-off negatives to 0; genuinely negative values raise."""
    scale = max(1.0, float(np.max(np.abs(w))) if w.size else 0.0)
    low = float(w.min())
    if low < -NEG_EIG_CLAMP * scale:
        raise NotPositive(f"{what} has eigenvalue {low:.6e} below clamp range")
    return np.where(w < 0.0, 0.0, w)


def _spectral_power(ev: HermEig, p: float) -> np.ndarray:
    """V diag(w^p) V*, symmetrized; p = 0 gives the support projection."""
    w, v = ev
    if p == 0.0:
        keep = v[:, w > SUPPORT_CUT * max(1.0, float(w.max()))]
        out = keep @ keep.conj().T
    else:
        out = (v * (w**p)) @ v.conj().T
    return (out + out.conj().T) * 0.5


def _checked_exponent(p) -> float:
    try:
        p = float(p)
    except (TypeError, ValueError) as exc:
        raise ParamOutOfRange(f"exponent must be a real number, got {p!r}") from exc
    if not np.isfinite(p) or p < 0.0:
        raise ParamOutOfRange(f"exponent must be a finite real >= 0, got {p!r}")
    return p


def positive_power(h: np.ndarray, p: float) -> np.ndarray:
    """H^p for Hermitian positive semidefinite H, p >= 0.

    p = 0 returns the support projection (eigenvalues above a relative
    cutoff count as support).  p = 1 returns the symmetrized input as-is.
    Small negative eigenvalues clamp to 0; real negatives raise NotPositive.
    """
    p = _checked_exponent(p)
    ev = _psd_eig(h)
    if p == 1.0:
        return (h + h.conj().T) * 0.5
    return _spectral_power(ev, p)


def abs_power(a: np.ndarray, p: float) -> np.ndarray:
    """|A|^p for any square A and real p >= 0, via the spectrum of A*A.

    Writing A*A = V diag(s_i^2) V*, the result is V diag(s_i^p) V*.
    p = 0 returns the support projection of |A|.  The output is symmetrized,
    so it is Hermitian exactly and PSD to working precision.
    """
    if a.shape[0] != a.shape[1]:
        raise ValueError("abs_power needs a square matrix")
    p = _checked_exponent(p)
    return _spectral_power(_singular_system(a), p)


def positive_sqrt(p_mat: np.ndarray) -> np.ndarray:
    """Unique PSD square root of a PSD matrix.

    Requires Hermitian input to the standard tolerance; eigenvalues in
    [-1e-10 * max(1, scale), 0) clamp to 0, anything lower raises NotPositive.
    """
    return positive_power(p_mat, 0.5)
