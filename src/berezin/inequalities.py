"""Catalog of operator inequalities between Berezin-type quantities.

Every entry compares a left-hand quantity against a bound built from Berezin
numbers, Berezin norms, operator norms, or the numerical radius.  An entry
may carry several displayed parts (for instance a Hoelder-type bound plus its
specialization); `check` evaluates them all, reports the part with the least
relative slack, and declares the case satisfied only when every part holds:

    lhs <= rhs + tolerance * max(1, rhs)

Parameter conventions: alpha weights in [0, 1] (a few entries need the open
interval), power parameters r, s >= 1, except the scalar power-mean entry
lem3 where any finite real orders with r <= s are allowed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple

import numpy as np

from . import calc
from .errors import (
    DimensionMismatch,
    NotCommuting,
    NotPositive,
    ParamOutOfRange,
    UnknownIneqId,
)
from .linalg import (
    abs_power,
    adjoint,
    as_complex_matrix,
    im_part,
    is_positive,
    operator_norm,
    positive_power,
    positive_sqrt,
    re_part,
)
from .models import KernelModel
from .results import InequalityResult

DEFAULT_TOL = 1e-9
COMMUTE_TOL = 1e-10


class Part(NamedTuple):
    label: str
    lhs: float
    rhs: float


@dataclass(frozen=True)
class InequalityCase:
    """One concrete instance: an entry id, operands, parameters, a model."""

    ineq_id: str
    operands: dict
    params: dict = field(default_factory=dict)
    model: KernelModel | None = None
    tolerance: float = DEFAULT_TOL
    level: int = 1


@dataclass(frozen=True)
class CatalogEntry:
    ineq_id: str
    description: str
    operand_spec: tuple  # ((name, kind), ...); kinds: general/positive/unit-vector/scalar
    params: tuple
    evaluate: Callable
    interior_alpha: bool = False
    needs_model: bool = True
    commuting: tuple | None = None


class _Env:
    """Model-bound shorthands used by the evaluators.

    `cross` is the quantity of Theorem 3's B*A term: the Berezin number here,
    the numerical radius in the operator-norm version.
    """

    def __init__(self, model: KernelModel | None, level: int):
        self.model = model
        self.level = level

    def ber(self, m) -> float:
        return calc.berezin_number(self.model, m, level=self.level).value

    def nber(self, m) -> float:
        return calc.berezin_norm(self.model, m, level=self.level).value

    cross = ber


class _OperatorEnv:
    """The operator-norm remarks: the operator norm stands in for both Berezin
    quantities and the numerical radius for the cross term."""

    def ber(self, m) -> float:
        return operator_norm(m)

    nber = ber

    def cross(self, m) -> float:
        return calc.numerical_radius(m)


_OPERATOR_ENV = _OperatorEnv()


def power_mean(a: float, b: float, alpha: float, t: float) -> float:
    """Weighted power mean of order t of two nonnegative scalars.

    t = 0 is the weighted geometric mean; for t < 0 the mean is 0 whenever
    either input is 0 (limit convention).

    Computed in log space via expm1/log1p: the naive (alpha a^t + ...)^(1/t)
    collapses to 1 for tiny |t| because a^t rounds to 1, breaking the smooth
    approach to the geometric mean (and with it monotonicity in t).
    """
    if a < 0.0 or b < 0.0:
        raise ParamOutOfRange("power mean needs nonnegative inputs")
    if not (0.0 <= alpha <= 1.0):
        raise ParamOutOfRange(f"alpha must lie in [0, 1], got {alpha}")
    if a == b:
        return float(a)
    if alpha == 0.0:
        return float(b)
    if alpha == 1.0:
        return float(a)
    if t == 0.0:
        return float(a**alpha * b ** (1.0 - alpha))
    if min(a, b) == 0.0:
        if t < 0.0:
            return 0.0
        return float((alpha * a**t + (1.0 - alpha) * b**t) ** (1.0 / t))
    la, lb = math.log(a), math.log(b)
    if (la - lb) * t >= 0.0:
        l_top, w_top, l_low, w_low = la, alpha, lb, 1.0 - alpha
    else:
        l_top, w_top, l_low, w_low = lb, 1.0 - alpha, la, alpha
    d = l_low - l_top
    y = t * d  # <= 0 by the ordering above
    if y > -1e-8:
        # near-degenerate spread in power space (including denormal t, where
        # t*log products underflow): second-order series in t, error O((td)^2 d)
        return float(math.exp(l_top + w_low * d * (1.0 + 0.5 * t * w_top * d)))
    s = w_top + w_low * math.exp(y)  # sum of positives in (0, 1]
    if s > 0.5:
        log_s = math.log1p(w_low * math.expm1(y))  # 1 + this = s, no rounding loss
    else:
        log_s = math.log(s)
    return float(math.exp(l_top + log_s / t))


def _hm(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return (x + y) * 0.5


def _eye(a: np.ndarray) -> np.ndarray:
    return np.eye(a.shape[0], dtype=np.complex128)


def _vec_quad(m: np.ndarray, x: np.ndarray) -> float:
    """<M x, x> for Hermitian M, clamped real."""
    return max(float(np.real(x.conj() @ (m @ x))), 0.0)


# --- evaluators ------------------------------------------------------------


def _ev_thm1(o, p, env):
    a, b, c, d, x, y = o["A"], o["B"], o["C"], o["D"], o["X"], o["Y"]
    al, r, s = p["alpha"], p["r"], p["s"]
    lhs = env.nber(_hm(adjoint(a) @ x @ b, adjoint(c) @ y @ d)) ** 2
    t1 = _hm(
        positive_power(adjoint(b) @ abs_power(x, 2 * al) @ b, r),
        positive_power(adjoint(d) @ abs_power(y, 2 * al) @ d, r),
    )
    t2 = _hm(
        positive_power(adjoint(a) @ abs_power(adjoint(x), 2 * (1 - al)) @ a, s),
        positive_power(adjoint(c) @ abs_power(adjoint(y), 2 * (1 - al)) @ c, s),
    )
    rhs = env.ber(t1) ** (1.0 / r) * env.ber(t2) ** (1.0 / s)
    return [Part("main", lhs, rhs)]


def _ev_cor1(o, p, env):
    a, b = o["A"], o["B"]
    al, r, s = p["alpha"], p["r"], p["s"]
    lhs = env.nber(_hm(a, b)) ** 2
    rhs = (
        env.ber(_hm(abs_power(a, 2 * al * r), abs_power(b, 2 * al * r))) ** (1.0 / r)
        * env.ber(
            _hm(
                abs_power(adjoint(a), 2 * (1 - al) * s),
                abs_power(adjoint(b), 2 * (1 - al) * s),
            )
        )
        ** (1.0 / s)
    )
    return [Part("main", lhs, rhs)]


def _eqn1_factors(o, p, env):
    a, b = o["A"], o["B"]
    al, r = p["alpha"], p["r"]
    x = env.ber(abs_power(a, 2 * al * r) + abs_power(b, 2 * al * r))
    y = env.ber(
        abs_power(adjoint(a), 2 * (1 - al) * r)
        + abs_power(adjoint(b), 2 * (1 - al) * r)
    )
    return x, y


def _ev_eqn1(o, p, env):
    r = p["r"]
    x, y = _eqn1_factors(o, p, env)
    lhs = env.nber(o["A"] + o["B"]) ** r
    rhs = 2.0 ** (r - 1.0) * math.sqrt(x) * math.sqrt(y)
    return [Part("main", lhs, rhs)]


def _ev_eqn2cmp(o, p, env):
    r = p["r"]
    x, y = _eqn1_factors(o, p, env)
    lhs = 2.0 ** (r - 1.0) * math.sqrt(x * y)
    rhs = 2.0 ** (r - 2.0) * (x + y)
    return [Part("main", lhs, rhs)]


def _ev_eq1(o, p, env, number=False):
    """eq1; with number=True the Berezin number on the left instead (ceb)."""
    a, b, c, d = o["A"], o["B"], o["C"], o["D"]
    r, s = p["r"], p["s"]
    left = env.ber if number else env.nber
    lhs = left(_hm(adjoint(a) @ b, adjoint(c) @ d)) ** 2
    rhs = env.ber(_hm(abs_power(a, 2 * r), abs_power(c, 2 * r))) ** (1.0 / r) * env.ber(
        _hm(abs_power(b, 2 * s), abs_power(d, 2 * s))
    ) ** (1.0 / s)
    return [Part("main", lhs, rhs)]


def _ev_cor4(o, p, env):
    a, b, c, d = o["A"], o["B"], o["C"], o["D"]
    r = p["r"]
    lhs = env.nber(_hm(adjoint(a) @ b, adjoint(c) @ d)) ** (2.0 * r)
    rhs = env.ber(_hm(abs_power(a, 2 * r), abs_power(c, 2 * r))) * env.ber(
        _hm(abs_power(b, 2 * r), abs_power(d, 2 * r))
    )
    return [Part("main", lhs, rhs)]


def _ev_prop1(o, p, env):
    """Proposition 1 as two parts, norm <= number and number <= norm.

    On disk models both values are lower bounds attained at domain points,
    and they stay so when lifted.  The number is raised to |symbol| at both
    points of the norm's argmax pair: for PSD A, |<A k_lam, k_mu>|^2 <=
    <A k_lam, k_lam> <A k_mu, k_mu>, so one of them reaches the norm
    estimate.  Then the norm is raised to the number, since diagonal pairs
    are pairs.
    """
    a = o["A"]
    norm = calc.berezin_norm(env.model, a, level=env.level)
    nb, bn = norm.value, env.ber(a)
    if not norm.exact:
        bn = max(bn, *(abs(calc.berezin_symbol(env.model, a, pt)) for pt in norm.argmax))
        nb = max(nb, bn)
    return [Part("norm<=number", nb, bn), Part("number<=norm", bn, nb)]


def _ev_cor5(o, p, env):
    a, b = o["A"], o["B"]
    r, s = p["r"], p["s"]
    m = _hm(adjoint(a) @ b, adjoint(b) @ a)
    x_r = env.ber(_hm(abs_power(a, 2 * r), abs_power(b, 2 * r)))
    x_s = env.ber(_hm(abs_power(a, 2 * s), abs_power(b, 2 * s)))
    nm = env.nber(m)
    parts = [
        Part("holder", nm**2, x_r ** (1.0 / r) * x_s ** (1.0 / s)),
        Part("power", nm**r, x_r),
    ]
    if r == 1.0:
        parts.append(
            Part(
                "sum",
                env.nber(adjoint(a) @ b + adjoint(b) @ a),
                env.ber(adjoint(a) @ a + adjoint(b) @ b),
            )
        )
    return parts


def _ev_eqn21(o, p, env):
    a, b = o["A"], o["B"]
    r = p["r"]
    lhs = env.nber(_hm(a, b)) ** (2.0 * r)
    rhs = env.ber(_hm(abs_power(a, 2 * r), abs_power(b, 2 * r)))
    parts = [Part("main", lhs, rhs)]
    if r == 1.0:
        parts.append(
            Part(
                "sum",
                env.nber(a + b) ** 2,
                2.0 * env.ber(adjoint(a) @ a + adjoint(b) @ b),
            )
        )
    return parts


def _ev_reim(o, p, env):
    a = o["A"]
    r = p["r"]
    re, im = re_part(a), im_part(a)
    mixed = env.ber(_hm(abs_power(a, 2 * r), abs_power(adjoint(a), 2 * r)))
    return [
        Part(
            "full",
            env.nber(a) ** (2.0 * r),
            2.0 ** (2.0 * r - 1.0) * env.ber(abs_power(re, 2 * r) + abs_power(im, 2 * r)),
        ),
        Part("re", env.nber(re) ** (2.0 * r), mixed),
        Part("im", env.nber(im) ** (2.0 * r), mixed),
    ]


def _modulus_factors(a, b, r, s, env):
    """The f_r, f_s and f_radj factors of cor6 and cor8: Berezin numbers of
    the means of |A|^2r, |B|^2r; of |A*|^2s, |B*|^2s; of |A*|^2r, |B*|^2r."""
    f_r = env.ber(_hm(abs_power(a, 2 * r), abs_power(b, 2 * r)))
    f_s = env.ber(_hm(abs_power(adjoint(a), 2 * s), abs_power(adjoint(b), 2 * s)))
    f_radj = env.ber(_hm(abs_power(adjoint(a), 2 * r), abs_power(adjoint(b), 2 * r)))
    return f_r, f_s, f_radj


def _ev_cor6(o, p, env):
    a, b = o["A"], o["B"]
    r, s = p["r"], p["s"]
    f_r, f_s, f_radj = _modulus_factors(a, b, r, s, env)
    nm = env.nber(_hm(a @ a, b @ b))
    parts = [
        Part("holder", nm**2, f_r ** (1.0 / r) * f_s ** (1.0 / s)),
        Part("power", nm ** (2.0 * r), f_r * f_radj),
    ]
    if r == 1.0 and s == 1.0:
        parts.append(
            Part(
                "sum",
                env.nber(a @ a + b @ b) ** 2,
                env.ber(adjoint(a) @ a + adjoint(b) @ b)
                * env.ber(a @ adjoint(a) + b @ adjoint(b)),
            )
        )
    return parts


def _ev_eqn3(o, p, env):
    a, b = o["A"], o["B"]
    r, s = p["r"], p["s"]
    eye = _eye(a)
    lhs = env.nber(_hm(a, b)) ** 2
    rhs = env.ber(_hm(abs_power(a, 2 * r), eye)) ** (1.0 / r) * env.ber(
        _hm(abs_power(adjoint(b), 2 * s), eye)
    ) ** (1.0 / s)
    return [Part("main", lhs, rhs)]


def _ev_eqn5(o, p, env):
    a = o["A"]
    r = p["r"]
    eye = _eye(a)
    lhs = env.nber(a) ** (2.0 * r)
    rhs = env.ber(_hm(abs_power(a, 2 * r), eye)) * env.ber(
        _hm(abs_power(adjoint(a), 2 * r), eye)
    )
    return [Part("main", lhs, rhs)]


def _ev_abprod(o, p, env):
    a, b = o["A"], o["B"]
    r, s = p["r"], p["s"]
    nm = env.nber(a @ b)
    f_ar = env.ber(abs_power(adjoint(a), 2 * r))
    f_bs = env.ber(abs_power(b, 2 * s))
    f_br = env.ber(abs_power(b, 2 * r))
    parts = [
        Part(
            "holder",
            nm**2,
            2.0 ** (2.0 - 1.0 / r - 1.0 / s) * f_ar ** (1.0 / r) * f_bs ** (1.0 / s),
        ),
        Part("power", nm ** (2.0 * r), 2.0 ** (2.0 * r - 2.0) * f_ar * f_br),
    ]
    if r == 1.0 and s == 1.0:
        parts.append(
            Part(
                "factored",
                nm,
                math.sqrt(env.ber(a @ adjoint(a))) * math.sqrt(env.ber(adjoint(b) @ b)),
            )
        )
    return parts


def _ev_cor8(o, p, env):
    a, b = o["A"], o["B"]
    r, s = p["r"], p["s"]
    f_r, f_s, f_radj = _modulus_factors(a, b, r, s, env)
    parts = []
    for sign, tag in ((1.0, "plus"), (-1.0, "minus")):
        nm = env.nber(_hm(a @ b, sign * (b @ a)))
        parts.append(Part(f"holder-{tag}", nm**2, f_r ** (1.0 / r) * f_s ** (1.0 / s)))
        parts.append(Part(f"power-{tag}", nm ** (2.0 * r), f_r * f_radj))
    return parts


def _ev_eqn6(o, p, env):
    a = o["A"]
    r = p["r"]
    gram = adjoint(a) @ a
    cogram = a @ adjoint(a)
    rhs = 2.0 ** (r - 1.0) * env.ber(positive_power(gram, r) + positive_power(cogram, r))
    return [
        Part("plus", env.nber(cogram + gram) ** r, rhs),
        Part("minus", env.nber(cogram - gram) ** r, rhs),
    ]


def _ev_eql1(o, p, env):
    a = o["A"]
    gram = adjoint(a) @ a
    cogram = a @ adjoint(a)
    return [Part("main", env.nber(cogram - gram), env.ber(gram + cogram))]


def _ev_thm2(o, p, env):
    a, b = o["A"], o["B"]
    al, r, s = p["alpha"], p["r"], p["s"]
    m = _hm(
        positive_power(a, al) @ positive_power(b, 1 - al),
        positive_power(a, 1 - al) @ positive_power(b, al),
    )
    rhs = env.ber(
        _hm(positive_power(a, 2 * al * r), positive_power(a, 2 * (1 - al) * r))
    ) ** (1.0 / r) * env.ber(
        _hm(positive_power(b, 2 * al * s), positive_power(b, 2 * (1 - al) * s))
    ) ** (1.0 / s)
    return [Part("main", env.nber(m) ** 2, rhs)]


def _ev_eqn11(o, p, env):
    a, b = o["A"], o["B"]
    al, r = p["alpha"], p["r"]
    m = (
        positive_power(a, al) @ positive_power(b, 1 - al)
        + positive_power(a, 1 - al) @ positive_power(b, al)
    )
    rhs = (
        2.0 ** (2.0 * r - 2.0)
        * env.ber(positive_power(a, 2 * al * r) + positive_power(a, 2 * (1 - al) * r))
        * env.ber(positive_power(b, 2 * al * r) + positive_power(b, 2 * (1 - al) * r))
    )
    return [Part("main", env.nber(m) ** (2.0 * r), rhs)]


def _ev_eqn12(o, p, env):
    a, b = o["A"], o["B"]
    lhs = env.nber(positive_sqrt(a) @ positive_sqrt(b))
    rhs = math.sqrt(env.ber(a)) * math.sqrt(env.ber(b))
    return [Part("main", lhs, rhs)]


def _ev_eqn13(o, p, env):
    a, b = o["A"], o["B"]
    lhs = env.nber(positive_sqrt(a @ b))
    rhs = math.sqrt(env.ber(a)) * math.sqrt(env.ber(b))
    return [Part("main", lhs, rhs)]


def _ev_thm3(o, p, env):
    a, b = o["A"], o["B"]
    al = p["alpha"]
    lhs = env.nber(al * a + (1 - al) * b) ** 2
    rhs = env.ber(
        al**2 * (adjoint(a) @ a) + (1 - al) ** 2 * (adjoint(b) @ b)
    ) + 2.0 * al * (1 - al) * env.cross(adjoint(b) @ a)
    return [Part("main", lhs, rhs)]


def _ev_thm3half(o, p, env):
    a, b = o["A"], o["B"]
    lhs = env.nber(a + b) ** 2
    rhs = env.ber(adjoint(a) @ a + adjoint(b) @ b) + 2.0 * env.ber(adjoint(b) @ a)
    return [Part("main", lhs, rhs)]


def _ev_lem1(o, p, env):
    pm, x = o["P"], o["x"]
    r = p["r"]
    lhs = _vec_quad(pm, x) ** r
    rhs = _vec_quad(positive_power(pm, r), x)
    return [Part("main", lhs, rhs)]


def _ev_lem2(o, p, env):
    a, x, y = o["A"], o["x"], o["y"]
    al = p["alpha"]
    lhs = abs(complex(y.conj() @ (a @ x))) ** 2
    rhs = _vec_quad(abs_power(a, 2 * al), x) * _vec_quad(
        abs_power(adjoint(a), 2 * (1 - al)), y
    )
    return [Part("main", lhs, rhs)]


def _ev_lem3(o, p, env):
    a, b = o["a"], o["b"]
    al, r, s = p["alpha"], p["r"], p["s"]
    return [Part("main", power_mean(a, b, al, r), power_mean(a, b, al, s))]


# --- catalog ---------------------------------------------------------------


def _gen(*names):
    return tuple((nm, "general") for nm in names)


def _pos(*names):
    return tuple((nm, "positive") for nm in names)


CATALOG: dict[str, CatalogEntry] = {}


def _register(entry: CatalogEntry) -> None:
    CATALOG[entry.ineq_id] = entry


_register(CatalogEntry(
    "thm1",
    "squared Berezin norm of (A*XB + C*YD)/2 against a Hoelder product of "
    "Berezin numbers of weighted power means",
    _gen("A", "B", "C", "D", "X", "Y"), ("alpha", "r", "s"), _ev_thm1,
))
_register(CatalogEntry(
    "cor1",
    "squared Berezin norm of the average of two operators against powers "
    "of |A|, |B| and their adjoints",
    _gen("A", "B"), ("alpha", "r", "s"), _ev_cor1,
))
_register(CatalogEntry(
    "eqn1",
    "r-th power of the Berezin norm of a sum against 2^(r-1) times a "
    "geometric mean of Berezin numbers",
    _gen("A", "B"), ("alpha", "r"), _ev_eqn1,
))
_register(CatalogEntry(
    "eqn2cmp",
    "sharpness comparison: the geometric-mean bound never exceeds the "
    "arithmetic-mean bound (interior alpha)",
    _gen("A", "B"), ("alpha", "r"), _ev_eqn2cmp, interior_alpha=True,
))
_register(CatalogEntry(
    "eq1",
    "squared Berezin norm of (A*B + C*D)/2 against Hoelder factors in "
    "|A|, |C| and |B|, |D|",
    _gen("A", "B", "C", "D"), ("r", "s"), _ev_eq1,
))
_register(CatalogEntry(
    "ceb",
    "squared Berezin number of (A*B + C*D)/2 against the same Hoelder "
    "factors (number version of eq1)",
    _gen("A", "B", "C", "D"), ("r", "s"),
    lambda o, p, env: _ev_eq1(o, p, env, number=True),
))
_register(CatalogEntry(
    "cor4",
    "2r-th power of the Berezin norm of (A*B + C*D)/2 against a product "
    "of two Berezin numbers",
    _gen("A", "B", "C", "D"), ("r",), _ev_cor4,
))
_register(CatalogEntry(
    "prop1",
    "Berezin norm equals Berezin number for positive operators",
    _pos("A"), (), _ev_prop1,
))
_register(CatalogEntry(
    "cor5",
    "Berezin norm of the symmetrized product (A*B + B*A)/2",
    _gen("A", "B"), ("r", "s"), _ev_cor5,
))
_register(CatalogEntry(
    "eqn21",
    "2r-th power of the Berezin norm of an average against the mean of "
    "|A|^2r and |B|^2r",
    _gen("A", "B"), ("r",), _ev_eqn21,
))
_register(CatalogEntry(
    "reim",
    "bounds through the Hermitian and skew parts of A",
    _gen("A"), ("r",), _ev_reim,
))
_register(CatalogEntry(
    "cor6",
    "Berezin norm of (A^2 + B^2)/2 against mixed powers of moduli",
    _gen("A", "B"), ("r", "s"), _ev_cor6,
))
_register(CatalogEntry(
    "eqn3",
    "averaged-sum bound with identity-padded power means (two operators)",
    _gen("A", "B"), ("r", "s"), _ev_eqn3,
))
_register(CatalogEntry(
    "eqn4",
    "identity-padded bound for a single operator (squared norm)",
    _gen("A",), ("r", "s"), lambda o, p, env: _ev_eqn3({"A": o["A"], "B": o["A"]}, p, env),
))
_register(CatalogEntry(
    "eqn5",
    "identity-padded bound for a single operator (2r-th power)",
    _gen("A",), ("r",), _ev_eqn5,
))
_register(CatalogEntry(
    "abprod",
    "Berezin norm of a product AB against powers of |A*| and |B|",
    _gen("A", "B"), ("r", "s"), _ev_abprod,
))
_register(CatalogEntry(
    "cor8",
    "Berezin norm of (AB +/- BA)/2 against mixed powers of moduli",
    _gen("A", "B"), ("r", "s"), _ev_cor8,
))
_register(CatalogEntry(
    "eqn6",
    "r-th power of the Berezin norm of AA* +/- A*A against Berezin "
    "numbers of (A*A)^r + (AA*)^r",
    _gen("A",), ("r",), _ev_eqn6,
))
_register(CatalogEntry(
    "eql1",
    "Berezin norm of the self-commutator against the Berezin number of "
    "A*A + AA*",
    _gen("A",), (), _ev_eql1,
))
_register(CatalogEntry(
    "thm2",
    "interpolation bound for positive operators: cross terms A^a B^(1-a)",
    _pos("A", "B"), ("alpha", "r", "s"), _ev_thm2,
))
_register(CatalogEntry(
    "eqn11",
    "2r-th power of the un-averaged cross-term sum for positive operators",
    _pos("A", "B"), ("alpha", "r"), _ev_eqn11,
))
_register(CatalogEntry(
    "eqn12",
    "Berezin norm of A^(1/2) B^(1/2) against the geometric mean of "
    "Berezin numbers (positive operators)",
    _pos("A", "B"), (), _ev_eqn12,
))
_register(CatalogEntry(
    "eqn13",
    "Berezin norm of (AB)^(1/2) for commuting positive operators",
    _pos("A", "B"), (), _ev_eqn13, commuting=("A", "B"),
))
_register(CatalogEntry(
    "thm3",
    "squared Berezin norm of a convex combination against a quadratic "
    "mean plus a cross Berezin number",
    _gen("A", "B"), ("alpha",), _ev_thm3,
))
_register(CatalogEntry(
    "thm3half",
    "the alpha = 1/2 convex-combination bound, scaled to a plain sum",
    _gen("A", "B"), (), _ev_thm3half,
))
_register(CatalogEntry(
    "rmk_i",
    "operator-norm analogue of thm1",
    _gen("A", "B", "C", "D", "X", "Y"), ("alpha", "r", "s"), _ev_thm1,
    needs_model=False,
))
_register(CatalogEntry(
    "rmk_ii",
    "operator-norm analogue of the (A*B + C*D)/2 bound",
    # thm1 with X = Y = I: |I|^(2 alpha) = I, so B*|X|^(2 alpha)B = B*B
    _gen("A", "B", "C", "D"), ("r", "s"),
    lambda o, p, env: _ev_thm1(dict(o, X=_eye(o["A"]), Y=_eye(o["A"])), dict(p, alpha=1.0), env),
    needs_model=False,
))
_register(CatalogEntry(
    "rmk_iii",
    "operator-norm analogue of the positive-operator interpolation bound",
    _pos("A", "B"), ("alpha", "r", "s"), _ev_thm2, needs_model=False,
))
_register(CatalogEntry(
    "rmk_iv",
    "operator-norm analogue of the convex-combination bound, with the "
    "numerical radius in the cross term",
    _gen("A", "B"), ("alpha",), _ev_thm3, needs_model=False,
))
_register(CatalogEntry(
    "lem1",
    "scalar power bound: <Px, x>^r <= <P^r x, x> for positive P, unit x",
    (("P", "positive"), ("x", "unit-vector")), ("r",), _ev_lem1,
    needs_model=False,
))
_register(CatalogEntry(
    "lem2",
    "mixed Schwarz bound through |A|^{2a} and |A*|^{2(1-a)}",
    (("A", "general"), ("x", "unit-vector"), ("y", "unit-vector")),
    ("alpha",), _ev_lem2, needs_model=False,
))
_register(CatalogEntry(
    "lem3",
    "weighted power means of two nonnegative scalars are monotone in the "
    "order",
    (("a", "scalar"), ("b", "scalar")), ("alpha", "r", "s"), _ev_lem3,
    interior_alpha=True, needs_model=False,
))

CATALOG_ORDER = tuple(CATALOG)


# --- validation and checking ------------------------------------------------


def _validated_params(entry: CatalogEntry, given: dict) -> dict:
    out = {}
    for name in entry.params:
        if name not in given or given[name] is None:
            raise ParamOutOfRange(f"{entry.ineq_id} requires parameter {name!r}")
        try:
            v = float(given[name])
        except (TypeError, ValueError) as exc:
            raise ParamOutOfRange(f"parameter {name}={given[name]!r} is not a number") from exc
        if not math.isfinite(v):
            raise ParamOutOfRange(f"parameter {name} must be finite")
        if name == "alpha":
            if entry.interior_alpha and not (0.0 < v < 1.0):
                raise ParamOutOfRange(
                    f"{entry.ineq_id} needs alpha strictly inside (0, 1), got {v}"
                )
            if not (0.0 <= v <= 1.0):
                raise ParamOutOfRange(f"alpha must lie in [0, 1], got {v}")
        elif entry.ineq_id != "lem3" and v < 1.0:
            raise ParamOutOfRange(f"{entry.ineq_id} needs {name} >= 1, got {v}")
        out[name] = v
    if entry.ineq_id == "lem3" and out["r"] > out["s"]:
        raise ParamOutOfRange(f"lem3 needs r <= s, got r={out['r']}, s={out['s']}")
    return out


def _validated_operands(entry: CatalogEntry, case: InequalityCase) -> tuple:
    ops = {}
    n = None
    for name, kind in entry.operand_spec:
        if name not in case.operands:
            raise ValueError(f"{entry.ineq_id} requires operand {name!r}")
        val = case.operands[name]
        if kind == "scalar":
            v = float(val)
            if not math.isfinite(v) or v < 0.0:
                raise ParamOutOfRange(f"operand {name} must be a finite scalar >= 0")
            ops[name] = v
            continue
        if kind == "unit-vector":
            x = np.asarray(val, dtype=np.complex128)
            if x.ndim != 1:
                raise DimensionMismatch(f"operand {name} must be a vector")
            if not np.all(np.isfinite(x.real)) or not np.all(np.isfinite(x.imag)):
                raise ValueError(f"operand {name} has non-finite entries")
            nrm = float(np.linalg.norm(x))
            if nrm == 0.0:
                raise ValueError(f"operand {name} must be nonzero")
            if n is not None and x.shape[0] != n:
                raise DimensionMismatch(
                    f"operand {name} has length {x.shape[0]}, expected {n}"
                )
            n = n if n is not None else x.shape[0]
            ops[name] = x / nrm
            continue
        m = as_complex_matrix(val)
        if m.shape[0] != m.shape[1]:
            raise DimensionMismatch(f"operand {name} must be square, got {m.shape}")
        if n is not None and m.shape[0] != n:
            raise DimensionMismatch(
                f"operand {name} is {m.shape[0]}x{m.shape[1]}, expected {n}x{n}"
            )
        n = m.shape[0]
        if kind == "positive" and not is_positive(m):
            raise NotPositive(f"{entry.ineq_id} operand {name} must be positive semidefinite")
        ops[name] = m
    if entry.commuting is not None:
        x, y = (ops[nm] for nm in entry.commuting)
        comm = float(np.linalg.norm(x @ y - y @ x))
        scale = max(1.0, float(np.linalg.norm(x)) * float(np.linalg.norm(y)))
        if comm > COMMUTE_TOL * scale:
            raise NotCommuting(
                f"{entry.ineq_id} needs commuting operands; ||[A,B]|| = {comm:.3e}"
            )
    if entry.needs_model:
        if case.model is None:
            raise ValueError(f"{entry.ineq_id} needs a kernel model")
        if n is not None and case.model.dimension != n:
            raise DimensionMismatch(
                f"operands are {n}x{n} but model dimension is {case.model.dimension}"
            )
    return ops, n


def check(case: InequalityCase) -> InequalityResult:
    """Evaluate one inequality instance and report the tightest part."""
    entry = CATALOG.get(case.ineq_id)
    if entry is None:
        raise UnknownIneqId(f"no catalog entry {case.ineq_id!r}")
    return _check_validated(entry, case, *_validated_operands(entry, case))


def _check_validated(entry: CatalogEntry, case: InequalityCase, ops: dict,
                     n: int | None) -> InequalityResult:
    """`check` after `_validated_operands(entry, case)` returned (ops, n)."""
    params = _validated_params(entry, case.params)
    env = _Env(case.model, case.level) if entry.needs_model else _OPERATOR_ENV
    parts = entry.evaluate(ops, params, env)
    tol = float(case.tolerance)
    ok = all(pt.lhs <= pt.rhs + tol * max(1.0, pt.rhs) for pt in parts)
    worst = min(parts, key=lambda pt: (pt.rhs - pt.lhs) / max(1.0, pt.rhs))
    return InequalityResult(
        ineq_id=case.ineq_id,
        lhs=worst.lhs,
        rhs=worst.rhs,
        gap=worst.rhs - worst.lhs,
        satisfied=bool(ok),
        witness={
            "part": worst.label,
            "parts": [
                {"part": pt.label, "lhs": pt.lhs, "rhs": pt.rhs, "gap": pt.rhs - pt.lhs}
                for pt in parts
            ],
            "params": dict(params),
            "n": n,
        },
    )


def verify_positive_equality(model: KernelModel, a: np.ndarray,
                             tol: float = 1e-8, level: int = 1) -> InequalityResult:
    """Check that the Berezin norm and Berezin number agree for PSD input.

    Runs the catalog entry prop1 at tolerance `tol`, so disk-model values
    carry its lift (see `_ev_prop1`).  Raises NotPositive when the operand
    is not PSD at the standard tolerance.  lhs is the norm, rhs the number;
    satisfied means each is within tol * max(1, other) of the other.  The
    witness adds `exact`, true on finite-kind models.
    """
    res = check(InequalityCase("prop1", {"A": a}, model=model, tolerance=tol, level=level))
    norm, number = res.witness["parts"][0]["lhs"], res.witness["parts"][0]["rhs"]
    return replace(res, lhs=norm, rhs=number, gap=number - norm,
                   witness={**res.witness, "exact": model.is_finite_kind})
