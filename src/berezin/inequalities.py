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

The evaluators see the quantities they bound only through one environment
record of three callables: `ber`, `nber` and `cross`.  On a kernel model
these are the model's Berezin number, its Berezin norm and the number again;
the operator-norm remarks (rmk_i to rmk_iv) run the same evaluators with the
operator norm as both `ber` and `nber` and the numerical radius as `cross`.
Variants of one inequality differ only in that record: ceb is eq1 run with
`nber` replaced by `ber`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cache, partial
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
    """One catalog inequality and its evaluator.

    `evaluate(ops, env) -> parts` binds one trial's validated operands and
    the environment; `parts(**params) -> list[Part]` then takes one
    validated combination, its argument names being `params`.  A campaign
    calls `parts` once per point of the trial's sweep grid, `check` once.
    Each factor is computed once per distinct value of the parameters it
    depends on (once per trial if it depends on none), with the same
    arithmetic as for one combination, so every row is the same bit for bit
    however many points share the evaluator.
    """

    ineq_id: str
    description: str
    operand_spec: tuple  # ((name, kind), ...); kinds: general/positive/unit-vector/scalar
    params: tuple
    evaluate: Callable
    interior_alpha: bool = False
    needs_model: bool = True
    commuting: tuple | None = None


class _Env(NamedTuple):
    """What the evaluators run with: three callables, matrix -> float.

    `ber` stands for the Berezin number, `nber` for the Berezin norm and
    `cross` for the quantity of Theorem 3's B*A term.  `model` and `level`
    are read only by prop1's argmax lift.  Built by `_evaluate_grid`.
    """

    ber: Callable
    nber: Callable
    cross: Callable
    model: KernelModel | None
    level: int | None


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
#
# Each evaluator binds one trial's operands and an `_Env`, and returns
# parts(**params) (see `CatalogEntry`).  It calls only env.ber, env.nber and
# env.cross, so the Berezin-norm, Berezin-number and operator-norm variants
# of an inequality share it.  A factor that depends on no parameter is computed in
# the evaluator body; one that depends on some of them sits in a `cache`d
# closure keyed by those parameters or by the exponent.


def _abs_powers(m):
    """e -> |M|^e, each exponent computed once."""
    return cache(partial(abs_power, m))


def _ber_mean(env, f, g):
    """e -> ber((f(e) + g(e))/2), each exponent computed once."""
    return cache(lambda e: env.ber(_hm(f(e), g(e))))


def _modulus_factors(a, b, env):
    """The factors of cor1, cor6 and cor8: e -> the Berezin number of the
    mean of |A|^e, |B|^e, and e -> that of the mean of |A*|^e, |B*|^e."""
    return (
        _ber_mean(env, _abs_powers(a), _abs_powers(b)),
        _ber_mean(env, _abs_powers(adjoint(a)), _abs_powers(adjoint(b))),
    )


def _ev_thm1(o, env):
    a, b, c, d, x, y = o["A"], o["B"], o["C"], o["D"], o["X"], o["Y"]
    lhs = env.nber(_hm(adjoint(a) @ x @ b, adjoint(c) @ y @ d)) ** 2

    @cache
    def inner(al):  # B*|X|^(2 alpha)B and D*|Y|^(2 alpha)D
        return adjoint(b) @ abs_power(x, 2 * al) @ b, adjoint(d) @ abs_power(y, 2 * al) @ d

    @cache
    def outer(al):  # A*|X*|^(2(1 - alpha))A and C*|Y*|^(2(1 - alpha))C
        return (
            adjoint(a) @ abs_power(adjoint(x), 2 * (1 - al)) @ a,
            adjoint(c) @ abs_power(adjoint(y), 2 * (1 - al)) @ c,
        )

    @cache
    def f_r(al, r):
        bxb, dyd = inner(al)
        return env.ber(_hm(positive_power(bxb, r), positive_power(dyd, r))) ** (1.0 / r)

    @cache
    def f_s(al, s):
        axa, cyc = outer(al)
        return env.ber(_hm(positive_power(axa, s), positive_power(cyc, s))) ** (1.0 / s)

    return lambda alpha, r, s: [Part("main", lhs, f_r(alpha, r) * f_s(alpha, s))]


def _ev_cor1(o, env):
    a, b = o["A"], o["B"]
    lhs = env.nber(_hm(a, b)) ** 2
    f, g = _modulus_factors(a, b, env)
    return lambda alpha, r, s: [
        Part("main", lhs, f(2 * alpha * r) ** (1.0 / r) * g(2 * (1 - alpha) * s) ** (1.0 / s))
    ]


def _eqn1_factors(o, env):
    """(alpha, r) -> the Berezin numbers of |A|^(2 alpha r) + |B|^(2 alpha r)
    and of |A*|^(2(1-alpha)r) + |B*|^(2(1-alpha)r)."""
    a, b = o["A"], o["B"]
    pa, pb = _abs_powers(a), _abs_powers(b)
    qa, qb = _abs_powers(adjoint(a)), _abs_powers(adjoint(b))
    x = cache(lambda e: env.ber(pa(e) + pb(e)))
    y = cache(lambda e: env.ber(qa(e) + qb(e)))
    return lambda al, r: (x(2 * al * r), y(2 * (1 - al) * r))


def _ev_eqn1(o, env):
    factors = _eqn1_factors(o, env)
    nm = env.nber(o["A"] + o["B"])

    def parts(alpha, r):
        x, y = factors(alpha, r)
        return [Part("main", nm**r, 2.0 ** (r - 1.0) * math.sqrt(x) * math.sqrt(y))]
    return parts


def _ev_eqn2cmp(o, env):
    factors = _eqn1_factors(o, env)

    def parts(alpha, r):
        x, y = factors(alpha, r)
        return [Part("main", 2.0 ** (r - 1.0) * math.sqrt(x * y), 2.0 ** (r - 2.0) * (x + y))]
    return parts


def _ev_eq1(o, env):
    a, b, c, d = o["A"], o["B"], o["C"], o["D"]
    lhs = env.nber(_hm(adjoint(a) @ b, adjoint(c) @ d)) ** 2
    f = _ber_mean(env, _abs_powers(a), _abs_powers(c))
    g = _ber_mean(env, _abs_powers(b), _abs_powers(d))
    return lambda r, s: [Part("main", lhs, f(2 * r) ** (1.0 / r) * g(2 * s) ** (1.0 / s))]


def _ev_cor4(o, env):
    a, b, c, d = o["A"], o["B"], o["C"], o["D"]
    nm = env.nber(_hm(adjoint(a) @ b, adjoint(c) @ d))
    f = _ber_mean(env, _abs_powers(a), _abs_powers(c))
    g = _ber_mean(env, _abs_powers(b), _abs_powers(d))
    return lambda r: [Part("main", nm ** (2.0 * r), f(2 * r) * g(2 * r))]


def _ev_prop1(o, env):
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
    return lambda: [Part("norm<=number", nb, bn), Part("number<=norm", bn, nb)]


def _ev_cor5(o, env):
    a, b = o["A"], o["B"]
    x = _ber_mean(env, _abs_powers(a), _abs_powers(b))
    nm = env.nber(_hm(adjoint(a) @ b, adjoint(b) @ a))

    @cache
    def total():
        return Part(
            "sum",
            env.nber(adjoint(a) @ b + adjoint(b) @ a),
            env.ber(adjoint(a) @ a + adjoint(b) @ b),
        )

    def parts(r, s):
        x_r = x(2 * r)
        out = [
            Part("holder", nm**2, x_r ** (1.0 / r) * x(2 * s) ** (1.0 / s)),
            Part("power", nm**r, x_r),
        ]
        if r == 1.0:
            out.append(total())
        return out
    return parts


def _ev_eqn21(o, env):
    a, b = o["A"], o["B"]
    nm = env.nber(_hm(a, b))
    f = _ber_mean(env, _abs_powers(a), _abs_powers(b))

    def parts(r):
        out = [Part("main", nm ** (2.0 * r), f(2 * r))]
        if r == 1.0:
            out.append(Part(
                "sum",
                env.nber(a + b) ** 2,
                2.0 * env.ber(adjoint(a) @ a + adjoint(b) @ b),
            ))
        return out
    return parts


def _ev_reim(o, env):
    a = o["A"]
    re, im = re_part(a), im_part(a)
    nm, nm_re, nm_im = env.nber(a), env.nber(re), env.nber(im)
    mixed = _ber_mean(env, _abs_powers(a), _abs_powers(adjoint(a)))

    def parts(r):
        full = env.ber(abs_power(re, 2 * r) + abs_power(im, 2 * r))
        return [
            Part("full", nm ** (2.0 * r), 2.0 ** (2.0 * r - 1.0) * full),
            Part("re", nm_re ** (2.0 * r), mixed(2 * r)),
            Part("im", nm_im ** (2.0 * r), mixed(2 * r)),
        ]
    return parts


def _ev_cor6(o, env):
    a, b = o["A"], o["B"]
    f, g = _modulus_factors(a, b, env)
    nm = env.nber(_hm(a @ a, b @ b))

    def parts(r, s):
        f_r = f(2 * r)
        out = [
            Part("holder", nm**2, f_r ** (1.0 / r) * g(2 * s) ** (1.0 / s)),
            Part("power", nm ** (2.0 * r), f_r * g(2 * r)),
        ]
        if r == 1.0 and s == 1.0:
            out.append(Part(
                "sum",
                env.nber(a @ a + b @ b) ** 2,
                env.ber(adjoint(a) @ a + adjoint(b) @ b)
                * env.ber(a @ adjoint(a) + b @ adjoint(b)),
            ))
        return out
    return parts


def _ev_eqn3(o, env):
    a, b = o["A"], o["B"]
    eye = _eye(a)
    lhs = env.nber(_hm(a, b)) ** 2
    f = _ber_mean(env, _abs_powers(a), lambda e: eye)
    g = _ber_mean(env, _abs_powers(adjoint(b)), lambda e: eye)
    return lambda r, s: [Part("main", lhs, f(2 * r) ** (1.0 / r) * g(2 * s) ** (1.0 / s))]


def _ev_eqn5(o, env):
    a = o["A"]
    eye = _eye(a)
    nm = env.nber(a)
    f = _ber_mean(env, _abs_powers(a), lambda e: eye)
    g = _ber_mean(env, _abs_powers(adjoint(a)), lambda e: eye)
    return lambda r: [Part("main", nm ** (2.0 * r), f(2 * r) * g(2 * r))]


def _ev_abprod(o, env):
    a, b = o["A"], o["B"]
    nm = env.nber(a @ b)
    f_a = cache(lambda e: env.ber(abs_power(adjoint(a), e)))
    f_b = cache(lambda e: env.ber(abs_power(b, e)))

    def parts(r, s):
        f_ar = f_a(2 * r)
        out = [
            Part(
                "holder",
                nm**2,
                2.0 ** (2.0 - 1.0 / r - 1.0 / s) * f_ar ** (1.0 / r) * f_b(2 * s) ** (1.0 / s),
            ),
            Part("power", nm ** (2.0 * r), 2.0 ** (2.0 * r - 2.0) * f_ar * f_b(2 * r)),
        ]
        if r == 1.0 and s == 1.0:
            out.append(Part(
                "factored",
                nm,
                math.sqrt(env.ber(a @ adjoint(a))) * math.sqrt(env.ber(adjoint(b) @ b)),
            ))
        return out
    return parts


def _ev_cor8(o, env):
    a, b = o["A"], o["B"]
    f, g = _modulus_factors(a, b, env)
    signed = [
        (tag, env.nber(_hm(a @ b, sign * (b @ a))))
        for sign, tag in ((1.0, "plus"), (-1.0, "minus"))
    ]

    def parts(r, s):
        f_r, f_s, f_radj = f(2 * r), g(2 * s), g(2 * r)
        out = []
        for tag, nm in signed:
            out.append(Part(f"holder-{tag}", nm**2, f_r ** (1.0 / r) * f_s ** (1.0 / s)))
            out.append(Part(f"power-{tag}", nm ** (2.0 * r), f_r * f_radj))
        return out
    return parts


def _ev_eqn6(o, env):
    a = o["A"]
    gram = adjoint(a) @ a
    cogram = a @ adjoint(a)
    plus, minus = env.nber(cogram + gram), env.nber(cogram - gram)

    def parts(r):
        rhs = 2.0 ** (r - 1.0) * env.ber(positive_power(gram, r) + positive_power(cogram, r))
        return [Part("plus", plus**r, rhs), Part("minus", minus**r, rhs)]
    return parts


def _ev_eql1(o, env):
    a = o["A"]
    gram = adjoint(a) @ a
    cogram = a @ adjoint(a)
    lhs, rhs = env.nber(cogram - gram), env.ber(gram + cogram)
    return lambda: [Part("main", lhs, rhs)]


def _ev_thm2(o, env):
    a, b = o["A"], o["B"]
    pa, pb = cache(partial(positive_power, a)), cache(partial(positive_power, b))

    @cache
    def lhs(al):
        return env.nber(_hm(pa(al) @ pb(1 - al), pa(1 - al) @ pb(al))) ** 2

    @cache
    def f_a(al, r):
        return env.ber(_hm(pa(2 * al * r), pa(2 * (1 - al) * r))) ** (1.0 / r)

    @cache
    def f_b(al, s):
        return env.ber(_hm(pb(2 * al * s), pb(2 * (1 - al) * s))) ** (1.0 / s)

    return lambda alpha, r, s: [Part("main", lhs(alpha), f_a(alpha, r) * f_b(alpha, s))]


def _ev_eqn11(o, env):
    a, b = o["A"], o["B"]
    pa, pb = cache(partial(positive_power, a)), cache(partial(positive_power, b))
    nm = cache(lambda al: env.nber(pa(al) @ pb(1 - al) + pa(1 - al) @ pb(al)))

    def parts(alpha, r):
        rhs = (
            2.0 ** (2.0 * r - 2.0)
            * env.ber(pa(2 * alpha * r) + pa(2 * (1 - alpha) * r))
            * env.ber(pb(2 * alpha * r) + pb(2 * (1 - alpha) * r))
        )
        return [Part("main", nm(alpha) ** (2.0 * r), rhs)]
    return parts


def _ev_eqn12(o, env):
    a, b = o["A"], o["B"]
    lhs = env.nber(positive_sqrt(a) @ positive_sqrt(b))
    rhs = math.sqrt(env.ber(a)) * math.sqrt(env.ber(b))
    return lambda: [Part("main", lhs, rhs)]


def _ev_eqn13(o, env):
    a, b = o["A"], o["B"]
    lhs = env.nber(positive_sqrt(a @ b))
    rhs = math.sqrt(env.ber(a)) * math.sqrt(env.ber(b))
    return lambda: [Part("main", lhs, rhs)]


def _ev_thm3(o, env):
    a, b = o["A"], o["B"]
    gram_a, gram_b = adjoint(a) @ a, adjoint(b) @ b
    cross = env.cross(adjoint(b) @ a)

    def parts(alpha):
        lhs = env.nber(alpha * a + (1 - alpha) * b) ** 2
        rhs = env.ber(
            alpha**2 * gram_a + (1 - alpha) ** 2 * gram_b
        ) + 2.0 * alpha * (1 - alpha) * cross
        return [Part("main", lhs, rhs)]
    return parts


def _ev_thm3half(o, env):
    a, b = o["A"], o["B"]
    lhs = env.nber(a + b) ** 2
    rhs = env.ber(adjoint(a) @ a + adjoint(b) @ b) + 2.0 * env.ber(adjoint(b) @ a)
    return lambda: [Part("main", lhs, rhs)]


def _ev_lem1(o, env):
    pm, x = o["P"], o["x"]
    quad = _vec_quad(pm, x)
    return lambda r: [Part("main", quad**r, _vec_quad(positive_power(pm, r), x))]


def _ev_lem2(o, env):
    a, x, y = o["A"], o["x"], o["y"]
    lhs = abs(complex(y.conj() @ (a @ x))) ** 2

    def parts(alpha):
        rhs = _vec_quad(abs_power(a, 2 * alpha), x) * _vec_quad(
            abs_power(adjoint(a), 2 * (1 - alpha)), y
        )
        return [Part("main", lhs, rhs)]
    return parts


def _ev_lem3(o, env):
    a, b = o["a"], o["b"]
    return lambda alpha, r, s: [
        Part("main", power_mean(a, b, alpha, r), power_mean(a, b, alpha, s))
    ]


# --- catalog ---------------------------------------------------------------


def _gen(*names):
    return tuple((nm, "general") for nm in names)


def _pos(*names):
    return tuple((nm, "positive") for nm in names)


CATALOG: dict[str, CatalogEntry] = {entry.ineq_id: entry for entry in (
    CatalogEntry("thm1", "squared Berezin norm of (A*XB + C*YD)/2 against a Hoelder product of "
                 "Berezin numbers of weighted power means",
                 _gen("A", "B", "C", "D", "X", "Y"), ("alpha", "r", "s"), _ev_thm1),
    CatalogEntry("cor1", "squared Berezin norm of the average of two operators against powers "
                 "of |A|, |B| and their adjoints",
                 _gen("A", "B"), ("alpha", "r", "s"), _ev_cor1),
    CatalogEntry("eqn1", "r-th power of the Berezin norm of a sum against 2^(r-1) times a "
                 "geometric mean of Berezin numbers",
                 _gen("A", "B"), ("alpha", "r"), _ev_eqn1),
    CatalogEntry("eqn2cmp", "sharpness comparison: the geometric-mean bound never exceeds the "
                 "arithmetic-mean bound (interior alpha)",
                 _gen("A", "B"), ("alpha", "r"), _ev_eqn2cmp, interior_alpha=True),
    CatalogEntry("eq1", "squared Berezin norm of (A*B + C*D)/2 against Hoelder factors in "
                 "|A|, |C| and |B|, |D|",
                 _gen("A", "B", "C", "D"), ("r", "s"), _ev_eq1),
    CatalogEntry("ceb", "squared Berezin number of (A*B + C*D)/2 against the same Hoelder "
                 "factors (number version of eq1)",
                 _gen("A", "B", "C", "D"), ("r", "s"),
                 lambda o, env: _ev_eq1(o, env._replace(nber=env.ber))),
    CatalogEntry("cor4", "2r-th power of the Berezin norm of (A*B + C*D)/2 against a product "
                 "of two Berezin numbers",
                 _gen("A", "B", "C", "D"), ("r",), _ev_cor4),
    CatalogEntry("prop1", "Berezin norm equals Berezin number for positive operators",
                 _pos("A"), (), _ev_prop1),
    CatalogEntry("cor5", "Berezin norm of the symmetrized product (A*B + B*A)/2",
                 _gen("A", "B"), ("r", "s"), _ev_cor5),
    CatalogEntry("eqn21", "2r-th power of the Berezin norm of an average against the mean of "
                 "|A|^2r and |B|^2r",
                 _gen("A", "B"), ("r",), _ev_eqn21),
    CatalogEntry("reim", "bounds through the Hermitian and skew parts of A",
                 _gen("A"), ("r",), _ev_reim),
    CatalogEntry("cor6", "Berezin norm of (A^2 + B^2)/2 against mixed powers of moduli",
                 _gen("A", "B"), ("r", "s"), _ev_cor6),
    CatalogEntry("eqn3", "averaged-sum bound with identity-padded power means (two operators)",
                 _gen("A", "B"), ("r", "s"), _ev_eqn3),
    CatalogEntry("eqn4", "identity-padded bound for a single operator (squared norm)",
                 _gen("A"), ("r", "s"),
                 lambda o, env: _ev_eqn3({"A": o["A"], "B": o["A"]}, env)),
    CatalogEntry("eqn5", "identity-padded bound for a single operator (2r-th power)",
                 _gen("A"), ("r",), _ev_eqn5),
    CatalogEntry("abprod", "Berezin norm of a product AB against powers of |A*| and |B|",
                 _gen("A", "B"), ("r", "s"), _ev_abprod),
    CatalogEntry("cor8", "Berezin norm of (AB +/- BA)/2 against mixed powers of moduli",
                 _gen("A", "B"), ("r", "s"), _ev_cor8),
    CatalogEntry("eqn6", "r-th power of the Berezin norm of AA* +/- A*A against Berezin "
                 "numbers of (A*A)^r + (AA*)^r",
                 _gen("A"), ("r",), _ev_eqn6),
    CatalogEntry("eql1", "Berezin norm of the self-commutator against the Berezin number of "
                 "A*A + AA*",
                 _gen("A"), (), _ev_eql1),
    CatalogEntry("thm2", "interpolation bound for positive operators: cross terms A^a B^(1-a)",
                 _pos("A", "B"), ("alpha", "r", "s"), _ev_thm2),
    CatalogEntry("eqn11", "2r-th power of the un-averaged cross-term sum for positive operators",
                 _pos("A", "B"), ("alpha", "r"), _ev_eqn11),
    CatalogEntry("eqn12", "Berezin norm of A^(1/2) B^(1/2) against the geometric mean of "
                 "Berezin numbers (positive operators)",
                 _pos("A", "B"), (), _ev_eqn12),
    CatalogEntry("eqn13", "Berezin norm of (AB)^(1/2) for commuting positive operators",
                 _pos("A", "B"), (), _ev_eqn13, commuting=("A", "B")),
    CatalogEntry("thm3", "squared Berezin norm of a convex combination against a quadratic "
                 "mean plus a cross Berezin number",
                 _gen("A", "B"), ("alpha",), _ev_thm3),
    CatalogEntry("thm3half", "the alpha = 1/2 convex-combination bound, scaled to a plain sum",
                 _gen("A", "B"), (), _ev_thm3half),
    CatalogEntry("rmk_i", "operator-norm analogue of thm1",
                 _gen("A", "B", "C", "D", "X", "Y"), ("alpha", "r", "s"), _ev_thm1,
                 needs_model=False),
    # thm1 with X = Y = I: |I|^(2 alpha) = I, so B*|X|^(2 alpha)B = B*B
    CatalogEntry("rmk_ii", "operator-norm analogue of the (A*B + C*D)/2 bound",
                 _gen("A", "B", "C", "D"), ("r", "s"),
                 lambda o, env: partial(
                     _ev_thm1(dict(o, X=_eye(o["A"]), Y=_eye(o["A"])), env), 1.0),
                 needs_model=False),
    CatalogEntry("rmk_iii", "operator-norm analogue of the positive-operator interpolation bound",
                 _pos("A", "B"), ("alpha", "r", "s"), _ev_thm2, needs_model=False),
    CatalogEntry("rmk_iv", "operator-norm analogue of the convex-combination bound, with the "
                 "numerical radius in the cross term",
                 _gen("A", "B"), ("alpha",), _ev_thm3, needs_model=False),
    CatalogEntry("lem1", "scalar power bound: <Px, x>^r <= <P^r x, x> for positive P, unit x",
                 (("P", "positive"), ("x", "unit-vector")), ("r",), _ev_lem1,
                 needs_model=False),
    CatalogEntry("lem2", "mixed Schwarz bound through |A|^{2a} and |A*|^{2(1-a)}",
                 (("A", "general"), ("x", "unit-vector"), ("y", "unit-vector")),
                 ("alpha",), _ev_lem2, needs_model=False),
    CatalogEntry("lem3", "weighted power means of two nonnegative scalars are monotone in the "
                 "order",
                 (("a", "scalar"), ("b", "scalar")), ("alpha", "r", "s"), _ev_lem3,
                 interior_alpha=True, needs_model=False),
)}

CATALOG_ORDER = tuple(CATALOG)


# --- validation and checking ------------------------------------------------


def _validated_tolerance(tol) -> float:
    """The tolerance as a float; a NaN, infinite or negative one raises
    ParamOutOfRange, zero is valid."""
    t = float(tol)
    if not 0.0 <= t < math.inf:
        raise ParamOutOfRange(f"tolerance must be finite and >= 0, got {tol!r}")
    return t


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
    tol = _validated_tolerance(case.tolerance)
    ops, n = _validated_operands(entry, case)
    params = _validated_params(entry, case.params)
    (parts,) = _evaluate_grid(entry, case, ops, [params])
    return _result(case.ineq_id, parts, params, n, tol)


def _evaluate_grid(entry: CatalogEntry, case: InequalityCase, ops: dict,
                   combos: list[dict]) -> list[list[Part]]:
    """The parts of each parameter combination, from one evaluator.

    `ops` is the first item of `_validated_operands(entry, case)`, each
    combination has passed `_validated_params`, and `case.params` is not
    read.
    """
    if entry.needs_model:
        model, level = case.model, case.level

        def ber(m):
            return calc.berezin_number(model, m, level=level).value

        def nber(m):
            return calc.berezin_norm(model, m, level=level).value

        env = _Env(ber, nber, ber, model, level)
    else:
        env = _Env(operator_norm, operator_norm, calc.numerical_radius, None, None)
    parts = entry.evaluate(ops, env)
    return [parts(**params) for params in combos]


def _verdict(parts: list[Part], tol: float) -> tuple[Part, bool]:
    """The part with the least relative slack, and whether every part holds."""
    ok = all(pt.lhs <= pt.rhs + tol * max(1.0, pt.rhs) for pt in parts)
    worst = min(parts, key=lambda pt: (pt.rhs - pt.lhs) / max(1.0, pt.rhs))
    return worst, ok


def _result(ineq_id: str, parts: list[Part], params: dict, n: int | None,
            tol: float) -> InequalityResult:
    """The `check` result of one combination's parts, with its full witness."""
    worst, ok = _verdict(parts, tol)
    return InequalityResult(
        ineq_id=ineq_id,
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
