"""Randomized certification harness.

Operands are drawn from a counter-based generator (Philox) through an
explicit Box-Muller transform, so streams are reproducible from a 64-bit
seed alone: trial t of a campaign uses seed master_seed XOR t, and identical
generator specs produce identical operands byte for byte.

`run_suite` sweeps catalog entries over a parameter grid for many random
trials, streams one CSV row per (entry, trial, sweep point), and reports
violations with enough context (seed, kind, dimension, scale) to replay
them.  A violation within 10x tolerance is re-evaluated with high-precision
eigensolves before being reported; if the precise run satisfies the bound,
the case counts as a numerical-marginal retry instead of a violation.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._cache import computation_scope
from .calc import berezin_norm, berezin_number, numerical_radius
from .errors import ParamOutOfRange, UnknownIneqId
from .inequalities import (
    CATALOG,
    CATALOG_ORDER,
    DEFAULT_TOL,
    CatalogEntry,
    InequalityCase,
    check,
)
from .linalg import (
    herm_eig,
    is_hermitian,
    operator_norm,
    precise_eigensolver,
)
from .models import KernelModel, finite
from .results import InequalityResult

_MASK64 = (1 << 64) - 1

DEFAULT_ALPHAS = (0.0, 0.25, 0.5, 0.75, 1.0)
DEFAULT_POWERS = (1.0, 1.5, 2.0, 3.0)
LEM3_ORDERS = (0.0, 0.5, 1.0, 1.5, 2.0, 3.0)
DEFAULT_DIMS = (2, 3, 4, 6)

CSV_COLUMNS = ("ineq_id", "trial", "n", "alpha", "r", "s", "lhs", "rhs", "gap", "satisfied")


@dataclass(frozen=True)
class GeneratorSpec:
    """What to draw: matrix ensemble kind, dimension, scale, stream seed."""

    kind: str = "general"
    n: int = 3
    scale: float = 1.0
    seed: int = 0


class ValueStream:
    """Uniform/Gaussian stream over raw Philox output.

    Uniforms are ((raw >> 11) + 1) * 2^-53 in (0, 1]; Gaussians come from a
    plain Box-Muller pair.  Nothing but the counter-based raw stream is
    consumed, so replay only needs the seed.
    """

    def __init__(self, seed: int):
        self._bg = np.random.Philox(key=np.uint64(seed & _MASK64))

    def uniforms(self, count: int) -> np.ndarray:
        raw = self._bg.random_raw(count)
        return ((raw >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53

    def gaussians(self, count: int) -> np.ndarray:
        half = (count + 1) // 2
        u1 = self.uniforms(half)
        u2 = self.uniforms(half)
        rad = np.sqrt(-2.0 * np.log(u1))
        ang = 2.0 * np.pi * u2
        return np.concatenate([rad * np.cos(ang), rad * np.sin(ang)])[:count]

    def complex_gaussians(self, count: int) -> np.ndarray:
        g = self.gaussians(2 * count)
        return g[:count] + 1j * g[count:]


MATRIX_KINDS = (
    "general",
    "hermitian",
    "positive",
    "unitary",
    "rank-deficient",
    "commuting-positive-pair",
    "identity",
)


def _draw(kind: str, n: int, scale: float, vs: ValueStream) -> np.ndarray:
    if kind == "identity":
        return np.eye(n, dtype=np.complex128)
    if kind == "general":
        return (scale * vs.complex_gaussians(n * n)).reshape(n, n)
    if kind == "hermitian":
        g = _draw("general", n, scale, vs)
        return (g + g.conj().T) * 0.5
    if kind == "positive":
        g = _draw("general", n, scale, vs)
        return (g.conj().T @ g) / n
    if kind == "unitary":
        g = _draw("general", n, 1.0, vs)
        q, r = np.linalg.qr(g)
        d = np.diagonal(r)
        ph = np.where(np.abs(d) == 0.0, 1.0, d / np.where(np.abs(d) == 0.0, 1.0, np.abs(d)))
        return q * ph
    if kind == "rank-deficient":
        p = _draw("positive", n, scale, vs)
        ev = herm_eig(p)
        w = ev.values.copy()
        w[: (n + 1) // 2] = 0.0  # zero the smallest ceil(n/2) eigenvalues
        out = (ev.vectors * w) @ ev.vectors.conj().T
        return (out + out.conj().T) * 0.5
    raise ValueError(f"unknown generator kind {kind!r}")


def gen_matrix(spec: GeneratorSpec) -> np.ndarray:
    """One matrix drawn per `spec`; equal specs give byte-identical output."""
    if spec.kind == "commuting-positive-pair":
        raise ValueError("use gen_commuting_pair for the pair kind")
    if spec.kind not in MATRIX_KINDS:
        raise ValueError(f"unknown generator kind {spec.kind!r}")
    if int(spec.n) < 1:
        raise ValueError(f"dimension must be >= 1, got {spec.n}")
    return _draw(spec.kind, int(spec.n), float(spec.scale), ValueStream(spec.seed))


def gen_commuting_pair(spec: GeneratorSpec):
    """Two positive matrices sharing an eigenbasis (hence commuting)."""
    vs = ValueStream(spec.seed)
    n = int(spec.n)
    u = _draw("unitary", n, 1.0, vs)
    p = np.abs(vs.gaussians(n)) * spec.scale
    q = np.abs(vs.gaussians(n)) * spec.scale
    a = (u * p) @ u.conj().T
    b = (u * q) @ u.conj().T
    return (a + a.conj().T) * 0.5, (b + b.conj().T) * 0.5


def _unit_vector(n: int, vs: ValueStream) -> np.ndarray:
    x = vs.complex_gaussians(n)
    nrm = float(np.linalg.norm(x))
    if nrm == 0.0:  # essentially impossible; keep the path deterministic
        x = np.zeros(n, dtype=np.complex128)
        x[0] = 1.0
        return x
    return x / nrm


def sample_operands(entry: CatalogEntry, n: int, scale: float, seed: int,
                    matrix_kind: str = "general") -> dict:
    """Draw one operand set for an entry from a fresh per-seed stream.

    `matrix_kind` overrides the ensemble for operands declared "general";
    operands declared "positive" accept only positivity-preserving overrides
    (positive, rank-deficient, identity) and otherwise stay "positive".
    The "identity" override makes every operand deterministic: matrices I,
    scalars 1, unit vectors e_1.
    """
    vs = ValueStream(seed)
    if matrix_kind == "identity":
        ops = {}
        for name, kind in entry.operand_spec:
            if kind == "scalar":
                ops[name] = 1.0
            elif kind == "unit-vector":
                e1 = np.zeros(n, dtype=np.complex128)
                e1[0] = 1.0
                ops[name] = e1
            else:
                ops[name] = np.eye(n, dtype=np.complex128)
        return ops
    if entry.commuting is not None:
        a, b = gen_commuting_pair(GeneratorSpec("commuting-positive-pair", n, scale, seed))
        return {"A": a, "B": b}
    ops = {}
    for name, kind in entry.operand_spec:
        if kind == "scalar":
            ops[name] = float(abs(vs.gaussians(1)[0]) * scale)
        elif kind == "unit-vector":
            ops[name] = _unit_vector(n, vs)
        elif kind == "positive":
            use = matrix_kind if matrix_kind in ("positive", "rank-deficient", "identity") else "positive"
            ops[name] = _draw(use, n, scale, vs)
        else:
            ops[name] = _draw(matrix_kind, n, scale, vs)
    return ops


def param_grid(entry: CatalogEntry, sweep: dict | None = None) -> list[dict]:
    """Valid parameter combinations for one entry under a sweep."""
    sweep = sweep or {}
    if not entry.params:
        return [{}]
    axes = []
    for name in entry.params:
        if name in sweep:
            vals = tuple(float(v) for v in sweep[name])
        elif name == "alpha":
            vals = DEFAULT_ALPHAS
        elif entry.ineq_id == "lem3":
            vals = LEM3_ORDERS
        else:
            vals = DEFAULT_POWERS
        if name == "alpha" and entry.interior_alpha:
            vals = tuple(v for v in vals if 0.0 < v < 1.0)
        if not vals:
            raise ParamOutOfRange(f"no valid values for parameter {name} of {entry.ineq_id}")
        axes.append(vals)
    combos = [{}]
    for name, vals in zip(entry.params, axes):
        combos = [dict(c, **{name: v}) for c in combos for v in vals]
    if entry.ineq_id == "lem3":
        combos = [c for c in combos if c["r"] <= c["s"]]
    return combos


@dataclass(frozen=True)
class Violation:
    """One failed case with everything needed to replay it."""

    ineq_id: str
    trial: int
    n: int
    params: dict
    lhs: float
    rhs: float
    gap: float
    seed: int
    kind: str
    scale: float
    retried: bool
    witness: dict


@dataclass(frozen=True)
class GapStats:
    """Distribution of relative gaps (gap / max(1, rhs)) for one entry."""

    count: int
    min: float
    median: float
    max: float
    mean: float


@dataclass
class TrialReport:
    suite: tuple
    trials: int
    rows_evaluated: int
    violations: list
    marginal_retries: int
    gap_stats: dict
    runtime_seconds: float
    master_seed: int
    rows: list | None = None  # populated only when collect_rows is requested


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.17g}"


def _row_record(ineq_id, trial, n, params, res: InequalityResult) -> dict:
    return {
        "ineq_id": ineq_id,
        "trial": int(trial),
        "n": n,
        "alpha": params.get("alpha"),
        "r": params.get("r"),
        "s": params.get("s"),
        "lhs": res.lhs,
        "rhs": res.rhs,
        "gap": res.gap,
        "satisfied": bool(res.satisfied),
    }


def _csv_row(rec: dict) -> list[str]:
    return [
        rec["ineq_id"],
        str(rec["trial"]),
        "" if rec["n"] is None else str(rec["n"]),
        _fmt(rec["alpha"]),
        _fmt(rec["r"]),
        _fmt(rec["s"]),
        _fmt(rec["lhs"]),
        _fmt(rec["rhs"]),
        _fmt(rec["gap"]),
        "true" if rec["satisfied"] else "false",
    ]


def _run_entry_trial(entry, combos, trial, master_seed, dims, scale, matrix_kind,
                     model, tolerance, level):
    """All sweep evaluations of one entry for one trial; returns row data."""
    seed = (int(master_seed) ^ int(trial)) & _MASK64
    n = model.dimension if model is not None else dims[trial % len(dims)]
    ops = sample_operands(entry, n, scale, seed, matrix_kind)
    mdl = model if model is not None else (finite(n) if entry.needs_model else None)
    rows = []
    violations = []
    retries = 0
    dim_echo = None if all(k == "scalar" for _, k in entry.operand_spec) else n
    with computation_scope():
        for combo in combos:
            case = InequalityCase(
                ineq_id=entry.ineq_id, operands=ops, params=combo,
                model=mdl, tolerance=tolerance, level=level,
            )
            res = check(case)
            retried = False
            if not res.satisfied:
                margin = 10.0 * tolerance * max(1.0, res.rhs)
                if res.lhs <= res.rhs + margin:
                    with precise_eigensolver():
                        res = check(case)
                    retried = True
                    if res.satisfied:
                        retries += 1
            if not res.satisfied:
                violations.append(Violation(
                    ineq_id=entry.ineq_id, trial=trial, n=n, params=dict(combo),
                    lhs=res.lhs, rhs=res.rhs, gap=res.gap, seed=seed,
                    kind=matrix_kind, scale=scale, retried=retried,
                    witness=dict(res.witness),
                ))
            rel_gap = res.gap / max(1.0, res.rhs)
            rows.append((_row_record(entry.ineq_id, trial, dim_echo, combo, res), rel_gap))
    return rows, violations, retries


def run_suite(
    suite: Sequence[str] | None = None,
    *,
    model: KernelModel | None = None,
    gen: GeneratorSpec | None = None,
    trials: int = 100,
    sweep: dict | None = None,
    dims: Sequence[int] | None = None,
    tolerance: float = DEFAULT_TOL,
    level: int = 1,
    csv_path: str | None = None,
    collect_rows: bool = False,
) -> TrialReport:
    """Randomized campaign over catalog entries.

    suite: entry ids to run (catalog order by default).  gen: template for
    operand sampling; gen.seed is the master seed, trial t draws from
    master XOR t, and gen.n fixes the dimension unless `dims` cycles several.
    model: force one kernel model (continuous models give exploratory lower
    bounds); default is an exact finite model at each trial's dimension.
    CSV rows stream to csv_path in a deterministic order (entry, trial,
    sweep point).
    """
    t0 = time.monotonic()
    gen = gen or GeneratorSpec()
    ids = list(suite) if suite is not None else list(CATALOG_ORDER)
    entries = []
    for ineq_id in ids:
        if ineq_id not in CATALOG:
            raise UnknownIneqId(f"no catalog entry {ineq_id!r}")
        entries.append(CATALOG[ineq_id])
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    dims = tuple(int(d) for d in (dims or (gen.n,)))
    if any(d < 1 for d in dims):
        raise ValueError(f"dimensions must be >= 1, got {dims}")

    writer = None
    fh = None
    if csv_path is not None:
        fh = open(csv_path, "w", encoding="utf-8", newline="")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)

    violations: list[Violation] = []
    gap_lists: dict[str, list[float]] = {e.ineq_id: [] for e in entries}
    kept_rows: list[dict] | None = [] if collect_rows else None
    rows_evaluated = 0
    retries_total = 0
    try:
        for entry in entries:
            combos = param_grid(entry, sweep)
            for trial in range(trials):
                rows, viols, retries = _run_entry_trial(
                    entry, combos, trial, gen.seed, dims, gen.scale,
                    gen.kind, model, tolerance, level,
                )
                violations.extend(viols)
                retries_total += retries
                for rec, rel_gap in rows:
                    rows_evaluated += 1
                    gap_lists[entry.ineq_id].append(rel_gap)
                    if writer is not None:
                        writer.writerow(_csv_row(rec))
                    if kept_rows is not None:
                        kept_rows.append(rec)
    finally:
        if fh is not None:
            fh.close()

    stats = {}
    for ineq_id, gaps in gap_lists.items():
        arr = np.asarray(gaps, dtype=np.float64)
        stats[ineq_id] = GapStats(
            count=int(arr.size),
            min=float(arr.min()),
            median=float(np.median(arr)),
            max=float(arr.max()),
            mean=float(arr.mean()),
        )
    return TrialReport(
        suite=tuple(ids),
        trials=int(trials),
        rows_evaluated=rows_evaluated,
        violations=violations,
        marginal_retries=retries_total,
        gap_stats=stats,
        runtime_seconds=time.monotonic() - t0,
        master_seed=int(gen.seed),
        rows=kept_rows,
    )


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
