"""Randomized certification harness.

Operands are drawn from a counter-based generator (Philox) through an
explicit Box-Muller transform, so streams are reproducible from a 64-bit
seed alone: trial t of a campaign uses seed master_seed XOR t, and identical
generator specs produce identical operands byte for byte.

`run_suite` sweeps catalog entries over a parameter grid for many random
trials, writes one CSV row per (entry, trial, sweep point), and reports
violations with enough context (seed, kind, dimension, scale) to replay
them.  Every entry's parameter grid is validated before any row is evaluated
(a default grid once per process, `param_grid`).
Evaluation is trial-major: one memo scope (`computation_scope`) per trial
holds every entry's evaluation of that trial: each operand is drawn once
(`sample_operands`), and entries whose operands coincide share their
eigensystems and fractional powers, and on a disk model the kernel
matrices, all read-only.  On a disk model every evaluator runs once on
deferred Berezin values, and all of the trial's disk searches then run in
one batch, deduplicated up to powers of two, before its rows are judged
(`inequalities._resolve`).  Rows stay entry-major: each entry's
rows go to a temporary spill file, and the spills are copied to the CSV in
entry order after the last trial.  Each trial's operands are validated once
per entry and bound to the entry's evaluator once, which then evaluates
every point of the grid and computes each factor once per distinct value of
the parameters it depends on (see `CatalogEntry`).  Every row is judged by
`_verdict` as computed in float64, so a violation by any margin is reported
as it stands.

A row is one tuple in `CSV_COLUMNS` order, and `_csv_row` alone turns it
into a CSV line, for the campaign file and for `berezin check --format csv`
alike: floats as %.17g, None as an empty cell, the verdict as true/false.
No cell is ever quoted, since none can hold a comma, a quote or a newline
(ids are catalog keys).
"""

from __future__ import annotations

import functools
import io
import math
import shutil
import tempfile
import time
from array import array
from dataclasses import dataclass
from types import MappingProxyType
from typing import Sequence

import numpy as np

from ._cache import computation_scope, scoped
from .errors import ParamOutOfRange, UnknownIneqId
from .inequalities import (
    CATALOG,
    CATALOG_ORDER,
    DEFAULT_TOL,
    CatalogEntry,
    InequalityCase,
    _evaluate_grid,
    _forced,
    _resolve,
    _result,
    _validated_operands,
    _validated_params,
    _validated_tolerance,
    _verdict,
)
from .linalg import herm_eig
from .models import KernelModel, _check_level, finite

_MASK64 = (1 << 64) - 1

DEFAULT_ALPHAS = (0.0, 0.25, 0.5, 0.75, 1.0)
DEFAULT_POWERS = (1.0, 1.5, 2.0, 3.0)
LEM3_ORDERS = (0.0, 0.5, 1.0, 1.5, 2.0, 3.0)
DEFAULT_DIMS = (2, 3, 4, 6)

CSV_COLUMNS = ("ineq_id", "trial", "n", "alpha", "r", "s", "lhs", "rhs", "gap", "satisfied")
_CSV_HEADER = ",".join(CSV_COLUMNS) + "\n"


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
    if spec.kind not in MATRIX_KINDS:
        raise ValueError(f"unknown generator kind {spec.kind!r}")
    if int(spec.n) < 1:
        raise ValueError(f"dimension must be >= 1, got {spec.n}")
    return _draw(spec.kind, int(spec.n), float(spec.scale), ValueStream(spec.seed))


def gen_commuting_pair(spec: GeneratorSpec):
    """Two positive matrices sharing an eigenbasis (hence commuting); spec.kind is unused."""
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
        return np.eye(1, n, dtype=np.complex128)[0]
    return x / nrm


def sample_operands(entry: CatalogEntry, n: int, scale: float, seed: int,
                    matrix_kind: str = "general") -> dict:
    """Draw one operand set for an entry from a fresh per-seed stream.

    `matrix_kind` overrides the ensemble for operands declared "general";
    operands declared "positive" accept only positivity-preserving overrides
    (positive, rank-deficient, identity) and otherwise stay "positive".
    The "identity" override makes every operand deterministic: matrices I,
    scalars 1, unit vectors e_1.  Arrays come back read-only.

    Inside a computation_scope() each operand is drawn once and shared:
    `_drawn` memoizes the operands of each prefix of the entry's operand
    kinds with the stream's state after them, so an entry whose kinds
    leave a shared prefix draws on from that state; `_commuting` memoizes
    the commuting pair.  Either way the operands are those of a fresh
    stream, bit for bit.
    """
    if entry.commuting is not None and matrix_kind != "identity":
        return dict(zip(entry.commuting, _commuting(seed, n, scale)))
    names, kinds = zip(*entry.operand_spec)
    return dict(zip(names, _drawn(seed, n, scale, matrix_kind, kinds)[0]))


@scoped
def _drawn(seed: int, n: int, scale: float, matrix_kind: str, kinds: tuple):
    """The operands of `kinds`, in order, from a fresh stream of `seed`, and
    the Philox state after them; the first len(kinds) - 1 come from the call
    for that prefix."""
    vs, ops = ValueStream(seed), ()
    if len(kinds) > 1:
        ops, vs._bg.state = _drawn(seed, n, scale, matrix_kind, kinds[:-1])
    return ops + (_operand(kinds[-1], n, scale, matrix_kind, vs),), vs._bg.state


@scoped
def _commuting(seed: int, n: int, scale: float) -> tuple:
    """gen_commuting_pair's pair for (seed, n, scale), read-only."""
    pair = gen_commuting_pair(GeneratorSpec(n=n, scale=scale, seed=seed))
    for m in pair:
        m.flags.writeable = False
    return pair


def _operand(kind: str, n: int, scale: float, matrix_kind: str, vs: ValueStream):
    """One operand of a declared kind (see `sample_operands`), read-only."""
    if kind == "scalar":
        return 1.0 if matrix_kind == "identity" else float(abs(vs.gaussians(1)[0]) * scale)
    if kind == "unit-vector":
        out = np.eye(1, n, dtype=np.complex128)[0] if matrix_kind == "identity" else _unit_vector(n, vs)
    elif kind == "positive":
        use = matrix_kind if matrix_kind in ("positive", "rank-deficient", "identity") else "positive"
        out = _draw(use, n, scale, vs)
    else:
        out = _draw(matrix_kind, n, scale, vs)
    out.flags.writeable = False
    return out


def param_grid(entry: CatalogEntry, sweep: dict | None = None) -> list[dict]:
    """Valid parameter combinations for one entry under a sweep.

    A non-finite sweep value raises ParamOutOfRange first.  Then
    interior-alpha entries drop alpha outside (0, 1) and lem3 keeps r <= s,
    raising ParamOutOfRange when a filter leaves nothing; every other value
    is validated as `check` validates its parameters, so a value out of
    range raises ParamOutOfRange here.  A sweep that names none of the
    entry's parameters gives its default grid, built once per process: its
    combinations are shared, read-only mappings.
    """
    if not sweep or not any(name in sweep for name in entry.params):
        return list(_default_grid(entry))
    return _swept_grid(entry, sweep)


@functools.cache
def _default_grid(entry: CatalogEntry) -> tuple:
    """The entry's default grid, as read-only mappings."""
    return tuple(map(MappingProxyType, _swept_grid(entry, {})))


def _swept_grid(entry: CatalogEntry, sweep: dict) -> list[dict]:
    if not entry.params:
        return [{}]
    axes = []
    for name in entry.params:
        if name in sweep:
            vals = tuple(float(v) for v in sweep[name])
            if not all(map(math.isfinite, vals)):  # before the filters below
                raise ParamOutOfRange(f"parameter {name} must be finite")
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
        if not combos:
            raise ParamOutOfRange("no valid (r, s) with r <= s for lem3")
    return [_validated_params(entry, c) for c in combos]


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
    witness: dict


@dataclass(frozen=True)
class GapStats:
    """Distribution of relative gaps (gap / max(1, rhs)) for one entry."""

    count: int
    min: float
    median: float
    max: float
    mean: float

    @classmethod
    def of(cls, gaps) -> GapStats:
        """Statistics of a nonempty sequence of relative gaps."""
        arr = np.asarray(gaps, dtype=np.float64)
        return cls(
            count=int(arr.size),
            min=float(arr.min()),
            median=float(np.median(arr)),
            max=float(arr.max()),
            mean=float(arr.mean()),
        )


@dataclass
class TrialReport:
    """What a campaign ran and found.  `marginal_retries` is always 0, since
    no row is re-run; it stays because the benchmark's campaigns read it."""

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
    """One campaign CSV number cell: empty for None, else %.17g."""
    return "" if x is None else f"{x:.17g}"


def _csv_row(row: tuple) -> str:
    """One campaign CSV line, newline included, from a row in CSV_COLUMNS order."""
    ineq_id, trial, n, alpha, r, s, lhs, rhs, gap, ok = row
    return (f"{ineq_id},{trial},{'' if n is None else n},{_fmt(alpha)},{_fmt(r)},{_fmt(s)},"
            f"{lhs:.17g},{rhs:.17g},{gap:.17g},{'true' if ok else 'false'}\n")


def _entry_trial(entry, combos, found, trial, master_seed, dims, scale, matrix_kind, model,
                 tolerance, level):
    """One entry's trial up to its verdicts: its seed, dimension, operand
    dimension (`_validated_operands`) and the parts of each combination of
    `combos` (`_evaluate_grid`, which appends its disk searches to
    `found`)."""
    seed = (int(master_seed) ^ int(trial)) & _MASK64
    n = dims[trial % len(dims)]  # the model's dimension if one is forced
    ops = sample_operands(entry, n, scale, seed, matrix_kind)
    mdl = model if model is not None else (finite(n) if entry.needs_model else None)
    case = InequalityCase(entry.ineq_id, ops, model=mdl, tolerance=tolerance, level=level)
    valid_ops, n_ops = _validated_operands(entry, case)
    return seed, n, n_ops, _evaluate_grid(entry, case, valid_ops, combos, found)


def _run_entry_trial(entry, combos, trial, prepared, deferred, scale, matrix_kind, tolerance):
    """All sweep evaluations of one entry for one trial: rows in CSV_COLUMNS
    order, and violations.  `prepared` is the trial's `_entry_trial`, whose
    parts are forced first where `deferred` (after `_resolve`)."""
    seed, n, n_ops, grid = prepared
    rows = []
    violations = []
    dim_echo = None if all(k == "scalar" for _, k in entry.operand_spec) else n
    tol = float(tolerance)
    for combo, parts in zip(combos, map(_forced, grid) if deferred else grid):
        worst, ok = _verdict(parts, tol)
        if not ok:  # the full witness is built for violations only
            res = _result(entry.ineq_id, parts, combo, n_ops, tol)
            violations.append(Violation(
                ineq_id=entry.ineq_id, trial=trial, n=n, params=dict(combo),
                lhs=res.lhs, rhs=res.rhs, gap=res.gap, seed=seed,
                kind=matrix_kind, scale=scale, witness=res.witness,
            ))
        rows.append((entry.ineq_id, trial, dim_echo, combo.get("alpha"), combo.get("r"),
                     combo.get("s"), worst.lhs, worst.rhs, worst.rhs - worst.lhs, ok))
    return rows, violations


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
    bounds), which fixes the dimension: `dims` other than the model's raises
    ValueError.  The default is an exact finite model at each trial's
    dimension.  level: the grid level on a continuous model; a negative
    level, or one above models.MAX_LEVEL on a continuous model, raises
    ValueError.
    Trials run in order, each in one memo scope shared by every entry;
    operands are validated once per (entry, trial), and every row is judged
    in float64 as computed; a part with a non-finite side raises ValueError.
    A trial runs in three steps: each entry's case and evaluator, in entry
    order (`_entry_trial`), up to the first that raises; one batch of every
    disk search the evaluators asked for on a continuous model (`_resolve`;
    none on finite models); then, in entry order, the entry's error is
    raised, or its parts are forced and judged.  So the first failing
    entry's error is raised, from its evaluator or from a search it asked
    for; within one entry an evaluator error wins over the error of a search
    asked for before it.
    CSV rows reach csv_path in a deterministic entry-major order (entry,
    trial, sweep point), as do `violations` and the collected rows.
    csv_path is opened, and its header written, before the first trial; the
    rows are copied in after the last one, so a campaign that raises leaves
    only the header.  Bad arguments raise before csv_path is opened; a NaN,
    infinite or negative tolerance raises ParamOutOfRange.
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
    tolerance = _validated_tolerance(tolerance)
    if gen.kind not in MATRIX_KINDS:
        raise ValueError(f"unknown generator kind {gen.kind!r}")
    if model is not None:
        if dims is not None and any(int(d) != model.dimension for d in dims):
            raise ValueError(f"dimensions {tuple(dims)} disagree with the model's "
                             f"dimension {model.dimension}")
        dims = (model.dimension,)
    dims = tuple(int(d) for d in (dims or (gen.n,)))
    if any(d < 1 for d in dims):
        raise ValueError(f"dimensions must be >= 1, got {dims}")
    _check_level(model if model is not None else finite(dims[0]), level)
    grids = [param_grid(entry, sweep) for entry in entries]

    # Rows are evaluated trial-major but written entry-major: each (entry,
    # trial) block of rows goes to its entry's spill file, and the spills are
    # copied to csv_path in entry order after the last trial.
    fh = None
    spills = []
    if csv_path is not None:
        fh = open(csv_path, "wb")
        fh.write(_CSV_HEADER.encode("utf-8"))

    # per entry, in trial order; joined in entry order after the last trial
    violations = [[] for _ in entries]
    gaps = [array("d") for _ in entries]
    kept = [[] for _ in entries] if collect_rows else None
    rows_evaluated = 0
    try:
        if fh is not None:
            for _ in entries:
                spills.append(tempfile.TemporaryFile(buffering=0))  # one write per block
        draw = (gen.seed, dims, gen.scale, gen.kind, model, tolerance, level)
        for trial in range(trials):
            with computation_scope():  # shared by every entry's trial
                found, prepared = [], []
                for entry, combos in zip(entries, grids):
                    try:
                        prepared.append(_entry_trial(entry, combos, found, trial, *draw))
                    except Exception as exc:  # raised in entry order, after the batch
                        prepared.append(exc)
                        break
                _resolve(model, level, found)  # the trial's disk searches, one batch
                for i, (entry, combos, done) in enumerate(zip(entries, grids, prepared)):
                    if isinstance(done, Exception):
                        raise done
                    rows, viols = _run_entry_trial(entry, combos, trial, done, bool(found),
                                                   gen.scale, gen.kind, tolerance)
                    violations[i].extend(viols)
                    rows_evaluated += len(rows)
                    gaps[i].extend(row[8] / max(1.0, row[7]) for row in rows)  # gap, rhs
                    if kept is not None:
                        kept[i].extend(dict(zip(CSV_COLUMNS, row)) for row in rows)
                    if spills:
                        spills[i].write("".join(map(_csv_row, rows)).encode("utf-8"))
        for spill in spills:
            spill.seek(0)
            # in small chunks: shutil's 64 KiB default would make the copy the
            # campaign's memory peak, growing with the rows up to that size
            shutil.copyfileobj(spill, fh, io.DEFAULT_BUFFER_SIZE)
    finally:
        for f in spills:
            f.close()
        if fh is not None:
            fh.close()

    gap_lists: dict[str, array] = {}
    for entry, g in zip(entries, gaps):
        gap_lists.setdefault(entry.ineq_id, array("d")).extend(g)
    return TrialReport(
        suite=tuple(ids),
        trials=int(trials),
        rows_evaluated=rows_evaluated,
        violations=[v for vs in violations for v in vs],
        marginal_retries=0,
        gap_stats={ineq_id: GapStats.of(g) for ineq_id, g in gap_lists.items()},
        runtime_seconds=time.monotonic() - t0,
        master_seed=int(gen.seed),
        rows=None if kept is None else [rec for rs in kept for rec in rs],
    )
