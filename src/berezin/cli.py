"""Command-line interface.

Four subcommands:

- eval: Berezin number/norm, numerical radius, and operator norm of one
  matrix on one model.
- check: run selected catalog entries, random trials or an explicit scalar
  case, and emit per-case results.
- fuzz: the randomized campaign over many entries; prints a JSON summary.
  With --out, --format csv (the default) writes the per-case CSV there and
  --format json the summary instead.
- report: per-entry relative-gap histograms from a results CSV.

Machine-readable output goes to stdout (or --out); logs go to stderr.  A
--config JSON file supplies any long option of its subcommand; explicit
flags win and other keys are rejected.

eval's JSON is the text json.dumps(payload, indent=2) gives, its symbol
samples last.  They are spliced into the encoding of the rest, one template
per point kind and every number token from one C-encoder call (_eval_json):
with indent, json encodes in pure Python, which took about a quarter of an
n = 16 level-2 eval for its 2,049 samples.  --format csv skips the samples.

A subcommand returns 0, or 1 when check or fuzz finds a violation.  It
raises on failure, and `main` alone turns the exception into one stderr
line and an exit code:

    exception                            eval                      others
    DimensionMismatch                    3  error:                 2  error:
    NoConvergence, LinAlgError           4  numerical failure:     2  error:
    other BerezinError, ValueError,      2  error:                 2  error:
    OSError, csv.Error

So bad input, an unreadable or unusable file (a report CSV cell longer
than the csv module's field limit included), an --out path that cannot be
written, a negative --level, a --level above 4 on a disk model, an --n
other than the --model's dimension, a NaN, infinite or negative --tol and
a JSON number that a float64 cannot hold all exit 2.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys

import numpy as np

from . import calc, fuzz, io as bio
from ._cache import computation_scope
from .errors import (
    BerezinError,
    DimensionMismatch,
    NoConvergence,
    UnknownIneqId,
)
from .inequalities import CATALOG, DEFAULT_TOL, InequalityCase, check as check_case
from .linalg import operator_norm
from .models import KernelModel, default_grid


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _numbers_csv(text, cast=float) -> tuple:
    """A comma list (or a config file's list) of numbers, each `cast`."""
    if isinstance(text, (list, tuple)):
        items = text
    else:
        items = [t for t in str(text).split(",") if t.strip() != ""]
    if not items:
        raise ValueError("empty number list")
    return tuple(cast(t) for t in items)


def _emit(text: str, out_path) -> None:
    """Write text, newline-terminated, to out_path or stdout."""
    if not text.endswith("\n"):
        text += "\n"
    if not out_path:
        sys.stdout.write(text)
        return
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _config_value(action: argparse.Action, value):
    """A --config value held to its flag's type and choices checks.

    A string goes through the flag's type, as on the command line.  Other
    JSON values pass as they are only where they fit: an int for an int
    flag, a number for a float flag, a number or a list of numbers for a
    comma list (alpha, r, s, and n in fuzz), an object for a model.  A
    number there must be one that a float64 can hold.
    """
    key = action.dest
    if isinstance(value, str):
        try:
            value = action.type(value) if action.type is not None else value
        except (TypeError, ValueError) as exc:
            raise ValueError(f"config {key}: {exc}") from exc
    else:
        if action.type is int:
            ok = isinstance(value, int)
        elif action.type is float:
            ok = bio._is_number(value)
        elif key in ("alpha", "r", "s", "n"):
            items = value if isinstance(value, list) else [value]
            ok = all(map(bio._is_number, items))
        else:
            ok = key == "model" and isinstance(value, dict)
        if isinstance(value, bool) or not ok:
            raise ValueError(f"config {key}: bad value {value!r}")
    if action.choices is not None and value not in action.choices:
        raise ValueError(f"config {key}: {value!r} is not one of {list(action.choices)}")
    return value


def _merged(args: argparse.Namespace) -> dict:
    """The subcommand's own options: explicit flags, else --config values."""
    actions = {a.dest: a for a in args.actions if a.dest not in ("help", "config")}
    cfg = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise ValueError("config must be a JSON object")
        unknown = set(cfg) - set(actions)
        if unknown:
            raise ValueError(f"unknown config keys for {args.command}: {sorted(unknown)}")
        cfg = {k: _config_value(actions[k], v) for k, v in cfg.items() if v is not None}
    out = {}
    for key in actions:
        cli_val = getattr(args, key)
        out[key] = cli_val if cli_val is not None else cfg.get(key)
    return out


def _resolve_model(spec) -> KernelModel:
    """A model from a compact spec string or a JSON descriptor."""
    if isinstance(spec, dict):
        return bio.model_from_descriptor(spec)
    return bio.parse_model_spec(str(spec))


def _point_json(pt):
    if pt is None:
        return None
    if isinstance(pt, tuple):
        return [_point_json(p) for p in pt]
    if isinstance(pt, (complex, np.complexfloating)):
        z = complex(pt)
        return [z.real, z.imag]
    return int(pt) if isinstance(pt, (int, np.integer)) else pt


# One symbol sample as json.dumps(payload, indent=2) lays it out inside
# "symbol_samples", by point kind: an int (finite models) or [re, im].
_SAMPLE_JSON = {
    "i": '    {\n      "point": %s,\n      "value": [\n        %s,\n        %s\n      ]\n    }',
    "c": ('    {\n      "point": [\n        %s,\n        %s\n      ],\n'
          '      "value": [\n        %s,\n        %s\n      ]\n    }'),
}


def _eval_json(payload: dict, points, values: np.ndarray) -> str:
    """json.dumps(payload, indent=2) once payload["symbol_samples"], its last
    key and empty here, holds {"point": p, "value": [v.real, v.imag]} for
    every grid point p and symbol value v.

    The samples are spliced in through their kind's template, every number
    token from one C-encoder call on the flat number list, so each token is
    the one json.dumps writes (NaN and +-Infinity included).
    """
    text = json.dumps(payload, indent=2)
    pts = np.asarray(points)
    kind = pts.dtype.kind  # "i" or "c"
    cols = [pts] if kind == "i" else [pts.real, pts.imag]
    cols += [values.real, values.imag]
    flat = [None] * (len(cols) * len(pts))
    for j, col in enumerate(cols):
        flat[j::len(cols)] = col.tolist()
    tokens = json.dumps(flat)[1:-1].split(", ")
    body = ",\n".join([_SAMPLE_JSON[kind]] * len(pts)) % tuple(tokens)
    return text[:-len("[]\n}")] + "[\n" + body + "\n  ]\n}"


# --- subcommands -----------------------------------------------------------


def cmd_eval(opts) -> int:
    if not opts["matrix"]:
        raise ValueError("--matrix is required")
    mat = bio.load_matrix(opts["matrix"])
    spec = opts["model"] if opts["model"] is not None else f"finite:{mat.shape[0]}"
    model = _resolve_model(spec)
    level = int(opts["level"]) if opts["level"] is not None else 1
    grid = default_grid(model, level=level)  # rejects a negative level
    as_csv = opts["format"] == "csv"
    with computation_scope():  # one kernel matrix per grid level
        calc._plan_searches(model, level, [(mat, False), (mat, True)])  # one lockstep ascent
        bn = calc.berezin_number(model, mat, level=level)
        nb = calc.berezin_norm(model, mat, level=level)
        w = calc.numerical_radius(mat)
        opn = operator_norm(mat)
        symbols = None if as_csv else calc.symbol_values(model, mat, grid)
    if as_csv:
        lines = ["quantity,value"]
        lines.append(f"berezin_number,{bn.value:.17g}")
        lines.append(f"berezin_norm,{nb.value:.17g}")
        lines.append(f"numerical_radius,{w:.17g}")
        lines.append(f"operator_norm,{opn:.17g}")
        text = "\n".join(lines) + "\n"
    else:
        payload = {
            "model": bio.model_to_descriptor(model),
            "level": level,
            "berezin_number": {
                "value": bn.value, "argmax": _point_json(bn.argmax), "exact": bn.exact,
            },
            "berezin_norm": {
                "value": nb.value, "argmax": _point_json(nb.argmax), "exact": nb.exact,
            },
            "numerical_radius": float(w),
            "operator_norm": float(opn),
            "symbol_samples": [],  # plain types already; _eval_json adds the samples
        }
        text = _eval_json(payload, grid.points, symbols)
    _emit(text, opts["out"])
    return 0


def _entry_ids(text) -> list[str]:
    """Catalog ids from a comma list; unknown ids raise UnknownIneqId."""
    ids = [s.strip() for s in str(text).split(",") if s.strip()]
    for ineq_id in ids:
        if ineq_id not in CATALOG:
            raise UnknownIneqId(f"no catalog entry {ineq_id!r}")
    return ids


def _campaign_options(opts, default_format: str, default_trials: int):
    """The options check and fuzz share, resolved with their defaults."""
    sweep = {key: _numbers_csv(opts[key]) for key in ("alpha", "r", "s")
             if opts[key] is not None}
    run = argparse.Namespace(
        tol=float(opts["tol"]) if opts["tol"] is not None else DEFAULT_TOL,
        level=int(opts["level"]) if opts["level"] is not None else 1,
        fmt=opts["format"] or default_format,
        model=_resolve_model(opts["model"]) if opts["model"] is not None else None,
        trials=int(opts["trials"]) if opts["trials"] is not None else default_trials,
        seed=int(opts["seed"]) if opts["seed"] is not None else 0,
        scale=float(opts["scale"]) if opts["scale"] is not None else 1.0,
        kind=opts["gen"] or "general",
        sweep=sweep or None,
        dims=_numbers_csv(opts["n"], int) if opts["n"] is not None else None,
    )
    return run


def _report_payload(report: fuzz.TrialReport, include_rows: bool) -> dict:
    payload = dataclasses.asdict(dataclasses.replace(report, rows=None))
    del payload["rows"]
    if include_rows and report.rows is not None:
        payload["cases"] = report.rows
    return payload


def cmd_check(opts) -> int:
    if not opts["ineq"]:
        raise ValueError("--ineq is required")
    ids = _entry_ids(opts["ineq"])
    run = _campaign_options(opts, "json", 10)

    # explicit scalar case for the power-mean entry
    if opts["a"] is not None or opts["b"] is not None:
        if ids != ["lem3"]:
            raise ValueError("--a/--b apply only to --ineq lem3")
        unused = [f"--{k}" for k in ("model", "level", "n", "trials", "gen", "seed", "scale")
                  if opts[k] is not None]
        if unused:
            raise ValueError(f"--a/--b take no {', '.join(unused)}")
        if opts["a"] is None or opts["b"] is None:
            raise ValueError("provide both --a and --b")
        params = {}
        for key in ("alpha", "r", "s"):
            if opts[key] is None:
                raise ValueError(f"--{key} is required with --a/--b")
            vals = _numbers_csv(opts[key])
            if len(vals) != 1:
                raise ValueError(f"--{key} must be a single value here")
            params[key] = vals[0]
        case = InequalityCase(
            ineq_id="lem3",
            operands={"a": float(opts["a"]), "b": float(opts["b"])},
            params=params, model=None, tolerance=run.tol,
        )
        res = check_case(case)
        cases = [dict(zip(fuzz.CSV_COLUMNS, ("lem3", 0, None, *params.values(), res.lhs,
                                             res.rhs, res.rhs - res.lhs, res.satisfied)))]
        violations = 0 if res.satisfied else 1
        payload = {"cases": cases, "violations": violations}
    else:
        report = fuzz.run_suite(
            ids,
            model=run.model,
            gen=fuzz.GeneratorSpec(kind=run.kind, scale=run.scale, seed=run.seed),
            trials=run.trials,
            sweep=run.sweep,
            dims=run.dims,
            tolerance=run.tol,
            level=run.level,
            collect_rows=True,
        )
        _log(
            f"[check] {len(ids)} entries x {report.trials} trials -> "
            f"{report.rows_evaluated} cases, {len(report.violations)} violations "
            f"in {report.runtime_seconds:.2f}s"
        )
        cases, violations = report.rows, len(report.violations)
        payload = _report_payload(report, include_rows=True)
    if run.fmt == "csv":  # the case dicts' keys are in CSV_COLUMNS order
        text = fuzz._CSV_HEADER + "".join(fuzz._csv_row(tuple(c.values())) for c in cases)
    else:
        text = json.dumps(payload, indent=2)
    _emit(text, opts["out"])
    return 1 if violations else 0


def cmd_fuzz(opts) -> int:
    chosen = opts["suite"] if opts["suite"] is not None else opts["ineq"]
    ids = None
    if chosen and str(chosen).strip().lower() != "all":
        ids = _entry_ids(chosen)
    run = _campaign_options(opts, "csv", 100)
    report = fuzz.run_suite(
        ids,
        model=run.model,
        gen=fuzz.GeneratorSpec(kind=run.kind, scale=run.scale, seed=run.seed),
        trials=run.trials,
        sweep=run.sweep,
        dims=run.dims if run.dims or run.model else fuzz.DEFAULT_DIMS,
        tolerance=run.tol,
        level=run.level,
        csv_path=opts["out"] if (opts["out"] and run.fmt == "csv") else None,
    )
    _log(
        f"[fuzz] {len(report.suite)} entries x {report.trials} trials -> "
        f"{report.rows_evaluated} cases, {len(report.violations)} violations "
        f"in {report.runtime_seconds:.2f}s"
    )
    summary = json.dumps(_report_payload(report, include_rows=False), indent=2)
    _emit(summary, opts["out"] if run.fmt == "json" else None)
    return 1 if report.violations else 0


def cmd_report(opts) -> int:
    if not opts["input"]:
        raise ValueError("an input CSV is required")
    groups: dict[str, list[float]] = {}
    with open(opts["input"], "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh, restval="")  # a short row fails in float("")
        # a zero-byte file counts as "no results" rather than a corrupt one
        if reader.fieldnames is not None and tuple(reader.fieldnames) != fuzz.CSV_COLUMNS:
            raise ValueError(
                f"unexpected CSV columns {reader.fieldnames}; "
                f"expected {list(fuzz.CSV_COLUMNS)}"
            )
        for rec in reader:
            rhs = float(rec["rhs"])
            gap = float(rec["gap"])
            groups.setdefault(rec["ineq_id"], []).append(gap / max(1.0, rhs))
    payload = {}
    for ineq_id in sorted(groups):
        stats = fuzz.GapStats.of(groups[ineq_id])
        counts, edges = np.histogram(groups[ineq_id], bins=20)
        payload[ineq_id] = {
            "count": stats.count,
            "min": stats.min,
            "max": stats.max,
            "mean": stats.mean,
            "median": stats.median,
            "bin_edges": [float(e) for e in edges],
            "counts": [int(c) for c in counts],
        }
    if opts["format"] == "csv":
        lines = ["ineq_id,bin_lo,bin_hi,count"]
        for ineq_id, h in payload.items():
            for i, c in enumerate(h["counts"]):
                lines.append(
                    f"{ineq_id},{h['bin_edges'][i]:.17g},{h['bin_edges'][i + 1]:.17g},{c}"
                )
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps(payload, indent=2)
    _emit(text, opts["out"])
    return 0


# --- argument parsing --------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="berezin",
        description="Berezin-quantity evaluation and inequality certification",
    )
    sub = top.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("eval", help="evaluate Berezin quantities of one matrix")
    pe.add_argument("--model", help="model spec, e.g. finite:4 or hardy:15:0.95")
    pe.add_argument("--matrix", help="path to a matrix JSON file")
    pe.add_argument("--level", type=int, help="grid refinement level (continuous models)")

    pc = sub.add_parser("check", help="check catalog inequalities on sampled operands")
    pc.add_argument("--ineq", help="catalog id or comma list, e.g. thm1,cor1")
    pc.add_argument("--n", type=int, help="operand dimension")
    pc.add_argument("--a", type=float, help="explicit scalar operand (lem3)")
    pc.add_argument("--b", type=float, help="explicit scalar operand (lem3)")

    pf = sub.add_parser("fuzz", help="randomized campaign over the catalog")
    pf.add_argument("--suite", help='"all" or a comma list of catalog ids')
    pf.add_argument("--ineq", help="comma list of ids (default: all)")
    pf.add_argument("--n", help="comma list of dimensions to cycle, e.g. 2,3,4,6")

    for p in (pc, pf):
        p.add_argument("--model", help="model spec (default: exact finite models)")
        p.add_argument("--gen", choices=fuzz.MATRIX_KINDS, help="operand ensemble")
        p.add_argument("--trials", type=int, help="random trials per entry")
        p.add_argument("--seed", type=int, help="master seed")
        p.add_argument("--scale", type=float, help="operand scale")
        for key in ("alpha", "r", "s"):
            p.add_argument(f"--{key}", help=f"comma list of {key} values")
        p.add_argument("--tol", type=float, help="satisfaction tolerance")
        p.add_argument("--level", type=int, help="grid level for continuous models")

    pr = sub.add_parser("report", help="gap histograms from a results CSV")
    pr.add_argument("--in", dest="input", help="results CSV from fuzz/check")

    for p, func in ((pe, cmd_eval), (pc, cmd_check), (pf, cmd_fuzz), (pr, cmd_report)):
        p.add_argument("--out", help="write output here instead of stdout "
                                     "(fuzz --format csv: the campaign CSV)")
        p.add_argument("--format", choices=("json", "csv"), help="output format")
        p.add_argument("--config", help="JSON file with default options")
        p.set_defaults(func=func, actions=p._actions)
    return top


def main(argv=None) -> int:
    """Run one subcommand; the one place a failure becomes an exit code."""
    args = _build_parser().parse_args(argv)
    try:
        with np.errstate(over="raise", invalid="raise"):
            return args.func(_merged(args))
    except (OverflowError, FloatingPointError) as exc:  # a float power or numpy op past float64
        _log(f"error: value overflows float64: {exc}")
        return 2
    except (BerezinError, ValueError, OSError, csv.Error) as exc:  # LinAlgError is a ValueError
        code = 2
        if args.command == "eval" and isinstance(exc, DimensionMismatch):
            code = 3
        elif args.command == "eval" and isinstance(exc, (NoConvergence, np.linalg.LinAlgError)):
            code = 4
        _log(f"{'numerical failure' if code == 4 else 'error'}: {exc}")
        return code


if __name__ == "__main__":
    sys.exit(main())
