"""Command-line interface.

Four subcommands:

- eval: Berezin number/norm, numerical radius, and operator norm of one
  matrix on one model.
- check: run selected catalog entries, random trials or an explicit scalar
  case, and emit per-case results.
- fuzz: the randomized campaign over many entries;  streams per-case CSV.
- report: per-entry relative-gap histograms from a results CSV.

Machine-readable output goes to stdout (or --out); logs go to stderr.
Exit codes: check/fuzz return 0 with no violations, 1 with violations, 2 on
bad configuration; eval returns 2 for bad input, 3 for dimension mismatches,
4 for numerical failures; report returns 2 when the input is unusable.
A --config JSON file supplies any long-form option; explicit flags win.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys

import numpy as np

from . import calc, fuzz, io as bio
from .errors import (
    BerezinError,
    DimensionMismatch,
    NoConvergence,
    PointOutOfDomain,
    UnknownIneqId,
)
from .inequalities import CATALOG, DEFAULT_TOL, InequalityCase, check as check_case
from .linalg import operator_norm
from .models import KernelModel, default_grid

_CONFIG_KEYS = {
    "eval": {"model", "matrix", "level", "out", "format"},
    "check": {
        "ineq", "model", "gen", "n", "trials", "seed", "scale",
        "alpha", "r", "s", "a", "b", "tol", "level", "out", "format",
    },
    "fuzz": {
        "suite", "ineq", "model", "gen", "n", "trials", "seed", "scale",
        "alpha", "r", "s", "tol", "level", "out", "format",
    },
    "report": {"input", "out", "format"},
}


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _floats_csv(text) -> tuple:
    if isinstance(text, (list, tuple)):
        return tuple(float(v) for v in text)
    items = [t for t in str(text).split(",") if t.strip() != ""]
    if not items:
        raise ValueError("empty number list")
    return tuple(float(t) for t in items)


def _ints_csv(text) -> tuple:
    if isinstance(text, (list, tuple)):
        return tuple(int(v) for v in text)
    items = [t for t in str(text).split(",") if t.strip() != ""]
    if not items:
        raise ValueError("empty integer list")
    return tuple(int(t) for t in items)


def _jsonable(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _jsonable(dataclasses.asdict(obj))
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.complexfloating, complex)):
        z = complex(obj)
        return [z.real, z.imag]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    return obj


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _load_config(path, command: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ValueError("config must be a JSON object")
    unknown = set(obj) - _CONFIG_KEYS[command]
    if unknown:
        raise ValueError(f"unknown config keys for {command}: {sorted(unknown)}")
    return obj


def _merged(args: argparse.Namespace, command: str) -> dict:
    cfg = _load_config(args.config, command) if getattr(args, "config", None) else {}
    out = {}
    for key in _CONFIG_KEYS[command]:
        cli_val = getattr(args, key, None)
        out[key] = cli_val if cli_val is not None else cfg.get(key)
    return out


def _resolve_model(spec, fallback_dim=None) -> KernelModel:
    if spec is None:
        if fallback_dim is None:
            raise ValueError("a model is required (--model)")
        return bio.parse_model_spec(f"finite:{fallback_dim}")
    if isinstance(spec, KernelModel):
        return spec
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


# --- subcommands -----------------------------------------------------------


def cmd_eval(args) -> int:
    try:
        opts = _merged(args, "eval")
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        _log(f"error: {exc}")
        return 2
    if not opts["matrix"]:
        _log("error: --matrix is required")
        return 2
    try:
        mat = bio.load_matrix(opts["matrix"])
        model = _resolve_model(opts["model"], fallback_dim=mat.shape[0])
        level = int(opts["level"]) if opts["level"] is not None else 1
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        _log(f"error: {exc}")
        return 2
    try:
        bn = calc.berezin_number(model, mat, level=level)
        nb = calc.berezin_norm(model, mat, level=level)
        w = calc.numerical_radius(mat)
        opn = operator_norm(mat)
        grid = default_grid(model, level=level)
        samples = calc.berezin_set_sample(model, mat, grid)
    except DimensionMismatch as exc:
        _log(f"error: {exc}")
        return 3
    except PointOutOfDomain as exc:
        _log(f"error: {exc}")
        return 2
    except (NoConvergence, np.linalg.LinAlgError) as exc:
        _log(f"numerical failure: {exc}")
        return 4
    payload = {
        "model": bio.model_to_descriptor(model),
        "level": level,
        "berezin_number": {
            "value": bn.value, "argmax": _point_json(bn.argmax), "exact": bn.exact,
        },
        "berezin_norm": {
            "value": nb.value, "argmax": _point_json(nb.argmax), "exact": nb.exact,
        },
        "numerical_radius": w,
        "operator_norm": opn,
        "symbol_samples": [
            {"point": _point_json(ev.point), "value": _point_json(complex(ev.value))}
            for ev in samples
        ],
    }
    fmt = (opts["format"] or "json").lower()
    if fmt == "csv":
        lines = ["quantity,value"]
        lines.append(f"berezin_number,{bn.value:.17g}")
        lines.append(f"berezin_norm,{nb.value:.17g}")
        lines.append(f"numerical_radius,{w:.17g}")
        lines.append(f"operator_norm,{opn:.17g}")
        _emit("\n".join(lines) + "\n", opts["out"])
    elif fmt == "json":
        _emit(json.dumps(_jsonable(payload), indent=2), opts["out"])
    else:
        _log(f"error: unknown format {fmt!r}")
        return 2
    return 0


def _sweep_from(opts) -> dict | None:
    sweep = {}
    for key in ("alpha", "r", "s"):
        if opts.get(key) is not None:
            sweep[key] = _floats_csv(opts[key])
    return sweep or None


def _report_payload(report: fuzz.TrialReport, include_rows: bool) -> dict:
    payload = {
        "suite": list(report.suite),
        "trials": report.trials,
        "rows_evaluated": report.rows_evaluated,
        "violations": _jsonable(report.violations),
        "marginal_retries": report.marginal_retries,
        "gap_stats": _jsonable(report.gap_stats),
        "runtime_seconds": report.runtime_seconds,
        "master_seed": report.master_seed,
    }
    if include_rows and report.rows is not None:
        payload["cases"] = _jsonable(report.rows)
    return payload


def _rows_to_csv_text(rows: list[dict]) -> str:
    import io as _io

    buf = _io.StringIO()
    wr = csv.writer(buf, lineterminator="\n")
    wr.writerow(fuzz.CSV_COLUMNS)
    for rec in rows:
        wr.writerow(fuzz._csv_row(rec))
    return buf.getvalue()


def cmd_check(args) -> int:
    try:
        opts = _merged(args, "check")
        if not opts["ineq"]:
            raise ValueError("--ineq is required")
        ids = [s.strip() for s in str(opts["ineq"]).split(",") if s.strip()]
        for ineq_id in ids:
            if ineq_id not in CATALOG:
                raise UnknownIneqId(f"no catalog entry {ineq_id!r}")
        tol = float(opts["tol"]) if opts["tol"] is not None else DEFAULT_TOL
        level = int(opts["level"]) if opts["level"] is not None else 1
        fmt = (opts["format"] or "json").lower()
        if fmt not in ("json", "csv"):
            raise ValueError(f"unknown format {fmt!r}")
    except (ValueError, UnknownIneqId, json.JSONDecodeError, OSError) as exc:
        _log(f"error: {exc}")
        return 2

    # explicit scalar case for the power-mean entry
    if opts["a"] is not None or opts["b"] is not None:
        try:
            if ids != ["lem3"]:
                raise ValueError("--a/--b apply only to --ineq lem3")
            if opts["a"] is None or opts["b"] is None:
                raise ValueError("provide both --a and --b")
            params = {}
            for key in ("alpha", "r", "s"):
                if opts[key] is None:
                    raise ValueError(f"--{key} is required with --a/--b")
                vals = _floats_csv(opts[key])
                if len(vals) != 1:
                    raise ValueError(f"--{key} must be a single value here")
                params[key] = vals[0]
            case = InequalityCase(
                ineq_id="lem3",
                operands={"a": float(opts["a"]), "b": float(opts["b"])},
                params=params, model=None, tolerance=tol,
            )
            res = check_case(case)
        except (BerezinError, ValueError) as exc:
            _log(f"error: {exc}")
            return 2
        rec = fuzz._row_record("lem3", 0, None, params, res)
        if fmt == "csv":
            _emit(_rows_to_csv_text([rec]), opts["out"])
        else:
            _emit(json.dumps(_jsonable({"cases": [rec], "violations": 0 if res.satisfied else 1}), indent=2), opts["out"])
        return 0 if res.satisfied else 1

    try:
        model = None
        if opts["model"] is not None:
            model = _resolve_model(opts["model"])
        n = int(opts["n"]) if opts["n"] is not None else (model.dimension if model else 3)
        trials = int(opts["trials"]) if opts["trials"] is not None else 10
        seed = int(opts["seed"]) if opts["seed"] is not None else 0
        scale = float(opts["scale"]) if opts["scale"] is not None else 1.0
        kind = opts["gen"] or "general"
        report = fuzz.run_suite(
            ids,
            model=model,
            gen=fuzz.GeneratorSpec(kind=kind, n=n, scale=scale, seed=seed),
            trials=trials,
            sweep=_sweep_from(opts),
            dims=(model.dimension if model else n,),
            tolerance=tol,
            level=level,
            collect_rows=True,
        )
    except (BerezinError, ValueError) as exc:
        _log(f"error: {exc}")
        return 2
    _log(
        f"[check] {len(ids)} entries x {report.trials} trials -> "
        f"{report.rows_evaluated} cases, {len(report.violations)} violations "
        f"in {report.runtime_seconds:.2f}s"
    )
    if fmt == "csv":
        _emit(_rows_to_csv_text(report.rows), opts["out"])
    else:
        _emit(json.dumps(_report_payload(report, include_rows=True), indent=2), opts["out"])
    return 1 if report.violations else 0


def cmd_fuzz(args) -> int:
    try:
        opts = _merged(args, "fuzz")
        chosen = opts["suite"] if opts["suite"] is not None else opts["ineq"]
        ids = None
        if chosen and str(chosen).strip().lower() != "all":
            ids = [s.strip() for s in str(chosen).split(",") if s.strip()]
            for ineq_id in ids:
                if ineq_id not in CATALOG:
                    raise UnknownIneqId(f"no catalog entry {ineq_id!r}")
        tol = float(opts["tol"]) if opts["tol"] is not None else DEFAULT_TOL
        level = int(opts["level"]) if opts["level"] is not None else 1
        fmt = (opts["format"] or "csv").lower()
        if fmt not in ("json", "csv"):
            raise ValueError(f"unknown format {fmt!r}")
        model = _resolve_model(opts["model"]) if opts["model"] is not None else None
        dims = _ints_csv(opts["n"]) if opts["n"] is not None else fuzz.DEFAULT_DIMS
        trials = int(opts["trials"]) if opts["trials"] is not None else 100
        seed = int(opts["seed"]) if opts["seed"] is not None else 0
        scale = float(opts["scale"]) if opts["scale"] is not None else 1.0
        kind = opts["gen"] or "general"
        csv_path = opts["out"] if (opts["out"] and fmt == "csv") else None
        report = fuzz.run_suite(
            ids,
            model=model,
            gen=fuzz.GeneratorSpec(kind=kind, n=dims[0], scale=scale, seed=seed),
            trials=trials,
            sweep=_sweep_from(opts),
            dims=dims,
            tolerance=tol,
            level=level,
            csv_path=csv_path,
        )
    except (BerezinError, ValueError, OSError, json.JSONDecodeError) as exc:
        _log(f"error: {exc}")
        return 2
    _log(
        f"[fuzz] {len(report.suite)} entries x {report.trials} trials -> "
        f"{report.rows_evaluated} cases, {len(report.violations)} violations, "
        f"{report.marginal_retries} marginal retries in {report.runtime_seconds:.2f}s"
    )
    summary = json.dumps(_report_payload(report, include_rows=False), indent=2)
    if fmt == "json" and opts["out"]:
        _emit(summary, opts["out"])
    else:
        sys.stdout.write(summary + "\n")
    return 1 if report.violations else 0


def cmd_report(args) -> int:
    try:
        opts = _merged(args, "report")
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        _log(f"error: {exc}")
        return 2
    path = opts["input"]
    if not path:
        _log("error: an input CSV is required")
        return 2
    groups: dict[str, list[float]] = {}
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
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
    except (OSError, ValueError, KeyError, TypeError) as exc:
        _log(f"error: {exc}")
        return 2
    payload = {}
    for ineq_id in sorted(groups):
        vals = np.asarray(groups[ineq_id], dtype=np.float64)
        counts, edges = np.histogram(vals, bins=20)
        payload[ineq_id] = {
            "count": int(vals.size),
            "min": float(vals.min()),
            "max": float(vals.max()),
            "mean": float(vals.mean()),
            "median": float(np.median(vals)),
            "bin_edges": [float(e) for e in edges],
            "counts": [int(c) for c in counts],
        }
    fmt = (opts["format"] or "json").lower()
    if fmt == "csv":
        lines = ["ineq_id,bin_lo,bin_hi,count"]
        for ineq_id, h in payload.items():
            for i, c in enumerate(h["counts"]):
                lines.append(
                    f"{ineq_id},{h['bin_edges'][i]:.17g},{h['bin_edges'][i + 1]:.17g},{c}"
                )
        _emit("\n".join(lines) + "\n", opts["out"])
    elif fmt == "json":
        _emit(json.dumps(payload, indent=2), opts["out"])
    else:
        _log(f"error: unknown format {fmt!r}")
        return 2
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
    pe.add_argument("--out", help="write output here instead of stdout")
    pe.add_argument("--format", choices=("json", "csv"), help="output format")
    pe.add_argument("--config", help="JSON file with default options")
    pe.set_defaults(func=cmd_eval)

    pc = sub.add_parser("check", help="check catalog inequalities on sampled operands")
    pc.add_argument("--ineq", help="catalog id or comma list, e.g. thm1,cor1")
    pc.add_argument("--model", help="model spec (default: exact finite model)")
    pc.add_argument("--gen", choices=fuzz.MATRIX_KINDS, help="operand ensemble")
    pc.add_argument("--n", type=int, help="operand dimension")
    pc.add_argument("--trials", type=int, help="number of random trials")
    pc.add_argument("--seed", type=int, help="master seed")
    pc.add_argument("--scale", type=float, help="operand scale")
    pc.add_argument("--alpha", help="comma list of alpha values")
    pc.add_argument("--r", help="comma list of r values")
    pc.add_argument("--s", help="comma list of s values")
    pc.add_argument("--a", type=float, help="explicit scalar operand (lem3)")
    pc.add_argument("--b", type=float, help="explicit scalar operand (lem3)")
    pc.add_argument("--tol", type=float, help="satisfaction tolerance")
    pc.add_argument("--level", type=int, help="grid level for continuous models")
    pc.add_argument("--out", help="write output here instead of stdout")
    pc.add_argument("--format", choices=("json", "csv"), help="output format")
    pc.add_argument("--config", help="JSON file with default options")
    pc.set_defaults(func=cmd_check)

    pf = sub.add_parser("fuzz", help="randomized campaign over the catalog")
    pf.add_argument("--suite", help='"all" or a comma list of catalog ids')
    pf.add_argument("--ineq", help="comma list of ids (default: all)")
    pf.add_argument("--model", help="model spec (default: exact finite models)")
    pf.add_argument("--gen", choices=fuzz.MATRIX_KINDS, help="operand ensemble")
    pf.add_argument("--n", help="comma list of dimensions to cycle, e.g. 2,3,4,6")
    pf.add_argument("--trials", type=int, help="trials per entry")
    pf.add_argument("--seed", type=int, help="master seed")
    pf.add_argument("--scale", type=float, help="operand scale")
    pf.add_argument("--alpha", help="comma list of alpha values")
    pf.add_argument("--r", help="comma list of r values")
    pf.add_argument("--s", help="comma list of s values")
    pf.add_argument("--tol", type=float, help="satisfaction tolerance")
    pf.add_argument("--level", type=int, help="grid level for continuous models")
    pf.add_argument("--out", help="CSV path (with --format csv) or JSON path")
    pf.add_argument("--format", choices=("json", "csv"), help="what --out receives")
    pf.add_argument("--config", help="JSON file with default options")
    pf.set_defaults(func=cmd_fuzz)

    pr = sub.add_parser("report", help="gap histograms from a results CSV")
    pr.add_argument("--in", dest="input", help="results CSV from fuzz/check")
    pr.add_argument("--out", help="write output here instead of stdout")
    pr.add_argument("--format", choices=("json", "csv"), help="output format")
    pr.add_argument("--config", help="JSON file with default options")
    pr.set_defaults(func=cmd_report)
    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
