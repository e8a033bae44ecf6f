"""Serialization: the matrix wire format and model descriptors.

A matrix travels as `{"rows": n, "cols": m, "data": [[re, im], ...]}` with
row-major data and one [re, im] pair of IEEE doubles per entry.  Writing uses
repr-style shortest round-trip floats, so a saved matrix re-parses to the
exact same bits.

A model descriptor is `{"kind": "finite", "n": 4}` or
`{"kind": "hardy"|"bergman", "degree": N, "rho": r}` or
`{"kind": "fock", "degree": N, "R": r}`.  Its fields are JSON numbers, `n`
and `degree` integers (a bool is neither), and an absent field takes the
factory's default.  A number read as a float, here or in a matrix, must be
one that a float64 can hold: an integer of 400 digits is rejected.  The
compact string forms "finite:4", "hardy:15:0.95", "fock:15:3" list the
same fields in that order on the command line.
"""

from __future__ import annotations

import inspect
import json
import math

import numpy as np

from . import models
from .models import KernelModel

# kind -> (factory, fields in compact-spec order); a field is (descriptor key,
# factory argument, JSON type, KernelModel attribute).
_DEGREE = ("degree", "degree", int, "degree")
_MODELS = {
    "finite": (models.finite, (("n", "n", int, "dimension"),)),
    "hardy": (models.hardy, (_DEGREE, ("rho", "rho", float, "radius"))),
    "bergman": (models.bergman, (_DEGREE, ("rho", "rho", float, "radius"))),
    "fock": (models.fock, (_DEGREE, ("R", "radius", float, "radius"))),
}


def _is_number(x, typ=float) -> bool:
    """A JSON number of type `typ` (an int counts as a float, a bool as neither);
    as a float, an int must be one that a float64 can hold."""
    if isinstance(x, bool) or not isinstance(x, (int, typ)):
        return False
    if typ is float and isinstance(x, int):
        try:
            float(x)
        except OverflowError:
            return False
    return True


def dump_matrix(a: np.ndarray) -> dict:
    """Matrix -> wire dict."""
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got ndim={a.ndim}")
    data = [[float(z.real), float(z.imag)] for z in a.reshape(-1)]
    return {"rows": int(a.shape[0]), "cols": int(a.shape[1]), "data": data}


def load_matrix_obj(obj) -> np.ndarray:
    """Wire dict -> matrix, validating shape, keys, and finiteness."""
    if not isinstance(obj, dict):
        raise ValueError("matrix JSON must be an object")
    extra = set(obj) - {"rows", "cols", "data"}
    if extra:
        raise ValueError(f"unknown matrix keys: {sorted(extra)}")
    try:
        rows, cols, data = obj["rows"], obj["cols"], obj["data"]
    except KeyError as exc:
        raise ValueError(f"matrix JSON missing key {exc}") from exc
    if not (_is_number(rows, int) and _is_number(cols, int)) or rows < 1 or cols < 1:
        raise ValueError("rows and cols must be positive integers")
    if not isinstance(data, list) or len(data) != rows * cols:
        raise ValueError(
            f"data must list rows*cols = {rows * cols} entries, got "
            f"{len(data) if isinstance(data, list) else type(data).__name__}"
        )
    flat = np.empty(rows * cols, dtype=np.complex128)
    for i, item in enumerate(data):
        if (not isinstance(item, list)) or len(item) != 2:
            raise ValueError(f"data[{i}] must be an [re, im] pair")
        re, im = item
        if not (_is_number(re) and _is_number(im)):
            raise ValueError(f"data[{i}] entries must be numbers within float64 range")
        if not (math.isfinite(re) and math.isfinite(im)):
            raise ValueError(f"data[{i}] entries must be finite")
        flat[i] = complex(re, im)
    return flat.reshape(rows, cols)


def save_matrix(path, a: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dump_matrix(a), fh)
        fh.write("\n")


def load_matrix(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        return load_matrix_obj(json.load(fh))


def model_to_descriptor(model: KernelModel) -> dict:
    """The descriptor that model_from_descriptor turns back into `model`."""
    fields = _MODELS[model.kind][1]
    return {"kind": model.kind, **{key: getattr(model, attr) for key, _, _, attr in fields}}


def model_from_descriptor(obj) -> KernelModel:
    """A model from its descriptor; an absent field takes the factory default."""
    if not isinstance(obj, dict):
        raise ValueError("model descriptor must be an object")
    kind = obj.get("kind")
    if not isinstance(kind, str) or kind not in _MODELS:
        raise ValueError(f"unknown model kind {kind!r}")
    factory, fields = _MODELS[kind]
    extra = set(obj) - {"kind", *(key for key, *_ in fields)}
    if extra:
        raise ValueError(f"unknown model keys: {sorted(extra)}")
    args = {}
    for key, arg, typ, _ in fields:
        if key in obj:
            if not _is_number(obj[key], typ):
                what = "integer" if typ is int else "number within float64 range"
                raise ValueError(f"{kind} model field {key} must be a JSON {what}, got {obj[key]!r}")
            args[arg] = obj[key]
        elif inspect.signature(factory).parameters[arg].default is inspect.Parameter.empty:
            raise ValueError(f"{kind} model needs {key}")
    return factory(**args)


def parse_model_spec(spec: str) -> KernelModel:
    """Parse compact model strings like finite:4 or hardy:15:0.95."""
    kind, *values = str(spec).strip().split(":")
    if kind not in _MODELS:
        raise ValueError(f"unknown model kind {kind!r} in spec {spec!r}")
    fields = _MODELS[kind][1]
    try:
        if len(values) > len(fields):
            raise ValueError(f"too many fields for {kind}")
        return model_from_descriptor(
            {"kind": kind, **{key: typ(v) for (key, _, typ, _), v in zip(fields, values)}})
    except ValueError as exc:
        raise ValueError(f"bad model spec {spec!r}: {exc}") from exc
