"""Workload definitions: inputs, set-up, one timed call, and its output check.

Every workload draws its inputs from a committed pool so that each input has a
committed reference (see make_reference.py).  A run with seed s starts at pool
slot s mod POOL and walks the pool in order, one slot per call (for the eval
workloads, one operator per round of three model calls).  Each pool ends with
a few held-out slots past POOL that only HELDOUT_SEED walks, so a claim made
on that seed runs inputs no ordinary seed reaches.

The berezin package must already be importable when this module is used;
run.py puts the checkout's src/ on sys.path first.
"""

from __future__ import annotations

import csv
import hashlib
import json
import lzma
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
REF_DIR = HERE / "reference"

# campaign-finite: one call is acceptance gate 3 at 1/250 scale (4 trials, one
# cycle of the dims), so a 20 s window holds about 20-30 calls.
FINITE_POOL = 16
FINITE_HELDOUT = 4
FINITE_TRIALS = 4
FINITE_DIMS = (2, 3, 4, 6)
# campaign-disk: one call is one trial of every entry on hardy(3, 0.9).
DISK_POOL = 16
DISK_HELDOUT = 2
DISK_TRIALS = 1
DISK_LEVEL = 0
# eval workloads: n = 16 operators, each evaluated on three disk models.
EVAL_POOL = 24
EVAL_HELDOUT = 4
EVAL_N = 16
EVAL_MODELS = ("hardy:15:0.95", "bergman:15:0.95", "fock:15:3")
EVAL_LEVELS = (1, 2)
# Seed for later claims; it walks only the held-out slots of each pool.
HELDOUT_SEED = 20261017

# Berezin estimates on disk models are lower bounds that may only rise, and
# never above the operator norm.
EVAL_SLACK = 1e-9


def pool_slot(seed: int, k: int, pool: int, heldout: int) -> int:
    """Pool slot of the k-th call (eval: round) of a run with `seed`."""
    if seed == HELDOUT_SEED:
        return pool + k % heldout
    return (seed + k) % pool


def finite_master(slot: int) -> int:
    # trial t draws from master ^ t; a multiple of 16 keeps t < 16 collision free
    return 0x5EED_0000 + 16 * slot


def disk_master(slot: int) -> int:
    return 0xD15C_0000 + 16 * slot


def eval_operator_seed(slot: int) -> int:
    return 0xE7A1_0000 + slot


def load_reference(name: str) -> dict:
    with lzma.open(REF_DIR / f"{name}.json.xz", "rt", encoding="utf-8") as fh:
        return json.load(fh)


def save_reference(name: str, obj: dict) -> None:
    REF_DIR.mkdir(exist_ok=True)
    with lzma.open(REF_DIR / f"{name}.json.xz", "wt", encoding="utf-8") as fh:
        json.dump(obj, fh, separators=(",", ":"))


def wall_timer(fn):
    """Run fn(); return (result, wall seconds, wall seconds).

    run.py passes a calibrated timer with the same signature instead.
    """
    t0 = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - t0
    return result, wall, wall


@dataclass
class CallResult:
    """One call: reported seconds (calibrated by run.py), program wall, checks."""

    seconds: float
    wall: float
    ops: int
    failed: int
    output: bytes = b""
    violations: int = 0
    marginal_retries: int = 0
    identical: bool = True  # output bytes match the committed reference


def _split_csv(data: bytes):
    rows = list(csv.reader(data.decode("utf-8").splitlines()))
    return rows[0], rows[1:]


class CampaignWorkload:
    """run_suite over the whole catalog; operations are CSV rows."""

    def __init__(self, name: str, workdir: Path):
        self.name = name
        self.workdir = workdir
        self.ref = None

    # -- set-up ---------------------------------------------------------------
    def setup(self) -> None:
        from berezin import fuzz, models

        self.fuzz = fuzz
        if self.name == "campaign-finite":
            self.model = None
            self.dims = FINITE_DIMS
            self.trials = FINITE_TRIALS
            self.level = 1
            self.pool = FINITE_POOL
            self.heldout = FINITE_HELDOUT
            self.master = finite_master
        else:
            self.model = models.hardy(3, 0.9)
            self.dims = (self.model.dimension,)
            self.trials = DISK_TRIALS
            self.level = DISK_LEVEL
            self.pool = DISK_POOL
            self.heldout = DISK_HELDOUT
            self.master = disk_master

    def load_reference(self) -> None:
        self.ref = load_reference(self.name)
        self.ref_keys = [tuple(k) for k in self.ref["keys"]]

    def slot(self, seed: int, k: int) -> int:
        return pool_slot(seed, k, self.pool, self.heldout)

    # -- program call -----------------------------------------------------------
    def run(self, slot: int, csv_path: Path, timer, suite=None):
        """One timed run_suite call; returns (report, wall, seconds)."""
        gen = self.fuzz.GeneratorSpec(kind="general", n=self.dims[0], scale=1.0,
                                      seed=self.master(slot))
        return timer(lambda: self.fuzz.run_suite(
            suite, model=self.model, gen=gen, trials=self.trials, dims=self.dims,
            level=self.level, csv_path=str(csv_path),
        ))

    def call(self, slot: int, timer) -> CallResult:
        path = self.workdir / f"{self.name}-run.csv"
        report, wall, seconds = self.run(slot, path, timer)
        return self.checked(slot, seconds, wall, path.read_bytes(),
                            len(report.violations), report.marginal_retries)

    def call_per_entry(self, slot: int, entry_ids, timer) -> tuple[CallResult, dict]:
        """The same campaign split into one run_suite call per entry.

        Rows are written in (entry, trial, sweep point) order, so the per-entry
        files joined without their headers equal the whole-campaign CSV.
        Returns the checked joint result and seconds per entry.
        """
        path = self.workdir / f"{self.name}-entry.csv"
        parts, per_entry, wall, viols, retries = [], {}, 0.0, 0, 0
        for i, ineq_id in enumerate(entry_ids):
            report, dt, per_entry[ineq_id] = self.run(slot, path, timer, suite=[ineq_id])
            lines = path.read_bytes().splitlines(keepends=True)
            parts.extend(lines if i == 0 else lines[1:])
            wall += dt
            viols += len(report.violations)
            retries += report.marginal_retries
        res = self.checked(slot, sum(per_entry.values()), wall, b"".join(parts), viols, retries)
        return res, per_entry

    # -- output check ----------------------------------------------------------
    def checked(self, slot, seconds, wall, data: bytes, violations: int, retries: int) -> CallResult:
        ref = self.ref["slots"][slot]
        header, rows = _split_csv(data)
        expected = len(self.ref_keys)
        bad = np.zeros(max(expected, len(rows)), dtype=bool)
        bad[min(expected, len(rows)):] = True  # missing or surplus rows
        if header != self.ref["header"]:
            bad[:] = True
        for i, row in enumerate(rows[:expected]):
            if tuple(row[:6]) != self.ref_keys[i]:
                bad[i] = True
        vals = np.array([[_num(r[6]), _num(r[7]), _num(r[8])] for r in rows[:expected]],
                        dtype=np.float64).reshape(-1, 3)
        n = vals.shape[0]
        if self.name == "campaign-finite":
            # exact models: no violations, verdicts as committed, values within
            # DEFAULT_TOL of the committed ones (relative to max(1, |ref|))
            from berezin.inequalities import DEFAULT_TOL

            verdicts = np.array([r[9] for r in rows[:expected]])
            bad[:n] |= verdicts != np.array(ref["verdicts"])[:n]
            bad[:n] |= verdicts != "true"
            want = np.array([ref["lhs"], ref["rhs"]], dtype=np.float64).T[:n]
            got = vals[:, :2]
            with np.errstate(invalid="ignore"):
                ok = np.abs(got - want) <= DEFAULT_TOL * np.maximum(1.0, np.abs(want))
            bad[:n] |= ~ok.all(axis=1)
        else:
            # lower-bound models: prop1 artefact violations are counted, not
            # failed; every value must be finite
            bad[:n] |= ~np.isfinite(vals).all(axis=1)
        identical = hashlib.sha256(data).hexdigest() == ref["sha256"]
        return CallResult(seconds, wall, max(expected, len(rows)), int(bad.sum()), data,
                          violations, retries, identical)


def _num(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return math.nan


class EvalWorkload:
    """In-process `berezin eval` on n = 16 operators; operations are eval calls."""

    def __init__(self, name: str, workdir: Path):
        self.name = name
        self.workdir = workdir
        self.level = 1 if name == "disk-eval-l1" else 2
        self.models = EVAL_MODELS
        self.pool = EVAL_POOL
        self.heldout = EVAL_HELDOUT
        self.ref = None

    def setup(self) -> None:
        from berezin import cli, fuzz
        from berezin import io as bio

        self.cli = cli
        self.paths = []
        for slot in range(self.pool + self.heldout):
            a = fuzz.gen_matrix(fuzz.GeneratorSpec("general", EVAL_N, 1.0, eval_operator_seed(slot)))
            path = self.workdir / f"op{slot:02d}.json"
            bio.save_matrix(path, a)
            self.paths.append(path)

    def load_reference(self) -> None:
        self.ref = load_reference("disk-eval")

    def slot(self, seed: int, k: int) -> int:
        return pool_slot(seed, k, self.pool, self.heldout)

    def run(self, slot: int, model: str, out: Path, timer):
        """One timed eval; returns (exit code, wall, seconds)."""
        argv = ["eval", "--model", model, "--matrix", str(self.paths[slot]),
                "--level", str(self.level), "--out", str(out)]
        return timer(lambda: self.cli.main(argv))

    def call(self, slot: int, model: str, timer) -> CallResult:
        out = self.workdir / "eval-run.json"
        if out.exists():
            out.unlink()
        code, wall, seconds = self.run(slot, model, out, timer)
        data = out.read_bytes() if out.exists() else b""
        ok = code == 0 and self._output_ok(slot, model, data)
        return CallResult(seconds, wall, 1, 0 if ok else 1, data)

    def _output_ok(self, slot: int, model: str, data: bytes) -> bool:
        try:
            payload = json.loads(data)
            ber = float(payload["berezin_number"]["value"])
            nber = float(payload["berezin_norm"]["value"])
            opn = float(payload["operator_norm"])
        except (ValueError, KeyError, TypeError):
            return False
        ref = self.ref["values"][f"{slot}|{model}|{self.level}"]
        for got, want in ((ber, ref["berezin_number"]), (nber, ref["berezin_norm"])):
            if not (got >= want - EVAL_SLACK * max(1.0, want) and got <= opn + EVAL_SLACK):
                return False
        return True


def make(name: str, workdir: Path):
    if name.startswith("campaign-"):
        return CampaignWorkload(name, workdir)
    return EvalWorkload(name, workdir)
