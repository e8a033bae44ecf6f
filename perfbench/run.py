"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload campaign-finite --seed 0 --seconds 20 --trace 0

Run from the root of a checkout: the berezin package is imported from ./src.
Every workload is a closed loop: one caller in one process issues calls back
to back, with run_suite serial, BEREZIN_THREADS removed from the environment,
BLAS on one thread and the process pinned to one CPU.

--trace 0 measures the end-to-end metrics: whole rounds of calls run until
--seconds of program time are spent, each output is checked against the
committed reference, and set-up time is the median over fresh child processes
that import the package and prepare the inputs.  Times are calibrated by a
small kernel run around and inside each timed call (see Clock), because the
host's speed drifts by up to 1.8x over tens of seconds.  A call that ran
other threads or child processes is scaled by the kernel runs around it only,
and the count of such calls is printed.

--trace 1 runs a fixed amount of work twice, untraced and then with the span
tracer installed, and reports the per-layer metrics; spans are written to
.perfbench/trace-<workload>.npz.

Every metric is printed as `name value unit`; the last line is one JSON object
{"correct", "attempted", "failed", "metrics"}.  The exit code is 1 when an
output check failed and 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
SETUP_REPS = 7
WORKLOADS = ("campaign-finite", "campaign-disk", "disk-eval-l1", "disk-eval-l2")
# Work done by a --trace 1 run: calls of the campaigns, rounds of three model
# calls for the eval workloads.
TRACED_WORK = {"campaign-finite": 4, "campaign-disk": 1, "disk-eval-l1": 2, "disk-eval-l2": 1}
# The host's speed drifts by up to 1.8x over tens of seconds (other tenants),
# so program time is calibrated: a small fixed kernel runs before and after
# every timed call and, from a SIGALRM handler, every PROBE_PERIOD_S inside
# it; reported = (wall - probe time) * CAL_REF_S / harmonic mean kernel time.
CAL_EIGH_ITERS = 120
CAL_DICT_ITERS = 16000
CAL_SCALAR_ITERS = 400
CAL_REF_S = 0.002
PROBE_PERIOD_S = 0.1
# CPU seconds that other threads or child processes may spend in a probed
# call, per second of wall and in total, before it counts as concurrent.
CONCURRENT_SHARE = 0.01
CONCURRENT_FLOOR_S = 0.002
# BLAS runs on one thread: with OpenBLAS's default of one thread per core, the
# idle worker spins on the second core, and one campaign-disk call took 9.2 s
# wall / 13 s CPU instead of 7.0 s, with far wider run-to-run spread.
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


# -- timing -------------------------------------------------------------------


class Clock:
    """Calibrated timer: program seconds scaled to a host on which the kernel
    takes CAL_REF_S.

    The kernel's time is the geometric mean of three parts: small Hermitian
    eigensolves and products (LAPACK and array dispatch, like the campaigns),
    a pure Python dict loop (the interpreter), and numpy scalar and 4-vector
    arithmetic (like the kernel vectors of the grid searches).  Of the mixes
    tried on recorded calls of every workload, this one tracked them best.
    It holds its own references to numpy's functions, so the tracer never
    sees it.

    A call is scaled by the harmonic mean of the kernel times around and
    inside it: each probe stands for an equal slice of the call, and scaling
    every slice by its own probe sums to program * CAL_REF_S * mean(1/probe).
    """

    def __init__(self):
        import numpy as np

        self._eigh = np.linalg.eigh
        self._h = np.array([[2, 1j, 0, 1], [-1j, 3, 1, 0], [0, 1, 1, -1j], [1, 0, 1j, 4]],
                           dtype=np.complex128)
        self._np = np
        self._norm = np.linalg.norm
        self._v = np.array([1, 0.5, 0.25, 0.125], dtype=np.complex128)
        self._probe()  # warm-up, not a sample
        self.samples = [self._calibrate()]
        self.concurrent_calls = 0

    def _probe(self) -> float:
        t0 = time.perf_counter()
        h = self._h
        for _ in range(CAL_EIGH_ITERS):
            w, v = self._eigh(h)
            h = 0.5 * (h + (v * w) @ v.conj().T)
        t1 = time.perf_counter()
        table, acc = {}, 0
        for i in range(CAL_DICT_ITERS):
            table[i & 255] = acc
            acc += i * 3 % 7
        t2 = time.perf_counter()
        np, norm, v, total = self._np, self._norm, self._v, 0.0
        for i in range(CAL_SCALAR_ITERS):
            lam = np.complex128(0.3 + 0.001 * i)
            if np.isfinite(lam.real) and abs(lam) < 1:
                raw = v * lam
                total += float(norm(raw / norm(raw)))
        t3 = time.perf_counter()
        return ((t1 - t0) * (t2 - t1) * (t3 - t2)) ** (1.0 / 3.0)

    def _calibrate(self) -> float:
        """Median of three probes, so one interrupted probe does not count."""
        return statistics.median(self._probe() for _ in range(3))

    def timed(self, fn, probe: bool):
        """Run fn(); return (result, program seconds, calibrated seconds).

        With `probe`, the kernel also runs inside fn every PROBE_PERIOD_S (its
        time is taken out of the program time).  Probing stays off while a
        child process or the tracer runs, since it would share their CPU or
        their spans.

        A probe inside a call shares the CPU with whatever the call runs, so
        a call that slows itself with other threads or child processes would
        slow its probes too and the scaling would hide it.  A probed call
        that spent CPU outside the main thread is therefore scaled by the
        kernel runs before and after it alone, and counted in
        `concurrent_calls`.
        """
        probes: list[float] = []
        probe_wall = 0.0

        def on_alarm(*_):
            nonlocal probe_wall
            t0 = time.perf_counter()
            probes.append(self._probe())
            probe_wall += time.perf_counter() - t0

        if probe:
            old = signal.signal(signal.SIGALRM, on_alarm)
            signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        cpu0 = _cpu_outside_main_thread()
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            wall = time.perf_counter() - t0
            if probe:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, old)
        outside = _cpu_outside_main_thread() - cpu0
        if probe and outside > CONCURRENT_FLOOR_S + CONCURRENT_SHARE * wall:
            self.concurrent_calls += 1
            probes = []
        before, after = self.samples[-1], self._calibrate()
        self.samples += [*probes, after]
        program = wall - probe_wall
        return result, program, program * CAL_REF_S / statistics.harmonic_mean([before, after, *probes])


def _cpu_outside_main_thread() -> float:
    """CPU seconds of this process's other threads plus its waited-for children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (time.process_time() - time.thread_time()) + children.ru_utime + children.ru_stime


# -- calls --------------------------------------------------------------------


def _guarded(fn, expected_ops: int):
    """Run one call; an exception counts all of its operations as failed."""
    import workloads as wl

    t0 = time.perf_counter()
    try:
        return fn()
    except Exception:  # the loop keeps running and reports the failure
        traceback.print_exc(file=sys.stderr)
        wall = time.perf_counter() - t0
        return wl.CallResult(wall, wall, expected_ops, expected_ops)


def _rounds(w, seed: int, timer):
    """Endless sequence of rounds; a round is a list of call thunks."""
    k = 0
    while True:
        slot = w.slot(seed, k)
        if w.name.startswith("campaign-"):
            yield [lambda slot=slot: w.call(slot, timer)], len(w.ref_keys)
        else:
            yield [lambda slot=slot, m=m: w.call(slot, m, timer) for m in w.models], 1
        k += 1


def timed_loop(w, seed: int, seconds: float, clock: Clock) -> list:
    """Closed loop of whole rounds until `seconds` of program wall time are spent.

    Returns one list of call results per round.  Their output bytes are
    dropped once checked, so that peak RSS does not grow with the number of
    calls that fit in the window.
    """
    rounds, spent = [], 0.0
    for thunks, ops in _rounds(w, seed, functools.partial(clock.timed, probe=True)):
        rounds.append([_guarded(thunk, ops) for thunk in thunks])
        for c in rounds[-1]:
            c.output = b""
        spent += sum(c.wall for c in rounds[-1])
        if spent >= seconds:
            return rounds


# -- metrics --------------------------------------------------------------------


def high_percentile(samples):
    """Highest whole percentile above p50 with ten samples beyond it, or None."""
    n = len(samples)
    p = math.floor(100.0 * (1.0 - 10.0 / n))
    if p <= 50:
        return None
    ordered = sorted(samples)
    return p, ordered[max(0, math.ceil(p / 100.0 * n) - 1)]


def end_to_end(w, seed, seconds, setup_samples, clock):
    rounds = timed_loop(w, seed, seconds, clock)
    calls = [c for r in rounds for c in r]
    ms = [c.seconds * 1e3 for c in calls]
    # a round's mean call time: an eval round holds one call per model, and the
    # median of single calls would fall between the models' clusters
    round_ms = [statistics.fmean(c.seconds * 1e3 for c in r) for r in rounds]
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "call_p50_ms": (statistics.median(round_ms), "ms"),
        "ops_per_s": (sum(c.ops for c in calls) / sum(c.seconds for c in calls), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    cal_ms = sorted(1e3 * c for c in clock.samples)
    info = [f"rounds {len(rounds)}, calls {len(calls)}, program wall {sum(c.wall for c in calls):.3f} s, "
            f"single-call p50 {statistics.median(ms):.4f} ms, "
            f"unscaled {1e3 * statistics.median(c.wall for c in calls):.4f} ms",
            f"calibration kernel {len(cal_ms)} samples: median {statistics.median(cal_ms):.3f} ms, "
            f"range {cal_ms[0]:.3f}-{cal_ms[-1]:.3f} ms (reference {1e3 * CAL_REF_S:g} ms)",
            f"concurrent calls {clock.concurrent_calls} of {len(calls)} "
            "(other threads or child processes used CPU; scaled without in-call probes)",
            f"setup samples {SETUP_REPS}: " + " ".join(f"{s:.4f}" for s in setup_samples)]
    hp = high_percentile(ms)
    info.append(f"call_p{hp[0]}_ms {hp[1]:.4f} ms ({len(ms)} samples)" if hp
                else f"no percentile above p50 has 10 samples beyond it ({len(ms)} samples)")
    if w.name.startswith("campaign-"):
        info.append(f"violations {sum(c.violations for c in calls)}, marginal retries "
                    f"{sum(c.marginal_retries for c in calls)}, csv identical to reference "
                    f"{all(c.identical for c in calls)}")
    return calls, metrics, info


def traced(w, seed, clock):
    """Fixed work untraced, then traced; per-layer metrics from the spans."""
    import tracer as tr
    from berezin.inequalities import CATALOG_ORDER

    timer = functools.partial(clock.timed, probe=False)
    rounds = [r for r, _ in zip(_rounds(w, seed, timer), range(TRACED_WORK[w.name]))]
    campaign = w.name.startswith("campaign-")

    # one untimed round first, so neither pass pays first-call costs
    first_thunks, first_ops = rounds[0]
    warm = [_guarded(t, first_ops) for t in first_thunks]
    # untraced pass; the campaigns run entry by entry for per-entry timing
    plain, entry_s = [], {i: 0.0 for i in CATALOG_ORDER}
    for k in range(len(rounds)):
        if campaign:
            slot = w.slot(seed, k)

            def thunk(slot=slot):
                res, per_entry = w.call_per_entry(slot, CATALOG_ORDER, timer)
                for ineq_id, secs in per_entry.items():
                    entry_s[ineq_id] += secs
                return res

            plain.append(_guarded(thunk, rounds[k][1]))
        else:
            plain.extend(_guarded(t, 1) for t in rounds[k][0])

    tracer = tr.Tracer()
    tracer.install()
    try:
        spans = [_guarded(t, ops) for thunks, ops in rounds for t in thunks]
    finally:
        tracer.uninstall()
    OUT_DIR.mkdir(exist_ok=True)
    tracer.save(OUT_DIR / f"trace-{w.name}.npz")

    same = [a.output == b.output for a, b in zip(plain, spans)]
    for res, ok in zip(spans, same):
        if not ok:  # tracing changed the program's output
            res.failed = res.ops
    wall_plain = sum(c.seconds for c in plain)
    wall_traced = sum(c.seconds for c in spans)
    s = tracer.summary()

    def get(name, field):
        return s.get(name, {}).get(field, 0)

    m = {}
    m["fuzz.run_suite.self_s"] = (get("fuzz.run_suite", "self_s"), "s")
    m["fuzz.sample_operands.calls"] = (get("fuzz.sample_operands", "calls"), "count")
    m["fuzz.sample_operands.self_s"] = (get("fuzz.sample_operands", "self_s"), "s")
    m["fuzz.csv.self_s"] = (get("fuzz.csv", "self_s"), "s")
    m["fuzz.csv.bytes"] = (_mean(len(c.output) for c in spans) if campaign else 0, "B")
    m["fuzz.csv_identical"] = (int(all(c.identical for c in spans)), "bool")
    m["fuzz.violations"] = (sum(c.violations for c in spans), "count")
    m["fuzz.marginal_retries"] = (sum(c.marginal_retries for c in spans), "count")
    for name in ("check", "validate"):
        m[f"inequalities.{name}.calls"] = (get(f"inequalities.{name}", "calls"), "count")
        m[f"inequalities.{name}.self_s"] = (get(f"inequalities.{name}", "self_s"), "s")
    rows = {i: 0 for i in CATALOG_ORDER}
    if campaign:
        for key in w.ref_keys:
            rows[key[0]] += len(rounds)
    for ineq_id in CATALOG_ORDER:
        us = 1e6 * entry_s[ineq_id] / rows[ineq_id] if rows[ineq_id] else 0.0
        m[f"inequalities.entry.{ineq_id}.us_per_row"] = (us, "us")
    for name in ("herm_eig", "positive_power", "abs_power", "operator_norm", "is_positive"):
        m[f"linalg.{name}.calls"] = (get(f"linalg.{name}", "calls"), "count")
        m[f"linalg.{name}.self_s"] = (get(f"linalg.{name}", "self_s"), "s")
    eig = {}
    for solver in ("numpy.eigh", "numpy.eigvalsh"):
        for parent, (count, secs) in tracer.by_parent(solver).items():
            c0, s0 = eig.get(parent, (0, 0.0))
            eig[parent] = (c0 + count, s0 + secs)
    lin = [v for p, v in eig.items() if p.startswith("linalg.")]
    m["linalg.eigh.solves"] = (sum(c for c, _ in lin), "count")
    m["linalg.eigh.self_s"] = (sum(t for _, t in lin), "s")
    heig_calls = get("linalg.herm_eig", "calls")
    heig_solves = eig.get("linalg.herm_eig", (0, 0.0))[0]
    m["linalg.herm_eig.hit_ratio"] = (1.0 - heig_solves / heig_calls if heig_calls else 0.0, "fraction")
    m["linalg.mp_solves"] = (get("mpmath.eighe", "calls"), "count")
    for name in ("berezin_number", "berezin_norm"):
        m[f"calc.{name}.calls"] = (get(f"calc.{name}", "calls"), "count")
        m[f"calc.{name}.self_s"] = (get(f"calc.{name}", "self_s"), "s")
    searched = tracer.parents_of("models.default_grid")
    cont = tracer.continuous_sup_spans
    hits = sum(1 for i in cont if i not in searched)
    m["calc.memo_hit_ratio"] = (hits / len(cont) if cont else 0.0, "fraction")
    m["calc.numerical_radius.calls"] = (get("calc.numerical_radius", "calls"), "count")
    m["calc.numerical_radius.self_s"] = (get("calc.numerical_radius", "self_s"), "s")
    m["calc.numerical_radius.eig_solves"] = (eig.get("calc.numerical_radius", (0, 0.0))[0], "count")
    m["calc.berezin_set_sample.self_s"] = (get("calc.berezin_set_sample", "self_s"), "s")
    m["calc.pair_matrix_bytes"] = (tracer.pair_matrix_bytes, "B")
    for name in ("normalized_kernel", "kernel_matrix", "default_grid"):
        m[f"models.{name}.calls"] = (get(f"models.{name}", "calls"), "count")
        m[f"models.{name}.self_s"] = (get(f"models.{name}", "self_s"), "s")
    m["models.kernel_matrix.bytes"] = (tracer.kernel_matrix_bytes, "B")
    m["io.load_matrix.calls"] = (get("io.load_matrix", "calls"), "count")
    m["io.load_matrix.self_s"] = (get("io.load_matrix", "self_s"), "s")
    m["cli.main.self_s"] = (get("cli.main", "self_s"), "s")
    m["cli.cmd_eval.self_s"] = (get("cli.cmd_eval", "self_s"), "s")
    m["cli.output_bytes"] = (0 if campaign else _mean(len(c.output) for c in spans), "B")
    m["trace.unattributed_s"] = (sum(c.wall for c in spans) - s["_self_total_s"], "s")
    m["trace.overhead_s"] = (wall_traced - wall_plain, "s")
    m["trace.untraced_raw_s"] = (sum(c.wall for c in plain), "s")
    m["trace.untraced_s"] = (wall_plain, "s")
    m["trace.output_identical"] = (int(all(same)), "bool")
    m["trace.spans"] = (len(tracer.start), "count")
    info = [f"traced work: {len(spans)} calls; untraced {wall_plain:.3f} s, traced {wall_traced:.3f} s",
            f"spans written to {OUT_DIR.relative_to(ROOT) / f'trace-{w.name}.npz'}"]
    return warm + plain + spans, m, info


def _mean(values):
    values = list(values)
    return sum(values) / len(values) if values else 0


# -- set-up -----------------------------------------------------------------------


def setup_in(workload: str, workdir: Path):
    import workloads as wl

    w = wl.make(workload, workdir)
    w.setup()
    return w


def timed_setup(args, workdir: Path, clock: Clock) -> float:
    """Scaled wall time of a fresh process that imports the package and sets up."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--setup-only", str(workdir)]
    proc, _, seconds = clock.timed(
        lambda: subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True),
        probe=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        print(f"error: set-up failed in a child process (exit {proc.returncode})", file=sys.stderr)
        raise SystemExit(2)
    return seconds


def machine_facts(berezin_threads, blas_found) -> list[str]:
    import mpmath
    import numpy
    import workloads as wl

    found = ", ".join(f"{k}={v}" for k, v in blas_found.items() if v is not None) or "none"
    return [
        f"nproc {os.cpu_count()}, python {platform.python_version()}, numpy {numpy.__version__}, "
        f"mpmath {mpmath.__version__}",
        f"BLAS thread env found: {found}; set for this run: "
        + ", ".join(f"{k}=1" for k in BLAS_ENV),
        "BEREZIN_THREADS unset" + (f" (removed; was {berezin_threads!r})" if berezin_threads is not None else ""),
        f"pinned to CPU {sorted(os.sched_getaffinity(0))}",
        f"held-out seed for later claims: {wl.HELDOUT_SEED} (walks only the held-out pool slots)",
    ]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "berezin" / "__init__.py").is_file():
        print(f"error: no berezin package under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    berezin_threads = os.environ.pop("BEREZIN_THREADS", None)
    blas_found = {k: os.environ.get(k) for k in BLAS_ENV}
    os.environ.update({k: "1" for k in BLAS_ENV})  # before numpy is imported
    # one CPU for the run, its set-up children and the calibration kernel
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_only:
        setup_in(args.workload, Path(args.setup_only))
        return 0

    # imports mpmath up front, so the lazy import on a marginal retry does not
    # add ~3.5 MB of RSS to the runs of some seeds only
    facts = machine_facts(berezin_threads, blas_found)
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        tmp = Path(tmp)
        clock = Clock()
        setup_samples = []
        if not args.trace:
            for i in range(SETUP_REPS):
                child = tmp / f"setup{i}"
                child.mkdir()
                setup_samples.append(timed_setup(args, child, clock))
        main_dir = tmp / "main"
        main_dir.mkdir()
        w = setup_in(args.workload, main_dir)
        w.load_reference()
        if args.trace:
            calls, metrics, info = traced(w, args.seed, clock)
        else:
            calls, metrics, info = end_to_end(w, args.seed, args.seconds, setup_samples, clock)

    attempted = sum(c.ops for c in calls)
    failed = sum(c.failed for c in calls)
    for line in facts + info:
        print(f"# {line}")
    print(f"# error_rate {failed / attempted if attempted else 0.0:.6g} fraction "
          f"({failed} of {attempted} operations failed)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.10g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
