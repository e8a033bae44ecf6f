"""Smoke test: every metric named in BENCHMARK.json is emitted, with its unit.

    python3 perfbench/smoke.py

Runs each workload once untraced and once traced with a one-second window
(one call or round per run) and checks that the last stdout line carries
exactly the metrics BENCHMARK.json names, that every metric is also printed
as a `name value unit` line, and that every output check passed.  Takes a
few minutes on a 2-core machine; it is not part of the tier-1 tests.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload: str, trace: int) -> tuple[dict, list[str]]:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    for wl in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[key]}
            try:
                result, lines = run(wl["name"], trace)
            except AssertionError as exc:
                failures.append(str(exc))
                continue
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            printed = {ln.split()[0]: ln.split()[-1] for ln in lines if not ln.startswith("#")}
            problems = []
            if got != want:
                problems.append(f"metrics differ: missing {sorted(set(want) - set(got))}, "
                                f"extra {sorted(set(got) - set(want))}, "
                                f"units {sorted(k for k in want if k in got and got[k] != want[k])}")
            if printed != want:
                problems.append("printed metric lines differ from BENCHMARK.json")
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                problems.append(f"output check: {result['failed']} of {result['attempted']} failed")
            status = "ok" if not problems else "FAIL"
            print(f"{wl['name']} trace={trace}: {status} ({len(got)} metrics)", flush=True)
            failures.extend(f"{wl['name']} trace={trace}: {p}" for p in problems)
    for f in failures:
        print(f, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
