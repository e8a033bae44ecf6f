"""Run a small randomized campaign, save the CSV, and summarize it.

Run:  python3 demos/03_fuzz_campaign.py
"""

import json
import tempfile
from pathlib import Path

from berezin import GeneratorSpec, run_suite
from berezin.cli import main as cli_main

workdir = Path(tempfile.mkdtemp(prefix="berezin-demo-"))
csv_path = workdir / "campaign.csv"

print("campaign: 5 entries x 50 trials, dimensions cycling 2,3,4,6")
report = run_suite(
    ["thm1", "cor1", "eqn13", "lem3", "prop1"],
    gen=GeneratorSpec(kind="general", n=3, scale=1.0, seed=2024),
    trials=50,
    dims=(2, 3, 4, 6),
    csv_path=str(csv_path),
)
print(f"  rows evaluated : {report.rows_evaluated}")
print(f"  violations     : {len(report.violations)}")
print(f"  runtime        : {report.runtime_seconds:.2f}s")
print(f"  csv            : {csv_path} ({csv_path.stat().st_size} bytes)")

print()
print("per-entry relative gap (gap / max(1, rhs)) over the whole campaign:")
for ineq_id, st in report.gap_stats.items():
    print(f"  {ineq_id:8s} n={st.count:5d}  min={st.min:9.2e}  "
          f"median={st.median:9.2e}  max={st.max:9.2e}")

print()
print("same numbers through the command line reporter (20-bin histograms):")
out_path = workdir / "hist.json"
code = cli_main(["report", "--in", str(csv_path), "--out", str(out_path)])
hist = json.loads(out_path.read_text())
for ineq_id, h in hist.items():
    bar = "".join("#" if c else "." for c in h["counts"])
    print(f"  {ineq_id:8s} [{bar}]  min={h['min']:.2e}  max={h['max']:.2e}")
print(f"reporter exit code: {code}")

print()
print("reproducibility: trial t draws from master_seed XOR t, so the same")
print("seed always yields the same CSV, byte for byte.")
rerun = workdir / "campaign-again.csv"
run_suite(
    ["thm1", "cor1", "eqn13", "lem3", "prop1"],
    gen=GeneratorSpec(kind="general", n=3, scale=1.0, seed=2024),
    trials=50,
    dims=(2, 3, 4, 6),
    csv_path=str(rerun),
)
print(f"rerun identical: {rerun.read_bytes() == csv_path.read_bytes()}")
