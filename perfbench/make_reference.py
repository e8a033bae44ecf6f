"""Regenerate the committed reference outputs under perfbench/reference/.

Run from the repository root, on the commit whose outputs are the reference:

    python3 perfbench/make_reference.py [campaign-finite|campaign-disk|disk-eval ...]

The references pin row keys, verdicts, values and CSV bytes of every campaign
pool slot, and the Berezin estimates of every eval pool operator, held-out
slots included.  A later change must not regenerate them to make its own
outputs pass.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads as wl  # noqa: E402


def campaign(name: str, tmp: Path) -> None:
    w = wl.make(name, tmp)
    w.setup()
    slots, keys, header = [], None, None
    for slot in range(w.pool + w.heldout):
        path = tmp / "ref.csv"
        report, _, _ = w.run(slot, path, wl.wall_timer)
        data = path.read_bytes()
        head, rows = wl._split_csv(data)
        if keys is None:
            header, keys = head, [row[:6] for row in rows]
        if [row[:6] for row in rows] != keys:
            raise RuntimeError(f"{name}: row keys of slot {slot} differ from slot 0")
        entry = {
            "master_seed": w.master(slot),
            "sha256": hashlib.sha256(data).hexdigest(),
            "verdicts": [row[9] for row in rows],
            "violations": len(report.violations),
        }
        if name == "campaign-finite":
            entry["lhs"] = [float(row[6]) for row in rows]
            entry["rhs"] = [float(row[7]) for row in rows]
        slots.append(entry)
        print(f"{name} slot {slot}: {len(rows)} rows, {len(report.violations)} violations",
              flush=True)
    wl.save_reference(name, {"header": header, "keys": keys, "slots": slots})


def disk_eval(tmp: Path) -> None:
    import json

    values = {}
    for level in wl.EVAL_LEVELS:
        w = wl.make(f"disk-eval-l{level}", tmp)
        w.setup()
        for slot in range(w.pool + w.heldout):
            for model in wl.EVAL_MODELS:
                out = tmp / "ref.json"
                code, _, _ = w.run(slot, model, out, wl.wall_timer)
                if code != 0:
                    raise RuntimeError(f"eval of operator {slot} on {model} exited {code}")
                payload = json.loads(out.read_bytes())
                values[f"{slot}|{model}|{level}"] = {
                    "berezin_number": payload["berezin_number"]["value"],
                    "berezin_norm": payload["berezin_norm"]["value"],
                }
            print(f"disk-eval level {level} operator {slot}", flush=True)
    wl.save_reference("disk-eval", {
        "operator_seeds": [wl.eval_operator_seed(s) for s in range(wl.EVAL_POOL + wl.EVAL_HELDOUT)],
        "values": values,
    })


def main(names) -> None:
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for name in names:
            if name == "disk-eval":
                disk_eval(Path(tmp))
            else:
                campaign(name, Path(tmp))


if __name__ == "__main__":
    main(sys.argv[1:] or ["campaign-finite", "campaign-disk", "disk-eval"])
