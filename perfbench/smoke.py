"""Smoke run of the benchmark at tiny sizes.

    python3 perfbench/smoke.py

Runs every workload once untraced and once traced with the "tiny" profile
and fails unless each run exits 0, reports ``correct``, and emits exactly the
end-to-end (untraced) or per-layer (traced) metrics named in BENCHMARK.json,
each with its unit. It checks plumbing, not performance.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from run import ROOT, WORKLOADS


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    errors = []
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", workload,
                   "--seed", "0", "--seconds", "1", "--trace", str(trace), "--profile", "tiny"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
            label = f"{workload} trace={trace}"
            if proc.returncode != 0:
                errors.append(f"{label}: exit {proc.returncode}\n{proc.stderr}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"] or not result["correct"]:
                errors.append(f"{label}: bad result {sorted(result)} correct={result.get('correct')}")
            expected = {m["name"]: m["unit"] for m in bench[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected:
                errors.append(f"{label}: missing {sorted(set(expected) - set(got))}, "
                              f"unexpected {sorted(set(got) - set(expected))}")
            print(f"{label}: {len(got)} metrics, attempted {result['attempted']}")
    for error in errors:
        print(f"FAIL {error}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
