"""Self-test of the benchmark harness at tiny sizes; no timings are judged.

Usage: python3 perfbench/selftest.py

Runs every workload untraced and traced (twice, same seed) at 1% of its
size and checks that each run is correct with no failures, reports exactly
the metrics BENCHMARK.json names with their units, keeps children's time
within each span, and repeats its work counts exactly.  Finally it checks
that the benchmark refuses to run, without printing a result, where the
mirrorpair sources are missing.  Prints one line per check; exits 1 on the
first failure.
"""

from __future__ import annotations

import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402

SCALE = 0.01
SEED = 7


def check(cond, message):
    print(("ok    " if cond else "FAIL  ") + message, flush=True)
    if not cond:
        raise SystemExit(1)


def main():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    bench.WORK = HERE / "_work" / "selftest"
    shutil.rmtree(bench.WORK, ignore_errors=True)

    for wl in (w["name"] for w in spec["workloads"]):
        counts = []
        for trace in (0, 1, 1):
            out = io.StringIO()
            res = bench.run(wl, SEED, 0.01, trace, scale=SCALE,
                            setup_launches=1, out=out)
            summary = res["summary"]
            diag = res["record"]["diagnostics"]
            label = f"{wl} trace={trace}"
            check(summary["correct"] and summary["failed"] == 0
                  and summary["attempted"] >= 1,
                  f"{label}: correct, {summary['attempted']} attempted, 0 failed"
                  + "".join(f"; {p}" for p in diag["problems"]))
            got = {k: v["unit"] for k, v in summary["metrics"].items()}
            check(got == want[trace], f"{label}: metric names and units")
            check(all(math.isfinite(v["value"]) for v in summary["metrics"].values()),
                  f"{label}: finite values")
            check(json.loads(out.getvalue().splitlines()[-1]) == summary,
                  f"{label}: last line is the result object")
            if trace:
                counts.append(diag["counts"])
        check(counts[0] == counts[1] and counts[0],
              f"{wl}: two traced runs with one seed give identical counts")

    # A directory with only BENCHMARK.json and the benchmark must be refused.
    bare = bench.WORK / "bare"
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "readout",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          "refuses to run without the mirrorpair sources")
    shutil.rmtree(bench.WORK, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
