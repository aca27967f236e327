"""Compare two sets of benchmark records, as a performance change requires.

Usage: python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds records written by run.py (perfbench/_work/results/
after a set of runs).  For every workload and end-to-end metric it prints
the medians and quartiles of both sides and a verdict against the metric's
bound in BENCHMARK.json:

- regression: the new median is worse than the base median by more than
  the bound;
- unresolved: the base's own spread (quartile distance over median) is wider
  than the bound, and not every new run beats every base run;
- ok otherwise.

Per-layer medians are listed side by side.  For seeds run on both sides it
says whether the output fingerprints are byte-identical and whether the
traced work counts are identical.

Refuses (exit 2) when the records' environment manifests differ in any
field other than the code identity (git_revision, src_sha256), or when
their run length or problem size differ.  Exits 1 if
any metric regressed, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

CODE_FIELDS = {"git_revision", "src_sha256"}
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(directory):
    return [json.loads(p.read_text(encoding="utf-8"))
            for p in sorted(Path(directory).glob("*.json"))]


def environment(record):
    """Manifest fields that must match, plus the run length and size."""
    env = {k: v for k, v in record["manifest"].items() if k not in CODE_FIELDS}
    env.update(seconds=record["seconds"], scale=record["scale"])
    return env


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def values_of(records, workload, trace, metric):
    return [r["metrics"][metric]["value"] for r in records
            if r["workload"] == workload and r["trace"] == trace
            and metric in r["metrics"]]


def verdict(base, new, better, bound):
    b1, bm, b3 = quartiles(base)
    _, nm, _ = quartiles(new)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (nm - bm) / bm if bm else 0.0
    if worse_by > bound:
        return worse_by, "regression"
    spread = (b3 - b1) / bm if bm else 0.0
    wins = all(sign * (n - b) < 0 for n in new for b in base)
    if spread > bound and not wins:
        return worse_by, "unresolved"
    return worse_by, "ok"


def main(argv):
    if len(argv) != 2:
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    if not base or not new:
        print("error: no records found", file=sys.stderr)
        return 2
    envs = {json.dumps(environment(r), sort_keys=True) for r in base + new}
    if len(envs) > 1:
        print("error: records come from different environments; refusing:",
              file=sys.stderr)
        for env in sorted(envs):
            print("  " + env, file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    regressed = False
    workloads = [w["name"] for w in spec["workloads"]]
    for wl in workloads:
        print(f"== {wl}")
        for m in spec["end_to_end"]:
            b = values_of(base, wl, 0, m["name"])
            n = values_of(new, wl, 0, m["name"])
            if not b or not n:
                print(f"  {m['name']:<28} missing runs")
                continue
            worse_by, v = verdict(b, n, m["better"], m["bound"])
            regressed |= v == "regression"
            bq, nq = quartiles(b), quartiles(n)
            print(f"  {m['name']:<28} base {bq[1]:.6g} [{bq[0]:.6g}, {bq[2]:.6g}] "
                  f"n={len(b)}  new {nq[1]:.6g} [{nq[0]:.6g}, {nq[2]:.6g}] "
                  f"n={len(n)}  worse by {worse_by:+.3f} (bound {m['bound']}) {v}")
        for m in spec["per_layer"]:
            b = values_of(base, wl, 1, m["name"])
            n = values_of(new, wl, 1, m["name"])
            if b and n and (any(b) or any(n)):
                print(f"  {m['name']:<52} {statistics.median(b):>12.6g} -> "
                      f"{statistics.median(n):>12.6g} {m['unit']}")
        for trace, key, label in ((0, "fingerprint", "outputs"),
                                  (1, "counts", "work counts")):
            old = {r["seed"]: r["diagnostics"][key] for r in base
                   if r["workload"] == wl and r["trace"] == trace}
            cur = {r["seed"]: r["diagnostics"][key] for r in new
                   if r["workload"] == wl and r["trace"] == trace}
            seeds = sorted(set(old) & set(cur))
            if seeds:
                same = [s for s in seeds if old[s] == cur[s]]
                print(f"  {label}: identical on {len(same)} of {len(seeds)} "
                      f"common seeds")
    return 1 if regressed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
