"""Measurement process: runs one workload's passes for a fixed time.

Usage: python3 worker.py SPEC_JSON WORK_DIR SECONDS TRACE RESULT_JSON

Runs in a fresh interpreter so that peak memory belongs to the workload.
With TRACE 0 every pass is untraced.  With TRACE 1 untraced and traced
passes alternate; the traced ones give the per-layer numbers and their
ratio to the untraced ones the tracing overhead.  The workload's reference
probe (reference.py) runs before and after every pass.  Spans are kept in
memory and written to WORK_DIR/spans.jsonl at exit.  The result JSON holds
pass and probe times, outputs fingerprints, failures, peak memory and the
traced totals.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 3          # untraced passes in a plain run
MIN_TRACED = 2          # of each kind in a traced run


def layer_totals(tracer):
    """Per-layer numbers of one traced pass (times in s, counts exact)."""
    local = tracer.totals()
    merged = {}
    for totals in [local] + tracer.remote:
        for name, t in totals.items():
            m = merged.setdefault(name, {"calls": 0, "total_s": 0.0,
                                         "self_s": 0.0, "durations": []})
            m["calls"] += t["calls"]
            m["total_s"] += t["total_s"]
            m["self_s"] += t["self_s"]
            m["durations"].extend(t["durations"])
    unique = sum(np.unique(np.concatenate(v)).size for v in tracer.rhs.values())
    counts = dict(tracer.counts)
    counts["dynamics.selected_transfer_rows.unique_rhs"] = int(unique)
    return {"layers": merged, "counts": counts,
            "violations": tracer.violations}


def main(argv):
    spec_path, work_dir, seconds, trace, result_path = argv
    seconds, trace = float(seconds), int(trace)
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    load = workloads.Workload(spec, work_dir)

    passes = []          # {"traced", "seconds", "ok", "fingerprint"}
    traced_totals = []
    errors = []
    spans = []
    # Memory is read before the probe's helper process is reaped, so that
    # only the workload's processes count towards it.
    with reference.prober(spec["workload"]) as probe:
        probe()                             # warm-up, not kept
        probes = [probe()]                  # and one after each pass
        start = time.perf_counter()
        longest = 0.0
        while True:
            n_plain = sum(not p["traced"] for p in passes)
            n_traced = len(passes) - n_plain
            if trace:
                done = min(n_plain, n_traced) >= MIN_TRACED
            else:
                done = n_plain >= MIN_PASSES
            if done and time.perf_counter() - start + longest > seconds:
                break
            use_trace = bool(trace) and n_traced < n_plain
            t0 = time.perf_counter()
            try:
                if use_trace:
                    _, tracer = tracing.traced(load.run_pass, run_id=len(passes))
                else:
                    load.run_pass()
                dt = time.perf_counter() - t0
                ok = True
            except Exception:       # a failed pass is counted, not fatal
                dt = time.perf_counter() - t0
                ok = False
                errors.append(traceback.format_exc())
            probes.append(probe())
            longest = max(longest, dt)
            record = {"traced": use_trace, "seconds": dt, "ok": ok,
                      "fingerprint": load.fingerprint() if ok else None}
            passes.append(record)
            if use_trace and ok:
                traced_totals.append(layer_totals(tracer))
                spans.extend(tracer.spans)
            if not ok and len(errors) >= 3:
                break

        if any(p["ok"] for p in passes):
            load.save()
        self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    with open(Path(work_dir) / "spans.jsonl", "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps(dict(zip(
                ("id", "name", "start", "end", "parent", "run_id", "self_s"), s)
            )) + "\n")
    result = {
        "passes": passes,
        "probes": probes,
        "errors": errors,
        "peak_rss_mb": (self_kb + child_kb) / 1024.0,
        "traced": traced_totals,
    }
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
