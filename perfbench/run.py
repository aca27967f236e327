"""mirrorpair benchmark: one workload, one seed, one run.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: sweep-fig2, sweep-thermal, readout, separability (see
workloads.py for what each exercises and why).  The run

1. builds the workload's inputs from the seed;
2. with --trace 0, times five fresh-interpreter set-ups (setup_s);
3. runs the workload's passes for S seconds in a fresh measurement process
   (worker.py); with --trace 1 traced and untraced passes alternate.  A
   fixed reference probe runs before and after every pass, and each pass
   time is scaled to nominal host speed by the probes around it
   (reference.py) before `throughput` takes their median; the unscaled
   figure is kept as the diagnostic `throughput_raw`;
4. checks the outputs (gate.py), outside the timed region;
5. prints every metric by name with its unit, plus diagnostics, and as the
   last line one JSON object {correct, attempted, failed, metrics}.

With --trace 0 the metrics are the end-to-end ones (throughput, setup_s,
peak_rss_mb); with --trace 1 the per-layer ones.  The full record, with the
environment manifest and output fingerprints, goes to
perfbench/_work/results/; compare two sets of records with compare.py.

BLAS and OpenMP thread counts are pinned to 1 for every process started.
Exits 2 without a result when the mirrorpair sources are not beside it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

SETUP_LAUNCHES = 5
#: A run must finish within 180 s; the measurement process gets this long.
WORKER_TIMEOUT = 140.0

END_TO_END = {"throughput": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "dynamics.selected_transfer_rows.s": "s",
    "dynamics.selected_transfer_rows.calls": "count",
    "dynamics.selected_transfer_rows.rhs": "count",
    "dynamics.selected_transfer_rows.unique_rhs_frac": "ratio",
    "dynamics.input_spectrum.s": "s",
    "dynamics.input_spectrum.bytes": "bytes",
    "dynamics.commutator_spectrum.s": "s",
    "dynamics.commutator_spectrum.bytes": "bytes",
    "dynamics.build_linear_system.s": "s",
    "model.steady_state.calls": "count",
    "entanglement.degree_sweep.self_s": "s",
    "entanglement.degree_sweep.calls": "count",
    "entanglement.degree_sweep.p50_ms": "ms",
    "entanglement.degree_sweep.p99_ms": "ms",
    "cli.run_sweep.self_s": "s",
    "cli.write_text.s": "s",
    "cli.write_text.bytes": "bytes",
    "cli.tasks": "count",
    "cli.pool.task_bytes": "bytes",
    "readout.two_channel_spectra.self_s": "s",
    "readout.output_spectrum.self_s": "s",
    "readout.output_spectrum_via_transfer.self_s": "s",
    "entanglement.optimize_separability.s": "s",
    "entanglement.separability_products.evals_per_state": "count",
    "trace.overhead_frac": "ratio",
}


def _git_revision():
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.split()
    except (OSError, subprocess.SubprocessError):
        return None
    if len(out) == 2 and Path(out[0]).resolve() == ROOT:
        return out[1]
    return None


def _src_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "mirrorpair").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def manifest():
    """Where and on what the numbers were taken.

    compare.py refuses to compare records whose manifests differ in any
    field except `git_revision` and `src_sha256`, which identify the code
    under test.
    """
    import mpmath
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_revision": _git_revision(),
        "src_sha256": _src_digest(),
    }


def _kill_group(pgid):
    """Kill whatever is left of a process group we started."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def _run_child(argv, timeout):
    """Run a Python child in its own process group; returns (code, seconds).

    The wait blocks rather than polls (Popen.wait with a timeout polls at
    up to 50 ms, which would quantize set-up times); a timer kills the
    group if the child overruns, and the code is then None.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT,
                            start_new_session=True)
    timer = threading.Timer(timeout, _kill_group, (proc.pid,))
    timer.start()
    try:
        code = proc.wait()
        dt = time.perf_counter() - t0
        timed_out = not timer.is_alive()
    finally:            # also when SIGTERM ends the benchmark mid-run
        timer.cancel()
        timer.join()
        _kill_group(proc.pid)
        proc.wait()
    return (None if timed_out else code), dt


def measure_setup(config, launches):
    """Wall times of fresh-interpreter set-ups; failures are None."""
    times = []
    for _ in range(launches):
        code, dt = _run_child([str(HERE / "setup_probe.py"), str(config)], 60)
        times.append(dt if code == 0 else None)
    return times


def _median(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(traced, spec):
    """Per-layer metrics from the traced passes' totals.

    Times are medians over traced passes; counts are exact and taken from
    the first traced pass (the caller checks they repeat).  Under the
    sweep-thermal pool, layer times are busy time summed over workers.
    """
    def per_pass(fn):
        return _median([fn(t) for t in traced])

    def total(name, key="total_s"):
        return lambda t: t["layers"].get(name, {}).get(key, 0)

    counts = traced[0]["counts"] if traced else {}
    first = traced[0]["layers"] if traced else {}
    rhs = counts.get("dynamics.selected_transfer_rows.rhs", 0)
    unique = counts.get("dynamics.selected_transfer_rows.unique_rhs", 0)
    durations = sorted(d for t in traced for d in
                       t["layers"].get("entanglement.degree_sweep", {})
                       .get("durations", []))

    def pct(q):
        if not durations:
            return 0.0
        return 1e3 * durations[min(len(durations) - 1, int(q * len(durations)))]

    def calls(name):
        return first.get(name, {}).get("calls", 0)

    return {
        "dynamics.selected_transfer_rows.s": per_pass(total("dynamics.selected_transfer_rows")),
        "dynamics.selected_transfer_rows.calls": calls("dynamics.selected_transfer_rows"),
        "dynamics.selected_transfer_rows.rhs": rhs,
        "dynamics.selected_transfer_rows.unique_rhs_frac": unique / rhs if rhs else 0.0,
        "dynamics.input_spectrum.s": per_pass(total("dynamics.input_spectrum")),
        "dynamics.input_spectrum.bytes": counts.get("dynamics.input_spectrum.bytes", 0),
        "dynamics.commutator_spectrum.s": per_pass(total("dynamics.commutator_spectrum")),
        "dynamics.commutator_spectrum.bytes": counts.get("dynamics.commutator_spectrum.bytes", 0),
        "dynamics.build_linear_system.s": per_pass(total("dynamics.build_linear_system")),
        "model.steady_state.calls": calls("model.steady_state"),
        "entanglement.degree_sweep.self_s": per_pass(total("entanglement.degree_sweep", "self_s")),
        "entanglement.degree_sweep.calls": calls("entanglement.degree_sweep"),
        "entanglement.degree_sweep.p50_ms": pct(0.50),
        "entanglement.degree_sweep.p99_ms": pct(0.99),
        "cli.run_sweep.self_s": per_pass(total("cli.run_sweep", "self_s")),
        "cli.write_text.s": per_pass(total("cli.write_text")),
        "cli.write_text.bytes": counts.get("cli.write_text.bytes", 0),
        "cli.tasks": counts.get("cli.tasks", 0),
        "cli.pool.task_bytes": counts.get("cli.pool.task_bytes", 0),
        "readout.two_channel_spectra.self_s": per_pass(total("readout.two_channel_spectra", "self_s")),
        "readout.output_spectrum.self_s": per_pass(total("readout.output_spectrum", "self_s")),
        "readout.output_spectrum_via_transfer.self_s": per_pass(total("readout.output_spectrum_via_transfer", "self_s")),
        "entanglement.optimize_separability.s": per_pass(total("entanglement.optimize_separability")),
        "entanglement.separability_products.evals_per_state":
            counts.get("entanglement.separability_products.evals", 0) / spec["count"],
    }


def exact_counts(traced):
    """The counts of each traced pass, with span call counts, for repeat checks."""
    return [
        {**t["counts"], **{f"{k}.calls": v["calls"] for k, v in t["layers"].items()}}
        for t in traced
    ]


def check_outputs(spec, run_dir):
    """Run the correctness gate on what the last pass left in run_dir."""
    import numpy as np

    import gate
    import workloads

    rng = np.random.default_rng([spec["seed"], 99])
    try:
        if spec["workload"].startswith("sweep"):
            return gate.check_sweep(spec, run_dir / "out", rng)
        outputs = dict(np.load(run_dir / "outputs.npz"))
        if spec["workload"] == "readout":
            return gate.check_readout(outputs)
        return gate.check_separability(workloads.make_states(spec), outputs)
    except (OSError, KeyError, ValueError) as exc:
        return [f"outputs unreadable: {exc!r}"], None


def run(workload, seed, seconds, trace, scale=1.0, setup_launches=SETUP_LAUNCHES,
        out=sys.stdout):
    """One benchmark run; prints the report and returns the result dict."""
    if not (SRC / "mirrorpair" / "__init__.py").is_file():
        raise FileNotFoundError(f"mirrorpair sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import mirrorpair
    import reference
    import workloads

    if not Path(mirrorpair.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"mirrorpair imported from {mirrorpair.__file__}")

    spec = workloads.make_spec(workload, seed, scale)
    run_dir = WORK / workload
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    workloads.write_spec(spec, run_dir / "spec.json")

    setup = []
    if not trace:
        probe = workloads.make_spec("sweep-fig2", seed, scale)
        config = run_dir / "setup.cfg"
        config.write_text(workloads.config_text(probe), encoding="utf-8")
        setup = measure_setup(config, setup_launches)

    result_path = run_dir / "worker.json"
    code, _ = _run_child(
        [str(HERE / "worker.py"), str(run_dir / "spec.json"), str(run_dir),
         repr(float(seconds)), str(int(trace)), str(result_path)],
        WORKER_TIMEOUT,
    )
    problems = []
    if code == 0 and result_path.is_file():
        res = json.loads(result_path.read_text(encoding="utf-8"))
    else:
        res = {"passes": [], "probes": [], "errors": [], "peak_rss_mb": 0.0,
               "traced": []}
        problems.append(f"measurement process exited with {code}")
    passes = res["passes"]
    problems.extend(e.strip().splitlines()[-1] for e in res["errors"])

    # Gate the last pass's output; every pass must have produced the same.
    found, max_err = [], None
    ok_passes = [p for p in passes if p["ok"]]
    fingerprint = ok_passes[-1]["fingerprint"] if ok_passes else None
    if ok_passes:
        found, max_err = check_outputs(spec, run_dir)
        problems.extend(found)
    good = 0 if found else sum(p["fingerprint"] == fingerprint for p in ok_passes)
    if good < len(ok_passes) and not problems:
        problems.append("passes produced different outputs")

    counts = exact_counts(res["traced"])
    if any(c != counts[0] for c in counts):
        problems.append("traced passes gave different work counts")
    if any(t["violations"] for t in res["traced"]):
        problems.append("a span's children outlast it")

    setup_ok = [t for t in setup if t is not None]
    attempted = len(passes) + len(setup)
    failed = len(passes) - good + len(setup) - len(setup_ok)
    if attempted == 0:
        attempted = failed = 1

    untraced = [p["seconds"] for p in passes if p["ok"] and not p["traced"]]
    hosts = reference.host_factors(workload, res["probes"])
    scaled = [p["seconds"] / h for p, h in zip(passes, hosts)
              if p["ok"] and not p["traced"]]
    traced_s = [p["seconds"] for p in passes if p["ok"] and p["traced"]]
    if trace:
        values = layer_metrics(res["traced"], spec)
        values["trace.overhead_frac"] = (
            _median(traced_s) / _median(untraced) - 1.0
            if traced_s and untraced else 0.0)
        units = PER_LAYER
    else:
        values = {
            "throughput": spec["work"] / _median(scaled) if scaled else 0.0,
            "setup_s": _median(setup_ok),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        units = END_TO_END
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    diagnostics = {
        "fail_frac": failed / attempted,
        "check.max_rel_err": max_err,
        "fingerprint": fingerprint,
        "work": spec["work"],
        "throughput_raw": spec["work"] / _median(untraced) if untraced else 0.0,
        "host_factor": hosts,
        "probe_seconds": res["probes"],
        "pass_seconds": [p["seconds"] for p in passes],
        "pass_traced": [p["traced"] for p in passes],
        "setup_launch_seconds": setup,
        "counts": counts[0] if counts else {},
        "problems": problems,
    }
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "scale": scale, "manifest": manifest(), "metrics": metrics,
        "diagnostics": diagnostics,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")

    for name, m in metrics.items():
        kind = " (computed count)" if m["unit"] in ("count", "bytes") else ""
        print(f"{name:<52} {m['value']:>16.6g} {m['unit']}{kind}", file=out)
    print(f"{'fail_frac':<52} {diagnostics['fail_frac']:>16.6g} ratio "
          f"({failed}/{attempted})", file=out)
    if max_err is not None:
        print(f"{'check.max_rel_err':<52} {max_err:>16.3g} ratio", file=out)
    for key, digest in (fingerprint or {}).items():
        print(f"sha256 {key:<45} {digest}", file=out)
    print("manifest " + json.dumps(record["manifest"], sort_keys=True), file=out)
    for p in problems:
        print(f"problem: {p}", file=out)
    summary = {"correct": not problems and failed == 0, "attempted": attempted,
               "failed": failed, "metrics": metrics}
    print(json.dumps(summary), file=out)
    return {"summary": summary, "record": record}


def _terminate(signum, _frame):
    raise SystemExit(128 + signum)


def main(argv=None):
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        run(args.workload, args.seed, args.seconds, args.trace)
    except (FileNotFoundError, ImportError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
