"""Smoke runs of the benchmark workloads and their gates.

Keeps perfbench/ importable and its gates green against the package at a
twentieth (separability) and a hundredth (readout, both sweeps) of the
benchmark's problem size; timings are not checked.  The sweep gate reads
sweep.csv and summary.json, so a change to those files that the benchmark
would reject fails here.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("mpmath")

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_separability_workload_passes_its_gate(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    import gate
    import workloads

    spec = workloads.make_spec("separability", seed=7, scale=0.05)
    work = workloads.Workload(spec, tmp_path)
    work.run_pass()
    problems, _ = gate.check_separability(workloads.make_states(spec),
                                          work.outputs)
    assert problems == []


def test_readout_workload_passes_its_gate(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    import gate
    import workloads

    spec = workloads.make_spec("readout", seed=7, scale=0.01)
    work = workloads.Workload(spec, tmp_path)
    work.run_pass()
    problems, _ = gate.check_readout(work.outputs)
    assert problems == []


@pytest.mark.parametrize("workload", ["sweep-fig2", "sweep-thermal"])
def test_sweep_workload_passes_its_gate(tmp_path, monkeypatch, workload):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    import gate
    import workloads

    spec = workloads.make_spec(workload, seed=7, scale=0.01)
    work = workloads.Workload(spec, tmp_path)
    work.run_pass()
    rng = np.random.default_rng([spec["seed"], 99])
    problems, _ = gate.check_sweep(spec, work.out_dir, rng)
    assert problems == []


def test_every_traced_name_exists(monkeypatch):
    # The benchmark's tracer patches package attributes by name; a refactor
    # that drops one of them must fail here, not in a traced benchmark run.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    import tracing
    from mirrorpair import cli, readout

    solve = readout.selected_transfer_rows
    before = [(owner, attr, owner.__dict__[attr])
              for owner, attr, _ in tracing._patch_table()]
    try:
        tracing.install()
        assert readout.selected_transfer_rows is not solve
    finally:
        tracing.uninstall()
    assert readout.selected_transfer_rows is solve
    # Every patched attribute is put back as the very object it was; the
    # CLI's process pool name is bound to None.
    for owner, attr, original in before:
        assert owner.__dict__[attr] is original, (owner, attr)
    assert cli.ProcessPoolExecutor is None
