"""The four benchmark workloads: seeded inputs and one pass of each.

Every workload has a fixed problem size.  The seed jitters grid endpoints
and temperatures by about 1% and draws the sampled states, so each seed
gives the program fresh inputs for the same amount of work.  Sizes are set
so that one pass takes about a second on a 2-core machine: a run then holds
some twenty passes, and their median is steady on a shared machine.

- sweep-fig2: the paper's Fig. 2 map as users run it, `mirrorpair --sweep`
  on a linear grid over 0.5-1.5 Omega x 3 temperatures with one worker.
  Solves and the per-row CSV formatter dominate.
- sweep-thermal: the same CLI on a log grid (1e-2 to 1e2 Omega) x 40
  temperatures with two workers.  The same omegas are solved again at every
  temperature, and it is the only workload on the process pool.  An explicit
  log grid is used because the hybrid spacing ignores omega_count.
- readout: both homodyne assemblies and the two-channel spectra around
  Omega.  Single-selector solves, no CSV, no temperature loop.
- separability: product criterion and its optimum on sampled separable and
  two-mode squeezed states.  Never touches dynamics or the CLI, so it is the
  control for every sweep change.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from mirrorpair import cli, dynamics, entanglement, model, readout
from mirrorpair.oracle import sample_separable_covariances, tmsv_state

WORKLOADS = ("sweep-fig2", "sweep-thermal", "readout", "separability")

#: Kinds of state in the separability workload.
SEPARABLE, TMSV_EQUAL, TMSV_UNEQUAL = 0, 1, 2


def _jitter(rng, value):
    return float(value * (1.0 + 0.01 * rng.uniform(-1.0, 1.0)))


def make_spec(workload, seed, scale=1.0):
    """JSON-able description of one workload's inputs for this seed.

    `scale` shrinks the problem size (the self-test uses it); the benchmark
    itself always runs at scale 1.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    big_omega = model.PhysicalParams().big_omega
    spec = {"workload": workload, "seed": seed, "scale": scale}
    if workload == "sweep-fig2":
        count = max(8, int(10_000 * scale))
        temps = [_jitter(rng, t) for t in (0.1, 1.0, 4.0)]
        spec.update(
            spacing="linear", workers=1, count=count, temperatures=temps,
            omega_min=_jitter(rng, 0.5 * big_omega),
            omega_max=_jitter(rng, 1.5 * big_omega),
        )
    elif workload == "sweep-thermal":
        count = max(8, int(1_000 * scale))
        n_temps = max(2, int(round(40 * min(1.0, 10 * scale))))
        temps = [_jitter(rng, t) for t in np.geomspace(0.01, 300.0, n_temps)]
        spec.update(
            spacing="log", workers=2, count=count, temperatures=temps,
            omega_min=_jitter(rng, 1e-2 * big_omega),
            omega_max=_jitter(rng, 1e2 * big_omega),
        )
    elif workload == "readout":
        spec.update(
            count=max(8, int(8_000 * scale)),
            temperature=_jitter(rng, 1.0),
            omega_min=_jitter(rng, 0.5 * big_omega),
            omega_max=_jitter(rng, 1.5 * big_omega),
        )
    else:
        spec.update(count=max(8, int(400 * scale)), sample_seed=int(seed))
    if workload.startswith("sweep"):
        spec["work"] = spec["count"] * len(spec["temperatures"])
    else:
        spec["work"] = spec["count"]
    return spec


def config_text(spec):
    """The flat key = value config a user would write for a sweep spec."""
    temps = ", ".join(repr(t) for t in spec["temperatures"])
    return (
        f"omega_min = {spec['omega_min']!r}\n"
        f"omega_max = {spec['omega_max']!r}\n"
        f"omega_count = {spec['count']}\n"
        f"omega_spacing = {spec['spacing']}\n"
        f"temperatures = {temps}\n"
    )


def omega_grid(spec):
    """The grid the spec asks for: linear or log between its endpoints."""
    if spec.get("spacing") == "log":
        return np.geomspace(spec["omega_min"], spec["omega_max"], spec["count"])
    return np.linspace(spec["omega_min"], spec["omega_max"], spec["count"])


def make_states(spec):
    """Covariances, means, kinds and squeezing r of the separability states.

    Half are sampled separable states; the other half are two-mode squeezed
    vacua with random r and local scalings, half of those with equal
    scalings (optimum e^{-4r} at a = 1) and half with unequal ones.
    """
    n = spec["count"]
    n_sep = n // 2
    n_tmsv = n - n_sep
    covs, means = sample_separable_covariances(spec["sample_seed"], n_sep)
    rng = np.random.default_rng([spec["sample_seed"], 1])
    r = rng.uniform(0.05, 1.5, size=n_tmsv)
    scal = np.exp(rng.uniform(-0.7, 0.7, size=(n_tmsv, 2)))
    kinds = np.where(np.arange(n_tmsv) % 2 == 0, TMSV_EQUAL, TMSV_UNEQUAL)
    scal[kinds == TMSV_EQUAL, 1] = scal[kinds == TMSV_EQUAL, 0]
    tmsv = np.stack([tmsv_state(ri, tuple(si)).cov for ri, si in zip(r, scal)])
    return {
        "covs": np.concatenate([covs, tmsv]),
        "means": np.concatenate([means, np.zeros((n_tmsv, 4))]),
        "kinds": np.concatenate([np.full(n_sep, SEPARABLE), kinds]),
        "r": np.concatenate([np.zeros(n_sep), r]),
    }


class Workload:
    """Prepared inputs of one workload and its pass function.

    `run_pass()` is the timed unit of work.  Outside the timed region,
    `fingerprint()` hashes what the pass produced and `save()` leaves it in
    the work directory for the gate.
    """

    def __init__(self, spec, work_dir):
        self.spec = spec
        self.work_dir = Path(work_dir)
        self.work_dir.mkdir(parents=True, exist_ok=True)
        self.name = spec["workload"]
        self.outputs = None
        if self.name.startswith("sweep"):
            self.config = self.work_dir / "sweep.cfg"
            self.config.write_text(config_text(spec), encoding="utf-8")
            self.out_dir = self.work_dir / "out"
        elif self.name == "readout":
            self.omegas = omega_grid(spec)
            self.params = model.PhysicalParams(temperature=spec["temperature"])
        else:
            self.states = make_states(spec)

    def run_pass(self):
        if self.name.startswith("sweep"):
            return self._sweep()
        if self.name == "readout":
            return self._readout()
        return self._separability()

    def _sweep(self):
        argv = ["--sweep", "--config", str(self.config), "--out",
                str(self.out_dir), "--workers", str(self.spec["workers"])]
        code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"mirrorpair {' '.join(argv)} exited {code}")

    def _readout(self):
        lin = dynamics.build_linear_system(self.params)
        noise = dynamics.NoiseModel.from_params(self.params)
        w = self.omegas
        spectra = readout.two_channel_spectra(lin, noise, w)
        self.outputs = {
            "s11": spectra.s11, "s22": spectra.s22, "s12": spectra.s12,
            "direct1": readout.output_spectrum(lin, noise, w, 1),
            "direct2": readout.output_spectrum(lin, noise, w, 2),
            "transfer1": readout.output_spectrum_via_transfer(lin, noise, w, 1),
            "transfer2": readout.output_spectrum_via_transfer(lin, noise, w, 2),
            "sum": readout.combine_currents(spectra, "sum"),
            "difference": readout.combine_currents(spectra, "difference"),
        }

    def _separability(self):
        st = self.states
        n = st["kinds"].size
        at_unit = np.empty(n)
        best_a = np.empty(n)
        best = np.empty(n)
        for i in range(n):
            state = entanglement.GaussianState(cov=st["covs"][i],
                                               mean=st["means"][i])
            at_unit[i], _ = entanglement.separability_product(state, 1.0)
            best_a[i], best[i] = entanglement.optimize_separability(state)
        self.outputs = {"at_unit": at_unit, "best_a": best_a, "best": best}

    def fingerprint(self):
        """sha256 of what the last pass produced (files or arrays)."""
        if self.name.startswith("sweep"):
            return {f: hashlib.sha256((self.out_dir / f).read_bytes()).hexdigest()
                    for f in ("sweep.csv", "summary.json")}
        h = hashlib.sha256()
        for key in sorted(self.outputs):
            h.update(key.encode())
            h.update(np.ascontiguousarray(self.outputs[key]).tobytes())
        return {"arrays": h.hexdigest()}

    def save(self):
        """Write the last pass's arrays for the gate (sweeps leave files)."""
        if self.outputs is not None:
            np.savez(self.work_dir / "outputs.npz", **self.outputs)


def write_spec(spec, path):
    Path(path).write_text(json.dumps(spec, indent=1), encoding="utf-8")
