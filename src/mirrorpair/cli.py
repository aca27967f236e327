"""Batch front end: configuration loading, parallel sweeps, reports.

Configuration is a flat key = value file (SI units, '#' comments, unknown
keys rejected, a leading UTF-8 byte-order mark ignored).  Physical keys are
the PhysicalParams field names except temperature, which a sweep sets through
temperatures; sweep keys are omega_min, omega_max, omega_count,
omega_spacing, temperatures, workers, emit_components, brownian_kernel,
require_stable.

Each value is parsed by the declared type of its dataclass field; a value
that does not parse is a ConfigError "<key>: expected <kind>, got '<value>'",
and one that parses but is not allowed an InvalidParameterError.
The output directory is created only after the sweep has been solved, so a
failed sweep leaves none behind.

Exit codes: 0 success, 2 config text or value error, 3 unstable drift
(only when require_stable is set), 4 numerical singularity, 5 unphysical
covariance, 1 any other package error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys as _sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import dynamics, entanglement, model
from .errors import (
    ConfigError, DriftUnstableError, InvalidParameterError, MirrorPairError,
    SingularityError, UnphysicalStateError,
)

CSV_COLUMNS = (
    "omega", "temperature", "var_u", "var_v", "commutator_sq",
    "degree", "degree_clipped", "entangled", "epr",
)
CSV_COLUMNS_BARE = (
    "omega", "temperature", "degree", "degree_clipped", "entangled", "epr",
)

#: A sweep takes its temperatures from the temperatures key alone.
_PARAM_KEYS = {
    f.name for f in dataclasses.fields(model.PhysicalParams)
} - {"temperature"}


def parse_config_text(text: str) -> dict:
    """Parse flat key = value lines into a string dict."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if not key or not val:
            raise ConfigError(f"line {lineno}: empty key or value")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = val
    unknown = set(values) - _PARAM_KEYS - _SWEEP_KEYS
    if unknown:
        raise ConfigError("unknown keys: %s" % ", ".join(sorted(unknown)))
    return values


_BOOLS = {"true": True, "1": True, "yes": True,
          "false": False, "0": False, "no": False}

#: Config value parsers by declared field type: (kind named in errors, parser).
_PARSERS = {
    "float": ("float", float),
    "int": ("int", int),
    "str": ("str", str),
    "bool": ("bool", lambda val: _BOOLS[val.lower()]),
    "tuple": ("comma-separated floats",
              lambda val: tuple(float(t) for t in val.split(",") if t.strip())),
}


def _parse_fields(cls, values: dict, keys) -> dict:
    """The values of cls's fields named in keys, parsed by declared type."""
    parsed = {}
    for f in dataclasses.fields(cls):
        if f.name in keys and f.name in values:
            kind, parse = _PARSERS[f.type]
            val = values[f.name]
            try:
                parsed[f.name] = parse(val)
            except (ValueError, KeyError) as exc:
                raise ConfigError(
                    f"{f.name}: expected {kind}, got {val!r}"
                ) from exc
    return parsed


@dataclass(frozen=True)
class SweepSpec:
    """Grid and execution settings for one sweep."""

    params: model.PhysicalParams
    omega_min: float
    omega_max: float
    omega_count: int
    omega_spacing: str = "linear"       # linear | log | hybrid
    temperatures: tuple = (0.1, 1.0, 4.0)
    workers: int = 1
    emit_components: bool = True
    brownian_kernel: str = "corrected"
    require_stable: bool = False

    def __post_init__(self):
        model.check_numbers(
            vars(self), positive=("omega_min", "omega_max"),
            nonnegative=("temperatures",), counts=("omega_count", "workers"),
        )
        if not self.omega_min <= self.omega_max:
            raise InvalidParameterError(
                "omega grid must be non-empty and increasing")
        if self.omega_spacing not in ("linear", "log", "hybrid"):
            raise InvalidParameterError(
                "omega_spacing must be linear, log or hybrid")
        if len(self.temperatures) == 0:
            raise InvalidParameterError("temperature list must be non-empty")
        if any(t2 <= t1 for t1, t2 in zip(self.temperatures, self.temperatures[1:])):
            raise InvalidParameterError("temperatures must be strictly increasing")
        if self.brownian_kernel not in dynamics.BROWNIAN_KERNELS:
            raise InvalidParameterError(
                "brownian_kernel must be one of "
                + ", ".join(dynamics.BROWNIAN_KERNELS)
            )

    @classmethod
    def from_config(cls, values: dict) -> "SweepSpec":
        params = model.PhysicalParams(
            **_parse_fields(model.PhysicalParams, values, _PARAM_KEYS)
        )
        kwargs = _parse_fields(cls, values, _SWEEP_KEYS)
        if kwargs.get("omega_spacing") == "hybrid":
            # The hybrid grid is fixed; record the grid actually used.
            given = [k for k in ("omega_min", "omega_max", "omega_count")
                     if k in values]
            if given:
                raise ConfigError(
                    "omega_spacing = hybrid uses a fixed grid; remove "
                    + ", ".join(given)
                )
            grid = dynamics.hybrid_grid(params.big_omega)
            kwargs.update(omega_min=float(grid[0]), omega_max=float(grid[-1]),
                          omega_count=int(grid.size))
        else:
            kwargs.setdefault("omega_min", 0.5 * params.big_omega)
            kwargs.setdefault("omega_max", 1.5 * params.big_omega)
            kwargs.setdefault("omega_count", 2001)
        return cls(params=params, **kwargs)

    def omega_grid(self) -> np.ndarray:
        if self.omega_spacing == "linear":
            return np.linspace(self.omega_min, self.omega_max, self.omega_count)
        if self.omega_spacing == "log":
            return np.geomspace(self.omega_min, self.omega_max, self.omega_count)
        return dynamics.hybrid_grid(self.params.big_omega)


#: Config keys of SweepSpec; the physical keys fill its params field.
_SWEEP_KEYS = {f.name for f in dataclasses.fields(SweepSpec)} - {"params"}

#: Frequencies per solve task.  Fixed, so that the arithmetic (and therefore
#: the output bytes) cannot depend on the worker count.
CHUNK = 256


def _eval_chunk(args):
    """One solve task: the temperature-independent weights of an omega chunk."""
    sys_obj, omegas = args
    return entanglement.sweep_weights(sys_obj, omegas)


def _sweep_rows(spec: SweepSpec):
    """Evaluate the sweep grid; returns (omegas, per-T dict of result arrays).

    Each omega chunk is solved once, serially or on the process pool; every
    temperature is then evaluated from the same weights in O(n).  Results
    are deterministic and independent of the worker count: the grid is
    chunked by index and reassembled in order.
    """
    sys_obj = dynamics.build_linear_system(
        spec.params, require_stable=spec.require_stable
    )
    omegas = spec.omega_grid()
    n_chunks = max(1, -(-omegas.size // CHUNK))
    tasks = [(sys_obj, chunk) for chunk in np.array_split(omegas, n_chunks)]
    workers = min(spec.workers, len(tasks))
    if workers == 1:
        parts = [_eval_chunk(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_eval_chunk, tasks, chunksize=1))
    weights = np.concatenate(parts, axis=1)
    results = {}
    for temp in spec.temperatures:
        noise = dynamics.NoiseModel(
            temperature=temp,
            big_gamma=spec.params.big_gamma,
            big_omega=spec.params.big_omega,
            kernel=spec.brownian_kernel,
        )
        results[temp] = entanglement.degree_from_weights(weights, noise, omegas)
    return omegas, results


def _fmt(x: float) -> str:
    return format(x, ".12e")


#: Flag columns (entangled, epr) by level (degree < 1) + (degree < 1/4).
_FLAG_LEVELS = (("false", "false"), ("true", "false"), ("true", "true"))


#: Columns of sweep.grid, a gnuplot block file with one block per temperature.
_GRID_COLUMNS = ("omega", "temperature", "degree_clipped")


def _csv_block(columns, temp, omegas, res, sep=","):
    """Rows of one temperature, formatted straight from the arrays.

    The temperature field and the two flags are baked into one %-template
    per flag level, so each row costs a single % operation.
    """
    templates = [
        sep.join({"temperature": _fmt(temp), "entangled": entangled,
                  "epr": epr}.get(c, "%.12e") for c in columns)
        for entangled, epr in _FLAG_LEVELS
    ]
    degree = res["degree"]
    arrays = dict(res, omega=omegas, degree_clipped=np.minimum(degree, 1.0))
    numeric = [arrays[c] for c in columns if c in arrays]
    level = (degree < 1.0).astype(np.intp) + (degree < 0.25)
    return [templates[k] % row for k, row in zip(level, zip(*numeric))]


def _bands(omegas, mask):
    """Contiguous omega intervals where mask holds."""
    edges = np.diff(np.concatenate(([0], np.asarray(mask, dtype=np.int8), [0])))
    starts = np.flatnonzero(edges == 1)
    stops = np.flatnonzero(edges == -1) - 1
    return [[float(omegas[a]), float(omegas[b])] for a, b in zip(starts, stops)]


def run_sweep(spec: SweepSpec, out_dir, emit_grid: bool = False) -> dict:
    """Run the sweep and write sweep.csv, summary.json and optionally
    sweep.grid (gnuplot block format).  Returns the summary dict."""
    omegas, results = _sweep_rows(spec)
    columns = CSV_COLUMNS if spec.emit_components else CSV_COLUMNS_BARE
    lines = [",".join(columns)]
    summary = {"temperatures": []}
    blocks = []
    for temp in spec.temperatures:
        res = results[temp]
        lines.extend(_csv_block(columns, temp, omegas, res))
        degree = res["degree"]
        imin = int(np.argmin(degree))
        summary["temperatures"].append({
            "temperature": temp,
            "min_degree": float(degree[imin]),
            "argmin_omega": float(omegas[imin]),
            "entangled_bands": _bands(omegas, degree < 1.0),
            "epr_bands": _bands(omegas, degree < 0.25),
        })
        if emit_grid:
            blocks.append("\n".join(
                _csv_block(_GRID_COLUMNS, temp, omegas, res, sep=" ")
            ))

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "sweep.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    (out / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    if emit_grid:
        (out / "sweep.grid").write_text(
            "\n\n".join(blocks) + "\n", encoding="utf-8"
        )
    return summary


def check_state(path, out=None) -> dict:
    """Evaluate the separability criterion on a covariance file.

    The report goes to ``out``, by default to sys.stdout as it is at call
    time, so that contextlib.redirect_stdout captures it.
    """
    if out is None:
        out = _sys.stdout
    state = entanglement.GaussianState.from_file(path)
    product, bound = entanglement.separability_product(state, 1.0)
    best_a, best_product = entanglement.optimize_separability(state)
    report = {
        "product_at_unit_a": product,
        "bound": bound,
        "optimal_a": best_a,
        "optimal_product": best_product,
        "entangled": best_product < bound,
        "epr": best_product < bound / 4.0,
    }
    print(f"product (a=1):    {_fmt(product)}", file=out)
    print(f"bound:            {_fmt(bound)}", file=out)
    print(f"optimal a:        {_fmt(best_a)}", file=out)
    print(f"optimal product:  {_fmt(best_product)}", file=out)
    print(f"entangled:        {'yes' if report['entangled'] else 'no'}", file=out)
    print(f"EPR correlations: {'yes' if report['epr'] else 'no'}", file=out)
    return report


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="mirrorpair",
        description="Radiation-pressure mirror-entanglement sweep engine",
    )
    parser.add_argument("--config", type=Path, help="key = value config file")
    parser.add_argument("--out", type=Path, default=Path("."),
                        help="output directory for sweep results")
    parser.add_argument("--workers", type=int, help="parallel worker count")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--sweep", action="store_true",
                      help="run a frequency/temperature sweep")
    mode.add_argument("--check-state", type=Path, metavar="PATH",
                      help="evaluate the separability criterion on a "
                           "covariance matrix file")
    parser.add_argument("--emit-grid", action="store_true",
                        help="also write a gnuplot-compatible grid file")
    return parser


#: Exit code by error type; any other package error exits 1.
_EXIT_CODES = (
    ((ConfigError, InvalidParameterError, OSError), 2),
    (DriftUnstableError, 3),
    (SingularityError, 4),
    (UnphysicalStateError, 5),
)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.check_state is not None:
            check_state(args.check_state)
            return 0
        values = {}
        if args.config is not None:
            try:
                text = args.config.read_text(encoding="utf-8-sig")
            except UnicodeDecodeError as exc:
                raise ConfigError(
                    f"{args.config}: not UTF-8 text: {exc}") from exc
            values = parse_config_text(text)
        spec = SweepSpec.from_config(values)
        if args.workers is not None:
            spec = dataclasses.replace(spec, workers=args.workers)
        run_sweep(spec, args.out, emit_grid=args.emit_grid)
        return 0
    except (MirrorPairError, OSError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return next((code for kinds, code in _EXIT_CODES
                     if isinstance(exc, kinds)), 1)


if __name__ == "__main__":
    raise SystemExit(main())
