"""Batch front end: configuration loading, sweeps, reports.

Configuration is a flat key = value file (SI units, '#' comments, unknown
keys rejected, a leading UTF-8 byte-order mark ignored).  Physical keys are
the PhysicalParams field names except temperature, which a sweep sets through
temperatures; sweep keys are omega_min, omega_max, omega_count,
omega_spacing, temperatures, workers, emit_components, brownian_kernel,
require_stable.  A sweep runs in one process: workers (and --workers) is
validated as an integer >= 1 but does not change how the sweep runs.

Each value is parsed by the declared type of its dataclass field; a value
that does not parse is a ConfigError "<key>: expected <kind>, got '<value>'",
and one that parses but is not allowed an InvalidParameterError.
The output directory is created only after the sweep has been solved, so a
failed sweep leaves none behind.

sweep.csv and sweep.grid hold exactly the bytes of "%.12e" per number, but
are not formatted number by number: a numpy kernel (_e12) writes the 13
digits of every value in [1e-32, 1e56) as 2-byte pieces from a digit-pair
table, exact wherever its scaled mantissa is clear of a rounding tie, and
falls back to "%.12e" % v for the rest.  Rows are fixed-width byte rows;
a row holding a value whose "%.12e" is not 18 characters (a negative, nan,
inf or a magnitude near or beyond 1e+-100) is joined from "%.12e" % v per
value instead.  Columns that do not change between temperatures
(omega, commutator_sq) are formatted once, and each file is streamed one
temperature block at a time.

Exit codes: 0 success, 2 config text or value error, 3 unstable drift
(only when require_stable is set), 4 numerical singularity, 5 unphysical
covariance, 1 any other package error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys as _sys
# The sweep starts no process; the benchmark's trace table patches this name.
from concurrent.futures import ProcessPoolExecutor  # noqa: F401
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
    workers: int = 1                    # accepted; the sweep is serial
    emit_components: bool = True
    brownian_kernel: str = "corrected"
    require_stable: bool = False

    def __post_init__(self):
        try:    # a list, tuple or 1-D array of numbers; stored as a tuple
            temps = tuple(self.temperatures)
            flat = not any(np.ndim(t) for t in temps)
        except (TypeError, ValueError):
            flat = False
        if not flat:
            raise InvalidParameterError(
                "temperatures must be a flat sequence of numbers, got "
                f"{self.temperatures!r}")
        object.__setattr__(self, "temperatures", temps)
        model.check_numbers(
            vars(self), positive=("omega_min", "omega_max"),
            nonnegative=("temperatures",), counts=("omega_count", "workers"),
        )
        object.__setattr__(self, "temperatures", tuple(map(float, temps)))
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

#: Frequencies per solve: a cache choice, since one 40000-omega solve takes
#: 0.224 s against 0.145 s in chunks of 256.
CHUNK = 256


def _eval_chunk(sys_obj, omegas):
    """The temperature-independent weights of one omega chunk."""
    return entanglement.sweep_weights(sys_obj, omegas)


def _sweep_rows(spec: SweepSpec):
    """Evaluate the sweep grid; returns (omegas, per-T dict of result arrays).

    Each omega chunk is solved once, in order; every temperature is then
    evaluated from the same weights in O(n).
    """
    sys_obj = dynamics.build_linear_system(
        spec.params, require_stable=spec.require_stable
    )
    omegas = spec.omega_grid()
    n_chunks = max(1, -(-omegas.size // CHUNK))
    weights = np.concatenate(
        [_eval_chunk(sys_obj, chunk)
         for chunk in np.array_split(omegas, n_chunks)], axis=1)
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
_FLAG_COLUMNS = ("entangled", "epr")
_FLAG_LEVELS = (("false", "false"), ("true", "false"), ("true", "true"))


#: Columns of sweep.grid, a gnuplot block file with one block per temperature.
_GRID_COLUMNS = ("omega", "temperature", "degree_clipped")

#: "%.12e" fields d.dddddddddddde±XX are 18 bytes, nine 2-byte pieces.
_E12_WIDTH = 18
_PAIRS = np.frombuffer(b"".join(b"%02d" % k for k in range(100)), np.uint16)
_LEADS = np.frombuffer(b"".join(b"%d." % k for k in range(10)), np.uint16)
_EXP_SIGNS = np.frombuffer(b"e+e-", np.uint16)
#: 10**j, exactly, for |j| <= 22.
_POW10 = np.array([float(10 ** j) for j in range(23)])
_ONE = np.frombuffer(b"%.12e" % 1.0, np.uint8)


def _scale_pow10(x, j):
    """x * 10**j, correctly rounded, for integer arrays |j| <= 22."""
    p = _POW10[np.abs(j)]
    return np.where(j >= 0, x * p, x / p)


def _e12(x):
    """The bytes of "%.12e" % v for each v of the 1-D float array x.

    Returns (fields, form): an (n, 18) uint8 array, and the mask of the v
    whose "%.12e" is 18 bytes long; the fields of the others are undefined.
    In [1e-32, 1e56) the 13 digits are rint(m) for the mantissa
    m = x * 10**(12 - e), e = floor(log10 x), scaled in two correctly rounded
    steps by exact powers of ten.  Each step errs by at most 2**-53 relative,
    so m is within 2.3e-3 of its exact value on m < 1e13; m at least 0.005
    from a rounding tie and in [1e12, 1e13 - 1) therefore rounds as the exact
    value does, which is what printf does.  Every other value is formatted
    with "%.12e" % v (Loitsch's fast path with an exact fallback).
    """
    x = np.asarray(x, dtype=float)
    fast = (x >= 1e-32) & (x < 1e56)
    x_fast = np.where(fast, x, 1.0)
    e = np.floor(np.log10(x_fast)).astype(np.intp)
    k = np.clip(12 - e, -44, 44)
    k_first = np.clip(k, -22, 22)
    m = _scale_pow10(_scale_pow10(x_fast, k_first), k - k_first)
    fast &= ((m >= 1e12) & (m < 1e13 - 1)
             & (np.abs(m - np.floor(m) - 0.5) >= 0.005))
    digits = np.rint(np.where(fast, m, 1e12)).astype(np.int64)
    pieces = np.empty((9, x.size), np.uint16)
    pieces[0] = _LEADS[digits // 10 ** 12]
    for i in range(6, 0, -1):
        pieces[i] = _PAIRS[digits % 100]
        digits //= 100
    pieces[7] = _EXP_SIGNS[(e < 0).astype(np.intp)]
    pieces[8] = _PAIRS[np.abs(e)]
    fields = np.ascontiguousarray(pieces.T).view(np.uint8)
    form = fast
    for i in np.flatnonzero(~fast):
        text = b"%.12e" % x[i]
        if len(text) == _E12_WIDTH:
            fields[i] = np.frombuffer(text, np.uint8)
            form[i] = True
    return fields, form


def _write_blocks(path, columns, omegas, results, sep, head=b"", gap=b""):
    """Write head, then the rows of every temperature of results; gap goes
    between two temperature blocks.

    A row is the "%.12e" text of each numeric column (degree_clipped is
    min(degree, 1)) joined by sep, then the flag columns (last in every
    column set) and a newline.  Rows are built as fixed-width byte rows:
    18-byte fields from _e12, then the flags and newline padded with NUL
    bytes to the widest flag level.  The padding comes after the newline, so
    it is trailing and the row's bytes-string view drops it.  A field
    repeated from the previous temperature (omega, commutator_sq) is not
    formatted again.  A row with a value whose "%.12e" is not 18 bytes (0
    is; negatives, nan, inf and magnitudes near or beyond 1e+-100 are not)
    is joined from "%.12e" % v per value instead, with the same flag tail.
    """
    numeric = [c for c in columns if c not in _FLAG_COLUMNS]
    flags = [_FLAG_COLUMNS.index(c) for c in columns if c in _FLAG_COLUMNS]
    tails = [
        "".join(sep + level[j] for j in flags).encode() + b"\n"
        for level in _FLAG_LEVELS
    ]
    start = (_E12_WIDTH + 1) * len(numeric) - 1
    width = start + max(map(len, tails))
    tail_bytes = np.frombuffer(
        b"".join(t.ljust(width - start, b"\0") for t in tails), np.uint8
    ).reshape(len(tails), -1)
    rows = np.zeros((omegas.size, width), np.uint8)
    rows[:, _E12_WIDTH:start:_E12_WIDTH + 1] = ord(sep)
    done = {}
    with open(path, "wb") as f:
        f.write(head)
        for t, (temp, res) in enumerate(results.items()):
            arrays = dict(res, omega=omegas, temperature=np.array([temp]))
            degree = res["degree"]
            ok = np.ones(omegas.size, bool)
            for j, c in enumerate(numeric):
                src = "degree" if c == "degree_clipped" else c
                x = arrays[src]
                if src not in done or not np.array_equal(done[src][0], x):
                    done[src] = (x, *_e12(x))
                _, fields, form = done[src]
                if c == "degree_clipped":
                    fields = np.where((degree >= 1.0)[:, None], _ONE, fields)
                at = j * (_E12_WIDTH + 1)
                rows[:, at:at + _E12_WIDTH] = fields
                ok &= form
            level = (degree < 1.0).astype(np.intp) + (degree < 0.25)
            rows[:, start:] = tail_bytes[level]
            lines = rows.view(f"S{width}").ravel().tolist()
            bad = np.flatnonzero(~ok)
            if bad.size:
                arrays["degree_clipped"] = np.minimum(degree, 1.0)
                values = [np.broadcast_to(arrays[c], omegas.shape)[bad]
                          for c in numeric]
                for i, *row in zip(bad, *values):
                    lines[i] = (sep.encode().join(b"%.12e" % v for v in row)
                                + tails[level[i]])
            f.write((gap if t else b"") + b"".join(lines))


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
    summary = {"temperatures": []}
    for temp, res in results.items():
        degree = res["degree"]
        imin = int(np.argmin(degree))
        summary["temperatures"].append({
            "temperature": temp,
            "min_degree": float(degree[imin]),
            "argmin_omega": float(omegas[imin]),
            "entangled_bands": _bands(omegas, degree < 1.0),
            "epr_bands": _bands(omegas, degree < 0.25),
        })

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    columns = CSV_COLUMNS if spec.emit_components else CSV_COLUMNS_BARE
    _write_blocks(out / "sweep.csv", columns, omegas, results, ",",
                  head=",".join(columns).encode() + b"\n")
    (out / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    if emit_grid:
        _write_blocks(out / "sweep.grid", _GRID_COLUMNS, omegas, results, " ",
                      gap=b"\n")
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
    parser.add_argument("--workers", type=int,
                        help="accepted (>= 1) but unused: a sweep is serial")
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
