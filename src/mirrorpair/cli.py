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

Temperature is an array axis of one computation, not a loop: the grid is
solved once, and the sweep is one dict of columns broadcastable to (T, n)
(_sweep_rows), each row of a (T, n) column with the bits of a sweep at that
temperature alone.  The bands and the argmin of every temperature come from
one scan of degree (_bands), and the writers slice the 2-D columns.

sweep.csv and sweep.grid hold exactly the bytes of "%.12e" per number, but
are not formatted number by number: a numpy kernel (_e12) splits the 13
digits of every value in [1e-32, 1e56) into a lead digit and three 4-digit
groups, looks each group up in a 10**4-entry table and writes the text as
one packed 18-byte record.  Each value's mantissa is scaled by exact powers
of ten in one rounding step, or in two where that value's |12 - e| > 22,
whatever the other values of its column; the kernel is exact wherever the
value's scaled mantissa is clear of a rounding tie by its own step's margin
(0.001 after one step, 0.005 after two) and falls back to "%.12e" % v for
the rest.
_write_blocks formats each column once per group of temperature blocks, in
its own shape (_e12), and writes every row of a group from one buffer.
The files are overwritten in place and cut only if they were longer, so an
interrupted write leaves new rows over old ones rather than a short file;
only the exit code tells that a file is complete.

Exit codes: 0 success, 2 config text or value error, 3 unstable drift
(only when require_stable is set), 4 numerical singularity, 5 unphysical
covariance, 1 any other package error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys as _sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import dynamics, entanglement, model
from .errors import (
    ConfigError, DriftUnstableError, InvalidParameterError, MirrorPairError,
    SingularityError, UnphysicalStateError,
)

# The sweep starts no process; the benchmark's trace table patches this name.
ProcessPoolExecutor = None

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
              lambda val: tuple(map(float, val.split(",")))),
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


#: Most rows (omega_count x temperatures) of one sweep: ~145 MB of sweep.csv.
MAX_SWEEP_ROWS = 10 ** 6


def _hybrid_fields(big_omega):
    """omega_min, omega_max and omega_count of the fixed hybrid grid."""
    grid = dynamics.hybrid_grid(big_omega)
    return {"omega_min": float(grid[0]), "omega_max": float(grid[-1]),
            "omega_count": grid.size}


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
        rows = self.omega_count * len(self.temperatures)
        if rows > MAX_SWEEP_ROWS:
            raise InvalidParameterError(
                f"omega_count x temperatures is {rows} rows, more than the "
                f"{MAX_SWEEP_ROWS} a sweep may write")
        if any(t2 <= t1 for t1, t2 in zip(self.temperatures, self.temperatures[1:])):
            raise InvalidParameterError("temperatures must be strictly increasing")
        if self.brownian_kernel not in dynamics.BROWNIAN_KERNELS:
            raise InvalidParameterError(
                "brownian_kernel must be one of "
                + ", ".join(dynamics.BROWNIAN_KERNELS)
            )
        if self.omega_spacing == "hybrid":
            fixed = _hybrid_fields(self.params.big_omega)
            if any(getattr(self, k) != v for k, v in fixed.items()):
                raise InvalidParameterError(
                    f"omega_spacing = hybrid uses a fixed grid: {fixed}")

    @classmethod
    def from_config(cls, values: dict) -> "SweepSpec":
        params = model.PhysicalParams(
            **_parse_fields(model.PhysicalParams, values, _PARAM_KEYS)
        )
        kwargs = _parse_fields(cls, values, _SWEEP_KEYS)
        om = params.big_omega
        if kwargs.get("omega_spacing") == "hybrid":
            grid = _hybrid_fields(om)
        else:
            grid = {"omega_min": 0.5 * om, "omega_max": 1.5 * om,
                    "omega_count": 2001}
        return cls(params=params, **{**grid, **kwargs})

    def omega_grid(self) -> np.ndarray:
        if self.omega_spacing == "linear":
            return np.linspace(self.omega_min, self.omega_max, self.omega_count)
        if self.omega_spacing == "log":
            return np.geomspace(self.omega_min, self.omega_max, self.omega_count)
        return dynamics.hybrid_grid(self.params.big_omega)


#: Config keys of SweepSpec; the physical keys fill its params field.
_SWEEP_KEYS = {f.name for f in dataclasses.fields(SweepSpec)} - {"params"}


def _eval_chunk(sys_obj, omegas):
    """The six temperature-free planes of the whole grid, checked once, one
    call per sweep (entanglement._planes)."""
    return entanglement._planes(sys_obj, dynamics.frequency_grid(omegas))


def _sweep_rows(spec: SweepSpec) -> dict:
    """Evaluate the sweep grid; returns its columns by name, each
    broadcastable to (T, n) for the T temperatures and n omegas of spec.

    omega and commutator_sq have shape (n,), temperature (T, 1), and var_u,
    var_v and degree (T, n), one row per temperature.  The grid is checked
    and solved once, by _eval_chunk.  Every temperature is then evaluated
    from the same planes in one broadcast (entanglement._degree): the
    temperatures were checked by SweepSpec, the commutator, which has no
    temperature in it, is formed and checked once, and each row has the
    bits of a sweep at its temperature alone.
    """
    sys_obj = dynamics.build_linear_system(
        spec.params, require_stable=spec.require_stable
    )
    omegas = spec.omega_grid()
    planes = _eval_chunk(sys_obj, omegas)
    noise = dynamics.NoiseModel.from_params(spec.params, spec.brownian_kernel)
    temps = np.array(spec.temperatures)
    out = entanglement._degree(planes, noise, omegas, temps)
    return dict(out, omega=omegas, temperature=temps[:, None])


#: Flag columns (entangled, epr) by level (degree < 1) + (degree < 1/4).
_FLAG_COLUMNS = ("entangled", "epr")
_FLAG_LEVELS = (("false", "false"), ("true", "false"), ("true", "true"))


#: Columns of sweep.grid, a gnuplot block file with one block per temperature.
_GRID_COLUMNS = ("omega", "temperature", "degree_clipped")

#: "%.12e" fields d.dddddddddddde±XX are 18 bytes.
_E12_WIDTH = 18
_PAIRS = np.frombuffer(b"".join(b"%02d" % k for k in range(100)), np.uint16)
#: The texts 0000 to 9999 as 4-byte words: the pairs of k // 100 and k % 100.
_QUADS = np.stack(np.broadcast_arrays(_PAIRS[:, None], _PAIRS),
                  axis=-1).view(np.uint32).ravel()
_LEADS = np.frombuffer(b"".join(b"%d." % k for k in range(10)), np.uint16)
#: The texts e-99 to e+99 as 4-byte words, by exponent + 99.
_EXPONENTS = np.stack(
    [np.repeat(np.frombuffer(b"e-e+", np.uint16), (99, 100)),
     _PAIRS[np.abs(np.arange(-99, 100))]], axis=-1).view(np.uint32).ravel()
#: One text: "d.", three 4-digit groups and "e±XX", packed into 18 bytes.
_E12_RECORD = np.dtype([("lead", np.uint16), ("g0", np.uint32),
                        ("g1", np.uint32), ("g2", np.uint32),
                        ("exponent", np.uint32)])
#: 10**max(j, 0) and 10**max(-j, 0), exactly, at j + 22 for |j| <= 22.
_POW10_UP = np.array([1.0] * 22 + [float(10 ** j) for j in range(23)])
_POW10_DOWN = _POW10_UP[::-1].copy()


def _scale_pow10(x, j):
    """x * 10**j, correctly rounded, for integer arrays |j| <= 22: one of
    the two factors is 1, so only one operation rounds."""
    j = j + 22
    return x * _POW10_UP[j] / _POW10_DOWN[j]


#: Largest distance |m - rint(m)| of a scaled mantissa that _e12 formats
#: itself, after one rounding step and after two (see _e12).
_TIE_ONE, _TIE_TWO = 0.499, 0.495


def _printf(values):
    """The texts "%.12e" % v of the float array values: _e12's fallback."""
    return [b"%.12e" % v for v in values.tolist()]


def _e12(x):
    """The bytes of "%.12e" % v for each v of the 1-D float array x.

    Returns an (n, w) uint8 array: row i is the text of x[i] padded with NUL
    bytes to w, the length of the widest text in x and at least 18.
    In [1e-32, 1e56) the 13 digits are rint(m) for the mantissa
    m = x * 10**(12 - e), e = floor(log10 x), scaled by exact powers of ten:
    every value takes one correctly rounded step by 10**clip(12 - e, -22,
    22), and only the values with |12 - e| > 22 a second step by the rest.
    One step leaves m within half an ulp, at most 2**-10, of its exact value
    on m < 1e13, and two steps, each off by at most 2**-53 relative, within
    2.3e-3.  m in [1e12, 1e13 - 1) and at most _TIE_ONE = 0.499 (a value of
    one step) or _TIE_TWO = 0.495 (a value of two) from its nearest integer
    therefore rounds as the exact value does, which is what printf does; a
    value's text never depends on the other values of x.  Its digits are
    split into a lead digit and three groups of four by floor division by
    10**4, and each group is one lookup in _QUADS.
    Every other value (0, negatives, nan, inf, near-ties, magnitudes near or
    beyond 1e+-100) is formatted by _printf: Loitsch's fast path with one
    exact fallback.
    """
    x = np.asarray(x, dtype=float)
    fast = (x >= 1e-32) & (x < 1e56)
    x_fast = np.where(fast, x, 1.0)
    e = np.floor(np.log10(x_fast)).astype(np.intp)
    k = 12 - e
    two = np.flatnonzero((k < -22) | (k > 22))
    k_two = k[two]
    m = _scale_pow10(x_fast, np.clip(k, -22, 22, out=k))
    if two.size:
        m[two] = _scale_pow10(m[two], k_two - k[two])
    digits = np.rint(m)
    near = np.abs(m - digits)
    fast &= (m >= 1e12) & (m < 1e13 - 1) & (near <= _TIE_ONE)
    fast[two] &= near[two] <= _TIE_TWO
    digits = np.where(fast, digits, 1e12).astype(np.int64)
    record = np.empty(x.size, _E12_RECORD)
    for group in ("g2", "g1", "g0"):
        high = digits // 10 ** 4
        record[group] = _QUADS[digits - high * 10 ** 4]
        digits = high
    record["lead"] = _LEADS[digits]
    record["exponent"] = _EXPONENTS[e + 99]
    fields = record.view(np.uint8).reshape(x.size, _E12_WIDTH)
    slow = np.flatnonzero(~fast)
    if slow.size:
        texts = _printf(x[slow])
        width = max(_E12_WIDTH, *map(len, texts))
        if width > _E12_WIDTH:
            fields = np.pad(fields, ((0, 0), (0, width - _E12_WIDTH)))
        fields[slow] = np.array(texts, f"S{width}").view(np.uint8).reshape(
            slow.size, width)
    return fields


#: Most rows of temperature blocks formatted at a time (a longer block is
#: formatted alone); the texts of these rows, ~18 bytes per value and
#: column, bound the writer's memory.  2**15 keeps the 3 x 10**4-row Fig. 2
#: map in one group, so its omega and commutator_sq are formatted once; at
#: 2**14 they are formatted per block and that sweep wrote ~20% fewer rows/s,
#: and 2**16 doubled the bound for no measured gain (2-core x86-64 VM).
_FORMAT_ROWS = 2 ** 15
#: Rows per write: the NUL-free copies of a block are made this many rows
#: at a time, so they stay small beside the row buffer.
_WRITE_ROWS = 2048


def _group_rows(columns, sep, group):
    """Yield each temperature block of group, the sweep columns cut to k
    temperatures (see _sweep_rows), as the rows of one (n, width) uint8
    buffer, refilled per block.

    Each column is formatted by one _e12 call in its own shape: n values for
    omega and commutator_sq, k for temperature and k * n for var_u, var_v
    and degree; the texts are broadcast to (k, n), and those of a column of
    shape (n,) are stored into the buffer once.  Their widths give the row
    layout: a NUL-padded slot per numeric column, each followed by sep
    (written once per group), and the flag tail in place of the last sep.
    degree_clipped is the bytes of degree with those of 1.0 over the rows
    where degree >= 1.
    """
    numeric = [c for c in columns if c not in _FLAG_COLUMNS]
    flags = [_FLAG_COLUMNS.index(c) for c in columns if c in _FLAG_COLUMNS]
    tails = np.array([
        "".join(sep + level[j] for j in flags).encode() + b"\n"
        for level in _FLAG_LEVELS
    ])
    tails = tails.view(f"V{tails.itemsize}")
    source = {c: "degree" if c == "degree_clipped" else c for c in numeric}
    k, n = len(group["temperature"]), group["omega"].size
    texts = {}
    for src in dict.fromkeys(source.values()):
        x = group[src]
        fields = _e12(x.ravel())
        texts[src] = np.broadcast_to(
            fields.view(f"V{fields.shape[1]}").reshape(x.shape), (k, n))
    layout = [texts[src].itemsize for src in source.values()]
    ends = np.cumsum(layout) + np.arange(len(layout))
    row = np.dtype({
        "names": [*numeric, "tail"],
        "formats": [f"V{w}" for w in layout] + [tails.dtype],
        "offsets": [0, *(ends[:-1] + 1), ends[-1]],
        "itemsize": ends[-1] + tails.itemsize,
    })
    buf = np.full((n, row.itemsize), ord(sep), np.uint8)
    rows = buf.view(row)[:, 0]
    for j, degree in enumerate(group["degree"]):
        for c, src in source.items():
            if j and not texts[src].strides[0]:
                continue        # buf holds these texts already
            rows[c] = texts[src][j]
            if c == "degree_clipped":
                one = (b"%.12e" % 1.0).ljust(texts[src].itemsize, b"\0")
                rows[c][degree >= 1.0] = np.void(one)
        level = (degree < 1.0).astype(np.intp) + (degree < 0.25)
        rows["tail"] = tails[level]
        yield buf


def _write_blocks(path, columns, results, sep, head=b"", gap=b""):
    """Write head, then the rows of every temperature of results, the sweep
    columns of _sweep_rows; gap goes between two temperature blocks.

    A row is the "%.12e" text of each numeric column (degree_clipped is
    min(degree, 1)) joined by sep, then the flag columns and a newline.
    Groups of whole blocks of at most _FORMAT_ROWS rows (a longer block
    alone), cut from the 2-D columns by one slice each, are formatted one
    after another (_group_rows), and each block is written with its NUL
    bytes removed, _WRITE_ROWS rows at a time.

    The file is overwritten in place: opened without truncation, and cut to
    the written length only if it was longer.  Rewriting an existing file
    then reuses its blocks instead of freeing and allocating them again.
    """
    per_group = max(1, _FORMAT_ROWS // results["omega"].size)
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as f:
        old_size = os.fstat(f.fileno()).st_size
        f.write(head)
        for g in range(0, len(results["temperature"]), per_group):
            group = {c: x[g:g + per_group] if np.ndim(x) == 2 else x
                     for c, x in results.items()}
            for j, buf in enumerate(_group_rows(columns, sep, group)):
                if g or j:
                    f.write(gap)
                for i in range(0, len(buf), _WRITE_ROWS):
                    f.write(buf[i:i + _WRITE_ROWS].tobytes().replace(b"\0", b""))
        if f.tell() < old_size:
            f.truncate()


def _bands(omegas, degree):
    """Contiguous omega intervals where degree < 1 and where degree < 1/4.

    degree has shape (k, n), one row per temperature; returns k pairs of
    lists [entangled, epr], from one scan of every row at once.
    """
    k, n = degree.shape
    level = np.zeros((k, n + 2), np.int8)
    level[:, 1:-1] = degree < 1.0
    level[:, 1:-1] += degree < 0.25
    # level[r, i] != level[r, i + 1], as flat indices of the (k, n + 1) diff.
    row, steps = np.divmod(np.flatnonzero(np.diff(level)), n + 1)
    before, after = level[row, steps], level[row, steps + 1]
    out = [[] for _ in range(k)]
    for lv in (1, 2):
        starts = (before < lv) & (after >= lv)
        stops = steps[(before >= lv) & (after < lv)] - 1
        runs = [[lo, hi] for lo, hi in zip(omegas[steps[starts]].tolist(),
                                           omegas[stops].tolist())]
        ends = np.cumsum(np.bincount(row[starts], minlength=k)).tolist()
        for r, (a, b) in enumerate(zip([0] + ends, ends)):
            out[r].append(runs[a:b])
    return out


def run_sweep(spec: SweepSpec, out_dir, emit_grid: bool = False) -> dict:
    """Run the sweep and write sweep.csv, summary.json and optionally
    sweep.grid (gnuplot block format).  Returns the summary dict."""
    results = _sweep_rows(spec)
    omegas, degree = results["omega"], results["degree"]
    imin = np.argmin(degree, axis=1)
    summary = {"temperatures": [
        {
            "temperature": temp,
            "min_degree": min_degree,
            "argmin_omega": argmin_omega,
            "entangled_bands": entangled,
            "epr_bands": epr,
        }
        for temp, min_degree, argmin_omega, (entangled, epr) in zip(
            results["temperature"].ravel().tolist(),
            degree[np.arange(imin.size), imin].tolist(),
            omegas[imin].tolist(), _bands(omegas, degree))
    ]}

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    columns = CSV_COLUMNS if spec.emit_components else CSV_COLUMNS_BARE
    _write_blocks(out / "sweep.csv", columns, results, ",",
                  head=",".join(columns).encode() + b"\n")
    (out / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    if emit_grid:
        _write_blocks(out / "sweep.grid", _GRID_COLUMNS, results, " ", gap=b"\n")
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
    print(f"product (a=1):    {product:.12e}", file=out)
    print(f"bound:            {bound:.12e}", file=out)
    print(f"optimal a:        {best_a:.12e}", file=out)
    print(f"optimal product:  {best_product:.12e}", file=out)
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
        if args.workers is not None:    # checked in every mode
            model.check_numbers(vars(args), counts=("workers",))
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
