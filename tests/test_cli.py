"""Tests for the batch command-line front end."""

import contextlib
import dataclasses
import errno
import io
import json
import os
import stat
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mirrorpair import (
    NoiseModel, build_linear_system, cli, degree_sweep, dynamics,
    entanglement, fig2_params, tmsv_state,
)
from mirrorpair.cli import (
    _E12_RECORD,
    _PARAM_KEYS,
    _SWEEP_KEYS,
    CSV_COLUMNS,
    CSV_COLUMNS_BARE,
    SweepSpec,
    _bands,
    _e12,
    _sweep_rows,
    check_state,
    main,
    parse_config_text,
    run_sweep,
)
from mirrorpair.dynamics import CHUNK
from mirrorpair.errors import (
    ConfigError, DegenerateCommutatorError, InvalidParameterError,
    SingularityError,
)

from conftest import P_STAR


class TestConfigParsing:
    def test_comments_blanks_and_values(self):
        values = parse_config_text(
            "# a comment\n"
            "\n"
            "big_omega = 2e5   # trailing comment\n"
            "temperatures = 0.1, 4.0\n"
        )
        assert values == {"big_omega": "2e5", "temperatures": "0.1, 4.0"}

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config_text("big_omega 2e5\n")

    def test_empty_value_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("big_omega =\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("g = 1\ng = 2\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            parse_config_text("coupling_exponent = 3\n")


class TestSweepSpec:
    def test_defaults_center_on_resonance(self):
        spec = SweepSpec.from_config({})
        om = spec.params.big_omega
        assert spec.omega_min == pytest.approx(0.5 * om)
        assert spec.omega_max == pytest.approx(1.5 * om)
        assert spec.omega_count == 2001
        assert spec.omega_spacing == "linear"

    def test_bad_grid_rejected(self):
        params = fig2_params()
        with pytest.raises(InvalidParameterError):
            SweepSpec(params=params, omega_min=2e5, omega_max=1e5, omega_count=10)
        with pytest.raises(InvalidParameterError):
            SweepSpec(params=params, omega_min=-1.0, omega_max=1e5, omega_count=10)
        with pytest.raises(InvalidParameterError):
            SweepSpec(params=params, omega_min=1e5, omega_max=2e5,
                      omega_count=10, omega_spacing="cubic")

    def test_temperatures_must_not_be_empty(self):
        # The config parser cannot give an empty list; a Python caller can.
        with pytest.raises(InvalidParameterError,
                           match="^temperature list must be non-empty$"):
            SweepSpec(fig2_params(), 1e5, 2e5, 3, temperatures=())

    def test_temperatures_must_increase(self):
        params = fig2_params()
        with pytest.raises(InvalidParameterError):
            SweepSpec(params=params, omega_min=1e5, omega_max=2e5,
                      omega_count=10, temperatures=(4.0, 0.1))

    @pytest.mark.parametrize("temps", [[0.1, 4.0], np.array([0.1, 4.0]),
                                       (np.float64(0.1), 4)],
                             ids=["list", "array", "tuple"])
    def test_temperatures_stored_as_a_float_tuple(self, temps):
        spec = SweepSpec(fig2_params(), 1e5, 2e5, 3, temperatures=temps)
        assert spec.temperatures == (0.1, 4.0)
        assert all(type(t) is float for t in spec.temperatures)

    @pytest.mark.parametrize("temps", [
        0.1, np.float64(0.1), np.array(0.1), None, [[0.1], [4.0]],
        np.array([[0.1], [4.0]]), [0.1, [4.0, 5.0]],
    ], ids=["float", "float64", "0-d", "None", "nested", "2-d", "ragged"])
    def test_scalar_or_nested_temperatures_rejected(self, temps):
        with pytest.raises(InvalidParameterError,
                           match="^temperatures must be a flat sequence"):
            SweepSpec(fig2_params(), 1e5, 2e5, 3, temperatures=temps)

    def test_bad_physical_value_is_invalid_parameter(self):
        with pytest.raises(InvalidParameterError):
            SweepSpec.from_config({"big_omega": "-1"})

    def test_grid_spacings(self):
        params = fig2_params()
        lin = SweepSpec(params=params, omega_min=1e4, omega_max=1e6,
                        omega_count=11).omega_grid()
        assert np.allclose(np.diff(lin), lin[1] - lin[0])
        log = SweepSpec(params=params, omega_min=1e4, omega_max=1e6,
                        omega_count=11, omega_spacing="log").omega_grid()
        assert np.allclose(np.diff(np.log(log)), np.log(log[1] / log[0]))
        grid = dynamics.hybrid_grid(params.big_omega)
        hyb = SweepSpec(params=params, omega_min=grid[0], omega_max=grid[-1],
                        omega_count=grid.size,
                        omega_spacing="hybrid").omega_grid()
        assert np.array_equal(hyb, grid)  # the fixed dense-plus-log grid
        assert np.all(np.diff(hyb) > 0)

    def test_hybrid_fields_must_match_the_fixed_grid(self):
        params = fig2_params()
        with pytest.raises(InvalidParameterError, match="fixed grid"):
            SweepSpec(params, omega_min=1.0, omega_max=2.0, omega_count=3,
                      omega_spacing="hybrid")
        grid = dynamics.hybrid_grid(params.big_omega)
        fields = {"omega_min": grid[0], "omega_max": grid[-1],
                  "omega_count": grid.size}
        for key, off in (("omega_min", grid[1]), ("omega_max", grid[-2]),
                         ("omega_count", grid.size - 1)):
            with pytest.raises(InvalidParameterError, match="fixed grid"):
                SweepSpec(params, **dict(fields, **{key: off}),
                          omega_spacing="hybrid")
        spec = SweepSpec(params, **fields, omega_spacing="hybrid")
        assert spec.omega_grid().size == spec.omega_count

    def test_oversized_sweep_rejected_before_allocating(self):
        params = fig2_params()
        SweepSpec(params, 1e5, 2e5, 500_000, temperatures=(0.1, 4.0))
        for count, temps in ((500_001, (0.1, 4.0)), (10 ** 13, (0.1,))):
            with pytest.raises(InvalidParameterError, match="rows, more than"):
                SweepSpec(params, 1e5, 2e5, count, temperatures=temps)


class TestConfigValidation:
    @pytest.mark.parametrize("text", [
        "omega_count = abc\n",
        "workers = 0.5\n",
        "brownian_kernel = bogus\n",
        "temperatures = -1, 2\n",
        "temperatures = nan\n",
        "gamma_b = inf\n",
        "omega_spacing = hybrid\nomega_count = 5\n",
        "omega_count = 10000000000000\n",
        # big_gamma = 1e308 underflowed the commutator to 0 (exit 1) and a
        # denormal omega_a0 divided by zero (a traceback)
        "big_gamma = 1e308\nbig_g = 0\nomega_count = 1\n",
        "omega_a0 = 5e-324\nbig_g = 0\nomega_count = 1\n",
        "omega_max = 1e31\nomega_count = 1\n",
        "temperatures = 0, 1e-31\nomega_count = 1\n",
        # keys that no sweep reads: temperature (a sweep uses temperatures)
        # and the removed parameters mass and omega_a
        "temperature = 300\nomega_count = 1\n",
        "mass = 1\nomega_count = 1\n",
        "omega_a = 7\nomega_count = 1\n",
    ], ids=["count-abc", "workers-0.5", "kernel-bogus", "negative-T",
            "nan-T", "inf-gamma_b", "hybrid-with-count", "count-1e13",
            "gamma-1e308", "omega_a0-denormal", "omega_max-1e31", "T-1e-31",
            "temperature-key", "mass-key", "omega_a-key"])
    def test_bad_value_exits_2_without_output(self, tmp_path, capsys, text):
        config = tmp_path / "cfg.txt"
        config.write_text(text, encoding="utf-8")
        out = tmp_path / "out"
        assert main(["--sweep", "--config", str(config), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_empty_temperature_list_exits_2_without_output(self, tmp_path,
                                                           capsys):
        config = tmp_path / "cfg.txt"
        config.write_text("temperatures = ,\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["--sweep", "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == ("error: temperatures: expected comma-separated "
                       "floats, got ','\n")
        assert not out.exists()

    @pytest.mark.parametrize("key,value,kind", [
        ("g", "abc", "float"),
        ("omega_count", "2.5", "int"),
        ("emit_components", "maybe", "bool"),
        ("temperatures", "0.1, abc", "comma-separated floats"),
        # every field of a list is parsed: an empty one is no value
        ("temperatures", "0.1,,4", "comma-separated floats"),
        ("temperatures", "0.1, 4,", "comma-separated floats"),
        ("temperatures", ",0.1", "comma-separated floats"),
    ])
    def test_parse_error_names_the_key(self, tmp_path, capsys, key, value, kind):
        config = tmp_path / "cfg.txt"
        config.write_text(f"{key} = {value}\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["--sweep", "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {key}: expected {kind}, got {value!r}\n"
        assert not out.exists()

    def test_every_key_parses_from_a_valid_string(self):
        valid = {
            **{key: ("1.5", 1.5) for key in _PARAM_KEYS},
            "omega_min": ("1e5", 1e5), "omega_max": ("2e5", 2e5),
            "omega_count": ("3", 3), "omega_spacing": ("log", "log"),
            "temperatures": ("0.1, 4", (0.1, 4.0)), "workers": ("2", 2),
            "emit_components": ("No", False),
            "brownian_kernel": ("halved", "halved"),
            "require_stable": ("YES", True),
        }
        assert set(valid) == _PARAM_KEYS | _SWEEP_KEYS
        for key, (text, want) in valid.items():
            spec = SweepSpec.from_config({key: text})
            got = getattr(spec.params if key in _PARAM_KEYS else spec, key)
            assert (got, type(got)) == (want, type(want)), key

    def test_byte_order_mark_is_ignored(self, tmp_path):
        text = "omega_count = 3\ntemperatures = 0.1\n"
        outputs = []
        for name, encoding in (("plain", "utf-8"), ("bom", "utf-8-sig")):
            config = tmp_path / f"{name}.cfg"
            config.write_text(text, encoding=encoding)
            out = tmp_path / name
            assert main(["--sweep", "--config", str(config),
                         "--out", str(out)]) == 0
            outputs.append((out / "sweep.csv").read_bytes())
        assert (tmp_path / "bom.cfg").read_bytes().startswith(b"\xef\xbb\xbf")
        assert outputs[0] == outputs[1]

    def test_workers_flag_zero_exits_2(self, tmp_path):
        config = tmp_path / "cfg.txt"
        config.write_text("omega_count = 3\n", encoding="utf-8")
        assert main(["--sweep", "--config", str(config), "--workers", "0",
                     "--out", str(tmp_path / "out")]) == 2
        state = tmp_path / "vacuum.txt"
        np.savetxt(state, 0.5 * np.eye(4))
        assert main(["--check-state", str(state), "--workers", "0"]) == 2

    def test_hybrid_spec_records_the_grid_used(self):
        spec = SweepSpec.from_config({"omega_spacing": "hybrid"})
        grid = spec.omega_grid()
        assert spec.omega_count == grid.size
        assert (spec.omega_min, spec.omega_max) == (grid[0], grid[-1])


# Config values for the fuzz test: arbitrary floats, floats near the ends of
# the allowed magnitude range, and words that do or do not parse.
_FLOAT_TEXT = st.one_of(
    st.floats().map(repr),
    st.integers(-31, 31).map(lambda e: f"1e{e}"),
    st.floats(min_value=-30.0, max_value=30.0).map(lambda e: repr(10.0 ** e)),
    st.sampled_from(["0", "-1", "5e-324", "nan", "-inf", "abc", "1,2", "1e"]),
)
_WORD = st.sampled_from(["linear", "log", "hybrid", "cubic", "corrected",
                         "halved", "true", "false", "yes", "0", "1", "x"])
_FUZZ_VALUES = {
    **{key: _FLOAT_TEXT for key in _PARAM_KEYS},
    "omega_min": _FLOAT_TEXT,
    "omega_max": _FLOAT_TEXT,
    "omega_spacing": _WORD,
    "temperatures": st.lists(_FLOAT_TEXT, min_size=1, max_size=3).map(", ".join),
    "workers": st.one_of(st.integers(-1, 4).map(str), _WORD),
    "emit_components": _WORD,
    "brownian_kernel": _WORD,
    "require_stable": _WORD,
}
# Always present, so no example falls back to the 2001-point default grid.
_FUZZ_COUNT = st.one_of(st.integers(-1, 64).map(str),
                        st.sampled_from(["abc", "2.5", "1e1"]))


@st.composite
def _config_texts(draw):
    keys = draw(st.lists(st.sampled_from(sorted(_FUZZ_VALUES)),
                         unique=True, max_size=6))
    lines = [f"{key} = {draw(_FUZZ_VALUES[key])}" for key in keys]
    lines.append(f"omega_count = {draw(_FUZZ_COUNT)}")
    return "\n".join(draw(st.permutations(lines))) + "\n"


# State files for the fuzz test: a TMSV covariance (with or without a mean
# row) with up to four tokens replaced or appended, so that examples reach
# every stage: parsing, shape, finiteness, physicality and the optimum.
_STATE_TOKEN = st.one_of(
    _FLOAT_TEXT,
    st.sampled_from(["", "0.5", "-0.5", "1e400", "1e200", "x y", "#", ";"]),
)


@st.composite
def _state_texts(draw):
    cov = tmsv_state(draw(st.floats(0.0, 3.0))).cov
    rows = [[repr(float(v)) for v in row] for row in cov]
    if draw(st.booleans()):
        rows.append(["0.0"] * 4)
    edits = draw(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 4),
                                    _STATE_TOKEN), max_size=4))
    for i, j, token in edits:
        if i >= len(rows):
            rows.append([token])
        elif j >= len(rows[i]):
            rows[i].append(token)
        else:
            rows[i][j] = token
    return "\n".join(" ".join(row) for row in rows) + "\n"


class TestConfigFuzz:
    @settings(max_examples=150, deadline=None)
    @given(text=_config_texts())
    def test_main_exits_with_a_documented_code(self, text):
        # --workers 1 on the command line: no process pool, whatever the
        # config says about workers
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, \
                contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            config = Path(tmp) / "fuzz.cfg"
            config.write_text(text, encoding="utf-8")
            code = main(["--sweep", "--config", str(config), "--out",
                         str(Path(tmp) / "out"), "--workers", "1"])
        assert code in (0, 2, 3, 4, 5), (code, err.getvalue(), text)
        assert "Traceback" not in err.getvalue()


class TestSweepKernel:
    # entry: run_sweep's worker count, or degree_sweep called directly
    @pytest.mark.parametrize("entry", [1, 4, "degree_sweep"])
    def test_one_solve_per_chunk_for_all_temperatures(self, tmp_path,
                                                      monkeypatch, entry):
        # The sweep solves in this process whatever the worker count, so the
        # spy sees every chunk; degree_sweep shares the sweep's chunk loop.
        # At the Fig. 2 point each chunk takes the five real factors of the
        # closed-form u and d rows only, nothing goes through
        # selected_transfer_rows, and the grid is checked once per sweep,
        # not again per chunk or per temperature.
        calls, checks = [], []
        factors, check = entanglement._row_factors, dynamics.frequency_grid

        def spy(sys, omegas):
            out = factors(sys, omegas)
            calls.append((np.array(omegas), np.shape(out)))
            return out

        def counted(omegas):
            checks.append(np.size(omegas))
            return check(omegas)

        def forbidden(*args, **kwargs):
            raise AssertionError("the model's sweep must not solve")

        monkeypatch.setattr(entanglement, "_row_factors", spy)
        monkeypatch.setattr(dynamics, "_transfer_rows", forbidden)
        monkeypatch.setattr(entanglement, "frequency_grid", counted)
        monkeypatch.setattr(dynamics, "frequency_grid", counted)
        params = fig2_params()
        n = 2 * CHUNK + 100
        spec = SweepSpec(params=params, omega_min=0.5 * params.big_omega,
                         omega_max=1.5 * params.big_omega, omega_count=n,
                         temperatures=(0.1, 1.0, 4.0),
                         workers=1 if entry == "degree_sweep" else entry)
        if entry == "degree_sweep":
            noise = NoiseModel(0.1, params.big_gamma, params.big_omega)
            degree_sweep(build_linear_system(params), noise, spec.omega_grid())
        else:
            run_sweep(spec, tmp_path)
        assert len(calls) == -(-n // CHUNK) == 3
        assert all(c.size <= CHUNK and np.all(c > 0)
                   and shape == (5, c.size) for c, shape in calls)
        assert np.array_equal(np.concatenate([c for c, _ in calls]),
                              spec.omega_grid())
        assert checks == [n]

    @pytest.mark.parametrize("kernel", ["corrected", "halved"])
    def test_multi_temperature_arrays_equal_degree_sweep(self, kernel):
        params = fig2_params()
        spec = SweepSpec(params=params, omega_min=1e-2 * params.big_omega,
                         omega_max=1e2 * params.big_omega, omega_count=700,
                         omega_spacing="log", temperatures=(0.0, 0.1, 300.0),
                         brownian_kernel=kernel)
        cols = _sweep_rows(spec)
        omegas, k = cols["omega"], len(spec.temperatures)
        assert np.array_equal(omegas, spec.omega_grid())
        assert np.array_equal(cols["temperature"],
                              np.reshape(spec.temperatures, (k, 1)))
        shapes = {c: np.shape(x) for c, x in cols.items()}
        assert shapes == {"omega": (700,), "temperature": (k, 1),
                          "commutator_sq": (700,), "var_u": (k, 700),
                          "var_v": (k, 700), "degree": (k, 700)}
        sys = build_linear_system(params)
        for j, temp in enumerate(spec.temperatures):
            noise = NoiseModel(temp, params.big_gamma, params.big_omega, kernel)
            want = degree_sweep(sys, noise, omegas)
            for key, values in want.items():
                got = np.broadcast_to(cols[key], (k, omegas.size))[j]
                assert np.array_equal(got, values), (temp, key)

    @pytest.mark.parametrize("kernel", ["corrected", "halved"])
    def test_multi_temperature_rows_equal_one_temperature_sweeps(
            self, tmp_path, kernel):
        # The temperature axis changes no byte: the rows of a sweep over
        # 0, 0.1 and 300 K are those of three sweeps at one temperature.
        params = fig2_params()
        spec = SweepSpec(params=params, omega_min=1e-2 * params.big_omega,
                         omega_max=1e2 * params.big_omega, omega_count=700,
                         omega_spacing="log", temperatures=(0.0, 0.1, 300.0),
                         brownian_kernel=kernel)

        def files(spec, name):
            run_sweep(spec, tmp_path / name, emit_grid=True)
            head, rows = (tmp_path / name / "sweep.csv").read_bytes().split(
                b"\n", 1)
            return head, rows, (tmp_path / name / "sweep.grid").read_bytes()

        head, rows, grid = files(spec, "all")
        singles = [files(dataclasses.replace(spec, temperatures=(temp,)),
                         str(temp)) for temp in spec.temperatures]
        assert [h for h, _, _ in singles] == [head] * len(singles)
        assert rows == b"".join(r for _, r, _ in singles)
        assert grid == b"\n".join(g for _, _, g in singles)

    def test_degenerate_commutator_reaches_cli(self, tmp_path, monkeypatch, capsys):
        # Factors of a system with no noise input: every plane is 0.
        def silent(sys, omegas):
            return (np.zeros(np.size(omegas)),) * 5

        monkeypatch.setattr(entanglement, "_row_factors", silent)
        params = fig2_params()
        spec = SweepSpec(params=params, omega_min=params.big_omega,
                         omega_max=params.big_omega, omega_count=1)
        with pytest.raises(DegenerateCommutatorError):
            run_sweep(spec, tmp_path / "direct")
        config = tmp_path / "cfg.txt"
        config.write_text("omega_count = 3\n", encoding="utf-8")
        assert main(["--sweep", "--config", str(config),
                     "--out", str(tmp_path / "out")]) == 1
        assert "commutator" in capsys.readouterr().err


#: Rows of degree on omegas 1, 2, 3, 4 and their entangled and EPR bands.
_BAND_CASES = [
    ([2, 2, 2, 2], [], []),
    ([0.5, 0.5, 0.5, 0.5], [[1.0, 4.0]], []),
    ([0.1, 2, 2, 0.5], [[1.0, 1.0], [4.0, 4.0]], [[1.0, 1.0]]),
    ([2, 0.1, 0.1, 2], [[2.0, 3.0]], [[2.0, 3.0]]),
    ([0.5, 0.1, 0.5, 0.1], [[1.0, 4.0]], [[2.0, 2.0], [4.0, 4.0]]),
    ([0.1, 0.5, 2, np.nan], [[1.0, 2.0]], [[1.0, 1.0]]),
]


def _runs(omegas, below):
    """[first, last] omega of each run of True in below, one by one."""
    runs, last = [], False
    for w, inside in zip(omegas.tolist(), below.tolist()):
        if inside and not last:
            runs.append([w, w])
        elif inside:
            runs[-1][1] = w
        last = inside
    return runs


class TestRunSweep:
    def test_single_point_sweep(self, tmp_path):
        params = fig2_params()
        spec = SweepSpec(params=params, omega_min=params.big_omega,
                         omega_max=params.big_omega, omega_count=1,
                         temperatures=(0.1,))
        summary = run_sweep(spec, tmp_path)
        lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 2
        fields = dict(zip(CSV_COLUMNS, lines[1].split(",")))
        assert float(fields["degree"]) == pytest.approx(0.01002, rel=1e-3)
        assert fields["entangled"] == "true"
        assert fields["epr"] == "true"
        entry = summary["temperatures"][0]
        assert entry["argmin_omega"] == params.big_omega
        assert entry["min_degree"] < 0.25

    def test_bare_columns(self, tmp_path):
        params = fig2_params()
        spec = SweepSpec(params=params, omega_min=params.big_omega,
                         omega_max=params.big_omega, omega_count=1,
                         temperatures=(0.1,), emit_components=False)
        run_sweep(spec, tmp_path)
        lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS_BARE)

    def test_summary_bands_and_json_shape(self, tmp_path):
        params = fig2_params()
        spec = SweepSpec(params=params, omega_min=0.5 * params.big_omega,
                         omega_max=1.5 * params.big_omega, omega_count=201,
                         temperatures=(0.1, 4.0))
        run_sweep(spec, tmp_path)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert [e["temperature"] for e in summary["temperatures"]] == [0.1, 4.0]
        for entry in summary["temperatures"]:
            assert entry["entangled_bands"], "expected an entangled band"
            for lo, hi in entry["entangled_bands"]:
                assert lo <= entry["argmin_omega"] <= hi or len(
                    entry["entangled_bands"]) > 1

    def test_grid_file_blocks(self, tmp_path):
        params = fig2_params()
        spec = SweepSpec(params=params, omega_min=0.9 * params.big_omega,
                         omega_max=1.1 * params.big_omega, omega_count=5,
                         temperatures=(0.1, 4.0))
        run_sweep(spec, tmp_path, emit_grid=True)
        blocks = (tmp_path / "sweep.grid").read_text().strip().split("\n\n")
        assert len(blocks) == 2
        assert all(len(b.splitlines()) == 5 for b in blocks)
        for line in blocks[0].splitlines():
            assert len(line.split()) == 3
        omegas = spec.omega_grid()
        sys = build_linear_system(params)
        for temp, block in zip(spec.temperatures, blocks):
            noise = NoiseModel(temp, params.big_gamma, params.big_omega)
            degree = degree_sweep(sys, noise, omegas)["degree"]
            assert block.splitlines() == [
                "%.12e %.12e %.12e" % (w, temp, min(e, 1.0))
                for w, e in zip(omegas, degree)
            ]

    @pytest.mark.parametrize("degree,entangled,epr", _BAND_CASES)
    def test_bands_are_contiguous_runs(self, degree, entangled, epr):
        # One scan gives the runs below both levels; a run below 1/4 lies
        # inside a run below 1, and NaN lies in neither.
        omegas = np.array([1.0, 2.0, 3.0, 4.0])
        assert _bands(omegas, np.array([degree], dtype=float)) == [
            [entangled, epr]]

    def test_bands_of_every_row_in_one_scan(self):
        # The cases above as the rows of one (k, n) matrix: no run crosses
        # from one row into the next.
        omegas = np.array([1.0, 2.0, 3.0, 4.0])
        degree = np.array([case[0] for case in _BAND_CASES], dtype=float)
        assert _bands(omegas, degree) == [[entangled, epr] for _, entangled,
                                          epr in _BAND_CASES]

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 12), st.data())
    def test_batched_bands_equal_a_scan_per_row(self, k, n, data):
        values = st.sampled_from([0.1, 0.25, 0.5, 1.0, 2.0, np.nan])
        degree = np.array(data.draw(st.lists(
            st.lists(values, min_size=n, max_size=n), min_size=k,
            max_size=k)))
        omegas = np.arange(1.0, n + 1.0)
        got = _bands(omegas, degree)
        assert got == [_bands(omegas, row[None])[0] for row in degree]
        assert got == [[_runs(omegas, row < 1.0), _runs(omegas, row < 0.25)]
                       for row in degree]

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        params = fig2_params()
        spec = SweepSpec(params=params, omega_min=0.8 * params.big_omega,
                         omega_max=1.2 * params.big_omega, omega_count=300,
                         temperatures=(0.1,))
        run_sweep(spec, tmp_path / "serial")
        run_sweep(dataclasses.replace(spec, workers=4), tmp_path / "parallel")
        serial = (tmp_path / "serial" / "sweep.csv").read_bytes()
        parallel = (tmp_path / "parallel" / "sweep.csv").read_bytes()
        assert serial == parallel


def _assert_e12_exact(values):
    # Each row is the exact text, NUL-padded to the widest text (at least 18).
    x = np.asarray(values, dtype=float)
    texts = [b"%.12e" % v for v in x]
    width = max([18, *map(len, texts)])
    fields = _e12(x)
    assert fields.shape == (x.size, width)
    for v, row, text in zip(x, fields, texts):
        assert row.tobytes() == text.ljust(width, b"\0"), (v, text)


def _tie_neighbours(values):
    """For the positive finite values, the doubles nearest to the rounding
    tie of each one's 13-digit text, and those 1 and 2 ulps either side."""
    ties = np.array([float(("%.12e" % v).replace("e", "5e")) for v in values])
    for ulps in range(-2, 3):
        shifted = ties
        for _ in range(abs(ulps)):
            shifted = np.nextafter(shifted, np.inf if ulps > 0 else 0.0)
        yield shifted


def _reference_sweep_files(columns, results):
    """sweep.csv and sweep.grid as the per-row %-template writer made them,
    from the sweep columns results (see cli._sweep_rows)."""
    omegas = results["omega"]
    temps = results["temperature"].ravel()

    def block(cols, temp, res, sep):
        templates = [
            sep.join({"temperature": "%.12e" % temp, "entangled": entangled,
                      "epr": epr}.get(c, "%.12e") for c in cols)
            for entangled, epr in (("false", "false"), ("true", "false"),
                                   ("true", "true"))
        ]
        degree = res["degree"]
        arrays = dict(res, omega=omegas, degree_clipped=np.minimum(degree, 1.0))
        numeric = [arrays[c] for c in cols if c in arrays]
        level = (degree < 1.0).astype(np.intp) + (degree < 0.25)
        return [templates[k] % row for k, row in zip(level, zip(*numeric))]

    lines = [",".join(columns)]
    blocks = []
    for j, temp in enumerate(temps.tolist()):
        res = {c: np.broadcast_to(results[c], (temps.size, omegas.size))[j]
               for c in ("var_u", "var_v", "commutator_sq", "degree")}
        lines.extend(block(columns, temp, res, ","))
        blocks.append("\n".join(
            block(("omega", "temperature", "degree_clipped"), temp, res, " ")))
    return ("\n".join(lines) + "\n").encode(), ("\n\n".join(blocks) + "\n").encode()


def _random_results():
    """Sweep columns at 0, 0.1 and 4 K with values whose %.12e is not 18
    characters long (negative, tiny, huge, inf, nan), and 0, at 0.1 K.
    commutator_sq changes in one place between the temperatures, so it is a
    (T, n) column, formatted per temperature."""
    rng = np.random.default_rng(5)
    n = 40
    temps = (0.0, 0.1, 4.0)
    draws = []
    for _ in temps:
        res = {k: 10.0 ** rng.uniform(-3, 3, n)
               for k in ("var_u", "var_v", "commutator_sq", "degree")}
        res["degree"][::3] = rng.uniform(0.0, 0.3, res["degree"][::3].size)
        draws.append(res)
    cols = {c: np.array([res[c] for res in draws])
            for c in ("var_u", "var_v", "degree")}
    cols.update(omega=np.linspace(0.5e5, 1.5e5, n),
                temperature=np.reshape(temps, (3, 1)),
                commutator_sq=np.full((3, n), 0.7))
    cols["commutator_sq"][2, 7] = 0.9
    cols["var_u"][1, [1, 2]] = (-2.5, 0.0)
    cols["var_v"][1, [3, 4, 5]] = (1e-120, 9.999999999999998e99, 1e100)
    cols["commutator_sq"][1, 6] = np.inf
    cols["degree"][1, [8, 9, 10, 11]] = (np.nan, 0.0, -0.5, 1e300)
    cols["degree"][2, 12] = 5e-324
    return cols


def _flag_boundary_results():
    """Sweep columns with degree at, and one ulp below, both flag
    thresholds.  Every field is 18 characters at 0.1 K; at 4 K var_u is
    negative, and at 1e100 K the temperature field is 19 characters, so
    there every row is longer."""
    omegas = np.array([0.9e5, 1e5, 1.1e5, 1.2e5, 1.3e5, 1.4e5, 1.5e5])
    degree = np.array([0.1, 0.25, 0.5, 1.0, 2.0, np.nextafter(1.0, 0.0),
                       np.nextafter(0.25, 0.0)])
    return {"omega": omegas, "temperature": np.array([[0.1], [4.0], [1e100]]),
            "var_u": np.outer([1.0, -1.0, 1.0], omegas * 1e-3),
            "var_v": np.tile(1.0 / omegas, (3, 1)),
            "commutator_sq": np.full(7, np.pi), "degree": np.tile(degree, (3, 1))}


# Any float, with the ends of the double range, the flag thresholds and
# ordinary magnitudes drawn often enough to sit beside them in one row.
_ANY_FLOAT = st.one_of(
    st.floats(),
    st.floats(1e-3, 1e3),
    st.sampled_from([0.0, -0.0, 5e-324, 2.5e-310, np.nan, np.inf, -np.inf,
                     1e100, 9.999999999999998e99, -1e300, 1.0, 0.25,
                     np.nextafter(1.0, 0.0), np.nextafter(0.25, 0.0)]),
)


@st.composite
def _any_results(draw):
    """Sweep columns of 2 to 4 temperatures (any floats, NaN included) over
    a common omega column; commutator_sq is an (n,) column, formatted once
    for every temperature, in some examples and a (T, n) one in others."""
    n = draw(st.integers(1, 12))
    column = st.lists(_ANY_FLOAT, min_size=n, max_size=n).map(np.array)
    temps = draw(st.lists(_ANY_FLOAT, min_size=2, max_size=4, unique=True))

    def per_temperature():
        return np.array([draw(column) for _ in temps])

    shared = draw(st.booleans())
    return {"temperature": np.reshape(temps, (-1, 1)),
            "var_u": per_temperature(), "var_v": per_temperature(),
            "commutator_sq": draw(column) if shared else per_temperature(),
            "degree": per_temperature(), "omega": draw(column)}


class TestByteWriter:
    @settings(max_examples=100, deadline=None)
    @given(data=_any_results(), components=st.booleans())
    @example(data={  # rows equal as numbers, not as text
        "omega": np.ones(2), "temperature": np.array([[0.0], [1.0]]),
        "var_u": np.ones((2, 2)), "var_v": np.ones((2, 2)),
        "commutator_sq": np.array([[0.0, 0.0], [-0.0, -0.0]]),
        "degree": np.array([[0.0, 0.0], [-0.0, -0.0]]),
    }, components=True)
    def test_whole_files_match_the_row_templates(self, data, components):
        spec = SweepSpec(params=fig2_params(), omega_min=1e5, omega_max=2e5,
                         omega_count=1, emit_components=components)
        columns = CSV_COLUMNS if components else CSV_COLUMNS_BARE
        with tempfile.TemporaryDirectory() as tmp, \
                pytest.MonkeyPatch.context() as mp:
            mp.setattr("mirrorpair.cli._sweep_rows", lambda spec: data)
            run_sweep(spec, tmp, emit_grid=True)
            csv = (Path(tmp) / "sweep.csv").read_bytes()
            grid = (Path(tmp) / "sweep.grid").read_bytes()
        assert (csv, grid) == _reference_sweep_files(columns, data)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(), min_size=1, max_size=40))
    def test_kernel_matches_percent_format(self, values):
        _assert_e12_exact(values)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(1e-40, 1e60), min_size=1, max_size=40))
    def test_kernel_matches_percent_format_in_its_fast_range(self, values):
        _assert_e12_exact(values)

    def test_kernel_at_powers_of_ten_and_ties(self):
        powers = np.array([float(f"1e{k}") for k in range(-110, 111)])
        _assert_e12_exact(powers)
        _assert_e12_exact(np.nextafter(powers, 0.0))
        _assert_e12_exact(np.nextafter(powers, np.inf))
        # Doubles nearest to d.dddddddddddd5e+k, halfway between two
        # 13-digit decimals, and their neighbours two ulps either side.
        rng = np.random.default_rng(3)
        ties = np.array([
            float(f"{d}5e{k}") for d, k in zip(
                rng.integers(10 ** 12, 10 ** 13, 2000),
                rng.integers(-60, 70, 2000))
        ])
        for ulps in range(-2, 3):
            step = np.inf if ulps > 0 else 0.0
            shifted = ties
            for _ in range(abs(ulps)):
                shifted = np.nextafter(shifted, step)
            _assert_e12_exact(shifted)
        _assert_e12_exact([0.0, -0.0, 5e-324, np.inf, -np.inf, np.nan,
                           9.9999999999995, 9.999999999999998e99,
                           9.999999999999998e-99, 1e-32, 1e56,
                           np.nextafter(1e56, 0.0), -1.5])

    def test_kernel_record_is_packed(self):
        # "d.", three 4-digit groups and "e±XX": 18 bytes, no padding.
        fields = sorted(_E12_RECORD.fields.values(), key=lambda f: f[1])
        assert _E12_RECORD.itemsize == 18
        assert [off for _, off in fields] == list(
            np.cumsum([0] + [dt.itemsize for dt, _ in fields[:-1]]))
        assert sum(dt.itemsize for dt, _ in fields) == 18

    @pytest.mark.parametrize("exponents,steps", [
        ((-10, 34), 1),     # every |12 - e| <= 22: one step
        ((-32, -11), 2),    # every 12 - e > 22: two steps
        ((35, 55), 2),      # every 12 - e < -22: two steps
        # One column of both: the second step takes only the values with
        # |12 - e| > 22.
        pytest.param(((-10, 34), (-32, -11)), 2, id="mixed"),
    ])
    def test_kernel_scaling_branches(self, monkeypatch, exponents, steps):
        # Values and the near-ties of their 13-digit texts, two ulps either
        # side.  Every value takes the first step, and the values with
        # |12 - e| > 22, and only those, a second one.
        rng = np.random.default_rng(11)
        values = []
        for lo, hi in np.reshape(exponents, (-1, 2)):
            drawn = 10.0 ** rng.uniform(lo, hi + 1, 3000)
            values.append(drawn[(drawn >= float(f"1e{lo}"))
                                & (drawn < float(f"1e{hi + 1}"))])
        values = np.concatenate(values)
        sizes = []
        scale = cli._scale_pow10
        monkeypatch.setattr(cli, "_scale_pow10",
                            lambda x, j: sizes.append(x.size) or scale(x, j))

        def expected(x):
            far = np.abs(12 - np.floor(np.log10(x))) > 22
            return [x.size, far.sum()] if far.any() else [x.size]

        for shifted in [values, *_tie_neighbours(values[::3])]:
            sizes.clear()
            _assert_e12_exact(shifted)
            assert len(sizes) == steps
            assert sizes == expected(shifted)

    @pytest.mark.parametrize("exponents,tie", [
        ((-10, 34), cli._TIE_ONE),     # one rounding step
        ((-32, -11), cli._TIE_TWO),    # two steps
        ((35, 55), cli._TIE_TWO),
        # One column of both, 20000 values of one step and 2000 of two: each
        # value keeps its own step's window.
        pytest.param(((-10, 34), (-32, -11)), (cli._TIE_ONE, cli._TIE_TWO),
                     id="mixed"),
    ])
    def test_kernel_tie_window(self, monkeypatch, exponents, tie):
        # Decimals d.dddddddddddd f e(k) with f within 0.005 of 1/2, so that
        # the scaled mantissa m lies 0.495 to 0.5 from its nearest integer.
        # After one rounding step (m within 2**-10 of exact) the kernel
        # itself formats every m up to 0.499 from it, after two only up to
        # 0.495; the rest, and only the rest, take the "%.12e" fallback.  A
        # value takes two steps where |12 - e| > 22, whatever the others.
        rng = np.random.default_rng(5)
        x = np.concatenate([
            [float(f"{d}.{f:06d}e{k - 12}") for d, f, k in zip(
                rng.integers(10 ** 12 + 1, 4 * 10 ** 12, size),
                rng.integers(495_000, 505_001, size),
                rng.integers(lo, hi + 1, size))]
            for (lo, hi), size in zip(np.reshape(exponents, (-1, 2)),
                                      (20000, 2000))])
        k = 12 - np.floor(np.log10(x)).astype(np.intp)
        first = np.clip(k, -22, 22)
        two = k != first
        m = cli._scale_pow10(x, first)
        m[two] = cli._scale_pow10(m[two], k[two] - first[two])
        window = np.where(two, cli._TIE_TWO, cli._TIE_ONE)
        assert set(window) == set(np.atleast_1d(tie))
        distance = np.abs(m - np.rint(m))
        assert np.all((m >= 1e12) & (m < 1e13 - 1))
        keep = distance > 0.495
        assert keep.sum() > x.size // 2
        x, distance, window = x[keep], distance[keep], window[keep]
        for w in set(window):
            for lo, hi in ((0.495, 0.499), (0.499, 0.5)):
                assert np.sum((window == w) & (distance > lo)
                              & (distance <= hi)) > 100, (w, lo, hi)
        fallback = []
        printf = cli._printf
        monkeypatch.setattr(cli, "_printf",
                            lambda v: fallback.extend(v) or printf(v))
        fields = _e12(x)
        assert fields.shape == (x.size, 18)
        for v, row in zip(x, fields):
            assert row.tobytes() == b"%.12e" % v, v
        assert np.array_equal(np.sort(fallback), np.sort(x[distance > window]))

    def test_kernel_at_the_sweeps_magnitudes(self):
        # Every column of a log sweep over 1e-2..1e2 Omega up to 300 K, as
        # the benchmark's thermal map writes it (commutator_sq down to about
        # 2e-31, degree up to about 3e16), and the near-ties of those texts.
        params = fig2_params()
        spec = SweepSpec(params=params, omega_min=1e-2 * params.big_omega,
                         omega_max=1e2 * params.big_omega, omega_count=1000,
                         omega_spacing="log",
                         temperatures=(0.01, 0.3, 10.0, 300.0))
        cols = _sweep_rows(spec)
        values = np.concatenate([
            np.ravel(cols[c]) for c in
            ("omega", "var_u", "var_v", "commutator_sq", "degree")])
        assert values.size >= 10 ** 4
        assert values.min() < 1e-30 and values.max() > 1e16
        _assert_e12_exact(values)
        for shifted in _tie_neighbours(values[::4]):
            _assert_e12_exact(shifted)

    @pytest.mark.parametrize("results_of,components", [
        pytest.param(_random_results, True, id="True"),
        pytest.param(_random_results, False, id="False"),
        pytest.param(_flag_boundary_results, True, id="flags-True"),
        pytest.param(_flag_boundary_results, False, id="flags-False"),
    ])
    def test_off_form_values_match_the_row_templates(self, tmp_path, monkeypatch,
                                                     results_of, components):
        # Texts of every length, beside 18-character ones, must match the
        # per-row template, flags included.
        results = results_of()
        omegas = results["omega"]
        spec = SweepSpec(params=fig2_params(), omega_min=omegas[0],
                         omega_max=omegas[-1], omega_count=omegas.size,
                         emit_components=components)
        monkeypatch.setattr("mirrorpair.cli._sweep_rows", lambda spec: results)
        run_sweep(spec, tmp_path, emit_grid=True)
        columns = CSV_COLUMNS if components else CSV_COLUMNS_BARE
        csv, grid = _reference_sweep_files(columns, results)
        assert (tmp_path / "sweep.csv").read_bytes() == csv
        assert (tmp_path / "sweep.grid").read_bytes() == grid


def _rewrite_spec():
    params = fig2_params()
    return SweepSpec(params=params, omega_min=0.8 * params.big_omega,
                     omega_max=1.2 * params.big_omega, omega_count=120,
                     temperatures=(0.1, 4.0))


class TestWriterPieces:
    @pytest.mark.parametrize("rows,batch", [(7, 50), (1, 1), (40, 10 ** 6)])
    def test_pieces_do_not_change_the_bytes(self, tmp_path, monkeypatch,
                                            rows, batch):
        # Writes of a few rows and _e12 calls of one or many columns give
        # the bytes of the per-row templates.
        results = _random_results()
        omegas = results["omega"]
        monkeypatch.setattr(cli, "_WRITE_ROWS", rows)
        monkeypatch.setattr(cli, "_FORMAT_ROWS", batch)
        monkeypatch.setattr(cli, "_sweep_rows", lambda spec: results)
        spec = SweepSpec(params=fig2_params(), omega_min=omegas[0],
                         omega_max=omegas[-1], omega_count=omegas.size)
        run_sweep(spec, tmp_path, emit_grid=True)
        csv, grid = _reference_sweep_files(CSV_COLUMNS, results)
        assert (tmp_path / "sweep.csv").read_bytes() == csv
        assert (tmp_path / "sweep.grid").read_bytes() == grid

    @pytest.mark.parametrize("temps,format_rows,groups", [
        (3, None, [3]),             # the default groups: one
        (40, 32 * 50, [32, 8]),
    ])
    def test_each_column_is_formatted_in_its_own_shape(
            self, tmp_path, monkeypatch, temps, format_rows, groups):
        # Per group of k temperature blocks of n rows, omega and
        # commutator_sq go to _e12 once with n values, temperature with k
        # and var_u, var_v and degree with k * n, in the order of the
        # columns; degree_clipped reuses the texts of degree.
        n = 50
        params = fig2_params()
        spec = SweepSpec(params=params, omega_min=0.5 * params.big_omega,
                         omega_max=1.5 * params.big_omega, omega_count=n,
                         temperatures=np.geomspace(0.01, 300.0, temps))
        if format_rows is not None:
            monkeypatch.setattr(cli, "_FORMAT_ROWS", format_rows)
        calls = []
        e12 = cli._e12
        monkeypatch.setattr(cli, "_e12",
                            lambda x: calls.append(np.array(x)) or e12(x))
        run_sweep(spec, tmp_path)
        assert [x.size for x in calls] == [
            size for k in groups for size in (n, k, k * n, k * n, n, k * n)]
        cols = _sweep_rows(spec)
        starts = np.cumsum([0, *groups])
        want = [
            np.ravel(cols[c][lo:hi] if np.ndim(cols[c]) == 2 else cols[c])
            for lo, hi in zip(starts, starts[1:])
            for c in ("omega", "temperature", "var_u", "var_v",
                      "commutator_sq", "degree")]
        assert all(np.array_equal(got, x) for got, x in zip(calls, want))

    def test_peak_memory_does_not_grow_with_the_groups(self, tmp_path,
                                                       monkeypatch):
        # Nothing of one group is kept for the next: in groups of two
        # blocks, 8 and 40 blocks of 2000 rows peak alike.
        n = 2000
        monkeypatch.setattr(cli, "_FORMAT_ROWS", 2 * n)
        rng = np.random.default_rng(3)
        omegas = np.linspace(0.5e5, 1.5e5, n)
        peaks = []
        for blocks in (8, 40):
            results = {
                k: 10.0 ** rng.uniform(-3, 3, (blocks, n)) for k in
                ("var_u", "var_v", "commutator_sq", "degree")}
            results.update(
                omega=omegas,
                temperature=np.arange(1.0, blocks + 1).reshape(-1, 1))
            tracemalloc.start()
            try:
                cli._write_blocks(tmp_path / "sweep.csv", CSV_COLUMNS,
                                  results, ",")
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) <= 1.1 * min(peaks), peaks


class TestRewriteInPlace:
    # The output files are overwritten in place and cut only if they were
    # longer, so whatever was there must not show in the result.
    @pytest.mark.parametrize("before", ["longer", "shorter", "identical",
                                        "absent"])
    def test_existing_files_end_as_fresh_ones(self, tmp_path, before):
        spec = _rewrite_spec()
        run_sweep(spec, tmp_path / "fresh", emit_grid=True)
        out = tmp_path / "out"
        out.mkdir()
        rng = np.random.default_rng(2)
        for name in ("sweep.csv", "sweep.grid", "summary.json"):
            want = (tmp_path / "fresh" / name).read_bytes()
            old = {"longer": rng.bytes(3 * len(want) + 7),
                   "shorter": rng.bytes(len(want) // 3),
                   "identical": want}.get(before)
            if old is not None:
                (out / name).write_bytes(old)
        run_sweep(spec, out, emit_grid=True)
        for name in ("sweep.csv", "sweep.grid", "summary.json"):
            assert ((out / name).read_bytes()
                    == (tmp_path / "fresh" / name).read_bytes()), name

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
    def test_new_files_get_the_mode_of_open_wb(self, tmp_path, umask):
        old = os.umask(umask)
        try:
            with open(tmp_path / "probe", "wb"):
                pass
            run_sweep(_rewrite_spec(), tmp_path / "out", emit_grid=True)
        finally:
            os.umask(old)
        want = stat.S_IMODE((tmp_path / "probe").stat().st_mode)
        assert want == 0o666 & ~umask
        for name in ("sweep.csv", "sweep.grid"):
            mode = (tmp_path / "out" / name).stat().st_mode
            assert stat.S_IMODE(mode) == want, name

    def _sweep_exit(self, tmp_path, capsys):
        config = tmp_path / "cfg.txt"
        config.write_text("omega_count = 5\ntemperatures = 0.1\n",
                          encoding="utf-8")
        code = main(["--sweep", "--config", str(config),
                     "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        return code, err

    def test_directory_in_place_of_the_csv_exits_2(self, tmp_path, capsys):
        (tmp_path / "out" / "sweep.csv").mkdir(parents=True)
        code, err = self._sweep_exit(tmp_path, capsys)
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1, err

    # refusal: a read-only file (no refusal for root), or an os.open that
    # refuses the CSV path, as it does for any user without write access.
    @pytest.mark.parametrize("refusal", ["chmod", "os.open"])
    def test_read_only_csv_exits_2(self, tmp_path, capsys, monkeypatch,
                                   refusal):
        csv = tmp_path / "out" / "sweep.csv"
        csv.parent.mkdir()
        csv.write_bytes(b"old rows\n")
        if refusal == "chmod":
            csv.chmod(0o444)
            if os.access(csv, os.W_OK):
                pytest.skip("this user may write a read-only file (root)")
        else:
            real_open = os.open

            def refuse(path, *args, **kwargs):
                if Path(path) == csv:
                    raise PermissionError(errno.EACCES,
                                          os.strerror(errno.EACCES), str(path))
                return real_open(path, *args, **kwargs)

            monkeypatch.setattr(os, "open", refuse)
        code, err = self._sweep_exit(tmp_path, capsys)
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert csv.read_bytes() == b"old rows\n"


class TestCheckState:
    def test_tmsv_reported_entangled(self, tmp_path):
        path = tmp_path / "tmsv.txt"
        tmsv_state(1.0).to_file(path)
        sink = io.StringIO()
        report = check_state(path, out=sink)
        assert report["entangled"] and report["epr"]
        assert report["optimal_product"] == pytest.approx(np.exp(-4.0), rel=1e-9)
        assert "entangled:        yes" in sink.getvalue()

    def test_vacuum_reported_separable(self, tmp_path):
        path = tmp_path / "vac.txt"
        np.savetxt(path, 0.5 * np.eye(4))
        sink = io.StringIO()
        report = check_state(path, out=sink)
        assert not report["entangled"]
        assert "entangled:        no" in sink.getvalue()

    def test_report_text(self, tmp_path):
        path = tmp_path / "vac.txt"
        np.savetxt(path, 0.5 * np.eye(4))
        sink = io.StringIO()
        check_state(path, out=sink)
        assert sink.getvalue() == (
            "product (a=1):    1.000000000000e+00\n"
            "bound:            1.000000000000e+00\n"
            "optimal a:        1.000000000000e+00\n"
            "optimal product:  1.000000000000e+00\n"
            "entangled:        no\n"
            "EPR correlations: no\n")

    def test_report_follows_redirected_stdout(self, tmp_path):
        path = tmp_path / "vac.txt"
        np.savetxt(path, 0.5 * np.eye(4))
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink):
            check_state(path)
        assert "entangled:        no" in sink.getvalue()


class TestStateFileInput:
    @pytest.mark.parametrize("text", [
        "nan 0 0 0\n0 0.5 0 0\n0 0 0.5 0\n0 0 0 0.5\n",
        "0.5 0 0 0\n0 inf 0 0\n0 0 0.5 0\n0 0 0 0.5\n",
        "0.5 0 0 0\n0 0.5 0 0\n0 0 0.5 0\n0 0 0 0.5\n0 -inf 0 0\n",
        "0.5 0 0 0\n0 0.5 0 zero\n0 0 0.5 0\n0 0 0 0.5\n",
        "0.5 0 0\n0 0.5 0\n0 0 0.5\n",
        "0.5 0 0 0\n0 0.5 0\n0 0 0.5 0\n0 0 0 0.5\n",
    ], ids=["nan", "inf", "inf-mean", "word", "3x3", "ragged"])
    def test_bad_state_file_exits_2(self, tmp_path, capsys, text):
        path = tmp_path / "state.txt"
        path.write_text(text, encoding="utf-8")
        assert main(["--check-state", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("text", ["", "\n \n", "# no data\n"],
                             ids=["empty", "blank", "comment"])
    def test_state_file_without_data_exits_2_quietly(self, tmp_path, capsys,
                                                      text):
        path = tmp_path / "state.txt"
        path.write_text(text, encoding="utf-8")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["--check-state", str(path)]) == 2
        assert caught == []
        assert capsys.readouterr().err == f"error: {path}: no data\n"

    @settings(max_examples=300, deadline=None)
    @given(text=_state_texts())
    def test_state_file_fuzz_exits_with_a_documented_code(self, text):
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, \
                contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            path = Path(tmp) / "state.txt"
            path.write_text(text, encoding="utf-8")
            code = main(["--check-state", str(path)])
        assert code in (0, 2, 5), (code, err.getvalue(), text)
        assert "Traceback" not in err.getvalue()


class TestMainExitCodes:
    def test_sweep_happy_path(self, tmp_path):
        config = tmp_path / "cfg.txt"
        config.write_text(
            "omega_count = 3\ntemperatures = 0.1\n", encoding="utf-8"
        )
        code = main(["--sweep", "--config", str(config), "--out",
                     str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "sweep.csv").exists()

    def test_config_error_exit_2(self, tmp_path):
        config = tmp_path / "cfg.txt"
        config.write_text("bogus_key = 1\n", encoding="utf-8")
        assert main(["--sweep", "--config", str(config)]) == 2

    def test_non_utf8_config_exit_2(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_bytes(b"omega_count = 3\n\xff\xfe\n")
        out = tmp_path / "out"
        assert main(["--sweep", "--config", str(config),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert not out.exists()

    def test_missing_config_exit_2(self, tmp_path):
        assert main(["--sweep", "--config", str(tmp_path / "nope.txt")]) == 2

    def test_require_stable_exit_3(self, tmp_path):
        # the reference working point is formally unstable, so opting in to
        # the stability gate must abort the sweep
        config = tmp_path / "cfg.txt"
        config.write_text(
            "omega_count = 3\ntemperatures = 0.1\nrequire_stable = true\n",
            encoding="utf-8",
        )
        out = tmp_path / "out"
        assert main(["--sweep", "--config", str(config),
                     "--out", str(out)]) == 3
        assert not out.exists()

    def test_singular_resolvent_exit_4(self, tmp_path, monkeypatch, capsys):
        # The sweep's row factors meet a zero of mech or den on the grid.
        def singular(sys, w):
            raise SingularityError("shifted drift matrix singular on grid")

        monkeypatch.setattr(entanglement, "_row_factors", singular)
        config = tmp_path / "cfg.txt"
        config.write_text("omega_count = 3\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["--sweep", "--config", str(config),
                     "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert not out.exists()

    def test_unphysical_state_exit_5(self, tmp_path):
        path = tmp_path / "bad.txt"
        np.savetxt(path, 0.05 * np.eye(4))
        assert main(["--check-state", str(path)]) == 5

    def test_workers_flag_overrides_config(self, tmp_path):
        config = tmp_path / "cfg.txt"
        config.write_text(
            "omega_count = 64\ntemperatures = 0.1\n", encoding="utf-8"
        )
        code = main(["--sweep", "--config", str(config), "--workers", "2",
                     "--out", str(tmp_path / "out")])
        assert code == 0


def test_import_loads_no_process_pool():
    # The sweep runs in one process, so the command line imports neither
    # concurrent.futures nor multiprocessing; and the package needs numpy
    # alone, so it imports none of the test and oracle dependencies.
    code = ("import mirrorpair.cli, sys; print([m for m in sys.modules "
            "if m.split('.')[0] in ('scipy', 'mpmath', 'hypothesis', "
            "'concurrent', 'multiprocessing')])")
    env = dict(os.environ,
               PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "[]"


class TestClaimSweeps:
    def test_stable_point_entangles_up_to_100_kelvin(self, tmp_path):
        # The paper's thermal-robustness claim at the stable point P*: a
        # band at the optical pole pair (69.101 Omega) at 0.1, 10 and 100 K
        # that narrows as T rises, and none at 300 K.
        spec = SweepSpec(params=fig2_params(**P_STAR), omega_min=6.85e6,
                         omega_max=6.97e6, omega_count=2001,
                         temperatures=(0.1, 10.0, 100.0, 300.0),
                         require_stable=True)
        by_t = {e["temperature"]: e
                for e in run_sweep(spec, tmp_path)["temperatures"]}
        assert sorted(by_t) == [0.1, 10.0, 100.0, 300.0]
        bands = [by_t[t]["entangled_bands"] for t in (0.1, 10.0, 100.0)]
        assert all(len(b) == 1 for b in bands), bands
        assert bands[0] == [[6.85e6, 6.97e6]]
        for (wide,), (narrow,) in zip(bands, bands[1:]):
            assert wide[0] < narrow[0] and narrow[1] < wide[1], bands
        assert by_t[100.0]["min_degree"] < 1.0
        assert by_t[300.0]["entangled_bands"] == []

    def test_weak_entangler_sweep_is_finite(self):
        # A weak entangler drive puts the relative mode's pole, where the
        # denominator of the closed-form q1 - q2 row is smallest, inside the
        # grid; any RuntimeWarning fails the suite.
        spec = SweepSpec(params=fig2_params(p_in_b=5e-11), omega_min=99000.0,
                         omega_max=101000.0, omega_count=600)
        cols = _sweep_rows(spec)
        assert all(np.isfinite(v).all() for v in cols.values())

    def test_degree_sweep_memory_is_bounded(self):
        # A sweep's memory is its six temperature-free planes, (6, n), and
        # their forms: 2e5 frequencies peaked at 16.2 MB traced (9.6 MB of
        # planes), each CHUNK piece stored into one output.  This guards
        # against a sweep that holds more per omega, such as twelve
        # (4, 3, n) planes (25.8 MB), pieces kept and then joined, or
        # (2, n, 8) complex rows in one batch (109 MB).  The pieces are
        # guarded by
        # test_readout.py::test_transfer_spectrum_memory_is_bounded_by_the_piece.
        params = fig2_params()
        sys_obj = build_linear_system(params)
        noise = NoiseModel(0.1, params.big_gamma, params.big_omega)
        omegas = np.linspace(0.5, 1.5, 200_000) * params.big_omega
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            degree_sweep(sys_obj, noise, omegas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24e6, peak
