import contextlib
import csv
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from thermalpdc import correlations, ghost
from thermalpdc.artifacts import write_csv, write_pgm
from thermalpdc.scenario import ScenarioError, main, parse_config, run

NRF_SWEEP = {
    "kind": "nrf-sweep",
    "grids": {
        "mu_t": [1.0],
        "mu_r": [1.0],
        "n_pdc": {"start": 0.01, "stop": 2.0, "count": 9, "log": True},
        "tau": [1.0, 0.5],
    },
}

GHOST_IMAGE = {
    "kind": "ghost-image",
    "geometry": {
        "wavelength": 0.7e-6, "d1": 0.1, "d2": 0.1, "d3": 0.6, "f_r": 0.15,
    },
    "profile": {"type": "constant", "n_pdc": 1.0},
    "object": {"type": "double-slit", "width": 40e-6, "separation": 160e-6},
    "qgrid": {"n_half": 128, "dq": 19634.954084936207},
    "detector": {"x_t_count": 128, "x_r_count": 128},
}

GHOST_DIFFRACTION = {
    "kind": "ghost-diffraction",
    "geometry": {
        "wavelength": 0.7e-6, "d1": 0.1, "d2": 0.1, "d3": 0.3, "f_r": 0.3,
        "f_t": 0.1,
    },
    "profile": {"type": "constant", "n_pdc": 1.0},
    "object": {"type": "single-slit", "width": 40e-6},
    "qgrid": {"n_half": 128, "dq": 4908.738521234302},
}

ORACLE = {
    "kind": "oracle-validate",
    "params": {"mu_t": 0.5, "mu_r": 0.5, "n_pdc": 0.3},
    "cutoff": 60,
}


class TestValidateConfig:
    def test_valid_configs(self):
        for cfg in (NRF_SWEEP, GHOST_IMAGE, GHOST_DIFFRACTION, ORACLE):
            assert parse_config(cfg)[1] == []

    def test_unknown_kind(self):
        problems = parse_config({"kind": "spectroscopy"})[1]
        assert any("kind" in p for p in problems)

    def test_missing_fields_are_named(self):
        problems = parse_config({"kind": "nrf-sweep", "grids": {"mu_t": [1.0]}})[1]
        joined = " ".join(problems)
        assert "grids.mu_r" in joined and "grids.n_pdc" in joined

    def test_bad_tau_range(self):
        cfg = json.loads(json.dumps(NRF_SWEEP))
        cfg["grids"]["tau"] = [0.0]
        assert any("tau" in p for p in parse_config(cfg)[1])

    def test_negative_grid_rejected(self):
        cfg = json.loads(json.dumps(NRF_SWEEP))
        cfg["grids"]["mu_t"] = [-1.0]
        assert any("mu_t" in p for p in parse_config(cfg)[1])

    def test_diffraction_requires_fourier_lens(self):
        cfg = json.loads(json.dumps(GHOST_DIFFRACTION))
        del cfg["geometry"]["f_t"]
        assert parse_config(cfg)[1] == ["missing field: geometry.f_t"]

    def test_missing_object_file(self):
        cfg = json.loads(json.dumps(GHOST_IMAGE))
        cfg["object"] = {"type": "csv", "path": "/nonexistent/object.csv"}
        assert any("object.path" in p for p in parse_config(cfg)[1])

    def test_run_raises_on_invalid(self, tmp_path):
        with pytest.raises(ScenarioError, match="grids"):
            run({"kind": "nrf-sweep"}, out_dir=tmp_path)

    @pytest.mark.parametrize(
        "grid",
        ['["a", 1.0]', "[NaN]", "[1e400]", "[true]", '["2"]'],
        ids=["string", "nan", "overflow", "bool", "numeric-string"],
    )
    def test_bad_grid_entries_rejected_where_they_enter(self, tmp_path, grid):
        text = '{"kind": "separability-sweep", "grids": {"mu_t": %s, "mu_r": [1.0], "n_pdc": [0.5]}}' % grid
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(text)
        proc = run_cli(["validate", str(cfg_path)])
        assert proc.returncode == 1
        assert proc.stderr.startswith("invalid: field grids.mu_t")
        assert "Traceback" not in proc.stderr
        with pytest.raises(ScenarioError, match="grids.mu_t"):
            run(json.loads(text), out_dir=tmp_path / "out")


FAILS_AFTER_VALIDATION = {
    "bool-cutoff": dict(ORACLE, cutoff=True),
    "input-tail": dict(ORACLE, params={"mu_t": 3.0, "mu_r": 0.5, "n_pdc": 0.3}, cutoff=10),
    "trace-deficit": dict(ORACLE, params={"mu_t": 0.5, "mu_r": 0.5, "n_pdc": 3.0}, cutoff=12),
    "sweep-overflow": {"kind": "separability-sweep", "grids": {"mu_t": [1e200], "mu_r": [1e200], "n_pdc": [1e200]}},
}


class TestNoTracebackAfterOk:
    @pytest.mark.parametrize("cfg", FAILS_AFTER_VALIDATION.values(), ids=FAILS_AFTER_VALIDATION.keys())
    def test_run_exits_with_one_line(self, tmp_path, cfg):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        proc = run_cli(["run", str(cfg_path), "--out", str(tmp_path / "o")])
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith(("invalid: field cutoff", "error: "))

    def test_input_tail_rejected_by_validate(self):
        problems = parse_config(FAILS_AFTER_VALIDATION["input-tail"])[1]
        assert problems == ["field cutoff: cutoff 10 too small: input tail 4.224e-02 exceeds 1.000e-04"]

    @pytest.mark.parametrize("name", ["trace-deficit", "sweep-overflow"])
    def test_run_raises_scenario_error(self, tmp_path, name):
        assert parse_config(FAILS_AFTER_VALIDATION[name])[1] == []
        with pytest.raises(ScenarioError):
            run(FAILS_AFTER_VALIDATION[name], out_dir=tmp_path)


class TestRunSweeps:
    def test_nrf_sweep_outputs(self, tmp_path):
        manifest = run(NRF_SWEEP, out_dir=tmp_path)
        assert manifest["passed"]
        csv_path = tmp_path / "correlations.csv"
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "mu_t,mu_r,n_pdc,tau,gamma,nrf,margin,separable"
        assert len(lines) == 1 + 9 * 2
        listed = {entry["path"]: entry["sha256"] for entry in manifest["files"]}
        assert listed["correlations.csv"] == hashlib.sha256(csv_path.read_bytes()).hexdigest()

    def test_reruns_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run(NRF_SWEEP, out_dir=a)
        run(NRF_SWEEP, out_dir=b)
        assert (a / "correlations.csv").read_bytes() == (b / "correlations.csv").read_bytes()

    def test_separability_sweep_schema(self, tmp_path):
        cfg = {
            "kind": "separability-sweep",
            "grids": {"mu_t": [0.0, 1.0], "mu_r": [1.0], "n_pdc": [0.2, 0.5]},
        }
        run(cfg, out_dir=tmp_path)
        lines = (tmp_path / "separability.csv").read_text().splitlines()
        assert lines[0] == "mu_t,mu_r,n_pdc,tau,margin,min_pt_symplectic_eigenvalue,separable"
        assert len(lines) == 5
        # mu_t = 1, mu_r = 1, n_pdc = 0.2 is the only separable point
        flags = [line.rsplit(",", 1)[1] for line in lines[1:]]
        assert flags == ["false", "false", "true", "false"]

    def test_range_grids_serialize_as_plain_numbers(self, tmp_path):
        cfg = {
            "kind": "separability-sweep",
            "grids": {
                "mu_t": {"start": 0.0, "stop": 2.0, "count": 3},
                "mu_r": [1.0],
                "n_pdc": {"start": 0.1, "stop": 1.0, "count": 2, "log": True},
            },
        }
        run(cfg, out_dir=tmp_path)
        body = (tmp_path / "separability.csv").read_text()
        assert "np.float" not in body
        for token in body.splitlines()[1].split(",")[:-1]:
            float(token)

    def test_csv_artifacts_end_lines_in_crlf(self, tmp_path):
        separability = {"kind": "separability-sweep", "grids": {"mu_t": [0.0, 1.0], "mu_r": [1.0], "n_pdc": [0.5]}}
        for i, cfg in enumerate((NRF_SWEEP, separability, GHOST_IMAGE, GHOST_DIFFRACTION)):
            manifest = run(cfg, out_dir=tmp_path / str(i))
            for entry in manifest["files"]:
                if entry["path"].endswith(".csv"):
                    data = (tmp_path / str(i) / entry["path"]).read_bytes()
                    assert data.endswith(b"\r\n") and data.count(b"\n") == data.count(b"\r\n"), entry["path"]

    def test_worker_pool_matches_serial(self, tmp_path):
        serial, pooled = tmp_path / "serial", tmp_path / "pooled"
        run(NRF_SWEEP, out_dir=serial, workers=1)
        run(NRF_SWEEP, out_dir=pooled, workers=2)
        assert (serial / "correlations.csv").read_bytes() == (pooled / "correlations.csv").read_bytes()


class TestRunOracle:
    def test_passing_report(self, tmp_path):
        manifest = run(ORACLE, out_dir=tmp_path)
        report = json.loads((tmp_path / "oracle_report.json").read_text())
        assert report["passed"] and manifest["passed"]
        assert report["max_relative_error"] < 1e-6

    def test_failing_threshold_marks_manifest(self, tmp_path):
        cfg = dict(ORACLE, max_relative_error=1e-18)
        manifest = run(cfg, out_dir=tmp_path)
        assert not manifest["passed"]

    def test_tiny_gain_passes(self, tmp_path):
        # ln cosh of the coupling rounds to 0 here while its tanh does not
        cfg = dict(ORACLE, params={"mu_t": 0.5, "mu_r": 0.5, "n_pdc": 1e-16}, cutoff=40)
        assert run(cfg, out_dir=tmp_path)["passed"]

    def test_bright_seeds_run(self, tmp_path):
        cfg = {"kind": "oracle-validate", "params": {"mu_t": 3, "mu_r": 3, "n_pdc": 1}, "cutoff": 120,
               "max_relative_error": 0.01}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run_main(["run", str(cfg_path), "--out", str(tmp_path / "o")]) == (0, [])
        report = json.loads((tmp_path / "o" / "oracle_report.json").read_text())
        assert report["passed"] and 0.0 < report["trace_deficit"] < 1e-3


class TestRunGhost:
    def test_image_artifacts(self, tmp_path):
        manifest = run(GHOST_IMAGE, out_dir=tmp_path)
        names = sorted(entry["path"] for entry in manifest["files"])
        assert names == ["g2_map.pgm", "image.csv"]
        header = (tmp_path / "g2_map.pgm").read_bytes()[:15]
        assert header.startswith(b"P5\n128 128\n255")
        lines = (tmp_path / "image.csv").read_text().splitlines()
        assert lines[0] == "x_r,value_raw,value_normalized"
        assert len(lines) == 129

    def test_single_reference_pixel_sits_on_the_axis(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(mutated(demo("ghost_image"), {"detector.x_r_count": 1})))
        assert run_main(["run", str(cfg_path), "--out", str(tmp_path / "o")]) == (0, [])
        lines = (tmp_path / "o" / "image.csv").read_text().splitlines()
        assert len(lines) == 2
        assert float(lines[1].split(",")[0]) == 0.0

    def test_f_t_selects_the_collection_lens(self, tmp_path):
        # as in the library, f_t alone selects the lens; the config has no second setting for it
        cfg = demo("ghost_image")
        cfg["geometry"]["f_t"] = 0.1
        assert parse_config(cfg)[0].geometry.f_t == 0.1
        assert parse_config(demo("ghost_image"))[0].geometry.f_t is None
        assert run(cfg, out_dir=tmp_path / "lens")["files"] != run(demo("ghost_image"), out_dir=tmp_path / "plain")["files"]
        for variant in ("object-plane", "fourier-lens"):
            cfg["geometry"]["variant"] = variant
            assert parse_config(cfg)[1] == [
                "field geometry.variant: unknown field; expected one of d1, d2, d3, f_r, f_t, wavelength"
            ]

    @pytest.mark.parametrize("f_t, kernel_calls", [(None, 1), (0.1, 1)], ids=["object-plane-1", "fourier-lens-1"])
    def test_f_t_picks_the_momentum_sum(self, tmp_path, monkeypatch, f_t, kernel_calls):
        # both collection schemes take the FFT kernel on the demo grids: x_t, or the object grid under a lens
        calls, phase_sum = [], ghost._phase_sum
        monkeypatch.setattr(ghost, "_phase_sum", lambda *a: calls.append(a) or phase_sum(*a))
        cfg = demo("ghost_image")
        if f_t is not None:
            cfg["geometry"]["f_t"] = f_t
        run(cfg, out_dir=tmp_path)
        assert len(calls) == kernel_calls

    def test_diffraction_artifacts(self, tmp_path):
        run(GHOST_DIFFRACTION, out_dir=tmp_path)
        lines = (tmp_path / "pattern.csv").read_text().splitlines()
        assert lines[0] == "x_r,value_raw,value_normalized"
        assert len(lines) == 1 + 2 * 128 + 1
        best = max(float(line.split(",")[2]) for line in lines[1:])
        assert best == 1.0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bandwidth", [1e300, -1e300])
    def test_overflowing_sinc_argument_runs(self, tmp_path, bandwidth):
        # bandwidth q^2 overflows to +-inf off q = 0; the sinc takes its limit 0 there
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(mutated(demo("ghost_image"), {"profile": dict(SINC, bandwidth=bandwidth)})))
        assert run_main(["run", str(cfg_path), "--out", str(tmp_path / "o")]) == (0, [])


def pgm_reference(m) -> bytes:
    """The whole-array PGM: round(m / peak * 255) as uint8, dark where peak > 0 fails."""
    peak = m.max()
    with np.errstate(invalid="ignore"):
        pixels = np.round(m / peak * 255).astype(np.uint8) if peak > 0 else np.zeros(m.shape, np.uint8)
    return f"P5\n{m.shape[1]} {m.shape[0]}\n255\n".encode() + pixels.tobytes()


def unit_map(values):
    """The G2Map of a whole array: its rows with a weight of ones."""
    return ghost.G2Map(np.arange(values.shape[0]), np.arange(values.shape[-1]), values, np.ones(values.shape[-1]))


class TestPgmWriter:
    def test_dark_map(self, tmp_path):
        path = tmp_path / "dark.pgm"
        write_pgm(path, unit_map(np.zeros((4, 6))))
        data = path.read_bytes()
        assert data.startswith(b"P5\n6 4\n255\n")
        assert data[-24:] == bytes(24)

    def test_rejects_non_2d(self, tmp_path):
        with pytest.raises(ValueError):
            write_pgm(tmp_path / "x.pgm", unit_map(np.zeros(5)))

    def test_empty_map_raises_before_the_file_is_opened(self, tmp_path):
        with pytest.raises(ValueError):
            write_pgm(tmp_path / "x.pgm", unit_map(np.zeros((0, 3))))
        assert not (tmp_path / "x.pgm").exists()

    def test_any_memory_order_writes_row_major(self, tmp_path):
        m = np.random.default_rng(3).random((5, 8)).T
        assert not m.flags.c_contiguous
        digests = [write_pgm(tmp_path / "f.pgm", unit_map(m)), write_pgm(tmp_path / "c.pgm", unit_map(np.ascontiguousarray(m)))]
        assert (tmp_path / "f.pgm").read_bytes() == (tmp_path / "c.pgm").read_bytes()
        assert digests == [hashlib.sha256((tmp_path / "c.pgm").read_bytes()).hexdigest()] * 2

    @pytest.mark.parametrize(
        "shape, order, fill",
        [
            ((300, 257), "C", None),  # 127 rows a block: 300 is no whole number of blocks
            ((1025, 1025), "C", None),
            ((3, 40000), "C", None),  # one row is wider than a block
            ((200, 300), "F", None),
            ((7, 9), "C", 0.0),  # zero peak
            ((130, 300), "C", math.nan),  # a NaN peak
        ],
        ids=["partial-block", "ghost-map", "wide-row", "fortran", "zero-peak", "nan"],
    )
    def test_matches_whole_array_reference(self, tmp_path, shape, order, fill):
        m = np.asarray(np.random.default_rng(shape[0]).random(shape) * 7.0, order=order)
        if fill is not None:
            m[(0, -1) if math.isnan(fill) else ...] = fill
        path = tmp_path / "m.pgm"
        digest = write_pgm(path, unit_map(m))
        assert path.read_bytes() == pgm_reference(m)
        assert digest == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_peak_memory_is_bounded(self, tmp_path):
        # the map is scaled a block of rows at a time: no full-size float or uint8 copy
        m = np.random.default_rng(5).random((1025, 1025))
        tracemalloc.start()
        try:
            write_pgm(tmp_path / "m.pgm", unit_map(m))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    @settings(max_examples=100, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 70), st.integers(1, 1100)),  # up to 29 rows a block, three blocks
        data=st.data(),
    )
    @example(shape=(3, 4), data=None)
    def test_peak_is_the_max_of_rows_times_weight(self, shape, data):
        # for w >= 0 the rounded product a w never decreases as a grows, so the
        # largest product in a column is its largest row entry times its weight
        n, m = shape
        if data is None:  # a NaN where its column's weight is zero
            rows, weight, nan = np.full(shape, 5e-324), np.array([1.0, 0.0, 0.5, 1e-320]), (2, 1)
        else:
            value = st.one_of(st.just(0.0), st.floats(0.0, 2.2250738585072014e-308, exclude_max=True), st.floats(0.0, 1e300))
            rows = data.draw(hnp.arrays(np.float64, shape, elements=value, fill=value))
            weight = data.draw(hnp.arrays(np.float64, m, elements=st.one_of(st.just(0.0), st.floats(0.0, 1.0)), fill=st.floats(0.0, 1.0)))
            nan = data.draw(st.none() | st.tuples(st.integers(0, n - 1), st.integers(0, m - 1)))
        if nan is not None:
            rows[nan] = np.nan
        g2 = ghost.G2Map(np.arange(n), np.arange(m), rows, weight)
        values = rows * weight
        assert np.asarray(g2.peak).tobytes() == np.asarray(values.max()).tobytes()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "g.pgm")
            write_pgm(path, g2)
            assert path.read_bytes() == pgm_reference(values)



def csv_reference(columns) -> bytes:
    """The CSV that one csv.writer pass gives for the fields write_csv documents."""
    def fields(values):
        values = np.asarray(values)
        if values.dtype == bool:
            return ["true" if v else "false" for v in values.tolist()]
        if values.dtype.kind in "iu":
            return [str(v) for v in values.tolist()]
        return ["" if v != v else repr(v) for v in values.astype(float).tolist()]

    text = io.StringIO(newline="")
    writer = csv.writer(text)
    writer.writerow(list(columns))
    writer.writerows(zip(*(fields(v) for v in columns.values())))
    return text.getvalue().encode()


# few distinct values, so that rows repeat, and the ones with their own repr or bit pattern
SPECIAL_FLOATS = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -2.2250738585072e-308, 1.5, 1e16, 0.1]
FLOAT_POOL = st.lists(st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats()), min_size=1, max_size=12)
INT_POOL = st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=12)
BOOL_POOL = st.lists(st.booleans(), min_size=1, max_size=4)
COLUMN_NAMES = st.text(st.sampled_from("ab_ -.1é\t'"), max_size=4)


@st.composite
def csv_columns(draw):
    """1 to 3 columns of float, int or bool, each a drawn pool of values repeated to the row count."""
    rows = draw(st.one_of(st.sampled_from([0, 1, 255, 256, 257, 600]), st.integers(0, 20)))
    pools = draw(st.lists(st.one_of(FLOAT_POOL, INT_POOL, BOOL_POOL), min_size=1, max_size=3))
    names = draw(st.lists(COLUMN_NAMES, min_size=len(pools), max_size=len(pools), unique=True))
    return {name: np.resize(np.array(pool), rows) for name, pool in zip(names, pools)}


class TestCsvWriter:
    @pytest.mark.parametrize("rows", [0, 1, 255, 256, 257, 1000])
    def test_chunks_make_one_csv(self, tmp_path, rows):
        # the rows go out in chunks of 256; the file must be what one csv.writer pass gives
        rng = np.random.default_rng(rows)
        a, b, c = rng.normal(size=rows), rng.integers(-9, 9, rows), rng.random(rows) < 0.5
        a[::7] = np.nan
        path = tmp_path / "t.csv"
        digest = write_csv(path, {"a": a, "b": b, "c": c})
        text = io.StringIO(newline="")
        writer = csv.writer(text)
        writer.writerow(["a", "b", "c"])
        writer.writerows(("" if x != x else repr(x), str(y), "true" if z else "false")
                         for x, y, z in zip(a.tolist(), b.tolist(), c.tolist()))
        assert path.read_bytes() == text.getvalue().encode()
        assert digest == hashlib.sha256(path.read_bytes()).hexdigest()

    @settings(max_examples=300, deadline=None)
    @given(csv_columns())
    @example({"x": np.full(3, math.nan)})  # each row is one empty field, which csv writes ""
    @example({"": np.zeros(0)})  # so is the header
    @example({"a": np.array([0.0, -0.0, 0.0, math.nan, -0.0]), "b": np.array([1, 1, 2, 1, 2])})
    @example({"t": np.resize(np.array([1.5, math.inf, -math.inf, 5e-324]), 257), "f": np.resize([True, False], 257)})
    def test_matches_csv_module(self, columns):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.csv"
            digest = write_csv(path, columns)
            assert path.read_bytes() == csv_reference(columns)
            assert digest == hashlib.sha256(path.read_bytes()).hexdigest()

    @pytest.mark.parametrize("name", ["a,b", 'a"b', "a\rb", "a\nb"])
    def test_rejects_a_name_that_needs_quoting(self, tmp_path, name):
        with pytest.raises(ValueError, match="would need quoting"):
            write_csv(tmp_path / "t.csv", {"ok": [1.0], name: [2.0]})
        assert not (tmp_path / "t.csv").exists()


def run_cli(args, env_extra=None, cwd=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "thermalpdc", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
    )


# Ghost configs that overflow, each with the head of its one stderr line.  The peak
# amplitude at these couplings is finite, but |F|^2 (or, at 354, the FFT) overflows: run
# used to exit 0 with empty value fields, or end in a traceback under -W error.  The last
# two overflowed in q^2 and in the object grid's scale, and run blamed the profile.  The
# profile is blamed where C(0)^2 overflows (at couplings 300 and 354), the object where it
# is finite: at a 1e152 grating period over a 1.3e154 span, C(0) is about 5.7 and the
# object transform, about 6e153, overflows the map.
OVERFLOWS = {
    "image-coupling-300": ("ghost_image", {"profile": {"type": "constant", "coupling": 300}},
                           "error: field profile: the ghost correlation overflows"),
    "image-coupling-354": ("ghost_image", {"profile": {"type": "constant", "coupling": 354}},
                           "error: field profile: the ghost correlation overflows"),
    "diffraction-coupling-300": ("ghost_diffraction", {"profile": {"type": "constant", "coupling": 300}},
                                 "error: field profile: the ghost correlation overflows"),
    "diffraction-object-transform": ("ghost_diffraction",
                                     {"detector.x_t_span": 1.3e154, "object": {"type": "grating", "period": 1e152},
                                      "profile": {"type": "constant", "n_pdc": 1, "mu_t": 3}},
                                     "error: field object: the ghost correlation overflows"),
    "image-dq": ("ghost_image", {"qgrid.dq": 1e300},
                 "invalid: field qgrid: the largest momentum n_half dq = 5.12e+302 must square to a finite number"),
    "diffraction-x_t_span": ("ghost_diffraction", {"detector.x_t_span": 1e300},
                             "invalid: field detector.x_t_span: the Test grid span 1e+300 must square to a finite number"),
}


class TestCli:
    def test_validate_ok(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(NRF_SWEEP))
        proc = run_cli(["validate", str(cfg_path)])
        assert proc.returncode == 0
        assert proc.stdout.strip() == "ok"

    def test_validate_bad_config(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"kind": "nrf-sweep"}))
        proc = run_cli(["validate", str(cfg_path)])
        assert proc.returncode == 1
        assert "invalid" in proc.stderr

    def test_missing_config_file(self, tmp_path):
        proc = run_cli(["run", str(tmp_path / "absent.json")])
        assert proc.returncode == 2

    def test_run_writes_artifacts(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(NRF_SWEEP))
        out = tmp_path / "results"
        proc = run_cli(["run", str(cfg_path), "--out", str(out)])
        assert proc.returncode == 0, proc.stderr
        assert (out / "manifest.json").exists()
        assert (out / "correlations.csv").exists()

    def test_env_var_sets_output_dir(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(NRF_SWEEP))
        out = tmp_path / "env_results"
        proc = run_cli(["run", str(cfg_path)], env_extra={"THERMALPDC_OUT": str(out)})
        assert proc.returncode == 0, proc.stderr
        assert (out / "manifest.json").exists()

    def test_overflowing_constant_coupling_is_invalid(self, tmp_path):
        # math.cosh(800) overflows: run ended in an OverflowError traceback after validate said ok
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(mutated(demo("ghost_image"), {"profile": {"type": "constant", "coupling": 800}})))
        head = "invalid: field profile: the peak correlation amplitude overflows at coupling 800.0"
        for args in (["validate", str(cfg_path)], ["run", str(cfg_path), "--out", str(tmp_path / "o")]):
            proc = run_cli(args)
            assert proc.returncode == 1
            assert proc.stderr.startswith(head) and len(proc.stderr.splitlines()) == 1
            assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("base, changes, head", OVERFLOWS.values(), ids=OVERFLOWS.keys())
    def test_overflowing_ghost_correlation_is_one_error_line(self, tmp_path, base, changes, head):
        cfg = mutated(demo(base), changes)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        strict = {"PYTHONWARNINGS": "error"}
        validated = run_cli(["validate", str(cfg_path)], strict)
        proc = run_cli(["run", str(cfg_path), "--out", str(tmp_path / "o")], strict)
        if head.startswith("invalid: "):
            assert (validated.returncode, validated.stderr) == (1, proc.stderr)
        else:
            assert validated.stdout == "ok\n"
        assert proc.returncode == 1
        assert proc.stderr.startswith(head)
        assert len(proc.stderr.splitlines()) == 1
        with pytest.raises(ScenarioError, match=re.escape(head.split(": ", 1)[1])):
            run(cfg, out_dir=tmp_path / "lib")

    def test_failing_scenario_exit_code(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(dict(ORACLE, cutoff=30, max_relative_error=1e-18)))
        proc = run_cli(["run", str(cfg_path), "--out", str(tmp_path / "o")])
        assert proc.returncode == 1


DEMO_CONFIGS = Path(__file__).resolve().parents[1] / "demos" / "configs"
DELETE = object()


def demo(name):
    return json.loads((DEMO_CONFIGS / f"{name}.json").read_text())


def mutated(cfg, changes):
    """A deep copy of cfg with each dotted path set to its value, or removed for DELETE."""
    cfg = json.loads(json.dumps(cfg))
    for dotted, value in changes.items():
        *parents, leaf = dotted.split(".")
        node = cfg
        for key in parents:
            node = node[key]
        if value is DELETE:
            del node[leaf]
        else:
            node[leaf] = value
    return cfg


SINC = {"type": "sinc", "kappa0": 0.9, "bandwidth": 1e-10}
RANGE = {"start": 0.0, "stop": 3.0, "count": 4}

# Configs that validated ok before the typed parser, each with the head of
# the one problem it must now report.
REJECTED_AFTER_OK = {
    "x_t_count-string": ("ghost_image", {"detector.x_t_count": "a"}, "field detector.x_t_count: expected an integer"),
    "x_t_count-one": ("ghost_image", {"detector.x_t_count": 1}, "field detector.x_t_count: expected an integer >= 2"),
    "x_r_count-zero": ("ghost_image", {"detector.x_r_count": 0}, "field detector.x_r_count: expected an integer >= 1"),
    "x_t_span-string": ("ghost_image", {"detector.x_t_span": "x"}, "field detector.x_t_span: expected a finite number"),
    "detector-list": ("ghost_image", {"detector": [512]}, "field detector: expected an object"),
    "image-focal": ("ghost_image", {"geometry.f_r": 0.6}, "field geometry.f_r: the fourier branch (f_r = d3)"),
    "image-near-focal": ("ghost_image", {"geometry.f_r": 0.6 * (1 + 1e-7)}, "field geometry.f_r: ill-conditioned"),
    "diffraction-imaging": ("ghost_diffraction", {"geometry.f_r": 0.5}, "field geometry.f_r: the imaging branch (f_r != d3)"),
    "f_t-string": ("ghost_diffraction", {"geometry.f_t": "a"}, "field geometry.f_t: expected a finite number"),
    "f_t-negative": ("ghost_diffraction", {"geometry.f_t": -1}, "field geometry: f_t must be a finite real number > 0"),
    "n_pdc-negative": ("ghost_image", {"profile.n_pdc": -1}, "field profile: n_pdc must be a finite real number >= 0"),
    "coupling-string": (
        "ghost_image", {"profile.n_pdc": DELETE, "profile.coupling": "a"}, "field profile.coupling: expected a finite"
    ),
    "kappa0-string": ("ghost_image", {"profile": dict(SINC, kappa0="a")}, "field profile.kappa0: expected a finite"),
    "bandwidth-nan": ("ghost_image", {"profile": dict(SINC, bandwidth=math.nan)}, "field profile.bandwidth: expected"),
    "width-string": ("ghost_image", {"object.width": "w"}, "field object.width: expected a finite number"),
    "center-string": ("ghost_image", {"object.center": "c"}, "field object.center: expected a finite number"),
    "slits-overlap": ("ghost_image", {"object.separation": 2e-5}, "field object: slits overlap"),
    "duty-two": (
        "ghost_image", {"object": {"type": "grating", "period": 1e-4, "duty": 2}}, "field object: duty must be a finite real number in (0, 1)"
    ),
    "threshold-string": ("oracle_validate", {"max_relative_error": "x"}, "field max_relative_error: expected a finite"),
    "f_t-nan": ("ghost_diffraction", {"geometry.f_t": math.nan}, "field geometry.f_t: expected a finite number"),
    "width-negative": ("ghost_image", {"object.width": -4e-5}, "field object: width must be a finite real number > 0"),
    "period-zero": ("ghost_image", {"object": {"type": "grating", "period": 0}}, "field object: period must be a finite real number > 0"),
    "n_pdc-numeric-string": ("ghost_image", {"profile.n_pdc": "1"}, "field profile.n_pdc: expected a finite number"),
    "n_half-bool": ("ghost_image", {"qgrid.n_half": True}, "field qgrid.n_half: expected an integer"),
    "count-fraction": ("separability_sweep", {"grids.mu_t": dict(RANGE, count=2.7)}, "field grids.mu_t: expected an"),
    "log-string": ("separability_sweep", {"grids.mu_t": dict(RANGE, log="no")}, "field grids.mu_t: expected a bool"),
    "range-typo": ("separability_sweep", {"grids.mu_t": dict(RANGE, lg=True)}, "field grids.mu_t: a range takes"),
    "unknown-cutof": ("oracle_validate", {"cutof": 40}, "field cutof: unknown field"),
    "unknown-threshold": ("oracle_validate", {"max_relative_eror": 1e-3}, "field max_relative_eror: unknown field"),
    # the manifest was all that read seed
    "seed-removed": ("nrf_sweep", {"seed": 0}, "field seed: unknown field"),
}


def run_main(args):
    """main(args) in-process: (exit status, stderr lines)."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        status = main(args)
    return status, err.getvalue().splitlines()


class TestRejectedAfterOk:
    @pytest.mark.parametrize("base, changes, head", REJECTED_AFTER_OK.values(), ids=REJECTED_AFTER_OK.keys())
    def test_validate_names_the_field(self, tmp_path, base, changes, head):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(mutated(demo(base), changes)))
        status, lines = run_main(["validate", str(cfg_path)])
        assert status == 1
        assert len(lines) == 1 and lines[0].startswith(f"invalid: {head}"), lines

    def test_demo_configs_validate(self):
        for path in sorted(DEMO_CONFIGS.glob("*.json")):
            assert parse_config(json.loads(path.read_text()))[1] == [], path.name

    def test_unknown_keys_are_named_once(self):
        cfg = mutated(GHOST_IMAGE, {"profile.n_pfc": 1.0, "object.witdh": 1.0, "extra": {}})
        assert sorted(p.split(":")[0] for p in parse_config(cfg)[1]) == [
            "field extra", "field object.witdh", "field profile.n_pfc",
        ]

    def test_constant_profile_takes_one_gain(self):
        cfg = mutated(GHOST_IMAGE, {"profile.coupling": 0.5})
        assert parse_config(cfg)[1] == ["field profile: a constant profile takes one of n_pdc and coupling"]

    def test_library_checks_report_against_their_section(self, tmp_path):
        sinc = mutated(GHOST_IMAGE, {"profile": dict(SINC, kappa0=-1.0)})
        assert parse_config(sinc)[1] == ["field profile: kappa0 must be a finite real number >= 0, got -1.0"]
        table = tmp_path / "object.csv"
        table.write_text("x,re,im\n0.0,1.0,0.0\n1e-6,1.0\n")
        problems = parse_config(mutated(GHOST_IMAGE, {"object": {"type": "csv", "path": str(table)}}))[1]
        assert problems == [f"field object.path: {table}: row ['1e-6', '1.0'] is not x, re(t), im(t)"]
        table.write_text("x,re,im\n0.0,1.0,0.0\n1e-6,1.0,0.0,99\n")
        problems = parse_config(mutated(GHOST_IMAGE, {"object": {"type": "csv", "path": str(table)}}))[1]
        assert problems == [f"field object.path: {table}: row ['1e-6', '1.0', '0.0', '99'] is not x, re(t), im(t)"]
        # a subnormal dq would make the default x_t span, one transform period, infinite
        tiny_dq = mutated(GHOST_DIFFRACTION, {"qgrid.dq": 1e-320})
        assert parse_config(tiny_dq)[1] == [
            "field qgrid: dq must be a finite real number > 0 with a finite transform period 2 pi / dq, got 1e-320"
        ]
        # the default x_t span, one transform period, must square to a finite number
        assert parse_config(mutated(GHOST_DIFFRACTION, {"qgrid.dq": 1e-160}))[1] == [
            "field qgrid.dq: the Test grid span 6.283185307179587e+160 must square to a finite number"
        ]


class TestHugeGrids:
    @pytest.mark.parametrize("count", [1e15, 10**15], ids=["float", "int"])
    def test_validate_checks_range_bounds_only(self, count):
        cfg = {"kind": "nrf-sweep", "grids": {"mu_t": [1.0], "mu_r": [1.0], "n_pdc": dict(RANGE, count=count)}}
        assert parse_config(cfg)[1] == []

    def test_validate_leaves_momentum_grid_unexpanded(self):
        assert parse_config(mutated(GHOST_DIFFRACTION, {"qgrid.n_half": 10**12}))[1] == []

    def test_out_of_memory_is_one_error_line(self, tmp_path, monkeypatch):
        def exhausted(*args):
            raise MemoryError("Unable to allocate 7.11 PiB for an array")

        monkeypatch.setattr(correlations, "sweep_columns", exhausted)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(NRF_SWEEP))
        status, lines = run_main(["run", str(cfg_path), "--out", str(tmp_path / "o")])
        assert status == 1
        assert lines == ["error: Unable to allocate 7.11 PiB for an array"]


def fuzz_seed(name):
    """A demo config shrunk to a small, fast run."""
    cfg = demo(name)
    cfg.pop("output_dir")
    if "grids" in cfg:
        for axis, spec in cfg["grids"].items():
            cfg["grids"][axis] = dict(spec, count=3) if isinstance(spec, dict) else spec[:3]
    if "cutoff" in cfg:
        cfg["cutoff"] = 12
    if "qgrid" in cfg:
        cfg["qgrid"]["n_half"] = 16
        cfg["detector"] = {key: 33 if key.endswith("count") else v for key, v in cfg["detector"].items()}
    return cfg


FUZZ_SEEDS = [fuzz_seed(path.stem) for path in sorted(DEMO_CONFIGS.glob("*.json"))]
MUTATIONS = {
    "string": "a", "true": True, "false": False, "nan": math.nan, "inf": math.inf, "negative": -1.0, "zero": 0,
    "list": [1.0], "dict": {}, "delete": DELETE, "extra": None,
}


def leaf_paths(node, prefix=()):
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from leaf_paths(value, prefix + (key,))


class TestManifestDigests:
    @pytest.mark.parametrize("cfg", FUZZ_SEEDS, ids=[path.stem for path in sorted(DEMO_CONFIGS.glob("*.json"))])
    def test_recorded_digests_match_the_files(self, tmp_path, cfg):
        # the writers hash the bytes as they write them; reading the files back must agree
        manifest = run(cfg, out_dir=tmp_path)
        assert json.loads((tmp_path / "manifest.json").read_text()) == manifest
        assert "seed" not in manifest
        for entry in manifest["files"]:
            path = tmp_path / entry["path"]
            assert entry["sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()
            assert entry["bytes"] == path.stat().st_size


class TestFuzz:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_one_mutation_is_rejected_or_runs(self, data):
        cfg = json.loads(json.dumps(data.draw(st.sampled_from(FUZZ_SEEDS))))
        path = data.draw(st.sampled_from(sorted(leaf_paths(cfg), key=str)))
        mutation = data.draw(st.sampled_from(sorted(MUTATIONS)))
        parent = cfg
        for key in path[:-1]:
            parent = parent[key]
        if mutation == "delete":
            del parent[path[-1]]
        elif mutation == "extra":
            (parent if isinstance(parent, dict) else cfg)["unexpected"] = 1.0
        else:
            parent[path[-1]] = MUTATIONS[mutation]
        with tempfile.TemporaryDirectory() as tmp:
            cfg_path = Path(tmp) / "cfg.json"
            cfg_path.write_text(json.dumps(cfg))
            status, lines = run_main(["validate", str(cfg_path)])
            if status == 1:
                assert lines and all(line.startswith(("invalid: field ", "invalid: missing field: ")) for line in lines)
                return
            assert status == 0 and lines == []
            status, lines = run_main(["run", str(cfg_path), "--out", str(Path(tmp) / "out")])
        assert status == 0 and lines == [] or status == 1 and len(lines) == 1, lines
        assert status == 0 or lines[0].startswith("error: ") or lines[0] == "scenario check failed"
