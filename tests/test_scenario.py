import json
import os
import subprocess
import sys

import numpy as np
import pytest

from thermalpdc.artifacts import sha256_of, write_pgm
from thermalpdc.scenario import ScenarioError, run, validate_config

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
        "f_t": 0.1, "variant": "fourier-lens",
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
            assert validate_config(cfg) == []

    def test_unknown_kind(self):
        problems = validate_config({"kind": "spectroscopy"})
        assert any("kind" in p for p in problems)

    def test_missing_fields_are_named(self):
        problems = validate_config({"kind": "nrf-sweep", "grids": {"mu_t": [1.0]}})
        joined = " ".join(problems)
        assert "grids.mu_r" in joined and "grids.n_pdc" in joined

    def test_bad_tau_range(self):
        cfg = json.loads(json.dumps(NRF_SWEEP))
        cfg["grids"]["tau"] = [0.0]
        assert any("tau" in p for p in validate_config(cfg))

    def test_negative_grid_rejected(self):
        cfg = json.loads(json.dumps(NRF_SWEEP))
        cfg["grids"]["mu_t"] = [-1.0]
        assert any("mu_t" in p for p in validate_config(cfg))

    def test_diffraction_requires_fourier_lens(self):
        cfg = json.loads(json.dumps(GHOST_DIFFRACTION))
        cfg["geometry"]["variant"] = "object-plane"
        assert any("variant" in p for p in validate_config(cfg))

    def test_missing_object_file(self):
        cfg = json.loads(json.dumps(GHOST_IMAGE))
        cfg["object"] = {"type": "csv", "path": "/nonexistent/object.csv"}
        assert any("object.path" in p for p in validate_config(cfg))

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
        problems = validate_config(FAILS_AFTER_VALIDATION["input-tail"])
        assert problems == ["field cutoff: cutoff 10 too small: input tail 4.224e-02 exceeds 1.000e-04"]

    @pytest.mark.parametrize("name", ["trace-deficit", "sweep-overflow"])
    def test_run_raises_scenario_error(self, tmp_path, name):
        assert validate_config(FAILS_AFTER_VALIDATION[name]) == []
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
        assert listed["correlations.csv"] == sha256_of(csv_path)

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

    def test_diffraction_artifacts(self, tmp_path):
        run(GHOST_DIFFRACTION, out_dir=tmp_path)
        lines = (tmp_path / "pattern.csv").read_text().splitlines()
        assert lines[0] == "x_r,value_raw,value_normalized"
        assert len(lines) == 1 + 2 * 128 + 1
        best = max(float(line.split(",")[2]) for line in lines[1:])
        assert best == 1.0


class TestPgmWriter:
    def test_dark_map(self, tmp_path):
        path = tmp_path / "dark.pgm"
        write_pgm(path, np.zeros((4, 6)))
        data = path.read_bytes()
        assert data.startswith(b"P5\n6 4\n255\n")
        assert data[-24:] == bytes(24)

    def test_rejects_non_2d(self, tmp_path):
        with pytest.raises(ValueError):
            write_pgm(tmp_path / "x.pgm", np.zeros(5))


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

    def test_failing_scenario_exit_code(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(dict(ORACLE, cutoff=30, max_relative_error=1e-18)))
        proc = run_cli(["run", str(cfg_path), "--out", str(tmp_path / "o")])
        assert proc.returncode == 1
