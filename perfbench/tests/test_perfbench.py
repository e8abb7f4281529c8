"""Tests of the benchmark itself (not part of the package's test suite).

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import checks, run, workloads  # noqa: E402
from perfbench.tracing import LAYERS, Tracer  # noqa: E402
from thermalpdc import scenario  # noqa: E402


def configs(name, seed, calls=4):
    return [cfg for i in range(calls) for cfg in workloads.WORKLOADS[name].configs(seed, i)]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_generator_is_deterministic_per_seed(name):
    first = [workloads.config_digest(c) for c in configs(name, 7)]
    assert first == [workloads.config_digest(c) for c in configs(name, 7)]
    if name != "demo-suite":
        assert len(set(first)) == len(first), "calls must not repeat inputs"
        assert first != [workloads.config_digest(c) for c in configs(name, 8)]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("seed", [0, 1, 12345])
def test_generated_configs_validate(name, seed):
    for cfg in configs(name, seed, calls=6):
        assert scenario.validate_config(cfg) == []


def test_sweep_grid_has_fixed_size_and_vacuum_rows():
    sep, nrf = configs("sweep", 3, calls=2)
    assert sep["kind"] == "separability-sweep" and nrf["kind"] == "nrf-sweep"
    assert sep["grids"] == nrf["grids"]
    assert workloads.WORKLOADS["sweep"].items(sep) == 8192
    assert all(sep["grids"][axis][0] == 0.0 for axis in ("mu_t", "mu_r", "n_pdc"))


def run_all(cfgs, out: Path, tracer=None):
    manifests = []
    for i, cfg in enumerate(cfgs):
        if tracer is None:
            manifests.append(scenario.run(cfg, out_dir=out / str(i)))
        else:
            with tracer.call(i):
                manifests.append(scenario.run(cfg, out_dir=out / str(i)))
    return manifests


def small_suite():
    """One config of every kind; the ghost image is the matched workload's."""
    return workloads.demo_suite_configs() + [workloads.ghost_config(5, 0), workloads.oracle_config(5, 0)]


def test_tracing_leaves_artifacts_byte_identical(tmp_path):
    cfgs = small_suite()
    plain = run_all(cfgs, tmp_path / "plain")
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_all(cfgs, tmp_path / "traced", tracer)
    finally:
        tracer.uninstall()
    assert [m["files"] for m in plain] == [m["files"] for m in traced]
    layers = tracer.summary()["layers"]
    assert all(layers[name]["calls"] > 0 for name in LAYERS)
    assert all(layers[name]["errors"] == 0 for name in LAYERS)


def test_tracer_discovers_and_restores_functions():
    from thermalpdc import gaussian, ghost

    original = scenario.check_separability_lossy
    magnification = vars(ghost.GhostGeometry)["magnification"]
    tracer = Tracer()
    for _ in range(2):  # installs again after uninstalling
        tracer.install()
        try:
            assert scenario.check_separability_lossy is not original
            assert scenario.check_separability_lossy is gaussian.check_separability_lossy
            assert vars(ghost.GhostGeometry)["magnification"] is not magnification
        finally:
            tracer.uninstall()
        assert scenario.check_separability_lossy is original
        assert vars(ghost.GhostGeometry)["magnification"] is magnification
    assert "gaussian.ModeParams.from_npdc" in tracer.names
    assert "ghost.GhostGeometry.magnification" in tracer.names
    assert "ghost.GhostGeometry" not in tracer.names
    assert len(tracer.names) == len(set(tracer.names))


def test_every_public_thermalpdc_call_has_a_span(tmp_path):
    """Under sys.setprofile, every public function, method or property of a
    layer that runs during a call of every kind gets spans of its own."""
    import thermalpdc

    package = Path(thermalpdc.__file__).resolve().parent
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            path = Path(frame.f_code.co_filename)
            if path.parent == package and path.stem in LAYERS:
                seen.add(f"{path.stem}.{frame.f_code.co_qualname}")

    tracer = Tracer()
    tracer.install()
    sys.setprofile(profile)
    try:
        run_all(small_suite(), tmp_path, tracer)
    finally:
        sys.setprofile(None)
        tracer.uninstall()
    public = {name for name in seen if not any(part[:1] in "_<" for part in name.split("."))}
    traced = {name for name, stats in tracer.summary()["functions"].items() if stats["calls"]}
    assert {"ghost.GhostGeometry.magnification", "scenario.run"} <= public
    assert public - traced == set()


def test_self_times_cover_the_call(tmp_path):
    tracer = Tracer()
    tracer.install()
    try:
        run_all(workloads.demo_suite_configs()[:2], tmp_path, tracer)
    finally:
        tracer.uninstall()
    roots = [i for i, p in enumerate(tracer.parent) if p < 0]
    assert [tracer.names[tracer.fid[i]] for i in roots] == ["scenario.run", "scenario.run"]
    wall = sum(tracer.end[i] - tracer.start[i] for i in roots)
    assert sum(tracer.self_times()) == pytest.approx(wall, rel=1e-9)

    tracer.dump_spans(tmp_path / "spans.npz")
    spans = np.load(tmp_path / "spans.npz")
    assert len(spans["start"]) == len(tracer.fid)
    assert list(spans["names"]) == tracer.names
    assert set(spans["call"]) == {0, 1}
    child = spans["parent"] >= 0
    assert (spans["call"][spans["parent"][child]] == spans["call"][child]).all()
    assert (spans["end"] >= spans["start"]).all()


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    out = tmp_path_factory.mktemp("artifacts")
    cfgs = small_suite() + configs("sweep", 2, calls=2)
    return [(cfg, out / str(i), m) for i, (cfg, m) in enumerate(zip(cfgs, run_all(cfgs, out)))]


def by_kind(artifacts, kind):
    """The last artifact of a kind: the sweep workload's rather than the demo's."""
    return [a for a in artifacts if a[0]["kind"] == kind][-1]


def test_checks_pass_on_the_seed_outputs(artifacts):
    for cfg, out, manifest in artifacts:
        assert checks.check_outputs(cfg, out, manifest) == [], cfg["kind"]


def rewrite_csv(path: Path, edit):
    lines = path.read_text().splitlines()
    path.write_text("\n".join(edit(lines)) + "\n")


def corrupt_and_check(tmp_path, artifact, filename, edit, check):
    cfg, out, _ = artifact
    copy = tmp_path / filename
    copy.write_bytes((out / filename).read_bytes())
    rewrite_csv(copy, edit)
    return check(cfg, copy)


def flip_first_flag(lines):
    row = lines[1].rsplit(",", 1)
    lines[1] = row[0] + ("," + ("false" if row[1] == "true" else "true"))
    return lines


def fill_vacuum_gamma(lines):
    for i, line in enumerate(lines[1:], start=1):
        fields = line.split(",")
        if fields[4] == "":
            fields[4] = "0.5"
            lines[i] = ",".join(fields)
            return lines
    raise AssertionError("no vacuum row")


def shift_column(lines, shift=6, column=2):
    rows = [line.split(",") for line in lines[1:]]
    values = [r[column] for r in rows]
    values = values[-shift:] + values[:-shift]
    for r, v in zip(rows, values):
        r[column] = v
    return lines[:1] + [",".join(r) for r in rows]


@pytest.mark.parametrize(
    "kind, filename, edit",
    [
        ("separability-sweep", "separability.csv", flip_first_flag),
        ("separability-sweep", "separability.csv", lambda lines: lines[:-1]),
        ("nrf-sweep", "correlations.csv", fill_vacuum_gamma),
        ("nrf-sweep", "correlations.csv", flip_first_flag),
    ],
)
def test_sweep_check_rejects_corruption(tmp_path, artifacts, kind, filename, edit):
    cfg = by_kind(artifacts, kind)
    assert corrupt_and_check(tmp_path, cfg, filename, edit, checks.check_sweep_csv)


def test_sweep_check_rejects_wrong_nu_minus(tmp_path, artifacts):
    def bump_nu(lines):
        fields = lines[5].split(",")
        fields[5] = repr(float(fields[5]) * (1.0 + 1e-6))
        lines[5] = ",".join(fields)
        return lines

    artifact = by_kind(artifacts, "separability-sweep")
    assert corrupt_and_check(tmp_path, artifact, "separability.csv", bump_nu, checks.check_sweep_csv)


def test_image_check_rejects_shifted_image(tmp_path):
    # the matched workload's image, not the demo's
    cfg = workloads.ghost_config(5, 0)
    out = tmp_path / "run"
    scenario.run(cfg, out_dir=out)
    assert checks.check_ghost_image(cfg, out / "image.csv") == []
    assert corrupt_and_check(tmp_path, (cfg, out, None), "image.csv", shift_column, checks.check_ghost_image)


def test_diffraction_check_rejects_shifted_pattern(tmp_path, artifacts):
    artifact = by_kind(artifacts, "ghost-diffraction")
    assert corrupt_and_check(tmp_path, artifact, "pattern.csv", shift_column, checks.check_ghost_diffraction)


def test_oracle_and_manifest_checks_reject_corruption(tmp_path, artifacts):
    cfg, out, manifest = by_kind(artifacts, "oracle-validate")
    report = json.loads((out / "oracle_report.json").read_text())
    report["passed"] = False
    bad = tmp_path / "oracle_report.json"
    bad.write_text(json.dumps(report))
    assert checks.check_oracle(bad)
    tampered = dict(manifest, files=[dict(manifest["files"][0], bytes=1)])
    assert checks.check_manifest(out, tampered)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    samples = [float(i) for i in range(1, 101)]
    value, percentile = run.tail(samples)
    assert percentile == 90 and value == 90.0
    assert sum(s > value for s in samples) >= 10
    assert run.tail([3.0, 1.0, 2.0]) == (2.0, 50)
