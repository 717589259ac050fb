import json
from pathlib import Path

import jsonschema
import pytest

from mmfit.cli import main

SCHEMAS = Path(__file__).resolve().parent.parent / "schemas"


def _schema(name):
    return json.loads((SCHEMAS / f"{name}.schema.json").read_text())


def _run(capsys, *argv):
    code = main([str(a) for a in argv])
    out, err = capsys.readouterr()
    return code, out, err


def _synth(capsys, path, *extra):
    code, _, _ = _run(capsys, "synth", "--model", "line2d", "--sigma", "1.0",
                      "--seed", "3", "--out", path, *extra)
    assert code == 0
    return path


def test_synth_fit_eval_roundtrip_matches_schemas(tmp_path, capsys):
    scene = _synth(capsys, tmp_path / "scene.csv", "--instances", "3",
                   "--points", "80", "--outliers", "60")
    truth = json.loads(scene.with_suffix(".truth.json").read_text())
    jsonschema.validate(truth, _schema("instances"))

    out_dir = tmp_path / "fit"
    code, out, _ = _run(capsys, "fit", scene, "--out", out_dir, "--json",
                        "--seed", "1")
    assert code == 0
    printed = json.loads(out.strip().splitlines()[-1])
    written = json.loads((out_dir / "instances.json").read_text())
    assert printed == written
    jsonschema.validate(written, _schema("instances"))
    assert len(written["instances"]) == 3

    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["config"]["seed"] == 1
    assert "tau_semantics" not in manifest["config"]
    assert "k_counts" not in manifest["config"]

    code, out, _ = _run(capsys, "eval", scene, out_dir / "instances.json",
                        "--json")
    assert code == 0
    result = json.loads(out.strip().splitlines()[-1])
    jsonschema.validate(result, _schema("eval"))
    assert result["me_percent"] < 10.0
    assert len(result["per_instance"]) == 3


def test_fit_pure_outlier_scene_exits_2(tmp_path, capsys):
    scene = _synth(capsys, tmp_path / "noise.csv", "--instances", "0",
                   "--outliers", "150")
    code, out, _ = _run(capsys, "fit", scene, "--out", tmp_path / "fit",
                        "--json")
    assert code == 2
    payload = json.loads(out.strip().splitlines()[-1])
    jsonschema.validate(payload, _schema("instances"))
    assert payload["instances"] == []


@pytest.mark.parametrize("flags", [
    ["--sampler", "cc", "--r-min", "0"],
    ["--r-max", "0"],
    ["--sampler", "cc", "--n-steps", "0"],
])
def test_fit_bad_sampler_radii_exit_1(tmp_path, capsys, flags):
    scene = _synth(capsys, tmp_path / "scene.csv", "--instances", "1",
                   "--points", "30")
    code, _, err = _run(capsys, "fit", scene, "--out", tmp_path / "fit",
                        *flags)
    assert code == 1
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("flag, value", [("--tau-semantics", "distance"),
                                         ("--k-counts", "iterations")])
def test_removed_flags_rejected(tmp_path, capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["fit", str(tmp_path / "scene.csv"), flag, value])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
