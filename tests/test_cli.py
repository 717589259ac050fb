import json
from dataclasses import fields
from pathlib import Path

import jsonschema
import pytest

from mmfit.cli import build_parser, main
from mmfit.engine import EngineConfig
from mmfit.ingest import save_scene, synthesize_two_view
from mmfit.models import ModelType

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
    assert result["wall_time"] == manifest["timing"]["wall_time"]
    assert "fit wall time" in out


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


def test_eval_of_truth_file_uses_epsilon_flag(tmp_path, capsys):
    # synth writes "epsilon": null into the truth file
    scene = _synth(capsys, tmp_path / "scene.csv", "--instances", "3",
                   "--points", "80", "--outliers", "60")
    code, out, err = _run(capsys, "eval", scene,
                          scene.with_suffix(".truth.json"), "--json")
    assert code == 0, err
    result = json.loads(out.strip().splitlines()[-1])
    jsonschema.validate(result, _schema("eval"))
    assert result["me_percent"] < 5.0


def test_eval_of_truth_file_reports_no_fit_time(tmp_path, capsys):
    # the manifest next to the truth file is synth's, not a fit's
    scene = _synth(capsys, tmp_path / "scene.csv", "--instances", "2",
                   "--points", "40")
    code, out, err = _run(capsys, "eval", scene,
                          scene.with_suffix(".truth.json"), "--json")
    assert code == 0, err
    assert json.loads(out.strip().splitlines()[-1])["wall_time"] is None
    assert "fit wall time" not in out


@pytest.mark.parametrize("edit", [
    lambda payload: payload["instances"][0].update(params=[0.0, 1.0]),
    lambda payload: payload["instances"][0].update(params=["a", 1.0, 2.0]),
    lambda payload: payload["instances"][0].pop("params"),
    lambda payload: payload.update(model_type="circle"),
    lambda payload: payload.update(model_type=None),
], ids=["short-params", "text-params", "no-params", "unknown-model-type",
        "null-model-type"])
def test_eval_of_malformed_instances_exits_1(tmp_path, capsys, edit):
    scene = _synth(capsys, tmp_path / "scene.csv", "--instances", "2",
                   "--points", "40")
    payload = json.loads(scene.with_suffix(".truth.json").read_text())
    edit(payload)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    code, _, err = _run(capsys, "eval", scene, bad)
    assert code == 1
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("model_type", [7, None, ["line2d"], "circle"])
def test_fit_of_json_scene_with_bad_model_type_exits_1(tmp_path, capsys,
                                                       model_type):
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps({"model_type": model_type,
                                 "points": [[0.0, 0.0], [1.0, 1.0]]}))
    code, _, err = _run(capsys, "fit", scene, "--out", tmp_path / "fit")
    assert code == 1
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["fit", "pose"])
def test_engine_flag_defaults_are_engine_config_defaults(command):
    args = build_parser().parse_args([command, "scene.csv"])
    flag_of = {"tau": "epsilon_t"}
    for f in fields(EngineConfig):
        if f.name != "loss":
            assert getattr(args, flag_of.get(f.name, f.name)) == f.default, f.name


def _two_view_scene(tmp_path):
    s = synthesize_two_view(2, 60, 20, 1.0, seed=3)
    scene = tmp_path / "pair.csv"
    save_scene(scene, ModelType.HOMOGRAPHY, s.points, labels=s.labels)
    return scene, s


def test_pose_roundtrip_matches_schema(tmp_path, capsys):
    scene, s = _two_view_scene(tmp_path)
    intrinsics = tmp_path / "K.json"
    intrinsics.write_text(json.dumps({"K1": s.K1.tolist()}))
    gt = tmp_path / "gt.json"
    gt.write_text(json.dumps({"R": s.rotation.tolist(),
                              "t": s.translation.tolist()}))
    code, out, err = _run(capsys, "pose", scene, "--intrinsics", intrinsics,
                          "--gt", gt, "--json", "--max-proposals", "500")
    assert code == 0, err
    result = json.loads(out.strip().splitlines()[-1])
    jsonschema.validate(result, _schema("pose"))
    assert result["rotation_error_deg"] < 1.0
    assert result["translation_error_deg"] < 1.0


def test_pose_without_intrinsics_exits_1(tmp_path, capsys):
    scene, _ = _two_view_scene(tmp_path)
    code, _, err = _run(capsys, "pose", scene, "--max-proposals", "50")
    assert code == 1
    assert err.startswith("error:")


def test_fit_svg_draws_every_point(tmp_path, capsys):
    scene = _synth(capsys, tmp_path / "scene.csv", "--instances", "2",
                   "--points", "40", "--outliers", "20")
    svg = tmp_path / "fig" / "scene.svg"
    code, _, _ = _run(capsys, "fit", scene, "--out", tmp_path / "fit",
                      "--svg", svg)
    assert code == 0
    assert svg.read_text().count("<circle") == 100
