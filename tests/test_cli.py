import json
from dataclasses import fields
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from mmfit.cli import _config_dict, build_parser, main
from mmfit.engine import (
    OUTLIER,
    EngineConfig,
    contingency_table,
    default_config,
    fit,
    misclassification_error,
)
from mmfit.ingest import (
    blur_kernel_to_points,
    load_scene,
    save_scene,
    synthesize_two_view,
)
from mmfit.models import ModelType, PointSet

from test_ingest import render_segments, write_pgm

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
    synth_manifest = json.loads((tmp_path / "manifest.json").read_text())
    jsonschema.validate(synth_manifest, _schema("manifest"))
    assert synth_manifest["command"] == "synth"

    out_dir = tmp_path / "fit"
    code, out, _ = _run(capsys, "fit", scene, "--out", out_dir, "--json",
                        "--seed", "1")
    assert code == 0
    printed = json.loads(out.strip().splitlines()[-1])
    written = json.loads((out_dir / "instances.json").read_text())
    assert printed == written
    jsonschema.validate(written, _schema("instances"))
    assert len(written["instances"]) == 3
    assert written["stop_reason"] == "criterion"

    manifest = json.loads((out_dir / "manifest.json").read_text())
    jsonschema.validate(manifest, _schema("manifest"))
    assert manifest["config"]["seed"] == 1
    for removed in ("tau_semantics", "k_counts", "batch_size"):
        assert removed not in manifest["config"]
    # the schema admits exactly the keys _config_dict writes
    manifest["config"]["batch_size"] = 10
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(manifest, _schema("manifest"))
    fit_keys = _schema("manifest")["$defs"]["fit_config"]["properties"]
    assert set(fit_keys) == set(_config_dict(default_config(
        ModelType.LINE2D, 3.0)))

    code, out, _ = _run(capsys, "eval", scene, out_dir / "instances.json",
                        "--json")
    assert code == 0
    result = json.loads(out.strip().splitlines()[-1])
    jsonschema.validate(result, _schema("eval"))
    assert result["me_percent"] < 10.0
    assert len(result["per_instance"]) == 3
    assert result["wall_time"] == manifest["timing"]["wall_time"]
    assert "fit wall time" in out
    # the library's fit of the same scene and seed scores the same
    model_type, points, labels, _ = load_scene(scene)
    report = fit(points, model_type, default_config(model_type, 3.0, seed=1))
    me = misclassification_error(report, labels)
    assert result["me_percent"] == round(me * 100.0, 10)
    # and the same as scipy's dense assignment solver gives
    pred = report.min_residual_assignment
    table = contingency_table(pred, labels)[2]
    rows, cols = linear_sum_assignment(-table)
    correct = table[rows, cols].sum() + np.sum((pred == OUTLIER) & (labels == 0))
    assert result["me_percent"] == round((1.0 - correct / len(labels)) * 100.0, 10)
    for row in result["per_instance"]:
        assert row["matched_label"] is not None
        hit = np.sum((pred == row["instance"]) & (labels == row["matched_label"]))
        assert row["precision"] == hit / np.sum(pred == row["instance"])
        assert row["recall"] == hit / np.sum(labels == row["matched_label"])


def test_fit_pure_outlier_scene_exits_2(tmp_path, capsys):
    scene = _synth(capsys, tmp_path / "noise.csv", "--instances", "0",
                   "--outliers", "150")
    code, out, _ = _run(capsys, "fit", scene, "--out", tmp_path / "fit",
                        "--json")
    assert code == 2
    payload = json.loads(out.strip().splitlines()[-1])
    jsonschema.validate(payload, _schema("instances"))
    assert payload["instances"] == []


# the CC radii are multiples of epsilon, so a zero, negative, infinite or
# NaN radius is such an epsilon
@pytest.mark.parametrize("flags", [
    ["--sampler", "cc", "--epsilon", "0"],
    ["--epsilon", "0"],
    ["--sampler", "cc", "--epsilon", "-3"],
    ["--epsilon", "nan"],
    ["--epsilon", "inf"],
    ["--q-min", "nan"],
    ["--sampler", "cc", "--epsilon", "inf"],
    ["--sampler", "cc", "--epsilon", "nan"],
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
                                         ("--k-counts", "iterations"),
                                         ("--r-min", "20"), ("--r-max", "200"),
                                         ("--n-steps", "5"),
                                         ("--batch-size", "5"),
                                         ("--reproj-eps", "4")])
def test_removed_flags_rejected(tmp_path, capsys, flag, value):
    # the pose's reprojection tolerance is a multiple of --epsilon
    for command in ("fit", "pose"):
        with pytest.raises(SystemExit) as exc:
            main([command, str(tmp_path / "scene.csv"), flag, value])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_prosac_sampler_is_no_choice(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fit", str(tmp_path / "scene.csv"), "--sampler", "prosac"])
    assert exc.value.code == 2
    assert "invalid choice: 'prosac'" in capsys.readouterr().err


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


@pytest.mark.parametrize("edit, flags", [
    (lambda payload: payload["instances"][0].update(params=[0.0, 1.0]), []),
    (lambda payload: payload["instances"][0].update(params=["a", 1.0, 2.0]),
     []),
    (lambda payload: payload["instances"][0].pop("params"), []),
    (lambda payload: payload.update(model_type="circle"), []),
    (lambda payload: payload.update(model_type=None), []),
    (lambda payload: payload.update(epsilon="abc"), []),
    (lambda payload: payload.update(epsilon=float("nan")), []),
    (lambda payload: payload.update(epsilon=-1.0), []),
    (lambda payload: payload.update(epsilon=[3.0]), []),
    (lambda payload: None, ["--epsilon", "nan"]),
    (lambda payload: None, ["--epsilon", "inf"]),
    (lambda payload: None, ["--epsilon", "0"]),
], ids=["short-params", "text-params", "no-params", "unknown-model-type",
        "null-model-type", "text-epsilon", "nan-epsilon", "negative-epsilon",
        "list-epsilon", "nan-epsilon-flag", "inf-epsilon-flag",
        "zero-epsilon-flag"])
def test_eval_of_malformed_instances_exits_1(tmp_path, capsys, edit, flags):
    scene = _synth(capsys, tmp_path / "scene.csv", "--instances", "2",
                   "--points", "40")
    payload = json.loads(scene.with_suffix(".truth.json").read_text())
    edit(payload)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    code, _, err = _run(capsys, "eval", scene, bad, *flags)
    assert code == 1
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("manifest", [
    "[]", "not json", '{"command": "fit", "outputs": ["instances.json"]}',
    '{"command": "fit", "outputs": ["instances.json"], "timing": []}',
    '{"command": "fit", "outputs": ["instances.json"],'
    ' "timing": {"wall_time": "fast"}}',
    '{"command": "fit", "outputs": 7, "timing": {"wall_time": 1.5}}',
], ids=["list", "text", "no-timing", "list-timing", "text-wall-time",
        "number-outputs"])
def test_eval_with_malformed_manifest_reports_no_fit_time(tmp_path, capsys,
                                                          manifest):
    scene = _synth(capsys, tmp_path / "scene.csv", "--instances", "2",
                   "--points", "40")
    out_dir = tmp_path / "fit"
    code, _, _ = _run(capsys, "fit", scene, "--out", out_dir)
    assert code == 0
    (out_dir / "manifest.json").write_text(manifest)
    code, out, err = _run(capsys, "eval", scene, out_dir / "instances.json",
                          "--json")
    assert code == 0, err
    assert json.loads(out.strip().splitlines()[-1])["wall_time"] is None
    assert "fit wall time" not in out


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


_POINTS = [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]


@pytest.mark.parametrize("name, text", [
    ("scene.json", json.dumps({"model_type": "line2d", "points": _POINTS,
                               "scores": ["x", 1, 2]})),
    ("scene.json", json.dumps({"model_type": "line2d", "points": _POINTS,
                               "scores": [0.5, 1.0]})),
    ("scene.json", json.dumps({"model_type": "line2d", "points": _POINTS,
                               "labels": [1, "a", 0]})),
    ("scene.json", json.dumps({"model_type": "line2d", "points": _POINTS,
                               "labels": [1, 1]})),
    ("scene.json", json.dumps([1, 2])),
    ("scene.json", json.dumps({"model_type": "line2d", "points": {"x": 0.0}})),
    ("scene.csv", "line2d,2\n0.0,0.0\nnan,1.0\n2.0,2.0\n"),
    ("scene.csv", "line2d,2,labeled\n0.0,0.0,1\n1.0,1.0,inf\n"),
    ("scene.csv", "line2d,2,labeled\n0.0,0.0,1\n1.0,1.0,1.7\n2.0,2.0,0\n"),
    ("scene.json", json.dumps({"model_type": "line2d", "points": _POINTS,
                               "labels": [1.5, 0, 1]})),
    ("scene.csv", "line2d,2,labeled\n0.0,0.0,1\n1.0,1.0,1e300\n"),
], ids=["text-scores", "short-scores", "text-labels", "short-labels",
        "array-scene", "object-points", "nan-coordinate", "inf-label",
        "fractional-csv-label", "fractional-json-label", "overflowing-label"])
def test_fit_of_malformed_scene_exits_1_before_writing(tmp_path, capsys, name,
                                                       text):
    scene = tmp_path / name
    scene.write_text(text)
    out_dir = tmp_path / "fit"
    code, _, err = _run(capsys, "fit", scene, "--out", out_dir)
    assert code == 1
    assert err.startswith("error:")
    assert "Traceback" not in err
    assert not out_dir.exists()


@pytest.mark.parametrize("model, flags, n_points", [
    ("segment2d", ["--instances", "0", "--clustered"], 0),
    ("homography", ["--instances", "2", "--points", "0", "--sigma", "1"], 0),
    ("fundamental", ["--instances", "2", "--points", "0", "--sigma", "1"], 0),
    ("homography", ["--instances", "2", "--points", "0", "--outliers", "5"], 5),
], ids=["segments-none-clustered", "homography-no-points",
        "fundamental-no-points", "homography-outliers-only"])
def test_synth_of_empty_structures_writes_a_scene(tmp_path, capsys, model,
                                                  flags, n_points):
    out = tmp_path / "scene.csv"
    code, _, err = _run(capsys, "synth", "--model", model, "--out", out, *flags)
    assert code == 0, err
    model_type, points, labels, _ = load_scene(out)
    assert model_type is ModelType.from_string(model)
    assert points.coords.shape == (n_points, model_type.dim)
    assert labels.tolist() == [0] * n_points


@pytest.mark.parametrize("command", ["fit", "pose"])
def test_engine_flag_defaults_are_engine_config_defaults(command):
    args = build_parser().parse_args([command, "scene.csv"])
    flag_of = {"tau": "epsilon_t"}
    for f in fields(EngineConfig):
        if f.name != "loss":
            assert getattr(args, flag_of.get(f.name, f.name)) == f.default, f.name


def test_fit_unit_scale_scene_keeps_the_pixel_count(tmp_path, capsys):
    # the benchmark's H4 scene in pixels and divided by 1024, fitted at
    # epsilon 3 and 3 / 1024: the sample screen and the fit scale with
    # epsilon, so both find the same instances
    s = synthesize_two_view(4, 150, 200, 1.0, seed=1)
    counts = []
    for name, scale, eps in (("pixels", 1.0, "3"),
                             ("unit", 1024.0, "0.0029296875")):
        scene = tmp_path / f"{name}.csv"
        save_scene(scene, ModelType.HOMOGRAPHY,
                   PointSet(s.points.coords / scale))
        out_dir = tmp_path / name
        code, _, _ = _run(capsys, "fit", scene, "--out", out_dir,
                          "--epsilon", eps, "--max-proposals", "300")
        assert code == 0
        written = json.loads((out_dir / "instances.json").read_text())
        jsonschema.validate(written, _schema("instances"))
        counts.append(len(written["instances"]))
    assert counts[0] > 0 and counts[1] == counts[0]


def test_fit_help_lists_no_radius_flags(capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["fit", "--help"])
    assert exc.value.code == 0
    usage = capsys.readouterr().out
    assert "--epsilon" in usage and "CC radii" in usage
    assert "--r-min" not in usage and "--n-steps" not in usage


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


_K = [[800.0, 0.0, 320.0], [0.0, 800.0, 240.0], [0.0, 0.0, 1.0]]
_BAD_INTRINSICS = {
    "no-K1": {"K2": _K},
    "text-entry": {"K1": [[800.0, "a", 320.0], *_K[1:]]},
    "null-entry": {"K1": [[800.0, None, 320.0], *_K[1:]]},
    "nan-entry": {"K1": [[float("nan"), 0.0, 320.0], *_K[1:]]},
    "inf-in-K2": {"K1": _K, "K2": [[float("inf"), 0.0, 320.0], *_K[1:]]},
    "not-an-object": [_K],
}
_CORRESPONDENCES = [[0.0, 0.0, 1.0, 1.0], [10.0, 0.0, 11.0, 1.0],
                    [0.0, 10.0, 1.0, 11.0], [10.0, 10.0, 11.0, 11.0],
                    [5.0, 3.0, 6.0, 4.0]]


def _assert_error_exit(code, out, err):
    assert code == 1
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("intrinsics", _BAD_INTRINSICS.values(),
                         ids=_BAD_INTRINSICS.keys())
def test_fit_of_json_scene_with_bad_intrinsics_exits_1(tmp_path, capsys,
                                                       intrinsics):
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps({"model_type": "homography",
                                 "points": _CORRESPONDENCES,
                                 "intrinsics": intrinsics}))
    out_dir = tmp_path / "fit"
    _assert_error_exit(*_run(capsys, "fit", scene, "--out", out_dir))
    assert not out_dir.exists()


@pytest.mark.parametrize("intrinsics", _BAD_INTRINSICS.values(),
                         ids=_BAD_INTRINSICS.keys())
def test_fit_of_csv_scene_with_bad_intrinsics_file_exits_1(tmp_path, capsys,
                                                           intrinsics):
    (tmp_path / "K.json").write_text(json.dumps(intrinsics))
    scene = tmp_path / "scene.csv"
    scene.write_text("homography,4,intrinsics=K.json\n" + "".join(
        ",".join(map(str, row)) + "\n" for row in _CORRESPONDENCES))
    out_dir = tmp_path / "fit"
    _assert_error_exit(*_run(capsys, "fit", scene, "--out", out_dir))
    assert not out_dir.exists()


@pytest.mark.parametrize("intrinsics", _BAD_INTRINSICS.values(),
                         ids=_BAD_INTRINSICS.keys())
def test_pose_with_bad_intrinsics_file_exits_1(tmp_path, capsys, intrinsics):
    scene, _ = _two_view_scene(tmp_path)
    path = tmp_path / "K.json"
    path.write_text(json.dumps(intrinsics))
    code, out, err = _run(capsys, "pose", scene, "--intrinsics", path,
                          "--json", "--max-proposals", "50")
    _assert_error_exit(code, out, err)
    assert out == ""


_BAD_GT = {
    "no-R": {"t": [0.0, 0.0, 1.0]},
    "2x2-R": {"R": [[1.0, 0.0], [0.0, 1.0]], "t": [0.0, 0.0, 1.0]},
    "not-an-object": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
    "nan-in-t": {"R": np.eye(3).tolist(), "t": [0.0, float("nan"), 1.0]},
}


@pytest.mark.parametrize("gt", _BAD_GT.values(), ids=_BAD_GT.keys())
def test_pose_with_bad_gt_file_exits_1(tmp_path, capsys, gt):
    scene, s = _two_view_scene(tmp_path)
    intrinsics = tmp_path / "K.json"
    intrinsics.write_text(json.dumps({"K1": s.K1.tolist()}))
    path = tmp_path / "gt.json"
    path.write_text(json.dumps(gt))
    code, out, err = _run(capsys, "pose", scene, "--intrinsics", intrinsics,
                          "--gt", path, "--json", "--max-proposals", "50")
    _assert_error_exit(code, out, err)
    assert out == ""


_BAD_SEED_OR_SYNTHESIS = {
    "fit-seed": ("fit", ["--seed", "-1"]),
    "pose-seed": ("pose", ["--seed", "-1"]),
    "synth-seed": ("synth", ["--seed", "-1"]),
    "synth-nan-sigma": ("synth", ["--sigma", "nan"]),
    "synth-inf-extent": ("synth", ["--extent", "inf"]),
    "synth-nan-extent": ("synth", ["--extent", "nan"]),
    "synth-homography-seed": ("synth", ["--model", "homography", "--seed", "-1"]),
}


@pytest.mark.parametrize("command, flags", _BAD_SEED_OR_SYNTHESIS.values(),
                         ids=_BAD_SEED_OR_SYNTHESIS.keys())
def test_bad_seed_or_synthesis_parameter_exits_1(tmp_path, capsys, command,
                                                 flags):
    scene, s = _two_view_scene(tmp_path)
    intrinsics = tmp_path / "K.json"
    intrinsics.write_text(json.dumps({"K1": s.K1.tolist()}))
    out_path = tmp_path / "out"
    argv = {"fit": [scene, "--out", out_path],
            "pose": [scene, "--intrinsics", intrinsics, "--json",
                     "--max-proposals", "50"],
            "synth": ["--model", "line2d", "--out", out_path]}[command]
    code, out, err = _run(capsys, command, *argv, *flags)
    _assert_error_exit(code, out, err)
    assert out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["K.json", "pair.csv"]


def test_fit_of_kernel_draws_one_line_per_instance(tmp_path, capsys):
    kernel = tmp_path / "kernel.pgm"
    write_pgm(kernel, render_segments([((5.0, 5.0), (55.0, 10.0)),
                                       ((10.0, 50.0), (50.0, 25.0))], (60, 60)))
    svg = tmp_path / "kernel.svg"
    code, out, _ = _run(capsys, "fit", kernel, "--kernel", "--out",
                        tmp_path / "fit", "--svg", svg, "--json")
    assert code == 0
    payload = json.loads(out.strip().splitlines()[-1])
    jsonschema.validate(payload, _schema("instances"))
    assert payload["model_type"] == "segment2d"
    assert payload["n_points"] == len(blur_kernel_to_points(kernel))
    drawing = svg.read_text()
    assert drawing.count("<line") == len(payload["instances"]) > 0
    assert drawing.count("<circle") == payload["n_points"]


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("model", ["segment2d", "line2d"])
def test_fit_of_kernel_finds_both_segments(tmp_path, capsys, model, seed):
    # the kernel's points come in raster order, all at intensity 1; the
    # default P-NAPSAC draws its centres uniformly all the same
    kernel = tmp_path / "kernel.pgm"
    write_pgm(kernel, render_segments([((5.0, 5.0), (55.0, 10.0)),
                                       ((10.0, 50.0), (50.0, 25.0))], (60, 60)))
    out_dir = tmp_path / "fit"
    code, out, _ = _run(capsys, "fit", kernel, "--kernel", "--model", model,
                        "--seed", str(seed), "--out", out_dir, "--json")
    assert code == 0
    payload = json.loads(out.strip().splitlines()[-1])
    assert len(payload["instances"]) == 2 and payload["n_points"] == 198
    rows = (out_dir / "assignment.csv").read_text().splitlines()[1:]
    assert len(rows) == 198
    assert all(row.endswith(",0") for row in rows)    # no point is an outlier


@pytest.mark.parametrize("pixel", ["nan", "-3", "999"])
def test_fit_of_kernel_with_bad_pixel_exits_1(tmp_path, capsys, pixel):
    kernel = tmp_path / "kernel.pgm"
    kernel.write_text(f"P2\n3 2\n255\n0 255 {pixel}\n255 0 255\n")
    code, out, err = _run(capsys, "fit", kernel, "--kernel", "--out",
                          tmp_path / "fit")
    _assert_error_exit(code, out, err)
    assert "pixels must be whole numbers in [0, 255]" in err
    assert not (tmp_path / "fit").exists()


def test_eval_of_unlabeled_scene_exits_1(tmp_path, capsys):
    scene = _synth(capsys, tmp_path / "scene.csv", "--instances", "2",
                   "--points", "30")
    model_type, points, _, _ = load_scene(scene)
    bare = tmp_path / "bare.csv"
    save_scene(bare, model_type, points)
    code, out, err = _run(capsys, "eval", bare, scene.with_suffix(".truth.json"))
    _assert_error_exit(code, out, err)


def test_fit_svg_draws_every_point(tmp_path, capsys):
    scene = _synth(capsys, tmp_path / "scene.csv", "--instances", "2",
                   "--points", "40", "--outliers", "20")
    svg = tmp_path / "fig" / "scene.svg"
    code, _, _ = _run(capsys, "fit", scene, "--out", tmp_path / "fit",
                      "--svg", svg)
    assert code == 0
    assert svg.read_text().count("<circle") == 100
