import json

from conftest import run_fresh

# no module of the package imports scipy, the evaluation included: its
# array-API layer costs more to load than a small fit takes, and about
# 30 MiB of memory
HEAVY = ("scipy",)


def _heavy(modules):
    return [m for m in modules
            if m in HEAVY or m.startswith(tuple(h + "." for h in HEAVY))]


def test_package_import_leaves_out_heavy_scipy():
    out = run_fresh("import sys, mmfit, mmfit.cli\n"
                    "print('\\n'.join(sorted(sys.modules)))").split()
    assert "mmfit.cli" in out
    assert _heavy(out) == []


FITS = """
import json, sys
sys.modules["scipy"] = None    # every import of scipy now raises ImportError
from pathlib import Path
from mmfit import cli, engine
from mmfit.ingest import (SyntheticSpec, save_scene, synthesize,
                          synthesize_two_view)
from mmfit.models import ModelType

def fit(model_type, points, **overrides):
    cfg = engine.default_config(model_type, 3.0, max_proposals=200, **overrides)
    return engine.fit(points, model_type, cfg)

for model_type in (ModelType.LINE2D, ModelType.SEGMENT2D, ModelType.PLANE3D,
                   ModelType.FUNDAMENTAL):
    points, labels, _ = synthesize(SyntheticSpec(model_type, 2, 40, 20, 1.0,
                                                 seed=1))
    report = fit(model_type, points)
    engine.misclassification_error(report, labels)
fit(ModelType.HOMOGRAPHY, synthesize_two_view(2, 40, 20, 1.0, seed=1).points)
spec = SyntheticSpec(ModelType.SEGMENT2D, 2, 40, 20, 1.0, seed=1, clustered=True)
fit(ModelType.SEGMENT2D, synthesize(spec)[0], sampler="cc")
# the CLI on the loop's last scene, a labelled F scene
scene, out = Path(TMP, "scene.csv"), Path(TMP, "out")
save_scene(scene, ModelType.FUNDAMENTAL, points, labels)
assert cli.main(["fit", str(scene), "--max-proposals", "200",
                 "--out", str(out)]) == 0
assert cli.main(["eval", str(scene), str(out / "instances.json"),
                 "--json"]) == 0
print(json.dumps(sorted(m for m, mod in sys.modules.items() if mod)))
"""


def test_fits_load_no_scipy(tmp_path):
    # with scipy blocked, a fit of every family with the default sampler, a
    # cc fit, the evaluation, and mmfit fit and eval --json on a labelled
    # scene run: the package needs numpy alone
    *_, evaluated, loaded = run_fresh(f"TMP = {str(tmp_path)!r}\n" + FITS
                                      ).splitlines()
    assert {"mmfit.cli", "mmfit.sampling"} <= set(json.loads(loaded))
    assert json.loads(evaluated)["me_percent"] >= 0.0


def test_cli_cc_fit_loads_no_scipy(tmp_path):
    # a scene without labels: mmfit fit runs no evaluation
    out = run_fresh(f"""
import sys
from mmfit import cli
from mmfit.ingest import SyntheticSpec, save_scene, synthesize
from mmfit.models import ModelType
spec = SyntheticSpec(ModelType.SEGMENT2D, 2, 40, 20, 1.0, seed=1, clustered=True)
save_scene({str(tmp_path / "scene.csv")!r}, ModelType.SEGMENT2D, synthesize(spec)[0])
assert cli.main(["fit", {str(tmp_path / "scene.csv")!r}, "--sampler", "cc",
                 "--out", {str(tmp_path / "out")!r}]) == 0
print("\\n".join(sorted(sys.modules)))
""").split()
    assert "mmfit.sampling" in out and (tmp_path / "out").is_dir()
    assert _heavy(out) == []
