import json

from conftest import run_fresh

# scipy is imported by the evaluation's matching alone: its array-API
# layer costs more to load than a small fit takes
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
import mmfit, mmfit.cli
from mmfit import engine
from mmfit.ingest import SyntheticSpec, synthesize, synthesize_two_view
from mmfit.models import ModelType

def fit(model_type, points, **overrides):
    cfg = engine.default_config(model_type, 3.0, max_proposals=200, **overrides)
    return engine.fit(points, model_type, cfg)

for model_type in (ModelType.LINE2D, ModelType.SEGMENT2D, ModelType.PLANE3D,
                   ModelType.FUNDAMENTAL):
    points, labels, _ = synthesize(SyntheticSpec(model_type, 2, 40, 20, 1.0,
                                                 seed=1))
    report = fit(model_type, points)
fit(ModelType.HOMOGRAPHY, synthesize_two_view(2, 40, 20, 1.0, seed=1).points)
spec = SyntheticSpec(ModelType.SEGMENT2D, 2, 40, 20, 1.0, seed=1, clustered=True)
fit(ModelType.SEGMENT2D, synthesize(spec)[0], sampler="cc")
loaded = [sorted(sys.modules)]
engine.misclassification_error(report, labels)
loaded.append(sorted(sys.modules))
print(json.dumps(loaded))
"""


def test_fits_load_no_scipy():
    # a fit of every family with the default sampler, and a cc fit, run on
    # numpy alone; the evaluation loads csgraph's matching
    after_fits, after_eval = json.loads(run_fresh(FITS))
    assert "mmfit.sampling" in after_fits
    assert _heavy(after_fits) == []
    assert "scipy.sparse.csgraph" in after_eval
    assert "scipy.spatial" not in after_eval


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
