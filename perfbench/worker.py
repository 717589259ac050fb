"""One benchmark process: set up, fit the workload's scenes, check outputs.

Run by perfbench/run.py in a fresh interpreter with `src` on PYTHONPATH.
With --mode setup it only sets up and reports the set-up time; with --mode
run it also fits the pinned scenes one at a time, in rounds over all of
them while another round fits in --seconds, and checks every output. With
--trace 1 each round is fitted twice: untraced, then under span tracing.
The result is the last line of standard output, as one JSON object.
"""
import time

# Set-up time starts before the package (and numpy, scipy) is imported.
T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from mmfit import NoValidPose, engine, ingest, pose  # noqa: E402

import reference  # noqa: E402
import spans  # noqa: E402
from workloads import WARMUP_MAX_PROPOSALS, WORKLOADS  # noqa: E402


def output_errors(outcome, scene) -> list[str]:
    """Structural checks on one top-level call's outputs."""
    report = outcome.report
    n, k = len(scene.points), len(report.instances)
    errors = []
    if k == 0:
        errors.append("no instance found")
    a = np.asarray(report.min_residual_assignment)
    if a.shape != (n,) or not np.issubdtype(a.dtype, np.integer):
        errors.append(f"assignment has shape {a.shape} and dtype {a.dtype}")
    elif a.size and (a.min() < -1 or a.max() >= k):
        errors.append("assignment value outside [-1, k)")
    L = np.asarray(report.loss_matrix)
    if L.shape != (k, n):
        errors.append(f"loss_matrix has shape {L.shape}, want {(k, n)}")
    elif not (np.all(np.isfinite(L)) and np.all((L >= 0) & (L <= 1))):
        errors.append("loss_matrix value outside [0, 1]")
    if not all(np.all(np.isfinite(h.params)) for h in report.instances):
        errors.append("non-finite model parameters")
    if outcome.pose is not None:
        R, t = outcome.pose.rotation, outcome.pose.translation
        if (np.linalg.norm(R.T @ R - np.eye(3)) > 1e-6
                or abs(np.linalg.det(R) - 1.0) > 1e-6):
            errors.append("pose rotation is not a rotation")
        if not np.all(np.isfinite(t)):
            errors.append("pose translation is not finite")
    return errors


def digest(outcome) -> str:
    """SHA-256 of the seeded output: the report without timing, plus the
    pose when there is one."""
    payload = outcome.report.to_dict()
    if outcome.pose is not None:
        payload["pose"] = {"rotation": outcome.pose.rotation.tolist(),
                           "translation": outcome.pose.translation.tolist()}
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def accuracy(outcome, scene) -> dict:
    true_count = len(set(scene.labels.tolist()) - {0})
    out = {
        "me_pct": engine.misclassification_error(outcome.report,
                                                 scene.labels) * 100.0,
        "count_err": abs(len(outcome.report.instances) - true_count),
    }
    if outcome.pose is not None:
        out["rot_err_deg"] = pose.rotation_error_deg(outcome.pose.rotation,
                                                     scene.rotation)
        out["t_err_deg"] = pose.translation_error_deg(
            outcome.pose.translation, scene.translation)
    return out


class Run:
    """Fits, their checks and their per-scene results for one process."""

    def __init__(self, workload, scenes, reference_times):
        self.workload = workload
        self.scenes = scenes
        self.reference_times = reference_times
        self.attempted = 0
        self.failed = 0             # fits that raised or failed a check
        self.failures = []
        self.digests = {}           # scene seed -> digest of its first fit
        self.accuracy = {}          # scene seed -> accuracy of its first fit
        self.nondeterministic = []

    def fit_round(self, cfg) -> tuple[list[float], list[float], list]:
        """Fit every scene once, timing the reference work after each call.
        Returns, for the calls that returned, their wall times, the same
        times scaled by the mean reference time before and after each call,
        and the engine reports."""
        times, scaled, reports = [], [], []
        for scene in self.scenes:
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                outcome = self.workload.run(scene, cfg)
            except Exception:  # a failed fit is counted, the run goes on
                self.failed += 1
                self.failures.append(f"scene {scene.seed}: raised\n"
                                     + traceback.format_exc())
                continue
            finally:
                elapsed = time.perf_counter() - t0
                self.reference_times.append(reference.seconds())
            times.append(elapsed)
            scaled.append(reference.scaled(
                elapsed, statistics.fmean(self.reference_times[-2:])))
            reports.append(outcome.report)
            errors = output_errors(outcome, scene)
            if errors:
                self.failed += 1
                self.failures.append(f"scene {scene.seed}: " + "; ".join(errors))
            d = digest(outcome)
            if scene.seed not in self.digests:
                self.digests[scene.seed] = d
                self.accuracy[scene.seed] = accuracy(outcome, scene)
            elif self.digests[scene.seed] != d:
                self.nondeterministic.append(scene.seed)
        return times, scaled, reports


def environment() -> dict:
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (KeyError, TypeError, ValueError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                          "MKL_NUM_THREADS")},
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "run"), default="run")
    parser.add_argument("--out", required=True, help="directory for outputs")
    args = parser.parse_args()
    w = WORKLOADS[args.workload]

    t = time.perf_counter()
    scenes = w.scenes(args.seed)
    synth_s = (time.perf_counter() - t) / len(scenes)
    warm = w.warmup_scene(args.seed)
    warm_cfg = w.config(max_proposals=WARMUP_MAX_PROPOSALS)
    try:
        w.run(warm, warm_cfg)
    except NoValidPose:
        pass  # a capped fit on a small scene may leave nothing to pose from
    setup_s = time.perf_counter() - T0
    reference.seconds()  # the first pass pays for lazy set-up in numpy
    reference_times = [reference.seconds()]
    setup = {"setup_s": setup_s,
             "setup_scaled": reference.scaled(setup_s, reference_times[0])}
    if args.mode == "setup":
        print(json.dumps(setup))
        return 0

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg = w.config()
    run = Run(w, scenes, reference_times)
    tracer = spans.Tracer() if args.trace else None
    traced_cfg = spans.traced_config(cfg, tracer) if tracer else None
    times, scaled, traced_scaled, traced_reports = [], [], [], []
    start = time.perf_counter()
    rounds = 0
    while True:  # with --trace 1, each round is fitted untraced, then traced
        t, s, _ = run.fit_round(cfg)
        times += t
        scaled += s
        if tracer:
            with spans.instrument(tracer):
                _, s, reports = run.fit_round(traced_cfg)
            traced_scaled += s
            traced_reports += reports
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed * (rounds + 1) / rounds > args.seconds:
            break
    result = dict(setup, **{
        "fit_times": times,
        "fit_scaled": scaled,
        "reference_times": reference_times,
        "reference_nominal_s": reference.NOMINAL_S,
        "rounds": rounds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "synth_s": synth_s,
    })
    if tracer:
        tracer.write(out_dir / "spans.jsonl.gz")
        result["layers"] = spans.layer_metrics(tracer.spans, traced_reports,
                                               cfg.max_proposals)
        result["layer_split"] = spans.layer_split(tracer.spans,
                                                  len(traced_reports))
        result["traced_fit_s"] = statistics.median(traced_scaled)

    # the warm-up scene through the scene file and the library, for the CLI check
    scene_path = out_dir / "scene.csv"
    ingest.save_scene(scene_path, w.model_type, warm.points, labels=warm.labels)
    t = time.perf_counter()
    _, loaded, labels, _ = ingest.load_scene(scene_path)
    result["load_s"] = time.perf_counter() - t
    if not (np.array_equal(loaded.coords, warm.points.coords)
            and np.array_equal(labels, warm.labels)):
        run.failures.append("scene file round trip changed the scene")
    warm_report = engine.fit(warm.points, w.model_type, warm_cfg)
    warm_me = engine.misclassification_error(warm_report, warm.labels)
    result["roundtrip"] = {
        "scene": str(scene_path),
        "me_percent": round(warm_me * 100.0, 10),
        "instances": len(warm_report.instances),
        "cli_flags": ["--epsilon", repr(warm_cfg.loss.epsilon),
                      "--sampler", warm_cfg.sampler,
                      "--seed", str(warm_cfg.seed),
                      "--max-proposals", str(warm_cfg.max_proposals)],
    }

    result.update({
        "attempted": run.attempted,
        "failed": run.failed,
        "failures": run.failures,
        "nondeterministic": run.nondeterministic,
        "digests": {str(k): v for k, v in run.digests.items()},
        "accuracy": {str(k): v for k, v in run.accuracy.items()},
        "environment": environment(),
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
