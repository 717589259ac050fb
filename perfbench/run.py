"""mmfit benchmark: pinned synthetic scenes through the public entry points.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload pose-h4 --seed 1 --seconds 20 --trace 0

Workloads are defined in perfbench/workloads.py and listed in
BENCHMARK.json. One worker process sets up, fits the workload's scenes one
at a time (a closed loop with one caller) and checks every output; two more
fresh processes only set up, so that set-up time is a median of three.
Times are scaled for the machine's drift by reference work timed next to
each measurement (see reference.py). A CLI round trip (`mmfit fit`, then
`mmfit eval --json`) on the warm-up scene is checked against
schemas/*.json and against the library's result.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics (from rounds under span tracing) with --trace 1. Full
results, and with --trace 1 the spans, go to perfbench/out/.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import jsonschema

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCHEMAS = ROOT / "schemas"
TIME_LIMIT_S = 170.0
SETUP_SAMPLES = 3
BLAS_THREADS = 1      # at most nproc


class BenchError(Exception):
    """The benchmark could not produce a result."""


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        left = self.end - time.monotonic()
        if left <= 0:
            raise BenchError("time limit reached")
        return left


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # One caller fits one scene at a time on small matrices: extra BLAS
    # threads only add CPU time and run-to-run spread.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_child(cmd, deadline: Deadline, env: dict) -> tuple[subprocess.CompletedProcess, float]:
    """Run a child to completion (killed and reaped on timeout); returns
    the completed process and its wall time."""
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=deadline.left())
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"timed out: {' '.join(map(str, cmd))}") from exc
    wall = time.perf_counter() - t0
    sys.stderr.write(proc.stderr)
    return proc, wall


def last_json(text: str) -> dict:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise BenchError("child printed nothing")
    return json.loads(lines[-1])


def worker(args, mode: str, deadline: Deadline, env: dict) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--mode", mode, "--out", str(args.out)]
    proc, _ = run_child(cmd, deadline, env)
    if proc.returncode != 0:
        raise BenchError(f"worker ({mode}) exited with {proc.returncode}")
    return last_json(proc.stdout)


def cli_roundtrip(roundtrip: dict, out_dir: Path, deadline: Deadline,
                  env: dict) -> tuple[list[str], float]:
    """`mmfit fit` then `mmfit eval --json` on the worker's scene file.
    Returns the failed checks and the CLI overhead: subprocess wall time
    minus the fit wall time the manifest records."""
    schemas = {name: json.loads((SCHEMAS / f"{name}.schema.json").read_text())
               for name in ("instances", "eval")}
    cli = [sys.executable, "-m", "mmfit.cli"]
    fit_dir = out_dir / "cli-fit"
    scene = roundtrip["scene"]
    errors = []
    fit, wall = run_child(cli + ["fit", scene, "--out", str(fit_dir), "--json"]
                          + roundtrip["cli_flags"], deadline, env)
    want_code = 0 if roundtrip["instances"] else 2
    if fit.returncode != want_code:
        return [f"mmfit fit exited with {fit.returncode}, want {want_code}"], 0.0
    instances = json.loads((fit_dir / "instances.json").read_text())
    manifest = json.loads((fit_dir / "manifest.json").read_text())
    overhead = wall - manifest["timing"]["wall_time"]
    for payload in (instances, last_json(fit.stdout)):
        try:
            jsonschema.validate(payload, schemas["instances"])
        except jsonschema.ValidationError as exc:
            errors.append(f"instances output: {exc.message}")
    if len(instances["instances"]) != roundtrip["instances"]:
        errors.append("CLI and library found different instance counts")

    ev, _ = run_child(cli + ["eval", scene, str(fit_dir / "instances.json"),
                             "--json"], deadline, env)
    if ev.returncode != 0:
        return errors + [f"mmfit eval exited with {ev.returncode}"], overhead
    result = last_json(ev.stdout)
    try:
        jsonschema.validate(result, schemas["eval"])
    except jsonschema.ValidationError as exc:
        errors.append(f"eval output: {exc.message}")
    if result["me_percent"] != roundtrip["me_percent"]:
        errors.append(f"CLI ME {result['me_percent']} != library ME "
                      f"{roundtrip['me_percent']}")
    return errors, overhead


def git_commit() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def end_to_end(res: dict, setups: list[dict]) -> dict:
    """Times are medians of measurements scaled to the nominal machine
    speed by the reference work timed next to them (see reference.py)."""
    scenes = list(res["accuracy"].values())
    return {
        "fit_s": statistics.median(res["fit_scaled"]),
        "setup_s": statistics.median(s["setup_scaled"] for s in setups),
        "me_pct": statistics.fmean(a["me_pct"] for a in scenes),
        "peak_rss_mb": res["peak_rss_mb"],
    }


def per_layer(res: dict, cli_overhead: float) -> dict:
    scenes = list(res["accuracy"].values())
    poses = [a for a in scenes if "rot_err_deg" in a]
    metrics = dict(res["layers"])
    metrics.update({
        "engine.count_err": statistics.fmean(a["count_err"] for a in scenes),
        "pose.rot_err_deg": statistics.median(a["rot_err_deg"] for a in poses)
        if poses else 0.0,
        "pose.t_err_deg": statistics.median(a["t_err_deg"] for a in poses)
        if poses else 0.0,
        "ingest.synth_s": res["synth_s"],
        "ingest.load_s": res["load_s"],
        "cli.overhead_s": cli_overhead,
        "trace.overhead_frac":
            res["traced_fit_s"] / statistics.median(res["fit_scaled"]) - 1.0,
    })
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "mmfit" / "__init__.py").is_file() or not SCHEMAS.is_dir():
        print(f"error: no mmfit source tree under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    deadline = Deadline(TIME_LIMIT_S)
    env = child_env()
    args.out = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        res = worker(args, "run", deadline, env)
        setups = [res] + [worker(args, "setup", deadline, env)
                          for _ in range(SETUP_SAMPLES - 1)]
        cli_errors, cli_overhead = cli_roundtrip(res["roundtrip"], args.out,
                                                 deadline, env)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    failures = res["failures"] + cli_errors + [
        f"scene {s}: output changed between fits of the same seed"
        for s in res["nondeterministic"]]
    if not res["fit_times"]:
        print("error: no fit returned", file=sys.stderr)
        return 1
    values = per_layer(res, cli_overhead) if args.trace else end_to_end(res, setups)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}

    env_info = dict(res["environment"], nproc=len(os.sched_getaffinity(0)),
                    commit=git_commit(), seed=args.seed)
    summary = {"workload": args.workload, "environment": env_info,
               "fits": len(res["fit_times"]), "rounds": res["rounds"],
               "failures": failures, "digests": res["digests"],
               "accuracy": res["accuracy"], "setup_samples": setups,
               "fit_times": res["fit_times"], "fit_scaled": res["fit_scaled"],
               "reference_times": res["reference_times"], "metrics": metrics,
               "layer_split": res.get("layer_split")}
    (args.out / "result.json").write_text(json.dumps(summary, indent=2) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  "
          f"fits {len(res['fit_times'])} in {res['rounds']} round(s)  "
          f"wall median {statistics.median(res['fit_times']):.4f} s  "
          f"reference work median "
          f"{1e3 * statistics.median(res['reference_times']):.1f} ms "
          f"(nominal {1e3 * res['reference_nominal_s']:.0f} ms)")
    print("environment " + json.dumps(env_info, sort_keys=True))
    for seed, d in sorted(res["digests"].items()):
        print(f"scene {seed}  digest {d[:16]}  " + json.dumps(res["accuracy"][seed]))
    for f in failures:
        print("FAILED " + f.splitlines()[0])
    if res.get("layer_split"):
        traced = sum(t for _, t in res["layer_split"])
        print("layer self time per fit (traced):")
        for layer, t in res["layer_split"]:
            print(f"  {layer:<10} {t:9.4f} s  {100 * t / traced:5.1f} %")
    for k, m in metrics.items():
        print(f"  {k:<32} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not failures, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
