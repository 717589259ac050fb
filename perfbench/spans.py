"""Span tracing from outside the package.

`instrument` rebinds the public functions that the engine, pose and
sampling modules call through their own namespaces (plus the loss object
carried in the config) to wrappers that record one span per call: name,
start, end, parent span and a small per-call value (how many solutions a
solve returned, whether a screen rejected, ...). Spans stay in memory and
are written out when the run ends. Names missing from a later version of
the package are skipped, so their metrics read zero instead of failing.

Per-layer metrics are derived from the spans afterwards; a layer is named
after the module that defines the function.
"""
from __future__ import annotations

import contextlib
import dataclasses
import gzip
import json
import time
from collections import defaultdict

from mmfit import engine, pose

# (module the function lives in, name) for everything the engine binds
ENGINE_CALLS = [
    ("sampling", "build_neighborhood"), ("sampling", "cc_can_sample"),
    ("sampling", "next_sample_cc"), ("sampling", "next_sample_pnapsac"),
    ("sampling", "next_sample_prosac"), ("sampling", "next_sample_uniform"),
    ("models", "sample_degenerate"), ("models", "sample_cheirality_ok"),
    ("models", "oriented_epipolar_ok"),
    ("models", "fundamental_planar_degenerate"),
    ("models", "fit_minimal"), ("models", "fit_nonminimal"),
    ("models", "residuals"),
    ("quality", "quality_f_from_losses"), ("quality", "is_dominant"),
    ("consensus", "cluster_instances"),
    ("consensus", "preference_vector_from_dense"),
    ("consensus", "select_representatives"),
    ("engine", "fit"), ("engine", "refine_irls"),
    # private passes, wrapped only so that calls made inside them can be
    # told apart from calls made by the proposal loop
    ("engine", "_consolidate"), ("engine", "_prune_by_quality"),
]
POSE_CALLS = [
    ("engine", "fit"), ("models", "fit_nonminimal"),
    ("pose", "decompose_homography"), ("pose", "decompose_essential"),
    ("pose", "essential_from_inliers"), ("pose", "select_pose"),
]

DRAWS = {"sampling.next_sample_cc", "sampling.next_sample_pnapsac",
         "sampling.next_sample_prosac", "sampling.next_sample_uniform"}
SCREENS = {  # span name -> result value that means "rejected"
    "models.sample_degenerate": True,
    "models.sample_cheirality_ok": False,
    "models.oriented_epipolar_ok": False,
    "models.fundamental_planar_degenerate": True,
}
ENGINE_SELF = {"engine.fit", "engine._consolidate", "engine._prune_by_quality"}


def _value(name, args, result):
    """The per-call value a span keeps for ratio metrics."""
    if name in SCREENS:
        return int(bool(result) == SCREENS[name])
    if name == "models.fit_minimal":
        return len(result)
    if name == "consensus.cluster_instances":
        return [len(args[0]), len(result)]
    if name == "pose.select_pose":
        return len(args[0])
    return None


class Tracer:
    """In-memory span recorder for one thread."""

    def __init__(self):
        self.spans = []     # [name, start, end, parent index, value, raised]
        self._stack = []

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [name, 0.0, 0.0, parent, None, False]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                span[2] = time.perf_counter()
                span[5] = True
                raise
            else:
                span[2] = time.perf_counter()
                span[4] = _value(name, args, result)
                return result
            finally:
                self._stack.pop()
        return traced

    def write(self, path):
        with gzip.open(path, "wt") as fh:
            for i, (name, t0, t1, parent, value, raised) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": t0,
                                     "end": t1, "parent": parent,
                                     "value": value, "raised": raised}) + "\n")


def traced_config(cfg, tracer):
    """A copy of the engine config whose loss function records a span per
    evaluation; the engine only reaches the loss through the config."""
    base = type(cfg.loss)

    class TracedLoss(base):
        losses = tracer.wrap("losses.losses", base.losses)
        weights = tracer.wrap("losses.weights", base.weights)

    fn = cfg.loss
    return dataclasses.replace(cfg, loss=TracedLoss(fn.kind, fn.epsilon, fn.dof))


@contextlib.contextmanager
def instrument(tracer):
    """Rebind the engine's and the pose module's callees to traced
    wrappers for the duration of the block."""
    saved = []

    def rebind(module, calls):
        for layer, name in calls:
            fn = getattr(module, name, None)
            if fn is None:
                continue
            saved.append((module, name, fn))
            setattr(module, name, tracer.wrap(f"{layer}.{name}", fn))

    rebind(engine, ENGINE_CALLS)
    rebind(pose, POSE_CALLS)
    active_set = getattr(engine, "ActiveSet", None)
    if active_set is not None:
        saved.append((engine, "ActiveSet", active_set))
        engine.ActiveSet = type("ActiveSet", (active_set,), {
            "rebuild": tracer.wrap("quality.ActiveSet.rebuild",
                                   active_set.rebuild)})
    try:
        yield
    finally:
        for module, name, fn in reversed(saved):
            setattr(module, name, fn)


def self_times(spans):
    """Duration of each span minus the time its direct children cover."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def layer_metrics(spans, reports, draw_cap):
    """Per-layer metrics per fit from the spans of the traced top-level
    calls and the engine reports they returned."""
    own = self_times(spans)
    names = [s[0] for s in spans]
    count = defaultdict(int)
    busy = defaultdict(float)
    for name, t in zip(names, own):
        count[name] += 1
        busy[name] += t

    def inclusive(name):
        return sum(s[2] - s[1] for s in spans if s[0] == name)

    def total(group, table):
        return sum(table[n] for n in group)

    # draws per fit, and quality evaluations made by the proposal loop itself
    fit_of = [-1] * len(spans)
    draws_per_fit = defaultdict(int)
    loop_quality = 0
    for i, (name, _, _, parent, _, _) in enumerate(spans):
        if name == "engine.fit":
            fit_of[i] = i
        elif parent >= 0:
            fit_of[i] = fit_of[parent]
        if name in DRAWS and fit_of[i] >= 0:
            draws_per_fit[fit_of[i]] += 1
        if (name == "quality.quality_f_from_losses" and parent >= 0
                and spans[parent][0] == "engine.fit"):
            loop_quality += 1
    fits = [i for i, name in enumerate(names) if name == "engine.fit"]

    screens = [i for i, n in enumerate(names) if n in SCREENS]
    minimal = [i for i, n in enumerate(names) if n == "models.fit_minimal"]
    clusters = [spans[i][4] for i, n in enumerate(names)
                if n == "consensus.cluster_instances" and spans[i][4]]
    irls = [i for i, n in enumerate(names) if n == "engine.refine_irls"]
    irls_steps = sum(1 for s in spans
                     if s[0] == "models.fit_nonminimal" and not s[5]
                     and s[3] >= 0 and spans[s[3]][0] == "engine.refine_irls")
    selects = [spans[i][4] for i, n in enumerate(names)
               if n == "pose.select_pose" and spans[i][4] is not None]
    quality = ["quality.quality_f_from_losses", "quality.is_dominant",
               "quality.ActiveSet.rebuild"]
    consensus = ["consensus.cluster_instances",
                 "consensus.preference_vector_from_dense",
                 "consensus.select_representatives"]
    merged_in = sum(v[0] for v in clusters)

    per_fit = max(len(reports), 1)
    proposals = sum(r.proposals_tried for r in reports)
    return {
        "sampling.draws": total(DRAWS, count) / per_fit,
        "sampling.fallbacks": sum(r.fallback_samples for r in reports) / per_fit,
        "sampling.draw_s": total(DRAWS, busy) / per_fit,
        "sampling.graph_s": busy["sampling.build_neighborhood"] / per_fit,
        "sampling.cc_s": busy["sampling.cc_can_sample"] / per_fit,
        "models.screen_calls": len(screens) / per_fit,
        "models.screen_s": total(SCREENS, busy) / per_fit,
        "models.screen_reject_frac":
            sum(spans[i][4] or 0 for i in screens) / max(len(screens), 1),
        "models.solve_minimal_calls": len(minimal) / per_fit,
        "models.solve_minimal_s": busy["models.fit_minimal"] / per_fit,
        "models.solutions_per_solve":
            sum(spans[i][4] or 0 for i in minimal) / max(len(minimal), 1),
        "models.solve_nonminimal_calls": count["models.fit_nonminimal"] / per_fit,
        "models.solve_nonminimal_s": busy["models.fit_nonminimal"] / per_fit,
        "models.residuals_calls": count["models.residuals"] / per_fit,
        "models.residuals_s": busy["models.residuals"] / per_fit,
        "losses.calls": (count["losses.losses"] + count["losses.weights"]) / per_fit,
        "losses.s": (busy["losses.losses"] + busy["losses.weights"]) / per_fit,
        "quality.calls": total(quality, count) / per_fit,
        "quality.s": total(quality, busy) / per_fit,
        "quality.bound_skip_frac": 1.0 - loop_quality / max(proposals, 1),
        "quality.rebuild_s": inclusive("quality.ActiveSet.rebuild") / per_fit,
        "consensus.cluster_calls": len(clusters) / per_fit,
        "consensus.cluster_s": total(consensus, busy) / per_fit,
        "consensus.merge_frac":
            sum(v[0] - v[1] for v in clusters) / max(merged_in, 1),
        "engine.outer_iters": sum(r.iterations for r in reports) / per_fit,
        "engine.proposals": proposals / per_fit,
        "engine.irls_calls": len(irls) / per_fit,
        "engine.irls_s": inclusive("engine.refine_irls") / per_fit,
        "engine.irls_iters": irls_steps / max(len(irls), 1),
        "engine.self_s": total(ENGINE_SELF, busy) / per_fit,
        "engine.cap_hit":
            sum(draws_per_fit[f] >= draw_cap for f in fits) / max(len(fits), 1),
        "pose.candidates": sum(selects) / max(len(selects), 1),
        "pose.select_s": inclusive("pose.select_pose") / per_fit,
    }


def layer_split(spans, n_fits):
    """Self time per layer (module) per fit, largest first."""
    own = self_times(spans)
    by_layer = defaultdict(float)
    for s, t in zip(spans, own):
        by_layer[s[0].split(".", 1)[0]] += t
    per_fit = max(n_fits, 1)
    return sorted(((layer, t / per_fit) for layer, t in by_layer.items()),
                  key=lambda kv: -kv[1])
