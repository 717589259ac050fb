"""Progressive multi-instance fitting loop.

One fit alternates two phases until a probabilistic termination criterion
fires: (1) propose a batch of dominant candidate instances by sampling,
fitting, and scoring against the instances kept so far; (2) cluster all
kept and new instances in the consensus space, keep the best-quality
representative of each cluster, and re-estimate its parameters by
iteratively re-weighted least squares. Points are never crisply assigned
during fitting; the final report carries both the soft per-point loss
matrix and a hard minimum-residual assignment. A hypothesis is a row of a
(k, n_params) parameter stack with its residual and loss rows beside it;
ModelInstance objects are built once, for the report's instances.

Proposals come from a FIFO of drawn and solved samples. When it runs dry,
the loop takes the next SAMPLE_BLOCK = 128 samples (never past
max_proposals, nor across the end of the CC schedule) from the CC schedule
or one sampling.draw_block call, and _candidates solves and scores them
with one call of each stacked kernel: models.minimal_candidates screens,
solves and orients the minimal samples, models._fit_weighted fits the
larger connected components and models._residuals scores their rows in a
few (K, n) buffers. The loop takes one entry per draw, with the stopping
checks made before every draw. A draw depends only on the rng, the draw
index and its chunk: draw_block makes its two generator calls per
sampling.RNG_BLOCK = 32 draws, and blocks start at fixed draws, multiples
of SAMPLE_BLOCK from the schedule's start and from the first draw after it
(the CC schedule is listed once per fit from per-radius pair queries). So
entries left when an outer iteration ends are the draws the next one would
make, and a fit gives the same result as drawing RNG_BLOCK samples at a
time and solving one sample at a time. Scoring and IRLS work on each row's
support, as the loss is 1 and the weight 0 from LossFunction.cutoff.

Each consolidation pass keeps each cluster's best row by one quality
vector and refines these in one refine_irls call, but those it flagged as
fixed points before; the last pass prunes by the same vector. An IRLS
iteration computes the weighted non-minimal fits, the residuals, and the
losses with the next weights of every row still active with one call of
each stacked kernel; a row leaves the stack when it converges or its
weighted system is degenerate. Each row's arithmetic is that of refining
it alone. Only the evaluation's matching imports scipy.
"""
from __future__ import annotations

import itertools
import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from .consensus import cluster_instances
from .errors import (
    DimensionMismatch,
    ExhaustedData,
    InvalidConfig,
    LabelMismatch,
)
from .losses import LossFunction, LossKind, _is_integer, _is_real
from .models import (
    ModelInstance,
    ModelType,
    PointSet,
    _fit_weighted,
    _residuals,
    fundamental_planar_degenerate,
    minimal_candidates,
)
from .quality import min_loss_outside_groups, quality_f_from_losses
from .sampling import cc_schedule, draw_block

OUTLIER = -1

SAMPLERS = ("uniform", "prosac", "pnapsac", "cc")

# sampler draws allowed per batch slot before an outer iteration gives up
PROPOSAL_BUDGET_FACTOR = 50
# IRLS stops after this many weighted refits, or earlier once the relative
# parameter change drops below IRLS_TOL
IRLS_MAX_ITERS = 25
IRLS_TOL = 1e-6
# samples drawn, screened and solved together when the proposal loop runs
# out of solved samples; a multiple of sampling.RNG_BLOCK, so a block's
# generator calls are those of RNG_BLOCK-sized blocks
SAMPLE_BLOCK = 128
# the CC sampler's ascending radii in units of epsilon: 20/3 to 200/3 in 5
# equal steps, so 20 to 200 at epsilon = 3
CC_RADII = np.linspace(20, 200, 6) / 3


@dataclass(frozen=True)
class EngineConfig:
    loss: LossFunction
    q_min: float = 20.0
    tau: float = 0.2
    confidence: float = 0.99
    batch_size: int = 10
    sampler: str = "pnapsac"
    seed: int = 0
    max_proposals: int = 10_000

    def __post_init__(self):
        if not isinstance(self.loss, LossFunction):
            raise InvalidConfig("loss must be a LossFunction")
        for name in ("batch_size", "seed", "max_proposals"):
            if not _is_integer(getattr(self, name)):
                raise InvalidConfig(f"{name} must be an integer")
        for name in ("q_min", "tau", "confidence"):
            if not _is_real(getattr(self, name)):
                raise InvalidConfig(f"{name} must be a real number")
        if not 0 < self.q_min < np.inf:
            raise InvalidConfig("q_min must be positive and finite")
        if not 0.0 < self.tau < 1.0:
            raise InvalidConfig("tau must lie in (0, 1)")
        if not 0.0 < self.confidence < 1.0:
            raise InvalidConfig("confidence must lie in (0, 1)")
        if self.batch_size < 1:
            raise InvalidConfig("batch_size must be >= 1")
        if self.sampler not in SAMPLERS:
            raise InvalidConfig(f"sampler must be one of {SAMPLERS}")
        if self.max_proposals < 1:
            raise InvalidConfig("max_proposals must be >= 1")
        if self.seed < 0:
            raise InvalidConfig("seed must be >= 0")


def default_config(model_type: ModelType, epsilon: float,
                   kind: LossKind = LossKind.MAGSACPP, **overrides) -> EngineConfig:
    """EngineConfig with the loss dof matched to the model family."""
    fn = LossFunction(kind, epsilon, model_type.dof)
    return EngineConfig(loss=fn, **overrides)


@dataclass(frozen=True)
class FitReport:
    instances: list[ModelInstance]
    min_residual_assignment: np.ndarray   # per point: instance index or OUTLIER
    loss_matrix: np.ndarray               # (len(instances), n_points)
    iterations: int
    proposals_tried: int
    fallback_samples: int
    wall_time: float
    # why the fit's outer loop ended: "criterion" (the stopping rule fired),
    # "cc_spent" (the cc sampler's component stream ran out) or
    # "max_proposals" (the draw cap); None for a report not made by fit
    stop_reason: str | None = None

    def to_dict(self) -> dict:
        """JSON-ready dict. It leaves out wall_time, so that repeated runs
        of the same seed serialize identically."""
        return {
            "instances": [
                {"model_type": h.model_type.value, "params": h.params.tolist()}
                for h in self.instances
            ],
            "min_residual_assignment": self.min_residual_assignment.tolist(),
            "loss_matrix": self.loss_matrix.tolist(),
            "iterations": self.iterations,
            "proposals_tried": self.proposals_tried,
            "fallback_samples": self.fallback_samples,
            "stop_reason": self.stop_reason,
        }


def should_terminate(n_points: int, united_inlier_count: int, k: int, m: int,
                     mu: float, q_min: float) -> bool:
    """Probabilistic stopping rule.

    After k samples, a structure with inlier ratio w among the
    points not yet explained escapes detection with probability
    (1 - w^m)^k. The largest support still hidden with confidence mu is

        n_i = (n_points - united_inlier_count) * (1 - (1 - mu)^(1/k))^(1/m)

    and the fit may stop once n_i <= q_min, i.e. anything still hidden
    would not be dominant anyway.
    """
    if not 0.0 < mu < 1.0:
        raise InvalidConfig("mu must lie in (0, 1)")
    if k < 1:
        raise ValueError("k must be >= 1")
    if united_inlier_count > n_points:
        raise ValueError("united inlier count cannot exceed the point count")
    remaining = n_points - united_inlier_count
    n_i = remaining * (1.0 - (1.0 - mu) ** (1.0 / k)) ** (1.0 / m)
    return n_i <= q_min


# ---------------------------------------------------------------------------
# IRLS refinement

def refine_irls(model_type: ModelType, params: np.ndarray,
                residual_rows: np.ndarray, loss_rows: np.ndarray,
                points: PointSet, cfg: EngineConfig):
    """Iteratively re-weighted least squares from each row of a (K, n_params)
    stack of one family, K >= 1, with its (K, n) residual and loss rows.

    Each iteration refits the rows still active with one call of each
    stacked kernel: robust weights and weighted non-minimal fit over each
    row's support r < cutoff, then residuals, the new supports and the
    losses on them (every loss beyond the support is 1). A row leaves the
    stack when its weighted system is degenerate, when its relative
    parameter change drops below IRLS_TOL, or after IRLS_MAX_ITERS refits;
    a row's result does not depend on the others. A refit's weights come
    from the loss evaluation of the iterate before it.
    Returns the three input stacks, each row overwritten by its iterate
    with the best soft support where one beats the input (a row no refit
    improves is returned bit-equal), and a list of per-row dicts with
    `iterations`, `converged`, `degenerate`, `loss_trace` (the loss sums
    of the input and of every refit) and `fixed`: another call would
    return the row unchanged (no refit improved it, its system went
    degenerate, or it converged after its best iterate).
    """
    fn = cfg.loss
    n = len(points)
    totals = loss_rows.sum(axis=1)
    best_q = n - totals
    info = [{"iterations": 0, "degenerate": False, "converged": False,
             "loss_trace": [total]} for total in totals.tolist()]
    best_it = np.zeros(len(params), dtype=int)   # 0: the input
    active = np.arange(len(params))
    current, r = params, residual_rows
    ri, pi = np.nonzero(r < fn.cutoff)
    w = fn.weights(r[ri, pi])
    for it in range(IRLS_MAX_ITERS):
        refined, ok = _fit_weighted(model_type, points.coords, ri, pi,
                                    w * points.weights[pi], len(r))
        for i in active[~ok].tolist():
            info[i]["degenerate"] = True
        active, current, refined = active[ok], current[ok], refined[ok]
        if not len(active):
            break
        delta = _relative_change(current, refined)
        current = refined
        r = _residuals(model_type, current, points.coords)
        ri, pi = np.nonzero(r < fn.cutoff)
        loss = np.ones_like(r)
        loss[ri, pi], w = fn._losses_and_weights(r[ri, pi])
        totals = loss.sum(axis=1)
        for i, total in zip(active.tolist(), totals.tolist()):
            info[i]["iterations"] = it + 1
            info[i]["loss_trace"].append(total)
        better = np.flatnonzero(n - totals > best_q[active])
        rows = active[better]
        best_q[rows] = n - totals[better]
        best_it[rows] = it + 1
        params[rows], residual_rows[rows] = current[better], r[better]
        loss_rows[rows] = loss[better]
        moving = ~(delta < IRLS_TOL)
        for i in active[~moving].tolist():
            info[i]["converged"] = True
        keep = moving[ri]
        ri, pi, w = (np.cumsum(moving) - 1)[ri[keep]], pi[keep], w[keep]
        active, current, r = active[moving], current[moving], r[moving]
        if not len(active):
            break
    for d, b in zip(info, best_it.tolist()):
        d["fixed"] = b == 0 or d["degenerate"] or (
            d["converged"] and b < d["iterations"])
    return params, residual_rows, loss_rows, info


def _relative_change(old: np.ndarray, new: np.ndarray) -> np.ndarray:
    """|new - old| / |old| per row of two (K, p) parameter stacks, with a
    row of new negated where it points away from old."""
    new = np.where((np.vecdot(old, new) < 0)[:, None], -new, new)
    diff = new - old
    return (np.sqrt(np.vecdot(diff, diff))
            / np.maximum(np.sqrt(np.vecdot(old, old)), 1e-300))


# ---------------------------------------------------------------------------
# Main loop

def _candidates(points: PointSet, model_type: ModelType,
                samples: list[list[int]], fn: LossFunction):
    """Screen, solve and score a block of up to SAMPLE_BLOCK samples: one
    minimal_candidates call on the samples of m points (screen, minimal
    solver and, for F, the oriented epipolar test), one
    models._fit_weighted call on the larger ones, connected components,
    then one _residuals call on all their parameter rows in sample order
    (its kernels finish the (K, n) matrix in place, so a block's memory is
    that matrix and a few buffers like it) and one fn.losses call on the
    supports r < fn.cutoff. Per sample, its (parameter row, residual row (a
    view of the block's matrix), support indices, support losses)
    entries."""
    m = model_type.m
    minimal = [i for i, s in enumerate(samples) if len(s) == m]
    larger = [i for i, s in enumerate(samples) if len(s) > m]
    stack = np.array([samples[i] for i in minimal], dtype=int).reshape(-1, m)
    params, owner = minimal_candidates(model_type, points.coords[stack],
                                       fn.epsilon)
    owner = np.array(minimal, dtype=int)[owner]
    if larger:
        pts = np.concatenate([samples[i] for i in larger])
        rows = np.repeat(np.arange(len(larger)),
                         [len(samples[i]) for i in larger])
        fitted, ok = _fit_weighted(model_type, points.coords, rows, pts,
                                   points.weights[pts], len(larger))
        owner = np.append(owner, np.array(larger)[ok])
        order = np.argsort(owner, kind="stable")
        params = np.concatenate([params, fitted[ok]])[order]
        owner = owner[order]
    R = _residuals(model_type, params, points.coords)
    rows, support = np.nonzero(R < fn.cutoff)
    ends = np.searchsorted(rows, np.arange(1, len(R)))
    out: list[list[tuple]] = [[] for _ in samples]
    for i, *entry in zip(owner.tolist(), params, R,
                         np.split(support, ends),
                         np.split(fn.losses(R[rows, support]), ends)):
        out[i].append(tuple(entry))
    return out


def fit(points: PointSet, model_type: ModelType, config: EngineConfig) -> FitReport:
    """Run the full progressive fit and return the report.

    Deterministic for fixed (points, config): all randomness flows from
    config.seed. An empty instance list is a valid outcome, not an error.
    """
    start = time.perf_counter()
    m = model_type.m
    n = len(points)
    if n < m:
        raise ExhaustedData(f"{model_type.value} needs at least {m} points")
    if points.dim != model_type.dim:
        raise DimensionMismatch(
            f"{model_type.value} expects dimension {model_type.dim}, "
            f"got {points.dim}")

    fn = config.loss
    eps = fn.epsilon
    rng = np.random.default_rng(config.seed)
    schedule: list[list[int]] = []
    cc = config.sampler == "cc"
    if cc:
        schedule = cc_schedule(points.coords, m, (CC_RADII * eps).tolist())

    # drawn, solved and scored samples the loop has not taken yet, oldest
    # first: per sample, its candidates as _candidates returns them
    solved: deque[tuple[list[int], list[tuple]]] = deque()
    kept = np.zeros((0, model_type.n_params))   # the kept instances' rows
    residual_rows = np.zeros((0, n))
    loss_rows = np.zeros((0, n))
    fixed = np.zeros(0, dtype=bool)   # refine_irls would return them as is
    min_loss = np.ones(n)   # per point, over the kept instances
    proposals_tried = 0
    draws = 0
    outer = 0
    united = 0
    stop_reason = None

    while stop_reason is None:
        outer += 1
        batch = []   # (parameter, residual, loss row) per accepted candidate
        budget = PROPOSAL_BUDGET_FACTOR * config.batch_size
        attempts = 0
        cc_spent = False
        while (len(batch) < config.batch_size and attempts < budget
               and draws < config.max_proposals):
            if cc and draws >= len(schedule) and (len(kept) or batch):
                # the component schedule is spent; its PROSAC fallback is
                # only a safeguard for when nothing at all has been found
                cc_spent = True
                break
            if not batch and draws > 0 and should_terminate(
                    n, united, draws, m, config.confidence, config.q_min):
                break  # nothing new this batch and the criterion already holds
            if not solved:
                # samples drawn ahead are the ones this loop, or the next
                # outer iteration, would draw (see the module docstring)
                scored = r = None   # the last block's matrix is freed first
                stop = min(draws + SAMPLE_BLOCK, config.max_proposals)
                if draws < len(schedule):   # no block straddles its end
                    stop = min(stop, len(schedule))
                block = (schedule[draws:stop] if draws < len(schedule) else
                         draw_block(config.sampler, points, m,
                                    draws + 1 - len(schedule), stop - draws,
                                    rng))
                solved.extend(zip(block, _candidates(points, model_type,
                                                     block, fn)))
            draws += 1
            attempts += 1
            sample, scored = solved.popleft()
            for p, r, support, loss in scored:
                proposals_tried += 1
                # the loss is 1 off the support, so both the quality and
                # its sound upper bound sum over the support alone
                cache = min_loss[support]
                if cache.sum() < config.q_min:
                    continue
                q = quality_f_from_losses(loss, cache)
                if q >= config.q_min and not (
                        model_type is ModelType.FUNDAMENTAL
                        and fundamental_planar_degenerate(points.coords[sample], eps)):
                    loss_row = np.ones(n)
                    loss_row[support] = loss
                    # a copy, so that the block's stack is not kept alive
                    batch.append((p, r.copy(), loss_row))

        if batch:
            new, new_r, new_loss = zip(*batch)
            kept, residual_rows, loss_rows, fixed = _consolidate(
                model_type, [kept, *new], [residual_rows, *new_r], [loss_rows, *new_loss],
                [fixed, np.zeros(len(new), dtype=bool)], points, config)
            min_loss = loss_rows.min(axis=0, initial=1.0)

        united = int(np.sum(np.any(residual_rows < eps, axis=0)))
        if should_terminate(n, united, draws, m, config.confidence,
                            config.q_min):
            stop_reason = "criterion"
        elif cc_spent and len(kept):
            stop_reason = "cc_spent"
        elif draws >= config.max_proposals:
            stop_reason = "max_proposals"

    return FitReport(
        instances=[ModelInstance(model_type, p) for p in kept],
        min_residual_assignment=min_residual_assignment(residual_rows, eps),
        loss_matrix=loss_rows,
        iterations=outer,
        proposals_tried=proposals_tried,
        fallback_samples=max(draws - len(schedule), 0) if cc else 0,
        wall_time=time.perf_counter() - start,
        stop_reason=stop_reason,
    )


def _consolidate(model_type: ModelType, params, residual_rows, loss_rows,
                 fixed, points: PointSet, cfg: EngineConfig):
    """Alternate consensus clustering and IRLS until the clustering returns
    only singletons, then return the stacks of the rows of quality >= q_min.
    The inputs (fixed: refine_irls's flag) are row blocks in instance order,
    stacked here so that the copies do not outlive the first pass. A pass
    keeps per cluster its member of best quality against the rows outside
    it, the lowest index on ties, and refines those not fixed; each later
    pass drops a row or finds only singletons, each scored against all."""
    params = np.vstack(params)
    residual_rows, loss_rows = np.vstack(residual_rows), np.vstack(loss_rows)
    fixed = np.concatenate(fixed)
    for n_pass in itertools.count():
        clusters = cluster_instances(loss_rows, cfg.tau)
        groups = np.empty(len(params), dtype=int)
        for g, members in enumerate(clusters):
            groups[list(members)] = g
        # one expression: the (k, n) temporaries are gone before IRLS
        q = len(points) - np.maximum(loss_rows, 1.0 - min_loss_outside_groups(
            loss_rows, groups)).sum(axis=1)
        if n_pass > 0 and len(clusters) == len(params):
            keep = q >= cfg.q_min
            return params[keep], residual_rows[keep], loss_rows[keep], fixed[keep]
        order = np.lexsort((-q, groups))
        reps = order[np.searchsorted(groups[order], np.arange(len(clusters)))]
        # this pass's matrices are released before IRLS allocates its own
        params, residual_rows, loss_rows, fixed = (
            params[reps], residual_rows[reps], loss_rows[reps], fixed[reps])
        todo = np.flatnonzero(~fixed)
        if len(todo):
            *refined, info = refine_irls(model_type, params[todo], residual_rows[todo],
                                         loss_rows[todo], points, cfg)
            params[todo], residual_rows[todo], loss_rows[todo] = refined
            fixed[todo] = [d["fixed"] for d in info]


def min_residual_assignment(residual_rows: np.ndarray,
                            epsilon: float) -> np.ndarray:
    """Per point: the index of the instance with the smallest residual, or
    OUTLIER when that residual is not below epsilon (or there is none)."""
    k, n = residual_rows.shape
    if k == 0:
        return np.full(n, OUTLIER, dtype=int)
    idx = np.argmin(residual_rows, axis=0)
    return np.where(residual_rows[idx, np.arange(n)] < epsilon, idx, OUTLIER)


# ---------------------------------------------------------------------------
# Evaluation

def misclassification_error(report: FitReport, ground_truth_labels) -> float:
    """Fraction of points assigned to the wrong cluster under the optimal
    one-to-one matching between reported instances and ground-truth
    clusters. Label 0 marks ground-truth outliers and is matched to the
    OUTLIER assignment; unmatched instances or clusters count as wrong.
    """
    labels = np.asarray(ground_truth_labels, dtype=int)
    pred = report.min_residual_assignment
    if labels.shape != pred.shape:
        raise LabelMismatch("label vector does not match the point count")
    return label_matching(pred, labels)[0]


def label_matching(assignment: np.ndarray, labels: np.ndarray):
    """The optimal one-to-one matching between the instances that own
    points and the nonzero labels, which maximises the points they share
    (csgraph's min_weight_full_bipartite_matching, LAPJVsp). Returns the
    misclassification error of the assignment (see misclassification_error)
    and a dict from each instance id that owns points, ascending, to its
    matched label (None when unmatched) and the points the two share. Among
    equally good matchings the solver picks one; the error is the same."""
    from scipy.sparse import csr_array   # the evaluation's alone, not a fit's
    from scipy.sparse.csgraph import min_weight_full_bipartite_matching
    n = len(labels)
    if n == 0:
        return 0.0, {}
    correct = int(np.sum((assignment == OUTLIER) & (labels == 0)))
    inst_ids, gt_ids, table = contingency_table(assignment, labels)
    matched = dict.fromkeys(inst_ids.tolist(), (None, 0.0))
    if table.size:
        # + 1: zero counts stay edges; every full matching gains min(M, N)
        rows, cols = min_weight_full_bipartite_matching(csr_array(table + 1.0), maximize=True)
        correct += int(table[rows, cols].sum())
        for a, b in zip(rows.tolist(), cols.tolist()):
            matched[inst_ids[a].item()] = (gt_ids[b].item(), table[a, b])
    return 1.0 - correct / n, matched


def contingency_table(assignment: np.ndarray, labels: np.ndarray):
    """Point counts per (instance, ground-truth label) pair over the
    instances that own points and the nonzero labels. Returns the sorted
    instance ids, the sorted label ids and the (instances, labels) table."""
    inst_ids = np.unique(assignment[assignment != OUTLIER])
    gt_ids = np.unique(labels[labels != 0])
    both = (assignment != OUTLIER) & (labels != 0)
    table = np.zeros((len(inst_ids), len(gt_ids)))
    np.add.at(table, (np.searchsorted(inst_ids, assignment[both]),
                      np.searchsorted(gt_ids, labels[both])), 1.0)
    return inst_ids, gt_ids, table
