"""Compound model quality against the set of already-kept instances.

A candidate is scored only by the support it does not share with kept
instances: quality_f = n - sum_p max(f(h, p), 1 - min_kept f(kept, p)),
where f is the robust loss. Under the 0/1 loss this is the count of
inliers of h that no kept instance explains. The engine accepts a
proposal whose quality reaches q_min, keeps per consensus cluster the
member of best quality and drops the final rows of quality below q_min.
"""
from __future__ import annotations

import numpy as np


def quality_f_from_losses(losses_h: np.ndarray,
                          min_loss_cache: np.ndarray) -> float:
    """Soft quality of the instance with per-point losses losses_h against
    the per-point minimum loss over the kept instances (1 where none)."""
    return float(len(losses_h) - np.sum(np.maximum(losses_h, 1.0 - min_loss_cache)))


def min_loss_outside_groups(loss_rows: np.ndarray,
                            groups: np.ndarray) -> np.ndarray:
    """Per row and point: the minimum loss over the rows outside the row's
    own group, 1 where no row lies outside it.

    groups labels each of the k >= 1 rows with an integer in [0, n_groups),
    every label used. Uses per-group minima and, per point, the smallest
    and second-smallest of them: O(kn) instead of the O(k^2 n) direct loop.
    With one group per row this is the leave-one-out minimum.
    """
    groups = np.asarray(groups)
    per_group = np.vstack([loss_rows[groups == g].min(axis=0)
                           for g in range(groups.max() + 1)])
    first = np.argmin(per_group, axis=0)
    flat = first * per_group.shape[1] + np.arange(per_group.shape[1])
    lowest = per_group.take(flat)
    per_group.ravel()[flat] = np.inf
    # losses never exceed 1, so the clamp only acts where one group is alone
    second = np.minimum(per_group.min(axis=0), 1.0)
    return np.where(first[None, :] == groups[:, None], second, lowest)

