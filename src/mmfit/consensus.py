"""Clustering of instance hypotheses in the consensus space.

Each instance is represented by its preference vector v with
v_i = 1 - loss(h, p_i), one row of the dense (k, n) loss matrix the engine
already holds. Instance similarity is the Tanimoto ratio
<a, b> / (|a|^2 + |b|^2 - <a, b>); one minus it is a metric on
nonnegative vectors. Instances whose similarity reaches tau are linked,
and clusters are the connected components of that graph. The engine keeps
each cluster's member of best quality and never averages parameters.
"""
from __future__ import annotations

import numpy as np


def tanimoto_matrix(loss_rows: np.ndarray) -> np.ndarray:
    """Pairwise Tanimoto similarity of the preference vectors 1 - loss_rows.
    Pairs whose denominator vanishes (both vectors zero) get 0."""
    prefs = 1.0 - np.asarray(loss_rows, dtype=float)
    gram = prefs @ prefs.T
    sq = np.diag(gram)
    denom = sq[:, None] + sq[None, :] - gram
    out = np.zeros_like(gram)
    np.divide(gram, denom, out=out, where=denom > 0.0)
    return out


def least_members(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per node 0 .. n - 1, the least node of its connected component in
    the graph of the edges (a[k], b[k])."""
    # each node takes the least label of itself and its neighbours, then that
    # label's label, until none falls
    labels = np.arange(n)
    while True:
        least = labels.copy()
        np.minimum.at(least, a, labels[b])
        np.minimum.at(least, b, labels[a])
        if np.array_equal(least[least], labels):
            return labels
        labels = least[least]


def cluster_instances(loss_rows: np.ndarray,
                      tau: float) -> list[tuple[int, ...]]:
    """Connected components of the graph linking instances whose Tanimoto
    similarity reaches tau, as tuples of row indices; every instance
    belongs to exactly one cluster. Members are sorted and clusters are
    ordered by their first member.
    """
    if not 0.0 < tau < 1.0:
        raise ValueError("tau must lie in (0, 1)")
    if len(loss_rows) == 0:
        return []
    linked = tanimoto_matrix(loss_rows) >= tau
    labels = least_members(len(linked), *np.nonzero(linked))
    return [tuple(np.flatnonzero(labels == first).tolist())
            for first in np.unique(labels).tolist()]

