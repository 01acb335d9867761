"""Branching-variable selection strategies.

Value ordering is always ascending-min and lives in the search engine; only
the variable choice differs per strategy. All ties break towards the
earlier position in the model's branching order.
"""

from __future__ import annotations

from enum import Enum


class HeuristicKind(str, Enum):
    STATIC = "static"
    SDF = "sdf"
    WDEG = "wdeg"
    DOM_OVER_WDEG = "domoverwdeg"


def wdeg_scores(store, model, weights) -> list[int]:
    """Weighted-degree score per variable.

    `weights[pid]` is the search's failure weight of propagator pid. A
    propagator contributes its weight to every unassigned variable in its
    scope, but only while it still constrains the search, i.e. has at least
    two unassigned scope variables.
    """
    doms = store.doms
    scores = [0] * len(doms)
    for p, w in zip(model.propagators, weights):
        unassigned = []
        for v in p.scope:
            d = doms[v]
            if d & (d - 1):
                unassigned.append(v)
        if len(unassigned) >= 2:
            for v in unassigned:
                scores[v] += w
    return scores


def select_variable(store, model, kind: HeuristicKind, weights):
    """Pick the next branching variable, or None when all are assigned.

    `weights` are the failure weights that wdeg and dom/wdeg read.
    """
    doms = store.doms
    order = model.branch_order

    if kind is HeuristicKind.STATIC:
        for v in order:
            d = doms[v]
            if d & (d - 1):
                return v
        return None

    if kind is HeuristicKind.SDF:
        best = None
        best_size = 0
        for v in order:
            d = doms[v]
            if d & (d - 1):
                size = d.bit_count()
                if best is None or size < best_size:
                    best = v
                    best_size = size
        return best

    if kind is HeuristicKind.WDEG:
        scores = wdeg_scores(store, model, weights)
        best = None
        best_score = -1
        for v in order:
            d = doms[v]
            if d & (d - 1) and scores[v] > best_score:
                best = v
                best_score = scores[v]
        return best

    if kind is HeuristicKind.DOM_OVER_WDEG:
        scores = wdeg_scores(store, model, weights)
        best = None
        best_size = 0
        best_score = 1
        for v in order:
            d = doms[v]
            if d & (d - 1):
                size = d.bit_count()
                score = scores[v] or 1
                # size/score < best_size/best_score, compared exactly
                if best is None or size * best_score < best_size * score:
                    best = v
                    best_size = size
                    best_score = score
        return best

    raise ValueError(f"unknown heuristic {kind!r}")
