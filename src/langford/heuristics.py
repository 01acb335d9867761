"""Branching-variable selection strategies.

Value ordering is always ascending-min and lives in the search engine; only
the variable choice differs per strategy. All ties break towards the
earlier position in the model's branching order.

wdeg and dom/wdeg read the weighted degree of each unassigned variable:
the sum of the failure weights of the propagators over it that still have
at least two unassigned scope variables. `wdeg_scores` computes it from
scratch and is the reference. A search keeps it in a `WdegScorer`
instead, which follows the store's trail, so a selection costs the trail
entries since the last one rather than a walk over every scope.
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


class WdegScorer:
    """One search's failure weights and its wdeg scores, kept in step with
    the store's trail.

    Invariant, after `sync`: `unassigned[pid]` counts the scope occurrences
    of propagator pid whose variable is unassigned, and for every variable v
    `scores[v]` is the sum of `weights[pid]` over the scope occurrences
    (pid, v) with `unassigned[pid] >= 2`. On an unassigned v that is
    `wdeg_scores(store, model, weights)[v]`; an assigned v keeps a score
    that no selection reads.

    `sync` reads the trail entries past `synced` and marks each variable
    they left assigned; `undo` unmarks those whose entries an undo removed.
    The search syncs at every selection and pushes each store mark right
    after a sync or at the depth of an earlier mark, so no mark falls
    inside the entries of one sync, and `undo` drops whole syncs.
    """

    __slots__ = ("store", "weights", "scopes", "occurs", "unassigned", "scores",
                 "assigned", "marked", "marked_at", "synced")

    def __init__(self, store, model, weights=None):
        doms = store.doms
        self.store = store
        self.scopes = scopes = [p.scope for p in model.propagators]
        self.weights = weights = [1] * len(scopes) if weights is None else list(weights)
        self.occurs = occurs = [[] for _ in doms]
        self.assigned = assigned = [int(not d & (d - 1)) for d in doms]
        self.scores = scores = [0] * len(doms)
        self.unassigned = []
        for pid, scope in enumerate(scopes):
            count = 0
            for v in scope:
                occurs[v].append(pid)
                count += not assigned[v]
            self.unassigned.append(count)
            if count >= 2:
                w = weights[pid]
                for v in scope:
                    scores[v] += w
        # the variables sync marked, and the trail entry each was read from
        self.marked: list[int] = []
        self.marked_at: list[int] = []
        self.synced = len(store.trail)

    def sync(self) -> list[int]:
        """Mark the variables assigned since the last sync; the scores."""
        trail = self.store.trail
        end = len(trail)
        if self.synced < end:
            doms = self.store.doms
            assigned = self.assigned
            occurs = self.occurs
            unassigned = self.unassigned
            scopes = self.scopes
            weights = self.weights
            scores = self.scores
            for at in range(self.synced, end):
                v = trail[at]
                if assigned[v]:
                    continue
                d = doms[v]
                if d & (d - 1):
                    continue
                assigned[v] = 1
                self.marked.append(v)
                self.marked_at.append(at)
                for pid in occurs[v]:
                    count = unassigned[pid] - 1
                    unassigned[pid] = count
                    if count == 1:  # pid stops counting
                        w = weights[pid]
                        for u in scopes[pid]:
                            scores[u] -= w
            self.synced = end
        return self.scores

    def undo(self) -> None:
        """Follow an undo of the store: unmark what its entries assigned."""
        depth = len(self.store.trail)
        if self.synced <= depth:
            return
        self.synced = depth
        marked = self.marked
        marked_at = self.marked_at
        assigned = self.assigned
        occurs = self.occurs
        unassigned = self.unassigned
        scopes = self.scopes
        weights = self.weights
        scores = self.scores
        while marked_at and marked_at[-1] >= depth:
            marked_at.pop()
            v = marked.pop()
            assigned[v] = 0
            for pid in occurs[v]:
                count = unassigned[pid]
                if count == 1:  # pid counts again
                    w = weights[pid]
                    for u in scopes[pid]:
                        scores[u] += w
                unassigned[pid] = count + 1

    def bump(self, pid: int) -> None:
        """Add one to the weight of propagator pid, which failed."""
        self.weights[pid] += 1
        if self.unassigned[pid] >= 2:
            scores = self.scores
            for u in self.scopes[pid]:
                scores[u] += 1


def select_variable(store, model, kind: HeuristicKind, scorer=None):
    """Pick the next branching variable, or None when all are assigned.

    wdeg and dom/wdeg read the scores of `scorer`, a `WdegScorer` over
    `store`; static and sdf need none.
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
        scores = scorer.sync()
        best = None
        best_score = -1
        for v in order:
            d = doms[v]
            if d & (d - 1) and scores[v] > best_score:
                best = v
                best_score = scores[v]
        return best

    if kind is HeuristicKind.DOM_OVER_WDEG:
        scores = scorer.sync()
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
