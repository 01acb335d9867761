"""Branching-variable selection strategies.

Value ordering is always ascending-min and lives in the search engine; only
the variable choice differs per strategy. All ties break towards the
earlier position in the model's branching order.

wdeg and dom/wdeg read the weighted degree of each unassigned variable:
the sum of the failure weights of the propagators over it that still have
at least two unassigned scope variables. `wdeg_scores` computes it from
scratch and is the reference. A search keeps it in a `WdegScorer`
instead, along with the search's open variables, so a selection scans
and ranks only what the last one left open rather than walking every
scope and the whole branching order.
"""

from __future__ import annotations

from enum import Enum


class HeuristicKind(str, Enum):
    STATIC = "static"
    SDF = "sdf"
    WDEG = "wdeg"
    DOM_OVER_WDEG = "domoverwdeg"


# `select_variable` runs once per node and compares its kind against these:
# a lookup through the enum class costs several times a global's.
_STATIC = HeuristicKind.STATIC
_SDF = HeuristicKind.SDF
_WDEG = HeuristicKind.WDEG
_DOM_OVER_WDEG = HeuristicKind.DOM_OVER_WDEG


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
    """One search's failure weights and its wdeg scores, and its open
    variables, kept in step with the store.

    Invariant, after `sync`: `open` lists the unassigned variables of
    `model.branch_order`, in that order, which holds every variable once
    (`validate_model`); `unassigned[pid]` counts the scope occurrences
    of propagator pid whose variable is unassigned; and for every variable
    v `scores[v]` is the sum of `weights[pid]` over the scope occurrences
    (pid, v) with `unassigned[pid] >= 2`. On an unassigned v that is
    `wdeg_scores(store, model, weights)[v]`; an assigned v keeps a score
    that no selection reads.

    `sync` scans `open` for the variables assigned since the last sync and
    marks them. When it finds some, it saves the trail length, the list
    it scanned and the variables it marked, then keeps the rest. `undo`
    pops every saved sync that the store's undo cut into: it puts back the
    list that sync scanned and unmarks the variables it marked. The search
    syncs at every selection and pushes each store mark right after a sync
    or at the depth of an earlier mark, so its undos pop whole syncs, and
    the saved lists take O(depth x open variables). A caller that pushes a
    mark between two syncs cuts a sync in two; `undo` pops it whole, so
    some variables it unmarks are still assigned, and the next sync,
    scanning the restored list, marks them again.
    """

    __slots__ = ("store", "weights", "scopes", "occurs", "unassigned", "scores",
                 "open", "saved")

    def __init__(self, store, model, weights=None):
        doms = store.doms
        self.store = store
        self.scopes = scopes = [p.scope for p in model.propagators]
        self.weights = weights = [1] * len(scopes) if weights is None else list(weights)
        self.occurs = occurs = [[] for _ in doms]
        is_open = [d & (d - 1) != 0 for d in doms]
        self.scores = scores = [0] * len(doms)
        self.unassigned = []
        for pid, scope in enumerate(scopes):
            count = 0
            for v in scope:
                occurs[v].append(pid)
                count += is_open[v]
            self.unassigned.append(count)
            if count >= 2:
                w = weights[pid]
                for v in scope:
                    scores[v] += w
        self.open = [v for v in model.branch_order if is_open[v]]
        # one (trail length, open, marked) per sync that marked any
        self.saved: list[tuple[int, list[int], list[int]]] = []

    def sync(self) -> list[int]:
        """Mark the variables assigned since the last sync; the scores."""
        store = self.store
        doms = store.doms
        still = []
        marked = []
        for v in self.open:
            d = doms[v]
            if d & (d - 1):
                still.append(v)
            else:
                marked.append(v)
        if marked:
            self.saved.append((len(store.trail), self.open, marked))
            self.open = still
            occurs = self.occurs
            unassigned = self.unassigned
            scopes = self.scopes
            weights = self.weights
            scores = self.scores
            for v in marked:
                for pid in occurs[v]:
                    count = unassigned[pid] - 1
                    unassigned[pid] = count
                    if count == 1:  # pid stops counting
                        w = weights[pid]
                        for u in scopes[pid]:
                            scores[u] -= w
        return self.scores

    def undo(self) -> None:
        """Follow an undo of the store: pop the syncs it cut into."""
        depth = len(self.store.trail)
        saved = self.saved
        if not saved or saved[-1][0] <= depth:
            return
        occurs = self.occurs
        unassigned = self.unassigned
        scopes = self.scopes
        weights = self.weights
        scores = self.scores
        while saved and saved[-1][0] > depth:
            _, self.open, marked = saved.pop()
            for v in marked:
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
    `store`, and rank only its open variables; static and sdf need none.
    """
    doms = store.doms
    order = model.branch_order

    if kind is _STATIC:
        for v in order:
            d = doms[v]
            if d & (d - 1):
                return v
        return None

    if kind is _SDF:
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

    if kind is _WDEG:
        scores = scorer.sync()
        best = None
        best_score = -1
        for v in scorer.open:
            score = scores[v]
            if score > best_score:
                best = v
                best_score = score
        return best

    if kind is _DOM_OVER_WDEG:
        scores = scorer.sync()
        # the sentinel ratio 1/0, which every real size/score beats
        best = None
        best_size = 1
        best_score = 0
        for v in scorer.open:
            size = doms[v].bit_count()
            score = scores[v] or 1
            # size/score < best_size/best_score, compared exactly
            if size * best_score < best_size * score:
                best = v
                best_size = size
                best_score = score
        return best

    raise ValueError(f"unknown heuristic {kind!r}")
