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
    marks them. When it finds some, it pushes a state (the list it scanned,
    the variables it marked, the previous head) on a chain, keeps the rest
    and stores the new head in `store.memo`, so an undo of the store puts
    back the head of its mark. A sync first walks its own head back to the
    store's, unmarking each state's variables and putting back the list
    it scanned. A store mark pushed between two syncs cuts a state in two;
    it is unmarked whole, so some variables it unmarks are still assigned,
    and the same sync, scanning the restored list, marks them again. A
    `bump` needs no rollback: an unmark that lets a propagator count again
    adds its weight as it is then. The states take O(depth x open
    variables).
    """

    __slots__ = ("store", "weights", "scopes", "occurs", "unassigned", "scores",
                 "open", "head")

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
        self.head = None  # (open, marked, previous head) of the last sync that marked any

    def sync(self) -> list[int]:
        """Unmark the syncs that an undo of the store took back, then mark
        the variables assigned since; the scores."""
        memo = self.store.memo
        doms = self.store.doms
        occurs = self.occurs
        unassigned = self.unassigned
        scopes = self.scopes
        weights = self.weights
        scores = self.scores
        head = memo.get(self)
        while self.head is not head:
            self.open, marked, self.head = self.head
            for v in marked:
                for pid in occurs[v]:
                    count = unassigned[pid]
                    if count == 1:  # pid counts again
                        w = weights[pid]
                        for u in scopes[pid]:
                            scores[u] += w
                    unassigned[pid] = count + 1
        still = []
        marked = []
        for v in self.open:
            d = doms[v]
            if d & (d - 1):
                still.append(v)
            else:
                marked.append(v)
        if marked:
            memo[self] = self.head = (self.open, marked, head)
            self.open = still
            for v in marked:
                for pid in occurs[v]:
                    count = unassigned[pid] - 1
                    unassigned[pid] = count
                    if count == 1:  # pid stops counting
                        w = weights[pid]
                        for u in scopes[pid]:
                            scores[u] -= w
        return scores

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
