"""Finite-domain backtracking core.

A domain is a plain int bitmask: bit v is set iff value v is in it. A
trailed store with bit-exact restore, propagation to fixpoint over a
propagator queue, and all-solution depth-first search with 2-way
(assign / remove-min) branching. A search never writes to the model it
runs on: its domains, trail and failure weights are its own. A search of
a model with an `InverseChannel` runs on a `ViewStore`, which also keeps
the sequence value view its filters read.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence

from .heuristics import HeuristicKind, WdegScorer, select_variable
from .propagators import InverseChannel

FIXPOINT = -1

Solution = tuple  # dense assignment, indexed by VarId


def values(mask: int) -> list[int]:
    """The values in a domain mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class Store:
    """Trailed domain store.

    `doms` holds one bitmask per variable. Every reduction is trailed as a
    (var, removed-bits) record; undoing to a mark restores each domain
    bit-exactly. The trail doubles as the wake-event queue: the entries
    past `seen` are the reductions that have not yet woken their watchers.

    A plain store keeps no sequence value view: its `cells` is None. The
    one view branch of a plain store is per undo, not per commit; see
    `ViewStore`.
    """

    __slots__ = ("doms", "trail", "trail_bits", "marks", "seen", "cells")

    def __init__(self, domains: Sequence[int]):
        self.doms = list(domains)
        # parallel lists, one removal event each: the var and the bits removed
        self.trail: list[int] = []
        self.trail_bits: list[int] = []
        self.marks: list[int] = []
        self.seen = 0
        self.cells = None

    def commit(self, var: int, new_mask: int) -> bool:
        """Install a reduced domain, trailing the removed bits.

        Returns False on wipeout; the empty domain is left in place for the
        caller to unwind.
        """
        self.trail.append(var)
        self.trail_bits.append(self.doms[var] ^ new_mask)
        self.doms[var] = new_mask
        return new_mask != 0

    def intersect(self, var: int, mask: int) -> bool:
        d = self.doms[var]
        nd = d & mask
        if nd == d:
            return True
        return self.commit(var, nd)

    def remove_value(self, var: int, v: int) -> bool:
        return self.intersect(var, ~(1 << v))

    def assign(self, var: int, v: int) -> bool:
        return self.intersect(var, 1 << v)

    def push_mark(self) -> None:
        self.marks.append(len(self.trail))

    def undo_to_mark(self) -> None:
        depth = self.marks.pop()
        trail = self.trail
        bits = self.trail_bits
        doms = self.doms
        while len(trail) > depth:
            doms[trail.pop()] |= bits.pop()
        self.seen = depth
        if self.cells is not None:  # a ViewStore: put back the saved view
            self.can, self.fixed = self.saved.pop()

    def min_value(self, var: int) -> int:
        d = self.doms[var]
        return (d & -d).bit_length() - 1

    def is_assigned(self, var: int) -> bool:
        d = self.doms[var]
        return d != 0 and d & (d - 1) == 0

    def value(self, var: int) -> int:
        d = self.doms[var]
        if d == 0 or d & (d - 1):
            raise ValueError(f"var {var} is not assigned")
        return d.bit_length() - 1


class ViewStore(Store):
    """A store that also keeps the sequence value view over `cells`.

    `cells` is a tuple of variables, the sequence cells at positions 1, 2,
    ... in order. The view is two facts about them, kept equal to the
    domains after every commit and every undo:

    * `can[m]` has bit i set iff the cell at position i can still hold m,
      for every value m of the cells' initial domains (bit 0 is never set);
    * `fixed` has bit i set iff the cell at position i is assigned, i.e.
      its domain holds exactly one value.

    `commit` updates the view when it reduces a cell; `push_mark` saves
    the view and `Store.undo_to_mark` puts it back. Undo stays in that one
    method, which the benchmark's tracer wraps to count undos. A filter
    reads the view only when its array is `cells` itself
    (`store.cells is array`), so a model builder passes the very tuple the
    view is made over to every propagator over the cells. Commits, their
    order and the trail are the same as on a plain store.
    """

    __slots__ = ("cell_bit", "can", "fixed", "saved")

    def __init__(self, domains: Sequence[int], cells: tuple):
        super().__init__(domains)
        doms = self.doms
        self.cells = cells
        self.cell_bit = [0] * len(doms)  # 1 << position of a cell, else 0
        self.can = [0] * max((doms[cell].bit_length() for cell in cells), default=0)
        self.fixed = 0
        self.saved: list[tuple[list[int], int]] = []
        for i, cell in enumerate(cells, 1):
            bit = 1 << i
            self.cell_bit[cell] = bit
            d = doms[cell]
            for v in values(d):
                self.can[v] |= bit
            if d and d & (d - 1) == 0:
                self.fixed |= bit

    def commit(self, var: int, new_mask: int) -> bool:
        doms = self.doms
        removed = doms[var] ^ new_mask
        self.trail.append(var)
        self.trail_bits.append(removed)
        doms[var] = new_mask
        bit = self.cell_bit[var]
        if bit:
            can = self.can
            keep = ~bit
            while removed:
                low = removed & -removed
                removed ^= low
                can[low.bit_length() - 1] &= keep
            if new_mask & (new_mask - 1) == 0:
                if new_mask:
                    self.fixed |= bit
                else:
                    self.fixed &= keep
        return new_mask != 0

    def push_mark(self) -> None:
        self.marks.append(len(self.trail))
        self.saved.append((self.can.copy(), self.fixed))


def new_store(model) -> Store:
    """The store a search of `model` runs on: a `ViewStore` over the cells
    of the model's `InverseChannel` when it has one, else a plain `Store`,
    so direct and positional searches pay nothing for the view."""
    for p in model.propagators:
        if isinstance(p, InverseChannel):
            return ViewStore(model.initial_domains, p.seq)
    return Store(model.initial_domains)


@dataclass
class SearchStats:
    """Search counters; all monotone during a run, elapsed excluded from
    determinism guarantees."""

    nodes: int = 0
    failures: int = 0
    solutions: int = 0
    elapsed_ms: int = 0
    timed_out: bool = False


class Watchers:
    """Wake tables: which propagators to queue when a domain changes.

    The changes are the store's trail entries past `seen`, each a var and
    the bits it lost; the fixpoint loop looks them up here in trail order.
    A propagator may watch a variable unconditionally, for the removal of
    specific values (an element constraint only cares about its target value
    disappearing from an array cell), or for the variable becoming assigned.
    Wake conditions are conservative: a propagator is requeued whenever its
    filter could still act, so the fixpoint reached is independent of the
    wake bookkeeping. Heavy propagators are queued behind cheap ones; that
    ordering does not change the fixpoint either.
    """

    __slots__ = ("any_of", "value_of", "assign_any_of", "assign_value_of", "priority")

    def __init__(self, num_vars: int, propagators: Sequence):
        self.any_of: list[list[int]] = [[] for _ in range(num_vars)]
        self.value_of: list = [None] * num_vars
        self.assign_any_of: list = [None] * num_vars
        self.assign_value_of: list = [None] * num_vars
        self.priority = bytearray(len(propagators))
        max_value = 0
        removal_specs = []
        assign_specs = []
        for pid, p in enumerate(propagators):
            self.priority[pid] = p.cost_tier
            removal_specs.append(p.wake_spec())
            assign_specs.append(p.wake_on_assign())
            for spec in (removal_specs[-1], assign_specs[-1]):
                for _, mask in spec:
                    if mask is not None:
                        max_value = max(max_value, mask.bit_length())

        def add_to_table(tables, var, mask, pid):
            table = tables[var]
            if table is None:
                table = [None] * (max_value + 1)
                tables[var] = table
            rest = mask
            while rest:
                low = rest & -rest
                rest ^= low
                v = low.bit_length() - 1
                if table[v] is None:
                    table[v] = []
                table[v].append(pid)

        for pid, spec in enumerate(removal_specs):
            for var, mask in spec:
                if mask is None:
                    self.any_of[var].append(pid)
                else:
                    add_to_table(self.value_of, var, mask, pid)
        for pid, spec in enumerate(assign_specs):
            for var, mask in spec:
                if mask is None:
                    if self.assign_any_of[var] is None:
                        self.assign_any_of[var] = []
                    self.assign_any_of[var].append(pid)
                else:
                    add_to_table(self.assign_value_of, var, mask, pid)


def build_watchers(num_vars: int, propagators: Sequence) -> Watchers:
    return Watchers(num_vars, propagators)


class _Queue:
    """Reusable two-tier propagator queue; left empty after every
    propagate_to_fixpoint call, including failing ones."""

    __slots__ = ("cheap", "heavy", "in_queue")

    def __init__(self, num_propagators: int):
        self.cheap: deque[int] = deque()
        self.heavy: deque[int] = deque()
        self.in_queue = bytearray(num_propagators)

    def clear(self) -> None:
        while self.cheap:
            self.in_queue[self.cheap.popleft()] = 0
        while self.heavy:
            self.in_queue[self.heavy.popleft()] = 0


def propagate_to_fixpoint(
    store: Store,
    propagators: Sequence,
    watchers: Watchers,
    queue_pids=None,
    queue: Optional[_Queue] = None,
) -> int:
    """Run queued propagators until no domain changes or one fails.

    Wake events are the trail entries past `store.seen`, dispatched in trail
    order: first the pending ones, so a freshly committed branching step
    seeds its own wake set, then after each filter the ones it committed.
    Every return, failing ones included, leaves them all seen. Returns
    FIXPOINT, or the failing propagator's id.
    """
    if queue is None:
        queue = _Queue(len(propagators))
    cheap = queue.cheap
    heavy = queue.heavy
    in_queue = queue.in_queue
    priority = watchers.priority
    any_of = watchers.any_of
    value_of = watchers.value_of
    assign_any_of = watchers.assign_any_of
    assign_value_of = watchers.assign_value_of
    doms = store.doms
    trail = store.trail
    trail_bits = store.trail_bits
    seen = store.seen
    if queue_pids is not None:
        for pid in queue_pids:
            if not in_queue[pid]:
                in_queue[pid] = 1
                (heavy if priority[pid] else cheap).append(pid)
    while True:
        end = len(trail)
        for event in range(seen, end):
            var = trail[event]
            for pid in any_of[var]:
                if not in_queue[pid]:
                    in_queue[pid] = 1
                    (heavy if priority[pid] else cheap).append(pid)
            table = value_of[var]
            if table is not None:
                rest = trail_bits[event]
                while rest:
                    low = rest & -rest
                    rest ^= low
                    pids = table[low.bit_length() - 1]
                    if pids:
                        for pid in pids:
                            if not in_queue[pid]:
                                in_queue[pid] = 1
                                (heavy if priority[pid] else cheap).append(pid)
            if assign_any_of[var] is not None or assign_value_of[var] is not None:
                d = doms[var]
                if d & (d - 1) == 0:
                    pids = assign_any_of[var]
                    if pids:
                        for pid in pids:
                            if not in_queue[pid]:
                                in_queue[pid] = 1
                                (heavy if priority[pid] else cheap).append(pid)
                    table = assign_value_of[var]
                    if table is not None:
                        pids = table[d.bit_length() - 1]
                        if pids:
                            for pid in pids:
                                if not in_queue[pid]:
                                    in_queue[pid] = 1
                                    (heavy if priority[pid] else cheap).append(pid)
        seen = end
        if cheap:
            pid = cheap.popleft()
        elif heavy:
            pid = heavy.popleft()
        else:
            store.seen = seen
            return FIXPOINT
        in_queue[pid] = 0
        if not propagators[pid].filter(store):
            store.seen = len(trail)
            queue.clear()
            return pid


def validate_model(model) -> None:
    """Reject models whose propagators reference unknown variables."""
    num_vars = len(model.initial_domains)
    for pid, p in enumerate(model.propagators):
        if not p.scope:
            raise ValueError(f"propagator {pid} has an empty scope")
        for v in p.scope:
            if not (0 <= v < num_vars):
                raise ValueError(f"propagator {pid} references unknown var {v}")
    for v in model.branch_order:
        if not (0 <= v < num_vars):
            raise ValueError(f"branching order references unknown var {v}")


def solve_all(
    model,
    heuristic: Optional[HeuristicKind] = None,
    node_limit: Optional[int] = None,
    time_limit: Optional[float] = None,
) -> tuple[list[Solution], SearchStats]:
    """Enumerate every solution of `model`, depth first.

    Variables are selected by `model.config.heuristic`; a `heuristic`
    argument overrides it. 2-way branching: the left child assigns the
    selected variable its minimum value, the right child removes that
    value. Each committed child counts one node. A wipeout during a
    commit's propagation counts one failure. On hitting a node or time
    limit the partial solution list is returned with `timed_out` set.

    A wdeg or dom/wdeg search keeps failure weights in a `WdegScorer` over
    its store. They belong to this search: each starts at 1, so repeated
    or concurrent searches of one model agree. A failure bumps the failing
    propagator's weight. The scorer syncs with the trail at every
    selection and follows every `undo_to_mark`, so at each selection its
    score of an unassigned variable equals `wdeg_scores` of the store and
    weights: the same selections as the reference walk over every scope,
    at the cost of the trail entries since the last selection.
    """
    if heuristic is None:
        heuristic = model.config.heuristic
    validate_model(model)
    propagators = model.propagators
    num_vars = len(model.initial_domains)
    store = new_store(model)
    scorer = None
    if heuristic is HeuristicKind.WDEG or heuristic is HeuristicKind.DOM_OVER_WDEG:
        scorer = WdegScorer(store, model)
    watchers = build_watchers(num_vars, propagators)
    queue = _Queue(len(propagators))
    stats = SearchStats()
    solutions: list[Solution] = []
    t0 = time.monotonic()
    deadline = None if time_limit is None else t0 + time_limit

    def budget_hit() -> bool:
        if node_limit is not None and stats.nodes >= node_limit:
            return True
        if deadline is not None and time.monotonic() >= deadline:
            return True
        return False

    try:
        if budget_hit():
            stats.timed_out = True
            return solutions, stats
        if propagate_to_fixpoint(store, propagators, watchers, range(len(propagators)), queue) != FIXPOINT:
            stats.failures += 1
            return solutions, stats

        # Frames track committed children: phase 1 = in left subtree,
        # phase 2 = in right subtree. One mark per committed child.
        frames: list[tuple[int, int, int]] = []
        descend = True
        while True:
            if descend:
                var = select_variable(store, model, heuristic, scorer)
                if var is None:
                    solutions.append(tuple(store.value(v) for v in range(num_vars)))
                    stats.solutions += 1
                    descend = False
                    continue
                value = store.min_value(var)
                if budget_hit():
                    stats.timed_out = True
                    break
                store.push_mark()
                stats.nodes += 1
                frames.append((var, value, 1))
                store.assign(var, value)
                failed = propagate_to_fixpoint(store, propagators, watchers, None, queue)
                if failed != FIXPOINT:
                    stats.failures += 1
                    if scorer is not None:
                        scorer.bump(failed)
                    descend = False
            else:
                if not frames:
                    break
                var, value, phase = frames.pop()
                store.undo_to_mark()
                if scorer is not None:
                    scorer.undo()
                if phase == 1:
                    if budget_hit():
                        stats.timed_out = True
                        break
                    store.push_mark()
                    stats.nodes += 1
                    frames.append((var, value, 2))
                    store.remove_value(var, value)
                    failed = propagate_to_fixpoint(store, propagators, watchers, None, queue)
                    if failed == FIXPOINT:
                        descend = True
                    else:
                        stats.failures += 1
                        if scorer is not None:
                            scorer.bump(failed)
                # phase 2 finished: keep unwinding
    finally:
        stats.elapsed_ms = int((time.monotonic() - t0) * 1000)
    return solutions, stats
