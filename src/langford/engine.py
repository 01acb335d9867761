"""Finite-domain backtracking core.

A domain is a plain int bitmask: bit v is set iff value v is in it. A
trailed store with bit-exact restore, propagation to fixpoint over a
propagator queue, and all-solution depth-first search with 2-way
(assign / remove-min) branching. A search never writes to the model it
runs on: its domains, trail and failure weights are its own. Every search
runs on one kind of `Store`, which also keeps the sequence value view
over the model's cells that the cell filters read.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .heuristics import HeuristicKind, WdegScorer, select_variable
from .propagators import ElementOffsetConst, InverseChannel, Occurrence

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
    """Trailed domain store with the sequence value view.

    `doms` holds one bitmask per variable. Every reduction is trailed as a
    (var, removed-bits) record; undoing to a mark restores each domain
    bit-exactly. The trail doubles as the wake-event queue: the entries
    past `seen` are the reductions that have not yet woken their watchers.

    The store also keeps the sequence value view (Hnich, Smith & Walsh,
    JAIR 2004) over `cells`, the sequence cells at positions 1, 2, ... in
    order, or none for a model without cells. The view is two facts about
    them, kept equal to the domains after every commit and every undo:

    * `can[m]` has bit i set iff the cell at position i can still hold m,
      for every value m up to the largest one the cells start with (bit 0
      is never set);
    * `fixed` has bit i set iff the cell at position i is assigned, i.e.
      its domain holds exactly one value.

    The constructor fills `can` once per distinct initial cell domain, not
    once per cell and value: every cell of a built model has one domain.
    `commit` updates the view when it reduces a cell; `push_mark` saves
    the view with the trail length and `undo_to_mark` puts both back. Undo
    stays in that one method, which the benchmark's tracer wraps to count
    undos.

    A filter may keep state of its own for this search in `memo`, keyed by
    the propagator, valid until the next undo. The premise that makes such
    state sound: domains change only through `commit`, which only narrows,
    and `undo_to_mark`, which empties `memo`. So while a state is in
    `memo` a domain can only shrink, and a variable once assigned keeps its
    value, because any further removal would wipe it out, and a wipeout is
    always undone before the next filter call. `commit` and `push_mark`
    never touch `memo`.
    """

    __slots__ = (
        "doms", "trail", "trail_bits", "marks", "seen", "cells", "cell_bit", "can", "fixed", "memo",
    )

    def __init__(self, domains: Sequence[int], cells: tuple = ()):
        self.doms = doms = list(domains)
        # parallel lists, one removal event each: the var and the bits removed
        self.trail: list[int] = []
        self.trail_bits: list[int] = []
        self.marks: list[tuple[int, list[int], int]] = []
        self.seen = 0
        self.cells = cells
        self.cell_bit = cell_bit = [0] * len(doms)  # 1 << position of a cell, else 0
        positions: dict[int, int] = {}  # initial cell domain -> its cells' position bits
        for i, cell in enumerate(cells, 1):
            cell_bit[cell] = bit = 1 << i
            positions[doms[cell]] = positions.get(doms[cell], 0) | bit
        self.can = can = [0] * max((d.bit_length() for d in positions), default=0)
        self.fixed = 0
        self.memo: dict = {}
        for d, bits in positions.items():
            for v in values(d):
                can[v] |= bits
            if d and d & (d - 1) == 0:
                self.fixed |= bits

    def commit(self, var: int, new_mask: int) -> bool:
        """Install a reduced domain, trailing the removed bits.

        Returns False on wipeout; the empty domain is left in place for the
        caller to unwind.
        """
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
        self.marks.append((len(self.trail), self.can.copy(), self.fixed))

    def undo_to_mark(self) -> None:
        depth, self.can, self.fixed = self.marks.pop()
        trail = self.trail
        bits = self.trail_bits
        doms = self.doms
        while len(trail) > depth:
            doms[trail.pop()] |= bits.pop()
        self.seen = depth
        self.memo.clear()

    def value(self, var: int) -> int:
        d = self.doms[var]
        if d == 0 or d & (d - 1):
            raise ValueError(f"var {var} is not assigned")
        return d.bit_length() - 1


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

    Value conditions range over `cells`, the model's cells in position
    order (`validate_model` holds every propagator with a value mask to
    them); a condition over other variables raises ValueError. So there is
    one removal table and one assignment table, each built if some
    condition fills it and held by every cell: `value_of[cell]` and
    `assign_value_of[cell]`, None for every other variable. A table is
    indexed by value, each entry None or the pids to wake, in ascending pid
    order (a pid twice if it watches the cells twice), with an entry for
    each value of every mask and of every cell's initial domain.
    `on_assign[var]` is true iff `assign_any_of[var]` or
    `assign_value_of[var]` is set, so an event on a variable that no
    propagator watches for assignment costs one lookup. A search only
    reads the tables; none may write to them.
    """

    __slots__ = ("any_of", "value_of", "assign_any_of", "assign_value_of", "on_assign", "priority")

    def __init__(self, domains: Sequence[int], propagators: Sequence, cells: tuple):
        num_vars = len(domains)
        self.any_of = any_of = [[] for _ in range(num_vars)]
        self.value_of: list = [None] * num_vars
        self.assign_any_of = assign_any_of = [None] * num_vars
        self.assign_value_of: list = [None] * num_vars
        self.priority = [p.cost_tier for p in propagators]
        removals: list[tuple[int, int]] = []  # (pid, mask), in pid order
        assigns: list[tuple[int, int]] = []
        top = 0  # the union of every mask
        for pid, p in enumerate(propagators):
            for vars_, mask in p.wake_spec():
                if mask is None:
                    for var in vars_:
                        any_of[var].append(pid)
                elif vars_ is not cells and vars_ != cells:
                    raise ValueError(f"propagator {pid} has a value condition off the model's cells")
                else:
                    removals.append((pid, mask))
                    top |= mask
            for vars_, mask in p.wake_on_assign():
                if mask is None:
                    for var in vars_:
                        if assign_any_of[var] is None:
                            assign_any_of[var] = [pid]
                        else:
                            assign_any_of[var].append(pid)
                elif vars_ is not cells and vars_ != cells:
                    raise ValueError(f"propagator {pid} has a value condition off the model's cells")
                else:
                    assigns.append((pid, mask))
                    top |= mask
        size = max(top.bit_length() + 1, max((domains[cell].bit_length() for cell in cells), default=0))
        for tables, conditions in ((self.value_of, removals), (self.assign_value_of, assigns)):
            if conditions:
                table = [None] * size
                for pid, mask in conditions:
                    while mask:
                        low = mask & -mask
                        mask ^= low
                        v = low.bit_length() - 1
                        if table[v] is None:
                            table[v] = [pid]
                        else:
                            table[v].append(pid)
                for cell in cells:
                    tables[cell] = table
        self.on_assign = [
            pids is not None or table is not None
            for pids, table in zip(assign_any_of, self.assign_value_of)
        ]


def build_watchers(domains: Sequence[int], propagators: Sequence, cells: tuple) -> Watchers:
    """The wake tables of `propagators` over variables whose initial
    domains are `domains`, with every value condition over `cells`."""
    return Watchers(domains, propagators, cells)


class _Queue:
    """Reusable two-tier propagator queue; left empty after every
    propagate_to_fixpoint call, including failing ones.

    Built once per search from the watchers' `priority`: `push[pid]` is
    the bound `append` of the tier deque that pid goes to, `heavy` if
    `priority[pid]`, else `cheap`; each tier's append is bound once and
    shared by its pids. `clear` keeps both deque objects, so the bound
    appends stay valid for the whole search.
    """

    __slots__ = ("cheap", "heavy", "in_queue", "push")

    def __init__(self, priority: Sequence[int]):
        self.cheap: deque[int] = deque()
        self.heavy: deque[int] = deque()
        self.in_queue = [0] * len(priority)
        heavy, cheap = self.heavy.append, self.cheap.append
        self.push = [heavy if tier else cheap for tier in priority]

    def clear(self) -> None:
        in_queue = self.in_queue
        for pid in self.cheap:
            in_queue[pid] = 0
        for pid in self.heavy:
            in_queue[pid] = 0
        self.cheap.clear()
        self.heavy.clear()


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
    Dispatch runs only when the trail grew, so a filter that committed
    nothing costs just its call and the next pop. Every return, failing
    ones included, leaves them all seen. Returns FIXPOINT, or the failing
    propagator's id.
    """
    if queue is None:
        queue = _Queue(watchers.priority)
    cheap = queue.cheap
    heavy = queue.heavy
    in_queue = queue.in_queue
    push = queue.push
    any_of = watchers.any_of
    value_of = watchers.value_of
    on_assign = watchers.on_assign
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
                push[pid](pid)
    while True:
        end = len(trail)
        if end != seen:
            for event in range(seen, end):
                var = trail[event]
                for pid in any_of[var]:
                    if not in_queue[pid]:
                        in_queue[pid] = 1
                        push[pid](pid)
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
                                    push[pid](pid)
                if on_assign[var]:
                    d = doms[var]
                    if d & (d - 1) == 0:
                        pids = assign_any_of[var]
                        if pids:
                            for pid in pids:
                                if not in_queue[pid]:
                                    in_queue[pid] = 1
                                    push[pid](pid)
                        table = assign_value_of[var]
                        if table is not None:
                            pids = table[d.bit_length() - 1]
                            if pids:
                                for pid in pids:
                                    if not in_queue[pid]:
                                        in_queue[pid] = 1
                                        push[pid](pid)
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
    """Reject models whose branching order is not a permutation of their
    variables (a leaf is where every ordered variable is assigned, so an
    unordered one could still be open there), whose propagators reference
    unknown variables, or whose cell filters would misread the store's
    sequence value view. The cells must be distinct: the view gives each
    cell one position. An `ElementOffsetConst`, `Occurrence` or
    `InverseChannel` must range over the model's cells in position order,
    and must not ask for a value (for the channel, n) above the largest
    one a cell's initial domain holds. The cells are range-checked once, so
    a cell filter whose array is the cells has only the rest of its scope
    checked (an element's index, the channel's slots): the k·n element
    filters would otherwise walk the cells k·n times; any other scope is
    checked whole. An array that is the model's own tuple, as in every
    built model, is not compared with it value by value."""
    num_vars = len(model.initial_domains)
    cells = model.cells
    if sorted(model.branch_order) != list(range(num_vars)):
        raise ValueError("the branching order is not a permutation of the model's variables")
    if not all(0 <= v < num_vars for v in cells):
        raise ValueError("the cells reference an unknown var")
    if len(set(cells)) != len(cells):
        raise ValueError("the model's cells repeat a variable")
    top = max((model.initial_domains[cell].bit_length() for cell in cells), default=0) - 1
    for pid, p in enumerate(model.propagators):
        scope = p.scope
        if not scope:
            raise ValueError(f"propagator {pid} has an empty scope")
        if isinstance(p, ElementOffsetConst):
            array, value, rest = p.array, p.value, (p.index,)
        elif isinstance(p, Occurrence):
            array, value, rest = scope, p.value, ()
        elif isinstance(p, InverseChannel):
            array, value, rest = p.seq, p.n, scope[:-len(p.seq)]
        else:
            array, rest = None, scope
        on_cells = array is cells or array == cells
        for v in rest if on_cells else scope:
            if not (0 <= v < num_vars):
                raise ValueError(f"propagator {pid} references unknown var {v}")
        if array is None:
            continue
        if not on_cells:
            raise ValueError(f"propagator {pid} does not range over the model's cells in order")
        if value > top:
            raise ValueError(f"propagator {pid} asks for {value}, above every cell's initial domain")


def solve_all(
    model,
    heuristic: Optional[HeuristicKind] = None,
    node_limit: Optional[int] = None,
    time_limit: Optional[float] = None,
) -> tuple[list[Solution], SearchStats]:
    """Every solution of `model` in a list, and the search's counters:
    `iter_solutions` run to its end, or to a node or time limit with
    `timed_out` set; the list grows with the solutions."""
    stats = SearchStats()
    return list(iter_solutions(model, stats, heuristic, node_limit, time_limit)), stats


def iter_solutions(
    model,
    stats: SearchStats,
    heuristic: Optional[HeuristicKind] = None,
    node_limit: Optional[int] = None,
    time_limit: Optional[float] = None,
) -> Iterator[Solution]:
    """Enumerate every solution of `model`, depth first, yielding each as
    it is found and holding no other. The search fills `stats`, current at
    each yield, and sets `elapsed_ms` when it ends or is closed. Its clock,
    time limit included, runs while the caller holds a solution, so a
    caller that prints each one is timed too. The model is validated at
    the first `next`.

    Variables are selected by `model.config.heuristic`; a `heuristic`
    argument overrides it. 2-way branching: the left child assigns the
    selected variable its minimum value, the right child removes that
    value. Both children go through one block (budget check, mark, commit,
    propagation) that differs only in the mask it commits: the lowest bit
    of the variable's domain, or the domain without it. Each committed child
    counts one node; a wipeout during its propagation counts one failure.
    On hitting a node or time limit the search stops with `timed_out` set.

    A wdeg or dom/wdeg search keeps failure weights in a `WdegScorer` over
    its store, built after a root propagation that did not fail: a search
    that ends at its root needs none. The weights belong to this search:
    each starts at 1, so repeated or concurrent searches of one model
    agree. A failure bumps the failing propagator's weight. The scorer
    syncs at every selection and follows every `undo_to_mark`, so at each
    selection its open variables are the unassigned ones of the branching
    order, in order, and its score of each equals `wdeg_scores` of the
    store and weights. A selection ranks only those: the same selections
    as the reference ranking of the whole branching order by a walk over
    every scope, at the cost of a scan of the variables the last selection
    left open.
    """
    if heuristic is None:
        heuristic = model.config.heuristic
    validate_model(model)
    propagators = model.propagators
    num_vars = len(model.initial_domains)
    store = Store(model.initial_domains, model.cells)
    watchers = build_watchers(model.initial_domains, propagators, model.cells)
    queue = _Queue(watchers.priority)
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
            return
        if propagate_to_fixpoint(store, propagators, watchers, range(len(propagators)), queue) != FIXPOINT:
            stats.failures += 1
            return
        scorer = None
        if heuristic is HeuristicKind.WDEG or heuristic is HeuristicKind.DOM_OVER_WDEG:
            scorer = WdegScorer(store, model)

        # Frames track committed children: (var, its domain before the
        # child, phase), phase 1 = the left child, which keeps the lowest
        # value of that domain, phase 2 = the right child, which removes it.
        # One mark per child.
        doms = store.doms
        frames: list[tuple[int, int, int]] = []
        descend = True
        while True:
            if descend:
                var = select_variable(store, model, heuristic, scorer)
                if var is None:
                    stats.solutions += 1
                    # built at its exact size, so it reuses a freed tuple's memory
                    yield tuple([store.value(v) for v in range(num_vars)])
                    descend = False
                    continue
                d = doms[var]
                mask = d & -d
                phase = 1
            else:
                if not frames:
                    break
                var, d, phase = frames.pop()
                store.undo_to_mark()
                if scorer is not None:
                    scorer.undo()
                if phase == 2:
                    continue  # both children done: keep unwinding
                mask = d & (d - 1)
                phase = 2
            if budget_hit():
                stats.timed_out = True
                break
            store.push_mark()
            stats.nodes += 1
            frames.append((var, d, phase))
            store.commit(var, mask)
            failed = propagate_to_fixpoint(store, propagators, watchers, None, queue)
            descend = failed == FIXPOINT
            if not descend:
                stats.failures += 1
                if scorer is not None:
                    scorer.bump(failed)
    finally:
        stats.elapsed_ms = int((time.monotonic() - t0) * 1000)
