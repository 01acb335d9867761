"""Finite-domain backtracking core.

A domain is a plain int bitmask: bit v is set iff value v is in it. A
store that backtracks by restoring the snapshot of each mark,
propagation to fixpoint over a propagator queue, and all-solution
depth-first search with 2-way (assign / remove-min) branching. A search
never writes to the model it runs on: its domains, trail, wake queue and
failure weights are its own.
Every search runs on one kind of `Store`, which also keeps the sequence
value view over the model's cells that the cell filters read, and one
`Watchers`, which holds the wake tables that each propagator's `wakes`
states and the queue they fill.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Iterator, Optional, Sequence

from .heuristics import HeuristicKind, WdegScorer, select_variable
from .propagators import ElementOffsetConst, InverseChannel, Occurrence

FIXPOINT = -1

Solution = tuple  # dense assignment, indexed by VarId
_BITS: dict[int, tuple[int, ...]] = {}  # value mask -> its values, filled by `bits`


def values(mask: int) -> list[int]:
    """The values in a domain mask, ascending."""
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


def bits(mask: int) -> tuple[int, ...]:
    """The values of a value mask as a tuple, memoised: see `Store`."""
    return _BITS.setdefault(mask, tuple(values(mask)))


class Store:
    """Domain store with snapshot backtracking and the sequence value view.

    `doms` holds one bitmask per variable. Every reduction is logged on the
    trail as a (var, removed-bits) record: the wake events that no fixpoint
    has dispatched, as `propagate_to_fixpoint` empties the trail on every
    return. `push_mark` saves a snapshot of the domains, the view and
    `memo`; `undo_to_mark` puts it back, restoring `doms` in place (the
    search and its scorer hold that list), and leaves the trail alone: a
    search marks and undoes only between fixpoints, where it is empty, and
    a stale event would only wake its watchers needlessly, which never
    changes a fixpoint. The marks hold O(depth × variables) ints.

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
    `commit` updates the view when it reduces a cell, reading the values it
    lost from `_BITS`, a process-wide memo of each value mask's values. Its
    keys are masks of cell values (subsets of 1..n in a built model), so at
    most 2^n; a position mask (k·n+1 bits) must stay out, or it would grow
    with the search. Undo stays in the one method `undo_to_mark`, which the
    benchmark's tracer wraps to count undos.

    A filter may keep state of its own for this search in `memo`, keyed by
    the propagator, and so does a search's `WdegScorer`, keyed by itself.
    The premise that makes such state sound: domains
    change only through `commit`, which only narrows, and `undo_to_mark`,
    which puts back the domains and the memo of its mark together. So a
    state in `memo` was saved by a call whose domains held every value the
    domains hold now, and a variable assigned then keeps its value, because
    any further removal would wipe it out, and a wipeout is always undone
    before the next filter call. A state therefore lasts until an undo past
    the mark it was saved under. `commit` never touches `memo`, and
    `push_mark` only saves a copy of it.
    """

    __slots__ = (
        "doms", "trail", "trail_bits", "marks", "cells", "cell_bit", "can", "fixed", "memo",
    )

    def __init__(self, domains: Sequence[int], cells: tuple = ()):
        self.doms = doms = list(domains)
        # parallel lists, one removal event each: the var and the bits removed
        self.trail: list[int] = []
        self.trail_bits: list[int] = []
        # (doms, can, fixed, memo) at each open mark
        self.marks: list[tuple[list[int], list[int], int, dict]] = []
        self.cells = cells
        self.cell_bit = cell_bit = [0] * len(doms)  # 1 << position of a cell, else 0
        positions: dict[int, int] = {}  # initial cell domain -> its cells' position bits
        for i, cell in enumerate(cells, 1):
            cell_bit[cell] = bit = 1 << i
            positions[doms[cell]] = positions.get(doms[cell], 0) | bit
        self.can = can = [0] * max((d.bit_length() for d in positions), default=0)
        self.fixed = 0
        self.memo: dict = {}
        for d, held in positions.items():
            for v in values(d):
                can[v] |= held
            if d and d & (d - 1) == 0:
                self.fixed |= held

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
            for v in _BITS.get(removed) or bits(removed):
                can[v] &= keep
            if new_mask & (new_mask - 1) == 0:
                if new_mask:
                    self.fixed |= bit
                else:
                    self.fixed &= keep
        return new_mask != 0

    def push_mark(self) -> None:
        self.marks.append((self.doms.copy(), self.can.copy(), self.fixed, self.memo.copy()))

    def undo_to_mark(self) -> None:
        doms, self.can, self.fixed, self.memo = self.marks.pop()
        self.doms[:] = doms

    def value(self, var: int) -> int:
        d = self.doms[var]
        if d == 0 or d & (d - 1):
            raise ValueError(f"var {var} is not assigned")
        return d.bit_length() - 1


class SearchStats:
    """Search counters; all monotone during a run, elapsed excluded from
    determinism guarantees."""

    __slots__ = ("nodes", "failures", "solutions", "elapsed_ms", "timed_out")

    def __init__(self, nodes: int = 0, failures: int = 0, solutions: int = 0,
                 elapsed_ms: int = 0, timed_out: bool = False):
        self.nodes = nodes
        self.failures = failures
        self.solutions = solutions
        self.elapsed_ms = elapsed_ms
        self.timed_out = timed_out

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)

    def __repr__(self) -> str:
        return "SearchStats(" + ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__slots__) + ")"


class Watchers:
    """Wake tables and the two-tier propagator queue of one search.

    The tables say which propagators to queue when a domain changes. The
    changes are the store's trail entries, each a var and the bits it
    lost; the fixpoint loop looks them up here in trail order, a
    cell's lost values via the `_BITS` memo (see `Store`). Each propagator
    states its conditions once, in `Propagator.wakes`: it may watch a
    variable for any removal or for its assignment, or the cells for the
    removal or assignment of specific values (an element constraint only
    cares about its target value disappearing from an array cell). Wake
    conditions are conservative: a propagator is requeued whenever its
    filter could still act, so the fixpoint reached is independent of the
    wake bookkeeping. Heavy propagators are queued behind cheap ones; that
    ordering does not change the fixpoint either.

    There is one table per event kind: `any_of[var]` lists the pids that
    watch var for any removal; `value_of[var]` and `assign_of[var]` are
    None or a table by value, whose entry lists the pids to wake when var
    loses, or is assigned, that value. Every entry is a list, maybe empty.
    A value mask is over `cells`, the model's cells in position order, so
    the value conditions of a kind make one table, held by every cell,
    with an entry for each value of every mask and of every cell's
    initial domain. Pids are in ascending order, but an `assign_of` entry
    lists first those that watch var for any assignment, then those of
    the value conditions on its value: a variable watched only for any
    assignment has that one list at every value of its initial domain,
    and a cell also watched so gets its own table, merged from the shared
    one. A search only reads the tables; none may write to them.

    The queue is `cheap` and `heavy`, one deque per tier, with `in_queue`
    flagging the queued pids. `push[pid]` is the bound `append` of the
    deque that pid goes to, `heavy` if its `cost_tier` is set, else
    `cheap`; each tier's append is bound once and shared by its pids. Every
    `propagate_to_fixpoint` call leaves the queue empty, failing ones
    included, and `clear` keeps both deque objects, so the bound appends
    stay valid and one `Watchers` serves a whole search.
    """

    __slots__ = ("any_of", "value_of", "assign_of", "cheap", "heavy", "in_queue", "push")

    def __init__(self, domains: Sequence[int], propagators: Sequence, cells: tuple):
        num_vars = len(domains)
        self.any_of = any_of = [[] for _ in range(num_vars)]
        self.value_of: list = [None] * num_vars
        self.assign_of = assign_of = [None] * num_vars
        watched = [[] for _ in range(num_vars)]  # the pids that watch each var for any assignment
        self.cheap: deque[int] = deque()
        self.heavy: deque[int] = deque()
        self.in_queue = [0] * len(propagators)
        heavy, cheap = self.heavy.append, self.cheap.append
        self.push = [heavy if p.cost_tier else cheap for p in propagators]
        removals, assigns = [], []  # (pid, mask) pairs, in pid order
        top = 0  # the union of every mask
        for pid, p in enumerate(propagators):
            removed, assigned, removal_mask, assign_mask = p.wakes()
            for var in removed:
                any_of[var].append(pid)
            for var in assigned:
                watched[var].append(pid)
            if removal_mask:
                removals.append((pid, removal_mask))
            if assign_mask:
                assigns.append((pid, assign_mask))
            top |= removal_mask | assign_mask
        size = max(top.bit_length() + 1, max((domains[cell].bit_length() for cell in cells), default=0))
        for tables, conditions in ((self.value_of, removals), (assign_of, assigns)):
            if conditions:
                table = [[] for _ in range(size)]
                for pid, mask in conditions:
                    for v in _BITS.get(mask) or bits(mask):
                        table[v].append(pid)
                for cell in cells:
                    tables[cell] = table
        for var, pids in enumerate(watched):
            if pids:
                shared = assign_of[var]
                assign_of[var] = ([pids] * domains[var].bit_length() if shared is None
                                  else [pids + entry for entry in shared])

    def clear(self) -> None:
        """Empty the queue, keeping both deques."""
        in_queue = self.in_queue
        for pid in self.cheap:
            in_queue[pid] = 0
        for pid in self.heavy:
            in_queue[pid] = 0
        self.cheap.clear()
        self.heavy.clear()


def build_watchers(domains: Sequence[int], propagators: Sequence, cells: tuple) -> Watchers:
    """The wake tables of `propagators` over variables whose initial
    domains are `domains`, every value mask over `cells`, and an empty queue."""
    return Watchers(domains, propagators, cells)


def propagate_to_fixpoint(store: Store, propagators: Sequence, watchers: Watchers, queue_pids=None) -> int:
    """Run queued propagators until no domain changes or one fails.

    Wake events are the store's trail entries, dispatched in trail order:
    first the pending ones, so a freshly committed branching step seeds its
    own wake set, then after each filter the ones it committed, only if the
    trail grew. An event reads three tables (see `Watchers`), each entry a
    list: `any_of[var]`, the `value_of` entry of each value it removed (via
    the `_BITS` memo, see `Store`) and, if var is now assigned, the
    `assign_of` entry of its value, whose pids that watch var for any
    assignment come before those that watch that value. A queued pid is
    skipped. Every return, failing ones included, leaves the trail and the
    watchers' queue empty. Returns FIXPOINT, or the failing propagator's id.
    """
    cheap = watchers.cheap
    heavy = watchers.heavy
    in_queue = watchers.in_queue
    push = watchers.push
    any_of = watchers.any_of
    value_of = watchers.value_of
    assign_of = watchers.assign_of
    doms = store.doms
    trail = store.trail
    trail_bits = store.trail_bits
    seen = 0
    bits_of = _BITS.get
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
                    for v in bits_of(trail_bits[event]) or bits(trail_bits[event]):
                        for pid in table[v]:
                            if not in_queue[pid]:
                                in_queue[pid] = 1
                                push[pid](pid)
                table = assign_of[var]
                if table is not None:
                    d = doms[var]
                    if d & (d - 1) == 0:
                        for pid in table[d.bit_length() - 1]:
                            if not in_queue[pid]:
                                in_queue[pid] = 1
                                push[pid](pid)
            seen = end
        if cheap:
            pid = cheap.popleft()
        elif heavy:
            pid = heavy.popleft()
        else:
            trail.clear()
            trail_bits.clear()
            return FIXPOINT
        in_queue[pid] = 0
        if not propagators[pid].filter(store):
            trail.clear()
            trail_bits.clear()
            watchers.clear()
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
    one a cell's initial domain holds; a channel's cells must start within
    1..n. The cells are range-checked once, so a cell filter whose array is
    the cells has only the rest of its scope checked (an element's index,
    the channel's slots): the k·n element filters would otherwise walk the
    cells k·n times; any other scope is checked whole. An array that is the
    model's own tuple, as in every built model, is not compared with it
    value by value."""
    num_vars = len(model.initial_domains)
    cells = model.cells
    if sorted(model.branch_order) != list(range(num_vars)):
        raise ValueError("the branching order is not a permutation of the model's variables")
    if not all(0 <= v < num_vars for v in cells):
        raise ValueError("the cells reference an unknown var")
    if len(set(cells)) != len(cells):
        raise ValueError("the model's cells repeat a variable")
    union = 0
    for cell in cells:
        union |= model.initial_domains[cell]
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
        if value >= union.bit_length():
            raise ValueError(f"propagator {pid} asks for {value}, above every cell's initial domain")
        if isinstance(p, InverseChannel) and union & ~((2 << value) - 2):
            raise ValueError(f"propagator {pid} needs cells within 1..{value}")


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
    keeps its state in the store's memo, so each `undo_to_mark` rolls it
    back with the domains, and it syncs at every selection, so at each
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
        # an empty initial domain fails as a root wipeout does
        if 0 in model.initial_domains or propagate_to_fixpoint(
                store, propagators, watchers, range(len(propagators))) != FIXPOINT:
            stats.failures += 1
            return
        scorer = None
        if heuristic is HeuristicKind.WDEG or heuristic is HeuristicKind.DOM_OVER_WDEG:
            scorer = WdegScorer(store, model)

        # Frames track committed children: (var, phase), phase 1 = the left
        # child, which keeps the lowest value of var's domain, phase 2 = the
        # right child, which removes it from the domain that the undo of
        # the left child put back. One mark per child.
        doms = store.doms
        frames: list[tuple[int, int]] = []
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
                phase = 1
            else:
                if not frames:
                    break
                var, phase = frames.pop()
                store.undo_to_mark()
                if phase == 2:
                    continue  # both children done: keep unwinding
                phase = 2
            d = doms[var]
            mask = d & -d if phase == 1 else d & (d - 1)
            if budget_hit():
                stats.timed_out = True
                break
            store.push_mark()
            stats.nodes += 1
            frames.append((var, phase))
            store.commit(var, mask)
            failed = propagate_to_fixpoint(store, propagators, watchers)
            descend = failed == FIXPOINT
            if not descend:
                stats.failures += 1
                if scorer is not None:
                    scorer.bump(failed)
    finally:
        stats.elapsed_ms = int((time.monotonic() - t0) * 1000)
