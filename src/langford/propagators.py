"""Constraint library.

Each propagator pairs a filtering routine (domain-reducing, run inside the
engine's fixpoint loop) with a semantic ground checker over total
assignments. Filtering levels are fixed: eq_offset and element are domain
consistent on their pruned side, less_than and sum_leq are bounds
consistent, all_different does forward checking plus a pigeonhole test.
Positions and values are 1-based throughout.

A filter's commit sequence (which `(var, mask)` pairs it hands to
`store.commit`, in which order, and where it stops on a wipeout) is part
of its contract, not just the domains it leaves. The order decides which
propagator fails first, hence which one is blamed and weighted, hence the
wdeg and dom/wdeg node counts. A faster filter must keep it exactly.

`ElementOffsetConst`, `Occurrence` and `InverseChannel` never scan the
cell domains: they find the cells they act on through the store's
sequence value view (see `engine.Store`), `store.can[m]`, the positions
whose cell can still hold m, and `store.fixed`, the assigned positions.
They take for granted that their array is the store's cells in position
order and that `can` has an entry for every value they read;
`engine.validate_model` checks both once per search. The view changes
how a filter finds the cells, never what it commits: the tests hold each
of the three to a reference filter that scans the cell domains.

A filter may keep state of its own for one search in `store.memo`, keyed
by the propagator. Each mark saves the memo with the domains, and an undo
puts both back, so a state is always one saved by a call whose domains
held every value they hold now (see `engine.Store`). It lasts until an
undo past the mark it was saved under. The state may only save work: the
filter must make the same commits, in the same order, as it would with
`store.memo` empty.
`AllDifferent` keeps the open variables its last call left.
"""

from __future__ import annotations

from typing import Sequence


class Propagator:
    kind = "abstract"
    cost_tier = 0  # heavy propagators use 1: queued after cheap ones settle

    __slots__ = ("scope",)

    def __init__(self, scope: Sequence[int]):
        self.scope = tuple(scope)

    def filter(self, store) -> bool:
        """Reduce domains; False on wipeout or detected inconsistency."""
        raise NotImplementedError

    def check(self, values: Sequence[int]) -> bool:
        """True iff the total assignment (indexed by VarId) satisfies the
        constraint's relation."""
        raise NotImplementedError

    def wakes(self) -> tuple:
        """`(removed, assigned, removal_mask, assign_mask)`: the domain
        changes that requeue this propagator. It wakes on any removal from
        a variable of `removed`, on the assignment of a variable of
        `assigned`, and on the removal from, or assignment to, one of the
        model's cells of a value in `removal_mask` or `assign_mask` (0 for
        none). The masks are over the cells by definition, so a filter
        with a mask must range over them (`engine.validate_model` checks
        it): the engine builds one value table that every cell shares."""
        return self.scope, (), 0, 0


class EqOffset(Propagator):
    """x = y + c, domain consistent."""

    kind = "eq_offset"
    __slots__ = ("x", "y", "c")

    def __init__(self, x: int, y: int, c: int):
        super().__init__((x, y))
        self.x = x
        self.y = y
        self.c = c

    def filter(self, store) -> bool:
        doms = store.doms
        c = self.c
        dy = doms[self.y]
        shifted = dy << c if c >= 0 else dy >> -c
        dx = doms[self.x]
        nd = dx & shifted
        if nd != dx and not store.commit(self.x, nd):
            return False
        dx = doms[self.x]
        shifted = dx >> c if c >= 0 else dx << -c
        nd = dy & shifted
        if nd != dy and not store.commit(self.y, nd):
            return False
        return True

    def check(self, values) -> bool:
        return values[self.x] == values[self.y] + self.c


class LessThan(Propagator):
    """x < y, bounds consistent."""

    kind = "less_than"
    __slots__ = ("x", "y")

    def __init__(self, x: int, y: int):
        super().__init__((x, y))
        self.x = x
        self.y = y

    def filter(self, store) -> bool:
        doms = store.doms
        dy = doms[self.y]
        dx = doms[self.x]
        nd = dx & ((1 << (dy.bit_length() - 1)) - 1)  # keep v < max(y)
        if nd != dx and not store.commit(self.x, nd):
            return False
        dx = doms[self.x]
        min_x = (dx & -dx).bit_length() - 1
        nd = dy & ~((1 << (min_x + 1)) - 1)  # keep v > min(x)
        if nd != dy and not store.commit(self.y, nd):
            return False
        return True

    def check(self, values) -> bool:
        return values[self.x] < values[self.y]


class SumLeq(Propagator):
    """x + y <= c, bounds consistent."""

    kind = "sum_leq"
    __slots__ = ("x", "y", "c")

    def __init__(self, x: int, y: int, c: int):
        super().__init__((x, y))
        self.x = x
        self.y = y
        self.c = c

    def filter(self, store) -> bool:
        doms = store.doms
        dy = doms[self.y]
        limit = self.c - ((dy & -dy).bit_length() - 1)
        dx = doms[self.x]
        nd = dx & ((1 << (limit + 1)) - 1) if limit >= 0 else 0
        if nd != dx and not store.commit(self.x, nd):
            return False
        dx = doms[self.x]
        limit = self.c - ((dx & -dx).bit_length() - 1)
        nd = dy & ((1 << (limit + 1)) - 1) if limit >= 0 else 0
        if nd != dy and not store.commit(self.y, nd):
            return False
        return True

    def check(self, values) -> bool:
        return values[self.x] + values[self.y] <= self.c


class AllDifferent(Propagator):
    """Pairwise-distinct values; forward checking plus a pigeonhole test.

    One scan sorts the scope into assigned values (a repeated one fails)
    and open variables, kept in scope order, and ORs the open domains. If
    no open domain holds an assigned value, no round can prune and the
    pigeonhole test decides at once. Otherwise rounds run: each removes
    the values fixed by the round before from the still-open variables, the
    first round removing every assigned value, and ORs the domains it keeps
    open. An open variable has already lost every value fixed earlier, so
    only the newest ones can prune it. A round that fixes one value twice
    fails once it ends. When no round is left, the pigeonhole test counts
    the values of the whole scope.

    Each exit that does not fail saves `(open variables, assigned values)`
    in `store.memo`. The state lasts until an undo past the mark it was
    saved under, so the first call after an undo finds the state of the
    mark it returned to. A later call scans only that open list, starting
    from that mask: every scope variable outside it is still assigned to a
    value already in the mask (see `engine.Store`), so the scan finds the
    same open list, the same mask and the same repeated value as a scan of
    the whole scope would.
    """

    kind = "all_different"
    __slots__ = ()

    def __init__(self, variables: Sequence[int]):
        if len(variables) < 2:
            raise ValueError("all_different needs at least two variables")
        super().__init__(variables)

    def filter(self, store) -> bool:
        doms = store.doms
        saved = store.memo.get(self)
        if saved is not None:
            scan, assigned = saved
        else:
            scan, assigned = self.scope, 0
        open_vars = []
        union = 0
        for v in scan:
            d = doms[v]
            if d & (d - 1):
                open_vars.append(v)
                union |= d
            elif d & assigned:
                return False  # two variables share one value
            else:
                assigned |= d
        fixed = assigned if union & assigned else 0
        while fixed:
            newly = 0
            clash = 0
            union = 0
            still_open = []
            for v in open_vars:
                d = doms[v]
                if d & fixed:
                    d &= ~fixed
                    if not store.commit(v, d):
                        return False
                    if d & (d - 1) == 0:
                        clash |= d & newly
                        newly |= d
                        continue
                union |= d
                still_open.append(v)
            if clash:
                return False  # two variables were forced to one value
            assigned |= newly
            fixed = newly
            open_vars = still_open
        if (union | assigned).bit_count() < len(self.scope):
            return False
        store.memo[self] = (open_vars, assigned)
        return True

    def check(self, values) -> bool:
        seen = set()
        for v in self.scope:
            if values[v] in seen:
                return False
            seen.add(values[v])
        return True


class ElementOffsetConst(Propagator):
    """array[index + offset] = c, with 1-based positions into `array`.

    Prunes index positions whose target cell cannot hold c (or falls outside
    the array); once the index is assigned, fixes the target cell to c.

    `targets[p]` is the cell at position p + offset, else -1, for every p
    up to the last in range. One slice fills the in-range run lo..hi; it is
    empty once offset >= len(array), where a negative end would cut the list.
    """

    kind = "element_offset_const"
    __slots__ = ("array", "index", "offset", "value", "targets")

    def __init__(self, array: Sequence[int], index: int, offset: int, value: int):
        super().__init__((*array, index))
        self.array = array = tuple(array)
        self.index = index
        self.offset = offset
        self.value = value
        targets = [-1] * (len(array) - min(offset, 0) + 1)
        lo = max(1, 1 - offset)
        hi = len(array) - offset
        if lo <= hi:
            targets[lo:hi + 1] = array[lo + offset - 1:]
        self.targets = tuple(targets)

    def filter(self, store) -> bool:
        # Most calls take neither path that reads `targets` or the value's
        # bit, so each path loads only what it uses.
        doms = store.doms
        d = doms[self.index]
        if d & (d - 1) == 0:  # index assigned: only the target cell matters
            targets = self.targets
            p = d.bit_length() - 1
            tv = targets[p] if p < len(targets) else -1
            if tv < 0:
                return store.commit(self.index, 0)
            dt = doms[tv]
            value_bit = 1 << self.value
            if dt & value_bit:
                return dt == value_bit or store.commit(tv, value_bit)
            return store.commit(self.index, 0)
        # indexes p whose position p + offset holds a cell that can take the
        # value; index 0 has no target, but a positive offset shifts
        # position `offset` onto it
        support = store.can[self.value]
        offset = self.offset
        allowed = d & (support >> offset if offset >= 0 else support << -offset) & ~1
        if allowed != d and not store.commit(self.index, allowed):
            return False
        if allowed & (allowed - 1) == 0:  # index newly assigned
            target = self.targets[allowed.bit_length() - 1]
            dt = doms[target]
            value_bit = 1 << self.value
            if dt != value_bit and not store.commit(target, dt & value_bit):
                return False
        return True

    def check(self, values) -> bool:
        pos = values[self.index] + self.offset
        return 1 <= pos <= len(self.array) and values[self.array[pos - 1]] == self.value

    def wakes(self) -> tuple:
        # Array cells matter only when they lose this constraint's value.
        # Index positions never lose support by leaving the index domain, so
        # plain index shrinkage needs no rescan, only full assignment does.
        return (), (self.index,), 1 << self.value, 0


class Occurrence(Propagator):
    """Exactly `count` of the variables take `value`."""

    kind = "occurrence"
    __slots__ = ("value", "count")

    def __init__(self, variables: Sequence[int], value: int, count: int):
        if count < 0:
            raise ValueError("occurrence count must be non-negative")
        super().__init__(variables)
        self.value = value
        self.count = count

    def filter(self, store) -> bool:
        # bit i of `holders` stands for scope[i - 1], so ascending bits are
        # scope order
        holders = store.can[self.value]
        on_value = holders & store.fixed
        assigned = on_value.bit_count()
        possible = holders.bit_count()
        if assigned > self.count or possible < self.count:
            return False
        bit = 1 << self.value
        if assigned == self.count and possible > assigned:
            keep = ~bit
        elif possible == self.count and assigned < possible:
            keep = bit
        else:
            return True
        doms = store.doms
        scope = self.scope
        rest = holders ^ on_value
        while rest:
            low = rest & -rest
            rest ^= low
            v = scope[low.bit_length() - 2]
            if not store.commit(v, doms[v] & keep):
                return False
        return True

    def check(self, values) -> bool:
        return sum(1 for v in self.scope if values[v] == self.value) == self.count

    def wakes(self) -> tuple:
        # The possible-count only moves when this value is removed somewhere;
        # the assigned-count only moves when a variable lands on this value.
        bit = 1 << self.value
        return (), (), bit, bit


class InverseChannel(Propagator):
    """Two-way link between sequence cells and per-(number, repetition)
    position slots.

    With slots[m][j] holding the position of the j-th copy of number m and
    seq[i] the number at position i, maintains:
      (a) a number survives in seq[i] only while some of its slots can be i,
      (b) a slot keeps position i only while seq[i] can hold its number,
      (c) an assigned slot fixes its sequence cell,
      (d) an assigned cell with a single supporting slot fixes that slot.
    """

    kind = "inverse_channel"
    cost_tier = 1
    __slots__ = ("slots", "seq", "n", "k")

    def __init__(self, slots: Sequence[Sequence[int]], seq: Sequence[int]):
        n = len(slots)
        k = len(slots[0]) if n else 0
        if any(len(row) != k for row in slots):
            raise ValueError("slot matrix must be rectangular")
        if len(seq) != n * k:
            raise ValueError("sequence length must be n*k")
        flat = [v for row in slots for v in row]
        # rule (c) relies on (b) narrowing each slot once and on no cell
        # commit touching a slot
        if len(set(flat)) != len(flat) or not set(flat).isdisjoint(seq):
            raise ValueError("slots must be distinct variables, none of them a cell")
        super().__init__((*flat, *seq))
        self.slots = tuple(tuple(row) for row in slots)
        self.seq = tuple(seq)
        self.n = n
        self.k = k

    def filter(self, store) -> bool:
        doms = store.doms
        n = self.n
        seq = self.seq
        slots = self.slots
        kn = len(seq)
        numbers = (2 << n) - 2  # bits 1..n

        # can[m] holds bit i iff the cell at position i can still hold m.
        # `dirty` marks the positions whose cell loses a value under (a); a
        # value outside 1..n is always lost.
        can = store.can
        dirty = can[0]
        for stray in can[n + 1:]:
            dirty |= stray

        # (a) number m leaves the cells at can[m] minus every slot of m.
        lost = [0] * (kn + 1)
        for m, row in enumerate(slots, 1):
            u = 0
            for sv in row:
                u |= doms[sv]
            gone = can[m] & ~u
            if gone:
                dirty |= gone
                number_bit = 1 << m
                while gone:
                    low = gone & -gone
                    gone ^= low
                    lost[low.bit_length() - 1] |= number_bit
        while dirty:
            low = dirty & -dirty
            dirty ^= low
            i = low.bit_length() - 1
            cell = seq[i - 1]
            if not store.commit(cell, doms[cell] & numbers & ~lost[i]):
                return False

        # (b) every slot of m lies within their union, so narrowing it to
        # can[m], which the commits of (a) have kept up to date, leaves it
        # the positions whose cell still holds m. It collects the slots it
        # leaves assigned, in row and slot order, as (position, number) bits.
        assigned = []
        for m, row in enumerate(slots, 1):
            positions = can[m]
            for sv in row:
                d = doms[sv]
                nd = d & positions
                if nd != d and not store.commit(sv, nd):
                    return False
                if nd and nd & (nd - 1) == 0:
                    assigned.append((nd, 1 << m))

        # (c) commits only cells, so the slots (b) left assigned are all of
        # them, with the same positions.
        for position_bit, number_bit in assigned:
            cell = seq[position_bit.bit_length() - 2]
            dc = doms[cell]
            if dc != number_bit and not store.commit(cell, dc & number_bit):
                return False

        # (d) visits the assigned cells in ascending position. Its commits
        # only narrow slots, so the set is fixed once (c) is done.
        fixed = store.fixed
        while fixed:
            position_bit = fixed & -fixed
            fixed ^= position_bit
            d = doms[seq[position_bit.bit_length() - 2]]
            row = slots[d.bit_length() - 2]
            support = -1
            for sv in row:
                if doms[sv] & position_bit:
                    if support >= 0:
                        support = -2  # more than one slot still open
                        break
                    support = sv
            if support == -1:
                return False
            if support >= 0:
                ds = doms[support]
                if ds != position_bit and not store.commit(support, ds & position_bit):
                    return False
        return True

    def check(self, values) -> bool:
        kn = self.n * self.k
        for m0, row in enumerate(self.slots):
            for sv in row:
                i = values[sv]
                if not (1 <= i <= kn) or values[self.seq[i - 1]] != m0 + 1:
                    return False
        for i in range(1, kn + 1):
            m = values[self.seq[i - 1]]
            if not (1 <= m <= self.n):
                return False
            if all(values[sv] != i for sv in self.slots[m - 1]):
                return False
        return True
