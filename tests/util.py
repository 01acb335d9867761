"""Shared test helpers: ad-hoc models, independent fixpoint and support
oracles, and randomized propagator cases."""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from types import SimpleNamespace

from langford.engine import Store, solve_all, validate_model, values
from langford.heuristics import HeuristicKind, wdeg_scores
from langford.models import BRANCH_CHOICES, CONS_CHOICES, MODEL_KINDS, SYM_CHOICES, VariantConfig
from langford.propagators import (
    AllDifferent,
    ElementOffsetConst,
    EqOffset,
    InverseChannel,
    LessThan,
    Occurrence,
    SumLeq,
)

PROPAGATOR_KINDS = (
    "eq_offset",
    "less_than",
    "sum_leq",
    "all_different",
    "element_offset_const",
    "occurrence",
    "inverse_channel",
)


@dataclass
class TinyModel:
    """Bare model for engine-level tests: domains, propagators, order."""

    initial_domains: list
    propagators: list
    branch_order: list = field(default_factory=list)
    cells: tuple = ()  # the cells, in position order, if any
    # solve_all reads the heuristic from here when none is passed
    config = SimpleNamespace(heuristic=HeuristicKind.STATIC)

    def __post_init__(self):
        # a tuple as in a built model: a list never equals a filter's tuple
        self.cells = tuple(self.cells)
        if not self.branch_order:
            self.branch_order = list(range(len(self.initial_domains)))


def every_variant() -> list[VariantConfig]:
    """Every valid variant: 88 of them, each model kind x branch x sym x
    cons x heuristic that VariantConfig accepts."""
    variants = []
    for model, branch, sym, cons, heuristic in itertools.product(
        MODEL_KINDS, (None, *BRANCH_CHOICES), SYM_CHOICES, (None, *CONS_CHOICES), HeuristicKind
    ):
        try:
            variants.append(VariantConfig(model, branch, sym, cons, heuristic))
        except ValueError:
            continue
    return variants


def mask_of(vals) -> int:
    """The domain bitmask holding `vals`."""
    mask = 0
    for v in vals:
        mask |= 1 << v
    return mask


def doms(*value_sets) -> list[int]:
    return [mask_of(vals) for vals in value_sets]


def cells_of(prop) -> tuple:
    """The cells a filter reads through the store's sequence value view,
    in position order; none for a filter that reads only domains."""
    if isinstance(prop, ElementOffsetConst):
        return prop.array
    if isinstance(prop, Occurrence):
        return prop.scope
    if isinstance(prop, InverseChannel):
        return prop.seq
    return ()


def store_of(model, domains=None) -> Store:
    """The store a search of `model` runs on, over the model's cells,
    starting from `domains` (by default the model's initial domains)."""
    domains = model.initial_domains if domains is None else domains
    return Store(domains, model.cells)


def in_contract(domains, prop) -> bool:
    """Whether `validate_model` accepts `prop` alone over `domains`, with
    the propagator's own cells as the model's cells. A cell filter reads
    `store.can[value]`, so it may not ask for a value above every cell's
    initial domain, and a channel's cells may not start outside 1..n; no
    built model does either."""
    try:
        validate_model(TinyModel(domains, [prop], cells=cells_of(prop)))
    except ValueError:
        return False
    return True


def is_assigned(store: Store, var: int) -> bool:
    """Whether `var`'s domain holds exactly one value."""
    d = store.doms[var]
    return d != 0 and d & (d - 1) == 0


def intersect(store: Store, var: int, mask: int) -> bool:
    """Narrow `var`'s domain to `mask`, committing only if that removes a
    value; False on wipeout."""
    d = store.doms[var]
    nd = d & mask
    if nd == d:
        return True
    return store.commit(var, nd)


def remove_value(store: Store, var: int, v: int) -> bool:
    return intersect(store, var, ~(1 << v))


def assign(store: Store, var: int, v: int) -> bool:
    return intersect(store, var, 1 << v)


def min_value(store: Store, var: int) -> int:
    d = store.doms[var]
    return (d & -d).bit_length() - 1


def reference_select(store: Store, model, kind: HeuristicKind, weights) -> int | None:
    """The wdeg or dom/wdeg pick made by ranking the whole branching order,
    assigned variables skipped, on the scores `wdeg_scores` walks every
    scope for. A search, which ranks only its scorer's open variables,
    must pick the same."""
    doms = store.doms
    scores = wdeg_scores(store, model, weights)
    best = None
    if kind is HeuristicKind.WDEG:
        best_score = -1
        for v in model.branch_order:
            d = doms[v]
            if d & (d - 1) and scores[v] > best_score:
                best = v
                best_score = scores[v]
        return best
    best_size = 0
    best_score = 1
    for v in model.branch_order:
        d = doms[v]
        if d & (d - 1):
            size = d.bit_count()
            score = scores[v] or 1
            if best is None or size * best_score < best_size * score:
                best = v
                best_size = size
                best_score = score
    return best


def describe(prop) -> str:
    """A propagator's kind and scope, for failure messages."""
    return f"{prop.kind}({', '.join(map(str, prop.scope))})"


def reference_watchers(domains: list[int], propagators, cells) -> SimpleNamespace:
    """The wake tables built one (var, mask) pair at a time, each variable
    with a table of its own: every `wakes()` condition is expanded into
    one pair per var, a mask into one pair per cell, and each pair adds
    its pid to the var's table. A table with a value condition covers each
    value of every mask and of the initial domain of every variable with
    a value condition; an assignment table with none covers its own
    variable's initial domain. An assignment entry lists the pids that
    watch its var for any assignment, then those whose mask holds its
    value. `engine.Watchers` must build equal tables."""
    num_vars = len(domains)
    removal_specs, assign_specs = [], []
    for p in propagators:
        removed, assigned, removal_mask, assign_mask = p.wakes()
        on_cells = [(v, removal_mask) for v in cells] if removal_mask else []
        removal_specs.append([(v, None) for v in removed] + on_cells)
        on_cells = [(v, assign_mask) for v in cells] if assign_mask else []
        assign_specs.append([(v, None) for v in assigned] + on_cells)
    max_value = max(
        (mask.bit_length() for spec in removal_specs + assign_specs for _, mask in spec if mask is not None),
        default=0,
    )
    widest = max(
        (domains[var].bit_length() for spec in removal_specs + assign_specs for var, mask in spec
         if mask is not None),
        default=0,
    )
    size = max(max_value + 1, widest)

    any_of = [[] for _ in range(num_vars)]
    value_of = [None] * num_vars
    for pid, spec in enumerate(removal_specs):
        for var, mask in spec:
            if mask is None:
                any_of[var].append(pid)
                continue
            if value_of[var] is None:
                value_of[var] = [[] for _ in range(size)]
            for v in values(mask):
                value_of[var][v].append(pid)
    on_any = [[] for _ in range(num_vars)]  # pids watching var for any assignment
    on_value = [[] for _ in range(num_vars)]  # (pid, mask) pairs on var
    for pid, spec in enumerate(assign_specs):
        for var, mask in spec:
            if mask is None:
                on_any[var].append(pid)
            else:
                on_value[var].append((pid, mask))
    assign_of = [None] * num_vars
    for var in range(num_vars):
        if on_any[var] or on_value[var]:
            width = size if on_value[var] else domains[var].bit_length()
            assign_of[var] = [
                on_any[var] + [pid for pid, mask in on_value[var] if mask >> v & 1] for v in range(width)
            ]
    return SimpleNamespace(any_of=any_of, value_of=value_of, assign_of=assign_of)


def naive_fixpoint(store: Store, propagators) -> int:
    """Round-robin every filter until none changes anything; -1 at fixpoint,
    else the failing propagator's position. Independent of the engine's
    queue and wake bookkeeping."""
    while True:
        before = list(store.doms)
        for pid, p in enumerate(propagators):
            if not p.filter(store):
                return pid
        del store.trail[:], store.trail_bits[:]  # drop the wake events: every filter reruns
        if store.doms == before:
            return -1


def pos_sym_keeps(arr) -> bool:
    """Reflection filter of the positional viewpoint: the first copy of 1
    sits closer to the start than the last copy does to the end."""
    kn = len(arr)
    first = arr.index(1) + 1
    last = kn - tuple(reversed(arr)).index(1)
    return (first - 1) < (kn - last)


def solution_sequences(model, heuristic=HeuristicKind.STATIC) -> frozenset:
    solutions, stats = solve_all(model, heuristic)
    assert not stats.timed_out
    return frozenset(model.sequence_of(s) for s in solutions)


def supported_sets(domains: list[int], prop) -> list[set[int]]:
    """Per-variable sets of values taking part in some satisfying total
    assignment over `domains` (exhaustive enumeration)."""
    scope = prop.scope
    num_vars = len(domains)
    value_lists = [values(d) for d in domains]
    scratch = [0] * num_vars
    supported: list[set[int]] = [set() for _ in range(num_vars)]
    for combo in itertools.product(*value_lists):
        for v, value in enumerate(combo):
            scratch[v] = value
        if prop.check(scratch):
            for v, value in enumerate(combo):
                supported[v].add(value)
    return supported


def random_domain(rng: random.Random, lo: int, hi: int) -> int:
    picked = [v for v in range(lo, hi + 1) if rng.random() < 0.7]
    if not picked:
        picked = [rng.randint(lo, hi)]
    return mask_of(picked)


def random_case(rng: random.Random, kind: str):
    """(domains, propagator) with variables 0..len(domains)-1. Shifts and
    offsets are never negative, as in every built model: eq_offset shifts
    by 0..5 and element offsets run from 0 to 3."""
    if kind == "eq_offset":
        domains = [random_domain(rng, 1, 8), random_domain(rng, 1, 8)]
        return domains, EqOffset(0, 1, rng.randint(0, 5))
    if kind == "less_than":
        domains = [random_domain(rng, 1, 8), random_domain(rng, 1, 8)]
        return domains, LessThan(0, 1)
    if kind == "sum_leq":
        domains = [random_domain(rng, 1, 8), random_domain(rng, 1, 8)]
        return domains, SumLeq(0, 1, rng.randint(2, 12))
    if kind == "all_different":
        count = rng.randint(2, 5)
        domains = [random_domain(rng, 1, 6) for _ in range(count)]
        return domains, AllDifferent(list(range(count)))
    if kind == "element_offset_const":
        length = rng.randint(2, 4)
        domains = [random_domain(rng, 1, 4) for _ in range(length)]
        domains.append(random_domain(rng, 1, 6))  # index may run off the end
        return domains, ElementOffsetConst(
            list(range(length)), length, rng.randint(0, 3), rng.randint(1, 4)
        )
    if kind == "occurrence":
        count = rng.randint(3, 6)
        domains = [random_domain(rng, 1, 4) for _ in range(count)]
        return domains, Occurrence(list(range(count)), rng.randint(1, 4), rng.randint(0, 3))
    if kind == "inverse_channel":
        slots = [[0, 1], [2, 3]]
        seq = [4, 5, 6, 7]
        domains = [random_domain(rng, 1, 4) for _ in range(4)]
        domains += [random_domain(rng, 1, 2) for _ in range(4)]
        return domains, InverseChannel(slots, seq)
    raise ValueError(kind)


class RecordingStore(Store):
    """Store that logs every `(var, mask)` handed to `commit`, in order."""

    __slots__ = ("log",)

    def __init__(self, domains, cells=()):
        super().__init__(domains, cells)
        self.log: list[tuple[int, int]] = []

    def commit(self, var: int, new_mask: int) -> bool:
        self.log.append((var, new_mask))
        return super().commit(var, new_mask)


def view_of(store: Store) -> tuple[list[int], int]:
    """The sequence value view recomputed from `store.doms`: `can` as long
    as the store's, and `fixed`."""
    can = [0] * len(store.can)
    fixed = 0
    for i, cell in enumerate(store.cells, 1):
        d = store.doms[cell]
        for v in values(d):
            can[v] |= 1 << i
        if d and d & (d - 1) == 0:
            fixed |= 1 << i
    return can, fixed


def random_view_case(rng: random.Random, kind: str):
    """(domains, propagator, cells, n) for a propagator over the cells of a
    view, whose values of interest are 1..n. In about half the cases cells
    draw from 0..n+1, so they may hold stray values 0 and n+1; otherwise
    from 1..n. Element indexes draw from 0..len+3, bit 0 and positions
    past the end included, with offsets from 0 to 6, so that some offsets
    are at least len. A channel case comes from `random_channel_case`.
    Density varies from near-assigned to near-full, so wipeouts and
    failures are common."""
    n = rng.randint(2, 4)
    if kind == "inverse_channel":
        domains, prop = random_channel_case(rng, rng.choice((2, 3)), n)
        return domains, prop, prop.seq, n
    density = rng.choice((0.15, 0.35, 0.6, 0.85))
    spill = int(rng.random() < 0.5)

    def domain(lo, hi):
        picked = [v for v in range(lo, hi + 1) if rng.random() < density]
        return mask_of(picked or [rng.randint(lo, hi)])

    length = rng.randint(2, 8)
    domains = [domain(1 - spill, n + spill) for _ in range(length)]
    cells = tuple(range(length))
    if kind == "element_offset_const":
        domains.append(domain(0, length + 3))
        prop = ElementOffsetConst(cells, length, rng.randint(0, 6), rng.randint(1, n))
        return domains, prop, prop.array, n
    if kind == "occurrence":
        prop = Occurrence(cells, rng.randint(1, n), rng.randint(0, 3))
        return domains, prop, prop.scope, n
    raise ValueError(kind)


def reference_element_filter(prop: ElementOffsetConst, store: Store) -> bool:
    """The scanning ElementOffsetConst filter: it tests the target cell of
    every index value in turn. The filter that shifts the view's `can`
    must make exactly the same commits, in the same order, with the same
    result."""
    doms = store.doms
    targets = prop.targets
    num_targets = len(targets)
    value_bit = 1 << prop.value
    d = doms[prop.index]
    if d & (d - 1) == 0:  # index assigned: only the target cell matters
        p = d.bit_length() - 1
        tv = targets[p] if p < num_targets else -1
        if tv < 0:
            return store.commit(prop.index, 0)
        dt = doms[tv]
        if dt & value_bit:
            return dt == value_bit or store.commit(tv, value_bit)
        return store.commit(prop.index, 0)
    allowed = 0
    rest = d
    while rest:
        low = rest & -rest
        rest ^= low
        p = low.bit_length() - 1
        if p < num_targets:
            tv = targets[p]
            if tv >= 0 and doms[tv] & value_bit:
                allowed |= low
    if allowed != d and not store.commit(prop.index, allowed):
        return False
    if allowed & (allowed - 1) == 0:  # index newly assigned
        target = targets[allowed.bit_length() - 1]
        dt = doms[target]
        if dt != value_bit and not store.commit(target, dt & value_bit):
            return False
    return True


def reference_targets(array, offset: int) -> tuple:
    """`ElementOffsetConst.targets` built one index at a time: entry 0 is
    -1, and entry p is the cell at position p + offset, for every p from 1
    up to the last whose position is on the array."""
    targets = [-1]
    for p in range(1, len(array) - offset + 1):
        targets.append(array[p + offset - 1])
    return tuple(targets)


def reference_occurrence_filter(prop: Occurrence, store: Store) -> bool:
    """The scanning Occurrence filter: it counts the variables that can
    take the value and those assigned to it, then walks the scope again to
    commit. The filter that counts bits of the view must make exactly the
    same commits, in the same order, with the same result."""
    doms = store.doms
    bit = 1 << prop.value
    assigned = 0
    possible = 0
    for v in prop.scope:
        d = doms[v]
        if d & bit:
            possible += 1
            if d == bit:
                assigned += 1
    if assigned > prop.count or possible < prop.count:
        return False
    if assigned == prop.count and possible > assigned:
        for v in prop.scope:
            d = doms[v]
            if d & bit and d != bit:
                if not store.commit(v, d & ~bit):
                    return False
    elif possible == prop.count and assigned < possible:
        for v in prop.scope:
            d = doms[v]
            if d & bit and d != bit:
                if not store.commit(v, bit):
                    return False
    return True


def reference_all_different_filter(prop: AllDifferent, store: Store) -> bool:
    """The rescanning AllDifferent filter: every round collects the assigned
    values over the whole scope (a repeated one fails), then removes all of
    them from every unassigned variable, until a round removes nothing. The
    one-scan filter must make exactly the same commits, in the same order,
    with the same result."""
    doms = store.doms
    scope = prop.scope
    while True:
        assigned = 0
        for v in scope:
            d = doms[v]
            if d & (d - 1) == 0:
                if d & assigned:
                    return False
                assigned |= d
        progressed = False
        union = 0
        for v in scope:
            d = doms[v]
            if d & (d - 1):
                nd = d & ~assigned
                if nd != d:
                    if not store.commit(v, nd):
                        return False
                    progressed = True
            union |= d
        if not progressed:
            return union.bit_count() >= len(scope)


def random_all_different_case(rng: random.Random):
    """(domains, AllDifferent) over 2-12 variables. Each case mixes three
    kinds of domain, in shuffled scope order: chain links {p[i-1], p[i]}
    over a random value order p, whose first link's singleton forces the
    next one in turn; singletons, which may repeat a value; and random sets
    of varied density. Few values per variable give wipeouts and pigeonhole
    failures."""
    count = rng.randint(2, 12)
    order = list(range(1, count + rng.choice((-1, 0, 0, 1, 3)) + 1))
    rng.shuffle(order)
    domains = []
    density = rng.choice((0.2, 0.4, 0.7))
    for i in range(count):
        kind = rng.random()
        if kind < 0.4 and i < len(order):
            link = {order[i]} if i == 0 else {order[i - 1], order[i]}
            domains.append(mask_of(link))
        elif kind < 0.55:
            domains.append(1 << rng.choice(order))
        else:
            picked = [v for v in order if rng.random() < density]
            domains.append(mask_of(picked or [rng.choice(order)]))
    rng.shuffle(domains)
    return domains, AllDifferent(list(range(count)))


def reference_inverse_channel_filter(prop: InverseChannel, store: Store) -> bool:
    """The full-rescan InverseChannel filter: rules (a) and (b) each test
    every (number, cell) pair. The bit-parallel filter must make exactly
    the same commits, in the same order, with the same result."""
    doms = store.doms
    seq = prop.seq
    slots = prop.slots
    kn = len(seq)

    unions = []
    for row in slots:
        u = 0
        for sv in row:
            u |= doms[sv]
        unions.append(u)
    for i in range(1, kn + 1):
        cell = seq[i - 1]
        d = doms[cell]
        allowed = 0
        number_bit = 2
        for u in unions:
            if (u >> i) & 1:
                allowed |= number_bit
            number_bit <<= 1
        nd = d & allowed
        if nd != d and not store.commit(cell, nd):
            return False

    number_bit = 2
    for row in slots:
        positions = 0
        position_bit = 2
        for cell in seq:
            if doms[cell] & number_bit:
                positions |= position_bit
            position_bit <<= 1
        for sv in row:
            d = doms[sv]
            nd = d & positions
            if nd != d and not store.commit(sv, nd):
                return False
        number_bit <<= 1

    number_bit = 2
    for row in slots:
        for sv in row:
            d = doms[sv]
            if d and d & (d - 1) == 0:
                cell = seq[d.bit_length() - 2]
                dc = doms[cell]
                if dc != number_bit and not store.commit(cell, dc & number_bit):
                    return False
        number_bit <<= 1

    for i in range(1, kn + 1):
        d = doms[seq[i - 1]]
        if d and d & (d - 1) == 0:
            row = slots[d.bit_length() - 2]
            support = -1
            for sv in row:
                if (doms[sv] >> i) & 1:
                    if support >= 0:
                        support = -2  # more than one slot still open
                        break
                    support = sv
            if support == -1:
                return False
            if support >= 0:
                ds = doms[support]
                bit = 1 << i
                if ds != bit and not store.commit(support, ds & bit):
                    return False
    return True


def random_channel_case(rng: random.Random, k: int, n: int):
    """(domains, InverseChannel) over shuffled variable ids. Cells draw
    from 1..n, the only values `validate_model` lets a channel's cells
    start with. In about half the cases slots draw from 0..kn+1, positions
    outside the channel's range that rule (b) strips; otherwise from
    1..kn. Density varies from near-assigned to near-full."""
    kn = k * n
    ids = list(range(2 * kn))
    rng.shuffle(ids)
    slots = [ids[m * k:(m + 1) * k] for m in range(n)]
    slots_flat = ids[:kn]
    seq = ids[kn:]
    density = rng.choice((0.15, 0.35, 0.6, 0.85))
    spill = int(rng.random() < 0.5)
    domains = [0] * (2 * kn)
    for var, lo, hi in [(v, 1, n) for v in seq] + [(v, 1 - spill, kn + spill) for v in slots_flat]:
        picked = [v for v in range(lo, hi + 1) if rng.random() < density]
        domains[var] = mask_of(picked or [rng.randint(lo, hi)])
    return domains, InverseChannel(slots, seq)


def assert_filter_sound(domains: list[int], prop) -> bool:
    """One filtering step never drops a value that some satisfying total
    assignment (within the pre-filter domains) uses. Returns whether the
    case was checked: one outside the filter's contract is not."""
    if not in_contract(domains, prop):
        return False
    store = Store(domains, cells_of(prop))
    ok = prop.filter(store)
    supported = supported_sets(domains, prop)
    if not ok:
        assert all(not s for s in supported), (
            f"{describe(prop)} failed although supports exist: {supported}"
        )
        return True
    for v in range(len(domains)):
        after = set(values(store.doms[v]))
        assert supported[v] <= after, (
            f"{describe(prop)} dropped supported values "
            f"{supported[v] - after} from var {v}"
        )
    return True


def assert_checker_agreement(rng: random.Random, domains: list[int], prop) -> bool:
    """Total assignments survive a filtering step iff the checker accepts.
    Returns whether the case was checked: one outside the filter's
    contract is not."""
    assignment = [rng.choice(values(d)) for d in domains]
    if not in_contract(domains, prop):
        return False
    store = Store(domains, cells_of(prop))
    for var, value in enumerate(assignment):
        assign(store, var, value)
    surviving = prop.filter(store)
    assert surviving == prop.check(assignment), (
        f"{describe(prop)} filter/checker disagree on {assignment}"
    )
    return True


def assert_monotone(rng: random.Random, domains: list[int], prop) -> bool:
    """Filtering from sub-domains keeps no value that filtering from the
    wider domains removed. The sub-domains are committed to a store over
    the wider ones, as a search narrows them. Returns whether the case was
    checked: one outside the filter's contract is not."""
    subs = []
    for d in domains:
        keep = [v for v in values(d) if rng.random() < 0.8]
        if not keep:
            keep = [rng.choice(values(d))]
        subs.append(mask_of(keep))
    if not in_contract(domains, prop):
        return False
    wide = Store(domains, cells_of(prop))
    narrow = Store(domains, cells_of(prop))
    for var, sub in enumerate(subs):
        intersect(narrow, var, sub)
    ok_wide = prop.filter(wide)
    ok_narrow = prop.filter(narrow)
    if not ok_narrow:
        return True  # empty result set is a subset of anything
    assert ok_wide, f"{describe(prop)} failed on wider domains but not narrower"
    for v in range(len(domains)):
        assert narrow.doms[v] & ~wide.doms[v] == 0, (
            f"{describe(prop)} not monotone on var {v}"
        )
    return True
