"""Shared test helpers: ad-hoc models, independent fixpoint and support
oracles, and randomized propagator cases."""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from types import SimpleNamespace

from langford.engine import Store, solve_all, values
from langford.heuristics import HeuristicKind
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
    names: list = field(default_factory=list)
    # solve_all reads the heuristic from here when none is passed
    config = SimpleNamespace(heuristic=HeuristicKind.STATIC)

    def __post_init__(self):
        if not self.branch_order:
            self.branch_order = list(range(len(self.initial_domains)))
        if not self.names:
            self.names = [f"v{i}" for i in range(len(self.initial_domains))]


def mask_of(vals) -> int:
    """The domain bitmask holding `vals`."""
    mask = 0
    for v in vals:
        mask |= 1 << v
    return mask


def doms(*value_sets) -> list[int]:
    return [mask_of(vals) for vals in value_sets]


def naive_fixpoint(store: Store, propagators) -> int:
    """Round-robin every filter until none changes anything; -1 at fixpoint,
    else the failing propagator's position. Independent of the engine's
    queue and wake bookkeeping."""
    while True:
        before = list(store.doms)
        for pid, p in enumerate(propagators):
            if not p.filter(store):
                return pid
        store.seen = len(store.trail)  # drop the wake events: every filter reruns
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
    """(domains, propagator) with variables 0..len(domains)-1."""
    if kind == "eq_offset":
        domains = [random_domain(rng, 1, 8), random_domain(rng, 1, 8)]
        return domains, EqOffset(0, 1, rng.randint(-3, 5))
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
            list(range(length)), length, rng.randint(-2, 2), rng.randint(1, 4)
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

    def __init__(self, domains):
        super().__init__(domains)
        self.log: list[tuple[int, int]] = []

    def commit(self, var: int, new_mask: int) -> bool:
        self.log.append((var, new_mask))
        return super().commit(var, new_mask)


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
    """(domains, InverseChannel) over shuffled variable ids. In about half
    the cases cells draw from 0..n+1 and slots from 0..kn+1, values outside
    the channel's range; otherwise from 1..n and 1..kn. Density varies from
    near-assigned to near-full."""
    kn = k * n
    ids = list(range(2 * kn))
    rng.shuffle(ids)
    slots = [ids[m * k:(m + 1) * k] for m in range(n)]
    slots_flat = ids[:kn]
    seq = ids[kn:]
    density = rng.choice((0.15, 0.35, 0.6, 0.85))
    spill = int(rng.random() < 0.5)
    domains = [0] * (2 * kn)
    for var, top in [(v, n) for v in seq] + [(v, kn) for v in slots_flat]:
        lo, hi = 1 - spill, top + spill
        picked = [v for v in range(lo, hi + 1) if rng.random() < density]
        domains[var] = mask_of(picked or [rng.randint(lo, hi)])
    return domains, InverseChannel(slots, seq)


def assert_filter_sound(domains: list[int], prop) -> None:
    """One filtering step never drops a value that some satisfying total
    assignment (within the pre-filter domains) uses."""
    store = Store(domains)
    ok = prop.filter(store)
    supported = supported_sets(domains, prop)
    if not ok:
        assert all(not s for s in supported), (
            f"{prop.describe()} failed although supports exist: {supported}"
        )
        return
    for v in range(len(domains)):
        after = set(values(store.doms[v]))
        assert supported[v] <= after, (
            f"{prop.describe()} dropped supported values "
            f"{supported[v] - after} from var {v}"
        )


def assert_checker_agreement(rng: random.Random, domains: list[int], prop) -> None:
    """Total assignments survive a filtering step iff the checker accepts."""
    assignment = [rng.choice(values(d)) for d in domains]
    store = Store([1 << value for value in assignment])
    surviving = prop.filter(store)
    assert surviving == prop.check(assignment), (
        f"{prop.describe()} filter/checker disagree on {assignment}"
    )


def assert_monotone(rng: random.Random, domains: list[int], prop) -> None:
    """Filtering from sub-domains keeps no value that filtering from the
    wider domains removed."""
    subs = []
    for d in domains:
        keep = [v for v in values(d) if rng.random() < 0.8]
        if not keep:
            keep = [rng.choice(values(d))]
        subs.append(mask_of(keep))
    wide = Store(domains)
    narrow = Store(subs)
    ok_wide = prop.filter(wide)
    ok_narrow = prop.filter(narrow)
    if not ok_narrow:
        return  # empty result set is a subset of anything
    assert ok_wide, f"{prop.describe()} failed on wider domains but not narrower"
    for v in range(len(domains)):
        assert narrow.doms[v] & ~wide.doms[v] == 0, (
            f"{prop.describe()} not monotone on var {v}"
        )
