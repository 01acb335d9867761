from __future__ import annotations

import collections
import dataclasses
import gc
import hashlib
import random
import sys
import threading
import tracemalloc

import pytest

from langford import propagators as propagators_module
from langford.engine import (
    FIXPOINT,
    SearchStats,
    Store,
    _Queue,
    build_watchers,
    iter_solutions,
    propagate_to_fixpoint,
    solve_all,
    validate_model,
    values,
)
from langford.heuristics import HeuristicKind
from langford.models import Instance, VariantConfig, build_model
from langford.oracle import enumerate_bruteforce
from langford.propagators import (
    AllDifferent,
    ElementOffsetConst,
    EqOffset,
    InverseChannel,
    LessThan,
    Occurrence,
    Propagator,
)

from util import (
    TinyModel,
    assign,
    doms,
    every_variant,
    intersect,
    is_assigned,
    mask_of,
    min_value,
    naive_fixpoint,
    reference_watchers,
    remove_value,
    store_of,
    view_of,
)


class Probe(Propagator):
    """Counts its filter calls. With `wipe` set, it empties the last var of
    its scope and so fails."""

    kind = "probe"
    __slots__ = ("calls", "wipe")

    def __init__(self, scope, wipe=False):
        super().__init__(scope)
        self.calls = 0
        self.wipe = wipe

    def filter(self, store) -> bool:
        self.calls += 1
        return not self.wipe or store.commit(self.scope[-1], 0)


class Narrow(Propagator):
    """Watches its scope; each call logs its name in `log` and intersects
    `var` with `mask`."""

    kind = "narrow"
    __slots__ = ("name", "var", "mask", "log")

    def __init__(self, name, scope, var, mask, log):
        super().__init__(scope)
        self.name = name
        self.var = var
        self.mask = mask
        self.log = log

    def filter(self, store) -> bool:
        self.log.append(self.name)
        return intersect(store, self.var, self.mask)


def run_fixpoint(store, props):
    watchers = build_watchers(store.doms, props, store.cells)
    return propagate_to_fixpoint(store, props, watchers, range(len(props)))


class TestStore:
    def test_assign_and_value(self):
        store = Store(doms({1, 2, 3}))
        assert assign(store, 0, 2)
        assert is_assigned(store, 0)
        assert store.value(0) == 2

    def test_wipeout_reported(self):
        store = Store(doms({1, 2}))
        assert not intersect(store, 0, 0b1000)

    def test_undo_restores_bit_exactly(self):
        rng = random.Random(13)
        for _ in range(100):
            masks = [mask_of(rng.sample(range(1, 12), rng.randint(2, 8))) for _ in range(5)]
            store = Store(masks)
            snapshot = list(store.doms)
            store.push_mark()
            for _ in range(rng.randint(1, 12)):
                var = rng.randrange(5)
                d = store.doms[var]
                if d and not (d & (d - 1)):
                    continue
                remove_value(store, var, rng.choice(values(d)))
            store.undo_to_mark()
            assert store.doms == snapshot

    def test_nested_marks(self):
        store = Store(doms({1, 2, 3, 4}))
        store.push_mark()
        remove_value(store, 0, 1)
        inner = list(store.doms)
        store.push_mark()
        remove_value(store, 0, 2)
        remove_value(store, 0, 3)
        store.undo_to_mark()
        assert store.doms == inner
        store.undo_to_mark()
        assert store.doms == doms({1, 2, 3, 4})

    def test_only_undo_empties_the_memo(self):
        # A filter's state in `memo` lasts until the next undo; domains only
        # shrink until then. Each store starts with a memo of its own.
        store = Store(doms({1, 2, 3}, {1, 2}))
        assert store.memo == {}
        assert Store(doms({1})).memo is not store.memo
        memo = store.memo
        memo["filter"] = ([0, 1], 0)
        store.push_mark()
        store.commit(0, mask_of({1, 2}))
        intersect(store, 1, mask_of({2}))
        store.push_mark()
        remove_value(store, 0, 1)
        assert store.memo is memo and memo == {"filter": ([0, 1], 0)}
        store.undo_to_mark()
        assert store.memo is memo and memo == {}
        memo["filter"] = ([0], 0)
        store.undo_to_mark()
        assert store.memo is memo and memo == {}

    def test_view_follows_commits_and_undo(self):
        # cells 2, 0, 4 at positions 1..3 and a non-cell var 1 and 3; the
        # view matches the domains at construction, after every commit,
        # wipeouts included, and after every undo. The masks come from a
        # pool of one to three, so cells often share an initial domain, as
        # every cell of a built model does, and some start assigned.
        rng = random.Random(17)
        cells = (2, 0, 4)
        for _ in range(200):
            pool = [mask_of(rng.sample(range(0, 6), rng.randint(1, 5))) for _ in range(rng.randint(1, 3))]
            masks = [rng.choice(pool) for _ in range(5)]
            store = Store(masks, cells)
            assert (store.can, store.fixed) == view_of(store)
            snapshots = []
            for _ in range(rng.randint(1, 15)):
                if snapshots and rng.random() < 0.3:
                    store.undo_to_mark()
                    assert store.doms == snapshots.pop()
                elif rng.random() < 0.3:
                    store.push_mark()
                    snapshots.append(list(store.doms))
                else:
                    var = rng.randrange(5)
                    d = store.doms[var]
                    store.commit(var, d & mask_of(rng.sample(range(0, 6), rng.randint(0, 4))))
                assert (store.can, store.fixed) == view_of(store)
            while snapshots:
                store.undo_to_mark()
                assert store.doms == snapshots.pop()
                assert (store.can, store.fixed) == view_of(store)


class TestPropagateToFixpoint:
    def test_eq_offset_chain(self):
        # x = y + 2 over 1..3 leaves the single supported pair
        store = Store(doms({1, 2, 3}, {1, 2, 3}))
        props = [EqOffset(0, 1, 2)]
        assert run_fixpoint(store, props) == FIXPOINT
        assert values(store.doms[0]) == [3]
        assert values(store.doms[1]) == [1]

    def test_failure_increments_weight(self):
        # the search bumps the weight of the propagator id returned here
        store = Store(doms({1}, {1}))
        props = [LessThan(0, 1)]
        assert run_fixpoint(store, props) == 0

    def test_channelled_root_matches_naive_fixpoint(self):
        # queue-driven fixpoint must agree with plain round-robin filtering
        for cons in ("both", "d", "p"):
            cfg = VariantConfig("channelled", branch="d", sym="d", cons=cons)
            model = build_model(Instance(2, 3), cfg)
            fast = store_of(model)
            assert run_fixpoint(fast, model.propagators) == FIXPOINT
            slow = store_of(model)
            assert naive_fixpoint(slow, model.propagators) == -1
            assert fast.doms == slow.doms

    def test_idempotent_at_fixpoint(self):
        cfg = VariantConfig("channelled", branch="d", sym="d", cons="both")
        model = build_model(Instance(2, 4), cfg)
        store = store_of(model)
        assert run_fixpoint(store, model.propagators) == FIXPOINT
        settled = list(store.doms)
        trail_depth = len(store.trail)
        assert run_fixpoint(store, model.propagators) == FIXPOINT
        assert store.doms == settled
        assert len(store.trail) == trail_depth  # zero removals the second time

    def test_commits_between_calls_wake_watchers_once(self):
        # commits made outside a propagation, without a mark, are pending
        # wake events: the next call dispatches each once, the one after none
        first, second = Probe([0]), Probe([1])
        props = [first, second]
        store = Store(doms({1, 2, 3, 4}, {1, 2, 3}))
        watchers = build_watchers(store.doms, props, store.cells)
        assert propagate_to_fixpoint(store, props, watchers, range(2)) == FIXPOINT
        assert (first.calls, second.calls) == (1, 1)
        remove_value(store, 0, 1)
        remove_value(store, 0, 2)
        remove_value(store, 1, 3)
        assert propagate_to_fixpoint(store, props, watchers) == FIXPOINT
        assert (first.calls, second.calls) == (2, 2)
        assert propagate_to_fixpoint(store, props, watchers) == FIXPOINT
        assert (first.calls, second.calls) == (2, 2)

    def test_no_stale_events_after_failure(self):
        # a failing propagation leaves no event behind, and neither does the
        # undo after it; a commit right after an undo wakes its watchers
        watcher, wiper = Probe([0, 1]), Probe([0, 1], wipe=True)
        props = [watcher, wiper]
        store = Store(doms({1, 2, 3}, {1, 2, 3}))
        watchers = build_watchers(store.doms, props, store.cells)
        assert propagate_to_fixpoint(store, props, watchers) == FIXPOINT
        store.push_mark()
        remove_value(store, 0, 1)
        assert propagate_to_fixpoint(store, props, watchers) == 1
        assert (watcher.calls, wiper.calls) == (1, 1)
        assert propagate_to_fixpoint(store, props, watchers) == FIXPOINT
        store.undo_to_mark()
        assert propagate_to_fixpoint(store, props, watchers) == FIXPOINT
        assert (watcher.calls, wiper.calls) == (1, 1)
        store.push_mark()
        remove_value(store, 0, 1)
        assert propagate_to_fixpoint(store, props, watchers) == 1
        store.undo_to_mark()
        wiper.wipe = False
        remove_value(store, 1, 3)
        assert propagate_to_fixpoint(store, props, watchers) == FIXPOINT
        assert (watcher.calls, wiper.calls) == (3, 3)

    def test_a_filter_that_commits_nothing_between_two_that_do(self):
        # B commits nothing, so no dispatch follows it; C's commit right
        # after it must still wake D, and D's must wake A again
        def chain(log):
            return [
                Narrow("A", [2], 0, mask_of({1, 2}), log),
                Narrow("B", [0], 0, mask_of({1, 2, 3}), log),
                Narrow("C", [0], 1, mask_of({1, 2}), log),
                Narrow("D", [1], 2, mask_of({1, 2}), log),
            ]

        log = []
        props = chain(log)
        store = Store(doms({1, 2, 3}, {1, 2, 3}, {1, 2, 3}))
        watchers = build_watchers(store.doms, props, store.cells)
        queue = _Queue(watchers.priority)
        assert propagate_to_fixpoint(store, props, watchers, [0], queue) == FIXPOINT
        assert log == ["A", "B", "C", "D", "A"]
        assert store.seen == len(store.trail) == 3
        slow = Store(doms({1, 2, 3}, {1, 2, 3}, {1, 2, 3}))
        assert naive_fixpoint(slow, chain([])) == -1
        assert store.doms == slow.doms
        # a failure after a no-op call leaves the trail seen and the queue empty
        log.clear()
        store.push_mark()
        props[2].mask = 0
        remove_value(store, 0, 2)
        assert propagate_to_fixpoint(store, props, watchers, None, queue) == 2
        assert log == ["B", "C"]
        assert store.seen == len(store.trail) == 5
        assert not queue.cheap and not queue.heavy and queue.in_queue == [0] * 4
        store.undo_to_mark()
        assert store.seen == len(store.trail) == 3

    def test_naive_agreement_on_random_restrictions(self):
        rng = random.Random(99)
        cfg = VariantConfig("channelled", branch="d", sym="d", cons="both")
        model = build_model(Instance(2, 4), cfg)
        for _ in range(40):
            base = list(model.initial_domains)
            for var, d in enumerate(base):
                for v in values(d):
                    if base[var].bit_count() > 1 and rng.random() < 0.2:
                        base[var] &= ~(1 << v)
            fast = store_of(model, base)
            slow = store_of(model, base)
            got = run_fixpoint(fast, model.propagators)
            ref = naive_fixpoint(slow, model.propagators)
            if ref == -1:
                assert got == FIXPOINT
                assert fast.doms == slow.doms
            else:
                assert got != FIXPOINT


WATCHER_TABLES = ("any_of", "value_of", "assign_any_of", "assign_value_of", "on_assign", "priority")


# cells 3, 0, 2 at positions 1..3: out of var order and skipping var 1, an
# element index; var 4 is neither
SCATTERED_CELLS = TinyModel(
    doms({1, 2, 3}, {1, 2, 3}, {1, 2, 3}, {1, 2, 3}, {1, 2}),
    [
        Occurrence((3, 0, 2), 2, 1),
        ElementOffsetConst((3, 0, 2), 1, 0, 3),
        LessThan(4, 1),
        Occurrence((3, 0, 2), 1, 1),
    ],
    cells=[3, 0, 2],
)


class TestWatchers:
    @pytest.mark.parametrize("instance", [(2, 3), (3, 5), (4, 4), "scattered", "copied"],
                             ids=["2-3", "3-5", "4-4", "scattered-cells", "copied-cells"])
    def test_tables_equal_the_per_pair_build(self, instance):
        # every model kind, branch, sym and cons of an instance (the heuristic
        # does not change the model), or a hand-made model whose cells are
        # not in var order: the cells, not the var ids, decide which
        # variables hold the value tables; or a channelled model rebuilt by
        # hand with an equal copy of its cells, not the tuple its filters
        # hold: it is accepted and gets the tables of the shared tuple
        if instance == "scattered":
            models = [SCATTERED_CELLS]
        elif instance == "copied":
            built = build_model(Instance(3, 4), VariantConfig("channelled", branch="d", sym="d", cons="both"))
            copy = TinyModel(built.initial_domains, built.propagators, built.branch_order, cells=list(built.cells))
            assert copy.cells == built.cells and copy.cells is not built.cells
            validate_model(copy)
            shared = build_watchers(built.initial_domains, built.propagators, built.cells)
            copied = build_watchers(copy.initial_domains, copy.propagators, copy.cells)
            for name in WATCHER_TABLES:
                assert getattr(copied, name) == getattr(shared, name), name
            models = [copy]
        else:
            models = [build_model(Instance(*instance), config) for config in every_variant()
                      if config.heuristic is HeuristicKind.STATIC]
        for model in models:
            watchers = build_watchers(model.initial_domains, model.propagators, model.cells)
            reference = reference_watchers(model.initial_domains, model.propagators)
            for name in WATCHER_TABLES:
                assert getattr(watchers, name) == getattr(reference, name), (model.config, name)

    def test_value_condition_off_the_cells_is_refused(self):
        # a value condition must range over exactly the cells, in position
        # order: not a subset, a superset or another order of them
        domains = doms(*[{1, 2, 3}] * 4)
        for cells, scope in (((0, 1, 2), (0, 1)), ((0, 1, 2), (0, 1, 2, 3)),
                             ((0, 1, 2), (1, 0, 2)), ((), (0, 1, 2))):
            with pytest.raises(ValueError, match="propagator 1 has a value condition"):
                build_watchers(domains, [LessThan(0, 3), Occurrence(scope, 2, 1)], cells)

    def test_tables_cover_every_value_of_the_covered_domains(self):
        # the Occurrence's masks go up to value 1, but its cells hold 3: the
        # tables must cover the values the cells lose or are assigned, 2 and 3
        model = TinyModel(doms({1, 2, 3}, {1, 2, 3}), [Occurrence([0, 1], 1, 1)], cells=[0, 1])
        watchers = build_watchers(model.initial_domains, model.propagators, model.cells)
        reference = reference_watchers(model.initial_domains, model.propagators)
        for name in WATCHER_TABLES:
            assert getattr(watchers, name) == getattr(reference, name), name
        assert len(watchers.value_of[0]) == len(watchers.assign_value_of[1]) == 4
        solutions, stats = solve_all(model)
        assert sorted(solutions) == [(1, 2), (1, 3), (2, 1), (3, 1)]
        assert not stats.timed_out


class TestQueue:
    def test_push_appends_to_the_pids_tier_and_survives_clear(self):
        queue = _Queue([0, 1, 0, 1])
        cheap, heavy = queue.cheap, queue.heavy
        for pid in (3, 0, 1, 2):
            queue.in_queue[pid] = 1
            queue.push[pid](pid)
        assert list(cheap) == [0, 2] and list(heavy) == [3, 1]
        queue.clear()
        assert queue.in_queue == [0] * 4 and not cheap and not heavy
        # clear keeps the deques, so the bound appends still feed them
        assert queue.cheap is cheap and queue.heavy is heavy
        queue.push[1](1)
        queue.push[2](2)
        assert list(cheap) == [2] and list(heavy) == [1]

    def test_push_follows_the_models_priority(self):
        model = build_model(Instance(2, 4), VariantConfig("channelled", branch="d", sym="d", cons="both"))
        priority = build_watchers(model.initial_domains, model.propagators, model.cells).priority
        assert 0 in priority and 1 in priority
        queue = _Queue(priority)
        for pid, tier in enumerate(priority):
            assert queue.push[pid].__self__ is (queue.heavy if tier else queue.cheap)


class TestSolveAll:
    def test_direct_2_3(self):
        model = build_model(Instance(2, 3), VariantConfig("direct", sym="d"))
        solutions, stats = solve_all(model)
        assert [model.sequence_of(s) for s in solutions] == [(2, 3, 1, 2, 1, 3)]
        assert stats.solutions == 1

    def test_direct_2_5_unsat(self):
        model = build_model(Instance(2, 5), VariantConfig("direct", sym="d"))
        solutions, stats = solve_all(model)
        assert solutions == []
        assert stats.failures > 0

    def test_positional_2_4_keeps_its_own_representative(self):
        model = build_model(Instance(2, 4), VariantConfig("positional", sym="p"))
        solutions, stats = solve_all(model)
        sequences = [model.sequence_of(s) for s in solutions]
        # the reflection filter of this viewpoint keeps the arrangement whose
        # first 1 hugs the start, i.e. the mirror of the first-less-last one
        assert sequences == [(4, 1, 3, 1, 2, 4, 3, 2)]
        assert tuple(reversed(sequences[0])) in enumerate_bruteforce(2, 4, "first-less-last")

    def test_node_limit_zero(self):
        model = build_model(Instance(2, 3), VariantConfig("direct", sym="d"))
        solutions, stats = solve_all(model, node_limit=0)
        assert solutions == []
        assert stats.timed_out
        assert stats.nodes == 0

    def test_node_limit_truncates(self):
        model = build_model(Instance(2, 7), VariantConfig("direct"))
        full, full_stats = solve_all(model)
        cut, cut_stats = solve_all(model, node_limit=full_stats.nodes // 2)
        assert cut_stats.timed_out
        assert cut_stats.nodes == full_stats.nodes // 2
        assert cut == full[: len(cut)]  # prefix of the full enumeration

    def test_iter_solutions_streams_what_solve_all_lists(self):
        model = build_model(Instance(2, 7), VariantConfig("positional", sym="p"))
        full, full_stats = solve_all(model)
        stats = SearchStats()
        seen = []
        for solution in iter_solutions(model, stats):
            seen.append(solution)
            assert stats.solutions == len(seen)  # counted before it is yielded
        assert seen == full
        assert dataclasses.replace(stats, elapsed_ms=0) == dataclasses.replace(full_stats, elapsed_ms=0)

    def test_closing_the_search_keeps_its_counts(self):
        model = build_model(Instance(2, 7), VariantConfig("positional", sym="p"))
        full, _ = solve_all(model)
        stats = SearchStats(elapsed_ms=-1)
        search = iter_solutions(model, stats)
        assert next(search) == full[0]
        search.close()
        assert stats.solutions == 1 and stats.nodes > 0 and not stats.timed_out
        assert stats.elapsed_ms >= 0  # set on close

    def test_time_limit(self):
        cfg = VariantConfig("channelled", branch="p", sym="p", cons="both")
        model = build_model(Instance(3, 11), cfg)
        solutions, stats = solve_all(model, time_limit=0.2)
        assert stats.timed_out

    def test_malformed_model_rejected(self):
        model = TinyModel(doms({1, 2}), [LessThan(0, 7)])
        with pytest.raises(ValueError):
            solve_all(model)
        validate_model(TinyModel(doms({1, 2}, {1, 2}), [LessThan(0, 1)]))
        # a cell filter's scope is range-checked past its cells too: an
        # unknown var in an element's array or index, an occurrence's scope
        # or a channel's slots is refused before the search starts
        cells = [0, 1, 2]
        domains = doms({1, 2}, {1, 2}, {1, 2}, {1, 2, 3}, {1, 2})
        for prop, model_cells in (
            (ElementOffsetConst([0, 1, 9], 3, 0, 2), cells),
            (ElementOffsetConst(cells, 9, 0, 2), cells),
            (Occurrence([0, 9, 2], 2, 1), cells),
            (InverseChannel([[4], [9]], [0, 1]), [0, 1]),
        ):
            with pytest.raises(ValueError, match="propagator 0 references unknown var 9"):
                solve_all(TinyModel(domains, [prop], cells=model_cells))

    def test_cell_filters_must_read_the_models_cells(self):
        # the cell filters read the store's view over the model's cells, so
        # a model must give each of them exactly those cells, in position
        # order, and no value above every cell's initial domain
        cells = [0, 1, 2]
        domains = doms({1, 2}, {1, 2}, {1, 2}, {1, 2, 3}, {1, 2}, {1, 2})
        good = [
            ElementOffsetConst(cells, 3, 0, 2),
            Occurrence(cells, 2, 1),
            InverseChannel([[4], [5]], [0, 1]),
        ]
        for prop in good[:2]:
            validate_model(TinyModel(domains, [prop], cells=cells))
        validate_model(TinyModel(domains, [good[2]], cells=[0, 1]))
        bad = [
            (ElementOffsetConst([0, 1, 4], 3, 0, 2), cells),  # another array
            (ElementOffsetConst([2, 1, 0], 3, 0, 2), cells),  # another order
            (Occurrence([0, 1], 2, 1), cells),  # a part of the cells
            (InverseChannel([[4], [5]], [0, 1]), cells),
            (ElementOffsetConst(cells, 3, 0, 2), ()),  # a model without cells
            (ElementOffsetConst(cells, 3, 0, 3), cells),  # a value no cell holds
            (Occurrence(cells, 3, 1), cells),
            (InverseChannel([[3], [4], [5]], cells), cells),  # n = 3
            (ElementOffsetConst([0, 1, 9], 3, 0, 2), cells),  # an unknown var in the array
            (ElementOffsetConst(cells, 9, 0, 2), cells),  # an unknown index
            (Occurrence([0, 1, 9], 2, 1), cells),  # an unknown var
            (InverseChannel([[4], [9]], [0, 1]), [0, 1]),  # an unknown slot
        ]
        for prop, model_cells in bad:
            with pytest.raises(ValueError):
                validate_model(TinyModel(domains, [prop], cells=model_cells))
        # a repeated cell holds one position of the view only; a search of
        # this model recommitted an unchanged domain that woke its
        # Occurrence again, forever
        with pytest.raises(ValueError):
            validate_model(TinyModel(doms({1, 2}), [Occurrence([0, 0], 1, 2)], cells=[0, 0]))

    def test_min_value_two_way_branching(self):
        # one variable {2,5,7}: assign 2 | remove 2, assign 5 | remove 5 -> {7}
        model = TinyModel(doms({2, 5, 7}), [])
        solutions, stats = solve_all(model)
        assert [s[0] for s in solutions] == [2, 5, 7]
        assert stats.nodes == 4  # the {7} leaf needs no branching
        assert stats.failures == 0

    def test_determinism(self):
        cfg = VariantConfig("channelled", branch="d", sym="d", cons="both")
        for heuristic in HeuristicKind:
            model = build_model(Instance(2, 6), cfg)
            first_solutions, first_stats = solve_all(model, heuristic)
            again_solutions, again_stats = solve_all(model, heuristic)
            assert first_solutions == again_solutions
            assert (first_stats.nodes, first_stats.failures, first_stats.solutions) == (
                again_stats.nodes,
                again_stats.failures,
                again_stats.solutions,
            )

    def test_trail_soundness_through_search(self):
        model = build_model(Instance(2, 4), VariantConfig("direct"))
        store = store_of(model)
        watchers = build_watchers(model.initial_domains, model.propagators, model.cells)
        snapshot = list(store.doms)
        rng = random.Random(5)
        for _ in range(50):
            store.push_mark()
            var = rng.randrange(model.num_vars)
            assign(store, var, rng.choice(values(store.doms[var])))
            propagate_to_fixpoint(store, model.propagators, watchers)
            store.undo_to_mark()
            assert store.doms == snapshot

    def test_left_spine_consistent_with_oracle(self):
        # walk the leftmost branch of the direct model; each propagation
        # outcome must match the brute-force classification of the partial
        # sequence assignment
        model = build_model(Instance(2, 3), VariantConfig("direct", sym="d"))
        arrangements = enumerate_bruteforce(2, 3, "first-less-last")
        store = store_of(model)
        watchers = build_watchers(model.initial_domains, model.propagators, model.cells)
        assert propagate_to_fixpoint(store, model.propagators, watchers, range(len(model.propagators))) == FIXPOINT
        while True:
            var = next((v for v in model.branch_order if not is_assigned(store, v)), None)
            if var is None:
                break
            assign(store, var, min_value(store, var))
            failed = propagate_to_fixpoint(store, model.propagators, watchers) != FIXPOINT
            fixed = {
                i: store.value(v)
                for i, v in enumerate(model.cells)
                if is_assigned(store, v)
            }
            extensible = any(
                all(arr[i] == value for i, value in fixed.items()) for arr in arrangements
            )
            if failed:
                assert not extensible
                break
            # propagation succeeding makes no promise, but a fully assigned
            # sequence must be a real arrangement
            if len(fixed) == len(model.cells):
                assert extensible

    def test_concurrent_searches_share_one_model(self, monkeypatch):
        # failure weights and AllDifferent's open lists are per search, so
        # two threads searching one model interleave their calls to the one
        # AllDifferent object without moving each other's dom/wdeg choices
        config = VariantConfig("positional", sym="p", heuristic=HeuristicKind.DOM_OVER_WDEG)
        model = build_model(Instance(2, 8), config)
        counts = []
        callers = []
        filter_ = AllDifferent.filter

        def recording(prop, store):
            callers.append(threading.get_ident())
            return filter_(prop, store)

        monkeypatch.setattr(AllDifferent, "filter", recording)

        def search():
            solutions, stats = solve_all(model)
            counts.append((stats.nodes, stats.failures, len(solutions)))

        threads = [threading.Thread(target=search) for _ in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, mid-search
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert counts == [(2064, 883, 150)] * 2
        # the two searches took turns on the shared filter, mid-search
        assert sum(a != b for a, b in zip(callers, callers[1:])) > 10


def traced_peak(search, sym: str) -> int:
    """Peak traced bytes of `search` over L(2,8) positional sdf under
    `sym`, the model built before tracing starts. A full collection
    first empties the free lists, so that every solution tuple a search
    keeps is newly allocated, and traced, rather than a freed one reused."""
    model = build_model(Instance(2, 8), VariantConfig("positional", sym=sym, heuristic="sdf"))
    gc.collect()
    tracemalloc.start()
    try:
        search(model)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_streamed_search_memory_does_not_grow_with_the_solutions():
    # L(2,8) positional has 300 solutions under sym:none and 150 under
    # sym:P. A search consumed one solution at a time peaks alike on both
    # (sdf searches both to about the same depth); solve_all's list holds
    # the 150 more tuples.
    def stream(model):
        collections.deque(iter_solutions(model, SearchStats()), maxlen=0)

    streamed = [traced_peak(stream, sym) for sym in ("none", "p")]
    listed = [traced_peak(solve_all, sym) for sym in ("none", "p")]
    solution = solve_all(build_model(Instance(2, 8), VariantConfig("positional", sym="p")))[0][0]
    kept = 150 * sys.getsizeof(solution)
    assert abs(streamed[0] - streamed[1]) < kept / 4
    assert listed[0] - listed[1] >= kept


@pytest.mark.parametrize("config", [
    VariantConfig("direct", sym="d"),
    VariantConfig("positional", sym="p", heuristic=HeuristicKind.DOM_OVER_WDEG),
    VariantConfig("channelled", branch="d", sym="d", cons="both"),
], ids=["direct", "positional", "channelled"])
def test_every_undo_goes_through_store_undo_to_mark(monkeypatch, config):
    # The benchmark's tracer counts undos by wrapping Store.undo_to_mark, so
    # no search may undo by another method, and every search runs on a
    # `Store` itself. A complete search undoes each of its nodes once.
    calls = []
    undo = Store.undo_to_mark

    def counting(store):
        calls.append(type(store))
        undo(store)

    monkeypatch.setattr(Store, "undo_to_mark", counting)
    solutions, stats = solve_all(build_model(Instance(3, 6), config))
    assert not stats.timed_out
    assert stats.nodes > 0
    assert len(calls) == stats.nodes
    assert set(calls) == {Store}


@pytest.fixture(scope="module")
def pinned_sequences():
    # One pass over every variant at k 2-4, n 2-6 that records, per search,
    # both the commits and the filter calls, for the two tests below. It
    # returns the cell count and, for each sequence, its length over all
    # cells and a sha256 digest of it with each search's node, failure and
    # solution counts.
    with pytest.MonkeyPatch.context() as monkeypatch:
        commits = []
        commit = Store.commit

        def recording_commit(store, var, mask):
            commits.append((var, mask))
            return commit(store, var, mask)

        monkeypatch.setattr(Store, "commit", recording_commit)
        calls = []
        pid_of = {}
        for cls in vars(propagators_module).values():
            if isinstance(cls, type) and issubclass(cls, Propagator) and "filter" in vars(cls):
                def recording(prop, store, _filter=cls.filter):
                    calls.append((pid_of[id(prop)], prop.kind))
                    return _filter(prop, store)

                monkeypatch.setattr(cls, "filter", recording)
        commit_digest = hashlib.sha256()
        call_digest = hashlib.sha256()
        cells = commit_total = call_total = 0
        for config in every_variant():
            for k in (2, 3, 4):
                for n in range(2, 7):
                    model = build_model(Instance(k, n), config)
                    pid_of.clear()
                    pid_of.update((id(p), pid) for pid, p in enumerate(model.propagators))
                    _, stats = solve_all(model, node_limit=300)
                    counts = (stats.nodes, stats.failures, stats.solutions)
                    commit_digest.update(repr((commits, *counts)).encode())
                    call_digest.update(repr((calls, *counts)).encode())
                    cells += 1
                    commit_total += len(commits)
                    call_total += len(calls)
                    commits.clear()
                    calls.clear()
    return {
        "commits": (cells, commit_total, commit_digest.hexdigest()),
        "calls": (cells, call_total, call_digest.hexdigest()),
    }


def test_commit_sequence_is_pinned(pinned_sequences):
    # The reproduction contract down to each commit: every (var, mask) a
    # search hands to Store.commit, in order, and its node, failure and
    # solution counts. Which commit comes first decides which propagator
    # fails and is blamed, and so the wdeg and dom/wdeg counts; a change to
    # the wake tables, the queue or a filter that moves one commit fails here.
    cells, commit_total, commit_digest = pinned_sequences["commits"]
    assert (cells, commit_total) == (1320, 1106046)
    assert commit_digest == "2a52466d4126e4da9e772e269eaba0c0d021fa722aebee8a6f277b27bfafe035"


def test_call_sequence_is_pinned(pinned_sequences):
    # Every filter call a search makes, as (pid, kind) in order, and the same
    # counts. The commit sequence says nothing of the calls that commit
    # nothing; this pins them too, so a cheaper fixpoint loop or filter still
    # makes each no-op call, in the same place. The benchmark's traced
    # per-kind call counts rely on that.
    cells, call_total, call_digest = pinned_sequences["calls"]
    assert (cells, call_total) == (1320, 1604641)
    assert call_digest == "be72fe59658d74569066fbd7e82fadc4566ad1c5d96ab32609d4e8caec66b08f"
