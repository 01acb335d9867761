from __future__ import annotations

import random
import sys
import threading

import pytest

from langford.engine import (
    FIXPOINT,
    Store,
    build_watchers,
    propagate_to_fixpoint,
    solve_all,
    validate_model,
    values,
)
from langford.heuristics import HeuristicKind
from langford.models import Instance, VariantConfig, build_model
from langford.oracle import enumerate_bruteforce
from langford.propagators import (
    ElementOffsetConst,
    EqOffset,
    InverseChannel,
    LessThan,
    Occurrence,
    Propagator,
)

from util import TinyModel, doms, is_assigned, mask_of, naive_fixpoint, store_of, view_of


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


def run_fixpoint(store, props):
    watchers = build_watchers(len(store.doms), props)
    return propagate_to_fixpoint(store, props, watchers, range(len(props)))


class TestStore:
    def test_assign_and_value(self):
        store = Store(doms({1, 2, 3}))
        assert store.assign(0, 2)
        assert is_assigned(store, 0)
        assert store.value(0) == 2

    def test_wipeout_reported(self):
        store = Store(doms({1, 2}))
        assert not store.intersect(0, 0b1000)

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
                store.remove_value(var, rng.choice(values(d)))
            store.undo_to_mark()
            assert store.doms == snapshot

    def test_nested_marks(self):
        store = Store(doms({1, 2, 3, 4}))
        store.push_mark()
        store.remove_value(0, 1)
        inner = list(store.doms)
        store.push_mark()
        store.remove_value(0, 2)
        store.remove_value(0, 3)
        store.undo_to_mark()
        assert store.doms == inner
        store.undo_to_mark()
        assert store.doms == doms({1, 2, 3, 4})


    def test_view_follows_commits_and_undo(self):
        # cells 2, 0, 4 at positions 1..3 and a non-cell var 1 and 3; the
        # view matches the domains after every commit, wipeouts included,
        # and after every undo
        rng = random.Random(17)
        cells = (2, 0, 4)
        for _ in range(200):
            masks = [mask_of(rng.sample(range(0, 6), rng.randint(1, 5))) for _ in range(5)]
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
        watchers = build_watchers(2, props)
        assert propagate_to_fixpoint(store, props, watchers, range(2)) == FIXPOINT
        assert (first.calls, second.calls) == (1, 1)
        store.remove_value(0, 1)
        store.remove_value(0, 2)
        store.remove_value(1, 3)
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
        watchers = build_watchers(2, props)
        assert propagate_to_fixpoint(store, props, watchers) == FIXPOINT
        store.push_mark()
        store.remove_value(0, 1)
        assert propagate_to_fixpoint(store, props, watchers) == 1
        assert (watcher.calls, wiper.calls) == (1, 1)
        assert propagate_to_fixpoint(store, props, watchers) == FIXPOINT
        store.undo_to_mark()
        assert propagate_to_fixpoint(store, props, watchers) == FIXPOINT
        assert (watcher.calls, wiper.calls) == (1, 1)
        store.push_mark()
        store.remove_value(0, 1)
        assert propagate_to_fixpoint(store, props, watchers) == 1
        store.undo_to_mark()
        wiper.wipe = False
        store.remove_value(1, 3)
        assert propagate_to_fixpoint(store, props, watchers) == FIXPOINT
        assert (watcher.calls, wiper.calls) == (3, 3)

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
            validate_model(TinyModel(domains, [prop], seq_vars=cells))
        validate_model(TinyModel(domains, [good[2]], seq_vars=[0, 1]))
        bad = [
            (ElementOffsetConst([0, 1, 4], 3, 0, 2), cells),  # another array
            (ElementOffsetConst([2, 1, 0], 3, 0, 2), cells),  # another order
            (Occurrence([0, 1], 2, 1), cells),  # a part of the cells
            (InverseChannel([[4], [5]], [0, 1]), cells),
            (ElementOffsetConst(cells, 3, 0, 2), None),  # a model without cells
            (ElementOffsetConst(cells, 3, 0, 3), cells),  # a value no cell holds
            (Occurrence(cells, 3, 1), cells),
            (InverseChannel([[3], [4], [5]], cells), cells),  # n = 3
        ]
        for prop, seq_vars in bad:
            with pytest.raises(ValueError):
                validate_model(TinyModel(domains, [prop], seq_vars=seq_vars))

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
        watchers = build_watchers(model.num_vars, model.propagators)
        snapshot = list(store.doms)
        rng = random.Random(5)
        for _ in range(50):
            store.push_mark()
            var = rng.randrange(model.num_vars)
            store.assign(var, rng.choice(values(store.doms[var])))
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
        watchers = build_watchers(model.num_vars, model.propagators)
        assert propagate_to_fixpoint(store, model.propagators, watchers, range(len(model.propagators))) == FIXPOINT
        while True:
            var = next((v for v in model.branch_order if not is_assigned(store, v)), None)
            if var is None:
                break
            store.assign(var, store.min_value(var))
            failed = propagate_to_fixpoint(store, model.propagators, watchers) != FIXPOINT
            fixed = {
                i: store.value(v)
                for i, v in enumerate(model.seq_vars)
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
            if len(fixed) == len(model.seq_vars):
                assert extensible

    def test_concurrent_searches_share_one_model(self):
        # failure weights are per search, so two threads searching one
        # model interleave without moving each other's dom/wdeg choices
        config = VariantConfig("positional", sym="p", heuristic=HeuristicKind.DOM_OVER_WDEG)
        model = build_model(Instance(2, 8), config)
        counts = []

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
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        assert counts == [(2064, 883, 150)] * 2


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
