from __future__ import annotations

import random
import zlib

import pytest

from langford.engine import Store, values
from langford.models import Instance, build_direct, build_positional
from langford.propagators import (
    AllDifferent,
    ElementOffsetConst,
    EqOffset,
    InverseChannel,
    LessThan,
    Occurrence,
    SumLeq,
)

from util import (
    PROPAGATOR_KINDS,
    RecordingStore,
    assert_checker_agreement,
    assert_filter_sound,
    assert_monotone,
    doms,
    random_all_different_case,
    random_case,
    random_channel_case,
    reference_all_different_filter,
    reference_inverse_channel_filter,
)


class TestEqOffset:
    def test_interval_shift(self):
        store = Store(doms(set(range(1, 11)), set(range(1, 6))))
        assert EqOffset(0, 1, 3).filter(store)
        assert values(store.doms[0]) == [4, 5, 6, 7, 8]
        assert values(store.doms[1]) == [1, 2, 3, 4, 5]

    def test_back_propagation(self):
        store = Store(doms({4}, {1, 2, 9}))
        assert EqOffset(0, 1, 3).filter(store)
        assert values(store.doms[1]) == [1]

    def test_empty_intersection_fails(self):
        store = Store(doms({1, 2}, {5}))
        assert not EqOffset(0, 1, 3).filter(store)

    def test_check(self):
        assert EqOffset(0, 1, 3).check([5, 2])
        assert not EqOffset(0, 1, 3).check([5, 3])


class TestLessThan:
    def test_bounds(self):
        store = Store(doms(set(range(1, 7)), set(range(1, 7))))
        assert LessThan(0, 1).filter(store)
        assert values(store.doms[0]) == [1, 2, 3, 4, 5]
        assert values(store.doms[1]) == [2, 3, 4, 5, 6]

    def test_failure(self):
        store = Store(doms({3}, {1, 2, 3}))
        assert not LessThan(0, 1).filter(store)

    def test_holes_kept(self):
        store = Store(doms({2, 7}, {3}))
        assert LessThan(0, 1).filter(store)
        assert values(store.doms[0]) == [2]

    def test_check(self):
        assert not LessThan(0, 1).check([4, 4])
        assert LessThan(0, 1).check([3, 4])


class TestSumLeq:
    def test_both_sides(self):
        store = Store(doms(set(range(1, 7)), set(range(1, 7))))
        assert SumLeq(0, 1, 6).filter(store)
        assert values(store.doms[0]) == [1, 2, 3, 4, 5]
        assert values(store.doms[1]) == [1, 2, 3, 4, 5]

    def test_tight(self):
        store = Store(doms({5}, {1, 2, 3}))
        assert SumLeq(0, 1, 6).filter(store)
        assert values(store.doms[1]) == [1]

    def test_failure(self):
        store = Store(doms({6}, set(range(1, 7))))
        assert not SumLeq(0, 1, 6).filter(store)

    def test_check(self):
        assert SumLeq(0, 1, 6).check([3, 3])
        assert not SumLeq(0, 1, 6).check([3, 4])


class TestAllDifferent:
    def test_chain_of_singletons(self):
        store = Store(doms({1}, {1, 2}, {1, 2, 3}))
        assert AllDifferent([0, 1, 2]).filter(store)
        assert values(store.doms[0]) == [1]
        assert values(store.doms[1]) == [2]
        assert values(store.doms[2]) == [3]

    def test_pigeonhole(self):
        store = Store(doms({1, 2}, {1, 2}, {1, 2}))
        assert not AllDifferent([0, 1, 2]).filter(store)

    def test_full_domains_untouched(self):
        model = build_positional(Instance(2, 3), sym=False)
        store = Store(model.initial_domains)
        assert model.propagators[0].filter(store)
        assert store.doms == model.initial_domains

    def test_two_assigned_same_fails(self):
        store = Store(doms({2}, {2}, {1, 2, 3}))
        assert not AllDifferent([0, 1, 2]).filter(store)

    def test_scope_minimum(self):
        with pytest.raises(ValueError):
            AllDifferent([0])

    def test_check(self):
        prop = AllDifferent([0, 1, 2])
        assert prop.check([1, 2, 3])
        assert not prop.check([1, 2, 1])

    def test_commits_match_reference_filter(self):
        # Same result and the same (var, mask) commits in the same order as
        # the rescanning filter.
        rng = random.Random(1809)
        outcomes = dict.fromkeys(("duplicate", "chain", "wipeout", "clash", "pigeonhole"), 0)
        for _ in range(600):
            domains, prop = random_all_different_case(rng)
            fast, ref = RecordingStore(domains), RecordingStore(domains)
            ok = prop.filter(fast)
            assert ok == reference_all_different_filter(prop, ref)
            assert fast.log == ref.log
            singletons = [d for d in domains if d and d & (d - 1) == 0]
            duplicate = len(set(singletons)) < len(singletons)
            # a commit that removes a value some earlier commit fixed
            chain = any(
                ref.trail_bits[j] & mask
                for i, (_, mask) in enumerate(ref.log)
                if mask and mask & (mask - 1) == 0
                for j in range(i + 1, len(ref.log))
            )
            wipeout = bool(ref.log) and ref.log[-1][1] == 0
            fixed = [d for d in ref.doms if d and d & (d - 1) == 0]
            clash = not duplicate and len(set(fixed)) < len(fixed)
            outcomes["duplicate"] += duplicate
            outcomes["chain"] += chain
            outcomes["wipeout"] += wipeout
            outcomes["clash"] += clash
            outcomes["pigeonhole"] += not ok and not (duplicate or wipeout or clash)
        # the sample reaches every way to fail and singletons forced in turn
        assert all(count >= 20 for count in outcomes.values()), outcomes


class TestElementOffsetConst:
    def test_support_filtering(self):
        store = Store(doms({1, 2}, {2}, {1, 2}, {1, 2, 3}))
        assert ElementOffsetConst([0, 1, 2], 3, 0, 1).filter(store)
        assert values(store.doms[3]) == [1, 3]

    def test_assigned_index_fixes_target(self):
        store = Store(doms({9}, {9}, {1, 2, 3}, {2}))
        assert ElementOffsetConst([0, 1, 2], 3, 1, 3).filter(store)
        assert values(store.doms[2]) == [3]

    def test_out_of_bounds_pruned(self):
        store = Store(doms({1, 2}, {1, 2}, {1, 2, 3}))
        assert ElementOffsetConst([0, 1], 2, 1, 1).filter(store)
        assert values(store.doms[2]) == [1]  # 2 and 3 would run off the end

    def test_first_occurrence_chain_forced(self):
        # with cell 2 already known, the two chain anchors for number 3 leave
        # a single start cell
        model = build_direct(Instance(2, 3))
        store = Store(model.initial_domains)
        assert values(store.doms[model.first_occ[2]]) == [1, 2]
        store.assign(model.seq_vars[1], 2)
        store.seen = len(store.trail)
        chain_props = [
            p
            for p in model.propagators
            if isinstance(p, ElementOffsetConst) and p.value == 3
        ]
        assert len(chain_props) == 2
        changed = True
        while changed:
            before = list(store.doms)
            for p in chain_props:
                assert p.filter(store)
            changed = store.doms != before
        assert values(store.doms[model.first_occ[2]]) == [1]

    def test_check(self):
        prop = ElementOffsetConst([0, 1, 2], 3, 1, 3)
        assert prop.check([7, 3, 7, 1])  # cell at position 1+1 holds 3
        assert not prop.check([7, 7, 3, 1])
        assert not prop.check([7, 7, 3, 3])  # 3+1 runs off the end


class TestOccurrence:
    def test_saturated_value_removed_elsewhere(self):
        store = Store(doms({1}, {1}, {1, 2}, {1, 2}, {1, 3}, {1, 2, 3}))
        assert Occurrence(list(range(6)), 1, 2).filter(store)
        for var in range(2, 6):
            assert 1 not in values(store.doms[var])

    def test_scarce_value_forced(self):
        store = Store(doms({1, 2}, {1, 3}, {2, 3}, {2, 3}, {2, 3}, {2, 3}))
        assert Occurrence(list(range(6)), 1, 2).filter(store)
        assert values(store.doms[0]) == [1]
        assert values(store.doms[1]) == [1]

    def test_too_many_assigned_fails(self):
        store = Store(doms({1}, {1}, {1}, {1, 2}, {1, 2}, {1, 2}))
        assert not Occurrence(list(range(6)), 1, 2).filter(store)

    def test_check(self):
        prop = Occurrence(list(range(6)), 1, 2)
        assert prop.check([2, 3, 1, 2, 1, 3])
        assert not prop.check([1, 3, 1, 2, 1, 3])


class TestInverseChannel:
    def build(self, slot_doms, seq_doms):
        store = Store(doms(*slot_doms, *seq_doms))
        prop = InverseChannel([[0, 1], [2, 3]], [4, 5, 6, 7])
        return store, prop

    def test_assigned_slot_fixes_cell(self):
        store, prop = self.build(
            [{1, 2, 3, 4}, {1, 2, 3, 4}, {3}, {1, 2, 4}],
            [{1, 2}, {1, 2}, {1, 2}, {1, 2}],
        )
        assert prop.filter(store)
        assert values(store.doms[6]) == [2]  # cell 3 must hold number 2

    def test_cell_restriction_prunes_slots(self):
        store, prop = self.build(
            [{1, 2, 3, 4}, {1, 2, 3, 4}, {1, 2, 3, 4}, {1, 2, 3, 4}],
            [{2}, {1, 2}, {1, 2}, {1, 2}],
        )
        assert prop.filter(store)
        # number 1 cannot sit at position 1 any more
        assert 1 not in values(store.doms[0])
        assert 1 not in values(store.doms[1])

    def test_unique_support_assigns_slot(self):
        store, prop = self.build(
            [{2, 3}, {2, 3, 4}, {1, 2, 3, 4}, {1, 2, 3, 4}],
            [{1}, {1, 2}, {1, 2}, {1, 2}],
        )
        # cell 1 holds number 1, but neither slot of number 1 can be 1 -> fail
        assert not prop.filter(store)

    def test_check(self):
        prop = InverseChannel([[0, 1], [2, 3]], [4, 5, 6, 7])
        # numbers 1 at positions 1,3 and 2 at positions 2,4
        assert prop.check([1, 3, 2, 4, 1, 2, 1, 2])
        assert not prop.check([1, 3, 2, 4, 1, 2, 2, 1])
        assert not prop.check([1, 1, 2, 4, 1, 2, 1, 2])

    def test_rectangularity_enforced(self):
        with pytest.raises(ValueError):
            InverseChannel([[0, 1], [2]], [3, 4, 5])

    def test_commits_match_reference_filter(self):
        # Same result and the same (var, mask) commits in the same order as
        # the full-rescan filter, out-of-range cell and slot values included.
        rng = random.Random(1808)
        failed = stripped = 0
        for _ in range(600):
            k, n = rng.choice((2, 3)), rng.choice((2, 3, 4))
            domains, prop = random_channel_case(rng, k, n)
            fast, ref = RecordingStore(domains), RecordingStore(domains)
            ok = prop.filter(fast)
            assert ok == reference_inverse_channel_filter(prop, ref)
            assert fast.log == ref.log
            failed += not ok
            outside = ~((2 << n) - 2)
            stripped += any(domains[c] & outside for c in prop.seq)
        # the sample reaches both outcomes, with and without out-of-range cells
        assert 100 <= failed <= 500
        assert 200 <= stripped <= 400


class TestRandomizedProperties:
    # Seeds come from crc32 of the kind, not hash(), which differs from one
    # process to the next, so every run draws the same cases; each test adds
    # its own offset so the tests draw different ones.
    @pytest.mark.parametrize("kind", PROPAGATOR_KINDS)
    def test_soundness_sample(self, kind):
        rng = random.Random(zlib.crc32(kind.encode()))
        for _ in range(150):
            domains, prop = random_case(rng, kind)
            assert_filter_sound(domains, prop)

    @pytest.mark.parametrize("kind", PROPAGATOR_KINDS)
    def test_checker_agreement_sample(self, kind):
        rng = random.Random(zlib.crc32(kind.encode()) + 1)
        for _ in range(300):
            domains, prop = random_case(rng, kind)
            assert_checker_agreement(rng, domains, prop)

    @pytest.mark.parametrize("kind", PROPAGATOR_KINDS)
    def test_monotone_sample(self, kind):
        rng = random.Random(zlib.crc32(kind.encode()) + 2)
        for _ in range(150):
            domains, prop = random_case(rng, kind)
            assert_monotone(rng, domains, prop)
