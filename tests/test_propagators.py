from __future__ import annotations

import random
import zlib

import pytest

from langford.engine import Store, values
from langford.models import Instance, VariantConfig, build_model
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
    assign,
    doms,
    in_contract,
    intersect,
    mask_of,
    random_all_different_case,
    random_case,
    random_channel_case,
    random_view_case,
    reference_all_different_filter,
    reference_element_filter,
    reference_inverse_channel_filter,
    reference_occurrence_filter,
    reference_targets,
    store_of,
    view_of,
)


def compare_with_reference(kind: str, seed: int, reference, cases: int = 600) -> dict:
    """Filter random cases on a store over the propagator's cells, once
    with the filter and once with its scanning reference: the result, the
    commit log and the domains left must be equal, and the view must match
    those domains. A case outside the filter's contract, which
    `validate_model` rejects, is drawn but not filtered. Returns how often
    each feature of interest came up; a stray is a cell value outside 1..n,
    or for a channel, whose cells never stray, a slot value outside 1..kn."""
    rng = random.Random(seed)
    seen = dict.fromkeys(("checked", "failed", "wipeout", "stray"), 0)
    for _ in range(cases):
        domains, prop, cells, n = random_view_case(rng, kind)
        if not in_contract(domains, prop):
            continue
        fast, ref = RecordingStore(domains, cells), RecordingStore(domains, cells)
        ok = prop.filter(fast)
        assert ok == reference(prop, ref)
        assert fast.log == ref.log
        assert fast.doms == ref.doms
        assert (fast.can, fast.fixed) == view_of(fast)
        seen["checked"] += 1
        seen["failed"] += not ok
        seen["wipeout"] += bool(ref.log) and ref.log[-1][1] == 0
        if isinstance(prop, InverseChannel):
            spilled, top = prop.scope[:-len(cells)], len(cells)
        else:
            spilled, top = cells, n
        seen["stray"] += any(domains[v] & ~((2 << top) - 2) for v in spilled)
    return seen


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

    def test_negative_shift_refused(self):
        # every built model shifts forward, so the filter has no other path
        with pytest.raises(ValueError):
            EqOffset(0, 1, -1)


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
        model = build_model(Instance(2, 3), VariantConfig("positional"))
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

    def test_reuse_path_matches_reference_filter(self):
        # Steps as a search takes them: narrowing commits, marks, undos and
        # filter calls, an undo after each failure. The filter's store keeps
        # the open list of its last call, and an undo puts back the one saved
        # under its mark; the twin store runs the rescanning filter. Every
        # call must give the same result and commits.
        rng = random.Random(1812)
        seen = dict.fromkeys(("calls", "reused", "reused_commits", "reused_failed", "reused_after_undo"), 0)
        undone = False  # no filter call since the last undo

        def undo_both(fast, ref) -> None:
            nonlocal undone
            for store in (fast, ref):
                store.undo_to_mark()
            undone = True

        def filter_both(prop, fast, ref) -> bool:
            nonlocal undone
            saved = fast.memo.get(prop)
            reuse = saved is not None
            fast.log.clear()
            ref.log.clear()
            ok = prop.filter(fast)
            assert ok == reference_all_different_filter(prop, ref)
            assert fast.log == ref.log
            assert fast.doms == ref.doms
            seen["calls"] += 1
            seen["reused"] += reuse
            seen["reused_commits"] += reuse and bool(fast.log)
            seen["reused_failed"] += reuse and not ok
            seen["reused_after_undo"] += reuse and undone
            undone = False
            return ok

        for _ in range(1000):
            domains, prop = random_all_different_case(rng)
            fast, ref = RecordingStore(domains), RecordingStore(domains)
            if not filter_both(prop, fast, ref):
                continue  # fails at the root, as a search would
            for _ in range(30):
                open_vars = [v for v in prop.scope if fast.doms[v] & (fast.doms[v] - 1)]
                step = rng.random()
                if step < 0.2 and fast.marks:
                    undo_both(fast, ref)
                elif step < 0.3 or not open_vars:
                    for store in (fast, ref):
                        store.push_mark()
                elif step < 0.65:
                    v = rng.choice(open_vars)
                    d = fast.doms[v]
                    kept = 1 << rng.choice(values(d))  # assign v, or keep a random subset
                    if rng.random() < 0.5:
                        kept |= d & rng.getrandbits(d.bit_length())
                    for store in (fast, ref):
                        assert intersect(store, v, kept)
                elif not filter_both(prop, fast, ref):
                    if not fast.marks:
                        break
                    undo_both(fast, ref)
        # the saved open list served a good share of the calls, some of
        # which pruned and some of which failed, and the restored one served
        # many first calls after an undo
        assert seen["reused"] * 4 >= seen["calls"], seen
        assert seen["reused_commits"] >= 100 and seen["reused_failed"] >= 20, seen
        assert seen["reused_after_undo"] >= 200, seen


class TestElementOffsetConst:
    def test_support_filtering(self):
        store = Store(doms({1, 2}, {2}, {1, 2}, {1, 2, 3}), (0, 1, 2))
        assert ElementOffsetConst([0, 1, 2], 3, 0, 1).filter(store)
        assert values(store.doms[3]) == [1, 3]

    def test_assigned_index_fixes_target(self):
        store = Store(doms({9}, {9}, {1, 2, 3}, {2}), (0, 1, 2))
        assert ElementOffsetConst([0, 1, 2], 3, 1, 3).filter(store)
        assert values(store.doms[2]) == [3]

    def test_out_of_bounds_pruned(self):
        store = Store(doms({1, 2}, {1, 2}, {1, 2, 3}), (0, 1))
        assert ElementOffsetConst([0, 1], 2, 1, 1).filter(store)
        assert values(store.doms[2]) == [1]  # 2 and 3 would run off the end

    def test_chain_anchors_force_the_start(self):
        # with cell 2 already known, the two chain anchors for number 3 leave
        # a single start cell
        model = build_model(Instance(2, 3), VariantConfig("direct", sym="d"))
        start = model.branch_order[-1]  # the chain starts of 1, 2, 3 end the order
        store = store_of(model)
        assert values(store.doms[start]) == [1, 2]
        assign(store, model.cells[1], 2)
        del store.trail[:], store.trail_bits[:]  # drop the wake events
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
        assert values(store.doms[start]) == [1]

    def test_view_matches_plain_store(self):
        # the plain store's filter was the scanning reference
        seen = compare_with_reference("element_offset_const", 606, reference_element_filter)
        # nearly every case is in contract; wipeouts and stray cell values
        # come up often, and so do cases without strays
        assert seen["checked"] >= 550 and seen["wipeout"] >= 100, seen
        assert 200 <= seen["stray"] <= 400, seen

    def test_targets_equal_the_per_index_build(self):
        # every offset that puts the array partly, wholly or not at all in
        # reach, offset >= len included, where no index has a target
        for length in range(1, 7):
            array = [10 + i for i in range(length)]
            for offset in range(length + 3):
                prop = ElementOffsetConst(array, 99, offset, 1)
                assert prop.targets == reference_targets(array, offset), (length, offset)

    def test_negative_offset_refused(self):
        # every built model looks forward from the index, so the filter has
        # no other path
        with pytest.raises(ValueError):
            ElementOffsetConst((0, 1, 2), 3, -1, 2)

    def test_view_covers_index_zero(self):
        # offset 1 shifts position 1, the only one holding 2, onto index 0,
        # which has no target
        cells = (0, 1, 2)
        domains = doms({2}, {1}, {1}, {0, 1, 2})
        prop = ElementOffsetConst(cells, 3, 1, 2)
        fast, ref = RecordingStore(domains, cells), RecordingStore(domains, cells)
        assert not prop.filter(fast) and not reference_element_filter(prop, ref)
        assert fast.log == ref.log == [(3, 0)]

    def test_check(self):
        prop = ElementOffsetConst([0, 1, 2], 3, 1, 3)
        assert prop.check([7, 3, 7, 1])  # cell at position 1+1 holds 3
        assert not prop.check([7, 7, 3, 1])
        assert not prop.check([7, 7, 3, 3])  # 3+1 runs off the end


class TestOccurrence:
    def test_saturated_value_removed_elsewhere(self):
        store = Store(doms({1}, {1}, {1, 2}, {1, 2}, {1, 3}, {1, 2, 3}), tuple(range(6)))
        assert Occurrence(list(range(6)), 1, 2).filter(store)
        for var in range(2, 6):
            assert 1 not in values(store.doms[var])

    def test_scarce_value_forced(self):
        store = Store(doms({1, 2}, {1, 3}, {2, 3}, {2, 3}, {2, 3}, {2, 3}), tuple(range(6)))
        assert Occurrence(list(range(6)), 1, 2).filter(store)
        assert values(store.doms[0]) == [1]
        assert values(store.doms[1]) == [1]

    def test_too_many_assigned_fails(self):
        store = Store(doms({1}, {1}, {1}, {1, 2}, {1, 2}, {1, 2}), tuple(range(6)))
        assert not Occurrence(list(range(6)), 1, 2).filter(store)

    def test_view_matches_plain_store(self):
        # the plain store's filter was the scanning reference
        seen = compare_with_reference("occurrence", 607, reference_occurrence_filter)
        assert seen["checked"] >= 550 and seen["failed"] >= 100, seen
        assert 200 <= seen["stray"] <= 400, seen

    def test_check(self):
        prop = Occurrence(list(range(6)), 1, 2)
        assert prop.check([2, 3, 1, 2, 1, 3])
        assert not prop.check([1, 3, 1, 2, 1, 3])


class TestInverseChannel:
    def build(self, slot_doms, seq_doms):
        prop = InverseChannel([[0, 1], [2, 3]], [4, 5, 6, 7])
        store = Store(doms(*slot_doms, *seq_doms), prop.seq)
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

    def test_slots_must_be_distinct_and_not_cells(self):
        with pytest.raises(ValueError):
            InverseChannel([[0, 1], [2, 0]], [4, 5, 6, 7])
        with pytest.raises(ValueError):
            InverseChannel([[0, 1], [2, 3]], [3, 5, 6, 7])

    def test_commits_match_reference_filter(self):
        # Same result and the same (var, mask) commits in the same order as
        # the full-rescan filter, out-of-range slot values included. A case
        # outside the filter's contract is drawn but not filtered.
        rng = random.Random(1808)
        checked = failed = stripped = 0
        for _ in range(600):
            k, n = rng.choice((2, 3)), rng.choice((2, 3, 4))
            domains, prop = random_channel_case(rng, k, n)
            if not in_contract(domains, prop):
                continue
            fast, ref = RecordingStore(domains, prop.seq), RecordingStore(domains, prop.seq)
            ok = prop.filter(fast)
            assert ok == reference_inverse_channel_filter(prop, ref)
            assert fast.log == ref.log
            checked += 1
            failed += not ok
            outside = ~((2 << k * n) - 2)
            stripped += any(domains[sv] & outside for row in prop.slots for sv in row)
        # the sample reaches both outcomes, with and without out-of-range slots
        assert checked >= 550
        assert 100 <= failed <= 500
        assert 200 <= stripped <= 400

    def test_empty_slot_is_not_assigned(self):
        # a slot whose domain is 0 before the call holds no position, so
        # rule (c) must not fix any cell from it; the reference skips it too
        domains = doms(set(), {1, 2, 3, 4}, {3}, {1, 2, 4}, {1, 2}, {1, 2}, {1, 2}, {1, 2})
        prop = InverseChannel([[0, 1], [2, 3]], [4, 5, 6, 7])
        fast, ref = RecordingStore(domains, prop.seq), RecordingStore(domains, prop.seq)
        assert prop.filter(fast) == reference_inverse_channel_filter(prop, ref)
        assert fast.log == ref.log
        assert values(fast.doms[6]) == [2]  # from slot 2 alone
        rng = random.Random(1809)
        checked = 0
        for _ in range(200):
            domains, prop = random_channel_case(rng, rng.choice((2, 3)), rng.choice((2, 3, 4)))
            domains[rng.choice([sv for row in prop.slots for sv in row])] = 0
            if not in_contract(domains, prop):
                continue
            checked += 1
            fast, ref = RecordingStore(domains, prop.seq), RecordingStore(domains, prop.seq)
            assert prop.filter(fast) == reference_inverse_channel_filter(prop, ref)
            assert fast.log == ref.log
        assert checked >= 180


    def test_view_matches_plain_store(self):
        # the plain store's filter was the scanning reference
        seen = compare_with_reference("inverse_channel", 608, reference_inverse_channel_filter)
        assert seen["checked"] >= 550 and seen["wipeout"] >= 100, seen
        assert 200 <= seen["stray"] <= 400, seen


class TestRandomizedProperties:
    # Seeds come from crc32 of the kind, not hash(), which differs from one
    # process to the next, so every run draws the same cases; each test adds
    # its own offset so the tests draw different ones. A case outside the
    # filter's contract is drawn but not checked; nearly all are checked.
    @pytest.mark.parametrize("kind", PROPAGATOR_KINDS)
    def test_soundness_sample(self, kind):
        rng = random.Random(zlib.crc32(kind.encode()))
        checked = 0
        for _ in range(150):
            domains, prop = random_case(rng, kind)
            checked += assert_filter_sound(domains, prop)
        assert checked >= 140

    @pytest.mark.parametrize("kind", PROPAGATOR_KINDS)
    def test_checker_agreement_sample(self, kind):
        rng = random.Random(zlib.crc32(kind.encode()) + 1)
        checked = 0
        for _ in range(300):
            domains, prop = random_case(rng, kind)
            checked += assert_checker_agreement(rng, domains, prop)
        assert checked >= 280

    @pytest.mark.parametrize("kind", PROPAGATOR_KINDS)
    def test_monotone_sample(self, kind):
        rng = random.Random(zlib.crc32(kind.encode()) + 2)
        checked = 0
        for _ in range(150):
            domains, prop = random_case(rng, kind)
            checked += assert_monotone(rng, domains, prop)
        assert checked >= 140
