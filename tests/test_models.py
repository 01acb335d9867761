from __future__ import annotations

import dataclasses
import itertools

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
    AllDifferent,
    ElementOffsetConst,
    EqOffset,
    InverseChannel,
    LessThan,
    Occurrence,
    SumLeq,
)

from util import every_variant, pos_sym_keeps, solution_sequences

# the variants of the base viewpoints with their own reflection rule
DIRECT = VariantConfig("direct", sym="d")
POSITIONAL = VariantConfig("positional", sym="p")


def kinds(model):
    counts = {}
    for p in model.propagators:
        counts[p.kind] = counts.get(p.kind, 0) + 1
    return counts


class TestInstance:
    def test_label_zero_padded(self):
        assert Instance(2, 6).label == "02_06"
        assert Instance(12, 3).label == "12_03"

    def test_seq_length(self):
        assert Instance(3, 9).seq_length == 27

    def test_bounds(self):
        with pytest.raises(ValueError):
            Instance(1, 5)
        with pytest.raises(ValueError):
            Instance(2, 0)


class TestVariantConfig:
    def test_base_models_reject_channel_fields(self):
        with pytest.raises(ValueError):
            VariantConfig("direct", branch="d", sym="d")
        with pytest.raises(ValueError):
            VariantConfig("positional", cons="p", sym="p")

    def test_sym_requires_matching_viewpoint(self):
        with pytest.raises(ValueError):
            VariantConfig("direct", sym="p")
        with pytest.raises(ValueError):
            VariantConfig("positional", sym="d")
        VariantConfig("channelled", branch="p", sym="d", cons="p")  # both present

    def test_channelled_requires_branch_and_cons(self):
        with pytest.raises(ValueError):
            VariantConfig("channelled", sym="d")


class TestBuildDirect:
    def test_2_3_structure(self):
        model = build_model(Instance(2, 3), DIRECT)
        assert len(model.cells) == 6 and model.num_vars == 9
        assert all(values(model.initial_domains[v]) == [1, 2, 3] for v in model.cells)
        assert model.branch_order[:6] == list(model.cells)
        first_domains = [values(model.initial_domains[v]) for v in model.branch_order[6:]]
        assert first_domains == [[1, 2, 3, 4], [1, 2, 3], [1, 2]]
        assert kinds(model) == {"element_offset_const": 6, "less_than": 1, "occurrence": 3}

    def test_element_anchors_step_through_the_chain(self):
        model = build_model(Instance(3, 4), VariantConfig("direct"))
        assert kinds(model) == {"element_offset_const": 12, "occurrence": 4}
        offsets = sorted(
            (p.value, p.offset) for p in model.propagators if isinstance(p, ElementOffsetConst)
        )
        assert offsets == sorted(
            (m, t * (m + 1)) for m in range(1, 5) for t in range(3)
        )

    def test_sym_off_drops_less_than(self):
        model = build_model(Instance(2, 3), VariantConfig("direct"))
        assert "less_than" not in kinds(model)

    def test_n1_with_sym_unsatisfiable(self):
        model = build_model(Instance(2, 1), DIRECT)
        solutions, stats = solve_all(model)
        assert solutions == []
        assert stats.nodes == 0  # refuted at the root

    def test_k_exceeding_n_fails_at_root(self):
        model = build_model(Instance(5, 2), DIRECT)
        solutions, stats = solve_all(model)
        assert solutions == []
        assert stats.nodes == 0

    def test_3_9_admits_the_known_arrangements(self):
        # searching this model at 3x9 is far too slow (its propagation is
        # weak by design), so validate semantically: every arrangement the
        # enumerator finds extends to a full assignment accepted by every
        # propagator, and reflected arrangements fail the sym constraint
        model = build_model(Instance(3, 9), DIRECT)
        assert len(model.cells) == 27
        first = model.branch_order[27:]  # the chain starts
        kept = enumerate_bruteforce(3, 9, "first-less-last")
        assert len(kept) == 3
        for arr in enumerate_bruteforce(3, 9, "none"):
            values = [0] * model.num_vars
            for var, value in zip(model.cells, arr):
                values[var] = value
            for m in range(1, 10):
                values[first[m - 1]] = arr.index(m) + 1
            accepted = all(p.check(values) for p in model.propagators)
            assert accepted == (arr in kept)


class TestBuildPositional:
    def test_2_3_structure(self):
        model = build_model(Instance(2, 3), POSITIONAL)
        flat = [v for row in model.pos_vars for v in row]
        assert len(flat) == 6
        assert all(values(model.initial_domains[v]) == [1, 2, 3, 4, 5, 6] for v in flat)
        assert kinds(model) == {"all_different": 1, "eq_offset": 3, "sum_leq": 1}
        gaps = sorted(p.c for p in model.propagators if isinstance(p, EqOffset))
        assert gaps == [2, 3, 4]
        bound = next(p for p in model.propagators if isinstance(p, SumLeq))
        assert bound.c == 6
        assert model.branch_order == flat

    def test_root_propagation_prunes_late_slots(self):
        model = build_model(Instance(2, 4), POSITIONAL)
        store = Store(model.initial_domains)
        watchers = build_watchers(model.initial_domains, model.propagators, model.cells)
        assert propagate_to_fixpoint(
            store, model.propagators, watchers, range(len(model.propagators))
        ) == FIXPOINT
        assert values(store.doms[model.pos_vars[3][0]]) == [1, 2, 3]

    def test_chain_spilling_over_fails_at_root(self):
        model = build_model(Instance(5, 2), POSITIONAL)
        solutions, stats = solve_all(model)
        assert solutions == []
        assert stats.nodes == 0


class TestBuildChannelled:
    def test_2_3_structure_cons_both(self):
        cfg = VariantConfig("channelled", branch="d", sym="d", cons="both")
        model = build_model(Instance(2, 3), cfg)
        assert len(model.cells) == 6
        assert len([v for row in model.pos_vars for v in row]) == 6
        first_domains = [values(model.initial_domains[v]) for v in model.branch_order[12:]]
        assert first_domains == [[1, 2, 3, 4], [1, 2, 3], [1, 2]]
        got = kinds(model)
        # 6 channel cells + 6 chain anchors, orderings + the sym constraint
        assert got["element_offset_const"] == 12
        assert got["inverse_channel"] == 1
        assert got["less_than"] == 3 + 1
        assert got["occurrence"] == 3
        assert got["all_different"] == 1
        assert got["eq_offset"] == 3

    def test_cons_p_drops_chain_starts(self):
        cfg = VariantConfig("channelled", branch="d", sym="p", cons="p")
        model = build_model(Instance(2, 3), cfg)
        assert model.num_vars == 12  # cells and slots only
        got = kinds(model)
        assert got["element_offset_const"] == 6  # channel only
        assert "occurrence" not in got
        assert got["all_different"] == 1

    def test_cons_d_drops_positional_side(self):
        cfg = VariantConfig("channelled", branch="d", sym="d", cons="d")
        model = build_model(Instance(2, 3), cfg)
        assert model.num_vars == 15  # cells, slots and chain starts
        got = kinds(model)
        assert "all_different" not in got
        assert "eq_offset" not in got
        assert got["less_than"] == 3 + 1  # orderings always posted

    def test_branch_order_leads_with_branch_viewpoint(self):
        flat = lambda m: [v for row in m.pos_vars for v in row]
        cfg_d = VariantConfig("channelled", branch="d", sym="d", cons="both")
        m = build_model(Instance(2, 3), cfg_d)
        assert m.branch_order[:6] == list(m.cells)
        assert m.branch_order[-3:] == [12, 13, 14]  # the chain starts, built last
        cfg_p = VariantConfig("channelled", branch="p", sym="p", cons="both")
        m = build_model(Instance(2, 3), cfg_p)
        assert m.branch_order[: 6] == flat(m)

    def test_cell_propagators_share_the_channel_tuple(self):
        # the search store's view covers `model.cells`, and every element
        # link, anchor, occurrence and channel of every variant keeps that
        # same tuple, not a copy of its own; a positional model has no cells
        for cfg in every_variant():
            model = build_model(Instance(3, 4), cfg)
            validate_model(model)
            if cfg.model == "positional":
                assert model.cells == ()
                continue
            assert len(model.cells) == 12
            elements = [p for p in model.propagators if isinstance(p, ElementOffsetConst)]
            occurrences = [p for p in model.propagators if isinstance(p, Occurrence)]
            channels = [p for p in model.propagators if isinstance(p, InverseChannel)]
            assert len(channels) == (cfg.model == "channelled")
            assert all(p.array is model.cells for p in elements), cfg
            assert all(p.scope is model.cells for p in occurrences), cfg
            assert all(p.seq is model.cells for p in channels), cfg
            if cfg.model == "channelled":
                assert len(elements) == (12 if cfg.cons == "p" else 24)  # links, then anchors
                assert len(occurrences) == (4 if cfg.cons != "p" else 0)
            assert Store(model.initial_domains, model.cells).cells is model.cells

    def test_cell_propagators_range_over_the_cells(self):
        # a base viewpoint's store keeps the view too: over the direct
        # model's cells, whose anchors and occurrences all keep one tuple
        # of exactly those cells in position order, and empty for a
        # positional model
        for cfg in (DIRECT, POSITIONAL):
            model = build_model(Instance(3, 4), cfg)
            validate_model(model)
            cell_props = [
                p for p in model.propagators
                if isinstance(p, (ElementOffsetConst, Occurrence, InverseChannel))
            ]
            if cfg.model == "positional":
                assert model.cells == () and not cell_props
                store = Store(model.initial_domains)
                assert store.cells == () and store.can == [] and store.fixed == 0
                continue
            elements = [p for p in cell_props if isinstance(p, ElementOffsetConst)]
            occurrences = [p for p in cell_props if isinstance(p, Occurrence)]
            assert len(elements) == 12 and len(occurrences) == 4
            assert len(cell_props) == len(elements) + len(occurrences)  # no channel
            assert all(p.array is model.cells for p in elements)
            assert all(p.scope is model.cells for p in occurrences)

    def test_solution_counts(self):
        cfg = VariantConfig("channelled", branch="d", sym="d", cons="both")
        assert len(solution_sequences(build_model(Instance(2, 3), cfg))) == 1
        cfg_p = VariantConfig("channelled", branch="p", sym="p", cons="p")
        assert len(solution_sequences(build_model(Instance(2, 3), cfg_p))) == 1
        for branch, cons in itertools.product("dp", ("both", "d", "p")):
            cfg = VariantConfig("channelled", branch=branch, sym="d", cons=cons)
            assert len(solution_sequences(build_model(Instance(2, 7), cfg))) == 26


class TestCrossViewpointAgreement:
    def test_viewpoint_agreement_spot_instances(self):
        # direct vs channelled share the cell-side reflection rule; the
        # positional filter keeps its own representative per pair; the bare
        # direct build is only run where its weak propagation stays cheap
        for k, n in [(2, 6), (3, 6), (4, 7), (2, 7)]:
            reference = frozenset(enumerate_bruteforce(k, n, "first-less-last"))
            if k < 4:
                assert solution_sequences(build_model(Instance(k, n), DIRECT)) == reference
            positional = solution_sequences(build_model(Instance(k, n), POSITIONAL))
            everything = enumerate_bruteforce(k, n, "none")
            assert positional == frozenset(a for a in everything if pos_sym_keeps(a))
            for branch in "dp":
                cfg = VariantConfig("channelled", branch=branch, sym="d", cons="both")
                assert solution_sequences(build_model(Instance(k, n), cfg)) == reference
                cfg = VariantConfig("channelled", branch=branch, sym="p", cons="both")
                assert solution_sequences(build_model(Instance(k, n), cfg)) == positional

    def test_channel_tightness_bijection(self):
        # each enumerated cell assignment pairs with exactly one slot
        # assignment and vice versa
        cfg = VariantConfig("channelled", branch="d", sym="d", cons="both")
        model = build_model(Instance(2, 6), cfg)
        solutions, _ = solve_all(model)
        flat = [v for row in model.pos_vars for v in row]
        seq_part = [tuple(s[v] for v in model.cells) for s in solutions]
        pos_part = [tuple(s[v] for v in flat) for s in solutions]
        assert len(set(seq_part)) == len(solutions)
        assert len(set(pos_part)) == len(solutions)
        assert len(set(zip(seq_part, pos_part))) == len(solutions)

    def test_cons_invariance_counts(self):
        for k, n in [(2, 6), (3, 7), (2, 7)]:
            counts = set()
            for cons in ("both", "d", "p"):
                cfg = VariantConfig("channelled", branch="d", sym="d", cons=cons)
                counts.add(len(solution_sequences(build_model(Instance(k, n), cfg))))
            assert len(counts) == 1

    def test_reflection_partition(self):
        for k, n in [(2, 3), (2, 4), (2, 7)]:
            with_sym = solution_sequences(build_model(Instance(k, n), DIRECT))
            without = solution_sequences(build_model(Instance(k, n), VariantConfig("direct")))
            mirrored = frozenset(tuple(reversed(s)) for s in with_sym)
            assert without == with_sym | mirrored
            assert not with_sym & mirrored

    def test_implied_constraints_are_redundant(self):
        # the occurrence constraints only prune: the direct model without
        # them has the same solutions (none at all for k = 3 up to n = 6)
        for k, n in itertools.product((2, 3), range(2, 7)):
            model = build_model(Instance(k, n), DIRECT)
            bare = dataclasses.replace(model, propagators=[
                p for p in model.propagators if not isinstance(p, Occurrence)])
            assert len(bare.propagators) == len(model.propagators) - n
            assert solution_sequences(model) == solution_sequences(bare)


def test_build_model_dispatch():
    inst = Instance(2, 3)
    assert build_model(inst, VariantConfig("direct", sym="d")).cells
    assert build_model(inst, VariantConfig("positional", sym="p")).pos_vars is not None
    cfg = VariantConfig("channelled", branch="d", sym="none", cons="both")
    model = build_model(inst, cfg)
    assert model.cells and model.pos_vars is not None


def test_sequence_of_derives_from_slots():
    model = build_model(Instance(2, 3), POSITIONAL)
    solutions, _ = solve_all(model)
    assert model.sequence_of(solutions[0]) == (3, 1, 2, 1, 3, 2)


def test_cells_share_one_wake_table():
    # every value condition of a built model ranges over the whole of
    # its cells, so all cells hold one removal table and one assignment
    # table: the wake tables are built once, not per cell
    assign_tables = 0
    for config in every_variant():
        if config.model == "positional" or config.heuristic is not HeuristicKind.STATIC:
            continue
        model = build_model(Instance(3, 4), config)
        watchers = build_watchers(model.initial_domains, model.propagators, model.cells)
        assert watchers.value_of[model.cells[0]] is not None
        for tables in (watchers.value_of, watchers.assign_value_of):
            first = tables[model.cells[0]]
            assert all(tables[c] is first for c in model.cells), config
        assign_tables += watchers.assign_value_of[model.cells[0]] is not None
    assert assign_tables  # the Occurrence constraints posted with the direct constraints
