from __future__ import annotations

import random

import pytest

from langford.engine import Store, solve_all
from langford.heuristics import HeuristicKind, select_variable, wdeg_scores
from langford.models import Instance, VariantConfig, build_channelled, build_model, build_positional
from langford.propagators import LessThan

from util import TinyModel, doms


def test_static_follows_branching_order():
    model = TinyModel(doms({1, 2}, {1, 2}, {1, 2}), [], branch_order=[2, 0, 1])
    store = Store(model.initial_domains)
    assert select_variable(store, model, HeuristicKind.STATIC) == 2
    store.assign(2, 1)
    assert select_variable(store, model, HeuristicKind.STATIC) == 0


def test_all_assigned_returns_none():
    model = TinyModel(doms({3}, {4}), [])
    store = Store(model.initial_domains)
    for kind in HeuristicKind:
        assert select_variable(store, model, kind) is None


def test_sdf_tie_break_prefers_earlier_position():
    model = TinyModel(doms({1, 2, 3}, {1, 2}, {2, 3}), [])
    store = Store(model.initial_domains)
    assert select_variable(store, model, HeuristicKind.SDF) == 1


def test_never_selects_assigned():
    rng = random.Random(11)
    model = build_positional(Instance(2, 4))
    for _ in range(50):
        store = Store(model.initial_domains)
        for var in rng.sample(range(model.num_vars), rng.randint(0, model.num_vars)):
            store.assign(var, min(store.domain(var)))
        for kind in HeuristicKind:
            picked = select_variable(store, model, kind)
            if picked is not None:
                assert not store.is_assigned(picked)


def test_wdeg_attachment_structure_at_root():
    # with all weights 1 wdeg reduces to degree over still-active propagators
    model = build_positional(Instance(2, 3))
    store = Store(model.initial_domains)
    scores = wdeg_scores(store, model)
    first_slot = model.pos_vars[0][0]
    last_slot = model.pos_vars[2][1]
    # first slot of number 1: all_different + its gap + the reflection bound
    assert scores[first_slot] == 3
    # second slot of number 3: all_different + its gap only
    assert scores[last_slot] == 2
    assert select_variable(store, model, HeuristicKind.WDEG) == first_slot


def test_wdeg_ignores_propagators_with_one_unassigned():
    model = TinyModel(doms({1, 2}, {1, 2, 3}), [LessThan(0, 1)])
    store = Store(model.initial_domains)
    assert wdeg_scores(store, model) == [1, 1]
    store.assign(0, 1)
    assert wdeg_scores(store, model) == [0, 0]


def test_static_on_channelled_branch_d_first_picks_sequence_cells():
    cfg = VariantConfig("channelled", branch="d", sym="d", cons="both")
    model = build_channelled(Instance(2, 4), cfg)
    store = Store(model.initial_domains)
    picked = select_variable(store, model, HeuristicKind.STATIC)
    assert picked in model.seq_vars
    cfg_p = VariantConfig("channelled", branch="p", sym="p", cons="both")
    model_p = build_channelled(Instance(2, 4), cfg_p)
    store_p = Store(model_p.initial_domains)
    flat = [v for row in model_p.pos_vars for v in row]
    assert select_variable(store_p, model_p, HeuristicKind.STATIC) in flat


def test_weight_scaling_leaves_selection_unchanged():
    rng = random.Random(23)
    model = build_positional(Instance(2, 4))
    for scale in (2, 7, 31):
        for _ in range(30):
            store = Store(model.initial_domains)
            for var in rng.sample(range(model.num_vars), rng.randint(0, 6)):
                store.assign(var, min(store.domain(var)))
            for p in model.propagators:
                p.weight = rng.randint(1, 9)
            base_wdeg = select_variable(store, model, HeuristicKind.WDEG)
            base_dow = select_variable(store, model, HeuristicKind.DOM_OVER_WDEG)
            originals = [p.weight for p in model.propagators]
            for p in model.propagators:
                p.weight *= scale
            assert select_variable(store, model, HeuristicKind.WDEG) == base_wdeg
            assert select_variable(store, model, HeuristicKind.DOM_OVER_WDEG) == base_dow
            for p, w in zip(model.propagators, originals):
                p.weight = w


def test_dom_over_wdeg_uses_exact_ratio_comparison():
    # sizes 2/3 vs 3/4: 2*4 > 3*3 so the second variable wins
    model = TinyModel(doms({1, 2}, {1, 2, 3}), [])
    store = Store(model.initial_domains)
    scores = {0: 3, 1: 4}

    class Scored:
        def __init__(self, inner):
            self.initial_domains = inner.initial_domains
            self.branch_order = inner.branch_order
            self.propagators = []

    scored = Scored(model)
    # craft propagator stubs reproducing the target scores
    class Stub:
        def __init__(self, scope, weight):
            self.scope = scope
            self.weight = weight

    scored.propagators = [Stub((0, 1), 3), Stub((1, 0), 1)]
    # scores: var0 = 3+1, var1 = 3+1 -> tie on score, sizes 2 vs 3
    assert select_variable(store, scored, HeuristicKind.DOM_OVER_WDEG) == 0


def test_root_selection_depends_only_on_structure():
    # two fresh builds of the same variant agree on every root selection
    cfg = VariantConfig("channelled", branch="p", sym="p", cons="both")
    one = build_channelled(Instance(2, 5), cfg)
    two = build_channelled(Instance(2, 5), cfg)
    for kind in HeuristicKind:
        store_one = Store(one.initial_domains)
        store_two = Store(two.initial_domains)
        assert select_variable(store_one, one, kind) == select_variable(store_two, two, kind)


# (k, n, model, branch, sym, cons, heuristic) -> (nodes, failures, solutions),
# copied from benchmarks/pinned.json. wdeg and dom/wdeg counts move whenever
# a filter's commit order or a model's propagator set changes.
PINNED_COUNTS = {
    (2, 6, "channelled", "p", "p", "p", "domoverwdeg"): (120, 61, 0),
    (3, 6, "channelled", "p", "p", "p", "domoverwdeg"): (58, 30, 0),
    (4, 6, "channelled", "p", "p", "p", "domoverwdeg"): (28, 15, 0),
    (3, 6, "channelled", "d", "p", "both", "sdf"): (42, 22, 0),
    (3, 8, "channelled", "d", "d", "both", "static"): (154, 78, 0),
    (3, 6, "positional", None, "p", None, "wdeg"): (86, 44, 0),
    (2, 6, "positional", None, "p", None, "sdf"): (124, 63, 0),
    (2, 6, "direct", None, "d", None, "domoverwdeg"): (2804, 1403, 0),
}


@pytest.mark.parametrize("cell", PINNED_COUNTS, ids=lambda c: ",".join(str(f or "") for f in c))
def test_counts_pinned_per_heuristic(cell):
    k, n, model, branch, sym, cons, heuristic = cell
    config = VariantConfig(model, branch=branch, sym=sym, cons=cons, heuristic=heuristic)
    built = build_model(Instance(k, n), config)
    solutions, stats = solve_all(built, config.heuristic)
    assert not stats.timed_out
    assert (stats.nodes, stats.failures, len(solutions)) == PINNED_COUNTS[cell]
