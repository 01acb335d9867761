from __future__ import annotations

import random

import pytest

from langford import engine
from langford.engine import solve_all, validate_model
from langford.heuristics import HeuristicKind, WdegScorer, select_variable, wdeg_scores
from langford.models import Instance, VariantConfig, build_model
from langford.propagators import EqOffset, LessThan

from util import TinyModel, assign, doms, is_assigned, min_value, reference_select, store_of


def test_static_follows_branching_order():
    model = TinyModel(doms({1, 2}, {1, 2}, {1, 2}), [], branch_order=[2, 0, 1])
    store = store_of(model)
    assert select_variable(store, model, HeuristicKind.STATIC) == 2
    assign(store, 2, 1)
    assert select_variable(store, model, HeuristicKind.STATIC) == 0


def test_all_assigned_returns_none():
    model = TinyModel(doms({3}, {4}), [])
    store = store_of(model)
    for kind in HeuristicKind:
        assert select_variable(store, model, kind, WdegScorer(store, model)) is None


def test_sdf_tie_break_prefers_earlier_position():
    model = TinyModel(doms({1, 2, 3}, {1, 2}, {2, 3}), [])
    store = store_of(model)
    assert select_variable(store, model, HeuristicKind.SDF) == 1


def test_never_selects_assigned():
    rng = random.Random(11)
    model = build_model(Instance(2, 4), VariantConfig("positional", sym="p"))
    weights = [1] * len(model.propagators)
    for _ in range(50):
        store = store_of(model)
        for var in rng.sample(range(model.num_vars), rng.randint(0, model.num_vars)):
            assign(store, var, min_value(store, var))
        scorer = WdegScorer(store, model, weights)
        for kind in HeuristicKind:
            picked = select_variable(store, model, kind, scorer)
            if picked is not None:
                assert not is_assigned(store, picked)


def test_wdeg_attachment_structure_at_root():
    # with all weights 1 wdeg reduces to degree over still-active propagators
    model = build_model(Instance(2, 3), VariantConfig("positional", sym="p"))
    store = store_of(model)
    weights = [1] * len(model.propagators)
    scores = wdeg_scores(store, model, weights)
    first_slot = model.pos_vars[0][0]
    last_slot = model.pos_vars[2][1]
    # first slot of number 1: all_different + its gap + the reflection bound
    assert scores[first_slot] == 3
    # second slot of number 3: all_different + its gap only
    assert scores[last_slot] == 2
    assert select_variable(store, model, HeuristicKind.WDEG, WdegScorer(store, model, weights)) == first_slot


def test_wdeg_ignores_propagators_with_one_unassigned():
    model = TinyModel(doms({1, 2}, {1, 2, 3}), [LessThan(0, 1)])
    store = store_of(model)
    assert wdeg_scores(store, model, [1]) == [1, 1]
    assign(store, 0, 1)
    assert wdeg_scores(store, model, [1]) == [0, 0]


def test_static_on_channelled_branch_d_first_picks_sequence_cells():
    cfg = VariantConfig("channelled", branch="d", sym="d", cons="both")
    model = build_model(Instance(2, 4), cfg)
    store = store_of(model)
    picked = select_variable(store, model, HeuristicKind.STATIC)
    assert picked in model.cells
    cfg_p = VariantConfig("channelled", branch="p", sym="p", cons="both")
    model_p = build_model(Instance(2, 4), cfg_p)
    store_p = store_of(model_p)
    flat = [v for row in model_p.pos_vars for v in row]
    assert select_variable(store_p, model_p, HeuristicKind.STATIC) in flat


def test_weight_scaling_leaves_selection_unchanged():
    rng = random.Random(23)
    model = build_model(Instance(2, 4), VariantConfig("positional", sym="p"))
    for scale in (2, 7, 31):
        for _ in range(30):
            store = store_of(model)
            for var in rng.sample(range(model.num_vars), rng.randint(0, 6)):
                assign(store, var, min_value(store, var))
            weights = [rng.randint(1, 9) for _ in model.propagators]
            scaled = [w * scale for w in weights]
            for kind in (HeuristicKind.WDEG, HeuristicKind.DOM_OVER_WDEG):
                assert select_variable(store, model, kind, WdegScorer(store, model, scaled)) == (
                    select_variable(store, model, kind, WdegScorer(store, model, weights))
                )


def test_dom_over_wdeg_uses_exact_ratio_comparison():
    # Both open variables have size 2. var0 scores w = 2**60 from the first
    # LessThan, var1 scores w + 1 from both, var2 scores 1. So var1's ratio
    # 2/(w + 1) is the lowest, but as floats 2/(w + 1) == 2/w and w + 1 == w,
    # so only the exact cross-multiplication picks var1 over var0.
    w = 2**60
    assert 2 / (w + 1) == 2 / w
    model = TinyModel(doms({1, 2}, {1, 2}, {1, 2}), [LessThan(0, 1), LessThan(1, 2)])
    store = store_of(model)
    assert wdeg_scores(store, model, [w, 1]) == [w, w + 1, 1]
    scorer = WdegScorer(store, model, [w, 1])
    assert select_variable(store, model, HeuristicKind.DOM_OVER_WDEG, scorer) == 1


def test_root_selection_depends_only_on_structure():
    # two fresh builds of the same variant agree on every root selection
    cfg = VariantConfig("channelled", branch="p", sym="p", cons="both")
    one = build_model(Instance(2, 5), cfg)
    two = build_model(Instance(2, 5), cfg)
    for kind in HeuristicKind:
        store_one = store_of(one)
        store_two = store_of(two)
        assert select_variable(store_one, one, kind, WdegScorer(store_one, one)) == (
            select_variable(store_two, two, kind, WdegScorer(store_two, two))
        )


def assert_scores_match(scorer, store, model):
    reference = wdeg_scores(store, model, scorer.weights)
    for v, d in enumerate(store.doms):
        if d & (d - 1):
            assert scorer.scores[v] == reference[v], f"var {v}"


WDEG_KINDS = (HeuristicKind.WDEG, HeuristicKind.DOM_OVER_WDEG)
SCORED_VARIANTS = {
    "direct": [dict(sym=sym) for sym in ("d", "none")],
    "positional": [dict(sym=sym) for sym in ("p", "none")],
    "channelled": [
        dict(branch=branch, sym=sym, cons=cons)
        for branch in ("d", "p")
        for sym in ("d", "p", "none")
        for cons in ("both", "d", "p")
    ],
}


def check_every_selection(monkeypatch) -> list:
    """Make every selection of a search check itself against the reference
    (the scores that the full walk of wdeg_scores gives, the open list,
    and the pick of ranking the whole branching order), and log its pick
    in the returned list."""
    select = engine.select_variable
    selections = []

    def checking(store, model, heuristic, scorer=None):
        reference = reference_select(store, model, heuristic, scorer.weights)
        picked = select(store, model, heuristic, scorer)
        assert_scores_match(scorer, store, model)
        assert scorer.open == [v for v in model.branch_order if not is_assigned(store, v)]
        assert picked == reference
        selections.append(picked)
        return picked

    monkeypatch.setattr(engine, "select_variable", checking)
    return selections


@pytest.mark.parametrize("kind", WDEG_KINDS, ids=lambda kind: kind.value)
@pytest.mark.parametrize("model_kind", SCORED_VARIANTS)
def test_scorer_matches_reference_at_every_selection(monkeypatch, model_kind, kind):
    # Every selection of a search, failures and undos included, sees the
    # scores that the full walk of wdeg_scores gives, and picks what the
    # ranking of the whole branching order picks.
    selections = check_every_selection(monkeypatch)
    searches = failures = 0
    for variant in SCORED_VARIANTS[model_kind]:
        config = VariantConfig(model_kind, heuristic=kind, **variant)
        for k in (2, 3, 4):
            for n in range(2, 7):
                _, stats = solve_all(build_model(Instance(k, n), config), node_limit=500)
                searches += 1
                failures += stats.failures
    assert len(selections) > searches and failures > 0


def test_partial_branch_order_is_refused():
    # A leaf is where every variable of the branching order is assigned,
    # so a variable outside the order could still be open there, and its
    # solution would read it. A model must order every variable once.
    for order in ([0], [0, 0], [0, 1, 1], [1, 2]):
        model = TinyModel(doms({1, 2}, {1, 2}, {1, 2}), [LessThan(0, 1)], branch_order=order)
        with pytest.raises(ValueError, match="not a permutation"):
            validate_model(model)
    with pytest.raises(ValueError, match="not a permutation"):
        validate_model(TinyModel(doms({1, 2}, {1, 2}), [], branch_order=[0]))
    validate_model(TinyModel(doms({1, 2}, {1, 2}, {1, 2}), [], branch_order=[2, 0, 1]))


@pytest.mark.parametrize("kind", WDEG_KINDS, ids=lambda kind: kind.value)
def test_search_refuses_a_partial_branch_order(monkeypatch, kind):
    # var 0 is outside the branching order and equals var 1, so only
    # propagation would assign it; the search refuses the model before it
    # makes any selection
    model = TinyModel(
        doms({1, 2, 3}, {1, 2, 3}, {1, 2, 3}),
        [LessThan(0, 2), LessThan(1, 2), EqOffset(0, 1, 0)],
        branch_order=[1, 2],
    )
    selections = check_every_selection(monkeypatch)
    with pytest.raises(ValueError, match="not a permutation"):
        solve_all(model, kind)
    assert selections == []


def test_scorer_bump_below_two_unassigned_then_undo():
    # A bump of a propagator with one unassigned variable adds to its
    # weight but to no score; once an undo frees its other variable, the
    # bumped weight counts again.
    model = TinyModel(doms({1, 2}, {1, 2}, {1, 2}), [LessThan(0, 1), LessThan(1, 2)])
    store = store_of(model)
    scorer = WdegScorer(store, model)
    assert scorer.sync() == [1, 2, 1]
    store.push_mark()
    assign(store, 0, 1)
    store.push_mark()
    assign(store, 2, 2)
    scorer.sync()
    assert scorer.unassigned == [1, 1]
    scorer.bump(0)
    scorer.bump(0)
    assert scorer.weights == [3, 1]
    assert_scores_match(scorer, store, model)
    store.undo_to_mark()
    scorer.undo()
    assert scorer.sync()[1] == 1  # LessThan(1, 2) counts again, LessThan(0, 1) not yet
    assert_scores_match(scorer, store, model)
    store.undo_to_mark()
    scorer.undo()
    assert scorer.sync() == [3, 4, 1]
    assert scorer.scores == wdeg_scores(store, model, [3, 1])


def test_scorer_undo_of_several_levels_at_once():
    model = build_model(Instance(2, 4), VariantConfig("positional", sym="p"))
    store = store_of(model)
    scorer = WdegScorer(store, model)
    scorer.sync()
    for var in model.branch_order[:4]:
        store.push_mark()
        assign(store, var, min_value(store, var))
        scorer.bump(len(model.propagators) - 1)
        scorer.sync()
        assert_scores_match(scorer, store, model)
    for _ in range(3):
        store.undo_to_mark()
    scorer.undo()
    scorer.sync()
    assert_scores_match(scorer, store, model)


# (k, n, model, branch, sym, cons, heuristic) -> (nodes, failures, solutions),
# copied from benchmarks/pinned.json. wdeg and dom/wdeg counts move whenever
# a filter's commit order or a model's propagator set or order changes.
PINNED_COUNTS = {
    (2, 6, "channelled", "p", "p", "p", "domoverwdeg"): (120, 61, 0),
    (3, 6, "channelled", "p", "p", "p", "domoverwdeg"): (58, 30, 0),
    (4, 6, "channelled", "p", "p", "p", "domoverwdeg"): (28, 15, 0),
    (3, 6, "channelled", "d", "p", "both", "sdf"): (42, 22, 0),
    (3, 8, "channelled", "d", "d", "both", "static"): (154, 78, 0),
    (3, 6, "positional", None, "p", None, "wdeg"): (86, 44, 0),
    (2, 6, "positional", None, "p", None, "sdf"): (124, 63, 0),
    (2, 6, "direct", None, "d", None, "domoverwdeg"): (2804, 1403, 0),
    (2, 8, "positional", None, "p", None, "domoverwdeg"): (2064, 883, 150),
    (3, 6, "direct", None, "d", None, "domoverwdeg"): (4632, 2317, 0),
    (4, 6, "direct", None, "d", None, "domoverwdeg"): (3374, 1688, 0),
    # larger than any wdeg or dom/wdeg cell of the benchmark
    (2, 7, "direct", None, "d", None, "domoverwdeg"): (31978, 15964, 26),
    (2, 8, "channelled", "p", "p", "p", "domoverwdeg"): (1394, 548, 150),
    (3, 9, "channelled", "d", "d", "both", "wdeg"): (474, 235, 3),
    (2, 8, "positional", None, "p", None, "wdeg"): (4340, 2021, 150),
}


@pytest.mark.parametrize("cell", PINNED_COUNTS, ids=lambda c: ",".join(str(f or "") for f in c))
def test_counts_pinned_per_heuristic(cell):
    k, n, model, branch, sym, cons, heuristic = cell
    config = VariantConfig(model, branch=branch, sym=sym, cons=cons, heuristic=heuristic)
    built = build_model(Instance(k, n), config)
    solutions, stats = solve_all(built)  # the heuristic comes from built.config
    assert not stats.timed_out
    assert (stats.nodes, stats.failures, len(solutions)) == PINNED_COUNTS[cell]
