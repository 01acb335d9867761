from __future__ import annotations

import itertools

import pytest

from langford.engine import solve_all, values
from langford.models import Instance, VariantConfig, build_model
from langford.oracle import enumerate_bruteforce

from allsat import Cnf, allsat_tiny, decode_model, encode
from util import TinyModel, doms


def decoded_sequences(model, cnf, result):
    out = set()
    for lits in result.models:
        assignment = decode_model(cnf, lits)
        values = [assignment[v] for v in range(model.num_vars)]
        out.add(model.sequence_of(values))
    return out


class TestEncode:
    def test_positional_2_3_literal_count(self):
        cnf = encode(build_model(Instance(2, 3), VariantConfig("positional", sym="p")))
        assert cnf.num_csp_lits == 36  # 6 slot variables x 6 positions
        assert cnf.num_vars == 36  # no counting circuit needed

    def test_singleton_domain_yields_unit_clause(self):
        # at 2x2 the chain of 2s only fits one start cell
        model = build_model(Instance(2, 2), VariantConfig("direct", implied=False))
        var = model.first_occ[1]
        assert values(model.initial_domains[var]) == [1]
        cnf = encode(model)
        unit = cnf.lit_of[(var, 1)]
        assert [unit] in cnf.clauses

    def test_every_initial_value_mapped(self):
        model = build_model(Instance(2, 3), VariantConfig("direct", sym="d"))
        cnf = encode(model)
        for var, dom in enumerate(model.initial_domains):
            for value in values(dom):
                assert (var, value) in cnf.lit_of
        assert len(cnf.lit_of) == cnf.num_csp_lits

    def test_exactly_one_per_variable_in_every_model(self):
        model = build_model(Instance(2, 3), VariantConfig("positional"))
        cnf = encode(model)
        result = allsat_tiny(cnf, model)
        for lits in result.models:
            assignment = decode_model(cnf, lits)  # raises on violations
            assert len(assignment) == model.num_vars

    def test_occurrence_circuit_counts_exactly(self):
        # one variable per cell over {1,2}, exactly two 1s among four cells
        from langford.propagators import Occurrence

        model = TinyModel(doms(*[{1, 2}] * 4), [Occurrence([0, 1, 2, 3], 1, 2)])
        cnf = encode(model)
        result = allsat_tiny(cnf, model)
        expected = {
            combo
            for combo in itertools.product((1, 2), repeat=4)
            if combo.count(1) == 2
        }
        got = set()
        for lits in result.models:
            assignment = decode_model(cnf, lits)
            got.add(tuple(assignment[v] for v in range(4)))
        assert got == expected


class TestAllSat:
    def test_unsatisfiable(self):
        cnf = Cnf(
            num_vars=1,
            clauses=[[1], [-1]],
            lit_of={(0, 1): 1},
            csp_of=[None, (0, 1)],
            num_csp_lits=1,
        )
        result = allsat_tiny(cnf)
        assert result.models == []
        assert not result.truncated

    def test_positional_2_3_with_and_without_sym(self):
        with_sym = build_model(Instance(2, 3), VariantConfig("positional", sym="p"))
        without = build_model(Instance(2, 3), VariantConfig("positional"))
        with_sym = allsat_tiny(encode(with_sym), with_sym)
        without = allsat_tiny(encode(without), without)
        assert len(with_sym) == 1
        assert len(without) == 2

    def test_limit_truncates(self):
        model = build_model(Instance(2, 3), VariantConfig("positional"))
        result = allsat_tiny(encode(model), model, limit=1)
        assert len(result.models) == 1
        assert result.truncated

    def test_guard(self):
        fits = build_model(Instance(2, 7), VariantConfig("positional", sym="p"))  # 196 variables
        assert len(allsat_tiny(encode(fits), fits, limit=1).models) == 1
        beyond = build_model(Instance(2, 8), VariantConfig("positional", sym="p"))  # 256 variables
        with pytest.raises(ValueError):
            allsat_tiny(encode(beyond), beyond)
        assert len(allsat_tiny(encode(beyond), beyond, limit=1, max_vars=300).models) == 1

    def test_blocking_prevents_duplicate_projections(self):
        model = build_model(Instance(2, 3), VariantConfig("direct"))
        cnf = encode(model)  # counting circuit adds auxiliaries
        result = allsat_tiny(cnf, model, max_vars=500)
        assert len(set(result.models)) == len(result.models) == 2


class TestSoundness:
    def test_exhaustive_pairing_positional_2_3(self):
        # every total assignment satisfies all checkers iff its boolean
        # image satisfies the encoding (no circuit variables here)
        model = build_model(Instance(2, 3), VariantConfig("positional", sym="p"))
        cnf = encode(model)
        sat_images = set(allsat_tiny(cnf, model).models)
        flat = list(range(model.num_vars))
        hits = 0
        for combo in itertools.product(range(1, 7), repeat=6):
            values = list(combo)
            ok = all(p.check(values) for p in model.propagators)
            image = tuple(
                sorted(cnf.lit_of[(v, values[v])] for v in flat)
            )
            assert (image in sat_images) == ok
            hits += ok
        assert hits == len(sat_images) == 1

    def test_decoded_models_pass_checkers(self):
        for sym in ("d", "none"):
            model = build_model(Instance(2, 4), VariantConfig("direct", sym=sym))
            cnf = encode(model)
            result = allsat_tiny(cnf, model, max_vars=1000)
            engine_solutions, _ = solve_all(model)
            assert len(result.models) == len(engine_solutions)
            for lits in result.models:
                assignment = decode_model(cnf, lits)
                values = [assignment[v] for v in range(model.num_vars)]
                assert all(p.check(values) for p in model.propagators)

    def test_channelled_counts_match_engine_small(self):
        cfg = VariantConfig("channelled", branch="d", sym="p", cons="p")
        model = build_model(Instance(2, 4), cfg)
        cnf = encode(model)
        result = allsat_tiny(cnf, model, max_vars=1000)
        engine_solutions, _ = solve_all(model)
        assert len(result.models) == len(engine_solutions) == 1
        assert decoded_sequences(model, cnf, result) == {
            model.sequence_of(s) for s in engine_solutions
        }
