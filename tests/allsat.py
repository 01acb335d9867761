"""Test-side SAT helpers: DIMACS map parsing, model decoding, and a small
blocking-clause AllSAT enumerator that cross-checks the encoding of
`langford.satgen` against the engine and the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from langford.engine import values
from langford.satgen import Cnf

ALLSAT_VAR_GUARD = 200


@dataclass
class AllSatResult:
    """Projected models (sorted tuples of true CSP literal indexes) plus a
    flag marking enumeration cut short by the caller's limit."""

    models: list[tuple[int, ...]]
    truncated: bool

    def __len__(self) -> int:
        return len(self.models)


def decision_order(cnf: Cnf, model) -> list[int]:
    """Variable indexes of `cnf`, the encoding of `model`, in a good
    branching order for the enumerator: position slots first, since their
    pairwise clauses feed unit propagation, then the remaining CSP
    variables, then auxiliaries."""
    pos_vars = getattr(model, "pos_vars", None)
    slot_vars = [v for row in pos_vars for v in row] if pos_vars is not None else []
    slot_set = set(slot_vars)
    order = [
        cnf.lit_of[(var, v)] for var in slot_vars for v in values(model.initial_domains[var])
    ]
    order += [
        idx
        for idx in range(1, cnf.num_csp_lits + 1)
        if cnf.csp_of[idx][0] not in slot_set
    ]
    order += list(range(cnf.num_csp_lits + 1, cnf.num_vars + 1))
    return order


def read_dimacs_map(path) -> dict[int, tuple[str, int]]:
    """Parse map comments back: DIMACS index -> (variable name, value)."""
    mapping: dict[int, tuple[str, int]] = {}
    with open(path) as fh:
        for line in fh:
            parts = line.split()
            if parts[:2] == ["c", "map"] and len(parts) == 5:
                mapping[int(parts[4])] = (parts[2], int(parts[3]))
            elif parts[:1] == ["p"]:
                break
    return mapping


def decode_model(cnf: Cnf, model_lits: Sequence[int]) -> dict[int, int]:
    """True CSP literals -> {VarId: value}; enforces exactly one value per
    CSP variable."""
    assignment: dict[int, int] = {}
    for lit in model_lits:
        entry = cnf.csp_of[lit]
        if entry is None:
            raise ValueError(f"literal {lit} is not a CSP value literal")
        var, value = entry
        if var in assignment:
            raise ValueError(f"two values decoded for variable {var}")
        assignment[var] = value
    expected = {var for var, _ in cnf.lit_of}
    if expected != set(assignment):
        missing = sorted(expected - set(assignment))
        raise ValueError(f"no value decoded for variables {missing}")
    return assignment


class _Dpll:
    """Chronological DPLL with two-watched-literal unit propagation.

    Decisions walk `order` (default: ascending variable index), trying true
    first; CSP literals are laid out in (variable, value) order, so this
    mirrors lexicographic value branching on the decision variables.
    Enumeration continues in place after each model: the model is treated
    like a conflict, and its blocking clause joins the clause database.
    """

    def __init__(self, num_vars: int, clauses: Sequence[Sequence[int]], order=None):
        self.num_vars = num_vars
        self.assign = [0] * (num_vars + 1)  # 0 free, 1 true, -1 false
        self.watches: dict[int, list[int]] = {}
        self.clauses: list[list[int]] = []
        self.units: list[int] = []
        self.empty = False
        self.order = list(order) if order is not None else list(range(1, num_vars + 1))
        self.trail: list[int] = []
        # decision records: (var, trail depth before, order position, flipped)
        self.decisions: list[tuple[int, int, int, bool]] = []
        for clause in clauses:
            clause = list(clause)
            if not clause:
                self.empty = True
            elif len(clause) == 1:
                self.units.append(clause[0])
            else:
                self._watch_new(clause)

    def _watch_new(self, clause: list[int]) -> int:
        ci = len(self.clauses)
        self.clauses.append(clause)
        for lit in clause[:2]:
            self.watches.setdefault(lit, []).append(ci)
        return ci

    def _value(self, lit: int) -> int:
        v = self.assign[abs(lit)]
        return v if lit > 0 else -v

    def _propagate(self, start: int) -> bool:
        trail = self.trail
        assign = self.assign
        clauses = self.clauses
        watches = self.watches
        i = start
        while i < len(trail):
            falsified = -trail[i]
            i += 1
            watch = watches.get(falsified)
            if not watch:
                continue
            kept = []
            for wi, ci in enumerate(watch):
                clause = clauses[ci]
                if clause[0] == falsified:
                    clause[0], clause[1] = clause[1], clause[0]
                first = clause[0]
                fv = assign[first] if first > 0 else -assign[-first]
                if fv == 1:
                    kept.append(ci)
                    continue
                moved = False
                for pos in range(2, len(clause)):
                    lit = clause[pos]
                    lv = assign[lit] if lit > 0 else -assign[-lit]
                    if lv != -1:
                        clause[1], clause[pos] = clause[pos], clause[1]
                        watches.setdefault(lit, []).append(ci)
                        moved = True
                        break
                if moved:
                    continue
                kept.append(ci)
                if fv == -1:
                    kept.extend(watch[wi + 1 :])
                    watches[falsified] = kept
                    return False
                assign[abs(first)] = 1 if first > 0 else -1
                trail.append(first)
            watches[falsified] = kept
        return True

    def _backtrack(self, depth: int) -> None:
        trail = self.trail
        assign = self.assign
        while len(trail) > depth:
            assign[abs(trail.pop())] = 0

    def _next_branch(self) -> int:
        """Flip the deepest unflipped decision; -1 when the tree is spent."""
        while True:
            while self.decisions and self.decisions[-1][3]:
                _, depth, _, _ = self.decisions.pop()
                self._backtrack(depth)
            if not self.decisions:
                self._backtrack(0)
                return -1
            var, depth, position, _ = self.decisions.pop()
            self._backtrack(depth)
            self.decisions.append((var, depth, position, True))
            self.assign[var] = -1
            self.trail.append(-var)
            if self._propagate(len(self.trail) - 1):
                return position

    def _attach_runtime(self, clause: list[int]) -> bool:
        """Add a clause mid-search; resolves immediate conflicts by branch
        flipping. False when the search tree is exhausted."""
        while True:
            clause.sort(key=lambda lit: self._value(lit) == -1)
            first_value = self._value(clause[0])
            second_value = self._value(clause[1]) if len(clause) > 1 else -1
            if first_value != -1 and second_value != -1:
                self._watch_new(clause)
                return True
            if first_value == 1:
                self._watch_new(clause)
                return True
            if first_value == 0:
                # unit under the current assignment
                self._watch_new(clause)
                lit = clause[0]
                self.assign[abs(lit)] = 1 if lit > 0 else -1
                self.trail.append(lit)
                if self._propagate(len(self.trail) - 1):
                    return True
                return self._next_branch() >= 0
            # all literals false: flip a branch, then try again
            if self._next_branch() < 0:
                return False

    def enumerate_models(self, num_csp_lits: int, limit: Optional[int]):
        """All models projected to CSP literals, with blocking clauses
        pinned after each; stops early at `limit`."""
        models: list[tuple[int, ...]] = []
        if self.empty:
            return models, False
        if limit is not None and limit <= 0:
            return models, True
        for lit in self.units:
            value = self._value(lit)
            if value == -1:
                return models, False
            if value == 0:
                self.assign[abs(lit)] = 1 if lit > 0 else -1
                self.trail.append(lit)
        if not self._propagate(0):
            return models, False
        order = self.order
        assign = self.assign
        position = 0
        while True:
            while position < len(order) and assign[order[position]] != 0:
                position += 1
            if position < len(order):
                var = order[position]
                self.decisions.append((var, len(self.trail), position, False))
                assign[var] = 1
                self.trail.append(var)
                position += 1
                while not self._propagate(len(self.trail) - 1):
                    position = self._next_branch()
                    if position < 0:
                        return models, False
                    position += 1
                continue
            model = tuple(
                lit for lit in range(1, num_csp_lits + 1) if assign[lit] == 1
            )
            models.append(model)
            if limit is not None and len(models) >= limit:
                return models, True
            blocking = [-lit for lit in model]
            position = self._next_branch()
            if position < 0:
                return models, False
            if not self._attach_runtime(blocking):
                return models, False
            # _attach_runtime may have flipped further down; rescan from the
            # shallowest spot that could have opened up
            position = self.decisions[-1][2] + 1 if self.decisions else 0


def allsat_tiny(
    cnf: Cnf,
    model=None,
    limit: Optional[int] = None,
    max_vars: int = ALLSAT_VAR_GUARD,
) -> AllSatResult:
    """Enumerate all models of `cnf`, projected to CSP value literals.

    With the `model` that `cnf` encodes, decisions follow its
    `decision_order`; without one, ascending variable index. After each
    model a blocking clause over the true CSP literals is added (never over
    circuit auxiliaries, so projected duplicates cannot appear) and the
    depth-first enumeration continues. Refuses formulas above `max_vars`
    variables; pass a higher guard explicitly for larger cross-checks.
    """
    if cnf.num_vars > max_vars:
        raise ValueError(
            f"{cnf.num_vars} variables exceed the enumeration guard {max_vars}"
        )
    order = None if model is None else decision_order(cnf, model)
    solver = _Dpll(cnf.num_vars, cnf.clauses, order=order)
    models, truncated = solver.enumerate_models(cnf.num_csp_lits, limit)
    return AllSatResult(models=models, truncated=truncated)
