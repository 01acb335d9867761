"""Boolean encoding of built models, DIMACS export, and a small blocking
clause AllSAT enumerator for cross-checks.

Sparse (one literal per variable/value pair) encoding: per CSP variable an
at-least-one clause plus pairwise at-most-one clauses; per constraint,
conflict or implication clauses derived from its semantic checker, except
occurrence counts which use a sequential-counter circuit with auxiliary
variables. Auxiliaries never appear in map comments, decoded models, or
blocking clauses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .engine import values
from .propagators import (
    AllDifferent,
    ElementOffsetConst,
    EqOffset,
    InverseChannel,
    LessThan,
    Occurrence,
    SumLeq,
)

ALLSAT_VAR_GUARD = 200


@dataclass
class Cnf:
    """Clause set plus the CSP literal map.

    `lit_of` maps (VarId, value) to a positive DIMACS index; indexes
    1..num_csp_lits are CSP value literals in (variable, value) order,
    higher indexes are circuit auxiliaries. `decision_order` lists variable
    indexes in a good branching order for the bundled enumerator: position
    slots first, since their pairwise clauses feed unit propagation, then
    the remaining CSP variables, then auxiliaries.
    """

    num_vars: int
    clauses: list[list[int]]
    lit_of: dict[tuple[int, int], int]
    csp_of: list[Optional[tuple[int, int]]]  # index -> (var, value), 1-based
    names: list[str]
    num_csp_lits: int
    decision_order: Optional[list[int]] = None


@dataclass
class AllSatResult:
    """Projected models (sorted tuples of true CSP literal indexes) plus a
    flag marking enumeration cut short by the caller's limit."""

    models: list[tuple[int, ...]]
    truncated: bool

    def __len__(self) -> int:
        return len(self.models)


def _exactly_k(lits: Sequence[int], k: int, new_var, clauses: list[list[int]]) -> None:
    """Sequential-counter circuit forcing exactly k of `lits` true.

    Counter variable s[i][j] is defined (in both directions, so models stay
    in bijection with the projected assignments) as "at least j of the
    first i literals are true".
    """
    q = len(lits)
    if k == 0:
        for x in lits:
            clauses.append([-x])
        return
    if q < k:
        clauses.append([])  # no assignment can reach k
        return
    if q == k:
        for x in lits:
            clauses.append([x])
        return
    s: dict[tuple[int, int], int] = {}
    for i in range(1, q + 1):
        for j in range(1, min(i, k) + 1):
            s[(i, j)] = new_var()
    clauses.append([-s[(1, 1)], lits[0]])
    clauses.append([-lits[0], s[(1, 1)]])
    for i in range(2, q + 1):
        x = lits[i - 1]
        for j in range(1, min(i, k) + 1):
            sij = s[(i, j)]
            prev_same = s.get((i - 1, j))  # false when j > i-1
            prev_down = s.get((i - 1, j - 1)) if j > 1 else None  # true when j == 1
            # carry: s[i-1][j] -> s[i][j]
            if prev_same is not None:
                clauses.append([-prev_same, sij])
            # count up: x & s[i-1][j-1] -> s[i][j]
            if prev_down is not None:
                clauses.append([-x, -prev_down, sij])
            else:
                clauses.append([-x, sij])
            # support: s[i][j] -> s[i-1][j] | x, and -> s[i-1][j] | s[i-1][j-1]
            head = [-sij] if prev_same is None else [-sij, prev_same]
            clauses.append(head + [x])
            if prev_down is not None:
                clauses.append(head + [prev_down])
        if k <= i - 1:
            clauses.append([-x, -s[(i - 1, k)]])  # at most k
    clauses.append([s[(q, k)]])  # at least k


def encode(model) -> Cnf:
    """Boolean encoding of a freshly built model's root domains."""
    domains = model.initial_domains  # masks, for membership tests
    listed = [values(d) for d in domains]  # the same, ascending, to iterate
    lit_of: dict[tuple[int, int], int] = {}
    csp_of: list[Optional[tuple[int, int]]] = [None]  # 1-based
    for var, vals in enumerate(listed):
        for v in vals:
            lit_of[(var, v)] = len(csp_of)
            csp_of.append((var, v))
    num_csp = len(csp_of) - 1
    counter = [num_csp]

    def new_var() -> int:
        counter[0] += 1
        csp_of.append(None)
        return counter[0]

    clauses: list[list[int]] = []
    for var, vals in enumerate(listed):
        lits = [lit_of[(var, v)] for v in vals]
        clauses.append(lits[:])
        for a in range(len(lits)):
            for b in range(a + 1, len(lits)):
                clauses.append([-lits[a], -lits[b]])

    scratch = [0] * len(domains)
    for prop in model.propagators:
        if isinstance(prop, (EqOffset, LessThan, SumLeq)):
            x, y = prop.scope
            for a in listed[x]:
                scratch[x] = a
                for b in listed[y]:
                    scratch[y] = b
                    if not prop.check(scratch):
                        clauses.append([-lit_of[(x, a)], -lit_of[(y, b)]])
        elif isinstance(prop, AllDifferent):
            scope = prop.scope
            for i in range(len(scope)):
                for j in range(i + 1, len(scope)):
                    x, y = scope[i], scope[j]
                    for v in listed[x]:
                        if domains[y] >> v & 1:
                            clauses.append([-lit_of[(x, v)], -lit_of[(y, v)]])
        elif isinstance(prop, ElementOffsetConst):
            c = prop.value
            for p in listed[prop.index]:
                pos = p + prop.offset
                idx_lit = lit_of[(prop.index, p)]
                if 1 <= pos <= len(prop.array) and domains[prop.array[pos - 1]] >> c & 1:
                    clauses.append([-idx_lit, lit_of[(prop.array[pos - 1], c)]])
                else:
                    clauses.append([-idx_lit])
        elif isinstance(prop, InverseChannel):
            kn = len(prop.seq)
            for i in range(1, kn + 1):
                cell = prop.seq[i - 1]
                for m in listed[cell]:
                    heads = [
                        lit_of[(sv, i)]
                        for sv in prop.slots[m - 1]
                        if domains[sv] >> i & 1
                    ]
                    clauses.append([-lit_of[(cell, m)]] + heads)
            for m0, row in enumerate(prop.slots):
                for sv in row:
                    for i in listed[sv]:
                        cell = prop.seq[i - 1]
                        slot_lit = lit_of[(sv, i)]
                        if domains[cell] >> (m0 + 1) & 1:
                            clauses.append([-slot_lit, lit_of[(cell, m0 + 1)]])
                        else:
                            clauses.append([-slot_lit])
        elif isinstance(prop, Occurrence):
            lits = [lit_of[(v, prop.value)] for v in prop.scope if domains[v] >> prop.value & 1]
            _exactly_k(lits, prop.count, new_var, clauses)
        else:
            raise ValueError(f"no encoding for propagator kind {prop.kind!r}")

    pos_vars = getattr(model, "pos_vars", None)
    slot_vars = [v for row in pos_vars for v in row] if pos_vars is not None else []
    slot_set = set(slot_vars)
    decision_order = [
        lit_of[(var, v)] for var in slot_vars for v in listed[var]
    ]
    decision_order += [
        idx
        for idx in range(1, num_csp + 1)
        if csp_of[idx][0] not in slot_set
    ]
    decision_order += list(range(num_csp + 1, counter[0] + 1))

    return Cnf(
        num_vars=counter[0],
        clauses=clauses,
        lit_of=lit_of,
        csp_of=csp_of,
        names=list(model.names),
        num_csp_lits=num_csp,
        decision_order=decision_order,
    )


def write_dimacs(cnf: Cnf, path) -> None:
    """Standard DIMACS with `c map <varname> <value> <index>` comments for
    the CSP value literals ahead of the header."""
    with open(path, "w") as fh:
        for idx in range(1, cnf.num_csp_lits + 1):
            var, value = cnf.csp_of[idx]
            fh.write(f"c map {cnf.names[var]} {value} {idx}\n")
        fh.write(f"p cnf {cnf.num_vars} {len(cnf.clauses)}\n")
        for clause in cnf.clauses:
            fh.write(" ".join(map(str, clause)) + " 0\n")


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


def allsat_tiny(cnf: Cnf, limit: Optional[int] = None, max_vars: int = ALLSAT_VAR_GUARD) -> AllSatResult:
    """Enumerate all models of `cnf`, projected to CSP value literals.

    After each model a blocking clause over the true CSP literals is added
    (never over circuit auxiliaries, so projected duplicates cannot appear)
    and the depth-first enumeration continues. Refuses formulas above
    `max_vars` variables; pass a higher guard explicitly for larger
    cross-checks.
    """
    if cnf.num_vars > max_vars:
        raise ValueError(
            f"{cnf.num_vars} variables exceed the enumeration guard {max_vars}"
        )
    solver = _Dpll(cnf.num_vars, cnf.clauses, order=cnf.decision_order)
    models, truncated = solver.enumerate_models(cnf.num_csp_lits, limit)
    return AllSatResult(models=models, truncated=truncated)
