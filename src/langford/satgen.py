"""Boolean encoding of built models and DIMACS export.

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


@dataclass
class Cnf:
    """Clause set plus the CSP literal map.

    `lit_of` maps (VarId, value) to a positive DIMACS index; indexes
    1..num_csp_lits are CSP value literals in (variable, value) order,
    higher indexes are circuit auxiliaries.
    """

    num_vars: int
    clauses: list[list[int]]
    lit_of: dict[tuple[int, int], int]
    csp_of: list[Optional[tuple[int, int]]]  # index -> (var, value), 1-based
    names: list[str]
    num_csp_lits: int


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

    return Cnf(
        num_vars=counter[0],
        clauses=clauses,
        lit_of=lit_of,
        csp_of=csp_of,
        names=list(model.names),
        num_csp_lits=num_csp,
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
