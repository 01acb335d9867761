"""Langford models, all built by one `build_model` body.

Two viewpoints of L(k, n) and their channelled combination:

* direct: one variable per sequence cell (value = the number written
  there), plus one auxiliary start variable per number anchoring its
  chain of evenly spaced copies.
* positional: one variable per (number, repetition) holding the position
  of that copy; injectivity becomes an all_different.
* channelled: both variable sets linked by element constraints and an
  inverse channel, with either, both, or one side's problem constraints
  and exactly one reflection-breaking constraint.

The channelled model is both base viewpoints plus the links, so
`build_model` posts each piece wherever the variant needs it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .heuristics import HeuristicKind
from .propagators import (
    AllDifferent,
    ElementOffsetConst,
    EqOffset,
    InverseChannel,
    LessThan,
    Occurrence,
    Propagator,
    SumLeq,
)

MODEL_KINDS = ("direct", "positional", "channelled")
SYM_CHOICES = ("d", "p", "none")
CONS_CHOICES = ("both", "d", "p")
BRANCH_CHOICES = ("d", "p")


@dataclass(frozen=True, order=True)
class Instance:
    """An L(k, n) instance: k copies of each number 1..n in k*n cells."""

    k: int
    n: int

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("k must be at least 2")
        if self.n < 1:
            raise ValueError("n must be at least 1")

    @property
    def seq_length(self) -> int:
        return self.k * self.n

    @property
    def label(self) -> str:
        return f"{self.k:02d}_{self.n:02d}"


@dataclass(frozen=True)
class VariantConfig:
    """One point of the model/search variant space.

    `branch` and `cons` apply to channelled models only. Every field is
    a CSV column.
    """

    model: str
    branch: Optional[str] = None
    sym: str = "none"
    cons: Optional[str] = None
    heuristic: HeuristicKind = HeuristicKind.STATIC

    def __post_init__(self):
        if self.model not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.model!r}")
        if self.sym not in SYM_CHOICES:
            raise ValueError(f"unknown sym choice {self.sym!r}")
        if not isinstance(self.heuristic, HeuristicKind):
            object.__setattr__(self, "heuristic", HeuristicKind(self.heuristic))
        if self.model == "channelled":
            if self.branch not in BRANCH_CHOICES:
                raise ValueError("channelled models need branch 'd' or 'p'")
            if self.cons not in CONS_CHOICES:
                raise ValueError("channelled models need cons 'both', 'd' or 'p'")
        else:
            if self.branch is not None or self.cons is not None:
                raise ValueError("branch/cons only apply to channelled models")
            if self.model == "direct" and self.sym == "p":
                raise ValueError("sym 'p' needs position variables")
            if self.model == "positional" and self.sym == "d":
                raise ValueError("sym 'd' needs sequence variables")

    def label(self) -> str:
        if self.model == "channelled":
            return (
                f"channelled branch:{self.branch.upper()} sym:{self.sym.upper()} "
                f"cons:{self.cons.capitalize()} {self.heuristic.value}"
            )
        return f"{self.model} sym:{self.sym.upper()} {self.heuristic.value}"


@dataclass
class Model:
    """Variables, propagators and branching order for one variant.

    Variable ids are dense and assigned in construction order, which defines
    order of appearance. `initial_domains` holds one int bitmask per
    variable (bit v set iff v is in the domain). A built model is data that
    no search writes to: a search copies the domains into its own store and
    keeps its own failure weights, so one model can serve many searches.
    """

    instance: Instance
    config: VariantConfig
    initial_domains: list[int]
    propagators: list[Propagator]
    branch_order: list[int]
    cells: tuple = ()  # the sequence cells in position order; chain starts end branch_order
    pos_vars: Optional[list[list[int]]] = None

    @property
    def num_vars(self) -> int:
        return len(self.initial_domains)

    def sequence_of(self, solution: Sequence[int]) -> tuple[int, ...]:
        """Project a solution to the arrangement it denotes."""
        if self.cells:
            return tuple(solution[v] for v in self.cells)
        out = [0] * self.instance.seq_length
        for m0, row in enumerate(self.pos_vars):
            for v in row:
                out[solution[v] - 1] = m0 + 1
        return tuple(out)


class _Builder:
    def __init__(self):
        self.domains: list[int] = []

    def var(self, lo: int, hi: int) -> int:
        self.domains.append(((1 << (hi - lo + 1)) - 1) << lo)
        return len(self.domains) - 1


def _direct_constraints(instance, cells, first) -> list[Propagator]:
    k, n = instance.k, instance.n
    props: list[Propagator] = []
    for m in range(1, n + 1):
        for t in range(k):
            props.append(ElementOffsetConst(cells, first[m - 1], t * (m + 1), m))
    for m in range(1, n + 1):
        props.append(Occurrence(cells, m, k))
    return props


def _positional_constraints(instance, pos) -> list[Propagator]:
    k, n = instance.k, instance.n
    flat = [v for row in pos for v in row]
    props: list[Propagator] = [AllDifferent(flat)]
    for m in range(1, n + 1):
        for j in range(2, k + 1):
            props.append(EqOffset(pos[m - 1][j - 1], pos[m - 1][j - 2], m + 1))
    return props


def build_model(instance: Instance, config: VariantConfig) -> Model:
    """Build the model `config` names; all three viewpoints come from here.

    Sequence cells are posted unless the model is positional, slots unless
    it is direct. Wherever the direct constraints are posted (direct, or
    channelled with cons both/d) they come with the chain starts; a
    channelled model also links cells and slots. The symmetry constraint
    is posted last. Cells branch before slots except for branch p, and
    chain starts come last.
    """
    k, n, kn = instance.k, instance.n, instance.seq_length
    with_direct = config.model == "direct" or config.cons in ("both", "d")
    with_positional = config.model == "positional" or config.cons in ("both", "p")

    b = _Builder()
    # every cell filter keeps this one tuple: tuple(cells) is cells
    cells = tuple([b.var(1, n) for _ in range(kn)]) if config.model != "positional" else ()
    pos = first = None
    if config.model != "direct":
        pos = [[b.var(1, kn) for _ in range(k)] for _ in range(n)]
    if with_direct:
        # Latest start still fitting the whole chain; when the chain cannot
        # fit at all (n < k) the placeholder {1} is wiped at root by the
        # element bounds rule.
        first = [
            b.var(1, max(kn - (k - 1) * (m + 1), 1)) for m in range(1, n + 1)
        ]

    props: list[Propagator] = []
    if config.model == "channelled":
        # InverseChannel rules (b) and (c) already prune as much as these
        # k*n element links, but the links stay: each is a propagator of its
        # own, with its own scope and failure weight, so removing them
        # changes wdeg scores and failure blame, and with them wdeg and
        # dom/wdeg node counts.
        for m in range(1, n + 1):
            for j in range(1, k + 1):
                props.append(ElementOffsetConst(cells, pos[m - 1][j - 1], 0, m))
        props.append(InverseChannel(pos, cells))
        for m in range(1, n + 1):
            for j in range(2, k + 1):
                props.append(LessThan(pos[m - 1][j - 2], pos[m - 1][j - 1]))
    if with_direct:
        props.extend(_direct_constraints(instance, cells, first))
    if with_positional:
        props.extend(_positional_constraints(instance, pos))
    if config.sym == "d":
        props.append(LessThan(cells[0], cells[-1]))
    elif config.sym == "p":
        props.append(SumLeq(pos[0][0], pos[0][-1], kn))

    slots = [v for row in pos for v in row] if pos else []
    order = [*slots, *cells] if config.branch == "p" else [*cells, *slots]
    return Model(
        instance=instance,
        config=config,
        initial_domains=b.domains,
        propagators=props,
        branch_order=order + (first or []),
        cells=cells,
        pos_vars=pos,
    )

