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
`build_model` posts each piece wherever the variant needs it. Variable ids
are ranges, in this order: the cells 0..kn-1 (none in a positional model),
the slot rows one after another (none in a direct model), and the chain
starts, the last n ids (only where the direct constraints are posted).

`Instance`, `VariantConfig` and `Model` are named tuples, cheap to define
at import: immutable, equal by value, ordered by their fields and
hashable where their fields are. `__new__` checks an `Instance` or a
`VariantConfig`, also when unpickled; `_replace` and `_make` skip it, so
no code uses them on those two.
"""

from __future__ import annotations

from collections import namedtuple
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


class Instance(namedtuple("Instance", "k n")):
    """An L(k, n) instance: k copies of each number 1..n in k*n cells."""

    __slots__ = ()

    def __new__(cls, k: int, n: int):
        if k < 2:
            raise ValueError("k must be at least 2")
        if n < 1:
            raise ValueError("n must be at least 1")
        return super().__new__(cls, k, n)

    @property
    def seq_length(self) -> int:
        return self.k * self.n

    @property
    def label(self) -> str:
        return f"{self.k:02d}_{self.n:02d}"


class VariantConfig(namedtuple("VariantConfig", "model branch sym cons heuristic")):
    """One point of the model/search variant space.

    `branch` and `cons` apply to channelled models only. Every field is
    a CSV column.
    """

    __slots__ = ()

    def __new__(
        cls,
        model: str,
        branch: Optional[str] = None,
        sym: str = "none",
        cons: Optional[str] = None,
        heuristic: HeuristicKind = HeuristicKind.STATIC,
    ):
        if model not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {model!r}")
        if sym not in SYM_CHOICES:
            raise ValueError(f"unknown sym choice {sym!r}")
        if not isinstance(heuristic, HeuristicKind):
            heuristic = HeuristicKind(heuristic)
        if model == "channelled":
            if branch not in BRANCH_CHOICES:
                raise ValueError("channelled models need branch 'd' or 'p'")
            if cons not in CONS_CHOICES:
                raise ValueError("channelled models need cons 'both', 'd' or 'p'")
        else:
            if branch is not None or cons is not None:
                raise ValueError("branch/cons only apply to channelled models")
            if model == "direct" and sym == "p":
                raise ValueError("sym 'p' needs position variables")
            if model == "positional" and sym == "d":
                raise ValueError("sym 'd' needs sequence variables")
        return super().__new__(cls, model, branch, sym, cons, heuristic)

    def label(self) -> str:
        if self.model == "channelled":
            return (
                f"channelled branch:{self.branch.upper()} sym:{self.sym.upper()} "
                f"cons:{self.cons.capitalize()} {self.heuristic.value}"
            )
        return f"{self.model} sym:{self.sym.upper()} {self.heuristic.value}"


class Model(namedtuple(
        "Model", "instance config initial_domains propagators branch_order cells pos_vars",
        defaults=((), None))):
    """Variables, propagators and branching order for one variant.

    Variable ids are dense and laid out as the module docstring says: cells,
    then slot rows, then chain starts. `initial_domains` holds one int
    bitmask per variable (bit v set iff v is in the domain). `cells` holds
    the sequence cells in position order, `pos_vars` the slot rows or None;
    chain starts end `branch_order`. A built model is data that no search
    writes to: a search copies the domains into its own store and keeps its
    own failure weights, so one model can serve many searches.
    """

    __slots__ = ()

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

    # every cell filter keeps this one tuple: tuple(cells) is cells
    cells = tuple(range(kn)) if config.model != "positional" else ()
    slots = list(range(len(cells), len(cells) + kn)) if config.model != "direct" else []
    pos = [slots[i:i + k] for i in range(0, kn, k)] if slots else None
    # the values 1..hi are the mask (2 << hi) - 2
    domains = [(2 << n) - 2] * len(cells) + [(2 << kn) - 2] * len(slots)
    first: list[int] = []
    if with_direct:
        # Latest start still fitting the whole chain; when the chain cannot
        # fit at all (n < k) the placeholder {1} is wiped at root by the
        # element bounds rule.
        first = list(range(len(domains), len(domains) + n))
        domains += [(2 << max(kn - (k - 1) * (m + 1), 1)) - 2 for m in range(1, n + 1)]

    props: list[Propagator] = []
    if config.model == "channelled":
        # InverseChannel rules (b) and (c) already prune as much as these
        # k*n element links, but the links stay: each is a propagator of its
        # own, with its own scope and failure weight, so removing them
        # changes wdeg scores and failure blame, and with them wdeg and
        # dom/wdeg node counts.
        for m, row in enumerate(pos, 1):
            props += [ElementOffsetConst(cells, v, 0, m) for v in row]
        props.append(InverseChannel(pos, cells))
        for row in pos:
            props += [LessThan(a, b) for a, b in zip(row, row[1:])]
    if with_direct:
        for m, start in enumerate(first, 1):
            props += [ElementOffsetConst(cells, start, t * (m + 1), m) for t in range(k)]
        props += [Occurrence(cells, m, k) for m in range(1, n + 1)]
    if with_positional:
        props.append(AllDifferent(slots))
        for m, row in enumerate(pos, 1):
            props += [EqOffset(b, a, m + 1) for a, b in zip(row, row[1:])]
    if config.sym == "d":
        props.append(LessThan(cells[0], cells[-1]))
    elif config.sym == "p":
        props.append(SumLeq(pos[0][0], pos[0][-1], kn))

    order = [*slots, *cells] if config.branch == "p" else [*cells, *slots]
    return Model(
        instance=instance,
        config=config,
        initial_domains=domains,
        propagators=props,
        branch_order=order + first,
        cells=cells,
        pos_vars=pos,
    )
