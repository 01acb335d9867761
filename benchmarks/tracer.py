"""Span tracer for the benchmark's traced run.

Wraps public names of the `langford` package where callers look them up
(module globals, class attributes), so nothing inside `src/` knows it is
traced. Spans are aggregated per name in memory: count, inclusive time,
self time (inclusive minus the spans nested directly inside), and two
counters that some spans fill. A parent stack of child-time accumulators
gives the self times. A wrapper charges its parent for its whole run,
its own bookkeeping included, so a parent's self time excludes the cost
of tracing its children; that cost is the traced run's overhead alone.
"""

from __future__ import annotations

import functools
from time import perf_counter_ns

# Aggregate slots: [count, inclusive_ns, self_ns, extra_a, extra_b]
COUNT, INCL, SELF, EXTRA_A, EXTRA_B = range(5)

# Attribute set on every wrapper; lets a caller prove no wrapper is left.
MARK = "_bench_span"


class Tracer:
    def __init__(self):
        self.spans: dict[str, list[int]] = {}
        self._stack = [0]  # sentinel root frame: child time of untraced code
        self._patches: list[tuple[object, str, object]] = []

    def _agg(self, name: str) -> list[int]:
        return self.spans.setdefault(name, [0, 0, 0, 0, 0])

    def reset(self) -> None:
        """Zero every aggregate in place (wrappers hold the lists)."""
        for agg in self.spans.values():
            agg[:] = [0, 0, 0, 0, 0]

    def snapshot(self) -> dict[str, tuple[int, ...]]:
        return {name: tuple(agg) for name, agg in self.spans.items()}

    def wrap(self, name: str, fn):
        agg = self._agg(name)
        stack = self._stack

        def wrapper(*args, **kwargs):
            t0 = perf_counter_ns()
            stack.append(0)
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter_ns() - t0
                child = stack.pop()
                agg[COUNT] += 1
                agg[INCL] += dt
                agg[SELF] += dt - child
                stack[-1] += perf_counter_ns() - t0

        return self._mark(wrapper, fn, name)

    def wrap_filter(self, name: str, fn):
        """Propagator.filter: extra_a counts calls that changed a domain
        (grew the trail), extra_b counts calls that reported failure."""
        agg = self._agg(name)
        stack = self._stack

        def wrapper(prop, store):
            t0 = perf_counter_ns()
            trail = store.trail
            before = len(trail)
            stack.append(0)
            try:
                ok = fn(prop, store)
            finally:
                dt = perf_counter_ns() - t0
                child = stack.pop()
                agg[COUNT] += 1
                agg[INCL] += dt
                agg[SELF] += dt - child
            if len(trail) != before:
                agg[EXTRA_A] += 1
            if not ok:
                agg[EXTRA_B] += 1
            stack[-1] += perf_counter_ns() - t0
            return ok

        return self._mark(wrapper, fn, name)

    def wrap_undo(self, name: str, fn):
        """Store.undo_to_mark: extra_a counts trail entries undone."""
        agg = self._agg(name)
        stack = self._stack

        def wrapper(store):
            t0 = perf_counter_ns()
            trail = store.trail
            before = len(trail)
            stack.append(0)
            try:
                fn(store)
            finally:
                dt = perf_counter_ns() - t0
                child = stack.pop()
                agg[COUNT] += 1
                agg[INCL] += dt
                agg[SELF] += dt - child
            agg[EXTRA_A] += before - len(trail)
            stack[-1] += perf_counter_ns() - t0

        return self._mark(wrapper, fn, name)

    @staticmethod
    def _mark(wrapper, fn, name):
        functools.update_wrapper(wrapper, fn)
        setattr(wrapper, MARK, name)
        return wrapper

    def patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def install(self, package) -> None:
        """Wrap every traced name of an imported `langford` package."""
        engine = package.engine
        heuristics = package.heuristics
        cli = package.cli
        for attr, name in (
            ("propagate_to_fixpoint", "engine.fixpoint"),
            ("select_variable", "heuristics.select"),
            ("validate_model", "engine.setup.validate"),
            ("build_watchers", "engine.setup.watchers"),
        ):
            self.patch(engine, attr, self.wrap(name, getattr(engine, attr)))
        self.patch(heuristics, "wdeg_scores", self.wrap("heuristics.wdeg", heuristics.wdeg_scores))
        store = engine.Store
        self.patch(store, "undo_to_mark", self.wrap_undo("engine.trail.undo", store.undo_to_mark))
        self.patch(store, "value", self.wrap("engine.materialise", store.value))
        for cls in propagator_classes(package.propagators):
            self.patch(cls, "filter", self.wrap_filter(f"propagators.{cls.kind}", cls.filter))
        # One wrapper per function, shared by every namespace that looks it up,
        # so a call counts once whichever name it went through.
        search = self.wrap("engine.search", cli.solve_all)
        build = self.wrap("models.build", cli.build_model)
        for owner in (cli, package):
            self.patch(owner, "solve_all", search)
            self.patch(owner, "build_model", build)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def propagator_classes(module) -> list[type]:
    base = module.Propagator
    return [
        cls
        for cls in vars(module).values()
        if isinstance(cls, type) and issubclass(cls, base) and cls is not base
        and "filter" in vars(cls)
    ]


def leftover_wrappers(package) -> list[str]:
    """Names in `package` that still carry a tracing wrapper."""
    engine = package.engine
    owners = [
        package, package.cli, engine, package.heuristics, engine.Store,
        *propagator_classes(package.propagators),
    ]
    return [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner in owners
        for attr, value in vars(owner).items()
        if hasattr(value, MARK)
    ]
