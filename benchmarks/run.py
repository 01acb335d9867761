"""Benchmark of the langford solver.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see WORKLOADS and README.md) in this process through the
public API: `build_model` and `solve_all` for single cells, and
`langford.cli.main(["sweep", ..., "--jobs", "1"])` for the sweep grid.

With --trace 0 it repeats the workload for about --seconds seconds and
reports the end-to-end metrics: a cell's time is its median over the
passes, each search scaled by a calibration loop timed beside it (Speed).
With --trace 1 it runs the workload once untraced and twice with the span
wrappers of tracer.py installed, and reports the per-layer metrics.

Every cell's nodes, failures and solutions must equal pinned.json; every
cell with k*n <= 28 must also give the brute-force oracle's solution set,
and k = 2 counts must match OEIS A014552. The last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"}. Exit status: 0 when
every cell is correct, 1 when one is not, 2 when the sources are missing.
"""

from __future__ import annotations

import argparse
import csv
import gc
import importlib
import io
import json
import os
import random
import resource
import statistics
import sys
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter_ns

import tracer as tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
PINNED = BENCH_DIR / "pinned.json"

CELL_TIMEOUT_S = 60.0
# Set-up is timed this many times before the first pass and after every
# pass, so its samples span the whole run rather than one moment of it.
SETUP_REPEATS = 3
# What calibration_loop takes on an idle host (2 CPUs, Python 3.11.7); a
# scaled time is what the sample would have taken there.
CALIBRATION_REF_NS = 2_400_000
ORACLE_MAX_CELLS = 28  # the oracle's own size guard on k*n
# OEIS A014552: Langford pairings L(2, n) up to reversal.
A014552 = {1: 0, 2: 0, 3: 1, 4: 1, 5: 0, 6: 0, 7: 26, 8: 150, 9: 0, 10: 0,
           11: 17792, 12: 108144}

CHANNELLED_DD_STATIC = {"model": "channelled", "branch": "d", "sym": "d",
                        "cons": "both", "heuristic": "static"}
POSITIONAL_DOMWDEG = {"model": "positional", "sym": "p", "heuristic": "domoverwdeg"}
SWEEP_VARIANTS = (
    {"model": "direct", "sym": "d", "heuristic": "static"},
    {"model": "direct", "sym": "d", "heuristic": "domoverwdeg"},
    {"model": "positional", "sym": "p", "heuristic": "sdf"},
    {"model": "positional", "sym": "p", "heuristic": "wdeg"},
    CHANNELLED_DD_STATIC,
    {"model": "channelled", "branch": "p", "sym": "p", "cons": "p", "heuristic": "domoverwdeg"},
    {"model": "channelled", "branch": "d", "sym": "p", "cons": "both", "heuristic": "sdf"},
)

PROPAGATOR_KINDS = ("eq_offset", "less_than", "sum_leq", "all_different",
                    "element_offset_const", "occurrence", "inverse_channel")


@dataclass(frozen=True)
class Workload:
    """Cells = every instance x every variant. A sweep workload runs them
    through the CLI, so its instances must form a full k x n grid."""

    name: str
    instances: tuple
    variants: tuple
    sweep: bool = False

    def cells(self) -> list[tuple[int, int, dict]]:
        return [(k, n, v) for k, n in self.instances for v in self.variants]


def _grid(ks, ns) -> tuple:
    return tuple((k, n) for k in ks for n in ns)


# Why each workload exists is recorded in README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("channelled", ((3, 8), (3, 10), (4, 9), (4, 10), (4, 11)),
                 (CHANNELLED_DD_STATIC,)),
        Workload("positional-domwdeg", ((2, 8), (2, 9), (3, 9), (3, 10)), (POSITIONAL_DOMWDEG,)),
        Workload("sweep-grid", _grid(range(2, 5), range(2, 7)), SWEEP_VARIANTS, sweep=True),
    )
}


def cell_key(k, n, model, branch, sym, cons, heuristic) -> str:
    return f"{k},{n},{model},{branch or ''},{sym},{cons or ''},{heuristic}"


def variant_key(k: int, n: int, v: dict) -> str:
    return cell_key(k, n, v["model"], v.get("branch"), v["sym"], v.get("cons"), v["heuristic"])


def model_key(model) -> str:
    c = model.config
    return cell_key(model.instance.k, model.instance.n, c.model, c.branch, c.sym, c.cons,
                    c.heuristic.value)


def variant_spec(v: dict) -> str:
    return ",".join(f"{key}={value}" for key, value in v.items())


# ---------------------------------------------------------------- results


@dataclass
class CellRun:
    key: str
    ns: int  # search time as measured
    ref_ns: float | None  # ns scaled by Speed; None in an unscaled pass
    nodes: int
    failures: int
    solutions: int
    timed_out: bool
    model: object = None  # model and sols are kept only for the
    sols: list | None = None  # solution-set check of the first pass


@dataclass
class Pass:
    cells: list[CellRun]
    errors: list[str] = field(default_factory=list)  # cells that raised, sweep failures
    sweep_rows: list[dict] | None = None  # the sweep's CSV output


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.messages.append(message)


# ---------------------------------------------------------------- running


class _Queens:
    def __init__(self, n: int):
        self.n = n
        self.cols: set[int] = set()
        self.diag: set[int] = set()
        self.anti: set[int] = set()
        self.count = 0

    def free(self, row: int, col: int) -> bool:
        return col not in self.cols and row - col not in self.diag and row + col not in self.anti

    def place(self, row: int) -> None:
        if row == self.n:
            self.count += 1
            return
        for col in range(self.n):
            if self.free(row, col):
                self.cols.add(col)
                self.diag.add(row - col)
                self.anti.add(row + col)
                self.place(row + 1)
                self.cols.discard(col)
                self.diag.discard(row - col)
                self.anti.discard(row + col)


def calibration_loop() -> int:
    """Counts the 92 solutions of 8 queens by backtracking over sets: fixed
    pure-Python work of the solver's kind (calls, branches, set updates),
    about 2.4 ms on an idle host, that no change to langford can speed up."""
    queens = _Queens(8)
    queens.place(0)
    return queens.count


class Speed:
    """Scales each timed sample to the speed of an idle host.

    Other tenants of the host slow this process by up to 2x, for seconds
    to minutes at a time, so raw times, and even a run's best, drift with
    their load. The calibration loop is timed before and after every
    sample, and the sample is scaled by CALIBRATION_REF_NS over the mean of
    those two loop times. Load slows both and cancels; a change to langford
    moves only the sample (README.md has the measurements)."""

    def __init__(self):
        self.loop_ns: list[int] = []
        self._before = 0

    def _time_loop(self) -> int:
        start = perf_counter_ns()
        calibration_loop()
        ns = perf_counter_ns() - start
        self.loop_ns.append(ns)
        return ns

    def start(self) -> None:
        """Time the loop before the first sample of a series."""
        self._before = self._time_loop()

    def scale(self, ns: int) -> float:
        """`ns`, just measured, scaled; the loop timed after it is the
        next sample's loop before."""
        after = self._time_loop()
        scaled = ns * 2 * CALIBRATION_REF_NS / (self._before + after)
        self._before = after
        return scaled


def _langford_modules() -> dict:
    return {name: mod for name, mod in sys.modules.items()
            if name == "langford" or name.startswith("langford.")}


def load_langford():
    """Import langford and langford.cli afresh from this checkout's src/."""
    for name in _langford_modules():
        del sys.modules[name]
    package = importlib.import_module("langford")
    importlib.import_module("langford.cli")
    return package


def time_setup(cells, speed: Speed, repeats: int = SETUP_REPEATS) -> list[float]:
    """Scaled nanoseconds of each of `repeats` set-ups: a fresh import of
    langford and langford.cli, then build_model for every cell. The modules
    in use before are put back, so passes keep running warm code."""
    in_use = _langford_modules()
    samples = []
    for _ in range(repeats):
        gc.collect()  # drop the previous repeat's modules before timing
        speed.start()
        t0 = perf_counter_ns()
        lf = load_langford()
        for k, n, v in cells:
            lf.build_model(lf.Instance(k, n), lf.VariantConfig(**v))
        samples.append(speed.scale(perf_counter_ns() - t0))
    for name in _langford_modules():
        del sys.modules[name]
    sys.modules.update(in_use)
    gc.collect()
    return samples


def run_cells(lf, cells, keep_solutions: bool, speed: Speed | None) -> Pass:
    """One pass over single cells; names are looked up on the package at
    call time so the tracer's wrappers take effect."""
    runs, errors = [], []
    if speed:
        speed.start()
    for k, n, v in cells:
        key = variant_key(k, n, v)
        try:
            model = lf.build_model(lf.Instance(k, n), lf.VariantConfig(**v))
            start = perf_counter_ns()
            sols, stats = lf.solve_all(model, model.config.heuristic, time_limit=CELL_TIMEOUT_S)
            ns = perf_counter_ns() - start
        except Exception as exc:  # a cell that raises is counted, not fatal
            errors.append(f"{key}: raised {exc!r}")
            continue
        kept = (model, sols) if keep_solutions else ()
        runs.append(CellRun(key, ns, speed and speed.scale(ns), stats.nodes, stats.failures,
                            len(sols), stats.timed_out, *kept))
    return Pass(runs, errors)


def run_sweep(lf, workload: Workload, variants, keep_solutions: bool, speed: Speed | None,
              tracer=None) -> Pass:
    """One `langford sweep` over the workload's grid, in process, --jobs 1.
    Each search is timed by a wrapper around the `solve_all` the CLI calls.
    A traced sweep is not scaled: the calibration loop would count as the
    CLI's own time."""
    cli = lf.cli
    ks = sorted({k for k, _ in workload.instances})
    ns = sorted({n for _, n in workload.instances})
    OUT_DIR.mkdir(exist_ok=True)
    out_csv = OUT_DIR / f"sweep-{os.getpid()}.csv"
    argv = ["sweep", "--k-min", str(ks[0]), "--k-max", str(ks[-1]),
            "--n-min", str(ns[0]), "--n-max", str(ns[-1]),
            "--jobs", "1", "--timeout", str(CELL_TIMEOUT_S), "--out", str(out_csv)]
    for v in variants:
        argv += ["--variant", variant_spec(v)]

    runs, errors = [], []
    inner = cli.solve_all

    def timed_solve_all(model, *args, **kwargs):
        start = perf_counter_ns()
        sols, stats = inner(model, *args, **kwargs)
        elapsed = perf_counter_ns() - start
        kept = (model, sols) if keep_solutions else ()
        runs.append(CellRun(model_key(model), elapsed, speed and speed.scale(elapsed),
                            stats.nodes, stats.failures, len(sols), stats.timed_out, *kept))
        return sols, stats

    cli.solve_all = timed_solve_all
    if speed:
        speed.start()
    try:
        with redirect_stdout(io.StringIO()):
            code = (tracer.wrap("cli.sweep", cli.main) if tracer else cli.main)(argv)
    except Exception as exc:  # the sweep's missing cells are counted below
        code = None
        errors.append(f"sweep raised {exc!r}")
    finally:
        cli.solve_all = inner
    if code != 0:
        errors.append(f"sweep exited with {code}")
    rows = []
    try:
        with open(out_csv, newline="") as fh:
            rows = list(csv.DictReader(fh))
        out_csv.unlink()
    except OSError as exc:
        errors.append(f"sweep CSV unreadable: {exc}")
    return Pass(runs, errors, rows)


def run_pass(lf, workload, order, keep_solutions=False, speed=None, tracer=None) -> Pass:
    if workload.sweep:
        return run_sweep(lf, workload, order, keep_solutions, speed, tracer)
    return run_cells(lf, order, keep_solutions, speed)


# ---------------------------------------------------------------- checking


def check_counts(workload: Workload, p: Pass, pinned: dict, tally: Tally) -> None:
    """Every cell ran once, did not time out, and matches its pinned counts;
    a sweep's CSV rows must match too."""
    by_key = {}
    for run in p.cells:
        by_key.setdefault(run.key, []).append(run)
    csv_rows = {}
    if workload.sweep:
        for row in p.sweep_rows or ():
            key = cell_key(row["k"], row["n"], row["model"], row["branch"], row["sym"],
                           row["cons"], row["heuristic"])
            csv_rows[key] = row
    tally.messages.extend(p.errors)
    for k, n, v in workload.cells():
        key = variant_key(k, n, v)
        tally.attempted += 1
        want = pinned.get(key)
        got = by_key.get(key, [])
        if want is None:
            tally.fail(f"{key}: no pinned counts")
        elif len(got) != 1:
            tally.fail(f"{key}: ran {len(got)} times")
        elif got[0].timed_out:
            tally.fail(f"{key}: timed out")
        elif [got[0].nodes, got[0].failures, got[0].solutions] != want:
            run = got[0]
            tally.fail(f"{key}: nodes/failures/solutions {run.nodes}/{run.failures}/"
                       f"{run.solutions}, pinned {want[0]}/{want[1]}/{want[2]}")
        elif workload.sweep:
            row = csv_rows.get(key)
            counts = row and [int(row["nodes"]), int(row["failures"]), int(row["solutions"])]
            if row is None or counts != want or row["timed_out"] != "false":
                tally.fail(f"{key}: sweep CSV row {row} does not match pinned {want}")


class Oracle:
    """Brute-force solution sets, enumerated once per (k, n) in this process."""

    def __init__(self, lf):
        self.enumerate = lf.oracle.enumerate_bruteforce
        self.sets: dict[tuple[int, int], set] = {}

    def solutions(self, k: int, n: int) -> set:
        if (k, n) not in self.sets:
            self.sets[k, n] = set(self.enumerate(k, n))
        return self.sets[k, n]


def solution_set_error(k: int, n: int, sym: str, sequences: list, oracle: Oracle):
    """Why `sequences` is not the right solution set of L(k, n), or None.

    The reversal-closed set must equal the oracle's full set; k = 2 counts
    must equal A014552 (halved by a reflection-breaking sym)."""
    if k == 2 and n in A014552:
        want = A014552[n] * (1 if sym != "none" else 2)
        if len(sequences) != want:
            return f"{len(sequences)} solutions, OEIS A014552 gives {want}"
    if len(set(sequences)) != len(sequences):
        return "duplicate solutions"
    if k * n > ORACLE_MAX_CELLS:
        return None
    closure = set(sequences) | {s[::-1] for s in sequences}
    want = oracle.solutions(k, n)
    if closure != want:
        return f"reversal-closed set of {len(closure)} differs from the oracle's {len(want)}"
    return None


def check_solution_sets(p: Pass, oracle: Oracle, tally: Tally) -> None:
    for run in p.cells:
        if run.sols is None:
            continue
        inst, config = run.model.instance, run.model.config
        sequences = [run.model.sequence_of(s) for s in run.sols]
        error = solution_set_error(inst.k, inst.n, config.sym, sequences, oracle)
        if error:
            tally.fail(f"{run.key}: {error}")
        run.model = run.sols = None


# ---------------------------------------------------------------- metrics


def quantile(values: list[float], q: int) -> float:
    """q-th percentile, linear between the closest ranks."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def median_cell_ms(passes: list[Pass], attr: str = "ref_ns") -> list[float]:
    """Each cell's median time over the passes, in ms: scaled by default,
    as measured with attr="ns"."""
    times: dict[str, list[float]] = {}
    for p in passes:
        for run in p.cells:
            times.setdefault(run.key, []).append(getattr(run, attr))
    return [statistics.median(ns) / 1e6 for ns in times.values()]


def total_nodes(p: Pass) -> int:
    return sum(run.nodes for run in p.cells)


def end_to_end_metrics(passes, setup_s, peak_rss_mb) -> dict:
    """Times are scaled by Speed, then each cell's median over the passes."""
    cell_ms = median_cell_ms(passes)
    solve_s = sum(cell_ms) / 1e3
    return {
        "solve_s": (solve_s, "s"),
        "us_per_node": (solve_s * 1e6 / total_nodes(passes[0]), "us"),
        "cell_ms_p50": (quantile(cell_ms, 50), "ms"),
        "cell_ms_p90": (quantile(cell_ms, 90), "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


# Counts that must repeat exactly between two traced passes.
def layer_counts(spans: dict) -> dict:
    return {name: (agg[tracing.COUNT], agg[tracing.EXTRA_A], agg[tracing.EXTRA_B])
            for name, agg in spans.items()}


def per_layer_metrics(spans_list: list[dict], p: Pass, overhead_s: float) -> dict:
    """Per-layer metrics of one traced pass; times are means of the passes."""
    zero = (0, 0, 0, 0, 0)

    def count(name, slot=tracing.COUNT):
        return spans_list[0].get(name, zero)[slot]

    def ms(name, slot):
        return statistics.fmean(s.get(name, zero)[slot] for s in spans_list) / 1e6

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    filter_calls = 0
    for kind in PROPAGATOR_KINDS:
        name = f"propagators.{kind}"
        calls, pruned = count(name), count(name, tracing.EXTRA_A)
        filter_calls += calls
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.ms"] = (ms(name, tracing.INCL), "ms")
        out[f"{name}.prunings"] = (pruned, "count")
        out[f"{name}.prune_ratio"] = (ratio(pruned, calls), "ratio")
        out[f"{name}.fails"] = (count(name, tracing.EXTRA_B), "count")
    fixpoints = count("engine.fixpoint")
    out["engine.fixpoint.calls"] = (fixpoints, "count")
    out["engine.fixpoint.self_ms"] = (ms("engine.fixpoint", tracing.SELF), "ms")
    out["engine.fixpoint.filters_per_call"] = (ratio(filter_calls, fixpoints), "filters/call")
    out["engine.trail.undo_calls"] = (count("engine.trail.undo"), "count")
    out["engine.trail.undo_ms"] = (ms("engine.trail.undo", tracing.INCL), "ms")
    out["engine.trail.entries_undone"] = (count("engine.trail.undo", tracing.EXTRA_A), "count")
    nodes = total_nodes(p)
    failures = sum(run.failures for run in p.cells)
    out["engine.search.nodes"] = (nodes, "count")
    out["engine.search.failures"] = (failures, "count")
    out["engine.search.solutions"] = (sum(run.solutions for run in p.cells), "count")
    out["engine.search.fail_ratio"] = (ratio(failures, nodes), "ratio")
    out["engine.search.self_ms"] = (ms("engine.search", tracing.SELF), "ms")
    out["engine.materialise.values"] = (count("engine.materialise"), "count")
    out["engine.materialise.ms"] = (ms("engine.materialise", tracing.INCL), "ms")
    out["engine.setup.validate_ms"] = (ms("engine.setup.validate", tracing.INCL), "ms")
    out["engine.setup.watchers_ms"] = (ms("engine.setup.watchers", tracing.INCL), "ms")
    out["models.build.calls"] = (count("models.build"), "count")
    out["models.build.ms"] = (ms("models.build", tracing.INCL), "ms")
    # Sweep self time = its wall time minus the build_model and solve_all
    # spans nested in it.
    out["cli.sweep.cells"] = (len(p.cells) if count("cli.sweep") else 0, "count")
    out["cli.sweep.overhead_ms"] = (ms("cli.sweep", tracing.SELF), "ms")
    out["heuristics.select.calls"] = (count("heuristics.select"), "count")
    out["heuristics.select.self_ms"] = (ms("heuristics.select", tracing.SELF), "ms")
    out["heuristics.wdeg.calls"] = (count("heuristics.wdeg"), "count")
    out["heuristics.wdeg.ms"] = (ms("heuristics.wdeg", tracing.INCL), "ms")
    out["trace.overhead_s"] = (overhead_s, "s")
    return out


def pass_solve_s(p: Pass) -> float:
    return sum(run.ns for run in p.cells) / 1e9


# ---------------------------------------------------------------- entry point


def read_commit(root: Path) -> str:
    """HEAD commit read from .git files (no subprocess); 'unknown' outside git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_info() -> dict:
    return {
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "commit": read_commit(ROOT),
    }


def pass_order(workload: Workload, rng: random.Random) -> list:
    """A shuffled order of the cells (for a sweep: of its --variant flags);
    the cells themselves and their counts are fixed."""
    items = list(workload.variants if workload.sweep else workload.cells())
    rng.shuffle(items)
    return items


def measure(lf, workload, rng, seconds, pinned, tally):
    """Untraced passes for about `seconds`, each in its own order so that
    no cell always follows the same one, with set-up timed before and
    between them; returns (passes, median scaled set-up seconds, peak RSS
    in MB at the end of the first pass, the Speed used)."""
    oracle = Oracle(lf)
    cells = workload.cells()
    speed = Speed()
    deadline = time.perf_counter() + seconds
    setup_ns = time_setup(cells, speed)
    passes = []
    while True:
        round_start = time.perf_counter()
        leftover = tracing.leftover_wrappers(lf)
        if leftover:
            raise RuntimeError(f"tracing wrappers left before untraced timing: {leftover}")
        first = not passes
        p = run_pass(lf, workload, pass_order(workload, rng), keep_solutions=first, speed=speed)
        if first:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            check_solution_sets(p, oracle, tally)
        check_counts(workload, p, pinned, tally)
        passes.append(p)
        setup_ns += time_setup(cells, speed)
        # Start another round only if it should end within the time budget.
        now = time.perf_counter()
        if now + (now - round_start) > deadline:
            return passes, statistics.median(setup_ns) / 1e9, peak_rss_mb, speed


def measure_traced(lf, workload, rng, pinned, tally):
    """One untraced pass, then two traced ones, all in one order;
    per-layer metrics.

    The untraced pass runs first, before any wrapper is installed; the
    wrappers are removed again before returning."""
    oracle = Oracle(lf)
    order = pass_order(workload, rng)
    if tracing.leftover_wrappers(lf):
        raise RuntimeError("tracing wrappers present before the untraced pass")
    plain = run_pass(lf, workload, order, keep_solutions=True)
    check_solution_sets(plain, oracle, tally)
    check_counts(workload, plain, pinned, tally)
    tracer = tracing.Tracer()
    traced, spans = [], []
    tracer.install(lf)
    try:
        for _ in range(2):
            tracer.reset()
            p = run_pass(lf, workload, order, tracer=tracer)
            check_counts(workload, p, pinned, tally)
            traced.append(p)
            spans.append(tracer.snapshot())
    finally:
        tracer.uninstall()
    leftover = tracing.leftover_wrappers(lf)
    if leftover:
        tally.fail(f"tracing wrappers not removed: {leftover}")

    def counts(p):
        return sorted((r.key, r.nodes, r.failures, r.solutions) for r in p.cells)

    if not counts(plain) == counts(traced[0]) == counts(traced[1]):
        tally.fail("traced search counts differ from untraced counts")
    if layer_counts(spans[0]) != layer_counts(spans[1]):
        tally.fail("per-layer counts differ between the two traced passes")
    overhead_s = statistics.fmean(pass_solve_s(p) for p in traced) - pass_solve_s(plain)
    metrics = per_layer_metrics(spans, traced[0], overhead_s)
    check_separation(lf, workload, metrics, tally)
    return metrics, spans


def check_separation(lf, workload: Workload, metrics: dict, tally: Tally) -> None:
    """The traced counts that keep the workloads apart (README.md): no
    channel or element filter on positional-domwdeg; no wdeg and few
    materialised values on channelled."""
    limits = {}
    if workload.name == "positional-domwdeg":
        limits = {"propagators.inverse_channel.calls": 0,
                  "propagators.element_offset_const.calls": 0}
    elif workload.name == "channelled":
        model = lf.build_model(lf.Instance(3, 10), lf.VariantConfig(**CHANNELLED_DD_STATIC))
        limits = {"heuristics.wdeg.calls": 0,
                  "engine.materialise.values": 5 * model.num_vars}
    for name, limit in limits.items():
        tally.attempted += 1
        value = metrics[name][0]
        if value > limit:
            tally.fail(f"{name} is {value} on {workload.name}, at most {limit} allowed")


def run(workload: Workload, seed: int, seconds: float, trace: bool, pinned: dict) -> dict:
    """Run one workload; returns the result object (see module doc) plus
    'info' and, for a traced run, 'spans'."""
    tally = Tally()
    lf = load_langford()
    rng = random.Random(seed)
    result = {"info": run_info()}
    if trace:
        metrics, spans = measure_traced(lf, workload, rng, pinned, tally)
        result["spans"] = spans
    else:
        passes, setup_s, peak_rss_mb, speed = measure(lf, workload, rng, seconds, pinned, tally)
        metrics = end_to_end_metrics(passes, setup_s, peak_rss_mb)
        result["info"].update(
            passes=len(passes),
            calibration_loop_ms=statistics.median(speed.loop_ns) / 1e6,
            unscaled_solve_s=sum(median_cell_ms(passes, "ns")) / 1e3,
        )
    result.update(
        correct=tally.failed == 0,
        attempted=tally.attempted,
        failed=tally.failed,
        metrics={name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        errors=tally.messages,
    )
    return result


def load_pinned() -> dict:
    return json.loads(PINNED.read_text())["cells"]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "langford" / "__init__.py").is_file():
        print(f"error: no langford sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    result = run(workload, args.seed, args.seconds, bool(args.trace), load_pinned())

    info = result.pop("info")
    spans = result.pop("spans", None)
    errors = result.pop("errors")
    for message in errors:
        print(f"error: {message}", file=sys.stderr)
    if spans is not None:
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"trace-{workload.name}-seed{args.seed}.json"
        trace_path.write_text(json.dumps(
            {"workload": workload.name, "seed": args.seed, "info": info,
             "spans": spans, "metrics": result["metrics"]}, indent=1))
        info["trace_file"] = str(trace_path.relative_to(ROOT))
    print(f"# {workload.name} seed={args.seed} trace={args.trace} " + json.dumps(info))
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']} {metric['unit']}")
    print(f"error_rate {result['failed'] / max(result['attempted'], 1)} ratio "
          f"({result['failed']} of {result['attempted']} checks)")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
