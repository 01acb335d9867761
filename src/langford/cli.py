"""Experiment front end.

Subcommands: solve one instance/variant, sweep a grid into a CSV, render a
markdown report from a sweep CSV, and run the brute-force enumerator.
Batch outputs only; exit codes: 0 done, 1 usage or input error, 2 timeout.
`solve` streams: it holds one solution at a time, prints each as it is
found under --print-solutions, and prints its summary line last.

A CSV row is a `RunRecord`: the instance (k, n), the variant key (model,
branch, sym, cons, heuristic) and the search's `SearchStats` (solutions,
nodes, failures, time_ms = elapsed_ms, timed_out).
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from .engine import SearchStats, iter_solutions, solve_all
from .heuristics import HeuristicKind
from .models import (
    BRANCH_CHOICES,
    CONS_CHOICES,
    MODEL_KINDS,
    SYM_CHOICES,
    Instance,
    VariantConfig,
    build_model,
)
from .oracle import SYMMETRY_CHOICES, enumerate_bruteforce

CSV_FIELDS = [
    "k",
    "n",
    "model",
    "branch",
    "sym",
    "cons",
    "heuristic",
    "solutions",
    "nodes",
    "failures",
    "time_ms",
    "timed_out",
]
VARIANT_KEYS = CSV_FIELDS[2:7]  # the VariantConfig fields, which a sweep spec sets

TRIVIAL_NODE_BOUND = 5

DEFAULT_SWEEP_VARIANTS = [
    "model=positional,sym=p,heuristic=domoverwdeg",
    "model=channelled,branch=d,sym=d,cons=both,heuristic=static",
    "model=channelled,branch=d,sym=d,cons=p,heuristic=static",
    "model=channelled,branch=d,sym=p,cons=both,heuristic=static",
    "model=channelled,branch=d,sym=p,cons=p,heuristic=static",
    "model=channelled,branch=d,sym=d,cons=both,heuristic=sdf",
]


def _variant_key(config: VariantConfig) -> tuple[str, str, str, str, str]:
    """The CSV fields naming a variant: model, branch, sym, cons, heuristic."""
    return (config.model, config.branch or "", config.sym, config.cons or "",
            config.heuristic.value)


@dataclass
class RunRecord:
    """One CSV row: an instance, a variant and the counters of its search."""

    instance: Instance
    config: VariantConfig
    stats: SearchStats

    def sort_key(self) -> tuple:
        return (self.instance, *_variant_key(self.config))

    def to_csv(self) -> list[str]:
        s = self.stats
        return [
            str(self.instance.k),
            str(self.instance.n),
            *_variant_key(self.config),
            *map(str, (s.solutions, s.nodes, s.failures, s.elapsed_ms)),
            "true" if s.timed_out else "false",
        ]

    @classmethod
    def from_csv(cls, row: Sequence[str]) -> "RunRecord":
        """The record of one CSV row; ValueError unless the row names a
        valid instance and variant, every count is a non-negative int and
        timed_out is `true` or `false`."""
        if len(row) != len(CSV_FIELDS):
            raise ValueError(f"{len(row)} fields, not {len(CSV_FIELDS)}")
        k, n, solutions, nodes, failures, time_ms = map(int, (*row[:2], *row[7:11]))
        if min(solutions, nodes, failures, time_ms) < 0:
            raise ValueError("negative count")
        if row[11] not in ("true", "false"):
            raise ValueError(f"timed_out is {row[11]!r}, not true or false")
        instance = Instance(k, n)
        config = VariantConfig(
            model=row[2], branch=row[3] or None, sym=row[4], cons=row[5] or None, heuristic=row[6]
        )
        stats = SearchStats(nodes=nodes, failures=failures, solutions=solutions,
                            elapsed_ms=time_ms, timed_out=row[11] == "true")
        return cls(instance, config, stats)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _variant_from_args(parser, args) -> VariantConfig:
    if args.model != "channelled" and (args.branch or args.cons):
        parser.error("--branch/--cons only apply to --model channelled")
    try:
        return VariantConfig(
            model=args.model,
            branch=args.branch if args.model == "channelled" else None,
            sym=args.sym or ("p" if args.model == "positional" else "d"),
            cons=(args.cons or "both") if args.model == "channelled" else None,
            heuristic=HeuristicKind(args.heuristic),
        )
    except ValueError as exc:
        parser.error(str(exc))


def run(
    instance: Instance,
    config: VariantConfig,
    node_limit: Optional[int] = None,
    time_limit: Optional[float] = None,
):
    """Build and solve one cell: returns (model, solutions, RunRecord)."""
    model = build_model(instance, config)
    solutions, stats = solve_all(model, node_limit=node_limit, time_limit=time_limit)
    return model, solutions, RunRecord(instance, config, stats)


def _sweep_cell(task) -> RunRecord:
    return run(*task)[2]


def _write_csv(path: Path, records: list[RunRecord]) -> None:
    records = sorted(records, key=RunRecord.sort_key)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_FIELDS)
        for rec in records:
            writer.writerow(rec.to_csv())


def _error(message) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def _bad_limit(args) -> Optional[str]:
    """Why a run limit or job count is unusable, or None when all are fine."""
    if args.node_limit is not None and args.node_limit < 1:
        return f"--node-limit must be at least 1, not {args.node_limit}"
    if args.timeout is not None and not args.timeout > 0:
        return f"--timeout must be positive, not {args.timeout}"
    if getattr(args, "jobs", 1) < 1:
        return f"--jobs must be at least 1, not {args.jobs}"
    return None


def _cannot_write(path, exc: OSError) -> int:
    return _error(f"cannot write {path}: {exc}")


def _probe_writable(path: Path) -> None:
    """Raise OSError unless `path` can be written. An existing file is
    opened for appending and left as it was; a new one is removed again."""
    if path.exists():
        open(path, "a").close()
    else:
        open(path, "x").close()
        path.unlink()


def _read_csv(path: Path) -> list[RunRecord]:
    records = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)  # None only for a 0-byte file: no rows, as for solve and sweep
            if header == CSV_FIELDS:
                records = [RunRecord.from_csv(row) for row in reader if row]
        except (csv.Error, ValueError) as exc:  # csv.Error: e.g. a field over the size limit
            raise ValueError(f"{path}:{reader.line_num}: malformed row: {exc}") from exc
    if header not in (None, CSV_FIELDS):
        raise ValueError(f"{path}:1: bad header {header!r}")
    return records


def cmd_solve(parser, args) -> int:
    config = _variant_from_args(parser, args)
    bad = _bad_limit(args)
    if bad:
        return _error(bad)
    try:
        instance = Instance(args.k, args.n)
    except ValueError as exc:
        return _error(exc)
    out = Path(args.out) if args.out else None
    fresh = out is None or not out.exists() or out.stat().st_size == 0
    if not fresh:
        try:
            _read_csv(out)  # append only to a CSV that report and sweep can read
        except (OSError, ValueError) as exc:
            return _error(exc)
    if out:
        try:
            _probe_writable(out)  # before the search, whose result would be lost
        except OSError as exc:
            return _cannot_write(out, exc)
    model = build_model(instance, config)
    stats = SearchStats()
    for sol in iter_solutions(model, stats, node_limit=args.node_limit, time_limit=args.timeout):
        if args.print_solutions:
            print(" ".join(map(str, model.sequence_of(sol))))
    print(
        f"{instance.label} {config.label()}: solutions={stats.solutions} "
        f"nodes={stats.nodes} failures={stats.failures} "
        f"time_ms={stats.elapsed_ms} timed_out={str(stats.timed_out).lower()}"
    )
    if out:
        try:
            with open(out, "a", newline="") as fh:
                writer = csv.writer(fh)
                if fresh:
                    writer.writerow(CSV_FIELDS)
                writer.writerow(RunRecord(instance, config, stats).to_csv())
        except OSError as exc:
            return _cannot_write(out, exc)
    return 2 if stats.timed_out else 0


def _parse_variant_spec(parser, text: str) -> dict:
    variant: dict = {}
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if "=" not in token:
            parser.error(f"bad variant token {token!r} (expected key=value)")
        key, value = token.split("=", 1)
        key = key.strip()
        value = value.strip()
        if key not in VARIANT_KEYS:
            parser.error(f"unknown variant key {key!r}")
        if key in variant:
            parser.error(f"variant spec {text!r} gives {key} twice")
        variant[key] = value
    if "model" not in variant:
        parser.error(f"variant spec {text!r} needs model=...")
    return variant


def _sweep_configs(parser, args) -> dict[tuple, tuple[str, VariantConfig]]:
    """The sweep's variants by CSV key (less k and n), each built once. A
    spec that VariantConfig rejects is skipped with a message; two specs
    with the same key are a usage error."""
    configs: dict[tuple, tuple[str, VariantConfig]] = {}
    for text in args.variant or DEFAULT_SWEEP_VARIANTS:
        try:
            config = VariantConfig(**_parse_variant_spec(parser, text))
        except ValueError as exc:
            print(f"skipping variant {text!r}: {exc}", file=sys.stderr)
            continue
        key = _variant_key(config)
        if key in configs:
            parser.error(f"variants {configs[key][0]!r} and {text!r} write the same CSV rows")
        configs[key] = (text, config)
    return configs


def cmd_sweep(parser, args) -> int:
    bad = _bad_limit(args)
    if bad:
        return _error(bad)
    try:
        instances = [Instance(k, n)
                     for k in range(args.k_min, args.k_max + 1)
                     for n in range(args.n_min, args.n_max + 1)]
    except ValueError as exc:
        return _error(exc)
    if not instances:
        return _error(f"no instance in k {args.k_min}..{args.k_max}, n {args.n_min}..{args.n_max}")
    configs = _sweep_configs(parser, args)
    if not configs:
        return _error("every variant was skipped")

    out = Path(args.out)
    try:
        _probe_writable(out)  # before the first cell, not after the whole grid
    except OSError as exc:
        return _cannot_write(out, exc)
    records: list[RunRecord] = []  # every row read is written back, repeats included
    if args.skip_existing and out.exists():
        try:
            records = _read_csv(out)
        except ValueError as exc:
            return _error(exc)
    existing = {rec.sort_key() for rec in records}

    tasks = [
        (instance, config, args.node_limit, args.timeout)
        for instance in instances
        for key, (_, config) in configs.items()
        if (instance, *key) not in existing
    ]
    if args.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # loaded by a parallel sweep only
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            records.extend(pool.map(_sweep_cell, tasks))
    else:
        records.extend(map(_sweep_cell, tasks))
    try:
        _write_csv(out, records)
    except OSError as exc:
        return _cannot_write(out, exc)
    print(f"wrote {len(records)} rows to {out}")
    return 0


def render_report(records: list[RunRecord]) -> str:
    """Markdown node-count table: instances as rows, variants as columns,
    row minima in bold, Mean and Sum footers over the non-trivial rows. Of
    a cell's rows the last finished one shows, else the last timed out."""
    records = sorted(records, key=RunRecord.sort_key)
    columns: list[str] = []
    col_of: dict[str, int] = {}
    rows: dict[Instance, dict[int, SearchStats]] = {}
    for rec in records:
        label = rec.config.label().removeprefix("channelled ")
        if label not in col_of:
            col_of[label] = len(columns)
            columns.append(label)
        row = rows.setdefault(rec.instance, {})
        kept = row.get(col_of[label])
        if kept is None or kept.timed_out or not rec.stats.timed_out:
            row[col_of[label]] = rec.stats

    lines = [
        f"Nodes are branching commits (assignments and value removals); an "
        f"instance row is trivial when some variant solved it in under "
        f"{TRIVIAL_NODE_BOUND} nodes. Mean/Sum cover non-trivial rows with a "
        f"complete, untimed-out set of entries.",
        "",
        "| " + " | ".join(["Instance", *columns]) + " |",
        "|---" * (len(columns) + 1) + "|",
    ]
    sums = [0] * len(columns)
    aggregated = 0
    for instance, cells in sorted(rows.items()):
        present = [cells.get(i) for i in range(len(columns))]
        finished = [stats.nodes for stats in present if stats is not None and not stats.timed_out]
        min_nodes = min(finished) if finished else None
        rendered = []
        for stats in present:
            if stats is None:
                rendered.append("")
            elif stats.timed_out:
                rendered.append("t/o")
            elif stats.nodes == min_nodes:
                rendered.append(f"**{stats.nodes:,}**")
            else:
                rendered.append(f"{stats.nodes:,}")
        lines.append(f"| {instance.label} | " + " | ".join(rendered) + " |")
        complete = all(stats is not None and not stats.timed_out for stats in present)
        trivial = min_nodes is not None and min_nodes < TRIVIAL_NODE_BOUND
        if complete and not trivial:
            aggregated += 1
            for i, stats in enumerate(present):
                sums[i] += stats.nodes
    if aggregated:
        means = [f"{round(total / aggregated):,}" for total in sums]
        lines.append("| Mean | " + " | ".join(means) + " |")
        lines.append("| Sum | " + " | ".join(f"{total:,}" for total in sums) + " |")
    return "\n".join(lines) + "\n"


def cmd_report(parser, args) -> int:
    try:
        records = _read_csv(Path(args.csv))
    except (OSError, ValueError) as exc:
        return _error(exc)
    text = render_report(records)
    if args.out:
        try:
            Path(args.out).write_text(text)
        except OSError as exc:
            return _cannot_write(args.out, exc)
    else:
        print(text, end="")
    return 0


def cmd_oracle(parser, args) -> int:
    try:
        arrangements = enumerate_bruteforce(args.k, args.n, args.sym)
    except ValueError as exc:
        return _error(exc)
    print(len(arrangements))
    if args.print_solutions:
        for arr in arrangements:
            print(" ".join(map(str, arr)))
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="langford", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one instance/variant")
    p_solve.add_argument("--k", type=int, required=True)
    p_solve.add_argument("--n", type=int, required=True)
    p_solve.add_argument("--model", choices=MODEL_KINDS, required=True)
    p_solve.add_argument("--branch", choices=BRANCH_CHOICES)
    p_solve.add_argument("--sym", choices=SYM_CHOICES)
    p_solve.add_argument("--cons", choices=CONS_CHOICES)
    p_solve.add_argument(
        "--heuristic",
        choices=[h.value for h in HeuristicKind],
        default="static",
    )
    p_solve.add_argument("--timeout", type=float, help="wall-clock limit in seconds")
    p_solve.add_argument("--node-limit", type=int)
    p_solve.add_argument("--print-solutions", action="store_true",
                         help="print each solution as it is found, before the summary "
                              "line; time_ms then includes the printing")
    p_solve.add_argument("--out", help="CSV file to append the run row to")
    p_solve.set_defaults(func=cmd_solve)

    p_sweep = sub.add_parser("sweep", help="run a grid of instances and variants")
    p_sweep.add_argument("--k-min", type=int, default=2)
    p_sweep.add_argument("--k-max", type=int, default=4)
    p_sweep.add_argument("--n-min", type=int, default=2)
    p_sweep.add_argument("--n-max", type=int, default=10)
    p_sweep.add_argument("--variant", action="append",
                         help="model=...,branch=...,sym=...,cons=...,heuristic=... (repeatable); an "
                              "omitted key takes VariantConfig's default (sym none, heuristic static, "
                              "no branch or cons: a channelled spec must give both), unlike solve, "
                              "whose --sym defaults by model and --cons to both")
    p_sweep.add_argument("--timeout", type=float, default=60.0)
    p_sweep.add_argument("--node-limit", type=int)
    p_sweep.add_argument("--jobs", type=int, default=1, help="worker processes (1: run in this one)")
    p_sweep.add_argument("--skip-existing", action="store_true", help="skip each cell that --out has "
                         "a row for, finished or timed out, and keep every row read")
    p_sweep.add_argument("--out", default="sweep.csv")
    p_sweep.set_defaults(func=cmd_sweep)

    p_report = sub.add_parser("report", help="render a sweep CSV as markdown")
    p_report.add_argument("csv")
    p_report.add_argument("--out")
    p_report.set_defaults(func=cmd_report)

    p_oracle = sub.add_parser("oracle", help="brute-force enumeration count")
    p_oracle.add_argument("--k", type=int, required=True)
    p_oracle.add_argument("--n", type=int, required=True)
    p_oracle.add_argument("--sym", choices=SYMMETRY_CHOICES, default="none")
    p_oracle.add_argument("--print-solutions", action="store_true")
    p_oracle.set_defaults(func=cmd_oracle)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(parser, args)


if __name__ == "__main__":
    sys.exit(main())
