"""Experiment front end.

Subcommands: solve one instance/variant, sweep a grid into a CSV, render a
markdown report from a sweep CSV, and run the brute-force enumerator.
Batch outputs only; exit codes: 0 done, 1 usage or input error, or a
reader that closed stdout early (e.g. `| head`; no traceback, and `solve`
appends no row), 2 a `solve` stopped by --node-limit or --timeout. A
`sweep` cell stopped by either is a row with timed_out `true`, and the
sweep exits 0. `solve` streams: it holds one solution at a time, prints
each as it is found under --print-solutions, and prints its summary
line last.

`solve --out` and `sweep` append each row to the CSV as its run ends, a
sweep in run order: instances by k then n, then the --variant specs as
given, under --jobs N too. A stopped sweep keeps its finished rows, and
`--skip-existing` resumes it. `report` sorts the rows it reads.

A CSV row is a `RunRecord`: the instance (k, n), the variant key (model,
branch, sym, cons, heuristic) and the search's `SearchStats` (solutions,
nodes, failures, time_ms = elapsed_ms, timed_out).
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from collections import namedtuple
from pathlib import Path
from typing import Iterable, Optional, Sequence

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
VARIANT_KEYS = CSV_FIELDS[2:7]  # the VariantConfig fields, set by solve flags or a sweep spec

TRIVIAL_NODE_BOUND = 5

def _variant_key(config: VariantConfig) -> tuple[str, str, str, str, str]:
    """The CSV fields naming a variant: model, branch, sym, cons, heuristic."""
    return (config.model, config.branch or "", config.sym, config.cons or "",
            config.heuristic.value)


class RunRecord(namedtuple("RunRecord", "instance config stats")):
    """One CSV row: an instance, a variant and the counters of its search."""

    __slots__ = ()

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
        valid instance and variant, every number is a non-negative int as
        `to_csv` writes it (canonical decimal) and timed_out is `true` or `false`."""
        if len(row) != len(CSV_FIELDS):
            raise ValueError(f"{len(row)} fields, not {len(CSV_FIELDS)}")
        numbers = (*row[:2], *row[7:11])
        k, n, solutions, nodes, failures, time_ms = ints = [int(f) for f in numbers]
        if min(ints) < 0 or tuple(map(str, ints)) != numbers:
            raise ValueError(f"{numbers}: not all canonical non-negative ints")
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


def _variant(parser, fields: dict, given: str) -> VariantConfig:
    """The variant of `fields`, the VARIANT_KEYS given by solve's flags or
    one sweep spec, which `given` words as the user typed them. An omitted
    key takes solve's default: sym p on a positional model, else d; cons
    both on a channelled model; heuristic static. A variant that
    VariantConfig rejects is a usage error that quotes `given`."""
    model = fields["model"]
    defaults = {"sym": "p" if model == "positional" else "d",
                "cons": "both" if model == "channelled" else None}
    try:
        return VariantConfig(**{**defaults, **fields})
    except ValueError as exc:
        parser.error(f"{given}: {exc}")


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


def _append_rows(path: Path, records: Iterable[RunRecord]) -> None:
    """Append each record's row to `path` as it comes, and flush it: a header
    goes into an empty file, and a last line that has no line ending is
    ended first. Raises OSError."""
    with open(path, "a", newline="") as fh:
        writer = csv.writer(fh)
        if fh.tell() == 0:
            writer.writerow(CSV_FIELDS)
        elif path.read_bytes()[-1:] not in b"\r\n":
            fh.write("\r\n")
        for rec in records:
            writer.writerow(rec.to_csv())
            fh.flush()  # in the file, not a buffer, before the next run starts


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


def _read_out(path: Path) -> Optional[list[RunRecord]]:
    """The rows of an --out file, or None after an error line unless the file
    can be written and is new, empty or a langford CSV. It is left as it was."""
    try:  # the write probe: an existing file is opened for appending, a new one removed again
        if not path.exists():
            open(path, "x").close()
            path.unlink()
            return []
        open(path, "a").close()
    except OSError as exc:
        _cannot_write(path, exc)
        return None
    try:
        return _read_csv(path)
    except (OSError, ValueError) as exc:
        _error(exc)
        return None


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
    fields = {key: value for key in VARIANT_KEYS if (value := getattr(args, key)) is not None}
    config = _variant(parser, fields, " ".join(f"--{key} {value}" for key, value in fields.items()))
    bad = _bad_limit(args)
    if bad:
        return _error(bad)
    try:
        instance = Instance(args.k, args.n)
    except ValueError as exc:
        return _error(exc)
    out = Path(args.out) if args.out else None
    if out and _read_out(out) is None:  # before the search, whose result would be lost
        return 1
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
        sys.stdout.flush()  # a row only for a solve whose output all went out
        try:
            _append_rows(out, [RunRecord(instance, config, stats)])
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
    """The sweep's variants by CSV key (less k and n), each built once by
    `_variant`, as solve builds its one. A spec that VariantConfig rejects
    and two specs with the same key are usage errors."""
    configs: dict[tuple, tuple[str, VariantConfig]] = {}
    for text in args.variant:
        fields = _parse_variant_spec(parser, text)
        spec = ",".join(f"{key}={value}" for key, value in fields.items())
        config = _variant(parser, fields, f"variant spec {spec!r}")
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

    out = Path(args.out)
    if (read := _read_out(out)) is None:  # before the first cell, not after the whole grid
        return 1
    existing = {rec.sort_key() for rec in read} if args.skip_existing else set()

    tasks = [
        (instance, config, args.node_limit, args.timeout)
        for instance in instances
        for key, (_, config) in configs.items()
        if (instance, *key) not in existing
    ]
    try:
        if not args.skip_existing:
            out.write_bytes(b"")
        if args.jobs > 1:
            from concurrent.futures import ProcessPoolExecutor  # loaded by a parallel sweep only
            with ProcessPoolExecutor(max_workers=args.jobs) as pool:
                _append_rows(out, pool.map(_sweep_cell, tasks))  # in task order
        else:
            _append_rows(out, map(_sweep_cell, tasks))
    except OSError as exc:
        return _cannot_write(out, exc)
    print(f"wrote {len(tasks)} rows to {out}")
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
    p_solve.add_argument("--heuristic", choices=[h.value for h in HeuristicKind])
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
    p_sweep.add_argument("--variant", action="append", required=True,
                         help="model=...,branch=...,sym=...,cons=...,heuristic=... (required, "
                              "repeatable); an omitted key takes solve's default: sym p on a "
                              "positional model, else d; cons both on a channelled model; "
                              "heuristic static")
    p_sweep.add_argument("--timeout", type=float, default=60.0)
    p_sweep.add_argument("--node-limit", type=int)
    p_sweep.add_argument("--jobs", type=int, default=1, help="worker processes (1: run in this one)")
    p_sweep.add_argument("--skip-existing", action="store_true", help="skip each cell that --out has "
                         "a row for, finished or timed out; every row read stays in place")
    p_sweep.add_argument("--out", default="sweep.csv", help="CSV file; an existing one must "
                         "be empty or a langford CSV (no cell runs otherwise), and is appended "
                         "to under --skip-existing, else emptied first")
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
    try:
        code = args.func(parser, args)
        sys.stdout.flush()  # a closed pipe fails here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit: send what is left to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
