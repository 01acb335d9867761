"""Experiment front end.

Subcommands: solve one instance/variant, sweep a grid into a CSV, render a
markdown report from a sweep CSV, run the brute-force enumerator, and
export a DIMACS encoding. Batch outputs only; exit codes: 0 done, 1 usage
or input error, 2 timeout.
"""

from __future__ import annotations

import argparse
import csv
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from .engine import solve_all
from .heuristics import HeuristicKind
from .models import Instance, VariantConfig, build_model
from .oracle import enumerate_bruteforce
from .satgen import encode, write_dimacs

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

TRIVIAL_NODE_BOUND = 5

DEFAULT_SWEEP_VARIANTS = [
    "model=positional,sym=p,heuristic=domoverwdeg",
    "model=channelled,branch=d,sym=d,cons=both,heuristic=static",
    "model=channelled,branch=d,sym=d,cons=p,heuristic=static",
    "model=channelled,branch=d,sym=p,cons=both,heuristic=static",
    "model=channelled,branch=d,sym=p,cons=p,heuristic=static",
    "model=channelled,branch=d,sym=d,cons=both,heuristic=sdf",
]


@dataclass
class RunRecord:
    """One CSV row of a solver run."""

    k: int
    n: int
    model: str
    branch: Optional[str]
    sym: str
    cons: Optional[str]
    heuristic: str
    solutions: int
    nodes: int
    failures: int
    time_ms: int
    timed_out: bool

    @property
    def label(self) -> str:
        return f"{self.k:02d}_{self.n:02d}"

    @property
    def trivial(self) -> bool:
        return self.nodes < TRIVIAL_NODE_BOUND

    def sort_key(self) -> tuple:
        return (
            self.k,
            self.n,
            self.model,
            self.branch or "",
            self.sym,
            self.cons or "",
            self.heuristic,
        )

    def to_csv(self) -> list[str]:
        return [
            str(self.k),
            str(self.n),
            self.model,
            self.branch or "",
            self.sym,
            self.cons or "",
            self.heuristic,
            str(self.solutions),
            str(self.nodes),
            str(self.failures),
            str(self.time_ms),
            "true" if self.timed_out else "false",
        ]

    @classmethod
    def from_csv(cls, row: Sequence[str]) -> "RunRecord":
        return cls(
            k=int(row[0]),
            n=int(row[1]),
            model=row[2],
            branch=row[3] or None,
            sym=row[4],
            cons=row[5] or None,
            heuristic=row[6],
            solutions=int(row[7]),
            nodes=int(row[8]),
            failures=int(row[9]),
            time_ms=int(row[10]),
            timed_out=row[11] == "true",
        )


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
            sym=args.sym if args.sym is not None else _default_sym(args.model),
            cons=(args.cons or "both") if args.model == "channelled" else None,
            heuristic=HeuristicKind(args.heuristic),
            implied=not getattr(args, "no_implied", False),
        )
    except ValueError as exc:
        parser.error(str(exc))


def _default_sym(model: str) -> str:
    return {"direct": "d", "positional": "p", "channelled": "d"}[model]


def run(
    instance: Instance,
    config: VariantConfig,
    node_limit: Optional[int] = None,
    time_limit: Optional[float] = None,
):
    """Build and solve one cell: returns (model, solutions, RunRecord)."""
    model = build_model(instance, config)
    solutions, stats = solve_all(model, node_limit=node_limit, time_limit=time_limit)
    record = RunRecord(
        k=instance.k,
        n=instance.n,
        model=config.model,
        branch=config.branch,
        sym=config.sym,
        cons=config.cons,
        heuristic=config.heuristic.value,
        solutions=len(solutions),
        nodes=stats.nodes,
        failures=stats.failures,
        time_ms=stats.elapsed_ms,
        timed_out=stats.timed_out,
    )
    return model, solutions, record


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
        header = next(reader, None)
        if header != CSV_FIELDS:
            raise ValueError(f"{path}:1: bad header {header!r}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                records.append(RunRecord.from_csv(row))
            except (IndexError, ValueError) as exc:
                raise ValueError(f"{path}:{lineno}: malformed row: {exc}") from exc
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
    model, solutions, record = run(instance, config, args.node_limit, args.timeout)
    print(
        f"{record.label} {config.label()}: solutions={record.solutions} "
        f"nodes={record.nodes} failures={record.failures} "
        f"time_ms={record.time_ms} timed_out={str(record.timed_out).lower()}"
    )
    if args.print_solutions:
        for sol in solutions:
            print(" ".join(map(str, model.sequence_of(sol))))
    if out:
        try:
            with open(out, "a", newline="") as fh:
                writer = csv.writer(fh)
                if fresh:
                    writer.writerow(CSV_FIELDS)
                writer.writerow(record.to_csv())
        except OSError as exc:
            return _cannot_write(out, exc)
    return 2 if record.timed_out else 0


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
        if key not in ("model", "branch", "sym", "cons", "heuristic", "implied"):
            parser.error(f"unknown variant key {key!r}")
        if key == "implied":
            if value not in ("true", "false"):
                parser.error(f"implied takes true or false, not {value!r}")
            value = value == "true"
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
        key = (config.model, config.branch or "", config.sym, config.cons or "",
               config.heuristic.value)
        if key in configs:
            parser.error(f"variants {configs[key][0]!r} and {text!r} write the same CSV rows")
        configs[key] = (text, config)
    return configs


def cmd_sweep(parser, args) -> int:
    bad = _bad_limit(args)
    if bad:
        return _error(bad)
    if args.full:
        k_range = range(2, 7)
        n_range = range(2, 18)
    else:
        k_range = range(args.k_min, args.k_max + 1)
        n_range = range(args.n_min, args.n_max + 1)
    try:
        instances = [Instance(k, n) for k in k_range for n in n_range]
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
    existing: dict[tuple, RunRecord] = {}
    if args.skip_existing and out.exists():
        try:
            for rec in _read_csv(out):
                existing[rec.sort_key()] = rec
        except ValueError as exc:
            return _error(exc)

    tasks = [
        (instance, config, args.node_limit, args.timeout)
        for instance in instances
        for key, (_, config) in configs.items()
        if (instance.k, instance.n) + key not in existing
    ]
    records = list(existing.values())
    if args.jobs > 1:
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


def _column_label(rec: RunRecord) -> str:
    if rec.model == "channelled":
        base = f"branch:{rec.branch.upper()} sym:{rec.sym.upper()} cons:{rec.cons.capitalize()}"
    else:
        base = f"{rec.model} sym:{rec.sym.upper()}"
    return f"{base} {rec.heuristic}"


def render_report(records: list[RunRecord]) -> str:
    """Markdown node-count table: instances as rows, variants as columns,
    row minima in bold, Mean and Sum footers over the non-trivial rows."""
    records = sorted(records, key=RunRecord.sort_key)
    columns: list[str] = []
    col_of: dict[str, int] = {}
    rows: dict[tuple[int, int], dict[int, RunRecord]] = {}
    for rec in records:
        label = _column_label(rec)
        if label not in col_of:
            col_of[label] = len(columns)
            columns.append(label)
        rows.setdefault((rec.k, rec.n), {})[col_of[label]] = rec

    lines = [
        f"Nodes are branching commits (assignments and value removals); an "
        f"instance row is trivial when some variant solved it in under "
        f"{TRIVIAL_NODE_BOUND} nodes. Mean/Sum cover non-trivial rows with a "
        f"complete, untimed-out set of entries.",
        "",
        "| Instance | " + " | ".join(columns) + " |",
        "|---" * (len(columns) + 1) + "|",
    ]
    sums = [0] * len(columns)
    aggregated = 0
    for (k, n), cells in sorted(rows.items()):
        present = [cells.get(i) for i in range(len(columns))]
        finished = [rec.nodes for rec in present if rec is not None and not rec.timed_out]
        min_nodes = min(finished) if finished else None
        rendered = []
        for rec in present:
            if rec is None:
                rendered.append("")
            elif rec.timed_out:
                rendered.append("t/o")
            elif rec.nodes == min_nodes:
                rendered.append(f"**{rec.nodes:,}**")
            else:
                rendered.append(f"{rec.nodes:,}")
        label = f"{k:02d}_{n:02d}"
        lines.append(f"| {label} | " + " | ".join(rendered) + " |")
        complete = all(rec is not None and not rec.timed_out for rec in present)
        trivial = min_nodes is not None and min_nodes < TRIVIAL_NODE_BOUND
        if complete and not trivial:
            aggregated += 1
            for i, rec in enumerate(present):
                sums[i] += rec.nodes
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


def cmd_export_dimacs(parser, args) -> int:
    config = _variant_from_args(parser, args)
    try:
        instance = Instance(args.k, args.n)
    except ValueError as exc:
        return _error(exc)
    cnf = encode(build_model(instance, config))
    try:
        write_dimacs(cnf, args.out)
    except OSError as exc:
        return _cannot_write(args.out, exc)
    print(f"wrote {cnf.num_vars} vars, {len(cnf.clauses)} clauses to {args.out}")
    return 0


_FLAG_ONLY_KEYS = {"print-solutions", "skip-existing", "full", "no-implied"}


def _apply_config(argv: list[str]) -> list[str]:
    """Expand `--config FILE` or `--config=FILE` (key=value lines mirroring
    long flag names) into flags appended after the explicit ones; explicit
    flags, `--flag value` and `--flag=value` alike, win."""
    for at, token in enumerate(argv):
        if token == "--config":
            path = argv[at + 1]
            argv = argv[:at] + argv[at + 2 :]
            break
        if token.startswith("--config="):
            path = token.split("=", 1)[1]
            argv = argv[:at] + argv[at + 1 :]
            break
    else:
        return argv
    given = {token.split("=", 1)[0] for token in argv if token.startswith("--")}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        flag = "--" + key.replace("_", "-")
        if flag in given:
            continue
        if key.replace("_", "-") in _FLAG_ONLY_KEYS:
            if value.lower() in ("1", "true", "yes"):
                argv.append(flag)
        else:
            argv.extend([flag, value])
    return argv


def _add_variant_flags(sub) -> None:
    sub.add_argument("--k", type=int, required=True)
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--model", choices=["direct", "positional", "channelled"], required=True)
    sub.add_argument("--branch", choices=["d", "p"])
    sub.add_argument("--sym", choices=["d", "p", "none"])
    sub.add_argument("--cons", choices=["both", "d", "p"])
    sub.add_argument(
        "--heuristic",
        choices=[h.value for h in HeuristicKind],
        default="static",
    )
    sub.add_argument("--no-implied", action="store_true",
                     help="drop the redundant per-number occurrence constraints")


def build_parser() -> _Parser:
    parser = _Parser(prog="langford", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one instance/variant")
    _add_variant_flags(p_solve)
    p_solve.add_argument("--timeout", type=float, help="wall-clock limit in seconds")
    p_solve.add_argument("--node-limit", type=int)
    p_solve.add_argument("--print-solutions", action="store_true")
    p_solve.add_argument("--out", help="CSV file to append the run row to")
    p_solve.add_argument("--config", help="key=value defaults file")
    p_solve.set_defaults(func=cmd_solve)

    p_sweep = sub.add_parser("sweep", help="run a grid of instances and variants")
    p_sweep.add_argument("--k-min", type=int, default=2)
    p_sweep.add_argument("--k-max", type=int, default=4)
    p_sweep.add_argument("--n-min", type=int, default=2)
    p_sweep.add_argument("--n-max", type=int, default=10)
    p_sweep.add_argument("--full", action="store_true",
                         help="the full grid: k 2..6, n 2..17 (pair with a long --timeout)")
    p_sweep.add_argument("--variant", action="append",
                         help="model=...,branch=...,sym=...,cons=...,heuristic=... (repeatable)")
    p_sweep.add_argument("--timeout", type=float, default=60.0)
    p_sweep.add_argument("--node-limit", type=int)
    p_sweep.add_argument("--jobs", type=int, default=1)
    p_sweep.add_argument("--skip-existing", action="store_true")
    p_sweep.add_argument("--out", default="sweep.csv")
    p_sweep.add_argument("--config", help="key=value defaults file")
    p_sweep.set_defaults(func=cmd_sweep)

    p_report = sub.add_parser("report", help="render a sweep CSV as markdown")
    p_report.add_argument("csv")
    p_report.add_argument("--out")
    p_report.set_defaults(func=cmd_report)

    p_oracle = sub.add_parser("oracle", help="brute-force enumeration count")
    p_oracle.add_argument("--k", type=int, required=True)
    p_oracle.add_argument("--n", type=int, required=True)
    p_oracle.add_argument("--sym", choices=["none", "first-less-last"], default="none")
    p_oracle.add_argument("--print-solutions", action="store_true")
    p_oracle.set_defaults(func=cmd_oracle)

    p_dimacs = sub.add_parser("export-dimacs", help="write a DIMACS encoding")
    _add_variant_flags(p_dimacs)
    p_dimacs.add_argument("--out", required=True)
    p_dimacs.set_defaults(func=cmd_export_dimacs)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv = _apply_config(argv)
    except IndexError:  # `--config` was the last argument
        return _error("--config needs a file")
    except (OSError, ValueError) as exc:
        return _error(f"bad config file: {exc}")
    args = parser.parse_args(argv)
    return args.func(parser, args)


if __name__ == "__main__":
    sys.exit(main())
