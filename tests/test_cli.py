from __future__ import annotations

import argparse
import csv
import errno
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest

from langford import cli
from langford.cli import CSV_FIELDS, RunRecord, main, render_report
from langford.engine import SearchStats, solve_all
from langford.heuristics import HeuristicKind
from langford.models import (
    BRANCH_CHOICES, CONS_CHOICES, MODEL_KINDS, SYM_CHOICES, Instance, VariantConfig, build_model,
)
from langford.oracle import SYMMETRY_CHOICES

# a row whose last field is one character over the csv module's field limit
HUGE_FIELD_ROW = "2,3,direct,,d,,static,1,0,0,1," + "x" * (csv.field_size_limit() + 1)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def rows_less_time(path):
    time_ms = CSV_FIELDS.index("time_ms")
    return [row[:time_ms] + row[time_ms + 1:] for row in read_rows(path)]


# Runs every subcommand but a parallel sweep, checks that none of them
# loaded the process pool, nor dataclasses or inspect (which an import of
# langford need not pay for; the interpreter's start-up may have loaded
# them already), then that a --jobs 2 sweep loads the pool.
POOL_PROBE = """
import sys
before = set(sys.modules)
from langford.cli import main
out = sys.argv[1]
sweep = ["sweep", "--k-min", "2", "--k-max", "2", "--n-min", "3", "--n-max", "4",
         "--variant", "model=direct,sym=d", "--out", out]
assert main(["solve", "--k", "2", "--n", "4", "--model", "positional"]) == 0
assert main(sweep + ["--jobs", "1"]) == 0
assert main(["report", out]) == 0
assert main(["oracle", "--k", "2", "--n", "4"]) == 0
assert not {"concurrent.futures", "multiprocessing"} & set(sys.modules)
assert not {"dataclasses", "inspect"} & (set(sys.modules) - before)
assert main(sweep + ["--jobs", "2"]) == 0
assert "concurrent.futures" in sys.modules
print("pool loaded by --jobs 2 only")
"""


class TestSolve:
    def test_direct_counts(self, capsys):
        assert main(["solve", "--k", "2", "--n", "3", "--model", "direct", "--sym", "d"]) == 0
        out = capsys.readouterr().out
        assert "solutions=1" in out

    def test_positional_unsat(self, capsys):
        code = main(["solve", "--k", "2", "--n", "5", "--model", "positional", "--sym", "p"])
        assert code == 0
        assert "solutions=0" in capsys.readouterr().out

    def test_channelled_26(self, capsys):
        code = main(
            [
                "solve", "--k", "2", "--n", "7", "--model", "channelled",
                "--branch", "d", "--sym", "d", "--cons", "both",
                "--heuristic", "static",
            ]
        )
        assert code == 0
        assert "solutions=26" in capsys.readouterr().out

    def test_print_solutions(self, capsys):
        main(
            ["solve", "--k", "2", "--n", "3", "--model", "direct", "--sym", "d",
             "--print-solutions"]
        )
        assert "2 3 1 2 1 3" in capsys.readouterr().out

    def test_a_reader_that_stops_early_gets_no_traceback_and_no_row(self, tmp_path):
        # `solve --print-solutions | head -1`: L(2,11)'s 17,792 lines overflow
        # the pipe, so the solve is still printing when the reader goes
        out = tmp_path / "runs.csv"
        src = Path(cli.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (str(src), os.environ.get("PYTHONPATH"))))}
        argv = [sys.executable, "-m", "langford.cli", "solve", "--k", "2", "--n", "11",
                "--model", "positional", "--sym", "p", "--print-solutions", "--out", str(out)]
        with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True) as proc:
            first = proc.stdout.readline()
            proc.stdout.close()
            _, err = proc.communicate(timeout=120)
        assert len(first.split()) == 22
        assert proc.returncode == 1
        assert err == ""
        assert not out.exists()

    @pytest.mark.parametrize("limit", [[], ["--node-limit", "400"]], ids=["full", "node-limit"])
    def test_streamed_solutions_match_solve_all(self, capsys, limit):
        # the solutions print as the search finds them, in solve_all's
        # order, and the summary line comes last with solve_all's counts
        argv = ["solve", "--k", "2", "--n", "7", "--model", "positional", "--sym", "none",
                "--print-solutions", *limit]
        code = main(argv)
        model = build_model(Instance(2, 7), VariantConfig("positional", sym="none"))
        solutions, stats = solve_all(model, node_limit=int(limit[1]) if limit else None)
        *printed, summary = capsys.readouterr().out.splitlines()
        assert code == (2 if limit else 0)
        assert stats.timed_out == bool(limit)
        assert 0 < len(solutions) < 52 if limit else len(solutions) == 52
        assert printed == [" ".join(map(str, model.sequence_of(s))) for s in solutions]
        assert re.sub(r"time_ms=\d+", "time_ms=T", summary) == (
            f"02_07 positional sym:NONE static: solutions={stats.solutions} "
            f"nodes={stats.nodes} failures={stats.failures} time_ms=T "
            f"timed_out={str(stats.timed_out).lower()}")

    def test_incompatible_flags_exit_1(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["solve", "--k", "2", "--n", "3", "--model", "direct", "--branch", "d"])
        assert info.value.code == 1
        # the error names the flags given, not a sweep spec
        assert capsys.readouterr().err.endswith(
            "error: --model direct --branch d: branch/cons only apply to channelled models\n")

    def test_node_limit_timeout_exit_2(self, capsys):
        code = main(
            ["solve", "--k", "2", "--n", "7", "--model", "positional", "--sym", "p",
             "--node-limit", "10"]
        )
        assert code == 2
        assert "timed_out=true" in capsys.readouterr().out

    @pytest.mark.parametrize("flag, value, message", [
        ("--node-limit", "-5", "--node-limit must be at least 1, not -5"),
        ("--node-limit", "0", "--node-limit must be at least 1, not 0"),
        ("--timeout", "-1", "--timeout must be positive, not -1.0"),
    ], ids=["node-limit-negative", "node-limit-zero", "timeout-negative"])
    def test_bad_limit_exit_1(self, capsys, monkeypatch, flag, value, message):
        calls = []
        monkeypatch.setattr(cli, "iter_solutions", lambda *task, **limits: calls.append(task))
        code = main(["solve", "--k", "2", "--n", "3", "--model", "direct", flag, value])
        assert code == 1
        assert calls == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_csv_append(self, tmp_path, capsys):
        out = tmp_path / "runs.csv"
        for n in ("3", "4"):
            main(["solve", "--k", "2", "--n", n, "--model", "direct", "--sym", "d",
                  "--out", str(out)])
        rows = read_rows(out)
        assert rows[0] == CSV_FIELDS
        assert len(rows) == 3
        assert rows[1][:3] == ["2", "3", "direct"]
        assert rows[1][11] == "false"

    @pytest.mark.parametrize("rows", [0, 1], ids=["header-only", "one-row"])
    def test_csv_append_ends_a_last_line_without_its_ending(self, tmp_path, capsys, rows):
        # report and sweep accept a CSV whose last line has no line ending,
        # so solve must end that line before it appends its row
        out = tmp_path / "runs.csv"
        solve = ["solve", "--k", "2", "--n", "3", "--model", "direct", "--sym", "d",
                 "--out", str(out)]
        if rows:
            assert main(solve) == 0
            out.write_bytes(out.read_bytes().rstrip(b"\r\n"))
        else:
            out.write_text(",".join(CSV_FIELDS))
        assert main(solve) == 0
        lines = read_rows(out)
        assert lines[0] == CSV_FIELDS
        assert len(lines) == rows + 2
        assert all(len(row) == len(CSV_FIELDS) and row[:3] == ["2", "3", "direct"]
                   for row in lines[1:])
        assert main(["report", str(out)]) == 0

    def test_csv_append_refuses_foreign_header(self, tmp_path, capsys):
        out = tmp_path / "runs.csv"
        out.write_text("a,b,c\n1,2,3\n")
        code = main(["solve", "--k", "2", "--n", "3", "--model", "direct", "--sym", "d",
                     "--out", str(out)])
        assert code == 1
        assert str(out) in capsys.readouterr().err
        assert out.read_text() == "a,b,c\n1,2,3\n"

    def test_csv_append_refuses_malformed_row(self, tmp_path, capsys):
        out = tmp_path / "runs.csv"
        for row in ("2,3,direct,,d,,static,1,0,0,1,maybe", HUGE_FIELD_ROW):
            text = ",".join(CSV_FIELDS) + "\n" + row + "\n"
            out.write_text(text)
            code = main(["solve", "--k", "2", "--n", "3", "--model", "direct", "--sym", "d",
                         "--out", str(out)])
            assert code == 1
            assert f"{out}:2: malformed row" in capsys.readouterr().err
            assert out.read_text() == text

    def test_unwritable_out_fails_before_search(self, tmp_path, capsys):
        out = tmp_path / "missing" / "runs.csv"
        code = main(["solve", "--k", "2", "--n", "3", "--model", "direct", "--sym", "d",
                     "--out", str(out)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""  # no result line: the search never ran
        assert captured.err.startswith(f"error: cannot write {out}: ")

    def test_out_of_range_instance(self, capsys):
        assert main(["solve", "--k", "1", "--n", "3", "--model", "direct"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: k must be at least 2\n"


class TestSweep:
    def test_tiny_grid_schema_and_order(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main(
            ["sweep", "--k-min", "2", "--k-max", "2", "--n-min", "2", "--n-max", "4",
             "--variant", "model=direct,sym=d",
             "--variant", "model=positional,sym=p,heuristic=sdf",
             "--out", str(out)]
        )
        assert code == 0
        rows = read_rows(out)
        assert rows[0] == CSV_FIELDS
        assert len(rows) == 1 + 3 * 2
        keys = [(int(r[0]), int(r[1]), r[2], r[3], r[4], r[5], r[6]) for r in rows[1:]]
        assert keys == sorted(keys)

    def test_stopped_cell_is_a_timed_out_row_and_exit_0(self, tmp_path, capsys):
        # only solve exits 2 on a stopped search; a sweep records the row
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--k-min", "2", "--k-max", "2", "--n-min", "4", "--n-max", "4",
                     "--variant", "model=direct", "--node-limit", "1", "--out", str(out)])
        assert code == 0
        rows = read_rows(out)
        assert len(rows) == 2
        assert rows[1][:10] + rows[1][11:] == "2,4,direct,,d,,static,0,1,0,true".split(",")

    def test_skip_existing_idempotent(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        args = ["sweep", "--k-min", "2", "--k-max", "2", "--n-min", "3", "--n-max", "4",
                "--variant", "model=direct,sym=d", "--out", str(out)]
        assert main(args) == 0
        first = out.read_bytes()
        assert main(args + ["--skip-existing"]) == 0
        assert out.read_bytes() == first

    def test_skip_existing_refuses_malformed_row(self, tmp_path, capsys, monkeypatch):
        # two malformed rows, then an --out that can be appended to but not
        # read (mode 0200 for a user other than root), faked by its reader
        out = tmp_path / "sweep.csv"
        monkeypatch.setattr(cli, "run", lambda *a: pytest.fail("a cell ran"))

        def unreadable(path):
            raise PermissionError(13, "Permission denied", str(path))

        for row, read_csv, message in (
            ("2,3,bogus,,d,,static,1,0,0,1,false", cli._read_csv, f"{out}:2: malformed row"),
            (HUGE_FIELD_ROW, cli._read_csv, f"{out}:2: malformed row"),
            ("2,3,direct,,d,,static,1,6,3,1,false", unreadable, f"Permission denied: '{out}'"),
        ):
            monkeypatch.setattr(cli, "_read_csv", read_csv)
            text = ",".join(CSV_FIELDS) + "\n" + row + "\n"
            out.write_text(text)
            code = main(["sweep", "--k-min", "2", "--k-max", "2", "--n-min", "3", "--n-max", "3",
                         "--variant", "model=direct,sym=d", "--skip-existing", "--out", str(out)])
            assert code == 1
            assert message in capsys.readouterr().err
            assert out.read_text() == text

    def test_out_that_is_not_a_csv_is_refused(self, tmp_path, capsys, monkeypatch):
        # without --skip-existing too: a sweep rewrites only an empty file
        # or a langford CSV, as solve appends only to one
        out = tmp_path / "notes.txt"
        out.write_bytes(b"precious\n")
        monkeypatch.setattr(cli, "run", lambda *a: pytest.fail("a cell ran"))
        code = main(["sweep", "--k-min", "2", "--k-max", "2", "--n-min", "3", "--n-max", "3",
                     "--variant", "model=direct", "--out", str(out)])
        assert code == 1
        assert f"{out}:1: bad header" in capsys.readouterr().err
        assert out.read_bytes() == b"precious\n"

    def test_skip_existing_empty_out_is_fresh(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        out.touch()
        code = main(["sweep", "--k-min", "2", "--k-max", "2", "--n-min", "3", "--n-max", "4",
                     "--variant", "model=direct,sym=d", "--skip-existing", "--out", str(out)])
        assert code == 0
        rows = read_rows(out)
        assert rows[0] == CSV_FIELDS
        assert [row[:3] for row in rows[1:]] == [["2", "3", "direct"], ["2", "4", "direct"]]

    def test_skip_existing_keeps_every_row_read(self, tmp_path, capsys):
        # a cell recorded twice, once finished and once cut by its node
        # limit, keeps both rows when a sweep of another cell rewrites the file
        out = tmp_path / "runs.csv"
        solve = ["solve", "--k", "2", "--n", "4", "--model", "direct", "--sym", "d", "--out", str(out)]
        assert main(solve) == 0
        assert main(solve + ["--node-limit", "1"]) == 2
        assert main(["sweep", "--k-min", "2", "--k-max", "2", "--n-min", "3", "--n-max", "3",
                     "--variant", "model=direct,sym=d", "--skip-existing", "--out", str(out)]) == 0
        rows = read_rows(out)[1:]
        fields = CSV_FIELDS.index("n"), CSV_FIELDS.index("nodes"), CSV_FIELDS.index("timed_out")
        assert sorted(tuple(row[i] for i in fields) for row in rows) == [
            ("3", "0", "false"), ("4", "1", "true"), ("4", "34", "false"),
        ]

    @pytest.mark.parametrize("argv, message", [
        (["--k-min", "3", "--k-max", "2", "--n-min", "3", "--n-max", "3",
          "--variant", "model=direct,sym=d"], "error: no instance in k 3..2, n 3..3\n"),
    ], ids=["empty-grid"])
    def test_nothing_to_run_keeps_existing_csv(self, tmp_path, capsys, monkeypatch, argv, message):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--k-min", "2", "--k-max", "2", "--n-min", "3", "--n-max", "4",
                     "--variant", "model=direct,sym=d", "--out", str(out)]) == 0
        before = out.read_bytes()
        capsys.readouterr()
        calls = []
        monkeypatch.setattr(cli, "run", lambda *task: calls.append(task))
        assert main(["sweep", *argv, "--out", str(out)]) == 1
        assert calls == []
        assert capsys.readouterr().err.endswith(message)
        assert out.read_bytes() == before

    @pytest.mark.parametrize("specs, message, existing", [
        (["model=direct,sym=d,implied=true"], "unknown variant key 'implied'", None),
        (["model=direct,sym=d", "model=direct,sym=d,heuristic=static"],
         "write the same CSV rows", None),
        (["model=direct,model=positional,sym=p"],
         "variant spec 'model=direct,model=positional,sym=p' gives model twice", None),
        (["model=direct,sym=p"],
         "variant spec 'model=direct,sym=p': sym 'p' needs position variables", None),
        (["model=positional,sym=p,heuristic=domwdeg"], "'domwdeg'", None),
        (["model=direct,sym=p", "model=positional,sym=d"], "variant spec 'model=direct,sym=p': ",
         (",".join(CSV_FIELDS) + "\n2,3,direct,,d,,static,1,6,3,1,false\n").encode()),
    ], ids=["unknown-key", "duplicate-csv-key", "repeated-key", "invalid-combo",
            "unknown-heuristic", "every-spec-invalid-keeps-out"])
    def test_bad_variant_specs_exit_1(self, tmp_path, capsys, monkeypatch, specs, message, existing):
        calls = []
        monkeypatch.setattr(cli, "run", lambda *task: calls.append(task))
        out = tmp_path / "sweep.csv"
        if existing is not None:
            out.write_bytes(existing)
        argv = ["sweep", "--k-min", "2", "--k-max", "2", "--n-min", "3", "--n-max", "3",
                "--out", str(out)]
        for spec in specs:
            argv += ["--variant", spec]
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 1
        assert calls == []
        assert message in capsys.readouterr().err
        if existing is None:
            assert not out.exists()
        else:
            assert out.read_bytes() == existing

    @pytest.mark.parametrize("spec", [
        "model=direct",
        "model=positional,heuristic=sdf",
        "model=channelled,branch=d",
        "model=channelled,branch=p,cons=p",
    ])
    def test_spec_and_solve_flags_write_the_same_row(self, tmp_path, capsys, spec):
        # an omitted key takes one default, whether a sweep spec or solve's flags omit it
        swept, solved = tmp_path / "sweep.csv", tmp_path / "solve.csv"
        assert main(["sweep", "--k-min", "2", "--k-max", "2", "--n-min", "3", "--n-max", "3",
                     "--variant", spec, "--out", str(swept)]) == 0
        flags = [arg for token in spec.split(",") for arg in f"--{token}".split("=")]
        assert main(["solve", "--k", "2", "--n", "3", *flags, "--out", str(solved)]) == 0
        fields = slice(0, CSV_FIELDS.index("time_ms"))  # the instance, variant and counts
        assert [row[fields] for row in read_rows(swept)] == [row[fields] for row in read_rows(solved)]

    def test_unwritable_out_runs_no_cell(self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "run", lambda *task: calls.append(task))
        out = tmp_path / "missing" / "sweep.csv"
        code = main(["sweep", "--k-min", "2", "--k-max", "2", "--n-min", "3", "--n-max", "4",
                     "--variant", "model=direct,sym=d", "--out", str(out)])
        assert code == 1
        assert calls == []
        assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")
        assert list(tmp_path.iterdir()) == []

    def test_out_of_range_runs_no_cell(self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "run", lambda *task: calls.append(task))
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--k-min", "1", "--k-max", "2", "--n-min", "3", "--n-max", "3",
                     "--variant", "model=direct,sym=d", "--out", str(out)])
        assert code == 1
        assert calls == []
        assert capsys.readouterr().err == "error: k must be at least 2\n"
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--jobs", "0", "--jobs must be at least 1, not 0"),
        ("--jobs", "-3", "--jobs must be at least 1, not -3"),
        ("--node-limit", "-5", "--node-limit must be at least 1, not -5"),
        ("--node-limit", "0", "--node-limit must be at least 1, not 0"),
        ("--timeout", "-1", "--timeout must be positive, not -1.0"),
    ], ids=["jobs-zero", "jobs-negative", "node-limit-negative", "node-limit-zero",
            "timeout-negative"])
    def test_bad_limit_runs_no_cell(self, tmp_path, capsys, monkeypatch, flag, value, message):
        calls = []
        monkeypatch.setattr(cli, "run", lambda *task: calls.append(task))
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--k-min", "2", "--k-max", "2", "--n-min", "3", "--n-max", "3",
                     "--variant", "model=direct,sym=d", "--out", str(out), flag, value])
        assert code == 1
        assert calls == []
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_parallel_matches_serial(self, tmp_path, capsys):
        serial = tmp_path / "serial.csv"
        parallel = tmp_path / "parallel.csv"
        base = ["sweep", "--k-min", "2", "--k-max", "3", "--n-min", "2", "--n-max", "4",
                "--variant", "model=positional,sym=p"]
        assert main(base + ["--out", str(serial)]) == 0
        assert main(base + ["--out", str(parallel), "--jobs", "3"]) == 0
        strip = lambda rows: [r[:10] + r[11:] for r in rows]  # drop time_ms
        assert strip(read_rows(serial)) == strip(read_rows(parallel))

    def test_rows_are_written_in_run_order(self, tmp_path, capsys):
        # instances by k then n, then the --variant flags as given, not
        # sorted, and a process pool writes the same order
        argv = ["sweep", "--k-min", "2", "--k-max", "3", "--n-min", "3", "--n-max", "4",
                "--variant", "model=positional", "--variant", "model=direct"]
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs-{jobs}.csv"
            assert main(argv + ["--jobs", jobs, "--out", str(out)]) == 0
            assert [tuple(row[:3]) for row in read_rows(out)[1:]] == [
                (k, n, model) for k in "23" for n in "34" for model in ("positional", "direct")]

    def test_a_stopped_sweep_keeps_its_finished_rows_and_resumes(self, tmp_path, capsys,
                                                                  monkeypatch):
        # the third cell raises: the first two rows are on disk, and
        # --skip-existing then writes the rows of an uninterrupted sweep
        whole, out = tmp_path / "whole.csv", tmp_path / "stopped.csv"
        argv = ["sweep", "--k-min", "2", "--k-max", "2", "--n-min", "3", "--n-max", "5",
                "--variant", "model=direct", "--variant", "model=channelled,branch=p"]
        assert main(argv + ["--out", str(whole)]) == 0
        inner, calls = cli.run, []

        def run(*task):
            calls.append(task)
            if len(calls) == 3:
                raise RuntimeError("the third cell")
            return inner(*task)

        monkeypatch.setattr(cli, "run", run)
        with pytest.raises(RuntimeError, match="the third cell"):
            main(argv + ["--out", str(out)])
        assert rows_less_time(out) == rows_less_time(whole)[:3]  # the header and two rows
        monkeypatch.setattr(cli, "run", inner)
        assert main(argv + ["--skip-existing", "--out", str(out)]) == 0
        assert rows_less_time(out) == rows_less_time(whole)

    def test_a_failed_row_write_keeps_the_rows_read(self, tmp_path, capsys, monkeypatch):
        # a --skip-existing sweep whose first new row meets a full disk
        # exits 1 and leaves the file as it was
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--k-min", "2", "--k-max", "2", "--n-min", "3", "--n-max", "4",
                "--variant", "model=direct", "--out", str(out)]
        assert main(argv) == 0
        before = out.read_bytes()
        capsys.readouterr()

        def full_disk(*args, **kwargs):
            fh = open(*args, **kwargs)

            def write(text):
                raise OSError(errno.ENOSPC, "No space left on device")

            fh.write = write
            return fh

        monkeypatch.setattr(cli, "open", full_disk, raising=False)
        assert main(argv + ["--variant", "model=positional", "--skip-existing"]) == 1
        assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")
        assert out.read_bytes() == before

    def test_only_a_parallel_sweep_loads_the_process_pool(self, tmp_path):
        # a fresh interpreter, so no earlier test has imported the pool
        src = Path(cli.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (str(src), os.environ.get("PYTHONPATH"))))}
        result = subprocess.run([sys.executable, "-c", POOL_PROBE, str(tmp_path / "s.csv")],
                                env=env, capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "pool loaded by --jobs 2 only"


class TestReport:
    def build_rows(self):
        mk = lambda k, n, cons, nodes, timed=False: RunRecord(
            Instance(k, n),
            VariantConfig("channelled", branch="d", sym="d", cons=cons),
            SearchStats(nodes=nodes, solutions=1, elapsed_ms=1, timed_out=timed),
        )
        return [
            mk(2, 6, "both", 40), mk(2, 6, "p", 28),
            mk(2, 7, "both", 100), mk(2, 7, "p", 100),
            mk(2, 8, "both", 3), mk(2, 8, "p", 4),  # trivial row
        ]

    def test_bold_minimum_and_ties(self, tmp_path):
        text = render_report(self.build_rows())
        lines = text.splitlines()
        row_06 = next(l for l in lines if l.startswith("| 02_06"))
        assert "**28**" in row_06 and "**40**" not in row_06
        row_07 = next(l for l in lines if l.startswith("| 02_07"))
        assert row_07.count("**100**") == 2  # both bold on a tie

    def test_footer_over_non_trivial_rows(self, tmp_path):
        text = render_report(self.build_rows())
        lines = text.splitlines()
        mean = next(l for l in lines if l.startswith("| Mean"))
        total = next(l for l in lines if l.startswith("| Sum"))
        # trivial 02_08 row is excluded: sums are 40+100 and 28+100
        assert total.split("|")[2].strip() == "140"
        assert total.split("|")[3].strip() == "128"
        assert mean.split("|")[2].strip() == "70"
        assert mean.split("|")[3].strip() == "64"

    @pytest.mark.parametrize("finished_first", [True, False], ids=["finished-first", "timed-out-first"])
    def test_finished_row_of_a_cell_beats_a_timed_out_one(self, tmp_path, capsys, finished_first):
        # the same cell solved to its end (34 nodes) and stopped at one
        # node: the report shows the finished row whichever comes later
        out = tmp_path / "runs.csv"
        runs = [((), 0), (("--node-limit", "1"), 2)]
        for extra, code in runs if finished_first else runs[::-1]:
            argv = ["solve", "--k", "2", "--n", "4", "--model", "direct", "--sym", "d", *extra]
            assert main([*argv, "--out", str(out)]) == code
        assert len(out.read_text().splitlines()) == 3  # the header and both rows
        capsys.readouterr()
        assert main(["report", str(out)]) == 0
        row = next(l for l in capsys.readouterr().out.splitlines() if l.startswith("| 02_04"))
        assert row == "| 02_04 | **34** |"

    def test_report_does_not_depend_on_row_order(self, tmp_path, capsys):
        # a sweep writes its rows in run order, and report sorts them
        rows = [rec.to_csv() for rec in self.build_rows()]
        reports = []
        for order in (rows, rows[::-1]):
            path = tmp_path / "runs.csv"
            with open(path, "w", newline="") as fh:
                csv.writer(fh).writerows([CSV_FIELDS, *order])
            assert main(["report", str(path)]) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]

    def test_report_cmd_round_trip(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        main(["sweep", "--k-min", "2", "--k-max", "2", "--n-min", "6", "--n-max", "7",
              "--variant", "model=positional,sym=p",
              "--variant", "model=channelled,branch=d,sym=d,cons=both",
              "--out", str(out)])
        capsys.readouterr()
        assert main(["report", str(out)]) == 0
        text = capsys.readouterr().out
        assert "| Instance |" in text
        assert "| 02_06 |" in text and "| 02_07 |" in text
        assert "| Sum |" in text

    def test_malformed_csv_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text(",".join(CSV_FIELDS) + "\n2,3,direct,,d,,static,1,0,0,1,false\nnot,a,row\n")
        assert main(["report", str(bad)]) == 1
        assert ":3:" in capsys.readouterr().err

    @pytest.mark.parametrize("row", [
        "2,3,channelled,,d,,static,1,0,0,0,false",  # channelled without branch or cons
        "2,3,bogus,,d,,static,1,0,0,1,false",  # unknown model
        "2,3,direct,,p,,static,1,0,0,1,false",  # sym p on the direct model
        "2,3,direct,,d,,fastest,1,0,0,1,false",  # unknown heuristic
        "2,3,direct,,d,,static,1,0,0,1,maybe",  # timed_out neither true nor false
        "2,3,direct,,d,,static,1,-4,0,1,false",  # negative count
        "2,3,direct,,d,,static,1_0,0,0,1,false",  # int() reads 1_0 as 10
        "2,3,direct,,d,,static,1,+2,0,1,false",  # a sign
        "2,3,direct,,d,,static,1,0, 3,1,false",  # a space
        "2,3,direct,,d,,static,1,0,0,007,false",  # leading zeros
        "1,3,direct,,d,,static,1,0,0,1,false",  # k below 2
        "2,3,direct,,d,,static,1,0,0,1,false,extra",  # too many fields
        HUGE_FIELD_ROW,  # csv.Error, not ValueError
    ], ids=["no-branch", "model", "sym", "heuristic", "timed-out", "negative", "underscore", "sign",
            "space", "leading-zeros", "k", "fields", "huge-field"])
    def test_malformed_row_rejected(self, tmp_path, capsys, row):
        bad = tmp_path / "bad.csv"
        bad.write_text(",".join(CSV_FIELDS) + "\n" + row + "\n")
        assert main(["report", str(bad)]) == 1
        assert f"{bad}:2: malformed row" in capsys.readouterr().err

    def test_header_only_csv_renders_an_empty_table(self, tmp_path, capsys):
        # a 0-byte file holds no rows either, as it does for solve and sweep
        csv_path = tmp_path / "sweep.csv"
        for text in (",".join(CSV_FIELDS) + "\n", ""):
            csv_path.write_text(text)
            assert main(["report", str(csv_path)]) == 0
            assert capsys.readouterr().out.splitlines()[-2:] == ["| Instance |", "|---|"]

    def test_wrong_header_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b,c\n")
        assert main(["report", str(bad)]) == 1

    def test_unwritable_out(self, tmp_path, capsys):
        csv_path = tmp_path / "sweep.csv"
        csv_path.write_text(",".join(CSV_FIELDS) + "\n2,3,direct,,d,,static,1,0,0,1,false\n")
        out = tmp_path / "missing" / "report.md"
        assert main(["report", str(csv_path), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")


class TestOracleCmd:
    def test_count(self, capsys):
        assert main(["oracle", "--k", "2", "--n", "7", "--sym", "first-less-last"]) == 0
        assert capsys.readouterr().out.strip() == "26"

    def test_guard_exit_1(self, capsys):
        assert main(["oracle", "--k", "2", "--n", "20"]) == 1
        assert "guard" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["export-dimacs", "--k", "2", "--n", "3", "--model", "positional", "--out", "model.cnf"],
     "invalid choice: 'export-dimacs'"),
    (["solve", "--k", "2", "--n", "3", "--model", "direct", "--config", "run.conf"],
     "unrecognized arguments: --config run.conf"),
    (["sweep", "--variant", "model=direct,sym=d", "--full"], "unrecognized arguments: --full"),
    (["solve", "--k", "2", "--n", "3", "--model", "direct", "--no-implied"],
     "unrecognized arguments: --no-implied"),
    (["sweep", "--k-min", "2", "--k-max", "2", "--n-min", "3", "--n-max", "3"],
     "the following arguments are required: --variant"),
], ids=["export-dimacs", "solve-config", "sweep-full", "solve-no-implied", "sweep-no-variant"])
def test_removed_surface_is_usage_error(capsys, monkeypatch, argv, message):
    calls = []
    monkeypatch.setattr(cli, "run", lambda *task: calls.append(task))
    monkeypatch.setattr(cli, "iter_solutions", lambda *task, **limits: calls.append(task))
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 1
    assert calls == []
    err = capsys.readouterr().err
    assert err.startswith("usage: langford ")
    assert message in err


def test_solve_choices_are_the_variant_values():
    # one list of each variant axis's values, in models, serves both the
    # VariantConfig check and solve's flags; the oracle's one list of
    # symmetry filters serves its check and oracle --sym
    commands = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    choices = {action.dest: action.choices for action in commands.choices["solve"]._actions}
    assert tuple(choices["model"]) == MODEL_KINDS
    assert tuple(choices["branch"]) == BRANCH_CHOICES
    assert tuple(choices["sym"]) == SYM_CHOICES
    assert tuple(choices["cons"]) == CONS_CHOICES
    assert list(choices["heuristic"]) == [h.value for h in HeuristicKind]
    oracle = {action.dest: action.choices for action in commands.choices["oracle"]._actions}
    assert tuple(oracle["sym"]) == SYMMETRY_CHOICES


def test_every_variant_field_is_a_csv_column():
    assert list(VariantConfig._fields) == CSV_FIELDS[2:7]


def test_instance_label():
    assert Instance(2, 6).label == "02_06"
    assert Instance(3, 12).label == "03_12"


EVERY_MODEL_KIND = pytest.mark.parametrize("config", [
    VariantConfig("direct", sym="d"),
    VariantConfig("positional", sym="none", heuristic=HeuristicKind.DOM_OVER_WDEG),
    VariantConfig("channelled", branch="p", sym="p", cons="d", heuristic=HeuristicKind.WDEG),
], ids=["direct", "positional", "channelled"])


@EVERY_MODEL_KIND
@pytest.mark.parametrize("node_limit", [None, 1], ids=["finished", "timed-out"])
def test_record_csv_round_trip(config, node_limit):
    _, solutions, rec = cli.run(Instance(2, 4), config, node_limit=node_limit)
    assert rec.stats.timed_out == (node_limit is not None)
    assert rec.stats.solutions == len(solutions)
    assert RunRecord.from_csv(rec.to_csv()) == rec


@EVERY_MODEL_KIND
def test_record_pickle_round_trip(config):
    # what a --jobs N sweep's workers send back
    rec = cli.run(Instance(2, 4), config)[2]
    assert pickle.loads(pickle.dumps(rec)) == rec


GOLDEN_SOLVE = [
    (["--model", "direct", "--sym", "d"],
     "02_04 direct sym:D static: solutions=1 nodes=34 failures=17 time_ms=7 timed_out=false\n"),
    (["--model", "positional", "--sym", "none", "--heuristic", "domoverwdeg"],
     "02_04 positional sym:NONE domoverwdeg: solutions=2 nodes=12 failures=5 time_ms=7 "
     "timed_out=false\n"),
    (["--model", "channelled", "--branch", "p", "--sym", "p", "--cons", "d", "--heuristic", "wdeg"],
     "02_04 channelled branch:P sym:P cons:D wdeg: solutions=1 nodes=30 failures=15 time_ms=7 "
     "timed_out=false\n"),
]

GOLDEN_CSV = """\
k,n,model,branch,sym,cons,heuristic,solutions,nodes,failures,time_ms,timed_out
2,4,direct,,d,,static,1,34,17,7,false
2,4,positional,,none,,domoverwdeg,2,12,5,7,false
2,4,channelled,p,p,d,wdeg,1,30,15,7,false
"""

GOLDEN_REPORT_TABLE = """\
| Instance | branch:P sym:P cons:D wdeg | direct sym:D static | positional sym:NONE domoverwdeg |
|---|---|---|---|
| 02_04 | 30 | 34 | **12** |
"""


def test_golden_solve_lines_and_report(tmp_path, capsys, monkeypatch):
    # the solve line, CSV row and report column of each model kind are
    # derived from the record's Instance, VariantConfig and SearchStats
    inner = cli.iter_solutions

    def iter_solutions(model, stats, *args, **kwargs):
        yield from inner(model, stats, *args, **kwargs)
        stats.elapsed_ms = 7

    monkeypatch.setattr(cli, "iter_solutions", iter_solutions)
    out = tmp_path / "runs.csv"
    for flags, line in GOLDEN_SOLVE:
        assert main(["solve", "--k", "2", "--n", "4", *flags, "--out", str(out)]) == 0
        assert capsys.readouterr().out == line
    assert out.read_text() == GOLDEN_CSV
    assert main(["report", str(out)]) == 0
    assert capsys.readouterr().out.split("\n\n", 1)[1].startswith(GOLDEN_REPORT_TABLE)
