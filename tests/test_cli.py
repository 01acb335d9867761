from __future__ import annotations

import argparse
import csv
import dataclasses
import os
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


# Runs every subcommand but a parallel sweep, checks that none of them
# loaded the process pool, then that a --jobs 2 sweep does.
POOL_PROBE = """
import sys
from langford.cli import main
out = sys.argv[1]
sweep = ["sweep", "--k-min", "2", "--k-max", "2", "--n-min", "3", "--n-max", "4",
         "--variant", "model=direct,sym=d", "--out", out]
assert main(["solve", "--k", "2", "--n", "4", "--model", "positional"]) == 0
assert main(sweep + ["--jobs", "1"]) == 0
assert main(["report", out]) == 0
assert main(["oracle", "--k", "2", "--n", "4"]) == 0
assert not {"concurrent.futures", "multiprocessing"} & set(sys.modules)
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

    def test_skip_existing_idempotent(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        args = ["sweep", "--k-min", "2", "--k-max", "2", "--n-min", "3", "--n-max", "4",
                "--variant", "model=direct,sym=d", "--out", str(out)]
        assert main(args) == 0
        first = out.read_bytes()
        assert main(args + ["--skip-existing"]) == 0
        assert out.read_bytes() == first

    def test_skip_existing_refuses_malformed_row(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "sweep.csv"
        monkeypatch.setattr(cli, "run", lambda *a: pytest.fail("a cell ran"))
        for row in ("2,3,bogus,,d,,static,1,0,0,1,false", HUGE_FIELD_ROW):
            text = ",".join(CSV_FIELDS) + "\n" + row + "\n"
            out.write_text(text)
            code = main(["sweep", "--k-min", "2", "--k-max", "2", "--n-min", "3", "--n-max", "3",
                         "--variant", "model=direct,sym=d", "--skip-existing", "--out", str(out)])
            assert code == 1
            assert f"{out}:2: malformed row" in capsys.readouterr().err
            assert out.read_text() == text

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

    def test_invalid_variant_combo_skipped(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main(
            ["sweep", "--k-min", "2", "--k-max", "2", "--n-min", "3", "--n-max", "3",
             "--variant", "model=direct,sym=p", "--variant", "model=direct,sym=d",
             "--out", str(out)]
        )
        assert code == 0
        assert len(read_rows(out)) == 2  # header and the one valid variant's row
        assert "skipping variant 'model=direct,sym=p'" in capsys.readouterr().err

    def test_unknown_heuristic_named(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main(
            ["sweep", "--k-min", "2", "--k-max", "2", "--n-min", "3", "--n-max", "3",
             "--variant", "model=positional,sym=p,heuristic=domwdeg",
             "--variant", "model=positional,sym=p", "--out", str(out)]
        )
        assert code == 0
        assert "'domwdeg'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["--k-min", "3", "--k-max", "2", "--n-min", "3", "--n-max", "3",
          "--variant", "model=direct,sym=d"], "error: no instance in k 3..2, n 3..3\n"),
        (["--k-min", "2", "--k-max", "2", "--n-min", "3", "--n-max", "3",
          "--variant", "model=direct,sym=p", "--variant", "model=positional,sym=d"],
         "error: every variant was skipped\n"),
    ], ids=["empty-grid", "every-variant-skipped"])
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

    @pytest.mark.parametrize("specs, message", [
        (["model=direct,sym=d,implied=true"], "unknown variant key 'implied'"),
        (["model=direct,sym=d", "model=direct,sym=d,heuristic=static"],
         "write the same CSV rows"),
        (["model=direct,model=positional,sym=p"],
         "variant spec 'model=direct,model=positional,sym=p' gives model twice"),
    ], ids=["unknown-key", "duplicate-csv-key", "repeated-key"])
    def test_bad_variant_specs_exit_1(self, tmp_path, capsys, monkeypatch, specs, message):
        calls = []
        monkeypatch.setattr(cli, "run", lambda *task: calls.append(task))
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--k-min", "2", "--k-max", "2", "--n-min", "3", "--n-max", "3",
                "--out", str(out)]
        for spec in specs:
            argv += ["--variant", spec]
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 1
        assert calls == []
        assert message in capsys.readouterr().err
        assert not out.exists()

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
        "1,3,direct,,d,,static,1,0,0,1,false",  # k below 2
        "2,3,direct,,d,,static,1,0,0,1,false,extra",  # too many fields
        HUGE_FIELD_ROW,  # csv.Error, not ValueError
    ], ids=["no-branch", "model", "sym", "heuristic", "timed-out", "negative", "k", "fields",
            "huge-field"])
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
    (["sweep", "--full"], "unrecognized arguments: --full"),
    (["solve", "--k", "2", "--n", "3", "--model", "direct", "--no-implied"],
     "unrecognized arguments: --no-implied"),
], ids=["export-dimacs", "solve-config", "sweep-full", "solve-no-implied"])
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
    assert [f.name for f in dataclasses.fields(VariantConfig)] == CSV_FIELDS[2:7]


def test_instance_label():
    assert Instance(2, 6).label == "02_06"
    assert Instance(3, 12).label == "03_12"


@pytest.mark.parametrize("config", [
    VariantConfig("direct", sym="d"),
    VariantConfig("positional", sym="none", heuristic=HeuristicKind.DOM_OVER_WDEG),
    VariantConfig("channelled", branch="p", sym="p", cons="d", heuristic=HeuristicKind.WDEG),
], ids=["direct", "positional", "channelled"])
@pytest.mark.parametrize("node_limit", [None, 1], ids=["finished", "timed-out"])
def test_record_csv_round_trip(config, node_limit):
    _, solutions, rec = cli.run(Instance(2, 4), config, node_limit=node_limit)
    assert rec.stats.timed_out == (node_limit is not None)
    assert rec.stats.solutions == len(solutions)
    assert RunRecord.from_csv(rec.to_csv()) == rec


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
