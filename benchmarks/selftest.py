"""Fast self-test of the benchmark: python3 benchmarks/selftest.py

Runs one tiny cell per workload, untraced and traced, and checks that
every metric named in BENCHMARK.json is emitted with its unit, that the
count gate and the solution-set check catch wrong results, and that the
traced run leaves no wrapper behind. Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import sys

import run as bench
import tracer as tracing

TINY = {
    "channelled": bench.Workload("channelled", ((2, 4),), (bench.CHANNELLED_DD_STATIC,)),
    # L(2, 8) also pins OEIS A014552's 150.
    "positional-domwdeg": bench.Workload("positional-domwdeg", ((2, 8),),
                                         (bench.POSITIONAL_DOMWDEG,)),
    "sweep-grid": bench.Workload("sweep-grid", ((2, 4),), (bench.SWEEP_VARIANTS[2],), sweep=True),
}


def main() -> int:
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    pinned = bench.load_pinned()
    sys.path.insert(0, str(bench.SRC))
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    expect(sorted(w["name"] for w in spec["workloads"]) == sorted(bench.WORKLOADS),
           "BENCHMARK.json names exactly the workloads run.py defines")
    for name, workload in TINY.items():
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            result = bench.run(workload, seed=1, seconds=0.01, trace=trace, pinned=pinned)
            label = f"{name} trace={int(trace)}"
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{label}: every cell correct ({result['errors']})")
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            wanted = {m["name"]: m["unit"] for m in spec[section]}
            expect(emitted == wanted, f"{label}: emits every {section} metric with its unit")
            if trace and name == "sweep-grid":
                expect(result["metrics"]["cli.sweep.cells"]["value"] == 1,
                       f"{label}: one sweep cell")
    lf = bench.load_langford()
    expect(not tracing.leftover_wrappers(lf), "a fresh import carries no wrapper")

    # The traced run's separation checks must catch a layer that leaks
    # into the wrong workload.
    for name, metric, value in (
        ("positional-domwdeg", "propagators.inverse_channel.calls", 1),
        ("positional-domwdeg", "propagators.element_offset_const.calls", 1),
        ("channelled", "heuristics.wdeg.calls", 1),
        ("channelled", "engine.materialise.values", 10**6),
    ):
        metrics = {m["name"]: (0, m["unit"]) for m in spec["per_layer"]}
        metrics[metric] = (value, "count")
        tally = bench.Tally()
        bench.check_separation(lf, TINY[name], metrics, tally)
        expect(tally.failed == 1, f"{name}: {metric} = {value} fails the separation check")

    # The count gate must fail on a pin that differs by one node.
    workload = TINY["channelled"]
    key = bench.variant_key(*workload.cells()[0])
    wrong = dict(pinned, **{key: [pinned[key][0] + 1] + pinned[key][1:]})
    result = bench.run(workload, seed=1, seconds=0.01, trace=False, pinned=wrong)
    expect(not result["correct"] and result["failed"] == result["attempted"],
           "a wrong pinned count fails every pass")

    # A right count with a wrong set must fail; the right set must pass.
    oracle = bench.Oracle(lf)
    model = lf.build_model(lf.Instance(2, 7), lf.VariantConfig(**bench.POSITIONAL_DOMWDEG))
    sols, _ = lf.solve_all(model, model.config.heuristic)
    sequences = [model.sequence_of(s) for s in sols]
    expect(bench.solution_set_error(2, 7, "p", sequences, oracle) is None,
           "L(2,7) positional solutions match the oracle and A014552")
    swapped = list(sequences[0])
    swapped[0], swapped[1] = swapped[1], swapped[0]
    forged = [tuple(swapped)] + sequences[1:]
    expect(bench.solution_set_error(2, 7, "p", forged, oracle) is not None,
           "a right count with a wrong solution set fails")
    expect(bench.solution_set_error(2, 7, "p", sequences[1:], oracle) is not None,
           "a count that misses A014552 fails")

    print(f"selftest: {len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
