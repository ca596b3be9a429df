"""Fast self-test of the benchmark: tiny workloads through the real code path.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run as bench  # noqa: E402
import workloads  # noqa: E402
from workloads import _step  # noqa: E402

with open(os.path.join(bench.ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    CONTRACT = json.load(_fh)

SLOPE = f"sturmian:{workloads.GOLDEN_SLOPE}"

# the canonical workloads' commands at sizes that run in well under a second;
# estimates keep six windows because the slope fit needs three tail points
TINY = {
    "tower-certify": (
        _step("spanning", "verify-construction", system="tower-power:2",
              which="spanning", n0=20, steps=1, eps="0.1", grid=100),
        _step("separated", "verify-construction", system="tower-power:1",
              which="separated", n0=200, steps=1, eps="0.1"),
    ),
    "tower-greedy": (
        _step("greedy", "estimate", system="tower-power:1", method="greedy",
              n0=4, steps=6, eps="0.1", grid=100),
    ),
    "sturmian-exact": (
        _step("symbolic", "estimate", system=SLOPE, method="symbolic",
              n0=4, steps=6, eps="1.0,0.5,0.25"),
        _step("factor-shifts", "verify-construction", system=SLOPE,
              which="factor-shifts", n0=20, steps=1),
    ),
}


def _operations(steps) -> int:
    # counts.csv cells, plus the fits.json header and one fit per eps, or
    # one verdict per certification
    total = 0
    for step in steps:
        if step.command == "estimate":
            epss = step.option("eps").split(",")
            total += len(epss) * int(step.option("steps")) + 1 + len(epss)
        else:
            total += 1
    return total


def _names(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in CONTRACT[section]}


def test_contract_names_the_workloads():
    assert sorted(w["name"] for w in CONTRACT["workloads"]) == sorted(workloads.WORKLOADS)
    assert CONTRACT["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_reports_every_layer_metric(name, tmp_path):
    report = bench.run_benchmark(name, 1, 0.0, True, steps=TINY[name],
                                 out_root=str(tmp_path / "out"))
    assert report["failed"] == 0, report["failure_notes"]
    # one untraced and one traced pass
    assert report["attempted"] == 2 * _operations(TINY[name])
    assert report["units"] == _names("per_layer")
    assert report["absent"] == [] and report["hook_errors"] == []
    m = report["metrics"]
    assert m["cli.command_s"] > 0 and m["cli.bytes_written"] > 0
    if name == "sturmian-exact":
        assert m["systems.cdist_calls"] == 0
        assert m["systems.pointwise_calls"] > 0 and m["diagnostics.word_complexity_calls"] == 3 * 6
    else:
        assert m["systems.cdist_calls"] > 0 and m["systems.pointwise_calls"] == 0
    if name == "tower-certify":
        # the spanning audit meets every center; the separation audit
        # evaluates the upper triangle plus full diagonal blocks
        assert m["bowen.spanning_pair_ratio"] == 1.0
        assert m["bowen.separated_pair_ratio"] > 1.0


def test_untraced_run_reports_end_to_end_metrics(tmp_path):
    report = bench.run_benchmark("tower-greedy", 1, 0.0, False,
                                 steps=TINY["tower-greedy"], out_root=str(tmp_path))
    assert report["failed"] == 0
    assert report["units"] == _names("end_to_end")
    assert all(v > 0 for v in report["metrics"].values())
    assert report["spread"]["setup_s"]["n"] == bench.SETUP_SAMPLES


def test_reference_comparison_catches_a_changed_cell(tmp_path):
    steps = TINY["sturmian-exact"]
    record = tmp_path / "record"
    result = bench.run_pass([s.argv(str(record / s.name)) for s in steps], False,
                            str(record))
    assert result["exits"] == [0, 0]
    refs = tmp_path / "refs"
    for step in steps:
        workloads.record_reference(step, str(record / step.name), str(refs / step.name))

    report = bench.run_benchmark("sturmian-exact", 0, 0.0, False, steps=steps,
                                 reference_root=str(refs), out_root=str(tmp_path / "a"))
    assert (report["attempted"], report["failed"]) == (_operations(steps), 0)

    counts = refs / "symbolic" / "counts.csv"
    counts.write_text(counts.read_text().replace("16,1.0,17,", "16,1.0,18,"))
    construction = refs / "factor-shifts" / "construction.json"
    doc = json.loads(construction.read_text())
    doc["report"]["verified"] = False
    construction.write_text(json.dumps(doc))
    report = bench.run_benchmark("sturmian-exact", 0, 0.0, False, steps=steps,
                                 reference_root=str(refs), out_root=str(tmp_path / "b"))
    assert report["failed"] == 2


def test_invariants_reject_a_wrong_sturmian_count(tmp_path):
    step = TINY["sturmian-exact"][0]
    out = tmp_path / "symbolic"
    assert bench.run_pass([step.argv(str(out))], False, str(tmp_path))["exits"] == [0]
    tally = workloads.Tally()
    workloads.check_step(step, str(out), 0, None, tally)
    assert tally.failed == 0
    counts = out / "counts.csv"
    counts.write_text(counts.read_text().replace("32,0.5,35,", "32,0.5,34,"))
    tally = workloads.Tally()
    workloads.check_step(step, str(out), 0, None, tally)
    assert tally.failed == 1
    tally = workloads.Tally()
    workloads.check_step(step, str(out), 1, None, tally)
    assert tally.failed == tally.attempted


def test_seeds_jitter_windows_and_grids_deterministically():
    for name, canonical in workloads.WORKLOADS.items():
        assert workloads.workload_steps(name, 0) == canonical
        seeded = workloads.workload_steps(name, 7)
        assert seeded == workloads.workload_steps(name, 7)
        assert seeded != workloads.workload_steps(name, 8)
        for base, step in zip(canonical, seeded):
            for (key, a), (key2, b) in zip(base.options, step.options):
                assert key == key2
                if key in workloads.JITTERED:
                    assert abs(int(b) - int(a)) <= workloads.JITTER * int(a) + 1
                else:
                    assert a == b


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(bench.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "tower-greedy",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_missing_names_are_reported_absent():
    import tracing

    sys.path.insert(0, bench.SRC)
    tracer = tracing.Tracer()
    assert tracing._lookup(tracer, "bowen", "no_such_function") is None
    assert tracing._lookup(tracer, "no_such_module", "f") is None
    assert tracing._lookup(tracer, "bowen", "bowen_block") is not None

    class Handle:  # a handle that is no longer a dataclass
        orbit_cdist = staticmethod(lambda pa, pb, n, cap=None: None)

    handle = Handle()
    assert tracing._wrap_handle(tracer, handle) is handle
    assert tracer.absent == ["bowen.no_such_function", "no_such_module.f",
                             "SystemHandle.orbit_dist", "SystemHandle.word_fn",
                             "SystemHandle as a dataclass"]
