"""Driver behavior: config layering, outputs, exit codes, reproducibility.

Everything here runs the entry point in-process; the thread-count
determinism check lives in the acceptance suite, where it spawns real
subprocesses.
"""

import dataclasses
import importlib.util
import json
import math
import os
import sys
import time
from pathlib import Path

import pytest

import polyent.cli as cli
import polyent.constructions as constructions
import polyent.estimation as estimation
import polyent.systems as systems

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _run(*args):
    return cli.main(list(args))


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# estimate

def test_estimate_exp_tower_analytic(tmp_path, capsys):
    rc = _run("estimate", "--system", "tower-exp", "--method", "analytic",
              "--n0", "1024", "--ratio", "2", "--steps", "15",
              "--out", str(tmp_path))
    assert rc == 0
    doc = _read_json(tmp_path / "fits.json")
    assert doc["tool"] == "polyent"
    assert doc["headline"] <= 0.1
    assert doc["estimates"][0]["method"] == "analytic-spanning"
    assert doc["config"]["ns"][0] == 1024 and doc["config"]["ns"][-1] == 2 ** 24
    assert doc["config"]["eps"] == [0.2, 0.1, 0.05, 0.02]
    assert doc["config"]["tail_fraction"] == 0.5
    assert "seed" in doc["config"]

    lines = (tmp_path / "counts.csv").read_text().splitlines()
    assert lines[0] == "n,eps,count,method,bound"
    first = lines[1].split(",")
    assert first[0] == "1024" and first[1] == "0.2"
    assert first[3] == "analytic-spanning" and first[4] == "spanning-upper-bound"

    counts = {(r[0], r[1]): int(r[2])
              for r in (line.split(",") for line in lines[1:])}
    for eps_text in ("0.2", "0.1", "0.05", "0.02"):
        data = (tmp_path / f"loglog-{eps_text}.dat").read_text().splitlines()
        assert len(data) == 15
        x, y = data[0].split()
        assert float(x) == pytest.approx(math.log(1024))
        assert float(y) == pytest.approx(math.log(counts[("1024", eps_text)]))
    out = capsys.readouterr().out
    assert "analytic-spanning: headline slope" in out


def test_estimate_power_tower_reports_both_analytic_variants(tmp_path):
    rc = _run("estimate", "--system", "tower-power:2", "--method", "analytic",
              "--n0", "1024", "--ratio", "2", "--steps", "15",
              "--out", str(tmp_path))
    assert rc == 0
    doc = _read_json(tmp_path / "fits.json")
    methods = [e["method"] for e in doc["estimates"]]
    assert methods == ["analytic-spanning", "analytic-separated"]
    assert 0.45 <= doc["headline"] <= 0.55
    for est in doc["estimates"]:
        assert set(est["per_eps"]) == {"0.2", "0.1", "0.05", "0.02"}
        for fit in est["per_eps"].values():
            assert {"slope", "intercept", "residual", "window", "points_used"} \
                <= set(fit)


def test_estimate_sturmian_symbolic(tmp_path):
    rc = _run("estimate", "--system", f"sturmian:{GOLDEN!r}",
              "--method", "symbolic", "--eps", "1,0.5,0.25",
              "--n0", "16", "--ratio", "2", "--steps", "7",
              "--out", str(tmp_path))
    assert rc == 0
    doc = _read_json(tmp_path / "fits.json")
    assert 0.95 <= doc["headline"] <= 1.05
    rows = (tmp_path / "counts.csv").read_text().splitlines()[1:]
    exact = [r for r in rows if r.endswith(",exact")]
    assert len(exact) == len(rows) == 21


def _perfbench_workloads(monkeypatch):
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up by name while the module runs
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_estimate_matches_the_benchmark_reference(tmp_path, capsys, monkeypatch):
    # the symbolic step of the sturmian-exact benchmark workload, seed 0,
    # against its recorded reference (read only)
    workloads = _perfbench_workloads(monkeypatch)
    [step] = [s for s in workloads.workload_steps("sturmian-exact", 0)
              if s.name == "symbolic"]
    reference = Path(workloads.REFERENCE_DIR) / "sturmian-exact" / "symbolic"
    assert cli.main(step.argv(str(tmp_path))) == 0
    assert (tmp_path / "counts.csv").read_bytes() == (reference / "counts.csv").read_bytes()
    assert _read_json(tmp_path / "fits.json") == _read_json(reference / "fits.json")


def test_estimate_refuses_short_tails_before_counting(tmp_path, capsys, monkeypatch):
    def no_counting(*args, **kwargs):
        raise AssertionError("counted before the tail check")

    monkeypatch.setattr(estimation, "count_table", no_counting)
    rc = _run("estimate", "--system", "product:tower-power:2,tower-exp",
              "--n0", "2", "--steps", "4", "--eps", "0.2", "--grid", "50",
              "--method", "greedy", "--out", str(tmp_path))
    assert rc == 64
    assert "need at least 3 tail points at eps 0.2, have 2" in capsys.readouterr().err


def test_estimate_greedy_default_method(tmp_path):
    rc = _run("estimate", "--system", "tower-exp",
              "--n0", "8", "--ratio", "2", "--steps", "6",
              "--eps", "0.2,0.1", "--grid", "100", "--out", str(tmp_path))
    assert rc == 0
    rows = (tmp_path / "counts.csv").read_text().splitlines()[1:]
    assert all(r.split(",")[3] == "greedy-separated" for r in rows)
    assert all(r.split(",")[4] == "separated-lower-bound" for r in rows)


def test_estimate_reruns_are_byte_identical(tmp_path):
    args = ("estimate", "--system", "tower-power:2",
            "--n0", "16", "--ratio", "2", "--steps", "6",
            "--eps", "0.2,0.1", "--grid", "100")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert _run(*args, "--out", str(out1)) == 0
    assert _run(*args, "--out", str(out2)) == 0
    for name in ("counts.csv", "fits.json", "loglog-0.2.dat", "loglog-0.1.dat"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_config_file_layering_and_overrides(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# comment lines and blanks are ignored\n"
        "\n"
        "system = tower-power:2\n"
        "n0 = 16\n"
        "steps = 6  # trailing comments too\n"
        "eps = 0.2,0.1\n"
        "grid = 90\n"
        "method = analytic\n"
        "seed = 3\n"
    )
    out = tmp_path / "out"
    rc = _run("estimate", "--config", str(cfg), "--eps", "0.5,0.25",
              "--out", str(out))
    assert rc == 0
    doc = _read_json(out / "fits.json")
    # command line wins over the file; untouched keys come from the file
    assert doc["config"]["eps"] == [0.5, 0.25]
    assert doc["config"]["seed"] == 3
    assert doc["config"]["system"] == "tower-power:2"
    assert doc["config"]["ns"] == [16, 32, 64, 128, 256, 512]


@pytest.mark.parametrize("args", [
    ("estimate", "--method", "greedy"),                          # no system
    ("estimate", "--system", "tower-exp", "--method", "sideways"),
    ("estimate", "--system", "no-such-system"),
    ("estimate", "--system", "sturmian:0.5", "--method", "symbolic"),
    ("estimate", "--system", "tower-exp", "--eps", "0.1,0.2"),
    ("estimate", "--system", "tower-exp", "--eps", "0.2,zero"),
    ("estimate", "--system", "tower-exp", "--eps", "0.2", "--grid", "5"),
    ("estimate", "--system", "tower-exp", "--n0", "0"),
])
def test_estimate_usage_errors(tmp_path, capsys, args):
    rc = _run(*args, "--out", str(tmp_path))
    assert rc == 64
    assert "error" in capsys.readouterr().err


def test_unknown_config_key_and_missing_file(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("system = tower-exp\nwibble = 3\n")
    assert _run("estimate", "--config", str(cfg), "--out", str(tmp_path)) == 64
    assert _run("estimate", "--config", str(tmp_path / "absent.cfg"),
                "--system", "tower-exp", "--out", str(tmp_path)) == 64
    capsys.readouterr()


def test_unknown_command_exits_with_usage_code():
    with pytest.raises(SystemExit) as exc:
        _run("frobnicate")
    assert exc.value.code == 64


# numbers no count can be made from: non-finite scales and ratios, windows
# and grids past the float range, and decay exponents past the limit
OUT_OF_RANGE = [
    ("system", "tower-power:2", "method", "analytic", "eps", "inf", "grid", "10"),
    ("system", "tower-power:2", "method", "analytic", "eps", "0.2,nan"),
    ("system", "tower-power:2", "method", "analytic", "ratio", "inf", "eps", "0.1"),
    ("system", "tower-power:2", "method", "analytic", "ratio", "1e308", "eps", "0.1"),
    ("system", "tower-power:2", "method", "analytic", "eps", "1e-320"),
    ("system", "tower-power:1e20", "method", "analytic", "eps", "0.1"),
    ("system", "tower-power:1023", "method", "greedy", "eps", "0.1"),
]


@pytest.mark.parametrize("pairs", OUT_OF_RANGE)
def test_out_of_range_numbers_are_refused_before_any_work(tmp_path, capsys, monkeypatch,
                                                          pairs):
    def no_work(*args, **kwargs):
        raise AssertionError("counted before the check")

    monkeypatch.setattr(cli, "eps_sweep", no_work)
    keys, values = pairs[::2], pairs[1::2]
    flags = [arg for key, value in zip(keys, values) for arg in (f"--{key}", value)]
    assert _run("estimate", *flags, "--out", str(tmp_path)) == 64
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{key} = {value}\n" for key, value in zip(keys, values)))
    assert _run("estimate", "--config", str(cfg), "--out", str(tmp_path)) == 64
    assert capsys.readouterr().err.count("polyent: error:") == 2
    assert not (tmp_path / "counts.csv").exists()


# ---------------------------------------------------------------------------
# verify-construction

def test_verify_spanning_construction(tmp_path, capsys):
    rc = _run("verify-construction", "--system", "tower-exp",
              "--which", "spanning", "--n0", "100", "--steps", "1",
              "--eps", "0.1", "--grid", "200", "--out", str(tmp_path))
    assert rc == 0
    doc = _read_json(tmp_path / "construction.json")
    rep = doc["report"]
    assert rep["kind"] == "spanning-witness"
    assert rep["verified"] and rep["strict"]
    assert rep["size"] == 80 and rep["cutoff"] == 7
    assert rep["check"]["ok"] and rep["check"]["all_strict"]
    assert len(rep["points"]) == 80
    assert rep["points"][0] == {"angle": 0.0, "level": 0}
    assert "verified" in capsys.readouterr().out


def test_verify_separated_construction(tmp_path):
    rc = _run("verify-construction", "--system", "tower-power:2",
              "--which", "separated", "--n0", "1000", "--steps", "1",
              "--eps", "0.1", "--out", str(tmp_path))
    assert rc == 0
    rep = _read_json(tmp_path / "construction.json")["report"]
    assert rep["size"] == 243 and rep["levels"] == 27
    assert rep["verified"] and rep["strict"]
    assert rep["check"]["min_value"] > 0.1


def test_verify_factor_shifts_construction(tmp_path):
    rc = _run("verify-construction", "--system", f"sturmian:{GOLDEN!r}",
              "--which", "factor-shifts", "--n0", "8", "--steps", "1",
              "--eps", "1", "--out", str(tmp_path))
    assert rc == 0
    rep = _read_json(tmp_path / "construction.json")["report"]
    assert rep["kind"] == "factor-shifts"
    assert rep["size"] == 9 and rep["eps"] == 1.0
    assert all(isinstance(i, int) for i in rep["points"])


_WITNESSES = {
    "spanning": ("certified_spanning_witness", "--system", "tower-power:2",
                 "--n0", "40", "--eps", "0.1", "--grid", "100"),
    "separated": ("certified_separated_witness", "--system", "tower-power:1",
                  "--n0", "200", "--eps", "0.1"),
    "factor-shifts": ("certified_factor_shifts", "--system", f"sturmian:{GOLDEN!r}",
                      "--n0", "12", "--eps", "1"),
}


def _run_witness(monkeypatch, out, which):
    # runs verify-construction and returns the report the CLI dumped
    certifier, *args = _WITNESSES[which]
    real = getattr(cli, certifier)
    reports = []

    def recorded(*a, **kw):
        result = real(*a, **kw)
        reports.append(result[0])
        return result

    monkeypatch.setattr(cli, certifier, recorded)
    rc = _run("verify-construction", "--which", which, *args, "--steps", "1",
              "--out", str(out))
    return rc, reports[-1]


def _assert_dump_is_the_encoder_output(path, report, dumped):
    # the file is json.dumps(doc, indent=2) + newline, with the doc's
    # points (when dumped) built by _point_json over every point
    text = path.read_text(encoding="utf-8")
    doc = json.loads(text)
    if dumped:
        doc["report"]["points"] = [cli._point_json(p) for p in report.points]
    else:
        assert "points" not in doc["report"]
    expected = json.dumps(doc, indent=2) + "\n"
    # report the first difference: pytest's own diff of two long texts
    # takes minutes
    at = len(os.path.commonprefix([text, expected]))
    assert at == len(text) == len(expected), (
        f"differs at byte {at}: {text[at - 60:at + 20]!r} against "
        f"{expected[at - 60:at + 20]!r}")


@pytest.mark.parametrize("which", sorted(_WITNESSES))
def test_construction_dump_matches_the_point_encoder(tmp_path, monkeypatch, which):
    rc, report = _run_witness(monkeypatch, tmp_path, which)
    assert rc == 0 and report.size > 10
    assert isinstance(report.points, systems.AngleLevelGrid) == (which != "factor-shifts")
    _assert_dump_is_the_encoder_output(tmp_path / "construction.json", report, True)


def test_construction_dump_of_a_tuple_level_grid(tmp_path, monkeypatch):
    # levels in descending order, as a tuple rather than a range
    monkeypatch.setattr(constructions, "_separated_points", lambda m, levels:
                        systems.AngleLevelGrid(m, tuple(range(levels, 0, -1))))
    rc, report = _run_witness(monkeypatch, tmp_path, "separated")
    assert rc == 0 and report.points.levels == tuple(range(report.levels, 0, -1))
    _assert_dump_is_the_encoder_output(tmp_path / "construction.json", report, True)


@pytest.mark.parametrize("which", sorted(_WITNESSES))
def test_construction_dump_stops_at_the_point_limit(tmp_path, monkeypatch, which):
    size = _run_witness(monkeypatch, tmp_path / "full", which)[1].size
    for limit, dumped in ((size, True), (size - 1, False)):
        monkeypatch.setattr(cli, "POINT_DUMP_LIMIT", limit)
        out = tmp_path / str(limit)
        rc, report = _run_witness(monkeypatch, out, which)
        assert rc == 0
        _assert_dump_is_the_encoder_output(out / "construction.json", report, dumped)


def test_tower_witness_dumps_build_no_points(tmp_path, monkeypatch):
    def refuse(self, i):
        raise AssertionError(f"grid point {i} built")

    monkeypatch.setattr(systems.AngleLevelGrid, "__getitem__", refuse)
    for which in ("spanning", "separated"):
        rc = _run("verify-construction", "--which", which, *_WITNESSES[which][1:],
                  "--steps", "1", "--out", str(tmp_path / which))
        assert rc == 0
        rep = _read_json(tmp_path / which / "construction.json")["report"]
        assert rep["verified"] and len(rep["points"]) == rep["size"] > 10


@pytest.mark.parametrize("args", [
    ("--system", "tower-exp", "--which", "separated"),
    ("--system", f"sturmian:{GOLDEN!r}", "--which", "spanning"),
    ("--system", "tower-exp", "--which", "factor-shifts"),
    ("--system", "tower-exp", "--which", "sideways"),
    ("--system", "tower-exp"),
])
def test_verify_construction_usage_errors(tmp_path, capsys, args):
    rc = _run("verify-construction", *args, "--n0", "32", "--steps", "1",
              "--eps", "0.1", "--out", str(tmp_path))
    assert rc == 64
    assert "error" in capsys.readouterr().err


def test_verify_construction_failure_exit_code(tmp_path, capsys, monkeypatch):
    real = cli.certified_spanning_witness

    def rigged(window, eps, fam, grid, extra_levels=5):
        report, check = real(window, eps, fam, grid, extra_levels)
        return dataclasses.replace(report, verified=False), check

    monkeypatch.setattr(cli, "certified_spanning_witness", rigged)
    rc = _run("verify-construction", "--system", "tower-exp",
              "--which", "spanning", "--n0", "50", "--steps", "1",
              "--eps", "0.2", "--grid", "100", "--out", str(tmp_path))
    assert rc == 2
    assert "FAILED" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# diagnose

def test_diagnose_recurrence(tmp_path, capsys):
    rc = _run("diagnose", "--system", "tower-exp", "--check", "recurrence",
              "--eps", "0.25", "--m-bound", "4", "--grid", "40",
              "--out", str(tmp_path))
    assert rc == 0
    doc = _read_json(tmp_path / "recurrence.json")
    assert len(doc["reports"]) == 1
    rep = doc["reports"][0]
    assert rep["all_within"] is True
    assert rep["eps"] == 0.25 and rep["m_bound"] == 4
    assert all(t is not None for _, t in rep["times"])
    assert "True" in capsys.readouterr().out


def test_diagnose_recurrence_default_bound(tmp_path, capsys):
    rc = _run("diagnose", "--system", "tower-exp", "--check", "recurrence",
              "--eps", "0.25", "--grid", "40", "--out", str(tmp_path))
    assert rc == 0
    capsys.readouterr()
    doc = _read_json(tmp_path / "recurrence.json")
    assert doc["reports"][0]["m_bound"] == 4


def test_diagnose_complexity(tmp_path, capsys):
    rc = _run("diagnose", "--system", f"sturmian:{GOLDEN!r}",
              "--check", "complexity", "--n-max", "12", "--out", str(tmp_path))
    assert rc == 0
    doc = _read_json(tmp_path / "complexity.json")
    assert [row["complexity"] for row in doc["table"]] == list(range(2, 14))
    # the materialized word is one recurrence window R(12) = 13 + 8 + 12 - 1
    # long (golden convergent denominators 8 <= 12 < 13)
    assert doc["range"] == [0, 32]
    assert "p(12) = 13" in capsys.readouterr().out


def test_diagnose_distality(tmp_path, capsys):
    rc = _run("diagnose", "--system", "tower-exp", "--check", "distality",
              "--levels", "1,2", "--n0", "64", "--steps", "1",
              "--out", str(tmp_path))
    assert rc == 0
    doc = _read_json(tmp_path / "distality.json")
    assert doc["levels"] == [1, 2]
    assert doc["gap"] == doc["height_gap"] == math.exp(-1) - math.exp(-2)
    assert "levels 1,2" in capsys.readouterr().out


def test_diagnose_distality_on_a_steep_power_tower(tmp_path):
    # level 10's height 10^-400 underflows to 0, the base circle's height
    rc = _run("diagnose", "--system", "tower-power:400", "--check", "distality",
              "--levels", "1,10", "--out", str(tmp_path))
    assert rc == 0
    doc = _read_json(tmp_path / "distality.json")
    assert doc["height_gap"] == 1.0 and doc["gap"] == 1.0


# each symbolic command with the block length behind its longest word:
# estimate needs span 256 + 2 (eps 0.5 adds one coordinate on each side)
SYMBOLIC_COMMANDS = [
    (("estimate", "--method", "symbolic", "--n0", "16", "--steps", "5",
      "--eps", "1,0.5"), 258, "counts.csv"),
    (("verify-construction", "--which", "factor-shifts", "--n0", "8",
      "--steps", "1", "--eps", "1"), 8, "construction.json"),
    (("diagnose", "--check", "complexity", "--n-max", "12"), 12, "complexity.json"),
]


def _count_generated(monkeypatch):
    calls = []
    real = systems.sturmian_generate

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(systems, "sturmian_generate", counted)
    return calls


@pytest.mark.parametrize("args,span,output", SYMBOLIC_COMMANDS)
def test_symbolic_word_limit_admits_a_window_at_the_limit(tmp_path, monkeypatch,
                                                          args, span, output):
    window = systems.sturmian_system(GOLDEN).recurrence(span)
    monkeypatch.setattr(systems, "WORD_SYMBOL_LIMIT", window)
    calls = _count_generated(monkeypatch)
    rc = _run(*args, "--system", f"sturmian:{GOLDEN!r}", "--out", str(tmp_path))
    assert rc == 0
    assert max(hi - lo + 1 for _, lo, hi in calls) == window
    assert (tmp_path / output).exists()


@pytest.mark.parametrize("args,span,output", SYMBOLIC_COMMANDS)
def test_symbolic_word_limit_refuses_before_any_work(tmp_path, capsys, monkeypatch,
                                                     args, span, output):
    window = systems.sturmian_system(GOLDEN).recurrence(span)
    monkeypatch.setattr(systems, "WORD_SYMBOL_LIMIT", window - 1)
    calls = _count_generated(monkeypatch)
    rc = _run(*args, "--system", f"sturmian:{GOLDEN!r}", "--out", str(tmp_path))
    assert rc == 64
    assert f"beyond the limit of {window - 1}" in capsys.readouterr().err
    assert calls == [] and not (tmp_path / output).exists()


@pytest.mark.parametrize("args", [
    ("estimate", "--method", "symbolic", "--n0", "2", "--steps", "24", "--eps", "1"),
    ("verify-construction", "--which", "factor-shifts", "--n0", str(2 ** 24),
     "--steps", "1", "--eps", "1"),
    ("diagnose", "--check", "complexity", "--n-max", str(2 ** 24)),
])
def test_symbolic_word_limit_refuses_huge_windows(tmp_path, capsys, monkeypatch, args):
    calls = _count_generated(monkeypatch)
    rc = _run(*args, "--system", f"sturmian:{GOLDEN!r}", "--out", str(tmp_path))
    assert rc == 64
    assert f"beyond the limit of {systems.WORD_SYMBOL_LIMIT}" in capsys.readouterr().err
    assert calls == []


def test_symbolic_block_length_past_the_last_convergent_is_refused(tmp_path, capsys):
    # 12345 / 2^20 is exactly its binary64 value: a word of period 2^20
    rc = _run("verify-construction", "--system", f"sturmian:{12345 / 2 ** 20!r}",
              "--which", "factor-shifts", "--n0", str(2 ** 20), "--steps", "1",
              "--eps", "1", "--out", str(tmp_path))
    assert rc == 64
    assert "last convergent" in capsys.readouterr().err


def _count_greedy(monkeypatch):
    # count_table counts the keep mask of the greedy core routine
    sizes = []
    real = estimation.greedy_separated_mask

    def counted(system, sample, *args):
        sizes.append(len(sample))
        return real(system, sample, *args)

    monkeypatch.setattr(estimation, "greedy_separated_mask", counted)
    return sizes


# power:1 at eps 0.2 and n = 128 samples levels 0..31, 50 angles each
GREEDY_TOWER = ("estimate", "--system", "tower-power:1", "--method", "greedy",
                "--n0", "8", "--steps", "5", "--eps", "0.2", "--grid", "50")


def test_tower_sample_limit_admits_a_sample_at_the_limit(tmp_path, monkeypatch):
    monkeypatch.setattr(systems, "TOWER_SAMPLE_LIMIT", 32 * 50)
    sizes = _count_greedy(monkeypatch)
    assert _run(*GREEDY_TOWER, "--out", str(tmp_path)) == 0
    assert len(sizes) == 5 and max(sizes) == 32 * 50
    assert (tmp_path / "counts.csv").exists()


def test_tower_sample_limit_refuses_before_any_counting(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(systems, "TOWER_SAMPLE_LIMIT", 32 * 50 - 1)
    sizes = _count_greedy(monkeypatch)
    assert _run(*GREEDY_TOWER, "--out", str(tmp_path)) == 64
    err = capsys.readouterr().err
    assert f"sample of {32 * 50} points, beyond the limit of {32 * 50 - 1}" in err
    assert sizes == [] and not (tmp_path / "counts.csv").exists()


def test_tower_sample_limit_refuses_deep_greedy_cells(tmp_path, capsys, monkeypatch):
    # power:1 at eps 0.02 and n = 2^20 would sample 7,247 levels of 500
    # angles; n = 2^18 before it fits
    sizes = _count_greedy(monkeypatch)
    rc = _run("estimate", "--system", "tower-power:1", "--method", "greedy",
              "--n0", str(2 ** 16), "--ratio", "4", "--steps", "5", "--eps", "0.02",
              "--grid", "500", "--out", str(tmp_path))
    assert rc == 64
    assert (f"sample of 3623500 points, beyond the limit of {systems.TOWER_SAMPLE_LIMIT}"
            in capsys.readouterr().err)
    assert sizes == []


def _count_spanning_audits(monkeypatch):
    calls = []
    real = constructions.verify_spanning

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(constructions, "verify_spanning", counted)
    return calls


def test_oversized_spanning_audit_is_refused_before_packing(tmp_path, capsys, monkeypatch):
    # power:1 at n = 10^9 and eps 0.1 needs about 10^10 levels of 100 angles
    calls = _count_spanning_audits(monkeypatch)
    start = time.perf_counter()
    rc = _run("verify-construction", "--system", "tower-power:1", "--which", "spanning",
              "--n0", str(10 ** 9), "--steps", "1", "--eps", "0.1", "--grid", "100",
              "--out", str(tmp_path))
    assert time.perf_counter() - start < 1.0
    assert rc == 64
    err = capsys.readouterr().err
    assert f"beyond the limit of {systems.TOWER_SAMPLE_LIMIT}" in err
    assert "Traceback" not in err
    assert calls == [] and not (tmp_path / "construction.json").exists()


def test_product_greedy_past_a_quarter_writes_counts(tmp_path, monkeypatch):
    # 3,600 points of a tower x Sturmian product at eps 0.5, past the tower
    # kernel's height band, where wrapped drifts take the exact descent
    sizes = _count_greedy(monkeypatch)
    rc = _run("estimate", "--system", f"product:tower-power:2,sturmian:{GOLDEN!r}",
              "--method", "greedy", "--n0", "4", "--steps", "6", "--eps", "0.5",
              "--grid", "20", "--out", str(tmp_path))
    assert rc == 0
    assert sizes == [3600] * 6
    lines = (tmp_path / "counts.csv").read_text().splitlines()
    assert lines[0] == "n,eps,count,method,bound" and len(lines) == 7


@pytest.mark.parametrize("args", [
    ("--system", "tower-exp", "--check", "sideways"),
    ("--system", "tower-exp", "--check", "complexity"),
    ("--system", f"sturmian:{GOLDEN!r}", "--check", "distality"),
    ("--system", "tower-exp"),
    ("--system", "tower-exp", "--check", "distality", "--levels", "2,2"),
])
def test_diagnose_usage_errors(tmp_path, capsys, args):
    rc = _run("diagnose", *args, "--out", str(tmp_path))
    assert rc == 64
    assert "error" in capsys.readouterr().err
