"""Driver behavior: config layering, outputs, exit codes, reproducibility.

Everything here runs the entry point in-process; the thread-count
determinism check lives in the acceptance suite, where it spawns real
subprocesses.
"""

import dataclasses
import json
import math

import pytest

import polyent.cli as cli
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
