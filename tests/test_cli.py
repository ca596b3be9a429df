"""Driver behavior: config layering, outputs, exit codes, reproducibility.

Everything here runs the entry point in-process, except one check of the
modules a run imports, which needs a fresh interpreter; the thread-count
determinism check lives in the acceptance suite, where it spawns real
subprocesses.
"""

import dataclasses
import importlib.util
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import polyent.cli as cli
import polyent.constructions as constructions
import polyent.estimation as estimation
import polyent.systems as systems

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
SILVER = math.sqrt(2.0) - 1.0


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


def test_estimate_silver_symbolic_counts(tmp_path):
    # windows 60 to 3,840 at three scales: spans 60 to 3,844 on one word,
    # from packed codes through ranked levels of 63, 630 and 3,780 symbols;
    # a span n + 2j holds n + 2j + 1 blocks
    rc = _run("estimate", "--system", f"sturmian:{SILVER!r}",
              "--method", "symbolic", "--eps", "1,0.5,0.25",
              "--n0", "60", "--ratio", "2", "--steps", "7",
              "--out", str(tmp_path))
    assert rc == 0
    rows = (tmp_path / "counts.csv").read_text().splitlines()
    assert rows == ["n,eps,count,method,bound"] + [
        f"{n},{eps},{n + 2 * j + 1},symbolic-exact,exact"
        for j, eps in enumerate(("1.0", "0.5", "0.25"))
        for n in (60, 120, 240, 480, 960, 1920, 3840)]


def test_estimate_full_shift_greedy(tmp_path):
    # the first cells count the 2^(n + 2j) words a window of n sees at
    # eps 2^-j; the 40-point sample caps the rest
    rc = _run("estimate", "--system", "full-shift:2", "--method", "greedy",
              "--n0", "1", "--steps", "6", "--eps", "1,0.5", "--grid", "40",
              "--out", str(tmp_path))
    assert rc == 0
    rows = (tmp_path / "counts.csv").read_text().splitlines()
    assert rows[0] == "n,eps,count,method,bound"
    assert rows[1:] == [f"{n},{eps},{count},greedy-separated,separated-lower-bound"
                        for eps, counts in (("1.0", (2, 4, 16, 40, 40, 40)),
                                            ("0.5", (8, 16, 40, 40, 40, 40)))
                        for n, count in zip((1, 2, 4, 8, 16, 32), counts)]


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
    rc = _run("estimate", "--config", str(cfg), "--eps", "0.3,0.25",
              "--out", str(out))
    assert rc == 0
    doc = _read_json(out / "fits.json")
    # command line wins over the file; untouched keys come from the file
    assert doc["config"]["eps"] == [0.3, 0.25]
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


def _refusal(capsys, args):
    # exit code, stdout and stderr of one run, argparse's own exits included
    try:
        rc = cli.main(list(args))
    except SystemExit as exc:
        rc = exc.code
    out, err = capsys.readouterr()
    return rc, out, err


_DIAG = ("diagnose", "--system", "tower-exp", "--check", "distality", "--levels")

# (arguments, config file text or None, the message after "polyent: error: ");
# "{cfg}" stands for the config file's path
REFUSED = [
    (("estimate", "--system", "tower-exp", "--eps", "0.2,zero"), None,
     "bad eps list '0.2,zero'"),
    (("estimate", "--system", "tower-exp", "--eps", ","), None, "eps list is empty"),
    (("estimate", "--system", "tower-exp", "--eps", "0.2,-1"), None,
     "eps values must be positive and finite"),
    (("estimate", "--system", "tower-exp", "--eps", "0.1,0.2"), None,
     "eps list must be strictly decreasing"),
    (("estimate", "--system", "tower-exp", "--ratio", "x"), None, "bad ratio 'x'"),
    (("estimate", "--system", "tower-exp", "--ratio", "1"), None,
     "ratio must be > 1 and finite, got 1.0"),
    (("estimate", "--system", "tower-exp", "--n0", "x"), None, "bad integer for n0: 'x'"),
    (("estimate", "--system", "tower-exp", "--n0", "0"), None, "n0 must be >= 1, got 0"),
    (("diagnose", "--system", "tower-exp", "--check", "recurrence", "--m-bound", "0"),
     None, "m_bound must be >= 1, got 0"),
    # flags parse in option order: n0 before eps
    (("estimate", "--eps", "zero", "--n0", "0"), None, "n0 must be >= 1, got 0"),
    (("estimate", "--config", "{cfg}"), "system = tower-exp\nwibble = 3\n",
     "unknown config key 'wibble'"),
    (("estimate", "--config", "{cfg}"), "system = tower-exp\nn0 16\n",
     "{cfg}:2: expected key = value"),
    (("estimate", "--config", "{cfg}"), "system = tower-exp\nn0 = x\n",
     "bad integer for n0: 'x'"),
    # the file's keys parse before the flags
    (("estimate", "--config", "{cfg}", "--ratio", "x"), "n0 = 0\n", "n0 must be >= 1, got 0"),
    (("estimate", "--config", "{cfg}.absent", "--system", "tower-exp"), None,
     "cannot read config {cfg}.absent: [Errno 2] No such file or directory: "
     "'{cfg}.absent'"),
    (("estimate", "--method", "greedy"), None,
     "a system spec is required (--system or config key 'system')"),
    # the system is checked before the method
    (("estimate", "--method", "sideways"), None,
     "a system spec is required (--system or config key 'system')"),
    (("estimate", "--system", "tower-exp", "--method", "sideways", "--grid", "1"), None,
     "method must be greedy, analytic, or symbolic, got 'sideways'"),
    # the windows are checked before the grid
    (("estimate", "--system", "tower-power:2", "--ratio", "1e308", "--eps", "0.1",
      "--grid", "1"), None, "window n0 * ratio^1 overflows a float (n0 16, ratio 1e+308)"),
    (("estimate", "--system", "tower-power:2", "--eps", "1e-320"), None,
     "eps 1e-320 too small: 10 angles per scale overflow a float"),
    (("estimate", "--system", "tower-exp", "--eps", "0.2", "--grid", "5"), None,
     "grid 5 too coarse for eps 0.2: need at least 10 angles per scale, i.e. grid >= 50"),
    (("estimate", "--system", "no-such-system", "--grid", "5"), None,
     "grid 5 too coarse for eps 0.02: need at least 10 angles per scale, i.e. grid >= 500"),
    (("estimate", "--system", "no-such-system"), None,
     "unrecognized system spec 'no-such-system'"),
    (("estimate", "--system", f"sturmian:{GOLDEN!r}", "--method", "analytic"), None,
     f"analytic counts need a tower system, got sturmian:{GOLDEN!r}"),
    (("estimate", "--system", f"product:tower-exp,sturmian:{GOLDEN!r}",
      "--method", "analytic"), None,
     f"analytic counts need a tower system, got product(tower-exp,sturmian:{GOLDEN!r})"),
    (("estimate", "--system", "tower-exp", "--method", "symbolic"), None,
     "symbolic counts need a canonical word, got tower-exp"),
    (("estimate", "--system", "tower-exp", "--n0", "2", "--steps", "4", "--eps", "0.2",
      "--grid", "50"), None, "need at least 3 tail points at eps 0.2, have 2"),
    (("verify-construction", "--system", "tower-exp"), None,
     "verify-construction needs --which spanning | separated | factor-shifts"),
    (("verify-construction", "--system", f"sturmian:{GOLDEN!r}", "--which", "spanning"),
     None, f"spanning witness needs a tower system, got sturmian:{GOLDEN!r}"),
    (("verify-construction", "--system", "tower-exp", "--which", "separated"), None,
     "separated witness needs a power-law tower, got tower-exp"),
    (("verify-construction", "--system", "tower-exp", "--which", "factor-shifts"), None,
     "factor shifts need a symbolic system, got tower-exp"),
    (("diagnose", "--system", "tower-exp"), None,
     "diagnose needs --check recurrence | complexity | distality"),
    (("diagnose", "--system", "tower-exp", "--check", "complexity"), None,
     "complexity needs a symbolic system, got tower-exp"),
    (("diagnose", "--system", f"sturmian:{GOLDEN!r}", "--check", "distality"), None,
     f"distality probe expects a tower system, got sturmian:{GOLDEN!r}"),
    ((*_DIAG, "1"), None, "levels must be two comma-separated integers, got '1'"),
    ((*_DIAG, "a,b"), None, "bad level pair 'a,b'"),
    ((*_DIAG[:-1], "--levels=-1,2"), None, "levels must be >= 0"),
    ((*_DIAG, f"{1 << 63},1"), None, f"levels must be below 2^63, got '{1 << 63},1'"),
    ((*_DIAG, "2,2"), None, "distality needs two different levels"),
    ((*_DIAG, "800,900"), None,
     "levels 800 and 900 share the height 0.0; their distality gap is trivially 0"),
    # sized before the family is packed: the audit would take about 4 * 10^12 pairs
    (("verify-construction", "--system", "tower-power:1", "--which", "separated",
      "--n0", "10000000000", "--steps", "1", "--eps", "0.1"), None,
     "the separated audit at n=10000000000, eps=0.1 packs a family of 2846052 points "
     "into 45536832 bytes, beyond the limit of 33554432"),
    # past the word limit's reach: a 296,417-symbol word, but 100,001 rows of
    # 100,128 bytes each would pack into about 9.3 GiB
    (("verify-construction", "--system", f"sturmian:{GOLDEN!r}", "--which", "factor-shifts",
      "--n0", "100000", "--steps", "1"), None,
     "the factor-shift audit at n=100000 packs a family of 100001 points into "
     "10012900128 bytes, beyond the limit of 33554432"),
]

# greedy samples sized before they are built: a tower factor samples levels
# 0..8, so grid 600 crosses 5,400 points with 5,400, and the default grid 500
# crosses 4,500 with 4,500; a subshift row holds n + 128 bytes, and a window
# of 2^30 would need a 1 GiB row
OVERSIZED_GREEDY = [
    (("estimate", "--system", "product:tower-power:2,tower-power:2", "--method", "greedy",
      "--grid", "600"),
     "greedy counting at n=16, eps=0.2 packs a family of 29160000 points into "
     "933120000 bytes, beyond the limit of 33554432"),
    (("estimate", "--system", "product:tower-power:2,tower-exp", "--method", "greedy"),
     "greedy counting at n=16, eps=0.2 packs a family of 20250000 points into "
     "648000000 bytes, beyond the limit of 33554432"),
    (("estimate", "--system", f"sturmian:{GOLDEN!r}", "--method", "greedy", "--grid", "10000",
      "--n0", "4096", "--steps", "6"),
     "greedy counting at n=4096, eps=0.2 packs a family of 10000 points into "
     "42240000 bytes, beyond the limit of 33554432"),
    (("estimate", "--system", f"sturmian:{GOLDEN!r}", "--method", "greedy",
      "--n0", str(2 ** 30), "--steps", "6"),
     "a window of 1073741824 packs 1073741952 bytes per point, beyond the limit of 33554432"),
]
REFUSED += [(args, None, message) for args, message in OVERSIZED_GREEDY]

# separated witness families stop at eps 1/3 (constructions.separated_witness)
PAST_A_THIRD = [
    (("estimate", "--system", "tower-power:1", "--method", "analytic", "--eps", "0.9,0.6",
      "--n0", "1000", "--steps", "6"),
     "scale must be in (0, 1/3] for a separated family, got 0.9"),
    (("verify-construction", "--system", "tower-power:1", "--which", "separated",
      "--n0", "100000", "--steps", "1", "--eps", "0.45"),
     "scale must be in (0, 1/3] for a separated family, got 0.45"),
]
REFUSED += [(args, None, message) for args, message in PAST_A_THIRD]


@pytest.mark.parametrize("args,config,message", REFUSED)
def test_refused_configs_print_one_error_line(tmp_path, capsys, args, config, message):
    cfg = str(tmp_path / "run.cfg")
    if config is not None:
        Path(cfg).write_text(config)
    out = tmp_path / "out"
    rc, stdout, stderr = _refusal(capsys, [a.format(cfg=cfg) for a in args]
                                  + ["--out", str(out)])
    assert (rc, stdout) == (64, "")
    assert stderr == f"polyent: error: {message.format(cfg=cfg)}\n"
    assert not list(out.glob("*"))


@pytest.mark.parametrize("args,message", [
    (("estimate", "--system", "tower-exp", "--m-bound", "3"),
     "polyent: error: unrecognized arguments: --m-bound 3"),
    (("estimate", "--sytem", "tower-exp"),
     "polyent: error: unrecognized arguments: --sytem tower-exp"),
    (("diagnose", "--levels"),
     "polyent diagnose: error: argument --levels: expected one argument"),
])
def test_argparse_refusals_exit_with_usage_code(capsys, args, message):
    assert _refusal(capsys, args) == (64, "", f"{message}\n")


_COMMON_HELP = """\
options:
  -h, --help     show this help message and exit
  --config PATH  flat key = value config file
  --system SPEC  tower-exp | tower-power:C | sturmian:ALPHA | full-shift:L |
                 product:SPEC,SPEC
  --n0 INT       first window length
  --ratio R      geometric window ratio
  --steps INT    number of window lengths
  --eps LIST     decreasing scales, comma-separated
  --grid INT     angles per circle / sample resolution
  --out DIR      output directory
  --method NAME  greedy | analytic | symbolic
  --seed INT     echoed into the outputs; no computation reads it
"""

HELP = {
    (): """\
usage: polyent [-h] command ...

Orbit-count growth experiments on rotation towers and subshifts.

positional arguments:
  command
    estimate           count tables, slope fits, log-log series
    verify-construction
                       build a witness family and verify it
    diagnose           recurrence / complexity / distality probes

options:
  -h, --help           show this help message and exit
""",
    ("estimate",): """\
usage: polyent estimate [-h] [--config PATH] [--system SPEC] [--n0 INT]
                        [--ratio R] [--steps INT] [--eps LIST] [--grid INT]
                        [--out DIR] [--method NAME] [--seed INT]

""" + _COMMON_HELP,
    ("verify-construction",): """\
usage: polyent verify-construction [-h] [--config PATH] [--system SPEC]
                                   [--n0 INT] [--ratio R] [--steps INT]
                                   [--eps LIST] [--grid INT] [--out DIR]
                                   [--method NAME] [--seed INT] [--which KIND]

""" + _COMMON_HELP + """\
  --which KIND   spanning | separated | factor-shifts
""",
    ("diagnose",): """\
usage: polyent diagnose [-h] [--config PATH] [--system SPEC] [--n0 INT]
                        [--ratio R] [--steps INT] [--eps LIST] [--grid INT]
                        [--out DIR] [--method NAME] [--seed INT]
                        [--check KIND] [--m-bound INT] [--n-max INT]
                        [--levels A,B]

""" + _COMMON_HELP + """\
  --check KIND   recurrence | complexity | distality
  --m-bound INT  recurrence step bound (default: ceil(1/eps))
  --n-max INT    largest block length for complexity (default 20)
  --levels A,B   tower levels for distality (default 1,2)
""",
}


@pytest.mark.parametrize("command", list(HELP), ids=lambda c: c[0] if c else "polyent")
def test_help_text_is_unchanged(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    assert _refusal(capsys, [*command, "--help"]) == (0, HELP[command], "")


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


@pytest.mark.parametrize("args,message", PAST_A_THIRD)
def test_separated_families_past_a_third_are_refused_within_a_second(tmp_path, capsys,
                                                                     args, message):
    start = time.perf_counter()
    rc = _run(*args, "--out", str(tmp_path))
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert rc == 64 and message in err and "Traceback" not in err
    assert os.listdir(tmp_path) == []


def test_covering_audit_leaves_numpy_ma_unimported(tmp_path):
    # np.unique imports numpy.ma on its first call, about 20 ms of every
    # process that runs the audit's prefix; a fresh interpreter shows it
    argv = ["verify-construction", "--system", "tower-power:2", "--which", "spanning",
            "--n0", "40", "--steps", "1", "--eps", "0.1", "--grid", "100",
            "--out", str(tmp_path)]
    code = (f"import sys; from polyent.cli import main; rc = main({argv!r}); "
            "print(rc, 'numpy.ma' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False"


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

    def rigged(window, eps, fam, grid):
        report, check = real(window, eps, fam, grid)
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


def test_diagnose_recurrence_flags_points_that_do_not_return(tmp_path, capsys):
    # level 1 (height e^-1) takes more than one step to come back within
    # 0.25; every other level of the sampler's nine returns in one
    rc = _run("diagnose", "--system", "tower-exp", "--check", "recurrence",
              "--eps", "0.25", "--m-bound", "1", "--grid", "40", "--out", str(tmp_path))
    assert rc == 0
    rep = _read_json(tmp_path / "recurrence.json")["reports"][0]
    assert rep["all_within"] is False and rep["m_bound"] == 1
    missed = [p for p, t in rep["times"] if t is None]
    assert len(rep["times"]) == 360 and len(missed) == 40
    assert {p["level"] for p in missed} == {1}
    assert all(t == 1 for _, t in rep["times"] if t is not None)
    assert capsys.readouterr().out == (
        "eps 0.25: all 360 points return within 1 steps: False\n")


def test_diagnose_recurrence_default_bound(tmp_path, capsys):
    rc = _run("diagnose", "--system", "tower-exp", "--check", "recurrence",
              "--eps", "0.25", "--grid", "40", "--out", str(tmp_path))
    assert rc == 0
    capsys.readouterr()
    doc = _read_json(tmp_path / "recurrence.json")
    assert doc["reports"][0]["m_bound"] == 4


@pytest.mark.parametrize("spec,first", [
    ("full-shift:2", [[{"shift_offset": 0}, 1], [{"shift_offset": 0}, None]]),
    (f"product:tower-power:2,sturmian:{GOLDEN!r}",
     [[[{"angle": 0.0, "level": 0}, {"shift_offset": 0}], 2],
      [[{"angle": 0.0, "level": 0}, {"shift_offset": 1}], None]]),
])
def test_diagnose_recurrence_on_shift_and_product_points(tmp_path, capsys, spec, first):
    rc = _run("diagnose", "--system", spec, "--check", "recurrence",
              "--grid", "20", "--eps", "0.5", "--out", str(tmp_path))
    assert rc == 0
    capsys.readouterr()
    rep = _read_json(tmp_path / "recurrence.json")["reports"][0]
    assert rep["m_bound"] == 2 and rep["all_within"] is False
    assert rep["times"][:2] == first


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


@pytest.mark.parametrize("slope", [GOLDEN, SILVER], ids=["golden", "silver"])
def test_diagnose_complexity_across_ladder_levels(tmp_path, capsys, slope):
    # lengths 1 to 700 pass the packed width of 63 symbols and the ranked
    # levels of 63 and 630
    rc = _run("diagnose", "--system", f"sturmian:{slope!r}",
              "--check", "complexity", "--n-max", "700", "--out", str(tmp_path))
    assert rc == 0
    doc = _read_json(tmp_path / "complexity.json")
    assert [(row["n"], row["complexity"]) for row in doc["table"]] == \
        [(n, n + 1) for n in range(1, 701)]


def _stepped_distality(system, x, y, window):
    """Least orbit distance of x and y over the iterates |k| <= window, by
    stepping both points both ways: the oracle for the closed-form gap."""
    gap = system.metric(x, y)
    fx, fy, bx, by = x, y, x, y
    for _ in range(window):
        fx, fy = system.step(fx), system.step(fy)
        bx, by = system.inverse(bx), system.inverse(by)
        gap = min(gap, system.metric(fx, fy), system.metric(bx, by))
    return gap


def _no_step(p, fam):
    raise AssertionError("the distality check stepped a point")


# the base circle, a height that underflows to 0 (power:400 at level 10,
# exp at the last int64 level) and a half-turn gap (power:1, level 2)
DISTALITY_CASES = [
    ("tower-exp", (1, 2)),
    ("tower-exp", (0, 3)),
    ("tower-exp", (1, (1 << 63) - 1)),
    ("tower-power:1", (2, 0)),
    ("tower-power:2", (2, 7)),
    ("tower-power:400", (1, 10)),
    ("tower-power:400", (0, 3)),
]


def test_diagnose_distality(tmp_path, capsys):
    rc = _run("diagnose", "--system", "tower-exp", "--check", "distality",
              "--levels", "1,2", "--n0", "64", "--steps", "1",
              "--out", str(tmp_path))
    assert rc == 0
    doc = _read_json(tmp_path / "distality.json")
    assert doc["levels"] == [1, 2]
    assert doc["gap"] == doc["height_gap"] == math.exp(-1) - math.exp(-2)
    assert "levels 1,2" in capsys.readouterr().out


@pytest.mark.parametrize("n0", [64, 10 ** 6])
@pytest.mark.parametrize("spec,levels", DISTALITY_CASES,
                         ids=[f"{s}-{a},{b}" for s, (a, b) in DISTALITY_CASES])
def test_diagnose_distality_is_the_height_gap(tmp_path, capsys, monkeypatch,
                                              spec, levels, n0):
    system = systems.make_system(spec)
    a, b = levels
    fam = system.heights
    height_gap = abs((fam.height(a) if a else 0.0) - (fam.height(b) if b else 0.0))
    if n0 <= 10 ** 3:
        oracle = _stepped_distality(system, systems.TowerPoint(0.0, a),
                                    systems.TowerPoint(0.0, b), n0)
        assert oracle == height_gap
    else:
        # 2 * 10^6 steps would take seconds: the closed form takes none
        monkeypatch.setattr(systems, "tower_map", _no_step)
        monkeypatch.setattr(systems, "tower_inverse", _no_step)
    rc = _run("diagnose", "--system", spec, "--check", "distality",
              "--levels", f"{a},{b}", "--n0", str(n0), "--steps", "1",
              "--out", str(tmp_path))
    assert rc == 0
    doc = _read_json(tmp_path / "distality.json")
    assert doc["levels"] == [a, b] and doc["window"] == n0
    assert doc["gap"] == doc["height_gap"] == height_gap
    assert capsys.readouterr().out == (
        f"levels {a},{b}: min orbit distance {height_gap!r} over |n| <= {n0} "
        f"(height gap {height_gap!r})\n")
    if spec == "tower-exp" and levels == (1, 2):
        assert doc["gap"] == math.exp(-1) - math.exp(-2)


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
    # a tower row packs into 16 bytes
    monkeypatch.setattr(systems, "PACK_LIMIT", 16 * 32 * 50)
    sizes = _count_greedy(monkeypatch)
    assert _run(*GREEDY_TOWER, "--out", str(tmp_path)) == 0
    assert len(sizes) == 5 and max(sizes) == 32 * 50
    assert (tmp_path / "counts.csv").exists()


def test_tower_sample_limit_refuses_before_any_counting(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(systems, "PACK_LIMIT", 16 * (32 * 50 - 1))
    sizes = _count_greedy(monkeypatch)
    assert _run(*GREEDY_TOWER, "--out", str(tmp_path)) == 64
    err = capsys.readouterr().err
    assert (f"family of {32 * 50} points into {16 * 32 * 50} bytes, beyond the limit "
            f"of {16 * (32 * 50 - 1)}" in err)
    assert sizes == [] and not (tmp_path / "counts.csv").exists()


def test_tower_sample_limit_refuses_deep_greedy_cells(tmp_path, capsys, monkeypatch):
    # power:1 at eps 0.02 and n = 2^20 would sample 7,247 levels of 500
    # angles; n = 2^18 before it fits
    sizes = _count_greedy(monkeypatch)
    rc = _run("estimate", "--system", "tower-power:1", "--method", "greedy",
              "--n0", str(2 ** 16), "--ratio", "4", "--steps", "5", "--eps", "0.02",
              "--grid", "500", "--out", str(tmp_path))
    assert rc == 64
    assert (f"family of 3623500 points into {16 * 3623500} bytes, beyond the limit of "
            f"{systems.PACK_LIMIT}" in capsys.readouterr().err)
    assert sizes == []


@pytest.mark.parametrize("args,message", OVERSIZED_GREEDY)
def test_oversized_greedy_samples_are_refused_within_a_second(tmp_path, capsys, monkeypatch,
                                                              args, message):
    sizes = _count_greedy(monkeypatch)
    start = time.perf_counter()
    rc = _run(*args, "--out", str(tmp_path))
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert rc == 64 and message in err and "Traceback" not in err
    assert sizes == []


# a Sturmian row packs n + 128 bytes: 20 points at n = 64 take 3,840
GREEDY_STURMIAN = ("estimate", "--system", f"sturmian:{GOLDEN!r}", "--method", "greedy",
                   "--n0", "4", "--steps", "5", "--eps", "0.5", "--grid", "20")


def test_pack_limit_admits_a_sturmian_sample_at_the_limit(tmp_path, monkeypatch):
    monkeypatch.setattr(systems, "PACK_LIMIT", 20 * 192)
    sizes = _count_greedy(monkeypatch)
    assert _run(*GREEDY_STURMIAN, "--out", str(tmp_path)) == 0
    assert sizes == [20] * 5
    assert (tmp_path / "counts.csv").exists()


def test_pack_limit_refuses_a_sturmian_sample_before_any_counting(tmp_path, capsys,
                                                                  monkeypatch):
    monkeypatch.setattr(systems, "PACK_LIMIT", 20 * 192 - 1)
    sizes = _count_greedy(monkeypatch)
    assert _run(*GREEDY_STURMIAN, "--out", str(tmp_path)) == 64
    assert ("greedy counting at n=64, eps=0.5 packs a family of 20 points into 3840 bytes, "
            f"beyond the limit of {20 * 192 - 1}" in capsys.readouterr().err)
    assert sizes == [] and not (tmp_path / "counts.csv").exists()


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
    assert f"beyond the limit of {systems.PACK_LIMIT}" in err
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
    ("--system", "tower-exp", "--check", "distality", "--levels", "1,99999999999999999999"),
    ("--system", "tower-exp", "--check", "distality", "--levels", f"{1 << 63},1"),
    # both heights underflow to 0.0, so the two levels share one height
    ("--system", "tower-exp", "--check", "distality", "--levels", "800,900"),
])
def test_diagnose_usage_errors(tmp_path, capsys, args):
    rc = _run("diagnose", *args, "--out", str(tmp_path))
    assert rc == 64
    assert "error" in capsys.readouterr().err
