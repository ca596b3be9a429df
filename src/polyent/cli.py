"""Experiment driver.

Three subcommands over one shared configuration surface:

* ``estimate``: count tables over an (n, eps) grid, slope fits per scale,
  and plot-ready log-log series;
* ``verify-construction``: build a closed-form witness family and run the
  generic verifier over it, exit status reporting the verdict;
* ``diagnose``: recurrence or word-complexity probes, or the distality gap
  of two tower levels.

One table, ``OPTIONS``, gives each configuration key its parser, default,
metavar, help text and the subcommands that take it; the argparse flags
(``--m-bound`` for ``m_bound``), the config-file keys and the defaults are
all built from it. Configuration comes from a flat ``key = value`` text file
plus command-line overrides (later wins). The count methods behind
``--method`` and the slope fits' tail are the ``estimation`` module's. All
file output is written after computation finishes, with fixed key order and
shortest round-trip float formatting, so identical configs reproduce
byte-identical files.

Exit codes: 0 success, 2 verification failure, 64 usage or config error:
every refusal is a ``ValueError``, printed as one ``polyent: error:`` line.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Any, Callable, NamedTuple, Sequence

import numpy as np

from . import __version__
from .bowen import SeparationCheck, SpanningCheck
from .constructions import (
    certified_factor_shifts,
    certified_separated_witness,
    certified_spanning_witness,
)
from .diagnostics import return_time, word_complexities
from .estimation import METHOD_CHOICES, TAIL_FRACTION, count_methods, eps_sweep
from .systems import (
    AngleLevelGrid,
    PowerHeights,
    SymbolicPoint,
    SystemHandle,
    TowerPoint,
    make_system,
    word_window,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_VERIFY = 2
EXIT_USAGE = 64

POINT_DUMP_LIMIT = 20000


# ---------------------------------------------------------------------------
# configuration

def _parse_eps_list(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise ValueError(f"bad eps list {text!r}") from None
    if not values:
        raise ValueError("eps list is empty")
    if not all(0.0 < v < math.inf for v in values):
        raise ValueError("eps values must be positive and finite")
    if any(b >= a for a, b in zip(values, values[1:])):
        raise ValueError("eps list must be strictly decreasing")
    return values


def _parse_level_pair(text: str) -> tuple[int, int]:
    parts = [part.strip() for part in text.split(",")]
    if len(parts) != 2:
        raise ValueError(f"levels must be two comma-separated integers, got {text!r}")
    try:
        a, b = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(f"bad level pair {text!r}") from None
    if a < 0 or b < 0:
        raise ValueError("levels must be >= 0")
    # heights are read off int64 level arrays
    if max(a, b) > (1 << 63) - 1:
        raise ValueError(f"levels must be below 2^63, got {text!r}")
    if a == b:
        raise ValueError("distality needs two different levels")
    return a, b


def _parse_int(name: str, low: int | None = None):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise ValueError(f"bad integer for {name}: {text!r}") from None
        if low is not None and value < low:
            raise ValueError(f"{name} must be >= {low}, got {value}")
        return value

    return parse


def _parse_ratio(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"bad ratio {text!r}") from None
    if not 1.0 < value < math.inf:
        raise ValueError(f"ratio must be > 1 and finite, got {value}")
    return value


# the kinds --which and --check take
WHICH_KINDS = ("spanning", "separated", "factor-shifts")
CHECK_KINDS = ("recurrence", "complexity", "distality")


class _Option(NamedTuple):
    parse: Callable[[str], Any]
    default: Any
    metavar: str
    help: str
    commands: tuple[str, ...] | None = None  # None: every subcommand


# every configuration key, in the order the flags are listed and parsed
OPTIONS: dict[str, _Option] = {
    "system": _Option(str, None, "SPEC", "tower-exp | tower-power:C | sturmian:ALPHA | "
                                         "full-shift:L | product:SPEC,SPEC"),
    "n0": _Option(_parse_int("n0", 1), 16, "INT", "first window length"),
    "ratio": _Option(_parse_ratio, 2.0, "R", "geometric window ratio"),
    "steps": _Option(_parse_int("steps", 1), 8, "INT", "number of window lengths"),
    "eps": _Option(_parse_eps_list, (0.2, 0.1, 0.05, 0.02), "LIST",
                   "decreasing scales, comma-separated"),
    "grid": _Option(_parse_int("grid", 1), None, "INT",
                    "angles per circle / sample resolution"),
    "out": _Option(str, ".", "DIR", "output directory"),
    "method": _Option(str, "greedy", "NAME", " | ".join(METHOD_CHOICES)),
    "seed": _Option(_parse_int("seed"), 0, "INT",
                    "echoed into the outputs; no computation reads it"),
    "which": _Option(str, None, "KIND", " | ".join(WHICH_KINDS), ("verify-construction",)),
    "check": _Option(str, None, "KIND", " | ".join(CHECK_KINDS), ("diagnose",)),
    "m_bound": _Option(_parse_int("m_bound", 1), None, "INT",
                       "recurrence step bound (default: ceil(1/eps))", ("diagnose",)),
    "n_max": _Option(_parse_int("n_max", 1), 20, "INT",
                     "largest block length for complexity (default 20)", ("diagnose",)),
    "levels": _Option(_parse_level_pair, (1, 2), "A,B",
                      "tower levels for distality (default 1,2)", ("diagnose",)),
}


def _read_config_file(path: str) -> dict[str, str]:
    raw: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                body = line.split("#", 1)[0].strip()
                if not body:
                    continue
                if "=" not in body:
                    raise ValueError(f"{path}:{lineno}: expected key = value")
                key, value = body.split("=", 1)
                raw[key.strip()] = value.strip()
    except OSError as exc:
        raise ValueError(f"cannot read config {path}: {exc}") from None
    return raw


def resolve_config(args: argparse.Namespace) -> dict[str, Any]:
    """Layer defaults, config file, then command-line flags; validate."""
    cfg = {key: option.default for key, option in OPTIONS.items()}
    if args.config is not None:
        for key, text in _read_config_file(args.config).items():
            if key not in OPTIONS:
                raise ValueError(f"unknown config key {key!r}")
            cfg[key] = OPTIONS[key].parse(text)
    for key, option in OPTIONS.items():
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = option.parse(value)

    if cfg["system"] is None:
        raise ValueError("a system spec is required (--system or config key 'system')")
    if cfg["method"] not in METHOD_CHOICES:
        raise ValueError(f"method must be {', '.join(METHOD_CHOICES[:-1])}, or "
                         f"{METHOD_CHOICES[-1]}, got {cfg['method']!r}")

    ns: list[int] = []
    for k in range(cfg["steps"]):
        try:
            n = int(round(cfg["n0"] * cfg["ratio"] ** k))
        except OverflowError:
            raise ValueError(f"window n0 * ratio^{k} overflows a float (n0 {cfg['n0']}, "
                             f"ratio {cfg['ratio']!r})") from None
        if not ns or n > ns[-1]:
            ns.append(n)
    cfg["ns"] = ns

    min_eps = min(cfg["eps"])
    need = 10.0 / min_eps
    if need == math.inf:
        raise ValueError(f"eps {min_eps!r} too small: 10 angles per scale overflow a float")
    if cfg["grid"] is None:
        cfg["grid"] = math.ceil(need)
    if cfg["grid"] < need:
        raise ValueError(
            f"grid {cfg['grid']} too coarse for eps {min_eps!r}: "
            f"need at least 10 angles per scale, i.e. grid >= {math.ceil(need)}")
    return cfg


def _config_json(cfg: dict[str, Any]) -> dict[str, Any]:
    doc: dict[str, Any] = {
        "system": cfg["system"],
        "n0": cfg["n0"],
        "ratio": cfg["ratio"],
        "steps": cfg["steps"],
        "ns": list(cfg["ns"]),
        "eps": list(cfg["eps"]),
        "grid": cfg["grid"],
        "method": cfg["method"],
        "seed": cfg["seed"],
        "tail_fraction": TAIL_FRACTION,
    }
    for key in ("which", "check", "m_bound"):
        if cfg[key] is not None:
            doc[key] = cfg[key]
    if cfg["check"] == "complexity":
        doc["n_max"] = cfg["n_max"]
    if cfg["check"] == "distality":
        doc["levels"] = list(cfg["levels"])
    return doc


# ---------------------------------------------------------------------------
# serialization helpers

def _fmt(x: float) -> str:
    return repr(float(x))


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _write_json(path: str, doc: dict[str, Any]) -> None:
    _write_text(path, json.dumps(doc, indent=2) + "\n")


def _document(cfg: dict[str, Any], **body: Any) -> dict[str, Any]:
    """A JSON output document: the tool, its version and the config, then
    ``body`` in order."""
    return {"tool": "polyent", "version": __version__, "config": _config_json(cfg), **body}


def _point_json(p: Any) -> Any:
    if isinstance(p, TowerPoint):
        return {"angle": p.angle, "level": p.level}
    if isinstance(p, SymbolicPoint):
        return {"shift_offset": p.offset}
    if isinstance(p, tuple):
        return [_point_json(q) for q in p]
    return p  # a factor shift's offset


def _grid_points_json(grid: AngleLevelGrid) -> str:
    """The indent=2 text of a non-empty grid's point list as the last key
    of the construction report, byte for byte what ``_point_json`` over
    every point would dump to there, built from the grid's two axes."""
    r = grid.angle_count
    # np.arange(r) / r is the same correctly rounded j / r that
    # TowerPoint(j / r, level) holds, as the tower pack relies on too
    heads = [f'      {{\n        "angle": {a!r},\n        "level": '
             for a in (np.arange(r) / r).tolist()]
    return ("[\n" + ",\n".join(f"{head}{level}\n      }}"
                                for level in grid.levels for head in heads)
            + "\n    ]")


def _check_json(check: SeparationCheck | SpanningCheck) -> dict[str, Any]:
    if isinstance(check, SeparationCheck):
        return {
            "ok": check.ok,
            "all_strict": check.all_strict,
            "pairs": check.pairs,
            "min_value": None if math.isinf(check.min_value) else check.min_value,
            "min_pair": list(check.min_pair) if check.min_pair else None,
        }
    return {
        "ok": check.ok,
        "all_strict": check.all_strict,
        "sample_size": check.sample_size,
        "centers": check.centers,
        "uncovered_count": check.uncovered_count,
        "first_uncovered": check.first_uncovered,
    }


def _fit_json(fit) -> dict[str, Any]:
    return {
        "slope": fit.slope,
        "intercept": fit.intercept,
        "residual": fit.residual,
        "window": list(fit.window),
        "points_used": fit.points_used,
    }


# ---------------------------------------------------------------------------
# subcommands

def cmd_estimate(cfg: dict[str, Any], system: SystemHandle) -> int:
    variants = count_methods(cfg["method"], system)
    ns, epss, grid = cfg["ns"], list(cfg["eps"]), cfg["grid"]
    estimates = [eps_sweep(system, ns, epss, method, grid) for method in variants]

    out = cfg["out"]
    os.makedirs(out, exist_ok=True)

    lines = ["n,eps,count,method,bound"]
    lines += [f"{r.n},{_fmt(r.eps)},{r.count},{r.method},{r.bound}"
              for est in estimates for r in est.records]
    _write_text(os.path.join(out, "counts.csv"), "\n".join(lines) + "\n")

    _write_json(os.path.join(out, "fits.json"), _document(
        cfg,
        estimates=[
            {
                "method": method,
                "mode": "polynomial",
                "per_eps": {_fmt(eps): _fit_json(fit) for eps, fit in est.per_eps.items()},
                "headline": est.headline,
            }
            for method, est in zip(variants, estimates)
        ],
        headline=estimates[0].headline,
    ))

    for eps in epss:
        series = [r for r in estimates[0].records if r.eps == eps]
        data = "".join(f"{_fmt(math.log(r.n))} {_fmt(math.log(r.count))}\n"
                       for r in series)
        _write_text(os.path.join(out, f"loglog-{_fmt(eps)}.dat"), data)

    for method, est in zip(variants, estimates):
        print(f"{method}: headline slope {_fmt(est.headline)}")
    return EXIT_OK


def cmd_verify_construction(cfg: dict[str, Any], system: SystemHandle) -> int:
    which = cfg["which"]
    if which not in WHICH_KINDS:
        raise ValueError(f"verify-construction needs --which {' | '.join(WHICH_KINDS)}")
    window = max(cfg["ns"])
    eps = min(cfg["eps"])

    if which == "spanning":
        if system.heights is None:
            raise ValueError(f"spanning witness needs a tower system, got {system.name}")
        report, check = certified_spanning_witness(
            window, eps, system.heights, cfg["grid"])
    elif which == "separated":
        if not isinstance(system.heights, PowerHeights):
            raise ValueError(
                f"separated witness needs a power-law tower, got {system.name}")
        report, check = certified_separated_witness(window, eps, system.heights.c)
    else:
        if system.word_fn is None:
            raise ValueError(f"factor shifts need a symbolic system, got {system.name}")
        word = system.word_fn(0, word_window(system, window) - 1)
        report, check = certified_factor_shifts(system, word, window)

    doc = _document(cfg, report={
        "kind": report.kind,
        "window": report.window,
        "eps": report.eps,
        "family": report.family,
        "predicted_size": report.predicted_size,
        "size": report.size,
        "cutoff": report.cutoff,
        "depth": report.depth,
        "levels": report.levels,
        "verified": report.verified,
        "strict": report.strict,
        "notes": [],  # no report carries notes; the file format keeps the key
        "check": _check_json(check),
    })
    points = report.points if report.size <= POINT_DUMP_LIMIT else None
    if isinstance(points, AngleLevelGrid):
        # json's indent encoder is pure Python: the grid's records are
        # formatted from its axes and spliced in, and no point is built.
        # The points are the document's last value, so the last
        # '"points": null' is theirs (quotes inside strings are escaped)
        doc["report"]["points"] = None
        head, _, tail = json.dumps(doc, indent=2).rpartition('"points": null')
        text = f'{head}"points": {_grid_points_json(points)}{tail}\n'
    else:
        if points is not None:
            doc["report"]["points"] = [_point_json(p) for p in points]
        text = json.dumps(doc, indent=2) + "\n"

    os.makedirs(cfg["out"], exist_ok=True)
    _write_text(os.path.join(cfg["out"], "construction.json"), text)

    verdict = "verified" if report.verified else "FAILED"
    print(f"{report.kind} ({report.family}, window {window}, eps {_fmt(eps)}): "
          f"{report.size} points, {verdict}")
    return EXIT_OK if report.verified else EXIT_VERIFY


def cmd_diagnose(cfg: dict[str, Any], system: SystemHandle) -> int:
    check = cfg["check"]
    if check not in CHECK_KINDS:
        raise ValueError(f"diagnose needs --check {' | '.join(CHECK_KINDS)}")
    out = cfg["out"]
    os.makedirs(out, exist_ok=True)

    if check == "recurrence":
        sample = system.sampler(cfg["grid"])
        reports = []
        for eps in cfg["eps"]:
            m = cfg["m_bound"] if cfg["m_bound"] is not None else math.ceil(1.0 / eps)
            times = [[_point_json(p), return_time(system, p, eps, m)] for p in sample]
            all_within = all(t is not None for _, t in times)
            reports.append({"eps": eps, "m_bound": m, "all_within": all_within,
                            "times": times})
            print(f"eps {_fmt(eps)}: all {len(sample)} points return within "
                  f"{m} steps: {all_within}")
        _write_json(os.path.join(out, "recurrence.json"), _document(cfg, reports=reports))
        return EXIT_OK

    if check == "complexity":
        if system.word_fn is None:
            raise ValueError(f"complexity needs a symbolic system, got {system.name}")
        n_max = cfg["n_max"]
        word = system.word_fn(0, word_window(system, n_max) - 1)
        ns = range(1, n_max + 1)
        table = [{"n": n, "complexity": count}
                 for n, count in zip(ns, word_complexities(word, ns, [word.end] * n_max))]
        for row in table:
            print(f"p({row['n']}) = {row['complexity']}")
        _write_json(os.path.join(out, "complexity.json"), _document(
            cfg, range=[word.start, word.end], table=table))
        return EXIT_OK

    if system.heights is None:
        raise ValueError(f"distality probe expects a tower system, got {system.name}")
    la, lb = cfg["levels"]
    fam = system.heights
    window = max(cfg["ns"])
    ha = fam.height(la) if la > 0 else 0.0
    hb = fam.height(lb) if lb > 0 else 0.0
    # both points start at angle 0 on invariant levels: the k = 0 term, the
    # height gap, is the least orbit distance over every window
    gap = abs(ha - hb)
    if gap == 0.0:
        raise ValueError(f"levels {la} and {lb} share the height {_fmt(ha)}; "
                         f"their distality gap is trivially 0")
    print(f"levels {la},{lb}: min orbit distance {_fmt(gap)} over |n| <= {window} "
          f"(height gap {_fmt(gap)})")
    _write_json(os.path.join(out, "distality.json"), _document(
        cfg, levels=[la, lb], window=window, gap=gap, height_gap=gap))
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point

class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage by default; 2 is taken by verification
    # failures here, so route usage errors to 64 instead
    def error(self, message: str):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


# subcommand: (help line, runner)
_COMMANDS = {
    "estimate": ("count tables, slope fits, log-log series", cmd_estimate),
    "verify-construction": ("build a witness family and verify it", cmd_verify_construction),
    "diagnose": ("recurrence / complexity / distality probes", cmd_diagnose),
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="polyent",
                     description="Orbit-count growth experiments on rotation "
                                 "towers and subshifts.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for command, (help_line, _) in _COMMANDS.items():
        sp = sub.add_parser(command, help=help_line)
        sp.add_argument("--config", metavar="PATH", help="flat key = value config file")
        for key, option in OPTIONS.items():
            if option.commands is None or command in option.commands:
                sp.add_argument("--" + key.replace("_", "-"), dest=key,
                                metavar=option.metavar, help=option.help)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        return _COMMANDS[args.command][1](cfg, make_system(cfg["system"]))
    except ValueError as exc:
        print(f"polyent: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
