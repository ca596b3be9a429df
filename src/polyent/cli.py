"""Experiment driver.

Three subcommands over one shared configuration surface:

* ``estimate``: count tables over an (n, eps) grid, slope fits per scale,
  and plot-ready log-log series;
* ``verify-construction``: build a closed-form witness family and run the
  generic verifier over it, exit status reporting the verdict;
* ``diagnose``: recurrence, word-complexity, or distality probes.

Configuration comes from a flat ``key = value`` text file plus command-line
overrides (later wins). All file output is written after computation
finishes, with fixed key order and shortest round-trip float formatting, so
identical configs reproduce byte-identical files.

Exit codes: 0 success, 2 verification failure, 64 usage or config error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Any, Sequence

import numpy as np

from . import __version__
from .bowen import SeparationCheck, SpanningCheck
from .constructions import (
    certified_factor_shifts,
    certified_separated_witness,
    certified_spanning_witness,
)
from .diagnostics import distality_gap, uniform_recurrence_check, word_complexities
from .estimation import (
    METHOD_GREEDY_SEPARATED,
    METHOD_SYMBOLIC_EXACT,
    analytic_methods,
    eps_sweep,
)
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

TAIL_FRACTION = 0.5
POINT_DUMP_LIMIT = 20000


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# configuration

def _parse_eps_list(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise UsageError(f"bad eps list {text!r}") from None
    if not values:
        raise UsageError("eps list is empty")
    if not all(0.0 < v < math.inf for v in values):
        raise UsageError("eps values must be positive and finite")
    if any(b >= a for a, b in zip(values, values[1:])):
        raise UsageError("eps list must be strictly decreasing")
    return values


def _parse_level_pair(text: str) -> tuple[int, int]:
    parts = [part.strip() for part in text.split(",")]
    if len(parts) != 2:
        raise UsageError(f"levels must be two comma-separated integers, got {text!r}")
    try:
        a, b = int(parts[0]), int(parts[1])
    except ValueError:
        raise UsageError(f"bad level pair {text!r}") from None
    if a < 0 or b < 0:
        raise UsageError("levels must be >= 0")
    if a == b:
        raise UsageError("distality needs two different levels")
    return a, b


def _parse_int(name: str, low: int | None = None):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise UsageError(f"bad integer for {name}: {text!r}") from None
        if low is not None and value < low:
            raise UsageError(f"{name} must be >= {low}, got {value}")
        return value

    return parse


def _parse_ratio(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise UsageError(f"bad ratio {text!r}") from None
    if not 1.0 < value < math.inf:
        raise UsageError(f"ratio must be > 1 and finite, got {value}")
    return value


_CONFIG_PARSERS: dict[str, Any] = {
    "system": str,
    "n0": _parse_int("n0", 1),
    "ratio": _parse_ratio,
    "steps": _parse_int("steps", 1),
    "eps": _parse_eps_list,
    "grid": _parse_int("grid", 1),
    "out": str,
    "method": str,
    "seed": _parse_int("seed"),
    "which": str,
    "check": str,
    "m_bound": _parse_int("m_bound", 1),
    "n_max": _parse_int("n_max", 1),
    "levels": _parse_level_pair,
}

_CONFIG_DEFAULTS: dict[str, Any] = {
    "n0": 16,
    "ratio": 2.0,
    "steps": 8,
    "eps": (0.2, 0.1, 0.05, 0.02),
    "grid": None,
    "out": ".",
    "method": "greedy",
    "seed": 0,
    "which": None,
    "check": None,
    "m_bound": None,
    "n_max": 20,
    "levels": (1, 2),
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
                    raise UsageError(f"{path}:{lineno}: expected key = value")
                key, value = body.split("=", 1)
                raw[key.strip()] = value.strip()
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from None
    return raw


def resolve_config(args: argparse.Namespace) -> dict[str, Any]:
    """Layer defaults, config file, then command-line flags; validate."""
    cfg: dict[str, Any] = dict(_CONFIG_DEFAULTS)
    if args.config is not None:
        for key, text in _read_config_file(args.config).items():
            if key not in _CONFIG_PARSERS:
                raise UsageError(f"unknown config key {key!r}")
            cfg[key] = _CONFIG_PARSERS[key](text)
    for key, parse in _CONFIG_PARSERS.items():
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = parse(value)

    if cfg.get("system") is None:
        raise UsageError("a system spec is required (--system or config key 'system')")
    if cfg["method"] not in ("greedy", "analytic", "symbolic"):
        raise UsageError(f"method must be greedy, analytic, or symbolic, "
                         f"got {cfg['method']!r}")

    ns: list[int] = []
    for k in range(cfg["steps"]):
        try:
            n = int(round(cfg["n0"] * cfg["ratio"] ** k))
        except OverflowError:
            raise UsageError(f"window n0 * ratio^{k} overflows a float (n0 {cfg['n0']}, "
                             f"ratio {cfg['ratio']!r})") from None
        if not ns or n > ns[-1]:
            ns.append(n)
    cfg["ns"] = ns

    min_eps = min(cfg["eps"])
    need = 10.0 / min_eps
    if need == math.inf:
        raise UsageError(f"eps {min_eps!r} too small: 10 angles per scale overflow a float")
    if cfg["grid"] is None:
        cfg["grid"] = math.ceil(need)
    if cfg["grid"] < need:
        raise UsageError(
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
        if cfg.get(key) is not None:
            doc[key] = cfg[key]
    if cfg.get("check") == "complexity":
        doc["n_max"] = cfg["n_max"]
    if cfg.get("check") == "distality":
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


def _point_json(p: Any) -> Any:
    if isinstance(p, TowerPoint):
        return {"angle": p.angle, "level": p.level}
    if isinstance(p, SymbolicPoint):
        return {"shift_offset": p.offset}
    if isinstance(p, tuple):
        return [_point_json(q) for q in p]
    if isinstance(p, (int, float)):
        return p
    return repr(p)


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
# method plumbing

def _method_variants(cfg: dict[str, Any], system: SystemHandle) -> list[str]:
    method = cfg["method"]
    if method == "greedy":
        if system.heights is None and system.sampler is None:
            raise UsageError(f"{system.name} offers no sample for greedy counting")
        return [METHOD_GREEDY_SEPARATED]
    if method == "analytic":
        variants = list(analytic_methods(system))
        if not variants:
            raise UsageError(f"analytic counts need a tower system, got {system.name}")
        return variants
    if system.word_fn is None:
        raise UsageError(f"symbolic counts need a canonical word, got {system.name}")
    return [METHOD_SYMBOLIC_EXACT]


# ---------------------------------------------------------------------------
# subcommands

def cmd_estimate(cfg: dict[str, Any], system: SystemHandle) -> int:
    variants = _method_variants(cfg, system)
    ns, epss, grid = cfg["ns"], list(cfg["eps"]), cfg["grid"]
    estimates = [eps_sweep(system, ns, epss, method, grid, TAIL_FRACTION)
                 for method in variants]

    out = cfg["out"]
    os.makedirs(out, exist_ok=True)

    lines = ["n,eps,count,method,bound"]
    lines += [f"{r.n},{_fmt(r.eps)},{r.count},{r.method},{r.bound}"
              for est in estimates for r in est.records]
    _write_text(os.path.join(out, "counts.csv"), "\n".join(lines) + "\n")

    _write_json(os.path.join(out, "fits.json"), {
        "tool": "polyent",
        "version": __version__,
        "config": _config_json(cfg),
        "estimates": [
            {
                "method": method,
                "mode": "polynomial",
                "per_eps": {_fmt(eps): _fit_json(fit) for eps, fit in est.per_eps.items()},
                "headline": est.headline,
            }
            for method, est in zip(variants, estimates)
        ],
        "headline": estimates[0].headline,
    })

    for eps in epss:
        series = [r for r in estimates[0].records if r.eps == eps]
        data = "".join(f"{_fmt(math.log(r.n))} {_fmt(math.log(r.count))}\n"
                       for r in series)
        _write_text(os.path.join(out, f"loglog-{_fmt(eps)}.dat"), data)

    for method, est in zip(variants, estimates):
        print(f"{method}: headline slope {_fmt(est.headline)}")
    return EXIT_OK


def cmd_verify_construction(cfg: dict[str, Any], system: SystemHandle) -> int:
    which = cfg.get("which")
    if which not in ("spanning", "separated", "factor-shifts"):
        raise UsageError("verify-construction needs --which "
                         "spanning | separated | factor-shifts")
    window = max(cfg["ns"])
    eps = min(cfg["eps"])

    if which == "spanning":
        if system.heights is None:
            raise UsageError(f"spanning witness needs a tower system, got {system.name}")
        report, check = certified_spanning_witness(
            window, eps, system.heights, cfg["grid"])
    elif which == "separated":
        if not isinstance(system.heights, PowerHeights):
            raise UsageError(
                f"separated witness needs a power-law tower, got {system.name}")
        report, check = certified_separated_witness(window, eps, system.heights.c)
    else:
        if system.word_fn is None:
            raise UsageError(f"factor shifts need a symbolic system, got {system.name}")
        word = system.word_fn(0, word_window(system, window) - 1)
        report, check = certified_factor_shifts(system, word, window)

    doc: dict[str, Any] = {
        "tool": "polyent",
        "version": __version__,
        "config": _config_json(cfg),
        "report": {
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
            "notes": list(report.notes),
            "check": _check_json(check),
        },
    }
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
    check = cfg.get("check")
    if check not in ("recurrence", "complexity", "distality"):
        raise UsageError("diagnose needs --check recurrence | complexity | distality")
    out = cfg["out"]
    os.makedirs(out, exist_ok=True)

    if check == "recurrence":
        if system.sampler is None:
            raise UsageError(f"{system.name} offers no sample for the recurrence probe")
        sample = system.sampler(cfg["grid"])
        reports = []
        for eps in cfg["eps"]:
            m = cfg["m_bound"] if cfg["m_bound"] is not None else math.ceil(1.0 / eps)
            rep = uniform_recurrence_check(system, sample, eps, m)
            reports.append(rep)
            print(f"eps {_fmt(eps)}: all {len(sample)} points return within "
                  f"{m} steps: {rep.all_within}")
        _write_json(os.path.join(out, "recurrence.json"), {
            "tool": "polyent",
            "version": __version__,
            "config": _config_json(cfg),
            "reports": [
                {
                    "eps": rep.eps,
                    "m_bound": rep.m_bound,
                    "all_within": rep.all_within,
                    "times": [[_point_json(p), t] for p, t in rep.times],
                }
                for rep in reports
            ],
        })
        return EXIT_OK

    if check == "complexity":
        if system.word_fn is None:
            raise UsageError(f"complexity needs a symbolic system, got {system.name}")
        n_max = cfg["n_max"]
        word = system.word_fn(0, word_window(system, n_max) - 1)
        ns = range(1, n_max + 1)
        table = [{"n": n, "complexity": count}
                 for n, count in zip(ns, word_complexities(word, ns, [word.end] * n_max))]
        for row in table:
            print(f"p({row['n']}) = {row['complexity']}")
        _write_json(os.path.join(out, "complexity.json"), {
            "tool": "polyent",
            "version": __version__,
            "config": _config_json(cfg),
            "range": [word.start, word.end],
            "table": table,
        })
        return EXIT_OK

    if system.heights is None:
        raise UsageError(f"distality probe expects a tower system, got {system.name}")
    la, lb = cfg["levels"]
    fam = system.heights
    x, y = TowerPoint(0.0, la), TowerPoint(0.0, lb)
    window = max(cfg["ns"])
    gap = distality_gap(system, x, y, window)
    ha = fam.height(la) if la > 0 else 0.0
    hb = fam.height(lb) if lb > 0 else 0.0
    print(f"levels {la},{lb}: min orbit distance {_fmt(gap)} over |n| <= {window} "
          f"(height gap {_fmt(abs(ha - hb))})")
    _write_json(os.path.join(out, "distality.json"), {
        "tool": "polyent",
        "version": __version__,
        "config": _config_json(cfg),
        "levels": [la, lb],
        "window": window,
        "gap": gap,
        "height_gap": abs(ha - hb),
    })
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point

class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage by default; 2 is taken by verification
    # failures here, so route usage errors to 64 instead
    def error(self, message: str):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--config", metavar="PATH", help="flat key = value config file")
    sp.add_argument("--system", metavar="SPEC",
                    help="tower-exp | tower-power:C | sturmian:ALPHA | "
                         "full-shift:L | product:SPEC,SPEC")
    sp.add_argument("--n0", metavar="INT", help="first window length")
    sp.add_argument("--ratio", metavar="R", help="geometric window ratio")
    sp.add_argument("--steps", metavar="INT", help="number of window lengths")
    sp.add_argument("--eps", metavar="LIST", help="decreasing scales, comma-separated")
    sp.add_argument("--grid", metavar="INT", help="angles per circle / sample resolution")
    sp.add_argument("--out", metavar="DIR", help="output directory")
    sp.add_argument("--method", metavar="NAME", help="greedy | analytic | symbolic")
    sp.add_argument("--seed", metavar="INT", help="recorded in outputs; reserved "
                    "for sampled subsets")


def _build_parser() -> _Parser:
    parser = _Parser(prog="polyent",
                     description="Orbit-count growth experiments on rotation "
                                 "towers and subshifts.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    est = sub.add_parser("estimate", help="count tables, slope fits, log-log series")
    _add_common(est)

    ver = sub.add_parser("verify-construction",
                         help="build a witness family and verify it")
    _add_common(ver)
    ver.add_argument("--which", metavar="KIND",
                     help="spanning | separated | factor-shifts")

    dia = sub.add_parser("diagnose", help="recurrence / complexity / distality probes")
    _add_common(dia)
    dia.add_argument("--check", metavar="KIND",
                     help="recurrence | complexity | distality")
    dia.add_argument("--m-bound", metavar="INT", dest="m_bound",
                     help="recurrence step bound (default: ceil(1/eps))")
    dia.add_argument("--n-max", metavar="INT", dest="n_max",
                     help="largest block length for complexity (default 20)")
    dia.add_argument("--levels", metavar="A,B",
                     help="tower levels for distality (default 1,2)")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        try:
            system = make_system(cfg["system"])
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        if args.command == "estimate":
            return cmd_estimate(cfg, system)
        if args.command == "verify-construction":
            return cmd_verify_construction(cfg, system)
        return cmd_diagnose(cfg, system)
    except UsageError as exc:
        print(f"polyent: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"polyent: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
