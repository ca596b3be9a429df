"""Workload definitions, seed-derived inputs, and output checks.

A workload is a short list of CLI steps run in one fresh interpreter. Seed 0
runs the canonical arguments below and its outputs are compared cell by cell
and verdict by verdict with the files recorded under ``reference/``. Any
other seed jitters each step's window (``n0``) and sample grid (``grid``)
deterministically by up to ``JITTER`` and is checked against invariants
instead: certification verdicts must be ``verified``, Sturmian cells must
count span + 1 distinct blocks, and greedy cells (no invariant known) must
be present and well formed.
"""

from __future__ import annotations

import json
import math
import os
import random
import shutil
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")

GOLDEN_SLOPE = "0.6180339887498949"
JITTER = 0.02

class BenchError(Exception):
    """The benchmark itself could not run (as opposed to a failed output)."""


OUTPUT_FILES = {
    "estimate": ("counts.csv", "fits.json"),
    "verify-construction": ("construction.json",),
}


@dataclass(frozen=True)
class Step:
    """One ``polyent`` CLI invocation of a workload."""

    name: str
    command: str
    options: tuple[tuple[str, str], ...]

    def option(self, key: str) -> str:
        return dict(self.options)[key]

    def argv(self, out: str) -> list[str]:
        args = [self.command]
        for key, value in self.options:
            args += [f"--{key}", value]
        return args + ["--out", out]


def _step(name: str, command: str, **options) -> Step:
    return Step(name, command, tuple((k, str(v)) for k, v in options.items()))


# Sizes are scaled so one pass of each workload takes a few seconds on a
# 2-core Xeon (Sapphire Rapids, 2 GHz KVM guest); the shape of each workload,
# which layer dominates it and how it calls the tower kernel, is kept.
WORKLOADS: dict[str, tuple[Step, ...]] = {
    # bulk kernel arithmetic: a capped spanning audit in a few wide blocks,
    # then an uncapped all-pairs separation audit
    "tower-certify": (
        _step("spanning", "verify-construction", system="tower-power:2",
              which="spanning", n0=500, steps=1, eps="0.1", grid=1000),
        _step("separated", "verify-construction", system="tower-power:1",
              which="separated", n0=20000, steps=1, eps="0.1"),
    ),
    # the same kernel through thousands of 1 x k row calls in the greedy loop
    "tower-greedy": (
        _step("greedy", "estimate", system="tower-power:1", method="greedy",
              n0=32, steps=6, eps="0.1", grid=600),
    ),
    # never touches the tower kernel: word generation, block ranking and the
    # pointwise subshift Bowen distance
    "sturmian-exact": (
        _step("symbolic", "estimate", system=f"sturmian:{GOLDEN_SLOPE}",
              method="symbolic", n0=512, steps=7, eps="1.0,0.5,0.25"),
        _step("factor-shifts", "verify-construction",
              system=f"sturmian:{GOLDEN_SLOPE}", which="factor-shifts",
              n0=200, steps=1),
    ),
}

JITTERED = ("n0", "grid")


def workload_steps(name: str, seed: int) -> tuple[Step, ...]:
    """The steps of a workload, with inputs derived from the seed."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    steps = WORKLOADS[name]
    if seed == 0:
        return steps
    rng = random.Random(f"{name}:{seed}")
    jittered = []
    for step in steps:
        options = []
        for key, value in step.options:
            if key in JITTERED:
                value = str(round(int(value) * (1.0 + rng.uniform(-JITTER, JITTER))))
            options.append((key, value))
        jittered.append(Step(step.name, step.command, tuple(options)))
    return tuple(jittered)


# ---------------------------------------------------------------------------
# output checks

@dataclass
class Tally:
    """Operations attempted and failed, with a note per failure."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)


def _windows(step: Step) -> list[int]:
    # the CLI's window rule: n0 * ratio^k, rounded, deduplicated
    n0, steps = int(step.option("n0")), int(step.option("steps"))
    ns: list[int] = []
    for k in range(steps):
        n = int(round(n0 * 2.0 ** k))
        if not ns or n > ns[-1]:
            ns.append(n)
    return ns


def _read_cells(path: str) -> dict[tuple[str, str, str], tuple[str, str]] | None:
    """counts.csv as {(n, eps, method): (count, bound)}; None if unreadable."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError:
        return None
    if not lines or lines[0] != "n,eps,count,method,bound":
        return None
    cells = {}
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != 5:
            return None
        n, eps, count, method, bound = parts
        cells[(n, eps, method)] = (count, bound)
    return cells


def _read_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def _expected_method(step: Step) -> tuple[str, str]:
    if step.option("method") == "symbolic":
        return "symbolic-exact", "exact"
    return "greedy-separated", "separated-lower-bound"


def _cell_invariant(step: Step, n: int, eps: float, count: str, bound: str) -> bool:
    method, want_bound = _expected_method(step)
    if bound != want_bound or not count.isdigit() or int(count) < 1:
        return False
    if method == "symbolic-exact":
        # a Sturmian word has exactly span + 1 blocks of length span, where
        # span widens the window by the dyadic index of eps on each side
        span = n + 2 * max(0, math.floor(math.log2(1.0 / eps)))
        return int(count) == span + 1
    return True


def check_estimate(step: Step, out: str, exit_code, reference: str | None,
                   tally: Tally) -> None:
    method, _ = _expected_method(step)
    epss = [float(e) for e in step.option("eps").split(",")]
    cells = _read_cells(os.path.join(out, "counts.csv")) if exit_code == 0 else None
    ref_cells = _read_cells(os.path.join(reference, "counts.csv")) if reference else None
    if reference and ref_cells is None:
        raise BenchError(f"reference counts missing under {reference}")
    seen = set()
    for eps in epss:
        for n in _windows(step):
            key = (str(n), repr(eps), method)
            seen.add(key)
            got = cells.get(key) if cells is not None else None
            where = f"{step.name} cell n={n} eps={eps!r}"
            if got is None:
                tally.record(False, f"{where}: missing (exit {exit_code})")
            elif ref_cells is not None:
                tally.record(got == ref_cells.get(key),
                             f"{where}: {got} != reference {ref_cells.get(key)}")
            else:
                tally.record(_cell_invariant(step, n, eps, *got),
                             f"{where}: {got} breaks the invariant")
    for key in sorted(set(cells or ()) - seen):
        tally.record(False, f"{step.name}: unexpected row {key}")

    fits = _read_json(os.path.join(out, "fits.json")) if exit_code == 0 else None
    ref_fits = _read_json(os.path.join(reference, "fits.json")) if reference else None
    if reference and ref_fits is None:
        raise BenchError(f"reference fits missing under {reference}")
    _check_fits(step, fits, ref_fits, epss, tally)


def _fit_entries(doc) -> dict[str, object]:
    """fits.json split into comparable parts: the header and one per fit."""
    parts: dict[str, object] = {
        "header": {"config": doc.get("config"), "headline": doc.get("headline")}}
    for est in doc.get("estimates", []):
        for eps, fit in est.get("per_eps", {}).items():
            parts[f"{est.get('method')}@{eps}"] = {
                "mode": est.get("mode"), "headline": est.get("headline"), "fit": fit}
    return parts


def _fit_well_formed(entry) -> bool:
    fit = entry.get("fit") if isinstance(entry, dict) else None
    return (isinstance(fit, dict) and isinstance(fit.get("slope"), float)
            and math.isfinite(fit["slope"]) and fit.get("points_used", 0) >= 3)


def _check_fits(step: Step, fits, ref_fits, epss: list[float], tally: Tally) -> None:
    method, _ = _expected_method(step)
    keys = ["header"] + [f"{method}@{eps!r}" for eps in epss]
    got = _fit_entries(fits) if isinstance(fits, dict) else {}
    want = _fit_entries(ref_fits) if isinstance(ref_fits, dict) else None
    for key in keys:
        where = f"{step.name} fits.json {key}"
        if key not in got:
            tally.record(False, f"{where}: missing")
        elif want is not None:
            tally.record(got[key] == want.get(key), f"{where}: differs from reference")
        elif key == "header":
            tally.record(isinstance(got[key]["headline"], float), f"{where}: malformed")
        else:
            tally.record(_fit_well_formed(got[key]), f"{where}: malformed")


def _verdict_fields(doc) -> dict:
    # everything that identifies the result; tool name and version do not
    return {"config": doc.get("config"), "report": doc.get("report")}


def check_construction(step: Step, out: str, exit_code, reference: str | None,
                       tally: Tally) -> None:
    doc = _read_json(os.path.join(out, "construction.json"))
    where = f"{step.name} verdict"
    if exit_code != 0 or not isinstance(doc, dict) or not isinstance(doc.get("report"), dict):
        tally.record(False, f"{where}: exit {exit_code}, no readable construction.json")
        return
    if reference:
        ref = _read_json(os.path.join(reference, "construction.json"))
        if ref is None:
            raise BenchError(f"reference construction missing under {reference}")
        tally.record(_verdict_fields(doc) == _verdict_fields(ref),
                     f"{where}: differs from reference")
        return
    report = doc["report"]
    ok = (report.get("verified") is True
          and report.get("check", {}).get("ok") is True
          and report.get("size") == report.get("predicted_size")
          and report.get("window") == int(step.option("n0")))
    tally.record(ok, f"{where}: not verified or size off prediction")


def check_step(step: Step, out: str, exit_code, reference: str | None,
               tally: Tally) -> None:
    if step.command == "estimate":
        check_estimate(step, out, exit_code, reference, tally)
    else:
        check_construction(step, out, exit_code, reference, tally)


def reference_dir(workload: str, step: Step) -> str:
    return os.path.join(REFERENCE_DIR, workload, step.name)


def record_reference(step: Step, out: str, dest: str) -> None:
    """Copy one step's output files into a reference directory."""
    os.makedirs(dest, exist_ok=True)
    for fname in OUTPUT_FILES[step.command]:
        shutil.copyfile(os.path.join(out, fname), os.path.join(dest, fname))
