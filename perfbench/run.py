"""polyent benchmark: three CLI workloads, end-to-end and per-layer metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload tower-certify --seed 0 --seconds 40 --trace 0

Each pass of a workload runs in a fresh single-threaded interpreter
(``perfbench/rep.py``) that imports ``polyent`` from ``src/`` and calls
``polyent.cli.main`` once per workload step. Passes run one after another
until ``--seconds`` have elapsed; every pass's outputs are checked (against
``perfbench/reference/`` for seed 0, against invariants otherwise). With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced passes and reports the per-layer metrics.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. Details of the run
(provenance, every sample, failure notes) go to ``.perfbench_out/result.json``.

``--record-reference`` runs one seed-0 pass and stores its output files as
the reference for that workload.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from workloads import BenchError  # noqa: E402

ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
REP = os.path.join(HERE, "rep.py")

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_SAMPLES = 9
# a whole run must end within 180 s; passes get what is left of this
RUN_LIMIT_S = 170.0

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}
LAYER_UNITS_BY_SUFFIX = (("_per_s", "Mpairs/s"), ("_s", "s"), ("_ratio", "ratio"),
                         ("bytes_written", "bytes"))


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_pass(argvs: list[list[str]], trace: bool, pass_dir: str,
             timeout: float = RUN_LIMIT_S) -> dict:
    """One fresh interpreter; returns its result plus the measured setup time."""
    os.makedirs(pass_dir, exist_ok=True)
    spec_path = os.path.join(pass_dir, "spec.json")
    result_path = os.path.join(pass_dir, "result.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump({"steps": argvs, "trace": trace, "src": SRC,
                   "result": result_path}, fh)
    spawned_at = time.monotonic()
    proc = subprocess.Popen([sys.executable, REP, spec_path], cwd=ROOT,
                            env=child_env(), stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True)
    try:
        _, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"pass in {pass_dir} exceeded {timeout:.0f} s") from None
    if proc.returncode != 0 or not os.path.exists(result_path):
        raise BenchError(f"pass in {pass_dir} exited {proc.returncode}:\n{err[-2000:]}")
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    # CLOCK_MONOTONIC is system-wide, so the two readings share one clock
    result["setup_s"] = result["imported_at"] - spawned_at
    result["stderr"] = err[-2000:]
    return result


def bytes_written(pass_dir: str, steps) -> int:
    total = 0
    for step in steps:
        step_dir = os.path.join(pass_dir, step.name)
        for entry in os.scandir(step_dir) if os.path.isdir(step_dir) else ():
            if entry.is_file():
                total += entry.stat().st_size
    return total


def quartiles(values: list[float]) -> dict:
    if len(values) >= 2:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "max": max(values), "n": len(values)}


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  steps=None, reference_root: str | None = None,
                  out_root: str = OUT) -> dict:
    """Run passes for ``seconds`` and aggregate metrics and output checks.

    ``steps`` overrides the seed-derived steps (the self-test passes tiny
    ones); outputs are compared with ``reference_root`` when it is given and
    with the invariants otherwise.
    """
    if not os.path.isfile(os.path.join(SRC, "polyent", "cli.py")):
        raise BenchError(f"no polyent source under {SRC}")
    if steps is None:
        steps = workloads.workload_steps(workload, seed)
    deadline = time.monotonic() + RUN_LIMIT_S
    shutil.rmtree(out_root, ignore_errors=True)
    os.makedirs(out_root)

    def left() -> float:
        return max(1.0, deadline - time.monotonic())

    # the first import compiles bytecode, which users pay once, not per run
    run_pass([], False, os.path.join(out_root, "warmup"), left())

    tally = workloads.Tally()
    passes: list[dict] = []
    begin = time.monotonic()
    while True:
        traced = trace and len(passes) % 2 == 1
        pass_dir = os.path.join(out_root, f"pass{len(passes):03d}")
        argvs = [s.argv(os.path.join(pass_dir, s.name)) for s in steps]
        result = run_pass(argvs, traced, pass_dir, left())
        result["traced"] = traced
        for step, code in zip(steps, result["exits"]):
            ref = os.path.join(reference_root, step.name) if reference_root else None
            workloads.check_step(step, os.path.join(pass_dir, step.name), code, ref, tally)
        result["bytes_written"] = bytes_written(pass_dir, steps)
        passes.append(result)
        kinds = {p["traced"] for p in passes}
        if time.monotonic() - begin >= seconds and len(kinds) == (2 if trace else 1):
            break

    setups = [p["setup_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_pass([], False, os.path.join(out_root, "setup"), left())["setup_s"])

    plain = [p for p in passes if not p["traced"]]
    samples = {
        "wall_s": [p["wall_s"] for p in plain],
        "setup_s": setups,
        "peak_rss_mib": [p["peak_rss_mib"] for p in plain],
    }
    if trace:
        traced = [p for p in passes if p["traced"]]
        for name in traced[0]["layers"]:
            samples[name] = [p["layers"][name] for p in traced]
        samples["cli.bytes_written"] = [p["bytes_written"] for p in traced]
        overhead = (statistics.median(p["wall_s"] for p in traced)
                    - statistics.median(samples["wall_s"]))
        metrics = {name: statistics.median(v) for name, v in samples.items()
                   if name not in END_TO_END_UNITS}
        metrics["bench.trace_overhead_s"] = overhead
        units = {name: layer_unit(name) for name in metrics}
        absent = sorted({a for p in traced for a in p.get("absent", [])})
        hook_errors = sorted({e for p in traced for e in p.get("hook_errors", [])})
    else:
        metrics = {name: statistics.median(samples[name]) for name in END_TO_END_UNITS}
        units = dict(END_TO_END_UNITS)
        absent, hook_errors = [], []

    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "steps": [s.argv(f"<out>/{s.name}") for s in steps],
        "passes": len(passes),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failure_notes": tally.notes,
        "metrics": metrics,
        "units": units,
        "spread": {name: quartiles(v) for name, v in samples.items()},
        "absent": absent,
        "hook_errors": hook_errors,
    }


def layer_unit(name: str) -> str:
    for suffix, unit in LAYER_UNITS_BY_SUFFIX:
        if name.endswith(suffix):
            return unit
    return "count"


# ---------------------------------------------------------------------------
# provenance

def _git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def _source_digest() -> str:
    # identifies the measured code when the checkout carries no git metadata
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames.sort()
        for fname in sorted(filenames):
            if fname.endswith(".py"):
                path = os.path.join(dirpath, fname)
                h.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_sizes() -> dict[str, str]:
    """Unified cache sizes by level, as the kernel reports them (e.g. 2048K)."""
    sizes = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for entry in sorted(os.listdir(base)) if os.path.isdir(base) else ():
        try:
            with open(os.path.join(base, entry, "level"), encoding="utf-8") as fh:
                level = fh.read().strip()
            with open(os.path.join(base, entry, "size"), encoding="utf-8") as fh:
                size = fh.read().strip()
        except OSError:
            continue
        if level in ("2", "3"):
            sizes[f"l{level}"] = size
    return sizes


def provenance(seed: int) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "unknown"
    return {
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "caches": _cache_sizes(),
        "thread_env": {var: "1" for var in THREAD_VARS},
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# entry point

def record_references(workload: str) -> None:
    steps = workloads.workload_steps(workload, 0)
    pass_dir = os.path.join(OUT, "record")
    shutil.rmtree(pass_dir, ignore_errors=True)
    result = run_pass([s.argv(os.path.join(pass_dir, s.name)) for s in steps],
                      False, pass_dir)
    for step, code in zip(steps, result["exits"]):
        if code != 0:
            raise BenchError(f"{workload}/{step.name} exited {code}; not recorded")
        dest = workloads.reference_dir(workload, step)
        workloads.record_reference(step, os.path.join(pass_dir, step.name), dest)
        print(f"recorded {dest}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)

    try:
        if args.record_reference:
            record_references(args.workload)
            return 0
        reference_root = (os.path.join(workloads.REFERENCE_DIR, args.workload)
                          if args.seed == 0 else None)
        report = run_benchmark(args.workload, args.seed, args.seconds,
                               bool(args.trace), reference_root=reference_root)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    report["provenance"] = provenance(args.seed)
    with open(os.path.join(OUT, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)

    print(f"workload {args.workload}, seed {args.seed}, {report['passes']} passes")
    print("provenance " + json.dumps(report["provenance"], sort_keys=True))
    for name, value in report["metrics"].items():
        spread = report["spread"].get(name)
        detail = (f"  (median of {spread['n']}, q1 {spread['q1']:.6g}, q3 {spread['q3']:.6g})"
                  if spread else "")
        print(f"{name} = {value:.6g} {report['units'][name]}{detail}")
    fail_frac = report["failed"] / report["attempted"]
    print(f"fail_frac = {fail_frac:.6g} ratio  ({report['failed']} of "
          f"{report['attempted']} operations)")
    for note in report["failure_notes"]:
        print(f"failure: {note}")
    for name in report["absent"]:
        print(f"absent: {name} (its metrics read 0)")
    for err in report["hook_errors"]:
        print(f"hook error: {err}")

    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": report["units"][name]}
                    for name, value in report["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
