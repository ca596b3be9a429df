"""Per-layer tracing from outside the package.

The traced pass wraps the public functions of each ``polyent`` module, and
the kernel fields of every ``SystemHandle`` that ``make_system`` or
``tower_system`` returns, in timing wrappers. Nothing under ``src/`` is
edited: wrappers are swapped into every loaded ``polyent`` module that
holds the original function, so names imported with ``from ... import``
are covered too. A name that no longer exists is listed as absent and its
metrics read 0.

Spans are kept in memory as ``[name, start, end, parent]`` and written when
the pass ends. A span's self time is its duration minus the durations of
its direct children; a call into a name that is already the innermost open
span (a product kernel calling its factors) is folded into that span.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import sys
import time
from collections import defaultdict
from typing import Any, Callable

# (module, function, span name) for module-level public functions
FUNCTIONS = (
    ("systems", "tower_sample", "systems.sample"),
    ("bowen", "bowen_block", "bowen.block"),
    ("bowen", "verify_spanning", "bowen.verify_spanning"),
    ("bowen", "verify_separated", "bowen.verify_separated"),
    ("bowen", "greedy_separated", "bowen.greedy_separated"),
    ("constructions", "spanning_witness", "constructions.witness"),
    ("constructions", "separated_witness", "constructions.witness"),
    ("constructions", "separated_shift_family", "constructions.witness"),
    ("constructions", "certified_spanning_witness", "constructions.certify"),
    ("constructions", "certified_separated_witness", "constructions.certify"),
    ("constructions", "certified_factor_shifts", "constructions.certify"),
    ("estimation", "count_table", "estimation.count_table"),
    ("estimation", "fit_poly_slope", "estimation.fit"),
    ("diagnostics", "word_complexity", "diagnostics.word_complexity"),
)

# SystemHandle fields that carry a system's kernels, and their span names
HANDLE_FIELDS = (
    ("orbit_cdist", "systems.cdist"),
    ("orbit_dist", "systems.pointwise"),
    ("word_fn", "systems.word"),
)
HANDLE_FACTORIES = (("systems", "make_system"), ("systems", "tower_system"))

ROOT = "cli.main"


class Tracer:
    """In-memory span recorder with per-name call counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self.hook_errors: list[str] = []
        # pairs evaluated so far, read at span entry and exit to attribute
        # kernel work to the verifier that asked for it
        self.kernel_pairs = 0
        self.pointwise_pairs = 0

    def wrap(self, name: str, fn: Callable, post: Callable | None = None) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack
            if stack and tracer.spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            pairs0 = (tracer.kernel_pairs, tracer.pointwise_pairs)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if post is not None:
                try:
                    post(tracer, args, kwargs, result, pairs0)
                except (AttributeError, TypeError, KeyError, IndexError) as exc:
                    tracer.hook_errors.append(f"{name}: {exc!r}")
            return result

        traced._perfbench_traced = True
        return traced

    # ------------------------------------------------------------------
    # aggregation

    def totals(self) -> tuple[dict, dict, dict]:
        """Per span name: call count, total seconds, self seconds."""
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        child: list[float] = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            dur = end - start
            calls[name] += 1
            total[name] += dur
            if parent >= 0:
                child[parent] += dur
        self_s: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            self_s[name] += (end - start) - child[i]
        return calls, total, self_s

    def layer_metrics(self) -> dict[str, float]:
        calls, total, self_s = self.totals()
        c = self.counters

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        return {
            "systems.cdist_calls": calls["systems.cdist"],
            "systems.cdist_pairs": self.kernel_pairs,
            "systems.cdist_s": total["systems.cdist"],
            "systems.cdist_mpairs_per_s": ratio(self.kernel_pairs / 1e6,
                                                total["systems.cdist"]),
            "systems.sample_points": c["systems.sample_points"],
            "systems.sample_s": total["systems.sample"],
            "systems.word_symbols": c["systems.word_symbols"],
            "systems.word_s": total["systems.word"],
            "systems.pointwise_calls": calls["systems.pointwise"],
            "systems.pointwise_s": total["systems.pointwise"],
            "bowen.block_calls": calls["bowen.block"],
            "bowen.verify_spanning_self_s": self_s["bowen.verify_spanning"],
            "bowen.spanning_pair_ratio": ratio(c["bowen.spanning_pairs"],
                                               c["bowen.spanning_pairs_full"]),
            "bowen.verify_separated_self_s": self_s["bowen.verify_separated"],
            "bowen.separated_pair_ratio": ratio(c["bowen.separated_pairs"],
                                                c["bowen.separated_pairs_full"]),
            "bowen.greedy_separated_self_s": self_s["bowen.greedy_separated"],
            "constructions.witness_points": c["constructions.witness_points"],
            "constructions.witness_s": total["constructions.witness"],
            "constructions.certify_self_s": self_s["constructions.certify"],
            "estimation.cells": c["estimation.cells"],
            "estimation.count_table_self_s": self_s["estimation.count_table"],
            "estimation.fit_s": total["estimation.fit"],
            "diagnostics.word_complexity_calls": calls["diagnostics.word_complexity"],
            "diagnostics.word_complexity_s": total["diagnostics.word_complexity"],
            "diagnostics.ranked_symbols": c["diagnostics.ranked_symbols"],
            "cli.command_s": total[ROOT],
            "cli.self_s": self_s[ROOT],
        }

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# ---------------------------------------------------------------------------
# post-call hooks: counts measured where the work happens

def _count_cdist(t: Tracer, args, kwargs, result, pairs0) -> None:
    t.kernel_pairs += int(result.size)


def _count_pointwise(t: Tracer, args, kwargs, result, pairs0) -> None:
    t.pointwise_pairs += 1


def _count_word(t: Tracer, args, kwargs, result, pairs0) -> None:
    t.counters["systems.word_symbols"] += len(result.symbols)


def _count_sample(t: Tracer, args, kwargs, result, pairs0) -> None:
    t.counters["systems.sample_points"] += len(result)


def _pairs_since(t: Tracer, pairs0) -> int:
    return (t.kernel_pairs - pairs0[0]) + (t.pointwise_pairs - pairs0[1])


def _count_spanning(t: Tracer, args, kwargs, result, pairs0) -> None:
    t.counters["bowen.spanning_pairs"] += _pairs_since(t, pairs0)
    t.counters["bowen.spanning_pairs_full"] += result.sample_size * result.centers


def _count_separated(t: Tracer, args, kwargs, result, pairs0) -> None:
    t.counters["bowen.separated_pairs"] += _pairs_since(t, pairs0)
    t.counters["bowen.separated_pairs_full"] += result.pairs


def _count_witness(t: Tracer, args, kwargs, result, pairs0) -> None:
    points = result.points if hasattr(result, "points") else result
    t.counters["constructions.witness_points"] += len(points)


def _count_cells(t: Tracer, args, kwargs, result, pairs0) -> None:
    t.counters["estimation.cells"] += len(result)


def _count_ranked(t: Tracer, args, kwargs, result, pairs0) -> None:
    word = args[0] if args else kwargs["word"]
    t.counters["diagnostics.ranked_symbols"] += word.end - word.start


POST = {
    "systems.cdist": _count_cdist,
    "systems.pointwise": _count_pointwise,
    "systems.word": _count_word,
    "systems.sample": _count_sample,
    "bowen.verify_spanning": _count_spanning,
    "bowen.verify_separated": _count_separated,
    "constructions.witness": _count_witness,
    "estimation.count_table": _count_cells,
    "diagnostics.word_complexity": _count_ranked,
}


# ---------------------------------------------------------------------------
# installation

def _swap_everywhere(original: Callable, replacement: Callable) -> None:
    # cover ``from .module import name`` bindings in every polyent module
    for modname, module in list(sys.modules.items()):
        if modname != "polyent" and not modname.startswith("polyent."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _note_absent(tracer: Tracer, name: str) -> None:
    if name not in tracer.absent:
        tracer.absent.append(name)


def _wrap_handle(tracer: Tracer, handle: Any) -> Any:
    changes = {}
    for field, span in HANDLE_FIELDS:
        if not hasattr(handle, field):
            _note_absent(tracer, f"SystemHandle.{field}")
            continue
        fn = getattr(handle, field)
        if fn is not None and not getattr(fn, "_perfbench_traced", False):
            changes[field] = tracer.wrap(span, fn, POST.get(span))
    if not changes:
        return handle
    try:
        return dataclasses.replace(handle, **changes)
    except TypeError:
        _note_absent(tracer, "SystemHandle as a dataclass")
        return handle


def _lookup(tracer: Tracer, modname: str, fname: str) -> Callable | None:
    try:
        fn = getattr(importlib.import_module(f"polyent.{modname}"), fname, None)
    except ImportError:
        fn = None
    if fn is None:
        _note_absent(tracer, f"{modname}.{fname}")
    return fn


def install(tracer: Tracer) -> None:
    """Swap tracing wrappers into the loaded ``polyent`` modules."""
    for modname, fname, span in FUNCTIONS:
        original = _lookup(tracer, modname, fname)
        if original is not None:
            _swap_everywhere(original, tracer.wrap(span, original, POST.get(span)))

    for modname, fname in HANDLE_FACTORIES:
        original = _lookup(tracer, modname, fname)
        if original is None:
            continue

        def factory(*args, _original=original, **kwargs):
            return _wrap_handle(tracer, _original(*args, **kwargs))

        _swap_everywhere(original, factory)
