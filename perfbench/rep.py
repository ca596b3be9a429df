"""One pass of one workload, in a fresh interpreter.

Usage: python3 perfbench/rep.py SPEC.json

SPEC.json holds ``steps`` (CLI argument lists), ``trace`` (bool), ``src``
(the directory ``polyent`` must be imported from) and ``result`` (where to
write the outcome). The pass imports ``polyent``, optionally installs the
tracing wrappers, calls ``polyent.cli.main`` once per step, and writes the
wall time, peak resident set and exit codes (plus layer metrics and spans
when traced) to ``result``. An import failure exits 1 without a result.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)

    import polyent.cli as cli

    imported_at = time.monotonic()
    src = os.path.realpath(spec["src"])
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print(f"polyent imported from {cli.__file__}, expected under {src}",
              file=sys.stderr)
        return 1

    entry = cli.main
    tracer = None
    if spec["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        entry = tracer.wrap(tracing.ROOT, cli.main)

    exits: list = []
    start = time.perf_counter()
    for argv in spec["steps"]:
        try:
            exits.append(entry(argv))
        except Exception as exc:  # a crash is a failed step, not a dead pass
            traceback.print_exc()
            exits.append(f"{type(exc).__name__}: {exc}")
    wall_s = time.perf_counter() - start
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "imported_at": imported_at,
        "wall_s": wall_s,
        "peak_rss_mib": peak_rss_mib,
        "exits": exits,
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        result["absent"] = tracer.absent
        result["hook_errors"] = tracer.hook_errors
        tracer.write_spans(os.path.join(os.path.dirname(spec["result"]), "spans.jsonl"))
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        raise SystemExit(64)
    raise SystemExit(main(sys.argv[1]))
