"""The repository benchmark: one command, four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from
``src/``.  Inputs are generated from ``--seed``; every output is checked
against the generator's answers.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  The exit status is non-zero when any check failed.

``--trace 1`` runs the workload twice, untraced and then with spans
around each call into the program and ``repro.obs`` switched on, and
reports ``trace.overhead_frac`` from the pair.  Layers the workload does
not drive are filled in from short traced passes of the workloads that
do (see README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from common import OUT_DIR, cleanup, program_root
from spans import Tracer

WORKLOADS = ("ingest_typed", "validate_mixed", "serve_open", "prepare_cold")

#: measuring time of the short traced passes that fill in layers the
#: chosen workload does not drive
FILL_SECONDS = 1.5


def _workload(name: str):
    import inproc
    import serving

    return {
        "ingest_typed": inproc.ingest_typed,
        "validate_mixed": inproc.validate_mixed,
        "serve_open": serving.serve_open,
        "prepare_cold": inproc.prepare_cold,
    }[name]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    program_root()
    # the metric names and units are the ones BENCHMARK.json declares
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    try:
        if args.trace:
            runs, metrics = _traced(args, spec["per_layer"])
        else:
            run = _workload(args.workload)(args.seed, args.seconds, Tracer(False))
            runs = [run]
            metrics = {m["name"]: run.metrics[m["name"]] for m in spec["end_to_end"]}
    finally:
        cleanup()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    attempted = sum(r.tally.attempted for r in runs)
    failed = sum(r.tally.failed for r in runs)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    for line in runs[1 if args.trace else 0].report:
        print("  " + line)
    for r in runs:
        for example in r.tally.examples:
            print(f"  FAILED CHECK: {example}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0 if failed == 0 else 1


def _traced(args, per_layer: list[dict]):
    """The untraced and traced passes, then fill passes for the layers
    the workload does not drive."""
    base = _workload(args.workload)(args.seed, args.seconds, Tracer(False))
    tracer = Tracer(True)
    run = _workload(args.workload)(args.seed, args.seconds, tracer)
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write(os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.jsonl"))
    runs = [base, run]
    layers = dict(run.layers)
    layers["trace.overhead_frac"] = base.pace / run.pace - 1.0
    names = [m["name"] for m in per_layer]
    for other in WORKLOADS:
        if all(name in layers for name in names):
            break
        if other != args.workload:
            fill = _workload(other)(args.seed, FILL_SECONDS, Tracer(True), setups=1)
            runs.append(fill)
            for name, value in fill.layers.items():
                layers.setdefault(name, value)
    missing = [name for name in names if name not in layers]
    if missing:
        raise RuntimeError(f"no measurement for {', '.join(missing)}")
    return runs, {name: layers[name] for name in names}


if __name__ == "__main__":
    sys.exit(main())
