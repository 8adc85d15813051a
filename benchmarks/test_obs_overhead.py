"""OBS OVERHEAD — the instrumentation must be free while disabled.

``repro.obs`` threads counters and timers through every stage that
PRs 2 and 3 made fast: the fused ingest loop, segment rendering, the
cache manager.  The deal is that a disabled instrument costs one
module-global read and a branch — so the throughput floors those PRs
shipped must still hold with the instrumentation compiled in and
switched off.  This experiment holds the line:

* **call-site cost** — a disabled ``count``/``timeit``/``span`` stays
  under a microsecond-scale bound (generous for CI runners; the real
  cost is tens of nanoseconds),
* **render floor** — ``render_text`` still clears the PR 2 speedup
  floor over the DOM route on the same benchmark template,
* **ingest floor** — fused ingest still clears the PR 3 speedup floor
  over the seed pipeline on the same corpus,
* **enabled cost** — for scale, the enabled-mode render throughput is
  recorded (no floor: collection is opt-in and allowed to cost).

Environment knobs (used by the CI smoke job):

* ``REPRO_BENCH_QUICK=1``      — fewer iterations, relaxed floors,
* ``REPRO_BENCH_JSON=<path>``  — where to write the JSON artifact
  (default: ``BENCH_obs_overhead.json``).
"""

import json
import os
import time

import pytest

from benchmarks.conftest import purchase_order_text
from benchmarks.test_parse_ingest import _seed_pipeline
from benchmarks.test_render_throughput import PO_TEMPLATE, PO_VALUES
from repro import obs
from repro.core import bind
from repro.dom.serialize import serialize
from repro.ingest import fused_parse
from repro.pxml import Template
from repro.schemas import PURCHASE_ORDER_SCHEMA

#: PR 2/3 shipped 3x floors; this experiment re-asserts them with the
#: obs call sites present and disabled
REQUIRED_SPEEDUP = 3.0
QUICK_SPEEDUP = 1.5

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")
CALLS = 20_000 if QUICK else 200_000
RENDERS = 300 if QUICK else 2000
ITEMS = 100 if QUICK else 300
REPEATS = 3 if QUICK else 5
FLOOR = QUICK_SPEEDUP if QUICK else REQUIRED_SPEEDUP

#: worst tolerated per-call cost of a *disabled* instrument — orders of
#: magnitude above the real cost, tight enough to catch accidental work
#: (string formatting, dict writes) sneaking ahead of the enabled-check
MAX_DISABLED_CALL_US = 2.0

#: module-level result sink, flushed at teardown
RESULTS: dict[str, dict] = {}


@pytest.fixture(scope="module", autouse=True)
def _write_json_report():
    yield
    target = os.environ.get("REPRO_BENCH_JSON", "BENCH_obs_overhead.json")
    if target and RESULTS:
        with open(target, "w", encoding="utf-8") as handle:
            json.dump(RESULTS, handle, indent=2, sort_keys=True)


@pytest.fixture(autouse=True)
def _obs_off():
    """Every test starts disabled and leaves no state behind."""
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def _best_seconds(action, repeats=REPEATS):
    best = None
    for _ in range(repeats):
        start = time.perf_counter()
        action()
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    return best


def test_disabled_call_sites_are_nanoscale(capsys):
    """A disabled count/timeit/span must not do per-call work."""

    def burn_count():
        for _ in range(CALLS):
            obs.count("bench.counter", route="fused")

    def burn_timed():
        for _ in range(CALLS):
            with obs.timeit("bench.timer"):
                pass

    count_us = _best_seconds(burn_count) / CALLS * 1e6
    timed_us = _best_seconds(burn_timed) / CALLS * 1e6
    RESULTS["disabled_call_cost"] = {
        "count_us_per_call": round(count_us, 4),
        "timeit_us_per_call": round(timed_us, 4),
        "calls": CALLS,
        "budget_us": MAX_DISABLED_CALL_US,
    }
    print(
        f"\ndisabled call cost: count {count_us:.3f}us  "
        f"timeit {timed_us:.3f}us  (budget {MAX_DISABLED_CALL_US}us)"
    )
    assert count_us < MAX_DISABLED_CALL_US
    assert timed_us < MAX_DISABLED_CALL_US
    assert obs.snapshot()["counters"] == {}


def test_render_floor_holds_with_obs_disabled(capsys):
    """The PR 2 criterion, re-run with instrumentation present."""
    binding = bind(PURCHASE_ORDER_SCHEMA)
    template = Template(binding, PO_TEMPLATE)
    assert template._segments is not None

    def text_route():
        for _ in range(RENDERS):
            template.render_text(**PO_VALUES)

    def dom_route():
        for _ in range(RENDERS):
            serialize(template.render(**PO_VALUES))

    text_rps = RENDERS / _best_seconds(text_route)
    dom_rps = RENDERS / _best_seconds(dom_route)
    obs.enable(reset=True)
    enabled_rps = RENDERS / _best_seconds(text_route)
    obs.disable()
    speedup = text_rps / dom_rps
    RESULTS["render"] = {
        "text_renders_per_sec": round(text_rps, 1),
        "dom_renders_per_sec": round(dom_rps, 1),
        "text_enabled_renders_per_sec": round(enabled_rps, 1),
        "speedup_disabled": round(speedup, 2),
        "floor": FLOOR,
        "renders": RENDERS,
    }
    print(
        f"\nrender with obs off: text {text_rps:.0f}/s  dom {dom_rps:.0f}/s "
        f"-> {speedup:.2f}x (floor {FLOOR}x); enabled {enabled_rps:.0f}/s"
    )
    assert speedup >= FLOOR, (
        f"render_text with disabled obs is only {speedup:.2f}x the DOM "
        f"route (need >= {FLOOR}x): instrumentation is not free"
    )


def test_ingest_floor_holds_with_obs_disabled(capsys):
    """The PR 3 criterion, re-run with instrumentation present."""
    binding = bind(PURCHASE_ORDER_SCHEMA)
    text = purchase_order_text(ITEMS)
    fused = _best_seconds(lambda: fused_parse(binding, text))
    seed = _best_seconds(lambda: _seed_pipeline(binding, text))
    speedup = seed / fused
    RESULTS["ingest"] = {
        "seed_ms": round(seed * 1000, 2),
        "fused_ms": round(fused * 1000, 2),
        "speedup_disabled": round(speedup, 2),
        "floor": FLOOR,
        "document_bytes": len(text),
    }
    print(
        f"\ningest with obs off: seed {seed * 1000:.1f}ms  "
        f"fused {fused * 1000:.1f}ms -> {speedup:.2f}x (floor {FLOOR}x)"
    )
    assert speedup >= FLOOR, (
        f"fused ingest with disabled obs is only {speedup:.2f}x the seed "
        f"pipeline (need >= {FLOOR}x): instrumentation is not free"
    )
