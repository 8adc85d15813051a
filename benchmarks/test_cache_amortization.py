"""CACHE — preparation pays once per machine, not once per process.

The persistent compilation cache moves the paper's program-preparation
work (XSD parse, normalization, interface generation, content-model
DFA construction) into a content-addressed on-disk artifact.  This
experiment measures the amortization directly:

* **cold**  — empty cache directory: full compile + artifact write,
* **warm**  — fresh :class:`~repro.cache.ReproCache` over a populated
  directory: disk read + unpickle + class materialization,
* **live**  — repeat bind on the *same* cache object: the in-process
  binding LRU answers without touching disk at all.

Acceptance floor: warm-start must be at least 5x faster than cold for
both the purchase-order and the XHTML-subset schemas.

Recorded alongside, with no floor (absolute figures for the ledger):

* ``bind:*.memory_cold_ms`` — a cold bind into a memory-only
  ``ReproCache()``, which stores plain ``pickle.dumps`` payloads,
* ``template:heavy_150`` — cold (directory and memory-only) and warm
  compile ms of a 150-item page template, plus its first ``render()``,
  which is where the DOM render function is compiled.

Open question for the ledger: the floor compares a *directory* cold
bind, and most of its headroom is the ``pickletools.optimize`` pass that
only the directory tier runs.  On a 2-vCPU Linux VM the purchase-order
cold bind is 15.9 ms with the pass and 5.7 ms without it, against a
~1.5 ms warm bind: 11.1x versus 3.5x.  So the 5x floor holds the cost of
writing a compact artifact, not the cost of compiling a schema; a floor
on the memory-only cold bind (~4.7 ms) would measure the compiler.

Environment knobs (used by the CI smoke job):

* ``REPRO_BENCH_QUICK=1``      — fewer iterations, same assertions,
* ``REPRO_BENCH_JSON=<path>``  — write the measured numbers as JSON.
"""

import json
import os
import shutil
import statistics
import time

import pytest

from benchmarks import bench_floor
from repro.cache import ReproCache
from repro.dom import serialize
from repro.pxml import Template
from repro.schemas import PURCHASE_ORDER_SCHEMA
from repro.schemas.xhtml import XHTML_SUBSET_SCHEMA

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")
ITERATIONS = 5 if QUICK else 25
#: the ISSUE's acceptance criterion, shared with the CI bench-gate
#: via benchmarks/floors.json (no quick relaxation: the ratio is
#: stable even at low iteration counts)
REQUIRED_SPEEDUP = bench_floor("cache_warm_speedup", QUICK)

#: module-level result sink, flushed to $REPRO_BENCH_JSON at teardown
RESULTS: dict[str, dict[str, float]] = {}


@pytest.fixture(scope="module", autouse=True)
def _write_json_report():
    yield
    target = os.environ.get("REPRO_BENCH_JSON")
    if target and RESULTS:
        RESULTS["_meta"] = {"quick": QUICK}
        with open(target, "w", encoding="utf-8") as handle:
            json.dump(RESULTS, handle, indent=2, sort_keys=True)


def _median_ms(samples):
    return statistics.median(samples) * 1000.0


def measure_amortization(schema_text, cache_dir, iterations=ITERATIONS):
    """Median cold / warm / live / memory-only cold bind times (ms)."""
    cold, warm, live, memory_cold = [], [], [], []
    for _ in range(iterations):
        shutil.rmtree(cache_dir, ignore_errors=True)

        start = time.perf_counter()
        ReproCache.persistent(cache_dir).bind(schema_text)
        cold.append(time.perf_counter() - start)

        # A fresh cache object sees none of the first one's live state:
        # this is the cross-process warm start (disk hit).
        start = time.perf_counter()
        reopened = ReproCache.persistent(cache_dir)
        reopened.bind(schema_text)
        warm.append(time.perf_counter() - start)

        start = time.perf_counter()
        reopened.bind(schema_text)
        live.append(time.perf_counter() - start)

        start = time.perf_counter()
        ReproCache().bind(schema_text)
        memory_cold.append(time.perf_counter() - start)
    shutil.rmtree(cache_dir, ignore_errors=True)
    return {
        "cold_ms": _median_ms(cold),
        "warm_ms": _median_ms(warm),
        "live_ms": _median_ms(live),
        "memory_cold_ms": _median_ms(memory_cold),
        "speedup": _median_ms(cold) / _median_ms(warm),
        "iterations": iterations,
    }


@pytest.mark.parametrize(
    "name, schema_text",
    [
        ("purchase_order", PURCHASE_ORDER_SCHEMA),
        ("xhtml_subset", XHTML_SUBSET_SCHEMA),
    ],
)
def test_warm_start_speedup(name, schema_text, tmp_path, capsys):
    """Cold vs warm vs live bind; warm must clear the 5x floor."""
    result = measure_amortization(schema_text, str(tmp_path / "cache"))
    RESULTS[f"bind:{name}"] = result
    print(
        f"\n{name}: cold {result['cold_ms']:.2f}ms  "
        f"warm {result['warm_ms']:.2f}ms  "
        f"live {result['live_ms']:.3f}ms  "
        f"memory-only cold {result['memory_cold_ms']:.2f}ms  "
        f"speedup {result['speedup']:.1f}x"
    )
    assert result["speedup"] >= REQUIRED_SPEEDUP, (
        f"warm start of {name} is only {result['speedup']:.1f}x faster "
        f"than cold (need >= {REQUIRED_SPEEDUP}x)"
    )
    # The live LRU must beat even the disk-warm path.
    assert result["live_ms"] <= result["warm_ms"]


def test_template_warm_start(tmp_path, capsys):
    """Cached templates skip parse + static check + code generation."""
    source = (
        '<shipTo country="US"><name>$n$</name>'
        "<street>123 Maple Street</street><city>Mill Valley</city>"
        "<state>CA</state><zip>90952</zip></shipTo>"
    )
    cache_dir = str(tmp_path / "cache")
    cold, warm = [], []
    for _ in range(ITERATIONS):
        shutil.rmtree(cache_dir, ignore_errors=True)
        cache = ReproCache.persistent(cache_dir)
        binding = cache.bind(PURCHASE_ORDER_SCHEMA)

        start = time.perf_counter()
        first = Template(binding, source, cache=cache)
        cold.append(time.perf_counter() - start)

        reopened = ReproCache.persistent(cache_dir)
        rebound = reopened.bind(PURCHASE_ORDER_SCHEMA)
        start = time.perf_counter()
        second = Template(rebound, source, cache=reopened)
        warm.append(time.perf_counter() - start)

        assert str(first.render(n="Alice")) == str(second.render(n="Alice"))
    shutil.rmtree(cache_dir, ignore_errors=True)
    result = {
        "cold_ms": _median_ms(cold),
        "warm_ms": _median_ms(warm),
        "speedup": _median_ms(cold) / _median_ms(warm),
        "iterations": ITERATIONS,
    }
    RESULTS["template:ship_to"] = result
    print(
        f"\ntemplate: cold {result['cold_ms']:.2f}ms  "
        f"warm {result['warm_ms']:.2f}ms  speedup {result['speedup']:.1f}x"
    )
    # The checked+compiled form is reused; loading must not be slower.
    assert result["warm_ms"] <= result["cold_ms"]


HEAVY_ITEMS = 150
HEAVY_TEMPLATE = "<items>{}</items>".format(
    "".join(
        f'<item partNum="$p{i}$"><productName>Widget {i}</productName>'
        f"<quantity>$q{i}$</quantity><USPrice>$u{i}$</USPrice></item>"
        for i in range(HEAVY_ITEMS)
    )
)
HEAVY_VALUES = {
    name: value
    for i in range(HEAVY_ITEMS)
    for name, value in ((f"p{i}", "926-AA"), (f"q{i}", 1), (f"u{i}", "9.99"))
}


def test_heavy_template_compile(tmp_path):
    """Recorded only: absolute compile ms of a 150-item page template."""
    cache_dir = str(tmp_path / "cache")
    cold, memory_cold, warm, first_render = [], [], [], []
    for _ in range(ITERATIONS):
        shutil.rmtree(cache_dir, ignore_errors=True)
        cache = ReproCache.persistent(cache_dir)
        binding = cache.bind(PURCHASE_ORDER_SCHEMA)
        start = time.perf_counter()
        Template(binding, HEAVY_TEMPLATE, cache=cache)
        cold.append(time.perf_counter() - start)

        memory = ReproCache()
        memory_binding = memory.bind(PURCHASE_ORDER_SCHEMA)
        start = time.perf_counter()
        Template(memory_binding, HEAVY_TEMPLATE, cache=memory)
        memory_cold.append(time.perf_counter() - start)

        reopened = ReproCache.persistent(cache_dir)
        rebound = reopened.bind(PURCHASE_ORDER_SCHEMA)
        start = time.perf_counter()
        template = Template(rebound, HEAVY_TEMPLATE, cache=reopened)
        warm.append(time.perf_counter() - start)

        start = time.perf_counter()
        page = template.render(**HEAVY_VALUES)
        first_render.append(time.perf_counter() - start)
        assert serialize(page).count("<item ") == HEAVY_ITEMS
    shutil.rmtree(cache_dir, ignore_errors=True)
    result = {
        "cold_ms": _median_ms(cold),
        "memory_cold_ms": _median_ms(memory_cold),
        "warm_ms": _median_ms(warm),
        "first_render_ms": _median_ms(first_render),
        "items": HEAVY_ITEMS,
        "iterations": ITERATIONS,
    }
    RESULTS["template:heavy_150"] = result
    print(
        f"\nheavy template: cold {result['cold_ms']:.2f}ms  "
        f"memory-only cold {result['memory_cold_ms']:.2f}ms  "
        f"warm {result['warm_ms']:.2f}ms  "
        f"first render {result['first_render_ms']:.2f}ms"
    )


def test_bench_bind_cold(benchmark, tmp_path):
    """pytest-benchmark view of the cold path (compile + artifact write)."""
    cache_dir = str(tmp_path / "cache")

    def cold_bind():
        shutil.rmtree(cache_dir, ignore_errors=True)
        return ReproCache.persistent(cache_dir).bind(PURCHASE_ORDER_SCHEMA)

    binding = benchmark(cold_bind)
    assert "purchaseOrder" in binding.schema.elements


def test_bench_bind_warm(benchmark, tmp_path):
    """pytest-benchmark view of the warm path (disk hit, fresh cache)."""
    cache_dir = str(tmp_path / "cache")
    ReproCache.persistent(cache_dir).bind(PURCHASE_ORDER_SCHEMA)

    def warm_bind():
        return ReproCache.persistent(cache_dir).bind(PURCHASE_ORDER_SCHEMA)

    binding = benchmark(warm_bind)
    assert "purchaseOrder" in binding.schema.elements
