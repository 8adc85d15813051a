"""RENDER — the serving hot path with and without the DOM.

The segment compiler moves serialization work to preparation time: a
checked template becomes precomputed static markup runs plus dynamic
hole slots, and ``Template.render_text`` emits the final string without
building a ``TypedElement`` tree.  This experiment measures renders/sec
for the two routes on the paper's own languages:

* **dom**  — ``serialize(template.render(**values))``: typed construction
  (validity checks included) followed by the iterative serializer,
* **text** — ``template.render_text(**values)``: direct string emission
  with the same per-hole validation.

Acceptance floor (the ISSUE's criterion): ``render_text`` must clear
**3x** the DOM route's renders/sec on the purchase-order benchmark
template (1.5x in ``REPRO_BENCH_QUICK`` mode, where noisy CI runners
and tiny iteration counts make the full floor flaky).  The XHTML mixed
template, an element-hole variant and the served 150-item page are
measured and recorded without a floor — element holes share the subtree
serialization cost between both routes, so their speedup is
structurally smaller.

Environment knobs (used by the CI smoke job):

* ``REPRO_BENCH_QUICK=1``      — fewer iterations, relaxed floor,
* ``REPRO_BENCH_JSON=<path>``  — where to write the JSON artifact
  (default: ``BENCH_render_throughput.json``).
"""

import json
import os
import time

import pytest

from benchmarks import bench_floor
from repro.core import bind
from repro.dom.serialize import serialize
from repro.pxml import Template
from repro.schemas import PURCHASE_ORDER_SCHEMA
from repro.schemas.xhtml import XHTML_SUBSET_SCHEMA

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")
RENDERS = 300 if QUICK else 2000
REPEATS = 3 if QUICK else 5
#: the ISSUE's acceptance criterion (CI-noise-tolerant in quick mode),
#: shared with the bench-gate via benchmarks/floors.json
FLOOR = bench_floor("render_text_speedup", QUICK)

#: module-level result sink, flushed at teardown
RESULTS: dict[str, dict[str, float]] = {}

#: the purchase-order benchmark template: text holes only, so the two
#: routes differ exactly by "build a tree and walk it" vs "emit"
PO_TEMPLATE = """<purchaseOrder orderDate="$d$">
  <shipTo country="US">
    <name>$ship_name$</name>
    <street>$ship_street$</street>
    <city>Mill Valley</city>
    <state>CA</state>
    <zip>90952</zip>
  </shipTo>
  <billTo country="US">
    <name>$bill_name$</name>
    <street>8 Oak Avenue</street>
    <city>Old Town</city>
    <state>PA</state>
    <zip>95819</zip>
  </billTo>
  <comment>$c$</comment>
  <items>
    <item partNum="872-AA">
      <productName>$p1$</productName>
      <quantity>$q1$</quantity>
      <USPrice>148.95</USPrice>
    </item>
    <item partNum="926-AA">
      <productName>$p2$</productName>
      <quantity>1</quantity>
      <USPrice>39.98</USPrice>
      <shipDate>1999-05-21</shipDate>
    </item>
  </items>
</purchaseOrder>"""

PO_VALUES = {
    "d": "1999-10-20",
    "ship_name": "Alice Smith",
    "ship_street": "123 Maple Street",
    "bill_name": "Robert Smith & Sons",
    "c": "Hurry, my lawn is going wild",
    "p1": "Lawnmower",
    "q1": 1,
    "p2": "Baby Monitor",
}

#: the served 150-item page (450 text holes: attribute, integer and
#: decimal content per item); recorded without a floor
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
    for name, value in (
        (f"p{i}", f"{100 + i}-AB"),
        (f"q{i}", str(1 + i % 99)),
        (f"u{i}", f"{i}.{i % 100:02d}"),
    )
}

XHTML_TEMPLATE = (
    "<p>last updated: <b>$when:text$</b> by <i>$who:text$</i>"
    " — see $link:a$ for details</p>"
)


@pytest.fixture(scope="module", autouse=True)
def _write_json_report():
    yield
    target = os.environ.get(
        "REPRO_BENCH_JSON", "BENCH_render_throughput.json"
    )
    if target and RESULTS:
        RESULTS["_meta"] = {"quick": QUICK}
        with open(target, "w", encoding="utf-8") as handle:
            json.dump(RESULTS, handle, indent=2, sort_keys=True)


def _renders_per_second(action, renders=RENDERS, repeats=REPEATS):
    """Best-of-*repeats* renders/sec (max biases against warmup noise)."""
    rates = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(renders):
            action()
        elapsed = time.perf_counter() - start
        rates.append(renders / elapsed)
    return max(rates)


def _measure(template, values):
    dom_rps = _renders_per_second(
        lambda: serialize(template.render(**values))
    )
    text_rps = _renders_per_second(lambda: template.render_text(**values))
    return {
        "dom_renders_per_sec": round(dom_rps, 1),
        "text_renders_per_sec": round(text_rps, 1),
        "speedup": round(text_rps / dom_rps, 2),
        "renders": RENDERS,
        "repeats": REPEATS,
        "output_bytes": len(template.render_text(**values)),
    }


def test_purchase_order_throughput(capsys):
    """The headline number: render_text vs render+serialize, with floor."""
    binding = bind(PURCHASE_ORDER_SCHEMA)
    template = Template(binding, PO_TEMPLATE)
    assert template._segments is not None, "template must segment-compile"
    # Correctness precedes speed: both routes must emit identical bytes.
    assert template.render_text(**PO_VALUES) == serialize(
        template.render(**PO_VALUES)
    )
    result = _measure(template, PO_VALUES)
    RESULTS["purchase_order:text_holes"] = result
    print(
        f"\npurchase_order: dom {result['dom_renders_per_sec']:.0f}/s  "
        f"text {result['text_renders_per_sec']:.0f}/s  "
        f"speedup {result['speedup']:.2f}x"
    )
    assert result["speedup"] >= FLOOR, (
        f"render_text is only {result['speedup']:.2f}x the DOM route "
        f"(need >= {FLOOR}x)"
    )


def test_element_hole_throughput(capsys):
    """Element holes: subtree serialization is shared, so no floor.

    Adopting a typed subtree into a render steals it from the previous
    render's tree (and ``<items>`` requires ``item+``, so the theft
    would be rejected) — each iteration therefore builds a fresh item,
    on both routes, exactly as a serving loop would.
    """
    binding = bind(PURCHASE_ORDER_SCHEMA)
    item_template = Template(
        binding,
        '<item partNum="872-AA"><productName>Lawnmower</productName>'
        "<quantity>1</quantity><USPrice>148.95</USPrice></item>",
    )
    items_template = Template(binding, "<items>$one:item$</items>")
    assert items_template.render_text(
        one=item_template.render()
    ) == serialize(items_template.render(one=item_template.render()))

    dom_rps = _renders_per_second(
        lambda: serialize(items_template.render(one=item_template.render()))
    )
    text_rps = _renders_per_second(
        lambda: items_template.render_text(one=item_template.render())
    )
    result = {
        "dom_renders_per_sec": round(dom_rps, 1),
        "text_renders_per_sec": round(text_rps, 1),
        "speedup": round(text_rps / dom_rps, 2),
        "renders": RENDERS,
        "repeats": REPEATS,
    }
    RESULTS["purchase_order:element_holes"] = result
    print(
        f"\nelement_holes: dom {result['dom_renders_per_sec']:.0f}/s  "
        f"text {result['text_renders_per_sec']:.0f}/s  "
        f"speedup {result['speedup']:.2f}x"
    )
    # Still must never be slower than the route it replaces.
    assert result["speedup"] >= 1.0


def test_xhtml_mixed_throughput(capsys):
    """Mixed content with text and element holes, recorded for the doc.

    ``InlineType`` is a ``(b|i|a|br)*`` mixed model, so re-adopting the
    same link element across renders stays legal — the hole value can
    be shared between iterations here.
    """
    binding = bind(XHTML_SUBSET_SCHEMA)
    link = Template(
        binding, '<a href="/changes">change log</a>'
    ).render()
    template = Template(binding, XHTML_TEMPLATE)
    values = {"when": "2026-08-05", "who": "the build bot", "link": link}
    fast = template.render_text(**values)  # before any adoption
    assert fast == serialize(template.render(**values))
    result = _measure(template, values)
    RESULTS["xhtml:mixed"] = result
    print(
        f"\nxhtml_mixed: dom {result['dom_renders_per_sec']:.0f}/s  "
        f"text {result['text_renders_per_sec']:.0f}/s  "
        f"speedup {result['speedup']:.2f}x"
    )
    assert result["speedup"] >= 1.0


def test_heavy_page_throughput(capsys):
    """The served 150-item page, recorded for the ledger (no floor)."""
    binding = bind(PURCHASE_ORDER_SCHEMA)
    template = Template(binding, HEAVY_TEMPLATE)
    assert template._segments is not None, "template must segment-compile"
    assert template.render_text(**HEAVY_VALUES) == serialize(
        template.render(**HEAVY_VALUES)
    )
    renders = max(RENDERS // 100, 3)
    dom_rps = _renders_per_second(
        lambda: serialize(template.render(**HEAVY_VALUES)), renders
    )
    text_rps = _renders_per_second(
        lambda: template.render_text(**HEAVY_VALUES), renders
    )
    result = {
        "dom_renders_per_sec": round(dom_rps, 1),
        "text_renders_per_sec": round(text_rps, 1),
        "text_ms_per_render": round(1000.0 / text_rps, 3),
        "speedup": round(text_rps / dom_rps, 2),
        "renders": renders,
        "repeats": REPEATS,
        "output_bytes": len(template.render_text(**HEAVY_VALUES)),
    }
    RESULTS["purchase_order:heavy_150"] = result
    print(
        f"\nheavy_150: dom {result['dom_renders_per_sec']:.0f}/s  "
        f"text {result['text_renders_per_sec']:.0f}/s  "
        f"({result['text_ms_per_render']:.2f} ms)  "
        f"speedup {result['speedup']:.2f}x"
    )
