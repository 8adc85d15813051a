"""The table-driven turbo lane against the object-DFA golden reference.

The turbo lane's contract is *observational equality* with
``fused_parse`` — the object-DFA route preserved as the golden
reference: identical trees (byte-identical serialization)
for accepted documents, identical exception type, message, location,
and path for rejected ones.  It earns that equality either by handling
a document inside its subset bit-for-bit, or by restarting into
``fused_parse`` and letting the reference produce the verdict — so the
property must hold over *hostile* corpora (the scanner-parity golden
set, CRLF documents, expansion bombs), not just clean ones.
"""

import os
import subprocess
import sys

import pytest

from repro import obs
from repro.core import bind
from repro.dom.serialize import serialize
from repro.errors import ReproError
from repro.ingest import (
    IngestFallback,
    fused_parse,
    legacy_parse,
    parse_typed,
    table_parse,
)
from repro.schemas import (
    PURCHASE_ORDER_DOCUMENT,
    PURCHASE_ORDER_SCHEMA,
    XHTML_SUBSET_SCHEMA,
)
from repro.schemas.purchase_order import PURCHASE_ORDER_INVALID_DOCUMENTS
from repro.xml.turbo import MEMO_VALUE_LENGTH
from repro.xsd import StreamingValidator
from tests.xml.test_line_endings import CRLF_PURCHASE_ORDER, GOLDEN
from tests.xml.test_parser import _expansion_bomb
from tests.xml.test_scanner_parity import ILL_FORMED, WELL_FORMED

XHTML_DOCUMENT = """\
<html>
  <head><title>turbo</title><meta name="k" content="v"/></head>
  <body>
    <h1>Heading <b>bold</b> tail</h1>
    <p>Mixed <i>content</i>, a <a href="/x">link</a>,<br/> &amp; more.</p>
    <ul><li>one</li><li>two</li></ul>
  </body>
</html>
"""


@pytest.fixture(scope="module")
def po_binding():
    return bind(PURCHASE_ORDER_SCHEMA)


@pytest.fixture(scope="module")
def xhtml_binding():
    return bind(XHTML_SUBSET_SCHEMA)


def _outcome(route, binding, text):
    """Collapse a parse to a comparable verdict tuple."""
    try:
        tree = route(binding, text)
    except (ReproError, IngestFallback) as error:
        return (
            type(error).__name__,
            getattr(error, "message", str(error)),
            getattr(error, "location", None),
            getattr(error, "path", None),
        )
    return ("ok", serialize(tree))


def _assert_parity(binding, text):
    golden = _outcome(fused_parse, binding, text)
    assert _outcome(table_parse, binding, text) == golden


class TestScannerParityCorpus:
    """The 60+ golden scanner documents, most far outside the PO schema:
    every one must produce the same verdict through the turbo lane."""

    @pytest.mark.parametrize("name", sorted(WELL_FORMED))
    def test_well_formed(self, po_binding, name):
        _assert_parity(po_binding, WELL_FORMED[name])

    @pytest.mark.parametrize("name", sorted(ILL_FORMED))
    def test_ill_formed(self, po_binding, name):
        _assert_parity(po_binding, ILL_FORMED[name])


class TestLineEndingCorpus:
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_golden_line_endings(self, po_binding, name):
        document, _expected = GOLDEN[name]
        _assert_parity(po_binding, document)

    def test_crlf_purchase_order(self, po_binding):
        _assert_parity(po_binding, CRLF_PURCHASE_ORDER)
        # ...and the accepted tree equals the legacy route's, i.e. the
        # CRLF normalization survived the turbo lane's restart.
        assert serialize(table_parse(po_binding, CRLF_PURCHASE_ORDER)) == (
            serialize(legacy_parse(po_binding, CRLF_PURCHASE_ORDER))
        )


class TestHostileDocuments:
    @pytest.mark.parametrize("where", ["content", "attribute"])
    def test_expansion_bomb(self, po_binding, where):
        _assert_parity(po_binding, _expansion_bomb(where=where))

    def test_unknown_root(self, po_binding):
        _assert_parity(po_binding, "<unknown><x/></unknown>")

    def test_doctype_document(self, po_binding):
        # DOCTYPE is outside the *fused* subset too: both routes must
        # raise the same IngestFallback signal.
        _assert_parity(
            po_binding, "<!DOCTYPE purchaseOrder><purchaseOrder/>"
        )


class TestSchemaVerdicts:
    @pytest.mark.parametrize("name", sorted(PURCHASE_ORDER_INVALID_DOCUMENTS))
    def test_invalid_documents(self, po_binding, name):
        _assert_parity(po_binding, PURCHASE_ORDER_INVALID_DOCUMENTS[name])

    def test_valid_purchase_order(self, po_binding):
        _assert_parity(po_binding, PURCHASE_ORDER_DOCUMENT)
        assert serialize(
            table_parse(po_binding, PURCHASE_ORDER_DOCUMENT)
        ) == serialize(legacy_parse(po_binding, PURCHASE_ORDER_DOCUMENT))

    def test_valid_xhtml(self, xhtml_binding):
        _assert_parity(xhtml_binding, XHTML_DOCUMENT)

    def test_non_ascii_document(self, po_binding):
        text = PURCHASE_ORDER_DOCUMENT.replace(
            "Mill Valley", "Mill Vällé\U0001f600"
        )
        _assert_parity(po_binding, text)


class TestTurboHits:
    """Valid documents inside the turbo grammar must not restart."""

    @pytest.fixture()
    def counters(self):
        obs.enable(reset=True)
        yield lambda: obs.snapshot()["counters"]
        obs.disable()
        obs.reset()

    def test_gt_in_attribute_value(self, xhtml_binding, counters):
        # A literal '>' is legal in an attribute value, and the turbo
        # grammar accepts it: no restart, same tree as the fused route.
        text = XHTML_DOCUMENT.replace('content="v"', 'content="a > b"')
        assert text != XHTML_DOCUMENT
        tree = table_parse(xhtml_binding, text)
        assert counters() == {"ingest.turbo{outcome=hit}": 1}
        assert serialize(tree) == serialize(fused_parse(xhtml_binding, text))


#: (document, the reason both turbo lanes stop on it)
RESTARTS = {
    "tag-mismatch": (
        PURCHASE_ORDER_DOCUMENT.replace("</comment>", "</comments>"),
        "tag mismatch",
    ),
    "multiple-roots": (
        PURCHASE_ORDER_DOCUMENT + "<purchaseOrder/>",
        "multiple root elements",
    ),
    "text-before-root": (
        "stray" + PURCHASE_ORDER_DOCUMENT,
        "text outside root",
    ),
    "text-after-root": (
        PURCHASE_ORDER_DOCUMENT + "stray",
        "text outside root",
    ),
    "reference-outside-content": (
        "&amp;" + PURCHASE_ORDER_DOCUMENT,
        "reference outside content",
    ),
    "unclosed": (
        PURCHASE_ORDER_DOCUMENT.replace("</purchaseOrder>", ""),
        "unclosed element",
    ),
    "no-root": (" \n", "no root element"),
    "tokenizer": (
        PURCHASE_ORDER_DOCUMENT.replace(
            'orderDate="1999-10-20"', "orderDate='1999-10-20'"
        ),
        "tokenizer",
    ),
    "hazard": (
        PURCHASE_ORDER_DOCUMENT.replace("<comment>", "<!-- x --><comment>"),
        "hazard",
    ),
    "duplicate-attribute": (
        PURCHASE_ORDER_DOCUMENT.replace(
            '<shipTo country="US">', '<shipTo country="US" country="US">'
        ),
        "duplicate attribute",
    ),
    "entity-reference": (
        PURCHASE_ORDER_DOCUMENT.replace("Hurry", "&hurry;"),
        "entity reference",
    ),
    "character-reference": (
        PURCHASE_ORDER_DOCUMENT.replace("Hurry", "&#0;"),
        "character reference",
    ),
    "validation": (
        PURCHASE_ORDER_DOCUMENT.replace("<comment>", "<remark/><comment>"),
        "validation",
    ),
}


class TestRestartReasons:
    """The typed build and the verdict lane share one turbo walk, so a
    document leaves both for the same reason."""

    @pytest.fixture()
    def counters(self):
        obs.enable(reset=True)
        yield lambda: obs.snapshot()["counters"]
        obs.disable()
        obs.reset()

    @staticmethod
    def _reasons(counters, name):
        """The ``reason`` label of every *name* counter."""
        reasons = []
        for key in counters:
            if key.startswith(name + "{"):
                labels = dict(
                    pair.split("=", 1)
                    for pair in key[len(name) + 1 : -1].split(",")
                )
                if "reason" in labels:
                    reasons.append(labels["reason"])
        return reasons

    @pytest.mark.parametrize("name", sorted(RESTARTS))
    def test_same_reason(self, po_binding, counters, name):
        text, reason = RESTARTS[name]
        assert text != PURCHASE_ORDER_DOCUMENT
        validator = StreamingValidator(po_binding.schema)
        for route in (
            lambda: table_parse(po_binding, text),
            lambda: validator.validate_text(text),
        ):
            try:
                route()
            except ReproError:
                pass
        snapshot = counters()
        assert self._reasons(snapshot, "ingest.turbo") == [reason], snapshot
        assert self._reasons(snapshot, "xsd.stream.route") == [reason], snapshot


class TestMemoBounds:
    """The accepted-leaf-value memos live on the cached binding and take
    untrusted input, so only short values are stored."""

    def test_long_leaf_values_are_not_memoized(self):
        binding = bind(PURCHASE_ORDER_SCHEMA)
        for n in range(200):
            value = f"{n:04d}" + "x" * 4096
            text = PURCHASE_ORDER_DOCUMENT.replace(
                "Hurry, my lawn is going wild", value
            )
            tree = parse_typed(binding, text)
            assert value in serialize(tree)
        keys = [
            key
            for info in binding._ingest_dispatch.values()
            for key in info[8]
        ]
        assert "Confirm this is electric" in keys
        assert max(map(len, keys)) <= MEMO_VALUE_LENGTH


class TestLaneSelection:
    """There is one scanner: table_parse takes no lane selector, so every
    lane name, the old ones included, is refused."""

    def test_unknown_lane_rejected(self, po_binding):
        for lane in ("warp", "index", "stdlib", "auto"):
            with pytest.raises(TypeError, match="lane"):
                table_parse(po_binding, "<a/>", lane=lane)


def _run_script(script):
    """Run ``script`` in a fresh interpreter with ``src`` on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part
        for part in (
            os.path.join(os.path.dirname(__file__), "..", "..", "src"),
            env.get("PYTHONPATH"),
        )
        if part
    )
    return subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=env,
    )


class TestStructuralIndex:
    """Typed ingest has no structural index and no numpy dependency."""

    def test_absent_numpy_is_clean(self):
        """With numpy unimportable, repro.ingest imports and the turbo
        lane keeps full parity with the golden reference."""
        script = (
            "import sys\n"
            "sys.modules['numpy'] = None\n"
            "from repro.ingest import table_parse, fused_parse\n"
            "from repro.core import bind\n"
            "from repro.dom.serialize import serialize\n"
            "from repro.schemas import PURCHASE_ORDER_SCHEMA, "
            "PURCHASE_ORDER_DOCUMENT\n"
            "binding = bind(PURCHASE_ORDER_SCHEMA)\n"
            "assert serialize(table_parse(binding, PURCHASE_ORDER_DOCUMENT))"
            " == serialize(fused_parse(binding, PURCHASE_ORDER_DOCUMENT))\n"
            "print('no-numpy-ok')\n"
        )
        completed = _run_script(script)
        assert completed.returncode == 0, completed.stderr
        assert "no-numpy-ok" in completed.stdout


class TestFootprint:
    def test_no_numpy_import(self):
        """The runtime is stdlib-only: importing the package's public
        surfaces must not pull numpy in."""
        script = (
            "import sys\n"
            "import repro, repro.ingest, repro.xsd, repro.serve\n"
            "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
            "print('stdlib-only')\n"
        )
        completed = _run_script(script)
        assert completed.returncode == 0, completed.stderr
        assert "stdlib-only" in completed.stdout
