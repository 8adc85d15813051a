"""The fused parse-to-typed-tree path against the legacy three-pass route.

The contract: ``fused_parse`` is observationally identical to
``binding.from_dom(parse_document(text).document_element)`` — same
classes, same tree bytes, same rejections with the same messages, same
post-parse mutation behavior — just without the generic-DOM intermediate
and the second validation pass.
"""

import pytest

from repro.core import bind
from repro.dom.serialize import serialize
from repro.errors import VdomTypeError, XmlSyntaxError
from repro.ingest import IngestFallback, fused_parse, ingest, legacy_parse, parse_typed
from repro.schemas import (
    PURCHASE_ORDER_DOCUMENT,
    PURCHASE_ORDER_SCHEMA,
    XHTML_SUBSET_SCHEMA,
)
from repro.schemas.purchase_order import PURCHASE_ORDER_INVALID_DOCUMENTS
from repro.xsd import StreamingValidator, parse_schema

XHTML_DOCUMENT = """\
<html>
  <head>
    <title>Fused ingest</title>
    <meta name="author" content="nobody"/>
  </head>
  <body>
    <h1>Heading <b>bold</b> tail</h1>
    <p>Mixed <i>content</i> with a <a href="http://example.com">link</a>,
       a break<br/> and <![CDATA[literal <markup>]]>.</p>
    <ul><li>one</li><li>two &amp; three</li></ul>
    <table><tr><td>cell</td></tr></table>
  </body>
</html>
"""


@pytest.fixture(scope="module")
def po_binding():
    return bind(PURCHASE_ORDER_SCHEMA)


@pytest.fixture(scope="module")
def xhtml_binding():
    return bind(XHTML_SUBSET_SCHEMA)


class TestValidDocuments:
    def test_purchase_order_identical(self, po_binding):
        legacy = legacy_parse(po_binding, PURCHASE_ORDER_DOCUMENT)
        fused = fused_parse(po_binding, PURCHASE_ORDER_DOCUMENT)
        assert type(fused) is type(legacy)
        assert serialize(fused) == serialize(legacy)

    def test_xhtml_identical(self, xhtml_binding):
        legacy = legacy_parse(xhtml_binding, XHTML_DOCUMENT)
        fused = fused_parse(xhtml_binding, XHTML_DOCUMENT)
        assert type(fused) is type(legacy)
        assert serialize(fused) == serialize(legacy)

    def test_tree_shape_matches(self, po_binding):
        legacy = legacy_parse(po_binding, PURCHASE_ORDER_DOCUMENT)
        fused = fused_parse(po_binding, PURCHASE_ORDER_DOCUMENT)

        def shape(element):
            return (
                type(element).__name__,
                element.tag_name,
                dict(element.attributes.items()),
                [shape(child) for child in element.child_elements()],
            )

        assert shape(fused) == shape(legacy)

    def test_ingest_reports_fused_route(self, po_binding):
        result = ingest(po_binding, PURCHASE_ORDER_DOCUMENT)
        assert result.fused is True

    def test_parse_typed_returns_root(self, po_binding):
        root = parse_typed(po_binding, PURCHASE_ORDER_DOCUMENT)
        assert root.tag_name == "purchaseOrder"

    def test_attribute_defaults_and_fixed_applied(self, po_binding):
        # country is fixed="US"; omitting it must still materialize it.
        text = PURCHASE_ORDER_DOCUMENT.replace(' country="US"', "")
        legacy = legacy_parse(po_binding, text)
        fused = fused_parse(po_binding, text)
        ship_to = fused.child_elements()[0]
        assert ship_to.attributes.items() == [("country", "US")]
        assert serialize(fused) == serialize(legacy)


class TestInvalidDocuments:
    @pytest.mark.parametrize("name", sorted(PURCHASE_ORDER_INVALID_DOCUMENTS))
    def test_same_rejection(self, po_binding, name):
        text = PURCHASE_ORDER_INVALID_DOCUMENTS[name]
        with pytest.raises(VdomTypeError) as legacy:
            legacy_parse(po_binding, text)
        with pytest.raises(VdomTypeError) as fused:
            fused_parse(po_binding, text)
        assert str(fused.value) == str(legacy.value)

    def test_unknown_root(self, po_binding):
        for route in (legacy_parse, fused_parse):
            with pytest.raises(VdomTypeError, match="not a global element"):
                route(po_binding, "<unknown/>")

    def test_missing_required_attribute_xhtml(self, xhtml_binding):
        text = XHTML_DOCUMENT.replace(' href="http://example.com"', "")
        with pytest.raises(VdomTypeError) as legacy:
            legacy_parse(xhtml_binding, text)
        with pytest.raises(VdomTypeError) as fused:
            fused_parse(xhtml_binding, text)
        assert str(fused.value) == str(legacy.value)

    def test_syntax_error_outranks_validity_error(self, po_binding):
        # The validity problem (comment out of order) appears *before* the
        # syntax problem (unclosed root), but the legacy route parses the
        # whole document first — so both routes must report the syntax
        # error.
        text = (
            "<purchaseOrder><comment>early</comment><shipTo>"  # invalid
        )  # ... and unterminated
        with pytest.raises(XmlSyntaxError) as legacy:
            legacy_parse(po_binding, text)
        with pytest.raises(XmlSyntaxError) as fused:
            fused_parse(po_binding, text)
        assert str(fused.value) == str(legacy.value)


class TestFallback:
    def test_doctype_falls_back(self, po_binding):
        text = "<!DOCTYPE purchaseOrder>\n" + PURCHASE_ORDER_DOCUMENT
        with pytest.raises(IngestFallback):
            fused_parse(po_binding, text)
        result = ingest(po_binding, text)
        assert result.fused is False
        assert serialize(result.root) == serialize(
            legacy_parse(po_binding, text)
        )

    def test_internal_subset_falls_back(self, po_binding):
        text = (
            "<!DOCTYPE purchaseOrder [<!ATTLIST item partNum CDATA #IMPLIED>]>\n"
            + PURCHASE_ORDER_DOCUMENT
        )
        result = ingest(po_binding, text)
        assert result.fused is False


class TestValidationToggle:
    def test_value_errors_ignored_without_validation(self):
        binding = bind(PURCHASE_ORDER_SCHEMA, validate_on_mutate=False)
        text = PURCHASE_ORDER_INVALID_DOCUMENTS["bad-quantity"]
        legacy = legacy_parse(binding, text)
        fused = fused_parse(binding, text)
        assert serialize(fused) == serialize(legacy)

    def test_structural_errors_still_caught(self):
        # Child attribution *is* the construction algorithm; it rejects
        # misplaced elements on both routes even with validation off.
        binding = bind(PURCHASE_ORDER_SCHEMA, validate_on_mutate=False)
        text = PURCHASE_ORDER_INVALID_DOCUMENTS["wrong-element-order"]
        with pytest.raises(VdomTypeError) as legacy:
            legacy_parse(binding, text)
        with pytest.raises(VdomTypeError) as fused:
            fused_parse(binding, text)
        assert str(fused.value) == str(legacy.value)


class TestPostParseMutation:
    def test_fast_append_state_is_primed(self, po_binding):
        fused = fused_parse(po_binding, PURCHASE_ORDER_DOCUMENT)
        items = fused.child_elements()[-1]
        assert items.tag_name == "items"
        assert items._content_state is not None

    def test_valid_append_accepted(self, po_binding):
        fused = fused_parse(po_binding, PURCHASE_ORDER_DOCUMENT)
        legacy = legacy_parse(po_binding, PURCHASE_ORDER_DOCUMENT)
        factory = po_binding.factory
        for tree in (fused, legacy):
            items = tree.child_elements()[-1]
            items.append_child(
                factory.create_item(
                    factory.create_product_name("Shovel"),
                    factory.create_quantity(2),
                    factory.create_us_price("19.99"),
                    part_num="123-AB",
                )
            )
        assert serialize(fused) == serialize(legacy)

    def test_invalid_append_rejected_identically(self, po_binding):
        fused = fused_parse(po_binding, PURCHASE_ORDER_DOCUMENT)
        legacy = legacy_parse(po_binding, PURCHASE_ORDER_DOCUMENT)
        factory = po_binding.factory
        errors = []
        for tree in (fused, legacy):
            items = tree.child_elements()[-1]
            with pytest.raises(VdomTypeError) as excinfo:
                items.append_child(factory.create_comment("not allowed here"))
            errors.append(str(excinfo.value))
        assert errors[0] == errors[1]

    def test_attribute_mutation_guarded(self, po_binding):
        fused = fused_parse(po_binding, PURCHASE_ORDER_DOCUMENT)
        with pytest.raises(VdomTypeError):
            fused.set_attribute("orderDate", "not a date")
        fused.set_attribute("orderDate", "2001-02-03")
        assert fused.get_attribute("orderDate") == "2001-02-03"


#: a schema whose only leaf has simple content (a complex type with text
#: and attributes, but no child elements)
SIMPLE_CONTENT_SCHEMA = """\
<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:element name="doc">
    <xsd:complexType>
      <xsd:sequence>
        <xsd:element name="price" type="Price"/>
      </xsd:sequence>
    </xsd:complexType>
  </xsd:element>
  <xsd:complexType name="Price">
    <xsd:simpleContent>
      <xsd:extension base="xsd:decimal">
        <xsd:attribute name="currency" type="xsd:string"/>
      </xsd:extension>
    </xsd:simpleContent>
  </xsd:complexType>
</xsd:schema>
"""

#: (schema, document, the typed constructor's message) — a child element
#: under an element whose type admits none
LEAF_CHILDREN = {
    "simple-type": (
        PURCHASE_ORDER_SCHEMA,
        PURCHASE_ORDER_DOCUMENT.replace(
            "<comment>Hurry, my lawn is going wild</comment>",
            "<comment><b>x</b></comment>",
        ),
        "<comment> has a simple type and may not contain child elements",
    ),
    "simple-type-mixed": (
        PURCHASE_ORDER_SCHEMA,
        PURCHASE_ORDER_DOCUMENT.replace(
            "<comment>Hurry, my lawn is going wild</comment>",
            "<comment>Hurry, <b>my <i>lawn</i></b> is going wild</comment>",
        ),
        "<comment> has a simple type and may not contain child elements",
    ),
    "empty-content": (
        XHTML_SUBSET_SCHEMA,
        XHTML_DOCUMENT.replace("<br/>", "<br><i/></br>"),
        "<br> must be empty",
    ),
    "simple-content": (
        SIMPLE_CONTENT_SCHEMA,
        '<doc><price currency="EUR">1.5<sup/></price></doc>',
        "<price> has simple content and may not contain child elements",
    ),
}


class TestLeafChildren:
    """Every typed route rejects a child element under a leaf with the
    typed constructor's message (``from_dom`` once flattened the subtree
    to text), and the verdict lane rejects the same documents."""

    @pytest.mark.parametrize("name", sorted(LEAF_CHILDREN))
    def test_rejected_by_every_route(self, name):
        schema_text, text, message = LEAF_CHILDREN[name]
        binding = bind(schema_text)
        for route in (parse_typed, fused_parse, legacy_parse):
            with pytest.raises(VdomTypeError) as caught:
                route(binding, text)
            assert str(caught.value) == message, route.__name__
        assert StreamingValidator(parse_schema(schema_text)).validate_text(text)

    def test_simple_content_text_accepted(self):
        binding = bind(SIMPLE_CONTENT_SCHEMA)
        text = '<doc><price currency="EUR">1.5</price></doc>'
        for route in (parse_typed, fused_parse, legacy_parse):
            assert serialize(route(binding, text)) == text
