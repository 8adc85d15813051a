"""Verdict-only turbo route against the event walk.

``StreamingValidator.validate_text`` first tries to *prove* a document
valid off the turbo scanner and the DFA tables; on any deviation it
re-runs ``validate_events(PullParser(text))``.  Its contract is
observational equality with that event walk: the same error list
(messages, paths, line/column) or the same raised syntax error, for
every document.  The turbo route may only ever answer ``[]``, so the
property that matters most is that it never accepts a document the
event walk rejects.

The corpora: the purchase-order invalid documents, XHTML mutations,
the scanner-parity golden set, the CRLF corpus, the three namespaced
gauntlet families under ``tests/integration/corpus/``, and a hazard list
aimed at the route's own checks.
"""

import pytest

from repro import obs
from repro.errors import ReproError
from repro.schemas import (
    PURCHASE_ORDER_DOCUMENT,
    PURCHASE_ORDER_INVALID_DOCUMENTS,
    PURCHASE_ORDER_SCHEMA,
    WML_DIRECTORY_DOCUMENT,
    WML_SCHEMA,
    XHTML_SUBSET_SCHEMA,
)
from repro.schemas.variants import ABSTRACT_HEAD_SCHEMA
from repro.xml.parser import PullParser
from repro.xsd import StreamingValidator, parse_schema
from repro.xsd.schema_parser import parse_schema_file
from tests.integration.corpus_runner import iter_cases, iter_instances
from tests.xml.test_line_endings import CRLF_PURCHASE_ORDER, GOLDEN
from tests.xml.test_scanner_parity import ILL_FORMED, WELL_FORMED

XSI = "http://www.w3.org/2001/XMLSchema-instance"

XHTML_DOCUMENT = """\
<?xml version="1.0" encoding="UTF-8"?>
<html>
  <head><title>turbo</title><meta name="k" content="v"/></head>
  <body>
    <h1>Heading <b>bold</b> tail</h1>
    <p>Mixed <i>content</i>, a <a href="/x?a=1">link</a>,<br/> &amp; more.</p>
    <ul><li>one</li><li>two &#8212; <i>three</i></li></ul>
    <table><tr><td>cell</td><td/></tr></table>
  </body>
</html>
"""

#: schema-level mutations of XHTML_DOCUMENT (old, new)
XHTML_MUTATIONS = {
    "missing-required-href": ('<a href="/x?a=1">', "<a>"),
    "undeclared-attribute": ("<ul>", '<ul class="x">'),
    "bad-nmtoken": ('name="k"', 'name="k k"'),
    "text-in-element-only": ("<ul><li>", "<ul>stray<li>"),
    "reference-text-in-element-only": ("<ul><li>", "<ul>&#65;<li>"),
    "child-of-empty": ("<br/>", "<br><b>x</b></br>"),
    "text-in-empty": ("<br/>", "<br>x</br>"),
    "title-in-body": ("<h1>", "<title>t</title><h1>"),
    "empty-list": ("<ul><li>one</li><li>two &#8212; <i>three</i></li></ul>", "<ul/>"),
    "head-missing-title": ("<title>turbo</title>", ""),
    "unknown-root": ("<html>", "<htm>"),
    "child-of-leaf": ("<title>turbo</title>", "<title><b>t</b></title>"),
    "attribute-on-leaf": ("<title>", '<title lang="en">'),
    "wrong-order": (
        '<head><title>turbo</title><meta name="k" content="v"/></head>',
        '<head><meta name="k" content="v"/><title>turbo</title></head>',
    ),
}

#: a namespace-free schema exercising every check the turbo route makes
HAZARD_SCHEMA = """\
<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:element name="doc" type="Doc"/>
  <xsd:element name="stub" type="xsd:string" abstract="true"/>
  <xsd:element name="plain" type="Plain"/>
  <xsd:complexType name="Doc">
    <xsd:sequence>
      <xsd:element name="code" type="xsd:string" fixed="A1" minOccurs="0"/>
      <xsd:element name="note" type="Note" minOccurs="0" maxOccurs="unbounded"/>
      <xsd:element name="shape" type="Shape" minOccurs="0" maxOccurs="unbounded"/>
      <xsd:element name="extra" minOccurs="0"/>
      <xsd:element name="qty" type="Qty" minOccurs="0"/>
      <xsd:element name="flag" type="Flag" minOccurs="0"/>
      <xsd:element name="pad" type="Pad" fixed="" minOccurs="0"/>
    </xsd:sequence>
    <xsd:attribute name="version" type="xsd:string" fixed="2"/>
    <xsd:attribute name="label" type="xsd:string"/>
    <xsd:attribute name="id" type="xsd:NMTOKEN" use="required"/>
  </xsd:complexType>
  <xsd:complexType name="Note" mixed="true">
    <xsd:sequence>
      <xsd:element name="em" type="xsd:string" minOccurs="0" maxOccurs="unbounded"/>
    </xsd:sequence>
  </xsd:complexType>
  <xsd:complexType name="Shape">
    <xsd:sequence>
      <xsd:element name="name" type="xsd:string"/>
    </xsd:sequence>
  </xsd:complexType>
  <xsd:complexType name="Circle">
    <xsd:complexContent>
      <xsd:extension base="Shape">
        <xsd:sequence>
          <xsd:element name="radius" type="xsd:decimal"/>
        </xsd:sequence>
      </xsd:extension>
    </xsd:complexContent>
  </xsd:complexType>
  <xsd:complexType name="Blob" abstract="true">
    <xsd:complexContent>
      <xsd:extension base="Shape"/>
    </xsd:complexContent>
  </xsd:complexType>
  <xsd:complexType name="Unrelated">
    <xsd:sequence>
      <xsd:element name="x" type="xsd:string"/>
    </xsd:sequence>
  </xsd:complexType>
  <xsd:complexType name="Qty">
    <xsd:simpleContent>
      <xsd:extension base="xsd:positiveInteger">
        <xsd:attribute name="unit" type="xsd:NMTOKEN" use="required"/>
      </xsd:extension>
    </xsd:simpleContent>
  </xsd:complexType>
  <xsd:complexType name="Flag"/>
  <xsd:complexType name="Pad">
    <xsd:sequence>
      <xsd:element name="em" type="xsd:string" minOccurs="0"/>
    </xsd:sequence>
  </xsd:complexType>
  <xsd:complexType name="Plain" abstract="true">
    <xsd:sequence/>
  </xsd:complexType>
</xsd:schema>
"""

HAZARD_VALID = '<doc id="d1">\n  <code>A1</code>\n  <note>hi <em>there</em></note>\n</doc>\n'

#: (name, document) pairs for HAZARD_SCHEMA; valid and invalid mixed
HAZARDS = {
    "baseline": HAZARD_VALID,
    "bom": "\ufeff" + HAZARD_VALID,
    "xml-declaration": '<?xml version="1.0" encoding="UTF-8"?>\n' + HAZARD_VALID,
    "single-quoted-declaration": "<?xml version='1.0'?>" + HAZARD_VALID,
    "crlf": HAZARD_VALID.replace("\n", "\r\n"),
    "cdata-in-mixed": HAZARD_VALID.replace("hi ", "<![CDATA[hi <&> ]]>"),
    "cdata-in-element-only": HAZARD_VALID.replace(
        "\n  <code>", "<![CDATA[ x ]]><code>"
    ),
    "comment": HAZARD_VALID.replace("<code>", "<!-- c --><code>"),
    "pi": HAZARD_VALID.replace("<code>", "<?pi data?><code>"),
    "comment-before-root": "<!-- prolog -->" + HAZARD_VALID,
    "gt-in-attribute": HAZARD_VALID.replace('id="d1"', 'id="d1" label="a>b"'),
    "amp-in-attribute": HAZARD_VALID.replace('id="d1"', 'id="d&amp;1"'),
    "char-ref-space-in-element-only": HAZARD_VALID.replace(
        "\n  <code>", "&#32;<code>"
    ),
    "char-ref-letter-in-element-only": HAZARD_VALID.replace(
        "\n  <code>", "&#65;<code>"
    ),
    "nbsp-in-element-only": HAZARD_VALID.replace("\n  <code>", "&#160;<code>"),
    "text-in-element-only": HAZARD_VALID.replace("\n  <code>", "x<code>"),
    "mixed-content": HAZARD_VALID.replace(
        "<note>hi <em>there</em></note>",
        "<note>a <em>b</em> c &amp; d <em>e</em> f</note>",
    ),
    "mixed-child-unknown": HAZARD_VALID.replace("<em>there</em>", "<b>x</b>"),
    "anytype-subtree": HAZARD_VALID.replace(
        "</note>",
        '</note><extra a="1"><deep x:y="z" xmlns:x="urn:x">t<w/></deep>'
        "text</extra>",
    ),
    "anytype-subtree-dup-attr": HAZARD_VALID.replace(
        "</note>", '</note><extra><deep a="1" a="2"/></extra>'
    ),
    "anytype-subtree-mismatch": HAZARD_VALID.replace(
        "</note>", "</note><extra><deep></wrong></extra>"
    ),
    "fixed-element-ok": HAZARD_VALID,
    "fixed-element-wrong": HAZARD_VALID.replace("<code>A1</code>", "<code>A2</code>"),
    "fixed-element-empty": HAZARD_VALID.replace("<code>A1</code>", "<code/>"),
    "fixed-element-reference": HAZARD_VALID.replace(
        "<code>A1</code>", "<code>&#65;1</code>"
    ),
    "fixed-empty-content": HAZARD_VALID.replace("</note>", "</note><pad/>"),
    "fixed-empty-content-space": HAZARD_VALID.replace(
        "</note>", "</note><pad> </pad>"
    ),
    "fixed-attribute-ok": HAZARD_VALID.replace('id="d1"', 'id="d1" version="2"'),
    "fixed-attribute-wrong": HAZARD_VALID.replace('id="d1"', 'id="d1" version="3"'),
    "missing-required-attribute": HAZARD_VALID.replace(' id="d1"', ""),
    "bad-attribute-lexical": HAZARD_VALID.replace('id="d1"', 'id="d 1"'),
    "undeclared-attribute": HAZARD_VALID.replace('id="d1"', 'id="d1" other="x"'),
    "xml-lang-undeclared": HAZARD_VALID.replace('id="d1"', 'id="d1" xml:lang="en"'),
    "xsi-type-derived": HAZARD_VALID.replace(
        "</note>",
        f'</note><shape xmlns:xsi="{XSI}" xsi:type="Circle">'
        "<name>c</name><radius>1.5</radius></shape>",
    ),
    "xsi-type-derived-bad-content": HAZARD_VALID.replace(
        "</note>",
        f'</note><shape xmlns:xsi="{XSI}" xsi:type="Circle">'
        "<name>c</name><radius>big</radius></shape>",
    ),
    "xsi-type-base-content-only": HAZARD_VALID.replace(
        "</note>",
        f'</note><shape xmlns:xsi="{XSI}" xsi:type="Circle">'
        "<name>c</name></shape>",
    ),
    "xsi-type-underived": HAZARD_VALID.replace(
        "</note>",
        f'</note><shape xmlns:xsi="{XSI}" xsi:type="Unrelated">'
        "<x>c</x></shape>",
    ),
    "xsi-type-unknown": HAZARD_VALID.replace(
        "</note>",
        f'</note><shape xmlns:xsi="{XSI}" xsi:type="Square">'
        "<name>c</name></shape>",
    ),
    "xsi-type-abstract": HAZARD_VALID.replace(
        "</note>",
        f'</note><shape xmlns:xsi="{XSI}" xsi:type="Blob">'
        "<name>c</name></shape>",
    ),
    "xsi-type-undeclared-prefix": HAZARD_VALID.replace(
        "</note>",
        '</note><shape xsi:type="Circle"><name>c</name><radius>2</radius></shape>',
    ),
    "xsi-type-rebound-prefix": HAZARD_VALID.replace(
        "</note>",
        f'</note><shape xmlns:s="{XSI}" s:type="Circle">'
        "<name>c</name><radius>2</radius></shape>",
    ),
    "xsi-prefix-not-xsi": HAZARD_VALID.replace(
        "</note>",
        '</note><shape xmlns:xsi="urn:not-xsi" xsi:type="Circle">'
        "<name>c</name><radius>2</radius></shape>",
    ),
    "xsi-nil-ignored": HAZARD_VALID.replace(
        "<code>", f'<code xmlns:xsi="{XSI}" xsi:nil="false">'
    ),
    "bound-prefix-attribute": HAZARD_VALID.replace(
        'id="d1"', 'id="d1" xmlns:p="urn:p" p:id="x"'
    ),
    "undeclared-prefix-attribute": HAZARD_VALID.replace('id="d1"', 'id="d1" p:id="x"'),
    "default-namespace-declaration": HAZARD_VALID.replace(
        'id="d1"', 'id="d1" xmlns="urn:default"'
    ),
    "simple-content": HAZARD_VALID.replace("</note>", '</note><qty unit="kg">3</qty>'),
    "simple-content-bad-value": HAZARD_VALID.replace(
        "</note>", '</note><qty unit="kg">-3</qty>'
    ),
    "simple-content-missing-attribute": HAZARD_VALID.replace(
        "</note>", "</note><qty>3</qty>"
    ),
    "simple-content-child": HAZARD_VALID.replace(
        "</note>", '</note><qty unit="kg"><b/></qty>'
    ),
    "empty-content": HAZARD_VALID.replace("</note>", "</note><flag/>"),
    "empty-content-text": HAZARD_VALID.replace("</note>", "</note><flag>x</flag>"),
    "empty-content-white-space": HAZARD_VALID.replace(
        "</note>", "</note><flag> \n </flag>"
    ),
    "empty-content-attribute": HAZARD_VALID.replace(
        "</note>", '</note><flag on="1"/>'
    ),
    "leaf-with-attribute": HAZARD_VALID.replace("<code>", '<code lang="x">'),
    "leaf-with-xmlns-only": HAZARD_VALID.replace("<code>", '<code xmlns:q="urn:q">'),
    "abstract-root": "<stub>x</stub>",
    "abstract-type-root": "<plain/>",
    "unknown-root": "<nope/>",
    "content-ends-early": '<doc id="d"></doc>',
    "text-after-root": HAZARD_VALID + "tail",
    "reference-after-root": HAZARD_VALID + "&amp;",
    "second-root": HAZARD_VALID + HAZARD_VALID,
    "unknown-entity": HAZARD_VALID.replace("hi ", "&nbsp;"),
    "bad-char-reference": HAZARD_VALID.replace("hi ", "&#0;"),
    "unclosed": HAZARD_VALID.replace("</doc>", ""),
}

#: a namespaced schema with qualified attributes: the route resolves
#: prefixes against its own xmlns scope stack
NS = "urn:example:turbo"
NS_SCHEMA = f"""\
<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema"
            xmlns:t="{NS}" targetNamespace="{NS}"
            elementFormDefault="qualified" attributeFormDefault="qualified">
  <xsd:element name="root" type="t:Root"/>
  <xsd:complexType name="Root">
    <xsd:sequence>
      <xsd:element name="item" type="xsd:string" minOccurs="0" maxOccurs="unbounded"/>
    </xsd:sequence>
    <xsd:attribute name="x" type="xsd:string" use="required"/>
    <xsd:attribute name="y" type="xsd:string" use="required"/>
  </xsd:complexType>
  <xsd:complexType name="Wide">
    <xsd:complexContent>
      <xsd:extension base="t:Root"/>
    </xsd:complexContent>
  </xsd:complexType>
</xsd:schema>
"""

NS_DOCUMENTS = {
    "valid": f'<t:root xmlns:t="{NS}" t:x="1" t:y="2"><t:item>a</t:item></t:root>',
    "default-namespace": (
        f'<root xmlns="{NS}" xmlns:t="{NS}" t:x="1" t:y="2"><item>a</item></root>'
    ),
    "rebound-prefix": (
        f'<t:root xmlns:t="{NS}" t:x="1" t:y="2">'
        f'<u:item xmlns:u="{NS}">a</u:item><t:item>b</t:item></t:root>'
    ),
    "prefix-rebound-away": (
        f'<t:root xmlns:t="{NS}" t:x="1" t:y="2">'
        '<t:item xmlns:t="urn:other">a</t:item></t:root>'
    ),
    "prefix-restored-after-rebinding": (
        f'<root xmlns="{NS}" xmlns:t="{NS}" t:x="1" t:y="2">'
        '<t:item xmlns="urn:other">a</t:item><item>b</item></root>'
    ),
    "undeclared-element-prefix": '<t:root t:x="1" t:y="2"/>',
    "unqualified-child": (
        f'<t:root xmlns:t="{NS}" t:x="1" t:y="2"><item>a</item></t:root>'
    ),
    "unqualified-attribute": f'<t:root xmlns:t="{NS}" x="1" t:y="2"/>',
    # Two prefixes bound to one namespace name the same attribute twice;
    # they must not stand in for the missing required t:y.
    "same-attribute-two-prefixes": (
        f'<t:root xmlns:t="{NS}" xmlns:u="{NS}" t:x="1" u:x="1"/>'
    ),
    "xsi-type-qualified": (
        f'<t:root xmlns:t="{NS}" xmlns:xsi="{XSI}" xsi:type="t:Wide"'
        ' t:x="1" t:y="2"/>'
    ),
    "xsi-type-default-namespace": (
        f'<root xmlns="{NS}" xmlns:t="{NS}" xmlns:xsi="{XSI}" xsi:type="Wide"'
        ' t:x="1" t:y="2"/>'
    ),
    "xsi-type-unprefixed-no-default": (
        f'<t:root xmlns:t="{NS}" xmlns:xsi="{XSI}" xsi:type="Wide"'
        ' t:x="1" t:y="2"/>'
    ),
}


def _outcome(call):
    """Collapse one validation run to a comparable value."""
    try:
        errors = call()
    except ReproError as error:
        return (
            "raised",
            type(error).__name__,
            getattr(error, "message", str(error)),
            getattr(error, "location", None),
        )
    return [
        (type(error).__name__, error.message, error.location, error.path)
        for error in errors
    ]


def _route(validator, text):
    """Which route ``validate_text`` took for *text* (obs counters)."""
    was_enabled = obs.enabled()
    obs.enable(reset=True)
    try:
        try:
            validator.validate_text(text)
            documents = 1
        except ReproError:
            documents = 0  # a syntax error: no verdict was counted
        counters = obs.snapshot()["counters"]
    finally:
        obs.reset()
        if not was_enabled:
            obs.disable()
    routes = [key for key in counters if key.startswith("xsd.stream.route")]
    assert len(routes) == 1 and counters[routes[0]] == 1, counters
    assert counters.get("xsd.stream.documents", 0) == documents, counters
    return "turbo" if routes[0] == "xsd.stream.route{route=turbo}" else "events"


def assert_parity(validator, text):
    """``validate_text`` equals the event walk; the turbo route accepts
    nothing the event walk rejects.  Returns the route taken."""
    golden = _outcome(lambda: validator.validate_events(PullParser(text)))
    assert _outcome(lambda: validator.validate_text(text)) == golden
    route = _route(validator, text)
    if route == "turbo":
        assert golden == [], "turbo route accepted a rejected document"
    return route


@pytest.fixture(scope="module")
def po_validator():
    return StreamingValidator(parse_schema(PURCHASE_ORDER_SCHEMA))


@pytest.fixture(scope="module")
def xhtml_validator():
    return StreamingValidator(parse_schema(XHTML_SUBSET_SCHEMA))


@pytest.fixture(scope="module")
def hazard_validator():
    return StreamingValidator(parse_schema(HAZARD_SCHEMA))


@pytest.fixture(scope="module")
def ns_validator():
    return StreamingValidator(parse_schema(NS_SCHEMA))


class TestPurchaseOrder:
    def test_valid_takes_turbo_route(self, po_validator):
        assert assert_parity(po_validator, PURCHASE_ORDER_DOCUMENT) == "turbo"

    @pytest.mark.parametrize("name", sorted(PURCHASE_ORDER_INVALID_DOCUMENTS))
    def test_invalid_corpus(self, po_validator, name):
        text = PURCHASE_ORDER_INVALID_DOCUMENTS[name]
        assert assert_parity(po_validator, text) == "events"

    def test_crlf_purchase_order(self, po_validator):
        assert assert_parity(po_validator, CRLF_PURCHASE_ORDER) == "events"

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_line_ending_corpus(self, po_validator, name):
        assert_parity(po_validator, GOLDEN[name][0])


class TestXhtml:
    def test_valid_takes_turbo_route(self, xhtml_validator):
        assert assert_parity(xhtml_validator, XHTML_DOCUMENT) == "turbo"

    @pytest.mark.parametrize("name", sorted(XHTML_MUTATIONS))
    def test_mutations(self, xhtml_validator, name):
        old, new = XHTML_MUTATIONS[name]
        assert old in XHTML_DOCUMENT
        text = XHTML_DOCUMENT.replace(old, new, 1)
        assert assert_parity(xhtml_validator, text) == "events"


class TestScannerParityCorpus:
    @pytest.mark.parametrize("name", sorted(WELL_FORMED))
    def test_well_formed(self, po_validator, xhtml_validator, name):
        assert_parity(po_validator, WELL_FORMED[name])
        assert_parity(xhtml_validator, WELL_FORMED[name])

    @pytest.mark.parametrize("name", sorted(ILL_FORMED))
    def test_ill_formed(self, po_validator, name):
        assert assert_parity(po_validator, ILL_FORMED[name]) == "events"


class TestHazards:
    @pytest.mark.parametrize("name", sorted(HAZARDS))
    def test_hazard(self, hazard_validator, name):
        assert_parity(hazard_validator, HAZARDS[name])

    @pytest.mark.parametrize(
        "name",
        [
            "baseline",
            "bom",
            "xml-declaration",
            "gt-in-attribute",
            "char-ref-space-in-element-only",
            "nbsp-in-element-only",
            "mixed-content",
            "anytype-subtree",
            "fixed-element-reference",
            "fixed-empty-content",
            "fixed-attribute-ok",
            "xsi-type-derived",
            "xsi-type-undeclared-prefix",
            "xsi-type-rebound-prefix",
            "xsi-nil-ignored",
            "default-namespace-declaration",
            "simple-content",
            "empty-content",
            "empty-content-white-space",
            "leaf-with-xmlns-only",
        ],
    )
    def test_valid_hazards_take_turbo_route(self, hazard_validator, name):
        assert assert_parity(hazard_validator, HAZARDS[name]) == "turbo"

    def test_wml_directory(self):
        validator = StreamingValidator(parse_schema(WML_SCHEMA))
        assert assert_parity(validator, WML_DIRECTORY_DOCUMENT) == "turbo"

    def test_default_namespace_on_namespace_free_schema(self):
        # The stream twin of test_validator's test_xmlns_attributes_ignored:
        # a no-namespace schema keys on lexical names, so the verdict
        # stays what it always was.
        validator = StreamingValidator(parse_schema(WML_SCHEMA))
        text = '<wml xmlns="http://example"><card/></wml>'
        assert validator.validate_text(text) == []
        assert assert_parity(validator, text) == "turbo"

    @pytest.mark.parametrize(
        "text",
        [
            "<notes><shipComment>a</shipComment></notes>",
            "<notes><comment>a</comment></notes>",
            "<comment>a</comment>",
        ],
    )
    def test_abstract_substitution_head(self, text):
        validator = StreamingValidator(parse_schema(ABSTRACT_HEAD_SCHEMA))
        assert_parity(validator, text)


class TestNamespaces:
    @pytest.mark.parametrize("name", sorted(NS_DOCUMENTS))
    def test_namespaced(self, ns_validator, name):
        assert_parity(ns_validator, NS_DOCUMENTS[name])

    @pytest.mark.parametrize(
        "name",
        [
            "valid",
            "default-namespace",
            "rebound-prefix",
            "prefix-restored-after-rebinding",
            "xsi-type-qualified",
            "xsi-type-default-namespace",
        ],
    )
    def test_valid_namespaced_take_turbo_route(self, ns_validator, name):
        assert assert_parity(ns_validator, NS_DOCUMENTS[name]) == "turbo"

    def test_same_attribute_under_two_prefixes_is_not_another(self, ns_validator):
        text = NS_DOCUMENTS["same-attribute-two-prefixes"]
        errors = ns_validator.validate_text(text)
        assert [error.message for error in errors] == [
            f"required attribute '{{{NS}}}y' missing on <{{{NS}}}root>"
        ]
        assert assert_parity(ns_validator, text) == "events"


GAUNTLET = [
    (family, name, path, expected)
    for family, case_dir in iter_cases()
    for name, path, expected in iter_instances(case_dir)
]


@pytest.fixture(scope="module")
def gauntlet_validators():
    return {
        family: StreamingValidator(
            parse_schema_file(f"{case_dir}/schema/main.xsd")
        )
        for family, case_dir in iter_cases()
    }


class TestGauntlet:
    @pytest.mark.parametrize(
        "family,name,path,expected",
        GAUNTLET,
        ids=[f"{family}/{name}" for family, name, _, _ in GAUNTLET],
    )
    def test_instance(self, gauntlet_validators, family, name, path, expected):
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        route = assert_parity(gauntlet_validators[family], text)
        assert route == ("turbo" if expected else "events")


class TestMemoBounds:
    """The turbo route's memos outlive the document and take untrusted
    input, so only short values and element names are stored."""

    def test_long_values_are_not_memoized(self):
        validator = StreamingValidator(parse_schema(HAZARD_SCHEMA))
        for n in range(200):
            value = f"{n:04d}" + "x" * 4096
            text = f'<doc id="d" label="{value}"><note><em>{value}</em></note></doc>'
            assert assert_parity(validator, text) == "turbo"
        short = '<doc id="d" label="short"><note><em>short</em></note></doc>'
        assert assert_parity(validator, short) == "turbo"
        decls = list(validator._decls.values())
        memos = [decl.memo for decl in decls] + [
            check[2]
            for decl in decls
            if decl.attribute_checks
            for check in decl.attribute_checks.values()
        ]
        assert set().union(*memos) == {"d", "short"}

    def test_long_element_names_are_not_memoized(self):
        validator = StreamingValidator(parse_schema(NS_SCHEMA))
        for n in range(200):
            name = f"e{n:04d}" + "x" * 4096
            assert assert_parity(validator, f"<{name}/>") == "events"
        assert assert_parity(validator, "<short/>") == "events"
        assert list(validator._root_scope.keys) == ["short"]
