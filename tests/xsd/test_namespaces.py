"""Namespace-correct binding and validation.

Covers the instance-side behaviors the gauntlet relies on: the
qualified/unqualified forms matrix, Clark-notation error messages,
XSI recognition by resolved namespace (not lexical prefix), and the
default-namespace rules for unprefixed type references on the schema
side.
"""

import pytest

from repro.dom import parse_document
from repro.errors import SchemaError
from repro.xml.parser import PullParser
from repro.xsd import SchemaValidator, StreamingValidator, parse_schema

TNS = "http://example.org/forms"


def _forms_schema(element_form: str, attribute_form: str = "unqualified"):
    return parse_schema(
        f"""
        <xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema"
                    xmlns:f="{TNS}"
                    targetNamespace="{TNS}"
                    elementFormDefault="{element_form}"
                    attributeFormDefault="{attribute_form}">
          <xsd:element name="root">
            <xsd:complexType>
              <xsd:sequence>
                <xsd:element name="child" type="xsd:string"/>
                <xsd:element name="flipped" type="xsd:string"
                             form="{'unqualified' if element_form == 'qualified' else 'qualified'}"/>
              </xsd:sequence>
              <xsd:attribute name="tag" type="xsd:string"/>
            </xsd:complexType>
          </xsd:element>
        </xsd:schema>
        """
    )


def _errors(schema, text):
    """Streaming-lane errors, with event-walk/text-route parity and DOM
    validity agreement asserted on the side (the DOM validator words
    content-model errors differently, so only its verdict is compared)."""
    validator = StreamingValidator(schema)
    streaming = validator.validate_events(PullParser(text))
    tables = validator.validate_text(text)
    assert [str(e) for e in streaming] == [str(e) for e in tables]
    dom = SchemaValidator(schema).validate(parse_document(text))
    assert bool(dom) == bool(streaming)
    return streaming


class TestFormsMatrix:
    def test_qualified_locals_accept_qualified_only(self):
        schema = _forms_schema("qualified")
        good = (
            f'<f:root xmlns:f="{TNS}" tag="x">'
            "<f:child>a</f:child><flipped>b</flipped></f:root>"
        )
        assert _errors(schema, good) == []

        unqualified_child = (
            f'<f:root xmlns:f="{TNS}">'
            "<child>a</child><flipped>b</flipped></f:root>"
        )
        messages = [str(e) for e in _errors(schema, unqualified_child)]
        assert messages and "<child>" in messages[0]

    def test_unqualified_locals_reject_qualified(self):
        schema = _forms_schema("unqualified")
        good = (
            f'<f:root xmlns:f="{TNS}">'
            "<child>a</child><f:flipped>b</f:flipped></f:root>"
        )
        assert _errors(schema, good) == []

        qualified_child = (
            f'<f:root xmlns:f="{TNS}">'
            "<f:child>a</f:child><f:flipped>b</f:flipped></f:root>"
        )
        assert _errors(schema, qualified_child)

    def test_qualified_attribute_form(self):
        schema = _forms_schema("qualified", attribute_form="qualified")
        good = (
            f'<f:root xmlns:f="{TNS}" f:tag="x">'
            "<f:child>a</f:child><flipped>b</flipped></f:root>"
        )
        assert _errors(schema, good) == []

        bare = (
            f'<f:root xmlns:f="{TNS}" tag="x">'
            "<f:child>a</f:child><flipped>b</flipped></f:root>"
        )
        messages = [str(e) for e in _errors(schema, bare)]
        assert messages and "'tag' is not declared" in messages[0]


class TestClarkMessages:
    def test_unexpected_element_reported_in_clark_notation(self):
        schema = _forms_schema("qualified")
        text = f'<f:root xmlns:f="{TNS}"><f:wrong>a</f:wrong></f:root>'
        messages = [str(e) for e in _errors(schema, text)]
        assert f"<{{{TNS}}}wrong>" in messages[0]
        assert f"<{{{TNS}}}root>" in messages[0]

    def test_no_namespace_schema_keeps_plain_names(self):
        schema = parse_schema(
            """
            <xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
              <xsd:element name="root">
                <xsd:complexType>
                  <xsd:sequence>
                    <xsd:element name="child" type="xsd:string"/>
                  </xsd:sequence>
                </xsd:complexType>
              </xsd:element>
            </xsd:schema>
            """
        )
        assert not schema.uses_namespaces
        messages = [
            str(e) for e in _errors(schema, "<root><bad/></root>")
        ]
        assert "<bad>" in messages[0]
        assert "{" not in messages[0]


class TestXsiByResolvedNamespace:
    SCHEMA = """
        <xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema"
                    xmlns:t="http://example.org/xsi"
                    targetNamespace="http://example.org/xsi">
          <xsd:element name="root" type="t:BaseType"/>
          <xsd:complexType name="BaseType">
            <xsd:sequence>
              <xsd:element name="a" type="xsd:string"/>
            </xsd:sequence>
          </xsd:complexType>
          <xsd:complexType name="WideType">
            <xsd:complexContent>
              <xsd:extension base="t:BaseType">
                <xsd:sequence>
                  <xsd:element name="b" type="xsd:string"/>
                </xsd:sequence>
              </xsd:extension>
            </xsd:complexContent>
          </xsd:complexType>
        </xsd:schema>
    """

    def test_xsi_type_honored_under_rebound_prefix(self):
        schema = parse_schema(self.SCHEMA)
        text = (
            '<t:root xmlns:t="http://example.org/xsi"'
            ' xmlns:s="http://www.w3.org/2001/XMLSchema-instance"'
            ' s:type="t:WideType"><a>x</a><b>y</b></t:root>'
        )
        assert _errors(schema, text) == []

    def test_fake_xsi_prefix_is_a_plain_attribute(self):
        """A prefix *spelled* xsi but bound to another namespace gets no
        special treatment: it is checked (and rejected) like any other
        undeclared attribute."""
        schema = parse_schema(self.SCHEMA)
        text = (
            '<t:root xmlns:t="http://example.org/xsi"'
            ' xmlns:xsi="http://example.org/not-xsi"'
            ' xsi:other="true"><a>x</a></t:root>'
        )
        messages = [str(e) for e in _errors(schema, text)]
        assert messages
        assert "{http://example.org/not-xsi}other" in messages[0]
        assert "not declared" in messages[0]

    def test_undeclared_xsi_prefix_keeps_conventional_meaning(self):
        schema = parse_schema(self.SCHEMA)
        text = (
            '<t:root xmlns:t="http://example.org/xsi"'
            ' xsi:type="t:WideType"><a>x</a><b>y</b></t:root>'
        )
        assert _errors(schema, text) == []


class TestDefaultNamespaceTypeReferences:
    def test_default_namespace_xsd_resolves_builtins(self):
        schema = parse_schema(
            """
            <schema xmlns="http://www.w3.org/2001/XMLSchema"
                    xmlns:t="http://example.org/d"
                    targetNamespace="http://example.org/d">
              <element name="root" type="string"/>
            </schema>
            """
        )
        assert (
            StreamingValidator(schema).validate_text(
                '<t:root xmlns:t="http://example.org/d">hello</t:root>'
            )
            == []
        )

    def test_default_namespace_xsd_local_types_shadow_builtins(self):
        schema = parse_schema(
            """
            <schema xmlns="http://www.w3.org/2001/XMLSchema"
                    xmlns:t="http://example.org/d"
                    targetNamespace="http://example.org/d">
              <simpleType name="code">
                <restriction base="string">
                  <enumeration value="ok"/>
                </restriction>
              </simpleType>
              <element name="root" type="code"/>
            </schema>
            """
        )
        validator = StreamingValidator(schema)
        assert validator.validate_text(
            '<t:root xmlns:t="http://example.org/d">ok</t:root>'
        ) == []
        assert validator.validate_text(
            '<t:root xmlns:t="http://example.org/d">nope</t:root>'
        )

    def test_non_xsd_default_namespace_does_not_reach_builtins(self):
        with pytest.raises(SchemaError) as excinfo:
            parse_schema(
                """
                <xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema"
                            xmlns="http://example.org/vocab"
                            xmlns:t="http://example.org/vocab"
                            targetNamespace="http://example.org/vocab">
                  <xsd:element name="root" type="string"/>
                </xsd:schema>
                """
            )
        assert "built-ins do not apply" in str(excinfo.value)
        assert "{http://example.org/vocab}string" in str(excinfo.value)

    def test_no_default_namespace_tolerates_bare_builtin_names(self):
        schema = parse_schema(
            """
            <xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema"
                        xmlns:t="http://example.org/d"
                        targetNamespace="http://example.org/d">
              <xsd:element name="root" type="string"/>
            </xsd:schema>
            """
        )
        assert (
            StreamingValidator(schema).validate_text(
                '<t:root xmlns:t="http://example.org/d">hello</t:root>'
            )
            == []
        )
