"""Qualified names and namespace resolution (Namespaces in XML 1.0).

The paper's schemas use the ``xsd:`` prefix for the schema namespace and
unprefixed names for the target language; this module provides just enough
namespace machinery to resolve both correctly.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import XmlSyntaxError
from repro.xml.chars import is_ncname

XML_NAMESPACE = "http://www.w3.org/XML/1998/namespace"
XMLNS_NAMESPACE = "http://www.w3.org/2000/xmlns/"
XSD_NAMESPACE = "http://www.w3.org/2001/XMLSchema"
XSI_NAMESPACE = "http://www.w3.org/2001/XMLSchema-instance"


def expanded_name(namespace: str | None, local_name: str) -> str:
    """The matching key for a component: Clark notation when namespaced.

    ``{uri}local`` for components in a namespace, the bare local name
    otherwise — so schemas without namespaces keep exactly the keys (and
    the DFA symbol tables, error messages, and cache artifacts) they had
    before namespace support existed.
    """
    if namespace:
        return f"{{{namespace}}}{local_name}"
    return local_name


@dataclass(frozen=True, order=True)
class QName:
    """An expanded name: ``(namespace URI, local name)`` plus prefix hint."""

    namespace: str | None
    local_name: str
    prefix: str | None = None

    def __str__(self) -> str:
        if self.prefix:
            return f"{self.prefix}:{self.local_name}"
        return self.local_name

    @property
    def clark(self) -> str:
        """Clark notation, ``{uri}local``, usable as a dictionary key."""
        if self.namespace:
            return f"{{{self.namespace}}}{self.local_name}"
        return self.local_name


def split_qname(name: str) -> tuple[str | None, str]:
    """Split ``prefix:local`` into its parts, checking both are NCNames."""
    prefix, colon, local = name.partition(":")
    if not colon:
        if not is_ncname(name):
            raise XmlSyntaxError(f"'{name}' is not a valid unprefixed name")
        return None, name
    if not is_ncname(prefix) or not is_ncname(local):
        raise XmlSyntaxError(f"'{name}' is not a valid qualified name")
    return prefix, local


class NamespaceContext:
    """A stack of in-scope namespace bindings.

    Push one frame per element with that element's ``xmlns`` attributes;
    resolution walks the frames innermost-first.
    """

    _DEFAULT_BINDINGS = {"xml": XML_NAMESPACE, "xmlns": XMLNS_NAMESPACE}

    def __init__(self) -> None:
        self._frames: list[dict[str, str | None]] = []

    def push(self, attributes: tuple[tuple[str, str], ...]) -> None:
        """Enter an element; harvest its namespace declarations."""
        frame: dict[str, str | None] = {}
        for name, value in attributes:
            if name == "xmlns":
                frame[""] = value or None
            elif name.startswith("xmlns:"):
                prefix = name[len("xmlns:") :]
                if not is_ncname(prefix):
                    raise XmlSyntaxError(f"illegal namespace prefix '{prefix}'")
                if not value:
                    raise XmlSyntaxError(
                        f"prefix '{prefix}' may not be unbound in XML 1.0"
                    )
                frame[prefix] = value
        self._frames.append(frame)

    def pop(self) -> None:
        self._frames.pop()

    def uri_for_prefix(self, prefix: str) -> str | None:
        """Resolve *prefix* ('' means the default namespace)."""
        for frame in reversed(self._frames):
            if prefix in frame:
                return frame[prefix]
        if prefix in self._DEFAULT_BINDINGS:
            return self._DEFAULT_BINDINGS[prefix]
        if prefix == "":
            return None
        raise XmlSyntaxError(f"undeclared namespace prefix '{prefix}'")

    def resolve(self, name: str, is_attribute: bool = False) -> QName:
        """Expand a lexical QName using the current bindings.

        Per the namespaces spec, unprefixed attribute names are in *no*
        namespace rather than the default namespace.
        """
        prefix, local = split_qname(name)
        if prefix is None:
            if is_attribute:
                return QName(None, local)
            return QName(self.uri_for_prefix(""), local)
        return QName(self.uri_for_prefix(prefix), local, prefix)
