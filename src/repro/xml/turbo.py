"""The turbo token grammar: one regex alternation over a strict XML subset.

Two hot lanes drive their work straight off the source text instead of
the :class:`~repro.xml.parser.PullParser` event objects: the typed-tree
builder (:func:`repro.ingest.table_driven.table_parse`) and the
verdict-only stepper behind
:meth:`repro.xsd.stream.StreamingValidator.validate_text`.  Both scan
with the grammar defined here, so there is exactly one copy of it.

The grammar is a *strict subset* of XML 1.0: every document it accepts
is well-formed and tokenizes exactly as the event parser would.  It
never reports an error itself.  Anything outside the subset — DOCTYPE,
CDATA, comments, PIs, single-quoted or reference-bearing attributes,
``\\r`` line endings, non-ASCII names, general entities, duplicate
attributes — raises :class:`Restart`, and the caller re-runs the
document through its event route, which owns every diagnostic.

Both lanes memoize accepted values in structures that outlive the
document (the typed lane on the cached binding, the verdict lane on the
validator); :data:`MEMO_VALUE_LENGTH` is the one length bound they
share.
"""

from __future__ import annotations

import re

from repro.errors import XmlSyntaxError
from repro.xml.chars import char_class
from repro.xml.entities import PREDEFINED_ENTITIES, decode_char_reference


class Restart(Exception):
    """The document left the turbo subset; re-run the event route."""

    __slots__ = ("reason",)

    def __init__(self, reason: str):
        self.reason = reason


#: XML white space minus ``\r`` (any ``\r`` restarts: §2.11 line-ending
#: normalization is the event route's business)
WS = r"[ \t\n]"

#: ASCII-only strict subset of the XML Name production — any name the
#: grammar accepts is a valid XML Name; names outside the subset simply
#: fail to match and restart into the event route
NAME = r"[A-Za-z_][A-Za-z0-9._:\-]*"

#: zero or more complete attributes: double-quoted values containing no
#: references, no ``<``, and no normalizable white space — exactly the
#: contract of the scanning parser's quick path, so raw values need no
#: further processing
ATTR_BLOB = rf'(?:{WS}+{NAME}{WS}*={WS}*"[^"&<\t\n\r]*")*'

#: the master tokenizer: one alternation, one C-level ``match`` per
#: token.  ``lastindex`` dispatches: 1 = text run, 4 = start tag
#: (2 = name, 3 = attribute blob, 4 = self-closing flag), 5 = end tag,
#: 6 = reference body.
TOKEN = re.compile(
    rf"([^<&]+)"
    rf"|<({NAME})({ATTR_BLOB}){WS}*(/?)>"
    rf"|</({NAME}){WS}*>"
    rf"|&(#[0-9]+|#x[0-9A-Fa-f]+|{NAME});"
)

#: one attribute inside an already-validated blob
ATTR = re.compile(rf'({NAME}){WS}*={WS}*"([^"]*)"')

#: a strict subset of the XML declaration grammar; declarations outside
#: it leave ``<?`` in the text and the hazard scan restarts
XML_DECL = re.compile(
    rf'<\?xml{WS}+version{WS}*={WS}*"1\.0"'
    rf'(?:{WS}+encoding{WS}*={WS}*"[A-Za-z][A-Za-z0-9._\-]*")?'
    rf'(?:{WS}+standalone{WS}*={WS}*"(?:yes|no)")?'
    rf"{WS}*\?>"
)

#: anything that forces the event route, found in one pre-scan: markup
#: declarations / PIs / CDATA / comments (``<!``, ``<?``), ``]]>`` (an
#: error in content, legal only in constructs that restart anyway), any
#: ``\r`` (line-ending normalization), any character outside the XML
#: Char production (identical illegality verdicts)
HAZARD = re.compile(f"<[!?]|]]>|\r|[^{char_class()}]")

#: longest value (or element name) a lane's accepted-value memo stores.
#: The memos outlive the document, and their inputs are untrusted:
#: without a length bound a leaf of type ``xsd:string`` could pin as many
#: request-sized strings per declaration as the memo's count cap allows.
#: The values worth memoizing — codes, names, enumerations — are short.
MEMO_VALUE_LENGTH = 64


def prologue(text: str) -> tuple[str, int]:
    """``(text, offset of the first token)`` after the BOM and XML
    declaration, once the whole document passed the hazard scan."""
    if text.startswith("\ufeff"):
        text = text[1:]
    pos = 0
    declaration = XML_DECL.match(text)
    if declaration is not None:
        pos = declaration.end()
    if HAZARD.search(text, pos) is not None:
        raise Restart("hazard")
    return text, pos


def decode_reference(body: str) -> str:
    """Replacement text for ``&body;`` — restart on anything the event
    parser would have to error on or expand from a DTD."""
    if body[0] == "#":
        try:
            return decode_char_reference(body)
        except XmlSyntaxError:
            raise Restart("character reference")
    replacement = PREDEFINED_ENTITIES.get(body)
    if replacement is None:
        # A general entity: only a DTD could define it, and DOCTYPE is
        # outside the subset.
        raise Restart("entity reference")
    return replacement


def parse_attributes(blob: str) -> list[tuple[str, str]]:
    """Every ``(name, value)`` pair of a ``TOKEN``-validated blob.

    Duplicate names are a well-formedness error even on elements a lane
    goes on to ignore, so the check runs here, before any filtering.
    """
    attributes = ATTR.findall(blob)
    if len(attributes) > 1:
        _reject_duplicates(attributes)
    return attributes


def content_attributes(blob: str) -> list[tuple[str, str]]:
    """:func:`parse_attributes` minus the ``xmlns`` declarations, in one
    call — the typed lane's per-start-tag step."""
    attributes = ATTR.findall(blob)
    if len(attributes) > 1:
        _reject_duplicates(attributes)
    return [pair for pair in attributes if not pair[0].startswith("xmlns")]


def _reject_duplicates(attributes: list[tuple[str, str]]) -> None:
    seen = set()
    for name, _ in attributes:
        if name in seen:
            raise Restart("duplicate attribute")
        seen.add(name)
