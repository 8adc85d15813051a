"""The turbo lanes: one regex grammar over a strict XML subset, one loop.

Two hot lanes work straight off the source text instead of the
:class:`~repro.xml.parser.PullParser` event objects: the typed-tree
builder (:func:`repro.ingest.table_driven.table_parse`) and the
verdict-only stepper behind
:meth:`repro.xsd.stream.StreamingValidator.validate_text`.  Both run
:func:`walk`, the one loop over the grammar defined here.  It owns
everything the lanes share: the token match, text-run and reference
flushing, the document-level rules (one root, no text or references
outside it, balanced tags), ``xmlns`` scope tracking and element keying,
and the step through each open element's flat
:class:`~repro.automata.tables.DfaTable`.  A lane contributes a *sink*:
a ``start`` and an ``end`` callable, one call per tag, that check and
build what only that lane needs.

The grammar is a *strict subset* of XML 1.0: every document it accepts
is well-formed and tokenizes exactly as the event parser would.  The
walk never reports an error itself.  Anything outside the subset —
DOCTYPE, CDATA, comments, PIs, single-quoted or reference-bearing
attributes, ``\\r`` line endings, non-ASCII names, general entities,
duplicate attributes — and any failed schema check ends it with a
reason (a :class:`Restart`), and the caller re-runs the document through
its event route, which owns every diagnostic.

Both lanes memoize accepted values in structures that outlive the
document (the typed lane on the cached binding, the verdict lane on the
validator); :data:`MEMO_VALUE_LENGTH` is the one length bound they
share.
"""

from __future__ import annotations

import re

from repro.errors import ReproError, XmlSyntaxError
from repro.xml.chars import char_class
from repro.xml.entities import PREDEFINED_ENTITIES, decode_char_reference
from repro.xml.qname import XML_NAMESPACE, expanded_name


class Restart(Exception):
    """The walk stopped; re-run the event route.  A sink raises it with
    the default reason when one of its schema checks fails."""

    __slots__ = ("reason",)

    def __init__(self, reason: str = "validation"):
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


def _reject_duplicates(attributes: list[tuple[str, str]]) -> None:
    seen = set()
    for name, _ in attributes:
        if name in seen:
            raise Restart("duplicate attribute")
        seen.add(name)


#: per-scope cap on the cached element keys
_KEY_MEMO_LIMIT = 1024


class Scope:
    """In-scope ``xmlns`` bindings (prefix -> namespace name, ``""`` for
    the default namespace), with the element keys resolved under them.

    An element without declarations shares its parent's scope, so the
    common case (namespace-free documents, or declarations only on the
    root) allocates nothing per element.
    """

    __slots__ = ("namespaces", "keys")

    def __init__(self, namespaces: dict[str, str] | None = None):
        self.namespaces = (
            {"xml": XML_NAMESPACE} if namespaces is None else namespaces
        )
        self.keys: dict[str, str] = {}

    def child(self, attributes) -> "Scope":
        """The scope inside an element carrying *attributes*."""
        overrides: dict[str, str] = {}
        for name, value in attributes:
            if name == "xmlns":
                overrides[""] = value
            elif name.startswith("xmlns:"):
                overrides[name[len("xmlns:") :]] = value
        if not overrides:
            return self
        return Scope({**self.namespaces, **overrides})

    def element_key(self, name: str) -> str:
        """Expanded name the element tag *name* matches the components of
        a namespaced schema under (cached per scope).

        An undeclared prefix keeps the lexical name, and the schema's "no
        such element" diagnostics do the explaining.
        """
        key = self.keys.get(name)
        if key is None:
            prefix, colon, local = name.partition(":")
            if not colon:
                key = expanded_name(self.namespaces.get("") or None, name)
            else:
                uri = self.namespaces.get(prefix)
                key = name if uri is None else expanded_name(uri, local)
            if len(name) <= MEMO_VALUE_LENGTH and len(self.keys) < _KEY_MEMO_LIMIT:
                self.keys[name] = key
        return key


#: the ``content`` of a frame whose descendants are all accepted unread
#: (``anyType``): the walk only balances their tags
SKIP = object()


def walk(
    text: str, elements, start, end, scope: Scope, namespaced: bool = False
):
    """Drive one sink over *text*: ``(None, value)`` when the whole
    document went through, ``(reason, None)`` when it left the subset or
    a check failed.

    *elements* maps keys to the schema's global element declarations;
    *scope* is the document-level scope, and element names resolve to
    expanded names under it when *namespaced*.
    ``start(declaration, attributes, scope)`` runs once per start tag
    whose declaration the walk matched, and returns the element's frame,
    a list whose first five slots the walk reads::

        [content, state, texts, blank, scope, ...sink's own slots]

    *content* is the :class:`~repro.automata.tables.DfaTable` child
    elements step (from *state*), ``None`` when the element admits none,
    or :data:`SKIP`; character data runs are appended to *texts* unless
    it is ``None``; *blank* rejects non-white-space text.
    ``end(frame, parent)`` runs when the element closes (*parent* is
    ``None`` for the root); what it returns for the root is the walk's
    *value*.  A sink rejects the document by raising :class:`Restart`
    or a :class:`~repro.errors.ReproError`.
    """
    token_match = TOKEN.match
    root_scope = scope
    stack: list[list] = []
    open_names: list[str] = []
    pending: list[str] = []
    skip_depth = 0  # open elements below a SKIP frame
    seen_root = False
    root = None
    try:
        text, pos = prologue(text)
        length = len(text)
        while pos < length:
            match = token_match(text, pos)
            if match is None:
                raise Restart("tokenizer")
            pos = match.end()
            kind = match.lastindex
            if kind == 1:  # text run
                pending.append(match[1])
                continue
            if kind == 6:  # reference
                if not stack:
                    raise Restart("reference outside content")
                pending.append(decode_reference(match[6]))
                continue
            # A tag boundary: flush the accumulated run as ONE data unit,
            # as the event parser emits one Characters per inter-markup
            # run, references joined in.
            if pending:
                data = pending[0] if len(pending) == 1 else "".join(pending)
                pending.clear()
                if stack:
                    frame = stack[-1]
                    if frame[3] and data.strip():
                        raise Restart()
                    texts = frame[2]
                    if texts is not None:
                        texts.append(data)
                elif data.strip(" \t\n"):
                    # Non-white-space character data outside the root (the
                    # parser's white-space production, not str.strip()'s).
                    raise Restart("text outside root")
            if kind == 4:  # start tag
                name = match[2]
                blob = match[3]
                attributes = parse_attributes(blob) if blob else ()
                if stack:
                    parent = stack[-1]
                    table = parent[0]
                    if table is None:
                        raise Restart()  # no child elements allowed
                    if table is SKIP:
                        if not match[4]:
                            skip_depth += 1
                            open_names.append(name)
                        continue
                elif seen_root:
                    raise Restart("multiple root elements")
                else:
                    parent = None
                if attributes and "xmlns" in blob:
                    scope = scope.child(attributes)
                if namespaced:
                    key = scope.keys.get(name)
                    if key is None:
                        key = scope.element_key(name)
                else:
                    key = name
                if parent is not None:
                    sym = table.symbol_ids.get(key)
                    if sym is None:
                        raise Restart()
                    cell = parent[1] * table.n_symbols + sym
                    target = table.nxt[cell]
                    if target < 0:
                        raise Restart()
                    parent[1] = target
                    declaration = table.payloads[table.pay[cell]]
                else:
                    seen_root = True
                    declaration = elements.get(key)
                    if declaration is None or declaration.abstract:
                        raise Restart()
                frame = start(declaration, attributes, scope)
                if match[4]:  # self-closing
                    if parent is not None:
                        end(frame, parent)
                        scope = parent[4]
                    else:
                        root = end(frame, None)
                        scope = root_scope
                else:
                    stack.append(frame)
                    open_names.append(name)
            else:  # kind == 5: end tag
                name = match[5]
                if not open_names or open_names[-1] != name:
                    raise Restart("tag mismatch")
                open_names.pop()
                if skip_depth:
                    skip_depth -= 1
                    continue
                frame = stack.pop()
                if stack:
                    parent = stack[-1]
                    end(frame, parent)
                    scope = parent[4]
                else:
                    root = end(frame, None)
                    scope = root_scope
        if open_names:
            raise Restart("unclosed element")
        if not seen_root:
            raise Restart("no root element")
        if pending and "".join(pending).strip(" \t\n"):
            raise Restart("text outside root")
    except Restart as restart:
        return restart.reason, None
    except ReproError:
        # A value failed its simple type, or the typed tree refused it.
        return "validation", None
    return None, root
