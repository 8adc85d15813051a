"""Fused parse-to-typed-tree: events drive typed construction directly.

The legacy ingest route is three passes over the data::

    PullParser events -> generic DOM -> Binding.from_dom -> typed tree
                         (builder)      (DFA walk #1)       (DFA walk #2
                                                             in check_valid)

This module collapses them into one: parser events step the content-model
DFAs *while the document is being read*, and ``TypedElement`` nodes are
allocated directly — no generic DOM is ever built and no second
validation pass runs.  The observable behaviour is identical to
``binding.from_dom(parse_document(text).document_element)``:

* the same typed classes are instantiated for the same declarations,
* the same tree shape results (text-node granularity, CDATA flattening,
  whitespace dropping, ``xmlns`` attribute filtering, attribute defaults),
* every document the legacy route rejects is rejected with the same
  exception type and message, and syntax errors keep their precedence
  over validity errors (the legacy route parses fully before binding),
* post-parse mutation behaves identically, including the
  ``_content_state`` incremental-append cache.

The fused walk steps the object DFAs' matchers, and it is the golden
reference (and the restart target) of the table-driven turbo lane in
:mod:`repro.ingest.table_driven`, which steps their flat
:class:`~repro.automata.tables.DfaTable` twins.  Both hand each
completed element to :func:`_construct`.

Documents using features the fused walk cannot prove (an internal DTD
subset, whose entity/default machinery the DOM route may interpret) fall
back to the legacy route transparently via :func:`ingest`.

``tests/ingest/test_fused.py`` holds the two routes to the same answers,
valid and invalid alike.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import obs
from repro.errors import SimpleTypeError, VdomTypeError
from repro.dom.attr import NamedNodeMap
from repro.dom.builder import parse_document
from repro.dom.charnodes import Text
from repro.core.vdom import Binding, TypedElement, leaf_content_error
from repro.xml.events import Characters, DoctypeDecl, EndElement, StartElement
from repro.xml.parser import PullParser
from repro.xml.turbo import MEMO_VALUE_LENGTH
from repro.xsd.components import ANY_TYPE, ComplexType, ContentType
from repro.xsd.simple import SimpleType

_STRUCTURED = (ContentType.ELEMENT_ONLY, ContentType.MIXED)

#: per-declaration cap on the accepted-leaf-value memo (turbo lane):
#: high-cardinality corpora stop inserting once full instead of growing
#: without bound, and hits keep working for the values already seen.
#: Values longer than :data:`~repro.xml.turbo.MEMO_VALUE_LENGTH` are
#: never stored: the memo lives on the cached binding.
_VALUE_MEMO_LIMIT = 4096


class IngestFallback(Exception):
    """Raised internally when a document needs the legacy parse route."""


@dataclass
class IngestResult:
    """Outcome of :func:`ingest`: the typed root plus route taken."""

    root: TypedElement
    fused: bool  #: False when the legacy parse->build->bind fallback ran


def legacy_parse(binding: Binding, text: str, source: str | None = None):
    """The original three-pass route: parse -> DOM -> ``from_dom``."""
    document = parse_document(text, source)
    return binding.from_dom(document.document_element)


def parse_typed(binding: Binding, text: str, source: str | None = None):
    """Parse *text* into a typed tree, fused when possible.

    This is the drop-in replacement for
    ``binding.from_dom(parse_document(text).document_element)``.
    """
    return ingest(binding, text, source).root


def ingest(binding: Binding, text: str, source: str | None = None) -> IngestResult:
    """Like :func:`parse_typed` but reporting which route ran."""
    # Function-level import: table_driven builds on this module.
    from repro.ingest.table_driven import table_parse

    try:
        result = IngestResult(table_parse(binding, text, source), True)
    except IngestFallback as fallback:
        obs.count(
            "ingest.route", route="legacy", reason=str(fallback) or "unknown"
        )
        return IngestResult(legacy_parse(binding, text, source), False)
    obs.count("ingest.route", route="fused")
    return result


def fused_parse(
    binding: Binding, text: str, source: str | None = None
) -> TypedElement:
    """Single-pass parse + validate + typed construction.

    Raises :class:`IngestFallback` on documents the fused walk does not
    cover (DOCTYPE declarations); callers wanting transparency use
    :func:`ingest` / :func:`parse_typed`.

    Content models are stepped through the object DFAs' matchers.  This
    is the golden reference the table-driven turbo lane is held to and
    restarts into (and the baseline the ``ingest:table_driven``
    benchmark floor is measured against).
    """
    binding._require_no_namespaces("fused ingest")
    elements = binding.schema.elements
    dispatch = _dispatch_table(binding)
    events = iter(PullParser(text, source))
    # one [matcher or None, dispatch info, attributes, content] per open
    # element; content collects its children (structured) or its
    # character data (leaf), white space included
    stack: list[list] = []
    root: TypedElement | None = None
    try:
        for event in events:
            kind = event.__class__
            if kind is Characters:
                stack[-1][3].append(event.data)
            elif kind is StartElement:
                if stack:
                    parent = stack[-1]
                    matcher = parent[0]
                    tag = parent[1][7][0]  # the construct info's tag
                    if matcher is None:
                        raise leaf_content_error(tag, parent[1][1])
                    declaration = matcher.step(event.name)
                    if declaration is None:
                        raise VdomTypeError(
                            f"<{event.name}> is not allowed inside <{tag}>"
                        )
                else:
                    declaration = elements.get(event.name)
                    if declaration is None:
                        raise VdomTypeError(
                            f"<{event.name}> is not a global element of the "
                            "schema"
                        )
                info = dispatch.get(id(declaration)) or _dispatch_info(
                    binding, declaration
                )
                stack.append(
                    [
                        info[3].matcher() if info[2] else None,
                        info,
                        event.attributes,
                        [],
                    ]
                )
            elif kind is EndElement:
                matcher, info, attributes, content = stack.pop()
                element = _construct(
                    binding,
                    info,
                    attributes,
                    content,
                    info[3],
                    matcher.state if matcher is not None else 0,
                    None,
                )
                if stack:
                    stack[-1][3].append(element)
                else:
                    root = element
            elif kind is DoctypeDecl:
                raise IngestFallback("internal DTD subset")
            # XML declarations, comments, and processing instructions
            # carry no typed content (from_dom ignores them).
    except VdomTypeError:
        # The legacy route parses the *whole* document before binding, so
        # a syntax error anywhere outranks any validity error.  Drain the
        # remaining events to surface one before re-raising.
        for _ in events:
            pass
        raise
    assert root is not None  # the parser guarantees a root element
    return root


def _dispatch_table(binding: Binding) -> dict:
    """The binding's per-declaration dispatch entries (class, resolved
    type, structuredness, DFA + flat table, content type, ...), filled
    lazily by both ingest lanes: declarations are interned in the
    schema, so ``id`` keys are stable for its lifetime."""
    dispatch = binding.__dict__.get("_ingest_dispatch")
    if dispatch is None:
        dispatch = {}
        binding._ingest_dispatch = dispatch
    return dispatch


def _dispatch_info(binding: Binding, declaration) -> tuple:
    """Build and store one per-declaration dispatch entry: ``(cls,
    type_definition, structured, dfa, table, content_type, has_required,
    cinfo, memo)``.

    Shared by the event-driven fused walk and the table-driven turbo
    lane; entries live in ``binding._ingest_dispatch`` keyed on
    ``id(declaration)``.
    """
    schema = binding.schema
    cls = binding.class_by_declaration.get(id(declaration))
    if cls is None:
        raise VdomTypeError(
            f"no generated class for declaration '{declaration.name}'"
        )
    type_definition = declaration.resolved_type()
    if isinstance(type_definition, ComplexType):
        content_type = type_definition.content_type
        structured = content_type in _STRUCTURED
        has_required = any(
            use.required
            for use in type_definition.effective_attribute_uses().values()
        )
    else:
        content_type = None
        structured = False
        has_required = False
    info = (
        cls,
        type_definition,
        structured,
        schema.content_dfa(type_definition) if structured else None,
        schema.content_table(type_definition) if structured else None,
        content_type,
        has_required,
        _construct_info(cls),
        # Accepted-leaf-value memo, used by the turbo lane only: a
        # bounded set of raw text contents this declaration's simple
        # type has already accepted, so repeated values skip the
        # facet/lexical re-validation.  Validation is pure, so caching
        # acceptance is observationally free; rejections are never
        # cached (the error path re-raises identically every time).
        {},
    )
    _dispatch_table(binding)[id(declaration)] = info
    return info


def _construct_info(cls) -> tuple:
    """Class-derived constants ``_construct`` would otherwise re-derive
    per element: the tag, the pre-rendered abstractness rejection (or
    None), the declared type and its two fast-path classifications, the
    element-level ``fixed`` value, and the attribute tables."""
    declaration = cls._DECLARATION
    type_definition = cls._TYPE
    abstract_error = None
    if declaration.abstract:
        abstract_error = (
            f"element '{declaration.name}' is abstract; construct a "
            "member of its substitution group instead"
        )
    elif isinstance(type_definition, ComplexType) and type_definition.abstract:
        abstract_error = (
            f"type '{type_definition.name}' of element "
            f"'{declaration.name}' is abstract"
        )
    lookup, defaults = cls.__dict__.get("_INGEST_ATTRS") or _build_attr_tables(cls)
    return (
        declaration.name,
        abstract_error,
        type_definition,
        isinstance(type_definition, SimpleType),
        type_definition is ANY_TYPE,
        declaration.fixed,
        lookup,
        defaults,
    )


def _construct(
    binding: Binding,
    info: tuple,
    attributes,
    content: list,
    automaton,
    state: int,
    memo: dict | None,
) -> TypedElement:
    """Allocate the typed element for a completed element.

    *info* is its dispatch entry, *attributes* its attributes as written
    (``xmlns`` declarations are skipped), *content* its children
    (structured) or character data runs (leaf), and *automaton* the content-model DFA (a
    :class:`~repro.automata.glushkov.Dfa` or its
    :class:`~repro.automata.tables.DfaTable` twin, which share state
    numbering) that stepped the children into *state*.  *memo* is the
    declaration's accepted-leaf-value memo (the turbo lane's), or None.

    Mirrors ``TypedElement.__init__`` as driven by ``Binding.from_dom``
    — same checks, same messages, same ordering — but allocates
    directly: names were already validated by the parser (or come from
    the schema), and the content-model DFA was stepped during parsing,
    so neither is re-run.
    """
    (
        cls,
        declared_type,
        structured,
        _dfa,
        _table,
        content_type,
        has_required,
        cinfo,
        _memo,
    ) = info
    (
        tag,
        abstract_error,
        type_definition,
        is_simple,
        is_any,
        fixed,
        lookup,
        defaults,
    ) = cinfo
    if abstract_error is not None:
        raise VdomTypeError(abstract_error)
    element = cls.__new__(cls)
    element._owner_document = None
    element._parent = None
    element._tag_name = tag
    attribute_map = NamedNodeMap(element)
    element._attributes = attribute_map

    nodes = []
    has_text = False
    element_count = 0
    data = ""
    if structured:
        for child in content:
            if child.__class__ is str:
                if not child.strip():
                    continue  # white space between child elements
                node = Text(child, None)
                node._parent = element
                nodes.append(node)
                has_text = True
            else:
                child._parent = element
                nodes.append(child)
                element_count += 1
    else:
        data = content[0] if len(content) == 1 else "".join(content)
        if data:
            node = Text(data, None)
            node._parent = element
            nodes.append(node)
    element._children = nodes

    # Fixed/defaulted attributes first, explicit values second — the
    # explicit value overwrites in place, keeping the default's position,
    # exactly as repeated set_attribute calls would.  Both tables derive
    # from ``_ATTRIBUTE_FIELDS`` once per class: ``lookup`` maps every
    # accepted spelling (python name, XML name) to the install key with
    # ``_attribute_field``'s precedence, ``defaults`` lists the
    # fixed/defaulted keys in field order.
    attrs = attribute_map._attrs
    for key, literal in defaults:
        attribute_map._install(key, literal)
    for name, value in attributes:
        if name.startswith("xmlns"):
            continue  # namespace declarations are not typed content
        key = lookup.get(name)
        if key is None:
            element._attribute_field(name)  # raises "has no attribute"
        existing = attrs.get(key)
        if existing is not None:
            existing.value = value
        else:
            attribute_map._install(key, value)

    if binding.validate_on_mutate:
        if is_simple:
            # Leaf frame: the walks reject child elements as they meet
            # them, so only the attribute and value checks of
            # ``_check_simple`` can fire.
            if attrs:
                raise VdomTypeError(
                    f"<{tag}> has a simple type and may not "
                    "carry attributes"
                )
            if memo is None or data not in memo:
                try:
                    type_definition.parse(data)
                except SimpleTypeError as error:
                    raise VdomTypeError(
                        f"content of <{tag}>: {error.message}"
                    )
                if memo is not None:
                    _remember(memo, data)
        elif is_any:
            pass
        elif type_definition is not declared_type:
            # A class whose declared type differs from the matched
            # declaration's: run the full check, exactly as the typed
            # constructor would.
            element._check_complex(type_definition)
        elif structured:
            # The automaton already accepted every child in order; only
            # the checks it cannot subsume remain.  With no attributes
            # present and none required, the attribute check is a proven
            # no-op.
            if attrs or has_required:
                element._check_attributes(type_definition)
            if content_type is ContentType.ELEMENT_ONLY and has_text:
                raise VdomTypeError(
                    f"<{tag}> has element-only content and "
                    "may not contain text"
                )
            if not automaton.is_accepting(state):
                expected = ", ".join(
                    f"<{key}>" for key in automaton.expected_keys(state)
                )
                raise VdomTypeError(
                    f"content of <{tag}> is incomplete; "
                    f"expected {expected}"
                )
            # Table and object DFAs share state numbering, so the
            # incremental-append cache resumes either way.
            element._content_state = (element_count, len(nodes), state)
        else:
            # Leaf complex frame (EMPTY or SIMPLE content): the checks
            # of ``_check_complex`` specialized to a childless element
            # whose text is *data*.
            if attrs or has_required:
                element._check_attributes(type_definition)
            if content_type is ContentType.EMPTY:
                if data.strip():
                    raise VdomTypeError(f"<{tag}> must be empty")
            elif memo is None or data not in memo:  # ContentType.SIMPLE
                try:
                    type_definition.simple_content.parse(data)
                except SimpleTypeError as error:
                    raise VdomTypeError(
                        f"content of <{tag}>: {error.message}"
                    )
                if memo is not None:
                    _remember(memo, data)
        if fixed is not None:
            value = data if not structured else element.text_content
            if value != fixed:
                raise VdomTypeError(
                    f"element '{tag}' must have the fixed "
                    f"value {fixed!r}"
                )
    return element


def _remember(memo: dict, value: str) -> None:
    """Record an accepted leaf value, within the memo's bounds."""
    if len(value) <= MEMO_VALUE_LENGTH and len(memo) < _VALUE_MEMO_LIMIT:
        memo[value] = True


def _build_attr_tables(cls) -> tuple[dict[str, str], tuple[tuple[str, str], ...]]:
    """Derive and cache the per-class attribute tables on *cls*.

    ``lookup`` replicates ``TypedElement._attribute_field``'s precedence:
    python names win outright; XML spellings fall to the first field (in
    declaration order) accepting them.
    """
    fields = cls._ATTRIBUTE_FIELDS
    lookup: dict[str, str] = {}
    for python_name, attr_field in fields.items():
        lookup[python_name] = attr_field.xml_name or attr_field.name
    for attr_field in fields.values():
        install_key = attr_field.xml_name or attr_field.name
        for spelling in (attr_field.xml_name, attr_field.name):
            if spelling:
                lookup.setdefault(spelling, install_key)
    defaults = tuple(
        (
            attr_field.xml_name or attr_field.name,
            attr_field.fixed if attr_field.fixed is not None else attr_field.default,
        )
        for attr_field in fields.values()
        if attr_field.fixed is not None or attr_field.default is not None
    )
    cls._INGEST_ATTRS = (lookup, defaults)
    return cls._INGEST_ATTRS
