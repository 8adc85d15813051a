"""Streaming schema validation over parser events.

Validates a document straight off the pull parser's event stream — no
DOM is built, memory stays proportional to element depth rather than
document size.  Functionally equivalent to
:class:`repro.xsd.validator.SchemaValidator` on the supported feature
set (the benchmarks assert agreement); it is the validation mode a
server would use for *incoming* documents before unmarshalling, and an
ablation partner for the DOM-based walk.

Namespaces are tracked as a stack of in-scope ``xmlns`` bindings pushed
per start tag: element and attribute names resolve to expanded names and
match the schema's component keys, XSI attributes are recognized by
resolved namespace whatever prefix they use (an undeclared ``xsi:``
prefix keeps its conventional meaning for legacy documents), and
diagnostics for namespaced schemas name elements in Clark notation.

:meth:`StreamingValidator.validate_text` runs a verdict-only *turbo
route* first.  It scans the text with the shared turbo grammar
(:mod:`repro.xml.turbo`) and steps the flat
:class:`~repro.automata.tables.DfaTable` arrays directly — no event
objects, no locations, no per-element frames beyond a small list.  It
returns ``[]`` only when it has proven the document well-formed and
schema-valid under every check the event walk makes; on any deviation
it gives up and the document is re-run through
``validate_events(PullParser(text))``, which stays the only producer of
error lists.  Messages, paths, line/column and syntax-over-validity
precedence are therefore those of the event walk, by construction.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro import obs
from repro.errors import ReproError, SimpleTypeError, ValidationError
from repro.xml.events import (
    Characters,
    EndElement,
    Event,
    StartElement,
)
from repro.xml.parser import PullParser
from repro.xml.qname import XML_NAMESPACE, XSI_NAMESPACE
from repro.xml.turbo import (
    MEMO_VALUE_LENGTH,
    TOKEN,
    Restart,
    decode_reference,
    parse_attributes,
    prologue,
)
from repro.xsd.components import (
    ANY_TYPE,
    ComplexType,
    ContentType,
    ElementDeclaration,
    Schema,
    expanded_name,
)
from repro.xsd.simple import SimpleType

#: per-declaration cap on the accepted-value memos of the turbo route:
#: high-cardinality corpora stop inserting once full instead of growing
#: without bound.  A quarter of the typed lane's bound — repeated values
#: (names, codes, enumerations) hit long before it, and a verdict-only
#: caller should not hold megabytes of one-off strings.  Values longer
#: than :data:`~repro.xml.turbo.MEMO_VALUE_LENGTH` are never stored.
_VALUE_MEMO_LIMIT = 1024


class _Frame:
    """Validation state for one open element."""

    __slots__ = (
        "declaration",
        "type_definition",
        "matcher",
        "content_type",
        "text",
        "path",
        "skip",
    )

    def __init__(self, declaration, type_definition, matcher, content_type, path, skip):
        self.declaration = declaration
        self.type_definition = type_definition
        self.matcher = matcher
        self.content_type = content_type
        self.text: list[str] = []
        self.path = path
        self.skip = skip  # inside anyType: accept everything below


class _EventNamespaces:
    """In-scope ``xmlns`` bindings, one frame per open element.

    Frames without declarations share their parent's dict, so the common
    case (namespace-free documents, or declarations only on the root)
    costs one list append per element.
    """

    __slots__ = ("_stack",)

    def __init__(self) -> None:
        self._stack: list[dict[str, str]] = [{"xml": XML_NAMESPACE}]

    def push(self, attributes: tuple[tuple[str, str], ...]) -> None:
        top = self._stack[-1]
        overrides = _xmlns_overrides(attributes)
        self._stack.append({**top, **overrides} if overrides else top)

    def pop(self) -> None:
        self._stack.pop()

    def get(self, prefix: str) -> str | None:
        return self._stack[-1].get(prefix)


def _xmlns_overrides(attributes) -> dict[str, str]:
    """Prefix -> namespace bindings an element's attributes declare
    (``""`` for the default namespace)."""
    overrides: dict[str, str] = {}
    for name, value in attributes:
        if name == "xmlns":
            overrides[""] = value
        elif name.startswith("xmlns:"):
            overrides[name[len("xmlns:") :]] = value
    return overrides


class StreamingValidator:
    """Validate event streams against one schema.

    Content models are stepped through flat integer transition tables
    (:class:`repro.automata.DfaTable`) by default; ``use_tables=False``
    selects the object-DFA matchers instead, and also turns the turbo
    route off, so :meth:`validate_text` always takes the event walk
    (counted as ``xsd.stream.route{route=events,reason=object-dfa}``).
    Both settings produce identical verdicts, messages, and orderings
    (the parity suites hold them together) — the flag exists so tests
    can pin the golden reference route.
    """

    def __init__(self, schema: Schema, *, use_tables: bool = True):
        self._schema = schema
        self._use_tables = use_tables
        self._namespaced = schema.uses_namespaces
        # Turbo-route state, built lazily and shared across documents:
        # per-(declaration, type) checks and the document-level scope.
        self._decls: dict = {}
        self._root_scope = _Scope({"xml": XML_NAMESPACE})

    # -- entry points ---------------------------------------------------------

    def validate_text(self, text: str) -> list[ValidationError]:
        """Parse and validate in one streaming pass.

        Valid documents inside the turbo subset are proven valid off the
        turbo scanner and the DFA tables; every other document takes the
        event walk, which produces the error list.
        """
        with obs.span("xsd.stream.validate"):
            reason = self._prove_valid(text) if self._use_tables else "object-dfa"
            if reason is None:
                obs.count("xsd.stream.route", route="turbo")
                errors: list[ValidationError] = []
            else:
                obs.count("xsd.stream.route", route="events", reason=reason)
                errors = self._walk(PullParser(text))
        return _tally(errors)

    def validate_events(self, events: Iterable[Event]) -> list[ValidationError]:
        with obs.span("xsd.stream.validate"):
            errors = self._walk(events)
        return _tally(errors)

    def is_valid(self, text: str) -> bool:
        return not self.validate_text(text)

    def _walk(self, events: Iterable[Event]) -> list[ValidationError]:
        errors: list[ValidationError] = []
        stack: list[_Frame] = []
        namespaces = _EventNamespaces()
        for event in events:
            if isinstance(event, StartElement):
                namespaces.push(event.attributes)
                self._start(event, stack, errors, namespaces)
            elif isinstance(event, EndElement):
                self._end(stack, errors)
                namespaces.pop()
            elif isinstance(event, Characters):
                self._characters(event, stack, errors)
            # comments / PIs / doctype / declarations are transparent
        return errors

    # -- the turbo route ----------------------------------------------------------

    def _prove_valid(self, text: str) -> str | None:
        """``None`` when *text* is proven valid, else why the proof
        stopped (the document then takes the event walk)."""
        try:
            self._turbo_walk(text)
        except Restart as restart:
            return restart.reason
        except ReproError:
            # A leaf or attribute value failed its simple type (the event
            # walk reports it, or whatever else it finds first).
            return "validation"
        return None

    def _turbo_walk(self, text: str) -> None:
        """Raise :class:`Restart` unless *text* is well-formed (inside the
        turbo subset) and valid.  Mirrors the event walk check for
        check: ``_start``/``_push``/``_check_attributes`` on start tags,
        ``_characters`` on text runs, ``_end`` on end tags."""
        text, pos = prologue(text)
        elements = self._schema.elements
        decls = self._decls
        namespaced = self._namespaced
        token_match = TOKEN.match
        length = len(text)
        root_scope = scope = self._root_scope
        # one [decl, DFA state, text runs or None, scope] per open element
        stack: list[list] = []
        open_names: list[str] = []
        pending: list[str] = []
        skip_depth = 0  # open elements below an anyType element
        seen_root = False
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
            # A tag boundary: the accumulated run is one Characters event.
            if pending:
                data = pending[0] if len(pending) == 1 else "".join(pending)
                pending.clear()
                if stack:
                    frame = stack[-1]
                    if frame[0].blank and data.strip():
                        raise Restart("validation")
                    texts = frame[2]
                    if texts is not None:
                        texts.append(data)
                elif data.strip(" \t\n"):
                    raise Restart("text outside root")
            if kind == 4:  # start tag
                name = match[2]
                blob = match[3]
                closed = match[4]
                attributes = parse_attributes(blob) if blob else None
                if stack:
                    parent = stack[-1]
                    table = parent[0].table
                    if table is None:
                        if parent[0].skip:
                            if not closed:
                                skip_depth += 1
                                open_names.append(name)
                            continue
                        raise Restart("validation")  # no children allowed
                elif seen_root:
                    raise Restart("multiple root elements")
                if attributes and "xmlns" in blob:
                    scope = scope.child(attributes)
                if namespaced:
                    key = scope.keys.get(name)
                    if key is None:
                        key = scope.element_key(name)
                else:
                    key = name
                if stack:
                    sym = table.symbol_ids.get(key)
                    if sym is None:
                        raise Restart("validation")
                    cell = parent[1] * table.n_symbols + sym
                    target = table.nxt[cell]
                    if target < 0:
                        raise Restart("validation")
                    parent[1] = target
                    declaration = table.payloads[table.pay[cell]]
                else:
                    seen_root = True
                    declaration = elements.get(key)
                    if declaration is None or declaration.abstract:
                        raise Restart("validation")
                decl = decls.get(id(declaration))
                if decl is None:
                    decl = self._decl(declaration, None)
                if attributes or decl.guarded:
                    decl = self._start_checks(decl, attributes, scope)
                if closed:
                    _finish(decl, 0, None)
                    scope = stack[-1][3] if stack else root_scope
                else:
                    stack.append(
                        [decl, 0, [] if decl.collect else None, scope]
                    )
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
                _finish(frame[0], frame[1], frame[2])
                scope = stack[-1][3] if stack else root_scope
        if open_names:
            raise Restart("unclosed element")
        if not seen_root:
            raise Restart("no root element")
        if pending and "".join(pending).strip(" \t\n"):
            raise Restart("text outside root")

    def _decl(self, declaration: ElementDeclaration, override) -> "_Decl":
        """The turbo route's checks for *declaration*, typed by its
        declared type or by the ``xsi:type`` *override* (memoized)."""
        key = id(declaration) if override is None else (
            id(declaration),
            id(override),
        )
        decl = self._decls.get(key)
        if decl is None:
            type_definition = (
                declaration.resolved_type() if override is None else override
            )
            decl = _Decl(self._schema, declaration, type_definition)
            self._decls[key] = decl
        return decl

    def _start_checks(
        self, decl: "_Decl", attributes, scope: "_Scope"
    ) -> "_Decl":
        """``_push``/``_check_attributes`` for one start tag: resolve
        ``xsi:type`` (returning the overriding checks) and prove every
        attribute declared, fixed-equal, lexically valid, and every
        required one present."""
        namespaces = scope.namespaces
        if attributes:
            items = _attribute_items(attributes, namespaces)
            # xsi:type is one of the attributes _attribute_items drops:
            # when it dropped none, there is nothing to look for.
            xsi_type = (
                _xsi_type_value(attributes, namespaces)
                if len(items) < len(attributes)
                else None
            )
        else:
            items = []
            xsi_type = None
        if xsi_type is not None:
            candidate = self._schema.types.get(
                self._xsi_type_key(xsi_type, namespaces)
            )
            if candidate is None or not _derives_from(
                candidate, decl.type_definition
            ):
                raise Restart("validation")
            decl = self._decl(decl.declaration, candidate)
        if decl.skip:
            return decl  # anyType: attributes go unchecked
        if decl.abstract:
            raise Restart("validation")
        uses = decl.attribute_checks
        if uses is None:  # simple type: no attributes at all
            if items:
                raise Restart("validation")
            return decl
        required = decl.required
        # A set of resolved keys: two prefixes bound to one namespace
        # name the same attribute and must not stand in for another.
        seen = set() if required else None
        for _, key, value in items:
            check = uses.get(key)
            if check is None:
                raise Restart("validation")
            fixed, simple_type, memo = check
            if value not in memo:
                if fixed is not None and value != fixed:
                    raise Restart("validation")
                simple_type.parse(value)
                if (
                    len(value) <= MEMO_VALUE_LENGTH
                    and len(memo) < _VALUE_MEMO_LIMIT
                ):
                    memo.add(value)
            if seen is not None:
                seen.add(key)
        if required and not required <= seen:
            raise Restart("validation")
        return decl

    # -- namespace resolution ---------------------------------------------------

    def _event_key(self, event: StartElement, namespaces: _EventNamespaces) -> str:
        """Expanded name the event matches schema components under."""
        return _element_key(event.name, namespaces, self._namespaced)

    def _xsi_type_key(
        self, type_name: str, namespaces: _EventNamespaces
    ) -> str:
        """Resolve the QName *value* of ``xsi:type`` to a type key."""
        if not self._namespaced:
            return type_name.rpartition(":")[2]
        prefix, colon, local = type_name.partition(":")
        if not colon:
            return expanded_name(namespaces.get("") or None, type_name)
        uri = namespaces.get(prefix)
        if uri is None:
            return local
        return expanded_name(uri, local)

    # -- event handlers ----------------------------------------------------------

    def _start(
        self,
        event: StartElement,
        stack: list[_Frame],
        errors: list[ValidationError],
        namespaces: _EventNamespaces,
    ) -> None:
        key = self._event_key(event, namespaces)
        if not stack:
            declaration = self._schema.elements.get(key)
            if declaration is None:
                errors.append(
                    ValidationError(
                        f"root element <{key}> is not a global "
                        "element of the schema",
                        event.location,
                    )
                )
                stack.append(
                    _Frame(None, ANY_TYPE, None, None, f"/{key}", True)
                )
                return
            if declaration.abstract:
                errors.append(
                    ValidationError(
                        f"element '{key}' is abstract",
                        event.location,
                    )
                )
            self._push(
                event, declaration, key, f"/{key}", stack, errors, namespaces
            )
            return
        parent = stack[-1]
        path = f"{parent.path}/{key}"
        if parent.skip:
            stack.append(_Frame(None, ANY_TYPE, None, None, path, True))
            return
        if parent.matcher is None:
            # Parent has empty or simple content: no child allowed.
            errors.append(
                ValidationError(
                    f"<{key}> is not allowed inside "
                    f"<{_name_of(parent)}>",
                    event.location,
                    path=parent.path,
                )
            )
            stack.append(_Frame(None, ANY_TYPE, None, None, path, True))
            return
        matched = parent.matcher.step(key)
        if matched is None:
            expected = ", ".join(
                f"<{key_}>" for key_ in parent.matcher.expected()
            ) or "no further elements"
            errors.append(
                ValidationError(
                    f"<{key}> is not allowed here inside "
                    f"<{_name_of(parent)}>; expected {expected}",
                    event.location,
                    path=parent.path,
                )
            )
            stack.append(_Frame(None, ANY_TYPE, None, None, path, True))
            return
        assert isinstance(matched, ElementDeclaration)
        self._push(event, matched, key, path, stack, errors, namespaces)

    def _push(
        self,
        event: StartElement,
        declaration: ElementDeclaration,
        display: str,
        path: str,
        stack: list[_Frame],
        errors: list[ValidationError],
        namespaces: _EventNamespaces,
    ) -> None:
        type_definition = declaration.resolved_type()
        override = _xsi_type_value(event.attributes, namespaces)
        if override is not None:
            candidate = self._schema.types.get(
                self._xsi_type_key(override, namespaces)
            )
            if candidate is None:
                errors.append(
                    ValidationError(
                        f"xsi:type names unknown type '{override}'",
                        event.location,
                        path=path,
                    )
                )
            elif not _derives_from(candidate, type_definition):
                errors.append(
                    ValidationError(
                        f"xsi:type '{override}' is not derived from the "
                        "declared type",
                        event.location,
                        path=path,
                    )
                )
            else:
                type_definition = candidate
        matcher = None
        content_type = None
        skip = False
        if isinstance(type_definition, ComplexType):
            if type_definition is ANY_TYPE:
                skip = True
            else:
                if type_definition.abstract:
                    errors.append(
                        ValidationError(
                            f"type '{type_definition.name}' of element "
                            f"'{declaration.key}' is abstract",
                            event.location,
                            path=path,
                        )
                    )
                content_type = type_definition.content_type
                if content_type in (
                    ContentType.ELEMENT_ONLY,
                    ContentType.MIXED,
                ):
                    if self._use_tables:
                        matcher = self._schema.content_table(
                            type_definition
                        ).matcher()
                    else:
                        matcher = self._schema.content_dfa(
                            type_definition
                        ).matcher()
                self._check_attributes(
                    event, type_definition, display, path, errors, namespaces
                )
        else:
            if event.attributes and _attribute_items(
                event.attributes, namespaces
            ):
                errors.append(
                    ValidationError(
                        f"element <{display}> of simple type "
                        "may not carry attributes",
                        event.location,
                        path=path,
                    )
                )
        stack.append(
            _Frame(declaration, type_definition, matcher, content_type, path, skip)
        )

    def _characters(
        self,
        event: Characters,
        stack: list[_Frame],
        errors: list[ValidationError],
    ) -> None:
        if not stack:
            return
        frame = stack[-1]
        if frame.skip:
            return
        if (
            frame.content_type in (ContentType.ELEMENT_ONLY, ContentType.EMPTY)
            and event.data.strip()
        ):
            kind = (
                "element-only content"
                if frame.content_type is ContentType.ELEMENT_ONLY
                else "empty content"
            )
            errors.append(
                ValidationError(
                    f"<{_name_of(frame)}> has {kind} but contains text",
                    event.location,
                    path=frame.path,
                )
            )
            return
        frame.text.append(event.data)

    def _end(
        self, stack: list[_Frame], errors: list[ValidationError]
    ) -> None:
        frame = stack.pop()
        if frame.skip:
            return
        if frame.matcher is not None and not frame.matcher.at_accepting_state():
            expected = ", ".join(
                f"<{key}>" for key in frame.matcher.expected()
            )
            errors.append(
                ValidationError(
                    f"content of <{_name_of(frame)}> ends too early; "
                    f"expected {expected}",
                    path=frame.path,
                )
            )
        text = "".join(frame.text)
        type_definition = frame.type_definition
        if isinstance(type_definition, SimpleType):
            self._check_simple(text, type_definition, frame, errors)
        elif (
            isinstance(type_definition, ComplexType)
            and type_definition.content_type is ContentType.SIMPLE
        ):
            assert type_definition.simple_content is not None
            self._check_simple(
                text, type_definition.simple_content, frame, errors
            )
        if (
            frame.declaration is not None
            and frame.declaration.fixed is not None
            and text != frame.declaration.fixed
        ):
            errors.append(
                ValidationError(
                    f"element '{frame.declaration.key}' must have the "
                    f"fixed value {frame.declaration.fixed!r}",
                    path=frame.path,
                )
            )

    def _check_simple(
        self,
        text: str,
        simple_type: SimpleType,
        frame: _Frame,
        errors: list[ValidationError],
    ) -> None:
        try:
            simple_type.parse(text)
        except SimpleTypeError as error:
            errors.append(
                ValidationError(
                    f"content of <{_name_of(frame)}>: {error.message}",
                    path=frame.path,
                )
            )

    def _check_attributes(
        self,
        event: StartElement,
        complex_type: ComplexType,
        display: str,
        path: str,
        errors: list[ValidationError],
        namespaces: _EventNamespaces,
    ) -> None:
        uses = complex_type.effective_attribute_uses()
        seen: set[str] = set()
        for name, key, value in _attribute_items(event.attributes, namespaces):
            seen.add(key)
            label = key if self._namespaced else name
            use = uses.get(key)
            if use is None:
                errors.append(
                    ValidationError(
                        f"attribute '{label}' is not declared on "
                        f"<{display}>",
                        event.location,
                        path=path,
                    )
                )
                continue
            if use.fixed is not None and value != use.fixed:
                errors.append(
                    ValidationError(
                        f"attribute '{label}' must have the fixed value "
                        f"{use.fixed!r}, found {value!r}",
                        event.location,
                        path=path,
                    )
                )
                continue
            try:
                use.declaration.resolved_type().parse(value)
            except SimpleTypeError as error:
                errors.append(
                    ValidationError(
                        f"attribute '{label}' of <{display}>: "
                        f"{error.message}",
                        event.location,
                        path=path,
                    )
                )
        for key, use in uses.items():
            if use.required and key not in seen:
                errors.append(
                    ValidationError(
                        f"required attribute '{key}' missing on "
                        f"<{display}>",
                        event.location,
                        path=path,
                    )
                )


def _element_key(name: str, namespaces, namespaced: bool) -> str:
    """Expanded name an element tag matches schema components under.

    Lexical tag name for namespace-free schemas (the pre-namespace
    behavior, byte for byte) and for undeclared prefixes, where the
    schema's "no such element" diagnostics do the explaining.
    *namespaces* maps in-scope prefixes to namespace names (``""`` is
    the default namespace).
    """
    if not namespaced:
        return name
    prefix, colon, local = name.partition(":")
    if not colon:
        return expanded_name(namespaces.get("") or None, name)
    uri = namespaces.get(prefix)
    if uri is None:
        return name
    return expanded_name(uri, local)


def _attribute_items(attributes, namespaces) -> list[tuple[str, str, str]]:
    """(lexical name, matching key, value) for schema-checked attributes.

    Filters namespace declarations and XSI attributes by *resolved*
    namespace; an undeclared ``xsi:`` prefix keeps its conventional
    meaning, any other undeclared prefix leaves the attribute
    matched (and reported) by its lexical name.
    """
    items: list[tuple[str, str, str]] = []
    for name, value in attributes:
        if name == "xmlns" or name.startswith("xmlns:"):
            continue
        prefix, colon, local = name.partition(":")
        if not colon:
            items.append((name, name, value))
            continue
        uri = namespaces.get(prefix)
        if uri is None:
            if prefix == "xsi":
                continue
            items.append((name, name, value))
            continue
        if uri == XSI_NAMESPACE:
            continue
        items.append((name, expanded_name(uri, local), value))
    return items


def _xsi_type_value(attributes, namespaces) -> str | None:
    """The value of the first ``xsi:type`` attribute, by resolved
    namespace (an undeclared ``xsi:`` prefix keeps its meaning)."""
    for name, value in attributes:
        prefix, colon, local = name.partition(":")
        if not colon or local != "type" or prefix == "xmlns":
            continue
        uri = namespaces.get(prefix)
        if uri == XSI_NAMESPACE or (uri is None and prefix == "xsi"):
            return value
    return None


def _tally(errors: list[ValidationError]) -> list[ValidationError]:
    obs.count("xsd.stream.documents")
    if errors:
        obs.count("xsd.stream.errors", n=len(errors))
    return errors


class _Scope:
    """In-scope ``xmlns`` bindings for the turbo route, with the element
    keys already resolved under them."""

    __slots__ = ("namespaces", "keys")

    def __init__(self, namespaces: dict[str, str]):
        self.namespaces = namespaces
        self.keys: dict[str, str] = {}

    def child(self, attributes) -> "_Scope":
        """The scope inside an element carrying *attributes*."""
        overrides = _xmlns_overrides(attributes)
        if not overrides:
            return self
        return _Scope({**self.namespaces, **overrides})

    def element_key(self, name: str) -> str:
        """``_element_key`` for a namespaced schema, cached per scope."""
        key = _element_key(name, self.namespaces, True)
        if len(name) <= MEMO_VALUE_LENGTH and len(self.keys) < _VALUE_MEMO_LIMIT:
            self.keys[name] = key
        return key


class _Decl:
    """What the turbo route checks for one declaration under one type."""

    __slots__ = (
        "declaration",
        "type_definition",
        "skip",
        "abstract",
        "table",
        "attribute_checks",
        "required",
        "guarded",
        "blank",
        "collect",
        "leaf",
        "fixed",
        "memo",
    )

    def __init__(
        self, schema: Schema, declaration: ElementDeclaration, type_definition
    ):
        self.declaration = declaration
        self.type_definition = type_definition
        self.skip = type_definition is ANY_TYPE
        self.abstract = False
        self.table = None
        #: attribute key -> (fixed, simple type, accepted-value memo);
        #: None for simple types, which admit no attributes
        self.attribute_checks: dict | None = None
        self.required: frozenset[str] = frozenset()
        self.blank = False  # element-only / empty: text must be white space
        self.leaf: SimpleType | None = None
        self.fixed = declaration.fixed
        self.memo: set[str] = set()
        if isinstance(type_definition, SimpleType):
            self.leaf = type_definition
        elif not self.skip:
            self.abstract = type_definition.abstract
            content_type = type_definition.content_type
            if content_type in (ContentType.ELEMENT_ONLY, ContentType.MIXED):
                self.table = schema.content_table(type_definition)
            elif content_type is ContentType.SIMPLE:
                self.leaf = type_definition.simple_content
            self.blank = content_type in (
                ContentType.ELEMENT_ONLY,
                ContentType.EMPTY,
            )
            uses = type_definition.effective_attribute_uses()
            self.attribute_checks = {
                key: (use.fixed, use.declaration.resolved_type(), set())
                for key, use in uses.items()
            }
            self.required = frozenset(
                key for key, use in uses.items() if use.required
            )
        #: start tags without attributes still need _start_checks
        self.guarded = bool(self.required) or self.abstract
        self.collect = not self.skip and (
            self.leaf is not None or self.fixed is not None
        )


def _finish(decl: _Decl, state: int, texts: list[str] | None) -> None:
    """``_end`` for the turbo route: content accepted, leaf value and
    element ``fixed`` value proven."""
    table = decl.table
    if table is not None and not table.accepting[state]:
        raise Restart("validation")
    if texts is None:
        if not decl.collect:
            return
        text = ""
    else:
        text = texts[0] if len(texts) == 1 else "".join(texts)
    leaf = decl.leaf
    if leaf is not None:
        memo = decl.memo
        if text not in memo:
            leaf.parse(text)
            if len(text) <= MEMO_VALUE_LENGTH and len(memo) < _VALUE_MEMO_LIMIT:
                memo.add(text)
    if decl.fixed is not None and text != decl.fixed:
        raise Restart("validation")


def _name_of(frame: _Frame) -> str:
    if frame.declaration is not None:
        return frame.declaration.key
    return frame.path.rsplit("/", 1)[-1]


def _derives_from(candidate, declared) -> bool:
    if declared is ANY_TYPE:
        return True
    if isinstance(candidate, ComplexType) and isinstance(declared, ComplexType):
        return candidate.is_derived_from(declared)
    if isinstance(candidate, SimpleType) and isinstance(declared, SimpleType):
        return candidate.is_derived_from(declared)
    return False


def error_entry(error: Exception) -> dict:
    """JSON shape for one validation/syntax error verdict.

    Shared by the serve tier's ``POST /-/validate`` endpoint and the
    bulk pool's text-validation workers, so a pooled verdict is
    byte-identical to the inline one.
    """
    from repro.errors import XmlSyntaxError

    entry: dict = {
        "message": getattr(error, "message", str(error)),
        "kind": (
            "syntax" if isinstance(error, XmlSyntaxError) else "validation"
        ),
    }
    location = getattr(error, "location", None)
    if location is not None:
        entry["line"] = location.line
        entry["column"] = location.column
    path = getattr(error, "path", None)
    if path:
        entry["path"] = path
    return entry
