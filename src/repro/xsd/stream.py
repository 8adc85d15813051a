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
route* first: the validator is a sink of :func:`repro.xml.turbo.walk`,
the loop the typed turbo build shares, which scans the text with the
turbo grammar and steps the flat :class:`~repro.automata.tables.DfaTable`
arrays directly — no event objects, no locations, one small list per
open element.  It returns ``[]`` only when it has proven the document
well-formed and schema-valid under every check the event walk makes; on
any deviation it gives up and the document is re-run through
``validate_events(PullParser(text))``, the event walk over the object
DFAs' matchers, which stays the only producer of error lists.  Messages,
paths, line/column and syntax-over-validity precedence are therefore
those of the event walk, by construction.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro import obs
from repro.errors import SimpleTypeError, ValidationError
from repro.xml.events import (
    Characters,
    EndElement,
    Event,
    StartElement,
)
from repro.xml.parser import PullParser
from repro.xml.qname import XSI_NAMESPACE
from repro.xml.turbo import MEMO_VALUE_LENGTH, SKIP, Restart, Scope, walk
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


class StreamingValidator:
    """Validate event streams against one schema.

    The event walk (:meth:`validate_events`, and :meth:`validate_text`
    for documents the turbo route does not prove valid) steps the object
    DFAs' matchers; the turbo route steps their flat
    :class:`~repro.automata.tables.DfaTable` twins.  Which route
    :meth:`validate_text` took is counted as
    ``xsd.stream.route{route=turbo}`` or
    ``xsd.stream.route{route=events,reason=...}``, the reason being why
    the turbo walk stopped.
    """

    def __init__(self, schema: Schema):
        self._schema = schema
        self._namespaced = schema.uses_namespaces
        # State shared across documents: the turbo route's
        # per-(declaration, type) checks, and the document-level scope
        # whose element keys both routes cache.
        self._decls: dict = {}
        self._root_scope = Scope()

    # -- entry points ---------------------------------------------------------

    def validate_text(self, text: str) -> list[ValidationError]:
        """Parse and validate in one streaming pass.

        Valid documents inside the turbo subset are proven valid off the
        turbo scanner and the DFA tables; every other document takes the
        event walk, which produces the error list.
        """
        with obs.span("xsd.stream.validate"):
            reason, _ = walk(
                text,
                self._schema.elements,
                self._open,
                self._close,
                self._root_scope,
                self._namespaced,
            )
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
        scopes = [self._root_scope]
        for event in events:
            if isinstance(event, StartElement):
                scope = scopes[-1].child(event.attributes)
                scopes.append(scope)
                self._start(event, stack, errors, scope)
            elif isinstance(event, EndElement):
                self._end(stack, errors)
                scopes.pop()
            elif isinstance(event, Characters):
                self._characters(event, stack, errors)
            # comments / PIs / doctype / declarations are transparent
        return errors

    # -- the turbo route ----------------------------------------------------------

    def _open(
        self, declaration: ElementDeclaration, attributes, scope: Scope
    ) -> list:
        """The turbo route's ``start``: ``_start``/``_push``/
        ``_check_attributes`` for one start tag."""
        decl = self._decls.get(id(declaration))
        if decl is None:
            decl = self._decl(declaration, None)
        if attributes or decl.guarded:
            decl = self._start_checks(decl, attributes, scope)
        return [
            decl.content,
            0,
            [] if decl.collect else None,
            decl.blank,
            scope,
            decl,
        ]

    @staticmethod
    def _close(frame: list, parent) -> None:
        """The turbo route's ``end``, ``_end``'s checks: content accepted,
        leaf value and element ``fixed`` value proven."""
        decl = frame[5]
        table = decl.table
        if table is not None and not table.accepting[frame[1]]:
            raise Restart()
        texts = frame[2]
        if texts is None:
            return
        text = texts[0] if len(texts) == 1 else "".join(texts)
        leaf = decl.leaf
        if leaf is not None:
            memo = decl.memo
            if text not in memo:
                leaf.parse(text)
                if len(text) <= MEMO_VALUE_LENGTH and len(memo) < _VALUE_MEMO_LIMIT:
                    memo.add(text)
        if decl.fixed is not None and text != decl.fixed:
            raise Restart()

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

    def _start_checks(self, decl: "_Decl", attributes, scope: Scope) -> "_Decl":
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
                raise Restart()
            decl = self._decl(decl.declaration, candidate)
        if decl.skip:
            return decl  # anyType: attributes go unchecked
        if decl.abstract:
            raise Restart()
        uses = decl.attribute_checks
        if uses is None:  # simple type: no attributes at all
            if items:
                raise Restart()
            return decl
        required = decl.required
        # A set of resolved keys: two prefixes bound to one namespace
        # name the same attribute and must not stand in for another.
        seen = set() if required else None
        for _, key, value in items:
            check = uses.get(key)
            if check is None:
                raise Restart()
            fixed, simple_type, memo = check
            if value not in memo:
                if fixed is not None and value != fixed:
                    raise Restart()
                simple_type.parse(value)
                if (
                    len(value) <= MEMO_VALUE_LENGTH
                    and len(memo) < _VALUE_MEMO_LIMIT
                ):
                    memo.add(value)
            if seen is not None:
                seen.add(key)
        if required and not required <= seen:
            raise Restart()
        return decl

    # -- namespace resolution ---------------------------------------------------

    def _xsi_type_key(self, type_name: str, namespaces: dict[str, str]) -> str:
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
        scope: Scope,
    ) -> None:
        key = scope.element_key(event.name) if self._namespaced else event.name
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
            self._push(event, declaration, key, f"/{key}", stack, errors, scope)
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
        self._push(event, matched, key, path, stack, errors, scope)

    def _push(
        self,
        event: StartElement,
        declaration: ElementDeclaration,
        display: str,
        path: str,
        stack: list[_Frame],
        errors: list[ValidationError],
        scope: Scope,
    ) -> None:
        namespaces = scope.namespaces
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
                    matcher = self._schema.content_dfa(type_definition).matcher()
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
        namespaces: dict[str, str],
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


class _Decl:
    """What the turbo route checks for one declaration under one type."""

    __slots__ = (
        "declaration",
        "type_definition",
        "skip",
        "abstract",
        "table",
        "content",
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
        #: what the walk steps child elements through
        self.content = SKIP if self.skip else self.table
        #: start tags without attributes still need _start_checks
        self.guarded = bool(self.required) or self.abstract
        self.collect = not self.skip and (
            self.leaf is not None or self.fixed is not None
        )


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
