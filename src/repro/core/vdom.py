"""The V-DOM runtime: schema-generated typed classes over the DOM.

For every element interface of the model, :func:`bind` materializes a
Python class extending :class:`repro.dom.Element` — the literal Python
rendering of the paper's "each interface extends the Element-interface of
the Document Object Model".  Choice groups become abstract marker
classes; substitution-group members subclass their head's class.

The paper's compile-time guarantee is re-hosted at the two moments a
dynamic language has (see DESIGN.md):

* **construction**: a typed constructor accepts children and attribute
  values, fills fixed/defaulted attributes, and verifies the result
  against the content-model DFA — an invalid element never exists;
* **mutation**: ``append_child``/``add``/``set_attribute`` & friends
  re-verify and roll back on failure, so the invariant "every live
  V-DOM tree is valid" survives edits (the property that lets the
  serializer skip validation entirely).

The occurrence-count caveat of the paper's rule 5 ("the resulting
interface does not allow to check statically whether the number of
elements matches") is where the DFA check does the runtime work.
"""

from __future__ import annotations

import datetime
import decimal
import functools
import keyword
import re
from typing import Any

from repro.errors import (
    SimpleTypeError,
    UnsupportedFeatureError,
    VdomStateError,
    VdomTypeError,
)
from repro.dom.charnodes import Text
from repro.dom.document import Document
from repro.dom.element import Element
from repro.dom.node import Node
from repro.xsd.components import (
    ANY_TYPE,
    ComplexType,
    ContentType,
    ElementDeclaration,
    Schema,
)
from repro.xsd.schema_parser import parse_schema
from repro.xsd.simple import SimpleType
from repro.core.naming import NamingScheme
from repro.core.normalize import normalize
from repro.core.generate import ChoiceStrategy, generate_interfaces
from repro.core.model import (
    Field,
    FieldKind,
    Interface,
    InterfaceKind,
    InterfaceModel,
)


@functools.lru_cache(maxsize=4096)
def snake_case(name: str) -> str:
    """``purchaseOrder`` → ``purchase_order``; ``USPrice`` → ``us_price``."""
    step1 = re.sub(r"(.)([A-Z][a-z]+)", r"\1_\2", name)
    step2 = re.sub(r"([a-z0-9])([A-Z])", r"\1_\2", step1)
    result = step2.replace("-", "_").replace(".", "_").lower()
    if keyword.iskeyword(result) or not result.isidentifier():
        result += "_"
    return result


@functools.lru_cache(maxsize=4096)
def class_case(name: str) -> str:
    """``purchaseOrderElement`` → ``PurchaseOrderElement``."""
    cleaned = re.sub(r"[^0-9a-zA-Z]+", " ", name)
    return "".join(word[:1].upper() + word[1:] for word in cleaned.split())


def lexicalize(value: Any) -> str:
    """Turn a Python value into its XML literal form."""
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float, decimal.Decimal)):
        return str(value)
    if isinstance(value, (datetime.date, datetime.datetime, datetime.time)):
        return value.isoformat()
    raise VdomTypeError(
        f"cannot render a {type(value).__name__} value as XML text"
    )


def leaf_content_error(tag: str, type_definition: Any) -> VdomTypeError:
    """The typed constructor's rejection of content under <*tag*>, whose
    type admits no child elements (a simple type, or empty or simple
    content)."""
    if isinstance(type_definition, SimpleType):
        return VdomTypeError(
            f"<{tag}> has a simple type and may not contain child elements"
        )
    if type_definition.content_type is ContentType.EMPTY:
        return VdomTypeError(f"<{tag}> must be empty")
    return VdomTypeError(
        f"<{tag}> has simple content and may not contain child elements"
    )


class VdomGroup:
    """Base of all choice-group marker classes."""


class TypedElement(Element):
    """Base of every generated element class.

    Subclasses carry class-level metadata installed by :func:`bind`:
    ``_DECLARATION`` (the schema element declaration), ``_TYPE`` (its
    resolved type), ``_BINDING`` (the owning :class:`Binding`).
    """

    _DECLARATION: ElementDeclaration
    _TYPE: Any
    _BINDING: "Binding"
    _ATTRIBUTE_FIELDS: dict[str, Field]  # python name -> field

    #: incremental-append cache: (element-child count, total node count,
    #: DFA state) as of the last successful full content check; cleared
    #: by any other mutation.  Makes ``parent.add(child)`` loops O(n)
    #: instead of O(n²) without weakening the invariant.
    _content_state: tuple[int, int, int] | None = None

    def __init__(self, *children: Any, **attribute_values: Any):
        declaration = type(self)._DECLARATION
        if declaration.abstract:
            raise VdomTypeError(
                f"element '{declaration.name}' is abstract; construct a "
                "member of its substitution group instead"
            )
        type_definition = type(self)._TYPE
        if isinstance(type_definition, ComplexType) and type_definition.abstract:
            raise VdomTypeError(
                f"type '{type_definition.name}' of element "
                f"'{declaration.name}' is abstract"
            )
        super().__init__(declaration.name, None)
        for child in children:
            self._append_value(child)
        self._apply_attribute_defaults()
        for python_name, value in attribute_values.items():
            field = self._attribute_field(python_name)
            self._set_typed_attribute(field, value)
        self._check()

    # -- constructor helpers ------------------------------------------------

    def _append_value(self, child: Any) -> None:
        if child is None:
            return
        if isinstance(child, TypedElement):
            Element.append_child(self, child)
            return
        if isinstance(child, Element):
            raise VdomTypeError(
                f"<{self.tag_name}> only accepts typed children; got the "
                f"untyped DOM element <{child.tag_name}>"
            )
        if isinstance(child, (list, tuple)):
            for item in child:
                self._append_value(item)
            return
        literal = self._lexicalize(child)
        Element.append_child(self, Text(literal, None))

    def _lexicalize(self, value: Any) -> str:
        """Turn a Python value into its XML literal."""
        try:
            return lexicalize(value)
        except VdomTypeError:
            raise VdomTypeError(
                f"cannot use a {type(value).__name__} value as content of "
                f"<{self.tag_name}>"
            )

    def _apply_attribute_defaults(self) -> None:
        for field in type(self)._ATTRIBUTE_FIELDS.values():
            if field.fixed is not None:
                Element.set_attribute(self, field.xml_name or field.name, field.fixed)
            elif field.default is not None:
                Element.set_attribute(
                    self, field.xml_name or field.name, field.default
                )

    def _attribute_field(self, python_name: str) -> Field:
        fields = type(self)._ATTRIBUTE_FIELDS
        if python_name in fields:
            return fields[python_name]
        # Also accept the literal XML attribute name.
        for field in fields.values():
            if field.xml_name == python_name or field.name == python_name:
                return field
        raise VdomTypeError(
            f"<{self.tag_name}> has no attribute '{python_name}' "
            f"(known: {', '.join(sorted(fields)) or 'none'})"
        )

    def _set_typed_attribute(self, field: Field, value: Any) -> None:
        if value is None:
            Element.remove_attribute(self, field.xml_name or field.name)
            return
        literal = value if isinstance(value, str) else self._lexicalize(value)
        Element.set_attribute(self, field.xml_name or field.name, literal)

    # -- validation -----------------------------------------------------------

    def _check(self) -> None:
        if type(self)._BINDING.validate_on_mutate:
            self.check_valid()

    def check_valid(self) -> None:
        """Verify this element (shallow: children assumed valid)."""
        declaration = type(self)._DECLARATION
        type_definition = type(self)._TYPE
        if isinstance(type_definition, SimpleType):
            self._check_simple(type_definition)
        elif type_definition is not ANY_TYPE:
            self._check_complex(type_definition)
        if declaration.fixed is not None and self.text_content != declaration.fixed:
            raise VdomTypeError(
                f"element '{declaration.name}' must have the fixed value "
                f"{declaration.fixed!r}"
            )

    def check_valid_deep(self) -> None:
        """Verify this element and every typed descendant."""
        self.check_valid()
        for node in self.iter_descendants():
            if isinstance(node, TypedElement):
                node.check_valid()

    def _check_simple(self, simple_type: SimpleType) -> None:
        if self.child_elements():
            raise leaf_content_error(self.tag_name, simple_type)
        if len(self.attributes):
            raise VdomTypeError(
                f"<{self.tag_name}> has a simple type and may not carry "
                "attributes"
            )
        try:
            simple_type.parse(self.text_content)
        except SimpleTypeError as error:
            raise VdomTypeError(
                f"content of <{self.tag_name}>: {error.message}"
            )

    def _check_complex(self, complex_type: ComplexType) -> None:
        self._check_attributes(complex_type)
        content_type = complex_type.content_type
        children = self.child_elements()
        has_text = any(
            isinstance(node, Text) and node.data.strip()
            for node in self.iter_children()
        )
        if content_type is ContentType.EMPTY:
            if children or has_text:
                raise leaf_content_error(self.tag_name, complex_type)
            return
        if content_type is ContentType.SIMPLE:
            if children:
                raise leaf_content_error(self.tag_name, complex_type)
            assert complex_type.simple_content is not None
            try:
                complex_type.simple_content.parse(self.text_content)
            except SimpleTypeError as error:
                raise VdomTypeError(
                    f"content of <{self.tag_name}>: {error.message}"
                )
            return
        if content_type is ContentType.ELEMENT_ONLY and has_text:
            raise VdomTypeError(
                f"<{self.tag_name}> has element-only content and may not "
                "contain text"
            )
        schema = type(self)._BINDING.schema
        matcher = schema.content_dfa(complex_type).matcher()
        for index, child in enumerate(children):
            matched = matcher.step(child.tag_name)
            if matched is None:
                expected = ", ".join(
                    f"<{key}>" for key in matcher.expected()
                ) or "no further children"
                raise VdomTypeError(
                    f"child {index + 1} of <{self.tag_name}> is "
                    f"<{child.tag_name}>; expected {expected}"
                )
            if not isinstance(child, TypedElement):
                raise VdomTypeError(
                    f"child <{child.tag_name}> of <{self.tag_name}> is not "
                    "a typed element"
                )
            assert isinstance(matched, ElementDeclaration)
            expected_class = type(self)._BINDING.class_by_declaration.get(
                id(matched)
            )
            if expected_class is None or not isinstance(child, expected_class):
                raise VdomTypeError(
                    f"child <{child.tag_name}> of <{self.tag_name}> was "
                    "built for a different declaration of that name"
                )
        if not matcher.at_accepting_state():
            expected = ", ".join(f"<{key}>" for key in matcher.expected())
            raise VdomTypeError(
                f"content of <{self.tag_name}> is incomplete; expected "
                f"{expected}"
            )
        self._content_state = (
            len(children),
            len(self._children),
            matcher.state,
        )

    def _check_attributes(self, complex_type: ComplexType) -> None:
        uses = complex_type.effective_attribute_uses()
        for name, value in self.attributes.items():
            use = uses.get(name)
            if use is None:
                raise VdomTypeError(
                    f"attribute '{name}' is not declared on <{self.tag_name}>"
                )
            if use.fixed is not None and value != use.fixed:
                raise VdomTypeError(
                    f"attribute '{name}' of <{self.tag_name}> must have the "
                    f"fixed value {use.fixed!r}"
                )
            try:
                use.declaration.resolved_type().parse(value)
            except SimpleTypeError as error:
                raise VdomTypeError(
                    f"attribute '{name}' of <{self.tag_name}>: {error.message}"
                )
        for name, use in uses.items():
            if use.required and not self.has_attribute(name):
                raise VdomTypeError(
                    f"required attribute '{name}' missing on <{self.tag_name}>"
                )

    # -- guarded mutation ---------------------------------------------------------

    def _insert(self, node: Node, index: int) -> None:
        """Re-parenting a typed node steals it from its old parent; make
        sure that theft cannot invalidate the *source* tree."""
        if isinstance(node, TypedElement):
            self._release_from_old_parent(node)
        Element._insert(self, node, index)

    def _release_from_old_parent(self, child: "TypedElement") -> None:
        old_parent = child.parent_node
        if not isinstance(old_parent, TypedElement) or old_parent is self:
            return
        position = old_parent._children.index(child)
        old_parent._children.remove(child)
        child._parent = None
        try:
            if type(old_parent)._BINDING.validate_on_mutate:
                old_parent.check_valid()
        except VdomTypeError:
            old_parent._children.insert(position, child)
            child._parent = old_parent
            raise VdomTypeError(
                f"moving <{child.tag_name}> out of <{old_parent.tag_name}> "
                "would invalidate it; replace it there explicitly first"
            )

    def _try_fast_append(self, node: Any) -> bool:
        """Append *node* with an incremental content check when safe.

        Resumes the DFA from the state cached by the last full check,
        steps it once, and requires the result to be accepting — the
        same verdict a full re-check would reach, in O(1).
        Returns False when the fast path does not apply (the caller
        falls back to the guarded full check).
        """
        if not isinstance(node, TypedElement):
            return False
        binding = type(self)._BINDING
        if not binding.validate_on_mutate:
            return False
        declaration = type(self)._DECLARATION
        if declaration.fixed is not None:
            return False
        type_definition = type(self)._TYPE
        if not isinstance(type_definition, ComplexType):
            return False
        if type_definition.content_type not in (
            ContentType.ELEMENT_ONLY,
            ContentType.MIXED,
        ):
            return False
        cache = self._content_state
        if cache is None or cache[1] != len(self._children):
            return False
        dfa = binding.schema.content_dfa(type_definition)
        matcher = dfa.matcher()
        matcher.state = cache[2]
        matched = matcher.step(node.tag_name)
        if matched is None:
            expected = ", ".join(
                f"<{key}>" for key in matcher.expected()
            ) or "no further children"
            raise VdomTypeError(
                f"child {cache[0] + 1} of <{self.tag_name}> is "
                f"<{node.tag_name}>; expected {expected}"
            )
        if not matcher.at_accepting_state():
            expected = ", ".join(f"<{key}>" for key in matcher.expected())
            raise VdomTypeError(
                f"content of <{self.tag_name}> would become incomplete; "
                f"expected {expected}"
            )
        assert isinstance(matched, ElementDeclaration)
        expected_class = binding.class_by_declaration.get(id(matched))
        if expected_class is None or not isinstance(node, expected_class):
            raise VdomTypeError(
                f"child <{node.tag_name}> of <{self.tag_name}> was built "
                "for a different declaration of that name"
            )
        Element.append_child(self, node)
        self._content_state = (
            cache[0] + 1,
            len(self._children),
            matcher.state,
        )
        return True

    def _guarded(self, action):
        """Run a mutation, re-validate, roll back on failure."""
        self._content_state = None  # any slow-path mutation invalidates
        children_snapshot = list(self._children)
        parents_snapshot = [child._parent for child in children_snapshot]
        attrs_snapshot = dict(self.attributes._attrs)
        values_snapshot = {
            name: attr.value for name, attr in attrs_snapshot.items()
        }
        try:
            result = action()
            self._check()
            return result
        except VdomTypeError:
            self._children[:] = children_snapshot
            for child, parent in zip(children_snapshot, parents_snapshot):
                child._parent = parent
            self.attributes._attrs.clear()
            self.attributes._attrs.update(attrs_snapshot)
            for name, attr in attrs_snapshot.items():
                attr.value = values_snapshot[name]
            raise

    def append_child(self, node: Node) -> Node:
        if self._try_fast_append(node):
            return node
        return self._guarded(lambda: Element.append_child(self, node))

    def insert_before(self, node: Node, reference: Node | None) -> Node:
        return self._guarded(lambda: Element.insert_before(self, node, reference))

    def remove_child(self, node: Node) -> Node:
        return self._guarded(lambda: Element.remove_child(self, node))

    def replace_child(self, new: Node, old: Node) -> Node:
        return self._guarded(lambda: Element.replace_child(self, new, old))

    def set_attribute(self, name: str, value: str) -> None:
        self._guarded(lambda: Element.set_attribute(self, name, value))

    def remove_attribute(self, name: str) -> None:
        self._guarded(lambda: Element.remove_attribute(self, name))

    def add(self, child: Any) -> "TypedElement":
        """Typed append (the paper's ``s.add(o)``); returns self."""
        if isinstance(child, TypedElement) and self._try_fast_append(child):
            return self
        self._guarded(lambda: self._append_value(child))
        return self

    # -- generic typed access --------------------------------------------------------

    def _child_by_names(self, names: frozenset[str]) -> TypedElement | None:
        for child in self.child_elements():
            if child.tag_name in names and isinstance(child, TypedElement):
                return child
        return None

    def _children_by_names(self, names: frozenset[str]) -> list[TypedElement]:
        return [
            child
            for child in self.child_elements()
            if child.tag_name in names and isinstance(child, TypedElement)
        ]

    @property
    def content(self) -> str:
        """Text content of simple/mixed elements (paper: ``content``)."""
        return self.text_content

    @property
    def value(self) -> Any:
        """Parsed (typed) value for simple-typed elements."""
        type_definition = type(self)._TYPE
        if isinstance(type_definition, SimpleType):
            return type_definition.parse(self.text_content)
        if (
            isinstance(type_definition, ComplexType)
            and type_definition.simple_content is not None
        ):
            return type_definition.simple_content.parse(self.text_content)
        raise VdomStateError(
            f"<{self.tag_name}> has complex content; use its typed "
            "properties instead of .value"
        )


class Factory:
    """``create_*`` constructors, one per element class (Fig. 11 style)."""

    def __init__(self, binding: "Binding"):
        self._binding = binding

    def __repr__(self) -> str:
        return f"Factory({sorted(self._binding.factory_names())!r})"


class Binding:
    """Everything generated for one schema."""

    #: content fingerprint of the schema source this binding came from,
    #: stamped by :meth:`repro.cache.ReproCache.bind`; downstream caches
    #: (P-XML templates) chain their keys off it.  ``None`` when the
    #: binding was built without a cache.
    cache_fingerprint: str | None = None

    def __init__(
        self,
        schema: Schema,
        model: InterfaceModel,
        validate_on_mutate: bool = True,
    ):
        self.schema = schema
        self.model = model
        self.validate_on_mutate = validate_on_mutate
        self.classes: dict[str, type] = {}  # interface key -> class
        self.class_names: dict[str, str] = {}  # interface key -> python name
        self._global_elements: dict[str, type] = {}
        self._factory_methods: dict[str, type] = {}
        #: element name -> every class generated for a declaration of
        #: that name (usually one; more when local declarations collide)
        self.declarations_by_name: dict[str, list[type]] = {}
        #: id(ElementDeclaration) -> generated class
        self.class_by_declaration: dict[int, type] = {}
        #: generated class -> its factory method name
        self.factory_method_by_class: dict[type, str] = {}
        self._build()
        self.factory = self._make_factory()

    # -- construction -----------------------------------------------------------

    def _build(self) -> None:
        taken: set[str] = set()
        # Group marker classes first (element classes inherit from them).
        for interface in self.model.by_kind(InterfaceKind.GROUP):
            name = self._allocate_name(interface, taken)
            cls = type(name, (VdomGroup,), {"__doc__": interface.doc})
            self.classes[interface.key] = cls
            self.class_names[interface.key] = name
        # Element classes in dependency order (substitution heads first).
        pending = [
            interface
            for interface in self.model.by_kind(InterfaceKind.ELEMENT)
        ]
        progress = True
        while pending and progress:
            progress = False
            remaining: list[Interface] = []
            for interface in pending:
                if all(
                    base_key in self.classes
                    or self.model[base_key].kind is not InterfaceKind.ELEMENT
                    for base_key in interface.extends
                ):
                    self._build_element_class(interface, taken)
                    progress = True
                else:
                    remaining.append(interface)
            pending = remaining
        if pending:  # pragma: no cover - cycles are rejected at parse time
            raise VdomTypeError(
                f"circular element inheritance through "
                f"{pending[0].name}"
            )

    def _allocate_name(self, interface: Interface, taken: set[str]) -> str:
        candidate = class_case(interface.name)
        if candidate in taken:
            candidate = class_case(interface.key)
        counter = 2
        base = candidate
        while candidate in taken:
            candidate = f"{base}{counter}"
            counter += 1
        taken.add(candidate)
        return candidate

    def _build_element_class(self, interface: Interface, taken: set[str]) -> None:
        assert interface.declaration is not None
        bases: list[type] = []
        for base_key in interface.extends:
            base_interface = self.model[base_key]
            if base_interface.kind is InterfaceKind.ELEMENT:
                bases.append(self.classes[base_key])
        if not any(issubclass(base, TypedElement) for base in bases):
            bases.append(TypedElement)
        for base_key in interface.extends:
            base_interface = self.model[base_key]
            if base_interface.kind is InterfaceKind.GROUP:
                bases.append(self.classes[base_key])
        name = self._allocate_name(interface, taken)
        tag = interface.declaration.name
        namespace: dict[str, Any] = {
            "__doc__": interface.doc,
            "_DECLARATION": interface.declaration,
            "_TYPE": interface.type_definition,
            "_BINDING": self,
            "_ATTRIBUTE_FIELDS": {},
            # Start/end tag text precomputed at bind time: the schema
            # guarantees the name, so serialization never re-runs is_name().
            "_TAG_PARTS": ("<" + tag, "</" + tag + ">"),
        }
        self._install_properties(interface, namespace)
        cls = type(name, tuple(bases), namespace)
        self.classes[interface.key] = cls
        self.class_names[interface.key] = name
        if interface.nested_in is None and interface.declaration.is_global:
            self._global_elements[interface.declaration.name] = cls
        self.declarations_by_name.setdefault(
            interface.declaration.name, []
        ).append(cls)
        self.class_by_declaration[id(interface.declaration)] = cls
        for extra in interface.extra_declarations:
            self.class_by_declaration[id(extra)] = cls
        self._register_factory_method(interface, cls)

    def _install_properties(
        self, interface: Interface, namespace: dict[str, Any]
    ) -> None:
        """Typed properties from the *type* interface's fields."""
        content_field = next(
            (f for f in interface.fields if f.kind is FieldKind.CONTENT), None
        )
        if content_field is None or content_field.target_key is None:
            return
        target = self.model[content_field.target_key]
        if target.kind is not InterfaceKind.TYPE:
            return
        fields = self._effective_fields(target)
        attribute_fields: dict[str, Field] = {}
        for field in fields:
            python_name = snake_case(field.name)
            if field.kind is FieldKind.ATTRIBUTE:
                attribute_fields[python_name] = field
                namespace[python_name] = self._attribute_property(field)
            elif field.kind in (FieldKind.CHILD, FieldKind.CONTENT):
                namespace[python_name] = self._child_property(field)
            elif field.kind is FieldKind.LIST:
                namespace[python_name] = self._list_property(field)
            elif field.kind in (FieldKind.CHOICE, FieldKind.GROUP):
                namespace[python_name] = self._choice_property(field)
        namespace["_ATTRIBUTE_FIELDS"] = attribute_fields

    def _effective_fields(self, type_interface: Interface) -> list[Field]:
        fields: list[Field] = []
        for base_key in type_interface.extends:
            base = self.model[base_key]
            if base.kind is InterfaceKind.TYPE:
                fields.extend(self._effective_fields(base))
        fields.extend(type_interface.fields)
        return fields

    def _names_for_field(self, field: Field) -> frozenset[str]:
        """The element names a child field can match in the tree.

        Memoized on the field itself: the result depends only on the
        schema + model the field belongs to, so cached artifacts carry
        it and warm starts skip the substitution-group scans.
        """
        if field.resolved_names is None:
            field.resolved_names = self._compute_names_for_field(field)
        return field.resolved_names

    def _compute_names_for_field(self, field: Field) -> frozenset[str]:
        if field.target_key is None:
            return frozenset({field.xml_name or field.name})
        target = self.model[field.target_key]
        if target.kind is InterfaceKind.ELEMENT:
            assert target.declaration is not None
            names = {
                alt.name
                for alt in self.schema.substitution_alternatives(
                    target.declaration
                )
            }
            names.add(target.declaration.name)
            return frozenset(names)
        if target.kind is InterfaceKind.GROUP:
            names: set[str] = set()
            for nested in self.model.nested_interfaces(target.key):
                if nested.declaration is not None:
                    names.add(nested.declaration.name)
            # Global alternatives extend the group without nesting.
            for interface in self.model.by_kind(InterfaceKind.ELEMENT):
                if target.key in interface.extends and interface.declaration:
                    for alt in self.schema.substitution_alternatives(
                        interface.declaration
                    ):
                        names.add(alt.name)
                    names.add(interface.declaration.name)
            return frozenset(names)
        return frozenset({field.xml_name or field.name})

    def _attribute_property(self, field: Field):
        xml_name = field.xml_name or field.name
        simple_type = (
            field.simple_type
            if isinstance(field.simple_type, SimpleType)
            else None
        )

        def getter(element: TypedElement) -> Any:
            if not element.has_attribute(xml_name):
                return None
            literal = element.get_attribute(xml_name)
            return simple_type.parse(literal) if simple_type else literal

        def setter(element: TypedElement, value: Any) -> None:
            if value is None:
                element.remove_attribute(xml_name)
                return
            literal = (
                value if isinstance(value, str) else element._lexicalize(value)
            )
            element.set_attribute(xml_name, literal)

        return property(getter, setter, doc=f"attribute '{xml_name}'")

    def _child_property(self, field: Field):
        names = self._names_for_field(field)

        def getter(element: TypedElement) -> TypedElement | None:
            return element._child_by_names(names)

        def setter(element: TypedElement, value: TypedElement | None) -> None:
            current = element._child_by_names(names)
            if value is None:
                if current is not None:
                    element.remove_child(current)
                return
            if current is not None:
                element.replace_child(value, current)
            else:
                element.append_child(value)

        return property(getter, setter, doc=f"child element '{field.name}'")

    def _list_property(self, field: Field):
        names = self._names_for_field(field)

        def getter(element: TypedElement) -> list[TypedElement]:
            return element._children_by_names(names)

        return property(getter, doc=f"repeated children '{field.name}'")

    def _choice_property(self, field: Field):
        names = self._names_for_field(field)

        def getter(element: TypedElement) -> TypedElement | None:
            return element._child_by_names(names)

        def setter(element: TypedElement, value: TypedElement) -> None:
            current = element._child_by_names(names)
            if current is not None:
                element.replace_child(value, current)
            else:
                element.append_child(value)

        return property(getter, setter, doc=f"choice slot '{field.name}'")

    # -- factory -----------------------------------------------------------------

    def _register_factory_method(self, interface: Interface, cls: type) -> None:
        assert interface.declaration is not None
        method = f"create_{snake_case(interface.declaration.name)}"
        if method in self._factory_methods:
            owner = interface.nested_in or ""
            method = f"create_{snake_case(class_case(owner))}_" + snake_case(
                interface.declaration.name
            )
        self._factory_methods[method] = cls
        self.factory_method_by_class[cls] = method

    def _make_factory(self) -> Factory:
        factory = Factory(self)
        for method_name, cls in self._factory_methods.items():
            def make(cls=cls):
                def create(self_factory, *children, **attributes):
                    return cls(*children, **attributes)
                return create
            setattr(
                Factory, "_noop", None
            )  # keep Factory pickle-friendly; methods go on the instance
            bound = make().__get__(factory, Factory)
            object.__setattr__(factory, method_name, bound)
        return factory

    def factory_names(self) -> list[str]:
        return sorted(self._factory_methods)

    # -- public lookups -------------------------------------------------------------

    def element_class(self, element_name: str) -> type:
        """Class of a *global* element declaration."""
        try:
            return self._global_elements[element_name]
        except KeyError:
            raise VdomStateError(
                f"no generated class for global element '{element_name}'"
            )

    def class_for(self, interface_key: str) -> type:
        try:
            return self.classes[interface_key]
        except KeyError:
            raise VdomStateError(f"no generated class for '{interface_key}'")

    def class_named(self, python_name: str) -> type:
        for key, name in self.class_names.items():
            if name == python_name:
                return self.classes[key]
        raise VdomStateError(f"no generated class named '{python_name}'")

    def from_dom(self, element: Element) -> TypedElement:
        """Unmarshal a generic DOM element into the typed model.

        Children are attributed to declarations with the same content
        DFAs the validator uses, then typed objects are constructed
        bottom-up — so the result exists only if the input is valid:
        unmarshalling *is* validation, one of the paper's selling points
        for typed bindings.
        """
        self._require_no_namespaces("from_dom")
        declaration = self.schema.elements.get(element.tag_name)
        if declaration is None:
            raise VdomTypeError(
                f"<{element.tag_name}> is not a global element of the schema"
            )
        return self._from_dom(element, declaration)

    def _require_no_namespaces(self, operation: str) -> None:
        # The typed layer matches by local tag name; namespaced schemas
        # validate through the streaming lanes instead.
        if self.schema.uses_namespaces:
            raise UnsupportedFeatureError(
                f"{operation} is not available for schemas with a target "
                "namespace; use the streaming or DOM validators instead"
            )

    def _from_dom(
        self, element: Element, declaration: ElementDeclaration
    ) -> TypedElement:
        cls = self.class_by_declaration.get(id(declaration))
        if cls is None:
            raise VdomTypeError(
                f"no generated class for declaration '{declaration.name}'"
            )
        attributes = {
            name: value
            for name, value in element.attributes.items()
            if not name.startswith("xmlns")
        }
        type_definition = declaration.resolved_type()
        children: list[Any] = []
        if isinstance(type_definition, ComplexType) and (
            type_definition.content_type
            in (ContentType.ELEMENT_ONLY, ContentType.MIXED)
        ):
            matcher = self.schema.content_dfa(type_definition).matcher()
            for node in element.iter_children():
                if isinstance(node, Element):
                    matched = matcher.step(node.tag_name)
                    if matched is None:
                        raise VdomTypeError(
                            f"<{node.tag_name}> is not allowed inside "
                            f"<{element.tag_name}>"
                        )
                    assert isinstance(matched, ElementDeclaration)
                    children.append(self._from_dom(node, matched))
                elif isinstance(node, Text) and node.data.strip():
                    children.append(node.data)
        else:
            if element.child_elements():
                raise leaf_content_error(element.tag_name, type_definition)
            text = element.text_content
            if text:
                children.append(text)
        return cls(*children, **attributes)

    def idl(self) -> str:
        """The generated interfaces in the paper's IDL notation."""
        from repro.core.idl import render_idl

        return render_idl(self.model)

    def document(self, root: TypedElement) -> Document:
        """Wrap a typed root element in a document."""
        declaration = type(root)._DECLARATION
        if declaration.key not in self.schema.elements:
            raise VdomTypeError(
                f"<{root.tag_name}> is not a global element and cannot be "
                "a document root"
            )
        document = Document()
        document.append_child(root)
        return document

    def __repr__(self) -> str:
        return (
            f"Binding({len(self._global_elements)} global elements, "
            f"{len(self.classes)} classes)"
        )


def bind(
    schema_or_text: Schema | str,
    naming: NamingScheme | None = None,
    choice_strategy: ChoiceStrategy = ChoiceStrategy.INHERITANCE,
    validate_on_mutate: bool = True,
    cache: Any = None,
    location: str | None = None,
) -> Binding:
    """Generate a live binding for a schema (text or parsed).

    This is the whole Fig. 9 front half in one call: parse → normalize →
    generate interfaces → materialize classes.  With a
    :class:`repro.cache.ReproCache` (schema text only), the prepared
    schema and interface model are reused across calls and processes.
    *location* is where schema text came from, the base that relative
    ``xsd:include``/``xsd:import`` locations resolve against.
    """
    if cache is not None and isinstance(schema_or_text, str):
        return cache.bind(
            schema_or_text,
            naming=naming,
            choice_strategy=choice_strategy,
            validate_on_mutate=validate_on_mutate,
            location=location,
        )
    if isinstance(schema_or_text, str):
        schema = parse_schema(schema_or_text, location=location)
    else:
        schema = schema_or_text
    normalize(schema, naming)
    model = generate_interfaces(schema, choice_strategy)
    return Binding(schema, model, validate_on_mutate=validate_on_mutate)
