"""Schema components: elements, particles, model groups, complex types.

The component model follows XML Schema Part 1 structures, trimmed to the
feature set the paper handles (no wildcards, no identity constraints;
``all`` groups treated like sequences, as the paper states in Sect. 3).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Union

from repro.errors import SchemaError
from repro.automata import (
    Alternation,
    Dfa,
    DfaTable,
    Epsilon,
    Regex,
    Repetition,
    Sequence,
    Symbol,
    build_dfa,
)
from repro.automata.rex import UNBOUNDED
from repro.xml.qname import expanded_name
from repro.xsd.simple import SimpleType

TypeDefinition = Union[SimpleType, "ComplexType"]


class Compositor(enum.Enum):
    """Model-group compositors."""

    SEQUENCE = "sequence"
    CHOICE = "choice"
    ALL = "all"


class ContentType(enum.Enum):
    """Complex-type content categories."""

    EMPTY = "empty"
    SIMPLE = "simple"
    ELEMENT_ONLY = "element-only"
    MIXED = "mixed"


class DerivationMethod(enum.Enum):
    """How a complex type is derived from its base."""

    NONE = "none"
    EXTENSION = "extension"
    RESTRICTION = "restriction"


@dataclass
class ElementDeclaration:
    """``<xsd:element>`` — global or local.

    ``type_definition`` is filled in during schema resolution; until then
    ``type_name`` carries the (possibly prefixed) reference.
    """

    name: str
    type_name: str | None = None
    type_definition: TypeDefinition | None = None
    is_global: bool = False
    abstract: bool = False
    substitution_group: str | None = None
    default: str | None = None
    fixed: str | None = None
    #: the namespace instance elements must use to match this
    #: declaration: the schema document's ``targetNamespace`` for global
    #: declarations, and for local ones only when ``form`` /
    #: ``elementFormDefault`` says *qualified*
    target_namespace: str | None = None

    @property
    def key(self) -> str:
        """The expanded name content models and lookups match on."""
        return expanded_name(self.target_namespace, self.name)

    def resolved_type(self) -> TypeDefinition:
        if self.type_definition is None:
            raise SchemaError(
                f"element '{self.name}' has no resolved type "
                f"(reference '{self.type_name}')"
            )
        return self.type_definition

    def __repr__(self) -> str:
        return f"ElementDeclaration({self.name!r})"


@dataclass
class ModelGroup:
    """A sequence/choice/all group of particles."""

    compositor: Compositor
    particles: list[Particle] = field(default_factory=list)
    #: set for named group definitions and by V-DOM normalization
    name: str | None = None

    def __repr__(self) -> str:
        return (
            f"ModelGroup({self.compositor.value}, "
            f"{len(self.particles)} particles, name={self.name!r})"
        )


@dataclass
class GroupReference:
    """``<xsd:group ref="..."/>`` before/after resolution."""

    ref: str
    definition: GroupDefinition | None = None

    def resolved(self) -> ModelGroup:
        if self.definition is None:
            raise SchemaError(f"unresolved group reference '{self.ref}'")
        return self.definition.model_group


Term = Union[ElementDeclaration, ModelGroup, GroupReference]


@dataclass
class Particle:
    """A term with occurrence bounds."""

    term: Term
    min_occurs: int = 1
    max_occurs: int = 1  # UNBOUNDED (-1) for 'unbounded'

    def occurs_once(self) -> bool:
        return self.min_occurs == 1 and self.max_occurs == 1

    def is_optional(self) -> bool:
        return self.min_occurs == 0

    def is_list(self) -> bool:
        """The paper's "list expression": maxOccurs > 1 (or unbounded)."""
        return self.max_occurs == UNBOUNDED or self.max_occurs > 1

    def __repr__(self) -> str:
        bound = "unbounded" if self.max_occurs == UNBOUNDED else self.max_occurs
        return f"Particle({self.term!r}, {self.min_occurs}..{bound})"


@dataclass
class GroupDefinition:
    """``<xsd:group name="...">`` — the paper's *explicit naming* hook."""

    name: str
    model_group: ModelGroup


@dataclass
class AttributeDeclaration:
    """``<xsd:attribute>``"""

    name: str
    type_name: str | None = None
    type_definition: SimpleType | None = None
    #: non-None for global attribute declarations and for local ones
    #: with qualified form — unprefixed instance attributes are in *no*
    #: namespace, so the default here stays None
    target_namespace: str | None = None
    #: value constraints carried by *global* declarations; ``ref=`` uses
    #: inherit them unless the use overrides
    default: str | None = None
    fixed: str | None = None

    @property
    def key(self) -> str:
        return expanded_name(self.target_namespace, self.name)

    def resolved_type(self) -> SimpleType:
        if self.type_definition is None:
            raise SchemaError(
                f"attribute '{self.name}' has no resolved type "
                f"(reference '{self.type_name}')"
            )
        return self.type_definition


@dataclass
class AttributeUse:
    """An attribute declaration plus its per-type use constraints."""

    declaration: AttributeDeclaration
    required: bool = False
    default: str | None = None
    fixed: str | None = None

    @property
    def name(self) -> str:
        return self.declaration.name

    @property
    def key(self) -> str:
        """The expanded attribute name instance attributes match on."""
        return self.declaration.key


@dataclass
class ComplexType:
    """``<xsd:complexType>``"""

    name: str | None = None
    base_name: str | None = None
    base: TypeDefinition | None = None
    derivation: DerivationMethod = DerivationMethod.NONE
    abstract: bool = False
    mixed: bool = False
    content: Particle | None = None
    #: for simpleContent: the simple type of the text value
    simple_content: SimpleType | None = None
    attribute_uses: dict[str, AttributeUse] = field(default_factory=dict)
    #: unresolved attribute-group references
    attribute_group_refs: list[str] = field(default_factory=list)
    #: memo for :meth:`effective_attribute_uses`, guarded by the local
    #: use count so incremental additions (DTD ATTLIST) stay visible
    _uses_cache: tuple[int, dict[str, AttributeUse]] | None = field(
        default=None, repr=False, compare=False
    )

    @property
    def content_type(self) -> ContentType:
        if self.simple_content is not None:
            return ContentType.SIMPLE
        has_elements = self.content is not None and _has_elements(self.content)
        if (
            not has_elements
            and self.derivation is DerivationMethod.EXTENSION
            and isinstance(self.base, ComplexType)
        ):
            # An attribute-only extension inherits the base's particle,
            # so classify from the effective content, not the local one.
            inherited = self.base.effective_content()
            has_elements = inherited is not None and _has_elements(inherited)
        if not has_elements:
            return ContentType.MIXED if self.mixed else ContentType.EMPTY
        return ContentType.MIXED if self.mixed else ContentType.ELEMENT_ONLY

    def effective_content(self) -> Particle | None:
        """Content particle including inherited base content (extension).

        For an extension the spec prescribes a sequence of the base's
        content followed by the extension's own particle; restriction
        replaces the base content outright.
        """
        if self.derivation is not DerivationMethod.EXTENSION:
            return self.content
        base = self.base
        base_content = (
            base.effective_content() if isinstance(base, ComplexType) else None
        )
        if base_content is None:
            return self.content
        if self.content is None:
            return base_content
        combined = ModelGroup(
            Compositor.SEQUENCE, [base_content, self.content]
        )
        return Particle(combined)

    def effective_attribute_uses(self) -> dict[str, AttributeUse]:
        """Attribute uses including those inherited from the base chain.

        Memoized — validation consults this per element on the ingest
        hot path.  Callers must treat the result as read-only.
        """
        # getattr: instances unpickled from artifacts written before this
        # field existed have no ``_uses_cache`` in their ``__dict__``
        cache = getattr(self, "_uses_cache", None)
        count = len(self.attribute_uses)
        if cache is not None and cache[0] == count:
            return cache[1]
        merged: dict[str, AttributeUse] = {}
        if isinstance(self.base, ComplexType):
            merged.update(self.base.effective_attribute_uses())
        merged.update(self.attribute_uses)
        self._uses_cache = (count, merged)
        return merged

    def is_derived_from(self, other: ComplexType) -> bool:
        current: TypeDefinition | None = self
        while isinstance(current, ComplexType):
            if current is other or (
                other.name is not None and current.name == other.name
            ):
                return True
            current = current.base
        return False

    def __repr__(self) -> str:
        return f"ComplexType({self.name!r}, {self.content_type.value})"

    def __reduce_ex__(self, protocol):
        # The ur-type is compared by identity (``definition is ANY_TYPE``)
        # all over the generator and V-DOM runtime; a cached schema must
        # rehydrate to the singleton, not a copy.
        if self is ANY_TYPE:
            return (_restore_any_type, ())
        return super().__reduce_ex__(protocol)


def _restore_any_type() -> "ComplexType":
    return ANY_TYPE


def _has_elements(particle: Particle) -> bool:
    term = particle.term
    if isinstance(term, ElementDeclaration):
        return True
    if isinstance(term, GroupReference):
        return _has_elements(Particle(term.resolved()))
    return any(_has_elements(child) for child in term.particles)


#: The ur-type: anything goes.  Used as the default base.
ANY_TYPE = ComplexType(name="anyType", mixed=True)


class Schema:
    """A resolved schema: global components plus automaton caching."""

    def __init__(self, target_namespace: str | None = None):
        self.target_namespace = target_namespace
        #: every target namespace that contributed components (imports
        #: included); empty for namespace-free schemas
        self.namespaces: set[str] = set()
        if target_namespace:
            self.namespaces.add(target_namespace)
        #: global maps are keyed by :func:`expanded_name` — the bare
        #: local name for namespace-free components, Clark notation
        #: (``{uri}local``) otherwise
        self.elements: dict[str, ElementDeclaration] = {}
        self.types: dict[str, TypeDefinition] = {}
        self.groups: dict[str, GroupDefinition] = {}
        self.attribute_groups: dict[str, list[AttributeUse]] = {}
        #: global ``<xsd:attribute>`` declarations (``ref=`` targets)
        self.attributes: dict[str, AttributeDeclaration] = {}
        #: head element key -> members (transitively closed at resolution)
        self.substitution_members: dict[str, list[ElementDeclaration]] = {}
        #: ``(resolved location, content sha256)`` of every document
        #: reached through include/import — caches re-hash these to
        #: detect edits to related documents
        self.related_documents: tuple[tuple[str, str], ...] = ()
        #: root element keys this schema was subset to (lazy binding);
        #: empty for a full schema
        self.subset_roots: tuple[str, ...] = ()
        #: id(complex_type) -> (complex_type, dfa); the type reference is
        #: retained so the cache can be re-keyed after unpickling, when
        #: every object identity (and so every ``id()``) has changed
        self._dfa_cache: dict[int, tuple[ComplexType, Dfa]] = {}
        self._table_cache: dict[int, tuple[ComplexType, DfaTable]] = {}

    @property
    def uses_namespaces(self) -> bool:
        """True when any component lives in a namespace.

        Namespace-free schemas (the paper's own examples, DTD
        conversions) keep the exact pre-namespace behavior everywhere
        this is consulted.
        """
        # getattr: Schema instances built before this field existed
        # (old pickles, hand-rolled test doubles) count as namespace-free
        return bool(getattr(self, "namespaces", None))

    # -- lookups ---------------------------------------------------------------

    def element(self, name: str) -> ElementDeclaration:
        try:
            return self.elements[name]
        except KeyError:
            raise SchemaError(f"no global element '{name}' in the schema")

    def type_definition(self, name: str) -> TypeDefinition:
        try:
            return self.types[name]
        except KeyError:
            raise SchemaError(f"no type definition '{name}' in the schema")

    def group(self, name: str) -> GroupDefinition:
        try:
            return self.groups[name]
        except KeyError:
            raise SchemaError(f"no model group '{name}' in the schema")

    def substitution_alternatives(
        self, declaration: ElementDeclaration
    ) -> list[ElementDeclaration]:
        """Elements usable where *declaration* is expected.

        The head itself (unless abstract) plus every member of its
        substitution group, transitively.
        """
        alternatives: list[ElementDeclaration] = []
        if not declaration.abstract:
            alternatives.append(declaration)
        alternatives.extend(self.substitution_members.get(declaration.key, ()))
        return alternatives

    # -- content automata ------------------------------------------------------------

    def particle_to_regex(self, particle: Particle) -> Regex:
        """Translate a particle tree to the automaton regex AST.

        Element terminals carry the :class:`ElementDeclaration` as their
        payload; substitution-group members become alternations, which is
        how "elements can be substituted for other elements" reaches the
        matcher.
        """
        term = particle.term
        if isinstance(term, ElementDeclaration):
            alternatives = self.substitution_alternatives(
                self.elements.get(term.key, term)
                if term.is_global
                else term
            )
            if not alternatives:
                base: Regex = Symbol(term)
            elif len(alternatives) == 1:
                base = Symbol(alternatives[0])
            else:
                base = Alternation([Symbol(alt) for alt in alternatives])
        elif isinstance(term, GroupReference):
            return self.particle_to_regex(
                Particle(term.resolved(), particle.min_occurs, particle.max_occurs)
            )
        else:
            parts = [self.particle_to_regex(child) for child in term.particles]
            if not parts:
                base = Epsilon()
            elif term.compositor is Compositor.CHOICE:
                base = Alternation(parts)
            else:
                # ALL is treated like SEQUENCE, exactly as the paper does.
                base = Sequence(parts)
        if particle.occurs_once():
            return base
        return Repetition(base, particle.min_occurs, particle.max_occurs)

    def check_unique_particle_attribution(self) -> list[SchemaError]:
        """Check every named complex type against the UPA constraint.

        XML Schema requires deterministic content models (Unique
        Particle Attribution); the validator here tolerates ambiguity
        via subset construction, so the check is advisory — run it to
        know whether a schema is portable to stricter processors.
        """
        from repro.automata.glushkov import NondeterminismError

        violations: list[SchemaError] = []
        for name, definition in self.types.items():
            if not isinstance(definition, ComplexType):
                continue
            content = definition.effective_content()
            if content is None:
                continue
            try:
                build_dfa(
                    self.particle_to_regex(content),
                    key=lambda declaration: declaration.key,
                    require_deterministic=True,
                )
            except NondeterminismError as error:
                violations.append(
                    SchemaError(
                        f"type '{name}' violates Unique Particle "
                        f"Attribution: {error}"
                    )
                )
        return violations

    def content_dfa(self, complex_type: ComplexType) -> Dfa:
        """DFA for *complex_type*'s effective element content (cached)."""
        cache_key = id(complex_type)
        if cache_key not in self._dfa_cache:
            content = complex_type.effective_content()
            regex: Regex = (
                self.particle_to_regex(content) if content is not None else Epsilon()
            )
            self._dfa_cache[cache_key] = (
                complex_type,
                build_dfa(regex, key=lambda declaration: declaration.key),
            )
        return self._dfa_cache[cache_key][1]

    def content_table(self, complex_type: ComplexType) -> DfaTable:
        """Flat integer transition table for *complex_type* (cached).

        Same automaton as :meth:`content_dfa` — identical state numbering,
        acceptance, and payload attribution — compiled down to
        ``array('i')`` matrices for the table-driven hot loops.
        """
        cache_key = id(complex_type)
        if cache_key not in self._table_cache:
            self._table_cache[cache_key] = (
                complex_type,
                DfaTable.from_dfa(self.content_dfa(complex_type)),
            )
        return self._table_cache[cache_key][1]

    # -- pickling (the persistent compilation cache) ------------------------------

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        # ``id()`` keys are meaningless in another process; ship the
        # (type, dfa) pairs and re-key on load.
        state["_dfa_cache"] = list(self._dfa_cache.values())
        state["_table_cache"] = list(self._table_cache.values())
        return state

    def __setstate__(self, state: dict) -> None:
        pairs = state.pop("_dfa_cache")
        # Older artifacts predate the table cache; default to empty.
        table_pairs = state.pop("_table_cache", [])
        self.__dict__.update(state)
        self._dfa_cache = {
            id(complex_type): (complex_type, dfa) for complex_type, dfa in pairs
        }
        self._table_cache = {
            id(complex_type): (complex_type, table)
            for complex_type, table in table_pairs
        }
