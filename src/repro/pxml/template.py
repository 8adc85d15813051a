"""The public P-XML entry point: parse + check once, render many."""

from __future__ import annotations

from typing import Any, Callable

from repro import obs
from repro.core.vdom import Binding, TypedElement
from repro.pxml.checker import CheckedTemplate, check_template
from repro.pxml.compiler import compile_template_source, load_render
from repro.pxml.parser import parse_template
from repro.pxml.runtime import render_interpreted, render_text_interpreted
from repro.pxml.segments import SegmentProgram, compile_segments


class Template:
    """A statically validated XML constructor.

    ::

        template = Template(binding, '''
            <shipTo country="US">
              <name>$n$</name>
              <street>123 Maple Street</street>
              ...
            </shipTo>''')
        ship_to = template.render(n="Alice Smith")

    Checking happens in ``__init__`` — the paper's "compile time".  A
    ``Template`` that exists can only render schema-valid fragments.
    :meth:`render_text` and :meth:`stream_text` interpret the segment
    program built there and run no generated code.  The DOM render
    function's source is generated there too, but it is only compiled by
    the first :meth:`render` call (~5 ms for a 150-item page).

    With a :class:`repro.cache.ReproCache` (and a binding produced by a
    cached :func:`repro.bind`), the checked + compiled form is reused
    across processes: a warm start skips parsing, the static check, and
    code generation, rebuilding the segment program from its record.
    The guarantee is preserved — the cached artifact exists only because
    the checker accepted exactly this source against exactly this
    schema, and both are part of the cache key.
    """

    def __init__(
        self,
        binding: Binding,
        source: str,
        param_types: dict[str, Any] | None = None,
        compiled: bool = True,
        cache: Any = None,
    ):
        self.binding = binding
        self.source = source
        self.checked: CheckedTemplate | None = None
        #: built from ``generated_source`` by the first ``render()``
        self._render: Callable[..., TypedElement] | None = None
        self.generated_source: str | None = None
        self._segments: SegmentProgram | None = None
        self._hole_names: list[str] = []
        self._hole_specs: dict[str, Any] = {}
        self._root_name: str | None = None
        cache_key = self._cache_key(cache, source, param_types, compiled)
        if cache_key is not None and self._load_cached(cache, cache_key):
            return
        self.ast = parse_template(source)
        self._root_name = self.ast.name
        self.checked = check_template(binding, self.ast, param_types)
        self._hole_names = self.checked.hole_names()
        self._hole_specs = self.checked.holes
        if compiled:
            self.generated_source = compile_template_source(self.checked)
            self._segments = compile_segments(self.checked)
            # Seed the interpreted twin's memo so a mixed usage pattern
            # never re-partitions the same checked AST.
            self.checked._segment_program = self._segments
        if cache_key is not None and compiled:
            self._store_cached(cache, cache_key)

    # -- cache plumbing ---------------------------------------------------------

    def _cache_key(
        self,
        cache: Any,
        source: str,
        param_types: dict[str, Any] | None,
        compiled: bool,
    ) -> str | None:
        """Chained fingerprint, or ``None`` when caching cannot apply."""
        if cache is None or not compiled:
            return None
        base = self.binding.cache_fingerprint
        if base is None:
            # An unfingerprinted binding gives no stable schema identity
            # to key on; skip caching rather than risk a wrong reuse.
            return None
        from repro.cache.fingerprint import combine

        annotations = (
            sorted((name, str(value)) for name, value in param_types.items())
            if param_types
            else ()
        )
        return combine(base, "template", source, param_types=annotations)

    def _load_cached(self, cache: Any, key: str) -> bool:
        from repro.cache.artifacts import ArtifactError, load_template

        payload = cache.get_bytes("template", key)
        if payload is None:
            return False
        try:
            record = load_template(payload, self.binding)
        except ArtifactError:
            cache.stats.record_corrupt("template")
            cache.invalidate(key)
            return False
        self.ast = None
        self._root_name = record["root"]
        self.generated_source = record["generated_source"]
        self._hole_names = sorted(record["holes"])
        self._hole_specs = record["holes"]
        self._segments = record["program"]
        return True

    def _store_cached(self, cache: Any, key: str) -> None:
        from repro.cache.artifacts import ArtifactError, dump_template

        assert self.checked is not None and self.generated_source is not None
        try:
            payload = dump_template(
                self.binding,
                self.generated_source,
                self._root_name or "",
                self.checked.holes,
                segment_program=self._segments,
                compact=cache.compact_artifacts,
            )
        except ArtifactError:
            return
        cache.put_bytes("template", key, payload)

    # -- public surface ----------------------------------------------------------

    @property
    def hole_names(self) -> list[str]:
        return self._hole_names

    def checked_holes(self) -> dict[str, Any]:
        """Hole name → :class:`~repro.pxml.checker.HoleSpec`.

        Unlike ``self.checked.holes`` this also works on a
        cache-rehydrated template, whose ``checked`` AST never existed
        in this process — the specs ride in the cached artifact.
        """
        if self.checked is not None:
            return self.checked.holes
        return self._hole_specs

    def checked_root_class(self) -> type | None:
        """The generated class of the template's root element.

        ``None`` only for a cache-rehydrated template whose root name is
        ambiguous in the binding (several local declarations share it).
        """
        if self.checked is not None:
            return self.checked.root_class
        candidates = self.binding.declarations_by_name.get(
            self._root_name or "", []
        )
        return candidates[0] if len(candidates) == 1 else None

    def render(self, **values: Any) -> TypedElement:
        """Instantiate the template; returns a typed (valid) element."""
        if self.generated_source is not None:
            render = self._render
            if render is None:
                # Compiled on first use; two threads racing here compile
                # the same source twice, and either function is correct.
                render = self._render = load_render(
                    self.generated_source, self._hole_specs
                )
            return render(self.binding.factory, **values)
        assert self.checked is not None
        return render_interpreted(self.checked, **values)

    def render_text(self, **values: Any) -> str:
        """Render directly to serialized markup, skipping the DOM.

        Byte-identical to ``serialize(self.render(**values))`` but emits
        the string from precomputed segments; the static check in
        ``__init__`` (plus per-hole validation at render time) preserves
        the validity guarantee without materializing a tree.  Templates
        whose shape the segment compiler declines transparently take the
        render-then-serialize route.
        """
        if self._segments is not None:
            obs.count("render.route", route="segment")
            return self._segments.render(values)
        if self.checked is not None:
            return render_text_interpreted(self.checked, **values)
        # A cached template whose segment program did not survive
        # rehydration: the only remaining route is render-then-serialize.
        obs.count("render.route", route="dom", reason="no segment program")
        from repro.dom.serialize import serialize

        return serialize(self.render(**values))

    def stream_text(self, **values: Any) -> list[str] | None:
        """The ``render_text`` output as a list of pieces, or ``None``.

        The pieces concatenate to exactly ``render_text(**values)`` —
        static segments by reference, hole values validated and emitted —
        but stay unjoined so a streaming caller (the serve tier's
        chunked mode) can put precomputed static markup on the wire
        without building the whole body first.  Every hole is validated
        *before* the list is returned: an invalid value raises here,
        while no byte has been committed, preserving the 422/400
        semantics of the buffered path.

        Returns ``None`` when this template has no segment program (the
        DOM-fallback shapes, or a cached artifact whose program did not
        survive rehydration) — those render only as whole strings.
        """
        if self._segments is None:
            return None
        obs.count("render.route", route="segment-stream")
        return self._segments.fill(values)

    def render_document(self, **values: Any):
        """Render and wrap in a document (root must be global)."""
        return self.binding.document(self.render(**values))

    def __repr__(self) -> str:
        mode = "compiled" if self.generated_source is not None else "interpreted"
        return (
            f"Template(<{self._root_name}>, holes={self.hole_names}, {mode})"
        )


def template_for(binding: Binding, source: str, **kwargs: Any) -> Template:
    """Convenience: ``template_for(binding, "<a>...</a>")``."""
    return Template(binding, source, **kwargs)
