"""Table-driven turbo ingest: one regex alternation, flat DFA tables.

:func:`fused_parse` already collapsed parse→DOM→bind into a single
pass, but it still pays the event machinery per token: an ``Event``
object with a ``Location``, an iterator round-trip, and a method call
or two for every tag in the document.  This module removes that layer
for the common case.  The typed build is a sink of
:func:`repro.xml.turbo.walk`, the turbo loop it shares with the
verdict-only stepper in :mod:`repro.xsd.stream`:

* one **precompiled regex alternation** (:data:`repro.xml.turbo.TOKEN`)
  recognizes the next text run, start tag (attributes included), end
  tag, or reference in a single C-level ``match`` — no chained ``find``
  calls, no event allocation, no location bookkeeping;
* content models are stepped through the flat integer
  :class:`~repro.automata.tables.DfaTable` arrays — a symbol-id probe
  and two array indexings per child element;
* the sink allocates one frame per element at its start tag and
  constructs the typed element at its end tag, with the checks
  :func:`~repro.ingest.fused.fused_parse` runs.

Parity is guaranteed by construction, not by reimplementation:
**the turbo lane never produces its own verdicts**.  It succeeds only
on documents it can prove well-formed and schema-valid along the exact
semantics of the fused route; on *any* deviation — a construct outside
its subset (DOCTYPE, CDATA, comments, PIs, single-quoted or
reference-bearing attributes, ``\\r`` line endings, non-ASCII names), a
syntax anomaly, or a validation failure — the walk stops with a reason
and the document is re-run through
:func:`~repro.ingest.fused.fused_parse`, which produces the
authoritative result: same tree, same exception type, same message,
same :class:`~repro.xml.events.Location`, same syntax-over-validity
error precedence.  Invalid documents therefore pay one extra (fast,
aborted) scan; valid documents — the hot serving case — skip the event
layer entirely.  ``tests/ingest/test_table_parity.py`` holds the lane
to the fused/legacy routes across the full parity corpus.
"""

from __future__ import annotations

from repro import obs
from repro.core.vdom import Binding, TypedElement
from repro.ingest.fused import (
    _construct,
    _dispatch_info,
    _dispatch_table,
    fused_parse,
)
from repro.xml.turbo import Scope, walk
from repro.xsd.components import ContentType

#: the document-level scope of every typed build (namespace-free schemas
#: only, so its element-key cache stays empty)
_ROOT_SCOPE = Scope()


def table_parse(
    binding: Binding, text: str, source: str | None = None
) -> TypedElement:
    """Parse + validate *text* through the turbo lane, fused on restart.

    Observationally identical to ``fused_parse(binding, text, source)``
    in every outcome: every restart re-runs the *original* text (BOM and
    XML declaration included), so error locations cannot move.  Hits
    and restarts are counted under the ``ingest.turbo{outcome=...}``
    observability counter.
    """
    binding._require_no_namespaces("table-driven ingest")
    start, end = _build_sink(binding)
    reason, root = walk(text, binding.schema.elements, start, end, _ROOT_SCOPE)
    if reason is None:
        obs.count("ingest.turbo", outcome="hit")
        return root
    obs.count("ingest.turbo", outcome="restart", reason=reason)
    return fused_parse(binding, text, source)


def _build_sink(binding: Binding):
    """The typed build's ``start`` and ``end`` for the turbo walk.

    A frame carries, past the walk's five slots, the element's dispatch
    entry, its attributes, and its content: the children of a structured
    element, the character data of a leaf.
    """
    dispatch = _dispatch_table(binding)
    mixed = ContentType.MIXED

    def start(declaration, attributes, scope: Scope) -> list:
        info = dispatch.get(id(declaration)) or _dispatch_info(
            binding, declaration
        )
        content: list = []
        if not info[2]:  # a leaf: no child elements, all text is its value
            return [None, 0, content, False, scope, info, attributes, content]
        if info[5] is mixed:
            return [info[4], 0, content, False, scope, info, attributes, content]
        return [info[4], 0, None, True, scope, info, attributes, content]

    def end(frame: list, parent: list | None) -> TypedElement:
        info = frame[5]
        element = _construct(
            binding, info, frame[6], frame[7], frame[0], frame[1], info[8]
        )
        if parent is not None:
            parent[7].append(element)
        return element

    return start, end
