"""Table-driven turbo ingest: one regex alternation, flat DFA tables.

:func:`fused_parse` already collapsed parse→DOM→bind into a single
pass, but it still pays the event machinery per token: an ``Event``
object with a ``Location``, an iterator round-trip, and a method call
or two for every tag in the document.  This module removes that layer
for the common case.  The turbo scanner drives typed construction
straight off the source text:

* one **precompiled regex alternation** (:data:`repro.xml.turbo.TOKEN`,
  the grammar this lane shares with the verdict-only stepper in
  :mod:`repro.xsd.stream`) recognizes the next text run, start tag
  (attributes included), end tag, or reference in a single C-level
  ``match`` — no chained ``find`` calls, no event allocation, no
  location bookkeeping;
* content models are stepped through the flat integer
  :class:`~repro.automata.tables.DfaTable` arrays — a symbol-id probe
  and two array indexings per child element.

Parity is guaranteed by construction, not by reimplementation:
**the turbo lane never produces its own verdicts**.  It succeeds only
on documents it can prove well-formed and schema-valid along the exact
semantics of the fused route; on *any* deviation — a construct outside
its subset (DOCTYPE, CDATA, comments, PIs, single-quoted or
reference-bearing attributes, ``\\r`` line endings, non-ASCII names), a
syntax anomaly, or a validation failure — it raises the internal
:class:`~repro.xml.turbo.Restart` and the document is re-run through
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
from repro.errors import VdomTypeError, XmlSyntaxError
from repro.ingest.fused import (
    _construct,
    _dispatch_info,
    _dispatch_table,
    _Frame,
    fused_parse,
)
from repro.xml.turbo import (
    TOKEN,
    Restart,
    content_attributes as _parse_attributes,
    decode_reference,
    prologue,
)


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
    try:
        body, pos = prologue(text)
        root = _scan(binding, body, pos)
    except Restart as restart:
        obs.count("ingest.turbo", outcome="restart", reason=restart.reason)
        return fused_parse(binding, text, source)
    except VdomTypeError:
        # The fused route decides validity verdicts (and drains the rest
        # of the document so syntax errors keep their precedence).
        obs.count("ingest.turbo", outcome="restart", reason="validation")
        return fused_parse(binding, text, source)
    except XmlSyntaxError:
        # e.g. an out-of-range character reference; let the event parser
        # produce the error with its exact location.
        obs.count("ingest.turbo", outcome="restart", reason="syntax")
        return fused_parse(binding, text, source)
    obs.count("ingest.turbo", outcome="hit")
    return root


def _scan(binding: Binding, text: str, pos: int) -> TypedElement:
    """Drive typed construction off the master alternation."""
    schema = binding.schema
    elements = schema.elements
    class_by_declaration = binding.class_by_declaration
    dispatch = _dispatch_table(binding)
    token_match = TOKEN.match
    length = len(text)
    stack: list[_Frame] = []
    open_names: list[str] = []
    pending: list[str] = []
    skip_depth = 0
    root: TypedElement | None = None
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
        # A tag boundary: flush the accumulated run as ONE data unit —
        # the event parser emits one Characters per inter-markup run,
        # references joined in, and the fused walk's white-space
        # dropping looks at the whole run.
        if pending:
            data = pending[0] if len(pending) == 1 else "".join(pending)
            pending.clear()
            if stack:
                frame = stack[-1]
                if frame.structured:
                    if data.strip():
                        frame.children.append(data)
                else:
                    frame.text_parts.append(data)
            elif data.strip(" \t\n"):
                # Non-white-space character data outside the root (the
                # parser's white-space production, not str.strip()'s).
                raise Restart("text outside root")
        if kind == 4:  # start tag
            name = match[2]
            blob = match[3]
            attributes = _parse_attributes(blob) if blob else []
            if stack:
                frame = stack[-1]
                if not frame.structured:
                    # Below a leaf frame: the subtree flattens to text.
                    # Attribute well-formedness was checked above; the
                    # element itself is only depth-tracked.
                    if not match[4]:
                        skip_depth += 1
                        open_names.append(name)
                    continue
                table = frame.table
                sym = table.symbol_ids.get(name)
                if sym is None:
                    raise VdomTypeError(
                        f"<{name}> is not allowed inside <{frame.tag}>"
                    )
                cell = frame.state * table.n_symbols + sym
                target = table.nxt[cell]
                if target < 0:
                    raise VdomTypeError(
                        f"<{name}> is not allowed inside <{frame.tag}>"
                    )
                frame.state = target
                declaration = table.payloads[table.pay[cell]]
            else:
                if root is not None:
                    raise Restart("multiple root elements")
                declaration = elements.get(name)
                if declaration is None:
                    raise VdomTypeError(
                        f"<{name}> is not a global element of the schema"
                    )
            info = dispatch.get(id(declaration))
            if info is None:
                info = _dispatch_info(schema, class_by_declaration, declaration)
                dispatch[id(declaration)] = info
            new_frame = _Frame(
                name,
                info[0],
                info[1],
                None,
                info[4],
                info[2],
                info[5],
                info[6],
                info[7],
                attributes,
            )
            new_frame.memo = info[8]
            if match[4]:  # self-closing: construct immediately
                element = _construct(binding, new_frame)
                if stack:
                    parent = stack[-1]
                    parent.children.append(element)
                    parent.element_count += 1
                else:
                    root = element
            else:
                stack.append(new_frame)
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
            element = _construct(binding, frame)
            if stack:
                parent = stack[-1]
                parent.children.append(element)
                parent.element_count += 1
            else:
                root = element
    if open_names:
        raise Restart("unclosed element")
    if root is None:
        raise Restart("no root element")
    if pending:
        data = "".join(pending)
        pending.clear()
        if data.strip(" \t\n"):
            raise Restart("text outside root")
    return root

