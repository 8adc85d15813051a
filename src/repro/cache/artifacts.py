"""(De)serialization of cached compilation artifacts.

Three artifact families:

* **binding** — one pickle holding the *normalized* schema (with its
  content-model DFAs prewarmed) together with the generated interface
  model.  Pickling them as a single object graph preserves every shared
  reference, so the identity-keyed machinery (``class_by_declaration``,
  the DFA cache) stays consistent after a load.  The class objects
  themselves are *not* pickled — ``Binding`` re-materializes them from
  the model, which is cheap next to parsing and generation.
* **template** — the P-XML compiler's generated DOM-render source, the
  hole specification and the segment program, with classes reduced to
  interface keys; rehydrated against the live binding without
  re-running the static checker or compiling any code.
* **text** — plain UTF-8 strings (translated server pages, rendered
  IDL, generated Python modules).

Loads raise :class:`ArtifactError` on *any* problem; callers treat that
as a cache miss.

Pickle payloads are compacted with :func:`pickletools.optimize` only
when they may reach the directory tier (``compact=True``, which
:attr:`ReproCache.compact_artifacts <repro.cache.ReproCache>` derives
from ``directory is not None``).  The pass is a pure-Python opcode walk
that costs ~20x the dump it shortens.  On the twelve artifacts of one
cold preparation round (six bindings, six templates; best of seven on a
2-vCPU Linux VM) ``pickle.dumps`` takes 1.6 ms and ``optimize`` 37 ms,
for an 8% smaller payload (209 -> 192 KB) that loads 0.18 ms faster in
total (2.03 -> 1.85 ms), about 15 us per artifact.  A memory-only
cache's bytes never leave the process, and a re-load there would have
to happen ~200 times to repay one pass, so it stores plain
``pickle.dumps`` output.

The directory tier keeps the pass: a file is written once and then read
by every later process, so the dump cost amortizes and the smaller,
faster-loading payload is the better trade there.  It also carries most
of the headroom of the ``cache_warm_speedup`` floors (warm bind >= 5x
faster than cold, measured on a directory cache): without it a cold
purchase-order bind drops from 15.9 to 5.7 ms and the cold/warm ratio
from 11.1x to 3.5x.  Both forms unpickle to the same objects, so the
on-disk format, and ``CACHE_FORMAT_VERSION``, do not depend on the tier.
"""

from __future__ import annotations

import io
import pickle
import pickletools
from typing import TYPE_CHECKING, Any

from repro.xsd.components import ComplexType, Schema

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.model import InterfaceModel
    from repro.core.vdom import Binding


class ArtifactError(Exception):
    """A cached artifact could not be decoded; recompile instead."""


_PROTOCOL = pickle.HIGHEST_PROTOCOL

#: modules a binding pickle may legitimately reference — everything else
#: is refused at load time so a tampered cache file cannot import
#: arbitrary code through unpickling
_TRUSTED_MODULES = frozenset(
    {"array", "builtins", "collections", "datetime", "decimal", "re"}
)


class _RestrictedUnpickler(pickle.Unpickler):
    def find_class(self, module: str, name: str):
        if module in _TRUSTED_MODULES or module.startswith("repro."):
            return super().find_class(module, name)
        raise ArtifactError(
            f"cache entry references untrusted module '{module}'"
        )


def _loads(payload: bytes) -> Any:
    try:
        return _RestrictedUnpickler(io.BytesIO(payload)).load()
    except ArtifactError:
        raise
    # Audited boundary: unpickling corrupt bytes can raise anything
    # (truncation, stale classes); all of it means "recompile".
    except Exception as error:  # noqa: BLE001
        raise ArtifactError(f"undecodable cache entry: {error}")


def prewarm_dfas(schema: Schema, model: "InterfaceModel | None" = None) -> int:
    """Build every content-model DFA (and its flat table) the binding needs.

    Doing this *before* pickling moves the Glushkov/subset construction
    cost — and, since the table-driven ingest, the flattening into
    ``array('i')`` transition tables — into the cached artifact: a warm
    start never builds an automaton in either representation.
    Returns the number of automata in the schema's cache afterwards.
    """
    for definition in schema.types.values():
        if isinstance(definition, ComplexType):
            schema.content_dfa(definition)
            schema.content_table(definition)
    if model is not None:
        for interface in model:
            definition = interface.type_definition
            if isinstance(definition, ComplexType):
                schema.content_dfa(definition)
                schema.content_table(definition)
    return len(schema._dfa_cache)


def _dumps(obj: Any, compact: bool) -> bytes:
    # ``optimize`` strips unused PUT opcodes, at ~20x the cost of the
    # dump itself; only payloads bound for the directory tier pay it
    # (see the module docstring for the figures).
    payload = pickle.dumps(obj, protocol=_PROTOCOL)
    return pickletools.optimize(payload) if compact else payload


def dump_binding(
    schema: Schema, model: "InterfaceModel", *, compact: bool
) -> bytes:
    prewarm_dfas(schema, model)
    return _dumps((schema, model), compact)


def load_binding(payload: bytes) -> "tuple[Schema, InterfaceModel]":
    pair = _loads(payload)
    if (
        not isinstance(pair, tuple)
        or len(pair) != 2
        or not isinstance(pair[0], Schema)
    ):
        raise ArtifactError("cache entry is not a (schema, model) pair")
    return pair


def dump_schema(schema: Schema, *, compact: bool) -> bytes:
    prewarm_dfas(schema)
    return _dumps(schema, compact)


def load_schema(payload: bytes) -> Schema:
    schema = _loads(payload)
    if not isinstance(schema, Schema):
        raise ArtifactError("cache entry is not a schema")
    return schema


# -- template artifacts ---------------------------------------------------------


def dump_template(
    binding: "Binding",
    generated_source: str,
    root_name: str,
    holes: dict[str, Any],
    segment_program: Any = None,
    *,
    compact: bool,
) -> bytes:
    """Reduce a compiled template to binding-independent data.

    Hole specs (and segment-run owners) reference generated classes,
    which cannot be pickled; they are stored as interface keys and
    resolved against the live binding on load.  ``segment_program``
    carries the render-to-text fast path; it is optional so templates
    the segment compiler declined still cache.
    ``compact`` is the cache's ``compact_artifacts`` (the tier rule in
    the module docstring).
    """
    key_by_class = {cls: key for key, cls in binding.classes.items()}
    hole_table: dict[str, dict[str, Any]] = {}
    for name, spec in holes.items():
        try:
            class_keys = [key_by_class[cls] for cls in spec.classes]
        except KeyError:
            raise ArtifactError(
                f"hole '{name}' references a class outside the binding"
            )
        hole_table[name] = {"kind": spec.kind, "classes": class_keys}
    record = {
        "kind": "template",
        "root": root_name,
        "generated_source": generated_source,
        "holes": hole_table,
    }
    if segment_program is not None:
        from repro.pxml.segments import program_to_record

        try:
            record["segments"] = program_to_record(segment_program, binding)
        except LookupError as error:
            raise ArtifactError(f"unpicklable segment program: {error}")
    return _dumps(record, compact)


def load_template(payload: bytes, binding: "Binding") -> dict[str, Any]:
    """Rehydrate ``{root, generated_source, holes, program}``.

    The returned ``holes`` map contains live ``HoleSpec`` objects whose
    classes come from the *current* binding; ``program`` (a rebuilt
    ``SegmentProgram``) is ``None`` when the template declined segment
    compilation.
    """
    from repro.pxml.checker import HoleSpec

    record = _loads(payload)
    if not isinstance(record, dict) or record.get("kind") != "template":
        raise ArtifactError("cache entry is not a compiled template")
    holes: dict[str, Any] = {}
    for name, entry in record["holes"].items():
        try:
            classes = tuple(binding.classes[key] for key in entry["classes"])
        except KeyError as error:
            raise ArtifactError(f"stale template artifact: {error}")
        holes[name] = HoleSpec(name=name, kind=entry["kind"], classes=classes)
    program = None
    if record.get("segments") is not None:
        from repro.pxml.segments import program_from_record

        try:
            program = program_from_record(record["segments"], binding, holes)
        except (LookupError, TypeError, ValueError) as error:
            raise ArtifactError(f"stale segment artifact: {error}")
    return {
        "root": record["root"],
        "generated_source": record["generated_source"],
        "holes": holes,
        "program": program,
    }


# -- text artifacts -----------------------------------------------------------


def dump_text(text: str) -> bytes:
    return text.encode("utf-8")


def load_text(payload: bytes) -> str:
    try:
        return payload.decode("utf-8")
    except UnicodeDecodeError as error:
        raise ArtifactError(f"undecodable text artifact: {error}")
