"""``ReproCache`` — the object threaded through every entry point.

The paper's whole argument is that validity work belongs at *program
preparation time* (Sect. 2–4); this cache makes that preparation pay
once per schema *per machine* instead of once per process: the XSD
parse, normalization, interface generation, and every content-model DFA
are captured in one content-addressed artifact, and a warm start is an
unpickle plus class materialization.

Layering::

    ReproCache
      ├── live-object LRU   (same-process re-binds: no unpickle at all)
      └── byte store
            ├── MemoryStore (LRU over encoded artifacts)
            └── DirectoryStore (persistent, atomic, checksummed)

Every degraded condition — corrupt file, stale format, version skew,
unwritable directory — silently falls back to recompilation and is
visible only in :class:`~repro.cache.stats.CacheStats`.
"""

from __future__ import annotations

import json
import os
import threading
from collections import OrderedDict
from typing import Any

from repro import obs
from repro.cache import artifacts
from repro.cache.artifacts import ArtifactError
from repro.cache.fingerprint import fingerprint
from repro.cache.stats import CacheStats
from repro.cache.stores import DirectoryStore, MemoryStore, TieredStore

#: environment variable naming the persistent cache directory
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: default on-disk location (relative to the working directory)
DEFAULT_CACHE_DIR = ".repro-cache"


def _related_documents_fresh(schema: Any) -> bool:
    """True when every include/import target still hashes as recorded.

    Schemas parsed from a single document have an empty manifest and are
    always fresh; a missing or edited related file turns the hit into a
    recompile (which re-reads everything and records the new digests).
    """
    import hashlib

    manifest = getattr(schema, "related_documents", ())
    for path, digest in manifest:
        try:
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
        except (OSError, UnicodeDecodeError):
            return False
        if hashlib.sha256(text.encode("utf-8")).hexdigest() != digest:
            return False
    return True


class ReproCache:
    """Compilation cache for schema bindings, templates, and pages.

    ``directory=None`` gives a process-local (memory-only) cache;
    passing a directory adds the persistent tier.  Use
    :meth:`persistent` to honor ``$REPRO_CACHE_DIR`` with the
    ``.repro-cache`` fallback.
    """

    def __init__(
        self,
        directory: str | os.PathLike | None = None,
        memory_entries: int = 128,
        binding_entries: int = 16,
    ):
        self.stats = CacheStats()
        self.directory = os.fspath(directory) if directory is not None else None
        memory = MemoryStore(memory_entries, stats=self.stats)
        if directory is None:
            self.store: MemoryStore | TieredStore = memory
        else:
            self.store = TieredStore(
                memory, DirectoryStore(directory, stats=self.stats)
            )
        #: fingerprint -> live Binding (shared within the process)
        self._bindings: OrderedDict[str, Any] = OrderedDict()
        self._binding_entries = binding_entries
        self._lock = threading.Lock()

    @classmethod
    def persistent(
        cls, directory: str | os.PathLike | None = None, **kwargs: Any
    ) -> "ReproCache":
        """A disk-backed cache at *directory* / ``$REPRO_CACHE_DIR`` /
        ``.repro-cache`` (first one set wins)."""
        if directory is None:
            directory = os.environ.get(CACHE_DIR_ENV) or DEFAULT_CACHE_DIR
        return cls(directory=directory, **kwargs)

    # -- raw byte access (building block for the typed helpers) ---------------

    def get_bytes(self, kind: str, key: str) -> bytes | None:
        payload = self.store.get(key)
        if payload is None:
            self.stats.record_miss(kind)
        else:
            self.stats.record_hit(kind)
        return payload

    def put_bytes(self, kind: str, key: str, payload: bytes) -> None:
        self.store.put(key, payload)
        self.stats.stores += 1

    def invalidate(self, key: str) -> bool:
        with self._lock:
            self._bindings.pop(key, None)
        removed = self.store.delete(key)
        if removed:
            self.stats.invalidations += 1
        return removed

    def clear(self) -> int:
        with self._lock:
            self._bindings.clear()
        removed = self.store.clear()
        self.stats.invalidations += removed
        return removed

    def __len__(self) -> int:
        return len(self.store)

    @property
    def compact_artifacts(self) -> bool:
        """Whether pickled artifacts are compacted before they are stored.

        Derived from the tier, not settable: only payloads that can reach
        the directory tier pay the ``pickletools.optimize`` pass (see
        :mod:`repro.cache.artifacts`).
        """
        return self.directory is not None

    def __repr__(self) -> str:
        where = self.directory or "<memory>"
        return f"ReproCache({where!r}, {self.stats.hits}h/{self.stats.misses}m)"

    # -- schema bindings ----------------------------------------------------------

    def bind(
        self,
        schema_text: str,
        naming: Any = None,
        choice_strategy: Any = None,
        validate_on_mutate: bool = True,
        location: str | None = None,
        lazy_roots: tuple[str, ...] | None = None,
    ):
        """Cached equivalent of :func:`repro.core.bind` on schema text.

        A same-process repeat returns the *same* live binding; a
        cross-process repeat unpickles the prepared schema + interface
        model (DFAs included) and only re-materializes classes.

        *location* is where the text came from; include/import
        ``schemaLocation`` values resolve relative to it, and warm
        starts re-hash every related document so editing an included
        file misses the cache.  *lazy_roots* binds the per-subset
        artifact for those root element keys instead of the full schema
        — each distinct root set is its own cache entry.
        """
        with obs.timeit("cache.bind"):
            return self._bind(
                schema_text,
                naming,
                choice_strategy,
                validate_on_mutate,
                location,
                tuple(lazy_roots) if lazy_roots else None,
            )

    def _bind(
        self,
        schema_text: str,
        naming: Any,
        choice_strategy: Any,
        validate_on_mutate: bool,
        location: str | None,
        lazy_roots: tuple[str, ...] | None,
    ):
        from repro.core.generate import ChoiceStrategy, generate_interfaces
        from repro.core.normalize import normalize
        from repro.core.vdom import Binding
        from repro.xsd.schema_parser import parse_schema

        strategy = (
            choice_strategy
            if choice_strategy is not None
            else ChoiceStrategy.INHERITANCE
        )
        key = fingerprint(
            "binding",
            schema_text,
            choice_strategy=strategy.value,
            naming=type(naming).__name__ if naming is not None else "default",
            location=location,
            subset=sorted(lazy_roots) if lazy_roots else None,
        )
        with self._lock:
            cached = self._bindings.get((key, validate_on_mutate))
            if cached is not None and _related_documents_fresh(
                cached.schema
            ):
                self._bindings.move_to_end((key, validate_on_mutate))
                self.stats.record_hit("binding")
                obs.count("cache.bind.outcome", outcome="live")
                return cached
        payload = self.get_bytes("binding", key)
        if payload is not None:
            try:
                schema, model = artifacts.load_binding(payload)
            except ArtifactError:
                self.stats.record_corrupt("binding")
                self.invalidate(key)
            else:
                if _related_documents_fresh(schema):
                    binding = Binding(
                        schema, model, validate_on_mutate=validate_on_mutate
                    )
                    binding.cache_fingerprint = key
                    self._remember_binding(key, validate_on_mutate, binding)
                    obs.count("cache.bind.outcome", outcome="warm")
                    return binding
                self.invalidate(key)
        schema = parse_schema(schema_text, location=location)
        if lazy_roots:
            from repro.xsd.subset import subset_schema

            schema = subset_schema(schema, lazy_roots)
        normalize(schema, naming)
        model = generate_interfaces(schema, strategy)
        # Build the live binding *before* pickling: building memoizes
        # per-field name resolution onto the model, so the artifact
        # carries it and warm starts skip that work too.
        binding = Binding(schema, model, validate_on_mutate=validate_on_mutate)
        binding.cache_fingerprint = key
        self.put_bytes(
            "binding",
            key,
            artifacts.dump_binding(
                schema, model, compact=self.compact_artifacts
            ),
        )
        self._remember_binding(key, validate_on_mutate, binding)
        obs.count("cache.bind.outcome", outcome="compiled")
        return binding

    def _remember_binding(self, key: str, flag: bool, binding: Any) -> None:
        with self._lock:
            self._bindings[(key, flag)] = binding
            self._bindings.move_to_end((key, flag))
            while len(self._bindings) > self._binding_entries:
                self._bindings.popitem(last=False)
                self.stats.evictions += 1

    def schema(self, schema_text: str, location: str | None = None):
        """Cached parse of raw schema text (the validator's input).

        Unlike :meth:`bind` the schema is *not* normalized — it is
        exactly what :func:`repro.xsd.parse_schema` returns, plus
        prewarmed DFAs.
        """
        from repro.xsd.schema_parser import parse_schema

        key = fingerprint("schema", schema_text, location=location)
        payload = self.get_bytes("schema", key)
        if payload is not None:
            try:
                schema = artifacts.load_schema(payload)
            except ArtifactError:
                self.stats.record_corrupt("schema")
                self.invalidate(key)
            else:
                if _related_documents_fresh(schema):
                    return schema
                self.invalidate(key)
        schema = parse_schema(schema_text, location=location)
        self.put_bytes(
            "schema",
            key,
            artifacts.dump_schema(schema, compact=self.compact_artifacts),
        )
        return schema

    # -- text artifacts (server pages, generated modules, IDL) ------------------

    def get_text(self, kind: str, key: str) -> str | None:
        payload = self.get_bytes(kind, key)
        if payload is None:
            return None
        try:
            return artifacts.load_text(payload)
        except ArtifactError:
            self.stats.record_corrupt(kind)
            self.invalidate(key)
            return None

    def put_text(self, kind: str, key: str, text: str) -> None:
        self.put_bytes(kind, key, artifacts.dump_text(text))

    # -- JSON artifacts (bulk-ingest verdicts, reports) --------------------------

    def get_json(self, kind: str, key: str) -> Any | None:
        text = self.get_text(kind, key)
        if text is None:
            return None
        try:
            return json.loads(text)
        except ValueError:
            self.stats.record_corrupt(kind)
            self.invalidate(key)
            return None

    def put_json(self, kind: str, key: str, value: Any) -> None:
        self.put_text(kind, key, json.dumps(value, sort_keys=True))


_default_cache: ReproCache | None = None
_default_lock = threading.Lock()


def default_cache() -> ReproCache:
    """The process-wide cache used when entry points get ``cache=None``.

    Memory-only unless ``$REPRO_CACHE_DIR`` is set, in which case it is
    persistent at that directory.
    """
    global _default_cache
    with _default_lock:
        if _default_cache is None:
            directory = os.environ.get(CACHE_DIR_ENV)
            _default_cache = ReproCache(directory=directory or None)
        return _default_cache


def set_default_cache(cache: ReproCache | None) -> None:
    """Replace (or with ``None``: reset) the process-wide cache."""
    global _default_cache
    with _default_lock:
        _default_cache = cache
