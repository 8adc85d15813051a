"""High-throughput ingest: fused parse-to-typed-tree + bulk validation.

Two entry points:

* :func:`parse_typed` / :func:`ingest` — one document to a typed V-DOM
  tree in a single pass.  The table-driven turbo lane
  (:func:`table_parse`) scans the source with one precompiled regex
  alternation and steps flat integer DFA tables; documents outside its
  subset restart through :func:`fused_parse` (events drive the
  content-model automata during parsing; no generic DOM intermediate),
  which in turn falls back to the legacy parse → build → bind route for
  documents the fused walk does not cover;
* :func:`validate_files` — a whole corpus through a persistent
  :class:`ValidationPool` of workers warm-started from the persistent
  compilation cache, consistent-hash sharded into document batches,
  aggregated into a JSON-ready report.  The pool itself is reusable
  across runs (and backs the serve tier's ``POST /-/validate``
  fan-out).
"""

from repro.ingest.bulk import (
    auto_batch_size,
    effective_jobs,
    validate_files,
)
from repro.ingest.pool import HashRing, ValidationPool
from repro.ingest.fused import (
    IngestFallback,
    IngestResult,
    fused_parse,
    ingest,
    legacy_parse,
    parse_typed,
)
from repro.ingest.table_driven import table_parse

__all__ = [
    "HashRing",
    "IngestFallback",
    "IngestResult",
    "ValidationPool",
    "auto_batch_size",
    "effective_jobs",
    "fused_parse",
    "ingest",
    "legacy_parse",
    "parse_typed",
    "table_parse",
    "validate_files",
]
