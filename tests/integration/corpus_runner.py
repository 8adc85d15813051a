"""Real-world schema gauntlet: bind every corpus family, validate every
instance through every lane, and insist the verdicts agree byte for byte.

Each family under ``corpus/`` is a directory with::

    <family>/schema/main.xsd     entry schema (may include/import siblings)
    <family>/instances/*.xml     valid-*.xml and invalid-*.xml documents

``run_case`` binds the family once per lane and validates each instance
through:

* ``events``   — ``validate_events(PullParser(text))``, the event walk
  over the object DFAs (the golden reference),
* ``text``     — ``validate_text``, the turbo walk over the flat integer
  tables with its restart into the event walk,
* ``warm``     — a cache-mediated binding (``ReproCache.bind``) driving a
  streaming validator's ``validate_text``, the serve tier's shape,
* ``pool``     — a :class:`ValidationPool` worker process (optional),
* ``lazy``     — a per-subset binding materialised from the sniffed
  instance root (skipped when the root cannot be sniffed).

All lanes must produce the same JSON verdict (``error_entry`` list), and
the DOM validator must agree on validity.  The module is import-light so
``scripts/run_gauntlet.py`` can reuse it outside pytest.
"""

from __future__ import annotations

import json
import os
from typing import Any, Iterator

CORPUS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "corpus")


def iter_cases(corpus_dir: str = CORPUS_DIR) -> Iterator[tuple[str, str]]:
    """Yield ``(family name, family directory)`` in sorted order."""
    for name in sorted(os.listdir(corpus_dir)):
        path = os.path.join(corpus_dir, name)
        if os.path.isdir(os.path.join(path, "schema")):
            yield name, path


def iter_instances(case_dir: str) -> Iterator[tuple[str, str, bool]]:
    """Yield ``(instance name, path, expected validity)`` for one family."""
    instances = os.path.join(case_dir, "instances")
    for name in sorted(os.listdir(instances)):
        if not name.endswith(".xml"):
            continue
        if name.startswith("valid-"):
            expected = True
        elif name.startswith("invalid-"):
            expected = False
        else:
            raise ValueError(
                f"instance {name!r} must start with valid- or invalid-"
            )
        yield name, os.path.join(instances, name), expected


def _verdict(validate, text: str) -> dict[str, Any]:
    """The serve-tier verdict shape for one document through one lane
    (*validate* maps a text to its error list)."""
    from repro.errors import XmlSyntaxError
    from repro.xsd.stream import error_entry

    try:
        errors = validate(text)
    except XmlSyntaxError as error:
        errors = [error]
    return {
        "valid": not errors,
        "errors": [error_entry(error) for error in errors],
    }


def _dom_valid(schema, text: str) -> bool:
    from repro.dom import parse_document
    from repro.xsd.validator import SchemaValidator

    return not SchemaValidator(schema).validate(parse_document(text))


def run_case(
    case_dir: str,
    *,
    cache_dir: str | None = None,
    use_pool: bool = True,
) -> dict[str, Any]:
    """Bind one family and push every instance through every lane.

    Returns a JSON-serialisable report::

        {"family": ..., "schema": ..., "documents": N,
         "related_documents": N, "lanes": [...],
         "instances": [{"name", "expected_valid", "valid", "agreed",
                        "lanes_identical", "lazy_identical", "errors"}],
         "ok": bool}
    """
    from repro.cache.manager import ReproCache
    from repro.ingest.pool import ValidationPool
    from repro.xml.parser import PullParser
    from repro.xsd.schema_parser import parse_schema_file
    from repro.xsd.stream import StreamingValidator
    from repro.xsd.subset import sniff_root_key

    schema_path = os.path.join(case_dir, "schema", "main.xsd")
    with open(schema_path, "r", encoding="utf-8") as handle:
        schema_text = handle.read()

    schema = parse_schema_file(schema_path)
    cache = ReproCache(cache_dir)
    warm_binding = cache.bind(schema_text, location=schema_path)

    golden = StreamingValidator(schema)
    lanes: dict[str, Any] = {
        "events": lambda text: golden.validate_events(PullParser(text)),
        "text": StreamingValidator(schema).validate_text,
        "warm": StreamingValidator(warm_binding.schema).validate_text,
    }
    pool = None
    if use_pool:
        pool = ValidationPool(
            schema_text,
            workers=1,
            cache_dir=cache_dir,
            schema_location=schema_path,
        )

    report: dict[str, Any] = {
        "family": os.path.basename(case_dir),
        "schema": schema_path,
        "namespaces": sorted(uri for uri in schema.namespaces if uri),
        "related_documents": len(schema.related_documents),
        "lanes": list(lanes) + (["pool"] if pool else []) + ["lazy"],
        "instances": [],
        "ok": True,
    }
    try:
        for name, path, expected in iter_instances(case_dir):
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
            verdicts = {
                lane: _verdict(validate, text)
                for lane, validate in lanes.items()
            }
            if pool is not None:
                verdicts["pool"] = pool.submit_text(text).result(timeout=60)

            root_key = sniff_root_key(text)
            lazy_identical = None
            if root_key is not None and root_key in schema.elements:
                lazy_binding = cache.bind(
                    schema_text,
                    location=schema_path,
                    lazy_roots=(root_key,),
                )
                verdicts["lazy"] = _verdict(
                    StreamingValidator(lazy_binding.schema).validate_text, text
                )
                lazy_identical = verdicts["lazy"] == verdicts["events"]

            serialized = {
                lane: json.dumps(verdict, sort_keys=True)
                for lane, verdict in verdicts.items()
            }
            lanes_identical = len(set(serialized.values())) == 1
            valid = verdicts["events"]["valid"]
            dom_agrees = _dom_valid(schema, text) == valid

            entry = {
                "name": name,
                "expected_valid": expected,
                "valid": valid,
                "agreed": valid == expected and dom_agrees,
                "lanes_identical": lanes_identical,
                "lazy_identical": lazy_identical,
                "errors": verdicts["events"]["errors"],
            }
            report["instances"].append(entry)
            if not (
                entry["agreed"]
                and lanes_identical
                and lazy_identical in (True, None)
            ):
                report["ok"] = False
    finally:
        if pool is not None:
            pool.close()
    return report


def run_all(
    *, cache_dir: str | None = None, use_pool: bool = True
) -> list[dict[str, Any]]:
    return [
        run_case(case_dir, cache_dir=cache_dir, use_pool=use_pool)
        for _, case_dir in iter_cases()
    ]
