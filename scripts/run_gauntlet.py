#!/usr/bin/env python
"""Run the real-world schema gauntlet and emit a per-schema report.

Binds every corpus family (multi-namespace, multi-document schemas),
validates every instance through the event-walk (golden), text
(``validate_text``: turbo walk, event walk on restart), warm-cache,
pooled, and lazy-subset lanes, and insists all verdicts are
byte-identical.  Also proves stale-format cache recovery: entries
written under the previous on-disk format version are invisible to the
current reader, which recompiles and then runs warm.

Usage:
    python scripts/run_gauntlet.py [--report gauntlet_report.json]
                                   [--no-pool] [--cache-dir DIR]

Exit status is nonzero when any family fails to bind, any lane
disagrees, or any verdict contradicts the instance's valid-*/invalid-*
name.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))
sys.path.insert(0, os.path.join(REPO, "tests", "integration"))

import corpus_runner  # noqa: E402


def check_stale_format_recovery(cache_dir: str) -> dict:
    """Write a binding under the previous CACHE_FORMAT_VERSION, then
    prove the current reader recompiles past it and runs warm after."""
    import importlib

    from repro.cache.manager import ReproCache

    fingerprint_module = importlib.import_module("repro.cache.fingerprint")
    current = fingerprint_module.CACHE_FORMAT_VERSION

    family = os.path.join(corpus_runner.CORPUS_DIR, "secreport")
    schema_path = os.path.join(family, "schema", "main.xsd")
    with open(schema_path, encoding="utf-8") as handle:
        schema_text = handle.read()

    fingerprint_module.CACHE_FORMAT_VERSION = current - 1
    try:
        ReproCache(cache_dir).bind(schema_text, location=schema_path)
    finally:
        fingerprint_module.CACHE_FORMAT_VERSION = current

    fresh = ReproCache(cache_dir)
    fresh.bind(schema_text, location=schema_path)
    recompiled = fresh.stats.misses >= 1

    warm = ReproCache(cache_dir)
    warm.bind(schema_text, location=schema_path)
    warmed = warm.stats.misses == 0 and warm.stats.hits >= 1

    return {
        "from_version": current - 1,
        "to_version": current,
        "recompiled_past_stale_entry": recompiled,
        "warm_after_recovery": warmed,
        "ok": recompiled and warmed,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--report", default="gauntlet_report.json",
        help="where to write the JSON report",
    )
    parser.add_argument(
        "--no-pool", action="store_true",
        help="skip the worker-pool lane (e.g. cramped CI runners)",
    )
    parser.add_argument(
        "--cache-dir", default=None,
        help="persistent cache directory (default: a fresh temp dir)",
    )
    arguments = parser.parse_args(argv)

    cache_dir = arguments.cache_dir or tempfile.mkdtemp(prefix="gauntlet-")
    reports = []
    ok = True
    for name, case_dir in corpus_runner.iter_cases():
        report = corpus_runner.run_case(
            case_dir,
            cache_dir=os.path.join(cache_dir, name),
            use_pool=not arguments.no_pool,
        )
        status = "ok" if report["ok"] else "FAILED"
        print(
            f"{name}: {status} — {len(report['instances'])} instance(s), "
            f"{report['related_documents']} related document(s), "
            f"namespaces: {', '.join(report['namespaces'])}"
        )
        for instance in report["instances"]:
            marker = (
                "ok"
                if instance["agreed"]
                and instance["lanes_identical"]
                and instance["lazy_identical"] in (True, None)
                else "FAILED"
            )
            print(
                f"  [{marker}] {instance['name']}: valid={instance['valid']} "
                f"lanes_identical={instance['lanes_identical']} "
                f"lazy_identical={instance['lazy_identical']}"
            )
        reports.append(report)
        ok = ok and report["ok"]

    recovery = check_stale_format_recovery(os.path.join(cache_dir, "_format"))
    print(
        "stale-format recovery "
        f"(v{recovery['from_version']} -> v{recovery['to_version']}): "
        + ("ok" if recovery["ok"] else "FAILED")
    )
    ok = ok and recovery["ok"]

    payload = {
        "families": reports,
        "stale_format_recovery": recovery,
        "ok": ok,
    }
    with open(arguments.report, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"report written to {arguments.report}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
