"""Gauntlet corpus: every family binds, every lane agrees byte for byte."""

import json
import os

import pytest

from tests.integration import corpus_runner

FAMILIES = [name for name, _ in corpus_runner.iter_cases()]


def test_corpus_has_at_least_three_families():
    assert len(FAMILIES) >= 3


def test_every_family_is_multi_document_and_namespaced():
    from repro.xsd.schema_parser import parse_schema_file

    for _, case_dir in corpus_runner.iter_cases():
        schema = parse_schema_file(
            os.path.join(case_dir, "schema", "main.xsd")
        )
        assert schema.uses_namespaces
        assert len(schema.related_documents) >= 1


@pytest.mark.parametrize("family", FAMILIES)
def test_family_validates_identically_across_lanes(family, tmp_path):
    case_dir = os.path.join(corpus_runner.CORPUS_DIR, family)
    report = corpus_runner.run_case(
        case_dir, cache_dir=str(tmp_path / "cache"), use_pool=False
    )
    for instance in report["instances"]:
        assert instance["valid"] == instance["expected_valid"], instance
        assert instance["agreed"], instance
        assert instance["lanes_identical"], instance
        # Every corpus root is sniffable, so the lazy lane always ran.
        assert instance["lazy_identical"] is True, instance
    assert report["ok"]


@pytest.mark.parametrize("family", ["secreport"])
def test_family_through_pool_lane(family, tmp_path):
    case_dir = os.path.join(corpus_runner.CORPUS_DIR, family)
    report = corpus_runner.run_case(
        case_dir, cache_dir=str(tmp_path / "cache"), use_pool=True
    )
    assert "pool" in report["lanes"]
    assert report["ok"]


def test_cache_round_trip_binds_warm(tmp_path):
    """A second cache with the same directory reloads the compiled
    binding from disk (format v5) and validates identically."""
    from repro.cache.manager import ReproCache
    from repro.xsd.stream import StreamingValidator

    case_dir = os.path.join(corpus_runner.CORPUS_DIR, "secreport")
    schema_path = os.path.join(case_dir, "schema", "main.xsd")
    with open(schema_path, encoding="utf-8") as handle:
        schema_text = handle.read()
    instance = os.path.join(
        case_dir, "instances", "invalid-bad-severity.xml"
    )
    with open(instance, encoding="utf-8") as handle:
        text = handle.read()

    first = ReproCache(tmp_path / "cache")
    cold = first.bind(schema_text, location=schema_path)
    cold_verdict = json.dumps(
        corpus_runner._verdict(StreamingValidator(cold.schema).validate_text, text),
        sort_keys=True,
    )
    assert first.stats.misses >= 1

    second = ReproCache(tmp_path / "cache")
    warm = second.bind(schema_text, location=schema_path)
    warm_verdict = json.dumps(
        corpus_runner._verdict(StreamingValidator(warm.schema).validate_text, text),
        sort_keys=True,
    )
    assert second.stats.hits >= 1
    assert second.stats.misses == 0
    assert warm_verdict == cold_verdict


def test_editing_an_included_document_invalidates_warm_cache(tmp_path):
    """The related-documents manifest catches edits to files reached
    through include/import even when the entry schema text is unchanged."""
    import shutil

    from repro.cache.manager import ReproCache

    src = os.path.join(corpus_runner.CORPUS_DIR, "secreport", "schema")
    work = tmp_path / "schema"
    shutil.copytree(src, work)
    schema_path = str(work / "main.xsd")
    with open(schema_path, encoding="utf-8") as handle:
        schema_text = handle.read()

    cache = ReproCache(tmp_path / "cache")
    cache.bind(schema_text, location=schema_path)

    common = work / "common.xsd"
    edited = common.read_text(encoding="utf-8").replace(
        '<xsd:enumeration value="high"/>',
        '<xsd:enumeration value="critical"/>',
    )
    common.write_text(edited, encoding="utf-8")

    rebound = ReproCache(tmp_path / "cache")
    binding = rebound.bind(schema_text, location=schema_path)
    assert rebound.stats.invalidations >= 1
    severity = binding.schema.attributes[
        "{http://example.org/common}severity"
    ]
    with pytest.raises(Exception):
        severity.resolved_type().validate("high")
    severity.resolved_type().validate("critical")
