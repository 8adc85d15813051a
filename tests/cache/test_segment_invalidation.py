"""Segment artifacts: warm loads, chained-key invalidation, corruption.

The render-to-text program rides in the template cache record.  Its key
chains the schema fingerprint with the template source, so editing
either one must miss the cache (never a stale fast path), and a warm
load must rebuild a ``render_text`` that still validates.
"""

import pathlib

import pytest

from repro.cache import ReproCache
from repro.cache.artifacts import (
    ArtifactError,
    dump_template,
    load_template,
)
from repro.dom import serialize
from repro.errors import VdomTypeError
from repro.pxml import Template
from repro.pxml.segments import program_to_record
from repro.schemas import PURCHASE_ORDER_SCHEMA

QUANTITY_SCHEMA_V1 = """\
<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:element name="quantity">
    <xsd:simpleType>
      <xsd:restriction base="xsd:positiveInteger">
        <xsd:maxExclusive value="100"/>
      </xsd:restriction>
    </xsd:simpleType>
  </xsd:element>
</xsd:schema>
"""

#: Same element, tighter facet — a schema edit that MUST invalidate.
QUANTITY_SCHEMA_V2 = QUANTITY_SCHEMA_V1.replace('value="100"', 'value="10"')

TEMPLATE = "<quantity>$q$</quantity>"


def _cache_files(directory) -> set[pathlib.Path]:
    return {
        path
        for path in pathlib.Path(directory).rglob("*.bin")
        if path.is_file()
    }


class TestWarmLoad:
    def test_warm_template_rebuilds_fast_path(self, tmp_path):
        cold_cache = ReproCache.persistent(tmp_path)
        cold_binding = cold_cache.bind(PURCHASE_ORDER_SCHEMA)
        cold = Template(cold_binding, "<comment>$c$</comment>", cache=cold_cache)
        expected = cold.render_text(c="warm & cold")

        # A fresh manager over the same directory = a new process.
        warm_cache = ReproCache.persistent(tmp_path)
        warm_binding = warm_cache.bind(PURCHASE_ORDER_SCHEMA)
        warm = Template(warm_binding, "<comment>$c$</comment>", cache=warm_cache)
        assert warm.checked is None  # loaded, not re-checked
        assert warm._segments is not None
        assert program_to_record(
            warm._segments, warm_binding
        ) == program_to_record(cold._segments, cold_binding)
        assert warm.render_text(c="warm & cold") == expected
        assert warm.render_text(c="warm & cold") == serialize(
            warm.render(c="warm & cold")
        )

    def test_warm_fast_path_still_validates(self, tmp_path):
        cache = ReproCache.persistent(tmp_path)
        Template(cache.bind(QUANTITY_SCHEMA_V1), TEMPLATE, cache=cache)

        warm_cache = ReproCache.persistent(tmp_path)
        warm = Template(
            warm_cache.bind(QUANTITY_SCHEMA_V1), TEMPLATE, cache=warm_cache
        )
        assert warm.checked is None
        with pytest.raises(VdomTypeError, match="maxExclusive"):
            warm.render_text(q=100)


class TestChainedKeyInvalidation:
    def test_template_source_edit_misses(self, tmp_path):
        cache = ReproCache.persistent(tmp_path)
        binding = cache.bind(PURCHASE_ORDER_SCHEMA)
        Template(binding, "<comment>$c$</comment>", cache=cache)
        before = _cache_files(tmp_path)
        Template(binding, "<comment>edited $c$</comment>", cache=cache)
        after = _cache_files(tmp_path)
        assert len(after) == len(before) + 1  # new key, new entry
        # Re-creating the original is a pure hit: no new entry.
        Template(binding, "<comment>$c$</comment>", cache=cache)
        assert _cache_files(tmp_path) == after

    def test_schema_edit_misses_and_revalidates(self, tmp_path):
        cache = ReproCache.persistent(tmp_path)
        v1 = Template(cache.bind(QUANTITY_SCHEMA_V1), TEMPLATE, cache=cache)
        assert v1.render_text(q=50) == "<quantity>50</quantity>"

        # Same template source, edited schema: the chained key changes,
        # so the V1 segment program cannot be (wrongly) reused.
        v2 = Template(cache.bind(QUANTITY_SCHEMA_V2), TEMPLATE, cache=cache)
        with pytest.raises(VdomTypeError, match="maxExclusive"):
            v2.render_text(q=50)

        # And warm loads of each keep their own schema's constraint.
        warm_cache = ReproCache.persistent(tmp_path)
        warm_v1 = Template(
            warm_cache.bind(QUANTITY_SCHEMA_V1), TEMPLATE, cache=warm_cache
        )
        warm_v2 = Template(
            warm_cache.bind(QUANTITY_SCHEMA_V2), TEMPLATE, cache=warm_cache
        )
        assert warm_v1.render_text(q=50) == "<quantity>50</quantity>"
        with pytest.raises(VdomTypeError, match="maxExclusive"):
            warm_v2.render_text(q=50)


class TestCorruptionRecovery:
    def test_bit_rot_recompiles(self, tmp_path):
        cache = ReproCache.persistent(tmp_path)
        binding = cache.bind(PURCHASE_ORDER_SCHEMA)
        cold = Template(binding, "<comment>$c$</comment>", cache=cache)
        expected = cold.render_text(c="x")

        # Corrupt every stored entry (checksums break → the store drops
        # them → a clean recompile, not a crash or a half-loaded record).
        for path in _cache_files(tmp_path):
            path.write_bytes(b"garbage" + path.read_bytes()[:16])

        warm_cache = ReproCache.persistent(tmp_path)
        warm_binding = warm_cache.bind(PURCHASE_ORDER_SCHEMA)
        warm = Template(
            warm_binding, "<comment>$c$</comment>", cache=warm_cache
        )
        assert warm.checked is not None  # recompiled from source
        assert warm.render_text(c="x") == expected
        assert warm_cache.stats.corrupt_entries > 0

    def test_stale_segment_record_raises_artifact_error(self, tmp_path):
        cache = ReproCache.persistent(tmp_path)
        po_binding = cache.bind(PURCHASE_ORDER_SCHEMA)
        template = Template(po_binding, "<comment>$c$</comment>", cache=cache)
        payload = dump_template(
            po_binding,
            template.generated_source,
            "comment",
            {},
            segment_program=template._segments,
            compact=cache.compact_artifacts,
        )
        # Loading against a binding from a different schema: the run
        # owners don't resolve, and the loader refuses the fast path.
        other_binding = cache.bind(QUANTITY_SCHEMA_V1)
        with pytest.raises(ArtifactError, match="stale"):
            load_template(payload, other_binding)
