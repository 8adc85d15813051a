"""The tier rule for pickled artifacts.

Only payloads that can reach the directory tier go through
``pickletools.optimize``; a memory-only cache stores plain
``pickle.dumps`` output.  Both forms must load into the same binding.
"""

import os
import pickle
import pickletools

import pytest

from repro.cache import ReproCache, artifacts
from repro.cache.fingerprint import combine
from repro.core.vdom import Binding
from repro.pxml import Template
from repro.schemas import PURCHASE_ORDER_SCHEMA
from repro.xsd.stream import StreamingValidator
from tests.integration import corpus_runner

SHIP_TO = (
    '<shipTo country="US"><name>$n$</name>'
    "<street>123 Maple Street</street><city>Mill Valley</city>"
    "<state>CA</state><zip>90952</zip></shipTo>"
)

FAMILIES = [name for name, _ in corpus_runner.iter_cases()]


def _payload(cache, key):
    """The bytes the cache's innermost tier holds under *key*."""
    store = getattr(cache.store, "disk", cache.store)
    payload = store.get(key)
    assert payload is not None
    return payload


def _template_key(binding):
    return combine(binding.cache_fingerprint, "template", SHIP_TO, param_types=())


def _family_schema(family):
    location = os.path.join(corpus_runner.CORPUS_DIR, family, "schema", "main.xsd")
    with open(location, encoding="utf-8") as handle:
        return handle.read(), location


class TestTierRule:
    def test_only_directory_caches_compact(self, tmp_path):
        assert ReproCache().compact_artifacts is False
        assert ReproCache(tmp_path / "cache").compact_artifacts is True

    def test_memory_only_binding_payload_is_plain_pickle(self):
        cache = ReproCache()
        binding = cache.bind(PURCHASE_ORDER_SCHEMA)
        payload = _payload(cache, binding.cache_fingerprint)
        plain = pickle.dumps(
            (binding.schema, binding.model), protocol=pickle.HIGHEST_PROTOCOL
        )
        assert payload == plain
        assert pickletools.optimize(payload) != payload

    def test_memory_only_template_payload_is_plain_pickle(self):
        cache = ReproCache()
        binding = cache.bind(PURCHASE_ORDER_SCHEMA)
        Template(binding, SHIP_TO, cache=cache)
        payload = _payload(cache, _template_key(binding))
        record = pickle.loads(payload)
        assert record["kind"] == "template"
        assert payload == pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)
        assert pickletools.optimize(payload) != payload

    def test_memory_only_cache_never_runs_the_peephole_pass(self, monkeypatch):
        def refuse(payload):
            raise AssertionError("memory-only artifacts must not be optimized")

        monkeypatch.setattr(artifacts.pickletools, "optimize", refuse)
        cache = ReproCache()
        binding = cache.bind(PURCHASE_ORDER_SCHEMA)
        cache.schema(PURCHASE_ORDER_SCHEMA)
        Template(binding, SHIP_TO, cache=cache)
        assert cache.stats.stores == 3

    def test_directory_payloads_are_already_optimized(self, tmp_path):
        cache = ReproCache(tmp_path / "cache")
        binding = cache.bind(PURCHASE_ORDER_SCHEMA)
        Template(binding, SHIP_TO, cache=cache)
        for key in (binding.cache_fingerprint, _template_key(binding)):
            payload = _payload(cache, key)
            assert pickletools.optimize(payload) == payload
            # the memory tier in front of the disk holds the same bytes
            assert cache.store.memory.get(key) == payload


@pytest.mark.parametrize("family", FAMILIES)
def test_plain_and_compact_payloads_load_the_same_binding(family, tmp_path):
    text, location = _family_schema(family)
    memory = ReproCache()
    disk = ReproCache(tmp_path / "cache")
    key = memory.bind(text, location=location).cache_fingerprint
    assert disk.bind(text, location=location).cache_fingerprint == key
    plain = _payload(memory, key)
    compact = _payload(disk, key)
    assert plain != compact

    loaded = [Binding(*artifacts.load_binding(p)) for p in (plain, compact)]
    names = [
        sorted((str(k), cls.__name__) for k, cls in b.classes.items())
        for b in loaded
    ]
    assert names[0] == names[1]

    validators = [StreamingValidator(b.schema) for b in loaded]
    case_dir = os.path.join(corpus_runner.CORPUS_DIR, family)
    for name, path, expected in corpus_runner.iter_instances(case_dir):
        with open(path, encoding="utf-8") as handle:
            document = handle.read()
        verdicts = [corpus_runner._verdict(v, document) for v in validators]
        assert verdicts[0] == verdicts[1], name
        assert verdicts[0]["valid"] is expected, name
