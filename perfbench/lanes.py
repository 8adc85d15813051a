"""Subtractive lanes: one layer's public function over the same texts.

Each lane times a whole pass over a document set and reports the
median pass in ms per KB, the method ROADMAP's baseline table uses:
tokenize only (``PullParser``), stepping over pre-parsed events
(``validate_events``), verdict only (``validate_text``) and a typed
build (``parse_typed``).
"""

from __future__ import annotations

import random
import time

from repro.errors import ReproError
from repro.ingest import fused_parse, parse_typed
from repro.xml import PullParser

import gen
from common import median

#: document sizes of ROADMAP's baseline table (KB)
TABLE_SIZES = {"po": 47.5, "xhtml": 55.3}


def _kb(texts: list[str]) -> float:
    return sum(len(text.encode("utf-8")) for text in texts) / 1024.0


def ms_per_kb(action, texts: list[str], repeats: int = 3) -> float:
    passes = []
    for _ in range(repeats):
        started = time.perf_counter()
        for text in texts:
            action(text)
        passes.append(time.perf_counter() - started)
    return median(passes) * 1000.0 / _kb(texts)


def _tolerant(action):
    """Run *action*, treating a program verdict (a raised ReproError)
    as a completed operation."""

    def run(text):
        try:
            action(text)
        except ReproError:
            pass

    return run


def core_lanes(binding, validator, texts: list[str], repeats: int = 3) -> dict[str, float]:
    """tokenize / step / verdict / typed-build ms per KB on *texts*."""
    events = {text: list(PullParser(text)) for text in texts}
    return {
        "tokenize": ms_per_kb(lambda t: list(PullParser(t)), texts, repeats),
        "step": ms_per_kb(lambda t: validator.validate_events(events[t]), texts, repeats),
        "verdict": ms_per_kb(validator.validate_text, texts, repeats),
        "typed_build": ms_per_kb(
            _tolerant(lambda t: parse_typed(binding, t)), texts, repeats
        ),
    }


def restart_ms_per_kb(bindings, docs) -> float:
    """``fused_parse`` (the turbo lane's restart target) on *docs*."""
    binding_of = {doc.text: bindings[doc.family] for doc in docs}
    return ms_per_kb(
        _tolerant(lambda t: fused_parse(binding_of[t], t)),
        list(binding_of),
        3,
    )


def table_lanes(seed: int, bindings, validators, docs_per_family: int = 4) -> dict[str, float]:
    """ROADMAP's baseline table, per KB, on purchase orders and XHTML
    pages of the table's document sizes."""
    rng = random.Random(seed ^ 0x7AB1E)
    out = {}
    for family, size_kb in TABLE_SIZES.items():
        texts = [
            gen.MAKERS[family](rng, int(size_kb * 1024)).text
            for _ in range(docs_per_family)
        ]
        lanes = core_lanes(bindings[family], validators[family], texts)
        for lane, value in lanes.items():
            out[f"lane.{family}.{lane}_ms_per_kb"] = value
    return out
