"""The in-process workloads: ``ingest_typed``, ``validate_mixed`` and
``prepare_cold``.  Each is a closed loop with one caller."""

from __future__ import annotations

import os
import random
import time

from repro import ReproCache, obs
from repro.errors import ReproError
from repro.ingest import parse_typed
from repro.xsd import StreamingValidator

import gen
import lanes
import prep
from common import Run, median, percentile, self_peak_rss_mb, work_dir

#: documents generated per second of measuring: a pass over the corpus
#: takes about a third of the run, so each document is timed ~3 times
INGEST_DOCS_PER_S = 14
VALIDATE_DOCS_PER_S = 12
SIZE_LOW, SIZE_HIGH = 1024, 200 * 1024
#: set-ups per run; ``setup_s`` is their median
SETUPS = 11
#: documents beyond the tail percentile (p95 on a 200-document corpus)
TAIL_BEYOND = 10


def _counter_sum(counters: dict, prefix: str, needle: str = "") -> int:
    return sum(
        value
        for key, value in counters.items()
        if key.startswith(prefix) and needle in key
    )


def _setup_layers(run: Run, tracer, setups: int) -> None:
    """Per-preparation times from the decomposed (traced) set-ups."""
    selfs = tracer.self_times()
    for span, metric in (
        ("xsd.parse_schema", "xsd.parse_schema_ms"),
        ("core.normalize", "core.normalize_ms"),
        ("core.generate", "core.generate_ms"),
    ):
        if span in selfs:
            run.layers[metric] = selfs[span][1] * 1000.0 / setups
    if "core.bind" in selfs:
        run.layers["core.bind_ms"] = selfs["core.bind"][2] * 1000.0 / setups


def _timed_setups(run: Run, setups: int, make) -> tuple[float, object]:
    """Median set-up time on the reference machine, and the last set-up."""
    ends = []
    raw = []
    prepared = None
    for _ in range(setups):
        run.speed.sample(3)
        started = time.perf_counter()
        prepared = make()
        ends.append(time.perf_counter())
        raw.append(ends[-1] - started)
    run.speed.sample(3)
    run.line("setup_s", median(raw), "s", "raw, median of the set-ups")
    return median(run.speed.scale(t, end) for t, end in zip(raw, ends)), prepared


def _closed_loop(run: Run, docs, seconds: float, tracer, step, check) -> dict:
    """Drive *docs* through *step* in whole passes until *seconds* are up.

    Every document is processed the same number of times; its latency
    is the median of its passes on the reference machine.  Also returns
    the raw per-document medians and the gaps between one operation's
    end and the next one's start (the benchmark's own lateness in a
    closed loop).
    """
    samples: list[list[tuple[float, float]]] = [[] for _ in docs]
    gaps: list[float] = []
    deadline = time.perf_counter() + seconds
    previous_end = None
    op = 0
    passes = 0
    run.speed.sample(5)
    while passes == 0 or time.perf_counter() < deadline:
        for index, doc in enumerate(docs):
            started = time.perf_counter()
            if previous_end is not None:
                gaps.append(started - previous_end)
            with tracer.span("op", op=op):
                outcome = step(doc)
            ended = time.perf_counter()
            samples[index].append((ended - started, ended))
            check(doc, outcome, run.tally)
            run.speed.maybe()
            op += 1
            previous_end = time.perf_counter()
        passes += 1
    run.speed.sample(5)
    return {
        "latencies": [
            median(run.speed.scale(t, end) for t, end in values) for values in samples
        ],
        "raw": [median(t for t, _ in values) for values in samples],
        "passes": passes,
        "gaps": gaps,
    }


def _doc_metrics(run: Run, docs, loop: dict, aux: list[int], aux_name: str) -> None:
    lat = loop["latencies"]
    raw = loop["raw"]
    busy = sum(lat)
    nbytes = sum(doc.nbytes for doc in docs)
    run.metrics["p50_ms"] = median(lat) * 1000.0
    # the tail is taken where at least ten documents lie beyond it
    tail_q = 100.0 * (1.0 - TAIL_BEYOND / len(lat))
    run.metrics["tail_ms"] = percentile(lat, tail_q) * 1000.0
    run.metrics["aux_p50_ms"] = median(lat[i] for i in aux) * 1000.0
    run.metrics["throughput_per_s"] = len(lat) / busy
    run.pace = run.metrics["throughput_per_s"]
    run.line(
        "documents",
        len(lat),
        "count",
        f"{len(aux)} {aux_name}, {loop['passes']} passes",
    )
    for name, value, raw_value in (
        ("doc_p50_ms", run.metrics["p50_ms"], median(raw) * 1000.0),
        (f"doc_p{tail_q:.0f}_ms", run.metrics["tail_ms"], percentile(raw, tail_q) * 1000.0),
        (f"{aux_name}_doc_p50_ms", run.metrics["aux_p50_ms"], median(raw[i] for i in aux) * 1000.0),
    ):
        run.line(name, value, "ms", f"raw {raw_value:.4f}")
    run.line("throughput_mb_s", nbytes / busy / 1e6, "MB/s", f"raw {nbytes / sum(raw) / 1e6:.4f}")
    run.line("docs_per_s", run.metrics["throughput_per_s"], "1/s", f"raw {len(raw) / sum(raw):.4f}")
    run.line("machine_speed_index", run.speed.index(), "ratio", "calibration CPU time over reference")


# -- ingest_typed ---------------------------------------------------------------


def ingest_typed(seed: int, seconds: float, tracer, setups: int = SETUPS) -> Run:
    run = Run()
    rng = random.Random(seed)
    docs = gen.corpus(
        rng,
        [("po", 0.5), ("xhtml", 0.5)],
        max(20, round(INGEST_DOCS_PER_S * seconds)),
        SIZE_LOW,
        SIZE_HIGH,
        0.05,
    )
    setup_s, p = _timed_setups(
        run,
        setups,
        lambda: prep.prepare(
            tracer,
            schemas=("po", "xhtml", "wml"),
            decompose=tracer.enabled,
            queries=True,
        ),
    )
    run.metrics["setup_s"] = setup_s
    if tracer.enabled:
        _setup_layers(run, tracer, setups)
        obs.enable(reset=True)
    restarted: set[int] = set()
    last_restarts = [0]

    def step(doc):
        try:
            with tracer.span("ingest.parse_typed"):
                root = parse_typed(p.bindings[doc.family], doc.text)
            with tracer.span("query.apply"):
                hits = p.queries[doc.family].apply(root)
            with tracer.span("query.transform_text"):
                view = p.programs[doc.family].transform_text(root)
        except ReproError as error:
            return error
        return len(hits), view

    def check(doc, outcome, tally):
        if tracer.enabled:
            restarts = _counter_sum(
                obs.snapshot()["counters"], "ingest.turbo{", "outcome=restart"
            )
            if restarts != last_restarts[0]:
                restarted.add(id(doc))
                last_restarts[0] = restarts
        if isinstance(outcome, Exception):
            if doc.valid:
                tally.fail(f"valid {doc.family} document rejected: {outcome}")
            elif f"<{doc.fault_element}>" not in str(outcome):
                tally.fail(
                    f"{doc.family} {doc.mutation}: error does not name "
                    f"<{doc.fault_element}>: {outcome}"
                )
            else:
                tally.ok()
        elif not doc.valid:
            tally.fail(f"invalid {doc.family} ({doc.mutation}) accepted")
        elif outcome[0] != doc.query_hits:
            tally.fail(f"{doc.family} query: {outcome[0]} hits, want {doc.query_hits}")
        elif outcome[1] != doc.view:
            tally.fail(f"{doc.family} transform view differs from the reference")
        else:
            tally.ok()

    loop = _closed_loop(run, docs, seconds, tracer, step, check)
    invalid = [i for i, doc in enumerate(docs) if not doc.valid]
    _doc_metrics(run, docs, loop, invalid, "invalid")
    run.metrics["peak_rss_mb"] = self_peak_rss_mb()
    if tracer.enabled:
        counters = obs.snapshot()["counters"]
        obs.disable()
        seen_kb = loop["passes"] * sum(doc.nbytes for doc in docs) / 1024.0
        n = loop["passes"] * len(docs)
        run.layers["ingest.parse_typed_ms_per_kb"] = (
            tracer.total("ingest.parse_typed") * 1000.0 / seen_kb
        )
        run.layers["ingest.turbo_hit_ratio"] = (
            _counter_sum(counters, "ingest.turbo{", "outcome=hit") / n
        )
        valid_ops = len(tracer.durations("query.apply"))
        run.layers["query.apply_ms_per_doc"] = (
            tracer.total("query.apply") * 1000.0 / valid_ops
        )
        run.layers["query.transform_text_ms_per_doc"] = (
            tracer.total("query.transform_text") * 1000.0 / valid_ops
        )
        run.layers["loadgen.lag_p99_ms"] = percentile(loop["gaps"], 99) * 1000.0
        segment = _counter_sum(counters, "query.transform{", "route=segment")
        routed = _counter_sum(counters, "query.transform{")
        if routed:
            run.layers["pxml.segment_route_ratio"] = segment / routed
        redo = [doc for doc in docs if id(doc) in restarted]
        if redo:
            run.layers["ingest.restart_ms_per_kb"] = lanes.restart_ms_per_kb(
                p.bindings, redo
            )
        _same_doc_lanes(run, p.bindings, docs, rng)
    return run


def _same_doc_lanes(run: Run, bindings, docs, rng, sample: int = 12) -> None:
    """Tokenize / verdict / step / typed-build lanes on a sample of the
    workload's own valid purchase orders and XHTML pages."""
    kb = {"tokenize": 0.0, "verdict": 0.0, "step": 0.0, "typed_build": 0.0}
    total_kb = 0.0
    for family in ("po", "xhtml"):
        pool = [d for d in docs if d.family == family and d.valid]
        texts = [d.text for d in rng.sample(pool, min(sample, len(pool)))]
        size = sum(len(t.encode("utf-8")) for t in texts) / 1024.0
        validator = StreamingValidator(bindings[family].schema)
        for lane, value in lanes.core_lanes(bindings[family], validator, texts, 1).items():
            kb[lane] += value * size
        total_kb += size
    run.layers["xml.tokenize_ms_per_kb"] = kb["tokenize"] / total_kb
    run.layers["xsd.stream.step_ms_per_kb"] = kb["step"] / total_kb
    run.layers.setdefault("xsd.stream.validate_ms_per_kb", kb["verdict"] / total_kb)
    run.layers.setdefault("ingest.parse_typed_ms_per_kb", kb["typed_build"] / total_kb)
    run.layers["xsd.verdict_over_build"] = kb["verdict"] / kb["typed_build"]


# -- validate_mixed ---------------------------------------------------------------


def validate_mixed(seed: int, seconds: float, tracer, setups: int = SETUPS) -> Run:
    run = Run()
    rng = random.Random(seed)
    docs = gen.corpus(
        rng,
        [("po", 0.35), ("xhtml", 0.35)] + [(f, 0.1) for f in prep.FAMILIES],
        max(20, round(VALIDATE_DOCS_PER_S * seconds)),
        SIZE_LOW,
        SIZE_HIGH,
        0.25,
    )

    def make():
        prepared = prep.prepare(
            tracer,
            schemas=("po", "xhtml") + prep.FAMILIES,
            decompose=tracer.enabled,
        )
        prepared.validators.update(
            (name, StreamingValidator(binding.schema))
            for name, binding in prepared.bindings.items()
        )
        return prepared

    setup_s, p = _timed_setups(run, setups, make)
    run.metrics["setup_s"] = setup_s
    if tracer.enabled:
        _setup_layers(run, tracer, setups)
        obs.enable(reset=True)
    unlocated = [0]

    def step(doc):
        span = "xsd.stream.namespaced" if doc.family in prep.FAMILIES else "xsd.stream.validate"
        with tracer.span(span):
            try:
                return p.validators[doc.family].validate_text(doc.text)
            except ReproError as error:
                return error

    def check(doc, errors, tally):
        if isinstance(errors, Exception):
            tally.fail(f"{doc.family}: validate_text raised {errors!r}")
        elif doc.valid:
            if errors:
                tally.fail(f"valid {doc.family} document rejected: {errors[0]}")
            else:
                tally.ok()
        elif not errors:
            tally.fail(f"invalid {doc.family} ({doc.mutation}) accepted")
        elif errors[0].path != doc.fault_path:
            tally.fail(
                f"{doc.family} {doc.mutation}: first error at {errors[0].path}, "
                f"labelled {doc.fault_path}"
            )
        else:
            tally.ok()
            if getattr(errors[0], "location", None) is None:
                unlocated[0] += 1

    loop = _closed_loop(run, docs, seconds, tracer, step, check)
    namespaced = [i for i, doc in enumerate(docs) if doc.family in prep.FAMILIES]
    _doc_metrics(run, docs, loop, namespaced, "namespaced")
    run.line("first_errors_without_line_col", unlocated[0], "count")
    run.metrics["peak_rss_mb"] = self_peak_rss_mb()
    if tracer.enabled:
        obs.disable()
        plain_kb = ns_kb = 0.0
        for doc in docs:
            if doc.family in prep.FAMILIES:
                ns_kb += loop["passes"] * doc.nbytes / 1024.0
            else:
                plain_kb += loop["passes"] * doc.nbytes / 1024.0
        run.layers["xsd.stream.validate_ms_per_kb"] = (
            tracer.total("xsd.stream.validate") * 1000.0 / plain_kb
        )
        run.layers["xsd.stream.namespaced_ms_per_kb"] = (
            tracer.total("xsd.stream.namespaced") * 1000.0 / ns_kb
        )
        run.layers["xsd.stream.unlocated_errors"] = unlocated[0]
        run.layers["loadgen.lag_p99_ms"] = percentile(loop["gaps"], 99) * 1000.0
        _same_doc_lanes(run, p.bindings, docs, rng)
        run.layers.update(lanes.table_lanes(seed, p.bindings, p.validators))
    return run


# -- prepare_cold ---------------------------------------------------------------

PREPARE_SCHEMAS = ("po", "xhtml", "wml") + prep.FAMILIES


def _round(cache, tracer, schemas) -> prep.Prepared:
    return prep.prepare(
        tracer, schemas=schemas, cache=cache, queries=True, templates=True
    )


def _check_round(p: prep.Prepared, instances, key: int, tally) -> None:
    """The gauntlet verdicts their file names give, and one page render
    compared with the reference substitution."""
    for family in prep.FAMILIES:
        validator = StreamingValidator(p.bindings[family].schema)
        for name, text, expected in instances[family]:
            valid = not validator.validate_text(text)
            if valid != expected:
                tally.fail(f"{family}/{name}: verdict {valid}, file name says {expected}")
            else:
                tally.ok()
    values = gen.small_values(key)
    if p.templates["small"].render_text(**values) != gen.substitute(
        gen.SMALL_TEMPLATE, values
    ):
        tally.fail("small page template renders differently from the reference")
    else:
        tally.ok()


def prepare_cold(seed: int, seconds: float, tracer, setups: int = SETUPS) -> Run:
    run = Run()
    rng = random.Random(seed)
    # the seed picks the order the schemas are bound in and the hole
    # values of the checked render; the schemas themselves are fixed
    schemas = tuple(rng.sample(PREPARE_SCHEMAS, len(PREPARE_SCHEMAS)))
    instances = {family: prep.family_instances(family) for family in prep.FAMILIES}
    base = work_dir("prepare")
    warm_dirs = []

    def fill():
        directory = os.path.join(base, f"warm-{len(warm_dirs)}")
        warm_dirs.append(directory)
        return _round(ReproCache(directory), tracer, schemas)

    setup_s, _ = _timed_setups(run, setups, fill)
    run.metrics["setup_s"] = setup_s
    warm_dir = warm_dirs[-1]
    if tracer.enabled:
        # the decomposed binds give the per-step preparation times
        for _ in range(setups):
            prep.prepare(tracer, schemas=schemas, decompose=True)
        _setup_layers(run, tracer, setups)
        first_span = len(tracer.names)
    cold: list[float] = []
    warm: list[float] = []
    warm_hits = warm_misses = 0
    template_ms: list[float] = []
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        is_warm = i % 2 == 1
        cache = ReproCache(warm_dir) if is_warm else ReproCache()
        mark = len(tracer.names)
        started = time.perf_counter()
        with tracer.span("warm_round" if is_warm else "cold_round", op=i):
            p = _round(cache, tracer, schemas)
        ended = time.perf_counter()
        (warm if is_warm else cold).append((ended - started, ended))
        if is_warm:
            warm_hits += cache.stats.hits
            warm_misses += cache.stats.misses
        elif tracer.enabled:
            template_ms.append(
                sum(
                    tracer.ends[k] - tracer.starts[k]
                    for k in range(mark, len(tracer.names))
                    if tracer.names[k] == "pxml.template_compile"
                )
                * 1000.0
            )
        _check_round(p, instances, rng.randrange(4096), run.tally)
        run.speed.maybe()
        i += 1
        if ended >= deadline and warm:
            break
    run.speed.sample(5)
    cold_ref = [run.speed.scale(t, end) for t, end in cold]
    warm_ref = [run.speed.scale(t, end) for t, end in warm]
    cold_raw = [t for t, _ in cold]
    warm_raw = [t for t, _ in warm]
    run.metrics["p50_ms"] = median(cold_ref) * 1000.0
    # rounds repeat identical work, so their tail is taken where about a
    # tenth of them lie beyond it, not at p99
    run.metrics["tail_ms"] = percentile(cold_ref, 90) * 1000.0
    run.metrics["aux_p50_ms"] = median(warm_ref) * 1000.0
    run.metrics["throughput_per_s"] = len(cold_ref) / sum(cold_ref)
    run.metrics["peak_rss_mb"] = self_peak_rss_mb()
    run.pace = (len(cold) + len(warm)) / (sum(cold_ref) + sum(warm_ref))
    run.line("rounds", len(cold) + len(warm), "count", f"{len(cold)} cold, {len(warm)} warm")
    run.line("cold_prepare_ms", run.metrics["p50_ms"], "ms", f"raw {median(cold_raw) * 1000:.4f}")
    run.line("cold_prepare_p90_ms", run.metrics["tail_ms"], "ms", f"raw {percentile(cold_raw, 90) * 1000:.4f}")
    run.line("warm_prepare_ms", run.metrics["aux_p50_ms"], "ms", f"raw {median(warm_raw) * 1000:.4f}")
    run.line("machine_speed_index", run.speed.index(), "ratio", "calibration CPU time over reference")
    run.line("warm_cache_hit_ratio", warm_hits / max(1, warm_hits + warm_misses), "ratio")
    if tracer.enabled:
        warm_binds = [
            tracer.ends[k] - tracer.starts[k]
            for k in range(first_span, len(tracer.names))
            if tracer.names[k] == "cache.bind"
            and tracer.names[_round_of(tracer, k)] == "warm_round"
        ]
        run.layers["cache.warm_bind_ms"] = (
            sum(warm_binds) * 1000.0 / len(warm) / len(PREPARE_SCHEMAS)
        )
        run.layers["cache.hit_ratio"] = warm_hits / max(1, warm_hits + warm_misses)
        run.layers["pxml.template_compile_ms"] = median(template_ms)
    return run


def _round_of(tracer, index: int) -> int:
    while tracer.parents[index] >= 0:
        index = tracer.parents[index]
    return index
