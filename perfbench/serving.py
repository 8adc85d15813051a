"""``serve_open``: an open loop against a ``vdom-generate serve``
subprocess.

One in-process generator sends a seeded Poisson schedule over two
keep-alive connections.  Latency counts from each request's due time,
so a stall shows on every request queued behind it.  The run first
warms the response cache, then holds the reference rate, then two fixed
higher rates, and ends with a closed loop that keeps both connections
busy: the rate it sustains is the capacity.  Every response is
checked: page bodies against the
escaped hole values pasted into the template text, ``POST /-/validate``
verdicts and first-error paths against the generator's labels.
"""

from __future__ import annotations

import asyncio
import hashlib
import http.client
import json
import math
import os
import random
import select
import signal
import subprocess
import sys
import time

from repro import ReproCache
from repro.schemas import PURCHASE_ORDER_SCHEMA
from repro.serve import build_response, parse_request

import gen
import prep
from common import Run, median, percentile, proc_peak_rss_mb, work_dir

#: the reference rate and the fixed higher rates the report shows
#: latency at (requests/s, offered as a Poisson open loop)
REFERENCE_RATE = 120
RUNGS = (240, 360)
#: shares of the run: warming the cache and holding the reference rate
#: (both at the reference rate), each higher rung, and the saturating
#: closed loop that measures capacity
WARM_SHARE, REFERENCE_SHARE, RUNG_SHARE, SATURATE_SHARE = 0.1, 0.5, 0.1, 0.2
#: shares of the offered requests: POST /-/validate, and of the GETs,
#: the heavy (150-item) page; the rest get the small page
POST_SHARE = 0.04
HEAVY_SHARE = 0.3
#: the generator drains the server and samples the machine speed every
#: this many seconds of schedule
CALIBRATE_EVERY_S = 1.0
#: hole-value keys per page (two pages: 8x the 512-entry response cache)
KEYS = 2048
ZIPF_S = 1.0
CONNECTIONS = 2
REQUEST_TIMEOUT_S = 30.0
SERVER_START_TIMEOUT_S = 60.0


class Server:
    """A ``vdom-generate serve`` child process over the benchmark's site."""

    def __init__(self, site_dir: str, schema_path: str, traced: bool):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(os.getcwd(), "src")
        env.pop("REPRO_OBS", None)
        env.pop("REPRO_CACHE_DIR", None)
        if traced:
            env["REPRO_OBS"] = "1"
        self.started = time.perf_counter()
        log = open(os.path.join(os.path.dirname(site_dir), "server.log"), "ab")
        self.proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "--no-cache",
                "serve",
                schema_path,
                site_dir,
                "--port",
                "0",
            ],
            stdout=subprocess.PIPE,
            stderr=log,
            env=env,
            cwd=os.path.dirname(site_dir),
        )
        log.close()  # the child holds its own descriptor
        self.port = self._await_listening()
        self.ready_s = time.perf_counter() - self.started

    def _await_listening(self) -> int:
        deadline = self.started + SERVER_START_TIMEOUT_S
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0 or self.proc.poll() is not None:
                self.stop()
                raise RuntimeError("server did not print its listening line")
            ready, _, _ = select.select([self.proc.stdout], [], [], remaining)
            if not ready:
                continue
            line = self.proc.stdout.readline().decode("utf-8", "replace")
            if line.startswith("serving ") and "http://" in line:
                address = line.split("http://", 1)[1].split("/", 1)[0]
                return int(address.rsplit(":", 1)[1])

    def stats(self) -> dict:
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            connection.request("GET", "/-/stats")
            return json.loads(connection.getresponse().read())
        finally:
            connection.close()

    def peak_rss_mb(self) -> float:
        return proc_peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()


def write_site(base: str) -> tuple[str, str]:
    site = os.path.join(base, "site")
    os.makedirs(site, exist_ok=True)
    for name, source in gen.PAGES.items():
        with open(os.path.join(site, f"{name}.pxml"), "w", encoding="utf-8") as handle:
            handle.write(source)
    schema_path = os.path.join(base, "po.xsd")
    with open(schema_path, "w", encoding="utf-8") as handle:
        handle.write(PURCHASE_ORDER_SCHEMA)
    return site, schema_path


def _posts(rng: random.Random, n: int, phase: int, start: float, duration: float):
    """*n* POSTs evenly spaced over the phase, sizes on the stratified
    2-200 KB quantiles; every fifth size rank is a labelled invalid
    document, so every seed posts the same size and verdict profile."""
    posts = [
        (size, gen.PLAIN_MUTATIONS[(k // 5) % 5] if k % 5 == 2 else None)
        for k, size in enumerate(gen.stratified_sizes(rng, n, 2 * 1024, 200 * 1024))
    ]
    # bit-reversed size order: any prefix of the sequence (the
    # saturating loop uses only a prefix) posts every size stratum
    posts = [posts[i] for i in gen.balanced_order(len(posts))]
    return [
        gen.post_request(
            gen.po_document(rng, size, mutation),
            start + duration * (k + rng.uniform(0.2, 0.8)) / n,
            phase,
        )
        for k, (size, mutation) in enumerate(posts)
    ]


def build_schedule(seed: int, seconds: float):
    """The open-loop requests with ``(phase, rate)`` per phase, and the
    request sequence of the saturating closed loop.

    Phase 0 warms the response cache, phase 1 holds the reference rate,
    phases 2.. hold the higher fixed rates.
    """
    rng = random.Random(seed)
    zipf = gen.Zipf(KEYS, ZIPF_S)
    steps = [
        (REFERENCE_RATE, seconds * WARM_SHARE),
        (REFERENCE_RATE, seconds * REFERENCE_SHARE),
    ] + [(rate, seconds * RUNG_SHARE) for rate in RUNGS]
    requests = []
    phases = []
    start = 0.0
    for phase, (rate, duration) in enumerate(steps):
        requests += gen.schedule(rng, rate, duration, zipf, HEAVY_SHARE, phase, start)
        n_posts = max(1, round(rate * duration * POST_SHARE))
        requests += _posts(rng, n_posts, phase, start, duration)
        phases.append((phase, rate))
        start += duration
    requests.sort(key=lambda request: request.due)
    # enough for the closed loop to sustain 2000 requests/s
    budget = seconds * SATURATE_SHARE
    saturate = gen.schedule(rng, 2000, budget, zipf, HEAVY_SHARE, len(phases))
    posts = _posts(rng, round(len(saturate) * POST_SHARE), len(phases), 0.0, budget)
    saturate = sorted(saturate + posts, key=lambda request: request.due)
    return requests, phases, saturate


async def _read_response(reader) -> tuple[int, bytes]:
    head = await reader.readuntil(b"\r\n\r\n")
    status = int(head[9:12])
    length = 0
    for line in head.split(b"\r\n")[1:]:
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value)
    body = await reader.readexactly(length) if length else b""
    return status, body


class Checker:
    """Compares responses with the generator's answers (memoized)."""

    def __init__(self):
        self._digests: dict[tuple[str, int], bytes] = {}

    def check(self, request, status: int, body: bytes) -> str | None:
        if request.kind == "post":
            doc = request.doc
            if status != (200 if doc.valid else 422):
                return f"POST /-/validate: status {status}"
            payload = json.loads(body)
            if payload["valid"] != doc.valid:
                return f"POST /-/validate: verdict {payload['valid']}, want {doc.valid}"
            if not doc.valid and payload["errors"][0].get("path") != doc.fault_path:
                return (
                    f"POST /-/validate {doc.mutation}: first error at "
                    f"{payload['errors'][0].get('path')}, labelled {doc.fault_path}"
                )
            return None
        if status != 200:
            return f"GET /{request.kind}: status {status}"
        key = (request.kind, request.key)
        digest = self._digests.get(key)
        if digest is None:
            expected = gen.expected_page(request.kind, request.key)
            digest = hashlib.sha1(expected.encode("utf-8")).digest()
            self._digests[key] = digest
        if hashlib.sha1(body).digest() != digest:
            return f"GET /{request.kind} key {request.key}: body differs from the reference"
        return None


async def _connections(port: int, take, record, tracer) -> None:
    """Two keep-alive connections, each sending the request *take*
    hands it and passing the outcome to *record*, until *take* says
    ``None``."""

    async def connection():
        reader = writer = None
        try:
            while True:
                index = await take()
                if index is None:
                    return
                try:
                    if writer is None:
                        reader, writer = await asyncio.open_connection("127.0.0.1", port)
                    with tracer.span("http.request", op=index):
                        writer.write(record.payload(index))
                        status, body = await asyncio.wait_for(
                            _read_response(reader), REQUEST_TIMEOUT_S
                        )
                except (OSError, asyncio.IncompleteReadError, asyncio.TimeoutError) as error:
                    record(index, None, f"{type(error).__name__} {error}")
                    if writer is not None:
                        writer.close()
                    reader = writer = None
                else:
                    record(index, status, body)
        finally:
            if writer is not None:
                writer.close()
                try:
                    await writer.wait_closed()
                except OSError:
                    pass

    await asyncio.gather(*(connection() for _ in range(CONNECTIONS)))


class _Record:
    """Completion times and check results, by request index."""

    def __init__(self, requests, checker: "Checker"):
        self.requests = requests
        self.checker = checker
        self.done = [math.nan] * len(requests)
        self.errors: list[str | None] = [None] * len(requests)
        self.sent = [False] * len(requests)
        self.completed = 0

    def payload(self, index: int) -> bytes:
        self.sent[index] = True
        return self.requests[index].payload

    def __call__(self, index: int, status, body) -> None:
        self.done[index] = time.perf_counter()
        self.completed += 1
        request = self.requests[index]
        if status is None:
            self.errors[index] = f"{request.kind}: {body}"
        else:
            self.errors[index] = self.checker.check(request, status, body)


async def _drive(port: int, requests, saturate, seconds: float, speed, tracer) -> dict:
    """The open loop on schedule, then the saturating closed loop.

    Every ``CALIBRATE_EVERY_S`` of schedule the generator lets the server
    drain, samples the machine speed while it is idle, and shifts the
    rest of the schedule by the pause.
    """
    checker = Checker()
    record = _Record(requests, checker)
    lag = [math.nan] * len(requests)
    due_at = [math.nan] * len(requests)
    queue: asyncio.Queue = asyncio.Queue()
    t0 = time.perf_counter() + 0.05

    async def dispatcher():
        nonlocal t0
        next_pause = CALIBRATE_EVERY_S
        for index, request in enumerate(requests):
            if request.due >= next_pause:
                next_pause += CALIBRATE_EVERY_S
                paused = time.perf_counter()
                while record.completed < index:
                    await asyncio.sleep(0.001)
                speed.sample(5)
                t0 += time.perf_counter() - paused
            due_at[index] = t0 + request.due
            delay = due_at[index] - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            lag[index] = time.perf_counter() - due_at[index]
            queue.put_nowait(index)
        for _ in range(CONNECTIONS):
            queue.put_nowait(None)

    speed.sample(5)
    await asyncio.gather(dispatcher(), _connections(port, queue.get, record, tracer))
    raw = [record.done[i] - due_at[i] for i in range(len(requests))]
    speed.sample(5)
    latency = [speed.scale(t, done) for t, done in zip(raw, record.done)]

    # closed loop: each connection sends its next request as soon as the
    # previous one is answered, for the saturation share of the run
    closed = _Record(saturate, checker)
    budget = seconds * SATURATE_SHARE
    cursor = iter(range(len(saturate)))
    started = time.perf_counter()

    async def take():
        if time.perf_counter() - started >= budget:
            return None
        return next(cursor, None)

    await _connections(port, take, closed, tracer)
    ended = time.perf_counter()
    elapsed = ended - started
    speed.sample(5)
    return {
        "latency": latency,
        "lag": lag,
        "errors": record.errors,
        "closed_errors": [e for e, sent in zip(closed.errors, closed.sent) if sent],
        "raw": raw,
        "raw_capacity": sum(closed.sent) / elapsed,
        "capacity": sum(closed.sent) / speed.scale(elapsed, (started + ended) / 2),
    }


def _step_stats(requests, latency: list[float], phase: int) -> dict:
    """Page and POST latencies (ms) of one phase."""
    pages = [
        latency[i] * 1000.0
        for i, r in enumerate(requests)
        if r.phase == phase and r.kind != "post"
    ]
    posts = [
        latency[i] * 1000.0
        for i, r in enumerate(requests)
        if r.phase == phase and r.kind == "post"
    ]
    return {"pages": pages, "posts": posts}


def serve_open(seed: int, seconds: float, tracer, setups: int = 3) -> Run:
    run = Run()
    base = work_dir("serve")
    site, schema_path = write_site(base)
    requests, phases, saturate = build_schedule(seed, seconds)
    ready = []
    server = None
    try:
        for _ in range(setups):
            if server is not None:
                server.stop()
            run.speed.sample(5)
            server = Server(site, schema_path, tracer.enabled)
            ready.append((server.ready_s, time.perf_counter()))
        run.speed.sample(5)
        run.metrics["setup_s"] = median(run.speed.scale(t, at) for t, at in ready)
        result = asyncio.run(
            _drive(server.port, requests, saturate, seconds, run.speed, tracer)
        )
        stats = server.stats()
        run.metrics["peak_rss_mb"] = server.peak_rss_mb()
    finally:
        if server is not None:
            server.stop()
    for error in result["errors"] + result["closed_errors"]:
        if error is None:
            run.tally.ok()
        else:
            run.tally.fail(error)
    reference = _step_stats(requests, result["latency"], 1)
    raw = _step_stats(requests, result["raw"], 1)
    run.metrics["p50_ms"] = median(reference["pages"])
    run.metrics["tail_ms"] = percentile(reference["pages"], 99)
    run.metrics["aux_p50_ms"] = median(reference["posts"])
    run.metrics["throughput_per_s"] = result["capacity"]
    run.pace = 1000.0 / run.metrics["p50_ms"]
    cache = stats["server"]["cache"]
    hit_ratio = cache["hits"] / max(1, cache["hits"] + cache["misses"])
    run.line(
        "reference_rate",
        REFERENCE_RATE,
        "1/s",
        f"{len(reference['pages'])} pages, {len(reference['posts'])} posts",
    )
    run.line("setup_s", median(t for t, _ in ready), "s", "raw, median of the starts")
    run.line("page_p50_ms", run.metrics["p50_ms"], "ms", f"raw {median(raw['pages']):.4f}")
    run.line("page_p99_ms", run.metrics["tail_ms"], "ms", f"raw {percentile(raw['pages'], 99):.4f}")
    run.line("post_p50_ms", run.metrics["aux_p50_ms"], "ms", f"raw {median(raw['posts']):.4f}")
    for phase, rate in phases[2:]:
        rung = _step_stats(requests, result["latency"], phase)
        run.line(
            f"page_p99_ms@{rate}/s",
            percentile(rung["pages"], 99),
            "ms",
            f"page_p50 {median(rung['pages']):.2f} ms",
        )
    run.line(
        "capacity_rps",
        result["capacity"],
        "1/s",
        f"raw {result['raw_capacity']:.4f}; closed loop, {len(result['closed_errors'])} requests",
    )
    run.line(
        "response_cache_hit_ratio",
        hit_ratio,
        "ratio",
        f"{cache['entries']}/{cache['max_entries']} entries",
    )
    sent_lag = [value * 1000.0 for value in result["lag"]]
    run.line("loadgen_lag_p99_ms", percentile(sent_lag, 99), "ms")
    run.line("machine_speed_index", run.speed.index(), "ratio", "calibration CPU time over reference")
    if tracer.enabled:
        _serve_layers(run, stats, hit_ratio, sent_lag, requests, tracer)
    return run


def _serve_layers(run: Run, stats, hit_ratio, sent_lag, requests, tracer) -> None:
    snapshot = stats["obs"]

    def timer_ms(prefix: str) -> float:
        count = total = 0.0
        for key, value in snapshot["timers"].items():
            if key == prefix or key.startswith(prefix + "{"):
                count += value["count"]
                total += value["total_ms"]
        return total / count if count else math.nan

    routes = {
        key: value
        for key, value in snapshot["counters"].items()
        if key.startswith("render.route{")
    }
    run.layers["serve.response_cache_hit_ratio"] = hit_ratio
    run.layers["serve.render_ms"] = timer_ms("serve.render")
    run.layers["serve.validate_ms"] = timer_ms("serve.validate")
    run.layers["loadgen.lag_p99_ms"] = percentile(sent_lag, 99)
    if routes:
        run.layers["pxml.segment_route_ratio"] = sum(
            value for key, value in routes.items() if "route=segment" in key
        ) / sum(routes.values())
    # the in-process replay: same templates, same hole values
    cache = ReproCache()
    p = prep.prepare(tracer, schemas=("po",), cache=cache, templates=True)
    run.layers["pxml.template_compile_ms"] = tracer.total("pxml.template_compile") * 1000.0
    for kind in ("small", "heavy"):
        keys = [r.key for r in requests if r.kind == kind][:300]
        values = [
            gen.small_values(key) if kind == "small" else gen.heavy_values(key)
            for key in keys
        ]
        template = p.templates[kind]
        started = time.perf_counter()
        for value in values:
            template.render_text(**value)
        run.layers[f"pxml.render_text_ms.{kind}"] = (
            (time.perf_counter() - started) * 1000.0 / len(values)
        )
    recorded = [r for r in requests if r.kind != "post"][:600]
    bodies = [gen.expected_page(r.kind, r.key).encode("utf-8") for r in recorded]
    heads = [r.payload[: r.payload.index(b"\r\n\r\n")] for r in recorded]
    started = time.perf_counter()
    for head, body in zip(heads, bodies):
        parse_request(head)
        build_response(200, body, "application/xml; charset=utf-8", keep_alive=True)
    run.layers["serve.http_ms_per_req"] = (
        (time.perf_counter() - started) * 1000.0 / len(recorded)
    )
