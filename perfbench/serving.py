"""``serve_zipf``: the selective read path.

A ``QueryService`` serves the campaign that ``campaign_write``'s code
writes in set-up. Two client coroutines run a closed loop (viz callers
wait for each reply before asking again) over a seeded query sequence
that is Zipf-skewed over (step, field), newest steps most popular, and
mixes three shapes: a whole
fine level, a probe of 1-4 patches (some cut by ``region=``), and a
4-step time-series probe of one patch. The decoded-patch cache is far
smaller than the decoded working set, so about half the queries miss.
"""

from __future__ import annotations

import asyncio
import hashlib
import os
import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from perfbench import campaign, common
from perfbench.counting import CountingBackend, IOStats

#: Decoded-patch + catalog budget of the service, far below the ~80 MB
#: decoded working set. It is the one calibrated knob: it sets the share
#: of queries that miss the cache to about half, the workload's stated
#: target (measured in README.md).
CACHE_BYTES = 20 << 20
CLIENTS = 2
#: Cold queries a pass must reach, so that 10 lie beyond p99.
MIN_COLD = 1000
#: Length of the generated query sequence (more than any pass uses).
MIX_LENGTH = 50_000
#: The mix's unverified assumptions (no published access study of AMR
#: visualization is cited): popularity of (step, field) keys follows the
#: textbook Zipf law, exponent 1, newest step first; the three shapes
#: come in equal shares; patches are picked uniformly; half the patch
#: probes carry a region, an 8^3 box at the patch origin (the size of the
#: smallest fine patch). Probe size 1-4 and the 4-step series span are
#: the workload's definition.
ZIPF_S = 1.0
SHAPES = ("level", "series", "probe")
REGION_SHARE = 0.5
REGION = ((0, 8), (0, 8), (0, 8))
SERIES_SPAN = 4
#: Served queries compared with ``decompress_selection`` per run.
CHECK_SAMPLE = 24


def query_mix(seed: int, layout: dict, fields, n: int = MIX_LENGTH) -> list[dict]:
    """``n`` queries for the campaign whose patch counts per (step, level)
    are ``layout``; the same seed and layout give the same queries."""
    rng = random.Random(seed)
    steps = sorted({s for s, _ in layout})
    levels = sorted({lev for _, lev in layout})
    # Popularity falls with age: the latest step's fields rank first.
    keys = [(s, f) for s in reversed(steps) for f in fields]
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(keys))]
    out = []
    while len(out) < n:
        block = list(SHAPES)
        rng.shuffle(block)
        for shape in block:
            step, fld = rng.choices(keys, weights)[0]
            if shape == "level":
                q = {"steps": [step], "levels": [levels[-1]], "fields": [fld]}
            elif shape == "series":
                first = min(step, steps[-1] - SERIES_SPAN + 1)
                span = steps[first : first + SERIES_SPAN]
                lev = rng.choice(levels)
                patch = rng.randrange(min(layout[(s, lev)] for s in span))
                q = {"steps": span, "levels": [lev], "fields": [fld], "patches": [patch]}
            else:
                lev = rng.choice(levels)
                count = layout[(step, lev)]
                patches = sorted({rng.randrange(count) for _ in range(rng.randint(1, 4))})
                q = {"steps": [step], "levels": [lev], "fields": [fld], "patches": patches}
                if rng.random() < REGION_SHARE:
                    q["region"] = REGION
            out.append(q)
    return out[:n]


@dataclass
class Pass:
    """What one closed-loop pass over the query sequence recorded."""

    wall_s: float = 0.0
    queries: int = 0
    failed: int = 0
    served_bytes: int = 0
    cold_bytes: int = 0
    cold_ms: list = field(default_factory=list)
    warm_ms: list = field(default_factory=list)
    hits: int = 0
    misses: int = 0
    extent_bytes: int = 0
    fetched_bytes: int = 0
    cold_reads: int = 0
    kept: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)


async def drive(service, mix, seconds=None, count=None, keep=(), digest=False) -> Pass:
    """Run the closed loop until ``seconds`` passed and ``MIN_COLD`` cold
    queries were answered, or until ``count`` queries were issued.
    Results of the query indices in ``keep`` are kept for checking;
    ``digest`` hashes every result (for comparing two passes)."""
    from repro.errors import ReproError

    rec = Pass()
    issued = 0
    start = time.perf_counter()

    def more() -> bool:
        if issued >= len(mix):
            return False
        if count is not None:
            return issued < count
        return time.perf_counter() - start < seconds or len(rec.cold_ms) < MIN_COLD

    async def client():
        nonlocal issued
        while more():
            i = issued
            issued += 1
            t0 = time.perf_counter()
            try:
                out, info = await service.query_info(**mix[i])
            except ReproError:
                rec.failed += 1
                continue
            ms = (time.perf_counter() - t0) * 1e3
            rec.queries += 1
            nbytes = sum(a.nbytes for a in out.values())
            rec.served_bytes += nbytes
            rec.hits += info.cache_hits
            rec.misses += info.cache_misses
            if info.cache_misses:
                rec.cold_ms.append(ms)
                rec.cold_bytes += nbytes
                rec.extent_bytes += info.extent_bytes
                rec.fetched_bytes += info.fetched_bytes
                rec.cold_reads += info.ranged_reads
            else:
                rec.warm_ms.append(ms)
            if i in keep:
                rec.kept[i] = out
            if digest:
                rec.digests[i] = _digest(out)

    await asyncio.gather(*[client() for _ in range(CLIENTS)])
    rec.wall_s = time.perf_counter() - start
    return rec


def _digest(out: dict) -> str:
    h = hashlib.sha256()
    for key in sorted(out):
        h.update(repr(key).encode())
        h.update(np.ascontiguousarray(out[key]).tobytes())
    return h.hexdigest()


class Campaign:
    """The served campaign, its patch layout, and fresh services over it."""

    def __init__(self, directory: Path, seed: int):
        from repro.storage import LocalFileBackend

        self.backend = CountingBackend(LocalFileBackend())
        layout = {}
        fields = []

        def record(step_iter):
            for s in step_iter:
                fields[:] = s.hierarchy.field_names
                for lev_idx, lev in enumerate(s.hierarchy):
                    layout[(s.index, lev_idx)] = len(lev.patches(fields[0]))
                yield s

        self.manifest, _, _, self.raw = campaign.write(
            directory, record(campaign.steps(seed)), self.backend
        )
        self.layout = layout
        self.fields = tuple(sorted(fields))

    def open(self, loop):
        """A new service with a cold patch cache and warm step catalogs
        (a long-running service parses each step's index once)."""
        from repro.serve import QueryService

        service = QueryService(
            str(self.manifest), backend=self.backend, cache_bytes=CACHE_BYTES
        )
        loop.run_until_complete(
            service.plan(levels=[0], fields=[self.fields[0]], patches=[0])
        )
        return service


def _check(camp: Campaign, mix, kept: dict) -> list[str]:
    """Served results must be byte-identical to ``decompress_selection``."""
    from repro.compression.amr_codec import decompress_selection

    problems = []
    for i, served in sorted(kept.items()):
        q = dict(mix[i])
        region = q.pop("region", None)
        want = decompress_selection(str(camp.manifest), **q)
        if region is not None:
            cut = tuple(slice(lo, hi) for lo, hi in region)
            want = {k: v[cut] for k, v in want.items()}
        if _digest(want) != _digest(served):
            problems.append(f"query {i} {mix[i]} differs from decompress_selection")
    return problems


def _cold_p(rec: Pass, p: float) -> float:
    return common.percentile(rec.cold_ms, p)


def run(seed: int, seconds: float) -> common.Result:
    loop = asyncio.new_event_loop()
    services = []
    try:
        with common.work_dir(f"serve-{os.getpid()}") as tmp:

            def setup():
                if services:
                    services.pop().close()
                    shutil.rmtree(tmp / "campaign")
                camp = Campaign(tmp / "campaign", seed)
                services.append(camp.open(loop))
                return camp

            camp, setup_s = common.timed_setups(setup)
            mix = query_mix(seed, camp.layout, camp.fields)
            keep = set(random.Random(seed).sample(range(MIN_COLD), CHECK_SAMPLE))
            common.reset_peak_rss()
            rec = loop.run_until_complete(drive(services[0], mix, seconds=seconds, keep=keep))
            peak = common.peak_rss_mb()
            stored = campaign.stored_bytes(camp.manifest)
            problems = _check(camp, mix, rec.kept)
    finally:
        for service in services:
            service.close()
        loop.close()
    if (common.tail_percentile(len(rec.cold_ms)) or 0) < 99.0:
        problems.append(f"only {len(rec.cold_ms)} cold queries; p99 needs {MIN_COLD}")
    return common.Result(
        attempted=rec.queries + rec.failed,
        failed=rec.failed + len(problems),
        metrics={
            "setup_s": (setup_s, "s"),
            "peak_rss_MB": (peak, "MB"),
            "compression_ratio": (camp.raw / stored, "ratio"),
            # Decoded MB a client receives per second spent waiting on
            # cold queries; ops_per_s covers the whole mix.
            "throughput_MBps": (rec.cold_bytes / 1e3 / max(1e-9, sum(rec.cold_ms)), "MB/s"),
            "ops_per_s": (rec.queries / rec.wall_s, "1/s"),
        },
        notes={
            "serve_qps": (rec.queries / rec.wall_s, "1/s"),
            "serve_cold_p50_ms": (_cold_p(rec, 50), "ms"),
            "serve_cold_p99_ms": (_cold_p(rec, 99), "ms"),
            "cold_queries": (len(rec.cold_ms), "count"),
            "cold_share": (len(rec.cold_ms) / max(1, rec.queries), "ratio"),
            "served_MBps": (rec.served_bytes / 1e6 / rec.wall_s, "MB/s"),
            "hit_ratio": (rec.hits / max(1, rec.hits + rec.misses), "ratio"),
        },
        problems=problems,
    )


def run_traced(seed: int, seconds: float) -> common.Result:
    """One untraced pass, then a traced pass over the same queries, each
    on a fresh service; together they take about ``seconds``."""
    from perfbench import layers, spans

    loop = asyncio.new_event_loop()
    tracer = spans.Tracer()
    try:
        with common.work_dir(f"serve-trace-{os.getpid()}") as tmp:
            camp = Campaign(tmp / "campaign", seed)
            mix = query_mix(seed, camp.layout, camp.fields)
            service = camp.open(loop)
            try:
                plain = loop.run_until_complete(
                    drive(service, mix, seconds=seconds / 2, digest=True)
                )
            finally:
                service.close()
            service = camp.open(loop)
            before = camp.backend.snapshot()
            try:
                with layers.install(tracer):
                    traced = loop.run_until_complete(
                        drive(service, mix, count=plain.queries + plain.failed, digest=True)
                    )
            finally:
                service.close()
            io = camp.backend.snapshot().minus(before)
    finally:
        loop.close()
    problems = []
    if plain.digests != traced.digests:
        problems.append("traced query results differ from the untraced ones")
    extra = {
        "serve": True,
        "serve.warm_p50_ms": common.percentile(traced.warm_ms, 50) if traced.warm_ms else 0.0,
        "serve.cache.hit_ratio": traced.hits / max(1, traced.hits + traced.misses),
        "serve.fetched_over_extent": traced.extent_bytes / max(1, traced.fetched_bytes),
        "serve.ranged_reads_per_query": traced.cold_reads / max(1, len(traced.cold_ms)),
        "trace.overhead_frac": traced.wall_s / plain.wall_s - 1.0,
        "serve_qps": plain.queries / plain.wall_s,
        "serve_cold_p50_ms": _cold_p(plain, 50),
        "serve_cold_p99_ms": _cold_p(plain, 99),
    }
    metrics = layers.layer_metrics(tracer.spans, io, 1, extra)
    tracer.write(common.OUT_DIR / "serve_zipf.spans.jsonl")
    return common.Result(
        attempted=plain.queries + traced.queries + plain.failed + traced.failed,
        failed=plain.failed + traced.failed + len(problems),
        metrics=metrics,
        problems=problems,
    )
