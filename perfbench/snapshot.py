"""``snapshot_level``: the in-memory codec at real AMR patch sizes.

One round compresses all six fields of ``load_app("nyx", 1.0)`` (about
53 MB in 2700-3000 patches, median 1024 cells) with the level-batched
kernel, serializes the container, parses it back and decodes every
patch. Everything runs serially, so this is the single-threaded
baseline; no storage or serve code runs.
"""

from __future__ import annotations

import hashlib
import statistics
import time

from perfbench import common
from perfbench.counting import IOStats


def inputs(seed: int):
    """The Nyx hierarchy for ``seed`` (built fresh, not from the cache)."""
    from repro.experiments.datasets import load_app

    load_app.cache_clear()
    try:
        return load_app("nyx", 1.0, seed=seed).hierarchy
    finally:
        load_app.cache_clear()


def _n_patches(h) -> int:
    return sum(len(lev.patches(f)) for lev in h for f in h.field_names)


def _round(h):
    """One timed round trip; returns (compress s, decompress s, blob, out)."""
    from repro.compression import amr_codec

    t0 = time.perf_counter()
    packed = amr_codec.compress_hierarchy(
        h, common.CODEC, common.ERROR_BOUND, mode=common.MODE,
        batch="level", parallel="serial",
    )
    blob = packed.tobytes()
    t1 = time.perf_counter()
    parsed = amr_codec.CompressedHierarchy.frombytes(blob)
    out = amr_codec.decompress_hierarchy(parsed, h, parallel="serial")
    t2 = time.perf_counter()
    return t1 - t0, t2 - t1, blob, out


def _bound_failures(h, out) -> int:
    """Patches whose decoded values leave their resolved absolute bound."""
    from repro.compression.base import Compressor
    from repro.metrics.error import verify_error_bound

    failed = 0
    for lev, new in zip(h, out):
        for name in h.field_names:
            for orig, dec in zip(lev.patches(name), new.patches(name)):
                eb = Compressor.resolve_error_bound(
                    orig.data, common.ERROR_BOUND, common.MODE
                )
                if not verify_error_bound(orig.data, dec.data, eb):
                    failed += 1
    return failed


def _digest(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def run(seed: int, seconds: float) -> common.Result:
    h, setup_s = common.timed_setups(lambda: inputs(seed))
    raw = sum(h.nbytes(f) for f in h.field_names)
    patches = _n_patches(h)
    rounds = []
    digests = set()
    out = blob = None
    common.reset_peak_rss()
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        out = None  # the previous round's output is no longer needed
        tc, td, blob, out = _round(h)
        rounds.append((tc, td))
        digests.add(_digest(blob))
    peak = common.peak_rss_mb()
    problems = []
    if len(digests) != 1:
        problems.append(f"container bytes differ between rounds ({len(digests)} digests)")
    # A round whose container differs fails all of its patches.
    failed = _bound_failures(h, out) + patches * (len(digests) - 1)
    mb = raw / 1e6
    compress = statistics.median(mb / tc for tc, _ in rounds)
    # The two halves are gated apart: compress by throughput_MBps,
    # decompress by ops_per_s (patches decoded per second).
    return common.Result(
        attempted=patches * len(rounds),
        failed=min(patches * len(rounds), failed),
        metrics={
            "setup_s": (setup_s, "s"),
            "peak_rss_MB": (peak, "MB"),
            "compression_ratio": (raw / len(blob), "ratio"),
            "throughput_MBps": (compress, "MB/s"),
            "ops_per_s": (statistics.median(patches / td for _, td in rounds), "1/s"),
        },
        notes={
            "compress_MBps": (compress, "MB/s"),
            "decompress_MBps": (statistics.median(mb / td for _, td in rounds), "MB/s"),
            "roundtrip_MBps": (statistics.median(mb / (tc + td) for tc, td in rounds), "MB/s"),
            "rounds": (len(rounds), "count"),
        },
        problems=problems,
    )


def run_traced(seed: int, seconds: float) -> common.Result:
    """Alternate untraced and traced round trips until ``seconds`` pass."""
    from perfbench import layers, spans

    h = inputs(seed)
    raw = sum(h.nbytes(f) for f in h.field_names)
    patches = _n_patches(h)
    tracer = spans.Tracer()
    plain, traced = [], []
    problems = []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        tc, td, blob, out = _round(h)
        plain.append((tc, td))
        reference = (_digest(blob), _arrays(out))
        out = None
        with layers.install(tracer):
            tc, td, blob, out = _round(h)
        traced.append((tc, td))
        if (_digest(blob), _arrays(out)) != reference:
            problems.append("traced round trip differs from the untraced one")
        out = None
    mb = raw / 1e6
    extra = {
        "trace.overhead_frac": sum(map(sum, traced)) / sum(map(sum, plain)) - 1.0,
        "compress_MBps": statistics.median(mb / tc for tc, _ in plain),
        "decompress_MBps": statistics.median(mb / td for _, td in plain),
    }
    metrics = layers.layer_metrics(tracer.spans, IOStats(), len(traced), extra)
    tracer.write(common.OUT_DIR / "snapshot_level.spans.jsonl")
    return common.Result(
        attempted=2 * patches * len(traced),
        failed=patches * len(problems),
        metrics=metrics,
        problems=problems,
    )


def _arrays(h) -> str:
    """Digest of every patch array of ``h``, in canonical order."""
    digest = hashlib.sha256()
    for lev in h:
        for name in sorted(h.field_names):
            for patch in lev.patches(name):
                digest.update(patch.data.tobytes())
    return digest.hexdigest()
