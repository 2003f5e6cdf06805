"""Which public functions the traced pass wraps, and the per-layer
metrics computed from their spans.

Counts and times are totals over the traced rounds divided by the
number of rounds (a round is one snapshot round trip, one 12-step
campaign, or one pass of the serve query sequence), so the figures of
two commits compare even when one runs more rounds in the same time.
Shares, medians and per-query or per-task figures are taken over all
traced rounds. A layer a workload does not use reports 0.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict

from perfbench.counting import IOStats
from perfbench.spans import Patcher, Span, Tracer, self_times

#: Decode calls returning fewer symbols than this run the scalar loop.
SMALL_DECODE = 4096

#: (name, unit) of every per-layer metric, in BENCHMARK.json order.
PER_LAYER = [
    ("sz_lr.compress.self_s", "s"),
    ("sz_lr.compress.calls", "count"),
    ("sz_lr.decompress.self_s", "s"),
    ("sz_lr.decompress.calls", "count"),
    ("huffman.code_lengths.self_s", "s"),
    ("huffman.code_lengths.calls", "count"),
    ("huffman.encode.self_s", "s"),
    ("huffman.encode.calls", "count"),
    ("huffman.decode.self_s", "s"),
    ("huffman.decode.cpu_s", "s"),
    ("huffman.decode.calls", "count"),
    ("huffman.decode.symbols_p50", "count"),
    ("huffman.decode.small_share", "ratio"),
    ("lossless.compress.self_s", "s"),
    ("lossless.compress.bytes_in", "B"),
    ("lossless.decompress.self_s", "s"),
    ("amr_codec.compress.self_s", "s"),
    ("container.pack.s", "s"),
    ("amr_codec.decompress.self_s", "s"),
    ("container.parse.s", "s"),
    ("insitu.append_step.s", "s"),
    ("insitu.append_step.cpu_s", "s"),
    ("insitu.lane_busy_frac", "ratio"),
    ("insitu.close.s", "s"),
    ("parity.build.s", "s"),
    ("parity.bytes", "B"),
    ("storage.write.s", "s"),
    ("storage.write.bytes", "B"),
    ("storage.write.calls", "count"),
    ("storage.fsync.s", "s"),
    ("storage.fsyncs", "count"),
    ("storage.read.s", "s"),
    ("storage.read.bytes", "B"),
    ("storage.read.calls", "count"),
    ("serve.plan.self_s", "s"),
    ("serve.warm_p50_ms", "ms"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.fetched_over_extent", "ratio"),
    ("serve.ranged_reads_per_query", "count"),
    ("serve.decode_wait_s", "s"),
    ("trace.overhead_frac", "ratio"),
    # The workload-specific end-to-end figures, from the untraced rounds
    # of the same run: the numbers the layer metrics above explain.
    ("compress_MBps", "MB/s"),
    ("decompress_MBps", "MB/s"),
    ("write_MBps", "MB/s"),
    ("serve_qps", "1/s"),
    ("serve_cold_p50_ms", "ms"),
    ("serve_cold_p99_ms", "ms"),
]


def _symbols(args, kwargs, result):
    return {"symbols": int(result.size)}


def _bytes_in(args, kwargs, result):
    return {"bytes_in": len(args[0])}


def _parity_bytes(args, kwargs, result):
    return {"bytes": int(result["bytes"])}


def install(tracer: Tracer) -> Patcher:
    """Wrap each layer's public functions; the caller must ``restore()``
    (the patcher is a context manager)."""
    from repro.compression import amr_codec, container, huffman, lossless
    from repro.compression.sz_lr import SZLR
    from repro.insitu.sharded import ShardedSeriesWriter
    from repro.insitu.writer import StreamingWriter
    from repro.integrity import parity
    from repro.parallel.pool import WorkerPool
    from repro.serve import planner

    p = Patcher(tracer)
    try:
        p.function(amr_codec, "compress_hierarchy", "amr_codec.compress")
        p.function(amr_codec, "decompress_hierarchy", "amr_codec.decompress")
        p.function(container, "pack_container", "container.pack")
        p.method(container.ContainerReader, "__init__", "container.parse")
        p.method(SZLR, "compress", "sz_lr.compress")
        p.method(SZLR, "compress_batch", "sz_lr.compress")
        p.method(SZLR, "decompress", "sz_lr.decompress")
        p.function(huffman, "code_lengths", "huffman.code_lengths")
        p.function(huffman, "encode", "huffman.encode")
        p.function(huffman, "encode_batch", "huffman.encode")
        p.function(huffman, "decode", "huffman.decode", _symbols)
        p.function(huffman, "decode_with_codebook", "huffman.decode", _symbols)
        p.function(lossless, "compress_bytes", "lossless.compress", _bytes_in)
        p.function(lossless, "pack_ints", "lossless.compress")
        p.function(lossless, "decompress_bytes", "lossless.decompress")
        p.function(lossless, "unpack_ints", "lossless.decompress")
        p.method(StreamingWriter, "append_step", "insitu.append_step")
        p.method(ShardedSeriesWriter, "close", "insitu.close")
        p.function(parity, "build_parity", "parity.build", _parity_bytes)
        p.function(planner, "plan_step", "serve.plan")
        p.swap(WorkerPool, "submit", _queued_submit(tracer, WorkerPool.submit))
    except BaseException:
        p.restore()
        raise
    return p


def _queued_submit(tracer: Tracer, submit):
    """``WorkerPool.submit`` that runs each task in a ``pool.task`` span
    recording how long it queued before a worker picked it up."""

    def traced_submit(pool, fn, *args):
        submitted = time.perf_counter()

        def task(*task_args):
            queued = time.perf_counter() - submitted
            return tracer.call(
                "pool.task", fn, task_args, {}, lambda *_: {"queued": queued}
            )

        return submit(pool, task, *args)

    return traced_submit


def layer_metrics(
    spans: list[Span], io: IOStats, rounds: int, workload: dict
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of ``rounds`` traced rounds. ``workload`` supplies
    what spans cannot: ``lanes`` and ``write_wall_s`` (the traced campaign
    time) for the lane busy share, ``serve`` (pool tasks are decode tasks),
    and the value of any other metric by name: serve accounting, the trace
    overhead and the untraced end-to-end figures."""
    selfs = self_times(spans)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)

    def total(name, what="self"):
        group = by_name.get(name, ())
        if what == "self":
            return sum(selfs[s.id] for s in group)
        if what == "wall":
            return sum(s.wall for s in group)
        if what == "cpu":
            return sum(s.cpu for s in group)
        return sum((s.attrs or {}).get(what, 0) for s in group)

    decodes = [s.attrs["symbols"] for s in by_name.get("huffman.decode", ())]
    appends = total("insitu.append_step", "cpu")
    lane_time = workload.get("lanes", 0) * workload.get("write_wall_s", 0.0)
    # Mean over decode tasks of submit-to-finish time minus CPU time.
    tasks = by_name.get("pool.task", ()) if workload.get("serve") else ()
    wait = sum(s.attrs["queued"] + s.wall - s.cpu for s in tasks) / max(1, len(tasks))

    per_round = {
        "sz_lr.compress.self_s": total("sz_lr.compress"),
        "sz_lr.compress.calls": len(by_name.get("sz_lr.compress", ())),
        "sz_lr.decompress.self_s": total("sz_lr.decompress"),
        "sz_lr.decompress.calls": len(by_name.get("sz_lr.decompress", ())),
        "huffman.code_lengths.self_s": total("huffman.code_lengths"),
        "huffman.code_lengths.calls": len(by_name.get("huffman.code_lengths", ())),
        "huffman.encode.self_s": total("huffman.encode"),
        "huffman.encode.calls": len(by_name.get("huffman.encode", ())),
        "huffman.decode.self_s": total("huffman.decode"),
        "huffman.decode.cpu_s": total("huffman.decode", "cpu"),
        "huffman.decode.calls": len(decodes),
        "lossless.compress.self_s": total("lossless.compress"),
        "lossless.compress.bytes_in": total("lossless.compress", "bytes_in"),
        "lossless.decompress.self_s": total("lossless.decompress"),
        "amr_codec.compress.self_s": total("amr_codec.compress"),
        "container.pack.s": total("container.pack", "wall"),
        "amr_codec.decompress.self_s": total("amr_codec.decompress"),
        "container.parse.s": total("container.parse", "wall"),
        "insitu.append_step.s": total("insitu.append_step", "wall"),
        "insitu.append_step.cpu_s": appends,
        "insitu.close.s": total("insitu.close", "wall"),
        "parity.build.s": total("parity.build", "wall"),
        "parity.bytes": total("parity.build", "bytes"),
        "storage.write.s": io.write_s,
        "storage.write.bytes": io.write_bytes,
        "storage.write.calls": io.write_calls,
        "storage.fsync.s": io.fsync_s,
        "storage.fsyncs": io.fsyncs,
        "storage.read.s": io.read_s,
        "storage.read.bytes": io.read_bytes,
        "storage.read.calls": io.read_calls,
        "serve.plan.self_s": total("serve.plan"),
    }
    out = {name: value / rounds for name, value in per_round.items()}
    out["serve.decode_wait_s"] = wait
    out["huffman.decode.symbols_p50"] = (
        statistics.median_low(decodes) if decodes else 0
    )
    out["huffman.decode.small_share"] = (
        sum(1 for n in decodes if n < SMALL_DECODE) / len(decodes) if decodes else 0.0
    )
    out["insitu.lane_busy_frac"] = appends / lane_time if lane_time else 0.0
    for name, _ in PER_LAYER:
        if name not in out:
            out[name] = workload.get(name, 0.0)
    return {name: (out[name], unit) for name, unit in PER_LAYER}
