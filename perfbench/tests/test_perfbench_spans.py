"""Self-tests of the benchmark's tracing: span trees, self time, the
wrappers it installs, and the counting storage backend."""

from __future__ import annotations

import io
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from perfbench import layers
from perfbench.counting import CountingBackend, IOStats
from perfbench.spans import Patcher, Span, Tracer, self_times


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


def _by_name(tracer: Tracer) -> dict[str, Span]:
    return {s.name: s for s in tracer.spans}


def test_self_time_of_nested_spans():
    clock = FakeClock()
    tracer = Tracer(clock=clock, cpu_clock=clock)

    def leaf(name, dt):
        return lambda: tracer.call(name, clock.advance, (dt,), {})

    def middle():
        clock.advance(1.0)
        leaf("grandchild", 1.0)()
        clock.advance(2.0)

    def outer():
        clock.advance(1.0)
        leaf("a", 2.0)()
        clock.advance(1.0)
        tracer.call("b", middle, (), {})
        clock.advance(2.0)

    tracer.call("outer", outer, (), {})
    spans = _by_name(tracer)
    selfs = self_times(tracer.spans)
    assert spans["outer"].wall == 10.0
    assert spans["b"].parent == spans["outer"].id
    assert spans["grandchild"].parent == spans["b"].id
    assert selfs[spans["outer"].id] == 4.0
    assert selfs[spans["a"].id] == 2.0
    assert selfs[spans["b"].id] == 3.0
    assert selfs[spans["grandchild"].id] == 1.0
    assert spans["outer"].cpu == 10.0


def test_overlapping_children_count_once_and_are_clipped():
    parent = Span(0, "p", None, 1, 0.0, 10.0, 0.0, None)
    kids = [
        Span(1, "c", 0, 2, 1.0, 5.0, 0.0, None),
        Span(2, "c", 0, 3, 3.0, 7.0, 0.0, None),   # overlaps the first
        Span(3, "c", 0, 2, 8.0, 12.0, 0.0, None),  # runs past the parent
    ]
    selfs = self_times([parent] + kids)
    assert selfs[0] == pytest.approx(10.0 - 6.0 - 2.0)


def test_pool_thread_spans_are_roots_of_their_own_trees():
    tracer = Tracer()
    barrier = threading.Barrier(2)

    def task(i):
        def work():
            barrier.wait(timeout=5)
            return tracer.call("inner", sum, (range(1000),), {})

        return tracer.call("task", work, (), {})

    def submit_all():
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(task, range(2)))

    assert tracer.call("submitter", submit_all, (), {}) == [sum(range(1000))] * 2
    spans = {s.id: s for s in tracer.spans}
    tasks = [s for s in spans.values() if s.name == "task"]
    inners = [s for s in spans.values() if s.name == "inner"]
    assert len(tasks) == 2 and len(inners) == 2
    assert all(t.parent is None for t in tasks)
    assert {t.thread for t in tasks} != {threading.get_ident()}
    selfs = self_times(list(spans.values()))
    for inner in inners:
        owner = spans[inner.parent]
        assert owner.name == "task" and owner.thread == inner.thread
        assert selfs[owner.id] == pytest.approx(owner.wall - inner.wall)


def _bindings() -> dict[tuple[int, str], object]:
    """Every attribute of every loaded repro module and of its classes."""
    out = {}
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").split(".")[0] != "repro":
            continue
        for owner in [mod] + [v for v in vars(mod).values() if isinstance(v, type)]:
            for attr, value in vars(owner).items():
                out[(id(owner), attr)] = value
    return out


def test_wrappers_restore_every_patched_name():
    import repro.insitu, repro.integrity, repro.serve  # noqa: F401  (loaded before the snapshot)

    before = _bindings()
    patcher = layers.install(Tracer())
    try:
        patched = patcher.patched()
        assert len(patched) >= 20
        assert all(vars(o)[a] is not before[(id(o), a)] for o, a in patched)
    finally:
        patcher.restore()
    assert patcher.patched() == []
    for owner, attr in patched:
        assert vars(owner)[attr] is before[(id(owner), attr)]


def test_traced_codec_output_is_identical_and_spanned():
    from repro.compression import amr_codec
    from repro.sims import NyxConfig, nyx_hierarchy

    h = nyx_hierarchy(NyxConfig(coarse_n=8, seed=3))

    def round_trip():
        packed = amr_codec.compress_hierarchy(h, "sz-lr", 1e-3, batch="level")
        blob = packed.tobytes()
        out = amr_codec.decompress_hierarchy(amr_codec.CompressedHierarchy.frombytes(blob), h)
        return blob, [p.data for lev in out for f in h.field_names for p in lev.patches(f)]

    plain_blob, plain_arrays = round_trip()
    tracer = Tracer()
    with layers.install(tracer):
        blob, arrays = round_trip()
    assert blob == plain_blob
    assert all(np.array_equal(a, b) for a, b in zip(arrays, plain_arrays))
    names = {s.name for s in tracer.spans}
    assert {"amr_codec.compress", "sz_lr.compress", "huffman.encode",
            "lossless.compress", "container.pack", "container.parse",
            "amr_codec.decompress", "sz_lr.decompress", "huffman.decode"} <= names
    metrics = layers.layer_metrics(tracer.spans, IOStats(), 1, {})
    assert [name for name, _ in layers.PER_LAYER] == list(metrics)
    assert metrics["huffman.decode.calls"][0] == sum(len(lev.patches(f)) for lev in h for f in h.field_names)


def test_counting_backend_counts_and_passes_fileno(tmp_path):
    from repro.storage import LocalFileBackend, MemoryBackend

    backend = CountingBackend(LocalFileBackend(tmp_path))
    with backend.open_write("obj") as handle:
        handle.write(b"abcdef")
        handle.fileno()
    with backend.open_read("obj") as handle:
        assert handle.read(4) == b"abcd"
    stats = backend.snapshot()
    assert (stats.write_bytes, stats.write_calls) == (6, 1)
    assert (stats.read_bytes, stats.read_calls) == (4, 1)
    assert (stats.fileno_calls, stats.fileno_failures) == (1, 0)

    memory = CountingBackend(MemoryBackend())
    handle = memory.open_write("obj")
    with pytest.raises(io.UnsupportedOperation):
        handle.fileno()
    handle.close()
    assert memory.snapshot().fileno_failures == 1


def test_patcher_replaces_function_where_callers_bound_it():
    from repro.compression import base, lossless, sz_lr

    tracer = Tracer()
    original = lossless.compress_bytes
    with Patcher(tracer) as patcher:
        patcher.function(lossless, "compress_bytes", "lossless.compress")
        assert lossless.compress_bytes is not original
        assert sz_lr.compress_bytes is lossless.compress_bytes
        assert base.compress_bytes is lossless.compress_bytes
        sz_lr.compress_bytes(b"xyz")
    assert lossless.compress_bytes is original and sz_lr.compress_bytes is original
    assert [s.name for s in tracer.spans] == ["lossless.compress"]
