"""``campaign_write``: the in-situ write path.

One round writes 12 pre-generated Nyx steps (``NyxConfig(coarse_n=32)``,
about 400 patches per step, about 80 MB) through
``ShardedSeriesWriter.create(n_shards=2, parity=1, durability="step")``
with its default thread lanes (one per shard, two in all), timed from
``create`` to the return of ``close()``. It covers per-patch encode,
seal, fsync, manifest and parity, and decodes nothing.
"""

from __future__ import annotations

import hashlib
import os
import random
import shutil
import statistics
import time
from pathlib import Path

import numpy as np

from perfbench import common
from perfbench.counting import CountingBackend, IOStats, counting_fsync

STEPS = 12
COARSE_N = 32
GROWTH = (0.3, 1.0)
SHARDS = 2
PARITY = 1


def steps(seed: int):
    """The campaign's steps for ``seed``, generated lazily in order.

    Growth rises over ``GROWTH`` as in ``nyx_step_stream``, but every step
    is its own realization, with seeds drawn from ``seed``. The codec
    encodes each step on its own, and one realization shared by all 12
    steps would carry its swing in compressibility, and so in speed,
    into every figure of the run."""
    from repro.sims import NyxConfig, SimStep, nyx_hierarchy

    seeds = np.random.SeedSequence(seed).generate_state(STEPS)
    for i, step_seed in enumerate(seeds):
        growth = GROWTH[0] + (GROWTH[1] - GROWTH[0]) * i / (STEPS - 1)
        config = NyxConfig(coarse_n=COARSE_N, seed=int(step_seed), growth=growth)
        yield SimStep(index=i, time=growth, hierarchy=nyx_hierarchy(config))


def raw_bytes(hierarchy) -> int:
    return sum(hierarchy.nbytes(f) for f in hierarchy.field_names)


def write(directory: Path, step_iter, backend: CountingBackend):
    """Write one campaign into ``directory``; returns (manifest path,
    wall s from create to close, hand-off s from create until the last
    ``append_step`` returned, raw bytes). The hand-off time is what the
    simulation waits for: the writer keeps a window of steps in flight,
    and draining it and closing the campaign come after."""
    from repro.insitu.sharded import ShardedSeriesWriter

    directory.mkdir(parents=True)
    manifest = directory / "campaign.rphm"
    raw = 0
    t0 = time.perf_counter()
    writer = ShardedSeriesWriter.create(
        str(manifest), common.CODEC, common.ERROR_BOUND, mode=common.MODE,
        n_shards=SHARDS, parity=PARITY, durability="step", backend=backend,
    )
    with writer:
        for s in step_iter:
            writer.append_step(s.hierarchy, time=s.time, step=s.index)
            raw += raw_bytes(s.hierarchy)
        handoff = time.perf_counter() - t0
    return manifest, time.perf_counter() - t0, handoff, raw


def stored_bytes(manifest: Path) -> int:
    """Every byte the campaign stored: shards, parity and the manifest."""
    return sum(p.stat().st_size for p in manifest.parent.iterdir())


def digest(manifest: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(manifest.parent.iterdir()):
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def check(manifest: Path, hierarchies, backend: CountingBackend, seed: int) -> list[str]:
    """Output checks on a closed campaign: ``scrub`` finds nothing, and a
    seeded step decodes within every patch's resolved absolute bound."""
    from repro.compression.amr_codec import decompress_selection
    from repro.compression.base import Compressor
    from repro.integrity import scrub
    from repro.metrics.error import verify_error_bound

    problems = [f"scrub: {f}" for f in scrub(str(manifest), backend=backend).findings]
    step = random.Random(seed).randrange(len(hierarchies))
    h = hierarchies[step]
    decoded = decompress_selection(str(manifest), steps=[step])
    for lev_idx, lev in enumerate(h):
        for name in h.field_names:
            for p_idx, patch in enumerate(lev.patches(name)):
                eb = Compressor.resolve_error_bound(patch.data, common.ERROR_BOUND, common.MODE)
                got = decoded.get((step, lev_idx, name, p_idx))
                if got is None or not verify_error_bound(patch.data, got, eb):
                    problems.append(f"step {step} level {lev_idx} {name} patch {p_idx} out of bound")
    return problems


def _degraded(io: IOStats, n_steps: int) -> str | None:
    """A writer degrades when a handle cannot give a file descriptor to
    fsync; under ``durability="step"`` every sealed step must fsync."""
    if io.fileno_failures or io.fileno_calls < n_steps:
        return (
            f"durability degraded: {io.fileno_failures} fileno failure(s), "
            f"{io.fileno_calls} sync(s) for {n_steps} steps"
        )
    return None


def run(seed: int, seconds: float) -> common.Result:
    from repro.storage import LocalFileBackend

    hierarchies_steps, setup_s = common.timed_setups(lambda: list(steps(seed)))
    hierarchies = [s.hierarchy for s in hierarchies_steps]
    backend = CountingBackend(LocalFileBackend())
    walls, handoffs, digests, problems = [], [], set(), []
    with common.work_dir(f"campaign-{os.getpid()}") as tmp:
        common.reset_peak_rss()
        start = time.perf_counter()
        while not walls or time.perf_counter() - start < seconds:
            if walls:
                shutil.rmtree(manifest.parent)
            before = backend.snapshot()
            manifest, wall, handoff, raw = write(
                tmp / f"round{len(walls)}", hierarchies_steps, backend
            )
            walls.append(wall)
            handoffs.append(handoff)
            bad = _degraded(backend.snapshot().minus(before), STEPS)
            if bad:
                problems.append(bad)
            digests.add(digest(manifest))
        peak = common.peak_rss_mb()
        stored = stored_bytes(manifest)
        problems += check(manifest, hierarchies, backend, seed)
    if len(digests) != 1:
        problems.append(f"campaign bytes differ between rounds ({len(digests)} digests)")
    mb = raw / 1e6
    return common.Result(
        attempted=STEPS * len(walls),
        failed=min(STEPS * len(walls), len(problems)),
        metrics={
            "setup_s": (setup_s, "s"),
            "peak_rss_MB": (peak, "MB"),
            "compression_ratio": (raw / stored, "ratio"),
            "throughput_MBps": (statistics.median(mb / w for w in walls), "MB/s"),
            # Steps the simulation hands off per second; unlike the
            # throughput it leaves out the drain and close.
            "ops_per_s": (statistics.median(STEPS / h for h in handoffs), "1/s"),
        },
        notes={"write_MBps": (statistics.median(mb / w for w in walls), "MB/s"),
               "rounds": (len(walls), "count")},
        problems=problems,
    )


def run_traced(seed: int, seconds: float) -> common.Result:
    """Alternate untraced and traced campaigns until ``seconds`` pass."""
    from perfbench import layers, spans
    from repro.storage import LocalFileBackend

    hierarchies_steps = list(steps(seed))
    backend = CountingBackend(LocalFileBackend())
    tracer = spans.Tracer()
    plain, traced, problems = [], [], []
    io = IOStats()
    with common.work_dir(f"campaign-trace-{os.getpid()}") as tmp:
        start = time.perf_counter()
        while not traced or time.perf_counter() - start < seconds:
            ref, wall, _, raw = write(tmp / "plain", hierarchies_steps, backend)
            plain.append(wall)
            before = backend.snapshot()
            with layers.install(tracer) as patcher:
                patcher.swap(os, "fsync", counting_fsync(backend))
                manifest, wall, _, _ = write(tmp / "traced", hierarchies_steps, backend)
            traced.append(wall)
            io = io.plus(backend.snapshot().minus(before))
            if digest(ref) != digest(manifest):
                problems.append("traced campaign differs from the untraced one")
            shutil.rmtree(ref.parent)
            shutil.rmtree(manifest.parent)
    mb = raw / 1e6
    extra = {
        "lanes": SHARDS,
        "write_wall_s": sum(traced),
        "trace.overhead_frac": sum(traced) / sum(plain) - 1.0,
        "write_MBps": statistics.median(mb / w for w in plain),
    }
    metrics = layers.layer_metrics(tracer.spans, io, len(traced), extra)
    tracer.write(common.OUT_DIR / "campaign_write.spans.jsonl")
    return common.Result(
        attempted=2 * STEPS * len(traced),
        failed=STEPS * len(problems),
        metrics=metrics,
        problems=problems,
    )

