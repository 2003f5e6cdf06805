"""Pieces every workload shares: the result record, set-up timing, the
tail-percentile rule, peak memory and the scratch directory."""

from __future__ import annotations

import ctypes
import gc
import resource
import shutil
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
#: Scratch space inside the checkout (campaign files); removed after a run.
WORK_DIR = ROOT / ".perfbench_work"
#: Where the traced pass writes its spans.
OUT_DIR = ROOT / ".perfbench_out"

#: Every workload's input spec: sz-lr at a relative bound of 1e-3 on the
#: generators' native float64 data.
CODEC = "sz-lr"
ERROR_BOUND = 1e-3
MODE = "rel"

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Percentiles the tail rule may pick, highest first.
TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)
#: Samples that must lie beyond a reported tail percentile.
TAIL_SAMPLES = 10


@dataclass
class Result:
    """One run's outcome: ``metrics`` maps name -> (value, unit)."""

    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    #: Figures printed for people but not part of the result line.
    notes: dict[str, tuple[float, str]] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def timed_setups(setup):
    """Run ``setup()`` ``SETUP_REPEATS`` times; returns (last result,
    median seconds)."""
    times = []
    out = None
    for _ in range(SETUP_REPEATS):
        out = None  # let the previous set-up's memory go first
        t0 = time.perf_counter()
        out = setup()
        times.append(time.perf_counter() - t0)
    return out, statistics.median(times)


def tail_percentile(n: int) -> float | None:
    """The highest ladder percentile with at least ``TAIL_SAMPLES`` of
    ``n`` samples beyond it (None when even the median has too few)."""
    for p in TAIL_LADDER:
        # The epsilon absorbs rounding in 100 - 99.9.
        if n * (100.0 - p) / 100.0 >= TAIL_SAMPLES - 1e-9:
            return p
    return None


def percentile(values, p: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), p))


def reset_peak_rss() -> None:
    """Start a new peak-memory window at the current resident set, so that
    ``peak_rss_mb`` covers only what runs after this (Linux: VmHWM is reset
    through the process's own ``/proc/self/clear_refs``). Where that is
    not possible the peak covers the whole process. Memory that set-up
    freed is first handed back to the system (glibc ``malloc_trim``), so
    that the timed phase cannot reuse it unseen."""
    gc.collect()
    try:
        ctypes.CDLL(None).malloc_trim(0)
    except (AttributeError, OSError):
        pass
    try:
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")
    except OSError:
        pass


def peak_rss_mb() -> float:
    """Peak resident set since ``reset_peak_rss`` (or since the process
    started), in MB (1e6 bytes)."""
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024 / 1e6
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


@contextmanager
def work_dir(tag: str):
    """A fresh scratch directory under the checkout, removed afterwards."""
    path = WORK_DIR / tag
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass
