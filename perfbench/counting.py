"""A storage backend decorator that times and counts byte I/O.

:class:`CountingBackend` wraps any :class:`repro.storage.StorageBackend`
and is what the benchmark passes as ``backend=`` to the sharded writer,
the query service and ``scrub``. Its handles pass ``fileno()`` through,
so ``durability="step"`` still fsyncs; a ``fileno()`` that fails is what
marks a streaming writer degraded, and the counter of those failures is
how the benchmark checks that no writer degraded.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, fields

from repro.storage import StorageBackend


@dataclass
class IOStats:
    read_s: float = 0.0
    read_bytes: int = 0
    read_calls: int = 0
    write_s: float = 0.0
    write_bytes: int = 0
    write_calls: int = 0
    fileno_calls: int = 0
    fileno_failures: int = 0
    fsync_s: float = 0.0
    fsyncs: int = 0

    def minus(self, other: "IOStats") -> "IOStats":
        return IOStats(**{
            f.name: getattr(self, f.name) - getattr(other, f.name)
            for f in fields(self)
        })

    def plus(self, other: "IOStats") -> "IOStats":
        return IOStats(**{
            f.name: getattr(self, f.name) + getattr(other, f.name)
            for f in fields(self)
        })


class CountingBackend(StorageBackend):
    """Delegates to ``inner``; every handle it opens adds into one
    :class:`IOStats` (behind a lock: lanes and executor threads share it)."""

    def __init__(self, inner: StorageBackend):
        self._inner = inner
        self._lock = threading.Lock()
        self._stats = IOStats()

    def add(self, **deltas) -> None:
        with self._lock:
            for key, value in deltas.items():
                setattr(self._stats, key, getattr(self._stats, key) + value)

    def snapshot(self) -> IOStats:
        with self._lock:
            return IOStats(**vars(self._stats))

    def open_read(self, name: str):
        return _CountingHandle(self, self._inner.open_read(name))

    def open_write(self, name: str):
        return _CountingHandle(self, self._inner.open_write(name))

    def open_append(self, name: str):
        return _CountingHandle(self, self._inner.open_append(name))

    def exists(self, name: str) -> bool:
        return self._inner.exists(name)

    def size(self, name: str) -> int:
        return self._inner.size(name)

    def delete(self, name: str) -> None:
        self._inner.delete(name)

    def list(self, prefix: str = "") -> list[str]:
        return self._inner.list(prefix)


class _CountingHandle:
    """A file handle whose reads and writes are timed and counted."""

    def __init__(self, owner: CountingBackend, inner):
        self._owner = owner
        self._inner = inner

    @property
    def closed(self) -> bool:
        return self._inner.closed

    def read(self, size: int = -1) -> bytes:
        t0 = time.perf_counter()
        blob = self._inner.read(size)
        self._owner.add(
            read_s=time.perf_counter() - t0, read_bytes=len(blob), read_calls=1
        )
        return blob

    def write(self, data) -> int:
        t0 = time.perf_counter()
        n = self._inner.write(data)
        self._owner.add(
            write_s=time.perf_counter() - t0, write_bytes=len(data), write_calls=1
        )
        return n

    def seek(self, offset: int, whence: int = os.SEEK_SET) -> int:
        return self._inner.seek(offset, whence)

    def tell(self) -> int:
        return self._inner.tell()

    def truncate(self, size: int | None = None) -> int:
        return self._inner.truncate(size)

    def flush(self) -> None:
        self._inner.flush()

    def fileno(self) -> int:
        try:
            fd = self._inner.fileno()
        except Exception:
            self._owner.add(fileno_failures=1)
            raise
        self._owner.add(fileno_calls=1)
        return fd

    def close(self) -> None:
        self._inner.close()

    def __enter__(self) -> "_CountingHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def counting_fsync(backend: CountingBackend, fsync=os.fsync):
    """An ``os.fsync`` replacement that times and counts into ``backend``
    (installed for the traced pass only)."""

    def timed_fsync(fd: int) -> None:
        t0 = time.perf_counter()
        try:
            fsync(fd)
        finally:
            backend.add(fsync_s=time.perf_counter() - t0, fsyncs=1)

    return timed_fsync
