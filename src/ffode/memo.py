"""The library's one kind of process-wide cache of measurements, shared by
threads: ``reference``'s factorizations and ``pde``'s operator measurements
and sampling grids are each a ``Memo``, and the cache policy (keys, bytes,
eviction, locks, read-only arrays) lives here alone.

A ``Memo`` holds arrays, or tuples of arrays and other values, in
least-recently-used order within a fixed byte budget: the bytes of the
arrays each entry holds, whatever the number of entries.  A result larger
than the whole budget is computed, returned and not kept.  Only ``Memo``
takes the per-key lock (``_exclusive``): threads that miss one entry
together compute it once, while other keys are computed apart, and the lock
is dropped when its last holder leaves.  Keys are values, never object
identities: ``array_key`` reads an array's shape, dtype and the SHA-256
digest of its bytes, hashed from its own buffer when it is contiguous, so
an array mutated in place is another key.
"""

from __future__ import annotations

import functools
import threading
from collections import OrderedDict
from contextlib import contextmanager
from typing import Callable

import numpy as np

#: [lock, holders] of each key being computed, dropped with its last holder
_held: dict = {}
_held_guard = threading.Lock()


@contextmanager
def _exclusive(key):
    """Hold the lock of ``key``: one thread at a time runs the block for a
    key, and threads holding other keys run apart."""
    with _held_guard:
        entry = _held.setdefault(key, [threading.Lock(), 0])
        entry[1] += 1
    try:
        with entry[0]:
            yield
    finally:
        with _held_guard:
            entry[1] -= 1
            if not entry[1]:
                del _held[key]


def array_key(a: np.ndarray) -> tuple:
    """(shape, dtype, SHA-256 of the bytes) of ``a``; a contiguous array is
    hashed in place, without a copy."""
    import hashlib  # on first use: its OpenSSL binding takes ~7 ms to load
    a = np.ascontiguousarray(a)
    return a.shape, a.dtype.str, hashlib.sha256(a).digest()


class Memo:
    """Arrays, or tuples of values, by key, their arrays read-only, least
    recently used evicted first, within ``budget`` bytes."""

    def __init__(self, budget: int):
        self.budget = budget
        self.nbytes = 0
        self._entries: OrderedDict = OrderedDict()
        self._guard = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        with self._guard:
            self._entries.clear()
            self.nbytes = 0

    def _lookup(self, key):
        with self._guard:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
            return entry

    def get(self, key, compute: Callable[[], object]):
        """The entry of ``key``, computed by ``compute()`` on a miss under
        ``_exclusive(key)``, its arrays then made read-only; threads that miss
        together wait for the first."""
        entry = self._lookup(key)
        if entry is not None:
            return entry[0]
        with _exclusive(key):
            entry = self._lookup(key)
            if entry is not None:
                return entry[0]
            result = compute()
            parts = (result,) if isinstance(result, np.ndarray) else result
            arrays = [part for part in parts if isinstance(part, np.ndarray)]
            for part in arrays:
                part.setflags(write=False)
            size = sum(part.nbytes for part in arrays)
            if size <= self.budget:
                with self._guard:
                    self._entries[key] = (result, size)
                    self.nbytes += size
                    while self.nbytes > self.budget:
                        _, (_, dropped) = self._entries.popitem(last=False)
                        self.nbytes -= dropped
        return result

    def cached(self, key: Callable[..., object]):
        """Decorator: ``fn(*args)`` kept under (fn's name, ``key(*args)``)."""
        def wrap(fn):
            @functools.wraps(fn)
            def lookup(*args):
                return self.get((fn.__name__, key(*args)), lambda: fn(*args))
            return lookup
        return wrap
