"""Per-layer self time, measured from outside the program.

A :class:`LayerTracer` replaces public methods of the storage stack's
classes with timing wrappers for the duration of one traced phase and puts
the originals back afterwards.  Every wrapped call is a span; a span's
*self* time is its duration minus the time covered by the wrapped calls it
made, so the per-layer totals partition the traced wall time without
double counting (``csd.device`` excludes the compression it triggers,
``btree.tree`` excludes buffer-pool, pager, WAL and device work, and so on).

Layers are named after the packages that own the wrapped code.  Iterators
(``SSTableReader.iter_*``, ``MemTable.items*``, ``merge_tables``) are not
wrapped: the time spent advancing them is charged to whichever span
consumes them — compaction for merges, the engine for scans.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from typing import Callable, Optional

from repro.btree.buffer_pool import BufferPool
from repro.btree.engine import BTreeEngine
from repro.btree.pager import Pager, ShadowTablePager
from repro.btree.wal import RedoLog
from repro.core.bminus import BMinusTree
from repro.core.delta import DeltaBlock, DeltaShadowPager
from repro.csd.compression import SizeCachingCompressor, ZlibCompressor
from repro.csd.device import BlockDevice
from repro.lsm import engine as lsm_engine_module
from repro.lsm.bloom import BloomFilter
from repro.lsm.engine import LSMEngine
from repro.lsm.memtable import MemTable
from repro.lsm.sstable import SSTableReader, SSTableWriter

_ENGINE_API = (
    "put", "get", "delete", "put_batch", "get_batch", "delete_batch",
    "scan", "commit", "tick", "close",
)

#: (owner, attribute names, layer).  Owners are classes, or a module whose
#: global a caller looks up at call time (``write_merged`` in the LSM engine).
WRAPPED = (
    (BMinusTree, _ENGINE_API, "btree.tree"),
    (BTreeEngine, _ENGINE_API + ("checkpoint",), "btree.tree"),
    (LSMEngine, _ENGINE_API + ("flush_memtable",), "lsm.engine"),
    (BufferPool, ("get", "add_new", "unpin", "mark_dirty", "flush_page",
                  "flush_all", "drop"), "btree.pool"),
    (Pager, ("allocate_page_id", "free_page", "apply_deferred_frees"), "btree.pager"),
    (ShadowTablePager, ("load", "flush"), "btree.pager"),
    (DeltaShadowPager, ("load", "flush"), "core.delta"),
    (DeltaBlock, ("encode_into", "apply_to", "decode"), "core.delta"),
    (RedoLog, ("append", "append_kv", "flush", "scan", "blocks_since"), "btree.wal"),
    (BlockDevice, ("write_block", "write_blocks", "read_block",
                             "read_blocks", "trim", "flush"), "csd.device"),
    (SizeCachingCompressor, ("compressed_size",), "csd.compress"),
    (ZlibCompressor, ("compressed_size",), "csd.compress"),
    (MemTable, ("put", "put_batch", "delete", "get"), "lsm.memtable"),
    (SSTableWriter, ("add", "finish"), "lsm.sstable"),
    (SSTableReader, ("open", "get", "may_contain"), "lsm.sstable"),
    (lsm_engine_module, ("write_merged",), "lsm.compaction"),
    (BloomFilter, ("add", "may_contain"), "lsm.bloom"),
)

#: Calls counted (not just timed): the read-amplification counters.
COUNTED = {
    (LSMEngine, "get"): "lsm.gets",
    (SSTableReader, "get"): "lsm.table_gets",
    (BloomFilter, "may_contain"): "lsm.bloom_probes",
}


class LayerTracer:
    """Self seconds per layer and call counts, while installed."""

    def __init__(self) -> None:
        self._by_engine: dict[str, tuple[defaultdict, Counter]] = {}
        self._current: list = [None, None]  # (self seconds, counts) in use
        self._stack: list[float] = []  # child time accumulated per open span
        self._undo: list[tuple[object, str, object]] = []

    def select(self, engine: str) -> None:
        """Charge the calls that follow to ``engine``."""
        if engine not in self._by_engine:
            self._by_engine[engine] = (defaultdict(float), Counter())
        self._current[:] = self._by_engine[engine]

    def totals(self, engine: str) -> tuple[dict, dict]:
        """``(self seconds per layer, call counts)`` charged to ``engine``."""
        seconds, counts = self._by_engine.get(engine, ({}, {}))
        return dict(seconds), dict(counts)

    def _wrap(self, fn: Callable, layer: str, counter: Optional[str],
              negatives: bool) -> Callable:
        stack = self._stack
        current = self._current
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                current[0][layer] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
            if counter is not None:
                counts = current[1]
                counts[counter] += 1
                if negatives and not result:
                    counts[counter + ".negative"] += 1
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def install(self) -> None:
        """Wrap every method in :data:`WRAPPED`; :meth:`uninstall` undoes it."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        for owner, names, layer in WRAPPED:
            for name in names:
                raw = owner.__dict__[name]
                counter = COUNTED.get((owner, name))
                negatives = counter == "lsm.bloom_probes"
                if isinstance(raw, (staticmethod, classmethod)):
                    wrapped = type(raw)(self._wrap(raw.__func__, layer, counter, negatives))
                else:
                    wrapped = self._wrap(raw, layer, counter, negatives)
                self._undo.append((owner, name, raw))
                setattr(owner, name, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, raw = self._undo.pop()
            setattr(owner, name, raw)
