"""The three workloads, the model that checks them, and one engine's run.

Every engine is built by :func:`repro.bench.harness.build_engine` and driven
only through its public API.  Each operation is followed by ``commit()``,
one simulated 200 µs clock step and ``tick()`` — the workload runner's
one-thread cadence — and the time of that whole call on
:data:`hostspeed.CLOCK`, corrected to the nominal host speed, is one
latency sample.  Every result the engine returns is compared with
:class:`Model`; a mismatch is a failed operation, never an abort.

Inputs: record bytes come from the run's ``--seed``.  The key schedule —
which keys are loaded, updated, read, scanned and deleted, in which order —
comes from the fixed :data:`SCHEDULE_SEED`.  The LSM's table boundaries and
compaction choices depend only on keys and record lengths, so with a fixed
schedule its known lost-update fault leaves the same stale keys on every
seed, and the failed share of a run is a property of the code alone.
"""

from __future__ import annotations

import gc
from bisect import bisect_left, insort
from dataclasses import dataclass, field, fields

from repro.bench.harness import ExperimentSpec, build_engine
from repro.bench.speed import SpeedModel
from repro.csd.compression import SizeCachingCompressor
from repro.sim.rng import DeterministicRng
from repro.workloads.records import encode_key, record_value
from repro.workloads.runner import PhaseStats
from repro.workloads.zipf import ZipfGenerator

from hostspeed import CLOCK, HostSpeed

#: Engine label -> ``ExperimentSpec.system``.
ENGINES = {"bminus": "bminus", "btree": "baseline-btree", "lsm": "rocksdb"}

SCHEDULE_SEED = 2022
RECORD_SIZE = 128  # 8-byte key + 120-byte value, half random, half zeros
STEP_SECONDS = 200e-6  # simulated service time of one operation
POPULATE_BATCH = 500
SCAN_LENGTH = 50
CHUNK = 50  # operations per engine per turn of the interleaved phase


@dataclass(frozen=True)
class Workload:
    """Sizes and store settings of one workload."""

    name: str
    n_records: int
    phase_ops: int
    cache_fraction: float
    log_flush_policy: str
    batch: int = 1  # batch-ingest: records per put_batch / get_batch call


WORKLOADS = {
    # The paper's Fig. 9 regime: cache = dataset/150 (build_engine floors it
    # at 64 KB = 8 pages), uniform single-op updates, log flush per minute.
    "update-cold": Workload("update-cold", 16_000, 16_000, 1 / 150, "interval"),
    # Read-heavy Zipf(0.99) mix over a cache twice the dataset, log flush
    # per commit: no cache misses, sparse per-commit log writes.
    "mixed-warm": Workload("mixed-warm", 8_000, 18_000, 2.0, "commit"),
    # An empty store loaded through put_batch and read back through
    # get_batch, cold cache, no updates.
    "batch-ingest": Workload("batch-ingest", 16_000, 0, 1 / 150, "interval", batch=10),
}

# mixed-warm operation mix (cumulative thresholds on one uniform draw).
_MIX = (("get", 0.40), ("get_absent", 0.50), ("scan", 0.60), ("put", 0.90),
        ("delete", 1.00))


def record_key(index: int) -> bytes:
    """Loaded keys are even; odd keys are never written (absent probes)."""
    return encode_key(2 * index)


def absent_key(index: int) -> bytes:
    return encode_key(2 * index + 1)


# ------------------------------------------------------------------ inputs


@dataclass
class Inputs:
    """Everything one workload feeds an engine, generated before timing."""

    populate: list  # [(key, value)] in load order
    ops: list  # [(kind, arg)]; see Runner._apply for the kinds


def make_inputs(workload: Workload, seed: int) -> Inputs:
    keys = DeterministicRng(SCHEDULE_SEED).split(workload.name, "keys")
    values = DeterministicRng(seed).split(workload.name, "values")
    n = workload.n_records
    order = list(range(n))
    keys.shuffle(order)
    loaded = [(record_key(i), record_value(values, RECORD_SIZE)) for i in order]
    if workload.name == "batch-ingest":
        b = workload.batch
        ops = [("put_batch", loaded[s:s + b]) for s in range(0, n, b)]
        ops += [("get_batch", [k for k, _ in loaded[s:s + b]]) for s in range(0, n, b)]
        return Inputs(populate=[], ops=ops)
    if workload.name == "update-cold":
        ops = [
            ("put", (record_key(keys.randrange(n)), record_value(values, RECORD_SIZE)))
            for _ in range(workload.phase_ops)
        ]
        return Inputs(populate=loaded, ops=ops)
    return Inputs(populate=loaded, ops=_mixed_ops(workload, keys, values))


def _mixed_ops(workload: Workload, keys: DeterministicRng,
               values: DeterministicRng) -> list:
    n = workload.n_records
    zipf = ZipfGenerator(n, 0.99)
    hot = list(range(n))  # rank -> record index: hot keys scattered
    keys.shuffle(hot)
    present = list(range(n))  # sorted indices of the records now stored
    ops = []
    for _ in range(workload.phase_ops):
        draw = keys.random()
        index = hot[min(zipf.sample(keys), n - 1)]
        kind = next(k for k, edge in _MIX if draw < edge)
        if kind == "get":
            ops.append(("get", record_key(index)))
        elif kind == "get_absent":
            ops.append(("get", absent_key(index)))
        elif kind == "scan":
            ops.append(("scan", record_key(index)))
        elif kind == "put":
            ops.append(("put", (record_key(index), record_value(values, RECORD_SIZE))))
            pos = bisect_left(present, index)
            if pos == len(present) or present[pos] != index:
                present.insert(pos, index)
        else:
            # Deletes target stored keys: the drawn one, else the next stored.
            pos = bisect_left(present, index) % len(present)
            ops.append(("delete", record_key(present.pop(pos))))
    return ops


# ------------------------------------------------------------------- model


class Model:
    """The expected store contents: a dict plus a sorted key list."""

    def __init__(self, items: list) -> None:
        self.data = dict(items)
        self.keys = sorted(self.data)

    def put(self, key: bytes, value: bytes) -> None:
        if key not in self.data:
            insort(self.keys, key)
        self.data[key] = value

    def delete(self, key: bytes) -> None:
        del self.data[key]
        del self.keys[bisect_left(self.keys, key)]

    def scan(self, start: bytes, count: int) -> list:
        i = bisect_left(self.keys, start)
        return [(k, self.data[k]) for k in self.keys[i:i + count]]

    def live_bytes(self) -> int:
        return sum(len(k) + len(v) for k, v in self.data.items())

    def mismatches(self, items) -> tuple[int, int]:
        """Compare a full ``items()`` stream: ``(checked, wrong)``.

        Every model key is one check, and so is every extra key the store
        returns; a missing, extra or stale key is one wrong answer.
        """
        seen = wrong = extra = 0
        for key, value in items:
            expected = self.data.get(key)
            if expected is None:
                extra += 1
                continue
            seen += 1
            if value != expected:
                wrong += 1
        return len(self.data) + extra, wrong + extra + len(self.data) - seen


# ------------------------------------------------------------- engine run


@dataclass
class EngineRun:
    """What one engine did in one round."""

    setup_pieces: list = field(default_factory=list)  # HostSpeed.measure pieces
    latencies: list = field(default_factory=list)  # CLOCK seconds per call
    scaled: list = field(default_factory=list)  # latencies at the nominal host speed
    ops: int = 0  # key operations in the measured phase
    attempted: int = 0
    failed: int = 0
    sim: dict = field(default_factory=dict)  # wa, space_amp, sim_tps
    counters: dict = field(default_factory=dict)  # per-layer counters
    problems: list = field(default_factory=list)  # broken accounting checks
    layer_seconds: dict = field(default_factory=dict)  # traced rounds only
    layer_counts: dict = field(default_factory=dict)

    @property
    def phase_s(self) -> float:
        return sum(self.latencies)

    def fingerprint(self) -> tuple:
        """The simulated, exactly repeatable part of the run."""
        return (self.attempted, self.failed, sorted(self.sim.items()),
                sorted(self.counters.items()))


def _inner(engine):
    """The B-tree engine behind a B⁻-tree facade (or the engine itself)."""
    return getattr(engine, "engine", engine)


def stack_counters(engine, device) -> dict:
    """Cumulative counters read from the stack's public stats objects."""
    out = {f"csd.{f.name}": getattr(device.stats, f.name) for f in fields(device.stats)}
    compressor = device.compressor
    if isinstance(compressor, SizeCachingCompressor):
        out["csd.size_cache_hits"] = compressor.hits
        out["csd.size_cache_misses"] = compressor.misses
    inner = _inner(engine)
    wal = getattr(inner, "wal", None)
    if wal is not None:
        out["btree.wal_flushes"] = wal.stats.flushes
    pool = getattr(inner, "pool", None)
    if pool is not None:
        for name in ("hits", "misses", "evictions"):
            out[f"btree.pool_{name}"] = getattr(pool.stats, name)
        for name in ("page_loads", "page_flushes", "delta_flushes", "full_flushes"):
            out[f"btree.{name}"] = getattr(inner.pager.stats, name)
    if hasattr(inner, "compactions_run"):
        out["lsm.compactions"] = inner.compactions_run
        out["lsm.compaction_bytes"] = inner.compact_logical
        out["lsm.memtable_flushes"] = inner.memtable_flushes
    return out


class Runner:
    """Builds one engine, loads it, runs the measured phase, checks it."""

    def __init__(self, workload: Workload, label: str, inputs: Inputs) -> None:
        self.workload = workload
        self.label = label
        self.inputs = inputs
        self.result = EngineRun()
        self.model = Model(inputs.populate)
        self.user_bytes = 0

    def build(self):
        """``(engine, device, clock)``; the self-test substitutes faulty engines."""
        spec = ExperimentSpec(
            system=ENGINES[self.label],
            n_records=self.workload.n_records,
            record_size=RECORD_SIZE,
            cache_fraction=self.workload.cache_fraction,
            log_flush_policy=self.workload.log_flush_policy,
        )
        return build_engine(spec)

    def setup(self, speed: HostSpeed) -> None:
        """Build and load the store, timing each piece with ``speed``."""
        pieces = self.result.setup_pieces
        self.engine, self.device, self.clock = speed.measure(pieces, self.build)
        populate = self.inputs.populate
        for s in range(0, len(populate), POPULATE_BATCH):
            speed.measure(pieces, self._load, populate[s:s + POPULATE_BATCH])

    def _load(self, batch: list) -> None:
        self.engine.put_batch(batch)
        self._boundary()

    def _boundary(self) -> None:
        self.engine.commit()
        self.clock.advance(STEP_SECONDS)
        self.engine.tick()

    def start(self) -> None:
        """Snapshot the counters the measured phase is reported against."""
        engine, device = self.engine, self.device
        self._before = (engine.traffic_snapshot(), device.stats.snapshot(),
                        stack_counters(engine, device), self.clock.now)
        self.stats = PhaseStats()

    def apply_all(self, ops: list) -> None:
        for kind, arg in ops:
            self._apply(kind, arg, self.stats)

    def finish(self) -> None:
        """Close the measured phase: simulated metrics and accounting checks."""
        engine, device, stats, run = self.engine, self.device, self.stats, self.result
        traffic0, device0, counters0, clock0 = self._before
        counters1 = stack_counters(engine, device)
        run.counters = {k: v - counters0.get(k, 0) for k, v in counters1.items()}
        stats.elapsed_seconds = self.clock.now - clock0
        stats.traffic = engine.traffic_snapshot().delta(traffic0)
        stats.device = device.stats.delta(device0)
        run.ops = stats.ops
        run.sim = {
            "wa": stats.device.physical_bytes_written / self.user_bytes,
            "space_amp": device.physical_bytes_used / self.model.live_bytes(),
            "sim_tps": SpeedModel().tps(stats, engine, 1),
        }
        if stats.traffic.total_physical != stats.device.physical_bytes_written:
            run.problems.append(
                f"{self.label}: traffic categories sum to "
                f"{stats.traffic.total_physical} physical bytes, the drive "
                f"wrote {stats.device.physical_bytes_written}")
        if stats.traffic.user_bytes != self.user_bytes:
            run.problems.append(
                f"{self.label}: engine reports {stats.traffic.user_bytes} user "
                f"bytes, the workload wrote {self.user_bytes}")

    def _apply(self, kind: str, arg, stats: PhaseStats) -> None:
        engine = self.engine
        clock = CLOCK
        model = self.model
        run = self.result
        start = clock()
        if kind == "put":
            engine.put(arg[0], arg[1])
        elif kind == "get":
            got = engine.get(arg)
        elif kind == "scan":
            got = engine.scan(arg, SCAN_LENGTH)
        elif kind == "delete":
            engine.delete(arg)
        elif kind == "put_batch":
            engine.put_batch(arg)
        else:
            got = engine.get_batch(arg)
        self._boundary()
        run.latencies.append(clock() - start)
        if kind == "put":
            model.put(arg[0], arg[1])
            self.user_bytes += len(arg[0]) + len(arg[1])
            stats.puts += 1
            n, bad = 1, 0
        elif kind == "get":
            stats.reads += 1
            n, bad = 1, int(got != model.data.get(arg))
        elif kind == "scan":
            stats.scans += 1
            stats.records_scanned += len(got)
            n, bad = 1, int(got != model.scan(arg, SCAN_LENGTH))
        elif kind == "delete":
            model.delete(arg)
            self.user_bytes += len(arg)
            stats.puts += 1
            n, bad = 1, 0
        elif kind == "put_batch":
            for key, value in arg:
                model.put(key, value)
                self.user_bytes += len(key) + len(value)
            stats.puts += len(arg)
            n, bad = len(arg), 0
        else:
            stats.reads += len(arg)
            expected = [model.data.get(k) for k in arg]
            n = len(arg)
            bad = n if len(got) != n else sum(g != e for g, e in zip(got, expected))
        stats.ops += n
        run.attempted += n
        run.failed += bad

    def check(self) -> None:
        """The workload's closing checks, each key one checked operation."""
        engine, model, run = self.engine, self.model, self.result
        if self.workload.name == "update-cold":
            for key, value in model.data.items():
                run.attempted += 1
                run.failed += engine.get(key) != value
        if self.workload.name == "mixed-warm":
            # Every commit was flushed, so a crash must lose nothing.
            self.device.simulate_crash()
        else:
            engine.close()
        reopened = self.reopen()
        checked, wrong = model.mismatches(reopened.items())
        run.attempted += checked
        run.failed += wrong
        self.engine = reopened

    def reopen(self):
        engine = self.engine
        return type(engine).open(self.device, engine.config, self.clock)

    def run(self, tracer=None) -> EngineRun:
        """Set up, run and check this engine alone."""
        speed = HostSpeed()
        self.setup(speed)
        return run_round([self], speed, tracer)[self.label]


def run_round(runners: list, speed: HostSpeed, tracer=None) -> dict:
    """Run the set-up runners' measured phases interleaved, then check each;
    returns ``{label: EngineRun}``.

    The phases advance together, :data:`CHUNK` operations at a time per
    engine, so that a slow spell of the host falls on every engine alike
    instead of on whichever engine happened to be running.  ``speed``
    samples the host before every chunk, and each latency is scaled by its
    chunk's factor into :attr:`EngineRun.scaled`.
    """
    for runner in runners:
        runner.start()
    ops = runners[0].inputs.ops
    samples = [[] for _ in runners]  # per runner: HostSpeed sample per chunk
    # Like timeit: collector pauses would otherwise land on whichever
    # operation crossed an allocation threshold and blur the tail.
    gc.collect()
    gc.disable()
    if tracer is not None:
        tracer.install()
    try:
        for s in range(0, len(ops), CHUNK):
            part = ops[s:s + CHUNK]
            for runner, chunks in zip(runners, samples):
                if tracer is not None:
                    tracer.select(runner.label)
                chunks.append(speed.sample())
                runner.apply_all(part)
    finally:
        if tracer is not None:
            tracer.uninstall()
        gc.enable()
    for runner, chunks in zip(runners, samples):
        run = runner.result
        scales = [speed.scale(index) for index in chunks]
        run.scaled = [t * scales[i // CHUNK] for i, t in enumerate(run.latencies)]
        runner.finish()
        runner.check()
        if tracer is not None:
            runner.result.layer_seconds, runner.result.layer_counts = (
                tracer.totals(runner.label))
    return {runner.label: runner.result for runner in runners}

