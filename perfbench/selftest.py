"""Show that the benchmark's checks can fail.

    python3 perfbench/selftest.py

Runs small versions of the workloads on each engine four ways: as built,
and wrapped so that it returns stale values from ``get``, loses a key
across a reopen, or over-reports ``user_bytes``.  The clean run must pass
every check and each faulty run must be flagged by the check aimed at its
fault.  Also checks that a traced phase leaves no wrapper installed and
simulates exactly what the untraced phase does.  Exits 1 on any miss.
"""

from __future__ import annotations

import sys
from dataclasses import replace

import run  # noqa: F401  (pins the REPRO_* settings and puts src/ on the path)
from layers import WRAPPED, LayerTracer
from suite import ENGINES, WORKLOADS, Runner, make_inputs

SMALL = {
    "update-cold": replace(WORKLOADS["update-cold"], n_records=600, phase_ops=600),
    "mixed-warm": replace(WORKLOADS["mixed-warm"], n_records=400, phase_ops=600),
    "batch-ingest": replace(WORKLOADS["batch-ingest"], n_records=400),
}


class Faulty:
    """Delegates to a real engine, except where ``fault`` says otherwise."""

    def __init__(self, inner, fault: str) -> None:
        self.inner = inner
        self.fault = fault
        self.first: dict = {}  # key -> first value ever written

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def put(self, key, value):
        self.first.setdefault(key, value)
        self.inner.put(key, value)

    def put_batch(self, items):
        for key, value in items:
            self.first.setdefault(key, value)
        self.inner.put_batch(items)

    def get(self, key):
        value = self.inner.get(key)
        if self.fault == "stale" and value is not None:
            return self.first.get(key, value)
        return value

    def get_batch(self, keys):
        return [self.get(key) for key in keys]

    def items(self):
        stream = self.inner.items()
        if self.fault == "drop":
            next(stream, None)
        return stream

    def traffic_snapshot(self):
        snap = self.inner.traffic_snapshot()
        if self.fault == "user_bytes":
            snap = replace(snap, user_bytes=snap.user_bytes * 2)
        return snap


class FaultyRunner(Runner):
    def __init__(self, workload, label, inputs, fault: str) -> None:
        super().__init__(workload, label, inputs)
        self.fault = fault

    def build(self):
        engine, device, clock = super().build()
        return Faulty(engine, self.fault), device, clock

    def reopen(self):
        inner = self.engine.inner
        engine = type(inner).open(self.device, inner.config, self.clock)
        # Only the reopened store loses a key.
        return Faulty(engine, "drop" if self.fault == "drop" else "none")


def main() -> int:
    misses = []
    originals = {(owner, attr): owner.__dict__[attr]
                 for owner, names, _ in WRAPPED for attr in names}

    def expect(condition: bool, what: str) -> None:
        print(("ok   " if condition else "MISS ") + what)
        if not condition:
            misses.append(what)

    for name, workload in SMALL.items():
        inputs = make_inputs(workload, seed=7)
        for label in ENGINES:
            where = f"{name}/{label}"
            clean = Runner(workload, label, inputs).run()
            expect(clean.failed == 0 and not clean.problems,
                   f"{where}: the unmodified engine passes every check")
            tracer = LayerTracer()
            traced = Runner(workload, label, inputs).run(tracer)
            expect(traced.fingerprint() == clean.fingerprint(),
                   f"{where}: the traced phase simulates what the untraced one does")
            expect(all(owner.__dict__[attr] is raw
                       for (owner, attr), raw in originals.items()),
                   f"{where}: the tracer restored every wrapped method")
            dropped = FaultyRunner(workload, label, inputs, "drop").run()
            expect(dropped.failed >= 1, f"{where}: a key lost across reopen is a failed op")
            inflated = FaultyRunner(workload, label, inputs, "user_bytes").run()
            expect(any("user bytes" in p for p in inflated.problems),
                   f"{where}: over-reported user_bytes breaks the accounting check")
            if name != "batch-ingest":
                # batch-ingest writes each key once, so no older value exists.
                stale = FaultyRunner(workload, label, inputs, "stale").run()
                expect(stale.failed >= 1, f"{where}: a stale get is a failed op")
    print(f"{len(misses)} missed")
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())
