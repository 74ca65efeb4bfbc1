"""Benchmark: the B⁻-tree, the B+-tree and the LSM-tree on one workload.

    python3 perfbench/run.py --workload update-cold --seed 1 --seconds 10 --trace 0

A run repeats whole rounds until ``--seconds`` of measured phase time have
accumulated (at least one round).  Times are the thread's CPU time,
corrected to a nominal host speed by :mod:`hostspeed` before they are
reported.  A round generates the workload's inputs, builds and loads one
store per engine (set-up), runs the engines' measured phases interleaved,
and checks every result against the model.  Rounds are
identical, so every round attempts the same operations and fails the same
ones.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
untraced rounds, then one more round with :class:`layers.LayerTracer`
installed around each measured phase, and prints the per-layer metrics.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent

# What is measured must not depend on the caller's shell.
PINNED_ENV = {"REPRO_FAST": "0", "REPRO_FULL": "0", "REPRO_SIZE_CACHE": "1",
              "REPRO_TRACE": "0", "REPRO_JOBS": "1"}
os.environ.update(PINNED_ENV)

if not (ROOT / "src" / "repro" / "__init__.py").is_file():
    sys.exit(f"perfbench: no repro package under {ROOT / 'src'}; "
             "run from a checkout of the repository")
sys.path.insert(0, str(ROOT / "src"))

from hostspeed import NOMINAL_S, HostSpeed  # noqa: E402
from layers import LayerTracer  # noqa: E402
from suite import ENGINES, WORKLOADS, EngineRun, Runner, make_inputs, run_round  # noqa: E402


def p99(samples: list) -> float:
    """Nearest-rank 99th percentile."""
    ordered = sorted(samples)
    return ordered[-(-99 * len(ordered) // 100) - 1]


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


SETUP_MIN_S = 1.0

UNITS = {"setup_s": "s", "ops_per_s": "ops/s", "op_p99_us": "us", "wa": "ratio",
         "space_amp": "ratio", "sim_tps": "sim_ops/s", "host.ref_us": "us"}


def timed_round(workload, seed: int, speed: HostSpeed,
                tracer=None) -> tuple[list, float, dict]:
    """One round: ``(corrected set-up seconds per repetition, corrected
    input generation seconds, runs)``.

    Set-up is repeated until :data:`SETUP_MIN_S` (uncorrected) have been
    spent on it, so that a cheap set-up is still timed over many samples;
    the stores of the last repetition are the ones measured.
    """
    setups = []
    spent = 0.0
    while not setups or spent < SETUP_MIN_S:
        gen = []
        inputs = speed.measure(gen, make_inputs, workload, seed)
        runners = [Runner(workload, label, inputs) for label in ENGINES]
        for runner in runners:
            runner.setup(speed)
        pieces = gen + [p for r in runners for p in r.result.setup_pieces]
        spent += sum(seconds for seconds, _ in pieces)
        gen_s = speed.corrected(gen)
        setups.append(speed.corrected(pieces))
    return setups, gen_s, run_round(runners, speed, tracer)


def end_to_end(setups: list, rounds: list) -> dict:
    metrics = {"setup_s": median(setups)}
    for label in ENGINES:
        latencies = [s for runs in rounds for s in runs[label].scaled]
        ops = sum(runs[label].ops for runs in rounds)
        last: EngineRun = rounds[-1][label]
        metrics[f"ops_per_s.{label}"] = ops / sum(latencies)
        metrics[f"op_p99_us.{label}"] = p99(latencies) * 1e6
        for name in ("wa", "space_amp", "sim_tps"):
            metrics[f"{name}.{label}"] = last.sim[name]
    return metrics


def per_layer(gen_s: float, ref_s: float, traced: dict, untraced: dict) -> dict:
    metrics = {"workloads.gen_s": gen_s, "host.ref_us": ref_s * 1e6}
    for label, run in traced.items():
        c = run.counters
        t = run.layer_seconds
        n = run.layer_counts
        layer = {
            "csd.compress_s": t.get("csd.compress", 0.0),
            "csd.size_cache_hit_rate": ratio(
                c.get("csd.size_cache_hits", 0),
                c.get("csd.size_cache_hits", 0) + c.get("csd.size_cache_misses", 0)),
            "csd.device_s": t.get("csd.device", 0.0),
            "csd.write_ios": c["csd.write_ios"],
            "csd.blocks_written": c["csd.blocks_written"],
            "csd.compression_ratio": ratio(c["csd.physical_bytes_written"],
                                           c["csd.logical_bytes_written"]),
            "csd.read_ios": c["csd.read_ios"],
            "csd.flush_ios": c["csd.flush_ios"],
            "csd.trim_ios": c["csd.trim_ios"],
            "btree.wal_s": t.get("btree.wal", 0.0),
            "btree.wal_flushes": c.get("btree.wal_flushes", 0),
            "trace_overhead": sum(run.scaled) / sum(untraced[label].scaled),
        }
        if label == "lsm":
            layer.update({
                "lsm.engine_s": t.get("lsm.engine", 0.0),
                "lsm.memtable_s": t.get("lsm.memtable", 0.0),
                "lsm.sstable_s": t.get("lsm.sstable", 0.0),
                "lsm.compaction_s": t.get("lsm.compaction", 0.0),
                "lsm.compactions": c["lsm.compactions"],
                "lsm.compaction_bytes": c["lsm.compaction_bytes"],
                "lsm.memtable_flushes": c["lsm.memtable_flushes"],
                "lsm.bloom_s": t.get("lsm.bloom", 0.0),
                "lsm.bloom_probes": n.get("lsm.bloom_probes", 0),
                "lsm.bloom_negative_rate": ratio(n.get("lsm.bloom_probes.negative", 0),
                                                 n.get("lsm.bloom_probes", 0)),
                "lsm.tables_probed_per_get": ratio(n.get("lsm.table_gets", 0),
                                                   n.get("lsm.gets", 0)),
            })
        else:
            layer.update({
                "btree.tree_s": t.get("btree.tree", 0.0),
                "btree.pool_s": t.get("btree.pool", 0.0),
                "btree.pool_hit_ratio": ratio(
                    c["btree.pool_hits"], c["btree.pool_hits"] + c["btree.pool_misses"]),
                "btree.pool_evictions": c["btree.pool_evictions"],
                "btree.pager_s": t.get("btree.pager", 0.0),
                "btree.page_loads": c["btree.page_loads"],
                "btree.page_flushes": c["btree.page_flushes"],
            })
        if label == "bminus":
            layer.update({
                "core.delta_s": t.get("core.delta", 0.0),
                "core.delta_flushes": c["btree.delta_flushes"],
                "core.full_flushes": c["btree.full_flushes"],
            })
        for name, value in layer.items():
            metrics[f"{name}.{label}"] = value
    return metrics


def unit_of(name: str) -> str:
    base, _, engine = name.rpartition(".")
    if engine not in ENGINES:
        base = name
    if base in UNITS:
        return UNITS[base]
    if base.endswith("_s"):
        return "s"
    if base.endswith(("_rate", "_ratio", "overhead", "per_get")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    speed = HostSpeed()
    setups, gens, rounds = [], [], []
    measured = 0.0
    while not rounds or measured < args.seconds:
        samples, gen_s, runs = timed_round(workload, args.seed, speed)
        setups.extend(samples)
        gens.append(gen_s)
        rounds.append(runs)
        measured += sum(r.phase_s for r in runs.values())

    problems = []
    for runs in rounds:
        for run in runs.values():
            problems.extend(run.problems)
    reference = {label: run.fingerprint() for label, run in rounds[0].items()}
    if any(run.fingerprint() != reference[label]
           for runs in rounds[1:] for label, run in runs.items()):
        problems.append("rounds of the same inputs disagree on simulated results")
    last = rounds[-1]
    if args.workload in ("update-cold", "mixed-warm") and not (
            last["bminus"].sim["wa"] < last["btree"].sim["wa"]):
        problems.append("the B⁻-tree does not write less than the B+-tree")

    if args.trace:
        tracer = LayerTracer()
        _, gen_s, traced = timed_round(workload, args.seed, speed, tracer)
        rounds.append(traced)
        if any(run.fingerprint() != reference[label] for label, run in traced.items()):
            problems.append("the traced round's simulated results differ from the untraced")
        problems.extend(p for run in traced.values() for p in run.problems)
        metrics = per_layer(median(gens + [gen_s]), speed.median_s(), traced, rounds[0])
    else:
        metrics = end_to_end(setups, rounds)

    attempted = sum(run.attempted for runs in rounds for run in runs.values())
    failed = sum(run.failed for runs in rounds for run in runs.values())
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    for runs in rounds[:1]:
        for label, run in runs.items():
            print(f"{label:7s} attempted {run.attempted} failed {run.failed}")
    print(f"host reference task: median {speed.median_s() * 1e6:.1f} us over "
          f"{len(speed.samples)} samples, nominal {NOMINAL_S * 1e6:.1f} us")
    for name, value in metrics.items():
        print(f"{name:34s} {value:16.6f} {unit_of(name)}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
