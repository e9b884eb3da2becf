"""Serving benchmark: wire frames in, antenna fix out.

Run from the repository root::

    python3 tagbench/run.py --workload append-fix --seed 1 --seconds 35 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``append-fix``: ``WireIngestEndpoint`` on loopback -> ``FleetSupervisor``,
  one deployment, one reader connection, a fix after every frame;
* ``warehouse-fanout``: ``StreamingLLRPParser.feed_columnar`` ->
  ``ShardedFleet.offer_columnar`` (shm ring) with ``nproc`` workers and
  eight deployments, cold fixes by ``nproc`` callers after each drain;
* ``faulty-wire``: two faulted readers, fragmented writes, one deployment.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` serves half
the time untraced and half with every layer's public functions wrapped,
and prints the per-layer split next to the end-to-end metric each layer
should move.  The last line of output is one JSON object.  The exit code
is 0 only when every output check passed.

Inputs come from ``--seed``.  The warm-up session of every set-up uses a
fixed held-out seed (``inputs.HELD_OUT_SEED``); to confirm a claimed
gain on inputs it was not tuned on, run a second ``--seed`` as well.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout (listed in ``.gitignore``).
SCRATCH = ROOT / ".bench_build" / "tagbench"

#: Declared end-to-end metrics: name -> unit.
END_TO_END = {
    "fix_p50_ms": "ms",
    "fix_p90_ms": "ms",
    "fixes_per_s": "1/s",
    "reports_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "heldout_error_cm": "cm",
}
#: Printed for every workload but not declared: see README.md.
PRINTED_ONLY = {
    "fix_error_p50_cm": "cm",
    "fix_error_p90_cm": "cm",
    "failed_fix_ratio": "ratio",
    "shed_ratio": "ratio",
}
UNITS = {**END_TO_END, **PRINTED_ONLY}

#: Per-layer metrics: name -> (unit, end-to-end metric it should move,
#: workloads where it should move it).
PER_LAYER = {
    "hardware.decode_s": ("s/fix", "reports_per_s", "warehouse-fanout"),
    "hardware.resyncs": ("count", "fix_p90_ms", "faulty-wire"),
    "robustness.validate_s": ("s/fix", "reports_per_s",
                              "warehouse-fanout, faulty-wire"),
    "robustness.quarantine_ratio": ("ratio", "fix_error_p50_cm",
                                    "faulty-wire"),
    "robustness.pi_slips_repaired": ("count", "fix_error_p90_cm",
                                     "faulty-wire"),
    "server.ingest_self_s": ("s/fix", "reports_per_s", "warehouse-fanout"),
    "server.fix_s": ("s/fix", "fix_p50_ms", "all"),
    "server.attempts_per_fix": ("1/fix", "fix_p90_ms", "faulty-wire"),
    "server.degraded_ratio": ("ratio", "failed_fix_ratio", "faulty-wire"),
    "server.live_streams": ("count", "peak_rss_mb",
                            "append-fix, warehouse-fanout"),
    "server.buffered_reports": ("count", "peak_rss_mb",
                                "append-fix, warehouse-fanout"),
    "core.extract_series_s": ("s/fix", "fix_p50_ms",
                              "warehouse-fanout, append-fix"),
    "core.locate_self_s": ("s/fix", "fix_p50_ms", "all"),
    "core.series_per_fix": ("1/fix", "fix_p50_ms", "all"),
    "core.snapshots_per_fix": ("1/fix", "fix_p50_ms", "all"),
    "perf.spectrum_s": ("s/fix", "fix_p50_ms",
                        "append-fix, warehouse-fanout"),
    "perf.spectrum_calls_per_fix": ("1/fix", "fixes_per_s", "all"),
    "perf.cache_hit_ratio": ("ratio", "fix_p50_ms",
                             "append-fix, warehouse-fanout"),
    "fleet.offer_s": ("s/fix", "reports_per_s", "warehouse-fanout"),
    "fleet.mailbox_wait_s": ("s/fix", "fix_p50_ms",
                             "append-fix, faulty-wire"),
    "fleet.drain_wait_s": ("s/fix", "reports_per_s", "warehouse-fanout"),
    "fleet.locate_overhead_s": ("s/fix", "fix_p50_ms", "warehouse-fanout"),
    "fleet.ring_fallback_ratio": ("ratio", "reports_per_s",
                                  "warehouse-fanout"),
    "hardware.self_s": ("s/fix", "reports_per_s", "all"),
    "robustness.self_s": ("s/fix", "reports_per_s", "all"),
    "server.self_s": ("s/fix", "fix_p50_ms", "all"),
    "core.self_s": ("s/fix", "fix_p50_ms", "all"),
    "perf.self_s": ("s/fix", "fix_p50_ms", "all"),
    "fleet.self_s": ("s/fix", "fix_p50_ms", "all"),
    "unattributed_s": ("s/fix", "fixes_per_s", "all"),
    "trace.overhead_s_per_fix": ("s/fix", "fixes_per_s", "all"),
}

WORKLOAD_NAMES = ("append-fix", "warehouse-fanout", "faulty-wire")
#: Workloads that run but are left out of ``BENCHMARK.json``, and why.
UNDECLARED = {
    "faulty-wire": "not in BENCHMARK.json: its fix-error check fails on the "
                   "current program (the wire codec reduces phase words "
                   "modulo 4096, so leaked 12-bit corruption passes "
                   "validation); see tagbench/README.md",
}


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()[:12]
        return ref[:12]
    except OSError:
        return "unknown"


def source_digest() -> str:
    """Hash of the program's source, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:12]


def host_stamp() -> str:
    import numpy

    load = ",".join(f"{x:.2f}" for x in os.getloadavg())
    return (
        f"host nproc={len(os.sched_getaffinity(0))} "
        f"python={platform.python_version()} numpy={numpy.__version__} "
        f"git={git_sha()} src={source_digest()} loadavg={load}"
    )


def line(name: str, value, unit: str, note: str = "") -> str:
    shown = "n/a" if value is None else f"{value:.6g}"
    return f"  {name:<30} {shown:>14} {unit:<6} {note}"


def end_to_end(result) -> dict:
    """Every end-to-end figure, declared or printed only."""
    from stats import percentile, weighted_median

    m = result.timed
    latencies_ms = [x * 1000.0 for x in m.latencies_s]
    ledger = result.ledger
    return {
        "fix_p50_ms": percentile(latencies_ms, 50),
        "fix_p90_ms": percentile(latencies_ms, 90),
        "fixes_per_s": (m.requested - m.failed) / m.wall_s,
        # The rate of the burst that carried the median report: a
        # session's last frames carry a few reports each, and their fixed
        # per-burst cost would move a plain median of burst rates.
        "reports_per_s": weighted_median(
            [n / seconds for seconds, n in m.bursts],
            [n for _seconds, n in m.bursts]),
        "setup_s": statistics.median(result.setup_s),
        "peak_rss_mb": m.peak_rss_mb,
        "heldout_error_cm": (
            statistics.fmean(result.heldout.errors_cm)
            if result.heldout.errors_cm else None
        ),
        "fix_error_p50_cm": percentile(m.errors_cm, 50),
        "fix_error_p90_cm": percentile(m.errors_cm, 90),
        "failed_fix_ratio": m.failed / m.requested if m.requested else None,
        "shed_ratio": (
            ledger["shed"] / ledger["offered"] if ledger["offered"] else None
        ),
    }


def print_end_to_end(result, values: dict, memory_units: int) -> None:
    m = result.timed
    fixes, samples = m.requested, len(m.errors_cm)
    notes = {
        "fix_p50_ms": f"n={fixes} fixes",
        "fix_p90_ms": f"n={fixes} fixes",
        "fixes_per_s": f"n={fixes} fixes in {m.wall_s:.2f} s",
        "reports_per_s": f"median over n={m.delivered} reports in "
                         f"{len(m.bursts)} bursts",
        "setup_s": f"median of n={len(result.setup_s)} set-ups",
        "peak_rss_mb": "bench process + workers, read after "
                       f"{memory_units} sessions/rounds",
        "heldout_error_cm": f"mean of n={len(result.heldout.errors_cm)} "
                            "held-out warm-up fixes",
        "fix_error_p50_cm": f"n={samples} fixes; printed, not bounded",
        "fix_error_p90_cm": f"n={samples} fixes; printed, not bounded",
        "failed_fix_ratio": f"{m.failed}/{m.requested}; printed",
        "shed_ratio": f"{result.ledger['shed']}/{result.ledger['offered']}"
                      " reports; printed",
    }
    for name, value in values.items():
        print(line(name, value, UNITS[name], notes[name]))


def print_layers(result, values: dict) -> None:
    traced = result.traced
    print(f"per-layer split: n={traced.requested} traced fixes in "
          f"{traced.wall_s:.2f} s, times per fix requested")
    by_target = {}
    for name, (unit, target, where) in PER_LAYER.items():
        by_target.setdefault(target, []).append((name, unit, where))
    for target, rows in by_target.items():
        print(line(target, values[target], UNITS[target],
                   "untraced half; the layers below should move it"))
        for name, unit, where in rows:
            value, source = result.layers.get(
                name, (0.0, "n/a: layer did not run"))
            print("  " + line(name, value, unit,
                              f"[{source}] should move on: {where}"))


def stop_resource_tracker() -> None:
    """Stop the tracker process ``multiprocessing`` starts for the shard
    workers' shared memory, and wait until it has ended.

    Left alone it outlives this process until it notices the closed pipe.
    ``workload.run`` has joined every worker by now, so this process holds
    the tracker's last pipe end and the wait returns at once.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"tagbench: program source not found under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    print(host_stamp(), flush=True)

    import workloads

    SCRATCH.mkdir(parents=True, exist_ok=True)
    if args.workload == "warehouse-fanout":
        workload = workloads.WarehouseFanout(args.seed, SCRATCH)
    else:
        workload = workloads.WORKLOADS[args.workload](args.seed)
    try:
        result = workload.run(args.seconds, bool(args.trace))
    finally:
        stop_resource_tracker()
    print(f"tagbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} "
          f"engine={result.engine}")
    if args.workload in UNDECLARED:
        print(f"note: {args.workload} is {UNDECLARED[args.workload]}")
    values = end_to_end(result)
    print_end_to_end(result, values,
                     workload.memory_units)
    if args.trace:
        print_layers(result, values)
        spans_file = SCRATCH / f"spans-{args.workload}-{args.seed}.jsonl"
        result.recorder.write(spans_file)
        print(f"spans: {len(result.recorder.spans)} written to "
              f"{spans_file.relative_to(ROOT)}")
        metrics = {
            name: {"value": result.layers.get(name, (0.0,))[0],
                   "unit": unit}
            for name, (unit, _target, _where) in PER_LAYER.items()
        }
    else:
        metrics = {}
        for name, unit in END_TO_END.items():
            if values[name] is None:
                result.problems.append(f"{name} has too few samples")
                continue
            metrics[name] = {"value": values[name], "unit": unit}
    correct = not result.problems
    for problem in result.problems:
        print(f"CHECK FAILED: {problem}")
    print("checks: " + ("ok" if correct else
                        f"{len(result.problems)} failed"))
    m = result.timed if not args.trace else result.traced
    print(json.dumps({
        "correct": correct,
        "attempted": m.requested,
        "failed": m.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
