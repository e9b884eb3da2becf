"""The three workloads: set-up, warm-up, timed phase and output checks.

Every loop is closed: a reader writes its next frame only after the
fleet ledger shows the previous one delivered, and a fix caller asks for
its next fix only after the previous one returned.  Serving defaults are
never overridden: the engine is the one :class:`DeploymentSpec` gives
when a spec names none, and actor, pipeline, buffer and telemetry
settings are left alone.
"""

from __future__ import annotations

import asyncio
import dataclasses
import itertools
import os
import resource
import shutil
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import TagspinError
from repro.fleet.sharding import ShardedFleet
from repro.fleet.supervisor import FleetSupervisor
from repro.fleet.wire_ingest import WireIngestEndpoint
from repro.fleet.worker import DeploymentSpec
from repro.hardware.llrp_stream import StreamingLLRPParser
from repro.obs.exposition import histogram_totals, sample_value
from repro.server.registry import TagRegistry
from repro.server.resilience import ResilientLocalizationServer

import inputs
import spans
import stats

#: No fix may land farther than this from the recorded antenna [cm].
#: Fixes are requested only once a stream covers a full disk rotation,
#: the aperture the method needs; clean fixes then stay below ~20 cm.
FIX_ERROR_BOUND_CM = 50.0
#: Smallest timed sample: enough fixes for p90 with ten beyond it.
MIN_FIXES = stats.min_samples_for(90)
DELIVERY_TIMEOUT_S = 60.0
#: Delivery polling: every loop turn for 10 ms, then 50 us backing off
#: to 2 ms.
SPIN_S, POLL_MIN_S, POLL_MAX_S = 1e-2, 5e-5, 2e-3
DEPLOYMENT = "site"
WAREHOUSE_DEPLOYMENTS = tuple(f"site-{i}" for i in range(8))

clock = time.perf_counter


def serving_engine() -> str:
    """The engine a deployment gets when its spec names none."""
    return next(
        f.default for f in dataclasses.fields(DeploymentSpec)
        if f.name == "engine"
    )


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set of a live process (``VmHWM``)."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def first_fix_frame(session: inputs.Session, period_s: float) -> int:
    """First frame after which the stream covers a whole disk rotation."""
    for index, span_s in enumerate(session.frame_span_s):
        if span_s >= period_s:
            return index
    return len(session.frames) - 1


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------
@dataclass
class Measure:
    """What one timed phase (or one warm-up) observed."""

    latencies_s: List[float] = field(default_factory=list)
    errors_cm: List[float] = field(default_factory=list)
    attempts: List[int] = field(default_factory=list)
    degraded: int = 0
    requested: int = 0
    failed: int = 0
    #: ``(seconds, reports)`` of each ingest burst.
    bursts: List[Tuple[float, int]] = field(default_factory=list)
    delivered: int = 0
    drain_wait_s: float = 0.0
    wall_s: float = 0.0
    units: int = 0
    peak_rss_mb: Optional[float] = None
    problems: List[str] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def fix(self, latency_s: float, result, truth, label: str) -> None:
        """Count one fix request; a failure stays in the latency sample."""
        with self._lock:
            self.requested += 1
            self.latencies_s.append(latency_s)
            if isinstance(result, BaseException):
                self.failed += 1
                self.problems.append(f"fix {label} failed: {result!r}")
                return
            fix, diagnostics = result
            error_cm = fix.position.distance_to(truth) * 100.0
            self.errors_cm.append(error_cm)
            self.attempts.append(diagnostics.attempts)
            self.degraded += diagnostics.degradation.value == "degraded"
            if not error_cm <= FIX_ERROR_BOUND_CM:
                self.problems.append(
                    f"fix {label} is {error_cm:.1f} cm from the recorded "
                    f"antenna (bound {FIX_ERROR_BOUND_CM} cm)"
                )

    def burst(self, start: float, end: float, reports: int) -> None:
        with self._lock:
            self.bursts.append((end - start, reports))
            self.delivered += reports


class Phase:
    """A timed phase: at least ``seconds``, ``min_fixes`` and ``min_units``."""

    def __init__(self, seconds: float, min_fixes: int, min_units: int):
        self.seconds = seconds
        self.min_fixes = min_fixes
        self.min_units = min_units
        self.start = clock()

    def over(self, m: Measure) -> bool:
        return (
            clock() - self.start >= self.seconds
            and m.requested >= self.min_fixes
            and m.units >= self.min_units
        )


@dataclass
class Result:
    """Everything a run reports; ``layers`` only on traced runs."""

    engine: str
    setup_s: List[float]
    heldout: Measure
    timed: Measure
    problems: List[str]
    layers: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    traced: Optional[Measure] = None
    #: Fleet ledger totals over every deployment at the end of the run.
    ledger: dict = field(default_factory=dict)
    #: The traced half's spans.
    recorder: Optional[spans.SpanRecorder] = None


# ----------------------------------------------------------------------
# Layer metrics from spans and counters
# ----------------------------------------------------------------------
def _cache_counts(stats_dict) -> Tuple[int, int]:
    """(hits, lookups) summed over every cache in ``cache_stats()``.

    LRU caches report ``hits``/``misses``; the streaming accumulator
    reports reuse as ``exact_hits`` and ``extensions`` against
    ``cold_builds``.
    """
    hits = lookups = 0
    if isinstance(stats_dict, dict):
        if "hits" in stats_dict and "misses" in stats_dict:
            hits += stats_dict["hits"]
            lookups += stats_dict["hits"] + stats_dict["misses"]
        if "cold_builds" in stats_dict:
            reused = stats_dict["exact_hits"] + stats_dict["extensions"]
            hits += reused
            lookups += reused + stats_dict["cold_builds"]
        for value in stats_dict.values():
            h, n = _cache_counts(value)
            hits += h
            lookups += n
    return hits, lookups


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def span_layers(recorder: spans.SpanRecorder, m: Measure) -> Dict[str, float]:
    """Per-fix layer figures that in-process spans give."""
    every = recorder.spans
    children = spans.children_of(every)
    by_id = {s.span_id: s for s in every}
    fixes = max(1, m.requested)

    def total(name, measure=lambda s: s.duration):
        return sum(measure(s) for s in every if s.name == name) / fixes

    def self_of(span):
        return spans.self_time(span, children)

    top_perf = [
        s for s in every if s.layer == "perf"
        and (s.parent_id is None or by_id[s.parent_id].layer != "perf")
    ]
    roots = [s for s in every if s.layer == "root"]
    fix_roots = [s for s in roots if s.name == "fix"]
    extracts = [s for s in every if s.name == "core.extract_series"]
    out = {
        "hardware.decode_s": total("hardware.decode"),
        "robustness.validate_s": total("robustness.validate"),
        "server.ingest_self_s": total("server.ingest", self_of),
        "server.fix_s": total("server.fix"),
        "core.extract_series_s": total("core.extract_series"),
        "core.locate_self_s": total("core.locate", self_of),
        "core.series_per_fix": sum(
            s.info.get("series", 0) for s in extracts) / fixes,
        "core.snapshots_per_fix": sum(
            s.info.get("snapshots", 0) for s in extracts) / fixes,
        "perf.spectrum_s": sum(s.duration for s in top_perf) / fixes,
        "perf.spectrum_calls_per_fix": len(top_perf) / fixes,
        "fleet.offer_s": total("fleet.offer"),
        "fleet.mailbox_wait_s": total("fleet.mailbox_wait"),
        "fleet.locate_overhead_s": sum(
            root.duration - sum(c.duration for c in children[root.span_id]
                                if c.name == "server.fix")
            for root in fix_roots
        ) / fixes,
        "unattributed_s": sum(
            spans.unattributed(root, children) for root in roots) / fixes,
    }
    for layer, seconds in spans.layer_self_times(every).items():
        out[f"{layer}.self_s"] = seconds / fixes
    return out


# ----------------------------------------------------------------------
# In-process serving: WireIngestEndpoint on loopback -> FleetSupervisor
# ----------------------------------------------------------------------
class InProcessTier:
    """One deployment on a :class:`FleetSupervisor`, fed over sockets."""

    def __init__(self, layout: inputs.Layout, engine: str):
        self.layout = layout
        self.engine = engine
        self.recorder: Optional[spans.SpanRecorder] = None
        self.endpoints: List[WireIngestEndpoint] = []
        self.sent = 0
        self.supervisor: Optional[FleetSupervisor] = None

    async def start(self) -> None:
        registry = TagRegistry()
        for record in self.layout.registry_records:
            registry.register(record)
        engine = self.engine
        self.supervisor = FleetSupervisor()
        self.supervisor.add_deployment(
            DEPLOYMENT,
            lambda: ResilientLocalizationServer(registry, engine=engine),
        )
        while not self._serving():
            await asyncio.sleep(0)

    def _serving(self) -> bool:
        actor = self.supervisor.actor(DEPLOYMENT)
        return actor is not None and actor.running

    @property
    def server(self) -> ResilientLocalizationServer:
        return self.supervisor.actor(DEPLOYMENT).server

    def ledger(self) -> dict:
        return self.supervisor.accounting(DEPLOYMENT)

    async def stop(self) -> None:
        for endpoint in self.endpoints:
            await endpoint.stop()
        await self.supervisor.stop()

    async def wait_delivered(self, target: int) -> float:
        """Block until the ledger accounts for ``target`` reports.

        Checks on every event-loop turn for ``SPIN_S`` (a frame's
        delivery normally lands inside it, so its end is seen to within
        one turn), then backs off: a delivery stuck behind another
        reader's fix must not take the interpreter lock from that fix.
        """
        start = clock()
        pause = 0.0
        while True:
            ledger = self.ledger()
            waited = clock() - start
            if ledger["delivered"] + ledger["shed"] >= target:
                return waited
            if waited > DELIVERY_TIMEOUT_S:
                raise TimeoutError(
                    f"reports not delivered within {DELIVERY_TIMEOUT_S}s: "
                    f"{ledger}"
                )
            if waited > SPIN_S:
                pause = min(POLL_MAX_S, pause * 2 or POLL_MIN_S)
            await asyncio.sleep(pause)

    def reader_of_parser(self, parser) -> Optional[str]:
        """The reader whose connection ``parser`` decodes."""
        for endpoint in self.endpoints:
            for connection in endpoint.connections:
                if connection.stats is parser.stats:
                    return endpoint.reader_name
        return None

    async def stream(self, session: inputs.Session, reader: str,
                     m: Measure, phase: Optional[Phase] = None,
                     fix_every: int = 1, at_end_only: bool = False,
                     fragments: Optional[Callable] = None) -> None:
        """One reader connection: frames in, fixes out, closed loop."""
        endpoint = WireIngestEndpoint(self.supervisor, DEPLOYMENT, reader)
        self.endpoints.append(endpoint)
        host, port = await endpoint.start()
        _stream_reader, writer = await asyncio.open_connection(host, port)
        last = len(session.frames) - 1
        first = last if at_end_only else first_fix_frame(
            session, self.layout.period_s)
        try:
            for index, frame in enumerate(session.frames):
                if phase is not None and phase.over(m):
                    break
                await self._burst(writer, frame,
                                  session.frame_reports[index], reader, m,
                                  fragments)
                if index >= first and (
                    (index - first) % fix_every == 0 or index == last
                ):
                    for antenna in session.ports:
                        await self.fix(reader, antenna,
                                       session.truths[antenna], m)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            await endpoint.stop()

    async def _burst(self, writer, frame: bytes, reports: int, reader: str,
                     m: Measure, fragments: Optional[Callable]) -> None:
        key = ("reader", reader)
        recorder = self.recorder
        root = recorder.open_root("burst", key) if recorder else None
        start = clock()
        self.sent += reports
        target = self.sent
        if fragments is None:
            writer.write(frame)
        else:
            for piece in fragments(frame):
                writer.write(piece)
                # Yield so the endpoint reads this piece on its own and
                # has to reassemble frames split anywhere, headers too.
                await asyncio.sleep(0)
        await writer.drain()
        m.drain_wait_s += await self.wait_delivered(target)
        end = clock()
        if recorder:
            recorder.close_root(root, key)
        m.burst(start, end, reports)

    async def fix(self, reader: str, antenna: int, truth, m: Measure) -> None:
        key = ("fix", reader, antenna)
        recorder = self.recorder
        root = recorder.open_root("fix", key) if recorder else None
        start = clock()
        try:
            result = await self.supervisor.locate_2d(
                DEPLOYMENT, reader, antenna)
        except (TagspinError, TimeoutError) as exc:
            result = exc
        latency = clock() - start
        if recorder:
            recorder.close_root(root, key)
        m.fix(latency, result, truth, f"{reader}:{antenna}")

    # -- counters for the traced run -------------------------------------
    def counters(self) -> dict:
        server = self.server
        quarantine = server.all_quarantine_stats().values()
        return {
            "received": sum(q.received for q in quarantine),
            "quarantined": sum(q.quarantined for q in quarantine),
            "pi_slips": sum(q.pi_slips_repaired for q in quarantine),
            "cache": _cache_counts(server.engine_cache_stats()),
        }

    def checks(self, stream_identity: bool) -> List[str]:
        problems = stats.ledger_violations(DEPLOYMENT, self.ledger())
        if stream_identity:
            for (reader, antenna), q in self.server.all_quarantine_stats(
            ).items():
                problems += stats.stream_violations(
                    f"{reader}:{antenna}", q.received, q.accepted,
                    q.quarantined)
        return problems


class InProcessWorkload:
    """Shared skeleton of ``append-fix`` and ``faulty-wire``."""

    name = ""
    faulty = False
    #: Sessions after which peak memory is read, so ``peak_rss_mb``
    #: covers the same work however fast the run is.
    memory_units = 12
    #: Set-ups per untraced run; ``setup_s`` is their median.
    setup_repeats = 9
    #: Concurrent reader connections, each a closed loop.
    readers = 1
    #: Frames between fixes once a stream covers a whole rotation.
    fix_every = 1
    #: Simulated poses, and sessions framed from them before timing.
    pool_size = 12
    sessions = 48

    def __init__(self, seed: int):
        self.seed = seed
        self.layout = inputs.paper_layout()
        held_out = self.layout.pool(inputs.HELD_OUT_SEED, 1)
        self.warmup = [held_out.session(i, self.faulty)
                       for i in range(self.readers)]
        pool = self.layout.pool(seed, self.pool_size)
        self.plan = [pool.session(i, self.faulty)
                     for i in range(self.sessions)]

    def fragments(self, seed: int, index: int) -> Optional[Callable]:
        """How a session's frames are cut into socket writes."""
        return None

    async def warm_up(self, tier: InProcessTier, m: Measure) -> None:
        await asyncio.gather(*(
            tier.stream(session, f"warmup-{lane}", m, at_end_only=True,
                        fragments=self.fragments(inputs.HELD_OUT_SEED, lane))
            for lane, session in enumerate(self.warmup)
        ))

    async def timed(self, tier: InProcessTier, phase: Phase, m: Measure,
                    first: int) -> int:
        """Serve sessions until the phase is over; returns next index."""
        next_index = [first]

        async def lane() -> None:
            while not phase.over(m) and next_index[0] < len(self.plan):
                index = next_index[0]
                next_index[0] += 1
                await tier.stream(
                    self.plan[index], f"reader-{index:04d}", m, phase,
                    fix_every=self.fix_every,
                    fragments=self.fragments(self.seed, index),
                )
                m.units += 1
                if m.units == self.memory_units:
                    m.peak_rss_mb = own_peak_rss_mb()

        start = clock()
        await asyncio.gather(*(lane() for _ in range(self.readers)))
        m.wall_s = clock() - start
        return next_index[0]

    def run(self, seconds: float, trace: bool) -> Result:
        return asyncio.run(self._run(seconds, trace))

    async def _set_up(self, engine: str) -> Tuple[float, InProcessTier,
                                                  Measure]:
        start = clock()
        tier = InProcessTier(self.layout, engine)
        await tier.start()
        warm = Measure()
        await self.warm_up(tier, warm)
        return clock() - start, tier, warm

    async def _run(self, seconds: float, trace: bool) -> Result:
        engine = serving_engine()
        setups, problems = [], []
        tier = warm = None
        for _ in range(1 if trace else self.setup_repeats):
            if tier is not None:
                await tier.stop()
            elapsed, tier, warm = await self._set_up(engine)
            setups.append(elapsed)
            problems += warm.problems
        try:
            if not trace:
                timed = Measure()
                phase = Phase(seconds, MIN_FIXES, self.memory_units)
                await self.timed(tier, phase, timed, 0)
                result = Result(engine, setups, warm, timed, problems)
            else:
                result = await self._traced(tier, engine, seconds, setups,
                                            warm, problems)
            result.problems += result.timed.problems
            result.problems += tier.checks(stream_identity=self.faulty)
            result.ledger = tier.ledger()
        finally:
            await tier.stop()
        return result

    async def _traced(self, tier, engine, seconds, setups, warm, problems):
        half = seconds / 2.0
        minimum = stats.min_samples_for(50)
        untraced = Measure()
        index = await self.timed(tier, Phase(half, minimum, 1), untraced, 0)
        recorder = spans.SpanRecorder()
        patches = spans.Patches()
        spans.wrap_layers(patches, recorder, tier.reader_of_parser)
        spans.wrap_engine(patches, recorder, tier.server.system.engine)
        tier.recorder = recorder
        first_endpoint = len(tier.endpoints)
        before = tier.counters()
        traced = Measure()
        try:
            await self.timed(tier, Phase(half, minimum, 1), traced, index)
        finally:
            patches.undo()
            tier.recorder = None
        after = tier.counters()
        server = tier.server
        layers = span_layers(recorder, traced)
        hits = after["cache"][0] - before["cache"][0]
        lookups = after["cache"][1] - before["cache"][1]
        layers.update({
            "hardware.resyncs": sum(
                e.stats.resyncs for e in tier.endpoints[first_endpoint:]),
            "robustness.quarantine_ratio": _ratio(
                after["quarantined"] - before["quarantined"],
                after["received"] - before["received"]),
            "robustness.pi_slips_repaired": (
                after["pi_slips"] - before["pi_slips"]),
            "server.live_streams": len(server.streams()),
            "server.buffered_reports": sum(
                server.stream_report_count(*key) for key in server.streams()),
            "perf.cache_hit_ratio": _ratio(hits, lookups),
            "fleet.drain_wait_s": traced.drain_wait_s / max(1, traced.requested),
            "fleet.ring_fallback_ratio": 0.0,
        })
        result = Result(engine, setups, warm, untraced, problems,
                        traced=traced, recorder=recorder)
        result.layers = finish_layers(layers, traced, untraced, sharded=False)
        result.problems += traced.problems
        return result


class AppendFix(InProcessWorkload):
    """Paper-default desk; a new reader per session; fix after each frame."""

    name = "append-fix"


class FaultyWire(InProcessWorkload):
    """Two faulted readers on one deployment, fragmented writes."""

    name = "faulty-wire"
    faulty = True
    readers = 2
    fix_every = 2
    sessions = 64

    def fragments(self, seed: int, index: int) -> Callable:
        rng = np.random.default_rng([seed, index, 5])

        def split(frame: bytes) -> List[bytes]:
            pieces, offset = [], 0
            while offset < len(frame):
                size = int(rng.integers(1, 64))
                pieces.append(frame[offset:offset + size])
                offset += size
            return pieces

        return split


# ----------------------------------------------------------------------
# Across processes: StreamingLLRPParser.feed_columnar -> ShardedFleet
# ----------------------------------------------------------------------
class WarehouseFanout:
    """``ShardedFleet`` with ``nproc`` workers and eight deployments."""

    name = "warehouse-fanout"
    #: Rounds after which peak memory is read.
    memory_units = 6
    #: Set-ups per untraced run (each spawns the workers); ``setup_s``
    #: is their median.
    setup_repeats = 5
    #: Simulated poses: three rounds use them all, so a run's cost is
    #: an average over 24 reader poses and no few poses of one seed set it.
    pool_size = 3 * len(WAREHOUSE_DEPLOYMENTS)

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.scratch = scratch
        self.layout = inputs.warehouse_layout()
        held_out = self.layout.pool(inputs.HELD_OUT_SEED, 1)
        self.warmup = held_out.session(0)
        self.pool = self.layout.pool(seed, self.pool_size)
        self.workers = nproc()
        self.fleet: Optional[ShardedFleet] = None
        self.recorder: Optional[spans.SpanRecorder] = None
        self.parser_stats = []
        self._dirs = []

    # -- tier -------------------------------------------------------------
    def _set_up(self, engine: str) -> Tuple[float, Measure]:
        directory = self.scratch / f"checkpoints-{os.getpid()}-{len(self._dirs)}"
        self._dirs.append(directory)
        start = clock()
        self.fleet = ShardedFleet(workers=self.workers,
                                  checkpoint_dir=str(directory))
        self.fleet.start()
        records = tuple(self.layout.registry_records)
        for deployment in WAREHOUSE_DEPLOYMENTS:
            self.fleet.add_deployment(DeploymentSpec(deployment, records))
        # Warm every worker: the held-out session on one deployment of
        # each shard, then one fix per port.
        first_of_shard = {}
        for deployment in WAREHOUSE_DEPLOYMENTS:
            first_of_shard.setdefault(self.fleet.shard_of(deployment),
                                      deployment)
        warm = Measure()
        self.round({d: ("warmup", self.warmup)
                    for d in first_of_shard.values()}, warm)
        return clock() - start, warm

    def _stop_fleet(self) -> None:
        if self.fleet is not None:
            self.fleet.close()
            self.fleet = None

    def close(self) -> None:
        self._stop_fleet()
        for directory in self._dirs:
            shutil.rmtree(directory, ignore_errors=True)

    def peak_rss_mb(self) -> float:
        total = own_peak_rss_mb()
        for info in self.fleet.worker_info():
            total += vm_hwm_mb(info["pid"])
        return total

    # -- one round ---------------------------------------------------------
    def round(self, sessions: Dict[str, Tuple[str, inputs.Session]],
              m: Measure) -> None:
        """Interleave every reader's frames, drain, then fix each port."""
        recorder = self.recorder
        root = recorder.open_root("burst") if recorder else None
        token = recorder.activate(root) if recorder else None
        start = clock()
        parsers = {d: StreamingLLRPParser() for d in sessions}
        longest = max(len(s.frames) for _r, s in sessions.values())
        for index in range(longest):
            for deployment, (reader, session) in sessions.items():
                if index >= len(session.frames):
                    continue
                for _mid, cols in parsers[deployment].feed_columnar(
                        session.frames[index]):
                    if len(cols):
                        self.fleet.offer_columnar(deployment, reader, cols)
        for parser in parsers.values():
            parser.close()
            self.parser_stats.append(parser.stats)
        drain_start = clock()
        self.fleet.drain()
        end = clock()
        m.drain_wait_s += end - drain_start
        if recorder:
            recorder.record("fleet.drain_wait", "fleet", drain_start, end,
                            root)
            recorder.deactivate(token)
            recorder.close_root(root)
        m.burst(start, end, sum(s.reports for _r, s in sessions.values()))
        # Port-major, shards alternating: consecutive requests go to
        # different workers, as a balancing front end would send them,
        # instead of queueing the callers behind one actor or process.
        ports = sorted({p for _r, s in sessions.values() for p in s.ports})
        by_shard: Dict[int, List[str]] = {}
        for deployment in sessions:
            by_shard.setdefault(self.fleet.shard_of(deployment),
                                []).append(deployment)
        order = [d for column in itertools.zip_longest(*by_shard.values())
                 for d in column if d is not None]
        self.fix_all([
            (deployment, sessions[deployment][0], antenna,
             sessions[deployment][1].truths[antenna])
            for antenna in ports
            for deployment in order
            if antenna in sessions[deployment][1].ports
        ], m)

    def fix_all(self, requests, m: Measure) -> None:
        """``nproc`` closed-loop callers share the round's fix requests."""
        pending = list(reversed(requests))
        lock = threading.Lock()
        recorder = self.recorder

        def caller() -> None:
            while True:
                with lock:
                    if not pending:
                        return
                    deployment, reader, antenna, truth = pending.pop()
                root = recorder.open_root("fix") if recorder else None
                token = recorder.activate(root) if recorder else None
                start = clock()
                try:
                    result = self.fleet.locate_2d_sync(
                        deployment, reader, antenna)
                except (TagspinError, TimeoutError) as exc:
                    result = exc
                latency = clock() - start
                if recorder:
                    recorder.deactivate(token)
                    recorder.close_root(root)
                m.fix(latency, result, truth,
                      f"{deployment}/{reader}:{antenna}")

        with ThreadPoolExecutor(self.workers,
                                thread_name_prefix="fix-caller") as pool:
            for future in [pool.submit(caller) for _ in range(self.workers)]:
                future.result()

    def timed(self, phase: Phase, m: Measure, first_round: int) -> int:
        """Rounds until the phase is over; returns the next round index.

        Each round's sessions are framed before its clock starts; only
        round time counts as phase time.
        """
        index = first_round
        count = len(WAREHOUSE_DEPLOYMENTS)
        while not phase.over(m):
            # Every round moves each deployment's reader to another pose.
            sessions = {
                deployment: (f"r{index:03d}-{d}", self.pool.session(
                    index * count + (d + index) % count))
                for d, deployment in enumerate(WAREHOUSE_DEPLOYMENTS)
            }
            start = clock()
            self.round(sessions, m)
            m.wall_s += clock() - start
            index += 1
            m.units += 1
            if m.units == self.memory_units:
                m.peak_rss_mb = self.peak_rss_mb()
        return index

    def checks(self) -> List[str]:
        problems = []
        for deployment in WAREHOUSE_DEPLOYMENTS:
            problems += stats.ledger_violations(
                deployment, self.fleet.accounting(deployment))
        return problems

    def ledger_totals(self) -> dict:
        totals: Dict[str, int] = {}
        for deployment in WAREHOUSE_DEPLOYMENTS:
            for key, value in self.fleet.accounting(deployment).items():
                totals[key] = totals.get(key, 0) + value
        return totals

    # -- run -----------------------------------------------------------------
    def run(self, seconds: float, trace: bool) -> Result:
        engine = serving_engine()
        setups, problems = [], []
        try:
            for _ in range(1 if trace else self.setup_repeats):
                self._stop_fleet()
                elapsed, warm = self._set_up(engine)
                setups.append(elapsed)
                problems += warm.problems
            if not trace:
                timed = Measure()
                self.timed(Phase(seconds, MIN_FIXES, self.memory_units),
                           timed, 0)
                result = Result(engine, setups, warm, timed, problems)
            else:
                result = self._traced(engine, seconds, setups, warm, problems)
            result.problems += result.timed.problems + self.checks()
            result.ledger = self.ledger_totals()
        finally:
            self.close()
        return result

    def _worker_view(self) -> dict:
        snapshot = self.fleet.metrics_snapshot()
        validated = sample_value(snapshot, "tagspin_validator_reports_total")
        accepted = sample_value(snapshot, "tagspin_validator_reports_total",
                                {"result": "accepted"})
        engines = self.fleet.engine_stats()
        return {
            "fix_seconds": histogram_totals(
                snapshot, "tagspin_fix_seconds")["sum"],
            "validated": validated,
            "quarantined": validated - accepted,
            "pi_slips": sample_value(
                snapshot, "tagspin_validator_repairs_total",
                {"kind": "pi_slip"}),
            "cache": _cache_counts(engines),
            "fallbacks": sum(info["ring_fallbacks"]
                             for info in self.fleet.worker_info()),
        }

    def _traced(self, engine, seconds, setups, warm, problems) -> Result:
        half = seconds / 2.0
        minimum = stats.min_samples_for(50)
        untraced = Measure()
        index = self.timed(Phase(half, minimum, 1), untraced, 0)
        recorder = spans.SpanRecorder()
        patches = spans.Patches()
        spans.wrap_layers(patches, recorder)
        self.recorder = recorder
        first_parser = len(self.parser_stats)
        before = self._worker_view()
        traced = Measure()
        try:
            self.timed(Phase(half, minimum, 1), traced, index)
        finally:
            patches.undo()
            self.recorder = None
        after = self._worker_view()
        fixes = max(1, traced.requested)
        layers = span_layers(recorder, traced)
        worker_fix_s = after["fix_seconds"] - before["fix_seconds"]
        offers = sum(1 for s in recorder.spans if s.name == "fleet.offer")
        hits = after["cache"][0] - before["cache"][0]
        lookups = after["cache"][1] - before["cache"][1]
        layers.update({
            "hardware.resyncs": sum(
                s.resyncs for s in self.parser_stats[first_parser:]),
            "robustness.quarantine_ratio": _ratio(
                after["quarantined"] - before["quarantined"],
                after["validated"] - before["validated"]),
            "robustness.pi_slips_repaired": (
                after["pi_slips"] - before["pi_slips"]),
            "server.fix_s": worker_fix_s / fixes,
            "server.live_streams": 0,
            "server.buffered_reports": 0,
            "perf.cache_hit_ratio": _ratio(hits, lookups),
            "fleet.drain_wait_s": traced.drain_wait_s / fixes,
            "fleet.locate_overhead_s": (
                sum(traced.latencies_s) - worker_fix_s) / fixes,
            "fleet.ring_fallback_ratio": _ratio(
                after["fallbacks"] - before["fallbacks"], offers),
            # Worker fix time is the registry's, not a parent span's.
            "unattributed_s": layers["unattributed_s"] - worker_fix_s / fixes,
        })
        result = Result(engine, setups, warm, untraced, problems,
                        traced=traced, recorder=recorder)
        result.layers = finish_layers(layers, traced, untraced, sharded=True)
        result.problems += traced.problems
        return result


#: Per-layer metrics the parent cannot see inside sharded workers.
WORKER_HIDDEN = {
    "robustness.validate_s", "server.ingest_self_s", "server.live_streams",
    "server.buffered_reports", "core.extract_series_s", "core.locate_self_s",
    "core.series_per_fix", "core.snapshots_per_fix", "perf.spectrum_s",
    "perf.spectrum_calls_per_fix", "fleet.mailbox_wait_s",
    "robustness.self_s", "server.self_s", "core.self_s", "perf.self_s",
}
#: Read from worker registry deltas (``metrics_snapshot``/``engine_stats``).
WORKER_REGISTRY = {
    "robustness.quarantine_ratio", "robustness.pi_slips_repaired",
    "server.fix_s", "perf.cache_hit_ratio", "fleet.locate_overhead_s",
}


def finish_layers(layers: dict, traced: Measure, untraced: Measure,
                  sharded: bool) -> Dict[str, Tuple[float, str]]:
    """Add fix outcomes and tracing overhead; label each value's source."""
    layers = dict(layers)
    layers["server.attempts_per_fix"] = _ratio(
        sum(traced.attempts), len(traced.attempts))
    layers["server.degraded_ratio"] = _ratio(
        traced.degraded, len(traced.attempts))
    layers["trace.overhead_s_per_fix"] = (
        _ratio(traced.wall_s, traced.requested)
        - _ratio(untraced.wall_s, untraced.requested)
    )
    labelled = {}
    for name, value in layers.items():
        source = "span"
        if sharded and name in WORKER_HIDDEN:
            source = "n/a: inside worker processes"
            value = 0.0
        elif sharded and name in WORKER_REGISTRY:
            source = "worker registry delta"
        elif name in ("hardware.resyncs", "server.live_streams",
                      "server.buffered_reports", "server.attempts_per_fix",
                      "server.degraded_ratio", "robustness.quarantine_ratio",
                      "robustness.pi_slips_repaired", "perf.cache_hit_ratio",
                      "fleet.ring_fallback_ratio"):
            source = "counter"
        elif name.startswith("trace."):
            source = "traced - untraced"
        labelled[name] = (float(value), source)
    return labelled


WORKLOADS = {
    "append-fix": AppendFix,
    "warehouse-fanout": WarehouseFanout,
    "faulty-wire": FaultyWire,
}
