"""Seeded workload inputs: wire recordings generated with ``repro.sim``.

Everything here runs before timing.  The serving tier later receives
only the frame bytes and the registry records; poses and antenna
positions stay with the benchmark for the accuracy check.

Simulating a reader is slow (a warehouse collection costs ~0.5 s of
Gen2 inventory simulation), so each run simulates a small pool of
collections at distinct seeded poses and serves many *sessions* from
it: session ``k`` replays a pool entry with its reader clock shifted by
a whole number of disk rotations (:func:`repro.sim.faults.skew_clock`).
A whole-rotation shift is phase-consistent, so the session's fix has the
same physics, but every timestamp differs, so no cache keyed on
snapshot times can serve one session from another's work.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.core.geometry import Point2, Point3
from repro.hardware.llrp import ReportBatch, ROSpec
from repro.hardware.llrp_wire import encode_ro_access_report
from repro.hardware.reader import ReaderConfig
from repro.sim import faults
from repro.sim.scenario import (
    ScenarioConfig,
    TagspinScenario,
    paper_default_scenario,
)
from repro.sim.scene import DeploymentSpec as SceneSpec
from repro.sim.scene import reference_grid, sample_reader_positions_2d
from repro.sim.wire_recording import DEFAULT_REPORTS_PER_FRAME

#: Seed of the held-out inputs served by every set-up's warm-up session.
#: It never changes with ``--seed``, so the warm-up fixes (and their
#: error, ``heldout_error_cm``) are the same in every run.
HELD_OUT_SEED = 7919

#: Warehouse layout: four disks 50 cm apart, two antenna ports 40 cm
#: apart, a grid of goods tags outside the registry, frequency hopping.
WAREHOUSE_DISKS = tuple(Point3(x, 0.0, 0.0) for x in (-0.75, -0.25, 0.25, 0.75))
WAREHOUSE_PORTS = (1, 2)
#: 8 goods tags make two thirds of all reads bystanders.  A 3 s hop
#: dwell leaves each visited channel ~20 reads of every disk, above the
#: pipeline's 12-snapshot minimum (with 32 tags and a 0.2 s dwell,
#: channels fall below it and fixes fail).
WAREHOUSE_GOODS = (2, 4)
WAREHOUSE_HOP_DWELL_S = 3.0


@dataclass
class Collection:
    """One simulated reader pose: reports plus per-port truth."""

    batch: ReportBatch
    truths: Dict[int, Point2]


@dataclass
class Session:
    """What one reader connection streams: frames and their truth."""

    frames: List[bytes]
    #: Reports carried by each frame (what delivery must account for).
    frame_reports: List[int]
    #: Reader-clock span covered once each frame has arrived [s].
    frame_span_s: List[float]
    truths: Dict[int, Point2]
    ports: tuple = (1,)

    @property
    def reports(self) -> int:
        return sum(self.frame_reports)


class Layout:
    """A deployment's installed infrastructure and how readers see it.

    The scene (disk placement, tags, orientation profiles) is built once
    from :data:`HELD_OUT_SEED`: it is the site, not the traffic.  Reader
    poses, inventory timing and channel noise come from the seed handed
    to :meth:`pool`.
    """

    def __init__(self, scenario: TagspinScenario, ports, goods=()):
        self.scenario = scenario
        self.ports = tuple(ports)
        self.units = list(scenario.scene.spinning_units) + list(goods)
        self.registry_records = list(scenario.scene.registry)
        speeds = {r.disk.angular_speed for r in self.registry_records}
        if len(speeds) != 1:
            raise ValueError("whole-rotation shifts need one disk speed")
        self.period_s = 2.0 * math.pi / abs(speeds.pop())

    def pool(self, seed: int, size: int) -> "Pool":
        """``size`` collections at poses drawn from ``seed``."""
        scenario = self.scenario
        scenario.rng = np.random.default_rng([seed, len(self.ports)])
        centers = [u.disk.center for u in scenario.scene.spinning_units]
        rospec = ROSpec(duration_s=scenario.config.collection_duration(),
                        antenna_ports=self.ports)
        collections = []
        for pose in sample_reader_positions_2d(size, scenario.rng,
                                               disk_centers=centers):
            reader = scenario.make_reader(Point3(pose.x, pose.y, 0.0),
                                          num_antennas=len(self.ports))
            collections.append(Collection(
                reader.run(self.units, rospec),
                {p: reader.antenna(p).position.horizontal()
                 for p in self.ports},
            ))
        return Pool(self, collections, seed)


class Pool:
    """Simulated collections that sessions are served from."""

    def __init__(self, layout: Layout, collections, seed: int):
        self.layout = layout
        self.collections: List[Collection] = collections
        self.seed = seed
        longest = max(
            (c.batch.reports[-1].reader_timestamp_us
             - c.batch.reports[0].reader_timestamp_us) / 1e6
            for c in collections
        )
        #: Rotations between session starts, so sessions never overlap.
        self.rotations_per_session = (
            math.ceil(longest / layout.period_s) + 1
        )

    def session(self, index: int, faulty: bool = False) -> Session:
        """Session ``index``: pool entry ``index % len`` shifted in time.

        ``faulty`` adds the wire faults of :mod:`repro.sim.faults`:
        duplicates, π slips, 12-bit phase-word corruption and reordering
        inside each frame, drawn from the pool seed and ``index``.
        """
        collection = self.collections[index % len(self.collections)]
        shift_us = round((index + 1) * self.rotations_per_session
                         * self.layout.period_s * 1e6)
        batch = faults.skew_clock(collection.batch, shift_us)
        rng = None
        if faulty:
            rng = np.random.default_rng([self.seed, index, 4])
            batch = faults.chain(
                batch,
                lambda b: faults.duplicate_reports(b, 0.05, rng),
                lambda b: faults.pi_slips(b, 0.03, rng),
                lambda b: faults.corrupt_quantization(b, 0.02, rng),
            )
        return frame_session(batch, collection.truths, self.layout.ports,
                             shuffle_rng=rng)


def frame_session(batch: ReportBatch, truths, ports,
                  shuffle_rng: np.random.Generator = None) -> Session:
    """Group reports into RO_ACCESS_REPORT frames in reader-time order.

    With ``shuffle_rng`` the reports inside each frame are permuted
    (:func:`repro.sim.faults.shuffle_reports`), the reordering a
    congested collector introduces and the validator must repair.
    """
    ordered = batch.sorted_by_reader_time().reports
    start_us = ordered[0].reader_timestamp_us
    frames, counts, spans = [], [], []
    for index in range(0, len(ordered), DEFAULT_REPORTS_PER_FRAME):
        chunk = ReportBatch(ordered[index:index + DEFAULT_REPORTS_PER_FRAME])
        spans.append((chunk.reports[-1].reader_timestamp_us - start_us) / 1e6)
        if shuffle_rng is not None:
            chunk = faults.shuffle_reports(chunk, shuffle_rng)
        frames.append(leak_phase_words(
            encode_ro_access_report(chunk, len(frames) + 1), chunk))
        counts.append(len(chunk))
    return Session(frames, counts, spans, dict(truths), tuple(ports))


#: Byte layout of the fixed 71-byte TagReportData record the encoder
#: emits for 96-bit EPCs: the 16-bit phase word sits 61 bytes in.
_HEADER_BYTES, _RECORD_BYTES, _PHASE_AT = 10, 71, 61
_PHASE_UNITS = 4096


def leak_phase_words(frame: bytes, chunk: ReportBatch) -> bytes:
    """Put corrupted 12-bit phase words on the wire as the reader sent them.

    :func:`repro.sim.faults.corrupt_quantization` models a framing error
    that leaks the upper bits of the 16-bit phase field (a code in
    [4096, 8192)).  The wire encoder reduces every phase modulo 4096, so
    the leaked code is written into the frame here instead.
    """
    leaks = [
        (row, round(report.phase_rad / (2.0 * math.pi) * _PHASE_UNITS))
        for row, report in enumerate(chunk.reports)
        if report.phase_rad >= 2.0 * math.pi
    ]
    if not leaks:
        return frame
    if len(frame) != _HEADER_BYTES + _RECORD_BYTES * len(chunk):
        raise ValueError("frame does not use the fixed record layout")
    patched = bytearray(frame)
    for row, code in leaks:
        at = _HEADER_BYTES + _RECORD_BYTES * row + _PHASE_AT
        patched[at:at + 2] = struct.pack(">H", code)
    return bytes(patched)


def paper_layout() -> Layout:
    """The paper-default 2-disk desk, seen by one antenna."""
    scenario = paper_default_scenario(seed=HELD_OUT_SEED)
    scenario.run_orientation_prelude()
    return Layout(scenario, (1,))


def warehouse_layout() -> Layout:
    """Four disks and goods tags, seen by a hopping two-port reader."""
    config = ScenarioConfig(
        deployment=SceneSpec(disk_centers=WAREHOUSE_DISKS),
        reader_config=ReaderConfig(
            frequency_hopping=True, hop_interval_s=WAREHOUSE_HOP_DWELL_S
        ),
        seed=HELD_OUT_SEED,
    )
    scenario = TagspinScenario(config)
    scenario.run_orientation_prelude()
    rows, columns = WAREHOUSE_GOODS
    goods = reference_grid(rows, columns, 0.3, origin=Point3(0.0, -1.2, 0.0),
                           rng=np.random.default_rng(HELD_OUT_SEED))
    return Layout(scenario, WAREHOUSE_PORTS, goods)
