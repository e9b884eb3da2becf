"""In-memory span recorder and the wrappers that feed it.

The traced run wraps public functions of the program's layers from
outside (no span code inside ``repro``).  Each span records its name,
layer, start, end, parent and trace id.  Nesting follows a
:class:`contextvars.ContextVar`, so asyncio tasks sharing the event-loop
thread do not see each other's open spans.  Work that crosses into
another task or thread without the context (an actor handling a queued
batch, a fix solved on the actor's executor thread) attaches to the root
span the workload *bound* under a key such as ``("reader", name)``.

Self time of a span is its duration minus the union of its children's
intervals clipped to it; children may run on other threads and overlap.
"""

from __future__ import annotations

import contextvars
import dataclasses
import functools
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Optional, Tuple

from stats import clip, union_length

_current: contextvars.ContextVar = contextvars.ContextVar(
    "tagbench_span", default=None
)


@dataclass
class Span:
    span_id: int
    name: str
    layer: str
    trace_id: int
    parent_id: Optional[int]
    start: float
    end: float = float("nan")
    thread: int = 0
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects spans in memory; nothing is written until the run ends."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._bound: Dict[Hashable, Span] = {}

    # -- roots and bindings --------------------------------------------
    def open_root(self, name: str, key: Hashable = None) -> Span:
        """Start a new trace; ``key`` lets other tasks/threads attach."""
        span_id = next(self._ids)
        span = Span(span_id, name, "root", span_id, None, self.clock(),
                    thread=threading.get_ident())
        if key is not None:
            with self._lock:
                self._bound[key] = span
        return span

    def close_root(self, span: Span, key: Hashable = None) -> None:
        span.end = self.clock()
        with self._lock:
            if key is not None and self._bound.get(key) is span:
                del self._bound[key]
            self.spans.append(span)

    def resolve(self, key: Hashable) -> Optional[Span]:
        if key is None:
            return None
        with self._lock:
            return self._bound.get(key)

    # -- nested spans ---------------------------------------------------
    def begin(self, name: str, layer: str, key: Hashable = None):
        parent = _current.get()
        if parent is None:
            parent = self.resolve(key)
        span_id = next(self._ids)
        span = Span(
            span_id, name, layer,
            parent.trace_id if parent is not None else span_id,
            parent.span_id if parent is not None else None,
            self.clock(), thread=threading.get_ident(),
        )
        return span, _current.set(span)

    def end(self, span: Span, token) -> None:
        span.end = self.clock()
        _current.reset(token)
        with self._lock:
            self.spans.append(span)

    def record(self, name: str, layer: str, start: float, end: float,
               parent: Optional[Span]) -> Span:
        """Add an already-measured interval (e.g. a mailbox wait)."""
        span_id = next(self._ids)
        span = Span(
            span_id, name, layer,
            parent.trace_id if parent is not None else span_id,
            parent.span_id if parent is not None else None,
            start, end, thread=threading.get_ident(),
        )
        with self._lock:
            self.spans.append(span)
        return span

    @staticmethod
    def current() -> Optional[Span]:
        return _current.get()

    @staticmethod
    def activate(span: Span):
        """Make ``span`` the parent of spans begun in this context."""
        return _current.set(span)

    @staticmethod
    def deactivate(token) -> None:
        _current.reset(token)

    def write(self, path) -> None:
        """Write every span as one JSON line (done once, after the run)."""
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(dataclasses.asdict(span)) + "\n")


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
def children_of(spans: List[Span]) -> Dict[int, List[Span]]:
    children: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        if span.parent_id is not None:
            children[span.parent_id].append(span)
    return children


def self_time(span: Span, children: Dict[int, List[Span]]) -> float:
    """Duration minus the part of it that child spans cover."""
    intervals = [(c.start, c.end) for c in children.get(span.span_id, ())]
    return span.duration - union_length(clip(intervals, span.start, span.end))


def descendants(span: Span, children: Dict[int, List[Span]]) -> List[Span]:
    found, todo = [], list(children.get(span.span_id, ()))
    while todo:
        child = todo.pop()
        found.append(child)
        todo.extend(children.get(child.span_id, ()))
    return found


def unattributed(span: Span, children: Dict[int, List[Span]]) -> float:
    """Time of a root that no span below it (at any depth) covers."""
    intervals = [(d.start, d.end) for d in descendants(span, children)]
    return span.duration - union_length(clip(intervals, span.start, span.end))


def layer_self_times(spans: List[Span]) -> Dict[str, float]:
    children = children_of(spans)
    totals: Dict[str, float] = defaultdict(float)
    for span in spans:
        if span.layer != "root":
            totals[span.layer] += self_time(span, children)
    return dict(totals)


# ----------------------------------------------------------------------
# Wrapping
# ----------------------------------------------------------------------
KeyFn = Optional[Callable[..., Hashable]]


def _wrap(recorder: SpanRecorder, fn, name: str, layer: str, key: KeyFn,
          on_result=None):
    if inspect.iscoroutinefunction(fn):
        raise TypeError(f"cannot wrap coroutine function {name}")

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span, token = recorder.begin(
            name, layer, key(*args, **kwargs) if key is not None else None
        )
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.end(span, token)
        if on_result is not None:
            on_result(span, result)
        return result

    return wrapper


class Patches:
    """Attribute patches that are undone in reverse order."""

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object, bool]] = []

    def set(self, owner, attr: str, value) -> None:
        had_own = attr in vars(owner)
        self._undo.append((owner, attr, getattr(owner, attr), had_own))
        setattr(owner, attr, value)

    def wrap(self, recorder: SpanRecorder, owner, attr: str, name: str,
             layer: str, key: KeyFn = None, on_result=None) -> None:
        self.set(owner, attr, _wrap(
            recorder, getattr(owner, attr), name, layer, key, on_result
        ))

    def undo(self) -> None:
        while self._undo:
            owner, attr, original, had_own = self._undo.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


#: Public spectrum methods of an engine instance (``perf`` layer).
ENGINE_METHODS = (
    "azimuth_spectrum",
    "azimuth_spectra",
    "fused_azimuth_spectrum",
    "fused_azimuth_spectra",
    "joint_spectrum",
    "fused_joint_spectrum",
)


def wrap_engine(patches: Patches, recorder: SpanRecorder, engine) -> None:
    """Wrap one engine instance's spectrum methods (not its class)."""
    for method in ENGINE_METHODS:
        if hasattr(engine, method):
            patches.wrap(recorder, engine, method, "perf.spectrum", "perf")


def wrap_layers(patches: Patches, recorder: SpanRecorder,
                reader_of_parser: Callable = lambda parser: None) -> None:
    """Wrap the in-process public functions of every layer.

    Key functions name the root a call attaches to when it starts with
    no open span in its own context: ingest attaches to the burst of its
    reader, a supervised fix to the fix request of its stream, and a
    decode to the burst of the reader ``reader_of_parser`` names.
    """
    from repro.core.pipeline import TagspinSystem
    from repro.fleet.backpressure import BoundedMailbox
    from repro.fleet.sharding import ShardedFleet
    from repro.fleet.supervisor import FleetSupervisor
    from repro.hardware.llrp_stream import StreamingLLRPParser
    from repro.robustness.validation import ReportValidator
    from repro.server.resilience import ResilientLocalizationServer

    def by_parser(parser, *_a, **_k):
        return ("reader", reader_of_parser(parser))

    def by_reader(_self, reader_name, *_a, **_k):
        return ("reader", reader_name)

    def by_offer_reader(_self, _deployment_id, reader_name, *_a, **_k):
        return ("reader", reader_name)

    def by_stream(_self, reader_name, antenna_port=1):
        return ("fix", reader_name, antenna_port)

    def count_series(span, series):
        span.info["series"] = len(series)
        span.info["snapshots"] = sum(len(s.times) for s in series)

    patches.wrap(recorder, StreamingLLRPParser, "feed_columnar",
                 "hardware.decode", "hardware", by_parser)
    patches.wrap(recorder, ReportValidator, "process",
                 "robustness.validate", "robustness")
    patches.wrap(recorder, ReportValidator, "process_columnar",
                 "robustness.validate", "robustness")
    patches.wrap(recorder, ResilientLocalizationServer, "ingest",
                 "server.ingest", "server", by_reader)
    patches.wrap(recorder, ResilientLocalizationServer, "ingest_columnar",
                 "server.ingest", "server", by_reader)
    patches.wrap(recorder, ResilientLocalizationServer,
                 "locate_antenna_2d_diagnosed", "server.fix", "server",
                 by_stream)
    patches.wrap(recorder, TagspinSystem, "extract_series",
                 "core.extract_series", "core", on_result=count_series)
    patches.wrap(recorder, TagspinSystem, "locate_2d_diagnosed",
                 "core.locate", "core")
    patches.wrap(recorder, FleetSupervisor, "offer", "fleet.offer", "fleet",
                 by_offer_reader)
    patches.wrap(recorder, FleetSupervisor, "offer_columnar", "fleet.offer",
                 "fleet", by_offer_reader)
    patches.wrap(recorder, ShardedFleet, "offer_columnar", "fleet.offer",
                 "fleet", by_offer_reader)
    _wrap_mailbox(patches, recorder, BoundedMailbox)


def _wrap_mailbox(patches: Patches, recorder: SpanRecorder, cls) -> None:
    """Mailbox wait: each message's offer-to-get interval, as a span.

    The offer side runs in the producer's context and the get side in
    the actor task, so the pairing is by message identity.
    """
    queued: Dict[int, Tuple[float, Optional[Span]]] = {}
    offer, offer_columnar = cls.offer, cls.offer_columnar
    put_command, get = cls.put_command, cls.get

    def parent_for(key):
        return recorder.current() or recorder.resolve(key)

    def wrapped_offer(self, reader_name, reports):
        start = recorder.clock()
        result = offer(self, reader_name, reports)
        queued[id(self._items[-1])] = (start,
                                       parent_for(("reader", reader_name)))
        return result

    def wrapped_offer_columnar(self, reader_name, cols):
        start = recorder.clock()
        result = offer_columnar(self, reader_name, cols)
        queued[id(self._items[-1])] = (start,
                                       parent_for(("reader", reader_name)))
        return result

    def wrapped_put_command(self, message):
        key = None
        if message.kind == "locate":
            key = ("fix",) + tuple(message.payload)
        queued[id(message)] = (recorder.clock(), parent_for(key))
        put_command(self, message)

    async def wrapped_get(self):
        message = await get(self)
        entry = queued.pop(id(message), None)
        if entry is not None and entry[1] is not None:
            recorder.record("fleet.mailbox_wait", "fleet", entry[0],
                            recorder.clock(), entry[1])
        return message

    patches.set(cls, "offer", wrapped_offer)
    patches.set(cls, "offer_columnar", wrapped_offer_columnar)
    patches.set(cls, "put_command", wrapped_put_command)
    patches.set(cls, "get", wrapped_get)
