"""Self time from nested spans, spans on other threads, and wrappers."""

import asyncio
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor

import pytest

import spans


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _span(span_id, parent_id, start, end, layer="core"):
    return spans.Span(span_id, f"s{span_id}", layer, 1, parent_id, start, end)


def test_self_time_of_nested_spans():
    every = [
        _span(1, None, 0.0, 10.0, layer="root"),
        _span(2, 1, 1.0, 4.0),
        _span(3, 2, 2.0, 3.0, layer="perf"),
    ]
    children = spans.children_of(every)
    assert spans.self_time(every[0], children) == pytest.approx(7.0)
    assert spans.self_time(every[1], children) == pytest.approx(2.0)
    assert spans.self_time(every[2], children) == pytest.approx(1.0)
    assert spans.layer_self_times(every) == pytest.approx(
        {"core": 2.0, "perf": 1.0})


def test_overlapping_children_on_two_threads_count_once():
    every = [
        _span(1, None, 0.0, 10.0, layer="root"),
        _span(2, 1, 1.0, 5.0),
        _span(3, 1, 3.0, 8.0),
        _span(4, 1, 9.0, 12.0),  # outlives its parent: clipped
    ]
    children = spans.children_of(every)
    assert spans.self_time(every[0], children) == pytest.approx(2.0)


def test_unattributed_counts_only_time_no_descendant_covers():
    every = [
        _span(1, None, 0.0, 10.0, layer="root"),
        _span(2, 1, 1.0, 3.0),
        _span(3, 2, 2.0, 6.0),  # child extends past its parent
        _span(4, 1, 8.0, 9.0),
    ]
    children = spans.children_of(every)
    assert spans.unattributed(every[0], children) == pytest.approx(4.0)


def test_span_begun_on_an_executor_thread_attaches_to_the_bound_root():
    clock = FakeClock()
    recorder = spans.SpanRecorder(clock)
    root = recorder.open_root("fix", ("fix", "reader", 1))

    def solve():
        clock.now = 1.0
        span, token = recorder.begin("server.fix", "server",
                                     ("fix", "reader", 1))
        inner, inner_token = recorder.begin("core.locate", "core")
        clock.now = 3.0
        recorder.end(inner, inner_token)
        clock.now = 4.0
        recorder.end(span, token)
        return threading.get_ident()

    with ThreadPoolExecutor(1) as pool:
        worker = pool.submit(solve).result(timeout=10)
    clock.now = 5.0
    recorder.close_root(root, ("fix", "reader", 1))
    fix, locate = [s for s in recorder.spans if s.layer != "root"][::-1]
    assert worker != threading.get_ident()
    assert fix.parent_id == root.span_id and fix.trace_id == root.trace_id
    assert locate.parent_id == fix.span_id
    children = spans.children_of(recorder.spans)
    assert spans.self_time(root, children) == pytest.approx(2.0)
    assert spans.self_time(fix, children) == pytest.approx(1.0)
    assert recorder.resolve(("fix", "reader", 1)) is None


def test_asyncio_tasks_do_not_share_open_spans():
    recorder = spans.SpanRecorder()
    parents = {}

    async def task(name):
        root = recorder.open_root(name)
        token = recorder.activate(root)
        await asyncio.sleep(0)
        span, inner = recorder.begin("work", "core")
        await asyncio.sleep(0)
        recorder.end(span, inner)
        recorder.deactivate(token)
        recorder.close_root(root)
        parents[name] = (root.span_id, span.parent_id)

    async def both():
        await asyncio.gather(task("a"), task("b"))

    asyncio.run(both())
    for root_id, parent_id in parents.values():
        assert parent_id == root_id


def test_wrapped_methods_record_spans_and_unwrap():
    class Engine:
        def spectrum(self, x):
            return self.helper(x) + 1

        def helper(self, x):
            return x * 2

    recorder = spans.SpanRecorder()
    patches = spans.Patches()
    engine = Engine()
    patches.wrap(recorder, Engine, "helper", "perf.helper", "perf")
    patches.wrap(recorder, engine, "spectrum", "perf.spectrum", "perf")
    assert engine.spectrum(3) == 7
    helper, outer = recorder.spans
    assert helper.parent_id == outer.span_id
    patches.undo()
    assert "spectrum" not in vars(engine)
    assert Engine.helper.__name__ == "helper"
    assert not hasattr(Engine.helper, "__wrapped__")


class FakeMailbox:
    """The mailbox surface the wait wrapper pairs on."""

    def __init__(self):
        self._items = deque()
        self._event = asyncio.Event()

    def offer(self, reader_name, reports):
        self._items.append(("ingest", reader_name, list(reports)))
        self._event.set()
        return len(reports), 0

    def offer_columnar(self, reader_name, cols):
        return self.offer(reader_name, cols)

    def put_command(self, message):
        self._items.append(message)
        self._event.set()

    async def get(self):
        while not self._items:
            self._event.clear()
            await self._event.wait()
        return self._items.popleft()


def test_mailbox_wait_pairs_each_message_with_its_offer():
    clock = FakeClock()
    recorder = spans.SpanRecorder(clock)
    patches = spans.Patches()
    spans._wrap_mailbox(patches, recorder, FakeMailbox)
    try:
        async def scenario():
            box = FakeMailbox()
            burst = recorder.open_root("burst", ("reader", "r1"))
            clock.now = 1.0
            box.offer("r1", [1, 2])
            clock.now = 2.0
            box.offer("r2", [3])  # no bound root: not recorded
            clock.now = 4.0
            await box.get()
            await box.get()
            recorder.close_root(burst, ("reader", "r1"))
            return burst

        burst = asyncio.run(scenario())
    finally:
        patches.undo()
    waits = [s for s in recorder.spans if s.name == "fleet.mailbox_wait"]
    assert len(waits) == 1
    assert waits[0].parent_id == burst.span_id
    assert (waits[0].start, waits[0].end) == (1.0, 4.0)
