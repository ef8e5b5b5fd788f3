"""Resource/Queue semantics: FIFO under contention, zero-service,
analytic equivalence (S3), and obs wiring (S2)."""

import pytest

from repro.engine import Engine, EngineError, Queue, Resource, ResourcePool
from tests.engine.legacy_resource import Resource as LegacyResource
from tests.engine.legacy_resource import ResourcePool as LegacyPool
from repro.obs.metrics import MetricsRegistry


def bound(resource, engine):
    resource.bind_engine(engine)
    return resource


def _process_requests(resource, arrivals):
    """Drive (arrive_us, service_us) pairs as concurrent engine
    processes; return [(tag, begin_wait_end)] in completion order."""
    eng = resource.engine
    done = []

    def client(tag, arrive, service):
        yield eng.sleep_until(arrive)
        end = yield from resource.process(service)
        done.append((tag, end))

    procs = [
        eng.spawn(client(i, arrive, service))
        for i, (arrive, service) in enumerate(arrivals)
    ]
    eng.run_until_complete(procs)
    return done


# -- FIFO ordering ---------------------------------------------------------

def test_fifo_order_under_simultaneous_arrivals():
    """Four clients arrive at the same instant; they are served in
    spawn order and each waits exactly behind its predecessors."""
    eng = Engine()
    res = bound(Resource("dev"), eng)
    done = _process_requests(
        res, [(0.0, 10.0), (0.0, 10.0), (0.0, 10.0), (0.0, 10.0)]
    )
    assert done == [(0, 10.0), (1, 20.0), (2, 30.0), (3, 40.0)]
    assert res.total_wait_us == 10.0 + 20.0 + 30.0
    assert res.waited == 3


def test_fifo_not_shortest_job_first():
    """A long request that arrived first is served first even when a
    short one is waiting — FIFO, not SJF."""
    eng = Engine()
    res = bound(Resource("dev"), eng)
    done = _process_requests(res, [(0.0, 100.0), (1.0, 1.0)])
    assert done == [(0, 100.0), (1, 101.0)]


def test_zero_service_requests():
    """Zero-service requests complete instantly when idle and still
    respect FIFO position when queued."""
    eng = Engine()
    res = bound(Resource("dev"), eng)
    done = _process_requests(res, [(0.0, 0.0), (0.0, 50.0), (0.0, 0.0)])
    assert done == [(0, 0.0), (1, 50.0), (2, 50.0)]
    assert res.completed == 3


def test_negative_service_rejected_in_both_styles():
    eng = Engine()
    res = bound(Resource("dev"), eng)
    with pytest.raises(ValueError):
        res.serve(0.0, -1.0)

    def bad():
        yield from res.process(-1.0)

    with pytest.raises(ValueError):
        eng.run(bad())


def test_process_requires_engine():
    res = Resource("unbound")

    def use():
        yield from res.process(1.0)

    with pytest.raises(EngineError):
        Engine().run(use())


def test_multi_server_parallelism():
    """Two servers run two requests concurrently; the third waits for
    the earliest to free."""
    eng = Engine()
    res = bound(Resource("pool", servers=2), eng)
    done = _process_requests(res, [(0.0, 30.0), (0.0, 10.0), (0.0, 10.0)])
    # Client 0 on server A (done 30), client 1 on server B (done 10),
    # client 2 waits for B (done 20).
    assert sorted(done) == [(0, 30.0), (1, 10.0), (2, 20.0)]


# -- analytic equivalence (S3) --------------------------------------------

def test_engine_single_client_matches_legacy_serve():
    """One client through the engine reproduces legacy Resource.serve
    completion times exactly — the adapter property the refactor
    relies on to keep existing tests meaningful."""
    requests = [(0.0, 11.0), (5.0, 3.0), (40.0, 7.0), (41.0, 0.0)]

    legacy = LegacyResource("dev")
    legacy_done = [legacy.serve(a, s) for a, s in requests]

    eng = Engine()
    res = bound(Resource("dev"), eng)

    def one_client():
        ends = []
        for arrive, service in requests:
            yield eng.sleep_until(arrive)
            end = yield from res.process(service)
            ends.append(end)
        return ends

    assert eng.run(one_client()) == legacy_done
    assert res.total_busy_us == legacy.total_busy_us
    assert res.completed == legacy.completed


def test_serve_adapter_matches_legacy_pool_exactly():
    """The sync serve() adapter on a multi-server Resource is
    drop-in equivalent to the legacy ResourcePool."""
    requests = [(0.0, 9.0), (1.0, 9.0), (2.0, 9.0), (3.0, 1.0), (20.0, 5.0)]
    legacy = LegacyPool("cpu", 2)
    ours = ResourcePool("cpu", 2)
    for arrive, service in requests:
        assert ours.serve(arrive, service) == legacy.serve(arrive, service)
    assert [s.busy_until_us for s in ours.servers] == [
        s.busy_until_us for s in legacy.servers
    ]


def test_mixed_sync_and_engine_share_state():
    """A sync serve() call books device time that a later engine
    process must queue behind, and vice versa."""
    eng = Engine()
    res = bound(Resource("dev"), eng)
    assert res.serve(0.0, 100.0) == 100.0

    def client():
        end = yield from res.process(10.0)
        return end

    assert eng.run(client()) == 110.0
    # And the engine-booked occupancy pushes a later sync call out.
    assert res.serve(105.0, 5.0) == 115.0


# -- observability (S2) ----------------------------------------------------

def test_queue_wait_histogram_exported():
    registry = MetricsRegistry()
    eng = Engine()
    res = bound(Resource("nand"), eng)
    res.bind_metrics(registry, device="dev0")
    _process_requests(res, [(0.0, 10.0), (0.0, 10.0)])

    hist = registry.get("engine.resource.queue_wait_us",
                        device="dev0", resource="nand")
    assert hist is not None
    assert hist.count == 2  # one zero-wait, one 10us wait
    assert hist.p50 >= 0.0
    assert [m.name for m in registry.instruments()] == [
        "engine.resource.queue_wait_us"
    ]
    assert res.total_busy_us == 20.0
    assert res.queue_depth == 0


def test_utilization_accounts_all_servers():
    res = Resource("pool", servers=2)
    res.serve(0.0, 10.0)
    res.serve(0.0, 10.0)
    assert res.utilization(10.0) == 1.0
    assert res.utilization(20.0) == 0.5


# -- Queue primitive -------------------------------------------------------

def test_queue_fifo_put_get():
    eng = Engine()
    q = Queue(eng, "jobs")
    got = []

    def consumer():
        while True:
            item = yield q.get()
            if item is None:
                break
            got.append((item, eng.now_us))

    def producer():
        for i in range(3):
            yield eng.timeout(5.0)
            q.put(i)
        q.put(None)

    c = eng.spawn(consumer())
    eng.spawn(producer())
    eng.run_until_complete([c])
    assert got == [(0, 5.0), (1, 10.0), (2, 15.0)]
    assert q.total_put == 4


def test_queue_buffers_while_consumer_busy():
    """Items arriving while the consumer is away accumulate and drain
    in order — the group-commit batching primitive."""
    eng = Engine()
    q = Queue(eng, "commits")
    batches = []

    def consumer():
        while len(batches) < 2:
            first = yield q.get()
            # Simulate a flush taking 30us; more items arrive meanwhile.
            yield eng.timeout(30.0)
            batch = [first] + q.drain()
            batches.append((batch, eng.now_us))

    def producer():
        for i in range(4):
            q.put(i)
            yield eng.timeout(10.0)

    c = eng.spawn(consumer())
    eng.spawn(producer())
    eng.run_until_complete([c])
    # First batch: item 0 alone started the flush; 1,2 arrived during it.
    assert batches[0] == ([0, 1, 2], 30.0)
    assert batches[1][0] == [3]
    assert q.max_depth == 2
