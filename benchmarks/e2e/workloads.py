"""The four workloads: seeded op streams and the closed loops that drive
them through the program's public entry points.

Each op stream is a pure function of ``--seed`` (a generator of op
descriptors); the program only ever sees the generated inputs.  Every
workload is a closed loop — the next op is issued when the previous one
has completed — because PolarStore's callers (database compute nodes)
wait for each reply.

A workload runs in *batches* of a fixed op count.  The harness times
each batch, keeps going until ``--seconds`` of batch time has passed,
and takes the exact (simulated / counted) metrics after a fixed number
of batches, so those repeat bit-for-bit however fast the host is.
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import resource
import select
import signal
import subprocess
import sys
import time
import traceback
from collections import deque
from itertools import count, islice
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from repro.api import PolarStore
from repro.workloads.datagen import dataset_pages
from repro.workloads.sysbench import default_value

from layers import state_from_json
from spans import OTHER, SpanRecorder, traced_generator

HERE = Path(__file__).resolve().parent
PAGE_BYTES = 16 * 1024
DATASETS = ("finance", "fnb", "wiki", "air_transport")
#: Tracebacks printed per run before further failures are only counted.
MAX_TRACEBACKS = 5

_now = time.perf_counter_ns


# -- the table of oltp_rw and serve_loopback --------------------------------

TABLE = "sbtest"


def table_rows(rows: int) -> List[Tuple[int, bytes]]:
    """The bulk-loaded table.  The same for every seed, so that the exact
    metrics do not carry the compressibility of one seed's rows."""
    rng = random.Random("rows")
    return [(key, default_value(rng, key)) for key in range(rows)]


class Workload:
    """Base class: bookkeeping shared by the four workloads."""

    name = ""
    #: What one op is, for the report.
    op_unit = "ops"
    #: Batches in the exact prefix at scale 1.
    exact_batches = 1
    #: Untimed ops before the timed region, so that lazy set-up is paid
    #: there.  Each workload rounds the issue's 8 up to one whole block of
    #: its op stream: every later block then starts on a batch boundary
    #: and the exact prefix holds whole blocks only.
    warmup_ops = 0
    #: Clock for the traced run's spans (None: the wall clock).
    span_clock = None

    def __init__(self, seed: int, rec: Optional[SpanRecorder] = None) -> None:
        self.seed = seed
        self.rec = rec
        self.client = None
        #: Host latency samples (ns per op) over the whole timed region.
        self.wall_ns: List[float] = []
        #: Simulated latency per op (µs), in completion order.
        self.sim_us: List[float] = []
        self.attempted = 0
        self.failed = 0
        #: Bytes the caller handed to write ops over the volume's life.
        self.user_bytes = 0
        #: The run cannot continue (e.g. the server child died).
        self.broken = False
        self._traced_ops = 0
        self._sim_start_us = 0.0

    # -- lifecycle (overridden) --------------------------------------------

    def setup(self) -> None:
        raise NotImplementedError

    def _registry_state(self) -> List[dict]:
        return self.client.metrics.state()

    def warmup(self) -> None:
        for op in islice(self._ops, self.warmup_ops):
            self._execute(op)
        del self.wall_ns[:], self.sim_us[:]
        self.attempted = 0

    def start_timed(self) -> None:
        self._sim_start_us = self.client.now_us

    def next_batch(self) -> list:
        """Generate the next batch's inputs (untimed)."""
        return list(islice(self._ops, self.batch_ops))

    def run_batch(self, batch: list) -> int:
        done = 0
        for op in batch:
            if self.broken:
                break
            self._execute(op)
            done += 1
        return done

    def _peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def snapshot(self) -> Dict[str, object]:
        """Exact state after the ops run so far."""
        return {
            "peak_rss_kb": self._peak_rss_kb(),
            "ops": len(self.sim_us),
            "sim_us": list(self.sim_us),
            "sim_elapsed_us": self.client.now_us - self._sim_start_us,
            "logical_bytes": self.client.logical_bytes,
            "physical_bytes": self.client.physical_bytes,
            "user_bytes": self.user_bytes,
            "registry": self._registry_state(),
        }

    def finish(self) -> None:
        """Final verification after the timed region (untimed)."""

    def close(self) -> Dict[str, object]:
        """Release everything; returns what only exists after shutdown
        (the server child's dump)."""
        if self.client is not None:
            self.client.close()
            self.client = None
        return {}

    def set_tracing(self, on: bool) -> None:
        if self.rec is not None:
            self.rec.enabled = on

    # -- helpers -----------------------------------------------------------

    def _op_span(self):
        """Root span of one op; its self time is the benchmark's own
        generator/verification code plus anything left unwrapped."""
        rec = self.rec
        if rec is None or not rec.enabled:
            return contextlib.nullcontext()
        rec.op_id = self._traced_ops
        self._traced_ops += 1
        return rec.span(OTHER, "op")

    def _verify_rows(self, keys) -> None:
        """Select each key again and compare with the oracle."""
        for key in keys:
            self.attempted += 1
            try:
                got = self.client.select(TABLE, key).value
            except Exception as exc:  # noqa: BLE001 - counted and printed
                self._fail(f"read-back select({key})", exc)
                continue
            if got != self._oracle[key]:
                self._fail(f"read-back select({key}) != oracle")

    def _fail(self, what: str, exc: Optional[BaseException] = None) -> None:
        """Count one failed op and say why, loudly."""
        self.failed += 1
        if self.failed <= MAX_TRACEBACKS:
            print(f"[{self.name}] FAILED op: {what}", file=sys.stderr)
            if exc is not None:
                traceback.print_exception(exc, file=sys.stderr)
        elif self.failed == MAX_TRACEBACKS + 1:
            print(f"[{self.name}] further failures are only counted",
                  file=sys.stderr)


# ---------------------------------------------------------------------------
# page_write_cold
# ---------------------------------------------------------------------------

#: First writes cycle through the four datasets plus incompressible pages.
WRITE_SOURCES = DATASETS + ("random",)
#: Fresh page numbers wrap here (half of the default 256 MiB volume), far
#: beyond what any run reaches.
MAX_WRITE_PAGES = 8192


def _page(source: str, content_seed: int) -> bytes:
    if source == "random":
        return random.Random(content_seed).randbytes(PAGE_BYTES)
    return dataset_pages(source, 1, seed=content_seed)[0]


def page_write_ops(seed: int) -> Iterator[Tuple[int, bytes]]:
    """``(page_no, content)``: cycles of five first writes of distinct
    pages (one per source) and one overwrite of an existing page number
    with fresh content — the 640:128 mix of the issue, interleaved so any
    prefix has the same shape.  No two pages share content.

    *What* is written is the same for every seed: cycle ``c`` always
    brings the same six page images, and its overwrite always replaces
    the same earlier image.  The seed decides the order within a cycle,
    and with it which page number each image lands on.  So the bytes
    stored after ``n`` cycles — and every exact metric — are a property
    of the program, not of one seed's pages."""
    order = random.Random(f"page_write_cold:{seed}")
    victims = random.Random("page_write_cold")
    page_of: Dict[Tuple[int, int], int] = {}
    fresh = 0
    for cycle in count():
        slots = list(range(len(WRITE_SOURCES)))
        order.shuffle(slots)
        for slot in slots:
            page_no = page_of[cycle, slot] = fresh % MAX_WRITE_PAGES
            yield page_no, _page(WRITE_SOURCES[slot], cycle * 8 + slot)
            fresh += 1
        victim = victims.randrange(cycle + 1), victims.randrange(len(slots))
        yield (page_of[victim],
               _page(WRITE_SOURCES[cycle % len(slots)], cycle * 8 + 5))


class PageWriteCold(Workload):
    name = "page_write_cold"
    op_unit = "page writes"
    batch_ops = 6  # one cycle
    warmup_ops = 12
    exact_batches = 32
    #: Pages read back and compared after the timed region.
    VERIFY_PAGES = 128

    def setup(self) -> None:
        self.client = PolarStore.open()
        self._ops = page_write_ops(self.seed)
        self._latest: Dict[int, bytes] = {}

    def _execute(self, op) -> None:
        page_no, data = op
        client = self.client
        self.attempted += 1
        self.user_bytes += len(data)
        with self._op_span():
            before_us = client.now_us
            start = _now()
            try:
                result = client.write_page(page_no, data)
            except Exception as exc:  # noqa: BLE001 - counted and printed
                self._fail(f"write_page({page_no})", exc)
                return
            self.wall_ns.append(_now() - start)
            self.sim_us.append(result.commit_us - before_us)
            self._latest[page_no] = data

    def finish(self) -> None:
        # A write's result is a commit stamp; its bytes are checked by
        # reading pages back (most recent content per page number).
        rng = random.Random(f"verify:{self.seed}")
        page_nos = sorted(self._latest)
        for page_no in rng.sample(
            page_nos, min(self.VERIFY_PAGES, len(page_nos))
        ):
            self.attempted += 1
            try:
                data = self.client.read_page(page_no).data
            except Exception as exc:  # noqa: BLE001
                self._fail(f"read-back of page {page_no}", exc)
                continue
            if data != self._latest[page_no]:
                self._fail(f"read-back of page {page_no}: bytes differ")


# ---------------------------------------------------------------------------
# page_read_zipf
# ---------------------------------------------------------------------------


#: The read corpus does not vary with ``--seed``.  With 64 pages and
#: Zipf skew a handful of pages decide the run, and whether the program
#: stored them as lz4 (about 1.5 ms to read back) or zstd (about 3.5 ms)
#: differs per corpus: a per-seed corpus moved ``ops_per_s`` by 27% and
#: ``wall_p50_us`` by 59% between seeds with no change to the program.
CORPUS_SEED = 0
ZIPF_S = 0.99
#: Reads come in blocks of this many (three batches); see
#: ``page_read_ops``.
READ_BLOCK = 300


def read_corpus(pages_per_dataset: int) -> List[bytes]:
    """Popularity rank ``r`` is page number ``r``; ranks cycle through
    the datasets so the hot set spans all four."""
    per_dataset = [
        dataset_pages(name, pages_per_dataset, seed=CORPUS_SEED)
        for name in DATASETS
    ]
    return [
        per_dataset[rank % len(DATASETS)][rank // len(DATASETS)]
        for rank in range(pages_per_dataset * len(DATASETS))
    ]


def zipf_counts(n_pages: int, reads: int) -> List[int]:
    """How often each page is read in ``reads`` Zipf(0.99) reads, rounded
    to whole reads (the reads lost to rounding down go to the largest
    remainders)."""
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(n_pages)]
    total = sum(weights)
    ideal = [reads * weight / total for weight in weights]
    counts = [int(x) for x in ideal]
    by_remainder = sorted(range(n_pages), key=lambda r: counts[r] - ideal[r])
    for rank in by_remainder[:reads - sum(counts)]:
        counts[rank] += 1
    return counts


def page_read_ops(seed: int, n_pages: int) -> Iterator[int]:
    """Zipf(0.99)-distributed page numbers in ``[0, n_pages)``.  Every
    block of ``READ_BLOCK`` reads holds each page exactly its Zipf share
    of times; the seed shuffles the order.  Sampling each read instead
    moved the simulated mean by 0.2% between seeds, which is only how
    often the draw happened to hit a slow page."""
    rng = random.Random(f"page_read_zipf:{seed}")
    block = [
        page_no
        for page_no, n in enumerate(zipf_counts(n_pages, READ_BLOCK))
        for _ in range(n)
    ]
    while True:
        rng.shuffle(block)
        yield from block


class PageReadZipf(Workload):
    name = "page_read_zipf"
    op_unit = "page reads"
    batch_ops = 100
    warmup_ops = READ_BLOCK
    exact_batches = 12
    #: Compressible pages preloaded per dataset (the issue's 64, scaled
    #: by 1/4 so three set-ups fit a run).
    PAGES_PER_DATASET = 16

    def setup(self) -> None:
        self.client = PolarStore.open()
        self._corpus = read_corpus(self.PAGES_PER_DATASET)
        for page_no, data in enumerate(self._corpus):
            self.client.write_page(page_no, data)
            self.user_bytes += len(data)
        self._ops = page_read_ops(self.seed, len(self._corpus))

    def _execute(self, page_no: int) -> None:
        client = self.client
        self.attempted += 1
        with self._op_span():
            before_us = client.now_us
            start = _now()
            try:
                result = client.read_page(page_no)
            except Exception as exc:  # noqa: BLE001
                self._fail(f"read_page({page_no})", exc)
                return
            self.wall_ns.append(_now() - start)
            self.sim_us.append(result.done_us - before_us)
            if result.data != self._corpus[page_no]:
                self._fail(f"read_page({page_no}): bytes differ from corpus")


# ---------------------------------------------------------------------------
# oltp_rw
# ---------------------------------------------------------------------------

OLTP_CLIENTS = 8
SCAN_KEYS = 20
ROW_BYTES = len(default_value(random.Random(0), 0))
#: The issue's 4 000 rows, halved so three set-ups fit a run; the table
#: still fits the default 256-page buffer pool many times over.
OLTP_ROWS = 2000


def oltp_txns(seed: int, tid: int, rows: int = OLTP_ROWS):
    """One client's transactions: 10 point selects, 1 range scan of 20
    keys, 3 in-place updates.  A client selects and updates only keys
    ``= tid (mod 8)``, so its view of them is exact whatever the others
    do."""
    rng = random.Random(f"oltp_rw:{seed}:{tid}")
    own = rows // OLTP_CLIENTS

    def own_key() -> int:
        return rng.randrange(own) * OLTP_CLIENTS + tid

    while True:
        selects = tuple(own_key() for _ in range(10))
        low = rng.randrange(rows - SCAN_KEYS)
        updates = tuple(
            (key, default_value(rng, key))
            for key in (own_key(), own_key(), own_key())
        )
        yield selects, low, updates


class OltpRw(Workload):
    name = "oltp_rw"
    op_unit = "transactions"
    #: The host drives the 8 clients in slices of simulated time; one
    #: slice (~20 transactions) is one host-latency sample.
    SLICE_US = 1000.0
    SLICES_PER_BATCH = 16
    #: A checkpoint (untimed) every so many batches, about 2 600
    #: transactions: their redo fills 1.6 MiB of the storage nodes' 2 MiB
    #: redo cache.  Left to overflow, the cache evicts by consolidating
    #: pages — decompress, apply, run both codecs, on three replicas — and
    #: this workload would no longer be the one that bypasses the codec.
    #: The exact prefix ends at the first checkpoint.
    CHECKPOINT_EVERY = exact_batches = 8
    #: Transactions each client has queued at the start of a batch.  A
    #: batch is 16 ms of simulated time and a transaction takes 0.39 ms of
    #: it, so a client gets through 41; a queue that runs dry means the
    #: model changed, and the run fails loudly.
    QUEUE_DEPTH = 128

    def setup(self) -> None:
        self.client = PolarStore.open(engine={"enabled": True})
        rows = table_rows(OLTP_ROWS)
        self.client.create_table(TABLE)
        self.client.bulk_load(TABLE, rows)
        self.client.checkpoint()
        self.user_bytes = sum(len(value) for _, value in rows)
        self._oracle = dict(rows)
        self._txns = [oltp_txns(self.seed, tid) for tid in range(OLTP_CLIENTS)]
        self._queues = [deque() for _ in range(OLTP_CLIENTS)]
        self._stop = False
        self._procs: list = []
        self._limit_us = 0.0
        self._batches = 0

    def warmup(self) -> None:
        for key in range(8):
            self.client.select(TABLE, key)

    def start_timed(self) -> None:
        engine = self.client.engine
        self._sim_start_us = self._limit_us = engine.now_us
        for tid in range(OLTP_CLIENTS):
            proc = self._client_proc(tid)
            if self.rec is not None:
                # The benchmark's own code runs inside the engine here:
                # its time belongs to ``other``, not to the engine span
                # around it.
                proc = traced_generator(self.rec, proc, (OTHER, "client"))
            self._procs.append(engine.spawn(proc, name=f"bench-client-{tid}"))

    def _client_proc(self, tid: int):
        client, oracle, engine = self.client, self._oracle, self.client.engine
        queue = self._queues[tid]
        while not self._stop:
            selects, low, updates = queue.popleft()
            self.attempted += 1
            start_us = engine.now_us
            try:
                for key in selects:
                    result = yield from client.select_proc(TABLE, key)
                    if result.value != oracle[key]:
                        raise AssertionError(f"select({key}) != oracle")
                result = yield from client.range_select_proc(
                    TABLE, low, low + SCAN_KEYS - 1
                )
                self._check_scan(tid, low, result.value)
                for key, value in updates:
                    yield from client.update_proc(TABLE, key, value)
                    oracle[key] = value
                    self.user_bytes += len(value)
            except Exception as exc:  # noqa: BLE001
                self._fail(f"transaction of client {tid}", exc)
                continue
            self.sim_us.append(engine.now_us - start_us)

    def _check_scan(self, tid: int, low: int, value: bytes) -> None:
        if len(value) != SCAN_KEYS * ROW_BYTES:
            raise AssertionError(
                f"range scan at {low}: {len(value)} bytes, expected "
                f"{SCAN_KEYS * ROW_BYTES}"
            )
        # Rows other clients own may be mid-update; this client's are not.
        for i in range(SCAN_KEYS):
            key = low + i
            if key % OLTP_CLIENTS == tid:
                row = value[i * ROW_BYTES:(i + 1) * ROW_BYTES]
                if row != self._oracle[key]:
                    raise AssertionError(f"range scan row {key} != oracle")

    def next_batch(self) -> list:
        if self._batches and self._batches % self.CHECKPOINT_EVERY == 0:
            # The checkpoint keeps the devices busy for some simulated
            # milliseconds; the next slice starts when they are free.
            self._limit_us = max(self._limit_us, self.client.checkpoint())
        self._batches += 1
        for txns, queue in zip(self._txns, self._queues):
            queue.extend(islice(txns, self.QUEUE_DEPTH - len(queue)))
        return []

    def run_batch(self, _batch: list) -> int:
        engine = self.client.engine
        done = 0
        for _ in range(self.SLICES_PER_BATCH):
            self._limit_us += self.SLICE_US
            before = len(self.sim_us) + self.failed
            with self._op_span():
                start = _now()
                try:
                    engine.run_until_idle(limit_us=self._limit_us)
                except Exception as exc:  # noqa: BLE001
                    # An error outside a client's own try (a daemon
                    # process died): the engine state is unknown.
                    self._fail("engine.run_until_idle", exc)
                    self.broken = True
                    return done
                self.wall_ns.append(_now() - start)
            done += len(self.sim_us) + self.failed - before
        return done

    def finish(self) -> None:
        # Host latency per transaction: every slice covers the same
        # simulated time, so each holds the run's mean share of the
        # transactions.  (Dividing a slice by the completions that happen
        # to fall in it does not work: the 8 clients finish in waves of 8,
        # a slice catches 2 or 3 waves, and the samples split into two
        # humps with the median flipping between them.)
        slices_per_txn = len(self.wall_ns) / max(len(self.sim_us), 1)
        self.wall_ns[:] = [ns * slices_per_txn for ns in self.wall_ns]
        self._stop = True
        if not self.broken:
            self.client.engine.run_until_complete(self._procs)
        self._verify_rows(sorted(self._oracle))


# ---------------------------------------------------------------------------
# serve_loopback
# ---------------------------------------------------------------------------

SERVE_ROWS = 2000
#: Requests come in blocks of this many, each with exactly the mix.
SERVE_BLOCK = ("select",) * 70 + ("update",) * 20 + ("insert",) * 10


def serve_ops(seed: int, rows: int = SERVE_ROWS):
    """70% ``select`` / 20% ``update`` / 10% ``insert`` of fresh keys:
    exactly so in every 100 requests, in an order the seed shuffles (a
    mix drawn per request moved the simulated mean by 1.3% between seeds:
    the share of writes that the draw happened to give)."""
    rng = random.Random(f"serve_loopback:{seed}")
    next_key = rows
    kinds = list(SERVE_BLOCK)
    while True:
        rng.shuffle(kinds)
        for kind in kinds:
            if kind == "insert":
                yield kind, next_key, default_value(rng, next_key)
                next_key += 1
            else:
                key = rng.randrange(next_key)
                value = default_value(rng, key) if kind == "update" else None
                yield kind, key, value


def aging_updates(rows: int) -> Iterator[Tuple[int, bytes]]:
    """``(key, value)`` in-place updates that age a freshly loaded table
    (the same for every seed, like the table)."""
    rng = random.Random("age")
    while True:
        key = rng.randrange(rows)
        yield key, default_value(rng, key)


def consolidations(state) -> float:
    """Pages consolidated so far, from ``MetricsRegistry.state()``."""
    return sum(rec["value"] for rec in state
               if rec["name"] == "storage.consolidations")


class ServeChild:
    """``python -m repro serve --port 0`` as a child process, started
    through the benchmark's launcher (``serve_child.py``) so the parent
    can ask it for its metrics registry and, in a traced run, its spans."""

    def __init__(self, dump_path: Path, trace: bool) -> None:
        self.dump_path = dump_path
        command = [sys.executable, str(HERE / "serve_child.py"),
                   "--dump", str(dump_path)]
        if trace:
            command.append("--trace-cpu-time")
        # Inherits this process's environment, which run.py has already
        # scrubbed of REPRO_PERF / REPRO_WORKERS / REPRO_OBS.
        self.proc = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True,
        )
        try:
            banner = self._readline(timeout_s=60.0)
            # "serving PolarStore on 127.0.0.1:43713 (window 64, ..."
            host, _, port = banner.split(" on ", 1)[1].split(" ", 1)[0] \
                .rpartition(":")
            self.addr = (host, int(port))
        except Exception:
            self.stop()
            raise

    def _readline(self, timeout_s: float) -> str:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout_s)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            raise RuntimeError(
                f"server child gave no reply (exit code {self.proc.poll()})"
            )
        return line.rstrip("\n")

    def command(self, text: str, timeout_s: float = 30.0) -> str:
        """One control command, one reply line."""
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()
        return self._readline(timeout_s)

    def stop(self) -> Dict[str, object]:
        """Always ends the child (bounded waits) and returns its dump."""
        proc = self.proc
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)  # the launcher dumps on it
            try:
                proc.wait(timeout=20.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=10.0)
        for pipe in (proc.stdin, proc.stdout):
            if pipe is not None:
                pipe.close()
        try:
            dump = json.loads(self.dump_path.read_text())
            self.dump_path.unlink()
        except (OSError, ValueError):
            return {}
        state_from_json(dump.get("registry", []))
        return dump


class ServeLoopback(Workload):
    name = "serve_loopback"
    op_unit = "requests"
    #: About 0.6 s, long enough that every batch has its share of the
    #: periodic storage work in it (a consolidation on three replicas
    #: comes every 600 requests and costs as much as 250 of them).
    batch_ops = 1000
    warmup_ops = len(SERVE_BLOCK)
    exact_batches = 8
    PINGS = 1000
    # Client thread, pool thread and server take turns on one CPU; only
    # CPU time says which of them an interval belongs to.
    span_clock = time.thread_time_ns
    #: Keys selected again and compared after the timed region.
    VERIFY_KEYS = 500
    #: Aging stops once this many page consolidations (4 pages on each of
    #: 3 replicas) were forced by redo-cache overflow.
    AGE_CONSOLIDATIONS = 12
    AGE_CHECK_EVERY = 500
    AGE_MAX_UPDATES = 60_000

    def __init__(self, seed, rec=None):
        super().__init__(seed, rec)
        self._child: Optional[ServeChild] = None
        self.rtt_floor_us = 0.0

    def setup(self) -> None:
        # One request is outstanding at a time, so client and server never
        # run at once; on one CPU they lose nothing, and the run no longer
        # depends on where the scheduler happens to place them (in a 2-vCPU
        # VM a cross-CPU wake-up costs more than the request itself).
        if hasattr(os, "sched_setaffinity"):
            os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        results = HERE / "results"
        results.mkdir(exist_ok=True)
        dump = results / f".serve_child_{os.getpid()}.json"
        self._child = ServeChild(dump, trace=self.rec is not None)
        self.client = PolarStore.connect(self._child.addr, connections=1)
        rows = table_rows(SERVE_ROWS)
        self.client.create_table(TABLE)
        self.client.bulk_load(TABLE, rows)
        self.user_bytes = sum(len(value) for _, value in rows)
        self._oracle = dict(rows)
        # Transport with no engine work behind it: the floor under every
        # request's host latency.
        ping = self.client.transport.ping
        samples = []
        for _ in range(self.PINGS):
            start = _now()
            ping()
            samples.append(_now() - start)
        samples.sort()
        self.rtt_floor_us = samples[len(samples) // 2] / 1e3
        self._ops = serve_ops(self.seed)
        self._consecutive_failures = 0

    def _registry_state(self) -> List[dict]:
        reply = self._child.command("snap")
        return state_from_json(json.loads(reply.split(" ", 1)[1]))

    def _peak_rss_kb(self) -> int:
        child_kb = int(self._child.command("rss").split(" ", 1)[1])
        return super()._peak_rss_kb() + child_kb

    def warmup(self) -> None:
        """Age the volume into its steady state, then the warm-up ops.

        The table is loaded but not checkpointed (the issue's set-up), so
        its pages exist at storage only as redo.  A young volume serves
        2 400 req/s; once the 2 MiB redo cache is full, arriving redo
        evicts redo (spills, consolidations) and it serves 1 700.  A run
        of ``--seconds`` would cross from one to the other part-way, at a
        point that depends on the host's speed, so in-place updates run
        until redo-cache overflow has forced ``AGE_CONSOLIDATIONS`` page
        consolidations.  Once per run, not part of ``setup_s``."""
        target = (consolidations(self._registry_state())
                  + self.AGE_CONSOLIDATIONS)
        updates = aging_updates(SERVE_ROWS)
        for _ in range(self.AGE_MAX_UPDATES // self.AGE_CHECK_EVERY):
            for key, value in islice(updates, self.AGE_CHECK_EVERY):
                self.client.update(TABLE, key, value)
                self._oracle[key] = value
                self.user_bytes += len(value)
            if consolidations(self._registry_state()) >= target:
                break
        else:
            print(f"[{self.name}] WARNING: no redo-cache eviction after "
                  f"{self.AGE_MAX_UPDATES} aging updates; measuring a young "
                  "volume", file=sys.stderr)
        super().warmup()

    def _execute(self, op) -> None:
        kind, key, value = op
        client = self.client
        self.attempted += 1
        with self._op_span():
            before_us = client.now_us
            start = _now()
            try:
                if kind == "select":
                    result = client.select(TABLE, key)
                elif kind == "update":
                    result = client.update(TABLE, key, value)
                else:
                    result = client.insert(TABLE, key, value)
            except Exception as exc:  # noqa: BLE001
                self._fail(f"{kind}({key})", exc)
                self._consecutive_failures += 1
                if (self._consecutive_failures >= 5
                        or self._child.proc.poll() is not None):
                    print(f"[{self.name}] server child unusable "
                          f"(exit code {self._child.proc.poll()}); "
                          "stopping the run", file=sys.stderr)
                    self.broken = True
                return
            self.wall_ns.append(_now() - start)
            self._consecutive_failures = 0
            self.sim_us.append(result.done_us - before_us)
            if kind == "select":
                if result.value != self._oracle[key]:
                    self._fail(f"select({key}) != oracle")
            else:
                self._oracle[key] = value
                self.user_bytes += len(value)

    def set_tracing(self, on: bool) -> None:
        super().set_tracing(on)
        if self.rec is not None:
            self._child.command("trace on" if on else "trace off")

    def finish(self) -> None:
        if self.broken:
            return
        rng = random.Random(f"verify:{self.seed}")
        keys = sorted(self._oracle)
        self._verify_rows(rng.sample(keys, min(self.VERIFY_KEYS, len(keys))))

    def close(self) -> Dict[str, object]:
        try:
            if self.client is not None:
                try:
                    self.client.close()
                except Exception as exc:  # noqa: BLE001
                    print(f"[{self.name}] client close: {exc!r}",
                          file=sys.stderr)
                self.client = None
        finally:
            child, self._child = self._child, None
            dump = child.stop() if child is not None else {}
        return dump


WORKLOADS = {
    cls.name: cls
    for cls in (PageWriteCold, PageReadZipf, OltpRw, ServeLoopback)
}
