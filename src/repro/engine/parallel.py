"""Multi-core fan-out of independent simulation programs.

The simulator's determinism contract — same seed, same bytes — extends
across processes as long as the processes share no simulated state.
:meth:`ParallelEngineGroup.run_programs` is the repo's one parallel
mechanism: N independent programs — separate engine universes, like the
Fig 10/11 scheduler legs, the Fig 12 cluster cells or the Fig 15
variants — are assigned round-robin to forked workers, each worker runs
its programs in index order on its own deterministic event heap, and
results come back indexed, so assembly order never depends on wall-clock
finish order.

Workers are forked over anonymous pipes *after* the program closures are
built: they inherit the parent's whole program state, and nothing needs
to be importable or picklable except the program index going out and the
program's return value coming back.
"""

from __future__ import annotations

import os
import pickle
import select
import struct
import traceback
from typing import Any, Callable, Dict, List, Optional, Sequence

__all__ = [
    "ParallelError",
    "WorkerProcess",
    "ParallelEngineGroup",
]

#: Wire framing for the pipe channels: payload length prefix.
_FRAME = struct.Struct("<I")


class ParallelError(RuntimeError):
    """A worker process failed; carries the remote traceback text."""


# ---------------------------------------------------------------------------
# Pipe plumbing


def _write_frame(fd: int, obj: Any) -> None:
    blob = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    data = _FRAME.pack(len(blob)) + blob
    view = memoryview(data)
    while view:
        written = os.write(fd, view)
        view = view[written:]


def _read_exact(fd: int, count: int) -> bytes:
    chunks = []
    while count:
        chunk = os.read(fd, count)
        if not chunk:
            raise EOFError("worker pipe closed")
        chunks.append(chunk)
        count -= len(chunk)
    return b"".join(chunks)


def _read_frame(fd: int) -> Any:
    (length,) = _FRAME.unpack(_read_exact(fd, _FRAME.size))
    return pickle.loads(_read_exact(fd, length))


class WorkerProcess:
    """One forked request server: FIFO requests in, FIFO replies out.

    The child is built *after* the fork by ``service_factory(worker_id)``
    — closures capture whatever parent state the worker needs without
    any pickling.  A request is one picklable value; the service returns
    a picklable value.  Replies preserve request order.
    """

    def __init__(self, worker_id: int,
                 service_factory: Callable[[int], Callable[[Any], Any]]):
        self.worker_id = worker_id
        req_r, req_w = os.pipe()
        rep_r, rep_w = os.pipe()
        pid = os.fork()
        if pid == 0:  # child
            status = 0
            try:
                os.close(req_w)
                os.close(rep_r)
                self._serve(req_r, rep_w, service_factory)
            except BaseException:  # noqa: BLE001 - child must never unwind
                traceback.print_exc()
                status = 1
            finally:
                # _exit: no atexit hooks, no inherited buffer double-flush.
                os._exit(status)
        os.close(req_r)
        os.close(rep_w)
        self.pid = pid
        self._req_fd = req_w
        self._rep_fd = rep_r
        self._alive = True
        #: Requests sent minus replies received (FIFO depth).
        self.inflight = 0

    def _serve(self, req_fd: int, rep_fd: int, factory) -> None:
        service = factory(self.worker_id)
        while True:
            try:
                request = _read_frame(req_fd)
            except EOFError:
                break
            if request is None:  # shutdown sentinel
                break
            try:
                _write_frame(rep_fd, (True, service(request)))
            except BaseException:  # noqa: BLE001 - shipped to the parent
                _write_frame(rep_fd, (False, traceback.format_exc()))

    # -- parent side -------------------------------------------------------

    def request(self, payload: Any) -> None:
        _write_frame(self._req_fd, payload)
        self.inflight += 1

    def next_reply(self) -> Any:
        """Block for the next reply; raises :class:`ParallelError` on a
        remote failure (with the worker's traceback inlined)."""
        ok, value = _read_frame(self._rep_fd)
        self.inflight -= 1
        if not ok:
            raise ParallelError(
                f"worker {self.worker_id} failed:\n{value}"
            )
        return value

    def fileno(self) -> int:
        return self._rep_fd

    def close(self) -> None:
        if not self._alive:
            return
        self._alive = False
        try:
            _write_frame(self._req_fd, None)
        except OSError:  # pragma: no cover - worker already gone
            pass
        os.close(self._req_fd)
        os.close(self._rep_fd)
        os.waitpid(self.pid, 0)


class ParallelEngineGroup:
    """A fixed fleet of :class:`WorkerProcess` request servers.

    Construction forks the workers; :meth:`close` (or the context
    manager) reaps them.  :meth:`run_programs` is the entry point.
    """

    def __init__(self, workers: int,
                 service_factory: Callable[[int], Callable[[Any], Any]]):
        if workers < 1:
            raise ValueError(f"workers must be >= 1: {workers}")
        self.workers: List[WorkerProcess] = [
            WorkerProcess(i, service_factory) for i in range(workers)
        ]

    def close(self) -> None:
        for worker in self.workers:
            worker.close()

    def __enter__(self) -> "ParallelEngineGroup":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @staticmethod
    def run_programs(
        programs: Sequence[Callable[[], Any]],
        workers: int,
        setup: Optional[Callable[[int], None]] = None,
    ) -> List[Any]:
        """Run independent simulation programs across worker processes.

        ``programs[i]`` runs on worker ``i % workers`` (deterministic
        assignment); each worker executes its programs in index order on
        its own event heap; results return indexed, so the output list is
        identical to ``[p() for p in programs]`` regardless of which
        worker finished first.  ``setup(worker_id)`` runs once per worker
        after the fork (seed per-worker globals there).  With one worker
        (or one program) everything runs inline — no forks, byte-for-byte
        the serial path.
        """
        programs = list(programs)
        workers = max(1, min(int(workers), len(programs)))
        if workers <= 1:
            if setup is not None:
                setup(0)
            return [program() for program in programs]

        def factory(worker_id: int):
            if setup is not None:
                setup(worker_id)
            return lambda index: programs[index]()

        results: List[Any] = [None] * len(programs)
        with ParallelEngineGroup(workers, factory) as group:
            queues: Dict[int, List[int]] = {
                w.worker_id: [] for w in group.workers
            }
            for index in range(len(programs)):
                worker = group.workers[index % workers]
                worker.request(index)
                queues[worker.worker_id].append(index)
            # Replies are FIFO per worker; read whichever pipe is ready so
            # a slow program on one worker never blocks collecting others.
            remaining = {w.fileno(): w for w in group.workers if w.inflight}
            while remaining:
                ready, _, _ = select.select(list(remaining), [], [])
                for fd in ready:
                    worker = remaining[fd]
                    index = queues[worker.worker_id].pop(0)
                    results[index] = worker.next_reply()
                    if not worker.inflight:
                        del remaining[fd]
        return results
