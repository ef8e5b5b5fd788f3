"""Multi-core fan-out of independent simulation programs.

The simulator's determinism contract — same seed, same bytes — extends
across processes as long as the processes share no simulated state.
:func:`run_programs` is the repo's one parallel mechanism: N independent
programs — separate engine universes, like the Fig 10/11 scheduler legs,
the Fig 12 cluster cells or the Fig 15 variants — are dealt round-robin
to forked workers.  Worker ``w`` runs ``programs[w::workers]`` in order
on its own deterministic event heap and writes one pickled frame back;
the parent reassembles the results by index, so the output never
depends on which worker finished first.

Workers fork *after* the program closures are built: they inherit the
parent's whole program state, and only the return values need to
pickle.
"""

from __future__ import annotations

import os
import pickle
import traceback
from typing import Any, Callable, List, Sequence

__all__ = ["ParallelError", "run_programs"]


class ParallelError(RuntimeError):
    """A worker raised (the message carries its traceback) or exited
    without reporting."""


def _report(programs: Sequence[Callable[[], Any]], fd: int) -> None:
    """Child body: run ``programs``, write one frame to ``fd``, exit."""
    status = 0
    try:
        try:
            frame = pickle.dumps((True, [program() for program in programs]),
                                 protocol=pickle.HIGHEST_PROTOCOL)
        except BaseException:  # noqa: BLE001 - shipped to the parent
            frame = pickle.dumps((False, traceback.format_exc()))
        with os.fdopen(fd, "wb") as pipe:
            pipe.write(frame)
    except BaseException:  # noqa: BLE001 - the child must never unwind
        status = 1
    finally:
        # _exit: no atexit hooks, no inherited buffer double-flush.
        os._exit(status)


def run_programs(
    programs: Sequence[Callable[[], Any]], workers: int
) -> List[Any]:
    """``[p() for p in programs]``, computed by ``workers`` forked
    processes.  With one worker (or one program) everything runs inline
    — no forks, byte-for-byte the serial path.  Every child is reaped
    before a failure is raised as :class:`ParallelError`."""
    programs = list(programs)
    workers = max(1, min(int(workers), len(programs)))
    if workers == 1:
        return [program() for program in programs]
    children = []
    for worker in range(workers):
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(read_fd)
            _report(programs[worker::workers], write_fd)
        os.close(write_fd)
        children.append((worker, pid, read_fd))
    frames = []
    for worker, pid, read_fd in children:
        with os.fdopen(read_fd, "rb") as pipe:
            frame = pipe.read()
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        frames.append((worker, frame, status))
    results: List[Any] = [None] * len(programs)
    for worker, frame, status in frames:
        if status or not frame:
            raise ParallelError(
                f"worker {worker} exited with status {status} "
                "without reporting"
            )
        ok, value = pickle.loads(frame)
        if not ok:
            raise ParallelError(f"worker {worker} failed:\n{value}")
        results[worker::workers] = value
    return results
