"""Algorithm 1 on two cores: a helper process sizes each evaluated page
under zstd while the calling process sizes it under lz4.

Algorithm 1 (§3.3.2) evaluates a page only while the node's CPU is less
than 20 % busy, so the paper pays for the second codec with idle cores.
:func:`repro.compression.memo.plan_both` does the same where a
:class:`ZstdHelper` serves the process: it hands the page to one
long-lived child process, runs lz4's plan itself meanwhile, then reads
zstd's planned size back.  The child keeps its plan and packs the
payload only if the caller stores zstd's output (``Plan``'s size-now,
pack-later contract, across the pipe).  Both codecs are pure functions
of the page, so no decision, size or stored byte depends on which
process ran which codec.

* **Used only where it can pay**: the process may run on at least two
  CPUs (``os.sched_getaffinity``) and is not a worker of
  :func:`repro.engine.parallel.run_programs`, whose siblings hold the
  cores.  Elsewhere the evaluation runs inline, as it always did.
* **Started lazily**, at the first evaluated page, with ``python -c``
  so that it imports this package and never the parent's ``__main__``.
  Pages are sized inline until it reports ready.
* **One request in flight**: a lock serialises the pipe, and a thread
  that finds it held computes inline rather than wait.  The helper
  belongs to the pid that started it; a forked child never touches it.
* **Failure stays local**: a dead helper, EOF, a short reply or a reply
  that names another page costs that page an inline computation, and
  the process stops using the helper.
* **Lifetime**: the owner kills and reaps it at interpreter exit; if
  the owner is killed, the helper reads EOF on its stdin and exits.

Wire format: a request is :data:`REQUEST` (op, the page's content
digest, the page's length) followed by the page; a reply is
:data:`REPLY` (the request's digest, then a size or a payload length)
followed, for a pack, by the payload.  A payload length of 0 means the
helper no longer holds that page's plan.
"""

from __future__ import annotations

import atexit
import os
import select
import struct
import sys
import threading
from pathlib import Path
from typing import TYPE_CHECKING, Optional

from repro.compression import lz77
from repro.compression.zstd import ZstdCodec

if TYPE_CHECKING:
    import subprocess

#: In the helper's command line: how to find it among processes.
MARKER = "repro-zstd-helper"
#: The helper's body; ``sys.argv[2]`` is the directory holding ``repro``.
_LAUNCH = (
    "import sys; sys.path.insert(0, sys.argv[2]); "
    "from repro.compression.helper import main; main()"
)
_SOURCE_ROOT = str(Path(__file__).resolve().parents[2])

REQUEST = struct.Struct("<c16sI")
REPLY = struct.Struct("<16sI")
#: Request ops: size a page (the page follows), pack the held plan.
_SIZE = b"S"
_PACK = b"P"
#: Written once the helper has imported its codec.
_READY = b"R"


def _read_exact(fd: int, n: int) -> bytes:
    chunks = []
    while n:
        chunk = os.read(fd, n)
        if not chunk:
            raise EOFError("helper pipe closed")
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _may_use() -> bool:
    """At least two CPUs to run on, and not a ``run_programs`` worker."""
    if not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2:
        return False
    # Imported only here: a process pinned to one CPU (a server) never
    # loads the fan-out module and its pickle (~0.1 MB RSS).
    from repro.engine.parallel import in_worker

    return not in_worker()


class ZstdHelper:
    """The owning process's end of the helper.

    :meth:`begin` hands a page over and, if the helper took it, leaves
    the lock held until :meth:`finish` reads the size back; the caller
    runs lz4's plan in between.  :meth:`pack` fetches the payload of the
    plan the helper holds.  Each returns what makes the caller compute
    inline (False or None) whenever the helper cannot serve.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._proc: Optional[subprocess.Popen] = None
        self._owner = 0
        self._ready = False
        self._retired = False

    def begin(self, digest: bytes, page: bytes) -> bool:
        """Send ``page`` (content digest ``digest``) to be sized; True if
        the helper took it, and then :meth:`finish` must follow."""
        if self._retired or not self._lock.acquire(blocking=False):
            return False
        try:
            if self._serves():
                _write_all(
                    self._proc.stdin.fileno(),
                    REQUEST.pack(_SIZE, digest, len(page)) + page,
                )
                return True
        except OSError:
            self.close()
        self._lock.release()
        return False

    def replied(self) -> bool:
        """Whether the reply to the page :meth:`begin` sent is there to
        read without waiting."""
        return bool(select.select([self._proc.stdout.fileno()], [], [], 0)[0])

    def finish(self, digest: bytes) -> Optional[int]:
        """zstd's planned size of the page :meth:`begin` sent, or None."""
        try:
            got, size = REPLY.unpack(self._receive(REPLY.size))
            if got == digest:
                return size
            self.close()
        except (OSError, EOFError):
            self.close()
        finally:
            self._lock.release()
        return None

    def pack(self, digest: bytes, size: int) -> Optional[bytes]:
        """The ``size``-byte payload of the plan the helper holds for
        ``digest``, or None (busy, gone, or a later page replaced it)."""
        if (
            self._retired
            or self._owner != os.getpid()
            or not self._lock.acquire(blocking=False)
        ):
            return None
        try:
            _write_all(self._proc.stdin.fileno(), REQUEST.pack(_PACK, digest, 0))
            got, length = REPLY.unpack(self._receive(REPLY.size))
            if got == digest and length == size:
                return self._receive(length)
            if got != digest or length:
                self.close()
        except (OSError, EOFError):
            self.close()
        finally:
            self._lock.release()
        return None

    def close(self) -> None:
        """Stop using the helper; kill and reap it if this process
        started it."""
        self._retired = True
        proc = self._proc
        if proc is None or self._owner != os.getpid():
            return
        self._proc = None
        proc.stdin.close()
        proc.stdout.close()
        proc.kill()
        proc.wait()

    def _serves(self) -> bool:
        """Whether the helper takes this page; starts it the first time
        (that page, and every page until it is ready, runs inline)."""
        if not _may_use():
            return False
        if self._proc is None:
            self._start()
            return False
        if self._owner != os.getpid():
            return False
        if not self._ready:
            out = self._proc.stdout.fileno()
            if not select.select([out], [], [], 0)[0]:
                return False
            if os.read(out, 1) != _READY:
                self.close()
                return False
            self._ready = True
        return True

    def _start(self) -> None:
        # Imported here: a process that never starts a helper (a server
        # pinned to one CPU) does not carry the module (~0.3 MB RSS).
        import subprocess

        try:
            self._proc = subprocess.Popen(
                [sys.executable, "-c", _LAUNCH, MARKER, _SOURCE_ROOT],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, bufsize=0,
            )
        except OSError:
            self.close()
            return
        self._owner = os.getpid()
        atexit.register(self.close)

    def _receive(self, n: int) -> bytes:
        return _read_exact(self._proc.stdout.fileno(), n)


def main() -> None:
    """The helper process: size pages under zstd until stdin closes."""
    import signal

    # Ctrl-C is for the owner; the helper ends when its stdin does.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    codec = ZstdCodec()
    held_digest, held = b"", None
    try:
        _write_all(1, _READY)
        while True:
            op, digest, length = REQUEST.unpack(_read_exact(0, REQUEST.size))
            if op == _SIZE:
                page = _read_exact(0, length)
                held_digest, held = digest, codec.plan(page)
                lz77.forget(page)
                _write_all(1, REPLY.pack(digest, held.size))
            else:
                payload = b""
                if held is not None and digest == held_digest:
                    payload = held.pack()
                held = None
                _write_all(1, REPLY.pack(digest, len(payload)) + payload)
    except (EOFError, OSError):
        pass  # the owner closed the pipe, or is gone
