"""Algorithm 1 on two cores: a helper process runs both parses over the
first half of each evaluated page while the calling process runs them
over the second half.

Algorithm 1 (§3.3.2) evaluates a page only while the node's CPU is less
than 20 % busy, so the paper pays for the second codec with idle cores.
:func:`repro.compression.memo.plan_both` does the same where a
:class:`ZstdHelper` serves the process: it hands the page and a split
point ``s`` to one long-lived child process, which runs lz4's greedy
parse over ``[0, s)`` recording its chain walks and zstd's lazy parse
over ``[0, s)`` resuming them (:func:`repro.compression.lz77.parse_both`),
and sends back both token lists and the state each parse stopped in.
Meanwhile the caller runs the same two parses over ``[s, n)`` from a
speculative start, then continues each true parse from the helper's
stop state until it rejoins its speculative one
(:meth:`repro.compression.lz77.MatchFinder.rejoin`), and sizes and packs
both codecs itself.  The parse decides at each position from the
position alone, so the token streams, and with them every decision,
size and stored byte, are those of the parse in one process.  The
helper holds nothing between requests.

* **Used only where it can pay**: the process may run on at least two
  CPUs (``os.sched_getaffinity``) and is not a worker of
  :func:`repro.engine.parallel.run_programs`, whose siblings hold the
  cores.  Elsewhere the same evaluation runs inline over ``[0, n)``.
* **Started lazily**, at the first evaluated page, with ``python -c``
  so that it imports this package and never the parent's ``__main__``.
  Pages are evaluated inline until it reports ready.
* **One request in flight**: a lock serialises the pipe, and a thread
  that finds it held computes inline rather than wait.  The helper
  belongs to the pid that started it; a forked child never touches it.
* **Failure stays local**: a dead helper, EOF, a short reply, a reply
  that names another page, or a stop state past the page's end or a
  token list that does not end where it says costs that page an inline
  evaluation of its first half, and the process stops using the helper.
* **Lifetime**: the owner kills and reaps it at interpreter exit; if
  the owner is killed, the helper reads EOF on its stdin and exits.

Wire format: a request is :data:`REQUEST` (the page's content digest,
its length and the split point) followed by the page.  A reply is
:data:`REPLY`: the request's digest, then for lz4 and for zstd a token
count, the position the parse stopped at and where its open literal run
starts; then the lz4 tokens and the zstd tokens, each token
:data:`_TOKEN` (``lit_start, lit_len, match_len, distance``).
"""

from __future__ import annotations

import atexit
import os
import select
import struct
import sys
import threading
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Tuple

from repro.compression import lz77
from repro.compression.lz4 import LZ4Codec
from repro.compression.lz77 import Parse
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

REQUEST = struct.Struct("<16sII")
REPLY = struct.Struct("<16s6I")
#: One token on the wire.
_TOKEN = struct.Struct("<4I")
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
    the lock held until :meth:`finish` reads the two head parses back;
    the caller parses the tail in between.  Each returns what makes the
    caller compute inline (False or None) whenever the helper cannot
    serve.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._proc: Optional[subprocess.Popen] = None
        self._owner = 0
        self._ready = False
        self._retired = False

    def begin(self, digest: bytes, page: bytes, split: int) -> bool:
        """Send ``page`` (content digest ``digest``) to be parsed over
        ``[0, split)``; True if the helper took it, and then
        :meth:`finish` must follow."""
        if self._retired or not self._lock.acquire(blocking=False):
            return False
        try:
            if self._serves():
                _write_all(
                    self._proc.stdin.fileno(),
                    REQUEST.pack(digest, len(page), split) + page,
                )
                return True
        except OSError:
            self.close()
        self._lock.release()
        return False

    def finish(self, digest: bytes, n: int) -> Optional[Tuple[Parse, Parse]]:
        """The lz4 and zstd parses of the first part of the ``n``-byte
        page :meth:`begin` sent, or None."""
        try:
            got, *states = REPLY.unpack(self._receive(REPLY.size))
            lz4, zstd = states[:3], states[3:]
            # Each token covers a byte at least, and no parse stops past
            # the page's end or before its open literal run.
            if got == digest and all(
                count <= n and lit_start <= pos <= n
                for count, pos, lit_start in (lz4, zstd)
            ):
                tokens = list(_TOKEN.iter_unpack(
                    self._receive(_TOKEN.size * (lz4[0] + zstd[0]))
                ))
                heads = (
                    Parse(tokens[: lz4[0]], lz4[1], lz4[2], set()),
                    Parse(tokens[lz4[0] :], zstd[1], zstd[2], set()),
                )
                if all(_tiles(head) for head in heads):
                    return heads
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


def _tiles(head: Parse) -> bool:
    """Whether ``head``'s tokens end where its open literal run starts."""
    if not head.tokens:
        return head.lit_start == 0
    lit_start, lit_len, match_len, _ = head.tokens[-1]
    return lit_start + lit_len + match_len == head.lit_start


def _encode(digest: bytes, heads: Tuple[Parse, Parse]) -> bytes:
    """The reply carrying ``heads``."""
    states = []
    for head in heads:
        states += (len(head.tokens), head.pos, head.lit_start)
    tokens = heads[0].tokens + heads[1].tokens
    return REPLY.pack(digest, *states) + struct.pack(
        f"<{4 * len(tokens)}I", *chain.from_iterable(tokens)
    )


def main() -> None:
    """The helper process: parse the first part of each page under both
    codecs until stdin closes."""
    import signal

    # Ctrl-C is for the owner; the helper ends when its stdin does.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    lz4, zstd = LZ4Codec().finder, ZstdCodec().finder
    try:
        _write_all(1, _READY)
        while True:
            digest, length, split = REQUEST.unpack(_read_exact(0, REQUEST.size))
            page = _read_exact(0, length)
            heads = lz77.parse_both(lz4, zstd, page, 0, split)
            lz77.forget(page)
            _write_all(1, _encode(digest, heads))
    except (EOFError, OSError):
        pass  # the owner closed the pipe, or is gone
