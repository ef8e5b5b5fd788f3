"""repro.perf — the wall-clock fast path.

Everything else in this reproduction spends its effort on *simulated*
fidelity: latencies come from calibrated cost models and a deterministic
event kernel.  This package is about the other axis the ROADMAP names —
running "as fast as the hardware allows" in *wall-clock* terms — without
perturbing a single simulated microsecond or output byte.

One mechanism, opt-in (see :class:`repro.api.config.PerfConfig`):

:mod:`repro.perf.memo`
    A content-addressed codec memo cache.  The codecs are pure functions,
    so identical inputs (replica-identical consolidation images, scrubber
    re-reads, migration copies, filler-tiled cluster pages) can skip the
    pure-Python compressor entirely and replay the recorded output.

:mod:`repro.perf.runtime` installs it behind ``configure()`` and owns the
memo-or-inline decision: hot paths call :func:`compress`,
:func:`decompress` and :func:`hw_compressed_len` here and never ask
whether a runtime is active.  :mod:`repro.perf.harness` measures the
result (``python -m repro perf``) and gates regressions in CI.
"""

from repro.perf.memo import CodecMemoCache
from repro.perf.runtime import (
    PerfRuntime,
    compress,
    configure,
    configure_from_env,
    deactivate,
    decompress,
    hw_compressed_len,
    perf_active,
)

__all__ = [
    "CodecMemoCache",
    "PerfRuntime",
    "compress",
    "configure",
    "configure_from_env",
    "deactivate",
    "decompress",
    "hw_compressed_len",
    "perf_active",
]
