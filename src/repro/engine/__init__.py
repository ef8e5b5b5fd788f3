"""Deterministic discrete-event concurrency engine.

``repro.engine`` is the kernel underneath the simulator's concurrent hot
path: an event heap keyed on ``(time_us, seq)``, generator-based
processes, and FIFO :class:`Resource`/:class:`Queue` primitives; a
resource's queue waits feed :mod:`repro.obs`.  Devices, the storage
write path (group commit + pipelined replica fan-out), DB nodes, and
the sysbench driver all run as processes on one shared engine, so
thread scaling and saturation crossovers (Figs 12/13/15) emerge from
real queueing rather than analytic arithmetic.

:mod:`repro.engine.bridge` adds the serving-layer seam: a
:class:`WallClockBridge` that maps wall-clock request arrival onto
simulated time with a bounded, deterministically-evaluated admission
window (the ``repro.net`` server runs on it).
"""
