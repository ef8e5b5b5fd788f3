"""Figure 15: OLTP read-only performance on a lagging RO node, with and
without the per-page log optimization (Opt#3).

Paper setup: the RO node intentionally lags ~1 s in LSN, so storage cannot
recycle redo and the log cache overflows to storage.  Under 128 client
threads the per-page log cuts P95 latency by 28.9–39.5% (page generation
needs one read instead of several scattered ones); beyond 128 threads the
RO node becomes CPU-bound and the benefit fades.

The set-up and phase loop are ``repro.bench.figures.run_fig15`` (also
``python -m repro bench --fig 15``); this file owns the shape assertions.
"""

from repro.bench.figures import run_fig15


def test_fig15(run_once):
    result = run_once(run_fig15)
    reduction = {row[0]: row[3] for row in result.rows}
    low_gains = [reduction[t] for t in (16, 32, 64)]
    # The optimization helps clearly at low thread counts...
    assert sum(low_gains) / len(low_gains) > 0.10
    # ...and its advantage shrinks once the node saturates.
    assert reduction[256] < max(low_gains)
