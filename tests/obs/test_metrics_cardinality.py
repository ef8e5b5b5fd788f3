"""The label-cardinality guard on :class:`MetricsRegistry`.

A workload that labels a metric with an unbounded key (page numbers,
request ids) must not grow the registry without limit: past
``MAX_LABEL_SETS`` distinct label-sets per metric name, further
variants collapse into one ``__other__`` bucket and the spill is
counted on ``obs.label_overflow{metric=...}``.
"""

from repro.obs.metrics import (
    MAX_LABEL_SETS,
    OVERFLOW_BUCKET,
    Counter,
    MetricsRegistry,
)


def test_default_cap_is_generous():
    assert MAX_LABEL_SETS >= 256


def test_overflow_routes_to_other_bucket():
    reg = MetricsRegistry()
    for i in range(MAX_LABEL_SETS + 7):
        reg.counter("io.ops", page=i).inc(1)
    variants = reg.find("io.ops")
    # The admitted label-sets + 1 shared overflow bucket.
    assert len(variants) == MAX_LABEL_SETS + 1
    overflow = reg.get("io.ops", overflow=OVERFLOW_BUCKET)
    assert overflow is not None
    assert overflow.value == 7.0  # the 7 pages past the cap landed here
    spill = reg.get("obs.label_overflow", metric="io.ops")
    assert spill.value == 7.0


def test_admitted_label_sets_are_unaffected():
    reg = MetricsRegistry()
    admitted = [reg.counter("io.ops", device=i) for i in range(MAX_LABEL_SETS)]
    reg.counter("io.ops", device="late").inc(5)
    a, b = admitted[:2]
    a.inc(1)
    b.inc(2)
    # Re-fetching an admitted variant returns the same instrument and
    # never counts against the cap again.
    assert reg.counter("io.ops", device=0) is a
    assert a.value == 1.0 and b.value == 2.0
    assert reg.get("io.ops", overflow=OVERFLOW_BUCKET).value == 5.0


def test_cap_is_per_metric_name():
    reg = MetricsRegistry()
    for i in range(MAX_LABEL_SETS + 2):
        reg.counter("one", k=i).inc(1)
        reg.counter("two", k=i).inc(1)
    assert reg.get("obs.label_overflow", metric="one").value == 2.0
    assert reg.get("obs.label_overflow", metric="two").value == 2.0


def test_overflow_counter_itself_cannot_recurse():
    reg = MetricsRegistry()
    # Overflow many distinct metric names: each spill creates its own
    # obs.label_overflow{metric=...} variant, which bypasses admission.
    for metric in ("m0", "m1", "m2", "m3"):
        for k in range(MAX_LABEL_SETS + 1):
            reg.counter(metric, k=k).inc(1)
    spills = reg.find("obs.label_overflow")
    assert len(spills) == 4
    assert all(isinstance(s, Counter) and s.value == 1.0 for s in spills)


def test_gauge_fn_overflow_routes_and_rebinds():
    reg = MetricsRegistry()
    for q in range(MAX_LABEL_SETS):
        reg.gauge_fn("depth", lambda: 1.0, q=q)
    reg.gauge_fn("depth", lambda: 2.0, q="b")
    overflow = reg.get("depth", overflow=OVERFLOW_BUCKET)
    assert overflow.value == 2.0
    # A later overflowed registration rebinds the shared bucket's fn.
    reg.gauge_fn("depth", lambda: 3.0, q="c")
    assert overflow.value == 3.0


def test_histograms_share_the_overflow_bucket():
    reg = MetricsRegistry()
    for node in range(MAX_LABEL_SETS):
        reg.histogram("lat", node=node).record(1.0)
    reg.histogram("lat", node="late1").record(10.0)
    reg.histogram("lat", node="late2").record(20.0)
    overflow = reg.get("lat", overflow=OVERFLOW_BUCKET)
    assert overflow.count == 2
