"""Workload generators are a pure function of ``--seed``."""

from itertools import islice

import pytest

import workloads


def _take(stream, n=150):
    return list(islice(stream, n))


STREAMS = {
    "page_write_cold": lambda seed: workloads.page_write_ops(seed),
    "page_read_zipf": lambda seed: workloads.page_read_ops(seed, 64),
    "oltp_rw": lambda seed: workloads.oltp_txns(seed, tid=3),
    "serve_loopback": lambda seed: workloads.serve_ops(seed),
}


@pytest.mark.parametrize("name", sorted(STREAMS))
def test_same_seed_same_ops_other_seed_other_ops(name):
    make = STREAMS[name]
    assert _take(make(7)) == _take(make(7))
    assert _take(make(7)) != _take(make(8))


def test_streams_cover_the_workloads():
    assert set(STREAMS) == set(workloads.WORKLOADS)


def test_page_write_mix_and_distinct_content():
    ops = _take(workloads.page_write_ops(1), 120)
    contents = [data for _, data in ops]
    assert len(set(contents)) == len(contents)  # no memo can help
    assert all(len(data) == workloads.PAGE_BYTES for data in contents)
    seen, overwrites = set(), 0
    for page_no, _ in ops:
        overwrites += page_no in seen
        seen.add(page_no)
    assert overwrites == 20  # one in six ops, the issue's 640:128


def _stored(ops):
    latest = {}
    for page_no, data in ops:
        latest[page_no] = data
    return sorted(latest.values())


def test_page_write_seeds_store_the_same_pages_in_another_order():
    """What the exact metrics measure does not depend on the seed: after
    any whole number of cycles every seed has stored the same images."""
    a = _take(workloads.page_write_ops(1), 20 * 6)
    b = _take(workloads.page_write_ops(2), 20 * 6)
    assert [data for _, data in a] != [data for _, data in b]
    assert _stored(a) == _stored(b)


def test_page_read_blocks_hold_the_zipf_shares():
    counts = workloads.zipf_counts(64, workloads.READ_BLOCK)
    assert sum(counts) == workloads.READ_BLOCK
    assert counts == sorted(counts, reverse=True) and counts[-1] >= 1
    assert counts[0] / counts[1] == pytest.approx(2 ** workloads.ZIPF_S,
                                                  rel=0.05)
    reads = _take(workloads.page_read_ops(5, 64), 2 * workloads.READ_BLOCK)
    for block in (reads[:workloads.READ_BLOCK], reads[workloads.READ_BLOCK:]):
        assert [block.count(page) for page in range(64)] == counts


def test_oltp_clients_own_disjoint_keys():
    for tid in (0, 5):
        for selects, low, updates in _take(workloads.oltp_txns(2, tid), 50):
            assert len(selects) == 10 and len(updates) == 3
            assert all(k % workloads.OLTP_CLIENTS == tid for k in selects)
            assert all(k % workloads.OLTP_CLIENTS == tid for k, _ in updates)
            assert 0 <= low <= workloads.OLTP_ROWS - workloads.SCAN_KEYS


def test_serve_mix():
    ops = _take(workloads.serve_ops(3), 4000)
    for start in range(0, len(ops), 100):  # exact in every block
        kinds = [kind for kind, _, _ in ops[start:start + 100]]
        assert (kinds.count("select"), kinds.count("update"),
                kinds.count("insert")) == (70, 20, 10)
    inserted = [key for kind, key, _ in ops if kind == "insert"]
    assert inserted == list(range(workloads.SERVE_ROWS,
                                  workloads.SERVE_ROWS + len(inserted)))
