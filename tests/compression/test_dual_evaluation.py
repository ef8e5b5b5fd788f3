"""Algorithm 1 sized first, packed on demand, against the way it was.

The oracle below is the evaluation as the paper states it and as this
code ran it before sizing existed: compress the page with both codecs
to completion, align both payload lengths to 4 KiB, keep one.  The
selector and the storage node now decide on ``Plan.size`` and pack only
the output they store; every decision, size and stored byte must equal
the oracle's.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.units import DB_PAGE_SIZE, LBA_SIZE, MiB, align_up
from repro.compression import memo
from repro.compression.cost import codec_cost
from repro.compression.lz4 import LZ4Codec
from repro.compression.selector import (
    DEFAULT_THRESHOLD_BYTES_PER_US,
    AlgorithmSelector,
)
from repro.compression.zstd import ZstdCodec
from repro.storage.index import CompressionInfo
from repro.storage.node import NodeConfig
from repro.storage.store import build_node
from repro.workloads.datagen import DATASETS, dataset_pages
from tests.compression.test_golden_bytes import _dictionaries, _inputs
from tests.perf.memo_swap import memo_capacity

CORPUS = _inputs()
LZ4, ZSTD = LZ4Codec(), ZstdCodec()


def oracle(page):
    """``(codec, lz4 payload, zstd payload, stored payload or None)``:
    both codecs run to completion, then the aligned sizes decide; a
    winner that saves no 4 KiB block is not stored (the page goes raw)."""
    payloads = {"lz4": LZ4.compress(page), "zstd": ZSTD.compress(page)}
    lz4_aligned = align_up(len(payloads["lz4"]), LBA_SIZE)
    zstd_aligned = align_up(len(payloads["zstd"]), LBA_SIZE)
    overhead = max(
        codec_cost("zstd").decompress_us(zstd_aligned)
        - codec_cost("lz4").decompress_us(lz4_aligned),
        1e-9,
    )
    benefit = lz4_aligned - zstd_aligned
    codec = "zstd" if benefit / overhead > DEFAULT_THRESHOLD_BYTES_PER_US else "lz4"
    kept = payloads[codec]
    stored = kept if align_up(len(kept), LBA_SIZE) < len(page) else None
    return codec, payloads["lz4"], payloads["zstd"], stored


def _check_against_oracle(page):
    codec, lz4_payload, zstd_payload, stored = oracle(page)
    assert LZ4.plan(page).size == len(lz4_payload)
    assert ZSTD.plan(page).size == len(zstd_payload)
    # Nothing recorded serves the first selection; the second is served
    # by what the first recorded (sizes, and the payload it packed).
    with memo_capacity(memo.MEMO_CAPACITY_BYTES):
        for _ in range(2):
            decision = AlgorithmSelector().select(page)
            assert decision.codec == codec
            assert decision.output.size == len(
                lz4_payload if codec == "lz4" else zstd_payload
            )
            assert decision.output.pack() == (
                lz4_payload if codec == "lz4" else zstd_payload
            )
    if len(page) != DB_PAGE_SIZE:
        return
    with memo_capacity(0):
        node = build_node("oracle", NodeConfig(), volume_bytes=32 * MiB)
        prepared = node.prepare_page(1, page)
    if stored is None:
        assert prepared.status is CompressionInfo.UNCOMPRESSED
        assert prepared.payload == page
    else:
        assert prepared.status is CompressionInfo.NORMAL
        assert (prepared.algorithm, prepared.payload) == (codec, stored)


@pytest.mark.parametrize("case", list(CORPUS))
def test_selection_equals_the_oracle_on_the_golden_corpus(case):
    _check_against_oracle(CORPUS[case])


@st.composite
def _pages(draw):
    """Dataset pages, random pages, and pages half of each."""
    seed = draw(st.integers(0, 1 << 20))
    kind = draw(st.sampled_from(["dataset", "random", "half", "small"]))
    if kind == "small":
        return draw(st.binary(max_size=300))
    dataset = dataset_pages(draw(st.sampled_from(list(DATASETS))), 1, seed=seed)[0]
    noise = random.Random(seed).randbytes(DB_PAGE_SIZE)
    if kind == "dataset":
        return dataset
    if kind == "random":
        return noise
    cut = draw(st.integers(0, DB_PAGE_SIZE))
    return dataset[:cut] + noise[cut:]


@given(_pages())
@settings(max_examples=30, deadline=None)
def test_selection_equals_the_oracle(page):
    _check_against_oracle(page)


def test_a_page_that_saves_no_block_packs_nothing():
    page = random.Random(11).randbytes(DB_PAGE_SIZE)
    with memo_capacity(memo.MEMO_CAPACITY_BYTES) as cache:
        node = build_node("raw", NodeConfig(), volume_bytes=32 * MiB)
        prepared = node.prepare_page(1, page)
        recorded = [
            cache.get(memo.content_key(name, page)) for name in ("lz4", "zstd")
        ]
    assert prepared.status is CompressionInfo.UNCOMPRESSED
    # Both codecs were sized and neither was packed.
    assert all(type(value) is int for value in recorded)


# ---------------------------------------------------------------------------
# a plan's size is its packed length
# ---------------------------------------------------------------------------


_buffers = st.one_of(
    st.binary(max_size=200),
    st.builds(
        lambda alphabet, picks: b"".join(alphabet[i % len(alphabet)] for i in picks),
        st.lists(st.binary(min_size=1, max_size=9), min_size=1, max_size=6),
        st.lists(st.integers(0, 5), max_size=2000),
    ),
    # Literal runs and matches long enough for extended lengths.
    st.builds(
        lambda seed, run, repeat: random.Random(seed).randbytes(run) * repeat,
        st.integers(0, 1 << 16),
        st.integers(1, 700),
        st.integers(1, 40),
    ),
)


@given(_buffers)
@settings(max_examples=200, deadline=None)
def test_plan_size_is_the_packed_length(data):
    for codec in (LZ4, ZSTD):
        planned = codec.plan(data)
        assert planned.size == len(planned.pack())
        assert planned.pack() == codec.compress(data)


@pytest.mark.parametrize("case", list(CORPUS))
def test_plan_size_is_the_packed_length_on_the_golden_corpus(case):
    data = CORPUS[case]
    for codec in (LZ4, ZSTD):
        planned = codec.plan(data)
        assert planned.size == len(planned.pack())


def test_zstd_plan_sizes_raw_short_and_dictionary_forms():
    dictionary = _dictionaries()["fnb"]
    cases = [
        (b"", b""),
        (b"a" * 63, b""),  # under 64 bytes: always raw
        (b"a" * 64, b""),
        (random.Random(3).randbytes(5000), b""),  # raw fallback
        (dataset_pages("fnb", 1, seed=4)[0], dictionary),
        (random.Random(4).randbytes(300), dictionary),
    ]
    for data, prefix in cases:
        planned = ZSTD.plan(data, prefix)
        payload = planned.pack()
        assert planned.size == len(payload)
        assert ZSTD.decompress(payload, dictionary=prefix) == data
