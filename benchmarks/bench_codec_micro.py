"""Codec micro-benchmarks (real wall time, not simulated).

Unlike every other bench in this suite, these measure the actual Python
implementations with pytest-benchmark: the relative shape (lz4 compresses
and decompresses faster than the zstd-like codec; hardware gzip is zlib C
speed) mirrors the real libraries even though absolute throughput is
Python-scale.  Also sanity-checks the cost *model* ordering against the
measured ordering.

The ``test_stage_*`` rows split a cold page compression (Algorithm 1
runs both codecs on it) into the stages a codec change can move: the
shared chain-index build, the two parses that walk it, and the zstd
entropy stage — on a structured page, a text page and a random one.
"""

import random

import pytest

from repro.compression import lz77
from repro.compression.base import get_codec
from repro.compression.cost import LZ4_COST, ZSTD_COST
from repro.compression.zstd import encode_tokens
from repro.workloads.datagen import dataset_pages

PAGE = dataset_pages("fnb", 1, seed=1)[0]
STAGE_PAGES = {
    "fnb": PAGE,
    "wiki": dataset_pages("wiki", 1, seed=1)[0],
    "random": random.Random(1).randbytes(len(PAGE)),
}
#: The finders the two codecs run, by the parameters they pass.
PARSES = {
    "lz4": lz77.MatchFinder(max_chain=16, lazy=False),
    "zstd": lz77.MatchFinder(max_chain=64, lazy=True, max_match=65535),
}


@pytest.fixture(scope="module")
def payloads():
    return {
        "lz4": get_codec("lz4").compress(PAGE),
        "zstd": get_codec("zstd").compress(PAGE),
        "hw-gzip": get_codec("hw-gzip").compress(PAGE),
    }


@pytest.mark.parametrize("codec_name", ["lz4", "zstd", "hw-gzip"])
def test_compress_16k_page(benchmark, codec_name):
    codec = get_codec(codec_name)
    out = benchmark(codec.compress, PAGE)
    assert len(out) < len(PAGE)


@pytest.mark.parametrize("codec_name", ["lz4", "zstd", "hw-gzip"])
def test_decompress_16k_page(benchmark, codec_name, payloads):
    codec = get_codec(codec_name)
    out = benchmark(codec.decompress, payloads[codec_name])
    assert out == PAGE


@pytest.mark.parametrize("page_name", list(STAGE_PAGES))
def test_stage_chain_index_build(benchmark, page_name):
    page = STAGE_PAGES[page_name]

    def fresh_copy():
        # The index memo is keyed on object identity: a copy is a miss.
        return (bytes(bytearray(page)),), {}

    prev = benchmark.pedantic(
        lz77.chain_index, setup=fresh_copy, rounds=30, warmup_rounds=2
    )
    assert len(prev) == len(page) - lz77.MIN_MATCH + 1


@pytest.mark.parametrize("parse", list(PARSES))
@pytest.mark.parametrize("page_name", list(STAGE_PAGES))
def test_stage_parse(benchmark, page_name, parse):
    page = STAGE_PAGES[page_name]
    lz77.chain_index(page)  # warm: every round below is a memo hit
    tokens = benchmark(PARSES[parse].tokenize, page)
    assert lz77.reconstruct(tokens, page) == page


@pytest.mark.parametrize("page_name", list(STAGE_PAGES))
def test_stage_zstd_entropy(benchmark, page_name):
    page = STAGE_PAGES[page_name]
    tokens = PARSES["zstd"].tokenize(page)
    body = benchmark(encode_tokens, page, tokens)
    # A random page's container is built, found larger than the page and
    # dropped for the raw form; the stage costs the same either way.
    if page_name != "random":
        assert bytes(body) == get_codec("zstd").compress(page)


def test_cost_model_ordering_matches_reality(benchmark):
    """The calibrated model says lz4 decompression is cheaper than zstd;
    the implementations must agree on the ordering."""
    import time

    lz4 = get_codec("lz4")
    zstd = get_codec("zstd")
    lz4_payload = lz4.compress(PAGE)
    zstd_payload = zstd.compress(PAGE)

    def measure(fn, arg, rounds=20):
        start = time.perf_counter()
        for _ in range(rounds):
            fn(arg)
        return time.perf_counter() - start

    lz4_time = measure(lz4.decompress, lz4_payload)
    zstd_time = measure(zstd.decompress, zstd_payload)
    assert lz4_time < zstd_time
    assert LZ4_COST.decompress_us(len(PAGE)) < ZSTD_COST.decompress_us(len(PAGE))
    benchmark(lambda: None)  # keep pytest-benchmark satisfied
