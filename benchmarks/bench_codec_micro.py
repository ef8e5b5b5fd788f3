"""Codec micro-benchmarks (real wall time, not simulated).

Unlike every other bench in this suite, these measure the actual Python
implementations with pytest-benchmark: the relative shape (lz4 compresses
and decompresses faster than the zstd-like codec; hardware gzip is zlib C
speed) mirrors the real libraries even though absolute throughput is
Python-scale.  Also sanity-checks the cost *model* ordering against the
measured ordering.

The ``test_stage_*`` rows split a cold page compression (Algorithm 1
runs both codecs on it) into the stages a codec change can move: the
shared chain-index build, each parse alone, the two in Algorithm 1's
order — lz4, then zstd resuming lz4's chain walks — and the zstd entropy
stage, sized only and sized then packed, on a structured page, a text
page and a random one.  Every single-codec row runs on its own copy of
the page with the chain index already built for it: nothing an earlier
row parsed is resumed, so the row is that codec's cold cost.
``test_stage_select`` is the whole of it: Algorithm 1's evaluation with
the codec memo bypassed, and the winner packed only where the page
saves a block, as a page write does.
The ``test_stage_decode_*`` rows do the same for a page read: Huffman
table build and ``decode_all`` on the literal stream, ``unpack_bits`` on
the extra bits, sequence execution, and the whole ``decompress`` of both
codecs.
"""

import random

import numpy as np
import pytest

from repro.common.units import LBA_SIZE, align_up
from repro.compression import lz77
from repro.compression import zstd as zstd_module
from repro.compression.memo import get_codec
from repro.compression.cost import LZ4_COST, ZSTD_COST
from repro.compression.huffman import TableDecoder, unpack_bits
from repro.compression.selector import AlgorithmSelector
from repro.compression.zstd import entropy_stage
from repro.workloads.datagen import dataset_pages
from tests.perf.memo_swap import memo_capacity

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


def _cold_copy(page):
    """A fresh copy of ``page`` with its chain index built: no parse of
    it has recorded a walk, so a parse walks every chain from the start."""
    copy = bytes(bytearray(page))
    lz77.chain_index(copy)
    return copy


@pytest.mark.parametrize("codec_name", ["lz4", "zstd", "hw-gzip"])
def test_compress_16k_page(benchmark, codec_name):
    codec = get_codec(codec_name)
    out = benchmark(codec.compress, _cold_copy(PAGE))
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

    prev, mask = benchmark.pedantic(
        lz77.chain_index, setup=fresh_copy, rounds=30, warmup_rounds=2
    )
    assert len(prev) == len(mask) == len(page) - lz77.MIN_MATCH + 1


@pytest.mark.parametrize("parse", list(PARSES))
@pytest.mark.parametrize("page_name", list(STAGE_PAGES))
def test_stage_parse(benchmark, page_name, parse):
    # Every round is an index memo hit and a cold walk: no parse here
    # records a walk for another to resume.
    page = _cold_copy(STAGE_PAGES[page_name])
    tokens = benchmark(PARSES[parse].tokenize, page)
    assert lz77.reconstruct(tokens, page) == page


@pytest.mark.parametrize("page_name", list(STAGE_PAGES))
def test_stage_dual_parse(benchmark, page_name):
    """Algorithm 1's order on a fresh object: lz4, then zstd resuming
    the walks lz4 recorded."""
    page = STAGE_PAGES[page_name]

    def both(data):
        return (PARSES["lz4"].tokenize(data, record=True),
                PARSES["zstd"].tokenize(data))

    _, tokens = benchmark.pedantic(
        both, setup=lambda: ((_cold_copy(page),), {}), rounds=20, warmup_rounds=1
    )
    assert tokens == PARSES["zstd"].tokenize(_cold_copy(page))


@pytest.mark.parametrize("page_name", list(STAGE_PAGES))
def test_stage_zstd_size(benchmark, page_name):
    """The entropy stage up to the container's exact length: what the
    dual evaluation pays for the codec it does not keep."""
    page = STAGE_PAGES[page_name]
    tokens = PARSES["zstd"].tokenize(_cold_copy(page))
    container = benchmark(entropy_stage, page, tokens)
    assert container.size == len(container.pack())


@pytest.mark.parametrize("page_name", list(STAGE_PAGES))
def test_stage_zstd_entropy(benchmark, page_name):
    page = STAGE_PAGES[page_name]
    tokens = PARSES["zstd"].tokenize(_cold_copy(page))
    body = benchmark(lambda: entropy_stage(page, tokens).pack())
    # A random page's container is larger than the page, so ``compress``
    # stores the raw form instead (and never packs this one).
    if page_name != "random":
        assert body == get_codec("zstd").compress(page)


@pytest.mark.parametrize("page_name", ["fnb", "random"])
def test_stage_select(benchmark, page_name):
    """Algorithm 1's dual evaluation of a first-written page, memo
    bypassed: both codecs sized, the winner packed if it saves a block.
    On a host with two CPUs zstd is sized by the helper process (the
    first rounds run inline while it starts)."""
    page = STAGE_PAGES[page_name]
    selector = AlgorithmSelector()

    def evaluate(data):
        decision = selector.select(data)
        if align_up(decision.output.size, LBA_SIZE) < len(data):
            decision.output.pack()
        return decision

    with memo_capacity(0):
        decision = benchmark.pedantic(
            evaluate,
            setup=lambda: ((bytes(bytearray(page)),), {}),
            rounds=20,
            warmup_rounds=1,
        )
    assert decision.evaluated


def _container_parts(page):
    """The pieces of ``page``'s zstd container the decode stages consume
    (the container itself even where ``compress`` would fall back to the
    raw form, as for the random page: the stages cost the same)."""
    z = zstd_module
    payload = entropy_stage(page, PARSES["zstd"].tokenize(page)).pack()
    size, pos = z._read_varint(payload, 2)
    n_tokens, pos = z._read_varint(payload, pos)
    n_literals, pos = z._read_varint(payload, pos)
    lit_lengths, at = z._read_table(payload, pos, 256)
    lit_size, at = z._read_varint(payload, at)
    parts = {
        "size": size,
        "n_literals": n_literals,
        "lit_lengths": lit_lengths,
        "lit_stream": payload[at : at + lit_size],
    }
    parts["literals"], pos = z._decode_symbols(payload, pos, n_literals, 256)
    syms = np.zeros((n_tokens, 3), dtype=np.uint8)
    syms[:, 0], pos = z._decode_symbols(payload, pos, n_tokens, z._BUCKET_ALPHABET)
    syms[:, 1], pos = z._decode_symbols(payload, pos, n_tokens, z._BUCKET_ALPHABET)
    has_match = syms[:, 1] != 0
    syms[has_match, 2], pos = z._decode_symbols(
        payload, pos, int(has_match.sum()), z._BUCKET_ALPHABET
    )
    parts["widths"] = z._EXTRA_BITS[syms].ravel()
    parts["extras"] = payload[pos:]
    parts["fields"] = z._token_fields(syms, parts["extras"])
    return parts


@pytest.fixture(scope="module")
def container_parts():
    return {name: _container_parts(page) for name, page in STAGE_PAGES.items()}


@pytest.mark.parametrize("page_name", list(STAGE_PAGES))
def test_stage_decode_table_build(benchmark, container_parts, page_name):
    benchmark(TableDecoder, container_parts[page_name]["lit_lengths"])


@pytest.mark.parametrize("page_name", list(STAGE_PAGES))
def test_stage_decode_all_literals(benchmark, container_parts, page_name):
    parts = container_parts[page_name]
    decoder = TableDecoder(parts["lit_lengths"])
    out = benchmark(decoder.decode_all, parts["lit_stream"], parts["n_literals"])
    assert np.array_equal(out, parts["literals"])


@pytest.mark.parametrize("page_name", list(STAGE_PAGES))
def test_stage_decode_unpack_bits(benchmark, container_parts, page_name):
    parts = container_parts[page_name]
    out = benchmark(unpack_bits, parts["extras"], parts["widths"])
    assert len(out) == len(parts["widths"])


@pytest.mark.parametrize("page_name", list(STAGE_PAGES))
def test_stage_decode_sequence_execution(benchmark, container_parts, page_name):
    parts = container_parts[page_name]
    out = benchmark(
        zstd_module._execute, parts["fields"], parts["literals"], b"", parts["size"]
    )
    assert out == STAGE_PAGES[page_name]


@pytest.mark.parametrize("codec_name", ["lz4", "zstd"])
@pytest.mark.parametrize("page_name", list(STAGE_PAGES))
def test_stage_decode_whole(benchmark, page_name, codec_name):
    codec = get_codec(codec_name)
    payload = codec.compress(STAGE_PAGES[page_name])
    out = benchmark(codec.decompress, payload)
    assert out == STAGE_PAGES[page_name]


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
