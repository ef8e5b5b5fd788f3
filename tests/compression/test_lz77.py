"""LZ77 match finder invariants."""

import random
import sys
import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.lz4 import LZ4Codec
from repro.compression.lz77 import MIN_MATCH, MatchFinder, reconstruct
from repro.compression.zstd import ZstdCodec
from repro.workloads.datagen import DATASETS, dataset_pages


def _finders():
    return [
        MatchFinder(),  # lz4-style greedy
        MatchFinder(max_chain=64, lazy=True),  # zstd-style lazy
        MatchFinder(window=128),
    ]


@given(st.binary(min_size=0, max_size=2048))
@settings(max_examples=100, deadline=None)
def test_tokens_reconstruct_input(data):
    for finder in _finders():
        tokens = finder.tokenize(data)
        assert reconstruct(tokens, data) == data


@given(st.binary(min_size=0, max_size=1024))
@settings(max_examples=100, deadline=None)
def test_token_stream_is_well_formed(data):
    finder = MatchFinder()
    tokens = finder.tokenize(data)
    # Tokens tile the input: literal runs are contiguous in the source and
    # the final token is literal-only.
    covered = 0
    for lit_start, lit_len, match_len, _ in tokens:
        assert lit_start == covered
        covered += lit_len + match_len
    assert covered == len(data)
    assert tokens[-1][2] == 0


@given(st.binary(min_size=MIN_MATCH + 2, max_size=1024))
@settings(max_examples=100, deadline=None)
def test_matches_respect_window_and_min_match(data):
    finder = MatchFinder(window=64)
    for _, _, match_len, distance in finder.tokenize(data):
        if match_len:
            assert match_len >= MIN_MATCH
            assert 1 <= distance <= 64


def test_finds_obvious_repetition():
    data = b"abcdefgh" * 100
    tokens = MatchFinder().tokenize(data)
    matched = sum(match_len for _, _, match_len, _ in tokens)
    assert matched > len(data) * 0.9


def test_lazy_matching_not_worse_than_greedy():
    rng = random.Random(2)
    words = [b"alpha", b"beta", b"gamma", b"delta"]
    data = b"".join(rng.choice(words) for _ in range(500))
    greedy_tokens = MatchFinder(max_chain=64, lazy=False).tokenize(data)
    lazy_tokens = MatchFinder(max_chain=64, lazy=True).tokenize(data)
    greedy_matched = sum(match_len for _, _, match_len, _ in greedy_tokens)
    lazy_matched = sum(match_len for _, _, match_len, _ in lazy_tokens)
    assert lazy_matched >= greedy_matched * 0.98


def test_shared_chain_index_survives_racing_threads():
    """The pool's ``thread`` kind shares codec instances, and with them
    the one-slot chain-index memo: whichever thread's buffer sits in the
    slot, every thread must get its own buffer's bytes."""
    pages = [dataset_pages(name, 1, seed=9)[0] for name in DATASETS]
    lz4, zstd = LZ4Codec(), ZstdCodec()
    expected = [(lz4.compress(page), zstd.compress(page)) for page in pages]
    wrong = []

    def worker(offset):
        for step in range(5):
            which = (offset + step) % len(pages)
            got = lz4.compress(pages[which]), zstd.compress(pages[which])
            if got != expected[which]:
                wrong.append((offset, step))

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
