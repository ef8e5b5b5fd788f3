"""LZ77 match finder invariants."""

import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import lz77
from repro.compression.lz4 import LZ4Codec
from repro.compression.lz77 import MIN_MATCH, MatchFinder, reconstruct
from repro.compression.zstd import ZstdCodec
from repro.workloads.datagen import DATASETS, dataset_pages
from tests.compression.test_golden_bytes import _inputs

#: The two parses of Algorithm 1, with the parameters the codecs pass.
LZ4_PARSE = MatchFinder(max_chain=16, lazy=False)
ZSTD_PARSE = MatchFinder(max_chain=64, lazy=True, max_match=65535)
#: The golden corpus of ``test_golden_bytes.py``, by case name.
CORPUS = _inputs()


def _evaluated(data, split, start=0):
    """Algorithm 1's two token streams of ``data[start:]`` from the range
    split at ``split``, as the evaluation runs them with the helper:
    both parses of ``[split, n)`` from a speculative start, and of
    ``[start, split)`` on a copy of their own (the helper's, indexed
    only as far as that range probes), each head then rejoined with its
    tail."""
    n = len(data)
    tails = lz77.parse_both(LZ4_PARSE, ZSTD_PARSE, data, split, n)
    heads = lz77.parse_both(
        LZ4_PARSE, ZSTD_PARSE, bytes(bytearray(data)), start, split
    )
    return (
        LZ4_PARSE.rejoin(data, heads[0], tails[0]),
        ZSTD_PARSE.rejoin(data, heads[1], tails[1]),
    )


def _whole(data, start=0):
    """Both finders' tokens of a fresh copy of ``data``: a parse in one
    piece, resuming nothing."""
    copy = bytes(bytearray(data))
    return LZ4_PARSE.tokenize(copy, start), ZSTD_PARSE.tokenize(copy, start)


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
    """Every thread shares the codec instances ``get_codec`` hands out,
    and with them the one-slot memo — ``serve_in_thread`` servers do —
    so whichever thread's buffer and walk record sit in the slot, every
    thread must get its own buffer's bytes."""
    pages = [dataset_pages(name, 1, seed=9)[0] for name in DATASETS]
    lz4, zstd = LZ4Codec(), ZstdCodec()
    expected = [(lz4.compress(page), zstd.compress(page)) for page in pages]
    wrong = []

    def worker(offset):
        for step in range(5):
            which = (offset + step) % len(pages)
            page = pages[which]
            lz4_tokens, zstd_tokens = _evaluated(page, len(page) // 2)
            got = (lz4.plan(page, tokens=lz4_tokens).pack(),
                   zstd.plan(page, tokens=zstd_tokens).pack())
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


def test_finder_rejects_a_depth_or_cap_out_of_range():
    """A depth below 1 or a cap below MIN_MATCH never matches; a cap
    over 65 536 does not fit a recorded walk."""
    with pytest.raises(ValueError, match="max_chain"):
        MatchFinder(max_chain=0)
    with pytest.raises(ValueError, match="max_match"):
        MatchFinder(max_match=MIN_MATCH - 1)
    with pytest.raises(ValueError, match="max_match"):
        MatchFinder(max_match=(1 << 16) + 1)
    assert MatchFinder(max_chain=1, max_match=MIN_MATCH).tokenize(b"abcd" * 4)[0][2]


# ---------------------------------------------------------------------------
# zstd's walk resumes where lz4's stopped
# ---------------------------------------------------------------------------


def _cold(finder, data, start=0):
    """``finder``'s tokens on a fresh copy of ``data``: no walk of that
    object is recorded, so every probe walks its chain from the start."""
    return finder.tokenize(bytes(bytearray(data)), start)


def _record(finder, data):
    """``finder``'s parse of all of ``data``, its chain walks recorded."""
    return finder.parse(data, 0, 0, len(data), record=True)


def _record_of(data):
    """The chain walks the memo holds for ``data`` (None if it holds none)."""
    buffer, _, _, _, _, walks = lz77._last_index
    return walks if buffer is data and walks else None


def test_zstd_parse_resumed_from_lz4_matches_a_cold_one_on_the_golden_corpus():
    lz4, zstd = LZ4Codec(), ZstdCodec()
    for case, data in CORPUS.items():
        _record(LZ4_PARSE, data)
        if len(data) >= 16 * 1024:  # a page or more: there is a record
            assert _record_of(data) is not None, case
        assert ZSTD_PARSE.tokenize(data) == _cold(ZSTD_PARSE, data), case
        # Algorithm 1 itself: both parses in its order on one object.
        _, zstd_tokens = _evaluated(data, len(data))
        assert zstd.plan(data, tokens=zstd_tokens).pack() == zstd.compress(
            bytes(bytearray(data))
        ), case


def test_a_greedy_parse_records_its_walks_only_when_asked():
    """Only Algorithm 1's evaluation reads lz4's walks, and it asks for
    them; any other parse leaves none in the slot."""
    data = CORPUS["ds/wiki/0"]
    LZ4_PARSE.tokenize(data)
    assert _record_of(data) is None
    _record(LZ4_PARSE, data)
    assert _record_of(data) is not None
    lz77.forget(data)
    assert lz77._last_index is lz77._EMPTY


@st.composite
def _planted_repeats(draw):
    """A small-alphabet buffer with copies of its own stretches planted
    at random places: chains far deeper than 64, and matches that run to
    the end."""
    alphabet = draw(st.binary(min_size=1, max_size=4))
    rng = random.Random(draw(st.integers(0, 1 << 16)))
    buf = bytearray(rng.choice(alphabet) for _ in range(draw(st.integers(0, 4000))))
    for _ in range(draw(st.integers(0, 8))):
        src = draw(st.integers(0, len(buf)))
        piece = buf[src : src + draw(st.integers(MIN_MATCH, 400))]
        at = draw(st.integers(0, len(buf)))
        buf[at:at] = piece
    return bytes(buf)


@given(_planted_repeats())
@settings(max_examples=150, deadline=None)
def test_zstd_parse_resumed_from_lz4_matches_a_cold_one(data):
    cold = _cold(ZSTD_PARSE, data)
    _record(LZ4_PARSE, data)
    assert ZSTD_PARSE.tokenize(data) == cold
    assert _record_of(data) is None  # spent by the parse that resumed it
    assert ZSTD_PARSE.tokenize(data) == cold


#: Two letters: chains run far past 64 candidates inside 3 000 bytes.
_BINARY = bytes(random.Random(5).randrange(2) for _ in range(3000))


@pytest.mark.parametrize(
    "data",
    [CORPUS["ds/fnb/0"], CORPUS["ds/wiki/0"], _BINARY],
    ids=["fnb", "wiki", "binary"],
)
def test_no_resume_across_windows(data):
    """Walks that ran to a 65 535-byte window are no start for a parse
    with a 128-byte one, deeper or not, nor the other way round."""
    narrow = MatchFinder(window=128)
    narrow_deep = MatchFinder(window=128, max_chain=64, lazy=True)
    _record(LZ4_PARSE, data)
    assert narrow.tokenize(data) == _cold(narrow, data)
    _record(LZ4_PARSE, data)
    assert narrow_deep.tokenize(data) == _cold(narrow_deep, data)
    _record(narrow, data)
    assert ZSTD_PARSE.tokenize(data) == _cold(ZSTD_PARSE, data)


def test_no_resume_across_caps():
    """Past 65 535 bytes lz4's 65 536-byte cap and zstd's 65 535-byte one
    differ, and so do their walks: lz4 matched 65 536 zeros at 1."""
    data = bytes(70 * 1024)
    _record(LZ4_PARSE, data)
    # At 1: 65 536 bytes at distance 1, and the walk over (lz77.Walk).
    assert _record_of(data)[1] == 1 << 16 | 1 << 17 | (lz77._END + 1) << 34
    tokens = ZSTD_PARSE.tokenize(data)
    assert tokens == _cold(ZSTD_PARSE, data)
    assert max(match_len for _, _, match_len, _ in tokens) == 65535


def test_no_resume_from_a_deeper_walk():
    data = CORPUS["ds/wiki/0"]
    shallow = MatchFinder(max_chain=8, lazy=True)
    _record(LZ4_PARSE, data)
    assert shallow.tokenize(data) == _cold(shallow, data)


def test_no_resume_for_another_buffer():
    """Walks belong to the object lz4 parsed: a bytearray of the same
    length, which the memo never holds, walks cold."""
    _record(LZ4_PARSE, CORPUS["ds/wiki/0"])
    other = CORPUS["ds/wiki/1"]
    assert ZSTD_PARSE.tokenize(bytearray(other)) == _cold(ZSTD_PARSE, other)


def test_no_resume_in_dictionary_mode():
    """A dictionary parse runs on ``dictionary + page``, a new object,
    so lz4's walks of the page are never resumed by it."""
    data, dictionary = CORPUS["ds/fnb/1"], CORPUS["ds/fnb/2"]
    zstd = ZstdCodec()
    _record(LZ4_PARSE, data)
    assert _record_of(data) is not None
    payload = zstd.compress(data, dictionary=dictionary)
    assert payload == zstd.compress(bytes(bytearray(data)), dictionary=dictionary)
    assert zstd.decompress(payload, dictionary=dictionary) == data


# ---------------------------------------------------------------------------
# the probe mask: no position where a probe can succeed is skipped
# ---------------------------------------------------------------------------


def _floor0_hits(data, start, window, depth):
    """Positions from ``start`` on where a floor-0 probe of the reference
    finder succeeds: one of the ``depth`` nearest earlier positions with
    the same hash, within ``window``, agrees on ``MIN_MATCH`` bytes."""
    hits, chains = set(), {}
    for pos in range(len(data) - MIN_MATCH + 1):
        key = int.from_bytes(data[pos : pos + MIN_MATCH], "little")
        chain = chains.setdefault(((key * 2654435761) & 0xFFFFFFFF) >> 16, [])
        if pos >= start:
            for cand in reversed(chain[-depth:]):
                if pos - cand > window:
                    break
                if data[cand : cand + MIN_MATCH] == data[pos : pos + MIN_MATCH]:
                    hits.add(pos)
                    break
        chain.append(pos)
    return hits


def _check_mask_covers_hits(data, start=0):
    _, mask = lz77.chain_index(bytes(bytearray(data)))
    for window in (128, 65535):
        for pos in _floor0_hits(data, start, window, 64):
            assert mask[pos] == 1, (window, pos)


@pytest.mark.parametrize(
    "case",
    [
        "ds/fnb/0", "ds/wiki/0", "ds/finance/3", "ds/air_transport/5",
        "random16k", "zeros16k", "period1", "period3", "period7",
        "size0", "size4", "size5", "size65", "distance65535",
    ],
)
def test_probe_mask_covers_every_floor0_hit(case):
    _check_mask_covers_hits(CORPUS[case])


def test_probe_mask_covers_every_floor0_hit_in_dictionary_mode():
    prefix = CORPUS["ds/wiki/1"]
    for case in ("ds/wiki/0", "random16k"):
        _check_mask_covers_hits(prefix + CORPUS[case], start=len(prefix))


@given(
    st.one_of(
        st.binary(max_size=1500),
        st.builds(
            lambda alphabet, picks: b"".join(alphabet[i % len(alphabet)] for i in picks),
            st.lists(st.binary(min_size=1, max_size=9), min_size=1, max_size=6),
            st.lists(st.integers(0, 5), max_size=400),
        ),
    ),
    st.integers(0, 64),
)
@settings(max_examples=150, deadline=None)
def test_probe_mask_covers_every_floor0_hit_of_any_buffer(data, prefix):
    _check_mask_covers_hits(data, min(prefix, len(data)))


# ---------------------------------------------------------------------------
# a parse split by range: head, continuation and spliced tail are the whole
# ---------------------------------------------------------------------------


@st.composite
def _buffer_and_split(draw):
    data = draw(
        st.one_of(
            st.binary(max_size=2048),
            _planted_repeats(),
            st.builds(
                lambda unit, count: (unit * count)[: count * 3],
                st.binary(min_size=1, max_size=7),
                st.integers(0, 1500),
            ),
        )
    )
    return data, draw(st.integers(0, len(data)))


@given(_buffer_and_split())
@settings(deadline=None)
def test_the_index_up_to_a_split_is_the_start_of_the_whole_one(case):
    """What a head parse builds: the chain links and mask bits of the
    positions up to ``stop``, each as the whole buffer's index has it."""
    data, stop = case
    prev, mask = lz77.chain_index(bytes(bytearray(data)))
    head_prev, head_mask = lz77.chain_index(bytes(bytearray(data)), stop)
    count = min(stop + 1, len(prev))
    assert (head_prev, head_mask) == (prev[:count], mask[:count])


@given(_buffer_and_split())
@settings(deadline=None)
def test_a_parse_split_anywhere_rejoins_the_whole_one(case):
    data, split = case
    assert _evaluated(bytes(bytearray(data)), split) == _whole(data)


@pytest.mark.parametrize(
    "case",
    ["ds/fnb/0", "ds/wiki/0", "ds/finance/3", "ds/air_transport/5",
     "random16k", "period3", "distance65535"],
)
def test_corpus_pages_split_at_several_points_rejoin_exactly(case):
    data = CORPUS[case]
    whole = _whole(data)
    n = len(data)
    for split in (0, n // 4, n // 2, 3 * n // 4, n - MIN_MATCH, n):
        assert _evaluated(bytes(bytearray(data)), split) == whole, split


def test_a_split_inside_a_long_match_rejoins_past_it():
    data = CORPUS["zeros16k"]
    split = len(data) // 2
    head = LZ4_PARSE.parse(data, 0, 0, split)
    assert head.pos > split  # the split fell inside the head's last match
    assert _evaluated(bytes(bytearray(data)), split) == _whole(data)


def test_a_split_with_no_marked_position_after_it_runs_the_head_to_the_end():
    data = b"polarstore-" * 60 + random.Random(4).randbytes(700)
    split = 660
    _, mask = lz77.chain_index(bytes(bytearray(data)))
    assert mask.find(1, split) < 0  # the tail's parse never calls find
    assert _evaluated(bytes(bytearray(data)), split) == _whole(data)


def test_buffers_too_short_for_a_match_split_anywhere():
    for n in range(MIN_MATCH + 2):
        for data in (bytes(n), b"ab" * n, random.Random(n).randbytes(n)):
            data = data[:n]
            for split in range(n + 1):
                assert _evaluated(data, split) == _whole(data), (data, split)


def test_a_dictionary_parse_split_after_its_prefix_rejoins_the_whole_one():
    """Dictionary mode stays a parse in one piece (``tokenize`` with
    ``start``); a split anywhere after the prefix gives the same tokens."""
    prefix, page = CORPUS["ds/wiki/1"], CORPUS["ds/wiki/0"][:4096]
    buf = prefix + page
    whole = _whole(buf, len(prefix))
    for split in (len(prefix), len(prefix) + 1, len(prefix) + 2048, len(buf)):
        assert _evaluated(bytes(bytearray(buf)), split, len(prefix)) == whole
