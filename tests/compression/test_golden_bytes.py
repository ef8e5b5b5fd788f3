"""Byte-identity contract of the compress-side kernels.

``golden/codec_digests.json`` was written by the commit *before* the
match finder and the entropy stage were rewritten for speed (one shared
hash-chain index, slice-compare extension, batched bit writes) and is
not edited afterwards: every later kernel must reproduce those payloads
and token streams bit for bit.  Where that older code could not encode
an input at all (it raised on literal runs or matches of 65 536 bytes
and more), the entry is ``null`` and the payload only has to round-trip.

A second, independent check compares ``MatchFinder.tokenize`` against a
deliberately naive tokenizer kept in this file.

``python tests/compression/test_golden_bytes.py`` rewrites the JSON from
the code under ``src/``; do that only for a deliberate format change.
"""

import hashlib
import json
import random
import struct
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchmarks.ablation.dictionary import build_dictionary
from repro.compression.lz4 import LZ4Codec
from repro.compression.lz77 import MIN_MATCH, MatchFinder
from repro.compression.zstd import ZstdCodec
from repro.workloads.datagen import DATASETS, dataset_pages

GOLDEN = Path(__file__).parent / "golden" / "codec_digests.json"
PAGE = 16 * 1024
WINDOW = 65535

_WORDS = [
    b"transaction", b"commit", b"database", b"storage", b"page", b"index",
    b"compression", b"cloud", b"the", b"of", b"and", b"polar", b"redo",
]


def _text(size, seed):
    """Compressible filler with no literal run anywhere near 64 KiB."""
    rng = random.Random(seed)
    out = bytearray()
    while len(out) < size:
        out += rng.choice(_WORDS) + b" %d " % rng.randrange(1000)
    return bytes(out[:size])


def _far_match(distance):
    """A 64-byte random block repeated exactly ``distance`` bytes later."""
    block = random.Random(65).randbytes(64)
    return block + _text(distance - 64, 66) + block + _text(500, 67)


def _beyond_window():
    """200 KiB: a block that recurs past the window, then within it."""
    block = random.Random(7).randbytes(300)
    head = block + _text(70_000, 8) + block + _text(2_000, 9) + block
    return head + _text(200 * 1024 - len(head), 10)


def _inputs():
    cases = {}
    for name in DATASETS:
        for seed in range(8):
            cases[f"ds/{name}/{seed}"] = dataset_pages(name, 1, seed=seed)[0]
    cases["random16k"] = random.Random(1234).randbytes(PAGE)
    cases["zeros16k"] = bytes(PAGE)
    for period in (1, 2, 3, 7):
        cases[f"period{period}"] = (b"\xabcdefgh"[:period] * PAGE)[:PAGE]
    for size in (0, 1, 4, 5, 63, 64, 65):
        cases[f"size{size}"] = (b"abcabcabd" * 8)[:size]
    cases["beyond_window_200k"] = _beyond_window()
    cases["zeros70k"] = bytes(70 * 1024)
    cases["distance65535"] = _far_match(WINDOW)
    cases["distance65536"] = _far_match(WINDOW + 1)
    return cases


def _dictionaries():
    """One trained dictionary per dataset, and a window-filling one."""
    dicts = {
        name: build_dictionary(dataset_pages(name, 6, seed=1000))
        for name in DATASETS
    }
    dicts["max"] = b"".join(dataset_pages("wiki", 4, seed=1001))[:WINDOW]
    return dicts


def _dictionary_for(case, dicts):
    if case.startswith("ds/"):
        return dicts[case.split("/")[1]]
    return dicts["max"] if case in ("random16k", "period3") else dicts["fnb"]


_FINDERS = {
    "greedy16": lambda: MatchFinder(),
    "lazy64": lambda: MatchFinder(max_chain=64, lazy=True),
    "window128": lambda: MatchFinder(window=128),
}

_TOKEN_CASES = (
    "ds/fnb/0", "ds/wiki/0", "ds/finance/3", "ds/air_transport/5",
    "random16k", "zeros16k", "period1", "period3", "period7",
    "size0", "size1", "size4", "size5", "size63", "size64", "size65",
    "beyond_window_200k", "zeros70k", "distance65535", "distance65536",
)


def _digest(blob):
    return {"len": len(blob), "blake2b": hashlib.blake2b(blob, digest_size=16).hexdigest()}


def _token_digest(tokens):
    """Digest of ``(lit_start, lit_len, match_len, distance)`` rows."""
    blob = b"".join(struct.pack("<4I", *tok) for tok in tokens)
    return {"len": len(tokens), "blake2b": hashlib.blake2b(blob, digest_size=16).hexdigest()}


def compress_all(inputs, dicts):
    """``{section: {case: payload}}`` from the code under ``src/``."""
    lz4, zstd = LZ4Codec(), ZstdCodec()
    payloads = {"lz4": {}, "zstd": {}, "zstd_dict": {}}
    for case, data in inputs.items():
        payloads["lz4"][case] = lz4.compress(data)
        payloads["zstd"][case] = zstd.compress(data)
        payloads["zstd_dict"][case] = zstd.compress(
            data, dictionary=_dictionary_for(case, dicts)
        )
    return payloads


def compute(inputs, dicts, payloads=None):
    """The golden document for the code under ``src/``."""
    payloads = payloads or compress_all(inputs, dicts)
    doc = {
        section: {case: _digest(blob) for case, blob in cases.items()}
        for section, cases in payloads.items()
    }
    doc["tokens"] = {}
    for case in _TOKEN_CASES:
        for label, make in _FINDERS.items():
            doc["tokens"][f"{case}/{label}"] = _token_digest(
                make().tokenize(inputs[case])
            )
    # Dictionary mode of the finder itself: a prefix that is indexed but
    # produces no tokens.
    prefix = dicts["wiki"]
    doc["tokens"]["ds/wiki/0/lazy64+prefix"] = _token_digest(
        MatchFinder(max_chain=64, lazy=True).tokenize(
            prefix + inputs["ds/wiki/0"], start=len(prefix)
        )
    )
    return doc


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def inputs():
    return _inputs()


@pytest.fixture(scope="module")
def dicts():
    return _dictionaries()


@pytest.fixture(scope="module")
def payloads(inputs, dicts):
    return compress_all(inputs, dicts)


@pytest.fixture(scope="module")
def fresh(inputs, dicts, payloads):
    return compute(inputs, dicts, payloads)


@pytest.mark.parametrize("section", ["lz4", "zstd", "zstd_dict", "tokens"])
def test_section_is_bit_identical(golden, fresh, section):
    assert set(fresh[section]) == set(golden[section])
    for case, expected in golden[section].items():
        if expected is not None:
            assert fresh[section][case] == expected, (section, case)


@pytest.mark.parametrize("section", ["lz4", "zstd", "zstd_dict"])
def test_every_pinned_payload_decodes_to_its_input(
    golden, inputs, dicts, payloads, section
):
    """The stored format did not move: the payloads the digests pin are
    what the commit before the decode kernels wrote, and each decodes to
    its input under the decoders of today."""
    codec = LZ4Codec() if section == "lz4" else ZstdCodec()
    assert set(payloads[section]) == set(inputs)
    for case, payload in payloads[section].items():
        if golden[section][case] is not None:
            assert _digest(payload) == golden[section][case], (section, case)
        kwargs = (
            {"dictionary": _dictionary_for(case, dicts)}
            if section == "zstd_dict"
            else {}
        )
        assert codec.decompress(payload, **kwargs) == inputs[case], (section, case)


def test_inputs_the_older_encoder_refused_round_trip(golden, inputs, dicts):
    # It produced bytes for everything a page write can hand it; only the
    # 65 536-byte match of the 70 KiB zero run is round-trip-only.
    refused = {
        (section, case)
        for section in golden
        for case, entry in golden[section].items()
        if entry is None
    }
    assert refused == {("zstd", "zeros70k"), ("zstd_dict", "zeros70k")}
    codec, data = ZstdCodec(), inputs["zeros70k"]
    for kwargs in ({}, {"dictionary": _dictionary_for("zeros70k", dicts)}):
        assert codec.decompress(codec.compress(data, **kwargs), **kwargs) == data


def test_window_edge_and_match_cap(inputs):
    """What the digests pin, stated directly."""
    finder = MatchFinder(max_chain=64, lazy=True)
    at_edge = finder.tokenize(inputs["distance65535"])
    assert any(d == WINDOW and m >= 64 for _, _, m, d in at_edge)
    past_edge = finder.tokenize(inputs["distance65536"])
    assert all(d <= WINDOW for _, _, _, d in past_edge)
    assert not any(m >= 64 for _, _, m, _ in past_edge)
    far = finder.tokenize(inputs["beyond_window_200k"])
    assert all(d <= WINDOW for _, _, _, d in far)
    assert MatchFinder().tokenize(inputs["zeros70k"]) == [
        (0, 1, 1 << 16, 1),
        (65537, 0, 70 * 1024 - 65537, 1),
        (70 * 1024, 0, 0, 0),
    ]


# ---------------------------------------------------------------------------
# differential test against a naive tokenizer
# ---------------------------------------------------------------------------


def _naive_tokenize(data, start, window, max_chain, lazy, max_match):
    """The parse ``MatchFinder`` must produce, written for obviousness:
    quadratic candidate scan, byte-at-a-time extension."""
    n = len(data)
    if n - start < MIN_MATCH + 1:
        return [(start, n - start, 0, 0)]
    limit = n - MIN_MATCH
    hashes = [
        ((int.from_bytes(data[p:p + 4], "little") * 2654435761) & 0xFFFFFFFF) >> 16
        for p in range(limit + 1)
    ]

    def find(at):
        best_len = best_dist = 0
        cap = min(max_match, n - at)
        chain = max_chain
        for cand in range(at - 1, max(at - window, 0) - 1, -1):
            if hashes[cand] != hashes[at]:
                continue
            if chain == 0 or best_len >= cap:
                break
            chain -= 1
            length = 0
            while length < cap and data[cand + length] == data[at + length]:
                length += 1
            if length > best_len:
                best_len, best_dist = length, at - cand
        return (best_len, best_dist) if best_len >= MIN_MATCH else (0, 0)

    tokens = []
    lit_start = pos = start
    while pos <= limit:
        length, dist = find(pos)
        if length == 0:
            pos += 1
            continue
        if lazy and pos + 1 <= limit:
            next_len, next_dist = find(pos + 1)
            if next_len > length:
                pos, length, dist = pos + 1, next_len, next_dist
        tokens.append((lit_start, pos - lit_start, length, dist))
        lit_start = pos = pos + length
    tokens.append((lit_start, n - lit_start, 0, 0))
    return tokens


_repetitive = st.builds(
    lambda alphabet, picks: b"".join(alphabet[i % len(alphabet)] for i in picks),
    st.lists(st.binary(min_size=1, max_size=9), min_size=1, max_size=6),
    st.lists(st.integers(0, 5), min_size=0, max_size=400),
)


@given(
    data=st.one_of(st.binary(max_size=1024), _repetitive),
    prefix=st.integers(0, 64),
    window=st.sampled_from([1, 7, 128, 65535]),
    max_chain=st.sampled_from([1, 2, 16, 64]),
    lazy=st.booleans(),
    max_match=st.sampled_from([4, 5, 33, 1 << 16]),
)
@settings(max_examples=300, deadline=None)
def test_tokenizer_matches_naive_reference(
    data, prefix, window, max_chain, lazy, max_match
):
    start = min(prefix, len(data))
    finder = MatchFinder(
        window=window, max_chain=max_chain, lazy=lazy, max_match=max_match
    )
    # A fresh object each time, and twice: the second call is served by
    # the shared chain index built for the first.
    buf = bytes(bytearray(data))
    expected = _naive_tokenize(buf, start, window, max_chain, lazy, max_match)
    assert finder.tokenize(buf, start) == expected
    assert finder.tokenize(buf, start) == expected


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    document = compute(_inputs(), _dictionaries())
    GOLDEN.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
