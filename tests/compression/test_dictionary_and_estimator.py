"""§6 extensions: shared dictionaries and estimation-based selection."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import CorruptionError
from benchmarks.ablation.dictionary import DictionaryManager, build_dictionary
from benchmarks.ablation.estimator import (
    EstimatingSelector,
    EstimatorThresholds,
    estimate_ratio,
)
from repro.compression.zstd import ZstdCodec
from repro.workloads.datagen import dataset_pages

codec = ZstdCodec()

# --------------------------------------------------------------------- #
# Dictionary mode of the codec                                           #
# --------------------------------------------------------------------- #


def test_dict_round_trip():
    dictionary = b"account|balance|status=active|2026-07-04|" * 20
    data = b"account|balance|status=active|XY" * 100
    payload = codec.compress(data, dictionary=dictionary)
    assert codec.decompress(payload, dictionary=dictionary) == data


def test_dict_improves_ratio_on_schema_data():
    pages = dataset_pages("finance", 8, seed=3)
    dictionary = build_dictionary(pages[:4], size=4096)
    plain = sum(len(codec.compress(p)) for p in pages[4:])
    with_dict = sum(
        len(codec.compress(p, dictionary=dictionary)) for p in pages[4:]
    )
    assert with_dict < plain


def test_dict_payload_requires_dictionary():
    dictionary = b"shared-prefix-" * 64
    data = b"shared-prefix-payload!" * 64
    payload = codec.compress(data, dictionary=dictionary)
    with pytest.raises(CorruptionError):
        codec.decompress(payload)  # dictionary withheld


def test_wrong_dictionary_fails_or_corrupts():
    dictionary = b"one-dictionary-" * 64
    data = b"one-dictionary-page" * 80
    payload = codec.compress(data, dictionary=dictionary)
    other = b"a-different-dict" * 64
    try:
        out = codec.decompress(payload, dictionary=other)
    except (CorruptionError, ValueError, IndexError):
        return
    assert out != data


def test_oversized_dictionary_rejected():
    with pytest.raises(ValueError):
        codec.compress(b"x" * 100, dictionary=b"y" * 70000)


@given(st.binary(min_size=64, max_size=1024), st.binary(min_size=0, max_size=512))
@settings(max_examples=60, deadline=None)
def test_dict_round_trip_random(data, dictionary):
    payload = codec.compress(data, dictionary=dictionary)
    assert codec.decompress(payload, dictionary=dictionary) == data


def test_builder_prefers_frequent_shingles():
    frequent = b"REPEATED-SHINGLE" * 1  # 16 bytes, the shingle width
    samples = [frequent * 40 + bytes(random.Random(i).randbytes(64))
               for i in range(4)]
    dictionary = build_dictionary(samples, size=256)
    assert frequent in dictionary


def test_builder_empty_and_validation():
    assert build_dictionary([], size=128) == b""
    with pytest.raises(ValueError):
        build_dictionary([b"x"], size=0)


def test_dictionary_manager_trains_after_min_samples():
    manager = DictionaryManager(min_samples=3, dict_size=2048)
    pages = dataset_pages("fnb", 5, seed=2)
    for page in pages[:2]:
        manager.observe("orders", page)
    assert not manager.has_dictionary("orders")
    manager.observe("orders", pages[2])
    assert manager.has_dictionary("orders")
    payload = manager.compress("orders", pages[3])
    assert manager.decompress("orders", payload) == pages[3]


def test_dictionary_manager_isolates_tables():
    manager = DictionaryManager(min_samples=1)
    manager.observe("a", dataset_pages("finance", 1, seed=1)[0])
    assert manager.has_dictionary("a")
    assert not manager.has_dictionary("b")
    # Table b compresses dictionary-less but still round-trips.
    page = dataset_pages("wiki", 1, seed=1)[0]
    assert manager.decompress("b", manager.compress("b", page)) == page


# --------------------------------------------------------------------- #
# Estimation                                                             #
# --------------------------------------------------------------------- #


def test_estimator_ranks_compressibility():
    incompressible = random.Random(0).randbytes(16384)
    text = dataset_pages("wiki", 1, seed=0)[0]
    zeros = bytes(16384)
    r_random = estimate_ratio(incompressible)
    r_text = estimate_ratio(text)
    r_zeros = estimate_ratio(zeros)
    assert r_random < r_text < r_zeros
    assert r_random < 1.2
    assert r_zeros > 10


def test_estimator_handles_edges():
    assert estimate_ratio(b"") == 1.0
    assert estimate_ratio(b"a") >= 1.0
    assert estimate_ratio(b"ab" * 10) > 1.0


def test_estimating_selector_skips_raw_for_random_data():
    selector = EstimatingSelector()
    page = random.Random(1).randbytes(16384)
    decision = selector.select(page)
    assert decision.codec == "lz4"
    assert not decision.evaluated
    assert selector.raw_skips == 1
    assert selector.full_evaluations == 0


def test_estimating_selector_fast_picks_zstd_for_zeros():
    selector = EstimatingSelector()
    decision = selector.select(bytes(16384))
    assert decision.codec == "zstd"
    assert selector.fast_picks == 1


def test_estimating_selector_gray_zone_runs_full_evaluation():
    selector = EstimatingSelector(
        EstimatorThresholds(incompressible=1.01, clearly_compressible=1e9)
    )
    page = dataset_pages("fnb", 1, seed=5)[0]
    decision = selector.select(page)
    assert selector.full_evaluations == 1
    assert decision.codec in ("lz4", "zstd")


def test_estimating_selector_saves_cpu():
    selector = EstimatingSelector()
    for seed in range(4):
        selector.select(random.Random(seed).randbytes(16384))
    assert selector.estimated_cpu_saving_us(16384) > 0


def test_estimating_selector_decisions_round_trip():
    from repro.compression.base import get_codec

    selector = EstimatingSelector()
    for page in (bytes(16384), random.Random(2).randbytes(16384),
                 dataset_pages("finance", 1, seed=7)[0]):
        decision = selector.select(page)
        assert get_codec(decision.codec).decompress(
            decision.result.payload
        ) == page
