"""Compressibility estimation for fast algorithm selection (§6).

The paper's fourth "related direction" cites estimation techniques
(Harnik et al., FAST'13: "To Zip or Not to Zip") to pick algorithms
without running them.  This module implements that idea: a cheap
estimator samples a page, combines byte entropy with a repeated-shingle
heuristic to predict the compression ratio, and an
:class:`EstimatingSelector` uses the prediction to

* skip compression entirely for incompressible pages (store raw),
* skip the dual-codec evaluation when zstd is an obvious win or an
  obvious non-win,
* fall back to the full Algorithm 1 evaluation only in the gray zone.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional

from repro.compression.memo import get_codec
from repro.compression.cost import codec_cost
from repro.compression.selector import AlgorithmSelector, SelectionDecision

_SAMPLE_CHUNK = 256
_SAMPLE_COUNT = 8
_SHINGLE = 8


def estimate_ratio(data: bytes, seed: int = 0) -> float:
    """Predict the achievable compression ratio of ``data``.

    Combines two signals over sampled chunks:

    * byte entropy (bits/byte) — bounds what entropy coding can do;
    * repeated-shingle fraction — proxies LZ match coverage.

    The combination is deliberately simple; its job is ranking pages, not
    absolute accuracy (the gray zone falls back to real compression).
    """
    if not data:
        return 1.0
    rng = random.Random(seed)
    if len(data) <= _SAMPLE_CHUNK * _SAMPLE_COUNT:
        sample = data
    else:
        chunks = []
        for _ in range(_SAMPLE_COUNT):
            start = rng.randrange(len(data) - _SAMPLE_CHUNK)
            chunks.append(data[start : start + _SAMPLE_CHUNK])
        sample = b"".join(chunks)

    # Byte entropy.
    counts = [0] * 256
    for byte in sample:
        counts[byte] += 1
    total = len(sample)
    entropy = 0.0
    for count in counts:
        if count:
            p = count / total
            entropy -= p * math.log2(p)

    # Repeated-shingle fraction.
    shingles = {}
    repeats = 0
    positions = range(0, len(sample) - _SHINGLE, 2)
    for offset in positions:
        key = sample[offset : offset + _SHINGLE]
        if key in shingles:
            repeats += 1
        else:
            shingles[key] = True
    repeat_fraction = repeats / max(1, len(positions))

    # Entropy coding alone approaches 8/entropy; LZ matches multiply the
    # saving by the repeated-content coverage.
    entropy_ratio = 8.0 / max(entropy, 0.5)
    lz_factor = 1.0 + 3.0 * repeat_fraction
    return max(1.0, entropy_ratio * lz_factor)


@dataclass(frozen=True)
class EstimatorThresholds:
    """Decision bands over the estimated ratio."""

    #: Below this, do not even compress: store the page raw.
    incompressible: float = 1.15
    #: Above this, zstd wins without running both codecs.
    clearly_compressible: float = 4.0


class EstimatingSelector:
    """Algorithm selection guided by estimation, falling back to the full
    dual-codec evaluation only in the gray zone."""

    def __init__(
        self,
        thresholds: EstimatorThresholds = EstimatorThresholds(),
        inner: Optional[AlgorithmSelector] = None,
    ) -> None:
        self.thresholds = thresholds
        self.inner = inner if inner is not None else AlgorithmSelector()
        self.raw_skips = 0
        self.fast_picks = 0
        self.full_evaluations = 0

    def select(
        self,
        page: bytes,
        cpu_utilization: float = 0.0,
        update_percent: float = 1.0,
        last_used: Optional[str] = None,
    ) -> SelectionDecision:
        estimate = estimate_ratio(page)
        if estimate < self.thresholds.incompressible:
            # Don't burn CPU compressing what won't compress.
            self.raw_skips += 1
            return SelectionDecision("lz4", get_codec("lz4").plan(page), False)
        if estimate > self.thresholds.clearly_compressible:
            # Obvious zstd territory: single compression, no comparison.
            self.fast_picks += 1
            return SelectionDecision("zstd", get_codec("zstd").plan(page), False)
        self.full_evaluations += 1
        return self.inner.select(
            page, cpu_utilization, update_percent, last_used
        )

    def estimated_cpu_saving_us(self, page_bytes: int) -> float:
        """CPU avoided so far versus always running both codecs."""
        both = codec_cost("lz4").compress_us(page_bytes) + codec_cost(
            "zstd"
        ).compress_us(page_bytes)
        single_zstd = codec_cost("zstd").compress_us(page_bytes)
        single_lz4 = codec_cost("lz4").compress_us(page_bytes)
        return (
            self.raw_skips * (both - single_lz4)
            + self.fast_picks * (both - single_zstd)
        )
