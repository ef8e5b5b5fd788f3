"""Compression codecs and the adaptive selection mechanism.

Two real codecs are implemented from scratch:

* :mod:`repro.compression.lz4` — the LZ4 block format (LZ77 matches, no
  entropy coding).
* :mod:`repro.compression.zstd` — a zstd-like codec (LZ77 matches with a
  larger window and lazy matching, plus canonical-Huffman entropy coding).

The distinction that drives the paper's Figure 5 — lz4 output remains
compressible by the hardware gzip stage while zstd output does not — falls
out of these implementations naturally.

:mod:`repro.compression.gzipdev` models the PolarCSD hardware gzip engine
(DEFLATE level 5), and :mod:`repro.compression.selector` implements the
paper's Algorithm 1 (adaptive lz4/zstd selection).

The write path does not call a codec's ``compress`` itself: it calls
:mod:`repro.compression.memo`, a content-addressed cache of a fixed
size in front of the codecs, because replicas, devices and migrations
compress the same bytes again and again.  Reads call
``memo.get_codec(name).decompress`` directly; ``memo.CODECS`` is the one
table of the shared codec instances.
"""
