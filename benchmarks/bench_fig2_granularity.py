"""Figure 2: compressed storage size vs index granularity, input size, and
algorithm.

Paper result (408.37 GB corpus): (a) 4 KB index granularity costs ~80.5%
more space than byte-level; (b) larger compression inputs raise the ratio
(4 KB -> 3.59, 1 MB -> 6.85); (c) zstd beats lz4.

We sweep the same three dimensions over the synthetic mixed corpus.  Our
zstd-like codec has a 64 KB match window (pure-Python budget), so the
input-size curve saturates beyond 64 KB instead of climbing to 1 MB; the
ordering — bigger inputs never hurt, byte-granularity always wins — is the
reproduced shape.
"""

from repro.bench.harness import ExperimentResult, print_table, save_result
from repro.common.units import KiB, LBA_SIZE, MiB, align_up
from repro.compression.memo import get_codec
from repro.workloads.datagen import corpus

PAGES_PER_DATASET = 24  # keep pure-Python codec time reasonable


def _corpus_blob():
    return b"".join(corpus(pages_per_dataset=PAGES_PER_DATASET, seed=1))


def _compress_in_blocks(blob, codec, block_size):
    """Total (byte-granular, 4 KB-granular) compressed sizes."""
    byte_total = 0
    aligned_total = 0
    for start in range(0, len(blob), block_size):
        payload = codec.compress(blob[start : start + block_size])
        size = min(len(payload), block_size)
        byte_total += size
        aligned_total += align_up(size, LBA_SIZE)
    return byte_total, aligned_total


def run_figure2():
    blob = _corpus_blob()
    zstd = get_codec("zstd")
    lz4 = get_codec("lz4")
    hw = get_codec("hw-gzip")

    result = ExperimentResult(
        "fig2_granularity",
        "compressed size vs index granularity / input size / algorithm",
        ["panel", "config", "ratio", "size_mib"],
    )

    # (a) index granularity, zstd, 16 KB inputs.
    byte_total, aligned_total = _compress_in_blocks(blob, zstd, 16 * KiB)
    result.add("a", "byte-granularity index", len(blob) / byte_total,
               byte_total / MiB)
    result.add("a", "4KB-granularity index", len(blob) / aligned_total,
               aligned_total / MiB)
    overhead = aligned_total / byte_total - 1.0
    result.note(
        f"4KB granularity costs {overhead:.1%} extra space "
        "(paper: ~80.5% on its corpus)"
    )

    # (b) input size sweep, zstd, byte granularity.
    for block in (4 * KiB, 16 * KiB, 64 * KiB, 256 * KiB, 1 * MiB):
        byte_total, _ = _compress_in_blocks(blob, zstd, block)
        label = f"{block // KiB}KB input" if block < MiB else "1MB input"
        result.add("b", label, len(blob) / byte_total, byte_total / MiB)
    result.note(
        "input-size gains saturate at the codec's 64 KB window "
        "(paper's zstd uses larger windows and keeps climbing to 1 MB)"
    )

    # (c) algorithm sweep at 16 KB inputs, byte granularity.
    for name, codec in (("lz4", lz4), ("zstd", zstd), ("gzip-5", hw)):
        byte_total, _ = _compress_in_blocks(blob, codec, 16 * KiB)
        result.add("c", name, len(blob) / byte_total, byte_total / MiB)

    print_table(result)
    save_result(result)
    return result


def test_fig2(run_once):
    result = run_once(run_figure2)
    rows = {(r[0], r[1]): r[2] for r in result.rows}
    # Byte granularity strictly beats 4 KB granularity.
    assert rows[("a", "byte-granularity index")] > rows[("a", "4KB-granularity index")]
    # Bigger inputs never hurt up to the window.
    assert rows[("b", "64KB input")] >= rows[("b", "16KB input")] >= rows[("b", "4KB input")]
    # zstd beats lz4 (panel c).
    assert rows[("c", "zstd")] > rows[("c", "lz4")]
