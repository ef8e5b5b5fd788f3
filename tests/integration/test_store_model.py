"""Model-based testing: PolarStore vs a plain dict across random op mixes.

Whatever interleaving of full writes, raw writes, partial writes, archive
operations, and crash-recoveries occurs, reads must always return exactly
what a dictionary model says — and space accounting must stay consistent.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.config import NodeConfig
from repro.common.units import DB_PAGE_SIZE, MiB
from repro.storage.recovery import recover_node
from repro.storage.store import build_node

_WORDS = [b"alpha", b"bravo", b"charlie", b"delta", b"echo", b"foxtrot"]


def _page(seed: int) -> bytes:
    rng = random.Random(seed)
    out = bytearray()
    while len(out) < DB_PAGE_SIZE:
        out += rng.choice(_WORDS) + b"%04d" % rng.randrange(10000)
    return bytes(out[:DB_PAGE_SIZE])


op_strategy = st.one_of(
    st.tuples(st.just("write"), st.integers(0, 11), st.integers(0, 10**6)),
    st.tuples(st.just("raw"), st.integers(0, 11), st.integers(0, 10**6)),
    st.tuples(
        st.just("partial"),
        st.integers(0, 11),
        st.integers(0, DB_PAGE_SIZE - 64),
    ),
    st.tuples(st.just("archive"), st.integers(0, 1), st.integers(0, 1)),
    st.tuples(st.just("recover"), st.integers(0, 1), st.integers(0, 1)),
)


@given(st.lists(op_strategy, min_size=1, max_size=25))
@settings(max_examples=25, deadline=None)
def test_store_matches_model(ops):
    from repro.storage.store import CompressionMode  # noqa: F401

    node = build_node("model", NodeConfig(), volume_bytes=64 * MiB)
    model = {}
    now = 0.0
    for op, a, b in ops:
        if op == "write":
            page = _page(b)
            now = node.write_page(now, a, page).done_us
            model[a] = page
        elif op == "raw":
            # No-compression mode: a whole-page partial write stores the
            # image uncompressed.
            page = _page(b ^ 0x5555)
            now = node.write_partial(now, a, 0, page).done_us
            model[a] = page
        elif op == "partial":
            patch = b"PATCH-%04d" % (a * 13)
            if a in model:
                image = bytearray(model[a])
            else:
                image = bytearray(DB_PAGE_SIZE)
            image[b : b + len(patch)] = patch
            model[a] = bytes(image)
            now = node.write_partial(now, a, b, patch).done_us
        elif op == "archive":
            pages = sorted(model)
            if len(pages) >= 2:
                targets = pages[: len(pages) // 2 + 1]
                now = node.archive_range(now, targets)
        elif op == "recover":
            node = recover_node(node)
    # Every page the model knows reads back byte-exact.
    for page_no, expected in model.items():
        assert node.read_page(now, page_no).data == expected
    # Space accounting: logical matches the model's page count.
    assert node.logical_used_bytes == len(model) * DB_PAGE_SIZE
    # The software layer never uses more device space than raw storage
    # of every page would.
    assert node.device_used_bytes <= len(model) * DB_PAGE_SIZE + 4096
