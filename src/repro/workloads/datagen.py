"""Synthetic domain datasets.

The paper evaluates space on four production datasets dumped from user
databases (Finance, Food & Beverage, Wiki, Air Transport — Figure 14 and
Table 3).  Those dumps are unavailable, so each generator here models the
*redundancy structure* of its domain, which is what determines compression
behaviour:

* **finance** — ledger entries: a small pool of account ids, dictionary
  descriptions, low-entropy amounts, near-constant dates.  Long-range
  structure repeats well beyond 4 KB, so 16 KB software compression (and
  entropy coding) shines — this is the dataset where Algorithm 1 picks
  zstd most often (73.1% in Table 3).
* **fnb** — point-of-sale order lines: medium dictionary of item names but
  high-entropy quantities/prices/timestamps; lz4 usually ties zstd after
  4 KB alignment (58.7% lz4 in Table 3).
* **wiki** — running text with Zipf-distributed word frequencies.
* **air_transport** — fixed-width flight segments: dense categorical codes
  (carriers, airports) plus high-entropy tail numbers and times.

Generators yield 16 KB page images (records packed then zero-padded like a
page's free space) and (key, value) rows for loading the DB engine.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.common.units import DB_PAGE_SIZE

RecordFn = Callable[[random.Random, int, dict], bytes]
ProfileFn = Callable[[random.Random], dict]


@dataclass(frozen=True)
class DatasetSpec:
    """One synthetic domain dataset.

    ``profile`` draws per-page parameters (dictionary sizes, numeric
    entropy, optional free-text fields) so compressed page sizes vary the
    way real tables' pages do — without this, every page of a dataset
    would land in the same 4 KB-aligned bucket and Algorithm 1 would have
    nothing to choose between (Table 3 would degenerate).
    """

    name: str
    record: RecordFn
    profile: ProfileFn
    description: str


# --------------------------------------------------------------------- #
# Record generators                                                      #
# --------------------------------------------------------------------- #

_FIN_DESCRIPTIONS = [
    b"WIRE TRANSFER INBOUND", b"CARD PURCHASE", b"ACH PAYMENT",
    b"INTEREST ACCRUAL", b"MONTHLY SERVICE FEE", b"ATM WITHDRAWAL",
    b"REFUND ISSUED", b"STANDING ORDER",
]
_FIN_BRANCHES = [b"BR%03d" % i for i in range(12)]


def _finance_profile(rng: random.Random) -> dict:
    return {
        # Small pool -> pages dominated by a few hot accounts; large pool
        # (a cold archive partition) -> high-entropy account numbers.
        "account_pool": rng.choice((4096, 65536, 1 << 20)),
        "amount_digits": rng.choice((9, 12)),
        # Most ledger tables carry a free-text memo/reference column.
        "memo_len": rng.choice((16, 24, 32, 40, 48, 56)),
    }


def _finance_record(rng: random.Random, row_id: int, profile: dict) -> bytes:
    account = 1_000_000 + rng.randrange(profile["account_pool"])
    amount = rng.randrange(10 ** profile["amount_digits"])
    memo = rng.randbytes(profile["memo_len"]).hex().encode()
    return (
        b"%012d|ACCT%010d|%s|%s|2026-07-01|%010d.%02d|EUR|SETTLED|%s\n"
        % (
            row_id,
            account,
            rng.choice(_FIN_BRANCHES),
            rng.choice(_FIN_DESCRIPTIONS),
            amount // 100,
            amount % 100,
            memo,
        )
    )


_FNB_ITEMS = [
    b"espresso", b"cappuccino", b"flat-white", b"croissant", b"bagel",
    b"avocado-toast", b"orange-juice", b"cold-brew", b"matcha-latte",
    b"blueberry-muffin", b"granola-bowl", b"chai", b"mocha", b"scone",
    b"club-sandwich", b"tomato-soup", b"house-salad", b"lemon-tart",
    b"iced-tea", b"hot-chocolate", b"pain-au-chocolat", b"quiche",
]


def _fnb_profile(rng: random.Random) -> dict:
    return {
        "menu_size": rng.randrange(6, len(_FNB_ITEMS) + 1),
        "ts_entropy": rng.choice((10**4, 10**6, 10**8)),
        # POS terminals sometimes attach order notes (free text / ids).
        "note_len": rng.choice((0, 0, 0, 0, 0, 0, 6, 12)),
    }


def _fnb_record(rng: random.Random, row_id: int, profile: dict) -> bytes:
    item = rng.choice(_FNB_ITEMS[: profile["menu_size"]])
    note = rng.randbytes(profile["note_len"]).hex().encode()
    return b"%010d,%s,qty=%d,unit=%d.%02d,tip=%d,ts=%010d,srv=%04d,%s\n" % (
        row_id,
        item,
        rng.randrange(1, 9),
        rng.randrange(2, 30),
        rng.randrange(100),
        rng.randrange(500),
        1_700_000_000 + rng.randrange(profile["ts_entropy"]),
        rng.randrange(10000),
        note,
    )


_WIKI_COMMON = (
    b"the of and to in a is was for on as with by at from it that his were "
    b"are which this also be had not have one their has its but first new "
).split()
_WIKI_TOPIC = (
    b"storage database compression cloud hardware software latency page "
    b"system architecture deployment cluster device driver memory index "
    b"transaction replication throughput benchmark evaluation production "
).split()


def _wiki_profile(rng: random.Random) -> dict:
    return {
        "common_fraction": rng.choice((0.35, 0.35, 0.5, 0.65, 0.65)),
        # Articles embed markup/refs with high-entropy identifiers.
        "ref_probability": rng.choice((0.1, 0.2, 0.3)),
    }


def _wiki_record(rng: random.Random, row_id: int, profile: dict) -> bytes:
    words: List[bytes] = []
    for _ in range(rng.randrange(8, 18)):
        pool = (
            _WIKI_COMMON
            if rng.random() < profile["common_fraction"]
            else _WIKI_TOPIC
        )
        words.append(rng.choice(pool))
    sentence = b" ".join(words)
    if rng.random() < profile["ref_probability"]:
        sentence += b" [ref:%s]" % rng.randbytes(6).hex().encode()
    return sentence.capitalize() + b". "


_AIR_CARRIERS = [b"CA", b"MU", b"CZ", b"HU", b"3U", b"MF", b"SC", b"ZH"]
_AIR_AIRPORTS = [
    b"PEK", b"PVG", b"CAN", b"SZX", b"CTU", b"KMG", b"XIY", b"SHA",
    b"HGH", b"WUH", b"NKG", b"CKG", b"TAO", b"XMN", b"CSX", b"URC",
]


def _air_profile(rng: random.Random) -> dict:
    return {
        "airport_pool": rng.choice((4, 8, 16)),
        "remark_len": rng.choice((0, 0, 8, 16)),
    }


def _air_record(rng: random.Random, row_id: int, profile: dict) -> bytes:
    pool = _AIR_AIRPORTS[: profile["airport_pool"]]
    dep, arr = rng.sample(pool, 2)
    remark = rng.randbytes(profile["remark_len"]).hex().encode()
    return b"%s%04d %s-%s D%02d%02d A%02d%02d B7%02d REG-B%04d GATE%03d %s %s\n" % (
        rng.choice(_AIR_CARRIERS),
        rng.randrange(10000),
        dep,
        arr,
        rng.randrange(24), rng.randrange(60),
        rng.randrange(24), rng.randrange(60),
        rng.choice((37, 77, 87, 20, 21)),
        rng.randrange(10000),
        rng.randrange(400),
        b"ON-TIME" if rng.random() < 0.8 else b"DELAYED",
        remark,
    )


DATASETS: Dict[str, DatasetSpec] = {
    "finance": DatasetSpec(
        "finance", _finance_record, _finance_profile, "bank ledger entries"
    ),
    "fnb": DatasetSpec(
        "fnb", _fnb_record, _fnb_profile, "food & beverage order lines"
    ),
    "wiki": DatasetSpec("wiki", _wiki_record, _wiki_profile, "encyclopedia text"),
    "air_transport": DatasetSpec(
        "air_transport", _air_record, _air_profile, "flight segment records"
    ),
}


# --------------------------------------------------------------------- #
# Page / row assembly                                                    #
# --------------------------------------------------------------------- #


def dataset_pages(name: str, n_pages: int, seed: int = 0) -> List[bytes]:
    """``n_pages`` 16 KB page images of the named dataset."""
    spec = DATASETS[name]
    rng = random.Random((seed << 8) ^ zlib.crc32(name.encode()))
    pages: List[bytes] = []
    row_id = 0
    for _ in range(n_pages):
        profile = spec.profile(rng)
        buf = bytearray()
        # Pages keep some free space (tail padding) like a real B+tree
        # leaf; the reserve varies with the table's update activity.
        budget = DB_PAGE_SIZE - rng.randrange(256, 3072)
        while len(buf) < budget:
            buf += spec.record(rng, row_id, profile)
            row_id += 1
        del buf[budget:]
        buf += bytes(DB_PAGE_SIZE - len(buf))
        pages.append(bytes(buf))
    return pages


def corpus(pages_per_dataset: int = 64, seed: int = 0) -> List[bytes]:
    """A mixed corpus across every dataset (the Figure 2 input)."""
    out: List[bytes] = []
    for name in DATASETS:
        out.extend(dataset_pages(name, pages_per_dataset, seed))
    return out
