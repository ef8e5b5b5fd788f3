"""The B-tree-vs-LSM write-amplification crossover on transparent
hardware compression (arXiv:2107.13987), measured on our own stack.

The claim: on storage with built-in transparent compression, a
B-tree-style in-place scheme (our single-level per-page log: every
eviction re-merges and rewrites the page's whole log block) closes — and
on compressible data *reverses* — the write-amplification gap to
LSM-style append-only schemes.  The physical mechanism is that the
rewritten block is internally redundant (generation r contains
generations 1..r-1), so the CSD's per-4 KB gzip collapses it to almost
nothing, while an LSM run mixes unrelated pages into each block and
compresses poorly.  On incompressible data the classic result holds:
rewriting costs O(generations) NAND, appending costs O(1) plus bounded
compaction rewrites.

This module drives the three :mod:`repro.storage.consolidation` policies
directly with the same flush workload (P pages × R rounds of redo, one
LSM-memtable-style mixed-page batch per round) over two corpora:

``hot-template``
    Each page's records are near-identical updates of a per-page random
    template — high within-page compressibility, none across pages.

``random``
    Every record is fresh random bytes — nothing compresses.

Write amplification is NAND bytes (FTL-counted, GC included) per user
byte; space amplification is live NAND per live user byte; read
amplification is device reads per page fetch.  All three come from an
:class:`repro.obs.amp.AmplificationAccountant` whose ``storage.amp.*``
gauges the artifact snapshots — the accountant is exercised end-to-end,
not recomputed by hand.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Dict, List, Optional, Tuple

from repro.bench.harness import ExperimentResult, print_table, save_result
from repro.common.units import KiB, MiB
from repro.csd.specs import POLARCSD2
from repro.csd.device import PolarCSD
from repro.obs.amp import AmplificationAccountant
from repro.obs.metrics import MetricsRegistry
from repro.storage.allocator import SpaceManager
from repro.storage.consolidation import (
    POLICIES,
    ConsolidationConfig,
    make_policy,
)
from repro.storage.redo import RedoRecord

CORPORA = ("hot-template", "random")

#: Redo payload bytes per record (encoded record = payload + 20 B header).
_PAYLOAD = 180


#: Benchmark-scale policy parameters (small levels, eager cascades).
_POLICY_CONFIG = ConsolidationConfig(
    l0_limit=2,
    level_ratio=4,
    base_level_bytes=32 * KiB,
    tier_fanout=3,
    max_levels=6,
)


def _record_data(corpus: str, seed: int, page: int, rnd: int,
                 templates: Dict[int, bytes]) -> bytes:
    # Integer-only seeding: tuple seeds hash differently per process.
    if corpus == "hot-template":
        template = templates.get(page)
        if template is None:
            template = random.Random(seed * 7919 + page).randbytes(_PAYLOAD)
            templates[page] = template
        return template[:-6] + (b"%06d" % rnd)
    return random.Random(
        (seed + 1) * 7919 + page * 613 + rnd
    ).randbytes(_PAYLOAD)


def _run_policy(
    corpus: str, policy_name: str, quick: bool, seed: int
) -> Dict[str, float]:
    pages = 24 if quick else 64
    rounds = 10 if quick else 16
    metrics = MetricsRegistry()
    spec = dataclasses.replace(
        POLARCSD2,
        logical_capacity=64 * MiB,
        physical_capacity=32 * MiB,
        jitter_sigma=0.0,
    )
    device = PolarCSD(
        spec, seed=seed, block_capacity=1 * MiB,
        metrics=metrics, metric_labels={"role": "amp"},
    )
    allocator = SpaceManager(64 * MiB)
    policy = make_policy(policy_name, device, allocator, _POLICY_CONFIG)
    stats = device.ftl.stats

    def live_user_bytes() -> int:
        return sum(
            policy.stored_bytes_for(p) for p in policy.pages_with_logs()
        )

    accountant = AmplificationAccountant(
        metrics,
        user_write_bytes=lambda: policy.user_bytes_evicted,
        physical_write_bytes=lambda: stats.nand_written_bytes,
        live_bytes=live_user_bytes,
        stored_bytes=lambda: device.physical_used_bytes,
        user_reads=lambda: policy.fetches,
        device_reads=lambda: policy.fetch_reads,
        policy=policy_name,
        corpus=corpus,
    )

    templates: Dict[int, bytes] = {}
    now = 0.0
    lsn = 0
    for rnd in range(rounds):
        batch: List[RedoRecord] = []
        for page in range(pages):
            lsn += 1
            batch.append(
                RedoRecord(
                    lsn, page, (rnd * 256) % 15000,
                    _record_data(corpus, seed, page, rnd, templates),
                )
            )
        now = policy.drain(policy.evict(now, batch))
    # Read phase: one fetch per page (the consolidation read pattern).
    for page in range(pages):
        result = policy.fetch(now, page)
        if len(result.records) != rounds:
            raise AssertionError(
                f"{policy_name}/{corpus}: page {page} returned "
                f"{len(result.records)} records, expected {rounds}"
            )
        now = result.done_us
    return {
        "wa": round(accountant.write_amplification(), 4),
        "sa": round(accountant.space_amplification(), 4),
        "ra": round(accountant.read_amplification(), 4),
        "user_kib": round(policy.user_bytes_evicted / KiB, 1),
        "nand_kib": round(stats.nand_written_bytes / KiB, 1),
        "compactions": policy.compactions,
        "blocks": policy.allocated_blocks,
        "sim_ms": round(now / 1000.0, 3),
    }


def run_write_amp(
    out_dir: Optional[str] = None,
    quick: bool = False,
    policies: Optional[List[str]] = None,
    seed: int = 7,
) -> Tuple[ExperimentResult, Optional[bool]]:
    """Measure WA/SA/RA per (corpus, policy); returns (result, crossover).

    ``crossover`` is ``True``/``False`` when all three policies ran
    (leveled-vs-single-level WA ordering must flip between corpora) and
    ``None`` when the policy list was filtered.
    """
    chosen = list(policies) if policies else list(POLICIES)
    for name in chosen:
        if name not in POLICIES:
            raise ValueError(f"unknown policy {name!r}")
    name = "write_amp"
    if len(chosen) == 1:
        name += "_" + chosen[0].replace("-", "_")
    if quick:
        name += "_quick"
    result = ExperimentResult(
        name,
        "B-tree-vs-LSM WA crossover on transparent compression "
        "(arXiv:2107.13987)",
        ["corpus", "policy", "WA", "SA", "RA", "user_kib", "nand_kib",
         "compactions", "blocks", "sim_ms"],
    )
    wa: Dict[Tuple[str, str], float] = {}
    for corpus in CORPORA:
        for policy_name in chosen:
            row = _run_policy(corpus, policy_name, quick, seed)
            wa[(corpus, policy_name)] = row["wa"]
            result.add(
                corpus, policy_name, row["wa"], row["sa"], row["ra"],
                row["user_kib"], row["nand_kib"], row["compactions"],
                row["blocks"], row["sim_ms"],
            )
    crossover: Optional[bool] = None
    if set(chosen) == set(POLICIES):
        crossover = (
            wa[("hot-template", "single-level")] < wa[("hot-template", "leveled")]
            and wa[("random", "single-level")] > wa[("random", "leveled")]
        )
        result.note(
            "crossover "
            + ("HOLDS" if crossover else "VIOLATED")
            + ": single-level WA beats leveled on the compressible corpus "
            "and loses on the incompressible one"
        )
    result.note(
        "WA = FTL NAND bytes / user bytes; SA = live NAND / live user "
        "bytes; RA = device reads per page fetch (storage.amp.* gauges)"
    )
    print_table(result)
    save_result(result, out_dir)
    return result, crossover
