"""§6 alternatives quantified: erasure coding vs replication, and the
dedup negative result.

The paper: EC "presents an alternative for reducing storage costs ...
however, EC is not currently suitable for our system's redo records";
deduplication's "applicability in RDBMSs is limited since ... exact
page-level deduplication matches rare."  Both claims, measured.
"""

import dataclasses
import random

from repro.bench.harness import ExperimentResult, print_table, save_result
from repro.common.units import DB_PAGE_SIZE, KiB, MiB
from repro.csd.device import PlainSSD
from repro.csd.specs import P5510
from benchmarks.ablation.dedup import dedup_ratio_of
from benchmarks.ablation.erasure import ECVolume, ReedSolomon
from repro.workloads.datagen import DATASETS, dataset_pages


def _devices(count, seed=0):
    spec = dataclasses.replace(
        P5510, logical_capacity=64 * MiB, physical_capacity=64 * MiB,
        jitter_sigma=0.0,
    )
    return [PlainSSD(spec, seed=seed + i) for i in range(count)]


def run_ec_vs_replication():
    result = ExperimentResult(
        "ablation_ec_vs_replication",
        "3-way replication vs RS(4,2) for page data; why redo is excluded",
        ["scheme", "overhead", "write_devices", "read_devices",
         "small_append_rmw_shards"],
    )
    rows = {}
    volume = ECVolume(_devices(6), k=4, m=2)
    page = dataset_pages("finance", 1, seed=1)[0]
    volume.write_page(0.0, 1, page)
    data, _ = volume.read_page(1e4, 1)
    assert data == page

    # Replication: 3 full copies; reads hit one device.
    result.add("3-way replication", 3.0, 3, 1, 0)
    rows["replication"] = 3.0
    # EC(4,2): 1.5x; writes fan to 6, reads gather 4.
    result.add("RS(4,2) pages", volume.storage_overhead, 6, 4, 0)
    rows["ec"] = volume.storage_overhead
    # Redo: a 512 B append into a stripe would read-modify-write every
    # parity shard (m shards) plus the data shard — per tiny append.
    result.add("RS(4,2) redo append (hypothetical)",
               volume.storage_overhead, 1 + 2, 2, 2)
    result.note(
        "EC halves page-storage overhead vs replication but a sub-stripe "
        "redo append pays read-modify-write on every parity shard — the "
        "paper's reason to keep redo replicated (§6)"
    )
    print_table(result)
    save_result(result)
    return rows


def run_dedup_study():
    result = ExperimentResult(
        "ablation_dedup",
        "page-level dedup ratio: live DB pages vs backup streams",
        ["stream", "pages", "dedup_ratio"],
    )
    ratios = {}
    live = []
    for name in DATASETS:
        live.extend(dataset_pages(name, 8, seed=2))
    ratios["live DB pages"] = dedup_ratio_of(live)
    result.add("live DB pages", len(live), ratios["live DB pages"])

    backups = dataset_pages("finance", 10, seed=2) * 4
    ratios["4 full backups"] = dedup_ratio_of(backups)
    result.add("4 full backups", len(backups), ratios["4 full backups"])

    rng = random.Random(0)
    vm_images = [bytes(DB_PAGE_SIZE)] * 20 + [
        rng.randbytes(DB_PAGE_SIZE) for _ in range(10)
    ]
    ratios["zeroed VM blocks"] = dedup_ratio_of(vm_images)
    result.add("zeroed VM blocks", len(vm_images), ratios["zeroed VM blocks"])
    result.note(
        "record-level storage makes exact page matches rare (§6): dedup "
        "pays off for backups/VM images, not for live RDBMS pages"
    )
    print_table(result)
    save_result(result)
    return ratios


def test_ec_vs_replication(run_once):
    rows = run_once(run_ec_vs_replication)
    assert rows["ec"] == 1.5
    assert rows["ec"] < rows["replication"] / 1.9


def test_dedup_study(run_once):
    ratios = run_once(run_dedup_study)
    assert ratios["live DB pages"] < 1.05       # the negative result
    assert ratios["4 full backups"] > 3.5
    assert ratios["zeroed VM blocks"] > 2.0
