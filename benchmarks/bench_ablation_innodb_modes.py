"""InnoDB table compression vs page compression vs PolarStore (§2.2.1).

The paper describes InnoDB's two software strategies: *table compression*
(each 16 KB page maps to a 4/8/16 KB file page — KEY_BLOCK_SIZE semantics)
and *page compression* (compress before write, hole-punch the tail — any
4 KB-multiple footprint).  Both are implemented in
:mod:`repro.baselines.innodb`; this bench quantifies their space behaviour
against the dual-layer store on the same data.
"""

from repro.api.config import NodeConfig
from repro.bench.harness import ExperimentResult, print_table, save_result
from repro.common.units import MiB
from repro.baselines.innodb import InnoDBStore
from repro.storage.store import build_node
from repro.workloads.datagen import DATASETS, dataset_pages

PAGES = 16


def _mixed_entropy_pages(count, seed=3):
    """Pages whose zstd output lands between 8 and 12 KB — the band where
    table compression's 4/8/16 KB rounding visibly loses to page
    compression's any-multiple footprint."""
    import random

    from repro.common.units import DB_PAGE_SIZE

    rng = random.Random(seed)
    pages = []
    for _ in range(count):
        out = bytearray()
        while len(out) < DB_PAGE_SIZE:
            out += b"record|%06d|" % rng.randrange(10**6)
            out += rng.randbytes(24).hex().encode()
        pages.append(bytes(out[:DB_PAGE_SIZE]))
    return pages


def run_innodb_modes():
    result = ExperimentResult(
        "ablation_innodb_modes",
        "space: InnoDB table vs page compression vs PolarStore dual layer",
        ["dataset", "table_compr", "page_compr", "polarstore"],
    )
    rows = {}
    sources = {name: dataset_pages(name, PAGES, seed=7) for name in DATASETS}
    sources["mixed-entropy"] = _mixed_entropy_pages(PAGES)
    for dataset, pages in sources.items():
        table_store = InnoDBStore(table_compression=True)
        page_store = InnoDBStore(table_compression=False)
        polar = build_node(
            "modes",
            NodeConfig(opt_algorithm_selection=False),
            volume_bytes=64 * MiB,
        )
        now = 0.0
        for page_no, page in enumerate(pages):
            table_store.write_page(now, page_no, page)
            page_store.write_page(now, page_no, page)
            now = polar.write_page(now, page_no, page).done_us
        ratios = (
            table_store.compression_ratio(),
            page_store.compression_ratio(),
            polar.compression_ratio(),
        )
        rows[dataset] = ratios
        result.add(dataset, *ratios)
    result.note(
        "table compression rounds to 4/8/16 KB file pages (worst "
        "fragmentation); page compression keeps any 4 KB multiple; "
        "PolarStore adds the byte-granular hardware layer on top"
    )
    print_table(result)
    save_result(result)
    return rows


def test_innodb_modes(run_once):
    rows = run_once(run_innodb_modes)
    for dataset, (table_ratio, page_ratio, polar_ratio) in rows.items():
        # Page compression never does worse than table compression
        # (1/2/4-block rounding is a superset of any-block rounding).
        assert page_ratio >= table_ratio - 1e-9, (dataset, rows[dataset])
        # The dual-layer store beats both software-only modes.
        assert polar_ratio > page_ratio, (dataset, rows[dataset])
