"""Workload generation: domain datasets, fio-style buffers, sysbench OLTP."""

from repro.workloads.datagen import DATASETS, DatasetSpec, dataset_pages
from repro.workloads.fio import buffer_with_ratio
from repro.workloads.sysbench import (
    SYSBENCH_WORKLOADS,
    SysbenchResult,
    run_sysbench,
)
from repro.workloads.zipf import ZipfSampler

__all__ = [
    "DATASETS",
    "DatasetSpec",
    "dataset_pages",
    "buffer_with_ratio",
    "SYSBENCH_WORKLOADS",
    "SysbenchResult",
    "run_sysbench",
    "ZipfSampler",
]
