"""Workload generation: domain datasets, fio-style buffers, sysbench OLTP."""
