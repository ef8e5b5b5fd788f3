"""Benchmark harness shared by the ``benchmarks/`` suite."""
