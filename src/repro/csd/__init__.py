"""Storage-device simulators.

* :mod:`repro.csd.specs` — calibrated latency/capacity specs for every
  device the paper evaluates (PolarCSD 1.0/2.0, Intel P4510/P5510 data
  SSDs, Optane P4800X/P5800X performance devices).
* :mod:`repro.csd.mapping` — the variable-length L2P entry encodings
  (8-byte gen-1, 7-byte gen-2 with 16-byte offset granularity).
* :mod:`repro.csd.nand` — NAND geometry and byte-granular block space.
* :mod:`repro.csd.ftl` — page-mapping FTL with byte-granularity PBAs,
  greedy garbage collection, and TRIM.
* :mod:`repro.csd.device` — the PolarCSD device (in-storage gzip) and the
  plain-SSD / Optane models behind one ``BlockDevice`` interface.
* :mod:`repro.csd.faults` — slow-I/O fault injection for Figure 8.
"""
