"""Baseline compression approaches the paper compares against (§2.2, §5.3).

* :mod:`repro.baselines.lsm` — an LSM-tree substrate (memtable, SSTables,
  leveled compaction with compression during compaction).
* :mod:`repro.baselines.myrocks` — a MyRocks-style engine over the LSM
  substrate, with compaction CPU billed to the compute node.
* :mod:`repro.baselines.innodb` — InnoDB-style table/page compression on a
  B+tree with 4 KB file-block alignment and compute-side codec work.

Fig 16 compares exactly these two engines with PolarStore; the
log-structured approach §2.2.1 describes has no figure, so no model.
"""

from repro.baselines.innodb import InnoDBEngine, InnoDBStore
from repro.baselines.lsm import LSMTree
from repro.baselines.myrocks import MyRocksEngine

__all__ = [
    "LSMTree",
    "MyRocksEngine",
    "InnoDBEngine",
    "InnoDBStore",
]
