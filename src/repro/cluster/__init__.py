"""Cluster-level space management (§4.2).

Models a fleet of storage servers holding chunks with heterogeneous
compression ratios, the logical-usage-only scheduler the paper started
with, and the compression-aware zone scheduler (Figure 9b) that fixed the
logical/physical imbalance of Figures 10–11.  Also carries the Table 2
cost model.
"""
