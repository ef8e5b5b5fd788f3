"""Fault injection, detection, and chaos testing (repro.chaos).

The paper's reliability claims (§4.1) rest on the storage software
surviving real device misbehaviour: latency spikes, torn or dropped
writes, bit rot, misdirected I/O, and whole-replica loss.  This package
injects those faults *underneath* the storage stack — at the simulated
block-device layer — and provides a harness that runs a workload on top
while asserting end-to-end invariants (every committed write stays
readable byte-exact, corruption is detected and repaired, recovery
converges).
"""
