"""Extensions only an ablation benchmark calls.

The paper's §6 names erasure coding, dedup, shared dictionaries and
estimation-gated selection as related directions, and §4.1.1 gives the
gen-1 host-FTL arithmetic; each is implemented here, beside the
``bench_ablation_*.py`` / ``bench_gen1_contention.py`` that measures it,
because nothing in ``repro`` calls them (``tests/test_reachability.py``).
Module names must not start with ``bench_`` or ``test_``: ``pytest.ini``
would collect them.
"""
