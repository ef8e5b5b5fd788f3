"""Layering guard: a volume's replica-set state and a node's redo-cache
accounting are private to the storage core.

Everything else — the group-commit pipeline, the compaction scheduler,
the cluster runtime, tiering, the chaos harness — goes through
public names (``store.group``, ``store.drop_page``, ``node.drop_page``),
so the replication model can change in one place.
"""

import pathlib
import re

import repro

PRIVATE_STATE = re.compile(
    r"(store|node)\._(alive|missed|leader_epoch|leader_index|net_blocked"
    r"|require_quorum|followers|commit_time|release_entry|redo_cache_bytes)"
)
OWNERS = {
    "storage/store.py",
    "storage/node.py",
    "storage/replication.py",
    "storage/recovery.py",
}


def test_private_replica_and_redo_state_stays_inside_the_storage_core():
    root = pathlib.Path(repro.__file__).parent
    offenders = []
    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(root).as_posix()
        if relative in OWNERS:
            continue
        for number, line in enumerate(path.read_text().splitlines(), 1):
            if PRIVATE_STATE.search(line):
                offenders.append(f"{relative}:{number}: {line.strip()}")
    assert not offenders, "\n".join(offenders)
