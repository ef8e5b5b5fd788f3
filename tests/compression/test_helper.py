"""The zstd helper process: same bytes as the inline evaluation, used only
where it can pay, failure kept local, and no helper outliving its owner.

Each test that needs a live helper starts its own (a fresh
``ZstdHelper`` swapped in for the process-wide one) and kills it after,
so the order of tests decides nothing.
"""

import os
import pathlib
import signal
import subprocess
import sys
import textwrap
import threading
import time

import pytest

from repro.api.config import NodeConfig
from repro.bench.figures import run_fig12
from repro.common.units import MiB
from repro.compression import lz77, memo
from repro.compression.helper import MARKER, ZstdHelper
from repro.compression.lz4 import LZ4Codec
from repro.compression.selector import AlgorithmSelector
from repro.compression.zstd import ZstdCodec
from repro.engine.parallel import run_programs
from repro.storage.store import PolarStore
from repro.workloads.datagen import dataset_pages
from tests.compression.test_golden_bytes import _inputs
from tests.perf.memo_swap import memo_capacity

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"
PAGES = [dataset_pages(name, 1, seed=3)[0] for name in ("fnb", "wiki")]

linux_only = pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or not os.path.isdir("/proc/self"),
    reason="CPU affinity and /proc are Linux's",
)
two_cpus = pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="the helper runs only where the process may use two CPUs",
)


def _started(timeout_s=20.0):
    """A helper of its own, serving: it starts at the first page offered
    and takes pages once it reports ready."""
    own = ZstdHelper()
    digest = bytes(16)
    deadline = time.monotonic() + timeout_s
    while not own.begin(digest, PAGES[0]):
        assert time.monotonic() < deadline, "helper never became ready"
        assert not own._retired
        time.sleep(0.01)
    assert own.finish(digest) is not None
    return own


@pytest.fixture(scope="module")
def shared_helper():
    own = _started()
    yield own
    own.close()


@pytest.fixture
def helper(monkeypatch, shared_helper):
    """A live helper serving this process's evaluations."""
    monkeypatch.setattr(memo, "_HELPER", shared_helper)
    return shared_helper


@pytest.fixture
def inline(monkeypatch):
    """A helper that never serves: every evaluation runs inline."""
    retired = ZstdHelper()
    retired.close()
    monkeypatch.setattr(memo, "_HELPER", retired)


def _evaluate_corpus():
    """Per corpus case: both sizes, both payloads and the decision (made
    from the sizes the evaluation recorded)."""
    out = {}
    for case, data in _inputs().items():
        with memo_capacity(64 * MiB):
            lz4, zstd = memo.plan_both(data)
            sized = lz4.size, lz4.pack(), zstd.size, zstd.pack()
            decision = AlgorithmSelector().select(data)
        out[case] = sized + (
            decision.codec, decision.benefit_bytes, decision.overhead_us,
        )
    return out


@two_cpus
def test_the_helper_and_the_inline_path_agree_on_the_golden_corpus(
    helper, monkeypatch
):
    served = []
    finish = helper.finish

    def counted(digest):
        size = finish(digest)
        served.append(size is not None)
        return size

    monkeypatch.setattr(helper, "finish", counted)
    by_helper = _evaluate_corpus()
    assert served and all(served)  # every zstd sizing ran in the helper
    monkeypatch.setattr(memo, "_HELPER", ZstdHelper())
    memo._HELPER.close()
    assert _evaluate_corpus() == by_helper


@two_cpus
def test_threads_sharing_the_helper_each_get_their_own_pages(helper):
    """Threads race for the one pipe; a thread that finds it held sizes
    inline.  Every thread must get its own pages' sizes and payloads,
    and no race may garble the pipe (that would retire the helper)."""
    pages = [bytes(bytearray(p)) for p in dataset_pages("wiki", 4, seed=5)]
    lz4, zstd = LZ4Codec(), ZstdCodec()
    expected = [(lz4.compress(p), zstd.compress(p)) for p in pages]
    wrong = []

    def worker(offset):
        for step in range(3):
            which = (offset + step) % len(pages)
            plans = memo.plan_both(pages[which])
            got = tuple(plan.pack() for plan in plans)
            if got != expected[which] or [len(x) for x in got] != [
                plan.size for plan in plans
            ]:
                wrong.append((offset, step))

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with memo_capacity(0):
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
    assert not helper._retired


@pytest.mark.parametrize("mode", ["helper", "inline"])
def test_nothing_of_the_page_stays_in_lz77_after_a_selection(
    mode, request
):
    if mode == "helper" and (
        not hasattr(os, "sched_getaffinity")
        or len(os.sched_getaffinity(0)) < 2
    ):
        pytest.skip("the helper runs only where the process may use two CPUs")
    request.getfixturevalue(mode)
    page = bytes(bytearray(PAGES[1]))
    with memo_capacity(0):
        AlgorithmSelector().select(page).output.pack()
    assert lz77._last_index[0] is not page
    assert lz77._last_index is lz77._EMPTY


@two_cpus
def test_a_helper_killed_between_pages_leaves_the_next_write_inline(
    monkeypatch,
):
    helper = _started()
    monkeypatch.setattr(memo, "_HELPER", helper)
    os.kill(helper._proc.pid, signal.SIGKILL)
    helper._proc.wait()
    store = PolarStore(NodeConfig(), volume_bytes=32 * MiB, seed=1)
    with memo_capacity(0):
        now = store.write_page(0.0, 7, PAGES[1]).commit_us
        assert store.read_page(now, 7).data == PAGES[1]
    assert helper._retired and helper._proc is None


def _run(script, *args):
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script), *args],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=60,
    )


@linux_only
def test_a_process_pinned_to_one_cpu_starts_no_helper():
    done = _run("""
        import os
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        from repro.compression import memo
        from repro.compression.selector import AlgorithmSelector
        from repro.workloads.datagen import dataset_pages
        selector = AlgorithmSelector()
        for page in dataset_pages("fnb", 4, seed=3):
            selector.select(page)
        print(memo._HELPER._proc is None)
    """)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["True"]


@two_cpus
def test_a_run_programs_worker_starts_no_helper(tmp_path):
    def program():
        decision = AlgorithmSelector().select(bytes(bytearray(PAGES[0])))
        return decision.codec, memo._HELPER._owner == os.getpid()

    assert run_programs([program, program], workers=2) == [
        (AlgorithmSelector().select(PAGES[0]).codec, False)
    ] * 2
    for workers in (1, 2):
        run_fig12(out_dir=str(tmp_path / f"w{workers}"), quick=True,
                  workers=workers)
    assert (tmp_path / "w1" / "fig12_quick.json").read_bytes() == (
        tmp_path / "w2" / "fig12_quick.json"
    ).read_bytes()


def _gone(pid):
    """The process has exited (a zombie counts: it runs no more)."""
    try:
        stat = pathlib.Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] in ("Z", "X")


_OWNER = """
    import sys, time
    from repro.compression import memo
    memo._cache = memo.CodecMemoCache(0)
    from repro.compression.selector import AlgorithmSelector
    from repro.workloads.datagen import dataset_pages
    page = dataset_pages("fnb", 1, seed=3)[0]
    while not memo._HELPER._ready:
        memo.plan_both(bytes(bytearray(page)))
        time.sleep(0.01)
    print(memo._HELPER._proc.pid, flush=True)
    if sys.argv[1] == "hang":
        time.sleep(60)
"""


@two_cpus
@linux_only
def test_no_helper_outlives_its_owner():
    # A normal exit reaps it.
    done = _run(_OWNER, "exit")
    assert done.returncode == 0, done.stderr
    assert _gone(int(done.stdout))
    # A SIGKILLed owner leaves it EOF on its stdin.
    owner = subprocess.Popen(
        [sys.executable, "-c", textwrap.dedent(_OWNER), "hang"],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        stdout=subprocess.PIPE, text=True,
    )
    try:
        pid = int(owner.stdout.readline())
        cmdline = pathlib.Path(f"/proc/{pid}/cmdline").read_bytes()
        assert MARKER.encode() in cmdline.split(b"\0")
    finally:
        owner.kill()
        owner.wait()
        owner.stdout.close()
    deadline = time.monotonic() + 5.0
    while not _gone(pid):
        assert time.monotonic() < deadline, "helper outlived a killed owner"
        time.sleep(0.02)
