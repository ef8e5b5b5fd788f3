"""Benchmark-owned span recorder: host self time per layer, no edits
under ``src/``.

``install`` replaces each callable named in a wrapper table with a thin
shim that, while the recorder is enabled, records one span per call:
name, layer, start, end, parent and the op it belongs to.  A generator
function is wrapped per *resume segment*, so the time a process spends
parked on the engine heap is charged to nobody.  A span's self time is
its duration minus the part covered by its child spans.

Every span feeds a per-thread roll-up keyed ``(layer, name)``; only the
spans of the first ``keep_ops`` ops (at most ``max_spans``) are kept raw,
so a run of millions of spans stays in fixed memory while the roll-up
stays exact.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

Key = Tuple[str, str]  # (layer, span name)

#: Pseudo-layers that are not program layers: the benchmark's own code
#: (generator, verification) and a thread blocked waiting for a reply.
OTHER = "other"
IDLE = "idle"

_now = time.perf_counter_ns


class _ThreadState:
    """One thread's open-span bookkeeping, roll-up and raw span sample."""

    __slots__ = ("child_ns", "parent_id", "acc", "spans", "tid")

    def __init__(self, tid: int) -> None:
        #: Time covered so far by the children of the innermost open span.
        self.child_ns = 0
        #: Id of the innermost open span that is kept raw (0 = none).
        self.parent_id = 0
        #: key -> [self_ns, calls, bytes]
        self.acc: Dict[Key, List[int]] = {}
        self.spans: List[tuple] = []
        self.tid = tid


class SpanRecorder:
    def __init__(
        self,
        keep_ops: int = 48,
        max_spans: int = 20_000,
        clock: Optional[Callable[[], int]] = None,
    ) -> None:
        """``clock`` returns nanoseconds; the default is the wall clock.
        Where several threads or processes take turns on one op, pass
        ``time.thread_time_ns``: a wall-clock span would also count the
        time its thread sat descheduled while another did the work."""
        self.clock = clock or _now
        self.enabled = False
        self.keep_ops = keep_ops
        self.max_spans = max_spans
        #: Set by the harness before each op; raw spans carry it.
        self.op_id = -1
        self._tls = threading.local()
        self._states: List[_ThreadState] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)

    @property
    def op_id(self) -> int:
        return self._op_id

    @op_id.setter
    def op_id(self, value: int) -> None:
        self._op_id = value
        #: Spans of the current op are kept raw (checked once per span).
        self.sample = 0 <= value < self.keep_ops

    def state(self) -> _ThreadState:
        """The calling thread's state."""
        try:
            return self._tls.state
        except AttributeError:
            with self._lock:
                state = _ThreadState(len(self._states))
                self._states.append(state)
            self._tls.state = state
            return state

    # -- span begin/end ----------------------------------------------------
    #
    # No stack: a span saves its parent's ``child_ns`` on entry, collects
    # its own children's time there, and on exit hands the parent back its
    # value plus the span's whole duration.

    def enter(self, key: Key) -> tuple:
        """Open a span on the calling thread; returns its frame."""
        state = self.state()
        span_id = 0
        if self.sample and len(state.spans) < self.max_spans:
            span_id = next(self._ids)
        parent_child_ns, parent_id = state.child_ns, state.parent_id
        state.child_ns = 0
        if span_id:
            state.parent_id = span_id
        return state, key, parent_child_ns, parent_id, span_id, self.clock()

    def exit(self, frame: tuple, nbytes: int = 0) -> None:
        end = self.clock()
        state, key, parent_child_ns, parent_id, span_id, start = frame
        duration = end - start
        acc = state.acc.get(key)
        if acc is None:
            acc = state.acc[key] = [0, 0, 0]
        acc[0] += duration - state.child_ns
        acc[1] += 1
        acc[2] += nbytes
        state.child_ns = parent_child_ns + duration
        if span_id:
            state.parent_id = parent_id
            state.spans.append(
                (span_id, parent_id, key[1], key[0], start, end,
                 self._op_id, state.tid)
            )

    def count(self, key: Key) -> None:
        """One call of something too small to time."""
        acc = self.state().acc
        if key in acc:
            acc[key][1] += 1
        else:
            acc[key] = [0, 1, 0]

    def span(self, layer: str, name: str) -> "_SpanContext":
        """Context manager for spans the harness opens itself (the root
        span of each op)."""
        return _SpanContext(self, (layer, name))

    # -- results -----------------------------------------------------------

    def rollup(self) -> List[dict]:
        """``[{layer, name, self_ns, calls, bytes}]`` summed over threads,
        sorted by self time."""
        merged: Dict[Key, List[int]] = {}
        with self._lock:
            for state in self._states:
                for key, (self_ns, calls, nbytes) in state.acc.items():
                    acc = merged.setdefault(key, [0, 0, 0])
                    acc[0] += self_ns
                    acc[1] += calls
                    acc[2] += nbytes
        rows = [
            {"layer": layer, "name": name, "self_ns": self_ns,
             "calls": calls, "bytes": nbytes}
            for (layer, name), (self_ns, calls, nbytes) in merged.items()
        ]
        rows.sort(key=lambda row: (-row["self_ns"], row["name"]))
        return rows

    def raw_spans(self) -> List[dict]:
        with self._lock:
            spans = [s for state in self._states for s in state.spans]
        spans.sort(key=lambda s: s[4])
        fields = ("id", "parent", "name", "layer", "start_ns", "end_ns",
                  "op", "thread")
        return [dict(zip(fields, span)) for span in spans]


class _SpanContext:
    __slots__ = ("_rec", "_key", "_frame")

    def __init__(self, rec: SpanRecorder, key: Key) -> None:
        self._rec = rec
        self._key = key
        self._frame: Optional[tuple] = None

    def __enter__(self) -> None:
        if self._rec.enabled:
            self._frame = self._rec.enter(self._key)

    def __exit__(self, *_exc) -> None:
        if self._frame is not None:
            self._rec.exit(self._frame)
            self._frame = None


def layer_self_ns(rollup: Iterable[dict]) -> Dict[str, int]:
    """Self time summed per layer."""
    out: Dict[str, int] = {}
    for row in rollup:
        out[row["layer"]] = out.get(row["layer"], 0) + row["self_ns"]
    return out


# ---------------------------------------------------------------------------
# wrappers
# ---------------------------------------------------------------------------

#: ``sizer(args, result)`` gives the bytes one call moved.
Sizer = Callable[[tuple, object], int]
#: In a table row's sizer slot: count the calls, record no span.  For
#: callables so small and so frequent that a span would cost more than
#: the work it measures, of which only the number is wanted.
COUNT_ONLY = "count-only"


def wrap_function(
    rec: SpanRecorder, fn: Callable, key: Key,
    sizer: Union[Sizer, str, None] = None,
) -> Callable:
    """A shim around ``fn`` recording one span per call (or, for a
    generator function, one per resume segment)."""
    if sizer is COUNT_ONLY:
        def counter(*args, **kwargs):
            if rec.enabled:
                rec.count(key)
            return fn(*args, **kwargs)

        shim = counter
    elif inspect.isgeneratorfunction(fn):
        def gen_wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            if not rec.enabled:
                return gen
            return traced_generator(rec, gen, key)

        shim = gen_wrapper
    elif sizer is None:
        clock, get_state = rec.clock, rec.state

        def wrapper(*args, **kwargs):
            if not rec.enabled:
                return fn(*args, **kwargs)
            if rec.sample:
                frame = rec.enter(key)
                try:
                    return fn(*args, **kwargs)
                finally:
                    rec.exit(frame)
            # ``enter``/``exit`` without the raw-span part, inline: as
            # two method calls they cost a third of the span.
            state = get_state()
            parent_child_ns = state.child_ns
            state.child_ns = 0
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                acc = state.acc.get(key)
                if acc is None:
                    acc = state.acc[key] = [0, 0, 0]
                acc[0] += duration - state.child_ns
                acc[1] += 1
                state.child_ns = parent_child_ns + duration

        shim = wrapper
    else:
        def sized_wrapper(*args, **kwargs):
            if not rec.enabled:
                return fn(*args, **kwargs)
            frame = rec.enter(key)
            nbytes = 0
            try:
                result = fn(*args, **kwargs)
                nbytes = sizer(args, result)
                return result
            finally:
                rec.exit(frame, nbytes)

        shim = sized_wrapper
    shim.__name__ = getattr(fn, "__name__", "wrapped")
    shim.__qualname__ = getattr(fn, "__qualname__", shim.__name__)
    shim.__doc__ = fn.__doc__
    shim.__wrapped__ = fn
    shim.__bench_span__ = key
    return shim


def traced_generator(rec: SpanRecorder, gen, key: Key):
    """Drive ``gen``, recording one span per resume segment."""
    clock, get_state = rec.clock, rec.state
    value = None
    error: Optional[BaseException] = None
    while True:
        # ``enabled`` is checked per segment: a process that outlives a
        # traced batch must not keep recording into the untraced one.
        frame = state = None
        if rec.enabled:
            if rec.sample:
                frame = rec.enter(key)
            else:  # inline, as in ``wrap_function``
                state = get_state()
                parent_child_ns = state.child_ns
                state.child_ns = 0
                start = clock()
        try:
            if error is not None:
                command = gen.throw(error)
            else:
                command = gen.send(value)
        except StopIteration as stop:
            return stop.value
        finally:
            if state is not None:
                duration = clock() - start
                acc = state.acc.get(key)
                if acc is None:
                    acc = state.acc[key] = [0, 0, 0]
                acc[0] += duration - state.child_ns
                acc[1] += 1
                state.child_ns = parent_child_ns + duration
            elif frame is not None:
                rec.exit(frame)
        try:
            value = yield command
            error = None
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as exc:  # noqa: BLE001 - re-thrown into gen
            value = None
            error = exc


# ---------------------------------------------------------------------------
# installation
# ---------------------------------------------------------------------------

#: One wrapper-table row: layer, module, attribute (``func`` or
#: ``Class.method``), then None, a sizer for byte counts, or COUNT_ONLY.
Row = Tuple[str, str, str, Union[Sizer, str, None]]


def _owners(module, attribute: str):
    """``(owner, attr)`` pairs to patch for one row: the named class or
    module, plus every already-imported subclass that overrides the
    method (an override would otherwise escape the span)."""
    if "." not in attribute:
        yield module, attribute
        return
    cls_name, method = attribute.split(".", 1)
    cls = getattr(module, cls_name)
    seen = set()
    pending = [cls]
    while pending:
        owner = pending.pop()
        if owner in seen:
            continue
        seen.add(owner)
        if method in vars(owner):
            yield owner, method
        pending.extend(owner.__subclasses__())


def install(rec: SpanRecorder, table: Iterable[Row]) -> List[tuple]:
    """Patch every row of ``table``; returns the undo list for
    :func:`uninstall`.  A name that does not resolve raises: a stale
    table must fail loudly, not silently lose a layer."""
    table = list(table)
    # Import everything first so subclass overrides are discoverable.
    modules = {row[1]: importlib.import_module(row[1]) for row in table}
    undo: List[tuple] = []
    for layer, module_name, attribute, sizer in table:
        patched = False
        for owner, attr in _owners(modules[module_name], attribute):
            original = vars(owner)[attr]
            if getattr(original, "__bench_span__", None) is not None:
                patched = True  # aliased row already wrapped
                continue
            if isinstance(original, (staticmethod, classmethod)):
                raise TypeError(
                    f"{module_name}:{attribute} is a static/class method; "
                    "wrap the function it calls instead"
                )
            if not callable(original):
                raise TypeError(f"{module_name}:{attribute} is not callable")
            name = f"{owner.__name__}.{attr}" if "." in attribute else attr
            setattr(owner, attr,
                    wrap_function(rec, original, (layer, name), sizer))
            undo.append((owner, attr, original))
            patched = True
        if not patched:
            raise AttributeError(
                f"wrapper table row {module_name}:{attribute} matched nothing"
            )
    return undo


def uninstall(undo: List[tuple]) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
