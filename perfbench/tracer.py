"""In-memory span tracer for the benchmark's traced runs.

A traced run wraps, for the length of a round, the functions each layer
calls into the next one, under the names the calling layer looks them up
by (a module global such as ``repro.deployment.aserver.encode_message``,
or a class attribute such as ``ViaPolicy.assign``).  Nothing under
``src/`` is changed; the wrappers are removed again after the round.

Every wrapped call is synchronous, so one stack of open spans is enough
to give each span its parent even with the asyncio server and client
sharing one event loop: no ``await`` can run between a span's start and
its end.  Spans are aggregated as they close (count, total and self time
per name) and the first ``KEEP_SPANS`` of them are also kept raw, so they
can be written out when the run ends.
"""

from __future__ import annotations

import importlib
import json
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator

#: Raw spans kept for ``write_spans``; the aggregates count every span.
KEEP_SPANS = 200_000


@dataclass(slots=True)
class _Open:
    span_id: int
    parent: "_Open | None"
    root_id: int
    name: str
    t0: float
    child_s: float = 0.0


@dataclass(slots=True)
class Agg:
    """Totals of every closed span of one (name, parent name)."""

    count: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    items: int = 0


class Tracer:
    """Spans, counts and sampled values, kept in memory."""

    def __init__(self) -> None:
        self.agg: dict[tuple[str, str | None], Agg] = {}
        self.counts: dict[str, float] = {}
        self.values: dict[str, list[float]] = {}
        self.spans: list[tuple[int, int | None, int, str, float, float]] = []
        self._stack: list[_Open] = []
        self._next_id = 1
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------

    def begin(self, name: str) -> _Open:
        parent = self._stack[-1] if self._stack else None
        span_id = self._next_id
        self._next_id += 1
        rec = _Open(
            span_id,
            parent,
            parent.root_id if parent is not None else span_id,
            name,
            perf_counter(),
        )
        self._stack.append(rec)
        return rec

    def end(self, rec: _Open, *, name: str | None = None, items: int = 1) -> None:
        t1 = perf_counter()
        self._stack.pop()
        if name is not None:
            rec.name = name
        duration = t1 - rec.t0
        parent = rec.parent
        if parent is not None:
            parent.child_s += duration
        key = (rec.name, parent.name if parent is not None else None)
        agg = self.agg.get(key)
        if agg is None:
            agg = self.agg[key] = Agg()
        agg.count += 1
        agg.total_s += duration
        agg.self_s += duration - rec.child_s
        agg.items += items
        if len(self.spans) < KEEP_SPANS:
            self.spans.append(
                (
                    rec.span_id,
                    parent.span_id if parent is not None else None,
                    rec.root_id,
                    rec.name,
                    rec.t0,
                    t1,
                )
            )

    @contextmanager
    def span(self, name: str, items: int = 1) -> Iterator[_Open]:
        rec = self.begin(name)
        try:
            yield rec
        finally:
            self.end(rec, items=items)

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def sample(self, name: str, value: float) -> None:
        self.values.setdefault(name, []).append(value)

    # -- queries -------------------------------------------------------

    def total(self, name: str, parent: Any = ...) -> Agg:
        """Aggregate of every span called ``name`` (under ``parent`` when
        one is given; ``None`` selects spans with no parent)."""
        out = Agg()
        for (span_name, parent_name), agg in self.agg.items():
            if span_name == name and (parent is ... or parent_name == parent):
                out.count += agg.count
                out.total_s += agg.total_s
                out.self_s += agg.self_s
                out.items += agg.items
        return out

    def mean(self, name: str) -> float:
        values = self.values.get(name)
        return sum(values) / len(values) if values else 0.0

    def write_spans(self, path: str | Path) -> None:
        """Raw spans as JSON lines: ids, parent, root (the span tree they
        belong to), name, start and duration in microseconds."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent_id, root_id, name, t0, t1 in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent_id,
                            "root": root_id,
                            "name": name,
                            "start_us": round(t0 * 1e6, 3),
                            "dur_us": round((t1 - t0) * 1e6, 3),
                        }
                    )
                    + "\n"
                )

    # -- wrapping the layers -------------------------------------------

    def _patch(self, owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            wrapped: Any = classmethod(make(raw.__func__))
        else:
            wrapped = make(raw)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def _spanned(self, name: str, items: Callable[..., int] | None = None):
        def make(fn: Callable) -> Callable:
            def wrapper(*args, **kwargs):
                rec = self.begin(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.end(rec, items=items(*args, **kwargs) if items else 1)

            return wrapper

        return make

    def _encode(self, fn: Callable) -> Callable:
        def wrapper(message, *args, **kwargs):
            rec = self.begin("protocol.encode")
            try:
                out = fn(message, *args, **kwargs)
            finally:
                self.end(rec, name=f"protocol.encode.{message.type}")
            self.count(f"protocol.bytes.{message.type}", len(out))
            return out

        return wrapper

    def _decode(self, fn: Callable) -> Callable:
        def wrapper(line, *args, **kwargs):
            rec = self.begin("protocol.decode")
            out = None
            try:
                out = fn(line, *args, **kwargs)
            finally:
                kind = getattr(out, "type", "error")
                self.end(rec, name=f"protocol.decode.{kind}")
            return out

        return wrapper

    def _queue_wait(self, fn: Callable) -> Callable:
        def wrapper(admission, seconds):
            self.sample("aserver.queue_wait_us", seconds * 1e6)
            return fn(admission, seconds)

        return wrapper

    def _frame(self, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.sample("store.frame_bytes", len(out))
            return out

        return wrapper

    def install(self) -> None:
        """Wrap every layer boundary the per-layer metrics are taken at."""
        from repro.core.policy import ViaPolicy
        from repro.core.predictor import Predictor
        from repro.core.tomography import TomographyModel
        from repro.deployment.admission import AdmissionController
        from repro.deployment.controller import ViaController
        from repro.netmodel.world import World
        from repro.store.wal import WriteAheadLog

        client = importlib.import_module("repro.deployment.client")
        aserver = importlib.import_module("repro.deployment.aserver")
        wal = importlib.import_module("repro.store.wal")
        if self._patches:
            raise RuntimeError("tracer already installed")
        for module in (client, aserver):
            self._patch(module, "encode_message", self._encode)
            self._patch(module, "decode_message", self._decode)
        self._patch(AdmissionController, "observe_queue_wait", self._queue_wait)
        self._patch(ViaPolicy, "assign", self._spanned("policy.assign"))
        self._patch(
            ViaPolicy,
            "assign_many",
            self._spanned("policy.assign", items=lambda _p, _calls, options, *a, **k: len(options)),
        )
        self._patch(ViaPolicy, "observe", self._spanned("policy.observe"))
        self._patch(Predictor, "predict_all", self._spanned("predictor.predict_all"))
        self._patch(TomographyModel, "fit", self._spanned("tomography.fit"))
        self._patch(WriteAheadLog, "append", self._spanned("store.append"))
        self._patch(wal, "fsync_file", self._spanned("store.fsync"))
        self._patch(wal, "fsync_dir", self._spanned("store.fsync"))
        self._patch(wal, "encode_frame", self._frame)
        # Recovery reads the log twice: the WAL's open-time scan and the
        # replay's read_wal; both read each segment through this name.
        self._patch(wal, "read_segment", self._spanned("store.read_segment"))
        self._patch(ViaController, "apply_record", self._spanned("controller.apply_record"))
        self._patch(World, "sample_call", self._spanned("netmodel.sample"))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


def maybe_span(tracer: Tracer | None, name: str, items: int = 1):
    """A span on ``tracer``, or nothing when the run is not traced."""
    return tracer.span(name, items) if tracer is not None else nullcontext()
