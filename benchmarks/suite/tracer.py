"""Span tracer that times repro's layers from outside the package.

The benchmark never edits ``src/``: :func:`instrument` rebinds the
public (and a few internal) callables of each layer to wrappers that
open a span, call through, and close it.  Module-level functions that
other modules imported by name (``time_kernel``, ``faulted_site_values``,
the ``struck_*`` reducers, ...) are rebound at every alias found in the
loaded ``repro.*`` modules; methods are rebound on the class that
defines them.  :meth:`Instrumentation.restore` puts every original back,
so an untraced run executes exactly the package's own code.

Recording model:

* spans nest on a per-thread stack, so the serving pool threads trace
  correctly; a span's *self* time is its duration minus its direct
  children's, so the self times of one tree sum to its root;
* spans record only while a sweep is open (:meth:`Tracer.sweep`), so
  setup, warm-up and oracles stay out of the per-layer numbers;
* aggregates (calls, self time, lock wait) and raw spans are kept per
  thread and merged once, when the run ends;
* ``SessionServer.handle`` is a coroutine that interleaves on the event
  loop thread, so it is recorded as a detached span (no stack), with its
  queue wait measured up to the pool thread picking the request up.

Forked shard workers inherit the wrappers but their spans stay in the
worker; the parent-side ``faults.sharded.wait`` span covers them.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

_now = time.perf_counter


class _ThreadState:
    """One thread's open-span stack, aggregates and raw spans."""

    __slots__ = ("stack", "stats", "counts", "spans", "root_s", "ident")

    def __init__(self) -> None:
        self.stack: list[list] = []
        # name -> [calls, self_s, wait_s]
        self.stats: dict[str, list] = {}
        self.counts: dict[str, float] = {}
        self.spans: list[tuple] = []
        self.root_s = 0.0
        self.ident = threading.get_ident()


class _Shared:
    """The tracer's cross-thread state, touched only under its lock."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._threads: list[_ThreadState] = []
        self._run_starts: dict[int, float] = {}
        self._detached: list[tuple] = []

    def register(self, state: _ThreadState) -> None:
        with self._lock:
            self._threads.append(state)

    def mark_run_start(self, key: int, when: float) -> None:
        with self._lock:
            self._run_starts[key] = when

    def detached(self, span: tuple, key: int | None) -> None:
        with self._lock:
            picked = self._run_starts.pop(key, None) if key is not None else None
            self._detached.append((*span, picked))

    def snapshot(self) -> tuple[list[_ThreadState], list[tuple]]:
        with self._lock:
            return list(self._threads), list(self._detached)


class Tracer:
    """In-memory span recorder shared by every wrapper of one run.

    ``max_spans`` caps the raw span list each thread keeps for
    :meth:`spans`; aggregates are always complete, and spans beyond the
    cap are counted as ``trace.dropped_spans``.
    """

    def __init__(self, max_spans: int = 200_000) -> None:
        self.max_spans = max_spans
        self._on = threading.Event()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._shared = _Shared()

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            self._shared.register(state)
        return state

    @property
    def recording(self) -> bool:
        return self._on.is_set()

    # -- spans -----------------------------------------------------------
    def enter(self, name: str) -> None:
        state = self._state()
        stack = state.stack
        span_id = next(self._ids)
        parent = stack[-1][4] if stack else 0
        root = stack[0][4] if stack else span_id
        # [name, start, child_s, wait_s, id, root_id, parent_id]
        stack.append([name, _now(), 0.0, 0.0, span_id, root, parent])

    def exit(self) -> None:
        end = _now()
        state = self._state()
        stack = state.stack
        name, start, child_s, wait_s, span_id, root_id, parent = stack.pop()
        duration = end - start
        if stack:
            stack[-1][2] += duration
        else:
            state.root_s += duration
        entry = state.stats.get(name)
        if entry is None:
            entry = state.stats[name] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += duration - child_s
        entry[2] += wait_s
        if len(state.spans) < self.max_spans:
            state.spans.append((name, start, end, span_id, parent, root_id, state.ident))
        else:
            state.counts["trace.dropped_spans"] = state.counts.get("trace.dropped_spans", 0) + 1

    def add_wait(self, seconds: float) -> None:
        """Charge blocking time to the innermost open span of this thread."""
        stack = self._state().stack
        if stack:
            stack[-1][3] += seconds

    def count(self, name: str, amount: float = 1) -> None:
        counts = self._state().counts
        counts[name] = counts.get(name, 0) + amount

    def calls_in_thread(self, name: str) -> int:
        entry = self._state().stats.get(name)
        return entry[0] if entry is not None else 0

    @contextmanager
    def sweep(self, name: str) -> Iterator[None]:
        """Open a root span and record everything inside it."""
        self._on.set()
        self.enter(name)
        try:
            yield
        finally:
            self.exit()
            self._on.clear()

    # -- request correlation (serving) ----------------------------------
    def mark_run_start(self, key: int) -> None:
        """Note when a pool thread starts the pass for request ``key``."""
        self._shared.mark_run_start(key, _now())

    def detached(self, name: str, start: float, end: float, key: int | None) -> None:
        """Record a span that does not nest on a thread stack."""
        self._shared.detached((name, start, end), key)

    # -- results ---------------------------------------------------------
    def summary(self) -> dict[str, Any]:
        """Merged aggregates: per-name stats, counters, detached spans."""
        threads, detached = self._shared.snapshot()
        stats: dict[str, list] = {}
        counts: dict[str, float] = {}
        root_s = 0.0
        for state in threads:
            root_s += state.root_s
            for name, (calls, self_s, wait_s) in state.stats.items():
                entry = stats.setdefault(name, [0, 0.0, 0.0])
                entry[0] += calls
                entry[1] += self_s
                entry[2] += wait_s
            for name, value in state.counts.items():
                counts[name] = counts.get(name, 0) + value
        return {"stats": stats, "counts": counts, "root_s": root_s, "detached": detached}

    def spans(self) -> list[dict]:
        """Raw spans of every thread, ordered by start time."""
        threads, detached = self._shared.snapshot()
        rows = [
            {
                "name": name,
                "start": start,
                "end": end,
                "id": span_id,
                "parent": parent or None,
                "request": root_id,
                "thread": ident,
            }
            for state in threads
            for name, start, end, span_id, parent, root_id, ident in state.spans
        ]
        rows += [
            {"name": name, "start": start, "end": end, "picked_up": picked}
            for name, start, end, picked in detached
        ]
        rows.sort(key=lambda row: row["start"])
        return rows


class _TimedLock:
    """Lock proxy that charges acquisition time to the open span."""

    def __init__(self, lock: Any, tracer: Tracer) -> None:
        self._inner = lock
        self._tracer = tracer

    def acquire(self, *args: Any, **kwargs: Any) -> bool:
        if not self._tracer.recording:
            return self._inner.acquire(*args, **kwargs)
        start = _now()
        got = self._inner.acquire(*args, **kwargs)
        self._tracer.add_wait(_now() - start)
        return got

    def release(self) -> None:
        self._inner.release()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc: Any) -> None:
        self._inner.release()


class Instrumentation:
    """The set of rebindings made for one tracer; undone by :meth:`restore`."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: list[tuple[Any, str, Any]] = []
        #: Traced names the loaded package no longer defines; their
        #: layer metrics read zero instead of the run failing.
        self.missing: list[str] = []

    # -- rebinding -------------------------------------------------------
    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def method(self, cls: type, attr: str, name: str, wrap: Callable | None = None) -> None:
        original = cls.__dict__.get(attr)
        if original is None:
            self.missing.append(f"{cls.__module__}.{cls.__qualname__}.{attr}")
            return
        if isinstance(original, classmethod):
            wrapped = classmethod((wrap or self._plain)(name, original.__func__))
        else:
            wrapped = (wrap or self._plain)(name, original)
        self._set(cls, attr, wrapped)

    def function(self, module: Any, attr: str, name: str, wrap: Callable | None = None) -> None:
        """Wrap a module-level function at every alias in ``repro.*``."""
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        wrapper = (wrap or self._plain)(name, original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for alias, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, alias, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- wrapper factories ---------------------------------------------
    def _plain(self, name: str, fn: Callable) -> Callable:
        tracer = self.tracer

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not tracer.recording:
                return fn(*args, **kwargs)
            tracer.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit()

        return wrapper

    def _inject_batch(self, name: str, fn: Callable) -> Callable:
        tracer = self.tracer

        @functools.wraps(fn)
        def wrapper(prepared: Any, specs_batch: Any, *args: Any, **kwargs: Any) -> Any:
            if not tracer.recording:
                return fn(prepared, specs_batch, *args, **kwargs)
            tracer.count("abft.inject_batch.trials", len(specs_batch))
            tracer.enter(name)
            try:
                return fn(prepared, specs_batch, *args, **kwargs)
            finally:
                tracer.exit()

        return wrapper

    def _cache_get(self, name: str, fn: Callable) -> Callable:
        tracer = self.tracer

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not tracer.recording:
                return fn(*args, **kwargs)
            before = tracer.calls_in_thread("abft.prepare")
            tracer.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit()
                if tracer.calls_in_thread("abft.prepare") == before:
                    tracer.count("abft.cache.hits")

        return wrapper

    def _cache_init(self, name: str, fn: Callable) -> Callable:
        tracer = self.tracer

        @functools.wraps(fn)
        def wrapper(cache: Any, *args: Any, **kwargs: Any) -> None:
            fn(cache, *args, **kwargs)
            cache._lock = _TimedLock(cache._lock, tracer)

        return wrapper

    def _recovery(self, name: str, fn: Callable) -> Callable:
        tracer = self.tracer

        @functools.wraps(fn)
        def wrapper(execute: Any, first: Any, faults: Any, policy: Any, **kwargs: Any) -> Any:
            if not tracer.recording or policy is None or not first.detected:
                return fn(execute, first, faults, policy, **kwargs)
            tracer.enter(name)
            try:
                attempt = fn(execute, first, faults, policy, **kwargs)
            finally:
                tracer.exit()
            tracer.count("faults.recovery.retries", attempt.retries)
            tracer.count("faults.recovery.recovered", int(attempt.recovered))
            return attempt

        return wrapper

    def _session_run(self, name: str, fn: Callable) -> Callable:
        tracer = self.tracer

        @functools.wraps(fn)
        def wrapper(session: Any, x: Any = None, **kwargs: Any) -> Any:
            if not tracer.recording:
                return fn(session, x, **kwargs)
            if x is not None:
                tracer.mark_run_start(id(x))
            tracer.enter(name)
            try:
                return fn(session, x, **kwargs)
            finally:
                tracer.exit()

        return wrapper

    def _handle(self, name: str, fn: Callable) -> Callable:
        tracer = self.tracer

        @functools.wraps(fn)
        async def wrapper(server: Any, x: Any = None, **kwargs: Any) -> Any:
            if not tracer.recording:
                return await fn(server, x, **kwargs)
            start = _now()
            try:
                return await fn(server, x, **kwargs)
            finally:
                tracer.detached(name, start, _now(), id(x) if x is not None else None)

        return wrapper


def instrument(tracer: Tracer) -> Instrumentation:
    """Wrap every traced call of the loaded ``repro`` package."""

    def mod(name: str) -> Any:
        # By full name: package namespaces re-export functions that
        # shadow their submodules (``repro.gemm.im2col`` is a function).
        return importlib.import_module(f"repro.{name}")

    inst = Instrumentation(tracer)
    fn, meth = inst.function, inst.method
    base, campaign = mod("abft.base"), mod("faults.campaign")
    executor, parallel = mod("gemm.executor"), mod("faults.parallel")
    FaultCampaign = campaign.FaultCampaign
    PropagationCampaign = mod("faults.propagation").PropagationCampaign

    # decision path: api -> nn -> core -> gpu
    fn(mod("api.session"), "deploy", "api.deploy")
    meth(mod("api.plan").DeploymentPlan, "from_selection", "api.plan")
    fn(mod("nn.models.registry"), "build_model", "nn.build_model")
    guided = mod("core.intensity_guided").IntensityGuidedABFT
    meth(guided, "select_for_model", "core.select_for_model")
    meth(mod("core.profiler").PredeploymentProfiler, "profile", "core.profile")
    fn(mod("gpu.timing"), "time_kernel", "gpu.time_kernel")

    # numeric engine: gemm -> abft
    meth(executor.TiledGemm, "multiply", "gemm.multiply")
    meth(executor.Int8TiledGemm, "multiply", "gemm.multiply")
    fn(mod("gemm.im2col"), "im2col", "gemm.im2col")
    meth(base.Scheme, "prepare", "abft.prepare")
    schemes = [base.Scheme]
    while schemes:
        cls = schemes.pop()
        schemes.extend(cls.__subclasses__())
        for attr in ("_prepare_state", "_prepare_weight_state"):
            if attr in cls.__dict__:
                meth(cls, attr, "abft.operand_reductions")
    meth(base.PreparedCache, "__init__", "abft.cache_init", inst._cache_init)
    meth(base.PreparedCache, "get", "abft.cache_get", inst._cache_get)
    meth(base.PreparedExecution, "inject_batch", "abft.inject_batch", inst._inject_batch)
    checksums = mod("abft.checksums")
    for attr in sorted(vars(checksums)):
        if "struck_" in attr and callable(getattr(checksums, attr)):
            fn(checksums, attr, "abft.struck_reductions")
    detection = mod("abft.detection")
    for attr in (
        "compare_checksums",
        "compare_checksums_batch",
        "compare_checksums_sparse",
        "prepare_clean_comparison",
    ):
        fn(detection, attr, "abft.verdict")

    # fault campaigns, propagation, recovery, sharding
    meth(FaultCampaign, "_draw_spec_arrays", "faults.draw")
    fn(campaign, "assemble_specs", "faults.assemble")
    fn(mod("faults.injector"), "faulted_site_values", "faults.sites")
    fn(mod("faults.injector"), "sites_from_flat_specs", "faults.sites")
    meth(FaultCampaign, "_classify_batch", "faults.classify")
    meth(FaultCampaign, "run_batch", "faults.run_batch")
    fn(parallel, "run_campaign_sharded", "faults.sharded")
    fn(parallel, "_gather_shards", "faults.sharded.wait")
    fn(parallel, "export_payload", "faults.export_payload")
    meth(PropagationCampaign, "run", "faults.propagation")
    meth(PropagationCampaign, "_replay", "faults.replay")
    fn(mod("faults.recovery"), "attempt_recovery", "faults.recovery", inst._recovery)

    # inference and serving
    meth(mod("nn.inference").ProtectedInference, "run", "nn.inference.run")
    meth(mod("api.session").ProtectedSession, "run", "api.session.run", inst._session_run)
    meth(mod("fleet.serving").SessionServer, "handle", "fleet.handle", inst._handle)
    return inst
