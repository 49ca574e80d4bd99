"""Layer tracer: spans around the calls *into* each ``repro.*`` package.

Installed from outside, before the system is built, as class-level
wrappers; nothing under ``src/repro`` knows it exists.  Two kinds:

* **boundary calls** (:data:`BOUNDARIES`) — the public functions one
  layer calls on another (``Network.send``, ``LockManager.acquire``,
  ``TraceLog.record`` ...).  The span belongs to the callee's layer.
* **dispatch points** (:data:`DISPATCHERS`) — places where the kernel or
  the network hands control to a stored callback (``Timer._fire``, a
  process resumption, ``Node`` handler dispatch, a future callback).
  The span belongs to the layer that *owns the callback*, resolved from
  its code object's file, so handlers and generator processes are
  attributed without being listed.

Every call is a span (name, layer, start, end, parent, request id where
the call carries one) kept in column arrays on one stack.  A layer's
self time is its spans' duration minus what their child spans cover.
The wrappers only call through, so a traced run takes the same
scheduling decisions as an untraced one; ``run.py`` checks that with the
``sim_digest``.  What tracing costs is reported as
``trace.overhead_ratio`` — wrapper time lands in the *caller's* self
time, so shares of layers that make many boundary calls read high.
"""

from __future__ import annotations

import importlib
import inspect
import time
from array import array
from typing import Any, Callable, Dict, List, Optional, Tuple

from workloads import LAYERS

__all__ = ["Tracer", "install"]


def layer_of_file(path: str) -> Optional[str]:
    """``.../repro/core/protocols/active.py`` -> ``core.protocols``."""
    _, found, tail = path.rpartition("/repro/")
    if not found:
        return None
    parts = tail.split("/")
    layer = ".".join(parts[:2]) if parts[:2] == ["core", "protocols"] else parts[0]
    return layer if layer in LAYERS else None


class Tracer:
    """Span store, per-name aggregates and the probes counts come from."""

    def __init__(self) -> None:
        self.clock = time.perf_counter
        self.names: List[Tuple[str, str]] = []          # name id -> (layer, name)
        self._name_ids: Dict[Tuple[str, str], int] = {}
        self._code_ids: Dict[Any, Optional[int]] = {}   # code object -> name id
        self.calls: List[int] = []
        self.total_s: List[float] = []
        self.self_s: List[float] = []
        self.requests: List[str] = []                   # request index -> id
        self._request_ids: Dict[str, int] = {}
        # One entry per span, appended at open; parents precede children.
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_request = array("i")
        self._open: List[int] = []
        self._covered: List[float] = []   # child time of each open span
        self.probes: Dict[str, float] = {
            "sim.peak_pending": 0,
            "db.lock_waits": 0,
            "db.lock_wait_sim": 0.0,
            "workload.arrival_lateness_sim": 0.0,
        }
        self._next_arrival_due: Optional[float] = None
        self._patched: List[Tuple[Any, str, Any]] = []

    # -- spans ------------------------------------------------------------

    def name_id(self, layer: str, name: str) -> int:
        key = (layer, name)
        nid = self._name_ids.get(key)
        if nid is None:
            nid = self._name_ids[key] = len(self.names)
            self.names.append(key)
            self.calls.append(0)
            self.total_s.append(0.0)
            self.self_s.append(0.0)
        return nid

    def request_index(self, request_id: Any) -> int:
        key = str(request_id)
        index = self._request_ids.get(key)
        if index is None:
            index = self._request_ids[key] = len(self.requests)
            self.requests.append(key)
        return index

    def begin(self, nid: int, request: int = -1) -> None:
        open_ = self._open
        self.span_name.append(nid)
        self.span_parent.append(open_[-1] if open_ else -1)
        self.span_request.append(request)
        self.span_end.append(0.0)
        open_.append(len(self.span_start))
        self._covered.append(0.0)
        self.span_start.append(self.clock())   # last: set-up stays outside

    def end(self) -> None:
        now = self.clock()                      # first: tear-down stays outside
        index = self._open.pop()
        covered = self._covered.pop()
        self.span_end[index] = now
        elapsed = now - self.span_start[index]
        nid = self.span_name[index]
        self.calls[nid] += 1
        self.total_s[nid] += elapsed
        self.self_s[nid] += elapsed - covered
        if self._covered:
            self._covered[-1] += elapsed

    def owner_id(self, target: Any) -> Optional[int]:
        """Name id for a stored callback, or None when it gets no span.

        ``target`` is a function, bound method, callable object or
        generator.  No span when its code lives outside the measured
        layers — which includes this file, so a callback that is already
        a boundary wrapper is not wrapped twice.
        """
        code = getattr(target, "gi_code", None) or getattr(target, "__code__", None)
        if code is None:
            code = getattr(getattr(type(target), "__call__", None), "__code__", None)
            if code is None:
                return None
        try:
            return self._code_ids[code]
        except KeyError:
            layer = layer_of_file(code.co_filename)
            nid = None
            if layer is not None:
                nid = self.name_id(layer, getattr(code, "co_qualname", code.co_name))
            self._code_ids[code] = nid
            return nid

    # -- wrapping -----------------------------------------------------------

    def wrap(
        self,
        func: Callable,
        nid: Optional[int] = None,
        pick: Optional[Callable[[tuple], Any]] = None,
        request_of: Optional[Callable[[tuple], Any]] = None,
        post: Optional[Callable[[tuple, Any], None]] = None,
    ) -> Callable:
        """``func`` inside a span: of name ``nid``, or of ``pick(args)``'s owner."""
        begin, end, owner_id, request_index = (
            self.begin, self.end, self.owner_id, self.request_index
        )

        def traced(*args: Any, **kwargs: Any) -> Any:
            span = nid if pick is None else owner_id(pick(args))
            if span is None:
                return func(*args, **kwargs)
            if request_of is None:
                begin(span)
            else:
                begin(span, request_index(request_of(args)))
            try:
                result = func(*args, **kwargs)
            finally:
                end()
            if post is not None:
                post(args, result)
            return result

        return traced

    def wrap_context(self, func: Callable, nid: int) -> Callable:
        """For a context-manager factory: spans around enter and exit."""
        tracer = self

        class Traced:
            __slots__ = ("inner",)

            def __init__(self, inner: Any) -> None:
                self.inner = inner

            def __enter__(self) -> Any:
                tracer.begin(nid)
                try:
                    return self.inner.__enter__()
                finally:
                    tracer.end()

            def __exit__(self, *exc: Any) -> Any:
                tracer.begin(nid)
                try:
                    return self.inner.__exit__(*exc)
                finally:
                    tracer.end()

        def traced(*args: Any, **kwargs: Any) -> Any:
            return Traced(func(*args, **kwargs))

        return traced

    def patch(self, owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attr`` by ``make(original)``; undone by :meth:`uninstall`."""
        original = inspect.getattr_static(owner, attr)
        if isinstance(original, staticmethod):
            replacement: Any = staticmethod(make(original.__func__))
        else:
            replacement = make(original)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- probes (counts the program keeps no counter for) --------------------

    def _note_pending(self, args: tuple, _result: Any) -> None:
        pending = args[0].pending_events
        if pending > self.probes["sim.peak_pending"]:
            self.probes["sim.peak_pending"] = pending

    def _note_lock_wait(self, args: tuple, future: Any) -> None:
        if future.done:
            return
        sim, probes = args[0].sim, self.probes
        asked_at = sim.now
        probes["db.lock_waits"] += 1

        def resolved(_future: Any) -> None:
            probes["db.lock_wait_sim"] += sim.now - asked_at

        future.add_callback(resolved)

    def _note_gap(self, args: tuple, gap: float) -> None:
        # _next_gap is drawn once by run() and then inside each _arrive,
        # which schedules the next arrival `gap` from now: so `now` is the
        # instant of the arrival that was due at the previous draw's time.
        now = args[0].system.sim.now
        due = self._next_arrival_due
        if due is not None and now - due > self.probes["workload.arrival_lateness_sim"]:
            self.probes["workload.arrival_lateness_sim"] = now - due
        self._next_arrival_due = now + gap

    # -- reporting ------------------------------------------------------------

    def layer_self(self) -> Dict[str, float]:
        totals = {layer: 0.0 for layer in LAYERS}
        for (layer, _name), seconds in zip(self.names, self.self_s):
            totals[layer] += seconds
        return totals

    def self_of(self, *names: str) -> float:
        return sum(
            seconds for (_layer, name), seconds in zip(self.names, self.self_s)
            if name in names
        )

    def calls_of(self, *names: str) -> int:
        return sum(
            count for (_layer, name), count in zip(self.names, self.calls)
            if name in names
        )

    def calls_in(self, layer: str, prefix: str = "", suffix: str = "") -> int:
        return sum(
            count for (lay, name), count in zip(self.names, self.calls)
            if lay == layer and name.startswith(prefix) and name.endswith(suffix)
        )

    def by_name(self, limit: int = 30) -> List[dict]:
        """Per-name aggregates: the ``limit`` names with the most self time."""
        rows = [
            {"layer": layer, "name": name, "calls": self.calls[i],
             "total_s": self.total_s[i], "self_s": self.self_s[i]}
            for i, (layer, name) in enumerate(self.names)
        ]
        return sorted(rows, key=lambda row: -row["self_s"])[:limit]

    def write_spans(self, path: str, origin: float) -> None:
        """One JSON object per span; times are seconds since ``origin``."""
        names, requests = self.names, self.requests
        with open(path, "w") as handle:
            write = handle.write
            for i in range(len(self.span_start)):
                layer, name = names[self.span_name[i]]
                request = self.span_request[i]
                request_text = "null" if request < 0 else f'"{requests[request]}"'
                write(
                    f'{{"id":{i},"name":"{name}","layer":"{layer}",'
                    f'"start":{self.span_start[i] - origin:.7f},'
                    f'"end":{self.span_end[i] - origin:.7f},'
                    f'"parent":{self.span_parent[i]},"request":{request_text}}}\n'
                )


# (module, class, attribute, options).  Options: ``request`` extracts a
# request id from the positional args, ``post`` names a Tracer probe,
# ``context`` marks a context-manager factory.
BOUNDARIES: Tuple[Tuple[str, str, str, dict], ...] = (
    # sim: the kernel's public surface as the other layers use it.
    ("repro.sim.core", "Simulator", "step", {}),
    ("repro.sim.core", "Simulator", "run", {}),
    ("repro.sim.core", "Simulator", "schedule_at", {"post": "_note_pending"}),
    ("repro.sim.core", "Simulator", "_timeout_future", {"post": "_note_pending"}),
    ("repro.sim.core", "Simulator", "spawn", {}),
    ("repro.sim.core", "Simulator", "any_of", {}),
    ("repro.sim.core", "Simulator", "all_of", {}),
    ("repro.sim.core", "Future", "_resolve", {}),
    ("repro.sim.core", "Timer", "cancel", {}),
    ("repro.sim.tracing", "TraceLog", "record", {}),
    # net
    ("repro.net.network", "Network", "send", {}),
    ("repro.net.network", "Network", "broadcast", {}),
    ("repro.net.network", "Network", "_deliver", {}),
    ("repro.net.node", "Node", "send", {}),
    ("repro.net.node", "Node", "call", {}),
    ("repro.net.node", "Node", "reply", {}),
    ("repro.net.node", "Node", "after", {}),
    ("repro.net.node", "Node", "spawn", {}),
    ("repro.net.node", "Node", "_dispatch", {}),
    # groupcomm
    ("repro.groupcomm.channels", "ReliableTransport", "send", {}),
    ("repro.groupcomm.channels", "ReliableTransport", "_transmit", {}),
    ("repro.groupcomm.rbcast", "ReliableBroadcast", "broadcast", {}),
    ("repro.groupcomm.abcast", "ConsensusAtomicBroadcast", "abcast", {}),
    ("repro.groupcomm.consensus", "Consensus", "propose", {}),
    ("repro.groupcomm.views", "ViewSyncGroup", "vscast", {}),
    # db
    ("repro.db.locks", "LockManager", "acquire", {"post": "_note_lock_wait"}),
    ("repro.db.locks", "LockManager", "release_all", {}),
    ("repro.db.transactions", "Transaction", "read", {}),
    ("repro.db.transactions", "Transaction", "write", {}),
    ("repro.db.transactions", "Transaction", "commit", {}),
    ("repro.db.transactions", "Transaction", "abort", {}),
    ("repro.db.transactions", "TransactionManager", "begin", {}),
    ("repro.db.transactions", "TransactionManager", "apply_updates", {}),
    ("repro.db.twophase", "TwoPhaseCoordinator", "run", {}),
    ("repro.db.log", "WriteAheadLog", "append", {}),
    ("repro.db.log", "WriteAheadLog", "tail", {}),
    ("repro.db.storage", "DataStore", "read", {}),
    ("repro.db.storage", "DataStore", "write", {}),
    ("repro.db.storage", "DataStore", "write_versioned", {}),
    # failures: Node.every hides these behind a closure in repro.net.
    ("repro.failures.detector", "FailureDetector", "_emit", {}),
    ("repro.failures.detector", "FailureDetector", "_check", {}),
    # core: client edge, wire format, phase records.
    ("repro.core.system", "ClientNode", "submit", {}),
    ("repro.core.operations", "Request", "as_wire",
     {"request": lambda args: args[0].request_id}),
    ("repro.core.operations", "Request", "from_wire",
     {"request": lambda args: args[0]["request_id"]}),
    ("repro.core.phases", "PhaseTracer", "record", {"request": lambda args: args[2]}),
    # workload
    ("repro.workload.generator", "WorkloadGenerator", "next_transaction", {}),
    ("repro.workload.openloop", "OpenLoopEngine", "_arrive", {}),
    ("repro.workload.openloop", "OpenLoopEngine", "_next_gap", {"post": "_note_gap"}),
    ("repro.workload.openloop", "OpenLoopEngine", "_on_done",
     {"request": lambda args: args[2].request_id}),
    # obs: the hook surface the other layers call, and the two bridges
    # the kernel drives (trace-log subscriber, tick sampler).
    ("repro.obs.observer", "Observer", "handler_context", {"context": True}),
    ("repro.obs.observer", "Observer", "request_context", {"context": True}),
    ("repro.obs.observer", "Observer", "_on_trace_event", {}),
    ("repro.obs.observer", "Observer", "_on_tick", {}),
    ("repro.obs.metrics", "MetricsRegistry", "sample", {}),
    ("repro.obs.metrics", "MetricsRegistry", "inc", {}),
    ("repro.obs.export", None, "write_artifacts", {}),
)


def _generator_of(args: tuple) -> Any:
    """The generator a process step resumes.

    Under observation ``Node.spawn`` drives it through
    ``_with_span_context``; the span belongs to the inner generator's
    layer, found in that frame's ``generator`` local.
    """
    generator = args[0]._generator
    if generator.gi_code.co_name == "_with_span_context" and generator.gi_frame:
        return generator.gi_frame.f_locals.get("generator", generator)
    return generator


def _handler_of(args: tuple) -> Any:
    node, message = args
    return node._handlers.get(message.type, node._default_handler)


DISPATCHERS: Tuple[Tuple[str, str, str, Callable[[tuple], Any]], ...] = (
    ("repro.sim.core", "Timer", "_fire", lambda args: args[0]._callback),
    ("repro.sim.core", "Process", "_step_send", _generator_of),
    ("repro.sim.core", "Process", "_step_throw", _generator_of),
    ("repro.net.node", "Node", "_guarded", lambda args: args[1]),
    ("repro.net.node", "Node", "_dispatch_inner", _handler_of),
)


def install() -> Tracer:
    """Patch every boundary and dispatch point; returns the live tracer."""
    tracer = Tracer()

    def boundary(owner: Any, label: str, attr: str, options: dict) -> None:
        # The owner's file, not the function's: a @contextmanager hook's
        # code object belongs to contextlib.
        nid = tracer.name_id(layer_of_file(inspect.getfile(owner)), label)
        if options.get("context"):
            tracer.patch(owner, attr, lambda f: tracer.wrap_context(f, nid))
            return
        post = options.get("post")
        tracer.patch(owner, attr, lambda f: tracer.wrap(
            f, nid, request_of=options.get("request"),
            post=getattr(tracer, post) if post else None,
        ))

    for module_name, class_name, attr, options in BOUNDARIES:
        module = importlib.import_module(module_name)
        if class_name is None:
            boundary(module, attr, attr, options)
        else:
            boundary(getattr(module, class_name), f"{class_name}.{attr}", attr, options)

    # Observer.on_*: every hook the instrumented layers call.
    observer_cls = importlib.import_module("repro.obs.observer").Observer
    for attr in sorted(vars(observer_cls)):
        if attr.startswith("on_"):
            boundary(observer_cls, f"Observer.{attr}", attr, {})

    # Each technique's entry points (which carry the request at a known
    # position) and the _on_* upcalls it registers with other layers.
    protocols = importlib.import_module("repro.core.protocols")
    base = importlib.import_module("repro.core.protocols.base").ReplicaProtocol
    request_position = {"handle_request": 1, "respond": 2}
    for cls in [base] + sorted(set(protocols.REGISTRY.values()), key=lambda c: c.__name__):
        for attr, func in sorted(vars(cls).items()):
            if not inspect.isfunction(func) or inspect.isgeneratorfunction(func):
                continue
            if attr in request_position:
                options = {"request": lambda args, at=request_position[attr]:
                           args[at].request_id}
            elif attr.startswith("_on_"):
                options = {}
            else:
                continue
            boundary(cls, f"{cls.__name__}.{attr}", attr, options)

    for module_name, class_name, attr, pick in DISPATCHERS:
        owner = getattr(importlib.import_module(module_name), class_name)
        tracer.patch(owner, attr, lambda f, pick=pick: tracer.wrap(f, pick=pick))

    # Future callbacks (closures, waiters, in-flight records) run in the
    # span of the layer that registered them.
    future_cls = importlib.import_module("repro.sim.core").Future

    def traced_add_callback(add_callback: Callable) -> Callable:
        def add(future: Any, callback: Callable) -> None:
            nid = tracer.owner_id(callback)
            add_callback(future, callback if nid is None else tracer.wrap(callback, nid))
        return add

    tracer.patch(future_cls, "add_callback", traced_add_callback)
    return tracer
