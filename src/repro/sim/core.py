"""Deterministic discrete-event simulation kernel.

The kernel provides three building blocks used by every other subsystem:

* :class:`Simulator` — the event loop.  Holds a priority queue of timed
  callbacks, the simulated clock, and a seeded random generator so that
  every run is exactly reproducible.
* :class:`Future` — a one-shot container for a value produced later in
  simulated time.  Processes wait on futures; network deliveries, protocol
  acknowledgements and timers all resolve them.
* :class:`Process` — a cooperatively scheduled activity written as a Python
  generator.  A process ``yield``\\ s *waitables* (futures, timeouts, other
  processes) and is resumed by the kernel when the waitable completes.

The design deliberately avoids threads: the paper's protocols are expressed
as message-driven state machines, and a single-threaded simulator keeps
them deterministic and debuggable while still modelling true concurrency in
simulated time.

The event loop is a hot path — the performance study pushes millions of
events through it — so the kernel trades a little bookkeeping for
throughput (see docs/internals.md, "Kernel performance"):

* Cancelled timers stay in the heap (lazy deletion) but are counted; when
  more than half the queue is dead it is compacted in one pass.  Ordering
  is untouched: entries sort by the unique ``(time, sequence)`` pair, so a
  rebuilt heap pops in exactly the same order.
* ``yield sim.timeout(...)`` uses a slot-based heap entry that resolves
  the future directly instead of allocating a :class:`Timer`, a bound
  method and an args tuple per wait.
* The ``any_of``/``all_of`` combinators use slotted callback objects
  instead of per-waitable closures.

Example
-------
>>> sim = Simulator(seed=1)
>>> def ping(sim):
...     yield sim.timeout(5.0)
...     return "pong at %.1f" % sim.now
>>> proc = sim.spawn(ping(sim))
>>> sim.run()
>>> proc.result
'pong at 5.0'
"""

from __future__ import annotations

import heapq
import random
import zlib
from types import GeneratorType
from typing import Any, Callable, Dict, Generator, Iterable, List, Optional

from ..errors import Cancelled, ProcessInterrupted, SimulationError

_INFINITY = float("inf")

__all__ = [
    "Simulator",
    "Future",
    "Timeout",
    "Process",
    "Timer",
]


class Timer:
    """Handle for a scheduled callback; supports cancellation.

    Returned by :meth:`Simulator.schedule`.  Cancelling an already-fired or
    already-cancelled timer is a harmless no-op, which keeps timeout
    bookkeeping in protocols simple.  Cancellation is lazy: the heap entry
    stays queued but is counted by the simulator, which compacts the queue
    once dead entries outnumber live ones.  ``cancelled`` is a plain slot,
    true once the timer has fired or been cancelled: the event loop reads
    it once per event and fires only a timer that reads false.
    """

    __slots__ = ("time", "_callback", "_args", "cancelled", "_sim")

    def __init__(
        self,
        time: float,
        callback: Callable[..., None],
        args: tuple,
        sim: Optional["Simulator"] = None,
    ) -> None:
        self.time = time
        self._callback = callback
        self._args = args
        self.cancelled = False
        # Back-reference for dead-entry accounting; cleared on fire/cancel
        # so a queued timer is exactly one with a live back-reference.
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the callback from running (idempotent)."""
        if not self.cancelled:
            self.cancelled = True
            sim, self._sim = self._sim, None
            if sim is not None:
                sim._note_dead()

    def _fire(self) -> None:
        # Called by the event loop only, which skips a cancelled timer.
        self.cancelled = True  # a timer fires at most once
        self._sim = None
        self._callback(*self._args)


class Future:
    """A value that becomes available at a later simulated time.

    Futures may be awaited by processes (``value = yield future``) or
    observed through callbacks.  A future resolves exactly once, either with
    a result or with an exception; waiting on a failed future re-raises the
    exception inside the waiting process.
    """

    __slots__ = ("sim", "_settled", "_result", "_exception", "_callbacks", "label")

    def __init__(self, sim: "Simulator", label: str = "") -> None:
        self.sim = sim
        self.label = label
        self._settled = False
        self._result: Any = None
        self._exception: Optional[BaseException] = None
        self._callbacks: List[Callable[["Future"], None]] = []

    # -- inspection ------------------------------------------------------

    @property
    def done(self) -> bool:
        return self._settled

    @property
    def result(self) -> Any:
        """The resolved value.  Raises if pending or failed."""
        if not self._settled:
            raise SimulationError(f"future {self.label!r} is not resolved yet")
        if self._exception is not None:
            raise self._exception
        return self._result

    @property
    def exception(self) -> Optional[BaseException]:
        if not self._settled:
            raise SimulationError(f"future {self.label!r} is not resolved yet")
        return self._exception

    @property
    def failed(self) -> bool:
        return self._settled and self._exception is not None

    # -- resolution ------------------------------------------------------

    def set_result(self, value: Any = None) -> None:
        """Resolve the future successfully with ``value``."""
        self._resolve(value, None)

    def set_exception(self, exc: BaseException) -> None:
        """Resolve the future with a failure."""
        self._resolve(None, exc)

    def try_set_result(self, value: Any = None) -> bool:
        """Resolve if still pending; return whether this call resolved it.

        Useful when several events race to complete the same future, e.g.
        the first reply from a set of replicas.
        """
        if self._settled:
            return False
        self.set_result(value)
        return True

    def cancel(self, reason: object = None) -> bool:
        """Abandon the future: resolve it with :class:`~repro.errors.Cancelled`.

        Returns whether this call cancelled it (``False`` if already done).
        Cancellation runs the future's callbacks like any other resolution,
        so cleanup hooks registered by the producer — e.g. the timeout-guard
        teardown :meth:`repro.net.Node.call` attaches to its reply future —
        fire immediately instead of leaking until their backstop timer.
        """
        if self._settled:
            return False
        self.set_exception(Cancelled(reason if reason is not None else self.label))
        return True

    def _resolve(self, value: Any, exc: Optional[BaseException]) -> None:
        if self._settled:
            raise SimulationError(f"future {self.label!r} resolved twice")
        self._settled = True
        self._result = value
        self._exception = exc
        callbacks = self._callbacks
        if callbacks:
            self._callbacks = []
            for callback in callbacks:
                callback(self)

    # -- observation -----------------------------------------------------

    def add_callback(self, callback: Callable[["Future"], None]) -> None:
        """Invoke ``callback(self)`` when resolved (immediately if done)."""
        if self._settled:
            callback(self)
        else:
            self._callbacks.append(callback)

    def __repr__(self) -> str:
        state = "pending"
        if self._settled:
            state = "failed" if self._exception is not None else "done"
        return f"<Future {self.label!r} {state}>"


class Timeout:
    """Waitable that fires after a fixed delay of simulated time.

    Yielded by processes: ``yield Timeout(3.0)`` or, more conveniently,
    ``yield sim.timeout(3.0)``.  Resumes the process with ``value``.
    """

    __slots__ = ("delay", "value")

    def __init__(self, delay: float, value: Any = None) -> None:
        # `not (delay >= 0)` also catches NaN, which passes a `delay < 0`
        # check and then corrupts the heap ordering invariant.
        if not (delay >= 0):
            raise SimulationError(
                f"invalid timeout delay {delay!r}: must be >= 0 and not NaN"
            )
        self.delay = delay
        self.value = value

    def __repr__(self) -> str:
        return f"Timeout({self.delay!r})"


class _TimeoutSlot:
    """Heap entry that resolves a future directly when it fires.

    The fast path for one-shot timeout futures (``yield sim.timeout(...)``
    and the combinators' timeout branches): one slotted object instead of
    a :class:`Timer` plus a bound method plus an args tuple.  Quacks like
    an uncancellable timer to the event loop.
    """

    __slots__ = ("future", "value")

    cancelled = False  # timeout futures are never cancelled, only resolved

    def __init__(self, future: Future, value: Any) -> None:
        self.future = future
        self.value = value

    def _fire(self) -> None:
        future = self.future
        if not future._settled:
            future._resolve(self.value, None)


class Process(Future):
    """A generator-based simulated activity.

    A process is also a :class:`Future`: it resolves with the generator's
    return value, so processes can be joined by yielding them from other
    processes.  Processes can be interrupted, which raises
    :class:`~repro.errors.ProcessInterrupted` at their current yield point;
    this is how node crashes tear down in-flight protocol handlers.
    """

    __slots__ = ("name", "_generator", "_waiting_on", "_interrupt_pending")

    def __init__(self, sim: "Simulator", generator: Generator, name: str = "") -> None:
        # Anonymous processes get a name from the simulator's monotonic
        # counter: id(generator) would differ between two runs of the same
        # seed and leak into traces and diagnostics.
        self.name = name or f"proc-{sim._next_anonymous_id()}"
        super().__init__(sim, label=self.name)
        self._generator = generator
        self._waiting_on: Optional[Future] = None
        self._interrupt_pending: Optional[BaseException] = None

    # -- lifecycle -------------------------------------------------------

    @property
    def alive(self) -> bool:
        return not self.done

    def interrupt(self, cause: object = None) -> None:
        """Throw :class:`ProcessInterrupted` into the process.

        The interrupt is delivered at the process's current (or next) yield
        point.  Interrupting a finished process is a no-op.
        """
        if self.done:
            return
        exc = cause if isinstance(cause, BaseException) else ProcessInterrupted(cause)
        if self._waiting_on is not None:
            self._waiting_on = None
            self.sim._schedule_now(self._step_throw, exc)
        else:
            # Not yet started or currently being stepped: deliver at the
            # next resumption.
            self._interrupt_pending = exc

    def cancel(self, reason: object = None) -> bool:
        """Cancel the process by interrupting it with :class:`Cancelled`.

        Overrides :meth:`Future.cancel`: resolving a process future from
        outside while its generator keeps running would make the generator's
        own return hit "resolved twice", so cancellation is delivered as an
        interrupt at the current yield point instead.
        """
        if self.done:
            return False
        self.interrupt(Cancelled(reason if reason is not None else self.name))
        return True

    # -- kernel internals --------------------------------------------------

    def _start(self) -> None:
        self._step_send(None)

    def _step_send(self, value: Any) -> None:
        if self.done:
            return
        if self._interrupt_pending is not None:
            exc, self._interrupt_pending = self._interrupt_pending, None
            self._step_throw(exc)
            return
        try:
            yielded = self._generator.send(value)
        except StopIteration as stop:
            self.set_result(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - propagate into future
            self.set_exception(exc)
            return
        self._wait_on(yielded)

    def _step_throw(self, exc: BaseException) -> None:
        if self.done:
            return
        try:
            yielded = self._generator.throw(exc)
        except StopIteration as stop:
            self.set_result(stop.value)
            return
        except BaseException as raised:  # noqa: BLE001
            self.set_exception(raised)
            return
        self._wait_on(yielded)

    def _wait_on(self, yielded: Any) -> None:
        if isinstance(yielded, Timeout):
            future = self.sim._timeout_future(yielded.delay, yielded.value)
        elif isinstance(yielded, Future):
            future = yielded
        else:
            self._step_throw(
                SimulationError(
                    f"process {self.name!r} yielded {yielded!r}; expected a "
                    "Future, Process or Timeout"
                )
            )
            return
        self._waiting_on = future
        future.add_callback(self._on_waited)

    def _on_waited(self, future: Future) -> None:
        if self._waiting_on is not future:
            return  # interrupted while waiting; resumption already queued
        self._waiting_on = None
        if future._exception is not None:
            self._step_throw(future._exception)
        else:
            self._step_send(future._result)

    def __repr__(self) -> str:
        state = "alive" if self.alive else ("failed" if self.failed else "done")
        return f"<Process {self.name!r} {state}>"


class _AnyOfWaiter:
    """Per-branch ``any_of`` callback.

    A slotted object instead of a closure capturing ``(combined, index)``:
    cheaper to allocate and free of cell indirection on the resolve path.
    """

    __slots__ = ("combined", "index")

    def __init__(self, combined: Future, index: int) -> None:
        self.combined = combined
        self.index = index

    def __call__(self, future: Future) -> None:
        combined = self.combined
        if combined._settled:
            return
        if future._exception is not None:
            combined.set_exception(future._exception)
        else:
            combined.set_result((self.index, future._result))


class _AllOfState:
    """Shared join state for ``all_of``: result slots + outstanding count."""

    __slots__ = ("combined", "results", "remaining")

    def __init__(self, combined: Future, count: int) -> None:
        self.combined = combined
        self.results: List[Any] = [None] * count
        self.remaining = count


class _AllOfWaiter:
    """Per-branch ``all_of`` callback over the shared join state."""

    __slots__ = ("state", "index")

    def __init__(self, state: _AllOfState, index: int) -> None:
        self.state = state
        self.index = index

    def __call__(self, future: Future) -> None:
        state = self.state
        combined = state.combined
        if combined._settled:
            return
        if future._exception is not None:
            combined.set_exception(future._exception)
            return
        state.results[self.index] = future._result
        state.remaining -= 1
        if state.remaining == 0:
            combined.set_result(state.results)


class Simulator:
    """Single-threaded deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Seed (an int) for the simulator-owned :class:`random.Random`.  All random
        choices in the library (latencies, workload generation, protocol
        tie-breaking) draw from ``sim.rng`` or generators derived from it,
        so identical seeds yield identical executions.
    """

    # Compaction kicks in only past this queue size: tiny queues are
    # cheaper to drain through the normal pop-and-skip path.
    _COMPACT_MIN_DEAD = 32

    def __init__(self, seed: int = 0) -> None:
        if not isinstance(seed, int):
            raise TypeError(f"seed must be an int, got {seed!r}")
        self._now = 0.0
        self._queue: List[tuple] = []
        self._sequence = 0
        self._anonymous = 0
        self._stopped = False
        self._dead = 0  # cancelled timers still sitting in the heap
        self.events_processed = 0
        self.rng = random.Random(seed)
        self.seed = seed
        self._streams: Dict[str, random.Random] = {}
        self._tick_width = 0.0
        self._tick_next = _INFINITY
        self._tick_callback: Optional[Callable[[float], None]] = None

    def stream(self, name: str) -> random.Random:
        """A named random stream derived from the simulator seed.

        Each name gets its own :class:`random.Random` seeded from
        ``(seed, crc32(name))``, created on first use and cached.  Streams
        are independent of ``sim.rng`` and of each other, so a subsystem
        drawing from its own stream (fault injection, client backoff
        jitter) never perturbs workload randomness under the same seed —
        adding a chaos campaign leaves the base run byte-identical.
        """
        stream = self._streams.get(name)
        if stream is None:
            derived = self.seed * 1_000_003 + zlib.crc32(name.encode("utf-8"))
            stream = random.Random(derived)
            self._streams[name] = stream
        return stream

    def _next_anonymous_id(self) -> int:
        """Deterministic id for unnamed processes (never reset)."""
        self._anonymous += 1
        return self._anonymous

    # -- clock -------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    # -- scheduling ----------------------------------------------------------

    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> Timer:
        """Run ``callback(*args)`` after ``delay`` units of simulated time."""
        if not (delay >= 0):
            raise SimulationError(
                f"cannot schedule in the past or at NaN (delay={delay!r})"
            )
        return self.schedule_at(self._now + delay, callback, *args)

    def schedule_at(self, time: float, callback: Callable[..., None], *args: Any) -> Timer:
        """Run ``callback(*args)`` at absolute simulated time ``time``."""
        if not (time >= self._now):
            raise SimulationError(
                f"cannot schedule at {time!r}: before current time "
                f"{self._now} or NaN"
            )
        timer = Timer(time, callback, args, self)
        self._sequence += 1
        heapq.heappush(self._queue, (time, self._sequence, timer))
        return timer

    def call_soon(self, callback: Callable[..., None], *args: Any) -> Timer:
        """Run ``callback(*args)`` at the current time, after pending events."""
        return self.schedule_at(self._now, callback, *args)

    # Kept as an internal alias; kernel code predates the public name.
    _schedule_now = call_soon

    # -- heap hygiene --------------------------------------------------------

    def _note_dead(self) -> None:
        """Account one newly cancelled queued timer; compact if mostly dead."""
        self._dead += 1
        if self._dead > self._COMPACT_MIN_DEAD and self._dead * 2 > len(self._queue):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries from the heap in one pass.

        Rebuilding never changes pop order: entries compare by the unique
        ``(time, sequence)`` prefix, a total order independent of the
        heap's internal layout.  In-place so cached references in the run
        loop stay valid.
        """
        queue = self._queue
        queue[:] = [entry for entry in queue if not entry[2].cancelled]
        heapq.heapify(queue)
        self._dead = 0

    # -- processes and waitables ---------------------------------------------

    def spawn(self, generator: Generator, name: str = "") -> Process:
        """Start a new process from ``generator`` and return its handle."""
        if type(generator) is not GeneratorType and not isinstance(generator, Generator):
            raise SimulationError(
                f"spawn expects a generator, got {type(generator).__name__}; "
                "did you forget to call the process function?"
            )
        process = Process(self, generator, name=name)
        self._schedule_now(process._start)
        return process

    def future(self, label: str = "") -> Future:
        """Create a fresh unresolved future."""
        return Future(self, label=label)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Waitable firing after ``delay``; sugar for ``Timeout(delay)``."""
        return Timeout(delay, value)

    def _timeout_future(self, delay: float, value: Any = None) -> Future:
        """One-shot timeout future on the slot fast path (no Timer)."""
        if not (delay >= 0):
            raise SimulationError(
                f"invalid timeout delay {delay!r}: must be >= 0 and not NaN"
            )
        future = Future(self, label="timeout")
        self._sequence += 1
        heapq.heappush(
            self._queue,
            (self._now + delay, self._sequence, _TimeoutSlot(future, value)),
        )
        return future

    def any_of(self, waitables: Iterable[Any], label: str = "any_of") -> Future:
        """Future resolving with ``(index, value)`` of the first completion.

        Failures propagate: if the first waitable to finish failed, the
        combined future fails with the same exception.  Late completions of
        the other waitables are ignored.  An empty waitable list is
        rejected with :class:`SimulationError` — a race between zero
        waitables would never resolve, hanging its waiter forever.
        """
        futures = self._as_futures(waitables)
        if not futures:
            raise SimulationError(f"{label}: any_of() of no waitables never resolves")
        combined = Future(self, label=label)
        for index, future in enumerate(futures):
            future.add_callback(_AnyOfWaiter(combined, index))
        return combined

    def all_of(self, waitables: Iterable[Any], label: str = "all_of") -> Future:
        """Future resolving with the list of all results, in input order.

        Fails fast: the first failure resolves the combined future with
        that exception.  An empty list resolves with ``[]`` on the next
        event-loop turn.
        """
        futures = self._as_futures(waitables)
        combined = Future(self, label=label)
        if not futures:
            self._schedule_now(combined.set_result, [])
            return combined
        state = _AllOfState(combined, len(futures))
        for index, future in enumerate(futures):
            future.add_callback(_AllOfWaiter(state, index))
        return combined

    def _as_futures(self, waitables: Iterable[Any]) -> List[Future]:
        futures = []
        for waitable in waitables:
            if isinstance(waitable, Timeout):
                futures.append(self._timeout_future(waitable.delay, waitable.value))
            elif isinstance(waitable, Future):
                futures.append(waitable)
            else:
                raise SimulationError(f"not a waitable: {waitable!r}")
        return futures

    # -- tick hook ------------------------------------------------------------

    def set_tick_hook(self, width: float, callback: Callable[[float], None]) -> None:
        """Call ``callback(boundary)`` as the clock crosses bucket boundaries.

        The hook fires *inline* from the event loop, synchronously, just
        after the clock advances past each multiple of ``width`` — no
        timer events are scheduled, so the event interleaving of the run
        is exactly what it would be without the hook (the observability
        neutrality contract).  The callback must not schedule events or
        advance the clock; it is for sampling state (gauges) only.  One
        hook at a time; setting replaces any previous hook.
        """
        if not (width > 0):
            raise SimulationError(f"tick width must be positive, got {width!r}")
        self._tick_width = width
        self._tick_callback = callback
        self._tick_next = (self._now // width + 1) * width

    def clear_tick_hook(self) -> None:
        """Remove the tick hook (safe when none is set)."""
        self._tick_width = 0.0
        self._tick_next = _INFINITY
        self._tick_callback = None

    def _fire_ticks(self, time: float) -> None:
        """Invoke the hook for every bucket boundary at-or-before ``time``."""
        callback = self._tick_callback
        if callback is None:  # pragma: no cover - guarded by _tick_next
            return
        while self._tick_next <= time:
            boundary = self._tick_next
            self._tick_next = boundary + self._tick_width
            callback(boundary)

    # -- execution ------------------------------------------------------------

    def step(self) -> bool:
        """Execute the next pending event.  Returns False if none remain."""
        queue = self._queue
        while queue:
            time, _seq, timer = heapq.heappop(queue)
            if timer.cancelled:
                self._dead -= 1
                continue
            self._now = time
            if time >= self._tick_next:
                self._fire_ticks(time)
            self.events_processed += 1
            timer._fire()
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: int = 10_000_000) -> None:
        """Run until the event queue drains or ``until`` is reached.

        Each call starts fresh: a :meth:`stop` from a previous run never
        leaks into this one.  ``max_events`` guards against runaway
        protocols in tests: exceeding it raises :class:`SimulationError`
        instead of hanging.
        """
        self._stopped = False
        self._dispatch(until, None, max_events)
        if until is not None and self._now < until:
            self._now = until

    def run_until_done(self, future: Future, max_events: int = 10_000_000) -> Any:
        """Run the simulation until ``future`` resolves; return its result."""
        self._dispatch(None, future, max_events)
        if not future._settled:
            raise SimulationError(
                f"event queue drained before {future!r} resolved"
            )
        return future.result

    def _dispatch(
        self, until: Optional[float], awaited: Optional[Future], max_events: int
    ) -> None:
        """The event loop of :meth:`run` (ends at :meth:`stop`) and of
        :meth:`run_until_done` (ends once ``awaited`` has resolved, and
        ignores :meth:`stop`); either ends when the queue drains or the
        next event lies past ``until``.

        The body of `step()` is inlined here: this loop dispatches every
        event of every simulation, and the per-event method call plus
        re-fetching attributes measurably slows long runs.  `_compact`
        mutates the queue list in place, so the local binding stays valid.
        """
        queue = self._queue
        pop = heapq.heappop
        events = 0
        while queue:
            if self._stopped if awaited is None else awaited._settled:
                return
            time = queue[0][0]
            if until is not None and time > until:
                self._now = until
                return
            timer = pop(queue)[2]
            if timer.cancelled:
                self._dead -= 1
                continue
            self._now = time
            if time >= self._tick_next:
                self._fire_ticks(time)
            self.events_processed += 1
            timer._fire()
            events += 1
            if events > max_events:
                raise SimulationError(f"exceeded {max_events} events; likely livelock")

    def stop(self) -> None:
        """Make the current :meth:`run` return after the current event."""
        self._stopped = True

    @property
    def pending_events(self) -> int:
        """Number of queued (possibly cancelled) events; for diagnostics."""
        return len(self._queue)

    @property
    def dead_events(self) -> int:
        """Queued-but-cancelled events awaiting compaction; for diagnostics."""
        return self._dead

    def __repr__(self) -> str:
        return f"<Simulator now={self._now:.3f} pending={len(self._queue)}>"
