"""Consensus with Deferred Initial Values (semi-passive replication).

Section 3.5 of the paper describes semi-passive replication as a variant
of passive replication in which "the Server Coordination (phase 2) and the
Agreement Coordination (phase 4) are part of one single coordination
protocol called Consensus with Deferred Initial Values".

The twist relative to ordinary consensus: a process's initial value is not
fixed at ``propose`` time.  Instead each process supplies a *thunk*; only
the coordinator of a round evaluates it — for semi-passive replication the
thunk *executes the client request* and yields the resulting update.  If
the first coordinator crashes (or is wrongly suspected), the rotating-
coordinator mechanism makes the next coordinator execute the request and
propose its own update.  Thus exactly the processes that act as
coordinators pay the execution cost, and no view-synchronous membership is
needed — the property the paper highlights: aggressive suspicion timeouts
without paying a reconfiguration cost for wrong suspicions.

Like its base class, a process keeps the thunk and its computed value only
while the instance is undecided; both go when the decision arrives.  How
often this process evaluated a thunk is the counter ``executions``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple

from .consensus import _UNSET, Consensus

__all__ = ["DeferredConsensus"]


class DeferredConsensus(Consensus):
    """Chandra–Toueg consensus whose initial values are computed lazily.

    Use :meth:`propose_deferred` instead of :meth:`propose`.  The supplied
    ``compute`` callback is invoked at most once per process and instance,
    and only when this process coordinates a round whose estimates are all
    still unset; ``executions`` counts those invocations.
    """

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        # Undecided instances only, like ``_instances``.
        self._compute: Dict[Any, Callable[[], Any]] = {}
        self._computed: Dict[Any, Any] = {}
        self.executions = 0

    def propose_deferred(self, instance: Any, compute: Callable[[], Any]) -> None:
        """Participate in ``instance``, computing a value only if needed.

        For an instance already decided here nothing is registered.
        """
        if instance not in self._decided:
            self._compute[instance] = compute
        self.propose(instance, _UNSET)

    def _choose_estimate(self, instance: Any, estimates: List[Tuple[int, str, Any]]) -> Any:
        value = super()._choose_estimate(instance, estimates)
        compute = self._compute.get(instance)
        if value is not _UNSET or compute is None:
            # No thunk yet: this process joined the instance before it
            # proposed, and waits for a value as the base class does.
            return value
        if instance not in self._computed:
            self.executions += 1
            self._computed[instance] = compute()
        return self._computed[instance]

    def _on_decide_msg(self, origin: str, mtype: str, body: dict) -> None:
        self._compute.pop(body["instance"], None)
        self._computed.pop(body["instance"], None)
        super()._on_decide_msg(origin, mtype, body)
