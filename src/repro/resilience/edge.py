"""The retrying retry policy for the client edge.

:class:`~repro.core.system.ClientNode` is the one client edge; what it
does when a replica is silent, down or answers with an abort is decided
by the retry policy it is built with.  ``core`` supplies the paper's
blocking database client, which waits forever for a slow server;
:class:`RetryingPolicy` is the production-style alternative that retries
through message loss, duplication and gray failure and gives up
definitively when its deadline budget is exhausted.  Retries resend the
*same* request id, and the server-side duplicate-reply cache
(``ReplicaNode.reply_cache``) replays the committed answer instead of
re-executing, which makes them exactly-once even across a primary
failover.  See ``docs/resilience.md`` for the question-by-question
comparison of the two policies.

Outcome taxonomy: a reply with ``committed=True`` or a definitive abort
(lock timeout, deadlock, 2PC no-vote, certification conflict) finishes
the request; ``"not primary"`` routing misses and server-side deadline
sheds are retried against a re-resolved target; network silence is
retried with backoff until the deadline budget runs out, which yields an
*indeterminate* abort (``reason="deadline exceeded"``) — the one outcome
whose server-side effect the client cannot know.
"""

from __future__ import annotations

import random
from typing import Any, Dict, Optional, Tuple

from ..core.system import GIVE_UP, RESEND, WAIT, ClientNode
from ..net import Message
from .breaker import CircuitBreaker

__all__ = ["RetryingPolicy", "retrying_client", "backoff"]

# Abort reasons that indicate the request never ran and should be retried
# against a (possibly re-resolved) target rather than reported.
_ROUTING_PREFIXES = ("not primary", "deadline exceeded")

# A wait computed as ``deadline - now`` can land a rounding error short of
# the deadline; within this much of it the budget counts as spent.
_DEADLINE_EPS = 1e-9

# Circuit-breaker tuning, applied per replica: consecutive failures that
# open a breaker, and how long it stays open.
BREAKER_THRESHOLD = 3
BREAKER_RESET = 45.0

# The retry schedule, sized for the default one-unit-latency network.
# Attempt ``n`` (1-based) backs off ``min(BACKOFF_BASE *
# BACKOFF_MULTIPLIER**(n-1), BACKOFF_CAP)`` scaled by a uniform draw from
# ``[1 - BACKOFF_JITTER, 1]``: jitter desynchronizes a fleet of retrying
# clients (the classic retry-storm fix) without ever exceeding the
# deterministic envelope, which keeps worst-case budgets computable.
# ``MAX_ATTEMPTS`` bounds the sends of one logical request.
BACKOFF_BASE = 5.0
BACKOFF_MULTIPLIER = 2.0
BACKOFF_CAP = 60.0
BACKOFF_JITTER = 0.5
MAX_ATTEMPTS = 12


def backoff(attempt: int, rng: random.Random) -> float:
    """Backoff before retry number ``attempt`` (1-based), in sim time.

    All randomness comes from ``rng``, the client's own named stream, so
    a same-seed run produces the same schedule."""
    raw = min(BACKOFF_BASE * BACKOFF_MULTIPLIER ** max(attempt - 1, 0), BACKOFF_CAP)
    return raw * (1.0 - BACKOFF_JITTER * rng.random())


class RetryingPolicy:
    """Retrying, breaker-guarded, deadline-budgeted retry policy.

    Parameters
    ----------
    system:
        The :class:`~repro.core.system.ReplicatedSystem` the client talks to.
    name:
        The client's node name: names the jitter stream
        (``resilience.<name>``) and the breaker gauges (``<name>-><replica>``).
    request_timeout:
        Per-attempt silence budget before the attempt is declared failed
        and retried.
    deadline:
        Per-request total budget in simulated time.  Stamped on every
        outgoing envelope; when it runs out the request finishes with an
        indeterminate ``"deadline exceeded"`` abort.

    Retries follow :func:`backoff`, at most ``MAX_ATTEMPTS`` sends.
    """

    def __init__(
        self,
        system: Any,
        name: str,
        request_timeout: float = 30.0,
        deadline: float = 400.0,
    ) -> None:
        self.system = system
        self.timeout = request_timeout
        self.budget = deadline
        # Client-owned randomness: jitter draws must not perturb the
        # simulator's main stream (or each other's, across clients).
        self.rng = system.sim.stream(f"resilience.{name}")
        self.breakers: Dict[str, CircuitBreaker] = {
            replica: CircuitBreaker(
                system.sim,
                failure_threshold=BREAKER_THRESHOLD,
                reset_timeout=BREAKER_RESET,
                name=f"{name}->{replica}",
                obs=system.observer,
            )
            for replica in system.replica_names
        }

    # -- the three questions ----------------------------------------------

    def allow(self, replica: str) -> bool:
        """Not while its breaker is open (the edge has given up on it)."""
        return self.breakers[replica].allow()

    def on_silence(self, client: ClientNode, entry: dict) -> Tuple[str, Any]:
        remaining = entry["deadline"] - self.system.sim.now
        if remaining <= _DEADLINE_EPS:
            self._count("resilience.deadline_exceeded")
            return GIVE_UP, "deadline exceeded"
        targets = entry["last_targets"]
        if not targets:
            # Every candidate is refused: wait out the shortest breaker
            # cool-down (bounded by the deadline) and re-evaluate.
            pause = max(min(b.reopens_in() for b in self.breakers.values()), 1.0)
            return self._later(pause, remaining)
        # From here on the request's server-side fate is unknown (the
        # silent attempt may still be executing behind locks and commit
        # later), so a definitive abort from a *later* attempt no longer
        # proves "no effect".
        entry["fate_unknown"] = True
        for target in targets:
            self.breakers[target].record_failure()
        self._count("resilience.attempt_timeouts")
        return self._retry(entry, remaining)

    def on_reply(self, entry: dict, message: Message) -> Optional[Tuple[str, Any]]:
        breaker = self.breakers.get(message["server"])
        if breaker is not None:
            breaker.record_success()
        if message["committed"]:
            return None
        if not self._retryable(message["reason"]):
            if not entry.get("fate_unknown"):
                return None
            # Tainted abort: this attempt aborted cleanly, but an earlier
            # attempt of the same id went silent and may still commit
            # (e.g. stuck behind locks at a lagging replica).  Settling
            # now — and resubmitting under a fresh id — could orphan that
            # commit and double-apply.  Keep retrying the same id: the
            # duplicate-reply cache replays the commit if it lands, and
            # the deadline bounds the wait otherwise.
            self._count("resilience.tainted_aborts")
        return self._retry(entry, entry["deadline"] - self.system.sim.now)

    # -- internals ----------------------------------------------------------

    def _retry(self, entry: dict, remaining: float) -> Tuple[str, Any]:
        now = self.system.sim.now
        scheduled = entry.get("resend_at", 0.0) - now
        if scheduled > 0:
            # A reply that landed between attempts asks for the resend
            # that is already on its way.
            return RESEND, scheduled
        attempts = entry["retries"] + 1
        if attempts >= MAX_ATTEMPTS:
            return GIVE_UP, "retry budget exhausted"
        answer = self._later(backoff(attempts, self.rng), remaining)
        if answer[0] == RESEND:
            entry["retries"] += 1
            entry["resend_at"] = now + answer[1]
            self._count("resilience.retries")
        return answer

    @staticmethod
    def _later(delay: float, remaining: float) -> Tuple[str, float]:
        """Resend after ``delay`` if the budget outlasts it; otherwise wait
        the budget out (a late reply still counts) and be asked again."""
        if delay < remaining:
            return RESEND, delay
        return WAIT, max(remaining, 0.0)

    def _retryable(self, reason: str) -> bool:
        return any(reason.startswith(prefix) for prefix in _ROUTING_PREFIXES)

    def _count(self, metric: str) -> None:
        if self.system.observer is not None:
            self.system.observer.metrics.inc(metric)


def retrying_client(system: Any, index: int = 0, **knobs: Any) -> ClientNode:
    """Attach a client edge with the retrying policy to ``system``.

    ``index`` names the node (``rc<index>``) and picks the home replica
    round-robin; ``knobs`` are :class:`RetryingPolicy`'s.  The edge joins
    ``system.clients``, through which the workload engine drives it.
    """
    name = f"rc{index}"
    home = system.replica_names[index % len(system.replica_names)]
    client = ClientNode(system, name, home, RetryingPolicy(system, name, **knobs))
    system.clients.append(client)
    return client
