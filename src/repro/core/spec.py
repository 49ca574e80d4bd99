"""One run of one technique, described once: every entry point that
builds a :class:`~repro.core.system.ReplicatedSystem` takes a
:class:`RunSpec`.  Frozen and compared by value (a dictionary key, a
pickled work item); :meth:`RunSpec.describe` is the line a generated file
prints to say which run produced it.  The transaction mix, the arrival
process and the retrying client's policy keep their own frozen specs.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Optional, Tuple

from ..errors import ReplicationError
from ..net import ConstantLatency, LatencyModel
from .protocols import REGISTRY

__all__ = ["RunSpec", "ABCAST_FLAVOURS"]

ABCAST_FLAVOURS = ("consensus", "sequencer")


@dataclass(frozen=True)
class RunSpec:
    """The technique, its group and clients, the network and the options.

    ``technique`` is a registry name (``repro.REGISTRY``); ``replicas``
    and ``clients`` count the sites and client edges (a chaos cell's
    edges retry).  ``client_timeout`` is the blocking client's: ``None``
    means none for transparent (policy ``"all"``) techniques and 120
    time units otherwise.  ``observe`` threads a
    :class:`~repro.obs.Observer` through the run (an unobserved run takes
    the same scheduling decisions); ``trace_max_events`` bounds the trace
    log as a ring buffer; ``admission_rate > 0`` gates every submit
    behind a token-bucket admission edge at that sustained rate, 0 means
    no admission edge (see docs/workloads.md).

    Protocol options, each read only by the techniques named:

    ``abcast`` (active, semi_active, eager_ue_abcast, certification)
        ``"consensus"`` (crash-tolerant Chandra–Toueg reduction) or
        ``"sequencer"`` (cheap fixed sequencer for failure-free runs).
    ``propagation_delay`` (lazy_primary, lazy_ue)
        Delay between commit and shipping the update.
    ``reconciliation``, ``priorities`` (lazy_ue)
        ``"lww"`` (last writer wins), ``"priority"`` (site -> rank map in
        ``priorities``; higher wins) or ``"abcast"``, the paper's own
        suggestion: "run an Atomic Broadcast and determine the
        after-commit-order according to the order of the atomic
        broadcast" — writesets apply in delivery order at every site.
    ``write_quorum`` (eager_ue_locking)
        Sites locked and written per update, ``None`` for all live
        ones.  Section 5.4.1: quorums are "orthogonal" — W with 2W > n
        keeps the phases while writes touch W sites and reads take the
        freshest of R = n - W + 1 (Gifford-style voting).
    ``certification_mode``, ``processing_time``, ``optimistic`` (certification)
        ``"read"`` (backward validation) or ``"write"``
        (first-committer-wins ablation); simulated cost of validation
        and apply on the reply path; and ordering through
        :class:`~repro.groupcomm.OptimisticAtomicBroadcast` ([KPAS99a],
        the DRAGON result): certification starts at tentative delivery,
        so when the final order confirms it the reply does not pay
        ``processing_time`` again.
    """

    technique: str
    replicas: int = 3
    clients: int = 1
    seed: int = 0
    latency: LatencyModel = ConstantLatency(1.0)
    fd_interval: float = 2.0
    fd_timeout: float = 8.0
    client_timeout: Optional[float] = None
    max_client_retries: int = 10
    observe: bool = False
    trace_max_events: Optional[int] = None
    admission_rate: float = 0.0
    abcast: str = "consensus"
    propagation_delay: float = 20.0
    reconciliation: str = "lww"
    priorities: Tuple[Tuple[str, int], ...] = ()
    write_quorum: Optional[int] = None
    certification_mode: str = "read"
    processing_time: float = 0.0
    optimistic: bool = False

    def __post_init__(self) -> None:
        if self.technique not in REGISTRY:
            raise ReplicationError(
                f"unknown technique {self.technique!r}; available: {sorted(REGISTRY)}"
            )
        if not isinstance(self.seed, int):
            # None would seed sim.rng from OS entropy: a run nobody can repeat.
            raise TypeError(f"seed must be an int, got {self.seed!r}")
        if not self.admission_rate >= 0:
            raise ValueError(f"admission_rate must be >= 0, got {self.admission_rate!r}")
        if self.abcast not in ABCAST_FLAVOURS:
            raise ValueError(
                f"unknown abcast {self.abcast!r}; available: {list(ABCAST_FLAVOURS)}"
            )
        if isinstance(self.priorities, dict):
            # Kept as sorted pairs, so the spec stays hashable.
            object.__setattr__(self, "priorities", tuple(sorted(self.priorities.items())))

    def describe(self) -> str:
        """One canonical line naming every field, technique first: equal
        specs give equal lines, specs differing in any field different ones."""
        return " ".join(
            [self.technique]
            + [f"{f.name}={_text(getattr(self, f.name))}" for f in fields(self)[1:]]
        )


def _text(value: Any) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, LatencyModel):
        # Every parameter, not the model's repr, which may leave one out.
        params = ", ".join(f"{key}={item!r}" for key, item in vars(value).items())
        return f"{type(value).__name__}({params})"
    return repr(value)
