"""Group communication primitives (Section 3.1 of the paper).

The stack, bottom-up:

* :class:`ReliableTransport` — quasi-reliable FIFO point-to-point channels,
  whose per-source hold-back is :class:`InOrder`, the one hold-back cursor.
* :class:`ReliableBroadcast` — all-or-nothing diffusion to a static group.
* :class:`Consensus` — Chandra–Toueg rotating-coordinator consensus.
* :class:`SequencerAtomicBroadcast` / :class:`ConsensusAtomicBroadcast` —
  the paper's ABCAST primitive (total order), both on :class:`InOrder`
  (semi-passive replication's slots use it too).
* :class:`ViewSyncGroup` — group membership + the paper's VSCAST primitive.
* :class:`DeferredConsensus` — consensus with deferred initial values
  (the semi-passive replication engine).
"""

from .abcast import ConsensusAtomicBroadcast, SequencerAtomicBroadcast
from .optimistic import OptimisticAtomicBroadcast
from .channels import InOrder, ReliableTransport
from .consensus import Consensus
from .deferred import DeferredConsensus
from .rbcast import ReliableBroadcast
from .views import View, ViewSyncGroup

__all__ = [
    "ReliableTransport",
    "ReliableBroadcast",
    "Consensus",
    "DeferredConsensus",
    "InOrder",
    "SequencerAtomicBroadcast",
    "ConsensusAtomicBroadcast",
    "OptimisticAtomicBroadcast",
    "View",
    "ViewSyncGroup",
]
