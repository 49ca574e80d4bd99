"""The linter's single data file: every project-specific constant.

Rules read their policy from here so that adjusting what they know of
the tree — widening the deterministic core, teaching the extractors a
new send method, lock manager or broadcast primitive — is a one-file
change, never a code change inside a rule.
"""

from __future__ import annotations

from typing import Any, Dict

# ---------------------------------------------------------------------------
# Determinism (rules D104-D107)
# ---------------------------------------------------------------------------
# Packages whose code must be bit-for-bit reproducible given a seed.  The
# analysis/workload/viz layers consume traces after the fact and are
# exempt (they still must not perturb a run, but they hold no simulated
# state).
DETERMINISTIC_PACKAGES = frozenset(
    {"core", "groupcomm", "db", "net", "failures", "sim", "obs", "resilience",
     "profiling"}
)

# Module-granular widening of the scope above, by full dotted name.  The
# open-loop engine lives in the otherwise-exempt ``workload`` layer but
# holds simulated state (arrival schedules, in-flight records) and feeds
# the simulator's event queue, so it must obey the same rules as the
# deterministic core.  The sweep runner next to it stays exempt: it
# orchestrates OS processes around *finished* runs.
DETERMINISTIC_MODULES = frozenset({"repro.workload.openloop"})

# Builtins that consume an iterable without depending on its order; a set
# flowing into one of these is harmless.
ORDER_INSENSITIVE_CONSUMERS = frozenset(
    {"sorted", "len", "min", "max", "sum", "any", "all", "set", "frozenset"}
)

# ---------------------------------------------------------------------------
# Replication techniques
# ---------------------------------------------------------------------------
# Class whose subclasses constitute replication techniques, and the class
# attribute carrying their classification row.
PROTOCOL_BASE = "ReplicaProtocol"
PROTOCOL_INFO_NAME = "info"

# ProtocolInfo flags that are properties, not keywords: each is set when
# its ``info`` passes the named keyword a value other than ``None``.
DERIVED_INFO_FLAGS = {"supports_sessions": "txn_descriptor"}

# The virtual entry every technique serves: ``_on_client_request`` is
# registered on the base class, so subclass ``handle_request`` bodies
# join the dispatchable set as entries of their own.
REQUEST_ENTRY = "handle_request"

# ---------------------------------------------------------------------------
# Message flow (rule M402)
# ---------------------------------------------------------------------------
# Point-to-point send methods and the positional index of their
# message-type argument.  ``Node.send/send_many/call`` and
# ``ReliableTransport.send/send_to_group`` share one string namespace:
# transport inner types travel inside node-level ``rt.data`` envelopes but
# never collide with node types by convention, so the flow graph keeps a
# single table for both.
SEND_METHODS = {
    "send": 1,
    "send_many": 1,
    "send_to_group": 1,
    "call": 1,
}

# ``Node.call`` bookkeeping kwargs that are not payload keys.
CALL_CONTROL_KWARGS = frozenset({"timeout"})

# A ``.send`` carrying one of these kwargs is the raw ``Network.send``
# (src/dst routing layer), not a protocol message construction site; the
# same goes for a receiver literally named ``network``.
NETWORK_SEND_KWARGS = frozenset({"payload", "reply_to"})
NETWORK_RECEIVER_NAMES = frozenset({"network"})

# Catalog name for the reserved reply envelope (``Node.reply`` sends it;
# the call-correlation machinery in ``Node._dispatch`` consumes it, so it
# has no ``.on`` registration by design).
REPLY_TYPE_NAME = "$reply"

# Receiver-name fragments that attribute a send/registration to the
# reliable-transport layer in the generated catalog (display only; the
# flow analysis itself is layer-agnostic).
TRANSPORT_RECEIVER_HINT = "transport"

# Group-communication primitives: constructor shape of every class whose
# instances fan messages out to a ``deliver(origin, mtype, body)``-style
# callback.  ``send`` is the broadcast method name, ``deliver`` the
# positional indices (after ``self``) of the delivery callbacks in the
# constructor, ``deliver_kwargs`` their keyword spellings, and
# ``channel_param`` the constructor parameter naming the wire channel
# (``None`` = fixed wire type).
PRIMITIVE_SPECS: Dict[str, Dict[str, Any]] = {
    "ReliableBroadcast": {
        "send": "broadcast", "deliver": (3,), "deliver_kwargs": ("deliver",),
        "channel_param": "channel", "channel_is_prefix": False,
    },
    "SequencerAtomicBroadcast": {
        "send": "abcast", "deliver": (3,), "deliver_kwargs": ("deliver",),
        "channel_param": "channel_prefix", "channel_is_prefix": True,
    },
    "ConsensusAtomicBroadcast": {
        "send": "abcast", "deliver": (4,), "deliver_kwargs": ("deliver",),
        "channel_param": "channel_prefix", "channel_is_prefix": True,
    },
    "OptimisticAtomicBroadcast": {
        "send": "abcast", "deliver": (4, 5),
        "deliver_kwargs": ("opt_deliver", "final_deliver"),
        "channel_param": "channel_prefix", "channel_is_prefix": True,
    },
    "ViewSyncGroup": {
        "send": "vscast", "deliver": (4,), "deliver_kwargs": ("deliver",),
        "channel_param": None, "channel_is_prefix": False,
    },
}

BROADCAST_METHODS = frozenset(
    spec["send"] for spec in PRIMITIVE_SPECS.values()
)

# ---------------------------------------------------------------------------
# Wait graph (rule W501)
# ---------------------------------------------------------------------------
# Receiver names (last dotted segment) that denote a 2PL lock manager, so
# ``self.tm.locks.acquire(txn, item, mode, ...)`` is recognised wherever
# the manager is reached from.
LOCK_RECEIVER_NAMES = frozenset({"locks", "lock_manager"})
LOCK_ACQUIRE_METHOD = "acquire"

# ``txn.read/write`` route through ``Transaction.read/write``, which
# always forward the manager-level ``lock_timeout`` to the lock manager,
# so these sites count as *timed* lock acquisitions of the given mode.
TXN_RECEIVER_NAMES = frozenset({"txn"})
TXN_LOCK_METHODS = {"read": "r", "write": "w"}

# Classes whose ``.run(...)`` drives an internally-timed blocking
# sub-protocol (2PC votes are bounded by ``VOTE_TIMEOUT``); a
# ``yield self.<attr>.run(...)`` where ``self.<attr>`` is constructed
# from one of these counts as a timed wait and links the caller's
# closure into the class's ``run`` method.
COORDINATOR_CLASSES = frozenset({"TwoPhaseCoordinator"})
COORDINATOR_RUN_METHOD = "run"

# ``sim.all_of``/``any_of`` join futures produced by the call/lock sites
# inside their arguments; the join itself is recorded for the artifact
# but carries no timeout of its own.
JOIN_METHODS = frozenset({"all_of", "any_of"})

# Calls that hand a bound method on to run later on the same node: a
# timer (``node.after``), a span-bound step (``node.bind``), a future
# callback (``future.add_callback``) or a due-queue entry
# (``DueQueue.defer``).  A ``self.m`` argument of one of these joins the
# caller's closure, as a spawned ``self.m(...)`` generator does: its
# waits and accesses happen on the caller's behalf.
DEFERRAL_METHODS = frozenset({"add_callback", "after", "bind", "defer"})

# Widening caps for the path-sensitive event expansion: a function
# whose branch product exceeds MAX_WAIT_PATHS collapses to one
# linearised path; closure inlining stops at MAX_WAIT_DEPTH.
MAX_WAIT_PATHS = 32
MAX_WAIT_DEPTH = 12

# ---------------------------------------------------------------------------
# Interference (rules R601, R602, R604)
# ---------------------------------------------------------------------------
# Replica-state accesses are dotted ``self.…`` attribute chains truncated
# to this many segments (``self.replica.node.name`` records as
# ``replica.node``): deeper chains describe a neighbour object's internals,
# not this instance's interleaving surface.
ACCESS_DEPTH = 2

# Container methods whose call mutates the receiver in place.  A call of
# one of these on a ``self.…`` chain counts as a write to that attribute
# in the read/write-set catalog (but not as a *rebinding* write, so it
# stays out of the per-class write sets).
MUTATOR_METHODS = frozenset({
    "append", "appendleft", "add", "clear", "discard", "extend", "insert",
    "pop", "popitem", "popleft", "remove", "setdefault", "update",
})

# Attribute-name fragments that mark a *guard predicate*: replica-role /
# configuration state whose validity a blocking wait can invalidate
# (deposed primary, changed view, advanced epoch).  An ``if`` test
# reading a ``self.…`` chain whose final segment contains one of these
# is a guard check for R602.
GUARD_ATTR_MARKERS = ("primary", "view", "epoch", "leader")

# Irreversible actions for R602: once one of these runs on a stale
# guard, the damage is externally visible.  ``respond``/``reply`` answer
# the client or a peer; ``commit`` publishes transaction effects.  The
# 2PC voting round (a TWO_PC wait site) is both an effect — starting an
# agreement round asserts the guard — and a fence: its participant-side
# PREPARE fencing revalidates, so windows do not extend across it.
EFFECT_METHODS = frozenset({"respond", "reply", "commit"})

# Dict-style methods whose call mutates a received message/payload in
# place (R604: payloads travel by reference, so handlers share them with
# the sender and the other recipients, and in-place mutation aliases back
# into them).
MESSAGE_MUTATORS = frozenset({"clear", "pop", "popitem", "setdefault", "update"})

# ---------------------------------------------------------------------------
# Rule metadata (SARIF helpUri)
# ---------------------------------------------------------------------------
# Per-family anchors into docs/linting.md; every registered rule derives
# its SARIF ``helpUri`` from its id prefix so CI annotations link to the
# rule's documentation section.
FAMILY_HELP_URIS = {
    "D": "docs/linting.md#determinism-d1xx",
    "M": "docs/linting.md#message-flow-m4xx",
    "W": "docs/linting.md#wait-graph-w5xx",
    "R": "docs/linting.md#interference-r6xx",
}
DEFAULT_HELP_URI = "docs/linting.md"

# ---------------------------------------------------------------------------
# Suppression
# ---------------------------------------------------------------------------
NOQA_MARKER = "repro: noqa"
