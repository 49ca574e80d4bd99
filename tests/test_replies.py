"""Every ``Node.reply`` answers a message that ``Node.call`` sent.

A reply to a fire-and-forget ``send`` reaches ``Node._dispatch_inner``,
which drops a reply that no ``call`` awaits, so no other check notices
it: the answering side believes it spoke and the asking side never
listened.  This ledger records the msg id of every ``call`` and flags
every reply whose request is not among them.
"""

import pytest

from repro import DB_TECHNIQUES, DS_TECHNIQUES, RunSpec
from repro.core.protocols.eager_ue_locking import EagerUpdateEverywhereLocking
from repro.core.system import ReplicatedSystem
from repro.net import Network, Node
from repro.workload import (
    ClosedPopulation,
    OpenLoopEngine,
    WorkloadGenerator,
    WorkloadSpec,
    run_workload,
)


class ReplyLedger:
    """Wraps ``Node.call``, ``Node.reply`` and ``Network.send`` for one test."""

    def __init__(self, monkeypatch):
        self.called = set()
        self.stray = []
        self._in_call = 0
        send, call, reply = Network.send, Node.call, Node.reply
        ledger = self

        def traced_send(net, *args, **kwargs):
            message = send(net, *args, **kwargs)
            if ledger._in_call:
                ledger.called.add(message.msg_id)
            return message

        def traced_call(node, *args, **kwargs):
            ledger._in_call += 1
            try:
                return call(node, *args, **kwargs)
            finally:
                ledger._in_call -= 1

        def traced_reply(node, request, **payload):
            if request.msg_id not in ledger.called:
                ledger.stray.append(
                    f"{node.name} replies to {request.type!r} from {request.src}, "
                    f"which was not sent by call"
                )
            reply(node, request, **payload)

        monkeypatch.setattr(Network, "send", traced_send)
        monkeypatch.setattr(Node, "call", traced_call)
        monkeypatch.setattr(Node, "reply", traced_reply)


@pytest.mark.parametrize("technique", DS_TECHNIQUES + DB_TECHNIQUES)
def test_fault_free_replies_answer_calls(technique, monkeypatch):
    ledger = ReplyLedger(monkeypatch)
    system, _driver, summary = run_workload(
        RunSpec(technique, clients=2, seed=3),
        WorkloadSpec(items=6, read_fraction=0.3, ops_per_transaction=2),
        requests_per_client=6, think_time=2.0, settle=200.0,
    )
    assert summary.committed > 0
    assert not ledger.stray, ledger.stray


def test_replies_answer_calls_across_a_catchup(monkeypatch):
    """eager_ue_locking ships ``ueld.catchup`` to a live site that a
    commit's quorum left out.  r2 is down from 10 to 80: the writes stuck
    on its locks time out at 50, the next ones lock only r0 and r1 while
    r2 is suspected, and those still running when it restarts ship it
    their after-images."""
    catchups = []
    on_catchup = EagerUpdateEverywhereLocking._on_catchup

    def counted(protocol, message):
        catchups.append(protocol.replica.name)
        on_catchup(protocol, message)

    monkeypatch.setattr(EagerUpdateEverywhereLocking, "_on_catchup", counted)
    ledger = ReplyLedger(monkeypatch)
    system = ReplicatedSystem("eager_ue_locking", clients=2, seed=3)
    system.injector.crash_at(10.0, "r2")
    system.injector.recover_at(80.0, "r2")
    engine = OpenLoopEngine(
        system, WorkloadGenerator(WorkloadSpec(items=6, read_fraction=0.0), seed=3),
        ClosedPopulation.thinking(requests=30, think_time=1.0, retry_aborts=False),
    )
    engine.run()
    system.settle(300.0)
    assert catchups, "no ueld.catchup was delivered"
    assert not ledger.stray, ledger.stray
