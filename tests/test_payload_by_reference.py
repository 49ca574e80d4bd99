"""Payloads travel by reference: nobody mutates them, nothing marshals them.

Protocols put the frozen objects themselves — a ``Request``, a writeset,
a ``Stamp`` — into message payloads, and the network hands every
receiver the sender's payload, not a copy.  Two dynamic checks hold that
design up:

* no payload changes between its send and any of its deliveries (the
  run-time counterpart of lint rule R604), under the contended workload
  of every technique and under a chaos cell that duplicates packets;
* an unobserved run calls no ``as_wire`` / ``from_wire`` at all: the
  plain-data form exists only for ``repro.obs``'s byte accounting.
"""

import copy
from contextlib import contextmanager
from functools import lru_cache

import pytest

from helpers import contended_run
from repro import REGISTRY, RunSpec
from repro.core.operations import Operation, Request
from repro.db import Stamp, TransactionUpdates, UpdateRecord
from repro.net.network import Network
from repro.resilience.campaign import CAMPAIGNS, run_campaign

TECHNIQUES = sorted(REGISTRY)
WIRE_TYPES = (Operation, Request, UpdateRecord, TransactionUpdates, Stamp)


@contextmanager
def _payload_watch():
    """Snapshot each payload at send; compare it at and after every delivery.

    Yields ``(mutated, deliveries)``: the ids of messages whose payload
    differed from its send-time snapshot, and the delivery count per id
    (a duplicated packet is delivered twice under one id).
    """
    snapshots, mutated, deliveries = {}, [], {}
    send, deliver = Network.send, Network._deliver

    def watched_send(self, src, dst, type, payload=None, reply_to=None, deadline=None):
        snapshot = copy.deepcopy(payload if payload is not None else {})
        message = send(self, src, dst, type, payload=payload, reply_to=reply_to,
                       deadline=deadline)
        snapshots[message.msg_id] = (message, snapshot)
        return message

    def watched_deliver(self, message):
        deliveries[message.msg_id] = deliveries.get(message.msg_id, 0) + 1
        snapshot = snapshots[message.msg_id][1]
        if message.payload != snapshot:
            mutated.append(message.msg_id)
        deliver(self, message)
        if message.payload != snapshot:  # the receiving handler wrote into it
            mutated.append(message.msg_id)

    Network.send, Network._deliver = watched_send, watched_deliver
    try:
        yield mutated, deliveries
    finally:
        Network.send, Network._deliver = send, deliver
    # Objects shared by reference outlive their deliveries: a later write
    # would reach any message still holding them.
    mutated.extend(
        msg_id for msg_id, (message, snapshot) in snapshots.items()
        if message.payload != snapshot
    )


@contextmanager
def _codec_calls():
    """Count every ``as_wire`` / ``from_wire`` call on the wire types."""
    calls = []
    saved = [(cls, name, cls.__dict__[name])
             for cls in WIRE_TYPES for name in ("as_wire", "from_wire")]
    for cls, name, original in saved:
        function = original.__func__ if isinstance(original, staticmethod) else original

        def counted(*args, _function=function, _label=f"{cls.__name__}.{name}"):
            calls.append(_label)
            return _function(*args)

        setattr(cls, name, staticmethod(counted) if isinstance(original, staticmethod)
                else counted)
    try:
        yield calls
    finally:
        for cls, name, original in saved:
            setattr(cls, name, original)


@lru_cache(maxsize=None)
def _watched_contended_run(technique, ops_per_transaction):
    with _payload_watch() as (mutated, deliveries), _codec_calls() as calls:
        system, _engine, summary = contended_run(
            RunSpec(technique, clients=4, seed=7), ops_per_transaction
        )
    assert system.observer is None and summary.committed > 0
    return mutated, sum(deliveries.values()), calls


@pytest.mark.parametrize("ops_per_transaction", [1, 3])
@pytest.mark.parametrize("technique", TECHNIQUES)
def test_payloads_never_mutated_in_flight(technique, ops_per_transaction):
    mutated, delivered, _calls = _watched_contended_run(technique, ops_per_transaction)
    assert delivered > 0
    assert mutated == []


@pytest.mark.parametrize("ops_per_transaction", [1, 3])
@pytest.mark.parametrize("technique", TECHNIQUES)
def test_no_marshalling_when_unobserved(technique, ops_per_transaction):
    _mutated, _delivered, calls = _watched_contended_run(technique, ops_per_transaction)
    assert calls == []


def test_payloads_never_mutated_under_duplication():
    with _payload_watch() as (mutated, deliveries):
        report = run_campaign(RunSpec("certification", clients=2, seed=0),
                              CAMPAIGNS["group_loss_under_load"])
    assert report.passed
    assert max(deliveries.values()) > 1  # the duplicate fault fired
    assert mutated == []
