"""Interactive transaction sessions (Section 5's full transaction model).

Section 5 drops the stored-procedure simplification: a transaction is "a
partial order of read and write operations which are not necessarily
available for processing at the same time".  A :class:`TransactionSession`
is exactly that — the client opens a transaction at a server and issues
operations one at a time (with arbitrary client-side work in between),
then commits:

>>> session = system.session()          # doctest: +SKIP
>>> def work():
...     yield session.begin()
...     balance = yield session.read("balance")
...     # ... client-side thinking ...
...     yield session.update("balance", "add", -50)
...     committed = yield session.commit()

The per-operation Server Coordination / Execution loops of Figures 12 and
13 run *while the client is still deciding what to do next* — which is
the whole point of the Section 5 model.  Supported by the protocols whose
figures show the loop: ``eager_primary`` and ``eager_ue_locking``.  This
is the client half; the server half, ``ReplicaProtocol``'s ``session.*``
handlers, runs one transaction step per message: the same begin, op and
commit steps a one-shot request runs in one process.
"""

from __future__ import annotations

import itertools
from typing import Any, Optional

from ..errors import TransactionAborted
from ..sim import Future

__all__ = ["TransactionSession"]

BEGIN = "session.begin"
OP = "session.op"
COMMIT = "session.commit"
ABORT = "session.abort"


class TransactionSession:
    """Client handle for one interactive transaction.

    All methods return futures; use from a simulated process with
    ``yield``.  After an operation fails (deadlock, lock timeout) the
    session is dead: ``commit`` resolves False and further operations
    fail with :class:`TransactionAborted`.
    """

    def __init__(self, client, server: str, timeout: float = 300.0) -> None:
        self.client = client
        self.server = server
        self.timeout = timeout
        # The id counter lives on the client, not the module: ids restart
        # at 1 for every fresh system, keeping same-seed runs identical.
        counter = getattr(client, "_session_ids", None)
        if counter is None:
            counter = itertools.count(1)
            client._session_ids = counter
        self.session_id = f"{client.name}-s{next(counter)}"
        self.active = False
        self.failed_reason: Optional[str] = None

    # -- lifecycle ---------------------------------------------------------

    def begin(self) -> Future:
        """Open the transaction at the server."""
        future = self.client.system.sim.future(label=f"{self.session_id}:begin")
        call = self.client.node.call(
            self.server, BEGIN, timeout=self.timeout, session=self.session_id
        )
        def on_reply(reply_future):
            if reply_future.exception is not None:
                self._fail(future, str(reply_future.exception))
                return
            reply = reply_future.result
            if reply["ok"]:
                self.active = True
                future.set_result(True)
            else:
                self._fail(future, reply["reason"])
        call.add_callback(on_reply)
        return future

    def read(self, item: str) -> Future:
        return self._operation("read", item, None, "set")

    def write(self, item: str, value: Any) -> Future:
        return self._operation("write", item, value, "set")

    def update(self, item: str, func: str, argument: Any = None) -> Future:
        return self._operation("update", item, argument, func)

    def commit(self) -> Future:
        """Close the transaction; resolves with the commit verdict."""
        future = self.client.system.sim.future(label=f"{self.session_id}:commit")
        if not self.active:
            future.set_result(False)
            return future
        call = self.client.node.call(
            self.server, COMMIT, timeout=self.timeout, session=self.session_id
        )
        def on_reply(reply_future):
            self.active = False
            if reply_future.exception is not None:
                self.failed_reason = str(reply_future.exception)
                future.set_result(False)
            else:
                future.set_result(bool(reply_future.result["committed"]))
        call.add_callback(on_reply)
        return future

    def abort(self) -> Future:
        """Roll the transaction back at the server."""
        future = self.client.system.sim.future(label=f"{self.session_id}:abort")
        if not self.active:
            future.set_result(True)
            return future
        self.active = False
        self.failed_reason = "client abort"
        call = self.client.node.call(
            self.server, ABORT, timeout=self.timeout, session=self.session_id
        )
        call.add_callback(lambda _f: future.try_set_result(True))
        return future

    # -- internals -------------------------------------------------------------

    def _operation(self, kind: str, item: str, argument: Any, func: str) -> Future:
        future = self.client.system.sim.future(
            label=f"{self.session_id}:{kind}:{item}"
        )
        if not self.active:
            future.set_exception(
                TransactionAborted(self.session_id,
                                   self.failed_reason or "session not begun")
            )
            return future
        call = self.client.node.call(
            self.server, OP, timeout=self.timeout,
            session=self.session_id, kind=kind, item=item,
            argument=argument, func=func,
        )
        def on_reply(reply_future):
            if reply_future.exception is not None:
                self._fail(future, str(reply_future.exception))
                return
            reply = reply_future.result
            if reply["ok"]:
                future.set_result(reply["value"])
            else:
                self._fail(future, reply["reason"])
        call.add_callback(on_reply)
        return future

    def _fail(self, future: Future, reason: str) -> None:
        self.active = False
        self.failed_reason = reason
        future.set_exception(TransactionAborted(self.session_id, reason))

    def __repr__(self) -> str:
        state = "active" if self.active else (self.failed_reason or "closed")
        return f"<TransactionSession {self.session_id}@{self.server} {state}>"
