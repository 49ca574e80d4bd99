"""Client operations and results.

Section 2.2 first considers "transactions composed of a single operation
... a single read or write operation, a more complex operation with
multiple parameters, or an invocation on a method" (stored procedures);
Section 5 generalises to multi-operation transactions.  Both shapes are
covered here:

* :class:`Operation` — one logical read/write/update.  ``update``
  operations apply a named function to the current value, which is how the
  simulation distinguishes *deterministic* state-machine commands (safe for
  active replication) from *non-deterministic* ones (the reason passive and
  semi-active replication exist).
* :class:`Request` — what a client submits: one or more operations plus an
  id, i.e. a transaction.
* :class:`Result` — what comes back: commit verdict, read values, timing.
* :class:`ResultStore` — the results a client or the engine keeps, as columns.
"""

from __future__ import annotations

import random
from array import array
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Iterator, List, Tuple

__all__ = ["Operation", "Request", "Result", "ResultStore", "apply_update",
           "UPDATE_FUNCTIONS"]

def _set(current: Any, argument: Any, rng: random.Random) -> Any:
    return argument


def _add(current: Any, argument: Any, rng: random.Random) -> Any:
    return (current or 0) + argument


def _append(current: Any, argument: Any, rng: random.Random) -> Any:
    return (list(current) if current else []) + [argument]


def _random_token(current: Any, argument: Any, rng: random.Random) -> Any:
    # Deliberately non-deterministic across replicas: each evaluation draws
    # from the *local* RNG.  Active replication would diverge on this;
    # passive/semi-active replication exist to handle exactly this case.
    return rng.randrange(10**9)


UPDATE_FUNCTIONS: Dict[str, Callable[[Any, Any, random.Random], Any]] = {
    "set": _set,
    "add": _add,
    "append": _append,
    "random_token": _random_token,
}

NON_DETERMINISTIC = {"random_token"}


def apply_update(func: str, current: Any, argument: Any, rng: random.Random) -> Any:
    """Apply the named update function; raises KeyError on unknown names."""
    return UPDATE_FUNCTIONS[func](current, argument, rng)


@dataclass(frozen=True)
class Operation:
    """One logical operation on a data item.

    ``kind`` is ``"read"``, ``"write"`` (blind write of ``argument``) or
    ``"update"`` (apply ``func`` to the current value with ``argument``).
    """

    kind: str
    item: str
    argument: Any = None
    func: str = "set"

    def __post_init__(self) -> None:
        if self.kind not in ("read", "write", "update"):
            raise ValueError(f"unknown operation kind {self.kind!r}")
        if self.kind == "update" and self.func not in UPDATE_FUNCTIONS:
            raise ValueError(f"unknown update function {self.func!r}")

    @property
    def is_write(self) -> bool:
        return self.kind != "read"

    @staticmethod
    def read(item: str) -> "Operation":
        return Operation("read", item)

    @staticmethod
    def write(item: str, value: Any) -> "Operation":
        return Operation("write", item, argument=value)

    @staticmethod
    def update(item: str, func: str, argument: Any = None) -> "Operation":
        return Operation("update", item, argument=argument, func=func)

    def as_wire(self) -> list:
        return [self.kind, self.item, self.argument, self.func]

    @staticmethod
    def from_wire(data: list) -> "Operation":
        return Operation(kind=data[0], item=data[1], argument=data[2], func=data[3])


@dataclass(frozen=True)
class Request:
    """A client-submitted transaction: an id plus its operations.

    The request id is also the request's idempotency key: a retrying
    client resends the same id, and a server that already answered it
    replays the committed reply instead of executing again (see
    ``ReplicaNode.reply_cache`` in :mod:`repro.core.system`).
    """

    request_id: str
    operations: Tuple[Operation, ...]

    @staticmethod
    def make(
        operations,
        client: str = "client",
        *,
        sequence: int,
    ) -> "Request":
        """Build a request with id ``{client}-r{sequence}``.

        The caller owns the per-client counter (see
        ``core.system.ClientNode``), so ids depend on the run alone,
        never on what ran before it in the same interpreter.
        """
        if isinstance(operations, Operation):
            operations = (operations,)
        return Request(
            request_id=f"{client}-r{sequence}",
            operations=tuple(operations),
        )

    @property
    def read_only(self) -> bool:
        return all(not op.is_write for op in self.operations)

    def as_wire(self) -> dict:
        return {
            "request_id": self.request_id,
            "operations": [op.as_wire() for op in self.operations],
        }

    @staticmethod
    def from_wire(data: dict) -> "Request":
        return Request(
            request_id=data["request_id"],
            operations=tuple(Operation.from_wire(o) for o in data["operations"]),
        )


@dataclass
class Result:
    """Outcome of a request as seen by the client."""

    request_id: str
    committed: bool
    values: List[Any] = field(default_factory=list)
    reason: str = ""
    submitted_at: float = 0.0
    completed_at: float = 0.0
    server: str = ""
    retries: int = 0
    operations: Tuple[Operation, ...] = ()

    @property
    def latency(self) -> float:
        return self.completed_at - self.submitted_at

    @property
    def value(self) -> Any:
        """The last read value (convenience for single-read requests)."""
        return self.values[-1] if self.values else None

    def __repr__(self) -> str:
        verdict = "committed" if self.committed else f"aborted({self.reason})"
        return f"<Result {self.request_id} {verdict} latency={self.latency:.2f}>"


# Exact types whose equal values are interchangeable: ``1 == 1.0 == True``,
# but two equal ints, strs or Nones cannot be told apart.
_ATOMS = (int, str, type(None))


def _result(request_id: str, committed: int, values: Tuple[Any, ...],
            reason: str, submitted_at: float, completed_at: float,
            server: str, retries: int,
            operations: Tuple[Operation, ...]) -> Result:
    return Result(request_id, committed == 1, list(values), reason,
                  submitted_at, completed_at, server, retries, operations)


class ResultStore(SequenceABC):
    """Finished requests, as columns; :class:`Result` is built on access.

    A client and the workload engine each keep every answered request
    until the run ends.  The store keeps no object per request, but one
    entry a request in each column:

    * the submit and completion times in ``array('d')``, the retries in
      ``array('I')`` and the verdict in a ``bytearray``;
    * the request id, reason and server as references to the strings;
    * the values as a tuple, and the operations tuple.

    A values tuple, operations tuple or reason equal to one already kept
    is replaced by it when everything it holds is an int, str or
    ``None``, so a run's few distinct ones are each kept once.  (Server
    names are the replicas' own strings already.)

    Reading builds a fresh :class:`Result`: ``store[0] is store[0]`` is
    false, ``store[0] == store[0]`` holds, and a store equals a list of
    the same results.  :meth:`append` is the only way to change it.
    """

    __slots__ = ("_ids", "_committed", "_values", "_reasons", "_submitted",
                 "_completed", "_servers", "_retries", "_operations",
                 "_shared")

    def __init__(self, results: Iterable[Result] = ()) -> None:
        self._ids: List[str] = []
        self._committed = bytearray()
        self._values: List[Tuple[Any, ...]] = []
        self._reasons: List[str] = []
        self._submitted = array("d")
        self._completed = array("d")
        self._servers: List[str] = []
        self._retries = array("I")
        self._operations: List[Tuple[Operation, ...]] = []
        self._shared: Dict[Any, Any] = {}
        for result in results:
            self.append(result)

    def append(self, result: Result) -> None:
        shared = self._shared
        values = tuple(result.values)
        for value in values:
            if type(value) not in _ATOMS:
                break
        else:
            values = shared.setdefault(values, values)
        operations = tuple(result.operations)
        for op in operations:
            if type(op.item) is not str or type(op.argument) not in _ATOMS:
                break
        else:
            operations = shared.setdefault(operations, operations)
        reason = result.reason
        if type(reason) is str:
            reason = shared.setdefault(reason, reason)
        self._ids.append(result.request_id)
        self._committed.append(1 if result.committed else 0)
        self._values.append(values)
        self._reasons.append(reason)
        self._submitted.append(result.submitted_at)
        self._completed.append(result.completed_at)
        self._servers.append(result.server)
        self._retries.append(result.retries)
        self._operations.append(operations)

    def _columns(self) -> tuple:
        return (self._ids, self._committed, self._values, self._reasons,
                self._submitted, self._completed, self._servers,
                self._retries, self._operations)

    def __len__(self) -> int:
        return len(self._ids)

    def __getitem__(self, index: Any) -> Any:
        # Indexing the range of positions checks and resolves the index.
        positions = range(len(self._ids))[index]
        if isinstance(positions, range):
            return [self[position] for position in positions]
        return _result(*(column[positions] for column in self._columns()))

    def __iter__(self) -> Iterator[Result]:
        # map() over the live columns sees what is appended while it runs.
        return map(_result, *self._columns())

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, (list, ResultStore)):
            return NotImplemented
        return len(self) == len(other) and all(
            mine == theirs for mine, theirs in zip(self, other)
        )

    def __add__(self, other: Any) -> "ResultStore":
        if not isinstance(other, (list, ResultStore)):
            return NotImplemented
        joined = ResultStore(self)
        for result in other:
            joined.append(result)
        return joined

    def __repr__(self) -> str:
        return f"<ResultStore {len(self)} results>"
