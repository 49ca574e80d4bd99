"""Execution histories assembled from client observations.

The consistency oracles (linearizability, serializability) work on what
clients actually observed — invocation/response intervals in real
(simulated) time plus returned values — mirroring how the correctness
criteria in Section 2.2 are defined over external behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, List, Optional

from ..core.operations import Result

__all__ = ["Invocation", "History", "history_from_results"]


@dataclass(frozen=True)
class Invocation:
    """One completed client request, as the client saw it.

    ``output`` is the observable result: the value read for reads, the new
    value for updates, None for blind writes.
    """

    request_id: str
    kind: str               # "read" | "write" | "update"
    item: str
    argument: Any
    func: str
    output: Any
    start: float
    end: float
    client: str = ""
    committed: bool = True

    def __repr__(self) -> str:
        return (
            f"<Inv {self.request_id} {self.kind}({self.item})"
            f"->{self.output!r} [{self.start:.1f},{self.end:.1f}]>"
        )


class History:
    """A set of single-operation invocations over shared items."""

    def __init__(self, invocations: Iterable[Invocation]) -> None:
        self.invocations = sorted(invocations, key=lambda inv: (inv.start, inv.end))

    def __len__(self) -> int:
        return len(self.invocations)

    def __iter__(self):
        return iter(self.invocations)

    def for_item(self, item: str) -> "History":
        return History(inv for inv in self.invocations if inv.item == item)

    def items(self) -> List[str]:
        return sorted({inv.item for inv in self.invocations})

    def committed(self) -> "History":
        return History(inv for inv in self.invocations if inv.committed)

    def __repr__(self) -> str:
        return f"<History n={len(self.invocations)} items={self.items()}>"


def history_from_results(
    results: Iterable[Result], client: str = "", committed_only: bool = True
) -> History:
    """Build a history from client :class:`Result` records.

    Only single-operation requests are convertible — each becomes one
    invocation spanning the request's submit/response interval.  Requests
    with several operations are skipped (use the serializability oracle
    for those).
    """
    invocations = []
    for result in results:
        if len(result.operations) != 1:
            continue
        if committed_only and not result.committed:
            continue
        op = result.operations[0]
        invocations.append(
            Invocation(
                request_id=result.request_id,
                kind=op.kind,
                item=op.item,
                argument=op.argument,
                func=op.func,
                output=result.values[0] if result.values else None,
                start=result.submitted_at,
                end=result.completed_at,
                client=client,
                committed=result.committed,
            )
        )
    return History(invocations)
