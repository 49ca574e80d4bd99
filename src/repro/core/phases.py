"""The five-phase functional model (Section 2.2, Figure 1).

The paper describes any replication protocol as a combination of five
generic phases:

1. **RE** — Request: the client submits an operation.
2. **SC** — Server Coordination: replicas synchronise *before* executing.
3. **EX** — Execution: the operation is performed.
4. **AC** — Agreement Coordination: replicas agree on the result.
5. **END** — Response: the outcome reaches the client.

Protocols differ in which phases they use, how they order them (lazy
techniques respond before coordinating), whether phases are merged (an
atomic broadcast performs RE and SC at once) and whether sub-sequences loop
(one iteration per operation of a multi-operation transaction).

This module makes the model executable:

* :class:`PhaseStep` / :class:`PhaseDescriptor` — the declarative shape of
  a technique, as drawn in Figures 2-4 and 7-14, able to render itself the
  way Figure 16 tabulates the techniques.
* :class:`PhaseTracer` — runtime recording of phase transitions.  Protocol
  implementations report phases as they happen; the figure benchmarks then
  *verify* that the executed sequence equals the declared one, which is the
  mechanical check that this reproduction matches the paper's diagrams.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..sim import TraceLog

__all__ = [
    "RE",
    "SC",
    "EX",
    "AC",
    "END",
    "PHASE_ORDER",
    "PhaseStep",
    "PhaseDescriptor",
    "PhaseTracer",
]

RE = "RE"
SC = "SC"
EX = "EX"
AC = "AC"
END = "END"

PHASE_ORDER = (RE, SC, EX, AC, END)

# The schema of a phase record: the one keys tuple every phase row shares.
_PHASE_KEYS = ("request", "phase", "mechanism")


@dataclass(frozen=True)
class PhaseStep:
    """One step in a technique's phase sequence.

    ``mechanism`` names what implements the phase (``"abcast"``, ``"2pc"``,
    ``"vscast"``, ``"reconciliation"``, ...).  ``merged_with`` marks phases
    the paper draws as a single box (active replication merges RE and SC
    into the atomic broadcast).
    """

    phase: str
    mechanism: str = ""
    merged_with: Optional[str] = None

    def label(self) -> str:
        name = f"{self.merged_with}+{self.phase}" if self.merged_with else self.phase
        return f"{name}({self.mechanism})" if self.mechanism else name


@dataclass(frozen=True)
class PhaseDescriptor:
    """The declared phase structure of one replication technique.

    ``loop`` marks an inclusive range of step indices repeated once per
    transaction operation (Section 5's modification of the model), e.g.
    eager primary copy for transactions loops over (EX, AC).
    """

    steps: Tuple[PhaseStep, ...]
    loop: Optional[Tuple[int, int]] = None

    def phase_names(self) -> List[str]:
        return [step.phase for step in self.steps]

    def expand(self, iterations: int = 1) -> List[str]:
        """Phase sequence with the loop unrolled ``iterations`` times."""
        if self.loop is None or iterations <= 1:
            return self.phase_names()
        start, stop = self.loop
        head = [step.phase for step in self.steps[:start]]
        body = [step.phase for step in self.steps[start:stop + 1]]
        tail = [step.phase for step in self.steps[stop + 1:]]
        return head + body * iterations + tail

    def render(self) -> str:
        """One-line rendering in the style of Figure 16, e.g.
        ``RE -> [SC -> EX]* -> AC -> END``."""
        parts = []
        for index, step in enumerate(self.steps):
            label = step.label()
            if self.loop is not None:
                if index == self.loop[0]:
                    label = "[" + label
                if index == self.loop[1]:
                    label = label + "]*"
            parts.append(label)
        return " -> ".join(parts)

    def uses(self, phase: str) -> bool:
        return any(
            step.phase == phase or step.merged_with == phase for step in self.steps
        )

    def index_of(self, phase: str) -> int:
        for index, step in enumerate(self.steps):
            if step.phase == phase:
                return index
        return -1

    @property
    def responds_before_agreement(self) -> bool:
        """True for lazy techniques: END precedes AC (Figures 10/11)."""
        end_index, ac_index = self.index_of(END), self.index_of(AC)
        return end_index != -1 and ac_index != -1 and end_index < ac_index

    @property
    def satisfies_strong_consistency_rule(self) -> bool:
        """The Figure 15 rule: an SC and/or AC step comes before END."""
        names = self.phase_names()
        if END not in names:
            return False
        return any(name in (SC, AC) for name in names[:names.index(END)])


def _fold_repeats(sequence: List[str]) -> List[str]:
    """Fold immediately repeated blocks of any length.

    ``[RE, EX, AC, EX, AC, END]`` becomes ``[RE, EX, AC, END]`` — the
    shape a multi-operation transaction's loop iterations collapse to.
    """
    folded = list(sequence)
    changed = True
    while changed:
        changed = False
        for size in range(1, len(folded) // 2 + 1):
            i = 0
            while i + 2 * size <= len(folded):
                if folded[i:i + size] == folded[i + size:i + 2 * size]:
                    del folded[i + size:i + 2 * size]
                    changed = True
                else:
                    i += 1
    return folded


class PhaseTracer:
    """Collects phase transitions emitted by running protocols.

    Records flow into a :class:`~repro.sim.TraceLog` under category
    ``"phase"`` with payload ``request``, ``phase``, ``mechanism``.  The
    observation helpers reconstruct, per request, the phase sequence as it
    unfolded at a given replica or across the system.

    When the log holds an :class:`~repro.obs.Observer`, every record also
    opens a phase *span* there — the previous phase of the same (source,
    request) pair ends when the next begins, turning the paper's phase
    row into measurable per-phase latency.
    """

    def __init__(self, trace: TraceLog) -> None:
        self.trace = trace

    def record(self, source: str, request_id: object, phase: str, mechanism: str = "") -> None:
        """Report that ``source`` entered ``phase`` on behalf of a request."""
        if phase not in PHASE_ORDER:
            raise ValueError(f"unknown phase {phase!r}")
        self.trace.append("phase", source, _PHASE_KEYS, (request_id, phase, mechanism))

    def observed_sequence(
        self,
        request_id: object,
        source: Optional[str] = None,
        collapse: bool = False,
    ) -> List[str]:
        """Phase names recorded for a request, in time order.

        With ``collapse=True`` adjacent repetitions are folded (a 3-op
        transaction's EX,AC,EX,AC,EX,AC collapses to EX,AC) which makes the
        observation comparable to the single-operation descriptor.
        """
        events = self.trace.select(category="phase", source=source, request=request_id)
        phases = [event.data["phase"] for event in events]
        if not collapse:
            return phases
        return _fold_repeats(phases)

    def mechanisms_used(self, request_id: object) -> Dict[str, str]:
        """Map phase -> mechanism observed for a request (last wins)."""
        out: Dict[str, str] = {}
        for event in self.trace.select(category="phase", request=request_id):
            if event.data.get("mechanism"):
                out[event.data["phase"]] = event.data["mechanism"]
        return out

    def matches(
        self,
        descriptor: PhaseDescriptor,
        request_id: object,
        source: Optional[str] = None,
        iterations: int = 1,
    ) -> bool:
        """Whether the observed sequence equals the declared one."""
        expected = descriptor.expand(iterations)
        observed = self.observed_sequence(request_id, source=source)
        return observed == expected
