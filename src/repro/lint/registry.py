"""Rule registry.

Every rule is a function decorated with :func:`rule`; the decorator
records its id, one-line summary, severity and scope.  ``file`` rules run
once per parsed file; ``project`` rules run once per lint invocation with
every file in hand (the message-flow, wait-graph and interference
passes resolve names and class hierarchies across modules, so they need
the whole picture).

``python -m repro.lint --list-rules`` prints this registry, which makes
the decorated docstring the rule's user-facing documentation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional

from .config import DEFAULT_HELP_URI, FAMILY_HELP_URIS

__all__ = ["Rule", "rule", "all_rules", "selected_rules"]


@dataclass(frozen=True)
class Rule:
    id: str
    name: str
    summary: str
    severity: str
    scope: str  # "file" | "project"
    check: Callable
    doc: str
    help_uri: str = DEFAULT_HELP_URI


_REGISTRY: Dict[str, Rule] = {}


def rule(rule_id: str, name: str, severity: str = "error", scope: str = "file"):
    """Register a check function under ``rule_id``.

    The function's docstring becomes the rule documentation; its first
    line is the summary shown by ``--list-rules``.
    """

    def decorate(func: Callable) -> Callable:
        if rule_id in _REGISTRY:
            raise ValueError(f"duplicate rule id {rule_id!r}")
        if scope not in ("file", "project"):
            raise ValueError(f"bad scope {scope!r} for rule {rule_id}")
        doc = (func.__doc__ or "").strip()
        summary = doc.splitlines()[0] if doc else name
        _REGISTRY[rule_id] = Rule(
            id=rule_id, name=name, summary=summary, severity=severity,
            scope=scope, check=func, doc=doc,
            help_uri=FAMILY_HELP_URIS.get(rule_id[:1], DEFAULT_HELP_URI),
        )
        return func

    return decorate


def all_rules() -> List[Rule]:
    return [_REGISTRY[key] for key in sorted(_REGISTRY)]


def selected_rules(
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> List[Rule]:
    """The rules enabled by ``--select``/``--ignore``.

    ``select`` limits the run to the named ids (or id prefixes, so
    ``--select D`` enables the whole determinism family); ``ignore``
    removes ids from whatever is selected.
    """
    chosen = all_rules()
    if select:
        wanted = list(select)
        unknown = [w for w in wanted
                   if not any(r.id == w or r.id.startswith(w) for r in chosen)]
        if unknown:
            raise KeyError(f"unknown rule id(s) in --select: {', '.join(unknown)}")
        chosen = [r for r in chosen
                  if any(r.id == w or r.id.startswith(w) for w in wanted)]
    if ignore:
        dropped = list(ignore)
        chosen = [r for r in chosen
                  if not any(r.id == d or r.id.startswith(d) for d in dropped)]
    return chosen
