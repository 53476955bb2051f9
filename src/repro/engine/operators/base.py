"""Operator base classes.

Operators here are *logic* objects: they transform items and report state
statistics, while the hosting :class:`~repro.engine.query_engine.QueryEngine`
owns scheduling (wrapping calls in machine tasks with the configured CPU
costs) and transport (shipping outputs across the network).  This mirrors
the paper's architecture where the engine's processing loop drives operator
code and the adaptation controllers act on operator state from outside.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Iterable


class Operator(ABC):
    """Common base: a named transformation of stream items."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.inputs_seen = 0
        self.outputs_emitted = 0

    @abstractmethod
    def process(self, item: Any) -> Iterable[Any]:
        """Transform one input item into zero or more output items."""

    @property
    def state_bytes(self) -> int:
        """Accounted operator-state footprint.  Stateless operators report 0;
        the paper distributes them freely because of exactly this property."""
        return 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r})"
