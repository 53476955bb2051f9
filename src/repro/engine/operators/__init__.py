"""Operator library of the non-blocking engine.

* :class:`~repro.engine.operators.split.Split` — hash-partitions one input
  stream into many more partitions than machines and routes each partition
  to the machine currently owning it (the Volcano/Flux exchange pattern the
  paper adopts); supports pausing/remapping partitions during relocation.
* :class:`~repro.engine.operators.mjoin.MJoin` /
  :class:`~repro.engine.operators.mjoin.MJoinInstance` — the symmetric
  multi-way hash join, the paper's representative state-intensive operator.
* :class:`~repro.engine.operators.aggregate.GroupByAggregate` — incremental
  grouped aggregation (the ``GROUP BY brokerName, min(price)`` of Query 1).
"""

from repro.engine.operators.aggregate import AggregateUpdate, GroupByAggregate
from repro.engine.operators.base import Operator
from repro.engine.operators.mjoin import MJoin, MJoinInstance
from repro.engine.operators.split import PartitionMap, Split

__all__ = [
    "AggregateUpdate",
    "GroupByAggregate",
    "MJoin",
    "MJoinInstance",
    "Operator",
    "PartitionMap",
    "Split",
]
