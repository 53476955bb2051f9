"""Non-blocking query engine substrate.

Implements the query-processing pieces the paper builds its adaptations on:
tuples and schemas (:mod:`repro.engine.tuples`), the per-instance state
store (:mod:`repro.engine.state_store`), the columnar structure-of-arrays
partition groups, snapshots and batches (:mod:`repro.engine.columns`), the operator library including
the symmetric m-way hash join (:mod:`repro.engine.operators`), stream
sources (:mod:`repro.engine.streams`), partitioned query plans
(:mod:`repro.engine.plan`) and the per-machine query engine
(:mod:`repro.engine.query_engine`).
"""

# NOTE: plan/pipeline are exported from the top-level ``repro`` package
# instead of here — they depend on ``repro.core``, which itself imports
# this package, so re-exporting them here would create an import cycle.
from repro.engine.columns import (
    ColumnarPartitionGroup,
    ColumnBatch,
    FrozenColumnGroup,
)
from repro.engine.state_store import StateStore
from repro.engine.tuples import JoinResult, Schema, StreamTuple

__all__ = [
    "ColumnBatch",
    "ColumnarPartitionGroup",
    "FrozenColumnGroup",
    "JoinResult",
    "Schema",
    "StateStore",
    "StreamTuple",
]
