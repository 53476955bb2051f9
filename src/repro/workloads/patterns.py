"""Time-varying load patterns.

The relocation experiments (Figures 9-10) drive the system with a
worst-case fluctuation: "partitions assigned to machine 1 get 10 times
more tuples than those of machine 2 for the first five minutes.  After
that, machine 2 gets 10 times more tuples than machine 1 ...".
:class:`AlternatingPattern` reproduces exactly that shape; the pattern
interface is a pure function of (partition, time) so generators stay
deterministic.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Sequence


class LoadPattern(ABC):
    """Multiplies a partition's base arrival weight as a function of time."""

    @abstractmethod
    def multiplier(self, pid: int, time: float) -> float:
        """Weight multiplier for partition ``pid`` at simulation ``time``."""

    @abstractmethod
    def phase(self, time: float) -> int:
        """Phase index at ``time``.

        Multipliers are constant within a phase, and the phase never
        decreases as ``time`` grows; generators use this to cache
        cumulative weight tables instead of recomputing them per tuple,
        and to resolve a whole batch's phase from its first and last
        arrival.
        """


class UniformPattern(LoadPattern):
    """No fluctuation: every partition keeps its base weight forever."""

    def multiplier(self, pid: int, time: float) -> float:
        return 1.0

    def phase(self, time: float) -> int:
        return 0

    def __repr__(self) -> str:
        # parameter-complete and address-free: workload reprs feed the
        # serving layer's fold-compatibility signature
        return "UniformPattern()"


class AlternatingPattern(LoadPattern):
    """Cyclically boost disjoint partition sets (Figures 9-10 workload).

    Parameters
    ----------
    pid_groups:
        Disjoint partition-ID sets; during phase ``i`` the partitions of
        ``pid_groups[i % len(pid_groups)]`` receive ``factor`` times their
        base weight.
    period:
        Phase length in seconds (the paper flips every 5 minutes).
    factor:
        Boost multiplier (the paper uses 10x).
    """

    def __init__(self, pid_groups: Sequence[frozenset[int] | set[int]],
                 period: float, factor: float = 10.0) -> None:
        if not pid_groups:
            raise ValueError("need at least one partition group")
        if not period > 0:
            raise ValueError("period must be positive")
        if not factor > 0:
            raise ValueError("factor must be positive")
        seen: set[int] = set()
        for group in pid_groups:
            overlap = seen & set(group)
            if overlap:
                raise ValueError(f"partition groups overlap on {sorted(overlap)!r}")
            seen.update(group)
        self.pid_groups = [frozenset(g) for g in pid_groups]
        self.period = period
        self.factor = factor

    def phase(self, time: float) -> int:
        return int(time // self.period)

    def multiplier(self, pid: int, time: float) -> float:
        active = self.pid_groups[self.phase(time) % len(self.pid_groups)]
        return self.factor if pid in active else 1.0

    def __repr__(self) -> str:
        groups = [sorted(g) for g in self.pid_groups]
        return (
            f"AlternatingPattern(pid_groups={groups!r}, "
            f"period={self.period!r}, factor={self.factor!r})"
        )


class DiurnalPattern(LoadPattern):
    """Smooth day/night load rotation across partition "regions".

    Each partition group models a region whose demand peaks once per
    ``period``, with the peaks evenly staggered across groups (group ``i``
    peaks at phase offset ``i / len(pid_groups)``).  The elasticity
    scenarios drive scale-out/scale-in against this shape: as the hot
    region rotates, the balanced placement rotates with it.

    The continuous sinusoid is quantized into ``steps`` constant plateaus
    per period so the generator's per-phase cumulative-weight cache stays
    effective (the :meth:`phase` contract requires multipliers constant
    within a phase).

    Parameters
    ----------
    pid_groups:
        Disjoint partition-ID sets, one per region.
    period:
        Length of one full day/night cycle in seconds.
    factor:
        Peak-to-trough weight ratio (a region at its peak gets ``factor``
        times its off-peak weight).
    steps:
        Constant plateaus per period (24 = hourly resolution of a day).
    """

    def __init__(self, pid_groups: Sequence[frozenset[int] | set[int]],
                 period: float, factor: float = 4.0, steps: int = 24) -> None:
        if not pid_groups:
            raise ValueError("need at least one partition group")
        if not period > 0:
            raise ValueError("period must be positive")
        if not factor >= 1:
            raise ValueError("factor must be >= 1")
        if steps < 2:
            raise ValueError("need at least two steps per period")
        seen: set[int] = set()
        for group in pid_groups:
            overlap = seen & set(group)
            if overlap:
                raise ValueError(f"partition groups overlap on {sorted(overlap)!r}")
            seen.update(group)
        self.pid_groups = [frozenset(g) for g in pid_groups]
        self.period = period
        self.factor = factor
        self.steps = steps
        self._offset_of = {
            pid: i / len(self.pid_groups)
            for i, group in enumerate(self.pid_groups)
            for pid in group
        }

    def phase(self, time: float) -> int:
        return int(time // (self.period / self.steps))

    def multiplier(self, pid: int, time: float) -> float:
        offset = self._offset_of.get(pid)
        if offset is None:
            return 1.0
        # evaluate at the plateau's left edge so the multiplier is a pure
        # function of the phase index (generator cache contract)
        frac = (self.phase(time) / self.steps) % 1.0
        # raised cosine in [0, 1], peaking when frac == offset
        bump = 0.5 * (1.0 + math.cos(2.0 * math.pi * (frac - offset)))
        return 1.0 + (self.factor - 1.0) * bump

    def __repr__(self) -> str:
        groups = [sorted(g) for g in self.pid_groups]
        return (
            f"DiurnalPattern(pid_groups={groups!r}, period={self.period!r}, "
            f"factor={self.factor!r}, steps={self.steps!r})"
        )
