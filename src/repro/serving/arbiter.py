"""Cross-deployment relocation arbitration.

Each deployment's :class:`~repro.core.coordinator.GlobalCoordinator`
assumes it owns the cluster: nothing stops two coordinators from starting
relocation sessions that saturate the same physical links.  Under the
serving layer every coordinator is an :class:`ArbitratedCoordinator`
holding a shared :class:`RelocationArbiter`: at most one relocation
session runs cluster-wide, a denied coordinator records the holder in its
ledger tick (and sets the ``arbitration_denied`` input so the rule
cascade, live and replayed, skips the branch it was denied) and simply
retries on a later evaluation pass.

A server running a single deployment always gets the slot, so arbitrated
behaviour is byte-identical to the standalone coordinator — the property
the folding differentials rely on.
"""

from __future__ import annotations

from repro.core.coordinator import GlobalCoordinator
from repro.core.policy import _alt

__all__ = ["ArbitratedCoordinator", "RelocationArbiter"]


class RelocationArbiter:
    """Cluster-wide mutual exclusion for relocation sessions.

    Not a lock in the OS sense — everything runs inside one simulator
    event at a time — but a *decision-visible* exclusion: who held the
    slot and who was turned away lands in the ledger.
    """

    def __init__(self) -> None:
        self._holder: str | None = None
        self.denials = 0

    @property
    def holder(self) -> str | None:
        return self._holder

    def acquire(self, name: str) -> bool:
        if self._holder is None or self._holder == name:
            self._holder = name
            return True
        self.denials += 1
        return False

    def release(self, name: str) -> None:
        if self._holder == name:
            self._holder = None


class ArbitratedCoordinator(GlobalCoordinator):
    """A :class:`GlobalCoordinator` that asks the shared arbiter before
    opening a relocation session and returns the slot when the session
    reaches a terminal phase (done or aborted, including the no-parts
    abort)."""

    def __init__(self, *args, arbiter: RelocationArbiter, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.arbiter = arbiter

    # -- decision loop --------------------------------------------------
    def _decide_gc(self, inputs: dict, explain: bool):
        denied = inputs["relocation_enabled"] and not self.arbiter.acquire(
            self.name
        )
        if denied:
            # replay contract: the rule cascade skips the relocation
            # branch exactly when the live coordinator was denied it
            inputs["arbitration_denied"] = True
        decision = super()._decide_gc(inputs, explain)
        action, _, _, alts = decision
        if denied and explain:
            alts.insert(0, _alt(
                "relocate",
                f"arbiter: cluster relocation slot held by "
                f"{self.arbiter.holder!r}",
            ))
        if action != "relocate":
            self.arbiter.release(self.name)
        return decision

    # -- slot release on session end ------------------------------------
    def _release_if_idle(self) -> None:
        if self.session is None or self.session.terminal:
            self.arbiter.release(self.name)

    def _on_ptv(self, message) -> None:
        super()._on_ptv(message)
        self._release_if_idle()

    def _on_resumed(self, message) -> None:
        super()._on_resumed(message)
        self._release_if_idle()

    def _abort_session(self) -> None:
        super()._abort_session()
        self._release_if_idle()
