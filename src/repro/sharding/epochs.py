"""Epoch schedule bookkeeping.

The sharded blockchain works in epochs (Section 5.1): every epoch starts with
distributed randomness generation, followed by committee (re-)assignment and
the batched migration of transitioning nodes.  :class:`EpochSchedule` tracks
the sequence of assignments and the transition windows.

This schedule is *live*: every :class:`repro.core.system.ShardedBlockchain`
carries one.  Epoch 0 (the initial assignment) is recorded at construction;
each transition — automatic at an ``epoch_duration`` boundary or explicit via
``perform_reconfiguration`` — appends the next epoch's record when the beacon
randomness is locked in and marks it complete when the last transitioning
node has finished its state transfer and joined its new committee, so
``transition_completed_at`` brackets exactly the window in which committees
ran with absent members.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.errors import ShardingError
from repro.sharding.committee import CommitteeAssignment


@dataclass
class EpochRecord:
    """One epoch: its assignment and transition timing."""

    epoch: int
    assignment: CommitteeAssignment
    started_at: float
    transition_completed_at: Optional[float] = None


@dataclass
class EpochSchedule:
    """The history of epochs of a sharded blockchain deployment."""

    epoch_duration: float = 600.0
    records: List[EpochRecord] = field(default_factory=list)

    @property
    def current_epoch(self) -> int:
        if not self.records:
            return -1
        return self.records[-1].epoch

    def start_epoch(self, assignment: CommitteeAssignment, now: float) -> EpochRecord:
        """Record the start of a new epoch with the given assignment."""
        if self.records and assignment.epoch <= self.records[-1].epoch:
            raise ShardingError(
                f"epoch {assignment.epoch} does not advance beyond {self.records[-1].epoch}"
            )
        record = EpochRecord(epoch=assignment.epoch, assignment=assignment, started_at=now)
        self.records.append(record)
        return record

    def complete_transition(self, now: float) -> None:
        """Mark the current epoch's transition period as finished."""
        if not self.records:
            raise ShardingError("no epoch has started yet")
        self.records[-1].transition_completed_at = now

    def next_epoch_due(self, now: float) -> bool:
        """True if the epoch duration has elapsed since the current epoch started."""
        if not self.records:
            return True
        return now >= self.records[-1].started_at + self.epoch_duration
