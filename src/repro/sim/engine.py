"""Generic slotted simulation loop.

Both the abstract environments and the field experiment advance in fixed
time slots. :class:`SlottedSimulation` centralises the loop plumbing —
clock, slot counter, per-slot records, deterministic seeding — so concrete
simulations only implement :meth:`run_slot`. :class:`UniformStream` is the
shared sampling substrate of the aggregate ("fixed draw budget") sampling
mode: one generator consumed block-wise, with a block size that provably
cannot change the values drawn.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from functools import partial
from typing import Any, Generic, TypeVar

import numpy as np

from repro import config
from repro.errors import ConfigurationError, SimulationError
from repro.obs import trace as obs_trace
from repro.rng import SeedLike, make_rng

RecordT = TypeVar("RecordT")

#: Environment variable selecting how many slots' worth of uniforms the
#: aggregate sampling mode draws per stream refill.
FIELD_BATCH_ENV = "REPRO_FIELD_BATCH"

#: Default slots per refill when nothing is configured.
DEFAULT_FIELD_BATCH = config.KNOBS[FIELD_BATCH_ENV].default

#: Stream refill size from an override or ``REPRO_FIELD_BATCH``. Any value
#: is bit-identical to any other: ``Generator.random(n)`` produces exactly
#: the doubles ``n`` sequential ``random()`` calls would, so blocking only
#: changes buffering.
resolve_field_batch = partial(config.resolve, FIELD_BATCH_ENV)


def check_num_slots(num_slots: int) -> int:
    """Validate a slot budget (shared by every slotted engine)."""
    if num_slots < 1:
        raise SimulationError("must run at least one slot")
    return int(num_slots)


class UniformStream:
    """A generator consumed as fixed-size per-slot batches of uniforms.

    The aggregate sampling mode spends a *fixed* number of uniform draws
    per slot, so the stream can be prefetched in blocks of
    ``block_slots * draws_per_slot`` doubles. Consumption is a sequential
    prefix of the generator's output for any block size, which is what
    makes ``REPRO_FIELD_BATCH`` a pure performance knob.
    """

    def __init__(
        self,
        rng: SeedLike,
        draws_per_slot: int,
        *,
        block_slots: int | str | None = None,
    ) -> None:
        if draws_per_slot < 1:
            raise ConfigurationError("draws_per_slot must be >= 1")
        self._rng = make_rng(rng)
        self._draws = int(draws_per_slot)
        self._block = resolve_field_batch(block_slots) * self._draws
        self._buffer = np.empty(0)
        self._cursor = 0

    def next_slot(self) -> np.ndarray:
        """The next slot's ``draws_per_slot`` uniforms (a read-only view)."""
        if self._cursor >= self._buffer.size:
            self._buffer = self._rng.random(self._block)
            self._cursor = 0
        out = self._buffer[self._cursor : self._cursor + self._draws]
        self._cursor += self._draws
        return out


@dataclass(frozen=True)
class SlotRecord:
    """Default per-slot record: a slot index plus free-form payload."""

    slot: int
    payload: Any


class SlottedSimulation(abc.ABC, Generic[RecordT]):
    """Base class driving a slot-by-slot simulation."""

    def __init__(self, slot_duration_s: float, *, seed: SeedLike = None) -> None:
        if slot_duration_s <= 0:
            raise SimulationError("slot duration must be positive")
        self.slot_duration_s = float(slot_duration_s)
        self.rng = make_rng(seed)
        self.current_slot = 0
        self.records: list[RecordT] = []

    @property
    def now(self) -> float:
        """Simulation time at the start of the current slot."""
        return self.current_slot * self.slot_duration_s

    @abc.abstractmethod
    def run_slot(self, slot_index: int, start_time: float) -> RecordT:
        """Execute one slot and return its record."""

    def run(self, num_slots: int) -> list[RecordT]:
        """Run ``num_slots`` slots, appending to :attr:`records`.

        :attr:`records` accumulates across calls (the simulation clock
        keeps advancing); the return value holds only the records this
        call produced.
        """
        num_slots = check_num_slots(num_slots)
        new: list[RecordT] = []
        with obs_trace.span(
            "sim/run", sim=type(self).__name__, slots=num_slots
        ):
            for _ in range(num_slots):
                record = self.run_slot(self.current_slot, self.now)
                new.append(record)
                self.current_slot += 1
        self.records.extend(new)
        return new

    def reset_records(self) -> None:
        self.records.clear()


__all__ = [
    "FIELD_BATCH_ENV",
    "DEFAULT_FIELD_BATCH",
    "resolve_field_batch",
    "check_num_slots",
    "UniformStream",
    "SlotRecord",
    "SlottedSimulation",
]
