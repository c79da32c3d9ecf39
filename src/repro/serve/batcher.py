"""Micro-batching scheduler for the decision service.

Concurrent decision requests are coalesced under a size-or-deadline
trigger into single stacked forward passes through the
:class:`~repro.serve.store.PolicyStore`, with results fanned back per
request. The paper's latency budget (Fig. 9: ~9 ms per DQN decision plus
13.1 ms of polling overhead) is the design constraint: a batch must
flush either when it is full (``REPRO_SERVE_BATCH``) or when its oldest
request has waited the deadline (``REPRO_SERVE_DEADLINE_MS``), never
later.

Admission control mirrors :mod:`repro.exec.faults` semantics — a typed
sentinel instead of an exception, and a degrade-to-serial fallback
instead of a hard failure:

* ``queue`` — when the queue is full, flush immediately to make room
  (the sync analogue of blocking until capacity frees up).
* ``shed`` — refuse the request with a :class:`ShedDecision` sentinel,
  the analogue of ``faults.TaskFailure`` for skipped tasks.
* ``degrade`` — answer the overflow request serially right away
  (batch of one), the analogue of the process pool degrading to serial
  execution after a pool failure.

All timing flows through a clock object, so driving the batcher with a
:class:`~repro.serve.clock.VirtualClock` makes every flush instant — and
therefore every recorded latency — exactly reproducible.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.obs.metrics import METRICS
from repro.serve.clock import MonotonicClock
from repro.serve.store import PolicyStore

#: Environment variable selecting the maximum decisions per stacked forward.
SERVE_BATCH_ENV = "REPRO_SERVE_BATCH"

#: Default batch size when nothing is configured.
DEFAULT_SERVE_BATCH = 64

#: Environment variable bounding how long a request may wait for peers (ms).
SERVE_DEADLINE_ENV = "REPRO_SERVE_DEADLINE_MS"

#: Default deadline: well inside the paper's ~9 ms per-decision budget.
DEFAULT_SERVE_DEADLINE_MS = 2.0

#: Environment variable bounding the pending-request queue depth.
SERVE_QUEUE_ENV = "REPRO_SERVE_QUEUE"

#: Default queue bound.
DEFAULT_SERVE_QUEUE = 256

#: Environment variable selecting the admission-control mode.
SERVE_ADMISSION_ENV = "REPRO_SERVE_ADMISSION"

#: Admission-control modes (see module docstring).
ADMISSION_MODES = ("queue", "shed", "degrade")

DEFAULT_SERVE_ADMISSION = "queue"


def _resolve_positive_int(
    value: int | str | None, env: str, default: int
) -> int:
    if value is None:
        value = os.environ.get(env, "")
    if isinstance(value, str):
        text = value.strip()
        if not text:
            return default
        try:
            value = int(text)
        except ValueError:
            raise ConfigurationError(
                f"{env} must be an integer, got {value!r}"
            ) from None
    result = int(value)
    if result < 1:
        raise ConfigurationError(f"{env} must be >= 1, got {result}")
    return result


def resolve_serve_batch(value: int | str | None = None) -> int:
    """Max decisions per stacked forward (override or ``REPRO_SERVE_BATCH``)."""
    return _resolve_positive_int(value, SERVE_BATCH_ENV, DEFAULT_SERVE_BATCH)


def resolve_serve_queue(value: int | str | None = None) -> int:
    """Pending-queue bound (override or ``REPRO_SERVE_QUEUE``)."""
    return _resolve_positive_int(value, SERVE_QUEUE_ENV, DEFAULT_SERVE_QUEUE)


def resolve_serve_deadline_ms(value: float | str | None = None) -> float:
    """Batching deadline in ms (override or ``REPRO_SERVE_DEADLINE_MS``)."""
    if value is None:
        value = os.environ.get(SERVE_DEADLINE_ENV, "")
    if isinstance(value, str):
        text = value.strip()
        if not text:
            return DEFAULT_SERVE_DEADLINE_MS
        try:
            value = float(text)
        except ValueError:
            raise ConfigurationError(
                f"{SERVE_DEADLINE_ENV} must be a number of milliseconds, "
                f"got {value!r}"
            ) from None
    deadline = float(value)
    if deadline < 0:
        raise ConfigurationError(
            f"{SERVE_DEADLINE_ENV} must be >= 0, got {deadline}"
        )
    return deadline


def resolve_serve_admission(value: str | None = None) -> str:
    """Admission mode (override or ``REPRO_SERVE_ADMISSION``)."""
    if value is None:
        value = os.environ.get(SERVE_ADMISSION_ENV, "")
    text = value.strip().lower()
    if not text:
        return DEFAULT_SERVE_ADMISSION
    if text not in ADMISSION_MODES:
        raise ConfigurationError(
            f"{SERVE_ADMISSION_ENV} must be one of {ADMISSION_MODES}, "
            f"got {value!r}"
        )
    return text


@dataclass(frozen=True)
class DecisionRequest:
    """One network asking "which action next?"."""

    network_id: int
    policy: int
    observation: np.ndarray
    submitted_at: float


@dataclass(frozen=True)
class Decision:
    """A served action, annotated with how it was served."""

    network_id: int
    action: int
    batch_size: int
    latency_s: float
    degraded: bool = False


@dataclass(frozen=True)
class ShedDecision:
    """Typed refusal sentinel (the ``TaskFailure`` of the serving layer)."""

    network_id: int
    queue_depth: int
    reason: str = "queue-full"


class MicroBatcher:
    """Synchronous size-or-deadline micro-batcher over a policy store.

    :meth:`submit` returns whatever decisions the submission caused to be
    served (a full batch flushing, an admission outcome) — usually an
    empty list while the batch is still filling. The driver is
    responsible for polling :meth:`poll` when :meth:`next_deadline`
    passes and calling :meth:`drain` at the end; the asyncio front-end in
    :mod:`repro.serve.server` automates exactly that against the wall
    clock.
    """

    def __init__(
        self,
        store: PolicyStore,
        *,
        max_batch: int | str | None = None,
        deadline_ms: float | str | None = None,
        queue_limit: int | str | None = None,
        admission: str | None = None,
        clock=None,
    ) -> None:
        self.store = store
        self.max_batch = resolve_serve_batch(max_batch)
        self.deadline_s = resolve_serve_deadline_ms(deadline_ms) / 1000.0
        self.queue_limit = resolve_serve_queue(queue_limit)
        self.admission = resolve_serve_admission(admission)
        self.clock = clock if clock is not None else MonotonicClock()
        self._pending: list[DecisionRequest] = []

    @property
    def pending_depth(self) -> int:
        return len(self._pending)

    def next_deadline(self) -> float | None:
        """When the oldest pending request must be flushed (None if idle)."""
        if not self._pending:
            return None
        return self._pending[0].submitted_at + self.deadline_s

    def submit(
        self, network_id: int, policy: int, observation: np.ndarray
    ) -> list[Decision | ShedDecision]:
        """Enqueue one request; returns any decisions this submit produced.

        A malformed request raises :class:`~repro.errors.ConfigurationError`
        here, before it is queued, so it cannot fail a batch of others.
        """
        policy, observation = self.store.check_request(policy, observation)
        now = self.clock.now()
        produced: list[Decision | ShedDecision] = []
        if len(self._pending) >= self.queue_limit:
            if self.admission == "shed":
                METRICS.inc("serve.shed")
                return [
                    ShedDecision(
                        network_id=int(network_id),
                        queue_depth=len(self._pending),
                    )
                ]
            if self.admission == "degrade":
                METRICS.inc("serve.degraded")
                METRICS.inc("serve.decisions")
                action = self.store.decide_serial(policy, observation)
                METRICS.observe("serve.batch_size", 1)
                METRICS.observe("serve.latency_s", 0.0)
                return [
                    Decision(
                        network_id=int(network_id),
                        action=action,
                        batch_size=1,
                        latency_s=0.0,
                        degraded=True,
                    )
                ]
            # queue: flush immediately to make room.
            produced.extend(self._flush(now))
        self._pending.append(
            DecisionRequest(
                network_id=int(network_id),
                policy=policy,
                observation=observation,
                submitted_at=now,
            )
        )
        if len(self._pending) >= self.max_batch:
            produced.extend(self._flush(now))
        return produced

    def poll(self, now: float | None = None) -> list[Decision]:
        """Flush if the oldest pending request's deadline has passed."""
        if now is None:
            now = self.clock.now()
        deadline = self.next_deadline()
        if deadline is None or now < deadline:
            return []
        return self._flush(now)

    def drain(self) -> list[Decision]:
        """Flush everything still pending (graceful shutdown)."""
        return self._flush(self.clock.now())

    def _flush(self, now: float) -> list[Decision]:
        if not self._pending:
            return []
        batch = self._pending[: self.max_batch]
        self._pending = self._pending[self.max_batch :]
        policies = np.array([r.policy for r in batch], dtype=np.intp)
        observations = np.stack([r.observation for r in batch])
        actions = self.store.decide_batch(policies, observations)
        METRICS.inc("serve.decisions", len(batch))
        METRICS.inc("serve.batches")
        METRICS.observe("serve.batch_size", len(batch))
        latencies = [max(now - r.submitted_at, 0.0) for r in batch]
        METRICS.observe_many("serve.latency_s", latencies)
        return [
            Decision(
                network_id=request.network_id,
                action=int(action),
                batch_size=len(batch),
                latency_s=latency,
            )
            for request, action, latency in zip(batch, actions, latencies)
        ]


__all__ = [
    "SERVE_BATCH_ENV",
    "DEFAULT_SERVE_BATCH",
    "SERVE_DEADLINE_ENV",
    "DEFAULT_SERVE_DEADLINE_MS",
    "SERVE_QUEUE_ENV",
    "DEFAULT_SERVE_QUEUE",
    "SERVE_ADMISSION_ENV",
    "ADMISSION_MODES",
    "DEFAULT_SERVE_ADMISSION",
    "resolve_serve_batch",
    "resolve_serve_deadline_ms",
    "resolve_serve_queue",
    "resolve_serve_admission",
    "DecisionRequest",
    "Decision",
    "ShedDecision",
    "MicroBatcher",
]
