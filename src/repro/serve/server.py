"""Asyncio front-end for the decision service.

:class:`DecisionServer` exposes one coroutine — :meth:`DecisionServer.decide`
— to any number of concurrent client tasks. Requests accumulate in a
bounded pending queue; a batch flushes when it reaches ``max_batch`` or
when the oldest request has waited ``deadline_ms`` (armed with
``loop.call_at``), and each flush runs one stacked forward through the
:class:`~repro.serve.store.PolicyStore`, resolving every waiter's future
with its own :class:`~repro.serve.batcher.Decision`.

Admission control mirrors :mod:`repro.exec.faults` semantics exactly as
the synchronous :class:`~repro.serve.batcher.MicroBatcher` does, except
that ``queue`` mode can do the natural thing here: suspend the caller on
an event until a flush frees capacity. ``shed`` returns the typed
:class:`~repro.serve.batcher.ShedDecision` sentinel, ``degrade`` answers
the overflow request serially (batch of one) without waiting.

``stop()`` drains gracefully: new submissions are refused, everything
already queued is flushed and answered, then queued waiters are released.
"""

from __future__ import annotations

import asyncio

import numpy as np

from repro.errors import ExecutionError
from repro.obs.metrics import METRICS
from repro.serve.batcher import (
    Decision,
    DecisionRequest,
    ShedDecision,
    resolve_serve_admission,
    resolve_serve_batch,
    resolve_serve_deadline_ms,
    resolve_serve_queue,
)
from repro.serve.store import PolicyStore


class DecisionServer:
    """Bounded-queue asyncio decision service over a policy store."""

    def __init__(
        self,
        store: PolicyStore,
        *,
        max_batch: int | str | None = None,
        deadline_ms: float | str | None = None,
        queue_limit: int | str | None = None,
        admission: str | None = None,
    ) -> None:
        self.store = store
        self.max_batch = resolve_serve_batch(max_batch)
        self.deadline_s = resolve_serve_deadline_ms(deadline_ms) / 1000.0
        self.queue_limit = resolve_serve_queue(queue_limit)
        self.admission = resolve_serve_admission(admission)
        self._pending: list[tuple[DecisionRequest, asyncio.Future]] = []
        self._timer: asyncio.TimerHandle | None = None
        self._space: asyncio.Event | None = None
        self._closed = False

    @property
    def pending_depth(self) -> int:
        return len(self._pending)

    @property
    def closed(self) -> bool:
        return self._closed

    # -- client API ------------------------------------------------------------

    async def decide(
        self, network_id: int, policy: int, observation: np.ndarray
    ) -> Decision | ShedDecision:
        """Answer one decision request (may wait for peers to batch with).

        A malformed request raises :class:`~repro.errors.ConfigurationError`
        to this caller alone; it never enters the queue.
        """
        policy, observation = self.store.check_request(policy, observation)
        loop = asyncio.get_running_loop()
        if self._space is None:
            self._space = asyncio.Event()
        while True:
            if self._closed:
                raise ExecutionError("decision server is draining")
            if len(self._pending) < self.queue_limit:
                break
            if self.admission == "shed":
                METRICS.inc("serve.shed")
                return ShedDecision(
                    network_id=int(network_id),
                    queue_depth=len(self._pending),
                )
            if self.admission == "degrade":
                started = loop.time()
                action = self.store.decide_serial(policy, observation)
                latency = loop.time() - started
                METRICS.inc("serve.degraded")
                METRICS.inc("serve.decisions")
                METRICS.observe("serve.batch_size", 1)
                METRICS.observe("serve.latency_s", latency)
                return Decision(
                    network_id=int(network_id),
                    action=action,
                    batch_size=1,
                    latency_s=latency,
                    degraded=True,
                )
            # queue: wait until a flush frees capacity, then re-check.
            self._space.clear()
            await self._space.wait()
        request = DecisionRequest(
            network_id=int(network_id),
            policy=policy,
            observation=observation,
            submitted_at=loop.time(),
        )
        future: asyncio.Future = loop.create_future()
        self._pending.append((request, future))
        if len(self._pending) >= self.max_batch:
            self._flush(loop)
        elif self._timer is None:
            self._timer = loop.call_at(
                self._pending[0][0].submitted_at + self.deadline_s,
                self._on_deadline,
                loop,
            )
        return await future

    # -- lifecycle -------------------------------------------------------------

    async def stop(self) -> None:
        """Refuse new work, answer everything queued, release waiters."""
        self._closed = True
        loop = asyncio.get_running_loop()
        while self._pending:
            self._flush(loop)
        if self._space is not None:
            self._space.set()
        # Let resolved futures' awaiters run before we return.
        await asyncio.sleep(0)

    # -- internals -------------------------------------------------------------

    def _on_deadline(self, loop: asyncio.AbstractEventLoop) -> None:
        self._timer = None
        if self._pending:
            self._flush(loop)

    def _flush(self, loop: asyncio.AbstractEventLoop) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        batch = self._pending[: self.max_batch]
        self._pending = self._pending[self.max_batch :]
        if not batch:
            return
        now = loop.time()
        try:
            actions = self.store.decide_batch(
                np.array([r.policy for r, _ in batch], dtype=np.intp),
                np.stack([r.observation for r, _ in batch]),
            )
        except Exception as exc:
            # Every waiter of the failed batch learns why; none hangs.
            for _, future in batch:
                if not future.done():
                    future.set_exception(exc)
        else:
            METRICS.inc("serve.decisions", len(batch))
            METRICS.inc("serve.batches")
            METRICS.observe("serve.batch_size", len(batch))
            latencies = [max(now - r.submitted_at, 0.0) for r, _ in batch]
            METRICS.observe_many("serve.latency_s", latencies)
            for (request, future), action, latency in zip(
                batch, actions, latencies
            ):
                if not future.done():
                    future.set_result(
                        Decision(
                            network_id=request.network_id,
                            action=int(action),
                            batch_size=len(batch),
                            latency_s=latency,
                        )
                    )
        if self._space is not None and len(self._pending) < self.queue_limit:
            self._space.set()
        if self._pending and self._timer is None:
            self._timer = loop.call_at(
                self._pending[0][0].submitted_at + self.deadline_s,
                self._on_deadline,
                loop,
            )


__all__ = ["DecisionServer"]
