"""Open-loop load generator for the ``serve`` workload.

The benchmark owns its traffic: this module, not ``repro.serve.loadgen``,
builds the requests and the arrival schedule, so a change to the
program's own load generator cannot change what the benchmark sends. It
reaches the program only through ``DecisionServer.decide`` and
``DecisionServer.stop``.

Arrivals are an open loop (independent networks asking on their own
schedule, not waiting for each other): seeded exponential gaps at a
fixed nominal rate. Each request is timed from the moment it was *due*,
so a stall also charges the wait it imposes on the requests behind it,
and the generator reports how late it ran. A request still unanswered
``timeout_s`` after its due time counts as timed out: a stranded batch
fails its requests instead of stalling the run.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field

import numpy as np

#: The Fig. 9(a) per-decision budget of the paper's DQN defence.
LATENCY_LIMIT_S = 0.009


@dataclass
class Traffic:
    """Seeded requests: network, policy and observation of each."""

    networks: np.ndarray
    policies: np.ndarray
    observations: np.ndarray

    def __len__(self) -> int:
        return len(self.networks)


def make_traffic(
    rng: np.random.Generator,
    count: int,
    *,
    num_networks: int,
    num_policies: int,
    history_length: int,
    num_channels: int,
    num_power_levels: int,
) -> Traffic:
    """``count`` requests from random networks with paper-shaped histories.

    Each observation is ``history_length`` slots of (outcome, channel,
    power), encoded exactly as the deployed DQN adapter encodes them:
    outcome in {0, 0.5, 1}, channel and power scaled to [0, 1]. Network
    ``i`` is served by policy ``i mod num_policies``.
    """
    networks = rng.integers(0, num_networks, size=count)
    outcome = rng.choice(np.array([0.0, 0.5, 1.0]), size=(count, history_length))
    channel = rng.integers(0, num_channels, size=(count, history_length))
    power = rng.integers(0, num_power_levels, size=(count, history_length))
    observations = np.stack(
        [
            outcome,
            channel / max(num_channels - 1, 1),
            power / max(num_power_levels - 1, 1),
        ],
        axis=2,
    ).reshape(count, 3 * history_length)
    return Traffic(networks, networks % num_policies, observations)


@dataclass
class PhaseResult:
    """Outcome of one open-loop phase at one nominal rate."""

    rate: float
    sent: int
    latencies_s: np.ndarray  # from due time; +inf for a failed request
    actions: np.ndarray  # -1 where no action came back
    waits_s: list = field(default_factory=list)  # server-side queue waits
    late_s: list = field(default_factory=list)  # generator lateness
    timeouts: int = 0
    shed: int = 0
    errors: int = 0
    backlog_grew: bool = False

    @property
    def failed(self) -> int:
        return self.timeouts + self.shed + self.errors

    def quantile_ms(self, q: float) -> float:
        return float(np.quantile(self.latencies_s, q)) * 1000.0

    def meets_limit(self) -> bool:
        """p99 within the budget, nothing failed, and no growing backlog."""
        return (
            self.failed == 0
            and not self.backlog_grew
            and self.quantile_ms(0.99) <= LATENCY_LIMIT_S * 1000.0
        )


async def run_phase(
    server,
    traffic: Traffic,
    rate: float,
    gaps: np.ndarray,
    *,
    timeout_s: float,
    backlog_slack: int,
    on_request=None,
) -> PhaseResult:
    """Send ``traffic`` on the schedule ``gaps / rate`` and wait for answers.

    ``on_request(index, due_ns, end_ns)`` is called for each answered
    request (the traced run records it as a span).
    """
    from repro.serve.batcher import ShedDecision

    n = len(traffic)
    due = np.cumsum(gaps[:n]) / rate
    latencies = np.full(n, np.inf)
    actions = np.full(n, -1, dtype=np.int64)
    result = PhaseResult(rate=rate, sent=n, latencies_s=latencies, actions=actions)
    clock = time.perf_counter
    start = clock() + 0.001
    due_at = start + due
    outstanding: list[int] = []

    async def one(i: int) -> None:
        try:
            decision = await server.decide(
                int(traffic.networks[i]),
                int(traffic.policies[i]),
                traffic.observations[i],
            )
        except asyncio.CancelledError:
            raise
        except Exception:  # counted: any error fails its request
            result.errors += 1
            return
        end = clock()
        if isinstance(decision, ShedDecision):
            result.shed += 1
            return
        latencies[i] = end - due_at[i]
        actions[i] = decision.action
        result.waits_s.append(decision.latency_s)
        if on_request is not None:
            on_request(i, int(due_at[i] * 1e9), int(end * 1e9))

    # Only requests in flight are referenced, so finished requests leave
    # no long-lived objects behind for the garbage collector to scan.
    inflight: set = set()
    i = 0
    while i < n:
        now = clock()
        while i < n and due_at[i] <= now:
            result.late_s.append(now - due_at[i])
            task = asyncio.ensure_future(one(i))
            inflight.add(task)
            task.add_done_callback(inflight.discard)
            i += 1
        outstanding.append(len(inflight))
        if i < n:
            await asyncio.sleep(max(due_at[i] - clock(), 0.0))
    if inflight:
        remaining = due_at[-1] + timeout_s - clock()
        _, pending = await asyncio.wait(set(inflight), timeout=max(remaining, 0.0))
        for task in pending:
            task.cancel()
        if pending:
            await asyncio.wait(pending)
    # Errors and sheds also leave an infinite latency; the rest are timeouts.
    result.timeouts = int((latencies > timeout_s).sum()) - result.errors - result.shed
    # Backlog: requests in flight over the last quarter of the schedule
    # against the first quarter; a queue that keeps growing is past the knee.
    quarter = max(len(outstanding) // 4, 1)
    result.backlog_grew = (
        float(np.mean(outstanding[-quarter:]))
        > float(np.mean(outstanding[:quarter])) + backlog_slack
    )
    return result


__all__ = [
    "LATENCY_LIMIT_S",
    "Traffic",
    "make_traffic",
    "PhaseResult",
    "run_phase",
]
