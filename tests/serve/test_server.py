"""DecisionServer: asyncio batching end-to-end, admission, graceful drain."""

import asyncio

import numpy as np
import pytest

from repro.errors import ConfigurationError, ExecutionError
from repro.nn.network import mlp
from repro.serve import Decision, DecisionServer, PolicyStore, ShedDecision


def store_of(policies=2):
    return PolicyStore([mlp(6, (8,), 5, seed=i) for i in range(policies)])


def run(coro):
    return asyncio.run(coro)


class TestBatchingEndToEnd:
    def test_concurrent_clients_share_one_batch(self):
        store = store_of()
        observations = [
            np.random.default_rng(i).random(store.observation_size)
            for i in range(8)
        ]

        async def main():
            server = DecisionServer(
                store, max_batch=8, deadline_ms=1000, queue_limit=64
            )
            results = await asyncio.gather(
                *(
                    server.decide(i, i % 2, observations[i])
                    for i in range(8)
                )
            )
            await server.stop()
            return results

        results = run(main())
        assert all(isinstance(r, Decision) for r in results)
        # all eight coalesced into one stacked forward
        assert {r.batch_size for r in results} == {8}
        serial = [
            store.decide_serial(i % 2, observations[i]) for i in range(8)
        ]
        assert [r.action for r in results] == serial

    def test_deadline_flushes_partial_batch(self):
        store = store_of()

        async def main():
            server = DecisionServer(
                store, max_batch=64, deadline_ms=5, queue_limit=64
            )
            result = await server.decide(
                0, 0, np.zeros(store.observation_size)
            )
            await server.stop()
            return result

        result = run(main())
        assert isinstance(result, Decision)
        assert result.batch_size == 1
        # the deadline timer, not a full batch, released this decision
        assert result.latency_s >= 0.004

    def test_stop_drains_pending(self):
        store = store_of()

        async def main():
            server = DecisionServer(
                store, max_batch=64, deadline_ms=10_000, queue_limit=64
            )
            task = asyncio.create_task(
                server.decide(0, 0, np.zeros(store.observation_size))
            )
            await asyncio.sleep(0)  # let the request enqueue
            assert server.pending_depth == 1
            await server.stop()
            result = await task
            with pytest.raises(ExecutionError, match="draining"):
                await server.decide(1, 0, np.zeros(store.observation_size))
            return result

        result = run(main())
        assert isinstance(result, Decision)


class TestAdmission:
    def _fill(self, server, store, n):
        return [
            asyncio.create_task(
                server.decide(i, 0, np.zeros(store.observation_size))
            )
            for i in range(n)
        ]

    def test_shed_when_queue_full(self):
        store = store_of()

        async def main():
            server = DecisionServer(
                store,
                max_batch=64,
                deadline_ms=10_000,
                queue_limit=2,
                admission="shed",
            )
            tasks = self._fill(server, store, 2)
            await asyncio.sleep(0)
            shed = await server.decide(
                9, 0, np.zeros(store.observation_size)
            )
            await server.stop()
            await asyncio.gather(*tasks)
            return shed

        shed = run(main())
        assert isinstance(shed, ShedDecision)
        assert shed.network_id == 9

    def test_degrade_when_queue_full(self):
        store = store_of()
        obs = np.random.default_rng(3).random(store.observation_size)

        async def main():
            server = DecisionServer(
                store,
                max_batch=64,
                deadline_ms=10_000,
                queue_limit=2,
                admission="degrade",
            )
            tasks = self._fill(server, store, 2)
            await asyncio.sleep(0)
            result = await server.decide(9, 1, obs)
            await server.stop()
            await asyncio.gather(*tasks)
            return result

        result = run(main())
        assert isinstance(result, Decision)
        assert result.degraded
        assert result.batch_size == 1
        assert result.action == store.decide_serial(1, obs)

    def test_queue_mode_waits_for_space(self):
        store = store_of()

        async def main():
            server = DecisionServer(
                store,
                max_batch=64,
                deadline_ms=5,
                queue_limit=2,
                admission="queue",
            )
            tasks = self._fill(server, store, 2)
            await asyncio.sleep(0)
            # queue full; this waits for the deadline flush to free space
            late = await server.decide(
                9, 0, np.zeros(store.observation_size)
            )
            await server.stop()
            early = await asyncio.gather(*tasks)
            return early, late

        early, late = run(main())
        assert all(isinstance(r, Decision) for r in early)
        assert isinstance(late, Decision)


class TestFailureIsolation:
    """One malformed request fails alone; its batch peers are answered."""

    @pytest.mark.parametrize(
        "bad_policy, bad_width", [(0, 14), (5, 15)], ids=["width", "policy"]
    )
    def test_bad_request_fails_only_its_caller(self, bad_policy, bad_width):
        store = PolicyStore([mlp(15, (8,), 5, seed=i) for i in range(2)])
        rng = np.random.default_rng(0)
        valid = [rng.random(15) for _ in range(3)]

        async def main():
            server = DecisionServer(
                store, max_batch=4, deadline_ms=5, queue_limit=64
            )
            calls = [server.decide(i, i % 2, obs) for i, obs in enumerate(valid)]
            calls.append(server.decide(3, bad_policy, np.zeros(bad_width)))
            results = await asyncio.wait_for(
                asyncio.gather(*calls, return_exceptions=True), timeout=5
            )
            depth = server.pending_depth
            await server.stop()
            return results, depth

        results, depth = run(main())
        assert depth == 0
        assert isinstance(results[3], ConfigurationError)
        assert [r.action for r in results[:3]] == [
            store.decide_serial(i % 2, obs) for i, obs in enumerate(valid)
        ]

    def test_row_shaped_observation_is_flattened_at_admission(self):
        store = store_of()
        obs = np.random.default_rng(1).random((1, store.observation_size))

        async def main():
            server = DecisionServer(
                store, max_batch=2, deadline_ms=1000, queue_limit=64
            )
            results = await asyncio.wait_for(
                asyncio.gather(
                    server.decide(0, 0, obs), server.decide(1, 1, obs[0])
                ),
                timeout=5,
            )
            await server.stop()
            return results

        results = run(main())
        assert [r.action for r in results] == [
            store.decide_serial(0, obs[0]),
            store.decide_serial(1, obs[0]),
        ]

    def test_flush_failure_reaches_every_waiter(self, monkeypatch):
        store = store_of()

        def broken(policies, observations):
            raise RuntimeError("forward failed")

        monkeypatch.setattr(store, "decide_batch", broken)

        async def main():
            server = DecisionServer(
                store, max_batch=2, deadline_ms=1000, queue_limit=64
            )
            zeros = np.zeros(store.observation_size)
            results = await asyncio.wait_for(
                asyncio.gather(
                    server.decide(0, 0, zeros),
                    server.decide(1, 1, zeros),
                    return_exceptions=True,
                ),
                timeout=5,
            )
            await server.stop()
            return results

        results = run(main())
        assert all(isinstance(r, RuntimeError) for r in results)
