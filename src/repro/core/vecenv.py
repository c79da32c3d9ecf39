"""Lock-step multi-seed DQN training: N competitions, one set of tensor ops.

:func:`repro.core.trainer.train_dqn` steps one environment and one network
at a time, so a multi-seed study pays N forward/backward passes of batch
size 64 where one pass of stacked shape (N, 64, ...) would do. This module
runs N *independent* seeded competitions in lock-step:

* :class:`VectorEnv` holds N :class:`~repro.core.envs.SweepJammingEnv`
  instances, each with its own rng stream, and steps them together.
* :func:`train_dqn_batch` builds N real :class:`~repro.core.dqn.DQNAgent`
  objects (their rng streams, replay buffers, and counters are the source
  of truth) but mirrors their network parameters and Adam state into
  ``(N, ...)`` :class:`~repro.nn.stacked.StackedMLP` stacks, so the
  ε-greedy ``act`` and the TD update run as single 3-D ``matmul`` chains
  across all seeds.

Bit-identity with the serial path is a hard invariant, not an
approximation: stacked ``matmul``/reductions apply the same IEEE
operations per slice as their 2-D counterparts, every per-seed rng stream
consumes draws in exactly the serial order (streams are independent, so
interleaving across seeds is irrelevant), and the per-seed training
schedules are structurally aligned (replay buffers grow one transition
per slot for every seed, so warm-up, train, and target-sync steps
coincide). Seeds that hit ``reward_goal`` early exit at episode
boundaries exactly like their serial runs: their slices are compacted out
of the stacked tensors and their final weights written back. The
equivalence suite pins per-seed rewards, losses, and final weights
against N serial runs.

The in-process batch width composes with the
:class:`~repro.exec.ParallelRunner` process pool (processes × batch) via
``train_dqn_multi_seed(env_batch=...)`` or ``REPRO_ENV_BATCH``.
"""

from __future__ import annotations

import os

import numpy as np

from repro.core.dqn import DQNAgent, DQNConfig
from repro.core.envs import StepInfo, SweepJammingEnv
from repro.core.mdp import MDPConfig
from repro.errors import TrainingError
from repro.nn.optimizers import Adam
from repro.nn.stacked import StackedMLP
from repro.obs import telemetry as obs_telemetry
from repro.obs import trace as obs_trace
from repro.obs.metrics import METRICS
from repro.rng import derive

#: Environment variable selecting the in-process seed-batch width used by
#: ``train_dqn_multi_seed``. ``1``/``off`` restores the purely serial path.
ENV_BATCH_ENV = "REPRO_ENV_BATCH"

#: Default seeds trained per process when nothing is configured.
DEFAULT_ENV_BATCH = 8


def resolve_env_batch(value: int | str | None = None) -> int:
    """Resolve the seed-batch width from an override or ``REPRO_ENV_BATCH``.

    ``None`` (and an unset/empty environment) selects
    :data:`DEFAULT_ENV_BATCH`; ``1``, ``off`` or ``none`` disable in-process
    batching.
    """
    if value is None:
        value = os.environ.get(ENV_BATCH_ENV, "")
    if isinstance(value, str):
        text = value.strip().lower()
        if not text:
            return DEFAULT_ENV_BATCH
        if text in ("off", "none"):
            return 1
        try:
            value = int(text)
        except ValueError:
            raise TrainingError(
                f"{ENV_BATCH_ENV} must be an integer or 'off', got {value!r}"
            ) from None
    batch = int(value)
    if batch < 1:
        raise TrainingError(f"env batch must be >= 1, got {batch}")
    return batch


class VectorEnv:
    """N independent seeded environments stepped in lock-step.

    Each wrapped environment keeps its own rng stream, so stepping them
    together produces exactly the trajectories of stepping each alone.
    """

    def __init__(self, envs: list[SweepJammingEnv]) -> None:
        if not envs:
            raise TrainingError("a VectorEnv needs at least one environment")
        first = envs[0]
        for env in envs[1:]:
            if (
                env.observation_size != first.observation_size
                or env.num_actions != first.num_actions
            ):
                raise TrainingError(
                    "all environments in a VectorEnv must share geometry"
                )
        self.envs = list(envs)

    @classmethod
    def from_seeds(
        cls,
        config: MDPConfig | None,
        seeds,
        *,
        history_length: int,
        stream: str = "train-env",
    ) -> "VectorEnv":
        """One env per seed, seeded exactly like the serial trainer."""
        return cls(
            [
                SweepJammingEnv(
                    config or MDPConfig(),
                    history_length=history_length,
                    seed=derive(int(s), stream),
                )
                for s in seeds
            ]
        )

    @property
    def num_envs(self) -> int:
        return len(self.envs)

    @property
    def observation_size(self) -> int:
        return self.envs[0].observation_size

    @property
    def num_actions(self) -> int:
        return self.envs[0].num_actions

    def reset(self) -> np.ndarray:
        """Reset every environment; returns stacked observations (N, obs)."""
        return np.stack([env.reset() for env in self.envs])

    def step(
        self, actions: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, list[StepInfo]]:
        """Advance every environment one slot.

        Returns stacked next observations ``(N, obs)``, rewards ``(N,)``,
        and the per-env :class:`StepInfo` records.
        """
        actions = np.asarray(actions).reshape(-1)
        if actions.size != self.num_envs:
            raise TrainingError(
                f"expected {self.num_envs} actions, got {actions.size}"
            )
        obs, rewards, infos = [], [], []
        for env, action in zip(self.envs, actions):
            o, r, info = env.step_index(int(action))
            obs.append(o)
            rewards.append(r)
            infos.append(info)
        return np.stack(obs), np.array(rewards), infos

    def select(self, indices) -> "VectorEnv":
        """A VectorEnv over a subset of the wrapped environments."""
        return VectorEnv([self.envs[i] for i in indices])


#: Cached stacks keyed on the identity tuple of their source networks. A
#: cached :class:`~repro.nn.stacked.StackedMLP` holds strong references to
#: its networks, so an ``id`` in a live key can never be recycled to a
#: different object.
_POLICY_STACK_CACHE: dict[tuple[int, ...], StackedMLP] = {}

#: Distinct network tuples kept stacked at once (FIFO eviction beyond this).
POLICY_STACK_CACHE_LIMIT = 8


def get_policy_stack(networks: list) -> StackedMLP:
    """The cached :class:`~repro.nn.stacked.StackedMLP` for these networks.

    Repeat calls with the same network objects reuse the stacked arrays
    (refreshing any slices whose parameters mutated) instead of restacking
    from scratch — the former per-call rebuild cost of
    :func:`greedy_policy_actions`.
    """
    key = tuple(id(net) for net in networks)
    stack = _POLICY_STACK_CACHE.get(key)
    if stack is None or any(
        a is not b for a, b in zip(stack.networks, networks)
    ):
        stack = StackedMLP(networks)
        if key not in _POLICY_STACK_CACHE:
            while len(_POLICY_STACK_CACHE) >= POLICY_STACK_CACHE_LIMIT:
                _POLICY_STACK_CACHE.pop(next(iter(_POLICY_STACK_CACHE)))
        _POLICY_STACK_CACHE[key] = stack
    return stack


def clear_policy_stack_cache() -> None:
    """Drop every cached stack (tests and microbenchmarks)."""
    _POLICY_STACK_CACHE.clear()


def greedy_policy_actions(agents: list[DQNAgent], obs: np.ndarray) -> np.ndarray:
    """Greedy actions for N agents from one stacked forward pass.

    ``obs`` has shape (N, observation_size); row i is scored by
    ``agents[i]``. Greedy action selection consumes no rng, and each
    stacked slice applies the same IEEE operations as the serial
    ``agent.act(obs_i, greedy=True)``, so the result is bit-identical to
    acting one agent at a time. When every entry is the *same* agent
    object (a shared deployed policy), its 2-D weights broadcast across
    the stack without copying.

    The stacked weights come from the :func:`get_policy_stack` cache:
    calling this in a loop (as ``sim/shard`` does every slot) rebuilds
    nothing, only refreshing slices whose networks trained in between.
    """
    if not agents:
        raise TrainingError("need at least one agent")
    first = agents[0]
    obs = np.asarray(obs, dtype=np.float64)
    if obs.shape != (len(agents), first.config.observation_size):
        raise TrainingError(
            f"expected observations of shape "
            f"({len(agents)}, {first.config.observation_size}), got {obs.shape}"
        )
    stack = get_policy_stack([agent.online for agent in agents])
    return stack.greedy_actions(obs)


def _stack_agents(agents: list[DQNAgent]) -> tuple[StackedMLP, StackedMLP]:
    """Online and target stacks over ``agents``, with one stacked Adam.

    The stacked Adam takes the agents' hyperparameters; its state starts
    empty like theirs and is written back with the online slices.
    """
    opt = agents[0].optimizer
    online = StackedMLP(
        [agent.online for agent in agents],
        optimizer=Adam(opt.learning_rate, opt.beta1, opt.beta2, opt.epsilon),
    )
    return online, StackedMLP([agent.target for agent in agents])


def _write_back(
    online: StackedMLP, target: StackedMLP, position: int, agent: DQNAgent
) -> None:
    """Copy one stacked slice into the agent's real networks and optimizer."""
    online.write_back(position, agent.online, agent.optimizer)
    target.write_back(position, agent.target)


def _batched_act(
    online: StackedMLP, agents: list[DQNAgent], obs: np.ndarray
) -> np.ndarray:
    """ε-greedy actions for all seeds from one stacked forward pass.

    One (N, 1, obs) @ (N, obs, H) chain replaces N single-row forwards; the
    exploration draws then run per agent on its own rng, in the exact order
    ``DQNAgent.act`` consumes them.
    """
    q = online.forward(obs[:, None, :])
    best = q.argmax(axis=2)[:, 0]
    actions = np.empty(len(agents), dtype=np.int64)
    for i, agent in enumerate(agents):
        if agent._rng.random() >= agent.epsilon:
            actions[i] = best[i]
        else:
            draw = int(agent._rng.integers(agent.config.num_actions - 1))
            actions[i] = draw + (draw >= best[i])
    return actions


def _batched_train_step(
    online: StackedMLP, target: StackedMLP, agents: list[DQNAgent]
) -> np.ndarray:
    """One TD(0) update for every seed; returns per-seed Huber losses.

    Mirrors ``DQNAgent.train_on`` + ``Network.train_step`` operation for
    operation on (N, B, ·) tensors; per-seed replay sampling stays on each
    agent's own rng stream.
    """
    cfg = agents[0].config
    batches = [agent.replay.sample(cfg.batch_size) for agent in agents]
    obs = np.stack([b.observations for b in batches])
    actions = np.stack([b.actions for b in batches])
    rewards = np.stack([b.rewards for b in batches])
    next_obs = np.stack([b.next_observations for b in batches])
    n, batch_size = actions.shape

    next_q_target = target.forward(next_obs)
    if cfg.double_dqn:
        next_q_online = online.forward(next_obs)
        best_next = next_q_online.argmax(axis=2)
        bootstrap = np.take_along_axis(
            next_q_target, best_next[:, :, None], axis=2
        )[:, :, 0]
    else:
        bootstrap = next_q_target.max(axis=2)
    targets_for_actions = rewards + cfg.discount * bootstrap

    prediction = online.forward(obs, cache=True)
    td_target = prediction.copy()
    rows = np.arange(n)[:, None], np.arange(batch_size)[None, :], actions
    td_target[rows] = targets_for_actions
    mask = np.zeros_like(td_target)
    mask[rows] = 1.0

    delta = agents[0].loss.delta
    err = prediction - td_target
    abs_err = np.abs(err)
    quad = np.minimum(abs_err, delta)
    losses = np.mean(0.5 * quad**2 + delta * (abs_err - quad), axis=(1, 2))
    # Per-slice gradient: divide by the slice's element count (B·A), the
    # ``p.size`` the serial HuberLoss sees, not the stacked size.
    grad = np.clip(err, -delta, delta) / (batch_size * prediction.shape[2]) * mask
    online.backward(grad)
    online.optimizer.step(online.parameters, online.gradients)

    for agent in agents:
        agent.train_steps += 1
    tau = cfg.soft_update_tau
    if tau is not None:
        for t_param, o_param in zip(target.parameters, online.parameters):
            t_param *= 1.0 - tau
            t_param += tau * o_param
    elif agents[0].train_steps % cfg.target_sync_interval == 0:
        for t_param, o_param in zip(target.parameters, online.parameters):
            t_param[...] = o_param
    return losses


def train_dqn_batch(
    env_config: MDPConfig | None = None,
    *,
    seeds,
    trainer=None,
    dqn: DQNConfig | None = None,
    history_length: int = 5,
) -> list:
    """Train one DQN per seed in lock-step; bit-identical to serial runs.

    Returns a list of :class:`repro.core.trainer.TrainingResult`, one per
    seed in order, each exactly equal (weights, histories, rng/replay
    state) to ``train_dqn(..., seed=s)``.
    """
    from repro.core.trainer import TrainerConfig, TrainingResult, train_dqn

    seed_list = [int(s) for s in seeds]
    if not seed_list:
        raise TrainingError("need at least one seed")
    trainer = trainer or TrainerConfig()
    if len(seed_list) == 1:
        return [
            train_dqn(
                env_config,
                trainer=trainer,
                dqn=dqn,
                history_length=history_length,
                seed=seed_list[0],
            )
        ]
    env_config = env_config or MDPConfig()
    vec = VectorEnv.from_seeds(env_config, seed_list, history_length=history_length)
    if dqn is None:
        dqn = DQNConfig(
            observation_size=vec.observation_size,
            num_actions=vec.num_actions,
        )
    elif (
        dqn.observation_size != vec.observation_size
        or dqn.num_actions != vec.num_actions
    ):
        raise TrainingError(
            "DQN geometry does not match the environment: expected "
            f"obs={vec.observation_size}, actions={vec.num_actions}"
        )
    agents = [DQNAgent(dqn, seed=derive(s, "train-agent")) for s in seed_list]
    online, target = _stack_agents(agents)

    n = len(seed_list)
    rewards: list[list[float]] = [[] for _ in range(n)]
    losses: list[list[float]] = [[] for _ in range(n)]
    converged = [False] * n
    episodes_run = [0] * n
    steps = [0] * n
    # Seeds still training, as indices into the original order. The stacked
    # tensors and ``vec`` always cover exactly these, in this order.
    active = list(range(n))
    # Warm-up transitions are buffered per agent and flushed with one
    # push_many right before the first training step (no sampling happens
    # during warm-up, so the deferred write is unobservable).
    pending: list[list[tuple]] = [[] for _ in range(n)]
    warmed_up = False

    with obs_trace.span(
        "train/run_batch",
        seeds=seed_list,
        episodes=trainer.episodes,
        steps_per_episode=trainer.steps_per_episode,
    ):
        METRICS.set("dqn.env_batch", n)
        telem = obs_telemetry.FlightRecorder(
            "dqn",
            labels={"batch": str(n)},
            counters=("link.per_cache_hits", "link.per_cache_misses"),
        )
        for _ in range(trainer.episodes):
            if not active:
                break
            live = [agents[i] for i in active]
            obs = vec.reset()
            ep_rewards = [0.0] * len(active)
            ep_losses: list[list[float]] = [[] for _ in active]
            for _ in range(trainer.steps_per_episode):
                actions = _batched_act(online, live, obs)
                next_obs, step_rewards, _ = vec.step(actions)
                scaled = step_rewards * trainer.reward_scale
                stored = len(live[0].replay)
                if not warmed_up:
                    for pos, i in enumerate(active):
                        pending[i].append(
                            (obs[pos], int(actions[pos]), scaled[pos], next_obs[pos])
                        )
                    # min(·, capacity) is what len(replay) would read after
                    # sequential pushes — a warmup larger than the buffer
                    # never trains, exactly like the serial path.
                    would_store = min(
                        stored + len(pending[active[0]]), dqn.replay_capacity
                    )
                    if would_store >= dqn.warmup_transitions:
                        for pos, i in enumerate(active):
                            rows = pending[i]
                            live[pos].replay.push_many(
                                np.stack([r[0] for r in rows]),
                                np.array([r[1] for r in rows]),
                                np.array([r[2] for r in rows]),
                                np.stack([r[3] for r in rows]),
                            )
                            pending[i].clear()
                        warmed_up = True
                else:
                    for pos, agent in enumerate(live):
                        agent.replay.push(
                            obs[pos], int(actions[pos]), scaled[pos], next_obs[pos]
                        )
                for agent in live:
                    agent.env_steps += 1
                if warmed_up:
                    step_losses = _batched_train_step(online, target, live)
                    for pos in range(len(active)):
                        ep_losses[pos].append(float(step_losses[pos]))
                obs = next_obs
                for pos in range(len(active)):
                    ep_rewards[pos] += float(step_rewards[pos])
                    steps[active[pos]] += 1

            finished = []
            for pos, i in enumerate(active):
                episodes_run[i] += 1
                rewards[i].append(ep_rewards[pos] / trainer.steps_per_episode)
                losses[i].append(
                    float(np.mean(ep_losses[pos])) if ep_losses[pos] else float("nan")
                )
                METRICS.inc("dqn.episodes")
                METRICS.set("dqn.epsilon", live[pos].epsilon)
                if ep_losses[pos]:
                    METRICS.observe("dqn.td_error", losses[i][-1])
                telem.tick(
                    episodes=1.0,
                    reward=rewards[i][-1],
                    loss=losses[i][-1] if ep_losses[pos] else 0.0,
                    epsilon=live[pos].epsilon,
                    env_steps=float(trainer.steps_per_episode),
                )
                obs_trace.event(
                    "dqn.episode",
                    seed=seed_list[i],
                    episode=episodes_run[i] - 1,
                    reward=rewards[i][-1],
                    loss=losses[i][-1],
                    epsilon=live[pos].epsilon,
                    replay=len(live[pos].replay),
                    steps=steps[i],
                )
                if (
                    trainer.reward_goal is not None
                    and len(rewards[i]) >= trainer.goal_window
                ):
                    window = rewards[i][-trainer.goal_window :]
                    if float(np.mean(window)) >= trainer.reward_goal:
                        converged[i] = True
                        finished.append(pos)
            if finished:
                for pos in finished:
                    _write_back(online, target, pos, agents[active[pos]])
                keep = [p for p in range(len(active)) if p not in finished]
                online.compact(keep)
                target.compact(keep)
                vec = vec.select(keep)
                active = [active[p] for p in keep]
        telem.flush()

    for pos, i in enumerate(active):
        _write_back(online, target, pos, agents[i])
    results = []
    for i, seed in enumerate(seed_list):
        agents[i].sync_target()
        results.append(
            TrainingResult(
                agent=agents[i],
                steps=steps[i],
                episodes=episodes_run[i],
                converged=converged[i],
                reward_history=np.array(rewards[i]),
                loss_history=np.array(losses[i]),
            )
        )
    return results


def _train_batch_task(spec: tuple) -> list:
    """One lock-step group of seeded training runs (pool-dispatchable)."""
    env_config, trainer, dqn, history_length, chunk = spec
    return train_dqn_batch(
        env_config,
        seeds=chunk,
        trainer=trainer,
        dqn=dqn,
        history_length=history_length,
    )


__all__ = [
    "ENV_BATCH_ENV",
    "DEFAULT_ENV_BATCH",
    "resolve_env_batch",
    "VectorEnv",
    "POLICY_STACK_CACHE_LIMIT",
    "get_policy_stack",
    "clear_policy_stack_cache",
    "greedy_policy_actions",
    "train_dqn_batch",
]
