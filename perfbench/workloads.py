"""The benchmark's workloads: inputs, set-up, timed run and oracle.

Every workload is built from the workload seed alone and passes each knob
to the program explicitly (the environment is scrubbed of ``REPRO_*``
before a repetition starts), so nothing outside this file can change what
a workload runs. All load runs in one process with ``workers=1``.

Why these four (see also ``BENCHMARK.json``, which names all but
``field_sweep``):

* ``train`` -- lock-step multi-seed DQN training; its host time is almost
  all stacked-MLP forward/backward/Adam, so an nn change shows here and a
  field change should not.
* ``field_sweep`` -- 1024 tabled-optimal networks against the paper's
  sweep jammer on the analytic tier; the per-network Python jammers and
  adapters dominate, which is where a struct-of-arrays kernel must show.
* ``field_adv`` -- 256 networks on 8 DQN policies against the non-ideal
  reactive jammer on the waveform tier with a cold trial cache: the only
  workload running the stacked DQN decide path and real channel/phy work.
* ``serve`` -- open-loop traffic against the asyncio decision server:
  small inference batches behind admission and micro-batching.

A workload has three entry points: ``setup(seed, knobs)`` builds the
program objects (timed as set-up), ``run(state)`` does the measured work
and returns its end-to-end values plus digests, and ``check(seed, knobs)``
recomputes the oracle side of the output check in its own process.
``run`` returns timed values under ``metrics`` and values the seed alone
decides (S_T, goodput) under ``outputs``; ``state["warmup"]`` is true in
a process's first, untimed sample.
"""

from __future__ import annotations

import hashlib
import time

import numpy as np

#: Per-size knobs. ``full`` is what the benchmark measures; ``tiny`` is
#: the smoke test's size and exercises every code path in seconds.
KNOBS = {
    "train": {
        "full": {
            "seeds": 8,
            "env_batch": 8,
            "episodes": 2,
            "steps_per_episode": 250,
            "batch_size": 64,
            "warmup_transitions": 250,
            "eval_slots": 1000,
            "deploy_networks": 64,
            "deploy_slots": 100,
        },
        "tiny": {
            "seeds": 8,
            "env_batch": 8,
            "episodes": 1,
            "steps_per_episode": 60,
            "batch_size": 16,
            "warmup_transitions": 32,
            "eval_slots": 50,
            "deploy_networks": 16,
            "deploy_slots": 10,
        },
    },
    "field_sweep": {
        "full": {"networks": 1024, "slots": 40},
        "tiny": {"networks": 64, "slots": 8},
    },
    "field_adv": {
        "full": {"networks": 256, "slots": 50, "policies": 8},
        "tiny": {"networks": 32, "slots": 6, "policies": 8},
    },
    "serve": {
        "full": {
            "networks": 256,
            "policies": 8,
            "latency_rate": 4000.0,
            "latency_blocks": 6,
            "latency_requests": 2000,
            "burst_groups": 16,
            "ladder_base": 8000.0,
            "ladder_rungs": 24,
            "rung_requests": 2000,
        },
        "tiny": {
            "networks": 32,
            "policies": 8,
            "latency_rate": 2000.0,
            "latency_blocks": 2,
            "latency_requests": 200,
            "burst_groups": 2,
            "ladder_base": 2000.0,
            "ladder_rungs": 3,
            "rung_requests": 200,
        },
    },
}

#: Knob overrides of untraced processes. The serve rate ladder only feeds
#: ``serve.max_rate_rps``, a per-layer metric of the traced run, so the
#: untraced samples -- the end-to-end ones -- measure the fixed-rate
#: blocks alone and take more samples in the same time.
UNTRACED = {"serve": {"ladder_rungs": 0}}

#: Paper geometry shared by every workload: the DQN reads 5 slots of
#: (outcome, channel, power) history.
HISTORY_LENGTH = 5

#: The policies are one fixed set of seeds, like a shipped model: the 8
#: training seeds of ``train`` and the deployed networks of ``field_adv``
#: and ``serve``. The workload seed varies what they face -- evaluation
#: and deployment scenarios, the field, the traffic -- and which training
#: seed ``train`` checks. Short-trained or untrained networks differ
#: wildly from seed to seed, which would otherwise dominate the spread of
#: the quality metrics.
POLICY_SEED = 0

#: Field-engine knobs the workloads pin instead of reading the environment.
FIELD_BATCH = 64
SHARDS = 2
WORKERS = 1
INTERFERENCE_RADIUS_M = 12.0
FIELD_SIZE_M = 100.0

#: Decision-server knobs: the defaults of ``repro.serve.batcher`` at the
#: time the benchmark was written, pinned so that traffic stays fixed.
SERVE_MAX_BATCH = 64
SERVE_DEADLINE_MS = 2.0
SERVE_QUEUE = 256
SERVE_ADMISSION = "queue"
#: Ladder rates grow by 2**(1/8) per rung.
LADDER_STEP = 2.0 ** 0.125
REQUEST_TIMEOUT_S = 0.5
#: Stop the ladder after this many failing rungs in a row: one stall can
#: fail a rung below the knee, three in a row mean the knee is passed.
LADDER_STOP_AFTER = 3

#: Everything above, recorded with each result.
PINNED = {
    "history_length": HISTORY_LENGTH,
    "policy_seed": POLICY_SEED,
    "field_batch": FIELD_BATCH,
    "shards": SHARDS,
    "workers": WORKERS,
    "interference_radius_m": INTERFERENCE_RADIUS_M,
    "field_size_m": FIELD_SIZE_M,
    "serve_max_batch": SERVE_MAX_BATCH,
    "serve_deadline_ms": SERVE_DEADLINE_MS,
    "serve_queue": SERVE_QUEUE,
    "serve_admission": SERVE_ADMISSION,
    "ladder_step": LADDER_STEP,
    "request_timeout_s": REQUEST_TIMEOUT_S,
    "ladder_stop_after": LADDER_STOP_AFTER,
}


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
        h.update(b"\x1f")
    return h.hexdigest()[:16]


def _child_seeds(seed: int, stream: str, count: int) -> list[int]:
    rng = np.random.default_rng([seed, *stream.encode()])
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=count)]


def _paper():
    from repro.sim.scenario import paper_defaults

    return paper_defaults()


class RoundRobinDQN:
    """Adapter factory: grid network ``i`` runs policy ``i mod P``.

    The grid hands a factory only the network's seed, so the factory maps
    seeds back to grid indices (filled in once the grid exists).
    """

    def __init__(self, agents: list) -> None:
        self.agents = agents
        self.index_of: dict[int, int] = {}

    def __call__(self, mdp, net_seed: int):
        from repro.rng import derive
        from repro.sim.field import DQNPolicyAdapter

        agent = self.agents[self.index_of[net_seed] % len(self.agents)]
        return DQNPolicyAdapter(
            agent,
            mdp,
            history_length=HISTORY_LENGTH,
            seed=derive(net_seed, "grid-adapter"),
        )


def _dqn_grid(agents, field_cfg, num_networks: int, seed: int, *, interference, shards):
    """A grid of DQN-driven networks, policies assigned round-robin."""
    from repro.sim.shard import FieldGrid, GridConfig

    factory = RoundRobinDQN(agents)
    grid = FieldGrid(
        GridConfig(
            field=field_cfg,
            num_networks=num_networks,
            width_m=FIELD_SIZE_M,
            height_m=FIELD_SIZE_M,
            adapter_factory=factory,
            interference=interference,
        ),
        seed=seed,
        shards=shards,
        workers=WORKERS,
        field_batch=FIELD_BATCH,
    )
    factory.index_of = {s: i for i, s in enumerate(grid.network_seeds)}
    return grid


def _grid_outputs(result) -> dict:
    return {
        "success_rate": float(np.mean([m.success_rate for m in result.metrics])),
        "goodput_pkts_per_slot": result.mean_goodput,
    }


def _grid_digest(result) -> str:
    return _digest(
        result.goodput_pkts_per_slot, result.utilization, result.metrics
    )


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def _train_configs(knobs):
    from repro.core.dqn import DQNConfig
    from repro.core.trainer import TrainerConfig

    defaults = _paper()
    mdp = defaults.mdp
    dqn = DQNConfig(
        observation_size=3 * HISTORY_LENGTH,
        num_actions=mdp.num_channels * mdp.num_power_levels,
        batch_size=knobs["batch_size"],
        warmup_transitions=knobs["warmup_transitions"],
    )
    trainer = TrainerConfig(
        episodes=knobs["episodes"], steps_per_episode=knobs["steps_per_episode"]
    )
    return defaults, dqn, trainer


def _train_check_digest(result) -> str:
    weights = np.concatenate([p.ravel() for p in result.agent.online.parameters])
    return _digest(weights, result.reward_history, result.loss_history)


def train_setup(seed: int, knobs: dict) -> dict:
    from repro.exec.faults import FaultPolicy

    defaults, dqn, trainer = _train_configs(knobs)
    return {
        "seed": seed,
        "knobs": knobs,
        "defaults": defaults,
        "dqn": dqn,
        "trainer": trainer,
        "seeds": _child_seeds(POLICY_SEED, "train", knobs["seeds"]),
        "policy": FaultPolicy(),
    }


def train_run(state: dict) -> dict:
    from repro.core.trainer import train_dqn_multi_seed

    knobs, defaults = state["knobs"], state["defaults"]
    mdp = defaults.mdp
    start = time.process_time()
    trained = train_dqn_multi_seed(
        mdp,
        seeds=state["seeds"],
        trainer=state["trainer"],
        dqn=state["dqn"],
        history_length=HISTORY_LENGTH,
        workers=WORKERS,
        policy=state["policy"],
        env_batch=knobs["env_batch"],
    )
    train_s = time.process_time() - start
    steps_per_seed = knobs["episodes"] * knobs["steps_per_episode"]
    steps = steps_per_seed * len(trained.results)

    checked = state["seed"] % len(trained.results)
    out = {
        "metrics": {
            # Each training env step is one network's slot.
            "steps_per_s": steps / train_s,
            "network_slots_per_s": steps / train_s,
            "latency_p50_ms": train_s / steps_per_seed * 1000.0,
        },
        "attempted": len(state["seeds"]),
        "failed": len(trained.failures),
        "digest": _digest([r.reward_history for r in trained.results]),
        "check_digest": _train_check_digest(trained.results[checked]),
        "counts": {
            "core.train_steps": sum(r.agent.train_steps for r in trained.results),
            "own_network_slots": 0,
        },
        "notes": {"checked_seed": trained.seeds[checked], "train_s": train_s},
    }
    if state["warmup"]:
        out["outputs"] = _train_outputs(state, trained)
        out["counts"]["own_network_slots"] = (
            knobs["deploy_slots"] * knobs["deploy_networks"]
        )
    return out


def _train_outputs(state: dict, trained) -> dict:
    """Deploy the trained seeds greedily (untimed, warm-up sample only).

    Evaluates each seed, then runs the trained policies as the DQN scheme
    of a small field (Fig. 11(a)'s "rl" bar). The timed samples retrain
    the same seeds bit-identically (their reward histories must agree), so
    deploying once per process is enough.
    """
    from repro.core.trainer import evaluate_dqn
    from repro.sim.field import FieldConfig
    from repro.sim.scenario import field_jammer_config

    knobs, defaults = state["knobs"], state["defaults"]
    mdp = defaults.mdp
    summaries = [
        evaluate_dqn(
            result.agent,
            mdp,
            slots=knobs["eval_slots"],
            history_length=HISTORY_LENGTH,
            seed=s,
        )
        for s, result in zip(
            _child_seeds(state["seed"], "train/eval", len(trained.results)),
            trained.results,
        )
    ]
    field_cfg = FieldConfig(
        mdp=mdp,
        jammer=field_jammer_config(defaults),
        sampling="aggregate",
        channel="analytic",
    )
    deployed = _dqn_grid(
        [r.agent for r in trained.results],
        field_cfg,
        knobs["deploy_networks"],
        state["seed"],
        interference=None,
        shards=1,
    ).run(knobs["deploy_slots"])
    return {
        "success_rate": float(np.mean([s.success_rate for s in summaries])),
        "goodput_pkts_per_slot": deployed.mean_goodput,
    }


def train_check(seed: int, knobs: dict) -> dict:
    """Solo ``train_dqn`` of the seed the workload seed picks."""
    from repro.core.trainer import train_dqn

    defaults, dqn, trainer = _train_configs(knobs)
    seeds = _child_seeds(POLICY_SEED, "train", knobs["seeds"])
    solo = train_dqn(
        defaults.mdp,
        trainer=trainer,
        dqn=dqn,
        history_length=HISTORY_LENGTH,
        seed=seeds[seed % len(seeds)],
    )
    return {"check_digest": _train_check_digest(solo)}


# ---------------------------------------------------------------------------
# field_sweep
# ---------------------------------------------------------------------------


def _sweep_grid(seed: int, knobs: dict, shards: int):
    from repro.sim.field import FieldConfig
    from repro.sim.scenario import field_jammer_config
    from repro.sim.shard import FieldGrid, GridConfig, InterferenceModel

    defaults = _paper()
    field_cfg = FieldConfig(
        mdp=defaults.mdp,
        jammer=field_jammer_config(
            defaults, adversary="sweep", sweep_strategy="random"
        ),
        sampling="aggregate",
        channel="analytic",
    )
    return FieldGrid(
        GridConfig(
            field=field_cfg,
            num_networks=knobs["networks"],
            width_m=FIELD_SIZE_M,
            height_m=FIELD_SIZE_M,
            scheme="optimal",
            interference=InterferenceModel(
                radius_m=INTERFERENCE_RADIUS_M, channel="analytic"
            ),
        ),
        seed=_child_seeds(seed, "field_sweep", 1)[0],
        shards=shards,
        workers=WORKERS,
        field_batch=FIELD_BATCH,
    )


def _field_run(grid, knobs: dict) -> dict:
    start = time.process_time()
    result = grid.run(knobs["slots"])
    run_s = time.process_time() - start
    rate = knobs["networks"] * knobs["slots"] / run_s
    digest = _grid_digest(result)
    return {
        "metrics": {
            "steps_per_s": rate,
            "network_slots_per_s": rate,
            "latency_p50_ms": run_s / knobs["slots"] * 1000.0,
        },
        "outputs": _grid_outputs(result),
        "attempted": result.shards,
        "failed": 0,
        "digest": digest,
        "check_digest": digest,
        "counts": {"own_network_slots": knobs["networks"] * knobs["slots"]},
    }


def field_sweep_setup(seed: int, knobs: dict) -> dict:
    return {"grid": _sweep_grid(seed, knobs, SHARDS), "knobs": knobs}


def field_sweep_run(state: dict) -> dict:
    return _field_run(state["grid"], state["knobs"])


def field_sweep_check(seed: int, knobs: dict) -> dict:
    """The same grid on one shard: must be digest-identical."""
    result = _sweep_grid(seed, knobs, 1).run(knobs["slots"])
    return {"check_digest": _grid_digest(result)}


# ---------------------------------------------------------------------------
# field_adv
# ---------------------------------------------------------------------------


def _adv_grid(seed: int, knobs: dict, shards: int):
    from repro.analysis.figures import study_reactive_config
    from repro.core.dqn import DQNAgent, DQNConfig
    from repro.sim.field import FieldConfig
    from repro.sim.scenario import field_jammer_config
    from repro.sim.shard import InterferenceModel

    defaults = _paper()
    mdp = defaults.mdp
    config = DQNConfig(
        observation_size=3 * HISTORY_LENGTH,
        num_actions=mdp.num_channels * mdp.num_power_levels,
    )
    agents = [
        DQNAgent(config, seed=s)
        for s in _child_seeds(POLICY_SEED, "field_adv/policies", knobs["policies"])
    ]
    field_cfg = FieldConfig(
        mdp=mdp,
        jammer=field_jammer_config(
            defaults, adversary="reactive", reactive=study_reactive_config()
        ),
        sampling="aggregate",
        channel="waveform",
    )
    return _dqn_grid(
        agents,
        field_cfg,
        knobs["networks"],
        _child_seeds(seed, "field_adv", 1)[0],
        interference=InterferenceModel(
            radius_m=INTERFERENCE_RADIUS_M, channel="waveform"
        ),
        shards=shards,
    )


def field_adv_setup(seed: int, knobs: dict) -> dict:
    from repro.channel.link import JammerSignalType
    from repro.channel.trials import default_bank

    # The jammer waveform bank synthesises each burst once per process, on
    # first use: that is set-up. The trial cache above it starts every run
    # cold. The jam contest draws EmuBee bursts, co-channel neighbours
    # ZigBee ones, both at zero offset.
    bank = default_bank()
    bank.burst(JammerSignalType.EMUBEE)
    bank.burst(JammerSignalType.ZIGBEE)
    return {"grid": _adv_grid(seed, knobs, SHARDS), "knobs": knobs}


def field_adv_run(state: dict) -> dict:
    from repro.channel.fidelity import trial_cache_stats

    before = trial_cache_stats()["misses"]
    out = _field_run(state["grid"], state["knobs"])
    out["counts"]["trial_cache_misses"] = trial_cache_stats()["misses"] - before
    return out


def field_adv_check(seed: int, knobs: dict) -> dict:
    """The same grid on one shard, from a cold cache: must be identical."""
    result = _adv_grid(seed, knobs, 1).run(knobs["slots"])
    return {"check_digest": _grid_digest(result)}


# ---------------------------------------------------------------------------
# serve
# ---------------------------------------------------------------------------


def serve_setup(seed: int, knobs: dict) -> dict:
    from repro.constants import DEFAULT_HIDDEN_WIDTH
    from repro.nn.network import mlp
    from repro.serve.server import DecisionServer
    from repro.serve.store import PolicyStore

    from loadgen import make_traffic

    defaults = _paper()
    mdp = defaults.mdp
    num_actions = mdp.num_channels * mdp.num_power_levels
    hidden = (DEFAULT_HIDDEN_WIDTH, DEFAULT_HIDDEN_WIDTH)
    store = PolicyStore(
        [
            mlp(3 * HISTORY_LENGTH, hidden, num_actions, seed=s)
            for s in _child_seeds(POLICY_SEED, "serve/policies", knobs["policies"])
        ]
    )
    server = DecisionServer(
        store,
        max_batch=SERVE_MAX_BATCH,
        deadline_ms=SERVE_DEADLINE_MS,
        queue_limit=SERVE_QUEUE,
        admission=SERVE_ADMISSION,
    )
    rng = np.random.default_rng([seed, *b"serve/traffic"])

    def traffic(count: int):
        return (
            make_traffic(
                rng,
                count,
                num_networks=knobs["networks"],
                num_policies=knobs["policies"],
                history_length=HISTORY_LENGTH,
                num_channels=mdp.num_channels,
                num_power_levels=mdp.num_power_levels,
            ),
            rng.exponential(1.0, size=count),
        )

    # The fixed-rate phase comes in blocks: one stall of the host then
    # spoils one block's p99, not the whole sample's. A block of bursts
    # follows each, every request of a burst due at once, to measure the
    # saturated decision rate; a burst fills the server's queue exactly, so
    # none waits for admission. Interleaving the two spreads both over the
    # whole run.
    phases = []
    for _ in range(knobs["latency_blocks"]):
        rate = knobs["latency_rate"]
        phases.append(("fixed", rate, *traffic(knobs["latency_requests"])))
        for _ in range(knobs["burst_groups"]):
            requests, _ = traffic(SERVE_QUEUE)
            phases.append(("burst", 1.0, requests, np.zeros(SERVE_QUEUE)))
    for k in range(knobs["ladder_rungs"]):
        rate = knobs["ladder_base"] * LADDER_STEP**k
        phases.append(("rung", rate, *traffic(knobs["rung_requests"])))
    return {
        "seed": seed,
        "knobs": knobs,
        "defaults": defaults,
        "store": store,
        "server": server,
        "phases": phases,
        "on_request": None,
    }


async def _serve_phases(state: dict) -> list[tuple]:
    """(kind, result, CPU seconds) of every phase run."""
    from loadgen import run_phase

    server = state["server"]
    results = []
    failing = 0
    for kind, rate, traffic, gaps in state["phases"]:
        cpu = time.process_time()
        phase = await run_phase(
            server,
            traffic,
            rate,
            gaps,
            timeout_s=REQUEST_TIMEOUT_S,
            backlog_slack=SERVE_MAX_BATCH,
            on_request=state["on_request"],
        )
        results.append((kind, phase, time.process_time() - cpu))
        if kind == "rung":
            failing = 0 if phase.meets_limit() else failing + 1
            if failing >= LADDER_STOP_AFTER:
                break
    await server.stop()
    return results


def _slot_goodput(latency_s: float, seed: int, slots: int = 32) -> float:
    """Packets per 3 s slot when each slot's decision waits ``latency_s``.

    The Fig. 9(a)/10 coupling: decision time is slot time the data phase
    loses. Averaged over ``slots`` seeded slots of the paper's network.
    """
    from repro.net.goodput import GoodputModel
    from repro.rng import derive

    defaults = _paper()
    model = GoodputModel(num_nodes=defaults.num_peripherals)
    rng = derive(seed, "serve/goodput")
    delivered = [
        model.run_slot(
            defaults.tx_slot_duration_s,
            negotiation_s=model.negotiation_overhead(rng) + latency_s,
            rng=rng,
        ).packets_delivered
        for _ in range(slots)
    ]
    return float(np.mean(delivered))


def serve_run(state: dict) -> dict:
    import asyncio

    from loadgen import LATENCY_LIMIT_S

    results = asyncio.run(_serve_phases(state))
    phases = [p for _, p, _ in results]
    fixed = [p for kind, p, _ in results if kind == "fixed"]
    bursts = [(p, cpu) for kind, p, cpu in results if kind == "burst"]
    ladder = [p for kind, p, _ in results if kind == "rung"]
    max_rate = 0.0
    for phase in ladder:
        if phase.meets_limit():
            max_rate = phase.rate
    # Requests that count as operations: the fixed-rate phase, the bursts
    # and every rung up to the highest passing one. Rungs past the knee are
    # probes whose failures define the knee.
    counted = [p for kind, p, _ in results if kind != "rung" or p.rate <= max_rate]
    # One value per fixed-rate block, or per block of bursts, of each metric.
    groups = state["knobs"]["burst_groups"]
    decisions_per_cpu_s = []
    for k in range(0, len(bursts), groups):
        block = bursts[k : k + groups]
        answered = sum(int(np.isfinite(p.latencies_s).sum()) for p, _ in block)
        decisions_per_cpu_s.append(answered / sum(cpu for _, cpu in block))
    p99_ms = [p.quantile_ms(0.99) for p in fixed]
    # A burst is late and queues by design: lateness and queue waits are
    # those of the scheduled phases.
    scheduled = fixed + ladder
    late = np.concatenate([np.asarray(p.late_s) for p in scheduled])
    waits = np.concatenate([np.asarray(p.waits_s) for p in scheduled])
    return {
        "metrics": {
            "steps_per_s": decisions_per_cpu_s,
            "network_slots_per_s": decisions_per_cpu_s,
            "success_rate": [
                float(np.mean(p.latencies_s <= LATENCY_LIMIT_S)) for p in fixed
            ],
            "goodput_pkts_per_slot": [
                _slot_goodput(ms / 1000.0, state["seed"]) for ms in p99_ms
            ],
            "latency_p50_ms": [p.quantile_ms(0.5) for p in fixed],
        },
        "attempted": sum(p.sent for p in counted),
        "failed": sum(p.failed for p in counted)
        + sum(p.errors for p in ladder if p.rate > max_rate),
        "phases": phases,
        # The serving run's cost phases are its fixed-rate blocks and bursts.
        "cost_cpu_s": sum(cpu for kind, _, cpu in results if kind != "rung"),
        "digest": _digest([p.actions for kind, p, _ in results if kind != "rung"]),
        "check_digest": "",
        "counts": {
            "serve.latency_p99_ms": float(np.median(p99_ms)),
            "serve.max_rate_rps": max_rate,
            "serve.shed": sum(p.shed for p in phases),
            "serve.timeouts": sum(p.timeouts for p in phases),
            "serve.wait_ms_p50": float(np.quantile(waits, 0.5)) * 1000.0,
            "serve.wait_ms_p99": float(np.quantile(waits, 0.99)) * 1000.0,
            "loadgen.late_ms_p99": float(np.quantile(late, 0.99)) * 1000.0,
            "loadgen.late_ms_max": float(late.max()) * 1000.0,
        },
        "notes": {
            "latency_samples": [p.sent for p in fixed],
            "rungs": [
                [round(p.rate), round(p.quantile_ms(0.99), 3), p.failed, p.backlog_grew]
                for p in ladder
            ],
        },
    }


def serve_verify(state: dict, out: dict) -> int:
    """Served actions that differ from ``decide_serial`` (untimed check)."""
    store = state["store"]
    wrong = 0
    for (_, _, traffic, _), phase in zip(state["phases"], out["phases"]):
        for i in np.flatnonzero(phase.actions >= 0):
            expected = store.decide_serial(
                int(traffic.policies[i]), traffic.observations[i]
            )
            wrong += int(expected != phase.actions[i])
    return wrong


#: name -> (setup, run, check, verify). ``check(seed, knobs)`` computes the
#: oracle digest in the same process after sampling; ``verify(state, out)``
#: counts wrong outputs of one sample. Both are untimed.
WORKLOADS = {
    "train": (train_setup, train_run, train_check, None),
    "field_sweep": (field_sweep_setup, field_sweep_run, field_sweep_check, None),
    "field_adv": (field_adv_setup, field_adv_run, field_adv_check, None),
    "serve": (serve_setup, serve_run, None, serve_verify),
}
