"""Microbenchmarks for the simulation/training fast-path kernels.

Times each optimised kernel against the reference implementation it
replaced (and is pinned bit-identical to by the equivalence suites):

* PER lookup — memoised :class:`repro.channel.link.LinkTable` vs direct
  :class:`repro.channel.link.LinkBudget` evaluation,
* Viterbi decode — vectorised ACS vs the per-state reference loop,
* batched DQN stepping — stacked ε-greedy act / TD update across N seeds
  vs N serial single-agent calls,
* waveform trials — the batched ``(N, samples)`` trial engine with its
  jammer bank vs the serial per-trial encode/mix/decode loop,
* DSSS despreading — the ±1 GEMM against ``CHIP_TABLE_PM`` vs the
  broadcast Hamming scan,
* sync correlation — windowed preamble searches vs their per-offset
  Python scans,
* channel fidelity tiers — hybrid (calibrated table lookup) PER vs the
  analytic closed form, and the waveform tier's seeded trial cache vs
  uncached Monte-Carlo adjudication.

Stage wall-clocks land in ``benchmarks/results/BENCH_kernels.json``
(with the speedup summary under ``"speedups"`` and the PER-cache
hit/miss counters in the ``"metrics"`` section). The committed baseline
in ``benchmarks/baselines/`` gates regressions via ``repro bench diff``.
"""

from __future__ import annotations

import time

import numpy as np

from conftest import RESULTS_DIR

from repro.channel.link import Interferer, JammerSignalType, LinkBudget, LinkTable
from repro.core.dqn import DQNAgent, DQNConfig, EpsilonSchedule
from repro.core.vecenv import _batched_act, _batched_train_step
from repro.exec import timing
from repro.nn.optimizers import Adam
from repro.nn.stacked import StackedMLP
from repro.phy import convolutional as C
from repro.rng import derive

#: Speedups recorded into the artifact, filled as the tests run.
SPEEDUPS: dict[str, float] = {}


def _timed(stage: str, fn, repeats: int, *, rounds: int = 3) -> float:
    """Best-of-``rounds`` wall-clock of ``repeats`` calls to ``fn``.

    Scheduler noise only ever adds time, so the minimum round is the
    stable estimate; it is what lands in the timing registry (and thus
    the BENCH artifact) under ``stage``.
    """
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        for _ in range(repeats):
            fn()
        best = min(best, time.perf_counter() - start)
    timing.REGISTRY.record(stage, best, items=repeats)
    return best


def _write_artifact() -> None:
    timing.write_bench("kernels", directory=RESULTS_DIR, extra={"speedups": dict(SPEEDUPS)})


def test_per_lookup_speedup():
    budget = LinkBudget()
    table = LinkTable(budget)
    signals = np.linspace(-90.0, -40.0, 25)
    # Jammed-slot conditions: the cache's hot regime is the jamming window,
    # where every frame pays at least one interferer's SINR computation —
    # and contested slots in the heterogeneous testbed routinely stack the
    # jammer on top of concurrent neighbour traffic.
    wifi = Interferer(power_dbm=-40.0, signal_type=JammerSignalType.WIFI)
    emu = Interferer(power_dbm=-45.0, signal_type=JammerSignalType.EMUBEE)
    zig = Interferer(power_dbm=-60.0, signal_type=JammerSignalType.ZIGBEE)
    combos = [(zig,), (emu, zig), (wifi, zig), (emu, wifi, zig)]
    signals = [float(s) for s in signals]

    def grid(per_fn):
        for signal in signals:
            for combo in combos:
                per_fn(float(signal), 68, combo)

    def direct():
        grid(lambda s, o, c: budget.packet_error_rate(s, o, list(c)))

    def cached():
        grid(table.packet_error_rate)

    cached()  # warm the table: steady-state lookups are what the sim pays
    direct_s = _timed("kernels.per_lookup.direct", direct, repeats=40)
    cached_s = _timed("kernels.per_lookup.cached", cached, repeats=40)
    SPEEDUPS["per_lookup"] = direct_s / cached_s
    assert table.hit_rate > 0.97  # only the warm-up pass misses
    _write_artifact()
    assert SPEEDUPS["per_lookup"] >= 5.0


def test_viterbi_speedup():
    rng = np.random.default_rng(0)
    msg = rng.integers(0, 2, size=994)
    coded = C.conv_encode(np.concatenate([msg, np.zeros(6, dtype=np.int64)]))
    noisy = coded.copy()
    noisy[rng.choice(coded.size, size=40, replace=False)] ^= 1

    reference_s = _timed(
        "kernels.viterbi.reference",
        lambda: C.viterbi_decode_reference(noisy, terminated=True),
        repeats=3,
    )
    vectorized_s = _timed(
        "kernels.viterbi.vectorized",
        lambda: C.viterbi_decode(noisy, terminated=True),
        repeats=3,
    )
    SPEEDUPS["viterbi"] = reference_s / vectorized_s

    encode_ref_s = _timed(
        "kernels.conv_encode.reference",
        lambda: C.conv_encode_reference(msg),
        repeats=10,
    )
    encode_vec_s = _timed(
        "kernels.conv_encode.vectorized",
        lambda: C.conv_encode(msg),
        repeats=10,
    )
    SPEEDUPS["conv_encode"] = encode_ref_s / encode_vec_s
    _write_artifact()
    assert SPEEDUPS["viterbi"] >= 5.0
    assert SPEEDUPS["conv_encode"] >= 5.0


def _fresh_agents(n: int):
    cfg = DQNConfig(
        observation_size=15,
        num_actions=160,
        hidden_sizes=(64, 64),
        batch_size=64,
        warmup_transitions=256,
        replay_capacity=4000,
        epsilon=EpsilonSchedule(1.0, 0.1, 2000),
    )
    agents = [DQNAgent(cfg, seed=derive(s, "train-agent")) for s in range(n)]
    rng = np.random.default_rng(1)
    for agent in agents:
        obs = rng.standard_normal((512, cfg.observation_size))
        nxt = rng.standard_normal((512, cfg.observation_size))
        agent.replay.push_many(
            obs,
            rng.integers(0, cfg.num_actions, size=512),
            rng.standard_normal(512),
            nxt,
        )
    return cfg, agents


def test_batched_dqn_stepping():
    n = 8
    cfg, agents = _fresh_agents(n)
    online = StackedMLP(
        [agent.online for agent in agents],
        optimizer=Adam(learning_rate=cfg.learning_rate),
    )
    target = StackedMLP([agent.target for agent in agents])
    rng = np.random.default_rng(2)
    obs = rng.standard_normal((n, cfg.observation_size))

    serial_act_s = _timed(
        "kernels.act.serial",
        lambda: [agent.act(obs[i]) for i, agent in enumerate(agents)],
        repeats=300,
    )
    batched_act_s = _timed(
        "kernels.act.batched",
        lambda: _batched_act(online, agents, obs),
        repeats=300,
    )
    SPEEDUPS["act"] = serial_act_s / batched_act_s

    # Separate populations so the timed paths don't share rng/optimizer state.
    _, serial_agents = _fresh_agents(n)
    serial_learn_s = _timed(
        "kernels.learn.serial",
        lambda: [
            agent.train_on(agent.replay.sample(cfg.batch_size))
            for agent in serial_agents
        ],
        repeats=60,
    )
    batched_learn_s = _timed(
        "kernels.learn.batched",
        lambda: _batched_train_step(online, target, agents),
        repeats=60,
    )
    SPEEDUPS["learn"] = serial_learn_s / batched_learn_s
    _write_artifact()
    # The batched paths amortise N forward/backward passes into one; they
    # must at least beat the serial loop (the big wins are asserted above).
    assert SPEEDUPS["act"] > 1.0
    assert SPEEDUPS["learn"] > 1.0


def test_policy_stack_cache_speedup():
    """Cached stacked inference vs the per-call restack it replaced.

    ``greedy_policy_actions`` used to rebuild the (N, ...) weight stack on
    every call — the cost ``sim/shard`` paid once per slot for a DQN
    fleet. The cold path recreates that by clearing the policy-stack
    cache before each call; the warm path is the shipped behaviour
    (version scan + stacked forward only).
    """
    from repro.core.vecenv import clear_policy_stack_cache, greedy_policy_actions

    n = 64
    cfg = DQNConfig(
        observation_size=15, num_actions=160, hidden_sizes=(64, 64)
    )
    agents = [DQNAgent(cfg, seed=derive(s, "train-agent")) for s in range(n)]
    rng = np.random.default_rng(5)
    obs = rng.standard_normal((n, cfg.observation_size))

    def cold():
        clear_policy_stack_cache()
        return greedy_policy_actions(agents, obs)

    def warm():
        return greedy_policy_actions(agents, obs)

    np.testing.assert_array_equal(cold(), warm())  # identical decisions
    cold_s = _timed("kernels.policy_stack.cold", cold, repeats=100)
    warm()  # repopulate after the final cold clear
    warm_s = _timed("kernels.policy_stack.warm", warm, repeats=100)
    SPEEDUPS["policy_stack"] = cold_s / warm_s
    _write_artifact()
    assert SPEEDUPS["policy_stack"] > 1.5


def test_waveform_trial_speedup():
    from repro.channel.trials import (
        JammerBank,
        jam_trials,
        trial_base,
        trial_stream,
    )
    from repro.channel.waveform import jam_trial

    n, payload_bytes, base = 32, 8, trial_base(0)
    bank = JammerBank(1 << 15)
    bank.burst(JammerSignalType.WIFI)  # encode the burst outside the timer

    def draw_payloads():
        streams = [trial_stream(base, i) for i in range(n)]
        payloads = [
            bytes(s.integers(0, 256, payload_bytes, dtype=np.uint8))
            for s in streams
        ]
        return streams, payloads

    def serial():
        # The pre-PR cost: one encode/mix/demodulate/despread pipeline
        # per trial, re-running the Wi-Fi OFDM transmit chain each time.
        streams, payloads = draw_payloads()
        for s, p in zip(streams, payloads):
            jam_trial(
                p,
                signal_type=JammerSignalType.WIFI,
                jam_to_signal_db=3.0,
                rng=s,
            )

    def batched():
        streams, payloads = draw_payloads()
        jam_trials(
            payloads,
            signal_type=JammerSignalType.WIFI,
            jam_to_signal_db=3.0,
            rngs=streams,
            bank=bank,
        )

    # Each stage repeats its n-trial batch enough times to run well above
    # the bench-diff noise floor; the speedup compares time per batch.
    serial_repeats, batched_repeats = 2, 16
    serial_s = _timed(
        "kernels.waveform_trials.serial", serial, repeats=serial_repeats
    )
    batched_s = _timed(
        "kernels.waveform_trials.batched", batched, repeats=batched_repeats
    )
    SPEEDUPS["waveform_trials"] = (serial_s / serial_repeats) / (
        batched_s / batched_repeats
    )

    # The speedup is honest only because the fast path is exact: every
    # batch row equals the serial bank-equipped trial on the same stream.
    streams, payloads = draw_payloads()
    batch = jam_trials(
        payloads,
        signal_type=JammerSignalType.WIFI,
        jam_to_signal_db=3.0,
        rngs=streams,
        bank=bank,
    )
    check_streams, _ = draw_payloads()
    for i in (0, n // 2, n - 1):
        ref = jam_trial(
            payloads[i],
            signal_type=JammerSignalType.WIFI,
            jam_to_signal_db=3.0,
            rng=check_streams[i],
            bank=bank,
        )
        assert batch.trial(i) == ref

    _write_artifact()
    assert SPEEDUPS["waveform_trials"] >= 10.0


def test_despread_gemm_speedup():
    from repro.phy import zigbee as Z

    rng = np.random.default_rng(3)
    chips = rng.integers(0, 2, size=32 * 4096, dtype=np.uint8)

    gemm_sym, gemm_err = Z.despread(chips)
    ref_sym, ref_err = Z.despread_reference(chips)
    assert np.array_equal(gemm_sym, ref_sym)
    assert np.array_equal(gemm_err, ref_err)

    reference_s = _timed(
        "kernels.despread.reference",
        lambda: Z.despread_reference(chips),
        repeats=5,
    )
    gemm_s = _timed(
        "kernels.despread.gemm", lambda: Z.despread(chips), repeats=5
    )
    SPEEDUPS["despread"] = reference_s / gemm_s
    _write_artifact()
    assert SPEEDUPS["despread"] >= 3.0


def test_sync_correlation_speedup():
    from repro.phy import preamble as P
    from repro.phy import sync as S
    from repro.phy import zigbee as Z

    rng = np.random.default_rng(4)
    # A long chip stream whose preamble sits near the end keeps the
    # search in its worst case: every offset is visited.
    chips = rng.integers(0, 2, size=20_000, dtype=np.uint8)
    chips[-8 * 32 :] = np.tile(Z.CHIP_TABLE[0], 8)
    assert S.find_preamble(chips) == S.find_preamble_reference(chips)

    find_ref_s = _timed(
        "kernels.find_preamble.reference",
        lambda: S.find_preamble_reference(chips),
        repeats=2,
    )
    find_vec_s = _timed(
        "kernels.find_preamble.vectorized",
        lambda: S.find_preamble(chips),
        repeats=2,
    )
    SPEEDUPS["find_preamble"] = find_ref_s / find_vec_s

    stf = P.short_training_field()
    wf = 0.05 * (
        rng.standard_normal(12_000) + 1j * rng.standard_normal(12_000)
    )
    wf[-2 * stf.size : -stf.size] += stf
    assert P.locate_preamble(wf) == P.locate_preamble_reference(wf)

    stf_ref_s = _timed(
        "kernels.locate_preamble.reference",
        lambda: P.locate_preamble_reference(wf),
        repeats=2,
    )
    stf_vec_s = _timed(
        "kernels.locate_preamble.vectorized",
        lambda: P.locate_preamble(wf),
        repeats=2,
    )
    SPEEDUPS["locate_preamble"] = stf_ref_s / stf_vec_s
    _write_artifact()
    assert SPEEDUPS["find_preamble"] >= 3.0
    assert SPEEDUPS["locate_preamble"] >= 3.0


def test_channel_fidelity_speedup():
    from repro.channel import fidelity as F

    analytic = LinkBudget()
    hybrid = F.HybridLinkBudget(calibration=F.load_default_calibration())
    emu = Interferer(power_dbm=-45.0, signal_type=JammerSignalType.EMUBEE)
    zig = Interferer(power_dbm=-60.0, signal_type=JammerSignalType.ZIGBEE)
    signals = [float(s) for s in np.linspace(-90.0, -40.0, 25)]
    combos = [(zig,), (emu,), (emu, zig)]

    def grid(budget):
        for signal in signals:
            for combo in combos:
                budget.packet_error_rate(signal, 68, list(combo))

    grid(analytic)  # warm the shared SER caches on both sides
    grid(hybrid)
    analytic_s = _timed(
        "kernels.channel_per.analytic", lambda: grid(analytic), repeats=20
    )
    hybrid_s = _timed(
        "kernels.channel_per.hybrid", lambda: grid(hybrid), repeats=20
    )
    SPEEDUPS["channel_hybrid"] = analytic_s / hybrid_s

    # The waveform tier's cost model: a cache miss pays a batch of
    # Monte-Carlo chip-flip trials, a hit is a dict probe. Keep the grid
    # small so the uncached side stays benchable.
    waveform = F.WaveformLinkBudget(seed=0, trials=8, margin_bin_db=1.0)
    points = [
        (-60.0, (emu,)),
        (-52.0, (emu,)),
        (-45.0, (zig,)),
        (-58.0, (zig, emu)),
    ]

    def waveform_grid():
        for signal, combo in points:
            waveform.packet_error_rate(signal, 68, list(combo))

    def uncached():
        F.clear_trial_cache()
        waveform_grid()

    uncached_s = _timed(
        "kernels.channel_per.waveform_uncached", uncached, repeats=1
    )
    waveform_grid()  # warm: steady-state adjudication hits the cache
    before = F.trial_cache_stats()
    cached_s = _timed(
        "kernels.channel_per.waveform_cached", waveform_grid, repeats=1
    )
    after = F.trial_cache_stats()
    assert after["hits"] > before["hits"]
    assert after["misses"] == before["misses"]
    SPEEDUPS["waveform_channel_cache"] = uncached_s / cached_s
    _write_artifact()
    # The calibrated hybrid table must stay within ~2x of the analytic
    # closed form; the trial cache must amortise Monte-Carlo by >=10x.
    assert SPEEDUPS["channel_hybrid"] >= 0.5
    assert SPEEDUPS["waveform_channel_cache"] >= 10.0
