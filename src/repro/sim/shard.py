"""Sharded multi-network field engine — a city of star networks per slot.

:class:`~repro.sim.field.FieldExperiment` simulates one hub plus its
peripherals. This module scales that to N coexisting networks on a 2-D
field, stepped in lock-step as tensor ops:

* :class:`FieldGrid` places N hub+peripheral star networks at deterministic
  positions and advances them all per slot — vectorised negotiation/goodput
  sampling (the fixed-draw aggregate kernels of :mod:`repro.net`), a
  :class:`FieldJammerBank` of per-network time-domain jammers, and batched
  policy adapters (table-probed :class:`StatePolicyAdapter`, one stacked
  greedy forward for :class:`DQNPolicyAdapter` fleets).
* The field is partitioned into vertical strips (shards). Co-channel
  interference between neighbouring networks only affects *delivery*,
  never the control path (channel choice, jammer dynamics, rng streams),
  so each shard simulates its own networks plus a halo of border
  neighbours exactly and discards the halo's outputs — K-shard results are
  bitwise equal to 1-shard results, and shards dispatch across
  :class:`~repro.exec.ParallelRunner` workers worker-count-invariantly.
* Aggregation streams: per-network counters accumulate slot by slot and
  per-slot records are retained only under ``keep_records=True``, so
  million-slot runs hold O(N) state.

Every network i derives its seeds from ``network_seed(seed, i)`` exactly
like a solo :class:`FieldExperiment` would, so any network in a grid can
be replayed alone bit-for-bit (absent interference).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np
from scipy.spatial import cKDTree

from repro import config
from repro.channel.fidelity import JamAdjudicator, make_channel, resolve_channel_tier
from repro.channel.link import Interferer, JammerSignalType, LinkBudget
from repro.channel.propagation import LogDistancePathLoss
from repro.core.mdp import TJ, J, MDPConfig, State
from repro.core.metrics import MetricSummary, SlotLog
from repro.core.policy import TabularPolicy, ThresholdPolicy
from repro.core.vecenv import greedy_policy_actions
from repro.errors import ConfigurationError, SimulationError
from repro.exec.faults import TaskFailure
from repro.exec.runner import ParallelRunner
from repro.jamming.adversary import make_field_jammer
from repro.jamming.jammer import FieldJammer
from repro.net.goodput import AGGREGATE_DRAWS_PER_SLOT, GoodputModel
from repro.obs import telemetry as obs_telemetry
from repro.obs import trace as obs_trace
from repro.obs.metrics import METRICS, drain_labelled_counters
from repro.rng import SeedLike, derive, make_rng
from repro.sim.engine import check_num_slots, resolve_field_batch
from repro.sim.field import (
    DeceptionAdapter,
    DQNPolicyAdapter,
    FieldConfig,
    FieldExperiment,
    FieldResult,
    FieldSlotRecord,
    FieldWindowRecorder,
    StatePolicyAdapter,
    field_telemetry_labels,
)
from repro.sim.scenario import SCHEMES, scheme_policy

#: Environment variable selecting the default shard count.
SHARDS_ENV = "REPRO_SHARDS"

#: Shard count from an override or ``REPRO_SHARDS`` (``auto`` = one per
#: CPU). Any value produces bitwise-identical results.
resolve_shards = partial(config.resolve, SHARDS_ENV)

# MDP states packed into an int array: J and TJ get negative codes, clean
# streaks keep their positive value.
_J_CODE = -2
_TJ_CODE = -1


def _state_obj(code: int) -> State:
    if code == _J_CODE:
        return J
    if code == _TJ_CODE:
        return TJ
    return int(code)


def network_seed(seed: SeedLike, index: int) -> int:
    """The integer seed network ``index`` of a grid derives everything from.

    A solo :class:`FieldExperiment` constructed with this seed consumes the
    exact rng streams the grid gives network ``index``.
    """
    return int(derive(seed, f"grid-net[{index}]").integers(0, 2**63 - 1))


def network_positions(
    seed: SeedLike, num_networks: int, width_m: float, height_m: float
) -> np.ndarray:
    """Deterministic (N, 2) hub positions, uniform over the field."""
    rng = derive(seed, "grid-positions")
    return rng.random((num_networks, 2)) * np.array([width_m, height_m])


@dataclass(frozen=True)
class InterferenceModel:
    """Co-channel coupling between neighbouring networks.

    Networks whose hubs sit within ``radius_m`` of each other and transmit
    on the same ZigBee channel degrade each other's delivery: the
    neighbour's hub is treated as a plain ZigBee interferer against this
    network's peripheral→hub link (length ``link_distance_m``). MDP power
    levels are interpreted as transmit dBm. Distances quantise to
    ``distance_bin_m`` bins so the PER grid stays small and shard-stable.
    """

    radius_m: float = 12.0
    link_distance_m: float = 3.0
    packet_octets: int = 60
    distance_bin_m: float = 0.5
    propagation: LogDistancePathLoss = field(default_factory=LogDistancePathLoss)
    #: Channel-fidelity tier of the co-channel PER grid (``None`` reads
    #: ``REPRO_CHANNEL`` at construction; normalised to the tier name).
    channel: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "channel", resolve_channel_tier(self.channel))
        if self.radius_m <= 0:
            raise ConfigurationError("interference radius must be positive")
        if self.link_distance_m <= 0:
            raise ConfigurationError("link distance must be positive")
        if self.packet_octets < 1:
            raise ConfigurationError("packet size must be at least one octet")
        if self.distance_bin_m <= 0:
            raise ConfigurationError("distance bin must be positive")


@dataclass(frozen=True)
class GridConfig:
    """Parameters of a multi-network field grid."""

    field: FieldConfig = field(
        default_factory=lambda: FieldConfig(sampling="aggregate")
    )
    num_networks: int = 16
    width_m: float = 100.0
    height_m: float = 100.0
    #: Baseline scheme driving every network when no factory is given.
    scheme: str = "optimal"
    #: Optional ``factory(mdp, net_seed) -> adapter`` override; must be
    #: picklable when shards are dispatched across pool workers.
    adapter_factory: object | None = None
    interference: InterferenceModel | None = None
    #: Retain per-slot records (O(N · slots) memory) instead of streaming.
    keep_records: bool = False

    def __post_init__(self) -> None:
        if self.num_networks < 1:
            raise ConfigurationError("grid needs at least one network")
        if self.width_m <= 0 or self.height_m <= 0:
            raise ConfigurationError("field dimensions must be positive")
        if self.adapter_factory is None and self.scheme not in SCHEMES:
            raise ConfigurationError(
                f"unknown scheme {self.scheme!r}; expected one of {SCHEMES}"
            )


# The exact optimum is seed-independent and expensive (value iteration), so
# one solve per MDP geometry serves every network in every shard.
_OPTIMAL_POLICY_CACHE: dict[MDPConfig, TabularPolicy] = {}


@dataclass(frozen=True)
class SchemeAdapterFactory:
    """Default adapter factory: one baseline-scheme adapter per network."""

    scheme: str = "optimal"
    hop_channels: tuple[int, ...] | None = None

    def __call__(self, mdp: MDPConfig, net_seed: int):
        if self.scheme in ("optimal", "deception"):
            # Both run the (seed-independent) exact optimum underneath.
            policy = _OPTIMAL_POLICY_CACHE.get(mdp)
            if policy is None:
                policy = scheme_policy("optimal", mdp)
                _OPTIMAL_POLICY_CACHE[mdp] = policy
        else:
            policy = scheme_policy(
                self.scheme, mdp, seed=derive(net_seed, "grid-policy")
            )
        adapter = StatePolicyAdapter(
            policy,
            mdp,
            hop_channels=self.hop_channels,
            seed=derive(net_seed, "grid-adapter"),
        )
        if self.scheme == "deception":
            return DeceptionAdapter(
                adapter,
                mdp,
                jam_width=mdp.jam_width,
                seed=derive(net_seed, "grid-decoy"),
            )
        return adapter


class FieldJammerBank:
    """N independent time-domain jammers advanced as one batch query."""

    def __init__(self, jammers: list[FieldJammer]) -> None:
        if not jammers:
            raise ConfigurationError("a jammer bank needs at least one jammer")
        self.jammers = list(jammers)

    def __len__(self) -> int:
        return len(self.jammers)

    def attack_profiles(
        self, window_start: float, window_end: float, victim_channels
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Advance every jammer across the window against its own victim.

        Returns ``(jammed_fraction, attempted, max_power)`` arrays.
        """
        n = len(self.jammers)
        fraction = np.zeros(n)
        attempted = np.zeros(n, dtype=bool)
        max_power = np.zeros(n)
        for i, jammer in enumerate(self.jammers):
            profile = jammer.attack_profile(
                window_start, window_end, int(victim_channels[i])
            )
            fraction[i] = profile.jammed_fraction
            attempted[i] = profile.attempted
            max_power[i] = profile.max_power
        return fraction, attempted, max_power

    def attacking(self, channels) -> np.ndarray:
        """Whether each jammer currently attacks the paired channel."""
        return np.array(
            [
                jammer.is_attacking(int(channels[i]))
                for i, jammer in enumerate(self.jammers)
            ],
            dtype=bool,
        )


@dataclass(frozen=True, eq=False)
class GridResult:
    """Aggregate outcome of a grid run (arrays indexed by network)."""

    slots: int
    shards: int
    positions: np.ndarray
    goodput_pkts_per_slot: np.ndarray
    utilization: np.ndarray
    metrics: tuple[MetricSummary, ...]
    records: tuple[tuple[FieldSlotRecord, ...], ...] | None

    @property
    def num_networks(self) -> int:
        return len(self.metrics)

    @property
    def mean_goodput(self) -> float:
        return float(self.goodput_pkts_per_slot.mean())

    @property
    def mean_utilization(self) -> float:
        return float(self.utilization.mean())

    def network_result(self, index: int) -> FieldResult:
        """Network ``index``'s outcome in solo :class:`FieldResult` form."""
        return FieldResult(
            slots=self.slots,
            goodput_pkts_per_slot=float(self.goodput_pkts_per_slot[index]),
            utilization=float(self.utilization[index]),
            metrics=self.metrics[index],
            records=self.records[index] if self.records is not None else (),
        )


@dataclass(frozen=True)
class _ShardSpec:
    """Everything one shard needs, shipped to a (possibly remote) worker."""

    config: GridConfig
    num_slots: int
    field_batch: int
    shard_index: int
    #: Local→global index of every simulated network (own + halo), sorted.
    global_indices: tuple[int, ...]
    #: Local indices whose results this shard owns.
    own_local: tuple[int, ...]
    positions: np.ndarray
    net_seeds: tuple[int, ...]


class _InterferenceEngine:
    """Per-shard precomputed PER grid + per-slot victim factors."""

    def __init__(
        self,
        model: InterferenceModel,
        mdp: MDPConfig,
        positions: np.ndarray,
        global_indices: tuple[int, ...],
    ) -> None:
        self.num_local = len(global_indices)
        tx_dbm = np.asarray(mdp.tx_power_levels, dtype=np.float64)
        pairs = (
            cKDTree(positions).query_pairs(model.radius_m, output_type="ndarray")
            if self.num_local > 1
            else np.empty((0, 2), dtype=np.intp)
        )
        # Directed edges (source hub → victim network), both ways.
        src = np.concatenate([pairs[:, 0], pairs[:, 1]])
        vic = np.concatenate([pairs[:, 1], pairs[:, 0]])
        dist = np.hypot(
            positions[src, 0] - positions[vic, 0],
            positions[src, 1] - positions[vic, 1],
        )
        bins = (dist // model.distance_bin_m).astype(np.intp)
        # Deterministic accumulation order: victims ascending, then source
        # *global* index — identical in every shard decomposition.
        glob = np.asarray(global_indices, dtype=np.intp)
        order = np.lexsort((glob[src], glob[vic]))
        self.src = src[order]
        self.vic = vic[order]
        self.bins = bins[order]
        # PER of the victim's peripheral→hub link per (distance bin, source
        # power, victim power), computed once via the memoised LinkTable.
        levels = len(tx_dbm)
        used = np.unique(self.bins) if len(self.bins) else np.empty(0, np.intp)
        max_bin = int(used.max()) + 1 if len(used) else 0
        self.per = np.zeros((max_bin, levels, levels))
        table = make_channel(
            model.channel, budget=LinkBudget(propagation=model.propagation)
        )
        signals = {
            pv: model.propagation.received_power_dbm(
                float(tx_dbm[pv]), model.link_distance_m
            )
            for pv in range(levels)
        }
        for b in used:
            centre = (float(b) + 0.5) * model.distance_bin_m
            for ps in range(levels):
                rx = model.propagation.received_power_dbm(
                    float(tx_dbm[ps]), centre
                )
                interferer = Interferer(
                    power_dbm=rx, signal_type=JammerSignalType.ZIGBEE
                )
                for pv in range(levels):
                    self.per[b, ps, pv] = table.packet_error_rate(
                        signals[pv], model.packet_octets, (interferer,)
                    )

    def factors(self, channels: np.ndarray, powers: np.ndarray) -> np.ndarray:
        """Per-network delivery factor ∏ (1 − PER) over co-channel edges."""
        out = np.ones(self.num_local)
        if not len(self.src):
            return out
        co = channels[self.src] == channels[self.vic]
        if not co.any():
            return out
        per = self.per[self.bins, powers[self.src], powers[self.vic]]
        np.multiply.at(out, self.vic, np.where(co, 1.0 - per, 1.0))
        return out


class _StreamMatrix:
    """Per-network uniform streams refilled block-wise as one matrix.

    Row i consumes ``rngs[i]`` in sequential prefix order for any block
    size, exactly like the solo engine's
    :class:`~repro.sim.engine.UniformStream`.
    """

    def __init__(
        self, rngs: list[np.random.Generator], draws_per_slot: int, block_slots: int
    ) -> None:
        self._rngs = rngs
        self._draws = int(draws_per_slot)
        self._block = int(block_slots)
        self._buffer = np.empty((len(rngs), 0))
        self._cursor = 0

    def next_slots(self) -> np.ndarray:
        """(N, draws_per_slot) uniforms for the next slot."""
        if self._cursor >= self._buffer.shape[1]:
            self._buffer = np.empty((len(self._rngs), self._block * self._draws))
            for i, rng in enumerate(self._rngs):
                self._buffer[i] = rng.random(self._block * self._draws)
            self._cursor = 0
        out = self._buffer[:, self._cursor : self._cursor + self._draws]
        self._cursor += self._draws
        return out


def _make_adapters(spec: _ShardSpec) -> list:
    factory = spec.config.adapter_factory or SchemeAdapterFactory(
        spec.config.scheme
    )
    mdp = spec.config.field.mdp
    return [factory(mdp, net_seed) for net_seed in spec.net_seeds]


class _ShardEngine:
    """Simulate one shard's networks (own + halo) for ``num_slots`` slots."""

    def __init__(self, spec: _ShardSpec) -> None:
        self.spec = spec
        self.cfg = spec.config
        self.fld = spec.config.field
        self.adapters = _make_adapters(spec)
        self.interference = (
            _InterferenceEngine(
                self.cfg.interference,
                self.fld.mdp,
                spec.positions,
                spec.global_indices,
            )
            if self.cfg.interference is not None and len(spec.global_indices) > 1
            else None
        )

    def _scheme_label(self) -> str:
        """The ``scheme=`` label value for this grid's telemetry/counters."""
        factory = self.cfg.adapter_factory
        if factory is None:
            return self.cfg.scheme
        return getattr(factory, "scheme", "custom")

    def _recorder(self, own) -> FieldWindowRecorder | None:
        """A window recorder over this shard's own networks, or ``None``."""
        if not obs_telemetry.enabled():
            return None
        spec = self.spec
        return FieldWindowRecorder(
            [spec.global_indices[int(k)] for k in own],
            shard=spec.shard_index,
            labels=field_telemetry_labels(self.fld, self._scheme_label()),
        )

    def _flush_counters(self, own, jammer_of, adapter_of) -> None:
        """Drain own networks' adversary/defence counters into labelled metrics.

        Only *own* networks flush — halo replicas run the same jammers but
        their counters are discarded with the rest of their outputs, so
        K-shard registries match the 1-shard registry. The ``network``
        label keeps each count a single-network value (no cross-shard
        float accumulation), which is what makes the merged labelled
        registry bit-identical across shard/worker decompositions.
        """
        adversary = (
            self.fld.jammer.adversary if self.fld.jammer is not None else None
        )
        scheme = self._scheme_label()
        spec = self.spec
        for k in own:
            g = spec.global_indices[int(k)]
            if adversary is not None:
                drain_labelled_counters(
                    jammer_of(int(k)),
                    "jam",
                    {"adversary": adversary, "network": g},
                )
            drain_labelled_counters(
                adapter_of(int(k)),
                "defense",
                {"scheme": scheme, "network": g},
            )

    def run(self) -> dict:
        with obs_trace.span(
            "sim/shard",
            shard=self.spec.shard_index,
            networks=len(self.spec.global_indices),
            own=len(self.spec.own_local),
            slots=self.spec.num_slots,
        ):
            if self.fld.sampling == "aggregate":
                payload = self._run_aggregate()
            else:
                payload = self._run_packet()
        METRICS.inc("shard.runs")
        METRICS.inc(
            "shard.network_slots",
            len(self.spec.global_indices) * self.spec.num_slots,
        )
        return payload

    # -- exact per-packet mode ------------------------------------------------

    def _run_packet(self) -> dict:
        spec = self.spec
        fld = self.fld
        experiments = [
            FieldExperiment(fld, adapter, seed=net_seed)
            for adapter, net_seed in zip(self.adapters, spec.net_seeds)
        ]
        own = list(spec.own_local)
        delivered = np.zeros(len(own), dtype=np.int64)
        util = np.zeros(len(own))
        records: list[list[FieldSlotRecord]] | None = (
            [[] for _ in own] if self.cfg.keep_records else None
        )
        telem = self._recorder(own)
        track_tokens = telem is not None and all(
            hasattr(experiments[local].jammer, "duty_tokens") for local in own
        )
        duration = fld.tx_slot_duration_s
        for t in range(spec.num_slots):
            plans = [exp.begin_slot(t, t * duration) for exp in experiments]
            if self.interference is not None:
                channels = np.array([p.channel for p in plans], dtype=np.intp)
                powers = np.array([p.power_index for p in plans], dtype=np.intp)
                factors = self.interference.factors(channels, powers)
            else:
                factors = np.ones(len(plans))
            recs = [
                exp.finish_slot(plan, interference_factor=float(factors[i]))
                for i, (exp, plan) in enumerate(zip(experiments, plans))
            ]
            for k, local in enumerate(own):
                delivered[k] += recs[local].packets_delivered
                util[k] += recs[local].utilization
                if records is not None:
                    records[k].append(recs[local])
            if telem is not None:
                telem.observe_slot(
                    jammed=[recs[local].state == J for local in own],
                    attempts=[plans[local].jam_attempted for local in own],
                    delivered=[recs[local].packets_delivered for local in own],
                    attempted=[recs[local].packets_attempted for local in own],
                    hops=[plans[local].hopped for local in own],
                    negotiation=[recs[local].negotiation_s for local in own],
                    tokens=(
                        [experiments[local].jammer.duty_tokens for local in own]
                        if track_tokens
                        else None
                    ),
                )
        if telem is not None:
            telem.flush()
        self._flush_counters(
            own,
            lambda k: experiments[k].jammer,
            lambda k: experiments[k].adapter,
        )
        return {
            "own_global": tuple(spec.global_indices[k] for k in own),
            "goodput": delivered / spec.num_slots,
            "utilization": util / spec.num_slots,
            "metrics": tuple(
                experiments[local].log.summary() for local in own
            ),
            "records": (
                tuple(tuple(r) for r in records) if records is not None else None
            ),
        }

    # -- vectorised aggregate mode --------------------------------------------

    def _run_aggregate(self) -> dict:
        spec = self.spec
        fld = self.fld
        adapters = self.adapters
        n = len(adapters)
        mdp = fld.mdp
        goodput_model = GoodputModel(
            timing=fld.timing, num_nodes=fld.num_peripherals
        )
        draws_neg = fld.timing.negotiation_uniform_count(fld.num_peripherals)
        stream = _StreamMatrix(
            [derive(s, "field") for s in spec.net_seeds],
            draws_neg + AGGREGATE_DRAWS_PER_SLOT,
            spec.field_batch,
        )
        bank = (
            FieldJammerBank(
                [
                    make_field_jammer(fld.jammer, seed=derive(s, "field-jammer"))
                    for s in spec.net_seeds
                ]
            )
            if fld.jammer is not None
            else None
        )
        has_decoys = any(hasattr(a, "active_decoy") for a in adapters)

        # Channel-tier jam adjudication, mirroring FieldExperiment: the
        # analytic default keeps the vectorised threshold contest with no
        # extra draws; other tiers consume one uniform per network per
        # slot from per-network "field-channel" streams, so any grid
        # network still replays solo bit-for-bit on its derived seed.
        adjudicator = JamAdjudicator(fld.channel)
        jam_streams = (
            [make_rng(derive(s, "field-channel")) for s in spec.net_seeds]
            if (bank is not None and not adjudicator.analytic)
            else None
        )

        # Decide-phase strategy: stateless table policies vectorise, a
        # DQN fleet acts through one stacked forward, anything else loops.
        plain_state = all(type(a) is StatePolicyAdapter for a in adapters)
        tabled = plain_state and all(
            isinstance(a.policy, (TabularPolicy, ThresholdPolicy))
            for a in adapters
        )
        all_dqn = all(isinstance(a, DQNPolicyAdapter) for a in adapters)
        # Hoisted once: the same agent list every slot keeps the stacked
        # weights hot in the vecenv policy-stack cache instead of
        # restacking them per slot.
        dqn_agents = [a.agent for a in adapters] if all_dqn else None
        hop_table = power_table = None
        if tabled:
            # Probe each (stateless) policy once per reachable state.
            state_codes = [_J_CODE, _TJ_CODE] + list(
                range(1, mdp.sweep_cycle)
            )
            hop_table = np.zeros((n, len(state_codes)), dtype=bool)
            power_table = np.zeros((n, len(state_codes)), dtype=np.intp)
            for i, adapter in enumerate(adapters):
                for j, code in enumerate(state_codes):
                    action = adapter.policy.action(_state_obj(code))
                    hop_table[i, j] = action.hop
                    power_table[i, j] = action.power_index

        tx_levels = np.asarray(mdp.tx_power_levels, dtype=np.float64)
        duration = fld.tx_slot_duration_s
        threshold = fld.jam_state_threshold
        cycle = mdp.sweep_cycle
        code = np.ones(n, dtype=np.int64)
        streak = np.ones(n, dtype=np.int64)
        channels = np.array([a.channel for a in adapters], dtype=np.intp)
        rows = np.arange(n)

        own = np.asarray(spec.own_local, dtype=np.intp)
        delivered_acc = np.zeros(n, dtype=np.int64)
        util_acc = np.zeros(n)
        successes = np.zeros(n, dtype=np.int64)
        hops = np.zeros(n, dtype=np.int64)
        useful_hops = np.zeros(n, dtype=np.int64)
        pc_slots = np.zeros(n, dtype=np.int64)
        pc_wins = np.zeros(n, dtype=np.int64)
        jam_attempts = np.zeros(n, dtype=np.int64)
        total_reward = np.zeros(n)
        records: list[list[FieldSlotRecord]] | None = (
            [[] for _ in own] if self.cfg.keep_records else None
        )
        telem = self._recorder(own)
        track_tokens = (
            telem is not None
            and bank is not None
            and all(hasattr(j, "duty_tokens") for j in bank.jammers)
        )

        for t in range(spec.num_slots):
            start = t * duration
            previous = channels.copy()
            # Decide.
            if tabled:
                # state_codes layout: J→0, TJ→1, streak k→k+1.
                idx = np.where(code < 0, code + 2, code + 1)
                hop = hop_table[rows, idx]
                powers = power_table[rows, idx]
                for k in np.flatnonzero(hop):
                    channels[k] = adapters[k].hop()
            elif all_dqn:
                obs = np.stack([a.observation() for a in adapters])
                actions = greedy_policy_actions(dqn_agents, obs)
                powers = np.empty(n, dtype=np.intp)
                for k, adapter in enumerate(adapters):
                    channels[k], powers[k] = adapter.apply(int(actions[k]))
            else:
                powers = np.empty(n, dtype=np.intp)
                for k, adapter in enumerate(adapters):
                    channels[k], powers[k] = adapter.decide(
                        _state_obj(int(code[k]))
                    )
            hopped = channels != previous
            tx_power = tx_levels[powers]

            # Negotiation (fixed per-slot draw budget per network).
            stranded = code == _J_CODE
            draws = stream.next_slots()
            negotiation = (
                fld.timing.negotiation_time_from_uniforms(
                    fld.num_peripherals,
                    draws[:, :draws_neg],
                    include_recovery=stranded,
                )
                + goodput_model.slot_guard_s
            )

            # Decoys (deception defence): pay airtime, bait the jammers —
            # same ordering as FieldExperiment.begin_slot.
            if has_decoys:
                decoys = [getattr(a, "active_decoy", None) for a in adapters]
                negotiation = negotiation + np.array(
                    [
                        float(getattr(a, "decoy_airtime_s", 0.0))
                        if d is not None
                        else 0.0
                        for a, d in zip(adapters, decoys)
                    ]
                )
                if bank is not None:
                    for jammer, d in zip(bank.jammers, decoys):
                        jammer.observe_decoy(d)

            # Jammer bank.
            if bank is not None:
                fraction, attempted, max_power = bank.attack_profiles(
                    start, start + duration, channels
                )
                if jam_streams is None:
                    defeated = attempted & (tx_power >= max_power)
                else:
                    us = np.array([r.random() for r in jam_streams])
                    defeated = np.zeros(n, dtype=bool)
                    idx = np.flatnonzero(attempted)
                    if len(idx):
                        surv = adjudicator.survival_array(
                            tx_power[idx], max_power[idx]
                        )
                        defeated[idx] = us[idx] < surv
                jam_fraction = np.where(attempted & ~defeated, fraction, 0.0)
                old_attacked = hopped & bank.attacking(previous)
            else:
                attempted = np.zeros(n, dtype=bool)
                defeated = np.zeros(n, dtype=bool)
                jam_fraction = np.zeros(n)
                old_attacked = np.zeros(n, dtype=bool)

            # State label (vectorised serial state machine).
            jam_label = attempted & ~defeated & (jam_fraction >= threshold)
            tj_label = attempted & ~jam_label
            streak_clean = np.where(
                hopped | (code < 0), 1, np.minimum(streak + 1, cycle - 1)
            )
            streak = np.where(attempted, 0, streak_clean)
            code = np.where(
                jam_label, _J_CODE, np.where(tj_label, _TJ_CODE, streak_clean)
            )

            # Delivery.
            factors = (
                self.interference.factors(channels, powers)
                if self.interference is not None
                else 1.0
            )
            probability = (1.0 - jam_fraction) * factors
            neg_out, effective, att, dlv = goodput_model.run_slot_aggregate(
                duration,
                success_probability=probability,
                negotiation_s=np.minimum(negotiation, duration),
                uniforms=draws[:, draws_neg:],
            )

            # Streamed accounting (matches SlotLog.record per network).
            success = ~jam_label
            reward = (
                -tx_power
                - np.where(hopped, mdp.loss_hop, 0.0)
                - np.where(jam_label, mdp.loss_jam, 0.0)
            )
            successes += success
            jam_attempts += attempted
            total_reward += reward
            hops += hopped
            useful_hops += hopped & success & old_attacked
            pc_raised = powers > 0
            pc_slots += pc_raised
            pc_wins += pc_raised & attempted & defeated
            delivered_acc += dlv
            util_acc += effective / duration

            if not plain_state:
                for k, adapter in enumerate(adapters):
                    adapter.observe(
                        _state_obj(int(code[k])), int(channels[k]), int(powers[k])
                    )

            if records is not None:
                for k, local in enumerate(own):
                    records[k].append(
                        FieldSlotRecord(
                            slot=t,
                            channel=int(channels[local]),
                            power_index=int(powers[local]),
                            state=_state_obj(int(code[local])),
                            packets_delivered=int(dlv[local]),
                            packets_attempted=int(att[local]),
                            negotiation_s=float(neg_out[local]),
                            utilization=float(effective[local]) / duration,
                            jammed_fraction=float(jam_fraction[local]),
                        )
                    )

            if telem is not None:
                telem.observe_slot(
                    jammed=jam_label[own],
                    attempts=attempted[own],
                    delivered=dlv[own],
                    attempted=att[own],
                    hops=hopped[own],
                    negotiation=neg_out[own],
                    tokens=(
                        [bank.jammers[int(k)].duty_tokens for k in own]
                        if track_tokens
                        else None
                    ),
                )

        if telem is not None:
            telem.flush()
        self._flush_counters(
            own,
            (lambda k: bank.jammers[k]) if bank is not None else (lambda k: None),
            lambda k: adapters[k],
        )
        METRICS.inc("sim.slots", int(n * spec.num_slots))
        METRICS.inc("sim.hops", int(hops.sum()))
        METRICS.inc("sim.pc_slots", int(pc_slots.sum()))
        METRICS.inc("sim.jam_attempts", int(jam_attempts.sum()))
        metrics = tuple(
            SlotLog(
                slots=spec.num_slots,
                successes=int(successes[local]),
                hops=int(hops[local]),
                useful_hops=int(useful_hops[local]),
                pc_slots=int(pc_slots[local]),
                pc_wins=int(pc_wins[local]),
                jam_attempts=int(jam_attempts[local]),
                total_reward=float(total_reward[local]),
            ).summary()
            for local in own
        )
        return {
            "own_global": tuple(spec.global_indices[k] for k in own),
            "goodput": delivered_acc[own] / spec.num_slots,
            "utilization": util_acc[own] / spec.num_slots,
            "metrics": metrics,
            "records": (
                tuple(tuple(r) for r in records) if records is not None else None
            ),
        }


def _run_shard_task(spec: _ShardSpec) -> dict:
    """Pool-dispatchable entry point: simulate one shard."""
    return _ShardEngine(spec).run()


class FieldGrid:
    """N coexisting star networks on a 2-D field, stepped per slot.

    Positions and per-network seeds derive deterministically from ``seed``,
    so results are invariant to shard count, worker count, field-batch
    size, and ``keep_records`` — those are pure performance/memory knobs.
    ``run`` is a pure function of ``(config, seed, num_slots)``: engines
    are rebuilt per call, so calling it twice returns identical results.
    """

    def __init__(
        self,
        config: GridConfig,
        *,
        seed: SeedLike = None,
        shards: int | str | None = None,
        workers: int | str | None = None,
        field_batch: int | None = None,
    ) -> None:
        self.config = config
        self.shards = min(resolve_shards(shards), config.num_networks)
        self.workers = workers
        self.field_batch = resolve_field_batch(field_batch)
        self.positions = network_positions(
            seed, config.num_networks, config.width_m, config.height_m
        )
        self.network_seeds = tuple(
            network_seed(seed, i) for i in range(config.num_networks)
        )

    def _shard_specs(self, num_slots: int) -> list[_ShardSpec]:
        cfg = self.config
        x = self.positions[:, 0]
        edges = np.linspace(0.0, cfg.width_m, self.shards + 1)
        shard_of = np.minimum(
            np.searchsorted(edges, x, side="right") - 1, self.shards - 1
        )
        radius = (
            cfg.interference.radius_m if cfg.interference is not None else 0.0
        )
        specs = []
        for s in range(self.shards):
            own = shard_of == s
            if not own.any():
                continue
            members = own
            if radius > 0.0 and self.shards > 1:
                halo = (~own) & (x >= edges[s] - radius) & (x <= edges[s + 1] + radius)
                members = own | halo
            local_global = tuple(int(g) for g in np.flatnonzero(members))
            own_local = tuple(
                i for i, g in enumerate(local_global) if shard_of[g] == s
            )
            specs.append(
                _ShardSpec(
                    config=cfg,
                    num_slots=num_slots,
                    field_batch=self.field_batch,
                    shard_index=s,
                    global_indices=local_global,
                    own_local=own_local,
                    positions=self.positions[list(local_global)],
                    net_seeds=tuple(
                        self.network_seeds[g] for g in local_global
                    ),
                )
            )
        return specs

    def run(self, num_slots: int) -> GridResult:
        num_slots = check_num_slots(num_slots)
        cfg = self.config
        specs = self._shard_specs(num_slots)
        with obs_trace.span(
            "sim/grid",
            networks=cfg.num_networks,
            shards=len(specs),
            slots=num_slots,
        ):
            if len(specs) == 1:
                results = [_run_shard_task(specs[0])]
            else:
                runner = ParallelRunner(self.workers, name="field.shards")
                results = runner.map(_run_shard_task, specs)
        failures = [r for r in results if isinstance(r, TaskFailure)]
        if failures:
            raise SimulationError(
                f"{len(failures)} shard(s) failed; first: "
                f"{failures[0].error_type}: {failures[0].message}"
            )
        n = cfg.num_networks
        goodput = np.zeros(n)
        utilization = np.zeros(n)
        metrics: list[MetricSummary | None] = [None] * n
        records: list[tuple[FieldSlotRecord, ...] | None] | None = (
            [None] * n if cfg.keep_records else None
        )
        for result in results:
            for k, g in enumerate(result["own_global"]):
                goodput[g] = result["goodput"][k]
                utilization[g] = result["utilization"][k]
                metrics[g] = result["metrics"][k]
                if records is not None:
                    records[g] = result["records"][k]
        if any(m is None for m in metrics):
            raise SimulationError("shard partition lost a network")
        return GridResult(
            slots=num_slots,
            shards=len(specs),
            positions=self.positions,
            goodput_pkts_per_slot=goodput,
            utilization=utilization,
            metrics=tuple(metrics),
            records=tuple(records) if records is not None else None,
        )


__all__ = [
    "SHARDS_ENV",
    "resolve_shards",
    "network_seed",
    "network_positions",
    "InterferenceModel",
    "GridConfig",
    "SchemeAdapterFactory",
    "FieldJammerBank",
    "GridResult",
    "FieldGrid",
]
