"""Link-level error models: SINR, BER, PER under heterogeneous interference.

The paper's Fig. 2(b) experiment ranks three jamming signals against a
ZigBee link: EmuBee > ZigBee > Wi-Fi. The asymmetry is mechanistic and this
module models both mechanisms separately:

* **Noise-like interference** (a plain Wi-Fi frame): only the spectral
  slice inside the victim's 2 MHz band matters, and the 32-chip DSSS
  correlator averages it down by the processing gain. The residual SINR
  drives the standard 802.15.4 AWGN BER curve.
* **Waveform-correlated interference** (ZigBee or EmuBee chips): the
  jammer's chips superpose on the victim's at full strength — despreading
  offers no protection because the interference *is* a valid chip stream.
  We model per-chip flips whose probability saturates at 1/2 when the
  jammer dominates, then push the flips through the 32-chip
  minimum-distance decoder.
"""

from __future__ import annotations

import enum
import math
import os
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.stats import binom

from repro.constants import (
    DSSS_PROCESSING_GAIN_DB,
    WIFI_BANDWIDTH_MHZ,
    ZIGBEE_BANDWIDTH_MHZ,
)
from repro.channel.noise import (
    combine_powers_dbm,
    dbm_to_watts,
    thermal_noise_dbm,
)
from repro.channel.propagation import LogDistancePathLoss
from repro.channel.spectrum import inband_power_fraction
from repro.errors import ChannelError
from repro.obs.metrics import METRICS
from repro.phy.zigbee import CHIPS_PER_SYMBOL

#: Fraction of an EmuBee burst's transmit power that lands in the target
#: 2 MHz ZigBee band (the emulated waveform concentrates the Wi-Fi power;
#: coding-constraint spill-over wastes roughly half).
EMUBEE_INBAND_FRACTION = 0.5

#: Equivalent power penalty of imperfect emulation (quantization residue,
#: cyclic-prefix glitches), dB. Matches the ~20 % chip-error fidelity the
#: emulation pipeline measures.
EMULATION_LOSS_DB = 2.0

#: Hamming-distance radius of the 802.15.4 chip decoder: the minimum
#: pairwise distance of the PN set is 12, so > 6 chip errors can flip a
#: symbol decision.
CHIP_DECISION_RADIUS = 6

#: Logistic slope (dB) of the chip-flip probability versus jammer margin.
CHIP_FLIP_SLOPE_DB = 2.0

#: Environment variable controlling the :class:`LinkTable` cache capacity.
#: Unset/empty keeps the default; ``0`` or ``off`` disables memoisation.
PER_CACHE_ENV = "REPRO_PER_CACHE"

#: Default number of memoised PER entries per :class:`LinkTable`.
DEFAULT_PER_CACHE_CAPACITY = 1 << 16


def resolve_per_cache_capacity(value: int | str | None = None) -> int:
    """Resolve the PER-cache capacity from an override or ``REPRO_PER_CACHE``.

    ``None`` (and an unset, empty or blank environment) selects
    :data:`DEFAULT_PER_CACHE_CAPACITY`; ``0``, ``off`` or ``none`` disable
    caching entirely.
    """
    if value is None:
        value = os.environ.get(PER_CACHE_ENV)
    if isinstance(value, str):
        value = value.strip()
    if value is None or value == "":
        # Blank counts as unset, as in every other REPRO_* resolver.
        return DEFAULT_PER_CACHE_CAPACITY
    if isinstance(value, str) and value.lower() in ("off", "none"):
        return 0
    try:
        capacity = int(value)
    except (TypeError, ValueError):
        raise ChannelError(
            f"invalid PER cache capacity {value!r}; expected an integer, "
            f"'off', or 'none'"
        ) from None
    if capacity < 0:
        raise ChannelError(f"PER cache capacity must be >= 0, got {capacity}")
    return capacity


class JammerSignalType(enum.Enum):
    """The three jamming signals compared in paper Fig. 2(b)."""

    WIFI = "wifi"
    ZIGBEE = "zigbee"
    EMUBEE = "emubee"

    @property
    def is_correlated(self) -> bool:
        """Whether the signal is a valid ZigBee chip stream at the victim."""
        return self is not JammerSignalType.WIFI


@dataclass(frozen=True, eq=True)
class Interferer:
    """One concurrent interfering transmission as seen by the victim."""

    power_dbm: float  # received power at the victim, total over its own band
    signal_type: JammerSignalType
    #: Spectral distance between interferer and victim band centres, MHz.
    center_offset_mhz: float = 0.0

    def __post_init__(self) -> None:
        # Interferers sit inside LinkTable cache keys, where every dict
        # probe re-hashes the key; caching the (immutable) hash keeps the
        # memoised-PER hit path out of dataclass __hash__.
        object.__setattr__(
            self,
            "_hash",
            hash((self.power_dbm, self.signal_type, self.center_offset_mhz)),
        )

    def __hash__(self) -> int:
        return self._hash


@lru_cache(maxsize=1 << 16)
def _ber_awgn_cached(sinr_linear: float) -> float:
    total = 0.0
    for k in range(2, 17):
        total += (-1) ** k * math.comb(16, k) * math.exp(
            20.0 * sinr_linear * (1.0 / k - 1.0)
        )
    ber = (8.0 / 15.0) * (1.0 / 16.0) * total
    return min(max(ber, 0.0), 0.5)


def zigbee_ber_awgn(sinr_linear: float) -> float:
    """Bit error rate of 2.4 GHz 802.15.4 O-QPSK/DSSS in AWGN.

    The standard non-coherent union bound (e.g. IEEE 802.15.4-2006 Annex E):

        BER = (8/15) * (1/16) * sum_{k=2}^{16} (-1)^k C(16,k) exp(20*SINR*(1/k - 1))

    ``sinr_linear`` is the post-despreading signal-to-(noise+interference)
    ratio as a linear power ratio. The SINR space is continuous but the
    discrete action/topology grids of the simulators revisit the same values
    constantly, so the 15-term series is memoised on the exact float input.
    """
    if sinr_linear < 0:
        raise ChannelError(f"SINR must be non-negative, got {sinr_linear}")
    return _ber_awgn_cached(float(sinr_linear))


def chip_flip_probability(jam_margin_db: float, slope_db: float = CHIP_FLIP_SLOPE_DB) -> float:
    """Per-chip flip probability under correlated jamming.

    ``jam_margin_db`` is (received jamming power - received signal power) in
    dB. When the jammer dominates, each chip decision is captured by the
    jammer's (independent, random-looking) chip half the time; when the
    victim dominates, flips vanish. A logistic in dB captures the capture
    effect's sharp transition.
    """
    if slope_db <= 0:
        raise ChannelError("slope must be positive")
    return 0.5 / (1.0 + math.exp(-jam_margin_db / slope_db))


@lru_cache(maxsize=1 << 16)
def _chip_ser_cached(q: float) -> float:
    return float(binom.sf(CHIP_DECISION_RADIUS, CHIPS_PER_SYMBOL, q))


def symbol_error_from_chip_flips(chip_flip_prob: float) -> float:
    """Symbol error rate given i.i.d. chip flips with probability ``q``.

    The correlation decoder errs when more than :data:`CHIP_DECISION_RADIUS`
    of the 32 chips are wrong (half the PN set's minimum distance). The
    binomial tail (a SciPy special-function call) is memoised on the exact
    float input — the discrete jammer grids revisit the same margins.
    """
    q = float(chip_flip_prob)
    if not 0.0 <= q <= 0.5 + 1e-12:
        raise ChannelError(f"chip flip probability must be in [0, 0.5], got {q}")
    return _chip_ser_cached(min(q, 0.5))


def packet_error_rate(symbol_error: float, n_symbols: int) -> float:
    """PER of a packet of ``n_symbols`` data symbols (2 per octet)."""
    if n_symbols <= 0:
        raise ChannelError(f"packet must contain symbols, got {n_symbols}")
    se = min(max(symbol_error, 0.0), 1.0)
    return 1.0 - (1.0 - se) ** n_symbols


@dataclass(frozen=True)
class LinkBudget:
    """PER calculator for one ZigBee link under interference.

    Parameters mirror the paper's testbed: a peripheral-to-hub link at a
    fixed distance, a jammer at a varying distance, and the three signal
    types of Fig. 2(b).
    """

    propagation: LogDistancePathLoss = field(default_factory=LogDistancePathLoss)
    noise_figure_db: float = 10.0
    dsss_gain_db: float = DSSS_PROCESSING_GAIN_DB
    emubee_inband_fraction: float = EMUBEE_INBAND_FRACTION
    emulation_loss_db: float = EMULATION_LOSS_DB

    @property
    def noise_floor_dbm(self) -> float:
        return thermal_noise_dbm(
            ZIGBEE_BANDWIDTH_MHZ * 1e6, self.noise_figure_db
        )

    # -- interference bookkeeping -------------------------------------------

    def effective_interference_dbm(self, interferer: Interferer) -> float:
        """Interference power that actually degrades the victim's decisions.

        Applies the in-band spectral fraction, and — for noise-like signals
        only — the DSSS processing gain.
        """
        p = interferer.power_dbm
        if interferer.signal_type is JammerSignalType.WIFI:
            frac = inband_power_fraction(
                interferer.center_offset_mhz,
                WIFI_BANDWIDTH_MHZ,
                0.0,
                ZIGBEE_BANDWIDTH_MHZ,
            )
            if frac <= 0.0:
                return float("-inf")
            return p + 10.0 * math.log10(frac) - self.dsss_gain_db
        if interferer.signal_type is JammerSignalType.EMUBEE:
            frac = self.emubee_inband_fraction
            # EmuBee targets a specific channel; off-channel it is nothing
            # but narrowband noise and is negligible.
            if abs(interferer.center_offset_mhz) >= ZIGBEE_BANDWIDTH_MHZ:
                return float("-inf")
            return p + 10.0 * math.log10(frac) - self.emulation_loss_db
        # Plain ZigBee jammer: co-channel only.
        if abs(interferer.center_offset_mhz) >= ZIGBEE_BANDWIDTH_MHZ:
            return float("-inf")
        return p

    # -- error rates ----------------------------------------------------------

    def symbol_error_rate(
        self, signal_dbm: float, interferers: list[Interferer] | None = None
    ) -> float:
        """Symbol error rate combining noise and both interference classes."""
        interferers = interferers or []
        noise_like = [self.noise_floor_dbm]
        correlated_dbm: list[float] = []
        dominant: Interferer | None = None
        dominant_eff = float("-inf")
        for itf in interferers:
            eff = self.effective_interference_dbm(itf)
            if eff == float("-inf"):
                continue
            if itf.signal_type.is_correlated:
                correlated_dbm.append(eff)
                if eff > dominant_eff:
                    dominant = itf
                    dominant_eff = eff
            else:
                noise_like.append(eff)

        # Noise-like path: AWGN BER after despreading.
        sinr = dbm_to_watts(signal_dbm) / dbm_to_watts(
            combine_powers_dbm(noise_like)
        )
        ber = zigbee_ber_awgn(sinr)
        ser_noise = 1.0 - (1.0 - ber) ** 4  # 4 bits per symbol

        # Correlated path: chip capture.
        ser_corr = 0.0
        if correlated_dbm:
            jam_dbm = combine_powers_dbm(correlated_dbm)
            margin_db = jam_dbm - signal_dbm
            q = self.correlated_chip_flip(margin_db, dominant)
            ser_corr = symbol_error_from_chip_flips(q)

        # Independent error sources.
        return 1.0 - (1.0 - ser_noise) * (1.0 - ser_corr)

    def correlated_chip_flip(
        self, margin_db: float, dominant: Interferer | None = None
    ) -> float:
        """Chip-flip probability hook for the correlated-jamming path.

        ``margin_db`` is the combined effective jamming power minus the
        signal power; ``dominant`` is the strongest correlated interferer
        (by effective power), which higher-fidelity subclasses use to pick
        the matching waveform/calibration entry. The base budget is the
        paper's analytic capture model.
        """
        return chip_flip_probability(margin_db)

    def packet_error_rate(
        self,
        signal_dbm: float,
        packet_octets: int,
        interferers: list[Interferer] | None = None,
    ) -> float:
        """PER of a ``packet_octets``-octet frame under the given conditions."""
        ser = self.symbol_error_rate(signal_dbm, interferers)
        return packet_error_rate(ser, n_symbols=2 * packet_octets)

    # -- convenience for the Fig. 2(b) scenario ------------------------------

    def jamming_per(
        self,
        *,
        link_distance_m: float,
        jammer_distance_m: float,
        signal_type: JammerSignalType,
        victim_tx_dbm: float,
        jammer_tx_dbm: float,
        packet_octets: int = 60,
        shadowing_sigma_db: float = 4.0,
        _per_fn=None,
    ) -> float:
        """Mean PER of the victim link with a jammer at ``jammer_distance_m``.

        Averages over log-normal shadowing of the jammer path
        (Gauss–Hermite quadrature), which smooths the PER-vs-distance
        waterfall into the gradual curves of Fig. 2(b). Pass
        ``shadowing_sigma_db=0`` for the deterministic link budget.
        ``_per_fn`` lets :class:`LinkTable` substitute its memoised
        per-point PER without changing any numeric result.
        """
        if shadowing_sigma_db < 0:
            raise ChannelError("shadowing sigma must be non-negative")
        per_fn = _per_fn if _per_fn is not None else self.packet_error_rate
        signal = self.propagation.received_power_dbm(victim_tx_dbm, link_distance_m)
        jam = self.propagation.received_power_dbm(jammer_tx_dbm, jammer_distance_m)
        if shadowing_sigma_db == 0.0:
            itf = Interferer(power_dbm=jam, signal_type=signal_type)
            return per_fn(signal, packet_octets, [itf])
        nodes, weights = np.polynomial.hermite_e.hermegauss(15)
        total = 0.0
        for x, w in zip(nodes, weights):
            itf = Interferer(
                power_dbm=jam + shadowing_sigma_db * float(x),
                signal_type=signal_type,
            )
            total += float(w) * per_fn(signal, packet_octets, [itf])
        return total / float(weights.sum())


class LinkTable:
    """Memoised façade over a :class:`LinkBudget` — the exact-PER fast path.

    The per-slot simulators draw channels, power levels, jammer signals, and
    node positions from finite sets, so the (signal, packet size, interferer
    tuple) inputs of :meth:`LinkBudget.packet_error_rate` repeat constantly.
    This table keys a bounded LRU cache on the *exact* float inputs, making
    it bit-identical to the direct computation by construction: a hit returns
    the very float a previous miss computed, and a never-seen key always
    falls through to the budget.

    Capacity comes from ``REPRO_PER_CACHE`` unless overridden (``0`` or
    ``off`` disables memoisation and turns the table into a transparent
    pass-through). Hits and misses are counted into the global
    :data:`repro.obs.metrics.METRICS` registry under
    ``link.per_cache_hits`` / ``link.per_cache_misses`` so every
    ``BENCH_*.json`` artifact carries the cache hit rate.
    """

    def __init__(
        self,
        budget: LinkBudget | None = None,
        *,
        capacity: int | str | None = None,
    ) -> None:
        self.budget = budget if budget is not None else LinkBudget()
        self.capacity = resolve_per_cache_capacity(capacity)
        self._per: OrderedDict[tuple, float] = OrderedDict()
        self._jam: OrderedDict[tuple, float] = OrderedDict()
        self.hits = 0
        self.misses = 0
        # Counter objects bound once: the hit path runs per simulated slot,
        # so it must not pay a registry name lookup per call.
        self._hit_counter = METRICS.counter("link.per_cache_hits")
        self._miss_counter = METRICS.counter("link.per_cache_misses")

    @property
    def enabled(self) -> bool:
        return self.capacity > 0

    def __len__(self) -> int:
        return len(self._per) + len(self._jam)

    # -- cache plumbing -------------------------------------------------------

    def _lookup(self, cache: OrderedDict, key: tuple, compute) -> float:
        hit = cache.get(key)
        if hit is not None:
            cache.move_to_end(key)
            self.hits += 1
            self._hit_counter.inc()
            return hit
        value = compute()
        self.misses += 1
        self._miss_counter.inc()
        cache[key] = value
        if len(cache) > self.capacity:
            cache.popitem(last=False)
        return value

    @staticmethod
    def _per_key(
        signal_dbm: float, packet_octets: int, interferers
    ) -> tuple:
        return (float(signal_dbm), int(packet_octets), tuple(interferers or ()))

    # -- memoised queries -----------------------------------------------------

    def packet_error_rate(
        self,
        signal_dbm: float,
        packet_octets: int,
        interferers: list[Interferer] | tuple[Interferer, ...] | None = None,
    ) -> float:
        """Memoised :meth:`LinkBudget.packet_error_rate` (bit-identical)."""
        if not self.enabled:
            return self.budget.packet_error_rate(
                signal_dbm, packet_octets, list(interferers or ())
            )
        # Inlined hit path (no closure, no helper frame): this runs once per
        # simulated slot and its overhead is what bounds the cache speedup.
        key = (
            float(signal_dbm),
            int(packet_octets),
            tuple(interferers) if interferers else (),
        )
        cache = self._per
        hit = cache.get(key)
        if hit is not None:
            cache.move_to_end(key)
            self.hits += 1
            self._hit_counter.inc()
            return hit
        value = self.budget.packet_error_rate(
            signal_dbm, packet_octets, list(interferers or ())
        )
        self.misses += 1
        self._miss_counter.inc()
        cache[key] = value
        if len(cache) > self.capacity:
            cache.popitem(last=False)
        return value

    def jamming_per(self, **kwargs) -> float:
        """Memoised :meth:`LinkBudget.jamming_per`.

        The whole-result cache is keyed on the keyword tuple; on a miss the
        quadrature runs with this table's memoised per-point PER, so the 15
        Gauss–Hermite nodes also share work across calls.
        """
        if not self.enabled:
            return self.budget.jamming_per(**kwargs)
        key = tuple(sorted(kwargs.items()))
        return self._lookup(
            self._jam,
            key,
            lambda: self.budget.jamming_per(
                **kwargs, _per_fn=self.packet_error_rate
            ),
        )

    # -- bulk precompute ------------------------------------------------------

    def precompute(
        self,
        signal_dbm_values,
        packet_octets_values,
        interferer_sets,
    ) -> int:
        """Fill the PER grid for a topology in one pass.

        ``interferer_sets`` is an iterable of interferer tuples (an empty
        tuple means the clean link). Returns the number of entries newly
        computed; already-cached points are skipped, so calling this twice
        is free. Intended to run once per topology before a hot loop.
        """
        if not self.enabled:
            return 0
        inserted = 0
        for signal in signal_dbm_values:
            for octets in packet_octets_values:
                for interferers in interferer_sets:
                    combo = tuple(interferers)
                    key = self._per_key(signal, octets, combo)
                    if key in self._per:
                        continue
                    self._per[key] = self.budget.packet_error_rate(
                        float(signal), int(octets), list(combo)
                    )
                    if len(self._per) > self.capacity:
                        self._per.popitem(last=False)
                    inserted += 1
        if inserted:
            METRICS.inc("link.per_cache_precomputed", inserted)
        return inserted

    # -- introspection --------------------------------------------------------

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "entries": len(self),
            "capacity": self.capacity,
        }

    def clear(self) -> None:
        self._per.clear()
        self._jam.clear()
        self.hits = 0
        self.misses = 0


__all__ = [
    "EMUBEE_INBAND_FRACTION",
    "EMULATION_LOSS_DB",
    "CHIP_DECISION_RADIUS",
    "CHIP_FLIP_SLOPE_DB",
    "PER_CACHE_ENV",
    "DEFAULT_PER_CACHE_CAPACITY",
    "resolve_per_cache_capacity",
    "JammerSignalType",
    "Interferer",
    "zigbee_ber_awgn",
    "chip_flip_probability",
    "symbol_error_from_chip_flips",
    "packet_error_rate",
    "LinkBudget",
    "LinkTable",
]
