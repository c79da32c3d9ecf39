"""Batched waveform-level trial engine — vectorised Monte-Carlo ground truth.

:func:`repro.channel.waveform.jam_trial` simulates one frame per call:
it re-encodes a full jammer frame (an 802.11 OFDM transmit chain, or the
whole EmuBee inverse/forward pipeline), draws noise, and demodulates one
waveform. This module runs N independent trials as one fused batch
kernel whose rows are bit-identical to that serial path.

Cost model. Only two things run per trial:

* **stream derivation** — trial ``i`` draws from a child stream derived
  from ``(seed, i)`` only, so results are invariant to batch size,
  chunking and worker count;
* **the draws** — the payload (in :func:`run_chip_flip_trials`), one
  jammer-bank slice start, and the real and the imaginary noise block,
  in the serial order.

Everything else runs once per batch, or once per block of rows sized to
stay in cache (:data:`BLOCK_SAMPLES`), over float I and Q planes:

* **victim** — every payload of a length shares one O-QPSK power, so the
  victim is one cached unit-power template with each chip's pulse sign
  applied (:func:`repro.phy.zigbee.oqpsk_template`);
* **jammer** — each signal type's unit-power burst is generated once
  (:class:`JammerBank`, sized by ``REPRO_JAMMER_BANK``) with its real,
  imaginary and ``|burst|²`` planes cached beside it; slices are copied
  out of those planes and each row's RMS is the mean of its ``|burst|²``;
* **mixing** — I and Q planes are mixed separately, in the serial
  rounding order, straight into the receive buffer;
* **receiver** — matched filtering (one ``(rows, n_pairs, win)`` tensor
  per block against the half-sine pulse) and DSSS despreading (one ±1
  GEMM against ``CHIP_TABLE_PM``).

Large trial counts fan out through :class:`repro.exec.ParallelRunner` as
*chunks* of trials (``REPRO_TRIAL_BATCH`` / ``--trial-batch``), one task
per chunk, rather than one task per trial. Trial counts and bank-cache
hits land in the :mod:`repro.obs` metrics registry and hence in the
``BENCH_*.json`` artifacts.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.channel.link import JammerSignalType
from repro.channel.noise import db_to_linear
from repro.channel.waveform import (
    WaveformTrialResult,
    make_jamming_waveform,
    scale_to_power,
)
from repro.errors import ChannelError, ConfigurationError
from repro.exec.runner import ParallelRunner
from repro.obs.metrics import METRICS
from repro.phy import zigbee
from repro.rng import SeedLike, derive, make_rng

#: Environment variable sizing the jammer waveform bank (samples per
#: signal type at 20 Msps). ``0``/``off`` disables the bank: every trial
#: falls back to a freshly encoded jammer frame.
JAMMER_BANK_ENV = "REPRO_JAMMER_BANK"

#: Default bank size: 32768 samples (~1.6 ms of burst at 20 Msps), a few
#: frame lengths of material so random slices decorrelate across trials.
DEFAULT_BANK_SAMPLES = 1 << 15

#: Environment variable selecting how many trials ship per pool task.
TRIAL_BATCH_ENV = "REPRO_TRIAL_BATCH"

#: Default trials per dispatch chunk.
DEFAULT_TRIAL_BATCH = 64


def resolve_bank_samples(samples: int | str | None = None) -> int:
    """Resolve the jammer-bank size from an argument or ``REPRO_JAMMER_BANK``.

    Returns ``0`` when the bank is disabled (``0``/``off``/``none``).
    """
    if samples is None:
        samples = os.environ.get(JAMMER_BANK_ENV)
    if isinstance(samples, str):
        samples = samples.strip()
    if samples is None or samples == "":
        # Empty/whitespace-only REPRO_JAMMER_BANK counts as unset, not as
        # a malformed integer (mirrors resolve_workers).
        return DEFAULT_BANK_SAMPLES
    if isinstance(samples, str) and samples.lower() in ("off", "none"):
        return 0
    try:
        n = int(samples)
    except (TypeError, ValueError):
        raise ConfigurationError(
            f"invalid jammer bank size {samples!r}; expected an integer, "
            f"'off', or 'none'"
        ) from None
    if n < 0:
        raise ConfigurationError(f"jammer bank size must be >= 0, got {n}")
    return n


def resolve_trial_batch(batch: int | str | None = None) -> int:
    """Resolve the trials-per-task chunk size from ``REPRO_TRIAL_BATCH``."""
    if batch is None:
        batch = os.environ.get(TRIAL_BATCH_ENV)
    if isinstance(batch, str):
        batch = batch.strip()
    if batch is None or batch == "":
        # Empty/whitespace-only REPRO_TRIAL_BATCH counts as unset, not as
        # a malformed integer (mirrors resolve_workers).
        return DEFAULT_TRIAL_BATCH
    if isinstance(batch, str) and batch.lower() == "off":
        return 1
    try:
        n = int(batch)
    except (TypeError, ValueError):
        raise ConfigurationError(
            f"invalid trial batch {batch!r}; expected an integer or 'off'"
        ) from None
    if n < 1:
        raise ConfigurationError(f"trial batch must be >= 1, got {n}")
    return n


# ---------------------------------------------------------------------------
# Per-trial RNG streams
# ---------------------------------------------------------------------------


def trial_base(seed: SeedLike) -> int:
    """Extract the integer base all per-trial streams derive from.

    Mirrors :func:`repro.rng.derive`'s coercion: a generator contributes
    one drawn integer (advancing it), a plain integer is used as-is, and
    ``None`` maps to 0 — so a whole trial campaign is reproducible from
    one seed and shippable to pool workers as a single int.
    """
    if isinstance(seed, np.random.Generator):
        return int(seed.integers(0, 2**63 - 1))
    if isinstance(seed, np.random.SeedSequence):
        return int(seed.generate_state(1)[0])
    if seed is None:
        return 0
    return int(seed)


def trial_stream(base: int, index: int) -> np.random.Generator:
    """The independent child stream of trial ``index``.

    Depends only on ``(base, index)`` — never on batch size, chunk
    boundaries, dispatch order, or worker count.
    """
    return derive(base, f"trial[{index}]")


# ---------------------------------------------------------------------------
# Jammer waveform bank
# ---------------------------------------------------------------------------


class JammerBank:
    """Pre-generated unit-power jammer bursts, sliced at random offsets.

    One burst per ``(signal type, frequency offset, alpha)`` is encoded
    through the genuine transmit chain (Wi-Fi OFDM, ZigBee O-QPSK, or the
    EmuBee emulation pipeline) from a fixed derived seed, then trials cut
    random wrapped slices and re-normalise them to unit power — turning
    the dominant per-trial cost into an array slice.

    Parameters
    ----------
    samples:
        Burst length per signal type; ``None`` defers to
        ``REPRO_JAMMER_BANK``. Must be positive (a disabled bank is
        represented by passing ``bank=None`` to the trial APIs, not by an
        empty bank).
    seed:
        Base of the burst-content streams. Banks with equal
        ``(samples, seed)`` hold identical waveforms in every process.
    alpha:
        Fixed EmuBee quantization scale for ablations; ``None`` (default)
        uses the paper's optimised :math:`\\alpha^*` per burst.
    """

    def __init__(
        self,
        samples: int | str | None = None,
        *,
        seed: int = 0,
        alpha: float | None = None,
    ) -> None:
        resolved = resolve_bank_samples(samples)
        if resolved < 1:
            raise ChannelError(
                "jammer bank needs at least one sample; use bank=None to "
                "disable banked trials"
            )
        self.samples = resolved
        self.seed = int(seed)
        self.alpha = alpha
        self._bursts: dict[tuple[str, float], np.ndarray] = {}
        # Per burst, the batched slicer's planes (see _planes_for).
        self._planes: dict[tuple[str, float], np.ndarray] = {}

    def burst(
        self, signal_type: JammerSignalType, *, offset_hz: float = 0.0
    ) -> np.ndarray:
        """The cached unit-power burst for a signal type (read-only)."""
        key = (signal_type.value, float(offset_hz))
        cached = self._bursts.get(key)
        if cached is not None:
            METRICS.inc("waveform.bank_hits")
            return cached
        METRICS.inc("waveform.bank_misses")
        # Alpha only shapes EmuBee bursts; keep other signals' streams
        # (and hence waveforms) independent of the ablation setting.
        alpha_tag = (
            self.alpha if signal_type is JammerSignalType.EMUBEE else None
        )
        stream = derive(
            self.seed,
            f"jammer-bank/{signal_type.value}/{float(offset_hz)}"
            f"/{self.samples}/{alpha_tag}",
        )
        if signal_type is JammerSignalType.EMUBEE and self.alpha is not None:
            wf = self._emubee_burst(stream, float(offset_hz))
        else:
            wf = make_jamming_waveform(
                signal_type, self.samples, rng=stream, offset_hz=offset_hz
            )
        wf.setflags(write=False)
        self._bursts[key] = wf
        return wf

    def _emubee_burst(
        self, stream: np.random.Generator, offset_hz: float
    ) -> np.ndarray:
        """EmuBee burst at a fixed quantization scale (ablation support)."""
        from repro.phy.emulation import emulate_template, frequency_shift

        n_bytes = max(
            self.samples
            // (2 * zigbee.CHIPS_PER_SYMBOL * zigbee.DEFAULT_SAMPLES_PER_CHIP)
            + 1,
            2,
        )
        payload = bytes(stream.integers(0, 256, n_bytes, dtype=np.uint8))
        wf = emulate_template(payload, self.alpha).emulated
        reps = -(-self.samples // wf.size)
        wf = np.tile(wf, reps)[: self.samples]
        if offset_hz:
            wf = frequency_shift(wf, offset_hz, 20e6)
        return scale_to_power(wf, 0.0)

    def waveform(
        self,
        signal_type: JammerSignalType,
        n_samples: int,
        *,
        rng: SeedLike = None,
        offset_hz: float = 0.0,
    ) -> np.ndarray:
        """A unit-power jammer slice of ``n_samples``, cut at a random offset.

        Consumes exactly one integer draw from ``rng`` (the slice start);
        the wrapped slice is re-normalised so every trial's jammer has
        unit mean power, like a freshly encoded frame would.

        Slice starts snap to chip-pair boundaries (``2 × samples/chip``)
        so ZigBee and EmuBee bursts stay chip-aligned with the victim —
        a freshly encoded jammer frame starts aligned at sample 0, and
        that alignment is what makes correlated jamming defeat the DSSS
        processing gain (paper §II-A-2). An arbitrary sample offset would
        smear the jammer into noise-like interference and change the
        measured chip-flip physics.
        """
        if n_samples < 1:
            raise ChannelError("need at least one sample")
        burst = self.burst(signal_type, offset_hz=offset_hz)
        start = self._slice_start(burst.size, make_rng(rng))
        idx = (start + np.arange(n_samples)) % burst.size
        return scale_to_power(burst[idx], 0.0)

    def unit_slices(
        self,
        signal_type: JammerSignalType,
        streams: list[np.random.Generator],
        out: np.ndarray,
        *,
        offset_hz: float = 0.0,
    ) -> None:
        """One unit-power slice per stream, into ``out``'s I and Q planes.

        ``out`` is a ``(2, N, n_samples)`` float array. Its rows ``[:, i]``
        are bit-identical to the real and imaginary parts of
        ``waveform(signal_type, n_samples, rng=streams[i], ...)``, and
        each stream gives the same one draw. Each row's RMS is the mean of
        the slice's cached ``|burst|²``, which is what ``scale_to_power``
        computes from the complex slice.
        """
        n_samples = out.shape[2]
        if n_samples < 1:
            raise ChannelError("need at least one sample")
        re, im, power = self._planes_for(signal_type, offset_hz, n_samples)
        starts = [self._slice_start(self.samples, r) for r in streams]
        re_out, im_out = out
        # The |burst|² rows pass through the Q plane before the Q rows do.
        for i, start in enumerate(starts):
            im_out[i] = power[start : start + n_samples]
        rms = np.sqrt(np.mean(im_out, axis=1))
        if np.any(rms == 0.0):
            raise ChannelError("cannot scale an all-zero waveform")
        scale = (np.sqrt(db_to_linear(0.0)) / rms)[:, None]
        for i, start in enumerate(starts):
            re_out[i] = re[start : start + n_samples]
            im_out[i] = im[start : start + n_samples]
        re_out *= scale
        im_out *= scale

    def _planes_for(
        self, signal_type: JammerSignalType, offset_hz: float, n_samples: int
    ) -> np.ndarray:
        """A burst's real, imaginary and ``|burst|²`` planes, repeated on
        past its end so every wrapped ``n_samples`` slice is one window."""
        key = (signal_type.value, float(offset_hz))
        burst = self.burst(signal_type, offset_hz=offset_hz)
        length = burst.size + n_samples - 1
        planes = self._planes.get(key)
        if planes is None or planes.shape[1] < length:
            planes = np.stack(
                [
                    np.resize(plane, length)
                    for plane in (burst.real, burst.imag, np.abs(burst) ** 2)
                ]
            )
            planes.setflags(write=False)
            self._planes[key] = planes
        return planes

    @staticmethod
    def _slice_start(burst_size: int, r: np.random.Generator) -> int:
        """A slice start on a chip-pair boundary: one integer draw."""
        pair = 2 * zigbee.DEFAULT_SAMPLES_PER_CHIP
        n_slots = max(burst_size // pair, 1)
        return int(r.integers(0, n_slots)) * pair


@lru_cache(maxsize=8)
def _bank_for(
    samples: int, seed: int = 0, alpha: float | None = None
) -> JammerBank:
    """Process-wide bank cache keyed by configuration.

    Bursts are deterministic given ``(samples, seed, alpha)``, so a bank
    re-materialised in a pool worker holds waveforms identical to the
    parent's.
    """
    return JammerBank(samples, seed=seed, alpha=alpha)


def default_bank() -> JammerBank | None:
    """The process's shared bank per ``REPRO_JAMMER_BANK`` (None = disabled)."""
    samples = resolve_bank_samples()
    if samples < 1:
        return None
    return _bank_for(samples)


# ---------------------------------------------------------------------------
# The batched trial pipeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BatchTrialResult:
    """Vectorised outcome of ``N`` waveform-level jamming trials."""

    chip_error_rate: np.ndarray  # (N,) float64
    symbol_error_rate: np.ndarray  # (N,) float64
    packet_delivered: np.ndarray  # (N,) bool
    decoded: tuple[bytes, ...]

    def __len__(self) -> int:
        return self.chip_error_rate.size

    def trial(self, i: int) -> WaveformTrialResult:
        """Trial ``i`` repackaged as the serial result type."""
        return WaveformTrialResult(
            chip_error_rate=float(self.chip_error_rate[i]),
            symbol_error_rate=float(self.symbol_error_rate[i]),
            packet_delivered=bool(self.packet_delivered[i]),
            decoded=self.decoded[i],
        )


def _payload_chips(payloads: list[bytes]) -> tuple[np.ndarray, np.ndarray]:
    """Stack equal-length payloads into (symbols, chips) matrices."""
    octets = np.frombuffer(b"".join(payloads), dtype=np.uint8).reshape(
        len(payloads), -1
    )
    symbols = np.empty((octets.shape[0], octets.shape[1] * 2), dtype=np.uint8)
    symbols[:, 0::2] = octets & 0x0F
    symbols[:, 1::2] = octets >> 4
    chips = zigbee.CHIP_TABLE[symbols].reshape(symbols.shape[0], -1)
    return symbols, chips


@lru_cache(maxsize=32)
def _victim_pulses(n_chips: int, spc: int) -> tuple[np.ndarray, np.ndarray]:
    """I/Q pulses of the unit-power victim of ``n_chips`` zero chips.

    ``jam_trial`` scales ``oqpsk_modulate``'s output to unit power once
    more; that is sign-symmetric too, so one template serves every
    payload of the length.
    """
    victim = scale_to_power(zigbee.oqpsk_template(n_chips, spc), 0.0)
    victim.setflags(write=False)
    return zigbee.oqpsk_branch_pulses(victim, spc)


#: Samples per plane in one row block of :func:`jam_trials`: its five
#: working planes (jammer I and Q, scratch, receive I and Q) then take
#: 1.25 MiB and stay in a core's L2 cache. A whole batch's planes spill
#: to memory, and every pass over them runs at memory bandwidth instead.
BLOCK_SAMPLES = 1 << 15


def jam_trials(
    payloads: list[bytes] | tuple[bytes, ...],
    *,
    signal_type: JammerSignalType,
    jam_to_signal_db: float,
    noise_to_signal_db: float = -30.0,
    rng: SeedLike = None,
    rngs: list[np.random.Generator] | None = None,
    offset_hz: float = 0.0,
    bank: JammerBank | None = None,
    first_trial: int = 0,
) -> BatchTrialResult:
    """Run ``len(payloads)`` jamming trials as one tensor pipeline.

    Trial ``i`` is bit-identical to the serial reference::

        jam_trial(payloads[i], signal_type=..., jam_to_signal_db=...,
                  noise_to_signal_db=..., offset_hz=..., bank=bank,
                  rng=trial_stream(trial_base(rng), first_trial + i))

    Pass ``rngs`` to supply the per-trial generators directly (they must
    be positioned exactly where the serial trial would start drawing);
    otherwise they are derived from ``rng`` via :func:`trial_stream`.
    All payloads must share one length, so that every trial's victim
    comes from one O-QPSK template.
    """
    payloads = [bytes(p) for p in payloads]
    if not payloads:
        raise ChannelError("need at least one trial payload")
    if any(not p for p in payloads):
        raise ChannelError("payload must be non-empty")
    plen = len(payloads[0])
    if any(len(p) != plen for p in payloads):
        raise ChannelError("batched trials need equal-length payloads")
    n = len(payloads)
    if rngs is not None:
        if len(rngs) != n:
            raise ChannelError(
                f"got {len(rngs)} rng streams for {n} trials"
            )
        streams = list(rngs)
    else:
        base = trial_base(rng)
        streams = [trial_stream(base, first_trial + i) for i in range(n)]

    spc = zigbee.DEFAULT_SAMPLES_PER_CHIP
    expected_symbols, expected_chips = _payload_chips(payloads)
    n_chips = expected_chips.shape[1]
    n_samples = (n_chips + 1) * spc
    body = n_chips * spc
    levels = 1.0 - 2.0 * expected_chips.astype(np.float64)
    pulses = _victim_pulses(n_chips, spc)
    jam_amplitude = np.sqrt(db_to_linear(jam_to_signal_db))
    sigma = np.sqrt(db_to_linear(noise_to_signal_db) / 2.0)

    rows = max(1, min(n, BLOCK_SAMPLES // n_samples))
    jam = np.empty((2, rows, n_samples))
    scratch = np.empty((rows, n_samples))
    rx = np.empty((rows, n_samples), dtype=np.complex128)
    rx_chips = np.empty_like(expected_chips)
    for first in range(0, n, rows):
        block = streams[first : first + rows]
        m = len(block)
        # Each trial stream draws in the serial order: its jammer (one
        # bank slice start, or a freshly encoded frame) here, then its
        # real and its imaginary noise block below. Streams are
        # independent, so only the order within a stream matters.
        if bank is not None:
            bank.unit_slices(signal_type, block, jam[:, :m], offset_hz=offset_hz)
        else:
            for i, stream in enumerate(block):
                unit_jam = make_jamming_waveform(
                    signal_type, n_samples, rng=stream, offset_hz=offset_hz
                )
                jam[0, i] = unit_jam.real
                jam[1, i] = unit_jam.imag

        # Mix one plane at a time into the receive buffer, in the serial
        # rounding order (victim + unit_jam·amp) + σ·noise: each product
        # rounds on its own, and float + and × commute exactly. The
        # victim is the template's pulses with each chip's sign applied;
        # the Q branch starts one chip period late.
        for k, out in enumerate((rx.real[:m], rx.imag[:m])):
            plane = jam[k, :m]
            plane *= jam_amplitude
            victim = scratch.reshape(-1)[: m * body]
            np.multiply(
                levels[first : first + m, k::2, None],
                pulses[k],
                out=victim.reshape(m, n_chips // 2, 2 * spc),
            )
            plane[:, k * spc : k * spc + body] += victim.reshape(m, body)
            noise = scratch[:m]
            for i, stream in enumerate(block):
                stream.standard_normal(out=noise[i])
            noise *= sigma
            np.add(plane, noise, out=out)

        # Receiver: batched matched filter over the block.
        rx_chips[first : first + m] = zigbee.oqpsk_demodulate_batch(
            rx[:m], spc
        )[:, :n_chips]

    cer = (
        np.count_nonzero(rx_chips != expected_chips, axis=1).astype(np.float64)
        / n_chips
    )
    # One despreading GEMM over every 32-chip window of every trial.
    symbols, _ = zigbee.despread(rx_chips.reshape(-1))
    symbols = symbols.reshape(n, -1)
    ser = np.mean(symbols != expected_symbols, axis=1)
    # Symbols are uint8 nibbles, low nibble first (symbols_to_bytes).
    octets = (symbols[:, 1::2] << 4) | symbols[:, 0::2]
    decoded = tuple(row.tobytes() for row in octets)
    delivered = np.array(
        [d == p for d, p in zip(decoded, payloads)], dtype=bool
    )

    METRICS.inc("waveform.trials", n)
    METRICS.inc("waveform.trial_batches")
    return BatchTrialResult(
        chip_error_rate=cer,
        symbol_error_rate=ser,
        packet_delivered=delivered,
        decoded=decoded,
    )


# ---------------------------------------------------------------------------
# Chunked dispatch through the execution layer
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrialChunkSpec:
    """One pool task: trials ``[lo, hi)`` of a chip-flip campaign.

    Everything a worker needs travels as plain picklable fields; the
    jammer bank is re-materialised worker-side from its configuration
    (bursts are deterministic given ``(size, seed, alpha)``, so every
    process slices the same waveforms).
    """

    signal_type: JammerSignalType
    jam_to_signal_db: float
    noise_to_signal_db: float
    offset_hz: float
    payload_bytes: int
    base: int
    lo: int
    hi: int
    bank_samples: int  # 0 = bank disabled
    bank_seed: int = 0
    bank_alpha: float | None = None


def _chip_flip_chunk(spec: TrialChunkSpec) -> float:
    """Sum of chip error rates over one chunk of trials."""
    streams = [trial_stream(spec.base, i) for i in range(spec.lo, spec.hi)]
    payloads = [
        bytes(s.integers(0, 256, spec.payload_bytes, dtype=np.uint8))
        for s in streams
    ]
    bank = (
        _bank_for(spec.bank_samples, spec.bank_seed, spec.bank_alpha)
        if spec.bank_samples
        else None
    )
    result = jam_trials(
        payloads,
        signal_type=spec.signal_type,
        jam_to_signal_db=spec.jam_to_signal_db,
        noise_to_signal_db=spec.noise_to_signal_db,
        offset_hz=spec.offset_hz,
        rngs=streams,
        bank=bank,
    )
    return float(result.chip_error_rate.sum())


def _chunk_specs(
    signal_type: JammerSignalType,
    jam_to_signal_db: float,
    *,
    trials: int,
    payload_bytes: int,
    noise_to_signal_db: float,
    offset_hz: float,
    base: int,
    bank: JammerBank | None,
    trial_batch: int,
) -> list[TrialChunkSpec]:
    return [
        TrialChunkSpec(
            signal_type=signal_type,
            jam_to_signal_db=float(jam_to_signal_db),
            noise_to_signal_db=float(noise_to_signal_db),
            offset_hz=float(offset_hz),
            payload_bytes=int(payload_bytes),
            base=base,
            lo=lo,
            hi=min(lo + trial_batch, trials),
            bank_samples=0 if bank is None else bank.samples,
            bank_seed=0 if bank is None else bank.seed,
            bank_alpha=None if bank is None else bank.alpha,
        )
        for lo in range(0, trials, trial_batch)
    ]


def run_chip_flip_trials(
    signal_type: JammerSignalType,
    jam_to_signal_db: float,
    *,
    trials: int = 10,
    payload_bytes: int = 8,
    noise_to_signal_db: float = -30.0,
    offset_hz: float = 0.0,
    rng: SeedLike = None,
    bank: JammerBank | None | str = "default",
    runner: ParallelRunner | None = None,
    trial_batch: int | str | None = None,
) -> float:
    """Mean waveform-level chip error rate over ``trials`` batched trials.

    Trials are cut into chunks of ``trial_batch`` (``REPRO_TRIAL_BATCH``)
    and each chunk runs as one :func:`jam_trials` tensor batch — through
    ``runner``'s process pool when one is supplied, in-process otherwise.
    Because trial ``i``'s stream depends only on ``(seed, i)``, the mean
    is bit-identical for every chunking and worker count.
    """
    if trials < 1:
        raise ChannelError("need at least one trial")
    if payload_bytes < 1:
        raise ChannelError("need at least one payload byte")
    base = trial_base(rng)
    if isinstance(bank, str):
        resolved_bank = default_bank()
    else:
        resolved_bank = bank
    specs = _chunk_specs(
        signal_type,
        jam_to_signal_db,
        trials=trials,
        payload_bytes=payload_bytes,
        noise_to_signal_db=noise_to_signal_db,
        offset_hz=offset_hz,
        base=base,
        bank=resolved_bank,
        trial_batch=resolve_trial_batch(trial_batch),
    )
    if runner is None:
        sums = [_chip_flip_chunk(spec) for spec in specs]
    else:
        sums = runner.map(_chip_flip_chunk, specs)
    return float(sum(sums)) / trials


__all__ = [
    "JAMMER_BANK_ENV",
    "DEFAULT_BANK_SAMPLES",
    "TRIAL_BATCH_ENV",
    "DEFAULT_TRIAL_BATCH",
    "resolve_bank_samples",
    "resolve_trial_batch",
    "trial_base",
    "trial_stream",
    "JammerBank",
    "default_bank",
    "BatchTrialResult",
    "jam_trials",
    "TrialChunkSpec",
    "run_chip_flip_trials",
]
