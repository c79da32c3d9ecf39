"""IEEE 802.15.4 (ZigBee) 2.4 GHz O-QPSK/DSSS physical layer.

Each octet is split into two 4-bit symbols (low nibble first); each symbol
is spread to one of sixteen 32-chip pseudo-noise sequences; chips are
O-QPSK-modulated with half-sine pulse shaping at 2 Mchip/s (even chips on I,
odd chips on Q, Q offset by half a chip). The receiver makes hard chip
decisions and picks the symbol whose PN sequence correlates best — this
32-to-4 despreading is the DSSS processing gain that makes ZigBee robust to
noise-like interference (paper §II-A-2) but *not* to waveform-correlated
EmuBee chips.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.errors import DecodingError, EncodingError
from repro.phy.bits import BitArray, as_bits

#: Chips per PN sequence / symbol.
CHIPS_PER_SYMBOL = 32

#: Data bits per symbol.
BITS_PER_SYMBOL = 4

#: Chip rate of the 2.4 GHz PHY, chips/second.
CHIP_RATE = 2e6

#: Symbol rate (62.5 ksymbol/s).
SYMBOL_RATE = CHIP_RATE / CHIPS_PER_SYMBOL

#: Data rate (250 kbit/s).
BIT_RATE = SYMBOL_RATE * BITS_PER_SYMBOL

#: Default samples per chip; 10 gives 20 Msample/s, matching the Wi-Fi OFDM
#: grid so emulated and native waveforms live on the same sample clock.
DEFAULT_SAMPLES_PER_CHIP = 10

#: PN sequence of data symbol 0 (IEEE 802.15.4-2006 Table 73). Symbols 1-7
#: are right-rotations by 4k chips; symbols 8-15 invert the odd (Q) chips.
_SYMBOL0 = np.array(
    [1, 1, 0, 1, 1, 0, 0, 1, 1, 1, 0, 0, 0, 0, 1, 1,
     0, 1, 0, 1, 0, 0, 1, 0, 0, 0, 1, 0, 1, 1, 1, 0],
    dtype=np.uint8,
)


def _build_chip_table() -> np.ndarray:
    table = np.zeros((16, CHIPS_PER_SYMBOL), dtype=np.uint8)
    for k in range(8):
        table[k] = np.roll(_SYMBOL0, 4 * k)
    odd = np.arange(CHIPS_PER_SYMBOL) % 2 == 1
    for k in range(8):
        row = table[k].copy()
        row[odd] ^= 1
        table[k + 8] = row
    return table


#: (16, 32) chip table indexed by data symbol.
CHIP_TABLE = _build_chip_table()

#: Chip table in antipodal form (+1/-1) for correlation receivers.
CHIP_TABLE_PM = 1.0 - 2.0 * CHIP_TABLE.astype(np.float64)


def bytes_to_symbols(data: bytes) -> np.ndarray:
    """Split octets into 4-bit data symbols, low nibble first."""
    if not data:
        return np.zeros(0, dtype=np.uint8)
    octets = np.frombuffer(bytes(data), dtype=np.uint8)
    out = np.empty(octets.size * 2, dtype=np.uint8)
    out[0::2] = octets & 0x0F
    out[1::2] = octets >> 4
    return out


def symbols_to_bytes(symbols: "np.typing.ArrayLike") -> bytes:
    """Inverse of :func:`bytes_to_symbols`."""
    arr = np.asarray(symbols, dtype=np.int64).ravel()
    if arr.size % 2:
        raise DecodingError(f"odd symbol count {arr.size} cannot form octets")
    if arr.size and (arr.min() < 0 or arr.max() > 15):
        raise DecodingError("data symbols must lie in 0..15")
    lo = arr[0::2]
    hi = arr[1::2]
    return ((hi << 4) | lo).astype(np.uint8).tobytes()


def spread(symbols: "np.typing.ArrayLike") -> BitArray:
    """Map data symbols to their concatenated 32-chip PN sequences."""
    arr = np.asarray(symbols, dtype=np.int64).ravel()
    if arr.size and (arr.min() < 0 or arr.max() > 15):
        raise EncodingError("data symbols must lie in 0..15")
    return CHIP_TABLE[arr].reshape(-1).astype(np.uint8)


def despread(chips: "np.typing.ArrayLike") -> tuple[np.ndarray, np.ndarray]:
    """Correlate hard chips against the PN table.

    Returns ``(symbols, chip_errors)`` where ``chip_errors[i]`` is the
    Hamming distance between the received 32-chip window and the winning
    sequence — the receiver's confidence signal.

    The Hamming distances are computed as one ±1 GEMM against
    :data:`CHIP_TABLE_PM`: for antipodal chips the correlation ``c``
    satisfies ``distance = (32 - c) / 2`` exactly (sums of ±1 are exact
    in float64), so the result — including the first-index argmin
    tie-break — is bit-identical to :func:`despread_reference`.
    """
    arr = as_bits(chips)
    if arr.size % CHIPS_PER_SYMBOL:
        raise DecodingError(
            f"chip count {arr.size} is not a multiple of {CHIPS_PER_SYMBOL}"
        )
    windows_pm = 1.0 - 2.0 * arr.reshape(-1, CHIPS_PER_SYMBOL).astype(np.float64)
    corr = windows_pm @ CHIP_TABLE_PM.T
    dist = (CHIPS_PER_SYMBOL - corr) * 0.5
    symbols = dist.argmin(axis=1).astype(np.uint8)
    errors = dist.min(axis=1).astype(np.int64)
    return symbols, errors


def despread_reference(
    chips: "np.typing.ArrayLike",
) -> tuple[np.ndarray, np.ndarray]:
    """Pre-GEMM :func:`despread`: broadcast Hamming-distance compare.

    Kept as the ground truth the shipped GEMM path is pinned against.
    """
    arr = as_bits(chips)
    if arr.size % CHIPS_PER_SYMBOL:
        raise DecodingError(
            f"chip count {arr.size} is not a multiple of {CHIPS_PER_SYMBOL}"
        )
    windows = arr.reshape(-1, CHIPS_PER_SYMBOL)
    # Hamming distance to each candidate sequence.
    dist = (windows[:, None, :] != CHIP_TABLE[None, :, :]).sum(axis=2)
    symbols = dist.argmin(axis=1).astype(np.uint8)
    errors = dist.min(axis=1).astype(np.int64)
    return symbols, errors


@lru_cache(maxsize=32)
def _half_sine_pulse_cached(samples_per_chip: int) -> np.ndarray:
    n = 2 * samples_per_chip
    t = (np.arange(n) + 0.5) / n
    pulse = np.sin(np.pi * t)
    pulse.setflags(write=False)
    return pulse


def half_sine_pulse(samples_per_chip: int) -> np.ndarray:
    """Half-sine chip pulse spanning two chip periods (O-QPSK/MSK shaping).

    Memoized on ``samples_per_chip``; the returned array is read-only —
    copy before mutating.
    """
    if samples_per_chip < 1:
        raise EncodingError("samples_per_chip must be >= 1")
    return _half_sine_pulse_cached(int(samples_per_chip))


def oqpsk_modulate(
    chips: "np.typing.ArrayLike", samples_per_chip: int = DEFAULT_SAMPLES_PER_CHIP
) -> np.ndarray:
    """O-QPSK-modulate a chip stream with half-sine pulse shaping.

    Even-indexed chips ride the I branch, odd-indexed chips the Q branch
    delayed by one chip period (half the di-bit period). Output is complex
    baseband at ``samples_per_chip * CHIP_RATE`` samples/second, normalised
    to unit average power.
    """
    arr = as_bits(chips)
    if arr.size % 2:
        raise EncodingError("chip count must be even (I/Q pairs)")
    levels = 1.0 - 2.0 * arr.astype(np.float64)  # 0 -> +1, 1 -> -1
    pulse = half_sine_pulse(samples_per_chip)
    # Each branch places one pulse per 2 chips, stepped by 2 chip periods,
    # so consecutive pulses on a branch tile without overlap: the whole
    # branch is one (n_pairs, 2*spc) outer product laid out flat.
    n_pairs = arr.size // 2
    body = 2 * n_pairs * samples_per_chip
    total = body + samples_per_chip  # Q branch runs half a pair longer
    i_branch = np.zeros(total, dtype=np.float64)
    q_branch = np.zeros(total, dtype=np.float64)
    i_branch[:body] = (levels[0::2, None] * pulse).reshape(-1)
    # Q branch: same tiling, delayed by one chip period.
    q_branch[samples_per_chip : samples_per_chip + body] = (
        levels[1::2, None] * pulse
    ).reshape(-1)
    waveform = i_branch + 1j * q_branch
    rms = np.sqrt(np.mean(np.abs(waveform) ** 2))
    if rms > 0:
        waveform = waveform / rms
    return waveform


def oqpsk_demodulate(
    waveform: np.ndarray, samples_per_chip: int = DEFAULT_SAMPLES_PER_CHIP
) -> BitArray:
    """Recover hard chip decisions from an O-QPSK waveform.

    Matched-filters each branch with the half-sine pulse and samples at the
    pulse centres. Tolerates trailing padding and additive noise.
    """
    wf = np.asarray(waveform, dtype=np.complex128).ravel()
    pulse = half_sine_pulse(samples_per_chip)
    n_pairs = (wf.size - samples_per_chip) // (2 * samples_per_chip)
    if n_pairs <= 0:
        raise DecodingError("waveform too short to contain any chips")
    # Branch pulses tile without overlap (see oqpsk_modulate), so matched
    # filtering is one matrix-vector product per branch. The waveform is
    # guaranteed long enough for every window: the I block ends at
    # 2*n_pairs*spc and the Q block at (2*n_pairs + 1)*spc <= wf.size.
    body = 2 * n_pairs * samples_per_chip
    corr_i = wf.real[:body].reshape(n_pairs, -1) @ pulse
    corr_q = (
        wf.imag[samples_per_chip : samples_per_chip + body].reshape(n_pairs, -1)
        @ pulse
    )
    chips = np.empty(2 * n_pairs, dtype=np.uint8)
    chips[0::2] = corr_i < 0
    chips[1::2] = corr_q < 0
    return chips


@lru_cache(maxsize=32)
def _oqpsk_template_cached(n_chips: int, samples_per_chip: int) -> np.ndarray:
    wf = oqpsk_modulate(np.zeros(n_chips, dtype=np.uint8), samples_per_chip)
    wf.setflags(write=False)
    return wf


def oqpsk_template(
    n_chips: int, samples_per_chip: int = DEFAULT_SAMPLES_PER_CHIP
) -> np.ndarray:
    """The unit-power O-QPSK waveform of ``n_chips`` zero chips.

    Every chip stream of that length normalises by the same RMS: the
    power sums ``hypot(±i, ±q)²`` over a fixed pulse layout, and
    ``hypot`` ignores signs. So any stream's waveform is this template
    with the pulse of every ``1`` chip negated, bit for bit (IEEE
    rounding is sign-symmetric). Memoized; the array is read-only.
    """
    if n_chips < 2 or n_chips % 2:
        raise EncodingError("chip count must be even (I/Q pairs)")
    return _oqpsk_template_cached(int(n_chips), int(samples_per_chip))


def oqpsk_branch_pulses(
    template: np.ndarray, samples_per_chip: int = DEFAULT_SAMPLES_PER_CHIP
) -> tuple[np.ndarray, np.ndarray]:
    """A template's I and Q pulses as ``(n_pairs, 2 × samples/chip)`` views.

    Row ``k`` of the I (Q) matrix is the pulse chip ``2k`` (``2k + 1``)
    rides on. The I branch starts at sample 0 and the Q branch one chip
    period later; both span ``n_pairs × 2 × samples/chip`` samples.
    """
    body = template.size - samples_per_chip
    width = 2 * samples_per_chip
    i_pulses = template.real[:body].reshape(-1, width)
    q_pulses = template.imag[samples_per_chip:].reshape(-1, width)
    return i_pulses, q_pulses


def oqpsk_modulate_batch(
    chips: "np.typing.ArrayLike",
    samples_per_chip: int = DEFAULT_SAMPLES_PER_CHIP,
) -> np.ndarray:
    """O-QPSK-modulate ``N`` equal-length chip streams at once.

    ``chips`` is an ``(N, n_chips)`` 0/1 matrix; the result is an
    ``(N, samples)`` complex matrix whose row ``i`` is bit-identical to
    ``oqpsk_modulate(chips[i], samples_per_chip)``: each row flips the
    signs of the pulses of :func:`oqpsk_template`, which needs no
    per-row normalisation.
    """
    arr = np.asarray(chips, dtype=np.uint8)
    if arr.ndim != 2:
        raise EncodingError(f"chip matrix must be 2-D, got shape {arr.shape}")
    if arr.size and arr.max(initial=0) > 1:
        raise EncodingError("bit array contains values other than 0 and 1")
    n, n_chips = arr.shape
    i_pulses, q_pulses = oqpsk_branch_pulses(
        oqpsk_template(n_chips, samples_per_chip), samples_per_chip
    )
    levels = 1.0 - 2.0 * arr.astype(np.float64)
    body = n_chips * samples_per_chip
    waveform = np.zeros((n, body + samples_per_chip), dtype=np.complex128)
    waveform.real[:, :body] = (levels[:, 0::2, None] * i_pulses).reshape(n, -1)
    waveform.imag[:, samples_per_chip:] = (
        levels[:, 1::2, None] * q_pulses
    ).reshape(n, -1)
    return waveform


def oqpsk_demodulate_batch(
    waveforms: np.ndarray,
    samples_per_chip: int = DEFAULT_SAMPLES_PER_CHIP,
) -> np.ndarray:
    """Hard chip decisions for ``N`` equal-length waveforms at once.

    ``waveforms`` is an ``(N, samples)`` complex matrix; the result is an
    ``(N, n_chips)`` chip matrix whose row ``i`` is bit-identical to
    ``oqpsk_demodulate(waveforms[i], samples_per_chip)``: each branch is
    one ``(N, n_pairs, win)`` tensor matched-filtered against the
    half-sine pulse in a single matmul.
    """
    wf = np.asarray(waveforms, dtype=np.complex128)
    if wf.ndim != 2:
        raise DecodingError(f"waveform matrix must be 2-D, got shape {wf.shape}")
    pulse = half_sine_pulse(samples_per_chip)
    n = wf.shape[0]
    n_pairs = (wf.shape[1] - samples_per_chip) // (2 * samples_per_chip)
    if n_pairs <= 0:
        raise DecodingError("waveform too short to contain any chips")
    body = 2 * n_pairs * samples_per_chip
    corr_i = wf.real[:, :body].reshape(n, n_pairs, -1) @ pulse
    corr_q = (
        wf.imag[:, samples_per_chip : samples_per_chip + body].reshape(
            n, n_pairs, -1
        )
        @ pulse
    )
    chips = np.empty((n, 2 * n_pairs), dtype=np.uint8)
    chips[:, 0::2] = corr_i < 0
    chips[:, 1::2] = corr_q < 0
    return chips


@dataclass(frozen=True)
class ZigBeePhyConfig:
    """Configuration of the ZigBee PHY chain."""

    samples_per_chip: int = DEFAULT_SAMPLES_PER_CHIP

    def __post_init__(self) -> None:
        if self.samples_per_chip < 1:
            raise EncodingError("samples_per_chip must be >= 1")

    @property
    def sample_rate(self) -> float:
        return self.samples_per_chip * CHIP_RATE


@dataclass(frozen=True)
class ZigBeeDecodeResult:
    """Outcome of a waveform-level decode."""

    data: bytes
    chip_error_rate: float
    symbol_errors: np.ndarray  # per-symbol Hamming distance of the winner


class ZigBeePhy:
    """Full 802.15.4 O-QPSK/DSSS modem.

    >>> phy = ZigBeePhy()
    >>> wf = phy.transmit(b"\\x12\\x34")
    >>> phy.receive(wf, num_bytes=2).data
    b'\\x124'
    """

    def __init__(self, config: ZigBeePhyConfig | None = None) -> None:
        self.config = config or ZigBeePhyConfig()

    def chips_for(self, data: bytes) -> BitArray:
        """Spread ``data`` into its chip stream."""
        return spread(bytes_to_symbols(data))

    def transmit(self, data: bytes) -> np.ndarray:
        """Modulate ``data`` to a complex baseband waveform."""
        chips = self.chips_for(data)
        if chips.size == 0:
            raise EncodingError("cannot transmit an empty payload")
        return oqpsk_modulate(chips, self.config.samples_per_chip)

    def receive(self, waveform: np.ndarray, num_bytes: int) -> ZigBeeDecodeResult:
        """Demodulate and despread a waveform back into bytes."""
        chips = oqpsk_demodulate(waveform, self.config.samples_per_chip)
        needed = num_bytes * 2 * CHIPS_PER_SYMBOL
        if chips.size < needed:
            raise DecodingError(
                f"waveform carries {chips.size} chips; {needed} needed "
                f"for {num_bytes} bytes"
            )
        chips = chips[:needed]
        symbols, errors = despread(chips)
        expected = spread(symbols)
        cer = float(np.count_nonzero(chips != expected)) / chips.size
        return ZigBeeDecodeResult(
            data=symbols_to_bytes(symbols),
            chip_error_rate=cer,
            symbol_errors=errors,
        )

    def duration_for(self, num_bytes: int) -> float:
        """Air time in seconds of ``num_bytes`` of spread payload."""
        return num_bytes * 2 * CHIPS_PER_SYMBOL / CHIP_RATE


__all__ = [
    "CHIPS_PER_SYMBOL",
    "BITS_PER_SYMBOL",
    "CHIP_RATE",
    "SYMBOL_RATE",
    "BIT_RATE",
    "DEFAULT_SAMPLES_PER_CHIP",
    "CHIP_TABLE",
    "CHIP_TABLE_PM",
    "bytes_to_symbols",
    "symbols_to_bytes",
    "spread",
    "despread",
    "despread_reference",
    "half_sine_pulse",
    "oqpsk_modulate",
    "oqpsk_demodulate",
    "oqpsk_template",
    "oqpsk_branch_pulses",
    "oqpsk_modulate_batch",
    "oqpsk_demodulate_batch",
    "ZigBeePhyConfig",
    "ZigBeeDecodeResult",
    "ZigBeePhy",
]
