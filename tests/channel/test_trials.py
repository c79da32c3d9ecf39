"""The batched waveform trial engine is bit-identical to the serial path.

``jam_trials`` stacks N trials into ``(N, samples)`` tensors; these tests
pin every row against :func:`repro.channel.waveform.jam_trial` run with
the same per-trial child stream, across all jammer signal types and
frequency offsets, and pin the chunked campaign driver against every
batch size and worker count.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channel.fidelity import OFFSET_BIN_MHZ
from repro.channel.link import JammerSignalType
from repro.channel.trials import (
    DEFAULT_BANK_SAMPLES,
    DEFAULT_TRIAL_BATCH,
    JAMMER_BANK_ENV,
    TRIAL_BATCH_ENV,
    BatchTrialResult,
    JammerBank,
    default_bank,
    jam_trials,
    resolve_bank_samples,
    resolve_trial_batch,
    run_chip_flip_trials,
    trial_base,
    trial_stream,
)
from repro.channel.waveform import jam_trial
from repro.errors import ChannelError, ConfigurationError
from repro.exec.runner import ParallelRunner
from repro.obs.metrics import METRICS
from repro.rng import make_rng

BANK = JammerBank(1 << 14, seed=3)


def _serial_reference(n, payload_bytes, base, *, signal_type,
                      jam_to_signal_db, noise_to_signal_db, offset_hz, bank,
                      first_trial=0):
    """Per-trial serial ground truth, drawing payloads the driver's way:
    each trial's stream yields its payload first, then feeds the trial."""
    payloads, results = [], []
    for i in range(n):
        s = trial_stream(base, first_trial + i)
        payload = bytes(s.integers(0, 256, payload_bytes, dtype=np.uint8))
        payloads.append(payload)
        results.append(
            jam_trial(
                payload,
                signal_type=signal_type,
                jam_to_signal_db=jam_to_signal_db,
                noise_to_signal_db=noise_to_signal_db,
                offset_hz=offset_hz,
                bank=bank,
                rng=s,
            )
        )
    return payloads, results


class TestBatchBitIdentity:
    @pytest.mark.parametrize("signal_type", list(JammerSignalType))
    @pytest.mark.parametrize("offset_hz", [0.0, 5e6])
    def test_rows_match_serial_trials(self, signal_type, offset_hz):
        base = trial_base(99)
        streams = [trial_stream(base, i) for i in range(4)]
        payloads = [
            bytes(s.integers(0, 256, 6, dtype=np.uint8)) for s in streams
        ]
        batch = jam_trials(
            payloads,
            signal_type=signal_type,
            jam_to_signal_db=2.0,
            noise_to_signal_db=-25.0,
            offset_hz=offset_hz,
            rngs=streams,
            bank=BANK,
        )
        ref_payloads, refs = _serial_reference(
            4,
            6,
            base,
            signal_type=signal_type,
            jam_to_signal_db=2.0,
            noise_to_signal_db=-25.0,
            offset_hz=offset_hz,
            bank=BANK,
        )
        assert ref_payloads == payloads
        for i, ref in enumerate(refs):
            assert batch.chip_error_rate[i] == ref.chip_error_rate
            assert batch.symbol_error_rate[i] == ref.symbol_error_rate
            assert bool(batch.packet_delivered[i]) == ref.packet_delivered
            assert batch.decoded[i] == ref.decoded
            assert batch.trial(i) == ref

    def test_no_bank_path_matches_serial(self):
        base = trial_base(7)
        streams = [trial_stream(base, i) for i in range(3)]
        payloads = [
            bytes(s.integers(0, 256, 4, dtype=np.uint8)) for s in streams
        ]
        batch = jam_trials(
            payloads,
            signal_type=JammerSignalType.ZIGBEE,
            jam_to_signal_db=0.0,
            rngs=streams,
        )
        ref_payloads, refs = _serial_reference(
            3,
            4,
            base,
            signal_type=JammerSignalType.ZIGBEE,
            jam_to_signal_db=0.0,
            noise_to_signal_db=-30.0,
            offset_hz=0.0,
            bank=None,
        )
        assert ref_payloads == payloads
        for i, ref in enumerate(refs):
            assert batch.trial(i) == ref

    def test_derived_streams_match_explicit_streams(self):
        # jam_trials(rng=..., first_trial=...) derives the same per-trial
        # streams as handing them over explicitly via rngs=.
        payloads = [b"\x11\x22\x33\x44"] * 3
        derived = jam_trials(
            payloads,
            signal_type=JammerSignalType.EMUBEE,
            jam_to_signal_db=3.0,
            rng=41,
            first_trial=5,
            bank=BANK,
        )
        explicit = jam_trials(
            payloads,
            signal_type=JammerSignalType.EMUBEE,
            jam_to_signal_db=3.0,
            rngs=[trial_stream(trial_base(41), 5 + i) for i in range(3)],
            bank=BANK,
        )
        assert np.array_equal(explicit.chip_error_rate, derived.chip_error_rate)
        assert np.array_equal(
            explicit.symbol_error_rate, derived.symbol_error_rate
        )

    def test_batch_size_invariance(self):
        base = trial_base(13)
        streams = [trial_stream(base, i) for i in range(6)]
        payloads = [
            bytes(s.integers(0, 256, 5, dtype=np.uint8)) for s in streams
        ]
        whole = jam_trials(
            payloads,
            signal_type=JammerSignalType.WIFI,
            jam_to_signal_db=4.0,
            rngs=[trial_stream(base, i) for i in range(6)],
            bank=BANK,
        )
        halves = [
            jam_trials(
                payloads[k : k + 3],
                signal_type=JammerSignalType.WIFI,
                jam_to_signal_db=4.0,
                rngs=[trial_stream(base, k + i) for i in range(3)],
                bank=BANK,
            )
            for k in (0, 3)
        ]
        merged = np.concatenate(
            [h.chip_error_rate for h in halves]
        )
        assert np.array_equal(whole.chip_error_rate, merged)

    def test_result_shapes(self):
        payloads = [b"\x01\x02", b"\x03\x04"]
        res = jam_trials(
            payloads,
            signal_type=JammerSignalType.ZIGBEE,
            jam_to_signal_db=-20.0,
            rng=0,
            bank=BANK,
        )
        assert isinstance(res, BatchTrialResult)
        assert len(res) == 2
        assert res.chip_error_rate.shape == (2,)
        assert res.packet_delivered.dtype == bool
        # At -20 dB J/S the link is clean: packets decode.
        assert res.packet_delivered.all()
        assert res.decoded == tuple(payloads)


#: A bank shorter than the shortest frame (1 byte = 650 samples): every
#: slice wraps, most of them several times.
SHORT_BANK = JammerBank(200, seed=4)

#: dB ratios: the ±20 dB extremes, or anything between them.
RATIO_DB = st.one_of(
    st.sampled_from([-20.0, 20.0]),
    st.floats(-20.0, 20.0, allow_nan=False),
)


def _payload_batch(kind: str, n: int, length: int, seed: int) -> list[bytes]:
    """``n`` equal-length payloads: random, all-0x00, all-0xFF or mixed."""
    r = make_rng(seed)
    rows = {
        "random": lambda i: bytes(r.integers(0, 256, length, dtype=np.uint8)),
        "zeros": lambda i: b"\x00" * length,
        "ones": lambda i: b"\xff" * length,
        "mixed": lambda i: (
            b"\x00" * length,
            b"\xff" * length,
            bytes(r.integers(0, 256, length, dtype=np.uint8)),
        )[i % 3],
    }[kind]
    return [rows(i) for i in range(n)]


class TestBatchMatchesSerialProperty:
    """Every row of jam_trials equals the serial jam_trial on its stream."""

    @settings(max_examples=30, deadline=None)
    @given(
        signal_type=st.sampled_from(list(JammerSignalType)),
        offset_bins=st.sampled_from([0, 3]),
        length=st.integers(1, 16),
        kind=st.sampled_from(["random", "zeros", "ones", "mixed"]),
        n=st.sampled_from([1, 5, resolve_trial_batch() + 1]),
        short_bank=st.booleans(),
        jam_to_signal_db=RATIO_DB,
        noise_to_signal_db=RATIO_DB,
        seed=st.integers(0, 2**32 - 1),
        first_trial=st.integers(0, 1000),
    )
    def test_rows_equal_serial_trials(
        self, signal_type, offset_bins, length, kind, n, short_bank,
        jam_to_signal_db, noise_to_signal_db, seed, first_trial,
    ):
        bank = SHORT_BANK if short_bank else BANK
        payloads = _payload_batch(kind, n, length, seed)
        params = dict(
            signal_type=signal_type,
            jam_to_signal_db=jam_to_signal_db,
            noise_to_signal_db=noise_to_signal_db,
            offset_hz=offset_bins * OFFSET_BIN_MHZ * 1e6,
            bank=bank,
        )
        batch = jam_trials(
            payloads, rng=seed, first_trial=first_trial, **params
        )
        base = trial_base(seed)
        for i, payload in enumerate(payloads):
            ref = jam_trial(
                payload, rng=trial_stream(base, first_trial + i), **params
            )
            assert batch.trial(i) == ref


class TestCampaignInvariance:
    def test_trial_batch_invariance(self):
        vals = [
            run_chip_flip_trials(
                JammerSignalType.EMUBEE, 3.0, trials=11, rng=42,
                trial_batch=tb,
            )
            for tb in (1, 2, 5, 11, 64)
        ]
        assert all(v == vals[0] for v in vals)

    def test_worker_invariance(self):
        serial = run_chip_flip_trials(
            JammerSignalType.ZIGBEE, 1.0, trials=8, rng=4, trial_batch=3
        )
        runner = ParallelRunner(workers=2)
        parallel = run_chip_flip_trials(
            JammerSignalType.ZIGBEE, 1.0, trials=8, rng=4, trial_batch=3,
            runner=runner,
        )
        assert parallel == serial

    def test_matches_per_trial_references(self):
        base = trial_base(17)
        bank = default_bank()
        got = run_chip_flip_trials(
            JammerSignalType.ZIGBEE, 0.0, trials=5, payload_bytes=4, rng=17,
            trial_batch=2,
        )
        total = 0.0
        for i in range(5):
            s = trial_stream(base, i)
            payload = bytes(s.integers(0, 256, 4, dtype=np.uint8))
            total += jam_trial(
                payload,
                signal_type=JammerSignalType.ZIGBEE,
                jam_to_signal_db=0.0,
                rng=s,
                bank=bank,
            ).chip_error_rate
        assert got == total / 5

    def test_generator_seed_reproducible(self):
        a = run_chip_flip_trials(
            JammerSignalType.WIFI, 2.0, trials=4, rng=make_rng(8)
        )
        b = run_chip_flip_trials(
            JammerSignalType.WIFI, 2.0, trials=4, rng=make_rng(8)
        )
        assert a == b

    def test_validation(self):
        with pytest.raises(ChannelError):
            run_chip_flip_trials(JammerSignalType.WIFI, 0.0, trials=0)
        with pytest.raises(ChannelError):
            run_chip_flip_trials(
                JammerSignalType.WIFI, 0.0, trials=1, payload_bytes=0
            )


class TestJammerBank:
    def test_bursts_deterministic_across_instances(self):
        a = JammerBank(4096, seed=1)
        b = JammerBank(4096, seed=1)
        for sig in JammerSignalType:
            assert np.array_equal(a.burst(sig), b.burst(sig))

    def test_seed_changes_burst(self):
        a = JammerBank(4096, seed=1)
        b = JammerBank(4096, seed=2)
        assert not np.array_equal(
            a.burst(JammerSignalType.WIFI), b.burst(JammerSignalType.WIFI)
        )

    def test_bursts_are_cached_and_readonly(self):
        bank = JammerBank(4096)
        METRICS.reset()
        first = bank.burst(JammerSignalType.ZIGBEE)
        again = bank.burst(JammerSignalType.ZIGBEE)
        assert first is again
        snap = METRICS.snapshot()
        assert snap["counters"]["waveform.bank_misses"] == 1
        assert snap["counters"]["waveform.bank_hits"] == 1
        with pytest.raises(ValueError):
            first[0] = 0.0

    def test_slices_have_unit_power(self):
        bank = JammerBank(4096, seed=5)
        wf = bank.waveform(JammerSignalType.EMUBEE, 700, rng=3)
        assert wf.size == 700
        assert np.isclose(np.mean(np.abs(wf) ** 2), 1.0)

    def test_slice_consumes_one_draw(self):
        bank = JammerBank(4096, seed=5)
        r1, r2 = make_rng(9), make_rng(9)
        bank.waveform(JammerSignalType.WIFI, 100, rng=r1)
        r2.integers(0, 4096 // 20)
        assert r1.integers(0, 1 << 30) == r2.integers(0, 1 << 30)

    def test_alpha_ablation_changes_emubee_burst(self):
        sharp = JammerBank(4096, alpha=None)
        clipped = JammerBank(4096, alpha=10.0)
        assert not np.array_equal(
            sharp.burst(JammerSignalType.EMUBEE),
            clipped.burst(JammerSignalType.EMUBEE),
        )
        # Non-EmuBee bursts ignore alpha entirely.
        assert np.array_equal(
            sharp.burst(JammerSignalType.WIFI),
            JammerBank(4096, alpha=10.0).burst(JammerSignalType.WIFI),
        )

    def test_zero_size_bank_rejected(self):
        with pytest.raises(ChannelError):
            JammerBank(0)


class TestEnvResolution:
    def test_bank_default(self, monkeypatch):
        monkeypatch.delenv(JAMMER_BANK_ENV, raising=False)
        assert resolve_bank_samples() == DEFAULT_BANK_SAMPLES

    def test_bank_env_and_disable(self, monkeypatch):
        monkeypatch.setenv(JAMMER_BANK_ENV, "2048")
        assert resolve_bank_samples() == 2048
        for off in ("0", "off", "none"):
            monkeypatch.setenv(JAMMER_BANK_ENV, off)
            assert resolve_bank_samples() == 0
            assert default_bank() is None
        monkeypatch.setenv(JAMMER_BANK_ENV, "")
        assert resolve_bank_samples() == DEFAULT_BANK_SAMPLES

    def test_bank_invalid(self, monkeypatch):
        monkeypatch.setenv(JAMMER_BANK_ENV, "many")
        with pytest.raises(ConfigurationError):
            resolve_bank_samples()
        with pytest.raises(ConfigurationError):
            resolve_bank_samples(-1)

    def test_trial_batch_default_and_env(self, monkeypatch):
        monkeypatch.delenv(TRIAL_BATCH_ENV, raising=False)
        assert resolve_trial_batch() == DEFAULT_TRIAL_BATCH
        monkeypatch.setenv(TRIAL_BATCH_ENV, "16")
        assert resolve_trial_batch() == 16
        monkeypatch.setenv(TRIAL_BATCH_ENV, "off")
        assert resolve_trial_batch() == 1
        assert resolve_trial_batch(8) == 8

    def test_trial_batch_invalid(self, monkeypatch):
        monkeypatch.setenv(TRIAL_BATCH_ENV, "zero")
        with pytest.raises(ConfigurationError):
            resolve_trial_batch()
        with pytest.raises(ConfigurationError):
            resolve_trial_batch(0)

    def test_whitespace_env_counts_as_unset(self, monkeypatch):
        # A stray "export REPRO_JAMMER_BANK=' '" must behave like the
        # variable being absent, not like an invalid literal.
        monkeypatch.setenv(JAMMER_BANK_ENV, "   ")
        assert resolve_bank_samples() == DEFAULT_BANK_SAMPLES
        monkeypatch.setenv(TRIAL_BATCH_ENV, "\t ")
        assert resolve_trial_batch() == DEFAULT_TRIAL_BATCH

    def test_padded_env_values_parse(self, monkeypatch):
        monkeypatch.setenv(JAMMER_BANK_ENV, " 2048 ")
        assert resolve_bank_samples() == 2048
        monkeypatch.setenv(JAMMER_BANK_ENV, " OFF ")
        assert resolve_bank_samples() == 0
        monkeypatch.setenv(TRIAL_BATCH_ENV, " 16 ")
        assert resolve_trial_batch() == 16


class TestValidationAndMetrics:
    def test_rejects_bad_batches(self):
        kwargs = dict(
            signal_type=JammerSignalType.WIFI, jam_to_signal_db=0.0, rng=0
        )
        with pytest.raises(ChannelError):
            jam_trials([], **kwargs)
        with pytest.raises(ChannelError):
            jam_trials([b""], **kwargs)
        with pytest.raises(ChannelError):
            jam_trials([b"\x01", b"\x02\x03"], **kwargs)
        with pytest.raises(ChannelError):
            jam_trials(
                [b"\x01"], rngs=[make_rng(0), make_rng(1)],
                signal_type=JammerSignalType.WIFI, jam_to_signal_db=0.0,
            )

    def test_trial_counters(self):
        METRICS.reset()
        jam_trials(
            [b"\x01\x02", b"\x03\x04", b"\x05\x06"],
            signal_type=JammerSignalType.ZIGBEE,
            jam_to_signal_db=-10.0,
            rng=0,
            bank=BANK,
        )
        snap = METRICS.snapshot()["counters"]
        assert snap["waveform.trials"] == 3
        assert snap["waveform.trial_batches"] == 1


class TestTrialStreams:
    def test_trial_base_coercions(self):
        assert trial_base(None) == 0
        assert trial_base(17) == 17
        gen_a, gen_b = make_rng(3), make_rng(3)
        assert trial_base(gen_a) == trial_base(gen_b)
        seq = np.random.SeedSequence(5)
        assert trial_base(seq) == trial_base(np.random.SeedSequence(5))

    def test_streams_independent_of_batch_geometry(self):
        base = trial_base(12)
        a = trial_stream(base, 4).integers(0, 1 << 30, 8)
        b = trial_stream(base, 4).integers(0, 1 << 30, 8)
        c = trial_stream(base, 5).integers(0, 1 << 30, 8)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
