"""Equivalence and behaviour tests for the memoised PER fast path."""

import pytest

from repro.channel.link import (
    DEFAULT_PER_CACHE_CAPACITY,
    PER_CACHE_ENV,
    Interferer,
    JammerSignalType,
    LinkBudget,
    LinkTable,
    resolve_per_cache_capacity,
)
from repro.errors import ChannelError
from repro.obs.metrics import METRICS

WIFI = Interferer(power_dbm=-40.0, signal_type=JammerSignalType.WIFI)
EMUBEE = Interferer(power_dbm=-45.0, signal_type=JammerSignalType.EMUBEE)
ZIGBEE = Interferer(power_dbm=-60.0, signal_type=JammerSignalType.ZIGBEE)

SIGNALS = [-90.0, -80.0, -70.0, -55.0, -40.0]
OCTETS = [16, 60, 127]
INTERFERER_SETS = [(), (WIFI,), (EMUBEE,), (ZIGBEE,), (WIFI, ZIGBEE)]


class TestCapacityResolution:
    def test_default(self, monkeypatch):
        monkeypatch.delenv(PER_CACHE_ENV, raising=False)
        assert resolve_per_cache_capacity() == DEFAULT_PER_CACHE_CAPACITY

    def test_empty_env_is_default(self, monkeypatch):
        monkeypatch.setenv(PER_CACHE_ENV, "")
        assert resolve_per_cache_capacity() == DEFAULT_PER_CACHE_CAPACITY

    @pytest.mark.parametrize("blank", ["  ", "\t", " \n"])
    def test_blank_env_is_default(self, monkeypatch, blank):
        monkeypatch.setenv(PER_CACHE_ENV, blank)
        assert resolve_per_cache_capacity() == DEFAULT_PER_CACHE_CAPACITY

    def test_padded_env_integer(self, monkeypatch):
        monkeypatch.setenv(PER_CACHE_ENV, " 128 ")
        assert resolve_per_cache_capacity() == 128

    def test_env_integer(self, monkeypatch):
        monkeypatch.setenv(PER_CACHE_ENV, "128")
        assert resolve_per_cache_capacity() == 128

    @pytest.mark.parametrize("word", ["off", "none", " OFF ", "None"])
    def test_disable_words(self, word):
        assert resolve_per_cache_capacity(word) == 0

    def test_override_beats_env(self, monkeypatch):
        monkeypatch.setenv(PER_CACHE_ENV, "128")
        assert resolve_per_cache_capacity(4) == 4

    @pytest.mark.parametrize("bad", ["soon", "1.5", -1])
    def test_invalid_rejected(self, bad):
        with pytest.raises(ChannelError):
            resolve_per_cache_capacity(bad)


class TestExactEquivalence:
    """The tentpole contract: memoised PER == direct PER, bit for bit."""

    def test_full_grid_matches_direct(self):
        budget = LinkBudget()
        table = LinkTable(budget)
        for _ in range(2):  # second sweep exercises the hit path
            for signal in SIGNALS:
                for octets in OCTETS:
                    for combo in INTERFERER_SETS:
                        direct = budget.packet_error_rate(
                            signal, octets, list(combo)
                        )
                        assert table.packet_error_rate(signal, octets, combo) == direct

    def test_jamming_per_matches_direct(self):
        budget = LinkBudget()
        table = LinkTable(budget)
        for dist in (1.0, 5.0, 20.0):
            for sig in JammerSignalType:
                kwargs = dict(
                    link_distance_m=10.0,
                    jammer_distance_m=dist,
                    signal_type=sig,
                    victim_tx_dbm=0.0,
                    jammer_tx_dbm=15.0,
                )
                direct = budget.jamming_per(**kwargs)
                assert table.jamming_per(**kwargs) == direct
                # Second call is a whole-result hit with the same float.
                assert table.jamming_per(**kwargs) == direct

    def test_list_and_tuple_interferers_share_a_key(self):
        table = LinkTable()
        a = table.packet_error_rate(-70.0, 60, [WIFI])
        b = table.packet_error_rate(-70.0, 60, (WIFI,))
        assert a == b
        assert table.hits == 1 and table.misses == 1


class TestCacheMechanics:
    def test_hits_misses_and_rate(self):
        table = LinkTable()
        assert table.hit_rate == 0.0
        table.packet_error_rate(-70.0, 60, ())
        table.packet_error_rate(-70.0, 60, ())
        table.packet_error_rate(-71.0, 60, ())
        assert table.misses == 2 and table.hits == 1
        assert table.hit_rate == pytest.approx(1 / 3)
        stats = table.stats()
        assert stats["entries"] == 2
        assert stats["capacity"] == DEFAULT_PER_CACHE_CAPACITY

    def test_metrics_registry_counters(self):
        before_hits = METRICS.counter("link.per_cache_hits").value
        before_misses = METRICS.counter("link.per_cache_misses").value
        table = LinkTable()
        table.packet_error_rate(-70.0, 60, ())
        table.packet_error_rate(-70.0, 60, ())
        assert METRICS.counter("link.per_cache_hits").value == before_hits + 1
        assert METRICS.counter("link.per_cache_misses").value == before_misses + 1

    def test_lru_eviction_bounds_entries(self):
        table = LinkTable(capacity=3)
        for i in range(6):
            table.packet_error_rate(-70.0 - i, 60, ())
        assert len(table) == 3
        # The oldest key was evicted: looking it up is a fresh miss.
        misses = table.misses
        table.packet_error_rate(-70.0, 60, ())
        assert table.misses == misses + 1
        # The newest key is still resident.
        hits = table.hits
        table.packet_error_rate(-75.0, 60, ())
        assert table.hits == hits + 1

    def test_disabled_is_transparent(self):
        budget = LinkBudget()
        table = LinkTable(budget, capacity="off")
        assert not table.enabled
        direct = budget.packet_error_rate(-70.0, 60, [WIFI])
        assert table.packet_error_rate(-70.0, 60, (WIFI,)) == direct
        assert table.jamming_per(
            link_distance_m=10.0,
            jammer_distance_m=5.0,
            signal_type=JammerSignalType.WIFI,
            victim_tx_dbm=0.0,
            jammer_tx_dbm=15.0,
        ) == budget.jamming_per(
            link_distance_m=10.0,
            jammer_distance_m=5.0,
            signal_type=JammerSignalType.WIFI,
            victim_tx_dbm=0.0,
            jammer_tx_dbm=15.0,
        )
        assert len(table) == 0
        assert table.hits == 0 and table.misses == 0
        assert table.precompute(SIGNALS, OCTETS, INTERFERER_SETS) == 0

    def test_clear(self):
        table = LinkTable()
        table.packet_error_rate(-70.0, 60, ())
        table.clear()
        assert len(table) == 0
        assert table.hits == 0 and table.misses == 0


class TestPrecompute:
    def test_precompute_then_all_hits(self):
        budget = LinkBudget()
        table = LinkTable(budget)
        n = table.precompute(SIGNALS, OCTETS, INTERFERER_SETS)
        assert n == len(SIGNALS) * len(OCTETS) * len(INTERFERER_SETS)
        # Re-running is free.
        assert table.precompute(SIGNALS, OCTETS, INTERFERER_SETS) == 0
        for signal in SIGNALS:
            for octets in OCTETS:
                for combo in INTERFERER_SETS:
                    expect = budget.packet_error_rate(signal, octets, list(combo))
                    assert table.packet_error_rate(signal, octets, combo) == expect
        assert table.misses == 0
        assert table.hit_rate == 1.0

    def test_precompute_respects_capacity(self):
        table = LinkTable(capacity=4)
        table.precompute(SIGNALS, [60], [()])
        assert len(table) == 4


class TestShadowedJamming:
    """``jamming_per`` under log-normal shadowing memoises bit-exactly.

    With ``shadowing_sigma_db > 0`` the quadrature averages 15 per-point
    PERs; the table must return the direct budget's float, serve repeats
    from the whole-result cache, and key the sigma so different spreads
    never alias.
    """

    KW = dict(
        link_distance_m=10.0,
        jammer_distance_m=5.0,
        signal_type=JammerSignalType.EMUBEE,
        victim_tx_dbm=0.0,
        jammer_tx_dbm=15.0,
        shadowing_sigma_db=6.0,
    )

    def test_matches_direct_and_memoises(self):
        budget = LinkBudget()
        table = LinkTable(budget)
        direct = budget.jamming_per(**self.KW)
        assert table.jamming_per(**self.KW) == direct
        hits = table.hits
        assert table.jamming_per(**self.KW) == direct
        # Whole-result hit: the 15-node quadrature does not re-run.
        assert table.hits == hits + 1

    def test_quadrature_points_fill_the_per_cache(self):
        table = LinkTable()
        table.jamming_per(**self.KW)
        # 15 Gauss–Hermite nodes land as per-point entries alongside the
        # single whole-result entry, so later calls at overlapping
        # geometries reuse them.
        assert table.stats()["entries"] == 16

    def test_sigma_is_part_of_the_key(self):
        table = LinkTable()
        a = table.jamming_per(**{**self.KW, "shadowing_sigma_db": 4.0})
        b = table.jamming_per(**{**self.KW, "shadowing_sigma_db": 6.0})
        assert a != b
