"""Unit tests for the DDR model and hardware configuration."""

import numpy as np
import pytest

from repro.hw import (DDRModel, HardwareConfig, U200, U200_DESIGN, ZCU104,
                      ZCU104_DESIGN)


class TestDDRModel:
    def test_alpha_monotone_saturating(self):
        d = DDRModel(peak_bw_gbs=77.0)
        bursts = [1, 8, 64, 512, 4096]
        alphas = [d.alpha(b) for b in bursts]
        assert all(a < b for a, b in zip(alphas, alphas[1:]))
        assert alphas[-1] < 1.0
        assert d.alpha(64) == pytest.approx(0.5)  # l_half definition

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            DDRModel(peak_bw_gbs=10.0).alpha(0)

    def test_transfer_time_scales_with_words(self):
        d = DDRModel(peak_bw_gbs=77.0, base_latency_s=0.0)
        t1 = d.transfer_time(1000, burst_words=256)
        t2 = d.transfer_time(2000, burst_words=256)
        assert t2 == pytest.approx(2 * t1)

    def test_zero_words_free(self):
        d = DDRModel(peak_bw_gbs=10.0)
        assert d.transfer_time(0, 64) == 0.0
        assert d.row_gather_time(0, 100) == 0.0

    def test_short_bursts_slower_per_word(self):
        d = DDRModel(peak_bw_gbs=77.0, base_latency_s=0.0)
        slow = d.transfer_time(1024, burst_words=4)
        fast = d.transfer_time(1024, burst_words=1024)
        assert slow > 2 * fast

    def test_refresh_derating(self):
        on = DDRModel(peak_bw_gbs=10.0, refresh=True)
        off = DDRModel(peak_bw_gbs=10.0, refresh=False)
        assert off.refresh_derating == 1.0
        assert 0.9 < on.refresh_derating < 1.0
        assert on.transfer_time(1e6, 256) > off.transfer_time(1e6, 256)

    def test_row_gather_amortizes_latency(self):
        d = DDRModel(peak_bw_gbs=77.0)
        serial = d.row_gather_time(64, 100, overlap=1)
        overlapped = d.row_gather_time(64, 100, overlap=16)
        assert overlapped < serial


class TestHardwareConfig:
    def test_published_designs_match_table4_configs(self):
        assert U200_DESIGN.n_cu == 2 and U200_DESIGN.sg == 8
        assert U200_DESIGN.s_fam == 16 and U200_DESIGN.s_ftm == (8, 8)
        assert U200_DESIGN.freq_mhz == 250.0
        assert ZCU104_DESIGN.n_cu == 1 and ZCU104_DESIGN.sg == 4
        assert ZCU104_DESIGN.s_fam == 8 and ZCU104_DESIGN.s_ftm == (4, 4)
        assert ZCU104_DESIGN.freq_mhz == 125.0

    def test_derived_quantities(self):
        assert U200_DESIGN.sg2 == 64
        assert U200_DESIGN.sftm2 == 64
        assert U200_DESIGN.clock_s == pytest.approx(4e-9)

    def test_platform_budgets(self):
        assert U200.total_dsps == 3 * 2280
        assert ZCU104.total_urams == 96
        assert U200.fits(100, 100, 100, 100)
        assert not ZCU104.fits(10**9, 0, 0, 0)

    @pytest.mark.parametrize("board", [U200, ZCU104], ids=lambda b: b.name)
    def test_board_totals_are_the_die_budget_times_the_dies(self, board):
        per_die = (board.luts_per_die, board.dsps_per_die,
                   board.brams_per_die, board.urams_per_die)
        assert (board.total_luts, board.total_dsps, board.total_brams,
                board.total_urams) == tuple(board.dies * n for n in per_die)

    def test_validation(self):
        with pytest.raises(ValueError):
            HardwareConfig(platform=ZCU104, n_cu=0)
        with pytest.raises(ValueError):
            HardwareConfig(platform=ZCU104, nb=5, n_cu=2)  # nb % n_cu != 0
        with pytest.raises(ValueError):
            HardwareConfig(platform=ZCU104, commit_scan=0)

    def test_with_override(self):
        hw = ZCU104_DESIGN.with_(nb=32)
        assert hw.nb == 32 and hw.sg == ZCU104_DESIGN.sg

    def test_ddr_factory(self):
        d = U200_DESIGN.ddr(refresh=True)
        assert d.peak_bw_gbs == 77.0 and d.refresh
