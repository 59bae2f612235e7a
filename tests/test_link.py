import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import vlcwdma as v
from vlcwdma.allocator import Candidate
from vlcwdma.geometry import Vec3
from vlcwdma.link import (
    DEFAULT_FRONT_END,
    ELECTRON_CHARGE_C,
    FEC_FLOOR_DB,
    FEC_THRESHOLD_DB,
    SinrModel,
    UnsupportedLinkError,
)
from vlcwdma.scene import WAVELENGTHS

from conftest import random_gain_table, sinr_db

R, Y, G, B = WAVELENGTHS

# frozen by the independent oracle arithmetic in test_isolated_user_golden
GOLDEN_PREAMP_VAR_A2 = 9.99045e-14
GOLDEN_ISOLATED_SINR_DB = 21.185207231208118

DEFAULT_TX = np.array([7.2, 4.5, 2.7, 2.7])


def manual_table(n_users, n_aps, cells, bandwidth_hz=10e9, tx=DEFAULT_TX):
    """GainTable with explicit gains: cells maps (u, b, a, wl) -> gain."""
    shape = (n_users, 4, n_aps, 4)
    dc = np.zeros(shape)
    for (u, b, a, wl), gain in cells.items():
        dc[u, b, a, wl.index] = gain
    bw = np.full(shape, bandwidth_hz)
    return v.GainTable(
        [Vec3(0, 0, 1)] * n_users, 4, n_aps, dc, bw,
        np.ones(shape, bool), np.zeros(shape), np.zeros(shape, bool),
        np.tile(tx, (n_aps, 1)),
    )


class TestPhotocurrent:
    """``SinrModel.currents``: responsivity x transmit power x DC gain."""

    def test_red_aggregate(self):
        i_red = SinrModel(manual_table(1, 1, {(0, 0, 0, R): 1.334e-6})).currents[0][0][0][R.index]
        assert i_red == pytest.approx(0.4 * 7.2 * 1.334e-6, rel=1e-15)
        assert i_red == pytest.approx(3.841e-6, rel=1e-3)

    def test_zero_gain(self):
        assert SinrModel(manual_table(1, 1, {(0, 0, 0, R): 0.0})).currents[0][0][0][R.index] == 0.0

    def test_blue_is_half_of_red(self):
        table = manual_table(1, 1, {(0, 0, 0, R): 1e-6, (0, 0, 0, B): 1e-6}, tx=np.full(4, 5.0))
        seen = SinrModel(table).currents[0][0][0]
        assert seen[B.index] == pytest.approx(0.5 * seen[R.index], rel=1e-15)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            manual_table(1, 1, {(0, 0, 0, R): -1e-6})


class TestNoiseVariance:
    def test_preamp_only(self):
        var = v.noise_variance(0.0, 5e9)
        assert var == pytest.approx((4.47e-12) ** 2 * 5e9, rel=1e-15)
        assert var == pytest.approx(GOLDEN_PREAMP_VAR_A2, rel=1e-6)

    def test_with_shot_term(self):
        var = v.noise_variance(7.742e-6, 5e9)
        shot = 2 * ELECTRON_CHARGE_C * 7.742e-6 * 5e9
        assert shot == pytest.approx(1.240e-14, rel=1e-3)
        assert var == pytest.approx(1.123e-13, rel=1e-3)

    def test_linear_in_bandwidth(self):
        assert v.noise_variance(2e-6, 10e9) == pytest.approx(2 * v.noise_variance(2e-6, 5e9), rel=1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            v.noise_variance(-1e-6, 5e9)
        with pytest.raises(ValueError):
            v.noise_variance(1e-6, 0.0)


class TestClassifyLight:
    """Signal, interference and background, as ``SinrModel`` sees them."""

    def test_degenerate_single_user(self):
        # the sole user's own AP's Y/G/B are background: noise floor only
        table = manual_table(1, 1, {(0, 0, 0, wl): 1e-6 for wl in WAVELENGTHS})
        model = SinrModel(table)
        own = Candidate(0, 0, 0, R, 0.0)
        seen = model.currents[0][0][0]
        assert model.sigma2[0][0] == pytest.approx(v.noise_variance(sum(seen), 5e9), rel=1e-15)
        assert model.sinr_linear(0, own, [own]) == seen[R.index] ** 2 / model.sigma2[0][0]

    def test_figure_two_scenario(self):
        # three APs, two wavelengths in play: u0 alone on blue,
        # u1 and u2 share red from different APs
        cells = {}
        for a in range(3):
            for b in range(4):
                for wl in WAVELENGTHS:
                    cells[(0, b, a, wl)] = 1e-7
                    cells[(1, b, a, wl)] = 1e-7
                    cells[(2, b, a, wl)] = 1e-7
        table = manual_table(3, 3, cells)
        assignment = {
            0: Candidate(0, 0, 0, B, 0.0),
            1: Candidate(1, 1, 0, R, 0.0),
            2: Candidate(2, 2, 0, R, 0.0),
        }
        model = SinrModel(table)
        entries = assignment.values()
        # sole blue user: the red users change nothing
        blue = assignment[0]
        assert model.sinr_linear(0, blue, entries) == model.sinr_linear(0, blue, [blue])
        # each red user's denominator holds exactly the other red AP's term
        for u, other_ap in ((1, 2), (2, 1)):
            own = assignment[u]
            i_sig = model.currents[u][0][own.ap][R.index]
            i_int = model.currents[u][0][other_ap][R.index]
            assert model.terms[u][0][R.index][other_ap * 4 + R.index] == i_int ** 2
            assert model.sinr_linear(u, own, entries) == i_sig * i_sig / (model.sigma2[u][0] + i_int ** 2)

    def test_partition_is_complete(self):
        # every (AP, wavelength) pair's light enters the noise floor once
        table = manual_table(2, 4, {(0, 0, a, wl): 1e-6 * (a + 1) for a in range(4) for wl in WAVELENGTHS})
        model = SinrModel(table)
        seen = model.currents[0][0]
        assert len(model.terms[0][0][R.index]) == 4 * 4
        assert model.sigma2[0][0] == pytest.approx(v.noise_variance(np.sum(seen), 5e9), rel=1e-15)

    def test_missing_user(self):
        table = manual_table(1, 1, {(0, 0, 0, R): 1e-6})
        with pytest.raises(KeyError):
            SinrModel(table).link_report(1, {0: Candidate(0, 0, 0, R, 0.0)})


def isolated_assignment(gain):
    table = manual_table(1, 1, {(0, 3, 0, wl): gain for wl in WAVELENGTHS})
    return table, {0: Candidate(0, 0, 3, R, 0.0)}


class TestSinr:
    def test_isolated_user_golden(self, single_ap_scene):
        # independent arithmetic chain, then the full pipeline to 0.1 dB
        from vlcwdma.scene import default_branches
        g, _ = v.los_contribution(single_ap_scene.room.aps[0], Vec3(0.5, 1.5, 1.0),
                                  default_branches()[3])
        i_sig = 0.4 * 7.2 * g
        i_bg = (0.35 * 4.5 + 0.3 * 2.7 + 0.2 * 2.7) * g
        var = (4.47e-12) ** 2 * 5e9 + 2 * 1.602e-19 * (i_sig + i_bg) * 5e9
        oracle_db = 10 * math.log10(i_sig**2 / var)
        assert i_sig == pytest.approx(3.841e-6, rel=1e-3)
        assert i_bg == pytest.approx(3.901e-6, rel=1e-3)
        assert var == pytest.approx(1.123e-13, rel=1e-3)
        assert oracle_db == pytest.approx(GOLDEN_ISOLATED_SINR_DB, abs=1e-9)

        table = v.gain_matrix(single_ap_scene, [Vec3(0.5, 1.5, 1.0)], max_order=0)
        assignment = v.solve_exact([0], table)
        pipeline_db = sinr_db(SinrModel(table), 0, assignment.entries)
        assert pipeline_db == pytest.approx(GOLDEN_ISOLATED_SINR_DB, abs=0.1)
        assert pipeline_db == pytest.approx(GOLDEN_ISOLATED_SINR_DB, abs=1e-6)

    def test_equal_interferer_drops_below_zero_db(self):
        gain = 1.334e-6
        cells = {(0, 3, 0, wl): gain for wl in WAVELENGTHS}
        cells.update({(0, 3, 1, wl): gain for wl in WAVELENGTHS})
        cells.update({(1, 0, 1, wl): gain for wl in WAVELENGTHS})
        table = manual_table(2, 2, cells)
        assignment = {0: Candidate(0, 0, 3, R, 0.0), 1: Candidate(1, 1, 0, R, 0.0)}
        assert sinr_db(SinrModel(table), 0, assignment) < 0.0

    def test_out_of_fov_interferer_is_harmless(self):
        gain = 1.334e-6
        cells = {(0, 3, 0, wl): gain for wl in WAVELENGTHS}
        cells[(1, 0, 1, R)] = 1e-6  # interferer visible to its own user only
        table = manual_table(2, 2, cells)
        both = {0: Candidate(0, 0, 3, R, 0.0), 1: Candidate(1, 1, 0, R, 0.0)}
        alone_table, alone = isolated_assignment(gain)
        # user 0 sees zero gain from AP 2, so the co-channel user changes nothing
        assert sinr_db(SinrModel(table), 0, both) == pytest.approx(
            sinr_db(SinrModel(alone_table), 0, alone), abs=1e-12)

    def test_zero_signal_gain_sentinel(self):
        table = manual_table(1, 1, {(0, 0, 0, R): 0.0})
        own = Candidate(0, 0, 0, R, 0.0)
        assert SinrModel(table).sinr_linear(0, own, [own]) == 0.0

    def test_interferer_strictly_decreases_and_removal_recovers(self):
        gain = 1.334e-6
        cells = {(0, 3, 0, wl): gain for wl in WAVELENGTHS}
        cells[(0, 3, 1, R)] = 2e-7   # weak but visible co-channel light
        cells[(1, 0, 1, R)] = 1e-6
        table = manual_table(2, 2, cells)
        both = {0: Candidate(0, 0, 3, R, 0.0), 1: Candidate(1, 1, 0, R, 0.0)}
        # removal: same table, interfering pair retired to background
        solo = {0: Candidate(0, 0, 3, R, 0.0)}
        model = SinrModel(table)
        with_int = sinr_db(model, 0, both)
        without = sinr_db(model, 0, solo)
        assert with_int < without
        # background set differs but total current (hence noise) is identical:
        # removal leaves the noise floor alone, retiring the pair's i ** 2 only
        i_sig = model.currents[0][3][0][R.index]
        i_int = model.currents[0][3][1][R.index]
        assert without == 10 * math.log10(i_sig * i_sig / model.sigma2[0][3])
        assert with_int == 10 * math.log10(i_sig * i_sig / (model.sigma2[0][3] + i_int ** 2))

    def test_background_enters_noise_only(self):
        gain = 1.334e-6
        cells = {(0, 3, 0, wl): gain for wl in WAVELENGTHS}
        cells[(0, 3, 1, R)] = 5e-7
        cells[(1, 0, 1, R)] = 1e-6
        cells[(1, 0, 1, Y)] = 1e-6
        table = manual_table(2, 2, cells)
        red = {0: Candidate(0, 0, 3, R, 0.0), 1: Candidate(1, 1, 0, R, 0.0)}
        yellow = {0: Candidate(0, 0, 3, R, 0.0), 1: Candidate(1, 1, 0, Y, 0.0)}
        model = SinrModel(table)
        # same radiated field either way, so one noise floor; only the
        # co-wavelength pair adds a term to the denominator
        row = model.terms[0][3][R.index]
        assert row[1 * 4 + R.index] == model.currents[0][3][1][R.index] ** 2 > 0.0
        assert row[1 * 4 + Y.index] == 0.0
        i_sig = model.currents[0][3][0][R.index]
        assert sinr_db(model, 0, yellow) == 10 * math.log10(i_sig * i_sig / model.sigma2[0][3])
        assert sinr_db(model, 0, yellow) > sinr_db(model, 0, red)

    def test_crosstalk_knob_adds_leakage_interference(self):
        gain = 1.334e-6
        cells = {(0, 3, 0, wl): gain for wl in WAVELENGTHS}
        cells[(0, 3, 1, Y)] = 5e-7   # other-wavelength modulated light
        cells[(1, 0, 1, Y)] = 1e-6
        table = manual_table(2, 2, cells)
        assignment = {0: Candidate(0, 0, 3, R, 0.0), 1: Candidate(1, 1, 0, Y, 0.0)}
        ideal = SinrModel(table)
        leaky = SinrModel(table, v.ReceiverFrontEnd(crosstalk=0.05))
        assert sinr_db(leaky, 0, assignment) < sinr_db(ideal, 0, assignment)
        # noise is unchanged; only the interference sum grows by (ct*I)^2
        assert leaky.sigma2 == ideal.sigma2
        i_sig = ideal.currents[0][3][0][R.index]
        i_leak = 0.05 * 0.35 * 4.5 * 5e-7
        expected = 10 * math.log10(i_sig**2 / (ideal.sigma2[0][3] + i_leak**2))
        assert sinr_db(leaky, 0, assignment) == pytest.approx(expected, abs=1e-9)

    def test_power_scaling_formula(self):
        gain = 1.0e-6
        cells = {(0, 3, 0, wl): gain for wl in WAVELENGTHS}
        cells[(0, 3, 1, R)] = 3e-7
        cells[(1, 0, 1, R)] = 1e-6
        k = 3.0
        base = manual_table(2, 2, cells)
        fe = DEFAULT_FRONT_END
        scaled = v.GainTable(
            base.user_positions, 4, 2, base.dc, base.bandwidth_hz,
            base.bandwidth_capped, base.delay_spread_s, base.los_blocked,
            np.asarray(base.tx_power_w * k),
        )
        assignment = {0: Candidate(0, 0, 3, R, 0.0), 1: Candidate(1, 1, 0, R, 0.0)}
        seen = SinrModel(base, fe).currents[0][3]  # [ap][wavelength index]
        i_sig, i_int = seen[0][R.index], seen[1][R.index]
        i_tot0 = sum(sum(row) for row in seen)
        expected_lin = (k * i_sig) ** 2 / (
            fe.noise_density_a_rthz**2 * fe.bandwidth_hz
            + 2 * ELECTRON_CHARGE_C * k * i_tot0 * fe.bandwidth_hz
            + k**2 * i_int**2
        )
        assert sinr_db(SinrModel(scaled, fe), 0, assignment) == pytest.approx(10 * math.log10(expected_lin), abs=1e-9)


class TestSinrModelTerms:
    """``SinrModel``'s term table against SINR arithmetic written out here."""

    @staticmethod
    def pow_differs_from_mul(tx_w, resp):
        """A gain whose current i has ``i ** 2 != i * i`` in the last bit."""
        for j in range(100_000):
            gain = 1e-6 * (1.0 + j * 1e-4)
            i = gain * tx_w * resp
            if i ** 2 != i * i:
                return gain
        raise AssertionError("no such gain")

    @pytest.mark.parametrize("crosstalk", [0.0, 0.05])
    @pytest.mark.parametrize("seed", range(4))
    def test_terms_and_sinr_equal_the_formula(self, seed, crosstalk):
        rng = np.random.default_rng(seed + 500)
        n_users, n_aps, n_wl = int(rng.integers(2, 6)), int(rng.integers(2, 5)), len(WAVELENGTHS)
        base = random_gain_table(rng, n_users=n_users, n_aps=n_aps)
        fe = v.ReceiverFrontEnd(crosstalk=crosstalk)
        resp = [fe.responsivity(wl) for wl in WAVELENGTHS]
        dc = base.dc.copy()
        dc[0, 0, 1, 0] = self.pow_differs_from_mul(float(base.tx_power_w[1, 0]), resp[0])
        table = v.GainTable(base.user_positions, 4, n_aps, dc, base.bandwidth_hz, base.bandwidth_capped,
                            base.delay_spread_s, base.los_blocked, np.asarray(base.tx_power_w))
        model = SinrModel(table, fe)

        def current(u, b, a, k):
            return float(table.dc[u, b, a, k]) * float(table.tx_power_w[a, k]) * resp[k]

        def term(u, b, k, a, k2):
            i = current(u, b, a, k2)
            if k2 == k:
                return i ** 2
            return (crosstalk * i) * (crosstalk * i) if crosstalk > 0.0 else 0.0

        currents = np.array([[[[current(u, b, a, k) for k in range(n_wl)] for a in range(n_aps)]
                              for b in range(4)] for u in range(n_users)])
        assert model.currents == currents.tolist()
        assert model.sigma2 == v.noise_variance(currents.sum(axis=(2, 3)), fe.bandwidth_hz, fe).tolist()
        planted = current(0, 0, 1, 0)
        assert planted ** 2 != planted * planted
        assert model.terms[0][0][0][1 * n_wl + 0] == planted ** 2
        for u, b, k, a, k2 in itertools.product(range(n_users), range(4), range(n_wl), range(n_aps), range(n_wl)):
            assert model.terms[u][b][k][a * n_wl + k2] == term(u, b, k, a, k2)

        for _ in range(10):
            resources = rng.permutation(n_aps * n_wl)[:n_users]
            entries = {u: Candidate(u, int(r) // n_wl, int(rng.integers(4)), WAVELENGTHS[int(r) % n_wl], 0.0)
                       for u, r in enumerate(resources)}
            for u, own in entries.items():
                k = own.wavelength.index
                i_sig = current(u, own.branch, own.ap, k)
                denom = model.sigma2[u][own.branch]
                for other in entries.values():
                    if other is not own:
                        denom += term(u, own.branch, k, other.ap, other.wavelength.index)
                lin = i_sig * i_sig / denom if i_sig > 0.0 else 0.0
                assert model.sinr_linear(u, own, entries.values()) == lin
                expected_db = 10.0 * math.log10(lin) if lin > 0.0 else float("-inf")
                if expected_db >= FEC_FLOOR_DB:
                    assert model.link_report(u, entries).sinr_db == expected_db
                else:  # no signal or below the FEC floor: no report
                    with pytest.raises(ValueError):
                        model.link_report(u, entries)


    def test_b1_crosstalk_reports_equal_the_formula(self, tmp_path):
        # the reports of a preset run under crosstalk, against SINRs summed here
        x = 0.05
        config = v.preset_config("B", 1, max_order=1, front_end=v.ReceiverFrontEnd(crosstalk=x),
                                 out_dir=str(tmp_path))
        result = v.run_experiment(config, echo=None)
        model = SinrModel(result.table, config.front_end)
        entries = result.assignment.entries
        leaked = 0.0
        for report in result.reports:
            own = entries[report.user]
            seen = model.currents[report.user][own.branch]  # [ap][wavelength index]
            i_sig = seen[own.ap][own.wavelength.index]
            denom = model.sigma2[report.user][own.branch]
            for other in entries.values():  # entry order
                if other is not own:
                    i = seen[other.ap][other.wavelength.index]
                    if other.wavelength == own.wavelength:
                        denom += i ** 2
                    else:
                        denom += (x * i) * (x * i)
                        leaked += i
            assert report.sinr_db == 10 * math.log10(i_sig * i_sig / denom)
        assert leaked > 0.0  # leaked light reaches the served branches

class TestDataRate:
    def test_above_threshold(self):
        rate, fec = v.data_rate(4.2e9, 18.0)
        assert rate == pytest.approx(6.0e9, rel=1e-12)
        assert not fec

    def test_room_a_upper_band(self):
        rate, fec = v.data_rate(8.5e9, 20.0)
        assert rate == pytest.approx(12.142857e9, rel=1e-6)
        assert not fec

    def test_fec_penalty(self):
        rate, fec = v.data_rate(4.2e9, 12.0)
        assert rate == pytest.approx(6.0e9 * 0.874, rel=1e-12)
        assert fec

    def test_threshold_boundaries(self):
        _, fec_hi = v.data_rate(1e9, FEC_THRESHOLD_DB)
        assert not fec_hi
        _, fec_lo = v.data_rate(1e9, FEC_FLOOR_DB)
        assert fec_lo
        with pytest.raises(UnsupportedLinkError):
            v.data_rate(1e9, FEC_FLOOR_DB - 0.01)

    def test_threshold_matches_q_squared(self):
        assert abs(FEC_THRESHOLD_DB - 10 * math.log10(36.0)) < 0.05

    def test_rejects_zero_bandwidth(self):
        with pytest.raises(ValueError):
            v.data_rate(0.0, 20.0)

    @given(
        bw=st.floats(1e8, 2e10),
        bw2=st.floats(1e8, 2e10),
        s=st.floats(6.0, 40.0),
        s2=st.floats(6.0, 40.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_bandwidth_and_sinr(self, bw, bw2, s, s2):
        lo_bw, hi_bw = sorted((bw, bw2))
        lo_s, hi_s = sorted((s, s2))
        r1, _ = v.data_rate(lo_bw, lo_s)
        r2, _ = v.data_rate(hi_bw, lo_s)
        r3, _ = v.data_rate(lo_bw, hi_s)
        assert r2 >= r1
        assert r3 >= r1


class TestLinkReport:
    def test_composition(self):
        table, assignment = isolated_assignment(1.334e-6)
        table = v.GainTable(
            table.user_positions, 4, 1, table.dc, np.full(table.dc.shape, 6e9),
            table.bandwidth_capped, table.delay_spread_s, table.los_blocked,
            np.asarray(table.tx_power_w),
        )
        report = v.link_report(0, assignment, table)
        assert report.sinr_db == pytest.approx(21.2, abs=0.1)
        assert report.bandwidth_hz == 6e9
        assert report.rate_bps == pytest.approx(6e9 / 0.7, rel=1e-12)
        assert not report.fec_engaged

    def test_zero_gain_assignment_error(self):
        table = manual_table(1, 1, {(0, 0, 0, R): 0.0})
        with pytest.raises(ValueError):
            v.link_report(0, {0: Candidate(0, 0, 0, R, 0.0)}, table)

    def test_fec_window(self):
        # fec engaged exactly when sinr in [6, 15.6)
        for sinr_db, expect in ((21.0, False), (15.6, False), (15.59, True), (6.0, True)):
            _, fec = v.data_rate(5e9, sinr_db)
            assert fec is expect
