import math

import numpy as np
import pytest

import vlcwdma as v
from vlcwdma.channel import (
    DEFAULT_DT_S,
    DEFAULT_F_CAP_HZ,
    SPEED_OF_LIGHT_M_S,
    ImpulseResponse,
    bandwidth_3db_flagged,
    metrics_from_response,
)
from vlcwdma.geometry import Vec3
from vlcwdma.scene import AccessPointSpec, BranchSpec, Wavelength, default_branches

BR45, BR135, BR225, BR315 = default_branches()
WIDE_ZENITH = BranchSpec(azimuth_deg=0.0, elevation_deg=90.0, fov_deg=85.0)
ZENITH = BranchSpec(azimuth_deg=0.0, elevation_deg=90.0)


def los_closed_form(ap_pos, ap_normal, m, rx, bn, fov_deg, area):
    """Independent evaluation of the Lambertian LOS formula."""
    vx = [rx[i] - ap_pos[i] for i in range(3)]
    d = math.sqrt(sum(c * c for c in vx))
    u = [c / d for c in vx]
    cos_phi = sum(u[i] * ap_normal[i] for i in range(3))
    cos_theta = sum(-u[i] * bn[i] for i in range(3))
    if cos_phi <= 0.0 or cos_theta < math.cos(math.radians(fov_deg)):
        return 0.0, d / SPEED_OF_LIGHT_M_S
    g = (m + 1.0) / (2.0 * math.pi * d * d) * area * cos_phi**m * cos_theta
    return g, d / SPEED_OF_LIGHT_M_S


class TestLosContribution:
    def test_offset_receiver_branch_315(self):
        ap = AccessPointSpec(position=Vec3(1.0, 1.0, 3.0))
        gain, delay = v.los_contribution(ap, Vec3(0.5, 1.5, 1.0), BR315)
        assert gain == pytest.approx(1.334e-6, rel=5e-4)
        assert delay == pytest.approx(7.08e-9, rel=1e-3)

    def test_fov_gating_returns_exact_zero(self):
        # same geometry seen by the opposite branch: incidence 27.6 deg > 25
        ap = AccessPointSpec(position=Vec3(1.0, 1.0, 3.0))
        gain, _ = v.los_contribution(ap, Vec3(0.5, 1.5, 1.0), BR45)
        assert gain == 0.0

    def test_nadir_receiver_zenith_branch(self):
        ap = AccessPointSpec(position=Vec3(1.0, 1.0, 3.0))
        gain, _ = v.los_contribution(ap, Vec3(1.0, 1.0, 1.0), ZENITH)
        assert gain == pytest.approx(2.0 / (2.0 * math.pi * 4.0) * 20e-6, rel=1e-12)

    def test_coincident_positions_error(self):
        ap = AccessPointSpec(position=Vec3(1.0, 1.0, 3.0))
        with pytest.raises(ValueError):
            v.los_contribution(ap, Vec3(1.0, 1.0, 3.0), BR45)

    def test_closed_form_on_random_geometries(self):
        rng = np.random.default_rng(7)
        n_checked = 0
        for trial in range(50):
            ap_xy = rng.uniform(0.5, 3.5, size=2)
            ap = AccessPointSpec(position=Vec3(ap_xy[0], ap_xy[1], 3.0))
            rx = Vec3(*rng.uniform(0.2, 3.8, size=2), rng.uniform(0.5, 1.5))
            if trial % 2 == 0:
                az = rng.uniform(0.0, 360.0)  # arbitrary pointing, FOV often gates
            else:
                # roughly AP-facing so the formula itself gets exercised
                to_ap = math.degrees(math.atan2(ap_xy[1] - rx.y, ap_xy[0] - rx.x))
                az = (to_ap + rng.uniform(-25.0, 25.0)) % 360.0
            branch = BranchSpec(
                azimuth_deg=az,
                elevation_deg=rng.uniform(40.0, 90.0),
                fov_deg=rng.uniform(15.0, 60.0),
            )
            bn = branch.normal
            expected, exp_delay = los_closed_form(
                (ap_xy[0], ap_xy[1], 3.0), (0.0, 0.0, -1.0), 1.0,
                (rx.x, rx.y, rx.z), (bn.x, bn.y, bn.z), branch.fov_deg, branch.area_m2,
            )
            gain, delay = v.los_contribution(ap, rx, branch)
            if expected == 0.0:
                assert gain == 0.0
            else:
                assert gain == pytest.approx(expected, rel=1e-12)
                n_checked += 1
            assert delay == pytest.approx(exp_delay, rel=1e-12)
        assert n_checked >= 20  # most random geometries must exercise the formula


class TestImpulseResponse:
    def test_los_only_single_bin(self, single_ap_scene):
        ap = single_ap_scene.room.aps[0]
        ir = v.impulse_response(single_ap_scene, ap, Vec3(0.5, 1.5, 1.0), BR315,
                                Wavelength.RED, max_order=0)
        nz = np.nonzero(ir.bins)[0]
        assert nz.size == 1
        gain, delay = v.los_contribution(ap, Vec3(0.5, 1.5, 1.0), BR315)
        assert ir.bins[nz[0]] == pytest.approx(gain, rel=1e-15)
        assert ir.times[nz[0]] == pytest.approx(delay, abs=DEFAULT_DT_S / 2)

    def test_order_monotonicity(self, scene_b):
        ap = scene_b.room.aps[0]
        gains = [
            v.dc_gain(v.impulse_response(scene_b, ap, Vec3(2.0, 2.0, 1.0), WIDE_ZENITH,
                                         Wavelength.RED, max_order=k))
            for k in (0, 1, 2)
        ]
        assert gains[0] <= gains[1] <= gains[2]
        assert gains[2] > gains[1] > gains[0]  # reflections genuinely contribute here

    def test_order1_matches_brute_force_oracle(self, scene_b):
        # independent python double loop over the first-order elements
        ap = scene_b.room.aps[0]
        rx = np.array([2.0, 2.0, 1.0])
        es = scene_b.elements(1)
        bn = np.array([0.0, 0.0, 1.0])
        cos_fov = math.cos(math.radians(WIDE_ZENITH.fov_deg))
        rho_red = {0: 0.3, 1: 0.8, 2: 0.8, 3: 0.8, 4: 0.8, 5: 0.8}
        total = 0.0
        for i in range(len(es)):
            c, n, dA = es.centers[i], es.normals[i], es.areas[i]
            v1 = c - np.array([1.0, 1.0, 3.0])
            d1 = math.sqrt(float(v1 @ v1))
            cphi = -v1[2] / d1
            cin = float(-(v1 / d1) @ n)
            if cphi <= 0.0 or cin <= 0.0:
                continue
            w = rx - c
            d2 = math.sqrt(float(w @ w))
            cout = float((w / d2) @ n)
            cdet = float((-(w / d2)) @ bn)
            if cout <= 0.0 or cdet < cos_fov:
                continue
            total += (
                2.0 / (2.0 * math.pi * d1 * d1) * cphi * cin * dA
                * rho_red[int(es.surface_index[i])]
                * cout / (math.pi * d2 * d2) * 20e-6 * cdet
            )
        ir1 = v.impulse_response(scene_b, ap, Vec3(2.0, 2.0, 1.0), WIDE_ZENITH,
                                 Wavelength.RED, max_order=1)
        ir0 = v.impulse_response(scene_b, ap, Vec3(2.0, 2.0, 1.0), WIDE_ZENITH,
                                 Wavelength.RED, max_order=0)
        increment = v.dc_gain(ir1) - v.dc_gain(ir0)
        assert increment == pytest.approx(total, rel=1e-12)
        # frozen oracle value for this geometry at the default grids
        assert increment == pytest.approx(1.3218796763806995e-07, rel=1e-9)

    def test_narrow_zenith_sees_nothing_here(self, scene_b):
        # AP at 35 deg off zenith and first-bounce-dark ceiling: exact zero
        ir = v.impulse_response(scene_b, scene_b.room.aps[0], Vec3(2.0, 2.0, 1.0),
                                ZENITH, Wavelength.RED, max_order=1)
        assert v.dc_gain(ir) == 0.0

    def test_rejects_foreign_ap(self, scene_b):
        stranger = AccessPointSpec(position=Vec3(2.0, 2.0, 3.0))
        with pytest.raises(ValueError):
            v.impulse_response(scene_b, stranger, Vec3(2.0, 2.0, 1.0), BR45, Wavelength.RED)

    def test_bins_nonnegative(self, scene_b):
        ir = v.impulse_response(scene_b, scene_b.room.aps[0], Vec3(0.5, 1.5, 1.0), BR315,
                                Wavelength.RED, max_order=2)
        assert np.all(ir.bins >= 0.0)


class TestDcGain:
    def test_single_bin(self):
        ir = ImpulseResponse(dt=DEFAULT_DT_S, t0=0.0, bins=np.array([1.334e-6]))
        assert v.dc_gain(ir) == pytest.approx(1.334e-6)

    def test_all_zero(self):
        ir = ImpulseResponse(dt=DEFAULT_DT_S, t0=0.0, bins=np.zeros(4))
        assert v.dc_gain(ir) == 0.0

    def test_two_bins(self):
        ir = ImpulseResponse(dt=DEFAULT_DT_S, t0=0.0, bins=np.array([1e-6, 2.5e-7]))
        assert v.dc_gain(ir) == pytest.approx(1.25e-6)

    def test_negative_bins_rejected(self):
        with pytest.raises(ValueError):
            ImpulseResponse(dt=DEFAULT_DT_S, t0=0.0, bins=np.array([1e-6, -1e-9]))


class TestBandwidth:
    def test_single_impulse_returns_cap(self):
        ir = ImpulseResponse(dt=DEFAULT_DT_S, t0=0.0, bins=np.array([1e-6]))
        bw, capped = bandwidth_3db_flagged(ir)
        assert bw == DEFAULT_F_CAP_HZ
        assert capped

    def test_two_path_closed_form(self):
        # equal impulses tau apart: |H|^2 = cos^2(pi f tau), -3 dB at 1/(4 tau)
        for k_bins in (2, 4, 8):
            tau = k_bins * DEFAULT_DT_S
            bins = np.zeros(k_bins + 1)
            bins[0] = bins[-1] = 1.0
            ir = ImpulseResponse(dt=DEFAULT_DT_S, t0=0.0, bins=bins)
            bw, capped = bandwidth_3db_flagged(ir)
            grid_step = 1.0 / (2048 * DEFAULT_DT_S)
            assert not capped
            assert abs(bw - 1.0 / (4.0 * tau)) <= grid_step

    def test_custom_cap(self):
        ir = ImpulseResponse(dt=DEFAULT_DT_S, t0=0.0, bins=np.array([1e-6]))
        assert bandwidth_3db_flagged(ir, f_cap=5e9)[0] == 5e9

    def test_zero_gain_error(self):
        ir = ImpulseResponse(dt=DEFAULT_DT_S, t0=0.0, bins=np.zeros(3))
        with pytest.raises(ValueError):
            bandwidth_3db_flagged(ir)[0]

    def test_grid_resolution(self):
        # transform grid must resolve 10 MHz even for short responses
        ir = ImpulseResponse(dt=DEFAULT_DT_S, t0=0.0, bins=np.array([1.0, 0.9]))
        n_min = int(np.ceil(1.0 / (10e6 * DEFAULT_DT_S)))
        assert n_min <= 2048


class TestEffectiveBandwidth:
    def test_single_impulse_reports_cap(self):
        ir = ImpulseResponse(dt=DEFAULT_DT_S, t0=0.0, bins=np.array([1e-6]))
        m = metrics_from_response(ir)
        bw, capped = m.bandwidth_hz, m.bandwidth_capped
        assert bw == DEFAULT_F_CAP_HZ and capped

    def test_two_path_spectral_limit_wins(self):
        # two equal paths: spectral crossing 1/(4 tau) is far below 0.3/D
        bins = np.zeros(3)
        bins[0] = bins[2] = 1.0
        ir = ImpulseResponse(dt=DEFAULT_DT_S, t0=0.0, bins=bins)
        tau = 2 * DEFAULT_DT_S
        assert metrics_from_response(ir).bandwidth_hz == pytest.approx(bandwidth_3db_flagged(ir)[0], rel=1e-12)
        assert metrics_from_response(ir).bandwidth_hz == pytest.approx(1 / (4 * tau), rel=1e-2)

    def test_los_dominated_dispersion_limit_wins(self):
        # strong first bin plus a faint long tail: flat spectrum, finite spread
        bins = np.zeros(400)
        bins[0] = 1e-6
        bins[1:] = 5e-10  # ~20% of LOS: flat spectrum, long dispersion
        ir = ImpulseResponse(dt=DEFAULT_DT_S, t0=0.0, bins=bins)
        assert bandwidth_3db_flagged(ir)[0] == DEFAULT_F_CAP_HZ  # no -3 dB crossing
        expected = 0.3 / v.rms_delay_spread(ir)
        m = metrics_from_response(ir)
        bw, capped = m.bandwidth_hz, m.bandwidth_capped
        assert not capped
        assert bw == pytest.approx(expected, rel=1e-12)

    def test_dispersion_factor_knob(self):
        bins = np.zeros(400)
        bins[0] = 1e-6
        bins[1:] = 5e-10  # ~20% of LOS: flat spectrum, long dispersion
        ir = ImpulseResponse(dt=DEFAULT_DT_S, t0=0.0, bins=bins)
        b1 = metrics_from_response(ir, dispersion_factor=0.2).bandwidth_hz
        b2 = metrics_from_response(ir, dispersion_factor=0.4).bandwidth_hz
        assert b2 == pytest.approx(2 * b1, rel=1e-12)

    def test_room_links_dispersion_limited(self, scene_b):
        table = v.gain_matrix(scene_b, [Vec3(0.5, 1.5, 1.0)], max_order=2)
        cell = table.metrics(0, 3, 0, Wavelength.RED)  # branch 4 sees AP 1
        assert not cell.los_blocked
        assert not cell.bandwidth_capped
        assert cell.bandwidth_hz == pytest.approx(0.3 / cell.rms_delay_spread_s, rel=1e-9)
        assert cell.bandwidth_hz < DEFAULT_F_CAP_HZ


class TestRmsDelaySpread:
    def test_single_impulse(self):
        ir = ImpulseResponse(dt=DEFAULT_DT_S, t0=5e-9, bins=np.array([1e-6]))
        assert v.rms_delay_spread(ir) == 0.0

    def test_symmetric_two_point(self):
        bins = np.zeros(21)
        bins[0] = bins[20] = 1e-6  # 1 ns apart at 0.05 ns bins
        ir = ImpulseResponse(dt=DEFAULT_DT_S, t0=0.0, bins=bins)
        assert v.rms_delay_spread(ir) == pytest.approx(0.5e-9, rel=1e-12)

    def test_power_squared_weighting(self):
        bins = np.zeros(41)
        bins[0] = 1e-6
        bins[40] = 0.5e-6  # 2 ns later at half power
        ir = ImpulseResponse(dt=DEFAULT_DT_S, t0=0.0, bins=bins)
        # weights P^2: mu = 0.4 ns, D = 0.8 ns
        assert v.rms_delay_spread(ir) == pytest.approx(0.8e-9, rel=1e-12)

    def test_zero_gain_error(self):
        ir = ImpulseResponse(dt=DEFAULT_DT_S, t0=0.0, bins=np.zeros(2))
        with pytest.raises(ValueError):
            v.rms_delay_spread(ir)


class TestGainMatrix:
    def test_cardinality(self, scene_b):
        table = v.gain_matrix(scene_b, [Vec3(2.0, 2.0, 1.0)], max_order=0)
        assert table.dc.shape == (1, 4, 4, 4)
        assert table.dc.size == 64

    def test_wavelength_symmetry_with_flat_reflectivity(self, scene_b):
        table = v.gain_matrix(scene_b, [Vec3(0.5, 1.5, 1.0)], max_order=2)
        for k in range(1, 4):
            assert np.array_equal(table.dc[..., 0], table.dc[..., k])

    def test_mirrored_users(self, scene_b):
        table = v.gain_matrix(scene_b, [Vec3(0.5, 1.5, 1.0), Vec3(3.5, 2.5, 1.0)], max_order=2)
        ap_perm = [3, 2, 1, 0]   # 180-degree rotation about the room center
        br_perm = [2, 3, 0, 1]
        a = table.dc[0]
        b = table.dc[1][np.ix_(br_perm, ap_perm)]
        assert np.array_equal(a > 0, b > 0)
        nz = a > 0
        assert np.max(np.abs(a[nz] - b[nz]) / a[nz]) < 1e-9

    def test_user_outside_room(self, scene_b):
        with pytest.raises(ValueError, match="outside room"):
            v.gain_matrix(scene_b, [Vec3(5.0, 1.0, 1.0)], max_order=0)

    def test_deterministic_across_runs_and_workers(self, scene_b):
        users = [Vec3(0.5, 1.5, 1.0), Vec3(2.5, 2.5, 1.0)]
        t1 = v.gain_matrix(scene_b, users, max_order=2, workers=1)
        t2 = v.gain_matrix(scene_b, users, max_order=2, workers=1)
        t3 = v.gain_matrix(scene_b, users, max_order=2, workers=4)
        assert np.array_equal(t1.dc, t2.dc)
        assert np.array_equal(t1.dc, t3.dc)
        assert np.array_equal(t1.bandwidth_hz, t3.bandwidth_hz)

    def test_convergence_on_element_halving(self, room_b):
        # first-order gain must move < 5% when elements shrink 2x
        coarse = v.discretize(room_b, 0.25, 0.5)
        fine = v.discretize(room_b, 0.125, 0.5)
        ap = room_b.aps[0]
        g = []
        for scene in (coarse, fine):
            ir1 = v.impulse_response(scene, ap, Vec3(2.0, 2.0, 1.0), WIDE_ZENITH,
                                     Wavelength.RED, max_order=1)
            ir0 = v.impulse_response(scene, ap, Vec3(2.0, 2.0, 1.0), WIDE_ZENITH,
                                     Wavelength.RED, max_order=0)
            g.append(v.dc_gain(ir1) - v.dc_gain(ir0))
        assert abs(g[1] - g[0]) / g[0] < 0.05

    def test_element_centred_on_an_ap_traces_without_warnings(self):
        # Room A at 0.2/0.4 m puts order-2 element centres on APs; RuntimeWarnings are errors here
        room = v.standard_room("A")
        scene = v.discretize(room, 0.2, 0.4)
        aps = np.array([ap.position.as_array() for ap in room.aps])
        centres = scene.elements(2).centers
        assert np.any(np.all(np.isclose(centres[:, None, :], aps[None, :, :]), axis=2))
        table = v.gain_matrix(scene, v.scenario_preset("A", 1)[:1], max_order=2)
        assert np.all(np.isfinite(table.dc)) and np.all(table.dc >= 0.0)

    def test_cells_agree_with_impulse_response(self, scene_b):
        # the two entry points build their geometry factors separately
        rx = Vec3(1.3, 2.2, 1.0)
        table = v.gain_matrix(scene_b, [rx], max_order=2)
        for b, branch in enumerate(default_branches()):
            for a, ap in enumerate(scene_b.room.aps):
                for wl in Wavelength:
                    ir = v.impulse_response(scene_b, ap, rx, branch, wl, max_order=2)
                    assert v.dc_gain(ir) == table.dc[0, b, a, wl.index]
                    assert metrics_from_response(ir).bandwidth_hz == table.bandwidth_hz[0, b, a, wl.index]

    def test_metrics_invariants(self, scene_b):
        table = v.gain_matrix(scene_b, [Vec3(0.5, 1.5, 1.0)], max_order=2)
        assert np.all(table.dc >= 0.0)
        assert np.all(table.bandwidth_hz > 0.0)
        assert np.all(table.delay_spread_s >= 0.0)


class TestCsvIO:
    def test_gain_table_round_trip(self, scene_b, tmp_path):
        table = v.gain_matrix(scene_b, [Vec3(0.5, 1.5, 1.0)], max_order=1)
        path = str(tmp_path / "gains.csv")
        table.write_csv(path)
        loaded = v.GainTable.read_csv(path)
        assert np.array_equal(loaded.dc, table.dc)
        assert np.array_equal(loaded.bandwidth_hz, table.bandwidth_hz)
        assert np.array_equal(loaded.tx_power_w, table.tx_power_w)
        assert loaded.scene_fingerprint == table.scene_fingerprint
        assert [(p.x, p.y, p.z) for p in loaded.user_positions] == \
               [(p.x, p.y, p.z) for p in table.user_positions]

    def test_impulse_response_export(self, single_ap_scene, tmp_path):
        ap = single_ap_scene.room.aps[0]
        ir = v.impulse_response(single_ap_scene, ap, Vec3(0.5, 1.5, 1.0), BR315,
                                Wavelength.RED, max_order=0)
        path = tmp_path / "ir.csv"
        v.write_impulse_response_csv(ir, str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "time_s,gain_per_bin"
        assert len(lines) == 1 + ir.bins.size
        t, g = (float(x) for x in lines[1].split(","))
        assert g == ir.bins[0]
