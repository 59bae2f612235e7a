import math

import numpy as np
import pytest

import vlcwdma as v
from vlcwdma import channel
from vlcwdma.channel import (
    DEFAULT_DT_S,
    DEFAULT_F_CAP_HZ,
    SPEED_OF_LIGHT_M_S,
    ImpulseResponse,
    bandwidth_3db_flagged,
    metrics_from_response,
)
from vlcwdma.geometry import Vec3
from vlcwdma.scene import AccessPointSpec, BranchSpec, SurfaceSpec, Wavelength, default_branches

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


def dense_transfer(scene):
    """Element-to-element transfer and distances, evaluated on all N x N pairs at once."""
    es = scene.elements(2)
    diff = es.centers[None, :, :] - es.centers[:, None, :]
    d = np.linalg.norm(diff, axis=2)
    np.fill_diagonal(d, np.inf)
    cos_out = np.einsum("ijk,ik->ij", diff, es.normals) / d
    cos_in = -np.einsum("ijk,jk->ij", diff, es.normals) / d
    T = np.where((cos_out > 0.0) & (cos_in > 0.0), cos_out * cos_in * es.areas[None, :] / (np.pi * d * d), 0.0)
    return T, np.where(np.isinf(d), 0.0, d)


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


class TestTransferMatrix:
    @pytest.mark.parametrize("block_rows", [None, 7])
    def test_blocks_equal_the_dense_formula(self, scene_b, monkeypatch, block_rows):
        if block_rows is not None:
            monkeypatch.setattr(channel, "_BLOCK_ROWS", block_rows)
        n = scene_b.elements(2).areas.size
        assert n % channel._BLOCK_ROWS != 0   # the last block is partial
        every = np.arange(n)
        T, D = channel._transfer_matrix(scene_b, every, every)
        T_dense, D_dense = dense_transfer(scene_b)
        assert np.array_equal(T, T_dense)
        assert np.array_equal(D, D_dense)
        assert np.all(np.diag(T) == 0.0) and np.all(np.diag(D) == 0.0)

    @pytest.mark.parametrize("block_rows", [None, 7])
    def test_restricted_sets_equal_the_dense_submatrix(self, scene_b, monkeypatch, block_rows):
        if block_rows is not None:
            monkeypatch.setattr(channel, "_BLOCK_ROWS", block_rows)
        n = scene_b.elements(2).areas.size
        rows = np.arange(0, n, 3)
        cols = np.arange(n // 4, n, 2)           # overlaps rows on every sixth element
        shared = np.intersect1d(rows, cols)
        assert shared.size and rows.size % channel._BLOCK_ROWS != 0
        T, D = channel._transfer_matrix(scene_b, rows, cols)
        T_dense, D_dense = dense_transfer(scene_b)
        assert np.array_equal(T, T_dense[np.ix_(rows, cols)])
        assert np.array_equal(D, D_dense[np.ix_(rows, cols)])
        self_pairs = (np.searchsorted(rows, shared), np.searchsorted(cols, shared))
        assert np.all(T[self_pairs] == 0.0) and np.all(D[self_pairs] == 0.0)

    def test_empty_column_set(self, scene_b):
        rows = np.arange(10)
        T, D = channel._transfer_matrix(scene_b, rows, np.arange(0))
        assert T.shape == D.shape == (10, 0)

    def test_impulse_response_traces_only_its_own_pairs(self, scene_b, monkeypatch):
        ap, rx = scene_b.room.aps[0], Vec3(1.3, 2.2, 1.0)
        build = channel._transfer_matrix
        asked = []

        def spy(scene, rows, cols):
            asked.append((rows.size, cols.size))
            return build(scene, rows, cols)

        monkeypatch.setattr(channel, "_transfer_matrix", spy)
        v.impulse_response(scene_b, ap, rx, BR45, Wavelength.RED, max_order=2)
        E, _ = channel._ap_illumination(scene_b, ap, 2)
        R, _ = channel._receiver_capture(scene_b, rx.as_array(), BR45, 2)
        n = scene_b.elements(2).areas.size
        assert asked == [(np.count_nonzero(E > 0.0), np.count_nonzero(R > 0.0))]
        assert asked[0][0] * asked[0][1] < n * n


def box_tiles(width, length, height, dx, rho):
    """(centre, inward normal, reflectivity) of each dx-square tile of a box, built by hand."""
    def mids(extent):
        return [(i + 0.5) * dx for i in range(round(extent / dx))]
    tiles = []
    for x in mids(width):
        for y in mids(length):
            tiles += [((x, y, 0.0), (0.0, 0.0, 1.0), rho["floor"]),
                      ((x, y, height), (0.0, 0.0, -1.0), rho["ceiling"])]
    for z in mids(height):
        for y in mids(length):
            tiles += [((0.0, y, z), (1.0, 0.0, 0.0), rho["wall"]),
                      ((width, y, z), (-1.0, 0.0, 0.0), rho["wall"])]
        for x in mids(width):
            tiles += [((x, 0.0, z), (0.0, 1.0, 0.0), rho["wall"]),
                      ((x, length, z), (0.0, -1.0, 0.0), rho["wall"])]
    return tiles


def order2_oracle(tiles, area, ap_pos, m, rx, bn, fov_deg, pd_area, dt):
    """Order-2 bins {bin: gain} of a downward AP, by a pure-Python loop over
    AP -> tile -> tile -> detector chains, one reflectivity per bounce."""
    def sub(a, b):
        return (a[0] - b[0], a[1] - b[1], a[2] - b[2])

    def dot(a, b):
        return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]

    cos_fov = math.cos(math.radians(fov_deg))
    bins = {}
    for c1, n1, rho1 in tiles:
        v1 = sub(c1, ap_pos)
        d1 = math.sqrt(dot(v1, v1))
        cos_phi, cos_in1 = -v1[2] / d1, -dot(v1, n1) / d1
        if cos_phi <= 0.0 or cos_in1 <= 0.0:
            continue
        first = (m + 1.0) / (2.0 * math.pi * d1 * d1) * cos_phi**m * cos_in1 * area
        for c2, n2, rho2 in tiles:
            if c2 == c1:
                continue
            v12 = sub(c2, c1)
            d12 = math.sqrt(dot(v12, v12))
            cos_out1, cos_in2 = dot(v12, n1) / d12, -dot(v12, n2) / d12
            w = sub(rx, c2)
            d2 = math.sqrt(dot(w, w))
            cos_out2, cos_det = dot(w, n2) / d2, -dot(w, bn) / d2
            if cos_out1 <= 0.0 or cos_in2 <= 0.0 or cos_out2 <= 0.0 or cos_det < cos_fov:
                continue
            gain = (first * rho1 * cos_out1 * cos_in2 * area / (math.pi * d12 * d12)
                    * rho2 * cos_out2 * pd_area * cos_det / (math.pi * d2 * d2))
            k = round(((d1 + d12) + d2) / SPEED_OF_LIGHT_M_S / dt)  # the kernel's summation order
            bins[k] = bins.get(k, 0.0) + gain
    return bins


def absolute_bins(ir, n):
    """``ir``'s bins placed at their absolute indices t / dt in an array of length n."""
    out = np.zeros(n)
    start = round(ir.t0 / ir.dt)
    out[start:start + ir.bins.size] = ir.bins
    return out


class TestOrder2Oracle:
    @pytest.mark.parametrize("branch", [WIDE_ZENITH, ZENITH])
    def test_order2_matches_brute_force_oracle(self, room_b, branch):
        # Room B at 1 m: 80 tiles per order. WIDE_ZENITH sees LOS, order 1 and order 2;
        # ZENITH sees only ceiling tiles, which only order 2 reaches
        scene = v.discretize(room_b, 1.0, 1.0)
        tiles = box_tiles(4.0, 4.0, 3.0, 1.0, {"floor": 0.3, "ceiling": 0.8, "wall": 0.8})
        assert len(tiles) == scene.elements(2).areas.size == 80
        ap, rx = room_b.aps[0], (2.0, 2.0, 1.0)
        oracle = order2_oracle(tiles, 1.0, (1.0, 1.0, 3.0), 1.0, rx, (0.0, 0.0, 1.0),
                               branch.fov_deg, branch.area_m2, DEFAULT_DT_S)
        ir1, ir2 = (v.impulse_response(scene, ap, Vec3(*rx), branch, Wavelength.RED, max_order=k)
                    for k in (1, 2))
        increment = v.dc_gain(ir2) - v.dc_gain(ir1)
        assert increment == pytest.approx(math.fsum(oracle.values()), rel=1e-12)
        n = max(round(ir2.t0 / ir2.dt) + ir2.bins.size, max(oracle) + 1)
        total = absolute_bins(ir2, n)
        expected = np.zeros(n)
        expected[list(oracle)] = list(oracle.values())
        # order 2 is the last term added to each bin; the subtraction rounds by at most one ulp
        per_bin = total - absolute_bins(ir1, n)
        assert np.all(np.abs(per_bin - expected) <= 1e-12 * expected + np.spacing(total))
        if branch is ZENITH:
            assert v.dc_gain(ir1) == 0.0 and len(oracle) > 1

    def test_enclosure_rule(self, room_b):
        # view factors from one tile to all others, and an AP's first-hop fractions, sum to 1
        # in a closed room (Siegel & Howell). The midpoint rule's excess falls about 4.2x per
        # halving in the median; next to a perpendicular surface it does not converge
        excess = []
        for dx in (0.5, 0.25):
            scene = v.discretize(room_b, dx, dx)
            every = np.arange(scene.elements(2).areas.size)
            T, _ = channel._transfer_matrix(scene, every, every)
            rows = T.sum(axis=1)
            assert rows.max() <= 1.24   # corner tiles: 1.2394 at 0.5 m, 1.2385 at 0.25 m
            first_hop = channel._ap_illumination(scene, room_b.aps[0], 2)[0].sum()
            excess.append((np.median(rows) - 1.0, first_hop - 1.0))
        (row_coarse, ap_coarse), (row_fine, ap_fine) = excess
        assert row_fine > 0.0 and ap_fine > 0.0
        assert row_coarse >= 3.0 * row_fine and ap_coarse >= 3.0 * ap_fine


def floor_scene(r, y, g, b):
    floor = SurfaceSpec("floor", {Wavelength.RED: r, Wavelength.YELLOW: y,
                                  Wavelength.GREEN: g, Wavelength.BLUE: b})
    surfaces = (floor,) + tuple(s for s in v.default_surfaces() if s.surface_id != "floor")
    aps = (AccessPointSpec(position=Vec3(1.0, 1.0, 3.0)), AccessPointSpec(position=Vec3(3.0, 3.0, 3.0)))
    return v.discretize(v.RoomSpec(4.0, 4.0, 3.0, surfaces, aps))


class TestReflectivityClasses:
    # a low, wide branch sees the floor at order 1; the default one only by a second bounce
    BRANCHES = (BR45, BranchSpec(azimuth_deg=0.0, elevation_deg=10.0, fov_deg=85.0))
    RHO = {Wavelength.RED: 0.3, Wavelength.YELLOW: 0.3, Wavelength.GREEN: 0.5, Wavelength.BLUE: 0.1}

    def test_classes_follow_the_traced_element_sets(self, scene_b):
        scene = floor_scene(*self.RHO.values())
        assert channel._reflectivity_classes(scene, 0) == [[0, 1, 2, 3]]
        assert channel._reflectivity_classes(scene, 1) == [[0, 1], [2], [3]]
        assert channel._reflectivity_classes(scene, 2) == [[0, 1], [2], [3]]
        assert channel._reflectivity_classes(scene_b, 2) == [[0, 1, 2, 3]]

    @pytest.mark.parametrize("max_order", [1, 2])
    def test_cells_equal_impulse_response_per_wavelength(self, max_order):
        scene = floor_scene(*self.RHO.values())
        rx = Vec3(1.3, 2.2, 1.0)
        table = v.gain_matrix(scene, [rx], max_order=max_order, branches=self.BRANCHES)
        for b, branch in enumerate(self.BRANCHES):
            for a, ap in enumerate(scene.room.aps):
                for wl in Wavelength:
                    ir = v.impulse_response(scene, ap, rx, branch, wl, max_order=max_order)
                    assert v.dc_gain(ir) == table.dc[0, b, a, wl.index]
                    assert metrics_from_response(ir).bandwidth_hz == table.bandwidth_hz[0, b, a, wl.index]
        red, yellow, green, blue = (wl.index for wl in self.RHO)
        for arr in (table.dc, table.bandwidth_hz, table.delay_spread_s):
            assert np.array_equal(arr[..., red], arr[..., yellow])
        assert not np.array_equal(table.dc[..., green], table.dc[..., blue])

    @pytest.mark.parametrize("max_order", [1, 2])
    def test_each_class_equals_a_flat_floor_of_its_reflectivity(self, max_order):
        # a single-class scene traces the same products, so each column matches bit for bit
        rx = Vec3(1.3, 2.2, 1.0)
        table = v.gain_matrix(floor_scene(*self.RHO.values()), [rx], max_order=max_order,
                              branches=self.BRANCHES)
        for wl, rho in self.RHO.items():
            flat = v.gain_matrix(floor_scene(rho, rho, rho, rho), [rx], max_order=max_order,
                                 branches=self.BRANCHES)
            assert np.array_equal(table.dc[..., wl.index], flat.dc[..., 0])
            assert np.array_equal(table.bandwidth_hz[..., wl.index], flat.bandwidth_hz[..., 0])


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
        for other in (t2, t3):
            for name in ("dc", "bandwidth_hz", "bandwidth_capped", "delay_spread_s", "los_blocked"):
                assert np.array_equal(getattr(t1, name), getattr(other, name)), name

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

    def test_first_bounce_irradiance_converges_at_dx_squared(self):
        # one AP's light all lands on the room's surfaces: the element sum tends to 1 at O(dx^2)
        room = v.standard_room("A")
        sums = [channel._ap_illumination(v.discretize(room, dx, 0.5), room.aps[0], 1)[0].sum()
                for dx in (0.5, 0.25, 0.125)]
        errors = [abs(s - 1.0) for s in sums]
        for coarse, fine in zip(errors, errors[1:]):
            assert 3.5 <= coarse / fine <= 4.5
        assert errors[-1] < 1e-3

    def test_element_centred_on_an_ap_traces_without_warnings(self):
        # Room A at 0.2/0.4 m puts order-2 element centres on APs; RuntimeWarnings are errors here
        room = v.standard_room("A")
        scene = v.discretize(room, 0.2, 0.4)
        aps = np.array([ap.position.as_array() for ap in room.aps])
        centres = scene.elements(2).centers
        assert np.any(np.all(np.isclose(centres[:, None, :], aps[None, :, :]), axis=2))
        table = v.gain_matrix(scene, v.scenario_preset("A", 1)[:1], max_order=2)
        assert np.all(np.isfinite(table.dc)) and np.all(table.dc >= 0.0)

    def test_receiver_on_an_element_centre_traces_without_warnings(self, scene_b):
        # Room B at 0.25 m puts a floor element's centre at (0.125, 0.125, 0); RuntimeWarnings are errors here
        rx = Vec3(0.125, 0.125, 0.0)
        assert np.any(np.all(np.isclose(scene_b.elements(1).centers, rx.as_array()), axis=1))
        table = v.gain_matrix(scene_b, [rx], max_order=2)
        assert np.all(np.isfinite(table.dc)) and np.all(table.dc >= 0.0)
        R, dr = channel._receiver_capture(scene_b, rx.as_array(), default_branches()[0], 1)
        assert np.all(R[dr == 0.0] == 0.0)

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

    def test_ap_lighting_fewer_elements_agrees_with_impulse_response(self):
        # a tilted AP leaves the wall behind it dark, so it lights a strict subset of the rows
        tilt = math.radians(60.0)
        tilted = AccessPointSpec(position=Vec3(2.0, 2.0, 3.0),
                                 orientation=Vec3(math.sin(tilt), 0.0, -math.cos(tilt)))
        room = v.RoomSpec(4.0, 4.0, 3.0, v.default_surfaces(),
                          (AccessPointSpec(position=Vec3(1.0, 1.0, 3.0)), tilted))
        scene = v.discretize(room)
        lit = [np.count_nonzero(channel._ap_illumination(scene, ap, 2)[0] > 0.0) for ap in room.aps]
        assert lit[1] < lit[0]
        rx = Vec3(1.3, 2.2, 1.0)
        table = v.gain_matrix(scene, [rx], max_order=2)
        for b, branch in enumerate(default_branches()):
            for a, ap in enumerate(room.aps):
                ir = v.impulse_response(scene, ap, rx, branch, Wavelength.RED, max_order=2)
                assert v.dc_gain(ir) == table.dc[0, b, a, 0]
                assert metrics_from_response(ir).bandwidth_hz == table.bandwidth_hz[0, b, a, 0]

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
