import numpy as np
import pytest

import vlcwdma as v
from vlcwdma.geometry import Vec3
from vlcwdma.scene import (
    SURFACE_IDS,
    AccessPointSpec,
    SceneValidationError,
    Wavelength,
    WAVELENGTHS,
    default_surfaces,
)


class TestStandardRooms:
    def test_room_a(self):
        room = v.standard_room("A")
        assert (room.width, room.length, room.height) == (4.0, 8.0, 3.0)
        assert len(room.aps) == 8
        p = room.aps[0].position
        assert (p.x, p.y, p.z) == (1.0, 1.0, 3.0)

    def test_room_b(self):
        room = v.standard_room("B")
        assert (room.width, room.length, room.height) == (4.0, 4.0, 3.0)
        got = [(ap.position.x, ap.position.y, ap.position.z) for ap in room.aps]
        assert got == [(1, 1, 3), (1, 3, 3), (3, 1, 3), (3, 3, 3)]

    def test_room_c(self):
        room = v.standard_room("C")
        assert (room.width, room.length, room.height) == (2.0, 8.0, 3.0)
        assert len(room.aps) == 4
        assert all(ap.position.x == 1.0 for ap in room.aps)

    def test_unknown_room(self):
        with pytest.raises(ValueError):
            v.standard_room("D")

    def test_presets_validate(self):
        for rid in "ABC":
            scene = v.discretize(v.standard_room(rid))
            assert scene.room.name == rid

    def test_default_power_budget(self):
        ap = v.standard_room("A").aps[0]
        assert sum(ap.ld_power_w.values()) == pytest.approx(1.9)
        assert ap.power_w(Wavelength.RED) == pytest.approx(7.2)
        assert ap.ld_count == 9

    def test_wavelength_canonical_order(self):
        assert len(Wavelength) == 4
        assert sorted(WAVELENGTHS, reverse=True) == [
            Wavelength.BLUE, Wavelength.GREEN, Wavelength.YELLOW, Wavelength.RED]
        assert Wavelength.RED < Wavelength.YELLOW < Wavelength.GREEN < Wavelength.BLUE


class TestDiscretize:
    def test_room_b_wall_tiling(self, room_b):
        # a 4x3 m wall at dx = 0.5 tiles into 8*6 = 48 elements of 0.25 m^2
        scene = v.discretize(room_b, 0.5, 0.5)
        es = scene.elements(1)
        wall = es.surface_index == SURFACE_IDS.index("wall_x0")
        assert wall.sum() == 48
        assert np.allclose(es.areas[wall], 0.25)

    def test_room_a_ceiling_tiling(self):
        scene = v.discretize(v.standard_room("A"), 1.0, 1.0)
        es = scene.elements(1)
        ceil = es.surface_index == SURFACE_IDS.index("ceiling")
        assert ceil.sum() == 32

    def test_rejects_nonpositive_dx(self, room_b):
        with pytest.raises(ValueError):
            v.discretize(room_b, 0.0, 0.5)
        with pytest.raises(ValueError):
            v.discretize(room_b, 0.5, -1.0)

    def test_rejects_dx_above_min_dimension(self, room_b):
        with pytest.raises(ValueError):
            v.discretize(room_b, 3.5, 0.5)

    def test_area_tiling_within_tolerance(self, scene_b):
        for order in (1, 2):
            es = scene_b.elements(order)
            for pos, sid in enumerate(SURFACE_IDS):
                tiled = es.area_of_surface(pos)
                true = scene_b.surface_area(sid)
                assert abs(tiled - true) <= 1e-3 * true

    def test_remainder_elements(self):
        room = v.RoomSpec(4.3, 4.0, 3.0, default_surfaces(),
                          (AccessPointSpec(position=Vec3(1, 1, 3)),), name="odd")
        scene = v.discretize(room, 0.5, 0.5)
        es = scene.elements(1)
        floor = es.surface_index == SURFACE_IDS.index("floor")
        assert es.areas[floor].sum() == pytest.approx(4.3 * 4.0)
        assert es.areas[floor].min() == pytest.approx(0.5 * 0.3)

    def test_deterministic(self, room_b):
        s1 = v.discretize(room_b)
        s2 = v.discretize(room_b)
        for order in (1, 2):
            assert np.array_equal(s1.elements(order).centers, s2.elements(order).centers)
            assert np.array_equal(s1.elements(order).areas, s2.elements(order).areas)
        assert s1.fingerprint == s2.fingerprint

    def test_normals_point_inward(self, room_b, scene_b):
        interior = np.array([room_b.width / 2, room_b.length / 2, room_b.height / 2])
        es = scene_b.elements(1)
        to_interior = interior - es.centers
        dots = np.einsum("ij,ij->i", to_interior, es.normals)
        assert np.all(dots > 0.0)

    def test_orders_independent(self, scene_b):
        assert len(scene_b.elements(1)) > len(scene_b.elements(2))


class TestValidate:
    def test_ap_outside_footprint(self, room_b):
        bad = v.RoomSpec(4.0, 8.0, 3.0, default_surfaces(),
                         (AccessPointSpec(position=Vec3(5.0, 1.0, 3.0)),), name="bad")
        with pytest.raises(SceneValidationError) as exc:
            v.discretize(bad)
        assert any("outside footprint" in e for e in exc.value.errors)

    def test_reflectivity_out_of_range(self):
        rho = {wl: 0.8 for wl in WAVELENGTHS}
        rho[Wavelength.RED] = 1.2
        surfaces = list(default_surfaces())
        surfaces[2] = v.SurfaceSpec("wall_x0", rho)
        bad = v.RoomSpec(4.0, 4.0, 3.0, tuple(surfaces),
                         (AccessPointSpec(position=Vec3(1, 1, 3)),), name="bad")
        with pytest.raises(SceneValidationError) as exc:
            v.discretize(bad)
        assert any("reflectivity out of range" in e for e in exc.value.errors)

    def test_all_violations_reported(self):
        rho = {wl: 1.5 for wl in WAVELENGTHS}
        surfaces = list(default_surfaces())
        surfaces[2] = v.SurfaceSpec("wall_x0", rho)
        bad = v.RoomSpec(-4.0, 4.0, 3.0, tuple(surfaces),
                         (AccessPointSpec(position=Vec3(9.0, 1.0, 3.0)),), name="bad")
        with pytest.raises(SceneValidationError) as exc:
            v.discretize(bad)
        text = "; ".join(exc.value.errors)
        assert "width" in text
        assert "reflectivity" in text
        assert "outside footprint" in text

    def test_ap_z_must_match_height(self):
        bad = v.RoomSpec(4.0, 4.0, 3.0, default_surfaces(),
                         (AccessPointSpec(position=Vec3(1, 1, 2.5)),), name="bad")
        with pytest.raises(SceneValidationError):
            v.discretize(bad)

    def test_scene_immutable(self, scene_b):
        with pytest.raises(Exception):
            scene_b.elements(1).areas[0] = 99.0
