"""Room models: geometry presets, surface discretization, and validation.

A room is a rectangular box with six reflecting surfaces and a set of
ceiling-mounted RYGB access points. Reflection ray tracing works on
per-surface square elements; first- and second-order bounces use
independent element grids so their resolutions can be chosen separately.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, Sequence

import numpy as np

from .geometry import Vec3, branch_normal

# Default transmitter model. The per-LD split sums to the 1.9 W total of a
# single RYGB laser diode; an access point carries a 3x3 unit of them.
DEFAULT_LD_POWER_W = {"R": 0.8, "Y": 0.5, "G": 0.3, "B": 0.3}
DEFAULT_LDS_PER_AP = 9
DEFAULT_LAMBERTIAN_M = 1.0

# Default surface reflectivities, identical across wavelengths.
DEFAULT_WALL_REFLECTIVITY = 0.8
DEFAULT_CEILING_REFLECTIVITY = 0.8
DEFAULT_FLOOR_REFLECTIVITY = 0.3

# Default receiver branch geometry: four narrow-FOV detectors looking up
# and outward at 90-degree azimuth steps.
DEFAULT_BRANCH_AZIMUTHS_DEG = (45.0, 135.0, 225.0, 315.0)
DEFAULT_BRANCH_ELEVATION_DEG = 70.0
DEFAULT_BRANCH_FOV_DEG = 25.0
DEFAULT_PHOTODETECTOR_AREA_M2 = 20e-6

# Element edge lengths for the two bounce orders (accuracy/runtime tradeoff).
DEFAULT_FIRST_ORDER_DX_M = 0.25
DEFAULT_SECOND_ORDER_DX_M = 0.5

AREA_TILING_RTOL = 1e-3  # element areas must tile each surface to 0.1 %


class Wavelength(Enum):
    """The four RYGB channels, in canonical order R < Y < G < B."""

    RED = "R"
    YELLOW = "Y"
    GREEN = "G"
    BLUE = "B"

    def __init__(self, value: str) -> None:
        self.index = len(type(self).__members__)  # position in declaration order

    def __lt__(self, other: "Wavelength") -> bool:
        return self.index < other.index


WAVELENGTHS: tuple[Wavelength, ...] = tuple(Wavelength)


def wavelength_map(values: Mapping, what: str) -> dict[Wavelength, float]:
    """Normalize a {Wavelength|letter: value} mapping to full Wavelength keys."""
    out: dict[Wavelength, float] = {}
    for key, val in values.items():
        wl = key if isinstance(key, Wavelength) else Wavelength(str(key))
        out[wl] = float(val)
    missing = [wl.value for wl in WAVELENGTHS if wl not in out]
    if missing:
        raise ValueError(f"{what} missing wavelengths: {missing}")
    return out


class ConfigError(ValueError):
    """Raised with the complete list of configuration problems."""

    def __init__(self, errors: Sequence[str]):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


SURFACE_IDS = ("floor", "ceiling", "wall_x0", "wall_x1", "wall_y0", "wall_y1")


@dataclass(frozen=True)
class SurfaceSpec:
    """One of the six planes of the room with per-wavelength reflectivity."""

    surface_id: str
    reflectivity: Mapping[Wavelength, float]

    def __post_init__(self) -> None:
        object.__setattr__(self, "reflectivity", wavelength_map(self.reflectivity, f"surface {self.surface_id} reflectivity"))

    def rho(self, wl: Wavelength) -> float:
        return self.reflectivity[wl]

    def violations(self) -> list[str]:
        errs = []
        if self.surface_id not in SURFACE_IDS:
            errs.append(f"unknown surface id {self.surface_id!r}")
        for wl, rho in self.reflectivity.items():
            if not 0.0 <= rho <= 1.0:
                errs.append(f"surface {self.surface_id}: reflectivity out of range for {wl.value}: {rho}")
        return errs


def default_surfaces(
    wall_rho: float = DEFAULT_WALL_REFLECTIVITY,
    ceiling_rho: float = DEFAULT_CEILING_REFLECTIVITY,
    floor_rho: float = DEFAULT_FLOOR_REFLECTIVITY,
) -> tuple[SurfaceSpec, ...]:
    def flat(rho: float) -> dict[Wavelength, float]:
        return {wl: rho for wl in WAVELENGTHS}

    specs = [SurfaceSpec("floor", flat(floor_rho)), SurfaceSpec("ceiling", flat(ceiling_rho))]
    specs += [SurfaceSpec(sid, flat(wall_rho)) for sid in SURFACE_IDS[2:]]
    return tuple(specs)


@dataclass(frozen=True)
class AccessPointSpec:
    """Ceiling-mounted RYGB transmitter unit.

    ``ld_power_w`` is the per-LD optical power of each color; the unit
    aggregates ``ld_count`` diodes, so the transmitted power on a wavelength
    is ``ld_power_w[wl] * ld_count``.
    """

    position: Vec3
    orientation: Vec3 = field(default_factory=lambda: Vec3(0.0, 0.0, -1.0))
    lambertian_m: float = DEFAULT_LAMBERTIAN_M
    ld_power_w: Mapping[Wavelength, float] = field(default_factory=lambda: dict(DEFAULT_LD_POWER_W))
    ld_count: int = DEFAULT_LDS_PER_AP

    def __post_init__(self) -> None:
        object.__setattr__(self, "ld_power_w", wavelength_map(self.ld_power_w, "AP ld_power_w"))

    def power_w(self, wl: Wavelength) -> float:
        """Aggregate transmit power of the unit on one wavelength."""
        return self.ld_power_w[wl] * self.ld_count

    def violations(self, room: "RoomSpec | None" = None) -> list[str]:
        errs = []
        if not 1.0 <= self.lambertian_m < np.inf:  # NaN fails too
            errs.append(f"AP at {self.position}: Lambertian mode m must be >= 1 and finite, got {self.lambertian_m}")
        if self.ld_count < 1:
            errs.append(f"AP at {self.position}: ld_count must be >= 1, got {self.ld_count}")
        for wl, p in self.ld_power_w.items():
            if not 0.0 < p < np.inf:
                errs.append(f"AP at {self.position}: power for {wl.value} must be > 0 and finite, got {p}")
        if not self.orientation.is_unit(tol=1e-6):
            errs.append(f"AP at {self.position}: orientation must be a unit vector")
        if room is not None:
            p = self.position
            if not (0.0 <= p.x <= room.width and 0.0 <= p.y <= room.length):
                errs.append(f"AP outside footprint: ({p.x}, {p.y}, {p.z})")
            if abs(p.z - room.height) > 1e-9:
                errs.append(f"AP at {self.position}: position z must equal room height {room.height}")
        return errs


@dataclass(frozen=True)
class BranchSpec:
    """One detector branch of the angle diversity receiver."""

    azimuth_deg: float
    elevation_deg: float
    fov_deg: float = DEFAULT_BRANCH_FOV_DEG
    area_m2: float = DEFAULT_PHOTODETECTOR_AREA_M2

    def __post_init__(self) -> None:
        if not 0.0 <= self.azimuth_deg < 360.0:
            raise ValueError(f"branch azimuth must be in [0, 360), got {self.azimuth_deg}")
        if not 0.0 < self.elevation_deg <= 90.0:
            raise ValueError(f"branch elevation must be in (0, 90], got {self.elevation_deg}")
        if not 0.0 < self.fov_deg < 90.0:
            raise ValueError(f"branch FOV must be in (0, 90), got {self.fov_deg}")
        if self.area_m2 <= 0.0:
            raise ValueError(f"photodetector area must be > 0, got {self.area_m2}")

    @property
    def normal(self) -> Vec3:
        return branch_normal(self.azimuth_deg, self.elevation_deg)


def default_branches(
    elevation_deg: float = DEFAULT_BRANCH_ELEVATION_DEG,
    fov_deg: float = DEFAULT_BRANCH_FOV_DEG,
    area_m2: float = DEFAULT_PHOTODETECTOR_AREA_M2,
) -> tuple[BranchSpec, ...]:
    return tuple(
        BranchSpec(az, elevation_deg, fov_deg, area_m2) for az in DEFAULT_BRANCH_AZIMUTHS_DEG
    )


@dataclass(frozen=True)
class RoomSpec:
    """Rectangular room with six surfaces and its access points."""

    width: float
    length: float
    height: float
    surfaces: tuple[SurfaceSpec, ...]
    aps: tuple[AccessPointSpec, ...]
    name: str = "custom"

    def surface(self, surface_id: str) -> SurfaceSpec:
        for s in self.surfaces:
            if s.surface_id == surface_id:
                return s
        raise KeyError(surface_id)

    def violations(self) -> list[str]:
        errs = []
        for dim, label in ((self.width, "width"), (self.length, "length"), (self.height, "height")):
            if not 0.0 < dim < np.inf:
                errs.append(f"room {label} must be positive and finite, got {dim}")
        ids = sorted(s.surface_id for s in self.surfaces)
        if ids != sorted(SURFACE_IDS):
            errs.append(f"room must define exactly the 6 surfaces {SURFACE_IDS}, got {ids}")
        for s in self.surfaces:
            errs.extend(s.violations())
        if not self.aps:
            errs.append("room must have at least one access point")
        for ap in self.aps:
            errs.extend(ap.violations(self))
        return errs

    def contains(self, p: Vec3, tol: float = 1e-9) -> bool:
        return (
            -tol <= p.x <= self.width + tol
            and -tol <= p.y <= self.length + tol
            and -tol <= p.z <= self.height + tol
        )


class SceneValidationError(ConfigError):
    """Raised with the complete list of room invariant violations."""


_STANDARD_ROOMS = {
    "A": dict(width=4.0, length=8.0, height=3.0,
              ap_xy=[(1, 1), (1, 3), (1, 5), (1, 7), (3, 1), (3, 3), (3, 5), (3, 7)]),
    "B": dict(width=4.0, length=4.0, height=3.0,
              ap_xy=[(1, 1), (1, 3), (3, 1), (3, 3)]),
    "C": dict(width=2.0, length=8.0, height=3.0,
              ap_xy=[(1, 1), (1, 3), (1, 5), (1, 7)]),
}


def standard_room(room_id: str) -> RoomSpec:
    """Room A (4x8x3 m, 8 APs), B (4x4x3 m, 4 APs) or C (2x8x3 m corridor, 4 APs)."""
    key = str(room_id).upper()
    if key not in _STANDARD_ROOMS:
        raise ValueError(f"unknown standard room {room_id!r}; expected A, B or C")
    geom = _STANDARD_ROOMS[key]
    aps = tuple(
        AccessPointSpec(position=Vec3(float(x), float(y), geom["height"]))
        for x, y in geom["ap_xy"]
    )
    return RoomSpec(
        width=geom["width"],
        length=geom["length"],
        height=geom["height"],
        surfaces=default_surfaces(),
        aps=aps,
        name=key,
    )


class ElementSet:
    """Surface elements of one bounce-order grid, stored as dense arrays.

    Arrays are aligned: ``centers[i]``, ``normals[i]``, ``areas[i]`` and
    ``surface_index[i]`` describe element ``i``. Normals point into the room.
    """

    __slots__ = ("centers", "normals", "areas", "surface_index", "reflectivity")

    def __init__(self, centers, normals, areas, surface_index, reflectivity):
        self.centers = np.asarray(centers, dtype=float)
        self.normals = np.asarray(normals, dtype=float)
        self.areas = np.asarray(areas, dtype=float)
        self.surface_index = np.asarray(surface_index, dtype=int)
        # reflectivity[i, k] for element i at wavelength index k
        self.reflectivity = np.asarray(reflectivity, dtype=float)
        for arr in (self.centers, self.normals, self.areas, self.surface_index, self.reflectivity):
            arr.setflags(write=False)

    def __len__(self) -> int:
        return self.centers.shape[0]

    def area_of_surface(self, surface_pos: int) -> float:
        return float(self.areas[self.surface_index == surface_pos].sum())


def _segments(extent: float, dx: float) -> tuple[np.ndarray, np.ndarray]:
    """1-D tiling of [0, extent] by segments of length dx plus a remainder."""
    n_full = int(np.floor(extent / dx + 1e-12))
    edges = [i * dx for i in range(n_full + 1)]
    if extent - edges[-1] > 1e-12:
        edges.append(extent)
    edges_arr = np.asarray(edges)
    centers = 0.5 * (edges_arr[:-1] + edges_arr[1:])
    widths = np.diff(edges_arr)
    return centers, widths


def _tile_surfaces(room: RoomSpec, dx: float) -> ElementSet:
    W, L, H = room.width, room.length, room.height
    surf_rho = {s.surface_id: [s.rho(wl) for wl in WAVELENGTHS] for s in room.surfaces}

    centers, normals, areas, surf_idx, rhos = [], [], [], [], []

    def add_plane(surface_id: str, u_cents, u_wids, v_cents, v_wids, to_xyz, normal):
        uu, vv = np.meshgrid(u_cents, v_cents, indexing="ij")
        wu, wv = np.meshgrid(u_wids, v_wids, indexing="ij")
        n = uu.size
        centers.append(to_xyz(uu.ravel(), vv.ravel()))
        normals.append(np.tile(normal, (n, 1)))
        areas.append((wu * wv).ravel())
        surf_idx.append(np.full(n, SURFACE_IDS.index(surface_id)))
        rhos.append(np.tile(surf_rho[surface_id], (n, 1)))

    xc, xw = _segments(W, dx)
    yc, yw = _segments(L, dx)
    zc, zw = _segments(H, dx)

    add_plane("floor", xc, xw, yc, yw, lambda u, v: np.column_stack([u, v, np.zeros_like(u)]), (0.0, 0.0, 1.0))
    add_plane("ceiling", xc, xw, yc, yw, lambda u, v: np.column_stack([u, v, np.full_like(u, H)]), (0.0, 0.0, -1.0))
    add_plane("wall_x0", yc, yw, zc, zw, lambda u, v: np.column_stack([np.zeros_like(u), u, v]), (1.0, 0.0, 0.0))
    add_plane("wall_x1", yc, yw, zc, zw, lambda u, v: np.column_stack([np.full_like(u, W), u, v]), (-1.0, 0.0, 0.0))
    add_plane("wall_y0", xc, xw, zc, zw, lambda u, v: np.column_stack([u, np.zeros_like(u), v]), (0.0, 1.0, 0.0))
    add_plane("wall_y1", xc, xw, zc, zw, lambda u, v: np.column_stack([u, np.full_like(u, L), v]), (0.0, -1.0, 0.0))

    return ElementSet(
        np.vstack(centers), np.vstack(normals), np.concatenate(areas),
        np.concatenate(surf_idx), np.vstack(rhos),
    )


@dataclass(frozen=True)
class Scene:
    """Validated, immutable room plus its discretized reflection grids."""

    room: RoomSpec
    first_order_dx: float
    second_order_dx: float
    elements_order1: ElementSet
    elements_order2: ElementSet
    fingerprint: str

    def elements(self, order: int) -> ElementSet:
        if order == 1:
            return self.elements_order1
        if order == 2:
            return self.elements_order2
        raise ValueError(f"no element grid for bounce order {order}")

    def surface_area(self, surface_id: str) -> float:
        W, L, H = self.room.width, self.room.length, self.room.height
        return {"floor": W * L, "ceiling": W * L,
                "wall_x0": L * H, "wall_x1": L * H,
                "wall_y0": W * H, "wall_y1": W * H}[surface_id]


def _fingerprint(room: RoomSpec, dx1: float, dx2: float) -> str:
    h = hashlib.sha256()
    parts = [f"{room.name}|{room.width}|{room.length}|{room.height}|{dx1}|{dx2}"]
    for s in sorted(room.surfaces, key=lambda s: s.surface_id):
        parts.append(s.surface_id + "|" + "|".join(f"{s.rho(wl):.12g}" for wl in WAVELENGTHS))
    for ap in room.aps:
        p, o = ap.position, ap.orientation
        parts.append(
            f"{p.x}|{p.y}|{p.z}|{o.x}|{o.y}|{o.z}|{ap.lambertian_m}|{ap.ld_count}|"
            + "|".join(f"{ap.ld_power_w[wl]:.12g}" for wl in WAVELENGTHS)
        )
    h.update("\n".join(parts).encode())
    return h.hexdigest()[:16]


def discretize(
    room: RoomSpec,
    first_order_dx: float = DEFAULT_FIRST_ORDER_DX_M,
    second_order_dx: float = DEFAULT_SECOND_ORDER_DX_M,
) -> Scene:
    """Tile every surface with square elements, one grid per bounce order.

    Raises SceneValidationError listing every room invariant violation.
    """
    errors = room.violations()
    if errors:
        raise SceneValidationError(errors)
    min_dim = min(room.width, room.length, room.height)
    for dx, label in ((first_order_dx, "first_order_dx"), (second_order_dx, "second_order_dx")):
        if not 0.0 < dx <= min_dim:
            raise ValueError(f"{label} must be in (0, {min_dim}], got {dx}")

    scene = Scene(
        room=room,
        first_order_dx=first_order_dx,
        second_order_dx=second_order_dx,
        elements_order1=_tile_surfaces(room, first_order_dx),
        elements_order2=_tile_surfaces(room, second_order_dx),
        fingerprint=_fingerprint(room, first_order_dx, second_order_dx),
    )
    # tiling sanity: per-surface element areas must add up to the plane area
    for es in (scene.elements_order1, scene.elements_order2):
        for pos, sid in enumerate(SURFACE_IDS):
            tiled = es.area_of_surface(pos)
            true = scene.surface_area(sid)
            if abs(tiled - true) > AREA_TILING_RTOL * true:
                raise SceneValidationError([f"element tiling of {sid} off by more than 0.1%"])
    return scene

