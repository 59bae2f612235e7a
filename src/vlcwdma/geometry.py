"""Small 3-D vector type and detector-pointing helpers."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

UNIT_LENGTH_TOL = 1e-9


@dataclass(frozen=True)
class Vec3:
    """Point or direction in room coordinates, metres (unitless when normalized)."""

    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        for v in (self.x, self.y, self.z):
            if not math.isfinite(v):
                raise ValueError(f"Vec3 components must be finite, got {(self.x, self.y, self.z)}")

    def __add__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x - other.x, self.y - other.y, self.z - other.z)

    def scaled(self, k: float) -> "Vec3":
        return Vec3(k * self.x, k * self.y, k * self.z)

    def dot(self, other: "Vec3") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def norm(self) -> float:
        return math.sqrt(self.dot(self))

    def normalized(self) -> "Vec3":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize a zero vector")
        return Vec3(self.x / n, self.y / n, self.z / n)

    def is_unit(self, tol: float = UNIT_LENGTH_TOL) -> bool:
        return abs(self.norm() - 1.0) <= tol

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)

    @classmethod
    def from_iterable(cls, xyz) -> "Vec3":
        x, y, z = xyz
        return cls(float(x), float(y), float(z))


def branch_normal(azimuth_deg: float, elevation_deg: float) -> Vec3:
    """Unit pointing vector of a detector branch.

    Azimuth is measured in the horizontal plane from +x, elevation from the
    horizontal plane upward (90 deg points at the ceiling).
    """
    if not 0.0 <= azimuth_deg < 360.0:
        raise ValueError(f"azimuth must be in [0, 360), got {azimuth_deg}")
    if not 0.0 < elevation_deg <= 90.0:
        raise ValueError(f"elevation must be in (0, 90], got {elevation_deg}")
    az = math.radians(azimuth_deg)
    el = math.radians(elevation_deg)
    return Vec3(math.cos(el) * math.cos(az), math.cos(el) * math.sin(az), math.sin(el))
