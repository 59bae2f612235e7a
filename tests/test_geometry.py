import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vlcwdma.geometry import Vec3, branch_normal
from vlcwdma.scene import default_branches


def test_zenith_branch_normal():
    n = branch_normal(0.0, 90.0)
    assert n.x == pytest.approx(0.0, abs=1e-15)
    assert n.y == pytest.approx(0.0, abs=1e-15)
    assert n.z == pytest.approx(1.0)


def test_branch_normal_45_70():
    n = branch_normal(45.0, 70.0)
    assert n.x == pytest.approx(0.24185, abs=1e-5)
    assert n.y == pytest.approx(0.24185, abs=1e-5)
    assert n.z == pytest.approx(0.93969, abs=1e-5)


def test_branch_normal_315_70():
    n = branch_normal(315.0, 70.0)
    assert n.x == pytest.approx(0.24185, abs=1e-5)
    assert n.y == pytest.approx(-0.24185, abs=1e-5)
    assert n.z == pytest.approx(0.93969, abs=1e-5)


@given(az=st.floats(0.0, 360.0, exclude_max=True), el=st.floats(0.0, 90.0, exclude_min=True))
@settings(max_examples=200, deadline=None)
def test_branch_normal_unit_length(az, el):
    assert abs(branch_normal(az, el).norm() - 1.0) <= 1e-9


@pytest.mark.parametrize("az,el", [(-1.0, 70.0), (360.0, 70.0), (45.0, 0.0), (45.0, 91.0)])
def test_branch_normal_rejects_out_of_range(az, el):
    with pytest.raises(ValueError):
        branch_normal(az, el)


def rotate_z(v: Vec3, angle_deg: float) -> Vec3:
    """Rotate a vector about the +z axis by angle_deg (right-handed)."""
    a = math.radians(angle_deg)
    c, s = math.cos(a), math.sin(a)
    return Vec3(c * v.x - s * v.y, s * v.x + c * v.y, v.z)


def test_default_branches_related_by_quarter_turns():
    branches = default_branches()
    for i in range(4):
        rotated = rotate_z(branches[i].normal, 90.0)
        nxt = branches[(i + 1) % 4].normal
        assert (rotated - nxt).norm() <= 1e-12


def test_vec3_rejects_non_finite():
    with pytest.raises(ValueError):
        Vec3(math.nan, 0.0, 0.0)
    with pytest.raises(ValueError):
        Vec3(0.0, math.inf, 0.0)


def test_vec3_arithmetic():
    a = Vec3(1.0, 2.0, 3.0)
    b = Vec3(0.5, 0.5, 1.0)
    assert (a - b).as_array() == pytest.approx(np.array([0.5, 1.5, 2.0]))
    assert a.dot(b) == pytest.approx(4.5)
    assert Vec3(3.0, 0.0, 4.0).norm() == pytest.approx(5.0)
    assert Vec3(3.0, 0.0, 4.0).normalized().is_unit()
