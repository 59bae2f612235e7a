import math

import numpy as np
import pytest

import vlcwdma as v
from vlcwdma.geometry import Vec3


@pytest.fixture(scope="session")
def room_b():
    return v.standard_room("B")


@pytest.fixture(scope="session")
def scene_b(room_b):
    return v.discretize(room_b)


@pytest.fixture(scope="session")
def single_ap_room():
    return v.RoomSpec(
        4.0, 4.0, 3.0, v.default_surfaces(),
        (v.AccessPointSpec(position=Vec3(1.0, 1.0, 3.0)),),
        name="single",
    )


@pytest.fixture(scope="session")
def single_ap_scene(single_ap_room):
    return v.discretize(single_ap_room)


def random_gain_table(rng, n_users=4, n_aps=4, n_branches=4, p_zero=0.3):
    """Synthetic table with plausible gain magnitudes; some triples dark."""
    shape = (n_users, n_branches, n_aps, 4)
    gains = rng.lognormal(mean=np.log(1e-6), sigma=0.8, size=shape)
    gains[rng.random(shape) < p_zero] = 0.0
    for u in range(n_users):
        if not np.any(gains[u] > 0.0):
            gains[u, 0, 0, 0] = 1e-6
    bw = np.full(shape, 10e9)
    capped = np.ones(shape, dtype=bool)
    ds = np.zeros(shape)
    blocked = np.zeros(shape, dtype=bool)
    tx = np.tile(np.array([7.2, 4.5, 2.7, 2.7]), (n_aps, 1))
    users = [Vec3(0.0, 0.0, 1.0)] * n_users
    return v.GainTable(users, n_branches, n_aps, gains, bw, capped, ds, blocked, tx)


def sinr_db(model, user, entries):
    """``user``'s SINR in dB under the assignment ``entries``; -inf without signal."""
    lin = model.sinr_linear(user, entries[user], entries.values())
    return 10.0 * math.log10(lin) if lin > 0.0 else float("-inf")


def objective_of(model, entries, scale="db"):
    """The users' SINRs summed in sorted-user order, in dB or linear, as the
    solvers score an assignment; -inf if any user has no signal."""
    cands = [entries[u] for u in sorted(entries)]
    lins = [model.sinr_linear(c.user, c, cands) for c in cands]
    if any(lin <= 0.0 for lin in lins):
        return float("-inf")
    return sum(10.0 * math.log10(lin) if scale == "db" else lin for lin in lins)
