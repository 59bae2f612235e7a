"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see every line.
"""

import math
import time

import numpy as np
import pytest

import vlcwdma as v
from vlcwdma.allocator import SolverConfig
from vlcwdma.channel import DEFAULT_DT_S, ImpulseResponse, bandwidth_3db_flagged
from vlcwdma.experiment import preset_config, run_experiment
from vlcwdma.geometry import Vec3
from vlcwdma.scene import AccessPointSpec, BranchSpec

from conftest import random_gain_table

FEC_DB = 15.6

ROOM_A_BAND_HZ = (4.5e9 - 1.0e9, 8.5e9 + 1.0e9)
ROOM_C_BAND_HZ = (4.2e9 - 1.0e9, 6.2e9 + 1.0e9)
RATE_FLOOR_BPS = 5.5e9
ROOM_A_RUNTIME_LIMIT_S = 300.0


def _report(name: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"[{status}] {name}")
    for f in failures[:12]:
        print(f"        {f}")
    assert not failures, f"{name}: " + "; ".join(failures)


@pytest.fixture(scope="session")
def preset_runs(tmp_path_factory):
    runs = {}
    timings = {}
    for room in ("A", "B", "C"):
        for scen in (1, 2):
            out = str(tmp_path_factory.mktemp(f"acc_{room}{scen}"))
            t0 = time.monotonic()
            runs[(room, scen)] = run_experiment(
                preset_config(room, scen, out_dir=out), echo=None)
            timings[(room, scen)] = time.monotonic() - t0
    return runs, timings


def test_criterion_1_room_a_bandwidth_band(preset_runs):
    runs, timings = preset_runs
    failures = []
    for scen in (1, 2):
        for r in runs[("A", scen)].reports:
            lo, hi = ROOM_A_BAND_HZ
            if not lo <= r.bandwidth_hz <= hi:
                failures.append(
                    f"S{scen} user {r.user + 1}: B3dB {r.bandwidth_hz / 1e9:.2f} GHz "
                    f"outside [{lo / 1e9:.1f}, {hi / 1e9:.1f}] GHz "
                    "(reported value is the 10 GHz no-crossing cap: LOS-dominated "
                    "responses under this channel model never fall 3 dB below DC)"
                )
        runtime = timings[("A", scen)]
        if runtime > ROOM_A_RUNTIME_LIMIT_S:
            failures.append(f"S{scen} runtime {runtime:.1f}s exceeds {ROOM_A_RUNTIME_LIMIT_S}s")
    _report("criterion 1: Room A B3dB in [4.5, 8.5] GHz +/- 1.0, pipeline <= 5 min", failures)


def test_criterion_2_room_c_bandwidth_band(preset_runs):
    runs, _ = preset_runs
    failures = []
    for scen in (1, 2):
        for r in runs[("C", scen)].reports:
            lo, hi = ROOM_C_BAND_HZ
            if not lo <= r.bandwidth_hz <= hi:
                failures.append(
                    f"S{scen} user {r.user + 1}: B3dB {r.bandwidth_hz / 1e9:.2f} GHz "
                    f"outside [{lo / 1e9:.1f}, {hi / 1e9:.1f}] GHz (10 GHz cap, as above)"
                )
    _report("criterion 2: Room C B3dB in [4.2, 6.2] GHz +/- 1.0", failures)


def test_criterion_3_sinr_regime(preset_runs):
    runs, _ = preset_runs
    failures = []
    for room in ("A", "B", "C"):
        for r in runs[(room, 2)].reports:
            if r.sinr_db < FEC_DB:
                failures.append(f"room {room} S2 user {r.user + 1}: raw SINR "
                                f"{r.sinr_db:.2f} dB < {FEC_DB}")
    for r in runs[("A", 1)].reports:
        if r.sinr_db < FEC_DB:
            failures.append(f"room A S1 user {r.user + 1}: raw SINR {r.sinr_db:.2f} dB < {FEC_DB}")
    # rooms B/C scenario 1 may engage FEC, but every user must stay supported
    for room in ("B", "C"):
        reports = runs[(room, 1)].reports
        if len(reports) != 8:
            failures.append(f"room {room} S1: only {len(reports)} users supported")
        for r in reports:
            if r.fec_engaged != (r.sinr_db < FEC_DB):
                failures.append(f"room {room} S1 user {r.user + 1}: inconsistent FEC flag")
    _report("criterion 3: scenario-2 SINR >= 15.6 dB everywhere; Room A S1 >= 15.6 dB", failures)


def test_criterion_4_data_rate_floor(preset_runs):
    runs, _ = preset_runs
    failures = []
    for (room, scen), run in runs.items():
        for r in run.reports:
            if r.rate_bps < RATE_FLOOR_BPS:
                failures.append(f"room {room} S{scen} user {r.user + 1}: "
                                f"{r.rate_bps / 1e9:.2f} Gbps < 5.5")
    _report("criterion 4: every user supports >= 5.5 Gbit/s (post-FEC where engaged)", failures)


def test_criterion_5_oracle_equivalence():
    failures = []
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n_users = int(rng.integers(1, 5))
        n_aps = int(rng.integers(2, 5))
        table = random_gain_table(rng, n_users=n_users, n_aps=n_aps)
        cfg = SolverConfig(k=8)
        t0 = time.monotonic()
        exact = v.solve_exact(range(n_users), table, config=cfg)
        oracle = v.solve_exhaustive(range(n_users), table, config=cfg)
        elapsed = time.monotonic() - t0
        worst = max(worst, elapsed)
        if exact.objective_value != oracle.objective_value:
            failures.append(f"seed {seed}: exact {exact.objective_value!r} != "
                            f"exhaustive {oracle.objective_value!r}")
        if elapsed > 1.0:
            failures.append(f"seed {seed}: instance took {elapsed:.2f}s > 1s")
    print(f"        (100 instances, worst case {worst * 1e3:.0f} ms)")
    _report("criterion 5: solve_exact == solve_exhaustive on 100 random instances", failures)


def test_criterion_6_structural_constraints():
    failures = []
    n_runs = 0
    for seed in range(250):
        rng = np.random.default_rng(10_000 + seed)
        n_users = int(rng.integers(1, 6))
        n_aps = int(rng.integers(2, 6))
        table = random_gain_table(rng, n_users=n_users, n_aps=n_aps)
        verdicts = set()
        for solver in (v.solve_exact, v.solve_greedy):
            for objective in ("db", "linear"):
                n_runs += 1
                tag = f"seed {seed} {solver.__name__}/{objective}"
                try:
                    result = solver(range(n_users), table,
                                    config=SolverConfig(k=8, objective=objective))
                except v.InfeasibleUserError:
                    verdicts.add("infeasible")
                    continue
                verdicts.add("solved")
                try:
                    result.validate()
                except ValueError as exc:
                    failures.append(f"{tag}: {exc}")
                if sorted(result.entries) != list(range(n_users)):
                    failures.append(f"{tag}: user without assignment")
        if len(verdicts) > 1:
            failures.append(f"seed {seed}: solvers disagree on feasibility")
    print(f"        ({n_runs} randomized solver runs)")
    assert n_runs == 1000
    _report("criterion 6: 1000 randomized solver runs, zero structural violations", failures)


def test_criterion_7_channel_unit_oracles():
    failures = []
    # LOS closed form on 50 randomized geometries, 1e-12 relative
    rng = np.random.default_rng(99)
    for trial in range(50):
        ap_xy = rng.uniform(0.5, 3.5, size=2)
        rx = (rng.uniform(0.2, 3.8), rng.uniform(0.2, 3.8), rng.uniform(0.5, 1.5))
        if trial % 2 == 0:
            az = rng.uniform(0.0, 360.0)
        else:
            az = (math.degrees(math.atan2(ap_xy[1] - rx[1], ap_xy[0] - rx[0]))
                  + rng.uniform(-20.0, 20.0)) % 360.0
        branch = BranchSpec(azimuth_deg=az, elevation_deg=rng.uniform(40.0, 90.0),
                            fov_deg=rng.uniform(15.0, 60.0))
        ap = AccessPointSpec(position=Vec3(ap_xy[0], ap_xy[1], 3.0))
        vx = np.array(rx) - ap.position.as_array()
        d = float(np.linalg.norm(vx))
        u = vx / d
        cos_phi = -u[2]
        bn = branch.normal.as_array()
        cos_theta = float(-u @ bn)
        if cos_phi <= 0 or cos_theta < math.cos(math.radians(branch.fov_deg)):
            expected = 0.0
        else:
            expected = 2.0 / (2 * math.pi * d * d) * branch.area_m2 * cos_phi * cos_theta
        gain, _ = v.los_contribution(ap, Vec3(*rx), branch)
        if expected == 0.0:
            if gain != 0.0:
                failures.append(f"trial {trial}: expected FOV-gated zero, got {gain!r}")
        elif abs(gain - expected) > 1e-12 * expected:
            failures.append(f"trial {trial}: LOS off by {abs(gain - expected) / expected:.2e}")
    # two-path -3 dB point within one frequency-grid step of 1/(4 tau)
    for k_bins in (1, 2, 4, 10):
        tau = k_bins * DEFAULT_DT_S
        bins = np.zeros(k_bins + 1)
        bins[0] = bins[-1] = 1.0
        bw, capped = bandwidth_3db_flagged(ImpulseResponse(dt=DEFAULT_DT_S, t0=0.0, bins=bins))
        grid = 1.0 / (2048 * DEFAULT_DT_S)
        if capped or abs(bw - 1.0 / (4.0 * tau)) > grid:
            failures.append(f"two-path tau={tau!r}: bw {bw!r} vs {1.0 / (4 * tau)!r}")
    # FOV gating exact zero: a 27.6-degree incidence on a 25-degree branch
    ap = AccessPointSpec(position=Vec3(1.0, 1.0, 3.0))
    gain, _ = v.los_contribution(ap, Vec3(0.5, 1.5, 1.0),
                                 BranchSpec(azimuth_deg=45.0, elevation_deg=70.0))
    if gain != 0.0:
        failures.append(f"FOV gating returned {gain!r}, not exact 0")
    _report("criterion 7: LOS closed form 1e-12, two-path 1/(4 tau), exact FOV zero", failures)


def test_criterion_8_physics_arithmetic_goldens(single_ap_scene):
    failures = []
    var = v.noise_variance(0.0, 5e9)
    if abs(var - 9.99045e-14) > 1e-6 * 9.99045e-14:
        failures.append(f"preamp noise variance {var!r} != 9.99045e-14")
    # independent oracle chain for the isolated red user
    from vlcwdma.scene import default_branches
    g, _ = v.los_contribution(single_ap_scene.room.aps[0], Vec3(0.5, 1.5, 1.0),
                              default_branches()[3])
    i_sig = 0.4 * 7.2 * g
    i_bg = (0.35 * 4.5 + 0.3 * 2.7 + 0.2 * 2.7) * g
    var_total = 9.99045e-14 + 2 * 1.602e-19 * (i_sig + i_bg) * 5e9
    golden_db = 10 * math.log10(i_sig**2 / var_total)
    if abs(golden_db - 21.2) > 0.1:
        failures.append(f"oracle SINR {golden_db:.3f} dB not ~21.2 dB")
    table = v.gain_matrix(single_ap_scene, [Vec3(0.5, 1.5, 1.0)], max_order=0)
    assignment = v.solve_exact([0], table)
    pipeline_db = v.SinrModel(table).link_report(0, assignment.entries).sinr_db
    if abs(pipeline_db - golden_db) > 0.1:
        failures.append(f"pipeline {pipeline_db:.4f} dB vs golden {golden_db:.4f} dB")
    print(f"        (golden {golden_db:.4f} dB, pipeline {pipeline_db:.4f} dB)")
    _report("criterion 8: sigma_pr^2 = 9.990e-14 A^2 and isolated SINR ~21.2 dB to 0.1 dB",
            failures)


def test_criterion_9_determinism(preset_runs, tmp_path):
    failures = []
    outs = []
    for sub in ("d1", "d2"):
        out = str(tmp_path / sub)
        run_experiment(preset_config("B", 1, out_dir=out), echo=None)
        outs.append(out)
    import os
    for name in ("report.csv", "assignment.csv", "gain_table.csv",
                 "fig_bandwidth.csv", "fig_sinr.csv", "fig_rate.csv"):
        b1 = open(os.path.join(outs[0], name), "rb").read()
        b2 = open(os.path.join(outs[1], name), "rb").read()
        if b1 != b2:
            failures.append(f"{name} differs between consecutive runs")
    scene = v.discretize(v.standard_room("B"))
    users = v.scenario_preset("B", 1)
    t1 = v.gain_matrix(scene, users, max_order=2, workers=1)
    t2 = v.gain_matrix(scene, users, max_order=2, workers=4)
    if not (np.array_equal(t1.dc, t2.dc) and np.array_equal(t1.bandwidth_hz, t2.bandwidth_hz)):
        failures.append("single-threaded and multi-worker gain tables disagree")
    _report("criterion 9: byte-identical consecutive runs; worker-count invariance", failures)
