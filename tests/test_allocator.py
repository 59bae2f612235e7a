import itertools

import numpy as np
import pytest

import vlcwdma as v
from vlcwdma import allocator
from vlcwdma.allocator import (
    Assignment,
    Candidate,
    InfeasibleUserError,
    SearchSpaceLimitError,
    SolverConfig,
    _assignment_dual,
    _resource_weights,
    assignment_csv_lines,
)
from vlcwdma.geometry import Vec3
from vlcwdma.link import SinrModel
from vlcwdma.scene import WAVELENGTHS, ConfigError

from conftest import objective_of, random_gain_table, sinr_db

R, Y, G, B = WAVELENGTHS


def structural_ok(assignment, users):
    assignment.validate()
    assert sorted(assignment.entries) == sorted(users)
    resources = [c.resource for c in assignment.entries.values()]
    assert len(resources) == len(set(resources))


@pytest.fixture(scope="module")
def corner_table(scene_b_module):
    return v.gain_matrix(scene_b_module, [Vec3(0.5, 0.5, 1.0)], max_order=1)


@pytest.fixture(scope="module")
def scene_b_module():
    return v.discretize(v.standard_room("B"))


class TestCandidates:
    def test_corner_user_prefers_nearest_ap(self, corner_table):
        cands = v.candidates(0, corner_table, config=SolverConfig(k=4))
        assert len(cands) == 4
        assert all(c.ap == 0 for c in cands)  # AP (1,1,3) dominates the corner
        # within one AP, candidates sort by responsivity * power: R > Y > G > B
        assert [c.wavelength for c in cands] == [R, Y, G, B]

    def test_k_truncation(self, corner_table):
        cands = v.candidates(0, corner_table, config=SolverConfig(k=1))
        assert len(cands) == 1
        assert cands[0].wavelength == R

    def test_sorted_descending_with_deterministic_ties(self, corner_table):
        cands = v.candidates(0, corner_table, config=SolverConfig(k=64))
        sinrs = [c.iso_sinr_db for c in cands]
        assert sinrs == sorted(sinrs, reverse=True)
        keys = [(c.iso_sinr_db, c.key) for c in cands]
        for (s1, k1), (s2, k2) in zip(keys, keys[1:]):
            if s1 == s2:
                assert k1 < k2

    def test_infeasible_user(self):
        rng = np.random.default_rng(0)
        table = random_gain_table(rng, n_users=2)
        dark = np.array(table.dc)
        dark[1] = 0.0
        table = v.GainTable(table.user_positions, 4, 4, dark, table.bandwidth_hz,
                            table.bandwidth_capped, table.delay_spread_s,
                            table.los_blocked, np.asarray(table.tx_power_w))
        with pytest.raises(InfeasibleUserError):
            v.candidates(1, table)

    def test_iso_sinr_is_singleton_sinr(self, corner_table):
        # interference-free annotation equals the SINR of the user alone
        cands = v.candidates(0, corner_table, config=SolverConfig(k=4))
        top = cands[0]
        alone = sinr_db(SinrModel(corner_table), 0, {0: top})
        assert top.iso_sinr_db == pytest.approx(alone, abs=1e-9)


class TestObjective:
    def test_single_user_equals_sinr(self, corner_table):
        top = v.candidates(0, corner_table)[0]
        entries = {0: top}
        model = SinrModel(corner_table)
        assert objective_of(model, entries) == sinr_db(model, 0, entries)

    def test_two_users_on_distinct_wavelengths_nearly_decouple(self, scene_b_module):
        table = v.gain_matrix(scene_b_module, [Vec3(0.5, 0.5, 1.0), Vec3(3.5, 3.5, 1.0)],
                              max_order=1)
        c0 = v.candidates(0, table)[0]
        c1 = next(c for c in v.candidates(1, table) if c.wavelength != c0.wavelength)
        entries = {0: c0, 1: c1}
        model = SinrModel(table)
        joint = objective_of(model, entries)
        isolated = sinr_db(model, 0, {0: c0}) + sinr_db(model, 1, {1: c1})
        assert joint == pytest.approx(isolated, abs=0.1)

    def test_same_wavelength_with_visible_interferer_scores_lower(self):
        # both users see both APs at full gain, so wavelength reuse means a
        # signal-strength interferer; spectral separation must win
        shape = (2, 4, 2, 4)
        dc = np.full(shape, 1.334e-6)
        table = v.GainTable(
            [Vec3(0, 0, 1)] * 2, 4, 2, dc, np.full(shape, 10e9),
            np.ones(shape, bool), np.zeros(shape), np.zeros(shape, bool),
            np.tile(np.array([7.2, 4.5, 2.7, 2.7]), (2, 1)),
        )
        c0 = Candidate(0, 0, 0, R, 0.0)
        same = Candidate(1, 1, 0, R, 0.0)
        diff = Candidate(1, 1, 0, Y, 0.0)
        model = SinrModel(table)
        assert objective_of(model, {0: c0, 1: same}) < objective_of(model, {0: c0, 1: diff})

    def test_minus_inf_propagates(self):
        table = random_gain_table(np.random.default_rng(1))
        dead = Candidate(0, 0, 0, R, 0.0)
        if table.dc[0, 0, 0, 0] > 0:
            dc = np.array(table.dc)
            dc[0, 0, 0, 0] = 0.0
            table = v.GainTable(table.user_positions, 4, 4, dc, table.bandwidth_hz,
                                table.bandwidth_capped, table.delay_spread_s,
                                table.los_blocked, np.asarray(table.tx_power_w))
        assert allocator._score(SinrModel(table), [dead], "db") == float("-inf")


class TestExhaustive:
    def test_single_user_takes_top_candidate(self, corner_table):
        result = v.solve_exhaustive([0], corner_table)
        structural_ok(result, [0])
        assert result.entries[0] == v.candidates(0, corner_table)[0]

    def test_two_users_under_one_ap_use_distinct_wavelengths(self, single_ap_scene):
        table = v.gain_matrix(single_ap_scene, [Vec3(0.5, 0.5, 1.0), Vec3(1.5, 1.5, 1.0)],
                              max_order=0)
        result = v.solve_exhaustive([0, 1], table)
        structural_ok(result, [0, 1])
        wls = {c.wavelength for c in result.entries.values()}
        assert len(wls) == 2  # single AP: the pair constraint forces two colors

    def test_mirrored_instance_has_mirrored_optimum(self, scene_b_module):
        users = [Vec3(0.5, 1.5, 1.0), Vec3(1.5, 0.5, 1.0)]
        mirrored = [Vec3(3.5, 2.5, 1.0), Vec3(2.5, 3.5, 1.0)]
        t1 = v.gain_matrix(scene_b_module, users, max_order=1)
        t2 = v.gain_matrix(scene_b_module, mirrored, max_order=1)
        r1 = v.solve_exhaustive([0, 1], t1)
        r2 = v.solve_exhaustive([0, 1], t2)
        assert r1.objective_value == pytest.approx(r2.objective_value, abs=1e-6)
        # the 180-degree image of the first optimum is optimal in the mirror
        ap_perm = {0: 3, 1: 2, 2: 1, 3: 0}
        br_perm = {0: 2, 1: 3, 2: 0, 3: 1}
        image = {
            u: Candidate(u, ap_perm[c.ap], br_perm[c.branch], c.wavelength, c.iso_sinr_db)
            for u, c in r1.entries.items()
        }
        assert objective_of(SinrModel(t2), image) == pytest.approx(r2.objective_value, abs=1e-6)

    def test_space_limit_enforced(self):
        rng = np.random.default_rng(3)
        table = random_gain_table(rng, n_users=9, n_aps=4, p_zero=0.0)
        with pytest.raises(SearchSpaceLimitError):
            v.solve_exhaustive(range(9), table, config=SolverConfig(k=16))

    def test_empty_users(self):
        table = random_gain_table(np.random.default_rng(4))
        result = v.solve_exhaustive([], table)
        assert result.entries == {}
        assert result.objective_value == 0.0


class TestExact:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_exhaustive(self, seed):
        rng = np.random.default_rng(seed)
        n_users = int(rng.integers(1, 5))
        table = random_gain_table(rng, n_users=n_users, n_aps=int(rng.integers(2, 5)))
        cfg = SolverConfig(k=8)
        exact = v.solve_exact(range(n_users), table, config=cfg)
        oracle = v.solve_exhaustive(range(n_users), table, config=cfg)
        structural_ok(exact, range(n_users))
        assert exact.objective_value == oracle.objective_value
        assert exact.key() == oracle.key()
        assert exact.proven_optimal

    def test_linear_objective_mode(self):
        rng = np.random.default_rng(11)
        table = random_gain_table(rng, n_users=3)
        cfg = SolverConfig(objective="linear", k=8)
        exact = v.solve_exact(range(3), table, config=cfg)
        oracle = v.solve_exhaustive(range(3), table, config=cfg)
        assert exact.objective_value == oracle.objective_value

    @pytest.mark.parametrize("objective", ["db", "linear"])
    def test_crosstalk_search_agrees_with_oracle_and_reports(self, objective):
        # crosstalk > 0 is the only setting in which the search sees leaked light
        rng = np.random.default_rng(7)
        table = random_gain_table(rng, n_users=4, n_aps=3)
        leaky = v.ReceiverFrontEnd(crosstalk=0.05)
        cfg = SolverConfig(objective=objective, k=8)
        exact = v.solve_exact(range(4), table, leaky, cfg)
        oracle = v.solve_exhaustive(range(4), table, leaky, cfg)
        assert exact.objective_value == oracle.objective_value
        model = SinrModel(table, leaky)
        per_user_db = [sinr_db(model, u, exact.entries) for u in range(4)]
        expected = sum(per_user_db if objective == "db" else [10 ** (db / 10) for db in per_user_db])
        assert objective_of(model, exact.entries, objective) == exact.objective_value
        assert exact.objective_value == pytest.approx(expected, abs=1e-9)
        assert objective_of(SinrModel(table), exact.entries, objective) > exact.objective_value

    def test_room_a_scale_proves_optimum(self):
        scene = v.discretize(v.standard_room("A"))
        users = v.scenario_preset("A", 2)
        table = v.gain_matrix(scene, users, max_order=1)
        result = v.solve_exact(range(8), table, config=SolverConfig(k=16))
        structural_ok(result, range(8))
        assert result.proven_optimal

    def test_empty_users(self):
        table = random_gain_table(np.random.default_rng(6))
        result = v.solve_exact([], table)
        assert result.entries == {} and result.objective_value == 0.0

    def test_bound_ingredient_is_admissible(self):
        # every user's final SINR never exceeds its interference-free annotation
        for seed in range(5):
            rng = np.random.default_rng(seed + 100)
            table = random_gain_table(rng, n_users=4)
            result = v.solve_exact(range(4), table, config=SolverConfig(k=8))
            model = SinrModel(table)
            for u, cand in result.entries.items():
                final = sinr_db(model, u, result.entries)
                assert final <= cand.iso_sinr_db + 1e-9


class TestAssignmentBound:
    """The assignment relaxation behind exact's bound (Kuhn, 1955)."""

    @staticmethod
    def brute_force(weights, n_cols):
        values = [sum(row[j] for row, j in zip(weights, cols))
                  for cols in itertools.permutations(range(n_cols), len(weights))
                  if all(j in row for row, j in zip(weights, cols))]
        return max(values, default=None)

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_brute_force_with_feasible_duals(self, seed):
        rng = np.random.default_rng(seed + 300)
        n_rows, n_cols = int(rng.integers(1, 6)), int(rng.integers(1, 8))
        weights = [{j: float(rng.normal(10.0, 8.0)) for j in range(n_cols) if rng.random() > 0.35}
                   for _ in range(n_rows)]
        expected = self.brute_force(weights, n_cols)
        dual = _assignment_dual(weights)
        if expected is None:
            assert dual is None
            return
        value, p, q = dual
        assert value == pytest.approx(expected, abs=1e-9)
        assert all(x >= 0.0 for x in q.values())
        for i, row in enumerate(weights):
            for j, w in row.items():
                assert p[i] + q.get(j, 0.0) >= w - 1e-9

    @pytest.mark.parametrize("weights", [
        [{0: 1.0, 1: 2.0}, {0: 3.0, 1: 1.0}, {0: 5.0, 1: 4.0}],  # three rows share two columns
        [{0: 1.0}, {0: 2.0, 1: 1.0}, {2: 1.0}, {0: 1.0, 1: 3.0}],  # rows 0, 1 and 3 share two
        [{}],  # a row with no column
    ])
    def test_infeasible_when_hall_condition_fails(self, weights):
        assert _assignment_dual(weights) is None

    @pytest.mark.parametrize("objective", ["db", "linear"])
    def test_root_bound_between_optimum_and_sum_of_best_isolated(self, objective):
        cfg = SolverConfig(objective=objective, k=8)
        for seed in range(8):
            rng = np.random.default_rng(seed + 400)
            n_users = int(rng.integers(2, 6))
            table = random_gain_table(rng, n_users=n_users, n_aps=int(rng.integers(2, 5)))
            weights, _ = _resource_weights([v.candidates(u, table, config=cfg) for u in range(n_users)], objective)
            root = _assignment_dual(weights)[0]
            optimum = v.solve_exact(range(n_users), table, config=cfg).objective_value
            assert optimum <= root + 1e-9 * max(1.0, abs(root))
            assert root <= sum(max(row.values()) for row in weights) + 1e-9 * max(1.0, abs(root))


class TestGreedy:
    @pytest.mark.parametrize("seed", range(6))
    def test_never_beats_exact(self, seed):
        rng = np.random.default_rng(seed + 20)
        n_users = int(rng.integers(1, 5))
        table = random_gain_table(rng, n_users=n_users)
        cfg = SolverConfig(k=8)
        greedy = v.solve_greedy(range(n_users), table, config=cfg)
        exact = v.solve_exact(range(n_users), table, config=cfg)
        structural_ok(greedy, range(n_users))
        assert greedy.objective_value <= exact.objective_value + 1e-9

    def test_single_user_matches_exact(self, corner_table):
        greedy = v.solve_greedy([0], corner_table)
        exact = v.solve_exact([0], corner_table)
        assert greedy.entries[0] == exact.entries[0]

    def test_match_rate_regression(self):
        # statistical regression with a fixed seed: greedy+local-search finds
        # the optimum on at least 90% of randomized desk-scale instances
        matches = 0
        n_instances = 40
        for seed in range(n_instances):
            rng = np.random.default_rng(seed + 1000)
            n_users = int(rng.integers(2, 5))
            table = random_gain_table(rng, n_users=n_users)
            cfg = SolverConfig(k=8)
            greedy = v.solve_greedy(range(n_users), table, config=cfg)
            exact = v.solve_exact(range(n_users), table, config=cfg)
            if abs(greedy.objective_value - exact.objective_value) < 1e-9:
                matches += 1
        assert matches >= 0.9 * n_instances

    @pytest.mark.parametrize("objective", ["db", "linear"])
    def test_no_improving_pair_move(self, objective):
        # the local-optimality contract: no joint reassignment of any two
        # users (which includes moving one alone) raises the objective
        cfg = SolverConfig(k=8, objective=objective)
        for seed in range(25):
            rng = np.random.default_rng(seed + 2000)
            n_users = int(rng.integers(2, 6))
            table = random_gain_table(rng, n_users=n_users)
            result = v.solve_greedy(range(n_users), table, config=cfg)
            picks = result.entries
            model = SinrModel(table)
            cands = [v.candidates(u, table, config=cfg) for u in range(n_users)]
            for ua, ub in itertools.combinations(range(n_users), 2):
                taken = {picks[x].resource for x in picks if x not in (ua, ub)}
                for ca in cands[ua]:
                    for cb in cands[ub]:
                        if {ca.resource, cb.resource} & taken or ca.resource == cb.resource:
                            continue
                        moved = objective_of(model, {**picks, ua: ca, ub: cb}, objective)
                        assert moved <= result.objective_value + 1e-9, (seed, ua, ub)

    def test_deterministic(self):
        rng1 = np.random.default_rng(77)
        rng2 = np.random.default_rng(77)
        t1 = random_gain_table(rng1, n_users=5)
        t2 = random_gain_table(rng2, n_users=5)
        r1 = v.solve_greedy(range(5), t1)
        r2 = v.solve_greedy(range(5), t2)
        assert r1.key() == r2.key()
        assert r1.objective_value == r2.objective_value


class TestSolverConfig:
    @pytest.mark.parametrize("k", [2.5, 3.0, True, "3", None, 0, -1])
    def test_bad_cap_is_config_error(self, k):
        with pytest.raises(ConfigError, match="candidate cap must be an integer >= 1"):
            SolverConfig(k=k)

    def test_every_bad_value_reported_together(self):
        with pytest.raises(ConfigError) as exc:
            SolverConfig(objective="max", k=2.5)
        assert len(exc.value.errors) == 2

    def test_integral_cap_accepted(self, corner_table):
        assert len(v.candidates(0, corner_table, config=SolverConfig(k=np.int64(3)))) == 3


class TestOneModelPerSolve:
    @pytest.mark.parametrize("solver", [v.solve_exact, v.solve_greedy, v.solve_exhaustive])
    def test_each_solver_builds_one_sinr_model(self, solver, monkeypatch):
        built = []

        class CountingModel(allocator.SinrModel):
            def __init__(self, *args, **kwargs):
                built.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(allocator, "SinrModel", CountingModel)
        table = random_gain_table(np.random.default_rng(9), n_users=4, n_aps=3)
        result = solver(range(4), table, config=SolverConfig(k=6))
        structural_ok(result, range(4))
        assert len(built) == 1


class TestStructuralProperties:
    @pytest.mark.parametrize("solver", [v.solve_exact, v.solve_greedy])
    def test_randomized_structural_suite(self, solver):
        for seed in range(25):
            rng = np.random.default_rng(seed + 500)
            n_users = int(rng.integers(1, 6))
            n_aps = int(rng.integers(2, 6))
            table = random_gain_table(rng, n_users=n_users, n_aps=n_aps)
            result = solver(range(n_users), table, config=SolverConfig(k=8))
            structural_ok(result, range(n_users))

    def test_monotone_degradation_weak_form(self):
        # optimum of the enlarged instance <= old optimum + newcomer's best iso
        for seed in range(5):
            rng = np.random.default_rng(seed + 300)
            table = random_gain_table(rng, n_users=4)
            cfg = SolverConfig(k=8)
            small = v.solve_exact(range(3), table, config=cfg)
            big = v.solve_exact(range(4), table, config=cfg)
            newcomer_best = v.candidates(3, table, config=cfg)[0].iso_sinr_db
            assert big.objective_value <= small.objective_value + newcomer_best + 1e-9

    def test_duplicate_resource_rejected(self):
        a = Assignment(
            entries={
                0: Candidate(0, 0, 0, R, 10.0),
                1: Candidate(1, 0, 1, R, 10.0),
            },
            objective_value=20.0,
        )
        with pytest.raises(ValueError, match="reused"):
            a.validate()


class TestAssignmentCsv:
    def test_table_like_rows(self, corner_table):
        result = v.solve_exact([0], corner_table)
        lines = assignment_csv_lines(result)
        assert lines[0] == "user,ap,branch,wavelength"
        user, ap, branch, wl = lines[1].split(",")
        assert user == "1" and wl in "RYGB"
        assert 1 <= int(ap) <= 4 and 1 <= int(branch) <= 4
