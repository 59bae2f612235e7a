import os
from types import SimpleNamespace

import pytest

import vlcwdma as v
from vlcwdma import cli
from vlcwdma.cli import main as cli_main
from vlcwdma.experiment import ConfigError, parse_config, preset_config, run_experiment, scenario_preset

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "report_room_b_s1.csv")


class TestScenarioPresets:
    def test_spec_spot_checks(self):
        a1 = scenario_preset("A", 1)
        assert (a1[0].x, a1[0].y, a1[0].z) == (0.5, 6.5, 1.0)
        b2 = scenario_preset("B", 2)
        assert (b2[7].x, b2[7].y, b2[7].z) == (3.5, 0.5, 1.0)
        c2 = scenario_preset("C", 2)
        assert (c2[0].x, c2[0].y, c2[0].z) == (0.5, 0.5, 1.0)

    def test_all_presets_have_eight_users_on_receiver_plane(self):
        for room in "ABC":
            for scen in (1, 2):
                users = scenario_preset(room, scen)
                assert len(users) == 8
                assert all(u.z == 1.0 for u in users)
                room_spec = v.standard_room(room)
                assert all(room_spec.contains(u) for u in users)

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            scenario_preset("A", 3)
        with pytest.raises(ValueError):
            scenario_preset("Z", 1)


class TestLoadConfig:
    def test_minimal_preset_file(self, tmp_path):
        path = tmp_path / "exp.yaml"
        path.write_text("room: A\nscenario: 1\n")
        cfg = v.load_config(str(path))
        assert cfg.room.name == "A"
        assert len(cfg.users) == 8
        assert cfg.max_order == 2
        assert cfg.solver_mode == "exact"
        assert cfg.dt_s == pytest.approx(0.05e-9)

    def test_user_outside_room_rejected(self, tmp_path):
        path = tmp_path / "exp.yaml"
        path.write_text("room: A\nusers:\n  - [9, 9, 1]\n")
        with pytest.raises(ConfigError, match="outside room"):
            v.load_config(str(path))

    def test_override_bounce_order(self, tmp_path):
        path = tmp_path / "exp.yaml"
        path.write_text("room: B\nscenario: 2\nchannel: {order: 1}\n")
        assert v.load_config(str(path)).max_order == 1

    def test_all_errors_reported_together(self, tmp_path):
        path = tmp_path / "exp.yaml"
        path.write_text(
            "room: B\n"
            "users:\n  - [9, 9, 1]\n  - [0.5, 99, 1]\n"
            "solver: {mode: exact, objective: bogus}\n"
        )
        with pytest.raises(ConfigError) as exc:
            v.load_config(str(path))
        text = "; ".join(exc.value.errors)
        assert "user 1" in text and "user 2" in text and "objective" in text

    def test_inline_room(self, tmp_path):
        path = tmp_path / "exp.yaml"
        path.write_text(
            "room:\n"
            "  dims: [3, 3, 3]\n"
            "  aps: [[1.5, 1.5, 3]]\n"
            "  reflectivity: {wall: 0.7, floor: 0.2}\n"
            "users:\n  - [1.5, 1.5]\n"
        )
        cfg = v.load_config(str(path))
        assert cfg.room.width == 3.0
        assert cfg.users[0].z == 1.0  # receiver plane default
        assert cfg.room.surface("wall_x0").rho(v.Wavelength.RED) == 0.7

    @pytest.mark.parametrize("text,problem", [
        ("solver: 5", "solver must be a mapping"),
        ("channel: [1]", "channel must be a mapping"),
        ("frontend: x", "frontend must be a mapping"),
        ("frontend: {responsivities: 5}", "frontend.responsivities must be a mapping"),
        ("frontend: {responsivities: {R: [1], Y: 1, G: 1, B: 1}}", "frontend:"),
        ("channel: {order: x}", "channel.order must be a number"),
        ("channel: {dx1_m: wide}", "channel.dx1_m must be a number"),
        ("workers: many", "workers must be a number"),
        ("solver: {k: x}", "solver.k must be a number"),
        ("solver: {k: .inf}", "solver.k must be a number"),
        ("solver: {time_limit_s: 5}", "solver.time_limit_s: unknown key"),
        ("channel: {dx1: 0.1}", "channel.dx1: unknown key"),
        ("frontend: {crosstalk: 0, xtalk: 0.1}", "frontend.xtalk: unknown key"),
        ("wrkers: 3", "wrkers: unknown key"),
        ("solver: {k: 2.5}", "solver.k must be an integer"),
        ("channel: {order: 1.7}", "channel.order must be an integer"),
        ("channel: {order: true}", "channel.order must be an integer"),
        ("workers: 1.5", "workers must be an integer"),
    ])
    def test_malformed_value_is_config_error(self, tmp_path, text, problem):
        path = tmp_path / "exp.yaml"
        path.write_text(f"room: B\nscenario: 2\n{text}\n")
        with pytest.raises(ConfigError) as exc:
            v.load_config(str(path))
        assert problem in "; ".join(exc.value.errors)

    @pytest.mark.parametrize("text,problem", [
        ("channel: {dt_ns: 0}", "dt_s must be > 0"),
        ("channel: {dt_ns: .nan}", "dt_s must be > 0"),
        ("channel: {f_cap_ghz: 0}", "f_cap_hz must be > 0"),
        ("channel: {dispersion_factor: 0}", "dispersion_factor must be > 0"),
        ("channel: {dx1_m: -1}", "dx1_m must be in (0, 3.0]"),
        ("channel: {dx2_m: 3.5}", "dx2_m must be in (0, 3.0]"),
        ("solver: {mode: exhaustive}", "unknown solver mode 'exhaustive'"),
        ("channel: {f_cap_ghz: .inf}", "f_cap_hz must be > 0 and finite"),
        ("channel: {dt_ns: .inf}", "dt_s must be > 0 and finite"),
        ("channel: {dispersion_factor: .inf}", "dispersion_factor must be > 0 and finite"),
        ("frontend: {b_rx: .inf}", "receiver bandwidth must be > 0 and finite"),
        ("frontend: {b_rx: .nan}", "receiver bandwidth must be > 0 and finite"),
        ("frontend: {n0: .inf}", "noise current spectral density must be > 0 and finite"),
        ("frontend: {responsivities: {R: -1, Y: 0.35, G: 0.3, B: 0.2}}", "responsivity for R must be > 0 and finite"),
        ("frontend: {responsivities: {R: 0.4, Y: .inf, G: 0.3, B: 0.2}}", "responsivity for Y must be > 0 and finite"),
        ("workers: 0", "workers must be >= 1"),
        ("workers: -3", "workers must be >= 1"),
    ])
    def test_out_of_range_value_is_config_error(self, tmp_path, text, problem):
        path = tmp_path / "exp.yaml"
        path.write_text(f"room: B\nscenario: 1\n{text}\n")
        with pytest.raises(ConfigError) as exc:
            v.load_config(str(path))
        assert problem in "; ".join(exc.value.errors)

    @pytest.mark.parametrize("text,problem", [
        ("room: {dims: [4, x, 3], aps: 5, reflectivity: 0.8}\nusers: [[1, 1]]", "room.dims"),
        # an inline room named like a standard one does not take that room's preset users
        ("room: {name: B, dims: [4, 4, 3], aps: [[2, 2, 3]]}\nscenario: 1",
         "config must list users or name a scenario preset for a standard room"),
    ])
    def test_malformed_inline_room_is_config_error(self, tmp_path, text, problem):
        path = tmp_path / "exp.yaml"
        path.write_text(text + "\n")
        with pytest.raises(ConfigError) as exc:
            v.load_config(str(path))
        assert problem in "; ".join(exc.value.errors)

    @pytest.mark.parametrize("room,problem", [
        ("{dims: [.inf, 4, 3], aps: [[1, 1, 3]]}", "room width must be positive and finite"),
        ("{dims: [4, 4, 3], aps: [{position: [1, 1, 3], ld_power_w: {R: .inf, Y: 0.5, G: 0.3, B: 0.3}}]}",
         "power for R must be > 0 and finite"),
        ("{dims: [4, 4, 3], aps: [{position: [1, 1, 3], ld_power_w: 5}]}", "room.aps[0].ld_power_w must be a mapping"),
        ("{dims: [4, 4, 3], aps: [{position: [1, 1, 3], lambertian_m: .inf}]}", "Lambertian mode m must be >= 1 and finite"),
        ("{dims: [4, 4, 3], aps: [{position: [1, 1, 3], lambertian_m: .nan}]}", "Lambertian mode m must be >= 1 and finite"),
        ("{dims: [4, 4, 3], aps: [[1, 1, 3], {position: [3, 3, 3], ld_count: 2.5}]}",
         "room.aps[1].ld_count must be an integer"),
        ("{dims: [4, 4, 3], aps: [[1, 1, 3], {position: [3, 3, 3], ld_cuont: 2}]}",
         "room.aps[1].ld_cuont: unknown key"),
        ("{dims: [4, 4, x], aps: [[1, 1, 3]], reflectivity: {wal: 0.5}, colour: red}",
         "room.colour: unknown key; room.reflectivity.wal: unknown key; room.dims must be"),
    ])
    def test_bad_inline_room_value_is_config_error(self, tmp_path, room, problem):
        path = tmp_path / "exp.yaml"
        path.write_text(f"room: {room}\nusers: [[1, 1]]\n")
        with pytest.raises(ConfigError) as exc:
            v.load_config(str(path))
        assert problem in "; ".join(exc.value.errors)

    @pytest.mark.parametrize("text,field,value", [
        ("channel: {dt_ns: 0.01}", "dt_s", 1e-11),
        ("channel: {dt_ns: 0.02}", "dt_s", 2e-11),
        ("channel: {dt_ns: 0.05}", "dt_s", 5e-11),
        ("channel: {dt_ns: 0.1}", "dt_s", 1e-10),
        ("channel: {f_cap_ghz: 10}", "f_cap_hz", 10e9),
    ])
    def test_unit_scaled_value_equals_its_si_literal(self, tmp_path, text, field, value):
        # 0.05 * 1e-9 is 5.000000000000001e-11, not the default dt_s of 5e-11
        path = tmp_path / "exp.yaml"
        path.write_text(f"room: B\nscenario: 1\n{text}\n")
        assert getattr(v.load_config(str(path)), field) == value

    @pytest.mark.parametrize("text", [
        "frontend: {n0: -1, b_rx: -1, crosstalk: 2}",
        "solver: {k: 0, mode: x, objective: x}",
    ])
    def test_every_range_problem_of_a_section_is_reported(self, tmp_path, text):
        path = tmp_path / "exp.yaml"
        path.write_text(f"room: B\nscenario: 1\n{text}\n")
        with pytest.raises(ConfigError) as exc:
            v.load_config(str(path))
        assert len(exc.value.errors) == 3

    @pytest.mark.parametrize("scenario", [1.5, True])
    def test_non_integral_scenario_is_config_error(self, scenario):
        with pytest.raises(ConfigError, match="scenario must be an integer"):
            parse_config({"room": "B", "scenario": scenario})

    def test_parse_error(self, tmp_path):
        path = tmp_path / "exp.yaml"
        path.write_text("room: [unclosed\n")
        with pytest.raises(ConfigError):
            v.load_config(str(path))


class TestPresetConfig:
    @pytest.mark.parametrize("room", "ABC")
    @pytest.mark.parametrize("scenario", (1, 2))
    def test_same_as_parse_config(self, room, scenario):
        assert preset_config(room, scenario) == parse_config({"room": room, "scenario": scenario})

    def test_overrides_land(self, tmp_path):
        cfg = preset_config("A", 2, max_order=1, out_dir=str(tmp_path))
        assert (cfg.max_order, cfg.out_dir, cfg.scenario_label) == (1, str(tmp_path), "2")

    def test_unknown_room_or_bad_override_is_config_error(self):
        with pytest.raises(ConfigError, match="unknown standard room"):
            preset_config("Z", 1)
        with pytest.raises(ConfigError, match="dt_s must be > 0"):
            preset_config("B", 1, dt_s=0.0)


@pytest.fixture(scope="module")
def room_b_s1_run(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("runb1"))
    cfg = preset_config("B", 1, out_dir=out)
    return run_experiment(cfg, echo=None)


class TestRunExperiment:
    def test_reports_cover_all_users(self, room_b_s1_run):
        assert len(room_b_s1_run.reports) == 8
        assert room_b_s1_run.exit_code == 0
        room_b_s1_run.assignment.validate()

    def test_artifacts_written(self, room_b_s1_run):
        for name in ("report", "assignment", "gain_table", "fig_bandwidth", "fig_sinr", "fig_rate"):
            assert os.path.exists(room_b_s1_run.files[name])

    def test_report_columns(self, room_b_s1_run):
        lines = open(room_b_s1_run.files["report"]).read().strip().splitlines()
        assert lines[0] == "user,room,scenario,ap,branch,wavelength,sinr_db,bandwidth_hz,rate_bps,fec"
        assert len(lines) == 9
        first = lines[1].split(",")
        assert first[0] == "1" and first[1] == "B" and first[2] == "1"

    def test_fig_sinr_carries_raw_and_effective(self, room_b_s1_run):
        lines = open(room_b_s1_run.files["fig_sinr"]).read().strip().splitlines()
        assert lines[0] == "user,sinr_db_raw,sinr_db_effective"
        for row, report in zip(lines[1:], room_b_s1_run.reports):
            _, raw, eff = row.split(",")
            assert float(raw) == pytest.approx(report.sinr_db, abs=1e-3)
            if report.fec_engaged:
                assert float(eff) == pytest.approx(15.6, abs=1e-9)
            else:
                assert float(eff) == pytest.approx(float(raw), abs=1e-9)

    def test_matches_golden_report(self, room_b_s1_run):
        golden = open(GOLDEN).read().strip().splitlines()
        current = open(room_b_s1_run.files["report"]).read().strip().splitlines()
        assert golden[0] == current[0]
        assert len(golden) == len(current)
        for g_row, c_row in zip(golden[1:], current[1:]):
            g, c = g_row.split(","), c_row.split(",")
            assert g[:6] == c[:6]  # user, room, scenario, ap, branch, wavelength
            assert float(c[6]) == pytest.approx(float(g[6]), abs=1e-6)   # sinr_db
            assert float(c[7]) == pytest.approx(float(g[7]), rel=1e-9)   # bandwidth
            assert float(c[8]) == pytest.approx(float(g[8]), rel=1e-9)   # rate
            assert g[9] == c[9]

    def test_round_trip_gain_table_reproduces_assignment(self, room_b_s1_run):
        table = v.GainTable.read_csv(room_b_s1_run.files["gain_table"])
        redo = v.solve_exact(range(table.n_users), table, config=room_b_s1_run.config.solver)
        assert redo.key() == room_b_s1_run.assignment.key()
        assert redo.objective_value == pytest.approx(
            room_b_s1_run.assignment.objective_value, abs=1e-9)

    def test_consecutive_runs_byte_identical(self, tmp_path):
        outs = []
        for sub in ("one", "two"):
            out = str(tmp_path / sub)
            run_experiment(preset_config("B", 2, out_dir=out, max_order=1), echo=None)
            outs.append(out)
        for name in ("report.csv", "assignment.csv", "fig_bandwidth.csv", "fig_sinr.csv",
                     "fig_rate.csv", "gain_table.csv"):
            b1 = open(os.path.join(outs[0], name), "rb").read()
            b2 = open(os.path.join(outs[1], name), "rb").read()
            assert b1 == b2, f"{name} differs between identical runs"


class TestCli:
    def test_preset_run_exit_zero(self, tmp_path, capsys):
        out = str(tmp_path / "cli_out")
        code = cli_main(["run", "--room", "B", "--scenario", "2", "--order", "1",
                         "--solver", "greedy", "--out", out])
        assert code == 0
        assert os.path.exists(os.path.join(out, "report.csv"))
        assert "user" in capsys.readouterr().out

    def test_unknown_room_exit_nonzero(self, tmp_path, capsys):
        code = cli_main(["run", "--room", "Z", "--scenario", "1",
                         "--out", str(tmp_path / "x")])
        assert code != 0

    def test_config_file_run(self, tmp_path):
        cfg = tmp_path / "exp.yaml"
        cfg.write_text("room: B\nscenario: 2\n")
        out = str(tmp_path / "cfg_out")
        code = cli_main(["run", "--room", str(cfg), "--order", "0",
                         "--solver", "greedy", "--out", out])
        assert code == 0

    def test_users_file_run(self, tmp_path):
        self._users_file_run(tmp_path, "users:\n  - [2.0, 2.0, 1.0]\n")

    def test_users_file_bare_list_run(self, tmp_path):
        self._users_file_run(tmp_path, "- [2.0, 2.0, 1.0]\n")

    @staticmethod
    def _users_file_run(tmp_path, text):
        users = tmp_path / "users.yaml"
        users.write_text(text)
        out = str(tmp_path / "users_out")
        code = cli_main(["run", "--room", "B", "--scenario", str(users),
                         "--order", "0", "--solver", "exact", "--out", out])
        assert code == 0
        lines = open(os.path.join(out, "report.csv")).read().strip().splitlines()
        assert len(lines) == 2

    @pytest.mark.parametrize("text, key", [
        ("users:\n  - [2.0, 2.0, 1.0]\nz_default: 1.5\n", "z_default"),
        ("userz:\n  - [2.0, 2.0, 1.0]\n", "userz"),
    ])
    def test_users_file_unknown_key_exits_2(self, tmp_path, capsys, monkeypatch, text, key):
        users = tmp_path / "users.yaml"
        users.write_text(text)
        monkeypatch.setattr(cli, "run_experiment", lambda config: pytest.fail("config was accepted"))
        code = cli_main(["run", "--room", "B", "--scenario", str(users), "--out", str(tmp_path / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: {users}: {key}: unknown key" in err
        assert "users must be a list" not in err

    def test_element_size_flag(self, tmp_path):
        out = str(tmp_path / "el_out")
        code = cli_main(["run", "--room", "B", "--scenario", "2", "--order", "1",
                         "--solver", "greedy", "--out", out, "--element-size", "0.5"])
        assert code == 0

    def test_flags_override_only_what_they_name(self, tmp_path, monkeypatch):
        cfg = tmp_path / "exp.yaml"
        cfg.write_text("room: B\nscenario: 2\nchannel: {order: 1}\n"
                       "solver: {mode: greedy, k: 8, objective: linear}\nworkers: 2\n")
        seen = []
        monkeypatch.setattr(cli, "run_experiment",
                            lambda config: seen.append(config) or SimpleNamespace(exit_code=0))
        out = str(tmp_path / "d")
        assert cli_main(["run", "--room", str(cfg), "--out", out]) == 0
        assert cli_main(["run", "--room", str(cfg), "--out", out, "--order", "0", "--k", "4"]) == 0
        file_only, flagged = seen
        assert (file_only.solver_mode, file_only.max_order, file_only.workers) == ("greedy", 1, 2)
        assert (file_only.solver.k, file_only.solver.objective) == (8, "linear")
        assert file_only.out_dir == out
        assert (flagged.max_order, flagged.solver.k) == (0, 4)
        assert (flagged.solver_mode, flagged.solver.objective, flagged.workers) == ("greedy", "linear", 2)

    def test_exhaustive_solver_flag_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["run", "--room", "B", "--scenario", "1", "--solver", "exhaustive",
                      "--out", str(tmp_path / "x")])
        assert exc.value.code == 2
        assert "invalid choice: 'exhaustive'" in capsys.readouterr().err

    def test_out_of_range_channel_exits_2_before_tracing(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "exp.yaml"
        cfg.write_text("room: B\nscenario: 1\nchannel: {dt_ns: 0, dx1_m: -1}\nsolver: {k: 0}\n")
        monkeypatch.setattr(cli, "run_experiment", lambda config: pytest.fail("config was accepted"))
        assert cli_main(["run", "--room", str(cfg), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert "dt_s must be > 0" in err and "dx1_m must be in" in err and "candidate cap" in err

    def test_retired_time_limit_exits_2(self, tmp_path, capsys, monkeypatch):
        # exact always runs to proof; an old file's limit is reported, not dropped
        cfg = tmp_path / "exp.yaml"
        cfg.write_text("room: B\nscenario: 1\nsolver: {time_limit_s: 5}\n")
        monkeypatch.setattr(cli, "run_experiment", lambda config: pytest.fail("config was accepted"))
        assert cli_main(["run", "--room", str(cfg), "--out", str(tmp_path / "x")]) == 2
        assert "error: solver.time_limit_s: unknown key" in capsys.readouterr().err

    @pytest.mark.parametrize("entry", ["[1, 2, 1, 4]", "5", "[a, 1]"])
    def test_malformed_users_file_is_config_error(self, tmp_path, capsys, entry):
        users = tmp_path / "users.yaml"
        users.write_text(f"users:\n  - {entry}\n")
        code = cli_main(["run", "--room", "B", "--scenario", str(users),
                         "--out", str(tmp_path / "x")])
        assert code == 2
        assert "users[0]" in capsys.readouterr().err
