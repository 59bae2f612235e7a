"""Experiment harness: configuration, scenario presets, and the full pipeline.

A run goes scene -> gain table -> allocation -> per-user link reports and
writes the per-user CSV artifacts (report, assignment, and the three
figure-data files for bandwidth, SINR and rate).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Sequence

import yaml

from . import allocator, channel, link
from .fileio import atomic_write
from .geometry import Vec3
from .scene import (
    DEFAULT_FIRST_ORDER_DX_M,
    DEFAULT_SECOND_ORDER_DX_M,
    AccessPointSpec,
    RoomSpec,
    Scene,
    default_branches,
    default_surfaces,
    discretize,
    standard_room,
)

RECEIVER_PLANE_Z_M = 1.0

# User locations of the two 8-user evaluation scenarios, per room.
# Scenario 1 clusters four users under an AP (worst case); scenario 2
# spreads the users over the room.
_SCENARIOS: dict[tuple[str, int], tuple[tuple[float, float, float], ...]] = {
    ("A", 1): ((0.5, 6.5, 1), (0.5, 7.5, 1), (1.5, 6.5, 1), (1.5, 7.5, 1),
               (2.5, 0.5, 1), (2.5, 1.5, 1), (3.5, 0.5, 1), (3.5, 1.5, 1)),
    ("A", 2): ((0.5, 1.5, 1), (0.5, 5.5, 1), (0.5, 6.5, 1), (1.5, 3.5, 1),
               (2.5, 1.5, 1), (2.5, 6.5, 1), (3.5, 3.5, 1), (3.5, 5.5, 1)),
    ("B", 1): ((0.5, 2.5, 1), (0.5, 3.5, 1), (1.5, 2.5, 1), (1.5, 3.5, 1),
               (2.5, 0.5, 1), (2.5, 1.5, 1), (3.5, 0.5, 1), (3.5, 1.5, 1)),
    ("B", 2): ((0.5, 1.5, 1), (0.5, 2.5, 1), (1.5, 0.5, 1), (1.5, 3.5, 1),
               (2.5, 1.5, 1), (2.5, 2.5, 1), (2.5, 3.5, 1), (3.5, 0.5, 1)),
    ("C", 1): ((0.5, 1.5, 1), (0.5, 0.5, 1), (0.5, 6.5, 1), (0.5, 7.5, 1),
               (1.5, 0.5, 1), (1.5, 1.5, 1), (1.5, 7.5, 1), (1.5, 6.5, 1)),
    ("C", 2): ((0.5, 0.5, 1), (0.5, 3.5, 1), (0.5, 6.5, 1), (1.5, 1.5, 1),
               (1.5, 2.5, 1), (1.5, 4.5, 1), (1.5, 5.5, 1), (1.5, 6.5, 1)),
}


def scenario_preset(room_id: str, scenario: int) -> list[Vec3]:
    """The eight user positions of a standard (room, scenario) pair."""
    key = (str(room_id).upper(), int(scenario))
    if key not in _SCENARIOS:
        raise ValueError(f"unknown scenario preset {room_id!r}/{scenario!r}")
    return [Vec3(*xyz) for xyz in _SCENARIOS[key]]


class ConfigError(ValueError):
    """Raised with the complete list of configuration problems."""

    def __init__(self, errors: Sequence[str]):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass
class ExperimentConfig:
    room: RoomSpec
    users: list[Vec3]
    solver_mode: str = "exact"                       # a key of _SOLVERS
    solver: allocator.SolverConfig = field(default_factory=allocator.SolverConfig)
    max_order: int = 2
    dt_s: float = channel.DEFAULT_DT_S
    dx1_m: float = DEFAULT_FIRST_ORDER_DX_M
    dx2_m: float = DEFAULT_SECOND_ORDER_DX_M
    f_cap_hz: float = channel.DEFAULT_F_CAP_HZ
    dispersion_factor: float = channel.DEFAULT_DISPERSION_FACTOR
    front_end: link.ReceiverFrontEnd = field(default_factory=link.ReceiverFrontEnd)
    out_dir: str = "run_out"
    workers: int = 1
    room_label: str = ""
    scenario_label: str = ""

    def validate(self) -> None:
        errors = []
        if self.solver_mode not in _SOLVERS:
            errors.append(f"unknown solver mode {self.solver_mode!r}")
        if self.max_order not in (0, 1, 2):
            errors.append(f"bounce order must be 0, 1 or 2, got {self.max_order}")
        if not self.users:
            errors.append("at least one user is required")
        for i, p in enumerate(self.users):
            if not self.room.contains(p):
                errors.append(f"user {i + 1} outside room: ({p.x}, {p.y}, {p.z})")
        for name in ("dt_s", "f_cap_hz", "dispersion_factor"):
            if not 0 < getattr(self, name) < float("inf"):  # NaN fails too
                errors.append(f"{name} must be > 0 and finite, got {getattr(self, name)}")
        min_dim = min(self.room.width, self.room.length, self.room.height)
        for name in ("dx1_m", "dx2_m"):  # the bound discretize enforces
            if not 0.0 < getattr(self, name) <= min_dim:
                errors.append(f"{name} must be in (0, {min_dim}], got {getattr(self, name)}")
        errors.extend(self.room.violations())
        if errors:
            raise ConfigError(errors)


def _section(data: dict, name: str, errors: list[str], where: str = "") -> dict:
    """A mapping-valued section, empty when absent; any other value is reported."""
    value = data.get(name) or {}
    if not isinstance(value, dict):
        errors.append(f"{where}{name} must be a mapping, got {value!r}")
        return {}
    return value


def _number(data: dict, key: str, default, errors: list[str], where: str = "", kind=float):
    """``kind(data[key])``, or default when absent or null; a non-number is reported."""
    if data.get(key) is None:
        return default
    try:
        return kind(data[key])
    except (TypeError, ValueError, OverflowError):
        errors.append(f"{where}{key} must be a number, got {data[key]!r}")
        return default


def _room_from_mapping(data: dict, errors: list[str]) -> RoomSpec | None:
    dims = data.get("dims")
    try:
        if not isinstance(dims, (list, tuple)):
            raise TypeError
        width, length, height = (float(v) for v in dims)
    except (TypeError, ValueError):
        errors.append("room.dims must be [width, length, height]")
        return None
    refl = _section(data, "reflectivity", errors, "room.")
    surfaces = default_surfaces(
        wall_rho=_number(refl, "wall", 0.8, errors, "room.reflectivity."),
        ceiling_rho=_number(refl, "ceiling", 0.8, errors, "room.reflectivity."),
        floor_rho=_number(refl, "floor", 0.3, errors, "room.reflectivity."),
    )
    aps = []
    aps_raw = data.get("aps") or []
    for i, entry in enumerate(aps_raw if isinstance(aps_raw, list) else []):
        try:
            if isinstance(entry, dict):
                pos = Vec3.from_iterable(entry["position"])
                kwargs = {}
                if "ld_count" in entry:
                    kwargs["ld_count"] = int(entry["ld_count"])
                if "ld_power_w" in entry:
                    kwargs["ld_power_w"] = entry["ld_power_w"]
                if "lambertian_m" in entry:
                    kwargs["lambertian_m"] = float(entry["lambertian_m"])
                aps.append(AccessPointSpec(position=pos, **kwargs))
            else:
                aps.append(AccessPointSpec(position=Vec3.from_iterable(entry)))
        except (TypeError, ValueError, KeyError) as exc:
            errors.append(f"room.aps[{i}] invalid: {exc}")
    if not aps:
        errors.append("room.aps must list at least one access point")
        return None
    return RoomSpec(width, length, height, surfaces, tuple(aps), name=str(data.get("name", "custom")))


def read_yaml(path: str):
    """Load a YAML file, reporting a syntax error as a ConfigError."""
    try:
        with open(path, "r") as fh:
            return yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        raise ConfigError([f"cannot parse {path}: {exc}"]) from exc


def read_config(path: str) -> dict:
    """The top-level mapping of a YAML experiment file."""
    raw = read_yaml(path)
    if not isinstance(raw, dict):
        raise ConfigError([f"{path} must contain a mapping at the top level"])
    return raw


def load_config(path: str) -> ExperimentConfig:
    """Parse and validate a YAML experiment file, reporting every problem."""
    return parse_config(read_config(path))


def parse_config(raw: dict) -> ExperimentConfig:
    """Build and validate a config from its mapping, reporting every problem."""
    errors: list[str] = []
    room: RoomSpec | None = None
    room_label = ""
    room_raw = raw.get("room", None)
    if isinstance(room_raw, str):
        try:
            room = standard_room(room_raw)
            room_label = room.name
        except ValueError as exc:
            errors.append(str(exc))
    elif isinstance(room_raw, dict):
        room = _room_from_mapping(room_raw, errors)
    else:
        errors.append("config must name a preset room (A/B/C) or define a room section")

    users: list[Vec3] = []
    scenario_label = ""
    if "users" in raw:
        entries = raw["users"] or []
        if not isinstance(entries, list):
            errors.append("users must be a list of [x, y] or [x, y, z] positions")
            entries = []
        for i, entry in enumerate(entries):
            try:
                vals = [float(v) for v in entry] if isinstance(entry, (list, tuple)) else []
            except (TypeError, ValueError):
                vals = []
            if len(vals) == 2:
                vals.append(RECEIVER_PLANE_Z_M)
            if len(vals) != 3:
                errors.append(f"users[{i}] must be [x, y] or [x, y, z]")
                continue
            users.append(Vec3(*vals))
    elif "scenario" in raw and room is not None and room.name in ("A", "B", "C"):
        try:
            users = scenario_preset(room.name, int(raw["scenario"]))
            scenario_label = str(int(raw["scenario"]))
        except (TypeError, ValueError) as exc:
            errors.append(str(exc))
    else:
        errors.append("config must list users or name a scenario preset for a standard room")

    ch = _section(raw, "channel", errors)
    fe_raw = _section(raw, "frontend", errors)
    sv = _section(raw, "solver", errors)

    responsivities = (_section(fe_raw, "responsivities", errors, "frontend.") if "responsivities" in fe_raw
                      else dict(link.DEFAULT_RESPONSIVITY_A_W))
    front_end = link.ReceiverFrontEnd()
    try:
        front_end = link.ReceiverFrontEnd(
            responsivity_a_w=responsivities,
            noise_density_a_rthz=_number(fe_raw, "n0", link.DEFAULT_NOISE_DENSITY_A_RTHZ, errors, "frontend."),
            bandwidth_hz=_number(fe_raw, "b_rx", link.DEFAULT_RX_BANDWIDTH_HZ, errors, "frontend."),
            crosstalk=_number(fe_raw, "crosstalk", 0.0, errors, "frontend."),
        )
    except (TypeError, ValueError) as exc:
        errors.append(f"frontend: {exc}")

    solver_cfg = allocator.SolverConfig()
    try:
        solver_cfg = allocator.SolverConfig(
            objective=str(sv.get("objective", "db")),
            k=_number(sv, "k", 16, errors, "solver.", int),
            time_limit_s=_number(sv, "time_limit_s", None, errors, "solver."),
        )
    except ValueError as exc:
        errors.append(f"solver: {exc}")

    dt_ns = _number(ch, "dt_ns", None, errors, "channel.")
    numbers = dict(
        max_order=_number(ch, "order", 2, errors, "channel.", int),
        # an absent key keeps the exact default: ns -> s does not round-trip
        dt_s=channel.DEFAULT_DT_S if dt_ns is None else dt_ns * 1e-9,
        dx1_m=_number(ch, "dx1_m", DEFAULT_FIRST_ORDER_DX_M, errors, "channel."),
        dx2_m=_number(ch, "dx2_m", DEFAULT_SECOND_ORDER_DX_M, errors, "channel."),
        f_cap_hz=_number(ch, "f_cap_ghz", channel.DEFAULT_F_CAP_HZ / 1e9, errors, "channel.") * 1e9,
        dispersion_factor=_number(ch, "dispersion_factor", channel.DEFAULT_DISPERSION_FACTOR,
                                  errors, "channel."),
        workers=_number(raw, "workers", 1, errors, kind=int),
    )

    if room is None:
        raise ConfigError(errors if errors else ["invalid configuration"])

    config = ExperimentConfig(
        room=room,
        users=users,
        solver_mode=str(sv.get("mode", "exact")),
        solver=solver_cfg,
        front_end=front_end,
        out_dir=str(raw.get("out", "run_out")),
        room_label=room_label,
        scenario_label=scenario_label,
        **numbers,
    )
    try:
        config.validate()
    except ConfigError as exc:
        errors.extend(exc.errors)
    if errors:
        raise ConfigError(errors)
    return config


def preset_config(room_id: str, scenario: int, **overrides) -> ExperimentConfig:
    """Config for a standard room and scenario with default model settings."""
    cfg = replace(parse_config({"room": room_id, "scenario": scenario}), **overrides)
    cfg.validate()
    return cfg


@dataclass
class RunResult:
    config: ExperimentConfig
    scene: Scene
    table: channel.GainTable
    assignment: allocator.Assignment
    reports: list[link.LinkReport]
    files: dict[str, str]
    exit_code: int


# The run modes. Exhaustive enumeration is the test suite's oracle, not a
# run mode: its search space exceeds its limit on every 8-user preset.
_SOLVERS = {"exact": allocator.solve_exact, "greedy": allocator.solve_greedy}


def run_experiment(config: ExperimentConfig, echo=print) -> RunResult:
    """Run the full pipeline and write the per-user CSV artifacts."""
    config.validate()
    scene = discretize(config.room, config.dx1_m, config.dx2_m)
    table = channel.gain_matrix(
        scene, config.users, max_order=config.max_order,
        branches=default_branches(), dt=config.dt_s,
        f_cap=config.f_cap_hz, dispersion_factor=config.dispersion_factor,
        workers=config.workers,
    )
    solver = _SOLVERS[config.solver_mode]
    assignment = solver(range(table.n_users), table, config.front_end, config.solver)
    assignment.validate()
    reports = [
        link.link_report(u, assignment.entries, table, config.front_end)
        for u in sorted(assignment.entries)
    ]

    out = config.out_dir
    files = {
        "report": os.path.join(out, "report.csv"),
        "assignment": os.path.join(out, "assignment.csv"),
        "gain_table": os.path.join(out, "gain_table.csv"),
        "fig_bandwidth": os.path.join(out, "fig_bandwidth.csv"),
        "fig_sinr": os.path.join(out, "fig_sinr.csv"),
        "fig_rate": os.path.join(out, "fig_rate.csv"),
    }
    atomic_write(files["report"], "\n".join(
        link.reports_csv_lines(reports, room=config.room_label, scenario=config.scenario_label)) + "\n")
    atomic_write(files["assignment"], "\n".join(allocator.assignment_csv_lines(assignment)) + "\n")
    table.write_csv(files["gain_table"])

    bw_lines = ["user,bandwidth_hz,capped"]
    sinr_lines = ["user,sinr_db_raw,sinr_db_effective"]
    rate_lines = ["user,rate_bps,fec"]
    for r in reports:
        capped = table.bandwidth_capped[r.user, r.branch, r.ap, r.wavelength.index]
        bw_lines.append(f"{r.user + 1},{r.bandwidth_hz:.0f},{int(capped)}")
        effective = link.FEC_THRESHOLD_DB if r.fec_engaged else r.sinr_db
        sinr_lines.append(f"{r.user + 1},{r.sinr_db:.4f},{effective:.4f}")
        rate_lines.append(f"{r.user + 1},{r.rate_bps:.0f},{int(r.fec_engaged)}")
    atomic_write(files["fig_bandwidth"], "\n".join(bw_lines) + "\n")
    atomic_write(files["fig_sinr"], "\n".join(sinr_lines) + "\n")
    atomic_write(files["fig_rate"], "\n".join(rate_lines) + "\n")

    if echo is not None:
        echo(summary_table(config, assignment, reports))
    return RunResult(config, scene, table, assignment, reports, files, exit_code=0)


def summary_table(config: ExperimentConfig, assignment: allocator.Assignment,
                  reports: Sequence[link.LinkReport]) -> str:
    head = (f"room={config.room_label or config.room.name} "
            f"scenario={config.scenario_label or '-'} solver={config.solver_mode} "
            f"order={config.max_order} objective={assignment.objective_value:.3f} "
            f"({assignment.objective_scale}-sum)"
            + ("" if assignment.proven_optimal else " [not proven optimal]"))
    lines = [head, f"{'user':>4} {'ap':>3} {'br':>3} {'wl':>3} {'sinr_dB':>8} {'bw_GHz':>7} {'rate_Gbps':>9} {'fec':>4}"]
    for r in reports:
        lines.append(
            f"{r.user + 1:>4} {r.ap + 1:>3} {r.branch + 1:>3} {r.wavelength.value:>3} "
            f"{r.sinr_db:>8.2f} {r.bandwidth_hz / 1e9:>7.2f} {r.rate_bps / 1e9:>9.2f} "
            f"{'on' if r.fec_engaged else 'off':>4}"
        )
    return "\n".join(lines)
