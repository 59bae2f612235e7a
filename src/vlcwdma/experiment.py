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
    ConfigError,
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
        if not self.workers >= 1:
            errors.append(f"workers must be >= 1, got {self.workers}")
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


# The scalar keys of each config section: YAML key -> (dataclass field,
# kind, scale into the field's SI unit). Defaults and ranges stay on the
# dataclasses; mapping-valued keys and AP positions are read apart.
_KEYS: dict[str, dict[str, tuple[str, type, float]]] = {
    "": {"workers": ("workers", int, 1), "out": ("out_dir", str, 1)},
    "channel": {"order": ("max_order", int, 1), "dt_ns": ("dt_s", float, 1e-9),
                "dx1_m": ("dx1_m", float, 1), "dx2_m": ("dx2_m", float, 1),
                "f_cap_ghz": ("f_cap_hz", float, 1e9),
                "dispersion_factor": ("dispersion_factor", float, 1)},
    "frontend": {"n0": ("noise_density_a_rthz", float, 1), "b_rx": ("bandwidth_hz", float, 1),
                 "crosstalk": ("crosstalk", float, 1)},
    "solver": {"mode": ("solver_mode", str, 1), "objective": ("objective", str, 1),
               "k": ("k", int, 1), "time_limit_s": ("time_limit_s", float, 1)},
    "room": {"name": ("name", str, 1)},
    "room.reflectivity": {"wall": ("wall_rho", float, 1), "ceiling": ("ceiling_rho", float, 1),
                          "floor": ("floor_rho", float, 1)},  # default_surfaces' arguments
    "room.aps[]": {"ld_count": ("ld_count", int, 1), "lambertian_m": ("lambertian_m", float, 1)},
}


def _section(data: dict, name: str, errors: list[str], where: str = "") -> dict:
    """A mapping-valued section, empty when absent; any other value is reported."""
    value = data.get(name) or {}
    if not isinstance(value, dict):
        errors.append(f"{where}{name} must be a mapping, got {value!r}")
        return {}
    return value


def _convert(value, kind: type, label: str):
    """``value`` as a str, float or int; a ValueError says what it must be."""
    try:
        out = kind(value if kind is str else float(value))  # int() raises on inf and NaN
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{label} must be a number, got {value!r}") from None
    if kind is int and (isinstance(value, bool) or out != float(value)):
        raise ValueError(f"{label} must be an integer, got {value!r}")
    return out


def _read(data: dict, section: str, errors: list[str], where: str | None = None) -> dict:
    """Keyword arguments from the present, non-null keys of one section."""
    where = (section and f"{section}.") if where is None else where
    kwargs = {}
    for key, (name, kind, scale) in _KEYS[section].items():
        if data.get(key) is not None:
            try:
                kwargs[name] = _convert(data[key], kind, where + key) * scale
            except ValueError as exc:
                errors.append(str(exc))
    return kwargs


def _build(cls, kwargs: dict, errors: list[str], where: str):
    """``cls(**kwargs)``; on failure every problem is reported and ``cls()`` stands in."""
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        errors.extend(f"{where}: {e}" for e in getattr(exc, "errors", [exc]))
        return cls()


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
    surfaces = default_surfaces(**_read(refl, "room.reflectivity", errors))
    aps = []
    aps_raw = data.get("aps") or []
    for i, entry in enumerate(aps_raw if isinstance(aps_raw, list) else []):
        entry = entry if isinstance(entry, dict) else {"position": entry}
        kwargs = _read(entry, "room.aps[]", errors, f"room.aps[{i}].")
        if entry.get("ld_power_w") is not None:
            kwargs["ld_power_w"] = _section(entry, "ld_power_w", errors, f"room.aps[{i}].")
        try:
            aps.append(AccessPointSpec(position=Vec3.from_iterable(entry["position"]), **kwargs))
        except (TypeError, ValueError, KeyError) as exc:
            errors.append(f"room.aps[{i}] invalid: {exc}")
    if not aps:
        errors.append("room.aps must list at least one access point")
        return None
    return RoomSpec(width, length, height, surfaces, tuple(aps), **_read(data, "room", errors))


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
            scenario = _convert(raw["scenario"], int, "scenario")
            users = scenario_preset(room.name, scenario)
            scenario_label = str(scenario)
        except ValueError as exc:
            errors.append(str(exc))
    else:
        errors.append("config must list users or name a scenario preset for a standard room")

    kwargs = {**_read(raw, "", errors), **_read(_section(raw, "channel", errors), "channel", errors)}
    fe_raw = _section(raw, "frontend", errors)
    fe_kwargs = _read(fe_raw, "frontend", errors)
    if fe_raw.get("responsivities") is not None:
        fe_kwargs["responsivity_a_w"] = _section(fe_raw, "responsivities", errors, "frontend.")
    solver_kwargs = _read(_section(raw, "solver", errors), "solver", errors)
    if "solver_mode" in solver_kwargs:  # ExperimentConfig's field, not SolverConfig's
        kwargs["solver_mode"] = solver_kwargs.pop("solver_mode")
    front_end = _build(link.ReceiverFrontEnd, fe_kwargs, errors, "frontend")
    solver = _build(allocator.SolverConfig, solver_kwargs, errors, "solver")

    if room is None:
        raise ConfigError(errors)

    config = ExperimentConfig(room=room, users=users, solver=solver, front_end=front_end,
                              room_label=room_label, scenario_label=scenario_label, **kwargs)
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
    model = link.SinrModel(table, config.front_end)
    reports = [model.link_report(u, assignment.entries) for u in sorted(assignment.entries)]

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
