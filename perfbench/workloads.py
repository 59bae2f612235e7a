"""The benchmark's workloads: their inputs, one instance each, and its checks.

An instance is the unit the closed loop times; a pass is the list of
instances that makes up the workload once.

- presets: the six paper presets through ``run_experiment`` (one pass = 6).
- fine_grid: Room A scenario 2 on a 0.125 m / 0.25 m element grid (one pass = 1).
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
from dataclasses import dataclass, field

from vlcwdma import allocator, channel, link
from vlcwdma.experiment import ExperimentConfig, RunResult, preset_config, run_experiment
from vlcwdma.fileio import atomic_write
from vlcwdma.scene import default_branches, discretize

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE_DIR = os.path.join(HERE, "reference")
GOLDEN_B1 = os.path.join(ROOT, "tests", "golden", "report_room_b_s1.csv")

SOLVERS = {
    "exact": allocator.solve_exact,
    "greedy": allocator.solve_greedy,
}

FINE_DX1_M = 0.125
FINE_DX2_M = 0.25


@dataclass
class Outcome:
    """What the checks and metrics need from one finished instance."""

    objective: float
    proven: bool
    rates_bps: list[float]
    digests: dict[str, str]
    bytes_written: int
    report_text: str                   # the instance's report.csv
    problems: list[str] = field(default_factory=list)


def digests(files: dict[str, str]) -> dict[str, str]:
    out = {}
    for label, path in sorted(files.items()):
        with open(path, "rb") as fh:
            out[label] = hashlib.sha256(fh.read()).hexdigest()
    return out


def _bytes(files: dict[str, str]) -> int:
    return sum(os.path.getsize(p) for label, p in files.items() if label != "gain_table")


def write_outputs(out_dir, assignment, reports, table, room_label, scenario_label,
                  tracer) -> dict[str, str]:
    """The CSV writes of ``run_experiment``, in its order, with spans around them."""
    files = {name: os.path.join(out_dir, name + ".csv")
             for name in ("report", "assignment", "gain_table", "fig_bandwidth", "fig_sinr", "fig_rate")}
    with tracer.span("fileio.write"):
        atomic_write(files["report"], "\n".join(
            link.reports_csv_lines(reports, room=room_label, scenario=scenario_label)) + "\n")
        atomic_write(files["assignment"], "\n".join(allocator.assignment_csv_lines(assignment)) + "\n")
    with tracer.span("channel.write_csv"):
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
    with tracer.span("fileio.write"):
        atomic_write(files["fig_bandwidth"], "\n".join(bw_lines) + "\n")
        atomic_write(files["fig_sinr"], "\n".join(sinr_lines) + "\n")
        atomic_write(files["fig_rate"], "\n".join(rate_lines) + "\n")
    return files


def replay_experiment(config: ExperimentConfig, tracer) -> RunResult:
    """``run_experiment``'s call sequence with a span around each layer call.

    The traced run checks that this writes the same bytes as
    ``run_experiment``, so the replay cannot drift from the pipeline.
    """
    config.validate()
    with tracer.span("scene.discretize"):
        scene = discretize(config.room, config.dx1_m, config.dx2_m)
    with tracer.span("channel.gain_matrix"):
        table = channel.gain_matrix(
            scene, config.users, max_order=config.max_order,
            branches=default_branches(), dt=config.dt_s,
            f_cap=config.f_cap_hz, dispersion_factor=config.dispersion_factor,
            workers=config.workers,
        )
    with tracer.span("allocator.solve_" + config.solver_mode):
        assignment = SOLVERS[config.solver_mode](
            range(table.n_users), table, config.front_end, config.solver)
    assignment.validate()
    with tracer.span("link.link_report"):
        reports = [link.link_report(u, assignment.entries, table, config.front_end)
                   for u in sorted(assignment.entries)]
    files = write_outputs(config.out_dir, assignment, reports, table,
                          config.room_label, config.scenario_label, tracer)
    return RunResult(config, scene, table, assignment, reports, files, exit_code=0)


class PipelineWorkload:
    """Instances that are whole ``run_experiment`` calls on fixed configs."""

    def __init__(self, name: str, specs, **overrides):
        self.name = name
        self.specs = specs            # (key, room, scenario)
        self.overrides = overrides
        self.configs: dict[str, ExperimentConfig] = {}

    def setup(self, work_dir: str, seed: int) -> None:
        # the configs are fixed; the seed has nothing to vary here
        self.work_dir = work_dir
        self.configs = {
            key: preset_config(room, scenario, solver_mode="exact",
                               out_dir=os.path.join(work_dir, key), **self.overrides)
            for key, room, scenario in self.specs
        }

    def pass_keys(self, index: int) -> list[str]:
        return [key for key, _, _ in self.specs]

    def run(self, key: str):
        return run_experiment(self.configs[key], echo=None)

    def replay(self, key: str, tracer):
        cfg = dataclasses.replace(self.configs[key], out_dir=os.path.join(self.work_dir, key + "-replay"))
        return replay_experiment(cfg, tracer)

    def outcome(self, key: str, result: RunResult) -> Outcome:
        a = result.assignment
        a.validate()
        with open(result.files["report"]) as fh:
            report_text = fh.read()
        return Outcome(a.objective_value, a.proven_optimal,
                       [r.rate_bps for r in result.reports],
                       digests(result.files), _bytes(result.files), report_text)

    def reference_path(self, key: str) -> str:
        if self.name == "presets" and key == "B1":
            return GOLDEN_B1
        return os.path.join(REFERENCE_DIR, f"{self.name}-{key}.report.csv")


PRESET_SPECS = tuple((f"{r}{s}", r, s) for r in "ABC" for s in (1, 2))


def make(name: str):
    if name == "presets":
        return PipelineWorkload("presets", PRESET_SPECS)
    if name == "fine_grid":
        return PipelineWorkload("fine_grid", (("A2", "A", 2),), dx1_m=FINE_DX1_M, dx2_m=FINE_DX2_M)
    raise ValueError(f"unknown workload {name!r}")

