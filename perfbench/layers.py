"""The traced run: per-layer metrics from spans and from direct probes.

Spans are recorded from the benchmark's own code around each call into a
layer (``scene``, ``channel``, ``allocator``, ``link``, ``fileio``,
``experiment``); nothing inside the program is instrumented. Each instance
runs twice in a row, untraced and traced, so the tracing overhead is the
median difference of the two and the traced copy's CSVs can be checked
against the untraced ones byte for byte. That difference is mostly the
host's speed changing between the copies; ``trace.span_cost_s`` gives the
tracer's own cost from a timed loop of empty spans instead.

Span-based ``*_s`` metrics are self time per instance. Probes time layer
calls that the workload's instances do not make, or make in a form that a
span cannot split (bounce orders, allocation of memory).
"""

from __future__ import annotations

import os
import statistics
import tracemalloc
from time import perf_counter

from vlcwdma import allocator, channel
from vlcwdma.scene import WAVELENGTHS, default_branches, discretize

from metrics import Tracer, instance_median, self_times

LINK_METRICS_SAMPLE = 8      # impulse responses timed through metrics_from_response
LINK_METRICS_REPEATS = 20
UNCAPPED_K = 10**9
SPAN_COST_BATCHES = 5
SPAN_COST_SPANS = 2000

# span name -> per-layer metric
SPAN_METRICS = {
    "scene.discretize": "scene.discretize_s",
    "channel.gain_matrix": "channel.gain_matrix_s",
    "channel.write_csv": "channel.write_csv_s",
    "allocator.solve_exact": "allocator.solve_exact_s",
    "link.link_report": "link.link_report_s",
    "fileio.write": "fileio.write_s",
}


def _group_self_times(tracer: Tracer) -> tuple[dict[str, float], int]:
    """Per-name self time summed over all instances, and the instance count."""
    totals: dict[str, float] = {}
    roots = 0
    for rec, st in zip(tracer.spans, self_times(tracer.spans)):
        if rec["parent"] is None:
            roots += 1
        else:
            totals[rec["name"]] = totals.get(rec["name"], 0.0) + st
    return totals, roots


def _children_time(tracer: Tracer, root: int) -> float:
    return sum(r["end"] - r["start"] for r in tracer.spans if r["parent"] == root)


def span_cost_s() -> float:
    """Seconds one empty span costs the tracer, median of a few batches."""
    per_span = []
    for _ in range(SPAN_COST_BATCHES):
        tracer = Tracer()
        t0 = perf_counter()
        for _ in range(SPAN_COST_SPANS):
            with tracer.span("x"):
                pass
        per_span.append((perf_counter() - t0) / SPAN_COST_SPANS)
    return statistics.median(per_span)


def traced_instance(tracer: Tracer, instance_id: str, fn):
    """Run fn under a root span; return (result, root span index)."""
    tracer.instance = instance_id
    root = len(tracer.spans)
    with tracer.span("instance"):
        result = fn()
    tracer.instance = None
    return result, root


class TracedRun:
    """Collects the traced run's records and turns them into metrics."""

    def __init__(self, workload):
        self.wl = workload
        self.tracer = Tracer()
        self.keys: list[str] = []
        self.untraced_s: list[float] = []
        self.traced_s: list[float] = []
        self.roots: list[int] = []      # the replay's root span, per instance

    def instance(self, index: int, key: str):
        """Untraced and traced copy of one instance; returns the untraced
        copy's seconds and outcome. The copies take turns going first, so
        that warm-up effects do not all land on one side of the overhead."""
        wl = self.wl

        def plain():
            t0 = perf_counter()
            result = wl.run(key)
            seconds = perf_counter() - t0
            return seconds, wl.outcome(key, result)

        def traced():
            result, root = traced_instance(self.tracer, f"{key}#{len(self.traced_s)}",
                                           lambda: wl.replay(key, self.tracer))
            return root, wl.outcome(key, result)

        if len(self.traced_s) % 2 == 0:
            seconds, plain_out = plain()
            root, traced_out = traced()
        else:
            root, traced_out = traced()
            seconds, plain_out = plain()
        rec = self.tracer.spans[root]
        self.keys.append(key)
        self.untraced_s.append(seconds)
        self.traced_s.append(rec["end"] - rec["start"])
        self.roots.append(root)
        if traced_out.digests != plain_out.digests:
            plain_out.problems.append(f"{key}: traced copy wrote different CSVs")
        plain_out.problems.extend(traced_out.problems)
        return seconds, plain_out

    def metrics(self, outcomes) -> dict[str, float]:
        m: dict[str, float] = {}
        totals, n = _group_self_times(self.tracer)
        for span_name, metric in SPAN_METRICS.items():
            m[metric] = totals.get(span_name, 0.0) / n
        # Medians over pairs: a single pair's difference is mostly the
        # host's speed changing between the two copies.
        by_key: dict[str, list[float]] = {}
        for key, s in zip(self.keys, self.untraced_s):
            by_key.setdefault(key, []).append(s)
        m["experiment.run_experiment_s"] = instance_median(by_key)
        m["experiment.unaccounted_s"] = statistics.median(
            s - _children_time(self.tracer, root) for s, root in zip(self.untraced_s, self.roots))
        m["trace.overhead_s"] = statistics.median(
            t - u for t, u in zip(self.traced_s, self.untraced_s))
        m["trace.span_cost_s"] = span_cost_s() * len(self.tracer.spans) / n
        m["fileio.bytes_written"] = statistics.fmean(o.bytes_written for o in outcomes)
        m.update(self._probes(m))
        return m

    def _probes(self, m) -> dict[str, float]:
        out: dict[str, float] = {}
        configs = list(self.wl.configs.values())
        order_s = [0.0, 0.0, 0.0]
        peak = 0.0
        tables, scenes = [], []
        elements = [0, 0]
        for cfg in configs:
            scene = discretize(cfg.room, cfg.dx1_m, cfg.dx2_m)
            scenes.append(scene)
            elements[0] += len(scene.elements(1))
            elements[1] += len(scene.elements(2))
            kw = dict(branches=default_branches(), dt=cfg.dt_s, f_cap=cfg.f_cap_hz,
                      dispersion_factor=cfg.dispersion_factor, workers=cfg.workers)
            for order in (0, 1, 2):
                t0 = perf_counter()
                table = channel.gain_matrix(scene, cfg.users, max_order=order, **kw)
                order_s[order] += perf_counter() - t0
            tables.append(table)
            tracemalloc.start()
            channel.gain_matrix(scene, cfg.users, max_order=cfg.max_order, **kw)
            peak = max(peak, tracemalloc.get_traced_memory()[1] / 2**20)
            tracemalloc.stop()
        n = len(configs)
        out["scene.elements_1"] = elements[0] / n
        out["scene.elements_2"] = elements[1] / n
        out["channel.order0_s"] = order_s[0] / n
        out["channel.order1_s"] = (order_s[1] - order_s[0]) / n
        out["channel.order2_s"] = (order_s[2] - order_s[1]) / n
        out["channel.gain_matrix_peak_mb"] = peak
        cells = sum(t.dc.size for t in tables)
        lit = sum(int((t.dc > 0).sum()) for t in tables)
        capped = sum(int(((t.dc > 0) & t.bandwidth_capped).sum()) for t in tables)
        out["channel.cells"] = cells / len(tables)
        out["channel.cells_per_s"] = out["channel.cells"] / m["channel.gain_matrix_s"]
        out["channel.lit_cells_frac"] = lit / cells
        out["channel.capped_frac"] = capped / lit

        out["channel.link_metrics_s"] = _link_metrics_s(scenes[0], configs[0], tables[0])

        t0 = perf_counter()
        for cfg in configs:
            channel.GainTable.read_csv(os.path.join(cfg.out_dir, "gain_table.csv"))
        out["channel.read_csv_s"] = (perf_counter() - t0) / n

        cand_s, n_cands, binding, n_users = 0.0, 0, 0, 0
        default_k = allocator.SolverConfig().k
        uncapped = allocator.SolverConfig(k=UNCAPPED_K)
        for table in tables:
            t0 = perf_counter()
            lists = [allocator.candidates(u, table) for u in range(table.n_users)]
            cand_s += perf_counter() - t0
            n_cands += sum(len(c) for c in lists)
            n_users += table.n_users
            binding += sum(len(allocator.candidates(u, table, config=uncapped)) > default_k
                           for u in range(table.n_users))
        out["allocator.candidates_s"] = cand_s / len(tables)
        out["allocator.candidates_per_user"] = n_cands / n_users
        out["allocator.cap_binding_frac"] = binding / n_users

        t0 = perf_counter()
        for table in tables:
            allocator.solve_greedy(range(table.n_users), table)
        out["allocator.solve_greedy_s"] = (perf_counter() - t0) / len(tables)
        return out


def _link_metrics_s(scene, cfg, table) -> float:
    """Mean seconds per metrics_from_response call over a fixed sample of
    impulse responses: the first lit (branch, AP, wavelength) cells of user 0."""
    branches = default_branches()
    irs = []
    for b in range(table.n_branches):
        for a in range(table.n_aps):
            for wl in WAVELENGTHS:
                if table.dc[0, b, a, wl.index] > 0 and len(irs) < LINK_METRICS_SAMPLE:
                    irs.append(channel.impulse_response(
                        scene, scene.room.aps[a], cfg.users[0], branches[b], wl,
                        max_order=cfg.max_order, dt=cfg.dt_s))
    times = []
    for _ in range(LINK_METRICS_REPEATS):
        t0 = perf_counter()
        for ir in irs:
            channel.metrics_from_response(ir, f_cap=cfg.f_cap_hz,
                                          dispersion_factor=cfg.dispersion_factor)
        times.append((perf_counter() - t0) / len(irs))
    return statistics.median(times)
