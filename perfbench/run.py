"""vlcwdma benchmark: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload presets --seed 1 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one process each

Run from anywhere; the package is imported from ``src/`` next to this
directory. With ``--trace 0`` it prints the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a separate traced run. Every metric
is printed by name with its unit, then the run context, and the last line
of standard output is one JSON object: correct, attempted, failed, metrics.
The full result (tail percentile, sample counts, context, problems) is also
written to ``perfbench/out/``; the traced run writes its spans there too.
The exit code is 0 only when the run completed, whatever the checks found.
"""

import time

T_PROCESS = time.perf_counter()   # set-up time counts from here

import os

# one thread for numpy's BLAS as well: the load is a single client
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

from checks import compare_report
from metrics import instance_median, tail

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
# Set-up is sampled across the run, so that its median, like the timed
# metrics, spans the run instead of catching the host's speed at one
# moment: the inputs are built twice before the timed phase and once after
# it, and the import is timed once more in a fresh interpreter after each
# pass, outside the timed phase.
SETUP_REPEATS = (2, 1)
WORKLOAD_NAMES = ("presets", "fine_grid")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="length of the timed phase; the benchmark's command line passes "
                         "run_seconds of BENCHMARK.json, which is also the default")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def git_commit() -> str:
    """HEAD of the checkout when it is a git repository, read without git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_context(args, seconds) -> dict:
    import numpy
    return {
        "workload": args.workload, "seed": args.seed, "seconds": seconds, "trace": args.trace,
        "cpu_count": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "machine": platform.machine(), "git_commit": git_commit(),
    }


def closed_loop(workload, seconds, body, between_passes=lambda: None) -> tuple[float, int]:
    """Whole passes, one instance at a time, while the next pass is expected
    to end within ``seconds``; at least one pass. ``between_passes`` runs
    after each pass and is not counted in the phase. Returns (phase s, passes)."""
    start = perf_counter()
    outside = 0.0
    passes = 0
    while True:
        for key in workload.pass_keys(passes):
            body(passes, key)
        passes += 1
        t0 = perf_counter()
        between_passes()
        outside += perf_counter() - t0
        elapsed = perf_counter() - start - outside
        if elapsed + elapsed / passes > seconds:
            return elapsed, passes


def timed_instance(workload, key):
    """One untraced instance; only the instance itself is timed, not its checks."""
    t0 = perf_counter()
    result = workload.run(key)
    seconds = perf_counter() - t0
    return seconds, workload.outcome(key, result)


class Loop:
    """The records of one timed phase and the checks run over them."""

    def __init__(self, workload, run_one):
        self.wl = workload
        self.run_one = run_one          # (pass index, key) -> (instance seconds, Outcome)
        self.records = []               # (pass index, key, seconds, Outcome or None)
        self.attempted = 0

    def body(self, index, key):
        self.attempted += 1
        try:
            seconds, out = self.run_one(index, key)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.records.append((index, key, None, None))
            return
        self.records.append((index, key, seconds, out))

    def check(self) -> int:
        """Attach every failed check to its outcome; return failed instances."""
        first = {}
        for _, key, _, out in self.records:
            if out is None:
                continue
            if key not in first:
                first[key] = out
                ref_path = self.wl.reference_path(key)
                if ref_path is not None:
                    out.problems.extend(f"{key}: {p}" for p in _compare_to_file(ref_path, out.report_text))
            elif out.digests != first[key].digests:
                out.problems.append(f"{key}: CSVs differ from the first pass")
        return sum(1 for *_, out in self.records if out is None or out.problems)

    def outcomes(self):
        return [out for *_, out in self.records if out is not None]

    def problems(self):
        return [p for out in self.outcomes() for p in out.problems]


def _compare_to_file(ref_path, text):
    try:
        with open(ref_path) as fh:
            reference = fh.read()
    except OSError as exc:
        return [f"reference unreadable: {exc}"]
    return compare_report(reference, text)


def end_to_end(loop: Loop, failed: int, phase_s: float, setup_s: float) -> tuple[dict, dict]:
    done = [(i, key, s, out) for i, key, s, out in loop.records if out is not None]
    times = [s for _, _, s, _ in done]
    by_key: dict[str, list[float]] = {}
    pass_sums: dict[int, float] = {}
    for i, key, s, out in done:
        by_key.setdefault(key, []).append(s)
        pass_sums[i] = pass_sums.get(i, 0.0) + out.objective
    p50 = instance_median(by_key)
    tail_info = tail(times, median=p50)
    values = {
        "setup_s": setup_s,
        "run_s_p50": p50,
        "run_s_tail": tail_info["value"],
        "instances_per_s": len(times) / phase_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "objective_db_sum": statistics.median(pass_sums.values()),
        "user_rate_gbps_mean": statistics.fmean(r for *_, out in done for r in out.rates_bps) / 1e9,
        "proven_optimal_frac": statistics.fmean(out.proven for *_, out in done),
        "failed_frac": failed / loop.attempted,
    }
    details = {"run_s_tail": tail_info, "instances": len(times), "phase_s": phase_s,
               "instance_s_by_key": {k: statistics.median(v) for k, v in by_key.items()}}
    return values, details


def import_seconds() -> float:
    """Time to import this script's modules and the package in a fresh
    interpreter."""
    code = ("import sys, time; t = time.perf_counter(); sys.path[:0] = sys.argv[1:]; "
            "import run, workloads; print(time.perf_counter() - t)")
    return float(subprocess.run([sys.executable, "-c", code, HERE, SRC], check=True,
                                stdout=subprocess.PIPE, text=True).stdout)


def build_inputs(workloads, args, work: str, repeats: int):
    """Build the workload's inputs in ``work`` ``repeats`` times; return the
    last build and the seconds each took."""
    times = []
    for _ in range(repeats):
        shutil.rmtree(work, ignore_errors=True)
        t0 = perf_counter()
        wl = workloads.make(args.workload)
        wl.setup(work, args.seed)
        times.append(perf_counter() - t0)
    return wl, times


def run_workload(args, seconds, spec) -> dict:
    sys.path.insert(0, SRC)
    import workloads
    import_times = [perf_counter() - T_PROCESS]

    work = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    late_work = work + "-late"
    wl, setup_times = build_inputs(workloads, args, work, SETUP_REPEATS[0])

    try:
        if args.trace:
            import layers
            traced = layers.TracedRun(wl)
            loop = Loop(wl, traced.instance)
            phase_s, passes = closed_loop(wl, seconds, loop.body)
            failed = loop.check()
            values = traced.metrics(loop.outcomes())
            problems = loop.problems()
            spans_path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl")
            traced.tracer.write(spans_path)
            details = {"spans": os.path.relpath(spans_path, ROOT), "passes": passes, "phase_s": phase_s,
                       "instances": len(loop.outcomes())}
            wanted = spec["per_layer"]
        else:
            loop = Loop(wl, lambda i, key: timed_instance(wl, key))
            phase_s, passes = closed_loop(wl, seconds, loop.body,
                                          lambda: import_times.append(import_seconds()))
            setup_times += build_inputs(workloads, args, late_work, SETUP_REPEATS[1])[1]
            setup_s = statistics.median(import_times) + statistics.median(setup_times)
            failed = loop.check()
            values, details = end_to_end(loop, failed, phase_s, setup_s)
            problems = loop.problems()
            details["passes"] = passes
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        shutil.rmtree(late_work, ignore_errors=True)

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics not computed: {missing}")
    details["setup_s_repeats"] = setup_times
    details["import_s_repeats"] = import_times
    return {
        "context": run_context(args, seconds),
        "attempted": loop.attempted, "failed": failed, "problems": problems,
        "values": values, "details": details,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }


def print_result(result, spec) -> None:
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units["failed_frac"] = "frac"
    for name, value in result["values"].items():
        line = f"{name:32s} {value:.6g} {units.get(name, '')}"
        if name == "run_s_tail":
            t = result["details"]["run_s_tail"]
            line += f"  (p{t['percentile']:g} of {t['samples']} instances, {t['beyond']} beyond)"
        print(line)
    for p in result["problems"]:
        print("problem:", p)
    print("context:", json.dumps(result["context"], sort_keys=True))
    print(json.dumps({
        "correct": result["failed"] == 0 and not result["problems"],
        "attempted": result["attempted"], "failed": result["failed"],
        "metrics": result["metrics"],
    }))


def run_all(args, seconds) -> int:
    """Each workload in its own process, one after the other."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        print(f"== {name}", flush=True)
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        last = json.loads(lines[-1])
        summary["correct"] &= last["correct"]
        summary["attempted"] += last["attempted"]
        summary["failed"] += last["failed"]
        for metric, value in last["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    for required in (SPEC_PATH, os.path.join(SRC, "vlcwdma", "__init__.py")):
        if not os.path.isfile(required):
            print(f"error: {required} not found; run from a vlcwdma checkout", file=sys.stderr)
            return 2
    with open(SPEC_PATH) as fh:
        spec = json.load(fh)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if args.workload == "all":
        return run_all(args, seconds)
    os.makedirs(OUT, exist_ok=True)
    result = run_workload(args, seconds, spec)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    print_result(result, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
