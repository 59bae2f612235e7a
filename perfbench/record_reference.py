"""Record the reference report.csv of every fixed-input instance.

    python3 perfbench/record_reference.py

Writes perfbench/reference/<workload>-<instance>.report.csv for the
presets (except B1, which is checked against tests/golden) and fine_grid.
The benchmark compares each run's reports with these files; record them
again only when a change is meant to alter the reports.
"""

import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402


def main() -> None:
    work = os.path.join(HERE, "out", "record")
    os.makedirs(workloads.REFERENCE_DIR, exist_ok=True)
    try:
        for name in ("presets", "fine_grid"):
            wl = workloads.make(name)
            wl.setup(work, seed=0)
            for key in wl.pass_keys(0):
                target = wl.reference_path(key)
                if os.path.dirname(target) != workloads.REFERENCE_DIR:
                    continue
                result = wl.run(key)
                shutil.copyfile(result.files["report"], target)
                print("wrote", os.path.relpath(target, HERE))
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
