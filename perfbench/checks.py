"""Output checks: report rows against a golden or recorded reference."""

from __future__ import annotations

import math

# Tolerances of tests/test_experiment.py::test_matches_golden_report.
SINR_ABS_DB = 1e-6
BANDWIDTH_REL = 1e-9
RATE_REL = 1e-9


def _close(a: float, b: float, rel: float = 0.0, abs_: float = 0.0) -> bool:
    # the same rule as pytest.approx: |a - b| <= max(rel * |b|, abs)
    return abs(a - b) <= max(rel * abs(b), abs_)


def compare_report(reference: str, current: str) -> list[str]:
    """Differences between two report.csv texts; empty when they agree.

    Identity columns (user, room, scenario, AP, branch, wavelength) and the
    FEC flag must match exactly; SINR, bandwidth and rate within tolerance.
    """
    ref = reference.strip().splitlines()
    cur = current.strip().splitlines()
    if not ref or not cur or ref[0] != cur[0]:
        return ["header differs"]
    if len(ref) != len(cur):
        return [f"{len(cur) - 1} rows, reference has {len(ref) - 1}"]
    problems = []
    for line_no, (r_row, c_row) in enumerate(zip(ref[1:], cur[1:]), start=2):
        r, c = r_row.split(","), c_row.split(",")
        if len(r) != 10 or len(c) != 10:
            problems.append(f"line {line_no}: expected 10 columns")
            continue
        if r[:6] != c[:6] or r[9] != c[9]:
            problems.append(f"line {line_no}: {c_row!r} != {r_row!r}")
            continue
        try:
            values = [float(x) for x in (c[6], r[6], c[7], r[7], c[8], r[8])]
        except ValueError:
            problems.append(f"line {line_no}: non-numeric value")
            continue
        if any(math.isnan(x) for x in values):
            problems.append(f"line {line_no}: NaN")
            continue
        sinr_c, sinr_r, bw_c, bw_r, rate_c, rate_r = values
        if not _close(sinr_c, sinr_r, abs_=SINR_ABS_DB):
            problems.append(f"line {line_no}: sinr_db {sinr_c} vs {sinr_r}")
        if not _close(bw_c, bw_r, rel=BANDWIDTH_REL):
            problems.append(f"line {line_no}: bandwidth_hz {bw_c} vs {bw_r}")
        if not _close(rate_c, rate_r, rel=RATE_REL):
            problems.append(f"line {line_no}: rate_bps {rate_c} vs {rate_r}")
    return problems
