"""Resource allocation: one (AP, branch, wavelength) triple per user.

The hard constraint is that no (AP, wavelength) pair may serve two users;
the objective is the sum of the users' SINRs. Because every (AP, wavelength)
pair radiates at full power whether modulated or not, a user's noise floor
depends only on its branch, so the interference-free SINR of a candidate is
a true upper bound on its SINR in any assignment. That makes the
branch-and-bound bound below admissible: partial score plus the best
interference-free SINR of the remaining users' feasible candidates.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, replace
from functools import partial
from typing import Mapping, Sequence

from .channel import GainTable
from .link import DEFAULT_FRONT_END, ReceiverFrontEnd, SinrModel
from .scene import WAVELENGTHS, ConfigError, Wavelength

EXHAUSTIVE_SPACE_LIMIT = 1e7
_BOUND_SLACK = 1e-6  # absorbs float summation-order noise in the bound


class InfeasibleUserError(ValueError):
    """A user has no candidate with positive signal gain."""


class SearchSpaceLimitError(ValueError):
    """The exhaustive oracle refuses instances beyond its enumeration limit."""


@dataclass(frozen=True)
class Candidate:
    """One admissible (AP, branch, wavelength) triple for a user."""

    user: int
    ap: int
    branch: int
    wavelength: Wavelength
    iso_sinr_db: float  # interference-free SINR upper bound

    @property
    def key(self) -> tuple[int, int, int]:
        return (self.ap, self.branch, self.wavelength.index)

    @property
    def resource(self) -> tuple[int, int]:
        return (self.ap, self.wavelength.index)


@dataclass
class Assignment:
    """Per-user picks plus the achieved objective."""

    entries: dict[int, Candidate]
    objective_value: float
    objective_scale: str = "db"
    proven_optimal: bool = True

    def validate(self) -> None:
        seen: dict[tuple[int, int], int] = {}
        for user, cand in self.entries.items():
            if cand.user != user:
                raise ValueError(f"entry for user {user} carries candidate of user {cand.user}")
            if cand.resource in seen:
                raise ValueError(
                    f"(AP {cand.ap + 1}, {cand.wavelength.value}) reused by users "
                    f"{seen[cand.resource]} and {user}"
                )
            seen[cand.resource] = user

    def key(self) -> tuple:
        return tuple(self.entries[u].key for u in sorted(self.entries))


@dataclass(frozen=True)
class SolverConfig:
    objective: str = "db"          # "db" (sum of dB values) or "linear"
    k: int = 16                    # candidate cap per user
    time_limit_s: float | None = None

    def __post_init__(self) -> None:
        errors = []
        if self.objective not in ("db", "linear"):
            errors.append(f"objective must be 'db' or 'linear', got {self.objective!r}")
        if self.k < 1:
            errors.append(f"candidate cap must be >= 1, got {self.k}")
        if self.time_limit_s is not None and not self.time_limit_s >= 0.0:  # NaN fails too
            errors.append(f"time limit must be >= 0 seconds, got {self.time_limit_s}")
        if errors:
            raise ConfigError(errors)


def _score(model: SinrModel, cands: Sequence[Candidate], scale: str) -> float:
    """Sum of the users' SINRs in dB or linear; -inf if any user has no signal."""
    total = 0.0
    for cand in cands:
        lin = model.sinr_linear(cand.user, cand, cands)
        if lin <= 0.0:
            return float("-inf")
        total += 10.0 * math.log10(lin) if scale == "db" else lin
    return total


def candidates(
    user: int,
    table: GainTable,
    front_end: ReceiverFrontEnd = DEFAULT_FRONT_END,
    config: SolverConfig = SolverConfig(),
) -> list[Candidate]:
    """All positive-gain triples for a user, best interference-free SINR first."""
    model = SinrModel(table, front_end)
    out = []
    for b in range(table.n_branches):
        for a in range(table.n_aps):
            for wl in WAVELENGTHS:
                if table.dc[user, b, a, wl.index] > 0.0:
                    cand = Candidate(user, a, b, wl, 0.0)
                    lin = model.sinr_linear(user, cand, ())
                    if lin > 0.0:
                        out.append(replace(cand, iso_sinr_db=10.0 * math.log10(lin)))
    if not out:
        raise InfeasibleUserError(f"user {user} has no (AP, branch, wavelength) with positive gain")
    out.sort(key=lambda c: (-c.iso_sinr_db, c.key))
    return out[: config.k]


def objective(
    assignment: Assignment | Mapping[int, Candidate],
    table: GainTable,
    front_end: ReceiverFrontEnd = DEFAULT_FRONT_END,
    config: SolverConfig = SolverConfig(),
) -> float:
    """Exact objective: sum of the users' SINRs, on the configured scale."""
    entries = assignment.entries if isinstance(assignment, Assignment) else dict(assignment)
    # fixed summation order, independent of dict order
    return _score(SinrModel(table, front_end), [entries[u] for u in sorted(entries)], config.objective)


def _finalize(picks: Sequence[Candidate], evaluate, config: SolverConfig, proven: bool) -> Assignment:
    entries = {c.user: c for c in picks}
    result = Assignment(
        entries=entries,
        objective_value=evaluate([entries[u] for u in sorted(entries)]),  # objective()'s order
        objective_scale=config.objective,
        proven_optimal=proven,
    )
    result.validate()
    return result


def solve_exhaustive(
    users: Sequence[int],
    table: GainTable,
    front_end: ReceiverFrontEnd = DEFAULT_FRONT_END,
    config: SolverConfig = SolverConfig(),
) -> Assignment:
    """Globally optimal assignment by full enumeration (small instances only)."""
    users = list(users)
    if not users:
        return Assignment({}, 0.0, config.objective, True)
    cand_lists = [candidates(u, table, front_end, config) for u in users]
    space = 1.0
    for lst in cand_lists:
        space *= len(lst)
    if space > EXHAUSTIVE_SPACE_LIMIT:
        raise SearchSpaceLimitError(
            f"search space {space:.3g} exceeds the {EXHAUSTIVE_SPACE_LIMIT:.0g} limit"
        )
    evaluate = partial(_score, SinrModel(table, front_end), scale=config.objective)
    best_score = float("-inf")
    best: tuple[Candidate, ...] | None = None
    best_key: tuple | None = None
    for combo in itertools.product(*cand_lists):
        resources = set()
        ok = True
        for c in combo:
            if c.resource in resources:
                ok = False
                break
            resources.add(c.resource)
        if not ok:
            continue
        score = evaluate(combo)
        key = tuple(c.key for c in sorted(combo, key=lambda c: c.user))
        if score > best_score or (score == best_score and (best_key is None or key < best_key)):
            best_score, best, best_key = score, combo, key
    if best is None:
        raise InfeasibleUserError("no feasible assignment exists for the instance")
    return _finalize(best, evaluate, config, proven=True)


def _first_feasible(order, idx, picks, used, cand_lists):
    """Depth-first search for any conflict-free completion, candidate order."""
    if idx == len(order):
        return dict(picks)
    u = order[idx]
    for c in cand_lists[u]:
        if c.resource in used:
            continue
        picks[u] = c
        used.add(c.resource)
        out = _first_feasible(order, idx + 1, picks, used, cand_lists)
        if out is not None:
            return out
        del picks[u]
        used.discard(c.resource)
    return None


def _greedy_construct(order, cand_lists, evaluate) -> dict[int, Candidate] | None:
    """Score-greedy placement; falls back to plain feasibility search on a
    dead end so a feasible instance never fails to produce an assignment."""
    picks: dict[int, Candidate] = {}
    used: set[tuple[int, int]] = set()
    for i, u in enumerate(order):
        best_c, best_s = None, float("-inf")
        placed = list(picks.values())
        for c in cand_lists[u]:
            if c.resource in used:
                continue
            s = evaluate(placed + [c])
            if s > best_s:
                best_c, best_s = c, s
        if best_c is None:
            return _first_feasible(order, i, picks, used, cand_lists)
        picks[u] = best_c
        used.add(best_c.resource)
    return picks


def _local_search(picks, order, cand_lists, evaluate) -> float:
    """Pairwise joint reassignment (2-opt), in place, to a local optimum.

    A pair move also covers a single reassignment (the other user keeps its
    pick) and an ejection chain (``u`` and the holder of the resource it
    takes), since both users' resources are free to the pair.
    """
    score_now = evaluate(list(picks.values()))
    improved = True
    rounds = 0
    while improved and rounds < 50:
        improved = False
        rounds += 1
        for ua, ub in itertools.combinations(order, 2):
            rest = [picks[x] for x in order if x not in (ua, ub)]
            taken = {c.resource for c in rest}
            best_pair, best_s = (picks[ua], picks[ub]), score_now
            for ca in cand_lists[ua]:
                if ca.resource in taken:
                    continue
                for cb in cand_lists[ub]:
                    if cb.resource in taken or cb.resource == ca.resource:
                        continue
                    s = evaluate(rest + [ca, cb])
                    if s > best_s + 1e-12:
                        best_pair, best_s = (ca, cb), s
            if best_pair != (picks[ua], picks[ub]):
                picks[ua], picks[ub] = best_pair
                score_now = best_s
                improved = True
    return score_now


def solve_greedy(
    users: Sequence[int],
    table: GainTable,
    front_end: ReceiverFrontEnd = DEFAULT_FRONT_END,
    config: SolverConfig = SolverConfig(),
) -> Assignment:
    """Greedy construction plus local search, restarted over rotated orders."""
    users = list(users)
    if not users:
        return Assignment({}, 0.0, config.objective, True)
    cand_lists = {u: candidates(u, table, front_end, config) for u in users}
    evaluate = partial(_score, SinrModel(table, front_end), scale=config.objective)
    order = sorted(users, key=lambda u: (-cand_lists[u][0].iso_sinr_db, u))

    best_picks: dict[int, Candidate] | None = None
    best_score = float("-inf")
    best_key: tuple | None = None
    n_starts = min(len(order), 8)
    for shift in range(n_starts):
        start_order = order[shift:] + order[:shift]
        picks = _greedy_construct(start_order, cand_lists, evaluate)
        if picks is None:
            continue
        score = _local_search(picks, order, cand_lists, evaluate)
        key = tuple(picks[u].key for u in sorted(picks))
        if score > best_score or (score == best_score and (best_key is None or key < best_key)):
            best_picks, best_score, best_key = dict(picks), score, key
    if best_picks is None:
        best_picks = _first_feasible(order, 0, {}, set(), cand_lists)
        if best_picks is None:
            raise InfeasibleUserError("no conflict-free assignment exists for the instance")
        _local_search(best_picks, order, cand_lists, evaluate)
    return _finalize([best_picks[u] for u in order], evaluate, config, proven=False)


def solve_exact(
    users: Sequence[int],
    table: GainTable,
    front_end: ReceiverFrontEnd = DEFAULT_FRONT_END,
    config: SolverConfig = SolverConfig(),
) -> Assignment:
    """Branch-and-bound over each user's top-``config.k`` candidates.

    Depth-first and best-first; the first complete assignment is the first
    incumbent. ``proven_optimal`` is relative to the candidate lists. A time
    limit is checked only once an incumbent exists, and the unproven
    assignment it then returns depends on the clock.
    """
    users = list(users)
    if not users:
        return Assignment({}, 0.0, config.objective, True)
    cand_lists = {u: candidates(u, table, front_end, config) for u in users}
    evaluate = partial(_score, SinrModel(table, front_end), scale=config.objective)
    order = sorted(users, key=lambda u: (-cand_lists[u][0].iso_sinr_db, u))
    deadline = None if config.time_limit_s is None else time.monotonic() + config.time_limit_s
    incumbent: list[Candidate] | None = None
    best_score = float("-inf")
    best_key: tuple | None = None

    def iso_value(db: float) -> float:
        return db if config.objective == "db" else 10.0 ** (db / 10.0)

    def remaining_bound(depth: int, used: set[tuple[int, int]]) -> float:
        total = 0.0
        for u in order[depth:]:
            best = None
            for c in cand_lists[u]:
                if c.resource not in used:
                    best = c.iso_sinr_db
                    break
            if best is None:
                return float("-inf")
            total += iso_value(best)
        return total

    timed_out = False

    def dfs(depth: int, placed: list[Candidate], used: set[tuple[int, int]]) -> None:
        nonlocal best_score, best_key, incumbent, timed_out
        if timed_out or (incumbent is not None and deadline is not None and time.monotonic() > deadline):
            timed_out = True
            return
        if depth == len(order):
            score = evaluate(placed)
            key = tuple(c.key for c in sorted(placed, key=lambda c: c.user))
            if score > best_score or (score == best_score and (best_key is None or key < best_key)):
                best_score, best_key, incumbent = score, key, list(placed)
            return
        u = order[depth]
        for c in cand_lists[u]:
            if c.resource in used:
                continue
            placed.append(c)
            used.add(c.resource)
            rest = remaining_bound(depth + 1, used)  # -inf: some user has no free candidate
            if rest > float("-inf") and evaluate(placed) + rest >= best_score - _BOUND_SLACK:
                dfs(depth + 1, placed, used)
            placed.pop()
            used.discard(c.resource)

    dfs(0, [], set())
    if incumbent is None:
        raise InfeasibleUserError("no conflict-free assignment exists for the instance")
    return _finalize(incumbent, evaluate, config, proven=not timed_out)


def assignment_csv_lines(assignment: Assignment) -> list[str]:
    """Rows mirroring the per-user allocation tables (1-based ids)."""
    lines = ["user,ap,branch,wavelength"]
    for user in sorted(assignment.entries):
        c = assignment.entries[user]
        lines.append(f"{user + 1},{c.ap + 1},{c.branch + 1},{c.wavelength.value}")
    return lines
