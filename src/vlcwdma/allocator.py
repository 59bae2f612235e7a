"""Resource allocation: one (AP, branch, wavelength) triple per user.

The hard constraint is that no (AP, wavelength) pair may serve two users;
the objective is the sum of the users' SINRs. Because every (AP, wavelength)
pair radiates at full power whether modulated or not, a user's noise floor
depends only on its branch, so the interference-free SINR of a candidate is
a true upper bound on its SINR in any assignment. Exact branch-and-bound
bounds the remaining users by their best assignment to distinct free (AP,
wavelength) resources at those values (Kuhn, 1955), solved in pure Python:
importing scipy's solver would about triple the package's import time.
It scores children incrementally, bit-identical to a full evaluation.
"""

from __future__ import annotations

import itertools
import math
import numbers
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

    def __post_init__(self) -> None:
        errors = []
        if self.objective not in ("db", "linear"):
            errors.append(f"objective must be 'db' or 'linear', got {self.objective!r}")
        if isinstance(self.k, bool) or not isinstance(self.k, numbers.Integral) or self.k < 1:
            errors.append(f"candidate cap must be an integer >= 1, got {self.k!r}")
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
    return _candidates(user, SinrModel(table, front_end), config)


def _candidates(user: int, model: SinrModel, config: SolverConfig) -> list[Candidate]:
    out = []
    for b, seen in enumerate(model.currents[user]):
        for a, wl in itertools.product(range(len(seen)), WAVELENGTHS):
            if seen[a][wl.index] > 0.0:
                cand = Candidate(user, a, b, wl, 0.0)
                lin = model.sinr_linear(user, cand, ())
                if lin > 0.0:
                    out.append(replace(cand, iso_sinr_db=10.0 * math.log10(lin)))
    if not out:
        raise InfeasibleUserError(f"user {user} has no (AP, branch, wavelength) with positive gain")
    out.sort(key=lambda c: (-c.iso_sinr_db, c.key))
    return out[: config.k]


def _finalize(picks: Sequence[Candidate], evaluate, config: SolverConfig, proven: bool) -> Assignment:
    entries = {c.user: c for c in picks}
    result = Assignment(
        entries=entries,
        objective_value=evaluate([entries[u] for u in sorted(entries)]),  # user order, not dict order
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
    model = SinrModel(table, front_end)
    cand_lists = [_candidates(u, model, config) for u in users]
    space = 1.0
    for lst in cand_lists:
        space *= len(lst)
    if space > EXHAUSTIVE_SPACE_LIMIT:
        raise SearchSpaceLimitError(
            f"search space {space:.3g} exceeds the {EXHAUSTIVE_SPACE_LIMIT:.0g} limit"
        )
    evaluate = partial(_score, model, scale=config.objective)
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
    """Pairwise joint reassignment (2-opt), in place, to a local optimum, in at
    most 50 rounds (no measured run needed more than 6). A pair move also
    covers a single reassignment (the other user keeps its pick) and an
    ejection chain (``u`` and the holder of the resource it takes), since
    both users' resources are free to the pair.
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
    model = SinrModel(table, front_end)
    cand_lists = {u: _candidates(u, model, config) for u in users}
    evaluate = partial(_score, model, scale=config.objective)
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


def _resource_weights(lists: Sequence[Sequence[Candidate]], scale: str):
    """Exact's bound weights: per list, column -> best isolated value on
    that (AP, wavelength) resource; and each resource's column."""
    columns: dict[tuple[int, int], int] = {}
    weights = []
    for cands in lists:
        row: dict[int, float] = {}
        for c in cands:  # best first, so a resource's first candidate is its best
            value = c.iso_sinr_db if scale == "db" else 10.0 ** (c.iso_sinr_db / 10.0)
            row.setdefault(columns.setdefault(c.resource, len(columns)), value)
        weights.append(row)
    return weights, columns


def _assignment_dual(weights: Sequence[Mapping[int, float]]):
    """Max-weight assignment of every row to a distinct column, by shortest
    augmenting paths (Jonker & Volgenant, 1987). ``weights[i]`` maps row i's
    allowed columns to weights. Returns ``(value, p, q)`` with duals
    ``p[i] + q[j] >= weights[i][j]``, ``q >= 0`` (absent means 0) and
    ``value = sum(p) + sum(q)``; None when a row has no augmenting path."""
    p = [0.0] * len(weights)
    q: dict[int, float] = {}
    owner: dict[int, int] = {}  # column -> its row
    for i in range(len(weights)):
        slack: dict[int, float] = {}  # reduced cost of each reached column
        via: dict[int, int | None] = {}  # column from whose row it was reached
        tree_rows, tree_cols = [i], set()
        row, reached_by = i, None
        while True:
            for j, w in weights[row].items():
                if j not in tree_cols:
                    s = p[row] + q.get(j, 0.0) - w
                    if j not in slack or s < slack[j]:
                        slack[j], via[j] = s, reached_by
            delta, col = math.inf, None
            for j, s in slack.items():
                if j not in tree_cols and s < delta:
                    delta, col = s, j
            if col is None:
                return None
            for r in tree_rows:
                p[r] -= delta
            for j in slack:
                if j in tree_cols:
                    q[j] = q.get(j, 0.0) + delta
                else:
                    slack[j] -= delta
            if col not in owner:
                break
            tree_cols.add(col)
            row, reached_by = owner[col], col
            tree_rows.append(row)
        while col is not None:  # flip the path back to row i
            prev = via[col]
            owner[col] = i if prev is None else owner[prev]
            col = prev
    return sum(p) + sum(q.values()), p, q


def solve_exact(
    users: Sequence[int],
    table: GainTable,
    front_end: ReceiverFrontEnd = DEFAULT_FRONT_END,
    config: SolverConfig = SolverConfig(),
) -> Assignment:
    """Branch-and-bound over each user's top-``config.k`` candidates.

    Depth-first and best-first; the first complete assignment is the first
    incumbent. The search always runs to proof, so ``proven_optimal`` is
    true; it is relative to the candidate lists.
    """
    users = list(users)
    if not users:
        return Assignment({}, 0.0, config.objective, True)
    model = SinrModel(table, front_end)
    cand_lists = {u: _candidates(u, model, config) for u in users}
    evaluate = partial(_score, model, scale=config.objective)
    order = sorted(users, key=lambda u: (-cand_lists[u][0].iso_sinr_db, u))
    weights, columns = _resource_weights([cand_lists[u] for u in order], config.objective)
    # per depth: (candidate, column, its pair's index in a terms row, its terms row, signal, noise floor)
    options = [[(c, columns[c.resource], c.ap * len(WAVELENGTHS) + c.wavelength.index,
                 model.terms[u][c.branch][c.wavelength.index],
                 model.currents[u][c.branch][c.ap][c.wavelength.index], model.sigma2[u][c.branch])
                for c in cand_lists[u]] for u in order]
    db = config.objective == "db"
    incumbent: list[Candidate] | None = None
    best_score = float("-inf")
    best_key: tuple | None = None

    def dfs(depth: int, placed: list, denoms: list[float], used: set[int], partial_score: float) -> None:
        """``placed`` scores ``partial_score``; ``denoms[j]`` is placed user j's
        SINR denominator, summed in placement order as ``sinr_linear`` does."""
        nonlocal best_score, best_key, incumbent
        if depth == len(order):
            cands = [opt[0] for opt in placed]
            score = evaluate(cands)
            key = tuple(c.key for c in sorted(cands, key=lambda c: c.user))
            if score > best_score or (score == best_score and (best_key is None or key < best_key)):
                best_score, best_key, incumbent = score, key, cands
            return
        dual = _assignment_dual([{j: w for j, w in row.items() if j not in used} for row in weights[depth:]])
        if dual is None:  # the remaining users cannot all get distinct free resources
            return
        rest, p, q = dual
        if partial_score + rest < best_score - _BOUND_SLACK:  # the incumbent improved since the parent's check
            return
        rest -= p[0]  # child u -> r: the node's duals still bound the rest, by D - p[u] - q[r]
        for opt in options[depth]:
            _, col, pair, row, sig, own = opt  # own: the child's denominator, from its noise floor
            if col in used:
                continue
            score, child = 0.0, []
            for (_, _, ppair, prow, psig, _), den in zip(placed, denoms):
                den += prow[pair]
                own += row[ppair]
                child.append(den)
                lin = psig * psig / den
                score += (10.0 * math.log10(lin) if db else lin) if lin > 0.0 else float("-inf")
            child.append(own)
            lin = sig * sig / own
            score += (10.0 * math.log10(lin) if db else lin) if lin > 0.0 else float("-inf")
            if score + rest - q.get(col, 0.0) >= best_score - _BOUND_SLACK:
                placed.append(opt)
                used.add(col)
                dfs(depth + 1, placed, child, used, score)
                placed.pop()
                used.discard(col)

    dfs(0, [], [], set(), 0.0)
    if incumbent is None:
        raise InfeasibleUserError("no conflict-free assignment exists for the instance")
    return _finalize(incumbent, evaluate, config, proven=True)


def assignment_csv_lines(assignment: Assignment) -> list[str]:
    """Rows mirroring the per-user allocation tables (1-based ids)."""
    lines = ["user,ap,branch,wavelength"]
    for user in sorted(assignment.entries):
        c = assignment.entries[user]
        lines.append(f"{user + 1},{c.ap + 1},{c.branch + 1},{c.wavelength.value}")
    return lines
