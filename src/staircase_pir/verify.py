"""Independent oracles for the scheme's three defining properties.

Privacy and robustness are information-theoretic statements; here they
are checked as exact finite facts on concrete instances:

* exhaustive privacy -- enumerate every randomness assignment and compare
  the exact multiset of query tuples each t-subset sees across all file
  indices;
* rank privacy -- a sufficient linear-algebraic criterion: the randomness
  coefficients of each t-subset's sub-queries must have full rank t*alpha,
  which makes those queries uniform and index-independent;
* robustness -- decode every file from every responder subset of size >= k
  over repeated random data and randomness;
* rate accounting -- exact rational comparison against 1 - t/mu.
"""

from __future__ import annotations

import csv
import io
import itertools
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from . import protocol, staircase
from .errors import SearchSpaceTooLarge
from .field import Matrix
from .params import SchemeParams

EXHAUSTIVE_CAP = 10**7


@dataclass
class PrivacyReport:
    params: SchemeParams
    mode: str  # "exhaustive" or "rank"
    verdicts: Dict[tuple, bool] = field(default_factory=dict)
    histograms: Optional[dict] = None  # exhaustive mode: subset -> i -> Counter

    @property
    def ok(self) -> bool:
        return all(self.verdicts.values())

    def rows(self) -> List[tuple]:
        return [
            ("+".join(map(str, subset)), self.mode, "pass" if v else "FAIL")
            for subset, v in sorted(self.verdicts.items())
        ]


@dataclass
class RobustnessReport:
    params: SchemeParams
    trials: int
    failures: List[tuple] = field(default_factory=list)  # (subset, i, trial)
    subsets_checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures

    def rows(self) -> List[tuple]:
        out = [("all-subsets>=k", "robustness", "pass" if self.ok else "FAIL")]
        out.extend(
            ("+".join(map(str, s)), f"robustness i={i} trial={tr}", "FAIL")
            for s, i, tr in self.failures
        )
        return out


def report_csv(rows: List[tuple]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["subset", "mode", "verdict"])
    writer.writerows(rows)
    return buf.getvalue()


def report_text(rows: List[tuple]) -> str:
    return "\n".join(f"{s:<12} {m:<28} {v}" for s, m, v in rows)


def exhaustive_space(params: SchemeParams) -> int:
    """Randomness assignments the exhaustive oracle enumerates:
    q^(t*alpha * alpha'*m), independent of s."""
    return params.q ** (params.randomness_count * params.query_length)


def verify_privacy_exhaustive(
    params: SchemeParams,
    V: Matrix,
    row_order: str = staircase.DEFAULT_ROW_ORDER,
    mutate_zero_randomness: Optional[int] = None,
) -> PrivacyReport:
    """Enumerate ALL randomness assignments; exact multiset equality across i.

    mutate_zero_randomness forces randomness vector u (0-based) to zero in
    every assignment -- a mutation control that must break the verdict.
    """
    space = exhaustive_space(params)
    if space > EXHAUSTIVE_CAP:
        raise SearchSpaceTooLarge(f"{space} assignments exceed cap {EXHAUSTIVE_CAP}")
    sym = staircase.query_matrix(params, V, row_order)
    rand_vecs = params.randomness_count
    vec_len = params.query_length
    zeros = [(0,) * vec_len] * rand_vecs

    report = PrivacyReport(params=params, mode="exhaustive", histograms={})
    for subset in itertools.combinations(range(1, params.n + 1), params.t):
        hists = {}
        for i in range(1, params.m + 1):
            grid = staircase.build_message_grid(params, i, zeros, row_order)
            counter: Dict[tuple, int] = {}
            for flat in itertools.product(range(params.q), repeat=rand_vecs * vec_len):
                rvecs = [
                    flat[u * vec_len : (u + 1) * vec_len] for u in range(rand_vecs)
                ]
                if mutate_zero_randomness is not None:
                    rvecs[mutate_zero_randomness] = zeros[0]
                grid.randomness = rvecs  # same grid, this assignment's randomness
                key = tuple(
                    tuple(grid.expand(coeffs))
                    for sid in subset
                    for coeffs in sym[sid - 1]
                )
                counter[key] = counter.get(key, 0) + 1
            hists[i] = counter
        first = hists[1]
        report.verdicts[subset] = all(hists[i] == first for i in hists)
        report.histograms[subset] = hists
    return report


def verify_privacy_rank(
    params: SchemeParams,
    V: Matrix,
    row_order: str = staircase.DEFAULT_ROW_ORDER,
    mutate_zero_randomness: Optional[int] = None,
) -> PrivacyReport:
    """Full-rank randomness coefficients for every t-subset's sub-queries."""
    sym = staircase.query_matrix(params, V, row_order)
    ap = params.alpha_prime
    ta = params.randomness_count
    report = PrivacyReport(params=params, mode="rank")
    for subset in itertools.combinations(range(1, params.n + 1), params.t):
        rows = []
        for sid in subset:
            for coeffs in sym[sid - 1]:
                rrow = list(coeffs[ap:])
                if mutate_zero_randomness is not None:
                    rrow[mutate_zero_randomness] = 0
                rows.append(rrow)
        mat = Matrix(params.field, rows)
        report.verdicts[subset] = mat.rank() == ta
    return report


def verify_robustness(
    params: SchemeParams,
    V: Matrix,
    trials: int = 1,
    seed: int = 0,
    row_order: str = staircase.DEFAULT_ROW_ORDER,
) -> RobustnessReport:
    """Every subset of size >= k decodes every file on every trial."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = random.Random(seed)
    report = RobustnessReport(params=params, trials=trials)
    subsets = [
        subset
        for size in range(params.k, params.n + 1)
        for subset in itertools.combinations(range(1, params.n + 1), size)
    ]
    report.subsets_checked = len(subsets)
    for trial in range(trials):
        x = [rng.randrange(params.q) for _ in range(params.x_length)]
        db = protocol.Database(params, x)
        for i in range(1, params.m + 1):
            queries = protocol.make_queries(
                params, V, i, seed=rng.random(), row_order=row_order
            )
            expected = db.file_content(i)
            for subset in subsets:
                plan = protocol.plan_download(params, subset)
                responses = {
                    sid: protocol.server_respond(
                        db, queries[sid - 1], range(plan.prefix_cols)
                    )
                    for sid in subset
                }
                got = protocol.decode_file(params, V, plan, responses, row_order)
                if got != expected:
                    report.failures.append((subset, i, trial))
    return report


def verify_rates(params: SchemeParams) -> List[tuple]:
    """Rows (mu, downloaded symbols, rate, capacity, match?) for mu in [k, n]."""
    rows = []
    for mu in range(params.k, params.n + 1):
        plan = protocol.plan_download(params, list(range(1, mu + 1)))
        rate = plan.rate
        cap = protocol.capacity_asymptotic(params.t, mu)
        rows.append((mu, plan.total_symbols, rate, cap, rate == cap))
    return rows
