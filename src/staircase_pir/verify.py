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

Both privacy oracles read the symbolic queries through
`staircase.query_matrix` and take no mutation option: a test shows they
can fail by patching that one function, zeroing a randomness coefficient
in every sub-query.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from . import protocol, staircase
from .errors import SearchSpaceTooLarge
from .field import Matrix
from .params import SchemeParams

# Sub-query expansions the exhaustive oracle may make (`exhaustive_work`).
# (3,2,1) at q=3, m=2 makes 78,732 of them in about 0.3 s on CPython 3.11.
EXHAUSTIVE_CAP = 10**6


@dataclass
class PrivacyReport:
    params: SchemeParams
    mode: str  # "exhaustive" or "rank"
    verdicts: Dict[tuple, bool] = field(default_factory=dict)
    histograms: Optional[dict] = None  # exhaustive mode: subset -> i -> Counter

    @property
    def ok(self) -> bool:
        return all(self.verdicts.values())


@dataclass
class RobustnessReport:
    params: SchemeParams
    trials: int
    failures: List[tuple] = field(default_factory=list)  # (subset, i, trial)
    subsets_checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures


def exhaustive_space(params: SchemeParams) -> int:
    """Randomness assignments the exhaustive oracle enumerates:
    q^(t*alpha * alpha'*m), independent of s."""
    return params.q ** (params.randomness_count * params.query_length)


def exhaustive_work(params: SchemeParams) -> int:
    """Sub-query expansions the exhaustive oracle makes: under every
    assignment and for every file, the alpha sub-queries of each server."""
    return exhaustive_space(params) * params.m * params.n * params.alpha


def verify_privacy_exhaustive(params: SchemeParams, V: Matrix) -> PrivacyReport:
    """Enumerate ALL randomness assignments; exact multiset equality across i."""
    work = exhaustive_work(params)
    if work > EXHAUSTIVE_CAP:
        raise SearchSpaceTooLarge(
            f"{work} sub-query expansions exceed cap {EXHAUSTIVE_CAP}")
    sym = staircase.query_matrix(params, V)
    rand_vecs = params.randomness_count
    vec_len = params.query_length
    files = range(1, params.m + 1)
    report = PrivacyReport(params=params, mode="exhaustive", histograms={
        subset: {i: {} for i in files}
        for subset in itertools.combinations(range(1, params.n + 1), params.t)
    })
    for flat in itertools.product(range(params.q), repeat=rand_vecs * vec_len):
        rvecs = [flat[u * vec_len : (u + 1) * vec_len] for u in range(rand_vecs)]
        for i in files:
            # One grid per assignment and file; each server's view is expanded once.
            grid = staircase.build_message_grid(params, i, rvecs)
            views = [[tuple(grid.expand(coeffs)) for coeffs in row] for row in sym]
            for subset, hists in report.histograms.items():
                key = tuple(sub for sid in subset for sub in views[sid - 1])
                hists[i][key] = hists[i].get(key, 0) + 1
    for subset, hists in report.histograms.items():
        report.verdicts[subset] = all(counter == hists[1] for counter in hists.values())
    return report


def verify_privacy_rank(params: SchemeParams, V: Matrix) -> PrivacyReport:
    """Full-rank randomness coefficients for every t-subset's sub-queries."""
    sym = staircase.query_matrix(params, V)
    ap = params.alpha_prime
    report = PrivacyReport(params=params, mode="rank")
    for subset in itertools.combinations(range(1, params.n + 1), params.t):
        rows = [coeffs[ap:] for sid in subset for coeffs in sym[sid - 1]]
        report.verdicts[subset] = Matrix(params.field, rows).rank() == params.randomness_count
    return report


def verify_robustness(
    params: SchemeParams, V: Matrix, trials: int = 1, seed: int = 0
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
            queries = protocol.make_queries(params, V, i, seed=rng.random())
            expected = db.file_content(i)
            for subset in subsets:
                plan = protocol.plan_download(params, subset)
                got = protocol.decode_file(
                    params, V, plan, protocol.local_responses(db, queries, plan))
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
