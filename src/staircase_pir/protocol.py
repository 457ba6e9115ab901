"""User/server protocol layer: queries, responses, download plans, decoding
and the capacity accounting the scheme is measured against."""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Collection, Dict, Iterable, List, Optional, Sequence, Tuple

from . import staircase
from .errors import (
    ColumnOutOfRange,
    DimensionMismatch,
    FieldTooSmall,
    FileIndexOutOfRange,
    InsufficientResponders,
    InvalidThreshold,
    MissingResponse,
    OutOfRange,
)
from .field import Matrix, ints_from_bytes, ints_to_bytes, vandermonde
from .params import SchemeParams


def default_encoding_matrix(params: SchemeParams) -> Matrix:
    """The n x n Vandermonde matrix on points 1..n over GF(q); needs q > n."""
    if params.q <= params.n:
        raise FieldTooSmall(
            f"q={params.q} too small for {params.n} distinct nonzero points"
        )
    return vandermonde(params.field, list(range(1, params.n + 1)), params.n)


def matrix_fingerprint(params: SchemeParams, V: Matrix) -> bytes:
    """32-byte digest identifying (q, V); used in handshakes."""
    h = hashlib.sha256()
    h.update(f"q={params.q};".encode())
    for row in V.rows:
        h.update((",".join(map(str, row)) + ";").encode())
    return h.digest()


class Database:
    """m equal-length files flattened into the data vector x.

    Part c of file i occupies the s-symbol slab ((c-1)*m + i-1); this is
    exactly the layout the part selectors index into.

    For projection each slab is also held as one int of s lanes, lane
    `off` holding symbol `off` of the slab. A lane is wide enough for a
    sum of query_length products of two symbols, so a linear combination
    of slabs with coefficients in GF(q) never carries between lanes.
    """

    def __init__(self, params: SchemeParams, x: Sequence[int]):
        if len(x) != params.x_length:
            raise ValueError(f"x must have {params.x_length} symbols, got {len(x)}")
        self.params = params
        self.x = [v % params.q for v in x]
        bound = params.query_length * (params.q - 1) ** 2
        self._lane_bytes = (bound.bit_length() + 7) // 8
        self._slabs = None  # packed on the first projection

    @classmethod
    def from_files(cls, params: SchemeParams, files: Sequence[Sequence[int]]) -> "Database":
        if len(files) != params.m:
            raise ValueError(f"need {params.m} files, got {len(files)}")
        x = [0] * params.x_length
        for i, content in enumerate(files, start=1):
            if len(content) != params.file_symbols:
                raise ValueError(
                    f"file {i} must have {params.file_symbols} symbols, got {len(content)}"
                )
            for c in range(params.alpha_prime):
                base = params.slab_index(c + 1, i) * params.s
                for off in range(params.s):
                    x[base + off] = content[c * params.s + off] % params.q
        return cls(params, x)

    def file_content(self, i: int) -> List[int]:
        if not 1 <= i <= self.params.m:
            raise FileIndexOutOfRange(f"file index {i} outside [1, {self.params.m}]")
        out = []
        for c in range(self.params.alpha_prime):
            base = self.params.slab_index(c + 1, i) * self.params.s
            out.extend(self.x[base : base + self.params.s])
        return out

    def _packed_slabs(self) -> List[int]:
        slabs = self._slabs
        if slabs is None:
            # The serve loops of servers sharing this database may race
            # here; each builds the same list and assigns it once, whole.
            raw = ints_to_bytes(self.x, self._lane_bytes)
            step = self.params.s * self._lane_bytes
            slabs = [
                int.from_bytes(raw[pos : pos + step], "little")
                for pos in range(0, len(raw), step)
            ]
            self._slabs = slabs
        return slabs

    def project(self, qvec: Sequence[int]) -> Tuple[int, ...]:
        """Slab-wise projection of x on one sub-query: s symbols.

        out[off] = sum_j qvec[j] * x[j*s + off] mod q, over the
        query_length slabs j.
        """
        p = self.params
        if len(qvec) != p.query_length:
            raise DimensionMismatch(
                f"sub-query must have {p.query_length} coefficients, got {len(qvec)}"
            )
        q, width = p.q, self._lane_bytes
        total = sum(
            (coef % q) * slab for coef, slab in zip(qvec, self._packed_slabs()) if coef
        )
        lanes = ints_from_bytes(total.to_bytes(p.s * width, "little"), width, p.s)
        return tuple(v % q for v in lanes)


@dataclass
class Query:
    """One server's query: its alpha sub-queries."""

    server_id: int
    subqueries: list


def make_queries(
    params: SchemeParams,
    V: Matrix,
    i: int,
    seed=None,
    row_order: str = staircase.DEFAULT_ROW_ORDER,
) -> List[Query]:
    randomness = staircase.generate_randomness(params, seed)
    grid = staircase.build_message_grid(params, i, randomness, row_order)
    rows = staircase.encode_shares(params, V, grid)
    return [Query(server_id=sid, subqueries=row) for sid, row in enumerate(rows, start=1)]


def server_respond(
    db: Database, query: Query, columns: Iterable[int]
) -> Dict[int, Tuple[int, ...]]:
    """Project the data on the requested sub-query columns (0-based)."""
    out = {}
    for c in columns:
        if not 0 <= c < db.params.alpha:
            raise ColumnOutOfRange(f"column {c} outside [0, {db.params.alpha})")
        out[c] = db.project(query.subqueries[c])
    return out


@dataclass(frozen=True)
class DownloadPlan:
    """Which prefix to fetch from a responder set, and its exact cost."""

    params: SchemeParams
    responders: tuple
    level: int
    prefix_cols: int

    @property
    def mu(self) -> int:
        return len(self.responders)

    @property
    def total_symbols(self) -> int:
        return self.mu * self.prefix_cols * self.params.s

    @property
    def rate(self) -> Fraction:
        """Downloaded-symbol rate; equals 1 - t/mu for this scheme."""
        return Fraction(self.params.file_symbols, self.total_symbols)


def plan_download(params: SchemeParams, responders: Sequence[int]) -> DownloadPlan:
    mu = len(set(responders))
    if mu < params.k:
        raise InsufficientResponders(f"{mu} responders < k={params.k}")
    j = params.level_for(mu)
    return DownloadPlan(
        params=params,
        responders=tuple(sorted(set(responders))),
        level=j,
        prefix_cols=params.prefix_cols(mu),
    )


class ResponderWait:
    """Which servers a client decodes from, and when it stops waiting.

    The policy is two values: `wait_for`, how many servers to wait for
    (None: all n; OutOfRange outside [k, n]), and `deadline`, the longest
    to wait (math.inf: no cutoff; OutOfRange unless positive). A server
    settles when its handshake completes (it arrives `at`) or fails
    (`failure` names why). The wait is done once `target` servers have
    arrived or all n have settled; it `ended` then, or at `deadline` if
    sooner (times count from the start). The responders are the earliest
    `target` arrivals; a wait that never ends (no deadline, and servers
    that never settle) has none. Outcomes: "ok" (decoded from),
    "dropped-mid-fetch" (a responder whose FETCH failed), "late"
    (unsettled when the wait ended, or beaten by the first `target`), or
    the failure it settled with: "refused", "handshake-mismatch", "error".
    """

    def __init__(self, params: SchemeParams, wait_for: Optional[int], deadline: float):
        target = params.n if wait_for is None else wait_for
        if not params.k <= target <= params.n:
            raise OutOfRange(f"wait_for={target} outside [{params.k}, {params.n}]")
        if not deadline > 0:  # NaN too
            raise OutOfRange("the deadline must be positive")
        self.params = params
        self.target = target
        self.ended = self.deadline = deadline
        self.arrived: Dict[int, float] = {}
        self.failures: Dict[int, str] = {}

    def settle(self, sid: int, at: float, failure: Optional[str] = None) -> None:
        if failure is None:
            self.arrived[sid] = at
        else:
            self.failures[sid] = failure
        if self.done:
            self.ended = min(self.ended, at)

    @property
    def done(self) -> bool:
        return (len(self.arrived) >= self.target
                or len(self.arrived) + len(self.failures) == self.params.n)

    def responders(self) -> List[int]:
        if math.isinf(self.ended):
            raise InsufficientResponders(
                f"waited for {self.target} servers with no deadline;"
                f" only {len(self.arrived)} ever responded"
            )
        chosen = sorted(sorted(self.arrived, key=self.arrived.get)[: self.target])
        if len(chosen) < self.params.k:
            raise InsufficientResponders(
                f"only {len(chosen)} servers responded, need {self.params.k}"
            )
        return chosen

    def outcomes(self, responders: Collection[int], kept: Collection[int]) -> Dict[int, str]:
        """Every server's outcome, once `kept` of the `responders` were decoded from."""
        return {
            sid: self.failures.get(sid, "late") if sid not in responders
            else "ok" if sid in kept else "dropped-mid-fetch"
            for sid in range(1, self.params.n + 1)
        }


def decode_file(
    params: SchemeParams,
    V: Matrix,
    plan: DownloadPlan,
    responses: Dict[int, Dict[int, Tuple[int, ...]]],
    row_order: str = staircase.DEFAULT_ROW_ORDER,
) -> List[int]:
    """Decode the requested file from the plan's prefix responses.

    responses: server id -> {column -> s-symbol slab}.
    """
    projections = {}
    for sid in plan.responders:
        if sid not in responses:
            raise MissingResponse(f"no responses from server {sid}")
        cols = []
        for c in range(plan.prefix_cols):
            if c not in responses[sid]:
                raise MissingResponse(f"server {sid} missing column {c}")
            cols.append(tuple(responses[sid][c]))
        projections[sid] = cols
    parts = staircase.peel_decode(
        params, V, list(plan.responders), projections, width=params.s, row_order=row_order
    )
    out: List[int] = []
    for part in parts:
        out.extend(part)
    return out


def capacity_finite(m: int, t: int, k: int) -> Fraction:
    """Exact PIR capacity for m files: (1 - t/k) / (1 - (t/k)^m)."""
    if not 1 <= t < k:
        raise InvalidThreshold(f"need 1 <= t < k, got t={t}, k={k}")
    if m < 1:
        raise ValueError("m must be >= 1")
    r = Fraction(t, k)
    return (1 - r) / (1 - r**m) if m > 1 else Fraction(1)


def capacity_asymptotic(t: int, k: int) -> Fraction:
    """Asymptotic PIR capacity 1 - t/k."""
    if not 1 <= t < k:
        raise InvalidThreshold(f"need 1 <= t < k, got t={t}, k={k}")
    return 1 - Fraction(t, k)
