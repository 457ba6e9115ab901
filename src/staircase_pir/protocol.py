"""User/server protocol layer: queries, responses, download plans, decoding
and the capacity accounting the scheme is measured against."""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Collection, Dict, List, Optional, Sequence, Tuple

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
from .field import Matrix, ints_to_bytes, lane_bytes, unpack_lanes, vandermonde
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
    """m equal-length files, held as the s-symbol slabs of the data vector x.

    Part c of file i is slab ((c-1)*m + i-1); this is exactly the layout
    the part selectors index into. Each slab is packed once, when the
    database is built, as one int of s lanes, lane `off` holding symbol
    `off` of the slab. A lane is wide enough for a sum of query_length
    products of two symbols, so a linear combination of slabs with
    coefficients in GF(q) never carries between lanes.
    """

    def __init__(self, params: SchemeParams, x: Sequence[int]):
        if len(x) != params.x_length:
            raise ValueError(f"x must have {params.x_length} symbols, got {len(x)}")
        self.params = params
        self._lane_bytes = width = lane_bytes(params.query_length * (params.q - 1) ** 2)
        raw = ints_to_bytes([v % params.q for v in x], width)
        step = params.s * width
        self._slabs = [
            int.from_bytes(raw[pos : pos + step], "little")
            for pos in range(0, len(raw), step)
        ]

    @classmethod
    def from_files(cls, params: SchemeParams, files: Sequence[Sequence[int]]) -> "Database":
        if len(files) != params.m:
            raise ValueError(f"need {params.m} files, got {len(files)}")
        for i, content in enumerate(files, start=1):
            if len(content) != params.file_symbols:
                raise ValueError(
                    f"file {i} must have {params.file_symbols} symbols, got {len(content)}"
                )
        s = params.s
        x: List[int] = []
        for pos in range(0, params.file_symbols, s):  # part by part, file by file
            for content in files:
                x.extend(content[pos : pos + s])
        return cls(params, x)

    def _lanes(self, packed: int) -> Tuple[int, ...]:
        """The s lanes of a packed slab, or of a sum of them, mod q."""
        return tuple(unpack_lanes(packed, self.params.s, self._lane_bytes, self.params.q))

    def file_content(self, i: int) -> List[int]:
        if not 1 <= i <= self.params.m:
            raise FileIndexOutOfRange(f"file index {i} outside [1, {self.params.m}]")
        slab_index = self.params.slab_index
        return [sym for c in range(1, self.params.alpha_prime + 1)
                for sym in self._lanes(self._slabs[slab_index(c, i)])]

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
        q = p.q
        return self._lanes(sum(
            (coef % q) * slab for coef, slab in zip(qvec, self._slabs) if coef
        ))


@dataclass
class Query:
    """One server's query: the sub-queries of its first columns, in column
    order. expand_to expands more of them from the grid and the server's
    row of the symbolic Q they were drawn from, so a column expanded late
    is the one an expansion of every column gives."""

    subqueries: list
    grid: Optional[staircase.MessageGrid] = field(default=None, repr=False, compare=False)
    symbolic: tuple = field(default=(), repr=False, compare=False)

    def expand_to(self, columns: int) -> None:
        """Hold the sub-queries of the first `columns` columns."""
        for sym in self.symbolic[len(self.subqueries) : columns]:
            self.subqueries.append(self.grid.expand(sym))


def make_queries(
    params: SchemeParams,
    V: Matrix,
    i: int,
    seed=None,
    row_order: str = staircase.DEFAULT_ROW_ORDER,
    columns: Optional[int] = None,
) -> List[Query]:
    """Every server's query for file i, from one randomness draw and one
    grid. Only the sub-queries of the first `columns` columns (None: all
    alpha) are expanded here; Query.expand_to expands the rest."""
    randomness = staircase.generate_randomness(params, seed)
    grid = staircase.build_message_grid(params, i, randomness, row_order)
    rows = staircase.encode_shares(params, V, grid, columns)
    symbolic = staircase.query_matrix(params, V, row_order)
    return [Query(row, grid, sym) for row, sym in zip(rows, symbolic)]


def server_respond(
    db: Database, query: Query, columns: Sequence[int]
) -> List[Tuple[int, ...]]:
    """The data's projections on the requested sub-query columns (0-based),
    one s-symbol slab each, in `columns` order. A column the query does
    not hold raises ColumnOutOfRange before any is projected."""
    held = len(query.subqueries)
    for c in columns:
        if not 0 <= c < held:
            raise ColumnOutOfRange(f"column {c} outside [0, {held})")
    return [db.project(query.subqueries[c]) for c in columns]


@dataclass(frozen=True)
class DownloadPlan:
    """Which prefix to fetch from a responder set, and its exact cost."""

    params: SchemeParams
    responders: tuple
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
    return DownloadPlan(
        params=params,
        responders=tuple(sorted(set(responders))),
        prefix_cols=params.prefix_cols(mu),  # OutOfRange for mu > n
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
    the failure it settled with: "refused" or "error".
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
    responses: Dict[int, Sequence[Sequence[int]]],
    row_order: str = staircase.DEFAULT_ROW_ORDER,
) -> List[int]:
    """Decode the requested file from the plan's prefix responses.

    responses: server id -> its s-symbol slabs of columns 0, 1, ...; each
    of the plan's responders must supply at least plan.prefix_cols of
    them, or MissingResponse is raised.
    """
    for sid in plan.responders:
        got = len(responses.get(sid, ()))
        if got < plan.prefix_cols:
            raise MissingResponse(
                f"server {sid} sent {got} of {plan.prefix_cols} prefix columns")
    parts = staircase.peel_decode(
        params, V, list(plan.responders), responses, width=params.s, row_order=row_order
    )
    return [sym for part in parts for sym in part]


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
