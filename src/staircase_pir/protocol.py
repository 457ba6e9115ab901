"""User/server protocol layer: queries, responses, download plans, decoding
and the capacity accounting the scheme is measured against."""

from __future__ import annotations

import hashlib
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Collection, Dict, List, Optional, Sequence, Tuple

from . import staircase
from .errors import (
    DimensionMismatch,
    FieldTooSmall,
    InsufficientResponders,
    InvalidThreshold,
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
    `off` of the slab. A lane is `lane_width(params)` bytes, wide enough
    for a sum of query_length products of two symbols, so a linear
    combination of slabs with coefficients in GF(q) never carries between
    lanes.

    Every constructor ends in one slab cut: each file's symbols as W-byte
    little-endian lanes, W = lane_width(params), of which slab (c, i) is
    bytes [(c-1)*s*W, c*s*W) of file i's. `ingest` splits file bytes
    straight into those lanes (`from_lanes`); `Database(params, x)` and
    `from_files` pack symbol lists into them, reduced mod q only if some
    symbol lies outside [0, q).
    """

    def __init__(self, params: SchemeParams, x: Sequence[int]):
        if len(x) != params.x_length:
            raise ValueError(f"x must have {params.x_length} symbols, got {len(x)}")
        s, m = params.s, params.m
        files: List[List[int]] = [[] for _ in range(m)]
        for j, pos in enumerate(range(0, len(x), s)):  # slab j: part j // m + 1 of file j % m + 1
            files[j % m].extend(x[pos : pos + s])
        self._cut(params, self._pack_files(params, files))

    @classmethod
    def from_files(cls, params: SchemeParams, files: Sequence[Sequence[int]]) -> "Database":
        if len(files) != params.m:
            raise ValueError(f"need {params.m} files, got {len(files)}")
        for i, content in enumerate(files, start=1):
            if len(content) != params.file_symbols:
                raise ValueError(
                    f"file {i} must have {params.file_symbols} symbols, got {len(content)}"
                )
        return cls.from_lanes(params, cls._pack_files(params, files))

    @classmethod
    def from_lanes(cls, params: SchemeParams, lanes: Sequence[bytes]) -> "Database":
        """The database whose file i has the file_symbols lanes lanes[i-1],
        each lane_width(params) bytes, little-endian, holding a symbol in
        [0, q)."""
        db = cls.__new__(cls)
        db._cut(params, lanes)
        return db

    @staticmethod
    def lane_width(params: SchemeParams) -> int:
        """Bytes per lane: enough for query_length * (q-1)^2."""
        return lane_bytes(params.query_length * (params.q - 1) ** 2)

    @classmethod
    def _pack_files(cls, params: SchemeParams, files: Sequence[Sequence[int]]) -> List[bytes]:
        q, width = params.q, cls.lane_width(params)
        return [ints_to_bytes(f if 0 <= min(f) <= max(f) < q else [v % q for v in f], width)
                for f in files]

    def _cut(self, params: SchemeParams, lanes: Sequence[bytes]) -> None:
        width = self.lane_width(params)
        size = params.file_symbols * width
        if len(lanes) != params.m or any(len(f) != size for f in lanes):
            raise ValueError(f"need {params.m} files of {size} lane bytes")
        self.params = params
        self._lane_bytes = width
        step = params.s * width
        self._slabs = [int.from_bytes(f[pos : pos + step], "little")
                       for pos in range(0, size, step) for f in lanes]

    def _lanes(self, packed: int) -> Tuple[int, ...]:
        """The s lanes of a packed slab, or of a sum of them, mod q."""
        return tuple(unpack_lanes(packed, self.params.s, self._lane_bytes, self.params.q))

    def file_content(self, i: int) -> List[int]:
        """File i's symbols; FileIndexOutOfRange (from slab_index) outside [1, m]."""
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
        if not 0 <= min(qvec) <= max(qvec) < q:
            qvec = [coef % q for coef in qvec]
        return self._lanes(sum(map(operator.mul, qvec, self._slabs)))


@dataclass
class Query:
    """One server's query, as make_queries builds it: the sub-queries of its
    first columns expanded so far, in column order, with the grid and the
    server's row of the symbolic Q they were drawn from. prefix expands the
    columns it lacks from those, so a column expanded late is the one an
    expansion of every column gives."""

    subqueries: list
    grid: staircase.MessageGrid = field(repr=False, compare=False)
    symbolic: tuple = field(repr=False, compare=False)

    def prefix(self, columns: int) -> list:
        """The sub-queries of the first `columns` columns, expanding those
        not held yet."""
        for sym in self.symbolic[len(self.subqueries) : columns]:
            self.subqueries.append(self.grid.expand(sym))
        return self.subqueries[:columns]


def make_queries(
    params: SchemeParams,
    V: Matrix,
    i: int,
    seed=None,
    columns: Optional[int] = None,
) -> List[Query]:
    """Every server's query for file i, from one randomness draw and one
    grid. Only the sub-queries of the first `columns` columns (None: all
    alpha) are expanded here; Query.prefix expands the rest as they are
    asked for. The grid holds file i's part selectors as slab positions
    and draws each randomness vector when a column first reads it, so
    with columns=prefix_cols(n) only block 1's t * block_cols[0] vectors
    are drawn before anything is sent."""
    randomness = staircase.generate_randomness(params, seed)
    grid = staircase.build_message_grid(params, i, randomness)
    rows = staircase.encode_shares(V, grid, columns)
    symbolic = staircase.query_matrix(params, V)
    return [Query(row, grid, sym) for row, sym in zip(rows, symbolic)]


def server_respond(db: Database, subqueries: Sequence[Sequence[int]]) -> List[Tuple[int, ...]]:
    """The data's projection on each sub-query it is handed, one s-symbol
    slab each, in the order handed."""
    return [db.project(sub) for sub in subqueries]


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
    """The plan for the distinct server ids in `responders`: OutOfRange
    for an id outside [1, n], InsufficientResponders for fewer than k."""
    sids = tuple(sorted(set(responders)))
    if any(not 1 <= sid <= params.n for sid in sids):
        raise OutOfRange(f"responder ids {list(sids)} not all in [1, {params.n}]")
    if len(sids) < params.k:
        raise InsufficientResponders(f"{len(sids)} responders < k={params.k}")
    return DownloadPlan(
        params=params,
        responders=sids,
        prefix_cols=params.prefix_cols(len(sids)),
    )


def local_responses(
    db: Database, queries: Sequence[Query], plan: DownloadPlan
) -> Dict[int, List[Tuple[int, ...]]]:
    """What the plan's responders answer, each server holding `db` in this
    process: server sid's projections on the plan's prefix of its query,
    as decode_file takes them."""
    return {sid: server_respond(db, queries[sid - 1].prefix(plan.prefix_cols))
            for sid in plan.responders}


class ResponderWait:
    """Which servers a client decodes from, and when it stops waiting.

    The policy is two values: `wait_for`, how many servers to wait for
    (None: all n; OutOfRange outside [k, n]), and `deadline`, the longest
    to wait (math.inf: no cutoff; OutOfRange unless positive). A server
    settles when its handshake completes (it arrives `at`) or its
    connection fails (`failure` names why); a failure after its arrival
    takes the arrival back. The wait is done once `target` servers have
    arrived and not failed, or all n have settled; it `ended` then, or at
    `deadline` if sooner (times count from the start). A failure that
    leaves the wait not done moves `ended` back to `deadline`. Once the
    responders are chosen, `ended` no longer moves until a chosen one
    fails: that clears `chosen`, and the wait runs on by the same rules.
    A late arrival, or the failure of a server not chosen, leaves the
    choice alone. The responders are the earliest `target` arrivals; a
    wait that never ends (no deadline, and servers that never settle) has
    none. Outcomes: "ok" (decoded from), "late" (unsettled when the wait
    ended, or beaten by the first `target`), or the failure it settled
    with: "dropped-mid-fetch" (failed after its acknowledgement),
    "refused" or "error".
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
        self.chosen: Optional[List[int]] = None  # set by responders(); a chosen failure clears it

    def settle(self, sid: int, at: float, failure: Optional[str] = None) -> None:
        if failure is None:
            self.arrived[sid] = at
        else:
            self.arrived.pop(sid, None)
            self.failures[sid] = failure
            if sid in (self.chosen or ()):
                self.chosen = None
        if self.chosen is None:
            self.ended = min(self.ended, at) if self.done else self.deadline

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
        if len(chosen) < self.params.k:  # no choice stands
            raise InsufficientResponders(
                f"only {len(chosen)} servers responded, need {self.params.k}")
        self.chosen = chosen
        return chosen

    def outcomes(self, kept: Collection[int]) -> Dict[int, str]:
        """Every server's outcome, once `kept` were decoded from."""
        return {sid: "ok" if sid in kept else self.failures.get(sid, "late")
                for sid in range(1, self.params.n + 1)}


def decode_file(
    params: SchemeParams,
    V: Matrix,
    plan: DownloadPlan,
    responses: Dict[int, Sequence[Sequence[int]]],
) -> List[int]:
    """Decode the requested file from the plan's prefix responses.

    responses: server id -> its s-symbol slabs of columns 0, 1, ...; each
    of the plan's responders must supply at least plan.prefix_cols of
    them, or staircase.peel_decode raises MissingResponse, and all of one
    width, or it raises DimensionMismatch. That width is s wherever a
    response comes from: wire.decode_response slices every column at s and
    local_responses projects s-symbol slabs.
    """
    parts = staircase.peel_decode(params, V, list(plan.responders), responses)
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
