"""Staircase grid construction, share/query encoding and peeling decoder.

The encoder arranges alpha' payload vectors and t*alpha randomness
vectors into an n x alpha grid of blocks. Block 1 stacks the payload
matrix over fresh randomness; block j >= 2 stacks replicas of row
mu_{j-1} of the earlier blocks (the staircase step) over fresh
randomness and zero padding. Multiplying the grid by an n x n encoding
matrix V yields one row of alpha sub-queries (or sub-shares) per server.

The layout is a pure function of the parameters, the row order of the
blocks (a `SchemeParams` field) included: one table holding, per cell, its
index in the basis (payload_1..payload_alpha', r_1..r_{t*alpha}), or None
for a zero cell. Every cell is thus a unit vector over that basis, and
the symbolic Q = V*M is computed once per (params, V); a query set
expands it with its own payload and randomness. The decoder only needs
the layout, never the randomness.

A query expands only what it sends. Its payload, file i's part
selectors, are unit vectors, so the grid holds each as its slab position
and adds its coefficient there; only dense vectors (the randomness, or a
secret) are multiplied out. The randomness is drawn vector by vector,
when an expanded column first reads it: the columns of block 1, all a
decoder reads from n responders, use the first t * block_cols[0] vectors.
"""

from __future__ import annotations

import os
import random
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Tuple, Union

from .errors import (
    BadEncodingMatrix,
    DimensionMismatch,
    InsufficientResponders,
    MissingResponse,
    OutOfRange,
)
from .field import (Matrix, ints_from_bytes, lane_bytes, pack_lanes, prefix_invertible,
                    unpack_lanes)
# The row orders are defined with SchemeParams and re-exported from here.
from .params import PAYLOAD_FIRST, RANDOMNESS_FIRST, SchemeParams

Cell = Tuple[int, int]  # (row, global column), 0-based


@dataclass(frozen=True)
class GridLayout:
    """The staircase grid of `params`, in its row order, as one table of
    basis indices.

    cells[r][c] is the basis index of cell (r, c): payload vector c at c,
    randomness vector u at alpha' + u, or None for a zero cell. A replica
    (staircase step) holds the index of the cell it copies.
    """

    params: SchemeParams
    cells: tuple  # n rows of alpha entries

    def col_range(self, block: int) -> range:
        """Global column indices of 1-based block `block`."""
        start = sum(self.params.block_cols[: block - 1])
        return range(start, start + self.params.block_cols[block - 1])

    def symbolic(self, cell: Cell) -> tuple:
        """Coefficient vector of a cell over (payloads, randomness)."""
        p = self.params
        coeffs = [0] * (p.alpha_prime + p.randomness_count)
        index = self.cells[cell[0]][cell[1]]
        if index is not None:
            coeffs[index] = 1
        return tuple(coeffs)


@lru_cache(maxsize=None)
def grid_layout(params: SchemeParams) -> GridLayout:
    cols = params.block_cols
    cells: List[List[Optional[int]]] = [[None] * params.alpha for _ in range(params.n)]
    rand_next = params.alpha_prime
    col_base = 0
    for j in range(1, params.h + 1):
        a_j = params.alpha_j(j)
        if params.row_order == PAYLOAD_FIRST:
            payload_rows = list(range(a_j))
            rand_rows = list(range(a_j, a_j + params.t))
        else:
            rand_rows = list(range(params.t))
            payload_rows = list(range(params.t, params.t + a_j))
        if j == 1:
            # Payload vectors fill the a_1 x (alpha'/a_1) matrix column-major.
            sources = range(params.alpha_prime)
        else:
            # Staircase step: replicate row mu_{j-1} of blocks 1..j-1 (whose
            # indices are final), left to right, wrapped column-major into a_j rows.
            sources = cells[params.mu(j - 1) - 1][:col_base]
        for cc in range(cols[j - 1]):
            for rr in range(a_j):
                cells[payload_rows[rr]][col_base + cc] = sources[cc * a_j + rr]
            # Fresh randomness rows, filled column-major.
            for r in rand_rows:
                cells[r][col_base + cc] = rand_next
                rand_next += 1
        col_base += cols[j - 1]
    return GridLayout(params, tuple(map(tuple, cells)))


class RandomVectors(Sequence):
    """`count` randomness vectors of `width` symbols, each drawn when first
    read.

    Reading vector u draws every vector up to u not drawn yet, in index
    order, with `draw`, and keeps them: the vectors are those an eager
    draw of all of them in order gives, whichever is read first. It takes
    no lock: one thread reads it, as one retrieval's loop does.
    """

    def __init__(self, draw: Callable[[], List[int]], count: int, width: int):
        self.width = width
        self._draw = draw
        self._count = count
        self._drawn: List[List[int]] = []

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, index: int) -> List[int]:
        u = range(self._count)[index]  # IndexError outside, negative from the end
        while len(self._drawn) <= u:
            self._drawn.append(self._draw())
        return self._drawn[u]


def generate_randomness(
    params: SchemeParams, seed, width: Optional[int] = None
) -> RandomVectors:
    """t*alpha vectors with entries uniform over GF(q), each drawn when
    first read (see RandomVectors).

    With a seed they are deterministic (the simulator, verify, cli demo;
    net.retrieve passes none): one random.Random(seed) draws them in
    index order. With seed None each comes from the OS CSPRNG: some
    sub-queries carry randomness unmasked (server 1's in example 1), and
    a server that could predict the generator from them would learn the
    other servers' masks. The default width is one entry per slab, the
    length of a sub-query.
    """
    width = params.query_length if width is None else width
    q = params.q
    if seed is None:
        draw = lambda: _os_symbols(q, width)
    else:
        rng = random.Random(seed)
        draw = lambda: [rng.randrange(q) for _ in range(width)]
    return RandomVectors(draw, params.randomness_count, width)


def _os_symbols(q: int, count: int) -> List[int]:
    """`count` symbols uniform over GF(q), drawn from os.urandom in batches.

    Each draw is a w-byte integer; draws at or above the largest multiple
    of q below 256^w are rejected, so the rest reduce mod q without bias.
    """
    w = (q.bit_length() + 7) // 8
    limit = 256**w // q * q
    out: List[int] = []
    while len(out) < count:
        need = count - len(out)
        draws = ints_from_bytes(os.urandom(need * w), w, need)
        out += [v % q for v in draws if v < limit]
    return out


def expand_unit(params: SchemeParams, part: int, i: int) -> List[int]:
    """Concrete selector vector for part `part` (1-based) of file i.

    The unit vector at that part's slab: the slab-wise projection on it
    returns the part's s symbols.
    """
    vec = [0] * params.query_length
    vec[params.slab_index(part, i)] = 1
    return vec


class MessageGrid:
    """The n x alpha staircase grid with its payload and randomness.

    A payload entry is a dense vector, or an int: the position of the one
    1 of a unit vector, as build_message_grid gives each part selector.
    The randomness is any sequence of dense vectors, a RandomVectors draw
    included, which is read only as expand needs it. The vectors are read
    when first used, so they must not change once the grid is built.
    """

    def __init__(
        self,
        params: SchemeParams,
        payload: Sequence[Union[int, Sequence[int]]],
        randomness: Sequence[Sequence[int]],
    ):
        if len(payload) != params.alpha_prime:
            raise ValueError(
                f"need {params.alpha_prime} payload vectors, got {len(payload)}"
            )
        if len(randomness) != params.randomness_count:
            raise ValueError(
                f"need {params.randomness_count} randomness vectors, got {len(randomness)}"
            )
        # A RandomVectors draw has one width by construction; reading each
        # vector's length would draw it.
        widths = ({randomness.width} if isinstance(randomness, RandomVectors)
                  else {len(v) for v in randomness})
        widths |= {len(v) for v in payload if not isinstance(v, int)}
        if len(widths) != 1:
            raise ValueError("payload and randomness vectors must share one length")
        self.width = widths.pop()
        if not all(0 <= v < self.width for v in payload if isinstance(v, int)):
            raise ValueError(f"a unit position lies outside [0, {self.width})")
        self.params = params
        self._payload = list(payload)
        self._randomness = randomness
        basis = len(payload) + len(randomness)
        # Basis indices of the unit payload entries, with their positions,
        # and of the dense vectors, which alone are packed and multiplied.
        self._units = {b: v for b, v in enumerate(payload) if isinstance(v, int)}
        self._dense = [b for b in range(basis) if b not in self._units]
        self._lane_bytes = lane_bytes(len(self._dense) * (params.q - 1) ** 2)
        self._packed: List[Optional[int]] = [None] * basis

    def _pack(self, b: int) -> int:
        """Dense basis vector b packed into lanes, reduced mod q only if
        some entry lies outside [0, q)."""
        k = len(self._payload)
        raw = self._payload[b] if b < k else self._randomness[b - k]
        q = self.params.q
        if raw and not 0 <= min(raw) <= max(raw) < q:
            raw = [v % q for v in raw]
        return pack_lanes(raw, self._lane_bytes)

    def expand(self, coeffs: Sequence[int]) -> List[int]:
        """Turn a coefficient vector over (payloads, randomness) into a concrete
        vector over GF(q): one sum of the packed dense basis vectors, each
        packed when first used, then each unit term's coefficient added at
        its position. A lane stays <= (dense vectors)(q-1)^2."""
        q = self.params.q
        packed = self._packed
        total = 0
        for b in self._dense:
            coef = coeffs[b] % q
            if coef:
                vec = packed[b]
                if vec is None:
                    vec = packed[b] = self._pack(b)
                total += coef * vec
        out = unpack_lanes(total, self.width, self._lane_bytes, q)
        for b, pos in self._units.items():
            coef = coeffs[b] % q
            if coef:
                out[pos] = (out[pos] + coef) % q
        return out


def build_message_grid(
    params: SchemeParams, file_index: int, randomness: Sequence[Sequence[int]]
) -> MessageGrid:
    """PIR grid: payload = the alpha' part selectors of file `file_index`,
    each as its slab position (FileIndexOutOfRange outside [1, m])."""
    payload = [params.slab_index(c, file_index) for c in range(1, params.alpha_prime + 1)]
    return MessageGrid(params, payload, randomness)


def validate_encoding_matrix(V: Matrix, params: SchemeParams) -> bool:
    """True iff every decoder system (any mu_j rows x first mu_j columns)
    of V is invertible, for every level j."""
    if V.nrows != params.n or V.ncols != params.n:
        raise DimensionMismatch(
            f"V must be {params.n}x{params.n}, got {V.nrows}x{V.ncols}"
        )
    sizes = [params.mu(j) for j in range(1, params.h + 1)]
    return prefix_invertible(V, sizes)


def query_matrix(params: SchemeParams, V: Matrix) -> Tuple[Tuple[tuple, ...], ...]:
    """Symbolic Q = V * M: per server, alpha coefficient vectors over
    (payloads, randomness). It depends on neither the file index nor the
    randomness, so it is computed, and V checked, once per deployment."""
    return _query_matrix(params, V.field, tuple(map(tuple, V.rows)))


@lru_cache(maxsize=32)
def _query_matrix(params: SchemeParams, field, rows: tuple):
    if not validate_encoding_matrix(Matrix(field, rows), params):
        raise BadEncodingMatrix("encoding matrix fails prefix invertibility")
    q = params.q
    basis = params.alpha_prime + params.randomness_count
    cells = grid_layout(params).cells
    out = []
    for vrow in rows:
        srow = []
        for c in range(params.alpha):
            # Every cell is a unit vector (or zero): add V's coefficient
            # at that cell's basis index.
            acc = [0] * basis
            for coef, cell_row in zip(vrow, cells):
                index = cell_row[c]
                if index is not None:
                    acc[index] = (acc[index] + coef) % q
            srow.append(tuple(acc))
        out.append(tuple(srow))
    return tuple(out)


def encode_shares(
    V: Matrix, grid: MessageGrid, columns: Optional[int] = None
) -> List[List[List[int]]]:
    """Rows of Q = V * M: per server, the sub-queries (or sub-shares) of its
    first `columns` columns (None: all alpha), the symbolic Q of the grid's
    params expanded with this grid's payload and randomness."""
    return [
        [grid.expand(sym) for sym in row[:columns]]
        for row in query_matrix(grid.params, V)
    ]


def peel_decode(
    params: SchemeParams,
    V: Matrix,
    responders: Sequence[int],
    projections,
) -> List[tuple]:
    """Level-by-level decoder, the one decoder of both views of the code.

    responders: 1-based server ids, exactly mu of them (OutOfRange for an
    id outside [1, n]).
    projections: mapping server id -> its values of columns 0, 1, ..., at
    least prefix_cols(mu) of them (MissingResponse if a responder has
    fewer, or none), each a sequence of symbols: s-symbol projections for
    PIR, sub-share vectors for secret sharing. Their width is that of the
    first responder's first column; a prefix column of any other width
    raises DimensionMismatch.

    Returns the alpha' payload values in order. Each level runs on packed
    lanes: a responder's block is one int, a known replica is subtracted as
    + (q - coef) * its packed values, and a solved row is one sum over the
    responders, so a lane stays <= mu (q-1)^2 (1 + (n-mu)(q-1)).
    """
    mu = len(responders)
    if any(not 1 <= sid <= params.n for sid in responders):
        raise OutOfRange(f"responder ids {list(responders)} not all in [1, {params.n}]")
    if mu < params.k:
        raise InsufficientResponders(f"got {mu} responders, need >= {params.k}")
    j = params.level_for(mu)  # OutOfRange for mu > n
    layout = grid_layout(params)
    q = params.q
    prefix = params.prefix_cols(mu)
    for sid in responders:
        got = len(projections.get(sid, ()))
        if got < prefix:
            raise MissingResponse(f"server {sid} sent {got} of {prefix} prefix columns")
    width = len(projections[responders[0]][0])
    for sid in responders:
        if any(len(value) != width for value in projections[sid][:prefix]):
            raise DimensionMismatch(f"server {sid} supplied a column not of width {width}")
    A_inv = _system_inverse(params, tuple(map(tuple, V.rows)), tuple(responders))
    lane = lane_bytes(mu * (q - 1) ** 2 * (1 + (params.n - mu) * (q - 1)))

    cells = layout.cells
    known: Dict[int, List[int]] = {}  # basis index -> value
    for b in range(j, 0, -1):
        cols = layout.col_range(b)
        # RHS: per responder, its projections of the block minus the
        # contribution of rows already known through the staircase replicas.
        replicas = [
            (rr, pack_lanes([v for c in cols for v in known[cells[rr][c]]], lane))
            for rr in range(mu, params.mu(b))
        ]
        rhs = [
            pack_lanes([v % q for c in cols for v in projections[sid][c]], lane)
            + sum(-V.rows[sid - 1][rr] % q * kn for rr, kn in replicas)
            for sid in responders
        ]
        for rr, inv_row in enumerate(A_inv):
            total = sum(a * r for a, r in zip(inv_row, rhs))
            solved = unpack_lanes(total, len(cols) * width, lane, q)
            for ci, c in enumerate(cols):
                known[cells[rr][c]] = solved[ci * width : (ci + 1) * width]
    return [tuple(known[c]) for c in range(params.alpha_prime)]


@lru_cache(maxsize=64)
def _system_inverse(params: SchemeParams, rows: tuple, responders: tuple) -> tuple:
    """Inverse of the system every level solves (the responders' rows x the
    first mu columns of V), computed once per (params, V, responders)."""
    system = [rows[sid - 1][: len(responders)] for sid in responders]
    return tuple(map(tuple, Matrix(params.field, system).inverse().rows))


# --- communication-efficient secret sharing view ---------------------------


def ss_share(
    params: SchemeParams,
    V: Matrix,
    secret: Sequence[Sequence[int]],
    seed=None,
) -> List[List[List[int]]]:
    """Share alpha' secret vectors: the PIR grid with the secret as payload.

    Per server, its alpha sub-shares. The randomness is drawn from `seed`
    as `protocol.make_queries` draws it, so the part selectors of file i
    shared with one seed are that seed's queries for file i.
    """
    if len(secret) != params.alpha_prime:
        raise ValueError(f"secret must have {params.alpha_prime} vectors")
    randomness = generate_randomness(params, seed, width=len(secret[0]))
    return encode_shares(V, MessageGrid(params, secret, randomness))


def ss_reconstruct(params: SchemeParams, V: Matrix, share_prefixes) -> List[List[int]]:
    """Reconstruct the secret from prefix sub-shares of any d in [k, n] servers.

    share_prefixes: mapping server id -> list of sub-share vectors (the
    first alpha'/alpha_j sub-shares of that server's share). This is
    `peel_decode` over sub-share vectors, the call `protocol.decode_file`
    makes over s-symbol projections; sub-shares of more than one length
    raise DimensionMismatch there.
    """
    decoded = peel_decode(params, V, sorted(share_prefixes), share_prefixes)
    return [list(v) for v in decoded]
