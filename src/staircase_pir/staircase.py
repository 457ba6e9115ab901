"""Staircase grid construction, share/query encoding and peeling decoder.

The encoder arranges alpha' payload vectors and t*alpha randomness
vectors into an n x alpha grid of blocks. Block 1 stacks the payload
matrix over fresh randomness; block j >= 2 stacks replicas of row
mu_{j-1} of the earlier blocks (the staircase step) over fresh
randomness and zero padding. Multiplying the grid by an n x n encoding
matrix V yields one row of alpha sub-queries (or sub-shares) per server.

The layout is a pure function of the parameters and the row order: one
table holding, per cell, its index in the basis (payload_1..payload_alpha',
r_1..r_{t*alpha}), or None for a zero cell. Every cell is thus a unit
vector over that basis, and the symbolic Q = V*M is computed once per
(params, V, row order); a query set expands it with its own payload and
randomness. The decoder only needs the layout, never the randomness.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import (
    BadEncodingMatrix,
    DimensionMismatch,
    FileIndexOutOfRange,
    InsufficientResponders,
    OutOfRange,
)
from .field import Matrix, ints_from_bytes, prefix_invertible
from .params import SchemeParams

# Vertical order of payload vs randomness rows inside each block. The
# construction works with either; both encoder and decoder must agree.
PAYLOAD_FIRST = "payload_first"
RANDOMNESS_FIRST = "randomness_first"
DEFAULT_ROW_ORDER = PAYLOAD_FIRST

Cell = Tuple[int, int]  # (row, global column), 0-based


@dataclass(frozen=True)
class GridLayout:
    """The staircase grid as one table of basis indices.

    cells[r][c] is the basis index of cell (r, c): payload vector c at c,
    randomness vector u at alpha' + u, or None for a zero cell. A replica
    (staircase step) holds the index of the cell it copies.
    """

    params: SchemeParams
    row_order: str
    block_cols: tuple
    cells: tuple  # n rows of alpha entries

    def col_range(self, block: int) -> range:
        """Global column indices of 1-based block `block`."""
        start = sum(self.block_cols[: block - 1])
        return range(start, start + self.block_cols[block - 1])

    def symbolic(self, cell: Cell) -> tuple:
        """Coefficient vector of a cell over (payloads, randomness)."""
        p = self.params
        coeffs = [0] * (p.alpha_prime + p.randomness_count)
        index = self.cells[cell[0]][cell[1]]
        if index is not None:
            coeffs[index] = 1
        return tuple(coeffs)


def _build_layout(params: SchemeParams, row_order: str) -> GridLayout:
    if row_order not in (PAYLOAD_FIRST, RANDOMNESS_FIRST):
        raise ValueError(f"unknown row order {row_order!r}")
    cols = params.block_cols
    cells: List[List[Optional[int]]] = [[None] * params.alpha for _ in range(params.n)]
    rand_next = params.alpha_prime
    col_base = 0
    for j in range(1, params.h + 1):
        a_j = params.alpha_j(j)
        if row_order == PAYLOAD_FIRST:
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
    assert rand_next == params.alpha_prime + params.randomness_count
    return GridLayout(params, row_order, cols, tuple(map(tuple, cells)))


@lru_cache(maxsize=None)
def grid_layout(params: SchemeParams, row_order: str = DEFAULT_ROW_ORDER) -> GridLayout:
    return _build_layout(params, row_order)


def generate_randomness(
    params: SchemeParams, seed, width: Optional[int] = None
) -> List[List[int]]:
    """t*alpha vectors with entries uniform over GF(q).

    With a seed they are deterministic (tests, the simulator). With seed
    None they come from the OS CSPRNG: some sub-queries carry randomness
    unmasked (server 1's in example 1), and a server that could predict
    the generator from them would learn the other servers' masks.
    The default width is one entry per slab, the length of a sub-query.
    """
    width = params.query_length if width is None else width
    q = params.q
    count = params.randomness_count
    if seed is None:
        flat = _os_symbols(q, count * width)
        return [flat[u * width : (u + 1) * width] for u in range(count)]
    rng = random.Random(seed)
    return [[rng.randrange(q) for _ in range(width)] for _ in range(count)]


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
        out.extend(v % q for v in draws if v < limit)
    return out


def expand_unit(params: SchemeParams, part: int, i: int) -> List[int]:
    """Concrete selector vector for part `part` (1-based) of file i.

    The unit vector at that part's slab: the slab-wise projection on it
    returns the part's s symbols.
    """
    if not 1 <= i <= params.m:
        raise FileIndexOutOfRange(f"file index {i} outside [1, {params.m}]")
    vec = [0] * params.query_length
    vec[params.slab_index(part, i)] = 1
    return vec


class MessageGrid:
    """The n x alpha staircase grid with its payload and randomness."""

    def __init__(
        self,
        params: SchemeParams,
        payload: Sequence[Sequence[int]],
        randomness: Sequence[Sequence[int]],
        row_order: str = DEFAULT_ROW_ORDER,
    ):
        if len(payload) != params.alpha_prime:
            raise ValueError(
                f"need {params.alpha_prime} payload vectors, got {len(payload)}"
            )
        if len(randomness) != params.randomness_count:
            raise ValueError(
                f"need {params.randomness_count} randomness vectors, got {len(randomness)}"
            )
        widths = {len(v) for v in list(payload) + list(randomness)}
        if len(widths) != 1:
            raise ValueError("payload and randomness vectors must share one length")
        self.params = params
        self.layout = grid_layout(params, row_order)
        self.payload = [list(v) for v in payload]
        self.randomness = [list(v) for v in randomness]
        self.width = widths.pop()

    def expand(self, coeffs: Sequence[int]) -> List[int]:
        """Turn a coefficient vector into a concrete vector over GF(q)."""
        p = self.params
        q = p.q
        out = [0] * self.width
        for c, coef in enumerate(coeffs[: p.alpha_prime]):
            if coef:
                for pos, v in enumerate(self.payload[c]):
                    if v:
                        out[pos] = (out[pos] + coef * v) % q
        for u, coef in enumerate(coeffs[p.alpha_prime :]):
            if coef:
                vec = self.randomness[u]
                for pos in range(self.width):
                    out[pos] = (out[pos] + coef * vec[pos]) % q
        return out


def build_message_grid(
    params: SchemeParams,
    file_index: int,
    randomness: Sequence[Sequence[int]],
    row_order: str = DEFAULT_ROW_ORDER,
) -> MessageGrid:
    """PIR grid: payload = the alpha' part selectors of file `file_index`."""
    payload = [
        expand_unit(params, c, file_index) for c in range(1, params.alpha_prime + 1)
    ]
    return MessageGrid(params, payload, randomness, row_order)


def validate_encoding_matrix(V: Matrix, params: SchemeParams) -> bool:
    """True iff every decoder system (any mu_j rows x first mu_j columns)
    of V is invertible, for every level j."""
    if V.nrows != params.n or V.ncols != params.n:
        raise DimensionMismatch(
            f"V must be {params.n}x{params.n}, got {V.nrows}x{V.ncols}"
        )
    sizes = [params.mu(j) for j in range(1, params.h + 1)]
    return prefix_invertible(V, sizes)


def query_matrix(
    params: SchemeParams, V: Matrix, row_order: str = DEFAULT_ROW_ORDER
) -> Tuple[Tuple[tuple, ...], ...]:
    """Symbolic Q = V * M: per server, alpha coefficient vectors over
    (payloads, randomness). It depends on neither the file index nor the
    randomness, so it is computed, and V checked, once per deployment."""
    return _query_matrix(params, V.field, tuple(map(tuple, V.rows)), row_order)


@lru_cache(maxsize=32)
def _query_matrix(params: SchemeParams, field, rows: tuple, row_order: str):
    if not validate_encoding_matrix(Matrix(field, rows), params):
        raise BadEncodingMatrix("encoding matrix fails prefix invertibility")
    q = params.q
    basis = params.alpha_prime + params.randomness_count
    cells = grid_layout(params, row_order).cells
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
    params: SchemeParams, V: Matrix, grid: MessageGrid, columns: Optional[int] = None
) -> List[List[List[int]]]:
    """Rows of Q = V * M: per server, the sub-queries (or sub-shares) of its
    first `columns` columns (None: all alpha), the deployment's symbolic Q
    expanded with this grid's payload and randomness."""
    return [
        [grid.expand(sym) for sym in row[:columns]]
        for row in query_matrix(params, V, grid.layout.row_order)
    ]


def peel_decode(
    params: SchemeParams,
    V: Matrix,
    responders: Sequence[int],
    projections,
    width: int = 1,
    row_order: str = DEFAULT_ROW_ORDER,
) -> List[tuple]:
    """Level-by-level decoder.

    responders: 1-based server ids, exactly mu of them.
    projections: mapping server id -> list of prefix_cols(mu) values, each
    a length-`width` tuple of symbols (projections for PIR, sub-share
    vectors for secret sharing).

    Returns the alpha' payload values in order.
    """
    mu = len(responders)
    if mu < params.k:
        raise InsufficientResponders(f"got {mu} responders, need >= {params.k}")
    if mu > params.n:
        raise OutOfRange(f"got {mu} responders for n={params.n}")
    j = params.level_for(mu)
    layout = grid_layout(params, row_order)
    mu_j = mu
    field = params.field
    q = params.q
    prefix = params.prefix_cols(mu)
    for sid in responders:
        if len(projections[sid]) < prefix:
            raise OutOfRange(
                f"server {sid} supplied {len(projections[sid])} columns, need {prefix}"
            )

    # One system matrix per level: responder rows x first mu_j columns of V.
    A = V.submatrix([sid - 1 for sid in responders], range(mu_j))
    A_inv = A.inverse()

    cells = layout.cells
    known: Dict[int, tuple] = {}  # basis index -> value
    for b in range(j, 0, -1):
        mu_b = params.mu(b)
        cols = list(layout.col_range(b))
        # RHS: per column, per responder, projection minus the contribution
        # of rows already known through the staircase replicas.
        rhs_rows = []
        for idx, sid in enumerate(responders):
            vrow = V.rows[sid - 1]
            rhs_row = []
            for c in cols:
                val = list(projections[sid][c])
                for rr in range(mu_j, mu_b):
                    coef = vrow[rr]
                    if coef:
                        kn = known[cells[rr][c]]
                        for pos in range(width):
                            val[pos] = (val[pos] - coef * kn[pos]) % q
                rhs_row.extend(val)
            rhs_rows.append(rhs_row)
        solved = A_inv.mul(Matrix(field, rhs_rows))
        for rr in range(mu_j):
            srow = solved.rows[rr]
            for ci, c in enumerate(cols):
                value = tuple(srow[ci * width : (ci + 1) * width])
                known[cells[rr][c]] = value
    return [known[c] for c in range(params.alpha_prime)]


# --- communication-efficient secret sharing view ---------------------------


def ss_share(
    params: SchemeParams,
    V: Matrix,
    secret: Sequence[Sequence[int]],
    seed=None,
    row_order: str = DEFAULT_ROW_ORDER,
) -> List[List[List[int]]]:
    """Share alpha' secret vectors: the PIR grid with the secret as payload.

    Per server, its alpha sub-shares. The randomness is drawn from `seed`
    as `protocol.make_queries` draws it, so the part selectors of file i
    shared with one seed are that seed's queries for file i.
    """
    if len(secret) != params.alpha_prime:
        raise ValueError(f"secret must have {params.alpha_prime} vectors")
    randomness = generate_randomness(params, seed, width=len(secret[0]))
    grid = MessageGrid(params, secret, randomness, row_order)
    return encode_shares(params, V, grid)


def ss_reconstruct(
    params: SchemeParams,
    V: Matrix,
    share_prefixes,
    row_order: str = DEFAULT_ROW_ORDER,
) -> List[List[int]]:
    """Reconstruct the secret from prefix sub-shares of any d in [k, n] servers.

    share_prefixes: mapping server id -> list of sub-share vectors (the
    first alpha'/alpha_j sub-shares of that server's share).
    """
    responders = sorted(share_prefixes)
    widths = {len(v) for subs in share_prefixes.values() for v in subs}
    if len(widths) != 1:
        raise ValueError("sub-shares must share one length")
    width = widths.pop()
    proj = {sid: [tuple(v) for v in subs] for sid, subs in share_prefixes.items()}
    decoded = peel_decode(params, V, responders, proj, width=width, row_order=row_order)
    return [list(v) for v in decoded]
