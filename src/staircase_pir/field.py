"""Exact arithmetic over prime fields GF(q), small dense matrices and packed lanes.

Field elements are plain Python ints in [0, q-1]; a :class:`PrimeField`
instance carries the modulus and provides the arithmetic. Matrices are
row-major lists of ints tied to a field. Everything is exact -- there is
no tolerance concept anywhere in this module.

A vector packed into the fixed-width lanes of one int (`pack_lanes`) turns
a linear combination into one big-integer sum, reduced lane by lane with
`unpack_lanes`; `lane_bytes` sizes a lane for the largest unreduced sum.
"""

from __future__ import annotations

import itertools
import struct
from typing import Iterable, List, Sequence, Tuple

from .errors import DimensionMismatch, DuplicatePoint, NotPrime, Singular, ZeroPoint


def is_prime(q: int) -> bool:
    """Deterministic primality by trial division (moduli stay small)."""
    if q < 2:
        return False
    if q % 2 == 0:
        return q == 2
    d = 3
    while d * d <= q:
        if q % d == 0:
            return False
        d += 2
    return True


_STRUCT_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}


def ints_to_bytes(values: Sequence[int], width: int) -> bytes:
    """Non-negative ints as consecutive `width`-byte little-endian fields."""
    if width == 1:
        return bytes(values)
    code = _STRUCT_CODES.get(width)
    if code is not None:
        return struct.pack(f"<{len(values)}{code}", *values)
    return b"".join(v.to_bytes(width, "little") for v in values)


def ints_from_bytes(data: bytes, width: int, count: int) -> Tuple[int, ...]:
    """Inverse of ints_to_bytes for the first `count` fields of `data`."""
    code = _STRUCT_CODES.get(width)
    if code is not None:
        return struct.unpack_from(f"<{count}{code}", data)
    return tuple(
        int.from_bytes(data[pos : pos + width], "little")
        for pos in range(0, count * width, width)
    )


def lane_bytes(bound: int) -> int:
    """Bytes per lane holding up to `bound`: 1, 2, 4 or 8, or the exact count above 8."""
    need = max(1, (bound.bit_length() + 7) // 8)
    return need if need > 8 else 1 << (need - 1).bit_length()


def pack_lanes(values: Sequence[int], width: int) -> int:
    """Non-negative ints as the `width`-byte lanes of one int, entry 0 lowest."""
    return int.from_bytes(ints_to_bytes(values, width), "little")


def unpack_lanes(packed: int, count: int, width: int, q: int) -> List[int]:
    """The `count` lanes of a packed int, or of a sum of them, mod q."""
    data = packed.to_bytes(count * width, "little")
    lanes = data if width == 1 else ints_from_bytes(data, width, count)
    return [v % q for v in lanes]


class PrimeField:
    """The prime field GF(q). Immutable; safe to share between threads."""

    __slots__ = ("q",)

    def __init__(self, q: int):
        if not is_prime(q):
            raise NotPrime(f"{q} is not prime")
        self.q = q

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.q == self.q

    def __hash__(self):
        return hash(("PrimeField", self.q))

    def __repr__(self):
        return f"GF({self.q})"

    def pow(self, a: int, e: int) -> int:
        return pow(a, e, self.q)


class Matrix:
    """Dense matrix over a prime field, row-major list of lists of int."""

    __slots__ = ("field", "rows")

    def __init__(self, field: PrimeField, rows: Sequence[Sequence[int]]):
        self.field = field
        self.rows = [[v % field.q for v in row] for row in rows]
        if self.rows:
            w = len(self.rows[0])
            if any(len(r) != w for r in self.rows):
                raise DimensionMismatch("ragged rows")

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and other.field == self.field
            and other.rows == self.rows
        )

    def __repr__(self):
        return f"Matrix({self.field!r}, {self.rows!r})"

    @classmethod
    def identity(cls, field: PrimeField, n: int) -> "Matrix":
        return cls(field, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def mul(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise DimensionMismatch(
                f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}"
            )
        q = self.field.q
        orows = other.rows
        out = []
        for row in self.rows:
            acc = [0] * other.ncols
            for a, orow in zip(row, orows):
                if a:
                    for j, b in enumerate(orow):
                        acc[j] += a * b
            out.append([v % q for v in acc])
        return Matrix(self.field, out)

    def submatrix(self, row_idx: Iterable[int], col_idx: Iterable[int]) -> "Matrix":
        cols = list(col_idx)
        return Matrix(self.field, [[self.rows[i][j] for j in cols] for i in row_idx])

    def rank(self) -> int:
        return _reduce([row[:] for row in self.rows], self.ncols, self.field.q)

    def solve(self, rhs: "Matrix") -> "Matrix":
        """Return X with self @ X = rhs, by Gauss-Jordan elimination on [self | rhs]."""
        n = self.nrows
        if n != self.ncols:
            raise DimensionMismatch("solve needs a square matrix")
        if rhs.nrows != n:
            raise DimensionMismatch("rhs row count mismatch")
        aug = [row + extra for row, extra in zip(self.rows, rhs.rows)]
        if _reduce(aug, n, self.field.q) < n:
            raise Singular("matrix is singular")
        return Matrix(self.field, [row[n:] for row in aug])

    def inverse(self) -> "Matrix":
        return self.solve(Matrix.identity(self.field, self.nrows))


def _reduce(work: List[List[int]], cols: int, q: int) -> int:
    """Gauss-Jordan elimination of `work` over its first `cols` columns, in
    place, taking the first nonzero pivot of each column; returns the rank."""
    r = 0
    for c in range(cols):
        if r == len(work):
            break
        pivot = next((i for i in range(r, len(work)) if work[i][c] % q), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        inv = pow(work[r][c], q - 2, q)
        work[r] = [(v * inv) % q for v in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = [(a - f * b) % q for a, b in zip(work[i], work[r])]
        r += 1
    return r


def vandermonde(field: PrimeField, points: Sequence[int], cols: int) -> Matrix:
    """Rows (p^0, p^1, ..., p^(cols-1)) for each evaluation point p."""
    pts = [p % field.q for p in points]
    if len(set(pts)) != len(pts):
        raise DuplicatePoint(f"points not pairwise distinct: {points}")
    if any(p == 0 for p in pts):
        raise ZeroPoint("evaluation points must be nonzero")
    return Matrix(field, [[field.pow(p, c) for c in range(cols)] for p in pts])


def prefix_invertible(matrix: Matrix, sizes: Iterable[int]) -> bool:
    """Check the property the peeling decoder relies on.

    For every size c in `sizes`, every c-row subset of `matrix` restricted
    to the first c columns must be invertible.
    """
    n = matrix.nrows
    for c in set(sizes):
        if c < 1 or c > n or c > matrix.ncols:
            raise DimensionMismatch(f"submatrix size {c} out of range")
        for rows in itertools.combinations(range(n), c):
            if matrix.submatrix(rows, range(c)).rank() != c:
                return False
    return True
