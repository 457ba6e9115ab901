"""Scheme parameters and the quantities derived from (n, k, t).

An (n, k, t) scheme replicates m files on n servers, tolerates up to
n-k stragglers and keeps the requested index private against any t
colluding servers. All block/column bookkeeping used by the encoder and
decoder is derived here and nowhere else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, partial

from .errors import FileIndexOutOfRange, InvalidK, InvalidThreshold, OutOfRange
from .field import PrimeField, is_prime
from .errors import NotPrime

# Vertical order of payload vs randomness rows inside each block.
PAYLOAD_FIRST = "payload_first"
RANDOMNESS_FIRST = "randomness_first"

# A quantity derived from (n, k, t, m, q, s) once, in __post_init__; it is
# left out of __init__, equality, hash and repr.
_derived = partial(field, init=False, compare=False, repr=False)


@dataclass(frozen=True)
class SchemeParams:
    """Parameters of an (n, k, t) scheme over GF(q) with m files.

    s is the response width: each file part is a slab of s field symbols,
    so a server answers every sub-query with s symbols. Queries do not
    grow with s: a sub-query has one coefficient per slab, alpha' * m of
    them, whatever s is. s=1 gives one symbol per part.

    The row order puts each block's payload rows above (PAYLOAD_FIRST) or
    below (RANDOMNESS_FIRST) its randomness rows. The construction works
    with either, but the encoder and the decoder must use the same one,
    and for a given V privacy may hold under one order only: Example 1's
    lower-triangular V is private only with randomness first. The order
    is not on the wire and a server never reads it, so two params that
    differ only in their order are different schemes to the encoder and
    the decoder but the same scheme to a server.
    """

    n: int
    k: int
    t: int
    m: int
    q: int
    s: int = 1
    row_order: str = PAYLOAD_FIRST

    h: int = _derived()  # blocks: one per tolerated responder count
    alpha: int = _derived()  # sub-queries per query: lcm of alpha_1..alpha_{n-k}, 1 if empty
    alpha_prime: int = _derived()  # parts per file: (k - t) * alpha
    block_cols: tuple = _derived()  # columns of each block; block 1 holds the payload
    randomness_count: int = _derived()  # random vectors per query: t * alpha
    query_length: int = _derived()  # coefficients per sub-query, one per slab: alpha' * m
    x_length: int = _derived()  # symbols in the flattened data vector: alpha' * m * s
    file_symbols: int = _derived()  # symbols per file: alpha' * s

    def __post_init__(self):
        if self.t < 1 or self.t >= self.k:
            raise InvalidThreshold(f"need 1 <= t < k, got t={self.t}, k={self.k}")
        if self.k > self.n:
            raise InvalidK(f"need k <= n, got k={self.k}, n={self.n}")
        if not is_prime(self.q):
            raise NotPrime(f"q={self.q} is not prime")
        # q > n is only needed for the default power-form Vandermonde; a
        # custom encoding matrix that passes validation may use a smaller
        # field (the exhaustive privacy oracle relies on this).
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if self.s < 1:
            raise ValueError("s must be >= 1")
        if self.row_order not in (PAYLOAD_FIRST, RANDOMNESS_FIRST):
            raise ValueError(f"unknown row order {self.row_order!r}")
        # Set with object.__setattr__, not cached through __dict__ (as
        # functools.cached_property does): on CPython 3.11 touching an
        # instance's __dict__ slows every later field read on it.
        derive = partial(object.__setattr__, self)
        derive("h", self.n - self.k + 1)
        derive("alpha", math.lcm(*(self.alpha_j(j) for j in range(1, self.h))))
        derive("alpha_prime", (self.k - self.t) * self.alpha)
        derive("block_cols", (self.alpha_prime // self.alpha_j(1),) + tuple(
            self.alpha_prime // (self.alpha_j(j) * self.alpha_j(j - 1))
            for j in range(2, self.h + 1)
        ))
        derive("randomness_count", self.t * self.alpha)
        derive("query_length", self.alpha_prime * self.m)
        derive("x_length", self.query_length * self.s)
        derive("file_symbols", self.alpha_prime * self.s)

    # --- derived quantities ------------------------------------------------

    def mu(self, j: int) -> int:
        """Responder count served by level j (mu_1 = n down to mu_h = k)."""
        if not 1 <= j <= self.h:
            raise OutOfRange(f"level j={j} outside [1, {self.h}]")
        return self.n - j + 1

    def alpha_j(self, j: int) -> int:
        """Payload rows of block j."""
        return self.mu(j) - self.t

    def level_for(self, mu: int) -> int:
        """Level j = n - mu + 1 handling responder count mu."""
        if not self.k <= mu <= self.n:
            raise OutOfRange(f"responder count {mu} outside [{self.k}, {self.n}]")
        return self.n - mu + 1

    def prefix_cols(self, mu: int) -> int:
        """Sub-query columns downloaded per responder when mu servers answer."""
        return self.alpha_prime // self.alpha_j(self.level_for(mu))

    @property
    def field(self) -> PrimeField:
        return _field_cache(self.q)

    def slab_index(self, part: int, i: int) -> int:
        """Data slab holding part c (1-based) of file i (1-based): the
        position of that part's selector in a sub-query.

        FileIndexOutOfRange for i outside [1, m], OutOfRange for a part
        outside [1, alpha'].
        """
        if not 1 <= i <= self.m:
            raise FileIndexOutOfRange(f"file index {i} outside [1, {self.m}]")
        if not 1 <= part <= self.alpha_prime:
            raise OutOfRange(f"part {part} outside [1, {self.alpha_prime}]")
        return (part - 1) * self.m + (i - 1)


@lru_cache(maxsize=None)
def _field_cache(q: int) -> PrimeField:
    return PrimeField(q)
