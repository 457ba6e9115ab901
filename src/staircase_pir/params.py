"""Scheme parameters and the quantities derived from (n, k, t).

An (n, k, t) scheme replicates m files on n servers, tolerates up to
n-k stragglers and keeps the requested index private against any t
colluding servers. All block/column bookkeeping used by the encoder and
decoder is derived here and nowhere else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import InvalidK, InvalidThreshold, OutOfRange
from .field import PrimeField, is_prime
from .errors import NotPrime


@dataclass(frozen=True)
class SchemeParams:
    """Parameters of an (n, k, t) scheme over GF(q) with m files.

    s is the response width: each file part is a slab of s field symbols,
    so a server answers every sub-query with s symbols. Queries do not
    grow with s: a sub-query has one coefficient per slab, alpha' * m of
    them, whatever s is. s=1 gives one symbol per part.
    """

    n: int
    k: int
    t: int
    m: int
    q: int
    s: int = 1

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

    # --- derived quantities ------------------------------------------------

    @property
    def h(self) -> int:
        """Number of blocks: one per tolerated responder count."""
        return self.n - self.k + 1

    def mu(self, j: int) -> int:
        """Responder count served by level j (mu_1 = n down to mu_h = k)."""
        if not 1 <= j <= self.h:
            raise OutOfRange(f"level j={j} outside [1, {self.h}]")
        return self.n - j + 1

    def alpha_j(self, j: int) -> int:
        """Payload rows of block j."""
        return self.mu(j) - self.t

    @property
    def alpha(self) -> int:
        """Sub-queries per query: LCM of alpha_1..alpha_{n-k} (1 if empty)."""
        values = [self.alpha_j(j) for j in range(1, self.h)]
        return math.lcm(*values) if values else 1

    @property
    def alpha_prime(self) -> int:
        """Parts per file: (k - t) * alpha."""
        return (self.k - self.t) * self.alpha

    @property
    def block_cols(self) -> tuple:
        """Columns of each block; block 1 holds the payload matrix."""
        cols = [self.alpha_prime // self.alpha_j(1)]
        for j in range(2, self.h + 1):
            cols.append(self.alpha_prime // (self.alpha_j(j) * self.alpha_j(j - 1)))
        return tuple(cols)

    def level_for(self, mu: int) -> int:
        """Level j = n - mu + 1 handling responder count mu."""
        if not self.k <= mu <= self.n:
            raise OutOfRange(f"responder count {mu} outside [{self.k}, {self.n}]")
        return self.n - mu + 1

    def prefix_cols(self, mu: int) -> int:
        """Sub-query columns downloaded per responder when mu servers answer."""
        return self.alpha_prime // self.alpha_j(self.level_for(mu))

    @property
    def randomness_count(self) -> int:
        return self.t * self.alpha

    @property
    def query_length(self) -> int:
        """Coefficients per sub-query: one per slab, alpha' * m."""
        return self.alpha_prime * self.m

    @property
    def x_length(self) -> int:
        """Length of the flattened data vector: alpha' * m * s symbols."""
        return self.alpha_prime * self.m * self.s

    @property
    def file_symbols(self) -> int:
        return self.alpha_prime * self.s

    @property
    def field(self) -> PrimeField:
        return _field_cache(self.q)

    def slab_index(self, part: int, i: int) -> int:
        """Data slab holding part c (1-based) of file i (1-based)."""
        return (part - 1) * self.m + (i - 1)


@lru_cache(maxsize=None)
def _field_cache(q: int) -> PrimeField:
    return PrimeField(q)
