"""Plain secret-sharing PIR: the ramp baseline universality is measured against.

A query for file i is simply a sharing of that file's part selectors.
Any linear (n, k, t) secret sharing therefore yields a robust PIR scheme
at rate (k-t)/k, and a communication-efficient one yields a universally
robust PIR at rate (mu-t)/mu for every responder count mu in [k, n].
The staircase instance of that construction is the package's PIR path:
`protocol.make_queries` shares the selectors through the staircase codec
(`staircase.ss_share` shares any secret on the same grid), and
`protocol.decode_file` reconstructs from the responders' prefix
projections (as `staircase.ss_reconstruct` does from prefix sub-shares).

This module keeps the contrast: a ramp scheme, PIR on it
(`ramp_retrieve`), and that PIR's rate when more than k servers answer
(`nonuniversality_demo`). Each ramp share is downloaded whole, so mu
responders give rate (k-t)/mu instead of the capacity 1 - t/mu.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Sequence

from . import staircase
from .errors import InsufficientResponders, NotEnoughShares, OutOfRange
from .field import Matrix, vandermonde
from .params import SchemeParams
from .protocol import Database


class RampScheme:
    """(n, k, t) ramp scheme: shares = V_{n x k} [secret; randomness].

    A secret is k-t vectors over GF(q), all of one length, mixed with t
    randomness vectors of that length; each share is one such vector.
    V is the power-form Vandermonde matrix on the distinct nonzero points
    1..n over a prime q > n, which has both defining properties by
    construction, so none is checked. Any k rows of V are a k x k
    Vandermonde matrix on distinct points, hence invertible
    (reconstruction). Any t rows of its last t columns are a t x t
    Vandermonde matrix on distinct points with row p scaled by p^(k-t),
    which is nonzero, hence invertible too (secrecy).
    """

    def __init__(self, params: SchemeParams):
        self.params = params
        if params.q <= params.n:
            raise OutOfRange(f"ramp scheme needs q > n, got q={params.q}")
        self.V = vandermonde(params.field, list(range(1, params.n + 1)), params.k)

    def share(self, secret, randomness) -> List[List[int]]:
        """Per server, its share of `secret` under `randomness`."""
        k, t = self.params.k, self.params.t
        if len(secret) != k - t:
            raise ValueError(f"secret must have {k - t} vectors")
        if len(randomness) != t:
            raise ValueError(f"need {t} randomness vectors")
        return self.V.mul(Matrix(self.params.field, list(secret) + list(randomness))).rows

    def reconstruct(self, shares: Dict[int, Sequence[int]]) -> List[List[int]]:
        """The secret's k-t vectors from any >= k shares, keyed by server id."""
        k = self.params.k
        if len(shares) < k:
            raise NotEnoughShares(f"got {len(shares)} shares, need {k}")
        sids = sorted(shares)[:k]
        A = self.V.submatrix([sid - 1 for sid in sids], range(k))
        rhs = Matrix(self.params.field, [list(shares[sid]) for sid in sids])
        return A.solve(rhs).rows[: k - self.params.t]


def ramp_retrieve(scheme: RampScheme, db: Database, i: int, responders: Sequence[int]):
    """PIR on a ramp scheme: (file i's symbols, symbols downloaded).

    The query for file i shares its alpha' part selectors, the slab unit
    vectors of `staircase.expand_unit`, in alpha groups of k-t, each group
    under its own t randomness vectors, drawn all at once from the OS
    CSPRNG. Every responder gets one sub-query per group and its whole
    share, one projection per group, is downloaded; the file is decoded
    from the first k responders. InsufficientResponders below k;
    ValueError if `db` has other parameters than `scheme`.
    """
    p = db.params
    if p != scheme.params:
        raise ValueError("database and scheme have different parameters")
    if len(responders) < p.k:
        raise InsufficientResponders(f"{len(responders)} responders < k={p.k}")
    w, t = p.k - p.t, p.t
    selectors = [staircase.expand_unit(p, c, i) for c in range(1, p.alpha_prime + 1)]
    randomness = list(staircase.generate_randomness(p, None))  # t * alpha vectors
    file_symbols: List[int] = []
    for g in range(p.alpha):
        shares = scheme.share(selectors[g * w : (g + 1) * w], randomness[g * t : (g + 1) * t])
        answers = {sid: db.project(shares[sid - 1]) for sid in responders}
        for part in scheme.reconstruct(answers):
            file_symbols.extend(part)
    return file_symbols, len(responders) * p.alpha * p.s


def nonuniversality_demo(scheme: RampScheme, db: Database, i: int, mu: int) -> Fraction:
    """Rate of ramp PIR forced to hear from mu responders, servers 1..mu.

    Every responder's full share is downloaded, yet only k-share-worth of
    information is useful, so the rate degrades to (k-t)/mu instead of
    tracking the capacity 1 - t/mu. OutOfRange outside [k, n]; a wrong
    decode raises RuntimeError.
    """
    params = scheme.params
    if not params.k <= mu <= params.n:
        raise OutOfRange(f"mu={mu} outside [{params.k}, {params.n}]")
    got, downloaded = ramp_retrieve(scheme, db, i, range(1, mu + 1))
    expected = db.file_content(i)
    if got != expected:
        raise RuntimeError(f"ramp decode of file {i} from {mu} responders failed")
    return Fraction(len(expected), downloaded)
