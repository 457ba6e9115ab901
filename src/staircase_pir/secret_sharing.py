"""Linear secret sharing schemes and the PIR-from-secret-sharing bridge.

A query for file i is simply a sharing of that file's part selectors.
Any linear (n, k, t) secret sharing therefore yields a robust PIR scheme
at rate (k-t)/k, and a communication-efficient one yields a universally
robust PIR at rate (mu-t)/mu for every responder count mu in [k, n].
"""

from __future__ import annotations

import itertools
from abc import ABC, abstractmethod
from fractions import Fraction
from typing import Dict, List, Optional, Sequence

from . import staircase
from .errors import InsufficientResponders, NotEnoughShares, OutOfRange
from .field import Matrix, vandermonde
from .params import SchemeParams
from .protocol import Database, default_encoding_matrix


class LinearSecretSharingScheme(ABC):
    """Interface shared by the ramp baseline and the staircase codec.

    A secret is `secret_width` vectors over GF(q), all of one length; a
    share is `subshare_count` vectors of that same length. Linearity in
    (secret, randomness) is part of the contract and is what makes
    shares-of-selectors commute with projection onto the data.
    """

    params: SchemeParams

    @property
    @abstractmethod
    def secret_width(self) -> int:
        """Number of payload vectors per secret."""

    @property
    @abstractmethod
    def subshare_count(self) -> int:
        """Vectors per share."""

    @property
    @abstractmethod
    def randomness_count(self) -> int:
        """Randomness vectors consumed per sharing."""

    @abstractmethod
    def share(self, secret, randomness) -> List[List[List[int]]]:
        """Encode `secret` into n shares using explicit `randomness`."""

    @abstractmethod
    def reconstruct(self, shares: Dict[int, Sequence[Sequence[int]]]):
        """Recover the secret from any >= k shares (keyed by server id)."""

    def share_with_seed(self, secret, seed):
        randomness = staircase.generate_randomness(self.params, seed, len(secret[0]))
        return self.share(secret, randomness[: self.randomness_count])


class RampScheme(LinearSecretSharingScheme):
    """(n, k, t) ramp scheme: shares = V_{n x k} [secret; randomness].

    V is the power-form Vandermonde on points 1..n. Construction asserts
    both defining properties instead of assuming them: every k-row
    submatrix is invertible (reconstruction) and every t-row submatrix of
    the last t columns is invertible (secrecy).
    """

    def __init__(self, params: SchemeParams):
        self.params = params
        if params.q <= params.n:
            raise OutOfRange(f"ramp scheme needs q > n, got q={params.q}")
        self.V = vandermonde(params.field, list(range(1, params.n + 1)), params.k)
        n, k, t = params.n, params.k, params.t
        for rows in itertools.combinations(range(n), k):
            assert self.V.submatrix(rows, range(k)).rank() == k, "MDS violated"
        for rows in itertools.combinations(range(n), t):
            sub = self.V.submatrix(rows, range(k - t, k))
            assert sub.rank() == t, "secrecy submatrix singular"

    @property
    def secret_width(self) -> int:
        return self.params.k - self.params.t

    @property
    def subshare_count(self) -> int:
        return 1

    @property
    def randomness_count(self) -> int:
        return self.params.t

    def share(self, secret, randomness):
        if len(secret) != self.secret_width:
            raise ValueError(f"secret must have {self.secret_width} vectors")
        if len(randomness) != self.params.t:
            raise ValueError(f"need {self.params.t} randomness vectors")
        msg = Matrix(self.params.field, list(secret) + list(randomness))
        return [[row] for row in self.V.mul(msg).rows]

    def reconstruct(self, shares):
        k = self.params.k
        if len(shares) < k:
            raise NotEnoughShares(f"got {len(shares)} shares, need {k}")
        sids = sorted(shares)[:k]
        A = self.V.submatrix([sid - 1 for sid in sids], range(k))
        rhs = Matrix(self.params.field, [list(shares[sid][0]) for sid in sids])
        msg = A.solve(rhs)
        return [row[:] for row in msg.rows[: self.secret_width]]


class StaircaseScheme(LinearSecretSharingScheme):
    """The staircase codec exposed through the generic interface."""

    def __init__(self, params: SchemeParams, V: Optional[Matrix] = None,
                 row_order: str = staircase.DEFAULT_ROW_ORDER):
        self.params = params
        self.V = default_encoding_matrix(params) if V is None else V
        self.row_order = row_order

    @property
    def secret_width(self) -> int:
        return self.params.alpha_prime

    @property
    def subshare_count(self) -> int:
        return self.params.alpha

    @property
    def randomness_count(self) -> int:
        return self.params.randomness_count

    def share(self, secret, randomness):
        shares = staircase.ss_share(
            self.params, self.V, secret, randomness=randomness,
            row_order=self.row_order,
        )
        return shares.rows

    def reconstruct(self, shares):
        """Any d in [k, n] shares; only the first prefix_cols(d) sub-shares
        of each are read, so those prefixes are enough."""
        d = len(shares)
        if d < self.params.k:
            raise NotEnoughShares(f"got {d} shares, need {self.params.k}")
        if d > self.params.n:
            raise OutOfRange("more shares than servers")
        prefix = self.params.prefix_cols(d)
        return staircase.ss_reconstruct(
            self.params, self.V, {sid: subs[:prefix] for sid, subs in shares.items()},
            row_order=self.row_order,
        )


class SSPIRAdapter:
    """PIR on top of any linear secret sharing scheme, over `protocol.Database`.

    The query for file i shares that file's alpha' part selectors, the slab
    unit vectors of `staircase.expand_unit`, `scheme.secret_width` at a
    time: alpha groups of k-t for the ramp scheme, one group for the
    staircase codec. Either way each server gets alpha sub-queries of
    query_length coefficients, answered by `Database.project`.
    """

    def __init__(self, scheme: LinearSecretSharingScheme, db: Database):
        if db.params != scheme.params:
            raise ValueError("database and scheme have different parameters")
        self.scheme = scheme
        self.db = db
        self.groups = db.params.alpha_prime // scheme.secret_width

    def queries(self, i: int, seed=None) -> List[List[List[int]]]:
        """Per server, its alpha sub-queries, group after group."""
        params = self.db.params
        selectors = [
            staircase.expand_unit(params, c, i) for c in range(1, params.alpha_prime + 1)
        ]
        # groups * scheme.randomness_count == params.randomness_count: one
        # draw feeds every group, each taking its own slice.
        randomness = staircase.generate_randomness(params, seed)
        w, r = self.scheme.secret_width, self.scheme.randomness_count
        out: List[List[List[int]]] = [[] for _ in range(params.n)]
        for g in range(self.groups):
            shares = self.scheme.share(
                selectors[g * w : (g + 1) * w], randomness[g * r : (g + 1) * r]
            )
            for subs, share in zip(out, shares):
                subs.extend(share)
        return out

    def answers(self, i: int, responders: Sequence[int], per_group: int, seed=None):
        """Per group, each responder's projections on the first `per_group`
        sub-queries of that group."""
        shares = self.queries(i, seed)
        sc = self.scheme.subshare_count
        return [
            {
                sid: [
                    self.db.project(v)
                    for v in shares[sid - 1][g * sc : g * sc + per_group]
                ]
                for sid in responders
            }
            for g in range(self.groups)
        ]

    def downloaded(self, responders: int, per_group: int) -> int:
        return responders * self.groups * per_group * self.db.params.s


def _joined(parts_per_group) -> List[int]:
    return [sym for parts in parts_per_group for part in parts for sym in part]


def _full_share_retrieve(adapter: SSPIRAdapter, i: int, responders, seed):
    """Download every responder's full share and reconstruct the file."""
    sc = adapter.scheme.subshare_count
    answers = adapter.answers(i, responders, sc, seed)
    file_symbols = _joined(adapter.scheme.reconstruct(a) for a in answers)
    return file_symbols, adapter.downloaded(len(responders), sc)


def sspir_retrieve(adapter: SSPIRAdapter, i: int, responders: Sequence[int], seed=None):
    """Worst-case retrieval: full shares from exactly k responders.

    Returns (file symbols, downloaded symbol count).
    """
    k = adapter.scheme.params.k
    if len(responders) < k:
        raise InsufficientResponders(f"{len(responders)} responders < k={k}")
    return _full_share_retrieve(adapter, i, sorted(responders)[:k], seed)


def nonuniversality_demo(adapter: SSPIRAdapter, i: int, mu: int, seed=None) -> Fraction:
    """Rate of a worst-case scheme forced to hear from mu responders.

    Every responder's full share is downloaded, yet only k-share-worth of
    information is useful, so the rate degrades to (k-t)/mu instead of
    tracking the capacity 1 - t/mu.
    """
    params = adapter.scheme.params
    if not params.k <= mu <= params.n:
        raise OutOfRange(f"mu={mu} outside [{params.k}, {params.n}]")
    got, downloaded = _full_share_retrieve(adapter, i, range(1, mu + 1), seed)
    expected = adapter.db.file_content(i)
    assert got == expected, "ramp decode failed"
    return Fraction(len(expected), downloaded)


def sspir_universal_retrieve(
    adapter: SSPIRAdapter, i: int, responders: Sequence[int], seed=None
):
    """Capacity-tracking retrieval through a communication-efficient scheme.

    Returns (file symbols, downloaded symbol count, rate).
    """
    scheme = adapter.scheme
    if not isinstance(scheme, StaircaseScheme):
        raise NotImplementedError("scheme has no communication-efficient reconstruction")
    k = scheme.params.k
    if len(responders) < k:
        raise InsufficientResponders(f"{len(responders)} responders < k={k}")
    d = len(responders)
    prefix = scheme.params.prefix_cols(d)
    answers = adapter.answers(i, responders, prefix, seed)
    file_symbols = _joined(scheme.reconstruct(a) for a in answers)
    downloaded = adapter.downloaded(d, prefix)
    return file_symbols, downloaded, Fraction(len(file_symbols), downloaded)
