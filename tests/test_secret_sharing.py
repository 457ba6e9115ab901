import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from staircase_pir.errors import InsufficientResponders, NotEnoughShares, OutOfRange
from staircase_pir.field import prefix_invertible
from staircase_pir.params import SchemeParams
from staircase_pir.protocol import (
    Database,
    capacity_asymptotic,
    decode_file,
    default_encoding_matrix,
    local_responses,
    make_queries,
    plan_download,
)
from staircase_pir.secret_sharing import (
    RampScheme,
    nonuniversality_demo,
    ramp_retrieve,
)


def ramp321():
    return RampScheme(SchemeParams(n=3, k=2, t=1, m=2, q=5))


class TestRampScheme:
    def test_roundtrip_all_pairs(self):
        scheme = ramp321()
        rng = random.Random(0)
        secret = [[rng.randrange(5) for _ in range(4)]]
        shares = scheme.share(secret, [[rng.randrange(5) for _ in range(4)]])
        for pair in itertools.combinations(range(1, 4), 2):
            got = scheme.reconstruct({sid: shares[sid - 1] for sid in pair})
            assert got == secret

    def test_zero_secret_zero_randomness(self):
        scheme = ramp321()
        shares = scheme.share([[0, 0]], [[0, 0]])
        assert shares == [[0, 0]] * 3

    def test_not_enough_shares(self):
        scheme = ramp321()
        shares = scheme.share([[1, 2]], [[3, 4]])
        with pytest.raises(NotEnoughShares):
            scheme.reconstruct({1: shares[0]})

    def test_secrecy_distribution_exhaustive(self):
        # Any single share has the same exact distribution for two
        # distinct secrets, over all randomness assignments.
        scheme = ramp321()
        q = 5
        width = 1
        secrets = ([[1]], [[3]])
        for sid in (1, 2, 3):
            hists = []
            for secret in secrets:
                counter = Counter()
                for rv in range(q):
                    shares = scheme.share(secret, [[rv]])
                    counter[tuple(shares[sid - 1])] += 1
                hists.append(counter)
            assert hists[0] == hists[1]

    @pytest.mark.parametrize("n, k, t, q", [(3, 2, 1, 5), (4, 2, 1, 7), (4, 2, 1, 257)])
    def test_matrix_reconstructs_from_any_k_rows_and_hides_from_any_t(self, n, k, t, q):
        # Construction checks neither: both follow from V being Vandermonde
        # on distinct nonzero points.
        scheme = RampScheme(SchemeParams(n=n, k=k, t=t, m=1, q=q))
        assert prefix_invertible(scheme.V, [k])
        assert prefix_invertible(scheme.V.submatrix(range(n), range(k - t, k)), [t])

    def test_linearity(self):
        scheme = ramp321()
        q = 5
        rng = random.Random(2)
        for _ in range(100):
            s1 = [[rng.randrange(q) for _ in range(3)]]
            s2 = [[rng.randrange(q) for _ in range(3)]]
            r1 = [[rng.randrange(q) for _ in range(3)]]
            r2 = [[rng.randrange(q) for _ in range(3)]]
            a, b = rng.randrange(q), rng.randrange(q)
            comb_s = [[(a * u + b * v) % q for u, v in zip(s1[0], s2[0])]]
            comb_r = [[(a * u + b * v) % q for u, v in zip(r1[0], r2[0])]]
            w1 = scheme.share(s1, r1)
            w2 = scheme.share(s2, r2)
            w = scheme.share(comb_s, comb_r)
            for l in range(3):
                mixed = [(a * u + b * v) % q for u, v in zip(w1[l], w2[l])]
                assert w[l] == mixed


def ramp_adapter(n=3, k=2, t=1, q=5, m=2, s=1, seed=0):
    params = SchemeParams(n=n, k=k, t=t, m=m, q=q, s=s)
    scheme = RampScheme(params)
    rng = random.Random(seed)
    files = [[rng.randrange(q) for _ in range(params.file_symbols)] for _ in range(m)]
    return scheme, Database.from_files(params, files), files


class TestSSPIR:
    def test_ramp_retrieval_all_subsets(self):
        scheme, db, files = ramp_adapter()
        for i in (1, 2):
            for subset in itertools.combinations(range(1, 4), 2):
                got, downloaded = ramp_retrieve(scheme, db, i, list(subset))
                assert got == files[i - 1]
                assert Fraction(len(got), downloaded) == Fraction(1, 2)

    def test_ramp_requires_k(self):
        scheme, db, _ = ramp_adapter()
        with pytest.raises(InsufficientResponders):
            ramp_retrieve(scheme, db, 1, [2])

    def test_ramp_refuses_a_database_of_other_params(self):
        scheme, _, _ = ramp_adapter()
        _, other, _ = ramp_adapter(m=3)
        with pytest.raises(ValueError):
            ramp_retrieve(scheme, other, 1, [1, 2])

    @pytest.mark.parametrize("error, call", [
        (OutOfRange, lambda s, db: RampScheme(SchemeParams(n=3, k=2, t=1, m=2, q=3))),
        (ValueError, lambda s, db: s.share([[0]] * 2, [[0]])),
        (ValueError, lambda s, db: s.share([[0]], [])),
        (OutOfRange, lambda s, db: nonuniversality_demo(s, db, 1, 1)),
        (OutOfRange, lambda s, db: nonuniversality_demo(s, db, 1, 4)),
    ], ids=["q-le-n", "secret-count", "randomness-count", "mu-below-k", "mu-above-n"])
    def test_ramp_refuses_bad_input(self, error, call):
        scheme, db, _ = ramp_adapter()
        with pytest.raises(error):
            call(scheme, db)

    def test_nonuniversality_rates(self):
        scheme, db, _ = ramp_adapter(n=4, k=2, t=1, q=7)
        assert nonuniversality_demo(scheme, db, 1, 2) == Fraction(1, 2)
        assert nonuniversality_demo(scheme, db, 1, 4) == Fraction(1, 4)
        assert nonuniversality_demo(scheme, db, 1, 4) < capacity_asymptotic(1, 4)

    def test_nonuniversality_demo_raises_on_a_wrong_decode(self, monkeypatch):
        # An exception, not an assert, so that `python -O` keeps the check.
        scheme, db, files = ramp_adapter(n=4, k=2, t=1, q=7)
        monkeypatch.setattr(db, "file_content", lambda i: files[i % 2])
        with pytest.raises(RuntimeError):
            nonuniversality_demo(scheme, db, 1, 3)

    # The staircase side of the contrast is the PIR path itself.

    def test_staircase_universal_rates(self):
        params = SchemeParams(n=4, k=2, t=1, m=2, q=257)
        rng = random.Random(4)
        files = [
            [rng.randrange(params.q) for _ in range(params.file_symbols)]
            for _ in range(2)
        ]
        db = Database.from_files(params, files)
        for mu, rate in [(2, Fraction(1, 2)), (3, Fraction(2, 3)), (4, Fraction(3, 4))]:
            got, downloaded = staircase_retrieve(db, 2, list(range(1, mu + 1)), seed=8)
            assert got == files[1]
            assert Fraction(len(got), downloaded) == rate
            # mu(k-t)/(mu-t) download units once the file is k-t units.
            units = Fraction(downloaded * (params.k - params.t), len(got))
            assert units == Fraction(mu * (params.k - params.t), mu - params.t)

    def test_staircase_adapter_at_mu_k_matches_worst_case_rate(self):
        params = SchemeParams(n=4, k=2, t=1, m=1, q=257)
        rng = random.Random(6)
        files = [[rng.randrange(params.q) for _ in range(params.file_symbols)]]
        db = Database.from_files(params, files)
        got, downloaded = staircase_retrieve(db, 1, [1, 2], seed=0)
        assert got == files[0]
        assert Fraction(len(got), downloaded) == Fraction(params.k - params.t, params.k)


def staircase_retrieve(db, i, responders, seed):
    """The file and the symbols downloaded, through make_queries and decode_file."""
    params = db.params
    V = default_encoding_matrix(params)
    queries = make_queries(params, V, i, seed=seed)
    plan = plan_download(params, responders)
    responses = local_responses(db, queries, plan)
    return decode_file(params, V, plan, responses), plan.total_symbols
