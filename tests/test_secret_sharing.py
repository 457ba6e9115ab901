import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from staircase_pir.errors import InsufficientResponders, NotEnoughShares
from staircase_pir.params import SchemeParams
from staircase_pir.protocol import (
    Database,
    capacity_asymptotic,
    decode_file,
    default_encoding_matrix,
    make_queries,
    plan_download,
    server_respond,
)
from staircase_pir.secret_sharing import (
    RampScheme,
    SSPIRAdapter,
    StaircaseScheme,
    nonuniversality_demo,
    sspir_retrieve,
    sspir_universal_retrieve,
)


def ramp321():
    return RampScheme(SchemeParams(n=3, k=2, t=1, m=2, q=5))


class TestRampScheme:
    def test_roundtrip_all_pairs(self):
        scheme = ramp321()
        rng = random.Random(0)
        secret = [[rng.randrange(5) for _ in range(4)]]
        shares = scheme.share_with_seed(secret, 1)
        for pair in itertools.combinations(range(1, 4), 2):
            got = scheme.reconstruct({sid: shares[sid - 1] for sid in pair})
            assert got == secret

    def test_zero_secret_zero_randomness(self):
        scheme = ramp321()
        shares = scheme.share([[0, 0]], [[0, 0]])
        assert shares == [[[0, 0]]] * 3

    def test_not_enough_shares(self):
        scheme = ramp321()
        shares = scheme.share_with_seed([[1, 2]], 0)
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
                    counter[tuple(shares[sid - 1][0])] += 1
                hists.append(counter)
            assert hists[0] == hists[1]

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
                mixed = [(a * u + b * v) % q for u, v in zip(w1[l][0], w2[l][0])]
                assert w[l][0] == mixed


class TestStaircaseSchemeLinearity:
    def test_linearity(self):
        params = SchemeParams(n=4, k=2, t=1, m=1, q=257)
        scheme = StaircaseScheme(params)
        q = params.q
        rng = random.Random(3)
        width = 2
        for _ in range(20):
            mk = lambda rows: [
                [rng.randrange(q) for _ in range(width)] for _ in range(rows)
            ]
            s1, s2 = mk(scheme.secret_width), mk(scheme.secret_width)
            r1, r2 = mk(scheme.randomness_count), mk(scheme.randomness_count)
            a, b = rng.randrange(q), rng.randrange(q)
            mix = lambda u, v: [
                [(a * x + b * y) % q for x, y in zip(ru, rv)] for ru, rv in zip(u, v)
            ]
            w1 = scheme.share(s1, r1)
            w2 = scheme.share(s2, r2)
            w = scheme.share(mix(s1, s2), mix(r1, r2))
            for l in range(params.n):
                for c in range(scheme.subshare_count):
                    mixed = [
                        (a * x + b * y) % q for x, y in zip(w1[l][c], w2[l][c])
                    ]
                    assert w[l][c] == mixed


def ramp_adapter(n=3, k=2, t=1, q=5, m=2, s=1, seed=0):
    params = SchemeParams(n=n, k=k, t=t, m=m, q=q, s=s)
    scheme = RampScheme(params)
    rng = random.Random(seed)
    files = [[rng.randrange(q) for _ in range(params.file_symbols)] for _ in range(m)]
    return SSPIRAdapter(scheme, Database.from_files(params, files)), files


class TestSSPIR:
    def test_ramp_retrieval_all_subsets(self):
        adapter, files = ramp_adapter()
        for i in (1, 2):
            for subset in itertools.combinations(range(1, 4), 2):
                got, downloaded = sspir_retrieve(adapter, i, list(subset), seed=i)
                assert got == files[i - 1]
                assert Fraction(len(got), downloaded) == Fraction(1, 2)

    def test_ramp_requires_k(self):
        adapter, _ = ramp_adapter()
        with pytest.raises(InsufficientResponders):
            sspir_retrieve(adapter, 1, [2])

    def test_ramp_has_no_universal_retrieval(self):
        adapter, _ = ramp_adapter()
        with pytest.raises(NotImplementedError):
            sspir_universal_retrieve(adapter, 1, [1, 2, 3], seed=0)

    def test_nonuniversality_rates(self):
        adapter, _ = ramp_adapter(n=4, k=2, t=1, q=7)
        assert nonuniversality_demo(adapter, 1, 2) == Fraction(1, 2)
        assert nonuniversality_demo(adapter, 1, 4) == Fraction(1, 4)
        assert nonuniversality_demo(adapter, 1, 4) < capacity_asymptotic(1, 4)

    def test_staircase_universal_rates(self):
        params = SchemeParams(n=4, k=2, t=1, m=2, q=257)
        scheme = StaircaseScheme(params)
        rng = random.Random(4)
        files = [
            [rng.randrange(params.q) for _ in range(params.file_symbols)]
            for _ in range(2)
        ]
        adapter = SSPIRAdapter(scheme, Database.from_files(params, files))
        for mu, rate in [(2, Fraction(1, 2)), (3, Fraction(2, 3)), (4, Fraction(3, 4))]:
            got, downloaded, achieved = sspir_universal_retrieve(
                adapter, 2, list(range(1, mu + 1)), seed=8
            )
            assert got == files[1]
            assert achieved == rate
            # mu(k-t)/(mu-t) download units once the file is k-t units.
            units = Fraction(downloaded * (params.k - params.t), len(got))
            assert units == Fraction(mu * (params.k - params.t), mu - params.t)

    def test_adapter_matches_protocol_path(self):
        params = SchemeParams(n=4, k=2, t=1, m=2, q=257)
        V = default_encoding_matrix(params)
        rng = random.Random(5)
        files = [
            [rng.randrange(params.q) for _ in range(params.file_symbols)]
            for _ in range(2)
        ]
        db = Database.from_files(params, files)
        adapter = SSPIRAdapter(StaircaseScheme(params, V), db)
        for mu in (2, 3, 4):
            responders = list(range(1, mu + 1))
            via_adapter, _, _ = sspir_universal_retrieve(adapter, 1, responders, seed=6)
            queries = make_queries(params, V, 1, seed=6)
            plan = plan_download(params, responders)
            responses = {
                sid: server_respond(db, queries[sid - 1], range(plan.prefix_cols))
                for sid in responders
            }
            via_protocol = decode_file(params, V, plan, responses)
            assert via_adapter == via_protocol == files[0]

    def test_staircase_adapter_at_mu_k_matches_worst_case_rate(self):
        params = SchemeParams(n=4, k=2, t=1, m=1, q=257)
        scheme = StaircaseScheme(params)
        rng = random.Random(6)
        files = [[rng.randrange(params.q) for _ in range(params.file_symbols)]]
        adapter = SSPIRAdapter(scheme, Database.from_files(params, files))
        got, downloaded, rate = sspir_universal_retrieve(adapter, 1, [1, 2], seed=0)
        assert got == files[0]
        assert rate == Fraction(params.k - params.t, params.k)
