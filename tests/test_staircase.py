import itertools
import random
from dataclasses import replace

import pytest

from staircase_pir import staircase
from staircase_pir.errors import (
    BadEncodingMatrix,
    DimensionMismatch,
    FileIndexOutOfRange,
    InsufficientResponders,
    MissingResponse,
)
from staircase_pir.examples import example1, example2, format_coeffs
from staircase_pir.field import Matrix
from staircase_pir.params import SchemeParams
from staircase_pir.protocol import (
    Database,
    decode_file,
    default_encoding_matrix,
    local_responses,
    make_queries,
    plan_download,
)
from staircase_pir.staircase import (
    PAYLOAD_FIRST,
    RANDOMNESS_FIRST,
    MessageGrid,
    build_message_grid,
    encode_shares,
    generate_randomness,
    grid_layout,
    peel_decode,
    query_matrix,
    ss_reconstruct,
    ss_share,
    validate_encoding_matrix,
)


def sym_grid(params):
    layout = grid_layout(params)
    return [
        [format_coeffs(params, layout.symbolic((r, c))) for c in range(params.alpha)]
        for r in range(params.n)
    ]


def test_grid_example1():
    params, V = example1()
    assert sym_grid(params) == [
        ["r1", "r2"],
        ["e'1", "e'2"],
        ["e'2", "0"],
    ]


def test_grid_example2():
    params, V = example2()
    assert sym_grid(params) == [
        ["e'1", "e'4", "r1", "e'3", "e'6", "r3"],
        ["e'2", "e'5", "r2", "r4", "r5", "r6"],
        ["e'3", "e'6", "r3", "0", "0", "0"],
        ["r1", "r2", "0", "0", "0", "0"],
    ]


LAYOUT_SCHEMES = [(3, 2, 1), (4, 2, 1), (5, 3, 2), (6, 4, 2), (4, 3, 1)]


def test_zero_rows_below_mu_j():
    for n, k, t in LAYOUT_SCHEMES:
        params = SchemeParams(n=n, k=k, t=t, m=1, q=257)
        for order in (PAYLOAD_FIRST, RANDOMNESS_FIRST):
            layout = grid_layout(replace(params, row_order=order))
            for j in range(1, params.h + 1):
                for c in layout.col_range(j):
                    for r in range(params.mu(j), params.n):
                        assert layout.cells[r][c] is None
                    for r in range(params.mu(j)):
                        assert layout.cells[r][c] is not None


def test_each_unit_appears_once_in_block_one():
    for n, k, t in LAYOUT_SCHEMES:
        params = SchemeParams(n=n, k=k, t=t, m=1, q=257)
        for order in (PAYLOAD_FIRST, RANDOMNESS_FIRST):
            layout = grid_layout(replace(params, row_order=order))
            units = [
                row[c]
                for row in layout.cells
                for c in layout.col_range(1)
                if row[c] is not None and row[c] < params.alpha_prime
            ]
            assert sorted(units) == list(range(params.alpha_prime))


def test_generate_randomness_deterministic():
    params = SchemeParams(n=4, k=2, t=1, m=2, q=5)
    a = list(generate_randomness(params, 123))
    b = list(generate_randomness(params, 123))
    c = list(generate_randomness(params, 124))
    assert a == b
    assert a != c
    assert len(a) == 6
    assert all(len(v) == params.x_length for v in a)
    assert all(0 <= sym < 5 for v in a for sym in v)


def test_unseeded_randomness_in_range_and_fresh():
    params = SchemeParams(n=4, k=2, t=1, m=8, q=257, s=4)
    a = list(generate_randomness(params, None))
    b = list(generate_randomness(params, None))
    assert len(a) == params.randomness_count
    assert all(len(v) == params.query_length for v in a)
    assert all(0 <= sym < params.q for v in a + b for sym in v)
    assert a != b


def test_unseeded_randomness_uniform_over_gf5():
    params = SchemeParams(n=4, k=2, t=1, m=2, q=5)
    draws = generate_randomness(params, None, width=4000)
    counts = [0] * 5
    for vec in draws:
        for sym in vec:
            counts[sym] += 1
    expected = sum(counts) / 5
    chi2 = sum((c - expected) ** 2 / expected for c in counts)
    # 4 degrees of freedom: a uniform source exceeds 33 with p < 1e-6.
    assert chi2 < 33


def test_unseeded_randomness_rejects_the_biased_tail(monkeypatch):
    # Feed the byte values 0..255 in turn: of each 256 draws, 255 % 5 = 0
    # would make residue 0 one draw more likely unless 255 is rejected.
    stream = itertools.cycle(range(256))
    monkeypatch.setattr(
        staircase.os, "urandom", lambda size: bytes(next(stream) for _ in range(size))
    )
    params = SchemeParams(n=4, k=2, t=1, m=2, q=5)
    draws = generate_randomness(params, None, width=255 * 2)
    counts = [0] * 5
    for vec in draws:
        for sym in vec:
            counts[sym] += 1
    assert counts == [51 * 2 * params.randomness_count] * 5


def test_unseeded_queries_do_not_use_mersenne_twister(monkeypatch):
    def refuse(*args):
        raise AssertionError("random.Random used for query randomness")

    params, V = example2()
    monkeypatch.setattr(random, "Random", refuse)
    queries = make_queries(params, V, 1)
    assert len(queries) == params.n
    assert all(0 <= sym < params.q for qr in queries for sub in qr.prefix(params.alpha) for sym in sub)


def test_encoding_matrix_checked_once_per_params_and_matrix(monkeypatch):
    params = SchemeParams(n=4, k=2, t=1, m=3, q=13)
    V = default_encoding_matrix(params)
    calls = []
    real = staircase.validate_encoding_matrix
    monkeypatch.setattr(
        staircase, "validate_encoding_matrix",
        lambda *args: calls.append(args) or real(*args),
    )
    for seed in (1, 2, 3):
        make_queries(params, V, 1, seed=seed)
    assert len(calls) == 1
    bad = Matrix(params.field, [[1, 1, 1, 1]] * 4)
    for seed in (1, 2):
        with pytest.raises(BadEncodingMatrix):
            make_queries(params, bad, 1, seed=seed)


@pytest.mark.parametrize("nkt", [(3, 2, 1), (4, 2, 1), (5, 3, 2), (6, 4, 2)])
def test_encode_shares_matches_dense_product(nkt):
    # Reference: Q = V * M with Matrix.mul, M holding each cell's concrete
    # payload or randomness vector, or zeros.
    n, k, t = nkt
    for s in (1, 3):
        params = SchemeParams(n=n, k=k, t=t, m=3, q=257, s=s)
        V = default_encoding_matrix(params)
        w = params.query_length
        for order in (PAYLOAD_FIRST, RANDOMNESS_FIRST):
            ordered = replace(params, row_order=order)
            randomness = generate_randomness(params, s)
            grid = build_message_grid(ordered, 2, randomness)
            basis = [staircase.expand_unit(params, c, 2)
                     for c in range(1, params.alpha_prime + 1)] + list(randomness)
            M = Matrix(params.field, [
                [sym for index in row for sym in ([0] * w if index is None else basis[index])]
                for row in grid_layout(ordered).cells
            ])
            expected = [
                [row[c * w : (c + 1) * w] for c in range(params.alpha)]
                for row in V.mul(M).rows
            ]
            assert encode_shares(V, grid) == expected


def test_query_matrix_computed_once_per_deployment():
    params, V = example2()
    first = staircase.query_matrix(params, V)
    assert staircase.query_matrix(params, Matrix(params.field, V.rows)) is first
    grid = build_message_grid(params, 1, generate_randomness(params, 0))
    hits = staircase._query_matrix.cache_info().hits
    encode_shares(V, grid)
    assert staircase._query_matrix.cache_info().hits == hits + 1


def test_queries_example1_table():
    params, V = example1()
    sym_rows = staircase.query_matrix(params, V)
    fmt = lambda l: [format_coeffs(params, s) for s in sym_rows[l]]
    assert fmt(0) == ["r1", "r2"]
    assert fmt(1) == ["e'1 + r1", "e'2 + r2"]
    assert fmt(2) == ["2e'1 + e'2 + r1", "2e'2 + r2"]


def test_queries_example2_server2_first():
    params, V = example2()
    sym_rows = staircase.query_matrix(params, V)
    assert format_coeffs(params, sym_rows[1][0]) == "e'1 + 2e'2 + 4e'3 + 3r1"


def test_zero_grid_gives_zero_shares():
    params, V = example2()
    zeros = [[0] * params.x_length for _ in range(params.alpha_prime)]
    rzeros = [[0] * params.x_length for _ in range(params.randomness_count)]
    grid = staircase.MessageGrid(params, zeros, rzeros)
    shares = encode_shares(V, grid)
    assert all(
        all(v == 0 for v in sub) for row in shares for sub in row
    )


def test_encode_rejects_bad_matrix():
    params, _ = example2()
    bad = Matrix(params.field, [[1, 1, 1, 1]] * 4)
    rnd = generate_randomness(params, 0)
    with pytest.raises(BadEncodingMatrix):
        encode_shares(bad, build_message_grid(params, 1, rnd))


def test_validate_encoding_matrix_cases():
    params2, V2 = example2()
    assert validate_encoding_matrix(V2, params2)
    params1, V1 = example1()
    assert validate_encoding_matrix(V1, params1)
    dup = Matrix(params1.field, [[1, 1, 1], [1, 1, 1], [1, 2, 4]])
    assert not validate_encoding_matrix(dup, params1)


def test_prefix_cols_example2():
    params, _ = example2()
    assert params.prefix_cols(3) == 3
    assert params.prefix_cols(4) == 2
    assert params.prefix_cols(2) == params.alpha


def test_build_grid_file_index_bounds():
    params, _ = example1()
    rnd = generate_randomness(params, 0)
    with pytest.raises(FileIndexOutOfRange):
        build_message_grid(params, 0, rnd)
    with pytest.raises(FileIndexOutOfRange):
        build_message_grid(params, params.m + 1, rnd)


def project(x, vec, s, q):
    out = [0] * s
    for pos, (a, b) in enumerate(zip(vec, x)):
        if a and b:
            out[pos % s] = (out[pos % s] + a * b) % q
    return tuple(out)


def decode_once(params, V, responders, x, seed):
    rnd = generate_randomness(params, seed)
    grid = build_message_grid(params, 1, rnd)
    shares = encode_shares(V, grid)
    prefix = params.prefix_cols(len(responders))
    proj = {
        sid: [project(x, shares[sid - 1][c], params.s, params.q)
              for c in range(prefix)]
        for sid in responders
    }
    return peel_decode(params, V, responders, proj)


@pytest.mark.parametrize("nkt", [(3, 2, 1), (4, 2, 1), (4, 3, 1), (5, 3, 2), (6, 4, 2)])
def test_peel_decode_roundtrip_all_subsets(nkt):
    n, k, t = nkt
    params = SchemeParams(n=n, k=k, t=t, m=2, q=257)
    V = default_encoding_matrix(params)
    rng = random.Random(n * 100 + k * 10 + t)
    for trial in range(5):
        x = [rng.randrange(params.q) for _ in range(params.x_length)]
        expected = [
            project(x, staircase.expand_unit(params, c, 1), params.s, params.q)
            for c in range(1, params.alpha_prime + 1)
        ]
        for mu in range(k, n + 1):
            for responders in itertools.combinations(range(1, n + 1), mu):
                got = decode_once(params, V, list(responders), x, trial)
                assert got == expected


def test_row_order_swap_preserves_roundtrip():
    params = SchemeParams(n=4, k=2, t=1, m=2, q=257)
    V = default_encoding_matrix(params)
    rng = random.Random(7)
    x = [rng.randrange(params.q) for _ in range(params.x_length)]
    expected = [
        project(x, staircase.expand_unit(params, c, 1), 1, params.q)
        for c in range(1, params.alpha_prime + 1)
    ]
    for order in (PAYLOAD_FIRST, RANDOMNESS_FIRST):
        for mu in (2, 3, 4):
            got = decode_once(replace(params, row_order=order), V, list(range(1, mu + 1)), x, 3)
            assert got == expected


def test_peel_decode_zero_data():
    params, V = example2()
    x = [0] * params.x_length
    got = decode_once(params, V, [1, 2, 3], x, 0)
    assert got == [(0,)] * params.alpha_prime


def test_peel_decode_needs_k_responders():
    params, V = example2()
    with pytest.raises(InsufficientResponders):
        peel_decode(params, V, [1], {1: []})


def test_peel_decode_refuses_a_column_of_the_wrong_width():
    # A responder's columns are packed into one int of lanes, so a short or
    # long column would shift every lane after it; it is refused instead.
    params, V = example2()
    prefix = params.prefix_cols(2)
    good = {sid: [(0, 0)] * prefix for sid in (1, 2)}
    assert peel_decode(params, V, [1, 2], good) == [(0, 0)] * params.alpha_prime
    for bad in ((0,), (0, 0, 0)):
        projections = {**good, 2: [(0, 0)] * (prefix - 1) + [bad]}
        with pytest.raises(DimensionMismatch):
            peel_decode(params, V, [1, 2], projections)


# Every (n, k, t) with 2 <= n <= 6 and 1 <= t < k <= n.
SWEEP_SCHEMES = [(n, k, t) for n in range(2, 7) for k in range(2, n + 1) for t in range(1, k)]


def test_peel_decode_is_exact_on_the_symbolic_sub_queries():
    # Each column of the symbolic Q is a coefficient vector over (payloads,
    # randomness). Decoding is linear, so peeling those vectors yields the
    # payload unit vectors iff every responder set decodes any data exactly.
    subsets = 0
    for n, k, t in SWEEP_SCHEMES:
        params = SchemeParams(n=n, k=k, t=t, m=1, q=257)
        V = default_encoding_matrix(params)
        Q = query_matrix(params, V)
        basis = params.alpha_prime + params.randomness_count
        units = [tuple(int(b == c) for b in range(basis)) for c in range(params.alpha_prime)]
        for mu in range(k, n + 1):
            for subset in itertools.combinations(range(1, n + 1), mu):
                got = peel_decode(params, V, subset, {sid: Q[sid - 1] for sid in subset})
                assert got == units, (n, k, t, subset)
                subsets += 1
    assert (len(SWEEP_SCHEMES), subsets) == (35, 351)


def test_decoder_ignores_columns_beyond_prefix():
    # Supplying exactly the prefix is enough: nothing past it is read.
    params = SchemeParams(n=4, k=2, t=1, m=1, q=257)
    V = default_encoding_matrix(params)
    rng = random.Random(11)
    x = [rng.randrange(params.q) for _ in range(params.x_length)]
    rnd = generate_randomness(params, 5)
    shares = encode_shares(V, build_message_grid(params, 1, rnd))
    responders = [1, 2, 3]
    prefix = params.prefix_cols(3)
    proj = {
        sid: [project(x, shares[sid - 1][c], 1, params.q) for c in range(prefix)]
        for sid in responders
    }
    expected = [
        project(x, staircase.expand_unit(params, c, 1), 1, params.q)
        for c in range(1, params.alpha_prime + 1)
    ]
    assert peel_decode(params, V, responders, proj) == expected


class TestSecretSharingCodec:
    def make(self, seed=0):
        params = SchemeParams(n=4, k=2, t=1, m=1, q=257)
        V = default_encoding_matrix(params)
        rng = random.Random(seed)
        width = 3
        secret = [
            [rng.randrange(params.q) for _ in range(width)]
            for _ in range(params.alpha_prime)
        ]
        return params, V, secret

    def test_roundtrip_every_subset_size(self):
        params, V, secret = self.make()
        shares = ss_share(params, V, secret, seed=9)
        for d in range(params.k, params.n + 1):
            prefix = params.prefix_cols(d)
            for subset in itertools.combinations(range(1, params.n + 1), d):
                prefixes = {
                    sid: shares[sid - 1][:prefix] for sid in subset
                }
                assert ss_reconstruct(params, V, prefixes) == secret

    def test_reconstruct_refuses_a_prefix_one_sub_share_short(self):
        params, V, secret = self.make()
        shares = ss_share(params, V, secret, seed=9)
        prefix = params.prefix_cols(3)
        prefixes = {sid: shares[sid - 1][:prefix] for sid in (1, 2, 3)}
        prefixes[2] = prefixes[2][:-1]
        with pytest.raises(MissingResponse):
            ss_reconstruct(params, V, prefixes)

    def test_unit_secret_matches_pir_grid(self):
        # The part selectors of file i, shared with a seed, are that seed's
        # queries for file i.
        params, V, _ = self.make()
        units = [
            staircase.expand_unit(params, c, 1)
            for c in range(1, params.alpha_prime + 1)
        ]
        via_ss = ss_share(params, V, units, seed=4)
        via_pir = make_queries(params, V, 1, seed=4)
        assert via_ss == [query.prefix(params.alpha) for query in via_pir]

    def test_reconstruct_from_projections_matches_decode_file(self):
        # The responders' prefix projections are prefix sub-shares of the
        # file's parts, so ss_reconstruct decodes what decode_file does.
        params = SchemeParams(n=4, k=2, t=1, m=2, q=257, s=3)
        V = default_encoding_matrix(params)
        rng = random.Random(12)
        files = [
            [rng.randrange(params.q) for _ in range(params.file_symbols)]
            for _ in range(params.m)
        ]
        db = Database.from_files(params, files)
        queries = make_queries(params, V, 2, seed=5)
        for mu in range(params.k, params.n + 1):
            for responders in itertools.combinations(range(1, params.n + 1), mu):
                plan = plan_download(params, responders)
                responses = local_responses(db, queries, plan)
                parts = ss_reconstruct(params, V, responses)
                decoded = decode_file(params, V, plan, responses)
                assert [sym for part in parts for sym in part] == decoded == files[1]

    def test_linearity(self):
        # Sharing is linear in (secret, randomness). ss_share draws its
        # randomness from a seed; beneath that it is encode_shares of a
        # MessageGrid, which takes any randomness.
        params = SchemeParams(n=4, k=2, t=1, m=1, q=257)
        V = default_encoding_matrix(params)
        q = params.q
        rng = random.Random(3)
        width = 2
        share = lambda secret, rnd: encode_shares(
            V, staircase.MessageGrid(params, secret, rnd)
        )
        for trial in range(20):
            mk = lambda rows: [
                [rng.randrange(q) for _ in range(width)] for _ in range(rows)
            ]
            s1, s2 = mk(params.alpha_prime), mk(params.alpha_prime)
            r1, r2 = mk(params.randomness_count), mk(params.randomness_count)
            a, b = rng.randrange(q), rng.randrange(q)
            mix = lambda u, v: [
                [(a * x + b * y) % q for x, y in zip(ru, rv)] for ru, rv in zip(u, v)
            ]
            assert ss_share(params, V, s1, seed=trial) == share(
                s1, generate_randomness(params, trial, width)
            )
            w1 = share(s1, r1)
            w2 = share(s2, r2)
            w = share(mix(s1, s2), mix(r1, r2))
            for l in range(params.n):
                for c in range(params.alpha):
                    mixed = [
                        (a * x + b * y) % q for x, y in zip(w1[l][c], w2[l][c])
                    ]
                    assert w[l][c] == mixed

    def test_download_cost(self):
        # d * alpha'/(d-t) sub-shares when reconstructing from d shares.
        params, V, secret = self.make()
        for d in range(params.k, params.n + 1):
            prefix = params.prefix_cols(d)
            assert d * prefix == d * params.alpha_prime // (d - params.t)


@pytest.mark.parametrize("error, call", [
    (ValueError, lambda p, V: MessageGrid(
        p, [[0]] * (p.alpha_prime - 1), [[0]] * p.randomness_count)),
    (ValueError, lambda p, V: MessageGrid(
        p, [[0]] * p.alpha_prime, [[0]] * (p.randomness_count + 1))),
    (ValueError, lambda p, V: MessageGrid(
        p, [[0]] * p.alpha_prime, [[0]] * (p.randomness_count - 1) + [[0, 0]])),
    (ValueError, lambda p, V: MessageGrid(p, [1] * p.alpha_prime, [[0]] * p.randomness_count)),
    (DimensionMismatch, lambda p, V: validate_encoding_matrix(
        V.submatrix(range(p.n), range(p.n - 1)), p)),
    (ValueError, lambda p, V: ss_share(p, V, [[0]] * (p.alpha_prime + 1), seed=0)),
], ids=["payload-count", "randomness-count", "two-lengths", "unit-position", "non-square-V",
        "secret-count"])
def test_staircase_refuses_bad_input(error, call):
    params, V = example2()
    with pytest.raises(error):
        call(params, V)
