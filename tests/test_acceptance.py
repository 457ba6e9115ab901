"""Acceptance gate: one test (and one printed verdict line) per criterion.

Run with `pytest -v -s tests/test_acceptance.py` to see the verdict lines.
"""

import itertools
import random
import threading
from contextlib import nullcontext
from fractions import Fraction

from patches import randomness_zeroed

from staircase_pir import ingest, net, sim, staircase
from staircase_pir.examples import example1, example2, format_coeffs
from staircase_pir.field import Matrix, PrimeField
from staircase_pir.params import RANDOMNESS_FIRST, SchemeParams
from staircase_pir.protocol import (
    Database,
    capacity_asymptotic,
    capacity_finite,
    decode_file,
    default_encoding_matrix,
    local_responses,
    make_queries,
    plan_download,
)
from staircase_pir.verify import verify_privacy_exhaustive, verify_privacy_rank


def report(num: int, desc: str, ok: bool):
    print(f"\ncriterion {num} ({desc}): {'PASS' if ok else 'FAIL'}", flush=True)
    assert ok, f"criterion {num} failed: {desc}"


def symbolic_queries(params, V):
    return [
        [format_coeffs(params, sym) for sym in row]
        for row in staircase.query_matrix(params, V)
    ]


def test_criterion_1_triple_server_golden():
    params, V = example1()
    ok = symbolic_queries(params, V) == [
        ["r1", "r2"],
        ["e'1 + r1", "e'2 + r2"],
        ["2e'1 + e'2 + r1", "2e'2 + r2"],
    ]
    # Decode identities over 100 random data/randomness draws:
    #   x_i     = (e_i + r1)^T x - r1^T x
    #   x_{m+i} = (2e_i + e_{m+i} + r1)^T x - r1^T x - 2 x_i
    q, m = params.q, params.m
    rng = random.Random(1)
    for trial in range(100):
        x = [rng.randrange(q) for _ in range(2 * m)]
        for i in range(1, m + 1):
            rnd = staircase.generate_randomness(params, trial * m + i)
            grid = staircase.build_message_grid(params, i, rnd)
            shares = staircase.encode_shares(V, grid)
            y = [
                [sum(a * b for a, b in zip(vec, x)) % q for vec in shares[l]]
                for l in range(3)
            ]
            xi = (y[1][0] - y[0][0]) % q
            xmi = (y[2][0] - y[0][0] - 2 * xi) % q
            ok &= xi == x[i - 1] and xmi == x[m + i - 1]
    report(1, "3-server golden queries and decode identities", ok)


def test_criterion_2_four_server_golden():
    params, V = example2()
    ok = (
        [params.mu(j) for j in (1, 2, 3)] == [4, 3, 2]
        and params.alpha == 6
        and params.alpha_prime == 6
    )
    layout = staircase.grid_layout(params)
    ok &= [
        [format_coeffs(params, layout.symbolic((r, c))) for c in range(6)]
        for r in range(4)
    ] == [
        ["e'1", "e'4", "r1", "e'3", "e'6", "r3"],
        ["e'2", "e'5", "r2", "r4", "r5", "r6"],
        ["e'3", "e'6", "r3", "0", "0", "0"],
        ["r1", "r2", "0", "0", "0", "0"],
    ]
    expected = [
        ["e'1 + e'2 + e'3 + r1", "e'4 + e'5 + e'6 + r2", "r1 + r2 + r3",
         "e'3 + r4", "e'6 + r5", "r3 + r6"],
        ["e'1 + 2e'2 + 4e'3 + 3r1", "e'4 + 2e'5 + 4e'6 + 3r2", "r1 + 2r2 + 4r3",
         "e'3 + 2r4", "e'6 + 2r5", "r3 + 2r6"],
        ["e'1 + 3e'2 + 4e'3 + 2r1", "e'4 + 3e'5 + 4e'6 + 2r2", "r1 + 3r2 + 4r3",
         "e'3 + 3r4", "e'6 + 3r5", "r3 + 3r6"],
        ["e'1 + 4e'2 + e'3 + 4r1", "e'4 + 4e'5 + e'6 + 4r2", "r1 + 4r2 + r3",
         "e'3 + 4r4", "e'6 + 4r5", "r3 + 4r6"],
    ]
    ok &= symbolic_queries(params, V) == expected

    rng = random.Random(2)
    files = [
        [rng.randrange(params.q) for _ in range(params.file_symbols)]
        for _ in range(params.m)
    ]
    db = Database.from_files(params, files)
    queries = make_queries(params, V, 1, seed=0)
    for mu, symbols, rate in [(2, 12, Fraction(1, 2)), (3, 9, Fraction(2, 3)),
                              (4, 8, Fraction(3, 4))]:
        plan = plan_download(params, list(range(1, mu + 1)))
        ok &= plan.total_symbols == symbols and plan.rate == rate
        responses = local_responses(db, queries, plan)
        ok &= decode_file(params, V, plan, responses) == files[0]
    report(2, "4-server golden grid, 24 response vectors, rates 1/2 2/3 3/4", ok)


def test_criterion_3_universality():
    ok = True
    for n, k, t in [(3, 2, 1), (4, 2, 1), (4, 3, 1), (5, 3, 2), (6, 4, 2)]:
        params = SchemeParams(n=n, k=k, t=t, m=1, q=257)
        V = default_encoding_matrix(params)
        rng = random.Random(n * 100 + k * 10 + t)
        subsets = [
            (mu, subset)
            for mu in range(k, n + 1)
            for subset in itertools.combinations(range(1, n + 1), mu)
        ]
        for trial in range(50):
            x = [rng.randrange(params.q) for _ in range(params.x_length)]
            db = Database(params, x)
            expected = db.file_content(1)
            queries = make_queries(params, V, 1, seed=rng.random())
            for mu, subset in subsets:
                plan = plan_download(params, subset)
                ok &= plan.rate == Fraction(mu - t, mu)
                responses = local_responses(db, queries, plan)
                ok &= decode_file(params, V, plan, responses) == expected
        assert ok, f"universality failed for (n,k,t)=({n},{k},{t})"
    report(3, "every subset decodes at rate (mu-t)/mu, 5 schemes x 50 trials", ok)


def small_exhaustive_instance():
    params = SchemeParams(n=3, k=2, t=1, m=2, q=3, row_order=RANDOMNESS_FIRST)
    V = Matrix(PrimeField(3), [[1, 0, 0], [1, 1, 0], [1, 2, 1]])
    return params, V


def test_criterion_4_privacy_exhaustive():
    params, V = small_exhaustive_instance()
    clean = verify_privacy_exhaustive(params, V)
    with randomness_zeroed(0):
        mutated = verify_privacy_exhaustive(params, V)
    ok = clean.ok and not mutated.ok
    report(4, "exhaustive query-distribution equality + mutation control", ok)


def test_criterion_5_privacy_rank():
    ok = True
    for n, k, t in [(3, 2, 1), (4, 2, 1), (4, 3, 1), (5, 3, 2), (6, 4, 2)]:
        params = SchemeParams(n=n, k=k, t=t, m=2, q=257)
        ok &= verify_privacy_rank(params, default_encoding_matrix(params)).ok
    # Agreement with the exhaustive oracle on the brute-forceable instance:
    # both pass it clean, and both fail it with r_1 zeroed.
    params, V = small_exhaustive_instance()
    verdicts = []
    for mutation in (nullcontext(), randomness_zeroed(0)):
        with mutation:
            verdicts.append((verify_privacy_rank(params, V).ok,
                             verify_privacy_exhaustive(params, V).ok))
    ok &= verdicts == [(True, True), (False, False)]
    report(5, "full-rank randomness coefficients for every t-subset", ok)


def test_criterion_6_capacity():
    ok = capacity_finite(3, 1, 10) == Fraction(900, 999)
    ratio = capacity_asymptotic(1, 10) / capacity_finite(3, 1, 10)
    ok &= ratio == Fraction(999, 1000) and Fraction(99, 100) <= ratio <= 1
    for k in range(2, 13):
        for t in range(1, k):
            for m in range(1, 21):
                gap = capacity_finite(m, t, k) - capacity_asymptotic(t, k)
                ok &= 0 <= gap <= Fraction(t, k) ** m
    report(6, "exact capacity values and gap bound (t/k)^m", ok)


def test_criterion_7_nonuniversality_contrast():
    from staircase_pir.secret_sharing import (
        RampScheme,
        nonuniversality_demo,
    )

    params = SchemeParams(n=4, k=2, t=1, m=2, q=257)
    scheme = RampScheme(params)
    rng = random.Random(7)
    files = [
        [rng.randrange(params.q) for _ in range(params.file_symbols)]
        for _ in range(2)
    ]
    db = Database.from_files(params, files)
    ramp_at_2 = nonuniversality_demo(scheme, db, 1, 2)
    ramp_at_4 = nonuniversality_demo(scheme, db, 1, 4)
    stair_at_4 = plan_download(params, [1, 2, 3, 4]).rate
    ok = (
        ramp_at_2 == Fraction(1, 2)
        and ramp_at_4 == Fraction(1, 4)
        and stair_at_4 == Fraction(3, 4)
        and ramp_at_4 < stair_at_4
    )
    report(7, "plain secret-sharing PIR stuck at 1/4 where staircase gets 3/4", ok)


def test_criterion_8_simulation():
    params = SchemeParams(n=4, k=2, t=1, m=2, q=257)
    lat = tuple(sim.LatencyModel.exponential(10) for _ in range(4))
    means = []
    ok = True
    for mu in (2, 3, 4):
        config = sim.SimConfig(
            params=params, latencies=lat,
            wait_for=mu, seed=mu, repetitions=1000,
        )
        metrics = sim.run_simulation(config)
        good = [m for m in metrics if m.success]
        ok &= len(good) == 1000
        ok &= all(m.rate == Fraction(mu - 1, mu) for m in good)
        means.append(sum(m.wait_us for m in good) / len(good))
    ok &= means[0] < means[1] < means[2]
    report(8, "1000-rep straggler sim: exact rates, wait grows with mu", ok)


def test_criterion_9_socket_end_to_end():
    payload = bytes(random.Random(9).randrange(256) for _ in range(64))
    params, db, manifest = ingest.ingest_files(
        [("doc.bin", payload)], n=3, k=2, t=1, q=257
    )
    V = default_encoding_matrix(params)
    servers = [net.serve("127.0.0.1", 0, db, params, V) for _ in range(3)]
    endpoints = [srv.server_address for srv in servers]
    try:
        decoded, metrics = net.retrieve(endpoints, params, V, 1)
        all_alive_ok = (
            ingest.restore_file(decoded, manifest, 1) == payload
            and metrics.rate == Fraction(2, 3)
            and metrics.realized_mu == 3
        )
        servers[2].shutdown()
        servers[2].server_close()
        decoded, metrics = net.retrieve(
            endpoints, params, V, 1, deadline_s=0.5
        )
        degraded_ok = (
            ingest.restore_file(decoded, manifest, 1) == payload
            and metrics.rate == Fraction(1, 2)
            and metrics.realized_mu == 2
        )
    finally:
        # In parallel: each shutdown waits out its serve loop's poll
        # (net.SHUTDOWN_POLL_S).
        stoppers = [threading.Thread(target=srv.shutdown) for srv in servers[:2]]
        for th in stoppers:
            th.start()
        for th in stoppers:
            th.join(timeout=5)
        for srv in servers[:2]:
            srv.server_close()
    report(9, "loopback retrieval, byte-identical with a killed server",
           all_alive_ok and degraded_ok)
