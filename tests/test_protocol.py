import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize, invariant, precondition,
                                 rule)

from staircase_pir.errors import (
    DimensionMismatch,
    FileIndexOutOfRange,
    InsufficientResponders,
    InvalidThreshold,
    MissingResponse,
    OutOfRange,
)
from staircase_pir.examples import example1, example2
from staircase_pir.field import Matrix, lane_bytes
from staircase_pir.params import SchemeParams
from staircase_pir.protocol import (
    Database,
    ResponderWait,
    capacity_asymptotic,
    capacity_finite,
    decode_file,
    default_encoding_matrix,
    local_responses,
    make_queries,
    plan_download,
    server_respond,
)
from staircase_pir import staircase
from staircase_pir.staircase import (MessageGrid, build_message_grid, grid_layout, peel_decode,
                                     query_matrix)


def random_db(params, seed):
    rng = random.Random(seed)
    files = [
        [rng.randrange(params.q) for _ in range(params.file_symbols)]
        for _ in range(params.m)
    ]
    return Database.from_files(params, files), files


class TestDatabase:
    def test_layout_roundtrip(self):
        params = SchemeParams(n=4, k=2, t=1, m=3, q=257, s=2)
        db, files = random_db(params, 0)
        for i in range(1, params.m + 1):
            assert db.file_content(i) == files[i - 1]

    def test_projection_matches_manual_sum(self):
        params = SchemeParams(n=3, k=2, t=1, m=2, q=5)
        rng = random.Random(1)
        x = [rng.randrange(params.q) for _ in range(params.x_length)]
        vec = [3, 1, 0, 2]
        expected = sum(a * b for a, b in zip(vec, x)) % 5
        assert Database(params, x).project(vec) == (expected,)

    @pytest.mark.parametrize("q", [5, 257, 65537])
    def test_x_roundtrips_through_file_content(self, q):
        # Part c of file i is slab (c-1)*m + i-1 of x, symbols taken mod q.
        params = SchemeParams(n=4, k=2, t=1, m=3, q=q, s=2)
        rng = random.Random(q)
        x = [rng.randrange(2 * q) for _ in range(params.x_length)]
        db = Database(params, x)
        for i in range(1, params.m + 1):
            expected = []
            for c in range(1, params.alpha_prime + 1):
                base = params.slab_index(c, i) * params.s
                expected += [v % q for v in x[base : base + params.s]]
            assert db.file_content(i) == expected


PROJECTION_FIELDS = [2, 3, 5, 257, 65537, 2**31 - 1]
PROJECTION_WIDTHS = [1, 2, 17]


def naive_project(p, x, qvec):
    """out[off] = sum_j qvec[j] * x[j*s + off] mod q, slab by slab."""
    return tuple(
        sum(qvec[j] * x[j * p.s + off] for j in range(p.query_length)) % p.q
        for off in range(p.s)
    )


class TestProjection:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_naive_reference(self, data):
        q = data.draw(st.sampled_from(PROJECTION_FIELDS))
        s = data.draw(st.sampled_from(PROJECTION_WIDTHS))
        m = data.draw(st.integers(1, 3))
        params = SchemeParams(n=3, k=2, t=1, m=m, q=q, s=s)
        symbol = st.integers(0, q - 1)
        x = data.draw(st.lists(symbol, min_size=params.x_length, max_size=params.x_length))
        db = Database(params, x)
        # Coefficients outside [0, q), negative and >= q, are taken mod q.
        coef = st.one_of(symbol, st.integers(-3 * q, -1), st.integers(q, 3 * q))
        for _ in range(2):  # the slabs packed at construction serve every call
            qvec = data.draw(
                st.lists(coef, min_size=params.query_length, max_size=params.query_length)
            )
            assert db.project(qvec) == naive_project(params, x, qvec)

    @pytest.mark.parametrize("s", PROJECTION_WIDTHS)
    @pytest.mark.parametrize("q", PROJECTION_FIELDS)
    def test_worst_case_fills_guard_bits(self, q, s):
        # Every symbol and every coefficient q-1: each lane reaches its bound
        # query_length * (q-1)^2 before reduction.
        params = SchemeParams(n=4, k=2, t=1, m=3, q=q, s=s)
        x = [q - 1] * params.x_length
        qvec = [q - 1] * params.query_length
        expected = (params.query_length * (q - 1) ** 2) % q
        assert Database(params, x).project(qvec) == (expected,) * s == naive_project(
            params, x, qvec)

    def test_rejects_wrong_length(self):
        params = SchemeParams(n=3, k=2, t=1, m=2, q=5, s=2)
        db, _ = random_db(params, 1)
        for length in (params.query_length - 1, params.query_length + 1, params.x_length):
            with pytest.raises(DimensionMismatch):
                db.project([1] * length)


def naive_expand(q, basis, coeffs):
    """MessageGrid.expand symbol by symbol: out = sum_b coeffs[b] * basis[b]
    mod q, over the dense basis (payloads, then randomness) a grid was built
    from."""
    out = [0] * len(basis[0])
    for coef, vec in zip(coeffs, basis):
        if coef:
            for pos, v in enumerate(vec):
                out[pos] = (out[pos] + coef * v) % q
    return out


def naive_peel(params, V, responders, projections, width):
    """peel_decode with a per-symbol right-hand side and a Matrix solve per level."""
    mu, q = len(responders), params.q
    layout = grid_layout(params)
    A_inv = V.submatrix([sid - 1 for sid in responders], range(mu)).inverse()
    known = {}
    for b in range(params.level_for(mu), 0, -1):
        cols = list(layout.col_range(b))
        rhs_rows = []
        for sid in responders:
            vrow = V.rows[sid - 1]
            rhs_row = []
            for c in cols:
                val = list(projections[sid][c])
                for rr in range(mu, params.mu(b)):
                    coef = vrow[rr]
                    if coef:
                        kn = known[layout.cells[rr][c]]
                        for pos in range(width):
                            val[pos] = (val[pos] - coef * kn[pos]) % q
                rhs_row.extend(val)
            rhs_rows.append(rhs_row)
        solved = A_inv.mul(Matrix(params.field, rhs_rows))
        for rr in range(mu):
            for ci, c in enumerate(cols):
                value = solved.rows[rr][ci * width : (ci + 1) * width]
                known[layout.cells[rr][c]] = tuple(value)
    return [known[c] for c in range(params.alpha_prime)]


def kernel_scheme(q):
    """(params, V) of a scheme over GF(q): (4,2,1) with the default matrix
    where q > 4, else (3,2,1) with a matrix prefix-invertible over any field."""
    if q > 4:
        params = SchemeParams(n=4, k=2, t=1, m=2, q=q)
        return params, default_encoding_matrix(params)
    params = SchemeParams(n=3, k=2, t=1, m=2, q=q)
    return params, Matrix(params.field, [[1, 0, 0], [0, 1, 0], [1, 1, 1]])


def vectors(draw, count, width, hi):
    return [draw(st.lists(st.integers(0, hi), min_size=width, max_size=width))
            for _ in range(count)]


class TestLaneKernels:
    """expand and peel_decode on packed lanes against their per-symbol loops."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_expand_matches_per_symbol_reference(self, data):
        # Entries in [0, 2q) and coefficients in [0, q]: unreduced inputs
        # the per-symbol loop accepts.
        q = data.draw(st.sampled_from(PROJECTION_FIELDS))
        width = data.draw(st.sampled_from(PROJECTION_WIDTHS))
        params, V = kernel_scheme(q)
        payload = vectors(data.draw, params.alpha_prime, width, 2 * q - 1)
        randomness = vectors(data.draw, params.randomness_count, width, 2 * q - 1)
        grid = MessageGrid(params, payload, randomness)
        basis = params.alpha_prime + params.randomness_count
        drawn = vectors(data.draw, 2, basis, q)
        for coeffs in [*query_matrix(params, V)[0][:2], *drawn, [q] + [1] * (basis - 1)]:
            assert grid.expand(coeffs) == naive_expand(q, payload + randomness, coeffs)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_expand_of_a_selector_grid_matches_per_symbol_reference(self, data):
        # build_message_grid holds the selectors as slab positions; the
        # randomness entries are in [0, 2q), reduced or packed as given.
        q = data.draw(st.sampled_from(PROJECTION_FIELDS))
        params, V = kernel_scheme(q)
        i = data.draw(st.integers(1, params.m))
        randomness = vectors(data.draw, params.randomness_count, params.query_length, 2 * q - 1)
        grid = build_message_grid(params, i, randomness)
        selectors = [staircase.expand_unit(params, c, i) for c in range(1, params.alpha_prime + 1)]
        basis = params.alpha_prime + params.randomness_count
        symbolic = [sym for row in query_matrix(params, V) for sym in row]
        for coeffs in [*symbolic, *vectors(data.draw, 2, basis, q), [q - 1] * basis, [q] * basis]:
            assert grid.expand(coeffs) == naive_expand(q, selectors + randomness, coeffs)

    @pytest.mark.parametrize("width", PROJECTION_WIDTHS)
    @pytest.mark.parametrize("q", PROJECTION_FIELDS)
    def test_expand_worst_case_fills_its_lanes(self, q, width):
        # Every entry and coefficient q-1: a lane reaches (alpha' + t*alpha)(q-1)^2.
        params, _ = kernel_scheme(q)
        grid = MessageGrid(params, [[q - 1] * width] * params.alpha_prime,
                           [[q - 1] * width] * params.randomness_count)
        basis = params.alpha_prime + params.randomness_count
        expected = [basis * (q - 1) ** 2 % q] * width
        dense = [[q - 1] * width] * basis
        assert grid.expand([q - 1] * basis) == expected == naive_expand(q, dense, [q - 1] * basis)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_peel_matches_per_symbol_reference(self, data):
        q = data.draw(st.sampled_from(PROJECTION_FIELDS))
        width = data.draw(st.sampled_from(PROJECTION_WIDTHS))
        params, V = kernel_scheme(q)
        mu = data.draw(st.integers(params.k, params.n))
        responders = sorted(data.draw(st.permutations(range(1, params.n + 1)))[:mu])
        projections = {
            sid: [tuple(v) for v in vectors(data.draw, params.prefix_cols(mu), width, 2 * q - 1)]
            for sid in responders
        }
        assert peel_decode(params, V, responders, projections) == naive_peel(
            params, V, responders, projections, width)

    @pytest.mark.parametrize("width", PROJECTION_WIDTHS)
    @pytest.mark.parametrize("q", PROJECTION_FIELDS)
    def test_peel_worst_case(self, q, width):
        # Every projection q-1, from every responder set: with mu < n the
        # replicas fill a lane towards mu (q-1)^2 (1 + (n-mu)(q-1)).
        params, V = kernel_scheme(q)
        for mu in range(params.k, params.n + 1):
            for responders in itertools.combinations(range(1, params.n + 1), mu):
                projections = {sid: [(q - 1,) * width] * params.prefix_cols(mu)
                               for sid in responders}
                assert peel_decode(params, V, responders, projections) == naive_peel(
                    params, V, responders, projections, width)

    def test_wide_field_peels_past_eight_byte_lanes(self):
        # At q = 2^31-1 with mu = k < n the peeling lane needs 12 bytes, so
        # lanes are unpacked without struct.
        q = 2**31 - 1
        params, V = kernel_scheme(q)
        mu = params.k
        assert lane_bytes(mu * (q - 1) ** 2 * (1 + (params.n - mu) * (q - 1))) == 12
        rng = random.Random(2)
        projections = {sid: [(rng.randrange(q), rng.randrange(q))
                             for _ in range(params.prefix_cols(mu))]
                       for sid in (2, 4)}
        assert peel_decode(params, V, [2, 4], projections) == naive_peel(
            params, V, [2, 4], projections, 2)


class TestRetrieval:
    def test_seeded_queries_match_their_golden_digest(self):
        # Every sub-query of every column, for every file, of the transcript
        # test's scheme with seed 11. A kernel that changes one symbol fails here.
        params = SchemeParams(n=4, k=2, t=1, m=4, q=257, s=2)
        V = default_encoding_matrix(params)
        digest = hashlib.sha256()
        for i in range(1, params.m + 1):
            for query in make_queries(params, V, i, seed=11):
                assert len(query.subqueries) == params.alpha
                for sub in query.subqueries:
                    digest.update((",".join(map(str, sub)) + ";").encode())
        assert digest.hexdigest() == (
            "23b55e5ea4e144489b70f33a18a4d0d449ddef784cc165c7bc41dfc7a6c6c891")

    def test_example1_full_and_degraded(self):
        params, V = example1()
        db, files = random_db(params, 2)
        for i in (1, 2):
            queries = make_queries(params, V, i, seed=0)
            # All three servers answer: one response each.
            plan = plan_download(params, [1, 2, 3])
            assert plan.total_symbols == 3
            responses = local_responses(db, queries, plan)
            assert decode_file(params, V, plan, responses) == files[i - 1]
            # One straggler: four responses from the survivors.
            plan = plan_download(params, [1, 2])
            assert plan.total_symbols == 4
            responses = local_responses(db, queries, plan)
            assert decode_file(params, V, plan, responses) == files[i - 1]

    def test_example2_all_subsets(self):
        params, V = example2()
        db, files = random_db(params, 3)
        queries = make_queries(params, V, 2, seed=5)
        for mu in (2, 3, 4):
            for subset in itertools.combinations(range(1, 5), mu):
                plan = plan_download(params, subset)
                responses = local_responses(db, queries, plan)
                assert decode_file(params, V, plan, responses) == files[1]

    def test_different_seeds_same_file(self):
        params, V = example2()
        db, files = random_db(params, 4)
        for seed in (10, 11):
            queries = make_queries(params, V, 1, seed=seed)
            plan = plan_download(params, [1, 3, 4])
            responses = local_responses(db, queries, plan)
            assert decode_file(params, V, plan, responses) == files[0]
        q1 = make_queries(params, V, 1, seed=10)
        q2 = make_queries(params, V, 1, seed=11)
        assert q1[0].subqueries != q2[0].subqueries

    def test_missing_response_detected(self):
        params, V = example2()
        db, _ = random_db(params, 5)
        queries = make_queries(params, V, 1, seed=0)
        plan = plan_download(params, [1, 2, 3])
        responses = local_responses(db, queries, plan)
        del responses[3]
        with pytest.raises(MissingResponse):
            decode_file(params, V, plan, responses)
        # Every responder present, one of them a slab short of the prefix.
        responses[3] = server_respond(db, queries[2].prefix(plan.prefix_cols - 1))
        with pytest.raises(MissingResponse):
            decode_file(params, V, plan, responses)
        responses[3].append(db.project(queries[2].subqueries[plan.prefix_cols - 1]))
        assert decode_file(params, V, plan, responses) == db.file_content(1)

    def test_server_respond_keeps_the_order_of_the_sub_queries_it_is_handed(self):
        params, V = example2()
        db, _ = random_db(params, 7)
        subqueries = make_queries(params, V, 1, seed=0)[0].subqueries
        handed = [subqueries[3], subqueries[1], subqueries[3]]
        answers = server_respond(db, handed)
        assert answers == [db.project(sub) for sub in handed]
        assert server_respond(db, handed[::-1]) == answers[::-1]
        assert server_respond(db, []) == []

    def test_local_responses_answer_each_responder_with_its_prefix(self):
        params, V = example2()
        db, files = random_db(params, 6)
        full = make_queries(params, V, 1, seed=3)
        for subset in ([1, 2], [1, 3, 4], [1, 2, 3, 4]):
            queries = make_queries(params, V, 1, seed=3, columns=1)
            plan = plan_download(params, subset)
            responses = local_responses(db, queries, plan)
            assert sorted(responses) == subset
            for sid, slabs in responses.items():
                assert len(slabs) == plan.prefix_cols
                assert slabs == [db.project(sub)
                                 for sub in full[sid - 1].subqueries[: plan.prefix_cols]]
            assert decode_file(params, V, plan, responses) == files[0]

    @pytest.mark.parametrize("columns", [1, 2, 3, 6])
    def test_late_columns_are_those_of_a_full_expansion(self, columns):
        # One randomness draw and one grid: columns expanded later, one at
        # a time or all at once, are those make_queries expands for all.
        params, V = example2()
        full = make_queries(params, V, 2, seed=9)
        prefix = make_queries(params, V, 2, seed=9, columns=columns)
        assert [len(query.subqueries) for query in prefix] == [columns] * params.n
        for query, whole in zip(prefix, full):
            assert query.subqueries == whole.subqueries[:columns]
            assert query.prefix(columns + 1) == whole.subqueries[: columns + 1]
            assert query.prefix(params.alpha) == whole.subqueries
            assert query.prefix(1) == whole.subqueries[:1]
            assert query.subqueries == whole.subqueries

    def test_seeded_prefix_by_prefix_expansion_matches_a_full_one(self):
        # The randomness is drawn as columns read it; a seeded draw gives
        # the same vectors whichever prefix first reads them.
        for n in range(2, 6):
            for k in range(2, n + 1):
                for t in range(1, k):
                    params = SchemeParams(n=n, k=k, t=t, m=2, q=257)
                    V = default_encoding_matrix(params)
                    full = make_queries(params, V, 2, seed=7)
                    queries = make_queries(params, V, 2, seed=7,
                                           columns=params.prefix_cols(n))
                    for mu in range(n, k - 1, -1):
                        for query in queries:
                            query.prefix(params.prefix_cols(mu))
                    assert [query.subqueries for query in queries] == [
                        query.subqueries for query in full]

    def test_a_query_draws_only_the_randomness_its_columns_read(self, monkeypatch):
        # Bulk's shape: block 1's two columns read 2 of the 6 randomness
        # vectors; the other columns draw the rest, in index order.
        params = SchemeParams(n=4, k=2, t=1, m=64, q=257, s=64)
        V = default_encoding_matrix(params)
        drawn = []
        real = staircase._os_symbols

        def counted(q, count):
            drawn.append(real(q, count))
            return drawn[-1]

        monkeypatch.setattr(staircase, "_os_symbols", counted)
        queries = make_queries(params, V, 5, columns=params.prefix_cols(params.n))
        assert len(drawn) == params.t * params.block_cols[0] == 2
        queries[0].prefix(params.alpha)
        assert len(drawn) == params.randomness_count == 6
        # Basis vector alpha' + u, expanded, is randomness vector u.
        basis = params.alpha_prime + params.randomness_count
        units = [[int(b == params.alpha_prime + u) for b in range(basis)] for u in range(6)]
        assert [queries[0].grid.expand(e) for e in units] == drawn


class TestDownloadPlan:
    def test_symbol_counts_and_rates(self):
        params, _ = example2()
        expected = {4: (8, Fraction(3, 4)), 3: (9, Fraction(2, 3)), 2: (12, Fraction(1, 2))}
        for mu, (symbols, rate) in expected.items():
            plan = plan_download(params, list(range(1, mu + 1)))
            assert plan.total_symbols == symbols
            assert plan.rate == rate
            assert plan.rate == rate

    def test_requires_k_responders(self):
        params, _ = example2()
        with pytest.raises(InsufficientResponders):
            plan_download(params, [1])

    @pytest.mark.parametrize("ids", [[0, 2], [2, 4], [-1, 1, 2]])
    def test_refuses_responder_ids_outside_one_to_n(self, ids):
        # Id 0 once indexed server n's query and V's last row, so the file
        # decoded right under a wrong label; id n+1 raised a bare IndexError.
        params = SchemeParams(n=3, k=2, t=1, m=2, q=257, s=2)
        V = default_encoding_matrix(params)
        shares = staircase.ss_share(params, V, [[1, 2]] * params.alpha_prime, seed=1)
        prefix = params.prefix_cols(len(ids))
        with pytest.raises(OutOfRange):
            plan_download(params, ids)
        with pytest.raises(OutOfRange):
            staircase.ss_reconstruct(params, V, {sid: shares[(sid - 1) % 3][:prefix] for sid in ids})

    def test_plan_independent_of_file_index(self):
        # The plan type has no file-index field at all; identical inputs
        # give identical plans.
        params, _ = example2()
        a = plan_download(params, [2, 4])
        b = plan_download(params, [4, 2])
        assert a == b
        assert "i" not in {f for f in a.__dataclass_fields__}


class TestCapacity:
    def test_asymptotic_values(self):
        assert capacity_asymptotic(1, 3) == Fraction(2, 3)
        assert capacity_asymptotic(1, 2) == Fraction(1, 2)
        assert capacity_asymptotic(1, 4) == Fraction(3, 4)
        with pytest.raises(InvalidThreshold):
            capacity_asymptotic(2, 2)

    def test_finite_values(self):
        assert capacity_finite(1, 1, 10) == 1
        assert capacity_finite(1, 3, 7) == 1
        assert capacity_finite(3, 1, 10) == Fraction(900, 999)
        ratio = capacity_asymptotic(1, 10) / capacity_finite(3, 1, 10)
        assert ratio == Fraction(999, 1000)
        assert Fraction(99, 100) <= ratio <= 1

    def test_convergence_bound_and_monotonicity(self):
        # C_m - C <= (t/k)^m, and C_m does not increase with m.
        for k in range(2, 13):
            for t in range(1, k):
                prev = None
                for m in range(1, 21):
                    cm = capacity_finite(m, t, k)
                    gap = cm - capacity_asymptotic(t, k)
                    assert 0 <= gap <= Fraction(t, k) ** m
                    if prev is not None:
                        assert cm <= prev
                    prev = cm


def test_universality_rate_equals_capacity():
    for n, k, t in [(3, 2, 1), (4, 2, 1), (4, 3, 1), (5, 3, 2), (6, 4, 2)]:
        params = SchemeParams(n=n, k=k, t=t, m=1, q=257)
        for mu in range(k, n + 1):
            plan = plan_download(params, list(range(1, mu + 1)))
            assert plan.rate == capacity_asymptotic(t, mu)


def test_responder_wait_chooses_times_and_labels():
    params = SchemeParams(n=4, k=2, t=1, m=2, q=257)
    wait = ResponderWait(params, wait_for=2, deadline=10.0)
    wait.settle(3, 0.5, "refused")
    wait.settle(4, 1.0)
    assert not wait.done
    wait.settle(1, 2.0)
    assert wait.done and wait.ended == 2.0
    wait.settle(2, 2.5)  # in the same batch: the wait has already ended
    assert wait.ended == 2.0
    assert wait.responders() == [1, 4]
    wait.settle(1, 3.0, "dropped-mid-fetch")
    assert wait.outcomes(kept=[4]) == {
        1: "dropped-mid-fetch", 2: "late", 3: "refused", 4: "ok"
    }


def test_responder_wait_takes_back_the_arrival_of_a_server_that_fails():
    params = SchemeParams(n=4, k=2, t=1, m=2, q=257)
    wait = ResponderWait(params, wait_for=2, deadline=10.0)
    wait.settle(1, 1.0)
    wait.settle(2, 2.0)
    assert wait.done and wait.ended == 2.0
    # Server 1 fails after its acknowledgement: it no longer counts toward
    # the target, and the wait that seemed over ends at the deadline again.
    wait.settle(1, 3.0, "dropped-mid-fetch")
    assert wait.arrived == {2: 2.0} and not wait.done and wait.ended == 10.0
    wait.settle(3, 4.0)
    assert wait.done and wait.ended == 4.0
    assert wait.responders() == [2, 3]
    # A chosen server's drop reopens the choice, and the end moves as before.
    wait.settle(3, 5.0, "dropped-mid-fetch")
    assert wait.chosen is None and wait.ended == 10.0
    assert wait.outcomes(kept=[2]) == {
        1: "dropped-mid-fetch", 2: "ok", 3: "dropped-mid-fetch", 4: "late"
    }


def test_responder_wait_reopens_its_choice_only_when_a_chosen_server_fails():
    params = SchemeParams(n=4, k=2, t=1, m=2, q=257)
    wait = ResponderWait(params, wait_for=2, deadline=10.0)
    wait.settle(1, 1.0)
    wait.settle(2, 2.0)
    assert wait.responders() == [1, 2]
    # A late arrival, or the failure of a server not chosen, leaves the choice.
    wait.settle(3, 3.0)
    wait.settle(4, 4.0, "refused")
    assert wait.chosen == [1, 2] and wait.ended == 2.0
    # A chosen server's failure clears it; two live arrivals remain, so the
    # wait is still done and its end stays where it was.
    wait.settle(1, 5.0, "dropped-mid-fetch")
    assert wait.chosen is None and wait.done and wait.ended == 2.0
    assert wait.responders() == [2, 3]


def test_responder_wait_ends_at_the_deadline():
    params = SchemeParams(n=3, k=2, t=1, m=2, q=257)
    wait = ResponderWait(params, wait_for=3, deadline=0.3)
    wait.settle(2, 0.1)
    assert not wait.done and wait.ended == 0.3
    with pytest.raises(InsufficientResponders):
        wait.responders()
    wait.settle(1, 0.4)  # settled in the batch that woke after the deadline
    assert wait.ended == 0.3
    assert wait.responders() == [1, 2]
    assert wait.outcomes(kept=[1, 2]) == {1: "ok", 2: "ok", 3: "late"}


@pytest.mark.parametrize("target", [1, 5])
def test_responder_wait_target_outside_k_to_n(target):
    with pytest.raises(OutOfRange):
        ResponderWait(SchemeParams(n=4, k=2, t=1, m=2, q=257), target, deadline=1.0)


def test_responder_wait_without_deadline_that_never_ends_has_no_responders():
    params = SchemeParams(n=4, k=2, t=1, m=2, q=257)
    wait = ResponderWait(params, wait_for=3, deadline=math.inf)
    wait.settle(1, 1.0)
    wait.settle(2, 2.0)  # servers 3 and 4 never settle
    assert not wait.done and math.isinf(wait.ended)
    with pytest.raises(InsufficientResponders):
        wait.responders()


class ResponderWaitMachine(RuleBasedStateMachine):
    """ResponderWait under any order of arrivals, failures before or after
    arriving, clock ticks and choices, against a model that keeps the live
    arrivals in the order they came."""

    @initialize(scheme=st.sampled_from([(3, 2, 1), (4, 2, 1), (5, 3, 2), (6, 4, 2)]),
                data=st.data())
    def start(self, scheme, data):
        n, k, t = scheme
        self.params = SchemeParams(n=n, k=k, t=t, m=1, q=257)
        target = data.draw(st.integers(k, n), label="wait_for")
        deadline = data.draw(st.sampled_from([0.5, 2.0, math.inf]), label="deadline")
        self.wait = ResponderWait(self.params, target, deadline)
        self.now = 0.0
        self.order = []  # live arrivals, earliest first
        self.failures = {}
        self.choice = self.ended = None  # the choice standing, and `ended` when it was made

    def unsettled(self):
        return [sid for sid in range(1, self.params.n + 1)
                if sid not in self.order and sid not in self.failures]

    @precondition(lambda self: self.unsettled())
    @rule(data=st.data())
    def arrive(self, data):
        sid = data.draw(st.sampled_from(self.unsettled()), label="arrives")
        self.wait.settle(sid, self.now)
        self.order.append(sid)

    def settle_failure(self, sid, failure):
        self.wait.settle(sid, self.now, failure)
        self.failures[sid] = failure
        if sid in self.order:
            self.order.remove(sid)
        if sid in (self.choice or ()):
            self.choice = None

    @precondition(lambda self: self.unsettled())
    @rule(data=st.data(), failure=st.sampled_from(["refused", "error"]))
    def fail_before_arriving(self, data, failure):
        self.settle_failure(data.draw(st.sampled_from(self.unsettled()), label="fails"), failure)

    @precondition(lambda self: self.order)
    @rule(data=st.data())
    def drop(self, data):
        self.settle_failure(data.draw(st.sampled_from(self.order), label="drops"),
                            "dropped-mid-fetch")

    @rule(dt=st.sampled_from([0.0, 0.25, 1.0]))
    def tick(self, dt):
        self.now += dt

    @precondition(lambda self: self.choice is None)
    @rule()
    def choose(self):
        if math.isinf(self.wait.ended) or len(self.order) < self.params.k:
            with pytest.raises(InsufficientResponders):
                self.wait.responders()
            return
        self.choice = sorted(self.order[: self.wait.target])
        self.ended = self.wait.ended
        assert self.wait.responders() == self.choice

    @invariant()
    def follows_the_rules(self):
        wait, n = self.wait, self.params.n
        assert list(wait.arrived) == self.order and wait.failures == self.failures
        assert set(wait.chosen or ()) <= set(wait.arrived)
        assert wait.chosen == self.choice
        if self.choice is not None:
            assert wait.ended == self.ended
        assert wait.done == (len(self.order) >= wait.target
                             or len(self.order) + len(self.failures) == n)
        kept = self.choice or []
        assert wait.outcomes(kept) == {
            sid: "ok" if sid in kept else self.failures.get(sid, "late")
            for sid in range(1, n + 1)}


TestResponderWaitMachine = ResponderWaitMachine.TestCase
TestResponderWaitMachine.settings = settings(max_examples=100, stateful_step_count=30,
                                             deadline=None)


P_CHECKS = SchemeParams(n=4, k=2, t=1, m=2, q=257)


@pytest.mark.parametrize("error, call", [
    (ValueError, lambda p: Database(p, [0] * (p.x_length - 1))),
    (ValueError, lambda p: Database.from_files(p, [[0] * p.file_symbols])),
    (ValueError, lambda p: Database.from_files(
        p, [[0] * p.file_symbols, [0] * (p.file_symbols + 1)])),
    (ValueError, lambda p: Database.from_lanes(
        p, [bytes(p.file_symbols * Database.lane_width(p) - 1)] * p.m)),
    (FileIndexOutOfRange, lambda p: Database(p, [0] * p.x_length).file_content(0)),
    (InvalidThreshold, lambda p: capacity_finite(2, 2, 2)),
    (ValueError, lambda p: capacity_finite(0, 1, 2)),
], ids=["x-length", "file-count", "file-length", "lane-bytes", "file-0", "capacity-t-ge-k",
        "capacity-m-0"])
def test_protocol_refuses_bad_input(error, call):
    with pytest.raises(error):
        call(P_CHECKS)
