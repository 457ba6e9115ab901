import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from staircase_pir.errors import (
    ColumnOutOfRange,
    DimensionMismatch,
    InsufficientResponders,
    InvalidThreshold,
    MissingResponse,
    OutOfRange,
)
from staircase_pir.examples import example1, example2
from staircase_pir.params import SchemeParams
from staircase_pir.protocol import (
    Database,
    ResponderWait,
    capacity_asymptotic,
    capacity_finite,
    decode_file,
    make_queries,
    plan_download,
    server_respond,
)


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
        db, _ = random_db(params, 1)
        vec = [3, 1, 0, 2]
        expected = sum(a * b for a, b in zip(vec, db.x)) % 5
        assert db.project(vec) == (expected,)


PROJECTION_FIELDS = [2, 3, 5, 257, 65537, 2**31 - 1]
PROJECTION_WIDTHS = [1, 2, 17]


def naive_project(db, qvec):
    """out[off] = sum_j qvec[j] * x[j*s + off] mod q, slab by slab."""
    p = db.params
    return tuple(
        sum(qvec[j] * db.x[j * p.s + off] for j in range(p.query_length)) % p.q
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
        for _ in range(2):  # the second call reuses the packed slabs
            qvec = data.draw(
                st.lists(symbol, min_size=params.query_length, max_size=params.query_length)
            )
            assert db.project(qvec) == naive_project(db, qvec)

    @pytest.mark.parametrize("s", PROJECTION_WIDTHS)
    @pytest.mark.parametrize("q", PROJECTION_FIELDS)
    def test_worst_case_fills_guard_bits(self, q, s):
        # Every symbol and every coefficient q-1: each lane reaches its bound
        # query_length * (q-1)^2 before reduction.
        params = SchemeParams(n=4, k=2, t=1, m=3, q=q, s=s)
        db = Database(params, [q - 1] * params.x_length)
        qvec = [q - 1] * params.query_length
        expected = (params.query_length * (q - 1) ** 2) % q
        assert db.project(qvec) == (expected,) * s == naive_project(db, qvec)

    def test_rejects_wrong_length(self):
        params = SchemeParams(n=3, k=2, t=1, m=2, q=5, s=2)
        db, _ = random_db(params, 1)
        for length in (params.query_length - 1, params.query_length + 1, params.x_length):
            with pytest.raises(DimensionMismatch):
                db.project([1] * length)


class TestRetrieval:
    def test_example1_full_and_degraded(self):
        params, V, order = example1()
        db, files = random_db(params, 2)
        for i in (1, 2):
            queries = make_queries(params, V, i, seed=0, row_order=order)
            # All three servers answer: one response each.
            plan = plan_download(params, [1, 2, 3])
            assert plan.total_symbols == 3
            responses = {
                sid: server_respond(db, queries[sid - 1], range(plan.prefix_cols))
                for sid in (1, 2, 3)
            }
            assert decode_file(params, V, plan, responses, order) == files[i - 1]
            # One straggler: four responses from the survivors.
            plan = plan_download(params, [1, 2])
            assert plan.total_symbols == 4
            responses = {
                sid: server_respond(db, queries[sid - 1], range(plan.prefix_cols))
                for sid in (1, 2)
            }
            assert decode_file(params, V, plan, responses, order) == files[i - 1]

    def test_example2_all_subsets(self):
        params, V, order = example2()
        db, files = random_db(params, 3)
        queries = make_queries(params, V, 2, seed=5, row_order=order)
        for mu in (2, 3, 4):
            for subset in itertools.combinations(range(1, 5), mu):
                plan = plan_download(params, subset)
                responses = {
                    sid: server_respond(db, queries[sid - 1], range(plan.prefix_cols))
                    for sid in subset
                }
                assert decode_file(params, V, plan, responses, order) == files[1]

    def test_different_seeds_same_file(self):
        params, V, order = example2()
        db, files = random_db(params, 4)
        for seed in (10, 11):
            queries = make_queries(params, V, 1, seed=seed, row_order=order)
            plan = plan_download(params, [1, 3, 4])
            responses = {
                sid: server_respond(db, queries[sid - 1], range(plan.prefix_cols))
                for sid in (1, 3, 4)
            }
            assert decode_file(params, V, plan, responses, order) == files[0]
        q1 = make_queries(params, V, 1, seed=10, row_order=order)
        q2 = make_queries(params, V, 1, seed=11, row_order=order)
        assert q1[0].subqueries != q2[0].subqueries

    def test_missing_response_detected(self):
        params, V, order = example2()
        db, _ = random_db(params, 5)
        queries = make_queries(params, V, 1, seed=0, row_order=order)
        plan = plan_download(params, [1, 2, 3])
        responses = {
            sid: server_respond(db, queries[sid - 1], range(plan.prefix_cols))
            for sid in (1, 2)
        }
        with pytest.raises(MissingResponse):
            decode_file(params, V, plan, responses, order)

    def test_server_respond_column_bounds(self):
        params, V, order = example2()
        db, _ = random_db(params, 6)
        queries = make_queries(params, V, 1, seed=0, row_order=order)
        assert len(server_respond(db, queries[0], range(6))) == 6
        with pytest.raises(ColumnOutOfRange):
            server_respond(db, queries[0], [6])
        prefix = make_queries(params, V, 1, seed=0, row_order=order, columns=2)
        with pytest.raises(ColumnOutOfRange):
            server_respond(db, prefix[0], [2])

    @pytest.mark.parametrize("columns", [1, 2, 3, 6])
    def test_late_columns_are_those_of_a_full_expansion(self, columns):
        # One randomness draw and one grid: columns expanded later, one at
        # a time or all at once, are those make_queries expands for all.
        params, V, order = example2()
        full = make_queries(params, V, 2, seed=9, row_order=order)
        prefix = make_queries(params, V, 2, seed=9, row_order=order, columns=columns)
        assert [len(query.subqueries) for query in prefix] == [columns] * params.n
        for query, whole in zip(prefix, full):
            assert query.subqueries == whole.subqueries[:columns]
            query.expand_to(columns + 1)
            query.expand_to(params.alpha)
            assert query.subqueries == whole.subqueries


class TestDownloadPlan:
    def test_symbol_counts_and_rates(self):
        params, _, _ = example2()
        expected = {4: (8, Fraction(3, 4)), 3: (9, Fraction(2, 3)), 2: (12, Fraction(1, 2))}
        for mu, (symbols, rate) in expected.items():
            plan = plan_download(params, list(range(1, mu + 1)))
            assert plan.total_symbols == symbols
            assert plan.rate == rate
            assert plan.rate == rate

    def test_requires_k_responders(self):
        params, _, _ = example2()
        with pytest.raises(InsufficientResponders):
            plan_download(params, [1])

    def test_plan_independent_of_file_index(self):
        # The plan type has no file-index field at all; identical inputs
        # give identical plans.
        params, _, _ = example2()
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
    assert wait.outcomes([1, 4], kept=[4]) == {
        1: "dropped-mid-fetch", 2: "late", 3: "refused", 4: "ok"
    }


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
    assert wait.outcomes([1, 2], kept=[1, 2]) == {1: "ok", 2: "ok", 3: "late"}


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
