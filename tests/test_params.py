import math
from dataclasses import replace

import pytest

from staircase_pir.errors import (FieldTooSmall, FileIndexOutOfRange, InvalidK, InvalidThreshold,
                                  NotPrime, OutOfRange)
from staircase_pir.params import PAYLOAD_FIRST, RANDOMNESS_FIRST, SchemeParams
from staircase_pir.protocol import default_encoding_matrix
from staircase_pir.staircase import expand_unit


def test_example2_derivation():
    p = SchemeParams(n=4, k=2, t=1, m=2, q=5)
    assert [p.mu(j) for j in (1, 2, 3)] == [4, 3, 2]
    assert [p.alpha_j(j) for j in (1, 2, 3)] == [3, 2, 1]
    assert p.alpha == 6
    assert p.alpha_prime == 6
    assert p.block_cols == (2, 1, 3)
    assert p.randomness_count == 6


def test_example1_derivation():
    p = SchemeParams(n=3, k=2, t=1, m=2, q=5)
    assert p.alpha == 2
    assert p.alpha_prime == 2
    assert p.block_cols == (1, 1)
    assert p.randomness_count == 2


def test_no_straggler_degenerate():
    # k = n: single level, empty LCM is 1.
    p = SchemeParams(n=3, k=3, t=1, m=1, q=5)
    assert p.h == 1
    assert p.alpha == 1
    assert p.alpha_prime == 2
    # One block whose columns account for all alpha sub-queries.
    assert sum(p.block_cols) == p.alpha == 1
    assert p.block_cols == (1,)


def test_validation_errors():
    with pytest.raises(InvalidThreshold):
        SchemeParams(n=4, k=2, t=2, m=1, q=5)
    with pytest.raises(InvalidThreshold):
        SchemeParams(n=4, k=2, t=0, m=1, q=5)
    with pytest.raises(InvalidK):
        SchemeParams(n=3, k=4, t=1, m=1, q=5)
    with pytest.raises(NotPrime):
        SchemeParams(n=3, k=2, t=1, m=1, q=6)
    with pytest.raises(ValueError):
        SchemeParams(n=3, k=2, t=1, m=0, q=5)
    with pytest.raises(ValueError):
        SchemeParams(n=3, k=2, t=1, m=1, q=5, s=0)


def test_small_field_blocks_default_matrix_only():
    # q <= n is allowed at the params level (custom matrices may still
    # work there) but the default Vandermonde needs q > n.
    p = SchemeParams(n=3, k=2, t=1, m=2, q=3)
    with pytest.raises(FieldTooSmall):
        default_encoding_matrix(p)


def all_valid_params(n_max):
    for n in range(2, n_max + 1):
        for k in range(2, n + 1):
            for t in range(1, k):
                yield n, k, t


def test_column_telescoping_exhaustive():
    # Blocks 1..j together have alpha'/alpha_j columns, for every level.
    for n, k, t in all_valid_params(10):
        p = SchemeParams(n=n, k=k, t=t, m=1, q=1009)
        total = 0
        for j in range(1, p.h + 1):
            total += p.block_cols[j - 1]
            assert total == p.alpha_prime // p.alpha_j(j)
        assert total == p.alpha
        assert p.randomness_count == p.t * p.alpha


def test_prefix_cols():
    p = SchemeParams(n=4, k=2, t=1, m=1, q=5)
    assert p.prefix_cols(4) == 2
    assert p.prefix_cols(3) == 3
    assert p.prefix_cols(2) == 6  # all alpha columns


def test_slab_index_refuses_a_part_or_file_out_of_range():
    p = SchemeParams(n=4, k=2, t=1, m=2, q=5)
    assert [p.slab_index(c, i) for c in range(1, p.alpha_prime + 1) for i in (1, 2)] == list(
        range(p.query_length))
    for part in (0, p.alpha_prime + 1):
        with pytest.raises(OutOfRange):
            p.slab_index(part, 1)
        with pytest.raises(OutOfRange):
            expand_unit(p, part, 1)
    for i in (0, p.m + 1):
        with pytest.raises(FileIndexOutOfRange):
            p.slab_index(1, i)


@pytest.mark.parametrize("call", [
    lambda p: p.mu(0), lambda p: p.mu(p.h + 1),
    lambda p: p.level_for(p.k - 1), lambda p: p.level_for(p.n + 1),
], ids=["level-0", "level-above-h", "mu-below-k", "mu-above-n"])
def test_level_and_responder_count_out_of_range(call):
    with pytest.raises(OutOfRange):
        call(SchemeParams(n=4, k=2, t=1, m=2, q=5))


def test_derived_values_are_computed_once(monkeypatch):
    calls = []
    lcm = math.lcm

    def counting(*args):
        calls.append(args)
        return lcm(*args)

    monkeypatch.setattr(math, "lcm", counting)
    p = SchemeParams(n=6, k=4, t=1, m=2, q=257)
    assert [p.alpha for _ in range(5)] == [20] * 5
    assert p.query_length == p.alpha_prime * p.m
    assert len(calls) == 1


def test_reading_derived_values_keeps_equality_and_hash():
    p = SchemeParams(n=4, k=2, t=1, m=2, q=5, s=3)
    p.h, p.alpha, p.block_cols, p.randomness_count, p.x_length, p.file_symbols
    fresh = SchemeParams(n=4, k=2, t=1, m=2, q=5, s=3)
    assert p == fresh
    assert hash(p) == hash(fresh)
    assert {p: 1}[fresh] == 1


def test_row_order_is_one_of_the_two_orders_and_part_of_the_scheme():
    with pytest.raises(ValueError):
        SchemeParams(n=3, k=2, t=1, m=2, q=5, row_order="x")
    p = SchemeParams(n=3, k=2, t=1, m=2, q=5)
    assert p.row_order == PAYLOAD_FIRST
    # The grid and query caches are keyed by params, so the order must
    # tell two params apart.
    other = replace(p, row_order=RANDOMNESS_FIRST)
    assert other != p and hash(other) != hash(p)
