import itertools
import random

import pytest

from staircase_pir.errors import DimensionMismatch, DuplicatePoint, NotPrime, Singular, ZeroPoint
from staircase_pir.field import (
    Matrix,
    PrimeField,
    lane_bytes,
    pack_lanes,
    prefix_invertible,
    unpack_lanes,
    vandermonde,
)


def test_field_construction():
    assert PrimeField(5).q == 5
    assert PrimeField(2).q == 2
    with pytest.raises(NotPrime):
        PrimeField(4)
    with pytest.raises(NotPrime):
        PrimeField(1)
    with pytest.raises(NotPrime):
        PrimeField(91)  # 7 * 13


def test_gf5_arithmetic():
    # Through the 1 x 1 matrices the package multiplies and inverts.
    f = PrimeField(5)
    assert Matrix(f, [[4]]).mul(Matrix(f, [[4]])).rows == [[1]]
    assert Matrix(f, [[2]]).inverse().rows == [[3]]
    with pytest.raises(Singular):
        Matrix(f, [[5]]).inverse()


@pytest.mark.parametrize("q", [2, 3, 5, 7, 11, 13, 101])
def test_fermat_little_theorem(q):
    # a^(q-1) = 1 for every nonzero a, and a times its inverse is 1.
    f = PrimeField(q)
    for a in range(1, q):
        assert f.pow(a, q - 1) == 1
        assert Matrix(f, [[a]]).mul(Matrix(f, [[a]]).inverse()).rows == [[1]]


def test_vandermonde_gf5_golden():
    f = PrimeField(5)
    V = vandermonde(f, [1, 2, 3, 4], 4)
    assert V.rows == [
        [1, 1, 1, 1],
        [1, 2, 4, 3],
        [1, 3, 4, 2],
        [1, 4, 1, 4],
    ]


def test_vandermonde_small_cases():
    f5 = PrimeField(5)
    assert vandermonde(f5, [1], 1).rows == [[1]]
    # Oracle: direct power evaluation.
    f7 = PrimeField(7)
    V = vandermonde(f7, [1, 2, 3], 3)
    expected = [[pow(p, c, 7) for c in range(3)] for p in (1, 2, 3)]
    assert V.rows == expected == [[1, 1, 1], [1, 2, 4], [1, 3, 2]]


def test_vandermonde_rejects_bad_points():
    f = PrimeField(7)
    with pytest.raises(DuplicatePoint):
        vandermonde(f, [1, 2, 2], 3)
    with pytest.raises(ZeroPoint):
        vandermonde(f, [0, 1], 2)


@pytest.mark.parametrize("q", [7, 11])
def test_vandermonde_always_invertible(q):
    # Any c distinct nonzero points give an invertible c x c Vandermonde.
    f = PrimeField(q)
    for c in range(1, min(7, q)):
        for points in itertools.combinations(range(1, q), c):
            assert vandermonde(f, points, c).rank() == c


def test_matrix_solve_identity_and_self():
    f = PrimeField(5)
    V = vandermonde(f, [1, 2, 3, 4], 4)
    B = Matrix(f, [[1, 2], [3, 4], [0, 1], [2, 2]])
    assert Matrix.identity(f, 4).solve(B) == B
    assert V.solve(V) == Matrix.identity(f, 4)


def test_matrix_solve_submatrix_roundtrip():
    f = PrimeField(5)
    V = vandermonde(f, [1, 2, 3, 4], 4)
    A = V.submatrix([0, 1, 2], range(3))
    rng = random.Random(0)
    B = Matrix(f, [[rng.randrange(5) for _ in range(4)] for _ in range(3)])
    X = A.solve(B)
    assert A.mul(X) == B


@pytest.mark.parametrize("q", [5, 7, 257])
def test_matrix_solve_random_roundtrip(q):
    f = PrimeField(q)
    rng = random.Random(q)
    done = 0
    while done < 200:
        n = rng.randrange(1, 5)
        A = Matrix(f, [[rng.randrange(q) for _ in range(n)] for _ in range(n)])
        if A.rank() != n:
            continue
        X = Matrix(f, [[rng.randrange(q) for _ in range(3)] for _ in range(n)])
        assert A.solve(A.mul(X)) == X
        done += 1


def test_singular_raises():
    f = PrimeField(5)
    A = Matrix(f, [[1, 2], [2, 4]])
    with pytest.raises(Singular):
        A.solve(Matrix.identity(f, 2))
    assert A.rank() == 1


F5 = PrimeField(5)
SQUARE = Matrix(F5, [[1, 2], [3, 4]])


@pytest.mark.parametrize("call", [
    lambda: Matrix(F5, [[1, 2], [3]]),
    lambda: SQUARE.mul(Matrix(F5, [[1, 2, 3]])),
    lambda: Matrix(F5, [[1, 2, 3], [4, 5, 6]]).solve(Matrix.identity(F5, 2)),
    lambda: SQUARE.solve(Matrix.identity(F5, 3)),
    lambda: prefix_invertible(SQUARE, [0]),
    lambda: prefix_invertible(SQUARE, [3]),
], ids=["ragged-rows", "mul-shape", "solve-non-square", "solve-rhs-rows",
        "prefix-size-0", "prefix-size-above-n"])
def test_matrix_refuses_mismatched_shapes(call):
    with pytest.raises(DimensionMismatch):
        call()


def test_prefix_invertible_repeated_row():
    f = PrimeField(5)
    bad = Matrix(f, [[1, 1, 1], [1, 1, 1], [1, 2, 4]])
    assert not prefix_invertible(bad, [3])
    assert not prefix_invertible(bad, [2])


def test_prefix_invertible_standard_vandermonde_exhaustive():
    # Every power Vandermonde on distinct nonzero points passes, n <= 8.
    f = PrimeField(11)
    for n in range(1, 9):
        for points in itertools.combinations(range(1, 11), n):
            V = vandermonde(f, points, n)
            assert prefix_invertible(V, range(1, n + 1))


def test_matrix_mul_and_rank():
    f = PrimeField(7)
    A = Matrix(f, [[1, 2], [3, 4]])
    B = Matrix(f, [[0, 1], [1, 0]])
    assert A.mul(B).rows == [[2, 1], [4, 3]]
    assert Matrix(f, [[0] * 3] * 3).rank() == 0
    assert Matrix.identity(f, 3).rank() == 3


def test_lane_bytes_rounds_up_to_a_struct_width_up_to_eight():
    bounds = [0, 255, 256, 2**16, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**72]
    assert [lane_bytes(b) for b in bounds] == [1, 1, 2, 4, 4, 8, 8, 9, 10]


@pytest.mark.parametrize("width", [1, 2, 4, 8, 9])
def test_packed_lanes_sum_lane_by_lane(width):
    # Lanes hold their entries, lowest first; a sum of packed vectors whose
    # lanes stay below 256^width unpacks to the lane-wise sum mod q.
    top = 256**width - 1
    a, b = [0, 1, top // 8, 5], [7, 0, top // 4, top // 2]
    assert unpack_lanes(pack_lanes(a, width), 4, width, 10**30) == a
    total = 3 * pack_lanes(a, width) + pack_lanes(b, width)
    assert unpack_lanes(total, 4, width, 11) == [(3 * x + y) % 11 for x, y in zip(a, b)]
