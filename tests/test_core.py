import random
from fractions import Fraction

import pytest

from voacalc.core import (
    SparseVec,
    inverse_euler,
    normalized_integer_vector,
    null_space,
    partition_count,
    partitions,
    rank,
    rows_from_vectors,
    series_add,
    solve,
)

from oracles import brute_partitions, gauss_rank, product_series


def test_partitions_match_brute_force():
    for n in range(0, 13):
        for min_part in (1, 2, 3):
            got = partitions(n, min_part)
            assert set(got) == brute_partitions(n, min_part)
            assert len(set(got)) == len(got)
            assert partition_count(n, min_part) == len(got)


def test_partitions_are_descending_and_ordered_deterministically():
    for n in range(8):
        ps = partitions(n)
        assert all(tuple(sorted(p, reverse=True)) == p for p in ps)
        assert ps == partitions(n)


def test_partition_generating_series():
    cutoff = 25
    assert inverse_euler(cutoff) == product_series(range(1, cutoff + 1), cutoff)
    assert [partition_count(n) for n in range(cutoff + 1)] == inverse_euler(cutoff)


def test_sparse_vec_algebra():
    a = SparseVec({("x",): Fraction(2), ("y",): Fraction(-1)})
    b = SparseVec({("y",): Fraction(1)})
    assert (a + b).coeff(("y",)) == 0
    assert list((a + b).keys()) == [("x",)]
    assert (a - a).is_zero()
    assert a.scaled(Fraction(1, 2)).coeff(("x",)) == 1
    assert SparseVec.unit(("z",)).coeff(("z",)) == 1
    assert a == SparseVec({("y",): Fraction(-1), ("x",): Fraction(2)})


def test_rank_matches_gaussian_elimination_on_random_matrices():
    rng = random.Random(7)
    for _ in range(40):
        rows = rng.randrange(1, 6)
        cols = rng.randrange(1, 6)
        mat = [[Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
                for _ in range(cols)] for _ in range(rows)]
        assert rank(mat) == gauss_rank(mat)


def test_null_space_vectors_lie_in_kernel_and_span_it():
    rng = random.Random(11)
    for _ in range(25):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 6)
        mat = [[Fraction(rng.randrange(-3, 4)) for _ in range(cols)]
               for _ in range(rows)]
        basis = null_space(mat)
        assert len(basis) == cols - gauss_rank(mat)
        for vec in basis:
            for row in mat:
                assert sum(r * x for r, x in zip(row, vec)) == 0
        if basis:
            assert gauss_rank(basis) == len(basis)


def test_solve_consistent_and_inconsistent_systems():
    mat = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    assert solve(mat, [Fraction(3), Fraction(6)]) is not None
    assert solve(mat, [Fraction(3), Fraction(7)]) is None
    sol = solve([[Fraction(2), Fraction(0)], [Fraction(1), Fraction(1)]],
                [Fraction(3), Fraction(4)])
    assert sol == [Fraction(3, 2), Fraction(5, 2)]


def test_normalized_integer_vector_clears_denominators():
    v = SparseVec({("a",): Fraction(2, 3), ("b",): Fraction(-4, 9)})
    w = normalized_integer_vector(v, key_order=lambda k: k)
    assert w.coeff(("a",)) == 3 and w.coeff(("b",)) == -2
    coeffs = [w.coeff(k) for k in w.keys()]
    assert all(x.denominator == 1 for x in coeffs)


def test_rows_from_vectors_and_series_ops():
    basis = [("a",), ("b",)]
    vecs = [SparseVec({("a",): Fraction(1)}), SparseVec({("b",): Fraction(2)})]
    assert rows_from_vectors(vecs, basis) == [[1, 0], [0, 2]]
    assert series_add([1, 2], [3, 4, 5]) == [4, 6, 5]


def test_rank_empty_and_zero_cases():
    assert rank([]) == 0
    assert rank([[Fraction(0), Fraction(0)]]) == 0
    assert null_space([[Fraction(0)]]) == [[Fraction(1)]]
