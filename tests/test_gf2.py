"""Randomized properties of the bitset GF(2) API against its definitions."""

import numpy as np
import pytest

from floerss import gf2

from conftest import make_rng


def _random_matrices(rng, count=200):
    """0/1 matrices of 0-8 rows and 0-8 columns, a third of them products
    of thinner factors so that dependent columns are common."""
    for k in range(count):
        rows, cols = (int(x) for x in rng.integers(0, 9, 2))
        if k % 3:
            A = rng.integers(0, 2, (rows, cols))
        else:
            inner = int(rng.integers(0, 4))
            A = rng.integers(0, 2, (rows, inner)) @ rng.integers(0, 2, (inner, cols))
        yield rows, gf2.asgf2(A)


def _span(M):
    return {gf2.product(M, x) for x in range(2 ** len(M))}


def test_rank_and_kernel():
    rng = make_rng(91)
    for _, M in _random_matrices(rng):
        r = gf2.rank(M)
        ker = gf2.kernel(M)
        assert 2 ** r == len(_span(M))
        assert r + len(ker) == len(M)
        assert all(gf2.product(M, k) == 0 for k in ker)
        assert gf2.rank(ker) == len(ker)


def test_column_space_and_sum_basis():
    rng = make_rng(92)
    mats = list(_random_matrices(rng))
    for (_, M), (_, N) in zip(mats, mats[1:]):
        basis = gf2.column_space(M)
        assert gf2.rank(basis) == len(basis) == gf2.rank(M)
        assert all(c in M for c in basis)
        total = gf2.sum_basis(M, N)
        assert gf2.rank(total) == len(total) == gf2.rank(M + N)
        assert all(c in M + N for c in total)


def test_solve_and_in_span():
    rng = make_rng(93)
    for rows, A in _random_matrices(rng):
        xs = [int(x) for x in rng.integers(0, 2 ** len(A), 3)]
        b = [gf2.product(A, x) for x in xs]
        sol = gf2.solve(A, b)
        assert [gf2.product(A, x) for x in sol] == b
        assert gf2.in_span(A, b)
        v = int(rng.integers(0, 2 ** rows))
        inside = gf2.rank(A + [v]) == gf2.rank(A)
        assert gf2.in_span(A, [v]) == inside
        assert (gf2.solve(A, b + [v]) is None) == (not inside)


def test_complement_in():
    rng = make_rng(94)
    mats = list(_random_matrices(rng))
    for (_, B), (_, S) in zip(mats, mats[1:]):
        picked = gf2.complement_in(B, S)
        assert all(c in S for c in picked)
        assert gf2.rank(B + picked) == gf2.rank(B) + len(picked)
        assert gf2.rank(B + picked) == gf2.rank(B + S)


def test_coordinates_mod():
    rng = make_rng(95)
    mats = list(_random_matrices(rng))
    for (rows, B), (_, D) in zip(mats, mats[1:]):
        D = [c & (2 ** rows - 1) for c in D]
        xs = rng.integers(0, 2 ** len(B), 3)
        ys = rng.integers(0, 2 ** len(D), 3)
        v = [gf2.product(B, int(x)) ^ gf2.product(D, int(y))
             for x, y in zip(xs, ys)]
        coords = gf2.coordinates_mod(B, D, v)
        assert all(c < 2 ** len(B) for c in coords)
        # v and its B-part differ by a vector of span(D)
        assert gf2.in_span(D, [gf2.product(B, c) ^ w for c, w in zip(coords, v)])
        w = int(rng.integers(0, 2 ** rows))
        if gf2.rank(B + D + [w]) > gf2.rank(B + D):
            with pytest.raises(ValueError):
                gf2.coordinates_mod(B, D, [w])


def test_asgf2_from_arrays_and_nested_lists():
    rng = make_rng(96)
    for _ in range(50):
        A = rng.integers(-3, 4, tuple(int(x) for x in rng.integers(1, 7, 2)))
        cols = gf2.asgf2(A)
        assert cols == gf2.asgf2(A.tolist())
        assert cols == [sum(int(A[i, j] % 2) << i for i in range(A.shape[0]))
                        for j in range(A.shape[1])]
    assert gf2.asgf2([[0, 1, 1], [1, 0, 3]]) == [2, 1, 3]


def test_empty_matrices():
    assert gf2.asgf2(np.zeros((0, 3), dtype=int)) == [0, 0, 0]
    assert gf2.asgf2(np.zeros((3, 0), dtype=int)) == []
    assert gf2.asgf2([]) == []
    assert gf2.rank([]) == gf2.rank([0, 0]) == 0
    assert gf2.kernel([]) == [] and gf2.kernel([0, 0]) == [1, 2]
    assert gf2.column_space([]) == gf2.column_space([0]) == []
    assert gf2.solve([], [0]) == [0] and gf2.solve([], [1]) is None
    assert gf2.solve([1], []) == []
    assert gf2.sum_basis() == [] and gf2.complement_in([], []) == []
    assert gf2.coordinates_mod([], [], [0]) == [0]
    with pytest.raises(ValueError):
        gf2.coordinates_mod([], [], [1])
