import math
import operator
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from floerss import novikov as nv
from floerss.novikov import LaurentPoly as LP, Z2, Z, L2
from floerss.errors import DivisionByZero, NotAComplex, UnsupportedRing

from conftest import make_rng

laurents = st.dictionaries(st.integers(-4, 4), st.integers(0, 1),
                           max_size=5).map(LP.make)


def test_laurent_examples():
    a = LP.make({0: 1, 1: 1})
    assert str(a * a) == "1 + l^2"
    q, r = nv.laurent_divmod(LP.make({0: 1, 2: 1}), a)
    assert q == a and r.is_zero()
    assert LP.lam(-3) * LP.lam(3) == LP.one()


def test_laurent_division_by_zero():
    with pytest.raises(DivisionByZero):
        nv.laurent_divmod(LP.one(), LP.zero())


@given(laurents, laurents, laurents)
def test_laurent_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + LP.zero() == a
    assert a * LP.one() == a


@given(laurents, laurents)
def test_laurent_divmod_contract(a, b):
    if b.is_zero():
        return
    q, r = nv.laurent_divmod(a, b)
    assert a - (q * b) == r
    assert r.is_zero() or r.span < b.span


def test_smith_examples():
    assert nv.smith_diagonalize([[2]], Z) == [2]
    a = LP.make({0: 1, 1: 1})
    assert nv.smith_diagonalize([[a]], L2) == [a]
    # coprime pivots: only the divisibility fix-up reaches diag(1, ab)
    b = LP.make({0: 1, 1: 1, 2: 1})
    zero = LP.zero()
    assert nv.smith_diagonalize([[a, zero], [zero, b]], L2) == [LP.one(), a * b]
    assert nv.smith_diagonalize([[2, 0], [0, 3]], Z) == [1, 6]


def _det(A, zero):
    """Laplace expansion along the first row."""
    if len(A) == 1:
        return A[0][0]
    acc = zero
    for j in range(len(A)):
        term = A[0][j] * _det([row[:j] + row[j + 1:] for row in A[1:]], zero)
        acc = acc + term if j % 2 == 0 else acc - term
    return acc


def _invariant_factors(M, zero, gcd, exact_div):
    """Nonzero invariant factors from the determinantal divisors:
    s_k = d_k / d_{k-1}, d_k the gcd of the k x k minors."""
    m, n = len(M), len(M[0])
    out, prev = [], None
    for k in range(1, min(m, n) + 1):
        g = zero
        for rows in combinations(range(m), k):
            for cols in combinations(range(n), k):
                g = gcd(g, _det([[M[r][c] for c in cols] for r in rows], zero))
        if g == zero:
            break
        out.append(g if prev is None else exact_div(g, prev))
        prev = g
    return out


def _l2_normalized(a):
    return a if a.is_zero() else a.shift(-a.min_exp)


def _l2_gcd(a, b):
    """Euclid with laurent_divmod, normalized to lowest exponent 0."""
    while not b.is_zero():
        a, b = b, nv.laurent_divmod(a, b)[1]
    return _l2_normalized(a)


def _l2_exact_div(a, b):
    q, r = nv.laurent_divmod(a, b)
    assert r.is_zero()
    return _l2_normalized(q)


def test_smith_random_z_property():
    rng = make_rng(41)
    for _ in range(15):
        m, n = (int(x) for x in rng.integers(1, 5, 2))
        M = [[int(x) for x in row] for row in rng.integers(-6, 7, (m, n))]
        diag = nv.smith_diagonalize([row[:] for row in M], Z)
        assert len(diag) == min(m, n)
        assert [d for d in diag if d != 0] == _invariant_factors(
            M, 0, math.gcd, operator.floordiv)
        for i in range(len(diag) - 1):
            if diag[i] != 0 and diag[i + 1] != 0:
                assert diag[i + 1] % diag[i] == 0
            if diag[i] == 0:
                assert diag[i + 1] == 0
        assert all(d >= 0 for d in diag)


def test_smith_random_l2_property():
    rng = make_rng(42)
    for _ in range(10):
        m, n = (int(x) for x in rng.integers(1, 4, 2))
        M = [[LP.make({int(e): 1 for e in
                       rng.integers(-2, 3, rng.integers(0, 3))})
              for _ in range(n)] for _ in range(m)]
        diag = nv.smith_diagonalize([row[:] for row in M], L2)
        assert len(diag) == min(m, n)
        assert [d for d in diag if not d.is_zero()] == _invariant_factors(
            M, LP.zero(), _l2_gcd, _l2_exact_div)
        # normalization: nonzero factors have lowest exponent 0
        for d in diag:
            if not d.is_zero():
                assert d.min_exp == 0


def test_homology_trivial_boundary():
    C = nv.GradedFreeComplex.build(Z2, [("a", 0), ("b", 2)], {})
    rep = nv.homology(C)["by_degree"]
    assert rep[0]["betti"] == 1 and rep[2]["betti"] == 1


def test_homology_torsion_over_l2():
    C = nv.GradedFreeComplex.build(
        L2, [("b", 0), ("a", 2)], {1: {0: {0: 1, 1: 1}}}, N=2,
        require_graded=False)
    rep = nv.homology(C)
    assert rep["free_rank"] == 0
    assert rep["torsion"] == ["1 + l"]


def _laurent_matmul(A, B):
    zero = LP.zero()
    return [[sum((A[i][k] * B[k][j] for k in range(len(B))), zero)
             for j in range(len(B[0]))] for i in range(len(A))]


def test_l2_homology_known_answer():
    # free generators plus pairs y -> f(l) x (torsion Lambda/(f) for a
    # nonunit f, acyclic for a monomial f), hidden by a unimodular change of
    # basis made of elementary matrices 1 + l^e E_ij (each its own inverse)
    rng = make_rng(44)
    a = LP.make({0: 1, 1: 1})
    b = LP.make({0: 1, 1: 1, 2: 1})
    chains = [[], [a], [b], [a, a * a], [b, a * b]]
    for trial in range(15):
        free = int(rng.integers(0, 3))
        factors = chains[trial % len(chains)]
        units = [LP.lam(int(rng.integers(-2, 3)))
                 for _ in range(int(rng.integers(0, 3)))]
        m = free + 2 * (len(factors) + len(units))
        if m == 0:
            continue
        D = [[LP.zero()] * m for _ in range(m)]
        for k, f in enumerate(factors + units):
            D[free + 2 * k][free + 2 * k + 1] = f
        P = [[LP.one() if i == j else LP.zero() for j in range(m)]
             for i in range(m)]
        Pinv = [row[:] for row in P]
        for _ in range(3 * m if m > 1 else 0):
            i, j = (int(x) for x in rng.choice(m, 2, replace=False))
            E = [[LP.one() if r == c else LP.zero() for c in range(m)]
                 for r in range(m)]
            E[i][j] = LP.lam(int(rng.integers(-2, 3)))
            P = _laurent_matmul(P, E)
            Pinv = _laurent_matmul(E, Pinv)
        d = _laurent_matmul(_laurent_matmul(Pinv, D), P)
        C = nv.GradedFreeComplex.build(
            L2, [(f"g{k}", 0) for k in range(m)],
            {j: {i: d[i][j] for i in range(m) if not d[i][j].is_zero()}
             for j in range(m)}, N=2, require_graded=False)
        rep = nv.homology(C)
        assert rep["free_rank"] == free
        assert rep["torsion"] == sorted(str(f) for f in factors)


def test_homology_circle_over_z():
    C = nv.GradedFreeComplex.build(Z, [("min", 0), ("max", 2)], {1: {}})
    rep = nv.homology(C)["by_degree"]
    assert rep[0] == {"free_rank": 1, "torsion": []}
    assert rep[2] == {"free_rank": 1, "torsion": []}


def test_verify_complex_certificate():
    # d(c) = b, d(b) = a (Z2); d(c) = 2b + b', d(b) = a, d(b') = -a, so
    # d d(c) = a (Z); d(c) = b + (1 + l) b', d(b) = a, d(b') = a, so
    # d d(c) = l a (L2): each entry of d . d is a sum of products in the ring
    gens = [("a", 0), ("b", 2), ("b'", 2), ("c", 4)]
    f = LP.make({0: 1, 1: 1})
    for ring, boundary in [
            (Z2, ({}, {0: 1}, {}, {1: 1})),
            (Z, ({}, {0: 1}, {0: -1}, {1: 2, 2: 1})),
            (L2, ({}, {0: LP.one()}, {0: LP.one()}, {1: LP.one(), 2: f}))]:
        C = nv.GradedFreeComplex(ring=ring, generators=tuple(gens),
                                 boundary=boundary)
        ok, cert = nv.verify_complex(C)
        assert not ok and cert == (0, 3), ring
        with pytest.raises(NotAComplex):
            nv.GradedFreeComplex.build(ring, gens, dict(enumerate(boundary)))
        with pytest.raises(NotAComplex):
            nv.homology(C)
    # the same sums vanish for d(c) = 2b + 2b' over Z and
    # d(c) = (1 + l) b + (1 + l) b' over L2
    for ring, col in [(Z, {1: 2, 2: 2}), (L2, {1: f, 2: f})]:
        boundary = {1: {0: 1}, 2: {0: -1 if ring == Z else 1}, 3: col}
        C = nv.GradedFreeComplex.build(ring, gens, boundary)
        assert nv.verify_complex(C) == (True, None)


def test_euler_characteristic_over_field():
    rng = make_rng(43)
    for _ in range(10):
        # random complex: pairs e -> f plus isolated generators, then a
        # random change of basis within degrees
        gens = []
        boundary = {}
        deg_count = {}
        for k in range(int(rng.integers(2, 6))):
            d = int(rng.integers(0, 4))
            kind = rng.uniform()
            if kind < 0.6:
                i = len(gens)
                gens.append((f"f{i}", 2 * d))
                gens.append((f"e{i}", 2 * d + 2))
                boundary[i + 1] = {i: 1}
            else:
                gens.append((f"s{len(gens)}", 2 * d))
        C = nv.GradedFreeComplex.build(Z2, gens, boundary)
        rep = nv.homology(C)["by_degree"]
        counts = {}
        for _, d2 in gens:
            counts[d2] = counts.get(d2, 0) + 1
        chi_gens = sum((-1) ** (d2 // 2) * c for d2, c in counts.items())
        chi_h = sum((-1) ** (d2 // 2) * e["betti"] for d2, e in rep.items())
        assert chi_gens == chi_h


def test_l2_window_independence():
    # homology over Lambda in the middle degrees is stable under widening
    # the lambda window
    from floerss import chain as ch
    ctx = ch.MonotoneContext(tau=1.0, N=2)
    circle = ch.MorseData.build([("S:0", 0), ("S:1", 1)],
                                [("S:1", "S:0", 1), ("S:1", "S:0", -1)])
    comp = ch.ComponentDatum.build("S", 1, 0.0, 0, [1, 1], morse=circle)
    C = ch.pearl_complex(ch.PearlData.build(ctx, [comp], []))
    small = nv.truncate_to_window(C, (-4, 4))
    large = nv.truncate_to_window(C, (-7, 7))
    rep_s = nv.homology(small)["by_degree"]
    rep_l = nv.homology(large)["by_degree"]
    for d2 in range(-6, 7, 2):
        if d2 in rep_s and d2 in rep_l:
            assert rep_s[d2]["betti"] == rep_l[d2]["betti"]


def test_refuses_z_laurent():
    with pytest.raises(UnsupportedRing):
        nv.smith_diagonalize([[LP.one()]], "LZ")
