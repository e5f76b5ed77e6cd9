import numpy as np
import pytest

from floerss import orsign as osn
from floerss.errors import (DegenerateOutward, FloerssError, NotExact,
                            NotIndependent, NotSubspace, NotTransverse)

from conftest import make_rng

B = osn.BasedSpace.build
E1, E2 = (1.0, 0.0), (0.0, 1.0)


def rand_space(rng, m, d):
    while True:
        M = rng.standard_normal((m, d))
        if d == 0 or np.linalg.matrix_rank(M) == d:
            return B(m, [tuple(M[:, j]) for j in range(d)])


def test_sum_orient_examples():
    ref = B(2, [E1, E2])
    assert osn.orientation_sign(osn.sum_orient(B(2, [E1]), B(2, [E2])), ref) == 1
    assert osn.orientation_sign(osn.sum_orient(B(2, [E2]), B(2, [E1])), ref) == -1
    X = B(4, [(1, 0, 0, 0), (0, 1, 0, 0)])
    Y = B(4, [(0, 0, 1, 0), (0, 0, 0, 1)])
    assert osn.orientation_sign(osn.sum_orient(X, Y), osn.sum_orient(Y, X)) == 1


def test_sum_orient_rejects_dependent():
    with pytest.raises(NotIndependent):
        osn.sum_orient(B(2, [E1]), B(2, [E1]))


def test_commute_sign_law_on_random_pairs():
    rng = make_rng(71)
    count = 0
    while count < 200:
        dx, dy = (int(x) for x in rng.integers(1, 4, 2))
        m = dx + dy + int(rng.integers(0, 3))
        Mx = rng.standard_normal((m, dx))
        My = rng.standard_normal((m, dy))
        if np.linalg.matrix_rank(np.concatenate([Mx, My], 1)) < dx + dy:
            continue
        X = B(m, [tuple(Mx[:, j]) for j in range(dx)])
        Y = B(m, [tuple(My[:, j]) for j in range(dy)])
        s = osn.orientation_sign(osn.sum_orient(X, Y), osn.sum_orient(Y, X))
        assert s == (-1) ** (dx * dy)
        count += 1


def test_exact_sequence_identity():
    X = B(3, [(1, 0, 0), (0, 1, 0)])
    assert osn.exact_seq_orient([X, X], [np.eye(3)]) == 1
    assert osn.exact_seq_orient([X, X.flipped()], [np.eye(3)]) == -1


def test_exact_sequence_recovers_sum():
    rng = make_rng(72)
    for _ in range(20):
        m = int(rng.integers(2, 6))
        dx = int(rng.integers(1, m))
        dy = int(rng.integers(1, m - dx + 1))
        X = rand_space(rng, m, dx)
        Y = rand_space(rng, m, dy)
        try:
            S = osn.sum_orient(X, Y)
        except NotIndependent:
            continue
        A = np.concatenate([X.matrix(), Y.matrix()], axis=1)
        sol, *_ = np.linalg.lstsq(A, np.eye(m), rcond=None)
        projY = Y.matrix() @ sol[dx:, :]
        assert osn.exact_seq_orient([X, S, Y], [np.eye(m), projY]) == 1


def test_exact_sequence_four_term_stability():
    # 0 -> ker f -> X -> Y -> coker f -> 0 for a rank-1 map between planes;
    # the convention sign is stable under re-basing the middle spaces
    rng = make_rng(73)
    f = np.array([[1.0, 0.0], [0.0, 0.0]])
    K = B(2, [(0, 1)])
    Q = B(2, [(0, 1)])
    base = None
    for _ in range(20):
        GX = rng.standard_normal((2, 2))
        GY = rng.standard_normal((2, 2))
        if abs(np.linalg.det(GX)) < 0.1 or abs(np.linalg.det(GY)) < 0.1:
            continue
        X = B(2, [tuple(GX[:, 0]), tuple(GX[:, 1])])
        Y = B(2, [tuple(GY[:, 0]), tuple(GY[:, 1])])
        sX = 1 if np.linalg.det(GX) > 0 else -1
        sY = 1 if np.linalg.det(GY) > 0 else -1
        # the quadruple sign determined relative to fixed orientations of the
        # middle spaces must not depend on the bases chosen to represent them
        proj = np.array([[0.0, 0.0], [0.0, 1.0]])
        total = osn.exact_seq_orient([K, X, Y, Q], [np.eye(2), f, proj])
        total *= sX * sY
        if base is None:
            base = total
        assert total == base


def test_exact_sequence_rejects_non_exact():
    X = B(2, [E1, E2])
    with pytest.raises(NotExact):
        osn.exact_seq_orient([X, X], [np.zeros((2, 2))])


def test_fibre_with_zero_target_is_sum():
    X = B(2, [E1])
    Y = B(2, [E2])
    Z0 = osn.BasedSpace(1, (), 1)
    W = osn.fibre_orient(X, Y, Z0, np.zeros((1, 2)), np.zeros((1, 2)))
    assert W.dim == 2
    lifted = osn.sum_orient(B(4, [(1, 0, 0, 0)]), B(4, [(0, 0, 0, 1)]))
    assert osn.orientation_sign(W, lifted) == 1


def test_fibre_not_transverse():
    X = B(2, [E1])
    Y = B(2, [E1])
    Z = B(2, [E1, E2])
    with pytest.raises(NotTransverse):
        osn.fibre_orient(X, Y, Z, np.eye(2), np.eye(2))


def test_fibre_refuses_a_map_leaving_the_target():
    # -psi sends E2 off the line Z; it used to be projected onto Z
    X, Y, Z = B(2, [E1]), B(2, [E2]), B(2, [E1])
    with pytest.raises(NotSubspace) as exc:
        osn.fibre_orient(X, Y, Z, np.eye(2), np.eye(2))
    assert exc.value.payload["residual"] == pytest.approx(1.0)
    # a map into Z on X + Y is answered, whatever it does off X + Y
    W = osn.fibre_orient(X, Y, Z, np.eye(2), np.array([[1.0, 1.0], [1.0, 0.0]]))
    assert W.dim == 1


def test_cap_fibre_compatibility():
    rng = make_rng(74)
    trials = 0
    while trials < 50:
        m = int(rng.integers(2, 5))
        Z = rand_space(rng, m, m)
        dx = int(rng.integers(1, m + 1))
        dy = int(rng.integers(max(1, m - dx), m + 1))
        if dx + dy - m < 0:
            continue
        X = rand_space(rng, m, dx)
        Y = rand_space(rng, m, dy)
        if np.linalg.matrix_rank(np.concatenate([X.matrix(), Y.matrix()], 1),
                                 tol=1e-9) < m:
            continue
        trials += 1
        W = osn.fibre_orient(X, Y, Z, np.eye(m), np.eye(m))
        P = W.matrix()[:m, :]
        cap = osn.cap_orient(X, Y, Z)
        if W.dim == 0:
            assert W.sign * cap.sign == 1
        else:
            Wproj = osn.BasedSpace(
                m, tuple(tuple(P[:, j]) for j in range(P.shape[1])), W.sign)
            assert osn.orientation_sign(Wproj, cap) == 1


def test_fibre_associativity():
    rng = make_rng(75)
    trials = 0
    attempts = 0
    while trials < 100 and attempts < 5000:
        attempts += 1
        m0, m01, m1 = (int(x) for x in rng.integers(1, 4, 3))
        z0m, z1m = (int(x) for x in rng.integers(1, 3, 2))
        X0 = rand_space(rng, m0, m0)
        X01 = rand_space(rng, m01, m01)
        X1 = rand_space(rng, m1, m1)
        Z0 = rand_space(rng, z0m, z0m)
        Z1 = rand_space(rng, z1m, z1m)
        phi0 = rng.standard_normal((z0m, m0))
        psi0 = rng.standard_normal((z0m, m01))
        psi1 = rng.standard_normal((z1m, m01))
        phi1 = rng.standard_normal((z1m, m1))
        try:
            inner = osn.fibre_orient(X01, X1, Z1, psi1, phi1)
            if inner.dim == 0:
                continue
            psi0_ext = np.concatenate([psi0, np.zeros((z0m, m1))], axis=1)
            lhs = osn.fibre_orient(X0, inner, Z0, phi0, psi0_ext)
            inner2 = osn.fibre_orient(X0, X01, Z0, phi0, psi0)
            if inner2.dim == 0:
                continue
            psi1_ext = np.concatenate([np.zeros((z1m, m0)), psi1], axis=1)
            rhs = osn.fibre_orient(inner2, X1, Z1, psi1_ext, phi1)
        except NotTransverse:
            continue
        if lhs.dim != rhs.dim:
            continue
        trials += 1
        if lhs.dim == 0:
            assert lhs.sign * rhs.sign == 1
        else:
            assert osn.orientation_sign(lhs, rhs) == 1
    assert trials == 100


def test_quotient_examples():
    T = B(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    L = B(3, [(0, 0, 1)])
    Q = osn.quotient_orient(T, L)
    assert Q.dim == 2
    assert osn.orientation_sign(Q, osn.quotient_orient(T, L.flipped())) == -1
    assert osn.quotient_orient(T, T).sign == 1
    zero = osn.BasedSpace(3, (), 1)
    assert osn.quotient_orient(T, zero).dim == 3
    with pytest.raises(NotSubspace):
        osn.quotient_orient(B(3, [(1, 0, 0)]), B(3, [(0, 1, 0)]))


def test_boundary_examples():
    I2 = B(2, [E1, E2])
    bd = osn.boundary_orient(I2, E1)
    assert osn.orientation_sign(bd, B(2, [(0.0, -1.0)])) == 1
    assert osn.boundary_orient(B(1, [(1.0,)]), (1.0,)).sign == 1
    bd_flip = osn.boundary_orient(I2, (-1.0, 0.0))
    assert osn.orientation_sign(bd, bd_flip) == -1
    with pytest.raises(DegenerateOutward):
        osn.boundary_orient(I2, (0.0, 0.0))


# -- the absolute conventions, pinned by outcomes recorded as literals ----------
#
# Each case's outcome is the dimension of the result and the sign of
# det(R^T basis) for the fixed matrix R below (by Cauchy-Binet a sign that
# depends only on the orientation), the sign of a zero space, or a letter for
# the refusal.  The seeds are fixed here, not taken from FLOERSS_SEED, because
# the recorded outcomes belong to them.

_R = np.random.default_rng(2309).standard_normal((8, 8))
_REFUSALS = {"NotTransverse": "T", "NotSubspace": "S", "NotExact": "E",
             "NotIndependent": "I", "DegenerateOutward": "D",
             "DimensionMismatch": "M"}


def _space(rng, M):
    """The span of M's columns, its orientation flipped half of the time."""
    S = osn.BasedSpace(M.shape[0], tuple(map(tuple, M.T)), 1)
    return S.flipped() if rng.random() < 0.5 else S


def quotient_case(rng):
    """(total, sub): sub a proper subspace of total, or total itself one time
    in five, or, one time in seven, random vectors that need not lie in
    total."""
    m = int(rng.integers(1, 6))
    dt = int(rng.integers(1, m + 1)) if rng.random() < 0.9 else 0
    MT = rng.standard_normal((m, dt))
    ds = int(rng.integers(0, dt)) if dt and rng.random() < 0.8 else dt
    MS = (rng.standard_normal((m, ds)) if rng.random() < 1 / 7
          else MT @ rng.standard_normal((dt, ds)))
    return _space(rng, MT), _space(rng, MS)


def boundary_case(rng):
    """(interior, outward): outward inside the interior, or zero, or random."""
    m = int(rng.integers(1, 6))
    d = int(rng.integers(1, m + 1)) if rng.random() < 0.94 else 0
    MI = rng.standard_normal((m, d))
    u = rng.random()
    out = (np.zeros(m) if u < 0.06 else rng.standard_normal(m) if u < 0.18
           else MI @ rng.standard_normal(d))
    return _space(rng, MI), out


def fibre_case(rng):
    """(X, Y, Z, phi, psi): maps into Z, random maps (refused where they
    leave Z on X + Y), or rank-one maps (not transverse once dim Z > 1)."""
    mx, my, mz = (int(m) for m in rng.integers(1, 4, 3))
    dx, dy, dz = (int(rng.integers(0, m + 1)) for m in (mx, my, mz))
    X, Y = _space(rng, rng.standard_normal((mx, dx))), \
        _space(rng, rng.standard_normal((my, dy)))
    MZ = rng.standard_normal((mz, dz))
    phi, psi = rng.standard_normal((mz, mx)), rng.standard_normal((mz, my))
    u = rng.random()
    if u < 0.1:
        phi = np.outer(MZ @ np.ones(dz), rng.standard_normal(mx))
        psi = np.outer(MZ @ np.ones(dz), rng.standard_normal(my))
    elif u < 0.55:
        P = MZ @ np.linalg.pinv(MZ)
        phi, psi = P @ phi, P @ psi
    return X, Y, _space(rng, MZ), phi, psi


def cap_case(rng):
    """(X, Y, Z) with X, Y inside Z and X + Y = Z; now and then Y or X is
    drawn from the whole ambient space, or Y is drawn inside X."""
    m = int(rng.integers(1, 6))
    dz = m if rng.random() < 0.6 else int(rng.integers(0, m + 1))
    MZ = rng.standard_normal((m, dz))
    dx = int(rng.integers(0, dz + 1))
    dy = int(rng.integers(dz - dx, dz + 1))
    MX = MZ @ rng.standard_normal((dz, dx))
    MY = MZ @ rng.standard_normal((dz, dy))
    u = rng.random()
    if u < 0.08:
        MY = rng.standard_normal((m, dy))
    elif u < 0.16:
        MX = rng.standard_normal((m, dx))
    elif u < 0.26:
        MY = MX @ rng.standard_normal((dx, min(dy, dx)))
    return _space(rng, MX), _space(rng, MY), _space(rng, MZ)


SWEEP_CASES = {"quotient_orient": quotient_case, "boundary_orient": boundary_case,
               "fibre_orient": fibre_case, "cap_orient": cap_case}


def outcome(W):
    """The recorded form of a result, or of a refusal (an exception)."""
    if isinstance(W, Exception):
        return _REFUSALS.get(type(W).__name__, type(W).__name__)
    if W.dim == 0:
        return "0-" if W.sign < 0 else "0+"
    det = np.linalg.det(_R[:W.m, :W.dim].T @ W.matrix()) * W.sign
    return f"{W.dim}{'-' if det < 0 else '+'}"


def sweep(name, seed, count):
    """The results (or refusals) of ``count`` seeded cases of one induced
    orientation."""
    rng = np.random.default_rng(seed)
    outs = []
    for _ in range(count):
        args = SWEEP_CASES[name](rng)
        try:
            outs.append(getattr(osn, name)(*args))
        except FloerssError as exc:
            outs.append(exc)
    return outs


# the seed and the 240 recorded outcomes of each induced orientation
RECORDED = {
    "quotient_orient": (2310, (
        "1+ 1+ 1+ 0+ 1- 1+ 2+ 1- 1- 1- 1- 0- 0- 1+ 1- 0- 0- 1+ 1+ 1+ 2+ S "
        "1- 1- 0+ 1- 0+ 0- 1+ 1+ S 1- 2- 1- 0- 1+ 3- 1+ 1- 2+ 1+ 0+ 0+ 2+ "
        "0- 3+ 2+ 1+ 0- 1- 1- 0- 0- 1+ 1- 1+ 1- 0- 1- 0- 0- 1+ 0- 2+ S 0- "
        "2+ 1- 2+ 1- 1+ 1- 1+ S 0- 0+ S 1- 1+ 0+ 1+ 2- S 0- 1+ 1- 0+ 2- 1- "
        "1+ 0- 1+ 1- 1- 1+ 0- 1- 0- 1+ 2+ S 3- 1+ 4+ 1- 1+ 1+ 5+ 1- 1+ 0+ "
        "2- 0- 1- 0+ 1+ 1- 0+ 1- 2- 1- 2- 2+ 1- 0+ 0+ 0+ 1+ 1- S 0- 0- 0+ "
        "1- 1- 1+ 1+ 0- 2- 2- 0- 3+ 1- 1+ 0- 3- 1- 1- 1+ 1+ 1- 1+ 1- 1+ 0- "
        "1- 2+ 1+ 1+ 0- 1- 2+ 2+ 3+ 2+ 2+ 1+ 1+ 1+ S 1- 1- 1+ 2+ 2+ 0- 0- "
        "0- 0- 1- 0+ 1- 3+ 3- 1+ 2- 3+ 0+ 0+ S 1+ 0+ 0+ 4- 1- 0- 1- 1- 1+ "
        "0- 0- 1+ 0+ 1+ 3- 1+ 1- 3- 1- 1+ 0+ 0+ 1- 0+ 0+ 1- 2- 1+ 2- 0- 0+ "
        "1+ 2- S 1+ 0+ 1+ 1- 3+ 2- 1- 1- 1+ 2- 3- 2- 1- 0- 2- 1+")),
    "boundary_orient": (2311, (
        "0+ 0+ 0+ 2- 0- D 3- D 0+ 2+ 4+ 0- D 0- D 3+ D 2+ 1- 0- 0+ D 3- 4+ "
        "1+ 1- 2+ M D 0+ 0+ 0- D 0+ 1- 1+ 0- 2+ 1- D 0+ 2- 0+ M 2+ 0+ 1- 0+ "
        "0+ 4+ 1- 0- 2+ 2+ D 0+ 0+ 1- 1+ 1+ 0- 2+ 2+ D 2- 0+ 0+ 0+ 0+ 3- 0- "
        "0+ 0+ 0- M 2- 0- 2- 0+ 1- 0- 0+ 0+ 2+ 2+ 1+ 0+ D 0- 2+ 0- 2+ 4- 0- "
        "2- 0- 2- 2- 2+ 1+ 1+ 1- 1+ 1+ 3- D 0- 0+ M 2+ 0- 2- 0- 0- 1+ 3+ 0- "
        "D 0- D 1- 2+ 3- D 3+ 0+ 0- 2+ 0- 3- 0+ 0+ D 1+ 0+ 3+ 1+ 0+ 0+ 3+ "
        "1- M 1+ 0+ 0- 1+ 3- M 3- 0- 0- 2+ 1- 1- 0+ 0- 3+ 0+ 2+ 1+ 0- M 0- "
        "1- 1- M 0- 0- D 3+ 0+ 0- 0+ 0- M 0+ 1+ 4- M 0- 0+ 4+ 2+ 0- 1+ 2+ "
        "0- 0- 2+ 2+ 0+ 0- 4- 1- 1- 0- 3- 0+ 0+ 0- 2- 1+ D 0- 2- 0+ 1+ 4+ "
        "0- 0+ D D D 2- 2- 1- D 1- M 1+ 1+ 0- 2+ 0- M 0- 1- 0+ 0- 0+ 2- 2- "
        "D 1- 0- D 0+ 1- 0+ 0-")),
    "fibre_orient": (2312, (
        "1+ 0+ S S 1- T 0- 0+ S 0- 4- T 2+ 1+ 0+ T 2- 1- 4- 0- 0- S 5- "
        "T 4+ 2- T 1- 2- 1+ 4- S S S T 4+ 1+ 3- 0+ 0- 1- 1- 0- 0- S 4+ "
        "S S 2+ 1+ S S 0+ S T 0- T 2+ 2- 5- 0+ 1+ T S T T 1+ 1- 3- 2- "
        "2+ 0+ T 1- 4+ T 2+ 1- 2- T T 0+ 4- 1- S 3- 3- 0+ T 1- S 3- S T "
        "0+ 1- 2+ T 1- 0- S 3- 0+ 3+ S 3- 2+ S 0- S 4- S 0+ T T S 3+ "
        "T 2+ 2- S S T 1+ S 3+ S 1+ S S 0- T 1+ 3+ 2+ 1+ 0- 0+ S T S "
        "T 5+ 1- 1+ 3- 0+ 3+ 1+ 0- T 4- S 2+ 1+ 1- T 0+ S S T T 0- T 1+ "
        "S T S S 0+ 1+ 0+ 0+ 2+ 0+ T 1+ T 2+ T 4- 0- S S S T 2+ 1- S "
        "S 1- 2- S 0- 1- S 2+ S 0+ 1- 1- S T 0+ 4+ 1- T T 0- 0+ S S "
        "1+ 1+ 0- S 1- T 0- 0- 0+ 1- S S S S S 0- 3- 0+ 1+ 2+ 1- 4- "
        "S 2- 2- 0- 0- 1-")),
    "cap_orient": (2313, (
        "0+ 0+ 0- 0- 1- 1+ 2+ 0- 0+ 0+ 0+ 0- 3+ 0- 0+ 0- 0+ 1- 0+ 0+ 0- 0+ "
        "0- 1+ 0- 0+ 0+ 0+ 2- 1- 1- 2+ 1+ 0- 0- 1- 0- 0+ 0- 2- 1- 0- 1+ 3+ "
        "3+ 0- 2- 0+ E 4+ 0- 0- 0- 3- 2- 1+ 1- E 1- 3+ 1- 0- E 1+ 0- 0- 0- "
        "0- 0+ 0+ 0+ 0+ 2- 1+ 0- 0+ 0+ 0- 0- 0- 0- E 0+ 1+ 2- 3- 2- 1+ 0+ "
        "0- 0+ 0+ 3- 0+ 1+ 0+ 0+ 0+ 2- 3- 4- 2- 0- 2- S 0+ 0+ 0+ 0+ 3- 0+ "
        "1- 0- 0- 0- E 0+ 0+ 0- 5+ 1- 1+ 0+ 0+ 0- 0- 1- 1- 0- 0+ 4- 1+ 0- "
        "1- 0+ 0- 0+ 0- S 0+ 0+ E 0- 1- 1+ 0+ 1+ 1- 0- 4- 0- 1- 1+ 1- 0- 0- "
        "0- 0- 2- 0- 1- 2- 0- E 0+ 0+ 0- 0- 1- 2+ 0- 2- E 0- 0+ 0- 0- 0- E "
        "1+ 2+ 0+ 0- 1+ 0- 0+ 0+ 2+ 2- E 0- 0- 0+ 1- 0+ 2- 0+ 0+ 3+ 1+ 0- "
        "0+ 0+ 2- 1- 1- 3- 2- 0+ 0+ 1- 0+ 0- 2+ 0+ 0- 3+ 0+ 0+ 1- 0- 0+ 0- "
        "1- 0- 1+ 0- 0+ 1+ 0- 1- 0- 1- E 0- 0- 0- 0+ 3- 0-")),
}


@pytest.mark.parametrize("name", sorted(RECORDED))
def test_induced_orientations_keep_their_recorded_conventions(name):
    seed, recorded = RECORDED[name]
    got = [outcome(W) for W in sweep(name, seed, 240)]
    assert got == recorded.split()
