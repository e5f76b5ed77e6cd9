import time

import numpy as np
import pytest
from fractions import Fraction

from floerss import lagpath as lp
from floerss import schemas
from floerss import symplin as sl
from floerss.errors import (DimensionMismatch, EndpointMismatch, GridTooCoarse,
                            IntegrationFailure,
                            NotALoop, NotFullRank)

from conftest import (make_rng, pointwise_path, random_half_symmetric,
                      random_lagrangian, random_path, random_sigma_poly,
                      random_symplectic)

H1 = sl.horizontal(1)


def _sign(M):
    w = np.linalg.eigvalsh(M)
    return int(np.sum(w > 1e-9) - np.sum(w < -1e-9))


# -- crossings -------------------------------------------------------------------


def test_no_crossing_before_pi():
    F0 = lp.rotation_path(lambda ss: ss, H1, 0.1, 3.0)
    F1 = lp.constant_lagrangian_path(H1, 0.1, 3.0)
    assert lp.find_crossings(F0, F1) == []


def test_crossing_localized_at_pi():
    F0 = lp.rotation_path(lambda ss: ss, H1, 0.1, 3.3)
    F1 = lp.constant_lagrangian_path(H1, 0.1, 3.3)
    cr = lp.find_crossings(F0, F1)
    assert len(cr) == 1
    assert abs(cr[0].s - np.pi) < 1e-10
    assert cr[0].regular and cr[0].dim == 1 and cr[0].signature == 1


def test_constant_pair_is_a_plateau():
    Fc = lp.constant_lagrangian_path(H1, 0.0, 1.0)
    cr = lp.find_crossings(Fc, Fc)
    assert any(c.plateau for c in cr)
    assert lp.rs_index(Fc, Fc) == 0


def test_graph_crossing_form_and_index():
    Fg = lp.graph_path(lambda ss: (ss - 0.5)[:, None, None], 0.0, 1.0)
    Fh = lp.constant_lagrangian_path(H1, 0.0, 1.0)
    cr = lp.find_crossings(Fg, Fh)
    assert len(cr) == 1
    assert abs(cr[0].s - 0.5) < 1e-9
    assert abs(cr[0].form[0, 0] - 1.0) < 1e-5
    assert cr[0].signature == 1 and cr[0].regular
    assert lp.rs_index(Fg, Fh) == 1


def test_crossing_form_pair_antisymmetry():
    moving = lp.rotation_path(lambda ss: ss, H1, 0.0, 1.0)
    frozen = lp.constant_lagrangian_path(sl.rotate_frame(H1, 0.5), 0.0, 1.0)
    f1, _ = lp.crossing_form(moving, frozen, 0.5)
    f2, _ = lp.crossing_form(frozen, moving, 0.5)
    assert abs(f1[0, 0] - 1.0) < 1e-6
    assert abs(f2[0, 0] + 1.0) < 1e-6


def test_crossing_form_graph_localizes_to_B_prime():
    # moving graph against the constant horizontal: form = B'(s) on ker B(s)
    B0 = np.diag([0.0, 1.0])
    B1 = np.diag([1.0, 0.5])

    def B(ss):
        return B0 + (ss - 0.5)[:, None, None] * B1

    Fg = lp.graph_path(B, 0.0, 1.0)
    Fh = lp.constant_lagrangian_path(sl.horizontal(2), 0.0, 1.0)
    form, basis = lp.crossing_form(Fg, Fh, 0.5)
    # ker B(0.5) = e1 axis; B' restricted is (1)
    assert form.shape == (1, 1)
    assert abs(form[0, 0] - 1.0) < 1e-5


# -- Robbin-Salamon index -----------------------------------------------------------


def test_rs_zero_axiom_constant_dimension():
    rng = make_rng(11)
    for n in (1, 2):
        F0 = random_path(rng, n)
        F1 = lp.transform_path(sl.rotation(n, 0.4), F0)
        assert lp.rs_index(F0, F1, grid=96) == 0
        assert lp.rs_index(F0, F0, grid=96) == 0


def test_rs_localization_exact_formula():
    rng = make_rng(12)
    done = 0
    while done < 50:
        n = int(rng.integers(1, 3))
        B0 = random_half_symmetric(rng, n)
        B1 = random_half_symmetric(rng, n) + 0.3 * np.eye(n)

        def B(s, B0=B0, B1=B1):
            return B0 + s * B1

        Fg = lp.graph_path(lambda ss: B(ss[:, None, None]), 0.0, 1.0)
        Fh = lp.constant_lagrangian_path(sl.horizontal(n), 0.0, 1.0)
        mu = lp.rs_index(Fg, Fh, grid=96)
        expected = Fraction(_sign(B(1.0)) - _sign(B(0.0)), 2)
        assert mu == expected
        done += 1


def test_rs_rotation_endpoint_halves():
    F0 = lp.rotation_path(lambda ss: ss, H1, 0.0, np.pi)
    F1 = lp.constant_lagrangian_path(H1, 0.0, np.pi)
    assert lp.rs_index(F0, F1) == 1


def test_rs_concatenation_axiom():
    rng = make_rng(13)
    done = 0
    while done < 50:
        n = int(rng.integers(1, 3))
        F0 = random_path(rng, n, 0.0, 1.0, scale=1.4)
        F1 = random_path(rng, n, 0.0, 1.0, scale=0.9)
        c = float(rng.uniform(0.35, 0.65))
        if sl.intersection_dim(F0(c), F1(c), tol=1e-4) > 0:
            continue
        total = lp.rs_index(F0, F1, grid=128)
        left = lp.rs_index(F0.restrict(0.0, c), F1.restrict(0.0, c), grid=96)
        right = lp.rs_index(F0.restrict(c, 1.0), F1.restrict(c, 1.0), grid=96)
        assert total == left + right
        done += 1


def test_rs_direct_sum_axiom():
    rng = make_rng(14)
    done = 0
    while done < 50:
        F0a = random_path(rng, 1, scale=1.2)
        F1a = random_path(rng, 1, scale=0.7)
        F0b = random_path(rng, 1, scale=1.1)
        F1b = random_path(rng, 1, scale=0.8)
        mu_a = lp.rs_index(F0a, F1a, grid=96)
        mu_b = lp.rs_index(F0b, F1b, grid=96)
        mu_sum = lp.rs_index(lp.direct_sum_path(F0a, F0b),
                             lp.direct_sum_path(F1a, F1b), grid=128)
        assert mu_sum == mu_a + mu_b
        done += 1


def test_rs_naturality_axiom():
    rng = make_rng(15)
    done = 0
    while done < 50:
        n = int(rng.integers(1, 3))
        F0 = random_path(rng, n, scale=1.3)
        F1 = random_path(rng, n, scale=0.8)
        Psi = random_symplectic(rng, n)
        base = lp.rs_index(F0, F1, grid=96)
        moved = lp.rs_index(lp.transform_path(Psi, F0),
                            lp.transform_path(Psi, F1), grid=96)
        assert moved == base
        done += 1


def test_rs_homotopy_under_perturbation():
    rng = make_rng(16)
    done = 0
    while done < 50:
        n = int(rng.integers(1, 3))
        F0 = random_path(rng, n, scale=1.3)
        F1 = random_path(rng, n, scale=0.8)
        if sl.intersection_dim(F0(0.0), F1(0.0), tol=1e-4) > 0:
            continue
        if sl.intersection_dim(F0(1.0), F1(1.0), tol=1e-4) > 0:
            continue
        base = lp.rs_index(F0, F1, grid=96)
        ok = True
        for delta in (1e-2, 5e-3, 2.5e-3):
            pert = lp.perturb_path(F0, delta, fix_endpoints=True)
            if lp.rs_index(pert, F1, grid=96) != base:
                ok = False
        assert ok
        done += 1


def test_perturb_identity_at_zero():
    F = random_path(make_rng(17), 1)
    assert lp.perturb_path(F, 0.0) is F


def test_perturb_constant_pair_recovers_zero_axiom():
    Fc = lp.constant_lagrangian_path(H1, 0.0, 1.0)
    pert = lp.perturb_path(Fc, 1e-2, fix_endpoints=True)
    cr = lp.find_crossings(pert, Fc)
    assert sorted(round(c.s, 6) for c in cr) == [0.0, 1.0]
    assert lp.rs_index(pert, Fc) == 0


def test_perturb_resolves_degenerate_graph_crossing():
    # B(s) = (s - 1/2)^2 - tangential crossing, degenerate form; the index is
    # the graph localization (sign B(b) - sign B(a)) / 2 = 0, and the
    # perturbed paths, whose crossings are regular, give the same value
    Bs = lambda ss: ((ss - 0.5) ** 2)[:, None, None]
    B = lambda s: Bs(np.array([s]))[0]
    Fg = lp.graph_path(Bs, 0.0, 1.0)
    Fh = lp.constant_lagrangian_path(H1, 0.0, 1.0)
    localization = Fraction(_sign(B(1.0)) - _sign(B(0.0)), 2)
    assert localization == 0
    assert lp.rs_index(Fg, Fh) == localization
    for delta in (1e-2, 5e-3, 2.5e-3):
        pert = lp.perturb_path(Fg, delta, fix_endpoints=True)
        assert lp.rs_index(pert, Fh) == localization
    cr = lp.find_crossings(Fg, Fh)
    assert len(cr) == 1 and abs(cr[0].s - 0.5) < 1e-6 and not cr[0].regular


@pytest.mark.parametrize("Bs,expected", [
    (lambda ss: ((ss - 0.5) ** 3)[:, None, None], 1),
    (lambda ss: np.stack([ss - 0.5, (ss - 0.5) ** 2], axis=1)[:, :, None]
     * np.eye(2), 1),
], ids=["cubic", "line_plus_tangency"])
def test_rs_degenerate_graph_crossings_localize(Bs, expected):
    B = lambda s: Bs(np.array([s]))[0]
    n = B(0.0).shape[0]
    Fg = lp.graph_path(Bs, 0.0, 1.0)
    Fh = lp.constant_lagrangian_path(sl.horizontal(n), 0.0, 1.0)
    assert Fraction(_sign(B(1.0)) - _sign(B(0.0)), 2) == expected
    assert lp.rs_index(Fg, Fh) == expected


def _lines(angles):
    """Frame of the product of the lines at the given angles, line j in the
    (x_j, y_j) plane."""
    n = len(angles)
    M = np.zeros((2 * n, n))
    M[np.arange(n), np.arange(n)] = np.cos(angles)
    M[n + np.arange(n), np.arange(n)] = np.sin(angles)
    return M


def _h(y):
    """RS index of a line at angle y against the horizontal, from angle 0:
    floor(y / pi) + 1/2 off pi Z, y / pi on it."""
    k = y / np.pi
    return Fraction(int(round(k))) if abs(k - round(k)) < 1e-9 \
        else Fraction(2 * int(np.floor(k)) + 1, 2)


def test_rs_flat_min_angle_is_fast():
    # line 1 sits at 0.05 rad the whole time, so the smallest principal angle
    # is exactly flat on [0.275, 1] while line 0 crosses at s = 1/4
    F = pointwise_path(2, 0.0, 1.0, lambda s: sl.LagrangianFrame(
        n=2, frame=_lines([-0.5 + 2.0 * s, 0.05])))
    H2 = lp.constant_lagrangian_path(sl.horizontal(2), 0.0, 1.0)
    start = time.perf_counter()
    assert lp.rs_index(F, H2, grid=128) == 1
    assert time.perf_counter() - start < 1.0


def _near_line_path():
    """A 2-line sampled path: validate_lagrangian flips the sign of line 1's
    column between the samples at s = 1/2 and 5/8, so the interpolated line
    turns forward through a crossing there while line 0 sits near its own
    crossing."""
    samples = [(k / 8, sl.validate_lagrangian(_lines([-0.39 * k / 8,
                                                      0.1 - 1.5 * k / 8])))
               for k in range(9)]
    return lp.sampled_path(samples)


def test_rs_sampled_path_crossing_beside_a_near_line():
    P = _near_line_path()
    H2 = lp.constant_lagrangian_path(sl.horizontal(2), 0.0, 1.0)
    # oracle: follow each column's line angle, unwrapped mod pi
    ss = np.linspace(0.0, 1.0, 20001)
    frames = P.frames(ss)
    y = np.unwrap(2 * np.arctan2(frames[:, 2 + np.arange(2), np.arange(2)],
                                 frames[:, np.arange(2), np.arange(2)]), axis=0) / 2
    exact = sum(_h(y[-1, j]) - _h(y[0, j]) for j in range(2))
    assert exact == Fraction(-1, 2)
    assert lp.rs_index(P, H2, grid=96) == exact


def test_find_crossings_beside_a_near_line():
    H2 = lp.constant_lagrangian_path(sl.horizontal(2), 0.0, 1.0)
    assert crossing_sum(_near_line_path(), H2, 96) == Fraction(-1, 2)


def test_brackets_the_floats_cannot_halve_are_refused():
    # on [1e6, 1e6 + 1] neighbouring floats are 1.2e-10 apart, wider than
    # the bracket width _CROSSING_REFINE_TOL = 1e-11 that bisection aims for
    a = 1e6
    F0 = lp.rotation_path(lambda ss: 2.0 * (ss - a) - 0.7, sl.horizontal(1),
                          a, a + 1.0)
    F1 = lp.constant_lagrangian_path(sl.horizontal(1), a, a + 1.0)
    with pytest.raises(GridTooCoarse) as info:
        lp.find_crossings(F0, F1, grid=16)
    assert info.value.payload == {"tol": lp._CROSSING_REFINE_TOL}


def crossing_sum(F0, F1, grid):
    """The crossing-form count of find_crossings: 1/2 sign Gamma at the
    endpoints plus sign Gamma at the interior crossings; None when a crossing
    is degenerate or a plateau."""
    total = Fraction(0)
    eps = 1e-9 * (F0.b - F0.a)
    for c in lp.find_crossings(F0, F1, grid=grid):
        if c.plateau or not c.regular:
            return None
        end = abs(c.s - F0.a) < eps or abs(c.s - F0.b) < eps
        total += Fraction(c.signature, 2 if end else 1)
    return total


def _separated(Y, ss, sep_time=0.04, sep_angle=0.1):
    """Whether the crossings (angles in pi Z) of the line angles Y (samples x
    lines) on ss are sep_time apart and met while every other line is
    sep_angle away from pi Z."""
    off = np.abs(Y / np.pi - np.round(Y / np.pi)) * np.pi
    times = []
    for j in range(Y.shape[1]):
        k = np.round(Y[:, j] / np.pi)
        hits = np.flatnonzero((k[1:] != k[:-1]) | (off[1:, j] < 1e-12))
        for i in hits:
            others = np.delete(off[i], j)
            if others.size and others.min() < sep_angle:
                return False
            times.append(ss[i])
    times = np.sort(times)
    return not np.any(np.diff(times) < sep_time)


def _exact_crossings(coef, graph):
    """Sorted (s, sign y_j'(s)) at the crossings on [0, 1] of lines whose
    angle y_j, or tan y_j for a graph path, is the polynomial in s with the
    coefficients coef[j] (increasing powers)."""
    out = []
    for c in coef:
        P = np.polynomial.Polynomial(c)
        for k in ([0] if graph else range(-4, 5)):
            for root in (P - k * np.pi).roots():
                if abs(root.imag) < 1e-12 and -1e-12 <= root.real <= 1 + 1e-12:
                    s = min(max(float(root.real), 0.0), 1.0)
                    out.append((s, int(np.sign(P.deriv()(s)))))
    return sorted(out)


def _line_model_paths(rng, kind, n):
    """A line-model path O . lines(y(s)) on [0, 1] against the horizontal,
    O a real orthogonal matrix acting on x and y alike, with its exact RS
    index sum_j h(y_j(1)) - h(y_j(0)) and, except for sampled paths, its
    exact crossings (``_exact_crossings``)."""
    O = np.linalg.qr(rng.standard_normal((n, n)))[0]
    OO = np.kron(np.eye(2), O)
    a = rng.uniform(-2.0, 2.0, n)
    if rng.uniform() < 0.25:
        a[0] = 0.0                      # a crossing at the start
    r = rng.uniform(-5.0, 5.0, n)
    if kind == "rotation":
        r[:] = r[0]
        path = lp.rotation_path(lambda ss: r[0] * ss,
                                sl.LagrangianFrame(n=n, frame=OO @ _lines(a)))
        y = lambda s: a + r[0] * s
        crossings = _exact_crossings(np.stack([a, r], axis=1), False)
    elif kind == "graph":
        # lines at angles atan(p + q s), crossing where p + q s = 0
        p, q = np.tan(0.5 * a), rng.uniform(-3.0, 3.0, n)
        path = lp.graph_path(lambda ss: O * (p + q * ss[:, None])[:, None, :] @ O.T)
        y = lambda s: np.arctan(p + q * s)
        crossings = _exact_crossings(np.stack([p, q], axis=1), True)
    elif kind == "sampled":
        # continuous column signs, steps below 0.7 rad: the interpolation
        # follows each line the short way
        ks = np.linspace(0.0, 1.0, 9)
        path = lp.sampled_path([(k, sl.LagrangianFrame(n=n, frame=OO @ _lines(a + r * k)))
                                for k in ks])
        y = lambda s: a + r * s
        crossings = None
    else:
        # sigma = O diag(c) O^T on x and y turns line j by int_0^t c_j
        c0, c1 = rng.uniform(-3.0, 3.0, n), rng.uniform(-3.0, 3.0, n)
        coeffs = [np.kron(np.eye(2), O @ np.diag(c) @ O.T) for c in (c0, c1)]
        flow = sl.FundamentalFlow(sl.poly_path(coeffs))
        path = lp.fundamental_image_path(flow, sl.LagrangianFrame(n=n, frame=OO @ _lines(a)))
        y = lambda s: a + c0 * s + 0.5 * c1 * s * s
        crossings = _exact_crossings(np.stack([a, c0, 0.5 * c1], axis=1), False)
    ss = np.linspace(0.0, 1.0, 2001)
    Y = np.array([y(s) for s in ss])
    if not _separated(Y, ss):
        return None
    exact = sum(_h(Y[-1, j]) - _h(Y[0, j]) for j in range(n))
    return path, exact, crossings


def test_fundamental_image_path_stays_in_the_unit_interval():
    flow = sl.FundamentalFlow(sl.constant_path(np.eye(2)))
    h = sl.horizontal(1)
    for a, b in ((0.0, 4.0), (-3.0, 1.0)):
        with pytest.raises(IntegrationFailure):
            lp.fundamental_image_path(flow, h, a, b)
    assert lp.fundamental_image_path(flow, h, 0.25, 0.75).frames([0.5]).shape == (1, 2, 1)


def test_restrict_stays_in_the_path_interval():
    # restricting a fundamental path to [0, 2] would clip its flow at t = 1:
    # the index would read 1, where the line turns through 2 crossings
    flow = sl.FundamentalFlow(sl.constant_path(np.pi * np.eye(2)))
    F = lp.fundamental_image_path(flow, H1)
    c = lp.constant_lagrangian_path(sl.rotate_frame(H1, 0.3))
    for a, b in ((0.0, 2.0), (-1.0, 0.5), (0.6, 0.4), (0.5, 0.5)):
        with pytest.raises(DimensionMismatch) as info:
            F.restrict(a, b)
        assert info.value.payload == {"interval": [a, b]}
    assert lp.rs_index(F.restrict(0.0, 0.5), c.restrict(0.0, 0.5)) == 1


def _same(got, want):
    """Equal, or at most 1e-15 apart where a stacked product rounds
    differently from the product of one member."""
    assert got.shape == want.shape
    assert np.array_equal(got, want) or np.max(np.abs(got - want)) <= 1e-15


def _pointwise_rotation(n, angle):
    return np.cos(angle) * np.eye(2 * n) + np.sin(angle) * sl.J_std(n)


def _pointwise_phi_mu(n, mu, t):
    v = np.array([np.exp(1j * np.pi * mu * t)] + [1.0 + 0j] * (n - 1))
    a, b = np.diag(v.real), np.diag(v.imag)
    return np.block([[a, -b], [b, a]])


def _pointwise_embed(A, n1, n2, which):
    n = n1 + n2
    ix = (list(range(n1)) + list(range(n, n + n1)) if which == 0
          else list(range(n1, n)) + list(range(n + n1, 2 * n)))
    out = np.zeros((2 * n, 2 * n))
    for i, p in enumerate(ix):
        for j, q in enumerate(ix):
            out[p, q] = A[i, j]
    return out


def _stack_at(p, x):
    """The frame the path's stack gives at the one parameter x."""
    return p.stack(np.array([x]))[0]


def _pointwise_direct_sum(F, G):
    n1, n2 = F.shape[1], G.shape[1]
    n = n1 + n2
    M = np.zeros((2 * n, n))
    M[:n1, :n1], M[n:n + n1, :n1] = F[:n1], F[n1:]
    M[n1:n, n1:], M[n + n1:, n1:] = G[:n2], G[n2:]
    return M


def _pointwise_diagonal(P):
    n0 = P.shape[0]
    n = 2 * n0
    M = np.zeros((2 * n, n))
    for j in range(n0):
        z = np.zeros(n0, dtype=complex)
        z[j] = 1.0
        for k, w in ((2 * j, z), (2 * j + 1, 1j * z)):
            col = np.concatenate([np.conj(w), P @ w])
            M[:n, k], M[n:, k] = col.real, col.imag
    return sl.validate_lagrangian(M).frame


def test_stacked_composites_match_pointwise_formulas():
    # every composite's stack against the formula evaluated one parameter
    # at a time; direct sums, transforms and perturbations act on the
    # spanning frames of their parts' stacks
    rng = make_rng(22)
    ss = np.linspace(0.0, 2.0, 9)          # 1.0, the junction, is a sample
    half = ss[ss <= 1.0]
    for n in range(1, 5):
        p1 = random_path(rng, n)
        p2 = lp.LagrangianPath(n, 1.0, 2.0, lambda x, p1=p1: p1.stack(2.0 - x))
        for part in (ss, half[:1], ss[ss > 1.0]):   # both sides, then one
            _same(lp.concatenate(p1, p2).frames(part),
                  np.stack([(p1(x) if x <= 1.0 else p2(x)).frame for x in part]))

        q = random_path(rng, 1)
        _same(lp.direct_sum_path(p1, q).frames(half),
              np.stack([_pointwise_direct_sum(_stack_at(p1, x), _stack_at(q, x))
                        for x in half]))

        Psi = random_symplectic(rng, n)
        _same(lp.transform_path(Psi, p1).frames(half),
              np.stack([Psi @ _stack_at(p1, x) for x in half]))

        for fix, beta in ((True, lambda x: np.sin(np.pi * x)),
                          (False, lambda x: 1.0 + 0.3 * np.sin(2.0 * x))):
            _same(lp.perturb_path(p1, 0.05, fix_endpoints=fix).frames(half),
                  np.stack([_pointwise_rotation(n, 0.05 * beta(x))
                            @ _stack_at(p1, x) for x in half]))

        U = np.linalg.qr(rng.standard_normal((n, n))
                         + 1j * rng.standard_normal((n, n)))[0]
        w = rng.integers(-2, 3, n)
        psi = lambda x, U=U, w=w: np.diag(np.exp(2j * np.pi * w * x)) @ U
        _same(lp.diagonal_loop(psi).frames(half),
              np.stack([_pointwise_diagonal(psi(x)) for x in half]))

        sig, tau = random_sigma_poly(rng, n), random_sigma_poly(rng, 1)
        shift = np.zeros((2 * n, 2 * n))
        shift[0, 0] = shift[n, n] = -np.pi * 2
        ref = np.stack([_pointwise_phi_mu(n, -2, t) @ sig(t) @ _pointwise_phi_mu(n, 2, t)
                        + shift for t in half])
        _same(sl.mu_action(2, sig).samples(half),
              (ref + np.swapaxes(ref, 1, 2)) * 0.5)
        _same(sl.direct_sum_paths(sig, tau).samples(half),
              np.stack([_pointwise_embed(sig(t), n, 1, 0)
                        + _pointwise_embed(tau(t), n, 1, 1) for t in half]))

        angles = rng.uniform(-4.0, 4.0, 5)
        _same(sl.rotation(n, angles),
              np.stack([_pointwise_rotation(n, x) for x in angles]))
        _same(sl.phi_mu(n, 3, half),
              np.stack([_pointwise_phi_mu(n, 3, t) for t in half]))


def _pointwise_poly(coeffs, s):
    """sum_k coeffs[k] s^k for one s, from degree 0 up."""
    acc, sk = 0.0, 1.0
    for c in coeffs:
        acc += c * sk
        sk *= s
    return acc


def _pointwise_matrix_poly(coeffs, s):
    """The symmetric part of sum_k coeffs[k] s^k for one s."""
    acc, sk = np.zeros_like(coeffs[0]), 1.0
    for c in coeffs:
        acc = acc + sk * c
        sk *= s
    return 0.5 * (acc + acc.T)


def test_parsed_polynomial_paths_match_pointwise_formulas():
    # parsed rotation and graph paths against their formulas evaluated one
    # parameter at a time, at samples including both ends of the interval
    rng = make_rng(23)
    for n in range(1, 5):
        for degree in range(4):
            a, b = np.sort(rng.uniform(-2.0, 2.0, 2))
            ss = np.concatenate([[a], rng.uniform(a, b, 7), [b]])
            theta = rng.uniform(-3.0, 3.0, degree + 1).tolist()
            base = random_lagrangian(rng, n).frame.tolist()
            rot = schemas.parse_path({"type": "rotation", "interval": [a, b],
                                      "theta": {"poly": theta}, "base": base},
                                     "F0")
            X, Y = np.split(schemas.parse_frame(base, "base").frame, 2)
            th = np.array([_pointwise_poly(theta, s) for s in ss])[:, None, None]
            want = np.concatenate([np.cos(th) * X - np.sin(th) * Y,
                                   np.sin(th) * X + np.cos(th) * Y], axis=1)
            assert np.array_equal(rot.frames(ss), want)

            B = [random_half_symmetric(rng, n) for _ in range(degree + 1)]
            graph = schemas.parse_path(
                {"type": "graph", "interval": [a, b],
                 "B": {"poly": [c.tolist() for c in B]}}, "F0")
            # the graph's frames are [I; B(s)], not orthonormalized
            want = np.array([np.concatenate([np.eye(n), _pointwise_matrix_poly(B, s)])
                             for s in ss])
            assert graph.n == n and np.array_equal(graph.frames(ss), want)


def test_rs_index_matches_crossing_forms_on_line_models():
    rng = make_rng(20)
    done = {k: 0 for k in ("rotation", "graph", "sampled", "fundamental")}
    while min(done.values()) < 13:
        kind = min(done, key=done.get)
        n = int(rng.integers(1, 4))
        made = _line_model_paths(rng, kind, n)
        if made is None:
            continue
        F, exact, _ = made
        H = lp.constant_lagrangian_path(sl.horizontal(n), 0.0, 1.0)
        forms = crossing_sum(F, H, 96)
        assert forms is not None, kind
        assert lp.rs_index(F, H, grid=96) == forms == exact, kind
        done[kind] += 1


def test_find_crossings_at_exact_line_model_times():
    # times and signatures from the line angles alone, not the Souriau map
    rng = make_rng(21)
    done = {k: 0 for k in ("rotation", "graph", "fundamental")}
    while min(done.values()) < 20:
        kind = min(done, key=done.get)
        n = int(rng.integers(1, 4))
        made = _line_model_paths(rng, kind, n)
        if made is None:
            continue
        F, _, exact = made
        H = lp.constant_lagrangian_path(sl.horizontal(n), 0.0, 1.0)
        found = lp.find_crossings(F, H, grid=96)
        assert len(found) == len(exact), kind
        for c, (s, sign) in zip(found, exact):
            assert abs(c.s - s) < 1e-9 and c.dim == 1, kind
            if 0.0 < s < 1.0:
                assert c.regular and c.signature == sign, kind
        done[kind] += 1


@pytest.mark.parametrize("criterion", ["test_criterion_03_rs_axiom_suite",
                                       "test_criterion_05_viterbo"])
def test_rs_index_matches_crossing_forms_on_acceptance_instances(criterion,
                                                                 monkeypatch):
    # every 7th pair that the acceptance criterion indexes, Viterbo
    # constituents included, against the crossing-form count; checked at
    # once, since the criteria's paths bind loop variables late
    import test_acceptance
    rs_index = lp.rs_index
    seen = [0, 0, 0]    # pairs indexed, compared, refused by the oracle

    def checked(F0, F1, grid=None):
        mu = rs_index(F0, F1, grid=grid)
        seen[0] += 1
        if seen[0] % 7 == 1:
            forms = crossing_sum(F0, F1, grid)
            if forms is None:
                seen[2] += 1
            else:
                assert mu == forms
                seen[1] += 1
        return mu

    monkeypatch.setattr(lp, "rs_index", checked)
    getattr(test_acceptance, criterion)()
    assert seen[1] > 50 and seen[2] <= 0.1 * seen[1]


def test_non_finite_frames_are_refused():
    Fh = lp.constant_lagrangian_path(H1, 0.0, 1.0)
    rot = lp.rotation_path(lambda ss: np.where(ss > 0.5, np.nan, ss), H1)
    graph = lp.graph_path(
        lambda ss: np.where(ss > 0.5, np.nan, ss)[:, None, None])
    for F in (rot, graph):
        with pytest.raises(NotFullRank):
            lp.rs_index(F, Fh, grid=16)


def test_singular_frames_are_refused():
    # X + iY is singular for dependent columns and for a span that is not
    # Lagrangian (x1 and y1); the Souriau solve refuses both with a typed
    # error instead of numpy's LinAlgError
    ref = lp.constant_lagrangian_path(sl.horizontal(2), 0.0, 1.0)
    for frame in ([[1, 1], [0, 0], [0, 0], [0, 0]],
                  [[1, 0], [0, 0], [0, 1], [0, 0]]):
        bad = np.array(frame, dtype=float)
        path = lp.LagrangianPath(
            2, 0.0, 1.0, lambda ss, bad=bad: np.broadcast_to(bad, (len(ss), 4, 2)))
        with pytest.raises(NotFullRank):
            lp.souriau(bad)
        with pytest.raises(NotFullRank):
            lp.rs_index(path, ref, grid=16)


def test_souriau_of_any_frame_is_that_of_an_orthonormal_frame():
    # S(L) = Z^{-H} Z^T for Z = X + iY of any frame of L against the
    # definition U U^T on the QR frame, for frames F A with A real of
    # condition number up to 1e6; the error is relative to that number
    rng = make_rng(40)
    for _ in range(200):
        n = int(rng.integers(1, 5))
        F = np.stack([random_lagrangian(rng, n).frame for _ in range(5)])
        cond = 10.0 ** rng.uniform(0.0, 6.0, 5)
        U, V = (np.linalg.qr(rng.standard_normal((5, n, n)))[0] for _ in range(2))
        sv = cond[:, None] ** np.linspace(0.0, 1.0, n)
        A = (U * sv[:, None, :]) @ np.swapaxes(V, 1, 2)
        q = np.linalg.qr(F)[0]
        Q = q[:, :n] + 1j * q[:, n:]
        for want in (lp.souriau(q), Q @ np.swapaxes(Q, 1, 2)):
            err = np.abs(lp.souriau(F @ A) - want).max(axis=(1, 2))
            assert np.all(err <= 1e-14 * cond), (n, err / cond)


def test_sample_limit_refusal_names_the_samples_reached():
    # the line turns by 1e4 pi: every cell of either first grid turns by
    # more than 1 rad, and halving them all passes the 2^14-sample limit
    # (after one round at grid 8000, at once at grid 20000)
    rot = lp.rotation_path(lambda ss: 0.3 + 1e4 * np.pi * ss, H1)
    ref = lp.constant_lagrangian_path(H1, 0.0, 1.0)
    for grid, samples in ((8000, 16001), (20000, 20001)):
        with pytest.raises(GridTooCoarse) as exc:
            lp.rs_index(rot, ref, grid=grid)
        assert exc.value.payload == {"samples": samples}
        assert f"at {samples} samples" in str(exc.value)
        assert "limit of 16384 samples" in str(exc.value)


def test_rs_index_of_discontinuous_path_is_refused():
    # the line jumps from the horizontal to the vertical at s = 1/2, so the
    # Souriau map jumps by pi at every resolution
    jump = pointwise_path(1, 0.0, 1.0,
                          lambda s: H1 if s < 0.5 else sl.vertical(1))
    ref = lp.constant_lagrangian_path(sl.rotate_frame(H1, 0.7), 0.0, 1.0)
    with pytest.raises(GridTooCoarse):
        lp.rs_index(jump, ref, grid=96)


# -- Maslov --------------------------------------------------------------------------


def test_maslov_constant_loop():
    ref = sl.rotate_frame(H1, 0.7)
    loop = lp.constant_lagrangian_path(H1, 0.0, 1.0)
    assert lp.maslov_loop(loop, ref) == 0


def test_maslov_generator_loop():
    loop = lp.rotation_path(lambda ss: ss, H1, 0.0, np.pi)
    assert lp.maslov_loop(loop, sl.rotate_frame(H1, 0.7)) == 1


def test_maslov_not_a_loop():
    arc = lp.rotation_path(lambda ss: ss, H1, 0.0, 1.0)
    with pytest.raises(NotALoop):
        lp.maslov_loop(arc, sl.rotate_frame(H1, 0.7))


def test_winding_of_discontinuous_frame_is_refused():
    # the loop jumps to the vertical on [1/3, 2/3), so its Souriau map jumps
    # by pi at every resolution
    jump = pointwise_path(
        1, 0.0, 1.0, lambda s: sl.vertical(1) if 1 / 3 <= s < 2 / 3 else H1)
    with pytest.raises(GridTooCoarse):
        lp.maslov_loop(jump, sl.rotate_frame(H1, 0.7))


@pytest.mark.parametrize("w", [-2, -1, 0, 1, 2])
def test_maslov_diagonal_loops(w):
    loop = lp.diagonal_loop(lambda s: np.array([[np.exp(2j * np.pi * w * s)]]))
    ref = sl.apply_matrix(random_symplectic(make_rng(18 + w), 2),
                          sl.horizontal(2))
    grid = max(256, 128 * (abs(w) + 1))
    assert crossing_sum(loop, lp.constant_lagrangian_path(ref), grid) == 2 * w
    assert lp.maslov_loop(loop, ref, grid=grid) == 2 * w


# -- Viterbo -------------------------------------------------------------------------


def _random_viterbo_data(rng, n):
    """Compatible (F0, F1, Fm, Fp) with Fm(0) = F0(-1), Fp(0) = F0(1)."""
    F0 = random_path(rng, n, -1.0, 1.0, scale=1.1)
    F1 = random_path(rng, n, -1.0, 1.0, scale=0.8)
    Mm = lambda t: sl.rotation(n, 0.6 * np.sin(1.3 * t))
    Mp = lambda t: sl.rotation(n, -0.5 * np.sin(1.1 * t))
    start, end = F0.start, F0.end
    Fm = lp.LagrangianPath(n=n, a=0.0, b=1.0,
                           stack=lambda ts: sl.apply_matrix(Mm(ts), start).frame)
    Fp = lp.LagrangianPath(n=n, a=0.0, b=1.0,
                           stack=lambda ts: sl.apply_matrix(Mp(ts), end).frame)
    return F0, F1, Fm, Fp


def test_viterbo_constant_clean_strip_is_zero():
    c = lp.constant_lagrangian_path(H1, -1.0, 1.0)
    cm = lp.constant_lagrangian_path(H1, 0.0, 1.0)
    assert lp.viterbo_index(c, c, cm, cm) == 0


def test_viterbo_endpoint_mismatch():
    c = lp.constant_lagrangian_path(H1, -1.0, 1.0)
    bad = lp.constant_lagrangian_path(sl.vertical(1), 0.0, 1.0)
    with pytest.raises(EndpointMismatch):
        lp.viterbo_index(c, c, bad, bad)


def test_viterbo_halfintegrality_and_concatenation():
    rng = make_rng(19)
    done = 0
    while done < 50:
        n = int(rng.integers(1, 3))
        F0a, F1a, Fma, Fpa = _random_viterbo_data(rng, n)
        # concatenation needs a regular structure at the junction:
        # the glued pair must be transverse there
        if sl.intersection_dim(F0a.end, F1a.end, tol=1e-4) > 0:
            continue
        mua = lp.viterbo_index(F0a, F1a, Fma, Fpa, grid=96)
        # half-integrality: mu + (dim C- + dim C+)/2 is an integer
        dm = sl.intersection_dim(Fma.end, F1a.start, tol=1e-6)
        dp = sl.intersection_dim(Fpa.end, F1a.end, tol=1e-6)
        assert (2 * mua + dm + dp) % 2 == 0

        # glue a second strip sharing the middle asymptotic data
        F0b = _shifted_random_path(rng, n, F0a.end)
        F1b = _shifted_random_path(rng, n, F1a.end)
        Fpb = lp.LagrangianPath(n=n, a=0.0, b=1.0,
                                stack=lambda ts, e=F0b.end, n=n:
                                sl.apply_matrix(sl.rotation(n, 0.4 * ts), e).frame)
        mub = lp.viterbo_index(F0b, F1b, Fpa, Fpb, grid=96)
        glued0 = lp.concatenate(F0a, _reparam(F0b, 1.0, 3.0))
        glued1 = lp.concatenate(F1a, _reparam(F1b, 1.0, 3.0))
        mu_glued = lp.viterbo_index(glued0, glued1, Fma, Fpb, grid=192)
        assert mu_glued == mua + mub
        done += 1


def _shifted_random_path(rng, n, start_frame):
    M = None
    from conftest import random_symplectic_path
    M = random_symplectic_path(rng, n, -1.0, 1.0, scale=0.9)
    return lp.LagrangianPath(
        n=n, a=-1.0, b=1.0,
        stack=lambda ss: sl.apply_matrix(M(ss), start_frame).frame)


def _reparam(path, a, b):
    return lp.LagrangianPath(
        n=path.n, a=a, b=b,
        stack=lambda ss: path.stack(
            path.a + (ss - a) * (path.b - path.a) / (b - a)),
        kind=path.kind)


# -- the Souriau locator ----------------------------------------------------------


def _random_unitary(rng, n):
    Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Q, R = np.linalg.qr(Z)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def test_cell_turn_certificate():
    rng = make_rng(130)
    for n in range(1, 9):
        cut = min(lp._CERTIFIED, 1.9 / np.sqrt(n))
        W0, W1 = [], []
        for scale in np.geomspace(1e-6, 3.0, 60):
            V = _random_unitary(rng, n)
            phi = rng.uniform(-scale, scale, n)
            P = V @ np.diag(np.exp(1j * phi)) @ V.conj().T
            W = _random_unitary(rng, n)
            W0.append(W)
            W1.append(W @ P)
        W0, W1 = np.array(W0), np.array(W1)
        P = np.swapaxes(W0.conj(), -1, -2) @ W1
        f = np.linalg.norm(P - np.eye(n), axis=(-2, -1))
        assert (f <= cut).any() and (f > cut).any(), n
        exact = np.angle(np.linalg.eigvals(P))
        worst_exact = np.abs(exact).max(axis=-1)
        assert (worst_exact > 1).any(), n
        turn, worst = lp._cell_turns(W0, W1)
        ok = f <= cut
        assert np.abs(turn[ok] - exact[ok].sum(axis=-1)).max() < 1e-12, n
        # the other cells take the sum of the same eigen-angles
        assert np.abs(turn[~ok] - exact[~ok].sum(axis=-1)).max() < 1e-12, n
        assert np.all(worst >= worst_exact), n
        assert np.array_equal(worst > 1, worst_exact > 1), n


def _one_halving_per_round(W_at, s, W, cells, width):
    """The locator's bisection with one halving of every wide bracket per
    round, on eigvals turns: the reference of the bisection and the locator."""
    def turns(W0, W1):
        P = np.swapaxes(W0.conj(), -1, -2) @ W1
        return np.angle(np.linalg.eigvals(P)).sum(axis=-1)

    h = lp._h(lp._angles(W))
    count = lp._passages(turns(W[cells], W[cells + 1]), h[cells], h[cells + 1])
    lo, count = cells[count != 0], count[count != 0]
    hi = lo + 1
    while True:
        wide = s[hi] - s[lo] > width
        if not wide.any():
            return s[lo], s[hi], count
        l, r = lo[wide], hi[wide]
        m = len(s) + np.arange(len(l))
        s = np.concatenate([s, 0.5 * (s[l] + s[r])])
        assert not np.any((s[m] == s[l]) | (s[m] == s[r]))
        W = np.concatenate([W, W_at(s[m])])
        h = np.concatenate([h, lp._h(lp._angles(W[m]))])
        left = lp._passages(turns(W[l], W[m]), h[l], h[m])
        right = lp._passages(turns(W[m], W[r]), h[m], h[r])
        lo = np.concatenate([lo[~wide], l[left != 0], m[right != 0]])
        hi = np.concatenate([hi[~wide], m[left != 0], r[right != 0]])
        count = np.concatenate([count[~wide], left[left != 0],
                                right[right != 0]])


def _spectral_samples(A, window, grid):
    """The samples spectrum.eigenvalues bisects: the Souriau map of the
    frame interpolant against L1 on grid + 2 cells."""
    from floerss import spectrum as sp
    reach = window * (1.0 + 2.0 / grid)
    image = lp.LagrangianPath(A.n, -reach, reach,
                              sp._frame_interpolant(A, reach), "spectral")
    ref = lp.constant_lagrangian_path(A.boundary[1], -reach, reach)
    return lp._souriau_samples(image, ref, grid + 2)


def _counting(W_at, calls):
    def counted(ss):
        calls.append(len(ss))
        return W_at(ss)
    return counted


def _sorted_brackets(los, his, counts):
    order = np.argsort(los)
    return los[order], his[order], counts[order]


def _spectral_cases(rng):
    """(samples, bracket width) of spectrum.eigenvalues: random operators
    with n = 1..4, a multiplicity-2 eigenvalue, a close pair and
    eigenvalues on samples of the grid."""
    from floerss import spectrum as sp
    line = sl.horizontal(1)
    cases = []
    for n in range(1, 5):
        A = sp.AsymptoticOperator(n=n, sigma=random_sigma_poly(rng, n, degree=2),
                                  boundary=(random_lagrangian(rng, n),
                                            random_lagrangian(rng, n)))
        cases.append((_spectral_samples(A, 2 * np.pi, 96), 1e-8))
    # a multiplicity-2 eigenvalue of a constant operator, and a close pair
    A = sp.AsymptoticOperator(n=2, sigma=sl.constant_path(0.4 * np.eye(4)),
                              boundary=(sl.horizontal(2), sl.horizontal(2)))
    cases.append((_spectral_samples(A, 4.0, 64), 1e-8))
    L1 = sl.direct_sum_frames(sl.rotate_frame(line, 0.4),
                              sl.rotate_frame(line, 0.401))
    A = sp.AsymptoticOperator(n=2, sigma=sl.zero_path(2),
                              boundary=(sl.horizontal(2), L1))
    cases.append((_spectral_samples(A, 2 * np.pi, 384), 1e-8))
    # eigenvalues 0 and +-pi, on or next to samples of the grid
    cases.append((_spectral_samples(sp.flat_model(0.0), 2 * np.pi, 384), 1e-8))
    return cases


def test_bisect_passages_matches_one_halving_per_round():
    rng = make_rng(131)
    cases = _spectral_cases(rng)
    # crossings of random pairs, as find_crossings bisects them
    for n in range(1, 5):
        F0 = random_path(rng, n, scale=2.0)
        F1 = lp.constant_lagrangian_path(random_lagrangian(rng, n))
        cases.append((lp._souriau_samples(F0, F1, 32),
                      lp._CROSSING_REFINE_TOL))
    found = 0
    for (s, W, turn, W_at), width in cases:
        cells = np.arange(len(s) - 1)
        want = _sorted_brackets(*_one_halving_per_round(W_at, s, W, cells, width))
        got = _sorted_brackets(*lp._bisect_passages(
            W_at, s, W, lp._angles(W), turn, cells, width))
        for x, y in zip(got, want):
            assert np.array_equal(x, y)
        found += len(want[0])
    assert found > 40


def test_one_eigenvalue_is_refined_in_few_rounds():
    # from a grid cell 0.03 wide to 1e-8 is 22 halvings; the locator ends
    # each eigenvalue's cell at bisection's bracket after its secant rounds
    # and one evaluation of the bracket's count, all stacked
    from floerss import spectrum as sp
    rng = make_rng(132)
    A = sp.AsymptoticOperator(n=1, sigma=random_sigma_poly(rng, 1, degree=2),
                              boundary=(sl.horizontal(1),
                                        random_lagrangian(rng, 1)))
    s, W, turn, W_at = _spectral_samples(A, 2 * np.pi, 384)
    h = lp._h(lp._angles(W))
    count = lp._passages(turn, h[:-1], h[1:])
    assert np.any(count)
    for k in np.flatnonzero(count):
        calls, cell = [], slice(k, k + 2)
        got = sp._locate(_counting(W_at, calls), s[cell], W[cell], turn[k:k + 1],
                         1e-8)
        los, his, counts = got
        assert len(los) == 1 and abs(counts[0]) == 1
        assert his[0] - los[0] <= 1e-8
        assert 1 <= len(calls) <= sp._SECANT_ROUNDS + 1, calls
        assert _assert_bisection_brackets(got, W_at, s[cell], W[cell], 1e-8) == 1


# -- spectrum's locator ------------------------------------------------------------


def _locate_recording_fallbacks(monkeypatch, W_at, s, W, turn, width):
    """spectrum._locate's brackets, sorted, and the left ends of the cells
    it passes on to _bisect_passages."""
    from floerss import spectrum as sp
    passed, bisect = [], lp._bisect_passages

    def recording(W_at, s, W, phi, turn, cells, width):
        passed.extend(s[cells].tolist())
        return bisect(W_at, s, W, phi, turn, cells, width)

    monkeypatch.setattr(lp, "_bisect_passages", recording)
    got = _sorted_brackets(*sp._locate(W_at, s, W, turn, width))
    monkeypatch.setattr(lp, "_bisect_passages", bisect)
    return got, passed


def _assert_bisection_brackets(got, W_at, s, W, width):
    want = _sorted_brackets(*_one_halving_per_round(
        W_at, s, W, np.arange(len(s) - 1), width))
    for x, y in zip(got, want):
        assert np.array_equal(x, y)
    return len(want[0])


def test_locator_matches_one_halving_per_round(monkeypatch):
    # the spectral cases of the bisection test give bisection's brackets;
    # the close pair's cell (two eigenvalues 0.001 apart) is bisected, and
    # so are few others, though the random operators' cells are 4 times as
    # wide as at the acceptance scan
    found, passed = 0, []
    for (s, W, turn, W_at), width in _spectral_cases(make_rng(131)):
        got, fell = _locate_recording_fallbacks(monkeypatch, W_at, s, W, turn,
                                                width)
        found += _assert_bisection_brackets(got, W_at, s, W, width)
        passed += fell
    assert found > 25
    assert any(lo < 0.4 < 0.401 < lo + 0.04 for lo in passed)
    assert len(passed) <= 0.2 * found


def _diagonal_path(slopes, zeros):
    """W(s) = diag(exp(-i slope_j (s - zero_j))): a positive path whose
    eigenvalue j passes 1 clockwise at zero_j, as a stacked evaluator."""
    def W_at(ss):
        phi = -np.asarray(slopes) * (np.asarray(ss)[:, None] - np.asarray(zeros))
        W = np.zeros(phi.shape + phi.shape[-1:], complex)
        W[:, np.arange(len(slopes)), np.arange(len(slopes))] = np.exp(1j * phi)
        return W
    return W_at


def test_locator_falls_back_to_bisection(monkeypatch):
    # cells of 1/8: an eigenvalue passing 1 at the midpoint 7/16 of a cell,
    # where the secant lands exactly; a cell whose angle nearest 0 is
    # positive at both ends (one eigenvalue passes at 0.14, the other is
    # nearest 0 at 0.25 and passes at 0.27, in the next cell, which is
    # certified); both fall back and give bisection's brackets
    from floerss import spectrum as sp
    s = np.linspace(0.0, 1.0, 9)
    for slopes, zeros, fell in (([2.0], [0.4375], [0.375]),
                                ([2.0, 1.0], [0.14, 0.27], [0.125])):
        W_at = _diagonal_path(slopes, zeros)
        W = W_at(s)
        turn = lp._cell_turns(W[:-1], W[1:])[0]
        got, passed = _locate_recording_fallbacks(monkeypatch, W_at, s, W, turn,
                                                  1e-8)
        assert _assert_bisection_brackets(got, W_at, s, W, 1e-8) == len(zeros)
        assert passed == fell
    # secants that have not settled after their rounds: every cell that
    # counts falls back
    monkeypatch.setattr(sp, "_SECANT_ROUNDS", 1)
    (s, W, turn, W_at), width = _spectral_cases(make_rng(131))[3]
    got, passed = _locate_recording_fallbacks(monkeypatch, W_at, s, W, turn, width)
    assert _assert_bisection_brackets(got, W_at, s, W, width) > 0
    h = lp._h(lp._angles(W))
    assert passed == s[np.flatnonzero(lp._passages(turn, h[:-1], h[1:]))].tolist()


def test_bisection_refuses_a_width_below_the_float_spacing():
    # positive but below the spacing of the floats: no bracket halves to it,
    # in the bisection and in the locator that falls back to it
    from floerss import spectrum as sp
    s = np.linspace(0.0, 1.0, 9)
    W_at = _diagonal_path([2.0], [0.45])
    W = W_at(s)
    turn = lp._cell_turns(W[:-1], W[1:])[0]
    with pytest.raises(GridTooCoarse) as info:
        lp._bisect_passages(W_at, s, W, lp._angles(W), turn, np.arange(8), 1e-300)
    assert info.value.payload == {"tol": 1e-300}
    with pytest.raises(GridTooCoarse) as info:
        sp._locate(W_at, s, W, turn, 1e-300)
    assert info.value.payload == {"tol": 1e-300}


def test_screen_keeps_every_cell_that_counts():
    # the cells _may_count drops count 0 when angles are taken at every
    # sample, up to n = 8 and window 16 pi
    from floerss import spectrum as sp
    rng = make_rng(133)
    kept = total = 0
    for n in range(1, 9):
        A = sp.AsymptoticOperator(n=n, sigma=random_sigma_poly(rng, n, degree=2),
                                  boundary=(random_lagrangian(rng, n),
                                            random_lagrangian(rng, n)))
        for window in (2 * np.pi, 4 * np.pi, 8 * np.pi, 16 * np.pi):
            s, W, turn, _ = _spectral_samples(A, window, int(30 * window))
            h = lp._h(lp._angles(W))
            counts = lp._passages(turn, h[:-1], h[1:])
            may = sp._may_count(W)
            assert not np.any(counts[~may]), (n, window)
            assert np.any(counts), (n, window)
            kept, total = kept + np.count_nonzero(may), total + len(may)
    assert kept < 0.5 * total


def _eigvalsh_screen(W):
    """The mask of ``spectrum._may_count`` with the distance of every
    sample's spectrum from 1 taken from the Hermitian eigenvalue problem."""
    from floerss import spectrum as sp
    n = W.shape[-1]
    D = W[1:] - W[:-1]
    f = np.sqrt(np.sum(D.real ** 2 + D.imag ** 2, axis=(-2, -1))) + sp._SCREEN_MARGIN
    G = 2.0 * np.eye(n) - W - np.swapaxes(W.conj(), -1, -2)
    gap = np.sqrt(np.maximum(np.linalg.eigvalsh(G)[:, 0], 0.0))
    return (f >= 2.0 * np.sin(np.pi / (2 * n))) | (np.maximum(gap[:-1], gap[1:]) <= f)


def _unitaries(rng, theta):
    """Q diag(e^{i theta_k}) Q^H for each row theta_k of theta, one random
    unitary Q for all rows."""
    n = theta.shape[-1]
    Q = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    return (Q * np.exp(1j * theta)[:, None, :]) @ Q.conj().T


def test_screen_mask_equals_the_eigvalsh_mask():
    # the determinant bound only skips eigenvalue problems: the mask is the
    # all-eigvalsh one on unitaries whose first eigenvalue passes 1e-9 to
    # 1e-2 from 1 in steps of 1e-3 to 0.1 (the others stay 1.6 or more from
    # 1, where |det(W - I)| alone exceeds the distance), and on the Souriau
    # scans of random operators, where most samples skip it
    from floerss import spectrum as sp
    rng = make_rng(135)
    for n in (1, 2, 3, 4):
        for delta in (1e-9, 1e-7, 1e-5, 1e-3, 1e-2, -1e-5, -1e-2):
            for step in (1e-3, 1e-2, 0.1):
                theta = np.empty((41, n))
                theta[:, 0] = delta + step * np.arange(-20, 21)
                theta[:, 1:] = rng.uniform(2.0, 2 * np.pi - 2.0, n - 1)
                theta[:, 1:] += 0.3 * step * np.arange(41)[:, None]
                W = _unitaries(rng, theta)
                assert np.array_equal(sp._may_count(W), _eigvalsh_screen(W)), \
                    (n, delta, step)
    settled = total = 0
    for n in (1, 2, 3, 4):
        A = sp.AsymptoticOperator(n=n, sigma=random_sigma_poly(rng, n, degree=2),
                                  boundary=(random_lagrangian(rng, n),
                                            random_lagrangian(rng, n)))
        for window in (2 * np.pi, 4 * np.pi):
            W = _spectral_samples(A, window, 384)[1]
            assert np.array_equal(sp._may_count(W), _eigvalsh_screen(W)), (n, window)
            f = np.linalg.norm(W[1:] - W[:-1], axis=(-2, -1)) + sp._SCREEN_MARGIN
            settled += np.count_nonzero(
                sp._gap_bound(W) > np.maximum(np.r_[f, 0], np.r_[0, f]))
            total += len(W)
    assert settled > 0.5 * total


def test_gap_bound_never_exceeds_the_gap():
    # on random unitaries whose spectrum lies at least 1e-2 from 1, where
    # the Hermitian eigenvalue problem gives the distance to far better than
    # the bound's relative slack; for n = 1 the bound is that distance less
    # the slack, so without the slack it exceeds it by rounding.  The bound
    # is at least (gap / 2)^n / 2: the other factors of |det(W - I)| are at
    # least the gap, and tr G is at most 4 n
    from floerss import spectrum as sp
    rng = make_rng(136)
    for n in (1, 2, 3, 4):
        theta = rng.uniform(0.0, 2 * np.pi, (400, n))
        theta[:, 0] = rng.choice([-1.0, 1.0], 400) * np.exp(
            rng.uniform(np.log(1e-2), np.log(np.pi), 400))
        W = _unitaries(rng, theta)
        G = 2.0 * np.eye(n) - W - np.swapaxes(W.conj(), -1, -2)
        gap = np.sqrt(np.linalg.eigvalsh(G)[:, 0])
        far = gap >= 1e-2
        assert np.count_nonzero(far) > 300
        bound = sp._gap_bound(W)[far]
        assert np.all(bound <= gap[far]), n
        assert np.all(bound >= (gap[far] / 2) ** n / 2), n


def test_locator_work_per_job(monkeypatch):
    # at the acceptance scan (window 2 pi, grid 384), where angles at every
    # sample and bisection took about 580 eigen-decompositions per job and
    # 22 evaluated points per eigenvalue, jobs with n = 1..4 take at most
    # 200 on average and at most 8 per eigenvalue
    from floerss import spectrum as sp
    rng = make_rng(134)
    eigvals, souriau_samples = np.linalg.eigvals, lp._souriau_samples
    decompositions, points = [], []

    def counted_eigvals(M):
        decompositions.append(int(np.prod(np.shape(M)[:-2])))
        return eigvals(M)

    def counted_samples(F0, F1, grid):
        s, W, turn, W_at = souriau_samples(F0, F1, grid)
        return s, W, turn, _counting(W_at, points)

    monkeypatch.setattr(np.linalg, "eigvals", counted_eigvals)
    monkeypatch.setattr(lp, "_souriau_samples", counted_samples)
    for n in (1, 2, 3, 4):
        A = sp.AsymptoticOperator(n=n, sigma=random_sigma_poly(rng, n, degree=2),
                                  boundary=(random_lagrangian(rng, n),
                                            random_lagrangian(rng, n)))
        del points[:]
        rep = sp.eigenvalues(A, window=2 * np.pi, grid=384)
        found = sum(m for _, m in rep.eigenvalues)
        assert found >= 2 * n
        assert sum(points) <= 8 * found, (n, sum(points), found)
    assert sum(decompositions) <= 4 * 200, sum(decompositions)
