import time

import numpy as np
import pytest
from fractions import Fraction

from floerss import lagpath as lp
from floerss.config import DEFAULTS
from floerss import symplin as sl
from floerss.errors import (EndpointMismatch, GridTooCoarse, IntegrationFailure,
                            NotALoop, NotFullRank)

from conftest import (make_rng, random_half_symmetric, random_lagrangian,
                      random_path, random_symplectic)

H1 = sl.horizontal(1)


def _sign(M):
    w = np.linalg.eigvalsh(M)
    return int(np.sum(w > 1e-9) - np.sum(w < -1e-9))


# -- crossings -------------------------------------------------------------------


def test_no_crossing_before_pi():
    F0 = lp.rotation_path(lambda s: s, H1, 0.1, 3.0)
    F1 = lp.constant_lagrangian_path(H1, 0.1, 3.0)
    assert lp.find_crossings(F0, F1) == []


def test_crossing_localized_at_pi():
    F0 = lp.rotation_path(lambda s: s, H1, 0.1, 3.3)
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
    Fg = lp.graph_path(lambda s: np.array([[s - 0.5]]), 0.0, 1.0)
    Fh = lp.constant_lagrangian_path(H1, 0.0, 1.0)
    cr = lp.find_crossings(Fg, Fh)
    assert len(cr) == 1
    assert abs(cr[0].s - 0.5) < 1e-9
    assert abs(cr[0].form[0, 0] - 1.0) < 1e-5
    assert cr[0].signature == 1 and cr[0].regular
    assert lp.rs_index(Fg, Fh) == 1


def test_crossing_form_pair_antisymmetry():
    moving = lp.rotation_path(lambda s: s, H1, 0.0, 1.0)
    frozen = lp.constant_lagrangian_path(sl.rotate_frame(H1, 0.5), 0.0, 1.0)
    f1, _ = lp.crossing_form(moving, frozen, 0.5)
    f2, _ = lp.crossing_form(frozen, moving, 0.5)
    assert abs(f1[0, 0] - 1.0) < 1e-6
    assert abs(f2[0, 0] + 1.0) < 1e-6


def test_crossing_form_graph_localizes_to_B_prime():
    # moving graph against the constant horizontal: form = B'(s) on ker B(s)
    B0 = np.diag([0.0, 1.0])
    B1 = np.diag([1.0, 0.5])

    def B(s):
        return B0 + (s - 0.5) * B1

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

        Fg = lp.graph_path(B, 0.0, 1.0)
        Fh = lp.constant_lagrangian_path(sl.horizontal(n), 0.0, 1.0)
        mu = lp.rs_index(Fg, Fh, grid=96)
        expected = Fraction(_sign(B(1.0)) - _sign(B(0.0)), 2)
        assert mu == expected
        done += 1


def test_rs_rotation_endpoint_halves():
    F0 = lp.rotation_path(lambda s: s, H1, 0.0, np.pi)
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
    B = lambda s: np.array([[(s - 0.5) ** 2]])
    Fg = lp.graph_path(B, 0.0, 1.0)
    Fh = lp.constant_lagrangian_path(H1, 0.0, 1.0)
    localization = Fraction(_sign(B(1.0)) - _sign(B(0.0)), 2)
    assert localization == 0
    assert lp.rs_index(Fg, Fh) == localization
    for delta in (1e-2, 5e-3, 2.5e-3):
        pert = lp.perturb_path(Fg, delta, fix_endpoints=True)
        assert lp.rs_index(pert, Fh) == localization
    cr = lp.find_crossings(Fg, Fh)
    assert len(cr) == 1 and abs(cr[0].s - 0.5) < 1e-6 and not cr[0].regular


@pytest.mark.parametrize("B,expected", [
    (lambda s: np.array([[(s - 0.5) ** 3]]), 1),
    (lambda s: np.diag([s - 0.5, (s - 0.5) ** 2]), 1),
], ids=["cubic", "line_plus_tangency"])
def test_rs_degenerate_graph_crossings_localize(B, expected):
    n = B(0.0).shape[0]
    Fg = lp.graph_path(B, 0.0, 1.0)
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
    F = lp.LagrangianPath(n=2, a=0.0, b=1.0, evaluator=lambda s: sl.LagrangianFrame(
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
    frames = np.stack([P(s).frame for s in ss])
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
    # the bracket width crossing_refine_tol = 1e-11 that bisection aims for
    a = 1e6
    F0 = lp.rotation_path(lambda s: 2.0 * (s - a) - 0.7, sl.horizontal(1),
                          a, a + 1.0)
    F1 = lp.constant_lagrangian_path(sl.horizontal(1), a, a + 1.0)
    with pytest.raises(GridTooCoarse) as info:
        lp.find_crossings(F0, F1, grid=16)
    assert info.value.payload == {"tol": DEFAULTS.crossing_refine_tol}


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
        path = lp.rotation_path(lambda s: r[0] * s,
                                sl.LagrangianFrame(n=n, frame=OO @ _lines(a)))
        y = lambda s: a + r[0] * s
        crossings = _exact_crossings(np.stack([a, r], axis=1), False)
    elif kind == "graph":
        # lines at angles atan(p + q s), crossing where p + q s = 0
        p, q = np.tan(0.5 * a), rng.uniform(-3.0, 3.0, n)
        path = lp.graph_path(lambda s: O @ np.diag(p + q * s) @ O.T)
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

    def checked(F0, F1, grid=None, settings=DEFAULTS):
        mu = rs_index(F0, F1, grid=grid, settings=settings)
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
    rot = lp.rotation_path(lambda s: np.nan if s > 0.5 else s, H1)
    graph = lp.graph_path(lambda s: np.array([[np.nan if s > 0.5 else s]]))
    for F in (rot, graph):
        with pytest.raises(NotFullRank):
            lp.rs_index(F, Fh, grid=16)


def test_rs_index_of_discontinuous_path_is_refused():
    # the line jumps from the horizontal to the vertical at s = 1/2, so the
    # Souriau map jumps by pi at every resolution
    jump = lp.LagrangianPath(n=1, a=0.0, b=1.0,
                             evaluator=lambda s: H1 if s < 0.5 else sl.vertical(1))
    ref = lp.constant_lagrangian_path(sl.rotate_frame(H1, 0.7), 0.0, 1.0)
    with pytest.raises(GridTooCoarse):
        lp.rs_index(jump, ref, grid=96)


# -- Maslov --------------------------------------------------------------------------


def test_maslov_constant_loop():
    ref = sl.rotate_frame(H1, 0.7)
    loop = lp.constant_lagrangian_path(H1, 0.0, 1.0)
    assert lp.maslov_loop(loop, ref) == 0


def test_maslov_generator_loop():
    loop = lp.rotation_path(lambda s: s, H1, 0.0, np.pi)
    assert lp.maslov_loop(loop, sl.rotate_frame(H1, 0.7)) == 1


def test_maslov_not_a_loop():
    arc = lp.rotation_path(lambda s: s, H1, 0.0, 1.0)
    with pytest.raises(NotALoop):
        lp.maslov_loop(arc, sl.rotate_frame(H1, 0.7))


def test_winding_of_discontinuous_frame_is_refused():
    # the loop jumps to the vertical on [1/3, 2/3), so its Souriau map jumps
    # by pi at every resolution
    jump = lp.LagrangianPath(
        n=1, a=0.0, b=1.0,
        evaluator=lambda s: sl.vertical(1) if 1 / 3 <= s < 2 / 3 else H1)
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
                           evaluator=lambda t: sl.apply_matrix(Mm(t), start))
    Fp = lp.LagrangianPath(n=n, a=0.0, b=1.0,
                           evaluator=lambda t: sl.apply_matrix(Mp(t), end))
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
                                evaluator=lambda t, e=F0b.end, n=n:
                                sl.apply_matrix(sl.rotation(n, 0.4 * t), e))
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
        evaluator=lambda s: sl.apply_matrix(M(s), start_frame))


def _reparam(path, a, b):
    return lp.LagrangianPath(
        n=path.n, a=a, b=b,
        evaluator=lambda s: path.evaluator(
            path.a + (s - a) * (path.b - path.a) / (b - a)),
        kind=path.kind)
