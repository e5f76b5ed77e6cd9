import dataclasses

import numpy as np
import pytest
from fractions import Fraction

from floerss import lagpath as lp
from floerss import symplin as sl
from floerss.errors import (DegenerateCrossing, EndpointMismatch, GridTooCoarse,
                            IndexMismatch, NonIsolatedCrossings, NotALoop)

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
        try:
            mu = lp.rs_index(Fg, Fh, grid=96)
        except (DegenerateCrossing, NonIsolatedCrossings):
            continue
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
        try:
            total = lp.rs_index(F0, F1, grid=128)
            left = lp.rs_index(F0.restrict(0.0, c), F1.restrict(0.0, c), grid=96)
            right = lp.rs_index(F0.restrict(c, 1.0), F1.restrict(c, 1.0), grid=96)
        except (DegenerateCrossing, NonIsolatedCrossings):
            continue
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
        try:
            mu_a = lp.rs_index(F0a, F1a, grid=96)
            mu_b = lp.rs_index(F0b, F1b, grid=96)
            mu_sum = lp.rs_index(lp.direct_sum_path(F0a, F0b),
                                 lp.direct_sum_path(F1a, F1b), grid=128)
        except (DegenerateCrossing, NonIsolatedCrossings):
            continue
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
        try:
            base = lp.rs_index(F0, F1, grid=96)
            moved = lp.rs_index(lp.transform_path(Psi, F0),
                                lp.transform_path(Psi, F1), grid=96)
        except (DegenerateCrossing, NonIsolatedCrossings):
            continue
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
        try:
            base = lp.rs_index(F0, F1, grid=96)
        except (DegenerateCrossing, NonIsolatedCrossings):
            continue
        ok = True
        for delta in (1e-2, 5e-3, 2.5e-3):
            pert = lp.perturb_path(F0, delta, fix_endpoints=True)
            try:
                if lp.rs_index(pert, F1, grid=96) != base:
                    ok = False
            except (DegenerateCrossing, NonIsolatedCrossings):
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
    # B(s) = (s - 1/2)^2 - tangential crossing, degenerate form
    Fg = lp.graph_path(lambda s: np.array([[(s - 0.5) ** 2]]), 0.0, 1.0)
    Fh = lp.constant_lagrangian_path(H1, 0.0, 1.0)
    with pytest.raises(DegenerateCrossing):
        lp.rs_index(Fg, Fh)
    values = set()
    for delta in (1e-2, 5e-3, 2.5e-3):
        values.add(lp.rs_index(lp.perturb_path(Fg, delta, fix_endpoints=True), Fh))
    assert len(values) == 1


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


def test_maslov_unitary_mismatch_is_typed():
    loop = lp.rotation_path(lambda s: s, H1, 0.0, np.pi)
    bogus = dataclasses.replace(loop, unitary=lambda s: np.eye(1, dtype=complex))
    with pytest.raises(IndexMismatch):
        lp.maslov_loop(bogus, sl.rotate_frame(H1, 0.7))


def test_winding_of_discontinuous_frame_is_refused():
    # det^2 jumps by pi at s = 1/2 at every resolution
    jump = lp.LagrangianPath(
        n=1, a=0.0, b=1.0, evaluator=lambda s: H1,
        unitary=lambda s: np.array([[1.0 if s < 0.5 else 1j]]))
    with pytest.raises(GridTooCoarse):
        lp.winding_det_squared(jump)


@pytest.mark.parametrize("w", [-2, -1, 0, 1, 2])
def test_maslov_diagonal_loops(w):
    loop = lp.diagonal_loop(lambda s: np.array([[np.exp(2j * np.pi * w * s)]]))
    ref = sl.apply_matrix(random_symplectic(make_rng(18 + w), 2),
                          sl.horizontal(2))
    assert lp.winding_det_squared(loop) == 2 * w
    assert lp.maslov_loop(loop, ref, grid=max(256, 128 * (abs(w) + 1))) == 2 * w


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
        try:
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
                                    evaluator=lambda t, e=F0b.end:
                                    sl.apply_matrix(sl.rotation(n, 0.4 * t), e))
            mub = lp.viterbo_index(F0b, F1b, Fpa, Fpb, grid=96)
            glued0 = lp.concatenate(F0a, _reparam(F0b, 1.0, 3.0))
            glued1 = lp.concatenate(F1a, _reparam(F1b, 1.0, 3.0))
            mu_glued = lp.viterbo_index(glued0, glued1, Fma, Fpb, grid=192)
        except (DegenerateCrossing, NonIsolatedCrossings):
            continue
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
