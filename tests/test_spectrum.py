import numpy as np
import pytest
from fractions import Fraction

from floerss import lagpath as lp
from floerss import spectrum as sp
from floerss import symplin as sl
from floerss.errors import (DeltaNotBelowGap, DimensionMismatch,
                            EndpointMismatch, GridTooCoarse, IntegrationFailure,
                            NonIntegerIndex, WindowTooSmall)

from conftest import (make_rng, pointwise_path, random_lagrangian,
                      random_sigma_poly, random_symplectic_path)


def test_flat_model_angle_progression():
    alpha = np.pi / 3
    rep = sp.eigenvalues(sp.flat_model(alpha), window=4.0)
    got = sorted(r for r, _ in rep.eigenvalues)
    expected = sorted(alpha + np.pi * k for k in (-1, 0)
                      if abs(alpha + np.pi * k) <= 4.0)
    # pi/3 + pi = 4.18 lies outside [-4, 4]
    assert len(got) == 2
    for g, e in zip(got, [alpha - np.pi, alpha]):
        assert abs(g - e) < 1e-6
    assert all(m == 1 for _, m in rep.eigenvalues)
    assert abs(rep.gap - alpha) < 1e-6


def test_flat_model_kernel():
    rep = sp.eigenvalues(sp.flat_model(0.0), window=4.0)
    got = sorted(r for r, _ in rep.eigenvalues)
    assert len(got) == 3
    for g, e in zip(got, (-np.pi, 0.0, np.pi)):
        assert abs(g - e) < 1e-6
    assert rep.kernel_dim == 1
    assert abs(rep.gap - np.pi) < 1e-6


def test_constant_multiple_spectrum_closed_form():
    # J xi' + c xi = rho xi with xi(0), xi(1) horizontal solves to
    # xi = e^{(c - rho) t J} xi0, so the reported progression (angle
    # convention) is {-c + pi k} with multiplicity 2 for n = 2
    c = 0.4
    A = sp.AsymptoticOperator(n=2, sigma=sl.constant_path(c * np.eye(4)),
                              boundary=(sl.horizontal(2), sl.horizontal(2)))
    rep = sp.eigenvalues(A, window=4.0)
    expected = sorted(-c + np.pi * k for k in (-1, 0, 1))
    got = sorted(r for r, _ in rep.eigenvalues)
    assert len(got) == 3
    for g, e in zip(got, expected):
        assert abs(g - e) < 1e-6
    assert all(m == 2 for _, m in rep.eigenvalues)
    assert abs(rep.gap - c) < 1e-6


def test_eigenvalues_of_probe_blind_operator():
    # the time-dependent part 400 t^2 (t - 1/4)(t - 1/2)(t - 3/4)(t - 1)
    # vanishes at t = 0, 1/4, 1/2, 3/4, 1, so sampling sigma at those times
    # alone mistakes it for a constant path
    bump = [0.0, 0.0, 37.5, -312.5, 875.0, -1000.0, 400.0]
    E = np.diag([1.0, 0.0])
    coeffs = [c * E for c in bump]
    coeffs[0] = coeffs[0] + np.array([[0.0, 0.4], [0.4, 0.0]])
    L0 = sl.horizontal(1)
    L1 = sl.rotate_frame(L0, 0.3)
    A = sp.AsymptoticOperator(n=1, sigma=sl.poly_path(coeffs), boundary=(L0, L1))
    rep = sp.eigenvalues(A, window=2 * np.pi, grid=384)
    assert rep.eigenvalues
    for rho, m in rep.eigenvalues:
        shifted = sl.poly_path([coeffs[0] + rho * np.eye(2)] + coeffs[1:])
        psi = sl.fundamental_solution(shifted)
        assert sl.min_principal_angle_sin(sl.apply_matrix(psi, L0), L1) < 1e-6
        B = sp.AsymptoticOperator(n=1, sigma=shifted, boundary=(L0, L1))
        assert sp.kernel_dim(B) == m
    assert rep.kernel_dim == sp.kernel_dim(A)


def test_close_pair_eigenvalues_are_all_counted():
    # L1 the lines at angles 0.4 and 0.4 + d: the eigenvalues are the two
    # progressions 0.4 + pi Z and 0.4 + d + pi Z, pairs closer than one
    # scan cell (4 pi / 384) that a minimum of the gap function cannot
    # tell apart
    line = sl.horizontal(1)
    for d in (0.03, 0.01, 0.003, 0.001):
        L1 = sl.direct_sum_frames(sl.rotate_frame(line, 0.4),
                                  sl.rotate_frame(line, 0.4 + d))
        A = sp.AsymptoticOperator(n=2, sigma=sl.zero_path(2),
                                  boundary=(sl.horizontal(2), L1))
        rep = sp.eigenvalues(A, window=2 * np.pi, grid=384)
        want = sorted(alpha + np.pi * k for alpha in (0.4, 0.4 + d)
                      for k in (-2, -1, 0, 1))
        assert [m for _, m in rep.eigenvalues] == [1] * 8, d
        for (rho, _), e in zip(rep.eigenvalues, want):
            assert abs(rho - e) < 1e-8, (d, rho, e)
        assert abs(rep.gap - 0.4) < 1e-8 and rep.kernel_dim == 0


def test_eigenvalues_at_the_window_ends_are_kept():
    rep = sp.eigenvalues(sp.flat_model(0.0), window=2 * np.pi, grid=384)
    got = [r for r, _ in rep.eigenvalues]
    assert len(got) == 5
    for r, e in zip(got, np.pi * np.arange(-2, 3)):
        assert abs(r - e) < 1e-8
    assert all(m == 1 for _, m in rep.eigenvalues) and rep.kernel_dim == 1


def test_no_short_window_holds_two_eigenvalues():
    rep = sp.eigenvalues(sp.flat_model(1.0), window=7.0)
    rhos = sorted(r for r, _ in rep.eigenvalues)
    for i in range(len(rhos) - 1):
        assert rhos[i + 1] - rhos[i] > np.pi / 2


def test_kernel_dims():
    assert sp.kernel_dim(sp.flat_model(np.pi / 3)) == 0
    A = sp.AsymptoticOperator(n=2, sigma=sl.zero_path(2),
                              boundary=(sl.horizontal(2), sl.horizontal(2)))
    assert sp.kernel_dim(A) == 2
    # blockwise: horizontal + rotated line meets horizontal + horizontal in 1
    L1 = sl.direct_sum_frames(sl.horizontal(1),
                              sl.rotate_frame(sl.horizontal(1), 0.9))
    A2 = sp.AsymptoticOperator(n=2, sigma=sl.zero_path(2),
                               boundary=(sl.horizontal(2), L1))
    assert sp.kernel_dim(A2) == 1


def test_spectral_gap_window_doubling():
    # gap pi: a tiny window misses every eigenvalue, the retry finds them
    A = sp.flat_model(0.0)
    assert abs(sp.spectral_gap(A, window=1.0, grid=256) - np.pi) < 1e-6
    with pytest.raises(WindowTooSmall) as info:
        sp.spectral_gap(A, window=0.05, grid=64)
    # the window doubled twice before the refusal
    assert info.value.payload["window"] == 0.2


def test_interpolant_matches_direct_flows():
    # the Chebyshev series of rho -> Psi_{sigma+rho}(1) L0 against direct
    # flows at shifts off its nodes, compared as Lagrangian subspaces; the
    # series' frames are not orthonormal, so they are orthonormalized here
    rng = make_rng(38)
    for n in (1, 2, 3, 4):
        sig = random_sigma_poly(rng, n, degree=2)
        A = sp.AsymptoticOperator(n=n, sigma=sig, boundary=(
            random_lagrangian(rng, n), random_lagrangian(rng, n)))
        flows = sl.shifted_flows(sig)
        for reach in (2 * np.pi, 4 * np.pi):
            rhos = rng.uniform(-reach, reach, 50)
            got = sl.LagrangianFrame(
                n=n, frame=np.linalg.qr(sp._frame_interpolant(A, reach)(rhos))[0])
            want = sl.validate_lagrangian(flows(rhos) @ A.boundary[0].frame)
            assert sl.principal_angle_sines(got, want).max() < 1e-10, (n, reach)


def test_scan_reads_the_constant_path_once(monkeypatch):
    # the Souriau map of the constant L1 is computed once per scan, from a
    # stack of one frame, for the spectral path and for Psi(t) L0
    reads = []
    make = lp.constant_lagrangian_path

    def counted(frame, a=0.0, b=1.0):
        p = make(frame, a, b)

        def stack(ss):
            reads.append(len(ss))
            return p.stack(ss)

        return lp.LagrangianPath(p.n, a, b, stack, p.kind)

    monkeypatch.setattr(lp, "constant_lagrangian_path", counted)
    rng = make_rng(41)
    sig = random_sigma_poly(rng, 2, degree=2)
    A = sp.AsymptoticOperator(n=2, sigma=sig, boundary=(
        random_lagrangian(rng, 2), random_lagrangian(rng, 2)))
    assert sp.eigenvalues(A, window=2 * np.pi, grid=384).eigenvalues
    assert reads == [1]
    del reads[:]
    image = lp.fundamental_image_path(sl.FundamentalFlow(sig), A.boundary[0])
    lp.rs_index(image, lp.constant_lagrangian_path(A.boundary[1]), grid=256)
    assert reads == [1]


def _count_flow_passes(monkeypatch):
    passes = []
    rk4 = sl._rk4

    def recorder(C, rhos, keep=False):
        passes.append(len(rhos))
        return rk4(C, rhos, keep)

    monkeypatch.setattr(sl, "_rk4", recorder)
    return passes


def test_eigenvalues_make_one_flow_pass(monkeypatch):
    rng = make_rng(39)
    passes = _count_flow_passes(monkeypatch)
    counts = set()
    for n in (1, 3):
        sig = random_sigma_poly(rng, n, degree=2)
        A = sp.AsymptoticOperator(n=n, sigma=sig, boundary=(
            random_lagrangian(rng, n), random_lagrangian(rng, n)))
        for grid in (64, 384):
            del passes[:]
            rep = sp.eigenvalues(A, window=2 * np.pi, grid=grid)
            # 32 nodes at window 2 pi and the 4 oracle shifts, in one pass
            assert passes == [36], (n, grid)
            counts.add(len(rep.eigenvalues))
    assert len(counts) > 1
    del passes[:]
    sp.eigenvalues(sp.flat_model(0.5), window=2 * np.pi, grid=384)
    assert passes == []


def test_eigenvalues_of_a_strongly_coupled_sigma(monkeypatch):
    # |Psi(1)| is about 1e2: the flows' projections onto Sp(2n) leave noise
    # in rho above 1e-12 of the coefficients, so the tail stops falling at
    # 64 nodes and the series is taken there; each m is one pass with its 4
    # oracle shifts
    rng = make_rng(48)
    sig = random_sigma_poly(rng, 2, degree=2, scale=5.0)
    A = sp.AsymptoticOperator(n=2, sigma=sig, boundary=(
        random_lagrangian(rng, 2), random_lagrangian(rng, 2)))
    passes = _count_flow_passes(monkeypatch)
    rep = sp.eigenvalues(A, window=2 * np.pi, grid=384)
    assert passes == [36, 68]
    assert rep.eigenvalues
    for rho, m in rep.eigenvalues:
        B = sp.AsymptoticOperator(n=2, sigma=sp._shifted_path(sig, -rho),
                                  boundary=A.boundary)
        F = sl.apply_matrix(sl.fundamental_solution(B.sigma),
                            A.boundary[0])
        assert sl.min_principal_angle_sin(F, A.boundary[1]) < 1e-6
        assert sp.kernel_dim(B) == m


def test_interpolant_oracle_refuses_flows_it_does_not_match(monkeypatch):
    # flows that are not one function of rho: the 4 oracle shifts, the last
    # members of the nodes' batch, see frames the nodes did not
    shifted_flows = sl.shifted_flows

    def skewed(sigma):
        flows = shifted_flows(sigma)

        def skewed_flows(rhos):
            F = flows(rhos)
            F[-4:] = F[-4:] @ sl.rotation(sigma.n, 1e-6)
            return F

        return skewed_flows

    monkeypatch.setattr(sl, "shifted_flows", skewed)
    with pytest.raises(IntegrationFailure) as info:
        sp.eigenvalues(sp.flat_model(0.5), window=2 * np.pi, grid=64)
    assert info.value.payload["nodes"] == 32
    assert 1e-7 < info.value.payload["error"] < 1e-5


def test_window_cap(monkeypatch):
    rng = make_rng(40)
    sig = random_sigma_poly(rng, 2, degree=2)
    A = sp.AsymptoticOperator(n=2, sigma=sig, boundary=(
        random_lagrangian(rng, 2), random_lagrangian(rng, 2)))
    passes = _count_flow_passes(monkeypatch)
    # 16 pi is the widest window of spectral_gap's doublings from 4 pi
    rep = sp.eigenvalues(A, window=16 * np.pi)
    assert passes == [132]
    assert 60 <= sum(m for _, m in rep.eigenvalues) <= 68
    # the eigenvalues inside 2 pi are those of the 2 pi window
    near = sp.eigenvalues(A, window=2 * np.pi, grid=384).eigenvalues
    inner = [(r, m) for r, m in rep.eigenvalues if abs(r) <= 2 * np.pi]
    assert [m for _, m in inner] == [m for _, m in near]
    assert max(abs(r - q) for (r, _), (q, _) in zip(inner, near)) < 1e-8
    del passes[:]
    with pytest.raises(GridTooCoarse) as info:
        sp.eigenvalues(A, window=1e4, grid=384)
    assert info.value.payload["nodes"] > 2 ** 10
    assert passes == []


def test_spectrum_invariant_under_mu_action():
    rng = make_rng(31)
    sig = random_sigma_poly(rng, 1)
    h = sl.horizontal(1)
    A = sp.AsymptoticOperator(n=1, sigma=sig, boundary=(h, h))
    B = sp.AsymptoticOperator(n=1, sigma=sl.mu_action(1, sig), boundary=(h, h))
    ra = sp.eigenvalues(A, window=4.0, grid=512)
    rb = sp.eigenvalues(B, window=4.0, grid=512)
    assert len(ra.eigenvalues) == len(rb.eigenvalues)
    for (x, mx), (y, my) in zip(ra.eigenvalues, rb.eigenvalues):
        assert abs(x - y) < 1e-5 and mx == my


# -- Adelta ---------------------------------------------------------------------


def test_adelta_flat_kernel_model():
    A = sp.AsymptoticOperator(n=1, sigma=sl.zero_path(1),
                              boundary=(sl.horizontal(1), sl.horizontal(1)))
    res = sp.adelta_shift_check(A, 0.3)
    assert res["mu_plus_delta"] == Fraction(-1, 2)
    assert res["mu_minus_delta"] == Fraction(1, 2)
    assert res["kernel_dim"] == 1 and res["equal"]


def test_adelta_transverse_model():
    res = sp.adelta_shift_check(sp.flat_model(np.pi / 3), 0.4)
    assert res["kernel_dim"] == 0 and res["equal"]


def test_adelta_rejects_large_delta():
    with pytest.raises(DeltaNotBelowGap):
        sp.adelta_shift_check(sp.flat_model(np.pi / 3), 2.0)


def test_adelta_randomized():
    rng = make_rng(32)
    done = 0
    while done < 20:
        n = int(rng.integers(1, 3))
        sig = random_sigma_poly(rng, n, degree=1, scale=0.5)
        L0 = random_lagrangian(rng, n)
        L1 = random_lagrangian(rng, n)
        A = sp.AsymptoticOperator(n=n, sigma=sig, boundary=(L0, L1))
        gap = sp.spectral_gap(A, window=2 * np.pi, grid=384)
        res = sp.adelta_shift_check(A, 0.5 * gap, grid=128, gap=gap)
        assert res["equal"], (res, done)
        done += 1


# -- Fredholm index ---------------------------------------------------------------


def test_fredholm_trivial_kernel_terms():
    n = 2
    h = sl.horizontal(n)
    sig = sl.zero_path(n)
    F0 = lp.constant_lagrangian_path(h, -1.0, 1.0)
    idx = sp.fredholm_index((sig, h, h), (sig, h, h), (F0, F0),
                            kernel_dims=(n, n))
    assert idx == n


def test_fredholm_transverse_matches_rs():
    # transverse asymptotics at both ends: all kernel terms vanish and the
    # constant Psi-paths contribute zero, so the index is mu(F0, F1)
    alpha = np.pi / 3
    h = sl.horizontal(1)
    ha = sl.rotate_frame(h, alpha)
    ref = sl.rotate_frame(h, alpha + np.pi / 2)
    sig = sl.zero_path(1)
    F0 = lp.rotation_path(lambda ss: alpha * (ss + 1) / 2, h, -1.0, 1.0)
    F1 = lp.constant_lagrangian_path(ref, -1.0, 1.0)
    mu_F = lp.rs_index(F0, F1)
    idx = sp.fredholm_index((sig, ha, ref), (sig, h, ref), (F0, F1))
    assert idx == mu_F


def test_fredholm_validates_kernel_dims():
    h = sl.horizontal(1)
    sig = sl.zero_path(1)
    F0 = lp.constant_lagrangian_path(h, -1.0, 1.0)
    with pytest.raises(DimensionMismatch):
        sp.fredholm_index((sig, h, h), (sig, h, h), (F0, F0), kernel_dims=(0, 0))


def test_fredholm_endpoint_mismatch():
    h = sl.horizontal(1)
    v = sl.vertical(1)
    sig = sl.zero_path(1)
    F0 = lp.constant_lagrangian_path(h, -1.0, 1.0)
    with pytest.raises(EndpointMismatch):
        sp.fredholm_index((sig, v, v), (sig, h, h), (F0, F0))


def _random_strip_data(rng, n, sig_m, sig_p, Lm, Lp):
    """F-path pair from the minus boundary data to the plus data."""
    from conftest import random_symplectic_path
    M0 = random_symplectic_path(rng, n, -1.0, 1.0, scale=0.7)
    M1 = random_symplectic_path(rng, n, -1.0, 1.0, scale=0.6)
    F0 = lp.LagrangianPath(n=n, a=-1.0, b=1.0,
                           stack=lambda ss: sl.apply_matrix(M0(ss), Lm[0]).frame)
    F1 = lp.LagrangianPath(n=n, a=-1.0, b=1.0,
                           stack=lambda ss: sl.apply_matrix(M1(ss), Lm[1]).frame)
    return F0, F1


def test_glued_vs_broken_index():
    # ind D_R = ind D_0 + ind D_1 - dim ker A_mid on compatible data; the
    # junction pair stays transverse (regular structure for concatenation)
    # while the middle kernel is forced through the fundamental solution
    rng = make_rng(33)
    done = 0
    while done < 20:
        n = int(rng.integers(1, 3))
        sig_m = sl.constant_path(0.3 * np.eye(2 * n) * float(rng.uniform(-1, 1)))
        sig_p = sl.constant_path(0.4 * np.eye(2 * n) * float(rng.uniform(-1, 1)))
        Lm = (random_lagrangian(rng, n), random_lagrangian(rng, n))
        if rng.uniform() < 0.4:
            # kernel n at the middle: Psi_mid(1) = e^{cJ} maps L0 onto L1
            c = 0.4
            sig_mid = sl.constant_path(c * np.eye(2 * n))
            L0mid = random_lagrangian(rng, n)
            Lmid = (L0mid, sl.rotate_frame(L0mid, c))
        else:
            sig_mid = sl.zero_path(n)
            Lmid = (random_lagrangian(rng, n), random_lagrangian(rng, n))
        if sl.intersection_dim(Lmid[0], Lmid[1], tol=1e-5) > 0:
            continue
        F0a, F1a = _random_strip_data(rng, n, sig_m, sig_mid, Lm, Lm)
        # pin the a-strip end to the middle pair
        F0a = _pin_end(F0a, Lmid[0])
        F1a = _pin_end(F1a, Lmid[1])
        F0b, F1b = _random_strip_data(rng, n, sig_mid, sig_p, Lmid, Lmid)
        Lp = (F0b.end, F1b.end)
        ind0 = sp.fredholm_index((sig_mid, Lmid[0], Lmid[1]),
                                 (sig_m, Lm[0], Lm[1]), (F0a, F1a), grid=128)
        ind1 = sp.fredholm_index((sig_p, Lp[0], Lp[1]),
                                 (sig_mid, Lmid[0], Lmid[1]), (F0b, F1b),
                                 grid=128)
        glued0 = lp.concatenate(F0a, _shift(F0b, 1.0, 3.0))
        glued1 = lp.concatenate(F1a, _shift(F1b, 1.0, 3.0))
        indR = sp.fredholm_index((sig_p, Lp[0], Lp[1]),
                                 (sig_m, Lm[0], Lm[1]), (glued0, glued1),
                                 grid=256)
        A_mid = sp.AsymptoticOperator(n=n, sigma=sig_mid, boundary=Lmid)
        k_mid = sp.kernel_dim(A_mid)
        assert indR == ind0 + ind1 - k_mid
        done += 1


def _pin_end(path, target):
    """Deform the tail of the path so it ends exactly at the target frame."""
    base_end = path.end

    # interpolate between the path and a path ending at target: rotate by the
    # symplectic transition on [0.7, 1]
    def ev(s):
        F = path(s)
        if s <= 0.6:
            return F
        t = (min(s, 1.0) - 0.6) / 0.4
        M = _transition(base_end, target, t)
        return sl.apply_matrix(M, F)

    return pointwise_path(path.n, path.a, path.b, ev)


def _transition(src, dst, t):
    """Symplectic interpolation M(t) with M(0) = 1, M(1) src = dst."""
    # unitary transition: both frames give unitary columns; U = V W^{-1}
    n = src.n
    W = src.frame[:n, :] + 1j * src.frame[n:, :]
    V = dst.frame[:n, :] + 1j * dst.frame[n:, :]
    U = V @ np.linalg.inv(W)
    w, Q = np.linalg.eig(U)
    w = w / np.abs(w)
    Ut = Q @ np.diag(w ** t) @ np.linalg.inv(Q)
    R = np.block([[Ut.real, -Ut.imag], [Ut.imag, Ut.real]])
    return sl.project_symplectic(R)


def _shift(path, a, b):
    return lp.LagrangianPath(
        n=path.n, a=a, b=b,
        stack=lambda ss: path.stack(
            path.a + (ss - a) * (path.b - path.a) / (b - a)))


# -- strip index -------------------------------------------------------------------


def test_strip_index_examples():
    assert sp.strip_index(Fraction(0), 0, 0) == 0
    assert sp.strip_index(Fraction(-1, 2), 1, 0) == 0
    with pytest.raises(NonIntegerIndex):
        sp.strip_index(Fraction(1, 2), 0, 0)


def test_strip_index_on_viterbo_data():
    rng = make_rng(34)
    from test_lagpath import _random_viterbo_data
    done = 0
    while done < 10:
        try:
            F0, F1, Fm, Fp = _random_viterbo_data(rng, 1)
            mu = lp.viterbo_index(F0, F1, Fm, Fp, grid=96)
        except Exception:
            continue
        dm = sl.intersection_dim(Fm.end, F1.start, tol=1e-6)
        dp = sl.intersection_dim(Fp.end, F1.end, tol=1e-6)
        assert isinstance(sp.strip_index(mu, dm, dp), int)
        done += 1


# -- gap inequality ------------------------------------------------------------------


def test_gap_inequality_transverse_model():
    ok, rep = sp.gap_inequality_check(sp.flat_model(np.pi / 3), num_tests=50,
                                      rng=make_rng(35))
    assert ok, rep


def test_gap_inequality_with_kernel_projected():
    A = sp.AsymptoticOperator(n=1, sigma=sl.zero_path(1),
                              boundary=(sl.horizontal(1), sl.horizontal(1)))
    ok, rep = sp.gap_inequality_check(A, num_tests=50, rng=make_rng(36))
    assert ok, rep


def test_gap_inequality_negative_control():
    A = sp.AsymptoticOperator(n=1, sigma=sl.zero_path(1),
                              boundary=(sl.horizontal(1), sl.horizontal(1)))
    ok, rep = sp.gap_inequality_check(A, num_tests=50, rng=make_rng(37),
                                      project_kernel=False)
    assert not ok and rep["failures"]
