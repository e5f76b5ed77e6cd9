"""Acceptance suite: every criterion runs at its stated tolerance and prints
one pass/fail line (run with -s to see the lines as they complete)."""

import time
from fractions import Fraction

import numpy as np
import pytest

from floerss import chain as ch
from floerss import gf2
from floerss import lagpath as lp
from floerss import obstruct as ob
from floerss import orsign as osn
from floerss import specseq as ss
from floerss import spectrum as sp
from floerss import symplin as sl
from floerss.novikov import Z, Z2, homology

from conftest import (make_rng, random_half_symmetric, random_lagrangian,
                      random_path, random_sigma_poly, random_symplectic)


def report(num, ok, label):
    print(f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} - {label}")
    assert ok, f"criterion {num} failed: {label}"


def test_criterion_01_flat_model_spectrum():
    t0 = time.time()
    ok = True
    for alpha in (np.pi / 6, np.pi / 3, 1.0):
        rep = sp.eigenvalues(sp.flat_model(alpha), window=4 * np.pi)
        for k in range(-3, 4):
            target = alpha + np.pi * k
            best = min(abs(r - target) for r, _ in rep.eigenvalues)
            ok = ok and best < 1e-6
        ok = ok and abs(rep.gap - min(alpha, np.pi - alpha)) < 1e-6
    elapsed = time.time() - t0
    ok = ok and elapsed < 2.0
    report(1, ok, f"flat-model spectra alpha + pi k, gap min(a, pi-a) "
                  f"({elapsed:.2f} s)")


def test_criterion_02_adelta_identities():
    rng = make_rng(102)
    done = 0
    ok = True
    while done < 20:
        n = int(rng.integers(1, 3))
        sig = random_sigma_poly(rng, n, degree=1, scale=0.5)
        A = sp.AsymptoticOperator(n=n, sigma=sig,
                                  boundary=(random_lagrangian(rng, n),
                                            random_lagrangian(rng, n)))
        gap = sp.spectral_gap(A, window=2 * np.pi, grid=384)
        res = sp.adelta_shift_check(A, 0.5 * gap, grid=128, gap=gap)
        ok = ok and res["plus_ok"] and res["minus_ok"]
        done += 1
    report(2, ok, "shift identities mu(Psi_{+-delta}) = mu(Psi_0) -+ ker/2, "
                  "20 randomized operators, both signs")


def _sign(M):
    w = np.linalg.eigvalsh(M)
    return int(np.sum(w > 1e-9) - np.sum(w < -1e-9))


def test_criterion_03_rs_axiom_suite():
    rng = make_rng(103)
    results = {}

    # zero axiom
    good = 0
    for _ in range(50):
        n = int(rng.integers(1, 3))
        F0 = random_path(rng, n)
        F1 = lp.transform_path(sl.rotation(n, 0.4), F0)
        good += lp.rs_index(F0, F1, grid=96) == 0
    results["zero"] = good == 50

    # localization: exact agreement with (sign B(b) - sign B(a)) / 2
    done = good = 0
    while done < 50:
        n = int(rng.integers(1, 3))
        B0 = random_half_symmetric(rng, n)
        B1 = random_half_symmetric(rng, n) + 0.3 * np.eye(n)
        Fg = lp.graph_path(
            lambda ss, B0=B0, B1=B1: B0 + ss[:, None, None] * B1, 0.0, 1.0)
        Fh = lp.constant_lagrangian_path(sl.horizontal(n), 0.0, 1.0)
        mu = lp.rs_index(Fg, Fh, grid=96)
        good += mu == Fraction(_sign(B0 + B1) - _sign(B0), 2)
        done += 1
    results["localization"] = good == 50

    # concatenation
    done = good = 0
    while done < 50:
        n = int(rng.integers(1, 3))
        F0 = random_path(rng, n, scale=1.4)
        F1 = random_path(rng, n, scale=0.9)
        c = float(rng.uniform(0.35, 0.65))
        if sl.intersection_dim(F0(c), F1(c), tol=1e-4) > 0:
            continue
        total = lp.rs_index(F0, F1, grid=128)
        parts = (lp.rs_index(F0.restrict(0, c), F1.restrict(0, c), grid=96)
                 + lp.rs_index(F0.restrict(c, 1), F1.restrict(c, 1),
                               grid=96))
        good += total == parts
        done += 1
    results["concatenation"] = good == 50

    # direct sum
    done = good = 0
    while done < 50:
        paths = [random_path(rng, 1, scale=s) for s in (1.2, 0.7, 1.1, 0.8)]
        mu_a = lp.rs_index(paths[0], paths[1], grid=96)
        mu_b = lp.rs_index(paths[2], paths[3], grid=96)
        mu_sum = lp.rs_index(lp.direct_sum_path(paths[0], paths[2]),
                             lp.direct_sum_path(paths[1], paths[3]),
                             grid=128)
        good += mu_sum == mu_a + mu_b
        done += 1
    results["direct_sum"] = good == 50

    # naturality
    done = good = 0
    while done < 50:
        n = int(rng.integers(1, 3))
        F0 = random_path(rng, n, scale=1.3)
        F1 = random_path(rng, n, scale=0.8)
        Psi = random_symplectic(rng, n)
        good += (lp.rs_index(lp.transform_path(Psi, F0),
                             lp.transform_path(Psi, F1), grid=96)
                 == lp.rs_index(F0, F1, grid=96))
        done += 1
    results["naturality"] = good == 50

    # homotopy under endpoint-fixing perturbation
    done = good = 0
    while done < 50:
        n = int(rng.integers(1, 3))
        F0 = random_path(rng, n, scale=1.3)
        F1 = random_path(rng, n, scale=0.8)
        if (sl.intersection_dim(F0(0.0), F1(0.0), tol=1e-4) > 0
                or sl.intersection_dim(F0(1.0), F1(1.0), tol=1e-4) > 0):
            continue
        base = lp.rs_index(F0, F1, grid=96)
        stable = all(
            lp.rs_index(lp.perturb_path(F0, d, fix_endpoints=True), F1,
                        grid=96) == base
            for d in (1e-2, 5e-3, 2.5e-3))
        good += stable
        done += 1
    results["homotopy"] = good == 50

    ok = all(results.values())
    report(3, ok, f"RS axiom suite, 50 instances each: {results}")


def test_criterion_04_maslov_diagonal_loops():
    ok = True
    ref = sl.apply_matrix(random_symplectic(make_rng(104), 2), sl.horizontal(2))
    for w in range(-2, 3):
        loop = lp.diagonal_loop(
            lambda s, w=w: np.array([[np.exp(2j * np.pi * w * s)]]))
        got = lp.maslov_loop(loop, ref, grid=max(256, 128 * (abs(w) + 1)))
        ok = ok and got == 2 * w
    report(4, ok, "diagonal-type loops: Maslov = 2 x winding for w in -2..2")


def test_criterion_05_viterbo():
    from test_lagpath import (_random_viterbo_data, _reparam,
                              _shifted_random_path)
    rng = make_rng(105)
    c = lp.constant_lagrangian_path(sl.horizontal(1), -1.0, 1.0)
    cm = lp.constant_lagrangian_path(sl.horizontal(1), 0.0, 1.0)
    ok = lp.viterbo_index(c, c, cm, cm) == 0
    done = 0
    while done < 50:
        n = int(rng.integers(1, 3))
        F0a, F1a, Fma, Fpa = _random_viterbo_data(rng, n)
        if sl.intersection_dim(F0a.end, F1a.end, tol=1e-4) > 0:
            continue
        mua = lp.viterbo_index(F0a, F1a, Fma, Fpa, grid=96)
        dm = sl.intersection_dim(Fma.end, F1a.start, tol=1e-6)
        dp = sl.intersection_dim(Fpa.end, F1a.end, tol=1e-6)
        ok = ok and (2 * mua + dm + dp) % 2 == 0
        F0b = _shifted_random_path(rng, n, F0a.end)
        F1b = _shifted_random_path(rng, n, F1a.end)
        Fpb = lp.LagrangianPath(n=n, a=0.0, b=1.0,
                                stack=lambda ts, e=F0b.end, n=n:
                                sl.apply_matrix(sl.rotation(n, 0.4 * ts), e).frame)
        mub = lp.viterbo_index(F0b, F1b, Fpa, Fpb, grid=96)
        glued = lp.viterbo_index(lp.concatenate(F0a, _reparam(F0b, 1, 3)),
                                 lp.concatenate(F1a, _reparam(F1b, 1, 3)),
                                 Fma, Fpb, grid=192)
        ok = ok and glued == mua + mub
        done += 1
    report(5, ok, "Viterbo: concatenation additivity + half-integrality on "
                  "50 systems, clean strips give 0")


def test_criterion_06_spectral_sequence_engine():
    from test_specseq import _random_filtered_complex
    t0 = time.time()
    rng = make_rng(106)
    ok = True
    for _ in range(100):
        fc = _random_filtered_complex(rng)
        ok = ok and ss.first_page_check(fc)
        lmin, lmax = fc.level_range()
        pages = [ss.page(fc, r) for r in range(1, lmax - lmin + 2)]
        for pg, nxt in zip(pages, pages[1:]):
            for (p, q), e in pg.entries.items():
                out = pg.differentials.get((p, q))
                inn = pg.differentials.get((p + pg.r, q - pg.r + 1))
                k = e.dim - (gf2.rank(out) if out is not None else 0)
                im = gf2.rank(inn) if inn is not None else 0
                ok = ok and nxt.dim(p, q) == k - im
        final = pages[-1]
        ok = ok and not final.differentials
        by_degree = {}
        for (p, q), d in final.dims().items():
            by_degree[p + q] = by_degree.get(p + q, 0) + d
        ok = ok and by_degree == ss.homology_dims(fc)
        if not ok:
            break
    elapsed = time.time() - t0
    ok = ok and elapsed < 10.0
    report(6, ok, f"E^1 = graded homology, E^(r+1) = H(E^r), sum E^inf = "
                  f"dim H on 100 random complexes ({elapsed:.2f} s)")


def test_criterion_07_novikov_filtration():
    from test_specseq import _random_pearl_data
    rng = make_rng(107)
    ok = True
    for _ in range(10):
        N = int(rng.integers(2, 4))
        pd = _random_pearl_data(rng, N)
        C = ch.pearl_complex(pd)
        fc = ss.novikov_filtration(C, indexing="stretched")
        pages = ss.nontrivial_pages(fc, N, indexing="stretched")
        ok = ok and all(r % N == 0 for r in pages)
        p1 = ss.barcode(fc).page(1)
        per, checked = ss.lambda_periodic_dims(p1, N, indexing="stretched")
        ok = ok and per and len(checked) > 0
    report(7, ok, "Novikov pages lambda-periodic in the middle window; "
                  "nonzero d^r only for r in N Z")


def test_criterion_08_displaceability_corollary():
    v1 = ob.displaceable_constraints([1, 1], 2)
    ok = v1.kind == "ConsistentWithVanishing" and (0, 1) in v1.forced_isos
    v2 = ob.displaceable_constraints([1, 2, 1], 2)
    ok = ok and v2.kind == "MustIntersect"
    rng = make_rng(108)
    for _ in range(20):
        dim = int(rng.integers(0, 4))
        betti = [1] + [int(b) for b in rng.integers(0, 3, dim)]
        if dim:
            betti[-1] = 1
        N = dim + 2 + int(rng.integers(0, 3))
        v = ob.displaceable_constraints(betti, N)
        ok = ok and v.kind == "MustIntersect"
    report(8, ok, "(S^1, N=2) consistent with forced H0 = H1; (T^2, N=2) "
                  "must intersect; N > dim C + 1 must intersect")


def test_criterion_09_pozniak():
    ok = True
    cases = [([1], 2), ([1, 1], 3), ([1, 2, 1], 4), ([1, 0, 1], 7)]
    for betti, N in cases:
        ok = ok and ob.pozniak(betti, N) == {k: b for k, b in enumerate(betti)}
    report(9, ok, "Pozniak: HF betti = component betti when dim C + 1 < N")


def test_criterion_10_cp1_proposition():
    t0 = time.time()
    comps = [{"name": "C", "dim": None, "betti": None, "mu": 0,
              "action_rank": 1},
             {"name": "P", "dim": 0, "betti": [1], "mu": 2, "action_rank": 2}]
    res = ob.quantum_case_analysis(comps, N=4, period=2, max_rank=8, max_dim=1)
    elapsed = time.time() - t0
    ok = res.profiles == ((0, (1,)),) and elapsed < 30.0
    report(10, ok, f"CP^1 proposition: unique consistent profile = point "
                   f"({elapsed:.2f} s)")


def test_criterion_11_orientation_calculus():
    rng = make_rng(111)
    okc = 0
    count = 0
    while count < 200:
        dx, dy = (int(x) for x in rng.integers(1, 4, 2))
        m = dx + dy + int(rng.integers(0, 3))
        Mx = rng.standard_normal((m, dx))
        My = rng.standard_normal((m, dy))
        if np.linalg.matrix_rank(np.concatenate([Mx, My], 1)) < dx + dy:
            continue
        X = osn.BasedSpace.build(m, [tuple(Mx[:, j]) for j in range(dx)])
        Y = osn.BasedSpace.build(m, [tuple(My[:, j]) for j in range(dy)])
        s = osn.orientation_sign(osn.sum_orient(X, Y), osn.sum_orient(Y, X))
        okc += s == (-1) ** (dx * dy)
        count += 1

    from test_orsign import rand_space
    # associativity, 100 transverse triples
    oka = 0
    trials = attempts = 0
    while trials < 100 and attempts < 5000:
        attempts += 1
        m0, m01, m1 = (int(x) for x in rng.integers(1, 4, 3))
        z0m, z1m = (int(x) for x in rng.integers(1, 3, 2))
        X0, X01, X1 = (rand_space(rng, m, m) for m in (m0, m01, m1))
        Z0, Z1 = rand_space(rng, z0m, z0m), rand_space(rng, z1m, z1m)
        phi0 = rng.standard_normal((z0m, m0))
        psi0 = rng.standard_normal((z0m, m01))
        psi1 = rng.standard_normal((z1m, m01))
        phi1 = rng.standard_normal((z1m, m1))
        try:
            inner = osn.fibre_orient(X01, X1, Z1, psi1, phi1)
            if inner.dim == 0:
                continue
            lhs = osn.fibre_orient(
                X0, inner, Z0, phi0,
                np.concatenate([psi0, np.zeros((z0m, m1))], axis=1))
            inner2 = osn.fibre_orient(X0, X01, Z0, phi0, psi0)
            if inner2.dim == 0:
                continue
            rhs = osn.fibre_orient(
                inner2, X1, Z1,
                np.concatenate([np.zeros((z1m, m0)), psi1], axis=1), phi1)
        except Exception:
            continue
        if lhs.dim != rhs.dim:
            continue
        trials += 1
        same = (lhs.sign * rhs.sign == 1) if lhs.dim == 0 else \
            osn.orientation_sign(lhs, rhs) == 1
        oka += same

    # cap compatibility, 50 instances
    okk = 0
    trials2 = 0
    while trials2 < 50:
        m = int(rng.integers(2, 5))
        Zs = rand_space(rng, m, m)
        dx = int(rng.integers(1, m + 1))
        dy = int(rng.integers(max(1, m - dx), m + 1))
        if dx + dy - m < 0:
            continue
        X = rand_space(rng, m, dx)
        Y = rand_space(rng, m, dy)
        if np.linalg.matrix_rank(np.concatenate([X.matrix(), Y.matrix()], 1),
                                 tol=1e-9) < m:
            continue
        trials2 += 1
        W = osn.fibre_orient(X, Y, Zs, np.eye(m), np.eye(m))
        cap = osn.cap_orient(X, Y, Zs)
        if W.dim == 0:
            okk += W.sign * cap.sign == 1
        else:
            P = W.matrix()[:m, :]
            Wproj = osn.BasedSpace(
                m, tuple(tuple(P[:, j]) for j in range(P.shape[1])), W.sign)
            okk += osn.orientation_sign(Wproj, cap) == 1

    ok = okc == 200 and oka == 100 and okk == 50
    report(11, ok, f"orientation calculus: commute {okc}/200, "
                   f"associativity {oka}/100, cap {okk}/50")


def test_criterion_12_morse_module():
    circle = ch.MorseData.build([("min", 0), ("max", 1)],
                                [("max", "min", 1), ("max", "min", -1)])
    repZ = homology(ch.morse_complex(circle, Z))["by_degree"]
    ok = (repZ[0] == {"free_rank": 1, "torsion": []}
          and repZ[2] == {"free_rank": 1, "torsion": []})
    repZ2 = homology(ch.morse_complex(circle, Z2))["by_degree"]
    ok = ok and repZ2[0]["betti"] == 1 and repZ2[2]["betti"] == 1
    twisted = ch.MorseData.build(
        [("min", 0), ("max", 1)],
        [("max", "min", 1, "t1"), ("max", "min", -1, "t2")],
        local_system={"t1": [[1]], "t2": [[-1]]})
    repT = homology(ch.morse_complex(twisted, Z))["by_degree"]
    ok = ok and repT[0] == {"free_rank": 0, "torsion": [2]}
    ok = ok and repT[2] == {"free_rank": 0, "torsion": []}
    from floerss.novikov import GradedFreeComplex, verify_complex
    broken = GradedFreeComplex.build(
        Z2, [("a", 0), ("b", 1), ("c", 2)], {2: {1: 1}, 1: {0: 1}},
        check=False, require_graded=False)
    good, cert = verify_complex(broken)
    ok = ok and not good and cert == (0, 2)
    report(12, ok, "Morse: circle (Z, Z) / (Z2, Z2), twisted (Z/2, 0), "
                   "d^2 gate with located certificate")


def test_criterion_13_fredholm_glued_vs_broken():
    from test_spectrum import test_glued_vs_broken_index
    test_glued_vs_broken_index()
    report(13, True, "glued index = broken sum - middle kernel on 20 "
                     "randomized compatible inputs")
