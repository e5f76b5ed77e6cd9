import subprocess
import sys

import numpy as np
import pytest

from floerss import chain as ch
from floerss import gf2
from floerss import specseq as ss
from floerss.novikov import GradedFreeComplex, LaurentPoly as LP, Z2, L2, homology
from floerss.errors import FiltrationViolated, NotAComplex, WindowTooNarrow

from conftest import make_rng


def two_step_acyclic():
    return ss.FilteredComplex.build(degrees=[1, 0], levels=[1, 0],
                                    boundary=gf2.asgf2([[0, 0], [1, 0]]))


def test_trivial_filtration_first_page_is_homology():
    fc = ss.FilteredComplex.build(degrees=[0, 1, 1, 2], levels=[0, 0, 0, 0],
                                  boundary=gf2.asgf2([[0, 1, 0, 0], [0, 0, 0, 0],
                                                      [0, 0, 0, 0], [0, 0, 0, 0]]))
    p1 = ss.page(fc, 1)
    H = ss.homology_dims(fc)
    assert {q: d for (p, q), d in p1.dims().items()} == H
    assert not p1.differentials
    final, collapse_r, ok = ss.e_infinity(fc)
    assert collapse_r == 1 and ok


def test_two_step_acyclic_pages():
    fc = two_step_acyclic()
    p1 = ss.page(fc, 1)
    assert p1.dims() == {(0, 0): 1, (1, 0): 1}
    assert list(p1.differentials) == [(1, 0)]
    assert ss.page(fc, 2).dims() == {}
    assert ss.first_page_check(fc)
    final, collapse_r, ok = ss.e_infinity(fc)
    assert final.dims() == {} and collapse_r == 2 and ok


def _random_filtered_complex(rng, dim=12, max_level=3, max_deg=4):
    """Pairs + singles in random degrees/levels, mixed by a random
    filtration-respecting change of basis."""
    degrees, levels = [], []
    pairs = []
    while len(degrees) < dim:
        d = int(rng.integers(0, max_deg))
        if rng.uniform() < 0.6 and len(degrees) + 2 <= dim:
            le = int(rng.integers(0, max_level + 1))
            lf = int(rng.integers(0, le + 1))
            i = len(degrees)
            degrees += [d + 1, d]
            levels += [le, lf]
            pairs.append((i, i + 1))
        else:
            degrees.append(d)
            levels.append(int(rng.integers(0, max_level + 1)))
    n = len(degrees)
    D = np.zeros((n, n), dtype=np.uint8)
    for e, f in pairs:
        D[f, e] = 1
    # random filtration-compatible transform: x_j += x_i with equal degree,
    # level_i <= level_j
    T = np.eye(n, dtype=np.uint8)
    for _ in range(3 * n):
        i, j = rng.integers(0, n, 2)
        if i != j and degrees[i] == degrees[j] and levels[i] <= levels[j]:
            T[:, j] ^= T[:, i]
    Tinv = _gf2_inverse(T)
    D2 = gf2.asgf2(Tinv @ D @ T)
    return ss.FilteredComplex.build(degrees, levels, D2)


def _gf2_inverse(T):
    n = T.shape[0]
    X = gf2.solve(gf2.asgf2(T), [1 << k for k in range(n)])
    return np.array([[x >> i & 1 for x in X] for i in range(n)], dtype=np.uint8)


def test_random_filtered_complexes_against_oracle():
    rng = make_rng(61)
    for trial in range(100):
        fc = _random_filtered_complex(rng)
        assert ss.first_page_check(fc)
        lmin, lmax = fc.level_range()
        for r in range(1, lmax - lmin + 2):
            pg = ss.page(fc, r)
            assert ss.check_page_squares_to_zero(pg)
            assert ss.check_next_page_dims(fc, pg)
        final, collapse_r, ok = ss.e_infinity(fc)
        assert ok
        H = ss.homology_dims(fc)
        einf_by_degree = {}
        for (p, q), d in final.dims().items():
            einf_by_degree[p + q] = einf_by_degree.get(p + q, 0) + d
        assert einf_by_degree == H


# -- Novikov filtration --------------------------------------------------------------


def _single_circle_pearl(N=2):
    ctx = ch.MonotoneContext(tau=1.0, N=N)
    circle = ch.MorseData.build([("S:0", 0), ("S:1", 1)],
                                [("S:1", "S:0", 1), ("S:1", "S:0", -1)])
    comp = ch.ComponentDatum.build("S", 1, 0.0, 0, [1, 1], morse=circle)
    return ch.pearl_complex(ch.PearlData.build(ctx, [comp], []))


def test_novikov_single_component_periodic_tower():
    C = _single_circle_pearl()
    fc = ss.novikov_filtration(C, indexing="plain")
    p1 = ss.page(fc, 1)
    ok, checked = ss.lambda_periodic_dims(p1, C.N, indexing="plain")
    assert ok and checked
    # E^1 row = betti tensor lambda-tower: every middle entry has dim 1
    dims = p1.dims()
    assert set(dims.values()) == {1}
    final, collapse_r, ok = ss.e_infinity(fc)
    assert ok and collapse_r == 1


def test_novikov_two_point_acyclic_differential_at_N():
    ctx = ch.MonotoneContext(tau=1.5, N=2)
    p = ch.ComponentDatum.build("A", 0, 0.0, 0, [1])
    q = ch.ComponentDatum.build("C", 0, 0.4, 2, [1])
    pd = ch.PearlData.build(ctx, [p, q], [("A:0.0", "C:0.0", 1, 3, 2.6)],
                            normalize=False)
    C = ch.pearl_complex(pd)
    fc = ss.novikov_filtration(C, indexing="stretched")
    assert ss.nontrivial_pages(fc, C.N, indexing="stretched") == [C.N]
    # E^{N+1} vanishes in the middle window
    pg = ss.page(fc, C.N + 1)
    dims = pg.dims()
    if dims:
        ps = sorted(p for p, _ in dims)
        lo, hi = ps[0], ps[-1]
        for (p_, q_), d in dims.items():
            assert p_ <= lo + C.N or p_ >= hi - C.N   # edge artifacts only


def test_novikov_random_pearls_differentials_in_NZ():
    rng = make_rng(62)
    for trial in range(8):
        N = int(rng.integers(2, 4))
        pd = _random_pearl_data(rng, N)
        C = ch.pearl_complex(pd)
        fc = ss.novikov_filtration(C, indexing="stretched")
        pages = ss.nontrivial_pages(fc, N, indexing="stretched")
        assert all(r % N == 0 for r in pages), (pages, N)
        p1 = ss.barcode(fc).page(1)
        ok, _ = ss.lambda_periodic_dims(p1, N, indexing="stretched")
        assert ok


def _random_pearl_data(rng, N, max_points=4):
    """Random valid pearl data: point components on a degree ladder with
    cascades of admissible lambda exponents.

    Cascades run only from the first half of the components to the second,
    so there are no two-step paths and d . d = 0 holds structurally.
    """
    tau = float(rng.uniform(0.5, 2.0))
    ctx = ch.MonotoneContext(tau=tau, N=N)
    k = int(rng.integers(2, max_points + 1))
    comps = []
    degs = []
    actions = []
    for i in range(k):
        d2 = int(2 * rng.integers(-2, 3))
        a = float(rng.uniform(0, tau * N * 0.9)) if i else 0.0
        d2 = d2 if i else 0
        comps.append(ch.ComponentDatum.build(f"P{i}", 0, a, d2, [1]))
        degs.append(d2)
        actions.append(a)
    half = max(1, k // 2)
    cascades = []
    for i in range(half):
        for j in range(half, k):
            if rng.uniform() < 0.4:
                continue
            ell2 = degs[j] - degs[i] + 2
            if ell2 % (2 * N) != 0:
                continue
            ell = ell2 // (2 * N)
            if ell < 0:
                continue
            area = tau * ell * N + actions[i] - actions[j]
            if area <= 1e-9:
                continue
            mu2 = 2 * ell * N + (-(degs[i])) - (-(degs[j]))
            cascades.append((f"P{i}:0.0", f"P{j}:0.0", 1, mu2 / 2, area))
    return ch.PearlData.build(ctx, comps, cascades, normalize=False)


def test_novikov_boundedness_formula_and_window_guard():
    C = _single_circle_pearl()
    fc = ss.novikov_filtration(C)   # formula checked inside
    assert fc.size > 0
    with pytest.raises(WindowTooNarrow):
        ss.novikov_filtration(C, window=(-1, 1))


# -- action filtration ------------------------------------------------------------------


def test_action_equal_values_collapse_at_one():
    ctx = ch.MonotoneContext(tau=1.0, N=3)
    circle = ch.MorseData.build([("S:0", 0), ("S:1", 1)],
                                [("S:1", "S:0", 1), ("S:1", "S:0", -1)])
    s1 = ch.ComponentDatum.build("S", 1, 0.0, 0, [1, 1], morse=circle)
    pt = ch.ComponentDatum.build("P", 0, 0.0, 4, [1])
    pd = ch.PearlData.build(ctx, [s1, pt], [])
    L = ch.local_pearl_complex(pd)
    fc = ss.action_filtration(L, pd)
    p1 = ss.page(fc, 1)
    assert p1.dims() == ss.action_first_page_reference(pd)
    final, collapse_r, ok = ss.e_infinity(fc)
    assert collapse_r == 1 and ok


def test_action_point_plus_circle_rank_one_differential():
    ctx = ch.MonotoneContext(tau=1.5, N=2)
    circle = ch.MorseData.build([("S:0", 0), ("S:1", 1)],
                                [("S:1", "S:0", 1), ("S:1", "S:0", -1)])
    s1 = ch.ComponentDatum.build("S", 1, 0.0, 0, [1, 1], morse=circle)
    pt = ch.ComponentDatum.build("P", 0, 0.7, 4, [1])
    pd = ch.PearlData.build(ctx, [s1, pt], [("P:0.0", "S:1", 1, -1.5, 0.7)],
                            normalize=False)
    L = ch.local_pearl_complex(pd)
    fc = ss.action_filtration(L, pd)
    p1 = ss.page(fc, 1)
    assert p1.dims() == ss.action_first_page_reference(pd)
    diffs = p1.differentials
    assert len(diffs) == 1 and gf2.rank(list(diffs.values())[0]) == 1
    final, _, ok = ss.e_infinity(fc)
    assert ok
    total = sum(final.dims().values())
    assert total == sum(ss.homology_dims(fc).values())


def test_action_single_component_trivial_filtration():
    ctx = ch.MonotoneContext(tau=1.0, N=3)
    circle = ch.MorseData.build([("S:0", 0), ("S:1", 1)],
                                [("S:1", "S:0", 1), ("S:1", "S:0", -1)])
    s1 = ch.ComponentDatum.build("S", 1, 0.0, 0, [1, 1], morse=circle)
    pd = ch.PearlData.build(ctx, [s1], [])
    L = ch.local_pearl_complex(pd)
    fc = ss.action_filtration(L, pd)
    final, collapse_r, ok = ss.e_infinity(fc)
    assert ok and collapse_r == 1
    by_deg = {}
    for (p, q), d in final.dims().items():
        by_deg[p + q] = by_deg.get(p + q, 0) + d
    assert by_deg == {0: 1, 1: 1}


def test_filtration_violation_guard():
    with pytest.raises(FiltrationViolated):
        ss.FilteredComplex.build(degrees=[1, 0], levels=[0, 1],
                                 boundary=gf2.asgf2([[0, 0], [1, 0]]))


def test_build_reports_the_first_offending_entry_column_major():
    with pytest.raises(NotAComplex) as exc:
        ss.FilteredComplex.build(degrees=[0, 0], levels=[0, 0],
                                 boundary=gf2.asgf2([[0, 1], [0, 0]]))
    assert str(exc.value) == "boundary entry 0<-1 changes degree by 0"
    # entries 1<-0 and 0<-2 both raise the level (d . d = 0 through e3);
    # column 0 comes first although row 0 would in row-major order
    D = np.zeros((4, 4), dtype=np.uint8)
    D[1, 0] = D[0, 2] = D[3, 2] = D[1, 3] = 1
    with pytest.raises(FiltrationViolated) as exc:
        ss.FilteredComplex.build(degrees=[1, 0, 2, 1], levels=[0, 1, -1, 1],
                                 boundary=gf2.asgf2(D))
    assert str(exc.value) == ("boundary entry 1<-0 raises the filtration "
                              "level 0 -> 1")
    # a degree change in an earlier column wins over a later level raise
    with pytest.raises(NotAComplex) as exc:
        ss.FilteredComplex.build(degrees=[1, 1, 1, 0], levels=[0, 0, 0, 1],
                                 boundary=gf2.asgf2([[0, 0, 0, 0], [1, 0, 0, 0],
                                                     [0, 0, 0, 0], [0, 0, 1, 0]]))
    assert str(exc.value) == "boundary entry 1<-0 changes degree by 0"


# -- persistence pairs against the literal engine ------------------------------------


def _literal_nontrivial_pages(pages, N, indexing, margin=1):
    """nontrivial_pages' window-margin rule applied to literal pages."""
    pad = margin * (N if indexing == "stretched" else 1)
    out = []
    for pg in pages:
        dims = pg.dims()
        if not dims:
            continue
        ps = sorted({p for p, _ in dims})
        lo, hi = ps[0], ps[-1]
        if any(lo + pad < p < hi - pad and lo + pad < p - pg.r < hi - pad
               for p, _ in pg.differentials):
            out.append(pg.r)
    return out


def _assert_barcode_matches_literal(fc, N=1, indexing="plain"):
    lmin, lmax = fc.level_range()
    spread = lmax - lmin + 1
    bc = ss.barcode(fc)
    pages = [ss.page(fc, r) for r in range(1, spread + 2)]
    for pg in pages:
        assert bc.page(pg.r).dims() == pg.dims(), pg.r
        assert bc.differentials(pg.r) == set(pg.differentials), pg.r
    assert not pages[-1].differentials
    final, collapse_r, ok = ss.e_infinity(fc)
    assert ok
    assert final.dims() == pages[-1].dims()
    assert collapse_r == max([pg.r + 1 for pg in pages if pg.differentials],
                             default=1)
    assert ss.nontrivial_pages(fc, N, indexing) == \
        _literal_nontrivial_pages(pages[:-1], N, indexing)


def test_barcode_matches_literal_pages_on_random_complexes():
    rng = make_rng(63)
    for _ in range(100):
        _assert_barcode_matches_literal(_random_filtered_complex(rng))


def test_barcode_matches_literal_pages_on_pearl_filtrations():
    rng = make_rng(64)
    for _ in range(10):
        N = int(rng.integers(2, 4))
        pd = _random_pearl_data(rng, N)
        C = ch.pearl_complex(pd)
        for indexing in ("plain", "stretched"):
            fc = ss.novikov_filtration(C, indexing=indexing)
            _assert_barcode_matches_literal(fc, N, indexing)
        L = ch.local_pearl_complex(pd)
        _assert_barcode_matches_literal(ss.action_filtration(L, pd))


def test_lambda_periodicity_of_barcode_and_literal_pages_agree():
    rng = make_rng(64)
    for _ in range(10):
        N = int(rng.integers(2, 4))
        C = ch.pearl_complex(_random_pearl_data(rng, N))
        for indexing in ("plain", "stretched"):
            fc = ss.novikov_filtration(C, indexing=indexing)
            bc = ss.barcode(fc)
            for r in (1, N + 1):
                literal = ss.page(fc, r)
                assert bc.page(r).support == literal.support
                want = ss.lambda_periodic_dims(literal, N, indexing)
                assert ss.lambda_periodic_dims(bc.page(r), N, indexing) == want
                assert want[1] or r > 1


def test_lambda_periodicity_checks_what_the_support_holds():
    # plain indexing, N = 2: lambda moves (p, q) to (p - 1, q - 1)
    table = {(p, 0): 1 for p in range(-3, 4)}
    support = frozenset(table) | {(p, -1) for p in range(-3, 4)}
    ok, checked = ss.lambda_periodic_dims(ss.PageDims(1, table, support), 2)
    assert not ok
    assert checked == [((p, 0), (p - 1, -1), 1, 0) for p in (-1, 0, 1)]
    assert ss.lambda_periodic_dims(ss.PageDims(1, table, frozenset(table)), 2) \
        == (True, [])


def test_convergence_check_refuses_an_entry_off_by_one():
    rng = make_rng(65)
    for _ in range(20):
        fc = _random_filtered_complex(rng)
        final, _, ok = ss.e_infinity(fc)
        assert ok
        dims = final.dims()
        key = sorted(dims)[0]
        for delta in (1, -1):
            wrong = dict(dims)
            wrong[key] += delta
            wrong = {k: v for k, v in wrong.items() if v}
            assert not ss.check_convergence(fc, ss.PageDims(final.r, wrong, final.support))
        lmin, _ = fc.level_range()
        extra = dict(dims)
        extra[(lmin - 1, 0)] = 1
        assert not ss.check_convergence(fc, ss.PageDims(final.r, extra, final.support))


def test_fast_paths_build_no_literal_page(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("literal page engine called")

    rng = make_rng(66)
    fcs = [_random_filtered_complex(rng) for _ in range(3)]
    C = ch.pearl_complex(_random_pearl_data(rng, 2))
    fcs.append(ss.novikov_filtration(C, indexing="stretched"))
    monkeypatch.setattr(ss, "page", refuse)
    monkeypatch.setattr(ss, "_z_space", refuse)
    for fc in fcs:
        assert ss.e_infinity(fc)[2]
        ss.nontrivial_pages(fc, 2)


def test_exact_layer_imports_no_numpy():
    # gf2, novikov and specseq keep Z2 matrices as Python-int columns: a
    # fresh process that computes pages and Z2 homology never loads numpy
    code = """if True:
        import sys
        from floerss import gf2, novikov, specseq as ss
        fc = ss.FilteredComplex.build([1, 0, 1], [1, 0, 0],
                                      gf2.asgf2([[0, 0, 0], [1, 0, 0], [0, 0, 0]]))
        assert ss.barcode(fc).page(1).dims() == {(0, 0): 1, (1, 0): 1, (0, 1): 1}
        assert ss.e_infinity(fc)[1:] == (2, True)
        C = novikov.GradedFreeComplex.build("Z2", [("a", 2), ("b", 0)], {0: {1: 1}})
        assert novikov.homology(C)["by_degree"] == {0: {"betti": 0}, 2: {"betti": 0}}
        print("numpy" in sys.modules)
    """
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


# -- valuation structure -------------------------------------------------------------------


def test_valuation_structure_single_component():
    C = _single_circle_pearl()
    rep = ss.valuation_structure(C)
    assert rep["torsion"] == [] and rep["free_rank"] == 2
    assert rep["tensor_form"]["rank_matches"]


def test_valuation_structure_acyclic():
    ctx = ch.MonotoneContext(tau=1.5, N=2)
    p = ch.ComponentDatum.build("A", 0, 0.5, 0, [1])
    q = ch.ComponentDatum.build("B", 0, 0.2, -2, [1])
    pd = ch.PearlData.build(ctx, [p, q], [("A:0.0", "B:0.0", 1, -1, 0.3)],
                            normalize=False)
    rep = ss.valuation_structure(ch.pearl_complex(pd))
    assert rep["free_rank"] == 0 and rep["torsion"] == []


def test_valuation_structure_torsion_notice():
    C = GradedFreeComplex.build(L2, [("b", 0), ("a", 2)],
                                {1: {0: {0: 1, 1: 1}}}, N=2,
                                require_graded=False)
    rep = ss.valuation_structure(C)
    assert rep["torsion"] == ["1 + l"]
    assert rep["tensor_form"] is None and "skipped" in rep["notice"]
