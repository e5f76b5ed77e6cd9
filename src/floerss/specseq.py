"""Spectral sequences of bounded increasing filtrations over Z2, and the two
concrete filtrations of pearl complexes: Novikov degree and action values.

Pages come from persistence pairs.  ``barcode`` reduces the boundary
columns once in filtration order (Zomorodian-Carlsson) and pairs each
nonzero reduced column tau with its lowest entry sigma = low(tau).  A pair
of length L = level(tau) - level(sigma) >= 1 lives on E^1..E^L, where d^L
is nonzero at the bidegree of tau; unpaired generators live on every page
and make up E^infinity.  ``check_convergence`` compares E^infinity with the
graded pieces of the filtered homology F^p H by ranks alone.

The literal subspace computation is kept as the oracle of the tests and for
explicit differential matrices:

  Z^r_{p,q} = F^p C_{p+q}  /\\  d^{-1} F^{p-r} C_{p+q-1}
  B^{r-1}_{p,q} = F^p C_{p+q} /\\ d F^{p+r-1} C_{p+q+1} = d Z^{r-1}_{p+r-1,q-r+2}
  E^r_{p,q} = Z^r_{p,q} / (Z^{r-1}_{p-1,q+1} + B^{r-1}_{p,q})

with differentials of bidegree (-r, r-1) represented on chosen section bases.

Novikov filtrations live on the lambda-window truncation of a pearl complex
(``novikov.truncate_to_window``) and come in two indexings: "plain"
(level = -l, the paper's F^k = <p l^l : l >= -k>, lambda-periodicity
E^r_{p,q} = E^r_{p-1,q-N+1}) and "stretched" (level = -l N, the
degree-aware reindexing in which the only possibly nonzero differentials
sit on pages r in N Z).
"""

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import (DimensionMismatch, FiltrationViolated, NotAComplex,
                     WindowTooNarrow)
from . import gf2
from .novikov import L2, Z2, default_window, truncate_to_window


# -- filtered complexes ---------------------------------------------------------


@dataclass(frozen=True)
class FilteredComplex:
    """Finite-dimensional Z2 complex with an increasing bounded filtration.

    Basis vectors carry a total degree (integer) and a filtration level
    (integer); d must not raise the level.
    """

    degrees: tuple       # degree per basis vector
    levels: tuple        # filtration level per basis vector
    boundary: np.ndarray = field(repr=False)  # dense GF(2), d[i,j]: j -> i
    names: tuple = None

    @staticmethod
    def build(degrees, levels, boundary, names=None):
        degrees = tuple(int(d) for d in degrees)
        levels = tuple(int(l) for l in levels)
        D = gf2.asgf2(boundary)
        n = len(degrees)
        if D.shape != (n, n) or len(levels) != n:
            raise DimensionMismatch("boundary shape does not match basis data")
        if np.any(gf2.asgf2(D @ D)):
            raise NotAComplex("d . d != 0 for the filtered complex")
        # entries in column-major order, so the first offence is reported
        cols, rows = np.nonzero(D.T)
        deg = np.array(degrees, dtype=np.int64)
        lev = np.array(levels, dtype=np.int64)
        bad_deg = deg[rows] != deg[cols] - 1
        bad = bad_deg | (lev[rows] > lev[cols])
        if bad.any():
            k = int(np.argmax(bad))
            i, j = int(rows[k]), int(cols[k])
            if bad_deg[k]:
                raise NotAComplex(
                    f"boundary entry {i}<-{j} changes degree by "
                    f"{degrees[i] - degrees[j]}")
            raise FiltrationViolated(
                f"boundary entry {i}<-{j} raises the filtration "
                f"level {levels[j]} -> {levels[i]}")
        if names is None:
            names = tuple(f"e{k}" for k in range(n))
        return FilteredComplex(degrees=degrees, levels=levels, boundary=D,
                               names=tuple(names))

    @property
    def size(self):
        return len(self.degrees)

    def degree_indices(self, m):
        return [i for i, d in enumerate(self.degrees) if d == m]

    def filtration_basis(self, p, m):
        """Basis (as index list) of F^p C_m."""
        return [i for i, (d, l) in enumerate(zip(self.degrees, self.levels))
                if d == m and l <= p]

    def level_range(self):
        return (min(self.levels), max(self.levels)) if self.levels else (0, 0)


def _embed(fc, indices):
    out = np.zeros((fc.size, len(indices)), dtype=np.uint8)
    for k, i in enumerate(indices):
        out[i, k] = 1
    return out


def _z_space(fc, p, q, r):
    """Basis matrix of Z^r_{p,q} in ambient coordinates."""
    m = p + q
    Fpm = fc.filtration_basis(p, m)
    if not Fpm:
        return np.zeros((fc.size, 0), dtype=np.uint8)
    cols = _embed(fc, Fpm)
    img = gf2.asgf2(fc.boundary @ cols)
    # rows of C_{m-1} outside F^{p-r}
    bad_rows = [i for i in fc.degree_indices(m - 1) if fc.levels[i] > p - r]
    if not bad_rows:
        return cols
    sub = img[bad_rows, :]
    ker = gf2.kernel(sub)
    return gf2.asgf2(cols @ ker)


@dataclass(frozen=True)
class PageEntry:
    dim: int
    section: np.ndarray = field(repr=False)      # representatives, ambient coords
    denominator: np.ndarray = field(repr=False)  # basis of the collapsed subspace


@dataclass(frozen=True)
class SpectralPage:
    r: int
    entries: dict                 # (p, q) -> PageEntry
    differentials: dict           # (p, q) -> GF(2) matrix E^r_{p,q} -> E^r_{p-r,q+r-1}

    def dims(self):
        return {pq: e.dim for pq, e in self.entries.items() if e.dim > 0}

    def dim(self, p, q):
        e = self.entries.get((p, q))
        return e.dim if e else 0

    @property
    def support(self):
        return frozenset(self.entries)


def _bidegrees(fc):
    """Every (p, q) with p in the level range and p + q a generator degree:
    the bidegrees on which the pages are defined."""
    lmin, lmax = fc.level_range()
    return sorted((p, m - p) for m in set(fc.degrees)
                  for p in range(lmin, lmax + 1))


def page(fc, r):
    """The r-th page with its differentials, by literal subspace computation."""
    if r < 1:
        raise DimensionMismatch("pages are defined for r >= 1")
    entries = {}
    sections = {}
    for (p, q) in _bidegrees(fc):
        Zr = _z_space(fc, p, q, r)
        Zprev = _z_space(fc, p - 1, q + 1, r - 1)
        Bprev = gf2.asgf2(fc.boundary @ _z_space(fc, p + r - 1, q - r + 2, r - 1))
        denom = gf2.sum_basis(Zprev, Bprev)
        if denom.size:
            # denominators are contained in Z^r; quotient dimension by rank
            sect = gf2.complement_in(denom, Zr)
        else:
            sect = gf2.column_space(Zr)
        dim = sect.shape[1]
        entries[(p, q)] = PageEntry(dim=dim, section=sect, denominator=denom)
        sections[(p, q)] = (sect, denom)
    diffs = {}
    for (p, q), e in entries.items():
        if e.dim == 0:
            continue
        tgt = entries.get((p - r, q + r - 1))
        if tgt is None or tgt.dim == 0:
            continue
        img = gf2.asgf2(fc.boundary @ e.section)
        try:
            coords = gf2.coordinates_mod(tgt.section, tgt.denominator, img)
        except ValueError as exc:
            raise NotAComplex(
                f"differential at {(p, q)} leaves the target page space: {exc}")
        if np.any(coords):
            diffs[(p, q)] = coords
    return SpectralPage(r=r, entries=entries, differentials=diffs)


def check_page_squares_to_zero(pg):
    for (p, q), M in pg.differentials.items():
        M2 = pg.differentials.get((p - pg.r, q + pg.r - 1))
        if M2 is not None and np.any(gf2.asgf2(M2 @ M)):
            return False
    return True


def check_next_page_dims(fc, pg):
    """Property (a): dims E^{r+1} = dim ker d^r - rank(d^r into the entry)."""
    nxt = page(fc, pg.r + 1)
    for (p, q), e in pg.entries.items():
        M_out = pg.differentials.get((p, q))
        M_in = pg.differentials.get((p + pg.r, q - pg.r + 1))
        k = e.dim - (gf2.rank(M_out) if M_out is not None else 0)
        im = gf2.rank(M_in) if M_in is not None else 0
        if nxt.dim(p, q) != k - im:
            return False
    return True


def homology_dims(fc):
    """Brute-force Z2 homology dimensions per total degree (the oracle)."""
    out = {}
    degs = sorted(set(fc.degrees))
    for m in degs:
        cm = fc.degree_indices(m)
        if not cm:
            continue
        cols = _embed(fc, cm)
        dm = gf2.asgf2(fc.boundary @ cols)
        rk_out = gf2.rank(dm)
        up = fc.degree_indices(m + 1)
        rk_in = 0
        if up:
            dup = gf2.asgf2(fc.boundary @ _embed(fc, up))
            rk_in = gf2.rank(dup)
        out[m] = len(cm) - rk_out - rk_in
    return {m: d for m, d in out.items() if d}


def first_page_check(fc):
    """Property (b): E^1_{p,q} = H_{p+q} of the associated graded complex."""
    pg = page(fc, 1)
    lmin, lmax = fc.level_range()
    for p in range(lmin, lmax + 1):
        idx = [i for i in range(fc.size) if fc.levels[i] == p]
        if not idx:
            continue
        pos = {i: k for k, i in enumerate(idx)}
        D = np.zeros((len(idx), len(idx)), dtype=np.uint8)
        for j in idx:
            for i in range(fc.size):
                if fc.boundary[i, j] and fc.levels[i] == p:
                    D[pos[i], pos[j]] = 1
        # homology of the graded piece per degree
        for m in sorted({fc.degrees[i] for i in idx}):
            cm = [pos[i] for i in idx if fc.degrees[i] == m]
            up = [pos[i] for i in idx if fc.degrees[i] == m + 1]
            sub = D[:, cm]
            rk_out = gf2.rank(sub[[pos[i] for i in idx
                                   if fc.degrees[i] == m - 1], :]) if cm else 0
            rk_in = 0
            if up:
                rk_in = gf2.rank(D[[pos[i] for i in idx
                                    if fc.degrees[i] == m], :][:, up])
            h = len(cm) - rk_out - rk_in
            if pg.dim(p, m - p) != h:
                return False
    return True


# -- persistence pairs -------------------------------------------------------------


@dataclass(frozen=True)
class PageDims:
    """Nonzero dimensions of one page, without sections or differentials;
    ``support`` holds the bidegrees on which the page is defined."""
    r: int
    table: dict                   # (p, q) -> dim > 0
    support: frozenset

    def dims(self):
        return dict(self.table)

    def dim(self, p, q):
        return self.table.get((p, q), 0)


@dataclass(frozen=True)
class Barcode:
    """Persistence pairs of a filtered complex, by bidegree (p, q).

    bars: (length, bidegree of sigma, bidegree of tau) for each pair with
    length level(tau) - level(sigma) >= 1 (pairs inside one level are on no
    page); essential: the bidegree of each unpaired generator; support: the
    bidegrees on which the pages are defined.
    """
    bars: tuple
    essential: tuple
    support: frozenset

    def page(self, r):
        """Dimensions of E^r: the unpaired generators plus both ends of
        every pair of length >= r."""
        if r < 1:
            raise DimensionMismatch("pages are defined for r >= 1")
        table = Counter(self.essential)
        for length, s, t in self.bars:
            if length >= r:
                table[s] += 1
                table[t] += 1
        return PageDims(r=r, table=dict(table), support=self.support)

    @property
    def collapse_r(self):
        """The first page equal to E^infinity."""
        return max((length for length, _, _ in self.bars), default=0) + 1

    def infinity(self):
        return PageDims(r=self.collapse_r, table=dict(Counter(self.essential)),
                        support=self.support)

    def differentials(self, r):
        """Bidegrees (p, q) at which d^r is nonzero."""
        return {t for length, _, t in self.bars if length == r}


def barcode(fc):
    """Persistence pairs by one column reduction in filtration order.

    The basis is sorted by (level, index); each column is a Python-int
    bitset over those positions and is reduced by the earlier columns
    sharing its lowest entry until it is zero or opens a new pivot."""
    order = sorted(range(fc.size), key=lambda i: (fc.levels[i], i))
    pos = {i: k for k, i in enumerate(order)}
    cols = [0] * fc.size
    for i, j in zip(*np.nonzero(fc.boundary)):
        cols[pos[j]] |= 1 << pos[i]
    pivots = {}
    paired = set()
    bars = []

    def bideg(i):
        return (fc.levels[i], fc.degrees[i] - fc.levels[i])

    for k, col in enumerate(cols):
        while col:
            low = col.bit_length() - 1
            if low not in pivots:
                pivots[low] = col
                sigma, tau = order[low], order[k]
                paired.update((sigma, tau))
                length = fc.levels[tau] - fc.levels[sigma]
                if length:
                    bars.append((length, bideg(sigma), bideg(tau)))
                break
            col ^= pivots[low]
    essential = tuple(bideg(i) for i in range(fc.size) if i not in paired)
    return Barcode(bars=tuple(bars), essential=essential,
                   support=frozenset(_bidegrees(fc)))


def check_convergence(fc, final):
    """Property (c), E^infinity_{p,q} = F^p H_{p+q} / F^{p-1} H_{p+q}, by
    ranks alone:

      dim F^p H_m = |F^p C_m| - rank(d on F^p C_m) - rank d_{m+1}
                    + rank(rows of d_{m+1} at levels above p).

    dim F^p H_m changes only at the levels of C_m, so it is evaluated there."""
    deg = np.array(fc.degrees, dtype=np.int64)
    lev = np.array(fc.levels, dtype=np.int64)
    expected = {}
    for m in sorted(set(fc.degrees)):
        cm = np.flatnonzero(deg == m)
        cm = cm[np.argsort(lev[cm], kind="stable")]
        lv = lev[cm]
        d_m = fc.boundary[np.ix_(np.flatnonzero(deg == m - 1), cm)]
        d_up = fc.boundary[np.ix_(cm, np.flatnonzero(deg == m + 1))]
        rk_up = gf2.rank(d_up)
        prev = 0
        # lv is sorted: its distinct levels without np.unique (numpy.ma)
        for p in lv[np.r_[True, lv[1:] != lv[:-1]]].tolist():
            k = int(np.searchsorted(lv, p, side="right"))   # |F^p C_m|
            dim_f = k - gf2.rank(d_m[:, :k]) - rk_up + gf2.rank(d_up[k:, :])
            if dim_f != prev:
                expected[(p, m - p)] = dim_f - prev
            prev = dim_f
    return expected == final.dims()


def e_infinity(fc):
    """E^infinity and the collapse page from the persistence pairs, with
    property (c) checked against filtered homology.  Returns (final page,
    collapse_r, convergence_ok)."""
    bc = barcode(fc)
    final = bc.infinity()
    return final, bc.collapse_r, check_convergence(fc, final)


# -- Novikov filtration -----------------------------------------------------------


def novikov_filtration(C, window=None, indexing="plain"):
    """Filtered Z2 complex from the lambda-degree filtration of a pearl
    complex over Lambda_Z2, on its window truncation
    (``novikov.truncate_to_window``): p l^e has degree deg(p) - N e and

    plain:      level(p l^e) = -e   (differentials at any page r = lambda drop)
    stretched:  level(p l^e) = -eN  (differentials only at pages r in N Z)
    """
    if C.ring != L2 or C.N < 1:
        raise DimensionMismatch("needs a pearl complex over Lambda_Z2 with N >= 1")
    need = default_window(C)
    window = need if window is None else window
    lmin, lmax = window
    if lmax - lmin < need[1] - need[0]:
        raise WindowTooNarrow(
            f"window {window} narrower than the safe width {need}",
            window=window, safe=need)
    if any(d2 % 2 for _, d2 in C.generators):
        raise DimensionMismatch("pearl degrees must be integers")
    stretch = C.N if indexing == "stretched" else 1
    T = truncate_to_window(C, window)
    width = lmax - lmin + 1
    D = np.zeros((T.size, T.size), dtype=np.uint8)
    for j, col in enumerate(T.boundary):
        D[list(col), j] = 1
    fc = FilteredComplex.build(
        [d2 // 2 for _, d2 in T.generators],
        [-(lmin + k % width) * stretch for k in range(T.size)], D,
        names=[nm for nm, _ in T.generators])
    check_boundedness_formula(fc, C, window, stretch)
    return fc


def check_boundedness_formula(fc, C, window, stretch):
    """F^{k-}C_m = 0 and levels <= k+ with k- = floor((m - max)/N) - 1 and
    k+ = ceil((m - min)/N), in plain level units."""
    degs2 = [d2 for _, d2 in C.generators]
    mbar = max(degs2) // 2
    munder = min(degs2) // 2
    N = C.N
    for m in sorted(set(fc.degrees)):
        lv = [fc.levels[i] // stretch for i in fc.degree_indices(m)]
        if not lv:
            continue
        k_minus = (m - mbar) // N - 1   # floor
        k_plus = -((munder - m) // N)   # ceil((m - munder)/N)
        if min(lv) <= k_minus:
            raise NotAComplex(
                f"boundedness formula violated at degree {m}: level "
                f"{min(lv)} <= k- = {k_minus}")
        if max(lv) > k_plus:
            raise NotAComplex(
                f"boundedness formula violated at degree {m}: level "
                f"{max(lv)} > k+ = {k_plus}")
    return True


def lambda_periodic_dims(pg, N, indexing="plain"):
    """Check E^r_{p,q} = E^r_{p-1, q-N+1} (plain) or E^r_{p,q} = E^r_{p-N,q}
    (stretched) away from the window edges; returns the checked pairs.

    pg is a literal SpectralPage or a barcode's PageDims; a pair whose
    lambda-image is off the page's support is skipped."""
    dims = pg.dims()
    if not dims:
        return True, []
    ps = sorted({p for p, _ in dims})
    lo, hi = ps[0], ps[-1]
    step = N if indexing == "stretched" else 1
    checked = []
    ok = True
    for (p, q), d in sorted(dims.items()):
        if p - step <= lo or p + step >= hi:
            continue
        # multiplication by lambda: plain (p, q) -> (p-1, q-N+1),
        # stretched (p, q) -> (p-N, q)
        other = (p - N, q) if indexing == "stretched" else (p - 1, q - (N - 1))
        if other not in pg.support:
            continue
        same = (pg.dim(*other) == d)
        checked.append(((p, q), other, d, pg.dim(*other)))
        ok = ok and same
    return ok, checked


def nontrivial_pages(fc, N, indexing="stretched"):
    """Pages r with a nonzero differential away from the window edges."""
    bc = barcode(fc)
    pad = N if indexing == "stretched" else 1
    out = []
    for r in sorted({length for length, _, _ in bc.bars}):
        ps = [p for p, _ in bc.page(r).table]
        lo, hi = min(ps), max(ps)
        if any(lo + pad < p < hi - pad and lo + pad < p - r < hi - pad
               for p, _ in bc.differentials(r)):
            out.append(r)
    return out


# -- action filtration -------------------------------------------------------------


def action_filtration(local_complex, data):
    """Filtered complex from the action values of the components.

    level(p) = rank of the action value of p's component among the distinct
    action values a_1 < ... < a_kappa (rank 1 = lowest).
    """
    actions = sorted({c.action for c in data.components})
    rank_of = {a: k + 1 for k, a in enumerate(actions)}
    degrees = []
    levels = []
    names = []
    for nm, d2 in local_complex.generators:
        if d2 % 2 != 0:
            raise DimensionMismatch("local pearl degrees must be integers")
        degrees.append(d2 // 2)
        levels.append(rank_of[data.home[nm][0].action])
        names.append(nm)
    n = local_complex.size
    D = np.zeros((n, n), dtype=np.uint8)
    for j, col in enumerate(local_complex.boundary):
        for i, c in col.items():
            if c % 2:
                D[i, j] = 1
    return FilteredComplex.build(degrees, levels, D, names=names)


def action_first_page_reference(data):
    """Expected E^1 dims of the action filtration:
    E^1_{i,j} = sum over components with action rank i of
    H_{i+j-mu(C)}(C; Z2)."""
    from .chain import morse_complex
    from .novikov import homology
    actions = sorted({c.action for c in data.components})
    rank_of = {a: k + 1 for k, a in enumerate(actions)}
    out = {}
    for c in data.components:
        rep = homology(morse_complex(c.morse, Z2))["by_degree"]
        if c.mu2 % 2 != 0:
            raise DimensionMismatch("component degree offset must be an integer")
        mu = c.mu2 // 2
        i = rank_of[c.action]
        for d2, entry in rep.items():
            m = d2 // 2 + mu          # total degree of those generators
            key = (i, m - i)
            out[key] = out.get(key, 0) + entry["betti"]
    return {k: v for k, v in out.items() if v}


def valuation_structure(C):
    """Structure report of H(C) over Lambda_Z2.

    Free part: when no torsion is present the homology is H-bar tensor
    Lambda and the report carries the per-degree Betti of H-bar; with
    torsion the tensor-form assertion is skipped with a notice.
    """
    from .novikov import homology
    rep = homology(C)
    free_rank = rep["free_rank"]
    torsion = rep["torsion"]
    result = {
        "free_rank": free_rank,
        "torsion": torsion,
        "tensor_form": None,
        "notice": None,
    }
    if torsion:
        result["notice"] = ("torsion present: the tensor-form assertion "
                            "H = H-bar (x) Lambda is skipped")
        return result
    per_degree = rep.get("per_degree") or {}
    total = sum(per_degree.values())
    result["tensor_form"] = {
        "hbar_betti_by_deg2": per_degree,
        "rank_matches": total == free_rank,
    }
    return result
