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
Every Z2 matrix here (the boundary, sections, denominators and
differentials) is a list of ``gf2`` columns, Python ints with bit i of
column j for entry (i, j); vectors in ambient coordinates are such ints.

Novikov filtrations live on the lambda-window truncation of a pearl complex
(``novikov.truncate_to_window``) and come in two indexings: "plain"
(level = -l, the paper's F^k = <p l^l : l >= -k>, lambda-periodicity
E^r_{p,q} = E^r_{p-1,q-N+1}) and "stretched" (level = -l N, the
degree-aware reindexing in which the only possibly nonzero differentials
sit on pages r in N Z).
"""

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field

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
    boundary: tuple = field(repr=False)  # gf2 columns, bit i of j: d[i, j]
    names: tuple = None

    @staticmethod
    def build(degrees, levels, boundary, names=None):
        degrees = tuple(int(d) for d in degrees)
        levels = tuple(int(l) for l in levels)
        D = tuple(boundary)
        n = len(degrees)
        if len(D) != n or len(levels) != n or any(c >> n for c in D):
            raise DimensionMismatch("boundary shape does not match basis data")
        if any(gf2.product(D, c) for c in D):
            raise NotAComplex("d . d != 0 for the filtered complex")
        # entries in column-major order, so the first offence is reported
        for j, col in enumerate(D):
            for i in gf2.bits(col):
                if degrees[i] != degrees[j] - 1:
                    raise NotAComplex(
                        f"boundary entry {i}<-{j} changes degree by "
                        f"{degrees[i] - degrees[j]}")
                if levels[i] > levels[j]:
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


def _mask(indices):
    return sum(1 << i for i in indices)


def _image(fc, vs):
    """d applied to each vector of vs."""
    return [gf2.product(fc.boundary, v) for v in vs]


def _z_space(fc, p, q, r):
    """Basis of Z^r_{p,q} in ambient coordinates."""
    m = p + q
    Fpm = fc.filtration_basis(p, m)
    # rows of C_{m-1} outside F^{p-r}
    bad = _mask(i for i in fc.degree_indices(m - 1) if fc.levels[i] > p - r)
    ker = gf2.kernel([fc.boundary[i] & bad for i in Fpm])
    return [_mask(Fpm[k] for k in gf2.bits(v)) for v in ker]


@dataclass(frozen=True)
class PageEntry:
    dim: int
    section: list = field(repr=False)      # representatives, ambient coords
    denominator: list = field(repr=False)  # basis of the collapsed subspace


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
    for (p, q) in _bidegrees(fc):
        Zr = _z_space(fc, p, q, r)
        Zprev = _z_space(fc, p - 1, q + 1, r - 1)
        Bprev = _image(fc, _z_space(fc, p + r - 1, q - r + 2, r - 1))
        denom = gf2.sum_basis(Zprev, Bprev)
        # denominators are contained in Z^r; quotient dimension by rank
        sect = gf2.complement_in(denom, Zr)
        entries[(p, q)] = PageEntry(dim=len(sect), section=sect,
                                    denominator=denom)
    diffs = {}
    for (p, q), e in entries.items():
        if e.dim == 0:
            continue
        tgt = entries.get((p - r, q + r - 1))
        if tgt is None or tgt.dim == 0:
            continue
        try:
            coords = gf2.coordinates_mod(tgt.section, tgt.denominator,
                                         _image(fc, e.section))
        except ValueError as exc:
            raise NotAComplex(
                f"differential at {(p, q)} leaves the target page space: {exc}")
        if any(coords):
            diffs[(p, q)] = coords
    return SpectralPage(r=r, entries=entries, differentials=diffs)


def check_page_squares_to_zero(pg):
    for (p, q), M in pg.differentials.items():
        M2 = pg.differentials.get((p - pg.r, q + pg.r - 1))
        if M2 is not None and any(gf2.product(M2, c) for c in M):
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
    for m in sorted(set(fc.degrees)):
        cm = fc.degree_indices(m)
        rk_out = gf2.rank([fc.boundary[i] for i in cm])
        rk_in = gf2.rank([fc.boundary[i] for i in fc.degree_indices(m + 1)])
        out[m] = len(cm) - rk_out - rk_in
    return {m: d for m, d in out.items() if d}


def first_page_check(fc):
    """Property (b): E^1_{p,q} = H_{p+q} of the associated graded complex."""
    pg = page(fc, 1)
    for p in sorted(set(fc.levels)):
        idx = [i for i in range(fc.size) if fc.levels[i] == p]
        at_p = _mask(idx)
        # homology of the graded piece per degree; d lowers the degree by 1
        for m in sorted({fc.degrees[i] for i in idx}):
            cm = [i for i in idx if fc.degrees[i] == m]
            up = [i for i in idx if fc.degrees[i] == m + 1]
            h = (len(cm) - gf2.rank([fc.boundary[i] & at_p for i in cm])
                 - gf2.rank([fc.boundary[i] & at_p for i in up]))
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
    cols = [_mask(pos[i] for i in gf2.bits(fc.boundary[j])) for j in order]
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
    expected = {}
    for m in sorted(set(fc.degrees)):
        cm = sorted(fc.degree_indices(m), key=lambda i: fc.levels[i])
        lv = [fc.levels[i] for i in cm]
        d_m = [fc.boundary[i] for i in cm]
        d_up = [fc.boundary[i] for i in fc.degree_indices(m + 1)]
        rk_up = gf2.rank(d_up)
        prev = 0
        for p in sorted(set(lv)):
            k = bisect_right(lv, p)   # |F^p C_m|
            above = _mask(cm[k:])
            dim_f = (k - gf2.rank(d_m[:k]) - rk_up
                     + gf2.rank([c & above for c in d_up]))
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
    fc = FilteredComplex.build(
        [d2 // 2 for _, d2 in T.generators],
        [-(lmin + k % width) * stretch for k in range(T.size)],
        [_mask(col) for col in T.boundary],
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
    D = [_mask(i for i, c in col.items() if c % 2)
         for col in local_complex.boundary]
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
