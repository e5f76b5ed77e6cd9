"""Exact arithmetic over Z2, Z and the Laurent ring Lambda = Z2[l, l^{-1}]
with deg l = -N, plus homology of finitely generated free graded complexes.

Ring tags: "Z2", "Z", "L2" (Laurent over Z2), each with one class of the
ring table (``_ring``) that builds, checks and Smith-diagonalizes its
complexes.  Laurent polynomials have Z2 coefficients and are kept in
canonical form (no zero coefficients); the ring L2 is Euclidean with size =
exponent span, which makes Smith diagonalization available.  Homology over
Z and L2 reads only the diagonal of the Smith form, so that is all
``smith_diagonalize`` returns.  The lambda-window truncation of an L2
complex (``truncate_to_window``) serves the periodic Betti numbers here and
the Novikov filtration of ``specseq``.
"""

from dataclasses import dataclass

from . import gf2
from .errors import (DimensionMismatch, DivisionByZero, NotAComplex,
                     UnsupportedRing)

Z2, Z, L2 = "Z2", "Z", "L2"


# -- Laurent polynomials -------------------------------------------------------


@dataclass(frozen=True)
class LaurentPoly:
    """Finite map exponent -> nonzero coefficient over Z2."""

    terms: tuple  # sorted tuple of (exp, 1)

    @staticmethod
    def make(terms):
        """From a map (or pairs) exponent -> integer coefficient, mod 2."""
        acc = {}
        for e, c in (terms.items() if isinstance(terms, dict) else terms):
            c = int(c) % 2
            if c:
                acc[int(e)] = (acc.get(int(e), 0) + c) % 2
                if acc[int(e)] == 0:
                    del acc[int(e)]
        return LaurentPoly(tuple(sorted(acc.items())))

    @staticmethod
    def zero():
        return LaurentPoly.make({})

    @staticmethod
    def one():
        return LaurentPoly.make({0: 1})

    @staticmethod
    def lam(e):
        return LaurentPoly.make({e: 1})

    def is_zero(self):
        return not self.terms

    @property
    def min_exp(self):
        return self.terms[0][0]

    @property
    def max_exp(self):
        return self.terms[-1][0]

    @property
    def span(self):
        return self.max_exp - self.min_exp if self.terms else -1

    def __add__(self, other):
        acc = dict(self.terms)
        for e, c in other.terms:
            acc[e] = acc.get(e, 0) + c
        return LaurentPoly.make(acc)

    __sub__ = __add__

    def __mul__(self, other):
        acc = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                acc[e1 + e2] = acc.get(e1 + e2, 0) + c1 * c2
        return LaurentPoly.make(acc)

    def shift(self, k):
        return LaurentPoly.make([(e + k, c) for e, c in self.terms])

    def __str__(self):
        if not self.terms:
            return "0"
        return " + ".join("1" if e == 0 else "l" if e == 1 else f"l^{e}"
                          for e, _ in self.terms)


def laurent_divmod(a, b):
    """(q, r) with a = q b + r and span(r) < span(b) or r = 0."""
    if b.is_zero():
        raise DivisionByZero("division by the zero Laurent polynomial")
    q = LaurentPoly.zero()
    r = a
    while not r.is_zero() and r.span >= b.span:
        shift = r.max_exp - b.max_exp
        q = q + LaurentPoly.lam(shift)
        r = r - b.shift(shift)
    return q, r


# -- the coefficient rings ---------------------------------------------------------
# One class per ring tag: ``make`` converts an input coefficient (or reduces
# a sum of products) and ``is_zero`` tests it; the Euclidean rings Z and L2
# also give the Smith form ``size``, ``divmod``, ``normalize`` (the
# canonical associate) and ``divides``.  Elements add, subtract and multiply
# with the Python operators.


class _RingZ:
    tag, make, size, normalize = Z, int, abs, abs

    @staticmethod
    def is_zero(a):
        return a == 0

    @staticmethod
    def divmod(a, b):
        q, r = divmod(a, b)
        # symmetric remainder keeps entries small
        if r and abs(r - abs(b)) < abs(r):
            q, r = q + (1 if b > 0 else -1), r - abs(b)
        return q, r

    @staticmethod
    def divides(a, b):
        return a != 0 and b % a == 0


class _RingZ2:
    tag, is_zero = Z2, staticmethod(_RingZ.is_zero)

    @staticmethod
    def make(c):
        return int(c) % 2


class _RingL2:
    tag, is_zero, divmod = L2, LaurentPoly.is_zero, staticmethod(laurent_divmod)

    @staticmethod
    def make(c):
        """A LaurentPoly, a map exponent -> coefficient or an integer."""
        if isinstance(c, LaurentPoly):
            return c
        return LaurentPoly.make(c if isinstance(c, dict) else {0: int(c)})

    @staticmethod
    def size(a):
        return a.span

    @staticmethod
    def normalize(a):
        """Lowest exponent zero (monic over Z2 is automatic)."""
        return a if a.is_zero() else a.shift(-a.min_exp)

    @staticmethod
    def divides(a, b):
        return not a.is_zero() and laurent_divmod(b, a)[1].is_zero()


def _ring(tag):
    """The ring class of a tag.  Tags are compared with ==, never hashed, so
    that any JSON value is refused as UnsupportedRing."""
    for R in (_RingZ2, _RingZ, _RingL2):
        if R.tag == tag:
            return R
    raise UnsupportedRing(f"unknown ring {tag!r}", found=tag)


def smith_diagonalize(M, ring):
    """Diagonal of the Smith normal form of M over Z or L2.

    Returns the min(m, n) diagonal entries d_1 | d_2 | ..., zeros last, each
    the canonical associate (see the rings' ``normalize``).  M is a list of
    lists of ring elements and is left unchanged.
    """
    R = _ring(ring)
    if R is _RingZ2:
        raise UnsupportedRing(f"Smith form needs a Euclidean ring, got {ring}")
    A = [row[:] for row in M]
    m = len(A)
    n = len(A[0]) if m else 0

    def swap_cols(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]

    t = 0
    while t < min(m, n):
        # find nonzero pivot of least size
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if not R.is_zero(A[i][j]):
                    if best is None or R.size(A[i][j]) < R.size(A[best[0]][best[1]]):
                        best = (i, j)
        if best is None:
            break
        A[t], A[best[0]] = A[best[0]], A[t]
        swap_cols(t, best[1])
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, m):
                if not R.is_zero(A[i][t]):
                    q, r = R.divmod(A[i][t], A[t][t])
                    A[i] = [x - q * y for x, y in zip(A[i], A[t])]
                    if not R.is_zero(r):
                        A[t], A[i] = A[i], A[t]
                        dirty = True
            for j in range(t + 1, n):
                if not R.is_zero(A[t][j]):
                    q, r = R.divmod(A[t][j], A[t][t])
                    for row in A:
                        row[j] = row[j] - q * row[t]
                    if not R.is_zero(r):
                        swap_cols(t, j)
                        dirty = True
        # enforce divisibility: pivot must divide the rest of the block
        offender = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if not R.is_zero(A[i][j]) and not R.divides(A[t][t], A[i][j]):
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            # add the offending row to row t and redo the pivot step
            A[t] = [x + y for x, y in zip(A[t], A[offender])]
            continue
        t += 1
    return [R.normalize(A[i][i]) for i in range(min(m, n))]


# -- graded free complexes -----------------------------------------------------


@dataclass(frozen=True)
class GradedFreeComplex:
    """Finitely generated free graded complex over Z2, Z, or L2.

    Degrees are stored doubled (deg2) so half-integer gradings stay exact.
    ``boundary`` maps generator index j to a dict {i: coeff} meaning
    d(g_j) = sum coeff * g_i.  Over L2 a boundary coefficient l^e lowers
    the degree by 2*N*e in deg2 units.
    """

    ring: str
    generators: tuple            # tuple of (name, deg2)
    boundary: tuple              # tuple of dicts index -> coeff
    N: int = 0                   # Novikov weight, only used over L2
    graded: bool = True

    @staticmethod
    def build(ring, generators, boundary, N=0, require_graded=True):
        R = _ring(ring)
        gens = tuple((str(nm), int(d2)) for nm, d2 in generators)
        cols = []
        for j in range(len(gens)):
            col = {}
            for i, c in (boundary.get(j, {}) or {}).items():
                c = R.make(c)
                if not R.is_zero(c):
                    col[int(i)] = c
            cols.append(col)
        graded = True
        for j, col in enumerate(cols):
            for i, c in col.items():
                if ring == L2:
                    for e, _ in c.terms:
                        if gens[i][1] - 2 * N * e != gens[j][1] - 2:
                            graded = False
                elif gens[i][1] != gens[j][1] - 2:
                    graded = False
        if require_graded and not graded:
            raise NotAComplex("boundary does not lower the degree by exactly 1")
        C = GradedFreeComplex(ring=ring, generators=gens, boundary=tuple(cols),
                              N=N, graded=graded)
        _require_complex(C)
        return C

    @property
    def size(self):
        return len(self.generators)


def verify_complex(C):
    """Exact check of d . d = 0; returns (ok, (row, col) certificate).  Each
    entry of d . d is summed with the ring's + and * and reduced once by its
    ``make``."""
    R = _ring(C.ring)
    for j in range(C.size):
        acc = {}
        for i, c in C.boundary[j].items():
            for k, c2 in C.boundary[i].items():
                acc[k] = acc[k] + c2 * c if k in acc else c2 * c
        for k, v in acc.items():
            if not R.is_zero(R.make(v)):
                return False, (k, j)
    return True, None


def _require_complex(C):
    ok, cert = verify_complex(C)
    if not ok:
        raise NotAComplex(f"d . d != 0 at (row={cert[0]}, col={cert[1]})",
                          row=cert[0], col=cert[1])


def _boundary_blocks(C):
    """Split the boundary into blocks d_m : C_m -> C_{m-1} by doubled degree."""
    by_deg = {}
    for idx, (_, d2) in enumerate(C.generators):
        by_deg.setdefault(d2, []).append(idx)
    blocks = {}
    for d2, cols in by_deg.items():
        rows = by_deg.get(d2 - 2, [])
        rpos = {g: k for k, g in enumerate(rows)}
        entries = {}
        for cj, j in enumerate(cols):
            for i, c in C.boundary[j].items():
                if i in rpos:
                    entries[(rpos[i], cj)] = c
        blocks[d2] = (entries, len(rows), len(cols))
    return by_deg, blocks


def homology(C):
    """Per-degree homology report.

    Over Z2: Betti numbers.  Over Z: free rank and invariant factors.
    Over L2: Lambda-module decomposition (free rank + torsion factors) from
    the Smith form, plus per-degree Betti of the lambda-periodic block.
    Degrees in the report are doubled integers (deg2).
    """
    _require_complex(C)   # refuses an unknown ring too
    if C.ring == L2:
        return _homology_l2(C)
    by_deg, blocks = _boundary_blocks(C)
    if C.ring == Z2:
        ranks = {}
        for d2, (entries, _, nc) in blocks.items():
            cols = [0] * nc
            for i, j in entries:
                cols[j] |= 1 << i
            ranks[d2] = gf2.rank(cols)
        report = {d2: {"betti": len(gens) - ranks[d2] - ranks.get(d2 + 2, 0)}
                  for d2, gens in sorted(by_deg.items())}
        return {"ring": Z2, "by_degree": report}
    ranks, torsion = {}, {}
    for d2, (entries, nr, nc) in blocks.items():
        M = [[0] * nc for _ in range(nr)]
        for (i, j), c in entries.items():
            M[i][j] = c
        diag = [d for d in smith_diagonalize(M, Z) if d != 0]
        ranks[d2] = len(diag)
        # d_m's nonunit invariant factors are the torsion of degree m - 1
        torsion[d2 - 2] = sorted(d for d in diag if d != 1)
    report = {d2: {"free_rank": len(gens) - ranks[d2] - ranks.get(d2 + 2, 0),
                   "torsion": torsion.get(d2, [])}
              for d2, gens in sorted(by_deg.items())}
    return {"ring": Z, "by_degree": report}


def _homology_l2(C):
    """Lambda-module homology from one Smith form over the PID L2.

    With d equivalent to diag(d_1..d_r, 0..), ker d is a direct summand of
    rank m - r (Lambda^m / ker d = im d is free), so
    H = ker / im = Lambda^(m - 2r) + sum_i Lambda / (d_i): the free rank is
    m - 2r and the torsion is the nonunit invariant factors.
    """
    m = C.size
    M = [[LaurentPoly.zero() for _ in range(m)] for _ in range(m)]
    for j, col in enumerate(C.boundary):
        for i, c in col.items():
            M[i][j] = c
    diag = [d for d in smith_diagonalize(M, L2) if not d.is_zero()]
    tors = [str(d) for d in diag if d.span > 0]
    # per-degree betti of the periodic block, via a truncation window
    per_degree = _periodic_block_betti(C) if C.graded else None
    return {"ring": L2, "free_rank": m - 2 * len(diag), "torsion": sorted(tors),
            "per_degree": per_degree}


def _periodic_block_betti(C):
    """Betti of H-bar per degree, from a lambda-window truncation."""
    if C.N <= 0:
        return None
    rep = homology(truncate_to_window(C, default_window(C)))["by_degree"]
    # read one period from the middle of the window
    degs = sorted(rep)
    if not degs:
        return {}
    mid = degs[len(degs) // 2]
    return {d2: rep[d2]["betti"] for d2 in range(mid, mid + 2 * C.N, 2)
            if d2 in rep}


# -- lambda-window truncation ------------------------------------------------------


def default_window(C):
    """(lmin, lmax) covering 3x the degree spread / N, at least width 6."""
    degs = [d2 for _, d2 in C.generators]
    spread = (max(degs) - min(degs)) // 2 if degs else 0
    width = max(6, -(-3 * spread // max(C.N, 1)))
    half = width // 2 + 1
    return (-half, half)


def truncate_to_window(C, window):
    """Z2 complex on the generators p l^e, e in [lmin, lmax], named "p|l^e"
    and ordered by p, then e; arrows leaving the window are dropped.  It is
    the complex of ``_periodic_block_betti`` and of the Novikov filtration
    (``specseq.novikov_filtration``)."""
    if C.ring != L2:
        raise DimensionMismatch("lambda truncation needs an L2 complex")
    lmin, lmax = window
    width = lmax - lmin + 1
    gens = [(f"{nm}|l^{e}", d2 - 2 * C.N * e)
            for nm, d2 in C.generators for e in range(lmin, lmax + 1)]
    boundary = {}
    for j, col in enumerate(C.boundary):
        for e in range(lmin, lmax + 1):
            tcol = {}
            for i, c in col.items():
                for ce, _ in c.terms:
                    if lmin <= e + ce <= lmax:
                        k = i * width + e + ce - lmin
                        tcol[k] = tcol.get(k, 0) + 1
            if tcol:
                boundary[j * width + e - lmin] = tcol
    return GradedFreeComplex.build(Z2, gens, boundary)
