"""Exact arithmetic over Z2, Z and the Laurent ring Lambda = A[l, l^{-1}]
with deg l = -N, plus homology of finitely generated free graded complexes.

Ring tags: "Z2", "Z", "L2" (Laurent over Z2).  Laurent polynomials are
kept in canonical form (no zero coefficients); the ring L2 is Euclidean
with size = exponent span, which makes Smith diagonalization available.
"""

from dataclasses import dataclass

import numpy as np

from . import gf2
from .errors import DivisionByZero, NotAComplex, UnsupportedRing

Z2, Z, L2 = "Z2", "Z", "L2"


# -- Laurent polynomials -------------------------------------------------------


@dataclass(frozen=True)
class LaurentPoly:
    """Finite map exponent -> nonzero coefficient over Z2 or Z."""

    ring: str
    terms: tuple  # sorted tuple of (exp, coeff)

    @staticmethod
    def make(ring, terms):
        if ring not in (Z2, Z):
            raise UnsupportedRing(f"coefficients must be Z2 or Z, got {ring}")
        acc = {}
        for e, c in (terms.items() if isinstance(terms, dict) else terms):
            c = int(c) % 2 if ring == Z2 else int(c)
            if c:
                acc[int(e)] = acc.get(int(e), 0) + c
                if ring == Z2:
                    acc[int(e)] %= 2
                if acc[int(e)] == 0:
                    del acc[int(e)]
        return LaurentPoly(ring, tuple(sorted(acc.items())))

    @staticmethod
    def zero(ring):
        return LaurentPoly.make(ring, {})

    @staticmethod
    def one(ring):
        return LaurentPoly.make(ring, {0: 1})

    @staticmethod
    def lam(ring, e):
        return LaurentPoly.make(ring, {e: 1})

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
        return LaurentPoly.make(self.ring, acc)

    def __neg__(self):
        return LaurentPoly.make(self.ring, [(e, -c) for e, c in self.terms])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return LaurentPoly.make(self.ring, [(e, c * other) for e, c in self.terms])
        acc = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                acc[e1 + e2] = acc.get(e1 + e2, 0) + c1 * c2
        return LaurentPoly.make(self.ring, acc)

    def shift(self, k):
        return LaurentPoly.make(self.ring, [(e + k, c) for e, c in self.terms])

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for e, c in self.terms:
            if e == 0:
                bits.append(f"{c}")
            elif e == 1:
                bits.append(f"{c}*l" if c != 1 else "l")
            else:
                bits.append(f"{c}*l^{e}" if c != 1 else f"l^{e}")
        return " + ".join(bits)


def laurent_divmod(a, b):
    """(q, r) with a = q b + r and span(r) < span(b) or r = 0; Z2 only."""
    if a.ring != Z2 or b.ring != Z2:
        raise UnsupportedRing("Euclidean division only over Z2 coefficients")
    if b.is_zero():
        raise DivisionByZero("division by the zero Laurent polynomial")
    q = LaurentPoly.zero(Z2)
    r = a
    while not r.is_zero() and r.span >= b.span:
        shift = r.max_exp - b.max_exp
        q = q + LaurentPoly.lam(Z2, shift)
        r = r - b.shift(shift)
    return q, r


# -- Euclidean ring protocol for Smith normal form --------------------------------


class _RingZ:
    zero, one = 0, 1

    @staticmethod
    def is_zero(a):
        return a == 0

    @staticmethod
    def size(a):
        return abs(a)

    @staticmethod
    def divmod(a, b):
        q, r = divmod(a, b)
        # symmetric remainder keeps entries small
        if r and abs(r - abs(b)) < abs(r):
            q, r = q + (1 if b > 0 else -1), r - abs(b)
        return q, r

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def sub(a, b):
        return a - b

    @staticmethod
    def mul(a, b):
        return a * b

    @staticmethod
    def normalize(a):
        """(unit u, canonical a') with a = u a', canonical positive."""
        return (-1, -a) if a < 0 else (1, a)

    @staticmethod
    def divides(a, b):
        return a != 0 and b % a == 0


class _RingL2:
    zero = LaurentPoly.zero(Z2)
    one = LaurentPoly.one(Z2)

    @staticmethod
    def is_zero(a):
        return a.is_zero()

    @staticmethod
    def size(a):
        return a.span

    @staticmethod
    def divmod(a, b):
        return laurent_divmod(a, b)

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def sub(a, b):
        return a - b

    @staticmethod
    def mul(a, b):
        return a * b

    @staticmethod
    def normalize(a):
        """Unit-normalize to lowest exponent zero (monic over Z2 automatic)."""
        if a.is_zero():
            return LaurentPoly.one(Z2), a
        u = LaurentPoly.lam(Z2, a.min_exp)
        return u, a.shift(-a.min_exp)

    @staticmethod
    def divides(a, b):
        if a.is_zero():
            return False
        _, r = laurent_divmod(b, a)
        return r.is_zero()


def _ring_ops(ring):
    if ring == Z:
        return _RingZ
    if ring == L2:
        return _RingL2
    raise UnsupportedRing(f"Smith form needs a Euclidean ring, got {ring}")


def smith_diagonalize(M, ring):
    """Smith normal form over Z or L2: returns (D, U, V) with U M V = D.

    D is diagonal with a divisibility chain, U and V are invertible over the
    ring (det a unit).  M is a list of lists of ring elements.
    """
    R = _ring_ops(ring)
    A = [row[:] for row in M]
    m = len(A)
    n = len(A[0]) if m else 0
    U = [[R.one if i == j else R.zero for j in range(m)] for i in range(m)]
    V = [[R.one if i == j else R.zero for j in range(n)] for i in range(n)]

    def row_op(A, U, i, j, q):
        # row_i -= q * row_j
        for k in range(len(A[0])):
            A[i][k] = R.sub(A[i][k], R.mul(q, A[j][k]))
        for k in range(len(U[0])):
            U[i][k] = R.sub(U[i][k], R.mul(q, U[j][k]))

    def col_op(A, V, i, j, q):
        # col_i -= q * col_j
        for k in range(len(A)):
            A[k][i] = R.sub(A[k][i], R.mul(q, A[k][j]))
        for k in range(len(V)):
            V[k][i] = R.sub(V[k][i], R.mul(q, V[k][j]))

    def swap_rows(A, U, i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(A, V, i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]
        for row in V:
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
        swap_rows(A, U, t, best[0])
        swap_cols(A, V, t, best[1])
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, m):
                if not R.is_zero(A[i][t]):
                    q, r = R.divmod(A[i][t], A[t][t])
                    row_op(A, U, i, t, q)
                    if not R.is_zero(r):
                        swap_rows(A, U, t, i)
                        dirty = True
            for j in range(t + 1, n):
                if not R.is_zero(A[t][j]):
                    q, r = R.divmod(A[t][j], A[t][t])
                    col_op(A, V, j, t, q)
                    if not R.is_zero(r):
                        swap_cols(A, V, t, j)
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
            for k in range(n):
                A[t][k] = R.add(A[t][k], A[offender][k])
            for k in range(m):
                U[t][k] = R.add(U[t][k], U[offender][k])
            continue
        t += 1

    # canonical units on the diagonal
    for i in range(min(m, n)):
        if not R.is_zero(A[i][i]):
            u, a = R.normalize(A[i][i])
            if a is not A[i][i]:
                A[i][i] = a
                # divide row i of U by the unit: multiply by u^{-1}
                if ring == Z:
                    inv = u  # u in {1, -1}
                    U[i] = [R.mul(inv, x) for x in U[i]]
                else:
                    inv = LaurentPoly.lam(Z2, -u.min_exp)
                    U[i] = [R.mul(inv, x) for x in U[i]]
    return A, U, V


# -- graded free complexes -----------------------------------------------------


def _coeff_make(ring, c):
    if ring == Z2:
        return int(c) % 2
    if ring == Z:
        return int(c)
    if ring == L2:
        if isinstance(c, LaurentPoly):
            return c
        if isinstance(c, dict):
            return LaurentPoly.make(Z2, c)
        return LaurentPoly.make(Z2, {0: int(c)})
    raise UnsupportedRing(ring)


def _coeff_is_zero(ring, c):
    return c.is_zero() if ring == L2 else c == 0


def _coeff_add(ring, a, b):
    if ring == Z2:
        return (a + b) % 2
    return a + b


def _coeff_mul(ring, a, b):
    if ring == Z2:
        return (a * b) % 2
    return a * b


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
    def build(ring, generators, boundary, N=0, check=True, require_graded=True):
        gens = tuple((str(nm), int(d2)) for nm, d2 in generators)
        cols = []
        for j in range(len(gens)):
            col = {}
            for i, c in (boundary.get(j, {}) or {}).items():
                c = _coeff_make(ring, c)
                if not _coeff_is_zero(ring, c):
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
        if check:
            ok, cert = verify_complex(C)
            if not ok:
                raise NotAComplex(
                    f"d . d != 0 at (row={cert[0]}, col={cert[1]})",
                    row=cert[0], col=cert[1])
        return C

    @property
    def size(self):
        return len(self.generators)


def verify_complex(C):
    """Exact check of d . d = 0; returns (ok, (row, col) certificate)."""
    ring = C.ring
    for j in range(C.size):
        acc = {}
        for i, c in C.boundary[j].items():
            for k, c2 in C.boundary[i].items():
                acc[k] = _coeff_add(ring, acc.get(k, _coeff_make(ring, 0)),
                                    _coeff_mul(ring, c2, c))
        for k, v in acc.items():
            if not _coeff_is_zero(ring, v):
                return False, (k, j)
    return True, None


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
    ok, cert = verify_complex(C)
    if not ok:
        raise NotAComplex(f"d . d != 0 at (row={cert[0]}, col={cert[1]})",
                          row=cert[0], col=cert[1])
    if C.ring == Z2:
        by_deg, blocks = _boundary_blocks(C)
        ranks = {}
        for d2, (entries, nr, nc) in blocks.items():
            M = np.zeros((nr, nc), dtype=np.uint8)
            for (i, j), c in entries.items():
                M[i, j] = c
            ranks[d2] = gf2.rank(M)
        report = {d2: {"betti": len(gens) - ranks[d2] - ranks.get(d2 + 2, 0)}
                  for d2, gens in sorted(by_deg.items())}
        return {"ring": Z2, "by_degree": report}

    if C.ring == Z:
        by_deg, blocks = _boundary_blocks(C)
        report = {}
        for d2, gens in sorted(by_deg.items()):
            entries, nr, nc = blocks[d2]
            M = [[0] * nc for _ in range(nr)]
            for (i, j), c in entries.items():
                M[i][j] = c
            rk_d = 0
            if nr and nc:
                D, _, _ = smith_diagonalize(M, Z)
                rk_d = sum(1 for i in range(min(nr, nc)) if D[i][i] != 0)
            up = blocks.get(d2 + 2)
            tors = []
            rk_up = 0
            if up:
                e2, nr2, nc2 = up
                M2 = [[0] * nc2 for _ in range(nr2)]
                for (i, j), c in e2.items():
                    M2[i][j] = c
                if nr2 and nc2:
                    D2, _, _ = smith_diagonalize(M2, Z)
                    diag = [D2[i][i] for i in range(min(nr2, nc2)) if D2[i][i] != 0]
                    rk_up = len(diag)
                    tors = [d for d in diag if abs(d) != 1]
            report[d2] = {"free_rank": len(gens) - rk_d - rk_up,
                          "torsion": sorted(abs(t) for t in tors)}
        return {"ring": Z, "by_degree": report}

    if C.ring == L2:
        return _homology_l2(C)
    raise UnsupportedRing(C.ring)


def _homology_l2(C):
    """Lambda-module homology from one Smith form over the PID L2.

    With U d V = diag(d_1..d_r, 0..), ker d is a direct summand of rank
    m - r (Lambda^m / ker d = im d is free), so
    H = ker / im = Lambda^(m - 2r) + sum_i Lambda / (d_i): the free rank is
    m - 2r and the torsion is the nonunit invariant factors.
    """
    m = C.size
    M = [[LaurentPoly.zero(Z2) for _ in range(m)] for _ in range(m)]
    for j, col in enumerate(C.boundary):
        for i, c in col.items():
            M[i][j] = c
    D, _, _ = smith_diagonalize(M, L2)
    diag = [D[i][i] for i in range(m) if not D[i][i].is_zero()]
    tors = [str(d) for d in diag if d.span > 0]
    # per-degree betti of the periodic block, via a truncation window
    per_degree = _periodic_block_betti(C) if C.graded else None
    return {"ring": L2, "free_rank": m - 2 * len(diag), "torsion": sorted(tors),
            "per_degree": per_degree}


def _periodic_block_betti(C):
    """Betti of H-bar per degree, from a lambda-window truncation."""
    if C.N <= 0:
        return None
    from . import specseq  # local import to avoid a cycle
    win = specseq.default_window(C)
    trunc = specseq.truncate_to_window(C, win)
    rep = homology(trunc)["by_degree"]
    # read one period from the middle of the window
    degs = sorted(rep)
    if not degs:
        return {}
    mid = degs[len(degs) // 2]
    out = {}
    for d2 in range(mid, mid + 2 * C.N, 2):
        if d2 in rep:
            out[d2] = rep[d2]["betti"]
    return out
