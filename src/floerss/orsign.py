"""Finite-dimensional orientation sign calculus: determinant conventions for
direct sums, exact sequences, fibre products, quotients, and boundaries.

Floating-point arithmetic with a determinant threshold.  The induced
orientation of an exact sequence uses the left-to-right splitting
convention: walk the sequence keeping an oriented basis of the incoming
image, complete it inside each space, and push the complement forward.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateOutward, DimensionMismatch, NotExact,
                     NotIndependent, NotSubspace, NotTransverse)

_DET_TOL = 1e-9


def _as_matrix(vectors, m):
    """Column matrix from a list of vectors in R^m (possibly empty)."""
    if len(vectors) == 0:
        return np.zeros((m, 0))
    return np.stack([np.asarray(v, dtype=float) for v in vectors], axis=1)


@dataclass(frozen=True)
class BasedSpace:
    """Ordered basis of a subspace of R^m; empty basis = the zero space,
    whose orientation is the attached sign."""

    m: int
    basis: tuple          # tuple of tuples (vectors)
    sign: int = 1         # only meaningful for the zero space

    @staticmethod
    def build(m, vectors):
        vecs = tuple(tuple(float(x) for x in v) for v in vectors)
        if vecs:
            M = _as_matrix(vecs, m)
            if np.linalg.matrix_rank(M, tol=_DET_TOL) < len(vecs):
                raise NotIndependent("basis vectors are dependent")
        return BasedSpace(m=int(m), basis=vecs)

    @property
    def dim(self):
        return len(self.basis)

    def matrix(self):
        return _as_matrix(self.basis, self.m)

    def flipped(self):
        if self.dim == 0:
            return BasedSpace(self.m, self.basis, -self.sign)
        basis = (tuple(-x for x in self.basis[0]),) + self.basis[1:]
        return BasedSpace(self.m, basis, self.sign)


def same_span(X, Y):
    if X.dim != Y.dim or X.m != Y.m:
        return False
    if X.dim == 0:
        return True
    MX, MY = X.matrix(), Y.matrix()
    aug = np.concatenate([MX, MY], axis=1)
    return np.linalg.matrix_rank(aug, tol=1e-8) == X.dim


def orientation_sign(X, Y):
    """+1 / -1: do the bases of X and Y orient their common span the same way?"""
    if not same_span(X, Y):
        raise DimensionMismatch("orientation comparison needs equal spans")
    if X.dim == 0:
        return X.sign * Y.sign
    MX, MY = X.matrix(), Y.matrix()
    # coordinates of Y's basis in X's basis
    sol, *_ = np.linalg.lstsq(MX, MY, rcond=None)
    det = np.linalg.det(sol)
    if abs(det) < _DET_TOL:
        raise NotIndependent("degenerate change of basis")
    return int(np.sign(det)) * X.sign * Y.sign


def sum_orient(X, Y):
    """Internal direct sum with the concatenated basis."""
    if X.m != Y.m:
        raise DimensionMismatch("ambient dimensions differ")
    vectors = X.basis + Y.basis
    M = _as_matrix(vectors, X.m)
    if len(vectors) and np.linalg.matrix_rank(M, tol=_DET_TOL) < len(vectors):
        raise NotIndependent("sum is not direct")
    return BasedSpace(X.m, vectors, X.sign * Y.sign)


def _complete_inside(span_matrix, inside_matrix):
    """Columns of inside_matrix completing span(span_matrix) inside the
    space spanned by inside_matrix; greedy rank completion."""
    cur = span_matrix
    picked = []
    for j in range(inside_matrix.shape[1]):
        cand = inside_matrix[:, j:j + 1]
        test = np.concatenate([cur, cand], axis=1) if cur.size else cand
        if np.linalg.matrix_rank(test, tol=_DET_TOL) == test.shape[1]:
            cur = test
            picked.append(j)
    return inside_matrix[:, picked]


def exact_seq_orient(spaces, maps):
    """Orientation bookkeeping of an exact sequence 0 -> X_1 -> ... -> X_k -> 0.

    ``spaces`` are BasedSpaces (their bases fix candidate orientations),
    ``maps`` are matrices X_j -> X_{j+1} (ambient coordinates).  Returns the
    consistency sign of the sequence.
    """
    k = len(spaces)
    if len(maps) != k - 1:
        raise DimensionMismatch("need one map between consecutive spaces")
    # verify exactness by ranks and compute the splitting signs
    signs = []
    img = np.zeros((spaces[0].m, 0))
    for j in range(k):
        Xj = spaces[j].matrix()
        if img.shape[1] and j > 0:
            if np.linalg.matrix_rank(np.concatenate([Xj, img], axis=1),
                                     tol=_DET_TOL) > spaces[j].dim:
                raise NotExact("image does not land in the next space")
        C = _complete_inside(img, Xj)
        if img.shape[1] + C.shape[1] != spaces[j].dim:
            raise NotExact(f"exactness fails at position {j + 1}")
        # sign of (image basis ++ completion) against the given basis
        full = np.concatenate([img, C], axis=1) if img.size else C
        if spaces[j].dim == 0:
            signs.append(spaces[j].sign)
        else:
            sol, *_ = np.linalg.lstsq(Xj, full, rcond=None)
            det = np.linalg.det(sol)
            if abs(det) < _DET_TOL:
                raise NotExact("splitting produced a degenerate basis")
            signs.append(int(np.sign(det)) * spaces[j].sign)
        # push the completion forward
        if j < k - 1:
            A = np.asarray(maps[j], dtype=float)
            img = A @ C if C.size else np.zeros((spaces[j + 1].m, 0))
            if img.size and np.linalg.matrix_rank(img, tol=_DET_TOL) < img.shape[1]:
                raise NotExact(f"map {j + 1} is not injective on the complement")
        else:
            # exactness at the end: the last map must be surjective, so the
            # completion beyond the incoming image is empty
            if C.shape[1] != 0:
                raise NotExact("sequence does not end exactly")
    total = 1
    for s in signs:
        total *= s
    return total


def fibre_orient(X, Y, Z, phi, psi):
    """Oriented basis of the fibre product X x_Z Y.

    Convention pinned by the cap-compatibility lemma: with rho a right
    inverse of (phi - psi), the basis [W | rho(Z-basis)] of X + Y carries
    sign (-1)^{dim Y dim Z} against [X-basis ++ Y-basis].
    """
    phi = np.asarray(phi, dtype=float)
    psi = np.asarray(psi, dtype=float)
    dx, dy, dz = X.dim, Y.dim, Z.dim
    # work in basis coordinates of X (+) Y and Z
    A = np.zeros((dz, dx + dy))
    MX, MY, MZ = X.matrix(), Y.matrix(), Z.matrix()
    phiX = phi @ MX            # ambient coordinates in Z's ambient space
    psiY = psi @ MY
    if dz:
        # coordinates in Z's basis
        cphi, *_ = np.linalg.lstsq(MZ, phiX, rcond=None)
        cpsi, *_ = np.linalg.lstsq(MZ, psiY, rcond=None)
        A[:, :dx] = cphi
        A[:, dx:] = -cpsi
    if dz and np.linalg.matrix_rank(A, tol=_DET_TOL) < dz:
        raise NotTransverse("phi - psi is not surjective onto Z")
    # kernel = fibre product, in (X, Y)-basis coordinates
    if dx + dy:
        _, s, Vt = np.linalg.svd(A) if dz else (None, np.zeros(0), np.eye(dx + dy))
        null_dim = dx + dy - dz
        K = Vt[dz:, :].T if dz else np.eye(dx + dy)
        K = K[:, :null_dim]
    else:
        K = np.zeros((0, 0))
    if dz:
        rho = np.linalg.pinv(A)          # right inverse in basis coordinates
        Mfull = np.concatenate([K, rho], axis=1)
    else:
        Mfull = K
    det = np.linalg.det(Mfull)
    if abs(det) < _DET_TOL:
        raise NotTransverse("degenerate fibre decomposition")
    target = (-1) ** (dy * dz)
    sign = int(np.sign(det)) * X.sign * Y.sign * Z.sign
    # ambient vectors of the kernel basis
    amb = np.concatenate([MX, MY], axis=1) if X.m == Y.m else None
    lift = np.concatenate([MX @ K[:dx, :], MY @ K[dx:, :]], axis=0)
    vectors = [tuple(lift[:, j]) for j in range(lift.shape[1])]
    W = BasedSpace.build(X.m + Y.m, vectors) if vectors else \
        BasedSpace(X.m + Y.m, (), 1)
    if sign != target:
        W = W.flipped()
    return W


def quotient_orient(total, sub):
    """Oriented complement representative of total/sub, via the convention
    that (sub-basis ++ complement) matches the orientation of total."""
    MT, MS = total.matrix(), sub.matrix()
    if sub.dim:
        if np.linalg.matrix_rank(np.concatenate([MT, MS], axis=1),
                                 tol=_DET_TOL) > total.dim:
            raise NotSubspace("sub is not contained in total")
    C = _complete_inside(MS, MT)
    if MS.shape[1] + C.shape[1] != total.dim:
        raise NotSubspace("completion failed")
    if C.shape[1] == 0:
        # zero quotient: sign compares sub's orientation with total's
        s = orientation_sign(BasedSpace(total.m, sub.basis, sub.sign), total)
        return BasedSpace(total.m, (), s)
    full = np.concatenate([MS, C], axis=1) if MS.size else C
    sol, *_ = np.linalg.lstsq(MT, full, rcond=None)
    det = np.linalg.det(sol)
    Q = BasedSpace.build(total.m, [tuple(C[:, j]) for j in range(C.shape[1])])
    if np.sign(det) * total.sign * sub.sign < 0:
        Q = Q.flipped()
    return Q


def boundary_orient(interior, outward):
    """Oriented boundary basis b with (b ++ outward) matching the interior."""
    out = np.asarray(outward, dtype=float)
    MI = interior.matrix()
    if interior.dim == 0:
        raise DimensionMismatch("boundary of a zero space is undefined")
    # outward must lie in the interior space and be nonzero
    sol, res, *_ = np.linalg.lstsq(MI, out[:, None], rcond=None)
    recon = MI @ sol
    if np.linalg.norm(recon[:, 0] - out) > 1e-8 * max(1.0, np.linalg.norm(out)):
        raise DegenerateOutward("outward vector not inside the space")
    if np.linalg.norm(out) < _DET_TOL:
        raise DegenerateOutward("outward vector vanishes")
    C = _complete_inside(out[:, None], MI)
    if C.shape[1] != interior.dim - 1:
        raise DegenerateOutward("completion failed")
    if C.shape[1] == 0:
        # boundary of a 1-dim space: a signed point
        s = orientation_sign(BasedSpace.build(interior.m, [tuple(out)]),
                             interior)
        return BasedSpace(interior.m, (), s)
    full = np.concatenate([C, out[:, None]], axis=1)
    sol, *_ = np.linalg.lstsq(MI, full, rcond=None)
    det = np.linalg.det(sol)
    B = BasedSpace.build(interior.m, [tuple(C[:, j]) for j in range(C.shape[1])])
    if np.sign(det) * interior.sign < 0:
        B = B.flipped()
    return B


def cap_orient(X, Y, Z):
    """Orientation of X /\\ Y from 0 -> X /\\ Y -> X -> Z/Y -> 0 with the
    quotient Z/Y oriented by 0 -> Y -> Z -> Z/Y -> 0 (X + Y = Z assumed)."""
    MX, MY = X.matrix(), Y.matrix()
    # intersection basis
    A = np.concatenate([MX, -MY], axis=1)
    if A.size:
        _, s, Vt = np.linalg.svd(A)
        rank = int(np.sum(s > _DET_TOL * max(1.0, s[0] if len(s) else 1.0)))
        K = Vt[rank:, :].T
    else:
        K = np.zeros((X.dim + Y.dim, 0))
    W = MX @ K[:X.dim, :]
    d = W.shape[1]
    if d == 0:
        Wsp = BasedSpace(X.m, (), 1)
    else:
        Wsp = BasedSpace.build(X.m, [tuple(W[:, j]) for j in range(d)])
    QZ = quotient_orient(Z, Y)
    # projection along Y onto the quotient representative
    MQ = QZ.matrix()
    if QZ.dim:
        A = np.concatenate([MY, MQ], axis=1)
        sol, *_ = np.linalg.lstsq(A, np.eye(X.m), rcond=None)
        proj = MQ @ sol[MY.shape[1]:, :]
    else:
        proj = np.zeros((X.m, X.m))
    # exact sequence 0 -> W -> X -> Z/Y -> 0; fix W's sign so the convention
    # product is +1
    total = exact_seq_orient([Wsp, X, QZ], [np.eye(X.m), proj])
    return Wsp if total == 1 else Wsp.flipped()
