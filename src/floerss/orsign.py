"""Finite-dimensional orientation sign calculus: determinant conventions for
direct sums, exact sequences, quotients, boundaries, fibre products and
intersections.

Floating-point arithmetic with a determinant threshold.  One rule orients
every induced space, the exact-sequence convention of Fukaya-Oh-Ohta-Ono
(Lagrangian Intersection Floer Theory, AMS/IP 2009, chapter on
orientation).  An exact sequence 0 -> X_1 -> ... -> X_k -> 0 of oriented
spaces has a sign (``exact_seq_orient``): walk it left to right keeping a
basis of the incoming image, complete that basis inside each space, compare
with the space's orientation and push the completion forward.  Flipping
any one space flips the sign, so each induced space is built unoriented
and flipped unless its defining sequence has the convention's sign:

* quotient        0 -> S -> T -> T/S -> 0                sign +1
* boundary        0 -> bd I -> I -> R outward -> 0       sign +1
* fibre product   0 -> X x_Z Y -> X + Y -> Z -> 0        sign (-1)^{dim Y dim Z}
  under phi - psi, the convention of the cap-compatibility lemma
* intersection    0 -> X /\\ Y -> X -> Z/Y -> 0          sign +1

A quotient T/S is represented by a complement of S inside T, and the map
onto it is the projection along S.
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


def _basis_sign(space, M, error):
    """Sign of the columns of M as an ordered basis of space, against the
    space's orientation (a zero space: no columns, its sign); a degenerate
    change of basis raises error."""
    det = np.linalg.det(np.linalg.lstsq(space.matrix(), M, rcond=None)[0])
    if abs(det) < _DET_TOL:
        raise error("degenerate change of basis")
    return int(np.sign(det)) * space.sign


def orientation_sign(X, Y):
    """+1 / -1: do the bases of X and Y orient their common span the same way?"""
    if not same_span(X, Y):
        raise DimensionMismatch("orientation comparison needs equal spans")
    return _basis_sign(X, Y.matrix(), NotIndependent) * Y.sign


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


def _kernel(A):
    """Orthonormal basis (columns) of the null space of A from one SVD; a
    singular value below _DET_TOL max(1, largest) counts as zero."""
    _, s, Vt = np.linalg.svd(A)
    return Vt[int(np.sum(s > _DET_TOL * max(1.0, s.max(initial=0.0)))):].T


def _projection(MS, MC):
    """Matrix of the projection onto span(MC) along span(MS), on their sum."""
    A = np.concatenate([MS, MC], axis=1)
    return MC @ np.linalg.lstsq(A, np.eye(len(A)), rcond=None)[0][MS.shape[1]:]


def exact_seq_orient(spaces, maps):
    """Orientation bookkeeping of an exact sequence 0 -> X_1 -> ... -> X_k -> 0.

    ``spaces`` are BasedSpaces (their bases fix candidate orientations),
    ``maps`` are matrices X_j -> X_{j+1} (ambient coordinates).  Returns the
    consistency sign of the sequence.
    """
    k = len(spaces)
    if len(maps) != k - 1:
        raise DimensionMismatch("need one map between consecutive spaces")
    # verify exactness by ranks and multiply the splitting signs
    sign = 1
    img = np.zeros((spaces[0].m, 0))
    for j, X in enumerate(spaces):
        MX = X.matrix()
        if img.shape[1] and np.linalg.matrix_rank(
                np.concatenate([MX, img], axis=1), tol=_DET_TOL) > X.dim:
            raise NotExact("image does not land in the next space")
        C = _complete_inside(img, MX)
        if img.shape[1] + C.shape[1] != X.dim:
            raise NotExact(f"exactness fails at position {j + 1}")
        # sign of (image basis ++ completion) against the given orientation
        sign *= _basis_sign(X, np.concatenate([img, C], axis=1), NotExact)
        if j == k - 1:
            # the last map must be surjective: nothing beyond the image
            if C.shape[1] != 0:
                raise NotExact("sequence does not end exactly")
            break
        # push the completion forward
        img = (np.asarray(maps[j], dtype=float) @ C if C.size
               else np.zeros((spaces[j + 1].m, 0)))
        if img.size and np.linalg.matrix_rank(img, tol=_DET_TOL) < img.shape[1]:
            raise NotExact(f"map {j + 1} is not injective on the complement")
    return sign


def quotient_orient(total, sub):
    """Oriented complement of sub in total, representing total/sub:
    0 -> sub -> total -> total/sub -> 0 has sign +1, so that
    (sub-basis ++ complement) orients total."""
    MT, MS = total.matrix(), sub.matrix()
    if sub.dim and np.linalg.matrix_rank(np.concatenate([MT, MS], axis=1),
                                         tol=_DET_TOL) > total.dim:
        raise NotSubspace("sub is not contained in total")
    C = _complete_inside(MS, MT)
    if MS.shape[1] + C.shape[1] != total.dim:
        raise NotSubspace("completion failed")
    Q = BasedSpace.build(total.m, C.T)
    s = exact_seq_orient([sub, total, Q], [np.eye(total.m), _projection(MS, C)])
    return Q if s == 1 else Q.flipped()


def boundary_orient(interior, outward):
    """Oriented boundary at the outward vector:
    0 -> boundary -> interior -> R outward -> 0 has sign +1, so that
    (boundary-basis ++ outward) orients the interior."""
    out = np.asarray(outward, dtype=float)[:, None]
    MI = interior.matrix()
    if interior.dim == 0:
        raise DimensionMismatch("boundary of a zero space is undefined")
    # outward must lie in the interior space and be nonzero
    recon = MI @ np.linalg.lstsq(MI, out, rcond=None)[0]
    if np.linalg.norm(recon - out) > 1e-8 * max(1.0, np.linalg.norm(out)):
        raise DegenerateOutward("outward vector not inside the space")
    if np.linalg.norm(out) < _DET_TOL:
        raise DegenerateOutward("outward vector vanishes")
    C = _complete_inside(out, MI)
    if C.shape[1] != interior.dim - 1:
        raise DegenerateOutward("completion failed")
    bd = BasedSpace.build(interior.m, C.T)
    s = exact_seq_orient([bd, interior, BasedSpace.build(interior.m, out.T)],
                         [np.eye(interior.m), _projection(C, out)])
    return bd if s == 1 else bd.flipped()


def fibre_orient(X, Y, Z, phi, psi):
    """Oriented fibre product X x_Z Y inside R^{X.m} + R^{Y.m}:
    0 -> X x_Z Y -> X + Y -> Z -> 0 under phi - psi has sign
    (-1)^{dim Y dim Z}.  phi - psi must map X + Y into Z: a residual off Z
    above _DET_TOL max(1, |(phi - psi) on X + Y|) is refused."""
    M = np.zeros((X.m + Y.m, X.dim + Y.dim))   # X + Y, block by block
    M[:X.m, :X.dim], M[X.m:, X.dim:] = X.matrix(), Y.matrix()
    MZ = Z.matrix()
    g = np.concatenate([phi, np.negative(psi)], axis=1)
    f = MZ @ np.linalg.pinv(MZ) @ g
    residual = float(np.linalg.norm((g - f) @ M))
    if residual > _DET_TOL * max(1.0, np.linalg.norm(g @ M)):
        raise NotSubspace("phi - psi maps X + Y outside Z", residual=residual)
    K = _kernel(f @ M)
    if K.shape[1] != X.dim + Y.dim - Z.dim:
        raise NotTransverse("phi - psi is not surjective onto Z")
    W = BasedSpace.build(X.m + Y.m, (M @ K).T)
    XY = BasedSpace(X.m + Y.m, tuple(map(tuple, M.T)), X.sign * Y.sign)
    s = exact_seq_orient([W, XY, Z], [np.eye(X.m + Y.m), f])
    return W if s == (-1) ** (Y.dim * Z.dim) else W.flipped()


def cap_orient(X, Y, Z):
    """Oriented intersection X /\\ Y: 0 -> X /\\ Y -> X -> Z/Y -> 0 has sign
    +1, with Z/Y from quotient_orient (X + Y = Z assumed)."""
    MX, MY = X.matrix(), Y.matrix()
    K = _kernel(np.concatenate([MX, -MY], axis=1))
    W = BasedSpace.build(X.m, (MX @ K[:X.dim]).T)
    Q = quotient_orient(Z, Y)
    s = exact_seq_orient([W, X, Q], [np.eye(X.m), _projection(MY, Q.matrix())])
    return W if s == 1 else W.flipped()
