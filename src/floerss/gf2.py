"""Dense GF(2) linear algebra on numpy uint8 arrays (columns = vectors)."""

import numpy as np


def asgf2(M):
    return (np.asarray(M, dtype=np.int64) % 2).astype(np.uint8)


def rref(M):
    """Reduced row echelon form; returns (R, pivot_columns)."""
    R = asgf2(M).copy()
    rows, cols = R.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        piv = None
        for i in range(r, rows):
            if R[i, c]:
                piv = i
                break
        if piv is None:
            continue
        R[[r, piv]] = R[[piv, r]]
        mask = R[:, c].copy()
        mask[r] = 0
        R[mask == 1] ^= R[r]
        pivots.append(c)
        r += 1
    return R, pivots


def rank(M):
    """Rank by leading-bit elimination on rows packed into Python ints:
    each row is reduced by the pivot sharing its leading bit until it is
    zero or opens a new pivot."""
    M = asgf2(M)
    if M.size == 0:
        return 0
    pivots = {}
    for row in np.packbits(M, axis=1):
        r = int.from_bytes(row.tobytes(), "big")
        while r:
            top = r.bit_length()
            if top not in pivots:
                pivots[top] = r
                break
            r ^= pivots[top]
    return len(pivots)


def kernel(M):
    """Basis of the null space (columns), for M acting on column vectors."""
    M = asgf2(M)
    rows, cols = M.shape
    R, pivots = rref(M)
    free = [c for c in range(cols) if c not in pivots]
    out = np.zeros((cols, len(free)), dtype=np.uint8)
    for k, fc in enumerate(free):
        out[fc, k] = 1
        for r, pc in enumerate(pivots):
            if R[r, fc]:
                out[pc, k] = 1
    return out


def column_space(M):
    """Subset of columns forming a basis of the column space."""
    M = asgf2(M)
    if M.size == 0:
        return M.reshape(M.shape[0], 0)
    _, pivots = rref(M)
    return M[:, pivots]


def solve(A, b):
    """One solution of A x = b (columns), or None when inconsistent.

    b may be a matrix; returns a matrix of solutions column by column.
    """
    A = asgf2(A)
    b = asgf2(b)
    if b.ndim == 1:
        b = b[:, None]
    aug = np.concatenate([A, b], axis=1)
    R, pivots = rref(aug)
    n = A.shape[1]
    if any(p >= n for p in pivots):
        return None
    X = np.zeros((n, b.shape[1]), dtype=np.uint8)
    for r, pc in enumerate(pivots):
        X[pc, :] = R[r, n:]
    return X


def in_span(B, v):
    """Is every column of v in the column space of B?"""
    return solve(B, v) is not None


def sum_basis(*mats):
    """Basis of the sum of column spaces."""
    mats = [asgf2(M) for M in mats if M.size]
    if not mats:
        return np.zeros((0, 0), dtype=np.uint8)
    return column_space(np.concatenate(mats, axis=1))


def complement_in(B, S):
    """Columns of S completing span(B) to span(B) + span(S); greedy."""
    B = asgf2(B)
    S = asgf2(S)
    cur = B.copy()
    picked = []
    for j in range(S.shape[1]):
        cand = S[:, j:j + 1]
        if cur.size == 0:
            cur = cand.copy()
            picked.append(j)
            continue
        if not in_span(cur, cand):
            cur = np.concatenate([cur, cand], axis=1)
            picked.append(j)
    return S[:, picked]


def coordinates_mod(B, D, v):
    """Coordinates of v in span(B) modulo span(D): solve [B | D] x = v and
    return the B-part.  Raises ValueError when v is outside span(B)+span(D)."""
    B = asgf2(B)
    D = asgf2(D)
    v = asgf2(v)
    if v.ndim == 1:
        v = v[:, None]
    if B.shape[1] == 0:
        if D.shape[1] == 0:
            if np.any(v):
                raise ValueError("vector outside the span")
            return np.zeros((0, v.shape[1]), dtype=np.uint8)
        x = solve(D, v)
        if x is None:
            raise ValueError("vector outside the span")
        return np.zeros((0, v.shape[1]), dtype=np.uint8)
    A = np.concatenate([B, D], axis=1) if D.size else B
    x = solve(A, v)
    if x is None:
        raise ValueError("vector outside the span")
    return x[:B.shape[1], :]
