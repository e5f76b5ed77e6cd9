"""GF(2) linear algebra on lists of Python-int columns.

A matrix is a list of columns and bit i of column j is entry (i, j); the
number of rows is left implicit.  A vector is one such int, and a vector of
coefficients on the columns of a matrix has bit j for column j.  Every
function reads the one leading-bit elimination of ``rref``.
"""


def asgf2(M):
    """The columns of an outside 0/1 matrix: nested lists of rows or a 2-d
    array (any object with ``tolist``), entries taken mod 2."""
    cols = M.T.tolist() if hasattr(M, "tolist") else zip(*M)
    return [sum((int(x) % 2) << i for i, x in enumerate(c)) for c in cols]


def bits(v):
    """Indices of the set bits of v, ascending."""
    while v:
        low = v & -v
        yield low.bit_length() - 1
        v ^= low


def product(cols, v):
    """d . v: the sum of the columns cols[j] over the set bits j of v."""
    out = 0
    for j in bits(v):
        out ^= cols[j]
    return out


def _reduce(pivots, v, combo):
    """Reduce v by the pivots sharing its leading bit until it is zero or
    opens a new pivot; combo records the input columns added to it."""
    while v:
        top = v.bit_length()
        if top not in pivots:
            break
        pv, pc = pivots[top]
        v ^= pv
        combo ^= pc
    return v, combo


def rref(cols):
    """The leading-bit elimination of the columns, in order.

    Returns (pivots, kernel): pivots maps the leading bit of each nonzero
    reduced column to (reduced column, the input columns it sums), one per
    column independent of the earlier ones; kernel holds, for each column
    that reduces to zero, the input columns that sum to zero.  Both sums
    are bitsets over column indices; the highest bit of a pivot's sum is
    the input column that opened it."""
    pivots = {}
    kernel = []
    for j, c in enumerate(cols):
        c, combo = _reduce(pivots, c, 1 << j)
        if c:
            pivots[c.bit_length()] = (c, combo)
        else:
            kernel.append(combo)
    return pivots, kernel


def _independent(cols):
    """Indices of the columns independent of the columns before them."""
    return sorted(pc.bit_length() - 1 for _, pc in rref(cols)[0].values())


def rank(M):
    return len(rref(M)[0])


def kernel(M):
    """Basis of the null space, as coefficient vectors on the columns."""
    return rref(M)[1]


def column_space(M):
    """Subset of columns forming a basis of the column space."""
    return [M[j] for j in _independent(M)]


def solve(A, B):
    """One solution x of A x = b for each column b of B, or None when one
    of them is inconsistent."""
    pivots, _ = rref(A)
    out = []
    for b in B:
        rest, combo = _reduce(pivots, b, 0)
        if rest:
            return None
        out.append(combo)
    return out


def in_span(B, v):
    """Is every column of v in the column space of B?"""
    return solve(B, v) is not None


def sum_basis(*mats):
    """Basis of the sum of column spaces."""
    return column_space([c for M in mats for c in M])


def complement_in(B, S):
    """Columns of S completing span(B) to span(B) + span(S); greedy."""
    n = len(B)
    return [S[j - n] for j in _independent(list(B) + list(S)) if j >= n]


def coordinates_mod(B, D, v):
    """Coordinates of v in span(B) modulo span(D): solve [B | D] x = v and
    return the B-part.  Raises ValueError when v is outside span(B)+span(D)."""
    x = solve(list(B) + list(D), v)
    if x is None:
        raise ValueError("vector outside the span")
    mask = (1 << len(B)) - 1
    return [c & mask for c in x]
