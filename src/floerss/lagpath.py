"""Paths of Lagrangian pairs, crossing forms, Robbin-Salamon / Maslov /
Viterbo indices.

Crossing-form convention: for a moving path F with v in F(s) /\\ Lambda,
Gamma(F, Lambda; s) v = d/dsigma omega(v, w(sigma)) where w(sigma) lies in
J F(s) and v + w(sigma) in F(sigma).  For a pair,
Gamma(F0, F1; s) = Gamma(F0, F1(s); s) - Gamma(F1, F0(s); s).
With these signs the rotation path s -> e^{sJ} Lambda has crossing form +1
and the graph path (Gr(B(s)), R^n x 0) localizes to
(1/2) sign B(b) - (1/2) sign B(a).

A path is its stack (``LagrangianPath.stack``: parameters -> a (B, 2n, n)
stack of frames spanning L(s)), F(s) a stack of one; composites stack theirs.

Indices and crossings are both read off the Souriau map S(L) = U U^T,
U = X + iY for an orthonormal frame [X; Y] of L (Arnold 1985;
Robbin-Salamon, Topology 1993), computed from any frame (``souriau``):
W(s) = S(F1(s)) conj(S(F0(s))) is unitary, does not depend on the frames,
and has eigenvalue 1 with multiplicity dim F0(s) /\\ F1(s).  One sampler
(``_souriau_samples``) evaluates W on one batched stack of frames
(``LagrangianPath.frames``) and bisects the cells where it turns fast; a
cell's turn is the angle of one determinant where a Frobenius bound
certifies the cell small (``_cell_turns``), an eigen-decomposition
elsewhere.  ``rs_index`` is minus the winding of det W over 2 pi plus
endpoint corrections from the eigenvalue angles of W at a and b; it looks
for no crossings.  ``find_crossings`` locates the samples on the
intersection and the cells where an eigenvalue angle passes 0, bisects
those on the net passage count (``_bisect_passages``: it reuses the
sampler's cell turns and halves every bracket once per round, all
midpoints in one stacked call; ``spectrum.eigenvalues`` certifies the same
brackets without bisecting and falls back to it where it cannot), and
evaluates ``crossing_form`` and ``signature_of`` at the located points.  A
tangency strictly between two samples is not located; it adds 0 to the
index.  The crossing forms are computed by finite differences of the
paths, not from W, and serve as the test oracle of ``rs_index``.
"""

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import (DegenerateCrossing, DimensionMismatch, EndpointMismatch,
                     GraphDecompositionFailed, GridTooCoarse, IntegrationFailure,
                     NonIntegerIndex, NonIsolatedCrossings, NotALoop, NotFullRank)
from . import symplin as sl


# -- path objects -------------------------------------------------------------


@dataclass(frozen=True)
class LagrangianPath:
    """A path [a, b] -> Lagrangian Grassmannian, given by its stack.

    ``stack`` maps an array of parameters to a (B, 2n, n) stack of frames
    whose columns span L(s), not necessarily orthonormal; ``frames`` is that
    stack checked, and ``F(s)`` is a stack of one, orthonormalized by QR.
    """

    n: int
    a: float
    b: float
    stack: callable = field(repr=False)  # ss -> (B, 2n, n)
    kind: str = "sampled"

    def _at(self, s):
        """The orthonormal frame at s; ``start`` and ``end`` read it here, so
        that the benchmark's count of ``__call__`` stays a count of samples."""
        return sl.LagrangianFrame(n=self.n, frame=np.linalg.qr(
            self.stack(np.array([s], dtype=float))[0])[0])

    def __call__(self, s):
        return self._at(s)

    def frames(self, ss):
        """Frames spanning L at the parameters ss, as a (B, 2n, n) stack.

        Raises NotFullRank when a frame has non-finite entries.
        """
        out = self.stack(np.asarray(ss, dtype=float))
        if not np.all(np.isfinite(out)):
            raise NotFullRank("frame has non-finite entries")
        return out

    @property
    def start(self):
        return self._at(self.a)

    @property
    def end(self):
        return self._at(self.b)

    def restrict(self, a, b):
        """The path on [a, b], which must lie in [self.a, self.b] (else
        DimensionMismatch)."""
        if not self.a <= a < b <= self.b:
            raise DimensionMismatch(
                f"[{a}, {b}] is not a subinterval of [{self.a}, {self.b}]",
                interval=[a, b])
        return LagrangianPath(self.n, a, b, self.stack, self.kind)


def constant_lagrangian_path(frame, a=0.0, b=1.0):
    return LagrangianPath(
        frame.n, a, b,
        lambda ss: np.broadcast_to(frame.frame, (len(ss),) + frame.frame.shape),
        "constant")


def rotation_path(theta, base, a=0.0, b=1.0):
    """s -> e^{theta(s) J} . span(base); theta maps an (m,) array of
    parameters to the (m,) array of angles."""
    n = base.n
    X, Y = base.frame[:n, :], base.frame[n:, :]

    def stack(ss):
        th = np.asarray(theta(ss), dtype=float)[:, None, None]
        c, s = np.cos(th), np.sin(th)
        return np.concatenate([c * X - s * Y, s * X + c * Y], axis=1)

    return LagrangianPath(n, a, b, stack, "rotation")


def graph_path(B, a=0.0, b=1.0):
    """s -> graph of the symmetric matrix B(s), framed by [I; B(s)]; B maps
    an (m,) array of parameters to the (m, n, n) stack of matrices."""
    n = np.shape(B(np.array([a], dtype=float)))[-1]
    return LagrangianPath(n, a, b, lambda ss: sl.graph_frames(B(ss)), "graph")


def fundamental_image_path(flow, base, a=0.0, b=1.0):
    """t -> Psi(t) . span(base) for a ``symplin.FundamentalFlow``, on an
    interval whose ends lie in [0, 1], where the flow is defined (else
    IntegrationFailure)."""
    if not (0.0 <= a <= 1.0 and 0.0 <= b <= 1.0):
        raise IntegrationFailure(
            f"the flow is defined on [0, 1], not on [{a}, {b}]", interval=[a, b])

    return LagrangianPath(base.n, a, b, lambda ts: flow.at(ts) @ base.frame,
                          "fundamental")


def sampled_path(samples, a=None, b=None):
    """Piecewise-linear interpolation of (s, frame) samples, re-orthonormalized."""
    pts = sorted(samples, key=lambda p: p[0])
    ss = np.array([p[0] for p in pts], dtype=float)
    Fs = np.stack([p[1].frame for p in pts])
    n = pts[0][1].n
    a = ss[0] if a is None else a
    b = ss[-1] if b is None else b
    last = len(ss) - 1

    def stack(x):
        # outside (ss[0], ss[-1]) the end samples; inside ss[k] <= x < ss[k+1]
        inner = (x > ss[0]) & (x < ss[-1])
        k = np.where(inner, np.searchsorted(ss, x, side="right") - 1,
                     np.where(x >= ss[-1], last, 0))
        k1 = np.minimum(k + 1, last)
        t = np.where(inner, (x - ss[k]) / np.where(inner, ss[k1] - ss[k], 1.0),
                     0.0)[:, None, None]
        return sl.validate_lagrangian((1 - t) * Fs[k] + t * Fs[k1]).frame

    return LagrangianPath(n, a, b, stack, "sampled")


def concatenate(p1, p2):
    """Concatenation; p1.b must equal p2.a and the frames must agree there.
    The parameters up to p1.b are p1's, the others p2's."""
    if abs(p1.b - p2.a) > 1e-12 or not p1.end.equals(p2.start, tol=1e-7):
        raise EndpointMismatch("paths do not match at the junction")

    def stack(ss):
        out = np.empty((len(ss), 2 * p1.n, p1.n))
        left = ss <= p1.b
        for part, p in ((left, p1), (~left, p2)):
            if part.any():
                out[part] = p.stack(ss[part])
        return out

    return LagrangianPath(p1.n, p1.a, p2.b, stack, "concat")


def _framed(p, ss):
    """The frames of p at ss as one stacked LagrangianFrame."""
    return sl.LagrangianFrame(n=p.n, frame=p.stack(ss))


def direct_sum_path(p1, p2):
    if (p1.a, p1.b) != (p2.a, p2.b):
        raise DimensionMismatch("direct sum requires equal parameter intervals")
    return LagrangianPath(
        p1.n + p2.n, p1.a, p1.b,
        lambda ss: sl.direct_sum_frames(_framed(p1, ss), _framed(p2, ss)).frame,
        "sum")


def transform_path(Psi, p):
    """Apply a constant symplectic matrix to every frame of the path."""
    return LagrangianPath(
        p.n, p.a, p.b, lambda ss: sl.transform_frame(Psi, _framed(p, ss)).frame,
        p.kind)


def perturb_path(F, delta, fix_endpoints=True):
    """s -> e^{delta beta(s) J} F(s) with a smooth bump beta.

    For generic small delta all interior crossings of the perturbed pair are
    regular; with fix_endpoints the bump (and its derivative) vanish at a, b.
    """
    a, b = F.a, F.b
    if delta == 0.0:
        return F
    if fix_endpoints:
        # sin bump: vanishes at the endpoints with nonzero slope, so a
        # perturbed constant pair gets regular endpoint crossings of
        # opposite sign (zero axiom: 1/2 - 1/2 = 0)
        def beta(s):
            x = (s - a) / (b - a)
            return np.sin(np.pi * x)
    else:
        def beta(s):
            return 1.0 + 0.3 * np.sin(2.0 * (s - a) / (b - a))

    def stack(ss):
        return sl.transform_frame(sl.rotation(F.n, delta * beta(ss)),
                                  _framed(F, ss)).frame

    return LagrangianPath(F.n, a, b, stack, "perturbed")


# -- crossings -----------------------------------------------------------------


@dataclass(frozen=True)
class Crossing:
    s: float
    intersection_basis: np.ndarray = field(repr=False)
    form: np.ndarray = field(repr=False)
    signature: int
    regular: bool
    dim: int
    plateau: bool = False


def graph_coordinates(F, s, ref_frame):
    """Write F(sigma) near s as a graph over span(Q) = span(ref_frame).

    Returns the symmetric matrix M(sigma) with
    F(sigma) = {Q a + J Q M(sigma) a}; M(s) = 0.
    """
    Q = ref_frame.frame
    n = ref_frame.n
    JQ = sl.J_std(n) @ Q

    def M_at(sigma):
        W = F(sigma).frame
        A = Q.T @ W
        B = JQ.T @ W
        c = np.linalg.cond(A)
        if not np.isfinite(c) or c > 1e8:
            raise GraphDecompositionFailed(
                "frame not transverse to J times reference; reduce h",
                condition_number=float(c))
        M = B @ np.linalg.inv(A)
        return 0.5 * (M + M.T)

    return M_at


def _derivative_matrix(M_at, s, h, lo, hi):
    """Second-order d/dsigma M(sigma) at s, one-sided at interval ends."""
    if s - h >= lo and s + h <= hi:
        return (M_at(s + h) - M_at(s - h)) / (2.0 * h)
    if s + 2 * h <= hi:
        return (-3.0 * M_at(s) + 4.0 * M_at(s + h) - M_at(s + 2 * h)) / (2.0 * h)
    return (3.0 * M_at(s) - 4.0 * M_at(s - h) + M_at(s - 2 * h)) / (2.0 * h)


# finite-difference step of crossing_form, relative to the interval
_FD_STEP_REL = 1e-5


def crossing_form(F0, F1, s, basis=None):
    """Crossing form of the pair (F0, F1) at s on the intersection basis.

    Returns (form, basis).  The form combines the moving-F0 and moving-F1
    contributions with the relative minus sign of the pair formula.
    """
    h = _FD_STEP_REL * (F0.b - F0.a)
    A0, A1 = F0(s), F1(s)
    if basis is None:
        basis = sl.intersection_basis(A0, A1)
    if basis.shape[1] == 0:
        raise DegenerateCrossing(f"no intersection at s={s}", s=s)
    d = basis.shape[1]
    lo, hi = F0.a, F0.b

    out = np.zeros((d, d))
    for path, ref, sign in ((F0, A0, +1.0), (F1, A1, -1.0)):
        if path.kind == "constant":
            continue
        M_at = graph_coordinates(path, s, ref)
        dM = _derivative_matrix(M_at, s, h, lo, hi)
        C = ref.frame.T @ basis          # basis in ref-frame coordinates
        out = out + sign * (C.T @ dM @ C)
    return 0.5 * (out + out.T), basis


# relative eigenvalue cutoff of a crossing form, and its absolute floor at
# the finite-difference noise
_DEGENERACY_TOL, _DEGENERACY_ABS = 1e-6, 1e-8


def signature_of(form):
    """(signature, regular) of a symmetric matrix under the degeneracy tolerance.

    The cutoff combines the relative tolerance with an absolute floor at the
    finite-difference noise level, so tangential crossings whose form is
    entirely truncation noise are flagged degenerate.
    """
    w = np.linalg.eigvalsh(form)
    scale = max(float(np.max(np.abs(w))), 1e-30)
    cut = max(_DEGENERACY_TOL * scale, _DEGENERACY_ABS)
    pos = int(np.sum(w > cut))
    neg = int(np.sum(w < -cut))
    regular = pos + neg == len(w)
    return pos - neg, regular


def souriau(frames):
    """Souriau map S(L) = U U^T (U = X + iY, [X; Y] orthonormal) of the L
    spanned by each of a (..., 2n, n) stack of frames: Z = X + iY is U A, A
    real, so S(L) = Z^{-H} Z^T, one batched solve (NotFullRank if singular)."""
    n = frames.shape[-1]
    ZT = np.swapaxes(frames[..., :n, :] + 1j * frames[..., n:, :], -1, -2)
    try:
        S = np.linalg.solve(ZT.conj(), ZT)
    except np.linalg.LinAlgError:
        S = np.nan
    if not np.isfinite(S).all():
        raise NotFullRank("X + iY of a frame is singular (not Lagrangian)")
    return S


# the Frobenius distance |W0^H W1 - I| up to which _cell_turns certifies a cell
_CERTIFIED = 0.95


def _cell_turns(W0, W1):
    """Per cell of stacks of unitaries W0, W1: the turn of det W (the sum
    of the eigenvalue angles phi_j of P = W0^H W1) and a bound of max |phi_j|.

    P is unitary, so f = |P - I|_F has f^2 = sum_j 4 sin^2(phi_j / 2).  When
    f <= min(0.95, 1.9 / sqrt(n)), every |phi_j| is at most 2 arcsin(f / 2)
    < 1, hence 2 |sin(phi_j / 2)| >= 0.95 |phi_j| and sum_j |phi_j| <=
    sqrt(n) f / 0.95 < pi; so the turn is angle(det P) and the bound is
    2 arcsin(f / 2).  The other cells take the angles from eigvals and
    return the largest modulus.  Either way the bound exceeds 1 exactly when
    the largest angle does.
    """
    P = np.swapaxes(W0.conj(), -1, -2) @ W1
    n = P.shape[-1]
    D = P - np.eye(n)
    f = np.sqrt(np.sum(D.real ** 2 + D.imag ** 2, axis=(-2, -1)))
    ok = f <= min(_CERTIFIED, 1.9 / np.sqrt(n))
    turn, worst = np.empty(f.shape), np.empty(f.shape)
    turn[ok] = np.angle(np.linalg.det(P[ok]))
    # rounded up by 1e-12 relative: at n = 1 the bound is the angle itself
    worst[ok] = 2.0 * np.arcsin(0.5 * f[ok]) * (1.0 + 1e-12)
    if not ok.all():
        ang = np.angle(np.linalg.eigvals(P[~ok]))
        turn[~ok], worst[~ok] = ang.sum(axis=-1), np.abs(ang).max(axis=-1)
    return turn, worst


def _angles(W):
    """Eigenvalue angles of a stack of unitaries."""
    return np.angle(np.linalg.eigvals(W))


def _h(phi, cut=0.0):
    """sum_j 1/2 - (phi_j mod 2 pi) / 2 pi over a stack of eigenvalue
    angles, leaving out the angles below ``cut``."""
    return np.sum(np.where(np.abs(phi) < cut, 0.0,
                           0.5 - np.mod(phi, 2 * np.pi) / (2 * np.pi)), axis=-1)


# cells of the first sample grid by default, and most samples of a pair
_CROSSING_GRID, _MAX_SAMPLES = 256, 2 ** 14


def _souriau_samples(F0, F1, grid):
    """W(s) = S(F1(s)) conj(S(F0(s))) of the pair on samples close enough to
    follow its eigenvalues.

    Returns (s, W, turn, W_at): the samples, W at each, the turn of det W
    over each cell (the sum of the eigenvalue angles of W_k^H W_{k+1}) and
    the stacked evaluator of W.  The first grid has ``grid`` cells, and the
    frames of its grid + 1 points are one stack; a cell in which one of the
    angles exceeds 1 rad is bisected until none does.  A pair whose map
    still turns that fast where refining passes 2^14 samples or a cell
    width of (b - a) / 2^14 raises GridTooCoarse with the samples reached.
    """
    if F0.n != F1.n or (F0.a, F0.b) != (F1.a, F1.b):
        raise DimensionMismatch("paths must share interval and half-dimension")
    grid = _CROSSING_GRID if grid is None else int(grid)
    if grid < 1:
        raise GridTooCoarse(f"grid must be a positive integer, got {grid}", grid=grid)
    a, b = F0.a, F0.b
    # a constant path's Souriau map is computed once
    fixed = [souriau(F.frames([a])) if F.kind == "constant" else None
             for F in (F0, F1)]

    def W_at(ss):
        S0, S1 = (souriau(F.frames(ss)) if S is None else S
                  for F, S in zip((F0, F1), fixed))
        return np.broadcast_to(S1 @ S0.conj(), (len(ss), F0.n, F0.n))

    s = np.linspace(a, b, grid + 1)
    W = W_at(s)
    turn, worst = _cell_turns(W[:-1], W[1:])
    while True:
        bad = np.flatnonzero(worst > 1.0)
        if not len(bad):
            return s, W, turn, W_at
        if (len(s) + len(bad) > _MAX_SAMPLES
                or np.min(s[bad + 1] - s[bad]) < (b - a) / _MAX_SAMPLES):
            raise GridTooCoarse(
                "the Souriau map of the pair still turns by more than 1 rad "
                f"in a cell at {len(s)} samples, and refining it passes the "
                f"limit of {_MAX_SAMPLES} samples", samples=len(s))
        mid = 0.5 * (s[bad] + s[bad + 1])
        Wm = W_at(mid)
        left, left_worst = _cell_turns(W[bad], Wm)
        right, right_worst = _cell_turns(Wm, W[bad + 1])
        # after the insertion cell bad[j] sits at bad[j] + j, its right half after it
        at = bad + np.arange(len(bad))
        s = np.insert(s, bad + 1, mid)
        W = np.insert(W, bad + 1, Wm, axis=0)
        turn = np.insert(turn, bad + 1, right)
        worst = np.insert(worst, bad + 1, right_worst)
        turn[at], worst[at] = left, left_worst


def _passages(turn, h0, h1):
    """Net number of eigenvalue angles of W passing 0 counterclockwise in a
    cell, from its turn and h at its ends (an integer)."""
    return np.rint(turn / (2 * np.pi) + h1 - h0)


def _unhalvable(width):
    """The refusal of a bracket wider than ``width`` whose midpoint is one
    of its ends."""
    return GridTooCoarse(f"a bracket cannot be halved down to width {width}",
                         tol=float(width))


def _bisect_passages(W_at, s, W, phi, turn, cells, width):
    """Bisect the cells [s[k], s[k + 1]], k in ``cells``, of the samples s
    of the stacked evaluator W_at (W = W_at(s), phi its eigenvalue angles,
    turn the ``_cell_turns`` turn of each cell) on their net passage counts
    (``_passages``) until no bracket is wider than ``width``, keeping every
    half whose count is nonzero.  Returns the final brackets and their
    counts.

    Each round halves every bracket wider than ``width`` with one stacked
    W_at call on all the midpoints and counts both halves.  A bracket whose
    midpoint is one of its ends cannot be halved (GridTooCoarse).
    """
    # brackets are index pairs into the samples; midpoints are appended
    h = _h(phi)
    count = _passages(turn[cells], h[cells], h[cells + 1])
    lo, count = cells[count != 0], count[count != 0]
    hi = lo + 1
    while True:
        wide = s[hi] - s[lo] > width
        if not wide.any():
            return s[lo], s[hi], count
        l, r = lo[wide], hi[wide]
        mid = 0.5 * (s[l] + s[r])
        if np.any((mid == s[l]) | (mid == s[r])):
            raise _unhalvable(width)
        m = len(s) + np.arange(len(mid))
        s = np.concatenate([s, mid])
        W = np.concatenate([W, W_at(mid)])
        h = np.concatenate([h, _h(_angles(W[m]))])
        a, b = np.concatenate([l, m]), np.concatenate([m, r])
        halves = _passages(_cell_turns(W[a], W[b])[0], h[a], h[b])
        lo = np.concatenate([lo[~wide], a[halves != 0]])
        hi = np.concatenate([hi[~wide], b[halves != 0]])
        count = np.concatenate([count[~wide], halves[halves != 0]])


# the intersection angle (rs_index's too) and bracket width of find_crossings
_CROSSING_ACCEPT_ANGLE, _CROSSING_REFINE_TOL = 1e-7, 1e-11


def find_crossings(F0, F1, grid=None):
    """Locate the crossings of the pair on [a, b] and evaluate their forms.

    The samples are those of ``rs_index``.  A sample at which an eigenvalue
    angle of W is below 2 ``_CROSSING_ACCEPT_ANGLE`` lies on F0 /\\ F1; a
    run of two or more such samples is a plateau, reported once at its
    first sample.  The other cells are bisected on their passage counts
    (``_bisect_passages``) to ``_CROSSING_REFINE_TOL`` max(b - a, 1),
    and a crossing is the midpoint of a last bracket.  Passages that cancel
    inside one cell (a tangency strictly between samples) are not located;
    they add 0 to the index.
    """
    s, W, turn, W_at = _souriau_samples(F0, F1, grid)
    cut = 2.0 * _CROSSING_ACCEPT_ANGLE
    phi = _angles(W)
    on = np.min(np.abs(phi), axis=-1) < cut
    idx = np.flatnonzero(on)
    runs = np.split(idx, np.flatnonzero(np.diff(idx) > 1) + 1) if len(idx) else []
    located = [(float(s[r[0]]), len(r) > 1) for r in runs]

    los, his, _ = _bisect_passages(
        W_at, s, W, phi, turn, np.flatnonzero(~on[:-1] & ~on[1:]),
        _CROSSING_REFINE_TOL * max(F0.b - F0.a, 1.0))
    located += [(float(x), False) for x in 0.5 * (los + his)]

    crossings = []
    for s_star, plateau in sorted(located):
        basis = sl.intersection_basis(F0(s_star), F1(s_star))
        if basis.shape[1] == 0:
            continue
        form, basis = crossing_form(F0, F1, s_star, basis=basis)
        sig, regular = signature_of(form)
        crossings.append(Crossing(s=s_star, intersection_basis=basis,
                                  form=form, signature=sig,
                                  regular=regular and not plateau,
                                  dim=basis.shape[1], plateau=plateau))
    return crossings


def rs_index(F0, F1, grid=None):
    """Robbin-Salamon index of the pair, as an exact Fraction.

    With W(s) = S(F1(s)) conj(S(F0(s))) (``souriau``) and phi_j the
    eigenvalue angles of W,

        mu_RS = -( wind(det W) / 2 pi + sum_j g(phi_j(b)) - sum_j g(phi_j(a)) ),

    g(phi) = 1/2 - (phi mod 2 pi) / 2 pi, and g = 0 where |phi| is below
    2 ``_CROSSING_ACCEPT_ANGLE`` (the pair intersects there).  This equals
    (1/2) sign Gamma(a) + sum of sign Gamma over interior crossings
    + (1/2) sign Gamma(b) whenever the crossings are regular, and it is
    defined for every continuous path, degenerate or non-isolated
    crossings included.

    ``grid`` is the number of cells of the first sample grid on [a, b]
    (``_souriau_samples``); the winding is the sum of the turns of det W
    over the cells.
    """
    _, W, turn, _ = _souriau_samples(F0, F1, grid)
    cut = 2.0 * _CROSSING_ACCEPT_ANGLE
    mu = -(float(np.sum(turn)) / (2 * np.pi)
           + float(_h(_angles(W[-1]), cut)) - float(_h(_angles(W[0]), cut)))
    twice = round(2 * mu)
    if abs(2 * mu - twice) > 2e-6:
        raise NonIntegerIndex(f"Souriau count {mu!r} is not a half-integer",
                              value=repr(mu))
    return Fraction(twice, 2)


def maslov_loop(F, ref, grid=None):
    """Maslov index of a closed path, via rs_index against a constant reference."""
    if not F.start.equals(F.end, tol=1e-7):
        raise NotALoop("path endpoints span different subspaces")
    mu = rs_index(F, constant_lagrangian_path(ref, F.a, F.b), grid=grid)
    if mu.denominator != 1:
        raise NonIsolatedCrossings(f"loop index {mu} is not an integer")
    return int(mu)


def diagonal_loop(psi):
    """Lagrangian loop of graph type on [0, 1] built from a unitary loop psi(s)
    in U(n).

    The pair (C^n x C^n, omega + (-omega)) is identified with
    (C^{2n}, omega_std) by conjugating the first factor, so the loop
    {(conj(z), psi(s) z)} realizes Maslov index = 2 deg det(psi).
    """
    n0 = np.asarray(psi(0.0)).shape[0]
    n = 2 * n0
    eye = np.eye(n0)

    def stack(ss):
        P = np.array([psi(s) for s in ss], dtype=complex)
        # columns 2j, 2j + 1: (conj(z), P z) for z = e_j, i e_j
        cols = np.stack([
            np.concatenate([np.broadcast_to(eye, P.shape), P], axis=1),
            np.concatenate([np.broadcast_to(-1j * eye, P.shape), 1j * P], axis=1),
        ], axis=-1).reshape(len(P), n, n)
        return sl.validate_lagrangian(
            np.concatenate([cols.real, cols.imag], axis=1)).frame

    return LagrangianPath(n, 0.0, 1.0, stack, "diagonal")


def viterbo_index(F0, F1, Fm, Fp, grid=None):
    """mu_RS(F0, F1) + mu_RS(F+, F1(1)) - mu_RS(F-, F1(-1)).

    F0, F1 live on [-1, 1]; Fm, Fp on [0, 1] with Fm(0) = F0(-1) and
    Fp(0) = F0(1) as subspaces.
    """
    if not Fm.start.equals(F0.start, tol=1e-7):
        raise EndpointMismatch("F-(0) must span F0(-1)")
    if not Fp.start.equals(F0.end, tol=1e-7):
        raise EndpointMismatch("F+(0) must span F0(1)")
    c1 = constant_lagrangian_path(F1.end, Fp.a, Fp.b)
    cm = constant_lagrangian_path(F1.start, Fm.a, Fm.b)
    return (rs_index(F0, F1, grid=grid) + rs_index(Fp, c1, grid=grid)
            - rs_index(Fm, cm, grid=grid))
