"""Spectra of boundary operators A = J d/dt + sigma on [0, 1] with
Lagrangian boundary conditions, plus the Fredholm index formulas.

Eigenvalue reporting convention: an eigenvalue rho is reported when the
boundary problem J xi' + (sigma + rho) xi = 0, xi(0) in L0, xi(1) in L1
has a nontrivial solution, i.e. when the fundamental solution of
sigma + rho maps L0 to a subspace meeting L1.  With this sign the flat
model sigma = 0, L1 = e^{alpha J} L0 reports exactly alpha + pi Z (the
angle progression), and the spectral gap and kernel agree with those of
A = J d/dt + sigma, which are reflection invariant.

``eigenvalues`` counts eigenvalues as crossings: rho -> Psi_{sigma+rho}(1) L0
is a positive path, so the eigenvalues in a rho-interval are the net
number of eigenvalue angles of the Souriau map of that path against L1
that pass 1 (Robbin-Salamon, "The spectral flow and the Maslov index",
Bull. LMS 1995).  The path is entire in rho; one Chebyshev interpolant of
it, one flow pass as a rule, is scanned as by ``lagpath.find_crossings``
(``lagpath._souriau_samples``).  The scan's eigenvalue angles are taken
only at the ends of the cells that may count (``_may_count``: one Hermitian
eigenvalue problem per sample), and the cells that count are refined by
``_locate``, the one fast locator: a secant root of the eigenvalue angle
nearest 0, the bisection's halvings replayed on it, and one evaluated
count that certifies the bracket bisection returns, since all passages of
a positive path have the same sign.  Cells it cannot certify are bisected
(``lagpath._bisect_passages``, one stacked evaluation per halving).  A
count does not depend on how far apart the eigenvalues in a cell are, so
eigenvalues closer than one grid cell are all found.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (DeltaNotBelowGap, DimensionMismatch, EndpointMismatch,
                     GridTooCoarse, IntegrationFailure, NonIntegerIndex,
                     WindowTooSmall)
from . import symplin as sl
from . import lagpath as lp


@dataclass(frozen=True)
class AsymptoticOperator:
    n: int
    sigma: sl.SymmetricPath
    boundary: tuple  # (Lambda0, Lambda1) LagrangianFrames

    def __post_init__(self):
        L0, L1 = self.boundary
        if L0.n != self.n or L1.n != self.n or self.sigma.n != self.n:
            raise DimensionMismatch("operator data has mismatched half-dimension")
        self.sigma.check()


def flat_model(alpha):
    """sigma = 0, L0 = R x 0, L1 = e^{alpha J} L0."""
    L0 = sl.horizontal(1)
    return AsymptoticOperator(n=1, sigma=sl.zero_path(1),
                              boundary=(L0, sl.rotate_frame(L0, alpha)))


@dataclass(frozen=True)
class SpectrumReport:
    window: tuple
    eigenvalues: tuple      # sorted (rho, multiplicity)
    gap: float              # None when no nonzero eigenvalue in the window
    kernel_dim: int


def _merge(los, his, counts):
    """Union of the brackets that overlap or touch, with summed counts."""
    order = np.argsort(los)
    los, his, counts = los[order], his[order], counts[order]
    first = np.flatnonzero(np.r_[True, los[1:] > np.maximum.accumulate(his)[:-1]])
    return (los[first], np.maximum.reduceat(his, first),
            np.add.reduceat(counts, first))


# the interpolant's most nodes; the largest principal-angle sine its oracle takes
_MAX_NODES, _ORACLE_TOL = 2 ** 10, 1e-8


def _frame_interpolant(A, reach):
    """rho -> Psi_{sigma+rho}(1) L0 on [-reach, reach], a stacked evaluator of
    Lagrangian frames: the Chebyshev series through m first-kind points.  The
    path is entire of exponential type 1, so m, from 2^ceil(log2(1.4 reach +
    16)), doubles only until the last 4 coefficients are below 1e-12 max(1,
    max |c|) or fall by less than 16x (the flows' own noise); past
    _MAX_NODES, GridTooCoarse.  The values are frames spanning the path.
    The oracle checks 4 points between the nodes, from their QR and one
    Newton-Schulz step to the unitary polar factor of X + iY; they ride in
    the nodes' ``shifted_flows`` call, so each m is one flow pass.
    """
    flows = sl.shifted_flows(A.sigma)
    n, frame = A.n, A.boundary[0].frame
    m, tail = 2 ** int(np.ceil(np.log2(1.4 * reach + 16))), np.inf
    while m <= _MAX_NODES:
        theta = np.pi * (np.arange(m) + 0.5) / m
        probe = reach * np.cos(
            np.pi * np.array([1, m // 3, 2 * m // 3, m - 1]) / m)
        values = flows(np.r_[reach * np.cos(theta), probe]) @ frame
        nodes = values[:m].reshape(m, -1)
        C = (2.0 / m) * np.cos(np.outer(np.arange(m), theta)) @ nodes
        C[0] *= 0.5
        last, tail = tail, np.abs(C[-4:]).max()
        if tail <= 1e-12 * max(1.0, np.abs(C).max()) or tail > last / 16:
            break
        m *= 2
    else:
        raise GridTooCoarse(f"[-{reach:.6g}, {reach:.6g}] needs more than "
                            f"{_MAX_NODES} nodes", nodes=m, window=reach)

    def at(rhos):
        T = np.cos(np.outer(np.arccos(np.divide(rhos, reach)), np.arange(m)))
        return (T @ C).reshape(len(T), 2 * n, n)

    q = np.linalg.qr(at(probe))[0]
    U = q[:, :n] + 1j * q[:, n:]
    U = U @ (1.5 * np.eye(n) - 0.5 * (np.swapaxes(U.conj(), 1, 2) @ U))
    err = float(sl.principal_angle_sines(
        sl.LagrangianFrame(n=n, frame=np.concatenate([U.real, U.imag], axis=1)),
        sl.validate_lagrangian(values[m:])).max())
    if not err <= _ORACLE_TOL:
        raise IntegrationFailure(f"the interpolant on {m} nodes is {err:.3e} "
                                 "from the flow", nodes=m, error=err)
    return at


# the screen's margin over the movement bound of a cell and the relative
# slack of its gap bound, and the locator's most secant rounds and settled
# step, relative to the bracket width
_SCREEN_MARGIN, _BOUND_SLACK, _SECANT_ROUNDS, _SETTLED = 1e-6, 1e-9, 6, 1e-3


def _gap_bound(W):
    """A lower bound of the distance of the spectrum of each unitary of the
    stack W from 1, less a relative slack ``_BOUND_SLACK`` for rounding.

    G = 2 I - W - W^H has the eigenvalues |lambda_j - 1|^2, so det G =
    |det(W - I)|^2 and tr G = 2 n - 2 Re tr W.  By AM-GM over the other
    n - 1 eigenvalues, each at most tr G / (n - 1), the least one is at
    least |det(W - I)|^2 ((n - 1) / tr G)^(n - 1); for n = 1 the bound is
    |W - 1| itself.
    """
    n = W.shape[-1]
    det = np.abs(W[:, 0, 0] - 1.0 if n == 1 else np.linalg.det(W - np.eye(n)))
    trace = 2.0 * n - 2.0 * np.trace(W, axis1=-2, axis2=-1).real
    with np.errstate(divide="ignore", invalid="ignore"):
        return (1.0 - _BOUND_SLACK) * det * ((n - 1) / trace) ** (0.5 * (n - 1))


def _may_count(W):
    """The cells between consecutive unitaries of the stack W whose passage
    count (``lagpath._passages``) can be nonzero, as a boolean mask.

    The count of a cell is read from its ends alone.  With f = |W1 - W0|_F
    >= |W1 - W0|_2, the spectra of the unitaries W0 and W1 can be matched
    within |W1 - W0|_2 (Bhatia-Davis-McIntosh), so each matched pair is an
    arc of at most theta = 2 arcsin(f / 2) apart, and each eigenvalue angle
    of W0^H W1 is at most theta too.  When n theta < pi, i.e. f < 2
    sin(pi / 2n), the turn (their sum) equals the sum of the matched arcs;
    when in addition no eigenvalue at one end lies within f of 1, no arc
    reaches angle 0, the angles at the other end stay off 0 too, and the
    count is 0.  So a cell is kept only when both of its ends have an
    eigenvalue within f of 1.  The distance of the spectrum from 1 is the
    square root of the least eigenvalue of the Hermitian 2 I - W - W^H; it
    is computed only at the samples whose lower bound (``_gap_bound``) does
    not already exceed f of both of their cells, since such a sample drops
    both cells whatever the exact distance is.  Both bounds carry
    ``_SCREEN_MARGIN``.
    """
    n = W.shape[-1]
    D = W[1:] - W[:-1]
    f = np.sqrt(np.sum(D.real ** 2 + D.imag ** 2, axis=(-2, -1))) + _SCREEN_MARGIN
    gap = _gap_bound(W)
    # the larger f of the cells on either side of each sample
    near = np.flatnonzero(~(gap > np.maximum(np.r_[f, 0.0], np.r_[0.0, f])))
    Wn = W[near]
    G = 2.0 * np.eye(n) - Wn - np.swapaxes(Wn.conj(), -1, -2)
    gap[near] = np.sqrt(np.maximum(np.linalg.eigvalsh(G)[:, 0], 0.0))
    return (f >= 2.0 * np.sin(np.pi / (2 * n))) | (np.maximum(gap[:-1], gap[1:]) <= f)


def _nearest_zero(phi):
    """The angle nearest 0 in each row of a stack of eigenvalue angles."""
    return phi[np.arange(len(phi)), np.argmin(np.abs(phi), axis=-1)]


def _halvings(L, R, x, eps, width):
    """The bracket that bisecting [L, R] to ``width`` ends in when the one
    passage in it lies at x, by the bisection's own arithmetic
    (``lagpath._bisect_passages``), or None when x lies within eps of one
    of the midpoints.  A bracket whose midpoint is one of its ends raises
    the bisection's GridTooCoarse."""
    while R - L > width:
        m = 0.5 * (L + R)
        if m == L or m == R:
            raise lp._unhalvable(width)
        if abs(x - m) <= eps:
            return None
        L, R = (L, m) if x < m else (m, R)
    return L, R


def _locate(W_at, s, W, turn, width):
    """The final brackets and passage counts of ``lagpath._bisect_passages``
    on the cells of the samples s (W = W_at(s), turn the cell turns), from
    at most ``_SECANT_ROUNDS`` + 1 stacked evaluations for all the cells it
    certifies, instead of one per halving.

    Eigenvalue angles are taken only at the ends of the cells that
    ``_may_count``.  In each cell that counts, Illinois secant steps on
    the eigenvalue angle nearest 0 (one stacked W_at call per round for all
    cells) run until a step is at most ``_SETTLED`` times the width.  The
    bisection's halvings are replayed on that root without an evaluation
    (``_halvings``), which gives its final bracket, and the counts of all
    these brackets are one stacked evaluation.  Every passage of the
    positive spectral path has the same sign, so when a bracket counts as
    much as its cell, every other half counts 0 and bisection returns that
    bracket.  The other cells go to ``_bisect_passages``: those without a
    sign change of the angle at their ends, those whose secant has not
    settled in ``_SECANT_ROUNDS`` rounds or whose root lies within the last
    step of a midpoint, and those whose bracket counts less than the cell
    (two eigenvalues in one cell).
    """
    cells = np.flatnonzero(_may_count(W))
    ends = np.zeros(len(s), bool)
    ends[cells] = ends[cells + 1] = True
    phi, h, near = np.full(W.shape[:-1], np.nan), np.zeros(len(s)), np.zeros(len(s))
    phi[ends] = lp._angles(W[ends])
    h[ends], near[ends] = lp._h(phi[ends]), _nearest_zero(phi[ends])
    count = lp._passages(turn[cells], h[cells], h[cells + 1])
    lo, count = cells[count != 0], count[count != 0]
    # (a) Illinois: b is the latest iterate, a the other end of the sign change
    act = np.flatnonzero(near[lo] * near[lo + 1] < 0)
    a, fa, b, fb = s[lo[act]], near[lo[act]], s[lo[act] + 1], near[lo[act] + 1]
    root, step = np.zeros(len(lo)), np.full(len(lo), np.inf)
    for _ in range(_SECANT_ROUNDS):
        if not len(act):
            break
        with np.errstate(divide="ignore", invalid="ignore"):
            x = b - fb * (b - a) / (fb - fa)
        x = np.where((x - a) * (x - b) <= 0, x, 0.5 * (a + b))
        fx = _nearest_zero(lp._angles(W_at(x)))
        root[act], step[act] = x, np.abs(x - b)
        keep = fx * fb > 0
        a, fa = np.where(keep, a, b), np.where(keep, 0.5 * fa, fb)
        b, fb = x, fx
        go = step[act] > _SETTLED * width
        act, a, fa, b, fb = act[go], a[go], fa[go], b[go], fb[go]
    # (b) the bisection's brackets of the roots, (c) their counts
    brackets = [_halvings(L, R, x, eps, width) if eps <= _SETTLED * width else None
                for L, R, x, eps in zip(s[lo].tolist(), s[lo + 1].tolist(),
                                        root.tolist(), step.tolist())]
    done = np.array([j for j, br in enumerate(brackets) if br is not None], int)
    LR = np.array([brackets[j] for j in done], float).reshape(-1, 2)
    We = W_at(LR.ravel())
    he = lp._h(lp._angles(We))
    turns = lp._cell_turns(We[::2], We[1::2])[0]
    ok = lp._passages(turns, he[::2], he[1::2]) == count[done]
    # the rest is bisected on the cells' own samples
    back = np.ones(len(lo), bool)
    back[done[ok]] = False
    back = lo[back]
    pairs = np.stack([back, back + 1], axis=1).ravel()
    los, his, counts = lp._bisect_passages(
        W_at, s[pairs], W[pairs], phi[pairs], np.repeat(turn[back], 2),
        2 * np.arange(len(back)), width)
    return (np.concatenate([LR[ok, 0], los]), np.concatenate([LR[ok, 1], his]),
            np.concatenate([count[done[ok]], counts]))


# default window half-width, cells and bracket width of eigenvalues; an
# |rho| below _ZERO_EIGEN_TOL is kernel
_SPECTRUM_WINDOW, _SPECTRUM_GRID, _SPECTRUM_REFINE_TOL = 4 * np.pi, 2048, 1e-8
_ZERO_EIGEN_TOL = 1e-7


def eigenvalues(A, window=None, grid=None):
    """Eigenvalues in [-window, window] with their multiplicities, counted
    as in the module docstring on ``grid`` cells of the window and one more
    cell at each end, so that eigenvalues at +-window are kept.

    The path is ``_frame_interpolant``'s, one flow pass whatever the grid
    unless its nodes double.
    Cells that count are refined to the brackets of bisection to
    ``_SPECTRUM_REFINE_TOL`` (``_locate``); an eigenvalue is the midpoint
    of a final bracket (touching ones merged), its multiplicity the count.
    """
    window = _SPECTRUM_WINDOW if window is None else float(window)
    grid = _SPECTRUM_GRID if grid is None else int(grid)
    if not window > 0:
        raise WindowTooSmall("window must be positive")
    if not np.isfinite(window):
        raise WindowTooSmall(f"window must be finite, got {window}")
    if grid < 1:
        raise GridTooCoarse(f"grid must be a positive integer, got {grid}", grid=grid)
    reach = window * (1.0 + 2.0 / grid)
    image = lp.LagrangianPath(A.n, -reach, reach,
                              _frame_interpolant(A, reach), "spectral")
    ref = lp.constant_lagrangian_path(A.boundary[1], -reach, reach)
    s, W, turn, W_at = lp._souriau_samples(image, ref, grid + 2)
    los, his, counts = _locate(W_at, s, W, turn, _SPECTRUM_REFINE_TOL)
    found = []
    if len(los):
        # the path is positive, so eigenvalue angles pass 0 clockwise only
        los, his, counts = _merge(los, his, counts)
        found = [(float(rho), int(-m)) for rho, m in zip(0.5 * (los + his), counts)
                 if abs(rho) <= window + 10 * _SPECTRUM_REFINE_TOL]

    kd = sum(m for r, m in found if abs(r) < _ZERO_EIGEN_TOL)
    nonzero = [abs(r) for r, m in found if abs(r) >= _ZERO_EIGEN_TOL]
    gap = min(nonzero) if nonzero else None
    return SpectrumReport(window=(-window, window), eigenvalues=tuple(found),
                          gap=gap, kernel_dim=kd)


def spectral_gap(A, window=None, grid=None):
    """Smallest |rho| over nonzero eigenvalues; doubles the window on a
    miss, twice."""
    window = _SPECTRUM_WINDOW if window is None else float(window)
    for window in (window, 2 * window, 4 * window):
        rep = eigenvalues(A, window=window, grid=grid)
        if rep.gap is not None:
            return rep.gap
    raise WindowTooSmall(
        f"no nonzero eigenvalue found in [-{window}, {window}]; retry with a "
        "larger window", window=window)


def _kernel_of(psi, L0, L1):
    """dim(psi L0 /\\ L1) for the end state psi of a fundamental solution."""
    return sl.intersection_dim(sl.apply_matrix(psi, L0), L1, tol=1e-6)


def kernel_dim(A):
    """dim(Psi_sigma(1) L0 /\\ L1): kernel of J d/dt + sigma on the boundary
    pair, from the flow's end state as in ``fredholm_index`` and
    ``adelta_shift_check``."""
    return _kernel_of(sl.fundamental_solution(A.sigma), *A.boundary)


def _shifted_path(sigma, rho):
    """sigma - rho * identity, as a SymmetricPath."""
    n = sigma.n
    eye = np.eye(2 * n)
    constant = None if sigma.constant is None else sigma.constant - rho * eye
    return sl.SymmetricPath(n=n, stack=lambda ts: sigma.samples(ts) - rho * eye,
                            constant=constant)


def adelta_shift_check(A, delta, grid=None, gap=None):
    """Check mu(Psi_delta L0, L1) = mu(Psi_0 L0, L1) -/+ (1/2) dim ker A.

    Both signs of the shift are evaluated in one call; returns a dict with
    the four half-integers and the equality flags.  The kernel is read from
    the end state of the unshifted flow.
    """
    if gap is None:
        gap = spectral_gap(A)
    if not (0 < delta < gap):
        raise DeltaNotBelowGap(f"delta = {delta} not in (0, gap = {gap:.6g})",
                               delta=delta, gap=gap)
    L0, L1 = A.boundary
    c1 = lp.constant_lagrangian_path(L1, 0.0, 1.0)

    flows = [sl.FundamentalFlow(_shifted_path(A.sigma, rho))
             for rho in (0.0, delta, -delta)]
    mu0, mu_plus, mu_minus = (
        lp.rs_index(lp.fundamental_image_path(f, L0), c1, grid=grid) for f in flows)
    kd = _kernel_of(flows[0](1.0), L0, L1)
    plus_ok = mu_plus == mu0 - Fraction(kd, 2)
    minus_ok = mu_minus == mu0 + Fraction(kd, 2)
    return {"mu_zero": mu0, "mu_plus_delta": mu_plus, "mu_minus_delta": mu_minus,
            "kernel_dim": kd, "plus_ok": plus_ok, "minus_ok": minus_ok,
            "equal": plus_ok and minus_ok}


def fredholm_index(plus_data, minus_data, F, kernel_dims=None, grid=None):
    """Index of the strip operator with matching-kernel extension:

    mu(Psi+ L0+, L1+) + mu(F0, F1) - mu(Psi- L0-, L1-)
    + (1/2) dim ker A- + (1/2) dim ker A+.

    plus_data / minus_data are (sigma, Lambda0, Lambda1) triples; F is the
    pair (F0, F1) of LagrangianPaths whose endpoints must match the
    asymptotic boundary data.
    """
    sig_p, L0p, L1p = plus_data
    sig_m, L0m, L1m = minus_data
    F0, F1 = F
    if not (F0.start.equals(L0m, tol=1e-7) and F1.start.equals(L1m, tol=1e-7)):
        raise EndpointMismatch("F(a) must span the negative asymptotic pair")
    if not (F0.end.equals(L0p, tol=1e-7) and F1.end.equals(L1p, tol=1e-7)):
        raise EndpointMismatch("F(b) must span the positive asymptotic pair")

    Ap = AsymptoticOperator(n=sig_p.n, sigma=sig_p, boundary=(L0p, L1p))
    Am = AsymptoticOperator(n=sig_m.n, sigma=sig_m, boundary=(L0m, L1m))
    # one flow per operator gives both its kernel (the end state) and the
    # frames of the path Psi(t) L0
    flow_p = sl.FundamentalFlow(sig_p)
    flow_m = sl.FundamentalFlow(sig_m)
    kp = _kernel_of(flow_p(1.0), *Ap.boundary)
    km = _kernel_of(flow_m(1.0), *Am.boundary)
    if kernel_dims is not None and tuple(kernel_dims) != (km, kp):
        raise DimensionMismatch(
            f"kernel_dims {tuple(kernel_dims)} disagree with computed ({km}, {kp})")

    c1p = lp.constant_lagrangian_path(L1p, 0.0, 1.0)
    c1m = lp.constant_lagrangian_path(L1m, 0.0, 1.0)
    mu_p = lp.rs_index(lp.fundamental_image_path(flow_p, L0p), c1p, grid=grid)
    mu_m = lp.rs_index(lp.fundamental_image_path(flow_m, L0m), c1m, grid=grid)
    mu_F = lp.rs_index(F0, F1, grid=grid)
    total = mu_p + mu_F - mu_m + Fraction(km, 2) + Fraction(kp, 2)
    if total.denominator != 1:
        raise NonIntegerIndex(f"index {total} is not an integer; inconsistent data",
                              value=str(total))
    return int(total)


def strip_index(mu_vit, dim_cm, dim_cp):
    """mu_Vit(u) + (1/2)(dim C- + dim C+), checked to be an integer."""
    total = Fraction(mu_vit) + Fraction(dim_cm + dim_cp, 2)
    if total.denominator != 1:
        raise NonIntegerIndex(
            f"mu_Vit + (dims)/2 = {total} is not an integer", value=str(total))
    return int(total)


# -- gap inequality check ------------------------------------------------------


def _kernel_functions(A, ts):
    """Values at ts of the kernel eigenfunctions t -> Psi(t) v for a basis
    of v in L0 /\\ Psi(1)^{-1} L1, as a (k, len(ts), 2n) stack."""
    flow = sl.FundamentalFlow(A.sigma)
    L0, L1 = A.boundary
    psi1 = flow(1.0)
    F = sl.apply_matrix(psi1, L0)
    basis = sl.intersection_basis(F, L1)
    # pull back to initial conditions in L0
    v0 = np.linalg.solve(psi1, basis)
    return np.moveaxis(flow.at(ts) @ v0, -1, 0)


# quadrature nodes, test-function modes and slack of gap_inequality_check
_QUAD_NODES, _MODES, _GAP_SLACK = 256, 6, 1e-4


def gap_inequality_check(A, num_tests, rng, project_kernel=True):
    """Sample smooth test functions in the domain and check

    ||A xi|| >= iota(A) ||xi||   (xi orthogonal to ker A)   and
    ||A xi||^2 >= iota(A) <A xi, xi>,

    with quadrature on ``_QUAD_NODES`` nodes, test functions of ``_MODES``
    trigonometric modes and slack ``_GAP_SLACK``.  Returns (ok, report).
    """
    n = A.n
    L0, L1 = A.boundary
    iota = spectral_gap(A)

    m = _QUAD_NODES
    ts = np.linspace(0.0, 1.0, m + 1)
    w = np.full(m + 1, 1.0 / m)
    w[0] = w[-1] = 0.5 / m

    P0c = np.eye(2 * n) - L0.projector      # projection killing the L0 part
    P1c = np.eye(2 * n) - L1.projector
    J = sl.J_std(n)
    sig_vals = A.sigma.samples(ts)
    kern_vals = _kernel_functions(A, ts)
    wk = np.pi * np.arange(_MODES)
    ck, sk = np.cos(np.outer(ts, wk)), np.sin(np.outer(ts, wk))

    def inner(f, g):
        return float(np.sum(w[:, None] * f * g))

    def apply_A(f, df):
        return df @ J.T + np.einsum("tij,tj->ti", sig_vals, f)

    def rand_test_function():
        # trig sum with boundary correction, then L^2 kernel projection
        a = rng.standard_normal((_MODES, 2 * n))
        b = rng.standard_normal((_MODES, 2 * n))
        xi = ck @ a + sk @ b
        dxi = (ck * wk) @ b - (sk * wk) @ a
        # boundary correction: xi(0) in L0, xi(1) in L1
        c0, c1 = P0c @ xi[0], P1c @ xi[-1]
        xi = xi - np.outer(1.0 - ts, c0) - np.outer(ts, c1)
        dxi = dxi + c0 - c1
        if project_kernel:
            # kernel elements satisfy J k' + sigma k = 0, so A xi is unchanged
            for kv in kern_vals:
                xi = xi - (inner(xi, kv) / inner(kv, kv)) * kv
        return xi, apply_A(xi, dxi)

    failures = []
    samples = [rand_test_function() for _ in range(num_tests)]
    if not project_kernel:
        # include the kernel directions themselves: the restricted
        # inequality must fail on them (negative control)
        samples += [(kv, apply_A(kv, np.gradient(kv, ts, axis=0)))
                    for kv in kern_vals]
    for i, (xi, Axi) in enumerate(samples):
        nx, nax = inner(xi, xi) ** 0.5, inner(Axi, Axi) ** 0.5
        if nx < 1e-12:
            continue
        ineq1 = nax + _GAP_SLACK * max(1.0, nax) >= iota * nx
        ineq2 = nax ** 2 + _GAP_SLACK * max(1.0, nax ** 2) >= iota * inner(Axi, xi)
        if not (ineq1 and ineq2):
            failures.append({"test": i, "norm_Axi": nax, "norm_xi": nx,
                             "iota": iota, "ineq1": bool(ineq1),
                             "ineq2": bool(ineq2)})
    return len(failures) == 0, {"iota": iota, "num_tests": num_tests,
                                "failures": failures}
