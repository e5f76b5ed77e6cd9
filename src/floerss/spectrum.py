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
it, two flow passes as a rule, feeds the locator of ``lagpath.find_crossings``:
a stacked scan of the Souriau map (``lagpath._souriau_samples``) and
bisection on the passage counts of the cells (``lagpath._bisect_passages``),
which reuses the scan's cell turns and takes up to 8 predicted halvings per
stacked evaluation.
A count does not depend on how far apart the eigenvalues in a cell are,
so eigenvalues closer than one grid cell are all found.
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
    Lagrangian frames: the Chebyshev series through one ``shifted_flows``
    pass at m first-kind points.  The path is entire of exponential type 1,
    so m, from 2^ceil(log2(1.4 reach + 16)), doubles only until the last 4
    coefficients are below 1e-12 max(1, max |c|) or fall by less than 16x
    (the flows' own noise); past _MAX_NODES, GridTooCoarse.  One
    Newton-Schulz step takes X + iY to its unitary polar factor, the nearest
    Lagrangian frame.  The oracle checks 4 points between the nodes.
    """
    flows = sl.shifted_flows(A.sigma)
    n, frame = A.n, A.boundary[0].frame
    m, tail = 2 ** int(np.ceil(np.log2(1.4 * reach + 16))), np.inf
    while m <= _MAX_NODES:
        theta = np.pi * (np.arange(m) + 0.5) / m
        values = (flows(reach * np.cos(theta)) @ frame).reshape(m, -1)
        C = (2.0 / m) * np.cos(np.outer(np.arange(m), theta)) @ values
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
        q = np.linalg.qr((T @ C).reshape(len(T), 2 * n, n))[0]
        U = q[:, :n] + 1j * q[:, n:]
        U = U @ (1.5 * np.eye(n) - 0.5 * (np.swapaxes(U.conj(), 1, 2) @ U))
        return np.concatenate([U.real, U.imag], axis=1)

    probe = reach * np.cos(np.pi * np.array([1, m // 3, 2 * m // 3, m - 1]) / m)
    err = float(sl.principal_angle_sines(
        sl.LagrangianFrame(n=n, frame=at(probe)),
        sl.validate_lagrangian(flows(probe) @ frame)).max())
    if not err <= _ORACLE_TOL:
        raise IntegrationFailure(f"the interpolant on {m} nodes is {err:.3e} "
                                 "from the flow", nodes=m, error=err)
    return at


# default window half-width, cells and bracket width of eigenvalues; an
# |rho| below _ZERO_EIGEN_TOL is kernel
_SPECTRUM_WINDOW, _SPECTRUM_GRID, _SPECTRUM_REFINE_TOL = 4 * np.pi, 2048, 1e-8
_ZERO_EIGEN_TOL = 1e-7


def eigenvalues(A, window=None, grid=None, tol=None):
    """Eigenvalues in [-window, window] with their multiplicities, counted
    as in the module docstring on ``grid`` cells of the window and one more
    cell at each end, so that eigenvalues at +-window are kept.

    The path is ``_frame_interpolant``'s, two flow passes whatever the grid.
    Cells that count are bisected to ``tol``; an eigenvalue is the midpoint
    of a final bracket (touching ones merged), its multiplicity the count.
    """
    window = _SPECTRUM_WINDOW if window is None else float(window)
    grid = _SPECTRUM_GRID if grid is None else int(grid)
    tol = _SPECTRUM_REFINE_TOL if tol is None else float(tol)
    if not window > 0:
        raise WindowTooSmall("window must be positive")
    if not np.isfinite(window):
        raise WindowTooSmall(f"window must be finite, got {window}")
    if grid < 1:
        raise GridTooCoarse(f"grid must be a positive integer, got {grid}", grid=grid)
    if not (np.isfinite(tol) and tol > 0):
        raise GridTooCoarse(f"tol must be positive and finite, got {tol}", tol=tol)
    reach = window * (1.0 + 2.0 / grid)
    image = lp.LagrangianPath(A.n, -reach, reach,
                              _frame_interpolant(A, reach), "spectral")
    ref = lp.constant_lagrangian_path(A.boundary[1], -reach, reach)
    s, W, turn, W_at = lp._souriau_samples(image, ref, grid + 2)
    los, his, counts = lp._bisect_passages(W_at, s, W, lp._angles(W), turn,
                                           np.arange(len(s) - 1), tol)
    found = []
    if len(los):
        # the path is positive, so eigenvalue angles pass 0 clockwise only
        los, his, counts = _merge(los, his, counts)
        found = [(float(rho), int(-m)) for rho, m in zip(0.5 * (los + his), counts)
                 if abs(rho) <= window + 10 * tol]

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
    """dim(Psi_sigma(1) L0 /\\ L1): kernel of J d/dt + sigma on the boundary pair."""
    psi = sl.fundamental_solution(A.sigma, 1.0)
    return _kernel_of(psi.entries, *A.boundary)


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
    basis = sl.intersection_basis(F, L1, tol=1e-6)
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
