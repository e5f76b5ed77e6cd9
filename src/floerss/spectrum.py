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
Bull. LMS 1995).  It uses the locator of ``lagpath.find_crossings``: one
stacked scan of the Souriau map over the window
(``lagpath._souriau_samples``) and bisection on the passage counts of the
cells (``lagpath._bisect_passages``).
A count does not depend on how far apart the eigenvalues in a cell are,
so eigenvalues closer than one grid cell are all found.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .config import DEFAULTS
from .errors import (DeltaNotBelowGap, DimensionMismatch, EndpointMismatch,
                     GridTooCoarse, NonIntegerIndex, StepTooLarge,
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


def flat_model(alpha, n=1):
    """sigma = 0, L0 = R^n x 0, L1 = e^{alpha J} L0."""
    L0 = sl.horizontal(n)
    return AsymptoticOperator(n=n, sigma=sl.zero_path(n),
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


def eigenvalues(A, window=None, grid=None, tol=None, settings=DEFAULTS):
    """Eigenvalues in [-window, window] with their multiplicities, counted
    as in the module docstring on ``grid`` cells of the window and one more
    cell at each end, so that eigenvalues at +-window are kept.

    For a non-constant sigma the scan's flow has a coarse step: its
    brackets stop at a pad of O(step^4), are widened by the pad, merged
    where they overlap and bisected to ``tol`` on the flow at
    ``settings.ode_step``, which must count as many eigenvalues in each
    merged bracket (else StepTooLarge).  An eigenvalue is the midpoint of a
    final bracket, brackets that touch being one, and its multiplicity is
    the bracket's count.
    """
    window = settings.spectrum_window if window is None else float(window)
    grid = settings.spectrum_grid if grid is None else int(grid)
    tol = settings.spectrum_refine_tol if tol is None else float(tol)
    if not window > 0:
        raise WindowTooSmall("window must be positive")
    if not np.isfinite(window):
        raise WindowTooSmall(f"window must be finite, got {window}")
    if grid < 1:
        raise GridTooCoarse(f"grid must be a positive integer, got {grid}", grid=grid)
    # keep ||generator|| * h small on the scan
    smax = float(np.max(np.abs(A.sigma.samples(np.linspace(0, 1, 5)))))
    step = float(np.clip(0.05 / max(window + smax, 1.0), 1e-3, 1e-2))
    two_steps = settings.ode_step < step and A.sigma.constant is None
    pad = max(1e3 * tol, 1e4 * step ** 4)
    L0, L1 = A.boundary
    reach = window * (1.0 + 2.0 / grid)

    def image(h):
        """rho -> Psi_{sigma+rho}(1) L0 with the flow at step h: one flow
        pass and one stacked ``validate_lagrangian`` per batch of rho."""
        flows = sl.shifted_flows(A.sigma, h, settings=settings)
        return lp._stacked_path(
            A.n, -reach, reach,
            lambda rhos: sl.validate_lagrangian(flows(rhos) @ L0.frame).frame,
            "spectral")

    ref = lp.constant_lagrangian_path(L1, -reach, reach)
    s, W, _, W_at = lp._souriau_samples(image(step), ref, grid + 2, settings)
    los, his, counts = lp._bisect_passages(W_at, s, W, np.arange(len(s) - 1),
                                           pad if two_steps else tol)
    if two_steps and len(los):
        los, his, coarse = _merge(los - pad, his + pad, counts)
        fine = image(settings.ode_step)

        def W_fine(rhos):
            return lp.souriau(ref.frames(rhos)) @ lp.souriau(fine.frames(rhos)).conj()

        s = np.ravel(np.column_stack([los, his]))
        los, his, counts = lp._bisect_passages(
            W_fine, s, W_fine(s), 2 * np.arange(len(coarse)), tol)
        owner = np.searchsorted(s[0::2], los, side="right") - 1
        if not np.array_equal(
                np.bincount(owner, counts, minlength=len(coarse)), coarse):
            raise StepTooLarge(
                f"eigenvalue counts at step {settings.ode_step} differ from "
                f"those at the scan step {step}")
    found = []
    if len(los):
        # the path is positive, so eigenvalue angles pass 0 clockwise only
        los, his, counts = _merge(los, his, counts)
        found = [(float(rho), int(-m)) for rho, m in zip(0.5 * (los + his), counts)
                 if abs(rho) <= window + 10 * tol]

    kd = sum(m for r, m in found if abs(r) < settings.zero_eigen_tol)
    nonzero = [abs(r) for r, m in found if abs(r) >= settings.zero_eigen_tol]
    gap = min(nonzero) if nonzero else None
    return SpectrumReport(window=(-window, window), eigenvalues=tuple(found),
                          gap=gap, kernel_dim=kd)


def spectral_gap(A, window=None, grid=None, tol=None, settings=DEFAULTS,
                 _retries=2):
    """Smallest |rho| over nonzero eigenvalues; doubles the window on a miss."""
    window = settings.spectrum_window if window is None else float(window)
    rep = eigenvalues(A, window=window, grid=grid, tol=tol, settings=settings)
    if rep.gap is not None:
        return rep.gap
    if _retries > 0:
        return spectral_gap(A, window=2 * window, grid=grid, tol=tol,
                            settings=settings, _retries=_retries - 1)
    raise WindowTooSmall(
        f"no nonzero eigenvalue found in [-{window}, {window}]; retry with a "
        "larger window", window=window)


def _kernel_of(psi, L0, L1, tol=1e-6):
    """dim(psi L0 /\\ L1) for the end state psi of a fundamental solution."""
    return sl.intersection_dim(sl.apply_matrix(psi, L0), L1, tol=tol)


def kernel_dim(A, tol=None, settings=DEFAULTS):
    """dim(Psi_sigma(1) L0 /\\ L1): kernel of J d/dt + sigma on the boundary pair."""
    tol = 1e-6 if tol is None else tol
    psi = sl.fundamental_solution(A.sigma, 1.0, settings=settings)
    return _kernel_of(psi.entries, *A.boundary, tol=tol)


def _shifted_path(sigma, rho):
    """sigma - rho * identity, as a SymmetricPath."""
    n = sigma.n
    eye = np.eye(2 * n)
    constant = None if sigma.constant is None else sigma.constant - rho * eye
    return sl.SymmetricPath(n=n, stack=lambda ts: sigma.samples(ts) - rho * eye,
                            breakpoints=sigma.breakpoints, constant=constant)


def adelta_shift_check(A, delta, grid=None, settings=DEFAULTS, gap=None,
                       spectrum_kw=None):
    """Check mu(Psi_delta L0, L1) = mu(Psi_0 L0, L1) -/+ (1/2) dim ker A.

    Both signs of the shift are evaluated in one call; returns a dict with
    the four half-integers and the equality flags.
    """
    if gap is None:
        gap = spectral_gap(A, settings=settings, **(spectrum_kw or {}))
    if not (0 < delta < gap):
        raise DeltaNotBelowGap(f"delta = {delta} not in (0, gap = {gap:.6g})",
                               delta=delta, gap=gap)
    L0, L1 = A.boundary
    kd = kernel_dim(A, settings=settings)
    c1 = lp.constant_lagrangian_path(L1, 0.0, 1.0)

    def mu_for(rho):
        flow = sl.FundamentalFlow(_shifted_path(A.sigma, rho), settings=settings)
        path = lp.fundamental_image_path(flow, L0)
        return lp.rs_index(path, c1, grid=grid, settings=settings)

    mu0 = mu_for(0.0)
    mu_plus = mu_for(delta)
    mu_minus = mu_for(-delta)
    half_k = Fraction(kd, 2)
    return {
        "mu_zero": mu0,
        "mu_plus_delta": mu_plus,
        "mu_minus_delta": mu_minus,
        "kernel_dim": kd,
        "plus_ok": mu_plus == mu0 - half_k,
        "minus_ok": mu_minus == mu0 + half_k,
        "equal": (mu_plus == mu0 - half_k) and (mu_minus == mu0 + half_k),
    }


def fredholm_index(plus_data, minus_data, F, kernel_dims=None, grid=None,
                   settings=DEFAULTS):
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
    flow_p = sl.FundamentalFlow(sig_p, settings=settings)
    flow_m = sl.FundamentalFlow(sig_m, settings=settings)
    kp = _kernel_of(flow_p(1.0), *Ap.boundary)
    km = _kernel_of(flow_m(1.0), *Am.boundary)
    if kernel_dims is not None and tuple(kernel_dims) != (km, kp):
        raise DimensionMismatch(
            f"kernel_dims {tuple(kernel_dims)} disagree with computed ({km}, {kp})")

    c1p = lp.constant_lagrangian_path(L1p, 0.0, 1.0)
    c1m = lp.constant_lagrangian_path(L1m, 0.0, 1.0)
    mu_p = lp.rs_index(lp.fundamental_image_path(flow_p, L0p), c1p, grid=grid,
                       settings=settings)
    mu_m = lp.rs_index(lp.fundamental_image_path(flow_m, L0m), c1m, grid=grid,
                       settings=settings)
    mu_F = lp.rs_index(F0, F1, grid=grid, settings=settings)
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


def _kernel_functions(A, ts, settings):
    """Values at ts of the kernel eigenfunctions t -> Psi(t) v for a basis
    of v in L0 /\\ Psi(1)^{-1} L1, as a (k, len(ts), 2n) stack."""
    flow = sl.FundamentalFlow(A.sigma, settings=settings)
    L0, L1 = A.boundary
    psi1 = flow(1.0)
    F = sl.apply_matrix(psi1, L0)
    basis = sl.intersection_basis(F, L1, tol=1e-6)
    # pull back to initial conditions in L0
    v0 = np.linalg.solve(psi1, basis)
    return np.moveaxis(flow.at(ts) @ v0, -1, 0)


def gap_inequality_check(A, tol=1e-4, num_tests=50, rng=None, modes=6,
                         settings=DEFAULTS, project_kernel=True):
    """Sample smooth test functions in the domain and check

    ||A xi|| >= iota(A) ||xi||   (xi orthogonal to ker A)   and
    ||A xi||^2 >= iota(A) <A xi, xi>,

    with quadrature on ``settings.quad_nodes`` nodes.  Returns (ok, report).
    """
    rng = np.random.default_rng(0) if rng is None else rng
    n = A.n
    L0, L1 = A.boundary
    iota = spectral_gap(A, settings=settings)

    m = settings.quad_nodes
    ts = np.linspace(0.0, 1.0, m + 1)
    w = np.full(m + 1, 1.0 / m)
    w[0] = w[-1] = 0.5 / m

    P0c = np.eye(2 * n) - L0.projector      # projection killing the L0 part
    P1c = np.eye(2 * n) - L1.projector
    J = sl.J_std(n)
    sig_vals = A.sigma.samples(ts)
    kern_vals = _kernel_functions(A, ts, settings)

    def rand_test_function():
        # trig sum with boundary correction, then L^2 kernel projection
        a = rng.standard_normal((modes, 2 * n))
        b = rng.standard_normal((modes, 2 * n))
        xi = np.zeros((m + 1, 2 * n))
        dxi = np.zeros((m + 1, 2 * n))
        for k in range(modes):
            ck = np.cos(np.pi * k * ts)[:, None]
            sk = np.sin(np.pi * k * ts)[:, None]
            xi += ck * a[k][None, :] + sk * b[k][None, :]
            dxi += np.pi * k * (-sk * a[k][None, :] + ck * b[k][None, :])
        # boundary correction: xi(0) in L0, xi(1) in L1
        c0 = P0c @ xi[0]
        c1 = P1c @ xi[-1]
        xi = xi - (1.0 - ts)[:, None] * c0[None, :] - ts[:, None] * c1[None, :]
        dxi = dxi + c0[None, :] - c1[None, :]
        if project_kernel:
            for kv in kern_vals:
                coeff = np.sum(w[:, None] * xi * kv)
                norm2 = np.sum(w[:, None] * kv * kv)
                xi = xi - (coeff / norm2) * kv
                # kernel elements satisfy J k' + sigma k = 0, so A xi unchanged
        Axi = (J @ dxi.T).T + np.einsum("tij,tj->ti", sig_vals, xi)
        return xi, Axi

    def l2(f):
        return float(np.sqrt(np.sum(w[:, None] * f * f)))

    def inner(f, g):
        return float(np.sum(w[:, None] * f * g))

    failures = []
    samples = [rand_test_function() for _ in range(num_tests)]
    if not project_kernel:
        # include the kernel directions themselves: the restricted
        # inequality must fail on them (negative control)
        for kv in kern_vals:
            Akv = (J @ np.gradient(kv, ts, axis=0).T).T + \
                np.einsum("tij,tj->ti", sig_vals, kv)
            samples.append((kv, Akv))
    for i, (xi, Axi) in enumerate(samples):
        nx, nax = l2(xi), l2(Axi)
        if nx < 1e-12:
            continue
        ineq1 = nax + tol * max(1.0, nax) >= iota * nx
        lhs2 = nax ** 2
        rhs2 = iota * inner(Axi, xi)
        ineq2 = lhs2 + tol * max(1.0, lhs2) >= rhs2
        if not (ineq1 and ineq2):
            failures.append({"test": i, "norm_Axi": nax, "norm_xi": nx,
                             "iota": iota, "ineq1": bool(ineq1),
                             "ineq2": bool(ineq2)})
    return len(failures) == 0, {"iota": iota, "num_tests": num_tests,
                                "failures": failures}
