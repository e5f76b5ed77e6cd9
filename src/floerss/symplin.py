"""Exact-shape symplectic linear algebra on (R^{2n}, omega_std).

Conventions used by the entire package:

* J_std is the block matrix [[0, -I], [I, 0]] acting on coordinates
  (x_1..x_n, y_1..y_n); it is multiplication by i under R^{2n} = C^n,
  (x, y) <-> x + iy.
* omega(u, v) = <J_std u, v>, so that omega(., J.) is the Euclidean metric.
* The fundamental solution of a symmetric path sigma solves
  J_std dPsi/dt + sigma Psi = 0 with Psi(0) = 1, equivalently
  dPsi/dt = J_std sigma Psi.

Every fundamental solution comes from one flow mechanism:

* A path declared constant by its constructor (``SymmetricPath.constant``:
  ``constant_path``, ``zero_path``, ``poly_path`` without nonconstant
  terms, direct sums and shifts of constant paths) uses the exact
  exponential ``expm``.  Constancy is never guessed from samples.
* Any other path is sampled once, J sigma(t) on the RK4 stage grid
  t = k h / 2 in one ``SymmetricPath.samples`` call, and integrated by one
  batched classical RK4 over a batch of shifts rho (generator
  J sigma + rho J).  The RK4 step is a matrix, M_{k+1} = P_k(rho) M_k, and
  a polynomial of degree 4 in rho whose matrix coefficients
  (``_step_maps``) are built once per flow from the samples; a pass
  evaluates them for a block of steps as one stack and pays one product
  per member and step.  Every ``_PROJECT_EVERY`` steps and after the last
  step the symplectic drift is checked: above ``_SYMPLECTIC_DRIFT_LIMIT``
  StepTooLarge is raised, above ``_SYMPLECTIC_DRIFT_TOL`` the state is
  projected back onto Sp(2n).
* ``fundamental_solution`` (one shift), ``FundamentalFlow`` (all states,
  each block's from the prefix products of its step maps; a batch of
  t-queries is one stack of partial step maps) and ``shifted_flows`` (the
  nodes of the spectrum interpolant) are the three entry points.

A symmetric path is its stack (``SymmetricPath.stack``: times -> values),
and ``sigma(t)`` is a stack of one; sums and Z-actions stack their parts.

All values are immutable after construction and all operations are pure.
"""

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import (DimensionMismatch, IntegrationFailure, NotFullRank,
                     NotIsotropic, NotSymmetric, StepTooLarge)


@lru_cache(maxsize=None)
def J_std(n):
    """Standard complex structure on R^{2n} (one read-only array per n)."""
    J = np.zeros((2 * n, 2 * n))
    J[:n, n:] = -np.eye(n)
    J[n:, :n] = np.eye(n)
    J.setflags(write=False)
    return J


def omega(u, v):
    """Standard symplectic form omega(u, v) = <J u, v>."""
    n = u.shape[0] // 2
    return float(J_std(n) @ u @ v) if u.ndim == 1 else (J_std(n) @ u).T @ v


def rotation(n, angle):
    """exp(angle * J_std): counterclockwise rotation in every complex
    coordinate; an array of angles gives a (..., 2n, 2n) stack."""
    angle = np.asarray(angle, dtype=float)[..., None, None]
    return np.cos(angle) * np.eye(2 * n) + np.sin(angle) * J_std(n)


# rank / isotropy / subspace-equality tolerance on orthonormalized frames
# (double precision, target sizes n <= 8)
_FRAME_TOL = 1e-9


@dataclass(frozen=True)
class LagrangianFrame:
    """Orthonormal 2n x n frame spanning a Lagrangian subspace, or a
    (..., 2n, n) stack of them (``validate_lagrangian`` of a stack)."""

    n: int
    frame: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.frame.setflags(write=False)

    @property
    def projector(self):
        return self.frame @ self.frame.T

    def equals(self, other, tol=_FRAME_TOL):
        """Subspace equality: all principal angles below tol."""
        if self.n != other.n:
            return False
        return max_principal_angle_sin(self, other) < tol


def validate_lagrangian(M):
    """Orthonormalize the columns of M and check the Lagrangian conditions.

    M is one 2n x n matrix or a (..., 2n, n) stack of them; a stack gives
    one LagrangianFrame whose ``frame`` is the stack of orthonormal frames.
    Raises NotFullRank when the columns are dependent and NotIsotropic with
    the largest |omega(col_i, col_j)| when the span is not isotropic; in a
    stack the first bad member raises the error it raises alone.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim < 2 or M.shape[-2] != 2 * M.shape[-1] or M.shape[-1] == 0:
        raise DimensionMismatch(f"expected a 2n x n matrix, got shape {M.shape}")
    n = M.shape[-1]
    S = M.reshape((-1, 2 * n, n))
    top = np.abs(S).max(axis=(1, 2))
    finite = np.isfinite(top)
    all_finite = finite.all()
    if not all_finite:
        S = np.where(finite[:, None, None], S, 0.0)
    q, r = np.linalg.qr(S)
    smin = np.abs(np.diagonal(r, axis1=1, axis2=2)).min(axis=1)
    worst = np.abs(np.swapaxes(q, 1, 2) @ J_std(n) @ q).max(axis=(1, 2))
    thin = smin <= _FRAME_TOL * np.maximum(1.0, top)
    if not all_finite or thin.any() or worst.max() > _FRAME_TOL:
        i = int(np.argmax(~finite | thin | (worst > _FRAME_TOL)))
        if not finite[i]:
            raise NotFullRank("frame has non-finite entries")
        if thin[i]:
            raise NotFullRank(f"smallest column pivot {smin[i]:.3e} below tolerance",
                              smallest_pivot=smin[i])
        raise NotIsotropic(f"max |omega(col_i, col_j)| = {worst[i]:.3e}",
                           max_pairing=float(worst[i]))
    # fix a deterministic sign: make the largest entry of each column positive
    k = np.abs(q).argmax(axis=1)
    lead = q.reshape(len(q), -1)[np.arange(len(q))[:, None], k * n + np.arange(n)]
    q = np.where(lead[:, None, :] < 0, -q, q)
    return LagrangianFrame(n=n, frame=q.reshape(M.shape))


def horizontal(n):
    """R^n x {0}."""
    M = np.zeros((2 * n, n))
    M[:n, :] = np.eye(n)
    return LagrangianFrame(n=n, frame=M)


def vertical(n):
    """{0} x R^n = J_std (R^n x {0})."""
    M = np.zeros((2 * n, n))
    M[n:, :] = np.eye(n)
    return LagrangianFrame(n=n, frame=M)


def apply_matrix(A, F):
    """Frame spanned by A . span(F) for invertible A, fully validated."""
    return validate_lagrangian(A @ F.frame)


def transform_frame(A, F):
    """Frame for A . span(F) with A symplectic: QR only, no re-validation.

    For trusted transforms (rotations, integrated flows, elementary
    symplectic products) the image is Lagrangian by construction; skipping
    the isotropy check matters for transformed and perturbed paths, whose
    every stack of frames goes through here.  A and F may be stacks.
    """
    q, _ = np.linalg.qr(A @ F.frame)
    return LagrangianFrame(n=F.n, frame=q)


def rotate_frame(F, angle):
    """e^{angle J} . span(F)."""
    return apply_matrix(rotation(F.n, angle), F)


def principal_angle_sines(F, G):
    """Sines of the principal angles between span(F) and span(G), ascending.

    Computed from the residual (1 - P_F) Q_G, which is accurate for tiny
    angles where the cosine formula loses all precision.  Either frame may
    be a stack; the sines are then a (..., n) stack.
    """
    if F.n != G.n:
        raise DimensionMismatch(f"half-dimensions differ: {F.n} != {G.n}")
    resid = G.frame - F.frame @ (np.swapaxes(F.frame, -1, -2) @ G.frame)
    s = np.linalg.svd(resid, compute_uv=False)
    return np.sort(np.clip(s, 0.0, 1.0))


def max_principal_angle_sin(F, G):
    return float(principal_angle_sines(F, G)[-1])


def min_principal_angle_sin(F, G):
    return float(principal_angle_sines(F, G)[0])


def intersection_dim(F, G, tol=_FRAME_TOL):
    """Number of principal angles between span(F), span(G) that vanish within tol."""
    s = principal_angle_sines(F, G)
    return int(np.sum(s < tol))


def intersection_basis(F, G, tol=1e-6):
    """Orthonormal basis of span(F) /\\ span(G), as columns.

    Pairs principal vectors with angle below tol; intended for use at a
    refined crossing where the split against the nonzero angles is large.
    """
    u = np.linalg.svd(F.frame.T @ G.frame)[0]
    k = int(np.sum(principal_angle_sines(F, G) < tol))
    if k == 0:
        return np.zeros((2 * F.n, 0))
    vecs = F.frame @ u[:, :k]
    q, _ = np.linalg.qr(vecs)
    return q[:, :k]


def check_symmetric(S):
    """Refuse (NotSymmetric) a member of the (m, n, n) stack S with
    max |S - S^T| above ``_FRAME_TOL`` max(1, max |S|)."""
    asym = np.abs(S - np.swapaxes(S, 1, 2)).max(axis=(1, 2))
    bad = asym > _FRAME_TOL * np.maximum(1.0, np.abs(S).max(axis=(1, 2)))
    if bad.any():
        worst = float(asym[np.argmax(bad)])
        raise NotSymmetric(f"max |B - B^T| = {worst:.3e}", asymmetry=worst)


def graph_lagrangian(B):
    """Frame of the graph {(x, Bx)} of a symmetric matrix B.

    B may be a (..., n, n) stack; the result is then one stacked frame (see
    ``validate_lagrangian``), and its first bad member raises the error it
    raises alone.
    """
    B = np.asarray(B, dtype=float)
    if B.ndim < 2 or B.shape[-2] != B.shape[-1]:
        raise DimensionMismatch(f"B must be square, got {B.shape}")
    n = B.shape[-1]
    if B.size:
        check_symmetric(B.reshape((-1, n, n)))
    M = np.concatenate([np.broadcast_to(np.eye(n), B.shape), B], axis=-2)
    return validate_lagrangian(M)


@dataclass(frozen=True)
class SymmetricPath:
    """Piecewise-smooth path t -> Sym(2n) on [0, 1], given by its stack.

    ``stack`` maps an array of times to the (m, 2n, 2n) stack of values;
    ``samples`` is that stack symmetrized, and ``sigma(t)`` is a stack of
    one.  ``constant`` is the value of a path declared constant by its
    constructor (None otherwise); flows of a declared constant path use the
    exact exponential, every other path is integrated.
    """

    n: int
    stack: callable = field(repr=False)  # ts -> (m, 2n, 2n)
    constant: np.ndarray = field(default=None, repr=False, compare=False)

    def _raw(self, ts):
        return np.asarray(self.stack(np.asarray(ts, dtype=float)), dtype=float)

    def samples(self, ts):
        """sigma(t) for every t of ts, as a symmetrized (m, 2n, 2n) stack."""
        S = self._raw(ts)
        # in place: a stage grid of 2001 times is the largest stack of a flow
        out = S + np.swapaxes(S, 1, 2)
        out *= 0.5
        return out

    def __call__(self, t):
        return self.samples([t])[0]

    def check(self):
        ts = np.linspace(0.0, 1.0, 7)
        S = self._raw(ts)
        if S.shape[1:] != (2 * self.n, 2 * self.n):
            raise DimensionMismatch(f"sigma(t) has shape {S.shape[1:]}")
        asym = np.max(np.abs(S - np.swapaxes(S, 1, 2)), axis=(1, 2))
        bad = asym > 1e-9 * np.maximum(1.0, np.max(np.abs(S), axis=(1, 2)))
        if bad.any():
            raise NotSymmetric(f"sigma({ts[np.argmax(bad)]}) is not symmetric")
        return self


def constant_path(S):
    S = np.asarray(S, dtype=float)
    n = S.shape[0] // 2
    return SymmetricPath(
        n=n, stack=lambda ts: np.broadcast_to(S, (len(ts),) + S.shape),
        constant=0.5 * (S + S.T)).check()


def zero_path(n):
    return constant_path(np.zeros((2 * n, 2 * n)))


def poly_path(coeffs):
    """sigma(t) = sum_k coeffs[k] t^k with symmetric matrix coefficients;
    declared constant when every coefficient of degree >= 1 is exactly zero."""
    mats = [np.asarray(c, dtype=float) for c in coeffs]
    if not any(np.any(c) for c in mats[1:]):
        return constant_path(mats[0])
    n = mats[0].shape[0] // 2

    def stack(ts):
        S = np.zeros((len(ts),) + mats[0].shape)
        tk = np.ones(len(ts))
        for c in mats:
            S += tk[:, None, None] * c
            tk = tk * ts
        return S

    return SymmetricPath(n=n, stack=stack).check()


@dataclass(frozen=True)
class SymplecticMatrix:
    n: int
    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.entries.setflags(write=False)

    def drift(self):
        return float(_drift(self.entries, J_std(self.n)))


def _drift(M, J):
    """max |M^T J M - J| per matrix of a (..., d, d) stack."""
    return np.max(np.abs(np.swapaxes(M, -1, -2) @ J @ M - J), axis=(-2, -1))


def project_symplectic(M):
    """Polar-type projection onto Sp(2n): Newton steps M <- M (1 + J E / 2).

    M is one matrix or a (B, 2n, 2n) stack; the stack iterates until every
    member is within 1e-14, at most 8 times.
    """
    J = J_std(M.shape[-1] // 2)
    for _ in range(8):
        E = np.swapaxes(M, -1, -2) @ J @ M - J
        if np.max(np.abs(E)) < 1e-14:
            break
        M = M @ (np.eye(J.shape[0]) + 0.5 * (J @ E))
    return M


def expm(G):
    """exp(G) by scaling and squaring with a Taylor core.

    G is one matrix or a (B, d, d) stack; a stack shares one scaling
    exponent, set by its largest norm.
    """
    norm = float(np.max(np.sum(np.abs(G), axis=-1), initial=0.0))
    s = max(0, int(np.ceil(np.log2(max(norm, 1e-30) / 0.25))))
    T = G / (2 ** s)
    out = np.broadcast_to(np.eye(G.shape[-1]), G.shape).copy()
    term = out.copy()
    for k in range(1, 18):
        term = term @ T / k
        out = out + term
        if np.max(np.abs(term), initial=0.0) < 1e-18:
            break
    for _ in range(s):
        out = out @ out
    return out


def _stage_samples(sigma, t, step):
    """(h, G) with G[j] = J sigma(j h / 2), j = 0 .. 2 nsteps: the generator
    on the RK4 stage grid of [0, t], sampled in one ``samples`` call."""
    if step <= 0:
        raise IntegrationFailure(f"step must be positive, got {step}")
    nsteps = max(1, int(np.ceil(t / step - 1e-12))) if t > 0 else 0
    h = t / nsteps if nsteps else 0.0
    return h, J_std(sigma.n) @ sigma.samples(0.5 * h * np.arange(2 * nsteps + 1))


# Most entries (steps x B x d x d) in one block of evaluated step maps of
# ``_rk4``, or one step when a single step holds more; 2^15 raised the peak
# RSS of 100 spectrum jobs by 0.5 MB and was no faster.  ``_coefficients``
# builds the coefficients in chunks of at most _CHUNK_ENTRIES entries.
_BLOCK_ENTRIES = 2 ** 14
_CHUNK_ENTRIES = 2 ** 12


def _step_maps(g1, g2, g4, h, shifted=False):
    """The classical RK4 steps of dM/dt = (g(t) + rho J) M as polynomials in
    rho, M_{k+1} = P(rho) M_k: with stage generators g1, g2, g4 ((s, d, d)
    stacks) and step h (a scalar or an (s, 1, 1, 1) stack),
    P = I + h/6 (k1 + 2 k2 + 2 k3 + k4), k1 = g1 + rho J,
    k2 = (g2 + rho J)(I + h/2 k1), k3 = (g2 + rho J)(I + h/2 k2) and
    k4 = (g4 + rho J)(I + h k3).  Returns the (s, m, d, d) coefficients C,
    P(rho) = sum_j rho^j C[:, j] + (h^4 / 24) rho^4 I: m = 4 if shifted,
    else m = 1, the rho-free step maps P(0) alone."""
    # sums in place: on a large stack every temporary is a fresh allocation
    d = g1.shape[-1]
    J, eye = J_std(d // 2), np.eye(d)
    k1 = np.zeros((len(g1), 4 if shifted else 1, d, d))
    k1[:, 0] = g1
    k1[:, 1:2] = J
    ks, x = [k1], np.empty_like(k1)
    for g, c in ((g2, 0.5 * h), (g2, 0.5 * h), (g4, h)):
        np.multiply(ks[-1], c, out=x)
        x[:, 0] += eye
        # (g + rho J) x, truncated after the last coefficient
        ks.append(g[:, None] @ x)
        ks[-1][:, 1:] += J @ x[:, :-1]
    k2, k3, k4 = ks[1:]
    k2 *= 2.0
    k2 += k1
    k3 *= 2.0
    k2 += k3
    k2 += k4
    k2 *= h / 6.0
    k2[:, 0] += eye
    return k2


def _coefficients(sigma, t, step, shifted=False):
    """(h, C): the step map coefficients (``_step_maps``) of every RK4 step
    of sigma on [0, t], (nsteps, m, d, d), built from the stage samples
    (``_stage_samples``) in chunks of at most ``_CHUNK_ENTRIES`` entries
    per temporary stack; the samples are dropped once C exists."""
    h, G = _stage_samples(sigma, t, step)
    nsteps = (len(G) - 1) // 2
    C = np.empty((nsteps, 4 if shifted else 1) + G.shape[1:])
    span = max(1, _CHUNK_ENTRIES // C[0].size)
    for k in range(0, nsteps, span):
        end = min(k + span, nsteps)
        C[k:end] = _step_maps(G[2 * k:2 * end:2], G[2 * k + 1:2 * end:2],
                              G[2 * k + 2:2 * end + 1:2], h, shifted)
    return h, C


def _evaluate(C, powers, top):
    """The step maps of the (s, m, d, d) coefficients C (``_step_maps``) at
    B shifts rho, as an (s, B, d, d) stack: one product of C with the
    powers rho^0 .. rho^(m - 1) (the rows of powers), plus, when m = 4,
    top, the (B, d * d) flattened terms (h^4 / 24) rho^4 I."""
    s, m, d = C.shape[:3]
    if m == 1:  # rho-free: powers is [[1, 0, ...]]
        return C
    P = powers[:, :m] @ C.reshape(s, m, d * d)
    P += top
    return P.reshape(s, len(powers), d, d)


# the drift checkpoints of _rk4 (see its docstring)
_PROJECT_EVERY = 100
_SYMPLECTIC_DRIFT_TOL, _SYMPLECTIC_DRIFT_LIMIT = 1e-10, 1e-3


def _rk4(C, h, rhos, keep=False):
    """Integrate dM/dt = (G(t) + rho J) M, M(0) = 1, for each rho in rhos.

    C holds the step map coefficients of the stage samples G of ``h``
    (``_coefficients``; rho-free ones serve rhos = [0] only).  The steps
    are taken in blocks: the step maps of a block, evaluated at every rho
    (``_evaluate``), are one stack of at most ``_BLOCK_ENTRIES`` entries;
    without keep they are multiplied pairwise and applied to M once, with
    keep their prefix products are formed by doubling (log2 of the block's
    length stacked products) and applied to M as one stack.  No block
    crosses a checkpoint: every ``_PROJECT_EVERY`` steps and after the
    last one, the drift max |M^T J M - J| of each member is checked: above
    ``_SYMPLECTIC_DRIFT_LIMIT`` the step is too large (StepTooLarge), above
    ``_SYMPLECTIC_DRIFT_TOL`` the member is projected back onto Sp(2n).
    Returns the (B, d, d) end states, or with keep every state, shaped
    (nsteps + 1, B, d, d).
    """
    nsteps, d = C.shape[0], C.shape[-1]
    J = J_std(d // 2)
    powers = np.vander(np.asarray(rhos, dtype=float), 5, increasing=True)
    top = (h ** 4 / 24.0) * powers[:, 4:] * np.eye(d).ravel()
    every = _PROJECT_EVERY
    M = np.broadcast_to(np.eye(d), (len(powers), d, d)).copy()
    states = np.empty((nsteps + 1,) + M.shape) if keep else None
    if keep:
        states[0] = M
    span = max(1, _BLOCK_ENTRIES // max(M.size, 1))
    k = 0
    while k < nsteps:
        end = min(k + span, (k // every + 1) * every, nsteps)
        P = _evaluate(C[k:end], powers, top)
        if keep:
            # inclusive prefix products P_j ... P_0 by doubling, on a copy:
            # rho-free P is a view of C
            P, gap = P.copy(), 1
            while gap < len(P):
                P[gap:] = P[gap:] @ P[:-gap]
                gap *= 2
            M = np.matmul(P, M, out=states[k + 1:end + 1])[-1]
        else:
            while len(P) > 1:
                half = len(P) // 2
                P = np.concatenate([P[1:2 * half:2] @ P[0:2 * half:2],
                                    P[2 * half:]])
            M = P[0] @ M
        k = end
        if k % every == 0 or k == nsteps:
            drift = _drift(M, J)
            worst = float(np.max(drift, initial=0.0))
            if worst > _SYMPLECTIC_DRIFT_LIMIT:
                raise StepTooLarge(
                    f"symplectic drift {worst:.3e} above hard limit; decrease step",
                    drift=worst)
            off = drift > _SYMPLECTIC_DRIFT_TOL
            if np.any(off):
                M[off] = project_symplectic(M[off])
    return states if keep else M


# the RK4 step of every flow of a path not declared constant
_ODE_STEP = 1e-3


def shifted_flows(sigma, step=None, t=1.0):
    """rhos -> Psi_{sigma + rho}(t) for a batch of shifts, as a (B, 2n, 2n) stack.

    A declared constant sigma uses the exact exponential of t (J sigma +
    rho J); otherwise sigma is sampled once here on the RK4 stage grid, the
    step maps' coefficients in rho are built from those samples, and every
    call evaluates them for its whole batch (the spectrum interpolant's nodes).
    """
    if sigma.constant is not None:
        J = J_std(sigma.n)
        G0 = J @ sigma.constant
        return lambda rhos: expm(
            t * (G0 + np.asarray(rhos, dtype=float)[:, None, None] * J))
    step = _ODE_STEP if step is None else float(step)
    h, C = _coefficients(sigma, t, step, shifted=True)
    return lambda rhos: _rk4(C, h, rhos)


def fundamental_solution(sigma, t=1.0, step=None):
    """Psi(t) with J dPsi + sigma Psi = 0, Psi(0) = 1.

    The exact exponential for a declared constant sigma, classical RK4 at
    ``step`` (default ``_ODE_STEP``) on rho-free step maps
    otherwise; see ``_rk4`` for the projection and drift policy.
    """
    if sigma.constant is not None:
        psi = shifted_flows(sigma, step, t)([0.0])[0]
    else:
        step = _ODE_STEP if step is None else float(step)
        h, C = _coefficients(sigma, t, step)
        psi = _rk4(C, h, [0.0])[0]
    return SymplecticMatrix(n=sigma.n, entries=psi)


class FundamentalFlow:
    """Evaluator t -> Psi(t) on [0, 1] for one symmetric path.

    A declared constant sigma is the exact one-parameter group.  Otherwise
    the RK4 state at every step of ``_ODE_STEP`` is kept (``_rk4`` with
    keep: each block's states from its prefix products), and a query
    is one partial RK4 step from the step below it; ``at`` answers a whole
    batch of t with one stack of partial step maps (``_step_maps``), whose
    stage generators come from one ``sigma.samples`` call.
    """

    def __init__(self, sigma):
        self.sigma = sigma
        self._J = J_std(sigma.n)
        if sigma.constant is not None:
            self._const_gen = self._J @ sigma.constant
            return
        self._const_gen = None
        self._h, C = _coefficients(sigma, 1.0, _ODE_STEP)
        self._states = _rk4(C, self._h, [0.0], keep=True)[:, 0]

    def __call__(self, t):
        return self.at([t])[0]

    def at(self, ts):
        """Psi(t) for every t of ts (clipped to [0, 1]), as a (B, 2n, 2n) stack."""
        ts = np.clip(np.asarray(ts, dtype=float), 0.0, 1.0)
        if self._const_gen is not None:
            return expm(ts[:, None, None] * self._const_gen)
        k0 = np.floor(ts / self._h + 1e-12).astype(int)
        M = self._states[k0]
        rem = ts - k0 * self._h
        part = np.flatnonzero(rem > 1e-15)
        if len(part):
            t0, r = k0[part] * self._h, rem[part]
            g = self._J @ self.sigma.samples(
                np.concatenate([t0, t0 + 0.5 * r, t0 + r]))
            g = g.reshape((3, len(part)) + self._J.shape)
            M[part] = _step_maps(*g, r[:, None, None, None])[:, 0] @ M[part]
        return M


def phi_mu(n, mu, t):
    """Real representation of diag(e^{pi i mu t}, 1, ..., 1) on R^{2n}; an
    array of times gives a (..., 2n, 2n) stack."""
    z = np.exp(1j * np.pi * mu * np.asarray(t, dtype=float))
    out = np.broadcast_to(np.eye(2 * n), z.shape + (2 * n, 2 * n)).copy()
    out[..., 0, 0] = out[..., n, n] = z.real
    out[..., n, 0] = z.imag
    out[..., 0, n] = -z.imag
    return out


def mu_action(mu, sigma):
    """The Z-action mu.sigma = phi_{-mu} sigma phi_mu + J phi_{-mu} d/dt phi_mu.

    Preserves symmetry and the spectrum of the associated boundary operator
    with boundary pair (R^n x 0, R^n x 0).
    """
    n = sigma.n
    # phi_{-mu} d/dt phi_mu is the constant generator pi*mu*J_1 restricted to
    # the first complex coordinate; J * (pi mu J_1) = -pi mu P_1.
    shift = np.zeros((2 * n, 2 * n))
    shift[0, 0] = shift[n, n] = -np.pi * mu

    def stack(ts):
        return phi_mu(n, -mu, ts) @ sigma.samples(ts) @ phi_mu(n, mu, ts) + shift

    return SymmetricPath(n=n, stack=stack).check()


def _blocks(n1, n2):
    """Coordinates of the two summands of R^{2n1} + R^{2n2} = R^{2(n1+n2)},
    interleaved as (x', x'', y', y'')."""
    n = n1 + n2
    return (np.r_[0:n1, n:n + n1], np.r_[n1:n, n + n1:2 * n])


def direct_sum_frames(F, G):
    """Block direct sum of Lagrangian frames (or of stacks of them) under
    R^{2n1} + R^{2n2} = R^{2n}.

    Coordinates interleave as (x', x'', y', y'') so that J_{n1} + J_{n2}
    matches J_{n1+n2}.
    """
    n1, n2 = F.n, G.n
    i1, i2 = _blocks(n1, n2)
    M = np.zeros(F.frame.shape[:-2] + (2 * (n1 + n2), n1 + n2))
    M[..., i1, :n1] = F.frame
    M[..., i2, n1:] = G.frame
    return validate_lagrangian(M)


def direct_sum_paths(sig1, sig2):
    """Direct sum of symmetric paths under the block embedding above."""
    n1, n2 = sig1.n, sig2.n
    i1, i2 = _blocks(n1, n2)

    def place(S1, S2):
        out = np.zeros(S1.shape[:-2] + (2 * (n1 + n2),) * 2)
        out[..., i1[:, None], i1] = S1
        out[..., i2[:, None], i2] = S2
        return out

    constant = None
    if sig1.constant is not None and sig2.constant is not None:
        constant = place(sig1.constant, sig2.constant)
    return SymmetricPath(n=n1 + n2, constant=constant,
                         stack=lambda ts: place(sig1.samples(ts),
                                                sig2.samples(ts))).check()
