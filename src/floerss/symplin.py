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
  (``_step_maps``) are built once per flow from the samples.  A shifted
  flow multiplies consecutive steps into pair maps P_{2k+1} P_{2k} of
  degree 8 (``_pair_maps``), so a pass evaluates the maps of a block as
  one stack and pays one product per member and pair; the rho-free flows
  keep one map per step.  Every ``_PROJECT_EVERY`` steps and after the
  last step the symplectic drift is checked: above
  ``_SYMPLECTIC_DRIFT_LIMIT`` StepTooLarge is raised, above
  ``_SYMPLECTIC_DRIFT_TOL`` the state is projected back onto Sp(2n).
* ``FundamentalFlow`` (all states, each block's from the prefix products
  of its step maps; a batch of t-queries is one stack of partial step
  maps) and ``shifted_flows`` (the nodes and oracle probes of the spectrum
  interpolant, on pair maps) are the two entry points;
  ``fundamental_solution`` is the flow's end state Psi(1).

A symmetric path is its stack (``SymmetricPath.stack``: times -> values),
and ``sigma(t)`` is a stack of one; sums and Z-actions stack their parts.

All values are immutable after construction and all operations are pure.
"""

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import (DimensionMismatch, NotFullRank, NotIsotropic, NotSymmetric,
                     StepTooLarge)


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


def _stage_samples(sigma, step):
    """(h, G) with G[j] = J sigma(j h / 2), j = 0 .. 2 nsteps: the generator
    on the RK4 stage grid of [0, 1] with h at most ``step``, sampled in one
    ``samples`` call."""
    nsteps = max(1, int(np.ceil(1.0 / step - 1e-12)))
    h = 1.0 / nsteps
    return h, J_std(sigma.n) @ sigma.samples(0.5 * h * np.arange(2 * nsteps + 1))


# Most entries (B x maps x d x d) in one block of evaluated maps of ``_rk4``,
# or one map when a single map holds more; 2^15 raised the peak RSS of 100
# spectrum jobs by 0.5 MB and was no faster.  ``_coefficients`` builds the
# coefficients in chunks whose (steps, d, d) temporaries hold at most
# _CHUNK_ENTRIES entries.
_BLOCK_ENTRIES = 2 ** 14
_CHUNK_ENTRIES = 2 ** 12


def _add_Jx(k, x):
    """k += J_std x on (..., d, d) stacks, in place: a signed swap of the
    row blocks of x."""
    n = x.shape[-2] // 2
    k[..., :n, :] -= x[..., n:, :]
    k[..., n:, :] += x[..., :n, :]
    return k


def _xJ(x, c):
    """x (c J_std) on a (..., d, d) stack, for a scalar or (..., 1, 1) c: a
    signed swap of the column blocks of x, times c."""
    n = x.shape[-1] // 2
    out = np.empty_like(x)
    np.multiply(x[..., n:], c, out=out[..., :n])
    np.multiply(x[..., :n], -c, out=out[..., n:])
    return out


def _step_maps(g1, g2, g4, h, shifted=False):
    """The classical RK4 steps of dM/dt = (g(t) + rho J) M as polynomials in
    rho, M_{k+1} = P(rho) M_k: with stage generators g1, g2, g4 ((s, d, d)
    stacks) and step h (a scalar or an (s, 1, 1) stack),
    P = I + h/6 (k1 + 2 k2 + 2 k3 + k4), k1 = g1 + rho J,
    k2 = (g2 + rho J)(I + h/2 k1), k3 = (g2 + rho J)(I + h/2 k2) and
    k4 = (g4 + rho J)(I + h k3).  Returns the (m, s, d, d) coefficients C,
    P(rho) = sum_j rho^j C[j] + (h^4 / 24) rho^4 I: m = 4 if shifted,
    else m = 1, the rho-free step maps P(0) alone.

    The coefficient of rho^j in k_i is k_i[j]; with c = h/2, k2[2] = -c I,
    k3[3] = -c^2 J, and the rest of the coefficients past k_i[i - 1] are 0.
    Products with J are signed block swaps, products with these multiples
    of I and J are scalings, so a step takes six stacked products when
    shifted and three otherwise.  Every entry is rounded as in the dense
    products with J, I and 0, so C is bitwise that of the dense formula.
    """
    # sums in place: on a large stack every temporary is a fresh allocation
    d = g1.shape[-1]
    eye, c = np.eye(d), 0.5 * h
    C = np.empty((4 if shifted else 1, len(g1), d, d))
    # k2 = (g2 + rho J) x with x = I + c k1
    x0 = g1 * c
    x0 += eye
    k2 = [g2 @ x0]
    if shifted:
        k2.append(_add_Jx(_xJ(g2, c), x0))
    # k3 = (g2 + rho J) x with x = I + c k2, x[2] = -q I
    x = [k * c for k in k2]
    x[0] += eye
    k3 = [g2 @ xj for xj in x]
    if shifted:
        q = c * c
        _add_Jx(k3[1], x[0])
        k3.append(_add_Jx(g2 * -q, x[1]))
    # k4 = (g4 + rho J) x with x = I + h k3, x[3] = -(h q) J
    x = [k * h for k in k3]
    x[0] += eye
    k4 = [g4 @ xj for xj in x]
    if shifted:
        _add_Jx(k4[1], x[0])
        _add_Jx(k4[2], x[1])
        k4.append(_add_Jx(_xJ(g4, -(h * q)), x[2]))
    # P = I + h/6 (((2 k2 + k1) + 2 k3) + k4) in the dense order, where
    # k1 = (g1, J, 0, 0), k2[2] = -c I, k2[3] = 0 and k3[3] = -q J
    k1 = [g1, J_std(d // 2)]
    if shifted:
        k2.append(-c * eye)
        k3.append(-q * J_std(d // 2))
    for j, out in enumerate(C):
        if j < 3:
            np.multiply(k2[j], 2.0, out=out)
            if j < 2:
                out += k1[j]
            out += k3[j] * 2.0
        else:
            np.multiply(k3[j], 2.0, out=out)
        out += k4[j]
        out *= h / 6.0
    C[0] += eye
    return C


# _PAIR_SUMS[r, 4 p + q] = 1 where p + q = r: the rho^r coefficient of a
# product of two step maps collects the products of their coefficients p, q
_PAIR_SUMS = 1.0 * (np.add.outer(np.arange(4), np.arange(4)).ravel()
                    == np.arange(9)[:, None])


def _pair_maps(S, h):
    """The maps Q_k = P_{2k+1} P_{2k} of consecutive pairs of RK4 steps, from
    the (4, 2p, d, d) shifted step coefficients S of step h (``_step_maps``),
    as the (9, p, d, d) coefficients of these degree-8 polynomials in rho.

    With a = h^4 / 24, P_i = sum_{j<4} rho^j S_i[j] + a rho^4 I, so Q_k is
    the sum of the 16 products S_{2k+1}[p] S_{2k}[q] at rho^(p+q), one
    stacked product and one product with ``_PAIR_SUMS``, plus
    a rho^(4+j) (S_{2k+1}[j] + S_{2k}[j]) and a^2 rho^8 I.
    """
    even, odd = S[:, 0::2], S[:, 1::2]
    X = odd[:, None] @ even[None]
    Q = (_PAIR_SUMS @ X.reshape(16, -1)).reshape((9,) + even.shape[1:])
    a = h ** 4 / 24.0
    Q[4:8] += a * (odd + even)
    Q[8] = (a * a) * np.eye(S.shape[-1])
    return Q


def _coefficients(sigma, step, shifted=False):
    """(h, C): the coefficients of the maps of the RK4 steps of sigma on
    [0, 1], (m, maps, d, d), built from the stage samples
    (``_stage_samples``); the samples are dropped once C exists.

    Rho-free (m = 1), a map is one step (``_step_maps``).  Shifted (m = 9),
    a map is a pair of consecutive steps (``_pair_maps``), and an odd last
    step is a map of its own, its coefficients past rho^4 zero.  The steps
    are taken in chunks of at most _CHUNK_ENTRIES // d^2 steps (one map
    when a map holds more), an even number when shifted, so that each
    (steps, d, d) temporary of ``_step_maps`` and each (pairs, d, d)
    product of ``_pair_maps`` holds at most ``_CHUNK_ENTRIES`` entries.
    """
    h, G = _stage_samples(sigma, step)
    nsteps, d = (len(G) - 1) // 2, G.shape[-1]
    per = 2 if shifted else 1
    C = np.empty((9 if shifted else 1, -(-nsteps // per), d, d))
    span = per * max(1, _CHUNK_ENTRIES // (per * d * d))
    for k in range(0, nsteps, span):
        end = min(k + span, nsteps)
        S = _step_maps(G[2 * k:2 * end:2], G[2 * k + 1:2 * end:2],
                       G[2 * k + 2:2 * end + 1:2], h, shifted)
        if not shifted:
            C[:, k:end] = S
            continue
        pairs = (end - k) // 2
        C[:, k // 2:k // 2 + pairs] = _pair_maps(S[:, :2 * pairs], h)
        if (end - k) % 2:  # the lone last step, of degree 4
            C[:, -1] = 0.0
            C[:4, -1] = S[:, -1]
            C[4, -1] = (h ** 4 / 24.0) * np.eye(d)
    return h, C


def _evaluate(C, powers):
    """The maps of the (m, s, d, d) coefficients C at B shifts rho, as a
    (B, s, d, d) stack: one (B x m) @ (m x s d^2) product of the powers
    rho^0 .. rho^(m - 1) (the rows of powers) with C; rho-free maps (m = 1,
    powers [[1]]) are C itself."""
    m, s, d = C.shape[:3]
    if m == 1:
        return C
    return (powers @ C.reshape(m, s * d * d)).reshape(len(powers), s, d, d)


# the drift checkpoints of _rk4 (see its docstring), an even number of steps
_PROJECT_EVERY = 100
_SYMPLECTIC_DRIFT_TOL, _SYMPLECTIC_DRIFT_LIMIT = 1e-10, 1e-3


def _rk4(C, rhos, keep=False):
    """Integrate dM/dt = (G(t) + rho J) M, M(0) = 1, for each rho in rhos.

    C holds the coefficients of the RK4 maps of G in rho (``_coefficients``):
    a map of degree 4k spans k steps, a rho-free one (which serves rhos =
    [0] only) one step.  The maps are taken in blocks: the maps of a block,
    evaluated at every rho (``_evaluate``), are one stack of at most
    ``_BLOCK_ENTRIES`` entries; without keep they are multiplied pairwise
    and applied to M once, with keep their prefix products are formed by
    doubling (log2 of the block's length stacked products) and applied to M
    as one stack.  No block crosses a checkpoint: every ``_PROJECT_EVERY``
    steps and after the last map, the drift max |M^T J M - J| of each member
    is checked: above ``_SYMPLECTIC_DRIFT_LIMIT`` the step is too large
    (StepTooLarge), above ``_SYMPLECTIC_DRIFT_TOL`` the member is projected
    back onto Sp(2n).  Returns the (B, d, d) end states, or with keep the
    state after every map, shaped (B, maps + 1, d, d).
    """
    m, nmaps, d = C.shape[0], C.shape[1], C.shape[-1]
    J = J_std(d // 2)
    powers = np.vander(np.asarray(rhos, dtype=float), m, increasing=True)
    every = _PROJECT_EVERY // max(1, (m - 1) // 4)
    M = np.broadcast_to(np.eye(d), (len(powers), d, d)).copy()
    states = np.empty((len(M), nmaps + 1, d, d)) if keep else None
    if keep:
        states[:, 0] = M
    span = max(1, _BLOCK_ENTRIES // max(M.size, 1))
    k = 0
    while k < nmaps:
        end = min(k + span, (k // every + 1) * every, nmaps)
        P = _evaluate(C[:, k:end], powers)
        if keep:
            # inclusive prefix products P_j ... P_0 by doubling, on a copy:
            # rho-free P is a view of C
            P, gap = P.copy(), 1
            while gap < P.shape[1]:
                P[:, gap:] = P[:, gap:] @ P[:, :-gap]
                gap *= 2
            M = np.matmul(P, M[:, None], out=states[:, k + 1:end + 1])[:, -1]
        else:
            while P.shape[1] > 1:
                half = P.shape[1] // 2
                P = np.concatenate([P[:, 1:2 * half:2] @ P[:, 0:2 * half:2],
                                    P[:, 2 * half:]], axis=1)
            M = P[:, 0] @ M
        k = end
        if k % every == 0 or k == nmaps:
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


def shifted_flows(sigma):
    """rhos -> Psi_{sigma + rho}(1) for a batch of shifts, as a (B, 2n, 2n) stack.

    A declared constant sigma uses the exact exponential of J sigma +
    rho J; otherwise sigma is sampled once here on the RK4 stage grid of
    ``_ODE_STEP``, the coefficients in rho of the maps of consecutive pairs
    of steps are built from those samples (``_coefficients``), and every
    call is one ``_rk4`` pass that evaluates them for its whole batch (the
    spectrum interpolant's nodes with its oracle probes).
    """
    if sigma.constant is not None:
        J = J_std(sigma.n)
        G0 = J @ sigma.constant
        return lambda rhos: expm(
            G0 + np.asarray(rhos, dtype=float)[:, None, None] * J)
    C = _coefficients(sigma, _ODE_STEP, shifted=True)[1]
    return lambda rhos: _rk4(C, rhos)


def fundamental_solution(sigma):
    """Psi(1) with J dPsi + sigma Psi = 0, Psi(0) = 1, as a (2n, 2n) array:
    the end state of ``FundamentalFlow(sigma)``."""
    return FundamentalFlow(sigma)(1.0)


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
        self._h, C = _coefficients(sigma, _ODE_STEP)
        self._states = _rk4(C, [0.0], keep=True)[0]

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
            M[part] = _step_maps(*g, r[:, None, None])[0] @ M[part]
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
