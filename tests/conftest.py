import os

import numpy as np
import pytest
from hypothesis import settings

settings.register_profile("ci", max_examples=60, deadline=None)
settings.load_profile("ci")

SEED = int(os.environ.get("FLOERSS_SEED", "20240817"))


@pytest.fixture
def rng():
    return np.random.default_rng(SEED)


def make_rng(offset=0):
    return np.random.default_rng(SEED + offset)


# -- shared random generators -----------------------------------------------------


def random_symmetric(rng, n, scale=1.0):
    S = rng.standard_normal((2 * n, 2 * n))
    return scale * 0.5 * (S + S.T)


def random_sigma_poly(rng, n, degree=1, scale=0.6):
    from floerss import symplin as sl
    coeffs = [random_symmetric(rng, n, scale / (k + 1)) for k in range(degree + 1)]
    return sl.poly_path(coeffs)


def random_lagrangian(rng, n):
    """Random Lagrangian frame: a random symplectic matrix applied to R^n x 0."""
    from floerss import symplin as sl
    return sl.apply_matrix(random_symplectic(rng, n), sl.horizontal(n))


def random_symplectic(rng, n, factors=3, scale=0.7):
    """Product of elementary symplectic matrices (no matrix exponential)."""
    from floerss import symplin as sl
    M = np.eye(2 * n)
    for _ in range(factors):
        kind = rng.integers(0, 3)
        if kind == 0:
            B = scale * random_half_symmetric(rng, n)
            E = np.block([[np.eye(n), B], [np.zeros((n, n)), np.eye(n)]])
        elif kind == 1:
            A = np.eye(n) + scale * 0.5 * rng.standard_normal((n, n))
            E = np.block([[A, np.zeros((n, n))],
                          [np.zeros((n, n)), np.linalg.inv(A).T]])
        else:
            E = sl.rotation(n, float(rng.uniform(-1.2, 1.2)))
        M = M @ E
    return M


def random_half_symmetric(rng, n):
    B = rng.standard_normal((n, n))
    return 0.5 * (B + B.T)


def random_symplectic_path(rng, n, a=0.0, b=1.0, scale=0.8):
    """Smooth path of symplectic matrices with M(a) = identity; M(ss) of an
    array of parameters is the (..., 2n, 2n) stack."""
    from floerss import symplin as sl
    th = rng.uniform(-scale, scale, 2)
    B0 = random_half_symmetric(rng, n) * scale
    B1 = random_half_symmetric(rng, n) * scale

    def M(s):
        x = (np.asarray(s, dtype=float) - a) / (b - a)
        rot = sl.rotation(n, th[0] * x + th[1] * x * x)
        x = x[..., None, None]
        shear = np.broadcast_to(np.eye(2 * n), x.shape[:-2] + (2 * n, 2 * n)).copy()
        shear[..., :n, n:] = x * B0 + x * x * B1
        return rot @ shear

    return M


def random_path(rng, n, a=0.0, b=1.0, scale=0.8):
    """Random smooth Lagrangian path (symplectic path applied to a frame)."""
    from floerss import lagpath as lp
    from floerss import symplin as sl
    base = random_lagrangian(rng, n)
    M = random_symplectic_path(rng, n, a, b, scale)
    return lp.LagrangianPath(n, a, b,
                             lambda ss: sl.transform_frame(M(ss), base).frame,
                             "random")


def pointwise_path(n, a, b, frame_at):
    """A path given one parameter at a time (frame_at(s) -> LagrangianFrame),
    for paths that branch on s: its stack calls frame_at once per parameter."""
    from floerss import lagpath as lp
    return lp.LagrangianPath(n, a, b,
                             lambda ss: np.stack([frame_at(s).frame for s in ss]))
