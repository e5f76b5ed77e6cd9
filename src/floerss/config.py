"""Numeric tolerances and solver settings, grouped in one dataclass.

A single default instance ``DEFAULTS`` is shared by the whole package;
operations accept an optional override.
"""

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Settings:
    # frames: rank / isotropy / subspace-equality tolerance on orthonormalized
    # frames (double precision, target sizes n <= 8)
    frame_tol: float = 1e-9

    # fundamental solutions (symplin): paths declared constant use the exact
    # exponential; every other path runs the one batched classical RK4 at
    # `ode_step` from J sigma sampled once on its stage grid.  Every
    # `project_every` steps and after the last one, a drift
    # max |M^T J M - J| above `symplectic_drift_limit` raises StepTooLarge
    # and one above `symplectic_drift_tol` projects back onto Sp(2n); the
    # RK4 takes its steps in blocks of step maps evaluated from coefficients
    # built once per flow, and no block crosses one of these checkpoints.
    ode_step: float = 1e-3
    project_every: int = 100
    symplectic_drift_tol: float = 1e-10
    symplectic_drift_limit: float = 1e-3

    # crossings: rs_index and find_crossings sample the Souriau map on one
    # first grid of crossing_grid cells; an eigenvalue angle of the map below
    # twice crossing_accept_angle is an intersection, and find_crossings
    # bisects the other crossings to crossing_refine_tol (relative to
    # max(interval length, 1))
    crossing_grid: int = 256
    crossing_refine_tol: float = 1e-11     # bracket width for localization
    crossing_accept_angle: float = 1e-7    # sin(angle) below which a crossing is accepted
    degeneracy_tol: float = 1e-6           # relative eigenvalue cutoff of the crossing form
    degeneracy_abs: float = 1e-8           # absolute floor (finite-difference noise)
    fd_step_rel: float = 1e-5              # finite-difference step, relative to interval

    # eigenvalues: spectrum.eigenvalues samples the Souriau map against L1 of
    # one Chebyshev interpolant of rho -> Psi_{sigma+rho}(1) L0 (ode_step
    # flows) on spectrum_grid cells of the window and one more at each end,
    # and bisects the cells whose eigenvalue count is nonzero until each
    # bracket is at most spectrum_refine_tol wide, up to 8 predicted
    # halvings per stacked evaluation; |rho| < zero_eigen_tol is kernel
    spectrum_window: float = 4 * 3.141592653589793
    spectrum_grid: int = 2048
    spectrum_refine_tol: float = 1e-8
    zero_eigen_tol: float = 1e-7

    # gap inequality check
    quad_nodes: int = 256

    def with_(self, **kw):
        return replace(self, **kw)


DEFAULTS = Settings()
