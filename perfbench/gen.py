"""Seeded input generator for the floerss benchmark.

Builds ``floerss/1`` input documents with numpy's seeded RNG alone: nothing
here imports ``floerss`` or the test suite, so two commits of the program
receive byte-identical input files from the same seed.  Every job carries
an ``expect`` record that the oracles in ``oracles.py`` check the CLI answer
against; the expected values are computed here from the construction, not
by the program under test.

Most constructions use the *line model*: a unitary ``O`` and per-line angles
``a`` give the Lagrangian ``L(O, a) = O diag(e^{i a}) R^n``.  Rotations,
and the flow of ``sigma = O diag(c(t), c(t)) O^T``, move the angles line by
line, so Robbin-Salamon indices and spectra are known exactly:
for a pair of line-model paths with relative angles ``y_j``,
``mu = sum_j h(y_j(b)) - h(y_j(a))`` with ``h(y) = floor(y/pi) + 1/2`` off
``pi Z`` and ``h(k pi) = k``.
"""

import math

import numpy as np

PI = math.pi
SCHEMA = "floerss/1"
STRUCTURE_KEY = 20161606

# Workload parameters.  Each pool is a fixed cycle of job kinds repeated to
# ``pool_size`` distinct inputs, about twice what a run uses at the defining
# commit.  A job's structure (sizes, degrees, grids, crossing counts) comes
# from an RNG keyed by its position (``STRUCTURE_KEY``), the continuous data
# from the seed, so every seed has the same cost profile.
WORKLOADS = {
    "spectra": {
        "why": "spectrum jobs at the acceptance scan resolution; nearly all "
               "work is the batched shifted flow and the scan/golden "
               "refinement in spectrum and symplin",
        # 5 of every 8 operators have non-constant poly sigma (degree 1-2,
        # n = 1..4, a generic symmetric perturbation of size eps on top of a
        # line-model flow); 3 of 8 are constant (flat models and constant
        # line models), which keeps the exact-exponential branch measured.
        "cycle": ["spec_poly1", "spec_const", "spec_poly2", "spec_poly3",
                  "spec_flat", "spec_poly4", "spec_const", "spec_poly2"],
        "pool_size": 32,
        "window": 2 * PI,   # acceptance criterion 02
        "grid": 384,
        "eps": 0.05,        # perturbation size; eigenvalues move by <= eps
        "sigma_max": 2.5,   # max |sigma(t)| entry of every operator
        "warmup": ["spec_flat", "spec_const"],
        # jobs in the stdout digest and in each pass of a traced run
        "prefix_jobs": 4,
        # 16-22 jobs fit in a 40 s run here, so the median is the highest
        # percentile with about ten samples beyond it
        "tail_percentile": 50,
    },
    "indices": {
        "why": "rs-index/viterbo/maslov/index-formula jobs at the acceptance "
               "grids; lagpath's per-point path scans (frames, angles and "
               "per-t flow queries, spent in symplin), refinement and "
               "crossing forms dominate",
        # closed-form paths (graph, rotation, sampled) are the majority;
        # fundamental flow-image paths are a quarter.  One graph job in 32 is
        # a degenerate crossing that the crossing-form engine refuses.
        "cycle": ["graph", "rotation", "sampled", "viterbo", "graph",
                  "fundamental", "rotation", "maslov_rotation", "graph",
                  "sampled", "maslov_diagonal", "viterbo", "graph",
                  "fundamental", "rotation", "index_formula",
                  "graph", "rotation", "sampled", "viterbo", "graph",
                  "fundamental", "rotation", "maslov_rotation", "graph",
                  "sampled", "maslov_diagonal", "viterbo", "graph_degenerate",
                  "fundamental", "rotation", "index_formula"],
        "pool_size": 320,
        "warmup": ["graph", "rotation", "sampled", "viterbo", "maslov_rotation"],
        "prefix_jobs": 64,
        "tail_percentile": 90,
    },
    "pages": {
        "why": "exact algebra only: ss pages over pearl data form the "
               "latency tail, Smith forms, chain building and verdicts the "
               "millisecond body",
        "cycle": ["ss_novikov_plain", "homology_z2", "homology_z", "morse",
                  "displaceable", "homology_l2", "pozniak", "ss_action",
                  "homology_z", "morse", "quantum_cases", "homology_z2",
                  "ss_novikov_stretched", "homology_l2", "displaceable",
                  "morse"],
        "pool_size": 480,
        "warmup": ["ss_action", "homology_z2", "homology_z", "homology_l2",
                   "morse", "displaceable", "pozniak", "quantum_cases"],
        "prefix_jobs": 32,
        # the ss jobs beyond p95 are dense in latency; p90 falls in the sparse
        # gap between the stretched and plain Novikov jobs
        "tail_percentile": 95,
    },
}


# -- line model ----------------------------------------------------------------


def unitary(rng, n):
    Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Q, R = np.linalg.qr(Z)
    d = np.diag(R)
    return Q * (d / np.abs(d))[None, :]


def realify(U):
    """Real 2n x 2n matrix of a complex n x n one on (x, y) coordinates."""
    return np.block([[U.real, -U.imag], [U.imag, U.real]])


def line_frame(O, angles):
    U = O * np.exp(1j * np.asarray(angles))[None, :]
    return np.vstack([U.real, U.imag])


def line_sigma(O, rates):
    """Poly coefficients of sigma = O diag(c(t), c(t)) O^T; rates[k][j] is
    the t^k coefficient of line j's rate c_j."""
    Or = realify(O)
    out = []
    for c in rates:
        S = Or @ np.diag(np.concatenate([c, c])) @ Or.T
        out.append(0.5 * (S + S.T))
    return out


def h_index(y):
    """RS weight of a line at relative angle y: floor(y/pi) + 1/2 off pi Z.

    Returned doubled, so the value is an exact integer."""
    q = y / PI
    k = round(q)
    if abs(q - k) < 1e-9:
        return 2 * k
    return 2 * math.floor(q) + 1


def mu2_lines(y_start, y_end):
    """Doubled RS index of line-model paths with relative angles y."""
    return sum(h_index(b) - h_index(a) for a, b in zip(y_start, y_end))


def on_crossing(y):
    q = y / PI
    return abs(q - round(q)) < 1e-9


def clear_of_crossing(y, margin):
    q = y / PI
    return abs(q - round(q)) * PI > margin


def poly_integral(coeffs):
    return [0.0] + [c / (k + 1) for k, c in enumerate(coeffs)]


def positive_rate(rng, degree, lo=0.6, hi=3.0):
    """Coefficients of a polynomial rate with values in [lo, hi] on [0, 1]."""
    while True:
        c = list(rng.uniform(-1.5, 1.5, degree + 1))
        c[0] = float(rng.uniform(lo, hi))
        vals = np.polynomial.polynomial.polyval(np.linspace(0, 1, 65), c)
        if lo <= vals.min() and vals.max() <= hi + 1.5:
            return c


def isolated(Y, ss, sep_time=0.04, sep_angle=0.1):
    """Crossings of line-model paths are well conditioned.

    Y[j] holds line j's relative angle on the grid ss.  Crossings (a line
    meeting pi Z) must be sep_time apart, and when one line crosses every
    other line must be at least sep_angle from its own crossing.  The
    crossing-form engine scans only the smallest principal angle, so a
    crossing while another line sits closer than that is missed (a known
    defect, see CHANGES.md); inputs keep clear of that regime."""
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    Q = Y / PI
    dist = np.abs(Q - np.round(Q)) * PI
    times = []
    for j in range(Y.shape[0]):
        fl = np.floor(Q[j] + 1e-12)
        idx = sorted(set(np.nonzero(fl[1:] != fl[:-1])[0])
                     | set(np.nonzero(dist[j] < 1e-9)[0]))
        # a crossing on a grid point also flips the floor next to it
        idx = [i for k, i in enumerate(idx) if k == 0 or i - idx[k - 1] > 1]
        for i in idx:
            others = np.delete(dist[:, i], j)
            if others.size and others.min() < sep_angle:
                return False
            times.append(float(ss[i]))
    times.sort()
    return all(t2 - t1 >= sep_time for t1, t2 in zip(times, times[1:]))


def fine_grid(a=0.0, b=1.0, samples=2001):
    return np.linspace(a, b, samples)


def polyval(coeffs, ss):
    return np.polynomial.polynomial.polyval(ss, coeffs)


def mat(M):
    return [[float(x) for x in row] for row in np.asarray(M)]


def header(kind):
    return {"schema": SCHEMA, "kind": kind}


# -- spectra --------------------------------------------------------------------


def _spread_angles(rng, n, sep, margin):
    """n angles in (0, pi), pairwise circular distance >= sep and distance
    >= margin from 0 mod pi."""
    while True:
        g = np.sort(rng.uniform(margin, PI - margin, n))
        gaps = np.diff(np.concatenate([g, [g[0] + PI]]))
        if n == 1 or np.min(gaps) >= sep:
            return [float(x) for x in g]


def _spectrum_job(rng, n, degree, p, exact_lines=None):
    eps, window, grid = (p["eps"] if degree else 0.0), p["window"], p["grid"]
    O = unitary(rng, n)
    alpha = rng.uniform(0, PI, n)
    rates = [rng.uniform(-3, 3, n)] + [rng.uniform(-2, 2, n) / (k + 1)
                                      for k in range(degree)]
    # scale the rates so max |sigma(t)| over spectrum's probe times is fixed:
    # the scan step, hence the cost, then depends on n and degree only
    probe = max(np.max(np.abs(sum(c * t ** k for k, c in
                                  enumerate(line_sigma(O, rates)))))
                for t in np.linspace(0, 1, 5))
    rates = [r * (p["sigma_max"] / probe) for r in rates]
    theta1 = sum(r / (k + 1) for k, r in enumerate(rates))
    if exact_lines is None:
        gammas = _spread_angles(rng, n, sep=8 * p["eps"], margin=4 * p["eps"])
    else:
        gammas = exact_lines
    beta = alpha + theta1 + np.asarray(gammas)
    coeffs = line_sigma(O, rates)
    if eps:
        # generic symmetric perturbation eps (G0 + t G1), ||G0||, ||G1|| <= 1/2
        for k in range(2):
            G = rng.standard_normal((2 * n, 2 * n))
            G = 0.5 * (G + G.T)
            G *= 0.5 / np.linalg.norm(G, 2)
            coeffs[k] = coeffs[k] + eps * G
    sigma = ({"constant": mat(coeffs[0])} if degree == 0
             else {"poly": [mat(c) for c in coeffs]})
    doc = header("spectrum")
    doc.update({"n": n, "sigma": sigma,
                "boundary": [mat(line_frame(O, alpha)),
                             mat(line_frame(O, beta))],
                "window": window, "grid": grid})
    expect = {"check": "spectrum", "gammas": [float(g) for g in gammas],
              "eps": eps, "window": window}
    return "spectrum", ["--json"], doc, expect


def _flat_job(rng, window, grid):
    alpha = float(rng.uniform(0.2, PI - 0.2))
    doc = header("spectrum")
    doc.update({"n": 1, "sigma": {"constant": [[0.0, 0.0], [0.0, 0.0]]},
                "boundary": [[[1.0], [0.0]],
                             [[math.cos(alpha)], [math.sin(alpha)]]],
                "window": window, "grid": grid})
    return "spectrum", ["--json"], doc, {"check": "spectrum", "gammas": [alpha],
                                 "eps": 0.0, "window": window}


def spectra_job(rng, srng, kind, p):
    if kind == "spec_flat":
        return _flat_job(rng, p["window"], p["grid"])
    if kind == "spec_const":
        n = int(srng.integers(1, 5))
        # constant line model; a repeated angle gives a multiplicity-2
        # eigenvalue, an angle 0 gives a kernel
        gam = _spread_angles(rng, n, sep=0.3, margin=0.2)
        r = srng.uniform()
        if n >= 2 and r < 0.3:
            gam[1] = gam[0]
        elif r < 0.5:
            gam[0] = 0.0
        return _spectrum_job(rng, n, 0, p, exact_lines=gam)
    return _spectrum_job(rng, int(kind[-1]), int(srng.integers(1, 3)), p)


# -- indices --------------------------------------------------------------------


def _graph_eigen_polys(rng, srng, n, degenerate=False):
    """Per-eigenvalue polynomials lambda_i(s) with well separated simple
    roots in [0, 1] (roots at 0 or 1 give endpoint crossings)."""
    if degenerate:
        shapes = [[0.25, -1.0, 1.0],           # (s - 1/2)^2
                  [-0.125, 0.75, -1.5, 1.0]]   # (s - 1/2)^3
        pick = int(srng.integers(0, 3))
        if pick < 2:
            lam = [shapes[pick]]
        else:
            lam = [[-0.5, 1.0], shapes[0]]     # diag(s - 1/2, (s - 1/2)^2)
        while len(lam) < n:
            lam.append([float(rng.choice([-1, 1]) * rng.uniform(0.5, 2))])
        return lam
    # per eigenvalue: sign, root at 0 / at 1 / inside / outside [0, 1],
    # linear or quadratic (second root outside), fixed by the structure
    shape = [(float(srng.choice([-1, 1])), int(srng.integers(0, 4)),
              bool(srng.uniform() < 0.5), float(srng.choice([-1, 1])))
             for _ in range(n)]
    # at most one root at each endpoint
    for i in range(1, n):
        if shape[i][1] < 2 and any(x[1] == shape[i][1] for x in shape[:i]):
            shape[i] = (shape[i][0], 2) + shape[i][2:]
    while True:
        lam = []
        for sgn, where, linear, side in shape:
            c = sgn * float(rng.uniform(0.5, 2.0))
            out = float(rng.uniform(0.3, 0.4))
            r1 = [0.0, 1.0, float(rng.uniform(0.0, 1.0)),
                  -out if side < 0 else 1.0 + out][where]
            if linear:
                lam.append([-c * r1, c])
            else:
                r2 = side * float(rng.uniform(1.6, 2.6))
                lam.append([c * r1 * r2, -c * (r1 + r2), c])
        ss = fine_grid()
        if isolated([np.arctan(polyval(l, ss)) for l in lam], ss, sep_time=0.05):
            return lam


def _sign_count(vals):
    return sum(1 for v in vals if v > 1e-12) - sum(1 for v in vals if v < -1e-12)


def graph_job(rng, srng, grid, degenerate=False):
    n = 1 if degenerate else int(srng.integers(1, 5))
    lam = _graph_eigen_polys(rng, srng, n, degenerate)
    n = len(lam)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    deg = max(len(l) for l in lam)
    coeffs = []
    for k in range(deg):
        d = [l[k] if k < len(l) else 0.0 for l in lam]
        B = Q @ np.diag(d) @ Q.T
        coeffs.append(mat(0.5 * (B + B.T)))
    # endpoint signatures, with roots exactly at the endpoints counted as 0
    def at(s):
        return [polyval(l, s) if abs(polyval(l, s)) > 1e-12 else 0.0
                for l in lam]
    mu2 = _sign_count(at(1.0)) - _sign_count(at(0.0))
    doc = header("rs_index")
    doc.update({"F0": {"type": "graph", "interval": [0.0, 1.0],
                       "B": {"poly": coeffs}},
                "F1": {"type": "constant", "interval": [0.0, 1.0],
                       "frame": mat(np.vstack([np.eye(n), np.zeros((n, n))]))},
                "grid": grid})
    expect = {"check": "rs_index", "mu2": mu2,
              "oracle": "graph localization (sign B(b) - sign B(a))/2"}
    if degenerate:
        expect["may_refuse"] = ["DegenerateCrossing"]
    return "rs-index", ["--json"], doc, expect


def _monotone_theta(srng, a, b, total):
    """theta on [a, b], theta(a) = 0, theta(b) = total, strictly monotone."""
    L = b - a
    if srng.uniform() < 0.5:
        return [-total * a / L, total / L]
    # theta = total * (x + k x^2) / (1 + k), x = (s - a)/L, k in [0, 0.8]
    k = float(srng.uniform(0.0, 0.8))
    c = total / (1 + k)
    # expand in s: x = (s - a)/L
    c0 = c * (-a / L + k * a * a / (L * L))
    c1 = c * (1 / L - 2 * k * a / (L * L))
    c2 = c * k / (L * L)
    return [c0, c1, c2]


def rotation_job(rng, srng, grid):
    n = int(srng.integers(1, 5))
    total = float(srng.choice([-1, 1]) * srng.uniform(0.5, 2 * PI))
    shape = _monotone_theta(srng, 0.0, 1.0, total)
    endpoint = int(srng.integers(0, 6))     # 0: crossing at s = 0, 1: at s = 1
    while True:
        O = unitary(rng, n)
        alpha = rng.uniform(0, PI, n)
        theta0 = float(rng.uniform(-1, 1))
        theta = [theta0] + shape[1:]
        beta = rng.uniform(0, PI, n)
        if endpoint < 2:
            beta[0] = alpha[0] + (theta0 if endpoint == 0 else polyval(theta, 1.0))
        offs = alpha - beta
        ys = [a + theta0 for a in offs]
        ye = [a + polyval(theta, 1.0) for a in offs]
        ends_ok = all(on_crossing(y) or clear_of_crossing(y, 1e-3) for y in ys + ye)
        ss = fine_grid()
        if ends_ok and isolated([o + polyval(theta, ss) for o in offs], ss):
            break
    doc = header("rs_index")
    doc.update({"F0": {"type": "rotation", "interval": [0.0, 1.0],
                       "theta": {"poly": theta},
                       "base": mat(line_frame(O, alpha))},
                "F1": {"type": "constant", "interval": [0.0, 1.0],
                       "frame": mat(line_frame(O, beta))},
                "grid": grid})
    return "rs-index", ["--json"], doc, {
        "check": "rs_index", "mu2": mu2_lines(ys, ye),
        "oracle": "line-model rotation h(y(b)) - h(y(a))"}


def sampled_job(rng, srng, grid):
    """Piecewise-linear samples of a product of lines, all angles inside
    (-pi/4, 3pi/4) so the frames keep one sign convention."""
    lo, hi = -PI / 4 + 0.05, 3 * PI / 4 - 0.05
    n, K = int(srng.integers(1, 4)), int(srng.integers(5, 10))
    downs = [bool(srng.uniform() < 0.5) for _ in range(n)]
    endpoint = bool(srng.uniform() < 0.3)
    while True:
        ss = np.linspace(0.0, 1.0, K)
        xs = []
        for down in downs:
            x = np.sort(rng.uniform(lo, hi, K))
            xs.append(x[::-1] if down else x)
        beta = rng.uniform(lo, hi, n)
        if endpoint:
            beta[0] = xs[0][0]          # endpoint crossing at s = 0
        ok = True
        for j in range(n):
            for k in range(1, K - 1):
                ok = ok and abs(xs[j][k] - beta[j]) > 0.02
            ok = ok and np.min(np.abs(np.diff(xs[j]))) > 0.01
            ok = ok and (xs[j][-1] == beta[j] or abs(xs[j][-1] - beta[j]) > 1e-3)
            ok = ok and (xs[j][0] == beta[j] or abs(xs[j][0] - beta[j]) > 1e-3)
        # angles of the interpolated columns, as the sampled path draws them
        fine = fine_grid()
        k = np.minimum((fine * (K - 1)).astype(int), K - 2)
        t = fine * (K - 1) - k
        Y = []
        for j in range(n):
            x = np.asarray(xs[j])
            c = (1 - t) * np.cos(x[k]) + t * np.cos(x[k + 1])
            sn = (1 - t) * np.sin(x[k]) + t * np.sin(x[k + 1])
            Y.append(np.arctan2(sn, c) - beta[j])
        if ok and isolated(Y, fine):
            break
    def frame(angles):
        M = np.zeros((2 * n, n))
        for j, x in enumerate(angles):
            M[j, j] = math.cos(x)
            M[n + j, j] = math.sin(x)
        return M
    samples = [{"s": float(s), "frame": mat(frame([xs[j][k] for j in range(n)]))}
               for k, s in enumerate(ss)]
    doc = header("rs_index")
    doc.update({"F0": {"type": "sampled", "interval": [0.0, 1.0],
                       "samples": samples},
                "F1": {"type": "constant", "interval": [0.0, 1.0],
                       "frame": mat(frame(beta))},
                "grid": grid})
    ys = [xs[j][0] - beta[j] for j in range(n)]
    ye = [xs[j][-1] - beta[j] for j in range(n)]
    return "rs-index", ["--json"], doc, {
        "check": "rs_index", "mu2": mu2_lines(ys, ye),
        "oracle": "piecewise-linear product of lines h(y(b)) - h(y(a))"}


def _line_flow(rng, degrees):
    """Per-line rates with one sign each (monotone angles), degree 0 being a
    constant rate; returns the rate coefficients (rates[k][j]) and the angle
    polys Theta_j."""
    rates_by_line = []
    for degree in degrees:
        sgn = float(rng.choice([-1, 1]))
        c = [float(rng.uniform(0.6, 3.0))] if degree == 0 else \
            positive_rate(rng, degree)
        rates_by_line.append([sgn * x for x in c])
    deg = max(len(c) for c in rates_by_line)
    rates = [np.array([c[k] if k < len(c) else 0.0 for c in rates_by_line])
             for k in range(deg)]
    thetas = [poly_integral(c) for c in rates_by_line]
    return rates, thetas


def _flow_degrees(srng, n, p_constant):
    if srng.uniform() < p_constant:
        return [0] * n
    return [int(d) for d in srng.integers(1, 3, n)]


def fundamental_job(rng, srng, grid):
    n = int(srng.integers(1, 5))
    degrees = _flow_degrees(srng, n, 0.25)
    endpoint = bool(srng.uniform() < 0.3)
    while True:
        O = unitary(rng, n)
        alpha = rng.uniform(0, PI, n)
        rates, thetas = _line_flow(rng, degrees)
        beta = rng.uniform(0, PI, n)
        if endpoint:
            beta[0] = alpha[0]          # crossing at t = 0
        offs = alpha - beta
        ys = list(offs)
        ye = [offs[j] + polyval(thetas[j], 1.0) for j in range(n)]
        ss = fine_grid()
        Y = [offs[j] + polyval(thetas[j], ss) for j in range(n)]
        ends_ok = all(on_crossing(y) or clear_of_crossing(y, 1e-3) for y in ys + ye)
        if ends_ok and isolated(Y, ss):
            break
    coeffs = line_sigma(O, rates)
    sigma = ({"constant": mat(coeffs[0])} if len(coeffs) == 1
             else {"poly": [mat(c) for c in coeffs]})
    doc = header("rs_index")
    doc.update({"F0": {"type": "fundamental", "interval": [0.0, 1.0],
                       "sigma": sigma, "base": mat(line_frame(O, alpha))},
                "F1": {"type": "constant", "interval": [0.0, 1.0],
                       "frame": mat(line_frame(O, beta))},
                "grid": grid})
    return "rs-index", ["--json"], doc, {
        "check": "rs_index", "mu2": mu2_lines(ys, ye),
        "oracle": "line-model flow h(y(1)) - h(y(0))"}


def maslov_rotation_job(rng, srng):
    """Rotation loop e^{i theta} L with theta(1) - theta(0) = k pi:
    Maslov index n k (checked in the CLI against the det^2 winding too)."""
    n, k = int(srng.integers(1, 5)), int(srng.choice([-2, -1, 1, 2]))
    while True:
        O = unitary(rng, n)
        alpha = rng.uniform(0, PI, n)
        theta = _monotone_theta(srng, 0.0, 1.0, k * PI)
        beta = rng.uniform(0, PI, n)
        offs = alpha - beta
        ss = fine_grid()
        if (all(clear_of_crossing(o, 1e-2) for o in offs)
                and isolated([o + polyval(theta, ss) for o in offs], ss)):
            break
    doc = header("maslov")
    doc.update({"path": {"type": "rotation", "interval": [0.0, 1.0],
                         "theta": {"poly": theta},
                         "base": mat(line_frame(O, alpha))},
                "ref": mat(line_frame(O, beta)),
                "grid": max(256, 128 * (abs(k) + 1))})
    return "maslov", ["--json"], doc, {"check": "maslov", "value": n * k,
                                       "oracle": "rotation loop n k"}


def maslov_diagonal_job(rng, srng):
    """Loop of diagonal unitaries diag(e^{2 pi i w_j t}) in a unitary frame,
    as the flow of a line-model sigma: Maslov = 2 x winding of det."""
    n = int(srng.integers(1, 4))
    w = [int(srng.choice([-1, 1]) * srng.integers(1, 3)) for _ in range(n)]
    constant = srng.uniform() < 0.3
    while True:
        O = unitary(rng, n)
        alpha = rng.uniform(0, PI, n)
        rates_by_line = []
        for wj in w:
            if constant:
                c = [2 * PI * wj]
            else:
                # rate with integral 2 pi w: c(t) = 2 pi w (1 + u (2t - 1))
                u = float(rng.uniform(-0.6, 0.6))
                c = [2 * PI * wj * (1 - u), 2 * PI * wj * 2 * u]
            rates_by_line.append(c)
        deg = max(len(c) for c in rates_by_line)
        rates = [np.array([c[k] if k < len(c) else 0.0 for c in rates_by_line])
                 for k in range(deg)]
        thetas = [poly_integral(c) for c in rates_by_line]
        beta = rng.uniform(0, PI, n)
        offs = alpha - beta
        ss = fine_grid()
        Y = [offs[j] + polyval(thetas[j], ss) for j in range(n)]
        if all(clear_of_crossing(o, 1e-2) for o in offs) and isolated(Y, ss):
            break
    coeffs = line_sigma(O, rates)
    sigma = ({"constant": mat(coeffs[0])} if len(coeffs) == 1
             else {"poly": [mat(c) for c in coeffs]})
    winding = sum(w)
    doc = header("maslov")
    doc.update({"path": {"type": "fundamental", "interval": [0.0, 1.0],
                         "sigma": sigma, "base": mat(line_frame(O, alpha))},
                "ref": mat(line_frame(O, beta)),
                "grid": max(256, 128 * (max(abs(x) for x in w) + 1))})
    return "maslov", ["--json"], doc, {"check": "maslov", "value": 2 * winding,
                                       "oracle": "diagonal loop 2 x winding"}


def viterbo_job(rng, srng):
    """Viterbo index of line-model rotations on [-1, 1] with caps on [0, 1]."""
    n = int(srng.integers(1, 4))
    th0_shape = _monotone_theta(srng, -1.0, 1.0,
                                float(srng.choice([-1, 1]) * srng.uniform(0.5, 4.0)))
    thp = _monotone_theta(srng, 0.0, 1.0, float(srng.uniform(-2.5, 2.5)))
    thm = _monotone_theta(srng, 0.0, 1.0, float(srng.uniform(-2.5, 2.5)))
    endpoint = bool(srng.uniform() < 0.3)
    while True:
        O = unitary(rng, n)
        alpha = rng.uniform(0, PI, n)
        beta = rng.uniform(0, PI, n)
        th0 = list(th0_shape)
        th0[0] += float(rng.uniform(-1, 1))
        a_m = alpha + polyval(th0, -1.0)      # F0(-1) angles
        a_p = alpha + polyval(th0, 1.0)       # F0(1) angles
        if endpoint:
            # F+(1) meets F1(1) in one line
            beta[0] = a_p[0] + polyval(thp, 1.0)
        o0 = alpha - beta
        op = a_p - beta
        om = a_m - beta
        y0s = [x + polyval(th0, -1.0) for x in o0]
        y0e = [x + polyval(th0, 1.0) for x in o0]
        yps, ype = list(op), [x + polyval(thp, 1.0) for x in op]
        yms, yme = list(om), [x + polyval(thm, 1.0) for x in om]
        ends = y0s + y0e + ype + yme
        ok = all(on_crossing(y) or clear_of_crossing(y, 1e-3) for y in ends)
        s2, s1 = fine_grid(-1.0, 1.0), fine_grid()
        ok = ok and isolated([o + polyval(th0, s2) for o in o0], s2, sep_time=0.08)
        ok = ok and isolated([o + polyval(thp, s1) for o in op], s1)
        ok = ok and isolated([o + polyval(thm, s1) for o in om], s1)
        if ok:
            break
    mu2 = mu2_lines(y0s, y0e) + mu2_lines(yps, ype) - mu2_lines(yms, yme)
    dm = sum(on_crossing(y) for y in yme)
    dp = sum(on_crossing(y) for y in ype)
    doc = header("viterbo")
    doc.update({
        "F0": {"type": "rotation", "interval": [-1.0, 1.0],
               "theta": {"poly": th0}, "base": mat(line_frame(O, alpha))},
        "F1": {"type": "constant", "interval": [-1.0, 1.0],
               "frame": mat(line_frame(O, beta))},
        "Fm": {"type": "rotation", "interval": [0.0, 1.0],
               "theta": {"poly": thm}, "base": mat(line_frame(O, a_m))},
        "Fp": {"type": "rotation", "interval": [0.0, 1.0],
               "theta": {"poly": thp}, "base": mat(line_frame(O, a_p))},
        "grid": 96})
    return "viterbo", ["--json"], doc, {
        "check": "viterbo", "mu2": mu2, "dm": dm, "dp": dp,
        "oracle": "line-model value and half-integrality 2 mu + dm + dp even"}


def index_formula_job(rng, srng):
    """Strip index of line-model asymptotics joined by rotations."""
    n = int(srng.integers(1, 3))
    deg_p, deg_m = _flow_degrees(srng, n, 0.3), _flow_degrees(srng, n, 0.3)
    d0 = float(srng.uniform(-2, 2))
    d1 = float(srng.uniform(-1, 1)) if srng.uniform() < 0.5 else 0.0
    while True:
        O = unitary(rng, n)
        am = rng.uniform(0, PI, n)
        bm = rng.uniform(0, PI, n)
        ap, bp = am + d0, bm + d1
        rp, thp = _line_flow(rng, deg_p)
        rm, thm = _line_flow(rng, deg_m)
        Ap = [ap[j] - bp[j] + polyval(thp[j], 1.0) for j in range(n)]
        Am = [am[j] - bm[j] + polyval(thm[j], 1.0) for j in range(n)]
        starts = list(ap - bp) + list(am - bm)
        ok = all(clear_of_crossing(y, 1e-2) for y in Ap + Am + starts)
        # RS crossings of the three paths stay apart at the default grid
        ss = fine_grid()
        ok = ok and isolated([ap[j] - bp[j] + polyval(thp[j], ss) for j in range(n)], ss)
        ok = ok and isolated([am[j] - bm[j] + polyval(thm[j], ss) for j in range(n)], ss)
        ok = ok and isolated([o + (d0 - d1) * ss for o in am - bm], ss)
        if ok:
            break
    # kernels are trivial here (ok above), so index = sum_j h(A+) - h(A-)
    idx2 = sum(h_index(x) for x in Ap) - sum(h_index(x) for x in Am)
    sp, sm = line_sigma(O, rp), line_sigma(O, rm)

    def sig(cs):
        return ({"constant": mat(cs[0])} if len(cs) == 1
                else {"poly": [mat(c) for c in cs]})

    doc = header("index_formula")
    doc.update({
        "plus": {"sigma": sig(sp), "L0": mat(line_frame(O, ap)),
                 "L1": mat(line_frame(O, bp))},
        "minus": {"sigma": sig(sm), "L0": mat(line_frame(O, am)),
                  "L1": mat(line_frame(O, bm))},
        "F0": {"type": "rotation", "interval": [0.0, 1.0],
               "theta": {"poly": [0.0, d0]}, "base": mat(line_frame(O, am))},
        "F1": {"type": "rotation", "interval": [0.0, 1.0],
               "theta": {"poly": [0.0, d1]}, "base": mat(line_frame(O, bm))},
    })
    return "index-formula", ["--json"], doc, {
        "check": "index_formula", "index2": idx2,
        "oracle": "line-model strip index sum_j h(A+_j) - h(A-_j)"}


def indices_job(rng, srng, kind, p):
    grid = int(srng.choice([96, 128, 192]))
    if kind == "graph":
        return graph_job(rng, srng, grid)
    if kind == "graph_degenerate":
        return graph_job(rng, srng, grid, degenerate=True)
    if kind == "rotation":
        return rotation_job(rng, srng, grid)
    if kind == "sampled":
        return sampled_job(rng, srng, grid)
    if kind == "fundamental":
        return fundamental_job(rng, srng, grid)
    if kind == "maslov_rotation":
        return maslov_rotation_job(rng, srng)
    if kind == "maslov_diagonal":
        return maslov_diagonal_job(rng, srng)
    if kind == "viterbo":
        return viterbo_job(rng, srng)
    if kind == "index_formula":
        return index_formula_job(rng, srng)
    raise ValueError(kind)


# -- pages ----------------------------------------------------------------------


def _circle_morse(name):
    return {"critical_points": [{"name": f"{name}:0", "index": 0},
                                {"name": f"{name}:1", "index": 1}],
            "trajectories": [{"from": f"{name}:1", "to": f"{name}:0", "sign": 1},
                             {"from": f"{name}:1", "to": f"{name}:0", "sign": -1}]}


def _sphere_morse(name):
    return {"critical_points": [{"name": f"{name}:0", "index": 0},
                                {"name": f"{name}:2", "index": 2}],
            "trajectories": []}


def pearl_data(rng, srng, kinds, N):
    """Valid pearl data: points, circles and spheres with cascades from the
    first half of the components to the second (so d . d = 0 structurally).

    Returns the pearl document and, per critical point, (degree, component
    index); cascades as (from, to, lambda exponent)."""
    tau = float(rng.uniform(0.5, 2.0))
    top = tau * N
    half = max(1, len(kinds) // 2)
    comps = []
    for i, kind in enumerate(kinds):
        name = f"{'PCS'[['point', 'circle', 'sphere'].index(kind)]}{i}"
        if i == 0:
            action = 0.0
        elif i < half:
            action = float(rng.uniform(0.45 * top, 0.9 * top))
        else:
            action = float(rng.uniform(0.0, 0.4 * top))
        if kind == "point":
            dim, betti, morse, pts = 0, [1], None, [(f"{name}:0.0", 0)]
        elif kind == "circle":
            dim, betti, morse = 1, [1, 1], _circle_morse(name)
            pts = [(f"{name}:0", 0), (f"{name}:1", 1)]
        else:
            dim, betti, morse = 2, [1, 0, 1], _sphere_morse(name)
            pts = [(f"{name}:0", 0), (f"{name}:2", 2)]
        comps.append({"name": name, "dim": dim, "action": action, "mu2": 0,
                      "betti": betti, "morse": morse, "pts": pts})
    # degrees: sources random; each target tuned so one designed cascade exists
    for i in range(half):
        comps[i]["mu2"] = 0 if i == 0 else 2 * int(srng.integers(-2, 3))
    for q in comps[half:]:
        p = comps[int(srng.integers(0, half))]
        _, mi_p = p["pts"][int(srng.integers(0, len(p["pts"])))]
        _, mi_q = q["pts"][int(srng.integers(0, len(q["pts"])))]
        ell = int(srng.integers(0, 2))
        q["mu2"] = 2 * mi_p + p["mu2"] - 2 + 2 * N * ell - 2 * mi_q
    cascades = []
    for p in comps[:half]:
        for q in comps[half:]:
            for pn, mi_p in p["pts"]:
                for qn, mi_q in q["pts"]:
                    num = (2 * mi_q + q["mu2"]) - (2 * mi_p + p["mu2"]) + 2
                    if num % (2 * N) or num < 0:
                        continue
                    ell = num // (2 * N)
                    area = tau * ell * N + p["action"] - q["action"]
                    if area <= 0.05 or srng.uniform() < 0.25:
                        continue
                    maslov2 = (2 * ell * N - (p["mu2"] + p["dim"])
                               + (q["mu2"] + q["dim"]))
                    cascades.append({"from": pn, "to": qn, "sign": 1,
                                     "maslov2": maslov2, "area": area,
                                     "ell": ell})
    doc = {"context": {"tau": tau, "N": N},
           "components": [{k: c[k] for k in ("name", "dim", "action", "mu2", "betti")}
                          | ({"morse": c["morse"]} if c["morse"] else {})
                          for c in comps],
           "cascades": [{k: v for k, v in c.items() if k != "ell"} for c in cascades],
           "normalize": False}
    gens = {pn: (mi + c["mu2"] // 2) for c in comps for pn, mi in c["pts"]}
    return doc, gens, cascades


def gf2_rank(rows):
    """Rank over GF(2) of integer bitmask rows."""
    basis = []
    for r in rows:
        for b in basis:
            r = min(r, r ^ b)
        if r:
            basis.append(r)
    return len(basis)


def z2_betti(gens, arrows):
    """Betti numbers over Z2 of a complex with integer degrees gens[name] and
    arrows (src, dst) (each a coefficient 1; repeated arrows cancel)."""
    names = sorted(gens)
    pos = {nm: i for i, nm in enumerate(names)}
    col = {}
    for s, d in arrows:
        col[s] = col.get(s, 0) ^ (1 << pos[d])
    degs = sorted(set(gens.values()))
    rank = {m: gf2_rank([col.get(nm, 0) for nm in names if gens[nm] == m])
            for m in degs}
    return {m: sum(1 for nm in names if gens[nm] == m) - rank[m] - rank.get(m + 1, 0)
            for m in degs}


def ss_job(rng, srng, filtration, indexing):
    """Pages of pearl data.  The degree spread is kept within 2N, so the
    default lambda window is the minimal one (width 6) and the cost of a
    job is set by its generator count: 2-6 components with N in {2, 3, 4},
    or 2-3 components with N = 2 for the stretched indexing, which has N
    times as many pages."""
    stretched = indexing == "stretched"
    ncomp = int(srng.integers(2, 4 if stretched else 7))
    N = 2 if stretched else int(srng.integers(2, 5))
    kinds = [["point", "circle"][int(srng.integers(0, 2))]] + [
        ["point", "point", "circle", "sphere"][int(srng.integers(0, 4))]
        for _ in range(ncomp - 1)]
    while True:
        pearl, gens, cascades = pearl_data(rng, srng, kinds, N)
        if max(gens.values()) - min(gens.values()) <= 2 * N:
            break
    doc = header("ss")
    doc.update({"filtration": filtration, "page": int(srng.integers(1, 4)),
                "pearl": pearl})
    expect = {"check": "ss"}
    if filtration == "novikov":
        doc["indexing"] = indexing
    else:
        # E^infinity of the action filtration sums to the Z2 homology of the
        # local (lambda^0) pearl complex, by total degree
        local = [(c["from"], c["to"]) for c in cascades if c["ell"] == 0]
        expect["homology"] = {str(m): b for m, b in z2_betti(gens, local).items()}
    return "ss", ["--json"], doc, expect


# graded pieces over Z2 / Z / L2 with a known answer, then hidden by an
# invertible change of basis inside each degree

def _laurent_mul(a, b):
    out = set()
    for e1 in a:
        for e2 in b:
            out ^= {e1 + e2}
    return out


def _coeff_ops(ring):
    if ring == "Z2":
        return (lambda x, y: (x + y) % 2, lambda x, y: (x * y) % 2,
                lambda x: x == 0, 0)
    if ring == "Z":
        return (lambda x, y: x + y, lambda x, y: x * y, lambda x: x == 0, 0)
    return (lambda x, y: set(x) ^ set(y), _laurent_mul, lambda x: not x, set())


def _change_basis(rng, ring, degs, D, steps, graded=True):
    """Elementary changes g_j <- g_j + c g_i inside one degree: column j +=
    c column i, row i -= c row j.  D maps (row, col) -> coefficient."""
    add, mul, is_zero, zero = _coeff_ops(ring)
    m = len(degs)
    for _ in range(steps):
        i, j = (int(x) for x in rng.integers(0, m, 2))
        if i == j or degs[i] != degs[j]:
            continue
        if ring == "Z2":
            c, negc = 1, 1
        elif ring == "Z":
            c = int(rng.choice([-1, 1]))
            negc = -c
        else:
            c = {0} if graded else {int(rng.integers(-1, 2))}
            negc = c
        for r in range(m):
            if (r, i) in D:
                D[(r, j)] = add(D.get((r, j), zero), mul(c, D[(r, i)]))
        for k in range(m):
            if (j, k) in D:
                D[(i, k)] = add(D.get((i, k), zero), mul(negc, D[(j, k)]))
        for key in [k for k, v in D.items() if is_zero(v)]:
            del D[key]
    return D


def _poly_set(bits):
    return {e for e in range(bits.bit_length()) if bits >> e & 1}


def complex_job(rng, srng, ring):
    """Generated d^2 = 0 complex of 10-40 generators with known homology."""
    target = int(srng.integers(10, 41))
    graded = not (ring == "L2" and srng.uniform() < 0.5)
    N = int(srng.integers(1, 3)) if ring == "L2" else 0
    degs, D, free, tors = [], {}, {}, {}
    if ring == "Z":
        chain = [int(x) for x in srng.choice([[2, 4], [3, 6], [2, 6], [5, 10]])]
    else:
        # torsion factors 1 + l and (1 + l)^2, or 1 + l + l^2: a divisibility chain
        chain = [0b11, 0b101] if srng.uniform() < 0.5 else [0b111]
    while len(degs) < target:
        d = int(srng.integers(0, 4))
        u = srng.uniform()
        if u < 0.3:
            degs.append(d)
            free[d] = free.get(d, 0) + 1
            continue
        x, y = len(degs), len(degs) + 1
        if ring == "L2" and graded:
            e = int(srng.integers(0, 2))
            degs += [d + 1, d + N * e]
            D[(y, x)] = {e}
        elif u < 0.55 and not (ring == "L2" and graded) and ring != "Z2":
            # torsion pair in degree d
            f = chain[int(srng.integers(0, len(chain)))]
            degs += [d + 1, d]
            D[(y, x)] = f if ring == "Z" else _poly_set(f)
            tors.setdefault(d, []).append(f)
        else:
            degs += [d + 1, d]
            D[(y, x)] = 1 if ring != "L2" else {int(srng.integers(-1, 2))}
    D = _change_basis(rng, ring, degs, D, steps=3 * len(degs), graded=graded)
    perm = [int(i) for i in rng.permutation(len(degs))]
    names = [f"g{perm[i]}" for i in range(len(degs))]
    gens = [{"name": names[i], "deg2": 2 * degs[i]} for i in range(len(degs))]
    arrows = []
    for (i, j), c in sorted(D.items(), key=lambda kv: (perm[kv[0][1]], perm[kv[0][0]])):
        coeff = ({str(e): 1 for e in sorted(c)} if ring == "L2" else int(c))
        arrows.append({"from": names[j], "to": names[i], "coeff": coeff})
    doc = header("complex")
    doc.update({"ring": ring, "generators": gens, "boundary": arrows})
    if ring == "L2":
        doc.update({"N": N, "graded": graded})
    expect = {"check": "homology", "ring": ring}
    present = sorted(set(degs))
    if ring == "Z2":
        expect["by_degree"] = {str(2 * d): {"betti": free.get(d, 0)} for d in present}
    elif ring == "Z":
        expect["by_degree"] = {str(2 * d): {"free_rank": free.get(d, 0),
                                            "torsion": sorted(tors.get(d, []))}
                               for d in present}
    else:
        expect["free_rank"] = sum(free.values())
        expect["torsion"] = sorted(f for fs in tors.values() for f in fs)
    return "homology", ["--json"], doc, expect


_LOCAL_SYSTEMS = [
    [[[1]], [[1]]], [[[1]], [[-1]]],
    [[[1, 0], [0, 1]], [[0, 1], [1, 0]]], [[[1, 0], [0, 1]], [[-1, 0], [0, 1]]],
    [[[1, 1], [0, 1]], [[1, 0], [0, 1]]], [[[0, 1], [1, 0]], [[0, -1], [-1, 0]]],
    [[[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[0, 1, 0], [0, 0, 1], [1, 0, 0]]],
]


def morse_job(rng, srng):
    """Circle with a local system, torus, RP^2 or S^2, plus cancelling pairs."""
    ring = "Z" if srng.uniform() < 0.6 else "Z2"
    base = ["circle", "torus", "rp2", "sphere"][int(srng.integers(0, 4))]
    cps, trs, ls = [], [], None
    expect_free, expect_tors = {}, {}
    if base == "circle":
        A, B = _LOCAL_SYSTEMS[int(srng.integers(0, len(_LOCAL_SYSTEMS)))]
        ls = {"t1": A, "t2": B}
        cps = [("m", 0), ("M", 1)]
        trs = [("M", "m", 1, "t1"), ("M", "m", -1, "t2")]
        rank = len(A)
        diff = [[A[i][j] - B[i][j] for j in range(rank)] for i in range(rank)]
        factors = smith_factors(diff) if ring == "Z" else None
        if ring == "Z":
            r = len(factors)
            expect_free = {0: rank - r, 1: rank - r}
            expect_tors = {0: [f for f in factors if f != 1]}
        else:
            r = gf2_rank([sum((diff[i][j] % 2) << j for j in range(rank))
                          for i in range(rank)])
            expect_free = {0: rank - r, 1: rank - r}
    elif base == "torus":
        cps = [("m", 0), ("a", 1), ("b", 1), ("M", 2)]
        trs = [("M", "a", 1, None), ("M", "a", -1, None), ("M", "b", 1, None),
               ("M", "b", -1, None), ("a", "m", 1, None), ("a", "m", -1, None),
               ("b", "m", 1, None), ("b", "m", -1, None)]
        expect_free = {0: 1, 1: 2, 2: 1}
    elif base == "rp2":
        cps = [("m", 0), ("s", 1), ("M", 2)]
        trs = [("s", "m", 1, None), ("s", "m", -1, None),
               ("M", "s", 1, None), ("M", "s", 1, None)]
        if ring == "Z":
            expect_free, expect_tors = {0: 1}, {1: [2]}
        else:
            expect_free = {0: 1, 1: 1, 2: 1}
    else:
        cps = [("m", 0), ("M", 2)]
        expect_free = {0: 1, 2: 1}
    for k in range(int(srng.integers(0, 5))):
        d = int(rng.integers(0, 3))
        cps += [(f"x{k}", d + 1), (f"y{k}", d)]
        label = "t1" if ls and rng.uniform() < 0.5 else None
        trs.append((f"x{k}", f"y{k}", int(rng.choice([-1, 1])), label))
    order = [int(i) for i in rng.permutation(len(cps))]
    doc = header("morse")
    doc.update({"ring": ring,
                "critical_points": [{"name": cps[i][0], "index": cps[i][1]} for i in order],
                "trajectories": [{"from": s, "to": t, "sign": sg}
                                 | ({"transport": lb} if lb else {})
                                 for s, t, sg, lb in trs]})
    if ls:
        doc["local_system"] = ls
    present = sorted({i for _, i in cps})
    if ring == "Z":
        by = {str(2 * d): {"free_rank": expect_free.get(d, 0),
                           "torsion": sorted(expect_tors.get(d, []))} for d in present}
    else:
        by = {str(2 * d): {"betti": expect_free.get(d, 0)} for d in present}
    return "morse", ["--json"], doc, {"check": "homology", "ring": ring,
                                      "by_degree": by}


def smith_factors(M):
    """Nonzero invariant factors of a small integer matrix, from determinantal
    divisors d_k = gcd of the k x k minors (s_k = d_k / d_{k-1})."""
    from itertools import combinations

    def det(A):
        if len(A) == 1:
            return A[0][0]
        return sum((-1) ** j * A[0][j] * det([row[:j] + row[j + 1:] for row in A[1:]])
                   for j in range(len(A)))

    n, m = len(M), len(M[0])
    out, prev = [], 1
    for k in range(1, min(n, m) + 1):
        g = 0
        for rows in combinations(range(n), k):
            for cols in combinations(range(m), k):
                g = math.gcd(g, det([[M[r][c] for c in cols] for r in rows]))
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return out


def _closed_betti(rng, dim):
    """Poincare-symmetric Z2 Betti numbers of a closed connected dim-manifold."""
    b = [1] + [0] * dim
    b[dim] = 1
    for k in range(1, dim // 2 + 1):
        v = int(rng.integers(0, 3))
        b[k] = b[dim - k] = v if k != dim - k else int(rng.integers(0, 3))
    return b


def displaceable_job(rng):
    """Single-component displaceability verdicts in the two closed-form
    regimes of the corollary: N > dim C + 1 (must intersect) and
    2N > dim C + 1 (vanishing forces H_k = H_{k+N-1} and a zero middle band)."""
    while True:
        dim = int(rng.integers(0, 5))
        N = int(rng.integers(1, 7))
        if 2 * N > dim + 1:
            break
    betti = _closed_betti(rng, dim)
    if N <= dim + 1 and rng.uniform() < 0.5:
        # a profile that satisfies the reflection pattern
        for k in range(0, dim - N + 2):
            betti[k + N - 1] = betti[k]
        for k in range(dim - N + 2, N - 1):
            if 0 <= k <= dim:
                betti[k] = 0
    if N > dim + 1:
        verdict, forced = "MustIntersect", None
    else:
        forced = [[k, k + N - 1] for k in range(0, dim - N + 2)]
        ok = all(betti[k] == betti[k + N - 1] for k in range(0, dim - N + 2))
        ok = ok and all(betti[k] == 0 for k in range(dim - N + 2, N - 1)
                        if 0 <= k <= dim)
        verdict = "ConsistentWithVanishing" if ok else "MustIntersect"
    doc = header("intersection")
    doc.update({"N": N, "components": [{"name": "C", "dim": dim, "betti": betti}]})
    return "intersection", ["--displaceable", "--json"], doc, {
        "check": "verdict", "verdict": verdict,
        "forced_isos": forced if verdict == "ConsistentWithVanishing" else None}


def pozniak_job(rng):
    dim = int(rng.integers(0, 5))
    N = dim + 2 + int(rng.integers(0, 3))
    betti = _closed_betti(rng, dim)
    doc = header("intersection")
    doc.update({"N": N, "components": [{"name": "C", "dim": dim, "betti": betti}]})
    return "pozniak", ["--json"], doc, {
        "check": "pozniak", "hf_betti": {str(k): b for k, b in enumerate(betti)}}


def quantum_cases_job(rng):
    """The CP^1 proposition: a point of Maslov offset 2 beside an unknown
    component, N = 4, period 2; the unique consistent profile is a point."""
    doc = header("intersection")
    doc.update({"N": 4, "period": 2, "components": [
        {"name": "C", "dim": 0, "mu": 0, "action_rank": 1},
        {"name": "P", "dim": 0, "betti": [1], "mu": 2, "action_rank": 2}]})
    return "quantum-cases", ["--json"], doc, {
        "check": "quantum_cases", "profiles": [{"dim": 0, "betti": [1]}]}


def pages_job(rng, srng, kind, p):
    if kind == "ss_novikov_plain":
        return ss_job(rng, srng, "novikov", "plain")
    if kind == "ss_novikov_stretched":
        return ss_job(rng, srng, "novikov", "stretched")
    if kind == "ss_action":
        return ss_job(rng, srng, "action", None)
    if kind.startswith("homology_"):
        return complex_job(rng, srng, kind.split("_")[1].upper())
    if kind == "morse":
        return morse_job(rng, srng)
    if kind == "displaceable":
        return displaceable_job(rng)
    if kind == "pozniak":
        return pozniak_job(rng)
    if kind == "quantum_cases":
        return quantum_cases_job(rng)
    raise ValueError(kind)


_MAKERS = {"spectra": spectra_job, "indices": indices_job, "pages": pages_job}


def make_jobs(workload, seed, kinds, stream=0):
    """Jobs of the given kinds for a seed, as dicts with keys kind, cmd,
    flags, doc and expect.  ``stream`` selects an independent sequence from
    the same seed: 0 for the timed pool, 1 for warm-up inputs."""
    wid = sorted(WORKLOADS).index(workload)
    rng = np.random.default_rng([int(seed), stream, wid])
    p = WORKLOADS[workload]
    jobs = []
    for i, kind in enumerate(kinds):
        # structure (sizes, degrees, grids) depends on the job's position
        # only, so every seed gets the same cost profile; the seed draws the
        # continuous data
        srng = np.random.default_rng([STRUCTURE_KEY, stream, wid, i])
        cmd, flags, doc, expect = _MAKERS[workload](rng, srng, kind, p)
        jobs.append({"kind": kind, "cmd": cmd, "flags": flags, "doc": doc,
                     "expect": expect})
    return jobs


def make_pool(workload, seed):
    """The timed pool: the workload's cycle of kinds repeated to pool_size."""
    p = WORKLOADS[workload]
    cycle = p["cycle"]
    return make_jobs(workload, seed,
                     [cycle[i % len(cycle)] for i in range(p["pool_size"])])


def make_warmup(workload, seed):
    return make_jobs(workload, seed, WORKLOADS[workload]["warmup"], stream=1)
