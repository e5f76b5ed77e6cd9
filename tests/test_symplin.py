import numpy as np
import pytest
from hypothesis import given, strategies as st

from floerss import spectrum as sp
from floerss import symplin as sl
from floerss.errors import NotFullRank, NotIsotropic, NotSymmetric, StepTooLarge

from conftest import make_rng, random_lagrangian, random_sigma_poly, random_symmetric


def test_validate_standard_frames():
    F = sl.validate_lagrangian(np.vstack([np.eye(2), np.zeros((2, 2))]))
    assert F.equals(sl.horizontal(2))
    G = sl.validate_lagrangian(np.vstack([np.zeros((2, 2)), np.eye(2)]))
    assert G.equals(sl.vertical(2))


def test_validate_diagonal_line():
    F = sl.validate_lagrangian(np.array([[1.0], [1.0]]))
    assert abs(np.linalg.norm(F.frame) - 1.0) < 1e-12


def test_validate_rejects_rank_deficient():
    M = np.ones((4, 2))
    with pytest.raises(NotFullRank):
        sl.validate_lagrangian(M)


def test_validate_rejects_non_isotropic():
    # span(e1, e3) in R^4 coordinates (x1,x2,y1,y2): omega(e1, e3) = 1
    M = np.zeros((4, 2))
    M[0, 0] = 1.0
    M[2, 1] = 1.0
    with pytest.raises(NotIsotropic) as err:
        sl.validate_lagrangian(M)
    assert err.value.payload["max_pairing"] > 0.5


def _error_of(M):
    try:
        sl.validate_lagrangian(M)
    except (NotFullRank, NotIsotropic) as exc:
        return type(exc), str(exc), exc.payload
    return None


def test_validate_stack_matches_members():
    rng = make_rng(8)
    for n in (1, 2, 3, 4):
        stack = np.stack([random_lagrangian(rng, n).frame @ (
            rng.standard_normal((n, n)) + 2 * np.eye(n)) for _ in range(7)])
        F = sl.validate_lagrangian(stack)
        assert F.n == n and F.frame.shape == stack.shape
        for M, Q in zip(stack, F.frame):
            assert np.array_equal(sl.validate_lagrangian(M).frame, Q)
        G = random_lagrangian(rng, n)
        sines = sl.principal_angle_sines(F, G)
        for k, M in enumerate(stack):
            assert np.array_equal(
                sl.principal_angle_sines(sl.validate_lagrangian(M), G), sines[k])


def test_validate_stack_raises_for_its_first_bad_member():
    rng = make_rng(9)
    thin = np.ones((4, 2))
    skew = np.zeros((4, 2))
    skew[0, 0] = skew[2, 1] = 1.0
    nonfinite = np.full((4, 2), np.nan)
    for bad in (thin, skew, nonfinite):
        for pos in (0, 3, 5):
            stack = np.stack([random_lagrangian(rng, 2).frame for _ in range(6)])
            stack[pos] = bad
            # a later member of the other kind does not change the report
            stack[-1] = skew if bad is thin else thin
            if pos == 5:
                stack[-1] = bad
            want = _error_of(bad)
            assert want is not None
            assert _error_of(stack) == want
            assert _error_of(stack.reshape(2, 3, 4, 2)) == want


def test_intersection_dims():
    assert sl.intersection_dim(sl.horizontal(3), sl.vertical(3)) == 0
    assert sl.intersection_dim(sl.horizontal(3), sl.horizontal(3)) == 3
    h = sl.horizontal(1)
    assert sl.intersection_dim(h, sl.rotate_frame(h, np.pi / 3)) == 0
    assert sl.intersection_dim(h, sl.rotate_frame(h, np.pi)) == 1


def test_intersection_dim_symmetric_and_frame_invariant():
    rng = make_rng(1)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        F = random_lagrangian(rng, n)
        G = random_lagrangian(rng, n)
        assert sl.intersection_dim(F, G) == sl.intersection_dim(G, F)
        # change spanning frame: multiply by an invertible n x n matrix
        A = rng.standard_normal((n, n)) + 2 * np.eye(n)
        F2 = sl.validate_lagrangian(F.frame @ A)
        assert sl.intersection_dim(F2, G) == sl.intersection_dim(F, G)


def test_graph_lagrangian_examples():
    assert sl.graph_lagrangian(np.zeros((2, 2))).equals(sl.horizontal(2))
    F = sl.graph_lagrangian(np.array([[1.0]]))
    assert sl.intersection_dim(F, sl.validate_lagrangian(
        np.array([[1.0], [1.0]]))) == 1
    G = sl.graph_lagrangian(np.diag([1.0, -1.0]))
    target = np.array([[1, 0], [0, 1], [1, 0], [0, -1]], dtype=float)
    assert G.equals(sl.validate_lagrangian(target))


def test_graph_rejects_asymmetric():
    with pytest.raises(NotSymmetric):
        sl.graph_lagrangian(np.array([[0.0, 1.0], [0.0, 0.0]]))
    # a symmetric path is checked by the same rule, with the same payload
    with pytest.raises(NotSymmetric) as err:
        sl.constant_path(np.array([[0.0, 2.0], [0.0, 0.0]]))
    assert err.value.payload["asymmetry"] == 2.0


def test_graph_stack_matches_members():
    rng = make_rng(42)
    Bs = np.array([0.5 * (M + M.T) for M in rng.standard_normal((6, 3, 3))])
    stacked = sl.graph_lagrangian(Bs).frame
    for B, frame in zip(Bs, stacked):
        assert np.array_equal(frame, sl.graph_lagrangian(B).frame)
    Bs[4, 0, 1] += 1.0
    with pytest.raises(NotSymmetric) as err:
        sl.graph_lagrangian(Bs)
    assert abs(err.value.payload["asymmetry"] - 1.0) < 1e-12


def test_frames_isotropic_property():
    rng = make_rng(2)
    for _ in range(30):
        n = int(rng.integers(1, 5))
        F = random_lagrangian(rng, n)
        pairing = F.frame.T @ sl.J_std(n) @ F.frame
        assert np.max(np.abs(pairing)) < 1e-9


def test_fundamental_solution_zero_generator():
    psi = sl.fundamental_solution(sl.zero_path(2))
    assert np.max(np.abs(psi - np.eye(4))) < 1e-12


def test_fundamental_solution_constant_multiple():
    # J dPsi + cI Psi = 0 integrates to the rotation e^{ctJ}; the defining
    # ODE residual is the oracle for the sign
    c = 0.7
    sig = sl.constant_path(c * np.eye(2))
    psi = sl.fundamental_solution(sig)
    assert np.max(np.abs(psi - sl.rotation(1, c))) < 1e-10
    flow = sl.FundamentalFlow(random_sigma_poly(make_rng(3), 1))
    h = 1e-6
    for t in (0.25, 0.5, 0.75):
        dPsi = (flow(t + h) - flow(t - h)) / (2 * h)
        res = sl.J_std(1) @ dPsi + flow.sigma(t) @ flow(t)
        assert np.max(np.abs(res)) < 1e-8


def _rk4_step(M, g1, g2, g4, h):
    """One classical RK4 step of dM/dt = g(t) M applied to M, the reference
    for the step maps of ``symplin``."""
    k1 = g1 @ M
    k2 = g2 @ (M + 0.5 * h * k1)
    k3 = g2 @ (M + 0.5 * h * k2)
    k4 = g4 @ (M + h * k3)
    return M + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def _per_step_rk4(G, h, rhos, keep):
    """``sl._rk4`` one step at a time: the same drift check and projection
    every ``_PROJECT_EVERY`` steps and after the last one."""
    d = G.shape[-1]
    J = sl.J_std(d // 2)
    rhoJ = np.asarray(rhos, dtype=float)[:, None, None] * J
    nsteps = (len(G) - 1) // 2
    M = np.broadcast_to(np.eye(d), rhoJ.shape).copy()
    states = [M]
    for k in range(nsteps):
        M = _rk4_step(M, G[2 * k] + rhoJ, G[2 * k + 1] + rhoJ, G[2 * k + 2] + rhoJ, h)
        if (k + 1) % sl._PROJECT_EVERY == 0 or k == nsteps - 1:
            off = sl._drift(M, J) > sl._SYMPLECTIC_DRIFT_TOL
            if off.any():
                M[off] = sl.project_symplectic(M[off])
        states.append(M)
    return np.stack(states) if keep else M


def _with_top(C, h):
    """The (4, s, d, d) shifted step coefficients C of step h with the rho^4
    coefficient (h^4 / 24) I appended: the step maps as (5, s, d, d)
    polynomials, one step a map in ``sl._rk4``."""
    top = (h ** 4 / 24.0) * np.broadcast_to(np.eye(C.shape[-1]), C[:1].shape)
    return np.concatenate([C, top])


def test_blocked_rk4_matches_the_per_step_rk4(monkeypatch):
    # blocks of step maps and of pair maps agree with one step at a time, on
    # step counts that are not multiples of a block (177 leaves a lone last
    # step), with and without every state kept, and with drift tolerance 0
    # (a projection at every checkpoint); the drift is checked exactly at
    # the checkpoints
    checks = []
    drift = sl._drift
    monkeypatch.setattr(sl, "_drift", lambda M, J: checks.append(1) or drift(M, J))
    default_tol = sl._SYMPLECTIC_DRIFT_TOL
    rng = make_rng(44)
    for n in (1, 2, 3, 4):
        sigma = random_sigma_poly(rng, n, degree=2)
        for nsteps in (176, 177, 1000):
            h, G = sl._stage_samples(sigma, 1.0 / nsteps)
            assert len(G) == 2 * nsteps + 1
            single = _with_top(
                sl._step_maps(G[0:-1:2], G[1::2], G[2::2], h, shifted=True), h)
            pairs = sl._coefficients(sigma, 1.0 / nsteps, shifted=True)[1]
            assert pairs.shape == (9, -(-nsteps // 2), 2 * n, 2 * n)
            for B in (1, 4 * n, 387):
                rhos = np.linspace(-12.0, 12.0, B)
                for tol in (default_tol, 0.0):
                    monkeypatch.setattr(sl, "_SYMPLECTIC_DRIFT_TOL", tol)
                    # every state of a 387-wide batch does not fit in a test
                    runs = [(single, False), (pairs, False)]
                    if B < 387:
                        runs.append((single, True))
                    for C, keep in runs:
                        want = _per_step_rk4(G, h, rhos, keep)
                        del checks[:]
                        got = sl._rk4(C, rhos, keep=keep)
                        if keep:
                            got = np.swapaxes(got, 0, 1)
                        assert len(checks) == -(-nsteps // sl._PROJECT_EVERY)
                        assert got.shape == want.shape
                        assert np.max(np.abs(got - want)) < 1e-11


def test_step_map_blocks_stay_within_the_budget(monkeypatch):
    # the evaluated stacks of pair maps hold at most _BLOCK_ENTRIES entries,
    # or one pair when a single pair is larger, and cover every pair once;
    # the coefficients are built once per flow, in chunks of an even number
    # of steps whose (steps, d, d) temporaries and (pairs, d, d) products
    # hold at most _CHUNK_ENTRIES entries, covering every step once; the
    # rho-free blocks of a kept flow are views of the coefficients
    blocks, chunks, pair_chunks = [], [], []
    evaluate, step_maps, pair_maps = sl._evaluate, sl._step_maps, sl._pair_maps

    def record_blocks(C, powers):
        P = evaluate(C, powers)
        blocks.append((P.shape, np.shares_memory(P, C)))
        return P

    def record_chunks(g1, g2, g4, h, shifted=False):
        chunks.append(g1.shape)
        return step_maps(g1, g2, g4, h, shifted)

    def record_pairs(S, h):
        pair_chunks.append(S.shape)
        return pair_maps(S, h)

    monkeypatch.setattr(sl, "_evaluate", record_blocks)
    monkeypatch.setattr(sl, "_step_maps", record_chunks)
    monkeypatch.setattr(sl, "_pair_maps", record_pairs)
    sigma = random_sigma_poly(make_rng(45), 4, degree=2)
    flows = sl.shifted_flows(sigma)
    assert all(shape[1:] == (8, 8) for shape in chunks)
    assert max(shape[0] for shape in chunks) == sl._CHUNK_ENTRIES // 64
    assert all(shape[0] % 2 == 0 for shape in chunks)
    assert sum(shape[0] for shape in chunks) == 1000
    assert [S[1] for S in pair_chunks] == [shape[0] for shape in chunks]
    assert all(S[0] == 4 and S[1] // 2 * 64 <= sl._CHUNK_ENTRIES for S in pair_chunks)
    assert not blocks
    for B in (387, 16, 1):
        del blocks[:], chunks[:], pair_chunks[:]
        flows(np.linspace(-12.0, 12.0, B))
        per_pair = B * 8 * 8
        assert not chunks and not pair_chunks
        assert all(shape[0] == B and shape[2:] == (8, 8) for shape, _ in blocks)
        assert max(shape[1] for shape, _ in blocks) == max(
            1, min(sl._BLOCK_ENTRIES // per_pair, sl._PROJECT_EVERY // 2))
        assert sum(shape[1] for shape, _ in blocks) == 500
    del blocks[:]
    sl.FundamentalFlow(sigma)
    assert all(view for _, view in blocks)
    assert sum(shape[1] for shape, _ in blocks) == 1000


def _step_map(g1, g2, g4, h):
    """The RK4 step map P of dM/dt = g(t) M, M_{k+1} = P M_k, in the
    operation order of ``symplin``'s rho-free step maps: the nested form
    P = (h/6) (g1 + g4 w) + w/3 + 2 v/3 with u = I + (h/2) g1,
    v = I + (h/2) g2 u and w = I + h g2 v."""
    eye, c = np.eye(g1.shape[-1]), 0.5 * h
    u = g1 * c
    u += eye
    v = g2 @ u
    v *= c
    v += eye
    w = g2 @ v
    w *= h
    w += eye
    P = g4 @ w
    P += g1
    P *= h / 6.0
    P += w * (1.0 / 3.0)
    P += v * (2.0 / 3.0)
    return P


def _dense_step_maps(g1, g2, g4, h, shifted=False):
    """The coefficients of ``symplin._step_maps`` from the nested form by
    dense products of g_i and J with the rho-coefficients of u, v, w and
    A4 w, zero-padded to degree m - 1 (the multiples of J and I and the
    zeros included); h is a scalar or an (s, 1, 1) stack."""
    d = g1.shape[-1]
    J, eye = sl.J_std(d // 2), np.eye(d)
    h = np.asarray(h)[..., None] if np.ndim(h) else h
    c, m = 0.5 * h, 4 if shifted else 1
    u = np.zeros((len(g1), m, d, d))
    u[:, :1] = g1[:, None] * c
    u[:, 0] += eye
    u[:, 1:2] = c * J
    ks = [u]
    # v = I + c A2 u, w = I + h A2 v, then A4 w, with A_i = g_i + rho J
    for g, scale in ((g2, c), (g2, h), (g4, None)):
        x = ks[-1]
        y = g[:, None] @ x
        y[:, 1:] += J @ x[:, :-1]
        if scale is not None:
            y *= scale
            y[:, 0] += eye
        ks.append(y)
    _, v, w, P = ks
    P[:, 0] += g1
    P[:, 1:2] += J
    P *= h / 6.0
    P += w * (1.0 / 3.0)
    P += v * (2.0 / 3.0)
    return P


def test_step_maps_equal_the_dense_products_bitwise():
    # the structured stacks (top coefficients as constants, no zero
    # coefficients) round every entry as the dense nested formula does, for
    # a scalar step and a stack of steps
    rng = make_rng(49)
    for n in (1, 2, 3, 4):
        J = sl.J_std(n)
        g = [J @ np.stack([random_symmetric(rng, n, 3.0) for _ in range(40)])
             for _ in range(3)]
        for h in (1e-3, rng.uniform(1e-3, 0.3, 40)[:, None, None]):
            for shifted in (False, True):
                assert np.array_equal(
                    sl._step_maps(*g, h, shifted),
                    np.moveaxis(_dense_step_maps(*g, h, shifted), 1, 0)), n


def test_step_maps_are_polynomials_in_rho():
    # the evaluated coefficients are the step maps of g + rho J; the
    # rho-free term is bitwise the step map of g, and what the four stored
    # coefficients leave out is (h^4 / 24) rho^4 I
    rng = make_rng(47)
    for n in (1, 2, 3, 4):
        J = sl.J_std(n)
        g = [J @ np.stack([random_symmetric(rng, n) for _ in range(9)])
             for _ in range(3)]
        h = rng.uniform(1e-3, 2e-2, 9)[:, None, None]
        C = sl._step_maps(*g, h, shifted=True)
        assert C.shape == (4, 9, 2 * n, 2 * n)
        assert np.array_equal(C[0], _step_map(*g, h))
        assert np.array_equal(sl._step_maps(*g, h), C[:1])
        for rho in np.linspace(-12.0, 12.0, 25):
            want = _step_map(*(gi + rho * J for gi in g), h)
            powers = np.vander([rho], 4, increasing=True)
            top = (h ** 4 / 24.0) * rho ** 4 * np.eye(2 * n)
            got = sl._evaluate(C, powers)[0] + top
            assert np.max(np.abs(got - want)) < 1e-13 * np.max(np.abs(want))
        for rho in (-8.0, 8.0):
            rhos = rho / h
            want = _step_map(*(gi + rhos * J for gi in g), h)
            low = sum(rhos ** j * C[j] for j in range(4))
            top = (want - low) / (h ** 4 / 24.0 * rhos ** 4)
            assert np.max(np.abs(top - np.eye(2 * n))) < 1e-9


def test_pair_maps_are_products_of_two_step_maps():
    # the degree-8 pair map equals the product of the two step maps it
    # joins, at random rho, within 1e-14 of the largest entry
    rng = make_rng(50)
    for n in (1, 2, 3, 4):
        J = sl.J_std(n)
        g = [J @ np.stack([random_symmetric(rng, n) for _ in range(10)])
             for _ in range(3)]
        for h in (1e-3, 2e-2):
            C = sl._step_maps(*g, h, shifted=True)
            single, Q = _with_top(C, h), sl._pair_maps(C, h)
            assert Q.shape == (9, 5, 2 * n, 2 * n)
            for rho in rng.uniform(-50.0, 50.0, 20):
                powers = np.vander([rho], 9, increasing=True)
                P = sl._evaluate(single, powers[:, :5])[0]
                want = P[1::2] @ P[0::2]
                got = sl._evaluate(Q, powers)[0]
                assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want)), n


def test_shifted_flows_match_the_flow_of_each_shifted_path():
    # one batched pass on pair maps of the rho-polynomial steps against the
    # rho-free flow of sigma + rho I for each shift (single steps, rho in the
    # samples), through the public entry points: a wrong coefficient, pair
    # order or tree order fails; batches of 1, 36 and 387 shifts take
    # different block and tree layouts in _rk4
    rng = make_rng(51)
    for n in (1, 2, 3, 4):
        sigma = random_sigma_poly(rng, n, degree=2)
        flows = sl.shifted_flows(sigma)
        for B in (1, 36, 387):
            rhos = rng.uniform(-12.0, 12.0, B)
            rhos[[0, -1]] = 12.0, -12.0
            got = flows(rhos)
            for i in np.unique(np.linspace(0, B - 1, 9).astype(int)):
                want = sl.fundamental_solution(sp._shifted_path(sigma, -rhos[i]))
                assert np.max(np.abs(got[i] - want)) <= 1e-12 * np.max(np.abs(want)), \
                    (n, B, i)


def test_empty_batches_give_empty_stacks():
    # a batch of no shifts or no times is an empty stack, never an error
    moving = random_sigma_poly(make_rng(48), 2, degree=2)
    const = sl.constant_path(np.diag([0.7, -0.4, 1.1, 0.2]))
    for sigma in (moving, const):
        assert sl.shifted_flows(sigma)([]).shape == (0, 4, 4)
        assert sl.FundamentalFlow(sigma).at([]).shape == (0, 4, 4)


def _scalar_poly(coeffs, t):
    """sum_k coeffs[k] t^k, one t at a time, symmetrized."""
    S = np.zeros_like(coeffs[0])
    tk = 1.0
    for c in coeffs:
        S = S + tk * c
        tk *= t
    return 0.5 * (S + S.T)


def test_symmetric_path_samples_match_single_calls():
    rng = make_rng(46)
    ts = np.concatenate([np.linspace(0.0, 1.0, 13), [1e-4, 0.3337, 0.9999]])
    paths = []
    for degree in (0, 1, 2, 3):
        coeffs = [random_symmetric(rng, 2) for _ in range(degree + 1)]
        poly = sl.poly_path(coeffs)
        # a poly path's values are bitwise those of the one-t formula
        assert np.array_equal(poly.samples(ts),
                              np.stack([_scalar_poly(coeffs, t) for t in ts]))
        paths.append(poly)
    const = sl.constant_path(random_symmetric(rng, 2))
    moving = random_sigma_poly(rng, 2, degree=2)
    paths += [const, sp._shifted_path(moving, 0.3), sp._shifted_path(const, -1.1),
              sl.mu_action(2, moving), sl.direct_sum_paths(moving, const)]
    for path in paths:
        stack = path.samples(ts)
        assert stack.shape == (len(ts), 2 * path.n, 2 * path.n)
        assert np.array_equal(stack, np.stack([path(t) for t in ts]))
        assert np.array_equal(stack, np.swapaxes(stack, 1, 2))


def test_flow_stacked_query_matches_single_queries():
    # one stack of partial step maps equals the per-t RK4 step from the
    # kept state below each t, and the exact exponential of a constant sigma
    ts = np.concatenate([np.linspace(0.0, 1.0, 41), [1e-4, 0.3337, 0.9999]])
    sigma = random_sigma_poly(make_rng(43), 2, degree=2)
    flow = sl.FundamentalFlow(sigma)
    stack = flow.at(ts)
    J = sl.J_std(2)
    for t, M in zip(ts, stack):
        k0 = int(np.floor(t / flow._h + 1e-12))
        want = flow._states[k0]
        rem = t - k0 * flow._h
        if rem > 1e-15:
            t0 = k0 * flow._h
            want = _rk4_step(want, J @ sigma(t0), J @ sigma(t0 + 0.5 * rem),
                             J @ sigma(t0 + rem), rem)
        assert np.max(np.abs(M - want)) < 1e-13
        assert np.max(np.abs(M - flow(t))) < 1e-13
    const = sl.FundamentalFlow(sl.constant_path(np.diag([0.7, -0.4, 1.1, 0.2])))
    for t, M in zip(ts, const.at(ts)):
        assert np.max(np.abs(M - const(t))) < 1e-13


def test_fundamental_solution_delta_shift_path():
    # the shifted-by-(-delta) zero path integrates to clockwise rotation
    delta = 0.3
    sig = sl.constant_path(-delta * np.eye(2))
    psi = sl.fundamental_solution(sig)
    assert np.max(np.abs(psi - sl.rotation(1, -delta))) < 1e-10


def test_fundamental_solution_symplectic_drift():
    rng = make_rng(4)
    sig = random_sigma_poly(rng, 2, degree=2)
    psi = sl.fundamental_solution(sig)
    assert sl._drift(psi, sl.J_std(2)) < 1e-9


def test_fundamental_solution_order_four():
    rng = make_rng(5)
    sig = random_sigma_poly(rng, 1, degree=2)

    def psi(step):
        return sl._rk4(sl._coefficients(sig, step)[1], [0.0])[0]

    ref = psi(1e-4)
    errs = [np.max(np.abs(psi(step) - ref)) for step in (4e-2, 2e-2, 1e-2)]
    rate1 = np.log2(errs[0] / errs[1])
    rate2 = np.log2(errs[1] / errs[2])
    assert rate1 > 3.5 and rate2 > 3.5


def test_step_too_large(monkeypatch):
    # non-constant sigma: a declared constant path takes the exact exponential
    sig = sl.poly_path([80.0 * np.eye(2), 1e-3 * np.eye(2)])
    monkeypatch.setattr(sl, "_ODE_STEP", 0.25)
    with pytest.raises(StepTooLarge):
        sl.fundamental_solution(sig)
    with pytest.raises(StepTooLarge):
        sl.FundamentalFlow(sig)
    # the refusal counts the flow's steps, a lone last step of a shifted
    # flow as one, and names the largest |rho| of the batch
    for step, steps in ((0.25, 4), (1.0 / 3.0, 3)):
        monkeypatch.setattr(sl, "_ODE_STEP", step)
        for run, max_rho in ((sl.fundamental_solution, 0.0),
                             (lambda s: sl.shifted_flows(s)([0.5, -2.0]), 2.0)):
            with pytest.raises(StepTooLarge) as info:
                run(sig)
            payload = info.value.payload
            assert (payload["steps"], payload["max_rho"]) == (steps, max_rho)
            assert payload["drift"] > payload["limit"] == sl._SYMPLECTIC_DRIFT_LIMIT


def test_constancy_is_declared_by_constructors():
    const = sl.constant_path(0.3 * np.eye(2))
    moving = sl.poly_path([0.3 * np.eye(2), 1e-3 * np.eye(2)])
    assert sl.zero_path(1).constant is not None
    assert sl.poly_path([0.3 * np.eye(2), np.zeros((2, 2))]).constant is not None
    assert moving.constant is None
    assert sl.direct_sum_paths(const, sl.zero_path(1)).constant is not None
    assert sl.direct_sum_paths(const, moving).constant is None
    assert np.allclose(sp._shifted_path(const, 0.1).constant, 0.2 * np.eye(2))
    assert sp._shifted_path(moving, 0.1).constant is None


def test_phi_mu_examples():
    assert np.max(np.abs(sl.phi_mu(2, 0, 0.7) - np.eye(4))) < 1e-12
    P = sl.phi_mu(1, 1, 1.0)
    assert np.max(np.abs(P + np.eye(2))) < 1e-12
    Q = sl.phi_mu(2, 2, 0.5)
    v = np.array([1.0, 0, 0, 0])
    assert np.max(np.abs(Q @ v + v)) < 1e-12          # first coordinate flipped
    w = np.array([0, 1.0, 0, 0])
    assert np.max(np.abs(Q @ w - w)) < 1e-12          # others fixed


def test_mu_action_identity_and_inverse():
    rng = make_rng(6)
    sig = random_sigma_poly(rng, 2)
    same = sl.mu_action(0, sig)
    back = sl.mu_action(-3, sl.mu_action(3, sig))
    for t in np.linspace(0, 1, 7):
        assert np.max(np.abs(same(t) - sig(t))) < 1e-12
        assert np.max(np.abs(back(t) - sig(t))) < 1e-9


def test_mu_action_explicit_n1():
    sig = sl.mu_action(1, sl.zero_path(1))
    for t in (0.0, 0.5, 1.0):
        assert np.max(np.abs(sig(t) + np.pi * np.eye(2))) < 1e-12


@given(st.integers(-3, 3), st.integers(-3, 3))
def test_mu_action_group_property(mu1, mu2):
    rng = make_rng(abs(mu1) * 10 + abs(mu2))
    sig = random_sigma_poly(rng, 1)
    lhs = sl.mu_action(mu1, sl.mu_action(mu2, sig))
    rhs = sl.mu_action(mu1 + mu2, sig)
    for t in (0.0, 0.33, 1.0):
        assert np.max(np.abs(lhs(t) - rhs(t))) < 1e-9


def test_direct_sum_frames_matches_block_J():
    rng = make_rng(7)
    F = random_lagrangian(rng, 1)
    G = random_lagrangian(rng, 2)
    S = sl.direct_sum_frames(F, G)
    assert S.n == 3
    pairing = S.frame.T @ sl.J_std(3) @ S.frame
    assert np.max(np.abs(pairing)) < 1e-9
