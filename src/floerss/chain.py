"""Morse complexes (with local systems, functoriality, cohomology) and pearl
complexes built from discrete cascade data, with the data-validity gates.

Cascade bookkeeping: a cascade record from p to q carries the total Maslov
index of its holomorphic pieces and their total area.  With component data
(action a in [0, tau N), degree offset mu stored doubled) the gates are

  * lambda exponent  l = (deg2(q) - deg2(p) + 2) / (2N)  a nonnegative integer,
  * total_maslov = l*N + mu_cap(p) - mu_cap(q) where mu_cap = -(mu + dim/2),
  * total_area = tau*l*N + action(p) - action(q), strictly positive.

Local cascades are exactly those with l = 0; their existence forces a strict
action drop (total_area = action(p) - action(q) > 0), which is what makes
the action filtration well-defined, and any cascade between equal-action
components carries l >= 1.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (ActionOutOfRange, ChainMapViolation, DimensionMismatch,
                     GradingNotInteger, IndexMismatch, MonotonicityViolation,
                     NegativeLambdaExponent, NotAComplex)
from .novikov import (GradedFreeComplex, LaurentPoly, Z2, L2, homology)


# -- Morse data ----------------------------------------------------------------


@dataclass(frozen=True)
class MorseData:
    """Critical points with Morse indices, signed trajectories, and an
    optional local system (labels resolving to invertible matrices)."""

    critical_points: tuple          # tuple of (name, morse_index)
    trajectories: tuple             # tuple of (from, to, sign, transport_label|None)
    local_system: dict = field(default_factory=dict)

    @staticmethod
    def build(critical_points, trajectories, local_system=None):
        cps = tuple((str(n), int(i)) for n, i in critical_points)
        idx = {n: i for n, i in cps}
        trs = []
        for t in trajectories:
            src, dst, sign = t[0], t[1], int(t[2])
            label = t[3] if len(t) > 3 else None
            if src not in idx or dst not in idx:
                raise IndexMismatch(f"unknown critical point in trajectory {t}")
            if idx[src] != idx[dst] + 1:
                raise IndexMismatch(
                    f"trajectory {src}->{dst} does not drop the index by 1",
                    source_index=idx[src], target_index=idx[dst])
            if sign not in (1, -1):
                raise IndexMismatch(f"sign must be +-1, got {sign}")
            trs.append((src, dst, sign, label))
        ls = dict(local_system or {})
        for _, _, _, label in trs:
            if label is not None and label not in ls:
                raise IndexMismatch(f"unresolved transport label {label!r}")
        return MorseData(critical_points=cps, trajectories=tuple(trs),
                         local_system=ls)


def _transport_rank(data):
    ranks = {np.asarray(M).shape[0] for M in data.local_system.values()} or {1}
    if len(ranks) > 1:
        raise DimensionMismatch("local system matrices have mixed ranks")
    return ranks.pop()


def morse_complex(data, ring):
    """Morse chain complex: d p = sum over trajectories of sign . transport . q."""
    rank = _transport_rank(data)
    gens = []
    pos = {}
    for name, mi in data.critical_points:
        for k in range(rank):
            pos[(name, k)] = len(gens)
            label = name if rank == 1 else f"{name}#{k}"
            gens.append((label, 2 * mi))
    boundary = {}
    for src, dst, sign, label in data.trajectories:
        T = np.eye(rank, dtype=int) if label is None else \
            np.asarray(data.local_system[label], dtype=int)
        coeff = sign * T
        for kj in range(rank):
            col = boundary.setdefault(pos[(src, kj)], {})
            for ki in range(rank):
                c = int(coeff[ki, kj])
                if c == 0:
                    continue
                i = pos[(dst, ki)]
                col[i] = col.get(i, 0) + c
    return GradedFreeComplex.build(ring, gens, boundary)


def morse_cohomology(data, ring):
    """Cochain complex as a chain complex on negated degrees (d raises degree).

    The report of ``homology`` applied to the result reads off cohomology in
    degree k at deg2 = -2k.
    """
    rank = _transport_rank(data)
    if rank != 1:
        raise DimensionMismatch("cohomology with local systems is not modeled")
    gens = [(name, -2 * mi) for name, mi in data.critical_points]
    pos = {name: i for i, (name, _) in enumerate(gens)}
    boundary = {}
    for src, dst, sign, label in data.trajectories:
        # transpose: the cochain differential sends q (index i) to p (index i+1)
        col = boundary.setdefault(pos[dst], {})
        col[pos[src]] = col.get(pos[src], 0) + sign
    return GradedFreeComplex.build(ring, gens, boundary)


def morse_functorial(src, dst, counts, ring):
    """Chain map from signed counts (p, p', sign); raises ChainMapViolation.

    Returns (matrix, row_names, col_names) with matrix over the ring.
    """
    Cs = morse_complex(src, ring)
    Cd = morse_complex(dst, ring)
    rows = {nm: i for i, (nm, _) in enumerate(Cd.generators)}
    cols = {nm: j for j, (nm, _) in enumerate(Cs.generators)}
    si = dict(src.critical_points)
    di = dict(dst.critical_points)
    F = np.zeros((len(rows), len(cols)), dtype=int)
    for p, p2, sign in counts:
        if si[p] != di[p2]:
            raise IndexMismatch(f"counts must connect equal indices: {p}->{p2}")
        F[rows[p2], cols[p]] += int(sign)
    ds = _dense_boundary(Cs)
    dd = _dense_boundary(Cd)
    lhs = F @ ds
    rhs = dd @ F
    if ring == Z2:
        lhs, rhs = lhs % 2, rhs % 2
    if not np.array_equal(lhs, rhs):
        bad = np.argwhere(lhs != rhs)[0]
        raise ChainMapViolation(
            f"C(phi) d != d C(phi) at entry {tuple(int(x) for x in bad)}",
            row=int(bad[0]), col=int(bad[1]))
    return F, [nm for nm, _ in Cd.generators], [nm for nm, _ in Cs.generators]


def _dense_boundary(C):
    D = np.zeros((C.size, C.size), dtype=int)
    for j, col in enumerate(C.boundary):
        for i, c in col.items():
            D[i, j] = c
    return D


# -- pearl data -----------------------------------------------------------------


@dataclass(frozen=True)
class MonotoneContext:
    tau: float
    N: int

    def __post_init__(self):
        if self.tau <= 0 or self.N < 1:
            raise MonotonicityViolation("need tau > 0 and N >= 1")


@dataclass(frozen=True)
class ComponentDatum:
    """Discrete shadow of one clean-intersection component; ``build`` gives
    a component without Morse data the perfect Morse data of its betti
    numbers."""

    name: str
    dim: int
    action: float
    mu2: int                  # doubled degree offset
    betti: tuple
    morse: MorseData

    @staticmethod
    def build(name, dim, action, mu2, betti, morse=None, ctx=None):
        betti = tuple(int(b) for b in betti)
        if len(betti) != dim + 1:
            raise DimensionMismatch(
                f"component {name}: betti length {len(betti)} != dim+1 = {dim + 1}")
        if ctx is not None and not (0 <= action < ctx.tau * ctx.N):
            raise ActionOutOfRange(
                f"component {name}: action {action} outside [0, tau N)",
                action=action, bound=ctx.tau * ctx.N)
        if morse is None:
            morse = _perfect_morse(str(name), betti)
        else:
            rep = homology(morse_complex(morse, Z2))["by_degree"]
            got = tuple(rep.get(2 * k, {"betti": 0})["betti"]
                        for k in range(dim + 1))
            if got != betti:
                raise NotAComplex(
                    f"component {name}: Morse homology {got} != betti {betti}")
        return ComponentDatum(name=str(name), dim=int(dim), action=float(action),
                              mu2=int(mu2), betti=betti, morse=morse)


def _perfect_morse(name, betti):
    """Perfect Morse data realizing the betti numbers (no trajectories)."""
    cps = []
    for k, b in enumerate(betti):
        for i in range(b):
            cps.append((f"{name}:{k}.{i}", k))
    return MorseData.build(cps, [])


def _mu_cap2(comp):
    """Doubled cap index: mu(u_p) = -(mu + dim/2) in the normalized gauge."""
    return -(comp.mu2 + comp.dim)


# the slack of PearlData's action and area checks
_ACTION_TOL = 1e-9


@dataclass(frozen=True)
class PearlData:
    context: MonotoneContext
    components: tuple
    cascades: tuple   # (from_point, to_point, sign, total_maslov, total_area)

    @staticmethod
    def build(context, components, cascades, normalize=True):
        comps = list(components)
        if not comps:
            raise DimensionMismatch("need at least one component")
        base = comps[0]
        if normalize and (abs(base.action) > _ACTION_TOL or base.mu2 != 0):
            # shift the gauge so that component 1 carries (action, mu) = (0, 0)
            comps = [ComponentDatum(name=c.name, dim=c.dim,
                                    action=c.action - base.action,
                                    mu2=c.mu2 - base.mu2, betti=c.betti,
                                    morse=c.morse) for c in comps]
        for c in comps:
            if not (-_ACTION_TOL <= c.action < context.tau * context.N + _ACTION_TOL):
                raise ActionOutOfRange(
                    f"component {c.name}: action {c.action} outside [0, tau N)",
                    action=c.action)
        data = PearlData(context=context, components=tuple(comps),
                         cascades=tuple(cascades))
        data._validate()
        return data

    @cached_property
    def home(self):
        """Critical point name -> (its component, its Morse index)."""
        return {name: (c, mi) for c in self.components
                for name, mi in c.morse.critical_points}

    def _validate(self):
        N, tau = self.context.N, self.context.tau
        home = self.home
        for (src, dst, sign, maslov, area) in self.cascades:
            if src not in home or dst not in home:
                raise IndexMismatch(f"cascade endpoints {src}->{dst} unknown")
            cp, mip = home[src]
            cq, miq = home[dst]
            dp2 = 2 * mip + cp.mu2
            dq2 = 2 * miq + cq.mu2
            num = dq2 - dp2 + 2
            if num % (2 * N) != 0:
                raise MonotonicityViolation(
                    f"cascade {src}->{dst}: (|q|-|p|+1)/N = {num}/{2 * N} "
                    "is not an integer")
            ell = num // (2 * N)
            if ell < 0:
                raise NegativeLambdaExponent(
                    f"cascade {src}->{dst}: lambda exponent {ell} < 0", exponent=ell)
            # mixed-dimension components force half-integral strip indices
            # (the Fredholm half-integrality), so the Maslov total is compared
            # in doubled units
            expected_maslov2 = 2 * ell * N + _mu_cap2(cp) - _mu_cap2(cq)
            maslov2 = int(round(2 * float(maslov)))
            if abs(2 * float(maslov) - maslov2) > 1e-9:
                raise GradingNotInteger(
                    f"cascade {src}->{dst}: total_maslov {maslov} is not a "
                    "half-integer")
            if maslov2 != expected_maslov2:
                raise MonotonicityViolation(
                    f"cascade {src}->{dst}: total_maslov {maslov} != "
                    f"{expected_maslov2 / 2} from the grading bookkeeping")
            expected_area = tau * ell * N + cp.action - cq.action
            if abs(float(area) - expected_area) > _ACTION_TOL * max(
                    1.0, abs(expected_area)):
                raise MonotonicityViolation(
                    f"cascade {src}->{dst}: area {area} != tau l N - a(p) + a(q) "
                    f"= {expected_area}")
            if float(area) <= _ACTION_TOL * tau:
                raise MonotonicityViolation(
                    f"cascade {src}->{dst}: holomorphic cascade needs positive "
                    f"area, got {area}")

    def lambda_exponent(self, src, dst):
        cp, mip = self.home[src]
        cq, miq = self.home[dst]
        num = (2 * miq + cq.mu2) - (2 * mip + cp.mu2) + 2
        return num // (2 * self.context.N)


def _pearl_generators(data):
    gens = []
    for c in data.components:
        for name, mi in c.morse.critical_points:
            deg2 = 2 * mi + c.mu2
            if deg2 % 2 != 0:
                raise GradingNotInteger(
                    f"generator {name}: degree {deg2}/2 is not an integer",
                    name=name, deg2=deg2)
            gens.append((name, deg2))
    return gens


def _pearl_arrows(data):
    """Generators and arrows (source, target, lambda exponent) of the pearl
    complex: the Morse arrows at exponent 0, then the cascades."""
    gens = _pearl_generators(data)
    pos = {nm: i for i, (nm, _) in enumerate(gens)}
    arrows = [(pos[s], pos[t], 0) for c in data.components
              for s, t, _, _ in c.morse.trajectories]
    arrows += [(pos[s], pos[t], data.lambda_exponent(s, t))
               for s, t, *_ in data.cascades]
    return gens, arrows


def pearl_complex(data):
    """Pearl complex over Lambda_Z2: Morse arrows at l^0 plus cascade arrows
    at l^{(|q|-|p|+1)/N}; d . d = 0 is a hard construction gate."""
    gens, arrows = _pearl_arrows(data)
    boundary = {}
    for s, t, ell in arrows:
        col = boundary.setdefault(s, {})
        col[t] = col.get(t, LaurentPoly.zero()) + LaurentPoly.lam(ell)
    return GradedFreeComplex.build(L2, gens, boundary, N=data.context.N)


def local_pearl_complex(data):
    """Z2 complex keeping Morse arrows and only the cascades with exponent 0."""
    gens, arrows = _pearl_arrows(data)
    boundary = {}
    for s, t, ell in arrows:
        if ell == 0:
            col = boundary.setdefault(s, {})
            col[t] = (col.get(t, 0) + 1) % 2
    return GradedFreeComplex.build(Z2, gens, boundary)


def monotonicity_check(records, ctx, tol=1e-9):
    """Check (area, maslov) records against the monotonicity assumption.

    Each record is a dict with keys area, maslov, and either kind="loop"
    (checks area = tau * maslov and maslov in N Z) or kind="cascade" with an
    optional cap_correction c (checks area = tau * maslov + c).
    Returns (ok, first_violation)."""
    for k, rec in enumerate(records):
        area = float(rec["area"])
        maslov = int(rec["maslov"])
        kind = rec.get("kind", "loop")
        if kind == "loop":
            if maslov % ctx.N != 0:
                return False, {"record": k, "reason": "maslov not divisible by N"}
            if abs(area - ctx.tau * maslov) > tol:
                return False, {"record": k, "reason": "area != tau * maslov"}
        else:
            corr = float(rec.get("cap_correction", 0.0))
            if abs(area - ctx.tau * maslov - corr) > tol:
                return False, {"record": k,
                               "reason": "area != tau * maslov + cap correction"}
    return True, None
