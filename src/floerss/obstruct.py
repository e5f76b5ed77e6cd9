"""Degree-reasoning engine over spectral pages: displaceability obstructions,
the clean-intersection collapse theorem, and the quantum-periodicity case
analysis.

All reasoning is on Z2 dimensions.  The first page of the Novikov sequence
of a clean pair is Lambda (x) HF^loc; one lambda-period is stored as a map
degree -> dimension, and a page-r differential (r = rbar * N in the
degree-aware indexing) acts on the period as a map of intrinsic degree
r - 1.  One enumerator lists the rank vectors of a differential on its
arrows between graded pieces: the degrees of the period for the global
differential of a page, the degrees of each component for the local action
differential of a case analysis.  A depth-first search over the pages
chains the global choices into schedules; a profile is consistent when some
schedule makes the stable dimensions satisfy the imposed constraints
(quantum periodicity, or vanishing for displaceable pairs).
"""

from dataclasses import dataclass

from .errors import HypothesisNotMet, SearchSpaceExceeded


@dataclass(frozen=True)
class PageShape:
    """One lambda-period of an E^1 page: intrinsic degree -> Z2 dimension."""

    N: int
    dims: dict

    @staticmethod
    def from_betti(betti, N, offset=0):
        return PageShape(N=int(N),
                         dims={k + offset: int(b) for k, b in enumerate(betti)
                               if int(b) != 0})

    def support(self):
        return sorted(d for d, v in self.dims.items() if v)


@dataclass(frozen=True)
class Verdict:
    kind: str                     # MustIntersect | ConsistentWithVanishing | Inconclusive
    forced_isos: tuple = ()
    witness: tuple = ()

    def __post_init__(self):
        if self.kind == "MustIntersect" and not self.witness:
            raise ValueError("MustIntersect needs a nonempty witness")


def possible_differentials(shape):
    """Pages r with a potentially nonzero differential: r in N Z and some
    degree d has dims[d] != 0 != dims[d + r - 1]."""
    sup = shape.support()
    if not sup:
        return []
    return [r for r in range(shape.N, sup[-1] - sup[0] + 2, shape.N)
            if any(shape.dims.get(d + r - 1, 0) for d in sup)]


def displaceable_constraints(betti, N):
    """Verdict for a displaceable pair with one connected component C.

    Implements the corollary's case split: N > dim C + 1 forces nonvanishing
    Floer homology; 2N > dim C + 1 forces the reflection pattern on the
    Betti numbers; otherwise an exhaustive rank search decides.
    """
    betti = [int(b) for b in betti]
    dimC = len(betti) - 1
    if not any(betti):
        return Verdict(kind="ConsistentWithVanishing",
                       witness=(("empty-homology",),))
    if N > dimC + 1:
        return Verdict(kind="MustIntersect", witness=(
            ("collapse", f"N = {N} > dim C + 1 = {dimC + 1}: no page admits a "
             "differential, E^1 = E^infinity != 0"),
            ("nonvanishing", "HF = E^infinity != 0 obstructs displaceability")))
    if 2 * N > dimC + 1:
        forced = tuple((k, k + N - 1) for k in range(dimC - N + 2))
        for k, j in forced:
            if betti[k] != betti[j]:
                return Verdict(kind="MustIntersect", witness=(
                    ("violated-iso", k, j, betti[k], betti[j]),
                    ("reason", f"H_{k} = {betti[k]} != {betti[j]} = H_{j} but "
                     "vanishing forces them equal")))
        # the middle band dim C - N + 2 .. N - 2 lies inside 1 .. dim C - 1
        for k in range(dimC - N + 2, N - 1):
            if betti[k] != 0:
                return Verdict(kind="MustIntersect", witness=(
                    ("violated-zero", k, betti[k]),
                    ("reason", f"H_{k} = {betti[k]} != 0 in the middle band")))
        return Verdict(kind="ConsistentWithVanishing", forced_isos=forced,
                       witness=(("pattern-satisfied", N, dimC),))
    # general regime: exhaustive differential-rank search for vanishing
    ok, trace = vanishing_schedule_exists(PageShape.from_betti(betti, N))
    if ok:
        return Verdict(kind="ConsistentWithVanishing", witness=trace)
    return Verdict(kind="MustIntersect", witness=(
        ("search-exhausted", "no differential schedule kills all of E^1"),)
        + trace)


def pozniak(betti, N):
    """HF Betti table for dim C + 1 < N: the sequence collapses and
    HF_* = H_*(C; Z2) in degrees 0..dim C."""
    betti = [int(b) for b in betti]
    dimC = len(betti) - 1
    if not dimC + 1 < N:
        raise HypothesisNotMet(
            f"needs dim C + 1 = {dimC + 1} < N = {N}", dim=dimC, N=N)
    pages = possible_differentials(PageShape.from_betti(betti, N))
    if pages:
        raise HypothesisNotMet(f"pages {pages} admit a differential; no collapse",
                               pages=pages)
    return {k: betti[k] for k in range(dimC + 1)}


# -- schedules of differential ranks ---------------------------------------------

# nodes of each schedule search of a displaceability verdict, and of each
# schedule search and local rank enumeration of a case analysis
_VERDICT_NODE_LIMIT = 200000
_CASE_NODE_LIMIT = 500000


def _rank_vectors(arrows, dims):
    """Rank vectors of maps along ``arrows`` (source, target) between graded
    pieces, in ``itertools.product`` order: the ranks incident to each piece
    add up to at most its dimension, a loop counting twice.  Yields each
    vector with the dimensions it leaves, zeros dropped; ``dims`` holds no
    zeros, and the zero vector leaves it as it is."""
    ranks = [0] * len(arrows)
    yield tuple(ranks), dims
    rest = dict(dims)
    while True:
        # odometer step: raise the last rank that can grow, zero those after it
        for k in reversed(range(len(arrows))):
            s, t = arrows[k]
            rest[s] -= 1
            rest[t] -= 1
            if rest[s] >= 0 and rest[t] >= 0:
                ranks[k] += 1
                break
            rest[s] += ranks[k] + 1
            rest[t] += ranks[k] + 1
            ranks[k] = 0
        else:
            return
        yield tuple(ranks), {p: v for p, v in rest.items() if v}


def _schedules(shape, node_limit):
    """DFS over schedules of global differentials at pages rbar*N: the page-r
    differential maps degree d to d + r - 1.

    Yields (final_dims, trace).  The page cap follows the degree spread:
    beyond it no differential can connect two supported degrees.
    """
    sup = shape.support()
    if not sup:
        yield {}, (("empty",),)
        return
    rmax = (max(sup) - min(sup) + shape.N) // shape.N + 1
    nodes = 0

    def rec(dims, rbar, trace):
        nonlocal nodes
        nodes += 1
        if nodes > node_limit:
            raise SearchSpaceExceeded("schedule search exceeded the node limit",
                                      nodes=nodes)
        if rbar > rmax:
            yield dims, trace
            return
        r = rbar * shape.N
        arrows = [(d, d + r - 1) for d in sorted(dims) if d + r - 1 in dims]
        for ranks, rest in _rank_vectors(arrows, dims):
            step = (("page", r, tuple((d, k) for (d, _), k in zip(arrows, ranks)
                                      if k)),) if any(ranks) else ()
            yield from rec(rest, rbar + 1, trace + step)

    yield from rec(shape.dims, 1, ())


def vanishing_schedule_exists(shape):
    """Is there a schedule of differentials with E^infinity = 0?"""
    best_trace = ()
    for dims, trace in _schedules(shape, _VERDICT_NODE_LIMIT):
        if not dims:
            return True, (("vanishing-schedule",),) + trace
        if not best_trace:
            best_trace = (("best-remaining", tuple(sorted(dims.items()))),)
    return False, best_trace


def _periodicity_ok(dims, N, period):
    """HF_m sums the lambda towers of the residue class of m mod N; is it
    periodic with the given period?"""
    sums = [0] * N
    for d, v in dims.items():
        sums[d % N] += v
    return all(sums[m] == sums[(m + period) % N] for m in range(N))


# -- quantum case analysis ----------------------------------------------------------


def _closed_manifold_profiles(dim, max_rank):
    """Candidate Z2 Betti vectors of a closed connected manifold of the given
    dimension and total rank at most max_rank, in lexicographic order:
    b_0 = b_dim = 1 (connectedness, Z2 fundamental class) and Poincare
    duality b_k = b_{dim-k}."""
    if dim == 0:
        return [(1,)]
    out = []

    def rec(head, budget):
        k = len(head)
        if k > dim // 2:
            out.append(tuple(head[min(j, dim - j)] for j in range(dim + 1)))
            return
        cost = 1 if 2 * k == dim else 2      # the middle Betti number once
        for b in range(budget // cost + 1):
            rec(head + [b], budget - cost * b)

    if max_rank >= 2:
        rec([1], max_rank - 2)
    return out


@dataclass(frozen=True)
class CaseAnalysisResult:
    profiles: tuple     # tuple of (dim, betti) consistent assignments
    witnesses: dict     # (dim, betti) -> trace


def quantum_case_analysis(components, N, period, max_rank=None, max_dim=None):
    """Search the Betti profiles of the single unknown component consistent
    with the page structure and the quantum periodicity HF_k = HF_{k+period}.
    Profiles have total rank at most max_rank (8 by default, at least 1);
    the period must be nonzero.

    ``components`` is a list of dicts with keys name, dim, betti (or None for
    the unknown one), mu (intrinsic degree offset, integer) and action_rank
    (position of the component's action among the distinct values, 1-based;
    equal ranks mean no local differential between them).
    """
    max_rank = 8 if max_rank is None else max_rank
    if max_rank < 1:
        raise HypothesisNotMet(f"max_rank must be at least 1, got {max_rank}",
                               max_rank=max_rank)
    if period == 0:
        raise HypothesisNotMet("the quantum period must be nonzero", period=period)
    unknown = [c for c in components if c.get("betti") is None]
    known = [c for c in components if c.get("betti") is not None]
    if len(unknown) != 1:
        raise HypothesisNotMet("exactly one component must have unknown betti")
    unknown = unknown[0]
    if unknown.get("dim") is not None:
        max_dim = unknown["dim"]
    if max_dim is None:
        raise HypothesisNotMet("the unknown component needs a dimension bound")
    if max_dim < 0:
        raise HypothesisNotMet(f"dimensions are nonnegative, got {max_dim}",
                               dim=max_dim)

    witnesses = {}
    dims_to_try = [max_dim] if unknown.get("dim") is not None \
        else range(max_dim + 1)
    for dim in dims_to_try:
        for betti in _closed_manifold_profiles(dim, max_rank):
            ok, trace = _profile_consistent(betti, unknown, known, N, period)
            if ok:
                witnesses[(dim, betti)] = trace
    return CaseAnalysisResult(profiles=tuple(sorted(witnesses)),
                              witnesses=witnesses)


def _profile_consistent(betti, unknown, known, N, period):
    """(True, trace) when some local differential and some schedule of global
    differentials leave a stable page with the quantum periodicity, else
    (False, ()).  The local differential has degree -1 and runs from a
    component to one of strictly lower action rank; the unknown component,
    with the given Betti numbers, is component 0."""
    comps = [(unknown, betti)] + [(c, c["betti"]) for c in known]
    rank = [int(c.get("action_rank", 1)) for c, _ in comps]
    degrees = [{k + int(c.get("mu", 0)): int(b) for k, b in enumerate(bs)
                if int(b)} for c, bs in comps]
    pieces = {(i, d): v for i, dd in enumerate(degrees) for d, v in dd.items()}
    arrows = [((i, d), (j, d - 1))
              for i, di in enumerate(degrees) for j, dj in enumerate(degrees)
              if rank[i] > rank[j] for d in sorted(di) if d - 1 in dj]
    for count, (ranks, rest) in enumerate(_rank_vectors(arrows, pieces), 1):
        if count > _CASE_NODE_LIMIT:
            raise SearchSpaceExceeded("local schedule enumeration too large",
                                      vectors=count)
        hf_loc = {}
        for (_, d), v in rest.items():
            hf_loc[d] = hf_loc.get(d, 0) + v
        local = tuple(("local", i, j, d, k)
                      for ((i, d), (j, _)), k in zip(arrows, ranks) if k)
        for final, trace in _schedules(PageShape(N=N, dims=hf_loc),
                                       _CASE_NODE_LIMIT):
            if _periodicity_ok(final, N, period):
                return True, local + trace + \
                    (("stable", tuple(sorted(final.items()))),)
    return False, ()


def two_component_count(component, N, period):
    """Is a single-component intersection consistent with the quantum
    periodicity?  Returns (consistent, trace) for known Betti numbers, and
    (consistent, case analysis) for unknown ones."""
    if component.get("betti") is None:
        res = quantum_case_analysis([component], N, period)
        return len(res.profiles) > 0, res
    betti = tuple(int(b) for b in component["betti"])
    ok, trace = _profile_consistent(betti, component, [], N, period)
    return ok, trace if ok else (("no-consistent-schedule", betti),)


def replay_witness(verdict, betti, N):
    """Re-validate a displaceability verdict trace against the dimensions."""
    betti = [int(b) for b in betti]
    dimC = len(betti) - 1
    for step in verdict.witness:
        tag = step[0]
        if tag == "collapse":
            if not N > dimC + 1:
                return False
        elif tag == "violated-iso":
            _, k, k2, bk, bk2 = step
            if betti[k] != bk or betti[k2] != bk2 or bk == bk2:
                return False
        elif tag == "violated-zero":
            _, k, bk = step
            if betti[k] != bk or bk == 0:
                return False
        elif tag == "pattern-satisfied":
            for k in range(0, dimC - N + 2):
                if betti[k] != betti[k + N - 1]:
                    return False
    return True
