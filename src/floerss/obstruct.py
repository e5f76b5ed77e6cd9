"""Degree-reasoning engine over spectral pages: displaceability obstructions,
the clean-intersection collapse theorem, and the quantum-periodicity case
analysis.

All reasoning is on Z2 dimensions.  The first page of the Novikov sequence
of a clean pair is Lambda (x) HF^loc; one lambda-period is stored as a map
degree -> dimension, and a page-r differential (r = rbar * N in the
degree-aware indexing) acts on the period as a map of intrinsic degree
r - 1.  Schedules of differential ranks are searched exhaustively under the
composition constraints; a profile is consistent when some schedule makes
the stable dimensions satisfy the imposed constraints (quantum periodicity,
or vanishing for displaceable pairs).
"""

from dataclasses import dataclass
from itertools import product

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
    lo, hi = min(sup), max(sup)
    out = []
    r = shape.N
    while r <= hi - lo + 1:
        if any(shape.dims.get(d, 0) and shape.dims.get(d + r - 1, 0) for d in sup):
            out.append(r)
        r += shape.N
    return out


def displaceable_constraints(betti, N):
    """Verdict for a displaceable pair with one connected component C.

    Implements the corollary's case split: N > dim C + 1 forces nonvanishing
    Floer homology; 2N > dim C + 1 forces the reflection pattern on the
    Betti numbers; otherwise an exhaustive rank search decides.
    """
    betti = [int(b) for b in betti]
    dimC = len(betti) - 1
    total = sum(betti)
    witness = []
    if total == 0:
        return Verdict(kind="ConsistentWithVanishing",
                       witness=(("empty-homology",),))
    if N > dimC + 1:
        witness.append(("collapse", f"N = {N} > dim C + 1 = {dimC + 1}: no page "
                        "admits a differential, E^1 = E^infinity != 0"))
        witness.append(("nonvanishing", "HF = E^infinity != 0 obstructs "
                        "displaceability"))
        return Verdict(kind="MustIntersect", witness=tuple(witness))
    if 2 * N > dimC + 1:
        forced = []
        for k in range(0, dimC - N + 2):
            forced.append((k, k + N - 1))
            if betti[k] != betti[k + N - 1]:
                witness.append(("violated-iso", k, k + N - 1, betti[k],
                                betti[k + N - 1]))
                witness.append(("reason", f"H_{k} = {betti[k]} != "
                                f"{betti[k + N - 1]} = H_{k + N - 1} but "
                                "vanishing forces them equal"))
                return Verdict(kind="MustIntersect", witness=tuple(witness))
        for k in range(dimC - N + 2, N - 1):
            if 0 <= k <= dimC and betti[k] != 0:
                witness.append(("violated-zero", k, betti[k]))
                witness.append(("reason", f"H_{k} = {betti[k]} != 0 in the "
                                "middle band"))
                return Verdict(kind="MustIntersect", witness=tuple(witness))
        return Verdict(kind="ConsistentWithVanishing",
                       forced_isos=tuple(forced),
                       witness=(("pattern-satisfied", N, dimC),))
    # general regime: exhaustive differential-rank search for vanishing
    shape = PageShape.from_betti(betti, N)
    ok, trace = vanishing_schedule_exists(shape)
    if ok:
        return Verdict(kind="ConsistentWithVanishing", witness=tuple(trace))
    return Verdict(kind="MustIntersect",
                   witness=(("search-exhausted", "no differential schedule "
                             "kills all of E^1"),) + tuple(trace))


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


def _rank_choices(dims, delta):
    """All rank vectors for one page: maps d -> d + delta, with the
    composition constraint r_d + r_{d+delta} <= dims[d + delta]."""
    sup = sorted(dims)
    pairs = [(d, d + delta) for d in sup if dims.get(d + delta, 0)]
    if not pairs:
        return [{}]
    ranges = []
    for d, t in pairs:
        ranges.append(range(0, min(dims[d], dims[t]) + 1))
    out = []
    for combo in product(*ranges):
        r = {d: c for (d, _), c in zip(pairs, combo) if c}
        ok = True
        # composition: the image entering degree t and the rank leaving t
        # cannot exceed dim at t
        for d, t in pairs:
            if r.get(d, 0) + r.get(t, 0) > dims[t]:
                ok = False
                break
        if ok:
            out.append(r)
    return out


def _apply_ranks(dims, ranks, delta):
    out = dict(dims)
    for d, r in ranks.items():
        out[d] = out.get(d, 0) - r
        t = d + delta
        out[t] = out.get(t, 0) - r
    return {d: v for d, v in out.items() if v > 0}


def _schedules(shape, node_limit=200000):
    """DFS over schedules of global differentials at pages rbar*N.

    Yields (final_dims, trace).  The page cap follows the degree spread:
    beyond it no differential can connect two supported degrees.
    """
    sup = shape.support()
    if not sup:
        yield {}, (("empty",),)
        return
    spread = max(sup) - min(sup)
    rmax = (spread + shape.N) // shape.N + 1
    nodes = [0]

    def rec(dims, rbar, trace):
        nodes[0] += 1
        if nodes[0] > node_limit:
            raise SearchSpaceExceeded("schedule search exceeded the node limit",
                                      nodes=nodes[0])
        if rbar > rmax:
            yield dims, trace
            return
        delta = rbar * shape.N - 1
        choices = _rank_choices(dims, delta)
        for r in choices:
            nxt = _apply_ranks(dims, r, delta) if r else dims
            step = (("page", rbar * shape.N, tuple(sorted(r.items()))),) if r else ()
            yield from rec(nxt, rbar + 1, trace + step)

    seen = set()
    for dims, trace in rec(dict(shape.dims), 1, ()):
        key = (tuple(sorted(dims.items())), trace)
        if key not in seen:
            seen.add(key)
            yield dims, trace


def vanishing_schedule_exists(shape):
    """Is there a schedule of differentials with E^infinity = 0?"""
    best_trace = []
    for dims, trace in _schedules(shape):
        if not dims:
            return True, (("vanishing-schedule",),) + trace
        if not best_trace:
            best_trace = [("best-remaining", tuple(sorted(dims.items())))]
    return False, tuple(best_trace)


def _tower_sums(dims, N):
    """HF_m = sum over the lambda towers: residue class of m mod N."""
    out = {}
    for d, v in dims.items():
        out[d % N] = out.get(d % N, 0) + v
    return out


def _periodicity_ok(dims, N, period):
    sums = _tower_sums(dims, N)
    for m in range(N):
        if sums.get(m, 0) != sums.get((m + period) % N, 0):
            return False
    return True


# -- quantum case analysis ----------------------------------------------------------


def _closed_manifold_profiles(dim, max_rank):
    """Candidate Z2 Betti vectors of a closed connected manifold of the given
    dimension: b_0 = b_dim = 1 (connectedness, Z2 fundamental class) and
    Poincare duality b_k = b_{dim-k}."""
    if dim == 0:
        return [(1,)]
    half = (dim + 1) // 2
    out = []
    budget = max_rank - 2

    def rec(k, rem, acc):
        if k >= half:
            if dim % 2 == 0:
                # middle Betti free (same parity of total not constrained here)
                for mid in range(0, rem + 1):
                    out.append(acc + [mid])
            else:
                out.append(acc[:])
            return
        for b in range(0, rem + 1):
            rec(k + 1, rem - (2 * b), acc + [b])

    rec(1, budget, [])
    profiles = []
    for tail in out:
        b = [1] + tail
        if dim % 2 == 0:
            full = b + [x for x in reversed(b[:-1])]
        else:
            full = b + [x for x in reversed(b)]
        if sum(full) <= max_rank and full[-1] == 1 and len(full) == dim + 1:
            profiles.append(tuple(full))
    return sorted(set(profiles))


@dataclass(frozen=True)
class CaseAnalysisResult:
    profiles: tuple     # tuple of (dim, betti) consistent assignments
    witnesses: dict     # (dim, betti) -> trace


# nodes of each schedule search of quantum_case_analysis
_CASE_NODE_LIMIT = 500000


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

    consistent = []
    witnesses = {}
    dims_to_try = [unknown["dim"]] if unknown.get("dim") is not None \
        else list(range(0, max_dim + 1))
    for dim in dims_to_try:
        for betti in _closed_manifold_profiles(dim, max_rank):
            ok, trace = _profile_consistent(betti, dim, unknown, known, N,
                                            period)
            if ok:
                consistent.append((dim, betti))
                witnesses[(dim, betti)] = trace
    return CaseAnalysisResult(profiles=tuple(sorted(consistent)),
                              witnesses=witnesses)


def _profile_consistent(betti, dim, unknown, known, N, period):
    mu_u = int(unknown.get("mu", 0))
    rank_u = int(unknown.get("action_rank", 1))
    # local page: E^{loc,1} entries per component
    local_entries = [{"dims": {k + mu_u: b for k, b in enumerate(betti) if b},
                      "rank": rank_u}]
    for c in known:
        dd = {k + int(c.get("mu", 0)): int(b)
              for k, b in enumerate(c["betti"]) if int(b)}
        local_entries.append({"dims": dd, "rank": int(c.get("action_rank", 1))})

    # stage 1: local differentials (degree -1, action rank drops by >= 1);
    # enumerate rank choices between every ordered pair of entries
    for local_choice, local_trace in _local_schedules(local_entries):
        # HF^loc support = direct sum of what remains
        hf_loc = {}
        for e in local_choice:
            for d, v in e.items():
                hf_loc[d] = hf_loc.get(d, 0) + v
        shape = PageShape(N=N, dims={d: v for d, v in hf_loc.items() if v})
        for final, trace in _schedules(shape, node_limit=_CASE_NODE_LIMIT):
            if not _periodicity_ok(final, N, period):
                continue
            full_trace = local_trace + trace + \
                (("stable", tuple(sorted(final.items()))),)
            return True, full_trace
    return False, ()


def _local_schedules(entries):
    """Rank choices of the local (action) differential: one page, degree -1,
    strictly decreasing action rank."""
    pairs = []
    for i, e in enumerate(entries):
        for j, f in enumerate(entries):
            if e["rank"] > f["rank"]:
                for d in sorted(e["dims"]):
                    if f["dims"].get(d - 1, 0):
                        pairs.append((i, j, d))
    if not pairs:
        yield [dict(e["dims"]) for e in entries], ()
        return
    ranges = [range(0, min(entries[i]["dims"][d],
                           entries[j]["dims"].get(d - 1, 0)) + 1)
              for (i, j, d) in pairs]
    count = 0
    for combo in product(*ranges):
        count += 1
        if count > _CASE_NODE_LIMIT:
            raise SearchSpaceExceeded("local schedule enumeration too large")
        dims = [dict(e["dims"]) for e in entries]
        ok = True
        for (i, j, d), r in zip(pairs, combo):
            if r == 0:
                continue
            if dims[i].get(d, 0) < r or dims[j].get(d - 1, 0) < r:
                ok = False
                break
            dims[i][d] -= r
            dims[j][d - 1] -= r
        if not ok:
            continue
        dims = [{d: v for d, v in e.items() if v > 0} for e in dims]
        tr = tuple(("local", i, j, d, r)
                   for (i, j, d), r in zip(pairs, combo) if r)
        yield dims, tr


def two_component_count(component, N, period):
    """Is a single-component intersection consistent with the quantum
    periodicity?  Returns (consistent, result-or-trace)."""
    if component.get("betti") is not None:
        betti = tuple(int(b) for b in component["betti"])
        shape = PageShape.from_betti(betti, N, offset=int(component.get("mu", 0)))
        for final, trace in _schedules(shape):
            if _periodicity_ok(final, N, period):
                return True, trace
        return False, (("no-consistent-schedule", betti),)
    res = quantum_case_analysis([component], N, period)
    return len(res.profiles) > 0, res


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
