import hashlib

import pytest

from floerss import obstruct as ob
from floerss.errors import HypothesisNotMet, SearchSpaceExceeded


def test_possible_differentials_examples():
    assert ob.possible_differentials(ob.PageShape.from_betti([1, 1], 2)) == [2]
    assert ob.possible_differentials(ob.PageShape.from_betti([1], 5)) == []
    # N > dim C + 1: source and target degrees never align
    assert ob.possible_differentials(ob.PageShape.from_betti([1, 0, 1], 4)) == []


def test_displaceable_s1():
    v = ob.displaceable_constraints([1, 1], 2)
    assert v.kind == "ConsistentWithVanishing"
    assert (0, 1) in v.forced_isos


def test_displaceable_t2():
    v = ob.displaceable_constraints([1, 2, 1], 2)
    assert v.kind == "MustIntersect"
    assert any(step[0] == "violated-iso" for step in v.witness)


def test_displaceable_s2_large_N():
    v = ob.displaceable_constraints([1, 0, 1], 4)
    assert v.kind == "MustIntersect"
    assert any(step[0] == "collapse" for step in v.witness)


def test_displaceable_consistency_with_pozniak():
    # whenever dim C + 1 < N and betti != 0, the verdict must be MustIntersect
    cases = [([1], 2), ([1, 1], 3), ([1, 2, 1], 4), ([1, 0, 1], 5)]
    for betti, N in cases:
        assert ob.displaceable_constraints(betti, N).kind == "MustIntersect"
        assert ob.pozniak(betti, N) == {k: b for k, b in enumerate(betti)}


def test_displaceable_general_regime_search():
    # N = 2, dim C = 3 (2N <= dim C + 1): exhaustive schedule search; the
    # 3-torus pattern (1,3,3,1) admits an exact differential, the (1,1,1,1)
    # pattern does not (checked by the brute-force engine itself)
    v = ob.displaceable_constraints([1, 3, 3, 1], 2)
    assert v.kind == "ConsistentWithVanishing"
    v2 = ob.displaceable_constraints([1, 1, 2, 1], 2)
    assert v2.kind == "MustIntersect"


def test_pozniak_hypothesis_gate():
    with pytest.raises(HypothesisNotMet):
        ob.pozniak([1, 1], 2)


def test_pozniak_refuses_a_possible_differential(monkeypatch):
    monkeypatch.setattr(ob, "possible_differentials", lambda shape: [shape.N])
    with pytest.raises(HypothesisNotMet):
        ob.pozniak([1], 2)


def test_pozniak_examples():
    assert ob.pozniak([1], 2) == {0: 1}
    assert ob.pozniak([1, 1], 3) == {0: 1, 1: 1}
    assert ob.pozniak([1, 2, 1], 4) == {0: 1, 1: 2, 2: 1}


def test_quantum_two_point_components():
    comps = [{"name": "C", "dim": 0, "betti": None, "mu": 0, "action_rank": 1},
             {"name": "P", "dim": 0, "betti": [1], "mu": 2, "action_rank": 1}]
    res = ob.quantum_case_analysis(comps, N=4, period=2)
    assert res.profiles == ((0, (1,)),)


def test_quantum_cp1_instance():
    comps = [{"name": "C", "dim": None, "betti": None, "mu": 0,
              "action_rank": 1},
             {"name": "P", "dim": 0, "betti": [1], "mu": 2, "action_rank": 2}]
    res = ob.quantum_case_analysis(comps, N=4, period=2, max_rank=8, max_dim=1)
    assert res.profiles == ((0, (1,)),)
    assert (0, (1,)) in res.witnesses


def test_quantum_single_component_contradiction():
    ok, _ = ob.two_component_count({"name": "C", "dim": 1, "betti": [1, 1],
                                    "mu": 0}, N=4, period=2)
    assert not ok
    ok, _ = ob.two_component_count({"name": "C", "dim": 0, "betti": [1],
                                    "mu": 0}, N=4, period=2)
    assert not ok
    # no-periodicity regime: any single component is trivially consistent
    ok, _ = ob.two_component_count({"name": "C", "dim": 0, "betti": [1],
                                    "mu": 0}, N=4, period=4)
    assert ok


def test_quantum_n2_single_component_regime():
    # ambient CP^2 x CP^2: N = 6, period 2, dim C <= 3
    for dim in range(0, 4):
        for prof in ob._closed_manifold_profiles(dim, 8):
            ok, _ = ob.two_component_count(
                {"name": "C", "dim": dim, "betti": list(prof), "mu": 0},
                N=6, period=2)
            assert not ok, (dim, prof)


def test_witness_replay():
    betti = [1, 2, 1]
    v = ob.displaceable_constraints(betti, 2)
    assert ob.replay_witness(v, betti, 2)
    # a witness replayed against different dimensions fails
    assert not ob.replay_witness(v, [1, 1], 2)


def test_verdict_requires_witness():
    with pytest.raises(ValueError):
        ob.Verdict(kind="MustIntersect")


def test_general_regime_witnesses():
    # the first schedule of the depth-first search that kills E^1, and the
    # untouched E^1 as the best remainder when none does
    v = ob.displaceable_constraints([1, 3, 3, 1], 2)
    assert v.witness == (("vanishing-schedule",), ("page", 2, ((1, 3),)),
                         ("page", 4, ((0, 1),)))
    v = ob.displaceable_constraints([1, 1, 2, 1], 2)
    assert v.witness == (
        ("search-exhausted", "no differential schedule kills all of E^1"),
        ("best-remaining", ((0, 1), (1, 1), (2, 2), (3, 1))))


def test_case_analysis_witnesses_with_a_local_differential():
    # the unknown component sits one action step above a known circle one
    # degree below it, so the local differential can hit the circle
    comps = [{"name": "C", "dim": None, "betti": None, "mu": 0,
              "action_rank": 2},
             {"name": "P", "dim": 1, "betti": [1, 1], "mu": -1,
              "action_rank": 1}]
    res = ob.quantum_case_analysis(comps, N=3, period=1, max_rank=6, max_dim=2)
    assert res.witnesses == {
        (1, (1, 1)): (("local", 0, 1, 0, 1), ("local", 0, 1, 1, 1),
                      ("empty",), ("stable", ())),
        (2, (1, 0, 1)): (("local", 0, 1, 0, 1), ("page", 3, ((0, 1),)),
                         ("stable", ())),
        (2, (1, 1, 1)): (("page", 3, ((0, 1),)),
                         ("stable", ((-1, 1), (0, 1), (1, 1)))),
        (2, (1, 2, 1)): (("stable", ((-1, 1), (0, 2), (1, 2), (2, 1))),),
        (2, (1, 3, 1)): (("local", 0, 1, 1, 1), ("page", 3, ((-1, 1),)),
                         ("stable", ((0, 1), (1, 1), (2, 1)))),
    }
    assert res.profiles == tuple(sorted(res.witnesses))


def test_closed_manifold_verdicts_digest():
    # every verdict of the closed-manifold profiles of dims 0-5 at total
    # rank 8, N = 1..6: kinds, forced isomorphisms and witnesses
    verdicts = [ob.displaceable_constraints(list(betti), N)
                for dim in range(6)
                for betti in ob._closed_manifold_profiles(dim, 8)
                for N in range(1, 7)]
    assert len(verdicts) == 234
    assert hashlib.sha256(repr(verdicts).encode()).hexdigest() == (
        "71e9827304906356e2a620d74e1ed502717085cf4bfd661197edb672a4c3576f")


# equal action ranks: no local differential, only the schedule search
_NO_LOCAL = [{"name": "C", "dim": 0, "betti": None, "mu": 0, "action_rank": 1},
             {"name": "P", "dim": 0, "betti": [1], "mu": 2, "action_rank": 1}]
# the point sits one action step below and one degree below the unknown
_LOCAL = [{"name": "C", "dim": 0, "betti": None, "mu": 0, "action_rank": 2},
          {"name": "P", "dim": 0, "betti": [1], "mu": -1, "action_rank": 1}]
SEARCH_LIMITS = [(_NO_LOCAL, 1, "schedule search exceeded the node limit"),
                 (_LOCAL, 0, "local schedule enumeration too large")]


@pytest.mark.parametrize("comps,limit,message", SEARCH_LIMITS)
def test_case_analysis_search_limits(monkeypatch, comps, limit, message):
    assert ob.quantum_case_analysis(comps, N=4, period=2).profiles == (
        (0, (1,)),)
    monkeypatch.setattr(ob, "_CASE_NODE_LIMIT", limit)
    with pytest.raises(SearchSpaceExceeded, match=message):
        ob.quantum_case_analysis(comps, N=4, period=2)


@pytest.mark.parametrize("dim,max_dim", [(-1, None), (None, -1)])
def test_case_analysis_refuses_a_negative_dimension(dim, max_dim):
    comps = [{"name": "C", "dim": dim, "betti": None}]
    with pytest.raises(HypothesisNotMet):
        ob.quantum_case_analysis(comps, N=4, period=2, max_dim=max_dim)


def test_verdict_search_limit(monkeypatch):
    monkeypatch.setattr(ob, "_VERDICT_NODE_LIMIT", 1)
    with pytest.raises(SearchSpaceExceeded, match="node limit"):
        ob.displaceable_constraints([1, 3, 3, 1], 2)
