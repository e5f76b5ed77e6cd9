import pytest

from floerss import obstruct as ob
from floerss.errors import HypothesisNotMet


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
