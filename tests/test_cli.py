import contextlib
import copy
import io
import json
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from floerss.cli import main

C = 0.8660254037844387


def run_cli(args, capsys):
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture
def flat_pi3(tmp_path):
    doc = {"schema": "floerss/1", "kind": "spectrum", "n": 1,
           "sigma": {"constant": [[0, 0], [0, 0]]},
           "boundary": [[[1], [0]], [[0.5], [C]]],
           "window": 4.0}
    p = tmp_path / "flat_pi3.json"
    p.write_text(json.dumps(doc))
    return str(p)


@pytest.fixture
def graph_localization(tmp_path):
    doc = {"schema": "floerss/1", "kind": "rs_index",
           "F0": {"type": "graph", "interval": [0, 1],
                  "B": {"poly": [[[-0.5]], [[1]]]}},
           "F1": {"type": "constant", "interval": [0, 1],
                  "frame": [[1], [0]]}}
    p = tmp_path / "graph_localization.json"
    p.write_text(json.dumps(doc))
    return str(p)


@pytest.fixture
def s1_component(tmp_path):
    doc = {"schema": "floerss/1", "kind": "intersection", "N": 2,
           "components": [{"name": "C", "dim": 1, "betti": [1, 1]}]}
    p = tmp_path / "s1_component.json"
    p.write_text(json.dumps(doc))
    return str(p)


def test_spectrum_flat_pi3(flat_pi3, capsys):
    code, out, _ = run_cli(["spectrum", flat_pi3, "--json"], capsys)
    assert code == 0
    doc = json.loads(out)
    rhos = [e["rho"] for e in doc["eigenvalues"]]
    assert any(abs(r - np.pi / 3) < 1e-6 for r in rhos)
    assert abs(doc["gap"] - np.pi / 3) < 1e-6


def test_rs_index_localization(graph_localization, capsys):
    code, out, _ = run_cli(["rs-index", graph_localization], capsys)
    assert code == 0
    assert "rs_index: 1" in out


def test_displaceable_verdict(s1_component, capsys):
    code, out, _ = run_cli(
        ["intersection", s1_component, "--displaceable", "--json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "ConsistentWithVanishing"
    assert [0, 1] in doc["forced_isos"]


def test_validate_ok(s1_component, capsys):
    code, out, _ = run_cli(["validate", s1_component], capsys)
    assert code == 0
    assert "ok: True" in out


def test_validate_action_out_of_range(tmp_path, capsys):
    doc = {"schema": "floerss/1", "kind": "pearl",
           "context": {"tau": 1.0, "N": 2},
           "components": [{"name": "C", "dim": 0, "action": 5.0, "mu2": 0,
                           "betti": [1]}],
           "cascades": []}
    p = tmp_path / "bad_action.json"
    p.write_text(json.dumps(doc))
    code, out, err = run_cli(["validate", str(p)], capsys)
    assert code == 1
    payload = json.loads(err)
    assert payload["error"] == "ActionOutOfRange"


def test_validate_negative_lambda_exponent(tmp_path, capsys):
    doc = {"schema": "floerss/1", "kind": "pearl",
           "context": {"tau": 1.0, "N": 2},
           "components": [
               {"name": "A", "dim": 0, "action": 0.0, "mu2": 0, "betti": [1]},
               {"name": "B", "dim": 0, "action": 0.5, "mu2": -6, "betti": [1]}],
           "cascades": [{"from": "A:0.0", "to": "B:0.0", "sign": 1,
                         "maslov2": 0, "area": 0.1}]}
    p = tmp_path / "neg_exp.json"
    p.write_text(json.dumps(doc))
    code, out, err = run_cli(["validate", str(p)], capsys)
    assert code == 1
    assert json.loads(err)["error"] == "NegativeLambdaExponent"


def test_schema_error_exit_code(tmp_path, capsys):
    p = tmp_path / "wrong.json"
    p.write_text(json.dumps({"schema": "floerss/0", "kind": "spectrum"}))
    code, out, err = run_cli(["spectrum", str(p)], capsys)
    assert code == 2
    assert json.loads(err)["error"] == "SchemaError"


def test_malformed_inputs_do_not_crash(tmp_path, capsys):
    corpus = [
        "{",
        "[]",
        json.dumps({"schema": "floerss/1"}),
        json.dumps({"schema": "floerss/1", "kind": "spectrum"}),
        json.dumps({"schema": "floerss/1", "kind": "spectrum", "n": 1,
                    "sigma": {"constant": [[0, "x"], [0, 0]]},
                    "boundary": [[[1], [0]], [[0], [1]]]}),
        json.dumps({"schema": "floerss/1", "kind": "rs_index",
                    "F0": {"type": "warp", "interval": [0, 1]},
                    "F1": {"type": "warp", "interval": [0, 1]}}),
        json.dumps({"schema": "floerss/1", "kind": "complex", "ring": "Z7",
                    "generators": [], "boundary": []}),
    ]
    for k, text in enumerate(corpus):
        p = tmp_path / f"fuzz{k}.json"
        p.write_text(text)
        for cmd in ("spectrum", "rs-index", "homology", "validate"):
            code, out, err = run_cli([cmd, str(p)], capsys)
            assert code in (1, 2), (cmd, text, code)


def test_determinism_byte_identical(graph_localization):
    runs = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-m", "floerss.cli", "rs-index",
             graph_localization, "--json"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        runs.append(proc.stdout)
    assert runs[0] == runs[1]


def test_overflow_gives_one_json_error_on_stderr(tmp_path):
    # 1e308 + 1e308 s overflows in the polynomial evaluation; numpy's
    # RuntimeWarnings must not reach stderr ahead of the error object
    doc = {"schema": "floerss/1", "kind": "rs_index",
           "F0": {"type": "graph", "interval": [0, 1],
                  "B": {"poly": [[[1e308]], [[1e308]]]}},
           "F1": {"type": "constant", "interval": [0, 1],
                  "frame": [[1], [0]]}}
    p = tmp_path / "overflow.json"
    p.write_text(json.dumps(doc))
    proc = subprocess.run([sys.executable, "-m", "floerss.cli", "rs-index", str(p)],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert json.loads(proc.stderr)["error"] == "NotFullRank"


SS_DOC = {"schema": "floerss/1", "kind": "ss", "filtration": "novikov",
          "indexing": "stretched",
          "pearl": {
              "context": {"tau": 1.5, "N": 2},
              "components": [
                  {"name": "A", "dim": 0, "action": 0.0, "mu2": 0,
                   "betti": [1]},
                  {"name": "C", "dim": 0, "action": 0.4, "mu2": 2,
                   "betti": [1]}],
              "cascades": [{"from": "A:0.0", "to": "C:0.0", "sign": 1,
                            "maslov2": 6, "area": 2.6}],
              "normalize": False}}

# stdout of `floerss ss` on SS_DOC as printed by the literal page engine
SS_JSON = (
    '{"collapse_r": 3, "convergence_ok": true, "dims": {"(-2, 0)": 1, '
    '"(-2, 1)": 1, "(-4, 0)": 1, "(-4, 1)": 1, "(-6, 0)": 1, "(-6, 1)": 1, '
    '"(-8, 0)": 1, "(-8, 1)": 1, "(0, 0)": 1, "(0, 1)": 1, "(2, 0)": 1, '
    '"(2, 1)": 1, "(4, 0)": 1, "(4, 1)": 1, "(6, 0)": 1, "(6, 1)": 1, '
    '"(8, 0)": 1, "(8, 1)": 1}, "einf_dims": {"(-8, 0)": 1, "(8, 1)": 1}, '
    '"kind": "page_table", "page": 1}\n')
SS_TEXT = (
    "q\\p | -8 -6 -4 -2  0  2  4  6  8\n"
    "--------------------------------\n"
    "   1|  1  1  1  1  1  1  1  1  1\n"
    "   0|  1  1  1  1  1  1  1  1  1\n"
    "collapse_r: 3\n"
    "convergence_ok: True\n"
    'einf_dims: {"(-8, 0)": 1, "(8, 1)": 1}\n'
    "page: 1\n")


def test_ss_command(tmp_path, capsys, monkeypatch):
    from floerss import specseq

    def refuse(*args, **kwargs):
        raise AssertionError("literal page engine called")

    monkeypatch.setattr(specseq, "page", refuse)
    monkeypatch.setattr(specseq, "_z_space", refuse)
    p = tmp_path / "ss.json"
    p.write_text(json.dumps(SS_DOC))
    assert run_cli(["ss", str(p), "--json"], capsys) == (0, SS_JSON, "")
    assert run_cli(["ss", str(p)], capsys) == (0, SS_TEXT, "")


def test_ss_page_below_one_is_refused(tmp_path, capsys):
    p = tmp_path / "ss0.json"
    p.write_text(json.dumps(dict(SS_DOC, page=0)))
    code, out, err = run_cli(["ss", str(p), "--json"], capsys)
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "DimensionMismatch",
                               "message": "pages are defined for r >= 1"}


def test_ss_does_not_import_numpy_ma(tmp_path):
    # the page engine needs no masked arrays (np.unique imports numpy.ma,
    # 12 ms and about 1.6 MB): a fresh process that runs `floerss ss` on
    # SS_DOC leaves numpy.ma out of sys.modules
    p = tmp_path / "ss.json"
    p.write_text(json.dumps(SS_DOC))
    code = ("import sys\nfrom floerss.cli import main\n"
            f"assert main(['ss', {str(p)!r}, '--json']) == 0\n"
            "print('numpy.ma' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


SPECTRUM_POLY_DOC = {
    "schema": "floerss/1", "kind": "spectrum", "n": 2,
    "sigma": {"poly": [[[0.3, 0.1, 0.0, 0.2], [0.1, -0.2, 0.2, 0.0],
                        [0.0, 0.2, 0.5, -0.1], [0.2, 0.0, -0.1, 0.1]],
                       [[0.4, 0.0, 0.1, 0.0], [0.0, -0.3, 0.0, 0.2],
                        [0.1, 0.0, 0.2, 0.0], [0.0, 0.2, 0.0, -0.1]]]},
    "boundary": [[[1, 0], [0, 1], [0, 0], [0, 0]],
                 [[1, 0], [0, 1], [0.5, 0.2], [0.2, -0.3]]],
    "window": 6.283185307179586, "grid": 384}

# the operator of test_spectrum::test_eigenvalues_of_probe_blind_operator
_BUMP = [0.0, 0.0, 37.5, -312.5, 875.0, -1000.0, 400.0]
SPECTRUM_BLIND_DOC = {
    "schema": "floerss/1", "kind": "spectrum", "n": 1,
    "sigma": {"poly": [[[0.0, 0.4], [0.4, 0.0]]]
                      + [[[c, 0.0], [0.0, 0.0]] for c in _BUMP[1:]]},
    "boundary": [[[1], [0]], [[0.955336489125606], [0.29552020666133955]]],
    "window": 6.283185307179586, "grid": 384}

# stdout of `floerss spectrum --json` on the two documents above, recorded
# from the locator that bisects the Souriau passage counts of the Chebyshev
# interpolant of rho -> Psi_{sigma+rho}(1) L0
SPECTRUM_POLY_JSON = (
    '{"eigenvalues": [{"multiplicity": 1, "rho": -6.233022279265266}, '
    '{"multiplicity": 1, "rho": -3.4440185287080665}, '
    '{"multiplicity": 1, "rho": -3.1011316047504156}, '
    '{"multiplicity": 1, "rho": -0.10555820379526942}, '
    '{"multiplicity": 1, "rho": 0.05374792622258087}, '
    '{"multiplicity": 1, "rho": 2.8650785608565004}, '
    '{"multiplicity": 1, "rho": 3.2102150861152676}, '
    '{"multiplicity": 1, "rho": 5.999269254681149}], '
    '"gap": 0.05374792622258087, "kernel_dim": 0, "kind": "spectrum", '
    '"window": [-6.283185307179586, 6.283185307179586]}\n')
SPECTRUM_BLIND_JSON = (
    '{"eigenvalues": [{"multiplicity": 1, "rho": -5.94067994736704}, '
    '{"multiplicity": 1, "rho": -2.7341007432303783}, '
    '{"multiplicity": 1, "rho": 0.2839473628464483}, '
    '{"multiplicity": 1, "rho": 3.5980479795329545}], '
    '"gap": 0.2839473628464483, "kernel_dim": 0, "kind": "spectrum", '
    '"window": [-6.283185307179586, 6.283185307179586]}\n')

# the same stdout from the locator that bisected the Souriau passage counts
# on the flows themselves, a coarse-step scan and a re-bisection at
# ode_step; its floats differ from the ones above by less than 1e-8
SPECTRUM_POLY_JSON_PASSAGES = (
    '{"eigenvalues": [{"multiplicity": 1, "rho": -6.233022274418772}, '
    '{"multiplicity": 1, "rho": -3.444018526165836}, '
    '{"multiplicity": 1, "rho": -3.1011316063179075}, '
    '{"multiplicity": 1, "rho": -0.10555820228835211}, '
    '{"multiplicity": 1, "rho": 0.053747927269635454}, '
    '{"multiplicity": 1, "rho": 2.8650785567084576}, '
    '{"multiplicity": 1, "rho": 3.210215082626731}, '
    '{"multiplicity": 1, "rho": 5.999269261195883}], '
    '"gap": 0.053747927269635454, "kernel_dim": 0, "kind": "spectrum", '
    '"window": [-6.283185307179586, 6.283185307179586]}\n')
SPECTRUM_BLIND_JSON_PASSAGES = (
    '{"eigenvalues": [{"multiplicity": 1, "rho": -5.9406799492047355}, '
    '{"multiplicity": 1, "rho": -2.7341007427025312}, '
    '{"multiplicity": 1, "rho": 0.28394735665860965}, '
    '{"multiplicity": 1, "rho": 3.5980479826956273}], '
    '"gap": 0.28394735665860965, "kernel_dim": 0, "kind": "spectrum", '
    '"window": [-6.283185307179586, 6.283185307179586]}\n')

# the same stdout from the earlier locator (golden-section refinement of the
# minima of the smallest principal-angle sine); its floats differ from the
# ones above by less than the refinement tolerance 1e-8
SPECTRUM_POLY_JSON_GOLDEN = (
    '{"eigenvalues": [{"multiplicity": 1, "rho": -6.233022275526093}, '
    '{"multiplicity": 1, "rho": -3.4440185289691216}, '
    '{"multiplicity": 1, "rho": -3.1011316038338244}, '
    '{"multiplicity": 1, "rho": -0.10555819899639238}, '
    '{"multiplicity": 1, "rho": 0.05374792785444242}, '
    '{"multiplicity": 1, "rho": 2.86507855612438}, '
    '{"multiplicity": 1, "rho": 3.210215085681858}, '
    '{"multiplicity": 1, "rho": 5.9992692585991145}], '
    '"gap": 0.05374792785444242, "kernel_dim": 0, "kind": "spectrum", '
    '"window": [-6.283185307179586, 6.283185307179586]}\n')
SPECTRUM_BLIND_JSON_GOLDEN = (
    '{"eigenvalues": [{"multiplicity": 1, "rho": -5.940679950439206}, '
    '{"multiplicity": 1, "rho": -2.73410074108981}, '
    '{"multiplicity": 1, "rho": 0.28394736222420147}, '
    '{"multiplicity": 1, "rho": 3.5980479814831416}], '
    '"gap": 0.28394736222420147, "kernel_dim": 0, "kind": "spectrum", '
    '"window": [-6.283185307179586, 6.283185307179586]}\n')


def test_spectrum_output_is_unchanged(tmp_path, capsys):
    for name, doc, want, olds in (
            ("poly", SPECTRUM_POLY_DOC, SPECTRUM_POLY_JSON,
             (SPECTRUM_POLY_JSON_PASSAGES, SPECTRUM_POLY_JSON_GOLDEN)),
            ("blind", SPECTRUM_BLIND_DOC, SPECTRUM_BLIND_JSON,
             (SPECTRUM_BLIND_JSON_PASSAGES, SPECTRUM_BLIND_JSON_GOLDEN))):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(doc))
        assert run_cli(["spectrum", str(p), "--json"], capsys) == (0, want, ""), name
        new = json.loads(want)
        for old in map(json.loads, olds):
            assert new["window"] == old["window"], name
            assert new["kernel_dim"] == old["kernel_dim"], name
            assert ([e["multiplicity"] for e in new["eigenvalues"]]
                    == [e["multiplicity"] for e in old["eigenvalues"]]), name
            for e, f in zip(new["eigenvalues"], old["eigenvalues"]):
                assert abs(e["rho"] - f["rho"]) < 1e-8, name
            assert abs(new["gap"] - old["gap"]) < 1e-8, name


# an n = 4 operator: sigma(t) = S0 + t S1 on R^8, L0 = R^4 x 0 and L1 the
# graph of a symmetric B
_S0 = [[1.0, 0.0, 0.5, -0.4, -0.55, -0.2, -0.65, 0.15],
       [0.0, -0.5, 0.1, -0.55, -0.75, -0.5, -0.2, -0.35],
       [0.5, 0.1, 0.5, 0.4, 0.15, 0.15, 0.4, -0.05],
       [-0.4, -0.55, 0.4, 0.1, -0.3, 0.35, -0.05, -0.3],
       [-0.55, -0.75, 0.15, -0.3, -0.3, -0.1, -0.7, 0.25],
       [-0.2, -0.5, 0.15, 0.35, -0.1, -0.2, -0.35, 0.4],
       [-0.65, -0.2, 0.4, -0.05, -0.7, -0.35, -0.9, -0.4],
       [0.15, -0.35, -0.05, -0.3, 0.25, 0.4, -0.4, -0.7]]
_S1 = [[0.4, -0.3, 0.25, 0.1, 0.0, 0.05, -0.25, 0.15],
       [-0.3, -0.3, -0.1, -0.2, -0.1, -0.1, 0.1, 0.1],
       [0.25, -0.1, -0.5, -0.25, 0.05, 0.15, -0.4, -0.3],
       [0.1, -0.2, -0.25, 0.5, -0.1, -0.2, -0.15, -0.25],
       [0.0, -0.1, 0.05, -0.1, 0.2, 0.1, -0.25, -0.4],
       [0.05, -0.1, 0.15, -0.2, 0.1, 0.5, -0.2, -0.45],
       [-0.25, 0.1, -0.4, -0.15, -0.25, -0.2, -0.3, -0.3],
       [0.15, 0.1, -0.3, -0.25, -0.4, -0.45, -0.3, -0.3]]
_B4 = [[0.4, 0.2, -0.35, -0.1],
       [0.2, -0.7, -0.75, -0.25],
       [-0.35, -0.75, 0.2, -0.4],
       [-0.1, -0.25, -0.4, -0.1]]
SPECTRUM_N4_DOC = {
    "schema": "floerss/1", "kind": "spectrum", "n": 4,
    "sigma": {"poly": [_S0, _S1]},
    "boundary": [np.eye(8, 4).tolist(), np.vstack([np.eye(4), _B4]).tolist()],
    "window": 6.283185307179586, "grid": 384}
# stdout of `floerss spectrum --json` on it, recorded from the flow passes
# that took one RK4 step map at a time
SPECTRUM_N4_JSON = (
    '{"eigenvalues": [{"multiplicity": 1, "rho": -6.22534203737141}, '
    '{"multiplicity": 1, "rho": -5.488863909160265}, '
    '{"multiplicity": 1, "rho": -3.660603043198636}, '
    '{"multiplicity": 1, "rho": -3.6384112547301424}, '
    '{"multiplicity": 1, "rho": -3.156608150085493}, '
    '{"multiplicity": 1, "rho": -2.5225616342383432}, '
    '{"multiplicity": 1, "rho": -1.3967418798371143}, '
    '{"multiplicity": 1, "rho": -0.6990570075360266}, '
    '{"multiplicity": 1, "rho": -0.4738757700355337}, '
    '{"multiplicity": 1, "rho": 1.1212334360026586}, '
    '{"multiplicity": 1, "rho": 2.5703570248186827}, '
    '{"multiplicity": 1, "rho": 3.2633044378274807}, '
    '{"multiplicity": 1, "rho": 3.6806861230309513}, '
    '{"multiplicity": 1, "rho": 4.323004781327943}, '
    '{"multiplicity": 1, "rho": 5.742022194866638}], '
    '"gap": 0.4738757700355337, "kernel_dim": 0, '
    '"kind": "spectrum", '
    '"window": [-6.283185307179586, 6.283185307179586]}\n')


def test_spectrum_n4_output_is_unchanged(tmp_path, capsys):
    # d = 8, the largest flows of the benchmark: the shifted flow's pair
    # maps and its one pass for nodes and oracle leave stdout byte-identical
    p = tmp_path / "n4.json"
    p.write_text(json.dumps(SPECTRUM_N4_DOC))
    assert (run_cli(["spectrum", str(p), "--json"], capsys)
            == (0, SPECTRUM_N4_JSON, ""))


# a sampled n = 2 path with a good middle sample and the refusals of bad
# ones, recorded from the parser that validated one sample at a time
_SAMPLE_MID = [[C, 0], [0, 1], [0.5, 0], [0, 0]]
SAMPLED_DOC = {
    "schema": "floerss/1", "kind": "rs_index", "grid": 64,
    "F0": {"type": "sampled", "interval": [0, 1],
           "samples": [
               {"s": 0.0, "frame": [[1, 0], [0, 1], [0, 0], [0, 0]]},
               {"s": 0.5, "frame": _SAMPLE_MID},
               {"s": 1.0, "frame": [[0.5, 0], [0, 1], [C, 0], [0, 0]]}]},
    "F1": {"type": "constant", "interval": [0, 1],
           "frame": [[0, 0], [0, 1], [1, 0], [0, 0]]}}
BAD_SAMPLES = [
    ({"s": 0.5, "frame": [[1, 0], [0, 0], [0, 1], [0, 0]]}, 1,
     '{"error": "NotIsotropic", "max_pairing": 1.0, '
     '"message": "max |omega(col_i, col_j)| = 1.000e+00"}\n'),
    ({"s": 0.5, "frame": [[1, 1], [0, 0], [0, 0], [0, 0]]}, 1,
     '{"error": "NotFullRank", '
     '"message": "smallest column pivot 0.000e+00 below tolerance", '
     '"smallest_pivot": 0.0}\n'),
    ({"s": 0.5, "frame": [[1, 0], [0, 1], [0, 0]]}, 1,
     '{"error": "DimensionMismatch", '
     '"message": "expected a 2n x n matrix, got shape (3, 2)"}\n'),
    ({"s": 0.5, "frame": [[1, 0], [0, 1], [0, float("inf")], [0, 0]]}, 2,
     '{"error": "SchemaError", '
     '"message": "F0: expected a nonempty matrix of finite numbers", '
     '"path": "F0"}\n'),
    ({"s": "half", "frame": _SAMPLE_MID}, 2,
     '{"error": "SchemaError", '
     '"message": "malformed input in parse_path: ValueError: '
     'could not convert string to float: \'half\'"}\n'),
    ({"s": 0.5, "frame": [[1], [0]]}, 2,
     '{"error": "SchemaError", '
     '"message": "malformed input in parse_path: ValueError: '
     'all input arrays must have the same shape"}\n'),
    ({"s": 0.5, "frame": [[1, 0], [0, 1], [0], [0, 0]]}, 2,
     '{"error": "SchemaError", '
     '"message": "F0: expected a numeric matrix", "path": "F0"}\n'),
]


@pytest.mark.parametrize("sample, code, err", BAD_SAMPLES)
def test_sampled_path_with_one_bad_sample(tmp_path, capsys, sample, code, err):
    # the frames are validated as one stack; a bad sample still gets the
    # refusal that its own parse gave
    doc = copy.deepcopy(SAMPLED_DOC)
    doc["F0"]["samples"][1] = sample
    p = tmp_path / "sampled.json"
    p.write_text(json.dumps(doc))
    assert run_cli(["rs-index", str(p), "--json"], capsys) == (code, "", err)
    doc["F0"]["samples"][1]["frame"] = _SAMPLE_MID
    doc["F0"]["samples"][1]["s"] = 0.5
    p.write_text(json.dumps(doc))
    assert run_cli(["rs-index", str(p), "--json"], capsys)[0] == 0


def test_spectrum_window_cap(tmp_path, capsys, monkeypatch):
    # a window that needs more than 2^10 interpolation nodes is refused
    # before any flow pass
    from floerss import symplin as sl

    def no_pass(*args, **kwargs):
        raise AssertionError("a flow pass ran")

    monkeypatch.setattr(sl, "_rk4", no_pass)
    p = tmp_path / "poly.json"
    p.write_text(json.dumps(SPECTRUM_POLY_DOC))
    code, out, err = run_cli(["spectrum", str(p), "--window", "1e4", "--json"],
                             capsys)
    assert (code, out) == (1, "")
    refusal = json.loads(err)
    assert refusal["error"] == "GridTooCoarse" and refusal["nodes"] > 2 ** 10


def test_pozniak_and_quantum_commands(tmp_path, capsys):
    doc = {"schema": "floerss/1", "kind": "intersection", "N": 4,
           "components": [{"name": "C", "dim": 1, "betti": [1, 1]}]}
    p = tmp_path / "poz.json"
    p.write_text(json.dumps(doc))
    code, out, _ = run_cli(["pozniak", str(p), "--json"], capsys)
    assert code == 0
    assert json.loads(out)["hf_betti"] == {"0": 1, "1": 1}

    doc2 = {"schema": "floerss/1", "kind": "intersection", "N": 4, "period": 2,
            "components": [
                {"name": "C", "dim": 0, "mu": 0, "action_rank": 1},
                {"name": "P", "dim": 0, "betti": [1], "mu": 2,
                 "action_rank": 2}]}
    p2 = tmp_path / "quantum.json"
    p2.write_text(json.dumps(doc2))
    code, out, _ = run_cli(["quantum-cases", str(p2), "--json"], capsys)
    assert code == 0
    assert json.loads(out)["profiles"] == [{"dim": 0, "betti": [1]}]


def test_morse_command(tmp_path, capsys):
    doc = {"schema": "floerss/1", "kind": "morse", "ring": "Z",
           "critical_points": [{"name": "min", "index": 0},
                               {"name": "max", "index": 1}],
           "trajectories": [{"from": "max", "to": "min", "sign": 1},
                            {"from": "max", "to": "min", "sign": -1}]}
    p = tmp_path / "circle.json"
    p.write_text(json.dumps(doc))
    code, out, _ = run_cli(["morse", str(p), "--json"], capsys)
    assert code == 0
    rep = json.loads(out)["by_degree"]
    assert rep["0"]["free_rank"] == 1 and rep["2"]["free_rank"] == 1


def test_benchmark_tracer_binds_every_layer():
    # the traced benchmark wraps the layers' public names by string;
    # installing it (every traced module is imported with floerss.cli)
    # fails if one of them is renamed or removed
    import pathlib
    from floerss import symplin as sl
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        from tracing import Tracer
    finally:
        sys.path.pop(0)
    tracer = Tracer("floerss")
    original = sl.fundamental_solution
    tracer.install()
    try:
        assert sl.fundamental_solution.__wrapped__ is original
    finally:
        tracer.uninstall()
    assert sl.fundamental_solution is original


_SPEC = {"kind": "spectrum", "n": 1, "sigma": {"constant": [[0, 0], [0, 0]]},
         "boundary": [[[1], [0]], [[0.5], [C]]], "window": 2.0, "grid": 16}
_GRAPH = {"kind": "rs_index",
          "F0": {"type": "graph", "interval": [0, 1],
                 "B": {"poly": [[[-0.5]], [[1]]]}},
          "F1": {"type": "constant", "interval": [0, 1], "frame": [[1], [0]]}}
_CIRCLE = {"kind": "intersection", "N": 2,
           "components": [{"name": "C", "dim": 1, "betti": [1, 1]}]}

# inputs that escaped main with a traceback before the fuzz test below
# found them: (command, document, exit code, error)
ESCAPED = [
    ("index-formula", {"kind": "index_formula"}, 2, "SchemaError"),
    ("spectrum", dict(_SPEC, sigma={"constant": [[0, 0], [float("nan"), 0]]}),
     2, "SchemaError"),
    ("spectrum", dict(_SPEC, window=[]), 2, "SchemaError"),
    ("spectrum", dict(_SPEC, grid=-1), 1, "GridTooCoarse"),
    ("spectrum", dict(_SPEC, window=float("inf")), 1, "WindowTooSmall"),
    ("rs-index", dict(_GRAPH, grid=0), 1, "GridTooCoarse"),
    ("rs-index", dict(_GRAPH, grid=float("inf")), 2, "SchemaError"),
    ("rs-index", dict(_GRAPH, F0={"type": "rotation", "interval": [0, 1],
                                  "theta": {"poly": [float("nan"), 1]},
                                  "base": [[1], [0]]}), 2, "SchemaError"),
    ("homology", {"kind": "complex", "ring": "Z", "generators": [{"name": "a"}]},
     2, "SchemaError"),
    ("ss", dict(SS_DOC, pearl=dict(SS_DOC["pearl"], components=[2])), 2,
     "SchemaError"),
    ("pozniak", dict(_CIRCLE, components=[]), 2, "SchemaError"),
    ("pozniak", dict(_CIRCLE, components=[{"name": "C", "dim": 1}]), 2,
     "SchemaError"),
    ("displace-check", dict(_CIRCLE, N=0.5), 2, "SchemaError"),
]


@pytest.mark.parametrize("cmd,doc,code,error", ESCAPED)
def test_escaped_inputs_are_refused(tmp_path, capsys, cmd, doc, code, error):
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(dict({"schema": "floerss/1"}, **doc)))
    got, out, err = run_cli([cmd, str(p), "--json"], capsys)
    assert (got, out, json.loads(err)["error"]) == (code, "", error)



def test_fundamental_paths_leaving_the_unit_interval_are_refused(tmp_path, capsys):
    # the flow is defined on [0, 1]; past it the path was the flow clipped to
    # [0, 1], and [0, 4] (the line passes the horizontal at t = pi) read 1/2
    def doc(interval):
        return {"schema": "floerss/1", "kind": "rs_index",
                "F0": {"type": "fundamental", "interval": interval,
                       "sigma": {"constant": [[1, 0], [0, 1]]}, "base": [[1], [0]]},
                "F1": {"type": "constant", "interval": interval,
                       "frame": [[1], [0]]}}

    p = tmp_path / "fundamental.json"
    for interval in ([0, 4], [-3, 1]):
        p.write_text(json.dumps(doc(interval)))
        code, out, err = run_cli(["rs-index", str(p), "--json"], capsys)
        assert (code, out, json.loads(err)["error"]) == (2, "", "SchemaError")
    p.write_text(json.dumps(doc([0.25, 0.75])))
    assert run_cli(["rs-index", str(p)], capsys) == (0, "rs_index: 0\nvalue: 0\n", "")


# -- fuzzing the floerss/1 schemas ----------------------------------------


FUZZ_C = 0.8660254037844387
FUZZ_TEMPLATES = [
    ("spectrum", {"kind": "spectrum", "n": 1,
                  "sigma": {"constant": [[0.2, 0.0], [0.0, 0.2]]},
                  "boundary": [[[1], [0]], [[0.5], [FUZZ_C]]],
                  "window": 2.0, "grid": 16}),
    ("spectrum", {"kind": "spectrum", "n": 1,
                  "sigma": {"poly": [[[2.0, 0.0], [0.0, 2.0]], [[0.1, 0.0], [0.0, 0.0]]]},
                  "boundary": [[[1], [0]], [[1], [0]]],
                  "window": 0.5, "grid": 8}),
    ("rs-index", {"kind": "rs_index",
                  "F0": {"type": "graph", "interval": [0, 1],
                         "B": {"poly": [[[-0.5]], [[1]]]}},
                  "F1": {"type": "constant", "interval": [0, 1],
                         "frame": [[1], [0]]}, "grid": 16}),
    ("rs-index", {"kind": "rs_index",
                  "F0": {"type": "rotation", "interval": [0, 1],
                         "theta": {"poly": [0.3, 2.0]}, "base": [[1], [0]]},
                  "F1": {"type": "sampled", "interval": [0, 1],
                         "samples": [{"s": 0, "frame": [[0], [1]]},
                                     {"s": 1, "frame": [[0], [1]]}]},
                  "grid": 16}),
    ("maslov", {"kind": "maslov",
                "path": {"type": "rotation", "interval": [0, 1],
                         "theta": {"poly": [0.2, 3.141592653589793]},
                         "base": [[1], [0]]},
                "ref": [[1], [0]], "grid": 32}),
    ("viterbo", {"kind": "viterbo",
                 "F0": {"type": "rotation", "interval": [-1, 1],
                        "theta": {"poly": [0.1, 1.0]}, "base": [[1], [0]]},
                 "F1": {"type": "constant", "interval": [-1, 1],
                        "frame": [[0.5], [FUZZ_C]]},
                 "Fm": {"type": "rotation", "interval": [0, 1],
                        "theta": {"poly": [0.0, 0.4]}, "base": [[1], [0]]},
                 "Fp": {"type": "rotation", "interval": [0, 1],
                        "theta": {"poly": [0.0, -0.4]}, "base": [[1], [0]]},
                 "grid": 16}),
    ("index-formula", {"kind": "index_formula",
                       "plus": {"sigma": {"constant": [[0, 0], [0, 0]]},
                                "L0": [[1], [0]], "L1": [[0], [1]]},
                       "minus": {"sigma": {"constant": [[0, 0], [0, 0]]},
                                 "L0": [[1], [0]], "L1": [[0], [1]]},
                       "F0": {"type": "constant", "interval": [0, 1],
                              "frame": [[1], [0]]},
                       "F1": {"type": "constant", "interval": [0, 1],
                              "frame": [[0], [1]]}}),
    ("homology", {"kind": "complex", "ring": "Z",
                  "generators": [{"name": "a", "deg2": 2}, {"name": "b", "deg2": 0}],
                  "boundary": [{"from": "a", "to": "b", "coeff": 2}]}),
    ("homology", {"kind": "complex", "ring": "L2", "N": 2,
                  "generators": [{"name": "a", "deg2": 2}, {"name": "b", "deg2": 0}],
                  "boundary": [{"from": "a", "to": "b", "coeff": {"0": 1, "1": 1}}]}),
    ("morse", {"kind": "morse", "ring": "Z",
               "critical_points": [{"name": "min", "index": 0},
                                   {"name": "max", "index": 1}],
               "trajectories": [{"from": "max", "to": "min", "sign": 1},
                                {"from": "max", "to": "min", "sign": -1}]}),
    ("ss", {"kind": "ss", "filtration": "novikov", "indexing": "stretched",
            "pearl": {"context": {"tau": 1.5, "N": 2},
                      "components": [
                          {"name": "A", "dim": 0, "action": 0.0, "mu2": 0,
                           "betti": [1]},
                          {"name": "C", "dim": 0, "action": 0.4, "mu2": 2,
                           "betti": [1]}],
                      "cascades": [{"from": "A:0.0", "to": "C:0.0", "sign": 1,
                                    "maslov2": 6, "area": 2.6}],
                      "normalize": False}}),
    ("intersection", {"kind": "intersection", "N": 2,
                      "components": [{"name": "C", "dim": 1, "betti": [1, 1]}]}),
    ("displace-check", {"kind": "intersection", "N": 2,
                        "components": [{"name": "C", "dim": 1, "betti": [1, 1]}]}),
    ("pozniak", {"kind": "intersection", "N": 4,
                 "components": [{"name": "C", "dim": 1, "betti": [1, 1]}]}),
    ("quantum-cases", {"kind": "intersection", "N": 4, "period": 2,
                       "components": [
                           {"name": "C", "dim": 0, "mu": 0, "action_rank": 1},
                           {"name": "P", "dim": 0, "betti": [1], "mu": 2,
                            "action_rank": 2}]}),
]

# replacement values: small numbers only, so no mutation asks for a large grid,
# window, rank or complex
FUZZ_ATOMS = [None, True, False, 0, 1, -1, 2, 3, 0.5, -2.5, float("nan"),
              float("inf"), "", "x", "Z2", "novikov", [], [0], [[0]],
              [[1], [0]], {}, {"poly": [0, 1]}, {"constant": [[0, 0], [0, 0]]}]


def _paths(x, prefix=()):
    yield prefix
    if isinstance(x, dict):
        for k, v in x.items():
            yield from _paths(v, prefix + (k,))
    elif isinstance(x, list):
        for i, v in enumerate(x):
            yield from _paths(v, prefix + (i,))


DELETE = object()


def _mutate(doc, path, value):
    """doc with the entry at path replaced by value, or deleted for DELETE."""
    if not path:
        return doc if value is DELETE else copy.deepcopy(value)
    out = copy.deepcopy(doc)
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = copy.deepcopy(value)
    return out


@st.composite
def fuzz_jobs(draw):
    cmd, body = draw(st.sampled_from(FUZZ_TEMPLATES))
    doc = dict({"schema": "floerss/1"}, **body)
    for _ in range(draw(st.integers(0, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        doc = _mutate(doc, path, draw(st.sampled_from(FUZZ_ATOMS + [DELETE])))
    as_json = draw(st.booleans())
    return cmd, doc, as_json


def _run_quiet(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_contract(code, out, err):
    """Exit 0, 1 or 2; a refusal is one JSON object on stderr and nothing on
    stdout; an answer is something on stdout and nothing on stderr."""
    assert code in (0, 1, 2)
    if code:
        assert out == ""
        assert isinstance(json.loads(err), dict) and "error" in json.loads(err)
    else:
        assert err == "" and out


# a rotation path whose theta polynomial has no coefficients
EMPTY_THETA = _mutate(dict({"schema": "floerss/1"}, **FUZZ_TEMPLATES[3][1]),
                      ("F0", "theta", "poly"), [])


@settings(max_examples=200, deadline=None)
@given(fuzz_jobs())
@example(("rs-index", EMPTY_THETA, False))
def test_cli_contract_on_fuzzed_inputs(job):
    # the contract of _assert_contract; two runs print the same bytes; no
    # exception escapes main
    cmd, doc, as_json = job
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "doc.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        argv = [cmd, path] + (["--json"] if as_json else [])
        first = _run_quiet(argv)
        assert _run_quiet(argv) == first
    _assert_contract(*first)


def test_cli_contract_on_every_single_mutation():
    # every template with one entry replaced by each atom, or deleted, runs
    # once through its command and once through validate under the contract
    # of the fuzzed test
    runs = 0
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "doc.json")
        for cmd, body in FUZZ_TEMPLATES:
            doc = dict({"schema": "floerss/1"}, **body)
            for where in _paths(doc):
                for value in FUZZ_ATOMS + [DELETE]:
                    with open(path, "w") as fh:
                        json.dump(_mutate(doc, where, value), fh)
                    for c in (cmd, "validate"):
                        try:
                            _assert_contract(*_run_quiet([c, path]))
                        except Exception as exc:
                            raise AssertionError((c, where, value)) from exc
                        runs += 1
    assert runs > 18000


def test_validate_accepts_every_template(tmp_path, capsys):
    # validate parses each kind with its commands' own parse code, which
    # refuses the ungraded L2 complex as homology does
    p = tmp_path / "doc.json"
    for _, body in FUZZ_TEMPLATES:
        p.write_text(json.dumps(dict({"schema": "floerss/1"}, **body)))
        code, out, err = run_cli(["validate", str(p), "--json"], capsys)
        if body.get("ring") == "L2":
            assert (code, json.loads(err)["error"]) == (1, "NotAComplex")
            continue
        assert (code, err) == (0, "")
        assert json.loads(out)["validated_kind"] == body["kind"]


_MORSE = FUZZ_TEMPLATES[9][1]

# refused at parse time, by the command and by validate: an empty graph or
# sigma polynomial (before, only the parsers' catch-all refused them, with
# no path), a ring that no complex has (before, an UnsupportedRing domain
# error), and an ss filtration, indexing or lambda_window that is not one
# of its choices (before, validate accepted them all, and ss printed the
# plain pages or the default window): (command, document, payload keys)
PARSE_REFUSALS = [
    ("rs-index", _mutate(_GRAPH, ("F0", "B", "poly"), []), {"path": "F0"}),
    ("spectrum", dict(_SPEC, sigma={"poly": []}), {"path": "operator"}),
    ("morse", dict(_MORSE, ring="Q"), {"found": "Q"}),
    ("morse", dict(_MORSE, ring=[]), {"found": []}),
    ("ss", dict(SS_DOC, filtration="novikof"), {"found": "novikof"}),
    ("ss", dict(SS_DOC, indexing="strechted"), {"found": "strechted"}),
    ("ss", dict(SS_DOC, indexing=["stretched"]), {"found": ["stretched"]}),
] + [("ss", dict(SS_DOC, lambda_window=w), {"found": w})
     for w in ([], 0, {}, [-9.5, 9], [-9, 9, 1], [True, 9], "-9", [[-9], 9])]


def test_ss_accepts_its_choices(tmp_path, capsys):
    # every filtration and indexing, and a null or integer lambda_window,
    # is answered by ss and accepted by validate; a null window is the
    # default window
    p = tmp_path / "doc.json"
    outs = []
    for change in ({}, {"lambda_window": None}, {"indexing": "plain"},
                   {"lambda_window": [-20, 20]}, {"filtration": "action"}):
        p.write_text(json.dumps(dict(SS_DOC, **change)))
        code, out, err = run_cli(["ss", str(p), "--json"], capsys)
        assert (code, err) == (0, ""), change
        outs.append(out)
        assert run_cli(["validate", str(p)], capsys)[0] == 0
    assert outs[0] == outs[1]


@pytest.mark.parametrize("cmd,doc,payload", PARSE_REFUSALS)
def test_parse_time_refusals(tmp_path, capsys, cmd, doc, payload):
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(dict({"schema": "floerss/1"}, **doc)))
    for c in (cmd, "validate"):
        code, out, err = run_cli([c, str(p), "--json"], capsys)
        got = json.loads(err)
        assert (code, out, got["error"]) == (2, "", "SchemaError")
        assert {k: got.get(k) for k in payload} == payload


# -- index commands ------------------------------------------------------------

_H2 = [[1, 0], [0, 1], [0, 0], [0, 0]]
INDEX_DOCS = {
    "graph": ("rs-index", {
        "kind": "rs_index", "grid": 96,
        "F0": {"type": "graph", "interval": [0, 1],
               "B": {"poly": [[[0.0, 0.0], [0.0, 0.3]],
                              [[1.0, 0.2], [0.2, -0.8]]]}},
        "F1": {"type": "constant", "interval": [0, 1], "frame": _H2}}),
    "rotation": ("rs-index", {
        "kind": "rs_index", "grid": 128,
        "F0": {"type": "rotation", "interval": [0, 2],
               "theta": {"poly": [0.3, 2.0, -0.4]},
               "base": [[1, 0], [0, C], [0, 0], [0, 0.5]]},
        "F1": {"type": "constant", "interval": [0, 2], "frame": _H2}}),
    "sampled": ("rs-index", {
        "kind": "rs_index", "grid": 96,
        "F0": {"type": "sampled", "interval": [0, 1],
               "samples": [{"s": 0.0, "frame": [[0.98], [0.2]]},
                           {"s": 0.25, "frame": [[0.76], [-0.64]]},
                           {"s": 0.5, "frame": [[-0.03], [-1.0]]},
                           {"s": 0.75, "frame": [[-0.8], [-0.6]]},
                           {"s": 1.0, "frame": [[-0.97], [0.26]]}]},
        "F1": {"type": "constant", "interval": [0, 1], "frame": [[1], [0]]}}),
    "fundamental": ("rs-index", {
        "kind": "rs_index", "grid": 128,
        "F0": {"type": "fundamental", "interval": [0, 1],
               "sigma": {"poly": [[[2.0, 0.1], [0.1, 2.5]],
                                  [[1.5, 0.0], [0.0, 1.0]]]},
               "base": [[1], [0]]},
        "F1": {"type": "constant", "interval": [0, 1], "frame": [[C], [0.5]]}}),
    "viterbo": ("viterbo", {
        "kind": "viterbo", "grid": 96,
        "F0": {"type": "rotation", "interval": [-1, 1],
               "theta": {"poly": [0.1, 2.0]}, "base": [[1], [0]]},
        "F1": {"type": "constant", "interval": [-1, 1], "frame": [[0.5], [C]]},
        "Fm": {"type": "rotation", "interval": [0, 1],
               "theta": {"poly": [-1.9, -0.5]}, "base": [[1], [0]]},
        "Fp": {"type": "rotation", "interval": [0, 1],
               "theta": {"poly": [2.1, -1.5]}, "base": [[1], [0]]}}),
    "maslov": ("maslov", {
        "kind": "maslov", "grid": 256,
        "path": {"type": "rotation", "interval": [0, 1],
                 "theta": {"poly": [0.2, 6.283185307179586]}, "base": _H2},
        "ref": [[C, 0], [0, 1], [0.5, 0], [0, 0]]}),
    "index-formula": ("index-formula", {
        "kind": "index_formula",
        "plus": {"sigma": {"constant": [[1.2, 0], [0, 1.2]]},
                 "L0": [[1], [0]], "L1": [[1], [0]]},
        "minus": {"sigma": {"poly": [[[0.4, 0], [0, 0.4]], [[0.6, 0], [0, 0.6]]]},
                  "L0": [[1], [0]], "L1": [[1], [0]]},
        "F0": {"type": "constant", "interval": [0, 1], "frame": [[1], [0]]},
        "F1": {"type": "rotation", "interval": [0, 1],
               "theta": {"poly": [0.0, 3.141592653589793]}, "base": [[1], [0]]}}),
    # n = 3 flow of a degree-2 sigma
    "fundamental-n3": ("rs-index", {
        "kind": "rs_index", "grid": 128,
        "F0": {"type": "fundamental", "interval": [0, 1],
               "sigma": {"poly": [
                   [[2.0, 0.3, 0, 0.1, 0, 0], [0.3, 1.5, 0, 0, 0, 0],
                    [0, 0, 3.0, 0, 0, 0.2], [0.1, 0, 0, 2.5, 0, 0],
                    [0, 0, 0, 0, 1.0, 0], [0, 0, 0.2, 0, 0, 2.0]],
                   np.diag([1.0, -0.5, 0.8, 0.6, 1.2, -0.4]).tolist(),
                   np.diag([0.5, 0.3, -0.6, 0.4, 0.2, 0.7]).tolist()]},
               "base": [[1, 0, 0], [0, C, 0], [0, 0, 0], [0, 0, 0], [0, 0.5, 0],
                        [0, 0, 1]]},
        "F1": {"type": "constant", "interval": [0, 1],
               "frame": [[C, 0, 0], [0, 1, 0], [0, 0, 1], [0.5, 0, 0], [0, 0, 0],
                         [0, 0, 0]]}}),
    # the flow of sigma = O diag(c, c) O^T, rates c(t) = (1.5 + t) pi (1, -2),
    # O the rotation by pi/6: the diagonal loop diag(e^{2 pi i t}, e^{-4 pi i t})
    # in the frame O, Maslov index 2 (1 - 2)
    "maslov-diagonal": ("maslov", {
        "kind": "maslov", "grid": 384,
        "path": {"type": "fundamental", "interval": [0, 1],
                 "sigma": {"poly": [
                     [[1.1780972450961729, 6.121572854290485, 0.0, 0.0],
                      [6.121572854290485, -5.8904862254808625, 0.0, 0.0],
                      [0.0, 0.0, 1.1780972450961729, 6.121572854290485],
                      [0.0, 0.0, 6.121572854290485, -5.8904862254808625]],
                     [[0.7853981633974487, 4.08104856952699, 0.0, 0.0],
                      [4.08104856952699, -3.9269908169872423, 0.0, 0.0],
                      [0.0, 0.0, 0.7853981633974487, 4.08104856952699],
                      [0.0, 0.0, 4.08104856952699, -3.9269908169872423]]]},
                 "base": [[0.7976622192414451, -0.22679806071278866],
                          [0.46053049700144255, 0.39282576421264087],
                          [0.33724617713891586, -0.4456036800307177],
                          [0.19470917115432526, 0.7718082138528682]]},
        "ref": [[-0.27997697768226176, -0.477668244562803],
                [-0.16164478343175168, 0.8273456687450109],
                [0.8195199155407429, -0.14776010333066977],
                [0.47315004384370724, 0.25592800630034734]]}),
}

# stdout of the documents above, text and --json, recorded from the
# crossing-form engine (golden-section refinement of principal-angle minima);
# the n = 3 and diagonal-loop rows from the Souriau winding over a flow kept
# one RK4 step at a time
INDEX_STDOUT = {
    "graph": (
        'rs_index: -1/2\nvalue: -0.5\n',
        '{"kind": "rs_index", "rs_index": {"den": 2, "num": -1}, "value": -0.5}\n'),
    "rotation": (
        'rs_index: 1\nvalue: 1\n',
        '{"kind": "rs_index", "rs_index": {"den": 1, "num": 1}, "value": 1.0}\n'),
    "sampled": (
        'rs_index: -1\nvalue: -1\n',
        '{"kind": "rs_index", "rs_index": {"den": 1, "num": -1}, "value": -1.0}\n'),
    "fundamental": (
        'rs_index: 1\nvalue: 1\n',
        '{"kind": "rs_index", "rs_index": {"den": 1, "num": 1}, "value": 1.0}\n'),
    "viterbo": (
        'value: 1\nviterbo_index: 1\n',
        '{"kind": "viterbo", "value": 1.0, "viterbo_index": {"den": 1, "num": 1}}\n'),
    "maslov": (
        'maslov: 4\n',
        '{"kind": "maslov", "maslov": 4}\n'),
    "index-formula": (
        'index: -1\n',
        '{"index": -1, "kind": "index_formula"}\n'),
    "fundamental-n3": (
        'rs_index: 2\nvalue: 2\n',
        '{"kind": "rs_index", "rs_index": {"den": 1, "num": 2}, "value": 2.0}\n'),
    "maslov-diagonal": (
        'maslov: -2\n',
        '{"kind": "maslov", "maslov": -2}\n'),
}


def test_index_commands_output_is_unchanged(tmp_path, capsys):
    for name, (cmd, doc) in INDEX_DOCS.items():
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(dict({"schema": "floerss/1"}, **doc)))
        for flags, want in zip(([], ["--json"]), INDEX_STDOUT[name]):
            assert run_cli([cmd, str(p)] + flags, capsys) == (0, want, ""), name


# a surface C of unknown Betti numbers next to a known point P
_QUANTUM = {"kind": "intersection", "N": 2, "period": 1, "components": [
    {"name": "C", "dim": 2, "mu": 0, "action_rank": 1},
    {"name": "P", "dim": 0, "betti": [1], "mu": 1, "action_rank": 2}]}

ZERO_FLAGS = [
    ("rs-index", INDEX_DOCS["graph"][1], "--grid", "GridTooCoarse"),
    ("maslov", INDEX_DOCS["maslov"][1], "--grid", "GridTooCoarse"),
    ("viterbo", INDEX_DOCS["viterbo"][1], "--grid", "GridTooCoarse"),
    ("spectrum", _SPEC, "--grid", "GridTooCoarse"),
    ("spectrum", _SPEC, "--window", "WindowTooSmall"),
    ("ss", dict(SS_DOC, lambda_window=[-9, 9]), "--lambda-window",
     "WindowTooNarrow"),
    ("quantum-cases", _QUANTUM, "--max-rank", "HypothesisNotMet"),
    ("quantum-cases", _QUANTUM, "--quantum-period", "HypothesisNotMet"),
]


@pytest.mark.parametrize("cmd,doc,flag,error", ZERO_FLAGS)
def test_zero_flags_reach_the_library(tmp_path, capsys, cmd, doc, flag, error):
    # a flag of 0 overrides the document's value and is refused like any
    # other bad value, rather than falling back to the document
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(dict({"schema": "floerss/1"}, **doc)))
    got, out, err = run_cli([cmd, str(p), "--json", flag, "0"], capsys)
    assert (got, out, json.loads(err)["error"]) == (1, "", error)


@pytest.mark.parametrize("cmd", ["intersection", "quantum-cases"])
def test_document_period_zero_is_refused(tmp_path, capsys, cmd):
    # a period of 0 in the document is refused like --quantum-period 0; it
    # used to read as no period at all
    doc = {"schema": "floerss/1", "kind": "intersection", "N": 2, "period": 0,
           "components": [{"name": "C", "dim": 1, "betti": [1, 1]}]}
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(doc))
    got, out, err = run_cli([cmd, str(p), "--json"], capsys)
    assert (got, out, json.loads(err)["error"]) == (1, "", "HypothesisNotMet")


def test_successive_calls_see_only_their_own_flags(tmp_path, capsys):
    # the parser is built once per process; a flag of one call must not
    # reach the next
    cmd, doc = INDEX_DOCS["graph"]
    p = tmp_path / "graph.json"
    p.write_text(json.dumps(dict({"schema": "floerss/1"}, **doc)))
    got, out, err = run_cli([cmd, str(p), "--grid", "0"], capsys)
    assert (got, out, json.loads(err)["error"]) == (1, "", "GridTooCoarse")
    assert run_cli([cmd, str(p)], capsys) == (0, INDEX_STDOUT["graph"][0], "")
    assert run_cli([cmd, str(p), "--json"], capsys) == (
        0, INDEX_STDOUT["graph"][1], "")
    assert run_cli([cmd, str(p)], capsys) == (0, INDEX_STDOUT["graph"][0], "")


def test_asymmetric_graph_coefficients_are_refused(tmp_path, capsys):
    # the graph of B(s) needs B(s) symmetric; a B coefficient that is not
    # used to be replaced by its symmetric part (rs_index 1, exit 0), while
    # an asymmetric sigma is refused
    def doc(c0):
        return {"schema": "floerss/1", "kind": "rs_index", "grid": 64,
                "F0": {"type": "graph", "interval": [0, 1],
                       "B": {"poly": [c0, [[1.0, 0.0], [0.0, 0.0]]]}},
                "F1": {"type": "constant", "interval": [0, 1], "frame": _H2}}

    p = tmp_path / "graph.json"
    p.write_text(json.dumps(doc([[-0.5, 3.0], [-3.0, 0.2]])))
    code, out, err = run_cli(["rs-index", str(p), "--json"], capsys)
    assert (code, out, json.loads(err)["error"]) == (1, "", "NotSymmetric")
    # asymmetry within the frame tolerance is accepted and symmetrized
    p.write_text(json.dumps(doc([[-0.5, 3.0], [3.0 + 1e-12, 0.2]])))
    code, out, err = run_cli(["rs-index", str(p)], capsys)
    assert (code, err) == (0, "") and out.startswith("rs_index: ")
