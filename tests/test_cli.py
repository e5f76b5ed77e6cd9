import json
import subprocess
import sys

import numpy as np
import pytest

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
