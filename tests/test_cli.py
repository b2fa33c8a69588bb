"""Command line interface, exercised in-process through main()."""

import json
import math

import numpy as np
import pytest

from blockjacobi import gamma_continuous, gamma_simplified, BoundParams, GapInterval
from blockjacobi.cli import main


def cli(capsys, *args):
    code = main(list(args))
    return code, capsys.readouterr().out


def test_spectrum_json(capsys):
    code, out = cli(capsys, "spectrum", "--operator", "example2:x=3", "--n", "20")
    assert code == 0
    data = json.loads(out)
    assert data["method"] == "truncation"
    assert len(data["eigenvalues"]) == 40


def test_spectrum_csv(tmp_path, capsys):
    path = tmp_path / "spec.csv"
    code, _ = cli(capsys, "spectrum", "--operator", "example2:x=3", "--n", "10",
                  "--format", "csv", "--out", str(path))
    assert code == 0
    lines = path.read_text().splitlines()
    assert lines[1] == "index,eigenvalue"
    assert len(lines) == 2 + 20


def test_gap_symbol(capsys):
    code, out = cli(capsys, "gap", "--operator", "example2:x=3",
                    "--source", "symbol", "--grid", "1024", "--tol", "0.2")
    assert code == 0
    data = json.loads(out)
    assert data["gaps"][0] == pytest.approx([-1.0, 1.0], abs=1e-8)
    assert data["band_edges"] == pytest.approx([-5, -1, 1, 5], abs=1e-8)


@pytest.mark.parametrize("command", ["gap", "spectrum"])
def test_symbol_source_refuses_a_growing_tail(capsys, command):
    # the symbol of one block past the prefix would show bands [-2, 2]; the
    # example-3 tail is neither constant nor 2-periodic, as resolve_gap says
    code = main([command, "--operator", "example3:x=0,alpha=0.75,c1=0,c2=1",
                 "--source", "symbol"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert "ParameterError: symbol gap source needs constant or 2-periodic" in captured.err


def test_green_norms(capsys):
    code, out = cli(capsys, "green", "--operator", "example2:x=3", "--n", "40",
                    "--zeta", "0.5", "--rows", "1:10", "--cols", "1:1")
    assert code == 0
    data = json.loads(out)
    assert not data["ill_conditioned"]
    assert data["norms"]["1,1"] > data["norms"]["10,1"]


def test_bound_matches_library(capsys):
    code, out = cli(capsys, "bound", "--gap=-1,1", "--zeta", "0",
                    "--delta", "1", "--epsilon", "0.25", "--eta", "0.5")
    assert code == 0
    data = json.loads(out)
    oracle = gamma_continuous(BoundParams(1.0, 0.25, 0.5), GapInterval(-1, 1), 0.0)
    assert data["gamma"] == pytest.approx(oracle.gamma, rel=1e-12)
    assert data["branch"] == "small-imaginary"


def test_bound_auto_delta_needs_operator(capsys):
    code, _ = cli(capsys, "bound", "--gap=-1,1", "--zeta", "0", "--delta", "auto")
    assert code == 1
    # the simplified rate takes no delta: none is reported and none is needed
    code, out = cli(capsys, "bound", "--gap=-1,1", "--zeta", "0", "--delta", "auto",
                    "--variant", "simplified")
    assert code == 0
    data = json.loads(out)
    assert data["delta"] is None
    assert data["gamma"] == gamma_simplified(GapInterval(-1, 1), 0.0, 0.01).gamma


def test_verify_runs_config(tmp_path, capsys):
    cfg = {
        "operator": {"dim": 2, "family": "example2", "params": {"x": 3.0}},
        "gap": {"source": "symbol"},
        "zetas": [[0.5, 0.0]],
        "variants": ["continuous"],
        "n_blocks": 60,
        "experiments": ["green"],
    }
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(cfg))
    code, _ = cli(capsys, "verify", "--config", str(cfg_file),
                  "--out", str(tmp_path / "out"))
    assert code == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["experiments"][0]["pass"] is True


def test_example1_band_structure(capsys):
    code, out = cli(capsys, "example1", "--n", "30")
    assert code == 0
    data = json.loads(out)
    assert data["band_structure"] is True
    assert data["max_norm_beyond_band"] <= 1e-12


def test_example2_command(capsys):
    code, out = cli(capsys, "example2", "--n", "80", "--zeta", "0.5")
    assert code == 0
    data = json.loads(out)
    assert all(e["pass"] for e in data["experiments"])
    assert {e["variant"] for e in data["experiments"]} == {"continuous", "simplified"}


def test_example3_command(capsys):
    code, out = cli(capsys, "example3", "--blocks", "2000")
    assert code == 0
    data = json.loads(out)
    assert data["gap"] == pytest.approx([-1.0, 1.0])
    for entry in data["zetas"]:
        assert entry["classification"] == "secondary-hyperbolic"
        measured = complex(*entry["rho_plus_measured"])
        exact = complex(*entry["rho_plus_exact"])
        assert abs(measured - exact) <= 0.05 * max(abs(exact), 1e-12)


def test_edge_study_command(tmp_path, capsys):
    path = tmp_path / "edge.csv"
    code, _ = cli(capsys, "edge-study", "--x", "3", "--eps", "1e-3,1e-2",
                  "--n", "200", "--format", "csv", "--out", str(path))
    assert code == 0
    lines = path.read_text().splitlines()
    assert lines[1] == "eps,rate_measured,gamma,c_emp"
    assert len(lines) == 4


def test_operator_json_file(tmp_path, capsys):
    op = {"dim": 1, "family": "constant",
          "params": {"A": [[[1.0, 0.0]]], "B": [[[0.0, 0.0]]]}}
    path = tmp_path / "op.json"
    path.write_text(json.dumps(op))
    code, out = cli(capsys, "spectrum", "--operator", str(path), "--n", "25")
    assert code == 0
    vals = json.loads(out)["eigenvalues"]
    oracle = sorted(2.0 * math.cos(k * math.pi / 26.0) for k in range(1, 26))
    assert np.allclose(vals, oracle, atol=1e-10)


def test_error_paths(capsys):
    code, _ = cli(capsys, "spectrum", "--operator", "nonsense:x=1")
    assert code == 1
    code, _ = cli(capsys, "green", "--operator", "example2:x=3", "--n", "40",
                  "--zeta", "0")  # on the zero-energy bound state
    assert code == 1


@pytest.mark.parametrize("operator, item", [
    ("example2:y=3", "'y=3'"),              # unknown key: used to run with x = 0
    ("example2:x", "'x'"),                  # no '=': used to fail inside float()
    ("example2:x=three", "'x=three'"),      # non-numeric value
    ("example1:x=1", "'x=1'"),              # example1 takes no parameters
    ("example3:x=0,beta=1", "'beta=1'"),
])
def test_operator_shorthand_rejects_bad_items(capsys, operator, item):
    code = main(["gap", "--operator", operator, "--source", "symbol"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "ParameterError" in captured.err and item in captured.err


def test_operator_shorthand_accepts_family_keys(capsys):
    code, out = cli(capsys, "spectrum", "--operator",
                    "example3:x=0.5,alpha=0.75,c1=0,c2=1", "--n", "6")
    assert code == 0 and len(json.loads(out)["eigenvalues"]) == 12
    code, out = cli(capsys, "spectrum", "--operator", "example1", "--n", "6")
    assert code == 0
