import json
import math

import pytest

from chebnets import verifiers
from chebnets.cli import RunConfig, main, run, suite_all
from chebnets.geometry import net_from_json


@pytest.fixture
def net_file(tmp_path):
    path = tmp_path / "net.json"
    path.write_text(json.dumps({"dim": 2, "points": [[0, 0], [2, 0], [1, 0.1]]}))
    return str(path)


@pytest.fixture
def line_files(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps({"dim": 1, "points": [[0], [1]]}))
    b.write_text(json.dumps({"dim": 1, "points": [[0], [2]]}))
    return str(a), str(b)


def test_cheb_subcommand(net_file, capsys):
    assert main(["cheb", "--input", net_file, "--quiet"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == 1
    assert doc["center"] == [1.0, 0.0]
    assert doc["radius"] == 1.0
    # round-trip: the support is itself a loadable net
    support_net = net_from_json({"dim": 2, "points": doc["support"]})
    assert len(support_net) == 2


def test_alpha_subcommand(line_files, capsys):
    left, right = line_files
    assert main(["alpha", "--left", left, "--right", right, "--quiet"]) == 0
    assert float(capsys.readouterr().out.strip()) == 1.0


def test_verify_pass_and_exit_codes(capsys):
    assert main(["verify", "--lemma", "2", "--trials", "300", "--n", "5", "--seed", "7", "--quiet"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["pass"] is True
    assert doc["lemma_id"] == "L2"
    assert doc["trials"] == 300
    loaded = net_from_json(doc["worst_sample"]["net_a"])
    assert loaded.dim == 1


def test_verify_corrupted_constant_exits_2(monkeypatch, capsys):
    constant = verifiers.lemma4_constant
    monkeypatch.setattr(verifiers, "lemma4_constant", lambda u, v, w: constant(u, v, w) / 4)
    assert main(["verify", "--lemma", "4", "--trials", "200", "--quiet"]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["pass"] is False


def test_verify_deterministic_bytes(capsys):
    argv = ["verify", "--lemma", "1", "--trials", "150", "--dim", "2", "--seed", "9", "--quiet"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second


def test_verify_csv_format(capsys):
    assert main(["verify", "--lemma", "2", "--trials", "100", "--format", "csv", "--quiet"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "lemma_id,trials,max_ratio,claimed_bound,pass"
    assert lines[1].startswith("L2,100,")


def test_counterexample_subcommand(capsys):
    assert main(["counterexample", "--target", "10", "--quiet"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["achieved_ratio"] > 10
    assert net_from_json(doc["net_a"]).dim == 2


def test_counterexample_hyperbolic(capsys):
    assert main(["counterexample", "--target", "2", "--hyperbolic", "--quiet"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["achieved_ratio"] > 2
    assert all(p["model"] == "hyperboloid" for p in doc["net_a"])


def test_sequence_subcommand_csv(capsys):
    assert main(["sequence", "--nmax", "20", "--quiet"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "n,alpha_n,displacement_n"
    assert len(lines) == 21
    rows = [line.split(",") for line in lines[1:]]
    alphas = [float(r[1]) for r in rows]
    assert alphas[-1] < alphas[0]
    assert [int(r[0]) for r in rows] == list(range(1, 21))


def test_estimate_subcommand(net_file, capsys):
    assert main(["estimate", "--input", net_file, "--samples", "60", "--seed", "3", "--quiet"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert math.isfinite(doc["sup_ratio"])
    assert doc["samples"] == 60
    assert net_from_json(doc["worst_pair"]["net_a"]).dim == 2


def test_estimate_epsilon_guard(net_file, capsys):
    assert main(["estimate", "--input", net_file, "--epsilon", "10", "--samples", "5", "--quiet"]) == 1
    err = capsys.readouterr().err
    assert "min pairwise distance" in err


def test_malformed_json_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dim": 2, "points": [[0, 0], [1]]}')
    assert main(["cheb", "--input", str(bad), "--quiet"]) == 1
    assert "points[1]" in capsys.readouterr().err
    missing = tmp_path / "nope.json"
    assert main(["cheb", "--input", str(missing), "--quiet"]) == 1


def test_usage_error_exits_1(capsys):
    assert main(["verify", "--lemma", "9"]) == 1
    assert main(["nonsense"]) == 1


def test_suite_all_quick_keys_and_determinism(capsys):
    argv = ["suite-all", "--trials", "120", "--samples", "40", "--seed", "3", "--quiet"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    doc = json.loads(first)
    assert set(doc["reports"]) == {"L1", "L2", "L4", "S1", "S2i", "S2ii", "L3", "L3ii", "local"}
    assert doc["pass"] is True
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    # the underscore alias parses to the same command
    assert main(["suite_all", "--trials", "120", "--samples", "40", "--seed", "3", "--quiet"]) == 0
    assert capsys.readouterr().out == first


def test_run_config_validation():
    with pytest.raises(Exception):
        RunConfig(command="cheb", trials=0)


def test_run_config_direct_dispatch(net_file, capsys):
    config = RunConfig(command="cheb", input=net_file, quiet=True)
    assert run(config) == 0
    assert json.loads(capsys.readouterr().out)["radius"] == 1.0
