import contextlib
import io
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ia_rtdd as ia
from ia_rtdd.cli import main, parse_snr_grid
from ia_rtdd.errors import IaRtddError


@pytest.fixture
def ex1_config(tmp_path):
    path = tmp_path / "ex1.json"
    path.write_text(json.dumps({"M_alpha": 10, "N_alpha": [4, 6, 6],
                                "M_beta": 13, "N_beta": [3, 6]}))
    return str(path)


@pytest.fixture
def small_config(tmp_path):
    path = tmp_path / "small.json"
    path.write_text(json.dumps({"M_alpha": 4, "N_alpha": [3, 3],
                                "M_beta": 6, "N_beta": [2, 2]}))
    return str(path)


def test_snr_grid_grammar():
    assert parse_snr_grid("0:5:50") == [0 + 5 * i for i in range(11)]
    assert parse_snr_grid("30") == [30.0]
    assert parse_snr_grid("0:10:50") == [0, 10, 20, 30, 40, 50]
    assert parse_snr_grid("0:7:20") == [0, 7, 14]  # stop not on the grid
    with pytest.raises(IaRtddError):
        parse_snr_grid("0:0:10")
    with pytest.raises(IaRtddError):
        parse_snr_grid("10:5:0")
    with pytest.raises(IaRtddError):
        parse_snr_grid("1:2:3:4")


def test_check_matches_library(ex1_config, tmp_path, capsys):
    out = tmp_path / "check.json"
    code = main(["check", "--config", ex1_config, "--dof", "2,4,4;1,2",
                 "--seed", "3", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    cfg = ia.NetworkConfig(10, (4, 6, 6), 13, (3, 6))
    dof = ia.DofAllocation((2, 4, 4), (1, 2))
    assert data["necessary"] == ia.check_necessary(cfg, dof).to_dict()
    lib = ia.check_sufficient(cfg, dof, rng=ia.RngStream(3, 0)).to_dict()
    assert data["sufficient"]["verdict"] == lib["verdict"]
    assert data["feasible"] is True


def test_check_single_mode_and_strict(ex1_config, capsys):
    code = main(["check", "--config", ex1_config, "--dof", "4,6,6;3,6",
                 "--mode", "necessary", "--strict"])
    captured = capsys.readouterr()
    assert code == 1
    data = json.loads(captured.out)
    assert data["verdict"] is False


def test_search_reports_optimal(ex1_config, capsys):
    code = main(["search", "--config", ex1_config, "--seed", "42"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["d_sum"] == 13
    assert data["optimal"] is True
    assert data["necessary_bound"] == 13
    assert sum(data["allocation"]["d_alpha"]) + sum(data["allocation"]["d_beta"]) == 13


def test_symmetric_command(tmp_path, capsys):
    path = tmp_path / "ex4.json"
    path.write_text(json.dumps({"M_alpha": 12, "N_alpha": [6, 6, 8],
                                "M_beta": 16, "N_beta": [6, 6]}))
    code = main(["symmetric", "--config", str(path), "--dof", "4;2"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["verdict"] is True
    assert data["certified_exact"] is True
    assert data["d_sum"] == 16


def test_construct_reports_residuals(small_config, capsys):
    code = main(["construct", "--config", small_config, "--dof", "2,2;1,1",
                 "--iters", "300", "--snr", "20", "--seed", "5"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["max_inter_beta"] < 1e-7
    assert data["max_intra_alpha"] < 1e-7
    assert data["min_margin"] > 1e-6
    assert data["leakage"]["iterations"] >= 1


def test_construct_memory_follows_iterations_run(tmp_path, capsys):
    # a cap far beyond memory: the leakage records grow with the iterations
    # actually run, so a run converging early needs no more
    path = tmp_path / "net.json"
    path.write_text(json.dumps({"M_alpha": 3, "N_alpha": [2, 1],
                                "M_beta": 3, "N_beta": [2]}))
    for seed in range(3):
        code = main(["construct", "--config", str(path), "--dof", "1,1;1",
                     "--iters", "10000000000000", "--seed", str(seed)])
        assert code == 0
        leakage = json.loads(capsys.readouterr().out)["leakage"]
        assert leakage["converged"] and leakage["iterations"] <= 37


def test_simulate_leakage_csv(small_config, tmp_path):
    out = tmp_path / "trace.csv"
    code = main(["simulate-leakage", "--config", small_config, "--dof", "2,2;1,1",
                 "--iters", "50", "--seed", "2", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "iteration,total_leakage,leakage_alpha_1,leakage_alpha_2"
    assert len(lines) >= 2


def test_simulate_sumrate_reproducible(small_config, tmp_path):
    args = ["simulate-sumrate", "--config", small_config, "--dof", "2,2;1,1",
            "--snr", "0:10:20", "--trials", "2", "--iters", "80", "--seed", "7"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().strip().split("\n")
    assert len(lines) == 4  # header + 3 grid rows
    assert lines[0].startswith("snr_db,mean_sum_rate,")


def test_simulate_sumrate_json_mirror(small_config, capsys):
    code = main(["simulate-sumrate", "--config", small_config, "--dof", "2,2;1,1",
                 "--snr", "10", "--trials", "1", "--iters", "50", "--seed", "1",
                 "--format", "json"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["rows"]) == 1
    assert data["rows"][0]["trials_ok"] == 1


def test_input_errors_exit_2(small_config, tmp_path, capsys):
    assert main(["check", "--config", str(tmp_path / "missing.json"),
                 "--dof", "1;1"]) == 2
    assert main(["check", "--config", small_config, "--dof", "1,1"]) == 2
    assert main(["check", "--config", small_config, "--dof", "9,9;9,9"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["check", "--config", str(bad), "--dof", "1,1;1,1"]) == 2
    array = tmp_path / "array.json"
    array.write_text("[4, [3, 3], 6, [2, 2]]")
    assert main(["check", "--config", str(array), "--dof", "1,1;1,1"]) == 2
    assert "must be an object" in capsys.readouterr().err
    text = tmp_path / "text.json"
    text.write_text(json.dumps({"M_alpha": "abc", "N_alpha": [3, 3],
                                "M_beta": 6, "N_beta": [2, 2]}))
    assert main(["check", "--config", str(text), "--dof", "1,1;1,1"]) == 2
    assert "M_alpha must be an integer" in capsys.readouterr().err
    assert main(["simulate-sumrate", "--config", small_config, "--dof", "1,1;1,1",
                 "--snr", "10", "--trials", "0"]) == 2
    assert main(["check", "--config", small_config, "--dof", "1,1;1,1",
                 "--mode", "sufficient", "--trials", "0"]) == 2
    assert capsys.readouterr().err.count("trials must be >= 1") == 2
    for cmd, snr in (("construct", "abc"), ("construct", "nan"),
                     ("construct", "inf"), ("construct", "-inf"),
                     ("construct", "1e300"), ("simulate-sumrate", "0:nan:10"),
                     ("simulate-sumrate", "0:5:1e12"),
                     ("simulate-sumrate", "0:1e-6:1")):
        assert main([cmd, "--config", small_config, "--dof", "1,1;1,1",
                     f"--snr={snr}", "--iters", "2"]) == 2
    assert "has more than 10000 points" in capsys.readouterr().err
    assert main(["construct", "--config", small_config, "--dof", "1,1;1,1",
                 "--seed", "-1"]) == 2
    assert "seed must be >= 0" in capsys.readouterr().err


def test_unknown_flag_exits_2(small_config):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--config", small_config, "--bogus"])
    assert exc.value.code == 2


def test_subset_guard_env_override(tmp_path, capsys, monkeypatch):
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"M_alpha": 1, "N_alpha": [1] * 11,
                                "M_beta": 1, "N_beta": [1] * 10}))
    dof = ",".join(["0"] * 11) + ";" + ",".join(["0"] * 10)
    assert main(["check", "--config", str(path), "--dof", dof,
                 "--mode", "necessary"]) == 2
    capsys.readouterr()
    monkeypatch.setenv("IA_RTDD_MAX_SUBSET_USERS", "21")
    assert main(["check", "--config", str(path), "--dof", dof,
                 "--mode", "necessary"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["verdict"] is True


def _text(junk, low, high):
    return st.one_of(st.sampled_from(junk), st.integers(low, high).map(str))


@pytest.fixture(scope="module")
def tiny_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "tiny.json"
    path.write_text(json.dumps({"M_alpha": 3, "N_alpha": [2, 1],
                                "M_beta": 3, "N_beta": [2]}))
    return str(path)


@settings(max_examples=300, deadline=None)
@given(command=st.sampled_from(["construct", "simulate-leakage",
                                "simulate-sumrate", "check"]),
       dof=st.one_of(st.tuples(st.integers(0, 2), st.integers(0, 1),
                               st.integers(0, 2)).map(lambda t: "%d,%d;%d" % t),
                     st.sampled_from(["", ";", "a;b", "1,1", "-1,1;1", "9,9;9"])),
       snr=st.one_of(st.sampled_from(["abc", "nan", "-inf", "0:nan:10", "0:5:1e12",
                                      "0:1e-6:1", "", "1:2", "0:0:10", "10:5:0"]),
                     st.floats(-310, 310).map(repr),
                     st.tuples(st.integers(-10, 50), st.integers(1, 30),
                               st.integers(0, 2)).map(
                         lambda t: f"{t[0]}:{t[1]}:{t[0] + t[1] * t[2]}")),
       seed=_text(["x", "1.5"], -2, 2 ** 40), trials=_text(["x"], -1, 2),
       iters=_text(["2.0"], -1, 3))
@example(command="construct", dof="1,1;1", snr="abc", seed="0", trials="1", iters="2")
@example(command="check", dof="1,1;1", snr="0", seed="-1", trials="1", iters="2")
def test_fuzzed_arguments_exit_cleanly(tiny_config, command, dof, snr, seed,
                                       trials, iters):
    argv = [command, "--config", tiny_config, f"--dof={dof}", f"--seed={seed}"]
    if command in ("check", "simulate-sumrate"):
        argv.append(f"--trials={trials}")
    if command != "check":
        argv += [f"--snr={snr}", f"--iters={iters}"]
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects a malformed option
            code = exc.code
    assert code in (0, 1, 2)
