import contextlib
import io
import json
import math
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ia_rtdd as ia
from ia_rtdd import cli, evaluate
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


def test_check_sufficient_mode_matches_library(ex1_config, capsys):
    code = main(["check", "--config", ex1_config, "--dof", "2,4,4;1,2",
                 "--mode", "sufficient", "--trials", "3", "--seed", "4"])
    assert code == 0
    cfg = ia.NetworkConfig(10, (4, 6, 6), 13, (3, 6))
    lib = ia.check_sufficient(cfg, ia.DofAllocation((2, 4, 4), (1, 2)), 3,
                              ia.RngStream(4, 0))
    assert json.loads(capsys.readouterr().out) == lib.to_dict()


@pytest.mark.parametrize("mode", ["necessary", "sufficient"])
def test_search_single_mode_matches_library(small_config, capsys, mode):
    code = main(["search", "--config", small_config, "--mode", mode,
                 "--trials", "2", "--seed", "6"])
    assert code == 0
    lib = ia.search_max_sum_dof(ia.NetworkConfig(4, (3, 3), 6, (2, 2)), mode, 2,
                                ia.RngStream(6, 0))
    assert json.loads(capsys.readouterr().out) == json.loads(json.dumps(lib.to_dict()))


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


def test_symmetric_needs_one_count_per_cell(small_config, capsys):
    assert main(["symmetric", "--config", small_config, "--dof", "1,1;1"]) == 2
    assert main(["symmetric", "--config", small_config]) == 2
    assert capsys.readouterr().err.count("one value per cell") == 2


def test_commands_without_dof_exit_2(small_config, capsys):
    for command in ("check", "construct"):
        assert main([command, "--config", small_config]) == 2
    assert capsys.readouterr().err.count("--dof is required for this command") == 2


def test_antenna_totals_beyond_int64_range_exit_2(tmp_path, capsys):
    # 1e20 is integral, so only the antenna-total bound keeps it out of the
    # converse's int64 arithmetic
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"M_alpha": 4, "N_alpha": [1e20],
                                "M_beta": 4, "N_beta": [2]}))
    assert main(["check", "--config", str(path), "--dof", "1;1"]) == 2
    assert main(["symmetric", "--config", str(path), "--dof", "1;1"]) == 2
    assert capsys.readouterr().err.count("sum of N_alpha must be below 2^31") == 2


@pytest.mark.parametrize("config, argv, message", [
    # 2^20 x 2^30 downlink draws
    ({"M_alpha": 2 ** 30, "N_alpha": [2 ** 20], "M_beta": 2, "N_beta": [1]},
     ["construct", "--dof", "1;1"],
     "the channel draw would hold 1125902055374850 entries"),
    ({"M_alpha": 2 ** 30, "N_alpha": [2 ** 20], "M_beta": 2, "N_beta": [1]},
     ["check", "--dof", "1;1"], "the channel draw would hold 1125902055374850 entries"),
    # draws of 2^20 entries, a 2^20 x 2^20 stage-1 covariance and full SVD
    ({"M_alpha": 1, "N_alpha": [2 ** 20], "M_beta": 1, "N_beta": [1]},
     ["construct", "--dof", "1;1"],
     "a stage-1 covariance stack would hold 1099511627776 entries"),
    ({"M_alpha": 1, "N_alpha": [2 ** 20], "M_beta": 1, "N_beta": [1]},
     ["simulate-leakage", "--dof", "1;1"],
     "a stage-1 covariance stack would hold 1099511627776 entries"),
    ({"M_alpha": 1, "N_alpha": [2 ** 20], "M_beta": 1, "N_beta": [1]},
     ["simulate-sumrate", "--dof", "1;1", "--snr", "10", "--trials", "1"],
     "a single-cell SVD factor would hold 1099511627776 entries"),
    # a 262144 x 524288 alignment matrix
    ({"M_alpha": 1024, "N_alpha": [1024], "M_beta": 1024, "N_beta": [1024]},
     ["check", "--mode", "sufficient", "--dof", "512;512"],
     "the alignment matrix would hold 137438953472 entries"),
])
def test_oversized_arrays_exit_2_before_allocating(tmp_path, capsys, config, argv,
                                                   message):
    path = tmp_path / "big.json"
    path.write_text(json.dumps(config))
    tracemalloc.start()
    try:
        code = main([argv[0], "--config", str(path), *argv[1:]])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert message + ", more than the limit of 2^26 per array" in capsys.readouterr().err
    # the largest array built is a draw of at most 2^22 entries (64 MiB)
    assert peak < 2 ** 27
    # the converse sizes none of these arrays and still answers
    assert main(["check", "--config", str(path), "--mode", "necessary",
                 "--dof", "1;1"]) == 0


def test_draw_of_many_small_matrices_exits_2_before_allocating(tmp_path, capsys):
    # 4096 + 4096 users: 2^24 cross channels of one entry each pass the entry
    # bound alone but would take ~2.5 GiB as separate arrays.  The lead user
    # of each cell has two antennas, so that the rank test has variables to
    # draw for.
    users = 4096
    path = tmp_path / "many.json"
    path.write_text(json.dumps({"M_alpha": 2, "N_alpha": [2] + [1] * (users - 1),
                                "M_beta": 2, "N_beta": [2] + [1] * (users - 1)}))
    dof = ",".join(["1"] + ["0"] * (users - 1))
    for argv in (["construct", "--iters", "2"], ["check", "--mode", "sufficient"]):
        tracemalloc.start()
        try:
            code = main([argv[0], "--config", str(path), "--dof", f"{dof};{dof}",
                         *argv[1:]])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert ("the channel draw would hold 16801801 entries in 16785409 arrays"
                in capsys.readouterr().err)
        assert peak < 2 ** 27
    # 512 + 512 one-antenna users (~40 MiB of matrices) still draw
    net = ia.NetworkConfig(1, (1,) * 512, 1, (1,) * 512)
    assert len(ia.sample_channels(net, ia.RngStream(0, 0)).g_cross[511]) == 512


def test_subset_sum_table_beyond_the_bound_exits_2(tmp_path, capsys):
    # a cell of 25 users has 2^25 subsets but 26 stream totals at most, so
    # its converse answers in small tables
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"M_alpha": 25, "N_alpha": [1] * 25,
                                "M_beta": 1, "N_beta": [1]}))
    dof = ",".join(["1", "0"] * 12 + ["1"]) + ";0"
    checks = [(path, dof, 0)]
    # streams of 2^i on 24+24 users reach 2^24 distinct totals per cell: the
    # tables would pass the entry bound, and are refused before they are built
    doubling = [1 << i for i in range(24)]
    path = tmp_path / "doubling.json"
    path.write_text(json.dumps({"M_alpha": (1 << 31) - 1, "N_alpha": doubling,
                                "M_beta": (1 << 31) - 1, "N_beta": doubling}))
    dof = ",".join(map(str, doubling)) + ";" + ",".join(map(str, doubling))
    checks.append((path, dof, 2))
    for path, dof, want in checks:
        tracemalloc.start()
        try:
            code = main(["check", "--config", str(path), "--dof", dof,
                         "--mode", "necessary"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == want
        assert peak < 2 ** 20
    out, err = capsys.readouterr()
    assert json.loads(out)["verdict"] is True
    assert ("the stream-total tables would hold 838860780 entries, more than "
            "the limit of 2^26" in err)


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


def test_simulate_leakage_json_mirrors_csv(small_config, capsys):
    args = ["simulate-leakage", "--config", small_config, "--dof", "2,2;1,1",
            "--iters", "50", "--seed", "2"]
    assert main(args) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.split()[1:]]
    assert main(args + ["--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["converged"] in (True, False)
    assert data["totals"] == [float(row[1]) for row in rows]
    assert data["per_user"] == [[float(v) for v in row[2:]] for row in rows]


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


def test_simulate_sumrate_json_mirrors_csv(small_config, capsys, monkeypatch):
    # value for value, per-user lists against their numbered columns, with a
    # grid point whose every trial failed (NaN in CSV, null in JSON)
    args = ["simulate-sumrate", "--config", small_config, "--dof", "2,2;1,1",
            "--snr", "0:10:20", "--trials", "2", "--iters", "40", "--seed", "3"]
    complete = evaluate.complete_beamformers

    def fail_at_20_db(channels, dof, u_alpha, v_beta):
        # the sweep completes each trial's grid points in turn
        fail_at_20_db.calls += 1
        if fail_at_20_db.calls % 3 == 0:
            raise ia.SingularSystemError("forced failure")
        return complete(channels, dof, u_alpha, v_beta)

    fail_at_20_db.calls = 0
    monkeypatch.setattr(evaluate, "complete_beamformers", fail_at_20_db)
    outputs = []
    for fmt in ("csv", "json"):
        fail_at_20_db.calls = 0
        assert main(args + ["--format", fmt]) == 0
        outputs.append(capsys.readouterr().out)
    header, *lines = (line.split(",") for line in outputs[0].split())
    data = _strict_json(outputs[1])
    assert (data["seed"], data["trials"]) == (3, 2)
    assert len(data["rows"]) == len(lines) == 3
    assert data["rows"][2]["trials_ok"] == 0 and data["rows"][2]["mean_sum_rate"] is None
    for row, line in zip(data["rows"], lines):
        flat = {}
        for key, value in row.items():
            if isinstance(value, list):
                flat.update((f"{key}_{i + 1}", v) for i, v in enumerate(value))
            else:
                flat[key] = value
        assert list(flat) == header
        for value, cell in zip(flat.values(), line):
            assert (value is None and math.isnan(float(cell))) or value == float(cell)


def _strict_json(text):
    """Parse JSON that must hold no NaN/Infinity token."""
    def refuse(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(text, parse_constant=refuse)


def test_json_output_is_strict(small_config, capsys, monkeypatch):
    # no streams anywhere: no margin to take a minimum of
    assert main(["construct", "--config", small_config, "--dof", "0,0;0,0"]) == 0
    assert _strict_json(capsys.readouterr().out)["min_margin"] is None

    # every trial fails at the point: no rate to average
    def fail(*args):
        raise ia.SingularSystemError("forced failure")

    monkeypatch.setattr(evaluate, "complete_beamformers", fail)
    assert main(["simulate-sumrate", "--config", small_config, "--dof", "2,2;1,1",
                 "--snr", "10", "--trials", "1", "--iters", "5",
                 "--format", "json"]) == 0
    row = _strict_json(capsys.readouterr().out)["rows"][0]
    assert row["trials_failed"] == 1
    assert row["mean_sum_rate"] is None
    assert row["mean_rate_alpha"] == [None, None]
    assert row["baseline_single_cell"] > 0


@pytest.mark.parametrize("command, flag", [
    ("search", "--dof=1;1"), ("symmetric", "--seed=1"), ("construct", "--strict"),
    ("simulate-leakage", "--strict"), ("simulate-sumrate", "--strict")])
def test_flags_a_command_does_not_read_exit_2(small_config, command, flag):
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", small_config, flag])
    assert exc.value.code == 2


def test_input_errors_exit_2(small_config, tmp_path, capsys, monkeypatch):
    assert main(["check", "--config", str(tmp_path / "missing.json"),
                 "--dof", "1;1"]) == 2
    assert main(["check", "--config", small_config, "--dof", "1,1"]) == 2
    assert main(["check", "--config", small_config, "--dof", "9,9;9,9"]) == 2
    assert main(["check", "--config", small_config, "--dof", "1,,1;1,1"]) == 2
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
    # --seed and --trials are checked in every mode, also where not read
    for argv in (["check", "--dof", "1,1;1,1", "--mode", "necessary", "--seed", "-1"],
                 ["check", "--dof", "1,1;1,1", "--mode", "necessary", "--trials", "0"],
                 ["check", "--dof", "1,1;1,1", "--mode", "necessary", "--trials", "-3"],
                 ["search", "--mode", "necessary", "--trials", "0"]):
        assert main([argv[0], "--config", small_config, *argv[1:]]) == 2
    err = capsys.readouterr().err
    assert err.count("seed must be >= 0, got -1") == 1
    assert err.count("trials must be >= 1") == 3
    for cmd, snr in (("construct", "abc"), ("construct", "nan"),
                     ("construct", "inf"), ("construct", "-inf"),
                     ("construct", "1e300"), ("simulate-sumrate", "0:nan:10"),
                     ("simulate-sumrate", "0:5:1e12"),
                     ("simulate-sumrate", "0:1e-6:1"), ("construct", "0:10:50"),
                     ("simulate-leakage", "0:10:50")):
        assert main([cmd, "--config", small_config, "--dof", "1,1;1,1",
                     f"--snr={snr}", "--iters", "2"]) == 2
    err = capsys.readouterr().err
    assert "has more than 10000 points" in err
    assert err.count("not a grid") == 2
    assert main(["construct", "--config", small_config, "--dof", "1,1;1,1",
                 "--seed", "-1"]) == 2
    assert "seed must be >= 0" in capsys.readouterr().err
    # numeric text is plain ASCII without digit-group underscores
    assert main(["check", "--config", small_config, "--dof", "1_0,1;1,1"]) == 2
    assert main(["simulate-sumrate", "--config", small_config, "--dof", "1,1;1,1",
                 "--snr", "0:1_0:2_0", "--iters", "2", "--trials", "1"]) == 2
    assert main(["construct", "--config", small_config, "--dof", "1,1;1,1",
                 "--snr", "\u0663\u0660", "--iters", "2"]) == 2
    err = capsys.readouterr().err
    assert "could not parse stream allocation" in err
    assert err.count("could not parse SNR grid") == 2
    for flag in ("--seed", "--iters"):
        with pytest.raises(SystemExit) as exc:
            main(["construct", "--config", small_config, "--dof", "1,1;1,1",
                  flag, "1_0"])
        assert exc.value.code == 2
    assert capsys.readouterr().err.count("invalid int value: '1_0'") == 2
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"M_alpha": 4, "N_alpha": [3, 3], "M_beta": 6, '
                       b'"N_beta": [2, 2], "note": "\xe9"}')
    for config in (str(tmp_path), str(latin1)):
        assert main(["check", "--config", config, "--dof", "1,1;1,1"]) == 2
    assert capsys.readouterr().err.count("could not read config file") == 2
    assert main(["search", "--config", small_config,
                 "--out", str(tmp_path / "missing" / "out.json")]) == 2
    assert "could not write" in capsys.readouterr().err

    # permission bits do not stop a superuser, so an unreadable file is simulated
    def denied(path, *args, **kwargs):
        raise PermissionError(13, "Permission denied", path)

    monkeypatch.setattr(cli, "open", denied, raising=False)
    assert main(["check", "--config", small_config, "--dof", "1,1;1,1"]) == 2
    assert "Permission denied" in capsys.readouterr().err


def test_unknown_flag_exits_2(small_config):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--config", small_config, "--bogus"])
    assert exc.value.code == 2


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


# JSON values for the config fuzz: integers that pass the guards stay below 5,
# the others lie past 2^31 and are refused before any work.  Well-formed
# fields are drawn most often, so that most examples run their command.
_JSON_SCALARS = st.one_of(
    st.integers(-2, 4), st.sampled_from([2 ** 31 - 1, 2 ** 31, 2 ** 31 + 1, 2 ** 40]),
    st.sampled_from([2.0, 2.5, -0.0, 1e20, float("nan"), float("inf")]),
    st.booleans(), st.none(), st.sampled_from(["", "3", "abc"]))
_JSON_VALUES = st.recursive(_JSON_SCALARS, lambda inner: st.lists(inner, max_size=3),
                            max_leaves=4)
_USERS = st.lists(st.integers(1, 4), min_size=1, max_size=4)


@st.composite
def _configs(draw):
    """A config object whose fields are well-formed three times in four, else
    any JSON value (0-4 users per cell either way); each key is left out one
    time in eight, and an extra key may be present."""
    def field(good):
        return draw(good if draw(st.sampled_from([True] * 3 + [False])) else
                    st.one_of(_JSON_VALUES, st.lists(_JSON_VALUES, max_size=4)))

    config = {"M_alpha": field(st.integers(1, 4)), "N_alpha": field(_USERS),
              "M_beta": field(st.integers(1, 4)), "N_beta": field(_USERS)}
    config = {key: value for key, value in config.items()
              if draw(st.sampled_from([True] * 7 + [False]))}
    if draw(st.booleans()):
        config["note"] = draw(_JSON_VALUES)
    return config


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("config_fuzz")


@settings(max_examples=300, deadline=None)
@given(command=st.sampled_from(["check", "search", "symmetric", "construct",
                                "simulate-leakage", "simulate-sumrate"]),
       config=_configs(),
       streams=st.integers(0, 2), mode=st.sampled_from([[], ["--mode=necessary"],
                                                        ["--mode=sufficient"]]))
@example(command="construct", streams=1, mode=[],
         config={"M_alpha": 2 ** 31 - 1, "N_alpha": [1], "M_beta": 1, "N_beta": [1]})
@example(command="simulate-sumrate", streams=1, mode=[],
         config={"M_alpha": 1, "N_alpha": [4, 2, 3, 1], "M_beta": 4, "N_beta": []})
def test_fuzzed_config_exits_cleanly(fuzz_dir, command, config, streams, mode):
    # every command on a generated config file; --dof gives each user of a
    # well-formed config the same stream count (symmetric: one per cell)
    path = fuzz_dir / "config.json"
    path.write_text(json.dumps(config))
    users = [len(config.get(key)) if isinstance(config.get(key), list) else 1
             for key in ("N_alpha", "N_beta")]
    dof = ";".join(",".join([str(streams)] * n) for n in users)
    argv = [command, "--config", str(path)]
    if command == "symmetric":
        argv.append(f"--dof={streams};{streams}")
    elif command != "search":
        argv.append(f"--dof={dof}")
    if command in ("check", "search"):
        argv += mode + ["--trials=2"]
    if command.startswith("simulate") or command == "construct":
        argv += ["--iters=3", "--snr=10"]
    if command == "simulate-sumrate":
        argv.append("--trials=1")
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2)
