import json

import pytest

from chaoswpt.cli import SWEEP_HEADER, main
from chaoswpt.harvester import EhCircuit
from chaoswpt.montecarlo import RunConfig, run_once

FAST = ["--set", "n_frames=2000"]


def _csv_rows(out: str):
    lines = out.strip().split("\n")
    header = lines[0].split(",")
    return header, [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_run_csv_matches_library(capsys):
    code = main(["run", "--set", "beta=2", *FAST])
    assert code == 0
    header, rows = _csv_rows(capsys.readouterr().out)
    assert tuple(header) == SWEEP_HEADER
    assert len(rows) == 1
    row = rows[0]
    assert row["beta"] == "2"
    assert row["mode"] == "full"

    ref = run_once(RunConfig(beta=2, r=20.0, n_frames=2000, seed=42))
    # 17 significant digits round-trip float64 exactly
    assert float(row["z_empirical"]) == ref.estimate.mean
    assert float(row["z_stderr"]) == ref.estimate.std_error
    assert float(row["z_analytic"]) == ref.z_analytic
    assert float(row["rel_dev"]) == abs(ref.rel_dev)
    assert float(row["papr_analytic"]) == 8.0


def test_default_transmit_power_is_one_watt(capsys):
    # 30 dBm and 1 W must be the same circuit
    assert main(["run", *FAST, "--format", "json"]) == 0
    base = capsys.readouterr().out
    assert main(["run", *FAST, "--format", "json",
                 "--set", "p_t_watts=1.0"]) == 0
    override = capsys.readouterr().out
    assert json.loads(base)["rows"] == json.loads(override)["rows"]


def test_json_output_is_byte_stable(capsys):
    argv = ["run", "--set", "beta=1", *FAST, "--format", "json"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload["config"]["run"]["beta"] == 1
    assert len(payload["rows"]) == 1


def test_out_file_gets_the_csv(tmp_path, capsys):
    target = tmp_path / "row.csv"
    assert main(["run", *FAST, "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    header, rows = _csv_rows(target.read_text())
    assert tuple(header) == SWEEP_HEADER and len(rows) == 1


def test_config_file_merges_over_defaults(tmp_path, capsys):
    cfg = tmp_path / "conf.json"
    cfg.write_text(json.dumps({"run": {"beta": 3, "n_frames": 1200}}))
    assert main(["run", "--config", str(cfg), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["config"]["run"]["beta"] == 3
    assert payload["config"]["run"]["n_frames"] == 1200
    assert payload["config"]["run"]["r"] == 20.0  # untouched default


def test_malformed_config_reports_location(tmp_path, capsys):
    cfg = tmp_path / "broken.json"
    cfg.write_text('{"run": {\n  "beta" 3\n}}')
    assert main(["run", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "line 2" in err


def test_unknown_config_key_is_named(tmp_path, capsys):
    cfg = tmp_path / "conf.json"
    cfg.write_text(json.dumps({"run": {"bteas": 3}}))
    assert main(["run", "--config", str(cfg)]) == 1
    assert "run.bteas" in capsys.readouterr().err


def test_invalid_circuit_value_exits_one(capsys):
    assert main(["run", *FAST, "--set", "k2=-1"]) == 1
    assert "chaoswpt: error" in capsys.readouterr().err


def test_set_dotted_path_and_bare_string(capsys):
    code = main(["run", *FAST, "--set", "run.beta=4",
                 "--set", "psi_mode=bypass", "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["config"]["run"]["beta"] == 4
    assert payload["config"]["run"]["psi_mode"] == "bypass"
    assert payload["rows"][0]["mode"] == "bypass"


def test_set_rejects_unknown_and_malformed_keys(capsys):
    assert main(["run", *FAST, "--set", "bogus=1"]) == 1
    assert "bogus" in capsys.readouterr().err
    assert main(["run", *FAST, "--set", "run.nope=5"]) == 1
    assert "run.nope" in capsys.readouterr().err
    assert main(["run", *FAST, "--set", "beta"]) == 1
    assert "key=value" in capsys.readouterr().err


def test_seed_precedence_env_over_file_set_over_env(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "conf.json"
    cfg.write_text(json.dumps({"run": {"seed": 7, "n_frames": 500, "beta": 1}}))
    monkeypatch.setenv("CHAOSWPT_SEED", "9")
    assert main(["run", "--config", str(cfg), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["config"]["run"]["seed"] == 9

    assert main(["run", "--config", str(cfg), "--format", "json",
                 "--set", "seed=11"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["config"]["run"]["seed"] == 11

    monkeypatch.setenv("CHAOSWPT_SEED", "ten")
    assert main(["run", "--config", str(cfg)]) == 1
    assert "CHAOSWPT_SEED" in capsys.readouterr().err


def test_sweep_grid_rows(capsys):
    code = main(["sweep", *FAST,
                 "--set", "sweep.betas=[1,2]",
                 "--set", "sweep.distances=[20.0]",
                 "--set", 'sweep.modes=["full","bypass"]'])
    assert code == 0
    header, rows = _csv_rows(capsys.readouterr().out)
    assert tuple(header) == SWEEP_HEADER
    assert [(r["beta"], r["mode"]) for r in rows] == [
        ("1", "full"), ("1", "bypass"), ("2", "full"), ("2", "bypass")]
    assert all(float(r["z_empirical"]) > 0 for r in rows)


def test_sweep_keeps_going_past_bad_points(capsys):
    code = main(["sweep", *FAST,
                 "--set", "sweep.betas=[0,2]",
                 "--set", "sweep.distances=[20.0]",
                 "--set", 'sweep.modes=["full"]'])
    assert code == 2
    captured = capsys.readouterr()
    assert "failed" in captured.err
    _, rows = _csv_rows(captured.out)
    assert len(rows) == 2
    assert rows[0]["z_empirical"] == "nan"
    assert float(rows[1]["z_empirical"]) > 0


def test_sweep_marks_every_cell_on_an_invalid_axis_value(capsys):
    code = main(["sweep", *FAST,
                 "--set", "sweep.betas=[2,0]",
                 "--set", 'sweep.distances=[20.0,"x"]',
                 "--set", 'sweep.modes=["full","half"]'])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.count("failed") == 7
    assert "Traceback" not in captured.err
    _, rows = _csv_rows(captured.out)
    assert [(r["beta"], r["r"], r["mode"]) for r in rows] == [
        (b, r, m) for b in ("2", "0") for r in ("20", "x") for m in ("full", "half")]
    assert float(rows[0]["z_empirical"]) > 0
    assert all(r["z_empirical"] == "nan" for r in rows[1:])


@pytest.mark.parametrize("expr, key", [
    ('sweep.betas="ab"', "sweep.betas"), ("sweep.distances=20", "sweep.distances"),
    ('sweep.modes="full"', "sweep.modes"), ("sweep.betas=[]", "sweep.betas"),
])
def test_sweep_axes_must_be_json_lists(capsys, expr, key):
    assert main(["sweep", *FAST, "--set", expr]) == 1
    err = capsys.readouterr().err
    assert key in err
    assert "Traceback" not in err


def test_papr_command_rows(capsys):
    assert main(["papr", "--set", "beta=3", *FAST]) == 0
    _, rows = _csv_rows(capsys.readouterr().out)
    assert [r["mode"] for r in rows] == ["bypass", "full"]
    assert [float(r["papr_bound"]) for r in rows] == [2.0, 12.0]
    for row in rows:
        assert float(row["papr_expectation_normalized"]) <= float(row["papr_bound"])


def test_crossover_unequal_distances(capsys):
    code = main(["crossover", "--set", "crossover.r_c=30",
                 "--set", "crossover.r_nc=20"])
    assert code == 0
    _, rows = _csv_rows(capsys.readouterr().out)
    row = rows[0]
    assert float(row["bound"]) == pytest.approx(51.90268614622781, rel=1e-15)
    assert row["beta_min"] == "52"
    assert float(row["z_with_correlator"]) >= float(row["z_without_correlator"])


def test_crossover_equal_and_inverted_distances(capsys):
    assert main(["crossover", "--set", "crossover.r_c=10",
                 "--set", "crossover.r_nc=10"]) == 0
    _, rows = _csv_rows(capsys.readouterr().out)
    assert float(rows[0]["bound"]) == pytest.approx(0.125)
    assert rows[0]["beta_min"] == "1"

    # correlated link closer than the raw one: it wins from beta = 1 on
    assert main(["crossover", "--set", "crossover.r_c=20",
                 "--set", "crossover.r_nc=30"]) == 0
    _, rows = _csv_rows(capsys.readouterr().out)
    assert rows[0]["beta_min"] == "1"


def test_crossover_requires_both_distances(capsys):
    assert main(["crossover"]) == 1
    assert "crossover.r_c" in capsys.readouterr().err


def test_verify_dist_battery(capsys):
    assert main(["verify-dist", "--set", "n_samples=150000"]) == 0
    _, rows = _csv_rows(capsys.readouterr().out)
    assert len(rows) == 7
    assert all(row["status"] == "ok" for row in rows)
    assert all(float(row["ks_stat"]) < 0.005 for row in rows)
    assert {row["family"] for row in rows} == {
        "S_b1", "Z_b1", "P_b1", "S_clt", "Delta_b1", "Theta_b1"}


def test_usage_errors_exit_one():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["run", "--format", "xml"])
    assert exc.value.code == 1


@pytest.mark.parametrize("expr, key", [
    ("beta=2.0", "beta"), ("n_frames=1e5", "n_frames"), ("beta=true", "beta"),
])
def test_integer_keys_reject_floats_and_bools(capsys, expr, key):
    assert main(["run", *FAST, "--set", expr]) == 1
    err = capsys.readouterr().err
    assert key in err
    assert "Traceback" not in err


# r=1e-50: the path gain is finite, the rectifier polynomial overflows
@pytest.mark.parametrize("expr", ["r=1e-300", "alpha=1e3", "r=1e-50"])
def test_unrepresentable_path_gain_exits_one(capsys, expr):
    assert main(["run", *FAST, "--set", expr]) == 1
    err = capsys.readouterr().err
    assert "r=" in err and "alpha=" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("expr, key", [
    ("r=abc", "r must"), ('k2="x"', "EhCircuit.k2"), ("alpha=NaN", "alpha must"),
    ("r=Infinity", "r must"), ("r=null", "r must"), ("k4=true", "EhCircuit.k4"),
    ("r_ant=-Infinity", "EhCircuit.r_ant"), ("p_t_watts=NaN", "p_t_watts"),
    ("p_t_watts=true", "p_t_watts"),
    ("p_t_dbm=5000", "p_t_dbm"), ("p_t_dbm=-5000", "p_t_dbm"),
])
def test_real_keys_reject_non_finite_values(capsys, expr, key):
    assert main(["run", *FAST, "--set", expr]) == 1
    err = capsys.readouterr().err
    assert key in err
    assert "Traceback" not in err
