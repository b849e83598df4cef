import csv
import dataclasses
import inspect
import io
import json
import math
import warnings

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from chaoswpt.cli import DEFAULTS, SWEEP_HEADER, main
from chaoswpt.harvester import EhCircuit
from chaoswpt.montecarlo import RunConfig, measure_papr, run_once

from frame_chain import batch_rng

FAST = ["--set", "n_frames=2000"]


def _csv_rows(out: str):
    header, *lines = csv.reader(io.StringIO(out, newline=""))
    return header, [dict(zip(header, line)) for line in lines]


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
    assert float(row["rel_dev"]) == ref.rel_dev
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


@pytest.mark.parametrize("where", ["directory", "missing parent"])
def test_out_to_an_unwritable_path_exits_one(tmp_path, capsys, where):
    target = tmp_path if where == "directory" else tmp_path / "absent" / "x.csv"
    argv = ["crossover", "--set", "crossover.r_c=30", "--set", "crossover.r_nc=20"]
    assert main([*argv, "--out", str(target)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--out" in captured.err and str(target) in captured.err
    assert "Traceback" not in captured.err


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


# each --set stands for the one-key document beside it
@pytest.mark.parametrize("document, expr, key", [
    ({"run": {"beta": {"x": 3}}}, "run.beta.x=3", "run.beta.x"),
    ({"run": {"beta": {}}}, "beta={}", "run.beta"),
    ({"run": {"x": {"y": 1}}}, "run.x.y=1", "run.x.y"),
])
def test_config_objects_and_values_keep_their_places(tmp_path, capsys, document, expr, key):
    cfg = tmp_path / "conf.json"
    cfg.write_text(json.dumps(document))
    assert main(["run", "--config", str(cfg)]) == 1
    assert f"config key {key!r}" in capsys.readouterr().err
    assert main(["run", "--set", expr]) == 1
    assert f"config key {key!r}" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    (None, "cannot read config file"),
    ("[1, 2]", "config file must contain a JSON object"),
    ('{"run": 5}', "config key 'run' must be an object"),
])
def test_config_file_errors_exit_one(tmp_path, capsys, text, message):
    cfg = tmp_path / "conf.json"
    if text is not None:  # else the file is missing
        cfg.write_text(text)
    assert main(["run", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


def test_cli_defaults_are_the_library_defaults():
    run = {f.name: f.default for f in dataclasses.fields(RunConfig)}
    circuit = EhCircuit()
    c = DEFAULTS["circuit"]
    assert (c["k2"], c["k4"], c["r_ant"]) == (circuit.k2, circuit.k4, circuit.r_ant)
    assert 10.0 ** ((c["p_t_dbm"] - 30.0) / 10.0) == circuit.p_t
    assert DEFAULTS["channel"]["alpha"] == run["alpha"]
    assert DEFAULTS["waveform"]["xi"] == run["xi"]
    for key in ("psi_mode", "n_frames", "seed"):
        assert DEFAULTS["run"][key] == run[key], key
    papr = inspect.signature(measure_papr).parameters
    for key in ("n_frames", "seed", "xi"):
        assert papr[key].default == run[key], key


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

    # text that is no integer, and integers outside the seed's range
    for raw in ("ten", "-1", str(2**64)):
        monkeypatch.setenv("CHAOSWPT_SEED", raw)
        assert main(["run", "--config", str(cfg)]) == 1
        assert "CHAOSWPT_SEED must be an" in capsys.readouterr().err, raw


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


def test_sweep_ignores_the_run_cell(capsys):
    # sweep_beta ignores its base's beta, r and psi_mode, so the run section's
    # values of them, even ones that no run accepts, change no row
    argv = ["sweep", *FAST, "--set", "sweep.betas=[1,2]", "--set", "sweep.distances=[20.0]"]
    assert main(argv) == 0
    want = capsys.readouterr().out
    for junk in (["beta=0", "r=1e-80", "psi_mode=half"], ["beta=true", "r=null", "psi_mode=3"]):
        assert main([*argv, *(arg for expr in junk for arg in ("--set", expr))]) == 0
        assert capsys.readouterr().out == want


@pytest.mark.parametrize("expr, message", [
    ("sweep.betas=[2,0]", "sweep.betas[1]: beta must be a positive integer, got 0"),
    ('sweep.distances=[20.0,"x"]', "sweep.distances[1]: r must be a finite real"),
    ('sweep.modes=["full","half"]', "sweep.modes[1]: psi_mode must be one of"),
    # the gain 1e200 is a float, the quartic weight is not: refused before any
    # cell runs
    ("sweep.distances=[20,1e-50]", "sweep.distances[1]: the harvest weights"),
], ids=["beta", "distance", "mode", "overflowing weight"])
def test_sweep_bad_axis_value_exits_1_naming_it(capsys, expr, message):
    assert main(["sweep", *FAST, "--set", expr]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"chaoswpt: error: {message}")
    assert err.count("\n") == 1


@pytest.mark.parametrize("expr, key", [
    ('sweep.betas="ab"', "sweep.betas"), ("sweep.distances=20", "sweep.distances"),
    ('sweep.modes="full"', "sweep.modes"), ("sweep.betas=[]", "sweep.betas"),
])
def test_sweep_axes_must_be_json_lists(capsys, expr, key):
    assert main(["sweep", *FAST, "--set", expr]) == 1
    err = capsys.readouterr().err
    assert key in err
    assert "Traceback" not in err


def _strict_json(text: str):
    def refuse(name):
        raise AssertionError(f"{name} is not JSON")
    return json.loads(text, parse_constant=refuse)


def test_json_output_writes_non_finite_floats_as_null(capsys):
    # one frame has no standard error
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a one-frame run's noise warning
        assert main(["run", "--set", "n_frames=1", "--format", "json"]) == 0
    (row,) = _strict_json(capsys.readouterr().out)["rows"]
    assert row["z_stderr"] is None and row["z_analytic"] > 0
    # a NaN echoed from the config: an unused section, so the run goes ahead
    assert main(["run", *FAST, "--set", "sweep.distances=[NaN]", "--format", "json"]) == 0
    payload = _strict_json(capsys.readouterr().out)
    assert payload["config"]["sweep"]["distances"] == [None]


def test_papr_command_rows(capsys):
    assert main(["papr", "--set", "beta=3", *FAST]) == 0
    header, rows = _csv_rows(capsys.readouterr().out)
    assert tuple(header) == ("beta", "mode", "n_frames", "papr_plain",
                             "papr_expectation_normalized", "papr_bound")
    assert [r["mode"] for r in rows] == ["bypass", "full"]
    assert [float(r["papr_bound"]) for r in rows] == [2.0, 12.0]
    for row in rows:
        assert float(row["papr_expectation_normalized"]) <= float(row["papr_bound"])


def test_crossover_unequal_distances(capsys):
    code = main(["crossover", "--set", "crossover.r_c=30",
                 "--set", "crossover.r_nc=20"])
    assert code == 0
    header, rows = _csv_rows(capsys.readouterr().out)
    assert tuple(header) == ("r_c", "r_nc", "bound", "beta_min",
                             "z_with_correlator", "z_without_correlator")
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


@pytest.mark.parametrize("sets, key", [
    (['crossover.r_c="x"', "crossover.r_nc=20"], "crossover.r_c"),
    (["crossover.r_c=30", "crossover.r_nc=-20"], "crossover.r_nc"),
    (["crossover.r_c=30", "crossover.r_nc=20", 'alpha="x"'], "alpha"),
    (["crossover.r_c=30", "crossover.r_nc=20", "alpha=-1"], "alpha"),
    # the gain 1e-320 is a float, its square is 0
    (["crossover.r_c=1e80", "crossover.r_nc=20"], "r_c=1e+80, alpha=4.0"),
    # the raw link's squared gain overflows, so does the bound
    (["crossover.r_c=30", "crossover.r_nc=1e-50"], "r_nc=1e-50, alpha=4.0 (got inf)"),
    # the bound is finite, the harvested DC at beta ~ 1.9e299 is not
    (["crossover.r_c=1", "crossover.r_nc=3e-38"], "crossover.r_nc=3e-38, alpha=4.0"),
    # a linear rectifier has no crossover: the correlator gains only through k4
    (["crossover.r_c=30", "crossover.r_nc=20", "k4=0"], "quartic rectifier term (k4 > 0)"),
    # a link's own gain r**-4 overflows: the message names the link's key
    (["crossover.r_c=30", "crossover.r_nc=1e-80"], "crossover.r_nc=1e-80"),
    (["crossover.r_c=1e-80", "crossover.r_nc=20"], "crossover.r_c=1e-80"),
    # an integer a float holds, whose square it does not
    (["crossover.r_c=30", "crossover.r_nc=20", "r_ant=1" + "0" * 200], "EhCircuit.r_ant"),
])
def test_crossover_rejects_bad_inputs(capsys, sets, key):
    argv = ["crossover"]
    for expr in sets:
        argv += ["--set", expr]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert key in err
    assert "Traceback" not in err


# the raw link's gain r_nc**-4 is a float there, but its square overflows
@given(st.floats(1e-77, 10 ** -38.5, exclude_min=True, exclude_max=True))
@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_crossover_overflowing_raw_link_exits_one(capsys, r_nc):
    capsys.readouterr()
    code = main(["crossover", "--set", "crossover.r_c=30",
                 "--set", f"crossover.r_nc={r_nc!r}"])
    err = capsys.readouterr().err
    assert code == 1, err
    assert "r_nc" in err
    assert "Traceback" not in err


def test_papr_with_zero_mean_power_exits_one(capsys):
    # seed 5 is the first seed from 1 up at which neither of the 2 frames
    # carries bit +1 (a chance of 1/4): the full-mode symbols hold no power;
    # that count is the first draw of the run's one batch stream
    assert batch_rng(5, "full").binomial(2, 0.5) == 0
    assert main(["papr", "--set", "beta=2", "--set", "n_frames=2",
                 "--set", "run.seed=5"]) == 1
    err = capsys.readouterr().err
    assert "realized mean power is 0; PAPR undefined" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command, n_frames", [("run", 1), ("sweep", 50)])
def test_a_library_warning_is_one_line_once(capsys, command, n_frames):
    # the library warns once per run request: run_once for the run, and
    # sweep_beta for the sweep's base, not once per cell
    for _ in range(2):  # and again in a second call in the same process
        assert main([command, "--set", f"n_frames={n_frames}"]) == 0
        assert capsys.readouterr().err.splitlines() == [
            f"chaoswpt: warning: n_frames={n_frames} gives a very noisy estimate"]


@pytest.mark.parametrize("command, n_frames", [("run", 1), ("sweep", 50)])
def test_a_warning_raised_as_an_error_exits_one(capsys, command, n_frames):
    # python -W error turns the library's warning into an exception
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--set", f"n_frames={n_frames}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"chaoswpt: error: n_frames={n_frames} gives a very noisy estimate"]


def test_verify_dist_battery(capsys):
    assert main(["verify-dist", "--set", "n_samples=150000"]) == 0
    header, rows = _csv_rows(capsys.readouterr().out)
    assert tuple(header) == ("family", "beta", "atom_mass", "norm_integral", "norm_target",
                             "norm_abs_err", "max_moment_rel_err", "ks_stat", "n", "status")
    assert len(rows) == 7
    assert all(row["status"] == "ok" for row in rows)
    assert all(float(row["ks_stat"]) < 0.005 for row in rows)
    # n counts the symbols, erased ones included, not the off-atom draws
    assert all(row["n"] == "150000" for row in rows)
    assert {row["family"] for row in rows} == {
        "S_b1", "Z_b1", "P_b1", "S_clt", "Delta_b1", "Theta_b1"}


@pytest.mark.parametrize("argv, key", [
    (["verify-dist", "--set", "n_samples=2.5"], "n_samples must be an integer"),
    (["verify-dist", "--set", "n_samples=true"], "n_samples must be an integer"),
    (["verify-dist", "--set", 'n_samples="5"'], "n_samples must be an integer"),
    (["verify-dist", "--set", "n_samples=0"], "n_samples must be >= 1"),
    (["verify-dist", "--set", "n_samples=100", "--set", "seed=-1"], "seed must be an unsigned"),
    (["papr", *FAST, "--set", "seed=-1"], "seed must be an unsigned"),
    (["papr", *FAST, "--set", f"seed={2**64}"], "seed must be an unsigned"),
    (["papr", *FAST, "--set", "xi=1"], "xi (map degree) must be >= 2"),
])
def test_verify_dist_and_papr_name_a_bad_key(capsys, argv, key):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert key in err
    assert "Traceback" not in err


def test_usage_errors_exit_one():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["run", "--format", "xml"])
    assert exc.value.code == 1


@pytest.mark.parametrize("expr, key", [
    ("beta=2.0", "beta"), ("n_frames=1e5", "n_frames"), ("beta=true", "beta"),
    ("xi=1", "xi (map degree) must be >= 2"),
])
def test_integer_keys_reject_floats_and_bools(capsys, expr, key):
    assert main(["run", *FAST, "--set", expr]) == 1
    err = capsys.readouterr().err
    assert key in err
    assert "Traceback" not in err


#: each link with the check that refuses it: the path gain leaves float64;
#: the weight c4 overflows (RunConfig's weight check); the weights are finite,
#: but the run's mean and the closed form overflow (the estimate's own guard)
_UNREPRESENTABLE = {"r=1e-300": "path gain", "alpha=1e3": "path gain",
                    "r=1e-50": "harvest weights",
                    "r=1e-38": "harvested DC is not representable"}


@pytest.mark.parametrize("expr", list(_UNREPRESENTABLE))
def test_unrepresentable_path_gain_exits_one(capsys, expr):
    assert main(["run", *FAST, "--set", expr]) == 1
    err = capsys.readouterr().err
    assert _UNREPRESENTABLE[expr] in err
    assert "r=" in err and "alpha=" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("expr, key", [
    ("r=abc", "r must"), ('k2="x"', "EhCircuit.k2"), ("alpha=NaN", "alpha must"),
    ("alpha=-1", "alpha (path-loss exponent) must be > 0"), ("r=-5", "r (distance) must be > 0"),
    ("r=Infinity", "r must"), ("r=null", "r must"), ("k4=true", "EhCircuit.k4"),
    ("r_ant=-Infinity", "EhCircuit.r_ant"), ("p_t_watts=NaN", "p_t_watts"),
    ("p_t_watts=true", "p_t_watts"),
    ("p_t_dbm=5000", "p_t_dbm"), ("p_t_dbm=-5000", "p_t_dbm"),
    # circuit scales that leave float64: rho2 underflows, k4*r_ant**2 overflows
    ("p_t_watts=1e-320", "EhCircuit.p_t"), ("r_ant=1e200", "EhCircuit.r_ant"),
    # an integer no float can hold
    ("r=1" + "0" * 400, "r must"), ("p_t_watts=1" + "0" * 400, "p_t_watts"),
    # an integer a float holds, whose square it does not
    ("r_ant=1" + "0" * 200, "EhCircuit.r_ant"),
])
def test_real_keys_reject_non_finite_values(capsys, expr, key):
    assert main(["run", *FAST, "--set", expr]) == 1
    err = capsys.readouterr().err
    assert key in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_received_scale_that_underflows_exits_one(capsys, command):
    # the path gain 1e-312 is a float; times rho1 = 1.7e-21 it is 0
    r = "r=1e78" if command == "run" else "sweep.distances=[1e78]"
    assert main([command, *FAST, "--set", r, "--set", "p_t_watts=1e-20"]) == 1
    err = capsys.readouterr().err
    assert "c2=0.0, c4=0.0 overflow or underflow to 0 for r=1e+78, alpha=4.0" in err
    assert "Traceback" not in err


#: the numeric --set keys; beta, xi, n_frames and n_samples stay small to
#: keep runs short
_SMALL_INT_KEYS = {"beta": (-1, 6), "xi": (0, 4), "n_frames": (-2, 300),
                   "n_samples": (-2, 2000)}
_NUMERIC_KEYS = ("r", "alpha", "seed", "k2", "k4", "r_ant", "p_t_dbm", "p_t_watts",
                 *_SMALL_INT_KEYS)
_ODD = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([1e300, -1e300, 1e-300, 1e-320, 5e-324, 2.2e-308, 0.0, -0.0]),
    st.text(max_size=4), st.booleans(), st.none(),
)
#: extreme magnitudes 10**(e/k), with e over float64's decimal exponents and
#: k over the powers the model raises distances and gains to, so that v**k
#: lands anywhere in float64; this reaches narrow overflow windows such as
#: crossover.r_nc in (1e-77, 1e-38.5), where the raw link's gain overflows
_EXTREME = st.builds(lambda sign, e, k: sign * 10.0 ** (e / k),
                     st.sampled_from([1.0, -1.0]), st.sampled_from(range(-320, 309)),
                     st.sampled_from([1, 2, 4, 8]))
#: the values a sweep axis list holds when it is valid; betas stay small
_SWEEP_AXES = {"sweep.betas": st.integers(-1, 6),
               "sweep.distances": st.one_of(st.integers(), _EXTREME),
               "sweep.modes": st.sampled_from(["full", "bypass"])}


def _either(a, b):
    # even odds; st.one_of weighs each of _ODD's branches like a strategy
    return st.booleans().flatmap(lambda pick_a: a if pick_a else b)


def _value(key):
    if key in _SWEEP_AXES:
        # a non-list, an empty list, or a list mixing valid and odd values
        return _either(_ODD, st.lists(_either(_SWEEP_AXES[key], _ODD), max_size=3))
    if key in _SMALL_INT_KEYS:
        return st.one_of(st.integers(*_SMALL_INT_KEYS[key]), _ODD)
    return st.one_of(st.integers(), _ODD, _EXTREME)


@st.composite
def _numeric_overrides(draw, keys=_NUMERIC_KEYS):
    keys = draw(st.lists(st.sampled_from(keys), min_size=1, max_size=3, unique=True))
    return {key: draw(_value(key)) for key in keys}


@given(_numeric_overrides())
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_run_fuzz_exits_cleanly(capsys, overrides):
    argv = ["run", "--set", "n_frames=200", "--set", "beta=3"]
    for key, value in overrides.items():
        argv += ["--set", f"{key}={json.dumps(value)}"]
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a short run's noise warning
        code = main(argv)
    out, err = capsys.readouterr()
    assert code in (0, 1), (argv, err)
    assert "Traceback" not in err
    if code == 0:
        header, rows = _csv_rows(out)
        (row,) = rows
        for col in header[3:]:
            value = float(row[col])
            # one frame has no standard error: NaN by definition
            if col == "z_stderr" and overrides.get("n_frames") == 1:
                assert math.isnan(value)
            else:
                assert math.isfinite(value), (argv, col, row[col])


#: per command, the arguments every fuzz case starts from and the keys it varies
_FUZZ_COMMANDS = {
    "papr": (["--set", "n_frames=200", "--set", "beta=3"],
             ("beta", "n_frames", "seed", "xi")),
    "crossover": (["--set", "crossover.r_c=30", "--set", "crossover.r_nc=20"],
                  ("crossover.r_c", "crossover.r_nc", "alpha", "k2", "k4", "r_ant",
                   "p_t_watts")),
    "verify-dist": (["--set", "n_samples=200"], ("n_samples", "seed")),
    "sweep": (["--set", "n_frames=200", "--set", "sweep.betas=[1,3]",
               "--set", "sweep.distances=[20]", "--set", 'sweep.modes=["full"]'],
              tuple(_SWEEP_AXES)),
}
_TEXT_COLUMNS = ("mode", "family", "status")


@pytest.mark.parametrize("command", list(_FUZZ_COMMANDS))
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_other_commands_fuzz_exits_cleanly(capsys, command, data):
    base, keys = _FUZZ_COMMANDS[command]
    overrides = data.draw(_numeric_overrides(keys))
    argv = [command, *base]
    for key, value in overrides.items():
        argv += ["--set", f"{key}={json.dumps(value)}"]
    capsys.readouterr()
    code = main(argv)
    out, err = capsys.readouterr()
    # verify-dist exits 2 when a family misses its gate, as it does at n = 200
    assert code in ((0, 1, 2) if command == "verify-dist" else (0, 1)), (argv, err)
    assert "Traceback" not in err
    if code != 1:
        header, rows = _csv_rows(out)
        for row in rows:
            for col in header:
                if col not in _TEXT_COLUMNS:
                    assert math.isfinite(float(row[col])), (argv, col, row[col])
