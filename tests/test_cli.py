"""Command-line interface: reports, exit codes, files and config round-trips."""
import dataclasses
import inspect
import json
import math
import os

import pytest

from biphoton import RateModel, SourceSetting, cli, sweep_chi, sweep_filter
from biphoton.cli import (
    EXIT_DEGENERATE,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    CliError,
    RunConfig,
    main,
)


# ---------------------------------------------------------------- state


def test_state_from_source_settings(capsys):
    assert main(["state", "--chi", "30", "--dphi", "180"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "P = 0.5" in out
    assert "sigma = 148.9155 deg" in out
    assert "theta=74.4577" in out and "phi=180.0000" in out


def test_state_from_amplitudes_fully_polarized(capsys):
    assert main(["state", "--c", "1,0,0"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "P = 1" in out
    assert out.count("theta=0.0000") == 2


def test_state_from_amplitudes_unpolarized(capsys):
    assert main(["state", "--c", "0,1,0"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "P = 0" in out
    assert "theta=0.0000" in out and "theta=180.0000" in out


def test_state_accepts_complex_amplitudes(capsys):
    assert main(["state", "--c", "0.5,0,-0.5+0.5j", "--json"]) == EXIT_OK
    obj = json.loads(capsys.readouterr().out)
    assert abs(obj["polarization_degree"]) <= 1.0


def test_state_rejects_zero_amplitudes(capsys):
    assert main(["state", "--c", "0,0,0"]) == EXIT_USAGE
    assert "error" in capsys.readouterr().err


def test_state_rejects_malformed_amplitudes(capsys):
    assert main(["state", "--c", "1,zebra,0"]) == EXIT_USAGE


@pytest.mark.parametrize(
    "bad, name", [(["--chi", "inf"], "chi"), (["--chi", "30", "--dphi", "nan"], "delta_phi")]
)
def test_state_rejects_non_finite_source_settings(capsys, bad, name):
    assert main(["state", *bad]) == EXIT_USAGE
    assert f"{name} must be finite" in capsys.readouterr().err


def test_state_requires_exactly_one_input_style(capsys):
    assert main(["state", "--chi", "30", "--c", "1,0,0"]) == EXIT_USAGE
    assert main(["state"]) == EXIT_USAGE


def test_state_at_the_float_limit_is_finite(capsys):
    assert main(["state", "--chi", "1e308", "--json"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert all(map(math.isfinite, report["stokes"].values()))
    assert math.isfinite(report["subtense_angle"])


def test_state_json_report(capsys):
    assert main(["state", "--chi", "30", "--dphi", "180", "--json"]) == EXIT_OK
    obj = json.loads(capsys.readouterr().out)
    assert abs(obj["polarization_degree"] - 0.5) < 1e-9
    assert abs(obj["subtense_angle"] - 148.9155) < 1e-3
    assert abs(obj["d1_squared_over_d3_squared"] - 3.0) < 1e-9


@pytest.mark.parametrize("c", ["1,0,1e-200", "1,0,5e-324", "1,0,0"])
def test_state_ratio_beyond_the_float_range_reads_inf(capsys, c):
    assert main(["state", "--c", c]) == EXIT_OK
    assert "d1^2/d3^2 = inf\n" in capsys.readouterr().out
    assert main(["state", "--c", c, "--json"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["d1_squared_over_d3_squared"] is None


# ---------------------------------------------------------------- partner


def test_partner_named_states(capsys):
    assert main(["partner", "H", "V", "D"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "theta=90.0000" in out and "phi=180.0000" in out  # linear -45


def test_partner_globe_cities(capsys):
    assert main(["partner", "--globe", "moscow", "turin", "baltimore", "--json"]) == EXIT_OK
    obj = json.loads(capsys.readouterr().out)
    assert abs(obj["partner_globe"]["latitude"] - (-52.0106)) < 0.01
    assert abs(obj["partner_globe"]["longitude"] - (-159.1233)) < 0.01
    assert obj["residual"] < 1e-12


def test_partner_numeric_coordinates(capsys):
    assert main(["partner", "0,0", "180,0", "90,0"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "theta=90.0000" in out and "phi=180.0000" in out


def test_partner_degenerate_exit_code(capsys):
    assert main(["partner", "V", "V", "H"]) == EXIT_DEGENERATE
    assert "degenerate" in capsys.readouterr().out


def test_partner_unknown_name(capsys):
    assert main(["partner", "H", "V", "X99"]) == EXIT_USAGE


# ---------------------------------------------------------------- sweep


def test_sweep_chi_summary_and_file(tmp_path, capsys):
    out = tmp_path / "dip_scan.csv"
    code = main(
        ["sweep", "chi", "--z1", "45", "--z2", "60", "--dphi", "180", "--out", str(out)]
    )
    assert code == EXIT_OK
    text = capsys.readouterr().out
    assert "argmin chi = 30.0000 deg" in text
    assert "min g2 = 1.000000" in text
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "param,R1,R2,Rc,g2"
    assert len(lines) == 182


def test_sweep_chi_negative_polarizer_minimum(tmp_path, capsys):
    out = tmp_path / "dip_scan_b.csv"
    code = main(
        ["sweep", "chi", "--z1", "45", "--z2", "-60", "--dphi", "180", "--out", str(out)]
    )
    assert code == EXIT_OK
    assert "argmin chi = 60.0000 deg" in capsys.readouterr().out


def test_sweep_polarizer_minimum(tmp_path, capsys):
    out = tmp_path / "polarizer_scan.csv"
    code = main(
        ["sweep", "polarizer", "--chi", "30", "--z2", "60", "--dphi", "180",
         "--out", str(out)]
    )
    assert code == EXIT_OK
    assert "argmin zeta1 = 45.0000 deg" in capsys.readouterr().out


def test_sweep_json_output(tmp_path, capsys):
    out = tmp_path / "sweep.json"
    code = main(
        ["sweep", "chi", "--grid", "0:90:5", "--format", "json", "--out", str(out)]
    )
    assert code == EXIT_OK
    obj = json.loads(out.read_text())
    assert obj["param_name"] == "chi"
    assert len(obj["rows"]) == 19


def test_sweep_seeded_outputs_identical(tmp_path, capsys):
    args = ["sweep", "chi", "--grid", "0:90:5", "--seed", "7", "--duration", "2"]
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(args + ["--out", str(out1)]) == EXIT_OK
    assert main(args + ["--out", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()


def test_sweep_uses_outdir_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("BIPHOTON_OUTDIR", str(tmp_path))
    assert main(["sweep", "chi", "--grid", "0:90:10", "--out", "bare.csv"]) == EXIT_OK
    assert (tmp_path / "bare.csv").exists()


def test_sweep_rate_model_overrides(tmp_path, capsys):
    out = tmp_path / "s.csv"
    code = main(
        ["sweep", "chi", "--grid", "0:90:10", "--pair-rate", "2e4", "--eta1", "0.2",
         "--tc", "1e-9", "--out", str(out)]
    )
    assert code == EXIT_OK


def test_sweep_polarizer_requires_chi(capsys):
    assert main(["sweep", "polarizer", "--z2", "60"]) == EXIT_USAGE


def test_sweep_bad_grid(capsys):
    assert main(["sweep", "chi", "--grid", "nonsense"]) == EXIT_USAGE
    assert main(["sweep", "chi", "--grid", "0:inf:1"]) == EXIT_USAGE
    assert main(["sweep", "chi", "--grid", "0:90:nan"]) == EXIT_USAGE
    capsys.readouterr()
    assert main(["sweep", "chi", "--grid", ""]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: grid must be 'start:stop:step', got ''\n"


def test_sweep_grid_over_the_point_cap_is_rejected_unbuilt(tmp_path, capsys):
    # one point over the cap: round(intervals) + 1 = cap + 1
    with pytest.raises(CliError, match="at most"):
        cli._parse_grid(f"0:1:{1.0 / cli._MAX_GRID_POINTS}")
    out = tmp_path / "x.csv"
    assert main(["sweep", "chi", "--grid", "0:90:1e-9", "--out", str(out)]) == EXIT_USAGE
    assert "at most" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_sweep_unwritable_path(capsys):
    code = main(
        ["sweep", "chi", "--grid", "0:90:10", "--out", "/no_such_dir_xyz/s.csv"]
    )
    assert code == EXIT_IO


@pytest.mark.parametrize(
    "bad",
    [
        ["--z1", "nan"],
        ["--z2", "inf"],
        ["--dphi", "nan"],
        ["--tc", "nan"],
        ["--pair-rate", "inf"],
        ["--seed", "1", "--drift", "1.5"],
        ["--seed", "1", "--duration", "inf"],
        ["--drift", "1.5"],
        ["--duration", "inf"],
        ["--eta1", "10", "--eta2", "10"],
        ["--grid", ""],
    ],
    ids=["z1-nan", "z2-inf", "dphi-nan", "tc-nan", "pair-rate-inf", "drift", "duration",
         "drift-unseeded", "duration-unseeded", "eta-above-1", "grid-empty"],
)
def test_sweep_bad_input_writes_no_file(tmp_path, capsys, bad):
    out = tmp_path / "x.csv"
    assert main(["sweep", "chi", *bad, "--out", str(out)]) == EXIT_USAGE
    assert not out.exists()
    assert list(tmp_path.iterdir()) == []
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "bad",
    [["--pair-rate", "1e308", "--eta1", "1", "--eta2", "1"], ["--tc", "1e-320"]],
    ids=["accidentals-overflow", "window-subnormal"],
)
def test_sweep_g2_beyond_the_float_range_exits_2(tmp_path, capsys, monkeypatch, bad):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("BIPHOTON_OUTDIR", str(tmp_path))
    argv = ["sweep", "chi", *bad, "--grid", "0:90:10", "--save-config", "c.json"]
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: g2 is not finite") and captured.err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_sweep_at_the_float_limit_is_finite(tmp_path, capsys):
    out = tmp_path / "big.csv"
    assert main(["sweep", "chi", "--grid", "1e308:1.7e308:1e307", "--out", str(out)]) == EXIT_OK
    rows = [row.split(",") for row in out.read_text().splitlines()[1:]]
    assert len(rows) == 8 and all(math.isfinite(float(x)) for row in rows for x in row)
    assert "min g2 = " in capsys.readouterr().out


def test_sweep_poisson_means_beyond_the_sampler_name_the_duration(tmp_path, capsys):
    out = tmp_path / "x.csv"
    argv = ["sweep", "chi", "--seed", "1", "--duration", "1e300", "--out", str(out)]
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: duration_per_point = 1e+300") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_sweep_with_every_g2_nan_writes_its_file(tmp_path, capsys):
    out = tmp_path / "e.csv"
    argv = ["sweep", "chi", "--grid", "0:90:10", "--pair-rate", "1e-3", "--seed", "1"]
    assert main([*argv, "--out", str(out)]) == EXIT_OK
    rows = out.read_text().splitlines()
    assert len(rows) == 11 and all(row.endswith(",nan") for row in rows[1:])
    assert "min g2 undefined" in capsys.readouterr().out


def test_sweep_write_is_atomic(tmp_path, capsys, monkeypatch):
    out = tmp_path / "s.csv"
    out.write_text("previous\n")

    def failing_replace(src, dst):
        raise OSError("replace failed")

    monkeypatch.setattr(os, "replace", failing_replace)
    assert main(["sweep", "chi", "--grid", "0:90:10", "--out", str(out)]) == EXIT_IO
    assert out.read_text() == "previous\n"
    assert list(tmp_path.iterdir()) == [out]
    monkeypatch.undo()
    assert main(["sweep", "chi", "--grid", "0:90:10", "--out", str(out)]) == EXIT_OK
    assert out.read_text().startswith("param,R1,R2,Rc,g2\n")
    assert list(tmp_path.iterdir()) == [out]


@pytest.mark.parametrize(
    "argv, code, head",
    [
        (["state", "--chi", "30", "--out"], EXIT_OK, "qutrit: "),
        (["partner", "H", "V", "D", "--out"], EXIT_OK, "partner (sphere): "),
        (["partner", "V", "V", "H", "--out"], EXIT_DEGENERATE, "degenerate geometry: "),
        (["state", "--chi", "30", "--save-config"], EXIT_OK, "{\n"),
    ],
    ids=["state-out", "partner-out", "partner-degenerate-out", "save-config"],
)
def test_report_and_config_writes_are_atomic(tmp_path, capsys, monkeypatch, argv, code, head):
    out = tmp_path / "report.txt"
    out.write_text("previous\n")

    def failing_replace(src, dst):
        raise OSError("replace failed")

    monkeypatch.setattr(os, "replace", failing_replace)
    assert main([*argv, str(out)]) == EXIT_IO
    assert out.read_text() == "previous\n"
    assert list(tmp_path.iterdir()) == [out]
    monkeypatch.undo()
    assert main([*argv, str(out)]) == code
    assert out.read_text().startswith(head)
    assert list(tmp_path.iterdir()) == [out]


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["no-such-command"])
    assert err.value.code == 2


# ---------------------------------------------------------------- config


def test_config_round_trips_through_file(tmp_path):
    cfg = RunConfig(
        command="sweep",
        params={"kind": "chi", "zeta1": 45.0, "zeta2": 60.0, "dphi": 180.0,
                "duration": 1.0, "drift": 0.0},
        output_format="csv",
        output_path="x.csv",
        seed=3,
        rate_model={"pair_rate": 2.0e4},
    )
    path = tmp_path / "cfg.json"
    cfg.save(path)
    assert RunConfig.load(path) == cfg


def test_saved_config_reproduces_run(tmp_path, capsys):
    out1 = tmp_path / "direct.csv"
    cfgpath = tmp_path / "run.json"
    assert (
        main(
            ["sweep", "chi", "--grid", "0:90:5", "--seed", "11", "--out", str(out1),
             "--save-config", str(cfgpath)]
        )
        == EXIT_OK
    )
    # rerun purely from the saved config, into a different file
    cfg = RunConfig.load(cfgpath)
    out2 = tmp_path / "replay.csv"
    cfg.output_path = str(out2)
    cfgpath2 = tmp_path / "run2.json"
    cfg.save(cfgpath2)
    assert main(["--config", str(cfgpath2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()


def test_config_flag_conflicts_with_command(tmp_path):
    cfg = RunConfig(command="state", params={"chi": 30.0, "dphi": 180.0})
    path = tmp_path / "c.json"
    cfg.save(path)
    with pytest.raises(SystemExit) as err:
        main(["state", "--chi", "30", "--config", str(path)])
    assert err.value.code == 2


def test_config_runs_state(tmp_path, capsys):
    cfg = RunConfig(command="state", params={"chi": 30.0, "dphi": 180.0},
                    output_format="text")
    path = tmp_path / "c.json"
    cfg.save(path)
    assert main(["--config", str(path)]) == EXIT_OK
    assert "P = 0.5" in capsys.readouterr().out


def test_missing_config_file_is_io_error(capsys):
    assert main(["--config", "/no/such/config.json"]) == EXIT_IO


# ---------------------------------------------------------------- schema

SAVED_STATE = """{
  "command": "state",
  "output_format": "text",
  "output_path": null,
  "params": {
    "chi": 30.0,
    "dphi": 180.0
  },
  "rate_model": {},
  "seed": null
}
"""

SAVED_POLARIZER = """{
  "command": "sweep",
  "output_format": "csv",
  "output_path": null,
  "params": {
    "chi": 30.0,
    "dphi": 180.0,
    "drift": 0.0,
    "duration": 1.0,
    "fixed_zeta": 45.0,
    "kind": "polarizer",
    "which": "P2"
  },
  "rate_model": {},
  "seed": 3
}
"""


@pytest.mark.parametrize(
    "argv, saved",
    [
        (["state", "--chi", "30"], SAVED_STATE),
        (["sweep", "polarizer", "--chi", "30", "--which", "P2", "--seed", "3"], SAVED_POLARIZER),
    ],
    ids=["state", "sweep-polarizer"],
)
def test_save_config_bytes(tmp_path, capsys, monkeypatch, argv, saved):
    monkeypatch.setenv("BIPHOTON_OUTDIR", str(tmp_path))
    path = tmp_path / "saved.json"
    assert main([*argv, "--save-config", str(path)]) == EXIT_OK
    assert path.read_text(encoding="utf-8") == saved


@pytest.mark.parametrize(
    "argv, message",
    [
        (["200,0", "H", "V"], "theta must be in [0, 180]"),
        (["--globe", "100,0", "turin", "baltimore"], "latitude must be in [-90, 90]"),
        (["90,inf", "H", "V"], "phi must be finite"),
        (["--globe", "0,nan", "turin", "baltimore"], "longitude must be finite"),
        (["H", "V", "1,2,3"], "neither a named state"),
    ],
    ids=["theta", "latitude", "phi-inf", "longitude-nan", "three-numbers"],
)
def test_partner_rejects_bad_points_with_their_reason(capsys, argv, message):
    assert main(["partner", *argv]) == EXIT_USAGE
    assert message in capsys.readouterr().err


def test_partner_names_ignore_case(capsys):
    assert main(["partner", "H", "V", "Dbar"]) == EXIT_OK
    expected = capsys.readouterr().out
    assert main(["partner", "h", " v ", "DBAR"]) == EXIT_OK
    assert capsys.readouterr().out == expected
    assert main(["partner", "--globe", "Moscow", "TURIN", "baltimore"]) == EXIT_OK


_CHI_SWEEP = {"kind": "chi", "zeta1": 45.0, "zeta2": 60.0, "dphi": 180.0}

# (config, text naming the offending key)
MALFORMED_CONFIGS = {
    "partner-c-not-a-string": (
        {"command": "partner", "params": {"a": "H", "b": "V", "c": 5}}, "params.c"),
    "sweep-format-xml": (
        {"command": "sweep", "params": _CHI_SWEEP, "output_format": "xml",
         "output_path": "o.x"}, "output_format"),
    "sweep-kind-bogus": ({"command": "sweep", "params": {**_CHI_SWEEP, "kind": "bogus"}},
                         "params.kind"),
    "chi-true": ({"command": "state", "params": {"chi": True, "dphi": 180.0}}, "params.chi"),
    "not-an-object": ([1, 2], "config"),
    "state-missing-chi": ({"command": "state", "params": {"dphi": 180.0}},
                          "params.c, params.chi"),
    "polarizer-missing-chi": ({"command": "sweep", "params": {"kind": "polarizer"}},
                              "params.chi"),
    "c-and-chi": ({"command": "state", "params": {"c": [[1, 0], [0, 0], [0, 0]], "chi": 30.0}},
                  "params.c, params.chi"),
    "short-c": ({"command": "state", "params": {"c": [[1, 0], [0, 0]]}}, "params.c"),
    "seed-negative": ({"command": "sweep", "params": _CHI_SWEEP, "seed": -1}, "seed"),
    "seed-fraction": ({"command": "sweep", "params": _CHI_SWEEP, "seed": 1.5}, "seed"),
    "seed-true": ({"command": "sweep", "params": _CHI_SWEEP, "seed": True}, "seed"),
    "seed-on-state": ({"command": "state", "params": {"chi": 30.0}, "seed": 1}, "seed"),
    "grid-over-cap": (None, "params.grid"),  # built in the test from the cap
    "grid-not-a-list": ({"command": "sweep", "params": {**_CHI_SWEEP, "grid": "0:90:1"}},
                        "params.grid"),
    "rate-model-unknown-key": (
        {"command": "sweep", "params": _CHI_SWEEP, "rate_model": {"bogus": 1.0}},
        "rate_model.bogus"),
    "rate-model-string": (
        {"command": "sweep", "params": _CHI_SWEEP, "rate_model": {"eta1": "0.2"}},
        "rate_model.eta1"),
    "state-format-csv": ({"command": "state", "params": {"chi": 30.0}, "output_format": "csv"},
                         "output_format"),
    "missing-params": ({"command": "sweep"}, "params"),
    "missing-command": ({"params": {"chi": 30.0}}, "command"),
    "unknown-top-key": ({"command": "state", "params": {"chi": 30.0}, "chi": 30.0}, "chi"),
    "duration-string": ({"command": "sweep", "params": {**_CHI_SWEEP, "duration": "2"}},
                        "params.duration"),
    "int-too-large": ({"command": "state", "params": {"chi": 10**400}}, "params.chi"),
}


@pytest.mark.parametrize("name", MALFORMED_CONFIGS)
def test_malformed_config_exits_2_and_writes_nothing(
    tmp_path, tmp_path_factory, capsys, monkeypatch, name
):
    obj, key = MALFORMED_CONFIGS[name]
    if obj is None:
        # one point over a small cap, so nothing large is built
        monkeypatch.setattr(cli, "_MAX_GRID_POINTS", 4)
        grid = [float(i) for i in range(cli._MAX_GRID_POINTS + 1)]
        obj = {"command": "sweep", "params": {**_CHI_SWEEP, "grid": grid}}
    path = tmp_path_factory.mktemp("config") / "c.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("BIPHOTON_OUTDIR", str(tmp_path))
    assert main(["--config", str(path)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key}"), err
    assert list(tmp_path.iterdir()) == []


def test_deeply_nested_config_exits_2(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text("[" * 100_000, encoding="utf-8")
    assert main(["--config", str(path)]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: config: nested too deeply")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["state", "--chi", "inf"], "chi must be finite"),
        (["sweep", "chi", "--drift", "2"], "pump_drift"),
        (["partner", "H", "V", "1,2,3"], "'1,2,3'"),
        (["state", "--chi", "30", "--c", "1,0,0"], "params.c, params.chi"),
        (["sweep", "polarizer", "--z2", "60"], "params.chi"),
        (["sweep", "chi", "--seed", "-1"], "seed"),
    ],
    ids=["state-chi-inf", "sweep-drift", "partner-three-numbers", "state-c-and-chi",
         "polarizer-without-chi", "seed-negative"],
)
def test_rejected_run_saves_no_config(tmp_path, capsys, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("BIPHOTON_OUTDIR", str(tmp_path))
    assert main([*argv, "--save-config", "c.json"]) == EXIT_USAGE
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_config_defaults_match_the_command_line(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("BIPHOTON_OUTDIR", str(tmp_path))
    for argv, obj in (
        (["sweep", "polarizer", "--chi", "30", "--which", "P2"],
         {"command": "sweep", "params": {"kind": "polarizer", "chi": 30.0, "which": "P2"}}),
        (["state", "--chi", "30"], {"command": "state", "params": {"chi": 30.0}}),
        (["partner", "H", "V", "D"], {"command": "partner", "params": {"a": "H", "b": "V", "c": "D"}}),
    ):
        expected = cli.config_from_args(cli.build_parser().parse_args(argv))
        assert RunConfig.from_json_obj(obj) == expected


def test_run_defaults_are_the_library_defaults():
    chi, polarizer = cli._PARAMS["sweep:chi"], cli._PARAMS["sweep:polarizer"]
    for sweep in (sweep_chi, sweep_filter):
        library = inspect.signature(sweep).parameters
        for key, name in (("dphi", "delta_phi"), ("duration", "duration_per_point"),
                          ("drift", "pump_drift")):
            assert chi[key][1] == polarizer[key][1] == library[name].default, (sweep, key)
    library = inspect.signature(sweep_filter).parameters
    assert polarizer["which"][1] == library["which_filter"].default
    fixed_zeta = polarizer["fixed_zeta"][1]({"which": library["which_filter"].default})
    assert fixed_zeta == chi["zeta2"][1] == library["fixed_zeta"].default
    assert cli._PARAMS["state:chi"]["dphi"][1] == SourceSetting(0.0).delta_phi
    assert list(cli._RATE_MODEL) == [f.name for f in dataclasses.fields(RateModel)]


def _config_of(argv: list[str]) -> dict:
    return cli.config_from_args(cli.build_parser().parse_args(argv)).to_json_obj()


_POLARIZER = ["sweep", "polarizer", "--chi", "30"]


# argv, then the dotted config key the last option sets and its value
OPTION_KEYS = [
    (["state", "--chi", "30"], "params.chi", 30.0),
    (["state", "--chi", "30", "--dphi", "90"], "params.dphi", 90.0),
    (["state", "--c", "1,0,1j"], "params.c", [[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]]),
    (["state", "--chi", "30", "--json"], "output_format", "json"),
    (["state", "--chi", "30", "--out", "r.txt"], "output_path", "r.txt"),
    (["partner", "H", "V", "D"], "params.a", "H"),
    (["partner", "H", "V", "D"], "params.b", "V"),
    (["partner", "H", "V", "D"], "params.c", "D"),
    (["partner", "moscow", "turin", "bounty", "--globe"], "params.globe", True),
    (["partner", "H", "V", "D", "--json"], "output_format", "json"),
    (["partner", "H", "V", "D", "--out", "p.txt"], "output_path", "p.txt"),
    (["sweep", "chi"], "params.kind", "chi"),
    (["sweep", "chi", "--z1", "10"], "params.zeta1", 10.0),
    (["sweep", "chi", "--z2", "20"], "params.zeta2", 20.0),
    (["sweep", "chi", "--dphi", "90"], "params.dphi", 90.0),
    (["sweep", "chi", "--grid", "0:2:1"], "params.grid", [0.0, 1.0, 2.0]),
    (["sweep", "chi", "--format", "json"], "output_format", "json"),
    (["sweep", "chi", "--out", "s.csv"], "output_path", "s.csv"),
    (["sweep", "chi", "--seed", "7"], "seed", 7),
    (["sweep", "chi", "--duration", "2"], "params.duration", 2.0),
    (["sweep", "chi", "--drift", "0.1"], "params.drift", 0.1),
    (["sweep", "chi", "--pair-rate", "5e3"], "rate_model.pair_rate", 5e3),
    (["sweep", "chi", "--eta1", "0.2"], "rate_model.eta1", 0.2),
    (["sweep", "chi", "--eta2", "0.3"], "rate_model.eta2", 0.3),
    (["sweep", "chi", "--tc", "1e-8"], "rate_model.coincidence_window", 1e-8),
    (["sweep", "chi", "--bg1", "4"], "rate_model.background1", 4.0),
    (["sweep", "chi", "--bg2", "5"], "rate_model.background2", 5.0),
    (_POLARIZER, "params.chi", 30.0),
    ([*_POLARIZER, "--which", "P2"], "params.which", "P2"),
    ([*_POLARIZER, "--z2", "20"], "params.fixed_zeta", 20.0),
    ([*_POLARIZER, "--which", "P2", "--z1", "10"], "params.fixed_zeta", 10.0),
]

# argv with options that do not enter the config, and the argv without them
OPTIONS_LEFT_OUT = [
    (["sweep", "chi", "--chi", "30", "--which", "P2"], ["sweep", "chi"]),
    ([*_POLARIZER, "--z1", "10", "--z2", "20"], [*_POLARIZER, "--z2", "20"]),
    ([*_POLARIZER, "--which", "P2", "--z1", "10", "--z2", "20"],
     [*_POLARIZER, "--which", "P2", "--z1", "10"]),
    (["state", "--chi", "30", "--save-config", "c.json"], ["state", "--chi", "30"]),
    (["partner", "H", "V", "D", "--save-config", "c.json"], ["partner", "H", "V", "D"]),
    (["sweep", "chi", "--save-config", "c.json"], ["sweep", "chi"]),
]


@pytest.mark.parametrize("argv, key, value", OPTION_KEYS)
def test_every_option_lands_on_its_config_key(argv, key, value):
    obj = _config_of(argv)
    for part in key.split("."):
        obj = obj[part]
    assert obj == value and type(obj) is type(value)


@pytest.mark.parametrize("argv, same_as", OPTIONS_LEFT_OUT)
def test_options_outside_the_run_leave_the_config_alone(argv, same_as):
    assert _config_of(argv) == _config_of(same_as)


def test_the_option_tables_cover_every_option():
    subparsers = next(
        action for action in cli.build_parser()._actions if action.dest == "command"
    )
    options = {
        (command, option)
        for command, sub in subparsers.choices.items()
        for action in sub._actions
        for option in action.option_strings
        if option not in ("-h", "--help")
    }
    tested = {
        (argv[0], option)
        for argv in [case[0] for case in OPTION_KEYS + OPTIONS_LEFT_OUT]
        for option in argv
    }
    assert options <= tested, sorted(options - tested)
