"""Command-line interface: reports, exit codes, files and config round-trips."""
import json
import os

import pytest

from biphoton import cli
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


def test_state_json_report(capsys):
    assert main(["state", "--chi", "30", "--dphi", "180", "--json"]) == EXIT_OK
    obj = json.loads(capsys.readouterr().out)
    assert abs(obj["polarization_degree"] - 0.5) < 1e-9
    assert abs(obj["subtense_angle"] - 148.9155) < 1e-3
    assert abs(obj["d1_squared_over_d3_squared"] - 3.0) < 1e-9


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
    ],
    ids=["z1-nan", "z2-inf", "dphi-nan", "tc-nan", "pair-rate-inf", "drift", "duration",
         "drift-unseeded", "duration-unseeded"],
)
def test_sweep_bad_input_writes_no_file(tmp_path, capsys, bad):
    out = tmp_path / "x.csv"
    assert main(["sweep", "chi", *bad, "--out", str(out)]) == EXIT_USAGE
    assert not out.exists()
    assert list(tmp_path.iterdir()) == []
    assert "error:" in capsys.readouterr().err


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
