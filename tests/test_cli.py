"""Command line behavior: subcommands, exit codes, formats."""
import csv
import io
import json

import numpy as np
import pytest

from ringcf.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_help_exits_zero():
    with pytest.raises(SystemExit) as e:
        main(["--help"])
    assert e.value.code == 0


def test_unknown_flag_usage_error():
    with pytest.raises(SystemExit) as e:
        main(["fields", "--bogus"])
    assert e.value.code == 2


def test_csv_outside_sweeps_is_usage_error(capsys):
    for cmd in (["rate", "--field", "quad-5"], ["fields"]):
        with pytest.raises(SystemExit) as e:
            main(cmd + ["--format", "csv"])
        assert e.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_fields_listing(capsys):
    code, out, _ = run_cli(capsys, "fields")
    assert code == 0
    listing = json.loads(out)
    by_name = {e["name"]: e for e in listing}
    assert by_name["quad-5"]["discriminant"] == 5
    assert any(e["discriminant"] == 14641 for e in listing)
    assert sum(1 for e in listing if e["name"].startswith("quad-")) == 5


def test_rate_low_power_zero(capsys):
    code, out, _ = run_cli(capsys, "rate", "--field", "quad-5",
                           "--snr-db", "-120", "--seed", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["rates_am"][0] < 1e-6


def test_rate_deterministic_with_channel_file(tmp_path, capsys):
    ch = {"h": [[0.3, -1.2], [0.7, 0.4]], "snr_db": 25.0}
    path = tmp_path / "ch.json"
    path.write_text(json.dumps(ch))
    code1, out1, _ = run_cli(capsys, "rate", "--field", "quad-5",
                             "--channel", str(path), "--snr-db", "25")
    code2, out2, _ = run_cli(capsys, "rate", "--field", "quad-5",
                             "--channel", str(path), "--snr-db", "25")
    assert code1 == code2 == 0 and out1 == out2


def test_rate_channel_file_sets_snr(tmp_path, capsys):
    path = tmp_path / "ch.json"
    path.write_text(json.dumps({"h": [[0.3, -1.2], [0.7, 0.4]], "snr_db": 25.0}))
    code, out, _ = run_cli(capsys, "rate", "--field", "quad-5", "--channel", str(path))
    assert code == 0
    assert json.loads(out)["channel"]["snr_db"] == pytest.approx(25.0)
    # the flag overrides the file only when it is given
    code, out, _ = run_cli(capsys, "rate", "--field", "quad-5", "--channel",
                           str(path), "--snr-db", "10")
    assert code == 0
    assert json.loads(out)["channel"]["snr_db"] == pytest.approx(10.0)
    # a random channel defaults to 20 dB
    code, out, _ = run_cli(capsys, "rate", "--field", "quad-5", "--seed", "1")
    assert json.loads(out)["channel"]["snr_db"] == pytest.approx(20.0)


def test_rate_random_channel_seeded(capsys):
    c1, o1, _ = run_cli(capsys, "rate", "--field", "quad-8", "--channel",
                        "random", "--seed", "7")
    c2, o2, _ = run_cli(capsys, "rate", "--field", "quad-8", "--channel",
                        "random", "--seed", "7")
    assert c1 == c2 == 0 and o1 == o2


def test_codec_demo_default(capsys):
    code, out, _ = run_cli(capsys, "codec-demo")
    assert code == 0
    doc = json.loads(out)
    assert doc["decoded_messages"] == [2, 3]
    assert [r["ff_equation"] for r in doc["relays"]] == [[3], [1]]


def test_codec_demo_single_relay(capsys):
    code, out, _ = run_cli(capsys, "codec-demo", "--relay", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["relays"][0]["ff_equation"] == [3]
    assert "decoded_messages" not in doc


def test_codec_demo_zero_messages(capsys):
    code, out, _ = run_cli(capsys, "codec-demo", "--messages", "0,0")
    assert code == 0
    doc = json.loads(out)
    assert doc["decoded_messages"] == [0, 0]
    assert all(c == [[0, 0]] for c in doc["codewords"])


def test_codec_demo_arbitrary_messages_round_trip(capsys):
    code, out, _ = run_cli(capsys, "codec-demo", "--messages", "4,1")
    assert code == 0
    assert json.loads(out)["decoded_messages"] == [4, 1]


def test_codec_demo_bad_messages_are_usage_errors(capsys):
    for messages in ("1,2,3", "a,b", "7"):
        with pytest.raises(SystemExit) as e:
            main(["codec-demo", "--messages", messages])
        assert e.value.code == 2
    assert "expected two integers" in capsys.readouterr().err


def test_sweep_csv_and_json_agree(tmp_path, capsys):
    common = ["sweep", "--fields", "quad-5", "--trials", "3", "--seed", "2",
              "--snr-grid-db", "0:10:20", "--metrics", "rate1,mac"]
    code, out_csv, _ = run_cli(capsys, *common, "--format", "csv")
    assert code == 0
    code, out_json, _ = run_cli(capsys, *common, "--format", "json")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out_csv)))
    docs = json.loads(out_json)
    assert len(rows) == len(docs)
    csv_map = {(r["field"], r["metric"], float(r["snr_db"])): float(r["mean"])
               for r in rows}
    for d in docs:
        assert csv_map[(d["field"], d["metric"], d["snr_db"])] == d["mean"]


def test_sweep_out_file(tmp_path, capsys):
    path = tmp_path / "o.csv"
    code, _, _ = run_cli(capsys, "sweep", "--fields", "quad-5", "--trials", "2",
                         "--snr-grid-db", "10", "--out", str(path))
    assert code == 0
    assert path.read_text().startswith("snr_db,field,metric")


def test_if_sweep_runs(capsys):
    code, out, _ = run_cli(capsys, "if-sweep", "--fields", "quad-5", "--trials",
                           "2", "--snr-grid-db", "20", "--format", "json")
    assert code == 0
    metrics = {d["metric"] for d in json.loads(out)}
    assert metrics == {"if_rate", "z_if", "ml"}


def test_dof_command(capsys):
    code, out, _ = run_cli(capsys, "dof", "--field", "rational", "--users", "1",
                           "--seed", "3")
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["slope"] - 1.0) < 0.05 and doc["predicted"] == 1.0


def test_dof_z_baseline_flag(capsys):
    code, out, _ = run_cli(capsys, "dof", "--field", "quad-5", "--seed", "3",
                           "--z-baseline")
    assert code == 0
    assert json.loads(out)["slope"] < 0.2


def test_bad_snr_grids_are_usage_errors(capsys):
    for grid in ("0:5", "10:5:0", "0,a", "nan", "10,inf", "nan:1:5"):
        with pytest.raises(SystemExit) as e:
            main(["sweep", "--fields", "quad-5", "--trials", "1", "--snr-grid-db", grid])
        assert e.value.code == 2
    err = capsys.readouterr().err
    assert "expected start:step:stop" in err
    assert "grid '10,inf' has a non-finite value" in err


@pytest.mark.parametrize("argv", [
    ["dof", "--field", "quad-5", "--users", "0"],
    ["rate", "--field", "quad-5", "--users", "0"],
    ["rate", "--field", "quad-5", "--k", "0"],
    ["rate", "--field", "quad-5", "--k", "two"],
    ["sweep", "--fields", "quad-5", "--users", "0"],
    ["sweep", "--fields", "quad-5", "--trials", "0"],
    ["if-sweep", "--fields", "quad-5", "--trials", "-1"],
    ["sweep", "--fields", "quad-5", "--workers", "0"],
    ["if-sweep", "--fields", "quad-5", "--workers", "-1"],
])
def test_counts_below_one_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 2
    assert "expected a positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["rate", "--field", "quad-5", "--snr-db", "nan"],
    ["rate", "--field", "quad-5", "--snr-db", "inf"],
    ["rate", "--field", "quad-5", "--snr-db=-inf"],
    ["rate", "--field", "quad-5", "--snr-db", "loud"],
    ["dof", "--field", "quad-5", "--snr-top-db", "nan"],
    ["dof", "--field", "quad-5", "--snr-top-db", "inf"],
])
def test_non_finite_snr_is_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 2
    assert "expected a finite number" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["rate", "--field", "quad-5", "--snr-db", "4000"],
    ["dof", "--field", "quad-5", "--snr-top-db", "4000"],
])
def test_overflowing_snr_is_usage_error(argv, capsys):
    # 10^(4000/10) is too large for a float
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 2
    assert "SNR 4000 dB overflows" in capsys.readouterr().err


def test_overflowing_channel_file_snr_is_usage_error(tmp_path, capsys):
    path = tmp_path / "loud.json"
    path.write_text(json.dumps({"h": [[0.3, -1.2], [0.7, 0.4]], "snr_db": 4000}))
    with pytest.raises(SystemExit) as e:
        main(["rate", "--field", "quad-5", "--channel", str(path)])
    assert e.value.code == 2
    assert "snr_db 4000 of %s overflows" % path in capsys.readouterr().err
    # --snr-db replaces the file's value
    code, out, _ = run_cli(capsys, "rate", "--field", "quad-5", "--channel", str(path),
                           "--snr-db", "20")
    assert code == 0 and json.loads(out)["coeffs"]


@pytest.mark.parametrize("doc,message", [
    ({"h": [[0.3, -1.2], [0.7, 0.4]], "snr_db": [20]}, "'snr_db' must be numeric"),
    ({"h": [[0.3, -1.2], [0.7, 0.4]], "snr_db": "loud"}, "'snr_db' must be numeric"),
    ({"h": [[0.3, -1.2], [0.7, 0.4]]}, "has no 'snr_db'"),
    ({"snr_db": 20.0}, "has no 'h'"),
    ({"h": [[0.3, "x"], [0.7, 0.4]], "snr_db": 20.0}, "'h' must be numeric"),
    ([[0.3, -1.2], [0.7, 0.4]], "must be an object"),
], ids=["snr_db-list", "snr_db-text", "no-snr_db", "no-h", "h-text", "not-object"])
def test_bad_channel_files_are_usage_errors(doc, message, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SystemExit) as e:
        main(["rate", "--field", "quad-5", "--channel", str(path)])
    assert e.value.code == 2
    err = capsys.readouterr().err
    assert "channel file %s: " % path in err and message in err
    if "snr_db" in message:
        # --snr-db replaces the file's value, present or not
        code, out, _ = run_cli(capsys, "rate", "--field", "quad-5", "--channel", str(path),
                               "--snr-db", "20")
        assert code == 0 and json.loads(out)["coeffs"]
    if "'h'" in message or "object" in message:
        # dof reads h from the same loader
        with pytest.raises(SystemExit) as e:
            main(["dof", "--field", "quad-5", "--channel", str(path)])
        assert e.value.code == 2
        assert "channel file %s: " % path in capsys.readouterr().err


def test_mimo_channel_file_is_usage_error(tmp_path, capsys):
    path = tmp_path / "mimo.json"
    path.write_text(json.dumps({"h": np.ones((2, 2, 2)).tolist(), "snr_db": 20.0}))
    for command in ("rate", "dof"):
        with pytest.raises(SystemExit) as e:
            main([command, "--field", "quad-5", "--channel", str(path)])
        assert e.value.code == 2
        err = capsys.readouterr().err
        assert "channel file %s: 'h' has shape (2, 2, 2)" % path in err
        assert "one receive antenna per block" in err


@pytest.mark.parametrize("grid", ["4000", "0,4000", "0:1000:4000"])
def test_overflowing_snr_grid_is_usage_error(grid, capsys):
    for command in ("sweep", "if-sweep"):
        with pytest.raises(SystemExit) as e:
            main([command, "--fields", "quad-5", "--trials", "1", "--snr-grid-db", grid])
        assert e.value.code == 2
        assert "power 10^(dB/10) is too large" in capsys.readouterr().err


@pytest.mark.parametrize("argv,valid", [
    (["sweep", "--fields", "quad-5", "--metrics", "bogus"],
     "rate1, sumrate, mac, z_baseline"),
    (["sweep", "--fields", "quad-5", "--metrics", "rate1,if_rate"],
     "rate1, sumrate, mac, z_baseline"),
    (["if-sweep", "--fields", "quad-5", "--metrics", "rate1"], "if_rate, z_if, ml"),
])
def test_unknown_metrics_are_usage_errors(argv, valid, capsys):
    with pytest.raises(SystemExit) as e:
        main(argv + ["--trials", "1"])
    assert e.value.code == 2
    err = capsys.readouterr().err
    assert "unknown metrics: " + argv[-1].split(",")[-1] in err
    assert "(valid: %s)" % valid in err


def test_k_above_users_is_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as e:
        main(["rate", "--field", "quad-5", "--users", "2", "--k", "3"])
    assert e.value.code == 2
    assert "--k 3 exceeds the 2 users of the channel" in capsys.readouterr().err
    # a channel file sets the user count, whatever --users says
    path = tmp_path / "h3.json"
    path.write_text(json.dumps({"h": [[0.3, -1.2, 0.5], [0.7, 0.4, -0.9]],
                                "snr_db": 20.0}))
    code, out, _ = run_cli(capsys, "rate", "--field", "quad-5", "--users", "2",
                           "--k", "3", "--channel", str(path))
    assert code == 0 and len(json.loads(out)["coeffs"]) == 3
    with pytest.raises(SystemExit) as e:
        main(["rate", "--field", "quad-5", "--users", "5", "--k", "4",
              "--channel", str(path)])
    assert e.value.code == 2
    assert "--k 4 exceeds the 3 users of the channel" in capsys.readouterr().err


def test_dof_channel_file_sets_users(tmp_path, capsys):
    path = tmp_path / "h3.json"
    path.write_text(json.dumps({"h": [[0.3, -1.2, 0.5], [0.7, 0.4, -0.9]]}))
    code, out, _ = run_cli(capsys, "dof", "--field", "quad-5", "--channel", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["users"] == 3
    assert doc["predicted"] == 2 / 3


def test_pathological_trial_names_its_trial_and_seed(capsys):
    # trial 1 of seed 0 loses the sign of the ML determinant at 160 dB; the
    # error names the trial so that it can be replayed alone
    code, out, err = run_cli(capsys, "if-sweep", "--fields", "quad-5", "--trials", "2",
                             "--snr-grid-db", "160")
    assert code == 3 and out == ""
    assert err == ("error: ML capacity at 160 dB: I + P H_S H_S^T is not positive definite "
                   "in floating point (trial=1, seed=0, snr_db=160)\n")


def test_numeric_failure_exit_code(capsys):
    # unknown catalog field surfaces as a controlled failure, not a traceback
    code, _, err = run_cli(capsys, "sweep", "--fields", "nope", "--trials", "1")
    assert code == 3
    assert "nope" in err or err
