"""Command line behavior: subcommands, exit codes, formats."""
import csv
import io
import json
import pathlib
import shlex

import numpy as np
import pytest

from ringcf import catalog_field, cli, experiments, field_to_json, lattices
from ringcf.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def readme_command_lines():
    """Each `ringcf ...` command in the README's fenced blocks, its
    backslash-continued lines joined, as an argument list without `ringcf`."""
    text = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    lines = []
    for block in text.split("```")[1::2]:
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("ringcf "):
                lines.append(shlex.split(line)[1:])
    return lines


def test_readme_lists_every_subcommand():
    subcommands = {argv[0] for argv in readme_command_lines()}
    assert subcommands == {"fields", "rate", "sweep", "if-sweep", "dof", "codec-demo"}


@pytest.mark.parametrize("argv", readme_command_lines(), ids=" ".join)
def test_readme_command_runs(argv, tmp_path, capsys):
    # as documented, with at most 2 trials and the output file in tmp_path
    argv = list(argv)
    for i, flag in enumerate(argv[:-1]):
        if flag == "--trials":
            argv[i + 1] = str(min(int(argv[i + 1]), 2))
        elif flag == "--out":
            argv[i + 1] = str(tmp_path / argv[i + 1])
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    if "--out" in argv:
        assert pathlib.Path(argv[argv.index("--out") + 1]).read_text()
    if argv[0] == "codec-demo":
        assert json.loads(out)["verified"] is True


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


def test_dof_z_baseline_failure_names_its_snr(tmp_path, capsys):
    # unit gains make the Z Gram matrix singular at 160 dB: a numeric failure
    # (exit 3) naming the SNR, where a bare LinAlgError named none
    path = tmp_path / "ones.json"
    path.write_text(json.dumps({"h": [[1, 1], [1, 1]]}))
    code, out, err = run_cli(capsys, "dof", "--field", "quad-5", "--channel", str(path),
                             "--snr-top-db", "160", "--z-baseline")
    assert (code, out) == (3, "")
    assert err == "error: Z baseline Gram matrix not positive definite at 160 dB\n"


def test_cf_cholesky_failure_names_its_snr(tmp_path, capsys):
    # a gain of 1e8 makes the first MMSE block lose positive definiteness in
    # floating point from 20 dB on: CF's refusal names its SNR, as the Z and
    # ML refusals do, in a DoF fit and for one channel
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"h": [[1e8, 1], [1, 1]]}))
    for args, db in ((("dof", "--snr-top-db", "60"), 20), (("rate", "--snr-db", "40"), 40)):
        code, out, err = run_cli(capsys, args[0], "--field", "quad-5", "--channel", str(path),
                                 *args[1:])
        assert (code, out) == (3, "")
        assert err == "error: MMSE matrix not positive definite at %d dB\n" % db


SNR_REFUSED = "snr must be positive and finite, a normal float, got "


def test_bad_snr_grids_are_usage_errors(capsys):
    bad_range = "start:step:stop needs finite values, step > 0 and stop >= start"
    for grid, message in (
            ("0:5", "expected start:step:stop or a comma list of dB, got '0:5'"),
            ("10:5:0", "grid '10:5:0': " + bad_range),
            ("0,a", "expected start:step:stop or a comma list of dB, got '0,a'"),
            ("nan", "grid 'nan': %snan from SNR nan dB" % SNR_REFUSED),
            ("10,inf", "grid '10,inf': %sinf from SNR inf dB" % SNR_REFUSED),
            ("nan:1:5", "grid 'nan:1:5': " + bad_range),
            ("0:1:inf", "grid '0:1:inf': " + bad_range),
            ("-4000", "grid '-4000': %s0.0 from SNR -4000.0 dB" % SNR_REFUSED),
            ("0,-3090", "grid '0,-3090': %s1e-309 from SNR -3090.0 dB" % SNR_REFUSED)):
        with pytest.raises(SystemExit) as e:
            main(["sweep", "--fields", "quad-5", "--trials", "1", "--snr-grid-db", grid])
        assert e.value.code == 2
        assert message in capsys.readouterr().err


def test_snr_grid_point_limit(monkeypatch, capsys):
    # a range is refused while it expands: at most MAX_GRID_POINTS + 1 values are built
    assert cli.MAX_GRID_POINTS == 10000
    # 10000 points whose powers are all floats (0:1:9999 reaches 9999 dB, past 3082)
    assert len(cli._parse_grid("0:0.25:2499.75")) == 10000
    assert len(cli._parse_grid(",".join(["0"] * 10000))) == 10000
    built = []
    monkeypatch.setattr(cli, "round", lambda v, n: built.append(v) or v, raising=False)
    for grid in ("0:1e-5:1", "0:1e-9:1", "0:0.25:2500", ",".join(["0"] * 10001)):
        for command in ("sweep", "if-sweep"):
            built.clear()
            with pytest.raises(SystemExit) as e:
                main([command, "--fields", "quad-5", "--trials", "1", "--snr-grid-db", grid])
            assert e.value.code == 2
            assert "grid %r: more than 10000 points" % grid in capsys.readouterr().err
            assert len(built) <= 10001


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
    # numpy's generators take no negative seed
    ["rate", "--field", "quad-5", "--seed", "-1"],
    ["sweep", "--fields", "quad-5", "--seed", "-1"],
    ["if-sweep", "--fields", "quad-5", "--seed", "-1"],
    ["dof", "--field", "quad-5", "--seed", "-1"],
])
def test_counts_below_one_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 2
    expected = "non-negative" if argv[-2] == "--seed" else "positive"
    assert ("argument %s: expected a %s integer, got %r" % (argv[-2], expected, argv[-1])
            in capsys.readouterr().err)


@pytest.mark.parametrize("argv", [
    ["rate", "--field", "quad-5", "--snr-db", "nan"],
    ["rate", "--field", "quad-5", "--snr-db", "inf"],
    ["rate", "--field", "quad-5", "--snr-db=-inf"],
    ["rate", "--field", "quad-5", "--snr-db", "loud"],
    ["dof", "--field", "quad-5", "--snr-top-db", "nan"],
    ["dof", "--field", "quad-5", "--snr-top-db", "inf"],
    ["rate", "--field", "quad-5", "--snr-db=-4000"],
    ["dof", "--field", "quad-5", "--snr-top-db=-4000"],
    ["rate", "--field", "quad-5", "--snr-db=-3090"],
    # the fit's window reaches 40 dB below the top: -3050 dB asks for -3090 dB
    ["dof", "--field", "quad-5", "--snr-top-db=-3050"],
])
def test_non_finite_snr_is_usage_error(argv, capsys):
    value = argv[-1].split("=")[-1]
    message = {"nan": "nan from SNR nan dB", "inf": "inf from SNR inf dB",
               "-inf": "0.0 from SNR -inf dB", "-4000": "0.0 from SNR -4000.0 dB",
               "-3090": "1e-309 from SNR -3090.0 dB",
               "-3050": "1e-309 from SNR -3090.0 dB"}.get(value)
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 2
    err = capsys.readouterr().err
    flag = argv[3].split("=")[0]
    if message is None:
        assert "argument %s: could not convert string to float: 'loud'" % flag in err
    else:
        assert "argument %s: %s%s" % (flag, SNR_REFUSED, message) in err


@pytest.mark.parametrize("argv", [
    ["rate", "--field", "quad-5", "--snr-db", "4000"],
    ["dof", "--field", "quad-5", "--snr-top-db", "4000"],
])
def test_overflowing_snr_is_usage_error(argv, capsys):
    # 10^(4000/10) is too large for a float
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 2
    assert ("argument %s: %sinf from SNR 4000.0 dB" % (argv[3], SNR_REFUSED)
            in capsys.readouterr().err)


def test_overflowing_channel_file_snr_is_usage_error(tmp_path, capsys):
    path = tmp_path / "loud.json"
    path.write_text(json.dumps({"h": [[0.3, -1.2], [0.7, 0.4]], "snr_db": 4000}))
    with pytest.raises(SystemExit) as e:
        main(["rate", "--field", "quad-5", "--channel", str(path)])
    assert e.value.code == 2
    assert ("channel file %s: channel 'snr_db': %sinf from SNR 4000.0 dB"
            % (path, SNR_REFUSED) in capsys.readouterr().err)
    # --snr-db replaces the file's value
    code, out, _ = run_cli(capsys, "rate", "--field", "quad-5", "--channel", str(path),
                           "--snr-db", "20")
    assert code == 0 and json.loads(out)["coeffs"]


@pytest.mark.parametrize("text,message", [
    ("-4000", "0.0 from SNR -4000.0 dB"),
    ("-3090", "1e-309 from SNR -3090.0 dB"),
    ("NaN", "nan from SNR nan dB"),
    ("Infinity", "inf from SNR inf dB"),
], ids=["-4000", "-3090", "NaN", "Infinity"])
def test_channel_file_snr_without_power_is_usage_error(text, message, tmp_path, capsys):
    path = tmp_path / "quiet.json"
    path.write_text('{"h": [[0.3, -1.2], [0.7, 0.4]], "snr_db": %s}' % text)
    with pytest.raises(SystemExit) as e:
        main(["rate", "--field", "quad-5", "--channel", str(path)])
    assert e.value.code == 2
    assert ("channel file %s: channel 'snr_db': %s%s" % (path, SNR_REFUSED, message)
            in capsys.readouterr().err)
    # dof does not read the file's snr_db
    code, out, _ = run_cli(capsys, "dof", "--field", "quad-5", "--channel", str(path))
    assert code == 0 and json.loads(out)["users"] == 2


@pytest.mark.parametrize("h,message", [
    ("[[0.3, NaN], [0.7, 0.4]]", "channel gains must be finite"),
    ("[[[[1.0]]]]", "channel gains must be 2-D or 3-D"),
    ("[[1e999, 1.0]]", "channel gains must be finite"),
    ("[[%s, 1.0]]" % (10 ** 400), "'h' must be numeric"),
    ("[]", "no empty axis, got shape (1, 0)"),
    ("[[]]", "no empty axis, got shape (1, 0)"),
    ("[[true, 1], [1, 0]]", "'h' must be numeric, got [[True, 1], [1, 0]]"),
    ('[["1", 1], [1, 0]]', "'h' must be numeric, got [['1', 1], [1, 0]]"),
], ids=["h-nan", "h-4d", "h-inf", "h-huge-int", "h-empty", "h-empty-row", "h-bool",
        "h-string"])
def test_channel_file_gains_refused_as_usage_errors(h, message, tmp_path, capsys):
    # every ValueError of the channel reader names the file and exits 2
    path = tmp_path / "gains.json"
    path.write_text('{"h": %s, "snr_db": 20}' % h)
    for command in ("rate", "dof"):
        with pytest.raises(SystemExit) as e:
            main([command, "--field", "quad-5", "--channel", str(path)])
        assert e.value.code == 2
        err = capsys.readouterr().err
        assert "channel file %s: " % path in err and message in err


def test_unparsable_json_files_are_usage_errors(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"h": [[0.3, ')
    for flag in ("--channel", "--field"):
        for command in ("rate", "dof"):
            argv = [command, "--field", "quad-5", "--channel", str(path)]
            if flag == "--field":
                argv = [command, "--field", str(path)]
            with pytest.raises(SystemExit) as e:
                main(argv)
            assert e.value.code == 2
            kind = "channel" if flag == "--channel" else "field"
            assert "%s file %s: Expecting value" % (kind, path) in capsys.readouterr().err


@pytest.mark.parametrize("doc,message", [
    ([1, 2], "field document must be an object {name, min_poly, basis}"),
    ({"name": "f", "basis": [[1], [0, 1]]}, "field document has no 'min_poly'"),
    ({"min_poly": [-1, -1, 1], "basis": [[1], [0, 1]]}, "field document has no 'name'"),
    ({"name": "f", "min_poly": 5, "basis": [[1]]},
     "field min_poly and basis must be lists of numbers"),
    ({"name": "f", "min_poly": [1, 2], "basis": [[1]]}, "monic"),
    ({"name": "f", "min_poly": [-1.5, -1, 1], "basis": [[1], [0, 1]]},
     "field min_poly coefficient -1.5 is not an integer"),
    ({"name": "f", "min_poly": [True, -1, 1], "basis": [[1], [0, 1]]},
     "field min_poly coefficient True is not an integer"),
    ({"name": "f", "min_poly": ["-1", -1, 1], "basis": [[1], [0, 1]]},
     "field min_poly coefficient '-1' is not an integer"),
    ({"name": "f", "min_poly": [], "basis": []},
     "minimal polynomial must have degree at least 1, got []"),
    ({"name": "f", "min_poly": [1], "basis": []},
     "minimal polynomial must have degree at least 1, got [1]"),
    ({"name": None, "min_poly": [-1, -1, 1], "basis": [[1], [0, 1]]},
     "field name must be a string, got None"),
    ({"name": 7, "min_poly": [-1, -1, 1], "basis": [[1], [0, 1]]},
     "field name must be a string, got 7"),
], ids=["not-object", "no-min_poly", "no-name", "min_poly-number", "not-monic",
        "min_poly-fraction", "min_poly-bool", "min_poly-string", "min_poly-empty",
        "min_poly-degree-0", "name-null", "name-number"])
def test_bad_field_files_are_usage_errors(doc, message, tmp_path, capsys):
    path = tmp_path / "field.json"
    path.write_text(json.dumps(doc))
    for command in ("rate", "dof"):
        with pytest.raises(SystemExit) as e:
            main([command, "--field", str(path)])
        assert e.value.code == 2
        err = capsys.readouterr().err
        assert "field file %s: " % path in err and message in err


def test_field_file_runs(tmp_path, capsys):
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(field_to_json(catalog_field("quad-5"))))
    for command in ("rate", "dof"):
        code, out, _ = run_cli(capsys, command, "--field", str(path), "--seed", "3")
        expected = run_cli(capsys, command, "--field", "quad-5", "--seed", "3")
        assert code == 0 and (code, out) == expected[:2]


@pytest.mark.parametrize("doc,message", [
    ({"h": [[0.3, -1.2], [0.7, 0.4]], "snr_db": [20]}, "'snr_db' must be numeric"),
    ({"h": [[0.3, -1.2], [0.7, 0.4]], "snr_db": "loud"}, "'snr_db' must be numeric"),
    ({"h": [[0.3, -1.2], [0.7, 0.4]], "snr_db": "20"}, "'snr_db' must be numeric, got '20'"),
    ({"h": [[0.3, -1.2], [0.7, 0.4]], "snr_db": True}, "'snr_db' must be numeric, got True"),
    ({"h": [[0.3, -1.2], [0.7, 0.4]]}, "has no 'snr_db'"),
    ({"snr_db": 20.0}, "has no 'h'"),
    ({"h": [[0.3, "x"], [0.7, 0.4]], "snr_db": 20.0}, "'h' must be numeric"),
    ([[0.3, -1.2], [0.7, 0.4]], "must be an object"),
], ids=["snr_db-list", "snr_db-text", "snr_db-number-text", "snr_db-bool", "no-snr_db",
        "no-h", "h-text", "not-object"])
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
        assert ("argument --snr-grid-db: grid %r: %sinf from SNR 4000.0 dB"
                % (grid, SNR_REFUSED) in capsys.readouterr().err)


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


@pytest.mark.parametrize("command,runner", [("sweep", experiments.run_sweep),
                                            ("if-sweep", experiments.run_if_sweep)])
def test_unknown_metric_messages_agree(command, runner, capsys):
    # experiments.sweep_metrics writes the one message that both report
    with pytest.raises(ValueError) as python_error:
        runner(experiments.SweepConfig(fields=["quad-5"], trials=1,
                                       metrics=("bogus", "ml", "rate1")))
    with pytest.raises(SystemExit) as e:
        main([command, "--fields", "quad-5", "--trials", "1", "--metrics", "bogus,ml,rate1"])
    assert e.value.code == 2
    assert capsys.readouterr().err.endswith("error: argument --metrics: %s\n"
                                            % python_error.value)


@pytest.mark.parametrize("names", ["nosuch", "quad-5,cubic-49", "quad-5,", ""])
@pytest.mark.parametrize("command", ["sweep", "if-sweep"])
def test_bad_fields_are_usage_errors_with_the_python_message(command, names, capsys):
    # experiments.sweep_fields writes the one message that both report, and
    # no trial runs
    with pytest.raises(ValueError) as python_error:
        experiments.SweepConfig(fields=names.split(",") if names else [])
    with pytest.raises(SystemExit) as e:
        main([command, "--fields", names, "--trials", "1", "--snr-grid-db", "0"])
    assert e.value.code == 2
    assert capsys.readouterr().err.endswith("error: argument --fields: %s\n"
                                            % python_error.value)


@pytest.mark.parametrize("what", ["missing", "directory"])
@pytest.mark.parametrize("flag", ["--field", "--channel"])
@pytest.mark.parametrize("command", ["rate", "dof"])
def test_unreadable_input_files_are_usage_errors(command, flag, what, tmp_path, capsys):
    path = tmp_path / "nofile.json" if what == "missing" else tmp_path
    argv = [command, "--field", str(path)]
    if flag == "--channel":
        argv = [command, "--field", "quad-5", "--channel", str(path)]
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 2
    reason = "No such file or directory" if what == "missing" else "Is a directory"
    err = capsys.readouterr().err
    assert "%s file %s: [Errno " % (flag[2:], path) in err and reason in err


OUT_COMMANDS = [["sweep", "--fields", "quad-5", "--trials", "1"],
                ["if-sweep", "--fields", "quad-5", "--trials", "1"],
                ["rate", "--field", "quad-5"], ["dof", "--field", "quad-5"],
                ["fields"], ["codec-demo"]]


def test_unwritable_out_is_refused_before_any_trial(monkeypatch, tmp_path, capsys):
    calls = []
    for name in ("run_sweep", "run_if_sweep"):
        monkeypatch.setattr(experiments, name, lambda *a, **k: calls.append(a))
    out = tmp_path / "nodir" / "x.csv"
    for argv in OUT_COMMANDS:
        with pytest.raises(SystemExit) as e:
            main(argv + ["--out", str(out)])
        assert e.value.code == 2
        err = capsys.readouterr().err
        assert "argument --out: cannot write %s: [Errno 2] No such file" % out in err
    assert calls == [] and not out.parent.exists()


def test_failed_command_leaves_out_as_it_was(monkeypatch, tmp_path, capsys):
    def fail(cfg, workers=1):
        raise ValueError("no trial ran")
    monkeypatch.setattr(experiments, "run_sweep", fail)
    kept, fresh = tmp_path / "kept.csv", tmp_path / "fresh.csv"
    kept.write_text("earlier output\n")
    for path in (kept, fresh):
        code, out, err = run_cli(capsys, "sweep", "--fields", "quad-5", "--trials", "1",
                                 "--out", str(path))
        assert (code, out, err) == (3, "", "error: no trial ran\n")
    assert kept.read_text() == "earlier output\n" and not fresh.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.csv"]


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


def test_numeric_failure_exit_code(monkeypatch, capsys):
    # a search that fails (here an enumeration forced to find nothing) is a
    # controlled failure, not a traceback; an unknown field is a usage error
    # (test_bad_fields_are_usage_errors_with_the_python_message)
    monkeypatch.setattr(lattices, "_enumerate_all", lambda r_mat, radius2: [])
    code, out, err = run_cli(capsys, "rate", "--field", "quad-5")
    assert code == 3 and out == ""
    assert err.startswith("error: dimension 4: fewer than 2 vectors independent over quad-5")
