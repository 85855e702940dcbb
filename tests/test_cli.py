import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import csikey
from csikey import cli
from csikey.cli import (DEFAULTS, ExperimentConfig, build_parser, main,
                        render, rows_to_csv, run)
from csikey.errors import ConfigurationError

import cli_reference


def test_unknown_subcommand_rejected():
    with pytest.raises(ConfigurationError):
        ExperimentConfig("frobnicate")


def test_config_validation():
    with pytest.raises(ConfigurationError):
        ExperimentConfig("ber", {"trials": 0})
    with pytest.raises(ConfigurationError):
        ExperimentConfig("ber", {"format": "xml"})


def test_defaults_merge_and_flag_precedence(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"n": 6, "trials": 7, "seed": 3}))
    out = tmp_path / "o.csv"
    rc = main(["ber", "--config", str(cfg_file), "--trials", "5",
               "--out", str(out)])
    assert rc == 0
    header = out.read_text().splitlines()[0]
    echoed = json.loads(header.split("# config: ", 1)[1])
    assert echoed["trials"] == 5   # flag wins over config file
    assert echoed["n"] == 6        # config file wins over default
    assert echoed["seed"] == 3


def test_params_table_csv(capsys):
    rc = main(["params-table"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[1] == "n,log2M,snr_db,capacity"
    assert len(lines) == 6  # comment + header + 4 rows
    first = lines[2].split(",")
    assert first[0] == "80"
    assert abs(float(first[1]) - 33.66) < 0.05


def test_params_table_custom_ns(capsys):
    rc = main(["params-table", "--n", "128,256"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert [row.split(",")[0] for row in lines[2:]] == ["128", "256"]


def test_ber_deterministic_rerun(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert main(["ber", "--n", "8", "--trials", "10", "--seed", "7",
                     "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_ber_csv_columns(tmp_path):
    out = tmp_path / "o.csv"
    main(["ber", "--n", "4", "--trials", "5", "--seed", "1", "--out", str(out)])
    lines = out.read_text().splitlines()
    assert lines[1] == "method,n,M,alpha,k,trials,ser,ser_ci_low,ser_ci_high,seed"


def test_json_format_roundtrip(tmp_path):
    out = tmp_path / "o.json"
    assert main(["ber", "--n", "4", "--trials", "5", "--seed", "1",
                 "--format", "json", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["subcommand"] == "ber"
    assert doc["config"]["seed"] == 1
    assert {"version", "git_describe", "results"} <= set(doc)


def test_reduction_demo(capsys):
    rc = main(["reduction-demo", "--n", "3", "--trials", "2", "--seed", "1"])
    assert rc == 0
    outp = capsys.readouterr().out
    assert outp.count("True") == 2


def test_decision_to_search_demo(capsys):
    rc = main(["decision-to-search", "--n", "3", "--log2m", "2",
               "--alpha", "0.05", "--trials", "2"])
    assert rc == 0
    assert capsys.readouterr().out.count("True") == 2


def test_key_agreement_and_cipher_subcommands(tmp_path):
    out = tmp_path / "ka.json"
    assert main(["key-agreement", "--n", "8", "--log2m", "4", "--alpha",
                 "0.001", "--eta", "16", "--noise-scale", "0",
                 "--format", "json", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["results"][0]["success"] is True
    out2 = tmp_path / "c.csv"
    assert main(["cipher", "--n", "8", "--log2m", "4", "--alpha", "0.001",
                 "--trials", "5", "--noise-scale", "0",
                 "--out", str(out2)]) == 0
    assert out2.read_text().splitlines()[-1].split(",")[-2] == "0"


def test_invalid_config_exit_codes(tmp_path, capsys):
    assert main(["ber", "--trials", "0"]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(["ber", "--n", "8", "--m-rx", "4", "--trials", "2"]) == 1
    assert "error:" in capsys.readouterr().err
    # Non-finite floats, and a negative noise scale, are rejected up front.
    for flag, value in [("--noise-scale", "inf"), ("--noise-scale", "nan"),
                        ("--noise-scale", "-1"), ("--alpha", "nan"),
                        ("--alpha", "inf"), ("--k", "inf"),
                        ("--m-slack", "nan")]:
        assert main(["ber", "--n", "4", "--trials", "2", flag, value]) == 1
        assert "error:" in capsys.readouterr().err
    # params-table reads m_slack without building SystemParams.
    for value in ("-1", "nan"):
        assert main(["params-table", "--m-slack", value, "--format",
                     "json"]) == 1
        assert "error:" in capsys.readouterr().err
    # Values at the edges of float64: k^2 outside the normal floats, M above
    # 2^53 (symbols stop being exact floats), a minimum M that overflows.
    for argv in (["ber", "--k", "1e-300"], ["ber", "--k", "1e300"],
                 ["ber", "--n", "4", "--log2m", "54"],
                 ["ber", "--n", "4", "--log2m", "63"],
                 ["ber", "--n", "4", "--log2m", "64"],
                 ["ber", "--n", "4", "--log2m", "1100"],
                 ["key-agreement", "--n", "4", "--log2m", "64"],
                 ["cipher", "--n", "4", "--log2m", "64"],
                 ["params-table", "--n", "10000"]):
        assert main(argv) == 1, argv
        assert "error:" in capsys.readouterr().err
    assert main(["ber", "--config", str(tmp_path / "nope.json")]) == 2


@pytest.mark.parametrize("subcommand", ["ber", "key-agreement", "cipher"])
def test_tiny_well_conditioned_channel_runs(subcommand):
    # Channel gains of width 1e-14: the CSI-key's rank test is relative.
    assert main([subcommand, "--n", "4", "--k", "1e-14", "--trials", "2"]) == 0


@pytest.mark.parametrize("doc", [{"trials": "ten"}, {"trails": 3},
                                 {"n": "eight"}, {"coder": "rot13"}, [3]])
def test_bad_config_file_exits_2(tmp_path, capsys, doc):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(doc))
    assert main(["ber", "--config", str(cfg_file)]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_params_table_n_from_config_file(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"n": 8}))
    assert main(["params-table", "--config", str(cfg_file)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert [row.split(",")[0] for row in lines[2:]] == ["8"]


def test_output_does_not_depend_on_cwd(tmp_path, monkeypatch, capsys):
    outs = []
    for cwd in (tmp_path, Path(csikey.__file__).parent):
        monkeypatch.chdir(cwd)
        cli._git_describe.cache_clear()
        assert main(["ber", "--n", "4", "--trials", "2", "--format",
                     "json"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_git_describe_runs_once_per_process(monkeypatch):
    calls = []
    real_run = subprocess.run

    def counting_run(*args, **kwargs):
        calls.append(args)
        return real_run(*args, **kwargs)

    monkeypatch.setattr(subprocess, "run", counting_run)
    cli._git_describe.cache_clear()
    for _ in range(3):
        run(ExperimentConfig("params-table", {}))
    assert len(calls) == 1


def test_cli_import_loads_no_scipy():
    src = str(Path(csikey.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, csikey.cli; print(sorted(m for m "
         "in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, env=env, timeout=60, check=True)
    assert proc.stdout.strip() == "[]"


def test_rows_to_csv_17_digits():
    text = rows_to_csv([{"x": 1.0 / 3.0}])
    assert text == "x\n0.33333333333333331\n"


def test_parser_has_all_subcommands():
    parser = build_parser()
    # parsing each subcommand with no extra flags succeeds
    for name in ("params-table", "ber", "key-agreement", "cipher",
                 "reduction-demo", "decision-to-search"):
        args = parser.parse_args([name])
        assert args.subcommand == name


def test_run_returns_record():
    rec = run(ExperimentConfig("params-table", {}))
    assert rec.version
    assert len(rec.results) == 4
    assert DEFAULTS["format"] == "csv"


# A valid command-line value for every option of the table.
VALID_FLAGS = {"--n": "4", "--m-rx": "8", "--log2m": "3", "--alpha": "0.5",
               "--k": "2", "--m-slack": "1.5", "--trials": "3", "--seed": "7",
               "--out": "o.csv", "--format": "json", "--eta": "32",
               "--coder": "none", "--noise-scale": "0.5"}


class _Reached(Exception):
    """Raised in place of building the ExperimentConfig."""


def _outcome(parse, argv):
    """("config", subcommand, options) reaching ExperimentConfig, or
    ("exit", code) when the command line is rejected."""
    try:
        return ("config", *parse(argv))
    except SystemExit as exc:
        return ("exit", exc.code)


def _cli_parse(monkeypatch):
    def parse(argv):
        seen = []

        def capture(subcommand, options):
            seen.append((subcommand, dict(options)))
            raise _Reached

        monkeypatch.setattr(cli, "ExperimentConfig", capture)
        with pytest.raises(_Reached):
            main(argv)
        return seen[0]
    return parse


def test_valid_flags_cover_every_option():
    assert set(VALID_FLAGS) == {"--" + o.replace("_", "-") for o in cli.OPTIONS}


@pytest.mark.parametrize("subcommand", list(cli._RUNNERS))
def test_parser_matches_six_subparser_reference(subcommand, tmp_path,
                                                monkeypatch):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"trials": 3, "n": 4}))
    argvs = [[subcommand], [subcommand, "--config", str(cfg_file)]]
    argvs += [[subcommand, flag, value] for flag, value in VALID_FLAGS.items()]
    argvs += [[subcommand, "--n", "128,256"], [subcommand, "--n", "x"],
              [subcommand, "--format", "xml"], [subcommand, "--bogus", "1"]]
    new = _cli_parse(monkeypatch)
    for argv in argvs:
        got = _outcome(new, argv)
        assert got == _outcome(cli_reference.parse, argv), argv
        assert got[0] == "config" or got == ("exit", 2), argv


def test_flags_may_precede_the_subcommand(monkeypatch):
    parse = _cli_parse(monkeypatch)
    assert (parse(["--n", "4", "--seed", "2", "ber"])
            == parse(["ber", "--n", "4", "--seed", "2"])
            == ("ber", {"n": 4, "seed": 2}))
