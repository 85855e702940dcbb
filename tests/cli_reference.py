"""The CLI's former argument handling: one argparse subparser per
subcommand, each holding its own copy of every option, with --n typed per
subcommand at parse time.  The single parser in csikey.cli is tested
against it (tests/test_cli.py)."""

import argparse
import json

SUBCOMMANDS = ("params-table", "ber", "key-agreement", "cipher",
               "reduction-demo", "decision-to-search")

# name -> (type, choices), as the option table declared them.
OPTIONS = {
    "n": (int, None), "m_rx": (int, None), "log2m": (int, None),
    "alpha": (float, None), "k": (float, None), "m_slack": (float, None),
    "trials": (int, None), "seed": (int, None), "out": (str, None),
    "format": (str, ("csv", "json")), "eta": (int, None),
    "coder": (str, ("none", "repetition-3")), "noise_scale": (float, None),
}
N_LIST = ("n", "params-table")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="csikey")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        sp = sub.add_parser(name)
        for opt, (typ, choices) in OPTIONS.items():
            sp.add_argument("--" + opt.replace("_", "-"), choices=choices,
                            type=str if (opt, name) == N_LIST else typ)
        sp.add_argument("--config")
    return parser


def parse(argv) -> tuple[str, dict]:
    """(subcommand, options) as handed to ExperimentConfig; argparse exits
    with SystemExit(2) on a bad command line."""
    args = vars(build_parser().parse_args(argv))
    subcommand = args.pop("subcommand")
    config_path = args.pop("config", None)
    options = {}
    if config_path:
        with open(config_path) as fh:
            options = json.load(fh)
    options.update({k: v for k, v in args.items() if v is not None})
    return subcommand, options
