"""Command-line experiment harness.

Subcommands: params-table, ber, key-agreement, cipher, reduction-demo,
decision-to-search.  Every run is seeded, embeds its configuration in the
output, and reproduces byte-identical artifacts on re-run.

Configuration precedence: CLI flags > JSON config file (--config) > defaults.
"""

import argparse
import functools
import json
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .attacks import (ber_experiment, bdd_via_mimo, make_decision_oracle,
                      make_exact_ml_oracle, decision_to_search, toy_bdd_setup)
from .errors import CsikeyError, OptionError, ParameterError, need_int, need_real
from .lattice import enumerate_cvp
from .numerics import make_rng
from .params import check_secrecy_constraints, design_table
from .protocols import VALID_CODERS, run_cipher, run_key_agreement
from .wiretap import SystemParams, random_message, sample_A_dist

# One typed definition per option, for the flags and the --config keys:
# name -> (type, default, choices); a default that differs by subcommand is
# {subcommand: default, None: every other}.  params-table takes n as a
# comma list, by default the paper's dimensions; the demos run at n <= 4.
OPTIONS = {
    "n": (int, {"params-table": "80,128,196,256", "reduction-demo": 4,
                "decision-to-search": 4, None: 8}, None),
    "m_rx": (int, None, None),
    "log2m": (int, {"decision-to-search": 2, None: 4}, None),
    "alpha": (float, 1.0, None),
    "k": (float, 1.0, None), "m_slack": (float, 1.0, None),
    "trials": (int, 100, None), "seed": (int, 0, None),
    "out": (str, None, None), "format": (str, "csv", ("csv", "json")),
    "eta": (int, 64, None),
    "coder": (str, "repetition-3", VALID_CODERS),
    "noise_scale": (float, 1.0, None),
}
DEFAULTS = {name: default for name, (_, default, _) in OPTIONS.items()}
N_LIST = ("n", "params-table")  # the (option, subcommand) taking a list


@dataclass
class ExperimentConfig:
    subcommand: str
    options: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.subcommand not in _RUNNERS:
            raise ParameterError(f"unknown subcommand {self.subcommand!r}")
        _check_options(self.options, self.subcommand)
        merged = {name: d.get(self.subcommand, d[None]) if isinstance(d, dict) else d
                  for name, d in DEFAULTS.items()}
        merged.update({k: v for k, v in self.options.items() if v is not None})
        need_int("trials", merged["trials"], 1)
        need_int("seed", merged["seed"], 0, np.inf)
        for name in (o for o, (typ, _, _) in OPTIONS.items() if typ is float):
            need_real(name, merged[name], -np.inf, np.inf)
        self.options = merged

    def system_params(self) -> SystemParams:
        o = self.options
        n = int(o["n"])
        m_rx = int(o["m_rx"]) if o["m_rx"] is not None else 2 * n
        need_int("log2m", o["log2m"], 1, 53)  # before 2 ** log2m can exhaust memory
        return SystemParams(n=n, m_rx=m_rx, M=2 ** int(o["log2m"]),
                            alpha=float(o["alpha"]), k=float(o["k"]),
                            m_slack=float(o["m_slack"]),
                            noise_scale=float(o["noise_scale"]))


@functools.cache
def _git_describe() -> str:
    """`git describe` of this package's own tree, once per process."""
    try:
        return subprocess.run(
            ["git", "-C", str(Path(__file__).resolve().parent), "describe",
             "--always", "--dirty"], capture_output=True, text=True,
            timeout=5, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def _fmt(v) -> str:
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def rows_to_csv(rows: list) -> str:
    """Locale-independent CSV; floats at 17 significant digits."""
    if not rows:
        return ""
    cols = list(rows[0].keys())
    lines = [",".join(cols)]
    lines += [",".join(_fmt(row[c]) for c in cols) for row in rows]
    return "\n".join(lines) + "\n"


def _warn_gate(p: SystemParams):
    noise_ok, constellation_ok = check_secrecy_constraints(p)
    if not (noise_ok and constellation_ok):
        print(f"warning: parameters violate the secrecy constraint gate "
              f"(noise_ok={noise_ok}, constellation_ok={constellation_ok})",
              file=sys.stderr)


def _run_params_table(cfg: ExperimentConfig) -> list:
    try:
        ns = [int(s) for s in str(cfg.options["n"]).split(",")]
    except ValueError:
        raise ParameterError("n must be a comma list of integers") from None
    return design_table(ns, m_slack=float(cfg.options["m_slack"]))


def _run_ber(cfg: ExperimentConfig) -> list:
    p = cfg.system_params()
    _warn_gate(p)
    seed = int(cfg.options["seed"])
    rows = ber_experiment(p, int(cfg.options["trials"]), make_rng(seed))
    return [{**row, "seed": seed} for row in rows]


def _run_key_agreement(cfg: ExperimentConfig) -> list:
    p = cfg.system_params()
    _warn_gate(p)
    transcript = run_key_agreement(p, int(cfg.options["eta"]), cfg.options["coder"],
                                   make_rng(int(cfg.options["seed"])))
    if cfg.options["format"] == "json":
        return [transcript]
    return [{k: transcript[k] for k in
             ("eta", "c", "coder", "message_errors", "alice_key", "bob_key",
              "success")}]


def _run_cipher(cfg: ExperimentConfig) -> list:
    p = cfg.system_params()
    _warn_gate(p)
    seed, trials = int(cfg.options["seed"]), int(cfg.options["trials"])
    bit_errors = run_cipher(p, trials, make_rng(seed))
    return [{"n": p.n, "M": p.M, "alpha": p.alpha, "k": p.k, "trials": trials,
             "bits": trials * p.n, "bit_errors": bit_errors,
             "ber": bit_errors / (trials * p.n), "seed": seed}]


def _run_reduction_demo(cfg: ExperimentConfig) -> list:
    rng = make_rng(int(cfg.options["seed"]))
    rows = []
    for trial in range(int(cfg.options["trials"])):
        p, basis, target, bound_d, _, r = toy_bdd_setup(cfg.options["n"], rng)
        point, _ = bdd_via_mimo(basis, target, bound_d, r,
                                make_exact_ml_oracle(p), p, rng)
        ref, _ = enumerate_cvp(basis, target)
        match = bool(np.allclose(point, ref, atol=1e-6))
        rows.append({"trial": trial, "n": p.n,
                     "distance": float(np.linalg.norm(target - point)),
                     "matches_enumeration": match})
    return rows


def _run_decision_to_search(cfg: ExperimentConfig) -> list:
    p = cfg.system_params()
    if p.n > 4 or p.M > 4:
        raise ParameterError("decision-to-search demo supports n <= 4, M <= 4")
    rng = make_rng(int(cfg.options["seed"]))
    rows = []
    for trial in range(int(cfg.options["trials"])):
        x = random_message(p, rng)
        batch = sample_A_dist(x, p, rng, count=64 * p.n, noise_width=p.alpha)
        rec = decision_to_search(batch, make_decision_oracle(p), p, rng)
        rows.append({"trial": trial, "recovered": bool(np.array_equal(rec, x))})
    return rows


_RUNNERS = {
    "params-table": _run_params_table,
    "ber": _run_ber,
    "key-agreement": _run_key_agreement,
    "cipher": _run_cipher,
    "reduction-demo": _run_reduction_demo,
    "decision-to-search": _run_decision_to_search,
}


def run(cfg: ExperimentConfig) -> dict:
    results = _RUNNERS[cfg.subcommand](cfg)
    echo = {k: v for k, v in cfg.options.items() if k != "out"}
    return {"config": {"subcommand": cfg.subcommand, **echo},
            "results": results, "version": __version__,
            "git_describe": _git_describe()}


def render(record: dict, fmt: str) -> str:
    if fmt == "csv":
        header = f"# config: {json.dumps(record['config'], sort_keys=True)}\n"
        return header + rows_to_csv(record["results"])
    return json.dumps(record, indent=2, sort_keys=True, allow_nan=False) + "\n"


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """One parser for every subcommand, built once; main types --n."""
    parser = argparse.ArgumentParser(
        prog="csikey",
        description="Seeded experiment harness for the massive-MIMO "
                    "physical-layer cryptosystem.")
    parser.add_argument("subcommand", choices=_RUNNERS)
    for opt, (typ, _, choices) in OPTIONS.items():
        parser.add_argument("--" + opt.replace("_", "-"), choices=choices,
                            type=str if opt == N_LIST[0] else typ)
    parser.add_argument("--config", help="JSON file with option defaults")
    return parser


def _check_options(options: dict, subcommand: str):
    """Raise OptionError on an unknown name or a mistyped value."""
    for name, value in options.items():
        if name not in OPTIONS:
            raise OptionError(f"unknown option {name!r}")
        typ, _, choices = OPTIONS[name]
        if (name, subcommand) == N_LIST:
            typ = (int, str)
        elif typ is float:
            typ = (int, float)  # JSON may write 2.0 as 2
        if value is not None and (
                isinstance(value, bool) or not isinstance(value, typ)
                or (choices and value not in choices)):
            raise OptionError(f"option {name!r}: invalid value {value!r}")


def main(argv=None) -> int:
    parser = build_parser()
    args = vars(parser.parse_args(argv))
    subcommand = args.pop("subcommand")
    if args["n"] is not None and subcommand != N_LIST[1]:
        try:
            args["n"] = int(args["n"])
        except ValueError:
            parser.error(f"argument --n: invalid int value: {args['n']!r}")
    config_path = args.pop("config", None)
    options = {}
    if config_path:
        try:
            with open(config_path) as fh:
                options = json.load(fh)
            if not isinstance(options, dict):
                raise ValueError("it does not hold a JSON object")
        except (OSError, ValueError) as exc:
            print(f"error: cannot read config file: {exc}", file=sys.stderr)
            return 2
    options.update({k: v for k, v in args.items() if v is not None})
    try:
        cfg = ExperimentConfig(subcommand, options)
        record = run(cfg)
    except OptionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CsikeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    text = render(record, cfg.options["format"])
    out = cfg.options["out"]
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write output: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
