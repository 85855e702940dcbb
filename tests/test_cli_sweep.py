"""Seeded robustness sweep of the command line: a fixed table of argv, each
a small run of one subcommand with one to four options set to extreme or
malformed values.  Every case ends with exit code 0, 1 or 2, one error line
exactly when the code is not 0, and no traceback (pytest turns a numpy
RuntimeWarning into a failure)."""

import random

import pytest

from csikey.cli import OPTIONS, main

SWEEP_SEED = 2013
SWEEP_CASES = 200

# Small runs: every case starts from one of these and overrides some flags.
BASE_ARGV = {
    "params-table": ["--n", "8,16"],
    "ber": ["--n", "4", "--trials", "2"],
    "key-agreement": ["--n", "4", "--eta", "8"],
    "cipher": ["--n", "4", "--trials", "2"],
    "reduction-demo": ["--n", "2", "--trials", "1"],
    "decision-to-search": ["--n", "2", "--log2m", "2", "--trials", "1"],
}
FLOATS = ("1e300", "-1e300", "1e-300", "-1e-300", "0", str(2**53), "inf",
          "-inf", "nan", "x")
INTS = ("0", "-1", str(2**53), str(-2**53), "x")
# 2^53 trials or 2^53 key bits is a well-formed request that runs for ever,
# so those two options leave it out; --out would write files.
VALUES = {opt: FLOATS if typ is float else INTS
          for opt, (typ, _, _) in OPTIONS.items() if opt != "out"}
SIZES = tuple(v for v in INTS if v != str(2**53))
VALUES.update(trials=SIZES, eta=SIZES, format=("csv", "json", "x"),
              coder=("none", "repetition-3", "x"))


def sweep_cases(seed: int = SWEEP_SEED, count: int = SWEEP_CASES) -> list:
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        sub = rng.choice(sorted(BASE_ARGV))
        argv = [sub, *BASE_ARGV[sub]]
        for opt in rng.sample(sorted(VALUES), rng.randint(1, 4)):
            argv += ["--" + opt.replace("_", "-"), rng.choice(VALUES[opt])]
        cases.append(argv)
    return cases


# Fixed cases: an n or eta too large for a float (10^400) must end in one
# ParameterError line naming the 2^53 bound, not an OverflowError traceback.
HUGE = str(10**400)
HUGE_CASES = {
    "ber-n": ["ber", "--n", HUGE, "--trials", "2"],
    "key-agreement-n": ["key-agreement", "--n", HUGE, "--eta", "8"],
    "cipher-n": ["cipher", "--n", HUGE, "--trials", "2"],
    "decision-to-search-n": ["decision-to-search", "--n", HUGE, "--log2m", "2",
                             "--trials", "1"],
    "params-table-n": ["params-table", "--n", HUGE],
    "params-table-n-list": ["params-table", "--n", "8," + HUGE],
    "key-agreement-eta": ["key-agreement", "--n", "4", "--eta", HUGE],
}


@pytest.mark.parametrize("argv", HUGE_CASES.values(), ids=HUGE_CASES)
def test_huge_counts_end_in_a_parameter_error(argv, capsys):
    assert main(argv) == 1
    errors = [line for line in capsys.readouterr().err.splitlines()
              if "error:" in line]
    assert len(errors) == 1 and "at most 2^53" in errors[0]


@pytest.mark.parametrize("argv", sweep_cases(), ids=" ".join)
def test_extreme_values_end_in_a_typed_exit(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects a value
        code = exc.code
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    assert sum("error:" in line for line in err.splitlines()) == (code != 0)
