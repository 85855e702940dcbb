"""Rewrites tests/golden/manifest.json, the record of every CLI artifact that
tests/test_manifest.py regenerates and compares.

Each command line of scripts/cli_lines.txt runs on seeds 0-3, in JSON and
in CSV, through csikey.cli.main in this process, with the terminal width
pinned to 80 columns (argparse wraps its usage text to COLUMNS).  For each
(line, seed, format) the manifest holds
  sha256    the SHA-256 of stdout, with JSON's git_describe masked;
  exit      the exit code;
  stderr    the text written to stderr;
  discrete  the SHA-256 of the exit code and the results' discrete fields
            (counts, keys, flags, names), without the floats.
It also records the Python, numpy and BLAS it was made with and the machine.
SVD and matmul bits can differ across BLAS builds and CPUs, so sha256 and
stderr bind only where that provenance matches; exit and discrete bind
everywhere.  Run from the repository root:
  PYTHONPATH=src python3 scripts/update_manifest.py
"""

import contextlib
import csv
import hashlib
import io
import json
import os
import platform
import re
import sys
from pathlib import Path
from unittest import mock

import numpy as np

from csikey import cli

ROOT = Path(__file__).resolve().parent.parent
LINES = ROOT / "scripts" / "cli_lines.txt"
MANIFEST = ROOT / "tests" / "golden" / "manifest.json"
SEEDS = (0, 1, 2, 3)
FORMATS = ("json", "csv")  # json first: its types tell which CSV columns are floats
COLUMNS = "80"


def provenance() -> dict:
    try:  # numpy < 1.26 has no mode="dicts"
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "machine": platform.machine()}


def command_lines() -> list[str]:
    """The command lines of cli_lines.txt, without comments and blank lines."""
    lines = (ln.strip() for ln in LINES.read_text().splitlines())
    return [ln for ln in lines if ln and not ln.startswith("#")]


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of csikey.cli.main(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, COLUMNS=COLUMNS), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _without_floats(value):
    if isinstance(value, dict):
        return {k: _without_floats(v) for k, v in value.items()
                if not isinstance(v, float)}
    if isinstance(value, list):
        return [_without_floats(v) for v in value if not isinstance(v, float)]
    return value


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def line_entries(line: str) -> dict:
    """The manifest entries of one command line, keyed by its full argv."""
    entries = {}
    for seed in SEEDS:
        float_columns = set()
        for fmt in FORMATS:
            argv = line.split() + ["--seed", str(seed), "--format", fmt]
            code, out, err = run_cli(argv)
            results = []
            if code == 0 and fmt == "json":
                results = json.loads(out)["results"]
                float_columns = {k for row in results for k, v in row.items()
                                 if isinstance(v, float)}
            elif code == 0:
                rows = csv.DictReader(out.splitlines()[1:])  # after "# config:"
                results = [{k: v for k, v in row.items() if k not in float_columns}
                           for row in rows]
            discrete = json.dumps({"exit": code, "results": _without_floats(results)},
                                  sort_keys=True)
            masked = re.sub(r'"git_describe": ".*"', '"git_describe": "-"', out)
            entries[" ".join(argv)] = {"sha256": _sha256(masked), "exit": code,
                                       "stderr": err, "discrete": _sha256(discrete)}
    return entries


def build_manifest() -> dict:
    artifacts = {}
    for line in command_lines():
        artifacts.update(line_entries(line))
    return {"columns": int(COLUMNS), "provenance": provenance(),
            "artifacts": artifacts}


def differences(recorded: dict, current: dict) -> list[str]:
    """What differs between two manifests, one line per field; sha256 and
    stderr count only when the two provenances match."""
    fields = ["exit", "discrete"]
    if recorded["provenance"] == current["provenance"]:
        fields += ["sha256", "stderr"]
    old, new = recorded["artifacts"], current["artifacts"]
    diffs = [f"{key}: only in {'recorded' if key in old else 'current'}"
             for key in sorted(old.keys() ^ new.keys())]
    diffs += [f"{key}: {name} differs" for key in sorted(old.keys() & new.keys())
              for name in fields if old[key][name] != new[key][name]]
    return diffs


def main() -> int:
    manifest = build_manifest()
    MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(manifest['artifacts'])} artifacts to "
          f"{MANIFEST.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
