"""Arguments are checked once, at the public boundary: one op of each
benchmark workload, run in process with the argv perfbench/workloads.py
gives it, makes at most CHECK_BUDGET calls of the four check helpers,
counted through each module's own binding of them."""

import contextlib
import importlib
import io
import json
import pkgutil
import sys
from collections import Counter
from pathlib import Path

import pytest

import csikey
from csikey import cli

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import WORKLOADS  # noqa: E402

CHECK_BUDGET = 40
HELPERS = ("need_int", "need_real", "need_array", "need_ints")
BENCHMARKED = [w["name"] for w in
               json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("name", BENCHMARKED)
def test_one_op_stays_within_the_check_budget(name, monkeypatch):
    calls = Counter()

    def counting(helper, original):
        def counted(*args, **kwargs):
            calls[f"{helper}({args[0]!r})"] += 1
            return original(*args, **kwargs)
        return counted

    for info in pkgutil.iter_modules(csikey.__path__):
        mod = importlib.import_module(f"csikey.{info.name}")
        for helper in HELPERS:
            if info.name != "errors" and hasattr(mod, helper):
                monkeypatch.setattr(mod, helper, counting(helper, getattr(mod, helper)))
    with contextlib.redirect_stdout(io.StringIO()):  # the op's JSON document
        assert cli.main(WORKLOADS[name].argv(0)) == 0
    assert 0 < sum(calls.values()) <= CHECK_BUDGET, calls.most_common(5)
