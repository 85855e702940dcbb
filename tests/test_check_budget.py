"""Arguments are checked once, at the public boundary: one op of each
benchmark workload, run in process with the argv perfbench/workloads.py
gives it, and one cipher run make at most CHECK_BUDGET calls of the four
check helpers, counted through each module's own binding of them; each
further chunk of the cipher's trials adds at most PER_CHUNK."""

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
PER_CHUNK = 8
CIPHER = "cipher --n 16 --log2m 6 --alpha 0.3 --trials 50".split()
HELPERS = ("need_int", "need_real", "need_array", "need_ints")
BENCHMARKED = [w["name"] for w in
               json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def _checks(argv: list, monkeypatch) -> Counter:
    """The check-helper calls of cli.main(argv), by helper and name."""
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
    with contextlib.redirect_stdout(io.StringIO()):  # the run's document
        assert cli.main(argv) == 0
    monkeypatch.undo()
    return calls


@pytest.mark.parametrize("name", BENCHMARKED)
def test_one_op_stays_within_the_check_budget(name, monkeypatch):
    calls = _checks(WORKLOADS[name].argv(0), monkeypatch)
    assert 0 < sum(calls.values()) <= CHECK_BUDGET, calls.most_common(5)


def test_a_cipher_run_stays_within_the_check_budget(monkeypatch):
    calls = _checks(CIPHER, monkeypatch)
    assert 0 < sum(calls.values()) <= CHECK_BUDGET, calls.most_common(5)


def test_each_further_cipher_chunk_adds_few_checks(monkeypatch):
    one, three = (sum(_checks(f"cipher --n 4 --log2m 3 --trials {t}".split(),
                              monkeypatch).values()) for t in (64, 130))
    assert three - one <= 2 * PER_CHUNK, (one, three)
